//! The replication pump: a stop-and-wait loop driving [`Shipper`] batches
//! through a [`ShipTransport`] into a [`Follower`].
//!
//! One pump round = cut the next durable batch, send it (with bounded
//! full-jitter retry on transient transport failures), drain everything the
//! transport delivered, and reconcile: if the follower's verified frontier
//! reached the batch end, acknowledge it; otherwise rewind to the follower's
//! frontier and re-ship (idempotent — the follower ignores bytes it already
//! verified). A round that moves the frontier nowhere counts toward a stall
//! cap so a transport that eats everything surfaces as an error instead of
//! an infinite loop.

use crate::follower::{Applied, Follower, ResumePoint};
use crate::ship::Shipper;
use crate::transport::ShipTransport;
use acc_common::events::{Event, EventSink};
use acc_common::faults::FaultInjector;
use acc_common::{Error, Result, SeededRng};
use acc_engine::RetryPolicy;
use std::sync::Arc;

/// Consecutive no-progress rounds tolerated before the pump gives up. High
/// enough that any plan with a finite drop period makes progress; low enough
/// that a black-hole transport fails fast.
const STALL_CAP: u32 = 32;

/// What one [`Replicator::pump`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpStats {
    /// Batches the follower verified and accepted.
    pub batches: u64,
    /// Records those batches carried.
    pub records: u64,
    /// Transient send failures retried with backoff.
    pub retries: u64,
    /// Batches the follower refused (torn, gapped, broken chain).
    pub refusals: u64,
    /// Rewinds to the follower's verified frontier.
    pub resumes: u64,
}

/// Leader-side replication driver: owns the shipper, the transport, the
/// retry policy for transient sends, and the observability plumbing.
pub struct Replicator<T: ShipTransport> {
    shipper: Shipper,
    transport: T,
    retry: RetryPolicy,
    rng: SeededRng,
    sink: Arc<EventSink>,
    faults: Arc<FaultInjector>,
}

impl<T: ShipTransport> Replicator<T> {
    /// A replicator with the standard retry policy and no observability.
    pub fn new(transport: T, max_batch: usize, seed: u64) -> Replicator<T> {
        Replicator {
            shipper: Shipper::new(max_batch),
            transport,
            retry: RetryPolicy::standard(),
            rng: SeededRng::new(seed),
            sink: EventSink::disabled(),
            faults: FaultInjector::disabled(),
        }
    }

    /// Attach an event sink (ship batches, retries, refusals, resumes).
    pub fn with_events(mut self, sink: Arc<EventSink>) -> Replicator<T> {
        self.sink = sink;
        self
    }

    /// Attach a fault injector (`crash_after_ships` capture points).
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Replicator<T> {
        self.faults = faults;
        self
    }

    /// Override the transient-send retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Replicator<T> {
        self.retry = retry;
        self
    }

    /// Leader records the follower has verified (the shipped frontier the
    /// caller feeds to [`acc_txn::SharedDb::set_shipped_frontier`]).
    pub fn shipped_records(&self) -> u64 {
        self.shipper.acked_records()
    }

    /// The underlying transport (tests: inject misbehavior mid-stream).
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Resume handshake after a follower restart: verify the follower's
    /// claimed frontier chain against the leader's durable history, then
    /// rewind to it. A mismatch is a typed [`Error::Divergence`].
    pub fn resume(&mut self, leader_durable: &[u8], point: ResumePoint) -> Result<()> {
        self.shipper.resume_from(leader_durable, point)?;
        self.sink.emit(Event::ShipResume {
            offset: point.offset,
        });
        Ok(())
    }

    /// Send one batch, retrying transient transport failures with seeded
    /// full-jitter backoff. Returns retries spent.
    fn send_with_retry(&mut self, batch: crate::ship::ShipBatch) -> Result<u64> {
        let mut attempt = 0u32;
        loop {
            match self.transport.send(batch.clone()) {
                Ok(()) => return Ok(attempt as u64),
                Err(e) if attempt < self.retry.max_retries => {
                    attempt += 1;
                    self.sink.emit(Event::ShipRetry { attempt });
                    std::thread::sleep(self.retry.backoff(attempt, &mut self.rng));
                    let _ = e;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Ship the leader's durable stream until the follower is caught up (or
    /// the stall cap trips). `leader_records` is the durable record count
    /// behind `leader_durable` — the basis of the lag gauge.
    pub fn pump(
        &mut self,
        follower: &mut Follower,
        leader_durable: &[u8],
        leader_records: u64,
    ) -> Result<PumpStats> {
        let mut stats = PumpStats::default();
        let mut stalls = 0u32;
        while let Some(batch) = self.shipper.next_batch(leader_durable) {
            let target = batch.end();
            stats.retries += self.send_with_retry(batch)?;

            // Drain everything the transport has for us — the sent batch,
            // duplicates, and any delayed batches released by this send.
            while let Some(got) = self.transport.recv() {
                match follower.apply(&got) {
                    Applied::Accepted { records } => {
                        stats.batches += 1;
                        stats.records += records;
                        let lag = leader_records.saturating_sub(follower.replay_lsn());
                        self.sink.emit(Event::ShipBatch {
                            records: records as u32,
                            bytes: got.payload.len() as u32,
                            lag: lag as u32,
                        });
                        // Leader-crash capture point: what survives a leader
                        // death here is exactly the follower's verified
                        // stream.
                        self.faults.on_ship(|| follower.stream().to_vec());
                    }
                    Applied::Duplicate => {}
                    Applied::Refused(_) => {
                        stats.refusals += 1;
                        self.sink.emit(Event::ShipRefused { seq: got.seq });
                    }
                }
            }

            let point = follower.resume_point();
            if point.offset >= target {
                self.shipper.ack_to(point.offset, point.records);
                stalls = 0;
            } else {
                // Lost or refused: rewind to the follower's verified
                // frontier and re-ship from there.
                if point.offset != self.shipper.acked() {
                    stalls = 0;
                } else {
                    stalls += 1;
                    if stalls > STALL_CAP {
                        return Err(Error::Internal(format!(
                            "ship pump stalled at offset {} after {STALL_CAP} \
                             no-progress rounds",
                            point.offset
                        )));
                    }
                }
                stats.resumes += 1;
                self.shipper.rewind(point.offset, point.records);
                self.sink.emit(Event::ShipResume {
                    offset: point.offset,
                });
            }
        }
        Ok(stats)
    }
}

impl<T: ShipTransport> std::fmt::Debug for Replicator<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replicator")
            .field("acked", &self.shipper.acked())
            .field("acked_records", &self.shipper.acked_records())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tcp::TcpTransport;
    use crate::transport::MemTransport;
    use acc_storage::{Catalog, Database};
    use acc_wal::MemDevice;

    /// A frame of `len` payload bytes that need not decode as a record.
    /// The follower verifies framing and chains, not payloads — those are
    /// replay's business, and these tests never replay.
    fn frame(len: usize, fill: u8) -> Vec<u8> {
        let mut f = Vec::new();
        acc_wal::codec::encode_frame(&vec![fill; len], &mut f);
        f
    }

    fn stream(frames: usize) -> (Vec<u8>, u64) {
        let mut s = Vec::new();
        for i in 0..frames {
            s.extend(frame(17 + (i % 5), i as u8));
        }
        (s, frames as u64)
    }

    fn follower() -> Follower {
        Follower::new(Database::new(&Catalog::new()), Box::new(MemDevice::new()))
    }

    #[test]
    fn pump_over_tcp_converges_to_the_durable_prefix() {
        let (durable, records) = stream(20);
        let t = TcpTransport::loopback().expect("loopback pair");
        let mut rep = Replicator::new(t, 100, 17);
        let mut f = follower();
        let stats = rep.pump(&mut f, &durable, records).expect("tcp pump");
        assert_eq!(f.stream(), &durable[..]);
        assert_eq!(f.replay_lsn(), records);
        assert_eq!(stats.records, records);
    }

    #[test]
    fn black_hole_transport_stalls_out_instead_of_spinning() {
        let (durable, records) = stream(4);
        let plan = acc_common::faults::ShipPlan {
            drop_every: Some(1), // eat everything
            ..Default::default()
        };
        let mut rep = Replicator::new(MemTransport::with_plan(plan), 1 << 20, 1);
        let mut f = follower();
        let err = rep
            .pump(&mut f, &durable, records)
            .expect_err("black hole must not loop forever");
        assert!(matches!(err, Error::Internal(ref m) if m.contains("stalled")));
        assert_eq!(f.replay_lsn(), 0);
    }
}
