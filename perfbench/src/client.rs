//! The load generator: one TCP connection, a closed loop on one thread or an
//! open loop on a sender and a receiver thread.
//!
//! An *operation* is one transaction the generator wants done. It goes out
//! as one wire request; a response that had no net effect and may succeed
//! if sent again (`Overloaded`, a `Deadlock` or `Doomed` rollback after the
//! server's own retries) is resubmitted after a full-jitter backoff, up to
//! [`RESUBMITS`] times. Every wire request is counted, so the failures a
//! resubmission absorbs still show in `ok_frac`.

use crate::schedule::request_seed;
use crate::stats::Outcome;
use crate::trace::Clock;
use acc_common::SeededRng;
use acc_engine::threaded::RetryPolicy;
use acc_server::{Inbound, Mix, Outbound, Request, Response};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Resubmissions allowed per operation.
pub const RESUBMITS: u32 = 8;

/// Client resubmission pacing: full jitter over 1 ms doubling to 64 ms.
const BACKOFF: RetryPolicy = RetryPolicy {
    max_retries: RESUBMITS,
    base_backoff: Duration::from_millis(1),
    max_backoff: Duration::from_millis(64),
};

/// Longest wait for a response before the loop looks around again.
const POLL: Duration = Duration::from_millis(20);

/// The deadline every wire request carries: far above any workload's p99.
pub const DEADLINE: Duration = Duration::from_secs(2);

/// A response that has not come after this long means the server lost it.
const SILENCE_LIMIT: Duration = Duration::from_secs(20);

/// One operation's life, as the client saw it. Times are ns on the shared
/// clock.
#[derive(Debug, Clone, Default)]
pub struct OpRec {
    /// The request seed (the same on every resubmission).
    pub seed: u64,
    /// When its latency starts: the first send (closed loop) or the due
    /// time (open loop).
    pub t0: u64,
    /// When its last wire request went out.
    pub last_send: u64,
    /// When its final response arrived (0 while unsettled).
    pub recv: u64,
    /// Wire requests sent.
    pub wire: u32,
    /// Wire requests that failed (see [`Outcome::is_failure`]).
    pub wire_failures: u32,
    /// The final outcome.
    pub outcome: Option<Outcome>,
    /// Server-side retries behind the final response.
    pub engine_retries: u32,
    /// Server-reported latency of the final response, µs (commits only).
    pub server_us: u64,
    /// Engine transaction id (commits only).
    pub txn_id: u64,
    /// Forward steps (commits only).
    pub steps: u32,
}

impl OpRec {
    /// Client-observed latency, ns (0 while unsettled).
    pub fn latency(&self) -> u64 {
        self.recv.saturating_sub(self.t0)
    }
}

/// What a load run hands back.
#[derive(Debug, Default)]
pub struct ClientRun {
    /// Every operation started.
    pub ops: Vec<OpRec>,
    /// Send time minus due time of every open-loop arrival, ns.
    pub lateness: Vec<u64>,
    /// Broken protocol promises: duplicate, stray or missing responses.
    pub violations: Vec<String>,
    /// Messages of `Error` responses.
    pub errors: Vec<String>,
}

fn client_seq(op: usize, attempt: u32) -> u64 {
    ((op as u64) << 8) | u64::from(attempt)
}

/// The sending half of the connection.
struct Sender {
    stream: TcpStream,
    out: Outbound,
    mix: Mix,
    deadline_us: u64,
}

impl Sender {
    fn new(stream: TcpStream, mix: Mix) -> Sender {
        Sender {
            stream,
            out: Outbound::new(),
            mix,
            deadline_us: DEADLINE.as_micros() as u64,
        }
    }

    fn send(&mut self, op: usize, attempt: u32, seed: u64) -> std::io::Result<()> {
        let req = Request {
            client_seq: client_seq(op, attempt),
            deadline_micros: self.deadline_us,
            mix: self.mix,
            seed,
        };
        let frame = self.out.seal(&req.encode());
        self.stream.write_all(&frame)
    }
}

/// Resubmissions waiting out their backoff: `(due, op, attempt)`.
#[derive(Default)]
struct Backlog(BinaryHeap<Reverse<(u64, usize, u32)>>);

impl Backlog {
    /// Queue `attempt` of operation `op` after its backoff.
    fn push(&mut self, op: usize, attempt: u32, seed: u64, now: u64) {
        let mut rng = SeededRng::new(seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let pause = BACKOFF.backoff(attempt, &mut rng).as_nanos() as u64;
        self.0.push(Reverse((now + pause, op, attempt)));
    }

    /// Take every resubmission due by `now`.
    fn due(&mut self, now: u64) -> Vec<(usize, u32)> {
        let mut out = Vec::new();
        while let Some(&Reverse((at, op, attempt))) = self.0.peek() {
            if at > now {
                break;
            }
            self.0.pop();
            out.push((op, attempt));
        }
        out
    }

    /// How long the receiver may block before the next resubmission is due.
    fn patience(&self, now: u64) -> Duration {
        self.0.peek().map_or(POLL, |Reverse((at, _, _))| {
            Duration::from_nanos(at.saturating_sub(now)).clamp(Duration::from_micros(50), POLL)
        })
    }
}

/// The receiving half.
struct Receiver {
    stream: TcpStream,
    inbound: Inbound,
    chunk: Vec<u8>,
    timeout: Duration,
}

impl Receiver {
    fn new(stream: TcpStream) -> std::io::Result<Receiver> {
        stream.set_read_timeout(Some(POLL))?;
        Ok(Receiver {
            stream,
            inbound: Inbound::new(),
            chunk: vec![0; 64 * 1024],
            timeout: POLL,
        })
    }

    /// The responses that arrived, or none after `timeout`.
    fn poll(&mut self, timeout: Duration) -> Result<Vec<Response>, String> {
        if timeout != self.timeout {
            self.stream
                .set_read_timeout(Some(timeout))
                .map_err(|e| format!("recv: {e}"))?;
            self.timeout = timeout;
        }
        let n = match self.stream.read(&mut self.chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(Vec::new())
            }
            Err(e) => return Err(format!("recv: {e}")),
        };
        let payloads = self
            .inbound
            .feed(&self.chunk[..n])
            .map_err(|e| format!("bad frame: {e}"))?;
        payloads
            .iter()
            .map(|p| Response::decode(p).map_err(|e| format!("bad response: {e}")))
            .collect()
    }
}

/// Apply one response to its operation. Returns the attempt number to
/// resubmit with, if the operation goes out again.
fn settle(run: &mut ClientRun, resp: &Response, now: u64) -> Option<(usize, u32)> {
    let seq = resp.client_seq();
    let (op, attempt) = ((seq >> 8) as usize, (seq & 0xff) as u32);
    if let Response::Error { message, .. } = resp {
        run.errors.push(message.clone());
    }
    let Some(rec) = run.ops.get_mut(op) else {
        run.violations
            .push(format!("response for unknown request {seq:#x}"));
        return None;
    };
    if rec.outcome.is_some() || attempt + 1 != rec.wire {
        run.violations.push(format!(
            "response for request {seq:#x} settles it twice or out of turn"
        ));
        return None;
    }
    let outcome = Outcome::of(resp);
    if outcome.is_failure() {
        rec.wire_failures += 1;
    }
    if outcome.resubmittable() && rec.wire <= RESUBMITS {
        return Some((op, rec.wire));
    }
    rec.outcome = Some(outcome);
    rec.recv = now;
    if let Response::Committed {
        txn_id,
        steps,
        engine_retries,
        latency_micros,
        ..
    } = *resp
    {
        rec.txn_id = txn_id;
        rec.steps = steps;
        rec.engine_retries = engine_retries;
        rec.server_us = latency_micros;
    }
    None
}

/// Drive `outstanding` operations at a time until `stop_at`, then let the
/// last ones finish. One thread.
pub fn closed_loop(
    stream: TcpStream,
    mix: Mix,
    seed: u64,
    outstanding: usize,
    clock: Clock,
    stop_at: u64,
) -> Result<ClientRun, String> {
    let io = |e: std::io::Error| format!("send: {e}");
    let mut tx = Sender::new(stream.try_clone().map_err(io)?, mix);
    let mut rx = Receiver::new(stream).map_err(io)?;
    let mut run = ClientRun::default();
    let mut live = 0usize;
    let start = |run: &mut ClientRun, tx: &mut Sender| -> Result<(), String> {
        let op = run.ops.len();
        let seed = request_seed(seed, op as u64);
        let now = clock.now();
        run.ops.push(OpRec {
            seed,
            t0: now,
            last_send: now,
            wire: 1,
            ..OpRec::default()
        });
        tx.send(op, 0, seed).map_err(io)
    };
    for _ in 0..outstanding {
        start(&mut run, &mut tx)?;
        live += 1;
    }
    let mut heard = clock.now();
    let mut backlog = Backlog::default();
    while live > 0 {
        for (op, attempt) in backlog.due(clock.now()) {
            let rec = &mut run.ops[op];
            rec.wire += 1;
            rec.last_send = clock.now();
            tx.send(op, attempt, rec.seed).map_err(io)?;
        }
        let batch = rx.poll(backlog.patience(clock.now()))?;
        let now = clock.now();
        if batch.is_empty() && now - heard > SILENCE_LIMIT.as_nanos() as u64 {
            return Err(format!("{live} requests unanswered for {SILENCE_LIMIT:?}"));
        }
        for resp in batch {
            heard = now;
            match settle(&mut run, &resp, now) {
                Some((op, attempt)) => backlog.push(op, attempt, run.ops[op].seed, now),
                None => {
                    live -= 1;
                    if clock.now() < stop_at {
                        start(&mut run, &mut tx)?;
                        live += 1;
                    }
                }
            }
        }
    }
    Ok(run)
}

/// Send operation `i` at `start + due[i]` until `stop_at`, whatever the
/// server does; a second thread receives. Latency runs from the due time.
pub fn open_loop(
    stream: TcpStream,
    mix: Mix,
    seed: u64,
    due: Vec<u64>,
    clock: Clock,
    start: u64,
    stop_at: u64,
) -> Result<ClientRun, String> {
    let io = |e: std::io::Error| format!("send: {e}");
    let tx = Arc::new(Mutex::new(Sender::new(
        stream.try_clone().map_err(io)?,
        mix,
    )));
    let mut rx = Receiver::new(stream).map_err(io)?;
    let sent_at: Arc<Vec<AtomicU64>> = Arc::new(due.iter().map(|_| AtomicU64::new(0)).collect());
    let issued = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicBool::new(false));

    let sender = {
        let (tx, sent_at, issued, done) = (
            Arc::clone(&tx),
            Arc::clone(&sent_at),
            Arc::clone(&issued),
            Arc::clone(&done),
        );
        let due = due.clone();
        crate::cpu::spawn("sender", move || -> Result<Vec<u64>, String> {
            let mut lateness = Vec::with_capacity(due.len());
            let result = (|| {
                for (op, &offset) in due.iter().enumerate() {
                    let at = start + offset;
                    if at >= stop_at {
                        break;
                    }
                    let now = clock.now();
                    if at > now {
                        std::thread::sleep(Duration::from_nanos(at - now));
                    }
                    let mut tx = tx.lock().expect("a sender thread panicked");
                    let now = clock.now();
                    sent_at[op].store(now, Ordering::SeqCst);
                    tx.send(op, 0, request_seed(seed, op as u64))
                        .map_err(|e| format!("send: {e}"))?;
                    drop(tx);
                    lateness.push(now - at);
                    issued.store(op + 1, Ordering::SeqCst);
                }
                Ok(())
            })();
            done.store(true, Ordering::SeqCst);
            result.map(|()| lateness)
        })?
    };

    let mut run = ClientRun {
        ops: due
            .iter()
            .enumerate()
            .map(|(op, &offset)| OpRec {
                seed: request_seed(seed, op as u64),
                t0: start + offset,
                wire: 1,
                ..OpRec::default()
            })
            .collect(),
        ..ClientRun::default()
    };
    let mut settled = 0usize;
    let mut heard = clock.now();
    let mut backlog = Backlog::default();
    let received = loop {
        let finished = done.load(Ordering::SeqCst);
        if finished && settled == issued.load(Ordering::SeqCst) {
            break Ok(());
        }
        let mut failed = None;
        for (op, attempt) in backlog.due(clock.now()) {
            let rec = &mut run.ops[op];
            rec.wire += 1;
            let mut tx = tx.lock().expect("a sender thread panicked");
            rec.last_send = clock.now();
            if let Err(e) = tx.send(op, attempt, rec.seed) {
                failed = Some(format!("send: {e}"));
            }
        }
        if let Some(e) = failed {
            break Err(e);
        }
        let batch = match rx.poll(backlog.patience(clock.now())) {
            Ok(b) => b,
            Err(e) => break Err(e),
        };
        let now = clock.now();
        if batch.is_empty() && finished && now - heard > SILENCE_LIMIT.as_nanos() as u64 {
            break Err(format!(
                "{} requests unanswered for {SILENCE_LIMIT:?}",
                issued.load(Ordering::SeqCst) - settled
            ));
        }
        for resp in batch {
            heard = now;
            match settle(&mut run, &resp, now) {
                Some((op, attempt)) => backlog.push(op, attempt, run.ops[op].seed, now),
                None => settled += 1,
            }
        }
    };
    let sent = sender.join().map_err(|_| "sender panicked".to_string())?;
    received?;
    run.lateness = sent?;
    let issued = issued.load(Ordering::SeqCst);
    run.ops.truncate(issued);
    for (op, rec) in run.ops.iter_mut().enumerate() {
        if rec.wire == 1 {
            rec.last_send = sent_at[op].load(Ordering::SeqCst);
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_server::WireAbort;

    fn run(n: usize) -> ClientRun {
        ClientRun {
            ops: (0..n)
                .map(|_| OpRec {
                    wire: 1,
                    ..OpRec::default()
                })
                .collect(),
            ..ClientRun::default()
        }
    }

    #[test]
    fn transient_rollbacks_resubmit_then_settle() {
        let mut r = run(1);
        let deadlock = Response::RolledBack {
            client_seq: client_seq(0, 0),
            reason: WireAbort::Deadlock,
        };
        assert_eq!(settle(&mut r, &deadlock, 5), Some((0, 1)));
        r.ops[0].wire = 2;
        let commit = Response::Committed {
            client_seq: client_seq(0, 1),
            txn_id: 9,
            steps: 2,
            engine_retries: 1,
            latency_micros: 40,
        };
        assert_eq!(settle(&mut r, &commit, 8), None);
        let o = &r.ops[0];
        assert_eq!(o.outcome, Some(Outcome::Committed));
        assert_eq!((o.wire, o.wire_failures, o.recv, o.txn_id), (2, 1, 8, 9));
        assert!(r.violations.is_empty());
        // A second response for a settled operation is a violation.
        assert_eq!(settle(&mut r, &commit, 9), None);
        assert_eq!(r.violations.len(), 1);
    }

    #[test]
    fn resubmission_budget_runs_out() {
        let mut r = run(1);
        for attempt in 0..=RESUBMITS {
            let doomed = Response::RolledBack {
                client_seq: client_seq(0, attempt),
                reason: WireAbort::Doomed,
            };
            let again = settle(&mut r, &doomed, 1);
            if attempt < RESUBMITS {
                assert_eq!(again, Some((0, attempt + 1)));
                r.ops[0].wire += 1;
            } else {
                assert_eq!(again, None);
            }
        }
        assert_eq!(r.ops[0].outcome, Some(Outcome::Doomed));
        assert_eq!(r.ops[0].wire_failures, RESUBMITS + 1);
    }

    #[test]
    fn backlog_releases_resubmissions_in_due_order() {
        let mut b = Backlog::default();
        assert_eq!(b.patience(0), POLL);
        b.push(3, 2, 11, 1_000);
        b.push(4, 1, 12, 1_000);
        // Attempt 1 waits at most 1 ms, attempt 2 at most 2 ms.
        assert!(b.patience(1_000) <= Duration::from_millis(2));
        assert!(b.due(999).is_empty());
        let all = b.due(1_000 + 2_000_000);
        assert_eq!(all.len(), 2);
        assert!(all.contains(&(3, 2)) && all.contains(&(4, 1)));
        assert!(b.due(u64::MAX).is_empty());
    }

    #[test]
    fn user_abort_settles_without_failure() {
        let mut r = run(2);
        let abort = Response::RolledBack {
            client_seq: client_seq(1, 0),
            reason: WireAbort::UserAbort,
        };
        assert_eq!(settle(&mut r, &abort, 3), None);
        assert_eq!(r.ops[1].outcome, Some(Outcome::UserAbort));
        assert_eq!(r.ops[1].wire_failures, 0);
        let stray = Response::DeadlineExceeded {
            client_seq: client_seq(7, 0),
        };
        assert_eq!(settle(&mut r, &stray, 3), None);
        assert_eq!(r.violations.len(), 1);
    }
}
