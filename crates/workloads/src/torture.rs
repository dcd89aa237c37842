//! The crash-torture harness: recovery + compensation at every crash point,
//! for any workload family.
//!
//! The paper's robustness claim (§3.4) is that multi-step transactions
//! survive failure by redoing their durable steps and running compensating
//! steps for the rest. This module proves the claim mechanically. A
//! [`WorkloadKit`] supplies a family's base database, seeded mix, recovered
//! programs and consistency audit; a [`CutSource`] decides where the system
//! is crashed; and every crash point goes through the same audit:
//!
//! 1. **consistency** — the family's audit holds after recovery +
//!    compensation (strict serializability is out of scope for the ACC by
//!    design);
//! 2. **no silent loss** — every transaction on the salvaged log is fully
//!    replayed, compensated, or discarded (no durable step); the salvage
//!    decodes exactly the records the cut leaves intact, and corrupt bytes
//!    past the clean prefix are counted as rejected records, never silently
//!    absorbed;
//! 3. **no lock leak** — compensation leaves zero lock grants behind;
//! 4. **determinism** — the per-point outcome log is a pure function of the
//!    config: two runs with an equal config produce byte-identical logs.
//!
//! Every point also emits one [`Event::RecoveryOutcome`] into the harness's
//! event sink, whose counters the report carries.

use acc_common::events::{Event, EventSink};
use acc_common::faults::{BoundaryEdge, Corruption, FaultInjector, FaultPlan, ShipPlan};
use acc_common::{CounterSnapshot, Error, Result, SeededRng};
use acc_core::{Acc, InterferenceTables};
use acc_lockmgr::InstallOutcome;
use acc_repl::{
    stream_chain, Applied, Follower, MemTransport, Refusal, Replicator, ShipBatch, Shipper,
};
use acc_storage::Database;
use acc_txn::runner::{resume_compensation, run};
use acc_txn::{SharedDb, TxnProgram, WaitMode};
use acc_wal::codec::{encode_frame, frame_ends};
use acc_wal::device::temp_log_path;
use acc_wal::{
    recover, sector, FileDevice, FsyncSnapshot, GroupCommitPolicy, InFlight, LogDevice, LogRecord,
    Lsn, MemDevice, Snooper, Wal,
};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::{saga, smallbank};

/// Everything the harness needs to know about a workload family.
pub trait WorkloadKit: Send + Sync {
    /// Family name for report lines.
    fn name(&self) -> &'static str;
    /// A freshly populated base database (deterministic).
    fn base(&self) -> Database;
    /// The interference tables the family runs under in production.
    fn tables(&self) -> Arc<InterferenceTables>;
    /// The family's ACC policy.
    fn acc(&self) -> Arc<Acc>;
    /// The next transaction of the seeded mix.
    fn next_program(&self, rng: &mut SeededRng) -> Box<dyn TxnProgram + Send>;
    /// Rebuild the compensable program for a recovered in-flight
    /// transaction from its durable work area.
    fn program_for_inflight(&self, inf: &InFlight) -> Result<Box<dyn TxnProgram + Send>>;
    /// The family's quiescent consistency audit: one line per violation.
    fn audit(&self, db: &Database) -> Vec<String>;
    /// The generator that drives the seeded mix of a run with `seed`.
    fn mix_rng(&self, seed: u64) -> SeededRng {
        SeededRng::new(seed ^ 0x776b_6c64) // "wkld"
    }
    /// The tables a [`CutSource::Switchover`] run starts under: by default
    /// the fully conservative matrix.
    fn bootstrap_tables(&self) -> Arc<InterferenceTables> {
        Arc::new(InterferenceTables::default())
    }
    /// The labelled tables a [`CutSource::Switchover`] run installs, cycled
    /// through by boundary and crash index: by default the family's own.
    fn install_tables(&self) -> Vec<(String, Arc<InterferenceTables>)> {
        vec![("inferred".into(), self.tables())]
    }
}

impl WorkloadKit for smallbank::SmallbankKit {
    fn name(&self) -> &'static str {
        "smallbank"
    }
    fn base(&self) -> Database {
        smallbank::populate(self.accounts)
    }
    fn tables(&self) -> Arc<InterferenceTables> {
        Arc::clone(&self.tables)
    }
    fn acc(&self) -> Arc<Acc> {
        Arc::clone(&self.acc)
    }
    fn next_program(&self, rng: &mut SeededRng) -> Box<dyn TxnProgram + Send> {
        smallbank::SmallbankKit::next_program(self, rng)
    }
    fn program_for_inflight(&self, inf: &InFlight) -> Result<Box<dyn TxnProgram + Send>> {
        smallbank::SmallbankKit::program_for_inflight(self, inf)
    }
    fn audit(&self, db: &Database) -> Vec<String> {
        smallbank::audit(db)
    }
}

impl WorkloadKit for saga::SagaKit {
    fn name(&self) -> &'static str {
        "saga"
    }
    fn base(&self) -> Database {
        saga::populate(self.skus, self.customers)
    }
    fn tables(&self) -> Arc<InterferenceTables> {
        Arc::clone(&self.tables)
    }
    fn acc(&self) -> Arc<Acc> {
        Arc::clone(&self.acc)
    }
    fn next_program(&self, rng: &mut SeededRng) -> Box<dyn TxnProgram + Send> {
        saga::SagaKit::next_program(self, rng)
    }
    fn program_for_inflight(&self, inf: &InFlight) -> Result<Box<dyn TxnProgram + Send>> {
        saga::SagaKit::program_for_inflight(self, inf)
    }
    fn audit(&self, db: &Database) -> Vec<String> {
        saga::audit(db)
    }
}

/// Adapts a [`WorkloadKit`] (a trait object included) to the threaded
/// engine's [`Workload`](acc_engine::Workload) trait for closed-loop stress
/// runs.
pub struct KitWorkload<K: WorkloadKit + ?Sized>(pub Arc<K>);

impl<K: WorkloadKit + ?Sized> acc_engine::Workload for KitWorkload<K> {
    fn next_program(&self, rng: &mut SeededRng) -> Box<dyn TxnProgram + Send> {
        self.0.next_program(rng)
    }
}

/// Where a torture run crashes the system. Each variant carries only the
/// sizing of its own sweep.
#[derive(Debug, Clone, Copy)]
pub enum CutSource {
    /// An idealised disk that persists every append: crash at every WAL
    /// append index (strided down to about `max_points` cuts), plus `torn`
    /// seeded torn tails, `flips` seeded single-bit flips, `injector` live
    /// fault-injector replays cross-checked against the offline cuts, and
    /// the two edges of one step boundary.
    Appends {
        /// Cap on clean-prefix cuts; `usize::MAX` cuts at every index.
        max_points: usize,
        /// Seeded torn-tail cuts.
        torn: usize,
        /// Seeded single-bit flips over the whole image.
        flips: usize,
        /// Live `crash_after_appends` replays.
        injector: usize,
    },
    /// A real disk: everything past the last completed fsync vanishes and a
    /// torn write mangles a whole sector. The mix runs on both devices
    /// (which must agree at every boundary) and crashes at every fsync
    /// boundary, plus `tears` seeded sector tears and `injector` live
    /// `crash_after_fsyncs` replays.
    Fsync {
        /// Group-commit batch threshold; small values put fsync boundaries
        /// inside steps, so the sweep exercises compensation and discard.
        max_batch: usize,
        /// Seeded sector tears of the file device's raw image.
        tears: usize,
        /// Live `crash_after_fsyncs` replays.
        injector: usize,
    },
    /// Online re-analysis: the mix starts under the kit's bootstrap tables
    /// and installs its install tables at every step boundary (strided down
    /// to about `max_boundaries`); each install must drain the one pinned
    /// transaction and leave the WAL byte-identical. Then a quiescent
    /// install, crashes at every append index (about `max_points`)
    /// recovered under the installed tables, and every fsync boundary of a
    /// run whose install falls inside a `max_batch` group-commit window.
    Switchover {
        /// Cap on switchover points.
        max_boundaries: usize,
        /// Cap on crash points under the installed tables.
        max_points: usize,
        /// Group-commit batch threshold of the fsync-during-drain run;
        /// `None` skips that run.
        max_batch: Option<usize>,
    },
    /// WAL-shipping replication: every ship boundary crashed on both sides
    /// (leader death → promote the follower's prefix; follower death →
    /// salvage, chain-handshake, re-ship), hostile batches at every
    /// boundary, a forged divergent tail, `plans` seeded hostile transport
    /// plans and `injector` live `crash_after_ships` pumps.
    Ship {
        /// Group-commit batch threshold; small values put ship boundaries
        /// mid-transaction.
        max_batch: usize,
        /// Ship batch size target in bytes.
        ship_batch: usize,
        /// Seeded drop/duplicate/delay transport plans.
        plans: usize,
        /// Live `crash_after_ships` pumps.
        injector: usize,
    },
}

/// Sizing of a torture run. Everything is derived from `seed`; two runs
/// with an equal config produce byte-identical outcome logs.
#[derive(Debug, Clone, Copy)]
pub struct TortureConfig {
    /// Master seed for the mix and every sampled cut.
    pub seed: u64,
    /// Transactions in the seeded mix.
    pub txns: usize,
    /// Where the system is crashed.
    pub source: CutSource,
}

/// Aggregate outcome of a torture run.
#[derive(Debug, Default)]
pub struct TortureReport {
    /// Boundaries the source enumerated: fsync boundaries per device, step
    /// boundaries of the mix, or ship boundaries (0 for
    /// [`CutSource::Appends`]).
    pub boundaries: usize,
    /// Every point exercised: the crash points plus the ship sweep's
    /// injector, hostile-batch, follower-crash, divergence and plan points.
    pub points: usize,
    /// Points that went through the crash-point audit (one
    /// [`Event::RecoveryOutcome`] each).
    pub crash_points: usize,
    /// Transactions fully replayed, summed over the crash points.
    pub replayed: u64,
    /// In-flight transactions compensated, summed over the crash points.
    pub compensated: u64,
    /// In-flight transactions discarded (no durable step), summed.
    pub discarded: u64,
    /// Torn/corrupt records rejected past the clean prefix, summed.
    pub rejected_records: u64,
    /// Audit violations across every point and run (must be 0).
    pub violations: usize,
    /// Deepest compensation chain resumed, in completed steps.
    pub max_comp_depth: u32,
    /// Live switchovers exercised (drained installs).
    pub switch_points: usize,
    /// Quiescent installs that switched immediately.
    pub immediate_installs: u64,
    /// Pins drained across all switchovers.
    pub drained: u64,
    /// Lookups that crossed table epochs (must be 0).
    pub mixed_epoch_lookups: u64,
    /// Ship batches the follower refused.
    pub refusals: u64,
    /// Shipper rewinds to the follower's verified frontier.
    pub resumes: u64,
    /// One line per point; byte-identical across same-config runs.
    pub log: String,
    /// Counter snapshot of the harness's event sink (the `recoveries`
    /// family, plus the `ship_*` family for [`CutSource::Ship`]).
    pub counters: CounterSnapshot,
}

/// Run one torture sweep of `kit` from `cfg.source`. Errors are
/// harness-level failures (a recovery pass that itself failed, an
/// accounting hole, a leaked lock, a capture that diverged from its offline
/// cut); audit violations are *counted* in the report so the caller can
/// assert on them.
pub fn run_torture(kit: &dyn WorkloadKit, cfg: &TortureConfig) -> Result<TortureReport> {
    let mut h = Harness::new(kit);
    match cfg.source {
        CutSource::Appends {
            max_points,
            torn,
            flips,
            injector,
        } => h.appends(cfg, max_points, torn, flips, injector)?,
        CutSource::Fsync {
            max_batch,
            tears,
            injector,
        } => h.fsync(cfg, max_batch, tears, injector)?,
        CutSource::Switchover {
            max_boundaries,
            max_points,
            max_batch,
        } => h.switchover(cfg, max_boundaries, max_points, max_batch)?,
        CutSource::Ship {
            max_batch,
            ship_batch,
            plans,
            injector,
        } => h.ship(cfg, max_batch, ship_batch, plans, injector)?,
    }
    Ok(h.finish(&cfg.source))
}

/// The clean-prefix cuts of [`CutSource::Appends`] over a WAL image written
/// outside the harness (by the network front-end, say): crash at every
/// append index, strided down to about `max_points` cuts, each through the
/// full crash-point audit under the kit's tables.
pub fn crash_sweep(
    kit: &dyn WorkloadKit,
    image: &[u8],
    max_points: usize,
) -> Result<TortureReport> {
    let mut h = Harness::new(kit);
    h.cut(image, max_points, 0, 0, 0)?;
    Ok(h.finish(&CutSource::Appends {
        max_points,
        torn: 0,
        flips: 0,
        injector: 0,
    }))
}

/// `first..=n` strided down to about `max` picks, always ending at `n`; a
/// line in `log` says so when it strides. That line's pick count,
/// `n / stride + 1`, is only approximate (kept so the TPC-C outcome logs
/// do not change): it is one short when `n` is added as the last pick, and
/// off again when `first` is 1. The picks themselves are exact.
fn strided(log: &mut String, what: &str, first: usize, n: usize, max: usize) -> Vec<usize> {
    let stride = n.div_ceil(max).max(1);
    if stride > 1 {
        let _ = writeln!(
            log,
            "{what} sweep: striding by {stride} ({} of {} {}; bounded smoke run)",
            n / stride + 1,
            n + 1 - first,
            if first == 0 { "indices" } else { "boundaries" }
        );
    }
    let mut picks: Vec<usize> = (first..=n).step_by(stride).collect();
    if picks.last() != Some(&n) {
        picks.push(n); // always include the last point
    }
    picks
}

/// Number of whole frames of `offsets` inside the first `len` bytes.
fn intact(offsets: &[usize], len: usize) -> usize {
    offsets.partition_point(|&o| o <= len)
}

fn internal<T>(msg: String) -> Result<T> {
    Err(Error::Internal(msg))
}

// ---------------------------------------------------------------------------
// The mix runner
// ---------------------------------------------------------------------------

/// The WAL device of a durable mix run.
#[derive(Debug, Clone, Copy)]
enum Device {
    Mem,
    File,
}

/// When a mix run installs new tables.
enum Install {
    /// Through the live hook at this 1-based step boundary (inside a
    /// running, pinned transaction).
    AtBoundary(u64),
    /// Between transactions, before this 0-based transaction starts.
    BeforeTxn(usize),
}

/// How one run of the seeded mix is wired.
#[derive(Default)]
struct Mix {
    /// Tables the run starts under (`None`: the kit's own).
    tables: Option<Arc<InterferenceTables>>,
    /// A snooped durable device under a zero-window group-commit policy of
    /// this batch threshold (`None`: the default in-memory WAL).
    device: Option<(Device, usize)>,
    /// An armed fault plan.
    plan: Option<FaultPlan>,
    /// A table install during the run.
    install: Option<(Install, Arc<InterferenceTables>)>,
}

/// What one mix run leaves behind.
struct MixRun {
    /// The full record stream.
    image: Vec<u8>,
    /// The durable record stream and its record count.
    durable: Vec<u8>,
    durable_records: u64,
    /// The raw device image (sector-framed for the file device).
    raw: Vec<u8>,
    /// Every fsync-boundary snapshot of a durable-device run.
    snapshots: Vec<FsyncSnapshot>,
    /// The fault injector's capture, if a plan fired.
    captured: Option<Vec<u8>>,
    boundaries: u64,
    epoch: u64,
    switches: u64,
    mixed: u64,
    outcome: Option<InstallOutcome>,
    violations: usize,
    counters: CounterSnapshot,
}

/// Uniquifier for temp log files (tests run concurrently in one process).
static FILE_RUN: AtomicU64 = AtomicU64::new(0);

/// Run the seeded mix single-threaded under the kit's ACC policy, wired as
/// `mix` says. A durable run force-syncs its tail (an abort record can
/// trail the last commit) so the final snapshot covers the whole stream.
fn run_mix(kit: &dyn WorkloadKit, cfg: &TortureConfig, mix: Mix) -> Result<MixRun> {
    let tables = mix.tables.unwrap_or_else(|| kit.tables());
    let mut shared = SharedDb::new(kit.base(), tables as _);
    let mut file = None;
    let mut snaps = None;
    if let Some((device, max_batch)) = mix.device {
        let dev: Box<dyn LogDevice> = match device {
            Device::Mem => {
                let (dev, s) = Snooper::new(MemDevice::new());
                snaps = Some(s);
                Box::new(dev)
            }
            Device::File => {
                let run = FILE_RUN.fetch_add(1, Ordering::Relaxed);
                let path = temp_log_path(&format!("torture-{}-{}-{run}", kit.name(), cfg.seed));
                let (dev, s) = Snooper::new(FileDevice::create(&path)?);
                file = Some(path);
                snaps = Some(s);
                Box::new(dev)
            }
        };
        let policy = GroupCommitPolicy::fixed(std::time::Duration::ZERO, max_batch);
        shared = shared.with_wal_backend(dev, policy);
    }
    let injector = mix.plan.map(FaultInjector::with_plan);
    if let Some(f) = &injector {
        shared = shared.with_fault_injector(Arc::clone(f));
    }
    let shared = Arc::new(shared);
    // Only a switchover run reads its event counters; the rest skip the
    // per-event cost.
    let sink = EventSink::enabled(64);
    if mix.install.is_some() {
        shared.set_event_sink(Arc::clone(&sink));
    }
    let outcome = Arc::new(Mutex::new(None));
    let mut before_txn = None;
    match mix.install {
        Some((Install::AtBoundary(at), tables)) => {
            let sh = Arc::clone(&shared);
            let out = Arc::clone(&outcome);
            shared.set_step_boundary_hook(Some(Box::new(move |count| {
                if count == at {
                    let o = sh.install_oracle(Arc::clone(&tables) as _);
                    *out.lock().expect("outcome not poisoned") = Some(o);
                }
            })));
        }
        Some((Install::BeforeTxn(i), tables)) => before_txn = Some((i, tables)),
        None => {}
    }
    let acc = kit.acc();
    let mut rng = kit.mix_rng(cfg.seed);
    for i in 0..cfg.txns {
        if let Some((_, tables)) = before_txn.as_ref().filter(|(at, _)| *at == i) {
            *outcome.lock().expect("outcome not poisoned") =
                Some(shared.install_oracle(Arc::clone(tables) as _));
        }
        let mut program = kit.next_program(&mut rng);
        // Single-threaded: deadlocks are impossible, user aborts are part of
        // the mix; hard errors are harness bugs and propagate.
        run(&shared, &*acc, program.as_mut(), WaitMode::Block)?;
    }
    // Dropping the hook breaks its `Arc<SharedDb>` cycle.
    shared.set_step_boundary_hook(None);
    if mix.device.is_some() {
        let len = shared.wal_len();
        if len > 0 {
            shared.sync_wal(Lsn(len as u64 - 1))?;
        }
    }
    let grants = shared.total_grants();
    if grants != 0 {
        return internal(format!("{} mix leaked {grants} lock grants", kit.name()));
    }
    let reg = shared.registry();
    let run = MixRun {
        image: shared.wal_bytes(),
        durable: shared.wal_durable_stream(),
        durable_records: shared.durable_wal_records(),
        raw: shared.wal_raw_image(),
        snapshots: snaps.map_or_else(Vec::new, |s| s.lock().expect("snooper").clone()),
        captured: injector.and_then(|f| f.captured_image()),
        boundaries: shared.step_boundaries(),
        epoch: reg.epoch(),
        switches: reg.switches(),
        mixed: reg.mixed_epoch_lookups(),
        outcome: *outcome.lock().expect("outcome not poisoned"),
        violations: kit.audit(&shared.snapshot_db()).len(),
        counters: sink.counters(),
    };
    // Close the device before removing its temp file.
    drop(shared);
    if let Some(path) = file {
        let _ = std::fs::remove_file(path);
    }
    Ok(run)
}

// ---------------------------------------------------------------------------
// The crash-point audit and the outcome accumulator
// ---------------------------------------------------------------------------

/// One sweep in progress: the kit, the pristine base every crash point
/// recovers into, and the report the points accumulate into.
struct Harness<'k> {
    kit: &'k dyn WorkloadKit,
    base: Database,
    sink: Arc<EventSink>,
    r: TortureReport,
}

impl<'k> Harness<'k> {
    fn new(kit: &'k dyn WorkloadKit) -> Harness<'k> {
        Harness {
            kit,
            base: kit.base(),
            sink: EventSink::enabled(64),
            r: TortureReport::default(),
        }
    }

    /// One crash point: salvage `bytes`, recover them into a clone of the
    /// base under `tables`, resume compensation, then check the decoded
    /// count against the `want_decoded` records the cut left intact, the
    /// no-silent-loss accounting, the family audit and lock cleanliness.
    /// `rejected` is the records the cut destroyed past the clean prefix.
    fn crash_point(
        &mut self,
        label: &str,
        tables: &Arc<InterferenceTables>,
        bytes: &[u8],
        want_decoded: usize,
        rejected: usize,
    ) -> Result<()> {
        let salvaged = Wal::from_bytes(bytes);
        let decoded = salvaged.len();
        if decoded != want_decoded {
            return internal(format!(
                "{label}: decoded {decoded} records, expected {want_decoded} — the codec's \
                 clean-prefix guarantee is broken"
            ));
        }
        let txns_on_log: HashSet<_> = salvaged.records().iter().map(|r| r.txn()).collect();
        let mut db = self.base.clone();
        let report = recover(&mut db, &salvaged)?;
        let shared = SharedDb::new(db, Arc::clone(tables) as _);
        let kit = self.kit;
        let compensated =
            resume_compensation(&shared, &*kit.acc(), &report.needs_compensation, |inf| {
                kit.program_for_inflight(inf)
            })?;
        let replayed = report.committed.len() + report.aborted.len();
        let discarded = report.discarded.len();
        // No silent loss: every transaction that reached the salvaged log is
        // in exactly one bucket.
        if replayed + compensated + discarded != txns_on_log.len() {
            return internal(format!(
                "{label}: accounting hole: {} txns on log, {replayed} replayed + \
                 {compensated} compensated + {discarded} discarded",
                txns_on_log.len()
            ));
        }
        let violations = kit.audit(&shared.snapshot_db()).len();
        // Compensation must leave no lock behind; a leak here stalls the
        // next workload a real restart would admit.
        let grants = shared.total_grants();
        if grants != 0 {
            return internal(format!(
                "{label}: {grants} lock grants leaked by post-crash compensation"
            ));
        }
        let depth = report
            .needs_compensation
            .iter()
            .map(|inf| inf.steps_completed)
            .max()
            .unwrap_or(0);
        self.sink.emit(Event::RecoveryOutcome {
            replayed: replayed as u32,
            compensated: compensated as u32,
            discarded: discarded as u32,
            rejected_records: rejected as u32,
        });
        let r = &mut self.r;
        r.points += 1;
        r.crash_points += 1;
        r.replayed += replayed as u64;
        r.compensated += compensated as u64;
        r.discarded += discarded as u64;
        r.rejected_records += rejected as u64;
        r.violations += violations;
        r.max_comp_depth = r.max_comp_depth.max(depth);
        let _ = writeln!(
            r.log,
            "{label}: decoded={decoded} replayed={replayed} compensated={compensated} \
             discarded={discarded} rejected={rejected} violations={violations}"
        );
        Ok(())
    }

    /// Append the source's total line and hand the report over.
    fn finish(mut self, source: &CutSource) -> TortureReport {
        let r = &mut self.r;
        let (points, replayed, compensated, discarded, rejected, violations) = (
            r.points,
            r.replayed,
            r.compensated,
            r.discarded,
            r.rejected_records,
            r.violations,
        );
        let sums = format!(
            "replayed={replayed} compensated={compensated} discarded={discarded} \
             rejected={rejected} violations={violations}"
        );
        let _ = match source {
            CutSource::Appends { .. } => writeln!(r.log, "total: points={points} {sums}"),
            CutSource::Fsync { .. } => writeln!(
                r.log,
                "total: boundaries={} points={points} {sums}",
                r.boundaries
            ),
            CutSource::Switchover { .. } => writeln!(
                r.log,
                "total: boundaries={} switches={} immediate={} crash_points={} {sums} \
                 mixed_epoch={}",
                r.boundaries,
                r.switch_points,
                r.immediate_installs,
                r.crash_points,
                r.mixed_epoch_lookups
            ),
            CutSource::Ship { .. } => writeln!(
                r.log,
                "total: boundaries={} points={points} {sums} refused={} resumes={}",
                r.boundaries, r.refusals, r.resumes
            ),
        };
        r.counters = self.sink.counters();
        self.r
    }

    // -----------------------------------------------------------------------
    // Appends
    // -----------------------------------------------------------------------

    /// The clean-prefix, torn-tail and bit-flip cuts of `image`.
    fn cut(
        &mut self,
        image: &[u8],
        max_points: usize,
        seed: u64,
        torn: usize,
        flips: usize,
    ) -> Result<()> {
        let tables = self.kit.tables();
        let offsets: Vec<usize> = frame_ends(image).collect();
        let n = offsets.len();
        // Crash at every append index.
        for k in strided(&mut self.r.log, "append", 0, n, max_points) {
            let cut = if k == 0 { 0 } else { offsets[k - 1] };
            self.crash_point(&format!("append k={k}"), &tables, &image[..cut], k, 0)?;
        }
        // Seeded torn-tail cuts.
        let mut rng = SeededRng::new(seed ^ 0x746f_726e); // "torn"
        for _ in 0..torn {
            let cut = 1 + rng.index(image.len() - 1);
            // A cut strictly inside a frame leaves one torn record behind it.
            let torn_record = usize::from(offsets.binary_search(&cut).is_err());
            let label = format!("torn cut={cut}");
            let want = intact(&offsets, cut);
            self.crash_point(&label, &tables, &image[..cut], want, torn_record)?;
        }
        // Seeded single-bit flips: decoding must stop exactly at the frame
        // holding the flip, and every record from there on is rejected.
        let mut rng = SeededRng::new(seed ^ 0x666c_6970); // "flip"
        for _ in 0..flips {
            let byte = rng.index(image.len());
            let bit = rng.index(8) as u8;
            let mut corrupt = image.to_vec();
            corrupt[byte] ^= 1 << bit;
            let want = intact(&offsets, byte);
            let label = format!("flip byte={byte} bit={bit}");
            self.crash_point(&label, &tables, &corrupt, want, n - want)?;
        }
        Ok(())
    }

    /// Phases: the baseline image; its clean-prefix, torn-tail and bit-flip
    /// cuts; live `crash_after_appends(k)` runs that must capture exactly
    /// the offline cut; and the two edges of one step boundary.
    fn appends(
        &mut self,
        cfg: &TortureConfig,
        max_points: usize,
        torn: usize,
        flips: usize,
        injector: usize,
    ) -> Result<()> {
        let kit = self.kit;
        let tables = kit.tables();
        let baseline = run_mix(kit, cfg, Mix::default())?;
        self.r.violations += baseline.violations;
        let image = baseline.image;
        let offsets: Vec<usize> = frame_ends(&image).collect();
        let n = offsets.len();
        let _ = writeln!(
            self.r.log,
            "baseline: seed={} txns={} records={n} image={}B",
            cfg.seed,
            cfg.txns,
            image.len()
        );
        self.cut(&image, max_points, cfg.seed, torn, flips)?;

        // Live injector cross-validation: a planned crash must capture
        // exactly the prefix the offline sweep cut at the same point.
        let mut rng = SeededRng::new(cfg.seed ^ 0x696e_6a65); // "inje"
        for s in 0..injector {
            let k = 1 + rng.index(n);
            // Odd samples also mangle the capture with a torn tail,
            // exercising the injector's corruption path end to end.
            let torn = if s % 2 == 1 { 1 + rng.index(11) } else { 0 };
            let plan = FaultPlan::crash_after_appends(k as u64).with_corruption(if torn > 0 {
                Corruption::TornTail(torn as u32)
            } else {
                Corruption::None
            });
            let mix = Mix {
                plan: Some(plan),
                ..Mix::default()
            };
            let Some(captured) = run_mix(kit, cfg, mix)?.captured else {
                return internal(format!("injector never fired for append k={k}"));
            };
            let expected = &image[..offsets[k - 1] - torn];
            if captured != expected {
                return internal(format!(
                    "injector capture at append k={k} torn={torn} diverged from the offline \
                     prefix ({} vs {} bytes) — the workload is not deterministic",
                    captured.len(),
                    expected.len()
                ));
            }
            let label = format!("inject append k={k} torn={torn}");
            let want = intact(&offsets, captured.len());
            self.crash_point(&label, &tables, &captured, want, usize::from(torn > 0))?;
        }

        // The two edges of one step boundary differ by exactly the
        // end-of-step record — the distinction that decides
        // replay-then-compensate versus discard.
        let n_boundaries = Wal::from_bytes(&image)
            .records()
            .iter()
            .filter(|r| matches!(r, LogRecord::StepEnd { .. }))
            .count();
        if n_boundaries == 0 {
            return Ok(());
        }
        let b = (n_boundaries / 2) as u64;
        let edge_image = |edge| -> Result<Vec<u8>> {
            let mix = Mix {
                plan: Some(FaultPlan::crash_at_step_boundary(b, edge)),
                ..Mix::default()
            };
            run_mix(kit, cfg, mix)?
                .captured
                .ok_or_else(|| Error::Internal(format!("boundary {b} {edge} crash never fired")))
        };
        let before = edge_image(BoundaryEdge::Before)?;
        let after = edge_image(BoundaryEdge::After)?;
        let before_len = Wal::from_bytes(&before).len();
        let after_recs = Wal::from_bytes(&after);
        let Some(LogRecord::StepEnd {
            txn, step_index, ..
        }) = after_recs.records().last().cloned()
        else {
            return internal("after-edge capture does not end in the end-of-step record".into());
        };
        if after_recs.len() != before_len + 1 {
            return internal(format!(
                "boundary edges differ by {} records, expected exactly the end-of-step record",
                after_recs.len() - before_len
            ));
        }
        // After the record the step is durable (steps_completed =
        // step_index + 1, then compensated); before it, it never happened.
        for (img, label, want_steps) in [
            (&before, "before", step_index),
            (&after, "after", step_index + 1),
        ] {
            let salvaged = Wal::from_bytes(img);
            let report = recover(&mut self.base.clone(), &salvaged)?;
            let durable_steps = report
                .needs_compensation
                .iter()
                .find(|inf| inf.txn == txn)
                .map_or(0, |inf| inf.steps_completed);
            if durable_steps != want_steps {
                return internal(format!(
                    "boundary {b} {label}-edge: {txn} has {durable_steps} durable steps, \
                     expected {want_steps}"
                ));
            }
            let label = format!("inject boundary b={b} edge={label}");
            self.crash_point(&label, &tables, img, salvaged.len(), 0)?;
        }
        Ok(())
    }

    // -----------------------------------------------------------------------
    // Fsync
    // -----------------------------------------------------------------------

    /// Phases: a baseline per device (snapshotting every fsync); device
    /// parity (mem and file agree on every boundary's durable stream); every
    /// boundary of both devices as a crash point (each an exact frame prefix
    /// of the final stream); live `crash_after_fsyncs(j)` runs that must
    /// capture exactly snapshot `j`; and sector tears of the file image —
    /// one deterministic tear of a frame that spans a sector boundary (the
    /// length header alone cannot see it; the page checksums must), then
    /// seeded ones.
    fn fsync(
        &mut self,
        cfg: &TortureConfig,
        max_batch: usize,
        tears: usize,
        injector: usize,
    ) -> Result<()> {
        let kit = self.kit;
        let tables = kit.tables();
        let on = |device, plan| {
            let mix = Mix {
                device: Some((device, max_batch)),
                plan,
                ..Mix::default()
            };
            run_mix(kit, cfg, mix)
        };
        let mem = on(Device::Mem, None)?;
        let file = on(Device::File, None)?;
        self.r.violations += mem.violations + file.violations;
        let stream = &mem.image;
        let offsets: Vec<usize> = frame_ends(stream).collect();
        let nb = mem.snapshots.len();
        self.r.boundaries = nb;
        let _ = writeln!(
            self.r.log,
            "baseline: seed={} txns={} max_batch={max_batch} records={} stream={}B \
             boundaries={nb}",
            cfg.seed,
            cfg.txns,
            offsets.len(),
            stream.len()
        );

        // Device parity: the device changes the format, never the contract.
        if *stream != file.image {
            return internal("mem and file devices disagree on the final record stream".into());
        }
        if nb != file.snapshots.len() {
            return internal(format!(
                "device fsync counts diverge: mem={nb} file={}",
                file.snapshots.len()
            ));
        }
        for (j, (m, f)) in mem.snapshots.iter().zip(&file.snapshots).enumerate() {
            if m.stream != f.stream {
                return internal(format!(
                    "boundary {j}: mem and file durable streams diverge ({} vs {} bytes)",
                    m.stream.len(),
                    f.stream.len()
                ));
            }
        }
        let _ = writeln!(self.r.log, "parity: mem == file at all {nb} boundaries");

        self.fsync_points("mem ", &tables, stream, &mem.snapshots)?;
        self.fsync_points("file ", &tables, stream, &file.snapshots)?;

        // Live injector cross-validation.
        let mut rng = SeededRng::new(cfg.seed ^ 0x6673_796e); // "fsyn"
        for _ in 0..injector.min(nb) {
            let j = 1 + rng.index(nb);
            let plan = FaultPlan::crash_after_fsyncs(j as u64);
            let Some(captured) = on(Device::Mem, Some(plan))?.captured else {
                return internal(format!("injector never fired for fsync j={j}"));
            };
            let want = &mem.snapshots[j - 1].stream;
            if captured != *want {
                return internal(format!(
                    "injector capture at fsync j={j} diverged from the snapshot ({} vs {} \
                     bytes) — the workload is not deterministic",
                    captured.len(),
                    want.len()
                ));
            }
            let label = format!("inject fsync j={j}");
            self.crash_point(
                &label,
                &tables,
                &captured,
                intact(&offsets, captured.len()),
                0,
            )?;
        }

        // A deterministic tear of a frame that spans a sector boundary: tear
        // the *second* sector it touches, so its head survives in sector k
        // and its tail is garbage.
        let tear = |k: usize| {
            let mut torn = file.raw.clone();
            Corruption::SectorTear {
                index: k as u64,
                sector_size: sector::SECTOR_SIZE as u32,
            }
            .apply(&mut torn);
            sector::open(&torn)
        };
        let spanning = offsets
            .iter()
            .zip(std::iter::once(&0usize).chain(offsets.iter()))
            .find(|&(&end, &start)| start / sector::CAPACITY != (end - 1) / sector::CAPACITY)
            .map(|(&end, &start)| (start, end));
        if let Some((start, end)) = spanning {
            let k = start / sector::CAPACITY + 1;
            let opened = tear(k);
            if !opened.torn || opened.stream.len() > start.max(k * sector::CAPACITY) {
                return internal(format!(
                    "spanning-frame tear at sector {k} not detected: salvaged {} bytes \
                     (frame {start}..{end})",
                    opened.stream.len()
                ));
            }
            // Everything after the salvage point is rejected, the split
            // frame included.
            let want = intact(&offsets, opened.stream.len());
            let label = format!("tear spanning-frame sector={k}");
            let rejected = offsets.len() - want;
            self.crash_point(&label, &tables, &opened.stream, want, rejected)?;
        } else {
            let _ = writeln!(
                self.r.log,
                "tear spanning-frame: no frame spans a sector (skipped)"
            );
        }

        // Seeded sector tears: the chained checksums stop salvage at (or
        // before) the torn sector, always at an exact byte prefix.
        let n_sectors = file.raw.len() / sector::SECTOR_SIZE;
        let mut rng = SeededRng::new(cfg.seed ^ 0x7465_6172); // "tear"
        for _ in 0..tears {
            let k = rng.index(n_sectors.max(1));
            let opened = tear(k);
            let want_len = (k * sector::CAPACITY).min(stream.len());
            if opened.stream.len() != want_len || stream[..want_len] != opened.stream {
                return internal(format!(
                    "tear sector={k}: salvaged {} bytes, expected the {want_len}-byte prefix",
                    opened.stream.len()
                ));
            }
            let want = intact(&offsets, opened.stream.len());
            let rejected = offsets.len() - want;
            let label = format!("tear sector={k}");
            self.crash_point(&label, &tables, &opened.stream, want, rejected)?;
        }
        Ok(())
    }

    /// Every fsync boundary of a durable run as a crash point: everything
    /// past the snapshot vanishes. Each durable stream must be a prefix of
    /// the final `stream` (a durable suffix never appears without its
    /// prefix) that ends on a frame boundary (flushes drain whole records).
    fn fsync_points(
        &mut self,
        kind: &str,
        tables: &Arc<InterferenceTables>,
        stream: &[u8],
        snapshots: &[FsyncSnapshot],
    ) -> Result<()> {
        let offsets: Vec<usize> = frame_ends(stream).collect();
        for (j, snap) in snapshots.iter().enumerate() {
            let cut = snap.stream.len();
            if !stream.starts_with(&snap.stream) {
                return internal(format!(
                    "{kind}boundary {j}: durable stream is not a prefix of the final stream"
                ));
            }
            if cut != 0 && offsets.binary_search(&cut).is_err() {
                return internal(format!(
                    "{kind}boundary {j}: durable stream cuts mid-frame at byte {cut}"
                ));
            }
            let label = format!("{kind}fsync j={}", j + 1);
            self.crash_point(&label, tables, &snap.stream, intact(&offsets, cut), 0)?;
        }
        Ok(())
    }

    // -----------------------------------------------------------------------
    // Switchover
    // -----------------------------------------------------------------------

    /// Phases: the undisturbed baseline under the bootstrap tables; a
    /// switchover at every step boundary (each must drain exactly the one
    /// pinned transaction, switch exactly once, and leave the WAL
    /// byte-identical — re-analysis is pure metadata); a quiescent install
    /// between transactions, which must switch immediately; crashes at every
    /// append index recovered under the installed tables; and, given a
    /// batch threshold, every fsync boundary of a run whose install falls
    /// inside a group-commit window.
    fn switchover(
        &mut self,
        cfg: &TortureConfig,
        max_boundaries: usize,
        max_points: usize,
        max_batch: Option<usize>,
    ) -> Result<()> {
        let kit = self.kit;
        let bootstrap = kit.bootstrap_tables();
        let installs = kit.install_tables();
        let pick = |i: usize| &installs[i % installs.len()];
        let mix = |device, install| Mix {
            tables: Some(Arc::clone(&bootstrap)),
            device,
            install,
            ..Mix::default()
        };

        let baseline = run_mix(kit, cfg, mix(None, None))?;
        if baseline.switches != 0 || baseline.epoch != 0 {
            return internal("baseline run switched epochs with no install".into());
        }
        self.r.violations += baseline.violations;
        self.r.mixed_epoch_lookups += baseline.mixed;
        let image = &baseline.image;
        let offsets: Vec<usize> = frame_ends(image).collect();
        let nb = baseline.boundaries as usize;
        self.r.boundaries = nb;
        let _ = writeln!(
            self.r.log,
            "baseline: seed={} txns={} records={} image={}B boundaries={nb}",
            cfg.seed,
            cfg.txns,
            offsets.len(),
            image.len()
        );

        for b in strided(&mut self.r.log, "switch", 1, nb, max_boundaries) {
            let (label, tables) = pick(b);
            let install = (Install::AtBoundary(b as u64), Arc::clone(tables));
            let run = run_mix(kit, cfg, mix(None, Some(install)))?;
            if run.image != *image {
                return internal(format!(
                    "switch at boundary {b}: WAL diverged from baseline ({} vs {} bytes) — \
                     the switchover perturbed the workload",
                    run.image.len(),
                    image.len()
                ));
            }
            // The hook fires inside a live (pinned) transaction, so the
            // install must drain exactly that one pin and switch once.
            if run.outcome != Some(InstallOutcome::Draining { pins: 1 }) {
                return internal(format!(
                    "switch at boundary {b}: install outcome {:?}, expected a 1-pin drain",
                    run.outcome
                ));
            }
            if run.switches != 1 || run.epoch != 1 {
                return internal(format!(
                    "switch at boundary {b}: {} switches to epoch {}, expected exactly one",
                    run.switches, run.epoch
                ));
            }
            let c = &run.counters;
            if c.epoch_switches != 1 || c.epoch_drained_pins != 1 || c.epoch_parked_admissions != 0
            {
                return internal(format!(
                    "switch at boundary {b}: counters disagree with the registry \
                     (switches={} drained={} parked={})",
                    c.epoch_switches, c.epoch_drained_pins, c.epoch_parked_admissions
                ));
            }
            self.r.switch_points += 1;
            self.r.drained += 1;
            self.r.violations += run.violations;
            self.r.mixed_epoch_lookups += run.mixed;
            let _ = writeln!(
                self.r.log,
                "switch b={b} edit={label}: drained=1 epoch={} mixed={} violations={}",
                run.epoch, run.mixed, run.violations
            );
        }

        // With nothing running, the same install switches immediately.
        let half = cfg.txns / 2;
        let install = (Install::BeforeTxn(half), Arc::clone(&pick(0).1));
        let quiet = run_mix(kit, cfg, mix(None, Some(install)))?;
        if quiet.outcome != Some(InstallOutcome::Immediate { epoch: 1 }) {
            return internal(format!(
                "quiescent install: outcome {:?}, expected an immediate switch to epoch 1",
                quiet.outcome
            ));
        }
        if quiet.image != *image {
            return internal("quiescent install: WAL diverged from baseline".into());
        }
        self.r.immediate_installs += 1;
        self.r.violations += quiet.violations;
        self.r.mixed_epoch_lookups += quiet.mixed;
        let _ = writeln!(
            self.r.log,
            "quiescent install after txn {half}: immediate epoch=1 mixed={}",
            quiet.mixed
        );

        // Crash at every append index, recovered under the installed tables
        // (base template ids are stable across edits, so the policy's lock
        // choices stay meaningful).
        for k in strided(&mut self.r.log, "crash", 0, offsets.len(), max_points) {
            let cut = if k == 0 { 0 } else { offsets[k - 1] };
            let (label, tables) = pick(k);
            let label = format!("crash k={k} edit={label}");
            self.crash_point(&label, tables, &image[..cut], k, 0)?;
        }

        // Fsync boundaries inside the drain window.
        let Some(max_batch) = max_batch else {
            return Ok(());
        };
        let b_mid = (nb / 2).max(1) as u64;
        let drain_tables = &pick(0).1;
        let install = (Install::AtBoundary(b_mid), Arc::clone(drain_tables));
        let drain = run_mix(kit, cfg, mix(Some((Device::Mem, max_batch)), Some(install)))?;
        if drain.image != *image {
            return internal("fsync-during-drain run: record stream diverged from baseline".into());
        }
        if drain.switches != 1 {
            return internal("fsync-during-drain run: the mid-mix install never switched".into());
        }
        self.r.violations += drain.violations;
        self.r.mixed_epoch_lookups += drain.mixed;
        let _ = writeln!(
            self.r.log,
            "fsync-during-drain: install at b={b_mid} max_batch={max_batch} boundaries={}",
            drain.snapshots.len()
        );
        self.fsync_points("", drain_tables, image, &drain.snapshots)
    }

    // -----------------------------------------------------------------------
    // Ship
    // -----------------------------------------------------------------------

    /// A follower standing at exactly `prefix` of the leader's stream, built
    /// by verifying it as one giant batch (chain-checked like any ship).
    fn follower_at(&self, durable: &[u8], prefix: usize, records: u64) -> Result<Follower> {
        let mut f = Follower::new(self.base.clone(), Box::new(MemDevice::new()));
        if prefix > 0 {
            let batch = ShipBatch {
                seq: 0,
                start: 0,
                payload: durable[..prefix].to_vec(),
                chain: stream_chain(&durable[..prefix]),
            };
            match f.apply(&batch) {
                Applied::Accepted { records: got } if got == records => {}
                other => {
                    return internal(format!("bootstrap ship of {prefix}B refused: {other:?}"))
                }
            }
        }
        Ok(f)
    }

    /// Phases:
    ///
    /// 1. baseline — replicate the whole durable stream batch by batch over
    ///    a clean transport, recording every ship boundary; the follower's
    ///    bytes, replay frontier and audit must match the leader, and the
    ///    shipped frontier must clamp the leader's prune watermark;
    /// 2. leader crash after every partial ship — promote the follower's
    ///    verified prefix through the crash-point audit;
    /// 3. injector cross-validation — a live pump with
    ///    `crash_after_ships(j)` must capture exactly boundary `j`;
    /// 4. hostile transport at every boundary — a torn re-ship, a gapped
    ///    batch and a chain-corrupt batch are each refused with the frontier
    ///    unchanged, then the genuine batch is accepted;
    /// 5. follower crash at every boundary — the follower dies with a torn
    ///    local write in flight, resumes from its own device,
    ///    chain-handshakes, and the remainder re-ships to byte equality;
    /// 6. divergence — a follower whose salvaged tail was forged is refused
    ///    at handshake with a typed [`Error::Divergence`];
    /// 7. seeded hostile plans over the full stream still converge.
    fn ship(
        &mut self,
        cfg: &TortureConfig,
        max_batch: usize,
        ship_batch: usize,
        plans: usize,
        injector: usize,
    ) -> Result<()> {
        let kit = self.kit;
        let tables = kit.tables();
        let mix = Mix {
            device: Some((Device::Mem, max_batch)),
            ..Mix::default()
        };
        let leader = run_mix(kit, cfg, mix)?;
        self.r.violations += leader.violations;
        let (durable, records) = (leader.durable, leader.durable_records);
        if frame_ends(&durable).last().unwrap_or(0) != durable.len() {
            return internal("durable stream does not end on a frame boundary".into());
        }
        // Ship with the raw shipper so every boundary is observable:
        // boundaries[k] = (byte offset, record count) after k+1 ships.
        let mut shipper = Shipper::new(ship_batch);
        let mut follower = Follower::new(self.base.clone(), Box::new(MemDevice::new()));
        let mut boundaries: Vec<(usize, u64)> = Vec::new();
        while let Some(batch) = shipper.next_batch(&durable) {
            match follower.apply(&batch) {
                Applied::Accepted { .. } => {
                    let p = follower.resume_point();
                    shipper.ack_to(p.offset, p.records);
                    boundaries.push((p.offset as usize, p.records));
                }
                other => {
                    return internal(format!(
                        "clean baseline ship refused at seq {}: {other:?}",
                        batch.seq
                    ))
                }
            }
        }
        let n = boundaries.len();
        self.r.boundaries = n;
        if follower.stream() != durable {
            return internal("baseline follower bytes diverged".into());
        }
        if follower.replay_lsn() != records {
            return internal(format!(
                "baseline replay frontier {} != durable records {records}",
                follower.replay_lsn()
            ));
        }
        let follower_violations = kit.audit(&follower.snapshot()?).len();
        self.r.violations += follower_violations;
        let _ = writeln!(
            self.r.log,
            "baseline: seed={} txns={} records={records} stream={}B ship_batch={ship_batch} \
             boundaries={n} follower_violations={follower_violations}",
            cfg.seed,
            cfg.txns,
            durable.len()
        );
        // Replication lag must never let the leader prune versions a
        // follower read needs.
        let mid = boundaries[n / 2];
        let shared = SharedDb::new(self.base.clone(), Arc::clone(&tables) as _);
        shared.set_shipped_frontier(mid.1);
        let w = shared.version_watermark();
        if w > mid.1.checked_sub(1) {
            return internal(format!(
                "prune watermark {w:?} ignores shipped frontier {}",
                mid.1
            ));
        }

        // Leader crash after every partial ship: promote.
        for (k, &(off, recs)) in boundaries.iter().enumerate() {
            let label = format!("promote k={}", k + 1);
            self.crash_point(&label, &tables, &durable[..off], recs as usize, 0)?;
        }

        // Injector cross-validation.
        let mut rng = SeededRng::new(cfg.seed ^ 0x7368_6970); // "ship"
        for _ in 0..injector {
            let j = rng.int_range(1, n as i64) as u64;
            let faults = FaultInjector::with_plan(FaultPlan::crash_after_ships(j));
            let mut rep = Replicator::new(MemTransport::new(), ship_batch, cfg.seed)
                .with_faults(Arc::clone(&faults));
            let mut f = Follower::new(self.base.clone(), Box::new(MemDevice::new()));
            rep.pump(&mut f, &durable, records)?;
            let captured = faults
                .captured_image()
                .ok_or_else(|| Error::Internal(format!("crash_after_ships({j}) never fired")))?;
            let expect = &durable[..boundaries[j as usize - 1].0];
            if captured != expect {
                return internal(format!(
                    "injector at ship {j}: captured {}B, boundary sweep cut {}B",
                    captured.len(),
                    expect.len()
                ));
            }
            self.r.points += 1;
            let _ = writeln!(
                self.r.log,
                "injector j={j}: captured={}B ok",
                captured.len()
            );
        }

        // Hostile transport at every boundary: stand a follower at the
        // previous boundary and attack the ship that would carry it here.
        for (k, &(off, recs)) in boundaries.iter().enumerate() {
            let (prev_off, prev_recs) = if k == 0 { (0, 0) } else { boundaries[k - 1] };
            let mut f = self.follower_at(&durable, prev_off, prev_recs)?;
            let genuine = ShipBatch {
                seq: 0,
                start: prev_off as u64,
                payload: durable[prev_off..off].to_vec(),
                chain: stream_chain(&durable[..off]),
            };
            // (a) torn mid-frame in transit;
            let mut torn = genuine.clone();
            torn.payload.truncate(torn.payload.len() - 1);
            let torn_refused = matches!(f.apply(&torn), Applied::Refused(Refusal::TornFrame));
            // (b) a gap (first frame lost);
            let skip = frame_ends(&genuine.payload).next().expect("one frame");
            let gapped = ShipBatch {
                seq: 1,
                start: (prev_off + skip) as u64,
                payload: genuine.payload[skip..].to_vec(),
                chain: genuine.chain,
            };
            let gap_refused = matches!(f.apply(&gapped), Applied::Refused(Refusal::Gap { .. }));
            // (c) a flipped chain (corruption or foreign history).
            let mut forged = genuine.clone();
            forged.chain ^= 1;
            let chain_refused = matches!(f.apply(&forged), Applied::Refused(Refusal::Chain { .. }));
            let frontier_held = f.resume_point().offset == prev_off as u64;
            // The genuine re-ship must then land.
            let accepted = matches!(f.apply(&genuine),
                Applied::Accepted { records: r } if r == recs - prev_recs);
            if !(torn_refused && gap_refused && chain_refused && frontier_held && accepted) {
                self.r.violations += 1;
            }
            self.r.refusals += 3;
            self.r.points += 1;
            let _ = writeln!(
                self.r.log,
                "hostile k={}: torn={torn_refused} gap={gap_refused} chain={chain_refused} \
                 frontier_held={frontier_held} reship_ok={accepted}",
                k + 1
            );
        }

        // Follower crash at every boundary: resume + re-ship.
        for (k, &(off, recs)) in boundaries.iter().enumerate() {
            let f = self.follower_at(&durable, off, recs)?;
            // Crash: memory dies; a torn local write may be in flight.
            let mut dev = f.into_device();
            let torn = (cfg.seed as usize + k) % 11 + 1;
            dev.stage(&vec![0xEE; torn]);
            let _ = dev.sync();
            let mut f = Follower::resume(self.base.clone(), dev);
            let salvage_ok = f.replay_lsn() == recs;
            let point = f.resume_point();
            let mut rep = Replicator::new(MemTransport::new(), ship_batch, cfg.seed ^ k as u64)
                .with_events(Arc::clone(&self.sink));
            rep.resume(&durable, point)?;
            let stats = rep.pump(&mut f, &durable, records)?;
            self.r.resumes += 1 + stats.resumes; // the handshake plus any pump rewinds
            let caught_up = f.stream() == durable && f.replay_lsn() == records;
            if !(salvage_ok && caught_up) {
                self.r.violations += 1;
            }
            self.r.points += 1;
            let _ = writeln!(
                self.r.log,
                "follower-crash k={}: torn_tail={torn}B salvage_ok={salvage_ok} reshipped={} \
                 caught_up={caught_up}",
                k + 1,
                stats.records
            );
        }

        // Divergence is refused, typed: forge a whole frame the leader never
        // wrote, so salvage keeps it and the handshake must catch it.
        let f = self.follower_at(&durable, mid.0, mid.1)?;
        let mut dev = f.into_device();
        let mut fake = Vec::new();
        encode_frame(&[0], &mut fake);
        dev.stage(&fake);
        dev.sync()
            .map_err(|e| Error::Internal(format!("divergence staging: {e}")))?;
        let f = Follower::resume(self.base.clone(), dev);
        let mut rep = Replicator::new(MemTransport::new(), ship_batch, cfg.seed);
        let diverged = matches!(
            rep.resume(&durable, f.resume_point()),
            Err(Error::Divergence { .. })
        );
        if !diverged {
            self.r.violations += 1;
        }
        self.r.points += 1;
        let _ = writeln!(
            self.r.log,
            "divergence: forged_tail={}B typed_refusal={diverged}",
            fake.len()
        );

        // Seeded hostile plans over the full stream.
        for i in 0..plans {
            let plan = ShipPlan::seeded(&mut rng);
            let batch = rng.int_range(120, 700) as usize;
            let mut rep =
                Replicator::new(MemTransport::with_plan(plan), batch, cfg.seed ^ i as u64)
                    .with_events(Arc::clone(&self.sink));
            let mut f = Follower::new(self.base.clone(), Box::new(MemDevice::new()));
            let stats = rep.pump(&mut f, &durable, records)?;
            let converged = f.stream() == durable && f.replay_lsn() == records;
            if !converged {
                self.r.violations += 1;
            }
            self.r.refusals += stats.refusals;
            self.r.resumes += stats.resumes;
            self.r.points += 1;
            let _ = writeln!(
                self.r.log,
                "plan i={i}: {plan:?} batch={batch} refused={} resumed={} converged={converged}",
                stats.refusals, stats.resumes
            );
        }
        Ok(())
    }
}
