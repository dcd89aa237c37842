//! The traced run's machinery: spans kept in memory, self time, the tiling
//! check, and the wrappers that time calls into the program's public
//! interfaces (`TxnProgram::step`/`compensate`, `LogDevice::sync`).
//!
//! Every timestamp is nanoseconds since one shared [`Clock`] epoch, so
//! client-side and server-side records of one request line up.

use acc_common::{Result, TxnTypeId};
use acc_txn::{StepCtx, StepOutcome, TxnProgram};
use acc_wal::LogDevice;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The benchmark's single time base.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose epoch is now.
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One recorded interval. `parent` indexes the span list it lives in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`txn.exec`, `server.admit`, …).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// The causing span, if any.
    pub parent: Option<usize>,
    /// The request's seed (0 for spans outside any request).
    pub seed: u64,
}

impl Span {
    /// Duration in ns.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }
}

/// A span's self time: its duration minus the part of it that its children
/// cover (overlapping children are counted once).
pub fn self_time(parent: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    parent.len() - covered
}

/// Check that `children`, in start order, tile `parent` exactly: the first
/// starts where the parent starts, each starts where the previous ended,
/// the last ends where the parent ends.
pub fn check_tiling(parent: &Span, children: &[&Span]) -> std::result::Result<(), String> {
    let mut sorted: Vec<&Span> = children.to_vec();
    sorted.sort_by_key(|s| (s.start, s.end));
    let mut at = parent.start;
    for c in sorted {
        if c.start > c.end {
            return Err(format!("{} runs backwards: {}..{}", c.name, c.start, c.end));
        }
        if c.start != at {
            let what = if c.start > at { "gap" } else { "overlap" };
            return Err(format!(
                "seed {:#x}: {what} of {} ns before {}",
                parent.seed,
                c.start.abs_diff(at),
                c.name
            ));
        }
        at = c.end;
    }
    if at != parent.end {
        return Err(format!(
            "seed {:#x}: children end {} ns {} the request",
            parent.seed,
            at.abs_diff(parent.end),
            if at < parent.end { "before" } else { "after" }
        ));
    }
    Ok(())
}

/// Write spans as tab-separated lines: id, parent, seed, name, start, end.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tseed\tname\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        writeln!(
            out,
            "{i}\t{parent}\t{:#x}\t{}\t{}\t{}",
            s.seed, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

/// What one program instance (one engine attempt) did, as seen by the
/// wrappers.
#[derive(Debug, Clone, Default)]
pub struct Attempt {
    /// The request seed the program was derived from.
    pub seed: u64,
    /// When the worker called `Host::program`.
    pub program_at: u64,
    /// `(step_index, start, end)` of every `step` call, in call order.
    pub steps: Vec<(u32, u64, u64)>,
    /// `(start, end)` of every `compensate` call.
    pub compensations: Vec<(u64, u64)>,
}

/// The shared recorder. Off by default; the wrappers cost one relaxed load
/// per call while it is off.
pub struct Tracer {
    on: AtomicBool,
    clock: Clock,
    attempts: Mutex<Vec<Attempt>>,
    syncs: Mutex<Vec<(u64, u64)>>,
}

impl Tracer {
    /// A disabled tracer on `clock`.
    pub fn new(clock: Clock) -> Arc<Tracer> {
        Arc::new(Tracer {
            on: AtomicBool::new(false),
            clock,
            attempts: Mutex::new(Vec::new()),
            syncs: Mutex::new(Vec::new()),
        })
    }

    /// Start recording.
    pub fn enable(&self) {
        self.on.store(true, Ordering::SeqCst);
    }

    /// Recording?
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// The time base.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Wrap a freshly derived program so its steps are timed.
    pub fn wrap(
        self: &Arc<Tracer>,
        seed: u64,
        program_at: u64,
        inner: Box<dyn TxnProgram + Send>,
    ) -> Box<dyn TxnProgram + Send> {
        Box::new(TracedProgram {
            inner,
            tracer: Arc::clone(self),
            rec: Attempt {
                seed,
                program_at,
                ..Attempt::default()
            },
        })
    }

    /// Take every recorded attempt.
    pub fn take_attempts(&self) -> Vec<Attempt> {
        std::mem::take(
            &mut self
                .attempts
                .lock()
                .expect("a worker panicked while tracing"),
        )
    }

    /// Take every recorded `(start, end)` of `LogDevice::sync`.
    pub fn take_syncs(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.syncs.lock().expect("a worker panicked while tracing"))
    }
}

/// Times `step` and `compensate`; files its record when the engine drops it.
struct TracedProgram {
    inner: Box<dyn TxnProgram + Send>,
    tracer: Arc<Tracer>,
    rec: Attempt,
}

impl TxnProgram for TracedProgram {
    fn txn_type(&self) -> TxnTypeId {
        self.inner.txn_type()
    }

    fn step(&mut self, step_index: u32, ctx: &mut StepCtx<'_>) -> Result<StepOutcome> {
        let start = self.tracer.clock.now();
        let out = self.inner.step(step_index, ctx);
        self.rec
            .steps
            .push((step_index, start, self.tracer.clock.now()));
        out
    }

    fn compensate(&mut self, steps_completed: u32, ctx: &mut StepCtx<'_>) -> Result<()> {
        let start = self.tracer.clock.now();
        let out = self.inner.compensate(steps_completed, ctx);
        self.rec
            .compensations
            .push((start, self.tracer.clock.now()));
        out
    }

    fn work_area(&self) -> Vec<u8> {
        self.inner.work_area()
    }
}

impl Drop for TracedProgram {
    fn drop(&mut self) {
        // A poisoned list means a worker already panicked; the run fails on
        // that, so losing this record is harmless and panicking here is not.
        if let Ok(mut attempts) = self.tracer.attempts.lock() {
            attempts.push(std::mem::take(&mut self.rec));
        }
    }
}

/// A [`LogDevice`] wrapper: counts durable bytes always, times `sync` while
/// the tracer records.
pub struct TimedDevice<D> {
    inner: D,
    tracer: Arc<Tracer>,
    durable: Arc<AtomicU64>,
}

impl<D: LogDevice> TimedDevice<D> {
    /// Wrap `inner`; `durable` follows the device's durable length.
    pub fn new(inner: D, tracer: Arc<Tracer>, durable: Arc<AtomicU64>) -> TimedDevice<D> {
        TimedDevice {
            inner,
            tracer,
            durable,
        }
    }
}

impl<D: LogDevice> LogDevice for TimedDevice<D> {
    fn stage(&mut self, bytes: &[u8]) {
        self.inner.stage(bytes);
    }

    fn sync(&mut self) -> Result<()> {
        let out = if self.tracer.is_on() {
            let start = self.tracer.clock.now();
            let out = self.inner.sync();
            let end = self.tracer.clock.now();
            self.tracer
                .syncs
                .lock()
                .expect("a worker panicked while tracing")
                .push((start, end));
            out
        } else {
            self.inner.sync()
        };
        self.durable
            .store(self.inner.durable_len(), Ordering::Relaxed);
        out
    }

    fn staged_len(&self) -> usize {
        self.inner.staged_len()
    }

    fn durable_len(&self) -> u64 {
        self.inner.durable_len()
    }

    fn durable_stream(&self) -> Vec<u8> {
        self.inner.durable_stream()
    }

    fn raw_image(&self) -> Vec<u8> {
        self.inner.raw_image()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64) -> Span {
        Span {
            name,
            start,
            end,
            parent: Some(0),
            seed: 7,
        }
    }

    #[test]
    fn exact_tiling_passes() {
        let root = span("request", 10, 100);
        let kids = [
            span("admit", 10, 30),
            span("exec", 30, 60),
            span("boundary", 60, 61),
            span("commit", 61, 100),
        ];
        let refs: Vec<&Span> = kids.iter().rev().collect();
        assert_eq!(check_tiling(&root, &refs), Ok(()));
        assert_eq!(self_time(&root, &refs), 0);
    }

    #[test]
    fn gaps_and_overlaps_are_caught() {
        let root = span("request", 0, 100);
        let gap = [span("admit", 0, 40), span("commit", 41, 100)];
        let refs: Vec<&Span> = gap.iter().collect();
        assert!(check_tiling(&root, &refs).unwrap_err().contains("gap"));
        assert_eq!(self_time(&root, &refs), 1);

        let overlap = [span("admit", 0, 50), span("commit", 45, 100)];
        let refs: Vec<&Span> = overlap.iter().collect();
        assert!(check_tiling(&root, &refs).unwrap_err().contains("overlap"));
        assert_eq!(self_time(&root, &refs), 0);

        let short = [span("admit", 0, 50), span("commit", 50, 90)];
        let refs: Vec<&Span> = short.iter().collect();
        assert!(check_tiling(&root, &refs).unwrap_err().contains("before"));
        assert_eq!(self_time(&root, &refs), 10);

        let late_start = [span("admit", 5, 100)];
        let refs: Vec<&Span> = late_start.iter().collect();
        assert!(check_tiling(&root, &refs).is_err());
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let root = span("request", 100, 200);
        let kids = [
            span("a", 50, 120),
            span("b", 110, 130),
            span("c", 150, 160),
            span("d", 190, 400),
        ];
        let refs: Vec<&Span> = kids.iter().collect();
        // Covered: 100..130 (30) + 150..160 (10) + 190..200 (10).
        assert_eq!(self_time(&root, &refs), 50);
        assert_eq!(self_time(&root, &[]), 100);
    }
}
