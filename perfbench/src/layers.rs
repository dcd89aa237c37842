//! The traced run's per-layer report: request spans built from the client's
//! records and the wrappers' records, checked to tile each request's
//! latency, plus ratios of the engine's own counters.

use crate::client::{ClientRun, OpRec};
use crate::stats::{median, pct, Outcome};
use crate::trace::{check_tiling, self_time, Attempt, Span};
use acc_common::events::CounterSnapshot;
use acc_storage::PagerCounters;
use std::collections::HashMap;

/// Counters read through the engine's public accessors.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounters {
    /// Page latch and B-tree counters.
    pub pager: PagerCounters,
    /// Completed WAL fsync boundaries.
    pub fsyncs: u64,
    /// Records covered by completed fsyncs.
    pub durable_records: u64,
    /// Bytes covered by completed fsyncs.
    pub durable_bytes: u64,
}

/// Everything the report is computed from. Intervals are ns on the shared
/// clock.
pub struct Inputs<'a> {
    /// The client's records.
    pub run: &'a ClientRun,
    /// Every traced engine attempt.
    pub attempts: Vec<Attempt>,
    /// Every traced `LogDevice::sync`.
    pub syncs: Vec<(u64, u64)>,
    /// The untraced measuring window.
    pub untraced: (u64, u64),
    /// The traced measuring window (it starts when tracing came on).
    pub traced: (u64, u64),
    /// When the last response arrived.
    pub drained: u64,
    /// The event sink's counters, all from the traced part.
    pub sink: CounterSnapshot,
    /// Engine counters when tracing came on.
    pub before: EngineCounters,
    /// Engine counters after the last response.
    pub after: EngineCounters,
}

/// The per-layer metrics, the spans behind them and any tiling violations.
pub struct Report {
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Every span, requests first.
    pub spans: Vec<Span>,
    /// Committed requests whose spans were checked.
    pub tiled: usize,
    /// Requests whose spans do not tile their latency.
    pub violations: Vec<String>,
}

/// Per-request sums, ns.
#[derive(Debug, Default, Clone, Copy)]
struct Split {
    admit: u64,
    retry: u64,
    exec: u64,
    boundary: u64,
    commit: u64,
}

/// Build one committed request's spans: `server.admit` from its start to
/// the first `Host::program` call, `txn.retry` from there to the last
/// attempt's `program` call, then alternating `txn.boundary` and `txn.exec`
/// through the last attempt's steps, and `txn.commit` from the last step's
/// return to the response's arrival.
fn request_spans(
    op: &OpRec,
    attempts: &[&Attempt],
    spans: &mut Vec<Span>,
) -> Result<Split, String> {
    let (Some(first), Some(last)) = (attempts.first(), attempts.last()) else {
        return Err(format!(
            "seed {:#x}: committed with no traced attempt",
            op.seed
        ));
    };
    let root = spans.len();
    let push = |spans: &mut Vec<Span>, name, start, end| {
        spans.push(Span {
            name,
            start,
            end,
            parent: Some(root),
            seed: op.seed,
        })
    };
    spans.push(Span {
        name: "request",
        start: op.t0,
        end: op.recv,
        parent: None,
        seed: op.seed,
    });
    push(spans, "server.admit", op.t0, first.program_at);
    if attempts.len() > 1 {
        push(spans, "txn.retry", first.program_at, last.program_at);
    }
    let mut at = last.program_at;
    for &(_, start, end) in &last.steps {
        push(spans, "txn.boundary", at, start);
        push(spans, "txn.exec", start, end);
        at = end;
    }
    push(spans, "txn.commit", at, op.recv);

    let kids: Vec<&Span> = spans[root + 1..].iter().collect();
    check_tiling(&spans[root], &kids)?;
    let own = self_time(&spans[root], &kids);
    if own != 0 {
        return Err(format!(
            "seed {:#x}: {own} ns of request self time",
            op.seed
        ));
    }
    let mut split = Split::default();
    for s in &kids {
        let slot = match s.name {
            "server.admit" => &mut split.admit,
            "txn.retry" => &mut split.retry,
            "txn.exec" => &mut split.exec,
            "txn.boundary" => &mut split.boundary,
            _ => &mut split.commit,
        };
        *slot += s.len();
    }
    Ok(split)
}

fn per(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Compute the report.
pub fn report(mut input: Inputs<'_>) -> Report {
    let (on, end) = input.traced;
    let run = input.run;
    let ops = &run.ops;

    input.attempts.sort_by_key(|a| (a.seed, a.program_at));
    let mut by_seed: HashMap<u64, Vec<&Attempt>> = HashMap::new();
    for a in &input.attempts {
        by_seed.entry(a.seed).or_default().push(a);
    }

    let mut spans = Vec::new();
    let mut violations = Vec::new();
    let mut splits = Vec::new();
    let mut wire_us = Vec::new();
    for op in ops.iter().filter(|o| o.t0 >= on) {
        if op.outcome != Some(Outcome::Committed) {
            continue;
        }
        let attempts = by_seed.get(&op.seed).map_or(&[][..], |v| &v[..]);
        match request_spans(op, attempts, &mut spans) {
            Ok(split) => splits.push((op, split)),
            Err(e) => violations.push(format!("span tiling: {e}")),
        }
        if op.last_send > 0 {
            let client_ns = op.recv.saturating_sub(op.last_send);
            wire_us.push(us(client_ns).max(0.0) - op.server_us as f64);
        }
    }
    for &(start, stop) in &input.syncs {
        spans.push(Span {
            name: "wal.sync",
            start,
            end: stop,
            parent: None,
            seed: 0,
        });
    }

    let col = |f: fn(&Split) -> u64| -> Vec<f64> { splits.iter().map(|(_, s)| us(f(s))).collect() };
    let mut admit = col(|s| s.admit);
    let mut exec = col(|s| s.exec);
    let mut boundary = col(|s| s.boundary);
    let mut commit = col(|s| s.commit);
    let retry_ns: u64 = splits.iter().map(|(_, s)| s.retry).sum();
    let latency_ns: u64 = splits.iter().map(|(op, _)| op.latency()).sum();

    // Everything settled after tracing came on.
    let settled: Vec<&OpRec> = ops.iter().filter(|o| o.recv >= on).collect();
    let commits = settled
        .iter()
        .filter(|o| o.outcome == Some(Outcome::Committed))
        .count() as f64;
    let user_aborts = settled
        .iter()
        .filter(|o| o.outcome == Some(Outcome::UserAbort))
        .count() as f64;
    let steps: f64 = settled.iter().map(|o| f64::from(o.steps)).sum();
    let engine_retries: f64 = settled.iter().map(|o| f64::from(o.engine_retries)).sum();

    let mut step_calls = 0usize;
    let mut distinct_steps = 0usize;
    let mut compensations = 0usize;
    for a in &input.attempts {
        step_calls += a.steps.len();
        let mut idx: Vec<u32> = a.steps.iter().map(|s| s.0).collect();
        idx.dedup();
        distinct_steps += idx.len();
        compensations += a.compensations.len();
    }

    let c = &input.sink;
    let (b, a) = (input.before, input.after);
    let page_reads = a.pager.page_reads.saturating_sub(b.pager.page_reads) as f64;
    let page_writes = a.pager.page_writes.saturating_sub(b.pager.page_writes) as f64;
    let latch_waits = a.pager.latch_waits.saturating_sub(b.pager.latch_waits) as f64;
    let restarts = a.pager.read_restarts.saturating_sub(b.pager.read_restarts) as f64;
    let splits_n = a.pager.splits.saturating_sub(b.pager.splits) as f64;
    let fsyncs = a.fsyncs.saturating_sub(b.fsyncs) as f64;
    let records = a.durable_records.saturating_sub(b.durable_records) as f64;
    let bytes = a.durable_bytes.saturating_sub(b.durable_bytes) as f64;
    let mut sync_us: Vec<f64> = input.syncs.iter().map(|&(s, e)| us(e - s)).collect();
    let sync_busy: u64 = input.syncs.iter().map(|&(s, e)| e - s).sum();
    let traced_span = input.drained.saturating_sub(on) as f64;

    let mut late_us: Vec<f64> = run.lateness.iter().map(|&l| us(l)).collect();
    let tps = |(w0, w1): (u64, u64)| {
        let n = ops
            .iter()
            .filter(|o| o.outcome == Some(Outcome::Committed) && o.recv >= w0 && o.recv < w1)
            .count();
        per(n as f64, (w1 - w0) as f64 / 1e9)
    };
    let (plain, traced) = (tps(input.untraced), tps((on, end)));

    let lock_waits = c.lock_waits as f64;
    let metrics = vec![
        ("server.admit_p50_us", median(&mut admit), "us"),
        ("server.admit_p99_us", pct(&mut admit, 99.0), "us"),
        ("server.wire_p50_us", median(&mut wire_us), "us"),
        (
            "server.queue_depth_max",
            c.admission_depth_max as f64,
            "count",
        ),
        (
            "server.engine_retries_per_1k",
            1e3 * per(engine_retries, commits),
            "count",
        ),
        ("txn.exec_p50_us", median(&mut exec), "us"),
        ("txn.exec_p99_us", pct(&mut exec, 99.0), "us"),
        ("txn.boundary_p50_us", median(&mut boundary), "us"),
        ("txn.commit_p50_us", median(&mut commit), "us"),
        ("txn.commit_p99_us", pct(&mut commit, 99.0), "us"),
        (
            "txn.retry_share",
            per(retry_ns as f64, latency_ns as f64),
            "ratio",
        ),
        ("txn.steps_per_commit", per(steps, commits), "count"),
        (
            "txn.step_attempts_per_step",
            per(step_calls as f64, distinct_steps as f64),
            "count",
        ),
        (
            "txn.compensations_per_1k",
            1e3 * per(compensations as f64, commits),
            "count",
        ),
        (
            "txn.user_abort_frac",
            per(user_aborts, settled.len() as f64),
            "ratio",
        ),
        (
            "lockmgr.requests_per_commit",
            per(c.lock_requests as f64, commits),
            "count",
        ),
        (
            "lockmgr.wait_frac",
            per(lock_waits, c.lock_requests as f64),
            "ratio",
        ),
        (
            "lockmgr.wait_us_per_commit",
            per(c.wait_micros as f64, commits),
            "us",
        ),
        (
            "lockmgr.deadlocks_per_1k",
            1e3 * per(c.deadlocks as f64, commits),
            "count",
        ),
        (
            "acc.pins_per_commit",
            per(c.assertion_pins as f64, commits),
            "count",
        ),
        (
            "acc.interference_wait_share",
            per(c.interference_hits as f64, lock_waits),
            "ratio",
        ),
        (
            "acc.conservative_wait_share",
            per(c.conservative_denials as f64, lock_waits),
            "ratio",
        ),
        (
            "storage.page_reads_per_commit",
            per(page_reads, commits),
            "count",
        ),
        (
            "storage.page_writes_per_commit",
            per(page_writes, commits),
            "count",
        ),
        (
            "storage.latch_waits_per_1k_pages",
            1e3 * per(latch_waits, page_reads + page_writes),
            "count",
        ),
        (
            "storage.read_restarts_per_1k_reads",
            1e3 * per(restarts, page_reads),
            "count",
        ),
        (
            "storage.splits_per_1k_commits",
            1e3 * per(splits_n, commits),
            "count",
        ),
        (
            "storage.version_reads_per_commit",
            per(c.version_reads as f64, commits),
            "count",
        ),
        (
            "storage.version_fallback_frac",
            per(
                c.version_fallbacks as f64,
                (c.version_reads + c.version_fallbacks) as f64,
            ),
            "ratio",
        ),
        ("wal.syncs_per_commit", per(fsyncs, commits), "count"),
        ("wal.sync_p50_us", median(&mut sync_us), "us"),
        ("wal.sync_p99_us", pct(&mut sync_us, 99.0), "us"),
        (
            "wal.sync_busy_frac",
            per(sync_busy as f64, traced_span),
            "ratio",
        ),
        ("wal.bytes_per_sync", per(bytes, fsyncs), "B"),
        ("wal.records_per_commit", per(records, commits), "count"),
        ("loadgen.late_p99_us", pct(&mut late_us, 99.0), "us"),
        ("trace.overhead_frac", 1.0 - per(traced, plain), "ratio"),
    ];
    Report {
        metrics,
        tiled: splits.len(),
        spans,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(t0: u64, recv: u64) -> OpRec {
        OpRec {
            seed: 5,
            t0,
            recv,
            outcome: Some(Outcome::Committed),
            ..OpRec::default()
        }
    }

    fn attempt(program_at: u64, steps: &[(u32, u64, u64)]) -> Attempt {
        Attempt {
            seed: 5,
            program_at,
            steps: steps.to_vec(),
            compensations: Vec::new(),
        }
    }

    #[test]
    fn one_attempt_splits_into_admit_boundary_exec_commit() {
        let a = attempt(10, &[(0, 12, 20), (1, 25, 40)]);
        let mut spans = Vec::new();
        let s = request_spans(&op(0, 50), &[&a], &mut spans).unwrap();
        assert_eq!(s.admit, 10);
        assert_eq!(s.boundary, 2 + 5);
        assert_eq!(s.exec, 8 + 15);
        assert_eq!(s.commit, 10);
        assert_eq!(s.retry, 0);
        assert_eq!(s.admit + s.boundary + s.exec + s.commit, 50);
        assert_eq!(spans[0].name, "request");
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
    }

    #[test]
    fn retried_attempts_fold_into_retry() {
        let failed = attempt(10, &[(0, 11, 30)]);
        let last = attempt(60, &[(0, 61, 70)]);
        let mut spans = Vec::new();
        let s = request_spans(&op(0, 80), &[&failed, &last], &mut spans).unwrap();
        assert_eq!(
            (s.admit, s.retry, s.boundary, s.exec, s.commit),
            (10, 50, 1, 9, 10)
        );
    }

    #[test]
    fn missing_or_inconsistent_spans_are_violations() {
        let mut spans = Vec::new();
        assert!(request_spans(&op(0, 50), &[], &mut spans).is_err());
        // A step that returns after the response arrived cannot tile.
        let late = attempt(10, &[(0, 12, 60)]);
        assert!(request_spans(&op(0, 50), &[&late], &mut spans).is_err());
    }
}
