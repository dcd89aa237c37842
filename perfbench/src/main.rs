//! The repository benchmark: one named workload through the `acc-server`
//! TCP front-end on loopback, timed end to end (untraced) or split by layer
//! (traced), with a correctness audit after every run.
//!
//! ```text
//! acc-perfbench --workload <tpcc-hot|tpcc-readmostly|smallbank-open>
//!               --seed <n> --seconds <s> --trace <0|1> --out <dir>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. The exit
//! code is nonzero on any audit violation.

mod client;
mod cpu;
mod hosts;
mod layers;
mod schedule;
mod stats;
mod trace;

use acc_common::events::EventSink;
use acc_server::Host;
use acc_server::{serve, Frontend, ServerConfig};
use acc_txn::runner::rollback;
use acc_txn::{SharedDb, Transaction, TxnState};
use acc_wal::{GroupCommitPolicy, Lsn, MemDevice, Wal};
use client::{ClientRun, OpRec, DEADLINE};
use hosts::{Load, Workload};
use layers::EngineCounters;
use stats::{summarize, Outcome};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Clock, TimedDevice, Tracer};

/// Load before the measured window, so caches fill and lazy set-up ends.
const WARMUP: Duration = Duration::from_secs(3);

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The measured window is cut into slices of this length, and throughput is
/// the median over the slices, so a burst of noise from other tenants of the
/// host moves a few slices, not the figure.
const SLICE: Duration = Duration::from_secs(2);

/// How long the engine may take to reach quiescence after the last response.
const QUIESCE_LIMIT: Duration = Duration::from_secs(5);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds < 2 {
        return Err("--seconds must be at least 2".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        out: out.ok_or("--out is required")?,
    })
}

/// One running front-end plus the client's connection to it.
struct Rig {
    frontend: Arc<Frontend>,
    accept: std::thread::JoinHandle<()>,
    stream: TcpStream,
    durable_bytes: Arc<AtomicU64>,
}

/// Populate, start the front-end, serve on loopback, connect.
fn set_up(w: Workload, seed: u64, tracer: &Arc<Tracer>) -> Result<Rig, String> {
    let host = w.host(seed, Arc::clone(tracer));
    let db = w.base_image(seed);
    let durable_bytes = Arc::new(AtomicU64::new(0));
    let dev = TimedDevice::new(
        MemDevice::new(),
        Arc::clone(tracer),
        Arc::clone(&durable_bytes),
    );
    let shared = SharedDb::new(db, host.oracle())
        .with_wal_backend(Box::new(dev), GroupCommitPolicy::default());
    let frontend = Arc::new(Frontend::start(
        shared,
        Box::new(host),
        &ServerConfig::default(),
    ));
    let io = |e: std::io::Error| format!("loopback: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let accept = serve(Arc::clone(&frontend), listener);
    let stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    Ok(Rig {
        frontend,
        accept,
        stream,
        durable_bytes,
    })
}

/// Close the connection, stop the workers and the accept loop.
fn tear_down(rig: Rig) {
    let _ = rig.stream.shutdown(std::net::Shutdown::Both);
    drop(rig.stream);
    rig.frontend.shutdown();
    let _ = rig.accept.join();
}

/// Resident set size of this process, KiB.
fn rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmRSS in /proc/self/status".into())
}

fn engine_counters(rig: &Rig) -> EngineCounters {
    let shared = rig.frontend.shared();
    EngineCounters {
        pager: shared.pager_counters(),
        fsyncs: shared.wal_fsyncs(),
        durable_records: shared.durable_wal_records(),
        durable_bytes: rig.durable_bytes.load(Ordering::Relaxed),
    }
}

/// Every check a finished run must pass. Returns one line per violation.
fn audit(
    w: Workload,
    seed: u64,
    tracer: &Arc<Tracer>,
    rig: Rig,
    run: &ClientRun,
) -> Result<Vec<String>, String> {
    let mut bad = run.violations.clone();
    // Every operation settled exactly once (duplicates were caught as they
    // arrived).
    let unsettled = run.ops.iter().filter(|o| o.outcome.is_none()).count();
    if unsettled > 0 {
        bad.push(format!("{unsettled} operations never settled"));
    }

    // Quiescence: no grants, no live transactions, no mixed-epoch lookups.
    let shared = Arc::clone(rig.frontend.shared());
    let quiet_by = Instant::now() + QUIESCE_LIMIT;
    while (shared.total_grants() > 0 || shared.active_txns() > 0) && Instant::now() < quiet_by {
        std::thread::sleep(Duration::from_millis(5));
    }
    for (what, n) in [
        ("lock grants", shared.total_grants() as u64),
        ("active transactions", shared.active_txns() as u64),
        (
            "mixed-epoch lookups",
            shared.registry().mixed_epoch_lookups(),
        ),
    ] {
        if n > 0 {
            bad.push(format!("{n} {what} at quiescence"));
        }
    }

    // Make the whole log durable (a clean shutdown), then audit the live
    // image.
    let records = shared.wal_len() as u64;
    if records > 0 {
        shared
            .sync_wal(Lsn(records - 1))
            .map_err(|e| format!("final WAL flush: {e}"))?;
    }
    let durable = shared.wal_durable_stream();
    let live = shared.snapshot_db();
    bad.extend(
        w.audit(&live)
            .into_iter()
            .map(|v| format!("live image: {v}")),
    );
    drop(live);
    drop(shared);
    tear_down(rig);

    // Durability: recover the durable log onto a fresh base image; every
    // acknowledged commit must be there and the image must pass the audit.
    let wal = Wal::from_bytes(&durable);
    if wal.len() as u64 != records {
        bad.push(format!(
            "recovered {} log records, {records} were appended",
            wal.len()
        ));
    }
    let mut db = w.base_image(seed);
    let report = acc_wal::recover(&mut db, &wal).map_err(|e| format!("recovery: {e}"))?;
    let recovered: HashSet<u64> = report.committed.iter().map(|t| t.0).collect();
    let lost = run
        .ops
        .iter()
        .filter(|o| o.outcome == Some(Outcome::Committed) && !recovered.contains(&o.txn_id))
        .count();
    if lost > 0 {
        bad.push(format!(
            "{lost} acknowledged commits missing after recovery"
        ));
    }
    // After a clean shutdown nothing should be left in flight; whatever is
    // gets compensated the way a restart would before the image is audited.
    if !report.needs_compensation.is_empty() || !report.discarded.is_empty() {
        let ids = |v: Vec<u64>| format!("{v:?}");
        bad.push(format!(
            "recovery found transactions {} in flight and {} discarded after a clean shutdown",
            ids(report.needs_compensation.iter().map(|i| i.txn.0).collect()),
            ids(report.discarded.iter().map(|t| t.0).collect()),
        ));
    }
    let host = w.host(seed, Arc::clone(tracer));
    let shared = SharedDb::new(db, host.oracle());
    for inf in &report.needs_compensation {
        let mut program = host
            .inflight_program(inf)
            .map_err(|e| format!("recovery: {e}"))?;
        let mut txn = Transaction::new(inf.txn, inf.txn_type);
        txn.steps_completed = inf.steps_completed;
        txn.step_index = inf.steps_completed;
        txn.state = TxnState::Active;
        rollback(&shared, host.cc(), program.as_mut(), &mut txn)
            .map_err(|e| format!("compensating recovered {}: {e}", inf.txn))?;
    }
    bad.extend(
        w.audit(&shared.snapshot_db())
            .into_iter()
            .map(|v| format!("recovered image: {v}")),
    );
    Ok(bad)
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// Client latency of a settled operation, ms. A failed operation missed
/// every latency limit: it counts at the deadline.
fn latency_ms(o: &OpRec) -> f64 {
    let ns = match o.outcome {
        Some(out) if out.is_failure() => o.latency().max(DEADLINE.as_nanos() as u64),
        _ => o.latency(),
    };
    ns as f64 / 1e6
}

/// Latency of the operations started in `window`, at the median and p99,
/// refused if fewer than ten samples lie beyond the p99.
fn window_latency(run: &ClientRun, (w0, w1): (u64, u64)) -> Result<stats::Summary, String> {
    let mut samples: Vec<f64> = run
        .ops
        .iter()
        .filter(|o| o.t0 >= w0 && o.t0 < w1)
        .map(latency_ms)
        .collect();
    summarize(&mut samples, 99.0)
}

/// Requests whose commit response arrived in `[a, b)`.
fn commits_between(run: &ClientRun, (a, b): (u64, u64)) -> usize {
    run.ops
        .iter()
        .filter(|o| o.outcome == Some(Outcome::Committed) && o.recv >= a && o.recv < b)
        .count()
}

/// (user, system) CPU time of the program's threads per commit, µs, from
/// the first mark to the last.
fn window_cpu(run: &ClientRun, marks: &[(u64, cpu::Snapshot)]) -> (f64, f64) {
    let ((t0, cpu0), (t1, cpu1)) = (&marks[0], &marks[marks.len() - 1]);
    cpu1.since(cpu0).per(commits_between(run, (*t0, *t1)))
}

/// The untraced run's end-to-end metrics: the ones steady enough on a
/// 2-core VM, where the hypervisor took 5–40 % of the CPU from second to
/// second, to carry a regression bound. Client latency is printed but not
/// gated; the traced run reports it, and the CPU time per commit of the
/// program's threads, which on smallbank-open moved with the load of the
/// host's other tenants by a third and more from one hour to the next.
fn end_to_end(
    run: &ClientRun,
    window: (u64, u64),
    marks: &[(u64, cpu::Snapshot)],
    setup_rss_kb: u64,
    peak_rss_kb: u64,
    durable_bytes: u64,
) -> Result<(Vec<Metric>, String), String> {
    let (w0, w1) = window;
    let commits = run
        .ops
        .iter()
        .filter(|o| o.outcome == Some(Outcome::Committed))
        .count()
        .max(1);
    let latency = window_latency(run, window)?;
    let in_window = run.ops.iter().filter(|o| o.t0 >= w0 && o.t0 < w1);
    let (wire, wire_failed) = in_window.fold((0u64, 0u64), |(n, f), o| {
        (n + u64::from(o.wire), f + u64::from(o.wire_failures))
    });
    let note = format!(
        "latency (not gated) p50 {:.3} ms, p99 {:.3} ms over {} samples; \
         wire requests {wire}, failed {wire_failed}",
        latency.p50, latency.tail, latency.n
    );
    let growth_kb = peak_rss_kb.saturating_sub(setup_rss_kb) as f64;
    let mut tps: Vec<f64> = marks
        .windows(2)
        .map(|pair| {
            let (a, b) = (pair[0].0, pair[1].0);
            commits_between(run, (a, b)) as f64 / ((b - a) as f64 / 1e9)
        })
        .collect();
    let (user_us, sys_us) = window_cpu(run, marks);
    let note = format!(
        "{note}\nthroughput: median of {} slices of {SLICE:?}; CPU per commit of the \
         program's threads (not gated): user {user_us:.2} us, system {sys_us:.2} us",
        tps.len()
    );
    let metrics = vec![
        ("throughput_tps", stats::median(&mut tps), "1/s"),
        (
            "ok_frac",
            1.0 - wire_failed as f64 / wire.max(1) as f64,
            "ratio",
        ),
        (
            "log_bytes_per_commit",
            durable_bytes as f64 / commits as f64,
            "B",
        ),
        // Filled in once every set-up has been timed.
        ("setup_s", f64::NAN, "s"),
        ("setup_rss_mb", setup_rss_kb as f64 / 1024.0, "MB"),
        ("rss_kb_per_commit", growth_kb / commits as f64, "KB"),
    ];
    Ok((metrics, note))
}

fn main() {
    match real_main() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("acc-perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn real_main() -> Result<i32, String> {
    let args = parse_args()?;
    let w = args.workload;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let clock = Clock::start();
    let tracer = Tracer::new(clock);

    let began = Instant::now();
    let rig = set_up(w, args.seed, &tracer)?;
    let mut setup_s = vec![began.elapsed().as_secs_f64()];
    let setup_rss_kb = rss_kb()?;

    let seconds = Duration::from_secs(args.seconds).as_nanos() as u64;
    let warm_end = clock.now() + WARMUP.as_nanos() as u64;
    let stop_at = warm_end + seconds;
    let flip_at = if args.trace {
        warm_end + seconds / 2
    } else {
        u64::MAX
    };

    let stream = rig.stream.try_clone().map_err(|e| e.to_string())?;
    let (mix, seed) = (w.mix(), args.seed);
    let generator = match w.load() {
        Load::Closed(n) => cpu::spawn("load", move || {
            client::closed_loop(stream, mix, seed, n, clock, stop_at)
        })?,
        Load::Open(rate) => {
            let start = clock.now();
            let span_s = (stop_at - start) as f64 / 1e9;
            let due = schedule::arrivals(seed, rate, (rate * span_s * 1.2) as usize + 100);
            cpu::spawn("load", move || {
                client::open_loop(stream, mix, seed, due, clock, start, stop_at)
            })?
        }
    };

    // Watch memory and switch tracing on halfway through a traced run.
    let mut peak_rss_kb = setup_rss_kb;
    let mut flipped: Option<(u64, EngineCounters, Arc<EventSink>)> = None;
    // (clock, CPU) at the start of each slice of the measured window (which
    // opens at the end of warm-up, or when tracing comes on) and at its end.
    let opens_at = if args.trace { flip_at } else { warm_end };
    let mark_at = |n: usize| (opens_at + n as u64 * SLICE.as_nanos() as u64).min(stop_at);
    let mut marks: Vec<(u64, cpu::Snapshot)> = Vec::new();
    let closed = |marks: &[(u64, cpu::Snapshot)]| marks.last().is_some_and(|m| m.0 >= stop_at);
    while !generator.is_finished() {
        // Wake at each mark, so the window closes before the load drains.
        let now = clock.now();
        let next = [mark_at(marks.len()), flip_at]
            .into_iter()
            .filter(|&t| t > now)
            .min()
            .map_or(u64::MAX, |t| t - now);
        std::thread::sleep(Duration::from_nanos(next.min(20_000_000)));
        let now = clock.now();
        if !closed(&marks) && now >= mark_at(marks.len()) {
            marks.push((now, cpu::snapshot()?));
        }
        if flipped.is_none() && clock.now() >= flip_at {
            let sink = EventSink::enabled(0);
            rig.frontend.shared().set_event_sink(Arc::clone(&sink));
            let base = engine_counters(&rig);
            tracer.enable();
            flipped = Some((clock.now(), base, sink));
        }
        peak_rss_kb = peak_rss_kb.max(rss_kb()?);
    }
    let run = generator.join().map_err(|_| "load generator panicked")??;
    let drained = clock.now();
    peak_rss_kb = peak_rss_kb.max(rss_kb()?);
    if marks.is_empty() {
        return Err("the run ended before its measured window opened".into());
    }
    if !closed(&marks) {
        marks.push((drained, cpu::snapshot()?));
    }
    let end_counters = engine_counters(&rig);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {} seed {} seconds {} trace {} | available_parallelism {} | WAL device {}, group commit {:?}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        rig.frontend.shared().wal_device_kind(),
        GroupCommitPolicy::default(),
    );

    let (metrics, note, trace_bad) = match &flipped {
        None if args.trace => return Err("the run ended before tracing began".into()),
        None => {
            let (m, note) = end_to_end(
                &run,
                (warm_end, stop_at),
                &marks,
                setup_rss_kb,
                peak_rss_kb,
                end_counters.durable_bytes,
            )?;
            (m, note, Vec::new())
        }
        Some((on, base, sink)) => {
            let untraced = window_latency(&run, (warm_end, flip_at))?;
            let mut report = layers::report(layers::Inputs {
                run: &run,
                attempts: tracer.take_attempts(),
                syncs: tracer.take_syncs(),
                untraced: (warm_end, flip_at),
                traced: (*on, stop_at),
                drained,
                sink: sink.counters(),
                before: *base,
                after: end_counters,
            });
            // Client latency of the untraced half: reported, not gated.
            report.metrics.splice(
                0..0,
                [
                    ("latency_p50_ms", untraced.p50, "ms"),
                    ("latency_p99_ms", untraced.tail, "ms"),
                    ("loadgen.samples", untraced.n as f64, "count"),
                ],
            );
            let (user_us, sys_us) = window_cpu(&run, &marks);
            report.metrics.extend([
                ("cpu.user_us_per_commit", user_us, "us"),
                ("cpu.sys_us_per_commit", sys_us, "us"),
            ]);
            let spans = args.out.join(format!("spans-{}.tsv", w.name()));
            trace::write_spans(&spans, &report.spans).map_err(|e| e.to_string())?;
            let note = format!(
                "{} spans written to {}; {} committed requests tiled",
                report.spans.len(),
                spans.display(),
                report.tiled
            );
            (report.metrics, note, report.violations)
        }
    };

    let mut violations = audit(w, args.seed, &tracer, rig, &run)?;
    violations.extend(trace_bad);

    if !args.trace {
        for _ in 1..SETUPS {
            let began = Instant::now();
            let rig = set_up(w, args.seed, &tracer)?;
            setup_s.push(began.elapsed().as_secs_f64());
            tear_down(rig);
        }
    }
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|(name, value, unit)| match name {
            "setup_s" => (name, stats::median(&mut setup_s), unit),
            _ => (name, value, unit),
        })
        .collect();

    for (name, value, unit) in &metrics {
        let _ = writeln!(out, "{name:32} {value:>14.4} {unit}");
    }
    let _ = writeln!(out, "{note}");
    let mut finals = std::collections::BTreeMap::new();
    for o in &run.ops {
        *finals.entry(format!("{:?}", o.outcome)).or_insert(0usize) += 1;
    }
    let _ = writeln!(out, "final outcomes: {finals:?}");
    for e in run.errors.iter().take(5) {
        let _ = writeln!(out, "error response: {e}");
    }
    if !args.trace {
        let _ = writeln!(out, "set-up times (s): {setup_s:?}");
    }
    for v in violations.iter().take(20) {
        let _ = writeln!(out, "AUDIT VIOLATION: {v}");
    }
    if let Some((name, value, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is {value}"));
    }
    let correct = violations.is_empty();
    let failed = run
        .ops
        .iter()
        .filter(|o| o.outcome.is_none_or(Outcome::is_failure))
        .count();
    print!("{out}");
    println!("{}", json(correct, run.ops.len(), failed, &metrics));
    Ok(if correct { 0 } else { 1 })
}
