//! The crash-torture totals EXPERIMENTS.md publishes, pinned exactly.
//!
//! Every sweep is a pure function of its seed, so its `total:` line is too:
//! a change to the harness, the codec, recovery or a workload that moves any
//! published number fails here instead of silently drifting from the
//! document. These are the seed-42 `--quick` runs of
//! `figures -- torture [flag]`; the smallbank and saga totals are pinned
//! where their sweeps run, in `crates/workloads/tests/workload_torture.rs`.

use acc_bench::netbench::run_net_torture;
use acc_tpcc::TpccSweep;
use acc_workloads::TortureReport;

fn total(report: &TortureReport) -> &str {
    report.log.lines().last().expect("a total line")
}

#[test]
fn quick_sweeps_reproduce_the_published_totals() {
    let tpcc = [
        (
            TpccSweep::Plain,
            "total: points=88 replayed=313 compensated=67 discarded=17 rejected=798 violations=0",
        ),
        (
            TpccSweep::Fsync,
            "total: boundaries=33 points=75 replayed=261 compensated=59 discarded=0 \
             rejected=581 violations=0",
        ),
        (
            TpccSweep::Reanalysis,
            "total: boundaries=34 switches=12 immediate=1 crash_points=58 replayed=202 \
             compensated=42 discarded=3 rejected=0 violations=0 mixed_epoch=0",
        ),
        (
            TpccSweep::Ship,
            "total: boundaries=75 points=230 replayed=243 compensated=68 discarded=6 \
             rejected=0 violations=0 refused=225 resumes=198",
        ),
    ];
    for (sweep, want) in tpcc {
        let report = sweep.run(42, true).expect("tpcc sweep");
        assert_eq!(total(&report), want, "{sweep:?}");
    }

    let net = run_net_torture(true).expect("net sweep");
    let crash = net
        .lines()
        .find(|l| l.starts_with("[net] crash sweep"))
        .expect("a crash-sweep line");
    assert_eq!(
        crash,
        "[net] crash sweep: 7 points, 174 replayed, 1 compensated, 3 discarded, 0 violations"
    );
}
