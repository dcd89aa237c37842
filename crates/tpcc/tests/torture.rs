//! Crash-torture: recovery + compensation must hold at every crash point.
//!
//! These tests drive the TPC-C sweeps of `acc_tpcc::kit` through the shared
//! harness in `acc_workloads::torture` (see that module for the sweep
//! design): a seeded TPC-C mix, a crash at every WAL-append index plus
//! seeded torn-tail and bit-flip corruptions, and a recovery + compensation
//! + §3.3.2-consistency pass for each salvaged image.

use acc_tpcc::TpccSweep;

#[test]
fn standard_sweep_holds_consistency_at_every_crash_point() {
    let report = TpccSweep::Plain
        .run(42, false)
        .expect("torture harness failed");
    assert!(
        report.points >= 200,
        "swept only {} crash points (need ≥ 200)\n{}",
        report.points,
        report.log
    );
    assert_eq!(
        report.violations, 0,
        "consistency violated after recovery:\n{}",
        report.log
    );
    // The sweep must actually exercise all three outcome classes — a run
    // that never compensates or never rejects a torn record proves nothing.
    assert!(report.replayed > 0, "no transaction ever replayed");
    assert!(
        report.compensated > 0,
        "no crash point exercised compensation:\n{}",
        report.log
    );
    assert!(
        report.discarded > 0,
        "no crash point caught a step-less in-flight transaction:\n{}",
        report.log
    );
    assert!(
        report.rejected_records > 0,
        "no corruption point rejected records:\n{}",
        report.log
    );
    // The event sink saw exactly one RecoveryOutcome per point.
    assert_eq!(report.counters.recoveries, report.points as u64);
    assert_eq!(report.counters.recovered_compensated, report.compensated);
    assert_eq!(report.counters.recovered_discarded, report.discarded);
    assert_eq!(report.counters.rejected_records, report.rejected_records);
}

#[test]
fn same_seed_yields_byte_identical_outcome_logs() {
    let a = TpccSweep::Plain
        .run(7, true)
        .expect("torture harness failed");
    let b = TpccSweep::Plain
        .run(7, true)
        .expect("torture harness failed");
    assert_eq!(
        a.log, b.log,
        "two same-seed torture runs diverged — determinism is broken"
    );
    assert_eq!(a.violations, 0, "{}", a.log);
}

#[test]
fn different_seeds_torture_different_points() {
    let a = TpccSweep::Plain
        .run(1, true)
        .expect("torture harness failed");
    let b = TpccSweep::Plain
        .run(2, true)
        .expect("torture harness failed");
    assert_ne!(a.log, b.log, "seed does not steer the sweep");
    assert_eq!(a.violations + b.violations, 0);
}

#[test]
fn fsync_sweep_holds_consistency_at_every_boundary() {
    let report = TpccSweep::Fsync
        .run(42, false)
        .expect("fsync torture failed");
    assert_eq!(
        report.violations, 0,
        "consistency violated after an fsync-boundary crash:\n{}",
        report.log
    );
    assert!(
        report.boundaries >= 10,
        "only {} fsync boundaries observed — the group-commit batcher never \
         split the workload\n{}",
        report.boundaries,
        report.log
    );
    // Both devices swept every boundary, plus tears and injector replays.
    assert!(
        report.points > 2 * report.boundaries,
        "points={} boundaries={}\n{}",
        report.points,
        report.boundaries,
        report.log
    );
    // All three outcome classes must be exercised: replay (committed before
    // the boundary), compensation (durable step, in-flight at the boundary),
    // discard (no durable step yet).
    assert!(report.replayed > 0, "no transaction ever replayed");
    assert!(
        report.compensated > 0,
        "no fsync boundary landed mid-transaction after a durable step:\n{}",
        report.log
    );
    assert!(
        report.discarded > 0,
        "no fsync boundary caught a step-less in-flight transaction:\n{}",
        report.log
    );
    assert!(
        report.rejected_records > 0,
        "no sector tear rejected records:\n{}",
        report.log
    );
    assert_eq!(report.counters.recoveries, report.points as u64);
}

#[test]
fn fsync_sweep_same_seed_is_byte_identical() {
    let a = TpccSweep::Fsync.run(7, true).expect("fsync torture failed");
    let b = TpccSweep::Fsync.run(7, true).expect("fsync torture failed");
    assert_eq!(
        a.log, b.log,
        "two same-seed fsync torture runs diverged — determinism is broken"
    );
    assert_eq!(a.violations, 0, "{}", a.log);
}

#[test]
fn reanalysis_sweep_switches_at_every_boundary() {
    let report = TpccSweep::Reanalysis
        .run(42, false)
        .expect("reanalysis failed");
    // Every step boundary of the mix hosted a drained switchover (the
    // harness errors out on any WAL divergence, outcome mismatch or counter
    // disagreement, so reaching here means each one behaved).
    assert_eq!(
        report.switch_points, report.boundaries,
        "not every boundary was swept\n{}",
        report.log
    );
    assert!(report.boundaries >= 30, "{} boundaries", report.boundaries);
    assert_eq!(report.drained, report.switch_points as u64);
    assert_eq!(report.immediate_installs, 1);
    assert_eq!(
        report.mixed_epoch_lookups, 0,
        "a lookup crossed epochs:\n{}",
        report.log
    );
    assert_eq!(
        report.violations, 0,
        "consistency violated:\n{}",
        report.log
    );
    // The crash sweep under edited tables exercised all outcome classes.
    assert!(report.crash_points > 0);
    assert!(report.replayed > 0, "no transaction ever replayed");
    assert!(
        report.compensated > 0,
        "no crash point exercised compensation under edited tables:\n{}",
        report.log
    );
    assert!(
        report.discarded > 0,
        "no crash point caught a step-less in-flight transaction:\n{}",
        report.log
    );
    assert_eq!(report.counters.recoveries, report.crash_points as u64);
}

#[test]
fn reanalysis_sweep_same_seed_is_byte_identical() {
    let a = TpccSweep::Reanalysis
        .run(7, true)
        .expect("reanalysis failed");
    let b = TpccSweep::Reanalysis
        .run(7, true)
        .expect("reanalysis failed");
    assert_eq!(
        a.log, b.log,
        "two same-seed reanalysis runs diverged — determinism is broken"
    );
    assert_eq!(
        a.violations + a.mixed_epoch_lookups as usize,
        0,
        "{}",
        a.log
    );
}

#[test]
fn ship_sweep_crashes_every_boundary_on_both_sides() {
    let report = TpccSweep::Ship.run(42, false).expect("ship torture failed");
    assert_eq!(
        report.violations, 0,
        "replication violated consistency or byte equality:\n{}",
        report.log
    );
    assert!(
        report.boundaries >= 4,
        "only {} ship boundaries — the batch target never split the stream\n{}",
        report.boundaries,
        report.log
    );
    // Both sides crashed at every boundary, plus hostile/divergence/plan
    // points: the sweep is wider than three passes over the boundaries.
    assert!(
        report.points > 3 * report.boundaries,
        "points={} boundaries={}\n{}",
        report.points,
        report.boundaries,
        report.log
    );
    // Promotion exercised all three §3.4 outcome classes.
    assert!(report.replayed > 0, "no promotion replayed anything");
    assert!(
        report.compensated > 0,
        "no ship boundary landed mid-transaction — promotion never compensated:\n{}",
        report.log
    );
    assert!(
        report.discarded > 0,
        "no promotion caught a step-less in-flight transaction:\n{}",
        report.log
    );
    // The hostile phases actually refused and re-shipped.
    assert!(
        report.refusals > 0,
        "nothing was ever refused:\n{}",
        report.log
    );
    assert!(report.resumes > 0, "nothing ever resumed:\n{}", report.log);
    // One RecoveryOutcome per promotion point, and ship counters flowed.
    assert_eq!(report.counters.recoveries, report.boundaries as u64);
    assert!(report.counters.ship_batches > 0);
    assert!(report.counters.ship_resumes > 0);
}

#[test]
fn ship_sweep_same_seed_is_byte_identical() {
    let a = TpccSweep::Ship.run(7, true).expect("ship torture failed");
    let b = TpccSweep::Ship.run(7, true).expect("ship torture failed");
    assert_eq!(
        a.log, b.log,
        "two same-seed ship torture runs diverged — determinism is broken"
    );
    assert_eq!(a.violations, 0, "{}", a.log);
}
