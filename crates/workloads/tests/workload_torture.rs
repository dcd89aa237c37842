//! The two bring-your-own-workload families end to end: matrix shape as the
//! inference derives it, the crash/switchover torture protocol (a
//! conservative-to-inferred switchover at step boundaries, then crashes
//! under the inferred tables), fsync-boundary crashes inside a switchover's
//! drain window and of the saga, and a short multi-threaded closed-loop burn
//! for each family.
//!
//! Nothing here consults a hand-written interference table — the matrices
//! under test are exactly what [`acc_core::Inference`] produced from the
//! declared footprints, installed through the live registry.

use acc_core::{InterferenceTables, DIRTY};
use acc_engine::{run_closed_loop, ClosedLoopConfig, RetryPolicy, Workload};
use acc_lockmgr::InterferenceOracle;
use acc_txn::SharedDb;
use acc_workloads::torture::KitWorkload;
use acc_workloads::{run_torture, saga, smallbank, CutSource, TortureConfig, WorkloadKit};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Matrix shape: the inference must prove exactly the cells the footprint
// arguments support, and nothing more.
// ---------------------------------------------------------------------------

#[test]
fn smallbank_inferred_matrix_shape() {
    use smallbank::step::*;
    let kit = smallbank::SmallbankKit::build(10);
    let t: &InterferenceTables = &kit.tables;
    let all = [
        BAL, DEP, TRS, WRC, SP_S1, SP_S2, AMG_S1, AMG_S2, OPEN, SP_CS, AMG_CS,
    ];

    // Balance-conservation template: every delta-writing step is proved
    // tolerable; the fresh-row OPEN step is the one conservative cell — its
    // inserts land in tables the template reads with row cardinality, and
    // "fresh keys" says nothing about a COUNT-style predicate.
    for s in all {
        let expect = s == OPEN;
        assert_eq!(
            t.write_interferes(s, kit.conserve),
            expect,
            "conserve cell for step {s:?}"
        );
    }

    // DIRTY: every step is analyzed (writes either commute or are confined
    // to fresh/own regions), so none needs the legacy read fence.
    for s in all {
        assert!(!t.write_interferes(s, DIRTY), "dirty cell for step {s:?}");
        assert!(t.is_analyzed(s), "step {s:?} analyzed");
    }

    // The read-only balance inquiry runs on committed data.
    assert!(t.is_committed_reader(BAL));
    assert!(t.read_interferes(BAL, DIRTY));
    // Version-read eligibility at the oracle level means "write row
    // all-clear" (the per-transaction `version_safe` flag is the second
    // half of the gate); only OPEN carries an interfering write here.
    for s in all {
        assert_eq!(
            t.version_read_safe(s),
            s != OPEN,
            "version reads for step {s:?}"
        );
    }
}

#[test]
fn saga_inferred_matrix_shape() {
    use saga::step::*;
    let kit = saga::SagaKit::build(6, 4);
    let t: &InterferenceTables = &kit.tables;
    let all = [FUL_S1, FUL_RES, FUL_PAY, FUL_SHIP, RESTOCK, STATUS, FUL_CS];

    // res-mid reads LEDGER.capacity *without* delta tolerance, so the two
    // capacity-writing steps are conservatively blocked; everything else is
    // proved out (tolerated deltas, own-region rows, fresh inserts into
    // row-sets the template scopes to the instance's own key space).
    for s in all {
        let expect = s == FUL_SHIP || s == RESTOCK;
        assert_eq!(
            t.write_interferes(s, kit.res_mid),
            expect,
            "res-mid cell for step {s:?}"
        );
    }
    for s in all {
        assert!(!t.write_interferes(s, DIRTY), "dirty cell for step {s:?}");
        assert!(t.is_analyzed(s), "step {s:?} analyzed");
    }
    assert!(t.is_committed_reader(STATUS));
    // Oracle-level version-read eligibility tracks the all-clear write row:
    // the two conservative capacity writers are the only exclusions.
    for s in all {
        assert_eq!(
            t.version_read_safe(s),
            s != FUL_SHIP && s != RESTOCK,
            "version reads for step {s:?}"
        );
    }
}

#[test]
fn inference_decisions_cover_every_declared_step() {
    let sb = smallbank::SmallbankKit::build(6);
    assert!(!sb.decisions.is_empty());
    let sg = saga::SagaKit::build(4, 3);
    assert!(!sg.decisions.is_empty());
}

// ---------------------------------------------------------------------------
// Torture: the switchover protocol per family, fsync boundaries inside a
// switchover's drain window, and the saga at fsync boundaries.
// ---------------------------------------------------------------------------

/// Bootstrap under the conservative tables, install the inferred ones at
/// about 4 step boundaries, then crash at about `max_points` append indices
/// (and, given `max_batch`, at every fsync boundary of a drain-window run).
fn switchover(max_points: usize, max_batch: Option<usize>) -> CutSource {
    CutSource::Switchover {
        max_boundaries: 4,
        max_points,
        max_batch,
    }
}

/// Every install drained its one pin without a lookup crossing epochs, and
/// every crash point was reported to the event sink.
fn assert_switched_cleanly(report: &acc_workloads::TortureReport) {
    assert!(report.switch_points > 1, "{}", report.log);
    assert_eq!(report.drained, report.switch_points as u64);
    assert_eq!(report.immediate_installs, 1);
    assert_eq!(report.mixed_epoch_lookups, 0, "{}", report.log);
    assert_eq!(report.counters.recoveries, report.crash_points as u64);
    assert_eq!(report.counters.recovered_compensated, report.compensated);
}

/// Crash points cut at an append index (the drain-window fsync points, if
/// any, are logged as `fsync j=…`).
fn append_cuts(report: &acc_workloads::TortureReport) -> usize {
    report
        .log
        .lines()
        .filter(|l| l.starts_with("crash k="))
        .count()
}

/// The sweep's `total:` line; every sweep is a pure function of its config,
/// so EXPERIMENTS.md publishes these lines and the tests pin them exactly.
fn total(report: &acc_workloads::TortureReport) -> &str {
    report.log.lines().last().expect("a total line")
}

#[test]
fn smallbank_survives_the_torture_protocol() {
    let kit = smallbank::SmallbankKit::build(8);
    let cfg = TortureConfig {
        seed: 0xB4A2,
        txns: 120,
        source: switchover(80, None),
    };
    let report = run_torture(&kit, &cfg).expect("torture protocol");
    assert_eq!(
        report.violations, 0,
        "consistency violations:\n{}",
        report.log
    );
    assert_switched_cleanly(&report);
    assert!(
        append_cuts(&report) >= 40,
        "only {} append crash points swept",
        append_cuts(&report)
    );
    assert!(
        report.compensated > 0,
        "sweep never resumed a compensation — mix too shallow?\n{}",
        report.log
    );
    assert_eq!(
        total(&report),
        "total: boundaries=35 switches=5 immediate=1 crash_points=73 replayed=4419 \
         compensated=9 discarded=46 rejected=0 violations=0 mixed_epoch=0"
    );
    // Determinism of the sweep itself: the outcome log is a pure function
    // of the config.
    let again = run_torture(&kit, &cfg).expect("torture re-run");
    assert_eq!(report.log, again.log, "torture log not deterministic");
}

#[test]
fn saga_survives_the_torture_protocol_with_deep_chains() {
    let kit = saga::SagaKit::build(6, 4);
    let cfg = TortureConfig {
        seed: 0x5A6A,
        txns: 110,
        source: switchover(90, None),
    };
    let report = run_torture(&kit, &cfg).expect("torture protocol");
    assert_eq!(
        report.violations, 0,
        "consistency violations:\n{}",
        report.log
    );
    assert_switched_cleanly(&report);
    assert!(
        append_cuts(&report) >= 40,
        "only {} append crash points swept",
        append_cuts(&report)
    );
    // The whole reason this family exists: crash points late in a four-leg
    // saga leave compensation chains far past TPC-C's two-to-three steps.
    assert!(
        report.max_comp_depth >= 5,
        "deepest resumed chain was {} completed steps — want >= 5\n{}",
        report.max_comp_depth,
        report.log
    );
    assert_eq!(
        total(&report),
        "total: boundaries=279 switches=5 immediate=1 crash_points=87 replayed=4711 \
         compensated=59 discarded=19 rejected=0 violations=0 mixed_epoch=0"
    );
    assert_eq!(report.max_comp_depth, 6);
    let again = run_torture(&kit, &cfg).expect("torture re-run");
    assert_eq!(report.log, again.log, "torture log not deterministic");
}

/// Both families crashed at every fsync boundary of a run whose install
/// lands inside a group-commit window; a small batch threshold retires
/// batches mid-step, so some boundaries leave steps to compensate.
#[test]
fn fsync_boundaries_inside_a_switchover_drain() {
    let kits: [(Box<dyn WorkloadKit>, u64, &str); 2] = [
        (
            Box::new(smallbank::SmallbankKit::build(8)),
            0xB4A2,
            "total: boundaries=3 switches=3 immediate=1 crash_points=26 replayed=161 \
             compensated=4 discarded=7 rejected=0 violations=0 mixed_epoch=0",
        ),
        (
            Box::new(saga::SagaKit::build(6, 4)),
            0x5A6A,
            "total: boundaries=20 switches=5 immediate=1 crash_points=41 replayed=219 \
             compensated=25 discarded=2 rejected=0 violations=0 mixed_epoch=0",
        ),
    ];
    for (kit, seed, want) in kits {
        let cfg = TortureConfig {
            seed,
            txns: 12,
            source: switchover(8, Some(4)),
        };
        let report = run_torture(&*kit, &cfg).expect("switchover drain torture");
        assert_eq!(
            report.violations,
            0,
            "{}: consistency violations:\n{}",
            kit.name(),
            report.log
        );
        assert_switched_cleanly(&report);
        let drain_points = report
            .log
            .lines()
            .filter(|l| l.starts_with("fsync j="))
            .count();
        assert!(
            drain_points > 0,
            "{}: no drain-window fsync boundary\n{}",
            kit.name(),
            report.log
        );
        assert_eq!(total(&report), want, "{}", kit.name());
        let again = run_torture(&*kit, &cfg).expect("torture re-run");
        assert_eq!(report.log, again.log, "torture log not deterministic");
    }
}

#[test]
fn saga_survives_fsync_boundary_crashes() {
    let kit = saga::SagaKit::build(6, 4);
    let cfg = TortureConfig {
        seed: 0x5A6A,
        txns: 8,
        source: CutSource::Fsync {
            max_batch: 6,
            tears: 6,
            injector: 2,
        },
    };
    let report = run_torture(&kit, &cfg).expect("fsync torture");
    assert_eq!(
        report.violations, 0,
        "consistency violations:\n{}",
        report.log
    );
    assert!(report.boundaries > 0, "{}", report.log);
    // A boundary inside a saga caught durable legs that had to be
    // compensated.
    assert!(
        report.compensated > 0,
        "no fsync boundary landed mid-saga:\n{}",
        report.log
    );
    assert_eq!(report.counters.recoveries, report.crash_points as u64);
    assert_eq!(
        total(&report),
        "total: boundaries=17 points=43 replayed=130 compensated=23 discarded=2 rejected=468 \
         violations=0"
    );
}

// ---------------------------------------------------------------------------
// Concurrency: a short closed-loop burn under the inferred tables, audited
// at quiescence. (The release-mode stress gate runs the long version; this
// keeps the property in the plain test suite.)
// ---------------------------------------------------------------------------

fn burn(kit: Arc<dyn WorkloadKit>, seed: u64) {
    let shared = Arc::new(SharedDb::new(kit.base(), kit.tables() as _));
    let cc: Arc<dyn acc_txn::ConcurrencyControl> = kit.acc();
    let workload: Arc<dyn Workload> = Arc::new(KitWorkload(Arc::clone(&kit)));
    let report = run_closed_loop(
        &shared,
        &cc,
        &workload,
        &ClosedLoopConfig {
            terminals: 8,
            duration: Duration::from_millis(200),
            think_time: Duration::ZERO,
            seed,
            retry: RetryPolicy::standard(),
        },
    );
    assert!(report.committed > 0, "{}: nothing committed", kit.name());
    let violations = kit.audit(&shared.snapshot_db());
    assert!(
        violations.is_empty(),
        "{} audit after 8-thread burn: {violations:?}",
        kit.name()
    );
    assert_eq!(shared.total_grants(), 0, "{}: grants leaked", kit.name());
}

#[test]
fn smallbank_eight_thread_burn() {
    burn(Arc::new(smallbank::SmallbankKit::build(12)), 0xCAFE);
}

#[test]
fn saga_eight_thread_burn() {
    burn(Arc::new(saga::SagaKit::build(8, 6)), 0xFEED);
}
