//! TPC-C as a [`WorkloadKit`], and the crash-torture sweeps run over it.
//!
//! The harness itself lives in [`acc_workloads::torture`]; this module only
//! supplies what is TPC-C's own: the population at a [`Scale`], the seeded
//! standard mix, the recovered programs of [`recovery`], the §3.3.2
//! conditions of [`consistency`], and the hand tables with their online
//! re-analyses ([`TableEdit`]) for the switchover sweep. [`TpccSweep`] names
//! the five published sweeps behind `figures -- torture`.

use crate::decompose::{TableEdit, TpccSystem};
use crate::input::{InputGen, TpccConfig};
use crate::schema::Scale;
use crate::{consistency, recovery, txns};
use acc_common::{Result, SeededRng};
use acc_core::{Acc, InterferenceTables};
use acc_storage::Database;
use acc_txn::TxnProgram;
use acc_wal::InFlight;
use acc_workloads::torture::{run_torture, CutSource, TortureConfig, TortureReport, WorkloadKit};
use std::sync::Arc;

/// The TPC-C workload at one scale and seed, under the hand-analyzed tables.
pub struct TpccKit {
    /// Database scale the mix runs against.
    pub scale: Scale,
    /// Seed of the population and of the input generator's NURand constants.
    seed: u64,
    sys: TpccSystem,
    gen: InputGen,
}

impl TpccKit {
    /// The kit at `scale`, populated and generating inputs from `seed`.
    pub fn new(scale: Scale, seed: u64) -> TpccKit {
        TpccKit {
            scale,
            seed,
            sys: TpccSystem::build(),
            gen: InputGen::new(TpccConfig::standard(scale), seed),
        }
    }
}

impl WorkloadKit for TpccKit {
    fn name(&self) -> &'static str {
        "tpcc"
    }
    fn base(&self) -> Database {
        let mut db = Database::new(&crate::tpcc_catalog());
        crate::populate(&mut db, &self.scale, self.seed);
        db
    }
    fn tables(&self) -> Arc<InterferenceTables> {
        Arc::clone(&self.sys.tables)
    }
    fn acc(&self) -> Arc<Acc> {
        Arc::clone(&self.sys.acc)
    }
    fn next_program(&self, rng: &mut SeededRng) -> Box<dyn TxnProgram + Send> {
        txns::program_for(self.gen.next_input(rng), self.scale.districts)
    }
    fn program_for_inflight(&self, inf: &InFlight) -> Result<Box<dyn TxnProgram + Send>> {
        recovery::program_for_inflight(inf)
    }
    fn audit(&self, db: &Database) -> Vec<String> {
        consistency::check(db, false)
            .into_iter()
            .map(|v| format!("condition {}: {}", v.condition, v.detail))
            .collect()
    }
    fn mix_rng(&self, seed: u64) -> SeededRng {
        SeededRng::new(seed ^ 0x746f_7274) // "tort"
    }
    /// The switchover sweep starts under the hand tables.
    fn bootstrap_tables(&self) -> Arc<InterferenceTables> {
        self.tables()
    }
    /// Re-derived tables cycling through the three edit directions: add a
    /// template, widen a footprint, remove a template.
    fn install_tables(&self) -> Vec<(String, Arc<InterferenceTables>)> {
        [
            TableEdit::AddAudit,
            TableEdit::WidenNoLoop,
            TableEdit::RemoveAudit,
        ]
        .into_iter()
        .map(|e| (format!("{e:?}"), TpccSystem::reanalyze(e).tables))
        .collect()
    }
}

/// The published TPC-C torture sweeps, one per `figures -- torture` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpccSweep {
    /// Every WAL append index, torn tails, bit flips, injector replays and
    /// a step boundary's edge pair (`figures -- torture`).
    Plain,
    /// The same at [`Scale::benchmark`], strided (`--strided`; has no
    /// smaller size).
    Strided,
    /// Every fsync boundary on both devices plus sector tears (`--fsync`).
    Fsync,
    /// An epoch switchover at every step boundary, then crashes under the
    /// edited tables (`--reanalysis`).
    Reanalysis,
    /// Every WAL-shipping boundary crashed on both sides (`--ship`).
    Ship,
}

impl TpccSweep {
    /// The kit and config of this sweep at `seed`: the full size, or the
    /// bounded smoke size with `quick`.
    pub fn setup(self, seed: u64, quick: bool) -> (TpccKit, TortureConfig) {
        let scale = if self == TpccSweep::Strided {
            Scale::benchmark()
        } else {
            Scale::test()
        };
        let (txns, source) = match (self, quick) {
            (TpccSweep::Plain, false) => (16, appends(usize::MAX, 24, 16, 4)),
            (TpccSweep::Plain, true) => (10, appends(72, 16, 8, 2)),
            (TpccSweep::Strided, _) => (24, appends(96, 24, 16, 4)),
            (TpccSweep::Fsync, false) => (
                16,
                CutSource::Fsync {
                    max_batch: 4,
                    tears: 16,
                    injector: 3,
                },
            ),
            (TpccSweep::Fsync, true) => (
                8,
                CutSource::Fsync {
                    max_batch: 6,
                    tears: 6,
                    injector: 2,
                },
            ),
            (TpccSweep::Reanalysis, false) => (
                16,
                CutSource::Switchover {
                    max_boundaries: usize::MAX,
                    max_points: 72,
                    max_batch: Some(4),
                },
            ),
            (TpccSweep::Reanalysis, true) => (
                8,
                CutSource::Switchover {
                    max_boundaries: 16,
                    max_points: 24,
                    max_batch: Some(6),
                },
            ),
            (TpccSweep::Ship, false) => (
                16,
                CutSource::Ship {
                    max_batch: 4,
                    ship_batch: 300,
                    plans: 4,
                    injector: 3,
                },
            ),
            (TpccSweep::Ship, true) => (
                8,
                CutSource::Ship {
                    max_batch: 6,
                    ship_batch: 500,
                    plans: 2,
                    injector: 2,
                },
            ),
        };
        (
            TpccKit::new(scale, seed),
            TortureConfig { seed, txns, source },
        )
    }

    /// Run this sweep at `seed` (see [`TpccSweep::setup`]).
    pub fn run(self, seed: u64, quick: bool) -> Result<TortureReport> {
        let (kit, cfg) = self.setup(seed, quick);
        run_torture(&kit, &cfg)
    }
}

fn appends(max_points: usize, torn: usize, flips: usize, injector: usize) -> CutSource {
    CutSource::Appends {
        max_points,
        torn,
        flips,
        injector,
    }
}
