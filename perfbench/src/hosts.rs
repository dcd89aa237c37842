//! The workloads: their databases, the `Host` implementations the front-end
//! runs them through, and how a client drives them.

use crate::trace::Tracer;
use acc_common::SeededRng;
use acc_lockmgr::SharedOracle;
use acc_server::{Host, Mix};
use acc_storage::Database;
use acc_tpcc::input::{OrderStatusInput, StockLevelInput, TxnInput};
use acc_tpcc::{populate as tpcc_populate, tpcc_catalog, InputGen, Scale, TpccConfig, TpccSystem};
use acc_txn::{ConcurrencyControl, TxnProgram};
use acc_wal::InFlight;
use acc_workloads::smallbank::{self, SmallbankKit};
use std::sync::Arc;

/// Outstanding requests of the closed-loop workloads.
pub const CLOSED_OUTSTANDING: usize = 16;

/// Arrival rate of `smallbank-open`, requests per second. A constant, never
/// probed at run time. A closed loop of 8 outstanding requests sustained
/// 13 000–19 000 commits/s on a 2-core host, but an open loop at 5 000/s
/// already shed requests there and 9 000/s shed most of them: the
/// generator's per-request sends and the server share the two cores.
/// 3 500/s is the highest rate tried at which no operation failed.
pub const SMALLBANK_RATE: f64 = 3500.0;

/// Accounts of `smallbank-open`.
pub const SMALLBANK_ACCOUNTS: i64 = 100_000;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The TPC-C standard mix on one warehouse: the paper's experiment.
    TpccHot,
    /// Order-status/stock-level beside new-order, all on district 1.
    TpccReadMostly,
    /// Smallbank over 100 000 accounts, open loop at a fixed rate.
    SmallbankOpen,
}

/// How a workload's requests arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// A fixed number of requests outstanding, no think time.
    Closed(usize),
    /// A seeded Poisson stream at this many requests per second.
    Open(f64),
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::TpccHot,
        Workload::TpccReadMostly,
        Workload::SmallbankOpen,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TpccHot => "tpcc-hot",
            Workload::TpccReadMostly => "tpcc-readmostly",
            Workload::SmallbankOpen => "smallbank-open",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The wire family.
    pub fn mix(self) -> Mix {
        match self {
            Workload::TpccHot | Workload::TpccReadMostly => Mix::Tpcc,
            Workload::SmallbankOpen => Mix::Smallbank,
        }
    }

    /// The arrival process.
    pub fn load(self) -> Load {
        match self {
            Workload::TpccHot | Workload::TpccReadMostly => Load::Closed(CLOSED_OUTSTANDING),
            Workload::SmallbankOpen => Load::Open(SMALLBANK_RATE),
        }
    }

    /// The TPC-C scale: one warehouse at spec cardinalities.
    fn tpcc_scale() -> Scale {
        Scale {
            warehouses: 1,
            districts: 10,
            customers_per_district: 3000,
            items: 100_000,
            initial_orders_per_district: 30,
        }
    }

    /// The initial database image. Deterministic in `seed`: recovery replays
    /// the log onto a second copy.
    pub fn base_image(self, seed: u64) -> Database {
        match self {
            Workload::TpccHot | Workload::TpccReadMostly => {
                let mut db = Database::new(&tpcc_catalog());
                tpcc_populate(&mut db, &Workload::tpcc_scale(), seed);
                db
            }
            Workload::SmallbankOpen => smallbank::populate(SMALLBANK_ACCOUNTS),
        }
    }

    /// The host that expands request seeds into programs.
    pub fn host(self, seed: u64, tracer: Arc<Tracer>) -> BenchHost {
        let family = match self {
            Workload::TpccHot | Workload::TpccReadMostly => {
                let scale = Workload::tpcc_scale();
                Family::Tpcc {
                    sys: TpccSystem::build(),
                    gen: InputGen::new(TpccConfig::standard(scale), seed),
                    districts: scale.districts,
                    read_mostly: self == Workload::TpccReadMostly,
                }
            }
            Workload::SmallbankOpen => Family::Smallbank(SmallbankKit::build(SMALLBANK_ACCOUNTS)),
        };
        BenchHost {
            mix: self.mix(),
            family,
            tracer,
        }
    }

    /// The quiescence audit of a database image: one line per violation.
    pub fn audit(self, db: &Database) -> Vec<String> {
        match self {
            Workload::TpccHot | Workload::TpccReadMostly => acc_tpcc::consistency::check(db, false)
                .into_iter()
                .map(|v| format!("TPC-C condition {}: {}", v.condition, v.detail))
                .collect(),
            Workload::SmallbankOpen => smallbank::audit(db),
        }
    }
}

enum Family {
    Tpcc {
        sys: TpccSystem,
        gen: InputGen,
        districts: i64,
        read_mostly: bool,
    },
    Smallbank(SmallbankKit),
}

/// The benchmark's `Host`: derives each program from its request seed and,
/// while the tracer records, wraps it to time its steps.
pub struct BenchHost {
    mix: Mix,
    family: Family,
    tracer: Arc<Tracer>,
}

impl BenchHost {
    /// The compensable program of a transaction recovery found in flight.
    pub fn inflight_program(
        &self,
        inf: &InFlight,
    ) -> acc_common::Result<Box<dyn TxnProgram + Send>> {
        match &self.family {
            Family::Tpcc { .. } => acc_tpcc::recovery::program_for_inflight(inf),
            Family::Smallbank(kit) => kit.program_for_inflight(inf),
        }
    }

    /// The shared interference tables (the engine's oracle).
    pub fn oracle(&self) -> SharedOracle {
        match &self.family {
            Family::Tpcc { sys, .. } => Arc::clone(&sys.tables) as _,
            Family::Smallbank(kit) => Arc::clone(&kit.tables) as _,
        }
    }
}

/// `tpcc-readmostly`'s input: 40 % order-status, 40 % stock-level, 20 %
/// new-order, every one on district 1.
fn read_mostly_input(gen: &InputGen, rng: &mut SeededRng) -> TxnInput {
    let x = rng.f64();
    if x < 0.4 {
        TxnInput::OrderStatus(OrderStatusInput {
            w_id: 1,
            d_id: 1,
            customer: gen.customer_selector(rng),
        })
    } else if x < 0.8 {
        TxnInput::StockLevel(StockLevelInput {
            w_id: 1,
            d_id: 1,
            threshold: rng.int_range(10, 20),
        })
    } else {
        let mut no = gen.new_order(rng);
        no.d_id = 1;
        TxnInput::NewOrder(no)
    }
}

impl Host for BenchHost {
    fn mix(&self) -> Mix {
        self.mix
    }

    fn program(&self, seed: u64) -> Box<dyn TxnProgram + Send> {
        let traced_at = self.tracer.is_on().then(|| self.tracer.clock().now());
        let mut rng = SeededRng::new(seed);
        let program = match &self.family {
            Family::Tpcc {
                gen,
                districts,
                read_mostly,
                ..
            } => {
                let input = if *read_mostly {
                    read_mostly_input(gen, &mut rng)
                } else {
                    gen.next_input(&mut rng)
                };
                acc_tpcc::txns::program_for(input, *districts)
            }
            Family::Smallbank(kit) => kit.next_program(&mut rng),
        };
        match traced_at {
            Some(at) => self.tracer.wrap(seed, at, program),
            None => program,
        }
    }

    fn cc(&self) -> &dyn ConcurrencyControl {
        match &self.family {
            Family::Tpcc { sys, .. } => &*sys.acc,
            Family::Smallbank(kit) => &*kit.acc,
        }
    }
}
