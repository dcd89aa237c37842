//! Workload families beyond TPC-C, built entirely on the *inferred*
//! interference tables.
//!
//! TPC-C's decomposition (`acc-tpcc`) was analyzed by hand, with the
//! automatic inference (`acc_core::infer`) differential-tested against it.
//! The two families here invert that relationship: neither has a hand table
//! at all. Each declares honest step footprints and assertion-template read
//! footprints, runs [`acc_core::Inference`], and installs whatever matrix
//! comes out — the bring-your-own-workload path a user of the system would
//! take.
//!
//! * [`smallbank`] — a smallbank-style account/transfer mix: seven
//!   transaction types over four tables, conservation-of-money invariant,
//!   two multi-step types with compensation.
//! * [`saga`] — an order-fulfilment saga with up to four reservation legs
//!   before payment and shipping; crashing late in a long saga exercises
//!   compensation chains up to six completed steps deep.
//! * [`torture`] — the crash-torture harness every family runs through
//!   (TPC-C's kit lives in `acc-tpcc`): a [`WorkloadKit`] crashed at every
//!   point a [`CutSource`] enumerates — WAL appends, fsync boundaries, live
//!   [`install_oracle`](acc_txn::SharedDb::install_oracle) switchovers, or
//!   WAL-shipping boundaries — with recovery, resumed compensation and the
//!   family's own consistency audit at every point.

pub mod saga;
pub mod smallbank;
pub mod torture;

pub use torture::{run_torture, CutSource, TortureConfig, TortureReport, WorkloadKit};
