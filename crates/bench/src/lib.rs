//! Benchmark harness: workload generation and churn driving for
//! `perfbench`, the Criterion benches and the root test suites, and
//! the replication experiments E18, E19 and E22 with their table
//! reporting. The paper's own claims are asserted in
//! `tests/paper_claims.rs` (see `DESIGN.md` §3 and `EXPERIMENTS.md`).

pub mod experiments;
pub mod report;
pub mod workload;

pub use report::Table;
pub use workload::{seed_table, start_churn, ChurnConfig, ChurnHandle, ChurnStats};
