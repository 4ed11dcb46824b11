//! The replication experiments, E18, E19 and E22: each prints a table
//! of what a follower does under a loaded primary. The paper's own
//! claims are asserted tests (`tests/paper_claims.rs`); the mapping to
//! paper sections lives in `DESIGN.md` §3 and the expected shapes in
//! `EXPERIMENTS.md`. [`EXPERIMENTS`] is the list.

pub mod replication;

use crate::report::Table;
use std::sync::atomic::{AtomicI64, Ordering};

/// Runs one experiment; `quick` shrinks the workloads for CI-speed
/// runs.
pub type Experiment = fn(bool) -> Vec<Table>;

/// Every experiment, in run order, by id.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("e18", replication::e18_replication),
    ("e19", replication::e19_follower_reads),
    ("e22", replication::e22_fanout),
];

/// Run one experiment by id; `None` for an id not in [`EXPERIMENTS`].
pub fn run(id: &str, quick: bool) -> Option<Vec<Table>> {
    EXPERIMENTS
        .iter()
        .find(|(name, _)| *name == id)
        .map(|(_, f)| f(quick))
}

/// Global workload shrink factor for smoke runs (CI). 1 = no shrink.
static SIZE_DIVISOR: AtomicI64 = AtomicI64::new(1);

/// Shrink every workload size `scaled` returns by `divisor` (floored at 1k
/// rows). Used by the runner's `--smoke` flag so CI can exercise the
/// full code path of an experiment in seconds.
pub fn set_size_divisor(divisor: i64) {
    SIZE_DIVISOR.store(divisor.max(1), Ordering::Relaxed);
}

/// Apply the smoke divisor to a workload size.
pub(crate) fn scaled(n: i64) -> i64 {
    (n / SIZE_DIVISOR.load(Ordering::Relaxed)).max(1_000)
}
