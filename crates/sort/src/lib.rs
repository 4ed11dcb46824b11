//! Restartable external sort (paper §5).
//!
//! Sorting the extracted keys is the longest-running phase of a large
//! index build, so the paper makes *both* phases of the sort
//! restartable:
//!
//! * **Sort phase** (§5.1, [`run_formation`]) — keys stream through a
//!   tournament-tree replacement selector into sorted runs.
//!   Periodically the workspace is drained, the runs are forced, and a
//!   checkpoint records the run inventory, the data-scan position fed
//!   so far, and the highest key written to the still-open last run.
//!   Restart truncates the last run, discards younger runs, and
//!   resumes the scan — appending to the same run when the first new
//!   key is no smaller than the checkpointed high key.
//! * **Merge phase** (§5.2, [`merge`]) — a loser tree merges N runs.
//!   Because each leaf is fed by exactly one input stream, counting
//!   the keys consumed per stream pinpoints the merge position; a
//!   checkpoint records that counter vector plus the output length, and
//!   restart repositions every cursor exactly, losing no key and
//!   emitting none twice.
//!
//! [`external`] composes the two into a full sorter with multi-pass
//! merging under a fan-in limit, plus a single resumable driver.
//! [`run_store`] is the crash-aware stable storage for runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod external;
pub mod item;
pub mod loser_tree;
pub mod merge;
pub mod run_formation;
pub mod run_store;

pub use checkpoint::{MergeCheckpoint, RunMeta, SortCheckpoint};
pub use external::{ExternalSort, MergePassCheckpoint};
pub use item::SortItem;
pub use loser_tree::LoserTree;
pub use merge::{Merge, RunCursor};
pub use run_formation::RunFormation;
pub use run_store::RunStore;
