//! Online index build without quiescing updates.
//!
//! This crate is the paper's primary contribution: the **NSF** (No
//! Side-File) and **SF** (Side-File) algorithms of C. Mohan and
//! Inderpal Narang, *"Algorithms for Creating Indexes for Very Large
//! Tables Without Quiescing Updates"*, SIGMOD 1992 — built on the full
//! engine the paper assumes (heap tables, a latched B+-tree with
//! pseudo-deleted keys, ARIES-style WAL recovery, a lock manager, and
//! the restartable sort of §5).
//!
//! The entry points:
//!
//! * [`engine::Db`] — the transactional engine: tables, indexes,
//!   record DML with Figure-1 index maintenance, rollback with
//!   Figure-2 compensation, crash simulation and restart recovery.
//! * [`build::build_indexes`] — create one or more indexes in one data
//!   scan (§6.2) with the chosen [`schema::BuildAlgorithm`] and
//!   [`BuildOptions`]:
//!   [`Offline`](schema::BuildAlgorithm::Offline) (quiesce everything;
//!   the baseline the paper wants to retire),
//!   [`Nsf`](schema::BuildAlgorithm::Nsf) or
//!   [`Sf`](schema::BuildAlgorithm::Sf). [`build::build_index`] builds
//!   one with the default options; [`build::spawn_build_indexes`]
//!   starts a build without waiting for it. Every build runs through
//!   one loop over its durable progress record
//!   ([`progress::BuildProgress`]): each phase runs from its record,
//!   and the next phase's record is stored before that phase starts.
//! * [`build::resume_build`] — continue an interrupted build after
//!   [`engine::Db::restart`] from its stored record — a fresh build is
//!   the same loop from the empty one — losing at most one checkpoint
//!   interval of work (§2.2.3, §3.2.4, §5).
//! * [`gc::garbage_collect`] — background cleanup of pseudo-deleted
//!   keys (§2.2.4).
//! * [`checkpointer`] — the background engine checkpoint that keeps
//!   the log, and restart, as long as the work since the last one.
//! * [`workers`] — the parked threads every index build runs on, so
//!   one build's freed pages serve the next.
//! * [`verify`] — the correctness oracle used by every experiment: the
//!   finished index must agree entry-for-entry with the table.
//! * [`primary`] — the §6.2 storage-model extension: building a
//!   secondary index by scanning a clustering primary index with a
//!   *current-key* cursor instead of Current-RID; its runs join the
//!   build loop at the reduce.
//! * [`session::Session`] — the per-connection statement API (one
//!   open transaction, auto-commit DML, rollback on drop) shared by
//!   the TCP server, the examples, and the tests.

#![warn(missing_docs)]

pub mod build;
pub mod checkpointer;
pub mod dml;
pub mod engine;
pub mod gc;
pub mod primary;
pub mod progress;
pub mod runtime;
pub mod schema;
pub mod session;
pub mod side_file;
pub mod verify;
pub mod workers;

pub use build::{BuildOptions, IndexSpec};
pub use engine::{Db, Quiesce};
pub use runtime::{IndexRuntime, IndexState};
pub use schema::{BuildAlgorithm, IndexDef, Record};
pub use session::Session;
