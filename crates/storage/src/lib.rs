//! Storage substrate: latched pages with an explicit volatile/durable
//! boundary.
//!
//! The paper assumes a buffer-managed, WAL-protected page store. This
//! crate provides the laptop-scale equivalent:
//!
//! * [`latch`] — share/exclusive page latches ("like a semaphore and
//!   very cheap", §1.1), with acquisition counters so benches can
//!   reproduce the paper's pathlength arguments.
//! * [`cache`] — a typed page cache, [`cache::PageCache`], that keeps a
//!   *volatile* in-memory image of every page plus a *durable* encoded
//!   image updated only by `force`. A simulated system failure drops
//!   all volatile state; restart decodes the durable images. This is
//!   the substitution for real disks documented in `DESIGN.md` §2.
//! * [`slotted`] — a byte-accurate slotted data-page layout for heap
//!   records.
//! * [`blob`] — a tiny forced-write key/value area used for
//!   checkpoint metadata (sort checkpoints, IB progress, catalog),
//!   standing in for the paper's "recording on stable storage".

#![warn(missing_docs)]

pub mod blob;
pub mod cache;
pub mod latch;
pub mod slotted;

pub use cache::{PageCache, PagePayload};
pub use latch::{ExclusiveGuard, ExclusiveRef, Latch, LatchStats, ShareGuard, ShareRef};
pub use slotted::SlottedPage;
