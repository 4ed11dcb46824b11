//! B+-tree index with the paper's key-state machinery.
//!
//! Keys are `<key value, RID>` entries. Every key carries a 1-bit
//! **pseudo-deleted** flag (§2.1.2): a deleter marks the key rather
//! than removing it, leaving a trail that makes the index builder's
//! later insert of the same key rejectable. The tree supports:
//!
//! * one mutation, [`BTree::edit`]: decide on what the leaf holds, change
//!   it and log the change under one leaf latch, stamping the record's
//!   LSN on the leaf;
//! * duplicate-entry rejection (exact `<key value, RID>` match for a
//!   nonunique index; key-value match for a unique one, §2.2.3);
//! * the NSF builder's **specialized split** — move only the keys
//!   *higher* than the one being inserted, mimicking a bottom-up build
//!   (§2.3.1);
//! * a **remembered-path** insert hint so the builder avoids
//!   root-to-leaf traversals on consecutive keys (§2.2.3);
//! * a checkpointable **bottom-up bulk loader** for SF, whose restart
//!   resets the index so "the keys higher than the checkpointed key
//!   disappear" (§3.2.4);
//! * a leaf cursor every reader streams through, structural
//!   verification and the clustering statistics the E4 test asserts on.
//!
//! Pages are bytes ([`node`]): a slotted layout of `page_size` bytes in
//! one shared buffer, which the cache frame and the durable image both
//! hold until the page's next change copies it.
//!
//! Latching: descents crab from an anchor page (which names the root)
//! downward — share mode for reads, exclusive for updates, releasing
//! ancestors as soon as the child cannot split. No transaction locks
//! are taken here; that is the engine's business.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bulk;
pub mod node;
pub mod scan;
pub mod tree;

pub use bulk::{BulkCheckpoint, BulkLoader};
pub use node::{EntryRef, Kind, Node};
pub use scan::{ClusteringStats, LeafCursor, PrefetchStrategy, RangeScanStats};
pub use tree::{unlogged, BTree, BTreeConfig, BTreeStats, Edit, Found, InsertMode, InsertOutcome};
