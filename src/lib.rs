//! # Online index build without quiescing updates
//!
//! A complete, from-scratch Rust implementation of
//! **C. Mohan and Inderpal Narang, "Algorithms for Creating Indexes
//! for Very Large Tables Without Quiescing Updates", SIGMOD 1992** —
//! the NSF (No Side-File) and SF (Side-File) online index build
//! algorithms, the restartable external sort of §5, and the entire
//! ARIES-style engine substrate they assume: heap tables on slotted
//! pages, a latched B+-tree with pseudo-deleted keys, write-ahead
//! logging with analysis/redo/undo restart, and a lock manager.
//!
//! ## Quickstart
//!
//! ```
//! use online_index_build::prelude::*;
//!
//! let db = Db::new(EngineConfig::default());
//! let table = TableId(1);
//! db.create_table(table);
//!
//! // Populate.
//! let tx = db.begin();
//! for k in 0..1_000 {
//!     db.insert_record(tx, table, &Record::new(vec![k, k * 10])).unwrap();
//! }
//! db.commit(tx).unwrap();
//!
//! // Build an index online (SF: no quiesce at any point) while other
//! // transactions could keep updating the table.
//! let idx = build_index(
//!     &db,
//!     table,
//!     IndexSpec { name: "by_key".into(), key_cols: vec![0], unique: false },
//!     BuildAlgorithm::Sf,
//! )
//! .unwrap();
//!
//! // Query it.
//! let hits = db.index_lookup(idx, &KeyValue::from_i64(42)).unwrap();
//! assert_eq!(hits.len(), 1);
//!
//! // And prove it exact.
//! verify_index(&db, idx).unwrap();
//! ```
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`common`] | ids, keys, errors, failpoints, config |
//! | [`storage`] | latched pages, crash-aware page caches, slotted pages |
//! | [`wal`] | log records, log manager, analysis/redo/undo driver |
//! | [`lock`] | S/X/IX locks, conditional + instant requests |
//! | [`btree`] | B+-tree with pseudo-delete flags and bulk loading |
//! | [`sort`] | restartable external sort (§5) |
//! | [`heap`] | heap tables with WAL hooks and scan cursors |
//! | [`oib`] | **the paper's contribution**: engine + NSF + SF |
//! | [`wire`] | length-prefixed binary client/server protocol |
//! | [`server`] | reactor-driven TCP service: sessions, admission control, drain |
//! | [`client`] | blocking client with connection pooling |
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! the reproduced evaluation.

pub use mohan_btree as btree;
pub use mohan_client as client;
pub use mohan_common as common;
pub use mohan_heap as heap;
pub use mohan_lock as lock;
pub use mohan_oib as oib;
pub use mohan_server as server;
pub use mohan_sort as sort;
pub use mohan_storage as storage;
pub use mohan_wal as wal;
pub use mohan_wire as wire;

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use mohan_common::{
        EngineConfig, Error, IndexEntry, IndexId, KeyValue, Lsn, PageId, Result, Rid, TableId, TxId,
    };
    pub use mohan_oib::build::{build_index, build_indexes, drop_index, resume_build, IndexSpec};
    pub use mohan_oib::gc::garbage_collect;
    pub use mohan_oib::primary::build_secondary_via_primary;
    pub use mohan_oib::schema::{BuildAlgorithm, Record};
    pub use mohan_oib::verify::{verify_all, verify_index};
    pub use mohan_oib::{Db, IndexState, Session};
}

#[cfg(test)]
mod smoke {
    use crate::prelude::*;

    #[test]
    fn facade_quickstart_compiles_and_runs() {
        let db = Db::new(EngineConfig::small());
        let table = TableId(1);
        db.create_table(table);
        let tx = db.begin();
        for k in 0..100 {
            db.insert_record(tx, table, &Record::new(vec![k, k]))
                .unwrap();
        }
        db.commit(tx).unwrap();
        let idx = build_index(
            &db,
            table,
            IndexSpec {
                name: "q".into(),
                key_cols: vec![0],
                unique: true,
            },
            BuildAlgorithm::Nsf,
        )
        .unwrap();
        assert_eq!(
            db.index_lookup(idx, &KeyValue::from_i64(7)).unwrap().len(),
            1
        );
        verify_index(&db, idx).unwrap();
    }
}
