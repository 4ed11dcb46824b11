//! Typed log records, each enum declared with its codec: a
//! [`wire_enum!`] table whose row tags are frozen on the wire (append,
//! never renumber). [`crate::codec`] frames them into records.

use mohan_common::codec::u32_counted;
use mohan_common::{wire_enum, wire_struct, IndexEntry, IndexId, Lsn, Rid, TableId, TxId};

wire_enum! {
    /// Which halves of the undo/redo information a record carries (§1.1:
    /// undo-redo, redo-only and undo-only log records).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecKind {
        /// Normal forward-processing record: redone at restart, undone at
        /// rollback.
        UndoRedo = 0,
        /// Redone at restart, skipped by rollback (e.g. side-file appends,
        /// commit records).
        RedoOnly = 1,
        /// Skipped at restart redo, honoured by rollback. The paper's
        /// §2.1.1 "transaction logs an insert the IB already performed".
        UndoOnly = 2,
        /// Compensation log record written *by* undo; redo-only by
        /// construction and carries the address of the next record to undo
        /// so rollback never undoes the same update twice.
        Clr = 3 {
            /// Next record in the transaction's chain still needing undo.
            undo_next: Lsn,
        },
    }
}

/// One logical operation appended to a side-file (§3.1): `<operation,
/// key>` where operation is insert or delete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SideFileOp {
    /// `true` = key insert, `false` = key delete.
    pub insert: bool,
    /// The `<key value, RID>` entry affected.
    pub entry: IndexEntry,
}

wire_struct! { SideFileOp { insert, entry } }

impl SideFileOp {
    /// The inverse operation (used when rollback compensates a
    /// side-file entry by appending its opposite, §3.2.3).
    #[must_use]
    pub fn inverse(&self) -> SideFileOp {
        SideFileOp {
            insert: !self.insert,
            entry: self.entry.clone(),
        }
    }
}

wire_enum! {
    /// The logged operation. The tag byte opens the record and the
    /// fields follow its header (see [`crate::codec`]).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum LogPayload {
        /// Transaction start.
        TxBegin = 1,
        /// Transaction commit (forces the log).
        TxCommit = 2,
        /// Transaction chose to roll back; undo follows.
        TxAbort = 3,
        /// Rollback finished; transaction is gone.
        TxEnd = 4,

        /// Record inserted into a heap data page. `visible_indexes` is the
        /// count of indexes visible to this transaction at the time of the
        /// data-page update — the extra bookkeeping SF requires for
        /// rollback across index-visibility changes (§3.1.2, Figure 2).
        HeapInsert = 5 {
            /// Table updated.
            table: TableId,
            /// RID assigned to the record.
            rid: Rid,
            /// Record image (redo information).
            data: Vec<u8>,
            /// Count of indexes visible at update time.
            visible_indexes: u32,
        },
        /// Record deleted from a heap data page; `old` is the before-image
        /// (undo information).
        HeapDelete = 6 {
            /// Table updated.
            table: TableId,
            /// RID of the deleted record.
            rid: Rid,
            /// Before-image.
            old: Vec<u8>,
            /// Count of indexes visible at update time.
            visible_indexes: u32,
        },
        /// Record updated in place.
        HeapUpdate = 7 {
            /// Table updated.
            table: TableId,
            /// RID of the record.
            rid: Rid,
            /// Before-image.
            old: Vec<u8>,
            /// After-image.
            new: Vec<u8>,
            /// Count of indexes visible at update time.
            visible_indexes: u32,
        },

        /// Key inserted into an index (or, with [`RecKind::UndoOnly`],
        /// *found already inserted by the IB* and merely claimed for undo
        /// purposes, §2.1.1).
        IndexInsert = 8 {
            /// Index updated.
            index: IndexId,
            /// Entry inserted.
            entry: IndexEntry,
        },
        /// Existing key marked pseudo-deleted (§2.1.2).
        IndexPseudoDelete = 9 {
            /// Index updated.
            index: IndexId,
            /// Entry marked.
            entry: IndexEntry,
        },
        /// Deleter found no key and planted a pseudo-deleted tombstone so
        /// a racing IB insert will be rejected (§2.2.3, delete case 2).
        IndexInsertTombstone = 10 {
            /// Index updated.
            index: IndexId,
            /// Tombstone entry.
            entry: IndexEntry,
        },
        /// Pseudo-deleted key put back in the inserted state (an insert
        /// found its exact entry pseudo-deleted, or rollback of a delete).
        IndexReactivate = 11 {
            /// Index updated.
            index: IndexId,
            /// Entry reactivated.
            entry: IndexEntry,
        },
        /// Key physically removed (garbage collection of pseudo-deleted
        /// keys, or side-file delete application on a not-yet-readable
        /// index).
        IndexPhysicalDelete = 12 {
            /// Index updated.
            index: IndexId,
            /// Entry removed.
            entry: IndexEntry,
            /// Whether the removed entry was pseudo-deleted (undo must
            /// restore the exact state).
            was_pseudo: bool,
        },
        /// The NSF index builder's multi-key insert: one log record for all
        /// keys placed on one leaf ("one log record for multiple keys would
        /// save the pathlength of a log call for each key", §2.3.1).
        IndexBulkInsert = 13 {
            /// Index being built.
            index: IndexId,
            /// Entries inserted (all on one leaf).
            entries: Vec<IndexEntry> as u32_counted,
        },

        /// Compensation for an [`LogPayload::IndexBulkInsert`]: the index
        /// builder's uncommitted multi-key insert is removed wholesale
        /// when the IB transaction loses at restart.
        IndexBulkRemove = 14 {
            /// Index being built.
            index: IndexId,
            /// Entries removed.
            entries: Vec<IndexEntry> as u32_counted,
        },

        /// Append of `<operation, key>` to the side-file of an index under
        /// SF construction. Redo-only, and a no-op at redo: these records
        /// are the side-file, which the index builder's drain reads out of
        /// the log.
        SideFileAppend = 15 {
            /// Index being built.
            index: IndexId,
            /// The appended operation.
            op: SideFileOp,
        },

        /// Engine checkpoint marker (all page caches were forced when this
        /// was logged). `redo_start` is the LSN restart redo may begin
        /// *after*: the flushed watermark at checkpoint time.
        Checkpoint = 16 {
            /// Redo may start with LSN `redo_start + 1`.
            redo_start: Lsn,
        },

        /// Full catalog snapshot (the same bytes `persist_catalog` writes
        /// to the catalog blob). Redo-only, written under TxId(0) whenever
        /// the catalog changes, and a no-op on the primary's own restart —
        /// the blob store is authoritative there. A replica replaying a
        /// shipped log applies it instead: it is how index DDL (register /
        /// state flips / drop) crosses the wire.
        CatalogUpdate = 17 {
            /// Encoded catalog (see `Db::persist_catalog`).
            bytes: Vec<u8>,
        },
    }
}

impl LogPayload {
    /// True for payloads that change an index tree.
    #[must_use]
    pub fn is_index_op(&self) -> bool {
        matches!(
            self,
            LogPayload::IndexInsert { .. }
                | LogPayload::IndexPseudoDelete { .. }
                | LogPayload::IndexInsertTombstone { .. }
                | LogPayload::IndexReactivate { .. }
                | LogPayload::IndexPhysicalDelete { .. }
                | LogPayload::IndexBulkInsert { .. }
                | LogPayload::IndexBulkRemove { .. }
        )
    }
}

/// A sequenced log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// This record's log sequence number.
    pub lsn: Lsn,
    /// Transaction that wrote it (the index builder logs under its own
    /// transaction id).
    pub tx: TxId,
    /// Previous record of the same transaction ([`Lsn::NULL`] for the
    /// first).
    pub prev: Lsn,
    /// Undo/redo shape.
    pub kind: RecKind,
    /// The operation.
    pub payload: LogPayload,
}

impl LogRecord {
    /// Does restart redo re-apply this record?
    #[must_use]
    pub fn is_redoable(&self) -> bool {
        !matches!(self.kind, RecKind::UndoOnly)
    }

    /// Does rollback undo this record?
    #[must_use]
    pub fn is_undoable(&self) -> bool {
        matches!(self.kind, RecKind::UndoRedo | RecKind::UndoOnly)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mohan_common::KeyValue;

    fn entry() -> IndexEntry {
        IndexEntry::new(KeyValue::from_i64(1), Rid::new(1, 1))
    }

    #[test]
    fn kinds_partition_redo_undo() {
        let mk = |kind| LogRecord {
            lsn: Lsn(1),
            tx: TxId(1),
            prev: Lsn::NULL,
            kind,
            payload: LogPayload::TxBegin,
        };
        assert!(mk(RecKind::UndoRedo).is_redoable() && mk(RecKind::UndoRedo).is_undoable());
        assert!(mk(RecKind::RedoOnly).is_redoable() && !mk(RecKind::RedoOnly).is_undoable());
        assert!(!mk(RecKind::UndoOnly).is_redoable() && mk(RecKind::UndoOnly).is_undoable());
        let clr = mk(RecKind::Clr { undo_next: Lsn(5) });
        assert!(clr.is_redoable() && !clr.is_undoable());
    }

    #[test]
    fn side_file_op_inverse() {
        let op = SideFileOp {
            insert: true,
            entry: entry(),
        };
        let inv = op.inverse();
        assert!(!inv.insert);
        assert_eq!(inv.entry, op.entry);
        assert_eq!(inv.inverse(), op);
    }

    /// §2.3.1's "one log record for multiple keys": a ten-key bulk
    /// insert is bigger than one single-key record and smaller than
    /// ten of them.
    #[test]
    fn sizes_scale_with_content() {
        let size = |payload| {
            let mut out = Vec::new();
            crate::encode_record(
                &LogRecord {
                    lsn: Lsn(1),
                    tx: TxId(1),
                    prev: Lsn::NULL,
                    kind: RecKind::UndoRedo,
                    payload,
                },
                &mut out,
            );
            out.len()
        };
        let small = size(LogPayload::IndexInsert {
            index: IndexId(1),
            entry: entry(),
        });
        let bulk = size(LogPayload::IndexBulkInsert {
            index: IndexId(1),
            entries: vec![entry(); 10],
        });
        assert!(bulk < 10 * small);
        assert!(bulk > small);
    }

    #[test]
    fn index_op_classification() {
        assert!(LogPayload::IndexInsert {
            index: IndexId(1),
            entry: entry()
        }
        .is_index_op());
        assert!(!LogPayload::TxBegin.is_index_op());
        assert!(!LogPayload::SideFileAppend {
            index: IndexId(1),
            op: SideFileOp {
                insert: true,
                entry: entry()
            }
        }
        .is_index_op());
    }
}
