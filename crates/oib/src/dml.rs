//! Record DML with Figure-1 index maintenance, plus the §2.2.3
//! direct-maintenance key logic shared by transactions and the SF
//! drain.
//!
//! Every record operation follows the paper's execution model:
//!
//! 1. acquire the record X lock (strict two-phase locking; for
//!    inserts the lock follows the insert since the RID is new),
//! 2. X-latch the data page, modify the record, log the action
//!    *with the count of visible indexes*, stamp the page LSN,
//!    unlatch,
//! 3. only then touch the indexes — directly (NSF-visible or
//!    complete) or via the side-file (SF-visible) — which is exactly
//!    the latch-free window in which the paper's duplicate-key-insert
//!    and delete-key races live.

use crate::engine::{Db, Mechanism, Plan};
use crate::runtime::{IndexRuntime, IndexState};
use crate::schema::{IndexDef, Record};
use mohan_btree::{Edit, Found, InsertMode};
use mohan_common::{Error, IndexEntry, KeyValue, Lsn, Result, Rid, TableId, TxId};
use mohan_lock::{LockMode, LockName};
use mohan_wal::{LogPayload, RecKind, SideFileOp};
use std::sync::Arc;

/// One record change, `from → to`, at `rid` of `table`, as the images
/// the heap stores: an insert has no `from`, a delete no `to`, and no
/// change lacks both. Figure 1 maintains the indexes for a change;
/// Figure 2 compensates them for its [`Change::inverse`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Change<'a> {
    pub(crate) table: TableId,
    pub(crate) rid: Rid,
    pub(crate) from: Option<&'a [u8]>,
    pub(crate) to: Option<&'a [u8]>,
}

impl<'a> Change<'a> {
    /// The change `from → to` at `rid` of `table`.
    pub(crate) fn new(
        table: TableId,
        rid: Rid,
        from: Option<&'a [u8]>,
        to: Option<&'a [u8]>,
    ) -> Change<'a> {
        Change {
            table,
            rid,
            from,
            to,
        }
    }

    /// The change a heap log record carries, with its logged count of
    /// visible indexes; `None` for any other payload.
    pub(crate) fn logged(payload: &'a LogPayload) -> Option<(Change<'a>, u32)> {
        let (table, rid, from, to, count) = match payload {
            LogPayload::HeapInsert {
                table,
                rid,
                data,
                visible_indexes,
            } => (table, rid, None, Some(data), visible_indexes),
            LogPayload::HeapDelete {
                table,
                rid,
                old,
                visible_indexes,
            } => (table, rid, Some(old), None, visible_indexes),
            LogPayload::HeapUpdate {
                table,
                rid,
                old,
                new,
                visible_indexes,
            } => (table, rid, Some(old), Some(new), visible_indexes),
            _ => return None,
        };
        let change = Change::new(*table, *rid, from.map(Vec::as_slice), to.map(Vec::as_slice));
        Some((change, *count))
    }

    /// The heap log payload recording this change.
    pub(crate) fn payload(self, visible_indexes: u32) -> LogPayload {
        let (table, rid) = (self.table, self.rid);
        match (self.from, self.to) {
            (Some(old), Some(new)) => LogPayload::HeapUpdate {
                table,
                rid,
                old: old.to_vec(),
                new: new.to_vec(),
                visible_indexes,
            },
            (Some(old), None) => LogPayload::HeapDelete {
                table,
                rid,
                old: old.to_vec(),
                visible_indexes,
            },
            (None, data) => LogPayload::HeapInsert {
                table,
                rid,
                data: data.unwrap_or_default().to_vec(),
                visible_indexes,
            },
        }
    }

    /// The change that undoes this one.
    pub(crate) fn inverse(self) -> Change<'a> {
        Change {
            from: self.to,
            to: self.from,
            ..self
        }
    }

    /// The image the count of visible indexes is judged on: the
    /// before-image, or an insert's after-image.
    pub(crate) fn probe(self) -> &'a [u8] {
        self.from.or(self.to).unwrap_or_default()
    }
}

/// The key ops a change of the record at `rid` from image `from` to
/// image `to` makes in `def`'s index, in order: delete `from`'s entry,
/// insert `to`'s. Nothing when the two entries are equal.
pub(crate) fn key_ops(
    def: &IndexDef,
    from: Option<&[u8]>,
    to: Option<&[u8]>,
    rid: Rid,
) -> Result<impl Iterator<Item = SideFileOp>> {
    let entry = |image: Option<&[u8]>| -> Result<Option<IndexEntry>> {
        image
            .map(|data| Ok(IndexEntry::new(def.key_of_bytes(data)?, rid)))
            .transpose()
    };
    let (mut old, mut new) = (entry(from)?, entry(to)?);
    if old == new {
        (old, new) = (None, None);
    }
    let delete = old.map(|entry| SideFileOp {
        insert: false,
        entry,
    });
    let insert = new.map(|entry| SideFileOp {
        insert: true,
        entry,
    });
    Ok(delete.into_iter().chain(insert))
}

impl Db {
    // ----- record operations ------------------------------------------

    /// Insert a record.
    pub fn insert_record(&self, tx: TxId, table_id: TableId, rec: &Record) -> Result<Rid> {
        self.intend(tx, table_id)?;
        let data = rec.encode();
        let change = |rid| Change::new(table_id, rid, None, Some(&data));
        let mut plan = Vec::new();
        let rid = self
            .table(table_id)?
            .insert_with(&data, |rid| self.log_change(tx, change(rid), &mut plan))?;
        self.locks
            .lock(tx, LockName::Record(table_id, rid), LockMode::X)?;
        self.maintain(change(rid), &plan, |idx, mech, op| {
            self.apply_key_op(tx, idx, mech, op)
        })?;
        Ok(rid)
    }

    /// Delete a record, returning its old contents.
    pub fn delete_record(&self, tx: TxId, table_id: TableId, rid: Rid) -> Result<Record> {
        self.intend(tx, table_id)?;
        self.locks
            .lock(tx, LockName::Record(table_id, rid), LockMode::X)?;
        let mut plan = Vec::new();
        let old = self.table(table_id)?.delete_with(rid, |old| {
            self.log_change(tx, Change::new(table_id, rid, Some(old), None), &mut plan)
        })?;
        let change = Change::new(table_id, rid, Some(&old), None);
        self.maintain(change, &plan, |idx, mech, op| {
            self.apply_key_op(tx, idx, mech, op)
        })?;
        Record::decode(&old)
    }

    /// Update a record in place, returning its old contents.
    pub fn update_record(
        &self,
        tx: TxId,
        table_id: TableId,
        rid: Rid,
        new: &Record,
    ) -> Result<Record> {
        self.intend(tx, table_id)?;
        self.locks
            .lock(tx, LockName::Record(table_id, rid), LockMode::X)?;
        let new_data = new.encode();
        let mut plan = Vec::new();
        let old = self.table(table_id)?.update_with(rid, &new_data, |old| {
            let change = Change::new(table_id, rid, Some(old), Some(&new_data));
            self.log_change(tx, change, &mut plan)
        })?;
        let change = Change::new(table_id, rid, Some(&old), Some(&new_data));
        self.maintain(change, &plan, |idx, mech, op| {
            self.apply_key_op(tx, idx, mech, op)
        })?;
        Record::decode(&old)
    }

    /// Under the data-page latch: plan `change`'s index maintenance
    /// (Figure 1) and log it with the count of visible indexes.
    fn log_change(&self, tx: TxId, change: Change<'_>, plan: &mut Plan) -> Lsn {
        let count;
        (count, *plan) = self.plan(change, None);
        self.log(tx, RecKind::UndoRedo, change.payload(count))
            .unwrap_or(Lsn::NULL)
    }

    /// Read one record (physical read; no locking — sessions, tests
    /// and a follower's reads take it at quiescent points or accept
    /// uncommitted reads, as the IB itself does).
    pub fn read_record(&self, table_id: TableId, rid: Rid) -> Result<Record> {
        Record::decode(&self.table(table_id)?.read(rid)?)
    }

    /// Query a *complete* index: all RIDs carrying `key` (pseudo-
    /// deleted entries excluded).
    pub fn index_lookup(
        &self,
        index_id: mohan_common::IndexId,
        key: &KeyValue,
    ) -> Result<Vec<Rid>> {
        let idx = self.index(index_id)?;
        match idx.state() {
            IndexState::Complete => {}
            // Footnote 3: an NSF index is gradually available for the
            // key range the builder has already committed.
            IndexState::NsfBuilding
                if self.cfg.nsf_gradual_reads && idx.readable_below_watermark(key) => {}
            _ => return Err(Error::IndexNotReadable(index_id)),
        }
        Ok(idx
            .tree
            .lookup_key_group(key)?
            .into_iter()
            .filter(|(_, pseudo)| !pseudo)
            .map(|(rid, _)| rid)
            .collect())
    }

    /// Range query on a *complete* index: live entries with
    /// `lo ≤ key value ≤ hi` in key order, plus the scan's simulated
    /// leaf-I/O statistics under the chosen prefetch strategy
    /// (§2.3.1 — this is what clustering buys).
    pub fn index_range_lookup(
        &self,
        index_id: mohan_common::IndexId,
        lo: &KeyValue,
        hi: &KeyValue,
        strategy: mohan_btree::PrefetchStrategy,
    ) -> Result<(Vec<IndexEntry>, mohan_btree::RangeScanStats)> {
        let idx = self.index(index_id)?;
        if idx.state() != IndexState::Complete {
            return Err(Error::IndexNotReadable(index_id));
        }
        mohan_btree::scan::range_scan(&idx.tree, lo, hi, self.cfg.prefetch_pages, strategy)
    }

    /// Snapshot the whole table (test/verification helper; call at
    /// quiescent points).
    pub fn table_scan(&self, table_id: TableId) -> Result<Vec<(Rid, Record)>> {
        let table = self.table(table_id)?;
        let mut out = Vec::new();
        if table.num_pages() == 0 {
            return Ok(out);
        }
        let last = mohan_common::PageId(table.num_pages() - 1);
        table.scan_from(None, last, |rid, data| {
            out.push((rid, Record::decode(data)?));
            Ok(true)
        })?;
        Ok(out)
    }

    // ----- index maintenance (Figure 1, §2.2.3) -----------------------

    /// After the data-page latch: hand `emit` each key op of `change`
    /// with the mechanism `plan` names for its index, in creation
    /// order. A §6.2 key-cursor index under construction sees only the
    /// images whose primary key the walk has passed — the walk reads
    /// the others itself — so each key op is judged on the primary key
    /// of the image its entry came from, and an update that moves the
    /// primary key across the walk keeps the side it moved to even if
    /// the index key is unchanged. The judgment waits until the indexes
    /// before this one, the primary among them, are maintained: taken
    /// under the heap latch it could say "not passed" while the walk
    /// passes the key before the record's primary entry lands. Taken
    /// now, either the image is behind the walk, or the walk is still
    /// ahead of that key and will extract the state already placed in
    /// the primary. A key-cursor index registered after the plan is
    /// judged the same way, or maintained directly if its build has
    /// finished since.
    pub(crate) fn maintain(
        &self,
        change: Change<'_>,
        plan: &[(Arc<IndexRuntime>, Option<Mechanism>)],
        mut emit: impl FnMut(&Arc<IndexRuntime>, Mechanism, SideFileOp) -> Result<()>,
    ) -> Result<()> {
        let mut reach = |idx: &Arc<IndexRuntime>, mech: Mechanism| -> Result<()> {
            let judged = mech == Mechanism::SideFile && idx.key_cursor.is_some();
            let [from, to] = [change.from, change.to]
                .map(|image| image.filter(|image| !judged || idx.sf_visible(change.rid, image)));
            for op in key_ops(&idx.def, from, to, change.rid)? {
                emit(idx, mech, op)?;
            }
            Ok(())
        };
        for (idx, mech) in plan {
            if let Some(mech) = mech {
                reach(idx, *mech)?;
            }
        }
        for idx in self.indexes_of(change.table) {
            if idx.key_cursor.is_none() || plan.iter().any(|(p, _)| Arc::ptr_eq(p, &idx)) {
                continue;
            }
            match idx.state() {
                IndexState::SfBuilding => reach(&idx, Mechanism::SideFile)?,
                IndexState::Complete => reach(&idx, Mechanism::Direct)?,
                IndexState::NsfBuilding | IndexState::Cancelled => {}
            }
        }
        Ok(())
    }

    /// Route one key operation to an index through the planned
    /// mechanism.
    pub(crate) fn apply_key_op(
        &self,
        tx: TxId,
        idx: &Arc<IndexRuntime>,
        mech: Mechanism,
        op: SideFileOp,
    ) -> Result<()> {
        if mech == Mechanism::SideFile && self.append_side_file(tx, idx, &op)? {
            return Ok(());
        }
        if op.insert {
            self.insert_key(tx, idx, op.entry)
        } else {
            self.direct_delete_key(tx, idx, &op.entry)
        }
    }

    /// Append `op` to `idx`'s side-file, logged under `tx`, for a
    /// change or its compensation. False when the build finished
    /// between the latch-time plan and now: the caller maintains the
    /// index directly.
    pub(crate) fn append_side_file(
        &self,
        tx: TxId,
        idx: &Arc<IndexRuntime>,
        op: &SideFileOp,
    ) -> Result<bool> {
        idx.side_file.append_with(&self.wal, || {
            let payload = LogPayload::SideFileAppend {
                index: idx.def.id,
                op: op.clone(),
            };
            self.log(tx, RecKind::RedoOnly, payload)
        })
    }

    /// §2.2.3, "IB and Insert Operations" — the transaction side, with
    /// unique-key arbitration, one edit per attempt. The entry goes in
    /// live: inserted, or its pseudo-deleted flag cleared (the paper's
    /// example, steps 5-8). A live entry the IB inserted already gets an
    /// undo-only record, so a rollback still removes it (§2.1.1). A
    /// duplicate key value is taken over in place (step 9, "replace R
    /// with R1") if, under the leaf latch, it is still pseudo-deleted and
    /// a conditional instant S lock on its record is granted: §2.2.4's
    /// test for a committed-dead key. Otherwise wait (instant S) for the
    /// conflicting record's owner and try again; a live conflict seen
    /// again after that wait, whose record still has the key, is a
    /// violation.
    fn insert_key(&self, tx: TxId, idx: &Arc<IndexRuntime>, entry: IndexEntry) -> Result<()> {
        use LogPayload::{IndexInsert, IndexReactivate};
        let record = |rid| LockName::Record(idx.def.table, rid);
        let index = idx.def.id;
        let mut conflict = None;
        // One attempt, then up to eight after waiting on a conflict.
        for _ in 0..9 {
            if let Some(existing) = conflict {
                self.locks.instant(tx, record(existing), LockMode::S)?;
            }
            let decide = |found| match found {
                Found::Conflict { rid, pseudo: true }
                    if self.locks.try_instant(tx, record(rid), LockMode::S).is_ok() =>
                {
                    Edit::TakeOver
                }
                Found::Conflict { .. } => Edit::Keep,
                found => Edit::restore_live(found),
            };
            let log = |found, _| {
                let entry = entry.clone();
                let (kind, payload) = match found {
                    Found::Present { pseudo: false } => {
                        (RecKind::UndoOnly, IndexInsert { index, entry })
                    }
                    Found::Present { .. } => (RecKind::UndoRedo, IndexReactivate { index, entry }),
                    _ => (RecKind::UndoRedo, IndexInsert { index, entry }),
                };
                self.log(tx, kind, payload)
            };
            let edited = self.edit_index(idx, &entry, InsertMode::Transaction, decide, log)?;
            let (Found::Conflict { rid, pseudo }, Edit::Keep) = edited else {
                return Ok(());
            };
            if conflict.replace(rid) == Some(rid)
                && !pseudo
                && self.record_key(idx, rid)?.as_ref() == Some(&entry.key)
            {
                return Err(Error::UniqueViolation {
                    index,
                    existing: rid,
                });
            }
        }
        Err(Error::Corruption(format!(
            "unique arbitration did not converge on {index}"
        )))
    }

    /// §2.2.3, "IB and Delete Operations" — the deleter path: mark
    /// pseudo-deleted, or plant a tombstone if the key is missing.
    pub(crate) fn direct_delete_key(
        &self,
        tx: TxId,
        idx: &Arc<IndexRuntime>,
        entry: &IndexEntry,
    ) -> Result<()> {
        let log = |found, _| {
            let (index, entry) = (idx.def.id, entry.clone());
            let payload = if matches!(found, Found::Present { .. }) {
                LogPayload::IndexPseudoDelete { index, entry }
            } else {
                LogPayload::IndexInsertTombstone { index, entry }
            };
            self.log(tx, RecKind::UndoRedo, payload)
        };
        self.edit_index(idx, entry, InsertMode::Transaction, Edit::pseudo, log)?;
        Ok(())
    }

    /// Current key value of the record at `rid`, or `None` if the
    /// record no longer exists (used by unique arbitration to decide
    /// whether a conflicting index entry is committed-dead).
    pub(crate) fn record_key(&self, idx: &Arc<IndexRuntime>, rid: Rid) -> Result<Option<KeyValue>> {
        let table = self.table(idx.def.table)?;
        match table.read(rid) {
            Ok(data) => Ok(Some(idx.def.key_of_bytes(&data)?)),
            Err(Error::NotFound(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }
}
