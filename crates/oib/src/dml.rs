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

use crate::engine::{Db, Mechanism};
use crate::runtime::{IndexRuntime, IndexState};
use crate::schema::{IndexDef, Record};
use mohan_btree::{InsertMode, InsertOutcome};
use mohan_common::{Error, IndexEntry, KeyValue, Lsn, Result, Rid, TableId, TxId};
use mohan_lock::{LockMode, LockName};
use mohan_wal::{LogPayload, RecKind, SideFileOp};
use std::sync::Arc;

/// Key operations an index must eventually reflect for the undo of a
/// record insert: delete the record's key.
pub(crate) fn key_ops_for_undo_of_insert(
    def: &IndexDef,
    data: &[u8],
    rid: Rid,
) -> Result<Vec<SideFileOp>> {
    let rec = Record::decode(data)?;
    Ok(vec![SideFileOp {
        insert: false,
        entry: def.entry_of(&rec, rid)?,
    }])
}

/// Undo of a record delete: re-insert the record's key.
pub(crate) fn key_ops_for_undo_of_delete(
    def: &IndexDef,
    old: &[u8],
    rid: Rid,
) -> Result<Vec<SideFileOp>> {
    let rec = Record::decode(old)?;
    Ok(vec![SideFileOp {
        insert: true,
        entry: def.entry_of(&rec, rid)?,
    }])
}

/// Undo of a record update: remove the new key, restore the old one
/// (only if the indexed columns actually changed).
pub(crate) fn key_ops_for_undo_of_update(
    def: &IndexDef,
    old: &[u8],
    new: &[u8],
    rid: Rid,
) -> Result<Vec<SideFileOp>> {
    let old_rec = Record::decode(old)?;
    let new_rec = Record::decode(new)?;
    let old_e = def.entry_of(&old_rec, rid)?;
    let new_e = def.entry_of(&new_rec, rid)?;
    if old_e == new_e {
        return Ok(vec![]);
    }
    Ok(vec![
        SideFileOp {
            insert: false,
            entry: new_e,
        },
        SideFileOp {
            insert: true,
            entry: old_e,
        },
    ])
}

impl Db {
    // ----- record operations ------------------------------------------

    /// Insert a record.
    pub fn insert_record(&self, tx: TxId, table_id: TableId, rec: &Record) -> Result<Rid> {
        self.ensure_active(tx)?;
        self.lock_table_ix(tx, table_id)?;
        let table = self.table(table_id)?;
        let data = rec.encode();
        let mut actions = Vec::new();
        let rid = table.insert_with(&data, |rid| {
            let (count, acts) = self.plan_forward(table_id, rid, &data);
            actions = acts;
            self.log(
                tx,
                RecKind::UndoRedo,
                LogPayload::HeapInsert {
                    table: table_id,
                    rid,
                    data: data.clone(),
                    visible_indexes: count,
                },
            )
            .unwrap_or(Lsn::NULL)
        })?;
        self.locks
            .lock(tx, LockName::Record(table_id, rid), LockMode::X)?;
        for (idx, mech) in &actions {
            let entry = idx.def.entry_of(rec, rid)?;
            self.apply_key_op(
                tx,
                idx,
                *mech,
                SideFileOp {
                    insert: true,
                    entry,
                },
            )?;
        }
        self.recheck_key_cursors(tx, table_id, rid, rec, &actions, true)?;
        Ok(rid)
    }

    /// Delete a record, returning its old contents.
    pub fn delete_record(&self, tx: TxId, table_id: TableId, rid: Rid) -> Result<Record> {
        self.ensure_active(tx)?;
        self.lock_table_ix(tx, table_id)?;
        self.locks
            .lock(tx, LockName::Record(table_id, rid), LockMode::X)?;
        let table = self.table(table_id)?;
        let mut actions = Vec::new();
        let old = table.delete_with(rid, |old| {
            let (count, acts) = self.plan_forward(table_id, rid, old);
            actions = acts;
            self.log(
                tx,
                RecKind::UndoRedo,
                LogPayload::HeapDelete {
                    table: table_id,
                    rid,
                    old: old.to_vec(),
                    visible_indexes: count,
                },
            )
            .unwrap_or(Lsn::NULL)
        })?;
        self.note_hold(tx, table_id, rid);
        let old_rec = Record::decode(&old)?;
        for (idx, mech) in &actions {
            let entry = idx.def.entry_of(&old_rec, rid)?;
            self.apply_key_op(
                tx,
                idx,
                *mech,
                SideFileOp {
                    insert: false,
                    entry,
                },
            )?;
        }
        self.recheck_key_cursors(tx, table_id, rid, &old_rec, &actions, false)?;
        Ok(old_rec)
    }

    /// Update a record in place, returning its old contents.
    pub fn update_record(
        &self,
        tx: TxId,
        table_id: TableId,
        rid: Rid,
        new: &Record,
    ) -> Result<Record> {
        self.ensure_active(tx)?;
        self.lock_table_ix(tx, table_id)?;
        self.locks
            .lock(tx, LockName::Record(table_id, rid), LockMode::X)?;
        let table = self.table(table_id)?;
        let new_data = new.encode();
        let mut actions = Vec::new();
        let old = table.update_with(rid, &new_data, |old| {
            let (count, acts) = self.plan_forward(table_id, rid, old);
            actions = acts;
            self.log(
                tx,
                RecKind::UndoRedo,
                LogPayload::HeapUpdate {
                    table: table_id,
                    rid,
                    old: old.to_vec(),
                    new: new_data.clone(),
                    visible_indexes: count,
                },
            )
            .unwrap_or(Lsn::NULL)
        })?;
        self.note_hold(tx, table_id, rid);
        let old_rec = Record::decode(&old)?;
        for (idx, mech) in actions {
            let old_e = idx.def.entry_of(&old_rec, rid)?;
            let new_e = idx.def.entry_of(new, rid)?;
            if old_e == new_e {
                continue;
            }
            self.apply_key_op(
                tx,
                &idx,
                mech,
                SideFileOp {
                    insert: false,
                    entry: old_e,
                },
            )?;
            self.apply_key_op(
                tx,
                &idx,
                mech,
                SideFileOp {
                    insert: true,
                    entry: new_e,
                },
            )?;
        }
        Ok(old_rec)
    }

    /// Read one record (physical read; no locking — the experiments
    /// read at quiescent points or accept uncommitted reads, as the IB
    /// itself does).
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

    /// Route one key operation to an index through the planned
    /// mechanism.
    pub(crate) fn apply_key_op(
        &self,
        tx: TxId,
        idx: &Arc<IndexRuntime>,
        mech: Mechanism,
        op: SideFileOp,
    ) -> Result<()> {
        match mech {
            Mechanism::SideFile => {
                let mut log_err = None;
                let appended = idx.side_file.append_with(op.clone(), |op| {
                    match self.log(
                        tx,
                        RecKind::RedoOnly,
                        LogPayload::SideFileAppend {
                            index: idx.def.id,
                            op: op.clone(),
                        },
                    ) {
                        Ok(lsn) => lsn,
                        Err(e) => {
                            log_err = Some(e);
                            Lsn::NULL
                        }
                    }
                });
                if let Some(e) = log_err {
                    return Err(e);
                }
                match appended {
                    crate::side_file::Append::Appended(_) => Ok(()),
                    crate::side_file::Append::BuildDone => {
                        // The build finished between the latch-time
                        // plan and now: maintain the index directly.
                        self.apply_key_op(tx, idx, Mechanism::Direct, op)
                    }
                }
            }
            Mechanism::Direct => {
                if op.insert {
                    self.direct_insert_key(tx, idx, op.entry)
                } else {
                    self.direct_delete_key(tx, idx, &op.entry)
                }
            }
        }
    }

    /// §2.2.3, "IB and Insert Operations" — the transaction side.
    pub(crate) fn direct_insert_key(
        &self,
        tx: TxId,
        idx: &Arc<IndexRuntime>,
        entry: IndexEntry,
    ) -> Result<()> {
        match idx.tree.insert(entry.clone(), InsertMode::Transaction)? {
            InsertOutcome::Inserted => {
                self.log(
                    tx,
                    RecKind::UndoRedo,
                    LogPayload::IndexInsert {
                        index: idx.def.id,
                        entry,
                    },
                )?;
                Ok(())
            }
            InsertOutcome::DuplicateEntry { pseudo: false } => {
                // The IB inserted this key already. Write an undo-only
                // record so a rollback will still remove it (§2.1.1).
                self.log(
                    tx,
                    RecKind::UndoOnly,
                    LogPayload::IndexInsert {
                        index: idx.def.id,
                        entry,
                    },
                )?;
                Ok(())
            }
            InsertOutcome::DuplicateEntry { pseudo: true } => {
                // Exact entry exists pseudo-deleted (paper's example,
                // steps 5-8): reset the flag.
                idx.tree.set_pseudo(&entry, false)?;
                self.log(
                    tx,
                    RecKind::UndoRedo,
                    LogPayload::IndexReactivate {
                        index: idx.def.id,
                        entry,
                    },
                )?;
                Ok(())
            }
            InsertOutcome::DuplicateKeyValue {
                existing,
                existing_pseudo,
            } => self.resolve_unique_insert(tx, idx, entry, existing, existing_pseudo),
        }
    }

    /// Unique-key arbitration (§2.2.3): wait for the conflicting
    /// record's owner, re-check whether the duplicate key value still
    /// exists, and either raise a violation, take over a committed-dead
    /// pseudo entry (paper's step 9 "replace R with R1"), or retry.
    fn resolve_unique_insert(
        &self,
        tx: TxId,
        idx: &Arc<IndexRuntime>,
        entry: IndexEntry,
        mut existing: Rid,
        _existing_pseudo: bool,
    ) -> Result<()> {
        for _ in 0..8 {
            // Wait (instant S) for the conflicting record's owner to
            // commit or roll back.
            self.locks
                .instant(tx, LockName::Record(idx.def.table, existing), LockMode::S)?;
            match idx.tree.insert(entry.clone(), InsertMode::Transaction)? {
                InsertOutcome::Inserted => {
                    self.log(
                        tx,
                        RecKind::UndoRedo,
                        LogPayload::IndexInsert {
                            index: idx.def.id,
                            entry,
                        },
                    )?;
                    return Ok(());
                }
                InsertOutcome::DuplicateEntry { pseudo: false } => {
                    self.log(
                        tx,
                        RecKind::UndoOnly,
                        LogPayload::IndexInsert {
                            index: idx.def.id,
                            entry,
                        },
                    )?;
                    return Ok(());
                }
                InsertOutcome::DuplicateEntry { pseudo: true } => {
                    idx.tree.set_pseudo(&entry, false)?;
                    self.log(
                        tx,
                        RecKind::UndoRedo,
                        LogPayload::IndexReactivate {
                            index: idx.def.id,
                            entry,
                        },
                    )?;
                    return Ok(());
                }
                InsertOutcome::DuplicateKeyValue {
                    existing: e2,
                    existing_pseudo: p2,
                } => {
                    let conflict_key = self.record_key(idx, e2)?;
                    let still_conflicts = conflict_key.as_ref() == Some(&entry.key);
                    if still_conflicts && !p2 {
                        return Err(Error::UniqueViolation {
                            index: idx.def.id,
                            existing: e2,
                        });
                    }
                    if !still_conflicts {
                        // Committed-dead conflict: take the entry over
                        // in place (reset flag, replace RID).
                        if idx.tree.unique_replace(&entry.key, e2, entry.rid)? {
                            self.log(
                                tx,
                                RecKind::UndoRedo,
                                LogPayload::IndexInsert {
                                    index: idx.def.id,
                                    entry,
                                },
                            )?;
                            return Ok(());
                        }
                    }
                    // Entry pseudo + record alive (a racing deleter is
                    // mid-flight), or the replace raced away: retry.
                    existing = e2;
                }
            }
        }
        Err(Error::Corruption(format!(
            "unique arbitration did not converge on {}",
            idx.def.id
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
        let found = idx.tree.pseudo_delete_or_tombstone(entry)?;
        let payload = if found {
            LogPayload::IndexPseudoDelete {
                index: idx.def.id,
                entry: entry.clone(),
            }
        } else {
            LogPayload::IndexInsertTombstone {
                index: idx.def.id,
                entry: entry.clone(),
            }
        };
        self.log(tx, RecKind::UndoRedo, payload)?;
        Ok(())
    }

    /// The key-cursor (primary-model) visibility decision is temporal:
    /// a plan taken under the heap latch can say "invisible" while the
    /// primary-index walk passes the key's position before the
    /// record's primary entry lands. Because the (complete) primary
    /// index is maintained *before* any in-build key-cursor secondary
    /// (creation order), rechecking after maintenance closes the race:
    /// either the op is visible now (append it), or the walk is still
    /// behind the key's position and will extract the already-placed
    /// primary state.
    fn recheck_key_cursors(
        &self,
        tx: TxId,
        table: TableId,
        rid: Rid,
        rec: &Record,
        applied: &[(Arc<IndexRuntime>, Mechanism)],
        insert: bool,
    ) -> Result<()> {
        for idx in self.indexes_of(table) {
            if idx.key_cursor.is_none() || applied.iter().any(|(a, _)| a.def.id == idx.def.id) {
                continue;
            }
            match idx.state() {
                IndexState::SfBuilding => {
                    let kc = idx.key_cursor.as_ref().expect("checked");
                    let pk = mohan_common::KeyValue::from_i64s(
                        &kc.pk_cols
                            .iter()
                            .map(|&c| rec.0[usize::from(c)])
                            .collect::<Vec<_>>(),
                    );
                    if idx.sf_visible(rid, Some(&pk)) {
                        let entry = idx.def.entry_of(rec, rid)?;
                        self.apply_key_op(
                            tx,
                            &idx,
                            Mechanism::SideFile,
                            SideFileOp { insert, entry },
                        )?;
                    }
                    // Still invisible: the walk is provably behind the
                    // key's position and will extract the current
                    // primary state.
                }
                IndexState::Complete => {
                    // The build finished between the latch-time plan
                    // and now: the operation predates completion but
                    // was routed nowhere. Maintain directly; duplicate
                    // rejection / tombstones make this idempotent
                    // against whatever the walk extracted.
                    let entry = idx.def.entry_of(rec, rid)?;
                    self.apply_key_op(tx, &idx, Mechanism::Direct, SideFileOp { insert, entry })?;
                }
                IndexState::NsfBuilding => {}
            }
        }
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
