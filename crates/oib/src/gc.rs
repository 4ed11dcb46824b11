//! Garbage collection of pseudo-deleted keys (§2.2.4).
//!
//! "Scan the leaf pages. For each page, latch the page and check if
//! there are any pseudo-deleted keys ... for each pseudo-deleted key,
//! request a conditional instant share lock on it. If the lock is
//! granted, then delete the key; otherwise, skip it since the key's
//! deletion is probably uncommitted."
//!
//! With data-only locking the lock on a key is the lock on its record,
//! so the conditional instant probe targets the record's lock name.
//! (The Commit_LSN shortcut of \[Moha90b\] is approximated by the lock
//! probe itself; see DESIGN.md.)
//!
//! Noting a leaf's pseudo-deleted keys and deleting them are two latch
//! holds, so the deletion checks again, in one [`BTree::edit`] per key:
//! under the leaf's X latch the key must still be pseudo-deleted *and*
//! the probe must be granted. A rollback between the two holds puts the
//! key back live (and lets its lock go); a second deleter may mark it
//! again, still holding the lock. Either way the key stays. A
//! conditional request never waits, so it may be made under a latch.
//!
//! [`BTree::edit`]: mohan_btree::BTree::edit

use crate::engine::Db;
use mohan_btree::scan::for_each_leaf_unlatched;
use mohan_btree::{Edit, Found, InsertMode};
use mohan_common::{IndexId, Result};
use mohan_lock::{LockMode, LockName};
use mohan_wal::{LogPayload, RecKind};
use std::sync::Arc;

/// Failpoint in [`garbage_collect`], after a leaf's pseudo-deleted keys
/// are noted and its latch is let go, before they are edited. Hit only
/// for a leaf that has some.
pub const GC_PROBE_FAILPOINT: &str = "gc.probe";

/// Outcome of one garbage-collection pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcStats {
    /// Entries examined.
    pub scanned: u64,
    /// Pseudo-deleted keys physically removed.
    pub removed: u64,
    /// Pseudo-deleted keys skipped (deletion probably uncommitted).
    pub skipped: u64,
}

/// One background GC pass over an index, one leaf at a time: under the
/// leaf's S latch note its pseudo-deleted keys and its right sibling,
/// then let the latch go, edit each noted key, and go on at the
/// sibling.
pub fn garbage_collect(db: &Arc<Db>, index: IndexId) -> Result<GcStats> {
    let idx = db.index(index)?;
    let mut stats = GcStats::default();
    let (mut removed, mut skipped) = (0, 0);
    let tx = db.begin();
    let result = for_each_leaf_unlatched(
        &idx.tree,
        |leaf| {
            stats.scanned += leaf.count() as u64;
            leaf.entries()
                .filter(|e| e.pseudo)
                .map(|e| e.to_entry())
                .collect::<Vec<_>>()
        },
        |pseudo| {
            if !pseudo.is_empty() {
                db.failpoints.hit(GC_PROBE_FAILPOINT)?;
            }
            for entry in pseudo {
                let lock = LockName::Record(idx.def.table, entry.rid);
                let decide = |found| match found {
                    Found::Present { pseudo: true }
                        if db.locks.try_instant(tx, lock, LockMode::S).is_ok() =>
                    {
                        Edit::Remove
                    }
                    _ => Edit::Keep,
                };
                let log = |_, _| {
                    let payload = LogPayload::IndexPhysicalDelete {
                        index,
                        entry: entry.clone(),
                        was_pseudo: true,
                    };
                    db.log(tx, RecKind::UndoRedo, payload)
                };
                match db.edit_index(&idx, &entry, InsertMode::Transaction, decide, log)? {
                    (_, Edit::Remove) => removed += 1,
                    (Found::Present { pseudo: true }, _) => skipped += 1,
                    // Reactivated or gone since it was noted.
                    _ => {}
                }
            }
            Ok(())
        },
    );
    stats.removed = removed;
    stats.skipped = skipped;
    match result {
        Ok(()) => {
            db.commit(tx)?;
            Ok(stats)
        }
        Err(e) => {
            let _ = db.rollback(tx);
            Err(e)
        }
    }
}
