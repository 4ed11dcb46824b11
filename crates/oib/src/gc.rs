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

use crate::engine::Db;
use mohan_btree::scan::for_each_leaf_unlatched;
use mohan_common::{IndexId, Result};
use mohan_lock::{LockMode, LockName};
use mohan_wal::{LogPayload, RecKind};
use std::sync::Arc;

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
/// then let the latch go, probe and delete, and go on at the sibling.
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
            for entry in pseudo {
                match db.locks.try_instant(
                    tx,
                    LockName::Record(idx.def.table, entry.rid),
                    LockMode::S,
                ) {
                    Ok(()) => {
                        // The marking transaction has finished. A
                        // rollback would have reactivated the key, so a
                        // still-pseudo key is committed-dead: remove it.
                        if idx.tree.physical_delete(&entry)? {
                            db.log(
                                tx,
                                RecKind::UndoRedo,
                                LogPayload::IndexPhysicalDelete {
                                    index,
                                    entry,
                                    was_pseudo: true,
                                },
                            )?;
                            removed += 1;
                        }
                    }
                    Err(_) => {
                        skipped += 1;
                    }
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
