//! §6.2 storage-model extension: building a secondary index by
//! scanning the clustering *primary index* instead of the heap.
//!
//! "In SF, in the place of Current-RID, we would use the current-key
//! as the scan position in the primary index. Since the primary key
//! has to be unique, this position also would be a unique one in the
//! index."
//!
//! Substitution note (see DESIGN.md): record payloads still live in
//! heap pages — what this module changes is the *scan order* (primary
//! key order via the index leaf chain) and the *visibility rule* (a
//! [`KeyCursor`](crate::runtime::KeyCursor) compared against each
//! record's primary key). That is precisely the behavioural delta §6.2
//! describes.
//!
//! The scan snapshots one leaf at a time under its share latch and
//! advances the key cursor to the leaf's high fence before unlatching,
//! then reads that leaf's records and moves on; operations racing on
//! the boundary key go to the side-file and are reconciled at drain time
//! (duplicate-insert rejection / missing-key deletes), so no key is lost
//! or duplicated.

use crate::build::{build_now, BuildOptions, IndexSpec};
use crate::engine::Db;
use crate::runtime::{IndexRuntime, IndexState};
use crate::schema::{BuildAlgorithm, Record};
use mohan_btree::scan::for_each_leaf_unlatched;
use mohan_common::pace::{Ticker, KEYS_PER_PACE};
use mohan_common::{Error, IndexId, KeyValue, Result};
use mohan_sort::RunFormation;
use std::sync::Arc;

/// Build a secondary index with SF, scanning the (complete, unique)
/// primary index `primary` in key order. Like every build it runs on
/// a build worker while the caller waits, registers before its walk,
/// stores its options and is cancelled if it fails. Only the walk is
/// this module's: its runs go through the RID-based SF build's reduce,
/// load and drain. A crashed walk leaves no record, so its resume
/// starts from the empty one: a heap scan.
pub fn build_secondary_via_primary(
    db: &Arc<Db>,
    primary: IndexId,
    spec: IndexSpec,
) -> Result<IndexId> {
    db.on_build_worker(move |db| {
        let prim = db.index(primary)?;
        if prim.state() != IndexState::Complete || !prim.def.unique {
            return Err(Error::Corruption(format!(
                "{primary} is not a complete unique primary index"
            )));
        }
        let (table, opts) = (prim.def.table, BuildOptions::default());
        let ids = build_now(
            db,
            table,
            &[spec],
            BuildAlgorithm::Sf,
            &opts,
            |_| {},
            Some(&prim),
        )?;
        Ok(ids[0])
    })
}

/// Walk the primary index `prim` leaf by leaf into `idx`'s sorter:
/// snapshot the live entries under the latch, advance `idx`'s key
/// cursor past the leaf, then let the latch go and read the records.
/// Returns the sorted runs.
pub(crate) fn walk(db: &Db, prim: &IndexRuntime, idx: &IndexRuntime) -> Result<Vec<u64>> {
    let mut rf = RunFormation::new(Arc::clone(&idx.sort_store), db.cfg.sort_workspace_keys);
    let mut seq = 0u64;
    let heap = db.table(idx.def.table)?;
    let kc = idx.key_cursor.as_ref().expect("set at registration");
    let mut pacer = Ticker::new(KEYS_PER_PACE);
    for_each_leaf_unlatched(
        &prim.tree,
        |leaf| {
            // Advance the cursor to the leaf's *high fence* — the
            // upper bound of its whole key range — not just its last
            // existing key: a new primary key landing between the
            // last key and the fence belongs to this (already
            // walked) leaf and must count as visible.
            match (leaf.high_fence(), leaf.count()) {
                (Some(f), _) => kc.advance(KeyValue(f.key.to_vec())),
                (None, 0) => {}
                (None, n) => kc.advance(KeyValue(leaf.entry(n - 1).key.to_vec())),
            }
            if leaf.next().is_none() {
                // Rightmost leaf: the key-space walk is complete,
                // and it ends *under this leaf's latch*. A
                // primary-entry insert above the walked key space
                // needs this leaf's X latch, so it either landed
                // before the walk (snapshotted) or sees the scan
                // finished and goes to the side-file. From here on
                // everything — including primary keys above the
                // highest walked key, the key-model analog of
                // records on pages beyond the RID scan's end bound —
                // is the transactions' responsibility.
                idx.finish_scan();
            }
            leaf.entries()
                .filter(|e| !e.pseudo)
                .map(|e| e.rid)
                .collect::<Vec<_>>()
        },
        |rids| {
            // The cursor covers this leaf, so operations racing
            // these reads go to the side-file, where drain
            // reconciliation absorbs the overlap. A row whose
            // primary key moved ahead of the walk since the
            // snapshot is not read here: the walk reads it when it
            // gets there, and the side-file hears only of images
            // behind the walk (`Db::maintain`).
            for rid in rids {
                pacer.tick();
                match heap.read(rid) {
                    Ok(data) if idx.sf_visible(rid, &data) => {
                        let rec = Record::decode(&data)?;
                        seq += 1;
                        rf.push(idx.def.entry_of(&rec, rid)?, seq)?;
                    }
                    Ok(_) => {}
                    Err(Error::NotFound(_)) => {
                        // Deleted behind the cursor: the deleter's
                        // side-file entry (or the absence of the
                        // key) covers it.
                    }
                    Err(e) => return Err(e),
                }
                db.failpoints.hit("primary.scan.record")?;
            }
            Ok(())
        },
    )?;
    // The sorter ran on a sequence number, not a RID; a RID read
    // twice (reused behind the walk) is an exact repeat the load
    // drops.
    rf.finish()
}
