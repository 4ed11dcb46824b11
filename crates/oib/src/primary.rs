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
//! [`KeyCursor`] compared against each record's primary key). That is
//! precisely the behavioural delta §6.2 describes.
//!
//! The scan snapshots one leaf at a time under its share latch and
//! advances the key cursor to the leaf's last key before unlatching;
//! operations racing on the boundary key go to the side-file and are
//! reconciled at drain time (duplicate-insert rejection / missing-key
//! deletes), so no key is lost or duplicated.

use crate::build::IndexSpec;
use crate::engine::Db;
use crate::progress::{self, BuildProgress};
use crate::runtime::{IndexRuntime, IndexState, KeyCursor};
use crate::schema::{BuildAlgorithm, IndexDef, Record};
use mohan_btree::scan::for_each_leaf;
use mohan_btree::{BulkLoader, Node};
use mohan_common::pace::{Ticker, KEYS_PER_PACE};
use mohan_common::{Error, IndexEntry, IndexId, Result, Rid};
use mohan_sort::{ExternalSort, MergeCheckpoint};
use std::sync::Arc;

/// Build a secondary index with SF, scanning the (complete, unique)
/// primary index `primary` in key order.
pub fn build_secondary_via_primary(
    db: &Arc<Db>,
    primary: IndexId,
    spec: IndexSpec,
) -> Result<IndexId> {
    let prim = db.index(primary)?;
    if prim.state() != IndexState::Complete || !prim.def.unique {
        return Err(Error::Corruption(format!(
            "{primary} is not a complete unique primary index"
        )));
    }
    let table = prim.def.table;
    let def = IndexDef {
        id: db.next_index_id(),
        name: spec.name.clone(),
        table,
        unique: spec.unique,
        key_cols: spec.key_cols.clone(),
    };
    let mut rt = IndexRuntime::new(def, BuildAlgorithm::Sf, IndexState::SfBuilding, &db.cfg);
    rt.key_cursor = Some(KeyCursor::for_pk_cols(prim.def.key_cols.clone()));
    let idx = Arc::new(rt);
    crate::build::force_empty_tree(db, &idx)?;
    db.register_index(Arc::clone(&idx));
    let id = idx.def.id;

    let result = (|| -> Result<()> {
        // Scan the primary index leaf by leaf: snapshot the live
        // entries under the latch, advance the cursor to the leaf's
        // last key, then read the records and feed the sorter.
        let store = idx.run_store();
        let mut rf = mohan_sort::RunFormation::new(Arc::clone(&store), db.cfg.sort_workspace_keys);
        let mut seq = 0u64;
        let heap = db.table(table)?;
        let kc = idx.key_cursor.as_ref().expect("cursor installed");
        let mut leaves: Vec<Vec<(mohan_common::KeyValue, Rid)>> = Vec::new();
        // Two-stage per leaf: copy under latch + advance cursor...
        for_each_leaf(&prim.tree, |_page, node| {
            let mut batch = Vec::new();
            for le in node.leaf_entries() {
                if !le.pseudo_deleted {
                    batch.push((le.entry.key.clone(), le.entry.rid));
                }
            }
            // Advance the cursor to the leaf's *high fence* — the
            // upper bound of its whole key range — not just its last
            // existing key: a new primary key landing between the last
            // key and the fence belongs to this (already walked) leaf
            // and must count as visible.
            match node {
                Node::Leaf {
                    high_fence: Some(f),
                    ..
                } => kc.advance(f.key.clone()),
                _ => {
                    if let Some((last_key, _)) = batch.last() {
                        kc.advance(last_key.clone());
                    }
                }
            }
            if matches!(node, Node::Leaf { next: None, .. }) {
                // Rightmost leaf: finish the cursor *under its latch*.
                // A primary-entry insert above the walked key space
                // needs this leaf's X latch, so it either landed before
                // the walk (snapshotted) or will see the done flag and
                // go to the side-file.
                kc.finish();
            }
            leaves.push(batch);
            // ...then process the snapshot. (The callback runs under
            // the leaf latch; the heap reads below happen after
            // `for_each_leaf` moves on, which is safe because the
            // cursor already covers this leaf.)
        })?;
        // The key-space walk is complete: everything from here on —
        // including primary keys above the highest walked key, the
        // key-model analog of records on pages beyond the RID scan's
        // end bound — is the transactions' responsibility. Finish the
        // cursor *before* the deferred heap reads so operations racing
        // those reads go to the side-file, where drain reconciliation
        // (duplicate rejection, missing-key deletes) absorbs the
        // overlap.
        idx.finish_scan();
        let mut pacer = Ticker::new(KEYS_PER_PACE);
        for batch in leaves {
            for (_pk, rid) in batch {
                pacer.tick();
                match heap.read(rid) {
                    Ok(data) => {
                        let rec = Record::decode(&data)?;
                        let entry = idx.def.entry_of(&rec, rid)?;
                        seq += 1;
                        rf.push(entry, seq)?;
                    }
                    Err(Error::NotFound(_)) => {
                        // Deleted behind the cursor: the deleter's
                        // side-file entry (or the absence of the key)
                        // covers it.
                    }
                    Err(e) => return Err(e),
                }
                db.failpoints.hit("primary.scan.record")?;
            }
        }
        let runs = rf.finish()?;

        // Reduce + bottom-up load, same as the RID-based SF build.
        let ext = ExternalSort {
            store,
            workspace: db.cfg.sort_workspace_keys,
            fan_in: db.cfg.merge_fan_in,
            checkpoint_every: db.cfg.merge_checkpoint_every_keys,
        };
        let finals = ext.reduce_runs(runs, &mut |_| Ok(()))?;
        let merge = mohan_sort::Merge::resume(
            &ext.store,
            &MergeCheckpoint {
                counters: vec![0; finals.len()],
                inputs: finals,
                emitted: 0,
            },
        )?;
        let mut sorted: Vec<IndexEntry> = merge.collect();
        // The sorter ran on a sequence number, not the entry order of
        // the *secondary* key — entries are already key-ordered by the
        // sort itself; deduplicate exact repeats from boundary overlap.
        sorted.dedup();
        let mut loader = BulkLoader::new(&idx.tree)?;
        if idx.def.unique {
            for w in sorted.windows(2) {
                if w[0].key == w[1].key {
                    return Err(Error::UniqueViolation {
                        index: id,
                        existing: w[0].rid,
                    });
                }
            }
        }
        for e in sorted {
            pacer.tick();
            loader.append(e)?;
        }
        db.wal.flush_all();
        loader.finish(db.wal.flushed_lsn())?;
        progress::store(db, id, &BuildProgress::Draining { pos: 0 });
        crate::build::sf_drain_phase(db, &idx, 0, &crate::build::BuildOptions::default())
    })();

    match result {
        Ok(()) => Ok(id),
        Err(e) => {
            if !e.is_crash() {
                db.unregister_index(id);
                progress::clear(db, id);
            }
            Err(e)
        }
    }
}
