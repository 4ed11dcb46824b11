//! Bottom-up bulk loading with checkpoint/reset (SF's build phase,
//! §3.1, §3.2.4).
//!
//! "In a bottom-up index build, the keys are sorted in key sequence
//! and then inserted into the first index page which acts as a root as
//! well as a leaf ... the new keys are always added to the rightmost
//! leaf in the tree without a tree traversal from the root and without
//! the cost of latching pages and comparing keys" (§2.3.1). Pages are
//! allocated sequentially, so the finished tree is perfectly
//! clustered.
//!
//! Checkpoints follow §3.2.4 exactly: all dirty index pages are
//! forced, then the highest key and the page-ids of the rightmost
//! branch go to stable storage. After a crash, [`BulkLoader::resume`]
//! "resets the index pages in such a way that the keys higher than the
//! checkpointed key disappear from the index" and marks pages
//! allocated after the checkpoint deallocated.

use crate::node::{Kind, Node};
use crate::tree::BTree;
use mohan_common::codec::u32_counted;
use mohan_common::{wire_struct, Error, IndexEntry, PageId, Result, WriteAhead};

/// Stable-storage record of a bulk load's progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BulkCheckpoint {
    /// Highest key inserted so far (`None` = nothing loaded yet).
    pub highest: Option<IndexEntry>,
    /// Entries loaded so far.
    pub count: u64,
    /// Page allocation high-water mark at the checkpoint.
    pub allocated: u32,
    /// Root page at the checkpoint.
    pub root: PageId,
    /// Tree height at the checkpoint.
    pub height: u32,
    /// Rightmost branch, root level first, leaf last.
    pub right_path: Vec<PageId>,
}

wire_struct! {
    BulkCheckpoint { highest, count, allocated, root, height, right_path as u32_counted }
}

/// The bottom-up loader. While it runs it must be the tree's only
/// writer (SF guarantees this: transactions go to the side-file).
pub struct BulkLoader<'t> {
    tree: &'t BTree,
    /// Rightmost branch, root level first, leaf last.
    right_path: Vec<PageId>,
    last: Option<IndexEntry>,
    count: u64,
}

impl<'t> BulkLoader<'t> {
    /// Start loading into an *empty* tree.
    pub fn new(tree: &'t BTree) -> Result<BulkLoader<'t>> {
        let (root, height) = tree.root()?;
        if height != 1 || tree.cache.frame(root)?.latch.share().payload.count() != 0 {
            return Err(Error::Corruption("bulk load requires an empty tree".into()));
        }
        Ok(BulkLoader {
            tree,
            right_path: vec![root],
            last: None,
            count: 0,
        })
    }

    /// Append one entry; must be strictly greater than the previous.
    pub fn append(&mut self, entry: IndexEntry) -> Result<()> {
        let _structure = self.tree.structure_shared();
        if let Some(last) = &self.last {
            if entry <= *last {
                return Err(Error::Corruption(format!(
                    "bulk input not ascending: {entry:?} after {last:?}"
                )));
            }
        }
        self.tree.check_entry_size(&entry)?;
        let page_size = self.tree.config().page_size;
        let frame = self.tree.cache.frame(self.leaf())?;
        let mut g = frame.latch.exclusive();
        let leaf = &mut g.payload;
        let n = leaf.count();
        if leaf.size() + Node::leaf_cost(&entry) <= self.tree.config().fill_target() || n == 0 {
            leaf.insert(n, &entry, false)?;
        } else if leaf.size() + Node::fence_cost(&entry) <= page_size {
            // Leaf full: close it with the entry as its high fence; the
            // entry opens the new rightmost leaf.
            drop(g);
            let mut fresh = Node::leaf(page_size);
            fresh.insert(0, &entry, false)?;
            self.close(&entry, fresh, false)?;
        } else {
            // The fence does not fit beside the full leaf's entries: its
            // last entry moves over and becomes the fence (a fence is two
            // bytes smaller than the entry and slot it replaces). That
            // entry came after the last checkpoint, which left room for
            // any fence ([`BulkLoader::checkpoint`]), so a resume from
            // that checkpoint loads it again.
            let moved = leaf.entry(n - 1).to_entry();
            drop(g);
            let mut fresh = Node::leaf(page_size);
            fresh.insert(0, &moved, false)?;
            fresh.insert(1, &entry, false)?;
            self.close(&moved, fresh, true)?;
        }
        self.last = Some(entry);
        self.count += 1;
        Ok(())
    }

    /// The rightmost leaf.
    fn leaf(&self) -> PageId {
        *self.right_path.last().expect("path nonempty")
    }

    /// Close the rightmost leaf: `fresh`, whose first entry is `sep`,
    /// becomes the rightmost leaf, and `sep` the closed leaf's high
    /// fence and the separator between the two. With `moved`, `sep` is
    /// the closed leaf's last entry and leaves it.
    fn close(&mut self, sep: &IndexEntry, fresh: Node, moved: bool) -> Result<()> {
        let new_leaf = self.tree.cache.allocate(fresh).id;
        {
            let frame = self.tree.cache.frame(self.leaf())?;
            let mut g = frame.latch.exclusive();
            let leaf = &mut g.payload;
            if moved {
                leaf.truncate(leaf.count() - 1);
            }
            leaf.set_next(Some(new_leaf));
            leaf.set_high_fence(Some(sep))?;
        }
        let depth = self.right_path.len() - 1;
        *self.right_path.last_mut().expect("path") = new_leaf;
        self.promote(sep.clone(), new_leaf, depth)
    }

    /// Attach `child` (whose low fence is `sep`) at `depth - 1`,
    /// growing the tree if the new child was the root's sibling.
    fn promote(&mut self, sep: IndexEntry, child: PageId, depth: usize) -> Result<()> {
        let page_size = self.tree.config().page_size;
        if depth == 0 {
            // The split page *was* the root: grow upward. The anchor
            // is authoritative for the old root — `right_path[0]` has
            // already been overwritten with the new rightmost node.
            let (old_root, height) = self.tree.root()?;
            let mut root = Node::internal(page_size, old_root);
            root.insert_sep(0, &sep, child)?;
            let new_root = self.tree.cache.allocate(root).id;
            let anchor = self.tree.cache.frame(PageId(0))?;
            anchor
                .latch
                .exclusive()
                .payload
                .set_anchor(new_root, height + 1);
            self.right_path.insert(0, new_root);
            return Ok(());
        }
        let parent_page = self.right_path[depth - 1];
        let frame = self.tree.cache.frame(parent_page)?;
        {
            let mut g = frame.latch.exclusive();
            let parent = &mut g.payload;
            if parent.kind() != Kind::Internal {
                return Err(Error::Corruption("bulk path parent not internal".into()));
            }
            let n = parent.count();
            if parent.size() + Node::sep_cost(&sep) <= self.tree.config().fill_target() || n == 0 {
                return parent.insert_sep(n, &sep, child);
            }
        }
        // Parent full: open a new rightmost internal node holding only
        // the new child, and promote the separator another level up.
        let new_node = self
            .tree
            .cache
            .allocate(Node::internal(page_size, child))
            .id;
        self.right_path[depth - 1] = new_node;
        self.promote(sep, new_node, depth - 1)
    }

    /// §3.2.4 checkpoint: force all dirty index pages (the leaves
    /// filled since the last checkpoint plus the rightmost branch),
    /// then describe the loader state for stable storage.
    ///
    /// An entry the checkpoint covers must stay in the rightmost leaf
    /// until the leaf closes: [`BulkLoader::resume`] prunes that leaf
    /// back to those entries, and a page forced later (an engine
    /// checkpoint forces every tree) may already lack one that moved
    /// over. So first, if the rightmost leaf has no room for the high
    /// fence of the widest entry an index admits, it closes now, its
    /// last entry moving to a new leaf before anything is forced.
    pub fn checkpoint(&mut self, wal: impl WriteAhead) -> Result<BulkCheckpoint> {
        if let Some(last) = self.last.clone() {
            let _structure = self.tree.structure_shared();
            let page_size = self.tree.config().page_size;
            let free = self
                .tree
                .cache
                .frame(self.leaf())?
                .latch
                .share()
                .payload
                .free();
            if free < self.tree.config().max_entry() {
                let mut fresh = Node::leaf(page_size);
                fresh.insert(0, &last, false)?;
                self.close(&last, fresh, true)?;
            }
        }
        self.tree.force_all(wal)?;
        let (root, height) = self.tree.root()?;
        Ok(BulkCheckpoint {
            highest: self.last.clone(),
            count: self.count,
            allocated: self.tree.cache.num_pages(),
            root,
            height,
            right_path: self.right_path.clone(),
        })
    }

    /// Resume after a crash: reset the tree to the checkpoint and
    /// return a loader ready for the next key after `cp.highest`.
    pub fn resume(tree: &'t BTree, cp: &BulkCheckpoint) -> Result<BulkLoader<'t>> {
        // Pages allocated after the checkpoint go back to the
        // deallocated state.
        tree.cache.truncate_from(PageId(cp.allocated));
        tree.cache
            .frame(PageId(0))?
            .latch
            .exclusive()
            .payload
            .set_anchor(cp.root, cp.height);
        // Prune the rightmost branch in place: keys above the
        // checkpointed highest key, and children pointing at
        // deallocated pages, disappear.
        for &page in &cp.right_path {
            let frame = tree.cache.frame(page)?;
            let mut g = frame.latch.exclusive();
            let node = &mut g.payload;
            match node.kind() {
                Kind::Leaf => {
                    let keep = match &cp.highest {
                        Some(h) => (0..node.count())
                            .take_while(|&i| node.entry(i).cmp_entry(h).is_le())
                            .count(),
                        None => 0,
                    };
                    node.truncate(keep);
                    node.set_next(None); // rightmost leaf has no successor
                    node.set_high_fence(None)?;
                }
                Kind::Internal => {
                    let keep = (0..node.count())
                        .take_while(|&i| node.child(i + 1).0 < cp.allocated)
                        .count();
                    node.truncate(keep);
                }
                Kind::Anchor => return Err(Error::Corruption("anchor on right path".into())),
            }
        }
        Ok(BulkLoader {
            tree,
            right_path: cp.right_path.clone(),
            last: cp.highest.clone(),
            count: cp.count,
        })
    }

    /// Entries loaded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Highest key loaded so far.
    #[must_use]
    pub fn highest(&self) -> Option<&IndexEntry> {
        self.last.as_ref()
    }

    /// Complete the load, forcing what the last checkpoint did not.
    pub fn finish(self, wal: impl WriteAhead) -> Result<u64> {
        self.tree.force_all(wal)?;
        Ok(self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{clustering, collect_all, verify_structure};
    use crate::tree::BTreeConfig;
    use mohan_common::codec::{decode, encode};
    use mohan_common::{FileId, KeyValue, Lsn, Rid};

    fn tree() -> BTree {
        BTree::create(
            FileId(12),
            BTreeConfig {
                page_size: 256,
                fill_factor: 0.9,
                unique: false,
                hint_enabled: true,
            },
        )
    }

    fn e(k: i64) -> IndexEntry {
        IndexEntry::new(
            KeyValue::from_i64(k),
            Rid::new((k / 10) as u32, (k % 10) as u16),
        )
    }

    #[test]
    fn loads_sorted_stream() {
        let t = tree();
        let mut bl = BulkLoader::new(&t).unwrap();
        for k in 0..3000i64 {
            bl.append(e(k)).unwrap();
        }
        assert_eq!(bl.finish(Lsn::NULL).unwrap(), 3000);
        verify_structure(&t).unwrap();
        let all = collect_all(&t, true).unwrap();
        assert_eq!(all.len(), 3000);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn bulk_build_is_perfectly_clustered() {
        let t = tree();
        let mut bl = BulkLoader::new(&t).unwrap();
        for k in 0..3000i64 {
            bl.append(e(k)).unwrap();
        }
        bl.finish(Lsn::NULL).unwrap();
        let c = clustering(&t).unwrap();
        assert!(c.leaves > 20);
        assert_eq!(c.clustering_ratio(), 1.0);
        // Fill factor respected: occupancy near the target.
        assert!(c.avg_occupancy > 0.6, "occupancy {}", c.avg_occupancy);
    }

    #[test]
    fn rejects_unsorted_input() {
        let t = tree();
        let mut bl = BulkLoader::new(&t).unwrap();
        bl.append(e(10)).unwrap();
        assert!(bl.append(e(10)).is_err());
        assert!(bl.append(e(5)).is_err());
    }

    #[test]
    fn rejects_nonempty_tree() {
        let t = tree();
        t.insert(e(1), crate::tree::InsertMode::Transaction)
            .unwrap();
        assert!(BulkLoader::new(&t).is_err());
    }

    #[test]
    fn checkpoint_roundtrip() {
        let t = tree();
        let mut bl = BulkLoader::new(&t).unwrap();
        for k in 0..500i64 {
            bl.append(e(k)).unwrap();
        }
        let cp = bl.checkpoint(Lsn::NULL).unwrap();
        assert_eq!(decode(&encode(&cp)), Some(cp.clone()));
        assert_eq!(cp.count, 500);
        assert_eq!(cp.highest, Some(e(499)));
    }

    #[test]
    fn a_checkpoint_forces_what_was_loaded_since_not_the_tree() {
        let t = tree();
        let mut bl = BulkLoader::new(&t).unwrap();
        let mut checkpoints = 0u64;
        let mut tree_sizes = 0u64;
        for k in 0..20_000i64 {
            bl.append(e(k)).unwrap();
            if (k + 1) % 500 == 0 {
                bl.checkpoint(Lsn::NULL).unwrap();
                checkpoints += 1;
                tree_sizes += u64::from(t.cache.num_pages());
            }
        }
        bl.finish(Lsn::NULL).unwrap();
        let height = u64::from(t.root().unwrap().1);
        // Every page once, when the load moves past it, plus per
        // checkpoint the still-growing rightmost branch and the anchor.
        let forced = t.cache.stats.forces.get();
        let bound = u64::from(t.cache.num_pages()) + (checkpoints + 1) * (height + 1);
        assert!(forced <= bound, "{forced} pages forced, bound {bound}");
        // Forcing the whole tree each time cost the sum of its sizes.
        assert!(forced * 10 <= tree_sizes, "{forced} against {tree_sizes}");
        t.cache.crash();
        verify_structure(&t).unwrap();
        assert_eq!(collect_all(&t, true).unwrap().len(), 20_000);
    }

    #[test]
    fn crash_resume_produces_identical_tree() {
        // Reference: uninterrupted load.
        let t_ref = tree();
        let mut bl = BulkLoader::new(&t_ref).unwrap();
        for k in 0..2000i64 {
            bl.append(e(k)).unwrap();
        }
        bl.finish(Lsn::NULL).unwrap();
        let reference = collect_all(&t_ref, true).unwrap();

        // Crash run: checkpoint at 1200, keep loading to 1700, crash,
        // resume, reload 1200.. to the end.
        let t = tree();
        let mut bl = BulkLoader::new(&t).unwrap();
        for k in 0..1200i64 {
            bl.append(e(k)).unwrap();
        }
        let cp = bl.checkpoint(Lsn::NULL).unwrap();
        for k in 1200..1700i64 {
            bl.append(e(k)).unwrap();
        }
        drop(bl);
        t.cache.crash();

        let mut bl = BulkLoader::resume(&t, &cp).unwrap();
        assert_eq!(bl.count(), 1200);
        for k in 1200..2000i64 {
            bl.append(e(k)).unwrap();
        }
        bl.finish(Lsn::NULL).unwrap();
        verify_structure(&t).unwrap();
        assert_eq!(collect_all(&t, true).unwrap(), reference);
    }

    #[test]
    fn resume_with_no_checkpointed_keys_restarts_clean() {
        let t = tree();
        let mut bl = BulkLoader::new(&t).unwrap();
        let cp = bl.checkpoint(Lsn::NULL).unwrap();
        drop(bl);
        // Load some, crash before any further checkpoint.
        let mut bl2 = BulkLoader::resume(&t, &cp).unwrap();
        for k in 0..100i64 {
            bl2.append(e(k)).unwrap();
        }
        drop(bl2);
        t.cache.crash();
        let mut bl3 = BulkLoader::resume(&t, &cp).unwrap();
        assert_eq!(bl3.count(), 0);
        for k in 0..50i64 {
            bl3.append(e(k)).unwrap();
        }
        bl3.finish(Lsn::NULL).unwrap();
        assert_eq!(collect_all(&t, true).unwrap().len(), 50);
        verify_structure(&t).unwrap();
    }

    /// Wide keys on 256-byte pages: a full leaf has no room left for the
    /// next entry as its high fence. Checkpoint after each key in turn,
    /// append one more, force the tree as an engine checkpoint does,
    /// crash and resume: whichever leaf the crash caught closing, the
    /// load ends with every entry.
    #[test]
    fn a_close_forced_after_a_checkpoint_loses_no_entry() {
        let wide = |k: i64| {
            IndexEntry::new(
                KeyValue(format!("{k:024}").into_bytes()),
                Rid::new(1, k as u16),
            )
        };
        let n = 40i64;
        let reference: Vec<IndexEntry> = (0..n).map(wide).collect();
        for cut in 0..n - 1 {
            let t = tree();
            let mut bl = BulkLoader::new(&t).unwrap();
            for k in 0..=cut {
                bl.append(wide(k)).unwrap();
            }
            let cp = bl.checkpoint(Lsn::NULL).unwrap();
            bl.append(wide(cut + 1)).unwrap();
            t.force_all(Lsn::NULL).unwrap();
            drop(bl);
            t.cache.crash();
            let mut bl = BulkLoader::resume(&t, &cp).unwrap();
            for k in cut + 1..n {
                bl.append(wide(k)).unwrap();
            }
            bl.finish(Lsn::NULL).unwrap();
            verify_structure(&t).unwrap();
            let got: Vec<IndexEntry> = collect_all(&t, true)
                .unwrap()
                .into_iter()
                .map(|(e, _)| e)
                .collect();
            assert_eq!(got, reference, "checkpoint after key {cut}");
        }
    }

    #[test]
    fn crash_at_every_phase_of_a_small_load() {
        // Checkpoint every 64 keys; crash after each checkpoint in
        // turn; the final tree must always match the reference.
        let reference: Vec<i64> = (0..400).collect();
        for crash_after_cp in 0..6 {
            let t = tree();
            let mut bl = BulkLoader::new(&t).unwrap();
            let mut cps: Vec<BulkCheckpoint> = vec![bl.checkpoint(Lsn::NULL).unwrap()];
            let mut k = 0i64;
            let mut crashed = false;
            while k < 400 {
                bl.append(e(k)).unwrap();
                k += 1;
                if k % 64 == 0 {
                    cps.push(bl.checkpoint(Lsn::NULL).unwrap());
                    if cps.len() == crash_after_cp + 2 {
                        crashed = true;
                        break;
                    }
                }
            }
            if crashed {
                drop(bl);
                t.cache.crash();
                let cp = cps.last().unwrap().clone();
                let mut bl2 = BulkLoader::resume(&t, &cp).unwrap();
                let mut k2 = bl2.count() as i64;
                while k2 < 400 {
                    bl2.append(e(k2)).unwrap();
                    k2 += 1;
                }
                bl2.finish(Lsn::NULL).unwrap();
            } else {
                bl.finish(Lsn::NULL).unwrap();
            }
            verify_structure(&t).unwrap();
            let got: Vec<i64> = collect_all(&t, true)
                .unwrap()
                .iter()
                .map(|(e, _)| e.key.first_i64().unwrap())
                .collect();
            assert_eq!(got, reference, "crash_after_cp={crash_after_cp}");
        }
    }
}
