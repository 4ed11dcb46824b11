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

use crate::node::{LeafEntry, Node};
use crate::tree::BTree;
use mohan_common::{Error, IndexEntry, Lsn, PageId, Result};

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

impl BulkCheckpoint {
    /// Serialize for the stable blob store.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match &self.highest {
            Some(e) => {
                out.push(1);
                e.encode(&mut out);
            }
            None => out.push(0),
        }
        out.extend_from_slice(&self.count.to_be_bytes());
        out.extend_from_slice(&self.allocated.to_be_bytes());
        out.extend_from_slice(&self.root.0.to_be_bytes());
        out.extend_from_slice(&self.height.to_be_bytes());
        out.extend_from_slice(&(self.right_path.len() as u32).to_be_bytes());
        for p in &self.right_path {
            out.extend_from_slice(&p.0.to_be_bytes());
        }
        out
    }

    /// Deserialize; `None` on corrupt input.
    #[must_use]
    pub fn decode(buf: &[u8]) -> Option<BulkCheckpoint> {
        let mut pos = 0;
        let highest = match *buf.first()? {
            0 => {
                pos += 1;
                None
            }
            1 => {
                pos += 1;
                Some(IndexEntry::decode(buf, &mut pos)?)
            }
            _ => return None,
        };
        let rd_u64 = |buf: &[u8], pos: &mut usize| -> Option<u64> {
            let b: [u8; 8] = buf.get(*pos..*pos + 8)?.try_into().ok()?;
            *pos += 8;
            Some(u64::from_be_bytes(b))
        };
        let rd_u32 = |buf: &[u8], pos: &mut usize| -> Option<u32> {
            let b: [u8; 4] = buf.get(*pos..*pos + 4)?.try_into().ok()?;
            *pos += 4;
            Some(u32::from_be_bytes(b))
        };
        let count = rd_u64(buf, &mut pos)?;
        let allocated = rd_u32(buf, &mut pos)?;
        let root = PageId(rd_u32(buf, &mut pos)?);
        let height = rd_u32(buf, &mut pos)?;
        let n = rd_u32(buf, &mut pos)? as usize;
        let mut right_path = Vec::with_capacity(n);
        for _ in 0..n {
            right_path.push(PageId(rd_u32(buf, &mut pos)?));
        }
        Some(BulkCheckpoint {
            highest,
            count,
            allocated,
            root,
            height,
            right_path,
        })
    }
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
        let anchor = tree.cache.frame(PageId(0))?;
        let (root, height) = match anchor.latch.share().payload {
            Node::Anchor { root, height } => (root, height),
            _ => return Err(Error::Corruption("missing anchor".into())),
        };
        if height != 1 {
            return Err(Error::Corruption("bulk load requires an empty tree".into()));
        }
        let root_frame = tree.cache.frame(root)?;
        if !root_frame.latch.share().payload.leaf_entries().is_empty() {
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
        let fill =
            ((self.tree.config().page_size as f64) * self.tree.config().fill_factor) as usize;
        let leaf_page = *self.right_path.last().expect("path nonempty");
        let frame = self.tree.cache.frame(leaf_page)?;
        {
            let mut g = frame.latch.exclusive();
            let le = LeafEntry::live(entry.clone());
            if g.payload.size() + le.size() <= fill || g.payload.leaf_entries().is_empty() {
                if let Node::Leaf { entries, .. } = &mut g.payload {
                    entries.push(le);
                }
                self.last = Some(entry);
                self.count += 1;
                return Ok(());
            }
        }
        // Leaf full: open a new rightmost leaf and promote a separator.
        let new_leaf = self.tree.cache.allocate(Node::Leaf {
            entries: vec![LeafEntry::live(entry.clone())],
            next: None,
            high_fence: None,
        });
        {
            let mut g = frame.latch.exclusive();
            if let Node::Leaf {
                next, high_fence, ..
            } = &mut g.payload
            {
                *next = Some(new_leaf.id);
                *high_fence = Some(entry.clone());
            }
        }
        let depth = self.right_path.len() - 1;
        *self.right_path.last_mut().expect("path") = new_leaf.id;
        self.promote(entry.clone(), new_leaf.id, depth)?;
        self.last = Some(entry);
        self.count += 1;
        Ok(())
    }

    /// Attach `child` (whose low fence is `sep`) at `depth - 1`,
    /// growing the tree if the new child was the root's sibling.
    fn promote(&mut self, sep: IndexEntry, child: PageId, depth: usize) -> Result<()> {
        if depth == 0 {
            // The split page *was* the root: grow upward. The anchor
            // is authoritative for the old root — `right_path[0]` has
            // already been overwritten with the new rightmost node.
            let old_root = {
                let anchor = self.tree.cache.frame(PageId(0))?;
                let g = anchor.latch.share();
                match g.payload {
                    Node::Anchor { root, .. } => root,
                    _ => return Err(Error::Corruption("missing anchor".into())),
                }
            };
            let new_root = self.tree.cache.allocate(Node::Internal {
                seps: vec![sep],
                children: vec![old_root, child],
            });
            let anchor = self.tree.cache.frame(PageId(0))?;
            let mut g = anchor.latch.exclusive();
            if let Node::Anchor { root, height } = &mut g.payload {
                *root = new_root.id;
                *height += 1;
            }
            self.right_path.insert(0, new_root.id);
            return Ok(());
        }
        let fill =
            ((self.tree.config().page_size as f64) * self.tree.config().fill_factor) as usize;
        let parent_page = self.right_path[depth - 1];
        let frame = self.tree.cache.frame(parent_page)?;
        {
            let mut g = frame.latch.exclusive();
            let fits = g.payload.size() + sep.encoded_size() + 4 <= fill;
            if let Node::Internal { seps, children } = &mut g.payload {
                if fits || seps.is_empty() {
                    seps.push(sep);
                    children.push(child);
                    return Ok(());
                }
            } else {
                return Err(Error::Corruption("bulk path parent not internal".into()));
            }
        }
        // Parent full: open a new rightmost internal node holding only
        // the new child, and promote the separator another level up.
        let new_node = self.tree.cache.allocate(Node::Internal {
            seps: vec![],
            children: vec![child],
        });
        self.right_path[depth - 1] = new_node.id;
        self.promote(sep, new_node.id, depth - 1)
    }

    /// §3.2.4 checkpoint: force all dirty index pages (the leaves
    /// filled since the last checkpoint plus the rightmost branch),
    /// then describe the loader state for stable storage.
    pub fn checkpoint(&self, flushed: Lsn) -> Result<BulkCheckpoint> {
        self.tree.force_all(flushed)?;
        let anchor = self.tree.cache.frame(PageId(0))?;
        let (root, height) = match anchor.latch.share().payload {
            Node::Anchor { root, height } => (root, height),
            _ => return Err(Error::Corruption("missing anchor".into())),
        };
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
        // Restore the anchor.
        {
            let anchor = tree.cache.frame(PageId(0))?;
            let mut g = anchor.latch.exclusive();
            g.payload = Node::Anchor {
                root: cp.root,
                height: cp.height,
            };
        }
        // Prune the rightmost branch: keys above the checkpointed
        // highest key, and children pointing at deallocated pages,
        // disappear.
        for &page in &cp.right_path {
            let frame = tree.cache.frame(page)?;
            let mut g = frame.latch.exclusive();
            match &mut g.payload {
                Node::Leaf {
                    entries,
                    next,
                    high_fence,
                } => {
                    match &cp.highest {
                        Some(h) => entries.retain(|le| le.entry <= *h),
                        None => entries.clear(),
                    }
                    *next = None; // rightmost leaf has no successor
                    *high_fence = None;
                }
                Node::Internal { seps, children } => {
                    children.retain(|c| c.0 < cp.allocated);
                    seps.truncate(children.len().saturating_sub(1));
                }
                Node::Anchor { .. } => {
                    return Err(Error::Corruption("anchor on right path".into()))
                }
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
    pub fn finish(self, flushed: Lsn) -> Result<u64> {
        self.tree.force_all(flushed)?;
        Ok(self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{clustering, collect_all, verify_structure};
    use crate::tree::BTreeConfig;
    use mohan_common::{FileId, KeyValue, Rid};

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
        assert_eq!(BulkCheckpoint::decode(&cp.encode()), Some(cp.clone()));
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
        let height = match t.cache.frame(PageId(0)).unwrap().latch.share().payload {
            Node::Anchor { height, .. } => u64::from(height),
            _ => unreachable!(),
        };
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
        let bl = BulkLoader::new(&t).unwrap();
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
