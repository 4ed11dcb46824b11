//! Leaf-chain reads, structural verification and clustering metrics.
//!
//! Every reader streams: a [`LeafCursor`] holds one leaf under its S
//! latch at a time and reads its entries in place, so a pass over the
//! whole index costs a page of memory, not a copy of the tree.

use crate::node::{EntryRef, Kind, Node};
use crate::tree::BTree;
use mohan_common::{Error, IndexEntry, KeyValue, PageId, Result, Rid};
use mohan_storage::cache::PageBuf;
use mohan_storage::ShareGuard;
use std::cmp::Ordering;

/// A read position in the leaf chain: one leaf, S-latched, and an entry
/// slot in it. Moving to the right sibling latches it before letting the
/// current leaf go (latch coupling). The caller must not X-latch pages
/// of the tree while it holds a cursor.
pub struct LeafCursor<'t> {
    tree: &'t BTree,
    page: PageId,
    leaf: ShareGuard<PageBuf<Node>>,
    slot: usize,
}

impl<'t> LeafCursor<'t> {
    /// At the first entry `≥ from`, in the leaf a descent for `from`
    /// reaches.
    fn seek(tree: &'t BTree, from: &IndexEntry) -> Result<Self> {
        let (page, leaf) = tree.descend_s(from)?;
        let slot = leaf.payload.search(from).unwrap_or_else(|p| p);
        Ok(LeafCursor {
            tree,
            page,
            leaf,
            slot,
        })
    }

    /// At the first entry carrying a key value `≥ key`.
    pub fn seek_key(tree: &'t BTree, key: &KeyValue) -> Result<Self> {
        Self::seek(tree, &IndexEntry::new(key.clone(), Rid::MIN))
    }

    /// At the first entry of the leftmost leaf.
    pub fn first(tree: &'t BTree) -> Result<Self> {
        Self::seek_key(tree, &KeyValue::empty())
    }

    /// At the first entry of leaf `page`, reached by its page id rather
    /// than a descent ([`for_each_leaf_unlatched`]).
    fn at(tree: &'t BTree, page: PageId) -> Result<Self> {
        let leaf = tree.cache.frame(page)?.latch.share_arc();
        if !leaf.payload.is_leaf() {
            return Err(Error::Corruption(format!(
                "{page} in the leaf chain is not a leaf"
            )));
        }
        Ok(LeafCursor {
            tree,
            page,
            leaf,
            slot: 0,
        })
    }

    /// The current leaf's page id.
    #[must_use]
    pub fn page(&self) -> PageId {
        self.page
    }

    /// The current leaf.
    #[must_use]
    pub fn leaf(&self) -> &Node {
        &self.leaf.payload
    }

    /// Move to the right sibling, at its first entry; `false` at the
    /// rightmost leaf.
    pub fn next_leaf(&mut self) -> Result<bool> {
        let Some(next) = self.leaf.payload.next() else {
            return Ok(false);
        };
        let leaf = self.tree.cache.frame(next)?.latch.share_arc();
        self.leaf = leaf;
        self.page = next;
        self.slot = 0;
        Ok(true)
    }

    /// The entry at the cursor, stepping past it; crosses to the right
    /// sibling when the leaf is done. `None` past the last entry.
    pub fn next_entry(&mut self) -> Result<Option<EntryRef<'_>>> {
        while self.slot >= self.leaf.payload.count() {
            if !self.next_leaf()? {
                return Ok(None);
            }
        }
        self.slot += 1;
        Ok(Some(self.leaf.payload.entry(self.slot - 1)))
    }
}

/// Walk the leaf chain without holding a latch while working: `note`
/// reads each leaf under its S latch, the latch goes, and `work` gets
/// what `note` returned. The walk goes on at the sibling the noted leaf
/// named. That is sound because leaves are never freed while the tree
/// lives, and a split of a walked leaf moves to its new sibling only
/// keys in the range the caller already covered when it noted the leaf.
pub fn for_each_leaf_unlatched<T>(
    tree: &BTree,
    mut note: impl FnMut(&Node) -> T,
    mut work: impl FnMut(T) -> Result<()>,
) -> Result<()> {
    let mut cur = Some(LeafCursor::first(tree)?);
    while let Some(leaf) = cur.take() {
        let noted = note(leaf.leaf());
        let next = leaf.leaf().next();
        drop(leaf);
        work(noted)?;
        cur = next.map(|p| LeafCursor::at(tree, p)).transpose()?;
    }
    Ok(())
}

/// Collect every entry in key order as `(entry, pseudo_deleted)`.
/// `include_pseudo = false` filters tombstones out (the view a reader
/// of the finished index sees). A copy of the index: for tests.
pub fn collect_all(tree: &BTree, include_pseudo: bool) -> Result<Vec<(IndexEntry, bool)>> {
    let mut out = Vec::new();
    let mut cur = LeafCursor::first(tree)?;
    while let Some(e) = cur.next_entry()? {
        if include_pseudo || !e.pseudo {
            out.push((e.to_entry(), e.pseudo));
        }
    }
    Ok(out)
}

/// Clustering quality of the leaf level (§4: "consecutive keys being
/// on consecutive pages on disk ... deviations need to be
/// quantified").
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringStats {
    /// Number of leaves.
    pub leaves: u64,
    /// Chain transitions total.
    pub transitions: u64,
    /// Transitions where the right neighbour has a higher page number
    /// (physically ascending, prefetch-friendly).
    pub ascending: u64,
    /// Mean leaf occupancy (bytes used / page size).
    pub avg_occupancy: f64,
    /// Total entries (including pseudo-deleted).
    pub entries: u64,
    /// Pseudo-deleted entries still occupying space.
    pub pseudo_entries: u64,
}

impl ClusteringStats {
    /// Fraction of physically ascending transitions (1.0 = perfectly
    /// clustered, as a bottom-up build produces).
    #[must_use]
    pub fn clustering_ratio(&self) -> f64 {
        if self.transitions == 0 {
            1.0
        } else {
            self.ascending as f64 / self.transitions as f64
        }
    }
}

/// Measure leaf-level clustering.
pub fn clustering(tree: &BTree) -> Result<ClusteringStats> {
    let page_size = tree.config().page_size as f64;
    let mut stats = ClusteringStats {
        leaves: 0,
        transitions: 0,
        ascending: 0,
        avg_occupancy: 0.0,
        entries: 0,
        pseudo_entries: 0,
    };
    let mut occupancy_sum = 0.0;
    let mut cur = LeafCursor::first(tree)?;
    loop {
        let node = cur.leaf();
        stats.leaves += 1;
        occupancy_sum += node.size() as f64 / page_size;
        stats.entries += node.count() as u64;
        stats.pseudo_entries += node.entries().filter(|e| e.pseudo).count() as u64;
        let page = cur.page();
        if !cur.next_leaf()? {
            break;
        }
        stats.transitions += 1;
        if cur.page() > page {
            stats.ascending += 1;
        }
    }
    stats.avg_occupancy = occupancy_sum / stats.leaves as f64;
    Ok(stats)
}

/// Verify every structural invariant of the tree:
/// * all leaves at the same depth;
/// * entries sorted and unique within and across leaves;
/// * every separator bounds its subtrees, every high fence its leaf;
/// * the leaf chain visits exactly the leaves of the in-order
///   traversal, in order.
///
/// One in-order pass: it holds the S latches of the path it is on,
/// compares each entry with the one before it only, and checks each
/// leaf's chain pointer against the next leaf the traversal reaches.
/// Call at quiescent points.
pub fn verify_structure(tree: &BTree) -> Result<()> {
    let (root, height) = tree.root()?;
    let mut walk = Walk {
        tree,
        height,
        prev: None,
        chain: None,
    };
    walk.node(root, 1, None, None)?;
    match walk.chain {
        Some((leaf, Some(next))) => Err(Error::Corruption(format!(
            "leaf chain runs on past the last leaf {leaf} to {next}"
        ))),
        _ => Ok(()),
    }
}

/// The in-order pass of [`verify_structure`].
struct Walk<'t> {
    tree: &'t BTree,
    height: u32,
    /// The last entry seen, as key bytes and RID (its buffer is reused).
    prev: Option<(Vec<u8>, Rid)>,
    /// The last leaf visited and the sibling its chain pointer names.
    chain: Option<(PageId, Option<PageId>)>,
}

impl Walk<'_> {
    fn node(
        &mut self,
        page: PageId,
        depth: u32,
        low: Option<EntryRef<'_>>,
        high: Option<EntryRef<'_>>,
    ) -> Result<()> {
        let frame = self.tree.cache.frame(page)?;
        let g = frame.latch.share();
        let node = &g.payload;
        let below = |a: EntryRef<'_>, b: Option<EntryRef<'_>>| {
            b.is_none_or(|b| a.cmp_ref(&b) == Ordering::Less)
        };
        match node.kind() {
            Kind::Anchor => Err(Error::Corruption("anchor inside tree".into())),
            Kind::Internal => {
                for i in 1..node.count() {
                    if !below(node.entry(i - 1), Some(node.entry(i))) {
                        return Err(Error::Corruption(format!("{page}: separators unsorted")));
                    }
                }
                for i in 0..=node.count() {
                    let lo = if i == 0 { low } else { Some(node.entry(i - 1)) };
                    let hi = if i == node.count() {
                        high
                    } else {
                        Some(node.entry(i))
                    };
                    self.node(node.child(i), depth + 1, lo, hi)?;
                }
                Ok(())
            }
            Kind::Leaf => {
                if depth != self.height {
                    return Err(Error::Corruption(format!(
                        "leaf {page} at depth {depth}, height {}",
                        self.height
                    )));
                }
                let fence = node.high_fence();
                if let (Some(f), Some(hi)) = (fence, high) {
                    if f.cmp_ref(&hi) == Ordering::Greater {
                        return Err(Error::Corruption(format!(
                            "{page}: stored high fence exceeds parent bound"
                        )));
                    }
                }
                for e in node.entries() {
                    if !below(e, fence) {
                        return Err(Error::Corruption(format!(
                            "{page}: entry at or above stored high fence"
                        )));
                    }
                    if low.is_some_and(|lo| e.cmp_ref(&lo) == Ordering::Less) {
                        return Err(Error::Corruption(format!("{page}: entry below low fence")));
                    }
                    if !below(e, high) {
                        return Err(Error::Corruption(format!("{page}: entry above high fence")));
                    }
                    self.follows(e)?;
                }
                match self.chain {
                    Some((_, next)) if next != Some(page) => {
                        return Err(Error::Corruption(format!(
                            "leaf chain reaches {next:?} where tree order has {page}"
                        )))
                    }
                    _ => self.chain = Some((page, node.next())),
                }
                Ok(())
            }
        }
    }

    /// Global ordering and exact-entry uniqueness: `e` sorts after the
    /// entry before it.
    fn follows(&mut self, e: EntryRef<'_>) -> Result<()> {
        if let Some((key, rid)) = &self.prev {
            let order = e.key.cmp(key).then(e.rid.cmp(rid));
            if order != Ordering::Greater {
                return Err(Error::Corruption(format!(
                    "entries out of order: {:?} !< {:?}",
                    IndexEntry::new(KeyValue(key.clone()), *rid),
                    e.to_entry()
                )));
            }
        }
        let (key, rid) = self.prev.get_or_insert_with(|| (Vec::new(), e.rid));
        key.clear();
        key.extend_from_slice(e.key);
        *rid = e.rid;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{unlogged, BTreeConfig, Edit, InsertMode};
    use mohan_common::FileId;

    fn tree() -> BTree {
        BTree::create(
            FileId(11),
            BTreeConfig {
                page_size: 256,
                fill_factor: 0.9,
                unique: false,
                hint_enabled: true,
            },
        )
    }

    fn e(k: i64) -> IndexEntry {
        IndexEntry::from_i64(k, Rid::new(1, (k % 1000) as u16))
    }

    #[test]
    fn collect_all_is_sorted_and_complete() {
        let t = tree();
        for k in (0..300i64).rev() {
            t.insert(e(k), InsertMode::Transaction).unwrap();
        }
        let all = collect_all(&t, true).unwrap();
        assert_eq!(all.len(), 300);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn collect_filters_pseudo() {
        let t = tree();
        for k in 0..10i64 {
            t.insert(e(k), InsertMode::Transaction).unwrap();
        }
        t.edit(&e(4), InsertMode::Transaction, Edit::pseudo, unlogged)
            .unwrap();
        assert_eq!(collect_all(&t, true).unwrap().len(), 10);
        assert_eq!(collect_all(&t, false).unwrap().len(), 9);
    }

    #[test]
    fn verify_accepts_valid_tree() {
        let t = tree();
        for k in 0..1000i64 {
            t.insert(e((k * 37) % 1000), InsertMode::Transaction)
                .unwrap();
        }
        verify_structure(&t).unwrap();
    }

    #[test]
    fn verify_rejects_tampered_tree() {
        let t = tree();
        for k in 0..300i64 {
            t.insert(e(k), InsertMode::Transaction).unwrap();
        }
        // Corrupt a random leaf by reversing its entries.
        let mut cur = LeafCursor::first(&t).unwrap();
        while cur.leaf().count() < 2 {
            assert!(cur.next_leaf().unwrap());
        }
        let victim = cur.page();
        drop(cur);
        let frame = t.cache.frame(victim).unwrap();
        {
            let mut g = frame.latch.exclusive();
            let first = g.payload.entry(0).to_entry();
            g.payload.remove(0);
            let end = g.payload.count();
            g.payload.insert(end, &first, false).unwrap();
        }
        assert!(verify_structure(&t).is_err());
    }

    #[test]
    fn ascending_inserts_cluster_perfectly() {
        let t = tree();
        for k in 0..2000i64 {
            t.insert(e(k), InsertMode::Ib).unwrap();
        }
        let c = clustering(&t).unwrap();
        assert!(c.leaves > 10);
        assert!(
            c.clustering_ratio() > 0.95,
            "ratio {} too low for sequential build",
            c.clustering_ratio()
        );
    }

    #[test]
    fn random_inserts_cluster_poorly() {
        let t = tree();
        let mut k = 1i64;
        for _ in 0..2000 {
            k = (k * 48271) % 2_147_483_647; // Lehmer shuffle
            t.insert(e(k), InsertMode::Transaction).unwrap();
        }
        let c = clustering(&t).unwrap();
        assert!(c.leaves > 10);
        assert!(
            c.clustering_ratio() < 0.9,
            "ratio {} suspiciously high for random inserts",
            c.clustering_ratio()
        );
    }

    #[test]
    fn clustering_counts_pseudo_entries() {
        let t = tree();
        for k in 0..50i64 {
            t.insert(e(k), InsertMode::Transaction).unwrap();
        }
        for k in 0..10i64 {
            t.edit(&e(k), InsertMode::Transaction, Edit::pseudo, unlogged)
                .unwrap();
        }
        let c = clustering(&t).unwrap();
        assert_eq!(c.entries, 50);
        assert_eq!(c.pseudo_entries, 10);
    }

    #[test]
    fn empty_tree_scans_cleanly() {
        let t = tree();
        assert!(collect_all(&t, true).unwrap().is_empty());
        verify_structure(&t).unwrap();
        let c = clustering(&t).unwrap();
        assert_eq!(c.leaves, 1);
        assert_eq!(c.clustering_ratio(), 1.0);
    }
}

/// How a range scan schedules its leaf-page reads (§2.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchStrategy {
    /// Sequential prefetch \[TeGu84\]: one I/O fetches a run of
    /// *physically consecutive* pages. Effective exactly when the tree
    /// is clustered (a bottom-up build), which is the paper's case for
    /// SF's clustering advantage.
    PhysicalSequence,
    /// Parent-guided prefetch \[CHHIM91\]: leaf page-ids are read from
    /// the parent pages first, so one I/O can gather any group of
    /// leaves regardless of physical order — "to compensate for
    /// [NSF's] inability to build the index tree bottom-up".
    ParentGuided,
}

/// I/O accounting for one range scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RangeScanStats {
    /// Live entries returned.
    pub entries: u64,
    /// Leaf pages visited.
    pub leaves: u64,
    /// Simulated leaf I/O batches issued under the chosen strategy.
    pub io_batches: u64,
}

/// Scan all live entries with `lo ≤ key value ≤ hi` in key order,
/// modelling leaf I/O under `strategy` with `prefetch` pages per
/// batch.
pub fn range_scan(
    tree: &BTree,
    lo: &KeyValue,
    hi: &KeyValue,
    prefetch: usize,
    strategy: PrefetchStrategy,
) -> Result<(Vec<IndexEntry>, RangeScanStats)> {
    let prefetch = prefetch.max(1) as u64;
    let mut out = Vec::new();
    let mut pages: Vec<PageId> = Vec::new();

    // From the first leaf that can hold `lo`, walk right while the
    // range continues.
    let mut cur = LeafCursor::seek_key(tree, lo)?;
    loop {
        pages.push(cur.page());
        let leaf = cur.leaf();
        let mut past_range = false;
        for i in leaf.lower_bound(lo)..leaf.count() {
            let e = leaf.entry(i);
            if e.key > hi.as_bytes() {
                past_range = true;
                break;
            }
            if !e.pseudo {
                out.push(e.to_entry());
            }
        }
        if past_range || !cur.next_leaf()? {
            break;
        }
    }

    // I/O accounting over the visited page sequence.
    let io_batches = match strategy {
        PrefetchStrategy::ParentGuided => {
            pages.len() as u64 / prefetch
                + u64::from(!(pages.len() as u64).is_multiple_of(prefetch) && !pages.is_empty())
        }
        PrefetchStrategy::PhysicalSequence => {
            // One I/O reads a window of `prefetch` *physically
            // consecutive* page numbers; a leaf rides the current
            // window if its page number is ascending and inside it
            // (interleaved internal pages cost window space but not
            // extra I/Os).
            let mut batches = 0u64;
            let mut window_end = 0u64;
            let mut prev: Option<u32> = None;
            for &p in &pages {
                let ascending = prev.is_some_and(|q| p.0 > q);
                if !ascending || u64::from(p.0) >= window_end {
                    batches += 1;
                    window_end = u64::from(p.0) + prefetch;
                }
                prev = Some(p.0);
            }
            batches
        }
    };
    let stats = RangeScanStats {
        entries: out.len() as u64,
        leaves: pages.len() as u64,
        io_batches,
    };
    Ok((out, stats))
}

#[cfg(test)]
mod range_tests {
    use super::*;
    use crate::bulk::BulkLoader;
    use crate::tree::{unlogged, BTreeConfig, Edit, InsertMode};
    use mohan_common::{FileId, Lsn};

    fn cfg() -> BTreeConfig {
        BTreeConfig {
            page_size: 256,
            fill_factor: 0.9,
            unique: false,
            hint_enabled: true,
        }
    }

    fn e(k: i64) -> IndexEntry {
        IndexEntry::from_i64(k, Rid::new((k / 100) as u32, (k % 100) as u16))
    }

    fn k(v: i64) -> KeyValue {
        KeyValue::from_i64(v)
    }

    #[test]
    fn range_scan_returns_exact_window() {
        let t = BTree::create(FileId(20), cfg());
        for key in 0..500i64 {
            t.insert(e(key), InsertMode::Transaction).unwrap();
        }
        let (got, stats) =
            range_scan(&t, &k(100), &k(199), 4, PrefetchStrategy::ParentGuided).unwrap();
        assert_eq!(got.len(), 100);
        assert_eq!(got.first().unwrap().key, k(100));
        assert_eq!(got.last().unwrap().key, k(199));
        assert_eq!(stats.entries, 100);
        assert!(stats.leaves >= 1);
    }

    #[test]
    fn range_scan_skips_pseudo_deleted() {
        let t = BTree::create(FileId(21), cfg());
        for key in 0..50i64 {
            t.insert(e(key), InsertMode::Transaction).unwrap();
        }
        t.edit(&e(25), InsertMode::Transaction, Edit::pseudo, unlogged)
            .unwrap();
        let (got, _) = range_scan(&t, &k(20), &k(29), 4, PrefetchStrategy::ParentGuided).unwrap();
        assert_eq!(got.len(), 9);
        assert!(got.iter().all(|x| x.key != k(25)));
    }

    #[test]
    fn empty_and_out_of_range_windows() {
        let t = BTree::create(FileId(22), cfg());
        let (got, _) = range_scan(&t, &k(0), &k(9), 4, PrefetchStrategy::PhysicalSequence).unwrap();
        assert!(got.is_empty());
        for key in 0..20i64 {
            t.insert(e(key), InsertMode::Transaction).unwrap();
        }
        let (got, _) =
            range_scan(&t, &k(100), &k(200), 4, PrefetchStrategy::PhysicalSequence).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn clustered_tree_needs_few_physical_batches() {
        // Bottom-up build: leaves are physically consecutive.
        let t = BTree::create(FileId(23), cfg());
        let mut bl = BulkLoader::new(&t).unwrap();
        for key in 0..2000i64 {
            bl.append(e(key)).unwrap();
        }
        bl.finish(Lsn::NULL).unwrap();
        let (_, seq) =
            range_scan(&t, &k(0), &k(1999), 8, PrefetchStrategy::PhysicalSequence).unwrap();
        let (_, par) = range_scan(&t, &k(0), &k(1999), 8, PrefetchStrategy::ParentGuided).unwrap();
        let optimal = seq.leaves.div_ceil(8);
        assert_eq!(par.io_batches, optimal);
        // Interleaved internal-page allocations cost window space, so
        // allow a small constant factor over the leaf-only optimum.
        assert!(
            seq.io_batches <= optimal + optimal / 2 + 1,
            "clustered sequential prefetch should be near-optimal: {} vs {}",
            seq.io_batches,
            optimal
        );
    }

    #[test]
    fn unclustered_tree_pays_for_physical_prefetch_but_not_parent_guided() {
        // Random insertion order: splits scatter leaf page numbers.
        let t = BTree::create(FileId(24), cfg());
        let mut key = 1i64;
        for _ in 0..2000 {
            key = (key * 48271) % 2_147_483_647;
            t.insert(e(key % 100_000), InsertMode::Transaction).unwrap();
        }
        let lo = k(0);
        let hi = k(100_000);
        let (_, seq) = range_scan(&t, &lo, &hi, 8, PrefetchStrategy::PhysicalSequence).unwrap();
        let (_, par) = range_scan(&t, &lo, &hi, 8, PrefetchStrategy::ParentGuided).unwrap();
        let optimal = seq.leaves.div_ceil(8);
        assert_eq!(
            par.io_batches, optimal,
            "parent-guided is order-independent"
        );
        assert!(
            seq.io_batches > optimal * 3,
            "unclustered sequential prefetch should degrade: {} vs optimal {}",
            seq.io_batches,
            optimal
        );
    }
}
