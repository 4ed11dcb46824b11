//! The latched B+-tree.
//!
//! All mutating operations descend with exclusive-latch crabbing:
//! ancestors stay latched only while the child could split, so
//! concurrent inserts to different subtrees proceed in parallel —
//! which is what lets NSF's index builder and transactions work in the
//! same tree at once.
//!
//! Unique indexes keep every run of equal key values inside a single
//! leaf (splits are adjusted to run boundaries), so uniqueness checks
//! and the paper's pseudo-delete arbitration (§2.2.3) happen entirely
//! under one leaf latch.

use crate::node::{self, Kind, Node, Prefer};
use crate::scan::LeafCursor;
use mohan_common::failpoint::{FailpointSet, Failpoints};
use mohan_common::pace::{Ticker, OPS_PER_PACE};
use mohan_common::stats::Counter;
use mohan_common::{Error, FileId, IndexEntry, KeyValue, PageId, Result, Rid, WriteAhead};
use mohan_storage::cache::PageBuf;
use mohan_storage::{ExclusiveGuard, Latch, LatchStats, PageCache, ShareGuard, ShareRef};
use parking_lot::Mutex;
use std::sync::Arc;

/// Failpoint inside [`BTree::force_all`], after every dirty page has
/// been staged and before anything is published.
pub const FORCE_STAGED_FAILPOINT: &str = "btree.force.staged";

/// Tree tuning knobs.
#[derive(Debug, Clone)]
pub struct BTreeConfig {
    /// Byte capacity of a node.
    pub page_size: usize,
    /// Target occupancy for builder/bulk inserts (free space left for
    /// future growth, §2.2.3).
    pub fill_factor: f64,
    /// Enforce key-value uniqueness.
    pub unique: bool,
    /// Use the remembered-path insert hint for IB-mode inserts
    /// (ablation switch for the E3 test).
    pub hint_enabled: bool,
}

impl BTreeConfig {
    /// Refuse a page size the byte layout cannot address: 128 to 65 535
    /// bytes (a page's offsets are `u16`).
    pub fn check(&self) -> Result<()> {
        if (128..=usize::from(u16::MAX)).contains(&self.page_size) {
            Ok(())
        } else {
            Err(Error::InvalidArg(format!(
                "index page size {} outside 128..=65535",
                self.page_size
            )))
        }
    }

    /// Bytes an entry and its slot may cost a leaf at most. A high fence
    /// costs less than the entry and slot it stands for, so this also
    /// bounds every fence.
    pub(crate) fn max_entry(&self) -> usize {
        self.page_size / 4
    }

    pub(crate) fn fill_target(&self) -> usize {
        ((self.page_size as f64) * self.fill_factor) as usize
    }
}

/// Pathlength counters reproducing the paper's §2.3.1/§4 arguments.
#[derive(Debug, Default)]
pub struct BTreeStats {
    /// Root-to-leaf descents.
    pub traversals: Counter,
    /// Inserts satisfied by the remembered-path hint (no descent).
    pub remembered_hits: Counter,
    /// Ordinary half splits.
    pub splits: Counter,
    /// IB-specialized "move higher keys only" splits (§2.3.1).
    pub ib_splits: Counter,
    /// Entries physically inserted.
    pub inserts: Counter,
    /// Inserts rejected because the exact entry already existed.
    pub duplicate_rejects: Counter,
    /// Keys marked pseudo-deleted.
    pub pseudo_deletes: Counter,
    /// Tombstones planted by deleters that found no key.
    pub tombstones: Counter,
    /// Pseudo-deleted keys put back in the inserted state.
    pub reactivations: Counter,
    /// Keys physically removed.
    pub physical_deletes: Counter,
}

/// Who is inserting, which selects split behaviour and hint usage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertMode {
    /// Ordinary transaction: half splits, full descents.
    Transaction,
    /// The NSF index builder: remembered-path hint, fill-factor
    /// targets, move-higher-keys-only splits.
    Ib,
}

/// Result of an insert attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The entry went in.
    Inserted,
    /// The exact `<key value, RID>` entry was already present
    /// (possibly pseudo-deleted). Nothing was changed.
    DuplicateEntry {
        /// Present but pseudo-deleted.
        pseudo: bool,
    },
    /// Unique index only: a *different* RID already carries this key
    /// value. Nothing was changed; the caller arbitrates (§2.2.3).
    DuplicateKeyValue {
        /// The conflicting record.
        existing: Rid,
        /// Whether the conflicting key is pseudo-deleted.
        existing_pseudo: bool,
    },
}

/// State of a looked-up entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryState {
    /// Pseudo-deleted flag.
    pub pseudo_deleted: bool,
}

struct PathFrame {
    page: PageId,
    guard: ExclusiveGuard<PageBuf<Node>>,
}

/// The B+-tree.
pub struct BTree {
    /// Page store (page 0 is the anchor).
    pub cache: PageCache<Node>,
    cfg: BTreeConfig,
    /// Event counters.
    pub stats: BTreeStats,
    hint: Mutex<Option<PageId>>,
    /// Structure lock: every mutating operation holds it shared;
    /// [`BTree::force_all`] holds it exclusively for the instant at
    /// which it publishes a new durable image, so that image never
    /// captures a half-applied split. Per-entry content staleness
    /// across pages is fine — logical redo repairs it — but a torn
    /// *structure* (an internal page naming a never-forced child) would
    /// not be recoverable. A [`Latch`] with stats of its own, so time
    /// spent blocked on it is measured the way page-latch waits are.
    structure: Latch<()>,
    /// Serializes checkpointers (an IB checkpoint and an engine
    /// checkpoint may meet on one tree) and [`BTree::clear`] against
    /// them; never taken by readers or writers of the tree.
    force: Mutex<()>,
    /// Crash injection for this tree's own sites
    /// ([`FORCE_STAGED_FAILPOINT`]); disarmed unless a test arms it.
    pub failpoints: Failpoints,
}

impl BTree {
    /// Create a fresh tree: anchor + one empty leaf. Pages are
    /// `cfg.page_size` bytes; panics on a size [`BTreeConfig::check`]
    /// refuses.
    #[must_use]
    pub fn create(file: FileId, cfg: BTreeConfig) -> BTree {
        if let Err(e) = cfg.check() {
            panic!("{e}");
        }
        let cache = PageCache::new(file);
        let anchor = cache.allocate(Node::anchor(PageId(1), 1));
        debug_assert_eq!(anchor.id, PageId(0));
        let root = cache.allocate(Node::leaf(cfg.page_size));
        debug_assert_eq!(root.id, PageId(1));
        BTree {
            cache,
            cfg,
            stats: BTreeStats::default(),
            hint: Mutex::new(None),
            structure: Latch::new((), LatchStats::new()),
            force: Mutex::new(()),
            failpoints: FailpointSet::new(),
        }
    }

    /// Hold the structure lock shared for the duration of a mutating
    /// operation (no new durable image is published mid-split).
    pub(crate) fn structure_shared(&self) -> ShareRef<'_, ()> {
        self.structure.share()
    }

    /// Acquisition and wait counters of the structure lock. Its
    /// `wait_us` is the time writers spent blocked behind a checkpoint's
    /// publication (and the checkpoint behind writers).
    #[must_use]
    pub fn structure_stats(&self) -> &Arc<LatchStats> {
        self.structure.stats()
    }

    /// Configuration in force.
    #[must_use]
    pub fn config(&self) -> &BTreeConfig {
        &self.cfg
    }

    /// Is this a unique index?
    #[must_use]
    pub fn unique(&self) -> bool {
        self.cfg.unique
    }

    /// The anchor's root page and tree height.
    pub fn root(&self) -> Result<(PageId, u32)> {
        let anchor = self.cache.frame(PageId(0))?;
        let g = anchor.latch.share();
        match g.payload.kind() {
            Kind::Anchor => Ok((g.payload.root(), g.payload.height())),
            _ => Err(Error::Corruption("page 0 is not the anchor".into())),
        }
    }

    /// Reset the tree to empty (drop-index / cancel-build, §2.3.2).
    pub fn clear(&self) {
        // Exclude force_all for the duration: a concurrent engine
        // checkpoint must never capture a half-cleared tree.
        let _force = self.force.lock();
        let _structure = self.structure.exclusive();
        self.cache.truncate_from(PageId(1));
        let root = self.cache.allocate(Node::leaf(self.cfg.page_size));
        let anchor = self.cache.frame(PageId(0)).expect("anchor");
        anchor.latch.exclusive().payload.set_anchor(root.id, 1);
        *self.hint.lock() = None;
    }

    /// Force all dirty index pages (IB checkpoints and engine
    /// checkpoints), in two phases so that writers never wait for more
    /// than a handful of page references to be taken.
    ///
    /// Phase 1 holds no structure lock: each dirty page's bytes are
    /// referenced under its own S latch from the cache's volatile
    /// staging area, not copied (a writer's next change copies them);
    /// writers keep running and re-dirty what they touch. Phase 2 holds
    /// the structure lock exclusively: with every writer out of the
    /// tree it stages the few pages dirtied again meanwhile and
    /// publishes the whole staging area. At that instant every page's
    /// staged-or-durable image equals its volatile image, so the
    /// durable tree is structurally consistent; a crash any time
    /// before it leaves the previous checkpoint's image untouched.
    ///
    /// Phase 1 is as long as the tree is dirty, so it gives way between
    /// pages ([`mohan_common::pace`]): all it holds there is `force`,
    /// which only another checkpointer or [`BTree::clear`] waits for.
    /// Phase 2 must not: every writer of the tree waits for it.
    ///
    /// Both phases obey the WAL rule through `wal` (see
    /// [`PageCache::stage_dirty`]).
    pub fn force_all(&self, wal: impl WriteAhead) -> Result<()> {
        let _force = self.force.lock();
        let mut pacer = Ticker::new(OPS_PER_PACE);
        self.cache.stage_dirty(&wal, || pacer.tick())?;
        self.failpoints.hit(FORCE_STAGED_FAILPOINT)?;
        let _structure = self.structure.exclusive();
        self.cache.stage_dirty(&wal, || {})?;
        self.cache.publish_staged();
        Ok(())
    }

    // ----- descents -------------------------------------------------

    /// Share-mode descent to the leaf for `entry`.
    pub(crate) fn descend_s(
        &self,
        entry: &IndexEntry,
    ) -> Result<(PageId, ShareGuard<PageBuf<Node>>)> {
        self.stats.traversals.bump();
        let mut guard = self.cache.frame(PageId(0))?.latch.share_arc();
        loop {
            let next = guard.payload.down(entry)?;
            let child = self.cache.frame(next)?.latch.share_arc();
            if child.payload.is_leaf() {
                return Ok((next, child));
            }
            guard = child;
        }
    }

    /// Exclusive-mode crabbing descent. Returns the path of retained
    /// frames; the last is the leaf. Ancestors are retained only while
    /// the child below them might split; `leaf_capacity` is the split
    /// threshold the caller will use for the leaf (the fill target for
    /// IB inserts, the full page otherwise).
    fn descend_x_with(&self, entry: &IndexEntry, leaf_capacity: usize) -> Result<Vec<PathFrame>> {
        self.stats.traversals.bump();
        let mut path: Vec<PathFrame> = Vec::with_capacity(4);
        path.push(PathFrame {
            page: PageId(0),
            guard: self.cache.frame(PageId(0))?.latch.exclusive_arc(),
        });
        loop {
            let next = path
                .last()
                .expect("path nonempty")
                .guard
                .payload
                .down(entry)?;
            let guard = self.cache.frame(next)?.latch.exclusive_arc();
            let room = self.cfg.max_entry() + guard.payload.size();
            let safe = match guard.payload.kind() {
                Kind::Leaf => room <= leaf_capacity,
                Kind::Internal => room + 4 <= self.cfg.page_size,
                Kind::Anchor => return Err(Error::Corruption("anchor below root".into())),
            };
            if safe {
                path.clear();
            }
            let done = guard.payload.is_leaf();
            path.push(PathFrame { page: next, guard });
            if done {
                return Ok(path);
            }
        }
    }

    /// Exclusive descent with the ordinary (full-page) leaf threshold.
    fn descend_x(&self, entry: &IndexEntry) -> Result<Vec<PathFrame>> {
        self.descend_x_with(entry, self.cfg.page_size)
    }

    // ----- split machinery ------------------------------------------

    /// Split the leaf at the top of `path` around `entry`, which is
    /// absent from it, and insert the entry into its half. `path` must
    /// still contain the leaf's retained ancestors. `ib` selects the
    /// specialized split. Returns the page the entry landed on.
    fn split_leaf_and_insert(
        &self,
        mut path: Vec<PathFrame>,
        entry: &IndexEntry,
        pseudo: bool,
        ib: bool,
    ) -> Result<PageId> {
        let mut leaf_frame = path.pop().expect("leaf frame");
        let leaf = &leaf_frame.guard.payload;
        if !leaf.is_leaf() {
            return Err(Error::Corruption("split target not a leaf".into()));
        }
        let pos = leaf.search(entry).unwrap_or_else(|p| p);
        let cell = node::cell(entry, pseudo, None);
        let prefer = if ib {
            // Move only the keys higher than the one being inserted
            // (they must have come from transactions); if there are
            // none, open a fresh leaf for the new key (§2.3.1).
            self.stats.ib_splits.bump();
            Prefer::HigherKeysOnly
        } else {
            self.stats.splits.bump();
            Prefer::Half
        };
        let at = leaf.split_point(pos, &cell, prefer, self.cfg.unique)?;
        let (mut left, sep, right) = leaf.split(pos, &cell, at)?;
        // The right page is complete before anyone can reach it: readers
        // find it through the left page's chain pointer, which is set
        // under the left page's X latch, or through the parent.
        let new_page = self.cache.allocate(right).id;
        left.set_next(Some(new_page));
        leaf_frame.guard.payload = left;
        let left_page = leaf_frame.page;
        drop(leaf_frame);
        self.insert_separator(path, left_page, sep, new_page)?;
        Ok(if pos < at { left_page } else { new_page })
    }

    /// Propagate a split: link `(sep, new_child)` to the right of
    /// `left_child` in its parent, splitting upward as needed.
    fn insert_separator(
        &self,
        mut path: Vec<PathFrame>,
        left_child: PageId,
        sep: IndexEntry,
        new_child: PageId,
    ) -> Result<()> {
        let Some(mut parent) = path.pop() else {
            return Err(Error::Corruption(
                "split cascaded past retained path".into(),
            ));
        };
        let node = &mut parent.guard.payload;
        match node.kind() {
            Kind::Anchor => {
                // Root split: grow the tree.
                debug_assert_eq!(node.root(), left_child);
                let mut root = Node::internal(self.cfg.page_size, left_child);
                root.insert_sep(0, &sep, new_child)?;
                let new_root = self.cache.allocate(root);
                let height = node.height();
                node.set_anchor(new_root.id, height + 1);
                Ok(())
            }
            Kind::Internal => {
                let pos = node
                    .child_pos(left_child)
                    .ok_or_else(|| Error::Corruption("lost child during split".into()))?;
                if node.size() + Node::sep_cost(&sep) <= self.cfg.page_size {
                    return node.insert_sep(pos, &sep, new_child);
                }
                // Split this internal node: one separator moves up.
                let cell = node::cell(&sep, false, Some(new_child));
                let at = node.split_point(pos, &cell, Prefer::Half, false)?;
                let (left, up, right) = node.split(pos, &cell, at)?;
                let new_node = self.cache.allocate(right).id;
                parent.guard.payload = left;
                let left_page = parent.page;
                drop(parent);
                self.insert_separator(path, left_page, up, new_node)
            }
            Kind::Leaf => Err(Error::Corruption("leaf as split parent".into())),
        }
    }

    // ----- inserts ---------------------------------------------------

    pub(crate) fn check_entry_size(&self, entry: &IndexEntry) -> Result<()> {
        if entry.encoded_size() + 1 > self.cfg.max_entry() {
            return Err(Error::Corruption(format!(
                "key of {} bytes exceeds max entry size {}",
                entry.encoded_size(),
                self.cfg.max_entry()
            )));
        }
        Ok(())
    }

    /// Try the remembered-path hint: returns `Some(path)` positioned at
    /// the hinted leaf if the entry provably belongs there and fits.
    fn try_hint(&self, entry: &IndexEntry) -> Option<Vec<PathFrame>> {
        if !self.cfg.hint_enabled {
            return None;
        }
        let page = (*self.hint.lock())?;
        let guard = self.cache.frame(page).ok()?.latch.exclusive_arc();
        let leaf = &guard.payload;
        // The hinted path holds no ancestors, so it must never split:
        // reject leaves at the IB fill target and fall back to a full
        // crabbing descent.
        if !leaf.is_leaf()
            || leaf.count() == 0
            || leaf.size() + Node::leaf_cost(entry) > self.cfg.fill_target()
            || leaf.entry(0).cmp_entry(entry).is_gt()
        {
            return None;
        }
        // The high fence is frozen at split time, so this containment
        // check stays sound even after physical deletes shuffle the
        // neighbours' first keys.
        if leaf
            .high_fence()
            .is_some_and(|f| f.cmp_entry(entry).is_le())
        {
            return None;
        }
        self.stats.remembered_hits.bump();
        Some(vec![PathFrame { page, guard }])
    }

    /// Insert `entry` (live). See [`InsertOutcome`] for the cases.
    pub fn insert(&self, entry: IndexEntry, mode: InsertMode) -> Result<InsertOutcome> {
        let _structure = self.structure_shared();
        self.check_entry_size(&entry)?;
        let mut path = match mode {
            InsertMode::Ib => self
                .try_hint(&entry)
                .map_or_else(|| self.descend_x_with(&entry, self.cfg.fill_target()), Ok)?,
            InsertMode::Transaction => self.descend_x(&entry)?,
        };
        let leaf = path.last_mut().expect("leaf");
        let leaf_page = leaf.page;

        // Duplicate / uniqueness checks under the leaf latch.
        let pos = match leaf.guard.payload.search(&entry) {
            Ok(i) => {
                let pseudo = leaf.guard.payload.entry(i).pseudo;
                self.stats.duplicate_rejects.bump();
                return Ok(InsertOutcome::DuplicateEntry { pseudo });
            }
            Err(pos) => pos,
        };
        if self.cfg.unique {
            if let Some((rid, pseudo)) = find_key_conflict(&leaf.guard.payload, &entry) {
                return Ok(InsertOutcome::DuplicateKeyValue {
                    existing: rid,
                    existing_pseudo: pseudo,
                });
            }
        }

        let threshold = match mode {
            InsertMode::Ib => self.cfg.fill_target(),
            InsertMode::Transaction => self.cfg.page_size,
        };
        let landed = if leaf.guard.payload.size() + Node::leaf_cost(&entry) <= threshold {
            leaf.guard.payload.insert(pos, &entry, false)?;
            leaf_page
        } else {
            self.split_leaf_and_insert(path, &entry, false, mode == InsertMode::Ib)?
        };
        self.stats.inserts.bump();
        if mode == InsertMode::Ib {
            *self.hint.lock() = Some(landed);
        }
        Ok(InsertOutcome::Inserted)
    }

    // ----- flag operations ------------------------------------------

    /// Set or clear the pseudo-deleted flag of the exact entry.
    /// Returns whether the entry was found.
    pub fn set_pseudo(&self, entry: &IndexEntry, pseudo: bool) -> Result<bool> {
        let _structure = self.structure_shared();
        let mut path = self.descend_x(entry)?;
        let leaf = &mut path.last_mut().expect("leaf").guard.payload;
        let Ok(i) = leaf.search(entry) else {
            return Ok(false);
        };
        if leaf.entry(i).pseudo != pseudo {
            leaf.set_pseudo(i, pseudo);
            if pseudo {
                self.stats.pseudo_deletes.bump();
            } else {
                self.stats.reactivations.bump();
            }
        }
        Ok(true)
    }

    /// Deleter path: mark the exact entry pseudo-deleted, or plant a
    /// pseudo-deleted tombstone if it is absent (§2.2.3). Returns
    /// `true` if the key existed (marked), `false` if a tombstone was
    /// inserted.
    pub fn pseudo_delete_or_tombstone(&self, entry: &IndexEntry) -> Result<bool> {
        let _structure = self.structure_shared();
        let mut path = self.descend_x(entry)?;
        let leaf = &mut path.last_mut().expect("leaf").guard.payload;
        match leaf.search(entry) {
            Ok(i) => {
                leaf.set_pseudo(i, true);
                self.stats.pseudo_deletes.bump();
                Ok(true)
            }
            Err(pos) => {
                if leaf.size() + Node::leaf_cost(entry) <= self.cfg.page_size {
                    leaf.insert(pos, entry, true)?;
                } else {
                    self.split_leaf_and_insert(path, entry, true, false)?;
                }
                self.stats.tombstones.bump();
                Ok(false)
            }
        }
    }

    /// Physically remove the exact entry (GC, drain deletes, cancel).
    pub fn physical_delete(&self, entry: &IndexEntry) -> Result<bool> {
        self.remove_if(entry, |_| true)
    }

    /// Physically remove the exact entry only if it is still live.
    /// The IB's batch-insert undo goes through here: an entry a
    /// committed deleter has pseudo-deleted since the IB inserted it
    /// is that deleter's tombstone — removing it would let the
    /// resumed IB re-insert the stale key (§2.2.3) — so it stays.
    /// Returns `true` if the entry was removed.
    pub fn physical_delete_if_live(&self, entry: &IndexEntry) -> Result<bool> {
        self.remove_if(entry, |pseudo| !pseudo)
    }

    /// Remove the exact entry if present and `when` accepts its
    /// pseudo-deleted flag.
    fn remove_if(&self, entry: &IndexEntry, when: impl Fn(bool) -> bool) -> Result<bool> {
        let _structure = self.structure_shared();
        let mut path = self.descend_x(entry)?;
        let leaf = &mut path.last_mut().expect("leaf").guard.payload;
        match leaf.search(entry) {
            Ok(i) if when(leaf.entry(i).pseudo) => {
                leaf.remove(i);
                self.stats.physical_deletes.bump();
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Unique-index repair from the paper's example (§2.2.3 item 9):
    /// the committed-dead pseudo entry `<key, old_rid>` is replaced by
    /// a live `<key, new_rid>` in place.
    pub fn unique_replace(&self, key: &KeyValue, old_rid: Rid, new_rid: Rid) -> Result<bool> {
        let _structure = self.structure_shared();
        let probe = IndexEntry::new(key.clone(), old_rid);
        let mut path = self.descend_x(&probe)?;
        let leaf = &mut path.last_mut().expect("leaf").guard.payload;
        let Ok(i) = leaf.search(&probe) else {
            return Ok(false);
        };
        leaf.remove(i);
        let fresh = IndexEntry::new(key.clone(), new_rid);
        let pos = leaf.search(&fresh).unwrap_or_else(|p| p);
        leaf.insert(pos, &fresh, false)?;
        self.stats.reactivations.bump();
        Ok(true)
    }

    // ----- lookups ---------------------------------------------------

    /// Look up the exact entry.
    pub fn lookup_exact(&self, entry: &IndexEntry) -> Result<Option<EntryState>> {
        let (_, guard) = self.descend_s(entry)?;
        Ok(guard.payload.search(entry).ok().map(|i| EntryState {
            pseudo_deleted: guard.payload.entry(i).pseudo,
        }))
    }

    /// All `(RID, pseudo)` pairs carrying `key`, in RID order. Walks
    /// right across leaves with share-latch coupling.
    pub fn lookup_key_group(&self, key: &KeyValue) -> Result<Vec<(Rid, bool)>> {
        let mut cur = LeafCursor::seek_key(self, key)?;
        let mut out = Vec::new();
        while let Some(e) = cur.next_entry()? {
            if e.key != key.as_bytes() {
                break;
            }
            out.push((e.rid, e.pseudo));
        }
        Ok(out)
    }
}

/// Find a live-or-pseudo entry in `leaf` with the same key value but a
/// different RID (unique-index conflict). Thanks to the leaf-local
/// group invariant, the leaf alone is authoritative. Prefers a live
/// conflict over a pseudo-deleted one.
fn find_key_conflict(leaf: &Node, entry: &IndexEntry) -> Option<(Rid, bool)> {
    let mut pseudo_hit: Option<(Rid, bool)> = None;
    for i in leaf.lower_bound(&entry.key)..leaf.count() {
        let le = leaf.entry(i);
        if le.key != entry.key.as_bytes() {
            break;
        }
        if le.rid != entry.rid {
            if le.pseudo {
                pseudo_hit.get_or_insert((le.rid, true));
            } else {
                return Some((le.rid, false));
            }
        }
    }
    pseudo_hit
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn cfg(unique: bool) -> BTreeConfig {
        BTreeConfig {
            page_size: 256,
            fill_factor: 0.9,
            unique,
            hint_enabled: true,
        }
    }

    fn tree(unique: bool) -> BTree {
        BTree::create(FileId(10), cfg(unique))
    }

    fn e(k: i64, page: u32, slot: u16) -> IndexEntry {
        IndexEntry::from_i64(k, Rid::new(page, slot))
    }

    #[test]
    fn insert_and_lookup_small() {
        let t = tree(false);
        for k in [5i64, 1, 9, 3] {
            assert_eq!(
                t.insert(e(k, 1, k as u16), InsertMode::Transaction)
                    .unwrap(),
                InsertOutcome::Inserted
            );
        }
        assert_eq!(
            t.lookup_exact(&e(5, 1, 5)).unwrap(),
            Some(EntryState {
                pseudo_deleted: false
            })
        );
        assert_eq!(t.lookup_exact(&e(7, 1, 7)).unwrap(), None);
    }

    #[test]
    fn physical_delete_if_live_spares_tombstones() {
        let t = tree(false);
        t.insert(e(5, 1, 1), InsertMode::Transaction).unwrap();
        t.insert(e(7, 1, 2), InsertMode::Transaction).unwrap();
        // 5 gets pseudo-deleted (a committed deleter's tombstone):
        // the conditional delete must leave it in place.
        t.set_pseudo(&e(5, 1, 1), true).unwrap();
        assert!(!t.physical_delete_if_live(&e(5, 1, 1)).unwrap());
        assert_eq!(
            t.lookup_exact(&e(5, 1, 1)).unwrap(),
            Some(EntryState {
                pseudo_deleted: true
            })
        );
        // 7 is live: removed outright.
        assert!(t.physical_delete_if_live(&e(7, 1, 2)).unwrap());
        assert_eq!(t.lookup_exact(&e(7, 1, 2)).unwrap(), None);
        // Absent entries report false.
        assert!(!t.physical_delete_if_live(&e(9, 1, 3)).unwrap());
    }

    #[test]
    fn exact_duplicate_rejected() {
        let t = tree(false);
        t.insert(e(5, 1, 1), InsertMode::Transaction).unwrap();
        assert_eq!(
            t.insert(e(5, 1, 1), InsertMode::Ib).unwrap(),
            InsertOutcome::DuplicateEntry { pseudo: false }
        );
        assert_eq!(t.stats.duplicate_rejects.get(), 1);
    }

    #[test]
    fn nonunique_same_key_different_rid_ok() {
        let t = tree(false);
        t.insert(e(5, 1, 1), InsertMode::Transaction).unwrap();
        assert_eq!(
            t.insert(e(5, 1, 2), InsertMode::Transaction).unwrap(),
            InsertOutcome::Inserted
        );
        let group = t.lookup_key_group(&KeyValue::from_i64(5)).unwrap();
        assert_eq!(group.len(), 2);
    }

    #[test]
    fn unique_conflict_reported_not_inserted() {
        let t = tree(true);
        t.insert(e(5, 1, 1), InsertMode::Transaction).unwrap();
        let out = t.insert(e(5, 2, 2), InsertMode::Transaction).unwrap();
        assert_eq!(
            out,
            InsertOutcome::DuplicateKeyValue {
                existing: Rid::new(1, 1),
                existing_pseudo: false
            }
        );
        assert_eq!(t.lookup_key_group(&KeyValue::from_i64(5)).unwrap().len(), 1);
    }

    #[test]
    fn unique_conflict_with_pseudo_reports_pseudo() {
        let t = tree(true);
        t.insert(e(5, 1, 1), InsertMode::Transaction).unwrap();
        t.set_pseudo(&e(5, 1, 1), true).unwrap();
        let out = t.insert(e(5, 2, 2), InsertMode::Transaction).unwrap();
        assert_eq!(
            out,
            InsertOutcome::DuplicateKeyValue {
                existing: Rid::new(1, 1),
                existing_pseudo: true
            }
        );
    }

    #[test]
    fn unique_replace_swaps_rid() {
        let t = tree(true);
        t.insert(e(5, 1, 1), InsertMode::Transaction).unwrap();
        t.set_pseudo(&e(5, 1, 1), true).unwrap();
        assert!(t
            .unique_replace(&KeyValue::from_i64(5), Rid::new(1, 1), Rid::new(9, 9))
            .unwrap());
        assert_eq!(t.lookup_exact(&e(5, 1, 1)).unwrap(), None);
        assert_eq!(
            t.lookup_exact(&e(5, 9, 9)).unwrap(),
            Some(EntryState {
                pseudo_deleted: false
            })
        );
    }

    #[test]
    fn pseudo_delete_and_reactivate() {
        let t = tree(false);
        t.insert(e(7, 1, 1), InsertMode::Transaction).unwrap();
        assert!(t.pseudo_delete_or_tombstone(&e(7, 1, 1)).unwrap());
        assert_eq!(
            t.lookup_exact(&e(7, 1, 1)).unwrap(),
            Some(EntryState {
                pseudo_deleted: true
            })
        );
        // Insert of the exact pseudo entry is *rejected* (caller must
        // reactivate explicitly).
        assert_eq!(
            t.insert(e(7, 1, 1), InsertMode::Transaction).unwrap(),
            InsertOutcome::DuplicateEntry { pseudo: true }
        );
        assert!(t.set_pseudo(&e(7, 1, 1), false).unwrap());
        assert_eq!(
            t.lookup_exact(&e(7, 1, 1)).unwrap(),
            Some(EntryState {
                pseudo_deleted: false
            })
        );
    }

    #[test]
    fn tombstone_planted_when_absent() {
        let t = tree(false);
        assert!(!t.pseudo_delete_or_tombstone(&e(3, 1, 1)).unwrap());
        assert_eq!(
            t.lookup_exact(&e(3, 1, 1)).unwrap(),
            Some(EntryState {
                pseudo_deleted: true
            })
        );
        assert_eq!(t.stats.tombstones.get(), 1);
    }

    #[test]
    fn physical_delete_removes() {
        let t = tree(false);
        t.insert(e(1, 1, 1), InsertMode::Transaction).unwrap();
        assert!(t.physical_delete(&e(1, 1, 1)).unwrap());
        assert!(!t.physical_delete(&e(1, 1, 1)).unwrap());
        assert_eq!(t.lookup_exact(&e(1, 1, 1)).unwrap(), None);
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let t = tree(false);
        let mut keys: Vec<i64> = (0..2000).collect();
        let mut rng = StdRng::seed_from_u64(5);
        keys.shuffle(&mut rng);
        for &k in &keys {
            t.insert(
                e(k, (k / 100) as u32, (k % 100) as u16),
                InsertMode::Transaction,
            )
            .unwrap();
        }
        assert!(t.stats.splits.get() > 10);
        for &k in &keys {
            assert!(t
                .lookup_exact(&e(k, (k / 100) as u32, (k % 100) as u16))
                .unwrap()
                .is_some());
        }
    }

    #[test]
    fn ib_mode_uses_hint_for_ascending_keys() {
        let t = tree(false);
        for k in 0..500i64 {
            t.insert(e(k, 1, k as u16), InsertMode::Ib).unwrap();
        }
        assert!(
            t.stats.remembered_hits.get() > 400,
            "hint hits {} too low",
            t.stats.remembered_hits.get()
        );
        assert!(t.stats.traversals.get() < 100);
    }

    #[test]
    fn ib_split_moves_only_higher_keys() {
        // Fill one leaf with interleaved transaction keys, then IB
        // inserts in the middle: the split must move only higher keys.
        let t = tree(false);
        for k in (0..20i64).map(|x| x * 10) {
            t.insert(e(k, 1, k as u16), InsertMode::Transaction)
                .unwrap();
        }
        let splits_before = t.stats.splits.get();
        // Force IB inserts until an IB split happens.
        let mut k = 1i64;
        while t.stats.ib_splits.get() == 0 {
            t.insert(e(k, 2, k as u16), InsertMode::Ib).unwrap();
            k += 2;
        }
        assert_eq!(
            t.stats.splits.get(),
            splits_before,
            "no normal splits by IB"
        );
        // Everything is still sorted & present.
        let group: Vec<i64> = crate::scan::collect_all(&t, true)
            .unwrap()
            .iter()
            .map(|(e, _)| e.key.first_i64().unwrap())
            .collect();
        let mut sorted = group.clone();
        sorted.sort_unstable();
        assert_eq!(group, sorted);
    }

    #[test]
    fn unique_groups_never_split_across_leaves() {
        let t = tree(true);
        // Build a unique tree with several transient pseudo entries of
        // the same key value, forcing splits around them.
        for k in 0..200i64 {
            t.insert(e(k, 1, k as u16), InsertMode::Transaction)
                .unwrap();
        }
        // A burst of tombstones with one key value.
        for slot in 0..4u16 {
            let probe = e(100, 7, slot);
            t.pseudo_delete_or_tombstone(&probe).unwrap();
        }
        for k in 200..400i64 {
            t.insert(e(k, 1, (k % 100) as u16), InsertMode::Transaction)
                .unwrap();
        }
        let group = t.lookup_key_group(&KeyValue::from_i64(100)).unwrap();
        assert_eq!(group.len(), 5); // original + 4 tombstones
        crate::scan::verify_structure(&t).unwrap();
    }

    #[test]
    fn oversized_key_rejected() {
        let t = tree(false);
        let big = IndexEntry::new(KeyValue(vec![7u8; 300]), Rid::new(1, 1));
        assert!(t.insert(big, InsertMode::Transaction).is_err());
    }

    #[test]
    fn clear_resets_tree() {
        let t = tree(false);
        for k in 0..100i64 {
            t.insert(e(k, 1, 1), InsertMode::Transaction).unwrap();
        }
        t.clear();
        assert_eq!(t.lookup_exact(&e(5, 1, 1)).unwrap(), None);
        t.insert(e(5, 1, 1), InsertMode::Transaction).unwrap();
        assert!(t.lookup_exact(&e(5, 1, 1)).unwrap().is_some());
    }

    #[test]
    fn concurrent_inserts_from_many_threads() {
        use std::sync::Arc;
        let t = Arc::new(tree(false));
        let mut handles = Vec::new();
        for th in 0..8u32 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for k in 0..500i64 {
                    t.insert(e(k, th, k as u16), InsertMode::Transaction)
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for th in 0..8u32 {
            for k in (0..500i64).step_by(97) {
                assert!(t.lookup_exact(&e(k, th, k as u16)).unwrap().is_some());
            }
        }
        crate::scan::verify_structure(&t).unwrap();
        assert_eq!(crate::scan::collect_all(&t, true).unwrap().len(), 4000);
    }
}
