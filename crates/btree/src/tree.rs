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

use crate::node::{LeafEntry, Node};
use mohan_common::failpoint::{FailpointSet, Failpoints};
use mohan_common::pace::{Ticker, OPS_PER_PACE};
use mohan_common::stats::Counter;
use mohan_common::{Error, FileId, IndexEntry, KeyValue, Lsn, PageId, Result, Rid};
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
    /// (ablation switch for experiment E3).
    pub hint_enabled: bool,
}

impl BTreeConfig {
    fn max_entry(&self) -> usize {
        self.page_size / 4
    }

    fn fill_target(&self) -> usize {
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
    /// Create a fresh tree: anchor + one empty leaf.
    #[must_use]
    pub fn create(file: FileId, cfg: BTreeConfig) -> BTree {
        let cache = PageCache::new(file);
        let anchor = cache.allocate(Node::Anchor {
            root: PageId(1),
            height: 1,
        });
        debug_assert_eq!(anchor.id, PageId(0));
        let root = cache.allocate(Node::empty_leaf());
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

    /// Reset the tree to empty (drop-index / cancel-build, §2.3.2).
    pub fn clear(&self) {
        // Exclude force_all for the duration: a concurrent engine
        // checkpoint must never capture a half-cleared tree.
        let _force = self.force.lock();
        let _structure = self.structure.exclusive();
        self.cache.truncate_from(PageId(1));
        let root = self.cache.allocate(Node::empty_leaf());
        let anchor = self.cache.frame(PageId(0)).expect("anchor");
        let mut g = anchor.latch.exclusive();
        g.payload = Node::Anchor {
            root: root.id,
            height: 1,
        };
        *self.hint.lock() = None;
    }

    /// Force all dirty index pages (IB checkpoints and engine
    /// checkpoints), in two phases so that writers never wait for more
    /// than a handful of page encodes.
    ///
    /// Phase 1 holds no structure lock: each dirty page is encoded
    /// under its own S latch into the cache's volatile staging area;
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
    pub fn force_all(&self, flushed: Lsn) -> Result<()> {
        let _force = self.force.lock();
        let mut pacer = Ticker::new(OPS_PER_PACE);
        self.cache.stage_dirty(flushed, || pacer.tick())?;
        self.failpoints.hit(FORCE_STAGED_FAILPOINT)?;
        let _structure = self.structure.exclusive();
        self.cache.stage_dirty(flushed, || {})?;
        self.cache.publish_staged();
        Ok(())
    }

    // ----- descents -------------------------------------------------

    /// Share-mode descent to the leaf for `entry`.
    fn descend_s(&self, entry: &IndexEntry) -> Result<(PageId, ShareGuard<PageBuf<Node>>)> {
        self.stats.traversals.bump();
        let anchor = self.cache.frame(PageId(0))?;
        let mut guard = anchor.latch.share_arc();
        loop {
            let next = match &guard.payload {
                Node::Anchor { root, .. } => *root,
                Node::Internal { children, .. } => children[guard.payload.route(entry)],
                Node::Leaf { .. } => {
                    // `guard` already is the leaf; find its id by
                    // re-deriving below. Leaf reached only via child
                    // hop which returns early, so this arm is
                    // unreachable in practice.
                    unreachable!("leaf reached without page id")
                }
            };
            let frame = self.cache.frame(next)?;
            let child = frame.latch.share_arc();
            if matches!(child.payload, Node::Leaf { .. }) {
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
        let anchor = self.cache.frame(PageId(0))?;
        let g = anchor.latch.exclusive_arc();
        path.push(PathFrame {
            page: PageId(0),
            guard: g,
        });
        loop {
            let (next, is_last_internal_hop) = {
                let top = &path.last().expect("path nonempty").guard.payload;
                match top {
                    Node::Anchor { root, .. } => (*root, false),
                    Node::Internal { children, .. } => (children[top.route(entry)], false),
                    Node::Leaf { .. } => return Ok(path),
                }
            };
            let _ = is_last_internal_hop;
            let frame = self.cache.frame(next)?;
            let guard = frame.latch.exclusive_arc();
            let safe = match &guard.payload {
                Node::Leaf { .. } => guard.payload.size() + self.cfg.max_entry() <= leaf_capacity,
                Node::Internal { .. } => {
                    guard.payload.size() + self.cfg.max_entry() + 4 <= self.cfg.page_size
                }
                Node::Anchor { .. } => return Err(Error::Corruption("anchor below root".into())),
            };
            if safe {
                path.clear();
            }
            let done = matches!(guard.payload, Node::Leaf { .. });
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

    /// Split point by accumulated byte size (half split).
    fn half_split_point(entries: &[LeafEntry]) -> usize {
        let total: usize = entries.iter().map(LeafEntry::size).sum();
        let mut acc = 0;
        for (i, le) in entries.iter().enumerate() {
            acc += le.size();
            if acc * 2 >= total {
                return (i + 1).min(entries.len() - 1).max(1);
            }
        }
        entries.len() / 2
    }

    /// Adjust a split point outward so it does not cut an equal-key run
    /// (unique indexes keep key-value groups leaf-local).
    fn adjust_for_unique(entries: &[LeafEntry], at: usize) -> Result<usize> {
        if at == 0 || at >= entries.len() {
            return Ok(at.clamp(1, entries.len().saturating_sub(1).max(1)));
        }
        let key = &entries[at - 1].entry.key;
        if entries[at].entry.key != *key {
            return Ok(at);
        }
        // Try moving right past the run, then left before it.
        let right = entries[at..]
            .iter()
            .position(|e| e.entry.key != *key)
            .map(|o| at + o);
        if let Some(r) = right {
            if r < entries.len() {
                return Ok(r);
            }
        }
        let left = entries[..at]
            .iter()
            .rposition(|e| e.entry.key != *key)
            .map(|o| o + 1);
        if let Some(l) = left {
            if l > 0 {
                return Ok(l);
            }
        }
        Err(Error::Corruption(
            "equal-key run fills an entire leaf of a unique index".into(),
        ))
    }

    /// Split the leaf at the top of `path`, then insert `le` into the
    /// proper half. `path` must still contain the leaf's retained
    /// ancestors. `ib` selects the specialized split.
    fn split_leaf_and_insert(
        &self,
        mut path: Vec<PathFrame>,
        le: LeafEntry,
        ib: bool,
    ) -> Result<PageId> {
        let mut leaf_frame = path.pop().expect("leaf frame");
        let (mut left_entries, old_next, old_fence) = match &mut leaf_frame.guard.payload {
            Node::Leaf {
                entries,
                next,
                high_fence,
            } => (std::mem::take(entries), *next, high_fence.take()),
            _ => return Err(Error::Corruption("split target not a leaf".into())),
        };

        let pos = left_entries.partition_point(|e| e.entry < le.entry);
        let mut split_at = if ib {
            self.stats.ib_splits.bump();
            // Move only the keys higher than the one being inserted
            // (they must have come from transactions); if there are
            // none, open a fresh leaf for the new key (§2.3.1).
            pos
        } else {
            self.stats.splits.bump();
            Self::half_split_point(&left_entries)
        };
        if self.cfg.unique && !ib {
            split_at = Self::adjust_for_unique(&left_entries, split_at)?;
        }
        let right_entries: Vec<LeafEntry> = left_entries.split_off(split_at);
        if let Node::Leaf { entries, .. } = &mut leaf_frame.guard.payload {
            *entries = left_entries;
        }

        let _ = pos;
        let new_frame = self.cache.allocate(Node::Leaf {
            entries: right_entries,
            next: old_next,
            high_fence: old_fence,
        });
        let new_page = new_frame.id;

        // Decide which side receives the new entry, insert it, and
        // derive the separator from the right page's final contents.
        // The fresh page is unreachable by others until the parent and
        // chain pointers are updated, so latching it here cannot
        // deadlock.
        let (sep, target) = {
            let mut right = new_frame.latch.exclusive();
            let goes_right = match right.payload.leaf_entries().first() {
                Some(first) => le.entry >= first.entry,
                None => true, // IB append split: fresh leaf takes it
            };
            if goes_right {
                if let Node::Leaf { entries, .. } = &mut right.payload {
                    let p = entries.partition_point(|e| e.entry < le.entry);
                    entries.insert(p, le.clone());
                }
            } else if let Node::Leaf { entries, .. } = &mut leaf_frame.guard.payload {
                let p = entries.partition_point(|e| e.entry < le.entry);
                entries.insert(p, le.clone());
            }
            let sep = right
                .payload
                .leaf_entries()
                .first()
                .map(|e| e.entry.clone())
                .ok_or_else(|| Error::Corruption("empty right split".into()))?;
            let target = if goes_right {
                new_page
            } else {
                leaf_frame.page
            };
            (sep, target)
        };

        // Fix the chain and freeze the left page's new upper bound.
        if let Node::Leaf {
            next, high_fence, ..
        } = &mut leaf_frame.guard.payload
        {
            *next = Some(new_page);
            *high_fence = Some(sep.clone());
        }
        let left_page = leaf_frame.page;
        drop(leaf_frame);

        self.insert_separator(path, left_page, sep, new_page)?;
        Ok(target)
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
        match &mut parent.guard.payload {
            Node::Anchor { root, height } => {
                // Root split: grow the tree.
                debug_assert_eq!(*root, left_child);
                let new_root = self.cache.allocate(Node::Internal {
                    seps: vec![sep],
                    children: vec![left_child, new_child],
                });
                *root = new_root.id;
                *height += 1;
                Ok(())
            }
            Node::Internal { seps, children } => {
                let idx = children
                    .iter()
                    .position(|&c| c == left_child)
                    .ok_or_else(|| Error::Corruption("lost child during split".into()))?;
                seps.insert(idx, sep);
                children.insert(idx + 1, new_child);
                if parent.guard.payload.size() <= self.cfg.page_size {
                    return Ok(());
                }
                // Split this internal node: middle separator moves up.
                let (mut lseps, mut lchildren) = match &mut parent.guard.payload {
                    Node::Internal { seps, children } => {
                        (std::mem::take(seps), std::mem::take(children))
                    }
                    _ => unreachable!(),
                };
                let mid = lseps.len() / 2;
                let up = lseps[mid].clone();
                let rseps = lseps.split_off(mid + 1);
                lseps.pop(); // `up` moves up, not right
                let rchildren = lchildren.split_off(mid + 1);
                let new_node = self.cache.allocate(Node::Internal {
                    seps: rseps,
                    children: rchildren,
                });
                parent.guard.payload = Node::Internal {
                    seps: lseps,
                    children: lchildren,
                };
                let left_page = parent.page;
                drop(parent);
                self.insert_separator(path, left_page, up, new_node.id)
            }
            Node::Leaf { .. } => Err(Error::Corruption("leaf as split parent".into())),
        }
    }

    // ----- inserts ---------------------------------------------------

    fn check_entry_size(&self, entry: &IndexEntry) -> Result<()> {
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
        let frame = self.cache.frame(page).ok()?;
        let guard = frame.latch.exclusive_arc();
        // The hinted path holds no ancestors, so it must never split:
        // reject leaves at the IB fill target and fall back to a full
        // crabbing descent.
        let fits = guard.payload.size() + entry.encoded_size() < self.cfg.fill_target();
        match &guard.payload {
            Node::Leaf {
                entries,
                high_fence,
                ..
            } => {
                let first = entries.first()?;
                if *entry < first.entry || !fits {
                    return None;
                }
                // The high fence is frozen at split time, so this
                // containment check stays sound even after physical
                // deletes shuffle the neighbours' first keys.
                if let Some(fence) = high_fence {
                    if *entry >= *fence {
                        return None;
                    }
                }
                self.stats.remembered_hits.bump();
                Some(vec![PathFrame { page, guard }])
            }
            _ => None,
        }
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
        match leaf.guard.payload.leaf_search(&entry) {
            Ok(i) => {
                let pseudo = leaf.guard.payload.leaf_entries()[i].pseudo_deleted;
                self.stats.duplicate_rejects.bump();
                return Ok(InsertOutcome::DuplicateEntry { pseudo });
            }
            Err(_) => {
                if self.cfg.unique {
                    if let Some((rid, pseudo)) = find_key_conflict(&leaf.guard.payload, &entry) {
                        return Ok(InsertOutcome::DuplicateKeyValue {
                            existing: rid,
                            existing_pseudo: pseudo,
                        });
                    }
                }
            }
        }

        let le = LeafEntry::live(entry);
        let threshold = match mode {
            InsertMode::Ib => self.cfg.fill_target(),
            InsertMode::Transaction => self.cfg.page_size,
        };
        let landed = if leaf.guard.payload.size() + le.size() <= threshold {
            let pos = match leaf.guard.payload.leaf_search(&le.entry) {
                Err(p) => p,
                Ok(_) => unreachable!("checked above"),
            };
            if let Node::Leaf { entries, .. } = &mut leaf.guard.payload {
                entries.insert(pos, le);
            }
            leaf_page
        } else {
            self.split_leaf_and_insert(path, le, mode == InsertMode::Ib)?
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
        let leaf = path.last_mut().expect("leaf");
        match leaf.guard.payload.leaf_search(entry) {
            Ok(i) => {
                if let Node::Leaf { entries, .. } = &mut leaf.guard.payload {
                    if entries[i].pseudo_deleted != pseudo {
                        entries[i].pseudo_deleted = pseudo;
                        if pseudo {
                            self.stats.pseudo_deletes.bump();
                        } else {
                            self.stats.reactivations.bump();
                        }
                    }
                }
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }

    /// Deleter path: mark the exact entry pseudo-deleted, or plant a
    /// pseudo-deleted tombstone if it is absent (§2.2.3). Returns
    /// `true` if the key existed (marked), `false` if a tombstone was
    /// inserted.
    pub fn pseudo_delete_or_tombstone(&self, entry: &IndexEntry) -> Result<bool> {
        let _structure = self.structure_shared();
        let mut path = self.descend_x(entry)?;
        let leaf = path.last_mut().expect("leaf");
        match leaf.guard.payload.leaf_search(entry) {
            Ok(i) => {
                if let Node::Leaf { entries, .. } = &mut leaf.guard.payload {
                    entries[i].pseudo_deleted = true;
                }
                self.stats.pseudo_deletes.bump();
                Ok(true)
            }
            Err(pos) => {
                let le = LeafEntry::tombstone(entry.clone());
                if leaf.guard.payload.size() + le.size() <= self.cfg.page_size {
                    if let Node::Leaf { entries, .. } = &mut leaf.guard.payload {
                        entries.insert(pos, le);
                    }
                } else {
                    self.split_leaf_and_insert(path, le, false)?;
                }
                self.stats.tombstones.bump();
                Ok(false)
            }
        }
    }

    /// Physically remove the exact entry (GC, drain deletes, cancel).
    pub fn physical_delete(&self, entry: &IndexEntry) -> Result<bool> {
        let _structure = self.structure_shared();
        let mut path = self.descend_x(entry)?;
        let leaf = path.last_mut().expect("leaf");
        match leaf.guard.payload.leaf_search(entry) {
            Ok(i) => {
                if let Node::Leaf { entries, .. } = &mut leaf.guard.payload {
                    entries.remove(i);
                }
                self.stats.physical_deletes.bump();
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }

    /// Physically remove the exact entry only if it is still live.
    /// The IB's batch-insert undo goes through here: an entry a
    /// committed deleter has pseudo-deleted since the IB inserted it
    /// is that deleter's tombstone — removing it would let the
    /// resumed IB re-insert the stale key (§2.2.3) — so it stays.
    /// Returns `true` if the entry was removed.
    pub fn physical_delete_if_live(&self, entry: &IndexEntry) -> Result<bool> {
        let _structure = self.structure_shared();
        let mut path = self.descend_x(entry)?;
        let leaf = path.last_mut().expect("leaf");
        match leaf.guard.payload.leaf_search(entry) {
            Ok(i) => {
                if let Node::Leaf { entries, .. } = &mut leaf.guard.payload {
                    if entries[i].pseudo_deleted {
                        return Ok(false);
                    }
                    entries.remove(i);
                }
                self.stats.physical_deletes.bump();
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }

    /// Unique-index repair from the paper's example (§2.2.3 item 9):
    /// the committed-dead pseudo entry `<key, old_rid>` is replaced by
    /// a live `<key, new_rid>` in place.
    pub fn unique_replace(&self, key: &KeyValue, old_rid: Rid, new_rid: Rid) -> Result<bool> {
        let _structure = self.structure_shared();
        let probe = IndexEntry::new(key.clone(), old_rid);
        let mut path = self.descend_x(&probe)?;
        let leaf = path.last_mut().expect("leaf");
        match leaf.guard.payload.leaf_search(&probe) {
            Ok(i) => {
                if let Node::Leaf { entries, .. } = &mut leaf.guard.payload {
                    entries.remove(i);
                    let fresh = LeafEntry::live(IndexEntry::new(key.clone(), new_rid));
                    let pos = entries.partition_point(|e| e.entry < fresh.entry);
                    entries.insert(pos, fresh);
                }
                self.stats.reactivations.bump();
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }

    // ----- lookups ---------------------------------------------------

    /// Look up the exact entry.
    pub fn lookup_exact(&self, entry: &IndexEntry) -> Result<Option<EntryState>> {
        let (_, guard) = self.descend_s(entry)?;
        Ok(match guard.payload.leaf_search(entry) {
            Ok(i) => Some(EntryState {
                pseudo_deleted: guard.payload.leaf_entries()[i].pseudo_deleted,
            }),
            Err(_) => None,
        })
    }

    /// All `(RID, pseudo)` pairs carrying `key`, in RID order. Walks
    /// right across leaves with share-latch coupling.
    pub fn lookup_key_group(&self, key: &KeyValue) -> Result<Vec<(Rid, bool)>> {
        let probe = IndexEntry::new(key.clone(), Rid::MIN);
        let (_, mut guard) = self.descend_s(&probe)?;
        let mut out = Vec::new();
        loop {
            let (entries, next) = match &guard.payload {
                Node::Leaf { entries, next, .. } => (entries, *next),
                _ => unreachable!(),
            };
            let start = guard.payload.leaf_lower_bound(key);
            let mut past_group = false;
            for le in &entries[start..] {
                if le.entry.key == *key {
                    out.push((le.entry.rid, le.pseudo_deleted));
                } else {
                    past_group = true;
                    break;
                }
            }
            if past_group {
                break;
            }
            let Some(np) = next else { break };
            let frame = self.cache.frame(np)?;
            let next_guard = frame.latch.share_arc();
            guard = next_guard;
        }
        Ok(out)
    }
}

/// Find a live-or-pseudo entry in `leaf` with the same key value but a
/// different RID (unique-index conflict). Thanks to the leaf-local
/// group invariant, the leaf alone is authoritative. Prefers a live
/// conflict over a pseudo-deleted one.
fn find_key_conflict(leaf: &Node, entry: &IndexEntry) -> Option<(Rid, bool)> {
    let start = leaf.leaf_lower_bound(&entry.key);
    let mut pseudo_hit: Option<(Rid, bool)> = None;
    for le in &leaf.leaf_entries()[start..] {
        if le.entry.key != entry.key {
            break;
        }
        if le.entry.rid != entry.rid {
            if le.pseudo_deleted {
                pseudo_hit.get_or_insert((le.entry.rid, true));
            } else {
                return Some((le.entry.rid, false));
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
