//! The latched B+-tree.
//!
//! Every change to an entry is one [`BTree::edit`]: one descent with
//! exclusive-latch crabbing (ancestors stay latched only while the
//! child could split, so concurrent writers in different subtrees
//! proceed in parallel — which is what lets NSF's index builder and
//! transactions work in the same tree at once), then, under the leaf's
//! X latch, the caller's decision on what it found there, the change,
//! the caller's log append and the stamp of its LSN on every page the
//! change touched: the heap's protocol, so the WAL rule holds for index
//! pages too. [`BTree::insert`] is the edit that inserts an absent
//! entry and logs nothing.
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
use mohan_common::{Error, FileId, IndexEntry, KeyValue, Lsn, PageId, Result, Rid, WriteAhead};
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
    /// Keys marked pseudo-deleted.
    pub pseudo_deletes: Counter,
    /// Tombstones planted by deleters that found no key.
    pub tombstones: Counter,
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

/// What [`BTree::edit`] found for its entry, under the leaf's X latch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Found {
    /// The entry is absent, and (unique index) so is its key value.
    Absent,
    /// The exact entry, with its pseudo-deleted flag.
    Present {
        /// Pseudo-deleted.
        pseudo: bool,
    },
    /// Unique index only: the entry is absent and `rid` carries its key
    /// value. A live conflict is reported before a pseudo-deleted one.
    Conflict {
        /// The conflicting record.
        rid: Rid,
        /// Whether the conflicting entry is pseudo-deleted.
        pseudo: bool,
    },
}

/// The change a `decide` closure asks of [`BTree::edit`]. Each applies
/// to some of the [`Found`] states only; any other pairing is refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// Change nothing, and log nothing.
    Keep,
    /// Put the entry in with this pseudo-deleted flag: set the flag of
    /// the present entry — a change to log even where the flag has that
    /// value already — or insert the absent one, live or as a tombstone
    /// (§2.2.3); beside a unique conflict, only as a tombstone.
    Put(bool),
    /// Remove the present entry.
    Remove,
    /// Replace the conflicting entry by the entry, live, in place: the
    /// take-over of a committed-dead key (§2.2.3, the example's step 9).
    TakeOver,
}

impl Edit {
    /// Insert the entry if it is absent; keep whatever is there.
    pub fn present(found: Found) -> Edit {
        match found {
            Found::Absent => Edit::Put(false),
            _ => Edit::Keep,
        }
    }

    /// Make the entry live: insert it, or clear its flag; keep it if it
    /// is live. A unique conflict is kept; the caller arbitrates.
    pub fn live(found: Found) -> Edit {
        match found {
            Found::Present { pseudo: true } => Edit::Put(false),
            found => Edit::present(found),
        }
    }

    /// Make the entry live, a change even if it is live already, and
    /// take over any unique conflict whatever its flag: for the callers
    /// that restore a state the log already decided — redo, undo and
    /// rollback compensations.
    pub fn restore_live(found: Found) -> Edit {
        match found {
            Found::Conflict { .. } => Edit::TakeOver,
            _ => Edit::Put(false),
        }
    }

    /// Make the entry pseudo-deleted: flag it, or plant a tombstone.
    pub fn pseudo(_: Found) -> Edit {
        Edit::Put(true)
    }

    /// Remove the entry whatever its flag: only redo and the SF drain,
    /// whose side-file delete is checked against the record, remove an
    /// entry unconditionally.
    pub fn remove_any(found: Found) -> Edit {
        match found {
            Found::Present { .. } => Edit::Remove,
            _ => Edit::Keep,
        }
    }
}

/// A `log` for [`BTree::edit`] that logs nothing: redo, and the inserts
/// an index builder logs in batches.
pub fn unlogged(_: Found, _: Edit) -> Result<Lsn> {
    Ok(Lsn::NULL)
}

type PageGuard = ExclusiveGuard<PageBuf<Node>>;

struct PathFrame {
    page: PageId,
    guard: PageGuard,
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
    /// not be recoverable. A [`Latch`] with stats of its own,
    /// `structure_stats`, so time spent blocked on it is measured the
    /// way page-latch waits are.
    structure: Latch<()>,
    structure_stats: Arc<LatchStats>,
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
        let structure_stats = LatchStats::new();
        BTree {
            cache,
            cfg,
            stats: BTreeStats::default(),
            hint: Mutex::new(None),
            structure: Latch::new((), Arc::clone(&structure_stats)),
            structure_stats,
            force: Mutex::new(()),
            failpoints: FailpointSet::new(),
        }
    }

    /// Hold the structure lock shared for the duration of a mutating
    /// operation (no new durable image is published mid-split).
    pub(crate) fn structure_shared(&self) -> ShareRef<'_, ()> {
        self.structure.share()
    }

    /// Wait counters of the structure lock. Its `wait_us` is the time
    /// writers spent blocked behind a checkpoint's publication (and the
    /// checkpoint behind writers).
    #[must_use]
    pub fn structure_stats(&self) -> &Arc<LatchStats> {
        &self.structure_stats
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

    // ----- split machinery ------------------------------------------

    /// Allocate a page holding `node`, X-latched into `fresh` until the
    /// edit that split stamps it. Nobody can reach it before the split's
    /// latches go.
    fn allocate_latched(&self, node: Node, fresh: &mut Vec<PageGuard>) -> PageId {
        let frame = self.cache.allocate(node);
        fresh.push(frame.latch.exclusive_arc());
        frame.id
    }

    /// Split the leaf at the end of `path` around `entry`, which is
    /// absent from it, and insert the entry into its half. `path` holds
    /// the leaf's retained ancestors before it; every page the split
    /// allocates is latched into `fresh`. `ib` selects the specialized
    /// split. Returns the page the entry landed on.
    fn split_leaf_and_insert(
        &self,
        path: &mut [PathFrame],
        fresh: &mut Vec<PageGuard>,
        entry: &IndexEntry,
        pseudo: bool,
        ib: bool,
    ) -> Result<PageId> {
        let (leaf_frame, ancestors) = path.split_last_mut().expect("leaf frame");
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
        let new_page = self.allocate_latched(right, fresh);
        left.set_next(Some(new_page));
        leaf_frame.guard.payload = left;
        let left_page = leaf_frame.page;
        self.insert_separator(ancestors, fresh, left_page, sep, new_page)?;
        Ok(if pos < at { left_page } else { new_page })
    }

    /// Propagate a split: link `(sep, new_child)` to the right of
    /// `left_child` in its parent, the last frame of `path`, splitting
    /// upward as needed.
    fn insert_separator(
        &self,
        path: &mut [PathFrame],
        fresh: &mut Vec<PageGuard>,
        left_child: PageId,
        sep: IndexEntry,
        new_child: PageId,
    ) -> Result<()> {
        let Some((parent, ancestors)) = path.split_last_mut() else {
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
                let new_root = self.allocate_latched(root, fresh);
                let height = node.height();
                node.set_anchor(new_root, height + 1);
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
                let new_node = self.allocate_latched(right, fresh);
                parent.guard.payload = left;
                self.insert_separator(ancestors, fresh, parent.page, up, new_node)
            }
            Kind::Leaf => Err(Error::Corruption("leaf as split parent".into())),
        }
    }

    // ----- the edit ----------------------------------------------------

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

    /// The one mutation of the tree. One descent to `entry`'s leaf (the
    /// remembered-path hint first when `mode` is [`InsertMode::Ib`]);
    /// under the leaf's X latch `decide` gets what is [`Found`] there
    /// and returns the [`Edit`] to apply; then `log` gets both, still
    /// under the latch, and the LSN it returns is stamped on the leaf
    /// and on every page a split touched. So a force cannot publish the
    /// change before its log record exists: the WAL rule of
    /// [`PageCache::stage_dirty`] holds a stamped page back until the
    /// log is durable through its LSN. `log` is not called for
    /// [`Edit::Keep`], and an [`Lsn::NULL`] it returns stamps nothing.
    /// Both closures run under the latch, so neither may wait: a
    /// conditional lock request is the most they may make.
    ///
    /// Returns what was found and the edit applied. An edit that does
    /// not apply to what was found is refused, with nothing changed.
    pub fn edit(
        &self,
        entry: &IndexEntry,
        mode: InsertMode,
        decide: impl FnOnce(Found) -> Edit,
        log: impl FnOnce(Found, Edit) -> Result<Lsn>,
    ) -> Result<(Found, Edit)> {
        let _structure = self.structure_shared();
        self.check_entry_size(entry)?;
        let (ib, capacity) = match mode {
            InsertMode::Ib => (true, self.cfg.fill_target()),
            InsertMode::Transaction => (false, self.cfg.page_size),
        };
        let mut path = match ib.then(|| self.try_hint(entry)).flatten() {
            Some(path) => path,
            None => self.descend_x_with(entry, capacity)?,
        };
        let mut fresh = Vec::new();
        let leaf_page = path.last().expect("leaf").page;
        let leaf = &mut path.last_mut().expect("leaf").guard.payload;
        let (found, pos, conflict_pos) = match leaf.search(entry) {
            Ok(i) => {
                let pseudo = leaf.entry(i).pseudo;
                (Found::Present { pseudo }, i, i)
            }
            Err(pos) if self.cfg.unique => {
                let (found, at) = find_key_conflict(leaf, entry);
                (found, pos, at)
            }
            Err(pos) => (Found::Absent, pos, pos),
        };
        let edit = decide(found);
        let stats = &self.stats;
        match (found, edit) {
            (_, Edit::Keep) => {}
            (Found::Present { pseudo }, Edit::Put(to)) => {
                if pseudo != to {
                    leaf.set_pseudo(pos, to);
                    if to {
                        stats.pseudo_deletes.bump();
                    }
                }
            }
            (Found::Present { .. }, Edit::Remove) => leaf.remove(pos),
            // A unique tree takes a second entry of a key value only as
            // a tombstone.
            (Found::Absent, Edit::Put(pseudo))
            | (Found::Conflict { .. }, Edit::Put(pseudo @ true)) => {
                let landed = if leaf.size() + Node::leaf_cost(entry) <= capacity {
                    leaf.insert(pos, entry, pseudo)?;
                    leaf_page
                } else {
                    self.split_leaf_and_insert(&mut path, &mut fresh, entry, pseudo, ib)?
                };
                if pseudo {
                    stats.tombstones.bump();
                } else {
                    stats.inserts.bump();
                }
                if ib {
                    *self.hint.lock() = Some(landed);
                }
            }
            // Equal key values share a leaf in a unique tree, and an
            // entry of the same size replaces the one removed.
            (Found::Conflict { .. }, Edit::TakeOver) => {
                leaf.remove(conflict_pos);
                leaf.insert(pos - usize::from(conflict_pos < pos), entry, false)?;
            }
            (found, edit) => {
                return Err(Error::InvalidArg(format!(
                    "edit {edit:?} does not apply to {found:?}"
                )))
            }
        }
        let lsn = if edit == Edit::Keep {
            Lsn::NULL
        } else {
            log(found, edit)?
        };
        if lsn.is_valid() {
            for page in path.iter_mut().map(|f| &mut f.guard).chain(&mut fresh) {
                page.lsn = page.lsn.max(lsn);
            }
        }
        Ok((found, edit))
    }

    /// Insert `entry` (live) if neither it nor (unique index) its key
    /// value is there, logging nothing: [`BTree::edit`] with
    /// [`Edit::present`]. See [`InsertOutcome`] for the cases.
    pub fn insert(&self, entry: IndexEntry, mode: InsertMode) -> Result<InsertOutcome> {
        Ok(match self.edit(&entry, mode, Edit::present, unlogged)?.0 {
            Found::Absent => InsertOutcome::Inserted,
            Found::Present { pseudo } => InsertOutcome::DuplicateEntry { pseudo },
            Found::Conflict { rid, pseudo } => InsertOutcome::DuplicateKeyValue {
                existing: rid,
                existing_pseudo: pseudo,
            },
        })
    }

    // ----- lookups ---------------------------------------------------

    /// Look up the exact entry: its pseudo-deleted flag, if present.
    pub fn lookup_exact(&self, entry: &IndexEntry) -> Result<Option<bool>> {
        let (_, guard) = self.descend_s(entry)?;
        let leaf = &guard.payload;
        Ok(leaf.search(entry).ok().map(|i| leaf.entry(i).pseudo))
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
/// different RID (unique-index conflict), and its slot. Thanks to the
/// leaf-local group invariant, the leaf alone is authoritative. Prefers
/// a live conflict over a pseudo-deleted one; [`Found::Absent`] if
/// there is none.
fn find_key_conflict(leaf: &Node, entry: &IndexEntry) -> (Found, usize) {
    let mut found = (Found::Absent, 0);
    for i in leaf.lower_bound(&entry.key)..leaf.count() {
        let le = leaf.entry(i);
        if le.key != entry.key.as_bytes() {
            break;
        }
        let (rid, pseudo) = (le.rid, le.pseudo);
        if rid != entry.rid && (!pseudo || found.0 == Found::Absent) {
            found = (Found::Conflict { rid, pseudo }, i);
            if !pseudo {
                break;
            }
        }
    }
    found
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

    /// Edit `entry` as a transaction would, logging nothing.
    fn apply(t: &BTree, entry: &IndexEntry, decide: impl FnOnce(Found) -> Edit) -> (Found, Edit) {
        t.edit(entry, InsertMode::Transaction, decide, unlogged)
            .unwrap()
    }

    fn state(t: &BTree, entry: &IndexEntry) -> Option<bool> {
        t.lookup_exact(entry).unwrap()
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
        assert_eq!(t.lookup_exact(&e(5, 1, 5)).unwrap(), Some(false));
        assert_eq!(t.lookup_exact(&e(7, 1, 7)).unwrap(), None);
    }

    #[test]
    fn decide_sees_the_flag_and_a_keep_changes_nothing() {
        let t = tree(false);
        t.insert(e(5, 1, 1), InsertMode::Transaction).unwrap();
        t.insert(e(7, 1, 2), InsertMode::Transaction).unwrap();
        let if_live = |found| match found {
            Found::Present { pseudo: false } => Edit::Remove,
            _ => Edit::Keep,
        };
        // 5 gets pseudo-deleted (a committed deleter's tombstone): a
        // remove-if-live leaves it in place.
        apply(&t, &e(5, 1, 1), Edit::pseudo);
        let kept = (Found::Present { pseudo: true }, Edit::Keep);
        assert_eq!(apply(&t, &e(5, 1, 1), if_live), kept);
        assert_eq!(state(&t, &e(5, 1, 1)), Some(true));
        // 7 is live: removed outright.
        let removed = (Found::Present { pseudo: false }, Edit::Remove);
        assert_eq!(apply(&t, &e(7, 1, 2), if_live), removed);
        assert_eq!(state(&t, &e(7, 1, 2)), None);
        assert_eq!(apply(&t, &e(9, 1, 3), if_live), (Found::Absent, Edit::Keep));
    }

    #[test]
    fn an_edit_that_does_not_apply_is_refused() {
        let t = tree(true);
        t.insert(e(5, 1, 1), InsertMode::Transaction).unwrap();
        for (entry, edit) in [
            (e(7, 1, 2), Edit::Remove),
            (e(7, 1, 2), Edit::TakeOver),
            (e(5, 1, 1), Edit::TakeOver),
            (e(5, 2, 2), Edit::Remove),
            (e(5, 2, 2), Edit::Put(false)),
        ] {
            let out = t.edit(&entry, InsertMode::Transaction, |_| edit, unlogged);
            assert!(
                matches!(out, Err(Error::InvalidArg(_))),
                "{edit:?}: {out:?}"
            );
        }
        assert_eq!(
            crate::scan::collect_all(&t, true).unwrap(),
            vec![(e(5, 1, 1), false)]
        );
    }

    #[test]
    fn the_logged_lsn_holds_the_leaf_back_until_the_log_reaches_it() {
        let t = tree(false);
        t.insert(e(1, 1, 1), InsertMode::Transaction).unwrap();
        t.force_all(Lsn::NULL).unwrap();
        let logged = |_: Found, _: Edit| Ok(Lsn(7));
        for _ in 0..2 {
            t.edit(&e(2, 1, 2), InsertMode::Transaction, Edit::live, logged)
                .unwrap();
            let (leaf, _) = t.descend_s(&e(2, 1, 2)).unwrap();
            assert_eq!(t.cache.frame(leaf).unwrap().latch.share().lsn, Lsn(7));
            // The WAL rule refuses the leaf: nothing is published.
            assert!(t.force_all(Lsn(6)).is_err());
            t.cache.crash();
            assert_eq!(state(&t, &e(2, 1, 2)), None);
        }
        t.edit(&e(2, 1, 2), InsertMode::Transaction, Edit::live, logged)
            .unwrap();
        t.force_all(Lsn(7)).unwrap();
        t.cache.crash();
        assert_eq!(state(&t, &e(2, 1, 2)), Some(false));
    }

    #[test]
    fn an_edit_that_splits_stamps_every_page_it_touched() {
        let t = tree(false);
        // Logged inserts into the root leaf, each published, until one
        // splits it.
        let mut k = 0i64;
        let lsn = loop {
            k += 1;
            let lsn = Lsn(k as u64);
            let splits = t.stats.splits.get();
            t.edit(&e(k, 1, 1), InsertMode::Transaction, Edit::live, |_, _| {
                Ok(lsn)
            })
            .unwrap();
            if t.stats.splits.get() > splits {
                break lsn;
            }
            t.force_all(lsn).unwrap();
        };
        // The old root leaf, its new sibling, the new root and the
        // anchor that names it.
        let stamped = (0..t.cache.num_pages())
            .filter(|&p| t.cache.frame(PageId(p)).unwrap().latch.share().lsn == lsn)
            .count();
        assert_eq!((t.root().unwrap().1, stamped), (2, 4));
        assert!(t.force_all(Lsn(lsn.0 - 1)).is_err());
        t.cache.crash();
        crate::scan::verify_structure(&t).unwrap();
        assert_eq!(t.root().unwrap().1, 1, "the split was not published");
        assert_eq!(state(&t, &e(k, 1, 1)), None);
        t.edit(&e(k, 1, 1), InsertMode::Transaction, Edit::live, |_, _| {
            Ok(lsn)
        })
        .unwrap();
        t.force_all(lsn).unwrap();
        t.cache.crash();
        crate::scan::verify_structure(&t).unwrap();
        assert_eq!(state(&t, &e(k, 1, 1)), Some(false));
    }

    #[test]
    fn exact_duplicate_rejected() {
        let t = tree(false);
        t.insert(e(5, 1, 1), InsertMode::Transaction).unwrap();
        assert_eq!(
            t.insert(e(5, 1, 1), InsertMode::Ib).unwrap(),
            InsertOutcome::DuplicateEntry { pseudo: false }
        );
        assert_eq!(t.stats.inserts.get(), 1);
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
        apply(&t, &e(5, 1, 1), Edit::pseudo);
        let out = t.insert(e(5, 2, 2), InsertMode::Transaction).unwrap();
        assert_eq!(
            out,
            InsertOutcome::DuplicateKeyValue {
                existing: Rid::new(1, 1),
                existing_pseudo: true
            }
        );
    }

    /// The §2.2.3 take-over of a committed-dead `<5, (1,1)>`, decided
    /// under the latch: only while it is still pseudo-deleted.
    fn take_over_dead(found: Found) -> Edit {
        match found {
            Found::Conflict { rid, pseudo: true } if rid == Rid::new(1, 1) => Edit::TakeOver,
            _ => Edit::Keep,
        }
    }

    #[test]
    fn take_over_swaps_rid() {
        let t = tree(true);
        t.insert(e(5, 1, 1), InsertMode::Transaction).unwrap();
        apply(&t, &e(5, 1, 1), Edit::pseudo);
        let conflict = Found::Conflict {
            rid: Rid::new(1, 1),
            pseudo: true,
        };
        assert_eq!(
            apply(&t, &e(5, 9, 9), take_over_dead),
            (conflict, Edit::TakeOver)
        );
        assert_eq!(state(&t, &e(5, 1, 1)), None);
        assert_eq!(state(&t, &e(5, 9, 9)), Some(false));
    }

    #[test]
    fn take_over_of_a_reactivated_conflict_is_refused() {
        let t = tree(true);
        t.insert(e(5, 1, 1), InsertMode::Transaction).unwrap();
        apply(&t, &e(5, 1, 1), Edit::pseudo);
        // The deleter rolls back before the inserter's edit.
        apply(&t, &e(5, 1, 1), Edit::live);
        let conflict = Found::Conflict {
            rid: Rid::new(1, 1),
            pseudo: false,
        };
        assert_eq!(
            apply(&t, &e(5, 9, 9), take_over_dead),
            (conflict, Edit::Keep)
        );
        assert_eq!(state(&t, &e(5, 1, 1)), Some(false));
        assert_eq!(state(&t, &e(5, 9, 9)), None);
    }

    #[test]
    fn pseudo_delete_and_reactivate() {
        let t = tree(false);
        t.insert(e(7, 1, 1), InsertMode::Transaction).unwrap();
        let flagged = (Found::Present { pseudo: false }, Edit::Put(true));
        assert_eq!(apply(&t, &e(7, 1, 1), Edit::pseudo), flagged);
        assert_eq!(state(&t, &e(7, 1, 1)), Some(true));
        // Insert of the exact pseudo entry is *rejected* (caller must
        // reactivate explicitly).
        assert_eq!(
            t.insert(e(7, 1, 1), InsertMode::Transaction).unwrap(),
            InsertOutcome::DuplicateEntry { pseudo: true }
        );
        let reactivated = (Found::Present { pseudo: true }, Edit::Put(false));
        assert_eq!(apply(&t, &e(7, 1, 1), Edit::live), reactivated);
        assert_eq!(state(&t, &e(7, 1, 1)), Some(false));
    }

    #[test]
    fn tombstone_planted_when_absent() {
        let t = tree(false);
        let planted = (Found::Absent, Edit::Put(true));
        assert_eq!(apply(&t, &e(3, 1, 1), Edit::pseudo), planted);
        assert_eq!(state(&t, &e(3, 1, 1)), Some(true));
        assert_eq!(t.stats.tombstones.get(), 1);
    }

    #[test]
    fn remove_any_removes_whatever_the_flag() {
        let t = tree(false);
        t.insert(e(1, 1, 1), InsertMode::Transaction).unwrap();
        apply(&t, &e(1, 1, 1), Edit::pseudo);
        let removed = (Found::Present { pseudo: true }, Edit::Remove);
        assert_eq!(apply(&t, &e(1, 1, 1), Edit::remove_any), removed);
        assert_eq!(
            apply(&t, &e(1, 1, 1), Edit::remove_any),
            (Found::Absent, Edit::Keep)
        );
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
            apply(&t, &e(100, 7, slot), Edit::pseudo);
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
