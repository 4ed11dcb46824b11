//! Per-index runtime state: the tree, the build state machine, the
//! SF visibility cursor and the side-file.

use crate::schema::{BuildAlgorithm, IndexDef, Record};
use crate::side_file::SideFile;
use mohan_btree::{BTree, BTreeConfig};
use mohan_common::codec::{decode, framed, get_items, Cursor, Wire};
use mohan_common::{wire_enum, wire_struct};
use mohan_common::{EngineConfig, Error, FileId, KeyValue, Lsn, PageId, Result, Rid};
use mohan_sort::RunStore;
use parking_lot::Mutex;
use std::sync::atomic::Ordering::{AcqRel, Acquire};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

wire_enum! {
    /// Build/visibility state of an index. The tag byte is the
    /// catalog's, where an unknown one is corruption.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum IndexState {
        /// NSF build in progress: visible for maintenance since descriptor
        /// creation, not yet readable (§2.2.1).
        NsfBuilding = 0,
        /// SF build in progress: visibility governed by the Current-RID
        /// cursor; maintenance goes to the side-file (§3.1).
        SfBuilding = 1,
        /// Fully built: readable, maintained directly.
        Complete = 2,
        /// Cancelled or dropped: neither readable nor maintained, its
        /// tree and build state gone. The descriptor keeps its position
        /// in the table's index list, which the visible-index counts in
        /// logged records depend on, until no transaction that could
        /// have logged such a count is active: a granted table quiesce
        /// (`Db::quiesce`), or restart after undo.
        Cancelled = 3,
    }
}

impl IndexState {
    /// The state an index built by `algorithm` holds from its
    /// registration until its build completes: SF's Current-RID
    /// visibility (§3.1), or NSF's direct maintenance without reads
    /// (§2.2.1), which an offline build's index shares — on the
    /// primary, whose quiesce lets no writer reach it, and on a
    /// follower until it is rebuilt there.
    #[must_use]
    pub fn building(algorithm: BuildAlgorithm) -> IndexState {
        match algorithm {
            BuildAlgorithm::Sf => IndexState::SfBuilding,
            BuildAlgorithm::Nsf | BuildAlgorithm::Offline => IndexState::NsfBuilding,
        }
    }

    /// Inverse of `tag()` for the runtime's own atomic, which only
    /// ever holds a tag it stored.
    fn from_tag(t: u8) -> IndexState {
        match t {
            0 => IndexState::NsfBuilding,
            1 => IndexState::SfBuilding,
            3 => IndexState::Cancelled,
            _ => IndexState::Complete,
        }
    }
}

/// Sentinel for "scan finished": every RID is behind the cursor.
const CURRENT_INFINITY: u64 = u64::MAX;
/// Sentinel for "nothing processed yet". Stored cursor values are
/// `rid.pack() + 1` so RID (0,0) is distinguishable from "none".
const CURRENT_NONE: u64 = 0;

/// The §6.2 primary-index storage-model cursor: the SF scan position
/// expressed as a *key* in the clustering index rather than a RID.
#[derive(Default)]
pub struct KeyCursor {
    /// Column positions of the clustering (primary) key in the
    /// record, used to derive the visibility probe.
    pk_cols: Vec<u16>,
    current: Mutex<Option<KeyValue>>,
    done: AtomicU8,
}

impl KeyCursor {
    /// Fresh cursor deriving the visibility probe from `pk_cols`.
    #[must_use]
    pub fn for_pk_cols(pk_cols: Vec<u16>) -> KeyCursor {
        KeyCursor {
            pk_cols,
            ..KeyCursor::default()
        }
    }

    /// Advance to `key` (must be monotone).
    pub fn advance(&self, key: KeyValue) {
        *self.current.lock() = Some(key);
    }

    /// The clustering key of `rec`, or `None` if the record is too
    /// short to have one.
    #[must_use]
    pub fn primary_key(&self, rec: &Record) -> Option<KeyValue> {
        let cols: Option<Vec<i64>> = self
            .pk_cols
            .iter()
            .map(|&c| rec.0.get(usize::from(c)).copied())
            .collect();
        cols.map(|c| KeyValue::from_i64s(&c))
    }

    /// Mark the scan complete (everything visible).
    pub fn finish(&self) {
        self.done.store(1, Ordering::Release);
    }

    /// Is `key` at or behind the cursor (visible)? Inclusive: the
    /// primary-model scan snapshots a whole leaf and then reads the
    /// records outside the latch, so operations racing on the boundary
    /// key must go to the side-file, where drain-time reconciliation
    /// absorbs the overlap.
    #[must_use]
    pub fn passed(&self, key: &KeyValue) -> bool {
        if self.done.load(Ordering::Acquire) != 0 {
            return true;
        }
        match &*self.current.lock() {
            Some(cur) => key <= cur,
            None => false,
        }
    }
}

/// One index's complete runtime state.
pub struct IndexRuntime {
    /// Definition (identity, table, columns, uniqueness).
    pub def: IndexDef,
    /// Algorithm the index was built with.
    pub algorithm: BuildAlgorithm,
    /// The B+-tree.
    pub tree: BTree,
    /// SF side-file (unused but present for other algorithms).
    pub side_file: SideFile,
    state: AtomicU8,
    /// SF scan cursor: `0` = nothing processed, `u64::MAX` = done,
    /// otherwise `rid.pack() + 1` of the last RID the scan has taken
    /// responsibility for (the last possible slot of the last page it
    /// copied).
    current_rid: AtomicU64,
    /// Last data page the SF scan will visit; records on later pages
    /// are visible by definition (§2.3.1: "transactions would insert
    /// directly into the index the keys of records belonging to those
    /// new pages").
    scan_end_page: AtomicU32,
    /// LSN horizon of the build's completion ([`Lsn::NULL`] while
    /// building); rollback uses it to tell side-file-era operations
    /// from direct-maintenance ones.
    completed_lsn: AtomicU64,
    /// Optional §6.2 key cursor (primary-index storage model).
    pub key_cursor: Option<KeyCursor>,
    /// The build's sorted-run storage; survives across restart so the
    /// §5 checkpoints have something to reposition. The build frees its
    /// runs once no restart can read them; the byte counters stay.
    pub sort_store: std::sync::Arc<RunStore<mohan_common::IndexEntry>>,
    /// Footnote 3: highest key value *committed* by the NSF builder.
    /// When gradual reads are enabled, lookups at or below this
    /// watermark are served even while the build is in flight.
    read_watermark: Mutex<Option<KeyValue>>,
}

impl IndexRuntime {
    /// Create the runtime for a new index. The tree's page file id is
    /// derived from the index id. `InvalidArg` if `cfg.index_page_size`
    /// is outside 128..=65535.
    pub fn new(
        def: IndexDef,
        algorithm: BuildAlgorithm,
        initial_state: IndexState,
        cfg: &EngineConfig,
    ) -> Result<IndexRuntime> {
        let tree_cfg = BTreeConfig {
            page_size: cfg.index_page_size,
            fill_factor: cfg.index_fill_factor,
            unique: def.unique,
            hint_enabled: cfg.ib_remembered_path,
        };
        tree_cfg.check()?;
        let tree = BTree::create(FileId(1_000_000 + def.id.0), tree_cfg);
        Ok(IndexRuntime {
            def,
            algorithm,
            tree,
            side_file: SideFile::new(),
            state: AtomicU8::new(initial_state.tag()),
            current_rid: AtomicU64::new(CURRENT_NONE),
            scan_end_page: AtomicU32::new(u32::MAX),
            completed_lsn: AtomicU64::new(0),
            key_cursor: None,
            sort_store: std::sync::Arc::default(),
            read_watermark: Mutex::new(None),
        })
    }

    /// Advance the gradual-read watermark (NSF builder, after a
    /// checkpoint commit).
    pub fn set_read_watermark(&self, key: KeyValue) {
        *self.read_watermark.lock() = Some(key);
    }

    /// Is `key` within the gradually-available prefix (footnote 3)?
    #[must_use]
    pub fn readable_below_watermark(&self, key: &KeyValue) -> bool {
        self.read_watermark
            .lock()
            .as_ref()
            .is_some_and(|w| key <= w)
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> IndexState {
        IndexState::from_tag(self.state.load(Ordering::Acquire))
    }

    /// Transition the state (caller persists the catalog).
    pub fn set_state(&self, s: IndexState) {
        self.state.store(s.tag(), Ordering::Release);
    }

    /// Flip the index from its building state to
    /// [`IndexState::Complete`] in one atomic step, so a cancel racing
    /// the flip is never overwritten: `false`, and nothing changed, if
    /// the index is no longer building. The caller persists the
    /// catalog.
    pub(crate) fn complete(&self) -> bool {
        let (from, to) = (IndexState::building(self.algorithm), IndexState::Complete);
        let flip = (self.state).compare_exchange(from.tag(), to.tag(), AcqRel, Acquire);
        flip.is_ok()
    }

    /// Cancel the index (§2.3.2), or drop it: mark it
    /// [`IndexState::Cancelled`] first, so a change planned from here on
    /// reaches it through no mechanism, then free its tree, its runs and
    /// its side-file's pin on the log. The caller persists the catalog.
    pub(crate) fn cancel(&self) {
        self.set_state(IndexState::Cancelled);
        self.tree.clear();
        self.sort_store.clear();
        self.side_file.force_close();
    }

    /// Record the completion LSN when the build finishes.
    pub fn set_completed_lsn(&self, lsn: Lsn) {
        self.completed_lsn.store(lsn.0, Ordering::Release);
    }

    /// LSN at which the build completed (NULL while building).
    #[must_use]
    pub fn completed_lsn(&self) -> Lsn {
        Lsn(self.completed_lsn.load(Ordering::Acquire))
    }

    /// Set the last page the SF scan will visit. `SeqCst`, like the
    /// loads in [`IndexRuntime::sf_visible`] and the heap's page count:
    /// the builder stores the bound and then re-reads the page count,
    /// an inserter bumps the page count and then reads the bound, and
    /// one of the two must see the other (`build::publish_scan_bounds`).
    pub fn set_scan_end(&self, page: PageId) {
        self.scan_end_page.store(page.0, Ordering::SeqCst);
    }

    /// Last page of the SF scan.
    #[must_use]
    pub fn scan_end(&self) -> PageId {
        PageId(self.scan_end_page.load(Ordering::SeqCst))
    }

    /// Advance the SF scan cursor. The IB calls it once per data page,
    /// under the page's S latch and before it processes the keys it
    /// copied from the page, with the page's last possible RID.
    /// Monotone: the cursor never regresses, so a resumed scan that
    /// restarts behind a conservatively-restored cursor cannot shrink
    /// visibility.
    pub fn set_current_rid(&self, rid: Rid) {
        self.current_rid.fetch_max(rid.pack() + 1, Ordering::AcqRel);
    }

    /// Mark the SF scan finished: Current-RID becomes infinity
    /// (§3.2.2).
    pub fn finish_scan(&self) {
        self.current_rid.store(CURRENT_INFINITY, Ordering::SeqCst);
        if let Some(kc) = &self.key_cursor {
            kc.finish();
        }
    }

    /// Current-RID of the SF scan (the end of the last page copied;
    /// [`Rid::MIN`] before the scan touches anything).
    #[must_use]
    pub fn current_rid(&self) -> Rid {
        match self.current_rid.load(Ordering::Acquire) {
            CURRENT_NONE => Rid::MIN,
            CURRENT_INFINITY => Rid::MAX,
            v => Rid::unpack(v - 1),
        }
    }

    /// The SF visibility rule (Figure 1) for one image of the record
    /// at `rid`: the record's page has been *copied* by the scan
    /// (`Target-RID ≤ Current-RID` with the cursor naming the last RID
    /// of the last page copied — the paper's `Target < Current` with a
    /// next-to-process cursor), or the record lives beyond the scan's
    /// end bound. The inclusive boundary matters: the page latch
    /// serializes the copy against updaters, so an operation on a
    /// record of the boundary page necessarily happens *after* the IB
    /// took its old image and must go to the side-file. Under the §6.2
    /// key cursor the rule is the primary key of `image` instead of
    /// `rid`, so the two images of one update can differ; an image
    /// without a primary key counts as visible, the side-file being
    /// the side that reconciles.
    #[must_use]
    pub fn sf_visible(&self, rid: Rid, image: &[u8]) -> bool {
        if let Some(kc) = &self.key_cursor {
            return Record::decode(image)
                .ok()
                .and_then(|rec| kc.primary_key(&rec))
                .is_none_or(|pk| kc.passed(&pk));
        }
        match self.current_rid.load(Ordering::SeqCst) {
            CURRENT_INFINITY => true,
            CURRENT_NONE => rid.page > self.scan_end(),
            cur => rid.pack() < cur || rid.page > self.scan_end(),
        }
    }

    /// The catalog entry for this index's volatile-but-durable
    /// metadata.
    #[must_use]
    pub fn catalog_entry(&self) -> CatalogEntry {
        CatalogEntry {
            def: self.def.clone(),
            algorithm: self.algorithm,
            state: self.state(),
            scan_end: self.scan_end(),
            completed_lsn: self.completed_lsn(),
            has_key_cursor: self.key_cursor.is_some(),
        }
    }

    /// Restore runtime metadata from its catalog entry. The tree object
    /// (with its durable pages) is supplied by the caller — in this
    /// simulation the runtime object itself survives, so this method
    /// *restores state onto* an existing runtime.
    pub fn restore_catalog(&self, e: &CatalogEntry) -> Result<()> {
        if e.def != self.def {
            return Err(Error::Corruption(format!(
                "catalog def mismatch for {}",
                self.def.id
            )));
        }
        self.apply_catalog_entry(e);
        Ok(())
    }

    /// Apply a decoded catalog entry's state onto this runtime. Shared
    /// by the primary's restart ([`IndexRuntime::restore_catalog`])
    /// and the replica's redo of shipped catalog snapshots.
    pub fn apply_catalog_entry(&self, e: &CatalogEntry) {
        if e.state == IndexState::Cancelled {
            self.cancel();
        }
        self.set_state(e.state);
        self.scan_end_page.store(e.scan_end.0, Ordering::Release);
        self.completed_lsn
            .store(e.completed_lsn.0, Ordering::Release);
        if e.state == IndexState::Complete {
            self.side_file.force_close();
        }
        // Current-RID is restored by resume_build from the build's
        // progress record; until then nothing new is visible.
        self.set_current_rid(Rid::MIN);
    }
}

/// One catalog entry decoded on its own, independent of any runtime.
/// A replica applies shipped catalog snapshots to indexes it may not
/// have created yet, so decoding cannot presuppose an existing
/// [`IndexRuntime`].
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogEntry {
    /// Index definition (identity, table, columns, uniqueness).
    pub def: IndexDef,
    /// Algorithm the index was (or is being) built with.
    pub algorithm: BuildAlgorithm,
    /// Build/visibility state at snapshot time.
    pub state: IndexState,
    /// Last page of the SF scan.
    pub scan_end: PageId,
    /// Build completion LSN horizon (NULL while building).
    pub completed_lsn: Lsn,
    /// Whether the index uses the §6.2 key cursor.
    pub has_key_cursor: bool,
}

wire_struct! { CatalogEntry { def, algorithm, state, scan_end, completed_lsn, has_key_cursor } }

/// The catalog blob, `[u32 n]([u32 len][entry])*`: every index's entry,
/// in creation order. The engine persists it at every catalog change
/// and ships the same bytes down the log as a `CatalogUpdate`.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog(pub Vec<CatalogEntry>);

impl Wire for Catalog {
    fn put(&self, out: &mut Vec<u8>) {
        (self.0.len() as u32).put(out);
        for e in &self.0 {
            framed::put(e, out);
        }
    }

    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        let n = u32::get(c)? as usize;
        get_items(c, n, framed::get).map(Catalog)
    }
}

impl Catalog {
    /// Decode a whole catalog blob; anything malformed — a bad length,
    /// an unknown algorithm or state byte, trailing bytes — is
    /// [`Error::Corruption`].
    pub fn decode(bytes: &[u8]) -> Result<Catalog> {
        decode(bytes).ok_or_else(|| Error::Corruption("malformed catalog".into()))
    }
}

impl std::fmt::Debug for IndexRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexRuntime")
            .field("id", &self.def.id)
            .field("state", &self.state())
            .field("algorithm", &self.algorithm)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mohan_common::codec::encode;
    use mohan_common::{IndexId, TableId};

    fn rt(state: IndexState) -> IndexRuntime {
        IndexRuntime::new(
            IndexDef {
                id: IndexId(1),
                name: "t".into(),
                table: TableId(1),
                unique: false,
                key_cols: vec![0],
            },
            BuildAlgorithm::Sf,
            state,
            &EngineConfig::small(),
        )
        .unwrap()
    }

    #[test]
    fn an_index_page_size_the_layout_cannot_address_is_refused() {
        let def = rt(IndexState::Complete).def;
        for page_size in [64, 127, 65_536] {
            let cfg = EngineConfig {
                index_page_size: page_size,
                ..EngineConfig::small()
            };
            let made = IndexRuntime::new(
                def.clone(),
                BuildAlgorithm::Sf,
                IndexState::SfBuilding,
                &cfg,
            );
            assert!(matches!(made, Err(Error::InvalidArg(_))), "{page_size}");
        }
    }

    #[test]
    fn sf_visibility_follows_cursor() {
        let r = rt(IndexState::SfBuilding);
        r.set_scan_end(PageId(10));
        assert!(!r.sf_visible(Rid::new(0, 0), &[]));
        r.set_current_rid(Rid::new(5, 3));
        assert!(r.sf_visible(Rid::new(5, 2), &[]));
        assert!(r.sf_visible(Rid::new(4, 9), &[]));
        // The just-processed record itself is visible: its old image
        // is already in the IB's hands.
        assert!(r.sf_visible(Rid::new(5, 3), &[]));
        assert!(!r.sf_visible(Rid::new(5, 4), &[]));
        assert!(!r.sf_visible(Rid::new(6, 0), &[]));
        // Beyond the scan-end bound: always visible.
        assert!(r.sf_visible(Rid::new(11, 0), &[]));
        r.finish_scan();
        assert!(r.sf_visible(Rid::new(6, 0), &[]));
    }

    #[test]
    fn page_end_cursor_covers_tail_inserts_into_scanned_page() {
        let r = rt(IndexState::SfBuilding);
        r.set_scan_end(PageId(10));
        // The scan consumed page 3, whose last record sat in slot 7.
        r.set_current_rid(Rid::new(3, 7));
        // A tail insert into page 3's free space now compares *above*
        // the last-record cursor — with only that cursor its key
        // would be lost (neither scanned nor side-filed) ...
        assert!(!r.sf_visible(Rid::new(3, 8), &[]));
        // ... so the scan's under-latch hook advances Current-RID past
        // the whole page before releasing the page latch.
        r.set_current_rid(Rid::new(3, u16::MAX));
        assert!(r.sf_visible(Rid::new(3, 8), &[]));
        assert!(r.sf_visible(Rid::new(3, u16::MAX), &[]));
        // Pages the scan has not reached stay its responsibility.
        assert!(!r.sf_visible(Rid::new(4, 0), &[]));
    }

    #[test]
    fn key_cursor_visibility() {
        let mut r = rt(IndexState::SfBuilding);
        r.key_cursor = Some(KeyCursor::for_pk_cols(vec![1]));
        let kc = r.key_cursor.as_ref().unwrap();
        // The primary key is column 1; the RID plays no part.
        let image = |pk: i64| Record::new(vec![0, pk]).encode();
        assert!(!r.sf_visible(Rid::MAX, &image(5)));
        kc.advance(KeyValue::from_i64(10));
        assert!(r.sf_visible(Rid::MIN, &image(5)));
        // Inclusive boundary: the cursor key itself is visible (the
        // leaf-snapshot scan already covers it; drain reconciles).
        assert!(r.sf_visible(Rid::MIN, &image(10)));
        assert!(!r.sf_visible(Rid::MIN, &image(11)));
        // An image without a primary key is left to the side-file.
        assert!(r.sf_visible(Rid::MIN, &Record::new(vec![11]).encode()));
        kc.finish();
        assert!(r.sf_visible(Rid::MIN, &image(11)));
    }

    #[test]
    fn catalog_roundtrip() {
        let r = rt(IndexState::SfBuilding);
        r.set_scan_end(PageId(42));
        r.set_current_rid(Rid::new(5, 5));
        let bytes = encode(&Catalog(vec![r.catalog_entry()]));
        let r2 = rt(IndexState::NsfBuilding);
        let Catalog(entries) = Catalog::decode(&bytes).unwrap();
        r2.restore_catalog(&entries[0]).unwrap();
        assert_eq!(r2.state(), IndexState::SfBuilding);
        assert_eq!(r2.scan_end(), PageId(42));
        // Current-RID resets to MIN until resume restores it.
        assert_eq!(r2.current_rid(), Rid::MIN);
    }

    #[test]
    fn completed_catalog_closes_side_file() {
        let r = rt(IndexState::Complete);
        r.set_completed_lsn(Lsn(9));
        let r2 = rt(IndexState::SfBuilding);
        r2.restore_catalog(&r.catalog_entry()).unwrap();
        assert!(r2.side_file.closed());
        assert_eq!(r2.completed_lsn(), Lsn(9));
    }
}
