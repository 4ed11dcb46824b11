//! Per-index runtime state: the tree, the build state machine, the
//! SF visibility cursor and the side-file.

use crate::schema::{BuildAlgorithm, IndexDef};
use crate::side_file::SideFile;
use mohan_btree::{BTree, BTreeConfig};
use mohan_common::{EngineConfig, Error, FileId, KeyValue, Lsn, PageId, Result, Rid};
use mohan_sort::RunStore;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

/// Build/visibility state of an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexState {
    /// NSF build in progress: visible for maintenance since descriptor
    /// creation, not yet readable (§2.2.1).
    NsfBuilding,
    /// SF build in progress: visibility governed by the Current-RID
    /// cursor; maintenance goes to the side-file (§3.1).
    SfBuilding,
    /// Fully built: readable, maintained directly.
    Complete,
}

impl IndexState {
    fn tag(self) -> u8 {
        match self {
            IndexState::NsfBuilding => 0,
            IndexState::SfBuilding => 1,
            IndexState::Complete => 2,
        }
    }

    fn from_tag(t: u8) -> IndexState {
        match t {
            0 => IndexState::NsfBuilding,
            1 => IndexState::SfBuilding,
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
    pub pk_cols: Vec<usize>,
    current: Mutex<Option<KeyValue>>,
    done: AtomicU8,
}

impl KeyCursor {
    /// Fresh cursor deriving the visibility probe from `pk_cols`.
    #[must_use]
    pub fn for_pk_cols(pk_cols: Vec<usize>) -> KeyCursor {
        KeyCursor {
            pk_cols,
            ..KeyCursor::default()
        }
    }

    /// Advance to `key` (must be monotone).
    pub fn advance(&self, key: KeyValue) {
        *self.current.lock() = Some(key);
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
    /// §5 checkpoints have something to reposition.
    pub sort_store: Mutex<Option<std::sync::Arc<RunStore<mohan_common::IndexEntry>>>>,
    /// Footnote 3: highest key value *committed* by the NSF builder.
    /// When gradual reads are enabled, lookups at or below this
    /// watermark are served even while the build is in flight.
    read_watermark: Mutex<Option<KeyValue>>,
}

impl IndexRuntime {
    /// Create the runtime for a new index. The tree's page file id is
    /// derived from the index id.
    #[must_use]
    pub fn new(
        def: IndexDef,
        algorithm: BuildAlgorithm,
        initial_state: IndexState,
        cfg: &EngineConfig,
    ) -> IndexRuntime {
        let tree = BTree::create(
            FileId(1_000_000 + def.id.0),
            BTreeConfig {
                page_size: cfg.index_page_size,
                fill_factor: cfg.index_fill_factor,
                unique: def.unique,
                hint_enabled: cfg.ib_remembered_path,
            },
        );
        IndexRuntime {
            def,
            algorithm,
            tree,
            side_file: SideFile::new(),
            state: AtomicU8::new(initial_state.tag()),
            current_rid: AtomicU64::new(CURRENT_NONE),
            scan_end_page: AtomicU32::new(u32::MAX),
            completed_lsn: AtomicU64::new(0),
            key_cursor: None,
            sort_store: Mutex::new(None),
            read_watermark: Mutex::new(None),
        }
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

    /// Get (or lazily create) the build's run store.
    #[must_use]
    pub fn run_store(&self) -> std::sync::Arc<RunStore<mohan_common::IndexEntry>> {
        self.configure_run_store(false)
    }

    /// Get the build's run store, creating it with the given
    /// compression mode if it does not exist yet. An existing store's
    /// mode wins: a resumed build keeps whatever layout its runs were
    /// written in.
    pub fn configure_run_store(
        &self,
        compress: bool,
    ) -> std::sync::Arc<RunStore<mohan_common::IndexEntry>> {
        let mut g = self.sort_store.lock();
        if let Some(rs) = &*g {
            return std::sync::Arc::clone(rs);
        }
        let rs = std::sync::Arc::new(RunStore::with_compression(compress));
        *g = Some(std::sync::Arc::clone(&rs));
        rs
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

    /// Conservative post-crash visibility: with the exact Current-RID
    /// lost, treat every record as visible. Safe because visibility
    /// may only ever grow, and the drain's duplicate-rejection absorbs
    /// overlap with the rescanned range.
    pub fn finish_scan_conservative(&self) {
        self.finish_scan();
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

    /// The SF visibility rule evaluated for a record (Figure 1):
    /// the record's page has been *copied* by the scan
    /// (`Target-RID ≤ Current-RID` with the cursor naming the last RID
    /// of the last page copied — the paper's `Target < Current` with a
    /// next-to-process cursor), or the record lives beyond the scan's
    /// end bound, or (storage-model extension) its primary key is
    /// behind the key cursor. The inclusive boundary matters: the page
    /// latch serializes the copy against updaters, so an operation on
    /// a record of the boundary page necessarily happens *after* the IB
    /// took its old image and must go to the side-file.
    #[must_use]
    pub fn sf_visible(&self, rid: Rid, primary_key: Option<&KeyValue>) -> bool {
        if let (Some(kc), Some(pk)) = (&self.key_cursor, primary_key) {
            return kc.passed(pk);
        }
        match self.current_rid.load(Ordering::SeqCst) {
            CURRENT_INFINITY => true,
            CURRENT_NONE => rid.page > self.scan_end(),
            cur => rid.pack() < cur || rid.page > self.scan_end(),
        }
    }

    /// Is the index visible *for maintenance* to a transaction
    /// touching `rid`? (Readability is separate: only
    /// [`IndexState::Complete`] serves queries.)
    #[must_use]
    pub fn visible_for(&self, rid: Rid, primary_key: Option<&KeyValue>) -> bool {
        match self.state() {
            IndexState::NsfBuilding | IndexState::Complete => true,
            IndexState::SfBuilding => self.sf_visible(rid, primary_key),
        }
    }

    /// Catalog serialization of the volatile-but-durable metadata.
    #[must_use]
    pub fn encode_catalog(&self) -> Vec<u8> {
        let mut out = self.def.encode();
        out.push(self.algorithm.tag());
        out.push(self.state().tag());
        out.extend_from_slice(&self.scan_end().0.to_be_bytes());
        out.extend_from_slice(&self.completed_lsn().0.to_be_bytes());
        out.push(u8::from(self.key_cursor.is_some()));
        out
    }

    /// Rebuild runtime metadata from a catalog entry. The tree object
    /// (with its durable pages) is supplied by the caller — in this
    /// simulation the runtime object itself survives, so this method
    /// *restores state onto* an existing runtime.
    pub fn restore_catalog(&self, buf: &[u8], pos: &mut usize) -> Result<()> {
        let e = CatalogEntry::decode(buf, pos)?;
        if e.def != self.def {
            return Err(Error::Corruption(format!(
                "catalog def mismatch for {}",
                self.def.id
            )));
        }
        self.apply_catalog_entry(&e);
        Ok(())
    }

    /// Apply a decoded catalog entry's state onto this runtime. Shared
    /// by the primary's restart ([`IndexRuntime::restore_catalog`])
    /// and the replica's redo of shipped catalog snapshots.
    pub fn apply_catalog_entry(&self, e: &CatalogEntry) {
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
#[derive(Debug, Clone)]
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

impl CatalogEntry {
    /// Decode one entry as produced by
    /// [`IndexRuntime::encode_catalog`].
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<CatalogEntry> {
        let def = IndexDef::decode(buf, pos)?;
        let err = || Error::Corruption("truncated catalog entry".into());
        let algorithm =
            BuildAlgorithm::from_tag(*buf.get(*pos).ok_or_else(err)?).ok_or_else(err)?;
        *pos += 1;
        let state = IndexState::from_tag(*buf.get(*pos).ok_or_else(err)?);
        *pos += 1;
        let se: [u8; 4] = buf.get(*pos..*pos + 4).ok_or_else(err)?.try_into().unwrap();
        *pos += 4;
        let cl: [u8; 8] = buf.get(*pos..*pos + 8).ok_or_else(err)?.try_into().unwrap();
        *pos += 8;
        let has_kc = *buf.get(*pos).ok_or_else(err)? != 0;
        *pos += 1;
        Ok(CatalogEntry {
            def,
            algorithm,
            state,
            scan_end: PageId(u32::from_be_bytes(se)),
            completed_lsn: Lsn(u64::from_be_bytes(cl)),
            has_key_cursor: has_kc,
        })
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
    }

    #[test]
    fn sf_visibility_follows_cursor() {
        let r = rt(IndexState::SfBuilding);
        r.set_scan_end(PageId(10));
        assert!(!r.visible_for(Rid::new(0, 0), None));
        r.set_current_rid(Rid::new(5, 3));
        assert!(r.visible_for(Rid::new(5, 2), None));
        assert!(r.visible_for(Rid::new(4, 9), None));
        // The just-processed record itself is visible: its old image
        // is already in the IB's hands.
        assert!(r.visible_for(Rid::new(5, 3), None));
        assert!(!r.visible_for(Rid::new(5, 4), None));
        assert!(!r.visible_for(Rid::new(6, 0), None));
        // Beyond the scan-end bound: always visible.
        assert!(r.visible_for(Rid::new(11, 0), None));
        r.finish_scan();
        assert!(r.visible_for(Rid::new(6, 0), None));
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
        assert!(!r.sf_visible(Rid::new(3, 8), None));
        // ... so the scan's under-latch hook advances Current-RID past
        // the whole page before releasing the page latch.
        r.set_current_rid(Rid::new(3, u16::MAX));
        assert!(r.sf_visible(Rid::new(3, 8), None));
        assert!(r.sf_visible(Rid::new(3, u16::MAX), None));
        // Pages the scan has not reached stay its responsibility.
        assert!(!r.sf_visible(Rid::new(4, 0), None));
    }

    #[test]
    fn nsf_and_complete_always_visible() {
        let r = rt(IndexState::NsfBuilding);
        assert!(r.visible_for(Rid::new(999, 0), None));
        r.set_state(IndexState::Complete);
        assert!(r.visible_for(Rid::MIN, None));
    }

    #[test]
    fn key_cursor_visibility() {
        let mut r = rt(IndexState::SfBuilding);
        r.key_cursor = Some(KeyCursor::default());
        let kc = r.key_cursor.as_ref().unwrap();
        let k = |v: i64| KeyValue::from_i64(v);
        assert!(!r.sf_visible(Rid::new(0, 0), Some(&k(5))));
        kc.advance(k(10));
        assert!(r.sf_visible(Rid::new(0, 0), Some(&k(5))));
        // Inclusive boundary: the cursor key itself is visible (the
        // leaf-snapshot scan already covers it; drain reconciles).
        assert!(r.sf_visible(Rid::new(0, 0), Some(&k(10))));
        assert!(!r.sf_visible(Rid::new(0, 0), Some(&k(11))));
        kc.finish();
        assert!(r.sf_visible(Rid::new(0, 0), Some(&k(11))));
    }

    #[test]
    fn catalog_roundtrip() {
        let r = rt(IndexState::SfBuilding);
        r.set_scan_end(PageId(42));
        r.set_current_rid(Rid::new(5, 5));
        let bytes = r.encode_catalog();
        let r2 = rt(IndexState::NsfBuilding);
        let mut pos = 0;
        r2.restore_catalog(&bytes, &mut pos).unwrap();
        assert_eq!(pos, bytes.len());
        assert_eq!(r2.state(), IndexState::SfBuilding);
        assert_eq!(r2.scan_end(), PageId(42));
        // Current-RID resets to MIN until resume restores it.
        assert_eq!(r2.current_rid(), Rid::MIN);
    }

    #[test]
    fn completed_catalog_closes_side_file() {
        let r = rt(IndexState::Complete);
        r.set_completed_lsn(Lsn(9));
        let bytes = r.encode_catalog();
        let r2 = rt(IndexState::SfBuilding);
        let mut pos = 0;
        r2.restore_catalog(&bytes, &mut pos).unwrap();
        assert!(r2.side_file.closed());
        assert_eq!(r2.completed_lsn(), Lsn(9));
    }
}
