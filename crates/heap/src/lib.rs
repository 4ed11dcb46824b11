//! Heap tables: records on slotted data pages.
//!
//! The execution model of §1.1 shapes this API. Record operations take
//! the data page's X latch, modify the record, invoke a caller-supplied
//! logging closure *while still latched* (Figure 1: "Modify target
//! record, log action ... and Update Page_LSN"), stamp the returned
//! LSN into the page, and unlatch. Index maintenance happens *after*
//! the latch is released — the engine composes that, which is exactly
//! what creates the paper's race conditions between transactions and
//! the index builder.
//!
//! The scan side ([`HeapTable::scan_pages`]) latches each page in share
//! mode only to copy its records, hands them out in RID order with the
//! latch released, and accounts simulated sequential-prefetch I/O
//! batches (§2.2.2).

#![warn(missing_docs)]

use mohan_common::pace::pace;
use mohan_common::stats::{Counter, ShardDist};
use mohan_common::{Error, Lsn, PageId, Result, Rid, TableId};
use mohan_storage::{PageCache, SlottedPage};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of free-space-map shards per table (power of two).
pub const FSM_SHARDS: usize = 8;

/// Event counters for one table.
#[derive(Debug)]
pub struct HeapStats {
    /// Records inserted.
    pub inserts: Counter,
    /// Records deleted.
    pub deletes: Counter,
    /// Records updated.
    pub updates: Counter,
    /// Pages visited by scans.
    pub scan_pages: Counter,
    /// Simulated prefetch I/O batches issued by scans.
    pub io_batches: Counter,
    /// Free-page candidates taken from each FSM shard (shows whether
    /// concurrent inserters spread over the shards or pile up on one).
    pub fsm_shard_hits: ShardDist,
}

impl Default for HeapStats {
    fn default() -> Self {
        HeapStats {
            inserts: Counter::new(),
            deletes: Counter::new(),
            updates: Counter::new(),
            scan_pages: Counter::new(),
            io_batches: Counter::new(),
            fsm_shard_hits: ShardDist::new(FSM_SHARDS),
        }
    }
}

/// A sharded free-space map: pages believed to have room, partitioned
/// by page-id hash so concurrent inserters don't serialize on one
/// list. A shard lock is only ever held for a push/pop — never across
/// a page latch — so the old whole-insert serialization is gone.
struct FreeSpaceMap {
    shards: Vec<Mutex<Vec<PageId>>>,
    /// Round-robin probe cursor: concurrent inserters start their
    /// probe at different shards instead of all hammering shard 0.
    cursor: AtomicUsize,
}

impl FreeSpaceMap {
    fn new() -> FreeSpaceMap {
        FreeSpaceMap {
            shards: (0..FSM_SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    fn shard_of(page: PageId) -> usize {
        (u64::from(page.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61) as usize & (FSM_SHARDS - 1)
    }

    /// Where the next probe should start.
    fn preferred_shard(&self) -> usize {
        self.cursor.fetch_add(1, Ordering::Relaxed) & (FSM_SHARDS - 1)
    }

    /// Record `page` as having free space (idempotent).
    fn note_free(&self, page: PageId) {
        let mut shard = self.shards[Self::shard_of(page)].lock();
        if !shard.contains(&page) {
            shard.push(page);
        }
    }

    /// Take a candidate page out of the map (most recently freed
    /// first within a shard), probing all shards starting at `start`.
    /// The caller either re-registers the page via `note_free` or
    /// lets a full page stay dropped. Returns the shard it came from.
    fn take_candidate(&self, start: usize) -> Option<(PageId, usize)> {
        for i in 0..FSM_SHARDS {
            let s = (start + i) & (FSM_SHARDS - 1);
            if let Some(p) = self.shards[s].lock().pop() {
                return Some((p, s));
            }
        }
        None
    }

    fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }
}

/// A heap table.
pub struct HeapTable {
    /// Table identity.
    pub id: TableId,
    /// Backing pages (crash-aware).
    pub cache: PageCache<SlottedPage>,
    page_size: usize,
    prefetch: usize,
    /// Pages believed to have free space, sharded by page-id hash.
    fsm: FreeSpaceMap,
    /// Event counters.
    pub stats: HeapStats,
}

impl HeapTable {
    /// Create an empty table.
    #[must_use]
    pub fn new(id: TableId, page_size: usize, prefetch: usize) -> HeapTable {
        HeapTable {
            id,
            cache: PageCache::new(mohan_common::FileId(id.0)),
            page_size,
            prefetch: prefetch.max(1),
            fsm: FreeSpaceMap::new(),
            stats: HeapStats::default(),
        }
    }

    /// Number of data pages.
    #[must_use]
    pub fn num_pages(&self) -> u32 {
        self.cache.num_pages()
    }

    /// Insert a record. `log` runs under the page X latch with the
    /// assigned RID and returns the LSN to stamp on the page.
    pub fn insert_with(&self, data: &[u8], log: impl FnOnce(Rid) -> Lsn) -> Result<Rid> {
        if data.len() + 8 > self.page_size / 2 {
            return Err(Error::Corruption(format!(
                "record of {} bytes too large for {}-byte pages",
                data.len(),
                self.page_size
            )));
        }
        // Pick a page: a recently freed candidate from the sharded
        // FSM first, else the last page, else a new one. Taking a
        // candidate *removes* it from the map, so no FSM lock is ever
        // held across the page latch and two inserters never chase
        // the same candidate; a page that still has room is
        // re-registered after the latch is dropped.
        let mut candidates: Vec<PageId> = Vec::with_capacity(2);
        if let Some((p, shard)) = self.fsm.take_candidate(self.fsm.preferred_shard()) {
            self.stats.fsm_shard_hits.bump(shard);
            candidates.push(p);
        }
        let n = self.cache.num_pages();
        if n > 0 {
            let last = PageId(n - 1);
            if !candidates.contains(&last) {
                candidates.push(last);
            }
        }
        for page in candidates {
            // Candidates are heuristics, not guarantees: the last-page
            // candidate can be mid-allocation (cursor published before
            // the frame) or a crash-lost hole. Skip and fall through.
            let Ok(frame) = self.cache.frame(page) else {
                continue;
            };
            let mut g = frame.latch.exclusive();
            if g.payload.fits(data.len()) {
                let slot = g.payload.insert(data)?;
                let rid = Rid { page, slot };
                let lsn = log(rid);
                g.lsn = lsn;
                let still_free = g.payload.fits(64);
                drop(g);
                if still_free {
                    self.fsm.note_free(page);
                }
                self.stats.inserts.bump();
                return Ok(rid);
            }
            // Full: the candidate stays out of the map.
        }
        // Fresh page. A new frame is visible to every other inserter
        // (as their last-page candidate) the moment it is allocated,
        // so by the time this thread holds the latch the page may
        // already be full — those inserts were served, ours was not.
        // Allocate again rather than surface a spurious `PageFull`.
        loop {
            let frame = self.cache.allocate(SlottedPage::new(self.page_size));
            let page = frame.id;
            let mut g = frame.latch.exclusive();
            if !g.payload.fits(data.len()) {
                continue;
            }
            let slot = g.payload.insert(data)?;
            let rid = Rid { page, slot };
            let lsn = log(rid);
            g.lsn = lsn;
            let still_free = g.payload.fits(64);
            drop(g);
            if still_free {
                self.fsm.note_free(page);
            }
            self.stats.inserts.bump();
            return Ok(rid);
        }
    }

    /// Delete a record, returning its before-image. `log` runs under
    /// the X latch with the old bytes.
    pub fn delete_with(&self, rid: Rid, log: impl FnOnce(&[u8]) -> Lsn) -> Result<Vec<u8>> {
        let frame = self.cache.frame(rid.page)?;
        let mut g = frame.latch.exclusive();
        let old = g.payload.delete(rid.slot)?;
        let lsn = log(&old);
        g.lsn = lsn;
        drop(g);
        // The slot stays *reserved* until the deleter commits
        // ([`HeapTable::release_slot`]); only then does the page
        // rejoin the free list.
        self.stats.deletes.bump();
        Ok(old)
    }

    /// Release a slot reserved by a (now committed) delete, making it
    /// reusable.
    pub fn release_slot(&self, rid: Rid) -> Result<()> {
        let frame = self.cache.frame(rid.page)?;
        let mut g = frame.latch.exclusive();
        g.payload.free_slot(rid.slot);
        drop(g);
        self.fsm.note_free(rid.page);
        Ok(())
    }

    /// Post-recovery sweep: every still-reserved slot belonged to a
    /// committed deleter (losers were rolled back, restoring their
    /// records), so free them all.
    pub fn sweep_reserved(&self) -> Result<u64> {
        let mut freed = 0;
        for pnum in 0..self.cache.num_pages() {
            let page = PageId(pnum);
            let Ok(frame) = self.cache.frame(page) else {
                continue;
            };
            let mut g = frame.latch.exclusive();
            for slot in g.payload.reserved_slots() {
                g.payload.free_slot(slot);
                freed += 1;
            }
        }
        Ok(freed)
    }

    /// Update a record in place, returning its before-image.
    pub fn update_with(
        &self,
        rid: Rid,
        new: &[u8],
        log: impl FnOnce(&[u8]) -> Lsn,
    ) -> Result<Vec<u8>> {
        let frame = self.cache.frame(rid.page)?;
        let mut g = frame.latch.exclusive();
        let old = g.payload.update(rid.slot, new)?;
        let lsn = log(&old);
        g.lsn = lsn;
        self.stats.updates.bump();
        Ok(old)
    }

    /// Read one record (S latch).
    pub fn read(&self, rid: Rid) -> Result<Vec<u8>> {
        let frame = self.cache.frame(rid.page)?;
        let g = frame.latch.share();
        g.payload
            .get(rid.slot)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| Error::NotFound(format!("record {rid}")))
    }

    /// Does the record exist (committed or not — physical presence)?
    pub fn exists(&self, rid: Rid) -> bool {
        self.cache
            .frame(rid.page)
            .map(|f| f.latch.share().payload.get(rid.slot).is_some())
            .unwrap_or(false)
    }

    /// Scan records in RID order, visiting pages up to and including
    /// `last_page`. `from = None` scans from the beginning;
    /// `Some(rid)` resumes strictly *after* `rid` (IB restart). `f`
    /// runs on a copy of each page's records with no latch held and
    /// returns `false` to stop early. Returns the RID of the last
    /// record visited.
    pub fn scan_from(
        &self,
        from: Option<Rid>,
        last_page: PageId,
        f: impl FnMut(Rid, &[u8]) -> Result<bool>,
    ) -> Result<Option<Rid>> {
        self.scan_pages(from, last_page, f, |_| {})
    }

    /// [`HeapTable::scan_from`] with a per-page hook. The scan latches
    /// a page to copy it, not to work on it (§3.2.2: latch, extract,
    /// set Current-RID, unlatch): under the page's S latch it copies
    /// the live records into a buffer it reuses and runs `under_latch`
    /// once; then it releases the latch, feeds the copies to `f`, and
    /// gives way ([`pace`]) before the next page.
    ///
    /// The SF index builder's hook advances Current-RID past the whole
    /// page. Updaters decide side-file or not under the page's X latch,
    /// so every change to the page after the copy was taken — an update
    /// or delete of a copied record, or an insert into the page's free
    /// space — sees the advanced cursor and goes to the side-file,
    /// while `f` is still working on the old images.
    ///
    /// A page with no frame is a crash-lost hole, or a page whose
    /// allocator has advanced the page count but not yet published the
    /// frame. The hook runs latchless and the scan looks once more:
    /// whoever latches the page after the hook sees what the hook did,
    /// and a frame latched before it is one the second look finds.
    pub fn scan_pages(
        &self,
        from: Option<Rid>,
        last_page: PageId,
        mut f: impl FnMut(Rid, &[u8]) -> Result<bool>,
        mut under_latch: impl FnMut(PageId),
    ) -> Result<Option<Rid>> {
        let lookup = |page| match self.cache.frame(page) {
            Ok(fr) => Ok(Some(fr)),
            Err(Error::NotFound(_)) => Ok(None),
            Err(e) => Err(e),
        };
        let mut last_seen = None;
        let mut pages_in_batch = 0usize;
        // The copy of one page: record bytes end to end, and each
        // record's slot with the end of its bytes.
        let mut bytes: Vec<u8> = Vec::with_capacity(self.page_size);
        let mut slots: Vec<(mohan_common::SlotId, usize)> = Vec::new();
        let first_page = from.map_or(PageId(0), |r| r.page);
        for pnum in first_page.0..=last_page.0.min(self.cache.num_pages().saturating_sub(1)) {
            let page = PageId(pnum);
            if pages_in_batch == 0 {
                self.stats.io_batches.bump();
            }
            pages_in_batch = (pages_in_batch + 1) % self.prefetch;
            self.stats.scan_pages.bump();
            bytes.clear();
            slots.clear();
            let mut frame = lookup(page)?;
            let hole = frame.is_none();
            if hole {
                under_latch(page);
                frame = lookup(page)?;
            }
            if let Some(frame) = frame {
                let g = frame.latch.share();
                for (slot, data) in g.payload.records() {
                    if from.is_some_and(|f| Rid { page, slot } <= f) {
                        continue;
                    }
                    bytes.extend_from_slice(data);
                    slots.push((slot, bytes.len()));
                }
                if !hole {
                    under_latch(page);
                }
            }
            let mut start = 0;
            for &(slot, end) in &slots {
                let rid = Rid { page, slot };
                last_seen = Some(rid);
                if !f(rid, &bytes[start..end])? {
                    return Ok(last_seen);
                }
                start = end;
            }
            pace();
        }
        Ok(last_seen)
    }

    /// Count live records (test/verification helper).
    pub fn count(&self) -> Result<u64> {
        let mut n = 0u64;
        let last = PageId(self.cache.num_pages().saturating_sub(1));
        self.scan_from(None, last, |_, _| {
            n += 1;
            Ok(true)
        })?;
        Ok(n)
    }

    // ----- recovery primitives --------------------------------------

    fn ensure(
        &self,
        page: PageId,
    ) -> Result<std::sync::Arc<mohan_storage::cache::Frame<SlottedPage>>> {
        self.cache
            .ensure_with(page, || SlottedPage::new(self.page_size))
    }

    /// Redo an insert if the page has not seen `lsn` yet.
    pub fn redo_insert(&self, rid: Rid, data: &[u8], lsn: Lsn) -> Result<()> {
        let frame = self.ensure(rid.page)?;
        let mut g = frame.latch.exclusive();
        if g.lsn >= lsn {
            return Ok(());
        }
        g.payload.insert_at(rid.slot, data)?;
        g.lsn = lsn;
        Ok(())
    }

    /// Redo a delete if the page has not seen `lsn` yet.
    pub fn redo_delete(&self, rid: Rid, lsn: Lsn) -> Result<()> {
        let frame = self.ensure(rid.page)?;
        let mut g = frame.latch.exclusive();
        if g.lsn >= lsn {
            return Ok(());
        }
        g.payload.delete(rid.slot)?;
        g.lsn = lsn;
        Ok(())
    }

    /// Redo an update if the page has not seen `lsn` yet.
    pub fn redo_update(&self, rid: Rid, new: &[u8], lsn: Lsn) -> Result<()> {
        let frame = self.ensure(rid.page)?;
        let mut g = frame.latch.exclusive();
        if g.lsn >= lsn {
            return Ok(());
        }
        g.payload.update(rid.slot, new)?;
        g.lsn = lsn;
        Ok(())
    }

    /// Undo helpers: apply the inverse unconditionally (repeat-history
    /// redo guarantees the forward state). The `log` closure runs
    /// *under the page X latch* — Figure 2 computes the current count
    /// of visible indexes while the target page is latched — and
    /// returns the CLR's LSN to stamp on the page.
    pub fn undo_insert(&self, rid: Rid, log: impl FnOnce() -> Lsn) -> Result<Vec<u8>> {
        let frame = self.cache.frame(rid.page)?;
        let mut g = frame.latch.exclusive();
        let old = g.payload.delete(rid.slot)?;
        // Unlike a forward delete, a rolled-back insert leaves no one
        // holding a stale reference to the RID: free the slot at once
        // (the paper's example has T2 reuse T1's RID immediately after
        // T1's rollback).
        g.payload.free_slot(rid.slot);
        g.lsn = log();
        drop(g);
        self.fsm.note_free(rid.page);
        self.stats.deletes.bump();
        Ok(old)
    }

    /// Undo of a delete restores the exact record at its original RID.
    pub fn undo_delete(&self, rid: Rid, old: &[u8], log: impl FnOnce() -> Lsn) -> Result<()> {
        let frame = self.ensure(rid.page)?;
        let mut g = frame.latch.exclusive();
        g.payload.insert_at(rid.slot, old)?;
        g.lsn = log();
        Ok(())
    }

    /// Undo of an update restores the before-image.
    pub fn undo_update(&self, rid: Rid, old: &[u8], log: impl FnOnce() -> Lsn) -> Result<()> {
        let frame = self.ensure(rid.page)?;
        let mut g = frame.latch.exclusive();
        g.payload.update(rid.slot, old)?;
        g.lsn = log();
        Ok(())
    }

    /// Simulated crash (volatile pages vanish).
    pub fn crash(&self) {
        self.cache.crash();
        self.fsm.clear();
    }
}

impl std::fmt::Debug for HeapTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapTable")
            .field("id", &self.id)
            .field("pages", &self.num_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> HeapTable {
        HeapTable::new(TableId(1), 256, 4)
    }

    fn no_log(_: Rid) -> Lsn {
        Lsn::NULL
    }

    #[test]
    fn insert_read_roundtrip_across_pages() {
        let t = table();
        let mut rids = Vec::new();
        for i in 0..100u8 {
            rids.push(t.insert_with(&[i; 40], no_log).unwrap());
        }
        assert!(t.num_pages() > 1);
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(t.read(*rid).unwrap(), vec![i as u8; 40]);
        }
    }

    #[test]
    fn log_closure_sees_rid_and_stamps_lsn() {
        let t = table();
        let mut seen = None;
        let rid = t
            .insert_with(b"x", |r| {
                seen = Some(r);
                Lsn(42)
            })
            .unwrap();
        assert_eq!(seen, Some(rid));
        let frame = t.cache.frame(rid.page).unwrap();
        assert_eq!(frame.latch.share().lsn, Lsn(42));
    }

    #[test]
    fn delete_reserves_slot_until_released() {
        let t = table();
        let rid = t.insert_with(&[7; 50], no_log).unwrap();
        let old = t.delete_with(rid, |_| Lsn::NULL).unwrap();
        assert_eq!(old, vec![7; 50]);
        assert!(!t.exists(rid));
        // Not reusable until the deleter commits.
        let rid2 = t.insert_with(&[8; 50], no_log).unwrap();
        assert_ne!(rid2, rid);
        t.release_slot(rid).unwrap();
        let rid3 = t.insert_with(&[9; 50], no_log).unwrap();
        assert_eq!(rid3, rid);
    }

    #[test]
    fn sweep_frees_all_reserved_slots() {
        let t = table();
        let a = t.insert_with(&[1; 10], no_log).unwrap();
        let b = t.insert_with(&[2; 10], no_log).unwrap();
        t.delete_with(a, |_| Lsn::NULL).unwrap();
        t.delete_with(b, |_| Lsn::NULL).unwrap();
        assert_eq!(t.sweep_reserved().unwrap(), 2);
        let c = t.insert_with(&[3; 10], no_log).unwrap();
        assert!(c == a || c == b);
    }

    #[test]
    fn update_in_place() {
        let t = table();
        let rid = t.insert_with(b"before", no_log).unwrap();
        let old = t.update_with(rid, b"after!", |_| Lsn(5)).unwrap();
        assert_eq!(old, b"before");
        assert_eq!(t.read(rid).unwrap(), b"after!");
    }

    #[test]
    fn scan_visits_rid_order_and_resumes() {
        let t = table();
        let mut rids = Vec::new();
        for i in 0..60u8 {
            rids.push(t.insert_with(&[i; 20], no_log).unwrap());
        }
        let last_page = PageId(t.num_pages() - 1);
        let mut seen = Vec::new();
        t.scan_from(None, last_page, |rid, data| {
            seen.push((rid, data[0]));
            Ok(true)
        })
        .unwrap();
        assert_eq!(seen.len(), 60);
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0));

        // Resume after the 30th record: sees exactly the rest.
        let resume_after = seen[29].0;
        let mut rest = Vec::new();
        t.scan_from(Some(resume_after), last_page, |rid, _| {
            rest.push(rid);
            Ok(true)
        })
        .unwrap();
        assert_eq!(rest, seen[30..].iter().map(|(r, _)| *r).collect::<Vec<_>>());
    }

    #[test]
    fn scan_pages_latches_to_copy_and_hooks_once_per_page_before_its_records() {
        let t = table();
        for i in 0..60u8 {
            t.insert_with(&[i; 20], no_log).unwrap();
        }
        // A never-allocated page in the middle of the range: a hole.
        let hole = PageId(t.num_pages());
        t.redo_insert(Rid::new(hole.0 + 1, 0), &[99; 20], Lsn(1))
            .unwrap();
        let pages = t.num_pages();
        assert_eq!(pages, hole.0 + 2);
        #[derive(Debug, PartialEq)]
        enum Ev {
            Hook(PageId),
            Rec(Rid),
        }
        let events = std::cell::RefCell::new(Vec::new());
        t.scan_pages(
            None,
            PageId(pages - 1),
            |rid, _| {
                // The page being delivered is not latched any more.
                let frame = t.cache.frame(rid.page).unwrap();
                assert!(frame.latch.try_exclusive().is_some());
                events.borrow_mut().push(Ev::Rec(rid));
                Ok(true)
            },
            |page| {
                // The hook runs under the page's S latch (a hole has
                // no frame to latch).
                if let Ok(frame) = t.cache.frame(page) {
                    assert!(frame.latch.try_exclusive().is_none());
                } else {
                    assert_eq!(page, hole);
                }
                events.borrow_mut().push(Ev::Hook(page));
            },
        )
        .unwrap();
        let events = events.into_inner();
        // One hook per page, in page order, each before any record of
        // its page and after every record of the pages before it.
        let hooks: Vec<PageId> = events
            .iter()
            .filter_map(|e| match e {
                Ev::Hook(p) => Some(*p),
                Ev::Rec(_) => None,
            })
            .collect();
        assert_eq!(hooks, (0..pages).map(PageId).collect::<Vec<_>>());
        let mut hooked = None;
        let mut recs = 0;
        for ev in &events {
            match ev {
                Ev::Hook(p) => hooked = Some(*p),
                Ev::Rec(rid) => {
                    assert_eq!(Some(rid.page), hooked, "record outside its page's turn");
                    recs += 1;
                }
            }
        }
        assert_eq!(recs, 61);
    }

    #[test]
    fn scan_pages_finds_a_frame_published_while_the_hook_ran() {
        let t = table();
        t.insert_with(&[1; 20], no_log).unwrap();
        // Page 1 counts as allocated but has no frame yet, as between
        // the two steps of `PageCache::allocate`.
        t.redo_insert(Rid::new(2, 0), &[3; 20], Lsn(1)).unwrap();
        let mut hooks = Vec::new();
        let mut seen = Vec::new();
        t.scan_pages(
            None,
            PageId(2),
            |rid, data| {
                seen.push((rid, data[0]));
                Ok(true)
            },
            |page| {
                hooks.push(page);
                if page == PageId(1) {
                    // The allocator publishes the frame and its owner
                    // inserts, all before the hook's effect is visible.
                    t.redo_insert(Rid::new(1, 0), &[2; 20], Lsn(2)).unwrap();
                }
            },
        )
        .unwrap();
        assert_eq!(hooks, vec![PageId(0), PageId(1), PageId(2)]);
        assert_eq!(
            seen,
            vec![
                (Rid::new(0, 0), 1),
                (Rid::new(1, 0), 2),
                (Rid::new(2, 0), 3)
            ]
        );
    }

    #[test]
    fn scan_stops_early_and_reports_position() {
        let t = table();
        for i in 0..20u8 {
            t.insert_with(&[i], no_log).unwrap();
        }
        let mut n = 0;
        let last = t
            .scan_from(None, PageId(t.num_pages() - 1), |_, _| {
                n += 1;
                Ok(n < 5)
            })
            .unwrap();
        assert_eq!(n, 5);
        assert!(last.is_some());
    }

    #[test]
    fn scan_respects_last_page_bound() {
        let t = table();
        for i in 0..100u8 {
            t.insert_with(&[i; 40], no_log).unwrap();
        }
        assert!(t.num_pages() >= 3);
        let mut pages = std::collections::HashSet::new();
        t.scan_from(None, PageId(1), |rid, _| {
            pages.insert(rid.page);
            Ok(true)
        })
        .unwrap();
        assert!(pages.iter().all(|p| p.0 <= 1));
    }

    #[test]
    fn io_batches_accounted() {
        let t = table();
        for i in 0..200u8 {
            t.insert_with(&[i; 40], no_log).unwrap();
        }
        let pages = t.num_pages() as u64;
        t.scan_from(None, PageId((pages - 1) as u32), |_, _| Ok(true))
            .unwrap();
        let batches = t.stats.io_batches.get();
        assert!(
            batches >= pages / 4 && batches <= pages / 4 + 2,
            "batches={batches} pages={pages}"
        );
    }

    #[test]
    fn redo_is_idempotent_by_page_lsn() {
        let t = table();
        t.redo_insert(Rid::new(0, 0), b"abc", Lsn(5)).unwrap();
        // Replay of the same record is a no-op.
        t.redo_insert(Rid::new(0, 0), b"abc", Lsn(5)).unwrap();
        assert_eq!(t.read(Rid::new(0, 0)).unwrap(), b"abc");
        t.redo_delete(Rid::new(0, 0), Lsn(6)).unwrap();
        t.redo_delete(Rid::new(0, 0), Lsn(6)).unwrap();
        assert!(!t.exists(Rid::new(0, 0)));
    }

    #[test]
    fn redo_recreates_crash_lost_pages() {
        let t = table();
        let rid = t.insert_with(b"gone", no_log).unwrap();
        t.crash(); // page never forced
        assert_eq!(t.num_pages(), 0);
        t.redo_insert(rid, b"gone", Lsn(3)).unwrap();
        assert_eq!(t.read(rid).unwrap(), b"gone");
    }

    #[test]
    fn undo_delete_restores_original_rid() {
        let t = table();
        let rid = t.insert_with(b"keep-me", no_log).unwrap();
        let old = t.delete_with(rid, |_| Lsn(2)).unwrap();
        t.undo_delete(rid, &old, || Lsn(3)).unwrap();
        assert_eq!(t.read(rid).unwrap(), b"keep-me");
        let frame = t.cache.frame(rid.page).unwrap();
        assert_eq!(frame.latch.share().lsn, Lsn(3));
    }

    #[test]
    fn oversized_record_rejected() {
        let t = table();
        assert!(t.insert_with(&[0u8; 300], no_log).is_err());
    }

    #[test]
    fn concurrent_inserters_never_lose_or_duplicate_rids() {
        let t = std::sync::Arc::new(HeapTable::new(TableId(1), 256, 4));
        let handles: Vec<_> = (0..8u8)
            .map(|w| {
                let t = std::sync::Arc::clone(&t);
                std::thread::spawn(move || {
                    (0..50u8)
                        .map(|i| t.insert_with(&[w, i], no_log).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut rids: Vec<Rid> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        rids.sort();
        rids.dedup();
        assert_eq!(rids.len(), 400, "duplicate RID handed out under contention");
        assert_eq!(t.count().unwrap(), 400);
        assert_eq!(t.stats.inserts.get(), 400);
    }

    #[test]
    fn forced_pages_survive_crash_with_contents() {
        let t = table();
        let rid = t.insert_with(b"durable", |_| Lsn(1)).unwrap();
        t.cache.force(rid.page, Lsn(1)).unwrap();
        t.crash();
        assert_eq!(t.read(rid).unwrap(), b"durable");
    }
}
