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
//! An insert tries its thread's target page first, then the lowest
//! page of the free-space map, then a new page. The map is one ordered
//! set of the pages with room; a thread visits it once per page it
//! fills, not once per row.
//!
//! The scan side ([`HeapTable::scan_pages`]) latches each page in share
//! mode only to copy its records, hands them out in RID order with the
//! latch released, and accounts simulated sequential-prefetch I/O
//! batches (§2.2.2). Those scan counters are the table's only ones:
//! row operations count nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mohan_common::pace::pace;
use mohan_common::stats::Counter;
use mohan_common::{Error, Lsn, PageId, Result, Rid, TableId};
use mohan_storage::{PageCache, SlottedPage};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Free bytes a page needs to be in the FSM: a thread's target page
/// that refused a record rejoins the map only with this much, and
/// restart registers the pages that have it.
const ROOM: usize = 64;

/// Event counters for one table.
#[derive(Debug, Default)]
pub struct HeapStats {
    /// Pages visited by scans.
    pub scan_pages: Counter,
    /// Simulated prefetch I/O batches issued by scans.
    pub io_batches: Counter,
}

/// The free-space map: pages believed to have room, in one ordered set
/// that offers the lowest page first. Its lock is only ever held for an
/// insert or a pop — never across a page latch.
///
/// A page an inserting thread keeps as its target ([`Target`]) is out
/// of the map, so each thread keeps at most one page with room out of
/// it, and an inserter visits the map once per page it fills.
#[derive(Default)]
struct FreeSpaceMap {
    pages: Mutex<BTreeSet<PageId>>,
    /// Bumped by a crash: a target taken before it is stale.
    epoch: AtomicU64,
}

impl FreeSpaceMap {
    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Record `page` as having free space (idempotent).
    fn note_free(&self, page: PageId) {
        self.pages.lock().insert(page);
    }

    /// Take a candidate page out of the map, the lowest first. The
    /// caller either re-registers the page via `note_free` or lets a
    /// full page stay dropped.
    fn take_candidate(&self) -> Option<PageId> {
        self.pages.lock().pop_first()
    }

    /// Forget every page, and every thread's target (a crash).
    fn clear(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
        self.pages.lock().clear();
    }
}

/// The page an inserting thread put its last record on: its next
/// insert into the same table tries it first, and goes to the map only
/// when the page refuses the record or is gone (PostgreSQL's
/// per-backend target block). Each thread has its own, so concurrent
/// inserters fill different pages.
struct Target {
    /// The table's map: which table the page is of, and where it goes
    /// back when the thread moves on.
    fsm: Weak<FreeSpaceMap>,
    /// The map's epoch when the page was taken.
    epoch: u64,
    page: PageId,
}

impl Target {
    /// The page, if this is `fsm`'s target and no crash came since.
    fn page_in(&self, fsm: &Arc<FreeSpaceMap>) -> Option<PageId> {
        (std::ptr::eq(self.fsm.as_ptr(), Arc::as_ptr(fsm)) && self.epoch == fsm.epoch())
            .then_some(self.page)
    }

    /// The thread moves on: the page rejoins its table's map, unless
    /// the table or the epoch is gone.
    fn give_back(self) {
        if let Some(fsm) = self.fsm.upgrade() {
            if self.epoch == fsm.epoch() {
                fsm.note_free(self.page);
            }
        }
    }
}

/// A thread's [`Target`]; a thread that ends gives it back.
struct TargetSlot(Option<Target>);

impl Drop for TargetSlot {
    fn drop(&mut self) {
        if let Some(target) = self.0.take() {
            target.give_back();
        }
    }
}

thread_local! {
    static TARGET: RefCell<TargetSlot> = const { RefCell::new(TargetSlot(None)) };
}

/// A heap table.
pub struct HeapTable {
    /// Table identity.
    pub id: TableId,
    /// Backing pages (crash-aware).
    pub cache: PageCache<SlottedPage>,
    page_size: usize,
    prefetch: usize,
    /// Pages believed to have free space.
    fsm: Arc<FreeSpaceMap>,
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
            fsm: Arc::default(),
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
        // Pick a page: this thread's target first, then a candidate
        // from the FSM, else a new page. Taking a candidate
        // *removes* it from the map, so no FSM lock is ever held across
        // the page latch and two inserters never chase the same
        // candidate. Candidates are heuristics, not guarantees: a
        // crash-lost page has no frame and is skipped, and a full one
        // stays out of the map.
        let target = TARGET.with_borrow(|slot| slot.0.as_ref().and_then(|t| t.page_in(&self.fsm)));
        let candidate = std::iter::once_with(|| self.fsm.take_candidate()).flatten();
        let fresh =
            std::iter::repeat_with(|| self.cache.allocate(SlottedPage::new(self.page_size)));
        let frames = (target.into_iter().chain(candidate))
            .filter_map(|page| self.cache.frame(page).ok())
            .chain(fresh);
        // The target refused the record but has room for smaller ones.
        let mut target_room = false;
        for frame in frames {
            let mut g = frame.latch.exclusive();
            // The insert is its own room check: a full page is left as
            // it was.
            let slot = match g.payload.insert(data) {
                Ok(slot) => slot,
                Err(Error::PageFull) => {
                    if Some(frame.id) == target {
                        target_room = g.payload.fits(ROOM);
                    }
                    continue;
                }
                Err(e) => return Err(e),
            };
            let rid = Rid {
                page: frame.id,
                slot,
            };
            g.lsn = log(rid);
            drop(g);
            if Some(rid.page) != target {
                self.retarget(rid.page, target_room);
            }
            return Ok(rid);
        }
        unreachable!("fresh pages never run out")
    }

    /// Make `page` this thread's target. The page it replaces rejoins
    /// its table's map, unless it is a page of this table with less
    /// than [`ROOM`] free (`room` false).
    fn retarget(&self, page: PageId, room: bool) {
        let next = Target {
            fsm: Arc::downgrade(&self.fsm),
            epoch: self.fsm.epoch(),
            page,
        };
        match TARGET.with_borrow_mut(|slot| slot.0.replace(next)) {
            Some(old) if old.page_in(&self.fsm).is_none() => old.give_back(),
            Some(old) if room => self.fsm.note_free(old.page),
            _ => {}
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
        // The slot and the record's bytes stay *reserved* until the
        // deleter commits ([`HeapTable::release_slot`]), so a rollback
        // always fits; only then does the page rejoin the free list.
        Ok(old)
    }

    /// The transaction that deleted or updated the record at `rid`
    /// ended — committed, or finished rolling back: release the slot and
    /// bytes its delete reserved, or the bytes its shrinking update or
    /// its undo steps held, making them reusable.
    pub fn release_slot(&self, rid: Rid) -> Result<()> {
        let frame = self.cache.frame(rid.page)?;
        let freed = frame.latch.exclusive().payload.free_slot(rid.slot);
        if freed {
            self.fsm.note_free(rid.page);
        }
        Ok(())
    }

    /// Post-recovery sweep: every still-reserved slot belonged to a
    /// committed deleter (losers were rolled back, restoring their
    /// records), so free them all, and end the holds the losers'
    /// rollbacks kept. Every page left with room joins the FSM, which
    /// the crash emptied.
    pub fn sweep_reserved(&self) -> Result<u64> {
        let mut freed = 0;
        for pnum in 0..self.cache.num_pages() {
            let page = PageId(pnum);
            let Ok(frame) = self.cache.frame(page) else {
                continue;
            };
            let room = {
                let mut g = frame.latch.exclusive();
                freed += g.payload.sweep() as u64;
                g.payload.fits(ROOM)
            };
            if room {
                self.fsm.note_free(page);
            }
        }
        Ok(freed)
    }

    /// Update a record in place, returning its before-image. A shrink
    /// holds the record's old length until the updater ends
    /// ([`HeapTable::release_slot`] at its commit or at the end of its
    /// rollback), so every [`HeapTable::undo_restore`] fits.
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
        g.payload.update_at(rid.slot, new)?;
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
        Ok(old)
    }

    /// Undo of a delete or an update: put the before-image back at its
    /// original RID. Like every undo step it keeps the record's hold,
    /// which the rollback's end releases ([`HeapTable::release_slot`]).
    pub fn undo_restore(&self, rid: Rid, old: &[u8], log: impl FnOnce() -> Lsn) -> Result<()> {
        let frame = self.ensure(rid.page)?;
        let mut g = frame.latch.exclusive();
        g.payload.restore(rid.slot, old)?;
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
        t.undo_restore(rid, &old, || Lsn(3)).unwrap();
        assert_eq!(t.read(rid).unwrap(), b"keep-me");
        let frame = t.cache.frame(rid.page).unwrap();
        assert_eq!(frame.latch.share().lsn, Lsn(3));
    }

    /// A delete keeps its bytes until the deleter ends: another
    /// transaction's insert cannot take them, so the rollback that puts
    /// the record back always fits.
    #[test]
    fn undo_delete_fits_after_others_fill_the_page() {
        let t = table();
        let rid = t.insert_with(&[1; 18], no_log).unwrap();
        for _ in 0..5 {
            t.insert_with(&[2; 40], no_log).unwrap();
        }
        assert_eq!(t.num_pages(), 1, "10 bytes left on the page");
        let old = t.delete_with(rid, |_| Lsn(2)).unwrap();
        let other = t.insert_with(&[3; 14], no_log).unwrap();
        t.undo_restore(rid, &old, || Lsn(3)).unwrap();
        assert_eq!(t.read(rid).unwrap(), vec![1; 18]);
        assert_ne!(other.page, rid.page);
    }

    /// A shrinking update keeps its record's old length until the
    /// updater ends: the 22 bytes a 30 → 8-byte update frees cannot go
    /// to an 18-byte insert, so the rollback to 30 bytes fits. After the
    /// updater commits they are free.
    #[test]
    fn undo_update_fits_after_a_shrink_and_an_insert() {
        let t = table();
        let rid = t.insert_with(&[1; 30], no_log).unwrap();
        for _ in 0..4 {
            t.insert_with(&[2; 40], no_log).unwrap();
        }
        t.insert_with(&[3; 20], no_log).unwrap();
        assert_eq!(t.num_pages(), 1, "18 bytes left on the page");
        let old = t.update_with(rid, &[4; 8], |_| Lsn(2)).unwrap();
        let other = t.insert_with(&[5; 18], no_log).unwrap();
        assert_ne!(other.page, rid.page, "the shrink's bytes are held");
        t.undo_restore(rid, &old, || Lsn(3)).unwrap();
        assert_eq!(t.read(rid).unwrap(), vec![1; 30]);

        t.update_with(rid, &[4; 8], |_| Lsn(4)).unwrap();
        t.release_slot(rid).unwrap();
        // This thread's target is `other`'s page; an inserter with no
        // target takes the page the release put back in the map.
        let after = std::thread::scope(|s| {
            s.spawn(|| t.insert_with(&[6; 18], no_log).unwrap())
                .join()
                .unwrap()
        });
        assert_eq!(after.page, rid.page, "the committed shrink freed them");
    }

    /// A rollback undoes one step at a time and lets the page go between
    /// steps, so its steps keep the hold as well: after a 30 → 8-byte
    /// update and then a delete, or a second update to 5 bytes, undoing
    /// the later step puts back 8 bytes, and an 18-byte insert that comes
    /// before the next step still cannot take the 22 bytes it restores.
    #[test]
    fn undo_steps_keep_the_hold_between_them() {
        for delete in [true, false] {
            let t = table();
            let rid = t.insert_with(&[1; 30], no_log).unwrap();
            for _ in 0..4 {
                t.insert_with(&[2; 40], no_log).unwrap();
            }
            t.insert_with(&[3; 20], no_log).unwrap();
            let first = t.update_with(rid, &[4; 8], |_| Lsn(2)).unwrap();
            if delete {
                let old = t.delete_with(rid, |_| Lsn(3)).unwrap();
                t.undo_restore(rid, &old, || Lsn(4)).unwrap();
            } else {
                let old = t.update_with(rid, &[5; 5], |_| Lsn(3)).unwrap();
                t.undo_restore(rid, &old, || Lsn(4)).unwrap();
            }
            assert_eq!(t.read(rid).unwrap(), vec![4; 8]);
            let other = t.insert_with(&[6; 18], no_log).unwrap();
            assert_ne!(
                other.page, rid.page,
                "delete {delete}: the undo kept the hold"
            );
            t.undo_restore(rid, &first, || Lsn(5)).unwrap();
            assert_eq!(t.read(rid).unwrap(), vec![1; 30]);
            t.release_slot(rid).unwrap();
        }
    }

    /// The end of a rollback releases what its steps held: undoing a
    /// 20 → 40-byte update puts back 20 bytes and holds 40 until then.
    #[test]
    fn the_end_of_a_rollback_releases_its_holds() {
        let t = table();
        let rid = t.insert_with(&[1; 20], no_log).unwrap();
        let old = t.update_with(rid, &[2; 40], |_| Lsn(2)).unwrap();
        let frame = t.cache.frame(rid.page).unwrap();
        let free = || frame.latch.share().payload.total_free();
        let before = free();
        t.undo_restore(rid, &old, || Lsn(3)).unwrap();
        assert_eq!(free(), before, "held until the rollback ends");
        t.release_slot(rid).unwrap();
        assert_eq!(free(), before + 20);
    }

    /// A release writes no log record, so restart redoes an insert into
    /// bytes that two committed deletes gave back onto a page image that
    /// still holds both reservations. The insert fit forward; it fits
    /// in redo.
    #[test]
    fn redo_insert_fits_where_committed_deletes_released_bytes() {
        let t = table();
        let a = t.insert_with(&[1; 26], |_| Lsn(1)).unwrap();
        let b = t.insert_with(&[2; 26], |_| Lsn(1)).unwrap();
        t.insert_with(&[3; 34], |_| Lsn(1)).unwrap();
        for _ in 0..7 {
            t.insert_with(&[4; 18], |_| Lsn(1)).unwrap();
        }
        assert_eq!(t.num_pages(), 1, "the page is full");
        t.delete_with(a, |_| Lsn(2)).unwrap();
        t.delete_with(b, |_| Lsn(3)).unwrap();
        t.cache.force_all(Lsn(3), || {}).unwrap();
        t.release_slot(a).unwrap();
        t.release_slot(b).unwrap();
        let big = t.insert_with(&[5; 42], |_| Lsn(4)).unwrap();
        assert_eq!(big, a, "the insert took both released chunks");
        t.crash();
        t.redo_insert(big, &[5; 42], Lsn(4)).unwrap();
        assert_eq!(t.sweep_reserved().unwrap(), 1);
        assert_eq!(t.read(big).unwrap(), vec![5; 42]);
        assert_eq!(t.count().unwrap(), 9);
    }

    #[test]
    fn oversized_record_rejected() {
        let t = table();
        assert!(t.insert_with(&[0u8; 300], no_log).is_err());
    }

    #[test]
    fn a_page_noted_free_three_times_is_taken_once() {
        let fsm = FreeSpaceMap::default();
        for _ in 0..3 {
            fsm.note_free(PageId(4));
        }
        fsm.note_free(PageId(2));
        assert_eq!(fsm.take_candidate(), Some(PageId(2)), "lowest first");
        assert_eq!(fsm.take_candidate(), Some(PageId(4)));
        assert_eq!(fsm.take_candidate(), None);
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
    }

    #[test]
    fn forced_pages_survive_crash_with_contents() {
        let t = table();
        let rid = t.insert_with(b"durable", |_| Lsn(1)).unwrap();
        t.cache.force_all(Lsn(1), || {}).unwrap();
        t.crash();
        assert_eq!(t.read(rid).unwrap(), b"durable");
    }
}
