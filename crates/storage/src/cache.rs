//! A typed, sharded page cache with an explicit volatile/durable
//! boundary.
//!
//! Real DBMS pages live on disk and are cached in a buffer pool. We
//! invert the emphasis: the *volatile* image (a decoded Rust value
//! behind a [`Latch`]) is primary, and the *durable* image (encoded
//! bytes, updated only by [`PageCache::force`]) models the disk. A
//! simulated system failure ([`PageCache::crash`]) discards every
//! volatile frame and all allocations that were never forced; restart
//! decodes the durable images on demand.
//!
//! The cache is partitioned into [`PAGE_SHARDS`] shards keyed by a
//! page-id hash. Each shard owns its own volatile frame map and
//! durable image map, so lookups and forces on different pages contend
//! only within a shard; the allocation cursor and the durable
//! high-water mark are shared atomics. The crash/restart semantics are
//! per-shard but observably identical to the unsharded cache.
//!
//! The write-ahead-log rule is enforced at the boundary: `force`
//! requires the caller to pass the WAL's flushed LSN and refuses to
//! write a page whose LSN is newer ("write-ahead logging", §1.1).
//!
//! Forcing costs what was dirtied. A frame is *dirty* iff its latch
//! has been granted exclusively since the frame was last encoded; the
//! latch keeps the bit and lists the page in its shard's dirty list on
//! the clean→dirty transition, so [`PageCache::force_all`] visits only
//! those pages. Encoding and publishing are separate steps:
//! [`PageCache::stage_dirty`] encodes dirty pages into a volatile
//! staging area and [`PageCache::publish_staged`] moves the staged
//! images into the durable maps. A caller that needs the durable image
//! to change as a unit (the B+-tree) stages without excluding writers
//! and publishes at an instant of its choosing; a crash in between
//! drops the staging area and leaves the previous durable image whole.

use crate::latch::{DirtyList, Latch, LatchStats};
use mohan_common::stats::{Counter, ShardDist};
use mohan_common::{Error, FileId, Lsn, PageId, Result};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Number of shards each page cache is partitioned into (power of
/// two; the shard index is the top bits of a Fibonacci hash of the
/// page id).
pub const PAGE_SHARDS: usize = 16;

/// Something that can live in a page: encodable to / decodable from the
/// durable byte image.
pub trait PagePayload: Send + Sync + Sized + 'static {
    /// Serialize the page contents.
    fn encode(&self, out: &mut Vec<u8>);
    /// Deserialize page contents. Errors indicate corruption.
    fn decode(buf: &[u8]) -> Result<Self>;
}

/// A page's volatile image: its payload plus the recovery LSN of the
/// last logged change applied to it.
#[derive(Debug)]
pub struct PageBuf<T> {
    /// LSN of the newest log record applied to this page
    /// (`Page_LSN` in the paper's pseudo-code).
    pub lsn: Lsn,
    /// The decoded page contents.
    pub payload: T,
}

/// One cached page: identity plus latched buffer.
#[derive(Debug)]
pub struct Frame<T> {
    /// Page number within the owning file.
    pub id: PageId,
    /// The latch protecting the buffer (S for readers, X for
    /// updaters, per §1.1).
    pub latch: Latch<PageBuf<T>>,
}

/// I/O and allocation counters for one page cache.
#[derive(Debug)]
pub struct CacheStats {
    /// Frame lookups that found a volatile image.
    pub hits: Counter,
    /// Frame lookups that had to decode the durable image (a read
    /// I/O in the simulation).
    pub misses: Counter,
    /// Pages forced to the durable image (write I/Os).
    pub forces: Counter,
    /// Pages allocated.
    pub allocations: Counter,
    /// Simulated I/O batches issued by sequential scans (one batch
    /// reads `prefetch_pages` pages, §2.2.2).
    pub io_batches: Counter,
    /// Hit distribution across the cache's shards (shows whether the
    /// page-id hash is actually spreading the hot path).
    pub shard_hits: ShardDist,
}

impl Default for CacheStats {
    fn default() -> Self {
        CacheStats {
            hits: Counter::new(),
            misses: Counter::new(),
            forces: Counter::new(),
            allocations: Counter::new(),
            io_batches: Counter::new(),
            shard_hits: ShardDist::new(PAGE_SHARDS),
        }
    }
}

/// One cache partition: a volatile frame map plus the durable images
/// of the pages that hash here.
struct Shard<T> {
    volatile: RwLock<HashMap<PageId, Arc<Frame<T>>>>,
    durable: Mutex<HashMap<PageId, Vec<u8>>>,
    /// Pages whose frames went clean→dirty since the list was last
    /// taken (shared with those frames' latches).
    dirty: Arc<DirtyList>,
    /// Encoded images not yet published to `durable`. Volatile: a
    /// crash drops them.
    staged: Mutex<HashMap<PageId, Vec<u8>>>,
}

impl<T> Shard<T> {
    fn new() -> Shard<T> {
        Shard {
            volatile: RwLock::new(HashMap::new()),
            durable: Mutex::new(HashMap::new()),
            dirty: Arc::default(),
            staged: Mutex::new(HashMap::new()),
        }
    }
}

/// A crash-aware cache of typed pages forming one page file.
pub struct PageCache<T: PagePayload> {
    file: FileId,
    shards: Vec<Shard<T>>,
    /// Allocation cursor (volatile view): pages `< next_page` are
    /// allocated.
    next_page: AtomicU32,
    /// Durable allocation high-water mark: pages `< durable_count`
    /// are considered allocated after a crash.
    durable_count: AtomicU32,
    latch_stats: Arc<LatchStats>,
    /// Event counters for this cache.
    pub stats: CacheStats,
}

impl<T: PagePayload> PageCache<T> {
    /// Create an empty page file.
    #[must_use]
    pub fn new(file: FileId) -> PageCache<T> {
        PageCache {
            file,
            shards: (0..PAGE_SHARDS).map(|_| Shard::new()).collect(),
            next_page: AtomicU32::new(0),
            durable_count: AtomicU32::new(0),
            latch_stats: LatchStats::new(),
            stats: CacheStats::default(),
        }
    }

    /// Shard index for a page (Fibonacci hash so sequentially
    /// allocated pages spread instead of clustering).
    fn shard_of(id: PageId) -> usize {
        (u64::from(id.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize & (PAGE_SHARDS - 1)
    }

    /// The file this cache backs.
    #[must_use]
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Latch acquisition counters shared by all frames of this file.
    #[must_use]
    pub fn latch_stats(&self) -> &Arc<LatchStats> {
        &self.latch_stats
    }

    /// `dirty`: does the volatile image differ from the durable one
    /// from the start (a fresh page) or not (one just decoded from it)?
    /// A dirty frame must be put on its shard's dirty list *after* it
    /// is in the volatile map ([`Self::list_dirty`]).
    fn make_frame(&self, id: PageId, lsn: Lsn, payload: T, dirty: bool) -> Arc<Frame<T>> {
        Arc::new(Frame {
            id,
            latch: Latch::tracked(
                PageBuf { lsn, payload },
                Arc::clone(&self.latch_stats),
                id.0,
                Arc::clone(&self.shards[Self::shard_of(id)].dirty),
                dirty,
            ),
        })
    }

    /// List a frame created dirty, now that the volatile map holds it:
    /// a force that takes the listing must be able to find the frame.
    fn list_dirty(&self, id: PageId) {
        self.shards[Self::shard_of(id)].dirty.extend([id.0]);
    }

    /// Allocate a fresh page holding `payload`. The allocation is
    /// volatile until the page is forced. The page id comes from a
    /// shared atomic cursor, so concurrent allocators never meet a
    /// lock.
    pub fn allocate(&self, payload: T) -> Arc<Frame<T>> {
        // `SeqCst` here and in `num_pages`: an index build publishes
        // its scan bound and re-reads the page count, an inserter
        // allocates and then reads the bound; one must see the other.
        let id = PageId(self.next_page.fetch_add(1, Ordering::SeqCst));
        let frame = self.make_frame(id, Lsn::NULL, payload, true);
        self.shards[Self::shard_of(id)]
            .volatile
            .write()
            .insert(id, Arc::clone(&frame));
        self.list_dirty(id);
        self.stats.allocations.bump();
        frame
    }

    /// Number of allocated pages (volatile view).
    #[must_use]
    pub fn num_pages(&self) -> u32 {
        self.next_page.load(Ordering::SeqCst)
    }

    /// Fetch a page frame, decoding the durable image on a miss.
    /// Returns `NotFound` for never-allocated or crash-lost pages.
    pub fn frame(&self, id: PageId) -> Result<Arc<Frame<T>>> {
        let si = Self::shard_of(id);
        let shard = &self.shards[si];
        if let Some(f) = shard.volatile.read().get(&id) {
            self.stats.hits.bump();
            self.stats.shard_hits.bump(si);
            return Ok(Arc::clone(f));
        }
        // Miss: try the durable image. Hold the shard's volatile write
        // lock across the check-and-insert so two threads don't both
        // decode.
        let mut v = shard.volatile.write();
        if let Some(f) = v.get(&id) {
            self.stats.hits.bump();
            self.stats.shard_hits.bump(si);
            return Ok(Arc::clone(f));
        }
        let d = shard.durable.lock();
        let Some(bytes) = d.get(&id) else {
            return Err(Error::NotFound(format!("{} {id}", self.file)));
        };
        let payload = T::decode(&bytes[8..])?;
        let mut l8 = [0u8; 8];
        l8.copy_from_slice(&bytes[..8]);
        let lsn = Lsn(u64::from_be_bytes(l8));
        drop(d);
        let frame = self.make_frame(id, lsn, payload, false);
        v.insert(id, Arc::clone(&frame));
        self.stats.misses.bump();
        Ok(frame)
    }

    /// Fetch `id`, creating an empty page from `make` if it does not
    /// resolve (recovery: redo must recreate pages that were allocated
    /// but never forced before the crash). Grows the allocation cursor
    /// past `id` if needed.
    pub fn ensure_with(&self, id: PageId, make: impl FnOnce() -> T) -> Result<Arc<Frame<T>>> {
        if self.exists(id) {
            return self.frame(id);
        }
        let shard = &self.shards[Self::shard_of(id)];
        let mut v = shard.volatile.write();
        if let Some(f) = v.get(&id) {
            return Ok(Arc::clone(f));
        }
        let frame = self.make_frame(id, Lsn::NULL, make(), true);
        v.insert(id, Arc::clone(&frame));
        self.list_dirty(id);
        self.next_page.fetch_max(id.0 + 1, Ordering::AcqRel);
        self.stats.allocations.bump();
        Ok(frame)
    }

    /// True if `id` currently resolves to a page (volatile or durable).
    #[must_use]
    pub fn exists(&self, id: PageId) -> bool {
        let shard = &self.shards[Self::shard_of(id)];
        shard.volatile.read().contains_key(&id) || shard.durable.lock().contains_key(&id)
    }

    /// Under `frame`'s S latch: clear its dirty bit, encode it and hand
    /// the image to `sink`. Does nothing if `only_dirty` is set and the
    /// frame is clean. `sink` runs before the latch is released, so
    /// images of one page reach it in the order the page went through
    /// them even when two forcers meet.
    /// Enforces the WAL rule: a page whose LSN exceeds `flushed_lsn` is
    /// refused and stays dirty, so a retry after a log flush finds it
    /// again.
    fn write_out(
        &self,
        frame: &Frame<T>,
        flushed_lsn: Lsn,
        only_dirty: bool,
        sink: impl FnOnce(Vec<u8>),
    ) -> Result<()> {
        let buf = frame.latch.share();
        if only_dirty && !frame.latch.is_dirty() {
            return Ok(());
        }
        if buf.lsn > flushed_lsn {
            return Err(Error::Corruption(format!(
                "WAL violation: forcing {} {} with page LSN {} > flushed {}",
                self.file, frame.id, buf.lsn, flushed_lsn
            )));
        }
        frame.latch.clear_dirty();
        let mut bytes = Vec::with_capacity(64);
        bytes.extend_from_slice(&buf.lsn.0.to_be_bytes());
        buf.payload.encode(&mut bytes);
        sink(bytes);
        Ok(())
    }

    /// Force one page to the durable image, dirty or not. Enforces the
    /// WAL rule: the page's LSN must not exceed `flushed_lsn`.
    pub fn force(&self, id: PageId, flushed_lsn: Lsn) -> Result<()> {
        let frame = self.frame(id)?;
        let shard = &self.shards[Self::shard_of(id)];
        self.write_out(&frame, flushed_lsn, false, |bytes| {
            // An older staged image must not overwrite this one later.
            shard.staged.lock().remove(&id);
            shard.durable.lock().insert(id, bytes);
        })?;
        self.durable_count.fetch_max(id.0 + 1, Ordering::AcqRel);
        self.stats.forces.bump();
        Ok(())
    }

    /// Encode every dirty page into the staging area, clearing its
    /// dirty bit; the durable image does not change. Each page is
    /// encoded under its own S latch, so writers are held up for one
    /// page encode at most, and a page they touch afterwards is dirty
    /// again. Work is proportional to the pages dirtied since the last
    /// call. On a WAL-rule refusal the refused page and those not yet
    /// visited stay dirty. `between_pages` runs after each page, with
    /// that page's latch released and no lock of the cache held — the
    /// one place a caller that holds nothing itself may give way.
    pub fn stage_dirty(&self, flushed_lsn: Lsn, mut between_pages: impl FnMut()) -> Result<()> {
        for shard in &self.shards {
            let mut ids = shard.dirty.take().into_iter();
            while let Some(raw) = ids.next() {
                let id = PageId(raw);
                // Listed but gone: truncated since it was dirtied.
                let Some(frame) = shard.volatile.read().get(&id).cloned() else {
                    continue;
                };
                // A clean frame was listed twice, or forced singly in
                // between: nothing to write.
                if let Err(e) = self.write_out(&frame, flushed_lsn, true, |bytes| {
                    shard.staged.lock().insert(id, bytes);
                }) {
                    shard.dirty.extend(std::iter::once(raw).chain(ids));
                    return Err(e);
                }
                between_pages();
            }
        }
        Ok(())
    }

    /// Move every staged image into the durable maps (the write I/Os)
    /// and advance the durable high-water mark. The images are moved,
    /// not copied.
    pub fn publish_staged(&self) {
        let mut written = 0u64;
        for shard in &self.shards {
            let mut staged = shard.staged.lock();
            if staged.is_empty() {
                continue;
            }
            let mut durable = shard.durable.lock();
            durable.reserve(staged.len());
            for (id, bytes) in staged.drain() {
                self.durable_count.fetch_max(id.0 + 1, Ordering::AcqRel);
                durable.insert(id, bytes);
                written += 1;
            }
        }
        self.stats.forces.add(written);
    }

    /// Force every dirty page (checkpoints, §2.2.3 and §3.2.4: "all
    /// the dirty pages"). Writers are not excluded, so the pages are
    /// written as they stood at different instants — right for heap
    /// pages, whose page-LSN redo tolerates any mix of old and new
    /// images; a structure spanning pages must publish at a consistent
    /// instant instead (see `BTree::force_all`). On a WAL-rule refusal
    /// the pages staged so far are still written.
    pub fn force_all(&self, flushed_lsn: Lsn) -> Result<()> {
        let staged = self.stage_dirty(flushed_lsn, || {});
        self.publish_staged();
        staged
    }

    /// Deallocate every page with id ≥ `from`, volatile *and* durable.
    /// This is the §3.2.4 trick: after an SF crash, index pages
    /// allocated past the last checkpoint are put back in the
    /// deallocated state.
    pub fn truncate_from(&self, from: PageId) {
        for shard in &self.shards {
            shard.volatile.write().retain(|id, _| *id < from);
            shard.durable.lock().retain(|id, _| *id < from);
            shard.staged.lock().retain(|id, _| *id < from);
            shard.dirty.retain(|id| *id < from.0);
        }
        self.next_page.fetch_min(from.0, Ordering::AcqRel);
        self.durable_count.fetch_min(from.0, Ordering::AcqRel);
    }

    /// Simulated system failure: drop all volatile frames (in every
    /// shard) together with the dirty lists and the staging area, and
    /// reset the allocation cursor to the durable high-water mark.
    pub fn crash(&self) {
        for shard in &self.shards {
            shard.volatile.write().clear();
            shard.staged.lock().clear();
            shard.dirty.clear();
        }
        self.next_page.store(
            self.durable_count.load(Ordering::Acquire),
            Ordering::Release,
        );
    }

    /// Durable page high-water mark (what restart will see).
    #[must_use]
    pub fn durable_pages(&self) -> u32 {
        self.durable_count.load(Ordering::Acquire)
    }
}

impl<T: PagePayload> std::fmt::Debug for PageCache<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageCache")
            .field("file", &self.file)
            .field("pages", &self.num_pages())
            .field("durable_pages", &self.durable_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Blob(Vec<u8>);

    impl PagePayload for Blob {
        fn encode(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.0);
        }
        fn decode(buf: &[u8]) -> Result<Self> {
            Ok(Blob(buf.to_vec()))
        }
    }

    fn cache() -> PageCache<Blob> {
        PageCache::new(FileId(1))
    }

    #[test]
    fn allocate_assigns_dense_ids() {
        let c = cache();
        assert_eq!(c.allocate(Blob(vec![1])).id, PageId(0));
        assert_eq!(c.allocate(Blob(vec![2])).id, PageId(1));
        assert_eq!(c.num_pages(), 2);
    }

    #[test]
    fn unforced_pages_die_in_a_crash() {
        let c = cache();
        let f = c.allocate(Blob(vec![1, 2, 3]));
        assert_eq!(f.id, PageId(0));
        c.crash();
        assert_eq!(c.num_pages(), 0);
        assert!(c.frame(PageId(0)).is_err());
    }

    #[test]
    fn forced_pages_survive_a_crash() {
        let c = cache();
        let f = c.allocate(Blob(vec![9, 9]));
        {
            let mut b = f.latch.exclusive();
            b.lsn = Lsn(5);
            b.payload.0.push(7);
        }
        c.force(PageId(0), Lsn(5)).unwrap();
        c.crash();
        assert_eq!(c.num_pages(), 1);
        let f2 = c.frame(PageId(0)).unwrap();
        let b = f2.latch.share();
        assert_eq!(b.payload, Blob(vec![9, 9, 7]));
        assert_eq!(b.lsn, Lsn(5));
    }

    #[test]
    fn crash_loses_unforced_changes_to_forced_pages() {
        let c = cache();
        let f = c.allocate(Blob(vec![1]));
        c.force(PageId(0), Lsn::NULL).unwrap();
        {
            let mut b = f.latch.exclusive();
            b.payload.0.push(2);
        }
        c.crash();
        let f2 = c.frame(PageId(0)).unwrap();
        assert_eq!(f2.latch.share().payload, Blob(vec![1]));
    }

    #[test]
    fn force_enforces_wal_rule() {
        let c = cache();
        let f = c.allocate(Blob(vec![]));
        f.latch.exclusive().lsn = Lsn(10);
        let err = c.force(PageId(0), Lsn(9)).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)));
        c.force(PageId(0), Lsn(10)).unwrap();
    }

    #[test]
    fn truncate_from_deallocates_tail() {
        let c = cache();
        for i in 0..5u8 {
            let f = c.allocate(Blob(vec![i]));
            c.force(f.id, Lsn::NULL).unwrap();
        }
        c.truncate_from(PageId(2));
        assert_eq!(c.num_pages(), 2);
        assert!(c.frame(PageId(2)).is_err());
        assert!(c.frame(PageId(1)).is_ok());
        // Reallocation reuses the truncated ids.
        assert_eq!(c.allocate(Blob(vec![])).id, PageId(2));
        // Durable state was truncated too.
        c.crash();
        assert_eq!(c.num_pages(), 2);
    }

    #[test]
    fn stats_count_hits_misses_forces() {
        let c = cache();
        let f = c.allocate(Blob(vec![1]));
        c.force(f.id, Lsn::NULL).unwrap();
        let _ = c.frame(PageId(0)).unwrap(); // hit (inside force there was one too)
        c.crash();
        let _ = c.frame(PageId(0)).unwrap(); // miss -> decode
        assert!(c.stats.hits.get() >= 1);
        assert_eq!(c.stats.misses.get(), 1);
        assert_eq!(c.stats.forces.get(), 1);
    }

    #[test]
    fn force_all_then_crash_preserves_everything() {
        let c = cache();
        for i in 0..10u8 {
            let f = c.allocate(Blob(vec![i]));
            f.latch.exclusive().lsn = Lsn(u64::from(i));
        }
        c.force_all(Lsn(100)).unwrap();
        c.crash();
        assert_eq!(c.num_pages(), 10);
        for i in 0..10u8 {
            let f = c.frame(PageId(u32::from(i))).unwrap();
            assert_eq!(f.latch.share().payload, Blob(vec![i]));
        }
    }

    #[test]
    fn force_all_forces_only_what_was_x_latched_since() {
        let c = cache();
        for i in 0..10u8 {
            c.allocate(Blob(vec![i]));
        }
        // Fresh pages start dirty.
        c.force_all(Lsn::NULL).unwrap();
        assert_eq!(c.stats.forces.get(), 10);
        // Nothing X-latched since: nothing to do, S latches included.
        let _ = c.frame(PageId(3)).unwrap().latch.share();
        c.force_all(Lsn::NULL).unwrap();
        assert_eq!(c.stats.forces.get(), 10);
        // Each way of getting the X latch re-dirties, once per page.
        c.frame(PageId(3)).unwrap().latch.exclusive().payload.0[0] = 33;
        c.frame(PageId(3)).unwrap().latch.exclusive().payload.0[0] = 34;
        drop(c.frame(PageId(4)).unwrap().latch.exclusive_arc());
        drop(c.frame(PageId(5)).unwrap().latch.try_exclusive().unwrap());
        c.force_all(Lsn::NULL).unwrap();
        assert_eq!(c.stats.forces.get(), 13);
        c.crash();
        assert_eq!(
            c.frame(PageId(3)).unwrap().latch.share().payload,
            Blob(vec![34])
        );
    }

    #[test]
    fn decoded_frames_start_clean() {
        let c = cache();
        c.allocate(Blob(vec![1]));
        c.force_all(Lsn::NULL).unwrap();
        c.crash();
        let f = c.frame(PageId(0)).unwrap();
        assert!(!f.latch.is_dirty());
        c.force_all(Lsn::NULL).unwrap();
        assert_eq!(c.stats.forces.get(), 1);
    }

    #[test]
    fn wal_rule_refusal_leaves_the_page_dirty() {
        let c = cache();
        let early = c.allocate(Blob(vec![0]));
        let late = c.allocate(Blob(vec![1]));
        let other = c.allocate(Blob(vec![2]));
        early.latch.exclusive().lsn = Lsn(5);
        late.latch.exclusive().lsn = Lsn(10);
        other.latch.exclusive().lsn = Lsn(5);
        assert!(c.force_all(Lsn(9)).is_err());
        assert!(late.latch.is_dirty());
        // The retry, after the log caught up, forces the refused page
        // and whatever the failed pass had not reached — and no page
        // twice.
        c.force_all(Lsn(10)).unwrap();
        assert_eq!(c.stats.forces.get(), 3);
        assert!(!late.latch.is_dirty());
        c.crash();
        assert_eq!(c.num_pages(), 3);
        assert_eq!(c.frame(late.id).unwrap().latch.share().lsn, Lsn(10));
    }

    #[test]
    fn reallocation_after_truncate_yields_a_dirty_frame() {
        let c = cache();
        for i in 0..4u8 {
            c.allocate(Blob(vec![i]));
        }
        c.force_all(Lsn::NULL).unwrap();
        // Dirty, then truncated away: the stale listing must neither
        // fail the next force nor resurrect the page.
        c.frame(PageId(3)).unwrap().latch.exclusive().payload.0[0] = 9;
        c.truncate_from(PageId(2));
        c.force_all(Lsn::NULL).unwrap();
        assert_eq!(c.stats.forces.get(), 4);
        assert_eq!(c.durable_pages(), 2);
        let f = c.allocate(Blob(vec![7]));
        assert_eq!(f.id, PageId(2));
        assert!(f.latch.is_dirty());
        c.force_all(Lsn::NULL).unwrap();
        assert_eq!(c.stats.forces.get(), 5);
        c.crash();
        assert_eq!(
            c.frame(PageId(2)).unwrap().latch.share().payload,
            Blob(vec![7])
        );
    }

    #[test]
    fn staged_images_are_volatile_until_published() {
        let c = cache();
        let f = c.allocate(Blob(vec![1]));
        c.force_all(Lsn::NULL).unwrap();
        f.latch.exclusive().payload.0[0] = 2;
        c.stage_dirty(Lsn::NULL, || {}).unwrap();
        assert_eq!(c.stats.forces.get(), 1, "staging writes nothing");
        c.crash();
        assert_eq!(
            c.frame(PageId(0)).unwrap().latch.share().payload,
            Blob(vec![1])
        );
        c.publish_staged();
        assert_eq!(
            c.stats.forces.get(),
            1,
            "the crash dropped the staging area"
        );
        // Staged, dirtied again, staged again: one image is published,
        // the newer one.
        let f = c.frame(PageId(0)).unwrap();
        f.latch.exclusive().payload.0[0] = 3;
        c.stage_dirty(Lsn::NULL, || {}).unwrap();
        f.latch.exclusive().payload.0[0] = 4;
        c.stage_dirty(Lsn::NULL, || {}).unwrap();
        c.publish_staged();
        assert_eq!(c.stats.forces.get(), 2);
        c.crash();
        assert_eq!(
            c.frame(PageId(0)).unwrap().latch.share().payload,
            Blob(vec![4])
        );
    }

    #[test]
    fn pages_allocated_while_a_force_runs_are_not_forgotten() {
        // A page is listed dirty only once the volatile map holds it;
        // listed earlier, a concurrent force takes the listing, finds
        // no frame, and the page is never written.
        let c = cache();
        let allocating = std::sync::atomic::AtomicBool::new(true);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..20_000u32 {
                    c.allocate(Blob(i.to_be_bytes().to_vec()));
                }
                allocating.store(false, Ordering::Release);
            });
            while allocating.load(Ordering::Acquire) {
                c.force_all(Lsn::NULL).unwrap();
            }
        });
        c.force_all(Lsn::NULL).unwrap();
        assert_eq!(c.stats.forces.get(), 20_000);
        c.crash();
        assert_eq!(c.num_pages(), 20_000);
        for i in (0..20_000u32).step_by(97) {
            assert_eq!(
                c.frame(PageId(i)).unwrap().latch.share().payload,
                Blob(i.to_be_bytes().to_vec())
            );
        }
    }

    #[test]
    fn concurrent_fetch_decodes_once() {
        let c = Arc::new(cache());
        let f = c.allocate(Blob(vec![42]));
        c.force(f.id, Lsn::NULL).unwrap();
        c.crash();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                c.frame(PageId(0)).unwrap().latch.share().payload.0[0]
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 42);
        }
        assert_eq!(c.stats.misses.get(), 1);
    }

    #[test]
    fn concurrent_allocations_get_unique_dense_ids() {
        let c = Arc::new(cache());
        let handles: Vec<_> = (0..8u8)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    (0..50)
                        .map(|_| c.allocate(Blob(vec![t])).id.0)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut ids: Vec<u32> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400);
        assert_eq!(ids[0], 0);
        assert_eq!(ids[399], 399);
        assert_eq!(c.num_pages(), 400);
    }

    #[test]
    fn hits_spread_across_shards() {
        let c = cache();
        let n = 64u32;
        for i in 0..n {
            c.allocate(Blob(vec![i as u8]));
        }
        for i in 0..n {
            let _ = c.frame(PageId(i)).unwrap();
        }
        assert_eq!(c.stats.shard_hits.total(), c.stats.hits.get());
        let populated = c
            .stats
            .shard_hits
            .snapshot()
            .iter()
            .filter(|&&n| n > 0)
            .count();
        assert!(
            populated > PAGE_SHARDS / 2,
            "hash clustered: {populated} shards hit"
        );
    }
}
