//! A typed, sharded page cache with an explicit volatile/durable
//! boundary.
//!
//! Real DBMS pages live on disk and are cached in a buffer pool. We
//! invert the emphasis: the *volatile* image (a Rust value behind a
//! [`Latch`]) is primary, and the *durable* image (the page's bytes as
//! last forced) models the disk. A simulated system failure
//! ([`PageCache::crash`]) discards every volatile frame and all
//! allocations that were never forced; restart reads the durable images
//! back on demand.
//!
//! A page's bytes are one immutable shared buffer (`Arc<[u8]>`,
//! [`PagePayload::image`]). A force takes a reference to the frame's
//! buffer instead of copying it, and a read-back adopts the image's
//! buffer after checking it, so a clean page is held once. The page's
//! first writer after a force copies the buffer before it changes it
//! ([`spare::make_mut`]): an image never sees a write that was not
//! forced. The copy goes into a spare buffer when the process has one
//! of the page's length: a force, a publish or a stage hands back the
//! image it replaced, and a crash every copy it drops, once nothing
//! else refers to it, so a forced page's old image becomes its next
//! copy, whichever thread freed it ([`crate::spare`]). A dropped cache
//! hands nothing back.
//!
//! The cache is partitioned into [`PAGE_SHARDS`] shards keyed by a
//! page-id hash. Each shard owns its own volatile frame map and
//! durable image map, so lookups and forces on different pages contend
//! only within a shard; the allocation cursor and the durable
//! high-water mark are shared atomics. The crash/restart semantics are
//! per-shard but observably identical to the unsharded cache.
//!
//! The write-ahead-log rule is enforced at the boundary: every force
//! takes the log ([`WriteAhead`]) and, for a page whose LSN the log is
//! not yet durable through, forces the log that far before it writes
//! the page ("write-ahead logging", §1.1).
//!
//! Forcing costs what was dirtied. A frame is *dirty* iff its latch
//! has been granted exclusively since its image was last taken; the
//! latch keeps the bit and lists the page in its shard's dirty list on
//! the clean→dirty transition, so [`PageCache::force_all`] visits only
//! those pages, and makes each one's bytes its durable image.
//! A caller that needs the durable image to change as a unit (the
//! B+-tree) takes and publishes images in separate steps instead:
//! [`PageCache::stage_dirty`] takes the images of dirty pages into a
//! volatile staging area without excluding writers, and
//! [`PageCache::publish_staged`] moves the staged images into the
//! durable maps at an instant of its choosing; a crash in between
//! drops the staging area and leaves the previous durable image whole.
//!
//! [`CacheStats`] keeps the exported `cache.hit`/`miss`/`force` counts
//! and `allocations`, which the paper-claims suite reads; a hit writes
//! `hits` and nothing else. The frames' latches share the cache's
//! [`LatchStats`], which only a blocked grant writes.

use crate::latch::{DirtyList, Latch, LatchStats};
use crate::spare;
use mohan_common::stats::Counter;
use mohan_common::{Error, FileId, IdMap, Lsn, PageId, Result, WriteAhead};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Number of shards each page cache is partitioned into (power of
/// two; the shard index is the top bits of a Fibonacci hash of the
/// page id).
pub const PAGE_SHARDS: usize = 16;

/// Something that can live in a page: a value over one shared byte
/// buffer, which is its durable image.
pub trait PagePayload: Send + Sync + Sized + 'static {
    /// The page's bytes: a reference to the buffer, not a copy. The
    /// page's next write copies the buffer while the image is held.
    fn image(&self) -> Arc<[u8]>;
    /// Adopt `bytes` as a page after checking them; copies nothing.
    /// Errors indicate corruption.
    fn from_image(bytes: Arc<[u8]>) -> Result<Self>;
}

/// A page as forced or staged: its recovery LSN and its bytes.
type Image = (Lsn, Arc<[u8]>);

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
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Frame lookups that found a volatile image.
    pub hits: Counter,
    /// Frame lookups that had to read the durable image back (a read
    /// I/O in the simulation).
    pub misses: Counter,
    /// Images made durable, by a force or a publish (write I/Os).
    pub forces: Counter,
    /// Pages allocated.
    pub allocations: Counter,
}

/// One cache partition: a volatile frame map plus the durable images
/// of the pages that hash here.
struct Shard<T> {
    volatile: RwLock<IdMap<PageId, Arc<Frame<T>>>>,
    durable: Mutex<HashMap<PageId, Image>>,
    /// Pages whose frames went clean→dirty since the list was last
    /// taken (shared with those frames' latches).
    dirty: Arc<DirtyList>,
    /// Images not yet published to `durable`. Volatile: a crash drops
    /// them.
    staged: Mutex<HashMap<PageId, Image>>,
}

impl<T> Shard<T> {
    fn new() -> Shard<T> {
        Shard {
            volatile: RwLock::new(IdMap::default()),
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
    /// from the start (a fresh page) or not (one just read back from it)?
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

    /// Fetch a page frame, reading the durable image back on a miss.
    /// Returns `NotFound` for never-allocated or crash-lost pages.
    pub fn frame(&self, id: PageId) -> Result<Arc<Frame<T>>> {
        let shard = &self.shards[Self::shard_of(id)];
        if let Some(f) = shard.volatile.read().get(&id) {
            self.stats.hits.bump();
            return Ok(Arc::clone(f));
        }
        // Miss: try the durable image. Hold the shard's volatile write
        // lock across the check-and-insert so two threads don't both
        // read it back.
        let mut v = shard.volatile.write();
        if let Some(f) = v.get(&id) {
            self.stats.hits.bump();
            return Ok(Arc::clone(f));
        }
        let Some((lsn, bytes)) = shard.durable.lock().get(&id).cloned() else {
            return Err(Error::NotFound(format!("{} {id}", self.file)));
        };
        let payload = T::from_image(bytes)?;
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

    /// Visit every dirty page: under its S latch, clear its dirty bit
    /// and hand its image to `write`. Each page is held only while its
    /// buffer is referenced, and a page writers touch afterwards is
    /// dirty again: work is proportional to the pages dirtied since the
    /// last visit. `write` runs before the latch is released, so images
    /// of one page reach it in the order the page went through them even
    /// when two forcers meet. Enforces the WAL rule: a page whose LSN the
    /// log is not yet durable through is written only after `wal` made
    /// it so; on a page it cannot be made durable through, the visit
    /// stops with an error and that page and those not yet visited stay
    /// dirty. `between_pages` runs after each page, with that page's
    /// latch released and no lock of the cache held — the one place a
    /// caller that holds nothing itself may give way.
    fn write_dirty(
        &self,
        wal: &impl WriteAhead,
        mut write: impl FnMut(&Shard<T>, PageId, Image),
        mut between_pages: impl FnMut(),
    ) -> Result<()> {
        for shard in &self.shards {
            let mut ids = shard.dirty.take().into_iter();
            while let Some(raw) = ids.next() {
                let id = PageId(raw);
                // Listed but gone: truncated since it was dirtied.
                let Some(frame) = shard.volatile.read().get(&id).cloned() else {
                    continue;
                };
                let buf = frame.latch.share();
                // A clean frame was listed twice: nothing to write.
                if frame.latch.is_dirty() {
                    if !wal.durable_through(buf.lsn) {
                        shard.dirty.extend(std::iter::once(raw).chain(ids));
                        return Err(Error::Corruption(format!(
                            "WAL violation: forcing {} {id} with page LSN {} the log cannot reach",
                            self.file, buf.lsn
                        )));
                    }
                    frame.latch.clear_dirty();
                    write(shard, id, (buf.lsn, buf.payload.image()));
                }
                drop(buf);
                between_pages();
            }
        }
        Ok(())
    }

    /// Take the image of every dirty page into the staging area, each
    /// under its page's S latch; the durable image does not change until
    /// [`Self::publish_staged`]. `between_pages` runs after each page,
    /// with no latch or lock of the cache held. On a WAL-rule refusal
    /// the refused page and those not yet visited stay dirty.
    pub fn stage_dirty(&self, wal: impl WriteAhead, between_pages: impl FnMut()) -> Result<()> {
        self.write_dirty(
            &wal,
            |shard, id, image| {
                let replaced = shard.staged.lock().insert(id, image);
                if let Some((_, replaced)) = replaced {
                    spare::give(replaced);
                }
            },
            between_pages,
        )
    }

    /// Move every staged image into the durable maps (the write I/Os)
    /// and advance the durable high-water mark. The images they replace
    /// go to the spare list once the shards' locks are released.
    pub fn publish_staged(&self) {
        let mut written = 0u64;
        let mut replaced = Vec::new();
        for shard in &self.shards {
            let mut staged = shard.staged.lock();
            if staged.is_empty() {
                continue;
            }
            let mut durable = shard.durable.lock();
            durable.reserve(staged.len());
            for (id, image) in staged.drain() {
                self.durable_count.fetch_max(id.0 + 1, Ordering::AcqRel);
                replaced.extend(durable.insert(id, image));
                written += 1;
            }
        }
        self.stats.forces.add(written);
        for (_, bytes) in replaced {
            spare::give(bytes);
        }
    }

    /// Force every dirty page (checkpoints, §2.2.3 and §3.2.4: "all
    /// the dirty pages"): each page's bytes, taken under its S latch,
    /// become its durable image. `between_pages` runs after each page,
    /// with no latch or lock of the cache held. On a WAL-rule refusal
    /// the refused page and those not yet visited stay dirty. Writers
    /// are not excluded, so the pages are written as they stood at different
    /// instants — right for heap pages, whose page-LSN redo tolerates
    /// any mix of old and new images; a structure spanning pages must
    /// publish at a consistent instant instead, through
    /// [`Self::stage_dirty`] and [`Self::publish_staged`] (see
    /// `BTree::force_all`), and does not mix the two on one cache.
    pub fn force_all(&self, wal: impl WriteAhead, between_pages: impl FnMut()) -> Result<()> {
        self.write_dirty(
            &wal,
            |shard, id, image| {
                let replaced = shard.durable.lock().insert(id, image);
                self.durable_count.fetch_max(id.0 + 1, Ordering::AcqRel);
                self.stats.forces.bump();
                if let Some((_, replaced)) = replaced {
                    spare::give(replaced);
                }
            },
            between_pages,
        )
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
    /// reset the allocation cursor to the durable high-water mark. The
    /// frames' and staged images' buffers that nothing else refers to
    /// go to the spare list.
    pub fn crash(&self) {
        for shard in &self.shards {
            let frames = std::mem::take(&mut *shard.volatile.write());
            let staged = std::mem::take(&mut *shard.staged.lock());
            shard.dirty.clear();
            for frame in frames.into_values() {
                // A frame someone still latches keeps its buffer.
                let bytes = frame.latch.try_share().map(|b| b.payload.image());
                drop(frame);
                if let Some(bytes) = bytes {
                    spare::give(bytes);
                }
            }
            for (_, (_, bytes)) in staged {
                spare::give(bytes);
            }
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

    /// A page of bytes that copies them before a write while an image
    /// shares them, as the real page kinds do.
    #[derive(Debug, Clone, PartialEq)]
    struct Blob(Arc<[u8]>);

    fn blob(bytes: &[u8]) -> Blob {
        Blob(bytes.into())
    }

    impl Blob {
        fn set(&mut self, i: usize, v: u8) {
            spare::make_mut(&mut self.0)[i] = v;
        }
    }

    impl PagePayload for Blob {
        fn image(&self) -> Arc<[u8]> {
            Arc::clone(&self.0)
        }
        fn from_image(bytes: Arc<[u8]>) -> Result<Self> {
            Ok(Blob(bytes))
        }
    }

    fn cache() -> PageCache<Blob> {
        PageCache::new(FileId(1))
    }

    /// X-latch page `id` and set its first byte to `v`.
    fn write(c: &PageCache<Blob>, id: u32, v: u8) {
        c.frame(PageId(id))
            .unwrap()
            .latch
            .exclusive()
            .payload
            .set(0, v);
    }

    #[test]
    fn allocate_assigns_dense_ids() {
        let c = cache();
        assert_eq!(c.allocate(blob(&[1])).id, PageId(0));
        assert_eq!(c.allocate(blob(&[2])).id, PageId(1));
        assert_eq!(c.num_pages(), 2);
    }

    #[test]
    fn unforced_pages_die_in_a_crash() {
        let c = cache();
        let f = c.allocate(blob(&[1, 2, 3]));
        assert_eq!(f.id, PageId(0));
        c.crash();
        assert_eq!(c.num_pages(), 0);
        assert!(c.frame(PageId(0)).is_err());
    }

    #[test]
    fn forced_pages_survive_a_crash() {
        let c = cache();
        let f = c.allocate(blob(&[9, 9, 0]));
        {
            let mut b = f.latch.exclusive();
            b.lsn = Lsn(5);
            b.payload.set(2, 7);
        }
        c.force_all(Lsn(5), || {}).unwrap();
        c.crash();
        assert_eq!(c.num_pages(), 1);
        let f2 = c.frame(PageId(0)).unwrap();
        let b = f2.latch.share();
        assert_eq!(b.payload, blob(&[9, 9, 7]));
        assert_eq!(b.lsn, Lsn(5));
    }

    #[test]
    fn crash_loses_unforced_changes_to_forced_pages() {
        let c = cache();
        let f = c.allocate(blob(&[1]));
        c.force_all(Lsn::NULL, || {}).unwrap();
        f.latch.exclusive().payload.set(0, 2);
        c.crash();
        let f2 = c.frame(PageId(0)).unwrap();
        assert_eq!(f2.latch.share().payload, blob(&[1]));
    }

    #[test]
    fn force_enforces_wal_rule() {
        let c = cache();
        let f = c.allocate(blob(&[]));
        f.latch.exclusive().lsn = Lsn(10);
        let err = c.force_all(Lsn(9), || {}).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)));
        c.force_all(Lsn(10), || {}).unwrap();
        assert_eq!(c.stats.forces.get(), 1);
    }

    /// A log that can always be forced, and remembers how far it was.
    struct Forceable(std::sync::atomic::AtomicU64);

    impl WriteAhead for Forceable {
        fn durable_through(&self, lsn: Lsn) -> bool {
            self.0.fetch_max(lsn.0, Ordering::AcqRel);
            true
        }
    }

    #[test]
    fn a_page_past_the_flushed_mark_forces_the_log_then_itself() {
        let c = cache();
        let f = c.allocate(blob(&[1]));
        f.latch.exclusive().lsn = Lsn(10);
        let log = Forceable(3.into());
        c.force_all(&log, || {}).unwrap();
        assert_eq!(log.0.load(Ordering::Acquire), 10);
        c.crash();
        assert_eq!(c.frame(PageId(0)).unwrap().latch.share().lsn, Lsn(10));
    }

    /// The durable image of page 0, if it has one.
    fn durable(c: &PageCache<Blob>) -> Option<Image> {
        c.shards[PageCache::<Blob>::shard_of(PageId(0))]
            .durable
            .lock()
            .get(&PageId(0))
            .cloned()
    }

    #[test]
    fn a_forced_page_shares_its_bytes_until_a_writer_copies_them() {
        let c = cache();
        let f = c.allocate(blob(&[1; 100]));
        c.force_all(Lsn::NULL, || {}).unwrap();
        let (_, image) = durable(&c).unwrap();
        assert!(Arc::ptr_eq(&image, &f.latch.share().payload.0));
        f.latch.exclusive().payload.set(0, 2);
        let frame = Arc::clone(&f.latch.share().payload.0);
        assert!(!Arc::ptr_eq(&image, &frame), "the writer copied");
        assert_eq!((image[0], frame[0]), (1, 2));
        assert!(Arc::ptr_eq(&durable(&c).unwrap().1, &image));
        // A read-back adopts the image's bytes.
        c.crash();
        let back = c.frame(PageId(0)).unwrap();
        assert!(Arc::ptr_eq(&back.latch.share().payload.0, &image));
    }

    /// The address of a page's buffer, which holds no reference to it.
    fn address(f: &Frame<Blob>) -> *const u8 {
        Arc::as_ptr(&f.latch.share().payload.0).cast()
    }

    #[test]
    fn an_image_nobody_else_holds_becomes_the_next_copy() {
        // A length no other test uses: the spare list is the process's.
        let c = cache();
        let f = c.allocate(blob(&[1; 1_003]));
        c.force_all(Lsn::NULL, || {}).unwrap();
        let first = address(&f);
        f.latch.exclusive().payload.set(0, 2);
        let second = address(&f);
        assert_ne!(first, second, "the writer copied");
        // The force replaces the first image; nothing else holds it, so
        // the next write copies into it.
        c.force_all(Lsn::NULL, || {}).unwrap();
        f.latch.exclusive().payload.set(0, 3);
        assert_eq!(address(&f), first);
        assert_eq!(f.latch.share().payload.0[..2], [3, 1]);
        assert_eq!(durable(&c).unwrap().1[..2], [2, 1]);
    }

    #[test]
    fn an_image_held_elsewhere_is_never_reused() {
        let c = cache();
        let pages: Vec<_> = (0..40u8).map(|i| c.allocate(blob(&[i; 1_005]))).collect();
        c.force_all(Lsn::NULL, || {}).unwrap();
        // Held as a read-back would hold it.
        let (_, held) = durable(&c).unwrap();
        let kept = held.to_vec();
        for round in 1..=6u8 {
            for f in &pages {
                f.latch.exclusive().payload.set(usize::from(round), round);
            }
            c.force_all(Lsn::NULL, || {}).unwrap();
            assert!(pages.iter().all(|f| address(f) != held.as_ptr()));
        }
        assert_eq!(*held, kept[..], "a held image was written");
    }

    #[test]
    fn truncate_from_deallocates_tail() {
        let c = cache();
        for i in 0..5u8 {
            c.allocate(blob(&[i]));
        }
        c.force_all(Lsn::NULL, || {}).unwrap();
        c.truncate_from(PageId(2));
        assert_eq!(c.num_pages(), 2);
        assert!(c.frame(PageId(2)).is_err());
        assert!(c.frame(PageId(1)).is_ok());
        // Reallocation reuses the truncated ids.
        assert_eq!(c.allocate(blob(&[])).id, PageId(2));
        // Durable state was truncated too.
        c.crash();
        assert_eq!(c.num_pages(), 2);
    }

    #[test]
    fn stats_count_hits_misses_forces() {
        let c = cache();
        c.allocate(blob(&[1]));
        c.force_all(Lsn::NULL, || {}).unwrap();
        let _ = c.frame(PageId(0)).unwrap(); // hit
        c.crash();
        let _ = c.frame(PageId(0)).unwrap(); // miss -> read-back
        assert!(c.stats.hits.get() >= 1);
        assert_eq!(c.stats.misses.get(), 1);
        assert_eq!(c.stats.forces.get(), 1);
    }

    #[test]
    fn force_all_then_crash_preserves_everything() {
        let c = cache();
        for i in 0..10u8 {
            let f = c.allocate(blob(&[i]));
            f.latch.exclusive().lsn = Lsn(u64::from(i));
        }
        c.force_all(Lsn(100), || {}).unwrap();
        c.crash();
        assert_eq!(c.num_pages(), 10);
        for i in 0..10u8 {
            let f = c.frame(PageId(u32::from(i))).unwrap();
            assert_eq!(f.latch.share().payload, blob(&[i]));
        }
    }

    #[test]
    fn force_all_forces_only_what_was_x_latched_since() {
        let c = cache();
        for i in 0..10u8 {
            c.allocate(blob(&[i]));
        }
        // Fresh pages start dirty.
        c.force_all(Lsn::NULL, || {}).unwrap();
        assert_eq!(c.stats.forces.get(), 10);
        // Nothing X-latched since: nothing to do, S latches included.
        let _ = c.frame(PageId(3)).unwrap().latch.share();
        c.force_all(Lsn::NULL, || {}).unwrap();
        assert_eq!(c.stats.forces.get(), 10);
        // Each way of getting the X latch re-dirties, once per page.
        write(&c, 3, 33);
        write(&c, 3, 34);
        drop(c.frame(PageId(4)).unwrap().latch.exclusive_arc());
        drop(c.frame(PageId(5)).unwrap().latch.try_exclusive().unwrap());
        c.force_all(Lsn::NULL, || {}).unwrap();
        assert_eq!(c.stats.forces.get(), 13);
        c.crash();
        assert_eq!(
            c.frame(PageId(3)).unwrap().latch.share().payload,
            blob(&[34])
        );
    }

    #[test]
    fn decoded_frames_start_clean() {
        let c = cache();
        c.allocate(blob(&[1]));
        c.force_all(Lsn::NULL, || {}).unwrap();
        c.crash();
        let f = c.frame(PageId(0)).unwrap();
        assert!(!f.latch.is_dirty());
        c.force_all(Lsn::NULL, || {}).unwrap();
        assert_eq!(c.stats.forces.get(), 1);
    }

    #[test]
    fn wal_rule_refusal_leaves_the_page_dirty() {
        let c = cache();
        let early = c.allocate(blob(&[0]));
        let late = c.allocate(blob(&[1]));
        let other = c.allocate(blob(&[2]));
        early.latch.exclusive().lsn = Lsn(5);
        late.latch.exclusive().lsn = Lsn(10);
        other.latch.exclusive().lsn = Lsn(5);
        assert!(c.force_all(Lsn(9), || {}).is_err());
        assert!(late.latch.is_dirty());
        // The retry, after the log caught up, forces the refused page
        // and whatever the failed pass had not reached — and no page
        // twice.
        c.force_all(Lsn(10), || {}).unwrap();
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
            c.allocate(blob(&[i]));
        }
        c.force_all(Lsn::NULL, || {}).unwrap();
        // Dirty, then truncated away: the stale listing must neither
        // fail the next force nor resurrect the page.
        write(&c, 3, 9);
        c.truncate_from(PageId(2));
        c.force_all(Lsn::NULL, || {}).unwrap();
        assert_eq!(c.stats.forces.get(), 4);
        assert_eq!(c.durable_pages(), 2);
        let f = c.allocate(blob(&[7]));
        assert_eq!(f.id, PageId(2));
        assert!(f.latch.is_dirty());
        c.force_all(Lsn::NULL, || {}).unwrap();
        assert_eq!(c.stats.forces.get(), 5);
        c.crash();
        assert_eq!(
            c.frame(PageId(2)).unwrap().latch.share().payload,
            blob(&[7])
        );
    }

    #[test]
    fn staged_images_are_volatile_until_published() {
        let c = cache();
        let f = c.allocate(blob(&[1]));
        c.force_all(Lsn::NULL, || {}).unwrap();
        f.latch.exclusive().payload.set(0, 2);
        c.stage_dirty(Lsn::NULL, || {}).unwrap();
        assert_eq!(c.stats.forces.get(), 1, "staging writes nothing");
        c.crash();
        assert_eq!(
            c.frame(PageId(0)).unwrap().latch.share().payload,
            blob(&[1])
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
        f.latch.exclusive().payload.set(0, 3);
        c.stage_dirty(Lsn::NULL, || {}).unwrap();
        f.latch.exclusive().payload.set(0, 4);
        c.stage_dirty(Lsn::NULL, || {}).unwrap();
        c.publish_staged();
        assert_eq!(c.stats.forces.get(), 2);
        c.crash();
        assert_eq!(
            c.frame(PageId(0)).unwrap().latch.share().payload,
            blob(&[4])
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
                    c.allocate(blob(&i.to_be_bytes()));
                }
                allocating.store(false, Ordering::Release);
            });
            while allocating.load(Ordering::Acquire) {
                c.force_all(Lsn::NULL, || {}).unwrap();
            }
        });
        c.force_all(Lsn::NULL, || {}).unwrap();
        assert_eq!(c.stats.forces.get(), 20_000);
        c.crash();
        assert_eq!(c.num_pages(), 20_000);
        for i in (0..20_000u32).step_by(97) {
            assert_eq!(
                c.frame(PageId(i)).unwrap().latch.share().payload,
                blob(&i.to_be_bytes())
            );
        }
    }

    #[test]
    fn concurrent_fetch_decodes_once() {
        let c = Arc::new(cache());
        c.allocate(blob(&[42]));
        c.force_all(Lsn::NULL, || {}).unwrap();
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
                        .map(|_| c.allocate(blob(&[t])).id.0)
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

    /// The cache as the model sees it: every page it resolves (the
    /// volatile view), the staged and durable images, the pages written
    /// since their image was last taken, and the two cursors.
    #[derive(Default)]
    struct Model {
        volatile: std::collections::BTreeMap<u32, (Lsn, Vec<u8>)>,
        staged: std::collections::BTreeMap<u32, (Lsn, Vec<u8>)>,
        durable: std::collections::BTreeMap<u32, (Lsn, Vec<u8>)>,
        dirty: std::collections::BTreeSet<u32>,
        next: u32,
        durable_count: u32,
    }

    impl Model {
        /// Take the image of every dirty page, as a force or a stage
        /// does, leaving every page clean.
        fn take_dirty(&mut self) -> Vec<(u32, (Lsn, Vec<u8>))> {
            let dirty = std::mem::take(&mut self.dirty);
            dirty
                .into_iter()
                .map(|id| (id, self.volatile[&id].clone()))
                .collect()
        }

        fn make_durable(&mut self, images: Vec<(u32, (Lsn, Vec<u8>))>) {
            for (id, image) in images {
                self.durable_count = self.durable_count.max(id + 1);
                self.durable.insert(id, image);
            }
        }
    }

    /// One shard map's images as the model writes them.
    fn images(
        c: &PageCache<Blob>,
        map: impl Fn(&Shard<Blob>) -> &Mutex<HashMap<PageId, Image>>,
    ) -> std::collections::BTreeMap<u32, (Lsn, Vec<u8>)> {
        c.shards
            .iter()
            .flat_map(|s| {
                map(s)
                    .lock()
                    .iter()
                    .map(|(id, (lsn, bytes))| (id.0, (*lsn, bytes.to_vec())))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    proptest::proptest! {
        /// Random allocations and writes, forces, stages, publishes,
        /// truncations and crashes against a model of the volatile,
        /// staged and durable pages. After every step each page reads
        /// back what the model holds, and the staged and durable images
        /// are exactly the model's: a written byte reaches an image only
        /// through a force or a stage, however the bytes are shared.
        #[test]
        fn images_change_only_through_a_force_or_a_publish(
            ops in proptest::prop::collection::vec(
                (0u8..12, proptest::prelude::any::<u16>(), 0usize..8, proptest::prelude::any::<u8>()),
                0..120)) {
            let c = cache();
            let mut m = Model::default();
            for (step, (op, pick, at, v)) in ops.into_iter().enumerate() {
                let lsn = Lsn(step as u64 + 1);
                match op {
                    0 | 1 => {
                        let f = c.allocate(blob(&[v; 8]));
                        proptest::prop_assert_eq!(f.id.0, m.next);
                        m.volatile.insert(m.next, (Lsn::NULL, vec![v; 8]));
                        m.dirty.insert(m.next);
                        m.next += 1;
                    }
                    2..=5 => {
                        let Some(&id) = m.volatile.keys().nth(usize::from(pick) % m.volatile.len().max(1)) else {
                            continue;
                        };
                        let f = c.frame(PageId(id)).unwrap();
                        let mut b = f.latch.exclusive();
                        b.payload.set(at, v);
                        b.lsn = lsn;
                        let page = m.volatile.get_mut(&id).unwrap();
                        page.1[at] = v;
                        page.0 = lsn;
                        m.dirty.insert(id);
                    }
                    6 => {
                        c.force_all(Lsn(u64::MAX), || {}).unwrap();
                        let images = m.take_dirty();
                        m.make_durable(images);
                    }
                    7 => {
                        c.stage_dirty(Lsn(u64::MAX), || {}).unwrap();
                        let images = m.take_dirty();
                        m.staged.extend(images);
                    }
                    8 => {
                        c.publish_staged();
                        let images = std::mem::take(&mut m.staged).into_iter().collect();
                        m.make_durable(images);
                    }
                    9 => {
                        let from = u32::from(pick) % (m.next + 1);
                        c.truncate_from(PageId(from));
                        for map in [&mut m.volatile, &mut m.staged, &mut m.durable] {
                            map.retain(|id, _| *id < from);
                        }
                        m.dirty.retain(|id| *id < from);
                        m.next = m.next.min(from);
                        m.durable_count = m.durable_count.min(from);
                    }
                    _ => {
                        c.crash();
                        m.volatile = m.durable.clone();
                        m.staged.clear();
                        m.dirty.clear();
                        m.next = m.durable_count;
                    }
                }
                proptest::prop_assert_eq!(images(&c, |s| &s.staged), m.staged.clone());
                proptest::prop_assert_eq!(images(&c, |s| &s.durable), m.durable.clone());
                proptest::prop_assert_eq!((c.num_pages(), c.durable_pages()), (m.next, m.durable_count));
                for id in 0..=m.next {
                    let got = c.frame(PageId(id)).ok().map(|f| {
                        let b = f.latch.share();
                        (b.lsn, b.payload.0.to_vec())
                    });
                    proptest::prop_assert_eq!(got.as_ref(), m.volatile.get(&id));
                }
            }
        }
    }
}
