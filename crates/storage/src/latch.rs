//! Page latches.
//!
//! A latch "is like a semaphore and it is very cheap in terms of
//! instructions executed. It provides physical consistency of the data
//! when a page is being examined. Readers of the page acquire a share
//! (S) latch, while updaters acquire an exclusive (X) latch" (§1.1,
//! footnote 2). We wrap `parking_lot::RwLock`, and a grant costs one
//! try of the lock word: only a grant that has to block counts,
//! timing its wait into the family's [`LatchStats`].
//!
//! Every guard handed out here is a [`Guard`]: the lock's own guard
//! plus a [`Held`] token, so that [`mohan_common::pace::pace`] can
//! assert in debug builds that the index builder gives way only where
//! it holds no latch.

use mohan_common::pace::Held;
use mohan_common::stats::Counter;
use mohan_obs::Histogram;
use parking_lot::lock_api::{ArcRwLockReadGuard, ArcRwLockWriteGuard};
use parking_lot::{Mutex, RawRwLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A granted latch: the lock guard `G`, counted as held by this thread
/// until it drops.
#[derive(Debug)]
pub struct Guard<G> {
    // Declared first so the latch is released before the count drops.
    inner: G,
    _held: Held,
}

impl<G> Guard<G> {
    /// Call with the latch granted.
    fn granted(inner: G) -> Guard<G> {
        Guard {
            inner,
            _held: Held::new(),
        }
    }
}

impl<G: Deref> Deref for Guard<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.inner
    }
}

impl<G: DerefMut> DerefMut for Guard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.inner
    }
}

/// Owned share-mode latch guard (keeps the latch alive; storable in a
/// descent path without self-referential borrows).
pub type ShareGuard<T> = Guard<ArcRwLockReadGuard<RawRwLock, T>>;
/// Owned exclusive-mode latch guard.
pub type ExclusiveGuard<T> = Guard<ArcRwLockWriteGuard<RawRwLock, T>>;
/// Share-mode latch guard borrowing the latch.
pub type ShareRef<'a, T> = Guard<RwLockReadGuard<'a, T>>;
/// Exclusive-mode latch guard borrowing the latch.
pub type ExclusiveRef<'a, T> = Guard<RwLockWriteGuard<'a, T>>;

/// Wait counters shared by a family of latches (e.g. all data pages of
/// a table, or all pages of one index). Only a grant that blocks
/// writes them; an uncontended grant touches no shared line.
#[derive(Debug, Default)]
pub struct LatchStats {
    /// Blocking acquisitions that found the latch held and had to
    /// wait (`latch.wait_events`).
    pub wait_events: Counter,
    /// Time spent blocked per wait event, µs (`latch.wait_us`).
    pub wait_us: Arc<Histogram>,
}

impl LatchStats {
    /// New zeroed stats, ready to share across latches.
    #[must_use]
    pub fn new() -> Arc<LatchStats> {
        Arc::new(LatchStats::default())
    }
}

/// Tags of the latches that went clean→dirty since the list was last
/// taken. A family of tracked latches (one page-cache shard) shares
/// one list, so a checkpoint finds its work without visiting clean
/// pages. The list may name a tag twice or name a latch that no longer
/// exists; the latch's own bit is the truth.
#[derive(Debug, Default)]
pub struct DirtyList(Mutex<Vec<u32>>);

impl DirtyList {
    /// Take every tag recorded so far, leaving the list empty.
    #[must_use]
    pub fn take(&self) -> Vec<u32> {
        std::mem::take(&mut *self.0.lock())
    }

    /// Put tags back (a force that stopped early returns the tags it
    /// did not get to).
    pub fn extend(&self, tags: impl IntoIterator<Item = u32>) {
        self.0.lock().extend(tags);
    }

    /// Forget tags for which `keep` is false.
    pub fn retain(&self, keep: impl FnMut(&u32) -> bool) {
        self.0.lock().retain(keep);
    }

    /// Forget every tag.
    pub fn clear(&self) {
        self.0.lock().clear();
    }
}

/// Dirty state of one tracked latch.
#[derive(Debug)]
struct Dirty {
    /// Set iff the latch was granted exclusively since the bit was last
    /// cleared. Only ever written while the latch is held — set under X,
    /// cleared under S — so the latch itself orders every access and
    /// `Relaxed` suffices.
    bit: AtomicBool,
    tag: u32,
    list: Arc<DirtyList>,
}

/// A share/exclusive latch protecting one value (typically a page).
#[derive(Debug)]
pub struct Latch<T> {
    lock: Arc<RwLock<T>>,
    stats: Arc<LatchStats>,
    dirty: Option<Dirty>,
}

impl<T> Latch<T> {
    /// Wrap `value` in a latch reporting to `stats`.
    pub fn new(value: T, stats: Arc<LatchStats>) -> Latch<T> {
        Latch {
            lock: Arc::new(RwLock::new(value)),
            stats,
            dirty: None,
        }
    }

    /// Like [`Latch::new`], with dirty tracking: the first exclusive
    /// grant after each [`Latch::clear_dirty`] pushes `tag` on `list`.
    /// `dirty` is the initial state of the bit; a latch created dirty
    /// is *not* listed — its creator lists it once the latch can be
    /// found under `tag`, or a force racing with the creation would
    /// take the tag, find nothing, and drop it.
    pub fn tracked(
        value: T,
        stats: Arc<LatchStats>,
        tag: u32,
        list: Arc<DirtyList>,
        dirty: bool,
    ) -> Latch<T> {
        Latch {
            lock: Arc::new(RwLock::new(value)),
            stats,
            dirty: Some(Dirty {
                bit: AtomicBool::new(dirty),
                tag,
                list,
            }),
        }
    }

    /// Called with the exclusive latch *held*. Marking before the grant
    /// would race with a checkpointer that holds S: it clears the bit,
    /// encodes the old image, and the change made once X is granted
    /// would never be forced.
    fn mark_dirty(&self) {
        if let Some(d) = &self.dirty {
            if !d.bit.load(Ordering::Relaxed) {
                d.bit.store(true, Ordering::Relaxed);
                d.list.extend([d.tag]);
            }
        }
    }

    /// Clear the dirty bit. The caller must hold the latch (S suffices)
    /// and must then write out the value it sees: exclusive holders are
    /// excluded, so what it sees is everything the bit stood for.
    pub fn clear_dirty(&self) {
        if let Some(d) = &self.dirty {
            d.bit.store(false, Ordering::Relaxed);
        }
    }

    /// Has the latch been granted exclusively since the last
    /// [`Latch::clear_dirty`]? Exact only while the latch is held.
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        self.dirty
            .as_ref()
            .is_some_and(|d| d.bit.load(Ordering::Relaxed))
    }

    /// Acquire in share mode, returning an owned guard suitable for
    /// storing in a descent path.
    pub fn share_arc(&self) -> ShareGuard<T> {
        Guard::granted(match self.lock.try_read_arc() {
            Some(g) => g,
            None => self.wait(|| ArcRwLockReadGuard::lock(Arc::clone(&self.lock))),
        })
    }

    /// Acquire in exclusive mode, returning an owned guard suitable
    /// for storing in a descent path (latch crabbing).
    pub fn exclusive_arc(&self) -> ExclusiveGuard<T> {
        let g = match self.lock.try_write_arc() {
            Some(g) => g,
            None => self.wait(|| ArcRwLockWriteGuard::lock(Arc::clone(&self.lock))),
        };
        self.mark_dirty();
        Guard::granted(g)
    }

    /// Acquire in share (S) mode; blocks until granted.
    pub fn share(&self) -> ShareRef<'_, T> {
        Guard::granted(match self.lock.try_read() {
            Some(g) => g,
            None => self.wait(|| self.lock.read()),
        })
    }

    /// Acquire in exclusive (X) mode; blocks until granted.
    pub fn exclusive(&self) -> ExclusiveRef<'_, T> {
        let g = match self.lock.try_write() {
            Some(g) => g,
            None => self.wait(|| self.lock.write()),
        };
        self.mark_dirty();
        Guard::granted(g)
    }

    /// Block in `lock`, a grant the latch refused without waiting, and
    /// count the wait.
    fn wait<G>(&self, lock: impl FnOnce() -> G) -> G {
        self.stats.wait_events.bump();
        let started = Instant::now();
        let g = lock();
        self.stats.wait_us.record_micros(started.elapsed());
        g
    }

    /// Conditional exclusive acquisition (never blocks). Used by
    /// lock-free-ish paths that retry rather than risk latch deadlock.
    pub fn try_exclusive(&self) -> Option<ExclusiveRef<'_, T>> {
        let g = self.lock.try_write()?;
        self.mark_dirty();
        Some(Guard::granted(g))
    }

    /// Conditional share acquisition (never blocks).
    pub fn try_share(&self) -> Option<ShareRef<'_, T>> {
        self.lock.try_read().map(Guard::granted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn try_exclusive_fails_under_share() {
        let l = Latch::new((), LatchStats::new());
        let _s = l.share();
        assert!(l.try_exclusive().is_none());
    }

    #[test]
    fn readers_are_concurrent() {
        let l = Arc::new(Latch::new(0u64, LatchStats::new()));
        let l2 = Arc::clone(&l);
        let g1 = l.share();
        let h = thread::spawn(move || {
            let g2 = l2.share();
            *g2
        });
        assert_eq!(h.join().unwrap(), 0);
        drop(g1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "latch guard held")]
    fn pace_under_a_guard_panics() {
        let l = Latch::new((), LatchStats::new());
        let _g = l.share();
        mohan_common::pace::pace();
    }

    #[test]
    fn every_guard_flavour_is_released_for_pace() {
        let l = Latch::new(0u8, LatchStats::new());
        drop(l.share());
        drop(l.exclusive());
        drop(l.share_arc());
        drop(l.exclusive_arc());
        drop(l.try_share());
        drop(l.try_exclusive());
        {
            let _s = l.share();
            assert!(l.try_exclusive().is_none());
        }
        mohan_common::pace::pace();
    }

    /// Each blocking grant that finds the latch held in the conflicting
    /// mode counts one wait event and one `wait_us` sample. Uncontended
    /// grants and refused tries count none.
    #[test]
    fn a_blocked_grant_counts_one_wait() {
        type Grant = fn(&Latch<u8>);
        let grants: [(&str, bool, Grant); 4] = [
            ("share", false, |l| drop(l.share())),
            ("exclusive", true, |l| drop(l.exclusive())),
            ("share_arc", false, |l| drop(l.share_arc())),
            ("exclusive_arc", true, |l| drop(l.exclusive_arc())),
        ];
        for (name, exclusive, grant) in grants {
            let stats = LatchStats::new();
            let l = Arc::new(Latch::new(0u8, Arc::clone(&stats)));
            for (_, _, uncontended) in grants {
                uncontended(&l);
            }
            drop(l.try_share());
            drop(l.try_exclusive());
            let x_held = (!exclusive).then(|| l.exclusive());
            let s_held = exclusive.then(|| l.share());
            assert!(l.try_exclusive().is_none());
            if x_held.is_some() {
                assert!(l.try_share().is_none());
            }
            assert_eq!(stats.wait_events.get(), 0, "{name}: counted unblocked");
            let asker = {
                let l = Arc::clone(&l);
                thread::spawn(move || grant(&l))
            };
            let deadline = Instant::now() + Duration::from_secs(10);
            while stats.wait_events.get() == 0 {
                assert!(Instant::now() < deadline, "{name}: the grant never waited");
                thread::yield_now();
            }
            drop(x_held);
            drop(s_held);
            asker.join().unwrap();
            assert_eq!(stats.wait_events.get(), 1, "{name}");
            assert_eq!(stats.wait_us.count(), 1, "{name}");
        }
    }

    #[test]
    fn exclusive_blocks_share() {
        let l = Arc::new(Latch::new(0u64, LatchStats::new()));
        let g = l.exclusive();
        assert!(l.try_share().is_none());
        drop(g);
        assert!(l.try_share().is_some());
    }
}
