//! Offline stand-in for the subset of `parking_lot` this workspace
//! uses, implemented over `std::sync` primitives.
//!
//! The build environment has no access to crates.io, so the workspace
//! replaces external dependencies with in-tree shims (see the
//! `[workspace.dependencies]` paths in the root `Cargo.toml`). This
//! crate keeps the `parking_lot` *API* — non-poisoning guards, `lock()`
//! returning the guard directly, `Condvar::wait_until`, and the
//! `arc_lock`-style owned guards — so the rest of the codebase reads
//! exactly like it would against the real crate. Poisoned std locks
//! are recovered with `PoisonError::into_inner`, matching
//! parking_lot's "no poisoning" semantics.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, PoisonError, TryLockError, TryLockResult};
use std::time::Instant;

/// A try-lock's guard, if it was granted; a poisoned grant counts.
fn granted<G>(tried: TryLockResult<G>) -> Option<G> {
    match tried {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// A non-poisoning mutual-exclusion lock.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// Guard for [`Mutex`]. The inner `Option` is only ever `None`
/// transiently inside [`Condvar::wait_until`].
pub struct MutexGuard<'a, T: ?Sized> {
    guard: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Create a mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire, blocking.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            guard: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// Acquire without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        granted(self.inner.try_lock()).map(|g| MutexGuard { guard: Some(g) })
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard
            .as_ref()
            .expect("guard taken during condvar wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard
            .as_mut()
            .expect("guard taken during condvar wait")
    }
}

/// Result of a timed condition-variable wait.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Did the wait end because the timeout elapsed?
    #[must_use]
    pub fn timed_out(self) -> bool {
        self.0
    }
}

/// A condition variable usable with [`Mutex`].
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Block until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.guard.take().expect("guard taken during condvar wait");
        let g = self.inner.wait(g).unwrap_or_else(PoisonError::into_inner);
        guard.guard = Some(g);
    }

    /// Block until notified or `deadline` passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let now = Instant::now();
        if now >= deadline {
            return WaitTimeoutResult(true);
        }
        let g = guard.guard.take().expect("guard taken during condvar wait");
        let (g, res) = match self.inner.wait_timeout(g, deadline - now) {
            Ok((g, res)) => (g, res),
            Err(p) => {
                let (g, res) = p.into_inner();
                (g, res)
            }
        };
        guard.guard = Some(g);
        WaitTimeoutResult(res.timed_out())
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

/// Marker type standing in for `parking_lot::RawRwLock` in guard type
/// parameters.
#[derive(Debug)]
pub struct RawRwLock(());

/// A non-poisoning readers/writer lock.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

/// Share-mode guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    guard: std::sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-mode guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    guard: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Create a readers/writer lock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire in share mode, blocking.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            guard: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquire in exclusive mode, blocking.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            guard: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquire in share mode without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        granted(self.inner.try_read()).map(|guard| RwLockReadGuard { guard })
    }

    /// Acquire in exclusive mode without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        granted(self.inner.try_write()).map(|guard| RwLockWriteGuard { guard })
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: 'static> RwLock<T> {
    /// Acquire in share mode without blocking, returning an owned guard
    /// (parking_lot's `arc_lock` name).
    pub fn try_read_arc(self: &Arc<Self>) -> Option<lock_api::ArcRwLockReadGuard<RawRwLock, T>> {
        granted(self.inner.try_read()).map(|g| lock_api::ArcRwLockReadGuard::own(g, self))
    }

    /// Acquire in exclusive mode without blocking, returning an owned
    /// guard (parking_lot's `arc_lock` name).
    pub fn try_write_arc(self: &Arc<Self>) -> Option<lock_api::ArcRwLockWriteGuard<RawRwLock, T>> {
        granted(self.inner.try_write()).map(|g| lock_api::ArcRwLockWriteGuard::own(g, self))
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(g) => f.debug_tuple("RwLock").field(&&*g).finish(),
            None => f.write_str("RwLock(<locked>)"),
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// Owned (`Arc`-holding) guards, mirroring parking_lot's `arc_lock`
/// feature.
pub mod lock_api {
    use super::RwLock;
    use std::marker::PhantomData;
    use std::mem::ManuallyDrop;
    use std::ops::{Deref, DerefMut};
    use std::sync::{Arc, PoisonError};

    /// Owned share-mode guard: keeps the lock's `Arc` alive for the
    /// guard's lifetime, so it is storable without borrows.
    pub struct ArcRwLockReadGuard<R, T: 'static> {
        // Dropped before `lock` (declaration order), which keeps the
        // lifetime-extended std guard sound: the Arc outlives it.
        guard: ManuallyDrop<std::sync::RwLockReadGuard<'static, T>>,
        lock: ManuallyDrop<Arc<RwLock<T>>>,
        _raw: PhantomData<R>,
    }

    /// Owned exclusive-mode guard.
    pub struct ArcRwLockWriteGuard<R, T: 'static> {
        guard: ManuallyDrop<std::sync::RwLockWriteGuard<'static, T>>,
        lock: ManuallyDrop<Arc<RwLock<T>>>,
        _raw: PhantomData<R>,
    }

    impl<R, T> ArcRwLockReadGuard<R, T> {
        /// Acquire `lock` in share mode, taking ownership of the `Arc`.
        pub fn lock(lock: Arc<RwLock<T>>) -> Self {
            let guard = lock.inner.read().unwrap_or_else(PoisonError::into_inner);
            Self::own(guard, &lock)
        }

        /// Own `guard`, a grant on `lock`'s lock.
        pub(crate) fn own(guard: std::sync::RwLockReadGuard<'_, T>, lock: &Arc<RwLock<T>>) -> Self {
            // SAFETY: the guard borrows the RwLock inside `lock`; we
            // extend the lifetime to 'static but hold a clone of the Arc
            // alongside and drop the guard first (see Drop).
            let guard: std::sync::RwLockReadGuard<'static, T> =
                unsafe { std::mem::transmute(guard) };
            ArcRwLockReadGuard {
                guard: ManuallyDrop::new(guard),
                lock: ManuallyDrop::new(Arc::clone(lock)),
                _raw: PhantomData,
            }
        }
    }

    impl<R, T> ArcRwLockWriteGuard<R, T> {
        /// Acquire `lock` in exclusive mode, taking ownership of the
        /// `Arc`.
        pub fn lock(lock: Arc<RwLock<T>>) -> Self {
            let guard = lock.inner.write().unwrap_or_else(PoisonError::into_inner);
            Self::own(guard, &lock)
        }

        /// Own `guard`, a grant on `lock`'s lock.
        pub(crate) fn own(
            guard: std::sync::RwLockWriteGuard<'_, T>,
            lock: &Arc<RwLock<T>>,
        ) -> Self {
            // SAFETY: as for the read guard above.
            let guard: std::sync::RwLockWriteGuard<'static, T> =
                unsafe { std::mem::transmute(guard) };
            ArcRwLockWriteGuard {
                guard: ManuallyDrop::new(guard),
                lock: ManuallyDrop::new(Arc::clone(lock)),
                _raw: PhantomData,
            }
        }
    }

    impl<R, T> Deref for ArcRwLockReadGuard<R, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.guard
        }
    }

    impl<R, T> Deref for ArcRwLockWriteGuard<R, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.guard
        }
    }

    impl<R, T> DerefMut for ArcRwLockWriteGuard<R, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.guard
        }
    }

    impl<R, T> Drop for ArcRwLockReadGuard<R, T> {
        fn drop(&mut self) {
            // SAFETY: dropped exactly once, guard strictly before Arc.
            unsafe {
                ManuallyDrop::drop(&mut self.guard);
                ManuallyDrop::drop(&mut self.lock);
            }
        }
    }

    impl<R, T> Drop for ArcRwLockWriteGuard<R, T> {
        fn drop(&mut self) {
            // SAFETY: dropped exactly once, guard strictly before Arc.
            unsafe {
                ManuallyDrop::drop(&mut self.guard);
                ManuallyDrop::drop(&mut self.lock);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_modes() {
        let l = RwLock::new(0u32);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(*r1 + *r2, 0);
            assert!(l.try_write().is_none());
        }
        *l.write() = 7;
        assert_eq!(*l.read(), 7);
    }

    #[test]
    fn condvar_wait_until_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(10));
        assert!(res.timed_out());
    }

    #[test]
    fn condvar_notify_crosses_threads() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut done = m.lock();
            *done = true;
            drop(done);
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut done = m.lock();
        while !*done {
            let r = cv.wait_until(&mut done, Instant::now() + Duration::from_secs(5));
            assert!(!r.timed_out(), "notify never arrived");
        }
        h.join().unwrap();
    }

    #[test]
    fn arc_guards_are_owned() {
        let lock = Arc::new(RwLock::new(5u64));
        let g = lock_api::ArcRwLockReadGuard::<RawRwLock, _>::lock(Arc::clone(&lock));
        assert_eq!(*g, 5);
        drop(g);
        let mut w = lock_api::ArcRwLockWriteGuard::<RawRwLock, _>::lock(Arc::clone(&lock));
        *w = 6;
        drop(w);
        assert_eq!(*lock.read(), 6);
    }

    #[test]
    fn owned_try_guards_hold_and_refuse() {
        let lock = Arc::new(RwLock::new(5u64));
        let r1 = lock.try_read_arc().unwrap();
        let r2 = lock.try_read_arc().unwrap();
        assert_eq!(*r1 + *r2, 10);
        assert!(lock.try_write_arc().is_none());
        drop((r1, r2));
        let mut w = lock.try_write_arc().unwrap();
        assert!(lock.try_read_arc().is_none());
        assert!(lock.try_write_arc().is_none());
        *w = 6;
        // The guard keeps the lock alive past its last other owner.
        let weak = Arc::downgrade(&lock);
        drop(lock);
        assert_eq!(*w, 6);
        drop(w);
        assert!(weak.upgrade().is_none());
    }
}
