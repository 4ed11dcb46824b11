//! The background checkpointer: one thread per engine that takes an
//! engine checkpoint ([`Db::checkpoint`]) once the log has grown by
//! [`CHECKPOINT_TRIGGER_BYTES`] since the last one began. A checkpoint
//! truncates the log, so the log stays as long as the work since the
//! last checkpoint, and so does restart.
//!
//! Nothing polls. The log calls the engine back after every advance of
//! its durable prefix (a flush waker); the callback sums a counter and,
//! once the log has grown enough, notifies a condvar. The first such
//! notice spawns the thread, which holds only a `Weak` to the engine
//! while it waits and exits when the engine drops. Foreground work never
//! runs a checkpoint itself. A follower never checkpoints (its log
//! mirrors its primary's), and no checkpoint runs between a simulated
//! crash and the end of restart ([`Db::checkpoint`] refuses there).

use crate::engine::Db;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

/// Log bytes appended since the last checkpoint began that wake the
/// background checkpointer.
pub const CHECKPOINT_TRIGGER_BYTES: u64 = 16 << 20;

/// What an engine and its checkpointer thread share.
#[derive(Debug, Default)]
pub(crate) struct Checkpointer {
    /// `wal.bytes` when the last checkpoint began.
    mark: AtomicU64,
    /// A checkpoint is due and the thread has not started it yet.
    /// Set without the lock (a flush's fast path); the notify that
    /// follows takes it, so the thread cannot miss the change.
    wanted: AtomicBool,
    state: Mutex<State>,
    wake: Condvar,
}

#[derive(Debug, Default)]
struct State {
    /// The engine dropped: the thread exits.
    shutdown: bool,
    /// The thread, once spawned.
    thread: Option<JoinHandle<()>>,
}

impl Checkpointer {
    /// A checkpoint begins with the log at `bytes` appended: growth
    /// counts from here.
    pub(crate) fn mark(&self, bytes: u64) {
        self.mark.store(bytes, Ordering::Release);
    }

    /// After a flush: if the log has grown by the trigger since the
    /// last checkpoint began, have the thread take one (spawning it the
    /// first time).
    pub(crate) fn after_flush(self: &Arc<Self>, db: &Arc<Db>) {
        let grown = db
            .wal
            .stats
            .bytes
            .get()
            .saturating_sub(self.mark.load(Ordering::Acquire));
        if grown < CHECKPOINT_TRIGGER_BYTES
            || db.is_replica()
            || self.wanted.swap(true, Ordering::AcqRel)
        {
            return;
        }
        let mut st = self.state.lock();
        if st.shutdown {
            return;
        }
        if st.thread.is_none() {
            let (me, db) = (Arc::clone(self), Arc::downgrade(db));
            match std::thread::Builder::new()
                .name("oib-checkpointer".into())
                .spawn(move || me.run(&db))
            {
                Ok(handle) => st.thread = Some(handle),
                // No thread, no background checkpoints; the next
                // flush past the trigger tries again.
                Err(_) => {
                    self.wanted.store(false, Ordering::Release);
                    return;
                }
            }
        }
        self.wake.notify_one();
    }

    /// The thread: wait for a wake, checkpoint, repeat.
    fn run(&self, db: &Weak<Db>) {
        loop {
            {
                let mut st = self.state.lock();
                while !self.wanted.load(Ordering::Acquire) && !st.shutdown {
                    self.wake.wait(&mut st);
                }
                if st.shutdown {
                    return;
                }
            }
            let Some(db) = db.upgrade() else {
                return;
            };
            // Growth counts from here, so flushes while this checkpoint
            // starts do not ask for another.
            self.mark(db.wal.stats.bytes.get());
            self.wanted.store(false, Ordering::Release);
            if !db.is_replica() {
                // A failure is counted in `checkpoint.failed`; the next
                // flush past the trigger tries again.
                let _ = db.checkpoint();
            }
        }
    }

    /// The engine is dropping: stop the thread and, unless this is the
    /// thread (its handle on the engine was the last), wait for it.
    pub(crate) fn shutdown(&self) {
        let thread = {
            let mut st = self.state.lock();
            st.shutdown = true;
            self.wake.notify_all();
            st.thread.take()
        };
        if let Some(thread) = thread {
            if thread.thread().id() != std::thread::current().id() {
                let _ = thread.join();
            }
        }
    }
}
