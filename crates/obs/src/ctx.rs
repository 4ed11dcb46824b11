//! Thread-local trace context: the causal identity a request carries
//! through the system.
//!
//! A [`TraceCtx`] names the trace (one per end-to-end request), the
//! *current* span within it (so child events/spans can link to their
//! parent) and the head-based sampling decision made once when the
//! trace was born. Installation is scoped: [`install_ctx`] returns a
//! guard that restores the previous context on drop, so nested
//! installs (executor checkout, pg statement loops) compose.
//!
//! Crossing threads is explicit: capture [`current_ctx`] before the
//! hop and [`install_ctx`] it on the other side (the engine's build
//! workers, the per-shard executor, the replica apply loop all do
//! this).
//! Crossing *processes* ships only the trace id — span ids are
//! process-local, so remote continuations start a fresh root span
//! under the same trace id via [`ctx_for`].

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

/// The causal identity carried by the current thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace this work belongs to (nonzero; 0 means "no trace").
    pub trace_id: u64,
    /// Span id of the innermost open span (0 at the trace root,
    /// before any span has opened).
    pub span_id: u64,
    /// Head-based sampling decision for the whole trace. When false
    /// the context still propagates (WAL tags, replica hand-off) but
    /// no events are recorded for it.
    pub sampled: bool,
}

thread_local! {
    static CURRENT: Cell<Option<TraceCtx>> = const { Cell::new(None) };
}

/// The trace context installed on this thread, if any.
#[must_use]
pub fn current_ctx() -> Option<TraceCtx> {
    CURRENT.with(Cell::get)
}

/// Install `ctx` on this thread; the returned guard restores whatever
/// was installed before when dropped.
#[must_use]
pub fn install_ctx(ctx: TraceCtx) -> CtxGuard {
    let prev = CURRENT.with(|c| c.replace(Some(ctx)));
    CtxGuard { prev }
}

/// Restores the previously installed context on drop.
#[derive(Debug)]
pub struct CtxGuard {
    prev: Option<TraceCtx>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| c.set(prev));
    }
}

/// SplitMix64 finalizer — the id/sampling mixing function. Public so
/// tests can assert sampling determinism against the same math.
#[must_use]
pub const fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

static NEXT_TRACE: AtomicU64 = AtomicU64::new(0);
static TRACE_SEED: OnceLock<u64> = OnceLock::new();

/// A fresh process-unique, well-mixed, nonzero trace id. Seeded from
/// wall-clock nanos once so ids from successive process runs do not
/// collide (relevant when a follower's ring holds ids minted by the
/// primary).
#[must_use]
pub fn new_trace_id() -> u64 {
    let seed = *TRACE_SEED.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0x5eed, |d| d.as_nanos() as u64)
    });
    loop {
        let n = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(seed ^ n.wrapping_mul(0x2545_f491_4f6c_dd1d));
        if id != 0 {
            return id;
        }
    }
}

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// A fresh process-unique span id (nonzero).
#[must_use]
pub fn next_span_id() -> u64 {
    NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

/// Keep one trace in `n`; 0 and 1 both mean "keep every trace".
static SAMPLE_ONE_IN: AtomicU32 = AtomicU32::new(0);

/// Configure head-based sampling: keep one trace in `n` (0 or 1 keeps
/// all). The decision is a pure function of the trace id, so every
/// process in a deployment that shares the rate agrees on which
/// traces to keep.
pub fn set_trace_sampling(keep_one_in: u32) {
    SAMPLE_ONE_IN.store(keep_one_in, Ordering::Release);
}

/// The configured sampling rate (0/1 = keep all).
#[must_use]
pub fn trace_sampling() -> u32 {
    SAMPLE_ONE_IN.load(Ordering::Acquire)
}

/// Whether `trace_id` is kept under the current sampling rate.
/// Deterministic per id: the same trace id always gets the same
/// verdict at a given rate.
#[must_use]
pub fn trace_sampled(trace_id: u64) -> bool {
    let n = SAMPLE_ONE_IN.load(Ordering::Acquire);
    n <= 1 || splitmix64(trace_id).is_multiple_of(u64::from(n))
}

/// Root context for `trace_id` with the sampling decision applied —
/// what a remote continuation (replica apply) or a client-supplied id
/// installs. A zero id mints a fresh one.
#[must_use]
pub fn ctx_for(trace_id: u64) -> TraceCtx {
    let trace_id = if trace_id == 0 {
        new_trace_id()
    } else {
        trace_id
    };
    TraceCtx {
        trace_id,
        span_id: 0,
        sampled: trace_sampled(trace_id),
    }
}

/// Serializes tests that mutate the global sampling rate (tests in
/// one binary run concurrently; an unsynchronized rate change would
/// flip other tests' sampling verdicts mid-flight).
#[cfg(test)]
pub(crate) static TEST_SAMPLING_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_restores_previous_on_drop() {
        assert_eq!(current_ctx(), None);
        let outer = ctx_for(0);
        {
            let _g = install_ctx(outer);
            assert_eq!(current_ctx(), Some(outer));
            let inner = TraceCtx {
                trace_id: outer.trace_id,
                span_id: 99,
                sampled: outer.sampled,
            };
            {
                let _g2 = install_ctx(inner);
                assert_eq!(current_ctx(), Some(inner));
            }
            assert_eq!(current_ctx(), Some(outer));
        }
        assert_eq!(current_ctx(), None);
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = new_trace_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate trace id {id:#x}");
        }
    }

    #[test]
    fn sampling_is_deterministic_per_trace_id() {
        let _lock = TEST_SAMPLING_LOCK.lock().unwrap();
        set_trace_sampling(4);
        let ids: Vec<u64> = (0..256).map(|_| new_trace_id()).collect();
        let first: Vec<bool> = ids.iter().map(|&id| trace_sampled(id)).collect();
        let again: Vec<bool> = ids.iter().map(|&id| trace_sampled(id)).collect();
        assert_eq!(first, again);
        let kept = first.iter().filter(|&&k| k).count();
        // One-in-four over a well-mixed hash: loose bounds, no flake.
        assert!(kept > 16 && kept < 160, "kept {kept}/256 at rate 4");
        set_trace_sampling(0);
        assert!(ids.iter().all(|&id| trace_sampled(id)));
    }
}
