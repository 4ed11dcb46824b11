//! Lightweight atomic event counters.
//!
//! The 1992 paper argues in *pathlengths*: lock calls saved, log
//! records avoided, tree traversals skipped. The benchmark harness
//! reproduces those arguments by counting the events exactly, so every
//! subsystem exposes a stats struct built from [`Counter`]s. Each
//! field is there because a metric exports it or a test reads it as
//! an oracle (DESIGN §8).

use std::sync::atomic::{AtomicU64, Ordering};

/// A relaxed atomic event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// New counter at zero.
    #[must_use]
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    pub fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Clone for Counter {
    fn clone(&self) -> Self {
        Counter(AtomicU64::new(self.get()))
    }
}

/// Stripes per [`StripedCounter`] (power of two).
const COUNTER_STRIPES: usize = 8;

/// One counter stripe, padded to its own cache line so concurrent
/// writers on different stripes never ping-pong a line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

thread_local! {
    /// Each thread picks a home stripe once (round-robin) and sticks
    /// to it.
    static HOME_STRIPE: usize = {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) & (COUNTER_STRIPES - 1)
    };
}

/// A write-mostly event counter striped across cache lines: `bump`
/// and `add` touch only the calling thread's home stripe, `get` sums
/// all stripes. Use for counters on hot multi-threaded paths (e.g.
/// per-append WAL volume) where a single shared [`Counter`] line
/// would be contended; reads are exact at any quiescent point.
#[derive(Debug, Default)]
pub struct StripedCounter {
    stripes: [PaddedU64; COUNTER_STRIPES],
}

impl StripedCounter {
    /// New counter at zero.
    #[must_use]
    pub fn new() -> StripedCounter {
        StripedCounter::default()
    }

    /// Add one.
    pub fn bump(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        HOME_STRIPE.with(|&s| self.stripes[s].0.fetch_add(n, Ordering::Relaxed));
    }

    /// Current value (sum over stripes).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A relaxed atomic maximum tracker (e.g. peak side-file backlog).
#[derive(Debug, Default)]
pub struct MaxGauge(AtomicU64);

impl MaxGauge {
    /// New gauge at zero.
    #[must_use]
    pub const fn new() -> MaxGauge {
        MaxGauge(AtomicU64::new(0))
    }

    /// Record an observation; keeps the maximum.
    pub fn observe(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current maximum.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Clone for MaxGauge {
    fn clone(&self) -> Self {
        MaxGauge(AtomicU64::new(self.get()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.bump();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn counter_is_thread_safe() {
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.bump();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn gauge_keeps_max() {
        let g = MaxGauge::new();
        g.observe(3);
        g.observe(7);
        g.observe(5);
        assert_eq!(g.get(), 7);
    }
}
