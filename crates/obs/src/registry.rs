//! The metrics registry: one dotted namespace over counters, gauge
//! callbacks and histograms.
//!
//! Registration takes a lock once and hands back an `Arc` handle;
//! every subsequent record is pure atomics on the handle, so the
//! registry itself is never on a hot path. Existing stats structs are
//! *adopted* rather than rewritten: a gauge is a closure reading
//! whatever counter already counts the event, and a histogram owned by
//! a subsystem (`WalStats::flush_us`, a latch family's `wait_us`) is
//! adopted under its public name. Several histograms adopted under the
//! same name merge into one distribution at snapshot time.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::trace::TraceSink;
use mohan_common::stats::Counter;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

type GaugeFn = Box<dyn Fn() -> u64 + Send + Sync>;

/// Named metrics under one namespace, plus the trace ring.
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, GaugeFn>>,
    hists: RwLock<BTreeMap<String, Vec<Arc<Histogram>>>>,
    trace: Arc<TraceSink>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &self.counters.read().len())
            .field("gauges", &self.gauges.read().len())
            .field("histograms", &self.hists.read().len())
            .finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_trace_capacity(TraceSink::DEFAULT_CAPACITY)
    }
}

impl Registry {
    /// Fresh registry behind an `Arc` (the shape every consumer wants).
    #[must_use]
    pub fn new() -> Arc<Registry> {
        Arc::new(Registry::default())
    }

    /// Fresh registry whose trace ring keeps `trace_capacity` events
    /// per thread shard.
    #[must_use]
    pub fn with_trace_capacity(trace_capacity: usize) -> Registry {
        Registry {
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            hists: RwLock::new(BTreeMap::new()),
            trace: Arc::new(TraceSink::new(trace_capacity)),
        }
    }

    /// Handle to the counter named `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .entry(name.to_owned())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Adopt an externally owned counter under `name`, replacing any
    /// counter registered under it before (a server started on an
    /// engine that an earlier server served adopts its own).
    pub fn adopt_counter(&self, name: &str, c: Arc<Counter>) {
        self.counters.write().insert(name.to_owned(), c);
    }

    /// Register a gauge: `f` is called at snapshot time. Replaces any
    /// previous gauge of the same name.
    pub fn gauge_fn(&self, name: &str, f: impl Fn() -> u64 + Send + Sync + 'static) {
        self.gauges.write().insert(name.to_owned(), Box::new(f));
    }

    /// Handle to a histogram named `name`, creating one on first use.
    /// If several histograms were adopted under `name`, the first is
    /// returned (they all merge at snapshot time anyway).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(v) = self.hists.read().get(name) {
            if let Some(h) = v.first() {
                return Arc::clone(h);
            }
        }
        let mut w = self.hists.write();
        let v = w.entry(name.to_owned()).or_default();
        if v.is_empty() {
            v.push(Arc::new(Histogram::new()));
        }
        Arc::clone(&v[0])
    }

    /// Adopt an externally owned histogram under `name`. Multiple
    /// adoptions under one name are merged at snapshot time.
    pub fn adopt_histogram(&self, name: &str, h: Arc<Histogram>) {
        self.hists
            .write()
            .entry(name.to_owned())
            .or_default()
            .push(h);
    }

    /// The trace ring buffer.
    #[must_use]
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Owned handle to the trace ring, for subsystems that cannot
    /// hold the registry itself (the lock manager and WAL record
    /// into the ring without depending on this crate's namespace).
    #[must_use]
    pub fn trace_handle(&self) -> Arc<TraceSink> {
        Arc::clone(&self.trace)
    }

    /// Point-in-time snapshot of everything, names sorted.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .read()
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        let mut gauge_names: Vec<String> = Vec::new();
        for (n, f) in self.gauges.read().iter() {
            gauge_names.push(n.clone());
            counters.push((n.clone(), f()));
        }
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let histograms: Vec<(String, HistogramSnapshot)> = self
            .hists
            .read()
            .iter()
            .map(|(n, v)| {
                let mut s = HistogramSnapshot::empty();
                for h in v {
                    s.merge(&h.snapshot());
                }
                (n.clone(), s)
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauge_names,
            histograms,
        }
    }
}

/// Everything the registry knew at one instant. Both lists are sorted
/// by name (gauges and counters share one flat list — the consumer
/// sees values, not mechanisms).
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter and gauge.
    pub counters: Vec<(String, u64)>,
    /// Which of `counters` are gauges (point-in-time reads rather
    /// than monotone counts) — exporters that distinguish metric
    /// types (OpenMetrics) consult this; everything else ignores it.
    /// Sorted by name.
    pub gauge_names: Vec<String>,
    /// `(name, merged distribution)` for every histogram name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of the counter/gauge named `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// Whether `name` was registered as a gauge (vs a counter).
    #[must_use]
    pub fn is_gauge(&self, name: &str) -> bool {
        self.gauge_names
            .binary_search_by(|n| n.as_str().cmp(name))
            .is_ok()
    }

    /// Distribution of the histogram named `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.histograms[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_one_sorted_namespace() {
        let r = Registry::new();
        r.counter("z.last").add(3);
        r.counter("a.first").bump();
        r.gauge_fn("m.middle", || 42);
        let s = r.snapshot();
        let names: Vec<&str> = s.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.first", "m.middle", "z.last"]);
        assert_eq!(s.counter("m.middle"), Some(42));
        assert_eq!(s.counter("a.first"), Some(1));
        assert_eq!(s.counter("nope"), None);
    }

    #[test]
    fn counter_handles_are_shared() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.bump();
        b.bump();
        assert_eq!(r.snapshot().counter("x"), Some(2));
    }

    #[test]
    fn an_adopted_counter_replaces_the_earlier_one() {
        let r = Registry::new();
        r.counter("server.requests").add(5);
        let adopted = Arc::new(Counter::new());
        r.adopt_counter("server.requests", Arc::clone(&adopted));
        adopted.bump();
        assert_eq!(r.snapshot().counter("server.requests"), Some(1));
    }

    #[test]
    fn adopted_histograms_merge_under_one_name() {
        let r = Registry::new();
        let a = Arc::new(Histogram::new());
        let b = Arc::new(Histogram::new());
        r.adopt_histogram("latch.wait_us", Arc::clone(&a));
        r.adopt_histogram("latch.wait_us", Arc::clone(&b));
        for v in 0..10 {
            a.record(v);
        }
        b.record(1_000_000);
        let s = r.snapshot();
        let h = s.histogram("latch.wait_us").unwrap();
        assert_eq!(h.count, 11);
        assert_eq!(h.max, 1_000_000);
    }

    #[test]
    fn histogram_creates_on_first_use_and_reuses() {
        let r = Registry::new();
        let h = r.histogram("wal.flush_us");
        h.record(5);
        assert_eq!(r.histogram("wal.flush_us").count(), 1);
        assert_eq!(r.snapshot().histogram("wal.flush_us").unwrap().count, 1);
    }
}
