//! The benchmark's own in-memory span recorder: spans around every
//! `Client` call and every build phase, recorded from outside the
//! program, kept in memory and written as JSON lines when the run
//! ends. Off unless the run is traced, so the end-to-end numbers are
//! taken without it.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call (made at process start).
pub fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Spans written per traced run; a closed-loop run makes several
/// hundred thousand and the first ones already show every layer.
const MAX_WRITTEN: usize = 50_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Span that caused this one; 0 for a root.
    pub parent: u64,
    /// Shared by the spans of one foreground operation or one build.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    next_id: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            next_id: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    /// A buffer for one thread; its spans join the tracer's when it
    /// is dropped, so recording takes no shared lock.
    pub fn buf(&self) -> SpanBuf<'_> {
        SpanBuf {
            tracer: self,
            spans: Vec::new(),
        }
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<usize> {
        let mut spans = self.done.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| s.start_ns);
        spans.truncate(MAX_WRITTEN);
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()?;
        Ok(spans.len())
    }
}

pub struct SpanBuf<'t> {
    tracer: &'t Tracer,
    spans: Vec<Span>,
}

impl SpanBuf<'_> {
    /// Record a finished span and return its id (0 when tracing is
    /// off), for use as the parent of the spans it caused.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u64,
        op: u64,
    ) -> u64 {
        if !self.tracer.on {
            return 0;
        }
        let id = self.reserve();
        self.record_as(id, name, start_ns, end_ns, parent, op);
        id
    }

    /// An id for a span that is still open, so its children can name
    /// it before [`SpanBuf::record_as`] closes it.
    pub fn reserve(&mut self) -> u64 {
        if !self.tracer.on {
            return 0;
        }
        // Relaxed: the counter publishes no other data.
        self.tracer.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u64,
        op: u64,
    ) {
        if self.tracer.on {
            self.spans.push(Span {
                id,
                parent,
                op,
                name,
                start_ns,
                end_ns,
            });
        }
    }
}

impl Drop for SpanBuf<'_> {
    fn drop(&mut self) {
        if let Ok(mut done) = self.tracer.done.lock() {
            done.append(&mut self.spans);
        }
    }
}
