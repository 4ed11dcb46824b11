//! WAL fan-out: a bounded ring of chunks copied out of the log.
//!
//! Records are encoded once, at append, into the bytes the log stores;
//! a `WalFrame` carries those same bytes. [`WalBroadcast`] copies each
//! newly flushed WAL suffix out of the log ([`LogManager::copy_range`])
//! and trace-tags it **once** into a chunk, and every subscriber tails
//! the ring at its own cursor, fanning out the same bytes — a primary
//! does not slow down with every attached read replica.
//!
//! The ring is bounded by bytes. When it overflows, the oldest chunks
//! are evicted and the retained window advances; a subscriber whose
//! cursor falls behind the window is *cut loose* by the server with a
//! structured error and falls back to the replica's reconnect
//! catch-up path. Subscribers that start behind the window (e.g. a
//! fresh replica subscribing from LSN 1) are served by bounded private
//! scans until their cursor reaches a retained chunk boundary — only
//! subscribers that were *inside* the window and fell out get cut.
//! The ring itself does not pin the log: if a truncation passes its
//! head while no subscriber fills it, the next fill restarts the window
//! at [`LogManager::first_lsn`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use mohan_common::Lsn;
use parking_lot::Mutex;

use crate::log::LogManager;

/// Per-chunk record-count cap.
pub const CHUNK_MAX_RECORDS: usize = 1024;

/// Per-chunk byte cap. Enforced *before* taking a record, so a chunk
/// only exceeds it when a single record does — and that record travels
/// alone in its own chunk (and its own wire frame), instead of
/// overshooting a full batch past the wire frame limit.
pub const CHUNK_MAX_BYTES: usize = 1 << 20;

/// One run of contiguous flushed records, as the log stores them.
///
/// `records` is the records' encodings back-to-back — exactly what a
/// `WalFrame` carries on the wire — and `traces` the sparse trace
/// attributions for `first_lsn..=last_lsn`. Both are taken once when
/// the chunk is cut, no matter how many subscribers consume it.
#[derive(Debug)]
pub struct WalChunk {
    /// LSN of the first record in the chunk.
    pub first_lsn: u64,
    /// LSN of the last record in the chunk (inclusive; contiguous).
    pub last_lsn: u64,
    /// Durable mark when the chunk was cut (`>= last_lsn`). Slightly
    /// stale by the time a lagging subscriber reads the chunk, which
    /// is safe: it still promises every carried record is durable.
    pub flushed: u64,
    /// Number of records in `records`.
    pub count: u32,
    /// Back-to-back encoded records ([`crate::decode_records`] form).
    pub records: Vec<u8>,
    /// Sparse `(lsn, trace_id)` attributions for the chunk's range.
    pub traces: Vec<(u64, u64)>,
    /// Consumer-owned cache slot. The server stores the fully framed
    /// wire bytes here on first send so N subscribers share one frame
    /// encode; the WAL layer never looks inside.
    pub wire_cache: OnceLock<Vec<u8>>,
}

/// What a subscriber cursor sees when it tails the ring.
#[derive(Debug)]
pub enum Tail {
    /// Nothing new: the cursor is at (or past) the ring's head.
    CaughtUp,
    /// The cursor is inside the retained window but not on a chunk
    /// boundary (or in the not-yet-chunked gap below the head): serve
    /// `cursor..=through` with a private bounded scan, after which the
    /// cursor lands on a chunk boundary.
    CatchUp {
        /// Inclusive upper LSN of the private scan.
        through: u64,
    },
    /// The cursor has fallen behind the retained window — the suffix
    /// starting at the cursor has been evicted. A subscriber that was
    /// previously inside the window gets cut loose; one that never
    /// was is served by private scans up to `retained_from - 1`.
    Behind {
        /// Oldest retained chunk boundary (the window start).
        retained_from: u64,
    },
    /// Pre-encoded chunks starting exactly at the cursor.
    Chunks(Vec<Arc<WalChunk>>),
}

struct Ring {
    chunks: VecDeque<Arc<WalChunk>>,
    /// Sum of `records.len()` over retained chunks.
    bytes: usize,
    /// First LSN not yet chunked (ring head; `flushed + 1` once full).
    next_lsn: u64,
}

/// Shared fan-out state: the chunk ring plus the counters that prove
/// the amortization (scans/encodes per flushed batch stay O(1) no
/// matter how many subscribers tail it).
pub struct WalBroadcast {
    ring: Mutex<Ring>,
    /// Lock-free mirror of `ring.next_lsn` so the idle fast path
    /// (nothing newly flushed) costs one atomic load and zero scans.
    head_hint: AtomicU64,
    max_bytes: usize,
    scans: AtomicU64,
    encodes: AtomicU64,
    encoded_bytes: AtomicU64,
    chunks_evicted: AtomicU64,
    cut_loose: AtomicU64,
    subscribers: AtomicU64,
}

impl WalBroadcast {
    /// New ring starting at `start_lsn` (normally `flushed + 1` at
    /// server start; earlier records are served by catch-up scans),
    /// retaining at most `max_bytes` of encoded chunk bytes.
    #[must_use]
    pub fn new(start_lsn: u64, max_bytes: usize) -> WalBroadcast {
        WalBroadcast {
            ring: Mutex::new(Ring {
                chunks: VecDeque::new(),
                bytes: 0,
                next_lsn: start_lsn.max(1),
            }),
            head_hint: AtomicU64::new(start_lsn.max(1)),
            max_bytes: max_bytes.max(CHUNK_MAX_BYTES),
            scans: AtomicU64::new(0),
            encodes: AtomicU64::new(0),
            encoded_bytes: AtomicU64::new(0),
            chunks_evicted: AtomicU64::new(0),
            cut_loose: AtomicU64::new(0),
            subscribers: AtomicU64::new(0),
        }
    }

    /// Pull every newly flushed record into the ring, cutting chunks.
    /// Returns whether any chunk was cut.
    ///
    /// Idle fast path: when nothing flushed since the last fill this
    /// is one atomic load — N idle subscribers cost zero scans. The
    /// ring lock is only tried, never waited on: if another pump is
    /// already filling, this one reads whatever it leaves behind.
    pub fn fill(&self, log: &LogManager) -> bool {
        let flushed = log.flushed_lsn().0;
        if flushed < self.head_hint.load(Ordering::Acquire) {
            return false;
        }
        let Some(mut ring) = self.ring.try_lock() else {
            return false;
        };
        let first = log.first_lsn().0;
        if ring.next_lsn < first {
            // The log was truncated past the ring's head while nobody
            // filled it. A subscriber still needing those records pins
            // the log, so none does: restart the window at the log's
            // first record.
            ring.chunks.clear();
            ring.bytes = 0;
            ring.next_lsn = first;
        }
        let mut progressed = false;
        while ring.next_lsn <= flushed {
            self.scans.fetch_add(1, Ordering::Relaxed);
            let mut records = Vec::new();
            let (count, last) = log.copy_range(
                Lsn(ring.next_lsn - 1),
                Lsn(flushed),
                CHUNK_MAX_RECORDS,
                CHUNK_MAX_BYTES,
                &mut records,
            );
            if count == 0 {
                break;
            }
            self.cut(&mut ring, records, count, last.0, flushed, log);
            progressed = true;
        }
        self.head_hint.store(ring.next_lsn, Ordering::Release);
        progressed
    }

    /// Push `records` (`count` encodings ending at LSN `last`) as a
    /// chunk: trace-tag once, and evict from the front past the byte
    /// budget.
    fn cut(
        &self,
        ring: &mut Ring,
        records: Vec<u8>,
        count: usize,
        last: u64,
        flushed: u64,
        log: &LogManager,
    ) {
        let first = ring.next_lsn;
        self.encodes.fetch_add(1, Ordering::Relaxed);
        self.encoded_bytes
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        let chunk = Arc::new(WalChunk {
            first_lsn: first,
            last_lsn: last,
            flushed,
            count: count as u32,
            records,
            traces: log.trace_tags_for(first, last),
            wire_cache: OnceLock::new(),
        });
        ring.bytes += chunk.records.len();
        ring.chunks.push_back(chunk);
        ring.next_lsn = last + 1;
        // Always keep the newest chunk so live tails never starve.
        while ring.bytes > self.max_bytes && ring.chunks.len() > 1 {
            let old = ring.chunks.pop_front().expect("len > 1");
            ring.bytes -= old.records.len();
            self.chunks_evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// What `cursor` (next wanted LSN) sees: pre-encoded chunks when
    /// it sits on a retained boundary, a bounded private-scan target
    /// when inside the window but unaligned, [`Tail::Behind`] when the
    /// window has moved past it, or [`Tail::CaughtUp`].
    #[must_use]
    pub fn tail_from(&self, cursor: u64, max_chunks: usize) -> Tail {
        let ring = self.ring.lock();
        if cursor >= ring.next_lsn {
            return Tail::CaughtUp;
        }
        let Some(front) = ring.chunks.front() else {
            // Nothing retained yet: everything below the head is
            // scan-only territory.
            return Tail::Behind {
                retained_from: ring.next_lsn,
            };
        };
        if cursor < front.first_lsn {
            return Tail::Behind {
                retained_from: front.first_lsn,
            };
        }
        let idx = ring.chunks.partition_point(|c| c.first_lsn < cursor);
        match ring.chunks.get(idx) {
            Some(c) if c.first_lsn == cursor => Tail::Chunks(
                ring.chunks
                    .iter()
                    .skip(idx)
                    .take(max_chunks.max(1))
                    .cloned()
                    .collect(),
            ),
            Some(c) => Tail::CatchUp {
                through: c.first_lsn - 1,
            },
            // Mid-way through the newest chunk: scan to its end, then
            // the cursor is at the head.
            None => Tail::CatchUp {
                through: ring.next_lsn - 1,
            },
        }
    }

    /// Oldest retained chunk boundary (== ring head when empty).
    #[must_use]
    pub fn window_start(&self) -> u64 {
        let ring = self.ring.lock();
        ring.chunks.front().map_or(ring.next_lsn, |c| c.first_lsn)
    }

    /// First LSN not yet chunked.
    #[must_use]
    pub fn head_lsn(&self) -> u64 {
        self.head_hint.load(Ordering::Acquire)
    }

    /// Retained chunk count.
    #[must_use]
    pub fn ring_chunks(&self) -> u64 {
        self.ring.lock().chunks.len() as u64
    }

    /// Retained encoded bytes.
    #[must_use]
    pub fn ring_bytes(&self) -> u64 {
        self.ring.lock().bytes as u64
    }

    /// Cumulative log range copies made filling the ring.
    #[must_use]
    pub fn scans(&self) -> u64 {
        self.scans.load(Ordering::Relaxed)
    }

    /// Cumulative chunks cut.
    #[must_use]
    pub fn encodes(&self) -> u64 {
        self.encodes.load(Ordering::Relaxed)
    }

    /// Cumulative record bytes over all cut chunks.
    #[must_use]
    pub fn encoded_bytes(&self) -> u64 {
        self.encoded_bytes.load(Ordering::Relaxed)
    }

    /// Cumulative chunks evicted off the window's tail.
    #[must_use]
    pub fn chunks_evicted(&self) -> u64 {
        self.chunks_evicted.load(Ordering::Relaxed)
    }

    /// Cumulative subscribers cut loose for falling behind the window.
    #[must_use]
    pub fn cut_loose(&self) -> u64 {
        self.cut_loose.load(Ordering::Relaxed)
    }

    /// Record one cut-loose event (called by the serving layer).
    pub fn note_cut_loose(&self) {
        self.cut_loose.fetch_add(1, Ordering::Relaxed);
    }

    /// Current live `SubscribeWal` streams (serving-layer maintained).
    #[must_use]
    pub fn subscribers(&self) -> u64 {
        self.subscribers.load(Ordering::Acquire)
    }

    /// Note a subscriber attach.
    pub fn subscriber_attached(&self) {
        self.subscribers.fetch_add(1, Ordering::AcqRel);
    }

    /// Note a subscriber detach.
    pub fn subscriber_detached(&self) {
        self.subscribers.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{LogPayload, RecKind};
    use mohan_common::TxId;

    fn filler(n: usize) -> LogPayload {
        LogPayload::CatalogUpdate {
            bytes: vec![0xAB; n],
        }
    }

    fn append_n(log: &LogManager, n: usize, payload_bytes: usize) {
        for _ in 0..n {
            log.append(TxId(1), Lsn::NULL, RecKind::RedoOnly, filler(payload_bytes));
        }
        log.flush_all();
    }

    #[test]
    fn fill_is_idle_cheap_and_chunks_contiguously() {
        let log = LogManager::new();
        let bc = WalBroadcast::new(log.flushed_lsn().0 + 1, 1 << 22);
        assert!(!bc.fill(&log), "nothing flushed yet");
        assert_eq!(bc.scans(), 0, "idle fill must not scan");

        append_n(&log, 10, 16);
        assert!(bc.fill(&log));
        let scans_after = bc.scans();
        assert!(scans_after >= 1);
        // Idle again: no new flush, no new scans.
        for _ in 0..100 {
            assert!(!bc.fill(&log));
        }
        assert_eq!(bc.scans(), scans_after, "idle fills must cost zero scans");

        // Chunks cover 1..=10 contiguously.
        let Tail::Chunks(chunks) = bc.tail_from(1, 16) else {
            panic!("cursor 1 should sit on the first chunk boundary");
        };
        let mut next = 1;
        let mut total = 0u32;
        for c in &chunks {
            assert_eq!(c.first_lsn, next, "chunks must be contiguous");
            assert!(c.last_lsn >= c.first_lsn);
            assert!(c.flushed >= c.last_lsn);
            let decoded =
                crate::decode_records(&c.records, c.count as usize).expect("chunk blob decodes");
            assert_eq!(decoded.len(), c.count as usize);
            assert_eq!(decoded.first().expect("non-empty").lsn.0, c.first_lsn);
            assert_eq!(decoded.last().expect("non-empty").lsn.0, c.last_lsn);
            next = c.last_lsn + 1;
            total += c.count;
        }
        assert_eq!(total, 10);
        assert!(matches!(bc.tail_from(11, 16), Tail::CaughtUp));
    }

    /// Satellite regression: the old pump checked the byte cap *after*
    /// pushing, so a catalog-snapshot-sized record could ride along
    /// with a full batch and push the frame past the wire limit. Here
    /// an oversized record must travel alone in its own chunk, and
    /// every other chunk must respect the cap.
    #[test]
    fn oversized_catalog_record_travels_alone() {
        let log = LogManager::new();
        let bc = WalBroadcast::new(1, 1 << 26);
        // Half-cap records so the cap math is exercised, then a
        // catalog snapshot bigger than a whole chunk, then more.
        append_n(&log, 3, CHUNK_MAX_BYTES / 2);
        append_n(&log, 1, 2 * CHUNK_MAX_BYTES);
        append_n(&log, 3, CHUNK_MAX_BYTES / 2);
        bc.fill(&log);

        let Tail::Chunks(chunks) = bc.tail_from(1, 64) else {
            panic!("expected chunks");
        };
        let mut covered = 0u32;
        for c in &chunks {
            if c.count > 1 {
                assert!(
                    c.records.len() <= CHUNK_MAX_BYTES,
                    "multi-record chunk {} exceeds cap: {} bytes",
                    c.first_lsn,
                    c.records.len()
                );
            }
            if c.records.len() > CHUNK_MAX_BYTES {
                assert_eq!(c.count, 1, "oversized chunk must hold exactly one record");
            }
            covered += c.count;
        }
        assert_eq!(covered, 7, "all records covered");
        let big = chunks
            .iter()
            .find(|c| c.records.len() > CHUNK_MAX_BYTES)
            .expect("oversized chunk present");
        assert_eq!(big.first_lsn, big.last_lsn);
    }

    #[test]
    fn eviction_advances_window_and_behind_cursors_see_it() {
        let log = LogManager::new();
        // Tiny ring: barely over one chunk.
        let bc = WalBroadcast::new(1, CHUNK_MAX_BYTES);
        append_n(&log, 64, CHUNK_MAX_BYTES / 8);
        bc.fill(&log);
        assert!(bc.chunks_evicted() > 0, "tiny ring must evict");
        let start = bc.window_start();
        assert!(start > 1, "window must have advanced past LSN 1");
        match bc.tail_from(1, 16) {
            Tail::Behind { retained_from } => assert_eq!(retained_from, start),
            other => panic!("cursor 1 should be behind the window, got {other:?}"),
        }
        // A cursor on the window start still reads chunks.
        assert!(matches!(bc.tail_from(start, 16), Tail::Chunks(_)));
    }

    #[test]
    fn unaligned_cursor_gets_bounded_catchup_target() {
        let log = LogManager::new();
        let bc = WalBroadcast::new(1, 1 << 26);
        append_n(&log, 20, 16);
        bc.fill(&log);
        // All 20 tiny records land in one chunk (1..=20); a cursor in
        // the middle must be told to scan to the chunk's end.
        match bc.tail_from(5, 16) {
            Tail::CatchUp { through } => assert_eq!(through, 20),
            other => panic!("expected CatchUp, got {other:?}"),
        }
        // After the scan the cursor is at the head.
        assert!(matches!(bc.tail_from(21, 16), Tail::CaughtUp));
    }

    #[test]
    fn fill_ships_only_the_flushed_prefix() {
        let log = LogManager::new();
        let bc = WalBroadcast::new(1, 1 << 22);
        append_n(&log, 5, 16);
        // Three more appended but NOT flushed.
        for _ in 0..3 {
            log.append(TxId(1), Lsn::NULL, RecKind::RedoOnly, filler(16));
        }
        bc.fill(&log);
        assert_eq!(bc.head_lsn(), 6, "ring head stops at flushed + 1");
        let Tail::Chunks(chunks) = bc.tail_from(1, 16) else {
            panic!("expected chunks");
        };
        assert_eq!(chunks.iter().map(|c| u64::from(c.count)).sum::<u64>(), 5);
        log.flush_all();
        bc.fill(&log);
        assert_eq!(bc.head_lsn(), 9);
    }

    #[test]
    fn a_ring_left_behind_by_truncation_restarts_at_the_first_record() {
        let log = LogManager::new();
        let bc = WalBroadcast::new(1, 1 << 22);
        append_n(&log, 5_000, 16);
        bc.fill(&log);
        append_n(&log, 10_000, 16);
        // Nobody filled the ring while the log was truncated past its
        // head.
        assert_eq!(log.truncate_below(Lsn(12_000)), Lsn(12_000));
        assert!(bc.fill(&log));
        assert_eq!(bc.window_start(), 12_000);
        assert_eq!(bc.head_lsn(), 15_001);
        assert!(matches!(bc.tail_from(12_000, 64), Tail::Chunks(_)));
    }
}
