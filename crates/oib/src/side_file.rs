//! The side-file: an append-only table of `<operation, key>` entries
//! (§3.1), kept by the log.
//!
//! A transaction logs each append as a redo-only `SideFileAppend`
//! record carrying the whole entry, so the log already holds every
//! entry, in order, and the side-file keeps no copy of its own. The
//! IB's drain reads its index's appends out of the log
//! ([`SideFile::pending`]); a [`LogPin`] taken at the first append
//! keeps the undrained ones from truncation and moves up as drain
//! passes commit. A crash leaves nothing to rebuild: restart pins the
//! log again ([`SideFile::reopen`]) and the drain resumes from the log
//! position its progress record names.
//!
//! "Transactions append entries without doing any locking of the
//! appended entries" — a single mutex orders the appends, which is the
//! moral equivalent: no entry is ever locked, and appends never wait
//! on the index builder's work. Each append logs under it, so the
//! side-file's order is the log's.
//!
//! The end-of-drain handshake closes the race the paper leaves
//! implicit: a transaction that saw `Index_Build = '1'` under the data
//! page latch might append only after the IB checked for the last
//! entry. Here the close decision and every append share the mutex:
//! [`SideFile::try_close`] succeeds only if the drain has read through
//! the last append's LSN, and any append that arrives after a
//! successful close is refused, so the transaction updates the index
//! directly instead.

use mohan_common::stats::{Counter, MaxGauge};
use mohan_common::{IndexId, Lsn, Result};
use mohan_wal::{LogManager, LogPin, SideFileOp};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Default)]
struct Inner {
    closed: bool,
    /// LSN of the last logged append ([`Lsn::NULL`] before the first).
    last: Lsn,
    /// Holds the undrained appends in the log, with the LSN it holds
    /// from. `None` until the first append, and again once closed.
    pin: Option<(LogPin, Lsn)>,
}

/// One index build's side-file.
#[derive(Default)]
pub struct SideFile {
    inner: Mutex<Inner>,
    /// Entries appended over the build's lifetime.
    pub appended: Counter,
    /// Peak backlog (entries one drain pass found) observed at drain
    /// time.
    pub max_backlog: MaxGauge,
    /// Non-empty catch-up passes the drain executed (§3.2.5): how many
    /// times the IB found new entries appended since its last pass.
    /// Stays small when the drain converges on its own; hitting the
    /// quiesce fallback shows up as a value ≥ 3.
    pub drain_passes: Counter,
    /// Entries appended and not yet applied by the IB: the live
    /// `build.drain_lag` gauge. Restart counts the backlog the crash
    /// left ([`SideFile::reopen`]).
    backlog: AtomicU64,
}

impl SideFile {
    /// Fresh, open side-file.
    #[must_use]
    pub fn new() -> SideFile {
        SideFile::default()
    }

    /// Transaction append (Figure 1): run `log`, which logs the entry's
    /// `SideFileAppend` record and returns its LSN, under the
    /// side-file's mutex. `Ok(false)` without running it if the build
    /// already completed: the caller must apply the operation to the
    /// index directly. The first append pins the log at its record;
    /// until the pin exists, the appending transaction's own first
    /// record holds it.
    pub fn append_with(&self, wal: &LogManager, log: impl FnOnce() -> Result<Lsn>) -> Result<bool> {
        let mut g = self.inner.lock();
        if g.closed {
            return Ok(false);
        }
        let lsn = log()?;
        if g.pin.is_none() {
            g.pin = wal.pin(lsn).map(|pin| (pin, lsn));
        }
        g.last = lsn;
        self.appended.bump();
        self.backlog.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// The drain's next batch: `index`'s entries logged after `pos`,
    /// through the log's tail as it stands now, and that tail — the
    /// position the batch reads through. Entries below the pin are
    /// drained already, and none lies past the last append, so the
    /// walk stops there: with nothing appended since `pos` it reads
    /// nothing, and the close that follows an empty batch races no
    /// walk.
    pub fn pending(&self, wal: &LogManager, index: IndexId, pos: Lsn) -> (Vec<SideFileOp>, Lsn) {
        let (window, through) = {
            let g = self.inner.lock();
            let through = wal.tail_lsn();
            let window = g
                .pin
                .as_ref()
                .map(|(_, at)| (pos.max(Lsn(at.0 - 1)), g.last.min(through)));
            (window, through)
        };
        let ops = match window {
            Some((after, upto)) if after < upto => {
                wal.side_file_appends(index, after, upto).collect()
            }
            _ => Vec::new(),
        };
        self.max_backlog.observe(ops.len() as u64);
        (ops, through)
    }

    /// A drain pass that read through `pos` committed: the log may let
    /// go of the appends up to it.
    pub fn drained_through(&self, pos: Lsn) {
        if let Some((pin, at)) = &mut self.inner.lock().pin {
            *at = (*at).max(Lsn(pos.0 + 1));
            pin.advance(*at);
        }
    }

    /// Atomically close the side-file if the drain has read through
    /// the last append (`drained_through` ≥ its LSN), and let go of the
    /// log. On success transactions switch to direct index maintenance
    /// (§3.2.5: "after processing the last entry in the side-file, IB
    /// resets the Index_Build flag").
    #[must_use]
    pub fn try_close(&self, drained_through: Lsn) -> bool {
        let mut g = self.inner.lock();
        if g.last <= drained_through {
            g.closed = true;
            g.pin = None;
            true
        } else {
            false
        }
    }

    /// Is the side-file closed (build complete)?
    #[must_use]
    pub fn closed(&self) -> bool {
        self.inner.lock().closed
    }

    /// The IB applied one entry.
    pub fn applied(&self) {
        let _ = self
            .backlog
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                Some(n.saturating_sub(1))
            });
    }

    /// Live drain lag: entries appended but not yet applied by the IB,
    /// the ones a crash left included.
    #[must_use]
    pub fn backlog(&self) -> u64 {
        self.backlog.load(Ordering::Relaxed)
    }

    /// Crash: the pin, the close flag and the backlog are volatile; the
    /// close flag is re-derived from the catalog state at restart, the
    /// backlog from the log.
    pub fn crash(&self) {
        *self.inner.lock() = Inner::default();
        self.backlog.store(0, Ordering::Relaxed);
    }

    /// Restart of `index`'s build, still draining or yet to drain, whose
    /// drain has read through `pos` ([`Lsn::NULL`] before it starts):
    /// pin the log at its first record, take its tail as the last
    /// append, and count the appends past `pos` as the backlog. Every
    /// append the crash left is in between — a pin or its transaction
    /// held it, and no checkpoint runs before restart ends.
    pub fn reopen(&self, wal: &LogManager, index: IndexId, pos: Lsn) {
        let mut g = self.inner.lock();
        let first = wal.first_lsn();
        g.pin = wal.pin(first).map(|pin| (pin, first));
        g.last = wal.tail_lsn();
        let after = pos.max(Lsn(first.0.saturating_sub(1)));
        let undrained = wal.side_file_appends(index, after, g.last).count();
        self.backlog.store(undrained as u64, Ordering::Relaxed);
    }

    /// Close without a position check, and let go of the log: a build
    /// whose completion was already durable in the catalog, or one
    /// being cancelled.
    pub fn force_close(&self) {
        let mut g = self.inner.lock();
        g.closed = true;
        g.pin = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mohan_common::{Rid, TxId};
    use mohan_wal::{LogPayload, RecKind};
    use std::sync::Arc;

    const IX: IndexId = IndexId(7);

    fn op(k: i64, insert: bool) -> SideFileOp {
        SideFileOp {
            insert,
            entry: mohan_common::IndexEntry::from_i64(k, Rid::new(1, k as u16)),
        }
    }

    fn log_op(wal: &LogManager, index: IndexId, op: SideFileOp) -> Lsn {
        let payload = LogPayload::SideFileAppend { index, op };
        wal.append(TxId(1), Lsn::NULL, RecKind::RedoOnly, payload)
    }

    /// Append `op` to `sf` (index [`IX`]), logged in `wal`.
    fn append(sf: &SideFile, wal: &LogManager, op: SideFileOp) -> bool {
        sf.append_with(wal, || Ok(log_op(wal, IX, op))).unwrap()
    }

    #[test]
    fn pending_reads_the_index_appends_in_log_order() {
        let wal = LogManager::new();
        let sf = SideFile::new();
        assert!(append(&sf, &wal, op(1, true)));
        // Another index's append and a record of no side-file between.
        log_op(&wal, IndexId(8), op(5, true));
        wal.append(TxId(2), Lsn::NULL, RecKind::RedoOnly, LogPayload::TxBegin);
        assert!(append(&sf, &wal, op(2, false)));
        let (got, through) = sf.pending(&wal, IX, Lsn::NULL);
        assert_eq!(got, vec![op(1, true), op(2, false)]);
        assert_eq!(through, wal.tail_lsn());
        assert_eq!(sf.pending(&wal, IX, Lsn(1)).0, vec![op(2, false)]);
        assert!(sf.pending(&wal, IX, through).0.is_empty());
    }

    #[test]
    fn close_only_when_read_through_the_last_append() {
        let wal = LogManager::new();
        let sf = SideFile::new();
        assert!(sf.pending(&wal, IX, Lsn::NULL).0.is_empty(), "no pin");
        append(&sf, &wal, op(1, true));
        assert!(!sf.try_close(Lsn::NULL));
        let (_, through) = sf.pending(&wal, IX, Lsn::NULL);
        assert!(sf.try_close(through));
        assert!(sf.closed());
    }

    #[test]
    fn appends_after_close_are_refused_and_log_nothing() {
        let wal = LogManager::new();
        let sf = SideFile::new();
        assert!(sf.try_close(Lsn::NULL));
        let appended = sf
            .append_with(&wal, || panic!("a closed side-file logged"))
            .unwrap();
        assert!(!appended);
        assert_eq!(wal.tail_lsn(), Lsn::NULL);
        assert_eq!(sf.appended.get(), 0);
    }

    #[test]
    fn a_failed_log_call_appends_nothing() {
        let wal = LogManager::new();
        let sf = SideFile::new();
        let err = sf.append_with(&wal, || Err(mohan_common::Error::TxNotActive(TxId(3))));
        assert!(err.is_err());
        assert_eq!(sf.appended.get(), 0);
        assert!(sf.try_close(Lsn::NULL), "no append to wait for");
    }

    #[test]
    fn close_race_never_loses_an_entry() {
        // Hammer append vs try_close from two threads: either the
        // entry lands before the close (and the close fails) or the
        // appender is told the build is done.
        for _ in 0..200 {
            let wal = Arc::new(LogManager::new());
            let sf = Arc::new(SideFile::new());
            let read_through = wal.tail_lsn();
            let sf2 = Arc::clone(&sf);
            let closer = std::thread::spawn(move || sf2.try_close(read_through));
            let appended = append(&sf, &wal, op(1, true));
            let closed = closer.join().unwrap();
            assert_ne!(appended, closed, "appended {appended}, closed {closed}");
            if appended {
                assert_eq!(sf.pending(&wal, IX, read_through).0, vec![op(1, true)]);
            }
        }
    }

    #[test]
    fn the_pin_holds_the_undrained_appends() {
        let wal = LogManager::new();
        let sf = SideFile::new();
        wal.append(TxId(2), Lsn::NULL, RecKind::RedoOnly, LogPayload::TxBegin);
        append(&sf, &wal, op(1, true));
        let first = wal.tail_lsn();
        append(&sf, &wal, op(2, true));
        let second = wal.tail_lsn();
        wal.flush_all();
        assert_eq!(wal.truncate_below(Lsn(u64::MAX)), first);
        // A committed pass through the first append lets it go.
        sf.drained_through(first);
        assert_eq!(wal.truncate_below(Lsn(u64::MAX)), second);
        assert_eq!(sf.pending(&wal, IX, first).0, vec![op(2, true)]);
        // Closing lets go of the rest.
        assert!(sf.try_close(second));
        assert!(wal.truncate_below(Lsn(u64::MAX)) > second);
    }

    #[test]
    fn crash_drops_the_pin_and_reopen_pins_the_whole_log() {
        let wal = LogManager::new();
        let sf = SideFile::new();
        append(&sf, &wal, op(1, true));
        let appended = wal.tail_lsn();
        wal.flush_all();
        sf.crash();
        assert!(!sf.closed());
        assert!(sf.pending(&wal, IX, Lsn::NULL).0.is_empty(), "no pin");
        sf.reopen(&wal, IX, Lsn::NULL);
        assert_eq!(sf.backlog(), 1, "the crash left one append undrained");
        assert_eq!(wal.truncate_below(Lsn(u64::MAX)), Lsn(1));
        // The tail is the last append: nothing closes before the drain
        // has read through it.
        assert!(!sf.try_close(Lsn::NULL));
        assert_eq!(sf.pending(&wal, IX, Lsn::NULL).0, vec![op(1, true)]);
        assert!(sf.try_close(appended));
    }

    #[test]
    fn live_backlog_follows_the_applied_entries() {
        let wal = LogManager::new();
        let sf = SideFile::new();
        for i in 0..10 {
            append(&sf, &wal, op(i, true));
        }
        assert_eq!(sf.backlog(), 10);
        (0..4).for_each(|_| sf.applied());
        assert_eq!(sf.backlog(), 6);
        (0..7).for_each(|_| sf.applied());
        assert_eq!(sf.backlog(), 0, "never underflows");
        append(&sf, &wal, op(10, true));
        let drained = wal.tail_lsn();
        append(&sf, &wal, op(11, true));
        log_op(&wal, IndexId(8), op(12, true));
        append(&sf, &wal, op(13, true));
        wal.flush_all();
        sf.crash();
        assert_eq!(sf.backlog(), 0);
        // Restart counts the index's appends past the drain's position.
        sf.reopen(&wal, IX, drained);
        assert_eq!(sf.backlog(), 2);
        sf.reopen(&wal, IX, Lsn::NULL);
        assert_eq!(sf.backlog(), 13);
    }

    #[test]
    fn backlog_gauge_tracks_peak() {
        let wal = LogManager::new();
        let sf = SideFile::new();
        for i in 0..10 {
            append(&sf, &wal, op(i, true));
        }
        let (batch, through) = sf.pending(&wal, IX, Lsn::NULL);
        assert_eq!(batch.len(), 10);
        sf.drained_through(through);
        append(&sf, &wal, op(10, true));
        assert_eq!(sf.pending(&wal, IX, through).0.len(), 1);
        assert_eq!(sf.max_backlog.get(), 10);
    }
}
