//! Analysis / redo / undo: the restart-recovery driver, also used for
//! normal transaction rollback.
//!
//! The driver is generic over a [`RecoveryTarget`] (implemented by the
//! engine crate) so the WAL layer stays free of heap/B-tree knowledge.
//! Redo *repeats history* — every redoable record is offered to the
//! target, which applies it idempotently (heap pages via page-LSN
//! comparison, index operations via logical absolute ops; see
//! `DESIGN.md` §2). Undo walks each loser transaction's `prev_lsn`
//! chain backwards, writing compensation log records (CLRs) whose
//! `undo_next` pointer guarantees no update is undone twice even if
//! recovery itself crashes.

use crate::codec::{P_CHECKPOINT, P_TX_BEGIN, P_TX_COMMIT, P_TX_END};
use crate::log::LogManager;
use crate::record::{LogPayload, LogRecord, RecKind};
use mohan_common::{Lsn, Result, TxId};
use std::collections::HashMap;

/// What the engine must provide for redo and undo.
pub trait RecoveryTarget {
    /// Re-apply the effect of `rec` idempotently.
    fn redo(&self, rec: &LogRecord) -> Result<()>;

    /// Undo the effect of `rec` on behalf of its transaction's
    /// rollback: apply the inverse, append a CLR with
    /// `kind = Clr { undo_next }` and `prev = clr_prev`, and return the
    /// CLR's LSN (the transaction's new last LSN).
    fn undo(&self, rec: &LogRecord, clr_prev: Lsn, undo_next: Lsn) -> Result<Lsn>;
}

/// Outcome of the analysis pass.
#[derive(Debug, Default)]
pub struct AnalysisResult {
    /// In-flight ("loser") transactions at the crash, with the LSN of
    /// their newest log record.
    pub losers: HashMap<TxId, Lsn>,
    /// Records scanned.
    pub scanned: u64,
}

/// Scan the whole log and find loser transactions. Analysis always
/// starts from the log head — a loser's `TxBegin` may predate the last
/// checkpoint — and reads only each record's fixed header: begin,
/// commit and end are told apart by the payload tag, so no payload is
/// decoded.
#[must_use]
pub fn analyze(log: &LogManager) -> AnalysisResult {
    let mut res = AnalysisResult::default();
    for rec in log.headers_from(Lsn::NULL) {
        res.scanned += 1;
        match rec.tag {
            P_TX_BEGIN => {
                res.losers.insert(rec.tx, rec.lsn);
            }
            P_TX_COMMIT | P_TX_END => {
                res.losers.remove(&rec.tx);
            }
            _ => {
                if let Some(last) = res.losers.get_mut(&rec.tx) {
                    *last = rec.lsn;
                }
            }
        }
    }
    res
}

/// Redo start point recorded by the newest [`LogPayload::Checkpoint`]
/// in the log ([`Lsn::NULL`] — the log head — when none exists): redo
/// may begin with the record *after* the returned LSN, because the
/// checkpoint forced every page up to it and its `redo_start` was
/// already lowered to cover any open side-file's logged history.
/// Found by walking headers backwards from the tail — only the record
/// whose tag says checkpoint is decoded — so the cost is bounded by
/// the post-checkpoint suffix the caller is about to redo anyway.
#[must_use]
pub fn checkpoint_redo_start(log: &LogManager) -> Lsn {
    let mut cur = log.tail_lsn();
    while cur.is_valid() {
        if log.header(cur).is_some_and(|h| h.tag == P_CHECKPOINT) {
            if let Some(LogPayload::Checkpoint { redo_start }) = log.get(cur).map(|r| r.payload) {
                return redo_start;
            }
        }
        cur = Lsn(cur.0 - 1);
    }
    Lsn::NULL
}

/// Undo one transaction's chain from `last` down to (but not past)
/// `upto`; `upto = Lsn::NULL` means a complete rollback. Returns the
/// transaction's new last LSN (tail CLR, or `last` if nothing was
/// undoable).
pub fn rollback_tx<T: RecoveryTarget>(
    log: &LogManager,
    target: &T,
    tx: TxId,
    last: Lsn,
    upto: Lsn,
) -> Result<Lsn> {
    let mut cur = last;
    let mut new_last = last;
    while cur.is_valid() && cur > upto {
        let Some(rec) = log.get(cur) else {
            break;
        };
        debug_assert_eq!(rec.tx, tx, "undo chain crossed transactions");
        match rec.kind {
            RecKind::Clr { undo_next } => {
                cur = undo_next;
            }
            _ if rec.is_undoable() => {
                new_last = target.undo(&rec, new_last, rec.prev)?;
                cur = rec.prev;
            }
            _ => {
                cur = rec.prev;
            }
        }
    }
    Ok(new_last)
}

/// Statistics from a completed restart recovery.
#[derive(Debug, Default)]
pub struct RecoveryStats {
    /// Records seen by the analysis pass.
    pub analyzed: u64,
    /// Records offered to redo.
    pub redone: u64,
    /// Loser transactions rolled back.
    pub losers: u64,
    /// Where redo began (the last checkpoint's `redo_start`, or
    /// [`Lsn::NULL`] when the log had no checkpoint).
    pub redo_start: Lsn,
}

/// Full restart recovery: analysis, redo (repeat history), then a
/// single merged undo pass over all losers in globally descending LSN
/// order (true ARIES order — interleaved losers' inverses apply
/// newest-first), ending each loser with `TxEnd`.
pub fn recover<T: RecoveryTarget>(log: &LogManager, target: &T) -> Result<RecoveryStats> {
    let analysis = analyze(log);
    let redo_start = checkpoint_redo_start(log);
    let mut stats = RecoveryStats {
        analyzed: analysis.scanned,
        redo_start,
        ..RecoveryStats::default()
    };

    // Redo repeats history from the last checkpoint's redo window, not
    // the log head: the checkpoint forced every page, so earlier
    // records can only re-apply as no-ops — skipping them is what
    // keeps restart cost proportional to work since the checkpoint.
    // Each record is decoded as the walk reaches it and dropped after.
    for rec in log.iter_from(redo_start) {
        if rec.is_redoable() {
            target.redo(&rec)?;
            stats.redone += 1;
        }
    }

    // Per-loser cursors: (next record to consider, tx's current last
    // LSN for CLR chaining).
    let mut cursors: HashMap<TxId, (Lsn, Lsn)> = analysis
        .losers
        .iter()
        .map(|(&tx, &last)| (tx, (last, last)))
        .collect();
    stats.losers = cursors.len() as u64;
    while let Some((&tx, &(cur, _))) = cursors.iter().max_by_key(|&(_, &(cur, _))| cur) {
        if !cur.is_valid() {
            let (_, last) = cursors.remove(&tx).expect("cursor exists");
            log.append(tx, last, RecKind::RedoOnly, LogPayload::TxEnd);
            continue;
        }
        let Some(rec) = log.get(cur) else {
            cursors.get_mut(&tx).expect("cursor").0 = Lsn::NULL;
            continue;
        };
        let slot = cursors.get_mut(&tx).expect("cursor");
        match rec.kind {
            RecKind::Clr { undo_next } => slot.0 = undo_next,
            _ if rec.is_undoable() => {
                let clr_prev = slot.1;
                // Release the borrow before calling into the target.
                let undo_next = rec.prev;
                let new_last = target.undo(&rec, clr_prev, undo_next)?;
                let slot = cursors.get_mut(&tx).expect("cursor");
                slot.0 = rec.prev;
                slot.1 = new_last;
            }
            _ => slot.0 = rec.prev,
        }
    }
    log.flush_all();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    /// A toy target: state is a map name -> i64; payload `Checkpoint`
    /// is abused as noise; `HeapInsert`'s data holds (name, delta).
    /// This exercises the *driver* (chain walking, CLR jumps), not the
    /// engine semantics, which live in the engine crate's tests.
    #[derive(Default)]
    struct ToyTarget {
        state: Mutex<HashMap<u8, i64>>,
        log: std::sync::Arc<LogManager>,
    }

    fn delta_payload(name: u8, delta: i64) -> LogPayload {
        LogPayload::HeapInsert {
            table: mohan_common::TableId(0),
            rid: mohan_common::Rid::new(0, 0),
            data: {
                let mut v = vec![name];
                v.extend_from_slice(&delta.to_be_bytes());
                v
            },
            visible_indexes: 0,
        }
    }

    fn parse(data: &[u8]) -> (u8, i64) {
        let mut b = [0u8; 8];
        b.copy_from_slice(&data[1..9]);
        (data[0], i64::from_be_bytes(b))
    }

    impl RecoveryTarget for ToyTarget {
        fn redo(&self, rec: &LogRecord) -> Result<()> {
            if let LogPayload::HeapInsert { data, .. } = &rec.payload {
                let (name, delta) = parse(data);
                *self.state.lock().entry(name).or_insert(0) += delta;
            }
            Ok(())
        }
        fn undo(&self, rec: &LogRecord, clr_prev: Lsn, undo_next: Lsn) -> Result<Lsn> {
            if let LogPayload::HeapInsert { data, .. } = &rec.payload {
                let (name, delta) = parse(data);
                *self.state.lock().entry(name).or_insert(0) -= delta;
                let clr = self.log.append(
                    rec.tx,
                    clr_prev,
                    RecKind::Clr { undo_next },
                    delta_payload(name, -delta),
                );
                return Ok(clr);
            }
            Ok(clr_prev)
        }
    }

    fn setup() -> (std::sync::Arc<LogManager>, ToyTarget) {
        let log = std::sync::Arc::new(LogManager::new());
        let target = ToyTarget {
            state: Mutex::new(HashMap::new()),
            log: std::sync::Arc::clone(&log),
        };
        (log, target)
    }

    #[test]
    fn analysis_finds_losers() {
        let (log, _) = setup();
        let b1 = log.append(TxId(1), Lsn::NULL, RecKind::RedoOnly, LogPayload::TxBegin);
        let _u1 = log.append(TxId(1), b1, RecKind::UndoRedo, delta_payload(b'a', 1));
        let b2 = log.append(TxId(2), Lsn::NULL, RecKind::RedoOnly, LogPayload::TxBegin);
        log.append(TxId(2), b2, RecKind::RedoOnly, LogPayload::TxCommit);
        let a = analyze(&log);
        assert_eq!(a.losers.len(), 1);
        assert_eq!(a.losers[&TxId(1)], Lsn(2));
    }

    #[test]
    fn rollback_applies_inverses_and_writes_clrs() {
        let (log, target) = setup();
        let b = log.append(TxId(1), Lsn::NULL, RecKind::RedoOnly, LogPayload::TxBegin);
        let l1 = log.append(TxId(1), b, RecKind::UndoRedo, delta_payload(b'x', 5));
        let l2 = log.append(TxId(1), l1, RecKind::UndoRedo, delta_payload(b'x', 7));
        // Forward effects:
        target.redo(&log.get(l1).unwrap()).unwrap();
        target.redo(&log.get(l2).unwrap()).unwrap();
        assert_eq!(target.state.lock()[&b'x'], 12);

        let new_last = rollback_tx(&log, &target, TxId(1), l2, Lsn::NULL).unwrap();
        assert_eq!(target.state.lock()[&b'x'], 0);
        let tail = log.get(new_last).unwrap();
        assert!(matches!(tail.kind, RecKind::Clr { .. }));
    }

    #[test]
    fn partial_rollback_stops_at_savepoint() {
        let (log, target) = setup();
        let b = log.append(TxId(1), Lsn::NULL, RecKind::RedoOnly, LogPayload::TxBegin);
        let l1 = log.append(TxId(1), b, RecKind::UndoRedo, delta_payload(b'x', 5));
        let save = l1;
        let l2 = log.append(TxId(1), l1, RecKind::UndoRedo, delta_payload(b'x', 7));
        target.redo(&log.get(l1).unwrap()).unwrap();
        target.redo(&log.get(l2).unwrap()).unwrap();

        rollback_tx(&log, &target, TxId(1), l2, save).unwrap();
        // Only the post-savepoint delta (7) was undone.
        assert_eq!(target.state.lock()[&b'x'], 5);
    }

    #[test]
    fn undo_only_records_are_undone_but_not_redone() {
        let (log, target) = setup();
        let b = log.append(TxId(1), Lsn::NULL, RecKind::RedoOnly, LogPayload::TxBegin);
        let l1 = log.append(TxId(1), b, RecKind::UndoOnly, delta_payload(b'y', 3));
        log.flush_all();
        // Crash without commit. Redo must skip the undo-only record,
        // undo must apply its inverse.
        let _ = l1;
        recover(&log, &target).unwrap();
        assert_eq!(target.state.lock()[&b'y'], -3);
    }

    #[test]
    fn recover_repeats_history_then_rolls_back_losers() {
        let (log, target) = setup();
        // Committed tx 1: +10.
        let b1 = log.append(TxId(1), Lsn::NULL, RecKind::RedoOnly, LogPayload::TxBegin);
        let l1 = log.append(TxId(1), b1, RecKind::UndoRedo, delta_payload(b'z', 10));
        log.append(TxId(1), l1, RecKind::RedoOnly, LogPayload::TxCommit);
        // Loser tx 2: +100.
        let b2 = log.append(TxId(2), Lsn::NULL, RecKind::RedoOnly, LogPayload::TxBegin);
        log.append(TxId(2), b2, RecKind::UndoRedo, delta_payload(b'z', 100));
        log.flush_all();

        let stats = recover(&log, &target).unwrap();
        assert_eq!(target.state.lock()[&b'z'], 10);
        assert_eq!(stats.losers, 1);
        // The loser's chain ends with TxEnd so a second recovery
        // ignores it.
        let a = analyze(&log);
        assert!(a.losers.is_empty());
    }

    #[test]
    fn redo_starts_after_the_last_checkpoint() {
        let (log, target) = setup();
        // Committed tx 1: +5, fully flushed and (by contract of the
        // checkpoint record below) forced to pages.
        let b1 = log.append(TxId(1), Lsn::NULL, RecKind::RedoOnly, LogPayload::TxBegin);
        let l1 = log.append(TxId(1), b1, RecKind::UndoRedo, delta_payload(b'a', 5));
        log.append(TxId(1), l1, RecKind::RedoOnly, LogPayload::TxCommit);
        log.flush_all();
        let redo_start = log.flushed_lsn();
        log.append(
            TxId(0),
            Lsn::NULL,
            RecKind::RedoOnly,
            LogPayload::Checkpoint { redo_start },
        );
        // Committed tx 2 after the checkpoint: +7.
        let b2 = log.append(TxId(2), Lsn::NULL, RecKind::RedoOnly, LogPayload::TxBegin);
        let l2 = log.append(TxId(2), b2, RecKind::UndoRedo, delta_payload(b'a', 7));
        log.append(TxId(2), l2, RecKind::RedoOnly, LogPayload::TxCommit);
        log.flush_all();

        // ToyTarget redo is deliberately not idempotent (it re-adds
        // deltas), so redoing the pre-checkpoint +5 would be visible.
        let stats = recover(&log, &target).unwrap();
        assert_eq!(target.state.lock()[&b'a'], 7);
        assert_eq!(stats.redo_start, redo_start);
        // Redo covered only the checkpoint + tx 2's records.
        assert_eq!(stats.redone, 4);
        // Analysis still walked the full history.
        assert_eq!(stats.analyzed, 7);
        assert_eq!(checkpoint_redo_start(&log), redo_start);
    }

    #[test]
    fn recovery_is_idempotent_after_mid_undo_crash() {
        let (log, target) = setup();
        let b = log.append(TxId(1), Lsn::NULL, RecKind::RedoOnly, LogPayload::TxBegin);
        let l1 = log.append(TxId(1), b, RecKind::UndoRedo, delta_payload(b'w', 1));
        let l2 = log.append(TxId(1), l1, RecKind::UndoRedo, delta_payload(b'w', 2));
        log.flush_all();

        // First recovery on a fresh state replays +1 +2 then undoes
        // both via CLRs.
        recover(&log, &target).unwrap();
        assert_eq!(target.state.lock()[&b'w'], 0);
        let _ = l2;

        // Second recovery on ANOTHER fresh state (as after a crash that
        // lost all volatile data): redo now includes the CLRs, and the
        // TxEnd means no further undo. Net effect must still be zero.
        let target2 = ToyTarget {
            state: Mutex::new(HashMap::new()),
            log: std::sync::Arc::new(LogManager::new()),
        };
        // Reuse the same log but a fresh target whose CLRs would go to
        // a scratch log (none are written since no losers remain).
        recover(&log, &target2).unwrap();
        assert_eq!(target2.state.lock()[&b'w'], 0);
    }
}
