//! Analysis / redo / undo: the restart-recovery driver, also used for
//! normal transaction rollback.
//!
//! The driver is generic over a [`RecoveryTarget`] (implemented by the
//! engine crate) so the WAL layer stays free of heap/B-tree knowledge.
//! Redo *repeats history* — every redoable record is offered to the
//! target, which applies it idempotently (heap pages via page-LSN
//! comparison, index operations via logical absolute ops; see
//! `DESIGN.md` §2). Analysis registers each loser with the target, as
//! an open transaction like any other; [`undo`] then walks the losers'
//! `prev_lsn` chains backwards — the same pass a rollback makes for one
//! transaction — and the target writes compensation log records (CLRs)
//! whose `undo_next` pointer guarantees no update is undone twice even
//! if recovery itself crashes.

use crate::log::LogManager;
use crate::record::{LogPayload, LogRecord, RecKind};
use mohan_common::{Lsn, Result, TxId};
use std::collections::HashMap;

// The header tags analysis and the checkpoint search look for.
const TX_BEGIN: u8 = LogPayload::TxBegin.tag();
const TX_COMMIT: u8 = LogPayload::TxCommit.tag();
const TX_END: u8 = LogPayload::TxEnd.tag();
const CHECKPOINT: u8 = LogPayload::Checkpoint {
    redo_start: Lsn::NULL,
}
.tag();

/// What the engine must provide for redo and undo. The target keeps
/// the table of open transactions, and chains every record it logs for
/// one — CLRs included — to that transaction's last record.
pub trait RecoveryTarget {
    /// Re-apply the effect of `rec` idempotently.
    fn redo(&self, rec: &LogRecord) -> Result<()>;

    /// Analysis found `tx` in flight: register it as an open
    /// transaction whose records run from `first` (its `TxBegin`) to
    /// `last`, so its undo chains like a rollback's.
    fn adopt(&self, tx: TxId, first: Lsn, last: Lsn);

    /// Undo the effect of `rec` on behalf of its transaction's
    /// rollback: apply the inverse and log it as a CLR with
    /// `kind = Clr { undo_next: rec.prev }`, chained to the
    /// transaction's last record.
    fn undo(&self, rec: &LogRecord) -> Result<()>;

    /// The undo walk of `tx` reached its start: log its `TxEnd`, force
    /// the log through it, and end the transaction.
    fn rolled_back(&self, tx: TxId) -> Result<()>;
}

/// A transaction analysis found in flight at the crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Loser {
    /// Its `TxBegin`.
    pub first: Lsn,
    /// Its newest record.
    pub last: Lsn,
}

/// Outcome of the analysis pass.
#[derive(Debug, Default)]
pub struct AnalysisResult {
    /// In-flight ("loser") transactions at the crash.
    pub losers: HashMap<TxId, Loser>,
    /// Records scanned.
    pub scanned: u64,
    /// The highest transaction id any scanned record carries.
    pub max_tx: TxId,
}

/// Scan the log and find loser transactions. Analysis starts from the
/// first record the log holds, not the last checkpoint — a loser's
/// `TxBegin` may predate it, which is why truncation never drops an
/// active transaction's records — and reads only each record's fixed
/// header: begin, commit and end are told apart by the payload tag, so
/// no payload is decoded. A commit or end whose begin was truncated
/// names a transaction that was never a loser.
#[must_use]
pub fn analyze(log: &LogManager) -> AnalysisResult {
    let mut res = AnalysisResult::default();
    for rec in log.headers_from(Lsn(log.first_lsn().0 - 1)) {
        res.scanned += 1;
        res.max_tx = res.max_tx.max(rec.tx);
        match rec.tag {
            TX_BEGIN => {
                let loser = Loser {
                    first: rec.lsn,
                    last: rec.lsn,
                };
                res.losers.insert(rec.tx, loser);
            }
            TX_COMMIT | TX_END => {
                res.losers.remove(&rec.tx);
            }
            _ => {
                if let Some(loser) = res.losers.get_mut(&rec.tx) {
                    loser.last = rec.lsn;
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
/// the post-checkpoint suffix the caller is about to redo anyway. A
/// truncated log always holds the checkpoint its truncation followed.
#[must_use]
pub fn checkpoint_redo_start(log: &LogManager) -> Lsn {
    let mut cur = log.tail_lsn();
    while cur >= log.first_lsn() {
        if log.header(cur).is_some_and(|h| h.tag == CHECKPOINT) {
            if let Some(LogPayload::Checkpoint { redo_start }) = log.get(cur).map(|r| r.payload) {
                return redo_start;
            }
        }
        cur = Lsn(cur.0 - 1);
    }
    Lsn::NULL
}

/// The one undo pass, for a rollback (one transaction) and for restart
/// (every loser): walk the chains of `txs`, each from its newest
/// record, merged in globally descending LSN order (true ARIES order —
/// interleaved transactions' inverses apply newest-first). An undoable
/// record is undone by the target, which logs its CLR; a CLR sends the
/// walk to its `undo_next`, past what is already undone. A transaction
/// whose walk reaches its start is handed to
/// [`RecoveryTarget::rolled_back`].
pub fn undo<T: RecoveryTarget>(
    log: &LogManager,
    target: &T,
    txs: impl IntoIterator<Item = (TxId, Lsn)>,
) -> Result<()> {
    let mut cursors: HashMap<TxId, Lsn> = txs.into_iter().collect();
    while let Some((&tx, &cur)) = cursors.iter().max_by_key(|&(_, &cur)| cur) {
        let Some(rec) = cur.is_valid().then(|| log.get(cur)).flatten() else {
            cursors.remove(&tx);
            target.rolled_back(tx)?;
            continue;
        };
        debug_assert_eq!(rec.tx, tx, "undo chain crossed transactions");
        let next = match rec.kind {
            RecKind::Clr { undo_next } => undo_next,
            _ if rec.is_undoable() => {
                target.undo(&rec)?;
                rec.prev
            }
            _ => rec.prev,
        };
        cursors.insert(tx, next);
    }
    Ok(())
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
    /// Where redo began: it offered the records after this LSN.
    pub redo_start: Lsn,
    /// The highest transaction id in the log (analysis): new
    /// transactions must be numbered above it.
    pub max_tx: TxId,
}

/// Full restart recovery: analysis, which registers each loser with
/// the target, redo (repeat history) of the records after
/// `redo_start`, then [`undo`] over every loser at once.
///
/// After a crash, `redo_start` is [`checkpoint_redo_start`]: the
/// checkpoint forced every page, so earlier records can only re-apply
/// as no-ops — skipping them is what keeps restart cost proportional to
/// work since the checkpoint. A state that has already redone the
/// whole log (a replication follower being promoted) passes the log's
/// tail, and nothing is redone.
pub fn recover<T: RecoveryTarget>(
    log: &LogManager,
    target: &T,
    redo_start: Lsn,
) -> Result<RecoveryStats> {
    let analysis = analyze(log);
    for (&tx, loser) in &analysis.losers {
        target.adopt(tx, loser.first, loser.last);
    }
    let mut stats = RecoveryStats {
        analyzed: analysis.scanned,
        redo_start,
        max_tx: analysis.max_tx,
        losers: analysis.losers.len() as u64,
        ..RecoveryStats::default()
    };

    // Each record is decoded as the walk reaches it and dropped after.
    for rec in log.iter_from(redo_start) {
        if rec.is_redoable() {
            target.redo(&rec)?;
            stats.redone += 1;
        }
    }

    let losers = analysis.losers.iter().map(|(&tx, loser)| (tx, loser.last));
    undo(log, target, losers)?;
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
    /// engine semantics, which live in the engine crate's tests. Like
    /// the engine, it chains its CLRs and end records through a table
    /// of open transactions' last LSNs.
    #[derive(Default)]
    struct ToyTarget {
        state: Mutex<HashMap<u8, i64>>,
        txs: Mutex<HashMap<TxId, Lsn>>,
        log: std::sync::Arc<LogManager>,
    }

    impl ToyTarget {
        /// Append a record for `tx`, chained to its last one.
        fn log(&self, tx: TxId, kind: RecKind, payload: LogPayload) -> Lsn {
            let mut txs = self.txs.lock();
            let last = txs.get_mut(&tx).expect("an open transaction");
            *last = self.log.append(tx, *last, kind, payload);
            *last
        }
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
        fn adopt(&self, tx: TxId, _first: Lsn, last: Lsn) {
            self.txs.lock().insert(tx, last);
        }
        fn undo(&self, rec: &LogRecord) -> Result<()> {
            if let LogPayload::HeapInsert { data, .. } = &rec.payload {
                let (name, delta) = parse(data);
                *self.state.lock().entry(name).or_insert(0) -= delta;
                let undo_next = rec.prev;
                self.log(
                    rec.tx,
                    RecKind::Clr { undo_next },
                    delta_payload(name, -delta),
                );
            }
            Ok(())
        }
        fn rolled_back(&self, tx: TxId) -> Result<()> {
            let end = self.log(tx, RecKind::RedoOnly, LogPayload::TxEnd);
            self.log.flush_to(end);
            self.txs.lock().remove(&tx);
            Ok(())
        }
    }

    fn setup() -> (std::sync::Arc<LogManager>, ToyTarget) {
        let log = std::sync::Arc::new(LogManager::new());
        let target = ToyTarget {
            log: std::sync::Arc::clone(&log),
            ..ToyTarget::default()
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
        assert_eq!(
            a.losers[&TxId(1)],
            Loser {
                first: b1,
                last: Lsn(2)
            }
        );
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

        // Registered as the engine's `Db::begin` would have.
        target.adopt(TxId(1), b, l2);
        undo(&log, &target, [(TxId(1), l2)]).unwrap();
        assert_eq!(target.state.lock()[&b'x'], 0);
        let end = log.get(log.tail_lsn()).unwrap();
        assert_eq!(end.payload, LogPayload::TxEnd);
        let tail = log.get(end.prev).unwrap();
        assert!(matches!(tail.kind, RecKind::Clr { .. }));
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
        recover(&log, &target, checkpoint_redo_start(&log)).unwrap();
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

        let stats = recover(&log, &target, checkpoint_redo_start(&log)).unwrap();
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
        let stats = recover(&log, &target, checkpoint_redo_start(&log)).unwrap();
        assert_eq!(target.state.lock()[&b'a'], 7);
        assert_eq!(stats.redo_start, redo_start);
        // Redo covered only the checkpoint + tx 2's records.
        assert_eq!(stats.redone, 4);
        // Analysis still walked the full history.
        assert_eq!(stats.analyzed, 7);
        assert_eq!(checkpoint_redo_start(&log), redo_start);
    }

    #[test]
    fn redo_from_the_tail_offers_nothing_and_still_undoes_losers() {
        let (log, target) = setup();
        // Committed tx 3 (+4) and loser tx 7 (+9), both already applied
        // to the target, as on a follower that redid every record.
        let b3 = log.append(TxId(3), Lsn::NULL, RecKind::RedoOnly, LogPayload::TxBegin);
        let l3 = log.append(TxId(3), b3, RecKind::UndoRedo, delta_payload(b'p', 4));
        log.append(TxId(3), l3, RecKind::RedoOnly, LogPayload::TxCommit);
        let b7 = log.append(TxId(7), Lsn::NULL, RecKind::RedoOnly, LogPayload::TxBegin);
        let l7 = log.append(TxId(7), b7, RecKind::UndoRedo, delta_payload(b'p', 9));
        for lsn in [l3, l7] {
            target.redo(&log.get(lsn).unwrap()).unwrap();
        }
        log.flush_all();

        // ToyTarget redo is not idempotent: a redone record would show.
        let stats = recover(&log, &target, log.tail_lsn()).unwrap();
        assert_eq!(stats.redone, 0);
        assert_eq!(stats.losers, 1);
        assert_eq!(stats.max_tx, TxId(7));
        assert_eq!(target.state.lock()[&b'p'], 4);
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
        recover(&log, &target, checkpoint_redo_start(&log)).unwrap();
        assert_eq!(target.state.lock()[&b'w'], 0);
        let _ = l2;

        // Second recovery on ANOTHER fresh state (as after a crash that
        // lost all volatile data): redo now includes the CLRs, and the
        // TxEnd means no further undo. Net effect must still be zero.
        let target2 = ToyTarget::default();
        // Reuse the same log but a fresh target whose CLRs would go to
        // a scratch log (none are written since no losers remain).
        recover(&log, &target2, checkpoint_redo_start(&log)).unwrap();
        assert_eq!(target2.state.lock()[&b'w'], 0);
    }
}
