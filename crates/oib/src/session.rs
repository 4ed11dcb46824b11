//! Per-connection statement API over the engine.
//!
//! A [`Session`] is the narrow waist between "someone issuing
//! statements" — a TCP connection in `mohan-server`, an example
//! program, a test — and the engine's transaction machinery. It owns at
//! most one open transaction and layers two behaviours the raw
//! [`Db`] methods deliberately do not have:
//!
//! * **auto-commit**: DML issued with no open transaction runs in its
//!   own begin→op→commit envelope, rolled back on failure, so a
//!   connection can do single-statement traffic without the
//!   begin/commit chatter;
//! * **cleanup on drop**: an open transaction is rolled back when the
//!   session goes away (a client disconnecting mid-transaction must
//!   release its locks, or it would wedge every later transaction that
//!   touches the same records).
//!
//! Explicit transaction control is strict: `commit`/`rollback` with
//! nothing open is [`Error::NoOpenTx`], `begin` twice is
//! [`Error::TxAlreadyOpen`] — the server maps both onto structured
//! wire errors rather than guessing intent.

use crate::build::{self, BuildOptions, IndexSpec};
use crate::engine::Db;
use crate::schema::{BuildAlgorithm, Record};
use mohan_common::{Error, IndexId, KeyValue, Result, Rid, TableId, TxId};
use std::sync::Arc;

/// One statement stream over the engine, holding at most one open
/// transaction.
pub struct Session {
    db: Arc<Db>,
    tx: Option<TxId>,
}

impl Session {
    /// Open a session on `db`.
    #[must_use]
    pub fn new(db: Arc<Db>) -> Session {
        Session { db, tx: None }
    }

    /// The engine this session speaks to.
    #[must_use]
    pub fn db(&self) -> &Arc<Db> {
        &self.db
    }

    /// The open transaction, if any.
    #[must_use]
    pub fn current_tx(&self) -> Option<TxId> {
        self.tx
    }

    /// Writes are refused while the engine is a replication follower.
    /// The server performs the same check at the wire boundary (where
    /// it can attach a leader hint); this one is defense in depth for
    /// in-process callers.
    fn check_writable(&self) -> Result<()> {
        if self.db.is_replica() {
            Err(Error::NotWritable)
        } else {
            Ok(())
        }
    }

    // ----- transaction control ----------------------------------------

    /// Open a transaction. Fails if one is already open.
    pub fn begin(&mut self) -> Result<TxId> {
        self.check_writable()?;
        if let Some(tx) = self.tx {
            return Err(Error::TxAlreadyOpen(tx));
        }
        let tx = self.db.begin();
        self.tx = Some(tx);
        Ok(tx)
    }

    /// Commit the open transaction. The session is usable for a new
    /// transaction afterwards even if the commit fails.
    pub fn commit(&mut self) -> Result<()> {
        let tx = self.tx.take().ok_or(Error::NoOpenTx)?;
        self.db.commit(tx)
    }

    /// Roll back the open transaction.
    pub fn rollback(&mut self) -> Result<()> {
        let tx = self.tx.take().ok_or(Error::NoOpenTx)?;
        self.db.rollback(tx)
    }

    /// Run `op` inside the open transaction, or — auto-commit — inside
    /// a fresh one that commits on success and rolls back on failure.
    ///
    /// The rollback error (if any) is deliberately dropped in favour of
    /// the operation's error: the caller wants to know why the
    /// statement failed, and rollback after a failed statement is
    /// best-effort cleanup. A rollback that itself hits an injected
    /// crash still surfaces, since the crash must reach the
    /// orchestrator.
    pub fn with_tx<T>(&mut self, op: impl FnOnce(&Db, TxId) -> Result<T>) -> Result<T> {
        self.check_writable()?;
        if let Some(tx) = self.tx {
            return op(&self.db, tx);
        }
        let tx = self.db.begin();
        match op(&self.db, tx) {
            Ok(v) => {
                self.db.commit(tx)?;
                Ok(v)
            }
            Err(e) => match self.db.rollback(tx) {
                Err(rb) if rb.is_crash() => Err(rb),
                _ => Err(e),
            },
        }
    }

    // ----- DML --------------------------------------------------------

    /// Insert a record (auto-commits if no transaction is open).
    pub fn insert(&mut self, table: TableId, rec: &Record) -> Result<Rid> {
        self.with_tx(|db, tx| db.insert_record(tx, table, rec))
    }

    /// Update the record at `rid`, returning its old contents.
    pub fn update(&mut self, table: TableId, rid: Rid, new: &Record) -> Result<Record> {
        self.with_tx(|db, tx| db.update_record(tx, table, rid, new))
    }

    /// Delete the record at `rid`, returning its old contents.
    pub fn delete(&mut self, table: TableId, rid: Rid) -> Result<Record> {
        self.with_tx(|db, tx| db.delete_record(tx, table, rid))
    }

    /// Read one record (no transaction required).
    pub fn read(&self, table: TableId, rid: Rid) -> Result<Record> {
        self.db.read_record(table, rid)
    }

    /// Exact-match probe of a readable index.
    pub fn lookup(&self, index: IndexId, key: &KeyValue) -> Result<Vec<Rid>> {
        self.db.index_lookup(index, key)
    }

    /// Key-range probe of a complete index: RIDs of live entries with
    /// `lo ≤ key ≤ hi`, in key order. The leaf prefetch strategy is
    /// fixed to physical-sequence (§2.3.1's clustering payoff) so
    /// statement-level callers need no B-tree knowledge.
    pub fn lookup_range(&self, index: IndexId, lo: &KeyValue, hi: &KeyValue) -> Result<Vec<Rid>> {
        let (entries, _stats) = self.db.index_range_lookup(
            index,
            lo,
            hi,
            mohan_btree::PrefetchStrategy::PhysicalSequence,
        )?;
        Ok(entries.into_iter().map(|e| e.rid).collect())
    }

    /// Snapshot every record in a table (the heap-scan access path for
    /// statements with no usable index).
    pub fn table_scan(&self, table: TableId) -> Result<Vec<(Rid, Record)>> {
        self.db.table_scan(table)
    }

    // ----- DDL --------------------------------------------------------

    /// Build one or more indexes in a single scan (§6.2).
    ///
    /// Refused while the session holds an open transaction: the build
    /// runs in its own index-builder transactions, and interleaving it
    /// with a user transaction on the same session would deadlock the
    /// session against itself on the table lock.
    pub fn create_indexes(
        &mut self,
        table: TableId,
        specs: &[IndexSpec],
        algorithm: BuildAlgorithm,
        options: &BuildOptions,
    ) -> Result<Vec<IndexId>> {
        self.check_writable()?;
        if let Some(tx) = self.tx {
            return Err(Error::TxAlreadyOpen(tx));
        }
        build::build_indexes(&self.db, table, specs, algorithm, options)
    }

    /// [`Session::create_indexes`] for a single spec, with the default
    /// [`BuildOptions`].
    pub fn create_index(
        &mut self,
        table: TableId,
        spec: IndexSpec,
        algorithm: BuildAlgorithm,
    ) -> Result<IndexId> {
        Ok(self.create_indexes(table, &[spec], algorithm, &BuildOptions::default())?[0])
    }

    // ----- lifecycle --------------------------------------------------

    /// Roll back any open transaction, surfacing the result. `Drop`
    /// does the same but has to swallow errors; callers that care
    /// (the server, on connection close) call this explicitly.
    pub fn close(&mut self) -> Result<()> {
        match self.tx.take() {
            Some(tx) => self.db.rollback(tx),
            None => Ok(()),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

/// The shared read surface (bench oracles and closed-loop drivers run
/// against [`mohan_common::ReadApi`], so the same driver code works
/// over an in-process session, a wire client, or a follower reader).
impl mohan_common::ReadApi for Session {
    type Err = Error;

    fn read(&mut self, table: TableId, rid: Rid) -> Result<Vec<i64>> {
        Session::read(self, table, rid).map(|r| r.0)
    }

    fn lookup(&mut self, index: IndexId, key: &KeyValue) -> Result<Vec<Rid>> {
        Session::lookup(self, index, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mohan_common::EngineConfig;

    fn db() -> Arc<Db> {
        let mut cfg = EngineConfig::small();
        cfg.lock_timeout_ms = 200;
        Db::new(cfg)
    }

    fn rec(k: i64, v: i64) -> Record {
        Record(vec![k, v])
    }

    #[test]
    fn autocommit_insert_is_visible_and_unlocked() {
        let db = db();
        db.create_table(TableId(1));
        let mut s = Session::new(db.clone());
        let rid = s.insert(TableId(1), &rec(1, 10)).unwrap();
        assert_eq!(s.read(TableId(1), rid).unwrap(), rec(1, 10));
        assert_eq!(db.active_txs(), 0, "auto-commit must not leak a tx");
        // Another session can immediately lock the same record.
        let mut s2 = Session::new(db.clone());
        s2.update(TableId(1), rid, &rec(1, 11)).unwrap();
    }

    #[test]
    fn explicit_tx_spans_statements_and_rolls_back() {
        let db = db();
        db.create_table(TableId(1));
        let mut s = Session::new(db.clone());
        s.begin().unwrap();
        let rid = s.insert(TableId(1), &rec(1, 10)).unwrap();
        s.update(TableId(1), rid, &rec(1, 20)).unwrap();
        s.rollback().unwrap();
        assert!(s.read(TableId(1), rid).is_err(), "insert must be undone");
        assert_eq!(db.active_txs(), 0);
    }

    #[test]
    fn strict_transaction_state_errors() {
        let db = db();
        let mut s = Session::new(db);
        assert_eq!(s.commit(), Err(Error::NoOpenTx));
        assert_eq!(s.rollback(), Err(Error::NoOpenTx));
        let tx = s.begin().unwrap();
        assert_eq!(s.begin(), Err(Error::TxAlreadyOpen(tx)));
        s.commit().unwrap();
        s.begin().unwrap(); // usable again
        s.rollback().unwrap();
    }

    #[test]
    fn failed_autocommit_statement_rolls_back() {
        let db = db();
        db.create_table(TableId(1));
        let mut s = Session::new(db.clone());
        let missing = Rid::new(500, 0);
        assert!(s.delete(TableId(1), missing).is_err());
        assert_eq!(db.active_txs(), 0, "failed auto-commit must roll back");
    }

    #[test]
    fn drop_rolls_back_open_tx() {
        let db = db();
        db.create_table(TableId(1));
        let rid = {
            let mut s = Session::new(db.clone());
            s.begin().unwrap();
            s.insert(TableId(1), &rec(7, 70)).unwrap()
        }; // s dropped here with the tx open
        assert_eq!(db.active_txs(), 0, "drop must roll back");
        assert!(db.read_record(TableId(1), rid).is_err());
    }

    #[test]
    fn replica_session_refuses_writes_until_promoted() {
        let db = Db::new(EngineConfig::small());
        db.set_replica(true);
        db.create_table(TableId(1));
        assert!(db.is_replica());
        let mut s = Session::new(db.clone());
        assert_eq!(s.begin(), Err(Error::NotWritable));
        assert_eq!(s.insert(TableId(1), &rec(1, 10)), Err(Error::NotWritable));
        let spec = IndexSpec {
            name: "ix".into(),
            key_cols: vec![0],
            unique: false,
        };
        assert_eq!(
            s.create_index(TableId(1), spec, BuildAlgorithm::Sf),
            Err(Error::NotWritable)
        );
        // Reads stay allowed (they just see an empty table here).
        assert!(s.read(TableId(1), Rid::new(1, 0)).is_err()); // NotFound, not NotWritable
                                                              // Promotion flips the dynamic role; writes work afterwards.
        db.promote_to_primary().unwrap();
        assert!(!db.is_replica());
        let rid = s.insert(TableId(1), &rec(1, 10)).unwrap();
        assert_eq!(s.read(TableId(1), rid).unwrap(), rec(1, 10));
    }

    #[test]
    fn create_index_refused_inside_tx_then_works() {
        let db = db();
        db.create_table(TableId(1));
        let mut s = Session::new(db.clone());
        for k in 0..50 {
            s.insert(TableId(1), &rec(k, k * 10)).unwrap();
        }
        let spec = IndexSpec {
            name: "ix".into(),
            key_cols: vec![0],
            unique: true,
        };
        let tx = s.begin().unwrap();
        assert_eq!(
            s.create_index(TableId(1), spec.clone(), BuildAlgorithm::Sf),
            Err(Error::TxAlreadyOpen(tx))
        );
        s.commit().unwrap();
        let id = s
            .create_index(TableId(1), spec, BuildAlgorithm::Sf)
            .unwrap();
        crate::verify::verify_index(&db, id).unwrap();
        let rids = s.lookup(id, &KeyValue::from_i64(7)).unwrap();
        assert_eq!(rids.len(), 1);
    }
}
