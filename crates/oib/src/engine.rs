//! The transactional engine: tables, indexes, transactions, engine
//! checkpoints, crash simulation and ARIES restart.
//!
//! Rollback implements Figure 2: when a data-page operation is undone,
//! the count of visible indexes recorded in its log record is compared
//! against the indexes visible *now*, and index changes are
//! compensated through the right mechanism — a side-file entry for an
//! index still under SF construction, a direct root-to-leaf logical
//! undo for an index that became visible (or whose side-file era
//! ended) since the forward operation, and nothing for indexes whose
//! maintenance the transaction logged itself.

use crate::runtime::{IndexRuntime, IndexState};
use crate::schema::{BuildAlgorithm, Record};
use mohan_common::failpoint::{FailpointSet, Failpoints};
use mohan_common::stats::MaxGauge;
use mohan_common::{EngineConfig, Error, IndexEntry, IndexId, Lsn, Result, Rid, TableId, TxId};
use mohan_heap::HeapTable;
use mohan_lock::{LockManager, LockMode, LockName};
use mohan_obs::Registry;
use mohan_storage::blob::BlobStore;
use mohan_wal::recovery::RecoveryStats;
use mohan_wal::{LogManager, LogPayload, LogRecord, RecKind, RecoveryTarget, SideFileOp};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How a transaction's key change reaches an index (Figure 1 / 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mechanism {
    /// Insert/delete the key in the tree directly, with logging.
    Direct,
    /// Append `<operation, key>` to the index's side-file.
    SideFile,
}

/// The engine.
pub struct Db {
    /// Configuration.
    pub cfg: EngineConfig,
    /// Write-ahead log.
    pub wal: LogManager,
    /// Lock manager.
    pub locks: LockManager,
    /// Stable metadata area (checkpoints, catalog).
    pub blobs: BlobStore,
    /// Crash-injection points.
    pub failpoints: Failpoints,
    /// Metrics registry + trace ring for this engine instance. WAL,
    /// cache, latch and build metrics register here under the dotted
    /// namespace DESIGN.md documents; the server layer adds its own.
    pub obs: Arc<Registry>,
    /// High-water worker count across every build this engine ran
    /// (the `build.sort_workers` gauge).
    pub build_sort_workers: MaxGauge,
    tables: RwLock<HashMap<TableId, Arc<HeapTable>>>,
    indexes: RwLock<Vec<Arc<IndexRuntime>>>,
    txs: Mutex<HashMap<TxId, Lsn>>,
    /// Slots reserved by each transaction's deletes; released (made
    /// reusable) at commit, restored in place by rollback.
    tx_deletes: Mutex<HashMap<TxId, Vec<(TableId, Rid)>>>,
    next_tx: AtomicU64,
    next_index: AtomicU32,
    /// Dynamic role. Seeded from `cfg.replica`; promotion flips it to
    /// false at runtime, which re-enables writes and stops redo from
    /// applying shipped `CatalogUpdate` snapshots.
    replica: AtomicBool,
    /// Replication lag in LSNs, published by the follower's apply loop
    /// and read by the server's staleness gate (`max_lag_lsn`). Always
    /// 0 on a primary.
    repl_lag: AtomicU64,
}

impl Db {
    /// Create an empty engine.
    #[must_use]
    pub fn new(cfg: EngineConfig) -> Arc<Db> {
        let lock_timeout = Duration::from_millis(cfg.lock_timeout_ms);
        let replica = AtomicBool::new(cfg.replica);
        let db = Arc::new(Db {
            cfg,
            wal: LogManager::new(),
            locks: LockManager::new(lock_timeout),
            blobs: BlobStore::new(),
            failpoints: FailpointSet::new(),
            obs: Registry::new(),
            build_sort_workers: MaxGauge::new(),
            tables: RwLock::new(HashMap::new()),
            indexes: RwLock::new(Vec::new()),
            txs: Mutex::new(HashMap::new()),
            tx_deletes: Mutex::new(HashMap::new()),
            next_tx: AtomicU64::new(1),
            next_index: AtomicU32::new(1),
            replica,
            repl_lag: AtomicU64::new(0),
        });
        db.register_observability();
        db
    }

    /// Publish the engine's pre-existing stats counters as gauges and
    /// adopt subsystem-owned histograms under the public namespace.
    /// Gauges capture a `Weak<Db>` so the registry (held by long-lived
    /// snapshot consumers) never keeps the engine alive.
    fn register_observability(self: &Arc<Db>) {
        self.wal.set_trace_sink(self.obs.trace_handle());
        self.locks.set_trace_sink(self.obs.trace_handle());
        self.obs
            .adopt_histogram("wal.flush_us", Arc::clone(&self.wal.stats.flush_us));
        self.obs.adopt_histogram(
            "wal.coalesce_depth",
            Arc::clone(&self.wal.stats.coalesce_depth),
        );
        let gauge = |name: &str, f: fn(&Db) -> u64| {
            let w = Arc::downgrade(self);
            self.obs
                .gauge_fn(name, move || w.upgrade().map_or(0, |db| f(&db)));
        };
        // Exported at zero, so a dashboard can tell "never" from "not
        // reported".
        let _ = self.obs.counter("tx.rollback_failed");
        gauge("wal.records", |db| db.wal.stats.records.get());
        gauge("wal.bytes", |db| db.wal.stats.bytes.get());
        gauge("wal.flushes", |db| db.wal.stats.flushes.get());
        gauge("wal.group_flush_coalesced", |db| {
            db.wal.stats.group_flush_coalesced.get()
        });
        gauge("wal.ib_records", |db| db.wal.stats.ib_records.get());
        gauge("wal.resident_bytes", |db| db.wal.resident_bytes());
        gauge("wal.resident_records", |db| db.wal.resident_records());
        gauge("cache.hit", |db| db.fold_caches(|s| s.hits.get()));
        gauge("cache.miss", |db| db.fold_caches(|s| s.misses.get()));
        gauge("cache.force", |db| db.fold_caches(|s| s.forces.get()));
        gauge("build.drain_lag", |db| {
            db.indexes
                .read()
                .iter()
                .filter(|i| i.state() == IndexState::SfBuilding)
                .map(|i| i.side_file.backlog())
                .sum()
        });
        gauge("build.side_file_appended", |db| {
            db.indexes
                .read()
                .iter()
                .map(|i| i.side_file.appended.get())
                .sum()
        });
        gauge("build.drain_passes", |db| {
            db.indexes
                .read()
                .iter()
                .map(|i| i.side_file.drain_passes.get())
                .sum()
        });
        gauge("build.sort_workers", |db| db.build_sort_workers.get());
        gauge("build.pace_points", |_| mohan_common::pace::points());
        gauge("build.run_bytes", |db| {
            db.indexes
                .read()
                .iter()
                .filter_map(|i| i.sort_store.lock().as_ref().map(|rs| rs.raw_bytes.get()))
                .sum()
        });
        gauge("build.run_bytes_compressed", |db| {
            db.indexes
                .read()
                .iter()
                .filter_map(|i| i.sort_store.lock().as_ref().map(|rs| rs.stored_bytes.get()))
                .sum()
        });
        self.obs
            .adopt_histogram("lock.wait_us", Arc::clone(&self.locks.stats.wait_us));
        gauge("lock.calls", |db| db.locks.stats.calls.get());
        gauge("lock.waits", |db| db.locks.stats.waits.get());
        gauge("lock.timeouts", |db| db.locks.stats.timeouts.get());
        gauge("lock.entries", |db| db.locks.entries());
        gauge("lock.held_names", |db| db.locks.held_names());
        gauge("engine.active_txs", |db| db.active_txs() as u64);
        gauge("latch.wait_events", |db| {
            let mut n = 0;
            for t in db.tables.read().values() {
                n += t.cache.latch_stats().wait_events.get();
            }
            for i in db.indexes.read().iter() {
                n += i.tree.cache.latch_stats().wait_events.get();
            }
            n
        });
    }

    /// Sum `f` over every page cache in the engine (all heap tables
    /// plus all index trees).
    fn fold_caches(&self, f: fn(&mohan_storage::cache::CacheStats) -> u64) -> u64 {
        let mut n = 0;
        for t in self.tables.read().values() {
            n += f(&t.cache.stats);
        }
        for i in self.indexes.read().iter() {
            n += f(&i.tree.cache.stats);
        }
        n
    }

    // ----- tables and indexes ---------------------------------------

    /// Create a table.
    pub fn create_table(&self, id: TableId) -> Arc<HeapTable> {
        let t = Arc::new(HeapTable::new(
            id,
            self.cfg.data_page_size,
            self.cfg.prefetch_pages,
        ));
        self.obs
            .adopt_histogram("latch.wait_us", Arc::clone(&t.cache.latch_stats().wait_us));
        self.tables.write().insert(id, Arc::clone(&t));
        t
    }

    /// Ids of every existing table (SQL catalogs enumerate these to
    /// name tables created outside SQL).
    #[must_use]
    pub fn table_ids(&self) -> Vec<TableId> {
        let mut ids: Vec<TableId> = self.tables.read().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Look up a table.
    pub fn table(&self, id: TableId) -> Result<Arc<HeapTable>> {
        self.tables
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("{id}")))
    }

    /// All indexes of `table`, in creation (= visibility) order.
    #[must_use]
    pub fn indexes_of(&self, table: TableId) -> Vec<Arc<IndexRuntime>> {
        self.indexes
            .read()
            .iter()
            .filter(|i| i.def.table == table)
            .cloned()
            .collect()
    }

    /// Look up an index.
    pub fn index(&self, id: IndexId) -> Result<Arc<IndexRuntime>> {
        self.indexes
            .read()
            .iter()
            .find(|i| i.def.id == id)
            .cloned()
            .ok_or(Error::NoSuchIndex(id))
    }

    /// Allocate a fresh index id.
    pub fn next_index_id(&self) -> IndexId {
        IndexId(self.next_index.fetch_add(1, Ordering::Relaxed))
    }

    /// Publish an index tree's wait histograms: page latches under
    /// `latch.wait_us`, and the structure lock — neither a latch nor a
    /// record lock, so it would otherwise show in neither — under
    /// `btree.structure_wait_us`.
    fn adopt_tree_histograms(&self, rt: &IndexRuntime) {
        self.obs.adopt_histogram(
            "latch.wait_us",
            Arc::clone(&rt.tree.cache.latch_stats().wait_us),
        );
        self.obs.adopt_histogram(
            "btree.structure_wait_us",
            Arc::clone(&rt.tree.structure_stats().wait_us),
        );
    }

    /// Register a new index descriptor and persist the catalog.
    pub(crate) fn register_index(&self, rt: Arc<IndexRuntime>) {
        self.adopt_tree_histograms(&rt);
        self.indexes.write().push(rt);
        self.persist_catalog();
    }

    /// Remove an index descriptor (drop / cancelled build).
    pub(crate) fn unregister_index(&self, id: IndexId) {
        self.indexes.write().retain(|i| i.def.id != id);
        self.persist_catalog();
    }

    /// Durably record every index's descriptor + state. Called at
    /// creation, completion and drop — the points the paper treats as
    /// catalog updates.
    pub(crate) fn persist_catalog(&self) {
        let idxs = self.indexes.read();
        let mut out = Vec::new();
        out.extend_from_slice(&(idxs.len() as u32).to_be_bytes());
        for i in idxs.iter() {
            let entry = i.encode_catalog();
            out.extend_from_slice(&(entry.len() as u32).to_be_bytes());
            out.extend_from_slice(&entry);
        }
        // Ship the snapshot down the WAL so a streaming follower sees
        // index DDL at its log position. The primary's own restart
        // ignores the record: there the blob is authoritative.
        self.wal.append(
            TxId(0),
            Lsn::NULL,
            RecKind::RedoOnly,
            LogPayload::CatalogUpdate { bytes: out.clone() },
        );
        self.blobs.put("catalog", out);
    }

    /// Replica-side application of a [`LogPayload::CatalogUpdate`]
    /// snapshot: reconcile the runtime index list with the shipped
    /// catalog. When an index's *completion* arrives, the replica
    /// materializes it from its own heap — which at this log position
    /// is identical to the primary's, so the rebuild is equivalent to
    /// the primary's unlogged, page-forced bulk load. That also makes
    /// any index records the stream carried *before* the index's
    /// creation record (the registration/first-maintenance race)
    /// harmless: the completion rebuild supersedes them.
    pub(crate) fn apply_catalog_update(&self, bytes: &[u8]) -> Result<()> {
        let err = || Error::Corruption("bad catalog update".into());
        let n: [u8; 4] = bytes.get(0..4).ok_or_else(err)?.try_into().unwrap();
        let n = u32::from_be_bytes(n) as usize;
        let mut pos = 4;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let len: [u8; 4] = bytes.get(pos..pos + 4).ok_or_else(err)?.try_into().unwrap();
            pos += 4;
            let len = u32::from_be_bytes(len) as usize;
            let chunk = bytes.get(pos..pos + len).ok_or_else(err)?;
            let mut epos = 0;
            entries.push(crate::runtime::CatalogEntry::decode(chunk, &mut epos)?);
            pos += len;
        }
        let mut completed = Vec::new();
        {
            let mut idxs = self.indexes.write();
            // Dropped on the primary ⇒ dropped here.
            idxs.retain(|i| entries.iter().any(|e| e.def.id == i.def.id));
            for e in entries {
                // Keep the id allocator ahead of everything the
                // primary ever created, in case this engine is later
                // promoted.
                self.next_index.fetch_max(e.def.id.0 + 1, Ordering::Relaxed);
                if let Some(rt) = idxs.iter().find(|i| i.def.id == e.def.id) {
                    let was = rt.state();
                    rt.apply_catalog_entry(&e);
                    if was != IndexState::Complete && e.state == IndexState::Complete {
                        completed.push(Arc::clone(rt));
                    }
                } else {
                    let rt = Arc::new(IndexRuntime::new(
                        e.def.clone(),
                        e.algorithm,
                        e.state,
                        &self.cfg,
                    ));
                    rt.apply_catalog_entry(&e);
                    self.adopt_tree_histograms(&rt);
                    if e.state == IndexState::Complete {
                        completed.push(Arc::clone(&rt));
                    }
                    idxs.push(rt);
                }
            }
        }
        // Keep the local blob coherent so the replica's own restart
        // starts from the same catalog it had applied.
        self.blobs.put("catalog", bytes.to_vec());
        for rt in completed {
            self.replica_materialize(&rt)?;
        }
        Ok(())
    }

    /// Rebuild a completed index's tree from the local heap (see
    /// [`Db::apply_catalog_update`]).
    fn replica_materialize(&self, idx: &Arc<IndexRuntime>) -> Result<()> {
        idx.tree.clear();
        for (rid, rec) in self.table_scan(idx.def.table)? {
            Self::tree_ensure_live(idx, &idx.def.entry_of(&rec, rid)?)?;
        }
        Ok(())
    }

    fn load_catalog(&self) -> Result<()> {
        let Some(bytes) = self.blobs.get("catalog") else {
            return Ok(());
        };
        let idxs = self.indexes.read();
        let mut pos = 0;
        let n: [u8; 4] = bytes
            .get(0..4)
            .ok_or_else(|| Error::Corruption("bad catalog".into()))?
            .try_into()
            .unwrap();
        pos += 4;
        let n = u32::from_be_bytes(n) as usize;
        if n != idxs.len() {
            return Err(Error::Corruption(format!(
                "catalog has {n} indexes, runtime has {}",
                idxs.len()
            )));
        }
        for rt in idxs.iter() {
            let len: [u8; 4] = bytes
                .get(pos..pos + 4)
                .ok_or_else(|| Error::Corruption("bad catalog".into()))?
                .try_into()
                .unwrap();
            pos += 4;
            let len = u32::from_be_bytes(len) as usize;
            let mut epos = 0;
            rt.restore_catalog(&bytes[pos..pos + len], &mut epos)?;
            pos += len;
            // Conservative post-crash visibility: an SF build whose
            // exact Current-RID died with the crash treats *everything*
            // as visible. Duplicate-insert rejection at drain time
            // absorbs the overlap with the rescanned key range (see
            // DESIGN.md §6).
            if rt.state() == IndexState::SfBuilding {
                rt.finish_scan_conservative();
            }
        }
        Ok(())
    }

    // ----- transactions ----------------------------------------------

    /// Begin an ordinary transaction.
    pub fn begin(&self) -> TxId {
        let tx = TxId(self.next_tx.fetch_add(1, Ordering::Relaxed));
        let lsn = self
            .wal
            .append(tx, Lsn::NULL, RecKind::RedoOnly, LogPayload::TxBegin);
        self.txs.lock().insert(tx, lsn);
        tx
    }

    /// Begin an index-builder transaction (log volume attributed to
    /// the IB).
    pub fn begin_ib(&self) -> TxId {
        let tx = self.begin();
        self.wal.register_ib_tx(tx);
        tx
    }

    /// Number of active transactions.
    #[must_use]
    pub fn active_txs(&self) -> usize {
        self.txs.lock().len()
    }

    pub(crate) fn ensure_active(&self, tx: TxId) -> Result<()> {
        if self.txs.lock().contains_key(&tx) {
            Ok(())
        } else {
            Err(Error::TxNotActive(tx))
        }
    }

    /// Append a log record for `tx`, chaining `prev_lsn`.
    pub(crate) fn log(&self, tx: TxId, kind: RecKind, payload: LogPayload) -> Result<Lsn> {
        let mut txs = self.txs.lock();
        let last = txs.get_mut(&tx).ok_or(Error::TxNotActive(tx))?;
        let lsn = self.wal.append(tx, *last, kind, payload);
        *last = lsn;
        Ok(lsn)
    }

    /// Commit: log, force the log, release locks and reserved slots.
    pub fn commit(&self, tx: TxId) -> Result<()> {
        let lsn = self.log(tx, RecKind::RedoOnly, LogPayload::TxCommit)?;
        self.wal.flush_to(lsn);
        if let Some(deleted) = self.tx_deletes.lock().remove(&tx) {
            for (table, rid) in deleted {
                if let Ok(t) = self.table(table) {
                    let _ = t.release_slot(rid);
                }
            }
        }
        self.locks.release_all(tx);
        self.txs.lock().remove(&tx);
        Ok(())
    }

    /// Record that `tx` deleted `rid` (slot released at commit).
    pub(crate) fn note_delete(&self, tx: TxId, table: TableId, rid: Rid) {
        self.tx_deletes
            .lock()
            .entry(tx)
            .or_default()
            .push((table, rid));
    }

    /// Roll back: undo the whole chain with CLRs, then end.
    pub fn rollback(&self, tx: TxId) -> Result<()> {
        let last = {
            let mut txs = self.txs.lock();
            let last = *txs.get(&tx).ok_or(Error::TxNotActive(tx))?;
            let abort = self
                .wal
                .append(tx, last, RecKind::RedoOnly, LogPayload::TxAbort);
            txs.insert(tx, abort);
            abort
        };
        let new_last = match mohan_wal::rollback_tx(&self.wal, self, tx, last, Lsn::NULL) {
            Ok(new_last) => new_last,
            Err(e) => {
                // The transaction stays open with its locks held: undo
                // stopped part-way, so nothing it touched may be let
                // go. Say so where an operator will see it.
                self.obs.counter("tx.rollback_failed").bump();
                self.obs
                    .trace()
                    .event("tx.rollback_failed", e.to_string(), tx.0);
                return Err(e);
            }
        };
        let end = self
            .wal
            .append(tx, new_last, RecKind::RedoOnly, LogPayload::TxEnd);
        self.wal.flush_to(end);
        // Rollback restored the deleted records in place; the
        // reservations simply lapse.
        self.tx_deletes.lock().remove(&tx);
        self.locks.release_all(tx);
        self.txs.lock().remove(&tx);
        Ok(())
    }

    /// IB helper: commit the current builder transaction and open the
    /// next one (periodic checkpoint commits, §2.2.3 / §3.2.5).
    pub fn ib_commit_cycle(&self, tx: &mut TxId) -> Result<()> {
        self.commit(*tx)?;
        *tx = self.begin_ib();
        Ok(())
    }

    // ----- checkpoint / crash / restart --------------------------------

    /// Engine checkpoint: force the log, then every dirty page of
    /// every table and index. Retries if concurrent activity outruns the
    /// flush.
    pub fn checkpoint(&self) -> Result<()> {
        let mut last_err = None;
        for _ in 0..5 {
            self.wal.flush_all();
            let flushed = self.wal.flushed_lsn();
            let result = (|| -> Result<()> {
                for t in self.tables.read().values() {
                    t.cache.force_all(flushed)?;
                }
                for i in self.indexes.read().iter() {
                    i.tree.force_all(flushed)?;
                }
                Ok(())
            })();
            match result {
                Ok(()) => {
                    // Redo after a crash may start at the flushed
                    // horizon — except that open side-files are
                    // volatile and rebuilt purely from redo of their
                    // logged appends, so the bound must not advance
                    // past any open side-file's first logged append.
                    // Appends racing with this computation get LSNs
                    // above `flushed` and cannot lower the bound.
                    let mut redo_start = flushed;
                    for i in self.indexes.read().iter() {
                        if let Some(first) = i.side_file.open_first_lsn() {
                            redo_start = redo_start.min(Lsn(first.0.saturating_sub(1)));
                        }
                    }
                    let lsn = self.wal.append(
                        TxId(0),
                        Lsn::NULL,
                        RecKind::RedoOnly,
                        LogPayload::Checkpoint { redo_start },
                    );
                    self.wal.flush_to(lsn);
                    return Ok(());
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| Error::Corruption("checkpoint failed".into())))
    }

    /// Simulated system failure: every volatile structure is dropped.
    pub fn simulate_crash(&self) {
        self.wal.crash();
        self.locks.crash();
        self.txs.lock().clear();
        self.tx_deletes.lock().clear();
        for t in self.tables.read().values() {
            t.crash();
        }
        for i in self.indexes.read().iter() {
            i.tree.cache.crash();
            i.side_file.crash();
            if let Some(rs) = &*i.sort_store.lock() {
                rs.crash();
            }
        }
    }

    /// ARIES restart: restore catalog state, then analysis / redo /
    /// undo. Interrupted index builds stay in their building state;
    /// call [`crate::build::resume_build`] to finish them.
    pub fn restart(&self) -> Result<RecoveryStats> {
        self.load_catalog()?;
        let stats = mohan_wal::recover(&self.wal, self)?;
        // Losers' deletes were rolled back (records restored); every
        // still-reserved slot belongs to a committed deleter — free
        // them.
        for t in self.tables.read().values() {
            t.sweep_reserved()?;
        }
        Ok(stats)
    }

    // ----- replication role --------------------------------------------

    /// True while the engine is a replication follower. Seeded from
    /// `cfg.replica`, cleared by [`Db::promote_to_primary`].
    #[must_use]
    pub fn is_replica(&self) -> bool {
        self.replica.load(Ordering::Acquire)
    }

    /// Flip the dynamic role (promotion path; tests).
    pub fn set_replica(&self, replica: bool) {
        self.replica.store(replica, Ordering::Release);
    }

    /// Replication lag in LSNs as last published by the follower's
    /// apply loop (0 on a primary).
    #[must_use]
    pub fn repl_lag(&self) -> u64 {
        self.repl_lag.load(Ordering::Acquire)
    }

    /// Publish the current replication lag (follower apply loop).
    pub fn set_repl_lag(&self, lag: u64) {
        self.repl_lag.store(lag, Ordering::Release);
    }

    /// Keep the local transaction-id allocator above every replicated
    /// transaction id, so transactions begun after promotion never
    /// collide with ids the old primary handed out.
    pub fn bump_tx_floor(&self, tx: TxId) {
        self.next_tx.fetch_max(tx.0 + 1, Ordering::AcqRel);
    }

    /// Promote a replication follower to primary: force the mirrored
    /// log, run ARIES restart over it (redo is idempotent against the
    /// already-applied state thanks to page LSNs; the undo pass rolls
    /// back whatever transactions were still in flight on the dead
    /// primary), then flip the role so writes are accepted. The caller
    /// must have stopped the WAL subscription first — nothing may be
    /// applying records concurrently.
    pub fn promote_to_primary(&self) -> Result<RecoveryStats> {
        self.wal.flush_all();
        let stats = self.restart()?;
        self.set_replica(false);
        self.set_repl_lag(0);
        Ok(stats)
    }

    // ----- visibility planning (Figures 1 and 2) ----------------------

    /// Under the data-page latch: which indexes are visible for this
    /// operation, and through which mechanism. Returns the count to
    /// log and the actions to perform after unlatching.
    pub(crate) fn plan_forward(
        &self,
        table: TableId,
        rid: Rid,
        data: &[u8],
    ) -> (u32, Vec<(Arc<IndexRuntime>, Mechanism)>) {
        let mut count = 0u32;
        let mut acts = Vec::new();
        for idx in self.indexes_of(table) {
            match idx.state() {
                IndexState::Complete | IndexState::NsfBuilding => {
                    count += 1;
                    acts.push((idx, Mechanism::Direct));
                }
                IndexState::SfBuilding => {
                    let pk = idx.key_cursor.as_ref().and_then(|kc| {
                        Record::decode(data).ok().map(|r| {
                            mohan_common::KeyValue::from_i64s(
                                &kc.pk_cols.iter().map(|&c| r.0[c]).collect::<Vec<_>>(),
                            )
                        })
                    });
                    if idx.sf_visible(rid, pk.as_ref()) {
                        count += 1;
                        acts.push((idx, Mechanism::SideFile));
                    }
                }
            }
        }
        (count, acts)
    }

    /// Figure 2: which indexes need *compensation* when this data-page
    /// log record is undone. `logged_count` is the count of visible
    /// indexes the forward operation recorded.
    pub(crate) fn plan_undo(
        &self,
        table: TableId,
        rid: Rid,
        data: &[u8],
        logged_count: u32,
        rec_lsn: Lsn,
    ) -> Vec<(Arc<IndexRuntime>, Mechanism)> {
        let mut acts = Vec::new();
        for (p, idx) in self.indexes_of(table).into_iter().enumerate() {
            let p = p as u32;
            match idx.state() {
                IndexState::SfBuilding => {
                    let pk = idx.key_cursor.as_ref().and_then(|kc| {
                        Record::decode(data).ok().map(|r| {
                            mohan_common::KeyValue::from_i64s(
                                &kc.pk_cols.iter().map(|&c| r.0[c]).collect::<Vec<_>>(),
                            )
                        })
                    });
                    if idx.sf_visible(rid, pk.as_ref()) {
                        acts.push((idx, Mechanism::SideFile));
                    }
                    // Invisible: the IB's (re)scan will extract the
                    // restored state.
                }
                IndexState::NsfBuilding => {
                    if p >= logged_count {
                        // Only reachable in the no-quiesce extension:
                        // the index appeared after the forward op.
                        acts.push((idx, Mechanism::Direct));
                    }
                    // Otherwise the transaction logged its own index
                    // operations; the undo driver handles them.
                }
                IndexState::Complete => {
                    let was_visible = p < logged_count;
                    if !was_visible {
                        // Became visible since the original data
                        // change: traverse the tree (Figure 2).
                        acts.push((idx, Mechanism::Direct));
                    } else if idx.algorithm == BuildAlgorithm::Sf && rec_lsn < idx.completed_lsn() {
                        // Forward maintenance went through the (now
                        // drained) side-file; compensate directly.
                        acts.push((idx, Mechanism::Direct));
                    }
                    // Otherwise the transaction's own index log
                    // records carry the undo.
                }
            }
        }
        acts
    }

    // ----- absolute (idempotent) index state transitions --------------

    /// Make `entry` present and live, replaying a forward insert or
    /// reactivation. Handles unique-replace replays.
    pub(crate) fn tree_ensure_live(idx: &IndexRuntime, entry: &IndexEntry) -> Result<()> {
        use mohan_btree::{InsertMode, InsertOutcome};
        match idx.tree.insert(entry.clone(), InsertMode::Transaction)? {
            InsertOutcome::Inserted => Ok(()),
            InsertOutcome::DuplicateEntry { pseudo: true } => {
                idx.tree.set_pseudo(entry, false)?;
                Ok(())
            }
            InsertOutcome::DuplicateEntry { pseudo: false } => Ok(()),
            InsertOutcome::DuplicateKeyValue { existing, .. } => {
                // Forward execution performed a unique replace; replay
                // it.
                idx.tree.unique_replace(&entry.key, existing, entry.rid)?;
                Ok(())
            }
        }
    }

    /// Make `entry` present, preserving its pseudo flag if it already
    /// exists. Replays the IB's batched inserts: the batch log record
    /// is written *after* the tree mutations it describes, so a
    /// committed pseudo-delete logged in between has a smaller LSN
    /// than the batch yet reflects a *later* tree state — replaying
    /// the batch as "ensure live" would resurrect that deleted key.
    pub(crate) fn tree_ensure_present(idx: &IndexRuntime, entry: &IndexEntry) -> Result<()> {
        use mohan_btree::{InsertMode, InsertOutcome};
        match idx.tree.insert(entry.clone(), InsertMode::Ib)? {
            InsertOutcome::Inserted | InsertOutcome::DuplicateEntry { .. } => Ok(()),
            InsertOutcome::DuplicateKeyValue { .. } => {
                // Unique arbitration already ran forward; the entry's
                // fate is carried by other log records.
                Ok(())
            }
        }
    }

    /// Make `entry` present and pseudo-deleted.
    pub(crate) fn tree_ensure_pseudo(idx: &IndexRuntime, entry: &IndexEntry) -> Result<()> {
        let _ = idx.tree.pseudo_delete_or_tombstone(entry)?;
        Ok(())
    }
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db")
            .field("tables", &self.tables.read().len())
            .field("indexes", &self.indexes.read().len())
            .field("active_txs", &self.active_txs())
            .finish()
    }
}

impl RecoveryTarget for Db {
    fn redo(&self, rec: &LogRecord) -> Result<()> {
        match &rec.payload {
            LogPayload::HeapInsert {
                table, rid, data, ..
            } => self.table(*table)?.redo_insert(*rid, data, rec.lsn),
            LogPayload::HeapDelete { table, rid, .. } => {
                self.table(*table)?.redo_delete(*rid, rec.lsn)
            }
            LogPayload::HeapUpdate {
                table, rid, new, ..
            } => self.table(*table)?.redo_update(*rid, new, rec.lsn),
            LogPayload::IndexInsert { index, entry }
            | LogPayload::IndexReactivate { index, entry } => {
                if let Ok(idx) = self.index(*index) {
                    Self::tree_ensure_live(&idx, entry)?;
                }
                Ok(())
            }
            LogPayload::IndexPseudoDelete { index, entry }
            | LogPayload::IndexInsertTombstone { index, entry } => {
                if let Ok(idx) = self.index(*index) {
                    Self::tree_ensure_pseudo(&idx, entry)?;
                }
                Ok(())
            }
            LogPayload::IndexPhysicalDelete { index, entry, .. } => {
                if let Ok(idx) = self.index(*index) {
                    let _ = idx.tree.physical_delete(entry)?;
                }
                Ok(())
            }
            LogPayload::IndexBulkInsert { index, entries } => {
                if let Ok(idx) = self.index(*index) {
                    for e in entries {
                        Self::tree_ensure_present(&idx, e)?;
                    }
                }
                Ok(())
            }
            LogPayload::IndexBulkRemove { index, entries } => {
                if let Ok(idx) = self.index(*index) {
                    for e in entries {
                        let _ = idx.tree.physical_delete(e)?;
                    }
                }
                Ok(())
            }
            LogPayload::SideFileAppend { index, op } => {
                if let Ok(idx) = self.index(*index) {
                    if !idx.side_file.closed() {
                        idx.side_file.redo_append(op.clone(), rec.lsn);
                    }
                }
                Ok(())
            }
            LogPayload::CatalogUpdate { bytes } => {
                // Dynamic role, not `cfg.replica`: a promoted follower
                // replays its own snapshots as no-ops, like a primary.
                if self.is_replica() {
                    self.apply_catalog_update(bytes)
                } else {
                    Ok(())
                }
            }
            LogPayload::TxBegin
            | LogPayload::TxCommit
            | LogPayload::TxAbort
            | LogPayload::TxEnd
            | LogPayload::Checkpoint { .. } => Ok(()),
        }
    }

    fn undo(&self, rec: &LogRecord, clr_prev: Lsn, undo_next: Lsn) -> Result<Lsn> {
        let clr = |payload: LogPayload| -> Lsn {
            self.wal
                .append(rec.tx, clr_prev, RecKind::Clr { undo_next }, payload)
        };
        match &rec.payload {
            LogPayload::HeapInsert {
                table,
                rid,
                data,
                visible_indexes,
            } => {
                let tbl = self.table(*table)?;
                let mut plan = Vec::new();
                let mut clr_lsn = Lsn::NULL;
                tbl.undo_insert(*rid, || {
                    let (count_now, _) = self.plan_forward(*table, *rid, data);
                    plan = self.plan_undo(*table, *rid, data, *visible_indexes, rec.lsn);
                    clr_lsn = clr(LogPayload::HeapDelete {
                        table: *table,
                        rid: *rid,
                        old: data.clone(),
                        visible_indexes: count_now,
                    });
                    clr_lsn
                })?;
                let mut last = clr_lsn;
                for (idx, mech) in plan {
                    for op in crate::dml::key_ops_for_undo_of_insert(&idx.def, data, *rid)? {
                        last = self.compensate(rec.tx, last, &idx, mech, op)?;
                    }
                }
                Ok(last)
            }
            LogPayload::HeapDelete {
                table,
                rid,
                old,
                visible_indexes,
            } => {
                let tbl = self.table(*table)?;
                let mut plan = Vec::new();
                let mut clr_lsn = Lsn::NULL;
                tbl.undo_delete(*rid, old, || {
                    let (count_now, _) = self.plan_forward(*table, *rid, old);
                    plan = self.plan_undo(*table, *rid, old, *visible_indexes, rec.lsn);
                    clr_lsn = clr(LogPayload::HeapInsert {
                        table: *table,
                        rid: *rid,
                        data: old.clone(),
                        visible_indexes: count_now,
                    });
                    clr_lsn
                })?;
                let mut last = clr_lsn;
                for (idx, mech) in plan {
                    for op in crate::dml::key_ops_for_undo_of_delete(&idx.def, old, *rid)? {
                        last = self.compensate(rec.tx, last, &idx, mech, op)?;
                    }
                }
                Ok(last)
            }
            LogPayload::HeapUpdate {
                table,
                rid,
                old,
                new,
                visible_indexes,
            } => {
                let tbl = self.table(*table)?;
                let mut plan = Vec::new();
                let mut clr_lsn = Lsn::NULL;
                tbl.undo_update(*rid, old, || {
                    let (count_now, _) = self.plan_forward(*table, *rid, old);
                    plan = self.plan_undo(*table, *rid, old, *visible_indexes, rec.lsn);
                    clr_lsn = clr(LogPayload::HeapUpdate {
                        table: *table,
                        rid: *rid,
                        old: new.clone(),
                        new: old.clone(),
                        visible_indexes: count_now,
                    });
                    clr_lsn
                })?;
                let mut last = clr_lsn;
                for (idx, mech) in plan {
                    for op in crate::dml::key_ops_for_undo_of_update(&idx.def, old, new, *rid)? {
                        last = self.compensate(rec.tx, last, &idx, mech, op)?;
                    }
                }
                Ok(last)
            }
            LogPayload::IndexInsert { index, entry } => {
                // §2.2.3: the deleter (here: the rolling-back inserter)
                // does not physically remove the key — it may already
                // have been extracted by the IB — it pseudo-deletes it.
                if let Ok(idx) = self.index(*index) {
                    Self::tree_ensure_pseudo(&idx, entry)?;
                }
                Ok(clr(LogPayload::IndexPseudoDelete {
                    index: *index,
                    entry: entry.clone(),
                }))
            }
            LogPayload::IndexReactivate { index, entry } => {
                if let Ok(idx) = self.index(*index) {
                    Self::tree_ensure_pseudo(&idx, entry)?;
                }
                Ok(clr(LogPayload::IndexPseudoDelete {
                    index: *index,
                    entry: entry.clone(),
                }))
            }
            LogPayload::IndexPseudoDelete { index, entry }
            | LogPayload::IndexInsertTombstone { index, entry } => {
                // Rollback of a delete puts the key back in the
                // inserted state (§2.2.3).
                if let Ok(idx) = self.index(*index) {
                    Self::tree_ensure_live(&idx, entry)?;
                }
                Ok(clr(LogPayload::IndexReactivate {
                    index: *index,
                    entry: entry.clone(),
                }))
            }
            LogPayload::IndexPhysicalDelete {
                index,
                entry,
                was_pseudo,
            } => {
                if let Ok(idx) = self.index(*index) {
                    if *was_pseudo {
                        Self::tree_ensure_pseudo(&idx, entry)?;
                    } else {
                        Self::tree_ensure_live(&idx, entry)?;
                    }
                }
                let payload = if *was_pseudo {
                    LogPayload::IndexInsertTombstone {
                        index: *index,
                        entry: entry.clone(),
                    }
                } else {
                    LogPayload::IndexInsert {
                        index: *index,
                        entry: entry.clone(),
                    }
                };
                Ok(clr(payload))
            }
            LogPayload::IndexBulkInsert { index, entries } => {
                // Undo only the entries that are still live: one a
                // committed deleter has pseudo-deleted since the IB
                // inserted it is that deleter's tombstone, and the
                // resumed IB relies on it to reject the stale key
                // (§2.2.3). The CLR lists only what was actually
                // removed so its redo cannot destroy a kept tombstone
                // after a second crash either.
                let mut removed = Vec::new();
                if let Ok(idx) = self.index(*index) {
                    for e in entries {
                        if idx.tree.physical_delete_if_live(e)? {
                            removed.push(e.clone());
                        }
                    }
                }
                Ok(clr(LogPayload::IndexBulkRemove {
                    index: *index,
                    entries: removed,
                }))
            }
            other => Err(Error::Corruption(format!(
                "undo of non-undoable payload {other:?}"
            ))),
        }
    }
}

impl Db {
    /// Apply one compensation during rollback, through the right
    /// mechanism, logging it redo-only under the transaction. Returns
    /// the transaction's new last LSN.
    pub(crate) fn compensate(
        &self,
        tx: TxId,
        last: Lsn,
        idx: &Arc<IndexRuntime>,
        mech: Mechanism,
        op: SideFileOp,
    ) -> Result<Lsn> {
        match mech {
            Mechanism::SideFile => {
                let mut lsn = last;
                let appended = idx.side_file.append_with(op.clone(), |op| {
                    lsn = self.wal.append(
                        tx,
                        last,
                        RecKind::RedoOnly,
                        LogPayload::SideFileAppend {
                            index: idx.def.id,
                            op: op.clone(),
                        },
                    );
                    lsn
                });
                match appended {
                    crate::side_file::Append::Appended(_) => Ok(lsn),
                    crate::side_file::Append::BuildDone => {
                        self.compensate(tx, last, idx, Mechanism::Direct, op)
                    }
                }
            }
            Mechanism::Direct => {
                if op.insert {
                    Self::tree_ensure_live(idx, &op.entry)?;
                    Ok(self.wal.append(
                        tx,
                        last,
                        RecKind::RedoOnly,
                        LogPayload::IndexInsert {
                            index: idx.def.id,
                            entry: op.entry,
                        },
                    ))
                } else {
                    Self::tree_ensure_pseudo(idx, &op.entry)?;
                    Ok(self.wal.append(
                        tx,
                        last,
                        RecKind::RedoOnly,
                        LogPayload::IndexPseudoDelete {
                            index: idx.def.id,
                            entry: op.entry,
                        },
                    ))
                }
            }
        }
    }

    /// Convenience for tests/benches: is any build currently running
    /// on this table?
    #[must_use]
    pub fn build_in_progress(&self, table: TableId) -> bool {
        self.indexes_of(table)
            .iter()
            .any(|i| i.state() != IndexState::Complete)
    }

    /// Lock-manager name for a record (data-only locking: key locks
    /// and record locks coincide, §6.2).
    #[must_use]
    pub fn record_lock(table: TableId, rid: Rid) -> LockName {
        LockName::Record(table, rid)
    }

    /// Acquire the table IX intent lock (updaters) for `tx`.
    pub(crate) fn lock_table_ix(&self, tx: TxId, table: TableId) -> Result<()> {
        self.locks.lock(tx, LockName::Table(table), LockMode::IX)
    }
}
