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

use crate::checkpointer::Checkpointer;
use crate::dml::Change;
use crate::progress::BuildProgress;
use crate::runtime::{Catalog, CatalogEntry, IndexRuntime, IndexState};
use crate::schema::BuildAlgorithm;
use crate::workers::BuildWorkers;
use mohan_btree::{unlogged, Edit, Found, InsertMode};
use mohan_common::codec::encode;
use mohan_common::failpoint::{FailpointSet, Failpoints};
use mohan_common::pace::{Ticker, OPS_PER_PACE};
use mohan_common::stats::{Counter, MaxGauge};
use mohan_common::{
    EngineConfig, Error, IdMap, IndexEntry, IndexId, Lsn, Result, Rid, TableId, TxId,
};
use mohan_heap::HeapTable;
use mohan_lock::{LockManager, LockMode, LockName};
use mohan_obs::Registry;
use mohan_storage::blob::BlobStore;
use mohan_wal::recovery::RecoveryStats;
use mohan_wal::{LogManager, LogPayload, LogRecord, RecKind, RecoveryTarget, SideFileOp};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Failpoint in [`Db::begin`], after the transaction is registered and
/// before its begin record is appended. Only a hook means anything
/// here: `begin` cannot fail, so a crash trigger is ignored.
pub const BEGIN_REGISTERED_FAILPOINT: &str = "tx.registered";

/// Failpoint at the start of [`Db::checkpoint`], before it waits for
/// any other checkpoint.
pub const CHECKPOINT_BEGIN_FAILPOINT: &str = "checkpoint.begin";

/// Failpoint in [`Db::checkpoint`] once every dirty page is forced and
/// before the checkpoint record is written.
pub const CHECKPOINT_FORCED_FAILPOINT: &str = "checkpoint.forced";

/// Failpoint after every index edit a logging caller makes
/// (`Db::edit_index`): the tree change and its log record are both in
/// place, and no latch is held.
pub const INDEX_EDITED_FAILPOINT: &str = "index.edited";

/// An active transaction: its log span, what it holds on data pages,
/// and whether it is an index builder's. The one record the engine
/// keeps of a transaction; [`Db::log`] reads and advances it.
#[derive(Debug)]
struct TxState {
    /// Its first record — or, until that is appended, an LSN no higher
    /// than the one it will get. Truncation stays below it.
    first: Lsn,
    /// Its newest record, which the next one chains to.
    last: Lsn,
    /// Records it deleted or updated: the slots its deletes reserved
    /// and the bytes its shrinking updates (and its undo steps) held
    /// are released when it ends — at commit, or once its rollback has
    /// put every record back.
    holds: Vec<(TableId, Rid)>,
    /// Tables it holds the IX intent lock on, to its end — or, during
    /// its first DML call on a table, is asking for ([`Db::intend`]).
    intents: Vec<TableId>,
    /// An index builder's transaction: its records count in
    /// `wal.ib_records`.
    builder: bool,
}

/// How a transaction's key change reaches an index (Figure 1 / 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mechanism {
    /// Insert/delete the key in the tree directly, with logging.
    Direct,
    /// Append `<operation, key>` to the index's side-file.
    SideFile,
}

/// Every index of a table, in creation order, with the mechanism one
/// record change reaches it through (`None`: not at all).
pub(crate) type Plan = Vec<(Arc<IndexRuntime>, Option<Mechanism>)>;

/// A table quiesce (§2.2.1, footnote 6): a transaction that holds the
/// table's S lock, so no transaction that writes the table is active
/// while it lasts. [`Db::quiesce`], with its zero-wait form at the end
/// of a checkpoint, is the only code that asks for a table S. Ending
/// the quiesce ([`Quiesce::end`]), or dropping it,
/// removes the table's cancelled descriptors and commits; its
/// transaction logs nothing but its begin and its commit.
#[must_use = "the table stays quiesced until this is ended or dropped"]
pub struct Quiesce<'a> {
    db: &'a Db,
    tx: TxId,
    table: TableId,
}

impl Quiesce<'_> {
    /// End the quiesce: updates of the table may run again.
    pub fn end(self) -> Result<()> {
        let ended = self.finish();
        std::mem::forget(self);
        ended
    }

    fn finish(&self) -> Result<()> {
        self.db.remove_cancelled(Some(self.table));
        self.db.commit(self.tx)
    }
}

impl Drop for Quiesce<'_> {
    fn drop(&mut self) {
        let _ = self.finish();
    }
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
    /// The most `parallel_workers` any build or resume on this engine
    /// asked for (the `build.sort_workers` gauge); the threads builds
    /// ran on are `build.workers`.
    pub build_sort_workers: MaxGauge,
    tables: RwLock<IdMap<TableId, Arc<HeapTable>>>,
    indexes: RwLock<Vec<Arc<IndexRuntime>>>,
    txs: Mutex<IdMap<TxId, TxState>>,
    next_tx: AtomicU64,
    next_index: AtomicU32,
    /// The engine's role: true while it is a replication follower. A
    /// `Replica` sets it; promotion clears it, which re-enables writes
    /// and stops redo from applying shipped `CatalogUpdate` snapshots.
    replica: AtomicBool,
    /// Replication lag in LSNs, published by the follower's apply loop
    /// and judged by [`Db::stale_lag`]. Always 0 on a primary.
    repl_lag: AtomicU64,
    /// `repl.reads_served` and `repl.reads_rejected_stale`, bumped by
    /// [`Db::follower_read`].
    reads_served: Arc<Counter>,
    reads_stale: Arc<Counter>,
    /// The background checkpointer's side of this engine.
    checkpointer: Arc<Checkpointer>,
    /// The threads every index build runs on.
    pub(crate) workers: Arc<BuildWorkers>,
    /// Held by a checkpoint from start to end, and by a simulated crash
    /// to wait one out: checkpoints run one at a time, and never across
    /// a crash.
    checkpoint_gate: Mutex<()>,
    /// Between [`Db::simulate_crash`] and the end of [`Db::restart`]:
    /// no checkpoint may run.
    recovering: AtomicBool,
}

impl Db {
    /// Create an empty engine.
    #[must_use]
    pub fn new(cfg: EngineConfig) -> Arc<Db> {
        let lock_timeout = Duration::from_millis(cfg.lock_timeout_ms);
        let obs = Registry::new();
        let db = Arc::new(Db {
            cfg,
            wal: LogManager::new(),
            locks: LockManager::new(lock_timeout),
            blobs: BlobStore::new(),
            failpoints: FailpointSet::new(),
            reads_served: obs.counter("repl.reads_served"),
            reads_stale: obs.counter("repl.reads_rejected_stale"),
            obs,
            build_sort_workers: MaxGauge::new(),
            tables: RwLock::new(IdMap::default()),
            indexes: RwLock::new(Vec::new()),
            txs: Mutex::new(IdMap::default()),
            next_tx: AtomicU64::new(1),
            next_index: AtomicU32::new(1),
            replica: AtomicBool::new(false),
            repl_lag: AtomicU64::new(0),
            checkpointer: Arc::default(),
            workers: Arc::default(),
            checkpoint_gate: Mutex::new(()),
            recovering: AtomicBool::new(false),
        });
        db.register_observability();
        let w = Arc::downgrade(&db);
        db.wal.register_flush_waker(Box::new(move || {
            if let Some(db) = w.upgrade() {
                db.checkpointer.after_flush(&db);
            }
        }));
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
        gauge("wal.first_lsn", |db| db.wal.first_lsn().0);
        gauge("wal.truncated_records", |db| {
            db.wal.stats.truncated_records.get()
        });
        let _ = self.obs.counter("checkpoint.count");
        let _ = self.obs.counter("checkpoint.failed");
        let _ = self.obs.histogram("checkpoint.us");
        gauge("cache.hit", |db| db.fold_caches(|s| s.hits.get()));
        gauge("cache.miss", |db| db.fold_caches(|s| s.misses.get()));
        gauge("cache.force", |db| db.fold_caches(|s| s.forces.get()));
        gauge("cache.spare_bytes", |_| mohan_storage::spare::bytes());
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
        gauge("build.workers", |db| db.workers.live());
        gauge("build.pace_points", |_| mohan_common::pace::points());
        gauge("build.run_bytes", |db| {
            db.indexes
                .read()
                .iter()
                .map(|i| i.sort_store.raw_bytes.get())
                .sum()
        });
        gauge("build.run_bytes_compressed", |db| {
            db.indexes
                .read()
                .iter()
                .map(|i| i.sort_store.stored_bytes.get())
                .sum()
        });
        gauge("build.run_bytes_resident", |db| {
            db.indexes
                .read()
                .iter()
                .map(|i| i.sort_store.resident_bytes())
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

    /// The indexes of `table`, in creation (= visibility) order; a
    /// cancelled one is not among them.
    #[must_use]
    pub fn indexes_of(&self, table: TableId) -> Vec<Arc<IndexRuntime>> {
        self.indexes
            .read()
            .iter()
            .filter(|i| i.def.table == table && i.state() != IndexState::Cancelled)
            .cloned()
            .collect()
    }

    /// Look up an index. A cancelled one is [`Error::NoSuchIndex`]: so
    /// redo and undo, which edit an index only if it exists, leave its
    /// tree alone.
    pub fn index(&self, id: IndexId) -> Result<Arc<IndexRuntime>> {
        self.indexes
            .read()
            .iter()
            .find(|i| i.def.id == id && i.state() != IndexState::Cancelled)
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

    /// Quiesce `table`: begin a transaction and take the table's S
    /// lock, which waits for every transaction that holds the table's
    /// IX to end and holds back every new one (FIFO tickets, DESIGN
    /// §14). A refused lock ends the transaction before the error
    /// returns.
    pub fn quiesce(&self, table: TableId) -> Result<Quiesce<'_>> {
        self.quiesce_by(table, LockManager::lock)
    }

    /// The one request for a table S lock, made by `ask`: waiting
    /// ([`Db::quiesce`]), or the zero-wait form a checkpoint offers
    /// (`LockManager::try_lock`, refused at once with `LockBusy`).
    fn quiesce_by(
        &self,
        table: TableId,
        ask: fn(&LockManager, TxId, LockName, LockMode) -> Result<()>,
    ) -> Result<Quiesce<'_>> {
        let tx = self.begin();
        match ask(&self.locks, tx, LockName::Table(table), LockMode::S) {
            Ok(()) => Ok(Quiesce {
                db: self,
                tx,
                table,
            }),
            Err(e) => {
                self.commit(tx)?;
                Err(e)
            }
        }
    }

    /// Remove every cancelled descriptor whose table has no writer
    /// now: each such table gets a zero-wait quiesce, which a writer
    /// refuses without waiting; its table keeps the descriptor until
    /// its next granted quiesce. A follower removes nothing of its own:
    /// its catalog is the primary's.
    fn sweep_cancelled(&self) {
        if self.is_replica() {
            return;
        }
        let mut tables: Vec<TableId> = self
            .indexes
            .read()
            .iter()
            .filter(|i| i.state() == IndexState::Cancelled)
            .map(|i| i.def.table)
            .collect();
        tables.sort_unstable();
        tables.dedup();
        for table in tables {
            if let Ok(quiesce) = self.quiesce_by(table, LockManager::try_lock) {
                let _ = quiesce.end();
            }
        }
    }

    /// Remove the cancelled descriptors of `table` (of every table for
    /// `None`), their build records with them, and persist the catalog
    /// if any went. Safe only where no transaction that could have
    /// logged a visible-index count on the table is active: under a
    /// granted [`Quiesce`], and at restart or promotion after undo.
    fn remove_cancelled(&self, table: Option<TableId>) {
        let removed: Vec<_> = self
            .indexes
            .write()
            .extract_if(.., |i| {
                i.state() == IndexState::Cancelled && table.is_none_or(|t| t == i.def.table)
            })
            .collect();
        for idx in &removed {
            crate::progress::clear(self, idx.def.id);
        }
        if !removed.is_empty() {
            self.persist_catalog();
        }
    }

    /// Durably record every index's descriptor + state. Called at
    /// creation, completion and drop — the points the paper treats as
    /// catalog updates.
    pub(crate) fn persist_catalog(&self) {
        let idxs = self.indexes.read();
        let out = encode(&Catalog(idxs.iter().map(|i| i.catalog_entry()).collect()));
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
    ///
    /// Readers never see `Complete` over a tree being rebuilt: under
    /// the index-list lock a completing index takes its entry with its
    /// building state (an index first seen complete is created in it),
    /// and only after the rebuild, outside the lock, does it flip to
    /// `Complete`. Until then a lookup answers `IndexNotReadable`.
    pub(crate) fn apply_catalog_update(&self, bytes: &[u8]) -> Result<()> {
        let Catalog(entries) = Catalog::decode(bytes)?;
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
                let building = IndexState::building(e.algorithm);
                let rt = match idxs.iter().find(|i| i.def.id == e.def.id) {
                    Some(rt) => Arc::clone(rt),
                    None => {
                        let rt = Arc::new(IndexRuntime::new(
                            e.def.clone(),
                            e.algorithm,
                            building,
                            &self.cfg,
                        )?);
                        self.adopt_tree_histograms(&rt);
                        idxs.push(Arc::clone(&rt));
                        rt
                    }
                };
                if e.state == IndexState::Complete && rt.state() != IndexState::Complete {
                    rt.apply_catalog_entry(&CatalogEntry {
                        state: building,
                        ..e.clone()
                    });
                    completed.push((rt, e));
                } else {
                    rt.apply_catalog_entry(&e);
                }
            }
        }
        // Keep the local blob coherent so the replica's own restart
        // starts from the same catalog it had applied.
        self.blobs.put("catalog", bytes.to_vec());
        for (rt, e) in completed {
            self.replica_materialize(&rt)?;
            rt.apply_catalog_entry(&e);
        }
        Ok(())
    }

    /// Rebuild a completed index's tree from the local heap (see
    /// [`Db::apply_catalog_update`]).
    fn replica_materialize(&self, idx: &Arc<IndexRuntime>) -> Result<()> {
        idx.tree.clear();
        for (rid, rec) in self.table_scan(idx.def.table)? {
            let entry = idx.def.entry_of(&rec, rid)?;
            idx.tree.edit(
                &entry,
                InsertMode::Transaction,
                Edit::restore_live,
                unlogged,
            )?;
        }
        Ok(())
    }

    fn load_catalog(&self) -> Result<()> {
        let Some(bytes) = self.blobs.get("catalog") else {
            return Ok(());
        };
        let Catalog(entries) = Catalog::decode(&bytes)?;
        let idxs = self.indexes.read();
        if entries.len() != idxs.len() {
            return Err(Error::Corruption(format!(
                "catalog has {} indexes, runtime has {}",
                entries.len(),
                idxs.len()
            )));
        }
        for (rt, e) in idxs.iter().zip(&entries) {
            rt.restore_catalog(e)?;
            // Conservative post-crash visibility: an SF build whose
            // exact Current-RID died with the crash treats *everything*
            // as visible. Duplicate-insert rejection at drain time
            // absorbs the overlap with the rescanned key range (see
            // DESIGN.md §6). Its side-file pins the log again before
            // any checkpoint may truncate it.
            if rt.state() == IndexState::SfBuilding {
                rt.finish_scan();
                let pos = match crate::progress::load(self, rt.def.id)? {
                    Some(BuildProgress::Draining { pos }) => Lsn(pos),
                    _ => Lsn::NULL,
                };
                rt.side_file.reopen(&self.wal, rt.def.id, pos);
            }
        }
        Ok(())
    }

    // ----- transactions ----------------------------------------------

    /// Begin an ordinary transaction.
    pub fn begin(&self) -> TxId {
        self.open(false)
    }

    /// Begin an index-builder transaction (its records count in
    /// `wal.ib_records`).
    pub(crate) fn begin_ib(&self) -> TxId {
        self.open(true)
    }

    /// Register a transaction, then append its begin record. It is
    /// registered under a first LSN no higher than the record's: a
    /// checkpoint that computes its truncation floor in between keeps
    /// the record, which restart's analysis needs to find the
    /// transaction.
    fn open(&self, builder: bool) -> TxId {
        let tx = TxId(self.next_tx.fetch_add(1, Ordering::Relaxed));
        // Every LSN still to be reserved is above the flushed mark.
        let first = Lsn(self.wal.flushed_lsn().0 + 1);
        self.txs.lock().insert(
            tx,
            TxState {
                first,
                last: Lsn::NULL,
                holds: Vec::new(),
                intents: Vec::new(),
                builder,
            },
        );
        let _ = self.failpoints.hit(BEGIN_REGISTERED_FAILPOINT);
        self.log(tx, RecKind::RedoOnly, LogPayload::TxBegin)
            .expect("registered above");
        tx
    }

    /// Number of active transactions.
    #[must_use]
    pub fn active_txs(&self) -> usize {
        self.txs.lock().len()
    }

    /// Start a DML call of `tx` on `table`: in one visit to the
    /// transaction table, check that `tx` is active and note the table
    /// among its intents. Only its first call on a table asks the lock
    /// manager for the IX; a refusal takes the note back. The IX is held
    /// to the end either way, so a quiesce's table S waits for `tx`
    /// exactly as it would if every call asked again. A transaction's
    /// calls come one at a time, so no call of its own finds the note
    /// before the grant.
    pub(crate) fn intend(&self, tx: TxId, table: TableId) -> Result<()> {
        {
            let mut txs = self.txs.lock();
            let state = txs.get_mut(&tx).ok_or(Error::TxNotActive(tx))?;
            if state.intents.contains(&table) {
                return Ok(());
            }
            state.intents.push(table);
        }
        self.locks
            .lock(tx, LockName::Table(table), LockMode::IX)
            .inspect_err(|_| {
                if let Some(state) = self.txs.lock().get_mut(&tx) {
                    state.intents.retain(|&t| t != table);
                }
            })
    }

    /// Append a record for `tx`, chained to its last one, in one
    /// acquisition of the transaction table. The first record fixes
    /// the transaction's first LSN; a forward delete or update of a
    /// heap record holds that record until the transaction ends (a CLR
    /// holds nothing: its record's forward change already does); a
    /// builder's records are counted.
    pub(crate) fn log(&self, tx: TxId, kind: RecKind, payload: LogPayload) -> Result<Lsn> {
        let hold = match &payload {
            LogPayload::HeapDelete { table, rid, .. }
            | LogPayload::HeapUpdate { table, rid, .. }
                if !matches!(kind, RecKind::Clr { .. }) =>
            {
                Some((*table, *rid))
            }
            _ => None,
        };
        let mut txs = self.txs.lock();
        let state = txs.get_mut(&tx).ok_or(Error::TxNotActive(tx))?;
        let lsn = self.wal.append(tx, state.last, kind, payload);
        if !state.last.is_valid() {
            state.first = lsn;
        }
        state.last = lsn;
        state.holds.extend(hold);
        if state.builder {
            self.wal.stats.ib_records.bump();
        }
        Ok(lsn)
    }

    /// Commit: log, force the log, then end.
    pub fn commit(&self, tx: TxId) -> Result<()> {
        let lsn = self.log(tx, RecKind::RedoOnly, LogPayload::TxCommit)?;
        self.wal.flush_to(lsn);
        self.end(tx);
        Ok(())
    }

    /// `tx` ended: forget it, release the slots its deletes reserved
    /// and the bytes its updates and undo steps held, then its locks.
    fn end(&self, tx: TxId) {
        let holds = self.txs.lock().remove(&tx).map(|state| state.holds);
        for (table, rid) in holds.unwrap_or_default() {
            if let Ok(t) = self.table(table) {
                let _ = t.release_slot(rid);
            }
        }
        self.locks.release_all(tx);
    }

    /// Roll back: undo the whole chain with CLRs, then end — the undo
    /// pass restart runs over its losers, for one transaction.
    pub fn rollback(&self, tx: TxId) -> Result<()> {
        let last = self.log(tx, RecKind::RedoOnly, LogPayload::TxAbort)?;
        mohan_wal::undo(&self.wal, self, [(tx, last)]).inspect_err(|e| {
            // The transaction stays open with its locks held: undo
            // stopped part-way, so nothing it touched may be let go.
            // Say so where an operator will see it.
            self.obs.counter("tx.rollback_failed").bump();
            self.obs
                .trace()
                .event("tx.rollback_failed", e.to_string(), tx.0);
        })
    }

    /// IB helper: commit the current builder transaction and open the
    /// next one (periodic checkpoint commits, §2.2.3 / §3.2.5).
    pub(crate) fn ib_commit_cycle(&self, tx: &mut TxId) -> Result<()> {
        self.commit(*tx)?;
        *tx = self.begin_ib();
        Ok(())
    }

    // ----- checkpoint / crash / restart --------------------------------

    /// Engine checkpoint: force the log, then every dirty page of
    /// every table and index, write a checkpoint record, and truncate
    /// the log below the oldest record restart, rollback, an open
    /// side-file or a WAL subscriber still needs. Writers are not held
    /// up: a page a writer changed after the log flush is written once
    /// the log is forced through its LSN (the WAL rule), not refused.
    /// Refused between [`Db::simulate_crash`] and the end of
    /// [`Db::restart`], where a checkpoint record would tell restart to
    /// skip redo it has not done. Counted in `checkpoint.count` or
    /// `checkpoint.failed`, timed in `checkpoint.us`. A completed
    /// checkpoint then removes the cancelled descriptors of every table
    /// no writer holds, still behind the gate: a crash waits it out, so
    /// none lands between the sweep's table lock and its removal, where
    /// restart's undo would find a loser's counted index gone.
    pub fn checkpoint(&self) -> Result<()> {
        self.failpoints.hit(CHECKPOINT_BEGIN_FAILPOINT)?;
        let started = Instant::now();
        let outcome = {
            let _gate = self.checkpoint_gate.lock();
            if self.recovering.load(Ordering::Acquire) {
                Err(Error::InvalidArg(
                    "no checkpoint between a crash and the end of restart".into(),
                ))
            } else {
                self.checkpoint_locked()
                    .inspect(|()| self.sweep_cancelled())
            }
        };
        match outcome {
            Ok(()) => {
                self.obs.counter("checkpoint.count").bump();
                self.obs
                    .histogram("checkpoint.us")
                    .record_micros(started.elapsed());
            }
            Err(_) => self.obs.counter("checkpoint.failed").bump(),
        }
        outcome
    }

    fn checkpoint_locked(&self) -> Result<()> {
        self.checkpointer.mark(self.wal.stats.bytes.get());
        self.wal.flush_all();
        let flushed = self.wal.flushed_lsn();
        let tables: Vec<Arc<HeapTable>> = self.tables.read().values().cloned().collect();
        let mut pacer = Ticker::new(OPS_PER_PACE);
        for t in &tables {
            t.cache.force_all(&self.wal, || pacer.tick())?;
        }
        let indexes = self.indexes.read().clone();
        for i in &indexes {
            i.tree.force_all(&self.wal)?;
        }
        self.failpoints.hit(CHECKPOINT_FORCED_FAILPOINT)?;
        // Redo after a crash may start at the flushed horizon.
        let lsn = self.wal.append(
            TxId(0),
            Lsn::NULL,
            RecKind::RedoOnly,
            LogPayload::Checkpoint {
                redo_start: flushed,
            },
        );
        self.wal.flush_to(lsn);
        // Restart redoes from `redo_start` + 1, and rollback and
        // restart undo walk every active transaction back to its first
        // record. A transaction that begins after this read gets LSNs
        // above `flushed`; one still active at a later crash either
        // began after it or is in it. The log keeps what its pins hold
        // as well (WAL subscribers, open side-files).
        let floor = self
            .txs
            .lock()
            .values()
            .map(|span| span.first)
            .fold(Lsn(flushed.0 + 1), Lsn::min);
        self.wal.truncate_below(floor);
        Ok(())
    }

    /// Simulated system failure: every volatile structure is dropped.
    /// A checkpoint in progress is waited out (the crash is
    /// quiescent, like every other worker's), and none runs again
    /// until [`Db::restart`] has finished.
    pub fn simulate_crash(&self) {
        let _gate = self.checkpoint_gate.lock();
        self.recovering.store(true, Ordering::Release);
        self.wal.crash();
        self.locks.crash();
        self.txs.lock().clear();
        for t in self.tables.read().values() {
            t.crash();
        }
        for i in self.indexes.read().iter() {
            i.tree.cache.crash();
            i.side_file.crash();
            i.sort_store.crash();
        }
    }

    /// ARIES restart after [`Db::simulate_crash`]: restore catalog
    /// state, then analysis, redo from the last checkpoint's
    /// `redo_start`, undo and the reserved-slot sweep. Interrupted NSF
    /// and SF builds stay in their building state; call
    /// [`crate::build::resume_build`] to finish them. The offline
    /// baseline restarts from scratch: once undo has ended every loser,
    /// an unfinished offline build is cancelled, and every cancelled
    /// descriptor goes with its build records.
    pub fn restart(&self) -> Result<RecoveryStats> {
        self.load_catalog()?;
        let stats = self.recover(mohan_wal::checkpoint_redo_start(&self.wal))?;
        self.cancel_unfinished(|idx| idx.algorithm == BuildAlgorithm::Offline);
        self.recovering.store(false, Ordering::Release);
        Ok(stats)
    }

    /// Cancel every unfinished build whose index `which` picks, then
    /// remove every cancelled descriptor (restart and promotion, after
    /// undo).
    fn cancel_unfinished(&self, which: impl Fn(&IndexRuntime) -> bool) {
        for idx in self.indexes.read().iter() {
            if idx.state() != IndexState::Complete && which(idx) {
                idx.cancel();
            }
        }
        self.remove_cancelled(None);
    }

    /// Analysis, redo of the records after `redo_start`, and undo; then
    /// number new transactions above every id in the log, and free the
    /// slots still reserved — the losers' deletes were rolled back
    /// (records restored), so each belongs to a committed deleter.
    fn recover(&self, redo_start: Lsn) -> Result<RecoveryStats> {
        let stats = mohan_wal::recover(&self.wal, self, redo_start)?;
        self.next_tx.fetch_max(stats.max_tx.0 + 1, Ordering::AcqRel);
        for t in self.tables.read().values() {
            t.sweep_reserved()?;
        }
        Ok(stats)
    }

    // ----- replication role --------------------------------------------

    /// True while the engine is a replication follower: set by
    /// [`Db::set_replica`], cleared by [`Db::promote_to_primary`].
    #[must_use]
    pub fn is_replica(&self) -> bool {
        self.replica.load(Ordering::Acquire)
    }

    /// Set the engine's role (a follower sets it as it starts).
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

    /// The one staleness rule for follower reads: the replication lag,
    /// when this engine is a follower and the lag exceeds
    /// `max_lag_lsn`. Counts nothing.
    #[must_use]
    pub fn stale_lag(&self, max_lag_lsn: u64) -> Option<u64> {
        let lag = self.repl_lag();
        (self.is_replica() && lag > max_lag_lsn).then_some(lag)
    }

    /// Run one read under the staleness rule. A stale follower refuses
    /// it with [`Error::ReplicaStale`] before it runs (counted in
    /// `repl.reads_rejected_stale`); otherwise the read's own result
    /// comes back, and one that succeeds on a follower is counted in
    /// `repl.reads_served`.
    pub fn follower_read<T, E>(
        &self,
        max_lag_lsn: u64,
        read: impl FnOnce() -> std::result::Result<T, E>,
    ) -> Result<std::result::Result<T, E>> {
        if let Some(lag) = self.stale_lag(max_lag_lsn) {
            self.reads_stale.bump();
            return Err(Error::ReplicaStale { lag });
        }
        let out = read();
        if out.is_ok() && self.is_replica() {
            self.reads_served.bump();
        }
        Ok(out)
    }

    /// Promote a replication follower to primary: the rest of the
    /// restart its apply thread has been running. The follower redid
    /// every record of its mirrored log, so redo starts at the log's
    /// tail and offers nothing; analysis finds the old primary's
    /// in-flight transactions and undo rolls them back with CLRs.
    /// Builds still in flight are cancelled (§2.3.2): their progress
    /// records and runs stayed in the old primary's blob store, so
    /// nothing can resume them. With undo done, their descriptors go,
    /// and so do those the old primary had cancelled. Then the role
    /// flips and writes are accepted. The caller must have stopped the
    /// WAL subscription first — nothing may be applying records
    /// concurrently.
    pub fn promote_to_primary(&self) -> Result<RecoveryStats> {
        self.wal.flush_all();
        let stats = self.recover(self.wal.tail_lsn())?;
        self.cancel_unfinished(|_| true);
        self.set_replica(false);
        self.set_repl_lag(0);
        Ok(stats)
    }

    // ----- visibility planning (Figures 1 and 2) ----------------------

    /// Under the data-page latch: every index of the table with the
    /// mechanism `change` reaches it through, `None` for one it must
    /// not touch, and the count of visible indexes to log, judged on
    /// [`Change::probe`]. Forward (`undo` is `None`) this is
    /// Figure 1. Rolling back a change logged at `rec_lsn` with
    /// `logged_count` visible indexes (`undo` is `Some`), the
    /// mechanisms are Figure 2's compensations. A §6.2 key-cursor
    /// index under construction is planned through the side-file, and
    /// [`Db::maintain`] judges each of its key ops on its own image. A
    /// cancelled index keeps its position and counts as visible, as it
    /// did while it was built, so every later index keeps the position
    /// the counts were logged against; no change reaches it.
    pub(crate) fn plan(&self, change: Change<'_>, undo: Option<(u32, Lsn)>) -> (u32, Plan) {
        let mut count = 0u32;
        let mut plan = Vec::new();
        let idxs: Vec<_> = self
            .indexes
            .read()
            .iter()
            .filter(|i| i.def.table == change.table)
            .cloned()
            .collect();
        for (p, idx) in idxs.into_iter().enumerate() {
            let p = p as u32;
            let state = idx.state();
            let visible =
                state != IndexState::SfBuilding || idx.sf_visible(change.rid, change.probe());
            count += u32::from(visible);
            let mech = match (state, undo) {
                (IndexState::Cancelled, _) => None,
                // Invisible: the IB's (re)scan will extract the state
                // the change leaves.
                (IndexState::SfBuilding, _) => {
                    (visible || idx.key_cursor.is_some()).then_some(Mechanism::SideFile)
                }
                (_, None) => Some(Mechanism::Direct),
                // Only reachable in the no-quiesce extension: the index
                // appeared after the forward op. Otherwise the
                // transaction logged its own index operations and the
                // undo driver handles them.
                (IndexState::NsfBuilding, Some((logged_count, _))) => {
                    (p >= logged_count).then_some(Mechanism::Direct)
                }
                // Became visible since the original data change:
                // traverse the tree (Figure 2). Or forward maintenance
                // went through the (now drained) side-file: compensate
                // directly. Otherwise the transaction's own index log
                // records carry the undo.
                (IndexState::Complete, Some((logged_count, rec_lsn))) => (p >= logged_count
                    || idx.algorithm == BuildAlgorithm::Sf && rec_lsn < idx.completed_lsn())
                .then_some(Mechanism::Direct),
            };
            plan.push((idx, mech));
        }
        (count, plan)
    }

    /// Figure 2 for one record: undo `change`, logged with
    /// `logged_count` visible indexes by `rec`, and log its inverse as
    /// `rec`'s CLR; then compensate every index the plan names with the
    /// inverse's key ops.
    fn undo_change(&self, rec: &LogRecord, change: Change<'_>, logged_count: u32) -> Result<()> {
        let tbl = self.table(change.table)?;
        let mut plan = Vec::new();
        let log = || {
            let count;
            (count, plan) = self.plan(change, Some((logged_count, rec.lsn)));
            self.clr(rec, change.inverse().payload(count))
                .unwrap_or(Lsn::NULL)
        };
        match change.from {
            None => drop(tbl.undo_insert(change.rid, log)?),
            Some(old) => tbl.undo_restore(change.rid, old, log)?,
        }
        self.maintain(change.inverse(), &plan, |idx, mech, op| {
            self.compensate(rec.tx, idx, mech, op)
        })
    }

    /// Log `payload`, the inverse of `rec`, as `rec`'s CLR: the next
    /// record its transaction's undo visits is the one before `rec`.
    fn clr(&self, rec: &LogRecord, payload: LogPayload) -> Result<Lsn> {
        let undo_next = rec.prev;
        self.log(rec.tx, RecKind::Clr { undo_next }, payload)
    }

    // ----- index edits -------------------------------------------------

    /// Edit `entry` in `idx`'s tree: `decide` picks the change from what
    /// the leaf holds, and `log` appends its record, both under the
    /// leaf's X latch ([`mohan_btree::BTree::edit`]). Then, with no
    /// latch held, the [`INDEX_EDITED_FAILPOINT`].
    pub(crate) fn edit_index(
        &self,
        idx: &IndexRuntime,
        entry: &IndexEntry,
        mode: InsertMode,
        decide: impl FnOnce(Found) -> Edit,
        log: impl FnOnce(Found, Edit) -> Result<Lsn>,
    ) -> Result<(Found, Edit)> {
        let done = idx.tree.edit(entry, mode, decide, log)?;
        self.failpoints.hit(INDEX_EDITED_FAILPOINT)?;
        Ok(done)
    }

    /// Redo: apply `decide` to each of `entries` in `index`'s tree,
    /// logging nothing, if the index still exists. Index redo is
    /// logical: each decision is an idempotent absolute state.
    fn replay<'a>(
        &self,
        index: IndexId,
        entries: impl IntoIterator<Item = &'a IndexEntry>,
        mode: InsertMode,
        decide: Decide,
    ) -> Result<()> {
        if let Ok(idx) = self.index(index) {
            for entry in entries {
                idx.tree.edit(entry, mode, decide, unlogged)?;
            }
        }
        Ok(())
    }

    /// Bring the entry of `payload`, a one-entry index record, to the
    /// state the record states, and log it through `log` under the leaf
    /// latch — or only log it, if `idx` is gone: a rollback's
    /// compensations and the CLRs of undo.
    fn log_entry(
        &self,
        idx: Option<&IndexRuntime>,
        payload: LogPayload,
        log: impl FnOnce(LogPayload) -> Result<Lsn>,
    ) -> Result<()> {
        let (_, entry, decide) = entry_state(&payload).expect("a one-entry index record");
        let entry = entry.clone();
        match idx {
            Some(idx) => {
                let log = |_, _| log(payload);
                self.edit_index(idx, &entry, InsertMode::Transaction, decide, log)
                    .map(drop)
            }
            None => log(payload).map(drop),
        }
    }
}

/// A named `decide` for [`mohan_btree::BTree::edit`].
type Decide = fn(Found) -> Edit;

/// The index, the entry and the absolute state a one-entry index record
/// leaves that entry in, as the `decide` that makes it so: what redo
/// replays, and what a compensation applies. Index redo is logical, and
/// each state is idempotent. A take-over forward processing performed
/// is replayed as one: the live entry takes over any conflict.
fn entry_state(payload: &LogPayload) -> Option<(IndexId, &IndexEntry, Decide)> {
    match payload {
        LogPayload::IndexInsert { index, entry } | LogPayload::IndexReactivate { index, entry } => {
            Some((*index, entry, Edit::restore_live))
        }
        LogPayload::IndexPseudoDelete { index, entry }
        | LogPayload::IndexInsertTombstone { index, entry } => Some((*index, entry, Edit::pseudo)),
        LogPayload::IndexPhysicalDelete { index, entry, .. } => {
            Some((*index, entry, Edit::remove_any))
        }
        _ => None,
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        self.checkpointer.shutdown();
        self.workers.shutdown();
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
            payload @ (LogPayload::IndexInsert { .. }
            | LogPayload::IndexReactivate { .. }
            | LogPayload::IndexPseudoDelete { .. }
            | LogPayload::IndexInsertTombstone { .. }
            | LogPayload::IndexPhysicalDelete { .. }) => {
                let (index, entry, decide) = entry_state(payload).expect("a one-entry record");
                self.replay(index, [entry], InsertMode::Transaction, decide)
            }
            // The IB logs a batch *after* the tree changes it describes,
            // so a committed pseudo-delete logged in between has a
            // smaller LSN than the batch yet reflects a *later* tree
            // state: the batch makes its entries present, never live,
            // or it would resurrect that deleted key.
            LogPayload::IndexBulkInsert { index, entries } => {
                self.replay(*index, entries, InsertMode::Ib, Edit::present)
            }
            LogPayload::IndexBulkRemove { index, entries } => {
                self.replay(*index, entries, InsertMode::Transaction, Edit::remove_any)
            }
            LogPayload::CatalogUpdate { bytes } => {
                // A follower applies shipped DDL; a primary's restart
                // takes its catalog from the blob instead.
                if self.is_replica() {
                    self.apply_catalog_update(bytes)
                } else {
                    Ok(())
                }
            }
            // The log is the side-file: the drain reads the append
            // where it stands.
            LogPayload::SideFileAppend { .. }
            | LogPayload::TxBegin
            | LogPayload::TxCommit
            | LogPayload::TxAbort
            | LogPayload::TxEnd
            | LogPayload::Checkpoint { .. } => Ok(()),
        }
    }

    /// A loser becomes an open transaction like any other: its undo
    /// chains through `Db::log`, as a rollback's does.
    fn adopt(&self, tx: TxId, first: Lsn, last: Lsn) {
        let state = TxState {
            first,
            last,
            holds: Vec::new(),
            intents: Vec::new(),
            builder: false,
        };
        self.txs.lock().insert(tx, state);
    }

    fn undo(&self, rec: &LogRecord) -> Result<()> {
        if let Some((change, logged_count)) = Change::logged(&rec.payload) {
            return self.undo_change(rec, change, logged_count);
        }
        let clr = match &rec.payload {
            // §2.2.3: the deleter (here: the rolling-back inserter) does
            // not physically remove the key — it may already have been
            // extracted by the IB — it pseudo-deletes it.
            LogPayload::IndexInsert { index, entry }
            | LogPayload::IndexReactivate { index, entry } => LogPayload::IndexPseudoDelete {
                index: *index,
                entry: entry.clone(),
            },
            // Rollback of a delete puts the key back in the inserted
            // state (§2.2.3).
            LogPayload::IndexPseudoDelete { index, entry }
            | LogPayload::IndexInsertTombstone { index, entry } => LogPayload::IndexReactivate {
                index: *index,
                entry: entry.clone(),
            },
            LogPayload::IndexPhysicalDelete {
                index,
                entry,
                was_pseudo: true,
            } => LogPayload::IndexInsertTombstone {
                index: *index,
                entry: entry.clone(),
            },
            LogPayload::IndexPhysicalDelete { index, entry, .. } => LogPayload::IndexInsert {
                index: *index,
                entry: entry.clone(),
            },
            LogPayload::IndexBulkInsert { index, entries } => {
                // Undo only the entries that are still live: one a
                // committed deleter has pseudo-deleted since the IB
                // inserted it is that deleter's tombstone, and the
                // resumed IB relies on it to reject the stale key
                // (§2.2.3). The CLR lists only what was actually
                // removed so its redo cannot destroy a kept tombstone
                // after a second crash either. A removal published
                // before this CLR is harmless: after a crash, restart
                // redoes the batch and undoes it again (DESIGN §7
                // item 1).
                let mut removed = Vec::new();
                let if_live = |found| match found {
                    Found::Present { pseudo: false } => Edit::Remove,
                    _ => Edit::Keep,
                };
                if let Ok(idx) = self.index(*index) {
                    for e in entries {
                        let edit = idx
                            .tree
                            .edit(e, InsertMode::Transaction, if_live, unlogged)?;
                        if edit.1 == Edit::Remove {
                            removed.push(e.clone());
                        }
                    }
                }
                let clr = LogPayload::IndexBulkRemove {
                    index: *index,
                    entries: removed,
                };
                return self.clr(rec, clr).map(drop);
            }
            other => {
                return Err(Error::Corruption(format!(
                    "undo of non-undoable payload {other:?}"
                )))
            }
        };
        let idx = entry_state(&clr).and_then(|(index, ..)| self.index(index).ok());
        self.log_entry(idx.as_deref(), clr, |clr| self.clr(rec, clr))
    }

    /// Force the end record before the holds and locks go: rollback
    /// restored the deleted and updated records in place, each step
    /// keeping the record's hold so the next one fits.
    fn rolled_back(&self, tx: TxId) -> Result<()> {
        let end = self.log(tx, RecKind::RedoOnly, LogPayload::TxEnd)?;
        self.wal.flush_to(end);
        self.end(tx);
        Ok(())
    }
}

impl Db {
    /// Apply one compensation during rollback, through the right
    /// mechanism, logging it redo-only under the transaction.
    pub(crate) fn compensate(
        &self,
        tx: TxId,
        idx: &Arc<IndexRuntime>,
        mech: Mechanism,
        op: SideFileOp,
    ) -> Result<()> {
        if mech == Mechanism::SideFile && self.append_side_file(tx, idx, &op)? {
            return Ok(());
        }
        let (index, entry) = (idx.def.id, op.entry);
        let payload = if op.insert {
            LogPayload::IndexInsert { index, entry }
        } else {
            LogPayload::IndexPseudoDelete { index, entry }
        };
        self.log_entry(Some(idx), payload, |payload| {
            self.log(tx, RecKind::RedoOnly, payload)
        })
    }
}
