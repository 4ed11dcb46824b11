//! The index-build drivers: offline baseline, NSF (§2), SF (§3),
//! multi-index single-scan builds (§6.2), restart resume, and drop /
//! cancel (§2.3.2).

use crate::engine::Db;
use crate::progress::{self, BuildProgress, PartCheckpoint};
use crate::runtime::{IndexRuntime, IndexState};
use crate::schema::{BuildAlgorithm, IndexDef, Record};
use mohan_btree::{BulkLoader, InsertMode, InsertOutcome};
use mohan_common::pace::{pace, Ticker, KEYS_PER_PACE, OPS_PER_PACE};
use mohan_common::{
    EngineConfig, Error, IndexEntry, IndexId, Lsn, PageId, Result, Rid, SlotId, TableId, TxId,
};
use mohan_lock::{LockMode, LockName};
use mohan_sort::{
    ExternalSort, Merge, MergeCheckpoint, MergePassCheckpoint, RunFormation, SortCheckpoint,
};
use mohan_wal::{LogPayload, RecKind};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Times one build phase: on drop (success, error and crash paths
/// alike) the duration lands in the `build.phase_us.<label>` histogram
/// and a `build.phase` trace event, so the ring shows the scan → sort
/// → load/insert → drain → flip transitions in order.
struct PhaseTimer<'a> {
    db: &'a Db,
    label: &'static str,
    started: Instant,
}

impl<'a> PhaseTimer<'a> {
    fn new(db: &'a Db, label: &'static str) -> PhaseTimer<'a> {
        PhaseTimer {
            db,
            label,
            started: Instant::now(),
        }
    }
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        let d = self.started.elapsed();
        self.db
            .obs
            .histogram(&format!("build.phase_us.{}", self.label))
            .record_micros(d);
        self.db.obs.trace().span_event(
            "build.phase",
            self.label,
            d.as_micros().min(u128::from(u64::MAX)) as u64,
            0,
        );
    }
}

/// The page-forcing half of an IB checkpoint (§2.2.3, §3.2.4): flush
/// the log, then run `force` — a [`mohan_btree::BTree::force_all`] on
/// `idx`'s tree, directly or through the bulk loader — with the
/// flushed LSN. Its duration lands in the `build.checkpoint_us`
/// histogram and a `build.checkpoint` trace event whose detail is the
/// number of pages it wrote.
pub(crate) fn force_index_pages<R>(
    db: &Db,
    idx: &IndexRuntime,
    site: &'static str,
    force: impl FnOnce(Lsn) -> Result<R>,
) -> Result<R> {
    db.wal.flush_all();
    let forced_before = idx.tree.cache.stats.forces.get();
    let started = Instant::now();
    let out = force(db.wal.flushed_lsn())?;
    let d = started.elapsed();
    db.obs.histogram("build.checkpoint_us").record_micros(d);
    db.obs.trace().span_event(
        "build.checkpoint",
        site,
        d.as_micros().min(u128::from(u64::MAX)) as u64,
        idx.tree.cache.stats.forces.get() - forced_before,
    );
    Ok(out)
}

/// What the caller wants indexed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSpec {
    /// Index name.
    pub name: String,
    /// Key columns, in order.
    pub key_cols: Vec<usize>,
    /// Enforce key-value uniqueness.
    pub unique: bool,
}

/// How a build runs. One configuration type shared by every layer:
/// the engine API ([`build_indexes_with`] /
/// [`crate::Session::create_index_with`]), the wire protocol
/// (`Request::CreateIndex`), the native client, and SQL
/// `CREATE INDEX ... WITH (...)`.
///
/// The durable per-build options blob (`build/{id}/options`) records
/// the options a build started with, so a post-crash
/// [`resume_build`] keeps the same worker layout and intervals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildOptions {
    /// Worker threads for the scan + run-formation phase (≥ 1). The
    /// scan range is split into one contiguous page partition per
    /// worker; each partition checkpoints independently.
    pub parallel_workers: usize,
    /// Store sorted runs prefix-compressed (common-prefix truncation
    /// per block, decoded only when the merge reads them back).
    pub compress_runs: bool,
    /// Per-build override of [`EngineConfig::side_file_sorted_apply`]
    /// (`None` keeps the engine default).
    pub sort_side_file_drain: Option<bool>,
    /// Per-build override of every checkpoint interval — sort, merge
    /// and insert/load keys between checkpoints (`None` keeps the
    /// engine defaults).
    pub checkpoint_every: Option<usize>,
}

impl Default for BuildOptions {
    fn default() -> BuildOptions {
        BuildOptions {
            parallel_workers: 1,
            compress_runs: false,
            sort_side_file_drain: None,
            checkpoint_every: None,
        }
    }
}

impl BuildOptions {
    /// Engine defaults: serial, uncompressed, config-driven intervals.
    #[must_use]
    pub fn new() -> BuildOptions {
        BuildOptions::default()
    }

    /// Set the scan/sort worker count (clamped to at least 1).
    #[must_use]
    pub fn workers(mut self, n: usize) -> BuildOptions {
        self.parallel_workers = n.max(1);
        self
    }

    /// Enable / disable prefix-compressed run storage.
    #[must_use]
    pub fn compress(mut self, on: bool) -> BuildOptions {
        self.compress_runs = on;
        self
    }

    /// Override the sorted side-file drain pass.
    #[must_use]
    pub fn sorted_drain(mut self, on: bool) -> BuildOptions {
        self.sort_side_file_drain = Some(on);
        self
    }

    /// Override every checkpoint interval of the build.
    #[must_use]
    pub fn checkpoint_every(mut self, keys: usize) -> BuildOptions {
        self.checkpoint_every = Some(keys);
        self
    }

    fn validate(&self) -> Result<()> {
        if self.parallel_workers == 0 {
            return Err(Error::InvalidArg(
                "parallel_workers must be at least 1".into(),
            ));
        }
        if self.checkpoint_every == Some(0) {
            return Err(Error::InvalidArg(
                "checkpoint_every must be at least 1".into(),
            ));
        }
        Ok(())
    }

    pub(crate) fn sort_checkpoint_keys(&self, cfg: &EngineConfig) -> usize {
        self.checkpoint_every
            .unwrap_or(cfg.sort_checkpoint_every_keys)
    }

    pub(crate) fn merge_checkpoint_keys(&self, cfg: &EngineConfig) -> usize {
        self.checkpoint_every
            .unwrap_or(cfg.merge_checkpoint_every_keys)
    }

    pub(crate) fn ib_checkpoint_keys(&self, cfg: &EngineConfig) -> usize {
        self.checkpoint_every
            .unwrap_or(cfg.ib_checkpoint_every_keys)
    }

    pub(crate) fn sorted_apply(&self, cfg: &EngineConfig) -> bool {
        self.sort_side_file_drain
            .unwrap_or(cfg.side_file_sorted_apply)
    }

    /// Serialize for the durable options blob:
    /// `[u16 workers][u8 flags][u32 checkpoint_every, 0 = unset]`,
    /// flags bit 0 = compress, bit 1 = drain override present, bit 2 =
    /// drain override value.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(7);
        let w = self.parallel_workers.min(u16::MAX as usize) as u16;
        out.extend_from_slice(&w.to_be_bytes());
        let mut flags = 0u8;
        if self.compress_runs {
            flags |= 1;
        }
        if self.sort_side_file_drain.is_some() {
            flags |= 2;
        }
        if self.sort_side_file_drain == Some(true) {
            flags |= 4;
        }
        out.push(flags);
        let ce = self.checkpoint_every.unwrap_or(0).min(u32::MAX as usize) as u32;
        out.extend_from_slice(&ce.to_be_bytes());
        out
    }

    /// Deserialize; `None` on malformed bytes.
    #[must_use]
    pub fn decode(buf: &[u8]) -> Option<BuildOptions> {
        let workers = u16::from_be_bytes(buf.get(0..2)?.try_into().ok()?) as usize;
        let flags = *buf.get(2)?;
        let ce = u32::from_be_bytes(buf.get(3..7)?.try_into().ok()?) as usize;
        Some(BuildOptions {
            parallel_workers: workers.max(1),
            compress_runs: flags & 1 != 0,
            sort_side_file_drain: if flags & 2 != 0 {
                Some(flags & 4 != 0)
            } else {
                None
            },
            checkpoint_every: if ce == 0 { None } else { Some(ce) },
        })
    }
}

/// Build one index.
pub fn build_index(
    db: &Arc<Db>,
    table: TableId,
    spec: IndexSpec,
    algorithm: BuildAlgorithm,
) -> Result<IndexId> {
    Ok(build_indexes(db, table, &[spec], algorithm)?[0])
}

/// Build several indexes in **one scan of the data** (§6.2). Returns
/// their ids. On a unique-key violation every index of the batch is
/// cancelled; on an injected crash the builds stay resumable via
/// [`resume_build`].
pub fn build_indexes(
    db: &Arc<Db>,
    table: TableId,
    specs: &[IndexSpec],
    algorithm: BuildAlgorithm,
) -> Result<Vec<IndexId>> {
    build_indexes_with(db, table, specs, algorithm, &BuildOptions::default())
}

/// [`build_indexes`] with explicit [`BuildOptions`].
pub fn build_indexes_with(
    db: &Arc<Db>,
    table: TableId,
    specs: &[IndexSpec],
    algorithm: BuildAlgorithm,
    options: &BuildOptions,
) -> Result<Vec<IndexId>> {
    build_indexes_observed(db, table, specs, algorithm, options, |_| {})
}

/// [`build_indexes_with`] with an observer hook: `on_ids` fires once
/// the batch's index ids are allocated (descriptors registered for
/// NSF/SF, runtimes created for offline), before any scan work. An
/// observer — e.g. a server streaming progress frames — can then poll
/// [`progress::load`] for exactly these ids instead of guessing which
/// of the table's in-flight builds is this one.
pub fn build_indexes_observed(
    db: &Arc<Db>,
    table: TableId,
    specs: &[IndexSpec],
    algorithm: BuildAlgorithm,
    options: &BuildOptions,
    on_ids: impl FnOnce(&[IndexId]),
) -> Result<Vec<IndexId>> {
    if specs.is_empty() {
        return Err(Error::InvalidArg("no index specs".into()));
    }
    options.validate()?;
    db.build_sort_workers
        .observe(options.parallel_workers as u64);
    match algorithm {
        BuildAlgorithm::Offline => offline_build(db, table, specs, options, on_ids),
        BuildAlgorithm::Nsf | BuildAlgorithm::Sf => {
            let idxs = create_descriptors(db, table, specs, algorithm)?;
            let ids: Vec<IndexId> = idxs.iter().map(|i| i.def.id).collect();
            for idx in &idxs {
                idx.configure_run_store(options.compress_runs);
                progress::store_options(db, idx.def.id, options);
            }
            on_ids(&ids);
            match run_from_scratch(db, &idxs, options) {
                Ok(()) => Ok(ids),
                Err(e) if e.is_crash() => Err(e),
                Err(e) => {
                    cancel_builds(db, &idxs)?;
                    Err(e)
                }
            }
        }
    }
}

/// Continue an interrupted build after [`Db::restart`], with the
/// [`BuildOptions`] the build was started with (from the durable
/// options blob).
pub fn resume_build(db: &Arc<Db>, id: IndexId) -> Result<()> {
    let idx = db.index(id)?;
    if idx.state() == IndexState::Complete {
        return Ok(());
    }
    let options = progress::load_options(db, id);
    idx.configure_run_store(options.compress_runs);
    let result = resume_one(db, &idx, &options);
    match result {
        Ok(()) => Ok(()),
        Err(e) if e.is_crash() => Err(e),
        Err(e) => {
            cancel_builds(db, std::slice::from_ref(&idx))?;
            Err(e)
        }
    }
}

/// Drop a completed index (or abandon one mid-build from the outside):
/// quiesce updates with a table S lock (footnote 6), then remove the
/// descriptor.
pub fn drop_index(db: &Arc<Db>, id: IndexId) -> Result<()> {
    let idx = db.index(id)?;
    let tx = db.begin();
    db.locks
        .lock(tx, LockName::Table(idx.def.table), LockMode::S)?;
    db.unregister_index(id);
    progress::clear(db, id);
    db.commit(tx)
}

// ===================================================================
// descriptor creation
// ===================================================================

fn make_runtime(
    db: &Db,
    table: TableId,
    spec: &IndexSpec,
    algorithm: BuildAlgorithm,
    state: IndexState,
) -> Arc<IndexRuntime> {
    let def = IndexDef {
        id: db.next_index_id(),
        name: spec.name.clone(),
        table,
        unique: spec.unique,
        key_cols: spec.key_cols.clone(),
    };
    Arc::new(IndexRuntime::new(def, algorithm, state, &db.cfg))
}

/// Create and register the descriptors, then fix the scan bound.
/// NSF: short quiesce (table S lock) around it so no update
/// transaction straddles it (§2.2.1) — or the §3.2.3 no-quiesce
/// alternative, where transactions straddling the creation are
/// compensated via the visible-index-count comparison at rollback.
/// SF: no quiesce (§3.2.1).
///
/// The order matters (§2.3.1, §3.2.1): every record must be on a page
/// at or below the bound, or have been written by a transaction that
/// already saw the index. Fixing the bound first and registering second
/// loses an insert that allocates a fresh data page in between: above
/// the bound, so never scanned; before the registration, so never
/// maintained. The `build.registered` failpoint sits between the two
/// steps (tests put exactly that insert there).
fn create_descriptors(
    db: &Arc<Db>,
    table: TableId,
    specs: &[IndexSpec],
    algorithm: BuildAlgorithm,
) -> Result<Vec<Arc<IndexRuntime>>> {
    let tbl = db.table(table)?;
    let state = match algorithm {
        BuildAlgorithm::Nsf => IndexState::NsfBuilding,
        BuildAlgorithm::Sf => IndexState::SfBuilding,
        BuildAlgorithm::Offline => unreachable!("offline uses offline_build"),
    };
    let quiesce_tx = if algorithm == BuildAlgorithm::Nsf && db.cfg.nsf_descriptor_quiesce {
        let tx = db.begin();
        db.locks.lock(tx, LockName::Table(table), LockMode::S)?;
        Some(tx)
    } else {
        None
    };
    let mut out = Vec::with_capacity(specs.len());
    for spec in specs {
        let rt = make_runtime(db, table, spec, algorithm, state);
        force_empty_tree(db, &rt)?;
        db.register_index(Arc::clone(&rt));
        out.push(rt);
    }
    db.failpoints.hit("build.registered")?;
    for rt in &out {
        publish_scan_bounds(rt, &tbl);
    }
    // The catalog written at registration has no bound yet.
    db.persist_catalog();
    if let Some(tx) = quiesce_tx {
        // End the quiesce: update transactions may run again.
        db.commit(tx)?;
    }
    Ok(out)
}

/// Descriptor creation is a durable catalog update: force the empty
/// tree (anchor + root) so restart always finds a structurally valid
/// index to recover into.
pub(crate) fn force_empty_tree(db: &Db, rt: &IndexRuntime) -> Result<()> {
    force_index_pages(db, rt, "create", |flushed| rt.tree.force_all(flushed))
}

/// Note the last data page before the scan starts (§2.3.1): records
/// added to later pages are the transactions' responsibility.
///
/// With updaters running (SF, and NSF without its quiesce) one read of
/// the page count is not enough: allocating a page is a lock-free
/// `fetch_add`, so a transaction can allocate page *n* after this
/// thread read a count of *n* and evaluate `sf_visible` before the
/// bound is stored. So the bound is published and the count read again
/// until it has not moved: an allocation either precedes the last read,
/// and is inside the bound, or follows a store it must observe, and is
/// side-filed. (Store-then-load here against add-then-load there needs
/// a single order over all four, hence `SeqCst` on the bound, the
/// cursor's end mark and the page count.) A page covered twice — bound
/// raised over a page whose insert already went to the side-file — is
/// the over-visibility a post-crash rescan produces, absorbed by
/// duplicate rejection at drain.
fn publish_scan_bounds(rt: &IndexRuntime, tbl: &mohan_heap::HeapTable) {
    loop {
        let pages = tbl.num_pages();
        if pages == 0 {
            // Nothing to scan: every page yet to come is past the end.
            rt.set_scan_end(PageId(u32::MAX));
            rt.finish_scan();
        } else {
            rt.set_scan_end(PageId(pages - 1));
        }
        if tbl.num_pages() == pages {
            return;
        }
    }
}

// ===================================================================
// the build pipeline
// ===================================================================

fn run_from_scratch(db: &Arc<Db>, idxs: &[Arc<IndexRuntime>], opts: &BuildOptions) -> Result<()> {
    let runs = parallel_scan_and_sort(db, idxs, &vec![None; idxs.len()], opts)?;
    for (idx, idx_runs) in idxs.iter().zip(runs) {
        let finals = reduce_phase(db, idx, idx_runs, None, opts)?;
        enter_final_phase(db, idx, finals, opts)?;
    }
    Ok(())
}

fn resume_one(db: &Arc<Db>, idx: &Arc<IndexRuntime>, opts: &BuildOptions) -> Result<()> {
    match progress::load(db, idx.def.id)? {
        None => {
            // Crash before the first sort checkpoint: start over. If it
            // came between registration and the bound's publication,
            // publish it now (restart made every record visible, so
            // any bound that covers the table will do).
            if idx.scan_end() == PageId(u32::MAX) {
                publish_scan_bounds(idx, &*db.table(idx.def.table)?);
                db.persist_catalog();
            }
            run_from_scratch(db, std::slice::from_ref(idx), opts)
        }
        Some(BuildProgress::ScanningParallel { parts }) => {
            let runs = parallel_scan_and_sort(db, std::slice::from_ref(idx), &[Some(parts)], opts)?;
            let finals = reduce_phase(db, idx, runs.into_iter().next().expect("one"), None, opts)?;
            enter_final_phase(db, idx, finals, opts)
        }
        Some(BuildProgress::Reducing { pass }) => {
            let finals = reduce_phase(db, idx, Vec::new(), Some(pass), opts)?;
            enter_final_phase(db, idx, finals, opts)
        }
        Some(BuildProgress::Loading { merge, bulk }) => {
            sf_load_phase(db, idx, merge, Some(bulk), opts)?;
            sf_drain_phase(db, idx, 0, opts)
        }
        Some(BuildProgress::Inserting { merge, inserted }) => {
            nsf_insert_phase(db, idx, merge, inserted, opts)
        }
        Some(BuildProgress::Draining { pos }) => sf_drain_phase(db, idx, pos, opts),
    }
}

/// The scan's under-latch hook (§3.2.2): with page `page` S-latched
/// and its records copied, advance every SF index's Current-RID past
/// every slot the page could ever hold. The keys of the copied records
/// are the IB's from here on; whatever changes the page once the latch
/// drops — an update or delete of a copied record, or an insert into
/// the page's free space, which a last-record cursor would leave above
/// itself and lose — compares below the cursor under the page's X latch
/// and goes to the side-file.
fn advance_current_rid(idxs: &[Arc<IndexRuntime>], page: PageId) {
    for idx in idxs {
        if idx.algorithm == BuildAlgorithm::Sf {
            idx.set_current_rid(Rid {
                page,
                slot: SlotId(u16::MAX),
            });
        }
    }
}

/// Persist one [`BuildProgress::ScanningParallel`] record per index
/// from the combined per-worker checkpoint state. Callers hold the
/// state lock, so concurrent workers never interleave half-updated
/// records.
fn persist_parallel_parts(
    db: &Db,
    idxs: &[Arc<IndexRuntime>],
    parts: &[(u32, u32)],
    state: &[Vec<SortCheckpoint<IndexEntry>>],
) {
    for (i, idx) in idxs.iter().enumerate() {
        let pcs: Vec<PartCheckpoint> = parts
            .iter()
            .enumerate()
            .map(|(w, &(lo, hi))| PartCheckpoint {
                lo,
                hi,
                sort: state[i][w].clone(),
            })
            .collect();
        progress::store(
            db,
            idx.def.id,
            &BuildProgress::ScanningParallel { parts: pcs },
        );
    }
}

/// Scan the data pages once, feeding every index's run formation.
/// The scan range is split into one contiguous page partition per
/// worker (`opts.parallel_workers`; a sole partition runs on the
/// calling thread), and each worker runs its own §5.1 replacement
/// selection per index into the index's shared run store. Checkpoints
/// are per-partition ([`PartCheckpoint`]): each worker's checkpoint is
/// a valid serial restart point for its page range, so a crash resumes
/// every worker from its own position (re-using the checkpointed
/// partition table; `resumes[i]` repositions index `i`).
///
/// Safety of the §3.2.2 visibility rule under out-of-order page
/// completion: Current-RID only ever advances (`fetch_max`), so a
/// worker finishing a *later* partition first makes records in
/// still-unscanned earlier partitions conservatively visible. Their
/// updates go straight to the index/side-file *and* their keys are
/// extracted by the scan — the same over-visibility the post-crash
/// conservative rescan produces, absorbed the same way: duplicate
/// inserts are rejected and missing-key deletes are no-ops at drain.
///
/// The §6.2 multi-index batch rides the same partitioned scan: one
/// worker feeds every index's sorter for its page range.
fn parallel_scan_and_sort(
    db: &Arc<Db>,
    idxs: &[Arc<IndexRuntime>],
    resumes: &[Option<Vec<PartCheckpoint>>],
    opts: &BuildOptions,
) -> Result<Vec<Vec<u64>>> {
    let _phase = PhaseTimer::new(db, "scan");
    let table = db.table(idxs[0].def.table)?;
    let ws = db.cfg.sort_workspace_keys;
    let cp_every = opts.sort_checkpoint_keys(&db.cfg);
    let scan_end = idxs[0].scan_end();
    let empty = scan_end == PageId(u32::MAX) || table.num_pages() == 0;

    // Partition table: a resume re-uses the checkpointed partitions
    // (they define which runs belong to which worker); a fresh build
    // splits the scan range evenly.
    let parts: Vec<(u32, u32)> = match resumes.iter().flatten().next() {
        // A checkpoint from before partitions existed covers "to the
        // end of the scan", whatever that was: clamp to the bound.
        Some(cps) => cps.iter().map(|p| (p.lo, p.hi.min(scan_end.0))).collect(),
        None if empty => vec![(0, 0)],
        None => {
            let pages = u64::from(scan_end.0) + 1;
            let w = (opts.parallel_workers as u64).min(pages).max(1);
            let chunk = pages / w;
            let rem = pages % w;
            let mut out = Vec::with_capacity(w as usize);
            let mut lo = 0u64;
            for i in 0..w {
                let len = chunk + u64::from(i < rem);
                out.push((lo as u32, (lo + len - 1) as u32));
                lo += len;
            }
            out
        }
    };
    let nw = parts.len();
    db.build_sort_workers.observe(nw as u64);

    // One RunFormation per (worker, index). Resumed workers reposition
    // via `resume_keeping`, preserving every sibling partition's
    // checkpointed runs in the shared store; runs no checkpoint knows
    // (flushed after the last checkpoint, then lost to the crash) are
    // deleted once here.
    let mut worker_rfs: Vec<Vec<RunFormation<IndexEntry>>> = Vec::with_capacity(nw);
    let mut worker_floors: Vec<Vec<u64>> = Vec::with_capacity(nw);
    let mut cp_init: Vec<Vec<SortCheckpoint<IndexEntry>>> = vec![Vec::new(); idxs.len()];
    for w in 0..nw {
        let mut row = Vec::with_capacity(idxs.len());
        let mut frow = Vec::with_capacity(idxs.len());
        for (i, idx) in idxs.iter().enumerate() {
            let store = idx.run_store();
            match &resumes[i] {
                Some(cps) => {
                    let preserve: Vec<u64> = cps
                        .iter()
                        .flat_map(|p| p.sort.runs.iter().map(|r| r.id))
                        .collect();
                    let cp = &cps[w].sort;
                    frow.push(cp.scan_pos);
                    cp_init[i].push(cp.clone());
                    row.push(RunFormation::resume_keeping(store, ws, cp, &preserve)?);
                }
                None => {
                    frow.push(0);
                    cp_init[i].push(SortCheckpoint {
                        runs: Vec::new(),
                        scan_pos: 0,
                        last_run_high: None,
                    });
                    row.push(RunFormation::new(store, ws));
                }
            }
        }
        worker_rfs.push(row);
        worker_floors.push(frow);
    }

    let stop = AtomicBool::new(false);
    let first_err: Mutex<Option<Error>> = Mutex::new(None);
    // cp_state[i][w]: index `i`'s latest checkpoint for partition `w`.
    let cp_state = Mutex::new(cp_init);

    // One partition's scan: feed `rfs` (one sorter per index) from the
    // pages `parts[w]`, checkpointing every `cp_every` records.
    let scan_part = |w: usize, mut rfs: Vec<RunFormation<IndexEntry>>, floors: Vec<u64>| {
        let (lo, hi) = parts[w];
        // Resume strictly after the checkpointed position. Scan
        // positions are `rid.pack() + 1` so that position 0
        // unambiguously means "nothing fed" (RID (0,0) packs to 0). A
        // fresh partition starts just before its first page: every RID
        // of page `lo - 1` compares ≤ `from`, so only the under-latch
        // hook fires there — harmless, Current-RID only grows.
        let min_floor = floors.iter().copied().min().unwrap_or(0);
        let from = if min_floor > 0 {
            Some(Rid::unpack(min_floor - 1))
        } else if lo == 0 {
            None
        } else {
            Some(Rid {
                page: PageId(lo - 1),
                slot: SlotId(u16::MAX),
            })
        };
        let mut since_cp = 0usize;
        let r = table.scan_pages(
            from,
            PageId(hi),
            |rid, data| {
                if stop.load(Ordering::Relaxed) {
                    return Ok(false);
                }
                let rec = Record::decode(data)?;
                let pos = rid.pack() + 1;
                for (i, idx) in idxs.iter().enumerate() {
                    if pos > floors[i] {
                        let entry = idx.def.entry_of(&rec, rid)?;
                        rfs[i].push(entry, pos)?;
                    }
                }
                db.failpoints.hit("build.scan.record")?;
                since_cp += 1;
                if since_cp >= cp_every {
                    since_cp = 0;
                    let mut cps = Vec::with_capacity(idxs.len());
                    for rf in rfs.iter_mut() {
                        cps.push(rf.checkpoint()?);
                    }
                    let mut state = cp_state.lock();
                    for (i, cp) in cps.into_iter().enumerate() {
                        state[i][w] = cp;
                    }
                    persist_parallel_parts(db, idxs, &parts, &state);
                    db.failpoints.hit("build.scan")?;
                }
                Ok(true)
            },
            |page| advance_current_rid(idxs, page),
        );
        if let Err(e) = r {
            stop.store(true, Ordering::Relaxed);
            first_err.lock().get_or_insert(e);
        }
        rfs
    };
    if !empty {
        let work = worker_rfs.drain(..).zip(worker_floors.drain(..));
        worker_rfs = if nw == 1 {
            // No spawn: the build thread's name and trace context stay.
            work.map(|(row, floors)| scan_part(0, row, floors))
                .collect()
        } else {
            std::thread::scope(|s| {
                let scan_part = &scan_part;
                let handles: Vec<_> = work
                    .enumerate()
                    .map(|(w, (row, floors))| s.spawn(move || scan_part(w, row, floors)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("scan worker panicked"))
                    .collect()
            })
        };
    }
    if let Some(e) = first_err.into_inner() {
        return Err(e);
    }
    for idx in idxs {
        if idx.algorithm == BuildAlgorithm::Sf {
            idx.finish_scan();
        }
    }
    // Combined run set, partition order: deterministic input for the
    // merge (which is order-insensitive anyway — the total order on
    // `IndexEntry` makes the merged output identical to the serial
    // build's).
    let mut all_runs: Vec<Vec<u64>> = vec![Vec::new(); idxs.len()];
    for row in worker_rfs {
        for (i, rf) in row.into_iter().enumerate() {
            all_runs[i].extend(rf.finish()?);
        }
    }
    Ok(all_runs)
}

/// Reduce runs below the merge fan-in, persisting §5.2 checkpoints.
fn reduce_phase(
    db: &Arc<Db>,
    idx: &Arc<IndexRuntime>,
    runs: Vec<u64>,
    resume: Option<MergePassCheckpoint>,
    opts: &BuildOptions,
) -> Result<Vec<u64>> {
    let _phase = PhaseTimer::new(db, "reduce");
    let ext = ExternalSort {
        store: idx.run_store(),
        workspace: db.cfg.sort_workspace_keys,
        fan_in: db.cfg.merge_fan_in,
        checkpoint_every: opts.merge_checkpoint_keys(&db.cfg),
    };
    let id = idx.def.id;
    let mut persist = |cp: &MergePassCheckpoint| -> Result<()> {
        progress::store(db, id, &BuildProgress::Reducing { pass: cp.clone() });
        db.failpoints.hit("build.reduce")
    };
    match resume {
        Some(cp) => ext.resume_reduce(&cp, &mut persist),
        None => ext.reduce_runs(runs, &mut persist),
    }
}

/// Persist the initial final-phase progress record, then run it.
fn enter_final_phase(
    db: &Arc<Db>,
    idx: &Arc<IndexRuntime>,
    finals: Vec<u64>,
    opts: &BuildOptions,
) -> Result<()> {
    let merge_cp = MergeCheckpoint {
        counters: vec![0; finals.len()],
        inputs: finals,
        emitted: 0,
    };
    match idx.algorithm {
        BuildAlgorithm::Nsf => {
            progress::store(
                db,
                idx.def.id,
                &BuildProgress::Inserting {
                    merge: merge_cp.clone(),
                    inserted: 0,
                },
            );
            nsf_insert_phase(db, idx, merge_cp, 0, opts)
        }
        BuildAlgorithm::Sf => {
            sf_load_phase(db, idx, merge_cp, None, opts)?;
            sf_drain_phase(db, idx, 0, opts)
        }
        BuildAlgorithm::Offline => offline_load(db, idx, merge_cp),
    }
}

/// Mark the index complete: record the completion horizon, flip the
/// state, persist the catalog and drop the progress record.
fn complete_index(db: &Arc<Db>, idx: &Arc<IndexRuntime>, completed_at: Lsn) -> Result<()> {
    idx.set_completed_lsn(completed_at);
    idx.set_state(IndexState::Complete);
    db.obs
        .trace()
        .event("build.phase", "flip", u64::from(idx.def.id.0));
    db.persist_catalog();
    progress::clear(db, idx.def.id);
    force_index_pages(db, idx, "complete", |flushed| idx.tree.force_all(flushed))
}

// ===================================================================
// NSF: insert into the shared tree (§2.2.3)
// ===================================================================

fn nsf_insert_phase(
    db: &Arc<Db>,
    idx: &Arc<IndexRuntime>,
    merge_cp: MergeCheckpoint,
    mut inserted: u64,
    opts: &BuildOptions,
) -> Result<()> {
    let _phase = PhaseTimer::new(db, "insert");
    let cp_every = opts.ib_checkpoint_keys(&db.cfg);
    let store = idx.run_store();
    let mut merge = Merge::resume(&store, &merge_cp)?;
    let mut ib = db.begin_ib();
    let mut batch: Vec<IndexEntry> = Vec::with_capacity(db.cfg.ib_multi_key_batch);
    let mut since_cp = 0usize;
    let mut last_key: Option<mohan_common::KeyValue> = None;
    let mut pacer = Ticker::new(KEYS_PER_PACE);

    let result = (|| -> Result<()> {
        while let Some(entry) = merge.next() {
            // The previous key's `tree.insert` has returned: no latch.
            pacer.tick();
            db.failpoints.hit("nsf.insert.key")?;
            last_key = Some(entry.key.clone());
            match idx.tree.insert(entry.clone(), InsertMode::Ib)? {
                InsertOutcome::Inserted => batch.push(entry),
                InsertOutcome::DuplicateEntry { .. } => {
                    // Already present (a transaction beat the IB, or a
                    // committed deleter left a tombstone): rejected, no
                    // log record written (§2.2.3).
                }
                InsertOutcome::DuplicateKeyValue { existing, .. } => {
                    ib_resolve_unique(db, ib, idx, entry, existing)?;
                }
            }
            inserted += 1;
            since_cp += 1;
            if batch.len() >= db.cfg.ib_multi_key_batch {
                flush_ib_batch(db, ib, idx, &mut batch)?;
            }
            if since_cp >= cp_every {
                since_cp = 0;
                flush_ib_batch(db, ib, idx, &mut batch)?;
                // §2.2.3 periodic checkpointing: force the dirty index
                // pages, commit the inserts, record the position.
                force_index_pages(db, idx, "insert", |flushed| idx.tree.force_all(flushed))?;
                db.ib_commit_cycle(&mut ib)?;
                if db.cfg.nsf_gradual_reads {
                    // Footnote 3: everything at or below the committed
                    // high key is now readable.
                    if let Some(high) = &last_key {
                        idx.set_read_watermark(high.clone());
                    }
                }
                progress::store(
                    db,
                    idx.def.id,
                    &BuildProgress::Inserting {
                        merge: merge.checkpoint(),
                        inserted,
                    },
                );
                db.failpoints.hit("build.insert")?;
            }
        }
        flush_ib_batch(db, ib, idx, &mut batch)?;
        let completed_at = db.wal.tail_lsn();
        db.commit(ib)?;
        complete_index(db, idx, completed_at)
    })();

    if let Err(e) = &result {
        if !e.is_crash() {
            let _ = db.rollback(ib);
        }
    }
    result
}

/// Log one multi-key record for the batch (§2.3.1: "one log record
/// for multiple keys").
fn flush_ib_batch(
    db: &Db,
    ib: TxId,
    idx: &IndexRuntime,
    batch: &mut Vec<IndexEntry>,
) -> Result<()> {
    if batch.is_empty() {
        return Ok(());
    }
    db.log(
        ib,
        RecKind::UndoRedo,
        LogPayload::IndexBulkInsert {
            index: idx.def.id,
            entries: std::mem::take(batch),
        },
    )?;
    Ok(())
}

/// §2.2.3 IB unique arbitration: lock *both* records (share, instant),
/// re-verify the duplicate condition against the data pages, and abort
/// the build only if it genuinely holds.
fn ib_resolve_unique(
    db: &Arc<Db>,
    ib: TxId,
    idx: &Arc<IndexRuntime>,
    entry: IndexEntry,
    existing: Rid,
) -> Result<()> {
    for _ in 0..8 {
        db.locks
            .instant(ib, LockName::Record(idx.def.table, entry.rid), LockMode::S)?;
        db.locks
            .instant(ib, LockName::Record(idx.def.table, existing), LockMode::S)?;
        let own = db.record_key(idx, entry.rid)?;
        if own.as_ref() != Some(&entry.key) {
            // Our record vanished or changed key: skip this key; the
            // responsible transaction maintains the index itself.
            return Ok(());
        }
        let theirs = db.record_key(idx, existing)?;
        if theirs.as_ref() == Some(&entry.key) {
            // Both records committed with the same key value: a unique
            // index cannot be built on this table (§2.2.3).
            return Err(Error::UniqueViolation {
                index: idx.def.id,
                existing,
            });
        }
        // The conflicting entry is committed-dead: take it over.
        if idx.tree.unique_replace(&entry.key, existing, entry.rid)? {
            db.log(
                ib,
                RecKind::UndoRedo,
                LogPayload::IndexInsert {
                    index: idx.def.id,
                    entry,
                },
            )?;
            return Ok(());
        }
        // Raced away; re-attempt the plain insert.
        match idx.tree.insert(entry.clone(), InsertMode::Ib)? {
            InsertOutcome::Inserted => {
                db.log(
                    ib,
                    RecKind::UndoRedo,
                    LogPayload::IndexInsert {
                        index: idx.def.id,
                        entry,
                    },
                )?;
                return Ok(());
            }
            InsertOutcome::DuplicateEntry { .. } => return Ok(()),
            InsertOutcome::DuplicateKeyValue { .. } => {}
        }
    }
    Err(Error::Corruption(format!(
        "IB unique arbitration did not converge on {}",
        idx.def.id
    )))
}

// ===================================================================
// SF: bottom-up load + side-file drain (§3.2)
// ===================================================================

fn sf_load_phase(
    db: &Arc<Db>,
    idx: &Arc<IndexRuntime>,
    merge_cp: MergeCheckpoint,
    bulk_cp: Option<mohan_btree::BulkCheckpoint>,
    opts: &BuildOptions,
) -> Result<()> {
    let _phase = PhaseTimer::new(db, "load");
    let cp_keys = opts.ib_checkpoint_keys(&db.cfg);
    let store = idx.run_store();
    let mut merge = Merge::resume(&store, &merge_cp)?;
    let mut loader = match &bulk_cp {
        Some(cp) => BulkLoader::resume(&idx.tree, cp)?,
        None => {
            // Persist the phase transition before touching the tree.
            let init = loader_init_checkpoint(db, idx)?;
            progress::store(
                db,
                idx.def.id,
                &BuildProgress::Loading {
                    merge: merge.checkpoint(),
                    bulk: init.clone(),
                },
            );
            BulkLoader::resume(&idx.tree, &init)?
        }
    };
    let ib = db.begin_ib();
    let unique = idx.def.unique;
    let mut since_cp = 0usize;
    let mut pending: Option<IndexEntry> = None;
    let mut pacer = Ticker::new(KEYS_PER_PACE);

    let result = (|| -> Result<()> {
        loop {
            // The loader latches inside `append` only.
            pacer.tick();
            if since_cp >= cp_keys {
                // The unique-path lookahead may hold one consumed
                // entry; it can be flushed (making the merge counters
                // and the loader agree) unless an equal-key run is
                // still in flight.
                if let Some(p) = &pending {
                    if merge.peek().is_none_or(|e| e.key != p.key) {
                        loader.append(pending.take().expect("pending"))?;
                    }
                }
                if pending.is_none() {
                    since_cp = 0;
                    let bulk =
                        force_index_pages(db, idx, "load", |flushed| loader.checkpoint(flushed))?;
                    progress::store(
                        db,
                        idx.def.id,
                        &BuildProgress::Loading {
                            merge: merge.checkpoint(),
                            bulk,
                        },
                    );
                    db.failpoints.hit("build.load")?;
                }
            }
            let Some(entry) = merge.next() else { break };
            db.failpoints.hit("sf.load.key")?;
            since_cp += 1;
            if !unique {
                loader.append(entry)?;
                continue;
            }
            // Unique index: resolve runs of equal key values before
            // loading (both-committed ⇒ violation; committed-dead
            // entries are skipped).
            match pending.take() {
                None => pending = Some(entry),
                Some(prev) if prev.key != entry.key => {
                    loader.append(prev)?;
                    pending = Some(entry);
                }
                Some(prev) => {
                    let mut group = vec![prev, entry];
                    while merge.peek().is_some_and(|e| e.key == group[0].key) {
                        group.push(merge.next().expect("peeked"));
                        since_cp += 1;
                    }
                    if let Some(survivor) = resolve_unique_group(db, ib, idx, group)? {
                        loader.append(survivor)?;
                    }
                }
            }
        }
        if let Some(p) = pending.take() {
            loader.append(p)?;
        }
        force_index_pages(db, idx, "load", |flushed| loader.finish(flushed))?;
        db.commit(ib)?;
        progress::store(db, idx.def.id, &BuildProgress::Draining { pos: 0 });
        Ok(())
    })();

    if let Err(e) = &result {
        if !e.is_crash() {
            let _ = db.rollback(ib);
        }
    }
    result
}

/// An "empty loader" checkpoint used to enter the loading phase
/// deterministically even if a crash hits before the first real
/// checkpoint.
fn loader_init_checkpoint(db: &Db, idx: &IndexRuntime) -> Result<mohan_btree::BulkCheckpoint> {
    let loader = BulkLoader::new(&idx.tree)?;
    force_index_pages(db, idx, "load", |flushed| loader.checkpoint(flushed))
}

/// §2.2.3-style arbitration for a sorted group of equal keys during
/// the SF bulk load. Returns the surviving entry, if any.
fn resolve_unique_group(
    db: &Arc<Db>,
    ib: TxId,
    idx: &Arc<IndexRuntime>,
    group: Vec<IndexEntry>,
) -> Result<Option<IndexEntry>> {
    let mut survivor: Option<IndexEntry> = None;
    for e in group {
        db.locks
            .instant(ib, LockName::Record(idx.def.table, e.rid), LockMode::S)?;
        if db.record_key(idx, e.rid)?.as_ref() == Some(&e.key) {
            if let Some(s) = &survivor {
                return Err(Error::UniqueViolation {
                    index: idx.def.id,
                    existing: s.rid,
                });
            }
            survivor = Some(e);
        }
    }
    Ok(survivor)
}

pub(crate) fn sf_drain_phase(
    db: &Arc<Db>,
    idx: &Arc<IndexRuntime>,
    mut pos: u64,
    opts: &BuildOptions,
) -> Result<()> {
    let _phase = PhaseTimer::new(db, "drain");
    idx.side_file.set_drained(pos);
    let mut ib = db.begin_ib();
    // Each drained operation latches and unlatches inside
    // `apply_drain_op`; between two of them the IB holds only its own
    // transaction — until the final catch-up takes the quiesce lock,
    // which every writer waits for: no giving way from there on.
    let mut pacer = Ticker::new(OPS_PER_PACE);
    let result = (|| -> Result<()> {
        // First pass: optionally sort the backlog for clustered index
        // access, preserving the relative order of identical keys
        // (§3.2.5). Applied as one atomic IB transaction; a crash
        // repeats the pass.
        if opts.sorted_apply(&db.cfg) {
            let snapshot = idx.side_file.len();
            if snapshot > pos {
                let mut ops = idx.side_file.read(pos, (snapshot - pos) as usize);
                ops.sort_by(|a, b| a.entry.cmp(&b.entry)); // stable
                for op in ops {
                    apply_drain_op(db, ib, idx, op)?;
                    pacer.tick();
                    db.failpoints.hit("sf.drain.op")?;
                }
                db.ib_commit_cycle(&mut ib)?;
                pos = snapshot;
                idx.side_file.set_drained(pos);
                idx.side_file.drain_passes.bump();
                db.obs.trace().event("build.phase", "sf.drain.pass", pos);
                progress::store(db, idx.def.id, &BuildProgress::Draining { pos });
                db.failpoints.hit("build.drain")?;
            }
        }
        // Catch-up passes: drain the whole visible backlog each pass.
        // If sustained appends outpace the drain for several passes,
        // fall back to a short table quiesce for the final catch-up —
        // the paper assumes the IB eventually reaches the last entry
        // (§3.2.5); against adversarial unthrottled updaters that
        // assumption needs the same brief lock phase production online
        // DDL implementations use (see DESIGN.md).
        let mut nonempty_passes = 0u32;
        let mut quiesce_tx: Option<TxId> = None;
        let result2 = (|| -> Result<()> {
            loop {
                let backlog = idx.side_file.len().saturating_sub(pos) as usize;
                let batch = idx.side_file.read(pos, backlog.max(db.cfg.side_file_batch));
                if batch.is_empty() {
                    let completed_at = db.wal.tail_lsn();
                    if idx.side_file.try_close(pos) {
                        db.commit(ib)?;
                        return complete_index(db, idx, completed_at);
                    }
                    // An append slipped in between the read and the
                    // close: go round again.
                    if quiesce_tx.is_none() {
                        pace();
                    }
                    continue;
                }
                for op in batch {
                    apply_drain_op(db, ib, idx, op)?;
                    pos += 1;
                    idx.side_file.set_drained(pos);
                    if quiesce_tx.is_none() {
                        pacer.tick();
                    }
                    db.failpoints.hit("sf.drain.op")?;
                }
                db.ib_commit_cycle(&mut ib)?;
                db.obs.trace().event("build.phase", "sf.drain.pass", pos);
                progress::store(db, idx.def.id, &BuildProgress::Draining { pos });
                db.failpoints.hit("build.drain")?;
                nonempty_passes += 1;
                idx.side_file.drain_passes.bump();
                if nonempty_passes >= 3 && quiesce_tx.is_none() {
                    db.obs.trace().event("build.phase", "sf.drain.quiesce", pos);
                    let qtx = db.begin();
                    db.locks
                        .lock(qtx, LockName::Table(idx.def.table), LockMode::S)?;
                    quiesce_tx = Some(qtx);
                }
            }
        })();
        if let Some(qtx) = quiesce_tx {
            let _ = db.commit(qtx);
        }
        result2
    })();
    if let Err(e) = &result {
        if !e.is_crash() {
            let _ = db.rollback(ib);
        }
    }
    result
}

/// Apply one side-file entry "as a normal transaction would", with
/// undo-redo logging (§3.2.5). Inserts tolerate duplicates (crash
/// overlap with the rescan window); deletes tolerate missing keys.
///
/// Each operation is verified against the record's *current* state
/// first (the same data-page re-verification §2.2.3 uses for unique
/// checks): RID reuse can produce a stale entry — e.g. record A with
/// key K deleted at RID R (side-file `delete <K,R>`) and record B
/// re-inserted at R with the same derived key while *invisible* to
/// the side-file (different primary key, or the post-crash rescan
/// window). Applying the stale delete would remove B's perfectly
/// valid key. An operation that disagrees with the current record
/// state is skipped: whatever changed the record either appended a
/// later side-file entry (it was visible) or is covered by the IB's
/// own extraction.
fn apply_drain_op(
    db: &Arc<Db>,
    ib: TxId,
    idx: &Arc<IndexRuntime>,
    op: mohan_wal::SideFileOp,
) -> Result<()> {
    let current = db.record_key(idx, op.entry.rid)?;
    let record_has_key = current.as_ref() == Some(&op.entry.key);
    if op.insert != record_has_key {
        return Ok(());
    }
    if op.insert {
        match idx.tree.insert(op.entry.clone(), InsertMode::Transaction)? {
            InsertOutcome::Inserted => {
                db.log(
                    ib,
                    RecKind::UndoRedo,
                    LogPayload::IndexInsert {
                        index: idx.def.id,
                        entry: op.entry,
                    },
                )?;
            }
            InsertOutcome::DuplicateEntry { pseudo: true } => {
                idx.tree.set_pseudo(&op.entry, false)?;
                db.log(
                    ib,
                    RecKind::UndoRedo,
                    LogPayload::IndexReactivate {
                        index: idx.def.id,
                        entry: op.entry,
                    },
                )?;
            }
            InsertOutcome::DuplicateEntry { pseudo: false } => {}
            InsertOutcome::DuplicateKeyValue { existing, .. } => {
                ib_resolve_unique(db, ib, idx, op.entry, existing)?;
            }
        }
    } else {
        let was = idx.tree.lookup_exact(&op.entry)?;
        if let Some(state) = was {
            idx.tree.physical_delete(&op.entry)?;
            db.log(
                ib,
                RecKind::UndoRedo,
                LogPayload::IndexPhysicalDelete {
                    index: idx.def.id,
                    entry: op.entry,
                    was_pseudo: state.pseudo_deleted,
                },
            )?;
        }
    }
    Ok(())
}

// ===================================================================
// Offline baseline
// ===================================================================

/// The pre-paper way: quiesce *all* updates for the whole build.
fn offline_build(
    db: &Arc<Db>,
    table: TableId,
    specs: &[IndexSpec],
    opts: &BuildOptions,
    on_ids: impl FnOnce(&[IndexId]),
) -> Result<Vec<IndexId>> {
    let tx = db.begin();
    db.locks.lock(tx, LockName::Table(table), LockMode::S)?;
    let result = (|| -> Result<Vec<IndexId>> {
        let tbl = db.table(table)?;
        let mut idxs = Vec::with_capacity(specs.len());
        for spec in specs {
            let rt = make_runtime(
                db,
                table,
                spec,
                BuildAlgorithm::Offline,
                IndexState::Complete,
            );
            publish_scan_bounds(&rt, &tbl);
            rt.configure_run_store(opts.compress_runs);
            idxs.push(rt);
        }
        on_ids(&idxs.iter().map(|i| i.def.id).collect::<Vec<_>>());
        // One shared scan, unregistered runtimes: a crash leaves no
        // trace (the offline strategy is restart-from-scratch).
        let runs = parallel_scan_and_sort(db, &idxs, &vec![None; idxs.len()], opts)?;
        for (idx, idx_runs) in idxs.iter().zip(runs) {
            let finals = reduce_phase(db, idx, idx_runs, None, opts)?;
            let merge_cp = MergeCheckpoint {
                counters: vec![0; finals.len()],
                inputs: finals,
                emitted: 0,
            };
            offline_load(db, idx, merge_cp)?;
        }
        let ids = idxs.iter().map(|i| i.def.id).collect();
        for idx in idxs {
            idx.set_completed_lsn(db.wal.tail_lsn());
            progress::clear(db, idx.def.id);
            db.register_index(idx);
        }
        Ok(ids)
    })();
    match result {
        Ok(ids) => {
            db.commit(tx)?;
            Ok(ids)
        }
        Err(e) => {
            let _ = db.rollback(tx);
            Err(e)
        }
    }
}

/// Plain bottom-up load for the offline baseline (quiesced, so no
/// uniqueness races: adjacent equal keys are a straight violation).
fn offline_load(db: &Arc<Db>, idx: &Arc<IndexRuntime>, merge_cp: MergeCheckpoint) -> Result<()> {
    let store = idx.run_store();
    let merge = Merge::resume(&store, &merge_cp)?;
    let mut loader = BulkLoader::new(&idx.tree)?;
    let mut prev: Option<IndexEntry> = None;
    let mut pacer = Ticker::new(KEYS_PER_PACE);
    for entry in merge {
        pacer.tick();
        if idx.def.unique {
            if let Some(p) = &prev {
                if p.key == entry.key {
                    return Err(Error::UniqueViolation {
                        index: idx.def.id,
                        existing: p.rid,
                    });
                }
            }
        }
        prev = Some(entry.clone());
        loader.append(entry)?;
    }
    force_index_pages(db, idx, "load", |flushed| loader.finish(flushed))?;
    Ok(())
}

// ===================================================================
// cancel (§2.3.2)
// ===================================================================

/// Cancelling an in-progress build: quiesce updates (so rollbacks
/// never meet a half-vanished descriptor), then delete the descriptor
/// and all build state.
fn cancel_builds(db: &Arc<Db>, idxs: &[Arc<IndexRuntime>]) -> Result<()> {
    let tx = db.begin();
    db.locks
        .lock(tx, LockName::Table(idxs[0].def.table), LockMode::S)?;
    for idx in idxs {
        db.unregister_index(idx.def.id);
        progress::clear(db, idx.def.id);
        idx.tree.clear();
    }
    db.commit(tx)
}
