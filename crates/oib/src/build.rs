//! Index builds: offline baseline, NSF (§2), SF (§3), multi-index
//! single-scan builds (§6.2), restart resume, and drop / cancel
//! (§2.3.2).
//!
//! Every build goes one way: its descriptors register before its scan
//! (`create_descriptors`), it runs on a build worker through one
//! driver, `drive`, it completes only in `complete_index`, and a failed
//! one is cancelled only through `cancel_unless_crash`. The durable
//! progress record ([`BuildProgress`]) is the build's state, each phase
//! runs from its record alone, and a fresh build is a resume from the
//! empty record.

use crate::engine::Db;
use crate::progress::{self, BuildProgress, PartCheckpoint};
use crate::runtime::{IndexRuntime, IndexState, KeyCursor};
use crate::schema::{BuildAlgorithm, IndexDef, Record};
use mohan_btree::{BulkCheckpoint, BulkLoader, Edit, Found, InsertMode, InsertOutcome};
use mohan_common::pace::{pace, Ticker, KEYS_PER_PACE, OPS_PER_PACE};
use mohan_common::{Error, IndexEntry, IndexId, Lsn, PageId, Result, Rid, SlotId, TableId, TxId};
use mohan_lock::{LockMode, LockName};
use mohan_sort::{
    ExternalSort, Merge, MergeCheckpoint, MergePassCheckpoint, RunFormation, SortCheckpoint,
};
use mohan_wal::{LogManager, LogPayload, RecKind};
use mohan_wire::message::BuildPhase;
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
/// `idx`'s tree, directly or through the bulk loader — under the WAL
/// rule of the engine's log. Its duration lands in the
/// `build.checkpoint_us` histogram and a `build.checkpoint` trace event
/// whose detail is the number of pages it wrote.
pub(crate) fn force_index_pages<R>(
    db: &Db,
    idx: &IndexRuntime,
    site: &'static str,
    force: impl FnOnce(&LogManager) -> Result<R>,
) -> Result<R> {
    db.wal.flush_all();
    let forced_before = idx.tree.cache.stats.forces.get();
    let started = Instant::now();
    let out = force(&db.wal)?;
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

pub use mohan_common::config::{BuildOptions, IndexSpec, MAX_BUILD_WORKERS};

/// Build one index with the default [`BuildOptions`].
pub fn build_index(
    db: &Arc<Db>,
    table: TableId,
    spec: IndexSpec,
    algorithm: BuildAlgorithm,
) -> Result<IndexId> {
    Ok(build_indexes(db, table, &[spec], algorithm, &BuildOptions::default())?[0])
}

/// Build several indexes in **one scan of the data** (§6.2). Returns
/// their ids. On a unique-key violation every index of the batch is
/// cancelled; on an injected crash the builds stay resumable via
/// [`resume_build`].
///
/// The build runs on one of the engine's build workers
/// ([`crate::workers`]) while the caller waits; a panic in it is
/// raised again on the caller's thread.
pub fn build_indexes(
    db: &Arc<Db>,
    table: TableId,
    specs: &[IndexSpec],
    algorithm: BuildAlgorithm,
    options: &BuildOptions,
) -> Result<Vec<IndexId>> {
    let (specs, options) = (specs.to_vec(), *options);
    db.on_build_worker(move |db| build_now(db, table, &specs, algorithm, &options, |_| {}, None))
}

/// [`build_indexes`] without the wait: the build starts on a build
/// worker and this returns at once. `on_ids` fires once the batch's
/// descriptors are registered, whatever the algorithm, before any scan
/// work, so an observer — e.g. a server streaming progress frames —
/// can poll [`progress::load`] for exactly these ids. `done` gets the
/// outcome on the worker — `Err` with the panic payload if the build
/// panicked.
pub fn spawn_build_indexes(
    db: &Arc<Db>,
    table: TableId,
    specs: Vec<IndexSpec>,
    algorithm: BuildAlgorithm,
    options: BuildOptions,
    on_ids: impl FnOnce(&[IndexId]) + Send + 'static,
    done: impl FnOnce(std::thread::Result<Result<Vec<IndexId>>>) + Send + 'static,
) {
    db.spawn_on_build_worker(
        move |db| build_now(db, table, &specs, algorithm, &options, on_ids, None),
        done,
    );
}

/// A build, on the build worker it runs on: register the descriptors,
/// store the options, then scan and drive every index to completion.
/// The offline baseline quiesces the table from before the
/// registration until the build returns, whatever its outcome. A §6.2
/// build names its `primary` index, which it walks in place of the
/// heap scan.
pub(crate) fn build_now(
    db: &Arc<Db>,
    table: TableId,
    specs: &[IndexSpec],
    algorithm: BuildAlgorithm,
    options: &BuildOptions,
    on_ids: impl FnOnce(&[IndexId]),
    primary: Option<&IndexRuntime>,
) -> Result<Vec<IndexId>> {
    if specs.is_empty() {
        return Err(Error::InvalidArg("no index specs".into()));
    }
    options.validate()?;
    db.build_sort_workers
        .observe(u64::from(options.parallel_workers));
    let offline = algorithm == BuildAlgorithm::Offline;
    let quiesce = offline.then(|| db.quiesce(table)).transpose()?;
    let idxs = create_descriptors(db, table, specs, algorithm, primary)?;
    let ids: Vec<IndexId> = idxs.iter().map(|i| i.def.id).collect();
    let stored = ids
        .iter()
        .try_for_each(|&id| progress::store_options(db, id, options));
    on_ids(&ids);
    let built = stored.and_then(|()| build_fresh(db, &idxs, options, primary));
    cancel_unless_crash(db, &idxs, built)?;
    if let Some(quiesce) = quiesce {
        quiesce.end()?;
    }
    Ok(ids)
}

/// Continue an interrupted build after [`Db::restart`], with the
/// [`BuildOptions`] the build was started with (from the durable
/// options blob), from its stored progress record. Like every build,
/// it runs on a build worker while the caller waits.
pub fn resume_build(db: &Arc<Db>, id: IndexId) -> Result<()> {
    db.on_build_worker(move |db| {
        let idx = db.index(id)?;
        if idx.state() == IndexState::Complete {
            return Ok(());
        }
        let options = progress::load_options(db, id);
        db.build_sort_workers
            .observe(u64::from(options.parallel_workers));
        let at = match progress::load(db, id)? {
            Some(at) => at,
            None => {
                // Crash before the first record: resume from the empty
                // one. If it came between registration and the bound's
                // publication, publish it now (restart made every
                // record visible, so any bound that covers the table
                // will do).
                if idx.scan_end() == PageId(u32::MAX) {
                    publish_scan_bounds(&idx, &*db.table(idx.def.table)?);
                    db.persist_catalog();
                }
                BuildProgress::ScanningParallel {
                    parts: empty_scan(db, &idx, &options)?,
                }
            }
        };
        let idxs = std::slice::from_ref(&idx);
        cancel_unless_crash(db, idxs, drive(db, &idx, Some(at), &options))
    })
}

/// Drop a completed index (or abandon one mid-build from the outside):
/// quiesce the table (footnote 6), cancel the index, and end the
/// quiesce, which removes the descriptor. A refused quiesce leaves the
/// index as it was and nothing open.
pub fn drop_index(db: &Arc<Db>, id: IndexId) -> Result<()> {
    let idx = db.index(id)?;
    let quiesce = db.quiesce(idx.def.table)?;
    cancel_builds(db, &[idx]);
    quiesce.end()
}

// ===================================================================
// descriptor creation
// ===================================================================

/// Create and register the descriptors, in the algorithm's building
/// state, then fix the scan bound. NSF: a short [`Db::quiesce`] around
/// it so no update transaction straddles it (§2.2.1) — or the §3.2.3
/// no-quiesce alternative, where transactions straddling the creation
/// are compensated via the visible-index-count comparison at rollback.
/// SF: no quiesce (§3.2.1). Offline: the caller's quiesce covers the
/// whole build. A refused quiesce registers nothing; a failure after
/// it ends the quiesce as it returns. A §6.2 descriptor carries a key
/// cursor on its `primary` index's key.
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
    primary: Option<&IndexRuntime>,
) -> Result<Vec<Arc<IndexRuntime>>> {
    let tbl = db.table(table)?;
    let runtimes = specs
        .iter()
        .map(|spec| {
            let def = IndexDef {
                id: db.next_index_id(),
                name: spec.name.clone(),
                table,
                unique: spec.unique,
                key_cols: spec.key_cols.clone(),
            };
            let state = IndexState::building(algorithm);
            let mut rt = IndexRuntime::new(def, algorithm, state, &db.cfg)?;
            rt.key_cursor = primary.map(|p| KeyCursor::for_pk_cols(p.def.key_cols.clone()));
            Ok(Arc::new(rt))
        })
        .collect::<Result<Vec<_>>>()?;
    let quiesce = if algorithm == BuildAlgorithm::Nsf && db.cfg.nsf_descriptor_quiesce {
        Some(db.quiesce(table)?)
    } else {
        None
    };
    let mut out = Vec::with_capacity(specs.len());
    for rt in runtimes {
        // Registration is a durable catalog update: force the empty
        // tree (anchor + root) so restart always finds a structurally
        // valid index to recover into.
        force_index_pages(db, &rt, "create", |wal| rt.tree.force_all(wal))?;
        db.register_index(Arc::clone(&rt));
        out.push(rt);
    }
    db.failpoints.hit("build.registered")?;
    // A §6.2 walk goes by its key cursor, not by a page bound. Its
    // bound stays unset, so a crashed walk's resume, a heap scan,
    // publishes one that covers every row the walk left behind.
    if primary.is_none() {
        for rt in &out {
            publish_scan_bounds(rt, &tbl);
        }
        // The catalog written at registration has no bound yet.
        db.persist_catalog();
    }
    if let Some(quiesce) = quiesce {
        quiesce.end()?;
    }
    Ok(out)
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
// the build driver
// ===================================================================

/// A fresh build: every index starts from the empty scan record
/// ([`empty_scan`]). The scan is the one phase a §6.2 batch shares:
/// one pass over the data feeds every index, and then each goes on
/// alone, in order, from its own reduce record. Every index stores
/// that record before the first one goes on, so a crash after the scan
/// rescans none of them. A build on a `primary` index walks it
/// ([`crate::primary::walk`]) in place of the scan, and its crashed
/// walk resumes from the empty scan record: a heap scan.
fn build_fresh(
    db: &Arc<Db>,
    idxs: &[Arc<IndexRuntime>],
    opts: &BuildOptions,
    primary: Option<&IndexRuntime>,
) -> Result<()> {
    let runs = match primary {
        Some(primary) => vec![crate::primary::walk(db, primary, &idxs[0])?],
        None => {
            let parts = empty_scan(db, &idxs[0], opts)?;
            scan_phase(db, idxs, vec![parts; idxs.len()], opts)?
        }
    };
    let records = idxs
        .iter()
        .zip(runs)
        .map(|(idx, runs)| advance(db, idx, BuildPhase::Scanning, runs))
        .collect::<Result<Vec<_>>>()?;
    for (idx, at) in idxs.iter().zip(records) {
        drive(db, idx, at, opts)?;
    }
    Ok(())
}

/// The build driver: take `idx` from the progress record `at` to
/// completion. It runs the phase the record names from that record
/// alone, then [`advance`]s to the next phase with the runs the phase
/// handed on, until the build is complete. Fresh ([`build_fresh`]),
/// resumed ([`resume_build`]), offline and §6.2 builds all run here.
fn drive(
    db: &Arc<Db>,
    idx: &Arc<IndexRuntime>,
    mut at: Option<BuildProgress>,
    opts: &BuildOptions,
) -> Result<()> {
    while let Some(record) = at {
        let (phase, _) = record.phase();
        let runs = match record {
            BuildProgress::ScanningParallel { parts } => {
                scan_phase(db, std::slice::from_ref(idx), vec![parts], opts)?.remove(0)
            }
            BuildProgress::Reducing { pass } => reduce_phase(db, idx, &pass, opts)?,
            BuildProgress::Loading { merge, bulk } => {
                load_phase(db, idx, &merge, &bulk, opts)?;
                Vec::new()
            }
            BuildProgress::Inserting { merge, inserted } => {
                insert_phase(db, idx, &merge, inserted, opts)?;
                Vec::new()
            }
            BuildProgress::Draining { pos } => {
                drain_phase(db, idx, pos, opts)?;
                Vec::new()
            }
        };
        at = advance(db, idx, phase, runs)?;
    }
    Ok(())
}

/// Enter the phase that follows `done` in `idx`'s build: form its
/// record from the sorted runs `done` handed on and store it before
/// the phase touches anything, so a crash from here on resumes in it.
/// `None` once the build is complete.
///
/// This is each algorithm's phase order, written once: NSF scans,
/// reduces and inserts (§2.2.3); SF scans, reduces, loads and drains
/// (§3.2.4, §3.2.5); offline scans, reduces and loads.
fn advance(
    db: &Db,
    idx: &IndexRuntime,
    done: BuildPhase,
    runs: Vec<u64>,
) -> Result<Option<BuildProgress>> {
    let start = |inputs: Vec<u64>| MergeCheckpoint {
        counters: vec![0; inputs.len()],
        inputs,
        emitted: 0,
    };
    let next = match (idx.algorithm, done) {
        (_, BuildPhase::Scanning) => BuildProgress::Reducing {
            pass: MergePassCheckpoint {
                remaining: runs,
                inflight: None,
            },
        },
        (BuildAlgorithm::Nsf, BuildPhase::Reducing) => BuildProgress::Inserting {
            merge: start(runs),
            inserted: 0,
        },
        (_, BuildPhase::Reducing) => {
            // The load's record carries an empty loader's checkpoint.
            let mut loader = BulkLoader::new(&idx.tree)?;
            BuildProgress::Loading {
                merge: start(runs),
                bulk: force_index_pages(db, idx, "load", |wal| loader.checkpoint(wal))?,
            }
        }
        (BuildAlgorithm::Sf, BuildPhase::Loading) => BuildProgress::Draining { pos: 0 },
        _ => return Ok(None),
    };
    progress::store(db, idx.def.id, &next)?;
    Ok(Some(next))
}

/// The partitions of the scan record a build with no progress yet
/// starts from: the scan range split into one contiguous page range per
/// worker (`opts.parallel_workers`), each with an empty sort
/// checkpoint. An empty table has none.
fn empty_scan(db: &Db, idx: &IndexRuntime, opts: &BuildOptions) -> Result<Vec<PartCheckpoint>> {
    let scan_end = idx.scan_end();
    let mut parts = Vec::new();
    if scan_end != PageId(u32::MAX) && db.table(idx.def.table)?.num_pages() > 0 {
        let pages = u64::from(scan_end.0) + 1;
        let w = u64::from(opts.parallel_workers).min(pages).max(1);
        let (chunk, rem) = (pages / w, pages % w);
        let mut lo = 0u64;
        for i in 0..w {
            let len = chunk + u64::from(i < rem);
            parts.push(PartCheckpoint {
                lo: lo as u32,
                hi: (lo + len - 1) as u32,
                sort: SortCheckpoint {
                    runs: Vec::new(),
                    scan_pos: 0,
                    last_run_high: None,
                },
            });
            lo += len;
        }
    }
    Ok(parts)
}

/// Run a phase in an IB transaction ([`Db::begin_ib`]), which the
/// phase may commit and replace as it goes ([`Db::ib_commit_cycle`]).
/// A failed phase rolls the current one back; a crashed one leaves it
/// to restart.
fn in_ib(db: &Arc<Db>, phase: impl FnOnce(&mut TxId) -> Result<()>) -> Result<()> {
    let mut ib = db.begin_ib();
    let result = phase(&mut ib);
    if let Err(e) = &result {
        if !e.is_crash() {
            let _ = db.rollback(ib);
        }
    }
    result
}

// ===================================================================
// scan (§5.1) and reduce (§5.2)
// ===================================================================

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

/// Scan the data pages once, feeding every index's run formation, from
/// each index's scan record `parts[i]`. The scan range is split into
/// contiguous page partitions — the record's partition table, which
/// every index of a batch shares — and each partition runs its own
/// §5.1 replacement selection per index into the index's run store.
/// The partitions run on the build workers ([`Db::fork_join`]): the
/// first — a sole partition too — on the calling thread, the build's
/// own worker, the others on parked ones. Checkpoints are
/// per-partition ([`PartCheckpoint`]): each partition's checkpoint is a
/// valid serial restart point for its page range, so every partition
/// repositions from its own checkpoint — an empty one for a fresh
/// build. Returns each index's runs.
///
/// Safety of the §3.2.2 visibility rule under out-of-order page
/// completion: Current-RID only ever advances (`fetch_max`), so a
/// worker finishing a *later* partition first makes records in
/// still-unscanned earlier partitions conservatively visible. Their
/// updates go straight to the index/side-file *and* their keys are
/// extracted by the scan — the same over-visibility the post-crash
/// conservative rescan produces, absorbed the same way: duplicate
/// inserts are rejected and missing-key deletes are no-ops at drain.
fn scan_phase(
    db: &Arc<Db>,
    idxs: &[Arc<IndexRuntime>],
    parts: Vec<Vec<PartCheckpoint>>,
    opts: &BuildOptions,
) -> Result<Vec<Vec<u64>>> {
    let _phase = PhaseTimer::new(db, "scan");
    let table = db.table(idxs[0].def.table)?;
    let ws = db.cfg.sort_workspace_keys;
    let ranges: Vec<(u32, u32)> = parts[0].iter().map(|p| (p.lo, p.hi)).collect();

    // One RunFormation per (partition, index), repositioned by
    // `resume_keeping`, which preserves every sibling partition's
    // checkpointed runs in the shared store; runs no checkpoint knows
    // (flushed after the last checkpoint, then lost to the crash) are
    // deleted once here.
    let mut work = Vec::with_capacity(ranges.len());
    for w in 0..ranges.len() {
        let mut rfs = Vec::with_capacity(idxs.len());
        let mut floors = Vec::with_capacity(idxs.len());
        for (idx, cps) in idxs.iter().zip(&parts) {
            let preserve: Vec<u64> = cps
                .iter()
                .flat_map(|p| p.sort.runs.iter().map(|r| r.id))
                .collect();
            let cp = &cps[w].sort;
            floors.push(cp.scan_pos);
            let store = Arc::clone(&idx.sort_store);
            rfs.push(RunFormation::resume_keeping(store, ws, cp, &preserve)?);
        }
        work.push((rfs, floors));
    }

    let scan = Arc::new(Scan {
        table,
        idxs: idxs.to_vec(),
        parts: ranges,
        cp_every: opts.checkpoint_keys(&db.cfg),
        stop: AtomicBool::new(false),
        first_err: Mutex::new(None),
        records: Mutex::new(parts),
    });
    let jobs = work
        .into_iter()
        .enumerate()
        .map(|(w, (rfs, floors))| {
            let scan = Arc::clone(&scan);
            move |db: &Arc<Db>| scan_part(db, &scan, w, rfs, floors)
        })
        .collect();
    let done = db.fork_join(jobs);
    if let Some(e) = scan.first_err.lock().take() {
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
    for rfs in done {
        for (i, rf) in rfs.into_iter().enumerate() {
            all_runs[i].extend(rf.finish()?);
        }
    }
    Ok(all_runs)
}

/// What a build's scan partitions share: owned, so a partition can run
/// on any build worker.
struct Scan {
    table: Arc<mohan_heap::HeapTable>,
    idxs: Vec<Arc<IndexRuntime>>,
    /// The partition table: `parts[w]` is partition `w`'s page range.
    parts: Vec<(u32, u32)>,
    cp_every: usize,
    /// Set by the first partition that fails: the others end at their
    /// next record.
    stop: AtomicBool,
    first_err: Mutex<Option<Error>>,
    /// `records[i]`: index `i`'s scan record, every partition at its
    /// latest checkpoint.
    records: Mutex<Vec<Vec<PartCheckpoint>>>,
}

/// One partition's scan: feed `rfs` (one sorter per index) from the
/// pages `scan.parts[w]`, checkpointing every `cp_every` records, and
/// hand the sorters back.
fn scan_part(
    db: &Db,
    scan: &Scan,
    w: usize,
    mut rfs: Vec<RunFormation<IndexEntry>>,
    floors: Vec<u64>,
) -> Vec<RunFormation<IndexEntry>> {
    let (lo, hi) = scan.parts[w];
    // Resume strictly after the checkpointed position. Scan positions
    // are `rid.pack() + 1` so that position 0 unambiguously means
    // "nothing fed" (RID (0,0) packs to 0). A fresh partition starts
    // just before its first page: every RID of page `lo - 1` compares
    // ≤ `from`, so only the under-latch hook fires there — harmless,
    // Current-RID only grows.
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
    let idxs = &scan.idxs;
    let mut since_cp = 0usize;
    let r = scan.table.scan_pages(
        from,
        PageId(hi),
        |rid, data| {
            if scan.stop.load(Ordering::Relaxed) {
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
            if since_cp >= scan.cp_every {
                since_cp = 0;
                let mut cps = Vec::with_capacity(idxs.len());
                for rf in rfs.iter_mut() {
                    cps.push(rf.checkpoint()?);
                }
                // Stored under the lock, so concurrent partitions never
                // interleave half-updated records.
                let mut records = scan.records.lock();
                for ((idx, parts), cp) in idxs.iter().zip(records.iter_mut()).zip(cps) {
                    parts[w].sort = cp;
                    let parts = parts.clone();
                    progress::store(db, idx.def.id, &BuildProgress::ScanningParallel { parts })?;
                }
                db.failpoints.hit("build.scan")?;
            }
            Ok(true)
        },
        |page| advance_current_rid(idxs, page),
    );
    if let Err(e) = r {
        scan.stop.store(true, Ordering::Relaxed);
        scan.first_err.lock().get_or_insert(e);
    }
    rfs
}

/// Reduce runs below the merge fan-in from the reduce record `pass`,
/// persisting §5.2 checkpoints. Returns the final merge's inputs.
fn reduce_phase(
    db: &Arc<Db>,
    idx: &Arc<IndexRuntime>,
    pass: &MergePassCheckpoint,
    opts: &BuildOptions,
) -> Result<Vec<u64>> {
    let _phase = PhaseTimer::new(db, "reduce");
    let ext = ExternalSort {
        store: Arc::clone(&idx.sort_store),
        workspace: db.cfg.sort_workspace_keys,
        fan_in: db.cfg.merge_fan_in,
        checkpoint_every: opts.checkpoint_keys(&db.cfg),
    };
    let id = idx.def.id;
    ext.resume_reduce(pass, &mut |cp| {
        progress::store(db, id, &BuildProgress::Reducing { pass: cp.clone() })?;
        db.failpoints.hit("build.reduce")
    })
}

/// Mark the index complete, the one way every build ends: record the
/// completion horizon, flip the state, persist the catalog and drop the
/// progress record and the runs. An index cancelled or dropped under
/// its build stays cancelled: [`Error::BuildCancelled`].
fn complete_index(db: &Arc<Db>, idx: &Arc<IndexRuntime>, completed_at: Lsn) -> Result<()> {
    idx.set_completed_lsn(completed_at);
    if !idx.complete() {
        return Err(Error::BuildCancelled);
    }
    db.obs
        .trace()
        .event("build.phase", "flip", u64::from(idx.def.id.0));
    db.persist_catalog();
    progress::clear(db, idx.def.id);
    idx.sort_store.clear();
    force_index_pages(db, idx, "complete", |wal| idx.tree.force_all(wal))
}

// ===================================================================
// NSF: insert into the shared tree (§2.2.3)
// ===================================================================

/// Insert the final merge, from the insert record's position, into the
/// shared tree, checkpointing as it goes; then complete the index.
fn insert_phase(
    db: &Arc<Db>,
    idx: &Arc<IndexRuntime>,
    merge: &MergeCheckpoint,
    mut inserted: u64,
    opts: &BuildOptions,
) -> Result<()> {
    let _phase = PhaseTimer::new(db, "insert");
    let cp_every = opts.checkpoint_keys(&db.cfg);
    let mut merge = Merge::resume(&idx.sort_store, merge)?;
    let mut batch: Vec<IndexEntry> = Vec::with_capacity(db.cfg.ib_multi_key_batch);
    let mut since_cp = 0usize;
    let mut last_key: Option<mohan_common::KeyValue> = None;
    let mut pacer = Ticker::new(KEYS_PER_PACE);

    in_ib(db, |ib| {
        while let Some(entry) = merge.try_next()? {
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
                    ib_resolve_unique(db, *ib, idx, entry, existing)?;
                }
            }
            inserted += 1;
            since_cp += 1;
            if batch.len() >= db.cfg.ib_multi_key_batch {
                flush_ib_batch(db, *ib, idx, &mut batch)?;
            }
            if since_cp >= cp_every {
                since_cp = 0;
                flush_ib_batch(db, *ib, idx, &mut batch)?;
                // §2.2.3 periodic checkpointing: force the dirty index
                // pages, commit the inserts, record the position.
                force_index_pages(db, idx, "insert", |wal| idx.tree.force_all(wal))?;
                db.ib_commit_cycle(ib)?;
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
                )?;
                merge.release()?;
                db.failpoints.hit("build.insert")?;
            }
        }
        flush_ib_batch(db, *ib, idx, &mut batch)?;
        let completed_at = db.wal.tail_lsn();
        db.commit(*ib)?;
        complete_index(db, idx, completed_at)
    })
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
/// the build only if it genuinely holds. Otherwise take the conflicting
/// entry over, in one edit that also inserts the entry if the conflict
/// has gone. The NSF IB shares the tree with transactions, so it takes
/// over only an entry still pseudo-deleted under the latch: a live one
/// is a deleter's in flight, or a reactivation since the records were
/// read (DESIGN §7 item 6), and the IB tries again. The SF drain is the
/// only writer of its tree, and there a live entry whose record lost
/// the key waits for its side-file delete: it takes that one over too.
fn ib_resolve_unique(
    db: &Arc<Db>,
    ib: TxId,
    idx: &Arc<IndexRuntime>,
    entry: IndexEntry,
    mut existing: Rid,
) -> Result<()> {
    let sole_writer = idx.state() == IndexState::SfBuilding;
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
        // The conflicting record is committed-dead.
        let decide = |found| match found {
            Found::Conflict { rid, pseudo } if rid == existing && (pseudo || sole_writer) => {
                Edit::TakeOver
            }
            found => Edit::present(found),
        };
        let log = |_, _| {
            let (index, entry) = (idx.def.id, entry.clone());
            let payload = LogPayload::IndexInsert { index, entry };
            db.log(ib, RecKind::UndoRedo, payload)
        };
        match db.edit_index(idx, &entry, InsertMode::Ib, decide, log)? {
            (Found::Conflict { rid, .. }, Edit::Keep) => existing = rid,
            _ => return Ok(()),
        }
    }
    Err(Error::Corruption(format!(
        "IB unique arbitration did not converge on {}",
        idx.def.id
    )))
}

// ===================================================================
// bottom-up load (§3.2.4) + SF side-file drain (§3.2.5)
// ===================================================================

/// Load the final merge into the empty tree bottom-up, from the load
/// record's merge and loader positions, checkpointing as it goes: the
/// one load every builder but NSF ends with — SF, the offline baseline
/// and the §6.2 primary-index walk. An entry equal to the one before it
/// is dropped (the primary-index walk reads a reused RID twice); a
/// unique index settles each run of equal keys against the data pages
/// ([`resolve_unique_group`]). The offline baseline has no drain: its
/// load completes the index.
fn load_phase(
    db: &Arc<Db>,
    idx: &Arc<IndexRuntime>,
    merge: &MergeCheckpoint,
    bulk: &BulkCheckpoint,
    opts: &BuildOptions,
) -> Result<()> {
    let _phase = PhaseTimer::new(db, "load");
    let cp_keys = opts.checkpoint_keys(&db.cfg);
    let mut merge = Merge::resume(&idx.sort_store, merge)?;
    let mut loader = BulkLoader::resume(&idx.tree, bulk)?;
    let unique = idx.def.unique;
    let mut since_cp = 0usize;
    let mut pending: Option<IndexEntry> = None;
    let mut pacer = Ticker::new(KEYS_PER_PACE);

    in_ib(db, |ib| {
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
                    let bulk = force_index_pages(db, idx, "load", |wal| loader.checkpoint(wal))?;
                    progress::store(
                        db,
                        idx.def.id,
                        &BuildProgress::Loading {
                            merge: merge.checkpoint(),
                            bulk,
                        },
                    )?;
                    merge.release()?;
                    db.failpoints.hit("build.load")?;
                }
            }
            let Some(entry) = merge.try_next()? else {
                break;
            };
            db.failpoints.hit("sf.load.key")?;
            since_cp += 1;
            if pending.as_ref().or(loader.highest()) == Some(&entry) {
                continue;
            }
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
                        group.push(merge.try_next()?.expect("peeked"));
                        since_cp += 1;
                    }
                    group.dedup();
                    if let Some(survivor) = resolve_unique_group(db, *ib, idx, group)? {
                        loader.append(survivor)?;
                    }
                }
            }
        }
        if let Some(p) = pending.take() {
            loader.append(p)?;
        }
        force_index_pages(db, idx, "load", |wal| loader.finish(wal))?;
        let completed_at = db.wal.tail_lsn();
        db.commit(*ib)?;
        match idx.algorithm {
            BuildAlgorithm::Offline => complete_index(db, idx, completed_at),
            _ => Ok(()),
        }
    })
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

/// Drain the side-file from the drain record's position `pos` — the
/// LSN through which the log has been read — into the loaded tree
/// (§3.2.5), one IB transaction per pass, then close it and complete
/// the index.
fn drain_phase(db: &Arc<Db>, idx: &Arc<IndexRuntime>, pos: u64, opts: &BuildOptions) -> Result<()> {
    let _phase = PhaseTimer::new(db, "drain");
    // No restart reads the runs again: the drain resumes from its own
    // record.
    idx.sort_store.clear();
    let mut pos = Lsn(pos);
    let pending = |pos| idx.side_file.pending(&db.wal, idx.def.id, pos);
    // Each drained operation latches and unlatches inside
    // `apply_drain_op`; between two of them the IB holds only its own
    // transaction — until the final catch-up quiesces the table, which
    // every writer waits for: no giving way from there on.
    let mut pacer = Ticker::new(OPS_PER_PACE);
    in_ib(db, |ib| {
        // First pass: optionally sort the backlog for clustered index
        // access, preserving the relative order of identical keys
        // (§3.2.5). Applied as one atomic IB transaction; a crash
        // repeats the pass.
        if opts.drains_sorted() {
            let (mut ops, through) = pending(pos);
            if !ops.is_empty() {
                ops.sort_by(|a, b| a.entry.cmp(&b.entry)); // stable
                drain_pass(db, ib, idx, ops, through, &mut pos, Some(&mut pacer))?;
            }
        }
        // Catch-up passes: drain the whole visible backlog each pass.
        // If sustained appends outpace the drain for several passes,
        // fall back to a short table quiesce ([`Db::quiesce`]) for the
        // final catch-up — the paper assumes the IB eventually reaches
        // the last entry (§3.2.5); against adversarial unthrottled
        // updaters that assumption needs the same brief lock phase
        // production online DDL implementations use (DESIGN §7 item 4).
        // The quiesce ends when the phase returns, completed or not; a
        // refused one fails the build, which is then cancelled.
        let mut nonempty_passes = 0u32;
        let mut quiesce = None;
        loop {
            let (batch, through) = pending(pos);
            if batch.is_empty() {
                let completed_at = db.wal.tail_lsn();
                if idx.side_file.try_close(through) {
                    db.commit(*ib)?;
                    return complete_index(db, idx, completed_at);
                }
                // An append slipped in between the read and the close:
                // go round again.
                pos = through;
                if quiesce.is_none() {
                    pace();
                }
                continue;
            }
            let pacer = quiesce.is_none().then_some(&mut pacer);
            drain_pass(db, ib, idx, batch, through, &mut pos, pacer)?;
            nonempty_passes += 1;
            if nonempty_passes >= 3 && quiesce.is_none() {
                db.obs
                    .trace()
                    .event("build.phase", "sf.drain.quiesce", pos.0);
                quiesce = Some(db.quiesce(idx.def.table)?);
            }
        }
    })
}

/// One drain pass: apply `ops` — the side-file's entries logged after
/// `pos` through `through`, in log or key order — in the IB
/// transaction, giving way through `pacer` if there is one, then
/// commit, store the drain record at `through` and let the log go
/// below it.
fn drain_pass(
    db: &Arc<Db>,
    ib: &mut TxId,
    idx: &Arc<IndexRuntime>,
    ops: Vec<mohan_wal::SideFileOp>,
    through: Lsn,
    pos: &mut Lsn,
    mut pacer: Option<&mut Ticker>,
) -> Result<()> {
    for op in ops {
        apply_drain_op(db, *ib, idx, op)?;
        idx.side_file.applied();
        if let Some(pacer) = pacer.as_deref_mut() {
            pacer.tick();
        }
        db.failpoints.hit("sf.drain.op")?;
    }
    db.ib_commit_cycle(ib)?;
    *pos = through;
    idx.side_file.drain_passes.bump();
    db.obs.trace().event("build.phase", "sf.drain.pass", pos.0);
    progress::store(db, idx.def.id, &BuildProgress::Draining { pos: pos.0 })?;
    idx.side_file.drained_through(*pos);
    db.failpoints.hit("build.drain")
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
    use LogPayload::{IndexInsert, IndexPhysicalDelete, IndexReactivate};
    let current = db.record_key(idx, op.entry.rid)?;
    let record_has_key = current.as_ref() == Some(&op.entry.key);
    if op.insert != record_has_key {
        return Ok(());
    }
    let (index, entry) = (idx.def.id, op.entry.clone());
    let log = |found, edit| {
        let payload = match (found, edit) {
            (Found::Present { pseudo }, Edit::Remove) => IndexPhysicalDelete {
                index,
                entry,
                was_pseudo: pseudo,
            },
            (Found::Present { .. }, _) => IndexReactivate { index, entry },
            _ => IndexInsert { index, entry },
        };
        db.log(ib, RecKind::UndoRedo, payload)
    };
    let decide = if op.insert {
        Edit::live
    } else {
        Edit::remove_any
    };
    let edited = db.edit_index(idx, &op.entry, InsertMode::Transaction, decide, log)?;
    if let (Found::Conflict { rid, .. }, true) = (edited.0, op.insert) {
        ib_resolve_unique(db, ib, idx, op.entry, rid)?;
    }
    Ok(())
}

// ===================================================================
// cancel (§2.3.2)
// ===================================================================

/// A failed build is cancelled, and the build's own error returned —
/// [`Error::BuildCancelled`] if an index of it was cancelled or dropped
/// before it failed; a crashed one stays for [`resume_build`].
fn cancel_unless_crash<T>(
    db: &Arc<Db>,
    idxs: &[Arc<IndexRuntime>],
    result: Result<T>,
) -> Result<T> {
    match result {
        Err(e) if !e.is_crash() => {
            let dropped = idxs.iter().any(|i| i.state() == IndexState::Cancelled);
            cancel_builds(db, idxs);
            Err(if dropped { Error::BuildCancelled } else { e })
        }
        result => result,
    }
}

/// Cancel the indexes `idxs` (§2.3.2), or drop them: each becomes
/// [`IndexState::Cancelled`] ([`IndexRuntime::cancel`]), and its build
/// records go. This takes no lock and cannot be refused. The
/// descriptors stay in place, maintained by no one, so a rollback never
/// meets a shifted index list; the table's next [`Db::quiesce`], or
/// restart after undo, removes them (DESIGN §7 item 13).
pub(crate) fn cancel_builds(db: &Db, idxs: &[Arc<IndexRuntime>]) {
    for idx in idxs {
        idx.cancel();
    }
    db.persist_catalog();
    for idx in idxs {
        progress::clear(db, idx.def.id);
    }
}
