//! Layer probes: each layer's public functions called directly, on
//! one thread, after the workload, over inputs made from the
//! workload's seed. A probe's number is that layer alone; the
//! workload's numbers are the layers together.

use crate::env::{row, ROWS, TABLE};
use crate::fg::{Mix, OpKind};
use mohan_bench::workload::bench_config;
use mohan_btree::bulk::BulkLoader;
use mohan_btree::{BTree, BTreeConfig, InsertMode};
use mohan_common::{FileId, IndexEntry, IndexId, KeyValue, Lsn, PageId, Rid, TableId, TxId};
use mohan_heap::HeapTable;
use mohan_lock::{LockManager, LockMode, LockName};
use mohan_oib::schema::Record;
use mohan_oib::{Db, Session};
use mohan_sort::{Merge, RunFormation, RunStore};
use mohan_wal::record::{LogPayload, RecKind};
use mohan_wal::LogManager;
use mohan_wire::message::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Keys (or rows, records, messages) per probe.
const N: usize = 200_000;

/// Operations of the in-process DML probe.
const DML_OPS: usize = 20_000;

fn per_item_ns(elapsed: Duration, items: usize) -> f64 {
    elapsed.as_nanos() as f64 / items as f64
}

/// Index entries on `[payload, k]` as the online workloads build
/// them, in heap (RID) order.
fn entries(rng: &mut StdRng) -> Vec<IndexEntry> {
    (0..N as i64)
        .map(|k| {
            let cols = row(k, rng);
            IndexEntry::new(
                KeyValue::from_i64s(&[cols[1], k]),
                Rid::new((k / 100) as u32, (k % 100) as u16),
            )
        })
        .collect()
}

fn tree() -> BTree {
    let cfg = bench_config();
    BTree::create(
        FileId(900),
        BTreeConfig {
            page_size: cfg.index_page_size,
            fill_factor: cfg.index_fill_factor,
            unique: false,
            hint_enabled: cfg.ib_remembered_path,
        },
    )
}

fn btree(
    out: &mut BTreeMap<&'static str, f64>,
    unsorted: &[IndexEntry],
    sorted: &[IndexEntry],
) -> Result<(), String> {
    let e = |e: mohan_common::Error| format!("btree probe: {e}");
    let t = tree();
    let t0 = Instant::now();
    for entry in unsorted {
        black_box(
            t.insert(entry.clone(), InsertMode::Transaction)
                .map_err(e)?,
        );
    }
    out.insert("btree.insert_ns_per_key", per_item_ns(t0.elapsed(), N));
    let t0 = Instant::now();
    for entry in unsorted {
        if t.lookup_exact(black_box(entry)).map_err(e)?.is_none() {
            return Err("btree probe: an inserted key is missing".into());
        }
    }
    out.insert("btree.lookup_ns_per_key", per_item_ns(t0.elapsed(), N));

    let t = tree();
    let t0 = Instant::now();
    let mut loader = BulkLoader::new(&t).map_err(e)?;
    for entry in sorted {
        loader.append(entry.clone()).map_err(e)?;
    }
    black_box(loader.finish(Lsn::NULL).map_err(e)?);
    out.insert("btree.bulk_ns_per_key", per_item_ns(t0.elapsed(), N));
    Ok(())
}

fn sort(
    out: &mut BTreeMap<&'static str, f64>,
    unsorted: &[IndexEntry],
) -> Result<Vec<IndexEntry>, String> {
    let e = |e: mohan_common::Error| format!("sort probe: {e}");
    let store: Arc<RunStore<IndexEntry>> = Arc::new(RunStore::new());
    let t0 = Instant::now();
    let mut rf = RunFormation::new(Arc::clone(&store), bench_config().sort_workspace_keys);
    for (i, entry) in unsorted.iter().enumerate() {
        rf.push(entry.clone(), i as u64 + 1).map_err(e)?;
    }
    let runs = rf.finish().map_err(e)?;
    out.insert("sort.runform_ns_per_key", per_item_ns(t0.elapsed(), N));
    out.insert("sort.runs", runs.len() as f64);
    let t0 = Instant::now();
    let sorted: Vec<IndexEntry> = Merge::new(&store, runs).collect();
    out.insert("sort.merge_ns_per_key", per_item_ns(t0.elapsed(), N));
    if sorted.len() != N || !sorted.windows(2).all(|w| w[0] <= w[1]) {
        return Err("sort probe: merge output is not the sorted input".into());
    }
    Ok(sorted)
}

fn heap(out: &mut BTreeMap<&'static str, f64>, rng: &mut StdRng) -> Result<(), String> {
    let e = |e: mohan_common::Error| format!("heap probe: {e}");
    let cfg = bench_config();
    let table = HeapTable::new(TableId(900), cfg.data_page_size, cfg.prefetch_pages);
    let rows: Vec<Vec<u8>> = (0..N as i64)
        .map(|k| Record::new(row(k, rng)).encode())
        .collect();
    let t0 = Instant::now();
    for data in &rows {
        black_box(table.insert_with(data, |_| Lsn(1)).map_err(e)?);
    }
    out.insert("heap.insert_ns_per_row", per_item_ns(t0.elapsed(), N));
    let t0 = Instant::now();
    let mut seen = 0usize;
    table
        .scan_from(None, PageId(table.num_pages() - 1), |_, data| {
            seen += black_box(data).len().min(1);
            Ok(true)
        })
        .map_err(e)?;
    out.insert("heap.scan_ns_per_row", per_item_ns(t0.elapsed(), N));
    if seen != N {
        return Err(format!("heap probe: scan saw {seen} of {N} rows"));
    }
    Ok(())
}

fn wal(out: &mut BTreeMap<&'static str, f64>) {
    let log = LogManager::new();
    let t0 = Instant::now();
    for i in 0..N as u64 {
        black_box(log.append(
            TxId(i % 8 + 1),
            Lsn::NULL,
            RecKind::RedoOnly,
            LogPayload::TxBegin,
        ));
    }
    out.insert("wal.append_ns_per_rec", per_item_ns(t0.elapsed(), N));
}

fn lock(out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let locks = LockManager::new(Duration::from_millis(bench_config().lock_timeout_ms));
    let t0 = Instant::now();
    for i in 0..N {
        let tx = TxId(i as u64 + 1);
        locks
            .lock(
                tx,
                LockName::Record(TABLE, Rid::new((i / 100) as u32, (i % 100) as u16)),
                LockMode::X,
            )
            .map_err(|e| format!("lock probe: {e}"))?;
        locks.release_all(tx);
    }
    out.insert("lock.acquire_ns", per_item_ns(t0.elapsed(), N));
    Ok(())
}

/// Encode and decode the workload's requests, as client and server
/// each do once per operation.
fn wire(out: &mut BTreeMap<&'static str, f64>, mix: Mix, rng: &mut StdRng) -> Result<(), String> {
    let requests: Vec<Request> = (0..N as i64)
        .map(|i| {
            let rid = Rid::new((i / 100) as u32, (i % 100) as u16).pack();
            match mix.pick(rng) {
                OpKind::Insert => Request::Insert {
                    table: TABLE.0,
                    cols: row(i, rng),
                },
                OpKind::Update => Request::Update {
                    table: TABLE.0,
                    rid,
                    cols: row(i, rng),
                },
                OpKind::Lookup => Request::Lookup {
                    index: 1,
                    key: KeyValue::from_i64s(&[i]).as_bytes().to_vec(),
                },
                OpKind::Read => Request::Read {
                    table: TABLE.0,
                    rid,
                },
            }
        })
        .collect();
    let t0 = Instant::now();
    for req in &requests {
        if Request::decode(black_box(&req.encode())).is_none() {
            return Err("wire probe: a request does not decode".into());
        }
    }
    out.insert("wire.codec_ns_per_msg", per_item_ns(t0.elapsed(), N));
    Ok(())
}

/// The workload's mix through an in-process `Session` on the
/// recovered engine: the engine's share of a round trip.
fn dml(
    out: &mut BTreeMap<&'static str, f64>,
    db: &Arc<Db>,
    rids: &[Rid],
    mix: Mix,
    lookup_index: Option<IndexId>,
    rng: &mut StdRng,
) -> Result<(), String> {
    let e = |e: mohan_common::Error| format!("dml probe: {e}");
    let mut session = Session::new(Arc::clone(db));
    let mut next_key = ROWS + 9_000_000_000;
    let t0 = Instant::now();
    for _ in 0..DML_OPS {
        let k = rng.random_range(0..ROWS);
        match mix.pick(rng) {
            OpKind::Insert => {
                next_key += 1;
                black_box(
                    session
                        .insert(TABLE, &Record::new(row(next_key, rng)))
                        .map_err(e)?,
                );
            }
            OpKind::Update => {
                black_box(
                    session
                        .update(TABLE, rids[k as usize], &Record::new(row(k, rng)))
                        .map_err(e)?,
                );
            }
            OpKind::Lookup => {
                let index = lookup_index.ok_or("dml probe: lookups without an index")?;
                black_box(
                    session
                        .lookup(index, &KeyValue::from_i64s(&[k]))
                        .map_err(e)?,
                );
            }
            OpKind::Read => {
                black_box(session.read(TABLE, rids[k as usize]).map_err(e)?);
            }
        }
    }
    out.insert(
        "oib.dml_us_per_op",
        per_item_ns(t0.elapsed(), DML_OPS) / 1e3,
    );
    Ok(())
}

/// Run every probe. `db` is the workload's engine after recovery,
/// with nothing else running on it.
pub fn run(
    seed: u64,
    mix: Mix,
    db: &Arc<Db>,
    rids: &[Rid],
    lookup_index: Option<IndexId>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut out = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x70_72_6F_62_65);
    wire(&mut out, mix, &mut rng)?;
    dml(&mut out, db, rids, mix, lookup_index, &mut rng)?;
    lock(&mut out)?;
    wal(&mut out);
    heap(&mut out, &mut rng)?;
    let unsorted = entries(&mut rng);
    let sorted = sort(&mut out, &unsorted)?;
    btree(&mut out, &unsorted, &sorted)?;
    Ok(out)
}
