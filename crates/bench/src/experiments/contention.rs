//! E15: hot-path contention profile of the sharded storage substrate.
//!
//! The paper's algorithms are motivated by *not quiescing updates*:
//! the index builder and N updater transactions hammer the same table
//! at once. That only helps if the storage substrate below them does
//! not serialize everything on a handful of locks. This experiment
//! runs the same churn + online build at increasing thread counts and
//! reports where the contention actually lands: WAL group-flush
//! coalescing, buffer-pool shard hit spread, free-space-map shard
//! spread, and page-latch wait events. A second table takes the lock
//! manager alone, in the shapes the engine drives it in, and shows
//! how its shard hash spreads `(table, page, slot)` names.

use crate::report::{dist, Table};
use crate::workload::{bench_config, seed_table, start_churn, ChurnConfig, TABLE};
use mohan_common::stats::ShardDist;
use mohan_common::{Rid, TxId};
use mohan_lock::{LockManager, LockMode, LockName, LOCK_SHARDS};
use mohan_oib::build::{build_index, IndexSpec};
use mohan_oib::schema::BuildAlgorithm;
use mohan_oib::verify::verify_index;
use std::time::{Duration, Instant};

/// E15: contention counters under churn + online build.
pub fn e15_contention(quick: bool) -> Vec<Table> {
    let threads: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let rows: i64 = if quick { 10_000 } else { 30_000 };
    let mut t = Table::new(
        "E15: storage hot-path contention (churn + NSF build)",
        &[
            "updaters",
            "wal forces",
            "coalesced",
            "latch waits",
            "cache shard hits (total ×imb [per shard])",
            "fsm shard hits (total ×imb [per shard])",
        ],
    );
    for &n in threads {
        let (db, rids) = seed_table(bench_config(), rows, 15);
        let table = db.table(TABLE).expect("table");
        // Reset counters so the report reflects the contended phase,
        // not the single-threaded seeding.
        db.wal.stats.flushes.reset();
        db.wal.stats.group_flush_coalesced.reset();
        table.cache.latch_stats().wait_events.reset();
        let churn = start_churn(
            &db,
            &rids,
            ChurnConfig {
                threads: n,
                ..ChurnConfig::default()
            },
        );
        std::thread::sleep(Duration::from_millis(30));
        let idx = build_index(
            &db,
            TABLE,
            IndexSpec {
                name: format!("e15-{n}"),
                key_cols: vec![0],
                unique: false,
            },
            BuildAlgorithm::Nsf,
        )
        .expect("build");
        let stats = churn.stop();
        verify_index(&db, idx).expect("verify");
        assert!(stats.ops > 0, "churn made no progress");
        t.row(vec![
            n.to_string(),
            db.wal.stats.flushes.get().to_string(),
            db.wal.stats.group_flush_coalesced.get().to_string(),
            table.cache.latch_stats().wait_events.get().to_string(),
            dist(&table.cache.stats.shard_hits),
            dist(&table.stats.fsm_shard_hits),
        ]);
    }
    t.note(format!(
        "×imb = hottest shard / even spread (1.00 is perfectly balanced); \
         {} cache shards, {} fsm shards.",
        mohan_storage::cache::PAGE_SHARDS,
        mohan_heap::FSM_SHARDS,
    ));
    t.note("coalesced = flush_to calls satisfied by another caller's group flush.");
    t.note("Each run's index verified entry-for-entry against the table.");
    vec![t, lock_leg(quick)]
}

/// Names in each shard of `m`'s table, as a distribution.
fn entries_dist(m: &LockManager) -> ShardDist {
    let d = ShardDist::new(LOCK_SHARDS);
    for (shard, n) in m.entries_per_shard().into_iter().enumerate() {
        d.add(shard, n);
    }
    d
}

/// The lock manager by itself, in the `lock_acquire` bench's three
/// shapes: what a record lock costs in each, and where the names sit
/// while they are held.
fn lock_leg(quick: bool) -> Table {
    const ROWS_PER_TX: u32 = 5_000;
    let locks: u32 = if quick { 20_000 } else { 200_000 };
    let manager = || LockManager::new(Duration::from_secs(5));
    let record = |i: u32| LockName::Record(TABLE, Rid::new(i / 100, (i % 100) as u16));
    let auto_commit = |m: &LockManager, i: u32, with_ix: bool| {
        let tx = TxId(u64::from(i) + 1);
        if with_ix {
            m.lock(tx, LockName::Table(TABLE), LockMode::IX)
                .expect("IX among IX");
        }
        m.lock(tx, record(i), LockMode::X).expect("free name");
        m.release_all(tx);
    };
    let mut t = Table::new(
        "E15b: lock manager alone (fresh RIDs, no waits)",
        &[
            "shape",
            "record locks",
            "ns / record lock",
            "entries while held (total ×imb [per shard])",
            "entries after",
        ],
    );
    let mut row = |shape: &str, m: &LockManager, held: String, elapsed: Duration| {
        assert_eq!(m.stats.waits.get(), 0, "{shape}: a lock waited");
        t.row(vec![
            shape.to_string(),
            locks.to_string(),
            format!("{:.0}", elapsed.as_nanos() as f64 / f64::from(locks)),
            held,
            m.entries().to_string(),
        ]);
    };

    let m = manager();
    let t0 = Instant::now();
    for i in 0..locks {
        auto_commit(&m, i, false);
    }
    row("X + release_all", &m, "1 at a time".into(), t0.elapsed());

    let m = manager();
    let mut held = String::new();
    let t0 = Instant::now();
    for first in (0..locks).step_by(ROWS_PER_TX as usize) {
        let tx = TxId(u64::from(first) + 1);
        for i in first..first + ROWS_PER_TX {
            m.lock(tx, LockName::Table(TABLE), LockMode::IX)
                .expect("IX among IX");
            m.lock(tx, record(i), LockMode::X).expect("free name");
        }
        if first == 0 {
            held = dist(&entries_dist(&m));
        }
        m.release_all(tx);
    }
    row(
        "seed: (IX + X) × 5 000, one release_all",
        &m,
        held,
        t0.elapsed(),
    );

    for threads in [2u32, 4] {
        let m = manager();
        let per = locks / threads;
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for th in 0..threads {
                let (m, auto_commit) = (&m, &auto_commit);
                s.spawn(move || (th * per..(th + 1) * per).for_each(|i| auto_commit(m, i, true)));
            }
        });
        let shape = format!("{threads} threads: IX + X + release_all, disjoint RIDs");
        row(&shape, &m, "≤ 1 + threads".into(), t0.elapsed());
    }
    t.note(format!(
        "{LOCK_SHARDS} table shards chosen by a Fibonacci hash of (table, page, slot); \
         the seed row's distribution is the first transaction's 5 001 names just before it commits."
    ));
    t.note("entries after = names left in the table once every transaction has released: the table holds only what is locked.");
    t.note(format!(
        "{} hardware threads. The threaded rows meet on the table's IX entry (one shard mutex) and nowhere else: \
         read them for the absence of lock waits, not for a speed-up.",
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    ));
    t
}
