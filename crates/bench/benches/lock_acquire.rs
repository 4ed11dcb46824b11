//! Criterion bench: the lock manager alone, in the three shapes the
//! engine drives it in — `wal_append`'s sibling for the other layer
//! every foreground operation crosses.
//!
//! * `uncontended_x`: a fresh transaction X-locks a fresh RID and
//!   commits (`release_all`) — perfbench's `lock.acquire_ns` probe.
//! * `seed_shape`: one transaction takes the table IX and a record X
//!   per row for 5 000 rows, then one `release_all` — how every
//!   benchmark table is seeded.
//! * `disjoint/N`: N threads of auto-commit operations (table IX +
//!   record X + `release_all`) on disjoint RIDs, sharing only the
//!   table's IX entry.
//!
//! Every sample performs `LOCKS` record locks in total, so the rows
//! compare directly; divide by `LOCKS` for the cost per locked row.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use mohan_common::{Rid, TableId, TxId};
use mohan_lock::{LockManager, LockMode, LockName};
use std::time::Duration;

const LOCKS: u32 = 20_000;
const ROWS_PER_TX: u32 = 5_000;
const TABLE: TableId = TableId(1);

fn manager() -> LockManager {
    LockManager::new(Duration::from_secs(5))
}

fn record(i: u32) -> LockName {
    LockName::Record(TABLE, Rid::new(i / 100, (i % 100) as u16))
}

fn bench_lock_acquire(c: &mut Criterion) {
    let mut g = c.benchmark_group("lock_acquire");
    g.sample_size(25);
    // Finished managers are parked here so a table's teardown stays
    // out of the timed region.
    let mut parked: Vec<LockManager> = Vec::new();
    g.bench_function("uncontended_x", |b| {
        b.iter_batched(
            manager,
            |m| {
                for i in 0..LOCKS {
                    let tx = TxId(u64::from(i) + 1);
                    m.lock(tx, record(i), LockMode::X).expect("free name");
                    m.release_all(tx);
                }
                parked.push(m);
            },
            BatchSize::LargeInput,
        );
    });
    g.bench_function("seed_shape", |b| {
        b.iter_batched(
            manager,
            |m| {
                for first in (0..LOCKS).step_by(ROWS_PER_TX as usize) {
                    let tx = TxId(u64::from(first) + 1);
                    for i in first..first + ROWS_PER_TX {
                        m.lock(tx, LockName::Table(TABLE), LockMode::IX)
                            .expect("IX among IX");
                        m.lock(tx, record(i), LockMode::X).expect("free name");
                    }
                    m.release_all(tx);
                }
                parked.push(m);
            },
            BatchSize::LargeInput,
        );
    });
    for threads in [2u32, 4] {
        g.bench_with_input(
            BenchmarkId::new("disjoint", threads),
            &threads,
            |b, &threads| {
                b.iter_batched(
                    manager,
                    |m| {
                        let per = LOCKS / threads;
                        std::thread::scope(|s| {
                            for t in 0..threads {
                                let m = &m;
                                s.spawn(move || {
                                    for i in t * per..(t + 1) * per {
                                        let tx = TxId(u64::from(i) + 1);
                                        m.lock(tx, LockName::Table(TABLE), LockMode::IX)
                                            .expect("IX among IX");
                                        m.lock(tx, record(i), LockMode::X).expect("free name");
                                        m.release_all(tx);
                                    }
                                });
                            }
                        });
                        parked.push(m);
                    },
                    BatchSize::LargeInput,
                );
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_lock_acquire);
criterion_main!(benches);
