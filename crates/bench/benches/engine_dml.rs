//! Criterion bench: record DML throughput with 0..3 maintained
//! indexes (the per-update index-maintenance cost E6 was about during
//! builds, here at steady state), and the heap insert alone.
//!
//! `insert_record/maintained_indexes/<k>` is one auto-commit insert.
//! `insert_record/seed_5000_per_tx` is the seeding shape of
//! `seed_table` and perfbench's set-up: one sample is `SEED_TX_ROWS`
//! inserts in one transaction and its commit, into one table that
//! grows from sample to sample. Divide by `SEED_TX_ROWS`.
//!
//! `heap_insert` times the heap layer without the engine around it:
//!
//! * `fill_pages`: a fresh table of 4 KiB pages takes `FILL_ROWS` rows
//!   of 34 bytes — a seeded row — through `HeapTable::insert_with`
//!   with a logging closure that does nothing. Divide by `FILL_ROWS`.
//! * `first_10_slots` / `last_10_slots`: what the heap does under the
//!   X latch for one row — `insert` — into `PAGES` pages holding 0, or
//!   all but room for the last ten, rows. Divide by `PAGES` × 10. A
//!   cost that grows with the slot count shows as a gap between the
//!   two.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use mohan_bench::workload::{bench_config, seed_table, TABLE};
use mohan_common::{Lsn, TableId};
use mohan_heap::HeapTable;
use mohan_oib::build::{build_indexes, BuildOptions, IndexSpec};
use mohan_oib::schema::{BuildAlgorithm, Record};
use mohan_oib::Db;
use mohan_storage::SlottedPage;
use std::hint::black_box;
use std::sync::Arc;

const PAGE: usize = 4096;
const ROW: [u8; 34] = [7; 34];
const FILL_ROWS: usize = 20_000;
const PAGES: usize = 200;
const SEED_TX_ROWS: i64 = 5_000;

fn setup(indexes: u16) -> Arc<Db> {
    let (db, _) = seed_table(bench_config(), 5_000, 3);
    if indexes > 0 {
        let specs: Vec<IndexSpec> = (0..indexes)
            .map(|i| IndexSpec {
                name: format!("i{i}"),
                key_cols: vec![i % 2],
                unique: false,
            })
            .collect();
        build_indexes(
            &db,
            TABLE,
            &specs,
            BuildAlgorithm::Sf,
            &BuildOptions::default(),
        )
        .expect("build");
    }
    db
}

fn bench_inserts(c: &mut Criterion) {
    let mut group = c.benchmark_group("insert_record");
    for indexes in [0u16, 1, 3] {
        let db = setup(indexes);
        let mut k = 50_000_000i64;
        group.bench_with_input(
            BenchmarkId::new("maintained_indexes", indexes),
            &indexes,
            |b, _| {
                b.iter(|| {
                    k += 1;
                    let tx = db.begin();
                    db.insert_record(tx, TABLE, &Record::new(vec![k, 1]))
                        .expect("insert");
                    db.commit(tx).expect("commit");
                });
            },
        );
    }
    let db = setup(0);
    let mut k = 60_000_000i64;
    group.bench_function("seed_5000_per_tx", |b| {
        b.iter_batched(
            || {
                k += SEED_TX_ROWS;
                k - SEED_TX_ROWS..k
            },
            |keys| {
                let tx = db.begin();
                for k in keys {
                    db.insert_record(tx, TABLE, &Record::new(vec![k, 1]))
                        .expect("insert");
                }
                db.commit(tx).expect("commit");
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_delete_insert_cycle(c: &mut Criterion) {
    let db = setup(1);
    let mut k = 90_000_000i64;
    c.bench_function("delete_insert_cycle_1_index", |b| {
        b.iter(|| {
            k += 1;
            let tx = db.begin();
            let rid = db
                .insert_record(tx, TABLE, &Record::new(vec![k, 1]))
                .expect("insert");
            db.commit(tx).expect("commit");
            let tx = db.begin();
            db.delete_record(tx, TABLE, rid).expect("delete");
            db.commit(tx).expect("commit");
        });
    });
}

/// `PAGES` pages each holding `rows` rows.
fn pages_with(rows: usize) -> Vec<SlottedPage> {
    let mut page = SlottedPage::new(PAGE);
    for _ in 0..rows {
        page.insert(&ROW).expect("room for the row");
    }
    vec![page; PAGES]
}

fn bench_heap_insert(c: &mut Criterion) {
    let mut g = c.benchmark_group("heap_insert");
    g.sample_size(25);
    // Filled tables and pages are parked here so their teardown stays
    // out of the timed region.
    let mut tables: Vec<HeapTable> = Vec::new();
    g.bench_function("fill_pages", |b| {
        b.iter_batched(
            || HeapTable::new(TableId(1), PAGE, 4),
            |t| {
                for _ in 0..FILL_ROWS {
                    t.insert_with(&ROW, |_| Lsn::NULL).expect("fresh pages");
                }
                tables.push(t);
            },
            BatchSize::LargeInput,
        );
    });
    drop(tables);
    let mut full = SlottedPage::new(PAGE);
    while full.insert(&ROW).is_ok() {}
    let per_page = usize::from(full.slots());
    for (name, rows) in [("first_10_slots", 0), ("last_10_slots", per_page - 10)] {
        let mut parked: Vec<Vec<SlottedPage>> = Vec::new();
        g.bench_function(name, |b| {
            b.iter_batched(
                || pages_with(rows),
                |mut pages| {
                    for page in &mut pages {
                        for _ in 0..10 {
                            black_box(page.insert(&ROW).expect("ten rows fit"));
                        }
                    }
                    parked.push(pages);
                },
                BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_inserts,
    bench_delete_insert_cycle,
    bench_heap_insert
);
criterion_main!(benches);
