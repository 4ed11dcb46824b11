//! Criterion bench: the log manager alone, in the shapes the engine
//! and the shippers drive it in.
//!
//! * `append/<shape>`: one thread appends `RECORDS` records of one
//!   shape — a `TxBegin` (header only), a `HeapInsert` with a 34-byte
//!   row image (what seeding logs), an `IndexBulkInsert` of 64 entries
//!   (what the NSF builder logs per leaf; `BULK_RECORDS` of them, so
//!   divide by that). The payloads are built outside the timed region:
//!   the time is encode + reserve + copy into chunks + publish.
//! * `append_txbegin_threads/N`: the same `RECORDS` appends split over
//!   N threads — a flat line means the appenders are not serializing.
//! * `append_flush64/4`: 4 threads, a `flush_to` every 64 records —
//!   where concurrent callers coalesce instead of each re-forcing.
//! * `get/<shape>`: `LogManager::get` of every record of such a log
//!   (a decode per call: what an undo chain pays).
//! * `header_walk` and `range_copy`: restart analysis and WAL shipping
//!   over a `WALK_RECORDS`-record log of the three shapes mixed — the
//!   first parses 26 bytes a record, the second copies the stored
//!   bytes out in frame-sized pieces (1 024 records / 1 MiB).
//!
//! perfbench's `wal.append_ns_per_rec` probe appends only `TxBegin`,
//! so the cost of encoding a payload shows here and not there.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use mohan_common::{IndexEntry, IndexId, Lsn, Rid, TableId, TxId};
use mohan_wal::record::{LogPayload, RecKind};
use mohan_wal::LogManager;
use std::hint::black_box;

const RECORDS: usize = 16_384;
const BULK_RECORDS: usize = 2_048;
const WALK_RECORDS: usize = 100_000;
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn heap_insert(i: usize) -> LogPayload {
    LogPayload::HeapInsert {
        table: TableId(1),
        rid: Rid::new((i / 100) as u32, (i % 100) as u16),
        data: vec![i as u8; 34],
        visible_indexes: 0,
    }
}

fn bulk_insert(i: usize) -> LogPayload {
    LogPayload::IndexBulkInsert {
        index: IndexId(1),
        entries: (0..64)
            .map(|k| {
                let n = i * 64 + k;
                IndexEntry::from_i64(n as i64, Rid::new((n / 100) as u32, (n % 100) as u16))
            })
            .collect(),
    }
}

type Shape = (&'static str, usize, fn(usize) -> LogPayload);

const SHAPES: [Shape; 3] = [
    ("txbegin", RECORDS, |_| LogPayload::TxBegin),
    ("heap_insert_34", RECORDS, heap_insert),
    ("bulk_insert_64", BULK_RECORDS, bulk_insert),
];

fn append_all(log: &LogManager, payloads: Vec<LogPayload>) {
    for payload in payloads {
        log.append(TxId(1), Lsn::NULL, RecKind::UndoRedo, payload);
    }
}

fn bench_append(c: &mut Criterion) {
    let mut g = c.benchmark_group("wal_append");
    g.sample_size(25);
    // Finished logs are parked here so their teardown (their segments
    // and chunks) stays out of the timed region.
    let mut parked: Vec<LogManager> = Vec::new();
    for (name, records, make) in SHAPES {
        g.bench_function(BenchmarkId::new("append", name), |b| {
            b.iter_batched(
                || (LogManager::new(), (0..records).map(make).collect()),
                |(log, payloads)| {
                    append_all(&log, payloads);
                    parked.push(log);
                },
                BatchSize::LargeInput,
            );
        });
        parked.clear();
    }
    for (name, records, make) in SHAPES {
        let log = LogManager::new();
        append_all(&log, (0..records).map(make).collect());
        g.bench_function(BenchmarkId::new("get", name), |b| {
            b.iter(|| {
                for lsn in 1..=records as u64 {
                    black_box(log.get(Lsn(lsn)));
                }
            });
        });
    }
    g.finish();
}

/// Split `RECORDS` `TxBegin` appends across `threads` workers; each
/// calls `after(log, lsn, i)` on what it appended.
fn fan_out(log: &LogManager, threads: usize, after: impl Fn(&LogManager, Lsn, usize) + Sync) {
    let per = RECORDS / threads;
    std::thread::scope(|s| {
        for t in 0..threads {
            let after = &after;
            s.spawn(move || {
                for i in 0..per {
                    let lsn = log.append(
                        TxId(t as u64),
                        Lsn::NULL,
                        RecKind::RedoOnly,
                        LogPayload::TxBegin,
                    );
                    after(log, lsn, i);
                }
            });
        }
    });
}

fn bench_append_threads(c: &mut Criterion) {
    let mut g = c.benchmark_group("wal_append");
    g.sample_size(25);
    let mut parked: Vec<LogManager> = Vec::new();
    for threads in THREADS {
        g.bench_with_input(
            BenchmarkId::new("append_txbegin_threads", threads),
            &threads,
            |b, &threads| {
                b.iter_batched(
                    LogManager::new,
                    |log| {
                        fan_out(&log, threads, |_, _, _| {});
                        parked.push(log);
                    },
                    BatchSize::LargeInput,
                );
            },
        );
        parked.clear();
    }
    let threads = 4usize;
    let mut coalesced = (0u64, 0u64); // (coalesced, forces)
    g.bench_with_input(
        BenchmarkId::new("append_flush64", threads),
        &threads,
        |b, &threads| {
            b.iter_batched(
                LogManager::new,
                |log| {
                    fan_out(&log, threads, |l, lsn, i| {
                        if i % 64 == 63 {
                            l.flush_to(lsn);
                        }
                    });
                    coalesced.0 += log.stats.group_flush_coalesced.get();
                    coalesced.1 += log.stats.flushes.get();
                    parked.push(log);
                },
                BatchSize::LargeInput,
            );
        },
    );
    println!(
        "wal_append/append_flush64/{threads}: {} forces, {} coalesced",
        coalesced.1, coalesced.0
    );
    g.finish();
}

/// Analysis and shipping over a long log: `WALK_RECORDS` records, one
/// in eight a 64-entry bulk insert, the rest `TxBegin` and 34-byte
/// `HeapInsert` alternating.
fn bench_read(c: &mut Criterion) {
    let mut g = c.benchmark_group("wal_append");
    g.sample_size(25);
    let log = LogManager::new();
    for i in 0..WALK_RECORDS {
        let payload = match i % 8 {
            7 => bulk_insert(i),
            n if n % 2 == 0 => LogPayload::TxBegin,
            _ => heap_insert(i),
        };
        log.append(TxId(1), Lsn::NULL, RecKind::UndoRedo, payload);
    }
    log.flush_all();
    g.bench_function("header_walk", |b| {
        b.iter(|| {
            let walked = log
                .headers_from(Lsn::NULL)
                .filter(|h| h.tx == TxId(1))
                .count();
            assert_eq!(walked, WALK_RECORDS);
        });
    });
    let mut frame = Vec::new();
    g.bench_function("range_copy", |b| {
        b.iter(|| {
            let mut after = Lsn::NULL;
            loop {
                frame.clear();
                let (count, last) =
                    log.copy_range(after, log.flushed_lsn(), 1024, 1 << 20, &mut frame);
                if count == 0 {
                    break;
                }
                black_box(&frame);
                after = last;
            }
            assert_eq!(after, Lsn(WALK_RECORDS as u64));
        });
    });
    g.finish();
}

criterion_group!(benches, bench_append, bench_append_threads, bench_read);
criterion_main!(benches);
