//! E7 (restartable sort), E8 (restartable merge), E9 (IB restart) —
//! §5 and the checkpointing of §2.2.3 / §3.2.4, quantified as
//! work-lost-at-crash vs checkpoint interval.

use super::scaled;
use super::spec;
use crate::report::{f2, ms, Table};
use crate::workload::{bench_config, seed_table, TABLE};
use mohan_common::{IndexEntry, Rid};
use mohan_oib::build::{build_index, build_indexes, resume_build, BuildOptions};
use mohan_oib::progress::{self, BuildProgress};
use mohan_oib::schema::BuildAlgorithm;
use mohan_oib::verify::verify_index;
use mohan_sort::{Merge, MergeCheckpoint, RunFormation, RunStore, SortCheckpoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

fn entry(k: i64, i: u64) -> IndexEntry {
    IndexEntry::from_i64(k, Rid::new((i / 100) as u32, (i % 100) as u16))
}

/// E7: sort-phase checkpointing (§5.1). Feed N keys, crash at 60%,
/// resume: keys re-fed = work lost, bounded by the checkpoint
/// interval. Also shows the checkpoint *cost*: draining the tournament
/// workspace shortens runs.
pub fn e7_restartable_sort(quick: bool) -> Vec<Table> {
    let n: u64 = if quick { 20_000 } else { 100_000 };
    let intervals: &[u64] = if quick {
        &[1_000, 5_000]
    } else {
        &[1_000, 5_000, 20_000]
    };
    let mut t = Table::new(
        "E7: sort-phase checkpoints — lost work vs interval (crash at 60%)",
        &[
            "interval",
            "checkpoints",
            "keys re-fed",
            "lost %",
            "runs (crash path)",
            "runs (no crash)",
        ],
    );
    let mut rng = StdRng::seed_from_u64(7);
    let keys: Vec<i64> = (0..n).map(|_| rng.random_range(0..10_000_000)).collect();
    // Position the crash point off every checkpoint boundary so the
    // interval/loss trade-off is visible (a crash exactly on a shared
    // boundary would show equal loss for every interval).
    let crash_at = (n * 58 / 100 + 321) as usize;
    for &interval in intervals {
        // Baseline without crash/checkpoints.
        let baseline_runs = {
            let store: Arc<RunStore<IndexEntry>> = Arc::new(RunStore::new());
            let mut rf = RunFormation::new(Arc::clone(&store), 1024);
            for (i, &k) in keys.iter().enumerate() {
                rf.push(entry(k, i as u64), i as u64 + 1).expect("push");
            }
            rf.finish().expect("finish").len()
        };
        // Crash path.
        let store: Arc<RunStore<IndexEntry>> = Arc::new(RunStore::new());
        let mut rf = RunFormation::new(Arc::clone(&store), 1024);
        let mut cp: Option<SortCheckpoint<IndexEntry>> = None;
        let mut checkpoints = 0u64;
        for (i, &k) in keys.iter().take(crash_at).enumerate() {
            rf.push(entry(k, i as u64), i as u64 + 1).expect("push");
            if (i as u64 + 1).is_multiple_of(interval) {
                cp = Some(rf.checkpoint().expect("checkpoint"));
                checkpoints += 1;
            }
        }
        drop(rf);
        store.crash();
        let cp = cp.expect("at least one checkpoint");
        let refed = crash_at as u64 - cp.scan_pos;
        let mut rf = RunFormation::resume(Arc::clone(&store), 1024, &cp).expect("resume");
        for (i, &k) in keys.iter().enumerate().skip(cp.scan_pos as usize) {
            rf.push(entry(k, i as u64), i as u64 + 1).expect("push");
        }
        let runs = rf.finish().expect("finish");
        // Completeness check: all keys present across runs.
        let total: u64 = runs.iter().map(|&r| store.len(r).expect("len")).sum();
        assert_eq!(total, n, "sort lost keys");
        t.row(vec![
            interval.to_string(),
            checkpoints.to_string(),
            refed.to_string(),
            f2(100.0 * refed as f64 / crash_at as f64),
            runs.len().to_string(),
            baseline_runs.to_string(),
        ]);
    }
    t.note("Lost work ≤ one checkpoint interval; smaller intervals cost more, shorter runs.");
    vec![t]
}

/// E8: merge-phase checkpointing (§5.2). Merge R runs, crash at 60% of
/// the output, reposition by the counter vector: re-emitted keys are
/// bounded by the interval, and the output is byte-exact.
pub fn e8_restartable_merge(quick: bool) -> Vec<Table> {
    let n: u64 = if quick { 20_000 } else { 100_000 };
    let runs_count = 8usize;
    let intervals: &[u64] = if quick {
        &[1_000, 5_000]
    } else {
        &[1_000, 5_000, 20_000]
    };
    let mut t = Table::new(
        "E8: merge-phase checkpoints — lost work vs interval (crash at 60%)",
        &["interval", "re-emitted keys", "lost %", "output exact"],
    );
    let mut rng = StdRng::seed_from_u64(8);
    let mut expected: Vec<IndexEntry> = Vec::with_capacity(n as usize);
    let store: Arc<RunStore<IndexEntry>> = Arc::new(RunStore::new());
    let mut run_ids = Vec::new();
    for _ in 0..runs_count {
        let mut items: Vec<IndexEntry> = (0..n / runs_count as u64)
            .map(|i| entry(rng.random_range(0..10_000_000), i))
            .collect();
        items.sort();
        expected.extend(items.iter().cloned());
        let id = store.create_run();
        store.append(id, &items).expect("append");
        store.force_run(id).expect("force");
        run_ids.push(id);
    }
    expected.sort();
    let crash_at = expected.len() * 58 / 100 + 321;

    for &interval in intervals {
        let mut merge = Merge::new(&store, run_ids.clone());
        let mut out: Vec<IndexEntry> = Vec::with_capacity(expected.len());
        let mut cp: Option<MergeCheckpoint> = None;
        while out.len() < crash_at {
            out.push(merge.next().expect("key"));
            if (out.len() as u64).is_multiple_of(interval) {
                cp = Some(merge.checkpoint());
            }
        }
        drop(merge);
        store.crash();
        let cp = cp.expect("one checkpoint");
        // The output file is truncated back to the checkpoint.
        out.truncate(cp.emitted as usize);
        let re_emitted = crash_at as u64 - cp.emitted;
        let merge = Merge::resume(&store, &cp).expect("resume");
        out.extend(merge);
        let exact = out == expected;
        t.row(vec![
            interval.to_string(),
            re_emitted.to_string(),
            f2(100.0 * re_emitted as f64 / crash_at as f64),
            exact.to_string(),
        ]);
        assert!(exact, "merge output diverged");
    }
    t.note("'No key is left out from the merge and no key is output more than once' (§5.2).");
    vec![t]
}

/// E9: whole-build restart — crash the IB mid-insert (NSF) or mid-load
/// (SF), restart, resume; lost work is bounded by the IB checkpoint
/// interval (§2.2.3, §3.2.4).
pub fn e9_ib_restart(quick: bool) -> Vec<Table> {
    let n: i64 = if quick { 5_000 } else { 20_000 };
    let intervals: &[u32] = if quick {
        &[500, 2_000]
    } else {
        &[1_000, 4_000, 16_000]
    };
    let mut t = Table::new(
        "E9: IB restart — keys redone after a crash at 50% of the key-insert phase",
        &[
            "algorithm",
            "cp interval",
            "keys at checkpoint",
            "keys redone",
            "resume time",
        ],
    );
    for algo in [BuildAlgorithm::Nsf, BuildAlgorithm::Sf] {
        for &interval in intervals {
            let (db, _) = seed_table(bench_config(), n, 99);
            let site = match algo {
                BuildAlgorithm::Nsf => "nsf.insert.key",
                _ => "sf.load.key",
            };
            db.failpoints.arm_after(site, (n / 2) as u64);
            let options = BuildOptions::new().checkpoint_every(interval);
            let err =
                build_indexes(&db, TABLE, &[spec("e9")], algo, &options).expect_err("armed crash");
            assert!(err.is_crash());
            db.simulate_crash();
            db.restart().expect("restart");
            let id = db.indexes_of(TABLE).last().expect("idx").def.id;
            let at_checkpoint = match progress::load(&db, id).expect("progress") {
                Some(BuildProgress::Inserting { inserted, .. }) => inserted,
                Some(BuildProgress::Loading { bulk, .. }) => bulk.count,
                _ => 0,
            };
            let redone = (n as u64 / 2).saturating_sub(at_checkpoint);
            let started = Instant::now();
            resume_build(&db, id).expect("resume");
            let resume_time = started.elapsed();
            verify_index(&db, id).expect("verify");
            t.row(vec![
                format!("{algo:?}"),
                interval.to_string(),
                at_checkpoint.to_string(),
                redone.to_string(),
                ms(resume_time),
            ]);
        }
    }
    t.note(
        "Redone keys ≤ one checkpoint interval; re-insertions are rejected as duplicates (NSF).",
    );
    vec![t, e9_pages_forced()]
}

/// E9b: what the checkpoints of one uninterrupted, quiescent build
/// write, in pages (the `cache.force` delta across the build) — an
/// exact count, the same on every run. A checkpoint forces the pages
/// dirtied since the last one, so a build writes each page of its tree
/// about once, whatever the number of checkpoints.
fn e9_pages_forced() -> Table {
    let mut t = Table::new(
        "E9b: pages forced by one build's checkpoints (default interval, quiescent)",
        &[
            "algorithm",
            "rows",
            "checkpoints",
            "tree pages",
            "pages forced",
            "forced / tree",
        ],
    );
    let cfg = bench_config();
    let interval = cfg.build_checkpoint_every_keys as i64;
    for rows in [100_000, 300_000, 500_000].map(scaled) {
        let (db, _) = seed_table(cfg.clone(), rows, 99);
        for algo in [BuildAlgorithm::Nsf, BuildAlgorithm::Sf] {
            let force_count = || db.obs.snapshot().counter("cache.force").expect("gauge");
            let before = force_count();
            let id = build_index(&db, TABLE, spec(format!("e9b_{algo:?}")), algo).expect("build");
            let forced = force_count() - before;
            let pages = db.index(id).expect("idx").tree.cache.num_pages();
            t.row(vec![
                format!("{algo:?}"),
                rows.to_string(),
                (rows / interval).to_string(),
                pages.to_string(),
                forced.to_string(),
                f2(forced as f64 / f64::from(pages)),
            ]);
        }
    }
    t.note(
        "Forcing the whole tree at every checkpoint cost the sum of the tree's sizes at its \
         checkpoints: about checkpoints / 2 trees.",
    );
    t
}
