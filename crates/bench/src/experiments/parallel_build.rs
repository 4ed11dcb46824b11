//! E23 (parallel prefix-compressed bulk build): wall-clock speedup of
//! the partitioned scan-and-sort at 1/2/4 workers, the spilled-run
//! compression ratio, and the §6.2 two-index build riding one
//! partitioned scan.

use super::spec;
use crate::report::{f2, ms, Table};
use crate::workload::{bench_config, seed_table, TABLE};
use mohan_oib::build::{build_indexes, BuildOptions, IndexSpec};
use mohan_oib::schema::BuildAlgorithm;
use mohan_oib::verify::verify_index;
use std::time::{Duration, Instant};

/// Build `specs` on a freshly seeded table, returning the build time
/// and the run store's (raw, stored) spill accounting.
fn one_build(n: i64, specs: &[IndexSpec], opts: &BuildOptions) -> (Duration, u64, u64) {
    let (db, _) = seed_table(bench_config(), n, 2323);
    let started = Instant::now();
    let ids = build_indexes(&db, TABLE, specs, BuildAlgorithm::Sf, opts).expect("build");
    let took = started.elapsed();
    let (mut raw, mut stored) = (0u64, 0u64);
    for id in ids {
        verify_index(&db, id).expect("verify");
        let idx = db.index(id).expect("index");
        raw += idx.sort_store.raw_bytes.get();
        stored += idx.sort_store.stored_bytes.get();
    }
    (took, raw, stored)
}

/// E23: the parallel prefix-compressed build. Worker counts 1/2/4
/// partition the same scan (speedup over one worker should be
/// monotone), and every run is stored compressed at the same ratio
/// whatever the worker count.
pub fn e23_parallel_build(quick: bool) -> Vec<Table> {
    let n: i64 = if quick {
        super::scaled(40_000)
    } else {
        super::scaled(300_000)
    };
    let mut t = Table::new(
        "E23: parallel prefix-compressed bulk build (quiet table)",
        &[
            "rows",
            "workers",
            "build",
            "speedup",
            "run KB raw",
            "run KB stored",
            "ratio",
        ],
    );
    let mut base = None;
    for workers in [1u16, 2, 4] {
        let opts = BuildOptions::new().workers(workers);
        let (took, raw, stored) = one_build(n, &[spec("e23")], &opts);
        let base = *base.get_or_insert(took);
        t.row(vec![
            n.to_string(),
            workers.to_string(),
            ms(took),
            f2(base.as_secs_f64() / took.as_secs_f64().max(1e-9)),
            f2(raw as f64 / 1024.0),
            f2(stored as f64 / 1024.0),
            if raw == 0 {
                "-".into()
            } else {
                f2(stored as f64 / raw as f64)
            },
        ]);
    }
    t.note("Baseline: one worker. Speedup is baseline/run.");
    t.note("Run formation, spill and merge all happen on the worker partitions.");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    t.note(format!(
        "Host exposes {cores} core(s); scan-partition speedup needs cores >= workers."
    ));

    // §6.2 under parallelism: two indexes share the partitioned scan.
    let mut t2 = Table::new(
        "E23b: two indexes on one partitioned scan (§6.2 x parallel)",
        &["strategy", "build", "speedup"],
    );
    let two = [spec("e23_k"), {
        let mut s = spec("e23_v");
        s.key_cols = vec![1];
        s
    }];
    let (serial2, _, _) = one_build(n, &two, &BuildOptions::default());
    let (par2, _, _) = one_build(n, &two, &BuildOptions::new().workers(4));
    t2.row(vec!["2 indexes, serial".into(), ms(serial2), f2(1.0)]);
    t2.row(vec![
        "2 indexes, 4 workers".into(),
        ms(par2),
        f2(serial2.as_secs_f64() / par2.as_secs_f64().max(1e-9)),
    ]);
    t2.note("Both indexes verified entry-for-entry after every run.");
    vec![t, t2]
}
