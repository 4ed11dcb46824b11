//! A merge input gives back its whole blocks once the merge position
//! past them is durable (§5.2, DESIGN §13.3): `build.run_bytes_resident`
//! falls at every checkpoint of a final merge, reads 0 once the build
//! is complete, and a build crashed past a release resumes exactly.
//!
//! The gauge is read from failpoint hooks at the checkpoint sites, on
//! the builder's thread, after the checkpoint's release.

use mohan_common::{EngineConfig, TableId};
use mohan_oib::build::{build_index, resume_build, IndexSpec};
use mohan_oib::runtime::IndexState;
use mohan_oib::schema::{BuildAlgorithm, Record};
use mohan_oib::verify::verify_index;
use mohan_oib::Db;
use std::sync::{Arc, Mutex};

const T: TableId = TableId(1);
const ROWS: i64 = 20_000;
/// Keys between two checkpoints of every phase.
const EVERY: usize = 2_000;

/// `(build.run_bytes_resident, build.run_bytes_compressed)` at each hit.
type Seen = Arc<Mutex<Vec<(u64, u64)>>>;

fn db(cfg: EngineConfig) -> Arc<Db> {
    let db = Db::new(EngineConfig {
        lock_timeout_ms: 5_000,
        ..cfg
    });
    db.create_table(T);
    let tx = db.begin();
    // Distinct keys in a scattered order, so run formation cuts
    // several runs.
    for k in 0..ROWS {
        let key = k * 7_919 % ROWS;
        db.insert_record(tx, T, &Record::new(vec![key, k])).unwrap();
    }
    db.commit(tx).unwrap();
    db
}

fn load_cfg() -> EngineConfig {
    EngineConfig {
        build_checkpoint_every_keys: EVERY,
        ..EngineConfig::default()
    }
}

fn spec() -> IndexSpec {
    IndexSpec {
        name: "x".into(),
        key_cols: vec![0],
        unique: false,
    }
}

fn gauge(db: &Db, name: &str) -> u64 {
    db.obs.snapshot().counter(name).expect("registered")
}

/// Push the gauges at each of the next `n` hits of `site`, then run
/// `then` at the n-th. A hook is one-shot, so each arms the next; it
/// holds the engine weakly, so a hook still armed keeps nothing alive.
fn record(db: &Arc<Db>, site: &'static str, n: usize, seen: Seen, then: fn(&Db)) {
    let weak = Arc::downgrade(db);
    db.failpoints.arm_hook(site, 0, move || {
        let db = weak.upgrade().expect("the build holds the engine");
        let resident = gauge(&db, "build.run_bytes_resident");
        let written = gauge(&db, "build.run_bytes_compressed");
        seen.lock().unwrap().push((resident, written));
        if n > 1 {
            record(&db, site, n - 1, seen, then);
        } else {
            then(&db);
        }
    });
}

/// Build with a crash armed by `record`'s `then`; restart, resume and
/// verify. Returns the gauges seen before the crash.
fn crash_and_resume(db: &Arc<Db>, site: &'static str, n: usize, then: fn(&Db)) -> Vec<(u64, u64)> {
    let seen = Seen::default();
    record(db, site, n, Arc::clone(&seen), then);
    let err = build_index(db, T, spec(), BuildAlgorithm::Sf).unwrap_err();
    assert!(err.is_crash(), "expected a crash, got {err}");
    db.simulate_crash();
    db.restart().unwrap();
    let id = db.indexes_of(T).last().unwrap().def.id;
    resume_build(db, id).unwrap();
    assert_eq!(db.index(id).unwrap().state(), IndexState::Complete);
    verify_index(db, id).unwrap();
    assert_eq!(gauge(db, "build.run_bytes_resident"), 0);
    let seen = seen.lock().unwrap().clone();
    assert_eq!(seen.len(), n);
    seen
}

#[test]
fn the_gauge_falls_at_every_merge_checkpoint_and_reads_0_once_complete() {
    // Every build registers its index before its scan, so the gauge,
    // summed over registered indexes, sees every algorithm's runs.
    for (algo, site) in [
        (BuildAlgorithm::Sf, "build.load"),
        (BuildAlgorithm::Nsf, "build.insert"),
        (BuildAlgorithm::Offline, "build.load"),
    ] {
        let db = db(load_cfg());
        let seen = Seen::default();
        record(&db, site, usize::MAX, Arc::clone(&seen), |_| {});
        let id = build_index(&db, T, spec(), algo).unwrap();
        db.failpoints.clear();
        let resident: Vec<u64> = seen.lock().unwrap().iter().map(|s| s.0).collect();
        assert!(resident.len() >= 5, "{algo:?}: {resident:?}");
        assert!(resident[0] > 0, "{algo:?}");
        assert!(
            resident.windows(2).all(|w| w[1] < w[0]),
            "{algo:?}: the gauge must fall at every checkpoint: {resident:?}"
        );
        assert_eq!(db.index(id).unwrap().state(), IndexState::Complete);
        assert_eq!(gauge(&db, "build.run_bytes_resident"), 0, "{algo:?}");
        verify_index(&db, id).unwrap();
    }
}

#[test]
fn a_crash_at_a_load_checkpoint_past_a_release_resumes() {
    let db = db(load_cfg());
    // Crash at the third checkpoint, after two releases.
    let seen = crash_and_resume(&db, "build.load", 2, |db| db.failpoints.arm("build.load"));
    assert!(seen[1].0 < seen[0].0, "{seen:?}");
}

#[test]
fn a_crash_mid_load_after_two_checkpoints_resumes() {
    let db = db(load_cfg());
    let seen = crash_and_resume(&db, "build.load", 2, |db| {
        db.failpoints.arm_after("sf.load.key", EVERY as u64 / 2);
    });
    assert!(seen[1].0 < seen[0].0, "{seen:?}");
}

#[test]
fn a_crash_mid_reduce_step_past_a_release_resumes() {
    // Runs of ≈ 512 keys and a fan-in of 4: the first reduce step merges
    // ≈ 2 048 keys and checkpoints every 256 of them.
    let db = db(EngineConfig {
        build_checkpoint_every_keys: 256,
        sort_workspace_keys: 256,
        merge_fan_in: 4,
        ..EngineConfig::default()
    });
    // Crash at the step's third checkpoint, after two releases.
    let seen = crash_and_resume(&db, "build.reduce", 2, |db| {
        db.failpoints.arm("build.reduce")
    });
    // The step's output grows as its inputs shrink: between two
    // checkpoints the runs hold less than they did plus what the step
    // wrote, which they would not if nothing had been released.
    let grew = seen[1].0 as i64 - seen[0].0 as i64;
    let wrote = seen[1].1 as i64 - seen[0].1 as i64;
    assert!(grew < wrote, "{seen:?}");
}
