//! The crash matrix: for every failpoint site in the build pipeline
//! and a spread of hit counts, kill the builder, restart, resume
//! (re-crashing if the site re-arms), and verify exactness. This is
//! the systematic version of the targeted crash tests in
//! `crates/oib/tests/crash_tests.rs`.

use online_index_build::prelude::*;

const T: TableId = TableId(1);

fn db() -> std::sync::Arc<Db> {
    let db = Db::new(EngineConfig {
        build_checkpoint_every_keys: 100,
        sort_workspace_keys: 32,
        merge_fan_in: 4,
        lock_timeout_ms: 5_000,
        ..EngineConfig::small()
    });
    db.create_table(T);
    let tx = db.begin();
    for k in 0..600 {
        db.insert_record(tx, T, &Record::new(vec![k, k % 13]))
            .unwrap();
    }
    db.commit(tx).unwrap();
    db
}

fn run_matrix(algorithm: BuildAlgorithm, sites: &[(&'static str, &[u64])]) {
    for &(site, skips) in sites {
        for &skip in skips {
            let db = db();
            db.failpoints.arm_after(site, skip);
            let spec = IndexSpec {
                name: format!("{site}@{skip}"),
                key_cols: vec![0],
                unique: false,
            };
            match build_index(&db, T, spec, algorithm) {
                Ok(idx) => {
                    // The site never fired (e.g. phase skipped): the
                    // build simply succeeded.
                    db.failpoints.clear();
                    verify_index(&db, idx)
                        .unwrap_or_else(|e| panic!("{algorithm:?} {site}@{skip}: {e}"));
                    continue;
                }
                Err(e) if e.is_crash() => {}
                Err(e) => panic!("{algorithm:?} {site}@{skip}: unexpected {e}"),
            }
            db.simulate_crash();
            db.restart().unwrap();
            let id = db.indexes_of(T).last().expect("descriptor").def.id;
            // Resume until done (a site may be re-armed by the test
            // matrix only once, so one resume suffices).
            resume_build(&db, id)
                .unwrap_or_else(|e| panic!("{algorithm:?} {site}@{skip} resume: {e}"));
            assert_eq!(db.index(id).unwrap().state(), IndexState::Complete);
            verify_index(&db, id)
                .unwrap_or_else(|e| panic!("{algorithm:?} {site}@{skip} verify: {e}"));
        }
    }
}

#[test]
fn nsf_crash_matrix() {
    run_matrix(
        BuildAlgorithm::Nsf,
        &[
            ("build.scan.record", &[0, 1, 77, 599]),
            ("build.scan", &[0, 2, 4]),
            ("build.reduce", &[0, 1]),
            ("nsf.insert.key", &[0, 1, 99, 301, 599]),
            ("build.insert", &[0, 2, 4]),
        ],
    );
}

#[test]
fn sf_crash_matrix() {
    run_matrix(
        BuildAlgorithm::Sf,
        &[
            ("build.scan.record", &[0, 1, 77, 599]),
            ("build.scan", &[0, 2, 4]),
            ("build.reduce", &[0, 1]),
            ("sf.load.key", &[0, 1, 99, 301, 599]),
            ("build.load", &[0, 2, 4]),
            ("sf.drain.op", &[0]),
            ("build.drain", &[0]),
        ],
    );
}

#[test]
fn multi_index_build_crash_resumes_each_independently() {
    let db = db();
    db.failpoints.arm_after("build.scan", 3);
    let err = build_indexes(
        &db,
        T,
        &[
            IndexSpec {
                name: "m0".into(),
                key_cols: vec![0],
                unique: false,
            },
            IndexSpec {
                name: "m1".into(),
                key_cols: vec![1],
                unique: false,
            },
        ],
        BuildAlgorithm::Sf,
        &BuildOptions::default(),
    )
    .expect_err("armed crash");
    assert!(err.is_crash());
    db.simulate_crash();
    db.restart().unwrap();
    // Each index resumes from its own progress record.
    let ids: Vec<IndexId> = db.indexes_of(T).iter().map(|i| i.def.id).collect();
    assert_eq!(ids.len(), 2);
    for id in ids {
        resume_build(&db, id).unwrap();
        verify_index(&db, id).unwrap();
    }
}

#[test]
fn double_crash_at_same_site_still_converges() {
    for algorithm in [BuildAlgorithm::Nsf, BuildAlgorithm::Sf] {
        let db = db();
        let site = match algorithm {
            BuildAlgorithm::Nsf => "build.insert",
            _ => "build.load",
        };
        db.failpoints.arm(site);
        let err = build_index(
            &db,
            T,
            IndexSpec {
                name: "d".into(),
                key_cols: vec![0],
                unique: false,
            },
            algorithm,
        )
        .expect_err("first crash");
        assert!(err.is_crash());
        db.simulate_crash();
        db.restart().unwrap();
        let id = db.indexes_of(T).last().unwrap().def.id;

        db.failpoints.arm(site); // same site again
        let err = resume_build(&db, id).expect_err("second crash");
        assert!(err.is_crash());
        db.simulate_crash();
        db.restart().unwrap();
        resume_build(&db, id).unwrap();
        verify_index(&db, id).unwrap();
    }
}
