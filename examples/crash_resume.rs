//! Restartability demo (§2.2.3, §3.2.4, §5): kill the index builder
//! at three different phases, run ARIES restart recovery, resume the
//! build from its checkpoints, and verify the result — without
//! redoing all the work.
//!
//! ```text
//! cargo run --example crash_resume
//! ```

use online_index_build::prelude::*;

fn main() -> Result<()> {
    let db = Db::new(EngineConfig {
        // Small checkpoint intervals so each crash loses little work.
        build_checkpoint_every_keys: 2_000,
        ..EngineConfig::default()
    });
    let table = TableId(1);
    db.create_table(table);

    println!("loading 20,000 rows ...");
    let tx = db.begin();
    for k in 0..20_000 {
        db.insert_record(tx, table, &Record::new(vec![k, k % 97]))?;
    }
    db.commit(tx)?;

    // Crash #1: during the data-page scan / sort phase.
    println!("starting SF build; system failure during the scan ...");
    db.failpoints.arm_after("build.scan", 2);
    let err = build_index(
        &db,
        table,
        IndexSpec {
            name: "by_key".into(),
            key_cols: vec![0],
            unique: true,
        },
        BuildAlgorithm::Sf,
    )
    .expect_err("the armed failpoint kills the build");
    assert!(err.is_crash());
    println!("  -> {err}");

    db.simulate_crash();
    let stats = db.restart()?;
    println!(
        "restart recovery: {} records analyzed, {} redone, {} loser tx",
        stats.analyzed, stats.redone, stats.losers
    );
    let id = db
        .indexes_of(table)
        .last()
        .expect("descriptor survives")
        .def
        .id;

    // Crash #2: during the bottom-up load.
    println!("resuming; system failure during the bulk load ...");
    db.failpoints.arm("build.load");
    let err = resume_build(&db, id).expect_err("second crash");
    assert!(err.is_crash());
    db.simulate_crash();
    db.restart()?;

    // Crash #3: during the side-file drain (populate it first so the
    // drain has work: after a crash every update is side-file
    // visible).
    println!("making 200 updates that land in the side-file ...");
    let tx = db.begin();
    for k in 0..200 {
        db.insert_record(tx, table, &Record::new(vec![100_000 + k, 1]))?;
    }
    db.commit(tx)?;
    println!("resuming; system failure during the drain ...");
    db.failpoints.arm_after("sf.drain.op", 50);
    match resume_build(&db, id) {
        Err(e) if e.is_crash() => {
            println!("  -> {e}");
            db.simulate_crash();
            db.restart()?;
        }
        other => {
            other?;
        }
    }

    // Final resume completes the build.
    println!("final resume ...");
    resume_build(&db, id)?;
    assert_eq!(db.index(id).unwrap().state(), IndexState::Complete);
    verify_index(&db, id)?;
    println!("index complete and verified after three crashes ✓");

    // The finished unique index enforces its constraint.
    let tx = db.begin();
    let dup = db.insert_record(tx, table, &Record::new(vec![5, 0]));
    assert!(matches!(dup, Err(Error::UniqueViolation { .. })));
    db.rollback(tx)?;
    println!("unique constraint live: duplicate key 5 rejected ✓");
    Ok(())
}
