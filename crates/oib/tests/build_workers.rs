//! Builds run on the engine's build workers (`mohan_oib::workers`):
//! one worker serves builds that follow each other, a post-crash
//! resume included; builds that overlap get a worker each; a parallel
//! build's scan partitions run on workers too, as many as it asks
//! for; a panic in a build or in one of its partitions reaches its
//! caller and leaves the worker alive; and the workers go when the
//! engine does.
//!
//! Which thread ran a build is recorded from a failpoint hook, which
//! runs on the thread that hits the site.

use mohan_common::failpoint::Failpoints;
use mohan_common::{EngineConfig, IndexId, TableId};
use mohan_oib::build::{build_index, build_indexes, resume_build, BuildOptions, IndexSpec};
use mohan_oib::schema::{BuildAlgorithm, Record};
use mohan_oib::verify::verify_index;
use mohan_oib::Db;
use std::cell::RefCell;
use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::{self, ThreadId};

const T: TableId = TableId(1);

fn db(rows: i64) -> Arc<Db> {
    let db = Db::new(EngineConfig {
        lock_timeout_ms: 5_000,
        ..EngineConfig::small()
    });
    db.create_table(T);
    let tx = db.begin();
    for k in 0..rows {
        db.insert_record(tx, T, &Record::new(vec![k, k % 7]))
            .unwrap();
    }
    db.commit(tx).unwrap();
    db
}

fn spec(name: &str) -> IndexSpec {
    IndexSpec {
        name: name.into(),
        key_cols: vec![0],
        unique: false,
    }
}

/// The thread that hits `site` next, and its name.
type Seen = Arc<Mutex<Vec<(ThreadId, Option<String>)>>>;

fn record_at(db: &Db, site: &str, seen: &Seen) {
    let seen = Arc::clone(seen);
    db.failpoints.arm_hook(site, 0, move || {
        let me = thread::current();
        seen.lock()
            .unwrap()
            .push((me.id(), me.name().map(str::to_owned)));
    });
}

/// Run `hook` at every hit of `site`, on the hitting thread, until the
/// site is disarmed or the hook panics: a failpoint hook is one-shot,
/// so this one arms itself again after each run.
fn on_every_hit(failpoints: &Failpoints, site: &'static str, hook: Arc<dyn Fn() + Send + Sync>) {
    let again = Arc::clone(failpoints);
    failpoints.arm_hook(site, 0, move || {
        hook();
        on_every_hit(&again, site, hook);
    });
}

fn workers_gauge(db: &Db) -> u64 {
    db.obs
        .snapshot()
        .counter("build.workers")
        .expect("build.workers is registered")
}

#[test]
fn sequential_builds_and_a_resume_share_one_worker() {
    let db = db(300);
    assert_eq!(workers_gauge(&db), 0, "no worker before the first build");
    let seen: Seen = Arc::default();
    for i in 0..3 {
        record_at(&db, "sf.load.key", &seen);
        let id = build_index(&db, T, spec(&format!("ix{i}")), BuildAlgorithm::Sf).unwrap();
        verify_index(&db, id).unwrap();
        assert_eq!(workers_gauge(&db), 1, "after build {i}");
    }

    db.failpoints.arm_after("sf.load.key", 100);
    let err = build_index(&db, T, spec("crashy"), BuildAlgorithm::Sf).unwrap_err();
    assert!(err.is_crash(), "expected a crash, got {err}");
    db.simulate_crash();
    db.restart().unwrap();
    let id = db.indexes_of(T).last().unwrap().def.id;
    record_at(&db, "sf.load.key", &seen);
    resume_build(&db, id).unwrap();
    verify_index(&db, id).unwrap();
    assert_eq!(workers_gauge(&db), 1, "after the resume");

    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 4, "every build hit the hook: {seen:?}");
    let (worker, name) = &seen[0];
    assert_ne!(*worker, thread::current().id(), "a build ran on the caller");
    assert_eq!(name.as_deref(), Some("oib-build"));
    assert!(
        seen.iter().all(|(id, _)| id == worker),
        "one worker serves builds that follow each other: {seen:?}"
    );
}

fn build_parallel(db: &Arc<Db>, name: &str) -> mohan_common::Result<IndexId> {
    let two_workers = BuildOptions::new().workers(2);
    build_indexes(db, T, &[spec(name)], BuildAlgorithm::Sf, &two_workers).map(|ids| ids[0])
}

#[test]
fn sequential_parallel_builds_and_a_resume_share_two_workers() {
    let db = db(600);
    let seen: Seen = Arc::default();
    {
        let seen = Arc::clone(&seen);
        on_every_hit(
            &db.failpoints,
            "build.scan.record",
            Arc::new(move || {
                let me = thread::current();
                seen.lock()
                    .unwrap()
                    .push((me.id(), me.name().map(str::to_owned)));
            }),
        );
    }
    for i in 0..3 {
        let id = build_parallel(&db, &format!("ix{i}")).unwrap();
        verify_index(&db, id).unwrap();
        assert_eq!(workers_gauge(&db), 2, "after build {i}");
    }

    db.failpoints.arm_after("build.scan", 1);
    let err = build_parallel(&db, "crashy").unwrap_err();
    assert!(err.is_crash(), "expected a crash, got {err}");
    assert_eq!(workers_gauge(&db), 2, "after the crash");
    db.simulate_crash();
    db.restart().unwrap();
    let id = db.indexes_of(T).last().unwrap().def.id;
    resume_build(&db, id).unwrap();
    verify_index(&db, id).unwrap();
    assert_eq!(workers_gauge(&db), 2, "after the resume");
    db.failpoints.disarm("build.scan.record");

    let seen = seen.lock().unwrap();
    let threads: HashSet<_> = seen.iter().map(|(id, _)| *id).collect();
    assert!(
        threads.len() <= 2,
        "two workers scan every build: {threads:?}"
    );
    assert!(
        !threads.contains(&thread::current().id()),
        "a partition ran on the caller"
    );
    assert!(
        seen.iter()
            .all(|(_, name)| name.as_deref() == Some("oib-build")),
        "every partition runs on a build worker"
    );
}

/// Panic with `message` at the first record scanned by a partition on
/// the build's own worker (`on_build_thread`), or by one on a pooled worker.
fn panic_in_partition(db: &Db, on_build_thread: bool, message: &'static str) {
    let build_thread: Arc<OnceLock<ThreadId>> = Arc::default();
    {
        let build_thread = Arc::clone(&build_thread);
        db.failpoints.arm_hook("build.registered", 0, move || {
            build_thread.set(thread::current().id()).unwrap();
        });
    }
    on_every_hit(
        &db.failpoints,
        "build.scan.record",
        Arc::new(move || {
            if (build_thread.get() == Some(&thread::current().id())) == on_build_thread {
                panic::panic_any(message);
            }
        }),
    );
}

#[test]
fn a_panicking_partition_reaches_its_caller_intact() {
    for (on_build_thread, message) in [
        (true, "partition panics on the build's worker"),
        (false, "partition panics on a pooled worker"),
    ] {
        let db = db(600);
        let id = build_parallel(&db, "before").unwrap();
        verify_index(&db, id).unwrap();
        assert_eq!(workers_gauge(&db), 2);

        panic_in_partition(&db, on_build_thread, message);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| build_parallel(&db, "panics")));
        let payload = caught.expect_err("the partition's panic is raised in the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&message));
        assert_eq!(workers_gauge(&db), 2, "{message}");

        let id = build_parallel(&db, "after").unwrap();
        verify_index(&db, id).unwrap();
        assert_eq!(workers_gauge(&db), 2, "{message}");
    }
}

#[test]
fn concurrent_builds_run_on_workers_of_their_own() {
    let db = db(300);
    let seen: Seen = Arc::default();
    let (parked_tx, parked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    {
        let seen = Arc::clone(&seen);
        db.failpoints.arm_hook("build.registered", 0, move || {
            seen.lock().unwrap().push((thread::current().id(), None));
            parked_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
    }
    let first = {
        let db = Arc::clone(&db);
        thread::spawn(move || build_index(&db, T, spec("first"), BuildAlgorithm::Sf))
    };
    parked_rx.recv().unwrap();

    // The first build waits in its hook; the second gets a worker of
    // its own and finishes meanwhile.
    let second = {
        let db = Arc::clone(&db);
        let seen = Arc::clone(&seen);
        thread::spawn(move || {
            record_at(&db, "build.registered", &seen);
            build_index(&db, T, spec("second"), BuildAlgorithm::Sf)
        })
    };
    let second = second.join().unwrap().unwrap();
    verify_index(&db, second).unwrap();
    assert_eq!(workers_gauge(&db), 2);

    release_tx.send(()).unwrap();
    let first = first.join().unwrap().unwrap();
    verify_index(&db, first).unwrap();
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 2);
    assert_ne!(seen[0].0, seen[1].0, "overlapping builds share no worker");
}

#[test]
fn a_panicking_build_reaches_its_caller_and_the_worker_lives_on() {
    let db = db(200);
    let seen: Seen = Arc::default();
    record_at(&db, "sf.load.key", &seen);
    build_index(&db, T, spec("before"), BuildAlgorithm::Sf).unwrap();

    db.failpoints
        .arm_hook("build.registered", 0, || panic!("hook panics mid-build"));
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        build_index(&db, T, spec("panics"), BuildAlgorithm::Sf)
    }));
    let payload = caught.expect_err("the build's panic is raised in the caller");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"hook panics mid-build")
    );

    record_at(&db, "sf.load.key", &seen);
    let id = build_index(&db, T, spec("after"), BuildAlgorithm::Sf).unwrap();
    verify_index(&db, id).unwrap();
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 2);
    assert_eq!(seen[0].0, seen[1].0, "the worker survived the panic");
    assert_eq!(workers_gauge(&db), 1);
}

/// Sets its flag when the thread that holds it exits.
struct OnExit(Arc<AtomicBool>);

impl Drop for OnExit {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

thread_local! {
    static EXIT: RefCell<Option<OnExit>> = const { RefCell::new(None) };
}

#[test]
fn the_workers_go_with_the_engine() {
    let db = db(100);
    let exited = Arc::new(AtomicBool::new(false));
    {
        let exited = Arc::clone(&exited);
        db.failpoints.arm_hook("build.registered", 0, move || {
            EXIT.with(|e| *e.borrow_mut() = Some(OnExit(exited)));
        });
    }
    build_index(&db, T, spec("ix"), BuildAlgorithm::Sf).unwrap();
    assert!(!exited.load(Ordering::Acquire), "the worker parks");

    let weak = Arc::downgrade(&db);
    drop(db);
    assert!(weak.upgrade().is_none(), "an idle worker holds no engine");
    assert!(
        exited.load(Ordering::Acquire),
        "dropping the engine joins its workers"
    );
}
