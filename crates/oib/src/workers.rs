//! The build workers: parked `oib-build` threads, one set per engine,
//! that run index builds one at a time.
//!
//! Every build runs here — a server's `CREATE INDEX`, a blocking
//! [`crate::build::build_indexes`] call and a post-crash
//! [`crate::build::resume_build`] alike — so the thread that frees one
//! build's pages allocates the next build's. A build's memory is
//! handed out by its thread's malloc arena; a fresh thread per build
//! gets a fresh arena, and what a dropped index gave back to an
//! arena no later build is handed stays resident (DESIGN §19). An idle
//! worker is reused most-recently-used first, since its arena holds
//! the pages the last build freed; a new one is spawned only when every
//! worker is busy.
//!
//! A build's scan partitions run here too (`Db::fork_join`): the
//! first on the build's own worker, the others on parked workers, so
//! run formation allocates from the arenas the last build freed. The
//! worker count is therefore the peak number of concurrent build
//! threads: a build with `parallel_workers = n` holds n. Every part is
//! joined before the call returns, and a part's panic is raised again
//! in the build with its own payload.
//!
//! An idle worker holds no `Arc<Db>`: only a running job does, so the
//! engine drops once its last outside handle does, and [`Db`]'s drop
//! wakes and joins the workers (`BuildWorkers::shutdown`). A job runs
//! under the trace context of the thread that submitted it, removed
//! again before the worker parks, and a job that panics leaves its
//! worker alive: the panic is the job's outcome.

use crate::engine::Db;
use parking_lot::{Condvar, Mutex};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};

/// A job as a worker runs it: once, catching nothing (the wrapper
/// built by [`Db::spawn_on_build_worker`] does). What it returns runs
/// once the worker is parked again, so whoever it tells that the job
/// is done finds the worker free for the next one.
type Job = Box<dyn FnOnce() -> Done + Send>;
type Done = Box<dyn FnOnce() + Send>;

/// An engine's build workers.
#[derive(Default)]
pub(crate) struct BuildWorkers {
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    /// Parked workers, the most recently used last.
    idle: Vec<Arc<Worker>>,
    /// Every worker spawned; none exits before the engine drops.
    threads: Vec<JoinHandle<()>>,
    /// The engine dropped: a worker that finishes its job exits.
    shutdown: bool,
}

/// One worker's mailbox, and the condvar it parks on.
#[derive(Default)]
struct Worker {
    mail: Mutex<Mail>,
    wake: Condvar,
}

#[derive(Default)]
enum Mail {
    #[default]
    Empty,
    Run(Job),
    Stop,
}

impl BuildWorkers {
    /// Worker threads alive (the `build.workers` gauge).
    pub(crate) fn live(&self) -> u64 {
        self.state.lock().threads.len() as u64
    }

    /// Hand `job` to the most recently parked worker, or to a new one
    /// when none is parked. If no thread can be spawned, the job runs
    /// here, on the caller's thread.
    fn submit(self: &Arc<Self>, job: Job) {
        let worker = {
            let mut st = self.state.lock();
            match st.idle.pop() {
                Some(worker) => worker,
                None => {
                    let worker = Arc::new(Worker::default());
                    let (me, w) = (Arc::clone(self), Arc::clone(&worker));
                    match thread::Builder::new()
                        .name("oib-build".into())
                        .spawn(move || me.run(&w))
                    {
                        Ok(handle) => st.threads.push(handle),
                        Err(_) => {
                            drop(st);
                            return job()();
                        }
                    }
                    worker
                }
            }
        };
        *worker.mail.lock() = Mail::Run(job);
        worker.wake.notify_one();
    }

    /// A worker: run what arrives in its mailbox, park again, and exit
    /// once the engine drops.
    fn run(&self, me: &Arc<Worker>) {
        loop {
            let job = {
                let mut mail = me.mail.lock();
                loop {
                    match std::mem::take(&mut *mail) {
                        Mail::Run(job) => break job,
                        Mail::Stop => return,
                        Mail::Empty => me.wake.wait(&mut mail),
                    }
                }
            };
            let done = job();
            let shutdown = {
                let mut st = self.state.lock();
                if !st.shutdown {
                    st.idle.push(Arc::clone(me));
                }
                st.shutdown
            };
            done();
            if shutdown {
                return;
            }
        }
    }

    /// The engine is dropping: stop the parked workers and wait for
    /// every worker to exit, except the one running this drop (its job
    /// held the last handle on the engine).
    pub(crate) fn shutdown(&self) {
        let (idle, threads) = {
            let mut st = self.state.lock();
            st.shutdown = true;
            (
                std::mem::take(&mut st.idle),
                std::mem::take(&mut st.threads),
            )
        };
        for worker in idle {
            *worker.mail.lock() = Mail::Stop;
            worker.wake.notify_one();
        }
        let me = thread::current().id();
        for thread in threads {
            if thread.thread().id() != me {
                let _ = thread.join();
            }
        }
    }
}

impl Db {
    /// Run `job` on one of the engine's build workers and return at
    /// once; `done` gets its outcome on the worker — `Err` with the
    /// payload if the job panicked. The job runs under the caller's
    /// trace context, and holds its `Arc<Db>` only until it returns:
    /// everything it captured is dropped before `done` runs.
    pub(crate) fn spawn_on_build_worker<R: Send + 'static>(
        self: &Arc<Db>,
        job: impl FnOnce(&Arc<Db>) -> R + Send + 'static,
        done: impl FnOnce(thread::Result<R>) + Send + 'static,
    ) {
        let ctx = mohan_obs::current_ctx();
        let db = Arc::clone(self);
        self.workers.submit(Box::new(move || {
            let out = {
                let _trace = ctx.map(mohan_obs::install_ctx);
                panic::catch_unwind(AssertUnwindSafe(move || job(&db)))
            };
            Box::new(move || done(out))
        }));
    }

    /// Run `parts` at once and return their results in order: part 0
    /// on this thread (a build worker: a build calls this), the others
    /// on build workers, most recently used first, under this thread's
    /// trace context. Returns only once every part has ended, whether
    /// it returned or panicked; then the first panic, in part order, is
    /// raised again with its own payload.
    pub(crate) fn fork_join<R: Send + 'static>(
        self: &Arc<Db>,
        parts: Vec<impl FnOnce(&Arc<Db>) -> R + Send + 'static>,
    ) -> Vec<R> {
        let n = parts.len();
        let mut parts = parts.into_iter();
        let Some(first) = parts.next() else {
            return Vec::new();
        };
        let (tx, rx) = mpsc::channel();
        for (i, part) in parts.enumerate() {
            let tx = tx.clone();
            self.spawn_on_build_worker(part, move |out| {
                let _ = tx.send((i + 1, out));
            });
        }
        drop(tx);
        let mut outs: Vec<Option<thread::Result<R>>> = Vec::with_capacity(n);
        outs.push(Some(panic::catch_unwind(AssertUnwindSafe(|| first(self)))));
        outs.resize_with(n, || None);
        for (i, out) in rx {
            outs[i] = Some(out);
        }
        outs.into_iter()
            .map(|out| match out.expect("a build worker answers every job") {
                Ok(r) => r,
                Err(payload) => panic::resume_unwind(payload),
            })
            .collect()
    }

    /// Run `job` on a build worker and wait for it; a panic in the job
    /// is raised again here.
    pub(crate) fn on_build_worker<R: Send + 'static>(
        self: &Arc<Db>,
        job: impl FnOnce(&Arc<Db>) -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = mpsc::sync_channel(1);
        self.spawn_on_build_worker(job, move |out| {
            let _ = tx.send(out);
        });
        match rx.recv().expect("a build worker answers every job") {
            Ok(r) => r,
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}
