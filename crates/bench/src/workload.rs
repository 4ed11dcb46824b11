//! Workload generation and the concurrent-updater (churn) driver used
//! by `perfbench`, the benches, the experiments and the root suites.

use mohan_common::{EngineConfig, Rid, TableId};
use mohan_oib::schema::Record;
use mohan_oib::Db;
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The table id every experiment uses.
pub const TABLE: TableId = TableId(1);

/// Engine configuration for experiments: realistic page sizes, but
/// checkpoint intervals scaled so laptop-sized tables still exercise
/// multiple checkpoints.
#[must_use]
pub fn bench_config() -> EngineConfig {
    EngineConfig {
        data_page_size: 4096,
        index_page_size: 2048,
        build_checkpoint_every_keys: 5_000,
        sort_workspace_keys: 1024,
        merge_fan_in: 8,
        lock_timeout_ms: 10_000,
        ..EngineConfig::default()
    }
}

/// Create a [`Db`] with one table seeded with `rows` records
/// (`col0 = 0..rows` as the key, `col1` a payload). Returns the engine
/// and the RIDs.
pub fn seed_table(cfg: EngineConfig, rows: i64, seed: u64) -> (Arc<Db>, Vec<Rid>) {
    let db = Db::new(cfg);
    db.create_table(TABLE);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rids = Vec::with_capacity(rows as usize);
    let mut tx = db.begin();
    for k in 0..rows {
        let payload = rng.random_range(0..1_000_000);
        rids.push(
            db.insert_record(tx, TABLE, &Record::new(vec![k, payload]))
                .expect("seed insert"),
        );
        if k % 5_000 == 4_999 {
            db.commit(tx).expect("seed commit");
            tx = db.begin();
        }
    }
    db.commit(tx).expect("seed commit");
    (db, rids)
}

/// Churn parameters.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Updater threads.
    pub threads: usize,
    /// Fraction of transactions rolled back.
    pub rollback_fraction: f64,
    /// Insert / delete / update weights.
    pub mix: (u32, u32, u32),
    /// RNG seed base.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            threads: 2,
            rollback_fraction: 0.1,
            mix: (1, 1, 1),
            seed: 42,
        }
    }
}

/// Aggregated churn outcome.
#[derive(Debug, Clone, Default)]
pub struct ChurnStats {
    /// Committed operations.
    pub ops: u64,
    /// Transactions rolled back on purpose.
    pub rollbacks: u64,
    /// Operations that failed (lock timeouts etc.).
    pub errors: u64,
    /// What each failed `rollback` said: the transaction is still open
    /// and still holds its locks.
    pub rollback_failures: Vec<String>,
}

/// A churn's committed operations, counted live, and a wait for a
/// count. A commit takes the lock only while someone waits.
#[derive(Default)]
struct Committed {
    ops: AtomicU64,
    waiters: AtomicUsize,
    lock: Mutex<()>,
    reached: Condvar,
}

impl Committed {
    fn get(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    fn bump(&self) {
        self.ops.fetch_add(1, Ordering::SeqCst);
        // A waiter registers before it reads the count: either it sees
        // this commit, or this load sees it and the notify, taken under
        // the lock it holds until it sleeps, wakes it.
        if self.waiters.load(Ordering::SeqCst) > 0 {
            let _guard = self.lock.lock();
            self.reached.notify_all();
        }
    }
}

/// A running churn; stop it to collect the stats.
pub struct ChurnHandle {
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<ChurnStats>>,
    committed: Arc<Committed>,
}

impl ChurnHandle {
    /// Block until the churn has committed `n` operations in total.
    ///
    /// # Panics
    /// If it has not within a minute: the churn stalled.
    pub fn wait_for_ops(&self, n: u64) {
        let c = &self.committed;
        let deadline = Instant::now() + Duration::from_secs(60);
        c.waiters.fetch_add(1, Ordering::SeqCst);
        let mut guard = c.lock.lock();
        while c.get() < n {
            if c.reached.wait_until(&mut guard, deadline).timed_out() && c.get() < n {
                panic!("churn stalled at {} of {n} committed operations", c.get());
            }
        }
        drop(guard);
        c.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Signal all updaters and collect their aggregated stats.
    pub fn stop(self) -> ChurnStats {
        self.stop.store(true, Ordering::Relaxed);
        let mut agg = ChurnStats::default();
        for h in self.handles {
            let s = h.join().expect("churn thread");
            agg.ops += s.ops;
            agg.rollbacks += s.rollbacks;
            agg.errors += s.errors;
            agg.rollback_failures.extend(s.rollback_failures);
        }
        agg
    }
}

/// Launch churn threads over `rids` (each thread owns a disjoint slice
/// of the seeded records plus its own key range for inserts).
pub fn start_churn(db: &Arc<Db>, rids: &[Rid], cfg: ChurnConfig) -> ChurnHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(Committed::default());
    let shared: Vec<Arc<Mutex<Vec<Rid>>>> = rids
        .chunks(rids.len().max(1) / cfg.threads.max(1) + 1)
        .map(|c| Arc::new(Mutex::new(c.to_vec())))
        .collect();
    let mut handles = Vec::with_capacity(cfg.threads);
    for t in 0..cfg.threads {
        let db = Arc::clone(db);
        let stop = Arc::clone(&stop);
        let mine = shared
            .get(t)
            .cloned()
            .unwrap_or_else(|| Arc::new(Mutex::new(Vec::new())));
        let cfg = cfg.clone();
        let committed = Arc::clone(&committed);
        handles.push(std::thread::spawn(move || {
            churn_thread(&db, &stop, &mine, &cfg, t as u64, &committed)
        }));
    }
    ChurnHandle {
        stop,
        handles,
        committed,
    }
}

fn churn_thread(
    db: &Arc<Db>,
    stop: &AtomicBool,
    mine: &Mutex<Vec<Rid>>,
    cfg: &ChurnConfig,
    thread_no: u64,
    committed: &Committed,
) -> ChurnStats {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(7919).wrapping_add(thread_no));
    let mut stats = ChurnStats::default();
    let mut next_key = 10_000_000 + (thread_no as i64) * 100_000_000;
    let (wi, wd, wu) = cfg.mix;
    let total_w = wi + wd + wu;

    while !stop.load(Ordering::Relaxed) {
        let roll = rng.random_bool(cfg.rollback_fraction);
        let tx = db.begin();
        let pick = rng.random_range(0..total_w);
        let mut local = mine.lock();
        let res = if pick < wi || local.is_empty() {
            next_key += 1;
            db.insert_record(tx, TABLE, &Record::new(vec![next_key, 7]))
                .map(|rid| {
                    if !roll {
                        local.push(rid);
                    }
                })
        } else if pick < wi + wd {
            let i = rng.random_range(0..local.len());
            let rid = local[i];
            db.delete_record(tx, TABLE, rid).map(|_| {
                if !roll {
                    local.swap_remove(i);
                }
            })
        } else {
            let rid = local[rng.random_range(0..local.len())];
            next_key += 1;
            db.update_record(tx, TABLE, rid, &Record::new(vec![next_key, 9]))
                .map(|_| ())
        };
        drop(local);
        match res {
            Ok(()) => {
                if roll {
                    if let Err(e) = db.rollback(tx) {
                        stats.rollback_failures.push(format!("{tx:?}: {e}"));
                    }
                    stats.rollbacks += 1;
                } else if db.commit(tx).is_ok() {
                    stats.ops += 1;
                    committed.bump();
                }
            }
            Err(op_err) => {
                if let Err(e) = db.rollback(tx) {
                    stats
                        .rollback_failures
                        .push(format!("{tx:?} after `{op_err}`: {e}"));
                }
                stats.errors += 1;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use mohan_oib::verify::verify_all;

    #[test]
    fn seed_and_churn_roundtrip() {
        let (db, rids) = seed_table(EngineConfig::small(), 200, 1);
        assert_eq!(rids.len(), 200);
        let churn = start_churn(
            &db,
            &rids,
            ChurnConfig {
                threads: 2,
                ..ChurnConfig::default()
            },
        );
        churn.wait_for_ops(10);
        let stats = churn.stop();
        assert!(stats.ops >= 10);
        assert_eq!(db.active_txs(), 0);
        // No index yet; verify_all trivially passes.
        assert_eq!(verify_all(&db, TABLE).unwrap(), 0);
    }
}
