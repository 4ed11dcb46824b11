//! Sort phase: replacement selection with checkpoints (§5.1).
//!
//! Keys stream in as the IB scans data pages; a bounded workspace
//! (the tournament tree's leaves) emits them to sorted runs. Because
//! replacement selection outputs a key only when it is no smaller than
//! the last key output, runs average twice the workspace size — unless
//! checkpoints drain the workspace, which is precisely the trade-off
//! the E7 test (`tests/paper_claims.rs`) prints.

use crate::checkpoint::{RunMeta, SortCheckpoint};
use crate::item::SortItem;
use crate::run_store::RunStore;
use mohan_common::pace::{Ticker, KEYS_PER_PACE};
use mohan_common::Result;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Streaming run builder.
pub struct RunFormation<T: SortItem> {
    store: Arc<RunStore<T>>,
    /// `(run_sequence, item)` min-heap: items tagged for the next run
    /// sort after every item of the current run.
    workspace: BinaryHeap<Reverse<(u64, T)>>,
    capacity: usize,
    /// Runs produced so far, in order; the last may still be open.
    runs: Vec<u64>,
    /// Sequence number of the run currently being written.
    cur_seq: u64,
    /// Highest key written to the open run.
    last_out: Option<T>,
    /// Caller-defined position of the last item pushed.
    scan_pos: u64,
}

impl<T: SortItem> RunFormation<T> {
    /// Start forming runs with a workspace of `capacity` items.
    #[must_use]
    pub fn new(store: Arc<RunStore<T>>, capacity: usize) -> RunFormation<T> {
        assert!(capacity >= 1);
        RunFormation {
            store,
            workspace: BinaryHeap::with_capacity(capacity + 1),
            capacity,
            runs: Vec::new(),
            cur_seq: 0,
            last_out: None,
            scan_pos: 0,
        }
    }

    /// Resume from a checkpoint: discard runs unknown to it, truncate
    /// every known run to its checkpointed length, and reopen the last
    /// run. The caller must re-feed input from just after
    /// [`SortCheckpoint::scan_pos`].
    pub fn resume(
        store: Arc<RunStore<T>>,
        capacity: usize,
        cp: &SortCheckpoint<T>,
    ) -> Result<RunFormation<T>> {
        Self::resume_keeping(store, capacity, cp, &[])
    }

    /// [`RunFormation::resume`] for a store shared by several sorters
    /// (the parallel scan: one run store, one `RunFormation` per
    /// worker). Runs in `preserve` belong to sibling checkpoints and
    /// survive the unknown-run cleanup; everything else this
    /// checkpoint does not know is deleted as usual.
    pub fn resume_keeping(
        store: Arc<RunStore<T>>,
        capacity: usize,
        cp: &SortCheckpoint<T>,
        preserve: &[u64],
    ) -> Result<RunFormation<T>> {
        let known: Vec<u64> = cp.runs.iter().map(|r| r.id).collect();
        for id in store.run_ids() {
            if !known.contains(&id) && !preserve.contains(&id) {
                store.delete(id);
            }
        }
        for meta in &cp.runs {
            store.truncate(meta.id, meta.len)?;
        }
        Ok(RunFormation {
            store,
            workspace: BinaryHeap::with_capacity(capacity + 1),
            capacity,
            runs: known,
            cur_seq: 0,
            last_out: cp.last_run_high.clone(),
            scan_pos: cp.scan_pos,
        })
    }

    fn open_run_id(&mut self) -> Result<u64> {
        if let Some(&last) = self.runs.last() {
            Ok(last)
        } else {
            let id = self.store.create_run();
            self.runs.push(id);
            Ok(id)
        }
    }

    /// Emit the workspace minimum to the proper run.
    fn emit_min(&mut self) -> Result<()> {
        let Some(Reverse((seq, item))) = self.workspace.pop() else {
            return Ok(());
        };
        if seq > self.cur_seq || self.runs.is_empty() {
            // Current run is exhausted (or none yet): open a new one.
            if !self.runs.is_empty() {
                let id = self.store.create_run();
                self.runs.push(id);
            }
            self.cur_seq = seq;
            self.last_out = None;
        }
        let run = self.open_run_id()?;
        self.store.append(run, std::slice::from_ref(&item))?;
        self.last_out = Some(item);
        Ok(())
    }

    /// Feed one item; `pos` is the caller's monotone scan position
    /// (e.g. the packed RID of the record the key came from).
    pub fn push(&mut self, item: T, pos: u64) -> Result<()> {
        debug_assert!(pos >= self.scan_pos, "scan positions must be monotone");
        self.scan_pos = pos;
        if self.workspace.len() >= self.capacity {
            self.emit_min()?;
        }
        let seq = match &self.last_out {
            Some(lo) if item < *lo => self.cur_seq + 1,
            _ => self.cur_seq,
        };
        self.workspace.push(Reverse((seq, item)));
        Ok(())
    }

    /// Take a checkpoint: drain the workspace ("wait for the
    /// tournament tree to output all the keys that have so far been
    /// extracted"), force every run, and return the metadata the
    /// caller must record on stable storage.
    pub fn checkpoint(&mut self) -> Result<SortCheckpoint<T>> {
        self.drain()?;
        let mut metas = Vec::with_capacity(self.runs.len());
        for &id in &self.runs {
            metas.push(RunMeta {
                id,
                len: self.store.len(id)?,
            });
        }
        Ok(SortCheckpoint {
            runs: metas,
            scan_pos: self.scan_pos,
            last_run_high: self.last_out.clone(),
        })
    }

    /// Finish the sort phase: drain, force, and return the run ids in
    /// creation order.
    pub fn finish(mut self) -> Result<Vec<u64>> {
        self.drain()?;
        Ok(self.runs)
    }

    /// Emit everything the workspace holds and force every run. A full
    /// workspace is the better part of a millisecond of work, so the
    /// drain gives way as it goes: its callers (the scan's checkpoint,
    /// between two records, and the end of the scan) hold nothing.
    fn drain(&mut self) -> Result<()> {
        let mut pacer = Ticker::new(KEYS_PER_PACE);
        while !self.workspace.is_empty() {
            self.emit_min()?;
            pacer.tick();
        }
        for &id in &self.runs {
            self.store.force_run(id)?;
        }
        Ok(())
    }

    /// Runs produced so far (the last may be open).
    #[must_use]
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Last scan position pushed.
    #[must_use]
    pub fn scan_pos(&self) -> u64 {
        self.scan_pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn collect_runs(store: &RunStore<i64>, runs: &[u64]) -> Vec<Vec<i64>> {
        runs.iter()
            .map(|&r| store.read(r, 0, usize::MAX).unwrap())
            .collect()
    }

    #[test]
    fn sorted_input_yields_single_run() {
        let store = Arc::new(RunStore::new());
        let mut rf = RunFormation::new(Arc::clone(&store), 4);
        for (i, v) in (0..100i64).enumerate() {
            rf.push(v, i as u64 + 1).unwrap();
        }
        let runs = rf.finish().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(collect_runs(&store, &runs)[0], (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn reverse_input_yields_runs_of_workspace_size() {
        let store = Arc::new(RunStore::new());
        let mut rf = RunFormation::new(Arc::clone(&store), 4);
        for (i, v) in (0..16i64).rev().enumerate() {
            rf.push(v, i as u64 + 1).unwrap();
        }
        let runs = rf.finish().unwrap();
        assert_eq!(runs.len(), 4);
        for run in collect_runs(&store, &runs) {
            assert_eq!(run.len(), 4);
            assert!(run.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn random_input_runs_are_sorted_and_complete() {
        let mut rng = StdRng::seed_from_u64(7);
        let input: Vec<i64> = (0..500).map(|_| rng.random_range(-1000..1000)).collect();
        let store = Arc::new(RunStore::new());
        let mut rf = RunFormation::new(Arc::clone(&store), 16);
        for (i, &v) in input.iter().enumerate() {
            rf.push(v, i as u64 + 1).unwrap();
        }
        let runs = rf.finish().unwrap();
        let mut all: Vec<i64> = Vec::new();
        for run in collect_runs(&store, &runs) {
            assert!(run.windows(2).all(|w| w[0] <= w[1]), "run not sorted");
            all.extend(run);
        }
        let mut expected = input;
        expected.sort_unstable();
        all.sort_unstable();
        assert_eq!(all, expected);
    }

    #[test]
    fn replacement_selection_doubles_run_length() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 4000usize;
        let ws = 64usize;
        let input: Vec<i64> = (0..n)
            .map(|_| rng.random_range(i64::MIN..i64::MAX))
            .collect();
        let store = Arc::new(RunStore::new());
        let mut rf = RunFormation::new(Arc::clone(&store), ws);
        for (i, &v) in input.iter().enumerate() {
            rf.push(v, i as u64 + 1).unwrap();
        }
        let runs = rf.finish().unwrap();
        let avg = n as f64 / runs.len() as f64;
        // Knuth: expected run length ≈ 2 × workspace for random input.
        assert!(avg > 1.5 * ws as f64, "avg run length {avg} too small");
    }

    #[test]
    fn checkpoint_and_resume_lose_nothing() {
        let mut rng = StdRng::seed_from_u64(3);
        let input: Vec<i64> = (0..300).map(|_| rng.random_range(-500..500)).collect();
        let store = Arc::new(RunStore::new());
        let mut rf = RunFormation::new(Arc::clone(&store), 8);
        // Feed the first 200, checkpoint, feed 50 more (lost), crash.
        for (i, &v) in input.iter().take(200).enumerate() {
            rf.push(v, i as u64 + 1).unwrap();
        }
        let cp = rf.checkpoint().unwrap();
        assert_eq!(cp.scan_pos, 200);
        for (i, &v) in input.iter().enumerate().skip(200).take(50) {
            rf.push(v, i as u64 + 1).unwrap();
        }
        drop(rf);
        store.crash();

        // Restart: resume and re-feed from scan_pos.
        let mut rf = RunFormation::resume(Arc::clone(&store), 8, &cp).unwrap();
        for (i, &v) in input.iter().enumerate().skip(cp.scan_pos as usize) {
            rf.push(v, i as u64 + 1).unwrap();
        }
        let runs = rf.finish().unwrap();
        let mut all: Vec<i64> = Vec::new();
        for run in collect_runs(&store, &runs) {
            assert!(run.windows(2).all(|w| w[0] <= w[1]));
            all.extend(run);
        }
        all.sort_unstable();
        let mut expected = input;
        expected.sort_unstable();
        assert_eq!(all, expected);
    }

    #[test]
    fn resume_appends_to_open_run_when_keys_continue_ascending() {
        let store = Arc::new(RunStore::new());
        let mut rf = RunFormation::new(Arc::clone(&store), 4);
        for (i, v) in (0..50i64).enumerate() {
            rf.push(v, i as u64 + 1).unwrap();
        }
        let cp = rf.checkpoint().unwrap();
        drop(rf);
        store.crash();
        let mut rf = RunFormation::resume(Arc::clone(&store), 4, &cp).unwrap();
        for (i, v) in (50..100i64).enumerate() {
            rf.push(v, cp.scan_pos + i as u64 + 1).unwrap();
        }
        let runs = rf.finish().unwrap();
        // Ascending keys after restart continue the same stream.
        assert_eq!(runs.len(), 1);
        assert_eq!(collect_runs(&store, &runs)[0], (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn resume_opens_new_run_when_keys_regress() {
        let store = Arc::new(RunStore::new());
        let mut rf = RunFormation::new(Arc::clone(&store), 4);
        for (i, v) in (100..150i64).enumerate() {
            rf.push(v, i as u64 + 1).unwrap();
        }
        let cp = rf.checkpoint().unwrap();
        drop(rf);
        store.crash();
        let mut rf = RunFormation::resume(Arc::clone(&store), 4, &cp).unwrap();
        for (i, v) in (0..20i64).enumerate() {
            rf.push(v, cp.scan_pos + i as u64 + 1).unwrap();
        }
        let runs = rf.finish().unwrap();
        assert_eq!(runs.len(), 2, "a smaller key must open a new stream");
    }

    #[test]
    fn resume_keeping_preserves_sibling_runs() {
        // Two workers share one store; worker A resumes without
        // destroying worker B's checkpointed runs.
        let store: Arc<RunStore<i64>> = Arc::new(RunStore::new());
        let mut a = RunFormation::new(Arc::clone(&store), 2);
        let mut b = RunFormation::new(Arc::clone(&store), 2);
        for (i, v) in [5i64, 1, 4].iter().enumerate() {
            a.push(*v, i as u64 + 1).unwrap();
        }
        for (i, v) in [9i64, 2, 8].iter().enumerate() {
            b.push(*v, i as u64 + 1).unwrap();
        }
        let cp_a = a.checkpoint().unwrap();
        let cp_b = b.checkpoint().unwrap();
        let b_runs: Vec<u64> = cp_b.runs.iter().map(|r| r.id).collect();
        // A ghost run neither checkpoint knows about must still vanish.
        let ghost = store.create_run();
        store.append(ghost, &[99]).unwrap();
        store.force_run(ghost).unwrap();
        drop((a, b));
        store.crash();
        let _a = RunFormation::resume_keeping(Arc::clone(&store), 2, &cp_a, &b_runs).unwrap();
        for id in &b_runs {
            assert!(store.read(*id, 0, 1).is_ok(), "sibling run {id} deleted");
        }
        assert!(store.read(ghost, 0, 1).is_err(), "ghost run survived");
    }

    #[test]
    fn resume_discards_unknown_runs() {
        let store: Arc<RunStore<i64>> = Arc::new(RunStore::new());
        let mut rf = RunFormation::new(Arc::clone(&store), 2);
        for (i, v) in [5i64, 1, 4, 2, 3].iter().enumerate() {
            rf.push(*v, i as u64 + 1).unwrap();
        }
        let cp = rf.checkpoint().unwrap();
        // A run created after the checkpoint must vanish on resume.
        let ghost = store.create_run();
        store.append(ghost, &[99]).unwrap();
        store.force_run(ghost).unwrap();
        store.crash();
        let rf = RunFormation::resume(Arc::clone(&store), 2, &cp).unwrap();
        assert!(!rf.runs.contains(&ghost));
        assert!(store.read(ghost, 0, 1).is_err());
    }
}
