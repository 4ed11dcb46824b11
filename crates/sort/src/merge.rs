//! Merge phase: loser-tree merge with exact repositioning (§5.2).
//!
//! Every output is attributed to the input stream it came from, a
//! per-stream counter vector records the merge position, and
//! [`Merge::resume`] repositions the cursors so that "no key is left
//! out from the merge and no key is output more than once".

use crate::checkpoint::MergeCheckpoint;
use crate::item::SortItem;
use crate::loser_tree::LoserTree;
use crate::run_store::RunStore;
use mohan_common::{Error, Result};
use std::collections::VecDeque;
use std::sync::Arc;

/// How many items a cursor reads per batch (models a buffered input
/// stream; each refill is one simulated read I/O).
const CURSOR_BATCH: usize = 256;

/// A buffered read cursor over one run. A failed read ends it and is
/// kept in `error`.
pub struct RunCursor<T: SortItem> {
    store: Arc<RunStore<T>>,
    run: u64,
    pos: u64,
    buf: VecDeque<T>,
    error: Option<Error>,
}

impl<T: SortItem> RunCursor<T> {
    /// Open a cursor at item position `pos`.
    #[must_use]
    pub fn new(store: Arc<RunStore<T>>, run: u64, pos: u64) -> RunCursor<T> {
        RunCursor {
            store,
            run,
            pos,
            buf: VecDeque::new(),
            error: None,
        }
    }
}

impl<T: SortItem> Iterator for RunCursor<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        if self.buf.is_empty() {
            let read = self.store.read(self.run, self.pos, CURSOR_BATCH);
            let batch = read.map_err(|e| self.error = Some(e)).ok()?;
            self.pos += batch.len() as u64;
            self.buf.extend(batch);
        }
        self.buf.pop_front()
    }
}

/// A restartable N-way merge.
pub struct Merge<T: SortItem> {
    store: Arc<RunStore<T>>,
    tree: LoserTree<T, RunCursor<T>>,
    inputs: Vec<u64>,
    counters: Vec<u64>,
    emitted: u64,
}

impl<T: SortItem> Merge<T> {
    /// Start merging `inputs` (run ids) from their beginnings.
    #[must_use]
    pub fn new(store: &Arc<RunStore<T>>, inputs: Vec<u64>) -> Merge<T> {
        let cursors = inputs
            .iter()
            .map(|&r| RunCursor::new(Arc::clone(store), r, 0))
            .collect();
        let counters = vec![0; inputs.len()];
        Merge {
            store: Arc::clone(store),
            tree: LoserTree::new(cursors),
            inputs,
            counters,
            emitted: 0,
        }
    }

    /// Resume a merge from a checkpoint: "reposition the input files to
    /// the positions indicated by the counters' values" (§5.2). The
    /// caller is responsible for truncating any output it was writing
    /// back to `cp.emitted` items.
    pub fn resume(store: &Arc<RunStore<T>>, cp: &MergeCheckpoint) -> Result<Merge<T>> {
        if cp.inputs.len() != cp.counters.len() {
            return Err(Error::Corruption("merge checkpoint arity mismatch".into()));
        }
        // A position below a release, or in a missing run, is refused
        // here, not merged as an empty input.
        for (&run, &at) in cp.inputs.iter().zip(&cp.counters) {
            store.read(run, at, 0)?;
        }
        let cursors = cp
            .inputs
            .iter()
            .zip(&cp.counters)
            .map(|(&r, &c)| RunCursor::new(Arc::clone(store), r, c))
            .collect();
        Ok(Merge {
            store: Arc::clone(store),
            tree: LoserTree::new(cursors),
            inputs: cp.inputs.clone(),
            counters: cp.counters.clone(),
            emitted: cp.emitted,
        })
    }

    /// The current merge position, suitable for stable storage.
    #[must_use]
    pub fn checkpoint(&self) -> MergeCheckpoint {
        MergeCheckpoint {
            inputs: self.inputs.clone(),
            counters: self.counters.clone(),
            emitted: self.emitted,
        }
    }

    /// Free each input's whole blocks below its counter. Call it only
    /// once this position is durable: a restart then repositions every
    /// cursor at or above it (§5.2), and a cursor reads ahead of its
    /// counter, never behind.
    pub fn release(&self) -> Result<()> {
        for (&run, &below) in self.inputs.iter().zip(&self.counters) {
            self.store.release(run, below)?;
        }
        Ok(())
    }

    /// Items emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Peek at the next item without consuming it.
    #[must_use]
    pub fn peek(&self) -> Option<&T> {
        self.tree.peek()
    }

    /// The next item, `Ok(None)` at the end, or the read error of an
    /// input that ended early — a run deleted or cut under the merge.
    /// The error comes as soon as the failed input is due to refill,
    /// so a failed merge does no more work; the item popped with it is
    /// not emitted, and the position stays at the item before.
    pub fn try_next(&mut self) -> Result<Option<T>> {
        let Some((item, src)) = self.tree.pop() else {
            // An input that failed on its first fill never had a head.
            let failed = self.tree.sources().iter().find_map(|c| c.error.clone());
            return failed.map_or(Ok(None), Err);
        };
        if let Some(e) = &self.tree.sources()[src].error {
            return Err(e.clone());
        }
        self.counters[src] += 1;
        self.emitted += 1;
        Ok(Some(item))
    }
}

/// As an iterator the merge answers `None` at a read error;
/// [`Merge::try_next`] tells the two apart.
impl<T: SortItem> Iterator for Merge<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.try_next().ok().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn store_with_runs(runs: &[Vec<i64>]) -> (Arc<RunStore<i64>>, Vec<u64>) {
        let store = Arc::new(RunStore::new());
        let ids: Vec<u64> = runs
            .iter()
            .map(|r| {
                let id = store.create_run();
                store.append(id, r).unwrap();
                store.force_run(id).unwrap();
                id
            })
            .collect();
        (store, ids)
    }

    #[test]
    fn merges_to_sorted_output() {
        let (store, ids) = store_with_runs(&[vec![1, 5, 9], vec![2, 6], vec![3, 4, 7, 8]]);
        let out: Vec<i64> = Merge::new(&store, ids).collect();
        assert_eq!(out, (1..=9).collect::<Vec<_>>());
    }

    #[test]
    fn counters_track_consumption() {
        let (store, ids) = store_with_runs(&[vec![1, 3], vec![2]]);
        let mut m = Merge::new(&store, ids);
        assert_eq!(m.next(), Some(1));
        assert_eq!(m.next(), Some(2));
        let cp = m.checkpoint();
        assert_eq!(cp.counters, vec![1, 1]);
        assert_eq!(cp.emitted, 2);
    }

    #[test]
    fn resume_repositions_exactly() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut runs: Vec<Vec<i64>> = (0..5)
            .map(|_| {
                let mut v: Vec<i64> = (0..100).map(|_| rng.random_range(-1000..1000)).collect();
                v.sort_unstable();
                v
            })
            .collect();
        let mut expected: Vec<i64> = runs.iter().flatten().copied().collect();
        expected.sort_unstable();

        let (store, ids) = store_with_runs(&runs);
        runs.clear();

        // Merge 180 items, checkpoint, merge 60 more that will be
        // "lost", crash, resume, merge the rest.
        let mut m = Merge::new(&store, ids);
        let mut out: Vec<i64> = Vec::new();
        for _ in 0..180 {
            out.push(m.next().unwrap());
        }
        let cp = m.checkpoint();
        for _ in 0..60 {
            m.next().unwrap(); // lost output
        }
        drop(m);
        store.crash();
        // The caller truncates its output back to cp.emitted: `out`
        // already has exactly that many items.
        assert_eq!(out.len() as u64, cp.emitted);

        let m = Merge::resume(&store, &cp).unwrap();
        out.extend(m);
        assert_eq!(out, expected, "no key lost, none duplicated");
    }

    #[test]
    fn release_behind_the_counters_keeps_the_merge_and_its_resume_whole() {
        let runs: Vec<Vec<i64>> = (0..3)
            .map(|r| (0..200).map(|i| i * 3 + r).collect())
            .collect();
        let (store, ids) = store_with_runs(&runs);
        let mut m = Merge::new(&store, ids.clone());
        let mut out: Vec<i64> = m.by_ref().take(300).collect();
        m.release().unwrap();
        let cp = m.checkpoint();
        for (&run, &c) in ids.iter().zip(&cp.counters) {
            assert_eq!(c, 100);
            assert!(store.read(run, 95, 1).is_err(), "block 5 is freed");
            assert_eq!(store.read(run, 96, 1).unwrap().len(), 1);
        }
        out.extend(m.by_ref().take(50));
        drop(m);
        store.crash();
        out.truncate(300);
        out.extend(Merge::resume(&store, &cp).unwrap());
        assert_eq!(out, (0..600).collect::<Vec<_>>());
        // An older position lies below the release: refused.
        let stale = MergeCheckpoint {
            counters: vec![95, 100, 100],
            emitted: 295,
            ..cp
        };
        assert!(Merge::resume(&store, &stale).is_err());
    }

    #[test]
    fn resume_at_zero_equals_fresh_merge() {
        let (store, ids) = store_with_runs(&[vec![1, 4], vec![2, 3]]);
        let cp = MergeCheckpoint {
            inputs: ids.clone(),
            counters: vec![0, 0],
            emitted: 0,
        };
        let out: Vec<i64> = Merge::resume(&store, &cp).unwrap().collect();
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn resume_rejects_malformed_checkpoint() {
        let (store, _) = store_with_runs(&[vec![1i64]]);
        let cp = MergeCheckpoint {
            inputs: vec![0],
            counters: vec![],
            emitted: 0,
        };
        assert!(Merge::<i64>::resume(&store, &cp).is_err());
    }

    #[test]
    fn duplicate_keys_preserve_run_order() {
        // Identical keys must come out in input-run order (stability
        // for §3.2.5 side-file application).
        let (store, ids) = store_with_runs(&[vec![5, 5], vec![5], vec![5, 5, 5]]);
        let mut m = Merge::new(&store, ids);
        let mut sources = Vec::new();
        while let Some(_) = m.next() {
            // reconstruct attribution from counters delta
            sources.push(m.checkpoint().counters.clone());
        }
        // After all pops, counters equal run lengths.
        assert_eq!(m.checkpoint().counters, vec![2, 1, 3]);
        // First two outputs from run 0, then run 1, then run 2.
        assert_eq!(sources[1], vec![2, 0, 0]);
        assert_eq!(sources[2], vec![2, 1, 0]);
    }
}
