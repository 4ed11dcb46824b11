//! The external-sort orchestrator: run formation, restartable
//! multi-pass merging under a fan-in limit, and a pipelined final
//! merge.
//!
//! Intermediate merge passes write whole runs and are restartable at
//! item granularity via [`MergePassCheckpoint`] (the §5.2 machinery:
//! output truncation + counter repositioning). The *final* merge is
//! not materialized — the paper pipelines it into index-key insertion
//! (§2.2.2: "the final merge phase of sort can be performed as keys
//! are being inserted into the index") — so the index builder owns its
//! checkpoint (it stores the final [`Merge`]'s counters next to its
//! own progress record).

use crate::checkpoint::MergeCheckpoint;
use crate::item::SortItem;
use crate::merge::Merge;
use crate::run_formation::RunFormation;
use crate::run_store::RunStore;
use mohan_common::pace::{Ticker, KEYS_PER_PACE};
use mohan_common::{Error, Result};
use std::sync::Arc;

/// Where a resumable sort job currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortPhase {
    /// Feeding input / forming runs (§5.1).
    Forming,
    /// Reducing runs below the fan-in limit (§5.2).
    Merging,
    /// Final streams ready for the pipelined merge.
    Done,
}

/// Durable position of the run-reduction phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergePassCheckpoint {
    /// Runs awaiting merging, in order (excludes the in-flight step's
    /// inputs).
    pub remaining: Vec<u64>,
    /// In-progress step: `(output run, merge position)`.
    pub inflight: Option<(u64, MergeCheckpoint)>,
}

impl MergePassCheckpoint {
    /// Serialize for the stable blob store.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.remaining.len() as u64).to_be_bytes());
        for &r in &self.remaining {
            out.extend_from_slice(&r.to_be_bytes());
        }
        match &self.inflight {
            None => out.push(0),
            Some((output, cp)) => {
                out.push(1);
                out.extend_from_slice(&output.to_be_bytes());
                out.extend_from_slice(&cp.encode());
            }
        }
        out
    }

    /// Deserialize; `None` on corrupt input.
    #[must_use]
    pub fn decode(buf: &[u8]) -> Option<MergePassCheckpoint> {
        let mut pos = 0;
        let rd = |buf: &[u8], pos: &mut usize| -> Option<u64> {
            if buf.len() < *pos + 8 {
                return None;
            }
            let mut b = [0u8; 8];
            b.copy_from_slice(&buf[*pos..*pos + 8]);
            *pos += 8;
            Some(u64::from_be_bytes(b))
        };
        let n = rd(buf, &mut pos)? as usize;
        let mut remaining = Vec::with_capacity(n);
        for _ in 0..n {
            remaining.push(rd(buf, &mut pos)?);
        }
        let inflight = match *buf.get(pos)? {
            0 => None,
            1 => {
                pos += 1;
                let output = rd(buf, &mut pos)?;
                let cp = MergeCheckpoint::decode(&buf[pos..])?;
                Some((output, cp))
            }
            _ => return None,
        };
        Some(MergePassCheckpoint {
            remaining,
            inflight,
        })
    }
}

/// Configuration + store handle for one external sort.
pub struct ExternalSort<T: SortItem> {
    /// Stable run storage.
    pub store: Arc<RunStore<T>>,
    /// Replacement-selection workspace size.
    pub workspace: usize,
    /// Maximum runs merged in one pass.
    pub fan_in: usize,
    /// Items between checkpoints during run reduction.
    pub checkpoint_every: usize,
}

impl<T: SortItem> ExternalSort<T> {
    /// New sorter with its own run store.
    #[must_use]
    pub fn new(workspace: usize, fan_in: usize, checkpoint_every: usize) -> ExternalSort<T> {
        assert!(fan_in >= 2);
        ExternalSort {
            store: Arc::new(RunStore::new()),
            workspace,
            fan_in,
            checkpoint_every: checkpoint_every.max(1),
        }
    }

    /// Begin (or continue, via [`RunFormation::resume`]) run formation.
    #[must_use]
    pub fn run_formation(&self) -> RunFormation<T> {
        RunFormation::new(Arc::clone(&self.store), self.workspace)
    }

    /// Merge one step's inputs into `output`, starting from `merge`,
    /// persisting progress every `checkpoint_every` items.
    fn finish_step(
        &self,
        remaining: &[u64],
        output: u64,
        mut merge: Merge<T>,
        persist: &mut dyn FnMut(&MergePassCheckpoint) -> Result<()>,
    ) -> Result<Vec<u64>> {
        let inputs = merge.checkpoint().inputs;
        let mut since_cp = 0usize;
        // The output goes to the store a pace block at a time: a whole
        // checkpoint interval's keys in one `append` would be a
        // millisecond of encoding that gives way to nobody.
        let block = KEYS_PER_PACE as usize;
        let mut batch: Vec<T> = Vec::with_capacity(block);
        // Between keys the step holds nothing (the run store's locks
        // are taken and dropped inside `append` and the cursor reads).
        let mut pacer = Ticker::new(KEYS_PER_PACE);
        while let Some(item) = merge.next() {
            pacer.tick();
            batch.push(item);
            since_cp += 1;
            if batch.len() >= block {
                self.store.append(output, &batch)?;
                batch.clear();
            }
            if since_cp >= self.checkpoint_every {
                self.store.append(output, &batch)?;
                batch.clear();
                self.store.force_run(output)?;
                persist(&MergePassCheckpoint {
                    remaining: remaining.to_vec(),
                    inflight: Some((output, merge.checkpoint())),
                })?;
                since_cp = 0;
            }
        }
        self.store.append(output, &batch)?;
        self.store.force_run(output)?;
        // Completion checkpoint *before* deleting inputs, so a crash in
        // between only leaves garbage runs (cleaned on resume), never a
        // dangling reference.
        let mut new_remaining = remaining.to_vec();
        new_remaining.push(output);
        persist(&MergePassCheckpoint {
            remaining: new_remaining.clone(),
            inflight: None,
        })?;
        for r in inputs {
            self.store.delete(r);
        }
        Ok(new_remaining)
    }

    /// Reduce `runs` until at most `fan_in` remain, persisting progress
    /// through `persist` (which typically writes to the stable blob
    /// area — and in crash tests returns an injected error to kill the
    /// job at an exact point).
    pub fn reduce_runs(
        &self,
        mut runs: Vec<u64>,
        persist: &mut dyn FnMut(&MergePassCheckpoint) -> Result<()>,
    ) -> Result<Vec<u64>> {
        while runs.len() > self.fan_in {
            let inputs: Vec<u64> = runs.drain(..self.fan_in).collect();
            let output = self.store.create_run();
            let merge = Merge::new(&self.store, inputs);
            runs = self.finish_step(&runs, output, merge, persist)?;
        }
        Ok(runs)
    }

    /// Resume run reduction after a crash.
    pub fn resume_reduce(
        &self,
        cp: &MergePassCheckpoint,
        persist: &mut dyn FnMut(&MergePassCheckpoint) -> Result<()>,
    ) -> Result<Vec<u64>> {
        // Drop runs the checkpoint does not know about (outputs of
        // steps that never reached their completion checkpoint, or
        // inputs already merged but not yet deleted).
        let mut known = cp.remaining.clone();
        if let Some((output, ref m)) = cp.inflight {
            known.push(output);
            known.extend(&m.inputs);
        }
        for id in self.store.run_ids() {
            if !known.contains(&id) {
                self.store.delete(id);
            }
        }
        let mut runs = cp.remaining.clone();
        if let Some((output, ref m)) = cp.inflight {
            self.store.truncate(output, m.emitted)?;
            let merge = Merge::resume(&self.store, m)?;
            runs = self.finish_step(&cp.remaining, output, merge, persist)?;
        }
        self.reduce_runs(runs, persist)
    }

    /// Open the pipelined final merge over the surviving streams.
    pub fn final_merge(&self, runs: Vec<u64>) -> Result<Merge<T>> {
        if runs.len() > self.fan_in {
            return Err(Error::Corruption(format!(
                "{} final streams exceed fan-in {}",
                runs.len(),
                self.fan_in
            )));
        }
        Ok(Merge::new(&self.store, runs))
    }

    /// Convenience: fully sort an iterator in one call (no crash
    /// simulation). Used by tests, examples and the offline baseline.
    pub fn sort_all(&self, items: impl IntoIterator<Item = T>) -> Result<Vec<T>> {
        let mut rf = self.run_formation();
        for (i, item) in items.into_iter().enumerate() {
            rf.push(item, i as u64 + 1)?;
        }
        let runs = rf.finish()?;
        let runs = self.reduce_runs(runs, &mut |_| Ok(()))?;
        Ok(self.final_merge(runs)?.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mohan_common::Error;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_input(n: usize, seed: u64) -> Vec<i64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.random_range(-10_000..10_000)).collect()
    }

    #[test]
    fn sort_all_sorts() {
        let xs = random_input(5000, 1);
        let sorter: ExternalSort<i64> = ExternalSort::new(64, 4, 128);
        let got = sorter.sort_all(xs.clone()).unwrap();
        let mut expected = xs;
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn multipass_merge_respects_fan_in() {
        let xs = random_input(2000, 2);
        let sorter: ExternalSort<i64> = ExternalSort::new(8, 2, 64);
        let mut rf = sorter.run_formation();
        for (i, &v) in xs.iter().enumerate() {
            rf.push(v, i as u64 + 1).unwrap();
        }
        let runs = rf.finish().unwrap();
        assert!(runs.len() > 2, "need many runs for a multipass test");
        let finals = sorter.reduce_runs(runs, &mut |_| Ok(())).unwrap();
        assert!(finals.len() <= 2);
        let got: Vec<i64> = sorter.final_merge(finals).unwrap().collect();
        let mut expected = xs;
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn checkpoint_roundtrip() {
        let cp = MergePassCheckpoint {
            remaining: vec![4, 9],
            inflight: Some((
                17,
                MergeCheckpoint {
                    inputs: vec![1, 2],
                    counters: vec![3, 0],
                    emitted: 3,
                },
            )),
        };
        assert_eq!(MergePassCheckpoint::decode(&cp.encode()), Some(cp));
        let done = MergePassCheckpoint {
            remaining: vec![],
            inflight: None,
        };
        assert_eq!(MergePassCheckpoint::decode(&done.encode()), Some(done));
    }

    /// Crash the reduction at every persisted checkpoint in turn and
    /// prove resume always produces the same fully sorted output.
    #[test]
    fn reduce_survives_crash_at_every_checkpoint() {
        let xs = random_input(1200, 3);
        let mut expected = xs.clone();
        expected.sort_unstable();

        for crash_at in 0..20 {
            let sorter: ExternalSort<i64> = ExternalSort::new(8, 2, 100);
            let mut rf = sorter.run_formation();
            for (i, &v) in xs.iter().enumerate() {
                rf.push(v, i as u64 + 1).unwrap();
            }
            let runs = rf.finish().unwrap();

            let mut saved: Option<MergePassCheckpoint> = None;
            let mut count = 0;
            let result = sorter.reduce_runs(runs.clone(), &mut |cp| {
                saved = Some(cp.clone());
                count += 1;
                if count == crash_at + 1 {
                    Err(Error::InjectedCrash("sort.reduce"))
                } else {
                    Ok(())
                }
            });

            let finals = match result {
                Ok(f) => f,
                Err(e) => {
                    assert!(e.is_crash());
                    sorter.store.crash();
                    let cp = saved.expect("crash implies a persisted checkpoint");
                    sorter.resume_reduce(&cp, &mut |_| Ok(())).unwrap()
                }
            };
            let got: Vec<i64> = sorter.final_merge(finals).unwrap().collect();
            assert_eq!(got, expected, "crash_at={crash_at}");
        }
    }

    #[test]
    fn resume_cleans_garbage_runs() {
        let sorter: ExternalSort<i64> = ExternalSort::new(1, 2, 10);
        // Workspace of one on descending input: one run per item, so
        // fan-in 2 forces several steps.
        let mut rf = sorter.run_formation();
        for (i, v) in [9i64, 8, 7, 3, 2, 1].iter().enumerate() {
            rf.push(*v, i as u64 + 1).unwrap();
        }
        let runs = rf.finish().unwrap();
        assert!(runs.len() > 2);
        // Crash immediately at the first persist.
        let mut saved = None;
        let err = sorter
            .reduce_runs(runs, &mut |cp| {
                saved = Some(cp.clone());
                Err(Error::InjectedCrash("x"))
            })
            .unwrap_err();
        assert!(err.is_crash());
        sorter.store.crash();
        let finals = sorter
            .resume_reduce(&saved.unwrap(), &mut |_| Ok(()))
            .unwrap();
        let got: Vec<i64> = sorter.final_merge(finals).unwrap().collect();
        assert_eq!(got, vec![1, 2, 3, 7, 8, 9]);
        // Only the runs the final checkpoint knows about remain.
        assert!(sorter.store.run_ids().len() <= 2);
    }

    #[test]
    fn final_merge_rejects_too_many_streams() {
        let sorter: ExternalSort<i64> = ExternalSort::new(4, 2, 10);
        let runs: Vec<u64> = (0..3).map(|_| sorter.store.create_run()).collect();
        assert!(sorter.final_merge(runs).is_err());
    }

    #[test]
    fn sort_all_handles_empty_and_single() {
        let sorter: ExternalSort<i64> = ExternalSort::new(4, 2, 10);
        assert_eq!(
            sorter.sort_all(Vec::<i64>::new()).unwrap(),
            Vec::<i64>::new()
        );
        let sorter2: ExternalSort<i64> = ExternalSort::new(4, 2, 10);
        assert_eq!(sorter2.sort_all(vec![42i64]).unwrap(), vec![42]);
    }
}
