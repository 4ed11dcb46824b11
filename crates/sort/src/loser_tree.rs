//! A tournament (loser) tree over N input iterators.
//!
//! The paper assumes a tournament tree sort \[Knut73\]. The property
//! §5.2 exploits — "a particular leaf node of the tree is always fed
//! from the same input stream ... as we produce an output from the
//! root of the tree, we know exactly which input stream that value
//! came from" — is exactly what [`LoserTree::pop`] returns: the winner
//! *and its source index*.
//!
//! Ties break by source index, making merges stable across runs
//! created in order (earlier run wins), which §3.2.5 needs when the
//! side-file is sorted "without modifying the relative positions of
//! the identical keys".

/// Sentinel marking an empty tree slot during construction.
const NOBODY: usize = usize::MAX;

/// Loser tree over `k` iterators.
pub struct LoserTree<T: Ord, I: Iterator<Item = T>> {
    sources: Vec<I>,
    heads: Vec<Option<T>>,
    /// `tree[0]` is the overall winner; `tree[1..k]` hold losers.
    tree: Vec<usize>,
}

impl<T: Ord, I: Iterator<Item = T>> LoserTree<T, I> {
    /// Build a tree over `sources` (each already positioned at its
    /// first item).
    pub fn new(mut sources: Vec<I>) -> LoserTree<T, I> {
        let k = sources.len();
        let heads: Vec<Option<T>> = sources.iter_mut().map(Iterator::next).collect();
        let mut lt = LoserTree {
            sources,
            heads,
            tree: vec![NOBODY; k.max(1)],
        };
        if k > 1 {
            let winner = lt.build(1);
            lt.tree[0] = winner;
        } else if k == 1 {
            lt.tree[0] = 0;
        }
        lt
    }

    /// Recursively play the initial tournament for the subtree rooted
    /// at internal node `t`, storing losers and returning the winner.
    /// Child indices ≥ `k` denote leaves (source `index - k`).
    fn build(&mut self, t: usize) -> usize {
        let k = self.sources.len();
        let child = |c: usize, lt: &mut Self| -> usize {
            if c >= k {
                c - k
            } else {
                lt.build(c)
            }
        };
        let a = child(2 * t, self);
        let b = child(2 * t + 1, self);
        if self.beats(a, b) {
            self.tree[t] = b;
            a
        } else {
            self.tree[t] = a;
            b
        }
    }

    /// Does source `a` beat source `b`? Exhausted sources lose to
    /// everything; ties break toward the smaller source index.
    fn beats(&self, a: usize, b: usize) -> bool {
        if a == NOBODY {
            return false;
        }
        if b == NOBODY {
            return true;
        }
        match (&self.heads[a], &self.heads[b]) {
            (Some(x), Some(y)) => (x, a) < (y, b),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a < b,
        }
    }

    /// Replay matches from leaf `s` to the root.
    fn adjust(&mut self, s: usize) {
        let k = self.sources.len();
        let mut winner = s;
        let mut t = (s + k) / 2;
        while t > 0 {
            if self.beats(self.tree[t], winner) {
                std::mem::swap(&mut winner, &mut self.tree[t]);
            }
            t /= 2;
        }
        self.tree[0] = winner;
    }

    /// Pop the smallest item, returning `(item, source_index)`.
    pub fn pop(&mut self) -> Option<(T, usize)> {
        if self.sources.is_empty() {
            return None;
        }
        let w = self.tree[0];
        if w == NOBODY {
            return None;
        }
        let item = self.heads[w].take()?;
        self.heads[w] = self.sources[w].next();
        if self.sources.len() > 1 {
            self.adjust(w);
        }
        Some((item, w))
    }

    /// Peek at the current winner without consuming it.
    #[must_use]
    pub fn peek(&self) -> Option<&T> {
        if self.sources.is_empty() {
            return None;
        }
        let w = self.tree[0];
        if w == NOBODY {
            return None;
        }
        self.heads[w].as_ref()
    }

    /// Number of input sources.
    #[must_use]
    pub fn fan_in(&self) -> usize {
        self.sources.len()
    }

    /// The input sources, by source index.
    #[must_use]
    pub fn sources(&self) -> &[I] {
        &self.sources
    }
}

impl<T: Ord, I: Iterator<Item = T>> Iterator for LoserTree<T, I> {
    type Item = (T, usize);
    fn next(&mut self) -> Option<(T, usize)> {
        self.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn merge_all(inputs: Vec<Vec<i64>>) -> Vec<(i64, usize)> {
        LoserTree::new(inputs.into_iter().map(Vec::into_iter).collect()).collect()
    }

    #[test]
    fn merges_three_runs() {
        let out = merge_all(vec![vec![1, 4, 7], vec![2, 5, 8], vec![3, 6, 9]]);
        let vals: Vec<i64> = out.iter().map(|(v, _)| *v).collect();
        assert_eq!(vals, (1..=9).collect::<Vec<_>>());
    }

    #[test]
    fn reports_source_of_each_output() {
        let out = merge_all(vec![vec![1, 3], vec![2, 4]]);
        assert_eq!(out, vec![(1, 0), (2, 1), (3, 0), (4, 1)]);
    }

    #[test]
    fn handles_empty_and_unequal_runs() {
        let out = merge_all(vec![vec![], vec![5], vec![1, 2, 3, 4]]);
        let vals: Vec<i64> = out.iter().map(|(v, _)| *v).collect();
        assert_eq!(vals, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn single_source_passthrough() {
        let out = merge_all(vec![vec![3, 1, 2]]); // order preserved, not sorted
        let vals: Vec<i64> = out.iter().map(|(v, _)| *v).collect();
        assert_eq!(vals, vec![3, 1, 2]);
    }

    #[test]
    fn zero_sources_is_empty() {
        let out = merge_all(vec![]);
        assert!(out.is_empty());
    }

    #[test]
    fn ties_break_toward_earlier_source() {
        let out = merge_all(vec![vec![5, 5], vec![5]]);
        assert_eq!(out, vec![(5, 0), (5, 0), (5, 1)]);
    }

    #[test]
    fn peek_matches_next_pop() {
        let mut lt = LoserTree::new(vec![vec![2i64, 9].into_iter(), vec![1i64, 3].into_iter()]);
        assert_eq!(lt.peek(), Some(&1));
        assert_eq!(lt.pop(), Some((1, 1)));
        assert_eq!(lt.peek(), Some(&2));
    }

    proptest! {
        #[test]
        fn prop_merge_equals_sort(mut inputs in prop::collection::vec(
            prop::collection::vec(any::<i64>(), 0..50), 0..8)) {
            for v in &mut inputs {
                v.sort_unstable();
            }
            let mut expected: Vec<i64> = inputs.iter().flatten().copied().collect();
            expected.sort_unstable();
            let got: Vec<i64> = merge_all(inputs).into_iter().map(|(v, _)| v).collect();
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn prop_source_attribution_consistent(mut inputs in prop::collection::vec(
            prop::collection::vec(any::<i64>(), 0..30), 1..6)) {
            for v in &mut inputs {
                v.sort_unstable();
            }
            let mut counters = vec![0usize; inputs.len()];
            let expected_counts: Vec<usize> = inputs.iter().map(Vec::len).collect();
            for (_, src) in merge_all(inputs) {
                counters[src] += 1;
            }
            prop_assert_eq!(counters, expected_counts);
        }
    }
}
