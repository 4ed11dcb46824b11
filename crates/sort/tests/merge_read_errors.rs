//! A run cut under a running merge is an error, not the end of that
//! input: a reduce step whose input is released past the merge's
//! position fails instead of writing a run that lacks the input's
//! tail, and the merge fails at the cut input's next refill, not once
//! the other inputs run out.

use mohan_common::Error;
use mohan_sort::{ExternalSort, Merge, RunStore};
use std::sync::Arc;

#[test]
fn a_run_released_past_a_reduce_step_fails_it() {
    // Four forced runs of 1 000 items, merged 2 at a time with a
    // checkpoint every 100 items: at the first checkpoint each cursor
    // of the first step has read one batch ahead and has most of its
    // run still to read.
    let sorter = ExternalSort::new(64, 2, 100);
    let runs: Vec<u64> = (0..4)
        .map(|r| {
            let id = sorter.store.create_run();
            let items: Vec<i64> = (0..1_000).map(|i| i * 4 + r).collect();
            sorter.store.append(id, &items).unwrap();
            sorter.store.force_run(id).unwrap();
            id
        })
        .collect();
    let (store, victim) = (Arc::clone(&sorter.store), runs[1]);
    let mut first = true;
    let got = sorter.reduce_runs(runs, &mut |_| {
        if std::mem::take(&mut first) {
            // Cut the step's second input below its whole length.
            store.release(victim, 1_000)?;
        }
        Ok(())
    });
    assert!(matches!(got, Err(Error::Corruption(_))), "{got:?}");
}

#[test]
fn a_merge_fails_as_soon_as_a_cut_input_is_due_to_refill() {
    // Two forced runs of 1 000 items, interleaved. Each cursor reads
    // 256 items at a time, so once the second run is cut the merge
    // has its buffered batch to give, then fails at its refill — long
    // before the first input runs out.
    let store: Arc<RunStore<i64>> = Arc::new(RunStore::new());
    let runs: Vec<u64> = (0..2)
        .map(|r| {
            let id = store.create_run();
            let items: Vec<i64> = (0..1_000).map(|i| i * 2 + r).collect();
            store.append(id, &items).unwrap();
            store.force_run(id).unwrap();
            id
        })
        .collect();
    let mut merge = Merge::new(&store, runs.clone());
    assert_eq!(merge.try_next().unwrap(), Some(0));
    store.release(runs[1], 1_000).unwrap();
    let mut got = 1;
    let err = loop {
        match merge.try_next() {
            Ok(Some(_)) => got += 1,
            Ok(None) => panic!("the merge ended after {got} items"),
            Err(e) => break e,
        }
    };
    assert!(matches!(err, Error::Corruption(_)), "{err}");
    assert!(got < 1_000, "{got} items before the error");
    assert_eq!(merge.emitted(), got);
}
