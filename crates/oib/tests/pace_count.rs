//! `build.pace_points` is exact. The counter is process-wide, so this
//! file holds one test and has its process to itself.

use mohan_common::pace::{points, KEYS_PER_PACE};
use mohan_common::{EngineConfig, PageId, TableId};
use mohan_oib::build::{build_index, IndexSpec};
use mohan_oib::schema::{BuildAlgorithm, Record};
use mohan_oib::Db;
use mohan_sort::ExternalSort;

const T: TableId = TableId(1);

#[test]
fn pace_points_are_counted_exactly() {
    let db = Db::new(EngineConfig::small());
    db.create_table(T);
    let tx = db.begin();
    for k in 0..2_000 {
        db.insert_record(tx, T, &Record::new(vec![k, -k])).unwrap();
    }
    db.commit(tx).unwrap();
    let gauge = || db.obs.snapshot().counter("build.pace_points").unwrap();

    // An N-page scan gives way N times: once after each page.
    let table = db.table(T).unwrap();
    let pages = table.num_pages();
    assert!(pages > 50);
    let before = points();
    table
        .scan_from(None, PageId(pages - 1), |_, _| Ok(true))
        .unwrap();
    assert_eq!(points() - before, u64::from(pages));
    // ... and a scan of the last 7 pages 7 times.
    let before = points();
    table
        .scan_from(
            Some(mohan_common::Rid::new(pages - 8, u16::MAX)),
            PageId(pages - 1),
            |_, _| Ok(true),
        )
        .unwrap();
    assert_eq!(points() - before, 8, "the resume page and the 7 after it");

    // A merge step of M keys gives way ⌊M / block⌋ times. Three runs
    // under a fan-in of two: one step, merging the first two.
    let sorter: ExternalSort<i64> = ExternalSort::new(16, 2, 1_000_000);
    let lens = [1_000usize, 731, 300];
    let runs: Vec<u64> = lens
        .iter()
        .map(|&n| {
            let id = sorter.store.create_run();
            let items: Vec<i64> = (0..n as i64).collect();
            sorter.store.append(id, &items).unwrap();
            sorter.store.force_run(id).unwrap();
            id
        })
        .collect();
    let before = points();
    let finals = sorter.reduce_runs(runs, &mut |_| Ok(())).unwrap();
    assert_eq!(finals.len(), 2);
    assert_eq!(
        points() - before,
        ((lens[0] + lens[1]) / KEYS_PER_PACE as usize) as u64
    );

    // The registry shows the same counter, and a whole build moves it
    // by the same amount every time.
    assert_eq!(gauge(), points());
    let spec = |name: &str| IndexSpec {
        name: name.into(),
        key_cols: vec![0],
        unique: false,
    };
    let before = points();
    build_index(&db, T, spec("a"), BuildAlgorithm::Sf).unwrap();
    let first = points() - before;
    let before = points();
    build_index(&db, T, spec("b"), BuildAlgorithm::Sf).unwrap();
    assert_eq!(points() - before, first);
    // At least the scan's pages and the load's key blocks.
    assert!(first >= u64::from(pages) + 2_000 / u64::from(KEYS_PER_PACE));
    assert_eq!(gauge(), points());
}
