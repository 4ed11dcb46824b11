//! `cache.spare_bytes` is exact. The spare list is process-wide, so
//! this file holds one test and has its process to itself.
//!
//! A checkpoint hands back the image of every page written since the
//! last one, a write after it takes one, a crash hands back every copy
//! it drops, and restart's redo takes them again.

use mohan_common::{EngineConfig, Rid, TableId};
use mohan_oib::schema::Record;
use mohan_oib::Db;

const T: TableId = TableId(1);
/// Pages written between checkpoints.
const WRITTEN: usize = 10;

#[test]
fn cache_spare_bytes_counts_what_checkpoints_and_crashes_hand_back() {
    let cfg = EngineConfig::small();
    let page = cfg.data_page_size as u64;
    let db = Db::new(cfg);
    db.create_table(T);
    let tx = db.begin();
    for k in 0..2_000 {
        db.insert_record(tx, T, &Record::new(vec![k, -k])).unwrap();
    }
    db.commit(tx).unwrap();
    db.checkpoint().unwrap();
    let gauge = || db.obs.snapshot().counter("cache.spare_bytes").unwrap();
    assert_eq!(gauge(), 0, "the first force replaced no image");

    // The first row of each of `WRITTEN` pages.
    let mut rids: Vec<Rid> = db
        .table_scan(T)
        .unwrap()
        .into_iter()
        .map(|(r, _)| r)
        .collect();
    rids.dedup_by_key(|r| r.page);
    rids.truncate(WRITTEN);
    assert_eq!(rids.len(), WRITTEN);
    let write = |v: i64| {
        let tx = db.begin();
        for &rid in &rids {
            db.update_record(tx, T, rid, &Record::new(vec![v, v]))
                .unwrap();
        }
        db.commit(tx).unwrap();
    };

    write(1);
    assert_eq!(gauge(), 0, "nothing spare to copy into");
    db.checkpoint().unwrap();
    assert_eq!(gauge(), WRITTEN as u64 * page);
    write(2);
    assert_eq!(gauge(), 0, "each page's old image is its copy");
    db.simulate_crash();
    assert_eq!(
        gauge(),
        WRITTEN as u64 * page,
        "the crash dropped the copies"
    );
    db.restart().unwrap();
    assert_eq!(gauge(), 0, "redo copied into them");
    assert_eq!(gauge(), mohan_storage::spare::bytes());
}
