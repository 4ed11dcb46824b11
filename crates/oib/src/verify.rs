//! The correctness oracle.
//!
//! Every experiment ends by checking that the finished index agrees
//! *entry-for-entry* with the table's committed state — the live
//! entries must be exactly the `<key value, RID>` pairs derivable from
//! the records, pseudo-deleted entries must not shadow a live record's
//! key, and the tree must satisfy all structural invariants.
//!
//! Call at quiescent points (no in-flight transactions), as a real
//! `CHECK INDEX` utility would.

use crate::engine::Db;
use crate::runtime::IndexState;
use crate::schema::Record;
use mohan_btree::LeafCursor;
use mohan_common::{Error, IndexEntry, IndexId, Result};
use std::sync::Arc;

/// Full agreement check between index and table. The table's entries
/// are collected and sorted; the leaf chain is then walked once, in
/// step with them, holding one leaf at a time.
pub fn verify_index(db: &Arc<Db>, index: IndexId) -> Result<()> {
    let idx = db.index(index)?;
    if idx.state() != IndexState::Complete {
        return Err(Error::IndexNotReadable(index));
    }
    mohan_btree::scan::verify_structure(&idx.tree)?;

    let mut expected: Vec<IndexEntry> = Vec::new();
    let table = db.table(idx.def.table)?;
    if table.num_pages() > 0 {
        let last = mohan_common::PageId(table.num_pages() - 1);
        table.scan_from(None, last, |rid, data| {
            let rec = Record::decode(data)?;
            expected.push(idx.def.entry_of(&rec, rid)?);
            Ok(true)
        })?;
    }
    expected.sort_unstable();
    expected.dedup();

    let mut want = expected.iter().peekable();
    let (mut missing, mut extra) = (Vec::new(), Vec::new());
    let (mut n_missing, mut n_extra) = (0usize, 0usize);
    let mut two_live_for_one_key = false;
    let mut last_live: Option<Vec<u8>> = None;
    let mut cur = LeafCursor::first(&idx.tree)?;
    while let Some(e) = cur.next_entry()? {
        // The table's entries that sort before this one are missing.
        while let Some(w) = want.next_if(|w| e.cmp_entry(w).is_gt()) {
            n_missing += 1;
            if missing.len() < 5 {
                missing.push(w.clone());
            }
        }
        let expected_here = want.peek().is_some_and(|w| e.cmp_entry(w).is_eq());
        if e.pseudo {
            // A tombstone must not correspond to a live record.
            if expected_here {
                return Err(Error::Corruption(format!(
                    "{index}: entry {:?} is pseudo-deleted but its record is live",
                    e.to_entry()
                )));
            }
            continue;
        }
        if expected_here {
            want.next();
        } else {
            n_extra += 1;
            if extra.len() < 5 {
                extra.push(e.to_entry());
            }
        }
        if idx.def.unique {
            two_live_for_one_key |= last_live.as_deref() == Some(e.key);
            let k = last_live.get_or_insert_with(Vec::new);
            k.clear();
            k.extend_from_slice(e.key);
        }
    }
    for w in want {
        n_missing += 1;
        if missing.len() < 5 {
            missing.push(w.clone());
        }
    }

    if n_missing + n_extra > 0 {
        return Err(Error::Corruption(format!(
            "{index} disagrees with table: {n_missing} missing (e.g. {missing:?}), {n_extra} extra (e.g. {extra:?})",
        )));
    }
    if two_live_for_one_key {
        return Err(Error::Corruption(format!(
            "{index}: unique index holds two live entries for one key value"
        )));
    }
    Ok(())
}

/// Verify every complete index of a table.
pub fn verify_all(db: &Arc<Db>, table: mohan_common::TableId) -> Result<usize> {
    let mut checked = 0;
    for idx in db.indexes_of(table) {
        if idx.state() == IndexState::Complete {
            verify_index(db, idx.def.id)?;
            checked += 1;
        }
    }
    Ok(checked)
}
