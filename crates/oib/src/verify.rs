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
use crate::runtime::{IndexRuntime, IndexState};
use crate::schema::Record;
use mohan_btree::LeafCursor;
use mohan_common::{Error, IndexEntry, IndexId, KeyValue, PageId, Result, Rid};
use std::cmp::Ordering;
use std::sync::Arc;

/// One expected entry: where its key sits in [`Expected::keys`], and
/// its RID in parts, so the record packs into 12 bytes.
#[derive(Debug, Clone, Copy)]
struct ExpectedEntry {
    off: u32,
    page: u32,
    len: u16,
    slot: u16,
}

const _: () = assert!(std::mem::size_of::<ExpectedEntry>() == 12);

/// The `<key value, RID>` entries a table's records derive: one arena
/// of key bytes and one fixed-width record per entry, both sized by a
/// counting pass over the table. An `IndexEntry` per record would cost
/// a 32-byte value plus an allocation of its own for each key.
struct Expected {
    keys: Vec<u8>,
    entries: Vec<ExpectedEntry>,
}

impl Expected {
    /// Every entry `idx` should hold, sorted, without duplicates.
    fn collect(db: &Db, idx: &IndexRuntime) -> Result<Expected> {
        let table = db.table(idx.def.table)?;
        let mut out = Expected {
            keys: Vec::new(),
            entries: Vec::new(),
        };
        let Some(last) = table.num_pages().checked_sub(1).map(PageId) else {
            return Ok(out);
        };
        let mut rows = 0usize;
        table.scan_from(None, last, |_, _| {
            rows += 1;
            Ok(true)
        })?;
        out.entries.reserve_exact(rows);
        // A key is 8 bytes per column (`KeyValue::from_i64s`).
        out.keys.reserve_exact(rows * 8 * idx.def.key_cols.len());
        table.scan_from(None, last, |rid, data| {
            let key = idx.def.key_of(&Record::decode(data)?)?;
            let too_big = || Error::InvalidArg(format!("{}: too many keys to verify", idx.def.id));
            out.entries.push(ExpectedEntry {
                off: u32::try_from(out.keys.len()).map_err(|_| too_big())?,
                page: rid.page.0,
                len: u16::try_from(key.len()).map_err(|_| too_big())?,
                slot: rid.slot.0,
            });
            out.keys.extend_from_slice(key.as_bytes());
            Ok(true)
        })?;
        let mut entries = std::mem::take(&mut out.entries);
        entries.sort_unstable_by(|a, b| out.cmp(a, b));
        entries.dedup_by(|a, b| out.cmp(a, b).is_eq());
        out.entries = entries;
        Ok(out)
    }

    fn key(&self, e: &ExpectedEntry) -> &[u8] {
        &self.keys[e.off as usize..e.off as usize + usize::from(e.len)]
    }

    fn rid(e: &ExpectedEntry) -> Rid {
        Rid::new(e.page, e.slot)
    }

    /// Index order: key value, then RID.
    fn cmp(&self, a: &ExpectedEntry, b: &ExpectedEntry) -> Ordering {
        self.key(a)
            .cmp(self.key(b))
            .then_with(|| Self::rid(a).cmp(&Self::rid(b)))
    }

    /// An owned copy, for an error message.
    fn entry(&self, e: &ExpectedEntry) -> IndexEntry {
        IndexEntry::new(KeyValue(self.key(e).to_vec()), Self::rid(e))
    }
}

/// Full agreement check between index and table. The table's entries
/// are collected and sorted (as a key arena); the leaf chain is then
/// walked once, in step with them, holding one leaf at a time.
pub fn verify_index(db: &Arc<Db>, index: IndexId) -> Result<()> {
    let idx = db.index(index)?;
    if idx.state() != IndexState::Complete {
        return Err(Error::IndexNotReadable(index));
    }
    mohan_btree::scan::verify_structure(&idx.tree)?;

    let expected = Expected::collect(db, &idx)?;
    let mut want = expected.entries.iter().peekable();
    let (mut missing, mut extra) = (Vec::new(), Vec::new());
    let (mut n_missing, mut n_extra) = (0usize, 0usize);
    let mut two_live_for_one_key = false;
    let mut last_live: Option<Vec<u8>> = None;
    let mut cur = LeafCursor::first(&idx.tree)?;
    while let Some(e) = cur.next_entry()? {
        let vs = |w: &ExpectedEntry| {
            e.key
                .cmp(expected.key(w))
                .then_with(|| e.rid.cmp(&Expected::rid(w)))
        };
        // The table's entries that sort before this one are missing.
        while let Some(w) = want.next_if(|w| vs(w).is_gt()) {
            n_missing += 1;
            if missing.len() < 5 {
                missing.push(expected.entry(w));
            }
        }
        let expected_here = want.peek().is_some_and(|w| vs(w).is_eq());
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
            missing.push(expected.entry(w));
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
