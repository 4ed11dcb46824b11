//! Byte codec for [`LogRecord`]s: the format the log stores and ships.
//!
//! A log slot holds exactly the bytes [`encode_record`] produces, and
//! a `WalFrame`'s body is `count` of those encodings back-to-back, so
//! shipping is a copy. The encoding is big-endian and self-delimiting;
//! decoding is strict — unknown tags and truncation return `None`, and
//! [`decode_records`] additionally rejects trailing bytes, mirroring
//! the wire crate's malformed-frame discipline. Every encoding starts
//! with the fixed-layout [`RecordHeader`], which is all that analysis
//! and the checkpoint search read.
//!
//! The wire crate deliberately depends only on `mohan-common`, so the
//! frame carries this encoding as an opaque blob; primary (server) and
//! follower (client/replica) both link this module to produce and
//! consume it.

use crate::record::{LogPayload, LogRecord, RecKind, SideFileOp};
use mohan_common::{IndexEntry, IndexId, Lsn, Rid, TableId, TxId};

// Payload tags ([`RecordHeader::tag`]). Frozen on the wire: append,
// never renumber.
pub(crate) const P_TX_BEGIN: u8 = 1;
pub(crate) const P_TX_COMMIT: u8 = 2;
pub(crate) const P_TX_ABORT: u8 = 3;
pub(crate) const P_TX_END: u8 = 4;
pub(crate) const P_HEAP_INSERT: u8 = 5;
pub(crate) const P_HEAP_DELETE: u8 = 6;
pub(crate) const P_HEAP_UPDATE: u8 = 7;
pub(crate) const P_INDEX_INSERT: u8 = 8;
pub(crate) const P_INDEX_PSEUDO_DELETE: u8 = 9;
pub(crate) const P_INDEX_INSERT_TOMBSTONE: u8 = 10;
pub(crate) const P_INDEX_REACTIVATE: u8 = 11;
pub(crate) const P_INDEX_PHYSICAL_DELETE: u8 = 12;
pub(crate) const P_INDEX_BULK_INSERT: u8 = 13;
pub(crate) const P_INDEX_BULK_REMOVE: u8 = 14;
pub(crate) const P_SIDE_FILE_APPEND: u8 = 15;
pub(crate) const P_CHECKPOINT: u8 = 16;
pub(crate) const P_CATALOG_UPDATE: u8 = 17;

// Record-kind tags.
const K_UNDO_REDO: u8 = 0;
const K_REDO_ONLY: u8 = 1;
const K_UNDO_ONLY: u8 = 2;
const K_CLR: u8 = 3;

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_entries(out: &mut Vec<u8>, entries: &[IndexEntry]) {
    put_u32(out, entries.len() as u32);
    for e in entries {
        e.encode(out);
    }
}

fn put_op(out: &mut Vec<u8>, op: &SideFileOp) {
    put_u8(out, u8::from(op.insert));
    op.entry.encode(out);
}

fn get_u8(buf: &[u8], pos: &mut usize) -> Option<u8> {
    let v = *buf.get(*pos)?;
    *pos += 1;
    Some(v)
}

fn get_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let b: [u8; 4] = buf.get(*pos..*pos + 4)?.try_into().ok()?;
    *pos += 4;
    Some(u32::from_be_bytes(b))
}

fn get_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let b: [u8; 8] = buf.get(*pos..*pos + 8)?.try_into().ok()?;
    *pos += 8;
    Some(u64::from_be_bytes(b))
}

fn get_bytes(buf: &[u8], pos: &mut usize) -> Option<Vec<u8>> {
    let n = get_u32(buf, pos)? as usize;
    let b = buf.get(*pos..*pos + n)?.to_vec();
    *pos += n;
    Some(b)
}

fn get_entries(buf: &[u8], pos: &mut usize) -> Option<Vec<IndexEntry>> {
    let n = get_u32(buf, pos)? as usize;
    let mut entries = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        entries.push(IndexEntry::decode(buf, pos)?);
    }
    Some(entries)
}

fn get_op(buf: &[u8], pos: &mut usize) -> Option<SideFileOp> {
    let insert = match get_u8(buf, pos)? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let entry = IndexEntry::decode(buf, pos)?;
    Some(SideFileOp { insert, entry })
}

/// Byte range of the LSN inside every encoding (right after the
/// payload tag): the log reserves the LSN after encoding and patches
/// it in here.
pub(crate) const LSN_BYTES: std::ops::Range<usize> = 1..9;

/// The fixed-layout front of an encoded record: 26 bytes (34 for a
/// CLR), enough for analysis, chain walks and the checkpoint search
/// without touching — or allocating for — the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    /// The record's log sequence number.
    pub lsn: Lsn,
    /// Transaction that wrote it.
    pub tx: TxId,
    /// Previous record of the same transaction.
    pub prev: Lsn,
    /// Undo/redo shape.
    pub kind: RecKind,
    /// Payload tag (one of the `P_*` constants).
    pub(crate) tag: u8,
}

impl RecordHeader {
    /// Parse the header at the front of `buf`. `None` on truncation,
    /// an unknown payload tag or an unknown record kind.
    #[must_use]
    pub fn parse(buf: &[u8]) -> Option<RecordHeader> {
        get_header(buf, &mut 0)
    }
}

fn get_header(buf: &[u8], pos: &mut usize) -> Option<RecordHeader> {
    let tag = get_u8(buf, pos)?;
    if !(P_TX_BEGIN..=P_CATALOG_UPDATE).contains(&tag) {
        return None;
    }
    let lsn = Lsn(get_u64(buf, pos)?);
    let tx = TxId(get_u64(buf, pos)?);
    let prev = Lsn(get_u64(buf, pos)?);
    let kind = match get_u8(buf, pos)? {
        K_UNDO_REDO => RecKind::UndoRedo,
        K_REDO_ONLY => RecKind::RedoOnly,
        K_UNDO_ONLY => RecKind::UndoOnly,
        K_CLR => RecKind::Clr {
            undo_next: Lsn(get_u64(buf, pos)?),
        },
        _ => return None,
    };
    Some(RecordHeader {
        lsn,
        tx,
        prev,
        kind,
        tag,
    })
}

/// The tag [`encode_record`] writes for `payload`.
pub(crate) fn payload_tag(payload: &LogPayload) -> u8 {
    match payload {
        LogPayload::TxBegin => P_TX_BEGIN,
        LogPayload::TxCommit => P_TX_COMMIT,
        LogPayload::TxAbort => P_TX_ABORT,
        LogPayload::TxEnd => P_TX_END,
        LogPayload::HeapInsert { .. } => P_HEAP_INSERT,
        LogPayload::HeapDelete { .. } => P_HEAP_DELETE,
        LogPayload::HeapUpdate { .. } => P_HEAP_UPDATE,
        LogPayload::IndexInsert { .. } => P_INDEX_INSERT,
        LogPayload::IndexPseudoDelete { .. } => P_INDEX_PSEUDO_DELETE,
        LogPayload::IndexInsertTombstone { .. } => P_INDEX_INSERT_TOMBSTONE,
        LogPayload::IndexReactivate { .. } => P_INDEX_REACTIVATE,
        LogPayload::IndexPhysicalDelete { .. } => P_INDEX_PHYSICAL_DELETE,
        LogPayload::IndexBulkInsert { .. } => P_INDEX_BULK_INSERT,
        LogPayload::IndexBulkRemove { .. } => P_INDEX_BULK_REMOVE,
        LogPayload::SideFileAppend { .. } => P_SIDE_FILE_APPEND,
        LogPayload::Checkpoint { .. } => P_CHECKPOINT,
        LogPayload::CatalogUpdate { .. } => P_CATALOG_UPDATE,
    }
}

/// Append the encoding of `rec` to `out`.
pub fn encode_record(rec: &LogRecord, out: &mut Vec<u8>) {
    put_u8(out, payload_tag(&rec.payload));
    put_u64(out, rec.lsn.0);
    put_u64(out, rec.tx.0);
    put_u64(out, rec.prev.0);
    match rec.kind {
        RecKind::UndoRedo => put_u8(out, K_UNDO_REDO),
        RecKind::RedoOnly => put_u8(out, K_REDO_ONLY),
        RecKind::UndoOnly => put_u8(out, K_UNDO_ONLY),
        RecKind::Clr { undo_next } => {
            put_u8(out, K_CLR);
            put_u64(out, undo_next.0);
        }
    }
    match &rec.payload {
        LogPayload::TxBegin | LogPayload::TxCommit | LogPayload::TxAbort | LogPayload::TxEnd => {}
        LogPayload::HeapInsert {
            table,
            rid,
            data,
            visible_indexes,
        } => {
            put_u32(out, table.0);
            put_u64(out, rid.pack());
            put_bytes(out, data);
            put_u32(out, *visible_indexes);
        }
        LogPayload::HeapDelete {
            table,
            rid,
            old,
            visible_indexes,
        } => {
            put_u32(out, table.0);
            put_u64(out, rid.pack());
            put_bytes(out, old);
            put_u32(out, *visible_indexes);
        }
        LogPayload::HeapUpdate {
            table,
            rid,
            old,
            new,
            visible_indexes,
        } => {
            put_u32(out, table.0);
            put_u64(out, rid.pack());
            put_bytes(out, old);
            put_bytes(out, new);
            put_u32(out, *visible_indexes);
        }
        LogPayload::IndexInsert { index, entry }
        | LogPayload::IndexPseudoDelete { index, entry }
        | LogPayload::IndexInsertTombstone { index, entry }
        | LogPayload::IndexReactivate { index, entry } => {
            put_u32(out, index.0);
            entry.encode(out);
        }
        LogPayload::IndexPhysicalDelete {
            index,
            entry,
            was_pseudo,
        } => {
            put_u32(out, index.0);
            entry.encode(out);
            put_u8(out, u8::from(*was_pseudo));
        }
        LogPayload::IndexBulkInsert { index, entries }
        | LogPayload::IndexBulkRemove { index, entries } => {
            put_u32(out, index.0);
            put_entries(out, entries);
        }
        LogPayload::SideFileAppend { index, op } => {
            put_u32(out, index.0);
            put_op(out, op);
        }
        LogPayload::Checkpoint { redo_start } => put_u64(out, redo_start.0),
        LogPayload::CatalogUpdate { bytes } => put_bytes(out, bytes),
    }
}

/// Decode one record from `buf` at `pos`, advancing `pos` past it.
/// `None` means malformed (unknown tag or truncation).
#[must_use]
pub fn decode_record(buf: &[u8], pos: &mut usize) -> Option<LogRecord> {
    let RecordHeader {
        lsn,
        tx,
        prev,
        kind,
        tag,
    } = get_header(buf, pos)?;
    let bool_of = |v: u8| match v {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    };
    let payload = match tag {
        P_TX_BEGIN => LogPayload::TxBegin,
        P_TX_COMMIT => LogPayload::TxCommit,
        P_TX_ABORT => LogPayload::TxAbort,
        P_TX_END => LogPayload::TxEnd,
        P_HEAP_INSERT => LogPayload::HeapInsert {
            table: TableId(get_u32(buf, pos)?),
            rid: Rid::unpack(get_u64(buf, pos)?),
            data: get_bytes(buf, pos)?,
            visible_indexes: get_u32(buf, pos)?,
        },
        P_HEAP_DELETE => LogPayload::HeapDelete {
            table: TableId(get_u32(buf, pos)?),
            rid: Rid::unpack(get_u64(buf, pos)?),
            old: get_bytes(buf, pos)?,
            visible_indexes: get_u32(buf, pos)?,
        },
        P_HEAP_UPDATE => LogPayload::HeapUpdate {
            table: TableId(get_u32(buf, pos)?),
            rid: Rid::unpack(get_u64(buf, pos)?),
            old: get_bytes(buf, pos)?,
            new: get_bytes(buf, pos)?,
            visible_indexes: get_u32(buf, pos)?,
        },
        P_INDEX_INSERT => LogPayload::IndexInsert {
            index: IndexId(get_u32(buf, pos)?),
            entry: IndexEntry::decode(buf, pos)?,
        },
        P_INDEX_PSEUDO_DELETE => LogPayload::IndexPseudoDelete {
            index: IndexId(get_u32(buf, pos)?),
            entry: IndexEntry::decode(buf, pos)?,
        },
        P_INDEX_INSERT_TOMBSTONE => LogPayload::IndexInsertTombstone {
            index: IndexId(get_u32(buf, pos)?),
            entry: IndexEntry::decode(buf, pos)?,
        },
        P_INDEX_REACTIVATE => LogPayload::IndexReactivate {
            index: IndexId(get_u32(buf, pos)?),
            entry: IndexEntry::decode(buf, pos)?,
        },
        P_INDEX_PHYSICAL_DELETE => LogPayload::IndexPhysicalDelete {
            index: IndexId(get_u32(buf, pos)?),
            entry: IndexEntry::decode(buf, pos)?,
            was_pseudo: bool_of(get_u8(buf, pos)?)?,
        },
        P_INDEX_BULK_INSERT => LogPayload::IndexBulkInsert {
            index: IndexId(get_u32(buf, pos)?),
            entries: get_entries(buf, pos)?,
        },
        P_INDEX_BULK_REMOVE => LogPayload::IndexBulkRemove {
            index: IndexId(get_u32(buf, pos)?),
            entries: get_entries(buf, pos)?,
        },
        P_SIDE_FILE_APPEND => LogPayload::SideFileAppend {
            index: IndexId(get_u32(buf, pos)?),
            op: get_op(buf, pos)?,
        },
        P_CHECKPOINT => LogPayload::Checkpoint {
            redo_start: Lsn(get_u64(buf, pos)?),
        },
        P_CATALOG_UPDATE => LogPayload::CatalogUpdate {
            bytes: get_bytes(buf, pos)?,
        },
        _ => return None,
    };
    Some(LogRecord {
        lsn,
        tx,
        prev,
        kind,
        payload,
    })
}

/// Encode a batch of records back-to-back (a `WalFrame` body). The
/// log ships its stored bytes ([`crate::LogManager::copy_range`]);
/// this is for tests that build a frame by hand.
#[must_use]
pub fn encode_records<'a, I>(recs: I) -> Vec<u8>
where
    I: IntoIterator<Item = &'a LogRecord>,
{
    let mut out = Vec::new();
    for rec in recs {
        encode_record(rec, &mut out);
    }
    out
}

/// Decode exactly `count` records from a `WalFrame` body. `None` if
/// any record is malformed or bytes are left over afterwards.
#[must_use]
pub fn decode_records(buf: &[u8], count: usize) -> Option<Vec<LogRecord>> {
    let mut pos = 0usize;
    let mut recs = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        recs.push(decode_record(buf, &mut pos)?);
    }
    if pos != buf.len() {
        return None;
    }
    Some(recs)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mohan_common::KeyValue;
    use proptest::prelude::*;

    pub(crate) fn entry(key: i64, rid: u64) -> IndexEntry {
        IndexEntry::new(KeyValue::from_i64(key), Rid::unpack(rid & 0x00FF_FFFF_FFFF))
    }

    fn arb_entry() -> impl Strategy<Value = IndexEntry> {
        (any::<i64>(), any::<u64>()).prop_map(|(k, r)| entry(k, r))
    }

    pub(crate) fn arb_payload() -> impl Strategy<Value = LogPayload> {
        prop_oneof![
            1 => Just(LogPayload::TxBegin),
            1 => Just(LogPayload::TxCommit),
            1 => Just(LogPayload::TxAbort),
            1 => Just(LogPayload::TxEnd),
            2 => (any::<u32>(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..64), any::<u32>())
                .prop_map(|(t, r, data, vi)| LogPayload::HeapInsert {
                    table: TableId(t),
                    rid: Rid::unpack(r & 0x00FF_FFFF_FFFF),
                    data,
                    visible_indexes: vi,
                }),
            2 => (any::<u32>(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..64), any::<u32>())
                .prop_map(|(t, r, old, vi)| LogPayload::HeapDelete {
                    table: TableId(t),
                    rid: Rid::unpack(r & 0x00FF_FFFF_FFFF),
                    old,
                    visible_indexes: vi,
                }),
            2 => (
                any::<u32>(),
                any::<u64>(),
                prop::collection::vec(any::<u8>(), 0..64),
                prop::collection::vec(any::<u8>(), 0..64),
                any::<u32>(),
            )
                .prop_map(|(t, r, old, new, vi)| LogPayload::HeapUpdate {
                    table: TableId(t),
                    rid: Rid::unpack(r & 0x00FF_FFFF_FFFF),
                    old,
                    new,
                    visible_indexes: vi,
                }),
            2 => (any::<u32>(), arb_entry()).prop_map(|(i, e)| LogPayload::IndexInsert {
                index: IndexId(i),
                entry: e,
            }),
            1 => (any::<u32>(), arb_entry()).prop_map(|(i, e)| LogPayload::IndexPseudoDelete {
                index: IndexId(i),
                entry: e,
            }),
            1 => (any::<u32>(), arb_entry()).prop_map(|(i, e)| LogPayload::IndexInsertTombstone {
                index: IndexId(i),
                entry: e,
            }),
            1 => (any::<u32>(), arb_entry()).prop_map(|(i, e)| LogPayload::IndexReactivate {
                index: IndexId(i),
                entry: e,
            }),
            1 => (any::<u32>(), arb_entry(), any::<bool>()).prop_map(|(i, e, p)| {
                LogPayload::IndexPhysicalDelete {
                    index: IndexId(i),
                    entry: e,
                    was_pseudo: p,
                }
            }),
            1 => (any::<u32>(), prop::collection::vec(arb_entry(), 0..8)).prop_map(|(i, es)| {
                LogPayload::IndexBulkInsert {
                    index: IndexId(i),
                    entries: es,
                }
            }),
            1 => (any::<u32>(), prop::collection::vec(arb_entry(), 0..8)).prop_map(|(i, es)| {
                LogPayload::IndexBulkRemove {
                    index: IndexId(i),
                    entries: es,
                }
            }),
            2 => (any::<u32>(), any::<bool>(), arb_entry()).prop_map(|(i, ins, e)| {
                LogPayload::SideFileAppend {
                    index: IndexId(i),
                    op: SideFileOp {
                        insert: ins,
                        entry: e,
                    },
                }
            }),
            1 => any::<u64>().prop_map(|l| LogPayload::Checkpoint {
                redo_start: Lsn(l),
            }),
            1 => prop::collection::vec(any::<u8>(), 0..128)
                .prop_map(|bytes| LogPayload::CatalogUpdate { bytes }),
        ]
    }

    pub(crate) fn arb_kind() -> impl Strategy<Value = RecKind> {
        prop_oneof![
            3 => Just(RecKind::UndoRedo),
            3 => Just(RecKind::RedoOnly),
            1 => Just(RecKind::UndoOnly),
            1 => any::<u64>().prop_map(|l| RecKind::Clr { undo_next: Lsn(l) }),
        ]
    }

    fn arb_record() -> impl Strategy<Value = LogRecord> {
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            arb_kind(),
            arb_payload(),
        )
            .prop_map(|(lsn, tx, prev, kind, payload)| LogRecord {
                lsn: Lsn(lsn),
                tx: TxId(tx),
                prev: Lsn(prev),
                kind,
                payload,
            })
    }

    proptest! {
        #[test]
        fn record_roundtrips(rec in arb_record()) {
            let mut out = Vec::new();
            encode_record(&rec, &mut out);
            let mut pos = 0;
            let back = decode_record(&out, &mut pos).expect("well-formed");
            prop_assert_eq!(pos, out.len());
            prop_assert_eq!(back, rec);
        }

        #[test]
        fn truncation_is_rejected(rec in arb_record(), frac in 0..100usize) {
            let mut out = Vec::new();
            encode_record(&rec, &mut out);
            let cut = out.len() * frac / 100;
            if cut < out.len() {
                // Decoding consumes exactly the bytes encoding wrote,
                // so every strict prefix must fail.
                prop_assert!(decode_record(&out[..cut], &mut 0).is_none());
            }
        }

        #[test]
        fn batches_roundtrip(recs in prop::collection::vec(arb_record(), 0..10)) {
            let blob = encode_records(recs.iter());
            let back = decode_records(&blob, recs.len()).expect("well-formed batch");
            prop_assert_eq!(back, recs);
        }
    }

    /// One record of every payload variant, cycling through every
    /// record kind (17 payloads, 4 kinds: every kind appears).
    pub(crate) fn samples() -> Vec<LogRecord> {
        let (table, index) = (TableId(3), IndexId(9));
        let rid = Rid::new(7, 2);
        let e = || entry(-42, 0x0000_0700_0002);
        let payloads = vec![
            LogPayload::TxBegin,
            LogPayload::TxCommit,
            LogPayload::TxAbort,
            LogPayload::TxEnd,
            LogPayload::HeapInsert {
                table,
                rid,
                data: vec![1; 34],
                visible_indexes: 2,
            },
            LogPayload::HeapDelete {
                table,
                rid,
                old: vec![2; 5],
                visible_indexes: 0,
            },
            LogPayload::HeapUpdate {
                table,
                rid,
                old: vec![3; 8],
                new: vec![4; 13],
                visible_indexes: 1,
            },
            LogPayload::IndexInsert { index, entry: e() },
            LogPayload::IndexPseudoDelete { index, entry: e() },
            LogPayload::IndexInsertTombstone { index, entry: e() },
            LogPayload::IndexReactivate { index, entry: e() },
            LogPayload::IndexPhysicalDelete {
                index,
                entry: e(),
                was_pseudo: true,
            },
            LogPayload::IndexBulkInsert {
                index,
                entries: (0..4)
                    .map(|k| entry(k, 0x0000_0100_0000 + k as u64))
                    .collect(),
            },
            LogPayload::IndexBulkRemove {
                index,
                entries: vec![e(), e()],
            },
            LogPayload::SideFileAppend {
                index,
                op: SideFileOp {
                    insert: false,
                    entry: e(),
                },
            },
            LogPayload::Checkpoint {
                redo_start: Lsn(77),
            },
            LogPayload::CatalogUpdate { bytes: vec![9; 21] },
        ];
        let kinds = [
            RecKind::UndoRedo,
            RecKind::RedoOnly,
            RecKind::UndoOnly,
            RecKind::Clr { undo_next: Lsn(5) },
        ];
        payloads
            .into_iter()
            .enumerate()
            .map(|(i, payload)| LogRecord {
                lsn: Lsn(100 + i as u64),
                tx: TxId(i as u64 % 3),
                prev: Lsn(i as u64),
                kind: kinds[i % kinds.len()],
                payload,
            })
            .collect()
    }

    fn encoded(rec: &LogRecord) -> Vec<u8> {
        let mut out = Vec::new();
        encode_record(rec, &mut out);
        out
    }

    /// Run every decoder over `buf`. Returning at all is the "no panic"
    /// half; the other is that nothing reserved more than `buf` could
    /// describe — an element takes at least a byte, and a count read
    /// from the input reserves at most `get_entries`' 1024 (the batch
    /// form's 4096) up front.
    fn decode_all(buf: &[u8], claimed: usize) -> (Option<LogRecord>, Option<RecordHeader>) {
        let mut pos = 0;
        let rec = decode_record(buf, &mut pos);
        if let Some(rec) = &rec {
            assert!(pos <= buf.len());
            let vecs: Vec<usize> = match &rec.payload {
                LogPayload::HeapInsert { data, .. } => vec![data.capacity()],
                LogPayload::HeapDelete { old, .. } => vec![old.capacity()],
                LogPayload::HeapUpdate { old, new, .. } => vec![old.capacity(), new.capacity()],
                LogPayload::IndexBulkInsert { entries, .. }
                | LogPayload::IndexBulkRemove { entries, .. } => vec![entries.capacity()],
                LogPayload::CatalogUpdate { bytes } => vec![bytes.capacity()],
                _ => vec![],
            };
            for cap in vecs {
                assert!(
                    cap <= buf.len().max(1024),
                    "reserved {cap} for {} bytes",
                    buf.len()
                );
            }
        }
        if let Some(recs) = decode_records(buf, claimed) {
            assert!(recs.capacity() <= claimed.max(4096));
        }
        (rec, RecordHeader::parse(buf))
    }

    /// ROADMAP aim 3 for this codec: truncated at every length, with
    /// each byte flipped, and with garbage appended, the decoders
    /// return `None` or a record — they never panic and never reserve
    /// more than the input could describe.
    #[test]
    fn hostile_bytes_never_panic_or_over_reserve() {
        for rec in samples() {
            let good = encoded(&rec);
            let header = RecordHeader::parse(&good).expect("valid header");
            assert_eq!(decode_all(&good, 1), (Some(rec.clone()), Some(header)));

            for cut in 0..good.len() {
                let (got, head) = decode_all(&good[..cut], 1);
                assert!(got.is_none(), "strict prefix {cut} of {rec:?} decoded");
                assert!(decode_records(&good[..cut], 1).is_none());
                // The header needs only its own bytes.
                let header_len = if matches!(rec.kind, RecKind::Clr { .. }) {
                    34
                } else {
                    26
                };
                assert_eq!(head.is_some(), cut >= header_len);
            }

            for i in 0..good.len() {
                for flip in [0x01u8, 0x80, 0xFF] {
                    let mut bad = good.clone();
                    bad[i] ^= flip;
                    let (got, head) = decode_all(&bad, 1);
                    // A flip inside the header that still parses shows
                    // in the header view the same way it shows in the
                    // record.
                    if let (Some(got), Some(head)) = (&got, head) {
                        assert_eq!(
                            (head.lsn, head.tx, head.prev, head.kind, head.tag),
                            (
                                got.lsn,
                                got.tx,
                                got.prev,
                                got.kind,
                                payload_tag(&got.payload)
                            )
                        );
                    }
                    if got.is_some() {
                        assert!(head.is_some());
                    }
                }
            }

            // Length fields blown up to the maximum: the claimed size
            // is checked against the input before anything is reserved.
            for i in 0..good.len().saturating_sub(3) {
                let mut bad = good.clone();
                bad[i..i + 4].copy_from_slice(&u32::MAX.to_be_bytes());
                let _ = decode_all(&bad, usize::MAX);
            }

            for junk in [&[0u8][..], &[0xEE; 7], &good] {
                let mut long = good.clone();
                long.extend_from_slice(junk);
                // One record still decodes from the front; the batch
                // form refuses the trailing bytes unless they are
                // exactly the second record it was told to expect.
                let mut pos = 0;
                assert_eq!(decode_record(&long, &mut pos), Some(rec.clone()));
                assert_eq!(pos, good.len());
                assert!(decode_records(&long, 1).is_none());
                assert_eq!(decode_records(&long, 2).is_some(), junk == good.as_slice());
            }
        }
        assert!(RecordHeader::parse(&[]).is_none());
        assert!(decode_records(&[], usize::MAX).is_none());
        assert_eq!(decode_records(&[], 0), Some(Vec::new()));
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_rejected() {
        assert!(decode_record(&[0xEE], &mut 0).is_none());
        assert!(decode_record(&[], &mut 0).is_none());
        let rec = LogRecord {
            lsn: Lsn(1),
            tx: TxId(1),
            prev: Lsn::NULL,
            kind: RecKind::RedoOnly,
            payload: LogPayload::TxBegin,
        };
        let mut blob = encode_records(std::iter::once(&rec));
        blob.push(0);
        assert!(decode_records(&blob, 1).is_none());
        // Count mismatch: more records claimed than present.
        let blob = encode_records(std::iter::once(&rec));
        assert!(decode_records(&blob, 2).is_none());
        assert!(decode_records(&blob, 1).is_some());
    }
}
