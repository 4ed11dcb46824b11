//! Records, index definitions and key extraction.
//!
//! A record is a tuple of `i64` columns; an index key value is the
//! order-preserving concatenation of the values of the indexed columns
//! (§1.1: "key value is the concatenation of the values of the columns
//! (fields) of the table over which the index is defined").

use mohan_common::codec::{decode, Cursor, Wire};
use mohan_common::{wire_struct, Error, IndexEntry, IndexId, KeyValue, Result, Rid, TableId};

/// A table row: a fixed tuple of integer columns. Stored as its
/// codec encoding, `[u16 n][n × i64]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record(pub Vec<i64>);

wire_struct! { Record { 0 } }

impl Record {
    /// Construct from column values.
    #[must_use]
    pub fn new(cols: Vec<i64>) -> Record {
        Record(cols)
    }

    /// Serialize for heap storage, into a buffer of exactly the
    /// encoded size (every insert and update allocates one).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + 8 * self.0.len());
        self.put(&mut out);
        out
    }

    /// Deserialize from heap bytes, exactly one record.
    pub fn decode(buf: &[u8]) -> Result<Record> {
        decode(buf).ok_or_else(|| Error::Corruption("malformed record".into()))
    }
}

pub use mohan_common::config::BuildAlgorithm;

/// Definition of an index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index identity.
    pub id: IndexId,
    /// Human-readable name.
    pub name: String,
    /// Table indexed.
    pub table: TableId,
    /// Key-value uniqueness enforced?
    pub unique: bool,
    /// Column positions forming the key, in order.
    pub key_cols: Vec<u16>,
}

impl IndexDef {
    /// Extract this index's key value from a record.
    pub fn key_of(&self, rec: &Record) -> Result<KeyValue> {
        let mut vals = Vec::with_capacity(self.key_cols.len());
        for &c in &self.key_cols {
            let v = rec
                .0
                .get(usize::from(c))
                .ok_or_else(|| Error::Corruption(format!("column {c} out of range")))?;
            vals.push(*v);
        }
        Ok(KeyValue::from_i64s(&vals))
    }

    /// Extract the full `<key value, RID>` entry.
    pub fn entry_of(&self, rec: &Record, rid: Rid) -> Result<IndexEntry> {
        Ok(IndexEntry::new(self.key_of(rec)?, rid))
    }

    /// Extract the key from encoded record bytes.
    pub fn key_of_bytes(&self, data: &[u8]) -> Result<KeyValue> {
        self.key_of(&Record::decode(data)?)
    }
}

wire_struct! { IndexDef { id, table, unique, name as u16_len_str, key_cols } }

/// `IndexDef.name`: a `u16`-length UTF-8 string.
mod u16_len_str {
    use super::{Cursor, Wire};

    pub(super) fn put(name: &str, out: &mut Vec<u8>) {
        (name.len() as u16).put(out);
        out.extend_from_slice(name.as_bytes());
    }

    pub(super) fn get(c: &mut Cursor<'_>) -> Option<String> {
        let n = u16::get(c)? as usize;
        String::from_utf8(c.take(n)?.to_vec()).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mohan_common::codec::encode;

    #[test]
    fn record_roundtrip() {
        let r = Record::new(vec![1, -2, i64::MAX]);
        assert_eq!(Record::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn record_decode_rejects_garbage() {
        assert!(Record::decode(&[]).is_err());
        assert!(Record::decode(&[0, 3, 1]).is_err());
        let mut trailing = Record::new(vec![1]).encode();
        trailing.push(0);
        assert!(Record::decode(&trailing).is_err());
    }

    #[test]
    fn key_extraction_single_and_composite() {
        let def = IndexDef {
            id: IndexId(1),
            name: "ix".into(),
            table: TableId(1),
            unique: false,
            key_cols: vec![2, 0],
        };
        let r = Record::new(vec![10, 20, 30]);
        assert_eq!(def.key_of(&r).unwrap(), KeyValue::from_i64s(&[30, 10]));
        assert!(def.key_of(&Record::new(vec![1])).is_err());
    }

    #[test]
    fn key_of_bytes_matches_key_of() {
        let def = IndexDef {
            id: IndexId(1),
            name: "ix".into(),
            table: TableId(1),
            unique: true,
            key_cols: vec![0],
        };
        let r = Record::new(vec![77, 5]);
        assert_eq!(
            def.key_of_bytes(&r.encode()).unwrap(),
            def.key_of(&r).unwrap()
        );
    }

    #[test]
    fn def_roundtrip() {
        let def = IndexDef {
            id: IndexId(9),
            name: "orders_by_customer".into(),
            table: TableId(3),
            unique: true,
            key_cols: vec![1, 4],
        };
        assert_eq!(decode(&encode(&def)), Some(def));
    }
}
