//! Typed identifiers used throughout the engine.
//!
//! Every identifier is a thin newtype over an integer so the compiler
//! keeps pages, slots, log sequence numbers and transactions apart.

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a page within one page file.
///
/// Pages are numbered densely from zero in allocation order, which is
/// what makes the paper's clustering argument observable: a bottom-up
/// build allocates leaves in ascending [`PageId`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId(pub u32);

impl PageId {
    /// First page of a file.
    pub const ZERO: PageId = PageId(0);

    /// The next page id in allocation order.
    #[must_use]
    pub fn next(self) -> PageId {
        PageId(self.0 + 1)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Slot number of a record within a slotted data page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SlotId(pub u16);

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Record identifier: `(data page, slot)`.
///
/// RIDs order first by page and then by slot, which is exactly the
/// order in which the index builder's sequential scan visits records.
/// The SF algorithm's visibility rule (`Target-RID < Current-RID`)
/// relies on this ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Rid {
    /// Data page holding the record.
    pub page: PageId,
    /// Slot within the page.
    pub slot: SlotId,
}

impl Rid {
    /// Smallest possible RID; used as the initial `Current-RID` of an
    /// SF scan (nothing is visible yet).
    pub const MIN: Rid = Rid {
        page: PageId(0),
        slot: SlotId(0),
    };

    /// Largest possible RID; the paper's `infinity`, set by the SF
    /// index builder once the scan finishes so every later update sees
    /// the index as visible.
    pub const MAX: Rid = Rid {
        page: PageId(u32::MAX),
        slot: SlotId(u16::MAX),
    };

    /// Construct a RID from raw page / slot numbers.
    #[must_use]
    pub fn new(page: u32, slot: u16) -> Rid {
        Rid {
            page: PageId(page),
            slot: SlotId(slot),
        }
    }

    /// Pack into a `u64` so a scan cursor can live in an atomic.
    /// Ordering of the packed value matches `Ord` on [`Rid`].
    #[must_use]
    pub fn pack(self) -> u64 {
        (u64::from(self.page.0) << 16) | u64::from(self.slot.0)
    }

    /// Inverse of [`Rid::pack`].
    #[must_use]
    pub fn unpack(v: u64) -> Rid {
        Rid {
            page: PageId((v >> 16) as u32),
            slot: SlotId((v & 0xFFFF) as u16),
        }
    }
}

impl fmt::Display for Rid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.page, self.slot)
    }
}

/// Log sequence number. Monotonically increasing; `Lsn(0)` means "no
/// LSN" (e.g. a page that has never been logged against).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The null LSN.
    pub const NULL: Lsn = Lsn(0);

    /// True unless this is the null LSN.
    #[must_use]
    pub fn is_valid(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

/// The write-ahead-log rule a page force obeys (§1.1): a page reaches
/// its durable image only once the log is durable through the page's
/// LSN. The log manager makes itself durable that far; a bare [`Lsn`]
/// is a log frozen at that flushed mark, which refuses anything newer.
pub trait WriteAhead {
    /// Make the log durable through `lsn`; `false` if it cannot be.
    fn durable_through(&self, lsn: Lsn) -> bool;
}

impl WriteAhead for Lsn {
    fn durable_through(&self, lsn: Lsn) -> bool {
        lsn <= *self
    }
}

impl<T: WriteAhead + ?Sized> WriteAhead for &T {
    fn durable_through(&self, lsn: Lsn) -> bool {
        (**self).durable_through(lsn)
    }
}

/// Transaction identifier.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(pub u64);

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifier of a page file (a heap table's data file, an index file,
/// a sort-run file, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u32);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F{}", self.0)
    }
}

/// Identifier of a heap table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub u32);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tbl{}", self.0)
    }
}

/// Identifier of an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IndexId(pub u32);

impl fmt::Display for IndexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "idx{}", self.0)
    }
}

/// A hash map keyed by engine ids: transactions, pages, lock names.
/// The engine picks these keys, so no client can choose a set that
/// collides, and SipHash's flood resistance buys nothing on them; maps
/// keyed by strings or bytes a client sends keep `RandomState`.
pub type IdMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The [`IdMap`] hasher: each integer word is folded in with a rotate,
/// an xor and a multiply (the Fx hash of the Rust compiler), and the
/// result is rotated so the table's bucket bits are its best-mixed ones.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    const SEED: u64 = 0xF135_7AEA_2E62_A9C5;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rid_ordering_is_page_then_slot() {
        assert!(Rid::new(1, 9) < Rid::new(2, 0));
        assert!(Rid::new(1, 1) < Rid::new(1, 2));
        assert!(Rid::new(3, 0) > Rid::new(2, 65535));
    }

    #[test]
    fn rid_pack_roundtrip_preserves_order() {
        let rids = [
            Rid::MIN,
            Rid::new(0, 1),
            Rid::new(1, 0),
            Rid::new(1, 77),
            Rid::new(u32::MAX - 1, 5),
            Rid::MAX,
        ];
        for w in rids.windows(2) {
            assert!(w[0] < w[1]);
            assert!(w[0].pack() < w[1].pack());
        }
        for r in rids {
            assert_eq!(Rid::unpack(r.pack()), r);
        }
    }

    #[test]
    fn min_and_max_bound_everything() {
        let r = Rid::new(123, 45);
        assert!(Rid::MIN <= r && r <= Rid::MAX);
    }

    #[test]
    fn lsn_null_is_invalid() {
        assert!(!Lsn::NULL.is_valid());
        assert!(Lsn(1).is_valid());
    }

    #[test]
    fn page_next_increments() {
        assert_eq!(PageId(7).next(), PageId(8));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Rid::new(4, 2).to_string(), "P4.s2");
        assert_eq!(Lsn(9).to_string(), "lsn:9");
        assert_eq!(TxId(3).to_string(), "T3");
        assert_eq!(IndexId(1).to_string(), "idx1");
        assert_eq!(TableId(1).to_string(), "tbl1");
        assert_eq!(FileId(1).to_string(), "F1");
    }

    #[test]
    fn id_map_spreads_dense_ids_over_the_buckets() {
        use std::hash::{BuildHasher, Hash};
        // Dense transaction ids and the slots of one page, as the
        // transaction table and the lock table see them: the low bits
        // a map indexes by must not pile up, at 4 keys a bucket.
        fn worst<K: Hash>(bits: u32, keys: impl Iterator<Item = K>) -> u32 {
            let hasher = BuildHasherDefault::<IdHasher>::default();
            let mut hit = vec![0u32; 1 << bits];
            for k in keys {
                hit[(hasher.hash_one(k) & ((1 << bits) - 1)) as usize] += 1;
            }
            hit.into_iter().max().unwrap_or(0)
        }
        for bits in [4u32, 8, 12] {
            let n = 4u64 << bits;
            assert!(worst(bits, (0..n).map(TxId)) <= 16, "{bits} bits, tx ids");
            let rids = (0..n).map(|s| Rid::new(7, s as u16));
            assert!(worst(bits, rids) <= 16, "{bits} bits, slots");
        }
        let mut map: IdMap<Rid, u32> = IdMap::default();
        for slot in 0..1000u16 {
            map.insert(Rid::new(7, slot), u32::from(slot));
        }
        assert_eq!(map[&Rid::new(7, 999)], 999);
    }
}
