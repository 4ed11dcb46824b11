//! Typed identifiers used throughout the engine.
//!
//! Every identifier is a thin newtype over an integer so the compiler
//! keeps pages, slots, log sequence numbers and transactions apart.

use std::fmt;

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
}
