//! Index pages as bytes.
//!
//! A [`Node`] *is* its page: one shared buffer of the tree's `page_size`
//! bytes. The cache frame and the page's durable image hold the same
//! buffer; the first change after a force copies it. Searches, flag
//! flips, inserts, deletes and splits work on the bytes in place; no
//! entry is ever decoded into an object of its own.
//!
//! ```text
//! [0]        kind: 0 anchor, 1 internal, 2 leaf
//! [1..3)     page length (u16): the buffer's own length
//! [3..5)     count: entries in the slot directory
//! [5..7)     cells: offset of the lowest cell byte
//! [7..9)     dead: bytes at or above `cells` that no slot or fence names
//! [9..11)    fence: offset of the high-fence cell, 0 = none
//! [11..15)   link: a leaf's right sibling (u32::MAX = none);
//!            the anchor's tree height
//! [15..19)   child: an internal page's leftmost child; the anchor's root
//! [19..)     slot directory: one u16 cell offset per entry, in entry order
//!   ...      free
//! [cells..)  cells, written downward from the end of the page
//! ```
//!
//! A cell is `[flag][key len u16][key][RID page u32][RID slot u16]`; bit 0
//! of the flag is the pseudo-deleted bit (§2.1.2). A separator cell of an
//! internal page carries its right child after the RID: separator `i`
//! leads to child `i + 1`, and the header's leftmost child takes every
//! entry below separator 0. The high fence is a leaf cell with no slot.
//! Capacity is accounted in these bytes — [`Node::size`] is what the page
//! would occupy compacted — so split points fall where the bytes run out.
//!
//! Page 0 of every index file is the **anchor**, a header-only page that
//! names the root and records the tree height, so the root can move (root
//! splits, bulk loads, checkpoint resets) without any out-of-band
//! metadata.
//!
//! **Validation.** A page read from bytes is checked once, as it is
//! adopted (a cache read-back) or copied in (a blob): a known kind, the
//! length field equal to the buffer's length, the directory below the
//! cells, every slot and the fence naming a whole cell at or above
//! `cells`, flags 0 or 1 (0 in an internal page and the fence), a fence
//! only on a leaf, no entries on the anchor, and `dead` equal to the
//! bytes the named cells leave unclaimed. Every accessor a page of its
//! kind serves then reads in bounds. Order is not checked here;
//! `scan::verify_structure` checks it.

use mohan_common::codec::{Cursor, Wire};
use mohan_common::{Error, IndexEntry, KeyValue, PageId, Result, Rid};
use mohan_storage::{spare, PagePayload};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Header bytes of every page.
pub const HDR: usize = 19;

const KIND: usize = 0;
const LEN: usize = 1;
const COUNT: usize = 3;
const CELLS: usize = 5;
const DEAD: usize = 7;
const FENCE: usize = 9;
const LINK: usize = 11;
const CHILD: usize = 15;
const NO_PAGE: u32 = u32::MAX;
/// Directory bytes per entry.
const SLOT: usize = 2;
/// Cell bytes beside the key: flag, key length, RID.
const CELL_FIXED: usize = 1 + 2 + 6;
/// A separator cell's child.
const CHILD_BYTES: usize = 4;
const PSEUDO: u8 = 1;

/// What a page holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Page 0: the root and the tree height.
    Anchor = 0,
    /// Separators and children.
    Internal = 1,
    /// Entries, a right sibling and a high fence.
    Leaf = 2,
}

/// One entry of a page, read in place: a leaf entry, a separator or a
/// high fence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRef<'a> {
    /// The key value's bytes.
    pub key: &'a [u8],
    /// The record.
    pub rid: Rid,
    /// Logically deleted but physically present (§2.1.2).
    pub pseudo: bool,
}

impl EntryRef<'_> {
    /// Order against an owned entry: key value, then RID.
    #[must_use]
    pub fn cmp_entry(&self, e: &IndexEntry) -> Ordering {
        self.key.cmp(e.key.as_bytes()).then(self.rid.cmp(&e.rid))
    }

    /// Order against another page entry: key value, then RID.
    #[must_use]
    pub fn cmp_ref(&self, other: &EntryRef<'_>) -> Ordering {
        self.key.cmp(other.key).then(self.rid.cmp(&other.rid))
    }

    /// An owned copy of the `<key value, RID>` pair.
    #[must_use]
    pub fn to_entry(&self) -> IndexEntry {
        IndexEntry::new(KeyValue(self.key.to_vec()), self.rid)
    }
}

/// An index page: its bytes (module doc). A clone shares them until
/// either side changes.
#[derive(Clone, PartialEq, Eq)]
pub struct Node {
    buf: Arc<[u8]>,
}

/// Where a split prefers to divide a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Prefer {
    /// Equal bytes on both sides.
    Half,
    /// The NSF builder's split (§2.3.1): only the entries higher than
    /// the one being inserted move right; with none, the new entry opens
    /// the right page alone.
    HigherKeysOnly,
}

impl Node {
    fn blank(kind: Kind, len: usize) -> Node {
        assert!(
            (HDR..=usize::from(u16::MAX)).contains(&len),
            "index page size {len} out of range"
        );
        let mut buf = spare::zeroed(len);
        let b = spare::make_mut(&mut buf);
        b[KIND] = kind as u8;
        put16(b, LEN, len);
        put16(b, CELLS, len);
        put32(b, LINK, NO_PAGE);
        put32(b, CHILD, NO_PAGE);
        Node { buf }
    }

    /// The anchor page naming `root` and the tree `height`.
    #[must_use]
    pub fn anchor(root: PageId, height: u32) -> Node {
        let mut n = Node::blank(Kind::Anchor, HDR);
        n.set_anchor(root, height);
        n
    }

    /// An empty leaf of `page_size` bytes.
    #[must_use]
    pub fn leaf(page_size: usize) -> Node {
        Node::blank(Kind::Leaf, page_size)
    }

    /// An internal page of `page_size` bytes with one child and no
    /// separator.
    #[must_use]
    pub fn internal(page_size: usize, leftmost: PageId) -> Node {
        let mut n = Node::blank(Kind::Internal, page_size);
        put32(n.bytes_mut(), CHILD, leftmost.0);
        n
    }

    /// Bytes an entry costs a leaf: its cell and its slot.
    #[must_use]
    pub fn leaf_cost(e: &IndexEntry) -> usize {
        SLOT + CELL_FIXED + e.key.len()
    }

    /// Bytes a separator costs an internal page: cell, child and slot.
    #[must_use]
    pub fn sep_cost(e: &IndexEntry) -> usize {
        Node::leaf_cost(e) + CHILD_BYTES
    }

    /// Bytes a high fence costs a leaf (a cell without a slot).
    #[must_use]
    pub fn fence_cost(e: &IndexEntry) -> usize {
        CELL_FIXED + e.key.len()
    }

    // ----- header ------------------------------------------------------

    fn get16(&self, at: usize) -> usize {
        get16(&self.buf, at)
    }

    fn get32(&self, at: usize) -> u32 {
        get32(&self.buf, at)
    }

    /// The bytes to write. Copies them first, into a spare buffer if
    /// the process has one, if an image or a clone still shares them,
    /// so each change takes this once and writes through it.
    fn bytes_mut(&mut self) -> &mut [u8] {
        spare::make_mut(&mut self.buf)
    }

    /// What the page holds.
    #[must_use]
    pub fn kind(&self) -> Kind {
        kind(&self.buf)
    }

    /// Is this a leaf?
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        self.kind() == Kind::Leaf
    }

    /// Entries (a leaf) or separators (an internal page).
    #[must_use]
    pub fn count(&self) -> usize {
        self.get16(COUNT)
    }

    /// The page's length in bytes.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.buf.len()
    }

    /// Bytes the page occupies compacted: header, directory and every
    /// cell a slot or the fence names.
    #[must_use]
    pub fn size(&self) -> usize {
        size(&self.buf)
    }

    /// Bytes an insert can still use (after compaction).
    #[must_use]
    pub fn free(&self) -> usize {
        free(&self.buf)
    }

    /// The anchor's root page.
    #[must_use]
    pub fn root(&self) -> PageId {
        debug_assert_eq!(self.kind(), Kind::Anchor);
        PageId(self.get32(CHILD))
    }

    /// The anchor's tree height (1 = the root is a leaf).
    #[must_use]
    pub fn height(&self) -> u32 {
        debug_assert_eq!(self.kind(), Kind::Anchor);
        self.get32(LINK)
    }

    /// Point the anchor at `root` with `height`.
    pub fn set_anchor(&mut self, root: PageId, height: u32) {
        debug_assert_eq!(self.kind(), Kind::Anchor);
        let b = self.bytes_mut();
        put32(b, CHILD, root.0);
        put32(b, LINK, height);
    }

    /// A leaf's right sibling.
    #[must_use]
    pub fn next(&self) -> Option<PageId> {
        debug_assert_eq!(self.kind(), Kind::Leaf);
        let p = self.get32(LINK);
        (p != NO_PAGE).then_some(PageId(p))
    }

    /// Set a leaf's right sibling.
    pub fn set_next(&mut self, next: Option<PageId>) {
        debug_assert_eq!(self.kind(), Kind::Leaf);
        put32(self.bytes_mut(), LINK, next.map_or(NO_PAGE, |p| p.0));
    }

    /// Upper bound of a leaf's key range, fixed at split time (`None` =
    /// the rightmost leaf). Unlike the right sibling's current first
    /// entry, the fence never moves when entries are physically deleted,
    /// which makes the remembered-path hint's containment check sound.
    #[must_use]
    pub fn high_fence(&self) -> Option<EntryRef<'_>> {
        match self.get16(FENCE) {
            0 => None,
            off => Some(self.read(off)),
        }
    }

    // ----- cells -------------------------------------------------------

    fn slot(&self, i: usize) -> usize {
        slot(&self.buf, i)
    }

    fn cell_len(&self, off: usize, with_child: bool) -> usize {
        cell_len(&self.buf, off, with_child)
    }

    fn slot_cell_len(&self, off: usize) -> usize {
        slot_cell_len(&self.buf, off)
    }

    fn read(&self, off: usize) -> EntryRef<'_> {
        read_cell(&self.buf[off..])
    }

    /// Entry `i` of a leaf, or separator `i` of an internal page.
    #[must_use]
    pub fn entry(&self, i: usize) -> EntryRef<'_> {
        self.read(self.slot(i))
    }

    /// Every entry (or separator), in order.
    pub fn entries(&self) -> impl Iterator<Item = EntryRef<'_>> + '_ {
        (0..self.count()).map(move |i| self.entry(i))
    }

    /// Child `i` of an internal page: 0 is the leftmost, `i > 0` the one
    /// separator `i - 1` leads to.
    #[must_use]
    pub fn child(&self, i: usize) -> PageId {
        debug_assert_eq!(self.kind(), Kind::Internal);
        if i == 0 {
            return PageId(self.get32(CHILD));
        }
        cell_child(&self.buf[self.slot(i - 1)..])
    }

    /// Position of `child` among an internal page's children.
    #[must_use]
    pub fn child_pos(&self, child: PageId) -> Option<usize> {
        (0..=self.count()).find(|&i| self.child(i) == child)
    }

    /// First position whose entry `below` rejects (entries are sorted,
    /// so `below` holds for a prefix).
    fn partition(&self, below: impl Fn(EntryRef<'_>) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.count());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if below(self.entry(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Position of `entry`, or where it would insert.
    pub fn search(&self, entry: &IndexEntry) -> std::result::Result<usize, usize> {
        let i = self.partition(|c| c.cmp_entry(entry) == Ordering::Less);
        if i < self.count() && self.entry(i).cmp_entry(entry) == Ordering::Equal {
            Ok(i)
        } else {
            Err(i)
        }
    }

    /// First position whose key value is ≥ `key` (unique check and
    /// range-scan start).
    #[must_use]
    pub fn lower_bound(&self, key: &KeyValue) -> usize {
        self.partition(|c| c.key < key.as_bytes())
    }

    /// Child to follow for `entry` in an internal page: subtree `i`
    /// holds the entries `< sep[i]` and `≥ sep[i - 1]`.
    #[must_use]
    pub fn route(&self, entry: &IndexEntry) -> usize {
        self.partition(|s| s.cmp_entry(entry) != Ordering::Greater)
    }

    /// The page a descent for `entry` goes to next: the anchor's root or
    /// an internal page's routed child.
    pub fn down(&self, entry: &IndexEntry) -> Result<PageId> {
        match self.kind() {
            Kind::Anchor => Ok(self.root()),
            Kind::Internal => Ok(self.child(self.route(entry))),
            Kind::Leaf => Err(Error::Corruption("descent below a leaf".into())),
        }
    }

    // ----- in-place changes ----------------------------------------------

    /// Insert `e` as leaf entry `i`.
    pub fn insert(&mut self, i: usize, e: &IndexEntry, pseudo: bool) -> Result<()> {
        debug_assert_eq!(self.kind(), Kind::Leaf);
        let len = CELL_FIXED + e.key.len();
        let b = self.bytes_mut();
        let off = open_slot(b, i, len)?;
        put_cell(&mut b[off..off + len], u8::from(pseudo), e, None);
        Ok(())
    }

    /// Insert separator `e` as separator `i`, leading to `child`.
    pub fn insert_sep(&mut self, i: usize, e: &IndexEntry, child: PageId) -> Result<()> {
        debug_assert_eq!(self.kind(), Kind::Internal);
        let len = CELL_FIXED + e.key.len() + CHILD_BYTES;
        let b = self.bytes_mut();
        let off = open_slot(b, i, len)?;
        put_cell(&mut b[off..off + len], 0, e, Some(child));
        Ok(())
    }

    /// Remove entry (or separator) `i`; its bytes become dead.
    pub fn remove(&mut self, i: usize) {
        let b = self.bytes_mut();
        let n = count(b);
        let len = slot_cell_len(b, slot(b, i));
        put16(b, DEAD, get16(b, DEAD) + len);
        let at = HDR + SLOT * i;
        b.copy_within(at + SLOT..HDR + SLOT * n, at);
        put16(b, COUNT, n - 1);
    }

    /// Keep the first `n` entries (or separators).
    pub fn truncate(&mut self, n: usize) {
        let b = self.bytes_mut();
        let gone: usize = (n..count(b)).map(|i| slot_cell_len(b, slot(b, i))).sum();
        put16(b, DEAD, get16(b, DEAD) + gone);
        put16(b, COUNT, n.min(count(b)));
    }

    /// Set or clear leaf entry `i`'s pseudo-deleted bit.
    pub fn set_pseudo(&mut self, i: usize, pseudo: bool) {
        let b = self.bytes_mut();
        let off = slot(b, i);
        b[off] = u8::from(pseudo);
    }

    /// Replace a leaf's high fence.
    pub fn set_high_fence(&mut self, fence: Option<&IndexEntry>) -> Result<()> {
        set_high_fence(self.bytes_mut(), fence)
    }

    // ----- splits ----------------------------------------------------------

    /// Cell `i` of this page's entries with `cell` counted in at `pos`.
    fn combined<'a>(&'a self, pos: usize, cell: &'a [u8], i: usize) -> &'a [u8] {
        match i.cmp(&pos) {
            Ordering::Less => self.slot_bytes(i),
            Ordering::Equal => cell,
            Ordering::Greater => self.slot_bytes(i - 1),
        }
    }

    fn slot_bytes(&self, i: usize) -> &[u8] {
        let off = self.slot(i);
        &self.buf[off..off + self.slot_cell_len(off)]
    }

    /// Where to divide this full page plus `cell` (which belongs at
    /// entry position `pos`): for a leaf, the index of the right page's
    /// first entry; for an internal page, the index of the separator
    /// that moves up. `prefer` picks the point tried first; the others
    /// follow by distance from it. A point must leave both pages within
    /// the page size — the left leaf with its new high fence, the right
    /// one with the old — and, with `whole_runs`, must not divide a run
    /// of equal key values (unique indexes keep a key value's entries in
    /// one leaf, §2.2.3).
    pub(crate) fn split_point(
        &self,
        pos: usize,
        cell: &[u8],
        prefer: Prefer,
        whole_runs: bool,
    ) -> Result<usize> {
        let leaf = self.is_leaf();
        let cells = |i| self.combined(pos, cell, i);
        let m = self.count() + 1;
        let mut acc = Vec::with_capacity(m + 1);
        acc.push(0usize);
        for i in 0..m {
            acc.push(acc[i] + SLOT + cells(i).len());
        }
        let total = acc[m];
        let page = self.buf.len();
        let old_fence = self.high_fence().map_or(0, |f| CELL_FIXED + f.key.len());
        let fits = |at: usize| {
            if leaf {
                (!whole_runs || read_cell(cells(at - 1)).key != read_cell(cells(at)).key)
                    && HDR + acc[at] + CELL_FIXED + read_cell(cells(at)).key.len() <= page
                    && HDR + total - acc[at] + old_fence <= page
            } else {
                HDR + acc[at] <= page && HDR + total - acc[at + 1] <= page
            }
        };
        // A leaf keeps an entry on each side; an internal page may send
        // any separator up.
        let (lo, hi) = (usize::from(leaf), m - 1);
        let start = match prefer {
            Prefer::HigherKeysOnly => pos + 1,
            Prefer::Half => {
                let straddler = (0..m).find(|&i| acc[i + 1] * 2 >= total).unwrap_or(hi);
                straddler + usize::from(leaf)
            }
        }
        .clamp(lo, hi.max(lo));
        (0..m)
            .flat_map(|d| [start.checked_add(d), start.checked_sub(d)])
            .flatten()
            .filter(|at| (lo..=hi).contains(at))
            .find(|&at| fits(at))
            .ok_or_else(|| {
                Error::Corruption(if whole_runs {
                    "equal-key run fills an entire leaf of a unique index".into()
                } else {
                    "no split point fits the index page".into()
                })
            })
    }

    /// Divide this page plus `cell` (at entry position `pos`) at `at`
    /// ([`Node::split_point`]). Returns the left page, the separator
    /// between the two and the right page. A leaf's separator is the
    /// right page's first entry and the left page's new high fence; the
    /// right page takes the old fence and sibling, and the caller links
    /// the left one to it. An internal page's separator is the one that
    /// moves up, its child the right page's leftmost.
    pub(crate) fn split(
        &self,
        pos: usize,
        cell: &[u8],
        at: usize,
    ) -> Result<(Node, IndexEntry, Node)> {
        let page = self.buf.len();
        let m = self.count() + 1;
        let up = self.combined(pos, cell, at);
        let sep = read_cell(up).to_entry();
        let (mut left, mut right, right_from) = if self.is_leaf() {
            let mut right = Node::leaf(page);
            right.set_next(self.next());
            (Node::leaf(page), right, at)
        } else {
            let right = Node::internal(page, cell_child(up));
            (Node::internal(page, self.child(0)), right, at + 1)
        };
        let (l, r) = (left.bytes_mut(), right.bytes_mut());
        for i in 0..at {
            push_raw(l, self.combined(pos, cell, i));
        }
        for i in right_from..m {
            push_raw(r, self.combined(pos, cell, i));
        }
        if self.is_leaf() {
            set_high_fence(l, Some(&sep))?;
            set_high_fence(r, self.high_fence().map(|f| f.to_entry()).as_ref())?;
        }
        Ok((left, sep, right))
    }

    // ----- bytes -------------------------------------------------------------

    /// Length of the cell at `off` if it lies whole at or above `cells`
    /// with a valid flag.
    fn checked_cell(&self, off: usize, cells: usize, with_child: bool) -> Option<usize> {
        let len = self.buf.len();
        if off < cells || off + 3 > len {
            return None;
        }
        let flag = self.buf[off];
        if flag > PSEUDO || (with_child && flag != 0) {
            return None;
        }
        let cell = self.cell_len(off, with_child);
        (cell <= len - off).then_some(cell)
    }

    /// The module doc's validation rule.
    fn checked(buf: Arc<[u8]>) -> Option<Node> {
        let n = Node { buf };
        let len = n.buf.len();
        if len < HDR || n.get16(LEN) != len || n.buf[KIND] > Kind::Leaf as u8 {
            return None;
        }
        let kind = n.kind();
        let (count, cells, dead, fence) =
            (n.count(), n.get16(CELLS), n.get16(DEAD), n.get16(FENCE));
        if HDR + SLOT * count > cells || cells > len {
            return None;
        }
        if kind == Kind::Anchor && count != 0 {
            return None;
        }
        let mut live = 0;
        for i in 0..count {
            live += n.checked_cell(n.slot(i), cells, kind == Kind::Internal)?;
        }
        if fence != 0 {
            if kind != Kind::Leaf {
                return None;
            }
            live += n.checked_cell(fence, cells, false)?;
        }
        (live + dead == len - cells).then_some(n)
    }
}

// ----- the bytes, read and written in place ---------------------------------

fn get16(b: &[u8], at: usize) -> usize {
    usize::from(u16::from_be_bytes([b[at], b[at + 1]]))
}

fn get32(b: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn put16(b: &mut [u8], at: usize, v: usize) {
    b[at..at + 2].copy_from_slice(&(v as u16).to_be_bytes());
}

fn put32(b: &mut [u8], at: usize, v: u32) {
    b[at..at + 4].copy_from_slice(&v.to_be_bytes());
}

fn kind(b: &[u8]) -> Kind {
    match b[KIND] {
        0 => Kind::Anchor,
        1 => Kind::Internal,
        _ => Kind::Leaf,
    }
}

fn count(b: &[u8]) -> usize {
    get16(b, COUNT)
}

fn slot(b: &[u8], i: usize) -> usize {
    get16(b, HDR + SLOT * i)
}

fn cell_len(b: &[u8], off: usize, with_child: bool) -> usize {
    CELL_FIXED + get16(b, off + 1) + if with_child { CHILD_BYTES } else { 0 }
}

fn slot_cell_len(b: &[u8], off: usize) -> usize {
    cell_len(b, off, kind(b) == Kind::Internal)
}

/// [`Node::size`].
fn size(b: &[u8]) -> usize {
    HDR + SLOT * count(b) + b.len() - get16(b, CELLS) - get16(b, DEAD)
}

/// [`Node::free`].
fn free(b: &[u8]) -> usize {
    b.len() - size(b)
}

/// Make `cell + slot` contiguous bytes free, compacting if the gap
/// between directory and cells is too small.
fn make_room(b: &mut [u8], cell: usize, slot: usize) -> Result<()> {
    if free(b) < cell + slot {
        return Err(Error::Corruption(format!(
            "index page overflow: {} bytes free, {} needed",
            free(b),
            cell + slot
        )));
    }
    if get16(b, CELLS) - (HDR + SLOT * count(b)) < cell + slot {
        compact(b);
    }
    Ok(())
}

/// Claim `len` cell bytes below the lowest cell; room was made.
fn carve(b: &mut [u8], len: usize) -> usize {
    let off = get16(b, CELLS) - len;
    put16(b, CELLS, off);
    off
}

/// Open slot `i` for a cell of `len` bytes and return its offset.
fn open_slot(b: &mut [u8], i: usize, len: usize) -> Result<usize> {
    make_room(b, len, SLOT)?;
    let n = count(b);
    let at = HDR + SLOT * i;
    b.copy_within(at..HDR + SLOT * n, at + SLOT);
    let off = carve(b, len);
    put16(b, at, off);
    put16(b, COUNT, n + 1);
    Ok(off)
}

/// Append a cell copied from another page of the same kind; room was
/// checked by the caller.
fn push_raw(b: &mut [u8], cell: &[u8]) {
    let off = open_slot(b, count(b), cell.len()).expect("split halves are sized to fit");
    b[off..off + cell.len()].copy_from_slice(cell);
}

/// [`Node::set_high_fence`].
fn set_high_fence(b: &mut [u8], fence: Option<&IndexEntry>) -> Result<()> {
    let old = get16(b, FENCE);
    if old != 0 {
        let len = cell_len(b, old, false);
        put16(b, DEAD, get16(b, DEAD) + len);
        put16(b, FENCE, 0);
    }
    if let Some(f) = fence {
        let len = Node::fence_cost(f);
        make_room(b, len, 0)?;
        let off = carve(b, len);
        put_cell(&mut b[off..off + len], 0, f, None);
        put16(b, FENCE, off);
    }
    Ok(())
}

/// Rewrite the named cells end to end at the top of the page.
fn compact(b: &mut [u8]) {
    let from = b.to_vec();
    let mut end = b.len();
    for i in 0..count(&from) {
        let off = slot(&from, i);
        let len = slot_cell_len(&from, off);
        end -= len;
        b[end..end + len].copy_from_slice(&from[off..off + len]);
        put16(b, HDR + SLOT * i, end);
    }
    let fence = get16(&from, FENCE);
    if fence != 0 {
        let len = cell_len(&from, fence, false);
        end -= len;
        b[end..end + len].copy_from_slice(&from[fence..fence + len]);
        put16(b, FENCE, end);
    }
    put16(b, CELLS, end);
    put16(b, DEAD, 0);
}

/// The cell that holds `e` (with its pseudo-deleted bit, and for a
/// separator its child) — the extra cell a split divides a page around.
#[must_use]
pub(crate) fn cell(e: &IndexEntry, pseudo: bool, child: Option<PageId>) -> Vec<u8> {
    let mut out = vec![0; CELL_FIXED + e.key.len() + child.map_or(0, |_| CHILD_BYTES)];
    put_cell(&mut out, u8::from(pseudo), e, child);
    out
}

/// Write a cell into `dst`, which is exactly its length.
fn put_cell(dst: &mut [u8], flag: u8, e: &IndexEntry, child: Option<PageId>) {
    let key = e.key.as_bytes();
    let r = 3 + key.len();
    dst[0] = flag;
    dst[1..3].copy_from_slice(&(key.len() as u16).to_be_bytes());
    dst[3..r].copy_from_slice(key);
    dst[r..r + 4].copy_from_slice(&e.rid.page.0.to_be_bytes());
    dst[r + 4..r + 6].copy_from_slice(&e.rid.slot.0.to_be_bytes());
    if let Some(c) = child {
        dst[r + 6..r + 10].copy_from_slice(&c.0.to_be_bytes());
    }
}

/// Read the cell at the start of `cell`.
fn read_cell(cell: &[u8]) -> EntryRef<'_> {
    let r = 3 + usize::from(u16::from_be_bytes([cell[1], cell[2]]));
    EntryRef {
        key: &cell[3..r],
        rid: Rid::new(
            u32::from_be_bytes([cell[r], cell[r + 1], cell[r + 2], cell[r + 3]]),
            u16::from_be_bytes([cell[r + 4], cell[r + 5]]),
        ),
        pseudo: cell[0] & PSEUDO != 0,
    }
}

/// The child of the separator cell at the start of `cell`.
fn cell_child(cell: &[u8]) -> PageId {
    let c = CELL_FIXED + usize::from(u16::from_be_bytes([cell[1], cell[2]]));
    PageId(u32::from_be_bytes([
        cell[c],
        cell[c + 1],
        cell[c + 2],
        cell[c + 3],
    ]))
}

/// A page travels as its bytes. The length field makes the bytes
/// self-delimiting; reading them is a bounds-checked copy.
impl Wire for Node {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.buf);
    }

    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        let head = c.take(LEN + 2)?;
        let len = usize::from(u16::from_be_bytes([head[LEN], head[LEN + 1]]));
        let rest = c.take(len.checked_sub(head.len())?)?;
        // Both parts are there: one allocation of their length.
        Node::checked(head.iter().chain(rest).copied().collect())
    }
}

/// A page's durable image is its buffer; a read-back checks it in
/// place and copies nothing.
impl PagePayload for Node {
    fn image(&self) -> Arc<[u8]> {
        Arc::clone(&self.buf)
    }

    fn from_image(bytes: Arc<[u8]>) -> Result<Node> {
        Node::checked(bytes).ok_or(Error::Malformed("index page"))
    }
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind() {
            Kind::Anchor => f
                .debug_struct("Anchor")
                .field("root", &self.root())
                .field("height", &self.height())
                .finish(),
            Kind::Internal => f
                .debug_struct("Internal")
                .field(
                    "seps",
                    &self.entries().map(|e| e.to_entry()).collect::<Vec<_>>(),
                )
                .field(
                    "children",
                    &(0..=self.count())
                        .map(|i| self.child(i))
                        .collect::<Vec<_>>(),
                )
                .finish(),
            Kind::Leaf => f
                .debug_struct("Leaf")
                .field(
                    "entries",
                    &self
                        .entries()
                        .map(|e| (e.to_entry(), e.pseudo))
                        .collect::<Vec<_>>(),
                )
                .field("next", &self.next())
                .field("high_fence", &self.high_fence().map(|e| e.to_entry()))
                .finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mohan_common::codec::decode;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn e(k: i64, slot: u16) -> IndexEntry {
        IndexEntry::from_i64(k, Rid::new(1, slot))
    }

    fn leaf(entries: &[(IndexEntry, bool)]) -> Node {
        let mut n = Node::leaf(256);
        for (i, (entry, pseudo)) in entries.iter().enumerate() {
            n.insert(i, entry, *pseudo).unwrap();
        }
        n
    }

    fn roundtrip(n: &Node) {
        let b = n.image();
        assert_eq!(b.len(), n.page_size());
        assert_eq!(&Node::from_image(b.clone()).unwrap(), n);
        assert_eq!(&decode::<Node>(&b).unwrap(), n);
    }

    type Model = BTreeMap<(Vec<u8>, Rid), bool>;

    fn contents(n: &Node) -> Vec<((Vec<u8>, Rid), bool)> {
        n.entries()
            .map(|e| ((e.key.to_vec(), e.rid), e.pseudo))
            .collect()
    }

    fn listed(m: &Model) -> Vec<((Vec<u8>, Rid), bool)> {
        m.iter().map(|(k, p)| (k.clone(), *p)).collect()
    }

    #[test]
    fn anchor_roundtrip() {
        let n = Node::anchor(PageId(7), 3);
        assert_eq!(
            (n.kind(), n.root(), n.height()),
            (Kind::Anchor, PageId(7), 3)
        );
        assert_eq!(n.size(), HDR);
        roundtrip(&n);
    }

    #[test]
    fn internal_roundtrip_and_route() {
        let mut n = Node::internal(256, PageId(1));
        n.insert_sep(0, &e(10, 0), PageId(2)).unwrap();
        n.insert_sep(1, &e(20, 0), PageId(3)).unwrap();
        roundtrip(&n);
        let children: Vec<_> = (0..=n.count()).map(|i| n.child(i)).collect();
        assert_eq!(children, [PageId(1), PageId(2), PageId(3)]);
        assert_eq!(n.route(&e(5, 0)), 0);
        assert_eq!(n.route(&e(10, 0)), 1); // seps[i] <= entry goes right
        assert_eq!(n.route(&e(15, 0)), 1);
        assert_eq!(n.route(&e(25, 0)), 2);
        assert_eq!(n.child_pos(PageId(3)), Some(2));
        // A key-value search for 10 must go left of `<10, rid 5.5>` to
        // find possible smaller RIDs.
        let mut m = Node::internal(256, PageId(1));
        m.insert_sep(0, &IndexEntry::from_i64(10, Rid::new(5, 5)), PageId(2))
            .unwrap();
        let probe = |k| IndexEntry::new(KeyValue::from_i64(k), Rid::MIN);
        assert_eq!(m.route(&probe(10)), 0);
        assert_eq!(m.route(&probe(11)), 1);
    }

    #[test]
    fn leaf_roundtrip_with_flags_next_and_fence() {
        let mut n = leaf(&[(e(1, 1), false), (e(2, 2), true)]);
        n.set_next(Some(PageId(9)));
        n.set_high_fence(Some(&e(5, 0))).unwrap();
        roundtrip(&n);
        assert_eq!(n.next(), Some(PageId(9)));
        assert_eq!(n.high_fence().unwrap().to_entry(), e(5, 0));
        assert!(!n.entry(0).pseudo && n.entry(1).pseudo);
        n.set_high_fence(None).unwrap();
        n.set_next(None);
        assert_eq!((n.next(), n.high_fence()), (None, None));
    }

    #[test]
    fn search_and_lower_bound() {
        let n = leaf(&[(e(5, 1), false), (e(5, 3), false), (e(8, 0), false)]);
        assert_eq!(n.search(&e(5, 3)), Ok(1));
        assert_eq!(n.search(&e(5, 2)), Err(1));
        assert_eq!(n.lower_bound(&KeyValue::from_i64(5)), 0);
        assert_eq!(n.lower_bound(&KeyValue::from_i64(6)), 2);
        assert_eq!(n.lower_bound(&KeyValue::from_i64(9)), 3);
    }

    #[test]
    fn size_is_header_slots_and_cells() {
        let mut n = Node::leaf(256);
        assert_eq!(n.size(), HDR);
        n.insert(0, &e(1, 1), false).unwrap();
        assert_eq!(n.size(), HDR + Node::leaf_cost(&e(1, 1)));
        assert_eq!(Node::leaf_cost(&e(1, 1)), e(1, 1).encoded_size() + 1);
        n.set_high_fence(Some(&e(9, 0))).unwrap();
        assert_eq!(
            n.size(),
            HDR + Node::leaf_cost(&e(1, 1)) + Node::fence_cost(&e(9, 0))
        );
        n.remove(0);
        assert_eq!(n.size(), HDR + Node::fence_cost(&e(9, 0)));
    }

    #[test]
    fn deleted_bytes_are_reclaimed_by_compaction() {
        let mut n = Node::leaf(128);
        let mut k = 0;
        while n.size() + Node::leaf_cost(&e(k, 0)) <= 128 {
            n.insert(n.count(), &e(k, 0), false).unwrap();
            k += 1;
        }
        assert!(
            n.insert(0, &e(-1, 0), false).is_err(),
            "a full page refuses"
        );
        n.remove(1);
        n.remove(1);
        let big = IndexEntry::new(KeyValue(vec![7; 20]), Rid::new(2, 2));
        let pos = n.search(&big).unwrap_err();
        n.insert(pos, &big, false).unwrap();
        assert_eq!(n.entry(pos).to_entry(), big);
        roundtrip(&n);
    }

    #[test]
    fn internal_split_sends_one_separator_up() {
        let mut n = Node::internal(128, PageId(100));
        let mut k = 0;
        while n.size() + Node::sep_cost(&e(k, 0)) <= 128 {
            n.insert_sep(n.count(), &e(k * 10, 0), PageId(101 + k as u32))
                .unwrap();
            k += 1;
        }
        // (15, child 999) belongs after child 101.
        let cell = cell(&e(15, 0), false, Some(PageId(999)));
        let at = n.split_point(2, &cell, Prefer::Half, false).unwrap();
        let (left, up, right) = n.split(2, &cell, at).unwrap();
        assert_eq!(left.count() + right.count() + 1, n.count() + 1);
        let children: Vec<_> = (0..=left.count())
            .map(|i| left.child(i))
            .chain((0..=right.count()).map(|i| right.child(i)))
            .collect();
        let mut want: Vec<_> = (0..=n.count()).map(|i| n.child(i)).collect();
        want.insert(3, PageId(999));
        assert_eq!(children, want);
        assert!(left.entries().all(|s| s.cmp_entry(&up).is_lt()));
        assert!(right.entries().all(|s| s.cmp_entry(&up).is_gt()));
    }

    #[test]
    fn decode_refuses_malformed_pages() {
        let good = leaf(&[(e(1, 1), false), (e(2, 2), true)]).image().to_vec();
        let refused = |b: &[u8]| Node::from_image(b.into()).is_err() && decode::<Node>(b).is_none();
        assert!(refused(&[]));
        assert!(refused(&[99]));
        assert!(refused(&good[..good.len() - 1]));
        let patch = |at: usize, bytes: &[u8]| {
            let mut b = good.clone();
            b[at..at + bytes.len()].copy_from_slice(bytes);
            b
        };
        assert!(refused(&patch(KIND, &[3])));
        assert!(
            refused(&patch(COUNT, &[0xFF, 0xFF])),
            "count past the cells"
        );
        assert!(refused(&patch(HDR, &[0, 1])), "slot inside the header");
        assert!(refused(&patch(DEAD, &[0, 1])), "dead bytes disagree");
        assert!(refused(&patch(FENCE, &[0, 200])), "fence names no cell");
        assert!(refused(&patch(KIND, &[1])), "flag 1 in an internal page");
        let cells = usize::from(u16::from_be_bytes([good[CELLS], good[CELLS + 1]]));
        assert!(refused(&patch(cells, &[2])), "unknown flag");
        assert!(
            refused(&patch(cells + 1, &[0xFF, 0xFF])),
            "key past the page"
        );
    }

    proptest! {
        /// A leaf against a `BTreeMap` model under inserts (live and
        /// tombstones), pseudo flips, physical deletes and the unique
        /// index's in-place RID replacement. An insert that does not fit
        /// splits the page — by bytes, the NSF builder's way, or on a
        /// run boundary — and the walk goes on in one half. After every
        /// step the page holds the model's entries in order, within its
        /// size, and survives a byte round trip.
        #[test]
        fn prop_leaf_matches_model(
            ops in prop::collection::vec(
                (0u8..7, prop::collection::vec(0u8..4, 0..4), 0u16..64), 0..300),
            size in 128usize..400) {
            let mut page = Node::leaf(size);
            let top = IndexEntry::new(KeyValue(vec![0xFF; 8]), Rid::MAX);
            page.set_high_fence(Some(&top)).unwrap();
            page.set_next(Some(PageId(77)));
            let mut model = Model::new();
            for (op, key, r) in ops {
                let entry = IndexEntry::new(KeyValue(key.clone()), Rid::new(u32::from(r % 3), r));
                match op {
                    0..=2 => {
                        let pseudo = op == 2;
                        let Err(pos) = page.search(&entry) else {
                            prop_assert!(model.contains_key(&(key, entry.rid)));
                            continue;
                        };
                        if page.size() + Node::leaf_cost(&entry) <= size {
                            page.insert(pos, &entry, pseudo).unwrap();
                            model.insert((key, entry.rid), pseudo);
                            continue;
                        }
                        let c = cell(&entry, pseudo, None);
                        let prefer = if r % 2 == 0 { Prefer::Half } else { Prefer::HigherKeysOnly };
                        let whole_runs = r % 3 == 0;
                        let Ok(at) = page.split_point(pos, &c, prefer, whole_runs) else {
                            prop_assert!(whole_runs);
                            continue;
                        };
                        let (left, sep, right) = page.split(pos, &c, at).unwrap();
                        model.insert((key, entry.rid), pseudo);
                        let (l, rt) = (contents(&left), contents(&right));
                        prop_assert_eq!([l.clone(), rt.clone()].concat(), listed(&model));
                        prop_assert!(!l.is_empty() && !rt.is_empty());
                        prop_assert_eq!(rt[0].0.clone(), (sep.key.0.clone(), sep.rid));
                        if whole_runs {
                            prop_assert!(l.last().unwrap().0 .0 != rt[0].0 .0);
                        }
                        if prefer == Prefer::HigherKeysOnly && pos < page.count() {
                            // Fits permitting, only higher keys move.
                            prop_assert!(at != pos + 1 || l.len() == pos + 1);
                        }
                        prop_assert_eq!(left.high_fence().unwrap().to_entry(), sep.clone());
                        prop_assert_eq!(right.high_fence().unwrap().to_entry(), top.clone());
                        prop_assert_eq!((left.next(), right.next()), (None, Some(PageId(77))));
                        prop_assert!(left.size() <= size && right.size() <= size);
                        roundtrip(&left);
                        roundtrip(&right);
                        if r % 4 < 2 {
                            page = left;
                            page.set_next(Some(PageId(77)));
                            page.set_high_fence(Some(&top)).unwrap();
                            model.retain(|k, _| (&k.0, k.1) < (&sep.key.0, sep.rid));
                        } else {
                            page = right;
                            model.retain(|k, _| (&k.0, k.1) >= (&sep.key.0, sep.rid));
                        }
                    }
                    3 if page.count() > 0 => {
                        let i = usize::from(r) % page.count();
                        let now = page.entry(i).pseudo;
                        let k = page.entry(i).to_entry();
                        page.set_pseudo(i, !now);
                        model.insert((k.key.0, k.rid), !now);
                    }
                    4 | 5 if page.count() > 0 => {
                        let i = usize::from(r) % page.count();
                        let k = page.entry(i).to_entry();
                        page.remove(i);
                        model.remove(&(k.key.0, k.rid));
                    }
                    6 if page.count() > 0 => {
                        let i = usize::from(r) % page.count();
                        let old = page.entry(i).to_entry();
                        let fresh = IndexEntry::new(old.key.clone(), Rid::new(9, r));
                        if page.search(&fresh).is_err() {
                            page.remove(i);
                            let pos = page.search(&fresh).unwrap_err();
                            page.insert(pos, &fresh, false).unwrap();
                            model.remove(&(old.key.0, old.rid));
                            model.insert((fresh.key.0, fresh.rid), false);
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(contents(&page), listed(&model));
                let cost: usize = page.entries().map(|x| x.key.len() + SLOT + CELL_FIXED).sum();
                let fence = page.high_fence().map_or(0, |f| f.key.len() + CELL_FIXED);
                prop_assert_eq!(page.size(), HDR + cost + fence);
                prop_assert!(page.size() <= size);
                roundtrip(&page);
            }
        }
    }
}
