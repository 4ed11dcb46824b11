//! Byte-accurate slotted data pages for heap records.
//!
//! Records grow from the front of the page; the slot directory grows
//! from the back. Slot numbers are *stable*: deleting a record leaves
//! an empty slot behind, so a RID (`page`,`slot`) never silently moves
//! — a property both NSF and SF depend on (keys carry RIDs, and the
//! SF visibility rule compares RIDs).
//!
//! Layout of the backing buffer:
//!
//! ```text
//! [0..2)  slot_count  (u16)
//! [2..4)  free_start  (u16, offset of next record byte)
//! [4..)   record heap ...           ... slot dir <- [len-4*count..len)
//! ```
//!
//! Each 4-byte slot entry is `(offset: u16, len: u16)`; `offset == 0`
//! marks a slot with no record (the header lives at 0). Among those,
//! `len > 0` marks a **reserved** slot: its record was deleted by a
//! transaction that has not ended yet, so neither the slot number nor
//! the record's `len` bytes may go to anyone else until the deleter
//! commits ([`SlottedPage::free_slot`]) or its rollback restores the
//! record at the same RID — which therefore always fits. Every entry's
//! `len` counts as used space, live or reserved, for forward work
//! ([`SlottedPage::insert`], [`SlottedPage::update`]).
//!
//! An update that *shrinks* a record follows the same rule: the slot
//! keeps the record's longest length under its running updater as a
//! **hold**, so the bytes the shrink freed stay out of forward work until
//! the updater ends. A rollback undoes one step at a time and lets the
//! page go between steps, so its steps keep the hold too
//! ([`SlottedPage::restore`]): undoing a delete of a shrunk record, or
//! the later of two updates, puts back a short image, and the longer one
//! the next step restores must still fit. The transaction's end — commit
//! or the end of its rollback — releases the hold
//! ([`SlottedPage::free_slot`]). A hold lives in the page's frame, not
//! in its bytes: it guards a transaction that is still running, and a
//! crash ends them all. Restart's undo of the losers keeps holds like
//! any rollback, and its sweep ends them ([`SlottedPage::sweep`]).
//!
//! The redo forms ([`SlottedPage::insert_at`], [`SlottedPage::update_at`])
//! put back what the log says a slot held, and they and
//! [`SlottedPage::restore`] count only live records. A release is not
//! logged, so redo replays every committed delete as a reservation that
//! forward processing had already given away; a placement that fit
//! forward fits among the live records redo rebuilds, and a rollback
//! takes back its own reserved or held bytes.
//!
//! The space accounting is kept, not recomputed: the frame carries the
//! sums the slot directory gives (`Counts`), derived in one pass when
//! the page is made or read back and changed only where a slot entry is
//! written, so the room checks every insert and update makes under the
//! X latch cost O(1) however many slots the page has. They live beside
//! the bytes, not in them: the page format is unchanged.

use crate::cache::PagePayload;
use crate::spare;
use mohan_common::{Error, Result, SlotId};
use std::sync::Arc;

const HDR: usize = 4;
const SLOT_BYTES: usize = 4;

/// One slotted heap page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlottedPage {
    /// The page's bytes, shared with its durable image until a write
    /// copies them ([`SlottedPage::edit`]).
    buf: Arc<[u8]>,
    /// Holds of shrunk records whose updater has not ended: the slot
    /// and the longest length the record had under that updater.
    held: Vec<(u16, u16)>,
    /// What the slot directory sums to; written only with an entry.
    counts: Counts,
}

/// Sums over the slot directory's `(offset, len)` entries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    /// Every entry's `len`, live or reserved.
    used: usize,
    /// The live records' lengths.
    live: usize,
    /// Entries that are `(0, 0)`: free slots.
    free_slots: usize,
}

impl Counts {
    fn add(&mut self, (off, len): (usize, usize)) {
        self.used += len;
        if off != 0 {
            self.live += len;
        } else if len == 0 {
            self.free_slots += 1;
        }
    }

    fn remove(&mut self, (off, len): (usize, usize)) {
        self.used -= len;
        if off != 0 {
            self.live -= len;
        } else if len == 0 {
            self.free_slots -= 1;
        }
    }
}

impl SlottedPage {
    /// Create an empty page with `size` usable bytes (including the
    /// header and slot directory).
    #[must_use]
    pub fn new(size: usize) -> SlottedPage {
        assert!(
            size >= 64 && size <= u16::MAX as usize,
            "page size out of range"
        );
        let mut buf = spare::zeroed(size);
        write_u16(spare::make_mut(&mut buf), 2, HDR as u16);
        SlottedPage {
            buf,
            held: Vec::new(),
            counts: Counts::default(),
        }
    }

    /// The bytes to write, with the accounting beside them. Copies the
    /// bytes first, into a spare buffer if the process has one, if an
    /// image still shares them, so each change takes this once and
    /// writes through it.
    fn edit(&mut self) -> (&mut [u8], &mut Counts) {
        (spare::make_mut(&mut self.buf), &mut self.counts)
    }

    fn slot_count(&self) -> usize {
        slot_count(&self.buf)
    }

    fn free_start(&self) -> usize {
        free_start(&self.buf)
    }

    fn slot_entry(&self, slot: usize) -> (usize, usize) {
        slot_entry(&self.buf, slot)
    }

    /// Bytes between the header and the slot directory.
    fn space(&self) -> usize {
        self.buf.len() - HDR - self.slot_count() * SLOT_BYTES
    }

    /// Number of slots ever used (including now-empty ones).
    #[must_use]
    pub fn slots(&self) -> u16 {
        self.slot_count() as u16
    }

    /// Number of live records.
    #[must_use]
    pub fn live_records(&self) -> usize {
        (0..self.slot_count())
            .filter(|&s| self.slot_entry(s).0 != 0)
            .count()
    }

    /// Contiguous free bytes (before any compaction).
    #[must_use]
    pub fn contiguous_free(&self) -> usize {
        let dir_start = self.buf.len() - self.slot_count() * SLOT_BYTES;
        dir_start.saturating_sub(self.free_start())
    }

    /// Bytes no live record holds: free or reserved.
    fn unheld(&self) -> usize {
        self.space() - self.counts.live
    }

    /// Free bytes recoverable by compaction plus the contiguous tail.
    /// A reserved slot's bytes are not free, nor are the bytes a hold
    /// keeps beside its record. After redo, reservations can exceed the
    /// bytes the live records leave (module doc); the page then reports
    /// 0 free bytes until restart's sweep.
    #[must_use]
    pub fn total_free(&self) -> usize {
        let held: usize = self
            .held
            .iter()
            .map(|&(s, len)| usize::from(len).saturating_sub(self.slot_entry(s.into()).1))
            .sum();
        self.space().saturating_sub(self.counts.used + held)
    }

    /// End slot `s`'s hold, returning the length it kept.
    fn take_hold(&mut self, s: usize) -> Option<usize> {
        let at = self.held.iter().position(|&(h, _)| usize::from(h) == s)?;
        Some(self.held.swap_remove(at).1.into())
    }

    /// Would `insert` of `len` bytes succeed (possibly via compaction)?
    #[must_use]
    pub fn fits(&self, len: usize) -> bool {
        let dir_growth = if self.counts.free_slots > 0 {
            0
        } else {
            SLOT_BYTES
        };
        self.total_free() >= len + dir_growth
    }

    fn first_empty_slot(&self) -> Option<usize> {
        if self.counts.free_slots == 0 {
            return None;
        }
        (0..self.slot_count()).find(|&s| self.slot_entry(s) == (0, 0))
    }

    /// Insert a record, reusing an empty slot if one exists.
    /// Returns the assigned slot, or `PageFull` with the page unchanged:
    /// the insert is its own room check, the one [`SlottedPage::fits`]
    /// answers.
    pub fn insert(&mut self, data: &[u8]) -> Result<SlotId> {
        let slot = match self.first_empty_slot() {
            Some(s) => s,
            None => self.slot_count(),
        };
        self.place(slot, data, Self::total_free)?;
        Ok(SlotId(slot as u16))
    }

    /// Insert a record at a *specific* slot (redo). The slot must be
    /// empty, reserved, or beyond the current directory; reservations
    /// do not count against the record (module doc).
    pub fn insert_at(&mut self, slot: SlotId, data: &[u8]) -> Result<()> {
        self.place(slot.0 as usize, data, Self::unheld)
    }

    /// One rollback step: put `data` back at `slot`, whether a delete
    /// reserved the slot or an update left a record there. Counts only
    /// live records, and keeps the slot's hold at the longest length the
    /// record had under the transaction, so its next step fits as well
    /// (module doc).
    pub fn restore(&mut self, slot: SlotId, data: &[u8]) -> Result<()> {
        if self.get(slot).is_some() {
            return self.replace(slot, data, Self::unheld, true).map(drop);
        }
        let s = usize::from(slot.0);
        let reserved = if s < self.slot_count() {
            self.slot_entry(s).1
        } else {
            0
        };
        self.place(s, data, Self::unheld)?;
        if data.len() < reserved {
            self.held.push((slot.0, reserved as u16));
        }
        Ok(())
    }

    /// Put `data` in slot `s` if `room` leaves space for it.
    fn place(&mut self, s: usize, data: &[u8], room: fn(&Self) -> usize) -> Result<()> {
        if s < self.slot_count() && self.slot_entry(s).0 != 0 {
            return Err(Error::Corruption(format!("slot {s} already occupied")));
        }
        let new_slots = self.slot_count().max(s + 1);
        let dir_growth = (new_slots - self.slot_count()) * SLOT_BYTES;
        if room(self) < data.len() + dir_growth {
            return Err(Error::PageFull);
        }
        let (b, counts) = self.edit();
        if new_slots > slot_count(b) {
            // Growing the directory moves its start downward; make sure
            // no record bytes live where the new entries will go.
            let new_dir_start = b.len() - new_slots * SLOT_BYTES;
            if free_start(b) > new_dir_start {
                compact(b, counts);
            }
            grow_directory(b, counts, new_slots);
        }
        put_record(b, counts, s, data);
        Ok(())
    }

    /// Read a record. `None` for empty or out-of-range slots.
    #[must_use]
    pub fn get(&self, slot: SlotId) -> Option<&[u8]> {
        let s = slot.0 as usize;
        if s >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot_entry(s);
        if off == 0 {
            return None;
        }
        Some(&self.buf[off..off + len])
    }

    /// Delete a record, returning its bytes. The slot and the record's
    /// bytes — as many as its hold kept, if it was shrunk — become
    /// *reserved* (not reusable) until [`SlottedPage::free_slot`]
    /// releases them or a rollback restores the record.
    pub fn delete(&mut self, slot: SlotId) -> Result<Vec<u8>> {
        let old = self
            .get(slot)
            .ok_or_else(|| Error::NotFound(format!("record {slot}")))?
            .to_vec();
        let s = slot.0 as usize;
        let held = self.take_hold(s).unwrap_or(0);
        // An empty record still reserves one byte: `(0, 0)` is free.
        let (b, counts) = self.edit();
        set_slot_entry(b, counts, s, 0, old.len().max(held).max(1));
        Ok(old)
    }

    /// The transaction that deleted or updated the record at `slot`
    /// ended (committed, or finished rolling back): release a reserved
    /// slot and its bytes for reuse, or end a live record's hold.
    /// Idempotent; a no-op on free slots and on records without a hold.
    /// Returns whether any bytes came free.
    pub fn free_slot(&mut self, slot: SlotId) -> bool {
        let reserved = self.is_reserved(slot);
        if reserved {
            let (b, counts) = self.edit();
            set_slot_entry(b, counts, slot.0 as usize, 0, 0);
        }
        self.take_hold(slot.0 as usize).is_some() || reserved
    }

    fn reserved(&self, s: usize) -> bool {
        let (off, len) = self.slot_entry(s);
        off == 0 && len != 0
    }

    /// Is this slot reserved by an uncommitted delete?
    #[must_use]
    pub fn is_reserved(&self, slot: SlotId) -> bool {
        let s = slot.0 as usize;
        s < self.slot_count() && self.reserved(s)
    }

    /// Slot numbers currently reserved.
    #[must_use]
    pub fn reserved_slots(&self) -> Vec<SlotId> {
        (0..self.slot_count())
            .filter(|&s| self.reserved(s))
            .map(|s| SlotId(s as u16))
            .collect()
    }

    /// After restart's undo no transaction is running: release every
    /// reserved slot (their deleters committed) and end every hold (the
    /// losers' rollbacks are done). Returns the slots released.
    pub fn sweep(&mut self) -> usize {
        let reserved = self.reserved_slots();
        for &slot in &reserved {
            self.free_slot(slot);
        }
        self.held.clear();
        reserved.len()
    }

    /// Replace a record in place, returning the old bytes. Compacts if
    /// needed; `PageFull` if the new image cannot fit. A shrink leaves
    /// a hold on the longest image until [`SlottedPage::free_slot`]
    /// (module doc); the record's own hold counts as room for it.
    pub fn update(&mut self, slot: SlotId, data: &[u8]) -> Result<Vec<u8>> {
        self.replace(slot, data, Self::total_free, true)
    }

    /// [`SlottedPage::update`] for redo: reservations and holds do not
    /// count against the new image, and no hold is kept (module doc).
    pub fn update_at(&mut self, slot: SlotId, data: &[u8]) -> Result<Vec<u8>> {
        self.replace(slot, data, Self::unheld, false)
    }

    fn replace(
        &mut self,
        slot: SlotId,
        data: &[u8],
        room: fn(&Self) -> usize,
        hold: bool,
    ) -> Result<Vec<u8>> {
        let s = slot.0 as usize;
        let old = self
            .get(slot)
            .ok_or_else(|| Error::NotFound(format!("record {slot}")))?
            .to_vec();
        let (off, old_len) = self.slot_entry(s);
        // The record's own hold is room for it.
        let prior = self.take_hold(s);
        if data.len() <= old_len {
            let (b, counts) = self.edit();
            b[off..off + data.len()].copy_from_slice(data);
            set_slot_entry(b, counts, s, off, data.len());
        } else {
            // Needs more room: the room is what the page has with the
            // record gone. Only the sums say so until it fits.
            let kept = self.counts;
            self.counts.remove((off, old_len));
            self.counts.add((0, 0));
            if room(self) < data.len() {
                self.counts = kept;
                self.held.extend(prior.map(|len| (slot.0, len as u16)));
                return Err(Error::PageFull);
            }
            let (b, counts) = self.edit();
            // The sums already count the entry as free.
            write_slot_entry(b, s, 0, 0);
            put_record(b, counts, s, data);
        }
        let longest = prior.unwrap_or(0).max(old_len);
        if hold && data.len() < longest {
            self.held.push((slot.0, longest as u16));
        }
        Ok(old)
    }

    /// Iterate live records as `(slot, bytes)` in slot order — the
    /// order the IB's key-extraction scan visits them.
    pub fn records(&self) -> impl Iterator<Item = (SlotId, &[u8])> + '_ {
        (0..self.slot_count()).filter_map(move |s| {
            let (off, len) = self.slot_entry(s);
            if off == 0 {
                None
            } else {
                Some((SlotId(s as u16), &self.buf[off..off + len]))
            }
        })
    }

    /// Defragment the record heap (slot numbers are preserved).
    pub fn compact(&mut self) {
        let (b, counts) = self.edit();
        compact(b, counts);
    }
}

// ----- the bytes, read and written in place ------------------------------

fn slot_count(b: &[u8]) -> usize {
    read_u16(b, 0) as usize
}

fn free_start(b: &[u8]) -> usize {
    read_u16(b, 2) as usize
}

fn set_free_start(b: &mut [u8], off: usize) {
    write_u16(b, 2, off as u16);
}

fn slot_entry_pos(b: &[u8], slot: usize) -> usize {
    b.len() - (slot + 1) * SLOT_BYTES
}

fn slot_entry(b: &[u8], slot: usize) -> (usize, usize) {
    let p = slot_entry_pos(b, slot);
    (read_u16(b, p) as usize, read_u16(b, p + 2) as usize)
}

/// Write slot `slot`'s entry, leaving the sums alone.
fn write_slot_entry(b: &mut [u8], slot: usize, off: usize, len: usize) {
    let p = slot_entry_pos(b, slot);
    write_u16(b, p, off as u16);
    write_u16(b, p + 2, len as u16);
}

/// Write slot `slot`'s entry and move the sums with it.
fn set_slot_entry(b: &mut [u8], counts: &mut Counts, slot: usize, off: usize, len: usize) {
    counts.remove(slot_entry(b, slot));
    write_slot_entry(b, slot, off, len);
    counts.add((off, len));
}

/// Extend the directory to `n` free slots. The bytes under a new entry
/// are whatever the record heap left there: they are overwritten, never
/// counted as an old entry.
fn grow_directory(b: &mut [u8], counts: &mut Counts, n: usize) {
    for s in slot_count(b)..n {
        let p = slot_entry_pos(b, s);
        b[p..p + SLOT_BYTES].fill(0);
        counts.add((0, 0));
    }
    write_u16(b, 0, n as u16);
}

/// Append `data` to the record heap as slot `s`'s record, compacting
/// first if the contiguous free bytes are too few; room was checked.
fn put_record(b: &mut [u8], counts: &mut Counts, s: usize, data: &[u8]) {
    let dir_start = b.len() - slot_count(b) * SLOT_BYTES;
    if dir_start - free_start(b) < data.len() {
        compact(b, counts);
    }
    let off = free_start(b);
    debug_assert!(off + data.len() <= b.len() - slot_count(b) * SLOT_BYTES);
    b[off..off + data.len()].copy_from_slice(data);
    set_free_start(b, off + data.len());
    set_slot_entry(b, counts, s, off, data.len());
}

/// Defragment the record heap (slot numbers are preserved).
fn compact(b: &mut [u8], counts: &mut Counts) {
    let live: Vec<(usize, Vec<u8>)> = (0..slot_count(b))
        .filter_map(|s| {
            let (off, len) = slot_entry(b, s);
            if off == 0 {
                None
            } else {
                Some((s, b[off..off + len].to_vec()))
            }
        })
        .collect();
    let mut cursor = HDR;
    for (s, data) in live {
        b[cursor..cursor + data.len()].copy_from_slice(&data);
        set_slot_entry(b, counts, s, cursor, data.len());
        cursor += data.len();
    }
    set_free_start(b, cursor);
}

/// The accounting as the bytes give it, checking on the way that every
/// accessor reads in bounds: the directory fits in the page, `free_start`
/// lies between the header and the directory, and every live record
/// between the header and `free_start`, with no more record bytes than
/// that span holds.
fn tally(b: &[u8]) -> Result<Counts> {
    let refuse = |what: String| Err(Error::Corruption(format!("slotted page: {what}")));
    let size = b.len();
    if !(HDR..=usize::from(u16::MAX)).contains(&size) {
        return refuse(format!("{size} bytes"));
    }
    let slots = slot_count(b);
    if slots * SLOT_BYTES > size - HDR {
        return refuse(format!("{slots} slots in {size} bytes"));
    }
    let free_start = free_start(b);
    if !(HDR..=size - slots * SLOT_BYTES).contains(&free_start) {
        return refuse(format!("free space starts at {free_start}"));
    }
    let mut counts = Counts::default();
    for s in 0..slots {
        let (off, len) = slot_entry(b, s);
        if off != 0 && (off < HDR || off + len > free_start) {
            return refuse(format!("slot {s} at {off}..{}", off + len));
        }
        counts.add((off, len));
    }
    if counts.live > free_start - HDR {
        return refuse(format!("{} record bytes below {free_start}", counts.live));
    }
    Ok(counts)
}

impl PagePayload for SlottedPage {
    fn image(&self) -> Arc<[u8]> {
        Arc::clone(&self.buf)
    }

    /// Refuses a page some accessor could not read in bounds (see
    /// `tally`), so every page it returns serves every method.
    fn from_image(buf: Arc<[u8]>) -> Result<Self> {
        let counts = tally(&buf)?;
        Ok(SlottedPage {
            buf,
            held: Vec::new(),
            counts,
        })
    }
}

fn read_u16(buf: &[u8], pos: usize) -> u16 {
    u16::from_be_bytes([buf[pos], buf[pos + 1]])
}

fn write_u16(buf: &mut [u8], pos: usize, v: u16) {
    buf[pos..pos + 2].copy_from_slice(&v.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut p = SlottedPage::new(256);
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!(p.get(s0), Some(&b"hello"[..]));
        assert_eq!(p.get(s1), Some(&b"world!"[..]));
        assert_eq!(p.live_records(), 2);
    }

    #[test]
    fn delete_leaves_stable_slot_numbers() {
        let mut p = SlottedPage::new(256);
        let s0 = p.insert(b"aa").unwrap();
        let s1 = p.insert(b"bb").unwrap();
        p.delete(s0).unwrap();
        assert_eq!(p.get(s0), None);
        assert_eq!(p.get(s1), Some(&b"bb"[..]));
        // A deleted slot is *reserved* until freed: the next insert
        // must not take it.
        assert!(p.is_reserved(s0));
        let s2 = p.insert(b"cc").unwrap();
        assert_ne!(s2, s0);
        // After the deleter commits, the slot is reusable.
        p.free_slot(s0);
        let s3 = p.insert(b"dd").unwrap();
        assert_eq!(s3, s0);
        assert_eq!(p.reserved_slots(), Vec::<SlotId>::new());
    }

    #[test]
    fn insert_at_restores_exact_rid() {
        let mut p = SlottedPage::new(256);
        let s0 = p.insert(b"x").unwrap();
        let old = p.delete(s0).unwrap();
        p.insert_at(s0, &old).unwrap();
        assert_eq!(p.get(s0), Some(&b"x"[..]));
    }

    #[test]
    fn insert_at_rejects_occupied_slot() {
        let mut p = SlottedPage::new(256);
        let s0 = p.insert(b"x").unwrap();
        assert!(matches!(p.insert_at(s0, b"y"), Err(Error::Corruption(_))));
    }

    #[test]
    fn insert_at_beyond_directory_grows_it() {
        let mut p = SlottedPage::new(256);
        p.insert_at(SlotId(3), b"late").unwrap();
        assert_eq!(p.get(SlotId(3)), Some(&b"late"[..]));
        assert_eq!(p.get(SlotId(0)), None);
        assert_eq!(p.slots(), 4);
    }

    #[test]
    fn page_full_reported() {
        let mut p = SlottedPage::new(64);
        let data = [7u8; 30];
        p.insert(&data).unwrap();
        assert!(matches!(p.insert(&data), Err(Error::PageFull)));
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = SlottedPage::new(128);
        let s = p.insert(b"abcdef").unwrap();
        let old = p.update(s, b"xy").unwrap();
        assert_eq!(old, b"abcdef");
        assert_eq!(p.get(s), Some(&b"xy"[..]));
        let old2 = p.update(s, b"0123456789").unwrap();
        assert_eq!(old2, b"xy");
        assert_eq!(p.get(s), Some(&b"0123456789"[..]));
    }

    #[test]
    fn update_too_big_leaves_page_unchanged() {
        let mut p = SlottedPage::new(64);
        let s = p.insert(&[1u8; 20]).unwrap();
        p.insert(&[2u8; 20]).unwrap();
        let err = p.update(s, &[3u8; 40]).unwrap_err();
        assert!(matches!(err, Error::PageFull));
        assert_eq!(p.get(s), Some(&[1u8; 20][..]));
    }

    #[test]
    fn compaction_reclaims_space() {
        let mut p = SlottedPage::new(128);
        let s0 = p.insert(&[1u8; 30]).unwrap();
        let s1 = p.insert(&[2u8; 30]).unwrap();
        let s2 = p.insert(&[3u8; 30]).unwrap();
        p.delete(s0).unwrap();
        p.delete(s2).unwrap();
        // Deleted bytes stay reserved until the deleters commit.
        assert!(matches!(p.insert(&[4u8; 50]), Err(Error::PageFull)));
        p.free_slot(s0);
        p.free_slot(s2);
        // Free space is fragmented; a 50-byte record needs compaction.
        let s3 = p.insert(&[4u8; 50]).unwrap();
        assert_eq!(p.get(s1), Some(&[2u8; 30][..]));
        assert_eq!(p.get(s3), Some(&[4u8; 50][..]));
    }

    #[test]
    fn records_iterates_in_slot_order() {
        let mut p = SlottedPage::new(256);
        p.insert(b"a").unwrap();
        let s1 = p.insert(b"b").unwrap();
        p.insert(b"c").unwrap();
        p.delete(s1).unwrap();
        let got: Vec<Vec<u8>> = p.records().map(|(_, d)| d.to_vec()).collect();
        assert_eq!(got, vec![b"a".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut p = SlottedPage::new(256);
        p.insert(b"persist me").unwrap();
        let q = SlottedPage::from_image(p.image()).unwrap();
        assert_eq!(p, q);
    }

    /// The kept accounting equals a recount from the bytes, and `fits`
    /// answers what the full scan of the directory used to.
    fn assert_accounting(p: &SlottedPage) {
        let entries: Vec<(usize, usize)> = (0..p.slot_count()).map(|s| p.slot_entry(s)).collect();
        let recount = Counts {
            used: entries.iter().map(|e| e.1).sum(),
            live: entries.iter().filter(|e| e.0 != 0).map(|e| e.1).sum(),
            free_slots: entries.iter().filter(|&&e| e == (0, 0)).count(),
        };
        assert_eq!(p.counts, recount);
        assert_eq!(tally(&p.buf).unwrap(), recount);
        let held: usize = p
            .held
            .iter()
            .map(|&(s, len)| usize::from(len).saturating_sub(p.slot_entry(s.into()).1))
            .sum();
        let free = p.space().saturating_sub(recount.used + held);
        let growth = if recount.free_slots > 0 {
            0
        } else {
            SLOT_BYTES
        };
        for n in [0, 1, 7, 24, 64] {
            assert_eq!(p.fits(n), free >= n + growth, "fits({n})");
        }
    }

    /// A page image the format's previous implementation, which
    /// recounted the directory on every call, wrote after these ops:
    /// inserts, a reserved delete, a held shrink, releases, an insert
    /// into a freed slot that compacts, and a redo insert that grows the
    /// directory by three slots. The bytes are the same, and decoding
    /// them yields the accounting the ops kept.
    #[test]
    fn page_bytes_match_the_previous_format() {
        const IMAGE: &str = "0006004604040404040405050505050505050505050505050505050505050505\
                             0505050505050505050505050505050505050505050505050505050505050505\
                             0505060606060000000000000000000000000000000000000000000000000000\
                             0000000000000000004200040000000000000000000a00380004000600000014";
        let mut p = SlottedPage::new(128);
        let a = p.insert(&[1; 20]).unwrap();
        let b = p.insert(&[2; 20]).unwrap();
        let c = p.insert(&[3; 20]).unwrap();
        p.delete(a).unwrap();
        p.update(b, &[4; 6]).unwrap();
        p.delete(c).unwrap();
        p.free_slot(c);
        p.free_slot(b);
        assert_eq!(p.insert(&[5; 56]).unwrap(), c);
        p.insert_at(SlotId(5), &[6; 4]).unwrap();
        let hex: String = p.image().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, IMAGE);
        let q = SlottedPage::from_image(p.image()).unwrap();
        assert_eq!(q.counts, p.counts);
        assert_eq!(
            q.counts,
            Counts {
                used: 20 + 6 + 56 + 4,
                live: 6 + 56 + 4,
                free_slots: 2
            }
        );
        assert_accounting(&q);
    }

    /// What the log holds of `prop_model_check`'s ops. A rollback logs
    /// its restore as an insert; a release (`free_slot`) logs nothing.
    enum Logged {
        Insert(u16, Vec<u8>),
        Delete(u16),
        Update(u16, Vec<u8>),
    }

    fn redo(page: &mut SlottedPage, rec: &Logged) -> Result<()> {
        match rec {
            Logged::Insert(s, data) => page.insert_at(SlotId(*s), data),
            Logged::Delete(s) => page.delete(SlotId(*s)).map(drop),
            Logged::Update(s, data) => page.update_at(SlotId(*s), data).map(drop),
        }
    }

    #[test]
    fn redo_places_into_bytes_a_committed_delete_released() {
        // Two 26-byte records deleted and released on a full page; a
        // 42-byte insert takes both chunks. Redo from an image taken
        // before the release still holds both reservations.
        let mut p = SlottedPage::new(256);
        let (a, b) = (p.insert(&[1; 26]).unwrap(), p.insert(&[2; 26]).unwrap());
        p.insert(&[3; 34]).unwrap();
        for _ in 0..7 {
            p.insert(&[4; 18]).unwrap();
        }
        assert_eq!(p.total_free(), 0);
        p.delete(a).unwrap();
        p.delete(b).unwrap();
        let mut image = p.clone();
        p.free_slot(a);
        p.free_slot(b);
        assert_eq!(p.insert(&[5; 42]).unwrap(), a);
        image.insert_at(a, &[5; 42]).unwrap();
        assert_eq!(image.get(a), Some(&[5u8; 42][..]));
        // Until the sweep, the page reports no room for forward work.
        assert_eq!(image.total_free(), 0);
        image.free_slot(b);
        assert_eq!(image.total_free(), p.total_free());
    }

    proptest! {
        /// Random op sequences against a model HashMap: slot stability,
        /// contents, and free-space accounting never diverge. The deletes
        /// and updates of a slot belong to one transaction until it ends.
        /// A deleted record's slot and bytes stay reserved, and a shrunk
        /// record's longest image stays held, until then: a commit frees
        /// them, and a rollback takes one undo step per op — other ops,
        /// other rollbacks' steps among them, run between its steps — puts
        /// the record back at its slot, at its old length, and every step
        /// fits, whatever was inserted meanwhile. Redo of the log — from
        /// an empty page (a follower) or from the durable bytes of the
        /// page as it was before op `image_at` (restart, holds gone) —
        /// never fails and rebuilds the same records, though it never
        /// sees a release.
        #[test]
        fn prop_model_check(ops in prop::collection::vec(
            (0u8..10, prop::collection::vec(any::<u8>(), 1..24)), 0..80),
            image_at in 0usize..80) {
            use std::collections::HashMap;
            let durable = |p: &SlottedPage| SlottedPage::from_image(p.image()).unwrap();
            let mut p = SlottedPage::new(128);
            let mut model: HashMap<u16, Vec<u8>> = HashMap::new();
            // The transaction of each slot it deleted or updated and that
            // has not ended: the images its undo steps restore, oldest
            // first, and whether it is rolling back.
            let mut open: HashMap<u16, (Vec<Vec<u8>>, bool)> = HashMap::new();
            let mut log = Vec::new();
            let mut image = None;
            for (i, (op, data)) in ops.into_iter().enumerate() {
                if i == image_at {
                    image = Some((durable(&p), log.len()));
                }
                let forward = |s: &&u16| open.get(*s).is_none_or(|(_, rolling)| !rolling);
                // Inserts are 40 % of the mix, so the page fills.
                match op {
                    0..=3 => {
                        if let Ok(s) = p.insert(&data) {
                            prop_assert!(!model.contains_key(&s.0));
                            prop_assert!(!open.contains_key(&s.0));
                            log.push(Logged::Insert(s.0, data.clone()));
                            model.insert(s.0, data);
                        }
                    }
                    4 => {
                        if let Some(&slot) = model.keys().filter(forward).min() {
                            let old = p.delete(SlotId(slot)).unwrap();
                            prop_assert_eq!(&old, model.get(&slot).unwrap());
                            log.push(Logged::Delete(slot));
                            model.remove(&slot);
                            open.entry(slot).or_default().0.push(old);
                        }
                    }
                    5 | 9 => {
                        let live = model.keys().filter(forward);
                        let slot = if op == 5 { live.max() } else { live.min() };
                        if let Some(&slot) = slot {
                            if let Ok(old) = p.update(SlotId(slot), &data) {
                                log.push(Logged::Update(slot, data.clone()));
                                model.insert(slot, data);
                                open.entry(slot).or_default().0.push(old);
                            }
                        }
                    }
                    6 => {
                        if let Some(&slot) = open.keys().filter(forward).min() {
                            p.free_slot(SlotId(slot));
                            open.remove(&slot);
                        }
                    }
                    _ => {
                        let slot = if op == 7 { open.keys().max() } else { open.keys().min() };
                        if let Some(&slot) = slot {
                            let (steps, rolling) = open.get_mut(&slot).unwrap();
                            *rolling = true;
                            let old = steps.pop().unwrap();
                            let done = steps.is_empty();
                            prop_assert!(p.restore(SlotId(slot), &old).is_ok());
                            log.push(if model.contains_key(&slot) {
                                Logged::Update(slot, old.clone())
                            } else {
                                Logged::Insert(slot, old.clone())
                            });
                            model.insert(slot, old);
                            if done {
                                p.free_slot(SlotId(slot));
                                open.remove(&slot);
                            }
                        }
                    }
                }
                for (&slot, val) in &model {
                    prop_assert_eq!(p.get(SlotId(slot)), Some(val.as_slice()));
                }
                let deleted: Vec<u16> =
                    open.keys().filter(|s| !model.contains_key(s)).copied().collect();
                for &slot in &deleted {
                    prop_assert_eq!(p.get(SlotId(slot)), None);
                    prop_assert!(p.is_reserved(SlotId(slot)));
                }
                prop_assert_eq!(p.live_records(), model.len());
                prop_assert_eq!(p.records().count(), model.len());
                prop_assert_eq!(p.reserved_slots().len(), deleted.len());
                assert_accounting(&p);
            }
            let live: Vec<(SlotId, &[u8])> = p.records().collect();
            let (mut restarted, from) = image.unwrap_or_else(|| (durable(&p), log.len()));
            assert_accounting(&restarted);
            let mut follower = SlottedPage::new(128);
            for (page, from) in [(&mut follower, 0), (&mut restarted, from)] {
                for rec in &log[from..] {
                    prop_assert!(redo(page, rec).is_ok());
                    assert_accounting(page);
                }
                prop_assert_eq!(page.records().collect::<Vec<_>>(), live.clone());
                assert_accounting(&durable(page));
            }
        }
    }
}
