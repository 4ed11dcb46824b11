//! Crash-aware stable storage for sorted runs.
//!
//! A run is an append-only sequence of items, held as its bytes. Appends
//! are volatile until [`RunStore::force_run`]; a simulated crash
//! truncates every run back to its forced prefix and the restart logic
//! (driven by the checkpoint metadata) then discards runs the checkpoint
//! never knew about.
//!
//! Every run is prefix-compressed: blocks of 16 encoded items, where a
//! block's first item is stored whole and every later one only as
//! `(shared-prefix-length, suffix)` against its predecessor's encoding. Sorted runs share long key prefixes, so this is the classic
//! compressed-key-sort layout. An item is encoded once, on append, and
//! decoded only when a merge cursor reads it back.
//!
//! A merge input gives back its whole blocks below the durable merge
//! position ([`RunStore::release`]): §5.2 restarts a merge at its
//! counters, so no restart reads below them again.

use crate::item::SortItem;
use mohan_common::codec::decode;
use mohan_common::stats::Counter;
use mohan_common::{Error, Result};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;
use std::sync::Arc;

/// Items per block: the first is stored in full, the rest as
/// prefix-truncated deltas. Small enough that a read from an offset
/// decodes a bounded prefix, large enough to amortize the full first
/// item.
const BLOCK_ITEMS: usize = 16;

fn push_u16(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u16).to_be_bytes());
}

fn read_u16(buf: &[u8], pos: &mut usize) -> Option<usize> {
    let b: [u8; 2] = buf.get(*pos..*pos + 2)?.try_into().ok()?;
    *pos += 2;
    Some(u16::from_be_bytes(b) as usize)
}

fn corrupt() -> Error {
    Error::Corruption("run block truncated".into())
}

fn released() -> Error {
    Error::Corruption("run block released".into())
}

/// Decode the item at `*pos` of `block` into `cur`, which holds the
/// previous item's encoding. A block's `first` item is
/// `[u16 len][bytes]`; every later one `[u16 shared][u16 suffix_len]
/// [suffix]`.
fn step(block: &[u8], pos: &mut usize, cur: &mut Vec<u8>, first: bool) -> Result<()> {
    let shared = if first {
        0
    } else {
        read_u16(block, pos).ok_or_else(corrupt)?
    };
    let n = read_u16(block, pos).ok_or_else(corrupt)?;
    let suffix = block.get(*pos..*pos + n).ok_or_else(corrupt)?;
    if shared > cur.len() {
        return Err(corrupt());
    }
    cur.truncate(shared);
    cur.extend_from_slice(suffix);
    *pos += n;
    Ok(())
}

/// One run's bytes.
#[derive(Default)]
struct Run {
    /// Full blocks not yet released, each kept at its exact size; the
    /// first is the run's block `released`.
    closed: VecDeque<Box<[u8]>>,
    /// Full blocks given back by `release`, all at the run's front.
    released: usize,
    /// The block being filled: the run's last `len % BLOCK_ITEMS` items.
    open: Vec<u8>,
    len: usize,
    /// Items made durable by the last force.
    durable: usize,
    /// Encoding of the last item appended, the delta base for the next.
    last: Vec<u8>,
    /// Encoding of the item being appended.
    next: Vec<u8>,
}

impl Run {
    /// Append the item encoded in `next`, returning the bytes stored.
    fn push_next(&mut self) -> usize {
        let before = self.open.len();
        let shared = if self.len.is_multiple_of(BLOCK_ITEMS) {
            0
        } else {
            let shared = self.last.iter().zip(&self.next).take_while(|(a, b)| a == b);
            let shared = shared.count().min(u16::MAX as usize);
            push_u16(&mut self.open, shared);
            shared
        };
        push_u16(&mut self.open, self.next.len() - shared);
        self.open.extend_from_slice(&self.next[shared..]);
        std::mem::swap(&mut self.last, &mut self.next);
        self.len += 1;
        let stored = self.open.len() - before;
        if self.len.is_multiple_of(BLOCK_ITEMS) {
            self.closed.push_back(self.open.as_slice().into());
            self.open.clear();
        }
        stored
    }

    /// Items in the released blocks: nothing below it can be read.
    fn floor(&self) -> usize {
        self.released * BLOCK_ITEMS
    }

    /// Block `b`, which is not released.
    fn block(&self, b: usize) -> &[u8] {
        self.closed.get(b - self.released).map_or(&self.open, |c| c)
    }

    /// Decode `count` items starting at item `offset` (clamped); an
    /// offset in a released block is refused.
    fn read<T: SortItem>(&self, offset: usize, count: usize) -> Result<Vec<T>> {
        if offset < self.floor() {
            return Err(released());
        }
        let end = offset.saturating_add(count).min(self.len);
        let mut out = Vec::with_capacity(end.saturating_sub(offset));
        let mut cur = Vec::new();
        let mut pos = 0;
        for i in offset / BLOCK_ITEMS * BLOCK_ITEMS..end {
            let first = i.is_multiple_of(BLOCK_ITEMS);
            if first {
                pos = 0;
            }
            step(self.block(i / BLOCK_ITEMS), &mut pos, &mut cur, first)?;
            if i >= offset {
                out.push(decode(&cur).ok_or_else(corrupt)?);
            }
        }
        Ok(out)
    }

    /// Keep the first `len` items: the whole blocks below the cut stay
    /// as they are, and the block the cut lands in keeps the byte prefix
    /// that encodes its first `len % BLOCK_ITEMS` items. A cut in a
    /// released block is refused and changes nothing.
    fn truncate(&mut self, len: usize) -> Result<()> {
        if len < self.len {
            if len < self.floor() {
                return Err(released());
            }
            let b = len / BLOCK_ITEMS - self.released;
            if b < self.closed.len() {
                self.closed.truncate(b + 1);
                let cut = self.closed.pop_back().expect("the block the cut lands in");
                self.open.clear();
                self.open.extend_from_slice(&cut);
            }
            let mut pos = 0;
            self.last.clear();
            for i in 0..len % BLOCK_ITEMS {
                step(&self.open, &mut pos, &mut self.last, i == 0)?;
            }
            self.open.truncate(pos);
            self.len = len;
        }
        self.durable = self.durable.min(len);
        Ok(())
    }

    /// Drop the closed blocks that lie wholly below item `below`, up to
    /// the durable mark: a crash never cuts into a released block.
    fn release(&mut self, below: usize) {
        let upto = below.min(self.durable) / BLOCK_ITEMS;
        let n = upto.saturating_sub(self.released).min(self.closed.len());
        self.closed.drain(..n);
        self.released += n;
        // The block table shrinks with the run, a halving at a time.
        if self.closed.capacity() > 2 * self.closed.len() {
            self.closed.shrink_to_fit();
        }
        // A merge input is read, not written: its write buffers keep
        // only what they hold, and the encoding scratch goes.
        self.open.shrink_to_fit();
        self.last.shrink_to_fit();
        self.next = Vec::new();
    }

    /// Bytes the run holds: its closed blocks and their table, the open
    /// block and the two encoding buffers.
    fn held(&self) -> usize {
        self.closed.iter().map(|b| b.len()).sum::<usize>()
            + self.closed.capacity() * std::mem::size_of::<Box<[u8]>>()
            + self.open.capacity()
            + self.last.capacity()
            + self.next.capacity()
    }
}

/// Stable storage for the runs of one sort.
pub struct RunStore<T: SortItem> {
    runs: Mutex<HashMap<u64, Arc<Mutex<Run>>>>,
    next_id: Mutex<u64>,
    /// Bytes the appended items occupy uncompressed (full codec size),
    /// cumulative.
    pub raw_bytes: Counter,
    /// Bytes stored for appended items, cumulative.
    pub stored_bytes: Counter,
    items: PhantomData<fn() -> T>,
}

impl<T: SortItem> Default for RunStore<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: SortItem> RunStore<T> {
    /// Empty store.
    #[must_use]
    pub fn new() -> RunStore<T> {
        RunStore {
            runs: Mutex::new(HashMap::new()),
            next_id: Mutex::new(0),
            raw_bytes: Counter::new(),
            stored_bytes: Counter::new(),
            items: PhantomData,
        }
    }

    fn run(&self, run: u64) -> Result<Arc<Mutex<Run>>> {
        let runs = self.runs.lock();
        let r = runs
            .get(&run)
            .ok_or_else(|| Error::NotFound(format!("run {run}")))?;
        Ok(Arc::clone(r))
    }

    /// Create a new, empty run and return its id.
    pub fn create_run(&self) -> u64 {
        let mut id = self.next_id.lock();
        let run_id = *id;
        *id += 1;
        self.runs.lock().insert(run_id, Arc::default());
        run_id
    }

    /// Append items to a run (volatile). Each is encoded into the run's
    /// own buffers under the run's lock, not the store's.
    pub fn append(&self, run: u64, items: &[T]) -> Result<()> {
        let run = self.run(run)?;
        let mut r = run.lock();
        let (mut raw, mut stored) = (0, 0);
        for item in items {
            r.next.clear();
            item.put(&mut r.next);
            raw += r.next.len() as u64;
            stored += r.push_next() as u64;
        }
        drop(r);
        self.raw_bytes.add(raw);
        self.stored_bytes.add(stored);
        Ok(())
    }

    /// Force a run: its current length becomes durable.
    pub fn force_run(&self, run: u64) -> Result<()> {
        let run = self.run(run)?;
        let mut r = run.lock();
        r.durable = r.len;
        Ok(())
    }

    /// Current (volatile) length of a run.
    pub fn len(&self, run: u64) -> Result<u64> {
        Ok(self.run(run)?.lock().len as u64)
    }

    /// Read `count` items starting at `offset` (for merge cursors and
    /// verification).
    pub fn read(&self, run: u64, offset: u64, count: usize) -> Result<Vec<T>> {
        let offset = usize::try_from(offset).unwrap_or(usize::MAX);
        self.run(run)?.lock().read(offset, count)
    }

    /// Truncate a run to `len` items (restart repositioning, §5.1-5.2).
    /// The durable mark is clamped too. The byte counters stay
    /// cumulative: they count writes, not occupancy. `Corruption` if
    /// the cut lands in a released block.
    pub fn truncate(&self, run: u64, len: u64) -> Result<()> {
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        self.run(run)?.lock().truncate(len)
    }

    /// Free the whole blocks of a run that lie below item `below` and
    /// were forced. Call it only once no restart reads them: a merge
    /// input below its durable counter (§5.2). A later `read` or
    /// `truncate` that lands in a freed block is `Corruption`.
    pub fn release(&self, run: u64, below: u64) -> Result<()> {
        let below = usize::try_from(below).unwrap_or(usize::MAX);
        self.run(run)?.lock().release(below);
        Ok(())
    }

    /// Bytes the runs hold now: blocks, block tables and buffers.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        let runs = self.runs.lock();
        runs.values().map(|r| r.lock().held() as u64).sum()
    }

    /// Delete a run (post-merge cleanup, or discarding runs younger
    /// than the checkpoint).
    pub fn delete(&self, run: u64) {
        self.runs.lock().remove(&run);
    }

    /// Delete every run, once no restart can read them again. The
    /// cumulative counters stay.
    pub fn clear(&self) {
        self.runs.lock().clear();
    }

    /// All current run ids (unordered).
    #[must_use]
    pub fn run_ids(&self) -> Vec<u64> {
        self.runs.lock().keys().copied().collect()
    }

    /// Simulated crash: every run reverts to its forced prefix. Run
    /// *existence* survives (creation metadata rides along with the
    /// first force; empty unforced runs simply come back empty, and the
    /// restart logic deletes unknown ones).
    pub fn crash(&self) {
        for run in self.runs.lock().values() {
            let mut r = run.lock();
            let durable = r.durable;
            // The kept prefix was encoded by this store and holds every
            // released block: it decodes.
            r.truncate(durable).expect("a run's forced prefix decodes");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::entry;
    use mohan_common::{IndexEntry, KeyValue, Rid};
    use proptest::prelude::*;

    #[test]
    fn append_read_roundtrip() {
        let s: RunStore<i64> = RunStore::new();
        let r = s.create_run();
        s.append(r, &[1, 2, 3]).unwrap();
        assert_eq!(s.read(r, 1, 10).unwrap(), vec![2, 3]);
        assert_eq!(s.len(r).unwrap(), 3);
    }

    #[test]
    fn crash_reverts_to_forced_prefix() {
        let s: RunStore<i64> = RunStore::new();
        let r = s.create_run();
        s.append(r, &[1, 2]).unwrap();
        s.force_run(r).unwrap();
        s.append(r, &[3, 4]).unwrap();
        s.crash();
        assert_eq!(s.read(r, 0, 10).unwrap(), vec![1, 2]);
    }

    #[test]
    fn truncate_clamps_durable() {
        let s: RunStore<i64> = RunStore::new();
        let r = s.create_run();
        s.append(r, &[1, 2, 3]).unwrap();
        s.force_run(r).unwrap();
        s.truncate(r, 1).unwrap();
        s.append(r, &[9]).unwrap();
        s.crash(); // durable was clamped to 1, the 9 was never forced
        assert_eq!(s.read(r, 0, 10).unwrap(), vec![1]);
    }

    #[test]
    fn ids_are_unique_and_delete_works() {
        let s: RunStore<i64> = RunStore::new();
        let a = s.create_run();
        let b = s.create_run();
        assert_ne!(a, b);
        s.delete(a);
        assert!(s.read(a, 0, 1).is_err());
        assert!(s.read(b, 0, 1).is_ok());
        s.clear();
        assert!(s.run_ids().is_empty());
    }

    #[test]
    fn counters_track_volume() {
        let s: RunStore<i64> = RunStore::new();
        let r = s.create_run();
        s.append(r, &[1, 2, 3]).unwrap();
        s.force_run(r).unwrap();
        s.append(r, &[4]).unwrap();
        s.force_run(r).unwrap();
        assert_eq!(s.len(r).unwrap(), 4);
        assert_eq!(s.raw_bytes.get(), 32); // four 8-byte encodings
                                           // 2 + 8 for the block's first item; 2 + 2 + 1 for each other:
                                           // consecutive small integers differ in their last byte only.
        assert_eq!(s.stored_bytes.get(), 10 + 3 * 5);
        s.append(r, &[5]).unwrap();
        s.crash();
        assert_eq!(s.len(r).unwrap(), 4, "both forces survive the crash");
    }

    #[test]
    fn runs_shrink_sorted_entries() {
        let s: RunStore<IndexEntry> = RunStore::new();
        // Sorted entries with a long shared key prefix — the bulk-build
        // case the block format exists for.
        let items: Vec<IndexEntry> = (0..1000).map(|i| entry(5_000_000 + i, 1, 0)).collect();
        let r = s.create_run();
        s.append(r, &items).unwrap();
        assert_eq!(s.read(r, 0, usize::MAX).unwrap(), items);
        assert!(
            s.stored_bytes.get() < s.raw_bytes.get() * 3 / 4,
            "sorted entries should shrink: {} of {}",
            s.stored_bytes.get(),
            s.raw_bytes.get()
        );
    }

    #[test]
    fn truncate_keeps_whole_blocks_below_the_cut() {
        let s: RunStore<IndexEntry> = RunStore::new();
        let items: Vec<IndexEntry> = (0..100).map(|i| entry(i, i as u32, 0)).collect();
        let r = s.create_run();
        s.append(r, &items).unwrap();
        let blocks_before: Vec<Box<[u8]>> = s
            .run(r)
            .unwrap()
            .lock()
            .closed
            .range(..2)
            .cloned()
            .collect();
        // Mid-block cut in the third block: the two below are untouched.
        s.truncate(r, 37).unwrap();
        {
            let run = s.run(r).unwrap();
            let run = run.lock();
            assert!(run.closed.iter().eq(&blocks_before));
            assert_eq!(run.len, 37);
        }
        s.append(r, &items[37..50]).unwrap();
        assert_eq!(s.read(r, 0, usize::MAX).unwrap(), items[..50].to_vec());
        // On a block boundary, and back to nothing.
        s.truncate(r, 32).unwrap();
        assert_eq!(s.read(r, 0, usize::MAX).unwrap(), items[..32].to_vec());
        s.truncate(r, 0).unwrap();
        s.append(r, &items[..3]).unwrap();
        assert_eq!(s.read(r, 0, usize::MAX).unwrap(), items[..3].to_vec());
    }

    #[derive(Debug, Clone)]
    enum Op {
        Append(Vec<IndexEntry>),
        Force,
        Truncate(usize),
        Crash,
        Read(usize, usize),
        Release(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        // Keys over a three-letter alphabet: neighbours share prefixes
        // of every length, the empty one included.
        let item = (
            prop::collection::vec(0u8..3, 0..24),
            any::<u32>(),
            any::<u16>(),
        )
            .prop_map(|(k, page, slot)| IndexEntry::new(KeyValue(k), Rid::new(page, slot)));
        prop_oneof![
            4 => prop::collection::vec(item, 0..40).prop_map(Op::Append),
            1 => Just(Op::Force),
            1 => (0usize..200).prop_map(Op::Truncate),
            1 => Just(Op::Crash),
            2 => (0usize..220, 0usize..50).prop_map(|(o, c)| Op::Read(o, c)),
            1 => (0usize..220).prop_map(Op::Release),
        ]
    }

    proptest! {
        /// Appends in random chunks, forces, truncates, crashes,
        /// releases and reads from any offset match a `Vec`, its forced
        /// length and its released floor: the whole blocks below the
        /// smaller of the release mark and the forced length. A read or
        /// cut below the floor is refused.
        #[test]
        fn run_matches_a_vec_model(ops in prop::collection::vec(op(), 1..60)) {
            let s: RunStore<IndexEntry> = RunStore::new();
            let r = s.create_run();
            let (mut model, mut durable): (Vec<IndexEntry>, usize) = (Vec::new(), 0);
            let mut floor = 0;
            for op in ops {
                match op {
                    Op::Append(items) => {
                        s.append(r, &items).unwrap();
                        model.extend(items);
                    }
                    Op::Force => {
                        s.force_run(r).unwrap();
                        durable = model.len();
                    }
                    Op::Truncate(len) if len < floor => {
                        prop_assert!(s.truncate(r, len as u64).is_err());
                    }
                    Op::Truncate(len) => {
                        s.truncate(r, len as u64).unwrap();
                        model.truncate(len);
                        durable = durable.min(len);
                    }
                    Op::Crash => {
                        s.crash();
                        model.truncate(durable);
                    }
                    Op::Read(offset, count) if offset < floor => {
                        prop_assert!(s.read(r, offset as u64, count).is_err());
                    }
                    Op::Read(offset, count) => {
                        let start = offset.min(model.len());
                        let end = (offset + count).clamp(start, model.len());
                        let got = s.read(r, offset as u64, count).unwrap();
                        prop_assert_eq!(got, model[start..end].to_vec());
                    }
                    Op::Release(below) => {
                        let held = s.resident_bytes();
                        s.release(r, below as u64).unwrap();
                        floor = floor.max(below.min(durable) / 16 * 16);
                        prop_assert!(s.resident_bytes() <= held);
                    }
                }
                prop_assert_eq!(s.len(r).unwrap(), model.len() as u64);
                let kept = s.read(r, floor as u64, usize::MAX).unwrap();
                prop_assert_eq!(kept, model[floor..].to_vec());
            }
            s.delete(r);
            prop_assert_eq!(s.resident_bytes(), 0);
        }
    }
}
