//! Hostile bytes against every decoder of a persisted or shipped blob.
//!
//! Each sample of `blobs::samples` — and a standalone partition
//! checkpoint and sort items besides — is attacked four ways: cut at
//! every length, every byte XORed with 0x01, 0x80 and 0xFF, every 4-
//! and 8-byte window set to all-ones, and junk appended. Three things
//! must hold: no decoder panics, no decode reserves more than a list of
//! max(input length, `RESERVE_CAP`) of the largest element any of these
//! decoders builds, and trailing bytes are refused. Whatever decodes
//! must re-encode to bytes that decode to the same encoding again.
//!
//! The named `probe_*` cases are inputs that took the decoders down
//! before they were declared on the shared codec: a forged all-ones
//! count made them panic with `capacity overflow` or try to allocate
//! tens of gigabytes, and a bad catalog entry length panicked restart.
//! The `probe_heap_page_*` cases are heap page images the page decoder
//! accepted before it checked its directory, and whose readers then
//! indexed past the page.

mod blobs;

use blobs::{samples, Blob, Sink};
use mohan_btree::{Kind, Node};
use mohan_common::codec::{decode, encode, RESERVE_CAP};
use mohan_common::{
    EngineConfig, Error, IndexEntry, KeyValue, Lsn, PageId, Rid, SlotId, TableId, TxId,
};
use mohan_oib::build::{build_index, IndexSpec};
use mohan_oib::progress::{BuildProgress, PartCheckpoint};
use mohan_oib::runtime::{Catalog, CatalogEntry, IndexState};
use mohan_oib::schema::{BuildAlgorithm, Record};
use mohan_oib::Db;
use mohan_sort::{MergeCheckpoint, RunMeta, SortCheckpoint};
use mohan_storage::{PagePayload, SlottedPage};
use mohan_wal::{
    decode_record, decode_records, LogPayload, LogRecord, RecKind, RecordHeader, RecoveryTarget,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

// ---- an allocator that watches what a decode reserves ------------------

/// Passes every request to the system allocator, noting the largest
/// one made on this thread. A request over [`REFUSED`] fails instead:
/// a decoder that believes a forged count aborts the test binary
/// ("memory allocation of N bytes failed") rather than the host.
struct Watch;

/// No decode here legitimately asks for this much.
const REFUSED: usize = 1 << 30;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) -> bool {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    size <= REFUSED
}

// SAFETY: every call is forwarded unchanged to `System`, except the
// refusals, which return null as the `GlobalAlloc` contract allows.
unsafe impl GlobalAlloc for Watch {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if note(layout.size()) {
            System.alloc(layout)
        } else {
            std::ptr::null_mut()
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if note(new_size) {
            System.realloc(ptr, layout, new_size)
        } else {
            std::ptr::null_mut()
        }
    }
}

#[global_allocator]
static WATCH: Watch = Watch;

/// Largest element of any list these decoders build.
fn largest_element() -> usize {
    [
        std::mem::size_of::<LogRecord>(),
        std::mem::size_of::<CatalogEntry>(),
        std::mem::size_of::<PartCheckpoint>(),
        std::mem::size_of::<IndexEntry>(),
        std::mem::size_of::<RunMeta>(),
    ]
    .into_iter()
    .max()
    .unwrap()
}

/// Run `f`, asserting no single allocation it made exceeded a list of
/// max(`len`, [`RESERVE_CAP`]) of the largest element.
fn bounded<R>(what: &str, len: usize, f: impl FnOnce() -> R) -> R {
    LARGEST.with(|l| l.set(0));
    let out = f();
    let largest = LARGEST.with(Cell::get);
    let bound = len.max(RESERVE_CAP) * largest_element();
    assert!(
        largest <= bound,
        "{what}: reserved {largest} bytes for {len} input bytes"
    );
    out
}

// ---- the four attacks ---------------------------------------------------

/// A blob type's top-level decoder: the re-encoding of what `bytes`
/// decoded to, or `None`.
type Decoder = fn(&[u8]) -> Option<Vec<u8>>;

fn codec<T: Blob>(bytes: &[u8]) -> Option<Vec<u8>> {
    decode::<T>(bytes).map(|v| encode(&v))
}

fn progress(bytes: &[u8]) -> Option<Vec<u8>> {
    BuildProgress::decode(bytes).map(|p| p.encode())
}

/// The log's decoders: one record from a stream (which may leave bytes
/// behind), its header alone, and the strict batch form, which is the
/// top-level one.
fn log(bytes: &[u8]) -> Option<Vec<u8>> {
    let mut pos = 0;
    if let Some(rec) = decode_record(bytes, &mut pos) {
        assert!(pos <= bytes.len());
        let head = RecordHeader::parse(bytes).expect("a record has a header");
        assert_eq!(
            (head.lsn, head.tx, head.prev, head.kind),
            (rec.lsn, rec.tx, rec.prev, rec.kind)
        );
    }
    decode_records(bytes, 1).map(|recs| encode(&recs[0]))
}

struct Case {
    label: String,
    bytes: Vec<u8>,
    decoder: Decoder,
}

#[derive(Default)]
struct Cases(Vec<Case>);

impl Sink for Cases {
    fn add<T: Blob>(&mut self, label: &str, value: &T) {
        let decoder = match label {
            "progress" => progress,
            "log" => log,
            _ => codec::<T>,
        };
        self.0.push(Case {
            label: label.into(),
            bytes: encode(value),
            decoder,
        });
    }
}

/// Decode `bytes` under the reserve bound; whatever decodes must
/// re-encode canonically.
fn attempt(case: &Case, what: &str, bytes: &[u8]) -> Option<Vec<u8>> {
    let what = format!("{} {what}", case.label);
    let back = bounded(&what, bytes.len(), || (case.decoder)(bytes))?;
    let again = bounded(&what, back.len(), || (case.decoder)(&back));
    assert_eq!(
        again.as_ref(),
        Some(&back),
        "{what}: re-encoding is not canonical"
    );
    Some(back)
}

fn attack(case: &Case) {
    let good = &case.bytes;
    assert!(
        attempt(case, "as written", good).is_some(),
        "{} sample",
        case.label
    );
    for cut in 0..good.len() {
        let got = attempt(case, &format!("cut at {cut}"), &good[..cut]);
        assert!(
            got.is_none(),
            "{}: a strict prefix ({cut}) decoded",
            case.label
        );
    }
    for i in 0..good.len() {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut bad = good.clone();
            bad[i] ^= flip;
            attempt(case, &format!("byte {i} ^ {flip:#x}"), &bad);
        }
    }
    for width in [4, 8] {
        for i in 0..good.len().saturating_sub(width - 1) {
            let mut bad = good.clone();
            bad[i..i + width].fill(0xFF);
            attempt(case, &format!("all-ones at {i}..{}", i + width), &bad);
        }
    }
    for junk in [&[0u8][..], &[0xEE; 7], good] {
        let mut long = good.clone();
        long.extend_from_slice(junk);
        let got = attempt(case, &format!("{} junk bytes", junk.len()), &long);
        assert!(got.is_none(), "{}: trailing bytes accepted", case.label);
    }
}

#[test]
fn every_decoder_survives_hostile_bytes() {
    let mut cases = Cases::default();
    samples(&mut cases);
    let sort = SortCheckpoint::<IndexEntry> {
        runs: vec![RunMeta { id: 3, len: 5 }],
        scan_pos: 41,
        last_run_high: Some(blobs::entry(5, 1, 1)),
    };
    cases.add("part", &PartCheckpoint { lo: 2, hi: 9, sort });
    cases.add("sort_item", &blobs::entry(-7, 3, 4));
    cases.add("sort_item", &IndexEntry::new(KeyValue::empty(), Rid::MAX));
    cases.add("sort_item", &i64::MIN);
    assert!(cases.0.len() > 60);
    for case in &cases.0 {
        attack(case);
    }
}

// ---- the inputs that took the decoders down -----------------------------

/// `bytes` is refused by `decoder`, within the reserve bound.
fn refused(what: &str, decoder: Decoder, bytes: &[u8]) {
    assert_eq!(
        bounded(what, bytes.len(), || decoder(bytes)),
        None,
        "{what}"
    );
}

const ONES: [u8; 8] = [0xFF; 8];

fn tagged(tag: u8, rest: &[u8]) -> Vec<u8> {
    let mut out = vec![tag];
    out.extend_from_slice(rest);
    out
}

/// Tag 0, once the serial scan's record of a bare sort checkpoint
/// (here one claiming 2^64 - 1 runs), is no progress tag.
#[test]
fn probe_progress_tag0_run_count() {
    refused("progress tag 0", progress, &tagged(0, &ONES));
}

/// Tag 1's merge pass claiming 2^64 - 1 remaining runs.
#[test]
fn probe_progress_tag1_remaining_count() {
    refused("progress tag 1", progress, &tagged(1, &ONES));
}

#[test]
fn probe_sort_checkpoint_run_count() {
    refused("sort", codec::<SortCheckpoint<IndexEntry>>, &ONES);
}

#[test]
fn probe_merge_checkpoint_input_count() {
    refused("merge", codec::<MergeCheckpoint>, &ONES);
}

#[test]
fn probe_merge_pass_checkpoint_remaining_count() {
    refused(
        "merge_pass",
        codec::<mohan_sort::MergePassCheckpoint>,
        &ONES,
    );
}

/// A bulk checkpoint whose right path claims 2^32 - 1 pages.
#[test]
fn probe_bulk_checkpoint_right_path_count() {
    let mut bytes = vec![0u8; 1 + 8 + 4 + 4 + 4];
    bytes.extend_from_slice(&ONES[..4]);
    refused("bulk", codec::<mohan_btree::BulkCheckpoint>, &bytes);
}

/// An empty leaf whose directory claims 2^16 - 1 entries.
#[test]
fn probe_leaf_node_entry_count() {
    let mut page = encode(&Node::leaf(blobs::PAGE));
    page[3..5].fill(0xFF);
    refused("leaf", codec::<Node>, &page);
}

/// An internal page whose length field claims 2^16 - 1 bytes.
#[test]
fn probe_internal_node_length() {
    let mut page = encode(&Node::internal(blobs::PAGE, PageId(1)));
    page[1..3].fill(0xFF);
    refused("internal", codec::<Node>, &page);
}

// ---- index pages: refused, or safe to read --------------------------------

/// Read everything a page of its kind serves.
fn read_all(page: &Node) {
    let probe = blobs::entry(3, 1, 1);
    let _ = (page.size(), page.free(), page.page_size());
    match page.kind() {
        Kind::Anchor => {
            let _ = (page.root(), page.height());
        }
        Kind::Internal => {
            let _: Vec<_> = page.entries().map(|e| e.to_entry()).collect();
            let _: Vec<_> = (0..=page.count()).map(|i| page.child(i)).collect();
            let _ = (
                page.route(&probe),
                page.down(&probe),
                page.child_pos(PageId(3)),
            );
        }
        Kind::Leaf => {
            let _: Vec<_> = page.entries().map(|e| (e.to_entry(), e.pseudo)).collect();
            let _ = (page.next(), page.high_fence().map(|f| f.to_entry()));
            let _ = (page.search(&probe), page.lower_bound(&probe.key));
        }
    }
}

/// Every index-page sample cut, flipped and all-ones-windowed: each
/// result is refused or yields a page every accessor of its kind reads
/// without panicking. The bytes go through the cache's read-back,
/// which adopts a buffer the cache already holds: neither it nor a
/// refusal reserves more than the page.
#[test]
fn index_pages_under_attack_are_refused_or_safe_to_read() {
    let mut cases = Cases::default();
    samples(&mut cases);
    let pages: Vec<Vec<u8>> = cases
        .0
        .into_iter()
        .filter(|c| c.label == "node")
        .map(|c| c.bytes)
        .collect();
    assert_eq!(pages.len(), 6);
    let mut decoded = 0;
    for good in &pages {
        let mut inputs: Vec<Vec<u8>> = (0..good.len()).map(|cut| good[..cut].to_vec()).collect();
        for i in 0..good.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = good.clone();
                bad[i] ^= flip;
                inputs.push(bad);
            }
        }
        for width in [2, 4] {
            for i in 0..=good.len() - width {
                let mut bad = good.clone();
                bad[i..i + width].fill(0xFF);
                inputs.push(bad);
            }
        }
        for bytes in inputs {
            let image: Arc<[u8]> = bytes.as_slice().into();
            LARGEST.with(|l| l.set(0));
            let page = Node::from_image(image);
            let reserved = LARGEST.with(Cell::get);
            assert!(
                reserved <= bytes.len(),
                "reserved {reserved} for {} bytes",
                bytes.len()
            );
            if let Ok(page) = page {
                assert_eq!(*page.image(), *bytes);
                read_all(&page);
                decoded += 1;
            }
        }
    }
    // Flips in free space, RIDs and keys leave valid pages: the check
    // reads some.
    assert!(decoded > 0);
}

// ---- heap pages: refused, or safe to read and change ----------------------

/// Read everything a heap page serves, then change it every way.
fn use_heap_page(mut page: SlottedPage) {
    let slots = page.slots();
    for s in 0..=slots {
        let _ = (page.get(SlotId(s)), page.is_reserved(SlotId(s)));
    }
    let live: Vec<SlotId> = page.records().map(|(slot, _)| slot).collect();
    let _ = (page.live_records(), page.reserved_slots());
    let _ = (page.total_free(), page.contiguous_free());
    for n in [0, 1, 18, 200] {
        let _ = page.fits(n);
    }
    if let Some(&slot) = live.first() {
        let _ = page.update(slot, &[7; 30]);
        let _ = page.delete(slot);
    }
    page.compact();
    let _ = page.insert(&[8; 9]);
    let _ = page.insert_at(SlotId(slots + 2), &[9; 3]);
    page.sweep();
}

fn encode_heap(page: &SlottedPage) -> Vec<u8> {
    page.image().to_vec()
}

/// Is `bytes` refused as a heap page? A page it reads back as is used.
fn heap_page_refused(bytes: &[u8]) -> bool {
    match SlottedPage::from_image(bytes.into()) {
        Ok(page) => {
            assert_eq!(encode_heap(&page), bytes);
            use_heap_page(page);
            false
        }
        Err(e) => {
            assert!(matches!(e, Error::Corruption(_)), "{e}");
            true
        }
    }
}

/// Every heap-page sample cut, flipped and all-ones-windowed: each
/// result is refused, or yields a page that reads, inserts, updates,
/// deletes and compacts without panicking.
#[test]
fn heap_pages_under_attack_are_refused_or_safe_to_read() {
    let pages: Vec<Vec<u8>> = blobs::heap_pages().iter().map(encode_heap).collect();
    let mut decoded = 0;
    for good in &pages {
        assert!(!heap_page_refused(good));
        let mut inputs: Vec<Vec<u8>> = (0..good.len()).map(|cut| good[..cut].to_vec()).collect();
        for i in 0..good.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = good.clone();
                bad[i] ^= flip;
                inputs.push(bad);
            }
        }
        for width in [2, 4] {
            for i in 0..=good.len() - width {
                let mut bad = good.clone();
                bad[i..i + width].fill(0xFF);
                inputs.push(bad);
            }
        }
        decoded += inputs.iter().filter(|b| !heap_page_refused(b)).count();
    }
    // Flips in record bytes and free space leave valid pages.
    assert!(decoded > 0);
}

/// A 64-byte image whose directory claims 2^16 - 1 slots: `records`
/// used to read entries before the start of the page.
#[test]
fn probe_heap_page_slot_count_past_the_page() {
    let mut page = encode_heap(&SlottedPage::new(64));
    page[0..2].fill(0xFF);
    assert!(heap_page_refused(&page));
}

/// An image whose slot 0 claims 200 record bytes at offset 60 of 64:
/// `get` used to slice past the end of the page.
#[test]
fn probe_heap_page_record_past_free_start() {
    let mut page = encode_heap(&SlottedPage::new(64));
    page[0..2].copy_from_slice(&1u16.to_be_bytes());
    page[60..64].copy_from_slice(&[0, 60, 0, 200]);
    assert!(heap_page_refused(&page));
}

// ---- the catalog: one decoder, three defects ----------------------------

const T: TableId = TableId(1);

/// An engine with one completed index and its catalog blob.
fn db_with_an_index() -> (Arc<Db>, Vec<u8>) {
    let db = Db::new(EngineConfig::small());
    db.create_table(T);
    let tx = db.begin();
    for k in 0..20 {
        db.insert_record(tx, T, &Record::new(vec![k, k])).unwrap();
    }
    db.commit(tx).unwrap();
    let spec = IndexSpec {
        name: "ix".into(),
        key_cols: vec![0],
        unique: false,
    };
    build_index(&db, T, spec, BuildAlgorithm::Offline).unwrap();
    let catalog = db.blobs.get("catalog").expect("catalog persisted");
    (db, catalog)
}

fn restart_with_catalog(db: &Db, catalog: Vec<u8>) -> mohan_common::Result<()> {
    db.blobs.put("catalog", catalog);
    db.simulate_crash();
    db.restart().map(drop)
}

/// (a) An entry length past the end of the blob: restart used to slice
/// out of bounds and panic.
#[test]
fn probe_catalog_entry_length_past_the_end() {
    let (db, _) = db_with_an_index();
    let blob = [0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0];
    let err = restart_with_catalog(&db, blob.to_vec()).unwrap_err();
    assert!(matches!(err, Error::Corruption(_)), "{err}");
}

/// (b) An unknown state byte used to read as `Complete`, making a
/// half-built index readable.
#[test]
fn unknown_catalog_state_byte_is_corruption() {
    let (db, mut catalog) = db_with_an_index();
    let index = db.indexes_of(T).pop().expect("one index");
    // [u32 n][u32 len][def][algorithm][state] ...
    let state_at = 4 + 4 + encode(&index.def).len() + 1;
    assert_eq!(catalog[state_at], IndexState::Complete.tag());
    catalog[state_at] = 7;
    let err = restart_with_catalog(&db, catalog).unwrap_err();
    assert!(matches!(err, Error::Corruption(_)), "{err}");
}

/// (b') State tag 3 is `Cancelled`: restart reads it, undoes, and then
/// removes the descriptor, so the index is gone rather than readable.
/// Tag 4, one past the last state, is still corruption.
#[test]
fn cancelled_catalog_state_byte_is_removed_at_restart() {
    let (db, mut catalog) = db_with_an_index();
    let index = db.indexes_of(T).pop().expect("one index");
    let state_at = 4 + 4 + encode(&index.def).len() + 1;
    let mut past_the_last = catalog.clone();
    past_the_last[state_at] = 4;
    let err = restart_with_catalog(&db, past_the_last).unwrap_err();
    assert!(matches!(err, Error::Corruption(_)), "{err}");

    let (db, _) = db_with_an_index();
    catalog[state_at] = IndexState::Cancelled.tag();
    assert_eq!(IndexState::Cancelled.tag(), 3);
    restart_with_catalog(&db, catalog).unwrap();
    assert!(db.index(index.def.id).is_err());
    assert!(db.indexes_of(T).is_empty());
    let Catalog(left) = Catalog::decode(&db.blobs.get("catalog").unwrap()).unwrap();
    assert!(left.is_empty(), "{left:?}");
}

/// (c) A shipped catalog snapshot claiming 2^32 - 1 entries used to
/// reserve them all before reading one.
#[test]
fn forged_catalog_update_count_is_corruption() {
    let replica = Db::new(EngineConfig::small());
    replica.set_replica(true);
    let rec = LogRecord {
        lsn: Lsn(1),
        tx: TxId(0),
        prev: Lsn::NULL,
        kind: RecKind::RedoOnly,
        payload: LogPayload::CatalogUpdate {
            bytes: ONES[..4].to_vec(),
        },
    };
    let err = bounded("catalog update", 4, || replica.redo(&rec)).unwrap_err();
    assert!(matches!(err, Error::Corruption(_)), "{err}");
}
