//! Golden bytes for every blob the engine persists or ships outside a
//! wire message: sort, merge and bulk-load checkpoints, build progress,
//! heap rows, index definitions, catalog entries and the catalog blob,
//! index pages, log records and build options.
//!
//! `golden_blobs.txt` was recorded from the build before these types
//! were declared on `mohan_common::codec`, one `label hex` line per
//! sample. A line that changes here is a format change — a durable
//! image or a shipped log written before it would not read back after
//! it — so it needs a reason, not a regenerated file. The six `node`
//! lines were re-recorded once, when index pages became slotted byte
//! buffers (DESIGN.md §17), and the tag-0 progress line went with its
//! decode (§16); every other line is the original. The last two lines,
//! a cancelled catalog entry (state tag 3) and a catalog that holds
//! one, were added with that state.

mod blobs;

use blobs::{samples, Blob, Sink};
use mohan_btree::{BulkCheckpoint, Kind, Node};
use mohan_common::codec::{decode, encode};
use mohan_common::IndexEntry;
use mohan_oib::progress::BuildProgress;
use mohan_oib::runtime::{CatalogEntry, IndexState};
use mohan_oib::schema::BuildAlgorithm;
use mohan_sort::{MergePassCheckpoint, SortCheckpoint};
use mohan_wal::{decode_records, LogPayload, LogRecord, RecKind};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The golden lines, built as they are checked: every sample must also
/// decode back to itself.
struct Lines(Vec<String>);

impl Sink for Lines {
    fn add<T: Blob>(&mut self, label: &str, value: &T) {
        let bytes = encode(value);
        assert_eq!(decode::<T>(&bytes).as_ref(), Some(value), "{label} sample");
        self.0.push(format!("{label} {}", hex(&bytes)));
    }
}

/// Every blob type; each must have at least one line.
const LABELS: [&str; 12] = [
    "sort",
    "merge",
    "merge_pass",
    "bulk",
    "progress",
    "record",
    "index_def",
    "catalog_entry",
    "catalog",
    "node",
    "log",
    "options",
];

const GOLDEN: &str = include_str!("golden_blobs.txt");

/// The bytes of every golden line labelled `label`.
fn golden(label: &str) -> Vec<Vec<u8>> {
    GOLDEN
        .lines()
        .filter_map(|l| l.strip_prefix(label)?.strip_prefix(' '))
        .map(|h| {
            (0..h.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&h[i..i + 2], 16).unwrap())
                .collect()
        })
        .collect()
}

/// Decode every golden line labelled `label` as a `T`.
fn golden_values<T: Blob>(label: &str) -> Vec<T> {
    golden(label).iter().filter_map(|b| decode(b)).collect()
}

/// Does `found` name every entry of `all`?
fn covers(found: Vec<&str>, all: &[&str]) -> bool {
    all.iter().all(|n| found.contains(n))
}

/// Does `f` hold for some values and fail for others?
fn both_ways<T>(values: &[T], f: impl Fn(&T) -> bool) -> bool {
    values.iter().any(&f) && !values.iter().all(&f)
}

#[test]
fn golden_blobs() {
    let mut lines = Lines(Vec::new());
    samples(&mut lines);
    let want: Vec<&str> = GOLDEN.lines().collect();
    for (i, (got, want)) in lines.0.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "golden_blobs.txt line {}", i + 1);
    }
    assert_eq!(lines.0.len(), want.len(), "sample count vs golden lines");
}

/// Read back from the file itself: every blob type has a line, every
/// row of every table and both states of every optional field appear.
#[test]
fn every_blob_type_and_variant_has_a_golden_line() {
    for label in LABELS {
        assert!(!golden(label).is_empty(), "no {label} sample");
    }
    let progress: Vec<BuildProgress> = golden("progress")
        .iter()
        .map(|b| BuildProgress::decode(b).unwrap())
        .collect();
    assert!(covers(
        progress.iter().map(BuildProgress::name).collect(),
        BuildProgress::NAMES
    ));
    let nodes: Vec<Node> = golden_values("node");
    assert!([Kind::Anchor, Kind::Internal, Kind::Leaf]
        .iter()
        .all(|k| nodes.iter().any(|n| n.kind() == *k)));
    let leaves: Vec<(bool, bool)> = nodes
        .iter()
        .filter(|n| n.is_leaf())
        .map(|n| (n.next().is_some(), n.high_fence().is_some()))
        .collect();
    assert!(both_ways(&leaves, |l| l.0) && both_ways(&leaves, |l| l.1));
    let log: Vec<LogRecord> = golden("log")
        .iter()
        .map(|b| decode_records(b, 1).unwrap().remove(0))
        .collect();
    assert_eq!(log.len(), LogPayload::NAMES.len());
    assert!(covers(
        log.iter().map(|r| r.payload.name()).collect(),
        LogPayload::NAMES
    ));
    assert!(covers(
        log.iter().map(|r| r.kind.name()).collect(),
        RecKind::NAMES
    ));
    let entries: Vec<CatalogEntry> = golden_values("catalog_entry");
    assert!(covers(
        entries.iter().map(|e| e.state.name()).collect(),
        IndexState::NAMES
    ));
    assert!(covers(
        entries.iter().map(|e| e.algorithm.name()).collect(),
        BuildAlgorithm::NAMES
    ));
    let sorts: Vec<SortCheckpoint<IndexEntry>> = golden_values("sort");
    assert!(both_ways(&sorts, |s| s.last_run_high.is_some()));
    let passes: Vec<MergePassCheckpoint> = golden_values("merge_pass");
    assert!(both_ways(&passes, |p| p.inflight.is_some()));
    let bulks: Vec<BulkCheckpoint> = golden_values("bulk");
    assert!(both_ways(&bulks, |b| b.highest.is_some()));
}
