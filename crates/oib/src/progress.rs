//! Durable build-progress records.
//!
//! Each in-flight index build keeps one progress record in the stable
//! blob area, stored as each phase starts and at every checkpoint. It
//! is the build's state: it names the phase the build runs and carries
//! that phase's own checkpoint (§5 sort/merge checkpoints, §2.2.3 NSF
//! insert position, §3.2.4 SF bulk-load checkpoint, §3.2.5 drain
//! position), so [`crate::build::resume_build`] goes on from it.

use crate::build::BuildOptions;
use crate::engine::Db;
use mohan_btree::BulkCheckpoint;
use mohan_common::codec::{decode, encode, framed};
use mohan_common::config::MAX_BUILD_WORKERS;
use mohan_common::{wire_enum, wire_struct, Error, IndexEntry, IndexId, Result};
use mohan_sort::{MergeCheckpoint, MergePassCheckpoint, SortCheckpoint};
use mohan_wire::message::BuildPhase;

/// One scan partition's restart point in a parallel build: the page
/// range the worker owns plus its own §5.1 sort checkpoint. Each
/// worker's checkpoint is a valid serial restart point for its range;
/// together they are the build's scan-phase progress.
#[derive(Debug, Clone, PartialEq)]
pub struct PartCheckpoint {
    /// First page of the partition (inclusive).
    pub lo: u32,
    /// Last page of the partition (inclusive).
    pub hi: u32,
    /// The worker's sort-phase checkpoint.
    pub sort: SortCheckpoint<IndexEntry>,
}

wire_struct! { PartCheckpoint { lo, hi, sort as framed } }

wire_enum! {
    /// Where a build stands: the phase it runs and that phase's own
    /// checkpoint. The build driver runs from it, so an interrupted
    /// build resumes from it; stored as the table's encoding.
    #[derive(Debug, Clone, PartialEq)]
    pub enum BuildProgress {
        /// Scanning data pages and forming sorted runs (§5.1): one
        /// checkpoint per scan partition (a serial build has one
        /// partition), restarted per-partition.
        ScanningParallel = 5 {
            /// Per-worker partition checkpoints, in partition order.
            parts: Vec<PartCheckpoint>,
        },
        /// Reducing runs below the merge fan-in (§5.2).
        Reducing = 1 {
            /// Run-reduction checkpoint.
            pass: MergePassCheckpoint,
        },
        /// SF: bottom-up bulk load fed by the pipelined final merge
        /// (§3.2.4).
        Loading = 2 {
            /// Final-merge position.
            merge: MergeCheckpoint as framed,
            /// Tree loader checkpoint.
            bulk: BulkCheckpoint,
        },
        /// NSF: inserting sorted keys into the shared tree (§2.2.3).
        Inserting = 3 {
            /// Final-merge position.
            merge: MergeCheckpoint as framed,
            /// Keys handed to the index manager so far.
            inserted: u64,
        },
        /// SF: draining the side-file (§3.2.5).
        Draining = 4 {
            /// LSN through which the drain has read the log and
            /// applied its side-file entries (0 before the first pass).
            pos: u64,
        },
    }
}

impl BuildProgress {
    /// Serialize.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        encode(self)
    }

    /// The phase this record stands for, as a progress frame names it,
    /// and how far into it the build is: the scan partitions' combined
    /// position (packed RIDs), keys merged or inserted, or the log
    /// position the drain has read through (0 while reducing). Only
    /// the merge and insert figures count keys.
    #[must_use]
    pub fn phase(&self) -> (BuildPhase, u64) {
        match self {
            BuildProgress::ScanningParallel { parts } => (
                BuildPhase::Scanning,
                parts.iter().map(|p| p.sort.scan_pos).sum(),
            ),
            BuildProgress::Reducing { .. } => (BuildPhase::Reducing, 0),
            BuildProgress::Loading { merge, .. } => (BuildPhase::Loading, merge.emitted),
            BuildProgress::Inserting { inserted, .. } => (BuildPhase::Inserting, *inserted),
            BuildProgress::Draining { pos } => (BuildPhase::Draining, *pos),
        }
    }

    /// Deserialize exactly one record; `None` means malformed.
    #[must_use]
    pub fn decode(buf: &[u8]) -> Option<BuildProgress> {
        decode(buf)
    }
}

fn key(id: IndexId) -> String {
    format!("build/{}/progress", id.0)
}

fn options_key(id: IndexId) -> String {
    format!("build/{}/options", id.0)
}

/// Durably record build progress. [`Error::BuildCancelled`], and
/// nothing stored, if the index was cancelled or dropped.
pub fn store(db: &Db, id: IndexId, progress: &BuildProgress) -> Result<()> {
    put_live(db, id, &key(id), progress.encode())
}

/// Store a build record of index `id`, then check that the index is
/// still live; if it is not, take the record back. A cancel marks the
/// index first and clears its records second, and the blob store's
/// mutex orders that clear against this put: either the clear comes
/// later and removes the record, or this check sees the mark. No
/// record outlives its index either way.
fn put_live(db: &Db, id: IndexId, key: &str, bytes: Vec<u8>) -> Result<()> {
    db.blobs.put(key, bytes);
    if db.index(id).is_err() {
        db.blobs.remove(key);
        return Err(Error::BuildCancelled);
    }
    Ok(())
}

/// Load build progress, if any.
pub fn load(db: &Db, id: IndexId) -> Result<Option<BuildProgress>> {
    match db.blobs.get(&key(id)) {
        None => Ok(None),
        Some(bytes) => BuildProgress::decode(&bytes)
            .map(Some)
            .ok_or_else(|| Error::Corruption(format!("corrupt build progress for {id}"))),
    }
}

/// Remove the progress (and options) records — build finished or
/// cancelled.
pub fn clear(db: &Db, id: IndexId) {
    db.blobs.remove(&key(id));
    db.blobs.remove(&options_key(id));
}

/// Durably record the build's [`BuildOptions`], so a resumed build
/// keeps the worker count, drain policy and interval it started with.
/// The blob is the options' bytes as `CreateIndex` carries them.
/// [`Error::BuildCancelled`], like [`store`], if the index is gone.
pub fn store_options(db: &Db, id: IndexId, options: &BuildOptions) -> Result<()> {
    put_live(db, id, &options_key(id), options.encode())
}

/// The options a build was started with ([`BuildOptions::default`]
/// for builds that predate the record, or whose record is malformed).
pub fn load_options(db: &Db, id: IndexId) -> BuildOptions {
    let mut options = db
        .blobs
        .get(&options_key(id))
        .and_then(|b| BuildOptions::decode(&b))
        .unwrap_or_default();
    // A record from before the worker bound, or a damaged one: resume
    // with a worker count a build may start with.
    options.parallel_workers = options.parallel_workers.clamp(1, MAX_BUILD_WORKERS);
    options
}

#[cfg(test)]
mod tests {
    use super::*;
    use mohan_common::Rid;
    use mohan_sort::RunMeta;

    #[test]
    fn all_variants_roundtrip() {
        let e = IndexEntry::from_i64(5, Rid::new(1, 1));
        let cases = vec![
            BuildProgress::Reducing {
                pass: MergePassCheckpoint {
                    remaining: vec![1, 2],
                    inflight: Some((
                        7,
                        MergeCheckpoint {
                            inputs: vec![1, 2],
                            counters: vec![3, 4],
                            emitted: 7,
                        },
                    )),
                },
            },
            BuildProgress::Loading {
                merge: MergeCheckpoint {
                    inputs: vec![5],
                    counters: vec![2],
                    emitted: 2,
                },
                bulk: BulkCheckpoint {
                    highest: Some(e.clone()),
                    count: 2,
                    allocated: 4,
                    root: mohan_common::PageId(1),
                    height: 1,
                    right_path: vec![mohan_common::PageId(1)],
                },
            },
            BuildProgress::Inserting {
                merge: MergeCheckpoint {
                    inputs: vec![],
                    counters: vec![],
                    emitted: 0,
                },
                inserted: 123,
            },
            BuildProgress::Draining { pos: 77 },
            BuildProgress::ScanningParallel {
                parts: vec![
                    PartCheckpoint {
                        lo: 0,
                        hi: 9,
                        sort: SortCheckpoint {
                            runs: vec![RunMeta { id: 3, len: 5 }],
                            scan_pos: 41,
                            last_run_high: Some(e.clone()),
                        },
                    },
                    PartCheckpoint {
                        lo: 10,
                        hi: 19,
                        sort: SortCheckpoint {
                            runs: vec![],
                            scan_pos: 0,
                            last_run_high: None,
                        },
                    },
                ],
            },
        ];
        // A progress frame's phase and detail: keys merged, inserted
        // or drained, the partitions' scan positions summed.
        let phases: Vec<_> = cases.iter().map(BuildProgress::phase).collect();
        assert_eq!(
            phases,
            [
                (BuildPhase::Reducing, 0),
                (BuildPhase::Loading, 2),
                (BuildPhase::Inserting, 123),
                (BuildPhase::Draining, 77),
                (BuildPhase::Scanning, 41),
            ]
        );
        for c in cases {
            assert_eq!(BuildProgress::decode(&c.encode()), Some(c));
        }
    }

    #[test]
    fn decode_garbage_is_none() {
        assert_eq!(BuildProgress::decode(&[]), None);
        assert_eq!(BuildProgress::decode(&[9, 1, 2]), None);
        // A draining record with a byte too many, and a reducing one
        // whose in-flight step is followed by junk.
        assert_eq!(BuildProgress::decode(&[4, 0, 0, 0, 0, 0, 0, 0, 1, 0]), None);
        let mut reducing = BuildProgress::Reducing {
            pass: MergePassCheckpoint {
                remaining: vec![],
                inflight: None,
            },
        }
        .encode();
        reducing.push(7);
        assert_eq!(BuildProgress::decode(&reducing), None);
    }
}
