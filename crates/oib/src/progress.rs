//! Durable build-progress records.
//!
//! Each in-flight index build keeps one progress record in the stable
//! blob area, updated at every checkpoint. It tells
//! [`crate::build::resume_build`] which phase to re-enter and carries
//! the phase's own checkpoint (§5 sort/merge checkpoints, §2.2.3 NSF
//! insert position, §3.2.4 SF bulk-load checkpoint, §3.2.5 drain
//! position).

use crate::build::BuildOptions;
use crate::engine::Db;
use mohan_btree::BulkCheckpoint;
use mohan_common::{Error, IndexEntry, IndexId, Result};
use mohan_sort::{MergeCheckpoint, MergePassCheckpoint, SortCheckpoint};

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

impl PartCheckpoint {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.lo.to_be_bytes());
        out.extend_from_slice(&self.hi.to_be_bytes());
        let s = self.sort.encode();
        out.extend_from_slice(&(s.len() as u32).to_be_bytes());
        out.extend_from_slice(&s);
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Option<PartCheckpoint> {
        let lo = u32::from_be_bytes(buf.get(*pos..*pos + 4)?.try_into().ok()?);
        let hi = u32::from_be_bytes(buf.get(*pos + 4..*pos + 8)?.try_into().ok()?);
        let slen = u32::from_be_bytes(buf.get(*pos + 8..*pos + 12)?.try_into().ok()?) as usize;
        let sort = SortCheckpoint::decode(buf.get(*pos + 12..*pos + 12 + slen)?)?;
        *pos += 12 + slen;
        Some(PartCheckpoint { lo, hi, sort })
    }
}

/// Where an interrupted build resumes.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildProgress {
    /// Scanning data pages and forming sorted runs (§5.1): one
    /// checkpoint per scan partition (a serial build has one
    /// partition), restarted per-partition.
    ScanningParallel {
        /// Per-worker partition checkpoints, in partition order.
        parts: Vec<PartCheckpoint>,
    },
    /// Reducing runs below the merge fan-in (§5.2).
    Reducing {
        /// Run-reduction checkpoint.
        pass: MergePassCheckpoint,
    },
    /// SF: bottom-up bulk load fed by the pipelined final merge
    /// (§3.2.4).
    Loading {
        /// Final-merge position.
        merge: MergeCheckpoint,
        /// Tree loader checkpoint.
        bulk: BulkCheckpoint,
    },
    /// NSF: inserting sorted keys into the shared tree (§2.2.3).
    Inserting {
        /// Final-merge position.
        merge: MergeCheckpoint,
        /// Keys handed to the index manager so far.
        inserted: u64,
    },
    /// SF: draining the side-file (§3.2.5).
    Draining {
        /// Entries applied so far.
        pos: u64,
    },
}

impl BuildProgress {
    /// Serialize.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            BuildProgress::Reducing { pass } => {
                out.push(1);
                out.extend_from_slice(&pass.encode());
            }
            BuildProgress::Loading { merge, bulk } => {
                out.push(2);
                let m = merge.encode();
                out.extend_from_slice(&(m.len() as u32).to_be_bytes());
                out.extend_from_slice(&m);
                out.extend_from_slice(&bulk.encode());
            }
            BuildProgress::Inserting { merge, inserted } => {
                out.push(3);
                let m = merge.encode();
                out.extend_from_slice(&(m.len() as u32).to_be_bytes());
                out.extend_from_slice(&m);
                out.extend_from_slice(&inserted.to_be_bytes());
            }
            BuildProgress::Draining { pos } => {
                out.push(4);
                out.extend_from_slice(&pos.to_be_bytes());
            }
            BuildProgress::ScanningParallel { parts } => {
                out.push(5);
                out.extend_from_slice(&(parts.len() as u16).to_be_bytes());
                for p in parts {
                    p.encode(&mut out);
                }
            }
        }
        out
    }

    /// Deserialize.
    #[must_use]
    pub fn decode(buf: &[u8]) -> Option<BuildProgress> {
        match *buf.first()? {
            // Tag 0 was the serial scan's bare sort checkpoint (no
            // longer written): one partition from page 0 to the end
            // of the scan, which the build clamps to the index's
            // scan bound.
            0 => Some(BuildProgress::ScanningParallel {
                parts: vec![PartCheckpoint {
                    lo: 0,
                    hi: u32::MAX,
                    sort: SortCheckpoint::decode(&buf[1..])?,
                }],
            }),
            1 => Some(BuildProgress::Reducing {
                pass: MergePassCheckpoint::decode(&buf[1..])?,
            }),
            2 => {
                let mlen = u32::from_be_bytes(buf.get(1..5)?.try_into().ok()?) as usize;
                let merge = MergeCheckpoint::decode(buf.get(5..5 + mlen)?)?;
                let bulk = BulkCheckpoint::decode(buf.get(5 + mlen..)?)?;
                Some(BuildProgress::Loading { merge, bulk })
            }
            3 => {
                let mlen = u32::from_be_bytes(buf.get(1..5)?.try_into().ok()?) as usize;
                let merge = MergeCheckpoint::decode(buf.get(5..5 + mlen)?)?;
                let inserted =
                    u64::from_be_bytes(buf.get(5 + mlen..5 + mlen + 8)?.try_into().ok()?);
                Some(BuildProgress::Inserting { merge, inserted })
            }
            4 => Some(BuildProgress::Draining {
                pos: u64::from_be_bytes(buf.get(1..9)?.try_into().ok()?),
            }),
            5 => {
                let n = u16::from_be_bytes(buf.get(1..3)?.try_into().ok()?) as usize;
                let mut pos = 3;
                let mut parts = Vec::with_capacity(n);
                for _ in 0..n {
                    parts.push(PartCheckpoint::decode(buf, &mut pos)?);
                }
                Some(BuildProgress::ScanningParallel { parts })
            }
            _ => None,
        }
    }
}

fn key(id: IndexId) -> String {
    format!("build/{}/progress", id.0)
}

fn options_key(id: IndexId) -> String {
    format!("build/{}/options", id.0)
}

/// Durably record build progress.
pub fn store(db: &Db, id: IndexId, progress: &BuildProgress) {
    db.blobs.put(&key(id), progress.encode());
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
/// keeps the worker count, run compression and interval overrides it
/// started with.
pub fn store_options(db: &Db, id: IndexId, options: &BuildOptions) {
    db.blobs.put(&options_key(id), options.encode());
}

/// The options a build was started with ([`BuildOptions::default`]
/// for builds that predate the record).
pub fn load_options(db: &Db, id: IndexId) -> BuildOptions {
    db.blobs
        .get(&options_key(id))
        .and_then(|b| BuildOptions::decode(&b))
        .unwrap_or_default()
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
        for c in cases {
            assert_eq!(BuildProgress::decode(&c.encode()), Some(c));
        }
    }

    #[test]
    fn serial_scan_blob_decodes_as_one_partition() {
        let sort = SortCheckpoint {
            runs: vec![RunMeta { id: 1, len: 10 }],
            scan_pos: 99,
            last_run_high: Some(IndexEntry::from_i64(5, Rid::new(1, 1))),
        };
        let mut blob = vec![0u8];
        blob.extend_from_slice(&sort.encode());
        assert_eq!(
            BuildProgress::decode(&blob),
            Some(BuildProgress::ScanningParallel {
                parts: vec![PartCheckpoint {
                    lo: 0,
                    hi: u32::MAX,
                    sort,
                }],
            })
        );
    }

    #[test]
    fn decode_garbage_is_none() {
        assert_eq!(BuildProgress::decode(&[]), None);
        assert_eq!(BuildProgress::decode(&[9, 1, 2]), None);
    }
}
