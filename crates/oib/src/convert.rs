//! Lossless conversions between engine build types and their wire
//! mirrors.
//!
//! The wire crate deliberately depends only on `mohan-common`, so it
//! carries *mirrors* of [`IndexSpec`], [`BuildOptions`] and
//! [`BuildAlgorithm`] rather than the types themselves. These `From`
//! impls are the one place the two shapes meet; the server and client
//! call sites convert with `.into()` instead of copying fields by
//! hand, so a field or variant added to either side fails to compile
//! here instead of silently dropping on the wire.
//!
//! Width notes: key column positions are `usize` in the engine and
//! `u16` on the wire (the protocol caps list lengths at
//! `wire::MAX_LIST` anyway), and the worker count is `usize` vs
//! `u16` / `checkpoint_every` is `Option<usize>` vs `u32` with 0 as
//! "unset". Values in range — every real value — round-trip exactly.

use crate::build::{BuildOptions, IndexSpec};
use crate::schema::BuildAlgorithm;
use mohan_wire::message::{BuildAlgo, BuildOptionsWire, IndexSpecWire};

impl From<BuildAlgo> for BuildAlgorithm {
    fn from(w: BuildAlgo) -> Self {
        match w {
            BuildAlgo::Offline => BuildAlgorithm::Offline,
            BuildAlgo::Nsf => BuildAlgorithm::Nsf,
            BuildAlgo::Sf => BuildAlgorithm::Sf,
        }
    }
}

impl From<IndexSpecWire> for IndexSpec {
    fn from(w: IndexSpecWire) -> Self {
        IndexSpec {
            name: w.name,
            key_cols: w.key_cols.into_iter().map(usize::from).collect(),
            unique: w.unique,
        }
    }
}

impl From<IndexSpec> for IndexSpecWire {
    fn from(s: IndexSpec) -> Self {
        IndexSpecWire {
            name: s.name,
            key_cols: s.key_cols.into_iter().map(|c| c as u16).collect(),
            unique: s.unique,
        }
    }
}

impl From<BuildOptionsWire> for BuildOptions {
    fn from(w: BuildOptionsWire) -> Self {
        BuildOptions {
            parallel_workers: usize::from(w.parallel_workers),
            sort_side_file_drain: w.sort_side_file_drain,
            checkpoint_every: if w.checkpoint_every == 0 {
                None
            } else {
                Some(w.checkpoint_every as usize)
            },
        }
    }
}

impl From<BuildOptions> for BuildOptionsWire {
    fn from(o: BuildOptions) -> Self {
        BuildOptionsWire {
            parallel_workers: o.parallel_workers.min(u16::MAX as usize) as u16,
            compress_runs: false,
            sort_side_file_drain: o.sort_side_file_drain,
            checkpoint_every: o
                .checkpoint_every
                .map_or(0, |k| u32::try_from(k).unwrap_or(u32::MAX)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrips_through_wire() {
        let spec = IndexSpec {
            name: "ix_kv".into(),
            key_cols: vec![2, 0, 1],
            unique: true,
        };
        let wire: IndexSpecWire = spec.clone().into();
        assert_eq!(IndexSpec::from(wire), spec);
    }

    /// The samples' wire bytes are also the durable options blob a
    /// resumed build reads (`progress::store_options`). They are
    /// pinned: a build resumes from blobs earlier builds wrote.
    #[test]
    fn options_roundtrip_through_wire() {
        for (opts, blob) in [
            (BuildOptions::default(), "00010000000000"),
            (
                BuildOptions::new()
                    .workers(4)
                    .sorted_drain(false)
                    .checkpoint_every(10_000),
                "00040200002710",
            ),
        ] {
            let wire: BuildOptionsWire = opts.clone().into();
            let bytes = wire.encode();
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, blob);
            assert_eq!(BuildOptionsWire::decode(&bytes), Some(wire));
            assert_eq!(BuildOptions::from(wire), opts);
        }
    }

    /// Every run is stored compressed: the `compress_runs` bit an older
    /// build wrote is read and ignored, so its blob still resumes.
    #[test]
    fn compress_runs_bit_is_ignored() {
        let blob = [0x00, 0x04, 0x03, 0x00, 0x00, 0x27, 0x10];
        let wire = BuildOptionsWire::decode(&blob).expect("an older build's options blob");
        assert!(wire.compress_runs);
        let opts = BuildOptions::new()
            .workers(4)
            .sorted_drain(false)
            .checkpoint_every(10_000);
        assert_eq!(BuildOptions::from(wire), opts);
    }

    #[test]
    fn zero_checkpoint_on_the_wire_means_engine_default() {
        let wire = BuildOptionsWire {
            checkpoint_every: 0,
            ..BuildOptionsWire::default()
        };
        assert_eq!(BuildOptions::from(wire).checkpoint_every, None);
    }
}
