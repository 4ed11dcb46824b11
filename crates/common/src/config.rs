//! Engine configuration knobs, and the build vocabulary every layer
//! shares: what to index ([`IndexSpec`]), how ([`BuildAlgorithm`]) and
//! under which policies ([`BuildOptions`]). Each is declared once, with
//! its bytes: the wire's `CreateIndex` carries them and the engine
//! persists the options a build started with in those same bytes.

use crate::codec::{decode, encode, Cursor, Wire};
use crate::error::Error;
use crate::{wire_enum, wire_struct};

/// Tunable parameters shared by the whole engine. All sizes are chosen
/// so that laptop-scale workloads exercise the same page-level
/// mechanics (splits, prefetch batches, checkpoint intervals) the paper
/// describes for very large tables.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Usable byte capacity of a data page (slotted heap page).
    pub data_page_size: usize,
    /// Usable byte capacity of an index page (leaf or internal),
    /// 128 to 65 535 (a page's offsets are `u16`); creating an index
    /// under any other size fails with `InvalidArg`.
    pub index_page_size: usize,
    /// Fraction of an index leaf left free by bulk / IB inserts for
    /// future growth (§2.2.3: "the proper amount of desired free space
    /// ... is left in the leaf pages").
    pub index_fill_factor: f64,
    /// Pages fetched per simulated I/O during the IB's sequential scan
    /// (§2.2.2 sequential prefetch).
    pub prefetch_pages: usize,
    /// Keys between a build's checkpoints in every phase: extracted
    /// keys in the sort (§5.1), output keys in the merge (§5.2), keys
    /// inserted or loaded by the IB (§2.2.3, §3.2.4). A build whose
    /// [`BuildOptions::checkpoint_every`] is 0 uses this.
    pub build_checkpoint_every_keys: usize,
    /// Replacement-selection workspace: number of keys the tournament
    /// tree holds during run formation.
    pub sort_workspace_keys: usize,
    /// Maximum input streams merged at once; more runs ⇒ multi-pass.
    pub merge_fan_in: usize,
    /// Lock-wait timeout in milliseconds; expiry is treated as a
    /// deadlock and aborts the waiter.
    pub lock_timeout_ms: u64,
    /// Maximum keys the NSF IB hands to the index manager in one
    /// multi-key insert call (§2.2.3).
    pub ib_multi_key_batch: usize,
    /// NSF remembered-path optimization (§2.2.3); ablation switch.
    pub ib_remembered_path: bool,
    /// Quiesce updates while creating an NSF descriptor (§2.2.1).
    /// `false` selects the paper's no-quiesce alternative (§3.2.3):
    /// transactions straddling the creation are handled by the
    /// visible-index-count comparison during rollback.
    pub nsf_descriptor_quiesce: bool,
    /// Footnote 3: make an NSF index *gradually* readable for key
    /// ranges below the builder's committed high-key watermark.
    pub nsf_gradual_reads: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            data_page_size: 4096,
            index_page_size: 2048,
            index_fill_factor: 0.9,
            prefetch_pages: 8,
            build_checkpoint_every_keys: 10_000,
            sort_workspace_keys: 4096,
            merge_fan_in: 16,
            lock_timeout_ms: 2_000,
            ib_multi_key_batch: 64,
            ib_remembered_path: true,
            nsf_descriptor_quiesce: true,
            nsf_gradual_reads: false,
        }
    }
}

impl EngineConfig {
    /// A configuration with tiny pages so unit tests exercise splits,
    /// multi-page heaps and multi-run sorts with few records.
    #[must_use]
    pub fn small() -> EngineConfig {
        EngineConfig {
            data_page_size: 256,
            index_page_size: 256,
            index_fill_factor: 0.9,
            prefetch_pages: 2,
            build_checkpoint_every_keys: 64,
            sort_workspace_keys: 16,
            merge_fan_in: 4,
            lock_timeout_ms: 500,
            ib_multi_key_batch: 4,
            ib_remembered_path: true,
            nsf_descriptor_quiesce: true,
            nsf_gradual_reads: false,
        }
    }
}

/// The most scan/sort workers one build may ask for. Each worker forms
/// its own sorted runs with a [`EngineConfig::sort_workspace_keys`]
/// workspace per index, so the count is bounded before any thread
/// starts; every caller in this repository asks for at most 4.
pub const MAX_BUILD_WORKERS: u16 = 64;

/// What the caller wants indexed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSpec {
    /// Index name.
    pub name: String,
    /// Column positions forming the key, in order.
    pub key_cols: Vec<u16>,
    /// Enforce unique committed key values (§2.2.3).
    pub unique: bool,
}

wire_struct! { IndexSpec { name, key_cols, unique } }

wire_enum! {
    /// Which build algorithm an index was (or is being) created with.
    /// The tag byte is the catalog's and `CreateIndex`'s.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum BuildAlgorithm {
        /// The pre-paper baseline: quiesce all updates for the whole build.
        Offline = 0,
        /// §2: no side-file; transactions maintain the index directly
        /// while the IB inserts into the same tree.
        Nsf = 1,
        /// §3: bottom-up build plus a side-file drained at the end; no
        /// quiesce at any point.
        Sf = 2,
    }
}

/// How one build runs: the policies of the engine API, the wire's
/// `CreateIndex` and SQL `CREATE INDEX ... WITH (...)`, and the durable
/// options blob a resumed build reads.
///
/// A zero [`checkpoint_every`](BuildOptions::checkpoint_every) means
/// [`EngineConfig::build_checkpoint_every_keys`], in every layer; a
/// `None` drain policy means sorted. [`BuildOptions::validate`] is the
/// one check of a request's options.
///
/// The body is fixed width, `[u16 workers][u8 flags][u32
/// checkpoint_every]`: flag bit 0 is `compress_runs`, bit 1 says a
/// drain policy is present and bit 2 carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildOptions {
    /// Scan and run-formation workers, 1 to [`MAX_BUILD_WORKERS`]. The
    /// scan range is split into one contiguous page partition per
    /// worker; each partition checkpoints independently.
    pub parallel_workers: u16,
    /// Ignored: every sorted run is stored prefix-compressed. Kept so
    /// the body's bytes stay as peers and durable options blobs have
    /// them.
    pub compress_runs: bool,
    /// Sort the side-file before applying it (§3.2.5); `None` sorts.
    pub sort_side_file_drain: Option<bool>,
    /// Keys between checkpoints in every phase of the build; 0 means
    /// the engine's [`EngineConfig::build_checkpoint_every_keys`].
    pub checkpoint_every: u32,
}

impl Default for BuildOptions {
    fn default() -> BuildOptions {
        BuildOptions {
            parallel_workers: 1,
            compress_runs: false,
            sort_side_file_drain: None,
            checkpoint_every: 0,
        }
    }
}

impl BuildOptions {
    /// Engine defaults: serial, the engine's checkpoint interval,
    /// sorted drain.
    #[must_use]
    pub fn new() -> BuildOptions {
        BuildOptions::default()
    }

    /// Set the scan/sort worker count.
    #[must_use]
    pub fn workers(mut self, n: u16) -> BuildOptions {
        self.parallel_workers = n;
        self
    }

    /// Set the side-file drain policy.
    #[must_use]
    pub fn sorted_drain(mut self, on: bool) -> BuildOptions {
        self.sort_side_file_drain = Some(on);
        self
    }

    /// Set the checkpoint interval of every phase, in keys.
    #[must_use]
    pub fn checkpoint_every(mut self, keys: u32) -> BuildOptions {
        self.checkpoint_every = keys;
        self
    }

    /// Refuse options no build may run with: a worker count outside
    /// 1..=[`MAX_BUILD_WORKERS`].
    pub fn validate(&self) -> crate::Result<()> {
        if !(1..=MAX_BUILD_WORKERS).contains(&self.parallel_workers) {
            return Err(Error::InvalidArg(format!(
                "parallel_workers must be 1 to {MAX_BUILD_WORKERS}, not {}",
                self.parallel_workers
            )));
        }
        Ok(())
    }

    /// Keys between checkpoints, resolved against the engine's default.
    #[must_use]
    pub fn checkpoint_keys(&self, cfg: &EngineConfig) -> usize {
        match self.checkpoint_every {
            0 => cfg.build_checkpoint_every_keys,
            keys => keys as usize,
        }
    }

    /// Sort the side-file before applying it?
    #[must_use]
    pub fn drains_sorted(&self) -> bool {
        self.sort_side_file_drain.unwrap_or(true)
    }

    /// The body alone, as the engine persists a build's options: the
    /// bytes `CreateIndex` carries for them.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        encode(self)
    }

    /// Decode [`BuildOptions::encode`]'s bytes; `None` means malformed
    /// (truncated, an unknown flag bit, trailing bytes).
    #[must_use]
    pub fn decode(buf: &[u8]) -> Option<BuildOptions> {
        decode(buf)
    }
}

impl Wire for BuildOptions {
    fn put(&self, out: &mut Vec<u8>) {
        self.parallel_workers.put(out);
        let mut flags = 0u8;
        if self.compress_runs {
            flags |= 1;
        }
        if let Some(v) = self.sort_side_file_drain {
            flags |= 2;
            if v {
                flags |= 4;
            }
        }
        out.push(flags);
        self.checkpoint_every.put(out);
    }

    fn get(c: &mut Cursor<'_>) -> Option<Self> {
        let parallel_workers = u16::get(c)?;
        let flags = c.get_u8()?;
        if flags & !0b111 != 0 {
            return None;
        }
        Some(BuildOptions {
            parallel_workers,
            compress_runs: flags & 1 != 0,
            sort_side_file_drain: (flags & 2 != 0).then_some(flags & 4 != 0),
            checkpoint_every: Wire::get(c)?,
        })
    }
}

/// Environment variable enabling the server's Postgres-protocol
/// listener. A bare port number binds `127.0.0.1:<port>`; a value
/// containing `:` is used as the full bind address. Read by
/// `ServerConfig::default`.
pub const PG_PORT_ENV: &str = "MOHAN_PG_PORT";

/// Environment variable enabling the server's HTTP sidecar listener
/// (`/metrics`, `/healthz`, `/readyz`). Same address spelling as
/// [`PG_PORT_ENV`]: a bare port binds `127.0.0.1:<port>`, a value
/// containing `:` is the full bind address. Read by
/// `ServerConfig::default`.
pub const HTTP_PORT_ENV: &str = "MOHAN_HTTP_PORT";

/// Environment variable setting the head-based trace sampling rate:
/// keep one trace in `N` (`0`/`1` keep every trace). Read by
/// `ServerConfig::default` and applied process-wide at server start.
pub const TRACE_SAMPLE_ENV: &str = "MOHAN_TRACE_SAMPLE";

/// Does nothing: the server's platform picks its I/O readiness backend
/// at compile time (epoll on Linux, poll(2) on every other unix).
/// `ServerConfig::io_backend` still carries it so that existing struct
/// literals that name it build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoBackendChoice {
    /// The platform's backend, the only one.
    #[default]
    Auto,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = EngineConfig::default();
        assert!(c.data_page_size >= 1024);
        assert!(c.index_fill_factor > 0.5 && c.index_fill_factor <= 1.0);
        assert!(c.merge_fan_in >= 2);
    }

    #[test]
    fn spec_roundtrips_through_its_codec() {
        let spec = IndexSpec {
            name: "ix_kv".into(),
            key_cols: vec![2, 0, 1],
            unique: true,
        };
        assert_eq!(decode(&encode(&spec)), Some(spec));
    }

    #[test]
    fn algorithm_tags_roundtrip() {
        for a in [
            BuildAlgorithm::Offline,
            BuildAlgorithm::Nsf,
            BuildAlgorithm::Sf,
        ] {
            assert_eq!(decode(&[a.tag()]), Some(a));
        }
        assert_eq!(decode::<BuildAlgorithm>(&[9]), None);
    }

    /// The samples' bytes are also the durable options blob a resumed
    /// build reads. They are pinned: a build resumes from blobs earlier
    /// builds wrote.
    #[test]
    fn options_bytes_are_pinned() {
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
            let bytes = opts.encode();
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, blob);
            assert_eq!(BuildOptions::decode(&bytes), Some(opts));
        }
    }

    /// Every run is stored compressed: the `compress_runs` bit an older
    /// build wrote still decodes, into options that validate and
    /// resolve as they did.
    #[test]
    fn compress_runs_bit_is_ignored() {
        let blob = [0x00, 0x04, 0x03, 0x00, 0x00, 0x27, 0x10];
        let opts = BuildOptions::decode(&blob).expect("an older build's options blob");
        assert!(opts.compress_runs);
        let without = BuildOptions::new()
            .workers(4)
            .sorted_drain(false)
            .checkpoint_every(10_000);
        assert_eq!(
            BuildOptions {
                compress_runs: false,
                ..opts
            },
            without
        );
        assert!(opts.validate().is_ok());
    }

    #[test]
    fn zero_checkpoint_every_means_engine_default() {
        let cfg = EngineConfig::default();
        let opts = BuildOptions::default();
        assert_eq!(opts.checkpoint_every, 0);
        assert_eq!(opts.checkpoint_keys(&cfg), cfg.build_checkpoint_every_keys);
        assert_eq!(opts.checkpoint_every(7).checkpoint_keys(&cfg), 7);
        assert!(opts.drains_sorted());
    }

    #[test]
    fn worker_count_is_bounded() {
        for (n, ok) in [(0, false), (1, true), (MAX_BUILD_WORKERS, true)] {
            assert_eq!(BuildOptions::new().workers(n).validate().is_ok(), ok, "{n}");
        }
        let err = BuildOptions::new()
            .workers(MAX_BUILD_WORKERS + 1)
            .validate()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidArg(_)), "{err}");
    }

    #[test]
    fn small_config_forces_splits() {
        let c = EngineConfig::small();
        assert!(c.index_page_size <= 512);
        assert!(c.sort_workspace_keys <= 64);
    }
}
