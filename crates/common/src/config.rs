//! Engine configuration knobs.

/// Tunable parameters shared by the whole engine. All sizes are chosen
/// so that laptop-scale workloads exercise the same page-level
/// mechanics (splits, prefetch batches, checkpoint intervals) the paper
/// describes for very large tables.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Usable byte capacity of a data page (slotted heap page).
    pub data_page_size: usize,
    /// Usable byte capacity of an index page (leaf or internal).
    pub index_page_size: usize,
    /// Fraction of an index leaf left free by bulk / IB inserts for
    /// future growth (§2.2.3: "the proper amount of desired free space
    /// ... is left in the leaf pages").
    pub index_fill_factor: f64,
    /// Pages fetched per simulated I/O during the IB's sequential scan
    /// (§2.2.2 sequential prefetch).
    pub prefetch_pages: usize,
    /// IB checkpoints its progress every this many keys inserted
    /// (§2.2.3 periodic checkpointing).
    pub ib_checkpoint_every_keys: usize,
    /// Sort-phase checkpoint interval, in extracted keys (§5.1).
    pub sort_checkpoint_every_keys: usize,
    /// Merge-phase checkpoint interval, in output keys (§5.2).
    pub merge_checkpoint_every_keys: usize,
    /// Replacement-selection workspace: number of keys the tournament
    /// tree holds during run formation.
    pub sort_workspace_keys: usize,
    /// Maximum input streams merged at once; more runs ⇒ multi-pass.
    pub merge_fan_in: usize,
    /// Lock-wait timeout in milliseconds; expiry is treated as a
    /// deadlock and aborts the waiter.
    pub lock_timeout_ms: u64,
    /// Side-file entries the IB applies per batch (and between
    /// drain-phase checkpoints) while catching up (§3.2.5).
    pub side_file_batch: usize,
    /// Sort the side-file before applying it (§3.2.5 optimization).
    pub side_file_sorted_apply: bool,
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
    /// This engine is a replication follower: redo applies
    /// `CatalogUpdate` records (index DDL shipped in the WAL stream)
    /// instead of treating them as no-ops the way a primary's own
    /// restart does, where the catalog blob is authoritative.
    pub replica: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            data_page_size: 4096,
            index_page_size: 2048,
            index_fill_factor: 0.9,
            prefetch_pages: 8,
            ib_checkpoint_every_keys: 10_000,
            sort_checkpoint_every_keys: 20_000,
            merge_checkpoint_every_keys: 20_000,
            sort_workspace_keys: 4096,
            merge_fan_in: 16,
            lock_timeout_ms: 2_000,
            side_file_batch: 512,
            side_file_sorted_apply: true,
            ib_multi_key_batch: 64,
            ib_remembered_path: true,
            nsf_descriptor_quiesce: true,
            nsf_gradual_reads: false,
            replica: false,
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
            ib_checkpoint_every_keys: 64,
            sort_checkpoint_every_keys: 64,
            merge_checkpoint_every_keys: 64,
            sort_workspace_keys: 16,
            merge_fan_in: 4,
            lock_timeout_ms: 500,
            side_file_batch: 8,
            side_file_sorted_apply: true,
            ib_multi_key_batch: 4,
            ib_remembered_path: true,
            nsf_descriptor_quiesce: true,
            nsf_gradual_reads: false,
            replica: false,
        }
    }
}

/// Environment variable overriding the server's I/O backend choice
/// (same spellings as [`IoBackendChoice::parse`]). Read by
/// `ServerConfig::default`, so every test server and tool in the
/// workspace can be switched without touching call sites — how CI
/// runs the loopback suites under each backend.
pub const IO_BACKEND_ENV: &str = "MOHAN_IO_BACKEND";

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

/// Which I/O readiness backend the server's connection layer uses.
///
/// Lives in `mohan-common` (not the server crate) so binaries and
/// benches can parse/carry the choice without depending on server
/// internals. Resolution against what the host actually supports
/// happens in the server's reactor module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoBackendChoice {
    /// Pick the best available: epoll where it exists, else poll(2).
    #[default]
    Auto,
    /// Linux epoll(7) — O(ready) dispatch. Startup fails if the host
    /// has no epoll.
    Epoll,
    /// Portable poll(2) — O(registered fds) per wait, still
    /// event-driven.
    Poll,
}

impl IoBackendChoice {
    /// Parse a CLI/env spelling: `auto`, `epoll` or `poll`.
    #[must_use]
    pub fn parse(s: &str) -> Option<IoBackendChoice> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(IoBackendChoice::Auto),
            "epoll" => Some(IoBackendChoice::Epoll),
            "poll" => Some(IoBackendChoice::Poll),
            _ => None,
        }
    }

    /// The choice from [`IO_BACKEND_ENV`]. `Ok(None)` when unset;
    /// `Err` (with the offending value) when set to something
    /// unparsable — a typo in a CI matrix must not silently test the
    /// default backend.
    pub fn from_env() -> Result<Option<IoBackendChoice>, String> {
        match std::env::var(IO_BACKEND_ENV) {
            Ok(v) => IoBackendChoice::parse(&v).map(Some).ok_or(v),
            Err(_) => Ok(None),
        }
    }

    /// Canonical spelling, round-trips through [`IoBackendChoice::parse`].
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            IoBackendChoice::Auto => "auto",
            IoBackendChoice::Epoll => "epoll",
            IoBackendChoice::Poll => "poll",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_backend_choice_parses_and_round_trips() {
        for c in [
            IoBackendChoice::Auto,
            IoBackendChoice::Epoll,
            IoBackendChoice::Poll,
        ] {
            assert_eq!(IoBackendChoice::parse(c.name()), Some(c));
        }
        assert_eq!(
            IoBackendChoice::parse(" EPoll "),
            Some(IoBackendChoice::Epoll)
        );
        assert_eq!(IoBackendChoice::parse("uring"), None);
        // The sleep-polling driver is gone, and so is its spelling.
        assert_eq!(IoBackendChoice::parse("threaded"), None);
    }

    #[test]
    fn defaults_are_sane() {
        let c = EngineConfig::default();
        assert!(c.data_page_size >= 1024);
        assert!(c.index_fill_factor > 0.5 && c.index_fill_factor <= 1.0);
        assert!(c.merge_fan_in >= 2);
    }

    #[test]
    fn small_config_forces_splits() {
        let c = EngineConfig::small();
        assert!(c.index_page_size <= 512);
        assert!(c.sort_workspace_keys <= 64);
    }
}
