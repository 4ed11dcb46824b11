//! Engine-wide error type.

use crate::ids::{IndexId, Rid, TxId};
use std::fmt;

/// Convenient alias used across all crates.
pub type Result<T> = std::result::Result<T, Error>;

/// Every failure the engine can surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Inserting a key into a unique index would duplicate a committed
    /// key value (§2.2.3).
    UniqueViolation {
        /// Index that rejected the insert.
        index: IndexId,
        /// Record whose committed key collided.
        existing: Rid,
    },
    /// A lock request timed out; we treat timeout as deadlock
    /// resolution and abort the requester.
    LockTimeout {
        /// Transaction whose request timed out.
        tx: TxId,
        /// Human-readable lock name.
        name: String,
    },
    /// A conditional lock request could not be granted immediately.
    LockBusy,
    /// The referenced record / key / page does not exist.
    NotFound(String),
    /// A page ran out of space for an in-place operation.
    PageFull,
    /// An internal invariant was violated; indicates a bug.
    Corruption(String),
    /// Stored bytes do not form a valid value of the named kind (an
    /// index page read back). Corruption, reported without allocating,
    /// so a refusal costs no more than the bytes it refused.
    Malformed(&'static str),
    /// The index build was cancelled by the user.
    BuildCancelled,
    /// A simulated system failure injected through
    /// [`crate::failpoint`]. Callers propagate it to the crash
    /// orchestrator, which then discards volatile state.
    InjectedCrash(&'static str),
    /// The transaction is not active (already committed / rolled back).
    TxNotActive(TxId),
    /// An operation was attempted against a dropped or never-created
    /// index.
    NoSuchIndex(IndexId),
    /// The index exists but is still being built and is not yet
    /// available as an access path for retrievals (§2.2.1).
    IndexNotReadable(IndexId),
    /// A statement required an open transaction on the session
    /// (commit/rollback with nothing to end).
    NoOpenTx,
    /// `BEGIN` was issued while the session already holds an open
    /// transaction; the engine does not nest transactions.
    TxAlreadyOpen(TxId),
    /// A write was attempted against an engine running as a
    /// replication follower. Writes must go to the primary until the
    /// follower is promoted.
    NotWritable,
    /// A follower read was refused because replication lag exceeded
    /// the configured staleness bound.
    ReplicaStale {
        /// Replication lag, in LSNs, when the read was refused.
        lag: u64,
    },
    /// A caller-supplied argument was structurally invalid (empty spec
    /// list, zero worker count, unknown option). A statement-level
    /// error, never an engine invariant violation.
    InvalidArg(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UniqueViolation { index, existing } => {
                write!(
                    f,
                    "unique key value violation in {index} (committed key at {existing})"
                )
            }
            Error::LockTimeout { tx, name } => {
                write!(
                    f,
                    "{tx} timed out waiting for lock {name} (treated as deadlock)"
                )
            }
            Error::LockBusy => write!(f, "conditional lock not available"),
            Error::NotFound(what) => write!(f, "not found: {what}"),
            Error::PageFull => write!(f, "page full"),
            Error::Corruption(msg) => write!(f, "corruption: {msg}"),
            Error::Malformed(what) => write!(f, "corruption: malformed {what}"),
            Error::BuildCancelled => write!(f, "index build cancelled"),
            Error::InjectedCrash(site) => write!(f, "injected system crash at failpoint '{site}'"),
            Error::TxNotActive(tx) => write!(f, "{tx} is not active"),
            Error::NoSuchIndex(idx) => write!(f, "no such index {idx}"),
            Error::IndexNotReadable(idx) => {
                write!(f, "index {idx} is still being built and cannot serve reads")
            }
            Error::NoOpenTx => write!(f, "no open transaction on this session"),
            Error::TxAlreadyOpen(tx) => {
                write!(f, "{tx} is already open on this session")
            }
            Error::NotWritable => {
                write!(f, "engine is a replication follower and refuses writes")
            }
            Error::ReplicaStale { lag } => {
                write!(
                    f,
                    "follower read refused: replication lag {lag} LSNs over bound"
                )
            }
            Error::InvalidArg(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl Error {
    /// True if this error is a simulated crash that should bubble all
    /// the way to the crash orchestrator.
    #[must_use]
    pub fn is_crash(&self) -> bool {
        matches!(self, Error::InjectedCrash(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IndexId;

    #[test]
    fn display_is_informative() {
        let e = Error::UniqueViolation {
            index: IndexId(2),
            existing: Rid::new(1, 1),
        };
        assert!(e.to_string().contains("idx2"));
        assert!(e.to_string().contains("P1.s1"));
    }

    #[test]
    fn crash_detection() {
        assert!(Error::InjectedCrash("x").is_crash());
        assert!(!Error::PageFull.is_crash());
    }
}
