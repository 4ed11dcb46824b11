//! The read-side API shared by every way of querying the engine.
//!
//! [`ReadApi`] is the narrow waist between read drivers (the bench
//! verify-oracle, closed-loop readers, the replication experiments)
//! and the three places a read can be answered: an in-process
//! `oib::Session`, a primary over the wire (`client::Client`), or a
//! replication follower's bounded-staleness read path. Drivers written
//! against the trait run unchanged across all three, which is what
//! lets E19 measure follower reads with the same oracle the loopback
//! suites use against the primary.
//!
//! The trait deliberately mirrors the wire protocol's `Read`/`Lookup`
//! shapes — records travel as `Vec<i64>` column values and index
//! probes return packed-able [`Rid`]s — so implementing it never
//! forces a representation conversion the wire would not already do.

use crate::ids::{IndexId, Rid, TableId};
use crate::key::KeyValue;

/// Point reads against any engine surface: a record fetch by RID and
/// an exact-match index probe.
///
/// Implementations may be stateful (a wire client owns a socket, a
/// session may observe its own uncommitted writes), hence `&mut self`.
/// Errors stay implementation-specific — an in-process session fails
/// with `Error`, a wire client with its transport error — but must be
/// printable so generic drivers can report them.
pub trait ReadApi {
    /// Implementation-specific failure type.
    type Err: std::fmt::Debug + std::fmt::Display;

    /// Fetch the record at `rid`, as column values.
    ///
    /// # Errors
    /// `NotFound` (however the implementation spells it) when the RID
    /// is unoccupied; follower implementations may also refuse with a
    /// staleness error when replication lag is over bound.
    fn read(&mut self, table: TableId, rid: Rid) -> Result<Vec<i64>, Self::Err>;

    /// Exact-match probe of index `index` for `key`, returning the
    /// RIDs of matching committed records.
    ///
    /// # Errors
    /// `NoSuchIndex` / `IndexNotReadable` for missing or still-building
    /// indexes; follower implementations may also refuse with a
    /// staleness error.
    fn lookup(&mut self, index: IndexId, key: &KeyValue) -> Result<Vec<Rid>, Self::Err>;
}
