//! A Postgres wire front door for the online-index-build engine.
//!
//! Two layers, both dependency-free (the container has no crates.io
//! access):
//!
//! * [`proto`] — the Postgres **v3 startup + simple-query protocol**:
//!   startup packet parsing (including the `SSLRequest` /
//!   `GSSENCRequest` probes and `CancelRequest`), the typed
//!   `[type][len][body]` message framing, and encoders for every
//!   backend message the simple-query flow needs
//!   (`AuthenticationOk`, `ParameterStatus`, `ReadyForQuery`,
//!   `RowDescription`/`DataRow`/`CommandComplete`, `ErrorResponse`
//!   with SQLSTATE, `NoticeResponse`, `EmptyQueryResponse`).
//! * [`sql`] + [`exec`] — a hand-rolled tokenizer/parser for the
//!   statement subset the engine can serve (`CREATE TABLE`,
//!   `CREATE INDEX` — online, per the paper — `INSERT`, `SELECT`,
//!   `UPDATE`/`DELETE` by key, `BEGIN`/`COMMIT`/`ROLLBACK`), executed
//!   against [`mohan_oib::Session`] so the statement-level API
//!   boundary stays identical to the native binary protocol.
//!
//! Nothing here decides whether a statement runs: admission, the
//! per-request deadline, drain, the trace root and the follower gate
//! (writes refused, reads bounded by `Db::stale_lag`) belong to the
//! serving layer, which decides them once for this protocol and the
//! native one.
//!
//! The point of the subset is the paper's headline capability on a
//! protocol every client already speaks: `psql` (or any Postgres load
//! tool) connects, generates insert traffic, and issues
//! `CREATE INDEX` **mid-load** — the build runs online, streaming
//! `NOTICE` progress lines fed from the build-progress hook, while
//! the inserts keep committing.
//!
//! [`catalog`] maps SQL table names onto engine [`mohan_common::TableId`]s;
//! tables created outside SQL (the native wire, seeds) are visible as
//! `t<ID>` with positional columns `c0..cN`.

#![warn(missing_docs)]

pub mod catalog;
pub mod exec;
pub mod proto;
pub mod sql;

pub use catalog::{Catalog, TableMeta};
pub use exec::{sqlstate_of, PgError, StmtOutcome};
pub use sql::{parse, query_may_block, Statement};
