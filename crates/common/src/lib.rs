//! Shared foundation types for the online-index-build engine.
//!
//! This crate holds everything the other crates agree on: typed
//! identifiers ([`ids`]), order-preserving key encoding ([`key`]), the
//! error type ([`error`]), deterministic crash injection
//! ([`failpoint`]), lightweight atomic counters ([`stats`]), engine
//! configuration ([`config`]), the index builder's pace points
//! ([`pace`]) and the read-side API surface shared by sessions, wire
//! clients and follower reads ([`api`]).
//!
//! The vocabulary follows Mohan & Narang (SIGMOD 1992): records live on
//! *data pages* and are addressed by a [`ids::Rid`]; index entries are
//! `<key value, RID>` pairs ([`key::IndexEntry`]); recovery is
//! ARIES-style write-ahead logging addressed by [`ids::Lsn`]s.

#![warn(missing_docs)]

pub mod api;
pub mod config;
pub mod error;
pub mod failpoint;
pub mod ids;
pub mod key;
pub mod pace;
pub mod stats;

pub use api::ReadApi;
pub use config::{EngineConfig, IoBackendChoice};
pub use error::{Error, Result};
pub use ids::{FileId, IndexId, Lsn, PageId, Rid, SlotId, TableId, TxId};
pub use key::{IndexEntry, KeyValue};
