//! ARIES-style write-ahead logging.
//!
//! The paper assumes WAL recovery as in ARIES \[MHLPS92\] with the
//! refinements of ARIES/IM \[MoLe92\]: a log record can carry *both*
//! undo and redo information, *only redo* (e.g. side-file appends), or
//! *only undo* — the last being the paper's §2.1.1 trick where a
//! transaction logs an insert it never performed (because the index
//! builder already inserted the key) purely so a later rollback will
//! remove that key.
//!
//! Modules:
//! * [`record`] — typed log records and payloads.
//! * [`codec`] — byte encoding of records: what a log slot stores and
//!   what WAL stream replication ships.
//! * [`log`] — the log manager: encoded records packed into reused
//!   chunks behind write-once slots, in segments that truncation
//!   frees, append/flush, flushed-prefix crash
//!   semantics, per-transaction `prev_lsn` chains, and the pins and
//!   range copies WAL subscribers ship from.
//! * [`recovery`] — the analysis / redo / undo driver, generic over a
//!   [`recovery::RecoveryTarget`] implemented by the engine. The same
//!   undo pass performs normal transaction rollback, the target writing
//!   compensation log records (CLRs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod log;
pub mod record;
pub mod recovery;

pub use codec::{decode_record, decode_records, encode_record, encode_records, RecordHeader};
pub use log::{LogManager, LogPin, WalStats};
pub use record::{LogPayload, LogRecord, RecKind, SideFileOp};
pub use recovery::{
    checkpoint_redo_start, recover, undo, AnalysisResult, Loser, RecoveryStats, RecoveryTarget,
};
