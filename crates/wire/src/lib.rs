//! The engine's wire protocol: a dependency-free, length-prefixed
//! binary framing with typed request/response messages.
//!
//! The repo's north star is a system that serves client traffic, not a
//! library driven by in-process function calls — and the paper's
//! availability claims (§2.2.1, §3.2.1, §4: SF builds at zero quiesce,
//! NSF at a short descriptor quiesce) are only observable *as clients
//! experience them* if `CREATE INDEX` runs while DML arrives over a
//! connection. This crate defines what travels on that connection:
//!
//! * [`frame`] — `[u32 BE length][payload]` framing with a hard size
//!   cap, blocking read/write helpers and an incremental splitter for
//!   non-blocking servers.
//! * [`message`] — [`message::Request`] / [`message::Response`] enums
//!   covering transactions (`Begin`/`Commit`/`Rollback`), DML
//!   (`Insert`/`Update`/`Delete`/`Read`/`Lookup`), online index builds
//!   (`CreateIndex` answered by a stream of
//!   [`message::Response::Progress`] frames, then
//!   [`message::Response::IndexCreated`]), server stats, and
//!   structured errors ([`message::ErrorCode`] mapped from
//!   [`mohan_common::Error`]).
//!
//! The bytes come from [`mohan_common::codec`], the one codec the
//! engine also stores its log, checkpoints, catalog and pages with: a
//! `Wire` impl per field type (ints, the strict 0/1 `bool`, strings,
//! byte strings, `u16`-counted lists, pairs) and the
//! [`mohan_common::wire_enum!`] macro. Everything encodes to explicit
//! bytes (no `serde`, no proc-macro derives). The protocol's
//! compatibility surface is one place to audit: the `wire_enum!`
//! tables in `src/message.rs`, where each message is **one row** —
//! doc comment, `Variant = tag`, an optional `[may_block]`, and the
//! fields in wire order. The enum, encoder, decoder, `NAMES`/`index()`
//! /`name()` and the blocking classification are generated from that
//! row, so nothing else lists the variants. To add a message, add a
//! row with an unused tag (tags are never renumbered or reused), add
//! a sample of it to the tests' `sample_requests()`/
//! `sample_responses()` and its line to
//! `src/golden_frames.txt` (the `golden_frames` test prints the line
//! it expected), and bump [`PROTO_MINOR`] with a history note. The
//! two encodings older peers send that the tables do not describe are
//! two commented arms at the top of [`Request::decode`].

#![warn(missing_docs)]

pub mod frame;
pub mod message;

pub use frame::{read_frame, take_frame, write_frame, FrameError, MAX_FRAME};
pub use message::{
    encode_traced, error_code_of, peel_traced, proto_major, proto_version, BuildAlgorithm,
    BuildPhase, ErrorCode, IndexSpec, Request, Response, Role, PROTO_MAJOR, PROTO_MINOR,
    REQ_TRACED,
};
