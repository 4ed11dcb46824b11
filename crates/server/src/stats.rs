//! The server's own counters (everything the engine's registry does
//! not already count), exposed over the wire via `Request::Stats` /
//! `Request::Metrics` and over HTTP at `/metrics`.

use mohan_common::stats::{Counter, ShardDist};

/// Server-side counters, exposed over the wire via `Request::Stats`.
#[derive(Debug)]
pub struct ServerStats {
    /// Connections accepted.
    pub conns_accepted: Counter,
    /// Connections refused at the `max_connections` cap.
    pub conns_rejected: Counter,
    /// Connections closed (any reason).
    pub conns_closed: Counter,
    /// Connections closed by the idle timeout.
    pub idle_closed: Counter,
    /// Connections closed by the write (slow-client) timeout.
    pub slow_closed: Counter,
    /// Requests executed (admitted past admission control).
    pub requests: Counter,
    /// Requests refused with `Busy`.
    pub busy_rejects: Counter,
    /// Requests refused with `DeadlineExceeded` before execution.
    pub deadline_rejects: Counter,
    /// Requests that executed but finished past their deadline.
    pub deadline_overruns: Counter,
    /// Frames that failed to decode.
    pub malformed: Counter,
    /// `CreateIndex` builds started.
    pub builds_started: Counter,
    /// Builds finished successfully.
    pub builds_done: Counter,
    /// Builds that returned an error.
    pub builds_failed: Counter,
    /// Progress frames streamed.
    pub progress_frames: Counter,
    /// Metrics frames streamed to `ObserveStats` subscribers.
    pub observe_frames: Counter,
    /// `SubscribeWal` subscriptions accepted.
    pub wal_subs: Counter,
    /// WAL frames streamed to subscribers (heartbeats included).
    pub wal_frames: Counter,
    /// Log records shipped inside those frames.
    pub wal_records: Counter,
    /// Open transactions rolled back by a drain.
    pub drain_rollbacks: Counter,
    /// Times a shard's event loop returned from its backend's `wait`:
    /// for a socket event, a timer deadline, or a wake from another
    /// thread. An idle shard holds this flat however many connections
    /// it owns.
    pub wakeups: Counter,
    /// Accept-loop errors (excluding `WouldBlock`), whether transient
    /// or resource exhaustion.
    pub accept_errors: Counter,
    /// Connections handed to a shard's executor thread because a
    /// queued frame could block on engine locks (the event loop never
    /// sits in a lock wait).
    pub exec_offloads: Counter,
    /// Connection count per worker shard.
    pub conn_shards: ShardDist,
}

impl ServerStats {
    pub(crate) fn new(workers: usize) -> ServerStats {
        ServerStats {
            conns_accepted: Counter::default(),
            conns_rejected: Counter::default(),
            conns_closed: Counter::default(),
            idle_closed: Counter::default(),
            slow_closed: Counter::default(),
            requests: Counter::default(),
            busy_rejects: Counter::default(),
            deadline_rejects: Counter::default(),
            deadline_overruns: Counter::default(),
            malformed: Counter::default(),
            builds_started: Counter::default(),
            builds_done: Counter::default(),
            builds_failed: Counter::default(),
            progress_frames: Counter::default(),
            observe_frames: Counter::default(),
            wal_subs: Counter::default(),
            wal_frames: Counter::default(),
            wal_records: Counter::default(),
            drain_rollbacks: Counter::default(),
            wakeups: Counter::default(),
            accept_errors: Counter::default(),
            exec_offloads: Counter::default(),
            conn_shards: ShardDist::new(workers.max(1)),
        }
    }

    /// Flat `(name, value)` snapshot for the `Stats` response.
    #[must_use]
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let mut out = vec![
            ("server.conns_accepted".into(), self.conns_accepted.get()),
            ("server.conns_rejected".into(), self.conns_rejected.get()),
            ("server.conns_closed".into(), self.conns_closed.get()),
            ("server.idle_closed".into(), self.idle_closed.get()),
            ("server.slow_closed".into(), self.slow_closed.get()),
            ("server.requests".into(), self.requests.get()),
            ("server.busy_rejects".into(), self.busy_rejects.get()),
            (
                "server.deadline_rejects".into(),
                self.deadline_rejects.get(),
            ),
            (
                "server.deadline_overruns".into(),
                self.deadline_overruns.get(),
            ),
            ("server.malformed".into(), self.malformed.get()),
            ("server.builds_started".into(), self.builds_started.get()),
            ("server.builds_done".into(), self.builds_done.get()),
            ("server.builds_failed".into(), self.builds_failed.get()),
            ("server.progress_frames".into(), self.progress_frames.get()),
            ("server.observe_frames".into(), self.observe_frames.get()),
            ("server.wal_subs".into(), self.wal_subs.get()),
            ("server.wal_frames".into(), self.wal_frames.get()),
            ("server.wal_records".into(), self.wal_records.get()),
            ("server.drain_rollbacks".into(), self.drain_rollbacks.get()),
            ("server.wakeups".into(), self.wakeups.get()),
            ("server.accept_errors".into(), self.accept_errors.get()),
            ("server.exec_offloads".into(), self.exec_offloads.get()),
        ];
        for (i, n) in self.conn_shards.snapshot().into_iter().enumerate() {
            out.push((format!("server.conn_shard.{i}"), n));
        }
        out
    }
}
