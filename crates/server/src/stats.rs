//! The server's own counters (everything the engine's registry does
//! not already count), exposed over the wire via `Request::Stats` /
//! `Request::Metrics` and over HTTP at `/metrics`.

use mohan_common::stats::{Counter, ShardDist};

/// Declares [`ServerStats`] from one list: each counter is a field
/// and, under the same name prefixed `server.`, a metric.
macro_rules! server_counters {
    ($($(#[$doc:meta])* $field:ident),+ $(,)?) => {
        /// Server-side counters, exposed over the wire via `Request::Stats`.
        #[derive(Debug)]
        pub struct ServerStats {
            $($(#[$doc])* pub $field: Counter,)+
            /// Connection count per worker shard.
            pub conn_shards: ShardDist,
        }

        impl ServerStats {
            pub(crate) fn new(workers: usize) -> ServerStats {
                ServerStats {
                    $($field: Counter::default(),)+
                    conn_shards: ShardDist::new(workers.max(1)),
                }
            }

            /// Flat `(name, value)` snapshot for the `Stats` response.
            #[must_use]
            pub fn snapshot(&self) -> Vec<(String, u64)> {
                let mut out = vec![
                    $((concat!("server.", stringify!($field)).into(), self.$field.get()),)+
                ];
                for (i, n) in self.conn_shards.snapshot().into_iter().enumerate() {
                    out.push((format!("server.conn_shard.{i}"), n));
                }
                out
            }
        }
    };
}

server_counters! {
    /// Connections accepted.
    conns_accepted,
    /// Connections refused at the `max_connections` cap.
    conns_rejected,
    /// Connections closed (any reason).
    conns_closed,
    /// Connections closed by the idle timeout.
    idle_closed,
    /// Connections closed by the write (slow-client) timeout.
    slow_closed,
    /// Requests executed (admitted past admission control).
    requests,
    /// Requests refused with `Busy`.
    busy_rejects,
    /// Requests refused with `DeadlineExceeded` before execution.
    deadline_rejects,
    /// Requests that executed but finished past their deadline.
    deadline_overruns,
    /// Frames that failed to decode.
    malformed,
    /// `CreateIndex` builds started.
    builds_started,
    /// Builds finished successfully.
    builds_done,
    /// Builds that returned an error.
    builds_failed,
    /// Progress frames streamed.
    progress_frames,
    /// Metrics frames streamed to `ObserveStats` subscribers.
    observe_frames,
    /// `SubscribeWal` subscriptions accepted.
    wal_subs,
    /// WAL frames streamed to subscribers (heartbeats included).
    wal_frames,
    /// Log records shipped inside those frames.
    wal_records,
    /// Open transactions rolled back by a drain.
    drain_rollbacks,
    /// Times a shard's event loop returned from its backend's `wait`:
    /// for a socket event, a timer deadline, or a wake from another
    /// thread. An idle shard holds this flat however many connections
    /// it owns.
    wakeups,
    /// Accept-loop errors (excluding `WouldBlock`), whether transient
    /// or resource exhaustion.
    accept_errors,
    /// Connections handed to a shard's executor thread because a
    /// queued frame could block on engine locks (the event loop never
    /// sits in a lock wait).
    exec_offloads,
}
