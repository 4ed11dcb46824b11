//! The server's own counters (everything the engine's registry does
//! not already count). [`register`] puts them into the engine's
//! registry, so a `Metrics` snapshot and `/metrics` read them with
//! everything else.

use crate::Inner;
use mohan_common::stats::Counter;
use mohan_obs::Registry;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};

/// Declares [`ServerStats`] from one list: each counter is a field
/// and, under the same name prefixed `server.`, a metric.
macro_rules! server_counters {
    ($($(#[$doc:meta])* $field:ident),+ $(,)?) => {
        /// Server-side counters, each also in the engine's registry as
        /// `server.<field>`.
        #[derive(Debug)]
        pub struct ServerStats {
            $($(#[$doc])* pub $field: Arc<Counter>,)+
            /// Connections handed to each worker shard (cumulative).
            pub conn_shards: Vec<Counter>,
        }

        impl ServerStats {
            pub(crate) fn new(workers: usize) -> ServerStats {
                ServerStats {
                    $($field: Arc::default(),)+
                    conn_shards: (0..workers.max(1)).map(|_| Counter::new()).collect(),
                }
            }

            /// Adopt every counter into `obs` under `server.<field>`,
            /// replacing an earlier server's.
            fn adopt(&self, obs: &Registry) {
                $(obs.adopt_counter(
                    concat!("server.", stringify!($field)),
                    Arc::clone(&self.$field),
                );)+
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

/// Put the server's metrics into its engine's registry: the counters
/// as `server.<field>`, and two levels as gauges, `server.inflight`
/// and `server.conn_shard.<i>`.
pub(crate) fn register(inner: &Arc<Inner>) {
    let obs = &inner.db.obs;
    inner.stats.adopt(obs);
    obs.gauge_fn(
        "server.inflight",
        level(inner, |i| i.inflight.load(Ordering::Acquire) as u64),
    );
    for shard in 0..inner.stats.conn_shards.len() {
        obs.gauge_fn(
            &format!("server.conn_shard.{shard}"),
            level(inner, move |i| i.stats.conn_shards[shard].get()),
        );
    }
}

/// A gauge reading `read` of the server. It holds the server weakly,
/// since the engine's registry outlives it, and reads 0 once it is
/// gone.
fn level(
    inner: &Arc<Inner>,
    read: impl Fn(&Inner) -> u64 + Send + Sync + 'static,
) -> impl Fn() -> u64 + Send + Sync + 'static {
    let weak: Weak<Inner> = Arc::downgrade(inner);
    move || weak.upgrade().map_or(0, |inner| read(&inner))
}
