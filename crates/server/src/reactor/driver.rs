//! The event-driven shard loop: one [`IoBackend`] instance per shard
//! drives every connection the shard owns.
//!
//! Each connection's fd is registered under its slab index; the wake
//! pipe is registered under [`WAKE_TOKEN`]. The loop blocks in
//! `wait` until a socket is ready, a timer-wheel deadline arrives, or
//! someone wakes the shard (new connection handed off, connection back
//! from the executor, build result deposited, WAL flushed with live
//! subscribers, drain started). An idle shard therefore makes *zero*
//! wakeups — the number the `server.wakeups` counter exists to expose.
//!
//! Whatever the reason a connection needs attention, it gets the same
//! treatment: one [`conn::service`] pass, then either a hand-off to
//! the executor or its interest and timer brought up to date
//! ([`Shard::service`]).
//!
//! Timer deadlines are coarse (1ms wheel) one-shot hints: when one
//! fires the connection is re-examined and re-armed from its actual
//! state (see [`Conn::next_deadline`]). Write interest is registered
//! only while a connection has an unwritten backlog, so a writable
//! socket never busy-wakes the shard under level triggering.
//!
//! # The executor thread
//!
//! The event loop itself never waits on an engine lock. Frames whose
//! opcode can acquire locks (DML, reads, index builds — see
//! [`mohan_wire::message::Request::frame_may_block`]) are *checked
//! out*: the connection leaves the slab (fd deregistered) and runs on
//! the shard's executor thread, returning via a channel + wake when
//! its queue drains. Control frames (`Begin`/`Commit`/`Rollback`,
//! stats, subscriptions) run inline — they only ever *release* locks,
//! and keeping them runnable is what breaks the classic stall: one
//! connection's lock wait must not block the loop that would service
//! the peer's `Commit` holding the contended lock.

use super::timer::TimerWheel;
use super::{Event, Interest, IoBackend, WAKE_TOKEN};
use crate::conn::{self, Conn, Proto, ShardCtx};
use crate::Inner;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Wheel granularity: deadlines here bound 25ms+ intervals and
/// multi-second timeouts, not request latency.
const TIMER_GRANULARITY: Duration = Duration::from_millis(1);

/// While draining, cap the wait so drain progress (grace expiry,
/// write timeouts) is re-checked promptly even with no events.
const DRAIN_TICK: Duration = Duration::from_millis(5);

/// A slab entry: present on this loop, or checked out to the
/// executor thread (fd deregistered, token parked).
// Connections live inline in the slab; `Out` is a transient
// placeholder, so the size skew is intentional (boxing would cost an
// allocation per checkout round-trip).
#[allow(clippy::large_enum_variant)]
enum Slot {
    Live(Conn),
    Out,
}

/// Connection storage keyed by reactor token. Indexes are reused via
/// a free list, so tokens stay small and dense. Checked-out
/// connections keep their token (and count as live) so events, timer
/// fires, and reuse can't alias them while they are away.
struct Slab {
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    live: usize,
}

impl Slab {
    fn new() -> Slab {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    fn insert(&mut self, conn: Conn) -> usize {
        self.live += 1;
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(Slot::Live(conn));
                i
            }
            None => {
                self.slots.push(Some(Slot::Live(conn)));
                self.slots.len() - 1
            }
        }
    }

    /// The connection at `token`, unless absent or checked out.
    fn get_mut(&mut self, token: usize) -> Option<&mut Conn> {
        match self.slots.get_mut(token) {
            Some(Some(Slot::Live(conn))) => Some(conn),
            _ => None,
        }
    }

    /// Take the connection out for the executor, leaving the token
    /// parked.
    fn check_out(&mut self, token: usize) -> Option<Conn> {
        let slot = self.slots.get_mut(token)?;
        match slot.take() {
            Some(Slot::Live(conn)) => {
                *slot = Some(Slot::Out);
                Some(conn)
            }
            other => {
                *slot = other;
                None
            }
        }
    }

    /// Put a returned connection back under its parked token.
    fn check_in(&mut self, token: usize, conn: Conn) {
        debug_assert!(matches!(self.slots[token], Some(Slot::Out)));
        self.slots[token] = Some(Slot::Live(conn));
    }

    /// Remove a live connection (reaping).
    fn remove(&mut self, token: usize) -> Option<Conn> {
        match self.slots.get_mut(token)?.take() {
            Some(Slot::Live(conn)) => {
                self.free.push(token);
                self.live -= 1;
                Some(conn)
            }
            other => {
                self.slots[token] = other;
                None
            }
        }
    }

    /// Connections present on this loop (not checked out).
    fn live_conns(&mut self) -> impl Iterator<Item = &mut Conn> {
        self.slots.iter_mut().filter_map(|s| match s {
            Some(Slot::Live(conn)) => Some(conn),
            _ => None,
        })
    }

    /// Append to `out` the tokens of the connections present on this
    /// loop that `pred` picks.
    fn tokens_where(&self, out: &mut Vec<usize>, pred: impl Fn(&Conn) -> bool) {
        out.extend(self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Some(Slot::Live(conn)) if pred(conn) => Some(i),
            _ => None,
        }));
    }
}

/// One shard's event loop state.
struct Shard<'a> {
    inner: &'a Arc<Inner>,
    ctx: &'a ShardCtx,
    backend: Box<dyn IoBackend>,
    slab: Slab,
    wheel: TimerWheel,
    /// Connections on their way to the executor thread.
    exec_tx: mpsc::Sender<(usize, Conn)>,
}

/// Run one shard on `backend`, whose wake pipe (`wake_rx`) is already
/// registered, until a drain has emptied it.
pub(crate) fn run(
    inner: &Arc<Inner>,
    ctx: &ShardCtx,
    rx: &mpsc::Receiver<(TcpStream, Proto)>,
    backend: Box<dyn IoBackend>,
    wake_rx: &UnixStream,
) {
    // The executor: receives checked-out connections, runs their
    // queued frames (which may sit in lock waits), and hands them
    // back with a wake. One per shard — serial like the loop, but a
    // blocked statement here leaves the loop free to run the commits
    // and rollbacks that unblock it.
    let (exec_tx, exec_rx) = mpsc::channel::<(usize, Conn)>();
    let (ret_tx, ret_rx) = mpsc::channel::<(usize, Conn)>();
    let exec_handle = {
        let inner = Arc::clone(inner);
        let ctx = ctx.clone();
        std::thread::Builder::new()
            .name(format!("oib-exec-{}", ctx.shard))
            .spawn(move || {
                let waker = inner.shard_waker(ctx.shard);
                while let Ok((token, mut conn)) = exec_rx.recv() {
                    conn::run_pending(&inner, &ctx, &mut conn, inner.draining());
                    if ret_tx.send((token, conn)).is_err() {
                        return;
                    }
                    waker.wake();
                }
            })
            .expect("spawn executor thread")
    };

    let mut shard = Shard {
        inner,
        ctx,
        backend,
        slab: Slab::new(),
        wheel: TimerWheel::new(TIMER_GRANULARITY),
        exec_tx,
    };
    let mut events: Vec<Event> = Vec::new();
    let mut tokens: Vec<usize> = Vec::new();

    loop {
        let mut timeout = shard.wheel.next_deadline();
        if inner.draining() {
            timeout = Some(timeout.map_or(DRAIN_TICK, |t| t.min(DRAIN_TICK)));
        }
        if let Err(e) = shard.backend.wait(&mut events, timeout) {
            // A failing wait would otherwise spin; pace it and keep
            // the shard alive (timers still make progress).
            inner.db.obs.trace().event(
                "server.reactor_wait_error",
                format!("{}: {e}", shard.backend.name()),
                0,
            );
            std::thread::sleep(Duration::from_millis(1));
            events.clear();
        }
        inner.stats.wakeups.bump();
        inner.events_per_wait.record(events.len() as u64);
        let draining = inner.draining();

        let mut woke = false;
        for &ev in &events {
            if ev.token == WAKE_TOKEN {
                super::drain_wake(wake_rx);
                woke = true;
            } else {
                shard.service(ev.token, ev.readable || ev.failed, draining);
            }
        }

        // Connections handed off by an accept loop, and handed back by
        // the executor (each comes with a wake).
        while let Ok((stream, proto)) = rx.try_recv() {
            shard.adopt(stream, proto, draining);
        }
        while let Ok((token, conn)) = ret_rx.try_recv() {
            shard.take_back(token, conn, draining);
        }
        // A wake also means a job's other thread may have moved it: a
        // build result deposited, the WAL flushed past a subscriber.
        if woke {
            shard.slab.tokens_where(&mut tokens, Conn::wants_wake);
            for token in tokens.drain(..) {
                shard.service(token, false, draining);
            }
        }

        shard.wheel.expire(&mut tokens);
        for token in tokens.drain(..) {
            if let Some(conn) = shard.slab.get_mut(token) {
                conn.timer_at = None;
                shard.service(token, false, draining);
            }
        }

        if draining {
            conn::drain_mark(inner, shard.slab.live_conns());
        }
        shard.slab.tokens_where(&mut tokens, |c| c.dead);
        for token in tokens.drain(..) {
            if let Some(mut conn) = shard.slab.remove(token) {
                let _ = shard.backend.deregister(conn.stream.as_raw_fd());
                conn::reap_conn(inner, ctx, &mut conn);
            }
        }

        if draining && shard.slab.live == 0 {
            break;
        }
    }
    // live == 0 means nothing is checked out; closing the channel
    // stops the executor.
    drop(shard);
    let _ = exec_handle.join();
}

impl Shard<'_> {
    /// Service the connection at `token` (see [`conn::service`]), then
    /// decide where it waits next: on the executor thread when a
    /// lock-acquiring frame heads its queue, otherwise here, with its
    /// registered interest and its timer matching its state. Every
    /// reason to look at a connection — socket event, wake, timer
    /// fire, return from the executor, adoption — ends in this call.
    fn service(&mut self, token: usize, readable: bool, draining: bool) {
        let Some(conn) = self.slab.get_mut(token) else {
            return; // checked out, or reaped since the event was queued
        };
        if conn::service(self.inner, self.ctx, conn, readable, draining) {
            self.check_out(token);
        } else if !conn.dead {
            sync_interest(&mut *self.backend, conn, token);
            arm(self.inner, &mut self.wheel, conn, token);
        }
    }

    /// Take on a connection an accept loop handed off.
    fn adopt(&mut self, stream: TcpStream, proto: Proto, draining: bool) {
        if draining {
            // Accepted in the race window; EOF to the client.
            conn::uncount_conn(self.inner, self.ctx.shard, &proto);
            return;
        }
        let fd = stream.as_raw_fd();
        let token = self.slab.insert(Conn::new(stream, self.inner, proto));
        if self.backend.register(fd, token, Interest::READ).is_err() {
            self.slab.get_mut(token).expect("just inserted").dead = true;
        }
        self.service(token, false, draining);
    }

    /// Hand a connection with a lock-acquiring frame queued to the
    /// executor thread. If the executor is gone (send fails), run the
    /// frames here — correctness over responsiveness.
    fn check_out(&mut self, token: usize) {
        let Some(conn) = self.slab.check_out(token) else {
            return;
        };
        let _ = self.backend.deregister(conn.stream.as_raw_fd());
        self.inner.stats.exec_offloads.bump();
        if let Err(mpsc::SendError((token, mut conn))) = self.exec_tx.send((token, conn)) {
            let draining = self.inner.draining();
            conn::run_pending(self.inner, self.ctx, &mut conn, draining);
            self.take_back(token, conn, draining);
        }
    }

    /// Re-admit a connection the executor finished with: re-register
    /// its fd and service it — its job may have advanced while it was
    /// away, and a pipelined client may already have the next
    /// lock-acquiring frame queued, which sends it straight back out.
    fn take_back(&mut self, token: usize, mut conn: Conn, draining: bool) {
        // Whatever was armed for this token fired (or will fire stale)
        // while the connection was away, and nothing is registered.
        conn.timer_at = None;
        conn.want_write = false;
        let fd = conn.stream.as_raw_fd();
        if !conn.dead && self.backend.register(fd, token, Interest::READ).is_err() {
            conn.dead = true;
        }
        self.slab.check_in(token, conn);
        self.service(token, false, draining);
    }
}

/// Reconcile registered interest with the connection's actual state:
/// read always, write only while a backlog exists.
fn sync_interest(backend: &mut dyn IoBackend, conn: &mut Conn, token: usize) {
    let want = conn.has_backlog();
    if want != conn.want_write {
        let interest = if want {
            Interest::READ_WRITE
        } else {
            Interest::READ
        };
        if backend
            .modify(conn.stream.as_raw_fd(), token, interest)
            .is_ok()
        {
            conn.want_write = want;
        }
    }
}

/// Arm the wheel for the connection's earliest deadline if nothing
/// earlier is already pending for it. Entries are one-shot and never
/// cancelled; a stale fire is a cheap re-check.
fn arm(inner: &Arc<Inner>, wheel: &mut TimerWheel, conn: &mut Conn, token: usize) {
    let Some(at) = conn.next_deadline(&inner.cfg) else {
        return;
    };
    if conn.timer_at.is_some_and(|t| t <= at) {
        return; // an earlier (or equal) fire will re-arm from there
    }
    wheel.schedule(at.saturating_duration_since(Instant::now()), token);
    conn.timer_at = Some(at);
}
