//! Transaction lock manager.
//!
//! The paper's execution model has transactions "do their usual
//! latching and locking" while the index builder acquires almost no
//! locks — that asymmetry is the whole point ("this execution model
//! permits very high concurrency and decreases CPU overhead", §1.1).
//! The lock manager provides what the algorithms need:
//!
//! * **S/X record locks** held to commit (strict two-phase locking) by
//!   ordinary transactions. With *data-only locking* (§6.2, ARIES/IM)
//!   a key lock and the lock on the record it came from are the same
//!   lock, so there is no separate key-lock namespace.
//! * **Table locks**: NSF's short quiesce acquires S on the table
//!   while update transactions hold IX (§2.2.1); dropping or
//!   cancelling an index build does the same (§2.3.2, footnote 6).
//! * **Conditional and instant requests**: garbage collection of
//!   pseudo-deleted keys asks for a *conditional instant* S lock — if
//!   it cannot be granted at once, the key's delete is probably
//!   uncommitted and the key is skipped (§2.2.4).
//! * **Timeout-based deadlock resolution**: a request that waits
//!   longer than the configured timeout aborts with
//!   [`Error::LockTimeout`], whose text names the holders in the way.
//!
//! # Table lifetime
//!
//! The table holds an entry for a name **iff some transaction holds it
//! or is queued for it**. The table is [`LOCK_SHARDS`] hash maps, each
//! behind its own mutex, whose *values* are the grant state; the
//! releasing critical section that empties an entry removes it, a
//! queued ticket keeps its entry alive, and requests that grant
//! nothing (`try_instant`, `instant`, `holders`, a denied `try_lock`,
//! an `unlock` of a name not held) never insert one. A release wakes
//! the shard's waiters only when the entry it touched has tickets
//! queued, so the uncontended lock → release path makes no syscall.

#![warn(missing_docs)]

use mohan_common::stats::Counter;
use mohan_common::{Error, Result, Rid, TableId, TxId};
use mohan_obs::{Histogram, TraceSink};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::hash_map::{Entry, OccupiedEntry};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Partitions of the lock table (by name) and of the per-transaction
/// held lists (by transaction id). A power of two.
pub const LOCK_SHARDS: usize = 16;

/// Lock modes. `IX` is the intent mode update transactions hold on a
/// table; it conflicts with `S` and `X` table locks but not with other
/// `IX` holders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Share.
    S,
    /// Exclusive.
    X,
    /// Intent-exclusive (table level only).
    IX,
}

impl LockMode {
    fn compatible(self, other: LockMode) -> bool {
        use LockMode::{IX, S};
        matches!((self, other), (S, S) | (IX, IX))
    }
}

/// Names of lockable resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockName {
    /// Whole-table lock (quiesce, drop-index, descriptor create).
    Table(TableId),
    /// Record lock; with data-only locking this also protects every
    /// key derived from the record.
    Record(TableId, Rid),
}

impl LockName {
    /// The table shard this name lives in: Fibonacci hashing of the
    /// packed ids (the page cache's shard function), so consecutive
    /// slots and pages land on different shards.
    fn shard(&self) -> usize {
        let packed = match *self {
            LockName::Table(t) => u64::from(t.0) << 48 | 0xFFFF_FFFF_FFFF,
            LockName::Record(t, r) => {
                u64::from(t.0) << 48 | u64::from(r.page.0) << 16 | u64::from(r.slot.0)
            }
        };
        (packed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize & (LOCK_SHARDS - 1)
    }
}

impl std::fmt::Display for LockName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockName::Table(t) => write!(f, "table({t})"),
            LockName::Record(t, r) => write!(f, "record({t},{r})"),
        }
    }
}

/// One transaction's grant on a name; `count` supports re-entrant
/// requests.
#[derive(Debug, Clone, Copy)]
struct Holder {
    tx: TxId,
    mode: LockMode,
    count: u32,
}

/// Grant state of one name: the value of a shard's map, decided on
/// under that shard's mutex. One holder lives inline, so an
/// uncontended X or the first IX allocates nothing; neither `Vec`
/// allocates until a second holder or a first waiter arrives.
#[derive(Debug, Default)]
struct Grants {
    first: Option<Holder>,
    /// Further holders; non-empty only while `first` is `Some`.
    more: Vec<Holder>,
    /// FIFO waiter tickets; new grants are blocked while strangers
    /// wait ahead, so a quiesce S request cannot starve under a
    /// stream of IX holders.
    waiters: Vec<u64>,
}

impl Grants {
    fn holders(&self) -> impl Iterator<Item = &Holder> {
        self.first.iter().chain(&self.more)
    }

    fn holder_mut(&mut self, tx: TxId) -> Option<&mut Holder> {
        self.first
            .iter_mut()
            .chain(&mut self.more)
            .find(|h| h.tx == tx)
    }

    fn compatible_with_holders(&self, tx: TxId, mode: LockMode) -> bool {
        self.holders()
            .all(|h| h.tx == tx || h.mode.compatible(mode))
    }

    /// Immediate grantability for a newcomer: compatible with the
    /// holders AND nobody is queued ahead (unless the requester
    /// already holds the resource — re-entrant requests and upgrades
    /// never queue behind strangers).
    fn can_grant(&self, tx: TxId, mode: LockMode) -> bool {
        let already_holder = self.holders().any(|h| h.tx == tx);
        self.compatible_with_holders(tx, mode) && (already_holder || self.waiters.is_empty())
    }

    /// Grantability for the waiter holding `ticket`: compatible with
    /// holders and first in the queue.
    fn can_grant_ticket(&self, tx: TxId, mode: LockMode, ticket: u64) -> bool {
        self.compatible_with_holders(tx, mode) && self.waiters.first() == Some(&ticket)
    }

    fn dequeue(&mut self, ticket: u64) {
        self.waiters.retain(|&t| t != ticket);
    }

    /// Grant `mode` to `tx`; true when `tx` did not hold the name
    /// before (its 0 → 1 grant).
    fn grant(&mut self, tx: TxId, mode: LockMode) -> bool {
        // Upgrade in place if the tx already holds the resource in a
        // weaker or equal mode.
        if let Some(h) = self.holder_mut(tx) {
            if mode == LockMode::X {
                h.mode = LockMode::X;
            }
            h.count += 1;
            return false;
        }
        let h = Holder { tx, mode, count: 1 };
        match self.first {
            None => self.first = Some(h),
            Some(_) => self.more.push(h),
        }
        true
    }

    /// Drop one grant of `tx`: `None` if it holds nothing here, else
    /// whether that was its last.
    fn release_once(&mut self, tx: TxId) -> Option<bool> {
        let h = self.holder_mut(tx)?;
        h.count -= 1;
        let gone = h.count == 0;
        if gone {
            self.release_all_of(tx);
        }
        Some(gone)
    }

    fn release_all_of(&mut self, tx: TxId) {
        if self.first.is_some_and(|h| h.tx == tx) {
            self.first = self.more.pop();
        } else if let Some(i) = self.more.iter().position(|h| h.tx == tx) {
            self.more.swap_remove(i);
        }
    }

    /// Who is in the way of `ticket`, for a timeout's error text.
    fn blockers(&self, ticket: u64) -> String {
        let mut s = String::from("held by [");
        for (i, h) in self.holders().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            let _ = write!(s, "{sep}{}:{:?}", h.tx, h.mode);
        }
        let ahead = self.waiters.iter().take_while(|&&t| t != ticket).count();
        let _ = write!(s, "], {ahead} ahead in a queue of {}", self.waiters.len());
        s
    }
}

/// Leave `entry` as the table's rule wants it after a holder or a
/// ticket left: removed if nothing holds or awaits the name. Returns
/// whether tickets remain queued, i.e. whether the shard's waiters
/// must be woken to re-check.
fn settle(entry: OccupiedEntry<'_, LockName, Grants>) -> bool {
    let g = entry.get();
    if g.first.is_none() && g.waiters.is_empty() {
        entry.remove();
        return false;
    }
    !g.waiters.is_empty()
}

#[derive(Debug, Default)]
struct ShardState {
    entries: HashMap<LockName, Grants>,
    /// Never reset, so a ticket stays unique in its shard even across
    /// `crash()` and its entry's removal and recreation.
    next_ticket: u64,
}

/// One partition: a slice of the lock table, chosen by name, and a
/// slice of the held lists, chosen by transaction id. Every waiter on
/// a name in the shard sleeps on `cv`; a wake-up for another name's
/// release is harmless, the waiter re-checks its own ticket.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Shard {
    state: Mutex<ShardState>,
    cv: Condvar,
    /// Names each transaction holds, once per name, for `release_all`.
    held: Mutex<HashMap<TxId, Vec<LockName>>>,
}

/// Lock-manager event counters (the paper's pathlength arguments count
/// lock calls saved, so we count them made).
#[derive(Debug, Default)]
pub struct LockStats {
    /// Lock calls (all kinds).
    pub calls: Counter,
    /// Calls that had to wait.
    pub waits: Counter,
    /// Waits that timed out (treated as deadlock).
    pub timeouts: Counter,
    /// Conditional requests denied immediately.
    pub conditional_denials: Counter,
    /// Time spent queued behind other holders, per wait (µs).
    /// `Arc` so an observability registry can adopt it.
    pub wait_us: Arc<Histogram>,
}

/// The lock manager.
pub struct LockManager {
    shards: Box<[Shard]>,
    timeout: Duration,
    /// Trace ring for `lock.wait` spans — which trace waited, on what
    /// resource, for how long. Set once by the engine's observability
    /// registration; absent in bare unit tests.
    trace_sink: OnceLock<Arc<TraceSink>>,
    /// Event counters.
    pub stats: LockStats,
}

impl LockManager {
    /// Create a manager with the given wait timeout.
    #[must_use]
    pub fn new(timeout: Duration) -> LockManager {
        LockManager {
            shards: (0..LOCK_SHARDS).map(|_| Shard::default()).collect(),
            timeout,
            trace_sink: OnceLock::new(),
            stats: LockStats::default(),
        }
    }

    /// Adopt the trace ring `lock.wait` spans record into. Set once at
    /// engine construction; later calls are ignored.
    pub fn set_trace_sink(&self, sink: Arc<TraceSink>) {
        let _ = self.trace_sink.set(sink);
    }

    /// Record a finished lock wait as a span of the current sampled
    /// trace (detail 1 = the wait timed out). Guarded on the context
    /// so untraced waits cost one thread-local read, and do not churn
    /// the bounded ring.
    fn trace_wait(&self, label: &dyn std::fmt::Display, started: Instant, timed_out: bool) {
        if mohan_obs::current_ctx().is_some_and(|c| c.sampled) {
            if let Some(sink) = self.trace_sink.get() {
                sink.span_event(
                    "lock.wait",
                    label.to_string(),
                    started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
                    u64::from(timed_out),
                );
            }
        }
    }

    fn held_of(&self, tx: TxId) -> &Mutex<HashMap<TxId, Vec<LockName>>> {
        &self.shards[tx.0 as usize & (LOCK_SHARDS - 1)].held
    }

    /// Record `tx`'s first grant on `name`.
    fn note_held(&self, tx: TxId, name: LockName) {
        self.held_of(tx).lock().entry(tx).or_default().push(name);
    }

    /// The one request path: grant `name` to `tx` in `mode`, at once
    /// (`wait` false: or fail with [`Error::LockBusy`]) or after
    /// queueing FIFO up to the timeout; `retain` false tests
    /// grantability without keeping the lock, and so never inserts.
    fn request(
        &self,
        tx: TxId,
        name: LockName,
        mode: LockMode,
        wait: bool,
        retain: bool,
    ) -> Result<()> {
        self.stats.calls.bump();
        let shard = &self.shards[name.shard()];
        let mut st = shard.state.lock();
        let ShardState {
            entries,
            next_ticket,
        } = &mut *st;
        let newly_held = match entries.entry(name) {
            Entry::Vacant(v) => {
                if retain {
                    v.insert(Grants::default()).grant(tx, mode);
                }
                retain
            }
            Entry::Occupied(mut o) if o.get().can_grant(tx, mode) => {
                retain && o.get_mut().grant(tx, mode)
            }
            Entry::Occupied(o) if wait => {
                let ticket = *next_ticket;
                *next_ticket += 1;
                o.into_mut().waiters.push(ticket);
                return self.wait_turn(st, ticket, tx, name, mode, retain);
            }
            Entry::Occupied(_) => {
                self.stats.conditional_denials.bump();
                return Err(Error::LockBusy);
            }
        };
        drop(st);
        if newly_held {
            self.note_held(tx, name);
        }
        Ok(())
    }

    /// Sleep on the shard's condvar until `ticket`, already queued on
    /// `name`'s entry, is first and compatible with the holders, or
    /// the timeout passes. The ticket keeps the entry in the table;
    /// whichever way the wait ends, the ticket leaves and the entry is
    /// settled in that same critical section.
    fn wait_turn(
        &self,
        mut st: MutexGuard<'_, ShardState>,
        ticket: u64,
        tx: TxId,
        name: LockName,
        mode: LockMode,
        retain: bool,
    ) -> Result<()> {
        self.stats.waits.bump();
        let shard = &self.shards[name.shard()];
        let started = Instant::now();
        let deadline = started + self.timeout;
        let mut timed_out = false;
        let granted = loop {
            match st.entries.get(&name) {
                Some(g) if g.can_grant_ticket(tx, mode, ticket) => break true,
                Some(g) if !timed_out && g.waiters.contains(&ticket) => {}
                // Timed out, or `crash()` took the ticket with the table.
                _ => break false,
            }
            timed_out = shard.cv.wait_until(&mut st, deadline).timed_out();
        };
        let mut newly_held = false;
        let mut blockers = None;
        let mut wake = false;
        if let Entry::Occupied(mut o) = st.entries.entry(name) {
            let g = o.get_mut();
            if granted {
                newly_held = retain && g.grant(tx, mode);
            } else if g.waiters.contains(&ticket) {
                blockers = Some(g.blockers(ticket));
            }
            g.dequeue(ticket);
            wake = settle(o);
        }
        drop(st);
        if wake {
            shard.cv.notify_all();
        }
        self.stats.wait_us.record_micros(started.elapsed());
        if granted {
            self.trace_wait(&name, started, false);
            if newly_held {
                self.note_held(tx, name);
            }
            return Ok(());
        }
        self.stats.timeouts.bump();
        let blockers = blockers.as_deref().unwrap_or("gone from the table (crash)");
        let name = format!("{name} {blockers}");
        self.trace_wait(&name, started, true);
        Err(Error::LockTimeout { tx, name })
    }

    /// Acquire `name` in `mode`, waiting (FIFO) up to the configured
    /// timeout.
    pub fn lock(&self, tx: TxId, name: LockName, mode: LockMode) -> Result<()> {
        self.request(tx, name, mode, true, true)
    }

    /// Conditional request: grant immediately or fail with
    /// [`Error::LockBusy`].
    pub fn try_lock(&self, tx: TxId, name: LockName, mode: LockMode) -> Result<()> {
        self.request(tx, name, mode, false, true)
    }

    /// Conditional *instant* request: test grantability without
    /// retaining the lock (the paper's "conditional instant share
    /// lock", §2.2.4).
    pub fn try_instant(&self, tx: TxId, name: LockName, mode: LockMode) -> Result<()> {
        self.request(tx, name, mode, false, false)
    }

    /// Instant request with waiting: waits (FIFO) until grantable,
    /// then returns without retaining the lock. Used for "wait until
    /// that transaction finishes" checks (unique-violation
    /// arbitration).
    pub fn instant(&self, tx: TxId, name: LockName, mode: LockMode) -> Result<()> {
        self.request(tx, name, mode, true, false)
    }

    /// Release one grant of `name` held by `tx` (short locks such as
    /// the NSF descriptor-create table lock).
    pub fn unlock(&self, tx: TxId, name: &LockName) {
        let shard = &self.shards[name.shard()];
        let mut st = shard.state.lock();
        let Entry::Occupied(mut o) = st.entries.entry(*name) else {
            return;
        };
        if o.get_mut().release_once(tx) != Some(true) {
            return;
        }
        let wake = settle(o);
        drop(st);
        if wake {
            shard.cv.notify_all();
        }
        let mut held = self.held_of(tx).lock();
        if let Entry::Occupied(mut names) = held.entry(tx) {
            if let Some(i) = names.get().iter().position(|n| n == name) {
                names.get_mut().swap_remove(i);
            }
            if names.get().is_empty() {
                names.remove();
            }
        }
    }

    /// Release everything `tx` holds (commit / abort / crash cleanup).
    pub fn release_all(&self, tx: TxId) {
        let Some(names) = self.held_of(tx).lock().remove(&tx) else {
            return;
        };
        for name in names {
            let shard = &self.shards[name.shard()];
            let mut st = shard.state.lock();
            let Entry::Occupied(mut o) = st.entries.entry(name) else {
                continue;
            };
            o.get_mut().release_all_of(tx);
            let wake = settle(o);
            drop(st);
            if wake {
                shard.cv.notify_all();
            }
        }
    }

    /// Drop every lock (crash simulation: the lock table is volatile).
    /// A request still queued finds its ticket gone and fails as a
    /// timeout would.
    pub fn crash(&self) {
        for shard in &*self.shards {
            shard.state.lock().entries.clear();
            shard.cv.notify_all();
            shard.held.lock().clear();
        }
    }

    /// Modes in which `name` is currently held (diagnostics/tests).
    #[must_use]
    pub fn holders(&self, name: &LockName) -> Vec<(TxId, LockMode)> {
        let st = self.shards[name.shard()].state.lock();
        st.entries
            .get(name)
            .map(|g| g.holders().map(|h| (h.tx, h.mode)).collect())
            .unwrap_or_default()
    }

    /// Names in each table shard: those some transaction holds or is
    /// queued for, and no others.
    #[must_use]
    pub fn entries_per_shard(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.state.lock().entries.len() as u64)
            .collect()
    }

    /// Names in the table, summed over shards (gauge `lock.entries`).
    #[must_use]
    pub fn entries(&self) -> u64 {
        self.entries_per_shard().iter().sum()
    }

    /// Names on transactions' held lists, each `(tx, name)` once
    /// (gauge `lock.held_names`): what `release_all` will walk.
    #[must_use]
    pub fn held_names(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.held.lock().values().map(|v| v.len() as u64).sum::<u64>())
            .sum()
    }

    /// Tickets queued on `name`.
    #[cfg(test)]
    pub(crate) fn queued(&self, name: &LockName) -> usize {
        let st = self.shards[name.shard()].state.lock();
        st.entries.get(name).map_or(0, |g| g.waiters.len())
    }
}

impl std::fmt::Debug for LockManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockManager")
            .field("timeout", &self.timeout)
            .finish()
    }
}

#[cfg(test)]
mod recycle_tests;

// Older than `LockName: Copy`, and kept as they were.
#[cfg(test)]
#[allow(clippy::clone_on_copy)]
mod tests {
    use super::*;
    use std::thread;

    fn mgr() -> LockManager {
        LockManager::new(Duration::from_millis(100))
    }

    fn rec(n: u16) -> LockName {
        LockName::Record(TableId(1), Rid::new(1, n))
    }

    #[test]
    fn share_locks_coexist() {
        let m = mgr();
        m.lock(TxId(1), rec(1), LockMode::S).unwrap();
        m.lock(TxId(2), rec(1), LockMode::S).unwrap();
        assert_eq!(m.holders(&rec(1)).len(), 2);
    }

    #[test]
    fn exclusive_conflicts_and_times_out() {
        let m = mgr();
        m.lock(TxId(1), rec(1), LockMode::X).unwrap();
        let err = m.lock(TxId(2), rec(1), LockMode::X).unwrap_err();
        assert!(matches!(err, Error::LockTimeout { tx: TxId(2), .. }));
        assert_eq!(m.stats.timeouts.get(), 1);
    }

    #[test]
    fn reentrant_and_upgrade() {
        let m = mgr();
        m.lock(TxId(1), rec(1), LockMode::S).unwrap();
        m.lock(TxId(1), rec(1), LockMode::X).unwrap(); // sole holder: upgrade ok
        assert_eq!(m.holders(&rec(1)), vec![(TxId(1), LockMode::X)]);
        // Another tx now conflicts even on S.
        assert!(m.try_lock(TxId(2), rec(1), LockMode::S).is_err());
    }

    #[test]
    fn unlock_releases_one_grant() {
        let m = mgr();
        m.lock(TxId(1), rec(1), LockMode::X).unwrap();
        m.lock(TxId(1), rec(1), LockMode::X).unwrap();
        m.unlock(TxId(1), &rec(1));
        // Still held once.
        assert!(m.try_lock(TxId(2), rec(1), LockMode::S).is_err());
        m.unlock(TxId(1), &rec(1));
        assert!(m.try_lock(TxId(2), rec(1), LockMode::S).is_ok());
    }

    #[test]
    fn release_all_unblocks_waiter() {
        let m = Arc::new(mgr());
        m.lock(TxId(1), rec(1), LockMode::X).unwrap();
        let m2 = Arc::clone(&m);
        let h = thread::spawn(move || m2.lock(TxId(2), rec(1), LockMode::X));
        thread::sleep(Duration::from_millis(20));
        m.release_all(TxId(1));
        assert!(h.join().unwrap().is_ok());
    }

    #[test]
    fn conditional_instant_share_detects_uncommitted_delete() {
        let m = mgr();
        // Deleter still holds X: GC's conditional instant S is denied.
        m.lock(TxId(1), rec(7), LockMode::X).unwrap();
        assert_eq!(
            m.try_instant(TxId(9), rec(7), LockMode::S),
            Err(Error::LockBusy)
        );
        m.release_all(TxId(1));
        // Committed: grantable, and nothing is retained.
        m.try_instant(TxId(9), rec(7), LockMode::S).unwrap();
        assert!(m.holders(&rec(7)).is_empty());
    }

    #[test]
    fn table_quiesce_s_vs_ix() {
        let m = mgr();
        let t = LockName::Table(TableId(1));
        // Two updaters hold IX together.
        m.lock(TxId(1), t.clone(), LockMode::IX).unwrap();
        m.lock(TxId(2), t.clone(), LockMode::IX).unwrap();
        // IB's quiesce S must wait.
        assert!(m.try_lock(TxId(9), t.clone(), LockMode::S).is_err());
        m.release_all(TxId(1));
        m.release_all(TxId(2));
        m.lock(TxId(9), t.clone(), LockMode::S).unwrap();
        // New updater blocks until IB releases.
        assert!(m.try_lock(TxId(3), t.clone(), LockMode::IX).is_err());
        m.unlock(TxId(9), &t);
        assert!(m.try_lock(TxId(3), t, LockMode::IX).is_ok());
    }

    #[test]
    fn instant_waits_for_commit() {
        let m = Arc::new(mgr());
        m.lock(TxId(1), rec(3), LockMode::X).unwrap();
        let m2 = Arc::clone(&m);
        let h = thread::spawn(move || m2.instant(TxId(2), rec(3), LockMode::S));
        thread::sleep(Duration::from_millis(20));
        m.release_all(TxId(1));
        assert!(h.join().unwrap().is_ok());
        assert!(m.holders(&rec(3)).is_empty());
    }

    #[test]
    fn crash_clears_everything() {
        let m = mgr();
        m.lock(TxId(1), rec(1), LockMode::X).unwrap();
        m.crash();
        assert!(m.try_lock(TxId(2), rec(1), LockMode::X).is_ok());
    }

    #[test]
    fn waits_under_sampled_ctx_record_lock_wait_spans() {
        let m = Arc::new(mgr());
        let sink = Arc::new(TraceSink::new(32));
        m.set_trace_sink(Arc::clone(&sink));
        m.lock(TxId(1), rec(1), LockMode::X).unwrap();
        let m2 = Arc::clone(&m);
        let h = thread::spawn(move || {
            let _g = mohan_obs::install_ctx(mohan_obs::TraceCtx {
                trace_id: 0x77,
                span_id: 0,
                sampled: true,
            });
            m2.lock(TxId(2), rec(1), LockMode::X)
        });
        thread::sleep(Duration::from_millis(20));
        m.release_all(TxId(1));
        h.join().unwrap().unwrap();
        let evs: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| e.kind == "lock.wait")
            .collect();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].trace_id, 0x77);
        assert_eq!(evs[0].detail, 0); // granted, not timed out
        assert!(evs[0].dur_us >= 10_000);
        assert!(evs[0].label.contains("record"));
        // A timeout wait tags detail 1.
        m.lock(TxId(3), rec(2), LockMode::X).unwrap();
        {
            let _g = mohan_obs::install_ctx(mohan_obs::TraceCtx {
                trace_id: 0x78,
                span_id: 0,
                sampled: true,
            });
            assert!(m.lock(TxId(4), rec(2), LockMode::X).is_err());
        }
        let timed: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| e.kind == "lock.wait" && e.trace_id == 0x78)
            .collect();
        assert_eq!(timed.len(), 1);
        assert_eq!(timed[0].detail, 1);
    }

    #[test]
    fn stress_many_txs_single_resource() {
        let m = Arc::new(LockManager::new(Duration::from_secs(5)));
        let counter = Arc::new(Mutex::new(0u32));
        let mut handles = Vec::new();
        for t in 0..16u64 {
            let m = Arc::clone(&m);
            let c = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for _ in 0..50 {
                    m.lock(TxId(t), rec(0), LockMode::X).unwrap();
                    {
                        let mut g = c.lock();
                        *g += 1;
                    }
                    m.release_all(TxId(t));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 800);
    }
}
