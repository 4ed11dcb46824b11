//! The table's lifetime rule under test: an entry exists iff the name
//! is held or queued for. Probes leave no trace, and an entry that is
//! removed and recreated thousands of times still excludes, still
//! queues FIFO, and still ends at zero. Interleavings are forced with
//! channels and `yield_now` spins on the queue length; nothing sleeps.

use super::*;
use std::cell::UnsafeCell;
use std::sync::mpsc;
use std::thread;

fn mgr() -> LockManager {
    LockManager::new(Duration::from_secs(60))
}

fn rec(n: u16) -> LockName {
    LockName::Record(TableId(1), Rid::new(1, n))
}

const TABLE: LockName = LockName::Table(TableId(1));

fn spin_until_queued(m: &LockManager, name: &LockName, n: usize) {
    while m.queued(name) != n {
        thread::yield_now();
    }
}

#[test]
fn try_instant_on_a_free_name_leaves_no_entry() {
    let m = mgr();
    m.try_instant(TxId(1), rec(1), LockMode::S).unwrap();
    assert_eq!(m.entries(), 0);
}

#[test]
fn try_instant_on_a_busy_name_leaves_the_table_as_it_was() {
    let m = mgr();
    m.lock(TxId(1), rec(1), LockMode::X).unwrap();
    assert_eq!(
        m.try_instant(TxId(2), rec(1), LockMode::S),
        Err(Error::LockBusy)
    );
    assert_eq!((m.entries(), m.held_names()), (1, 1));
    assert_eq!(m.queued(&rec(1)), 0);
}

#[test]
fn instant_on_a_free_name_leaves_no_entry() {
    let m = mgr();
    m.instant(TxId(1), rec(1), LockMode::X).unwrap();
    assert_eq!((m.entries(), m.held_names()), (0, 0));
}

#[test]
fn holders_of_a_free_name_leaves_no_entry() {
    let m = mgr();
    assert!(m.holders(&rec(1)).is_empty());
    assert_eq!(m.entries(), 0);
}

#[test]
fn unlock_of_a_name_not_held_is_a_no_op() {
    let m = mgr();
    m.unlock(TxId(1), &rec(1));
    assert_eq!(m.entries(), 0);
    // Held by somebody else: their grant stays.
    m.lock(TxId(2), rec(1), LockMode::S).unwrap();
    m.unlock(TxId(1), &rec(1));
    assert_eq!(m.holders(&rec(1)), vec![(TxId(2), LockMode::S)]);
    assert_eq!((m.entries(), m.held_names()), (1, 1));
}

#[test]
fn denied_try_lock_leaves_the_table_as_it_was() {
    let m = mgr();
    m.lock(TxId(1), rec(1), LockMode::X).unwrap();
    assert_eq!(
        m.try_lock(TxId(2), rec(1), LockMode::X),
        Err(Error::LockBusy)
    );
    assert_eq!((m.entries(), m.held_names()), (1, 1));
    m.release_all(TxId(2));
    assert_eq!(m.holders(&rec(1)), vec![(TxId(1), LockMode::X)]);
}

#[test]
fn last_unlock_and_release_all_remove_the_entry() {
    let m = mgr();
    m.lock(TxId(1), rec(1), LockMode::S).unwrap();
    m.lock(TxId(1), rec(1), LockMode::X).unwrap();
    m.lock(TxId(2), rec(2), LockMode::S).unwrap();
    m.lock(TxId(3), rec(2), LockMode::S).unwrap();
    assert_eq!((m.entries(), m.held_names()), (2, 3));
    m.unlock(TxId(1), &rec(1));
    assert_eq!((m.entries(), m.held_names()), (2, 3));
    m.unlock(TxId(1), &rec(1));
    assert_eq!((m.entries(), m.held_names()), (1, 2));
    // The inline holder leaves first: the spilled one takes its place.
    m.release_all(TxId(2));
    assert_eq!(m.holders(&rec(2)), vec![(TxId(3), LockMode::S)]);
    m.release_all(TxId(3));
    assert_eq!((m.entries(), m.held_names()), (0, 0));
}

/// An owner slot only the lock protects: no atomics, so a second
/// owner let in by a recycled entry shows as a torn read-back.
struct Owned(UnsafeCell<u64>);

// SAFETY: the test dereferences the cell only while holding the X
// lock on the slot's name, which is the exclusion under test.
unsafe impl Sync for Owned {}

#[test]
fn exclusion_holds_across_every_recreation_of_an_entry() {
    const THREADS: u64 = 8;
    const ITERS: u64 = 20_000;
    const NAMES: u64 = 4;
    let m = mgr();
    let slots: Vec<Owned> = (0..NAMES).map(|_| Owned(UnsafeCell::new(0))).collect();
    thread::scope(|s| {
        for t in 1..=THREADS {
            let (m, slots) = (&m, &slots);
            s.spawn(move || {
                for i in 0..ITERS {
                    // One transaction id per thread: tickets and
                    // entries recycle, the holder's identity does not.
                    let n = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40).wrapping_add(t) % NAMES;
                    m.lock(TxId(t), rec(n as u16), LockMode::X).unwrap();
                    let slot = slots[n as usize].0.get();
                    // SAFETY: this thread holds X on `rec(n)`; volatile
                    // so the read-back is not folded into the write.
                    let seen = unsafe {
                        slot.write_volatile(t);
                        std::hint::spin_loop();
                        slot.read_volatile()
                    };
                    assert_eq!(seen, t, "two owners inside X on {}", rec(n as u16));
                    m.release_all(TxId(t));
                }
            });
        }
    });
    assert_eq!((m.entries(), m.held_names()), (0, 0));
    assert_eq!(m.stats.calls.get(), THREADS * ITERS);
    assert_eq!(m.stats.timeouts.get(), 0);
}

#[test]
fn fifo_survives_the_recycle_of_a_table_entry() {
    let m = mgr();
    // The entry has lived and died before.
    m.lock(TxId(9), TABLE, LockMode::S).unwrap();
    m.release_all(TxId(9));
    assert_eq!(m.entries(), 0);

    m.lock(TxId(1), TABLE, LockMode::IX).unwrap();
    m.lock(TxId(2), TABLE, LockMode::IX).unwrap();
    let (granted, order) = mpsc::channel();
    thread::scope(|s| {
        let quiesce = granted.clone();
        let m = &m;
        s.spawn(move || {
            m.lock(TxId(3), TABLE, LockMode::S).unwrap();
            quiesce.send("S").unwrap();
            m.release_all(TxId(3));
        });
        spin_until_queued(m, &TABLE, 1);
        // IX is compatible with both holders, yet must not overtake
        // the queued S.
        s.spawn(move || {
            m.lock(TxId(4), TABLE, LockMode::IX).unwrap();
            granted.send("IX").unwrap();
        });
        spin_until_queued(m, &TABLE, 2);
        assert_eq!(m.holders(&TABLE).len(), 2);
        m.release_all(TxId(1));
        m.release_all(TxId(2));
    });
    assert_eq!(order.try_iter().collect::<Vec<_>>(), ["S", "IX"]);
    assert_eq!(m.holders(&TABLE), vec![(TxId(4), LockMode::IX)]);
    m.release_all(TxId(4));
    assert_eq!((m.entries(), m.held_names()), (0, 0));
}

#[test]
fn timed_out_waiter_leaves_no_ticket_and_no_entry() {
    let m = LockManager::new(Duration::from_millis(30));
    m.lock(TxId(1), rec(1), LockMode::X).unwrap();
    m.lock(TxId(2), rec(1), LockMode::X).unwrap_err();
    assert_eq!((m.entries(), m.queued(&rec(1))), (1, 0));
    m.release_all(TxId(1));
    assert_eq!((m.entries(), m.held_names()), (0, 0));
}

#[test]
fn instant_waiter_that_outlives_the_holder_removes_the_entry() {
    let m = mgr();
    m.lock(TxId(1), rec(1), LockMode::X).unwrap();
    thread::scope(|s| {
        let waiter = s.spawn(|| m.instant(TxId(2), rec(1), LockMode::S));
        spin_until_queued(&m, &rec(1), 1);
        // The holder leaves; the ticket alone keeps the entry.
        m.release_all(TxId(1));
        waiter.join().unwrap().unwrap();
    });
    assert_eq!((m.entries(), m.held_names()), (0, 0));
}

#[test]
fn crash_fails_a_queued_request_at_once() {
    let m = mgr();
    m.lock(TxId(1), rec(1), LockMode::X).unwrap();
    thread::scope(|s| {
        let waiter = s.spawn(|| m.lock(TxId(2), rec(1), LockMode::X));
        spin_until_queued(&m, &rec(1), 1);
        m.crash();
        let err = waiter.join().unwrap().unwrap_err();
        assert!(matches!(err, Error::LockTimeout { tx: TxId(2), .. }));
    });
    assert_eq!((m.entries(), m.held_names()), (0, 0));
}

#[test]
fn timeout_names_the_holders_and_the_queue() {
    let m = LockManager::new(Duration::from_millis(30));
    m.lock(TxId(1), TABLE, LockMode::IX).unwrap();
    m.lock(TxId(2), TABLE, LockMode::IX).unwrap();
    let Error::LockTimeout { tx, name } = m.lock(TxId(3), TABLE, LockMode::S).unwrap_err() else {
        panic!("expected a lock timeout");
    };
    assert_eq!(tx, TxId(3));
    assert_eq!(
        name,
        "table(tbl1) held by [T1:IX T2:IX], 0 ahead in a queue of 1"
    );
}

#[test]
fn release_all_walks_each_name_once() {
    let m = mgr();
    let tx = TxId(1);
    for i in 0..5_000u32 {
        m.lock(tx, TABLE, LockMode::IX).unwrap();
        let rid = Rid::new(i / 100, (i % 100) as u16);
        m.lock(tx, LockName::Record(TableId(1), rid), LockMode::X)
            .unwrap();
    }
    assert_eq!((m.entries(), m.held_names()), (5_001, 5_001));
    // The hash spreads `(table, page, slot)` names over every shard.
    assert!(m.entries_per_shard().iter().all(|&n| n > 5_001 / 32));
    m.release_all(tx);
    assert_eq!((m.entries(), m.held_names()), (0, 0));
}
