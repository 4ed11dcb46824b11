//! Foreground traffic: the operations, the closed and open loops that
//! send them over `mohan_client::Client`, and what is kept of each.

use crate::env::{row, ROWS, TABLE};
use crate::trace::{now_ns, SpanBuf};
use mohan_client::Client;
use mohan_common::{IndexId, KeyValue, Rid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The latency limit of `fg_ok_1ms_frac`.
pub const LIMIT_NS: u64 = 1_000_000;

/// Every this-many-th acknowledged insert is read back after the
/// crash and restart.
const AUDIT_EVERY: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Insert,
    Update,
    Lookup,
    Read,
}

impl OpKind {
    pub const ALL: [OpKind; 4] = [OpKind::Insert, OpKind::Update, OpKind::Lookup, OpKind::Read];

    fn span_name(self) -> &'static str {
        match self {
            OpKind::Insert => "client.insert",
            OpKind::Update => "client.update",
            OpKind::Lookup => "client.lookup",
            OpKind::Read => "client.read",
        }
    }
}

/// Shares of each operation, in percent.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub insert: u32,
    pub update: u32,
    pub lookup: u32,
    pub read: u32,
}

impl Mix {
    pub fn pick(&self, rng: &mut StdRng) -> OpKind {
        let total = self.insert + self.update + self.lookup + self.read;
        let r = rng.random_range(0..total);
        if r < self.insert {
            OpKind::Insert
        } else if r < self.insert + self.update {
            OpKind::Update
        } else if r < self.insert + self.update + self.lookup {
            OpKind::Lookup
        } else {
            OpKind::Read
        }
    }
}

/// One foreground operation as the generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: OpKind,
    /// When the operation was due: its send time in a closed loop,
    /// its slot in the schedule in an open loop. Latency counts from
    /// here, so a stall is charged to every operation it delayed.
    pub due_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Acknowledged, and the answer was right.
    pub ok: bool,
}

/// An acknowledged insert kept for the durability audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Acked {
    pub rid: Rid,
    pub cols: Vec<i64>,
}

/// One generator connection and everything it has recorded.
pub struct FgClient {
    client: Client,
    id: usize,
    of: usize,
    rng: StdRng,
    rids: Arc<Vec<Rid>>,
    /// Index on `[k]` that `lookup` probes; `None` when the mix has
    /// no lookups.
    pub lookup_index: Option<IndexId>,
    next_key: i64,
    acked_inserts: u64,
    next_op: u64,
    pub samples: Vec<Sample>,
    pub audit: Vec<Acked>,
    /// First few failures, for the report.
    pub errors: Vec<String>,
}

impl FgClient {
    /// Generator `id` of `of`: it updates only seeded rows `k` with
    /// `k % of == id` and inserts keys from a range of its own, so
    /// generators meet in the server and the engine, not on a record
    /// lock.
    pub fn new(client: Client, id: usize, of: usize, seed: u64, rids: Arc<Vec<Rid>>) -> FgClient {
        FgClient {
            client,
            id,
            of,
            rng: StdRng::seed_from_u64(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(id as u64 + 1),
            ),
            rids,
            lookup_index: None,
            next_key: ROWS + (id as i64 + 1) * 1_000_000_000,
            acked_inserts: 0,
            next_op: (id as u64 + 1) << 40,
            samples: Vec::new(),
            audit: Vec::new(),
            errors: Vec::new(),
        }
    }

    fn fail(&mut self, what: String) -> bool {
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
        false
    }

    /// Send one operation of `kind` and check its answer.
    fn exec(&mut self, kind: OpKind) -> bool {
        match kind {
            OpKind::Insert => {
                self.next_key += 1;
                let cols = row(self.next_key, &mut self.rng);
                match self.client.insert(TABLE, cols.clone()) {
                    Ok(rid) => {
                        self.acked_inserts += 1;
                        if self.acked_inserts.is_multiple_of(AUDIT_EVERY) {
                            self.audit.push(Acked { rid, cols });
                        }
                        true
                    }
                    Err(e) => self.fail(format!("insert: {e}")),
                }
            }
            OpKind::Update => {
                let slots = (ROWS as usize - self.id).div_ceil(self.of);
                let k = self.id + self.of * self.rng.random_range(0..slots);
                let cols = row(k as i64, &mut self.rng);
                match self.client.update(TABLE, self.rids[k], cols) {
                    Ok(()) => true,
                    Err(e) => self.fail(format!("update: {e}")),
                }
            }
            OpKind::Lookup => {
                let k = self.rng.random_range(0..ROWS);
                let index = self.lookup_index.expect("a mix with lookups has its index");
                match self.client.lookup(index, &KeyValue::from_i64s(&[k])) {
                    Ok(found) if found.contains(&self.rids[k as usize]) => true,
                    Ok(found) => self.fail(format!("lookup {k}: got {found:?}")),
                    Err(e) => self.fail(format!("lookup: {e}")),
                }
            }
            OpKind::Read => {
                let k = self.rng.random_range(0..ROWS);
                match self.client.read(TABLE, self.rids[k as usize]) {
                    Ok(cols) if cols.first() == Some(&k) && cols.get(3) == Some(&-k) => true,
                    Ok(cols) => self.fail(format!("read {k}: got {cols:?}")),
                    Err(e) => self.fail(format!("read: {e}")),
                }
            }
        }
    }

    fn timed(&mut self, kind: OpKind, due_ns: u64, spans: &mut SpanBuf<'_>) {
        let start_ns = now_ns();
        let ok = self.exec(kind);
        let end_ns = now_ns();
        self.samples.push(Sample {
            kind,
            due_ns: due_ns.min(start_ns),
            start_ns,
            end_ns,
            ok,
        });
        self.next_op += 1;
        spans.record(kind.span_name(), start_ns, end_ns, 0, self.next_op);
    }

    /// Closed loop: `ops` operations, each sent when the one before
    /// it is answered.
    pub fn run_closed(&mut self, ops: u64, mix: Mix, spans: &mut SpanBuf<'_>) {
        self.samples.reserve(ops as usize);
        for _ in 0..ops {
            let kind = mix.pick(&mut self.rng);
            self.timed(kind, u64::MAX, spans);
        }
    }

    /// Open loop: one operation every `1 / rate` seconds, whatever the
    /// answers do, for every slot due before `stop_at_ns` (`u64::MAX`
    /// until the caller knows when that is). A slot that fell due
    /// while an earlier answer was outstanding is still sent, late,
    /// and timed from when it was due: the operations queued behind a
    /// stall are the ones that miss the limit, so none may go unsent.
    /// The generator waits for a slot with `sleep` only: on two vCPUs
    /// a spinning generator takes the server's core (it cut
    /// `fg_ok_1ms_frac` from 0.98 to 0.85).
    pub fn run_open(
        &mut self,
        rate: u32,
        mix: Mix,
        stop_at_ns: &AtomicU64,
        spans: &mut SpanBuf<'_>,
    ) {
        let period_ns = 1_000_000_000 / u64::from(rate);
        let t0 = now_ns();
        for i in 0u64.. {
            let due_ns = t0 + i * period_ns;
            let now = now_ns();
            if now < due_ns {
                std::thread::sleep(Duration::from_nanos(due_ns - now));
            }
            if due_ns >= stop_at_ns.load(Ordering::Relaxed) {
                break;
            }
            let kind = mix.pick(&mut self.rng);
            self.timed(kind, due_ns, spans);
        }
    }
}

/// What one window of foreground traffic amounted to.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowStats {
    pub attempted: u64,
    pub ok: u64,
    pub ok_in_limit: u64,
    /// Latest any operation started after it was due.
    pub late_max_ns: u64,
    /// How late the last operation of the window started.
    pub late_last_ns: u64,
    pub secs: f64,
}

impl WindowStats {
    pub fn ops_per_s(&self) -> f64 {
        self.ok as f64 / self.secs
    }

    /// Share of *attempted* operations acknowledged, right, and
    /// within the limit counted from when they were due.
    pub fn ok_in_limit_frac(&self) -> f64 {
        self.ok_in_limit as f64 / self.attempted.max(1) as f64
    }
}

/// Operations of `samples` due in `[from_ns, to_ns)`. `samples` may
/// come from several generators, so "last" is by due time.
pub fn window_stats<'a>(
    samples: impl Iterator<Item = &'a Sample>,
    from_ns: u64,
    to_ns: u64,
) -> WindowStats {
    let mut w = WindowStats {
        secs: (to_ns - from_ns) as f64 / 1e9,
        ..WindowStats::default()
    };
    let mut last_due = 0;
    for s in samples.filter(|s| s.due_ns >= from_ns && s.due_ns < to_ns) {
        w.attempted += 1;
        if s.ok {
            w.ok += 1;
            if s.end_ns - s.due_ns <= LIMIT_NS {
                w.ok_in_limit += 1;
            }
        }
        let late = s.start_ns - s.due_ns;
        w.late_max_ns = w.late_max_ns.max(late);
        if s.due_ns >= last_due {
            last_due = s.due_ns;
            w.late_last_ns = late;
        }
    }
    w
}

/// Median round trip of the acknowledged operations of `kind`, in
/// microseconds from send to answer; 0 when there were none.
pub fn rtt_p50_us(samples: &[Sample], kind: OpKind) -> f64 {
    let rtts: Vec<f64> = samples
        .iter()
        .filter(|s| s.kind == kind && s.ok)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    if rtts.is_empty() {
        0.0
    } else {
        crate::stats::median(&rtts)
    }
}
