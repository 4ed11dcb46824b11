//! The four workloads and the run that measures one of them: set-up,
//! measured builds under foreground traffic over loopback, crash and
//! recovery, checks, and the layer numbers behind it all.

use crate::check::{audit_durability, check_index, Checks};
use crate::env::{Env, ROWS, TABLE};
use crate::fg::{rtt_p50_us, window_stats, FgClient, Mix, OpKind, Sample, WindowStats};
use crate::host::{peak_rss_mb, process_cpu_s, HostCpu};
use crate::stats::{lower_quartile, max, median};
use crate::trace::{now_ns, SpanBuf, Tracer};
use crate::{metrics, probes};
use mohan_client::{Client, ClientError, ErrorCode, MetricsReport};
use mohan_common::IndexId;
use mohan_oib::build::{drop_index, resume_build};
use mohan_oib::Db;
use mohan_wal::recovery::RecoveryStats;
use mohan_wire::message::{BuildAlgo, BuildOptionsWire, BuildPhase, IndexSpecWire};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their lower quartile.
const SETUPS: usize = 3;

/// Operations per closed-loop client per second of `--seconds`.
/// Fixed work for the same reason as the build count.
const CLOSED_OPS_PER_S: u64 = 11_000;

/// Slice of the closed-loop window; throughput and the latency share
/// are the medians over slices, so one steal burst moves one slice.
const SLICE_NS: u64 = 500_000_000;

/// Foreground traffic runs this long before each online build starts.
const LEAD_IN: Duration = Duration::from_millis(30);

/// An open loop whose last operation of a window started later than
/// this after it was due has a growing backlog: the rate is not met.
const BACKLOG_LIMIT_NS: u64 = 500_000_000;

/// Round trips of the `Ping` probe behind `server.overhead_us`.
const PINGS: usize = 2_000;

#[derive(Debug, Clone, Copy)]
enum Traffic {
    /// This many clients, each sending its next operation when the
    /// last is answered; no build runs meanwhile.
    Closed { clients: usize },
    /// One connection sending at this rate, measured inside build
    /// windows only.
    Open { ops_per_s: u32 },
}

pub struct Spec {
    pub name: &'static str,
    traffic: Traffic,
    mix: Mix,
    algo: BuildAlgo,
    key_cols: &'static [u16],
    parallel: bool,
    /// `checkpoint_every` of the build's options, in keys; 0 leaves
    /// every interval at the engine's setting (5 000 keys).
    checkpoint_every: u32,
    /// Measured builds per 10 s of `--seconds`, after one warm-up
    /// build. A fixed count, not a fixed time: the log, the resident
    /// set and the recovery after it then do not depend on how fast
    /// the builds went, so a faster build cannot read as more memory
    /// or a slower restart.
    builds_per_10s: u32,
    /// Failpoint the extra build dies at, and the hits it lets pass
    /// first; `None` crashes with no build running.
    crash: Option<(&'static str, u64)>,
}

pub const SPECS: &[Spec] = &[
    Spec {
        name: "oltp_closed",
        traffic: Traffic::Closed { clients: 2 },
        mix: Mix {
            insert: 40,
            update: 20,
            lookup: 20,
            read: 20,
        },
        algo: BuildAlgo::Offline,
        key_cols: &[0],
        parallel: false,
        checkpoint_every: 0,
        builds_per_10s: 3,
        crash: None,
    },
    Spec {
        name: "sf_online",
        traffic: Traffic::Open { ops_per_s: 1_000 },
        mix: Mix {
            insert: 50,
            update: 25,
            lookup: 0,
            read: 25,
        },
        algo: BuildAlgo::Sf,
        key_cols: &[1, 0],
        parallel: false,
        checkpoint_every: 0,
        builds_per_10s: 6,
        crash: Some(("sf.load.key", ROWS as u64 / 2)),
    },
    Spec {
        name: "nsf_online",
        traffic: Traffic::Open { ops_per_s: 1_000 },
        mix: Mix {
            insert: 50,
            update: 25,
            lookup: 0,
            read: 25,
        },
        algo: BuildAlgo::Nsf,
        key_cols: &[1, 0],
        parallel: false,
        // One checkpoint, at the end. An NSF checkpoint forces every
        // page of the tree under the tree's structure lock, and
        // foreground writes wait for it. At the engine's 5 000 keys
        // that is 100 times a build: about half the operations then
        // miss 1 ms, and how far from half depends on the host (0.43
        // to 0.61 between builds of one hour), so the share does not
        // repeat. Without them what is left is what this workload is
        // here for, top-down inserts beside foreground writes.
        checkpoint_every: ROWS as u32,
        builds_per_10s: 8,
        crash: Some(("nsf.insert.key", ROWS as u64 / 2)),
    },
    Spec {
        name: "bulk_parallel",
        traffic: Traffic::Open { ops_per_s: 250 },
        mix: Mix {
            insert: 0,
            update: 30,
            lookup: 0,
            read: 70,
        },
        algo: BuildAlgo::Sf,
        key_cols: &[2, 1, 0],
        parallel: true,
        checkpoint_every: 0,
        builds_per_10s: 6,
        crash: Some(("build.reduce", 10)),
    },
];

impl Spec {
    fn index_spec(&self) -> IndexSpecWire {
        IndexSpecWire {
            name: format!("{}_ix", self.name),
            key_cols: self.key_cols.to_vec(),
            unique: false,
        }
    }

    fn options(&self) -> BuildOptionsWire {
        let options = BuildOptionsWire {
            checkpoint_every: self.checkpoint_every,
            ..BuildOptionsWire::default()
        };
        if self.parallel {
            BuildOptionsWire {
                parallel_workers: 2,
                compress_runs: true,
                ..options
            }
        } else {
            options
        }
    }

    fn measured_builds(&self, seconds: u32) -> usize {
        (self.builds_per_10s * seconds).div_ceil(10).max(2) as usize
    }

    fn create_index(
        &self,
        builder: &mut Client,
        on_progress: impl FnMut(IndexId, BuildPhase, u64),
    ) -> Result<Vec<IndexId>, ClientError> {
        builder.create_index_with(
            TABLE,
            self.algo,
            vec![self.index_spec()],
            self.options(),
            on_progress,
        )
    }
}

/// One run's outcome: every metric computed, by name, and the counts
/// and violations the last line of output reports.
pub struct Report {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    /// Lines for the reader that are not metrics.
    pub notes: Vec<String>,
}

/// One build as the client saw it.
struct BuildRun {
    id: IndexId,
    start_ns: u64,
    end_ns: u64,
    /// Seconds in each phase, from when its first `Progress` frame
    /// arrived to when the next phase's did.
    phase_s: Vec<(BuildPhase, f64)>,
    cpu_s: f64,
}

impl BuildRun {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

fn phase_span_name(phase: BuildPhase) -> &'static str {
    match phase {
        BuildPhase::Starting => "build.starting",
        BuildPhase::Scanning => "build.scan",
        BuildPhase::Reducing => "build.reduce",
        BuildPhase::Loading => "build.load",
        BuildPhase::Inserting => "build.insert",
        BuildPhase::Draining => "build.drain",
        BuildPhase::Done => "build.done",
    }
}

/// `CreateIndexV2` to `IndexCreated`, timed from the client.
fn build_once(
    spec: &Spec,
    builder: &mut Client,
    spans: &mut SpanBuf<'_>,
    op: u64,
) -> Result<BuildRun, String> {
    let mut seen: Vec<(BuildPhase, u64)> = Vec::new();
    let cpu0 = process_cpu_s();
    let start_ns = now_ns();
    let ids = spec
        .create_index(builder, |_, phase, _| {
            if seen.last().map(|(p, _)| *p) != Some(phase) {
                seen.push((phase, now_ns()));
            }
        })
        .map_err(|e| format!("build {op} of {}: {e}", spec.name))?;
    let end_ns = now_ns();
    let cpu_s = process_cpu_s() - cpu0;
    let id = *ids.first().ok_or("IndexCreated named no index")?;

    let span = spans.reserve();
    let mut phase_s = Vec::with_capacity(seen.len());
    for (i, &(phase, from_ns)) in seen.iter().enumerate() {
        let to_ns = seen.get(i + 1).map_or(end_ns, |&(_, t)| t);
        phase_s.push((phase, (to_ns - from_ns) as f64 / 1e9));
        spans.record(phase_span_name(phase), from_ns, to_ns, span, op);
    }
    spans.record_as(span, "build", start_ns, end_ns, 0, op);
    Ok(BuildRun {
        id,
        start_ns,
        end_ns,
        phase_s,
        cpu_s,
    })
}

/// What the measured phase produced, whichever loop drove it.
struct Measured {
    builds: Vec<BuildRun>,
    windows: Vec<WindowStats>,
    /// Registry snapshots before and after each stretch of measured
    /// traffic: one pair around the closed loop, one pair around each
    /// measured online build, the later one taken before the index is
    /// dropped. Several registry gauges sum over the indexes that
    /// exist, so a difference taken across a drop would lose what the
    /// dropped index had counted.
    snaps: Vec<(MetricsReport, MetricsReport)>,
    /// The index foreground lookups probe, still in place.
    lookup_index: Option<IndexId>,
}

fn snapshot(builder: &mut Client) -> Result<MetricsReport, String> {
    builder.metrics().map_err(|e| format!("metrics: {e}"))
}

/// What both measured phases work on.
#[derive(Clone, Copy)]
struct Run<'a> {
    spec: &'a Spec,
    seconds: u32,
    db: &'a Arc<Db>,
    tracer: &'a Tracer,
}

/// `oltp_closed`: Offline builds of the lookup index with nothing
/// else running, then the closed loop against the last of them.
fn measure_closed(
    run: &Run<'_>,
    builder: &mut Client,
    gens: &mut [FgClient],
    checks: &mut Checks,
) -> Result<Measured, String> {
    let Run {
        spec,
        seconds,
        db,
        tracer,
    } = *run;
    let measured = spec.measured_builds(seconds);
    let mut spans = tracer.buf();
    let mut builds = Vec::with_capacity(measured);
    let mut index = None;
    // Build 0 warms the path and is not measured.
    for i in 0..=measured {
        if let Some(id) = index.take() {
            drop_index(db, id).map_err(|e| format!("drop index: {e}"))?;
        }
        let b = build_once(spec, builder, &mut spans, i as u64)?;
        checks.record("index after build", check_index(db, b.id));
        index = Some(b.id);
        if i > 0 {
            builds.push(b);
        }
    }
    for g in gens.iter_mut() {
        g.lookup_index = index;
    }

    let ops = u64::from(seconds) * CLOSED_OPS_PER_S;
    let before = snapshot(builder)?;
    let from_ns = now_ns();
    std::thread::scope(|s| {
        for g in gens.iter_mut() {
            s.spawn(move || g.run_closed(ops, spec.mix, &mut tracer.buf()));
        }
    });
    let after = snapshot(builder)?;

    // Slices end where the first client finished: every slice then
    // has all clients in it.
    let to_ns = gens
        .iter()
        .filter_map(|g| g.samples.last())
        .map(|s| s.end_ns)
        .min()
        .unwrap_or(from_ns);
    let windows = (0..(to_ns - from_ns) / SLICE_NS)
        .map(|i| {
            let slice_from = from_ns + i * SLICE_NS;
            window_stats(
                gens.iter().flat_map(|g| &g.samples),
                slice_from,
                slice_from + SLICE_NS,
            )
        })
        .collect();
    Ok(Measured {
        builds,
        windows,
        snaps: vec![(before, after)],
        lookup_index: index,
    })
}

/// The online workloads: one warm-up build, then the measured ones,
/// each under the open loop, each checked and dropped (in process,
/// outside every measured window) before the next.
fn measure_online(
    run: &Run<'_>,
    ops_per_s: u32,
    builder: &mut Client,
    gen: &mut FgClient,
    checks: &mut Checks,
) -> Result<Measured, String> {
    let Run {
        spec,
        seconds,
        db,
        tracer,
    } = *run;
    let measured = spec.measured_builds(seconds);
    let mut spans = tracer.buf();
    let mut builds = Vec::with_capacity(measured);
    let mut windows = Vec::with_capacity(measured);
    let mut snaps = Vec::with_capacity(measured);
    for i in 0..=measured {
        if i == 1 {
            // The warm-up's operations are not part of any number.
            gen.samples.clear();
        }
        let before = snapshot(builder)?;
        // The generator sends every operation due before the build
        // ended, however late: see `FgClient::run_open`.
        let stop_at_ns = AtomicU64::new(u64::MAX);
        let b = std::thread::scope(|s| {
            let traffic =
                s.spawn(|| gen.run_open(ops_per_s, spec.mix, &stop_at_ns, &mut tracer.buf()));
            std::thread::sleep(LEAD_IN);
            let b = build_once(spec, builder, &mut spans, i as u64);
            stop_at_ns.store(b.as_ref().map_or(0, |b| b.end_ns), Ordering::Relaxed);
            traffic
                .join()
                .map_err(|_| "the open-loop generator panicked".to_string())?;
            b
        })?;
        let after = snapshot(builder)?;
        checks.record("index after build", check_index(db, b.id));
        drop_index(db, b.id).map_err(|e| format!("drop index: {e}"))?;
        if i > 0 {
            let w = window_stats(gen.samples.iter(), b.start_ns, b.end_ns);
            if w.late_last_ns > BACKLOG_LIMIT_NS {
                checks.record(
                    "open loop",
                    Err(format!(
                        "backlog growing: build {i} ended with the generator {} ms behind",
                        w.late_last_ns / 1_000_000
                    )),
                );
            }
            windows.push(w);
            builds.push(b);
            snaps.push((before, after));
        }
    }
    Ok(Measured {
        builds,
        windows,
        snaps,
        lookup_index: None,
    })
}

struct Recovery {
    restart_s: f64,
    resume_s: f64,
    stats: RecoveryStats,
}

/// Time to a usable index after a crash. With a crash site: engine
/// checkpoint, one more build over the wire that dies half way,
/// crash, then `restart()` and `resume_build()`. Without: crash with
/// no build running and no checkpoint ever taken, so `restart()`
/// redoes the whole log. Nothing is in flight at the crash, but the
/// server is neither drained nor told. The index must come out
/// `Complete` and verified.
fn crash_and_recover(
    spec: &Spec,
    db: &Arc<Db>,
    builder: &mut Client,
    lookup_index: Option<IndexId>,
    checks: &mut Checks,
) -> Result<Recovery, String> {
    let index = match spec.crash {
        Some((site, skip)) => {
            db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
            db.failpoints.arm_after(site, skip);
            match spec.create_index(builder, |_, _, _| {}) {
                Err(ClientError::Server {
                    code: ErrorCode::InjectedCrash,
                    ..
                }) => {}
                other => checks.record(
                    "crash",
                    Err(format!(
                        "the build armed to die at {site} ended with {other:?}"
                    )),
                ),
            }
            db.indexes_of(TABLE).last().map(|i| i.def.id)
        }
        None => lookup_index,
    };
    let id = index.ok_or("no index to recover")?;
    db.simulate_crash();

    let t0 = Instant::now();
    let stats = db.restart().map_err(|e| format!("restart: {e}"))?;
    let restart_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    if spec.crash.is_some() {
        resume_build(db, id).map_err(|e| format!("resume: {e}"))?;
    }
    let resume_s = t1.elapsed().as_secs_f64();
    checks.record("index after recovery", check_index(db, id));
    Ok(Recovery {
        restart_s,
        resume_s,
        stats,
    })
}

/// What a counter or gauge grew by inside the snapshot pairs; a name
/// the registry does not know reads 0.
fn delta(snaps: &[(MetricsReport, MetricsReport)], name: &str) -> f64 {
    snaps
        .iter()
        .map(|(before, after)| {
            after
                .counter(name)
                .unwrap_or(0)
                .saturating_sub(before.counter(name).unwrap_or(0))
        })
        .sum::<u64>() as f64
}

/// Mean of the histogram's observations inside the snapshot pairs,
/// and how many there were.
fn hist_mean(snaps: &[(MetricsReport, MetricsReport)], name: &str) -> (f64, f64) {
    let of = |m: &MetricsReport| m.hist(name).map_or((0, 0), |h| (h.count, h.sum));
    let (mut count, mut sum) = (0u64, 0u64);
    for (before, after) in snaps {
        let (c0, s0) = of(before);
        let (c1, s1) = of(after);
        count += c1.saturating_sub(c0);
        sum += s1.saturating_sub(s0);
    }
    if count == 0 {
        (0.0, 0.0)
    } else {
        (sum as f64 / count as f64, count as f64)
    }
}

fn ping_p50_us(client: &mut Client) -> Result<f64, String> {
    let mut rtts = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t0 = Instant::now();
        client.ping().map_err(|e| format!("ping: {e}"))?;
        rtts.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(median(&rtts))
}

/// The layer numbers that come from the registry diff and the
/// client's own samples (the probes add theirs).
fn layer_values(
    v: &mut BTreeMap<&'static str, f64>,
    m: &Measured,
    samples: &[Sample],
    overhead_us: f64,
) {
    let snaps = &m.snaps[..];
    // Every sample lies inside a snapshot pair: the warm-up's were
    // dropped, and the generator runs only while a pair is open.
    let ops = samples.iter().filter(|s| s.ok).count().max(1) as f64;
    let builds = m.builds.len() as f64;

    for kind in OpKind::ALL {
        let name = match kind {
            OpKind::Insert => "client.rtt_us.insert",
            OpKind::Update => "client.rtt_us.update",
            OpKind::Lookup => "client.rtt_us.lookup",
            OpKind::Read => "client.rtt_us.read",
        };
        v.insert(name, rtt_p50_us(samples, kind));
    }
    let req_insert = hist_mean(snaps, "server.req_us.Insert").0;
    v.insert("server.req_us.insert", req_insert);
    v.insert(
        "server.req_us.lookup",
        hist_mean(snaps, "server.req_us.Lookup").0,
    );
    v.insert("server.overhead_us", overhead_us);
    // Sum check: the server's own time plus the round trip of a
    // request that does no engine work should account for a round
    // trip. Inserts where the mix has them, reads where it does not.
    let (rtt, req) = if v["client.rtt_us.insert"] > 0.0 {
        (v["client.rtt_us.insert"], req_insert)
    } else {
        (
            v["client.rtt_us.read"],
            hist_mean(snaps, "server.req_us.Read").0,
        )
    };
    v.insert(
        "server.unattributed_frac",
        if rtt > 0.0 {
            1.0 - (req + overhead_us) / rtt
        } else {
            0.0
        },
    );
    v.insert(
        "server.wakeups_per_op",
        delta(snaps, "server.wakeups") / ops,
    );
    v.insert("server.busy_rejects", delta(snaps, "server.busy_rejects"));

    v.insert(
        "oib.side_file_appended",
        delta(snaps, "build.side_file_appended"),
    );
    v.insert("oib.drain_passes", delta(snaps, "build.drain_passes"));

    // Build phases: the registry's own timers, as seconds per
    // measured build. On `oltp_closed` the builds ran before the
    // snapshots, so the frames are all there is.
    let frames = |phase: BuildPhase| {
        let per_build: Vec<f64> = m
            .builds
            .iter()
            .map(|b| {
                b.phase_s
                    .iter()
                    .filter(|(p, _)| *p == phase)
                    .map(|(_, s)| s)
                    .sum()
            })
            .collect();
        median(&per_build)
    };
    let mut attributed = 0.0;
    for (name, hist, phase) in [
        ("build.scan_s", "build.phase_us.scan", BuildPhase::Scanning),
        (
            "build.reduce_s",
            "build.phase_us.reduce",
            BuildPhase::Reducing,
        ),
        ("build.load_s", "build.phase_us.load", BuildPhase::Loading),
        (
            "build.insert_s",
            "build.phase_us.insert",
            BuildPhase::Inserting,
        ),
        (
            "build.drain_s",
            "build.phase_us.drain",
            BuildPhase::Draining,
        ),
    ] {
        let (mean_us, count) = hist_mean(snaps, hist);
        let s = if count > 0.0 {
            mean_us * count / builds / 1e6
        } else {
            frames(phase)
        };
        attributed += s;
        v.insert(name, s);
    }
    let build_s: Vec<f64> = m.builds.iter().map(BuildRun::secs).collect();
    let build_mean = build_s.iter().sum::<f64>() / builds;
    v.insert("build.unattributed_frac", 1.0 - attributed / build_mean);
    v.insert("build.s_median", median(&build_s));
    v.insert("build.s_max", max(&build_s));
    v.insert(
        "proc.cpu_s_per_build",
        m.builds.iter().map(|b| b.cpu_s).sum::<f64>() / builds,
    );

    let (lock_wait_us, lock_waits) = hist_mean(snaps, "lock.wait_us");
    v.insert("lock.wait_us_per_op", lock_wait_us * lock_waits / ops);
    v.insert("lock.waits", delta(snaps, "lock.waits"));
    let (latch_wait_us, latch_waits) = hist_mean(snaps, "latch.wait_us");
    v.insert("latch.wait_us_per_op", latch_wait_us * latch_waits / ops);
    v.insert("latch.wait_events", delta(snaps, "latch.wait_events"));
    let (hit, miss) = (delta(snaps, "cache.hit"), delta(snaps, "cache.miss"));
    v.insert(
        "cache.hit_frac",
        if hit + miss > 0.0 {
            hit / (hit + miss)
        } else {
            0.0
        },
    );

    // Stored over raw bytes of the last build's sorted runs; 1 where
    // runs are not compressed.
    let last = &snaps.last().expect("at least one snapshot pair").1;
    let raw = last.counter("build.run_bytes").unwrap_or(0) as f64;
    let stored = last.counter("build.run_bytes_compressed").unwrap_or(0) as f64;
    v.insert(
        "sort.stored_per_raw",
        if raw > 0.0 && stored > 0.0 {
            stored / raw
        } else {
            1.0
        },
    );

    v.insert("wal.bytes_per_op", delta(snaps, "wal.bytes") / ops);
    v.insert("wal.records_per_op", delta(snaps, "wal.records") / ops);
    v.insert("wal.flushes_per_op", delta(snaps, "wal.flushes") / ops);
    v.insert("wal.flush_us_mean", hist_mean(snaps, "wal.flush_us").0);
}

/// Where a traced run leaves its spans: beside the executable, which
/// is in the build's output directory, inside the checkout and in
/// `.gitignore`.
fn trace_path(workload: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(exe.with_file_name(format!("perfbench-trace-{workload}.jsonl")))
}

/// Run `spec` once. `Err` is a harness failure (no server, no
/// connection): there is no result to report.
pub fn run(spec: &Spec, seed: u64, seconds: u32, traced: bool) -> Result<Report, String> {
    let tracer = Tracer::new(traced);
    let mut checks = Checks::default();
    let mut notes = Vec::new();
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();

    let generators = match spec.traffic {
        Traffic::Closed { clients } => clients,
        Traffic::Open { .. } => 1,
    };
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut env: Option<Env> = None;
    for _ in 0..SETUPS {
        if let Some(old) = env.take() {
            drop(old.clients);
            old.server.drain();
        }
        let t0 = Instant::now();
        env = Some(Env::set_up(seed, generators + 1)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Env {
        db,
        rids,
        server,
        mut clients,
    } = env.expect("SETUPS > 0");
    let mut builder = clients.pop().expect("a connection for the builder");
    let mut gens: Vec<FgClient> = clients
        .into_iter()
        .enumerate()
        .map(|(i, c)| FgClient::new(c, i, generators, seed, Arc::clone(&rids)))
        .collect();

    let this = Run {
        spec,
        seconds,
        db: &db,
        tracer: &tracer,
    };
    let host0 = HostCpu::now();
    let m = match spec.traffic {
        Traffic::Closed { .. } => measure_closed(&this, &mut builder, &mut gens, &mut checks)?,
        Traffic::Open { ops_per_s } => {
            measure_online(&this, ops_per_s, &mut builder, &mut gens[0], &mut checks)?
        }
    };
    let steal_frac = HostCpu::now().steal_frac_since(&host0);
    let overhead_us = if traced {
        ping_p50_us(&mut builder)?
    } else {
        0.0
    };

    let recovery = crash_and_recover(spec, &db, &mut builder, m.lookup_index, &mut checks)?;
    let mut acked = Vec::new();
    let mut samples = Vec::new();
    let mut failed = 0;
    for g in &mut gens {
        acked.append(&mut g.audit);
        samples.append(&mut g.samples);
        notes.extend(
            g.errors
                .drain(..)
                .map(|e| format!("foreground failure: {e}")),
        );
    }
    notes.push(format!("restart: {:?}", recovery.stats));
    checks.record("durability", audit_durability(&db, &acked));
    notes.push(format!(
        "audited {} acknowledged inserts after restart",
        acked.len()
    ));
    drop(gens);
    drop(builder);
    server.drain();

    let ops_per_s: Vec<f64> = m.windows.iter().map(WindowStats::ops_per_s).collect();
    let ok_frac: Vec<f64> = m
        .windows
        .iter()
        .map(WindowStats::ok_in_limit_frac)
        .collect();
    let build_s: Vec<f64> = m.builds.iter().map(BuildRun::secs).collect();
    if ops_per_s.is_empty() || build_s.is_empty() {
        return Err("the measured phase was too short to hold one window".into());
    }
    v.insert("fg_ok_1ms_frac", median(&ok_frac));
    v.insert("setup_s", lower_quartile(&setup_s));
    v.insert("fg_ops_per_s", median(&ops_per_s));
    v.insert("build_s", lower_quartile(&build_s));
    v.insert("recover_s", recovery.restart_s + recovery.resume_s);
    let mut attempted = m.builds.len() as u64;
    for w in &m.windows {
        attempted += w.attempted;
        failed += w.attempted - w.ok;
    }
    notes.push(format!(
        "{} measured builds, {} foreground windows, {} operations attempted in them",
        m.builds.len(),
        m.windows.len(),
        attempted - m.builds.len() as u64
    ));
    notes.push(format!(
        "fg_ok_1ms_frac over all windows pooled: {:.4}",
        m.windows.iter().map(|w| w.ok_in_limit).sum::<u64>() as f64
            / m.windows.iter().map(|w| w.attempted).sum::<u64>().max(1) as f64
    ));
    notes.push(format!("build_s each: {build_s:.3?}"));
    notes.push(format!("fg_ok_1ms_frac each: {ok_frac:.4?}"));
    notes.push(format!("fg_ops_per_s each: {ops_per_s:.0?}"));
    notes.push(format!("setup_s each: {setup_s:.3?}"));
    notes.push(format!(
        "recover_s: restart {:.3} s + resume {:.3} s",
        recovery.restart_s, recovery.resume_s
    ));
    if !traced {
        // Per-layer metrics for want of steadiness (README.md,
        // "Bounds"); shown here too, outside the result line.
        for (name, unit) in [
            ("fg_ops_per_s", "1/s"),
            ("build_s", "s"),
            ("recover_s", "s"),
        ] {
            notes.push(format!(
                "{name:<28} {:>16.6} {unit} (per-layer metric, not held to a bound)",
                v[name]
            ));
        }
    }
    let late_max_ms = m.windows.iter().map(|w| w.late_max_ns).max().unwrap_or(0) as f64 / 1e6;
    notes.push(format!("host.steal_frac {steal_frac:.5} frac"));
    notes.push(format!("host.gen_late_max_ms {late_max_ms:.3} ms"));

    if traced {
        layer_values(&mut v, &m, &samples, overhead_us);
        v.insert("recover.restart_s", recovery.restart_s);
        v.insert("recover.resume_s", recovery.resume_s);
        v.insert("recover.redone", recovery.stats.redone as f64);
        // Per record the restart read: analysis reads the whole log
        // even when a checkpoint lets redo start near its end.
        v.insert(
            "wal.redo_ns_per_rec",
            recovery.restart_s * 1e9 / (recovery.stats.analyzed.max(1) as f64),
        );
        v.insert("host.steal_frac", steal_frac);
        v.insert("host.gen_late_max_ms", late_max_ms);
        drop(samples);
        v.extend(probes::run(seed, spec.mix, &db, &rids, m.lookup_index)?);
        let path = trace_path(spec.name)?;
        match tracer.write_jsonl(&path) {
            Ok(n) => notes.push(format!("{n} spans written to {}", path.display())),
            Err(e) => checks.record("trace", Err(format!("writing {}: {e}", path.display()))),
        }
        for (what, frac) in [
            ("build phases", v["build.unattributed_frac"]),
            ("round trip", v["server.unattributed_frac"]),
        ] {
            if frac > 0.10 {
                notes.push(format!(
                    "sum check: {:.1} % of {what} is unattributed (reported, not fatal)",
                    frac * 100.0
                ));
            }
        }
    } else {
        // Last, so everything the run allocated is in it.
        v.insert("peak_rss_mb", peak_rss_mb());
    }

    let wanted = if traced {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    for d in &wanted {
        if !v.contains_key(d.name) {
            return Err(format!("metric {} was not computed", d.name));
        }
    }
    Ok(Report {
        values: v,
        attempted,
        failed,
        checks,
        notes,
    })
}
