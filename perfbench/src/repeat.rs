//! `perfbench repeat <n>`: the acceptance instrument. Two interleaved
//! sets (A B A B ...) of `n` runs of this same binary on every
//! workload, each run with another seed, as the driver does it. For
//! each workload and end-to-end metric it prints both medians, how
//! much worse B's is than A's, the spread between quartiles as a share
//! of the median for each set and for both together, and the bound; it
//! exits non-zero when the difference, or the spread of both sets
//! together, exceeds the bound.

use crate::metrics::{end_to_end, MetricDef};
use crate::stats::{iqr_over_median, median};
use crate::workloads::SPECS;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// `run_seconds` of BENCHMARK.json: the instrument measures what the
/// driver measures.
const RUN_SECONDS: &str = "10";

/// A run that lost more than this share of the host's vCPU time to
/// the hypervisor is run once more; the run with less steal is kept.
const STEAL_RETRY: f64 = 0.02;

/// The time metrics that sit in the per-layer section because they
/// do not repeat on this host (README.md, "Bounds"). An untraced run
/// prints them all the same; they are shown here without a bound, so
/// that the table says how far from repeating they are.
const UNBOUNDED: [MetricDef; 3] = [
    MetricDef {
        name: "fg_ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: None,
    },
    MetricDef {
        name: "build_s",
        unit: "s",
        better: "lower",
        bound: None,
    },
    MetricDef {
        name: "recover_s",
        unit: "s",
        better: "lower",
        bound: None,
    },
];

/// The number on the line of a run's output that starts with `name`.
fn printed(stdout: &str, name: &str) -> Option<f64> {
    stdout.lines().find_map(|l| {
        let mut words = l.split_whitespace();
        if words.next()? == name {
            words.next()?.parse().ok()
        } else {
            None
        }
    })
}

struct Run {
    values: BTreeMap<&'static str, f64>,
    steal_frac: f64,
}

fn run_once(workload: &str, seed: u64, metrics: &[MetricDef]) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            RUN_SECONDS,
            "--trace",
            "0",
        ])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}:\n{stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let mut values = BTreeMap::new();
    for d in metrics {
        values.insert(
            d.name,
            printed(&stdout, d.name).ok_or_else(|| format!("no {} in:\n{stdout}", d.name))?,
        );
    }
    let steal_frac = printed(&stdout, "host.steal_frac").unwrap_or(0.0);
    Ok(Run { values, steal_frac })
}

pub fn run(args: &[String]) -> ExitCode {
    let Some(n) = args
        .first()
        .and_then(|a| a.parse::<usize>().ok())
        .filter(|&n| n >= 2)
    else {
        eprintln!("usage: perfbench repeat <n >= 2>");
        return ExitCode::from(2);
    };
    let metrics: Vec<MetricDef> = end_to_end().into_iter().chain(UNBOUNDED).collect();
    let workloads: Vec<&str> = SPECS.iter().map(|s| s.name).collect();

    // sets[set][workload][metric] -> one value per run
    let mut sets: [BTreeMap<&str, BTreeMap<&'static str, Vec<f64>>>; 2] =
        [BTreeMap::new(), BTreeMap::new()];
    let mut retried = 0;
    for i in 0..n {
        for (set, values) in sets.iter_mut().enumerate() {
            for &w in &workloads {
                let seed = (2 * i + set + 1) as u64;
                let mut run = match run_once(w, seed, &metrics) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                };
                if run.steal_frac > STEAL_RETRY {
                    retried += 1;
                    eprintln!("{w} seed {seed}: steal {:.3}, retried", run.steal_frac);
                    match run_once(w, seed, &metrics) {
                        Ok(again) if again.steal_frac < run.steal_frac => run = again,
                        Ok(_) => {}
                        Err(e) => {
                            eprintln!("{e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                eprintln!("{} {w} seed {seed}: {:?}", ["A", "B"][set], run.values);
                for (name, v) in run.values {
                    values
                        .entry(w)
                        .or_default()
                        .entry(name)
                        .or_default()
                        .push(v);
                }
            }
        }
    }

    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>8} {:>9} {:>9} {:>9} {:>6}",
        "workload",
        "metric",
        "median A",
        "median B",
        "B worse",
        "spread A",
        "spread B",
        "spread AB",
        "bound"
    );
    let mut over = 0;
    for &w in &workloads {
        for d in &metrics {
            let (a, b) = (&sets[0][w][d.name], &sets[1][w][d.name]);
            let (ma, mb) = (median(a), median(b));
            let worse = if d.better == "lower" {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let both: Vec<f64> = a.iter().chain(b).copied().collect();
            let spread = iqr_over_median(&both);
            // The driver holds the spread of ten runs to the bound,
            // and does not hold set-up time to one. With n = 5 the
            // two sets together are those ten runs.
            let over_bound = d
                .bound
                .is_some_and(|b| worse > b || (d.name != "setup_s" && spread > b));
            over += usize::from(over_bound);
            println!(
                "{w:<14} {:<16} {ma:>12.4} {mb:>12.4} {:>7.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>6}{}",
                d.name,
                worse * 100.0,
                iqr_over_median(a) * 100.0,
                iqr_over_median(b) * 100.0,
                spread * 100.0,
                d.bound
                    .map_or("none".into(), |b| format!("{:.0}%", b * 100.0)),
                if over_bound { " OVER" } else { "" }
            );
        }
    }
    println!(
        "{} runs, {retried} retried for steal above {:.0} %, {over} pairs over their bound",
        2 * n * workloads.len(),
        STEAL_RETRY * 100.0
    );
    ExitCode::from(u8::from(over > 0))
}
