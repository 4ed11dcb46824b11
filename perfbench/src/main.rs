//! The repo's benchmark. One run measures one workload in a fresh
//! process, against an in-process `mohan_server::Server` reached over
//! loopback through `mohan_client::Client`:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --seed <n> --seconds <s> --trace <0|1>      every workload in turn
//! perfbench repeat <n>
//! ```
//!
//! It prints every metric by name and unit, checks what the program
//! answered, and ends with one JSON line. See README.md.

mod check;
mod env;
mod fg;
mod host;
mod metrics;
mod probes;
mod repeat;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: perfbench [--workload <oltp_closed|sf_online|nsf_online|bulk_parallel>] --seed <n> --seconds <1..60> --trace <0|1>\n       perfbench repeat <n>";

/// The value after `flag`, parsed; `None` when absent or malformed.
fn arg<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let at = args.iter().position(|a| a == flag)?;
    args.get(at + 1)?.parse().ok()
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the metrics being those of `defs`.
fn result_line(report: &workloads::Report, defs: &[metrics::MetricDef]) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.checks.failures.is_empty(),
        report.attempted,
        report.failed
    );
    for (i, d) in defs.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{}` prints an f64 with every digit it has.
        write!(
            line,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name, report.values[d.name], d.unit
        )
        .expect("writing to a String");
    }
    line.push_str("}}");
    line
}

fn run_workload(args: &[String]) -> ExitCode {
    let (Some(name), Some(seed), Some(seconds), Some(trace)) = (
        arg::<String>(args, "--workload"),
        arg::<u64>(args, "--seed"),
        arg::<u32>(args, "--seconds"),
        arg::<u8>(args, "--trace"),
    ) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let Some(spec) = workloads::SPECS.iter().find(|s| s.name == name) else {
        eprintln!("unknown workload {name}\n{USAGE}");
        return ExitCode::from(2);
    };
    if !(1..=60).contains(&seconds) || trace > 1 {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let traced = trace == 1;
    let report = match workloads::run(spec, seed, seconds, traced) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };

    let defs = if traced {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    println!(
        "workload {} seed {seed} seconds {seconds} traced {traced}",
        spec.name
    );
    for d in &defs {
        println!("{:<28} {:>16.6} {}", d.name, report.values[d.name], d.unit);
    }
    println!("attempted {} failed {}", report.attempted, report.failed);
    for note in &report.notes {
        println!("{note}");
    }
    for failure in &report.checks.failures {
        println!("CHECK FAILED {failure}");
    }
    println!("{}", result_line(&report, &defs));
    ExitCode::from(report.checks.exit_code() as u8)
}

/// No `--workload`: every workload in turn, each in a process of its
/// own, with the same arguments.
fn run_every_workload(args: &[String]) -> ExitCode {
    let mut failed = false;
    for spec in workloads::SPECS {
        let status = std::env::current_exe().and_then(|exe| {
            Command::new(exe)
                .args(["--workload", spec.name])
                .args(args)
                .status()
        });
        failed |= !status.is_ok_and(|s| s.success());
    }
    ExitCode::from(u8::from(failed))
}

fn main() -> ExitCode {
    // Time zero of every span and of `setup_s`'s first repetition.
    trace::now_ns();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("repeat") {
        return repeat::run(&args[1..]);
    }
    if args.is_empty() || args.iter().any(|a| a == "--workload") {
        run_workload(&args)
    } else {
        run_every_workload(&args)
    }
}
