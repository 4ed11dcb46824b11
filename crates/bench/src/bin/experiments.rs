//! Experiment runner: prints the replication tables of `EXPERIMENTS.md`
//! (E18, E19, E22).
//!
//! ```text
//! experiments [--full] [--smoke] [e18 e19 e22]   # default: all, quick sizes
//! ```
//!
//! `--smoke` shrinks workloads a further 10x (floored at 1k rows) so
//! CI can exercise each experiment's full code path in seconds.

use mohan_bench::experiments::{self, EXPERIMENTS};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let smoke = args.iter().any(|a| a == "--smoke");
    let ids: Vec<String> = args
        .into_iter()
        .filter(|a| a != "--full" && a != "--smoke")
        .collect();
    let all: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    let ids: Vec<&str> = if ids.is_empty() {
        all.clone()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    let quick = !full;
    if smoke {
        experiments::set_size_divisor(10);
    }
    println!(
        "# Online index build experiments ({} mode)",
        if smoke {
            "smoke"
        } else if quick {
            "quick"
        } else {
            "full"
        }
    );
    println!("# Mohan & Narang, SIGMOD 1992 — see EXPERIMENTS.md for the expected shapes\n");
    let started = Instant::now();
    for id in ids {
        let t0 = Instant::now();
        match experiments::run(id, quick) {
            Some(tables) => {
                for t in tables {
                    t.print();
                }
                println!("  [{id} took {:.1}s]", t0.elapsed().as_secs_f64());
            }
            None => eprintln!("unknown experiment id: {id} (known: {})", all.join(" ")),
        }
    }
    println!("\n# total: {:.1}s", started.elapsed().as_secs_f64());
}
