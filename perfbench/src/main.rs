//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_mix|search_znorm --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The workload's inputs come from `--seed`
//! alone. An untraced run (`--trace 0`) measures the end-to-end metrics for
//! `--seconds`; a traced run (`--trace 1`) measures half the time untraced
//! and half traced, then replays the same inputs through each layer's
//! public functions for the per-layer ledger. Every answer is checked. The
//! last line of standard output is the result object; the line before it
//! carries the host, commit, seed and mode. See `README.md` beside this
//! file for why each workload exists.

mod gen;
mod ledger;
mod report;
mod scrape;
mod search_znorm;
mod serve_mix;
mod stats;
mod streams;
mod wire;

use std::time::{Duration, Instant};

use report::Report;

/// Set-up runs this many times per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Everything a workload needs from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    /// The measured duration of one timed pass: all of `--seconds`
    /// untraced, half of it per pass when traced.
    pub fn pass_duration(&self) -> Duration {
        let total = Duration::from_secs(self.seconds);
        if self.trace {
            total / 2
        } else {
            total
        }
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, dropping all but the last result,
/// and returns it with the median set-up time in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Tear the previous instance down before timing the next one.
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (
        last.expect("SETUP_REPEATS is positive"),
        stats::median(&mut times),
    )
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: mda-perfbench --workload serve_mix|search_znorm \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut args = Args {
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                args.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be an integer"))
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .unwrap_or_else(|| usage("--seconds must be a positive integer"))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let run: fn(&Args) -> Report = match workload.as_str() {
        "serve_mix" => serve_mix::run,
        "search_znorm" => search_znorm::run,
        other => usage(&format!("unknown workload {other}")),
    };
    let mut report = run(&args);
    if !args.trace {
        report.set("peak_rss_mb", report::peak_rss_mb());
    }
    let meta = report::meta_line(&workload, args.seed, args.seconds, args.trace, &report);
    eprintln!("{meta}");
    println!("{meta}");
    println!("{}", report.result_line(args.trace));
}
