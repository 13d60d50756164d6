//! `search_znorm`: z-normalized banded-DTW subsequence search in the
//! library, on a two-thread `BatchEngine`, with no server. Z-norm, LB_Kim,
//! LB_Keogh, the DP and the batch engine do all the work; the serving
//! layers do none.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mda_distance::lower_bounds::{cascading_dtw_with, envelope, lb_keogh_envelope, lb_kim};
use mda_distance::mining::{SearchStats, SubsequenceSearch};
use mda_distance::znorm::{z_normalize_in_place, z_normalized};
use mda_distance::{Band, BatchEngine, DpScratch, Dtw};

use crate::gen::{random_walk, Rng};
use crate::report::{PassNumbers, Report};
use crate::stats::percentile;
use crate::wire::us;
use crate::{timed_setup, Args};

const HAYSTACK: usize = 1 << 16;
const WINDOW: usize = 128;
const BAND: usize = 6;
const THREADS: usize = 2;
/// Distinct queries, run in order: more than a 40 s pass gets through on a
/// 2-core host, so no query counts twice there.
const QUERIES: usize = 128;
/// Query noise, as a share of the source window's standard deviation.
const NOISE: f64 = 0.2;
/// Queries whose pruning counts and serial-engine time form the ledger.
const LEDGER_QUERIES: usize = 8;
/// Timed-pass queries re-run on `BatchEngine::serial()` for the answer check.
const SERIAL_CHECKS: usize = 2;
/// The layer replay samples every this-many-th haystack window.
const REPLAY_STRIDE: usize = 16;

struct Inputs {
    haystack: Vec<f64>,
    queries: Vec<Vec<f64>>,
    search: SubsequenceSearch,
}

fn setup(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 2);
    let haystack = random_walk(&mut rng, HAYSTACK);
    let queries = (0..QUERIES)
        .map(|_| {
            let start = rng.below(HAYSTACK - WINDOW + 1);
            let source = &haystack[start..start + WINDOW];
            let sigma = mda_distance::znorm::std_dev(source) * NOISE;
            source.iter().map(|x| x + sigma * rng.gaussian()).collect()
        })
        .collect();
    let search = SubsequenceSearch::new(WINDOW, BAND)
        .with_z_normalization(true)
        .with_engine(BatchEngine::new().with_threads(THREADS));
    Inputs {
        haystack,
        queries,
        search,
    }
}

/// A query's answer, compared bitwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Answer {
    offset: usize,
    distance_bits: u64,
}

fn search(s: &SubsequenceSearch, query: &[f64], haystack: &[f64]) -> (Answer, SearchStats) {
    let (m, stats) = s.run(query, haystack).expect("search a valid haystack");
    (
        Answer {
            offset: m.offset,
            distance_bits: m.distance.to_bits(),
        },
        stats,
    )
}

/// Runs queries in order until `duration` has passed (after one untimed
/// warm-up query). Returns the pass's numbers and `(query, answer)` pairs.
fn timed_pass(inputs: &Inputs, duration: Duration) -> (PassNumbers, Vec<(usize, Answer)>) {
    black_box(search(
        &inputs.search,
        &inputs.queries[QUERIES - 1],
        &inputs.haystack,
    ));
    let mut latencies = Vec::new();
    let mut answers = Vec::new();
    let mut windows = 0u64;
    let start = Instant::now();
    while start.elapsed() < duration {
        let q = answers.len() % QUERIES;
        let t0 = Instant::now();
        let (answer, stats) = search(&inputs.search, &inputs.queries[q], &inputs.haystack);
        latencies.push(us(t0.elapsed()));
        windows += stats.windows as u64;
        answers.push((q, answer));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let numbers = PassNumbers {
        throughput_rps: answers.len() as f64 / elapsed,
        latency_p50_us: percentile(&mut latencies, 0.5),
        latency_p99_us: percentile(&mut latencies, 0.99),
        windows_per_s: windows as f64 / elapsed,
        points_per_s: (answers.len() * HAYSTACK) as f64 / elapsed,
    };
    (numbers, answers)
}

pub fn run(args: &Args) -> Report {
    let (inputs, setup_s) = timed_setup(|| setup(args.seed));
    let mut report = Report::default();
    report.set("setup_s", setup_s);
    let (untraced, mut answers) = timed_pass(&inputs, args.pass_duration());
    if args.trace {
        // The per-query timings are already the whole measurement and the
        // library has no client side to add spans to, so the traced pass
        // repeats the untraced one: its "overhead" reads run-to-run noise.
        let (traced, more) = timed_pass(&inputs, args.pass_duration());
        answers.extend(more);
        report.set_overhead(&untraced, &traced);
        ledger(&inputs, &mut report);
    } else {
        report.set_pass(&untraced);
    }
    check(&inputs, &answers, &mut report);
    report
}

/// Every repeat of a query must answer as its first run did; the first
/// [`SERIAL_CHECKS`] queries must match a serial-engine run bitwise, and
/// the first must match the unpruned brute-force scan.
fn check(inputs: &Inputs, answers: &[(usize, Answer)], report: &mut Report) {
    let serial = inputs.search.clone().with_engine(BatchEngine::serial());
    let mut reference: Vec<Option<Answer>> = vec![None; QUERIES];
    for (q, answer) in answers {
        let want = *reference[*q].get_or_insert_with(|| {
            if *q < SERIAL_CHECKS {
                search(&serial, &inputs.queries[*q], &inputs.haystack).0
            } else {
                *answer
            }
        });
        if *answer != want {
            eprintln!("search_znorm mismatch: query {q} got {answer:?} want {want:?}");
        }
        report.check(*answer == want);
    }
    let brute = inputs
        .search
        .run_brute_force(&inputs.queries[0], &inputs.haystack)
        .expect("brute-force scan");
    let brute = Answer {
        offset: brute.offset,
        distance_bits: brute.distance.to_bits(),
    };
    let pruned = reference[0].expect("every pass starts with query 0");
    if brute != pruned {
        eprintln!("search_znorm: pruned {pruned:?} differs from brute force {brute:?}");
    }
    report.check(brute == pruned);
}

/// The cascade's exact counts and the engine speed-up over the first
/// [`LEDGER_QUERIES`] queries, then each cascade stage replayed serially
/// over a sample of the haystack's windows for the first query.
fn ledger(inputs: &Inputs, report: &mut Report) {
    let serial = inputs.search.clone().with_engine(BatchEngine::serial());
    let mut total = SearchStats::default();
    let (mut t_par, mut t_ser) = (0.0, 0.0);
    let mut best0 = f64::INFINITY;
    for (q, query) in inputs.queries.iter().take(LEDGER_QUERIES).enumerate() {
        let t0 = Instant::now();
        let (par, stats) = search(&inputs.search, query, &inputs.haystack);
        t_par += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let (ser, serial_stats) = search(&serial, query, &inputs.haystack);
        t_ser += t0.elapsed().as_secs_f64();
        report.check(par == ser && stats == serial_stats);
        if q == 0 {
            best0 = f64::from_bits(ser.distance_bits);
        }
        total.windows += stats.windows;
        total.pruned_by_kim += stats.pruned_by_kim;
        total.pruned_by_keogh += stats.pruned_by_keogh;
        total.abandoned_early += stats.abandoned_early;
        total.full_computations += stats.full_computations;
    }
    report.set("search.windows", total.windows as f64);
    report.set("search.pruned_kim", total.pruned_by_kim as f64);
    report.set("search.pruned_keogh", total.pruned_by_keogh as f64);
    report.set("search.abandoned", total.abandoned_early as f64);
    report.set("search.full_dp", total.full_computations as f64);
    report.set("search.prune_rate", total.prune_rate());
    report.set("batch.speedup_2t", t_ser / t_par);

    // Stage replay: each stage timed over the whole sample, per window.
    let query = z_normalized(&inputs.queries[0]);
    let (upper, lower) = envelope(&query, BAND).expect("query envelope");
    let offsets: Vec<usize> = (0..=HAYSTACK - WINDOW).step_by(REPLAY_STRIDE).collect();
    let mut windows = vec![vec![0.0; WINDOW]; offsets.len()];
    let per_window = |t0: Instant, n: usize| us(t0.elapsed()) / n as f64;

    let t0 = Instant::now();
    for (w, &off) in windows.iter_mut().zip(&offsets) {
        w.copy_from_slice(&inputs.haystack[off..off + WINDOW]);
        z_normalize_in_place(w);
    }
    report.set("znorm.window_us", per_window(t0, windows.len()));

    let t0 = Instant::now();
    for w in &windows {
        black_box(lb_kim(&query, w).expect("LB_Kim"));
    }
    report.set("lower_bounds.kim_us", per_window(t0, windows.len()));

    let t0 = Instant::now();
    for w in &windows {
        black_box(lb_keogh_envelope(w, &upper, &lower));
    }
    report.set("lower_bounds.keogh_us", per_window(t0, windows.len()));

    // The cascade against the query's final best distance: the threshold
    // the search holds once it has found its match.
    let mut scratch = DpScratch::new();
    let t0 = Instant::now();
    for w in &windows {
        black_box(cascading_dtw_with(&query, w, BAND, best0, &mut scratch).expect("cascade"));
    }
    report.set("lower_bounds.cascade_us", per_window(t0, windows.len()));

    let dtw = Dtw::new().with_band(Band::SakoeChiba(BAND));
    let t0 = Instant::now();
    for w in &windows {
        black_box(dtw.distance(&query, w).expect("banded DTW"));
    }
    report.set("dtw.full_us", per_window(t0, windows.len()));
}
