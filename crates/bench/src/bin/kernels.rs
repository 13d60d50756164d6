//! DP-kernel and pruning-cascade bench: the reworked wavefront kernels and
//! cached-envelope UCR cascade against the frozen pre-rework baselines in
//! [`mda_bench::kernels_baseline`].
//!
//! Three gates, all serial (one simulated accelerator host core):
//!
//! 1. **Identity (fatal)** — every reworked kernel must return bitwise the
//!    same value as its frozen baseline over a shape/band sweep, and the
//!    reworked search must return the baseline's match (offset and distance
//!    bits). Any mismatch exits non-zero.
//! 2. **ns/cell** — per-kernel serial throughput, baseline vs reworked.
//! 3. **Search speedup (fatal)** — end-to-end subsequence search must be
//!    ≥ 2× faster than the pre-rework path on the standard workload.
//!
//! Writes `results/BENCH_kernels.json`. `--quick` shrinks the workload for
//! CI; the identity and speedup gates stay fatal in both modes.

use std::time::Instant;

use mda_bench::kernels_baseline as baseline;
use mda_bench::Table;
use mda_distance::mining::SubsequenceSearch;
use mda_distance::{Band, BatchEngine, DpScratch, Dtw, EditDistance, Lcs};

fn wave(i: usize, k: f64, amp: f64) -> f64 {
    (i as f64 * k).sin() * amp + (i as f64 * 0.013).cos() * 0.6
}

fn series(len: usize, seed: usize) -> Vec<f64> {
    (0..len)
        .map(|i| wave(i + 31 * seed, 0.21 + 0.01 * (seed % 7) as f64, 1.8))
        .collect()
}

/// Best-of-3 wall-clock of `f`, which must return a checksum-ish value so
/// the work cannot be optimized away.
fn best_of_3(mut f: impl FnMut() -> f64) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut out = 0.0;
    for _ in 0..3 {
        let start = Instant::now();
        out = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, out)
}

struct KernelRow {
    name: &'static str,
    cells: u64,
    baseline_ns_per_cell: f64,
    new_ns_per_cell: f64,
    identical: bool,
}

/// Bitwise identity sweep of the reworked kernels against the frozen
/// baselines across shapes and bands. Returns the mismatch count.
fn identity_sweep() -> usize {
    let mut mismatches = 0usize;
    let mut check = |name: &str, new_bits: Option<u64>, base_bits: Option<u64>| {
        if new_bits != base_bits {
            eprintln!("IDENTITY MISMATCH: {name}: new {new_bits:?} vs baseline {base_bits:?}");
            mismatches += 1;
        }
    };
    let mut scratch = DpScratch::new();
    let shapes: [(usize, usize); 7] = [
        (1, 1),
        (2, 5),
        (8, 8),
        (17, 9),
        (33, 33),
        (64, 61),
        (128, 128),
    ];
    for &(m, n) in &shapes {
        let p: Vec<f64> = (0..m).map(|i| wave(i, 0.37, 2.0)).collect();
        let q: Vec<f64> = (0..n).map(|i| wave(i, 0.29, 1.7)).collect();
        for r in [None, Some(0), Some(2), Some(7), Some(64)] {
            let band = r.map_or(Band::Full, Band::SakoeChiba);
            let new = Dtw::new()
                .with_band(band)
                .distance_with(&p, &q, &mut scratch)
                .ok();
            check(
                &format!("dtw {m}x{n} r={r:?}"),
                new.map(f64::to_bits),
                baseline::dtw(&p, &q, r).map(f64::to_bits),
            );
        }
        check(
            &format!("lcs {m}x{n}"),
            Some(Lcs::new(0.3).similarity(&p, &q).unwrap().to_bits()),
            Some(baseline::lcs(&p, &q, 0.3, 1.0).to_bits()),
        );
        check(
            &format!("edit {m}x{n}"),
            Some(EditDistance::new(0.3).distance(&p, &q).unwrap().to_bits()),
            Some(baseline::edit(&p, &q, 0.3, 1.0).to_bits()),
        );
    }
    mismatches
}

fn kernel_rows(pairs: usize, len: usize) -> (Vec<KernelRow>, usize) {
    let mut mismatches = 0usize;
    let inputs: Vec<(Vec<f64>, Vec<f64>)> = (0..pairs)
        .map(|k| (series(len, k), series(len, k + 1000)))
        .collect();
    let cells = (pairs * len * len) as u64;
    let banded_r = (len / 20).max(1);
    let mut rows = Vec::new();

    // DTW, full band.
    let (t_base, sum_base) = best_of_3(|| {
        inputs
            .iter()
            .map(|(p, q)| baseline::dtw(p, q, None).unwrap())
            .sum()
    });
    let (t_new, sum_new) = best_of_3(|| {
        let mut scratch = DpScratch::new();
        let dtw = Dtw::new();
        inputs
            .iter()
            .map(|(p, q)| dtw.distance_with(p, q, &mut scratch).unwrap())
            .sum()
    });
    if sum_base.to_bits() != sum_new.to_bits() {
        eprintln!("IDENTITY MISMATCH: dtw_full batch checksum");
        mismatches += 1;
    }
    rows.push(KernelRow {
        name: "dtw_full",
        cells,
        baseline_ns_per_cell: t_base * 1e9 / cells as f64,
        new_ns_per_cell: t_new * 1e9 / cells as f64,
        identical: sum_base.to_bits() == sum_new.to_bits(),
    });

    // DTW, 5%-style band. Cells = the active band cells.
    let band_cells = (Band::SakoeChiba(banded_r).active_cells(len, len) * pairs) as u64;
    let (t_base, sum_base) = best_of_3(|| {
        inputs
            .iter()
            .map(|(p, q)| baseline::dtw(p, q, Some(banded_r)).unwrap())
            .sum()
    });
    let (t_new, sum_new) = best_of_3(|| {
        let mut scratch = DpScratch::new();
        let dtw = Dtw::new().with_band(Band::SakoeChiba(banded_r));
        inputs
            .iter()
            .map(|(p, q)| dtw.distance_with(p, q, &mut scratch).unwrap())
            .sum()
    });
    if sum_base.to_bits() != sum_new.to_bits() {
        eprintln!("IDENTITY MISMATCH: dtw_banded batch checksum");
        mismatches += 1;
    }
    rows.push(KernelRow {
        name: "dtw_banded",
        cells: band_cells,
        baseline_ns_per_cell: t_base * 1e9 / band_cells as f64,
        new_ns_per_cell: t_new * 1e9 / band_cells as f64,
        identical: sum_base.to_bits() == sum_new.to_bits(),
    });

    // LCS.
    let (t_base, sum_base) = best_of_3(|| {
        inputs
            .iter()
            .map(|(p, q)| baseline::lcs(p, q, 0.3, 1.0))
            .sum()
    });
    let (t_new, sum_new) = best_of_3(|| {
        let mut scratch = DpScratch::new();
        let lcs = Lcs::new(0.3);
        inputs
            .iter()
            .map(|(p, q)| lcs.similarity_with(p, q, &mut scratch).unwrap())
            .sum()
    });
    if sum_base.to_bits() != sum_new.to_bits() {
        eprintln!("IDENTITY MISMATCH: lcs batch checksum");
        mismatches += 1;
    }
    rows.push(KernelRow {
        name: "lcs",
        cells,
        baseline_ns_per_cell: t_base * 1e9 / cells as f64,
        new_ns_per_cell: t_new * 1e9 / cells as f64,
        identical: sum_base.to_bits() == sum_new.to_bits(),
    });

    // Edit distance.
    let (t_base, sum_base) = best_of_3(|| {
        inputs
            .iter()
            .map(|(p, q)| baseline::edit(p, q, 0.3, 1.0))
            .sum()
    });
    let (t_new, sum_new) = best_of_3(|| {
        let mut scratch = DpScratch::new();
        let edit = EditDistance::new(0.3);
        inputs
            .iter()
            .map(|(p, q)| edit.distance_with(p, q, &mut scratch).unwrap())
            .sum()
    });
    if sum_base.to_bits() != sum_new.to_bits() {
        eprintln!("IDENTITY MISMATCH: edit batch checksum");
        mismatches += 1;
    }
    rows.push(KernelRow {
        name: "edit",
        cells,
        baseline_ns_per_cell: t_base * 1e9 / cells as f64,
        new_ns_per_cell: t_new * 1e9 / cells as f64,
        identical: sum_base.to_bits() == sum_new.to_bits(),
    });

    (rows, mismatches)
}

struct SearchRun {
    haystack_len: usize,
    window: usize,
    radius: usize,
    baseline_seconds: f64,
    new_seconds: f64,
    baseline_prune_rate: f64,
    new_prune_rate: f64,
    identical: bool,
}

fn search_run(haystack_len: usize, window: usize, radius: usize) -> (SearchRun, usize) {
    let mut mismatches = 0usize;
    // Random-walk-flavoured haystack with a near-match planted mid-way: the
    // standard pruning regime (most windows die in the cascade, a few reach
    // the DP).
    let mut haystack: Vec<f64> = Vec::with_capacity(haystack_len);
    let mut level = 0.0f64;
    for i in 0..haystack_len {
        level += wave(i, 0.83, 0.35);
        haystack.push(level * 0.05 + wave(i, 0.19, 1.2));
    }
    let at = haystack_len / 2;
    let query: Vec<f64> = haystack[at..at + window]
        .iter()
        .enumerate()
        .map(|(i, &v)| v + wave(i, 1.7, 0.02))
        .collect();

    let (t_base, _) = best_of_3(|| baseline::search(&query, &haystack, window, radius).distance);
    let base = baseline::search(&query, &haystack, window, radius);

    let search = SubsequenceSearch::new(window, radius).with_engine(BatchEngine::serial());
    let (t_new, _) = best_of_3(|| search.run(&query, &haystack).unwrap().0.distance);
    let (m, stats) = search.run(&query, &haystack).unwrap();

    let identical = m.offset == base.offset && m.distance.to_bits() == base.distance.to_bits();
    if !identical {
        eprintln!(
            "IDENTITY MISMATCH: search baseline ({}, {}) vs new ({}, {})",
            base.offset, base.distance, m.offset, m.distance
        );
        mismatches += 1;
    }
    (
        SearchRun {
            haystack_len,
            window,
            radius,
            baseline_seconds: t_base,
            new_seconds: t_new,
            baseline_prune_rate: base.prune_rate(),
            new_prune_rate: stats.prune_rate(),
            identical,
        },
        mismatches,
    )
}

fn json(rows: &[KernelRow], search: &SearchRun, mismatches: usize, quick: bool) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"identity_mismatches\": {mismatches},\n"));
    s.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"name\": \"{}\",\n",
                "      \"cells\": {},\n",
                "      \"baseline_ns_per_cell\": {:.3},\n",
                "      \"new_ns_per_cell\": {:.3},\n",
                "      \"speedup\": {:.3},\n",
                "      \"identical\": {}\n",
                "    }}{}\n",
            ),
            r.name,
            r.cells,
            r.baseline_ns_per_cell,
            r.new_ns_per_cell,
            r.baseline_ns_per_cell / r.new_ns_per_cell,
            r.identical,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        concat!(
            "  \"search\": {{\n",
            "    \"haystack_len\": {},\n",
            "    \"window\": {},\n",
            "    \"radius\": {},\n",
            "    \"baseline_seconds\": {:.6},\n",
            "    \"new_seconds\": {:.6},\n",
            "    \"speedup\": {:.3},\n",
            "    \"baseline_prune_rate\": {:.4},\n",
            "    \"new_prune_rate\": {:.4},\n",
            "    \"identical\": {}\n",
            "  }}\n",
        ),
        search.haystack_len,
        search.window,
        search.radius,
        search.baseline_seconds,
        search.new_seconds,
        search.baseline_seconds / search.new_seconds,
        search.baseline_prune_rate,
        search.new_prune_rate,
        search.identical,
    ));
    s.push_str("}\n");
    s
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (pairs, len, haystack_len) = if quick {
        (48, 128, 4096)
    } else {
        (128, 128, 16384)
    };
    let window = 128;
    let radius = window / 20; // the paper's 5% band, rounded down to 6

    println!(
        "DP kernel rework bench (serial){}\n",
        if quick { " — quick" } else { "" }
    );

    let mut mismatches = identity_sweep();

    let (rows, kernel_mismatches) = kernel_rows(pairs, len);
    mismatches += kernel_mismatches;
    let mut table = Table::new([
        "kernel",
        "cells",
        "baseline ns/cell",
        "new ns/cell",
        "speedup",
    ]);
    for r in &rows {
        table.row([
            r.name.into(),
            r.cells.to_string(),
            format!("{:.2}", r.baseline_ns_per_cell),
            format!("{:.2}", r.new_ns_per_cell),
            format!("{:.2}x", r.baseline_ns_per_cell / r.new_ns_per_cell),
        ]);
    }
    println!("{}", table.render());

    let (search, search_mismatches) = search_run(haystack_len, window, radius);
    mismatches += search_mismatches;
    let search_speedup = search.baseline_seconds / search.new_seconds;
    println!(
        "\nsubsequence search: haystack {} window {} radius {}: baseline {:.4}s, new {:.4}s ({:.2}x), prune {:.1}% -> {:.1}%",
        search.haystack_len,
        search.window,
        search.radius,
        search.baseline_seconds,
        search.new_seconds,
        search_speedup,
        search.baseline_prune_rate * 100.0,
        search.new_prune_rate * 100.0,
    );

    let payload = json(&rows, &search, mismatches, quick);
    std::fs::create_dir_all("results").expect("create results dir");
    let path = "results/BENCH_kernels.json";
    std::fs::write(path, payload).expect("write bench json");
    println!("wrote {path}");

    if mismatches > 0 {
        eprintln!("\n{mismatches} identity mismatch(es) — the rework changed kernel values");
        std::process::exit(1);
    }
    if search_speedup < 2.0 {
        eprintln!(
            "\nsearch speedup gate FAILED: {search_speedup:.2}x < 2.0x over the pre-rework path"
        );
        std::process::exit(1);
    }
    println!("\nidentity gate passed; search speedup gate passed ({search_speedup:.2}x)");
}
