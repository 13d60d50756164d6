//! DP-kernel, pruning-cascade and analog-engine bench: the reworked
//! wavefront kernels, the cached-envelope UCR cascade and the compiled
//! analog step plan against the frozen baselines in
//! [`mda_bench::kernels_baseline`].
//!
//! Five gates, all serial (one simulated accelerator host core):
//!
//! 1. **Identity (fatal)** — every reworked kernel must return bitwise the
//!    same value as its frozen baseline over a shape/band sweep, and the
//!    reworked search must return the baseline's match (offset and distance
//!    bits). Any mismatch exits non-zero.
//! 2. **ns/cell** — per-kernel serial throughput, baseline vs reworked.
//! 3. **Search speedup (fatal)** — end-to-end subsequence search must be
//!    ≥ 2× faster than the pre-rework path on the standard workload.
//! 4. **Analog identity (fatal)** — the step-plan engine must reproduce the
//!    frozen interpretive loop bit for bit (final voltage, steps,
//!    convergence time, every output-trace and probe sample) for all six
//!    kinds, both error models, unequal lengths, a stuck fault and a probed
//!    run; the routed `AnalogBackend` must return the frozen path's answers.
//! 5. **Analog speedup (fatal)** — node updates/s of DTW at length 32 must
//!    be ≥ 3× the frozen loop's, measured in the same run.
//!
//! Writes `results/BENCH_kernels.json`. `--quick` shrinks the workload for
//! CI; every gate stays fatal in both modes.

use std::time::Instant;

use mda_bench::kernels_baseline as baseline;
use mda_bench::Table;
use mda_core::analog::graph::builders;
use mda_core::analog::{AnalogEngine, AnalogGraph, ErrorModel, SimulationOutcome};
use mda_core::AcceleratorConfig;
use mda_distance::mining::SubsequenceSearch;
use mda_distance::{Band, BatchEngine, DistanceKind, DpScratch, Dtw, EditDistance, Lcs};
use mda_routing::{AnalogBackend, DistanceBackend, PairRequest};

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

/// Required node-updates/s ratio of the step plan over the frozen loop on
/// DTW at length 32.
const ANALOG_SPEEDUP_GATE: f64 = 3.0;

/// One analog graph shape: a kind (DTW with its band) at `len_p × len_q`.
#[derive(Clone, Copy)]
struct AnalogCase {
    kind: DistanceKind,
    band: Band,
    len_p: usize,
    len_q: usize,
}

impl AnalogCase {
    fn name(&self) -> String {
        let band = match self.band {
            Band::Full => String::new(),
            Band::SakoeChiba(r) => format!(" r={r}"),
        };
        format!("{}{band} {}x{}", self.kind, self.len_p, self.len_q)
    }

    /// The graph `AnalogBackend` builds for pair `k` of this shape.
    fn graph(&self, config: &AcceleratorConfig, k: usize, errors: &mut ErrorModel) -> AnalogGraph {
        let (p, q) = analog_pair(self.len_p, self.len_q, k);
        let volts = |xs: &[f64]| -> Vec<f64> {
            xs.iter()
                .map(|&x| config.dac.quantize(config.value_to_voltage(x)))
                .collect()
        };
        let (pv, qv) = (volts(&p), volts(&q));
        let thr = config.value_to_voltage(0.1);
        let weights = vec![1.0; pv.len().min(qv.len())];
        match self.kind {
            DistanceKind::Dtw => builders::dtw(config, &pv, &qv, 1.0, self.band, errors),
            DistanceKind::Lcs => builders::lcs(config, &pv, &qv, thr, 1.0, errors),
            DistanceKind::Edit => builders::edit(config, &pv, &qv, thr, errors),
            DistanceKind::Hausdorff => builders::hausdorff(config, &pv, &qv, 1.0, errors),
            DistanceKind::Hamming => builders::hamming(config, &pv, &qv, thr, &weights, errors),
            DistanceKind::Manhattan => builders::manhattan(config, &pv, &qv, &weights, errors),
        }
    }

    fn request(&self) -> PairRequest {
        PairRequest {
            kind: self.kind,
            threshold: None,
            band: match self.band {
                Band::Full => None,
                Band::SakoeChiba(r) => Some(r),
            },
        }
    }
}

/// Pair `k` of a shape, inside the DAC's input range.
fn analog_pair(len_p: usize, len_q: usize, k: usize) -> (Vec<f64>, Vec<f64>) {
    let p = (0..len_p).map(|i| wave(i + 7 * k, 0.41, 2.2)).collect();
    let q = (0..len_q).map(|i| wave(i + 7 * k + 3, 0.37, 2.0)).collect();
    (p, q)
}

fn same_outcome(a: &SimulationOutcome, b: &SimulationOutcome) -> bool {
    a.final_voltage.to_bits() == b.final_voltage.to_bits()
        && a.steps == b.steps
        && a.convergence_time_s.to_bits() == b.convergence_time_s.to_bits()
        && same_samples(a.output_trace.values(), b.output_trace.values())
        && same_samples(a.output_trace.times(), b.output_trace.times())
}

fn same_samples(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The analog identity sweep: the step-plan engine against the frozen loop
/// on every kind, both error models, unequal lengths, a stuck fault and a
/// probed run; then `AnalogBackend` answers against the frozen path.
/// Returns the mismatch count.
fn analog_identity_sweep() -> usize {
    let config = AcceleratorConfig::paper_defaults();
    let engine = AnalogEngine::new();
    let mut mismatches = 0usize;
    let mut check = |name: String, ok: bool| {
        if !ok {
            eprintln!("ANALOG IDENTITY MISMATCH: {name}");
            mismatches += 1;
        }
    };
    for case in analog_cases(&[(1, 1), (8, 8), (8, 13), (13, 8)]) {
        for seeded in [false, true] {
            let mut errors = if seeded {
                ErrorModel::new(config.noise_seed)
            } else {
                ErrorModel::ideal()
            };
            let graph = case.graph(&config, 0, &mut errors);
            check(
                format!("{} seeded={seeded}", case.name()),
                same_outcome(
                    &engine.simulate(&graph),
                    &baseline::analog::simulate(&graph),
                ),
            );
        }
    }

    let dtw = AnalogCase {
        kind: DistanceKind::Dtw,
        band: Band::Full,
        len_p: 8,
        len_q: 8,
    };
    let mut graph = dtw.graph(&config, 1, &mut ErrorModel::new(config.noise_seed));
    let modules = graph.module_nodes();
    let probes = [modules[3], modules[modules.len() / 2], graph.output()];
    let (new, new_traces) = engine.simulate_with_probes(&graph, &probes);
    let (old, old_traces) = baseline::analog::simulate_with_probes(&graph, &probes);
    let probes_same = new_traces.len() == old_traces.len()
        && new_traces
            .iter()
            .zip(&old_traces)
            .all(|(a, b)| same_samples(a.values(), b.values()));
    check(
        "DTW 8x8 probed".into(),
        same_outcome(&new, &old) && probes_same,
    );
    graph.inject_stuck_fault(modules[modules.len() / 3], 0.0);
    check(
        "DTW 8x8 stuck fault".into(),
        same_outcome(
            &engine.simulate(&graph),
            &baseline::analog::simulate(&graph),
        ),
    );

    // The routed backend: cached plans, re-stamped per pair, value only.
    let backend = AnalogBackend::default();
    let mut scratch = DpScratch::new();
    for case in analog_cases(&[(8, 8), (16, 16)]) {
        for k in 0..3 {
            let (p, q) = analog_pair(case.len_p, case.len_q, k);
            let served = backend
                .evaluate(&case.request(), &p, &q, &mut scratch)
                .expect("encodable pair");
            let graph = case.graph(&config, k, &mut ErrorModel::new(config.noise_seed));
            let frozen = decode(
                &config,
                case.kind,
                baseline::analog::simulate(&graph).final_voltage,
            );
            check(
                format!("AnalogBackend {} pair {k}", case.name()),
                served.to_bits() == frozen.to_bits(),
            );
        }
    }
    mismatches
}

/// The accelerator's ADC read-out and decoding.
fn decode(config: &AcceleratorConfig, kind: DistanceKind, volts: f64) -> f64 {
    let quantized = config.adc.quantize(volts);
    match kind {
        DistanceKind::Lcs | DistanceKind::Edit | DistanceKind::Hamming => quantized / config.v_step,
        _ => config.voltage_to_value(quantized),
    }
}

/// Every kind at every shape (equal lengths only for the row kinds), plus
/// banded DTW.
fn analog_cases(shapes: &[(usize, usize)]) -> Vec<AnalogCase> {
    let mut cases = Vec::new();
    for &(len_p, len_q) in shapes {
        for kind in DistanceKind::ALL {
            let row = matches!(kind, DistanceKind::Hamming | DistanceKind::Manhattan);
            if row && len_p != len_q {
                continue;
            }
            let bands: &[Band] = if kind == DistanceKind::Dtw {
                &[Band::Full, Band::SakoeChiba(2)]
            } else {
                &[Band::Full]
            };
            for &band in bands {
                cases.push(AnalogCase {
                    kind,
                    band,
                    len_p,
                    len_q,
                });
            }
        }
    }
    cases
}

struct AnalogRow {
    name: String,
    /// Module-node updates per simulation, summed over the timed pairs.
    node_updates: u64,
    baseline_updates_per_s: f64,
    plan_updates_per_s: f64,
    /// Served `AnalogBackend::evaluate` per pair vs the frozen served path
    /// (graph build + frozen loop + decode), µs.
    baseline_served_us: f64,
    served_us: f64,
}

impl AnalogRow {
    fn speedup(&self) -> f64 {
        self.plan_updates_per_s / self.baseline_updates_per_s
    }
}

/// Node-updates/s of the frozen loop and the step plan (both simulating
/// from the graph, trace recorded), and µs per served pair, over `pairs`
/// inputs of one shape.
fn analog_row(case: AnalogCase, pairs: usize) -> AnalogRow {
    let config = AcceleratorConfig::paper_defaults();
    let engine = AnalogEngine::new();
    let graphs: Vec<AnalogGraph> = (0..pairs)
        .map(|k| case.graph(&config, k, &mut ErrorModel::new(config.noise_seed)))
        .collect();
    let node_updates: u64 = graphs
        .iter()
        .map(|g| (g.module_nodes().len() * engine.simulate(g).steps) as u64)
        .sum();
    let (t_base, _) = best_of_3(|| {
        graphs
            .iter()
            .map(|g| baseline::analog::simulate(g).final_voltage)
            .sum()
    });
    let (t_plan, _) = best_of_3(|| {
        graphs
            .iter()
            .map(|g| engine.simulate(g).final_voltage)
            .sum()
    });

    let inputs: Vec<(Vec<f64>, Vec<f64>)> = (0..pairs)
        .map(|k| analog_pair(case.len_p, case.len_q, k))
        .collect();
    let (t_base_served, _) = best_of_3(|| {
        (0..pairs)
            .map(|k| {
                let g = case.graph(&config, k, &mut ErrorModel::new(config.noise_seed));
                decode(
                    &config,
                    case.kind,
                    baseline::analog::simulate(&g).final_voltage,
                )
            })
            .sum()
    });
    let backend = AnalogBackend::default();
    let mut scratch = DpScratch::new();
    let req = case.request();
    let (t_served, _) = best_of_3(|| {
        inputs
            .iter()
            .map(|(p, q)| backend.evaluate(&req, p, q, &mut scratch).unwrap())
            .sum()
    });
    AnalogRow {
        name: case.name(),
        node_updates,
        baseline_updates_per_s: node_updates as f64 / t_base,
        plan_updates_per_s: node_updates as f64 / t_plan,
        baseline_served_us: t_base_served * 1e6 / pairs as f64,
        served_us: t_served * 1e6 / pairs as f64,
    }
}

/// Rows for every kind at length 8 and DTW at length 32; the last row is
/// the gated one.
fn analog_rows(pairs_len8: usize, pairs_len32: usize) -> Vec<AnalogRow> {
    let mut rows: Vec<AnalogRow> = analog_cases(&[(8, 8)])
        .into_iter()
        .filter(|c| c.band == Band::Full)
        .map(|c| analog_row(c, pairs_len8))
        .collect();
    rows.push(analog_row(
        AnalogCase {
            kind: DistanceKind::Dtw,
            band: Band::Full,
            len_p: 32,
            len_q: 32,
        },
        pairs_len32,
    ));
    rows
}

fn analog_json(rows: &[AnalogRow], mismatches: usize) -> String {
    let mut s = String::from("  \"analog\": {\n");
    s.push_str(&format!("    \"identity_mismatches\": {mismatches},\n"));
    s.push_str(&format!(
        "    \"speedup_gate\": {ANALOG_SPEEDUP_GATE:.1},\n"
    ));
    s.push_str("    \"engines\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "      {{\n",
                "        \"name\": \"{}\",\n",
                "        \"node_updates\": {},\n",
                "        \"baseline_node_updates_per_s\": {:.4e},\n",
                "        \"plan_node_updates_per_s\": {:.4e},\n",
                "        \"speedup\": {:.3},\n",
                "        \"baseline_served_us\": {:.3},\n",
                "        \"served_us\": {:.3}\n",
                "      }}{}\n",
            ),
            r.name,
            r.node_updates,
            r.baseline_updates_per_s,
            r.plan_updates_per_s,
            r.speedup(),
            r.baseline_served_us,
            r.served_us,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("    ]\n  },\n");
    s
}

fn json(
    rows: &[KernelRow],
    search: &SearchRun,
    analog: &str,
    mismatches: usize,
    quick: bool,
) -> String {
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
    s.push_str(analog);
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

    let analog_mismatches = analog_identity_sweep();
    let (pairs_len8, pairs_len32) = if quick { (4, 2) } else { (16, 4) };
    let analog = analog_rows(pairs_len8, pairs_len32);
    let mut table = Table::new([
        "analog engine",
        "node updates",
        "frozen updates/s",
        "plan updates/s",
        "speedup",
        "served frozen us",
        "served us",
    ]);
    for r in &analog {
        table.row([
            r.name.clone(),
            r.node_updates.to_string(),
            format!("{:.3e}", r.baseline_updates_per_s),
            format!("{:.3e}", r.plan_updates_per_s),
            format!("{:.2}x", r.speedup()),
            format!("{:.1}", r.baseline_served_us),
            format!("{:.1}", r.served_us),
        ]);
    }
    println!("\n{}", table.render());
    let analog_speedup = analog.last().expect("DTW len-32 row").speedup();

    let payload = json(
        &rows,
        &search,
        &analog_json(&analog, analog_mismatches),
        mismatches,
        quick,
    );
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
    if analog_mismatches > 0 {
        eprintln!(
            "\n{analog_mismatches} analog identity mismatch(es) — the step plan changed engine values"
        );
        std::process::exit(1);
    }
    if analog_speedup < ANALOG_SPEEDUP_GATE {
        eprintln!(
            "\nanalog speedup gate FAILED: DTW len 32 {analog_speedup:.2}x < {ANALOG_SPEEDUP_GATE:.1}x node updates/s over the frozen loop"
        );
        std::process::exit(1);
    }
    println!(
        "\nidentity gates passed; search speedup gate passed ({search_speedup:.2}x); \
         analog speedup gate passed (DTW len 32: {analog_speedup:.2}x)"
    );
}
