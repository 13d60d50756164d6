//! Frozen pre-rework DP kernels and pruning cascade, kept verbatim as the
//! comparison baseline for the `kernels` bench bin.
//!
//! These are the row-major, per-cell-band-tested kernels and the O(n·r)
//! fold-based envelope exactly as they stood before the wavefront/UCR
//! rework, **deliberately self-contained** (no calls into `mda-distance`
//! internals) so later library changes cannot silently drift the baseline.
//! The bench holds the reworked kernels to bitwise identity against these
//! functions and reports the wall-clock ratio; an identity mismatch is a
//! correctness regression and fails the run.
//!
//! Everything here is uniform-weight, matching the subsequence-search hot
//! path the bench times.
//!
//! [`analog`] freezes the behavioural analog engine's interpretive stepping
//! loop the same way, as the reference for the compiled step plan.

/// Sakoe–Chiba admissibility exactly as the old kernels tested it per cell:
/// `|j·m − i·n| ≤ r·m` in `i128`. `r = None` means no band.
#[inline]
fn admissible(r: Option<usize>, i: usize, j: usize, m: usize, n: usize) -> bool {
    match r {
        None => true,
        Some(r) => {
            let jm = j as i128 * m as i128;
            let i_n = i as i128 * n as i128;
            (jm - i_n).abs() <= r as i128 * m as i128
        }
    }
}

/// Pre-rework row-major banded DTW (two rows, per-cell admissibility test).
/// Returns `None` when the band admits no warping path.
pub fn dtw(p: &[f64], q: &[f64], r: Option<usize>) -> Option<f64> {
    let (m, n) = (p.len(), q.len());
    let mut prev = vec![f64::INFINITY; n + 1];
    let mut curr = vec![f64::INFINITY; n + 1];
    prev[0] = 0.0;
    for i in 1..=m {
        curr.fill(f64::INFINITY);
        for j in 1..=n {
            if !admissible(r, i, j, m, n) {
                continue;
            }
            let cost = (p[i - 1] - q[j - 1]).abs();
            let best = curr[j - 1].min(prev[j]).min(prev[j - 1]);
            if best.is_finite() {
                curr[j] = cost + best;
            }
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[n].is_finite().then_some(prev[n])
}

/// Pre-rework row-major LCS similarity (threshold + value step).
pub fn lcs(p: &[f64], q: &[f64], threshold: f64, v_step: f64) -> f64 {
    let (m, n) = (p.len(), q.len());
    let mut prev = vec![0.0f64; n + 1];
    let mut curr = vec![0.0f64; n + 1];
    for i in 1..=m {
        curr[0] = 0.0;
        for j in 1..=n {
            curr[j] = if (p[i - 1] - q[j - 1]).abs() <= threshold {
                prev[j - 1] + v_step
            } else {
                curr[j - 1].max(prev[j])
            };
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[n]
}

/// Pre-rework row-major thresholded edit distance.
pub fn edit(p: &[f64], q: &[f64], threshold: f64, v_step: f64) -> f64 {
    let (m, n) = (p.len(), q.len());
    let mut prev: Vec<f64> = (0..=n).map(|j| j as f64 * v_step).collect();
    let mut curr = vec![0.0f64; n + 1];
    for i in 1..=m {
        curr[0] = i as f64 * v_step;
        for j in 1..=n {
            let w = v_step;
            let del = prev[j] + w;
            let ins = curr[j - 1] + w;
            let diag = if (p[i - 1] - q[j - 1]).abs() <= threshold {
                prev[j - 1]
            } else {
                prev[j - 1] + w
            };
            curr[j] = del.min(ins).min(diag);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[n]
}

/// Pre-rework O(n·r) fold-based Sakoe–Chiba envelope.
pub fn envelope(q: &[f64], r: usize) -> (Vec<f64>, Vec<f64>) {
    let n = q.len();
    let mut upper = vec![0.0; n];
    let mut lower = vec![0.0; n];
    for i in 0..n {
        let lo = i.saturating_sub(r);
        let hi = (i + r).min(n - 1);
        let window = &q[lo..=hi];
        upper[i] = window.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        lower[i] = window.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    }
    (upper, lower)
}

/// LB_Kim as both the old and new cascades use it.
pub fn lb_kim(p: &[f64], q: &[f64]) -> f64 {
    let first = (p[0] - q[0]).abs();
    if p.len() == 1 && q.len() == 1 {
        return first;
    }
    first + (p[p.len() - 1] - q[q.len() - 1]).abs()
}

/// Pre-rework LB_Keogh: re-derives the candidate envelope with the O(n·r)
/// fold on every call.
pub fn lb_keogh(p: &[f64], q: &[f64], r: usize) -> f64 {
    let (upper, lower) = envelope(q, r);
    p.iter()
        .zip(upper.iter().zip(&lower))
        .map(|(&x, (&u, &l))| {
            if x > u {
                x - u
            } else if x < l {
                l - x
            } else {
                0.0
            }
        })
        .sum()
}

/// Pre-rework early-abandoning banded DTW: full-row scan with a per-cell
/// admissibility test, abandoning once a whole row exceeds `best_so_far`.
/// `Ok(None)` = abandoned, `Err(())` = band admits no path.
#[allow(clippy::result_unit_err)]
pub fn dtw_early_abandon(
    p: &[f64],
    q: &[f64],
    r: usize,
    best_so_far: f64,
) -> Result<Option<f64>, ()> {
    let (m, n) = (p.len(), q.len());
    let mut prev = vec![f64::INFINITY; n + 1];
    let mut curr = vec![f64::INFINITY; n + 1];
    prev[0] = 0.0;
    for i in 1..=m {
        curr.fill(f64::INFINITY);
        let mut row_min = f64::INFINITY;
        for j in 1..=n {
            if !admissible(Some(r), i, j, m, n) {
                continue;
            }
            let cost = (p[i - 1] - q[j - 1]).abs();
            let best = curr[j - 1].min(prev[j]).min(prev[j - 1]);
            if best.is_finite() {
                curr[j] = cost + best;
                row_min = row_min.min(curr[j]);
            }
        }
        if row_min > best_so_far {
            return Ok(None);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let v = prev[n];
    if !v.is_finite() {
        return Err(());
    }
    Ok((v <= best_so_far).then_some(v))
}

/// One pre-rework cascade decision: Kim → fold-based Keogh → early abandon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    PrunedByKim,
    PrunedByKeogh,
    AbandonedEarly,
    Computed(f64),
}

/// The pre-rework cascade for one equal-length candidate.
pub fn cascade(p: &[f64], q: &[f64], r: usize, best_so_far: f64) -> Decision {
    let kim = lb_kim(p, q);
    if kim > best_so_far {
        return Decision::PrunedByKim;
    }
    let keogh = lb_keogh(p, q, r);
    if keogh > best_so_far {
        return Decision::PrunedByKeogh;
    }
    match dtw_early_abandon(p, q, r, best_so_far).expect("feasible band") {
        Some(d) => Decision::Computed(d),
        None => Decision::AbandonedEarly,
    }
}

/// Result of the baseline search replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchResult {
    pub offset: usize,
    pub distance: f64,
    pub windows: usize,
    pub pruned: usize,
    pub full_computations: usize,
}

impl SearchResult {
    pub fn prune_rate(&self) -> f64 {
        self.pruned as f64 / self.windows as f64
    }
}

/// Serial replica of the pre-rework three-stage subsequence search: LB_Kim
/// scout, chunked cascade with the chunk-64 local-threshold reset the
/// `BatchEngine` used, ordered strict-< reduction.
pub fn search(query: &[f64], haystack: &[f64], window: usize, r: usize) -> SearchResult {
    const CHUNK: usize = 64;
    let offsets: Vec<usize> = (0..=(haystack.len() - window)).collect();

    // Stage 1: scout.
    let scout = offsets
        .iter()
        .map(|&off| lb_kim(query, &haystack[off..off + window]))
        .enumerate()
        .min_by(|x, y| x.1.total_cmp(&y.1))
        .map(|(i, _)| i)
        .expect("at least one window");
    let best_ub = dtw(
        query,
        &haystack[offsets[scout]..offsets[scout] + window],
        Some(r),
    )
    .expect("feasible band");

    // Stage 2: chunked cascade.
    let mut decisions = Vec::with_capacity(offsets.len());
    for chunk in offsets.chunks(CHUNK) {
        let mut local_best = best_ub;
        for &off in chunk {
            let decision = cascade(query, &haystack[off..off + window], r, local_best);
            if let Decision::Computed(d) = decision {
                if d < local_best {
                    local_best = d;
                }
            }
            decisions.push(decision);
        }
    }

    // Stage 3: ordered reduction.
    let mut result = SearchResult {
        offset: 0,
        distance: f64::INFINITY,
        windows: offsets.len(),
        pruned: 0,
        full_computations: 0,
    };
    for (&offset, decision) in offsets.iter().zip(&decisions) {
        match decision {
            Decision::Computed(d) => {
                result.full_computations += 1;
                if *d < result.distance {
                    result.offset = offset;
                    result.distance = *d;
                }
            }
            _ => result.pruned += 1,
        }
    }
    result
}

/// The behavioural analog engine's interpretive stepping loop exactly as it
/// stood before the compiled step plan: every step, every node gathers its
/// inputs into a scratch `Vec`, matches on its [`NodeOp`], clamps, relaxes,
/// and the output (plus any probes) is pushed into a trace. It reads the
/// graph only through its public accessors and carries its own copies of
/// the module functions and the steady-state evaluation, so later engine
/// changes cannot drift it.
///
/// [`NodeOp`]: mda_core::analog::NodeOp
pub mod analog {
    use mda_core::analog::{AnalogGraph, NodeOp, NodeRef, SimulationOutcome};
    use mda_spice::Trace;

    /// The engine's defaults: 0.1 % convergence band, 2,000,000-step cap.
    const CONVERGENCE_FRACTION: f64 = 0.001;
    const MAX_STEPS: usize = 2_000_000;

    fn evaluate(op: &NodeOp, inputs: &[f64], weight: f64) -> f64 {
        match op {
            NodeOp::Const(v) => *v,
            NodeOp::Sub => inputs[0] - inputs[1],
            NodeOp::Abs => weight * (inputs[0] - inputs[1]).abs(),
            NodeOp::Min => inputs.iter().copied().fold(f64::INFINITY, f64::min),
            NodeOp::Max => inputs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            NodeOp::Add => inputs.iter().sum(),
            NodeOp::AddWeighted(ws) => inputs.iter().zip(ws).map(|(v, w)| v * w).sum(),
            NodeOp::SelectMatch { threshold } => {
                if (inputs[0] - inputs[1]).abs() <= *threshold {
                    inputs[2]
                } else {
                    inputs[3]
                }
            }
            NodeOp::Mismatch { threshold, v_step } => {
                if (inputs[0] - inputs[1]).abs() > *threshold {
                    *v_step
                } else {
                    0.0
                }
            }
        }
    }

    fn steady_state(graph: &AnalogGraph) -> Vec<f64> {
        let vcc = graph.vcc();
        let mut values = vec![0.0; graph.len()];
        for (i, node) in graph.nodes().iter().enumerate() {
            let inputs: Vec<f64> = node.inputs().iter().map(|r| values[r.index()]).collect();
            let v = evaluate(node.op(), &inputs, node.weight()) + node.offset();
            values[i] = v.clamp(-vcc, vcc);
        }
        values
    }

    /// Simulates `graph` with the engine's default settings.
    pub fn simulate(graph: &AnalogGraph) -> SimulationOutcome {
        simulate_with_probes(graph, &[]).0
    }

    /// Simulates `graph`, recording the waveforms of `probes` as well.
    pub fn simulate_with_probes(
        graph: &AnalogGraph,
        probes: &[NodeRef],
    ) -> (SimulationOutcome, Vec<Trace>) {
        let nodes = graph.nodes();
        let n = graph.len();
        let steady = steady_state(graph);
        let out = graph.output().index();
        let vcc = graph.vcc();

        let min_slow_tau = nodes
            .iter()
            .map(|nd| nd.tau())
            .filter(|&t| t > 1.0e-10)
            .fold(f64::INFINITY, f64::min);
        let dt = if min_slow_tau.is_finite() {
            min_slow_tau / 8.0
        } else {
            1.0e-10
        };
        let fast_cutoff = dt / 2.0;
        let mut active = Vec::with_capacity(n);
        let mut decay = vec![0.0; n];
        for (i, node) in nodes.iter().enumerate() {
            if matches!(node.op(), NodeOp::Const(_)) {
                continue;
            }
            active.push(i);
            decay[i] = if node.tau() <= fast_cutoff {
                0.0
            } else {
                (-dt / node.tau()).exp()
            };
        }

        let mut y = vec![0.0; n];
        for (i, node) in nodes.iter().enumerate() {
            if let NodeOp::Const(v) = node.op() {
                y[i] = *v;
            }
        }

        let mut times = vec![0.0];
        let mut values = vec![y[out]];
        let mut probe_values: Vec<Vec<f64>> = probes.iter().map(|p| vec![y[p.index()]]).collect();

        let band: Vec<f64> = steady
            .iter()
            .map(|s| (s.abs() * CONVERGENCE_FRACTION).max(1.0e-6))
            .collect();

        let mut t = 0.0;
        let mut steps = 0usize;
        let mut scratch: Vec<f64> = Vec::with_capacity(8);
        const SETTLE_CHECK_INTERVAL: usize = 8;
        loop {
            steps += 1;
            t += dt;
            for &i in &active {
                let node = &nodes[i];
                scratch.clear();
                scratch.extend(node.inputs().iter().map(|r| y[r.index()]));
                let target =
                    (evaluate(node.op(), &scratch, node.weight()) + node.offset()).clamp(-vcc, vcc);
                let d = decay[i];
                y[i] = if d == 0.0 {
                    target
                } else {
                    target + (y[i] - target) * d
                };
            }
            times.push(t);
            values.push(y[out]);
            for (k, p) in probes.iter().enumerate() {
                probe_values[k].push(y[p.index()]);
            }
            if steps.is_multiple_of(SETTLE_CHECK_INTERVAL) || steps >= MAX_STEPS {
                let all_settled = active.iter().all(|&i| (y[i] - steady[i]).abs() <= band[i]);
                if all_settled || steps >= MAX_STEPS {
                    break;
                }
            }
        }

        let trace = Trace::new(times.clone(), values);
        let convergence_time_s = trace.convergence_time(CONVERGENCE_FRACTION).unwrap_or(t);
        let outcome = SimulationOutcome {
            final_voltage: y[out],
            convergence_time_s,
            output_trace: trace,
            steps,
        };
        let probe_traces = probe_values
            .into_iter()
            .map(|vals| Trace::new(times.clone(), vals))
            .collect();
        (outcome, probe_traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_distance::lower_bounds;
    use mda_distance::{Band, Dtw, EditDistance, Lcs};

    fn wave(i: usize, k: f64) -> f64 {
        (i as f64 * k).sin() * 2.0 + (i as f64 * 0.05).cos()
    }

    #[test]
    fn baseline_kernels_match_library_bitwise() {
        let p: Vec<f64> = (0..33).map(|i| wave(i, 0.31)).collect();
        let q: Vec<f64> = (0..28).map(|i| wave(i, 0.42)).collect();
        for r in [None, Some(5), Some(12)] {
            let lib = Dtw::new()
                .with_band(r.map_or(Band::Full, Band::SakoeChiba))
                .distance(&p, &q);
            match (dtw(&p, &q, r), lib) {
                (Some(b), Ok(l)) => assert_eq!(b.to_bits(), l.to_bits(), "r={r:?}"),
                (None, Err(_)) => {}
                (b, l) => panic!("feasibility disagreement at r={r:?}: {b:?} vs {l:?}"),
            }
        }
        assert_eq!(
            lcs(&p, &q, 0.3, 1.0).to_bits(),
            Lcs::new(0.3).similarity(&p, &q).unwrap().to_bits()
        );
        assert_eq!(
            edit(&p, &q, 0.3, 1.0).to_bits(),
            EditDistance::new(0.3).distance(&p, &q).unwrap().to_bits()
        );
    }

    #[test]
    fn baseline_envelope_matches_library() {
        let q: Vec<f64> = (0..40).map(|i| wave(i, 0.7)).collect();
        for r in [0, 1, 3, 9] {
            let (bu, bl) = envelope(&q, r);
            let (lu, ll) = lower_bounds::envelope(&q, r).unwrap();
            assert_eq!(bu, lu, "upper r={r}");
            assert_eq!(bl, ll, "lower r={r}");
        }
    }

    #[test]
    fn baseline_search_agrees_with_library_search() {
        use mda_distance::mining::SubsequenceSearch;
        use mda_distance::BatchEngine;
        let haystack: Vec<f64> = (0..300).map(|i| wave(i, 0.23)).collect();
        let query: Vec<f64> = (0..32).map(|i| wave(i + 140, 0.23) + 0.01).collect();
        let base = search(&query, &haystack, 32, 3);
        let (lib, stats) = SubsequenceSearch::new(32, 3)
            .with_engine(BatchEngine::serial())
            .run(&query, &haystack)
            .unwrap();
        assert_eq!(base.offset, lib.offset);
        assert_eq!(base.distance.to_bits(), lib.distance.to_bits());
        assert_eq!(base.windows, stats.windows);
    }
}
