//! The behavioural ODE engine: integrates the first-order-lag network and
//! measures the paper's convergence time and relative error.

use std::sync::Arc;

use mda_spice::Trace;

use crate::analog::graph::{AnalogGraph, Node, NodeOp, NodeRef};

/// Result of one analog simulation.
#[derive(Debug, Clone)]
pub struct SimulationOutcome {
    /// The settled output voltage, V.
    pub final_voltage: f64,
    /// The paper's convergence time: output within 0.1 % of its final
    /// value, measured from the input edge, s.
    pub convergence_time_s: f64,
    /// The recorded output waveform.
    pub output_trace: Trace,
    /// Number of integration steps taken.
    pub steps: usize,
}

/// Integrates an [`AnalogGraph`].
///
/// Each node follows `dy/dt = (f(inputs) + offset − y)/τ`, discretized with
/// the exact exponential update `y ← target + (y − target)·e^(−dt/τ)`
/// (unconditionally stable; the decay factor is precomputed per node). Fast
/// diode/TG stages (τ below half a step) are treated as combinational and
/// updated in topological order within the step, so a 40-deep diode max
/// chain doesn't accrue an artificial step-per-stage latency.
///
/// Every run first compiles the graph into a [`StepPlan`]; callers that
/// simulate many graphs of one shape compile once and re-stamp the input
/// sources per pair (see `DistanceAccelerator`).
#[derive(Debug, Clone)]
pub struct AnalogEngine {
    /// Convergence band as a fraction of the final value (paper: 0.001).
    pub convergence_fraction: f64,
    /// Hard cap on integration steps.
    pub max_steps: usize,
}

impl Default for AnalogEngine {
    fn default() -> Self {
        AnalogEngine {
            convergence_fraction: 0.001,
            max_steps: 2_000_000,
        }
    }
}

/// The function one span applies, with the parameters its nodes share.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kernel {
    Sub,
    Abs { weight: f64 },
    Min,
    Max,
    Add,
    AddWeighted,
    SelectMatch { threshold: f64 },
    Mismatch { threshold: f64, v_step: f64 },
}

impl Kernel {
    /// The kernel and input count of a module node. Ops that read fixed
    /// input positions take exactly those; `AddWeighted` takes as many
    /// inputs as it has weights to pair them with.
    fn of(node: &Node) -> (Kernel, usize) {
        let fan_in = node.inputs.len();
        match &node.op {
            NodeOp::Sub => (Kernel::Sub, 2),
            NodeOp::Abs => (
                Kernel::Abs {
                    weight: node.weight,
                },
                2,
            ),
            NodeOp::Min => (Kernel::Min, fan_in),
            NodeOp::Max => (Kernel::Max, fan_in),
            NodeOp::Add => (Kernel::Add, fan_in),
            NodeOp::AddWeighted(ws) => (Kernel::AddWeighted, fan_in.min(ws.len())),
            NodeOp::SelectMatch { threshold } => (
                Kernel::SelectMatch {
                    threshold: *threshold,
                },
                4,
            ),
            NodeOp::Mismatch { threshold, v_step } => (
                Kernel::Mismatch {
                    threshold: *threshold,
                    v_step: *v_step,
                },
                2,
            ),
            NodeOp::Const(_) => unreachable!("sources are not stepped"),
        }
    }

    /// Sort key grouping equal kernels next to each other within a level.
    fn key(self) -> (u8, u64, u64) {
        match self {
            Kernel::Sub => (0, 0, 0),
            Kernel::Abs { weight } => (1, weight.to_bits(), 0),
            Kernel::Min => (2, 0, 0),
            Kernel::Max => (3, 0, 0),
            Kernel::Add => (4, 0, 0),
            Kernel::AddWeighted => (5, 0, 0),
            Kernel::SelectMatch { threshold } => (6, threshold.to_bits(), 0),
            Kernel::Mismatch { threshold, v_step } => (7, threshold.to_bits(), v_step.to_bits()),
        }
    }
}

/// A run of consecutive slots of one level with one kernel, one input
/// count and one decay class.
#[derive(Debug, Clone)]
struct Span {
    kernel: Kernel,
    /// Every node of the span snaps to its target (decay 0).
    fast: bool,
    arity: usize,
    /// Slots `start..end` are the span's nodes.
    start: usize,
    end: usize,
    /// Index of the span's first input in [`StepPlan::inputs`]; node `k`
    /// of the span reads `inputs[first_input + k·arity ..][..arity]`.
    first_input: usize,
}

/// An [`AnalogGraph`] compiled for stepping.
///
/// Nodes are renumbered into *slots*: the sources first, in graph order,
/// then the module nodes sorted by level (longest path from a source) and,
/// within a level, grouped into spans of one kernel. Every input of a node
/// sits at a lower level, so the order is topological. Within a step each
/// node reads only its inputs' values of the same step and its own previous
/// value; any topological order therefore computes the same bits as the
/// graph's own order, and the level order lets the independent nodes of a
/// level (a DTW anti-diagonal, all `|P[i] − Q[j]|` cells) overlap instead
/// of chaining. Decay factors, offsets and the ±Vcc rails are precomputed;
/// the per-step work is a gather from the input slots, the kernel, a clamp
/// and a relax.
#[derive(Debug, Clone)]
pub struct StepPlan {
    dt: f64,
    vcc: f64,
    /// Slots `0..sources` hold sources, `sources..` module nodes.
    sources: usize,
    /// Graph-order node → slot.
    slot: Vec<u32>,
    /// Slot of the graph's output node.
    output: usize,
    /// Source voltages as built.
    source_values: Vec<f64>,
    /// Source offsets (they enter the steady state, not the stepping).
    source_offsets: Vec<f64>,
    /// `(first slot, |P|, |Q|)` of the input-sequence sources.
    sequence_sources: Option<(usize, usize, usize)>,
    spans: Vec<Span>,
    /// Input slots of every module node, in slot order.
    inputs: Vec<u32>,
    /// `AddWeighted` weights, aligned with [`Self::inputs`] (zero elsewhere).
    weights: Vec<f64>,
    /// Per module node (indexed `slot − sources`): decay `e^(−dt/τ)`, or 0.0
    /// for fast nodes.
    decay: Vec<f64>,
    /// Per module node: systematic output offset, V.
    offset: Vec<f64>,
}

impl StepPlan {
    /// Compiles `graph`.
    ///
    /// # Panics
    ///
    /// Panics if a module node has fewer inputs than its function reads.
    pub fn build(graph: &AnalogGraph) -> StepPlan {
        let nodes = &graph.nodes;
        let n = nodes.len();
        let min_slow_tau = nodes
            .iter()
            .map(|nd| nd.tau)
            .filter(|&t| t > 1.0e-10)
            .fold(f64::INFINITY, f64::min);
        let dt = if min_slow_tau.is_finite() {
            min_slow_tau / 8.0
        } else {
            1.0e-10
        };
        let fast_cutoff = dt / 2.0;

        let mut level = vec![0u32; n];
        let mut sources = Vec::new();
        let mut modules = Vec::with_capacity(n);
        // Nodes of one module type share a τ: one exp() per distinct τ.
        let mut decay_of_tau: Vec<(u64, f64)> = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            if matches!(node.op, NodeOp::Const(_)) {
                sources.push(i);
                continue;
            }
            level[i] = 1 + node.inputs.iter().map(|r| level[r.0]).max().unwrap_or(0);
            let (kernel, arity) = Kernel::of(node);
            let decay = if node.tau <= fast_cutoff {
                0.0
            } else if let Some(&(_, d)) = decay_of_tau.iter().find(|d| d.0 == node.tau.to_bits()) {
                d
            } else {
                let d = (-dt / node.tau).exp();
                decay_of_tau.push((node.tau.to_bits(), d));
                d
            };
            modules.push((level[i], kernel, arity, decay, i));
        }
        // Stable sorts: by level (graph order within a level), then by
        // kernel within each level that mixes kernels.
        modules.sort_by_key(|m| m.0);
        let group = |&(_, kernel, arity, decay, _): &(u32, Kernel, usize, f64, usize)| {
            (kernel.key(), decay == 0.0, arity)
        };
        for level in modules.chunk_by_mut(|a, b| a.0 == b.0) {
            if !level.is_sorted_by_key(group) {
                level.sort_by_key(group);
            }
        }

        let mut slot = vec![0u32; n];
        for (s, &i) in sources
            .iter()
            .chain(modules.iter().map(|m| &m.4))
            .enumerate()
        {
            slot[i] = s as u32;
        }
        let source_values = sources
            .iter()
            .map(|&i| match nodes[i].op {
                NodeOp::Const(v) => v,
                _ => unreachable!(),
            })
            .collect();
        let source_offsets = sources.iter().map(|&i| nodes[i].offset).collect();
        let sequence_sources = graph
            .sequence_sources
            .map(|(first, m, q)| (slot[first] as usize, m, q));

        let mut spans: Vec<Span> = Vec::new();
        let mut inputs = Vec::new();
        let mut weights = Vec::new();
        let mut decays = Vec::with_capacity(modules.len());
        let mut offsets = Vec::with_capacity(modules.len());
        let mut span_level = 0;
        for (k, &(level, kernel, arity, decay, i)) in modules.iter().enumerate() {
            let s = sources.len() + k;
            let fast = decay == 0.0;
            let same = span_level == level
                && spans.last().is_some_and(|sp| {
                    sp.kernel.key() == kernel.key() && sp.fast == fast && sp.arity == arity
                });
            span_level = level;
            if same {
                spans.last_mut().expect("checked").end = s + 1;
            } else {
                spans.push(Span {
                    kernel,
                    fast,
                    arity,
                    start: s,
                    end: s + 1,
                    first_input: inputs.len(),
                });
            }
            let node = &nodes[i];
            inputs.extend(node.inputs[..arity].iter().map(|r| slot[r.0]));
            match &node.op {
                NodeOp::AddWeighted(ws) => weights.extend_from_slice(&ws[..arity]),
                _ => weights.resize(inputs.len(), 0.0),
            }
            decays.push(decay);
            offsets.push(node.offset);
        }

        StepPlan {
            dt,
            vcc: graph.vcc(),
            sources: sources.len(),
            output: slot[graph.output().0] as usize,
            slot,
            source_values,
            source_offsets,
            sequence_sources,
            spans,
            inputs,
            weights,
            decay: decays,
            offset: offsets,
        }
    }

    /// Number of nodes (sources included).
    pub fn len(&self) -> usize {
        self.slot.len()
    }

    /// `true` for a plan of an empty graph.
    pub fn is_empty(&self) -> bool {
        self.slot.is_empty()
    }

    /// The slot of a graph node.
    fn slot_of(&self, node: NodeRef) -> usize {
        self.slot[node.0] as usize
    }

    /// The initial node values: every source at its voltage — the input
    /// sequences re-stamped from `stamp` when given — and every module
    /// node at 0 V.
    fn initial_values(&self, stamp: Option<(&[f64], &[f64])>) -> Vec<f64> {
        let mut y = vec![0.0; self.len()];
        y[..self.sources].copy_from_slice(&self.source_values);
        if let Some((p, q)) = stamp {
            let (first, m, n) = self
                .sequence_sources
                .expect("only builder graphs are re-stamped");
            assert_eq!((p.len(), q.len()), (m, n), "stamp shape");
            y[first..first + m].copy_from_slice(p);
            y[first + m..first + m + n].copy_from_slice(q);
        }
        y
    }

    /// One integration step over every module node, in slot order. With
    /// `SNAP` every node takes its target outright (the steady-state
    /// evaluation); otherwise only fast nodes do.
    fn step<const SNAP: bool>(&self, y: &mut [f64]) {
        for span in &self.spans {
            if SNAP || span.fast {
                self.relax_span::<true>(span, y);
            } else {
                self.relax_span::<false>(span, y);
            }
        }
    }

    /// Relaxes the nodes of one span. Fixed arities get fixed-size gathers;
    /// the fold, sum and comparison expressions are those of
    /// [`NodeOp::evaluate`], operand for operand.
    fn relax_span<const FAST: bool>(&self, span: &Span, y: &mut [f64]) {
        // Every input of a span's nodes sits at a lower level, hence at a
        // lower slot: the span reads `done` and writes only `out`.
        let (done, rest) = y.split_at_mut(span.start);
        let nodes = span.start - self.sources..span.end - self.sources;
        let inputs = span.first_input..span.first_input + nodes.len() * span.arity;
        let view = SpanView {
            done,
            out: &mut rest[..nodes.len()],
            inputs: &self.inputs[inputs.clone()],
            offset: &self.offset[nodes.clone()],
            decay: &self.decay[nodes],
            vcc: self.vcc,
        };
        match (span.kernel, span.arity) {
            (Kernel::Sub, _) => view.fixed::<FAST, 2>(|y, [a, b]| y[a] - y[b]),
            (Kernel::Abs { weight }, _) => {
                view.fixed::<FAST, 2>(|y, [a, b]| weight * (y[a] - y[b]).abs())
            }
            (Kernel::Min, 3) => {
                view.fixed::<FAST, 3>(|y, [a, b, c]| f64::INFINITY.min(y[a]).min(y[b]).min(y[c]))
            }
            (Kernel::Min, _) => view.any::<FAST>(span.arity, |y, ins, _| {
                ins.iter()
                    .fold(f64::INFINITY, |acc, &j| acc.min(y[j as usize]))
            }),
            (Kernel::Max, 2) => {
                view.fixed::<FAST, 2>(|y, [a, b]| f64::NEG_INFINITY.max(y[a]).max(y[b]))
            }
            (Kernel::Max, _) => view.any::<FAST>(span.arity, |y, ins, _| {
                ins.iter()
                    .fold(f64::NEG_INFINITY, |acc, &j| acc.max(y[j as usize]))
            }),
            (Kernel::Add, 2) => view.fixed::<FAST, 2>(|y, [a, b]| [y[a], y[b]].iter().sum()),
            (Kernel::Add, _) => view.any::<FAST>(span.arity, |y, ins, _| {
                ins.iter().map(|&j| y[j as usize]).sum()
            }),
            (Kernel::AddWeighted, _) => {
                let weights = &self.weights[inputs];
                view.any::<FAST>(span.arity, |y, ins, k| {
                    let ws = &weights[k * ins.len()..(k + 1) * ins.len()];
                    ins.iter().zip(ws).map(|(&j, w)| y[j as usize] * w).sum()
                })
            }
            (Kernel::SelectMatch { threshold }, _) => view.fixed::<FAST, 4>(|y, [a, b, c, d]| {
                if (y[a] - y[b]).abs() <= threshold {
                    y[c]
                } else {
                    y[d]
                }
            }),
            (Kernel::Mismatch { threshold, v_step }, _) => view.fixed::<FAST, 2>(|y, [a, b]| {
                if (y[a] - y[b]).abs() > threshold {
                    v_step
                } else {
                    0.0
                }
            }),
        }
    }

    /// The ideal steady state of every slot, from initial values `y0`:
    /// sources at their voltage plus offset, module nodes evaluated in
    /// topological order, all clamped to the rails — the same expressions
    /// as [`AnalogGraph::steady_state`].
    fn steady_state(&self, y0: &[f64]) -> Vec<f64> {
        let mut steady = y0.to_vec();
        for (v, off) in steady.iter_mut().zip(&self.source_offsets) {
            *v = (*v + off).clamp(-self.vcc, self.vcc);
        }
        self.step::<true>(&mut steady);
        steady
    }
}

/// One span's share of the plan for a relax pass: the values it reads,
/// the values it relaxes, and its nodes' inputs, offsets and decays.
struct SpanView<'a> {
    done: &'a [f64],
    out: &'a mut [f64],
    inputs: &'a [u32],
    offset: &'a [f64],
    decay: &'a [f64],
    vcc: f64,
}

impl SpanView<'_> {
    /// Relaxes every node toward `f(values, input slots)` plus its offset,
    /// clamped to the rails; each node reads exactly `N` inputs.
    #[inline(always)]
    fn fixed<const FAST: bool, const N: usize>(self, f: impl Fn(&[f64], [usize; N]) -> f64) {
        let (done, lo, hi) = (self.done, -self.vcc, self.vcc);
        let nodes = self.out.iter_mut().zip(self.offset).zip(self.decay);
        for (((y, &offset), &decay), ins) in nodes.zip(self.inputs.chunks_exact(N)) {
            let ins: &[u32; N] = ins.try_into().expect("chunks of N");
            let target = (f(done, ins.map(|j| j as usize)) + offset).clamp(lo, hi);
            *y = if FAST {
                target
            } else {
                target + (*y - target) * decay
            };
        }
    }

    /// As [`Self::fixed`] for any input count; `f` also gets the node's
    /// index within the span.
    #[inline(always)]
    fn any<const FAST: bool>(self, arity: usize, f: impl Fn(&[f64], &[u32], usize) -> f64) {
        let (done, lo, hi) = (self.done, -self.vcc, self.vcc);
        let nodes = self.out.iter_mut().zip(self.offset).zip(self.decay);
        for (k, ((y, &offset), &decay)) in nodes.enumerate() {
            let ins = &self.inputs[k * arity..(k + 1) * arity];
            let target = (f(done, ins, k) + offset).clamp(lo, hi);
            *y = if FAST {
                target
            } else {
                target + (*y - target) * decay
            };
        }
    }
}

/// The state a run ends in, plus whatever it recorded.
pub(crate) struct Settled {
    pub(crate) final_voltage: f64,
    pub(crate) steps: usize,
    t_end: f64,
    times: Vec<f64>,
    /// One waveform per recorded slot.
    waveforms: Vec<Vec<f64>>,
}

impl AnalogEngine {
    /// An engine with the paper's 0.1 % convergence criterion.
    pub fn new() -> Self {
        Self::default()
    }

    /// Steps `plan` from all-zero module state (inputs step at t = 0) until
    /// every module node is inside the convergence band of its steady
    /// state. `stamp` replaces the input-sequence voltages the plan was
    /// built with; `record` lists the slots whose waveforms are kept (none:
    /// no time axis is recorded either).
    pub(crate) fn settle(
        &self,
        plan: &StepPlan,
        stamp: Option<(&[f64], &[f64])>,
        record: &[usize],
    ) -> Settled {
        let mut y = plan.initial_values(stamp);
        let steady = plan.steady_state(&y);
        let band: Vec<f64> = steady[plan.sources..]
            .iter()
            .map(|s| (s.abs() * self.convergence_fraction).max(1.0e-6))
            .collect();

        let recording = !record.is_empty();
        let mut times = Vec::new();
        let mut waveforms: Vec<Vec<f64>> = record.iter().map(|&s| vec![y[s]]).collect();
        if recording {
            times.push(0.0);
        }

        let mut t = 0.0;
        let mut steps = 0usize;
        // Checking the settle condition is as expensive as a step; only do
        // it periodically.
        const SETTLE_CHECK_INTERVAL: usize = 8;
        loop {
            steps += 1;
            t += plan.dt;
            plan.step::<false>(&mut y);
            if recording {
                times.push(t);
                for (w, &s) in waveforms.iter_mut().zip(record) {
                    w.push(y[s]);
                }
            }
            if steps.is_multiple_of(SETTLE_CHECK_INTERVAL) || steps >= self.max_steps {
                let all_settled = y[plan.sources..]
                    .iter()
                    .zip(&steady[plan.sources..])
                    .zip(&band)
                    .all(|((v, s), b)| (v - s).abs() <= *b);
                if all_settled || steps >= self.max_steps {
                    break;
                }
            }
        }
        Settled {
            final_voltage: y[plan.output],
            steps,
            t_end: t,
            times,
            waveforms,
        }
    }

    /// Runs a compiled plan and reports the output's convergence, recording
    /// the output waveform and those of `probes`.
    pub(crate) fn simulate_plan(
        &self,
        plan: &StepPlan,
        stamp: Option<(&[f64], &[f64])>,
        probes: &[NodeRef],
    ) -> (SimulationOutcome, Vec<Trace>) {
        let record: Vec<usize> = std::iter::once(plan.output)
            .chain(probes.iter().map(|&r| plan.slot_of(r)))
            .collect();
        let settled = self.settle(plan, stamp, &record);
        let times: Arc<[f64]> = settled.times.into();
        let mut traces = settled
            .waveforms
            .into_iter()
            .map(|values| Trace::shared(Arc::clone(&times), values));
        let output_trace = traces.next().expect("output is recorded");
        let convergence_time_s = output_trace
            .convergence_time(self.convergence_fraction)
            .unwrap_or(settled.t_end);
        let outcome = SimulationOutcome {
            final_voltage: settled.final_voltage,
            convergence_time_s,
            output_trace,
            steps: settled.steps,
        };
        (outcome, traces.collect())
    }

    /// Runs the simulation from all-zero initial state (inputs step at
    /// t = 0) until every node is inside the convergence band of its steady
    /// state, then reports the output's convergence time.
    pub fn simulate(&self, graph: &AnalogGraph) -> SimulationOutcome {
        self.simulate_with_probes(graph, &[]).0
    }

    /// Simulates and additionally records the full waveform of a set of
    /// nodes (used by the early-determination analysis).
    pub fn simulate_with_probes(
        &self,
        graph: &AnalogGraph,
        probes: &[NodeRef],
    ) -> (SimulationOutcome, Vec<Trace>) {
        self.simulate_plan(&StepPlan::build(graph), None, probes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analog::error_model::ErrorModel;
    use crate::analog::graph::builders;
    use crate::config::AcceleratorConfig;
    use mda_distance::dtw::Band;
    use mda_distance::{Distance, Dtw, Manhattan};

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::paper_defaults()
    }

    fn volts(config: &AcceleratorConfig, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| config.value_to_voltage(x)).collect()
    }

    fn series(len: usize, phase: f64) -> Vec<f64> {
        (0..len)
            .map(|i| (i as f64 * 0.4 + phase).sin() * 2.0)
            .collect()
    }

    #[test]
    fn simulation_settles_to_steady_state() {
        let config = cfg();
        let p = series(6, 0.0);
        let q = series(6, 0.3);
        let g = builders::dtw(
            &config,
            &volts(&config, &p),
            &volts(&config, &q),
            1.0,
            Band::Full,
            &mut ErrorModel::ideal(),
        );
        let outcome = AnalogEngine::new().simulate(&g);
        let expected = Dtw::new().evaluate(&p, &q).unwrap();
        let got = config.voltage_to_value(outcome.final_voltage);
        assert!(
            (got - expected).abs() < 0.05,
            "settled {got} vs digital {expected}"
        );
        assert!(outcome.convergence_time_s > 0.0);
    }

    #[test]
    fn dtw_convergence_grows_with_length() {
        let config = cfg();
        let engine = AnalogEngine::new();
        let mut last = 0.0;
        for len in [4, 8, 16] {
            let p = series(len, 0.0);
            let q = series(len, 0.5);
            let g = builders::dtw(
                &config,
                &volts(&config, &p),
                &volts(&config, &q),
                1.0,
                Band::Full,
                &mut ErrorModel::ideal(),
            );
            let tc = engine.simulate(&g).convergence_time_s;
            assert!(tc > last, "len {len}: {tc} not > {last}");
            last = tc;
        }
    }

    #[test]
    fn hausdorff_convergence_saturates_with_length() {
        // The paper's Section 4.2 observation: HauD's convergence time is
        // roughly constant once the length exceeds ~10.
        let config = cfg();
        let engine = AnalogEngine::new();
        let tc = |len: usize| {
            let p = series(len, 0.0);
            let q = series(len, 0.5);
            let g = builders::hausdorff(
                &config,
                &volts(&config, &p),
                &volts(&config, &q),
                1.0,
                &mut ErrorModel::ideal(),
            );
            engine.simulate(&g).convergence_time_s
        };
        let t10 = tc(10);
        let t40 = tc(40);
        assert!(
            t40 < t10 * 2.0,
            "HauD convergence should be ~flat: t10 = {t10:.3e}, t40 = {t40:.3e}"
        );
    }

    #[test]
    fn manhattan_convergence_grows_with_length() {
        // Row structure: the adder's summing-node capacitance grows with n.
        let config = cfg();
        let engine = AnalogEngine::new();
        let tc = |len: usize| {
            let p = series(len, 0.0);
            let q = series(len, 0.5);
            let g = builders::manhattan(
                &config,
                &volts(&config, &p),
                &volts(&config, &q),
                &vec![1.0; len],
                &mut ErrorModel::ideal(),
            );
            engine.simulate(&g).convergence_time_s
        };
        let t10 = tc(10);
        let t40 = tc(40);
        assert!(
            t40 > t10 * 1.5,
            "MD convergence should grow: t10 = {t10:.3e}, t40 = {t40:.3e}"
        );
    }

    #[test]
    fn noisy_run_relative_error_is_small() {
        let config = cfg();
        let p = series(8, 0.0);
        let q = series(8, 0.7);
        let g = builders::manhattan(
            &config,
            &volts(&config, &p),
            &volts(&config, &q),
            &[1.0; 8],
            &mut ErrorModel::new(config.noise_seed),
        );
        let outcome = AnalogEngine::new().simulate(&g);
        let expected = Manhattan::new().evaluate(&p, &q).unwrap();
        let got = config.voltage_to_value(outcome.final_voltage);
        let rel = ((got - expected) / expected).abs();
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn output_trace_is_monotone_charging_for_md() {
        // A row-structure output charges monotonically (single lag chain),
        // which is what makes early determination possible.
        let config = cfg();
        let p = [1.0, 2.0, 0.5, 1.5];
        let q = [0.0, 0.0, 0.0, 0.0];
        let g = builders::manhattan(
            &config,
            &volts(&config, &p),
            &volts(&config, &q),
            &[1.0; 4],
            &mut ErrorModel::ideal(),
        );
        let outcome = AnalogEngine::new().simulate(&g);
        let vals = outcome.output_trace.values();
        for w in vals.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "non-monotone output");
        }
    }

    #[test]
    fn probes_record_waveforms() {
        let config = cfg();
        let p = [1.0, 2.0];
        let q = [0.0, 0.0];
        let g = builders::manhattan(
            &config,
            &volts(&config, &p),
            &volts(&config, &q),
            &[1.0; 2],
            &mut ErrorModel::ideal(),
        );
        let probe = g.output();
        let (outcome, traces) = AnalogEngine::new().simulate_with_probes(&g, &[probe]);
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].len(), outcome.output_trace.len());
        assert!((traces[0].last() - outcome.final_voltage).abs() < 1e-12);
    }

    #[test]
    fn simulate_and_probe_runs_agree() {
        let config = cfg();
        let p = series(5, 0.0);
        let q = series(5, 0.6);
        let g = builders::dtw(
            &config,
            &volts(&config, &p),
            &volts(&config, &q),
            1.0,
            Band::Full,
            &mut ErrorModel::new(1),
        );
        let a = AnalogEngine::new().simulate(&g);
        let (b, _) = AnalogEngine::new().simulate_with_probes(&g, &[]);
        assert_eq!(a.final_voltage, b.final_voltage);
        assert_eq!(a.convergence_time_s, b.convergence_time_s);
    }
}
