//! The top-level accelerator facade: configure a distance function, push
//! sequences through the DAC array, run the analog fabric, read the result
//! back through the ADC array.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use mda_distance::dtw::Band;
use mda_distance::{
    Distance, DistanceKind, Dtw, EditDistance, Hamming, Hausdorff, Lcs, Manhattan, Weights,
};
use mda_spice::Trace;

use crate::analog::engine::StepPlan;
use crate::analog::graph::builders;
use crate::analog::{AnalogEngine, AnalogGraph, ErrorModel};
use crate::array::Structure;
use crate::config::AcceleratorConfig;
use crate::controller::ConfigurationLib;
use crate::encode::VoltageEncoder;
use crate::error::AcceleratorError;
use crate::tiling::TilingPlan;

/// Parameters of the currently configured function.
#[derive(Debug, Clone)]
pub struct FunctionParams {
    /// Match threshold in sequence units (LCS/EdD/HamD).
    pub threshold: f64,
    /// Per-element/pair weight (uniform value; full weight matrices are
    /// programmed through `mda_memristor::tuning` and applied digitally in
    /// the reference comparison).
    pub weight: f64,
    /// Sakoe–Chiba band for DTW.
    pub band: Band,
}

impl Default for FunctionParams {
    fn default() -> Self {
        FunctionParams {
            threshold: 0.1,
            weight: 1.0,
            band: Band::Full,
        }
    }
}

/// Outcome of one accelerated distance computation.
#[derive(Debug, Clone)]
pub struct AnalogOutcome {
    /// The decoded distance value (sequence units / step counts).
    pub value: f64,
    /// The exact digital reference value for the same inputs.
    pub reference: f64,
    /// `|value − reference| / |reference|` (absolute error if the reference
    /// is zero).
    pub relative_error: f64,
    /// The paper's convergence-time measurement, s.
    pub convergence_time_s: f64,
    /// PEs powered for this computation.
    pub active_pes: usize,
    /// Tiling plan (passes > 1 when the sequences exceed the array).
    pub tiling: TilingPlan,
    /// The raw analog output waveform (for early determination).
    pub output_trace: Trace,
}

/// Upper bound on the total nodes of the step plans one accelerator keeps
/// compiled (a DTW plan at length 128 has ~49k). A plan larger than the
/// whole bound is compiled, used and dropped.
pub const PLAN_CACHE_NODES: usize = 1 << 16;

/// Everything a builder graph depends on besides the input values (the
/// error model is re-seeded from the fixed configuration every pair).
/// Parameters a kind ignores are normalized away so they share one plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    kind: DistanceKind,
    len_p: usize,
    len_q: usize,
    band: Band,
    threshold: u64,
    weight: u64,
}

impl PlanKey {
    fn new(kind: DistanceKind, params: &FunctionParams, len_p: usize, len_q: usize) -> PlanKey {
        let thresholded = matches!(
            kind,
            DistanceKind::Lcs | DistanceKind::Edit | DistanceKind::Hamming
        );
        PlanKey {
            kind,
            len_p,
            len_q,
            band: if kind == DistanceKind::Dtw {
                params.band
            } else {
                Band::Full
            },
            threshold: if thresholded {
                params.threshold.to_bits()
            } else {
                0
            },
            weight: params.weight.to_bits(),
        }
    }
}

/// Occupancy of an accelerator's step-plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Plans held.
    pub plans: usize,
    /// Their total node count (never above [`PLAN_CACHE_NODES`]).
    pub nodes: usize,
}

#[derive(Clone, Default)]
struct Plans {
    by_key: HashMap<PlanKey, Arc<StepPlan>>,
    /// Insertion order, oldest first (eviction order).
    order: VecDeque<PlanKey>,
    nodes: usize,
}

/// Compiled step plans by shape, bounded by [`PLAN_CACHE_NODES`] with
/// oldest-first eviction. Shared by concurrent `compute` calls on one
/// accelerator; a clone starts with the same plans.
#[derive(Default)]
struct PlanCache(Mutex<Plans>);

impl PlanCache {
    fn lock(&self) -> MutexGuard<'_, Plans> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get_or_build(&self, key: PlanKey, graph: impl FnOnce() -> AnalogGraph) -> Arc<StepPlan> {
        if let Some(plan) = self.lock().by_key.get(&key) {
            return Arc::clone(plan);
        }
        let plan = Arc::new(StepPlan::build(&graph()));
        let size = plan.len();
        if size <= PLAN_CACHE_NODES {
            let mut plans = self.lock();
            if !plans.by_key.contains_key(&key) {
                while plans.nodes + size > PLAN_CACHE_NODES {
                    let oldest = plans.order.pop_front().expect("nodes > 0 means a plan");
                    let evicted = plans.by_key.remove(&oldest).expect("ordered keys are held");
                    plans.nodes -= evicted.len();
                }
                plans.nodes += size;
                plans.order.push_back(key);
                plans.by_key.insert(key, Arc::clone(&plan));
            }
        }
        plan
    }

    fn stats(&self) -> PlanCacheStats {
        let plans = self.lock();
        PlanCacheStats {
            plans: plans.by_key.len(),
            nodes: plans.nodes,
        }
    }
}

impl Clone for PlanCache {
    fn clone(&self) -> Self {
        PlanCache(Mutex::new(self.lock().clone()))
    }
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("PlanCache").field(&self.stats()).finish()
    }
}

/// A pair encoded for the fabric, with the step plan of its graph shape.
struct PreparedPair {
    plan: Arc<StepPlan>,
    p_volts: Vec<f64>,
    q_volts: Vec<f64>,
}

impl PreparedPair {
    /// The input voltages to stamp onto the plan's sources.
    fn stamp(&self) -> Option<(&[f64], &[f64])> {
        Some((&self.p_volts, &self.q_volts))
    }
}

/// The reconfigurable memristor-based distance accelerator.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct DistanceAccelerator {
    config: AcceleratorConfig,
    encoder: VoltageEncoder,
    lib: ConfigurationLib,
    engine: AnalogEngine,
    configured: Option<(DistanceKind, FunctionParams)>,
    /// Count of reconfigurations performed (for reporting).
    reconfigurations: usize,
    plans: PlanCache,
}

impl DistanceAccelerator {
    /// A new accelerator with the given configuration, not yet configured
    /// for any distance function.
    pub fn new(config: AcceleratorConfig) -> Self {
        DistanceAccelerator {
            encoder: VoltageEncoder::new(config.clone()),
            config,
            lib: ConfigurationLib::paper_library(),
            engine: AnalogEngine::new(),
            configured: None,
            reconfigurations: 0,
            plans: PlanCache::default(),
        }
    }

    /// The accelerator configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The configuration library.
    pub fn library(&self) -> &ConfigurationLib {
        &self.lib
    }

    /// Configures the fabric for `kind` with default parameters.
    ///
    /// # Errors
    ///
    /// Currently infallible for all six kinds; returns `Err` only for
    /// invalid parameter combinations via [`Self::configure_with`].
    pub fn configure(&mut self, kind: DistanceKind) -> Result<(), AcceleratorError> {
        self.configure_with(kind, FunctionParams::default())
    }

    /// Configures the fabric for `kind` with explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns [`AcceleratorError::InvalidConfig`] for non-positive
    /// thresholds or weights outside the memristor-ratio domain.
    pub fn configure_with(
        &mut self,
        kind: DistanceKind,
        params: FunctionParams,
    ) -> Result<(), AcceleratorError> {
        self.check_params(kind, &params)?;
        self.configured = Some((kind, params));
        self.reconfigurations += 1;
        Ok(())
    }

    fn check_params(
        &self,
        kind: DistanceKind,
        params: &FunctionParams,
    ) -> Result<(), AcceleratorError> {
        if !params.threshold.is_finite() || params.threshold < 0.0 {
            return Err(AcceleratorError::InvalidConfig {
                reason: format!("threshold must be non-negative, got {}", params.threshold),
            });
        }
        // Validate the weight maps onto memristor ratios.
        self.lib.configuration(kind).weight_ratios(params.weight)?;
        Ok(())
    }

    /// Occupancy of this accelerator's compiled-plan cache.
    pub fn plan_cache(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// The currently configured function.
    ///
    /// # Errors
    ///
    /// Returns [`AcceleratorError::NotConfigured`] before the first
    /// [`Self::configure`].
    pub fn configured_kind(&self) -> Result<DistanceKind, AcceleratorError> {
        self.configured
            .as_ref()
            .map(|(k, _)| *k)
            .ok_or(AcceleratorError::NotConfigured)
    }

    /// Number of reconfigurations performed so far.
    pub fn reconfigurations(&self) -> usize {
        self.reconfigurations
    }

    /// The digital reference for the configured function (used for the
    /// relative-error measurement and available to applications that want
    /// to cross-check).
    fn reference_distance(
        kind: DistanceKind,
        params: &FunctionParams,
        p: &[f64],
        q: &[f64],
    ) -> Result<f64, AcceleratorError> {
        let weights = Weights::Uniform;
        let d: Box<dyn Distance + Send + Sync> = match kind {
            DistanceKind::Dtw => Box::new(Dtw::new().with_band(params.band).with_weights(weights)),
            DistanceKind::Lcs => Box::new(Lcs::new(params.threshold)),
            DistanceKind::Edit => Box::new(EditDistance::new(params.threshold)),
            DistanceKind::Hausdorff => Box::new(Hausdorff::new()),
            DistanceKind::Hamming => Box::new(Hamming::new(params.threshold)),
            DistanceKind::Manhattan => Box::new(Manhattan::new()),
        };
        let mut v = d.evaluate(p, q)?;
        if (params.weight - 1.0).abs() > 1e-12 {
            // Uniform non-unit weight scales every function linearly.
            v *= params.weight;
        }
        Ok(v)
    }

    /// Runs one distance computation through the analog model.
    ///
    /// # Errors
    ///
    /// Returns [`AcceleratorError::NotConfigured`] before configuration,
    /// [`AcceleratorError::EncodingRange`] for unencodable values, or
    /// [`AcceleratorError::Distance`] for inputs the function rejects
    /// (empty, length mismatch).
    pub fn compute(&self, p: &[f64], q: &[f64]) -> Result<AnalogOutcome, AcceleratorError> {
        let (kind, params) = self
            .configured
            .as_ref()
            .ok_or(AcceleratorError::NotConfigured)?;
        let kind = *kind;
        // Validate inputs via the digital reference first (shape errors).
        let reference = Self::reference_distance(kind, params, p, q)?;
        let pair = self.prepare(kind, params, p, q)?;
        let (sim, _) = self.engine.simulate_plan(&pair.plan, pair.stamp(), &[]);
        let value = self.decode(kind, sim.final_voltage);

        let relative_error = if reference.abs() > 1e-12 {
            ((value - reference) / reference).abs()
        } else {
            value.abs()
        };

        let band = if kind == DistanceKind::Dtw {
            Some(params.band)
        } else {
            None
        };
        let structure = Structure::for_kind(kind);
        let tiling = TilingPlan::plan(structure, self.config.array, p.len(), q.len());
        let active_pes = self.config.array.active_pes(kind, p.len(), q.len(), band);

        // Tiling multiplies the wall-clock time by the number of passes.
        let convergence_time_s = sim.convergence_time_s * tiling.passes as f64;

        Ok(AnalogOutcome {
            value,
            reference,
            relative_error,
            convergence_time_s,
            active_pes,
            tiling,
            output_trace: sim.output_trace,
        })
    }

    /// The decoded value alone of one computation of `kind` with `params`,
    /// as if configured with them: the same checks and errors, in the same
    /// order, as [`Self::configure_with`] followed by [`Self::compute`],
    /// and bitwise the same value. No waveform is recorded. The
    /// accelerator's own configuration is left untouched, so one instance
    /// can serve requests of any kind concurrently and share its plans.
    ///
    /// # Errors
    ///
    /// As [`Self::configure_with`] and [`Self::compute`].
    pub fn value_with(
        &self,
        kind: DistanceKind,
        params: &FunctionParams,
        p: &[f64],
        q: &[f64],
    ) -> Result<f64, AcceleratorError> {
        self.check_params(kind, params)?;
        Self::reference_distance(kind, params, p, q)?;
        let pair = self.prepare(kind, params, p, q)?;
        let settled = self.engine.settle(&pair.plan, pair.stamp(), &[]);
        Ok(self.decode(kind, settled.final_voltage))
    }

    /// Encodes both sequences and fetches (or compiles and caches) the step
    /// plan of their graph shape.
    fn prepare(
        &self,
        kind: DistanceKind,
        params: &FunctionParams,
        p: &[f64],
        q: &[f64],
    ) -> Result<PreparedPair, AcceleratorError> {
        let p_volts = self.encoder.encode(p)?;
        let q_volts = self.encoder.encode(q)?;
        let key = PlanKey::new(kind, params, p.len(), q.len());
        let plan = self
            .plans
            .get_or_build(key, || self.build_graph(kind, params, &p_volts, &q_volts));
        Ok(PreparedPair {
            plan,
            p_volts,
            q_volts,
        })
    }

    /// The fabric graph for one pair, with the offsets of the configured
    /// noise seed.
    fn build_graph(
        &self,
        kind: DistanceKind,
        params: &FunctionParams,
        p_volts: &[f64],
        q_volts: &[f64],
    ) -> AnalogGraph {
        let config = &self.config;
        let thr_volts = config.value_to_voltage(params.threshold);
        let weights = || vec![params.weight; p_volts.len().min(q_volts.len())];
        let mut errors = ErrorModel::new(config.noise_seed);
        match kind {
            DistanceKind::Dtw => builders::dtw(
                config,
                p_volts,
                q_volts,
                params.weight,
                params.band,
                &mut errors,
            ),
            DistanceKind::Lcs => builders::lcs(
                config,
                p_volts,
                q_volts,
                thr_volts,
                params.weight,
                &mut errors,
            ),
            DistanceKind::Edit => builders::edit(config, p_volts, q_volts, thr_volts, &mut errors),
            DistanceKind::Hausdorff => {
                builders::hausdorff(config, p_volts, q_volts, params.weight, &mut errors)
            }
            DistanceKind::Hamming => {
                builders::hamming(config, p_volts, q_volts, thr_volts, &weights(), &mut errors)
            }
            DistanceKind::Manhattan => {
                builders::manhattan(config, p_volts, q_volts, &weights(), &mut errors)
            }
        }
    }

    /// ADC read-out and decoding of a settled output voltage.
    fn decode(&self, kind: DistanceKind, final_voltage: f64) -> f64 {
        let quantized = self.config.adc.quantize(final_voltage);
        match kind {
            // Step-counting functions decode in Vstep units.
            DistanceKind::Lcs | DistanceKind::Edit | DistanceKind::Hamming => {
                quantized / self.config.v_step
            }
            _ => self.config.voltage_to_value(quantized),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accelerator(kind: DistanceKind) -> DistanceAccelerator {
        let mut acc = DistanceAccelerator::new(AcceleratorConfig::paper_defaults());
        acc.configure(kind).unwrap();
        acc
    }

    fn series(len: usize, phase: f64) -> Vec<f64> {
        (0..len)
            .map(|i| (i as f64 * 0.4 + phase).sin() * 2.0)
            .collect()
    }

    #[test]
    fn unconfigured_compute_fails() {
        let acc = DistanceAccelerator::new(AcceleratorConfig::paper_defaults());
        assert!(matches!(
            acc.compute(&[0.0], &[0.0]),
            Err(AcceleratorError::NotConfigured)
        ));
    }

    #[test]
    fn all_six_functions_compute_with_small_error() {
        // Match margins must be decisive relative to the 8-bit DAC LSB
        // (3.9 mV = 0.195 units): element differences are either ~0.02
        // units (clear match at a 0.5-unit threshold) or ~3 units (clear
        // mismatch) — the regime the thresholded functions are designed for.
        let p = series(8, 0.0);
        let q: Vec<f64> = p
            .iter()
            .enumerate()
            .map(|(i, &v)| if i % 2 == 0 { v + 0.02 } else { v + 3.0 })
            .collect();
        for kind in DistanceKind::ALL {
            let mut acc = DistanceAccelerator::new(AcceleratorConfig::paper_defaults());
            acc.configure_with(
                kind,
                FunctionParams {
                    threshold: 0.5,
                    ..FunctionParams::default()
                },
            )
            .unwrap();
            let outcome = acc.compute(&p, &q).unwrap();
            assert!(
                outcome.relative_error < 0.25,
                "{kind}: value {} vs reference {} (rel {})",
                outcome.value,
                outcome.reference,
                outcome.relative_error
            );
            assert!(outcome.convergence_time_s > 0.0, "{kind}");
        }
    }

    #[test]
    fn reconfiguration_switches_function() {
        let mut acc = accelerator(DistanceKind::Manhattan);
        let p = [0.0, 1.0, 2.0];
        let q = [1.0, 1.0, 1.0];
        let md = acc.compute(&p, &q).unwrap();
        assert!((md.reference - 2.0).abs() < 1e-12);
        acc.configure(DistanceKind::Hamming).unwrap();
        let hd = acc.compute(&p, &q).unwrap();
        assert!((hd.reference - 2.0).abs() < 1e-12);
        assert_eq!(acc.reconfigurations(), 2);
    }

    #[test]
    fn length_mismatch_propagates() {
        let acc = accelerator(DistanceKind::Manhattan);
        assert!(matches!(
            acc.compute(&[0.0], &[0.0, 1.0]),
            Err(AcceleratorError::Distance(_))
        ));
    }

    #[test]
    fn banded_dtw_configuration() {
        let mut acc = DistanceAccelerator::new(AcceleratorConfig::paper_defaults());
        acc.configure_with(
            DistanceKind::Dtw,
            FunctionParams {
                band: Band::SakoeChiba(2),
                ..FunctionParams::default()
            },
        )
        .unwrap();
        let p = series(12, 0.0);
        let q = series(12, 0.3);
        let outcome = acc.compute(&p, &q).unwrap();
        assert!(outcome.relative_error < 0.25);
        // The band shrinks the active-PE count below the full square.
        assert!(outcome.active_pes < 12 * 12);
    }

    #[test]
    fn tiling_kicks_in_beyond_array_size() {
        let mut config = AcceleratorConfig::paper_defaults();
        config.array = crate::array::ArrayDimensions::new(8, 8);
        let mut acc = DistanceAccelerator::new(config);
        acc.configure(DistanceKind::Manhattan).unwrap();
        let p = series(20, 0.0);
        let q = series(20, 0.4);
        let outcome = acc.compute(&p, &q).unwrap();
        assert_eq!(outcome.tiling.passes, 3); // ceil(20/8)
        assert!(outcome.relative_error < 0.2);
    }

    #[test]
    fn invalid_threshold_rejected() {
        let mut acc = DistanceAccelerator::new(AcceleratorConfig::paper_defaults());
        assert!(acc
            .configure_with(
                DistanceKind::Lcs,
                FunctionParams {
                    threshold: -1.0,
                    ..FunctionParams::default()
                },
            )
            .is_err());
    }

    #[test]
    fn weighted_computation_scales() {
        let mut acc = DistanceAccelerator::new(AcceleratorConfig::paper_defaults());
        acc.configure_with(
            DistanceKind::Manhattan,
            FunctionParams {
                weight: 0.5,
                ..FunctionParams::default()
            },
        )
        .unwrap();
        let p = [2.0, 4.0];
        let q = [0.0, 0.0];
        let outcome = acc.compute(&p, &q).unwrap();
        assert!((outcome.reference - 3.0).abs() < 1e-12);
        assert!(outcome.relative_error < 0.1);
    }
}
