//! Post-fabrication resistance tuning — Section 3.3(2) and Fig. 4 of the
//! paper.
//!
//! All resistances in the accelerator are memristors, so after fabrication
//! each one must be programmed to its configured value. The paper describes
//! a two-step *modulate / verify* loop:
//!
//! * **analog subtractor** (Fig. 4(a)): ports `x1..x4` modulate `M1..M4`;
//!   then with `y2 = 0, x1 = 0.1 V` the measured `x2` verifies `M1/M2`, and
//!   with `x3 = 0.1 V, x4 = 0` the measured `y2` verifies `M3/M4`;
//! * **analog adder** (Fig. 4(b)): `M(k+1)` is the reference; each `Mi` is
//!   verified by driving `mi = 0.1 V` and measuring `n1`.
//!
//! "The two steps can be iterated several times for better precision."
//!
//! [`tune_ratio`] implements one modulate/verify loop for a single device
//! against a reference; [`SubtractorTuner`] and [`AdderTuner`] apply it to
//! the two circuit shapes. [`try_tune_ratio`] is the typed-error variant
//! used by the conformance harness: it validates its arguments instead of
//! panicking, prechecks the target against the device's programmable window
//! ([`TuneTarget::resistance_bounds`]) and reports unreachable targets and
//! non-convergence as [`TuningError`] values, so faulty cells can never be
//! silently "tuned" to a wrong answer.

use std::fmt;

use rand::Rng;

use crate::biolek::Memristor;

/// A device the modulate/verify loop can program.
///
/// The loop only needs three capabilities: read the (possibly degraded)
/// resistance, know the programmable window, and apply one pulse. Real
/// [`Memristor`]s implement it directly; fault models such as
/// [`FaultyMemristor`](crate::faults::FaultyMemristor) wrap one and distort
/// these primitives.
pub trait TuneTarget {
    /// The resistance a verify step reads back, Ω.
    fn resistance(&self) -> f64;
    /// `(min, max)` resistance the device can be programmed to, Ω.
    ///
    /// A stuck cell collapses this to a point, which is how
    /// [`try_tune_ratio`] detects an unreachable target before wasting
    /// pulses on it.
    fn resistance_bounds(&self) -> (f64, f64);
    /// Applies one programming pulse (positive voltage drives toward LRS).
    fn pulse(&mut self, voltage: f64, width: f64, dt: f64);
}

impl TuneTarget for Memristor {
    fn resistance(&self) -> f64 {
        Memristor::resistance(self)
    }

    fn resistance_bounds(&self) -> (f64, f64) {
        (self.params().r_on, self.params().r_off)
    }

    fn pulse(&mut self, voltage: f64, width: f64, dt: f64) {
        self.apply_voltage(voltage, width, dt);
    }
}

/// Why a typed tuning attempt failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TuningError {
    /// An argument was out of domain (non-positive ratio, tolerance, …).
    InvalidParameter {
        /// Which argument.
        name: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// The target resistance lies outside the device's programmable window,
    /// so no pulse sequence can reach it (e.g. a stuck-at cell).
    TargetUnreachable {
        /// `target_ratio * reference_resistance`, Ω.
        required_resistance: f64,
        /// Lower edge of the programmable window, Ω.
        min_resistance: f64,
        /// Upper edge of the programmable window, Ω.
        max_resistance: f64,
    },
    /// The target was in range but the loop hit its iteration cap — e.g. a
    /// cell whose programming pulses no longer move the state.
    DidNotConverge {
        /// The full report of the failed loop (history included).
        report: TuningReport,
    },
}

impl fmt::Display for TuningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuningError::InvalidParameter { name, reason } => {
                write!(f, "invalid tuning parameter `{name}`: {reason}")
            }
            TuningError::TargetUnreachable {
                required_resistance,
                min_resistance,
                max_resistance,
            } => write!(
                f,
                "target resistance {required_resistance:.3e} Ω outside programmable window \
                 [{min_resistance:.3e}, {max_resistance:.3e}] Ω"
            ),
            TuningError::DidNotConverge { report } => write!(
                f,
                "tuning did not converge after {} iterations (final error {:.3e})",
                report.iterations, report.final_error
            ),
        }
    }
}

impl std::error::Error for TuningError {}

/// Programming-pulse parameters used during modulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PulseSchedule {
    /// Programming voltage magnitude, V (above the switching threshold).
    pub voltage: f64,
    /// Base pulse width, s.
    pub base_width: f64,
    /// Integration step used inside each pulse, s.
    pub dt: f64,
}

impl Default for PulseSchedule {
    fn default() -> Self {
        PulseSchedule {
            voltage: 3.5,
            base_width: 20.0e-9,
            dt: 1.0e-9,
        }
    }
}

/// Why a tuning loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuningOutcome {
    /// The measured ratio reached the tolerance.
    Converged,
    /// The iteration cap was hit before convergence.
    MaxIterationsReached,
}

/// Result of one tuning loop.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningReport {
    /// Whether and how the loop terminated.
    pub outcome: TuningOutcome,
    /// Modulate/verify iterations performed.
    pub iterations: usize,
    /// Final measured relative ratio error.
    pub final_error: f64,
    /// Measured relative error after each verify step.
    pub history: Vec<f64>,
}

impl TuningReport {
    /// `true` if the loop converged within tolerance.
    pub fn converged(&self) -> bool {
        self.outcome == TuningOutcome::Converged
    }
}

/// Tunes `device` until `device.resistance() / reference_resistance` is
/// within `tolerance` (relative) of `target_ratio`.
///
/// Each iteration *verifies* by measuring the ratio with a small multiplicative
/// measurement error (`measure_noise`, e.g. 1e-3 for 0.1 %), then *modulates*
/// with a programming pulse whose width scales with the remaining error —
/// the analog of "M1 will be modulated according to the offset".
///
/// # Panics
///
/// Panics if `target_ratio`, `tolerance` or `reference_resistance` are not
/// positive.
#[allow(clippy::too_many_arguments)]
pub fn tune_ratio<R: Rng + ?Sized>(
    device: &mut Memristor,
    reference_resistance: f64,
    target_ratio: f64,
    tolerance: f64,
    schedule: PulseSchedule,
    max_iterations: usize,
    measure_noise: f64,
    rng: &mut R,
) -> TuningReport {
    assert!(target_ratio > 0.0, "target ratio must be positive");
    assert!(tolerance > 0.0, "tolerance must be positive");
    assert!(
        reference_resistance > 0.0,
        "reference resistance must be positive"
    );

    let target_r =
        (target_ratio * reference_resistance).clamp(device.params().r_on, device.params().r_off);
    run_loop(
        device,
        reference_resistance,
        target_ratio,
        target_r,
        tolerance,
        schedule,
        max_iterations,
        measure_noise,
        rng,
    )
}

/// The shared modulate/verify loop behind [`tune_ratio`] and
/// [`try_tune_ratio`]. `target_r` is the resistance the modulation steers
/// toward; convergence is always verified against the caller's unclamped
/// `target_ratio`, so an out-of-window target reported as reachable by a
/// clamping caller still shows its true residual error.
#[allow(clippy::too_many_arguments)]
fn run_loop<D: TuneTarget + ?Sized, R: Rng + ?Sized>(
    device: &mut D,
    reference_resistance: f64,
    target_ratio: f64,
    target_r: f64,
    tolerance: f64,
    schedule: PulseSchedule,
    max_iterations: usize,
    measure_noise: f64,
    rng: &mut R,
) -> TuningReport {
    let mut history = Vec::new();
    // Proportional gain of the pulse width on the measured error. A gain of
    // ~20 converges from a ±30 % fabrication offset in a few dozen pulses on
    // mid-range devices, but the resistance a pulse moves grows with the
    // device current (∝ 1/R) and with the Biolek window, so toward ~15 kΩ
    // one pulse overshoots the target by more than the error it corrects
    // and a fixed gain settles into a limit cycle. Halving the gain on
    // every overshoot (the error changes sign) damps that out.
    let mut gain = 20.0;
    let mut last_sign = 0.0;

    for iteration in 1..=max_iterations {
        // Verify: measure the ratio with multiplicative instrument noise.
        let noise = 1.0 + rng.gen_range(-measure_noise..=measure_noise);
        let measured_ratio = device.resistance() / reference_resistance * noise;
        let error = measured_ratio / target_ratio - 1.0;
        history.push(error.abs());
        if error.abs() <= tolerance {
            return TuningReport {
                outcome: TuningOutcome::Converged,
                iterations: iteration,
                final_error: error.abs(),
                history,
            };
        }
        // Modulate: pulse width proportional to the error magnitude, with
        // polarity chosen to move the resistance the right way (positive
        // voltage drives toward LRS, i.e. lowers resistance).
        if last_sign != 0.0 && error.signum() != last_sign {
            gain /= 2.0;
        }
        last_sign = error.signum();
        let width = (schedule.base_width * (error.abs() * gain).min(1.0)).max(schedule.dt);
        let direction = if device.resistance() > target_r {
            schedule.voltage
        } else {
            -schedule.voltage
        };
        device.pulse(direction, width, schedule.dt);
    }

    let final_error = (device.resistance() / reference_resistance / target_ratio - 1.0).abs();
    TuningReport {
        outcome: TuningOutcome::MaxIterationsReached,
        iterations: max_iterations,
        final_error,
        history,
    }
}

/// Typed-error variant of [`tune_ratio`], generic over [`TuneTarget`] so
/// fault-injected devices can be tuned through the same loop.
///
/// Validates all arguments (returning
/// [`TuningError::InvalidParameter`] instead of panicking), prechecks the
/// target resistance against the device's programmable window (returning
/// [`TuningError::TargetUnreachable`] without spending a single pulse on a
/// stuck cell), and reports an exhausted iteration cap as
/// [`TuningError::DidNotConverge`] carrying the full report. A successful
/// return therefore *guarantees* the measured ratio is within tolerance —
/// there is no silently-degraded success path.
///
/// # Errors
///
/// [`TuningError`] as described above; never panics.
#[allow(clippy::too_many_arguments)]
pub fn try_tune_ratio<D: TuneTarget + ?Sized, R: Rng + ?Sized>(
    device: &mut D,
    reference_resistance: f64,
    target_ratio: f64,
    tolerance: f64,
    schedule: PulseSchedule,
    max_iterations: usize,
    measure_noise: f64,
    rng: &mut R,
) -> Result<TuningReport, TuningError> {
    let positive_finite = |name: &'static str, value: f64| -> Result<(), TuningError> {
        if value.is_finite() && value > 0.0 {
            Ok(())
        } else {
            Err(TuningError::InvalidParameter {
                name,
                reason: format!("must be positive and finite, got {value}"),
            })
        }
    };
    positive_finite("target_ratio", target_ratio)?;
    positive_finite("tolerance", tolerance)?;
    positive_finite("reference_resistance", reference_resistance)?;
    if !(measure_noise.is_finite() && measure_noise >= 0.0) {
        return Err(TuningError::InvalidParameter {
            name: "measure_noise",
            reason: format!("must be non-negative and finite, got {measure_noise}"),
        });
    }
    if max_iterations == 0 {
        return Err(TuningError::InvalidParameter {
            name: "max_iterations",
            reason: "must be at least 1".to_string(),
        });
    }

    let required_resistance = target_ratio * reference_resistance;
    let (min_resistance, max_resistance) = device.resistance_bounds();
    // The verify step measures a *ratio*, so the window check uses the same
    // relative tolerance: a target within `tolerance` of the window edge is
    // still attainable.
    if required_resistance < min_resistance * (1.0 - tolerance)
        || required_resistance > max_resistance * (1.0 + tolerance)
    {
        return Err(TuningError::TargetUnreachable {
            required_resistance,
            min_resistance,
            max_resistance,
        });
    }

    let target_r = required_resistance.clamp(min_resistance, max_resistance);
    let report = run_loop(
        device,
        reference_resistance,
        target_ratio,
        target_r,
        tolerance,
        schedule,
        max_iterations,
        measure_noise,
        rng,
    );
    match report.outcome {
        TuningOutcome::Converged => Ok(report),
        TuningOutcome::MaxIterationsReached => Err(TuningError::DidNotConverge { report }),
    }
}

/// Tuner for the four memristors of an analog subtractor (Fig. 4(a)).
///
/// The gain of the subtractor depends only on the ratios `M1/M2` and
/// `M3/M4`, so `M2` and `M4` are treated as in-place references and `M1`,
/// `M3` are modulated against them.
#[derive(Debug, Clone)]
pub struct SubtractorTuner {
    /// Target `M1/M2` ratio.
    pub target_m1_m2: f64,
    /// Target `M3/M4` ratio.
    pub target_m3_m4: f64,
    /// Relative tolerance per ratio.
    pub tolerance: f64,
    /// Pulse schedule for modulation.
    pub schedule: PulseSchedule,
    /// Iteration cap per ratio.
    pub max_iterations: usize,
}

impl SubtractorTuner {
    /// A tuner with the paper-grade 1 % tolerance.
    pub fn new(target_m1_m2: f64, target_m3_m4: f64) -> Self {
        SubtractorTuner {
            target_m1_m2,
            target_m3_m4,
            tolerance: 0.01,
            schedule: PulseSchedule::default(),
            max_iterations: 200,
        }
    }

    /// Tunes `m1` against `m2` and `m3` against `m4`, returning one report
    /// per tuned ratio.
    pub fn tune<R: Rng + ?Sized>(
        &self,
        m1: &mut Memristor,
        m2: &Memristor,
        m3: &mut Memristor,
        m4: &Memristor,
        rng: &mut R,
    ) -> [TuningReport; 2] {
        let r1 = tune_ratio(
            m1,
            m2.resistance(),
            self.target_m1_m2,
            self.tolerance,
            self.schedule,
            self.max_iterations,
            1.0e-3,
            rng,
        );
        let r2 = tune_ratio(
            m3,
            m4.resistance(),
            self.target_m3_m4,
            self.tolerance,
            self.schedule,
            self.max_iterations,
            1.0e-3,
            rng,
        );
        [r1, r2]
    }
}

/// Tuner for the `k + 1` memristors of an analog adder (Fig. 4(b)).
///
/// `M(k+1)` is the reference; every other `Mi` is modulated until its ratio
/// to the reference matches the configured weight.
#[derive(Debug, Clone)]
pub struct AdderTuner {
    /// Target ratios `Mi / M(k+1)` for each input memristor.
    pub target_ratios: Vec<f64>,
    /// Relative tolerance per ratio.
    pub tolerance: f64,
    /// Pulse schedule for modulation.
    pub schedule: PulseSchedule,
    /// Iteration cap per device.
    pub max_iterations: usize,
}

impl AdderTuner {
    /// A tuner with the paper-grade 1 % tolerance.
    pub fn new(target_ratios: Vec<f64>) -> Self {
        AdderTuner {
            target_ratios,
            tolerance: 0.01,
            schedule: PulseSchedule::default(),
            max_iterations: 200,
        }
    }

    /// Tunes each input memristor against the reference.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.target_ratios.len()`.
    pub fn tune<R: Rng + ?Sized>(
        &self,
        inputs: &mut [Memristor],
        reference: &Memristor,
        rng: &mut R,
    ) -> Vec<TuningReport> {
        assert_eq!(
            inputs.len(),
            self.target_ratios.len(),
            "one target ratio per input memristor"
        );
        inputs
            .iter_mut()
            .zip(&self.target_ratios)
            .map(|(m, &ratio)| {
                tune_ratio(
                    m,
                    reference.resistance(),
                    ratio,
                    self.tolerance,
                    self.schedule,
                    self.max_iterations,
                    1.0e-3,
                    rng,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BiolekParams;
    use crate::variation::ProcessVariation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fab_device(nominal: f64, rng: &mut StdRng) -> Memristor {
        let v = ProcessVariation::paper_defaults();
        Memristor::at_resistance(BiolekParams::paper_defaults(), v.sample(nominal, rng))
    }

    #[test]
    fn tune_ratio_converges_below_mid_range_without_a_limit_cycle() {
        // Targets near 15–20 kΩ: a pulse sized by a fixed gain overshoots by
        // more than the error it corrects, so an undamped loop oscillates
        // until the budget runs out (the `variation` bin's M0/Mk = 0.7
        // weight did exactly that). Every device here must converge.
        let variation = ProcessVariation::paper_defaults();
        let params = BiolekParams::paper_defaults();
        let mut failed = Vec::new();
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let ratio = 0.5 + 0.005 * seed as f64;
            let reference = variation.sample(30.0e3, &mut rng);
            let mut device =
                Memristor::at_resistance(params, variation.sample(30.0e3 * ratio, &mut rng));
            let report = tune_ratio(
                &mut device,
                reference,
                ratio,
                0.01,
                PulseSchedule::default(),
                500,
                1.0e-3,
                &mut rng,
            );
            if !report.converged() {
                failed.push((seed, ratio, report.final_error));
            }
        }
        assert!(failed.is_empty(), "did not converge: {failed:?}");
    }

    #[test]
    fn tune_ratio_converges_to_unity() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut device = fab_device(60.0e3, &mut rng);
        let report = tune_ratio(
            &mut device,
            50.0e3,
            1.0,
            0.01,
            PulseSchedule::default(),
            500,
            1.0e-3,
            &mut rng,
        );
        assert!(report.converged(), "did not converge: {report:?}");
        assert!((device.resistance() / 50.0e3 - 1.0).abs() < 0.02);
    }

    #[test]
    fn tune_ratio_handles_both_directions() {
        let mut rng = StdRng::seed_from_u64(12);
        // Device starts BELOW target: must be driven toward HRS.
        let mut low = Memristor::at_resistance(BiolekParams::paper_defaults(), 20.0e3);
        let r = tune_ratio(
            &mut low,
            50.0e3,
            1.0,
            0.01,
            PulseSchedule::default(),
            500,
            1.0e-3,
            &mut rng,
        );
        assert!(r.converged());
        // Device starts ABOVE target: driven toward LRS.
        let mut high = Memristor::at_resistance(BiolekParams::paper_defaults(), 90.0e3);
        let r = tune_ratio(
            &mut high,
            50.0e3,
            1.0,
            0.01,
            PulseSchedule::default(),
            500,
            1.0e-3,
            &mut rng,
        );
        assert!(r.converged());
    }

    #[test]
    fn error_history_trends_downward() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut device = fab_device(80.0e3, &mut rng);
        let report = tune_ratio(
            &mut device,
            40.0e3,
            1.0,
            0.005,
            PulseSchedule::default(),
            500,
            1.0e-3,
            &mut rng,
        );
        assert!(report.converged());
        let first = report.history.first().copied().unwrap();
        let last = report.history.last().copied().unwrap();
        assert!(last < first, "error should shrink: {first} -> {last}");
    }

    #[test]
    fn subtractor_tuner_hits_weighted_dtw_ratios() {
        // Weighted DTW: M1/M2 = (2 - w)/w; take w = 0.8 -> ratio 1.5.
        let mut rng = StdRng::seed_from_u64(14);
        let mut m1 = fab_device(60.0e3, &mut rng);
        let m2 = fab_device(40.0e3, &mut rng);
        let mut m3 = fab_device(50.0e3, &mut rng);
        let m4 = fab_device(50.0e3, &mut rng);
        let tuner = SubtractorTuner::new(1.5, 1.0);
        let reports = tuner.tune(&mut m1, &m2, &mut m3, &m4, &mut rng);
        assert!(reports.iter().all(TuningReport::converged));
        assert!((m1.resistance() / m2.resistance() - 1.5).abs() / 1.5 < 0.02);
        assert!((m3.resistance() / m4.resistance() - 1.0).abs() < 0.02);
    }

    #[test]
    fn adder_tuner_programs_weight_vector() {
        // Weighted MD/HamD: M0/Mk = w_k. Tune three devices to distinct
        // weights against a common reference.
        let mut rng = StdRng::seed_from_u64(15);
        let reference = Memristor::at_resistance(BiolekParams::paper_defaults(), 50.0e3);
        let mut inputs = vec![
            fab_device(50.0e3, &mut rng),
            fab_device(50.0e3, &mut rng),
            fab_device(50.0e3, &mut rng),
        ];
        let tuner = AdderTuner::new(vec![0.5, 1.0, 1.6]);
        let reports = tuner.tune(&mut inputs, &reference, &mut rng);
        assert!(reports.iter().all(TuningReport::converged));
        for (m, target) in inputs.iter().zip([0.5, 1.0, 1.6]) {
            let ratio = m.resistance() / reference.resistance();
            assert!(
                (ratio - target).abs() / target < 0.02,
                "ratio {ratio} vs target {target}"
            );
        }
    }

    #[test]
    fn impossible_target_reports_max_iterations() {
        let mut rng = StdRng::seed_from_u64(16);
        let mut device = Memristor::at_resistance(BiolekParams::paper_defaults(), 50.0e3);
        // Ratio 1000 vs a 1 kΩ reference needs 1 MΩ — beyond Roff.
        let report = tune_ratio(
            &mut device,
            1.0e3,
            1000.0,
            0.01,
            PulseSchedule::default(),
            50,
            1.0e-3,
            &mut rng,
        );
        assert_eq!(report.outcome, TuningOutcome::MaxIterationsReached);
    }

    #[test]
    fn try_tune_converges_from_hrs_side_error() {
        // Fabricated above target (HRS-side offset): pulses must drive the
        // resistance down until the two-step loop verifies in tolerance.
        let mut rng = StdRng::seed_from_u64(21);
        let mut device = Memristor::at_resistance(BiolekParams::paper_defaults(), 65.0e3);
        let report = try_tune_ratio(
            &mut device,
            50.0e3,
            1.0,
            0.01,
            PulseSchedule::default(),
            500,
            1.0e-3,
            &mut rng,
        )
        .expect("HRS-side tuning must converge");
        assert!(report.converged());
        assert!((device.resistance() / 50.0e3 - 1.0).abs() < 0.02);
    }

    #[test]
    fn try_tune_converges_from_lrs_side_error() {
        // Fabricated below target (LRS-side offset): driven toward HRS.
        let mut rng = StdRng::seed_from_u64(22);
        let mut device = Memristor::at_resistance(BiolekParams::paper_defaults(), 35.0e3);
        let report = try_tune_ratio(
            &mut device,
            50.0e3,
            1.0,
            0.01,
            PulseSchedule::default(),
            500,
            1.0e-3,
            &mut rng,
        )
        .expect("LRS-side tuning must converge");
        assert!(report.converged());
        assert!((device.resistance() / 50.0e3 - 1.0).abs() < 0.02);
    }

    #[test]
    fn try_tune_rejects_unreachable_target_typed() {
        // Ratio 1000 against a 1 kΩ reference needs 1 MΩ — beyond Roff.
        // The typed API must refuse before wasting pulses, not panic and
        // not report a clamped pseudo-success.
        let mut rng = StdRng::seed_from_u64(23);
        let mut device = Memristor::at_resistance(BiolekParams::paper_defaults(), 50.0e3);
        let before = device.resistance();
        let err = try_tune_ratio(
            &mut device,
            1.0e3,
            1000.0,
            0.01,
            PulseSchedule::default(),
            50,
            1.0e-3,
            &mut rng,
        )
        .expect_err("unreachable target must fail");
        let TuningError::TargetUnreachable {
            required_resistance,
            min_resistance,
            max_resistance,
        } = err
        else {
            panic!("expected TargetUnreachable, got {err:?}");
        };
        assert!((required_resistance - 1.0e6).abs() < 1.0);
        assert!(required_resistance > max_resistance);
        assert!(min_resistance < max_resistance);
        assert_eq!(device.resistance(), before, "no pulses may be spent");
    }

    #[test]
    fn try_tune_rejects_bad_parameters_typed() {
        let mut rng = StdRng::seed_from_u64(24);
        let mut device = Memristor::at_resistance(BiolekParams::paper_defaults(), 50.0e3);
        let cases: [(f64, f64, f64, usize, f64, &str); 5] = [
            (-1.0, 0.01, 50.0e3, 50, 1.0e-3, "target_ratio"),
            (1.0, 0.0, 50.0e3, 50, 1.0e-3, "tolerance"),
            (1.0, 0.01, f64::NAN, 50, 1.0e-3, "reference_resistance"),
            (1.0, 0.01, 50.0e3, 0, 1.0e-3, "max_iterations"),
            (1.0, 0.01, 50.0e3, 50, -0.5, "measure_noise"),
        ];
        for (ratio, tol, reference, iters, noise, expect) in cases {
            let err = try_tune_ratio(
                &mut device,
                reference,
                ratio,
                tol,
                PulseSchedule::default(),
                iters,
                noise,
                &mut rng,
            )
            .expect_err("bad parameter must fail typed");
            let TuningError::InvalidParameter { name, .. } = err else {
                panic!("expected InvalidParameter for {expect}, got {err:?}");
            };
            assert_eq!(name, expect);
        }
    }

    #[test]
    fn try_tune_reports_non_convergence_with_history() {
        // A dead-programming cell looks healthy at precheck but never moves;
        // the loop must exhaust its cap and return the full report.
        use crate::faults::{CellFault, FaultyMemristor};
        let mut rng = StdRng::seed_from_u64(25);
        let inner = Memristor::at_resistance(BiolekParams::paper_defaults(), 80.0e3);
        let mut cell = FaultyMemristor::new(inner, CellFault::DeadProgramming);
        let err = try_tune_ratio(
            &mut cell,
            50.0e3,
            1.0,
            0.01,
            PulseSchedule::default(),
            40,
            1.0e-3,
            &mut rng,
        )
        .expect_err("dead cell cannot converge");
        let TuningError::DidNotConverge { report } = err else {
            panic!("expected DidNotConverge, got {err:?}");
        };
        assert_eq!(report.outcome, TuningOutcome::MaxIterationsReached);
        assert_eq!(report.iterations, 40);
        assert_eq!(report.history.len(), 40);
        assert!(report.final_error > 0.01);
    }

    #[test]
    fn try_tune_compensates_drift_for_in_range_targets() {
        // Retention drift rescales the read path; the ratio controller
        // still converges because the programmable window shifts with it.
        use crate::faults::{CellFault, FaultyMemristor};
        let mut rng = StdRng::seed_from_u64(26);
        let inner = Memristor::at_resistance(BiolekParams::paper_defaults(), 60.0e3);
        let mut cell = FaultyMemristor::new(inner, CellFault::Drift(1.15));
        let report = try_tune_ratio(
            &mut cell,
            50.0e3,
            1.0,
            0.01,
            PulseSchedule::default(),
            500,
            1.0e-3,
            &mut rng,
        )
        .expect("drifted cell with in-range target must still tune");
        assert!(report.converged());
        assert!((TuneTarget::resistance(&cell) / 50.0e3 - 1.0).abs() < 0.02);
    }

    #[test]
    fn try_tune_fails_typed_on_stuck_cells() {
        use crate::faults::{CellFault, FaultyMemristor};
        let mut rng = StdRng::seed_from_u64(27);
        for fault in [CellFault::StuckAtHrs, CellFault::StuckAtLrs] {
            let inner = Memristor::at_resistance(BiolekParams::paper_defaults(), 50.0e3);
            let mut cell = FaultyMemristor::new(inner, fault);
            let err = try_tune_ratio(
                &mut cell,
                50.0e3,
                1.0,
                0.01,
                PulseSchedule::default(),
                200,
                1.0e-3,
                &mut rng,
            )
            .expect_err("stuck cell must fail typed");
            assert!(
                matches!(err, TuningError::TargetUnreachable { .. }),
                "{fault:?}: expected TargetUnreachable, got {err:?}"
            );
        }
    }

    #[test]
    fn tuning_defeats_process_variation_statistically() {
        // The paper's end-to-end claim: +-25 % fabrication spread is reduced
        // to <1-2 % ratio error by tuning, across many devices.
        let mut rng = StdRng::seed_from_u64(17);
        let mut worst: f64 = 0.0;
        for _ in 0..50 {
            let mut device = fab_device(50.0e3, &mut rng);
            let reference = fab_device(50.0e3, &mut rng);
            let report = tune_ratio(
                &mut device,
                reference.resistance(),
                1.0,
                0.01,
                PulseSchedule::default(),
                500,
                1.0e-3,
                &mut rng,
            );
            assert!(report.converged());
            worst = worst.max((device.resistance() / reference.resistance() - 1.0).abs());
        }
        assert!(worst < 0.02, "worst post-tuning ratio error {worst}");
    }
}
