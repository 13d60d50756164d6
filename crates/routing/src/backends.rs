//! The three [`DistanceBackend`] implementations, each wrapping one of the
//! repo's existing answer paths without changing its semantics.

use std::sync::OnceLock;

use mda_acam::OneShotMatcher;
use mda_core::accelerator::{FunctionParams, PlanCacheStats};
use mda_core::bounds::{acam, behavioural, Bound};
use mda_core::{AcceleratorConfig, DistanceAccelerator};
use mda_distance::dtw::Band;
use mda_distance::{
    Distance, DistanceKind, DpScratch, Dtw, EditDistance, Hamming, Hausdorff, Lcs, Manhattan,
};
use mda_power::budget::{PowerBudget, PAPER_ELEMENT_RATE};

use crate::backend::{BackendError, BackendId, DistanceBackend, PairRequest};

/// Modeled wall power of the digital host while it computes a DP kernel —
/// one data-center CPU socket's typical sustained draw. The point of the
/// figure is its *order*: digital costs tens of watts where the analog
/// fabric costs single-digit watts (paper Section 4.3), so the router's
/// cheapest-first scan prefers analog whenever the SLA admits it.
pub const DIGITAL_HOST_WATTS: f64 = 65.0;

/// Paper default threshold when a request carries none — the same default
/// `mda-server`'s executor applies.
const DEFAULT_THRESHOLD: f64 = 0.1;

/// The digital DP library, exactly as `mda-server`'s executor drives it:
/// same constructors, same threshold default, same band handling — so its
/// answers are bitwise identical to every pre-routing reply.
#[derive(Debug, Default)]
pub struct DigitalExactBackend;

impl DistanceBackend for DigitalExactBackend {
    fn id(&self) -> BackendId {
        BackendId::DigitalExact
    }

    fn supports(&self, _kind: DistanceKind, _len: usize) -> bool {
        true
    }

    fn bound(&self, _kind: DistanceKind, _len: usize) -> Bound {
        Bound::EXACT
    }

    fn power_w(&self, _kind: DistanceKind, _len: usize) -> f64 {
        DIGITAL_HOST_WATTS
    }

    fn evaluate(
        &self,
        req: &PairRequest,
        p: &[f64],
        q: &[f64],
        scratch: &mut DpScratch,
    ) -> Result<f64, BackendError> {
        let threshold = req.threshold.unwrap_or(DEFAULT_THRESHOLD);
        let value = match req.kind {
            DistanceKind::Dtw => {
                let mut dtw = Dtw::new();
                if let Some(r) = req.band {
                    dtw = dtw.with_band(Band::SakoeChiba(r));
                }
                dtw.evaluate_with(p, q, scratch)
            }
            DistanceKind::Lcs => Lcs::new(threshold).evaluate_with(p, q, scratch),
            DistanceKind::Edit => EditDistance::new(threshold).evaluate_with(p, q, scratch),
            DistanceKind::Hausdorff => Hausdorff::new().evaluate_with(p, q, scratch),
            DistanceKind::Hamming => Hamming::new(threshold).evaluate_with(p, q, scratch),
            DistanceKind::Manhattan => Manhattan::new().evaluate_with(p, q, scratch),
        }?;
        Ok(value)
    }
}

/// The behavioural (array-level) analog accelerator model with the
/// paper-default fabric.
///
/// One accelerator instance answers every request, so the step plans it
/// compiles per request shape are shared by all callers (concurrent ones
/// included).
#[derive(Debug)]
pub struct AnalogBackend {
    budget: PowerBudget,
    fabric: DistanceAccelerator,
}

impl AnalogBackend {
    /// An analog backend over the given fabric configuration.
    pub fn new(config: AcceleratorConfig) -> AnalogBackend {
        AnalogBackend {
            budget: PowerBudget::new(config.clone()),
            fabric: DistanceAccelerator::new(config),
        }
    }

    /// Occupancy of the backend's compiled-plan cache.
    pub fn plan_cache(&self) -> PlanCacheStats {
        self.fabric.plan_cache()
    }

    /// The fabric's output ceiling in value units: the readout ADC clamps
    /// at ±half its full scale, so answers at or beyond this magnitude may
    /// have saturated.
    pub fn ceiling(&self) -> f64 {
        let config = self.fabric.config();
        config.adc.full_scale / 2.0 / config.voltage_resolution
    }
}

impl Default for AnalogBackend {
    fn default() -> Self {
        AnalogBackend::new(AcceleratorConfig::paper_defaults())
    }
}

impl DistanceBackend for AnalogBackend {
    fn id(&self) -> BackendId {
        BackendId::Analog
    }

    fn supports(&self, _kind: DistanceKind, _len: usize) -> bool {
        true
    }

    fn bound(&self, kind: DistanceKind, len: usize) -> Bound {
        behavioural(kind, len)
    }

    fn power_w(&self, kind: DistanceKind, len: usize) -> f64 {
        self.budget
            .breakdown(kind, len.max(1), PAPER_ELEMENT_RATE)
            .total_w()
    }

    fn evaluate(
        &self,
        req: &PairRequest,
        p: &[f64],
        q: &[f64],
        _scratch: &mut DpScratch,
    ) -> Result<f64, BackendError> {
        let params = FunctionParams {
            threshold: req.threshold.unwrap_or(DEFAULT_THRESHOLD),
            weight: 1.0,
            band: match req.band {
                Some(r) => Band::SakoeChiba(r),
                None => Band::Full,
            },
        };
        Ok(self.fabric.value_with(req.kind, &params, p, q)?)
    }
}

/// The aCAM one-shot matching plane: thresholded kinds (HamD, thresholded
/// EdD/LCS) answered by interval-comparator match lines instead of a DP
/// iteration. The routed backend models a *tuned* array (closed-loop
/// program-and-verify, so every comparator sits exactly on the digital
/// threshold); variation- and fault-seeded arrays live in the pre-filter
/// and the conformance fault plane, where their one-sided degradation is
/// what's under test.
#[derive(Debug)]
pub struct AcamBackend {
    budget: PowerBudget,
}

/// Largest word the match plane holds: one row of interval cells per
/// element, sized to the paper's array geometry.
const ACAM_MAX_LEN: usize = 1024;

/// Duty factor of a one-shot search against the DP fabric's draw: the
/// match plane fires one precharge/sense cycle per word where the DP
/// fabric clocks a full wavefront, so its time-averaged draw is a small
/// fraction of the analog budget for the same request.
const ACAM_DUTY: f64 = 0.25;

impl Default for AcamBackend {
    /// An aCAM backend drawing against the paper-default fabric's power
    /// model.
    fn default() -> Self {
        AcamBackend {
            budget: PowerBudget::new(AcceleratorConfig::paper_defaults()),
        }
    }
}

impl DistanceBackend for AcamBackend {
    fn id(&self) -> BackendId {
        BackendId::Acam
    }

    fn supports(&self, kind: DistanceKind, len: usize) -> bool {
        matches!(
            kind,
            DistanceKind::Hamming | DistanceKind::Edit | DistanceKind::Lcs
        ) && len <= ACAM_MAX_LEN
    }

    fn bound(&self, kind: DistanceKind, len: usize) -> Bound {
        acam(kind, len)
    }

    fn power_w(&self, kind: DistanceKind, len: usize) -> f64 {
        ACAM_DUTY
            * self
                .budget
                .breakdown(kind, len.max(1), PAPER_ELEMENT_RATE)
                .total_w()
    }

    fn evaluate(
        &self,
        req: &PairRequest,
        p: &[f64],
        q: &[f64],
        _scratch: &mut DpScratch,
    ) -> Result<f64, BackendError> {
        if !self.supports(req.kind, p.len().max(q.len())) {
            return Err(BackendError::Unsupported("non-thresholded one-shot kinds"));
        }
        let threshold = req.threshold.unwrap_or(DEFAULT_THRESHOLD);
        if !threshold.is_finite() || threshold < 0.0 {
            return Err(BackendError::Unsupported(
                "non-finite or negative match thresholds",
            ));
        }
        let value = OneShotMatcher::new(threshold).evaluate(req.kind, p, q)?;
        Ok(value)
    }
}

/// All three backends over the paper-default fabric.
#[derive(Debug, Default)]
pub struct BackendSet {
    digital_exact: DigitalExactBackend,
    analog: AnalogBackend,
    acam: AcamBackend,
}

impl BackendSet {
    /// The backend for an id.
    pub fn get(&self, id: BackendId) -> &dyn DistanceBackend {
        match id {
            BackendId::DigitalExact => &self.digital_exact,
            BackendId::Analog => &self.analog,
            BackendId::Acam => &self.acam,
        }
    }

    /// The analog backend, concretely (for its [`AnalogBackend::ceiling`]).
    pub fn analog(&self) -> &AnalogBackend {
        &self.analog
    }
}

/// The process-wide backend set over the paper-default fabric — what the
/// server's executor dispatches against, so routing state never has to be
/// threaded through the coalescing queue.
pub fn default_backends() -> &'static BackendSet {
    static SET: OnceLock<BackendSet> = OnceLock::new();
    SET.get_or_init(BackendSet::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(len: usize, phase: f64) -> Vec<f64> {
        (0..len).map(|i| (i as f64 * 0.4 + phase).sin()).collect()
    }

    #[test]
    fn digital_exact_is_bitwise_identical_to_direct_library_calls() {
        let p = series(16, 0.0);
        let q = series(16, 0.7);
        let mut scratch = DpScratch::new();
        let backend = DigitalExactBackend;
        for kind in DistanceKind::ALL {
            let routed = backend
                .evaluate(&PairRequest::new(kind), &p, &q, &mut scratch)
                .unwrap();
            let direct = mda_distance::boxed_distance(kind).evaluate(&p, &q).unwrap();
            assert_eq!(routed.to_bits(), direct.to_bits(), "{kind}");
        }
    }

    #[test]
    fn analog_answers_stay_within_the_calibrated_bound() {
        let p = series(12, 0.0);
        let q = series(12, 0.5);
        let mut scratch = DpScratch::new();
        let set = default_backends();
        for kind in DistanceKind::ALL {
            let req = PairRequest::new(kind);
            let analog = set
                .get(BackendId::Analog)
                .evaluate(&req, &p, &q, &mut scratch)
                .unwrap();
            let reference = set
                .get(BackendId::DigitalExact)
                .evaluate(&req, &p, &q, &mut scratch)
                .unwrap();
            let bound = behavioural(kind, 12);
            assert!(
                bound.allows(analog, reference),
                "{kind}: {analog} vs {reference}"
            );
        }
    }

    #[test]
    fn power_ordering_prefers_analog() {
        let set = default_backends();
        for kind in DistanceKind::ALL {
            let analog = set.get(BackendId::Analog).power_w(kind, 128);
            let digital = set.get(BackendId::DigitalExact).power_w(kind, 128);
            assert!(analog < digital, "{kind}: {analog} vs {digital}");
        }
        // The one-shot match plane undercuts even the DP fabric on the
        // kinds it serves, so the cheapest-first scan reaches it first.
        for kind in [DistanceKind::Hamming, DistanceKind::Edit, DistanceKind::Lcs] {
            let acam_w = set.get(BackendId::Acam).power_w(kind, 128);
            let analog = set.get(BackendId::Analog).power_w(kind, 128);
            assert!(acam_w < analog, "{kind}: {acam_w} vs {analog}");
        }
    }

    #[test]
    fn acam_one_shot_is_bitwise_identical_to_the_digital_kernels() {
        let mut scratch = DpScratch::new();
        let set = default_backends();
        let backend = set.get(BackendId::Acam);
        for (lp, lq) in [(12usize, 12usize), (9, 14), (14, 9)] {
            let p = series(lp, 0.0);
            let q = series(lq, 0.7);
            for kind in [DistanceKind::Hamming, DistanceKind::Edit, DistanceKind::Lcs] {
                if kind == DistanceKind::Hamming && lp != lq {
                    continue;
                }
                for threshold in [None, Some(0.05), Some(0.4)] {
                    let req = PairRequest {
                        kind,
                        threshold,
                        band: None,
                    };
                    let one_shot = backend.evaluate(&req, &p, &q, &mut scratch).unwrap();
                    let digital = set
                        .get(BackendId::DigitalExact)
                        .evaluate(&req, &p, &q, &mut scratch)
                        .unwrap();
                    assert_eq!(
                        one_shot.to_bits(),
                        digital.to_bits(),
                        "{kind} threshold {threshold:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn acam_supports_exactly_the_thresholded_kinds() {
        let set = default_backends();
        let backend = set.get(BackendId::Acam);
        for kind in DistanceKind::ALL {
            let thresholded = matches!(
                kind,
                DistanceKind::Hamming | DistanceKind::Edit | DistanceKind::Lcs
            );
            assert_eq!(backend.supports(kind, 16), thresholded, "{kind}");
        }
        assert!(!backend.supports(DistanceKind::Hamming, ACAM_MAX_LEN + 1));
        // Unsupported requests report as such, not as a distance error.
        let p = series(8, 0.0);
        let q = series(8, 0.3);
        let mut scratch = DpScratch::new();
        let err = backend
            .evaluate(&PairRequest::new(DistanceKind::Dtw), &p, &q, &mut scratch)
            .unwrap_err();
        assert!(matches!(err, BackendError::Unsupported(_)), "{err}");
    }

    #[test]
    fn analog_ceiling_matches_the_conformance_harness() {
        // 1 V full scale at 20 mV/unit → ±25 units of encodable output.
        assert!((default_backends().analog().ceiling() - 25.0).abs() < 1e-12);
    }
}
