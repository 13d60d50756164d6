//! The accuracy-SLA, power-budget-aware router, and the fallback-guarded
//! evaluation entry the serving tier dispatches through.

use mda_distance::{DistanceError, DistanceKind, DpScratch};

use crate::backend::{BackendError, BackendId, PairRequest};
use crate::backends::{default_backends, BackendSet};
use crate::fleet::{FleetBudget, PowerLease};
use crate::sla::Sla;
use mda_core::bounds::Bound;

/// Router configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterConfig {
    /// The analog fleet's power envelope, watts. Tolerance-tagged work is
    /// admitted onto the analog fabric only while its modeled draw fits
    /// inside this cap; past it, work falls back to digital.
    pub fleet_power_w: f64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        // Room for a few dozen concurrent analog configurations at the
        // paper's 0.58–6.36 W operating points.
        RouterConfig {
            fleet_power_w: 50.0,
        }
    }
}

/// A routing decision: which backend answers, the bound it guarantees, and
/// the fleet reservation held while it computes (analog paths only).
#[derive(Debug)]
pub struct Route {
    /// The chosen backend.
    pub backend: BackendId,
    /// The error bound the answer is guaranteed to satisfy.
    pub bound: Bound,
    /// The fleet power reservation, held until dropped.
    pub lease: Option<PowerLease>,
}

/// Picks the cheapest backend whose calibrated bound satisfies each
/// request's accuracy SLA at current fleet load.
#[derive(Debug)]
pub struct Router {
    backends: &'static BackendSet,
    fleet: FleetBudget,
}

impl Router {
    /// A router over the process-default backends with a fresh fleet
    /// envelope.
    pub fn new(config: RouterConfig) -> Router {
        Router {
            backends: default_backends(),
            fleet: FleetBudget::new(config.fleet_power_w),
        }
    }

    /// The fleet envelope this router admits analog work against.
    pub fn fleet(&self) -> &FleetBudget {
        &self.fleet
    }

    /// The backends this router chooses among.
    pub fn backends(&self) -> &'static BackendSet {
        self.backends
    }

    /// Routes one pair evaluation of `kind` at problem size `len` (the
    /// longer of the two series).
    ///
    /// `exact` always routes to the bitwise digital path. `tolerance(ε)`
    /// scans backends cheapest-first and picks the first whose calibrated
    /// bound provably fits inside ε — for analog paths that means the
    /// bound's margin *at the fabric's output ceiling* (the largest
    /// reference the saturation guard in [`evaluate_routed`] lets an analog
    /// answer stand for) fits in ε, and a fleet reservation is available.
    /// When nothing cheaper qualifies, the answer falls back to digital
    /// exact, which satisfies every SLA.
    pub fn route_pair(&self, kind: DistanceKind, len: usize, sla: Sla) -> Route {
        let exact = Route {
            backend: BackendId::DigitalExact,
            bound: Bound::EXACT,
            lease: None,
        };
        let epsilon = match sla {
            Sla::Exact => return exact,
            Sla::Tolerance(e) => e,
        };
        let mut candidates: Vec<(f64, BackendId)> = BackendId::ALL
            .into_iter()
            .map(|id| (self.backends.get(id).power_w(kind, len), id))
            .collect();
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
        let ceiling = self.backends.analog().ceiling();
        for (_, id) in candidates {
            let backend = self.backends.get(id);
            if !backend.supports(kind, len) {
                continue;
            }
            let bound = backend.bound(kind, len);
            if bound == Bound::EXACT {
                // A digital path: exact, free of fleet accounting, and the
                // cheapest-first scan already preferred anything cheaper.
                return Route {
                    backend: id,
                    bound,
                    lease: None,
                };
            }
            // Analog path. The saturation guard lets an analog answer stand
            // only for references up to the output ceiling, so the worst
            // admissible deviation is the bound's margin there; it must fit
            // in ε and leave the guard a non-empty admission window.
            let margin = bound.margin(ceiling);
            if margin > epsilon || margin >= ceiling {
                continue;
            }
            if let Some(lease) = self.fleet.try_reserve(backend.power_w(kind, len)) {
                return Route {
                    backend: id,
                    bound,
                    lease: Some(lease),
                };
            }
        }
        exact
    }
}

/// A routed answer: the value, and whether the analog path silently fell
/// back to a digital recompute for this item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutedValue {
    /// The answer.
    pub value: f64,
    /// `true` when an analog backend saturated or could not encode the
    /// inputs and the value is a digital recompute instead.
    pub fell_back: bool,
}

/// Evaluates one pair on a routed backend, with the fallback guard that
/// makes tolerance routing sound:
///
/// * an analog answer at or beyond `ceiling − margin` may have saturated —
///   beyond that magnitude the true value could be anywhere above the
///   ceiling, so the item is silently recomputed digitally;
/// * analog-only failures (DAC encoding range, solver trouble) also fall
///   back to the digital recompute;
/// * shape errors surface as the same [`DistanceError`] the digital path
///   reports, whatever the backend.
///
/// An answer below the guard threshold stands for a true value of at most
/// `ceiling`, where the calibrated bound's margin is exactly what the
/// router checked against the SLA — so every value returned here is within
/// the route's declared bound of the true digital value.
///
/// # Errors
///
/// Shape errors from the distance definitions, identical across backends.
pub fn evaluate_routed(
    backend: BackendId,
    req: &PairRequest,
    p: &[f64],
    q: &[f64],
    scratch: &mut DpScratch,
) -> Result<RoutedValue, DistanceError> {
    let set = default_backends();
    let digital = |scratch: &mut DpScratch| -> Result<f64, DistanceError> {
        match set
            .get(BackendId::DigitalExact)
            .evaluate(req, p, q, scratch)
        {
            Ok(v) => Ok(v),
            Err(BackendError::Distance(e)) => Err(e),
            // The digital library only fails with shape errors.
            Err(other) => unreachable!("digital backend failed non-digitally: {other}"),
        }
    };
    match set.get(backend).evaluate(req, p, q, scratch) {
        Ok(value) => {
            let guarded = match backend {
                BackendId::DigitalExact => {
                    return Ok(RoutedValue {
                        value,
                        fell_back: false,
                    })
                }
                BackendId::Analog | BackendId::Acam => value,
            };
            let ceiling = set.analog().ceiling();
            let len = p.len().max(q.len());
            let margin = set.get(backend).bound(req.kind, len).margin(ceiling);
            if !guarded.is_finite() || guarded.abs() >= ceiling - margin {
                // Possible saturation: the true value may exceed the
                // ceiling, where the bound no longer covers it.
                return Ok(RoutedValue {
                    value: digital(scratch)?,
                    fell_back: true,
                });
            }
            Ok(RoutedValue {
                value: guarded,
                fell_back: false,
            })
        }
        Err(BackendError::Distance(e)) => Err(e),
        Err(BackendError::Accelerator(_)) | Err(BackendError::Unsupported(_)) => Ok(RoutedValue {
            value: digital(scratch)?,
            fell_back: true,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mda_core::bounds::behavioural;
    use mda_distance::{Distance, Dtw, Manhattan};

    fn series(len: usize, phase: f64, amp: f64) -> Vec<f64> {
        (0..len)
            .map(|i| amp * (i as f64 * 0.4 + phase).sin())
            .collect()
    }

    #[test]
    fn exact_sla_always_routes_digital_exact() {
        let router = Router::new(RouterConfig::default());
        for kind in DistanceKind::ALL {
            let route = router.route_pair(kind, 128, Sla::Exact);
            assert_eq!(route.backend, BackendId::DigitalExact);
            assert_eq!(route.bound, Bound::EXACT);
            assert!(route.lease.is_none());
        }
    }

    #[test]
    fn loose_tolerance_routes_to_the_analog_fabric() {
        let router = Router::new(RouterConfig::default());
        let route = router.route_pair(DistanceKind::Dtw, 128, Sla::Tolerance(16.0));
        assert_eq!(route.backend, BackendId::Analog);
        assert!(route.lease.is_some());
        assert!(router.fleet().in_use_w() > 0.0);
        drop(route);
        assert_eq!(router.fleet().in_use_w(), 0.0);
    }

    #[test]
    fn tight_tolerance_falls_back_to_digital() {
        let router = Router::new(RouterConfig::default());
        // behavioural(Dtw, 128).margin(25) = 0.6 + 6.4 + 7.5 = 14.5 > 1.
        let route = router.route_pair(DistanceKind::Dtw, 128, Sla::Tolerance(1.0));
        assert_eq!(route.backend, BackendId::DigitalExact);
        assert_eq!(route.bound, Bound::EXACT);
    }

    #[test]
    fn saturated_fleet_falls_back_to_digital() {
        let router = Router::new(RouterConfig { fleet_power_w: 1.0 });
        // DTW at n=128 draws ~0.58 W: the first route fits, the second
        // would exceed the 1 W envelope.
        let held = router.route_pair(DistanceKind::Dtw, 128, Sla::Tolerance(16.0));
        assert_eq!(held.backend, BackendId::Analog);
        let overflow = router.route_pair(DistanceKind::Dtw, 128, Sla::Tolerance(16.0));
        assert_eq!(overflow.backend, BackendId::DigitalExact);
        drop(held);
        let again = router.route_pair(DistanceKind::Dtw, 128, Sla::Tolerance(16.0));
        assert_eq!(again.backend, BackendId::Analog);
    }

    #[test]
    fn routed_analog_answer_is_within_the_declared_bound() {
        let p = series(12, 0.0, 2.0);
        let q = series(12, 0.9, 2.0);
        let mut scratch = DpScratch::new();
        let req = PairRequest::new(DistanceKind::Dtw);
        let routed = evaluate_routed(BackendId::Analog, &req, &p, &q, &mut scratch).unwrap();
        let reference = Dtw::new().evaluate(&p, &q).unwrap();
        if !routed.fell_back {
            assert!(behavioural(DistanceKind::Dtw, 12).allows(routed.value, reference));
        } else {
            assert_eq!(routed.value.to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn unencodable_inputs_fall_back_to_the_digital_value() {
        // |x| far beyond the 6.25-unit DAC cap: analog cannot encode it.
        let p = vec![100.0, -100.0, 50.0, 75.0];
        let q = vec![-80.0, 90.0, -60.0, 40.0];
        let mut scratch = DpScratch::new();
        let req = PairRequest::new(DistanceKind::Manhattan);
        let routed = evaluate_routed(BackendId::Analog, &req, &p, &q, &mut scratch).unwrap();
        assert!(routed.fell_back);
        let reference = Manhattan::new().evaluate(&p, &q).unwrap();
        assert_eq!(routed.value.to_bits(), reference.to_bits());
    }

    #[test]
    fn shape_errors_surface_identically_through_every_backend() {
        let mut scratch = DpScratch::new();
        let req = PairRequest::new(DistanceKind::Manhattan);
        for id in [BackendId::DigitalExact, BackendId::Analog] {
            let err = evaluate_routed(id, &req, &[0.0], &[0.0, 1.0], &mut scratch);
            assert!(err.is_err(), "{id}");
        }
    }
}
