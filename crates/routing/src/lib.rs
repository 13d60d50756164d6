//! # mda-routing
//!
//! Accuracy-SLA, power-budget-aware routing across the accelerator's three
//! serving answer paths.
//!
//! The serving tier can answer one distance query three ways — digital
//! exact (the DP library), behavioural analog (the array-level accelerator
//! model) and the aCAM one-shot match plane (thresholded kinds only). The
//! device-level SPICE netlists stay a conformance layer, not a serving path.
//! This crate unifies the three behind one [`DistanceBackend`] trait whose capability surface is
//! exactly what the paper's data-center story needs: which
//! [`mda_distance::DistanceKind`]s a backend supports, the calibrated error [`Bound`] it
//! guarantees per function and length ([`mda_core::bounds`], re-exported by
//! `mda-conformance`), and its modeled power draw
//! ([`mda_power::budget::PowerBudget`]).
//!
//! On top sits the [`Router`]: given a per-request accuracy SLA ([`Sla`]:
//! `exact` or `tolerance(ε)`) and a configurable analog fleet power
//! envelope ([`FleetBudget`]), it picks the cheapest backend whose
//! calibrated bound satisfies the SLA at current load. `exact` always
//! routes to the bitwise-identical digital path; `tolerance(ε)` routes to
//! the analog fabric when its bound fits inside ε and the fleet envelope
//! has headroom, falling back to digital otherwise. Saturated or
//! unencodable analog answers fall back to a digital recompute per item
//! ([`evaluate_routed`]), so a routed answer is *always* within the
//! declared bound of the true digital value.
//!
//! ```
//! use mda_distance::DistanceKind;
//! use mda_routing::{BackendId, Router, RouterConfig, Sla};
//!
//! let router = Router::new(RouterConfig::default());
//! // Exact work stays on the bitwise digital path…
//! let exact = router.route_pair(DistanceKind::Dtw, 128, Sla::Exact);
//! assert_eq!(exact.backend, BackendId::DigitalExact);
//! // …while tolerant bulk work lands on the analog fabric.
//! let bulk = router.route_pair(DistanceKind::Dtw, 128, Sla::tolerance(16.0).unwrap());
//! assert_eq!(bulk.backend, BackendId::Analog);
//! ```

mod backend;
mod backends;
mod fleet;
mod router;
mod sla;

pub use backend::{BackendError, BackendId, DistanceBackend, PairRequest, ParseBackendIdError};
pub use backends::{
    default_backends, AnalogBackend, BackendSet, DigitalExactBackend, DIGITAL_HOST_WATTS,
};
pub use fleet::{FleetBudget, PowerLease};
pub use router::{evaluate_routed, Route, RoutedValue, Router, RouterConfig};
pub use sla::{Sla, SlaError};

pub use mda_core::bounds::Bound;
