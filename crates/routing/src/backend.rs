//! The [`DistanceBackend`] trait: one capability surface over the three
//! answer paths.

use std::fmt;

use mda_core::bounds::Bound;
use mda_core::AcceleratorError;
use mda_distance::{DistanceError, DistanceKind, DpScratch};

/// Which answer path a backend wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendId {
    /// The digital DP library, bitwise identical to direct calls. Served
    /// subsequence searches (the exact UCR cascade) report this path too.
    DigitalExact,
    /// The behavioural (array-level) analog accelerator model.
    Analog,
    /// The aCAM one-shot matching plane — thresholded kinds only, one
    /// precharge/sense cycle per word instead of a DP iteration.
    Acam,
}

impl BackendId {
    /// All three backends in declaration order (`ALL[i] as usize == i`):
    /// the server sizes and indexes its per-backend counters by
    /// discriminant.
    pub const ALL: [BackendId; 3] = [BackendId::DigitalExact, BackendId::Analog, BackendId::Acam];

    /// The wire name reported on routed replies.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendId::DigitalExact => "digital_exact",
            BackendId::Analog => "analog",
            BackendId::Acam => "acam",
        }
    }
}

impl fmt::Display for BackendId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned when parsing a [`BackendId`] wire name fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendIdError {
    name: String,
}

impl fmt::Display for ParseBackendIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = BackendId::ALL.map(BackendId::as_str);
        let (last, rest) = names.split_last().expect("ALL is non-empty");
        write!(
            f,
            "unknown backend `{}` (expected {} or {last})",
            self.name,
            rest.join(", ")
        )
    }
}

impl std::error::Error for ParseBackendIdError {}

impl std::str::FromStr for BackendId {
    type Err = ParseBackendIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        BackendId::ALL
            .into_iter()
            .find(|b| b.as_str() == s)
            .ok_or_else(|| ParseBackendIdError {
                name: s.to_string(),
            })
    }
}

/// Function parameters for one pair evaluation — the backend-agnostic
/// mirror of the server executor's `PairSpec`.
#[derive(Debug, Clone, Copy)]
pub struct PairRequest {
    /// Which of the six functions.
    pub kind: DistanceKind,
    /// Match threshold override (LCS/EdD/HamD); `None` = paper default 0.1.
    pub threshold: Option<f64>,
    /// Sakoe–Chiba radius (DTW); `None` = full matrix.
    pub band: Option<usize>,
}

impl PairRequest {
    /// A request with default parameters.
    pub fn new(kind: DistanceKind) -> PairRequest {
        PairRequest {
            kind,
            threshold: None,
            band: None,
        }
    }
}

/// Why a backend could not answer.
#[derive(Debug)]
pub enum BackendError {
    /// The distance definition rejected the inputs (shape errors) — the
    /// same error every backend reports for the same bad input.
    Distance(DistanceError),
    /// The analog model failed (encoding range, solver, configuration).
    Accelerator(AcceleratorError),
    /// The backend does not implement this request shape.
    Unsupported(&'static str),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Distance(e) => write!(f, "{e}"),
            BackendError::Accelerator(e) => write!(f, "{e}"),
            BackendError::Unsupported(what) => write!(f, "backend does not support {what}"),
        }
    }
}

impl std::error::Error for BackendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BackendError::Distance(e) => Some(e),
            BackendError::Accelerator(e) => Some(e),
            BackendError::Unsupported(_) => None,
        }
    }
}

impl From<DistanceError> for BackendError {
    fn from(e: DistanceError) -> Self {
        BackendError::Distance(e)
    }
}

impl From<AcceleratorError> for BackendError {
    fn from(e: AcceleratorError) -> Self {
        // Shape rejections surface as the underlying distance error so
        // every backend reports bad input identically.
        match e {
            AcceleratorError::Distance(d) => BackendError::Distance(d),
            other => BackendError::Accelerator(other),
        }
    }
}

/// One answer path, with its capability surface.
///
/// `len` throughout is the longer of the two series — the size the
/// calibrated bounds and the power model are parameterized by.
pub trait DistanceBackend: Send + Sync {
    /// Which path this is.
    fn id(&self) -> BackendId;

    /// Whether this backend can answer `kind` at problem size `len`.
    fn supports(&self, kind: DistanceKind, len: usize) -> bool;

    /// The calibrated error bound this backend guarantees against the
    /// digital reference at `(kind, len)`. [`Bound::EXACT`] for the
    /// digital path.
    fn bound(&self, kind: DistanceKind, len: usize) -> Bound;

    /// Modeled power draw while answering `(kind, len)`, watts.
    fn power_w(&self, kind: DistanceKind, len: usize) -> f64;

    /// Evaluates one pair.
    ///
    /// # Errors
    ///
    /// [`BackendError`] — shape rejections are reported identically across
    /// backends; analog-only failures (encoding range, solver) are the
    /// router's cue to fall back to digital.
    fn evaluate(
        &self,
        req: &PairRequest,
        p: &[f64],
        q: &[f64],
        scratch: &mut DpScratch,
    ) -> Result<f64, BackendError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_ids_round_trip_their_wire_names() {
        for id in BackendId::ALL {
            assert_eq!(id.as_str().parse::<BackendId>(), Ok(id));
        }
        let err = "fpga".parse::<BackendId>().unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown backend `fpga` (expected digital_exact, analog or acam)"
        );
    }

    #[test]
    fn all_is_indexed_by_discriminant() {
        for (i, id) in BackendId::ALL.into_iter().enumerate() {
            assert_eq!(id as usize, i, "{id}");
        }
    }
}
