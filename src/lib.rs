//! # memristor-distance-accelerator
//!
//! A from-scratch Rust reproduction of **"An Efficient Memristor-based
//! Distance Accelerator for Time Series Data Mining on Data Centers"**
//! (Xu, Zeng, Xu, Shi, Hu — DAC 2017): a single reconfigurable analog
//! fabric computing six time-series distance functions — DTW, LCS, edit
//! distance, Hausdorff, Hamming and Manhattan — with memristor-programmed
//! analog circuits.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`distance`] — digital reference implementations, lower bounds and the
//!   data-mining workloads (classification / clustering / subsequence
//!   search);
//! * [`memristor`] — the (stochastic) Biolek device model, process
//!   variation and resistance tuning;
//! * [`spice`] — the MNA analog circuit simulator used for device-level
//!   validation;
//! * [`core`] — the accelerator itself: PE circuits, array structures,
//!   DAC/ADC models, configuration library, behavioural analog engine,
//!   tiling and early determination;
//! * [`datasets`] — UCR-style synthetic datasets and the UCR format parser;
//! * [`power`] — power budgets and energy-efficiency comparisons;
//! * [`routing`] — the accuracy-SLA, power-budget-aware router unifying
//!   the three serving answer paths (digital exact, behavioural analog,
//!   aCAM one-shot matching) behind one backend trait;
//! * [`server`] — the batching distance-query network service (request
//!   coalescing, admission control, accuracy-aware routing, push-mode
//!   stream verbs, live metrics);
//! * [`streaming`] — push-mode mining: the incremental operator DAG
//!   (sliding z-norm, incremental envelopes, online UCR matching,
//!   motif/discord tracking), differential-gated bitwise against the
//!   batch kernels, with deterministic replay.
//!
//! ## Quickstart
//!
//! ```
//! use memristor_distance_accelerator::core::{AcceleratorConfig, DistanceAccelerator};
//! use memristor_distance_accelerator::distance::DistanceKind;
//!
//! # fn main() -> Result<(), memristor_distance_accelerator::core::AcceleratorError> {
//! let mut accelerator = DistanceAccelerator::new(AcceleratorConfig::paper_defaults());
//! accelerator.configure(DistanceKind::Manhattan)?;
//! let outcome = accelerator.compute(&[0.0, 2.0, 4.0], &[1.0, 2.0, 3.0])?;
//! assert_eq!(outcome.reference, 2.0);
//! assert!(outcome.relative_error < 0.1);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for complete applications (vehicle classification with
//! DTW, ECG similarity with LCS, iris authentication with HamD,
//! subsequence search) and `crates/bench` for the harness that regenerates
//! every table and figure of the paper.

pub use mda_core as core;
pub use mda_datasets as datasets;
pub use mda_distance as distance;
pub use mda_memristor as memristor;
pub use mda_power as power;
pub use mda_routing as routing;
pub use mda_server as server;
pub use mda_spice as spice;
pub use mda_streaming as streaming;
