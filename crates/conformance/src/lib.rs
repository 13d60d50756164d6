//! # mda-conformance
//!
//! Cross-layer differential conformance harness for the memristor distance
//! accelerator, with seeded fault injection.
//!
//! The repository implements the same six distance functions four times
//! over: a digital DP reference (`mda-distance`), a behavioural analog
//! model (`mda-core`), device-level SPICE netlists (`mda_core::pe`), and a
//! TCP service (`mda-server`). This crate is the subsystem that keeps the
//! four honest against each other:
//!
//! * [`case`] turns `(seed, id)` into a fully-specified query via a
//!   splittable PRNG ([`rng`]) — any case regenerates in isolation;
//! * [`layers`] runs one case through each implementation;
//! * [`bounds`] says how far each analog layer may stray from the digital
//!   reference, per function;
//! * [`shrink`](mod@shrink) minimizes a disagreeing case to a small reproducer;
//! * [`report`] serializes reproducers (and parses them back for replay);
//! * [`faults`] injects seeded memristor faults under the tuning loop and
//!   checks graceful degradation: recovery within bounds for in-range
//!   variation, typed errors — never silent wrong answers — for stuck
//!   cells;
//! * [`harness`] orchestrates a whole run and emits one deterministic JSON
//!   report.
//!
//! The `conformance` binary fronts all of it for CI (`--quick`) and for
//! replaying a reproducer artifact (`--replay FILE`).

pub mod bounds;
pub mod case;
pub mod faults;
pub mod harness;
pub mod layers;
pub mod report;
pub mod rng;
pub mod shrink;

pub use bounds::Bound;
pub use case::{generate, CaseSpec, Family, LengthClass};
pub use faults::{run_fault_suite, FaultSuiteOutcome};
pub use harness::{replay, run, HarnessConfig, RunOutcome};
pub use report::{load_case, write_reproducer, Failure};
pub use rng::SplitRng;
pub use shrink::shrink;
