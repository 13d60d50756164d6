//! # mda-streaming
//!
//! Streaming push-mode mining for the memristor distance accelerator:
//! the live-series tier over the batch kernels (ROADMAP Open item 3).
//! Clients push points one at a time; a dependency DAG of **incremental
//! operators** maintains continuously-updated mining state:
//!
//! * [`ops::WindowOp`] — the sliding ring buffer, materialized once per
//!   push and shared by every descendant;
//! * [`ops::ZNormOp`] — sliding-window z-normalization: O(1) add/evict
//!   Welford accumulators ([`window::WelfordState`]) monitor the window,
//!   emitted frames re-fold through the exact batch path for bitwise
//!   parity;
//! * [`ops::EnvelopeOp`] — incremental Lemire envelopes: interior
//!   entries finalized once by stream-absolute monotonic deques
//!   (`mda_distance::lower_bounds::SlidingExtremum`), borders recomputed
//!   with the deque's own tie-breaking;
//! * [`ops::MatcherOp`] — online subsequence matching: the UCR cascade
//!   (LB_Kim → LB_Keogh → early-abandon banded DTW) re-runs the
//!   expensive DP only when the new point invalidates the carried
//!   pruning certificate;
//! * [`ops::TrackerOp`] — best-so-far motif/discord fold.
//!
//! Every node declares an explicit burn-in and emits
//! [`ops::Output::Warming`] until its window fills; one pushed point
//! fans through the whole DAG in a single topological pass
//! ([`dag::Dag::push`]).
//!
//! ## The differential gate
//!
//! The correctness spine: at every push, each operator's output must
//! equal a **from-scratch batch recomputation** over the current window
//! — bitwise on these exact paths ([`differential::check_series`]).
//! Property tests, the conformance harness's `streaming_differential`
//! layer, and the `streaming` bench's fatal identity gate all enforce
//! it.
//!
//! ## Replay
//!
//! [`replay::replay`] feeds recorded series through the identical
//! operator path on a deterministic virtual clock at configurable
//! (rational) speed: two replays of one recording are byte-identical,
//! making recordings usable for backtesting and byte-stable tests.

pub mod dag;
pub mod differential;
pub mod error;
pub mod fnv;
pub mod ops;
pub mod pipeline;
pub mod replay;
pub mod window;

pub use dag::{Dag, NodeId, NodeOutput};
pub use differential::{check_series, DifferentialError, DifferentialReport, Mismatch};
pub use error::StreamError;
pub use ops::{
    certified_bound, BestMatch, EnvelopeFrame, MatchFrame, Operator, Output, PruneFrameStats,
    PushCtx, StatsFrame, TrackFrame, Value, WindowFrame,
};
pub use pipeline::{PushResult, StreamConfig, StreamPipeline, MAX_WINDOW};
pub use replay::{replay, replay_gated, ReplayConfig, ReplayOutcome, ReplaySpeed, VirtualClock};
pub use window::{SlidingWindow, WelfordState};
