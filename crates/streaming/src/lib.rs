//! # mda-streaming
//!
//! Streaming push-mode mining for the memristor distance accelerator:
//! the live-series tier over the batch kernels (ROADMAP Open item 3).
//! Clients push points one at a time; a fixed pipeline of five
//! **incremental stages** maintains continuously-updated mining state,
//! called in order on every push
//! ([`pipeline::StreamPipeline::push`]):
//!
//! * [`ops::WindowOp`] — the sliding ring buffer, materialized once per
//!   push and shared by every later stage;
//! * [`ops::ZNormOp`] — sliding-window z-normalization, folding the
//!   materialized window through the exact batch path for bitwise
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
//! The query length equals the window, so all five stages burn in
//! together: every slot reads [`ops::Output::Warming`] until the window
//! fills.
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
//! pipeline on a deterministic virtual clock at configurable
//! (rational) speed: two replays of one recording are byte-identical,
//! making recordings usable for backtesting and byte-stable tests.

pub mod differential;
pub mod error;
pub mod fnv;
pub mod ops;
pub mod pipeline;
pub mod replay;
pub mod window;

pub use differential::{check_series, DifferentialError, DifferentialReport, Mismatch};
pub use error::StreamError;
pub use ops::{
    certified_bound, BestMatch, EnvelopeFrame, MatchFrame, Output, PruneFrameStats, StatsFrame,
    TrackFrame, Value, WindowFrame,
};
pub use pipeline::{PushResult, StreamConfig, StreamPipeline, MAX_WINDOW};
pub use replay::{replay, ReplayConfig, ReplayOutcome, ReplaySpeed, VirtualClock};
pub use window::SlidingWindow;
