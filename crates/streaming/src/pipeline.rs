//! The mining pipeline: window → {z-norm, envelope} → matcher → tracker,
//! five typed stages called in that fixed order on every push.

use crate::error::StreamError;
use crate::ops::{EnvelopeOp, MatcherOp, Output, TrackerOp, Value, WindowOp, ZNormOp};

/// Largest accepted window (keeps per-push work and frame sizes sane).
pub const MAX_WINDOW: usize = 1 << 20;

/// Validated configuration for one stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Sliding-window length = query length = burn-in.
    pub window: usize,
    /// Sakoe–Chiba band radius for envelopes and DTW.
    pub band: usize,
    /// The query pattern to match (length must equal `window`).
    pub query: Vec<f64>,
    /// Optional pruning threshold (finite, > 0); `None` = unbounded.
    pub threshold: Option<f64>,
}

impl StreamConfig {
    /// Checks every construction-time invariant.
    ///
    /// # Errors
    ///
    /// [`StreamError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<(), StreamError> {
        let fail = |msg: String| Err(StreamError::InvalidParameter(msg));
        if self.window == 0 {
            return fail("window must be at least 1".into());
        }
        if self.window > MAX_WINDOW {
            return fail(format!(
                "window {} exceeds maximum {MAX_WINDOW}",
                self.window
            ));
        }
        if self.band > self.window {
            return fail(format!(
                "band radius {} exceeds window {}",
                self.band, self.window
            ));
        }
        if self.query.len() != self.window {
            return fail(format!(
                "query length {} must equal window {}",
                self.query.len(),
                self.window
            ));
        }
        if let Some(bad) = self.query.iter().find(|x| !x.is_finite()) {
            return fail(format!("query values must be finite, got {bad}"));
        }
        if let Some(t) = self.threshold {
            if !t.is_finite() || t <= 0.0 {
                return fail(format!("threshold must be finite and positive, got {t}"));
            }
        }
        Ok(())
    }
}

/// One push's outputs, one typed slot per pipeline stage.
#[derive(Debug)]
pub struct PushResult {
    /// 1-based epoch of this push.
    pub epoch: u64,
    /// [`WindowOp`] output.
    pub window: Output,
    /// [`ZNormOp`] output.
    pub stats: Output,
    /// [`EnvelopeOp`] output.
    pub envelope: Output,
    /// [`MatcherOp`] output.
    pub matcher: Output,
    /// [`TrackerOp`] output.
    pub tracker: Output,
}

impl PushResult {
    /// `true` once every stage has burned in.
    pub fn ready(&self) -> bool {
        self.window.is_ready()
            && self.stats.is_ready()
            && self.envelope.is_ready()
            && self.matcher.is_ready()
            && self.tracker.is_ready()
    }
}

/// A validated, ready-to-push mining pipeline over one live series.
pub struct StreamPipeline {
    burn_in: usize,
    epoch: u64,
    window: WindowOp,
    znorm: ZNormOp,
    envelope: EnvelopeOp,
    matcher: MatcherOp,
    tracker: TrackerOp,
}

impl StreamPipeline {
    /// Builds the five-stage pipeline after validating `config`.
    ///
    /// # Errors
    ///
    /// [`StreamError::InvalidParameter`] from
    /// [`StreamConfig::validate`].
    pub fn new(config: StreamConfig) -> Result<Self, StreamError> {
        config.validate()?;
        Ok(StreamPipeline {
            burn_in: config.window,
            epoch: 0,
            window: WindowOp::new(config.window),
            znorm: ZNormOp::new(config.window),
            envelope: EnvelopeOp::new(config.window, config.band),
            matcher: MatcherOp::new(config.query, config.band, config.threshold),
            tracker: TrackerOp::default(),
        })
    }

    /// Points pushed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Points required before every stage emits (`= window`).
    pub fn burn_in(&self) -> usize {
        self.burn_in
    }

    /// Pushes one point through every stage.
    ///
    /// # Errors
    ///
    /// [`StreamError::InvalidParameter`] for non-finite points (state is
    /// untouched and the epoch does not advance), or a typed kernel error.
    pub fn push(&mut self, point: f64) -> Result<PushResult, StreamError> {
        if !point.is_finite() {
            return Err(StreamError::InvalidParameter(format!(
                "pushed point must be finite, got {point}"
            )));
        }
        self.epoch += 1;
        let epoch = self.epoch;
        self.envelope.advance(epoch - 1, point);
        let Some(window) = self.window.push(point) else {
            // The query length equals the window, so every stage warms
            // up together.
            let warming = Output::Warming {
                seen: epoch,
                burn_in: self.burn_in as u64,
            };
            return Ok(PushResult {
                epoch,
                window: warming.clone(),
                stats: warming.clone(),
                envelope: warming.clone(),
                matcher: warming.clone(),
                tracker: warming,
            });
        };
        let stats = self.znorm.apply(&window);
        let envelope = self.envelope.apply(&window);
        let matcher = self.matcher.apply(epoch, &window, &envelope)?;
        let tracker = self.tracker.apply(epoch, &matcher);
        Ok(PushResult {
            epoch,
            window: Output::Ready(Value::Window(window)),
            stats: Output::Ready(Value::Stats(stats)),
            envelope: Output::Ready(Value::Envelope(envelope)),
            matcher: Output::Ready(Value::Match(matcher)),
            tracker: Output::Ready(Value::Track(tracker)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(window: usize, band: usize) -> StreamConfig {
        StreamConfig {
            window,
            band,
            query: (0..window).map(|i| (i as f64 * 0.5).sin()).collect(),
            threshold: None,
        }
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let cases = [
            StreamConfig {
                window: 0,
                band: 0,
                query: vec![],
                threshold: None,
            },
            StreamConfig {
                window: 2,
                band: 3,
                query: vec![0.0, 1.0],
                threshold: None,
            },
            StreamConfig {
                window: 2,
                band: 1,
                query: vec![0.0],
                threshold: None,
            },
            StreamConfig {
                window: 2,
                band: 1,
                query: vec![0.0, f64::NAN],
                threshold: None,
            },
            StreamConfig {
                window: 2,
                band: 1,
                query: vec![0.0, 1.0],
                threshold: Some(0.0),
            },
            StreamConfig {
                window: 2,
                band: 1,
                query: vec![0.0, 1.0],
                threshold: Some(f64::INFINITY),
            },
        ];
        for c in cases {
            assert!(
                matches!(
                    StreamPipeline::new(c.clone()),
                    Err(StreamError::InvalidParameter(_))
                ),
                "{c:?}"
            );
        }
    }

    #[test]
    fn pipeline_warms_then_emits_every_frame() {
        let mut p = StreamPipeline::new(config(4, 1)).unwrap();
        for i in 0..3 {
            let r = p.push(i as f64 * 0.3).unwrap();
            assert!(!r.ready(), "epoch {} must still be warming", r.epoch);
            assert!(matches!(r.tracker, Output::Warming { burn_in: 4, .. }));
        }
        let r = p.push(0.9).unwrap();
        assert!(r.ready(), "burn-in complete at epoch 4");
        assert_eq!(r.epoch, 4);
        assert!(matches!(r.window.value(), Some(Value::Window(_))));
        assert!(matches!(r.stats.value(), Some(Value::Stats(_))));
        assert!(matches!(r.envelope.value(), Some(Value::Envelope(_))));
        assert!(matches!(r.matcher.value(), Some(Value::Match(_))));
        assert!(matches!(r.tracker.value(), Some(Value::Track(_))));
    }

    #[test]
    fn nan_push_is_typed_and_stateless() {
        let mut p = StreamPipeline::new(config(2, 0)).unwrap();
        p.push(1.0).unwrap();
        let err = p.push(f64::NAN).unwrap_err();
        assert!(matches!(err, StreamError::InvalidParameter(_)));
        assert_eq!(p.epoch(), 1);
        // The stream keeps working after a rejected point.
        let r = p.push(2.0).unwrap();
        assert!(r.ready());
    }
}
