//! k-nearest-neighbour classification over time series.
//!
//! 1-NN with an elastic distance is the standard strong baseline in
//! time-series classification and the workload behind the paper's
//! vehicle-classification (DTW) and iris-authentication (HamD) motivating
//! examples.

use crate::batch::BatchEngine;
use crate::error::DistanceError;
use crate::mining::prefilter::CandidateFilter;
use crate::scratch::DpScratch;
use crate::validate::ensure_finite;
use crate::Distance;

/// A labelled training instance.
#[derive(Debug, Clone)]
struct Instance {
    label: usize,
    series: Vec<f64>,
}

/// Outcome of classifying one query.
#[derive(Debug, Clone, PartialEq)]
pub struct Classified {
    /// The predicted class label.
    pub label: usize,
    /// Distance (or negated similarity) to the deciding neighbour.
    pub score: f64,
    /// Index of the nearest training instance.
    pub nearest_index: usize,
}

/// A k-NN classifier parameterised by any [`Distance`].
///
/// For similarity functions (LCS) the neighbour ordering is inverted
/// automatically, so "nearest" always means "most similar".
///
/// ```
/// use mda_distance::{Manhattan, mining::KnnClassifier};
/// # fn main() -> Result<(), mda_distance::DistanceError> {
/// let mut knn = KnnClassifier::new(Box::new(Manhattan::new()), 1);
/// knn.fit(0, vec![0.0, 0.0, 0.0]);
/// knn.fit(1, vec![5.0, 5.0, 5.0]);
/// assert_eq!(knn.classify(&[0.2, -0.1, 0.1])?.label, 0);
/// # Ok(())
/// # }
/// ```
pub struct KnnClassifier {
    distance: Box<dyn Distance + Send + Sync>,
    k: usize,
    train: Vec<Instance>,
    engine: BatchEngine,
    prefilter: Option<Box<dyn CandidateFilter>>,
}

impl std::fmt::Debug for KnnClassifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KnnClassifier")
            .field("kind", &self.distance.kind())
            .field("k", &self.k)
            .field("train_size", &self.train.len())
            .field("engine", &self.engine)
            .field("prefilter", &self.prefilter.is_some())
            .finish()
    }
}

impl KnnClassifier {
    /// Creates a classifier with the given distance and neighbour count `k`.
    /// Distance batches run on a default (all-cores) [`BatchEngine`].
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(distance: Box<dyn Distance + Send + Sync>, k: usize) -> Self {
        assert!(k > 0, "k must be at least 1");
        KnnClassifier {
            distance,
            k,
            train: Vec::new(),
            engine: BatchEngine::new(),
            prefilter: None,
        }
    }

    /// Replaces the batch engine (e.g. [`BatchEngine::serial`] for
    /// single-threaded runs). Results are identical for every engine
    /// configuration; only wall-clock time changes.
    #[must_use]
    pub fn with_engine(mut self, engine: BatchEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Installs a stage-0 candidate pre-filter (e.g. an aCAM array model),
    /// consulted per training instance before its distance is evaluated.
    /// The first `k` instances seed a certified pruning threshold; a
    /// filter rejection then proves the instance is outside the final
    /// neighbour set, so the classification (label, score, nearest index)
    /// stays bitwise-identical with or without a filter.
    #[must_use]
    pub fn with_candidate_filter(mut self, filter: Box<dyn CandidateFilter>) -> Self {
        self.prefilter = Some(filter);
        self
    }

    /// Adds one labelled training series.
    pub fn fit(&mut self, label: usize, series: Vec<f64>) {
        self.train.push(Instance { label, series });
    }

    /// Adds many labelled training series.
    pub fn fit_all<I: IntoIterator<Item = (usize, Vec<f64>)>>(&mut self, items: I) {
        for (label, series) in items {
            self.fit(label, series);
        }
    }

    /// Number of stored training instances.
    pub fn train_size(&self) -> usize {
        self.train.len()
    }

    /// Classifies a query by majority vote over its `k` nearest neighbours
    /// (ties broken by the single nearest neighbour's label).
    ///
    /// # Errors
    ///
    /// Returns [`DistanceError::InvalidParameter`] if no training data has
    /// been fitted or the query or a training series contains a NaN or
    /// infinity, or any error from the underlying distance.
    pub fn classify(&self, query: &[f64]) -> Result<Classified, DistanceError> {
        if self.train.is_empty() {
            return Err(DistanceError::InvalidParameter {
                name: "train",
                reason: "classifier has no training data".into(),
            });
        }
        ensure_finite("query", query)?;
        for inst in &self.train {
            ensure_finite("train", &inst.series)?;
        }
        let invert = self.distance.is_similarity();
        // Stage 0: with a pre-filter installed (and scores that are plain
        // distances), the first k instances are evaluated up front and the
        // largest of their distances becomes the programmed threshold. The
        // final k-th best score can only be <= that threshold, so a filter
        // rejection — certified `distance > threshold` — proves the
        // instance lands strictly past position k in the sort below and
        // its exact score is never consulted.
        let head = self.k.min(self.train.len());
        let predicate = match &self.prefilter {
            Some(filter) if !invert && self.train.len() > head => {
                let mut scratch = DpScratch::new();
                let mut threshold = f64::NEG_INFINITY;
                for inst in &self.train[..head] {
                    let raw = self
                        .distance
                        .evaluate_with(query, &inst.series, &mut scratch)?;
                    threshold = threshold.max(raw);
                }
                if threshold.is_finite() && threshold >= 0.0 {
                    filter.program(self.distance.kind(), query, query.len(), threshold)
                } else {
                    None
                }
            }
            _ => None,
        };
        // One distance per training instance, sharded over the engine's
        // workers; scores come back in training-index order, so `vote`'s
        // stable sort breaks ties by index exactly as the serial loop did.
        let scores = self
            .engine
            .try_map_scratch(&self.train, |scratch, idx, inst| {
                if idx >= head {
                    if let Some(p) = &predicate {
                        if !p.admit(&inst.series) {
                            // Certified out of the neighbour set: an +inf
                            // placeholder sorts after every finite score, of
                            // which the k head instances guarantee at least k.
                            return Ok(f64::INFINITY);
                        }
                    }
                }
                let raw = self.distance.evaluate_with(query, &inst.series, scratch)?;
                Ok(score(raw, invert))
            })?;
        Ok(vote(scores, self.k, |idx| self.train[idx].label))
    }

    /// Leave-one-out accuracy over the training set — the standard UCR
    /// evaluation protocol.
    ///
    /// # Errors
    ///
    /// Propagates distance errors.
    pub fn leave_one_out_accuracy(&self) -> Result<f64, DistanceError> {
        if self.train.len() < 2 {
            return Err(DistanceError::InvalidParameter {
                name: "train",
                reason: "leave-one-out needs at least two instances".into(),
            });
        }
        for inst in &self.train {
            ensure_finite("train", &inst.series)?;
        }
        let invert = self.distance.is_similarity();
        // One work item per held-out query; each worker scans the full train
        // set serially (deterministic strict-< argmin, ties to lowest index).
        let hits = self.engine.try_map_scratch(&self.train, |scratch, qi, q| {
            let mut best: Option<(usize, f64)> = None;
            for (ti, t) in self.train.iter().enumerate() {
                if ti == qi {
                    continue;
                }
                let raw = self.distance.evaluate_with(&q.series, &t.series, scratch)?;
                let s = score(raw, invert);
                if best.is_none_or(|(_, b)| s < b) {
                    best = Some((ti, s));
                }
            }
            let (bi, _) = best.expect("at least one other instance");
            Ok(usize::from(self.train[bi].label == q.label))
        })?;
        let correct: usize = hits.iter().sum();
        Ok(correct as f64 / self.train.len() as f64)
    }
}

/// Orients a raw kernel value as a ranking score, lower = nearer.
///
/// Similarities (`is_similarity`) are negated as `0.0 - raw`, so a zero
/// similarity scores `+0.0` rather than `-0.0`.
pub fn score(raw: f64, is_similarity: bool) -> f64 {
    if is_similarity {
        0.0 - raw
    } else {
        raw
    }
}

/// Ranks one [`score`] per training instance (training order) and takes
/// the majority vote over the `k` nearest; score ties rank by training
/// index, vote ties go to the single nearest neighbour's label.
///
/// # Panics
///
/// Panics if `scores` is empty or `k == 0`.
pub fn vote(scores: Vec<f64>, k: usize, label_of: impl Fn(usize) -> usize) -> Classified {
    let mut scored: Vec<(usize, f64)> = scores.into_iter().enumerate().collect();
    scored.sort_by(|a, b| a.1.total_cmp(&b.1));
    let k = k.min(scored.len());
    let mut votes = std::collections::HashMap::new();
    for &(idx, _) in &scored[..k] {
        *votes.entry(label_of(idx)).or_insert(0usize) += 1;
    }
    let nearest = scored[0];
    let best_count = *votes.values().max().expect("k >= 1");
    let winners: Vec<usize> = votes
        .iter()
        .filter(|(_, &c)| c == best_count)
        .map(|(&l, _)| l)
        .collect();
    let label = if winners.len() == 1 {
        winners[0]
    } else {
        label_of(nearest.0)
    };
    Classified {
        label,
        score: nearest.1,
        nearest_index: nearest.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dtw, Lcs, Manhattan};

    fn two_class_data() -> Vec<(usize, Vec<f64>)> {
        vec![
            (0, vec![0.0, 0.1, 0.0, -0.1]),
            (0, vec![0.1, 0.0, -0.1, 0.0]),
            (1, vec![5.0, 5.1, 4.9, 5.0]),
            (1, vec![4.9, 5.0, 5.1, 5.0]),
        ]
    }

    #[test]
    fn one_nn_separates_well_separated_classes() {
        let mut knn = KnnClassifier::new(Box::new(Dtw::new()), 1);
        knn.fit_all(two_class_data());
        assert_eq!(knn.classify(&[0.05, 0.05, 0.0, 0.0]).unwrap().label, 0);
        assert_eq!(knn.classify(&[5.05, 4.95, 5.0, 5.0]).unwrap().label, 1);
    }

    #[test]
    fn k3_majority_vote() {
        let mut knn = KnnClassifier::new(Box::new(Manhattan::new()), 3);
        knn.fit(0, vec![0.0, 0.0]);
        knn.fit(0, vec![0.2, 0.2]);
        knn.fit(1, vec![0.3, 0.3]);
        knn.fit(1, vec![10.0, 10.0]);
        // Nearest 3 of query (0.25, 0.25): the two 0s and one 1 -> class 0.
        assert_eq!(knn.classify(&[0.1, 0.1]).unwrap().label, 0);
    }

    #[test]
    fn similarity_function_inverts_ordering() {
        // With LCS, the training series sharing MORE elements must win.
        let mut knn = KnnClassifier::new(Box::new(Lcs::new(0.05)), 1);
        knn.fit(0, vec![1.0, 2.0, 3.0, 4.0]);
        knn.fit(1, vec![9.0, 8.0, 7.0, 6.0]);
        assert_eq!(knn.classify(&[1.0, 2.0, 3.0, 9.9]).unwrap().label, 0);
    }

    #[test]
    fn leave_one_out_perfect_on_separated_data() {
        let mut knn = KnnClassifier::new(Box::new(Dtw::new()), 1);
        knn.fit_all(two_class_data());
        assert_eq!(knn.leave_one_out_accuracy().unwrap(), 1.0);
    }

    #[test]
    fn empty_classifier_errors() {
        let knn = KnnClassifier::new(Box::new(Manhattan::new()), 1);
        assert!(knn.classify(&[0.0]).is_err());
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_k_panics() {
        let _ = KnnClassifier::new(Box::new(Manhattan::new()), 0);
    }

    /// The identity filter must leave the classification bitwise as the
    /// unfiltered run produced it.
    #[test]
    fn admit_all_filter_changes_nothing() {
        use crate::mining::prefilter::AdmitAll;
        for k in [1, 3] {
            let mut plain = KnnClassifier::new(Box::new(Dtw::new()), k);
            plain.fit_all(two_class_data());
            let mut filtered = KnnClassifier::new(Box::new(Dtw::new()), k)
                .with_candidate_filter(Box::new(AdmitAll));
            filtered.fit_all(two_class_data());
            for query in [[0.05, 0.05, 0.0, 0.0], [5.05, 4.95, 5.0, 5.0]] {
                assert_eq!(
                    plain.classify(&query).unwrap(),
                    filtered.classify(&query).unwrap()
                );
            }
        }
    }

    /// Regression: a NaN query or training series used to panic in the
    /// score sort (`partial_cmp(..).expect("scores are finite")`).
    #[test]
    fn non_finite_inputs_are_typed_errors_not_panics() {
        let mut knn = KnnClassifier::new(Box::new(Dtw::new()), 1);
        knn.fit_all(two_class_data());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = knn.classify(&[0.0, bad, 0.0, 0.0]).unwrap_err();
            assert!(
                matches!(err, DistanceError::InvalidParameter { name: "query", .. }),
                "{err:?}"
            );
        }
        knn.fit(0, vec![0.0, f64::NAN, 0.0, 0.0]);
        let err = knn.classify(&[0.0; 4]).unwrap_err();
        assert!(
            matches!(err, DistanceError::InvalidParameter { name: "train", .. }),
            "{err:?}"
        );
        assert!(knn.leave_one_out_accuracy().is_err());
    }
}
