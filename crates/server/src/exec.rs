//! Decomposition of protocol requests into engine work items, and the
//! per-item kernel the dispatcher maps over a coalesced batch.
//!
//! Every compute request flattens into [`WorkItem`]s — the unit the
//! coalescing dispatcher shards across the [`BatchEngine`]'s workers:
//!
//! * `distance` → one pair item;
//! * `batch` → one pair item per input pair;
//! * `knn` → one pair item per training instance (the vote is a serial
//!   reduction afterwards, replicating `KnnClassifier::classify` exactly);
//! * `search` → a single opaque item that runs the full pruned subsequence
//!   search *serially inside one worker* (searches parallelize across
//!   concurrent requests, not within one, so a coalesced batch never
//!   oversubscribes the host).
//!
//! Item evaluation calls the same `Distance::evaluate_with` entry points
//! the library's mining drivers use, with the same per-worker
//! [`DpScratch`], so a value served over the wire is bitwise identical to
//! the value a direct `BatchEngine` call produces.
//!
//! [`BatchEngine`]: mda_distance::BatchEngine

use std::sync::Arc;

use mda_distance::mining::SubsequenceSearch;
use mda_distance::{BatchEngine, DistanceError, DistanceKind, DpScratch};
use mda_routing::{evaluate_routed, BackendId, PairRequest};

use crate::datasets::{DatasetStore, ResolveError};
use crate::protocol::{ErrorCode, Request, TrainInstance};

/// Distance-function parameters carried by a pair item.
#[derive(Debug, Clone, Copy)]
pub struct PairSpec {
    /// Which of the six functions.
    pub kind: DistanceKind,
    /// Match threshold override (LCS/EdD/HamD); `None` = paper default 0.1.
    pub threshold: Option<f64>,
    /// Sakoe–Chiba radius (DTW); `None` = full matrix.
    pub band: Option<usize>,
    /// The answer path this item was routed to. [`BackendId::DigitalExact`]
    /// out of [`decompose`]; the event loop overrides it with the router's
    /// per-request decision before admission.
    pub backend: BackendId,
}

/// One unit of engine work.
#[derive(Debug, Clone)]
pub enum WorkItem {
    /// Evaluate one distance pair.
    Pair {
        /// Function and parameters.
        spec: PairSpec,
        /// First series (shared, not cloned per item).
        p: Arc<[f64]>,
        /// Second series.
        q: Arc<[f64]>,
    },
    /// Run one full subsequence search.
    Search {
        /// The query series.
        query: Arc<[f64]>,
        /// The series to scan.
        haystack: Arc<[f64]>,
        /// Window length.
        window: usize,
        /// Sakoe–Chiba radius.
        band: usize,
    },
}

/// Outcome of one executed work item.
#[derive(Debug, Clone, Copy)]
pub enum ItemOutcome {
    /// A distance value.
    Value(f64),
    /// A search match.
    Match {
        /// Best window start offset.
        offset: usize,
        /// Its banded DTW distance.
        distance: f64,
    },
}

/// How a job folds its item outcomes back into one reply.
#[derive(Debug, Clone)]
pub enum Assemble {
    /// One item, reply its value (`distance`).
    Single,
    /// Reply all values in item order (`batch`).
    Values,
    /// Serial kNN vote over the per-instance distances.
    Knn {
        /// Neighbour count.
        k: usize,
        /// Training labels, item-order aligned.
        labels: Vec<usize>,
        /// `true` for similarity functions (LCS): negate before ranking.
        invert: bool,
    },
    /// One item, reply its match (`search`).
    Search,
}

/// A compute request decomposed into engine work.
#[derive(Debug, Clone)]
pub struct Decomposed {
    /// The flattened work items.
    pub items: Vec<WorkItem>,
    /// The reduction to apply to their outcomes.
    pub assemble: Assemble,
}

impl Decomposed {
    /// The routing problem size: the longest series among the pair items
    /// (0 for search-only jobs, which route separately).
    pub fn max_pair_len(&self) -> usize {
        self.items
            .iter()
            .map(|item| match item {
                WorkItem::Pair { p, q, .. } => p.len().max(q.len()),
                WorkItem::Search { .. } => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Points every pair item at `backend` — applying the router's
    /// per-request decision before the job is admitted.
    pub fn route_to(&mut self, backend: BackendId) {
        for item in &mut self.items {
            if let WorkItem::Pair { spec, .. } = item {
                spec.backend = backend;
            }
        }
    }
}

/// Flattens a compute request into work items, resolving any resident
/// dataset references against `store`. Returns `Ok(None)` for non-compute
/// ops (ping/metrics/dataset management), which never enter the queue, and
/// a typed [`ResolveError`] (`not_found` / `stale_version`) when a dataset
/// reference cannot be resolved — resolution happens *before* admission, so
/// a bad reference never occupies queue capacity.
///
/// Resolution clones `Arc` handles to the stored series — no samples are
/// copied and the bits a query sees are exactly the bits uploaded, which is
/// what keeps the resident path bitwise identical to inline corpora.
pub fn decompose(req: Request, store: &DatasetStore) -> Result<Option<Decomposed>, ResolveError> {
    match req {
        Request::Ping
        | Request::Metrics
        | Request::UploadDataset { .. }
        | Request::ListDatasets
        | Request::DropDataset { .. }
        | Request::OpenStream { .. }
        | Request::PushPoints { .. }
        | Request::Subscribe { .. }
        | Request::CloseStream { .. } => Ok(None),
        Request::Distance {
            kind,
            p,
            q,
            threshold,
            band,
            ..
        } => Ok(Some(Decomposed {
            items: vec![WorkItem::Pair {
                spec: PairSpec {
                    kind,
                    threshold,
                    band,
                    backend: BackendId::DigitalExact,
                },
                p: p.into(),
                q: q.into(),
            }],
            assemble: Assemble::Single,
        })),
        Request::Batch {
            kind,
            pairs,
            query,
            dataset,
            threshold,
            band,
            ..
        } => {
            let spec = PairSpec {
                kind,
                threshold,
                band,
                backend: BackendId::DigitalExact,
            };
            let items = if let Some(dref) = dataset {
                // Resident form: the query series vs every dataset series.
                let resolved = store.resolve(&dref)?;
                let query: Arc<[f64]> = query
                    .ok_or_else(|| ResolveError {
                        code: ErrorCode::BadRequest,
                        message: "batch with `dataset` requires `query`".into(),
                    })?
                    .into();
                resolved
                    .series
                    .iter()
                    .map(|s| WorkItem::Pair {
                        spec,
                        p: Arc::clone(&query),
                        q: Arc::clone(s),
                    })
                    .collect()
            } else {
                pairs
                    .into_iter()
                    .map(|(p, q)| WorkItem::Pair {
                        spec,
                        p: p.into(),
                        q: q.into(),
                    })
                    .collect()
            };
            Ok(Some(Decomposed {
                items,
                assemble: Assemble::Values,
            }))
        }
        Request::Knn {
            kind,
            k,
            query,
            train,
            dataset,
            threshold,
            band,
            ..
        } => {
            let spec = PairSpec {
                kind,
                threshold,
                band,
                backend: BackendId::DigitalExact,
            };
            let query: Arc<[f64]> = query.into();
            let (labels, items): (Vec<usize>, Vec<WorkItem>) = if let Some(dref) = dataset {
                // Resident form: training set is the dataset (labels included).
                let resolved = store.resolve(&dref)?;
                let items = resolved
                    .series
                    .iter()
                    .map(|s| WorkItem::Pair {
                        spec,
                        p: Arc::clone(&query),
                        q: Arc::clone(s),
                    })
                    .collect();
                (resolved.labels.to_vec(), items)
            } else {
                let labels = train.iter().map(|t| t.label).collect();
                let items = train
                    .into_iter()
                    .map(|TrainInstance { series, .. }| WorkItem::Pair {
                        spec,
                        p: Arc::clone(&query),
                        q: series.into(),
                    })
                    .collect();
                (labels, items)
            };
            Ok(Some(Decomposed {
                items,
                assemble: Assemble::Knn {
                    k,
                    labels,
                    invert: kind.is_similarity(),
                },
            }))
        }
        Request::Search {
            query,
            haystack,
            dataset,
            series_index,
            window,
            band,
            ..
        } => {
            let haystack: Arc<[f64]> = if let Some(dref) = dataset {
                // Resident form: scan one series of the dataset.
                let resolved = store.resolve(&dref)?;
                let s = resolved
                    .series
                    .get(series_index)
                    .ok_or_else(|| ResolveError {
                        code: ErrorCode::NotFound,
                        message: format!(
                        "series_index {series_index} out of range for dataset \"{}\" ({} series)",
                        resolved.name,
                        resolved.series.len()
                    ),
                    })?;
                Arc::clone(s)
            } else {
                haystack.into()
            };
            Ok(Some(Decomposed {
                items: vec![WorkItem::Search {
                    query: query.into(),
                    haystack,
                    window,
                    band,
                }],
                assemble: Assemble::Search,
            }))
        }
    }
}

/// Executes one work item through its routed backend, reporting whether
/// the analog path silently fell back to a digital recompute. Errors are
/// per-item values — a failing item never aborts the coalesced batch it
/// shares with other requests.
///
/// Pair items dispatch through [`evaluate_routed`]: on the default
/// [`BackendId::DigitalExact`] route that is the exact `Distance`
/// constructors the digital reference library uses — bitwise identical to
/// a direct call — while analog routes carry the saturation/encoding
/// fallback guard.
pub fn execute_item_routed(
    item: &WorkItem,
    scratch: &mut DpScratch,
) -> Result<(ItemOutcome, bool), DistanceError> {
    match item {
        WorkItem::Pair { spec, p, q } => {
            let req = PairRequest {
                kind: spec.kind,
                threshold: spec.threshold,
                band: spec.band,
            };
            let routed = evaluate_routed(spec.backend, &req, p, q, scratch)?;
            Ok((ItemOutcome::Value(routed.value), routed.fell_back))
        }
        WorkItem::Search {
            query,
            haystack,
            window,
            band,
        } => {
            // Serial engine: the item already runs on an engine worker.
            let search = SubsequenceSearch::new(*window, *band).with_engine(BatchEngine::serial());
            let (m, _stats) = search.run(query, haystack)?;
            Ok((
                ItemOutcome::Match {
                    offset: m.offset,
                    distance: m.distance,
                },
                false,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use mda_distance::dtw::Band;
    use mda_distance::{Distance, Dtw};

    fn series(len: usize, phase: f64) -> Vec<f64> {
        (0..len).map(|i| (i as f64 * 0.4 + phase).sin()).collect()
    }

    #[test]
    fn pair_item_matches_direct_evaluation() {
        let p = series(16, 0.0);
        let q = series(16, 0.7);
        let mut scratch = DpScratch::new();
        for kind in DistanceKind::ALL {
            let item = WorkItem::Pair {
                spec: PairSpec {
                    kind,
                    threshold: None,
                    band: None,
                    backend: BackendId::DigitalExact,
                },
                p: p.clone().into(),
                q: q.clone().into(),
            };
            let (ItemOutcome::Value(served), _) = execute_item_routed(&item, &mut scratch).unwrap()
            else {
                panic!("pair item must yield a value");
            };
            let direct = mda_distance::boxed_distance(kind).evaluate(&p, &q).unwrap();
            assert_eq!(served.to_bits(), direct.to_bits(), "{kind}");
        }
    }

    #[test]
    fn banded_dtw_spec_is_honoured() {
        let p = series(24, 0.0);
        let q = series(24, 1.1);
        let mut scratch = DpScratch::new();
        let item = WorkItem::Pair {
            spec: PairSpec {
                kind: DistanceKind::Dtw,
                threshold: None,
                band: Some(2),
                backend: BackendId::DigitalExact,
            },
            p: p.clone().into(),
            q: q.clone().into(),
        };
        let (ItemOutcome::Value(served), _) = execute_item_routed(&item, &mut scratch).unwrap()
        else {
            panic!()
        };
        let direct = Dtw::new()
            .with_band(Band::SakoeChiba(2))
            .evaluate(&p, &q)
            .unwrap();
        assert_eq!(served.to_bits(), direct.to_bits());
    }

    #[test]
    fn knn_decomposition_shares_the_query() {
        let store = DatasetStore::new(u64::MAX);
        let req = Request::Knn {
            kind: DistanceKind::Manhattan,
            k: 1,
            query: vec![0.0, 1.0],
            train: vec![
                TrainInstance {
                    label: 3,
                    series: vec![0.0, 1.0],
                },
                TrainInstance {
                    label: 5,
                    series: vec![9.0, 9.0],
                },
            ],
            dataset: None,
            threshold: None,
            band: None,
            deadline_ms: None,
            accuracy: None,
        };
        let d = decompose(req, &store).unwrap().unwrap();
        assert_eq!(d.items.len(), 2);
        let Assemble::Knn { k, labels, invert } = &d.assemble else {
            panic!("knn assembly expected");
        };
        assert_eq!(
            (*k, labels.as_slice(), *invert),
            (1, &[3usize, 5][..], false)
        );
        let (WorkItem::Pair { p: p0, .. }, WorkItem::Pair { p: p1, .. }) =
            (&d.items[0], &d.items[1])
        else {
            panic!("pair items expected");
        };
        assert!(Arc::ptr_eq(p0, p1), "query must be shared, not cloned");
    }

    #[test]
    fn item_errors_stay_per_item() {
        let mut scratch = DpScratch::new();
        let bad = WorkItem::Pair {
            spec: PairSpec {
                kind: DistanceKind::Manhattan,
                threshold: None,
                band: None,
                backend: BackendId::DigitalExact,
            },
            p: vec![0.0].into(),
            q: vec![0.0, 1.0].into(),
        };
        assert!(execute_item_routed(&bad, &mut scratch).is_err());
    }

    #[test]
    fn control_ops_do_not_decompose() {
        let store = DatasetStore::new(u64::MAX);
        assert!(decompose(Request::Ping, &store).unwrap().is_none());
        assert!(decompose(Request::Metrics, &store).unwrap().is_none());
        assert!(decompose(Request::ListDatasets, &store).unwrap().is_none());
        assert!(decompose(Request::Subscribe { stream_id: 1 }, &store)
            .unwrap()
            .is_none());
    }

    #[test]
    fn resident_knn_decomposes_identically_to_inline_train() {
        let store = DatasetStore::new(u64::MAX);
        let train: Vec<Vec<f64>> = vec![series(8, 0.0), series(8, 0.3), series(8, 0.9)];
        let up = store.upload("train", vec![3, 5, 5], train.clone()).unwrap();
        let resident = decompose(
            Request::Knn {
                kind: DistanceKind::Dtw,
                k: 1,
                query: series(8, 0.1),
                train: Vec::new(),
                dataset: Some(crate::protocol::DatasetRef::by_id(&up.dataset_id)),
                threshold: None,
                band: None,
                deadline_ms: None,
                accuracy: None,
            },
            &store,
        )
        .unwrap()
        .unwrap();
        let inline = decompose(
            Request::Knn {
                kind: DistanceKind::Dtw,
                k: 1,
                query: series(8, 0.1),
                train: train
                    .iter()
                    .zip([3usize, 5, 5])
                    .map(|(s, label)| TrainInstance {
                        label,
                        series: s.clone(),
                    })
                    .collect(),
                dataset: None,
                threshold: None,
                band: None,
                deadline_ms: None,
                accuracy: None,
            },
            &store,
        )
        .unwrap()
        .unwrap();
        assert_eq!(resident.items.len(), inline.items.len());
        let mut scratch = DpScratch::new();
        for (a, b) in resident.items.iter().zip(&inline.items) {
            let (ItemOutcome::Value(x), ItemOutcome::Value(y)) = (
                execute_item_routed(a, &mut scratch).unwrap().0,
                execute_item_routed(b, &mut scratch).unwrap().0,
            ) else {
                panic!("value items expected");
            };
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let (Assemble::Knn { labels: la, .. }, Assemble::Knn { labels: lb, .. }) =
            (&resident.assemble, &inline.assemble)
        else {
            panic!("knn assembly expected");
        };
        assert_eq!(la, lb);
    }

    #[test]
    fn resident_resolution_errors_are_typed_and_pre_admission() {
        let store = DatasetStore::new(u64::MAX);
        store.upload("d", vec![0], vec![vec![1.0, 2.0]]).unwrap();
        // Unknown id → not_found.
        let err = decompose(
            Request::Search {
                query: vec![1.0],
                haystack: Vec::new(),
                dataset: Some(crate::protocol::DatasetRef::by_id("missing")),
                series_index: 0,
                window: 1,
                band: 0,
                deadline_ms: None,
                accuracy: None,
            },
            &store,
        )
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::NotFound);
        // series_index past the end → not_found naming the range.
        let err = decompose(
            Request::Search {
                query: vec![1.0],
                haystack: Vec::new(),
                dataset: Some(crate::protocol::DatasetRef::by_name("d")),
                series_index: 9,
                window: 1,
                band: 0,
                deadline_ms: None,
                accuracy: None,
            },
            &store,
        )
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::NotFound);
        assert!(err.message.contains("series_index 9"), "{}", err.message);
        // Batch resident form without a query → bad_request.
        let err = decompose(
            Request::Batch {
                kind: DistanceKind::Manhattan,
                pairs: Vec::new(),
                query: None,
                dataset: Some(crate::protocol::DatasetRef::by_name("d")),
                threshold: None,
                band: None,
                deadline_ms: None,
                accuracy: None,
            },
            &store,
        )
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
    }
}
