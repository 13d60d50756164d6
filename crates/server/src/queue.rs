//! The request-coalescing queue: admission control at the front, one
//! dispatcher thread at the back.
//!
//! Connections never compute. They decompose requests into work items
//! ([`crate::exec`]) and [`submit`](Coalescer::submit) them; the single
//! dispatcher thread drains the queue into **coalesced batches** — work
//! items from as many queued requests as fit the batch budget — and runs
//! each batch through one [`BatchEngine`] map call. Throughput therefore
//! scales with the engine's worker threads (one accelerator host core
//! each), not with the number of open connections.
//!
//! Admission control is item-based: the queue holds at most
//! `max_queue_items` work items. A submission that would overflow is
//! rejected immediately (`overloaded` reply, no queuing, no blocking) —
//! load-shedding at the door instead of collapse under backlog. One
//! oversized job is still admitted when the queue is empty, so capacity
//! bounds backlog without capping single-request size.
//!
//! Deadlines bound *queue wait*: a request whose `deadline_ms` expires
//! before dispatch is answered with `timeout` and never computed. Batches
//! in flight always run to completion — graceful drain relies on that.

use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mda_distance::mining::knn;
use mda_distance::{BatchEngine, DistanceError, DpScratch};
use mda_routing::PowerLease;

use crate::event_loop::Completions;
use crate::exec::{execute_item_routed, Assemble, ItemOutcome, WorkItem};
use crate::metrics::Metrics;
use crate::protocol::{ErrorCode, Reply, ResponseBody, RouteInfo};

/// Where a finished job's reply goes.
///
/// The event loop cannot block on a channel: its connections are plain
/// state machines owned by one thread. Dispatcher completions for event-loop
/// connections are therefore pushed onto a shared [`Completions`] queue
/// (keyed by connection token) and the loop is woken via its eventfd; tests
/// and embedders can still use a plain mpsc channel.
#[derive(Debug, Clone)]
pub enum ReplySink {
    /// Deliver over an mpsc channel (tests, embedding).
    Channel(Sender<Reply>),
    /// Deliver to an event-loop connection by token.
    Conn {
        /// The connection's event-loop token.
        token: u64,
        /// The loop's completion queue (push wakes the loop).
        completions: Arc<Completions>,
    },
}

impl ReplySink {
    /// Delivers one reply. A vanished receiver (disconnected channel or
    /// already-closed connection) is not an error: the reply is dropped.
    pub fn send(&self, reply: Reply) {
        match self {
            ReplySink::Channel(tx) => {
                let _ = tx.send(reply);
            }
            ReplySink::Conn { token, completions } => completions.push(*token, reply),
        }
    }
}

/// One queued compute request.
#[derive(Debug)]
pub struct Job {
    /// Envelope id, echoed on the reply.
    pub id: u64,
    /// Flattened work items.
    pub items: Vec<WorkItem>,
    /// Reduction back to one reply.
    pub assemble: Assemble,
    /// Where the reply goes.
    pub reply: ReplySink,
    /// Absolute queue-wait deadline, if the request set one.
    pub deadline: Option<Instant>,
    /// When the job entered the queue.
    pub enqueued: Instant,
    /// Routing decision to report on the reply (`None` when the request
    /// carried no explicit accuracy SLA — keeps default replies
    /// byte-identical to the pre-routing protocol).
    pub route: Option<RouteInfo>,
    /// Analog fleet power reservation, held until the job finishes.
    pub lease: Option<PowerLease>,
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; the request was shed.
    Overloaded {
        /// Items currently queued.
        queued: usize,
        /// The configured capacity.
        capacity: usize,
    },
    /// The server is draining.
    ShuttingDown,
}

impl SubmitError {
    /// The wire error code for this refusal.
    pub fn code(self) -> ErrorCode {
        match self {
            SubmitError::Overloaded { .. } => ErrorCode::Overloaded,
            SubmitError::ShuttingDown => ErrorCode::ShuttingDown,
        }
    }

    /// Human-readable reply message.
    pub fn message(self) -> String {
        match self {
            SubmitError::Overloaded { queued, capacity } => format!(
                "server overloaded: {queued} work items queued (capacity {capacity}); retry later"
            ),
            SubmitError::ShuttingDown => "server is draining and no longer accepts work".into(),
        }
    }
}

#[derive(Debug, Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    queued_items: usize,
    draining: bool,
}

/// The shared coalescing queue.
#[derive(Debug)]
pub struct Coalescer {
    state: Mutex<QueueState>,
    cv: Condvar,
    metrics: Arc<Metrics>,
    max_queue_items: usize,
    batch_max_items: usize,
}

impl Coalescer {
    /// Creates a queue with the given capacity and per-batch item budget.
    pub fn new(metrics: Arc<Metrics>, max_queue_items: usize, batch_max_items: usize) -> Self {
        Coalescer {
            state: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
            metrics,
            max_queue_items: max_queue_items.max(1),
            batch_max_items: batch_max_items.max(1),
        }
    }

    /// Admits or sheds one job. Never blocks.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when the job would overflow the queue
    /// (the shed counter is incremented here), [`SubmitError::ShuttingDown`]
    /// once draining has begun.
    pub fn submit(&self, job: Job) -> Result<(), SubmitError> {
        let mut state = self.state.lock().expect("queue mutex poisoned");
        if state.draining {
            return Err(SubmitError::ShuttingDown);
        }
        let incoming = job.items.len();
        if !state.jobs.is_empty() && state.queued_items + incoming > self.max_queue_items {
            let queued = state.queued_items;
            drop(state);
            self.metrics.shed.inc();
            return Err(SubmitError::Overloaded {
                queued,
                capacity: self.max_queue_items,
            });
        }
        state.queued_items += incoming;
        state.jobs.push_back(job);
        drop(state);
        self.cv.notify_one();
        Ok(())
    }

    /// Work items currently queued (for tests and introspection).
    pub fn queued_items(&self) -> usize {
        self.state
            .lock()
            .expect("queue mutex poisoned")
            .queued_items
    }

    /// Starts draining: new submissions are refused, queued jobs will still
    /// be dispatched. Idempotent.
    pub fn begin_drain(&self) {
        let mut state = self.state.lock().expect("queue mutex poisoned");
        state.draining = true;
        drop(state);
        self.cv.notify_all();
    }

    /// Blocks until jobs are available (or drain + empty), then takes one
    /// coalesced batch: at least one job, then more jobs while the combined
    /// item count stays within the batch budget. Returns `None` when
    /// draining and empty — the dispatcher's exit signal.
    fn next_batch(&self) -> Option<Vec<Job>> {
        let mut state = self.state.lock().expect("queue mutex poisoned");
        loop {
            if !state.jobs.is_empty() {
                break;
            }
            if state.draining {
                return None;
            }
            let (next, _) = self
                .cv
                .wait_timeout(state, Duration::from_millis(100))
                .expect("queue mutex poisoned");
            state = next;
        }
        let mut batch = Vec::new();
        let mut total = 0usize;
        while let Some(job) = state.jobs.front() {
            let n = job.items.len();
            if !batch.is_empty() && total + n > self.batch_max_items {
                break;
            }
            total += n;
            let job = state.jobs.pop_front().expect("front() was Some");
            batch.push(job);
            if total >= self.batch_max_items {
                break;
            }
        }
        state.queued_items -= total;
        Some(batch)
    }

    /// Runs the dispatcher until drain completes. One thread per server.
    pub fn dispatch_loop(&self, engine: &BatchEngine) {
        while let Some(batch) = self.next_batch() {
            self.dispatch(batch, engine);
        }
    }

    /// Spawns the dispatcher thread.
    pub fn spawn_dispatcher(self: &Arc<Self>, engine: BatchEngine) -> JoinHandle<()> {
        let queue = Arc::clone(self);
        std::thread::Builder::new()
            .name("mda-dispatch".into())
            .spawn(move || queue.dispatch_loop(&engine))
            .expect("spawn dispatcher thread")
    }

    /// Executes one coalesced batch and delivers every reply.
    fn dispatch(&self, batch: Vec<Job>, engine: &BatchEngine) {
        let now = Instant::now();

        // Expired-deadline jobs time out without computing.
        let (live, dead): (Vec<Job>, Vec<Job>) = batch
            .into_iter()
            .partition(|job| job.deadline.is_none_or(|d| now <= d));
        for job in dead {
            self.metrics.timeouts.inc();
            self.finish(
                &job,
                ResponseBody::Error {
                    code: ErrorCode::Timeout,
                    message: "deadline expired while queued".into(),
                },
            );
        }
        if live.is_empty() {
            return;
        }

        // Flatten all live jobs' items into one engine batch.
        let mut flat: Vec<WorkItem> = Vec::with_capacity(live.iter().map(|j| j.items.len()).sum());
        for job in &live {
            self.metrics
                .queue_wait
                .record_us(now.duration_since(job.enqueued).as_micros() as u64);
            flat.extend(job.items.iter().cloned());
        }
        self.metrics.record_batch(live.len(), flat.len());

        // Item errors are carried as values, so one bad request can never
        // abort a batch it shares with healthy neighbours.
        let routed: Vec<Result<(ItemOutcome, bool), DistanceError>> =
            match engine.try_map_with(&flat, DpScratch::new, |scratch, _, item| {
                Ok::<_, std::convert::Infallible>(execute_item_routed(item, scratch))
            }) {
                Ok(v) => v,
                Err(e) => match e {},
            };
        let fallbacks = routed.iter().filter(|r| matches!(r, Ok((_, true)))).count();
        if fallbacks > 0 {
            self.metrics.route_fallbacks.add(fallbacks as u64);
        }
        let outcomes: Vec<Result<ItemOutcome, DistanceError>> = routed
            .into_iter()
            .map(|r| r.map(|(outcome, _)| outcome))
            .collect();

        let mut offset = 0usize;
        for job in &live {
            let n = job.items.len();
            let body = reject_non_finite(assemble(&job.assemble, &outcomes[offset..offset + n]));
            offset += n;
            self.finish(job, body);
        }
        // `live` drops here, releasing every job's fleet lease.
    }

    /// Sends the reply and records the reply + latency metrics.
    fn finish(&self, job: &Job, body: ResponseBody) {
        let is_error = matches!(body, ResponseBody::Error { .. });
        if is_error {
            self.metrics.replies_error.inc();
        } else {
            self.metrics.replies_ok.inc();
        }
        self.metrics
            .latency
            .record_us(job.enqueued.elapsed().as_micros() as u64);
        let mut reply = Reply::new(job.id, body);
        if !is_error {
            reply.route = job.route;
        }
        // A disconnected client is not an error: drop the reply.
        job.reply.send(reply);
    }
}

/// Folds a job's item outcomes into its reply body, reporting the
/// lowest-indexed item error (the error a serial loop would hit first).
fn assemble(assemble: &Assemble, outcomes: &[Result<ItemOutcome, DistanceError>]) -> ResponseBody {
    if let Some(err) = outcomes.iter().find_map(|o| o.as_ref().err()) {
        return ResponseBody::Error {
            code: ErrorCode::BadRequest,
            message: err.to_string(),
        };
    }
    let value_at = |i: usize| match outcomes[i] {
        Ok(ItemOutcome::Value(v)) => v,
        _ => f64::NAN,
    };
    match assemble {
        Assemble::Single => match outcomes.first() {
            Some(Ok(ItemOutcome::Value(value))) => ResponseBody::Distance { value: *value },
            _ => internal("distance job had no value outcome"),
        },
        Assemble::Values => ResponseBody::Batch {
            values: (0..outcomes.len()).map(value_at).collect(),
        },
        Assemble::Search => match outcomes.first() {
            Some(Ok(ItemOutcome::Match { offset, distance })) => ResponseBody::Search {
                offset: *offset,
                distance: *distance,
            },
            _ => internal("search job had no match outcome"),
        },
        Assemble::Knn { k, labels, invert } => {
            if labels.is_empty() {
                return ResponseBody::Error {
                    code: ErrorCode::BadRequest,
                    message: "classifier has no training data".into(),
                };
            }
            let scores: Vec<f64> = (0..outcomes.len())
                .map(|i| knn::score(value_at(i), *invert))
                .collect();
            if scores.iter().any(|s| s.is_nan()) {
                return internal("non-finite kNN score");
            }
            let c = knn::vote(scores, *k, |i| labels[i]);
            ResponseBody::Knn {
                label: c.label,
                score: c.score,
                nearest_index: c.nearest_index,
            }
        }
    }
}

/// JSON has no form for a non-finite number (it would go out as `null`,
/// which no client can decode as a result), so a success body carrying one
/// is answered with a typed `bad_request` instead.
fn reject_non_finite(body: ResponseBody) -> ResponseBody {
    let finite = match &body {
        ResponseBody::Distance { value } => value.is_finite(),
        ResponseBody::Batch { values } => values.iter().all(|v| v.is_finite()),
        ResponseBody::Knn { score, .. } => score.is_finite(),
        _ => true,
    };
    if finite {
        return body;
    }
    ResponseBody::Error {
        code: ErrorCode::BadRequest,
        message: "result is not finite".into(),
    }
}

fn internal(message: &str) -> ResponseBody {
    ResponseBody::Error {
        code: ErrorCode::Internal,
        message: message.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{decompose, PairSpec};
    use mda_distance::DistanceKind;
    use mda_routing::BackendId;
    use std::sync::mpsc;

    fn pair_items(n: usize, len: usize) -> Vec<WorkItem> {
        (0..n)
            .map(|i| WorkItem::Pair {
                spec: PairSpec {
                    kind: DistanceKind::Manhattan,
                    threshold: None,
                    band: None,
                    backend: BackendId::DigitalExact,
                },
                p: (0..len).map(|j| (i + j) as f64).collect::<Vec<_>>().into(),
                q: (0..len).map(|j| j as f64).collect::<Vec<_>>().into(),
            })
            .collect()
    }

    fn job(items: Vec<WorkItem>, reply: Sender<Reply>) -> Job {
        Job {
            id: 1,
            items,
            assemble: Assemble::Values,
            reply: ReplySink::Channel(reply),
            deadline: None,
            enqueued: Instant::now(),
            route: None,
            lease: None,
        }
    }

    #[test]
    fn admission_sheds_beyond_capacity_without_dispatcher() {
        let metrics = Arc::new(Metrics::new());
        let queue = Coalescer::new(Arc::clone(&metrics), 4, 4);
        let (tx, _rx) = mpsc::channel();
        // First job admitted (queue empty), second overflows.
        queue.submit(job(pair_items(3, 4), tx.clone())).unwrap();
        let err = queue.submit(job(pair_items(2, 4), tx.clone())).unwrap_err();
        assert!(matches!(err, SubmitError::Overloaded { queued: 3, .. }));
        assert_eq!(err.code(), ErrorCode::Overloaded);
        assert_eq!(metrics.shed.get(), 1);
        // A job fitting the remaining capacity is still admitted.
        queue.submit(job(pair_items(1, 4), tx)).unwrap();
        assert_eq!(queue.queued_items(), 4);
    }

    #[test]
    fn oversized_job_admitted_only_when_queue_empty() {
        let metrics = Arc::new(Metrics::new());
        let queue = Coalescer::new(metrics, 4, 4);
        let (tx, _rx) = mpsc::channel();
        queue.submit(job(pair_items(10, 4), tx.clone())).unwrap();
        assert!(queue.submit(job(pair_items(1, 4), tx)).is_err());
    }

    #[test]
    fn drain_refuses_new_work() {
        let metrics = Arc::new(Metrics::new());
        let queue = Coalescer::new(metrics, 16, 16);
        queue.begin_drain();
        let (tx, _rx) = mpsc::channel();
        assert_eq!(
            queue.submit(job(pair_items(1, 4), tx)).unwrap_err(),
            SubmitError::ShuttingDown
        );
    }

    #[test]
    fn dispatcher_coalesces_multiple_jobs_into_one_batch() {
        let metrics = Arc::new(Metrics::new());
        let queue = Arc::new(Coalescer::new(Arc::clone(&metrics), 1024, 1024));
        let (tx_a, rx_a) = mpsc::channel();
        let (tx_b, rx_b) = mpsc::channel();
        queue.submit(job(pair_items(3, 8), tx_a)).unwrap();
        queue.submit(job(pair_items(2, 8), tx_b)).unwrap();
        let handle = queue.spawn_dispatcher(BatchEngine::serial());
        let a = rx_a.recv_timeout(Duration::from_secs(10)).unwrap();
        let b = rx_b.recv_timeout(Duration::from_secs(10)).unwrap();
        let (ResponseBody::Batch { values: va }, ResponseBody::Batch { values: vb }) =
            (&a.body, &b.body)
        else {
            panic!("batch replies expected, got {a:?} / {b:?}");
        };
        assert_eq!((va.len(), vb.len()), (3, 2));
        // Both jobs were queued before the dispatcher started, so they ride
        // one coalesced batch of 5 items.
        assert_eq!(metrics.batches.get(), 1);
        assert_eq!(metrics.batch_items.get(), 5);
        assert!((metrics.mean_batch_occupancy() - 5.0).abs() < 1e-12);
        queue.begin_drain();
        handle.join().unwrap();
    }

    #[test]
    fn expired_deadline_times_out_instead_of_computing() {
        let metrics = Arc::new(Metrics::new());
        let queue = Arc::new(Coalescer::new(Arc::clone(&metrics), 64, 64));
        let (tx, rx) = mpsc::channel();
        let mut j = job(pair_items(1, 4), tx);
        j.deadline = Some(Instant::now() - Duration::from_millis(10));
        queue.submit(j).unwrap();
        let handle = queue.spawn_dispatcher(BatchEngine::serial());
        let reply = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(matches!(
            reply.body,
            ResponseBody::Error {
                code: ErrorCode::Timeout,
                ..
            }
        ));
        assert_eq!(metrics.timeouts.get(), 1);
        queue.begin_drain();
        handle.join().unwrap();
    }

    #[test]
    fn item_error_answers_only_the_offending_job() {
        let metrics = Arc::new(Metrics::new());
        let queue = Arc::new(Coalescer::new(metrics, 64, 64));
        let (tx_ok, rx_ok) = mpsc::channel();
        let (tx_bad, rx_bad) = mpsc::channel();
        queue.submit(job(pair_items(2, 4), tx_ok)).unwrap();
        let bad_item = WorkItem::Pair {
            spec: PairSpec {
                kind: DistanceKind::Manhattan,
                threshold: None,
                band: None,
                backend: BackendId::DigitalExact,
            },
            p: vec![0.0].into(),
            q: vec![0.0, 1.0].into(),
        };
        queue.submit(job(vec![bad_item], tx_bad)).unwrap();
        let handle = queue.spawn_dispatcher(BatchEngine::serial());
        let ok = rx_ok.recv_timeout(Duration::from_secs(10)).unwrap();
        let bad = rx_bad.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(matches!(ok.body, ResponseBody::Batch { .. }));
        assert!(matches!(
            bad.body,
            ResponseBody::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        queue.begin_drain();
        handle.join().unwrap();
    }

    #[test]
    fn knn_assembly_matches_classifier_semantics() {
        // Distances 1.0 (label 0), 0.5 (label 1), 2.0 (label 0), k=3:
        // votes 0:2, 1:1 → label 0; nearest is index 1 (score 0.5).
        let outcomes: Vec<Result<ItemOutcome, DistanceError>> = vec![
            Ok(ItemOutcome::Value(1.0)),
            Ok(ItemOutcome::Value(0.5)),
            Ok(ItemOutcome::Value(2.0)),
        ];
        let body = assemble(
            &Assemble::Knn {
                k: 3,
                labels: vec![0, 1, 0],
                invert: false,
            },
            &outcomes,
        );
        assert_eq!(
            body,
            ResponseBody::Knn {
                label: 0,
                score: 0.5,
                nearest_index: 1
            }
        );
    }

    #[test]
    fn knn_empty_train_is_bad_request() {
        let body = assemble(
            &Assemble::Knn {
                k: 1,
                labels: vec![],
                invert: false,
            },
            &[],
        );
        assert!(matches!(
            body,
            ResponseBody::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
    }

    #[test]
    fn decomposed_knn_round_trips_through_dispatch() {
        use crate::protocol::{Request, TrainInstance};
        let req = Request::Knn {
            kind: DistanceKind::Manhattan,
            k: 1,
            query: vec![0.0, 0.1],
            train: vec![
                TrainInstance {
                    label: 4,
                    series: vec![0.0, 0.0],
                },
                TrainInstance {
                    label: 9,
                    series: vec![5.0, 5.0],
                },
            ],
            dataset: None,
            threshold: None,
            band: None,
            deadline_ms: None,
            accuracy: None,
        };
        let store = crate::datasets::DatasetStore::new(u64::MAX);
        let d = decompose(req, &store).unwrap().unwrap();
        let metrics = Arc::new(Metrics::new());
        let queue = Arc::new(Coalescer::new(metrics, 64, 64));
        let (tx, rx) = mpsc::channel();
        queue
            .submit(Job {
                id: 77,
                items: d.items,
                assemble: d.assemble,
                reply: ReplySink::Channel(tx),
                deadline: None,
                enqueued: Instant::now(),
                route: None,
                lease: None,
            })
            .unwrap();
        let handle = queue.spawn_dispatcher(BatchEngine::serial());
        let reply = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(reply.id, 77);
        assert!(matches!(
            reply.body,
            ResponseBody::Knn {
                label: 4,
                nearest_index: 0,
                ..
            }
        ));
        queue.begin_drain();
        handle.join().unwrap();
    }
}
