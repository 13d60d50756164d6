//! The `mda-server` wire protocol: length-prefixed JSON frames.
//!
//! Every message is one frame: a 4-byte big-endian payload length followed
//! by exactly that many bytes of UTF-8 JSON (one document per frame). The
//! same framing is used in both directions.
//!
//! ## Requests
//!
//! Every request is an object with a client-chosen `id` (echoed on the
//! reply, so clients may pipeline) and an `op`:
//!
//! ```json
//! {"id": 1, "op": "ping"}
//! {"id": 2, "op": "metrics"}
//! {"id": 3, "op": "distance", "kind": "DTW", "p": [0,1], "q": [0,2]}
//! {"id": 4, "op": "batch", "kind": "MD", "pairs": [[[0,1],[0,2]], [[1,1],[2,2]]]}
//! {"id": 5, "op": "knn", "kind": "DTW", "k": 1, "query": [0,1],
//!  "train": [{"label": 0, "series": [0,1]}, {"label": 1, "series": [5,5]}]}
//! {"id": 6, "op": "search", "query": [0,1], "haystack": [0,1,0,1], "window": 2, "band": 1}
//! ```
//!
//! Optional request fields: `threshold` (LCS/EdD/HamD match threshold),
//! `band` (Sakoe–Chiba radius for DTW), `deadline_ms` (queue-wait budget;
//! requests still queued when it expires are answered with a `timeout`
//! error instead of being computed), and `accuracy` (the answer-path SLA).
//!
//! ## Accuracy SLAs
//!
//! The compute ops (`distance`, `batch`, `knn`, `search`) accept an
//! optional `accuracy` field — either the string `"exact"` or an object
//! `{"tolerance": ε}` with finite non-negative ε:
//!
//! ```json
//! {"id": 13, "op": "distance", "kind": "DTW", "p": [0,1], "q": [0,2],
//!  "accuracy": {"tolerance": 16.0}}
//! ```
//!
//! An absent field means `exact` and leaves both request and reply bytes
//! identical to the pre-routing protocol. A malformed tolerance (NaN,
//! infinite, negative) is rejected at decode with the typed
//! `invalid_parameter` error. When a request *does* carry `accuracy`, its
//! reply reports which backend answered and the error bound it guarantees:
//!
//! ```json
//! {"id": 13, "ok": true, "result": {"value": 1.02},
//!  "backend": "analog", "bound": {"abs": 7.0, "rel": 0.3}}
//! ```
//!
//! ## Resident datasets
//!
//! A corpus can be uploaded once and then referenced by id, so the wire
//! carries queries instead of re-shipping the reference set:
//!
//! ```json
//! {"id": 7, "op": "upload_dataset", "name": "corpus",
//!  "entries": [[0,1,2], {"label": 1, "series": [3,4,5]}]}
//! {"id": 8, "op": "knn", "kind": "DTW", "k": 1, "query": [0,1],
//!  "dataset": "a1b2…"}
//! {"id": 9, "op": "batch", "kind": "MD", "query": [0,1],
//!  "dataset_name": "corpus", "version": 1}
//! {"id": 10, "op": "search", "query": [0,1], "dataset_name": "corpus",
//!  "series_index": 0, "window": 2, "band": 1}
//! {"id": 11, "op": "list_datasets"}
//! {"id": 12, "op": "drop_dataset", "dataset_name": "corpus"}
//! ```
//!
//! A dataset reference is either `dataset` (the content-addressed id
//! returned by `upload_dataset`) or `dataset_name` plus an optional
//! pinned `version`. Referencing an unknown id/name yields `not_found`;
//! pinning a superseded version yields `stale_version`.
//!
//! ## Push-mode streams
//!
//! Live series are mined incrementally: open a stream (fixing the window,
//! band, query, and optional match threshold), push points as they
//! arrive, and subscribe to per-push operator frames:
//!
//! ```json
//! {"id": 20, "op": "open_stream", "window": 16, "band": 2, "query": [0,1, "…"]}
//! {"id": 21, "op": "push_points", "stream_id": 1, "points": [0.5, 0.25]}
//! {"id": 22, "op": "subscribe", "stream_id": 1}
//! {"id": 23, "op": "close_stream", "stream_id": 1}
//! ```
//!
//! `open_stream` replies with the assigned `stream_id`, the consistent-hash
//! `shard` the stream is pinned to, and its `burn_in` (pushes before the
//! first ready frame). After `subscribe`, every accepted push produces one
//! unsolicited event frame on the subscriber's connection, carrying the
//! **subscribe request's id** and the operator `epoch` so consumers detect
//! gaps:
//!
//! ```json
//! {"id": 22, "ok": true, "result": {"event": {"stream_id": 1, "epoch": 4,
//!  "state": "warming", "seen": 4, "burn_in": 16}}}
//! {"id": 22, "ok": true, "result": {"event": {"stream_id": 1, "epoch": 17,
//!  "state": "ready", "mean": 0.5, "std_dev": 1.25, "decision": "pruned_keogh",
//!  "bound": 9.0, "threshold": 4.0, "motif": {"epoch": 16, "distance": 2.5}}}}
//! ```
//!
//! Pushing to an unknown or closed stream yields `not_found`; non-finite
//! points yield `invalid_parameter`; both are in-band replies and the
//! connection survives. A connection that subscribes and also pushes
//! receives each push's direct reply **before** the events it triggered.
//!
//! ## Replies
//!
//! ```json
//! {"id": 3, "ok": true, "result": {"value": 1.0}}
//! {"id": 4, "ok": false, "error": {"code": "overloaded", "message": "…"}}
//! ```
//!
//! Error codes: `overloaded` (admission control shed the request),
//! `timeout` (deadline expired in the queue), `bad_request` (malformed or
//! rejected by the distance definition), `invalid_parameter` (a field
//! parsed but its value is out of domain, e.g. a negative tolerance),
//! `not_found` (unknown dataset id or name), `stale_version` (pinned
//! dataset version superseded), `shutting_down` (server is draining),
//! `internal`.

use std::fmt;
use std::io::{self, Read, Write};
use std::time::Duration;

use mda_distance::DistanceKind;
use mda_routing::{BackendId, Bound, Sla};

use crate::json::{Json, JsonError};

/// Default cap on a frame's payload size (16 MiB).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Error raised while reading or interpreting a frame.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying transport failed (includes truncated frames, which
    /// surface as [`io::ErrorKind::UnexpectedEof`]).
    Io(io::Error),
    /// The frame header announced a payload larger than the negotiated cap.
    FrameTooLarge {
        /// Announced payload length.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
    /// The payload was not valid JSON.
    Json(JsonError),
    /// The payload was valid JSON but not a valid message.
    Schema(String),
    /// A field parsed but its value is outside the accepted domain (e.g. a
    /// negative or non-finite tolerance). Answered with the typed
    /// `invalid_parameter` error code rather than generic `bad_request`.
    InvalidParameter(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "transport error: {e}"),
            ProtocolError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            ProtocolError::Json(e) => write!(f, "malformed payload: {e}"),
            ProtocolError::Schema(msg) => write!(f, "invalid message: {msg}"),
            ProtocolError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            ProtocolError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl From<JsonError> for ProtocolError {
    fn from(e: JsonError) -> Self {
        ProtocolError::Json(e)
    }
}

impl ProtocolError {
    /// `true` when the peer simply closed the connection cleanly before a
    /// frame header (not mid-frame) — the normal end of a session.
    pub fn is_clean_eof(&self) -> bool {
        matches!(self, ProtocolError::Io(e)
        if e.kind() == io::ErrorKind::UnexpectedEof && e.get_ref().is_some_and(|inner| {
            inner.to_string() == CLEAN_EOF
        }))
    }
}

const CLEAN_EOF: &str = "connection closed between frames";

/// Writes one frame (header + payload).
///
/// # Errors
///
/// Any transport error; payloads beyond `u32::MAX` are rejected.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "payload exceeds u32 length"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload, enforcing the size cap **before** allocating.
///
/// # Errors
///
/// [`ProtocolError::FrameTooLarge`] for oversized announcements, an
/// `UnexpectedEof` [`ProtocolError::Io`] for truncated frames, and a
/// distinguishable clean-EOF error (see [`ProtocolError::is_clean_eof`])
/// when the stream ends exactly on a frame boundary.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Vec<u8>, ProtocolError> {
    let mut header = [0u8; 4];
    // First header byte: distinguish clean EOF from a truncated header.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => {
                return Err(ProtocolError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    CLEAN_EOF,
                )))
            }
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    header[0] = first[0];
    r.read_exact(&mut header[1..])?;
    let len = u32::from_be_bytes(header) as usize;
    if len > max {
        return Err(ProtocolError::FrameTooLarge { len, max });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// A labelled training series for a kNN request.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainInstance {
    /// Class label.
    pub label: usize,
    /// The series.
    pub series: Vec<f64>,
}

/// A reference to a resident dataset: by content-addressed id, or by name
/// with an optional pinned version.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DatasetRef {
    /// The content-addressed id returned by `upload_dataset`.
    pub id: Option<String>,
    /// The upload name.
    pub name: Option<String>,
    /// Pinned version (only meaningful with `name`; a superseded pin is
    /// answered with `stale_version`).
    pub version: Option<u64>,
}

impl DatasetRef {
    /// A reference by content-addressed id.
    pub fn by_id(id: impl Into<String>) -> DatasetRef {
        DatasetRef {
            id: Some(id.into()),
            ..DatasetRef::default()
        }
    }

    /// A reference by name (current version).
    pub fn by_name(name: impl Into<String>) -> DatasetRef {
        DatasetRef {
            name: Some(name.into()),
            ..DatasetRef::default()
        }
    }

    /// A reference by name pinned to a specific version.
    pub fn by_name_version(name: impl Into<String>, version: u64) -> DatasetRef {
        DatasetRef {
            name: Some(name.into()),
            version: Some(version),
            ..DatasetRef::default()
        }
    }
}

/// One entry in a dataset upload: a series with an optional class label
/// (defaults to 0; labels matter only for kNN queries).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetEntry {
    /// Class label (0 when the wire entry is a bare array).
    pub label: usize,
    /// The series.
    pub series: Vec<f64>,
}

/// Summary row for `list_datasets` replies.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSummary {
    /// Upload name.
    pub name: String,
    /// Content-addressed id.
    pub dataset_id: String,
    /// Current version under this name.
    pub version: u64,
    /// Number of series.
    pub count: usize,
    /// Resident payload bytes (8 bytes per sample).
    pub bytes: u64,
}

/// One request, without its envelope `id`.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Fetch the metrics registry as text.
    Metrics,
    /// One distance evaluation.
    Distance {
        /// Which of the six functions.
        kind: DistanceKind,
        /// First series.
        p: Vec<f64>,
        /// Second series.
        q: Vec<f64>,
        /// Match threshold override (LCS/EdD/HamD).
        threshold: Option<f64>,
        /// Sakoe–Chiba radius (DTW).
        band: Option<usize>,
        /// Queue-wait budget.
        deadline_ms: Option<u64>,
        /// Accuracy SLA (absent ⇒ `exact`).
        accuracy: Option<Sla>,
    },
    /// A pairwise batch: one value per pair (inline `pairs`), or — with a
    /// dataset reference — `query` against every resident series.
    Batch {
        /// Which of the six functions.
        kind: DistanceKind,
        /// The pairs to evaluate (inline form; empty when `dataset` set).
        pairs: Vec<(Vec<f64>, Vec<f64>)>,
        /// The query series (resident form: one value per dataset series).
        query: Option<Vec<f64>>,
        /// Resident corpus reference (mutually exclusive with `pairs`).
        dataset: Option<DatasetRef>,
        /// Match threshold override (LCS/EdD/HamD).
        threshold: Option<f64>,
        /// Sakoe–Chiba radius (DTW).
        band: Option<usize>,
        /// Queue-wait budget.
        deadline_ms: Option<u64>,
        /// Accuracy SLA (absent ⇒ `exact`).
        accuracy: Option<Sla>,
    },
    /// k-nearest-neighbour classification of `query` against `train` or a
    /// resident labelled dataset.
    Knn {
        /// Which of the six functions.
        kind: DistanceKind,
        /// Neighbour count (≥ 1).
        k: usize,
        /// The query series.
        query: Vec<f64>,
        /// Labelled training set (inline form; empty when `dataset` set).
        train: Vec<TrainInstance>,
        /// Resident training-set reference (mutually exclusive with `train`).
        dataset: Option<DatasetRef>,
        /// Match threshold override (LCS/EdD/HamD).
        threshold: Option<f64>,
        /// Sakoe–Chiba radius (DTW).
        band: Option<usize>,
        /// Queue-wait budget.
        deadline_ms: Option<u64>,
        /// Accuracy SLA (absent ⇒ `exact`).
        accuracy: Option<Sla>,
    },
    /// Banded-DTW subsequence search of `query` in `haystack` or a
    /// resident series.
    Search {
        /// The query series.
        query: Vec<f64>,
        /// The long series to scan (inline form; empty when `dataset` set).
        haystack: Vec<f64>,
        /// Resident haystack reference (mutually exclusive with `haystack`).
        dataset: Option<DatasetRef>,
        /// Which series of the dataset to scan (resident form; default 0).
        series_index: usize,
        /// Window length (≥ 1).
        window: usize,
        /// Sakoe–Chiba radius.
        band: usize,
        /// Queue-wait budget.
        deadline_ms: Option<u64>,
        /// Accuracy SLA (absent ⇒ `exact`; searches answer exactly either
        /// way, but the reply then reports its backend and bound).
        accuracy: Option<Sla>,
    },
    /// Open a push-mode stream: fixes the sliding window, band, query, and
    /// optional match threshold for the stream's operator DAG.
    OpenStream {
        /// Sliding-window length (≥ 1); also the burn-in.
        window: usize,
        /// Sakoe–Chiba radius for the online matcher.
        band: usize,
        /// The query subsequence (length must equal `window`).
        query: Vec<f64>,
        /// Optional match threshold (finite, positive).
        threshold: Option<f64>,
    },
    /// Append points to an open stream.
    PushPoints {
        /// The stream to push to.
        stream_id: u64,
        /// The points, oldest first.
        points: Vec<f64>,
    },
    /// Subscribe this connection to a stream's per-push events.
    Subscribe {
        /// The stream to follow.
        stream_id: u64,
    },
    /// Close a stream, dropping its state and subscriptions.
    CloseStream {
        /// The stream to close.
        stream_id: u64,
    },
    /// Upload a resident dataset; replies with its content-addressed id.
    UploadDataset {
        /// Name the dataset is versioned under.
        name: String,
        /// The series (with optional labels).
        entries: Vec<DatasetEntry>,
    },
    /// List resident datasets.
    ListDatasets,
    /// Drop a resident dataset by id or name.
    DropDataset {
        /// Which dataset.
        dataset: DatasetRef,
    },
}

impl Request {
    /// Short operation label, used for metrics.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Metrics => "metrics",
            Request::Distance { .. } => "distance",
            Request::Batch { .. } => "batch",
            Request::Knn { .. } => "knn",
            Request::Search { .. } => "search",
            Request::OpenStream { .. } => "open_stream",
            Request::PushPoints { .. } => "push_points",
            Request::Subscribe { .. } => "subscribe",
            Request::CloseStream { .. } => "close_stream",
            Request::UploadDataset { .. } => "upload_dataset",
            Request::ListDatasets => "list_datasets",
            Request::DropDataset { .. } => "drop_dataset",
        }
    }

    /// The request's queue-wait budget, if any.
    pub fn deadline(&self) -> Option<Duration> {
        let ms = match self {
            Request::Distance { deadline_ms, .. }
            | Request::Batch { deadline_ms, .. }
            | Request::Knn { deadline_ms, .. }
            | Request::Search { deadline_ms, .. } => *deadline_ms,
            _ => None,
        };
        ms.map(Duration::from_millis)
    }

    /// The request's explicit accuracy SLA, if it carried one. `None`
    /// means the wire field was absent — semantically `exact`, and the
    /// reply stays in the pre-routing shape.
    pub fn accuracy(&self) -> Option<Sla> {
        match self {
            Request::Distance { accuracy, .. }
            | Request::Batch { accuracy, .. }
            | Request::Knn { accuracy, .. }
            | Request::Search { accuracy, .. } => *accuracy,
            _ => None,
        }
    }
}

/// A request plus its envelope `id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Client-chosen id, echoed on the reply.
    pub id: u64,
    /// The request.
    pub req: Request,
}

/// Machine-readable error class on an error reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control shed the request (queue full).
    Overloaded,
    /// The deadline expired while the request was queued.
    Timeout,
    /// The request was malformed or rejected by the distance definition.
    BadRequest,
    /// A field parsed but its value is out of domain (e.g. a NaN, infinite
    /// or negative tolerance).
    InvalidParameter,
    /// The referenced dataset id or name is not resident.
    NotFound,
    /// The request pinned a dataset version that has been superseded.
    StaleVersion,
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorCode {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Timeout => "timeout",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::InvalidParameter => "invalid_parameter",
            ErrorCode::NotFound => "not_found",
            ErrorCode::StaleVersion => "stale_version",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses the wire name.
    pub fn parse(s: &str) -> Option<ErrorCode> {
        [
            ErrorCode::Overloaded,
            ErrorCode::Timeout,
            ErrorCode::BadRequest,
            ErrorCode::InvalidParameter,
            ErrorCode::NotFound,
            ErrorCode::StaleVersion,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
        ]
        .into_iter()
        .find(|c| c.as_str() == s)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A best-so-far motif/discord record on a stream event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchRecord {
    /// The push epoch the record was set at.
    pub epoch: u64,
    /// Its distance (motif: computed DTW; discord: certified lower bound).
    pub distance: f64,
}

/// What a subscribed connection receives after each accepted push.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamEventBody {
    /// The stream the event belongs to.
    pub stream_id: u64,
    /// The operator epoch (push count) — consecutive per stream, so a gap
    /// tells the subscriber it missed events.
    pub epoch: u64,
    /// Warming progress or the ready frame.
    pub state: StreamEventState,
}

/// The operator DAG's state carried on one stream event.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEventState {
    /// The window has not filled yet; no frames are emitted.
    Warming {
        /// Points seen so far.
        seen: u64,
        /// Points required before the first ready frame.
        burn_in: u64,
    },
    /// One ready frame from the incremental operators.
    Ready {
        /// Sliding-window mean.
        mean: f64,
        /// Sliding-window standard deviation.
        std_dev: f64,
        /// Cascade outcome: `computed`, `pruned_kim`, `pruned_keogh`, or
        /// `abandoned`.
        decision: String,
        /// The certified lower bound on this window's distance.
        bound: f64,
        /// Effective pruning threshold ([`f64::INFINITY`] = unbounded;
        /// omitted from the wire then).
        threshold: f64,
        /// Best (smallest computed) match so far.
        motif: Option<MatchRecord>,
        /// Largest certified lower bound so far.
        discord: Option<MatchRecord>,
    },
}

/// The body of a reply (success variants mirror the request ops).
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Reply to `ping`.
    Pong,
    /// Reply to `metrics`: the rendered registry.
    MetricsText(String),
    /// Reply to `distance`.
    Distance {
        /// The computed value.
        value: f64,
    },
    /// Reply to `batch`.
    Batch {
        /// One value per input pair, in input order.
        values: Vec<f64>,
    },
    /// Reply to `knn`.
    Knn {
        /// Predicted label.
        label: usize,
        /// Score of the deciding neighbour.
        score: f64,
        /// Index of the nearest training instance.
        nearest_index: usize,
    },
    /// Reply to `search`.
    Search {
        /// Start offset of the best window.
        offset: usize,
        /// Its banded DTW distance.
        distance: f64,
    },
    /// Reply to `upload_dataset`.
    DatasetUploaded {
        /// Content-addressed id for query references.
        dataset_id: String,
        /// Version assigned under the upload name.
        version: u64,
        /// Number of series.
        count: usize,
        /// Resident payload bytes.
        bytes: u64,
    },
    /// Reply to `list_datasets`.
    Datasets {
        /// One row per resident dataset.
        items: Vec<DatasetSummary>,
    },
    /// Reply to `drop_dataset`.
    Dropped {
        /// Number of datasets removed (0 or 1).
        count: usize,
    },
    /// Reply to `open_stream`.
    StreamOpened {
        /// The assigned stream id — use it in every later stream op.
        stream_id: u64,
        /// The consistent-hash shard the stream is pinned to.
        shard: u32,
        /// Pushes before the first ready frame.
        burn_in: u64,
    },
    /// Reply to `push_points`.
    PointsPushed {
        /// Echo of the stream id.
        stream_id: u64,
        /// Points accepted by this push.
        accepted: u64,
        /// The stream's epoch after the push.
        epoch: u64,
    },
    /// Reply to `subscribe`.
    Subscribed {
        /// Echo of the stream id.
        stream_id: u64,
        /// The stream's epoch at subscription time.
        epoch: u64,
        /// `true` once burn-in has completed.
        warm: bool,
    },
    /// Reply to `close_stream`.
    StreamClosed {
        /// Echo of the stream id.
        stream_id: u64,
        /// Total points the stream accepted over its lifetime.
        pushed: u64,
    },
    /// An unsolicited per-push event on a subscribed connection (carries
    /// the subscribe request's id).
    StreamEvent(StreamEventBody),
    /// Any failure.
    Error {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable description.
        message: String,
    },
}

/// Which backend answered a routed request, and with what guarantee.
/// Attached to a reply only when the request carried an explicit
/// `accuracy` field — absent otherwise, keeping the pre-routing reply
/// bytes unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteInfo {
    /// The answering backend.
    pub backend: BackendId,
    /// The error bound the answer is guaranteed to satisfy against the
    /// exact digital value.
    pub bound: Bound,
}

/// A reply plus the echoed request `id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Echo of the request id.
    pub id: u64,
    /// The body.
    pub body: ResponseBody,
    /// Routing report for explicitly accuracy-tagged requests.
    pub route: Option<RouteInfo>,
}

impl Reply {
    /// A reply with no routing report — the shape of every reply to a
    /// request without an explicit `accuracy` field.
    pub fn new(id: u64, body: ResponseBody) -> Reply {
        Reply {
            id,
            body,
            route: None,
        }
    }

    /// This reply with a routing report attached.
    pub fn with_route(mut self, route: RouteInfo) -> Reply {
        self.route = Some(route);
        self
    }
}

fn opt_f64(v: &Json, key: &str) -> Result<Option<f64>, ProtocolError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x
            .as_f64()
            .map(Some)
            .ok_or_else(|| ProtocolError::Schema(format!("`{key}` must be a number"))),
    }
}

fn opt_usize(v: &Json, key: &str) -> Result<Option<usize>, ProtocolError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x.as_usize().map(Some).ok_or_else(|| {
            ProtocolError::Schema(format!("`{key}` must be a non-negative integer"))
        }),
    }
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, ProtocolError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x.as_u64().map(Some).ok_or_else(|| {
            ProtocolError::Schema(format!("`{key}` must be a non-negative integer"))
        }),
    }
}

fn req_series(v: &Json, key: &str) -> Result<Vec<f64>, ProtocolError> {
    v.get(key)
        .and_then(Json::as_f64_vec)
        .ok_or_else(|| ProtocolError::Schema(format!("`{key}` must be an array of numbers")))
}

fn req_usize(v: &Json, key: &str) -> Result<usize, ProtocolError> {
    v.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| ProtocolError::Schema(format!("`{key}` must be a non-negative integer")))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, ProtocolError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ProtocolError::Schema(format!("`{key}` must be a non-negative integer")))
}

fn opt_str(v: &Json, key: &str) -> Result<Option<String>, ProtocolError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| ProtocolError::Schema(format!("`{key}` must be a string"))),
    }
}

/// Parses the optional dataset reference triple (`dataset`,
/// `dataset_name`, `version`) shared by the compute ops.
fn opt_dataset_ref(v: &Json) -> Result<Option<DatasetRef>, ProtocolError> {
    let id = opt_str(v, "dataset")?;
    let name = opt_str(v, "dataset_name")?;
    let version = opt_u64(v, "version")?;
    if id.is_some() && name.is_some() {
        return Err(ProtocolError::Schema(
            "specify `dataset` or `dataset_name`, not both".into(),
        ));
    }
    if version.is_some() && name.is_none() {
        return Err(ProtocolError::Schema(
            "`version` requires `dataset_name`".into(),
        ));
    }
    if id.is_none() && name.is_none() {
        return Ok(None);
    }
    Ok(Some(DatasetRef { id, name, version }))
}

fn req_dataset_ref(v: &Json) -> Result<DatasetRef, ProtocolError> {
    opt_dataset_ref(v)?
        .ok_or_else(|| ProtocolError::Schema("a `dataset` id or `dataset_name` is required".into()))
}

fn req_kind(v: &Json) -> Result<DistanceKind, ProtocolError> {
    let name = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtocolError::Schema("`kind` must be a string".into()))?;
    name.parse()
        .map_err(|e| ProtocolError::Schema(format!("{e}")))
}

/// Parses the optional `accuracy` field: the string `"exact"` or an
/// object `{"tolerance": ε}`. Domain violations (non-finite or negative
/// ε, unknown names) are [`ProtocolError::InvalidParameter`], so clients
/// get the typed `invalid_parameter` reply rather than `bad_request`.
fn opt_accuracy(v: &Json) -> Result<Option<Sla>, ProtocolError> {
    let field = match v.get("accuracy") {
        None | Some(Json::Null) => return Ok(None),
        Some(x) => x,
    };
    match field {
        Json::Str(s) if s == "exact" => Ok(Some(Sla::Exact)),
        Json::Str(s) => Err(ProtocolError::InvalidParameter(format!(
            "unknown accuracy `{s}` (expected \"exact\" or {{\"tolerance\": ε}})"
        ))),
        Json::Obj(_) => {
            let eps = field
                .get("tolerance")
                .and_then(Json::as_f64)
                .ok_or_else(|| {
                    ProtocolError::Schema(
                        "`accuracy` object must carry a numeric `tolerance`".into(),
                    )
                })?;
            let sla = Sla::tolerance(eps)
                .map_err(|e| ProtocolError::InvalidParameter(format!("`accuracy`: {e}")))?;
            Ok(Some(sla))
        }
        _ => Err(ProtocolError::Schema(
            "`accuracy` must be \"exact\" or {\"tolerance\": ε}".into(),
        )),
    }
}

/// Decodes a request envelope from a frame payload.
///
/// # Errors
///
/// [`ProtocolError::Json`] for malformed JSON, [`ProtocolError::Schema`]
/// for structurally invalid messages. Never panics, whatever the payload.
pub fn decode_request(payload: &[u8]) -> Result<Envelope, ProtocolError> {
    let v = Json::parse(payload)?;
    let id = v
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| ProtocolError::Schema("`id` must be a non-negative integer".into()))?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtocolError::Schema("`op` must be a string".into()))?;
    let req = match op {
        "ping" => Request::Ping,
        "metrics" => Request::Metrics,
        "distance" => Request::Distance {
            kind: req_kind(&v)?,
            p: req_series(&v, "p")?,
            q: req_series(&v, "q")?,
            threshold: opt_f64(&v, "threshold")?,
            band: opt_usize(&v, "band")?,
            deadline_ms: opt_u64(&v, "deadline_ms")?,
            accuracy: opt_accuracy(&v)?,
        },
        "batch" => {
            let dataset = opt_dataset_ref(&v)?;
            let (pairs, query) = if dataset.is_some() {
                if v.get("pairs").is_some() {
                    return Err(ProtocolError::Schema(
                        "`pairs` and a dataset reference are mutually exclusive".into(),
                    ));
                }
                (Vec::new(), Some(req_series(&v, "query")?))
            } else {
                let pairs_json = v
                    .get("pairs")
                    .and_then(Json::as_array)
                    .ok_or_else(|| ProtocolError::Schema("`pairs` must be an array".into()))?;
                let mut pairs = Vec::with_capacity(pairs_json.len());
                for pair in pairs_json {
                    let items = pair.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                        ProtocolError::Schema("each pair must be `[p, q]`".into())
                    })?;
                    let p = items[0].as_f64_vec().ok_or_else(|| {
                        ProtocolError::Schema("pair series must be numbers".into())
                    })?;
                    let q = items[1].as_f64_vec().ok_or_else(|| {
                        ProtocolError::Schema("pair series must be numbers".into())
                    })?;
                    pairs.push((p, q));
                }
                (pairs, None)
            };
            Request::Batch {
                kind: req_kind(&v)?,
                pairs,
                query,
                dataset,
                threshold: opt_f64(&v, "threshold")?,
                band: opt_usize(&v, "band")?,
                deadline_ms: opt_u64(&v, "deadline_ms")?,
                accuracy: opt_accuracy(&v)?,
            }
        }
        "knn" => {
            let dataset = opt_dataset_ref(&v)?;
            let train = if dataset.is_some() {
                if v.get("train").is_some() {
                    return Err(ProtocolError::Schema(
                        "`train` and a dataset reference are mutually exclusive".into(),
                    ));
                }
                Vec::new()
            } else {
                let train_json = v
                    .get("train")
                    .and_then(Json::as_array)
                    .ok_or_else(|| ProtocolError::Schema("`train` must be an array".into()))?;
                let mut train = Vec::with_capacity(train_json.len());
                for inst in train_json {
                    let label = inst.get("label").and_then(Json::as_usize).ok_or_else(|| {
                        ProtocolError::Schema("train `label` must be an integer".into())
                    })?;
                    let series =
                        inst.get("series")
                            .and_then(Json::as_f64_vec)
                            .ok_or_else(|| {
                                ProtocolError::Schema("train `series` must be numbers".into())
                            })?;
                    train.push(TrainInstance { label, series });
                }
                train
            };
            let k = req_usize(&v, "k")?;
            if k == 0 {
                return Err(ProtocolError::Schema("`k` must be at least 1".into()));
            }
            Request::Knn {
                kind: req_kind(&v)?,
                k,
                query: req_series(&v, "query")?,
                train,
                dataset,
                threshold: opt_f64(&v, "threshold")?,
                band: opt_usize(&v, "band")?,
                deadline_ms: opt_u64(&v, "deadline_ms")?,
                accuracy: opt_accuracy(&v)?,
            }
        }
        "search" => {
            let window = req_usize(&v, "window")?;
            if window == 0 {
                return Err(ProtocolError::Schema("`window` must be at least 1".into()));
            }
            let dataset = opt_dataset_ref(&v)?;
            let (haystack, series_index) = if dataset.is_some() {
                if v.get("haystack").is_some() {
                    return Err(ProtocolError::Schema(
                        "`haystack` and a dataset reference are mutually exclusive".into(),
                    ));
                }
                (Vec::new(), opt_usize(&v, "series_index")?.unwrap_or(0))
            } else {
                if v.get("series_index").is_some() {
                    return Err(ProtocolError::Schema(
                        "`series_index` requires a dataset reference".into(),
                    ));
                }
                (req_series(&v, "haystack")?, 0)
            };
            Request::Search {
                query: req_series(&v, "query")?,
                haystack,
                dataset,
                series_index,
                window,
                band: opt_usize(&v, "band")?.unwrap_or(0),
                deadline_ms: opt_u64(&v, "deadline_ms")?,
                accuracy: opt_accuracy(&v)?,
            }
        }
        "open_stream" => {
            let window = req_usize(&v, "window")?;
            if window == 0 {
                return Err(ProtocolError::Schema("`window` must be at least 1".into()));
            }
            let threshold = opt_f64(&v, "threshold")?;
            if let Some(t) = threshold {
                if !t.is_finite() || t <= 0.0 {
                    return Err(ProtocolError::InvalidParameter(
                        "`threshold` must be finite and positive".into(),
                    ));
                }
            }
            Request::OpenStream {
                window,
                band: opt_usize(&v, "band")?.unwrap_or(0),
                query: req_series(&v, "query")?,
                threshold,
            }
        }
        "push_points" => Request::PushPoints {
            stream_id: req_u64(&v, "stream_id")?,
            points: req_series(&v, "points")?,
        },
        "subscribe" => Request::Subscribe {
            stream_id: req_u64(&v, "stream_id")?,
        },
        "close_stream" => Request::CloseStream {
            stream_id: req_u64(&v, "stream_id")?,
        },
        "upload_dataset" => {
            let name = opt_str(&v, "name")?
                .filter(|n| !n.is_empty())
                .ok_or_else(|| ProtocolError::Schema("`name` must be a non-empty string".into()))?;
            let entries_json = v
                .get("entries")
                .and_then(Json::as_array)
                .ok_or_else(|| ProtocolError::Schema("`entries` must be an array".into()))?;
            let mut entries = Vec::with_capacity(entries_json.len());
            for entry in entries_json {
                let parsed = match entry {
                    Json::Arr(_) => entry
                        .as_f64_vec()
                        .map(|series| DatasetEntry { label: 0, series }),
                    Json::Obj(_) => {
                        let label = match entry.get("label") {
                            None | Some(Json::Null) => Some(0),
                            Some(l) => l.as_usize(),
                        };
                        match (label, entry.get("series").and_then(Json::as_f64_vec)) {
                            (Some(label), Some(series)) => Some(DatasetEntry { label, series }),
                            _ => None,
                        }
                    }
                    _ => None,
                };
                entries.push(parsed.ok_or_else(|| {
                    ProtocolError::Schema(
                        "each entry must be an array of numbers or `{label?, series}`".into(),
                    )
                })?);
            }
            Request::UploadDataset { name, entries }
        }
        "list_datasets" => Request::ListDatasets,
        "drop_dataset" => Request::DropDataset {
            dataset: req_dataset_ref(&v)?,
        },
        other => return Err(ProtocolError::Schema(format!("unknown op `{other}`"))),
    };
    Ok(Envelope { id, req })
}

/// Encodes a request envelope to a frame payload.
pub fn encode_request(env: &Envelope) -> Vec<u8> {
    let mut pairs: Vec<(String, Json)> = vec![
        ("id".into(), Json::Num(env.id as f64)),
        ("op".into(), Json::Str(env.req.op().into())),
    ];
    let mut push_opts = |threshold: &Option<f64>,
                         band: &Option<usize>,
                         deadline_ms: &Option<u64>,
                         accuracy: &Option<Sla>| {
        if let Some(t) = threshold {
            pairs.push(("threshold".into(), Json::Num(*t)));
        }
        if let Some(b) = band {
            pairs.push(("band".into(), Json::Num(*b as f64)));
        }
        if let Some(d) = deadline_ms {
            pairs.push(("deadline_ms".into(), Json::Num(*d as f64)));
        }
        // Omitted entirely when absent, keeping default-option requests
        // byte-identical to the pre-routing wire format.
        match accuracy {
            None => {}
            Some(Sla::Exact) => pairs.push(("accuracy".into(), Json::Str("exact".into()))),
            Some(Sla::Tolerance(e)) => pairs.push((
                "accuracy".into(),
                Json::Obj(vec![("tolerance".into(), Json::Num(*e))]),
            )),
        }
    };
    let dataset_ref_pairs = |r: &DatasetRef| {
        let mut out: Vec<(String, Json)> = Vec::new();
        if let Some(id) = &r.id {
            out.push(("dataset".into(), Json::Str(id.clone())));
        }
        if let Some(name) = &r.name {
            out.push(("dataset_name".into(), Json::Str(name.clone())));
        }
        if let Some(version) = r.version {
            out.push(("version".into(), Json::Num(version as f64)));
        }
        out
    };
    match &env.req {
        Request::Ping | Request::Metrics | Request::ListDatasets => {}
        Request::Distance {
            kind,
            p,
            q,
            threshold,
            band,
            deadline_ms,
            accuracy,
        } => {
            push_opts(threshold, band, deadline_ms, accuracy);
            pairs.push(("kind".into(), Json::Str(kind.abbrev().into())));
            pairs.push(("p".into(), Json::from_f64s(p)));
            pairs.push(("q".into(), Json::from_f64s(q)));
        }
        Request::Batch {
            kind,
            pairs: ps,
            query,
            dataset,
            threshold,
            band,
            deadline_ms,
            accuracy,
        } => {
            push_opts(threshold, band, deadline_ms, accuracy);
            pairs.push(("kind".into(), Json::Str(kind.abbrev().into())));
            if let Some(dataset) = dataset {
                pairs.extend(dataset_ref_pairs(dataset));
                if let Some(query) = query {
                    pairs.push(("query".into(), Json::from_f64s(query)));
                }
            } else {
                pairs.push((
                    "pairs".into(),
                    Json::Arr(
                        ps.iter()
                            .map(|(p, q)| Json::Arr(vec![Json::from_f64s(p), Json::from_f64s(q)]))
                            .collect(),
                    ),
                ));
            }
        }
        Request::Knn {
            kind,
            k,
            query,
            train,
            dataset,
            threshold,
            band,
            deadline_ms,
            accuracy,
        } => {
            push_opts(threshold, band, deadline_ms, accuracy);
            pairs.push(("kind".into(), Json::Str(kind.abbrev().into())));
            pairs.push(("k".into(), Json::Num(*k as f64)));
            pairs.push(("query".into(), Json::from_f64s(query)));
            if let Some(dataset) = dataset {
                pairs.extend(dataset_ref_pairs(dataset));
            } else {
                pairs.push((
                    "train".into(),
                    Json::Arr(
                        train
                            .iter()
                            .map(|t| {
                                Json::Obj(vec![
                                    ("label".into(), Json::Num(t.label as f64)),
                                    ("series".into(), Json::from_f64s(&t.series)),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
        }
        Request::Search {
            query,
            haystack,
            dataset,
            series_index,
            window,
            band,
            deadline_ms,
            accuracy,
        } => {
            push_opts(&None, &Some(*band), deadline_ms, accuracy);
            pairs.push(("query".into(), Json::from_f64s(query)));
            if let Some(dataset) = dataset {
                pairs.extend(dataset_ref_pairs(dataset));
                pairs.push(("series_index".into(), Json::Num(*series_index as f64)));
            } else {
                pairs.push(("haystack".into(), Json::from_f64s(haystack)));
            }
            pairs.push(("window".into(), Json::Num(*window as f64)));
        }
        Request::OpenStream {
            window,
            band,
            query,
            threshold,
        } => {
            if let Some(t) = threshold {
                pairs.push(("threshold".into(), Json::Num(*t)));
            }
            pairs.push(("window".into(), Json::Num(*window as f64)));
            pairs.push(("band".into(), Json::Num(*band as f64)));
            pairs.push(("query".into(), Json::from_f64s(query)));
        }
        Request::PushPoints { stream_id, points } => {
            pairs.push(("stream_id".into(), Json::Num(*stream_id as f64)));
            pairs.push(("points".into(), Json::from_f64s(points)));
        }
        Request::Subscribe { stream_id } | Request::CloseStream { stream_id } => {
            pairs.push(("stream_id".into(), Json::Num(*stream_id as f64)));
        }
        Request::UploadDataset { name, entries } => {
            pairs.push(("name".into(), Json::Str(name.clone())));
            pairs.push((
                "entries".into(),
                Json::Arr(
                    entries
                        .iter()
                        .map(|e| {
                            Json::Obj(vec![
                                ("label".into(), Json::Num(e.label as f64)),
                                ("series".into(), Json::from_f64s(&e.series)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Request::DropDataset { dataset } => {
            pairs.extend(dataset_ref_pairs(dataset));
        }
    }
    Json::Obj(pairs).to_string().into_bytes()
}

/// Encodes a reply to a frame payload.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut pairs: Vec<(String, Json)> = vec![("id".into(), Json::Num(reply.id as f64))];
    match &reply.body {
        ResponseBody::Error { code, message } => {
            pairs.push(("ok".into(), Json::Bool(false)));
            pairs.push((
                "error".into(),
                Json::Obj(vec![
                    ("code".into(), Json::Str(code.as_str().into())),
                    ("message".into(), Json::Str(message.clone())),
                ]),
            ));
        }
        body => {
            pairs.push(("ok".into(), Json::Bool(true)));
            let result = match body {
                ResponseBody::Pong => Json::Obj(vec![("pong".into(), Json::Bool(true))]),
                ResponseBody::MetricsText(text) => {
                    Json::Obj(vec![("text".into(), Json::Str(text.clone()))])
                }
                ResponseBody::Distance { value } => {
                    Json::Obj(vec![("value".into(), Json::Num(*value))])
                }
                ResponseBody::Batch { values } => {
                    Json::Obj(vec![("values".into(), Json::from_f64s(values))])
                }
                ResponseBody::Knn {
                    label,
                    score,
                    nearest_index,
                } => Json::Obj(vec![
                    ("label".into(), Json::Num(*label as f64)),
                    ("score".into(), Json::Num(*score)),
                    ("nearest_index".into(), Json::Num(*nearest_index as f64)),
                ]),
                ResponseBody::Search { offset, distance } => Json::Obj(vec![
                    ("offset".into(), Json::Num(*offset as f64)),
                    ("distance".into(), Json::Num(*distance)),
                ]),
                ResponseBody::DatasetUploaded {
                    dataset_id,
                    version,
                    count,
                    bytes,
                } => Json::Obj(vec![
                    ("dataset_id".into(), Json::Str(dataset_id.clone())),
                    ("version".into(), Json::Num(*version as f64)),
                    ("count".into(), Json::Num(*count as f64)),
                    ("bytes".into(), Json::Num(*bytes as f64)),
                ]),
                ResponseBody::Datasets { items } => Json::Obj(vec![(
                    "datasets".into(),
                    Json::Arr(
                        items
                            .iter()
                            .map(|d| {
                                Json::Obj(vec![
                                    ("name".into(), Json::Str(d.name.clone())),
                                    ("dataset_id".into(), Json::Str(d.dataset_id.clone())),
                                    ("version".into(), Json::Num(d.version as f64)),
                                    ("count".into(), Json::Num(d.count as f64)),
                                    ("bytes".into(), Json::Num(d.bytes as f64)),
                                ])
                            })
                            .collect(),
                    ),
                )]),
                ResponseBody::Dropped { count } => {
                    Json::Obj(vec![("dropped".into(), Json::Num(*count as f64))])
                }
                ResponseBody::StreamOpened {
                    stream_id,
                    shard,
                    burn_in,
                } => Json::Obj(vec![
                    ("stream_id".into(), Json::Num(*stream_id as f64)),
                    ("shard".into(), Json::Num(*shard as f64)),
                    ("burn_in".into(), Json::Num(*burn_in as f64)),
                ]),
                ResponseBody::PointsPushed {
                    stream_id,
                    accepted,
                    epoch,
                } => Json::Obj(vec![
                    ("stream_id".into(), Json::Num(*stream_id as f64)),
                    ("accepted".into(), Json::Num(*accepted as f64)),
                    ("epoch".into(), Json::Num(*epoch as f64)),
                ]),
                ResponseBody::Subscribed {
                    stream_id,
                    epoch,
                    warm,
                } => Json::Obj(vec![
                    ("subscribed".into(), Json::Bool(true)),
                    ("stream_id".into(), Json::Num(*stream_id as f64)),
                    ("epoch".into(), Json::Num(*epoch as f64)),
                    ("warm".into(), Json::Bool(*warm)),
                ]),
                ResponseBody::StreamClosed { stream_id, pushed } => Json::Obj(vec![
                    ("closed".into(), Json::Bool(true)),
                    ("stream_id".into(), Json::Num(*stream_id as f64)),
                    ("pushed".into(), Json::Num(*pushed as f64)),
                ]),
                ResponseBody::StreamEvent(event) => {
                    Json::Obj(vec![("event".into(), encode_stream_event(event))])
                }
                ResponseBody::Error { .. } => unreachable!("handled above"),
            };
            pairs.push(("result".into(), result));
        }
    }
    if let Some(route) = &reply.route {
        pairs.push(("backend".into(), Json::Str(route.backend.as_str().into())));
        pairs.push((
            "bound".into(),
            Json::Obj(vec![
                ("abs".into(), Json::Num(route.bound.abs)),
                ("rel".into(), Json::Num(route.bound.rel)),
            ]),
        ));
    }
    Json::Obj(pairs).to_string().into_bytes()
}

fn encode_stream_event(event: &StreamEventBody) -> Json {
    let mut fields: Vec<(String, Json)> = vec![
        ("stream_id".into(), Json::Num(event.stream_id as f64)),
        ("epoch".into(), Json::Num(event.epoch as f64)),
    ];
    match &event.state {
        StreamEventState::Warming { seen, burn_in } => {
            fields.push(("state".into(), Json::Str("warming".into())));
            fields.push(("seen".into(), Json::Num(*seen as f64)));
            fields.push(("burn_in".into(), Json::Num(*burn_in as f64)));
        }
        StreamEventState::Ready {
            mean,
            std_dev,
            decision,
            bound,
            threshold,
            motif,
            discord,
        } => {
            fields.push(("state".into(), Json::Str("ready".into())));
            fields.push(("mean".into(), Json::Num(*mean)));
            fields.push(("std_dev".into(), Json::Num(*std_dev)));
            fields.push(("decision".into(), Json::Str(decision.clone())));
            fields.push(("bound".into(), Json::Num(*bound)));
            // An unbounded (infinite) threshold is not representable in
            // JSON: omitted on the wire, restored at decode.
            if threshold.is_finite() {
                fields.push(("threshold".into(), Json::Num(*threshold)));
            }
            for (key, record) in [("motif", motif), ("discord", discord)] {
                if let Some(r) = record {
                    fields.push((
                        key.into(),
                        Json::Obj(vec![
                            ("epoch".into(), Json::Num(r.epoch as f64)),
                            ("distance".into(), Json::Num(r.distance)),
                        ]),
                    ));
                }
            }
        }
    }
    Json::Obj(fields)
}

fn decode_match_record(v: &Json, key: &str) -> Result<Option<MatchRecord>, ProtocolError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(r) => {
            let epoch = r
                .get("epoch")
                .and_then(Json::as_u64)
                .ok_or_else(|| ProtocolError::Schema(format!("`{key}` lacks `epoch`")))?;
            let distance = r
                .get("distance")
                .and_then(Json::as_f64)
                .ok_or_else(|| ProtocolError::Schema(format!("`{key}` lacks `distance`")))?;
            Ok(Some(MatchRecord { epoch, distance }))
        }
    }
}

fn decode_stream_event(ev: &Json) -> Result<StreamEventBody, ProtocolError> {
    let stream_id = req_u64(ev, "stream_id")?;
    let epoch = req_u64(ev, "epoch")?;
    let state = match ev.get("state").and_then(Json::as_str) {
        Some("warming") => StreamEventState::Warming {
            seen: req_u64(ev, "seen")?,
            burn_in: req_u64(ev, "burn_in")?,
        },
        Some("ready") => StreamEventState::Ready {
            mean: ev
                .get("mean")
                .and_then(Json::as_f64)
                .ok_or_else(|| ProtocolError::Schema("event lacks numeric `mean`".into()))?,
            std_dev: ev
                .get("std_dev")
                .and_then(Json::as_f64)
                .ok_or_else(|| ProtocolError::Schema("event lacks numeric `std_dev`".into()))?,
            decision: ev
                .get("decision")
                .and_then(Json::as_str)
                .ok_or_else(|| ProtocolError::Schema("event lacks `decision`".into()))?
                .to_string(),
            bound: ev
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| ProtocolError::Schema("event lacks numeric `bound`".into()))?,
            threshold: ev
                .get("threshold")
                .and_then(Json::as_f64)
                .unwrap_or(f64::INFINITY),
            motif: decode_match_record(ev, "motif")?,
            discord: decode_match_record(ev, "discord")?,
        },
        _ => {
            return Err(ProtocolError::Schema(
                "event `state` must be \"warming\" or \"ready\"".into(),
            ))
        }
    };
    Ok(StreamEventBody {
        stream_id,
        epoch,
        state,
    })
}

/// Decodes a reply from a frame payload. The reply shape is inferred from
/// the result keys, so the caller matches on [`ResponseBody`].
///
/// # Errors
///
/// [`ProtocolError::Json`] / [`ProtocolError::Schema`]; never panics.
pub fn decode_reply(payload: &[u8]) -> Result<Reply, ProtocolError> {
    let v = Json::parse(payload)?;
    let id = v
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| ProtocolError::Schema("reply `id` must be an integer".into()))?;
    let ok = match v.get("ok") {
        Some(Json::Bool(b)) => *b,
        _ => return Err(ProtocolError::Schema("reply `ok` must be a bool".into())),
    };
    let route = decode_route(&v)?;
    if !ok {
        let err = v
            .get("error")
            .ok_or_else(|| ProtocolError::Schema("error reply lacks `error`".into()))?;
        let code = err
            .get("code")
            .and_then(Json::as_str)
            .and_then(ErrorCode::parse)
            .ok_or_else(|| ProtocolError::Schema("unknown error `code`".into()))?;
        let message = err
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        return Ok(Reply {
            id,
            body: ResponseBody::Error { code, message },
            route,
        });
    }
    let result = v
        .get("result")
        .ok_or_else(|| ProtocolError::Schema("ok reply lacks `result`".into()))?;
    let body = if result.get("pong").is_some() {
        ResponseBody::Pong
    } else if let Some(text) = result.get("text").and_then(Json::as_str) {
        ResponseBody::MetricsText(text.to_string())
    } else if let Some(dataset_id) = result.get("dataset_id").and_then(Json::as_str) {
        let version = result
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| ProtocolError::Schema("upload result lacks `version`".into()))?;
        let count = result
            .get("count")
            .and_then(Json::as_usize)
            .ok_or_else(|| ProtocolError::Schema("upload result lacks `count`".into()))?;
        let bytes = result
            .get("bytes")
            .and_then(Json::as_u64)
            .ok_or_else(|| ProtocolError::Schema("upload result lacks `bytes`".into()))?;
        ResponseBody::DatasetUploaded {
            dataset_id: dataset_id.to_string(),
            version,
            count,
            bytes,
        }
    } else if let Some(Json::Arr(list)) = result.get("datasets") {
        let mut items = Vec::with_capacity(list.len());
        for d in list {
            let name = d
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| ProtocolError::Schema("dataset summary lacks `name`".into()))?
                .to_string();
            let dataset_id = d
                .get("dataset_id")
                .and_then(Json::as_str)
                .ok_or_else(|| ProtocolError::Schema("dataset summary lacks `dataset_id`".into()))?
                .to_string();
            let version = d
                .get("version")
                .and_then(Json::as_u64)
                .ok_or_else(|| ProtocolError::Schema("dataset summary lacks `version`".into()))?;
            let count = d
                .get("count")
                .and_then(Json::as_usize)
                .ok_or_else(|| ProtocolError::Schema("dataset summary lacks `count`".into()))?;
            let bytes = d
                .get("bytes")
                .and_then(Json::as_u64)
                .ok_or_else(|| ProtocolError::Schema("dataset summary lacks `bytes`".into()))?;
            items.push(DatasetSummary {
                name,
                dataset_id,
                version,
                count,
                bytes,
            });
        }
        ResponseBody::Datasets { items }
    } else if let Some(count) = result.get("dropped").and_then(Json::as_usize) {
        ResponseBody::Dropped { count }
    } else if let Some(ev) = result.get("event") {
        ResponseBody::StreamEvent(decode_stream_event(ev)?)
    } else if result.get("subscribed").is_some() {
        ResponseBody::Subscribed {
            stream_id: req_u64(result, "stream_id")?,
            epoch: req_u64(result, "epoch")?,
            warm: matches!(result.get("warm"), Some(Json::Bool(true))),
        }
    } else if result.get("closed").is_some() {
        ResponseBody::StreamClosed {
            stream_id: req_u64(result, "stream_id")?,
            pushed: req_u64(result, "pushed")?,
        }
    } else if result.get("burn_in").is_some() {
        ResponseBody::StreamOpened {
            stream_id: req_u64(result, "stream_id")?,
            shard: req_u64(result, "shard")? as u32,
            burn_in: req_u64(result, "burn_in")?,
        }
    } else if result.get("accepted").is_some() {
        ResponseBody::PointsPushed {
            stream_id: req_u64(result, "stream_id")?,
            accepted: req_u64(result, "accepted")?,
            epoch: req_u64(result, "epoch")?,
        }
    } else if let Some(value) = result.get("value").and_then(Json::as_f64) {
        ResponseBody::Distance { value }
    } else if let Some(values) = result.get("values").and_then(Json::as_f64_vec) {
        ResponseBody::Batch { values }
    } else if let (Some(label), Some(score), Some(nearest_index)) = (
        result.get("label").and_then(Json::as_usize),
        result.get("score").and_then(Json::as_f64),
        result.get("nearest_index").and_then(Json::as_usize),
    ) {
        ResponseBody::Knn {
            label,
            score,
            nearest_index,
        }
    } else if let (Some(offset), Some(distance)) = (
        result.get("offset").and_then(Json::as_usize),
        result.get("distance").and_then(Json::as_f64),
    ) {
        ResponseBody::Search { offset, distance }
    } else {
        return Err(ProtocolError::Schema("unrecognized result shape".into()));
    };
    Ok(Reply { id, body, route })
}

/// Parses the optional routing report (`backend` + `bound`) off a reply.
fn decode_route(v: &Json) -> Result<Option<RouteInfo>, ProtocolError> {
    let backend = match v.get("backend") {
        None | Some(Json::Null) => return Ok(None),
        Some(x) => x
            .as_str()
            .ok_or_else(|| ProtocolError::Schema("reply `backend` must be a string".into()))?
            .parse::<BackendId>()
            .map_err(|e| ProtocolError::Schema(e.to_string()))?,
    };
    let bound = v
        .get("bound")
        .ok_or_else(|| ProtocolError::Schema("reply `backend` requires `bound`".into()))?;
    let abs = bound
        .get("abs")
        .and_then(Json::as_f64)
        .ok_or_else(|| ProtocolError::Schema("reply `bound` lacks numeric `abs`".into()))?;
    let rel = bound
        .get("rel")
        .and_then(Json::as_f64)
        .ok_or_else(|| ProtocolError::Schema("reply `bound` lacks numeric `rel`".into()))?;
    Ok(Some(RouteInfo {
        backend,
        bound: Bound { abs, rel },
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cur, DEFAULT_MAX_FRAME_BYTES).unwrap(),
            b"hello"
        );
        // A second read hits clean EOF.
        let err = read_frame(&mut cur, DEFAULT_MAX_FRAME_BYTES).unwrap_err();
        assert!(err.is_clean_eof(), "{err}");
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, ProtocolError::FrameTooLarge { .. }), "{err}");
    }

    #[test]
    fn truncated_frame_is_io_error_not_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, ProtocolError::Io(_)));
        assert!(!err.is_clean_eof());
    }

    #[test]
    fn request_roundtrip_all_ops() {
        let envs = vec![
            Envelope {
                id: 0,
                req: Request::Ping,
            },
            Envelope {
                id: 1,
                req: Request::Metrics,
            },
            Envelope {
                id: 2,
                req: Request::Distance {
                    kind: DistanceKind::Dtw,
                    p: vec![0.0, 1.5, -2.25],
                    q: vec![0.5, 1.0],
                    threshold: None,
                    band: Some(3),
                    deadline_ms: Some(250),
                    accuracy: Some(Sla::Tolerance(2.5)),
                },
            },
            Envelope {
                id: 3,
                req: Request::Batch {
                    kind: DistanceKind::Manhattan,
                    pairs: vec![(vec![0.0], vec![1.0]), (vec![2.0, 3.0], vec![2.0, 3.5])],
                    query: None,
                    dataset: None,
                    threshold: None,
                    band: None,
                    deadline_ms: None,
                    accuracy: None,
                },
            },
            Envelope {
                id: 4,
                req: Request::Knn {
                    kind: DistanceKind::Lcs,
                    k: 3,
                    query: vec![1.0, 2.0],
                    train: vec![
                        TrainInstance {
                            label: 0,
                            series: vec![1.0, 2.0],
                        },
                        TrainInstance {
                            label: 7,
                            series: vec![9.0],
                        },
                    ],
                    dataset: None,
                    threshold: Some(0.25),
                    band: None,
                    deadline_ms: None,
                    accuracy: Some(Sla::Exact),
                },
            },
            Envelope {
                id: 5,
                req: Request::Search {
                    query: vec![0.0, 1.0],
                    haystack: vec![0.0, 1.0, 0.0, 1.0],
                    dataset: None,
                    series_index: 0,
                    window: 2,
                    band: 1,
                    deadline_ms: Some(1_000),
                    accuracy: None,
                },
            },
            Envelope {
                id: 6,
                req: Request::UploadDataset {
                    name: "sensors".into(),
                    entries: vec![
                        DatasetEntry {
                            label: 0,
                            series: vec![0.0, 1.5, -2.25],
                        },
                        DatasetEntry {
                            label: 3,
                            series: vec![9.0],
                        },
                    ],
                },
            },
            Envelope {
                id: 7,
                req: Request::ListDatasets,
            },
            Envelope {
                id: 8,
                req: Request::DropDataset {
                    dataset: DatasetRef::by_name("sensors"),
                },
            },
            Envelope {
                id: 9,
                req: Request::Knn {
                    kind: DistanceKind::Dtw,
                    k: 1,
                    query: vec![1.0, 2.0],
                    train: Vec::new(),
                    dataset: Some(DatasetRef::by_id("abc123")),
                    threshold: None,
                    band: Some(2),
                    deadline_ms: None,
                    accuracy: None,
                },
            },
            Envelope {
                id: 10,
                req: Request::Batch {
                    kind: DistanceKind::Hausdorff,
                    pairs: Vec::new(),
                    query: Some(vec![0.25, -1.0]),
                    dataset: Some(DatasetRef::by_name_version("sensors", 2)),
                    threshold: None,
                    band: None,
                    deadline_ms: Some(50),
                    accuracy: Some(Sla::Tolerance(12.0)),
                },
            },
            Envelope {
                id: 11,
                req: Request::Search {
                    query: vec![0.0, 1.0],
                    haystack: Vec::new(),
                    dataset: Some(DatasetRef::by_name("sensors")),
                    series_index: 3,
                    window: 2,
                    band: 1,
                    deadline_ms: None,
                    accuracy: None,
                },
            },
        ];
        for env in envs {
            let decoded = decode_request(&encode_request(&env)).unwrap();
            assert_eq!(decoded, env);
        }
    }

    #[test]
    fn stream_request_roundtrip() {
        let envs = vec![
            Envelope {
                id: 20,
                req: Request::OpenStream {
                    window: 16,
                    band: 2,
                    query: (0..16).map(|i| i as f64 * 0.5).collect(),
                    threshold: Some(4.0),
                },
            },
            Envelope {
                id: 21,
                req: Request::OpenStream {
                    window: 1,
                    band: 0,
                    query: vec![0.0],
                    threshold: None,
                },
            },
            Envelope {
                id: 22,
                req: Request::PushPoints {
                    stream_id: 3,
                    points: vec![0.5, -0.25, 1e9],
                },
            },
            Envelope {
                id: 23,
                req: Request::Subscribe { stream_id: 3 },
            },
            Envelope {
                id: 24,
                req: Request::CloseStream { stream_id: 3 },
            },
        ];
        for env in envs {
            assert_eq!(decode_request(&encode_request(&env)).unwrap(), env);
        }
    }

    #[test]
    fn stream_request_schema_and_domain_violations() {
        // Structural problems are schema errors (bad_request)…
        for bad in [
            &br#"{"id":1,"op":"open_stream","window":0,"query":[1.0]}"#[..],
            br#"{"id":1,"op":"open_stream","query":[1.0]}"#,
            br#"{"id":1,"op":"open_stream","window":2}"#,
            br#"{"id":1,"op":"push_points","points":[1.0]}"#,
            br#"{"id":1,"op":"push_points","stream_id":1,"points":[true]}"#,
            br#"{"id":1,"op":"subscribe"}"#,
            br#"{"id":1,"op":"close_stream","stream_id":-1}"#,
        ] {
            let err = decode_request(bad).unwrap_err();
            assert!(
                matches!(err, ProtocolError::Schema(_)),
                "{}: {err}",
                String::from_utf8_lossy(bad)
            );
        }
        // …while an out-of-domain threshold is the typed invalid_parameter.
        for bad in [
            &br#"{"id":1,"op":"open_stream","window":2,"query":[0.0,1.0],"threshold":-1.0}"#[..],
            br#"{"id":1,"op":"open_stream","window":2,"query":[0.0,1.0],"threshold":0}"#,
            br#"{"id":1,"op":"open_stream","window":2,"query":[0.0,1.0],"threshold":1e999}"#,
        ] {
            let err = decode_request(bad).unwrap_err();
            assert!(
                matches!(err, ProtocolError::InvalidParameter(_)),
                "{}: {err}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn stream_reply_roundtrip_all_shapes() {
        let replies = vec![
            Reply::new(
                30,
                ResponseBody::StreamOpened {
                    stream_id: 7,
                    shard: 2,
                    burn_in: 16,
                },
            ),
            Reply::new(
                31,
                ResponseBody::PointsPushed {
                    stream_id: 7,
                    accepted: 3,
                    epoch: 19,
                },
            ),
            Reply::new(
                32,
                ResponseBody::Subscribed {
                    stream_id: 7,
                    epoch: 19,
                    warm: true,
                },
            ),
            Reply::new(
                33,
                ResponseBody::Subscribed {
                    stream_id: 8,
                    epoch: 0,
                    warm: false,
                },
            ),
            Reply::new(
                34,
                ResponseBody::StreamClosed {
                    stream_id: 7,
                    pushed: 19,
                },
            ),
            Reply::new(
                32,
                ResponseBody::StreamEvent(StreamEventBody {
                    stream_id: 7,
                    epoch: 4,
                    state: StreamEventState::Warming {
                        seen: 4,
                        burn_in: 16,
                    },
                }),
            ),
            Reply::new(
                32,
                ResponseBody::StreamEvent(StreamEventBody {
                    stream_id: 7,
                    epoch: 20,
                    state: StreamEventState::Ready {
                        mean: 0.5,
                        std_dev: 1.25,
                        decision: "pruned_keogh".into(),
                        bound: 9.0,
                        threshold: 4.0,
                        motif: Some(MatchRecord {
                            epoch: 17,
                            distance: 2.5,
                        }),
                        discord: None,
                    },
                }),
            ),
            // An unbounded threshold survives the omit-then-restore rule.
            Reply::new(
                32,
                ResponseBody::StreamEvent(StreamEventBody {
                    stream_id: 7,
                    epoch: 21,
                    state: StreamEventState::Ready {
                        mean: -0.0,
                        std_dev: 0.0,
                        decision: "computed".into(),
                        bound: 1.5,
                        threshold: f64::INFINITY,
                        motif: None,
                        discord: Some(MatchRecord {
                            epoch: 20,
                            distance: 8.0,
                        }),
                    },
                }),
            ),
        ];
        for reply in replies {
            let decoded = decode_reply(&encode_reply(&reply)).unwrap();
            assert_eq!(decoded, reply);
        }
    }

    #[test]
    fn reply_roundtrip_all_shapes() {
        let replies = vec![
            Reply::new(9, ResponseBody::Pong),
            Reply::new(10, ResponseBody::MetricsText("a 1\nb 2\n".into())),
            Reply::new(11, ResponseBody::Distance { value: -0.0 }),
            Reply::new(
                12,
                ResponseBody::Batch {
                    values: vec![1.0 / 3.0, 4.5],
                },
            ),
            Reply::new(
                13,
                ResponseBody::Knn {
                    label: 2,
                    score: 0.125,
                    nearest_index: 5,
                },
            ),
            Reply::new(
                14,
                ResponseBody::Search {
                    offset: 40,
                    distance: 0.0,
                },
            ),
            Reply::new(
                15,
                ResponseBody::Error {
                    code: ErrorCode::Overloaded,
                    message: "queue full".into(),
                },
            ),
            Reply::new(
                16,
                ResponseBody::DatasetUploaded {
                    dataset_id: "deadbeef01234567".into(),
                    version: 2,
                    count: 64,
                    bytes: 65_536,
                },
            ),
            Reply::new(
                17,
                ResponseBody::Datasets {
                    items: vec![DatasetSummary {
                        name: "sensors".into(),
                        dataset_id: "deadbeef01234567".into(),
                        version: 2,
                        count: 64,
                        bytes: 65_536,
                    }],
                },
            ),
            Reply::new(18, ResponseBody::Dropped { count: 1 }),
            Reply::new(
                19,
                ResponseBody::Error {
                    code: ErrorCode::NotFound,
                    message: "no dataset".into(),
                },
            ),
            Reply::new(
                20,
                ResponseBody::Error {
                    code: ErrorCode::StaleVersion,
                    message: "version 1 superseded by 2".into(),
                },
            ),
            Reply::new(21, ResponseBody::Distance { value: 1.25 }).with_route(RouteInfo {
                backend: BackendId::Analog,
                bound: Bound { abs: 7.0, rel: 0.3 },
            }),
            Reply::new(
                22,
                ResponseBody::Batch {
                    values: vec![0.5, 0.75],
                },
            )
            .with_route(RouteInfo {
                backend: BackendId::DigitalExact,
                bound: Bound::EXACT,
            }),
        ];
        for reply in replies {
            let decoded = decode_reply(&encode_reply(&reply)).unwrap();
            assert_eq!(decoded, reply);
        }
    }

    #[test]
    fn accuracy_absent_keeps_the_pre_routing_wire_bytes() {
        // The canonical pre-routing encoding of a default-option request:
        // adding the accuracy surface must not perturb a single byte.
        let env = Envelope {
            id: 2,
            req: Request::Distance {
                kind: DistanceKind::Dtw,
                p: vec![0.0, 1.0],
                q: vec![0.0, 2.0],
                threshold: None,
                band: None,
                deadline_ms: None,
                accuracy: None,
            },
        };
        assert_eq!(
            encode_request(&env),
            br#"{"id":2,"op":"distance","kind":"DTW","p":[0,1],"q":[0,2]}"#.to_vec()
        );
        let reply = Reply::new(2, ResponseBody::Distance { value: 1.0 });
        assert_eq!(
            encode_reply(&reply),
            br#"{"id":2,"ok":true,"result":{"value":1}}"#.to_vec()
        );
    }

    #[test]
    fn accuracy_decodes_exact_and_tolerance_forms() {
        let env = decode_request(
            br#"{"id":1,"op":"distance","kind":"MD","p":[0],"q":[1],"accuracy":"exact"}"#,
        )
        .unwrap();
        assert_eq!(env.req.accuracy(), Some(Sla::Exact));
        let env = decode_request(
            br#"{"id":1,"op":"distance","kind":"MD","p":[0],"q":[1],"accuracy":{"tolerance":0.5}}"#,
        )
        .unwrap();
        assert_eq!(env.req.accuracy(), Some(Sla::Tolerance(0.5)));
        let env =
            decode_request(br#"{"id":1,"op":"distance","kind":"MD","p":[0],"q":[1]}"#).unwrap();
        assert_eq!(env.req.accuracy(), None);
    }

    #[test]
    fn malformed_tolerances_are_typed_invalid_parameter() {
        for bad in [
            &br#"{"id":1,"op":"distance","kind":"MD","p":[0],"q":[1],"accuracy":{"tolerance":-0.5}}"#[..],
            br#"{"id":1,"op":"distance","kind":"MD","p":[0],"q":[1],"accuracy":{"tolerance":1e999}}"#,
            br#"{"id":1,"op":"knn","kind":"MD","k":1,"query":[0],"train":[],"accuracy":"fast"}"#,
        ] {
            let err = decode_request(bad).unwrap_err();
            assert!(
                matches!(err, ProtocolError::InvalidParameter(_)),
                "{}: {err}",
                String::from_utf8_lossy(bad)
            );
        }
        // A structurally wrong accuracy (not string/object) is a schema
        // error, not a domain error.
        let err =
            decode_request(br#"{"id":1,"op":"distance","kind":"MD","p":[0],"q":[1],"accuracy":7}"#)
                .unwrap_err();
        assert!(matches!(err, ProtocolError::Schema(_)), "{err}");
    }

    #[test]
    fn schema_violations_error_cleanly() {
        for bad in [
            &br#"{"op":"ping"}"#[..],                                          // no id
            br#"{"id":1}"#,                                                    // no op
            br#"{"id":1,"op":"warp"}"#,                                        // unknown op
            br#"{"id":1,"op":"distance","kind":"XX","p":[],"q":[]}"#,          // bad kind
            br#"{"id":1,"op":"distance","kind":"MD","p":[true],"q":[]}"#,      // bad series
            br#"{"id":1,"op":"knn","kind":"MD","k":0,"query":[],"train":[]}"#, // k = 0
            br#"{"id":1,"op":"search","query":[],"haystack":[],"window":0}"#,  // window = 0
            br#"{"id":1.5,"op":"ping"}"#,                                      // fractional id
            // dataset-protocol schema violations
            br#"{"id":1,"op":"upload_dataset","name":"","entries":[[1.0]]}"#, // empty name
            br#"{"id":1,"op":"upload_dataset","name":"x","entries":[true]}"#, // bad entry
            br#"{"id":1,"op":"knn","kind":"MD","k":1,"query":[1.0],"train":[{"label":0,"series":[1.0]}],"dataset":"abc"}"#, // train AND dataset
            br#"{"id":1,"op":"search","query":[1.0],"haystack":[],"dataset_name":"x","version":2,"series_index":0,"window":1,"dataset":"abc"}"#, // id AND name
            br#"{"id":1,"op":"search","query":[1.0],"haystack":[],"version":2,"series_index":0,"window":1}"#, // version w/o name
            br#"{"id":1,"op":"search","query":[1.0],"haystack":[1.0,2.0],"series_index":1,"window":1}"#, // series_index w/o dataset
            br#"{"id":1,"op":"drop_dataset"}"#, // drop with no ref
        ] {
            assert!(
                decode_request(bad).is_err(),
                "{} should fail",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn kind_names_match_paper_abbreviations() {
        for kind in DistanceKind::ALL {
            assert_eq!(kind.abbrev().parse(), Ok(kind));
        }
        assert!("dtw".parse::<DistanceKind>().is_err());
    }
}
