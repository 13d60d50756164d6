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
use std::marker::PhantomData;
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
    /// optional match threshold for the stream's mining pipeline.
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
    /// Every verb's wire name, in verb-table order.
    pub(crate) const VERBS: &'static [&'static str] = <Request as Table>::NAMES;

    /// Short operation label (the wire verb), used for metrics.
    pub fn op(&self) -> &'static str {
        Self::VERBS[self.verb()]
    }

    /// This request's index into [`Request::VERBS`].
    pub(crate) fn verb(&self) -> usize {
        self.shape()
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
    /// Every error code.
    pub const ALL: [ErrorCode; 8] = [
        ErrorCode::Overloaded,
        ErrorCode::Timeout,
        ErrorCode::BadRequest,
        ErrorCode::InvalidParameter,
        ErrorCode::NotFound,
        ErrorCode::StaleVersion,
        ErrorCode::ShuttingDown,
        ErrorCode::Internal,
    ];

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
        ErrorCode::ALL.into_iter().find(|c| c.as_str() == s)
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

/// The mining pipeline's state carried on one stream event.
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

// The codec: one table per message, walked in both directions.

/// A JSON object under construction, in wire order.
type Obj = Vec<(String, Json)>;

fn schema(message: String) -> ProtocolError {
    ProtocolError::Schema(message)
}

/// A field codec: how one field type is written under its key, and read
/// back. Most fields are a single [`Value`]; the dataset-reference triple
/// and the routing report span several keys.
trait Codec {
    type T;
    fn put(key: &'static str, v: &Self::T, out: &mut Obj);
    /// `Ok(None)` when the field is absent (a `null` counts as absent).
    fn get(obj: &Json, key: &'static str) -> Result<Option<Self::T>, ProtocolError>;
}

/// A codec for a value that sits under exactly one key.
trait Value {
    type T;
    fn to_json(v: &Self::T) -> Json;
    fn from_json(j: &Json, key: &str) -> Result<Self::T, ProtocolError>;
}

impl<V: Value> Codec for V {
    type T = V::T;
    fn put(key: &'static str, v: &V::T, out: &mut Obj) {
        out.push((key.into(), V::to_json(v)));
    }
    fn get(obj: &Json, key: &'static str) -> Result<Option<V::T>, ProtocolError> {
        match obj.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(j) => V::from_json(j, key).map(Some),
        }
    }
}

/// A presence rule: when a field is written, and what a missing key reads
/// as. `F` is the Rust field's type.
trait Presence<C: Codec> {
    type F;
    fn put(key: &'static str, v: &Self::F, out: &mut Obj);
    fn get(obj: &Json, key: &'static str) -> Result<Self::F, ProtocolError>;
}

/// Always written; a missing key is a schema error.
struct Req;
/// Written only when `Some`; a missing key reads as `None`.
struct Opt;
/// Always written; a missing key reads as the default.
struct Def;
/// A field that depends on the dataset reference, which must precede it in
/// wire order. `Dataset<false>` is the inline alternative to one (`pairs`,
/// `train`, `haystack`): written and required without one, forbidden with
/// one. `Dataset<true>` applies only with one (`series_index`): written
/// with one (a missing key reads as the default), forbidden without.
struct Dataset<const WITH: bool>;
type Inline = Dataset<false>;
type Resident = Dataset<true>;

impl<C: Codec> Presence<C> for Req {
    type F = C::T;
    fn put(key: &'static str, v: &C::T, out: &mut Obj) {
        C::put(key, v, out);
    }
    fn get(obj: &Json, key: &'static str) -> Result<C::T, ProtocolError> {
        C::get(obj, key)?.ok_or_else(|| schema(format!("`{key}` is missing")))
    }
}

impl<C: Codec> Presence<C> for Opt {
    type F = Option<C::T>;
    fn put(key: &'static str, v: &Option<C::T>, out: &mut Obj) {
        if let Some(v) = v {
            C::put(key, v, out);
        }
    }
    fn get(obj: &Json, key: &'static str) -> Result<Option<C::T>, ProtocolError> {
        C::get(obj, key)
    }
}

impl<C: Codec<T: Default>> Presence<C> for Def {
    type F = C::T;
    fn put(key: &'static str, v: &C::T, out: &mut Obj) {
        C::put(key, v, out);
    }
    fn get(obj: &Json, key: &'static str) -> Result<C::T, ProtocolError> {
        Ok(C::get(obj, key)?.unwrap_or_default())
    }
}

impl<C: Codec<T: Default>, const WITH: bool> Presence<C> for Dataset<WITH> {
    type F = C::T;
    fn put(key: &'static str, v: &C::T, out: &mut Obj) {
        if DatasetRefs::carried(out) == WITH {
            C::put(key, v, out);
        }
    }
    fn get(obj: &Json, key: &'static str) -> Result<C::T, ProtocolError> {
        if DatasetRefs::carried(obj.as_object().unwrap_or_default()) == WITH {
            return match WITH {
                true => <Def as Presence<C>>::get(obj, key),
                false => <Req as Presence<C>>::get(obj, key),
            };
        }
        if obj.get(key).is_some() {
            let rule = if WITH { "requires" } else { "excludes" };
            return Err(schema(format!("`{key}` {rule} a dataset reference")));
        }
        Ok(C::T::default())
    }
}

/// Declares single-key value codecs: the Rust type, its JSON form, and a
/// reader that returns `None` for a mistyped value.
macro_rules! value_codecs {
    ($($codec:ident: $t:ty = $to:expr, $from:expr, $what:literal;)*) => {$(
        struct $codec;
        impl Value for $codec {
            type T = $t;
            fn to_json(v: &$t) -> Json {
                ($to)(v)
            }
            fn from_json(j: &Json, key: &str) -> Result<$t, ProtocolError> {
                ($from)(j).ok_or_else(|| schema(format!(concat!("`{}` must be ", $what), key)))
            }
        }
    )*};
}

value_codecs! {
    F64: f64 = |v: &f64| Json::Num(*v), Json::as_f64, "a number";
    Usize: usize = |v: &usize| Json::Num(*v as f64), Json::as_usize, "a non-negative integer";
    U64: u64 = |v: &u64| Json::Num(*v as f64), Json::as_u64, "a non-negative integer";
    Count: usize = |v: &usize| Json::Num(*v as f64), |j: &Json| j.as_usize().filter(|&n| n > 0),
        "a positive integer";
    U32: u32 = |v: &u32| Json::Num(f64::from(*v)),
        |j: &Json| j.as_u64().and_then(|x| u32::try_from(x).ok()),
        "a 32-bit non-negative integer";
    Bool: bool = |v: &bool| Json::Bool(*v), |j: &Json| match j {
        Json::Bool(b) => Some(*b),
        _ => None,
    }, "a bool";
    Str: String = |v: &String| Json::Str(v.clone()), |j: &Json| j.as_str().map(str::to_string),
        "a string";
    Name: String = |v: &String| Json::Str(v.clone()),
        |j: &Json| j.as_str().filter(|s| !s.is_empty()).map(str::to_string),
        "a non-empty string";
    Series: Vec<f64> = |v: &Vec<f64>| Json::from_f64s(v), Json::as_f64_vec,
        "an array of numbers";
    Kind: DistanceKind = |v: &DistanceKind| Json::Str(v.abbrev().into()),
        |j: &Json| j.as_str()?.parse().ok(),
        "a distance kind abbreviation";
    Code: ErrorCode = |v: &ErrorCode| Json::Str(v.as_str().into()),
        |j: &Json| ErrorCode::parse(j.as_str()?), "a known error code";
    Backend: BackendId = |v: &BackendId| Json::Str(v.as_str().into()),
        |j: &Json| j.as_str()?.parse().ok(), "a backend name";
    Pair: (Vec<f64>, Vec<f64>) =
        |(p, q): &(Vec<f64>, Vec<f64>)| Json::Arr(vec![Json::from_f64s(p), Json::from_f64s(q)]),
        |j: &Json| match j.as_array()? {
            [p, q] => Some((p.as_f64_vec()?, q.as_f64_vec()?)),
            _ => None,
        },
        "`[p, q]` pairs of number arrays";
}

/// A JSON array of `V` values.
struct List<V>(PhantomData<V>);

impl<V: Value> Value for List<V> {
    type T = Vec<V::T>;
    fn to_json(v: &Vec<V::T>) -> Json {
        Json::Arr(v.iter().map(V::to_json).collect())
    }
    fn from_json(j: &Json, key: &str) -> Result<Vec<V::T>, ProtocolError> {
        j.as_array()
            .ok_or_else(|| schema(format!("`{key}` must be an array")))?
            .iter()
            .map(|item| V::from_json(item, key))
            .collect()
    }
}

/// The accuracy SLA: the string `"exact"` or `{"tolerance": ε}`. Domain
/// violations (non-finite or negative ε, unknown names) are
/// [`ProtocolError::InvalidParameter`], so clients get the typed
/// `invalid_parameter` reply rather than `bad_request`.
struct Accuracy;

const EXACT: &str = "exact";
const TOLERANCE: &str = "tolerance";

impl Value for Accuracy {
    type T = Sla;
    fn to_json(v: &Sla) -> Json {
        match v {
            Sla::Exact => Json::Str(EXACT.into()),
            Sla::Tolerance(eps) => Json::Obj(vec![(TOLERANCE.into(), Json::Num(*eps))]),
        }
    }
    fn from_json(j: &Json, key: &str) -> Result<Sla, ProtocolError> {
        match j {
            Json::Str(s) if s == EXACT => Ok(Sla::Exact),
            Json::Str(s) => Err(ProtocolError::InvalidParameter(format!(
                "unknown {key} `{s}` (expected \"{EXACT}\" or {{\"{TOLERANCE}\": ε}})"
            ))),
            Json::Obj(_) => {
                let eps = <Req as Presence<F64>>::get(j, TOLERANCE)?;
                Sla::tolerance(eps)
                    .map_err(|e| ProtocolError::InvalidParameter(format!("`{key}`: {e}")))
            }
            _ => Err(schema(format!(
                "`{key}` must be \"{EXACT}\" or {{\"{TOLERANCE}\": ε}}"
            ))),
        }
    }
}

/// The dataset-reference triple: `dataset` (the content-addressed id) or
/// `dataset_name` plus an optional pinned `version`. It owns all three
/// keys, so the table key it is declared under is not used.
struct DatasetRefs;

const DATASET_ID: &str = "dataset";
const DATASET_NAME: &str = "dataset_name";
const DATASET_VERSION: &str = "version";

impl DatasetRefs {
    /// Whether `pairs` (an object under construction or decoded) carries a
    /// dataset reference.
    fn carried(pairs: &[(String, Json)]) -> bool {
        pairs
            .iter()
            .any(|(k, v)| (k == DATASET_ID || k == DATASET_NAME) && *v != Json::Null)
    }
}

impl Codec for DatasetRefs {
    type T = DatasetRef;
    fn put(_: &'static str, r: &DatasetRef, out: &mut Obj) {
        <Opt as Presence<Str>>::put(DATASET_ID, &r.id, out);
        <Opt as Presence<Str>>::put(DATASET_NAME, &r.name, out);
        <Opt as Presence<U64>>::put(DATASET_VERSION, &r.version, out);
    }
    fn get(obj: &Json, _: &'static str) -> Result<Option<DatasetRef>, ProtocolError> {
        let r = DatasetRef {
            id: <Opt as Presence<Str>>::get(obj, DATASET_ID)?,
            name: <Opt as Presence<Str>>::get(obj, DATASET_NAME)?,
            version: <Opt as Presence<U64>>::get(obj, DATASET_VERSION)?,
        };
        if r.id.is_some() && r.name.is_some() {
            return Err(schema(format!(
                "specify `{DATASET_ID}` or `{DATASET_NAME}`, not both"
            )));
        }
        if r.version.is_some() && r.name.is_none() {
            return Err(schema(format!(
                "a pinned version requires `{DATASET_NAME}`"
            )));
        }
        Ok((r.id.is_some() || r.name.is_some()).then_some(r))
    }
}

/// An upload entry: written as an object, but a bare series array also
/// decodes (with label 0).
struct Entry;

impl Value for Entry {
    type T = DatasetEntry;
    fn to_json(e: &DatasetEntry) -> Json {
        DatasetEntry::to_json(e)
    }
    fn from_json(j: &Json, key: &str) -> Result<DatasetEntry, ProtocolError> {
        match j {
            Json::Arr(_) => Ok(DatasetEntry {
                label: 0,
                series: Series::from_json(j, key)?,
            }),
            _ => DatasetEntry::from_json(j, key),
        }
    }
}

/// A stream event's pruning threshold: an unbounded (infinite) threshold
/// has no JSON form, so it is omitted and a missing key reads as infinite.
struct Threshold;

impl Codec for Threshold {
    type T = f64;
    fn put(key: &'static str, v: &f64, out: &mut Obj) {
        if v.is_finite() {
            F64::put(key, v, out);
        }
    }
    fn get(obj: &Json, key: &'static str) -> Result<Option<f64>, ProtocolError> {
        Ok(Some(F64::get(obj, key)?.unwrap_or(f64::INFINITY)))
    }
}

/// The routing report on a reply: `backend` plus its `bound`.
struct Route;

const BOUND: &str = "bound";

impl Codec for Route {
    type T = RouteInfo;
    fn put(key: &'static str, r: &RouteInfo, out: &mut Obj) {
        Backend::put(key, &r.backend, out);
        Bound::put(BOUND, &r.bound, out);
    }
    fn get(obj: &Json, key: &'static str) -> Result<Option<RouteInfo>, ProtocolError> {
        let Some(backend) = Backend::get(obj, key)? else {
            return Ok(None);
        };
        let bound = <Req as Presence<Bound>>::get(obj, BOUND)?;
        Ok(Some(RouteInfo { backend, bound }))
    }
}

/// The wire key of a declared field: its name, or the identifier after `as`.
macro_rules! wire_key {
    ($field:tt) => {
        stringify!($field)
    };
    ($field:tt $key:ident) => {
        stringify!($key)
    };
}

/// Declares structs that travel as JSON objects, fields in wire order as
/// `field: Presence Codec` (the wire key is the field name unless `as key`
/// renames it).
macro_rules! wire_structs {
    ($($ty:ident { $($field:ident $(as $key:ident)?: $presence:ident $codec:ty),* $(,)? })*) => {$(
        impl Value for $ty {
            type T = $ty;
            fn to_json(v: &$ty) -> Json {
                let mut out = Obj::new();
                $(<$presence as Presence<$codec>>::put(wire_key!($field $($key)?), &v.$field, &mut out);)*
                Json::Obj(out)
            }
            fn from_json(j: &Json, _: &str) -> Result<$ty, ProtocolError> {
                Ok($ty {
                    $($field: <$presence as Presence<$codec>>::get(j, wire_key!($field $($key)?))?,)*
                })
            }
        }
    )*};
}

wire_structs! {
    TrainInstance { label: Req Usize, series: Req Series }
    DatasetEntry { label: Def Usize, series: Req Series }
    DatasetSummary {
        name: Req Str,
        dataset_id: Req Str,
        version: Req U64,
        count: Req Usize,
        bytes: Req U64,
    }
    MatchRecord { epoch: Req U64, distance: Req F64 }
    Bound { abs: Req F64, rel: Req F64 }
    StreamEventBody { stream_id: Req U64, epoch: Req U64, state: Req Tagged<StreamEventState> }
    Envelope { id: Req U64, req as op: Req Tagged<Request> }
}

/// A message enum described by a [`wire_table!`]: one shape per variant.
trait Table: Sized {
    /// Each shape's wire name, in declaration order.
    const NAMES: &'static [&'static str];
    /// This value's index into [`Table::NAMES`].
    fn shape(&self) -> usize;
    /// Appends this value's fields, in wire order.
    fn put_fields(&self, out: &mut Obj);
    /// Reads the shape called `name` from `obj`.
    fn get_fields(name: &str, obj: &Json) -> Result<Self, ProtocolError>;
}

/// A [`Table`] enum whose shape is named by a tag key (`op`, `state`).
struct Tagged<E>(PhantomData<E>);

impl<E: Table> Codec for Tagged<E> {
    type T = E;
    fn put(key: &'static str, v: &E, out: &mut Obj) {
        out.push((key.into(), Json::Str(E::NAMES[v.shape()].into())));
        v.put_fields(out);
    }
    fn get(obj: &Json, key: &'static str) -> Result<Option<E>, ProtocolError> {
        Str::get(obj, key)?
            .map(|name| E::get_fields(&name, obj))
            .transpose()
    }
}

/// Declares a message enum's table: per variant, its wire name and its
/// fields in wire order as `field: Presence Codec`. The wire key is the
/// field name unless `as key` renames it. `"name" = true` writes the name
/// as a constant marker key before the fields.
macro_rules! wire_table {
    ($ty:ident {$(
        $variant:ident $name:tt $(= $flag:literal)? {
            $($field:tt $(as $key:ident)?: $presence:ident $codec:ty),* $(,)?
        }
    )*}) => {
        impl Table for $ty {
            const NAMES: &'static [&'static str] = &[$($name),*];

            fn shape(&self) -> usize {
                enum Shape {
                    $($variant),*
                }
                match self {
                    $($ty::$variant { .. } => Shape::$variant as usize,)*
                }
            }

            fn put_fields(&self, out: &mut Obj) {
                match self {$(
                    $ty::$variant { .. } => {
                        $(out.push(($name.into(), Json::Bool($flag)));)?
                        $(if let $ty::$variant { $field: v, .. } = self {
                            <$presence as Presence<$codec>>::put(wire_key!($field $($key)?), v, out);
                        })*
                    }
                )*}
            }

            fn get_fields(name: &str, obj: &Json) -> Result<Self, ProtocolError> {
                Ok(match name {
                    $($name => $ty::$variant {
                        $($field: <$presence as Presence<$codec>>::get(obj, wire_key!($field $($key)?))?,)*
                    },)*
                    _ => return Err(schema(format!("unknown {} `{name}`", stringify!($ty)))),
                })
            }
        }
    };
}

// The compute verbs write `threshold`, `band`, `deadline_ms` and `accuracy`
// before `kind`; `search` and `open_stream` always write `band`. Metrics
// count requests in this order.
wire_table! { Request {
    Ping "ping" {}
    Metrics "metrics" {}
    Distance "distance" {
        threshold: Opt F64,
        band: Opt Usize,
        deadline_ms: Opt U64,
        accuracy: Opt Accuracy,
        kind: Req Kind,
        p: Req Series,
        q: Req Series,
    }
    Batch "batch" {
        threshold: Opt F64,
        band: Opt Usize,
        deadline_ms: Opt U64,
        accuracy: Opt Accuracy,
        kind: Req Kind,
        dataset: Opt DatasetRefs,
        query: Opt Series,
        pairs: Inline List<Pair>,
    }
    Knn "knn" {
        threshold: Opt F64,
        band: Opt Usize,
        deadline_ms: Opt U64,
        accuracy: Opt Accuracy,
        kind: Req Kind,
        k: Req Count,
        query: Req Series,
        dataset: Opt DatasetRefs,
        train: Inline List<TrainInstance>,
    }
    Search "search" {
        band: Def Usize,
        deadline_ms: Opt U64,
        accuracy: Opt Accuracy,
        query: Req Series,
        dataset: Opt DatasetRefs,
        series_index: Resident Usize,
        haystack: Inline Series,
        window: Req Count,
    }
    UploadDataset "upload_dataset" { name: Req Name, entries: Req List<Entry> }
    ListDatasets "list_datasets" {}
    DropDataset "drop_dataset" { dataset: Req DatasetRefs }
    OpenStream "open_stream" {
        threshold: Opt F64,
        window: Req Count,
        band: Def Usize,
        query: Req Series,
    }
    PushPoints "push_points" { stream_id: Req U64, points: Req Series }
    Subscribe "subscribe" { stream_id: Req U64 }
    CloseStream "close_stream" { stream_id: Req U64 }
}}

// A success reply's shape is named by a marker key in its `result`: a
// field of its own, or a constant `true` written first.
wire_table! { ResponseBody {
    Pong "pong" = true {}
    MetricsText "text" { 0 as text: Req Str }
    DatasetUploaded "dataset_id" {
        dataset_id: Req Str,
        version: Req U64,
        count: Req Usize,
        bytes: Req U64,
    }
    Datasets "datasets" { items as datasets: Req List<DatasetSummary> }
    Dropped "dropped" { count as dropped: Req Usize }
    StreamEvent "event" { 0 as event: Req StreamEventBody }
    Subscribed "subscribed" = true { stream_id: Req U64, epoch: Req U64, warm: Def Bool }
    StreamClosed "closed" = true { stream_id: Req U64, pushed: Req U64 }
    StreamOpened "burn_in" { stream_id: Req U64, shard: Req U32, burn_in: Req U64 }
    PointsPushed "accepted" { stream_id: Req U64, accepted: Req U64, epoch: Req U64 }
    Distance "value" { value: Req F64 }
    Batch "values" { values: Req Series }
    Knn "label" { label: Req Usize, score: Req F64, nearest_index: Req Usize }
    Search "offset" { offset: Req Usize, distance: Req F64 }
    Error ERROR { code: Req Code, message: Def Str }
}}

wire_table! { StreamEventState {
    Warming "warming" { seen: Req U64, burn_in: Req U64 }
    Ready "ready" {
        mean: Req F64,
        std_dev: Req F64,
        decision: Req Str,
        bound: Req F64,
        threshold: Req Threshold,
        motif: Opt MatchRecord,
        discord: Opt MatchRecord,
    }
}}

/// The request rules no single field codec can check.
fn check_request(req: &Request) -> Result<(), ProtocolError> {
    match req {
        Request::OpenStream {
            threshold: Some(t), ..
        } if !(t.is_finite() && *t > 0.0) => Err(ProtocolError::InvalidParameter(
            "a stream threshold must be finite and positive".into(),
        )),
        Request::Batch {
            dataset: Some(_),
            query: None,
            ..
        } => Err(schema("a batch over a dataset needs a query series".into())),
        _ => Ok(()),
    }
}

const ID: &str = "id";
const OK: &str = "ok";
const RESULT: &str = "result";
const ERROR: &str = "error";
const BACKEND: &str = "backend";

/// Decodes a request envelope from a frame payload.
///
/// # Errors
///
/// [`ProtocolError::Json`] for malformed JSON, [`ProtocolError::Schema`]
/// for structurally invalid messages and
/// [`ProtocolError::InvalidParameter`] for out-of-domain values; with
/// several faults, the first in wire order is reported. Never panics,
/// whatever the payload.
pub fn decode_request(payload: &[u8]) -> Result<Envelope, ProtocolError> {
    let env = Envelope::from_json(&Json::parse(payload)?, "request")?;
    check_request(&env.req)?;
    Ok(env)
}

/// Encodes a request envelope to a frame payload.
pub fn encode_request(env: &Envelope) -> Vec<u8> {
    Envelope::to_json(env).to_string().into_bytes()
}

/// Encodes a reply to a frame payload.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut out = Obj::new();
    U64::put(ID, &reply.id, &mut out);
    let ok = !matches!(reply.body, ResponseBody::Error { .. });
    Bool::put(OK, &ok, &mut out);
    let mut body = Obj::new();
    reply.body.put_fields(&mut body);
    out.push((if ok { RESULT } else { ERROR }.into(), Json::Obj(body)));
    <Opt as Presence<Route>>::put(BACKEND, &reply.route, &mut out);
    Json::Obj(out).to_string().into_bytes()
}

/// Decodes a reply from a frame payload. An error reply carries its body
/// under `error`; a success reply's shape is named by the first marker key
/// its `result` holds (see the reply table), so the caller matches on
/// [`ResponseBody`].
///
/// # Errors
///
/// [`ProtocolError::Json`] / [`ProtocolError::Schema`], naming the
/// missing or mistyped key; never panics.
pub fn decode_reply(payload: &[u8]) -> Result<Reply, ProtocolError> {
    let v = Json::parse(payload)?;
    let id = <Req as Presence<U64>>::get(&v, ID)?;
    let ok = <Req as Presence<Bool>>::get(&v, OK)?;
    let route = <Opt as Presence<Route>>::get(&v, BACKEND)?;
    let key = if ok { RESULT } else { ERROR };
    let obj = v
        .get(key)
        .ok_or_else(|| schema(format!("`{key}` is missing")))?;
    let name = ResponseBody::NAMES
        .iter()
        .find(|m| (**m == ERROR) != ok && (!ok || obj.get(m).is_some()))
        .ok_or_else(|| schema(format!("`{key}` has no known shape")))?;
    let body = ResponseBody::get_fields(name, obj)?;
    Ok(Reply { id, body, route })
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
