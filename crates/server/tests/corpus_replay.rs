//! Fuzz-regression corpus replay.
//!
//! The malformed/truncated/oversized inputs that the PR-3 property tests
//! explored randomly are checked in here as fixed fixtures under
//! `tests/corpus/`, so every past failure shape is replayed deterministically
//! on every run — no generator schedule or seed involved.
//!
//! Two layers are exercised:
//!
//! * **codec**: each fixture is fed to `read_frame`/`decode_request` (or,
//!   for the reply fixtures, `decode_reply`) directly and must produce
//!   exactly the expected typed outcome — never a panic, never a silent
//!   success for a malformed input;
//! * **live server**: each fixture's raw bytes are thrown at a running
//!   server socket; whatever happens on that connection, the server must
//!   keep answering fresh connections.

use std::io::{Cursor, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use mda_server::client::Client;
use mda_server::protocol::{
    decode_reply, decode_request, read_frame, write_frame, ProtocolError, DEFAULT_MAX_FRAME_BYTES,
};
use mda_server::{Server, ServerConfig};

/// Expected codec outcome for one corpus entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// `read_frame` reports the announced payload exceeds the cap.
    FrameTooLarge,
    /// `read_frame` hits an unexpected EOF mid-header or mid-payload.
    TruncatedIo,
    /// `read_frame` reports a clean end-of-stream between frames.
    CleanEof,
    /// The frame layer yields a payload that `decode_request` rejects.
    DecodeError,
    /// The payload is structurally sound but a field's *value* is outside
    /// its domain (negative or non-finite SLA tolerance, unknown accuracy
    /// name): rejected as `ProtocolError::InvalidParameter`, which the live
    /// server answers with a typed `invalid_parameter` reply.
    InvalidParameter,
    /// The payload decodes; the request is handled (possibly to an
    /// in-band error or a degenerate value) without crashing anything.
    DecodeOk,
}

/// A frame-level fixture: raw bytes as they would arrive on the socket.
const FRAME_CORPUS: &[(&str, &[u8], Expect)] = &[
    (
        "frame_truncated_header",
        include_bytes!("corpus/frame_truncated_header.bin"),
        Expect::TruncatedIo,
    ),
    (
        "frame_truncated_payload",
        include_bytes!("corpus/frame_truncated_payload.bin"),
        Expect::TruncatedIo,
    ),
    (
        "frame_oversized",
        include_bytes!("corpus/frame_oversized.bin"),
        Expect::FrameTooLarge,
    ),
    (
        "frame_empty",
        include_bytes!("corpus/frame_empty.bin"),
        Expect::CleanEof,
    ),
    (
        "frame_zero_length",
        include_bytes!("corpus/frame_zero_length.bin"),
        Expect::DecodeError,
    ),
];

/// A payload-level fixture: bytes inside a well-formed frame.
const PAYLOAD_CORPUS: &[(&str, &[u8], Expect)] = &[
    (
        "payload_invalid_utf8",
        include_bytes!("corpus/payload_invalid_utf8.bin"),
        Expect::DecodeError,
    ),
    (
        "payload_not_json",
        include_bytes!("corpus/payload_not_json.json"),
        Expect::DecodeError,
    ),
    (
        "payload_missing_id",
        include_bytes!("corpus/payload_missing_id.json"),
        Expect::DecodeError,
    ),
    (
        "payload_missing_op",
        include_bytes!("corpus/payload_missing_op.json"),
        Expect::DecodeError,
    ),
    (
        "payload_unknown_op",
        include_bytes!("corpus/payload_unknown_op.json"),
        Expect::DecodeError,
    ),
    (
        "payload_bad_kind",
        include_bytes!("corpus/payload_bad_kind.json"),
        Expect::DecodeError,
    ),
    (
        "payload_bool_series",
        include_bytes!("corpus/payload_bool_series.json"),
        Expect::DecodeError,
    ),
    (
        "payload_knn_k_zero",
        include_bytes!("corpus/payload_knn_k_zero.json"),
        Expect::DecodeError,
    ),
    (
        "payload_search_window_zero",
        include_bytes!("corpus/payload_search_window_zero.json"),
        Expect::DecodeError,
    ),
    (
        "payload_fractional_id",
        include_bytes!("corpus/payload_fractional_id.json"),
        Expect::DecodeError,
    ),
    (
        "payload_deep_nesting",
        include_bytes!("corpus/payload_deep_nesting.json"),
        Expect::DecodeError,
    ),
    (
        "payload_upload_dataset_empty_name",
        include_bytes!("corpus/payload_upload_dataset_empty_name.json"),
        Expect::DecodeError,
    ),
    (
        "payload_upload_dataset_bad_entries",
        include_bytes!("corpus/payload_upload_dataset_bad_entries.json"),
        Expect::DecodeError,
    ),
    (
        "payload_knn_train_and_dataset",
        include_bytes!("corpus/payload_knn_train_and_dataset.json"),
        Expect::DecodeError,
    ),
    (
        "payload_search_dataset_version_no_name",
        include_bytes!("corpus/payload_search_dataset_version_no_name.json"),
        Expect::DecodeError,
    ),
    // Accuracy-SLA domain violations: structurally valid JSON whose ε is
    // outside the SLA's domain (or whose name is unknown) must be refused
    // as `invalid_parameter`, never silently clamped or treated as exact.
    (
        "payload_accuracy_negative_tolerance",
        include_bytes!("corpus/payload_accuracy_negative_tolerance.json"),
        Expect::InvalidParameter,
    ),
    (
        "payload_accuracy_infinite_tolerance",
        include_bytes!("corpus/payload_accuracy_infinite_tolerance.json"),
        Expect::InvalidParameter,
    ),
    (
        "payload_accuracy_unknown_name",
        include_bytes!("corpus/payload_accuracy_unknown_name.json"),
        Expect::InvalidParameter,
    ),
    // Structural accuracy breakage stays a schema error, not a domain one.
    (
        "payload_accuracy_bool",
        include_bytes!("corpus/payload_accuracy_bool.json"),
        Expect::DecodeError,
    ),
    (
        "payload_accuracy_object_missing_tolerance",
        include_bytes!("corpus/payload_accuracy_object_missing_tolerance.json"),
        Expect::DecodeError,
    ),
    // Decodes fine — the id simply names no resident dataset. The live
    // server answers a typed `not_found` in-band and keeps the connection.
    (
        "payload_knn_dataset_missing",
        include_bytes!("corpus/payload_knn_dataset_missing.json"),
        Expect::DecodeOk,
    ),
    // `1e999` overflows to `inf`, which the codec accepts as a number; the
    // engine then computes an infinite distance, which has no JSON form, so
    // the server answers a typed `bad_request` — pinned here so any change
    // in that behavior is a conscious one.
    (
        "payload_huge_exponent",
        include_bytes!("corpus/payload_huge_exponent.json"),
        Expect::DecodeOk,
    ),
    // Push-mode stream verbs. Structural breakage is a schema error …
    (
        "payload_push_points_missing_stream",
        include_bytes!("corpus/payload_push_points_missing_stream.json"),
        Expect::DecodeError,
    ),
    (
        "payload_push_points_bool_points",
        include_bytes!("corpus/payload_push_points_bool_points.json"),
        Expect::DecodeError,
    ),
    (
        "payload_open_stream_window_zero",
        include_bytes!("corpus/payload_open_stream_window_zero.json"),
        Expect::DecodeError,
    ),
    // … a threshold outside its domain is a typed in-band
    // `invalid_parameter` …
    (
        "payload_open_stream_negative_threshold",
        include_bytes!("corpus/payload_open_stream_negative_threshold.json"),
        Expect::InvalidParameter,
    ),
    // … and well-formed verbs naming a stream that does not exist decode
    // fine; the live server answers a typed `not_found` and keeps the
    // connection (pinned in `stream_misuse_answers_typed_in_band`).
    (
        "payload_push_points_unknown_stream",
        include_bytes!("corpus/payload_push_points_unknown_stream.json"),
        Expect::DecodeOk,
    ),
    (
        "payload_subscribe_unknown_stream",
        include_bytes!("corpus/payload_subscribe_unknown_stream.json"),
        Expect::DecodeOk,
    ),
];

/// A reply-level fixture a client may receive, and the key its typed
/// `Schema` error must name.
const REPLY_CORPUS: &[(&str, &[u8], &str)] = &[
    // The pre-fix wire form of an overflowed distance.
    (
        "reply_value_null",
        include_bytes!("corpus/reply_value_null.json"),
        "value",
    ),
    (
        "reply_knn_missing_score",
        include_bytes!("corpus/reply_knn_missing_score.json"),
        "score",
    ),
    (
        "reply_unknown_error_code",
        include_bytes!("corpus/reply_unknown_error_code.json"),
        "code",
    ),
    (
        "reply_ok_not_bool",
        include_bytes!("corpus/reply_ok_not_bool.json"),
        "ok",
    ),
    (
        "reply_backend_without_bound",
        include_bytes!("corpus/reply_backend_without_bound.json"),
        "bound",
    ),
];

/// Runs one frame-level fixture through `read_frame` (+ `decode_request`
/// when a payload comes out) and classifies the outcome.
fn classify_frame(bytes: &[u8]) -> Expect {
    let mut cursor = Cursor::new(bytes);
    match read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES) {
        Ok(payload) => classify_payload(&payload),
        Err(e) if e.is_clean_eof() => Expect::CleanEof,
        Err(ProtocolError::FrameTooLarge { .. }) => Expect::FrameTooLarge,
        Err(ProtocolError::Io(_)) => Expect::TruncatedIo,
        Err(_) => Expect::DecodeError,
    }
}

fn classify_payload(payload: &[u8]) -> Expect {
    match decode_request(payload) {
        Ok(_) => Expect::DecodeOk,
        Err(ProtocolError::Json(_) | ProtocolError::Schema(_)) => Expect::DecodeError,
        Err(ProtocolError::InvalidParameter(_)) => Expect::InvalidParameter,
        Err(e) => panic!("payload decode must fail as Json/Schema/InvalidParameter, got {e:?}"),
    }
}

#[test]
fn frame_corpus_replays_to_expected_typed_outcomes() {
    for (name, bytes, expect) in FRAME_CORPUS {
        let got = classify_frame(bytes);
        assert_eq!(got, *expect, "fixture {name}");
    }
}

#[test]
fn payload_corpus_replays_to_expected_typed_outcomes() {
    for (name, bytes, expect) in PAYLOAD_CORPUS {
        let got = classify_payload(bytes);
        assert_eq!(got, *expect, "fixture {name}");
    }
}

#[test]
fn reply_corpus_decodes_to_schema_errors_naming_the_key() {
    for (name, bytes, key) in REPLY_CORPUS {
        match decode_reply(bytes) {
            Err(ProtocolError::Schema(message)) => assert!(
                message.contains(&format!("`{key}`")),
                "fixture {name}: {message}"
            ),
            other => panic!("fixture {name}: expected a schema error, got {other:?}"),
        }
    }
}

/// Every fixture, thrown raw at a live server: the connection may die, but
/// the server must answer a fresh ping afterwards — a malformed client can
/// never take the service down.
#[test]
fn live_server_survives_entire_corpus() {
    let server = Server::start(ServerConfig::default()).expect("server start");
    let addr = server.local_addr();

    let attack = |name: &str, raw: &[u8]| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        // The server may close the socket mid-write; that is a valid
        // defensive response, not a test failure.
        let _ = stream.write_all(raw);
        let _ = stream.flush();
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
        drop(stream);

        let mut probe = Client::connect(addr).expect("fresh connection");
        probe.ping().unwrap_or_else(|e| {
            panic!("server unresponsive after fixture {name}: {e}");
        });
    };

    for (name, bytes, _) in FRAME_CORPUS {
        attack(name, bytes);
    }
    for (name, bytes, _) in PAYLOAD_CORPUS {
        let mut framed = Vec::new();
        write_frame(&mut framed, bytes).expect("frame fixture payload");
        attack(name, &framed);
    }

    server.shutdown_and_join();
}

/// Domain-violating accuracy payloads must come back as an **in-band**
/// typed `invalid_parameter` reply — the connection stays open and usable,
/// unlike structural garbage which may drop it.
#[test]
fn invalid_accuracy_payloads_answer_typed_invalid_parameter() {
    use mda_server::protocol::decode_reply;
    use mda_server::{ErrorCode, ResponseBody};

    let server = Server::start(ServerConfig::default()).expect("server start");
    let addr = server.local_addr();

    for (name, bytes, expect) in PAYLOAD_CORPUS {
        if *expect != Expect::InvalidParameter {
            continue;
        }
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut framed = Vec::new();
        write_frame(&mut framed, bytes).expect("frame fixture payload");
        stream.write_all(&framed).expect("send fixture");
        stream.flush().expect("flush fixture");
        let reply_bytes =
            read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES).expect("in-band reply frame");
        let reply = decode_reply(&reply_bytes).expect("typed reply");
        match reply.body {
            ResponseBody::Error { code, .. } => {
                assert_eq!(code, ErrorCode::InvalidParameter, "fixture {name}");
            }
            other => panic!("fixture {name}: expected in-band error, got {other:?}"),
        }
        // Same connection, healthy follow-up: the refusal was per-request.
        let probe = br#"{"id":2,"op":"ping"}"#;
        let mut framed = Vec::new();
        write_frame(&mut framed, probe).expect("frame ping");
        stream.write_all(&framed).expect("send ping");
        stream.flush().expect("flush ping");
        let pong = read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES).expect("pong frame");
        let pong = decode_reply(&pong).expect("pong reply");
        assert!(
            matches!(pong.body, ResponseBody::Pong),
            "fixture {name}: connection unusable after invalid_parameter"
        );
    }

    server.shutdown_and_join();
}

/// Stream-verb misuse on a live server: every failure is a typed in-band
/// reply and the connection keeps serving — pushing to an unknown or
/// already-closed stream answers `not_found`, subscribing before burn-in
/// succeeds with `warm: false`, and a non-finite push answers
/// `invalid_parameter` without mutating the stream.
#[test]
fn stream_misuse_answers_typed_in_band() {
    use mda_server::{ErrorCode, ResponseBody};

    let server = Server::start(ServerConfig::default()).expect("server start");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Unknown stream: typed not_found, connection survives.
    match client.push_points(424_242, &[1.0]) {
        Err(mda_server::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::NotFound);
        }
        other => panic!("push to unknown stream: expected not_found, got {other:?}"),
    }
    match client.subscribe(31_337) {
        Err(mda_server::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::NotFound);
        }
        other => panic!("subscribe to unknown stream: expected not_found, got {other:?}"),
    }
    client.ping().expect("connection must survive not_found");

    // Subscribe before burn-in: a valid, cold subscription.
    let opened = client
        .open_stream(8, 1, &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], None)
        .expect("open stream");
    assert_eq!(opened.burn_in, 8);
    let sub = client.subscribe(opened.stream_id).expect("cold subscribe");
    assert!(!sub.warm, "no points pushed yet");
    assert_eq!(sub.epoch, 0);

    // Malformed push (JSON cannot carry NaN; a `null` point is the wire
    // equivalent): typed in-band schema error on a raw second connection,
    // which keeps serving — and the stream's epoch is untouched.
    client.push_points(opened.stream_id, &[1.0, 2.0]).unwrap();
    {
        use mda_server::protocol::decode_reply;
        let mut raw = TcpStream::connect(server.local_addr()).expect("raw connect");
        let payload = format!(
            r#"{{"id":5,"op":"push_points","stream_id":{},"points":[3.0,null]}}"#,
            opened.stream_id
        );
        let mut framed = Vec::new();
        write_frame(&mut framed, payload.as_bytes()).expect("frame payload");
        raw.write_all(&framed).expect("send malformed push");
        raw.flush().expect("flush");
        let reply_bytes = read_frame(&mut raw, DEFAULT_MAX_FRAME_BYTES).expect("in-band reply");
        let reply = decode_reply(&reply_bytes).expect("typed reply");
        assert!(
            matches!(reply.body, ResponseBody::Error { .. }),
            "malformed push must answer an in-band error, got {:?}",
            reply.body
        );
        let mut framed = Vec::new();
        write_frame(&mut framed, br#"{"id":6,"op":"ping"}"#).expect("frame ping");
        raw.write_all(&framed).expect("send ping");
        raw.flush().expect("flush ping");
        let pong = read_frame(&mut raw, DEFAULT_MAX_FRAME_BYTES).expect("pong frame");
        let pong = decode_reply(&pong).expect("pong reply");
        assert!(
            matches!(pong.body, ResponseBody::Pong),
            "connection unusable after malformed push"
        );
    }
    let pushed = client.push_points(opened.stream_id, &[4.0]).expect("push");
    assert_eq!(pushed.epoch, 3, "rejected batch must not advance the epoch");

    // Closed stream: subsequent verbs answer not_found; connection lives.
    let lifetime = client.close_stream(opened.stream_id).expect("close");
    assert_eq!(lifetime, 3);
    match client.push_points(opened.stream_id, &[5.0]) {
        Err(mda_server::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::NotFound);
        }
        other => panic!("push to closed stream: expected not_found, got {other:?}"),
    }
    match client.close_stream(opened.stream_id) {
        Err(mda_server::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::NotFound);
        }
        other => panic!("double close: expected not_found, got {other:?}"),
    }
    client
        .ping()
        .expect("connection must survive the whole gauntlet");

    server.shutdown_and_join();
}
