//! The streaming layers' ledger, run inside `serve_mix`'s traced pass.
//!
//! A stream (window 256, band 12, match threshold 250) is opened on the
//! running server and fed [`LEDGER_CHUNKS`] 64-point pushes from a seeded
//! source, one at a time, each with all of its events read and checked.
//! Then the server's own `push_points` time is scraped from `/metrics`, and
//! the same points are replayed in-process through `StreamPipeline::push`
//! and `StreamRegistry::push`.
//!
//! There is no stream workload: pushes beside queries on one event loop
//! could not be measured steadily on a 2-core virtual host (see README).

use std::time::Instant;

use mda_distance::lower_bounds::PruneDecision;
use mda_server::protocol::{MatchRecord, Request, ResponseBody, StreamEventBody, StreamEventState};
use mda_server::{Server, StreamRegistry};
use mda_streaming::ops::{certified_bound, BestMatch, Value};
use mda_streaming::{PushResult, StreamConfig, StreamPipeline};

use crate::gen::StreamSource;
use crate::ledger::Acc;
use crate::report::Report;
use crate::scrape;
use crate::wire::{us, Conn};

const WINDOW: usize = 256;
const BAND: usize = 12;
const CHUNK: usize = 64;
/// Below the best match a stream of this source typically reaches, so the
/// cascade prunes against a fixed bound and every push costs about the same.
const MATCH_THRESHOLD: f64 = 250.0;
/// Pushes sent to the server; the replays cover the same points.
const LEDGER_CHUNKS: usize = 1000;

/// The points the ledger pushed, and what the server said about the last.
struct Pushed {
    points: u64,
    last_event: Option<StreamEventBody>,
}

pub fn ledger(server: &Server, seed: u64, report: &mut Report) {
    let config = StreamConfig {
        window: WINDOW,
        band: BAND,
        query: StreamSource::new(seed, 4).take(WINDOW),
        threshold: Some(MATCH_THRESHOLD),
    };
    let pushed = push_all(server, &config, seed, report);
    let text = scrape::fetch(server.local_addr()).expect("fetch /metrics");
    report.set(
        "server.stream_push_us_mean",
        scrape::value(&text, "mda_stream_push_us_mean", None).unwrap_or(0.0),
    );
    check_final_state(&config, seed, &pushed, report);
    registry_replay(&config, seed, report);
}

/// Opens and subscribes to a stream, then pushes [`LEDGER_CHUNKS`] chunks,
/// checking that each reply and each of its events carries the next epoch.
fn push_all(server: &Server, config: &StreamConfig, seed: u64, report: &mut Report) -> Pushed {
    let mut conn = Conn::open(server.local_addr());
    let opened = conn.call(Request::OpenStream {
        window: config.window,
        band: config.band,
        query: config.query.clone(),
        threshold: config.threshold,
    });
    let ResponseBody::StreamOpened { stream_id, .. } = opened.body else {
        panic!("open_stream refused: {opened:?}");
    };
    let subscribed = conn.call(Request::Subscribe { stream_id });
    report.check(matches!(
        subscribed.body,
        ResponseBody::Subscribed { epoch: 0, .. }
    ));
    let mut source = StreamSource::new(seed, 5);
    let mut epoch = 0;
    let mut last_event = None;
    for _ in 0..LEDGER_CHUNKS {
        let reply = conn.call(Request::PushPoints {
            stream_id,
            points: source.take(CHUNK),
        });
        epoch += CHUNK as u64;
        report.check(
            reply.body
                == ResponseBody::PointsPushed {
                    stream_id,
                    accepted: CHUNK as u64,
                    epoch,
                },
        );
        for due in epoch - CHUNK as u64 + 1..=epoch {
            let event = conn.next_reply();
            let ok = matches!(&event.body, ResponseBody::StreamEvent(body)
                if body.stream_id == stream_id && body.epoch == due);
            if !ok {
                eprintln!("stream ledger: epoch {due} was due, got {event:?}");
            }
            report.check(ok);
            if let ResponseBody::StreamEvent(body) = event.body {
                last_event = Some(body);
            }
        }
    }
    Pushed {
        points: epoch,
        last_event,
    }
}

/// The last event the server sent must equal, bitwise, what an in-process
/// `StreamPipeline` reports after the same points; the replay's time per
/// point is `streaming.push_us`.
fn check_final_state(config: &StreamConfig, seed: u64, pushed: &Pushed, report: &mut Report) {
    let mut pipeline = StreamPipeline::new(config.clone()).expect("valid stream config");
    let mut source = StreamSource::new(seed, 5);
    let t0 = Instant::now();
    let mut last = None;
    for _ in 0..pushed.points {
        last = Some(pipeline.push(source.next_point()).expect("finite point"));
    }
    report.set("streaming.push_us", us(t0.elapsed()) / pushed.points as f64);
    let want = last.map(|r| expected_state(&r));
    let got = pushed.last_event.as_ref().map(|e| &e.state);
    if got != want.as_ref() {
        eprintln!("stream ledger: final state {got:?}, in-process {want:?}");
    }
    report.check(got.is_some() && got == want.as_ref());
}

fn expected_state(r: &PushResult) -> StreamEventState {
    let (Some(Value::Stats(sf)), Some(Value::Match(mf)), Some(Value::Track(tf))) =
        (r.stats.value(), r.matcher.value(), r.tracker.value())
    else {
        panic!("the stream is past burn-in after the ledger's pushes");
    };
    let record = |b: BestMatch| MatchRecord {
        epoch: b.epoch,
        distance: b.distance,
    };
    StreamEventState::Ready {
        mean: sf.mean,
        std_dev: sf.std_dev,
        decision: match mf.decision {
            PruneDecision::PrunedByKim(_) => "pruned_kim",
            PruneDecision::PrunedByKeogh(_) => "pruned_keogh",
            PruneDecision::AbandonedEarly => "abandoned",
            PruneDecision::Computed(_) => "computed",
        }
        .to_string(),
        bound: certified_bound(mf.decision, mf.threshold),
        threshold: mf.threshold,
        motif: tf.motif.map(record),
        discord: tf.discord.map(record),
    }
}

/// The server's stream registry, replayed in-process with one subscriber
/// over the same chunks: `streams.registry_push_us` per chunk.
fn registry_replay(config: &StreamConfig, seed: u64, report: &mut Report) {
    let mut registry = StreamRegistry::new(1);
    let stream_id = registry
        .open(config.clone())
        .expect("valid stream config")
        .stream_id;
    registry.subscribe(stream_id, 1, 1).expect("open stream");
    let mut source = StreamSource::new(seed, 5);
    let mut per_chunk = Acc::default();
    for _ in 0..LEDGER_CHUNKS {
        let chunk = source.take(CHUNK);
        let t0 = Instant::now();
        let out = registry.push(stream_id, &chunk).expect("push a chunk");
        per_chunk.add(us(t0.elapsed()));
        report.check(out.events.len() == CHUNK);
    }
    report.set("streams.registry_push_us", per_chunk.mean());
}
