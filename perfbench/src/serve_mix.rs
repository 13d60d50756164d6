//! `serve_mix`: the in-process server on loopback, driven closed-loop by
//! two connections that each keep [`DEPTH`] pipelined requests in flight.
//!
//! Traffic: `distance` over all six kinds at lengths 8/32/128 drawn from a
//! seeded random walk; one request in 8 carries a tolerance SLA (so the
//! router sends it to the analog fabric or the aCAM plane), one in 16 is a
//! resident `knn` (k = 3) against a corpus uploaded during set-up. Here the
//! codec, event loop and queue do most of the work and the kernel little.
//!
//! Tolerance-tagged requests are all length 8. The analog fabric is a
//! behavioural simulation whose host cost grows steeply with length (one
//! DTW costs about 0.6 ms at length 8, 30 ms at 32 and 1.7 s at 128 on a
//! 2-core x86-64 host); longer tolerance requests would make the run time
//! the simulator's and swing with how many of them a run happens to draw.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mda_distance::mining::KnnClassifier;
use mda_distance::{boxed_distance, BatchEngine, DistanceKind, DpScratch};
use mda_routing::{
    default_backends, evaluate_routed, BackendId, PairRequest, Router, RouterConfig, Sla,
};
use mda_server::exec::{decompose, execute_item_routed, WorkItem};
use mda_server::protocol::{
    decode_reply, decode_request, encode_reply, encode_request, DatasetEntry, DatasetRef, Envelope,
    Reply, Request, ResponseBody,
};
use mda_server::{Client, Server, ServerConfig};

use crate::gen::{random_walk, scaled_slice, Rng};
use crate::ledger::{residual, Acc};
use crate::report::{PassNumbers, Report};
use crate::stats::Slices;
use crate::wire::{us, Conn};
use crate::{scrape, streams, timed_setup, Args};

/// Series lengths of `distance` requests, one length class each.
const LENGTHS: [usize; 3] = [8, 32, 128];
/// Resident kNN corpus: this many labelled series of length 32.
const CORPUS_SIZE: usize = 32;
const CORPUS_LEN: usize = 32;
const CORPUS_LABELS: usize = 4;
const CORPUS_NAME: &str = "serve_mix_corpus";
const KNN_K: usize = 3;
/// Client connections, one thread each (the host has two cores).
const CONNS: usize = 2;
/// Pipelined requests each connection keeps in flight.
const DEPTH: usize = 16;
/// One block of the traffic mix, with exact shares: per kind, 13 exact
/// `distance` requests at each length, 6 tolerance-tagged ones and 3 `knn`.
/// Every pool is whole blocks, so only the order and the series differ
/// between seeds, never the mix.
const BLOCK_EXACT_PER_LEN: usize = 13;
const BLOCK_TOLERANT: usize = 6;
const BLOCK_KNN: usize = 3;
const BLOCK: usize =
    DistanceKind::ALL.len() * (LENGTHS.len() * BLOCK_EXACT_PER_LEN + BLOCK_TOLERANT + BLOCK_KNN);
/// Distinct requests per connection; the stream cycles through them.
const POOL: usize = 4 * BLOCK;
/// Closed-loop warm-up before each timed pass.
const WARMUP: Duration = Duration::from_millis(300);
/// Pass figures are medians over slices of this length.
const SLICE_S: f64 = 1.0;
/// Largest magnitude of a generated series: inside the accelerator's
/// ±6.25-unit DAC range, so tolerance requests run on the analog paths.
const PEAK: f64 = 3.0;

/// One pooled request and what it costs.
struct Item {
    env: Envelope,
    /// Index into [`LENGTHS`].
    class: usize,
    /// Series points the request carries.
    points: u64,
    /// Distance windows (pairs) it asks for.
    windows: u64,
}

struct Inputs {
    corpus: Vec<DatasetEntry>,
    pools: Vec<Vec<Item>>,
}

/// What one slot of a block holds.
#[derive(Clone, Copy)]
enum Slot {
    Exact(DistanceKind, usize),
    Tolerant(DistanceKind),
    Knn(DistanceKind),
}

fn block() -> Vec<Slot> {
    let mut slots = Vec::with_capacity(BLOCK);
    for kind in DistanceKind::ALL {
        for class in 0..LENGTHS.len() {
            slots.extend([Slot::Exact(kind, class); BLOCK_EXACT_PER_LEN]);
        }
        slots.extend([Slot::Tolerant(kind); BLOCK_TOLERANT]);
        slots.extend([Slot::Knn(kind); BLOCK_KNN]);
    }
    slots
}

fn generate(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 1);
    let walk = random_walk(&mut rng, 1 << 16);
    let corpus: Vec<DatasetEntry> = (0..CORPUS_SIZE)
        .map(|_| DatasetEntry {
            label: rng.below(CORPUS_LABELS),
            series: scaled_slice(&mut rng, &walk, CORPUS_LEN, PEAK),
        })
        .collect();
    let analog = default_backends().get(BackendId::Analog);
    let ceiling = default_backends().analog().ceiling();
    let distance = |rng: &mut Rng, kind, class: usize, accuracy| {
        let len = LENGTHS[class];
        Item {
            points: 2 * len as u64,
            windows: 1,
            class,
            env: Envelope {
                id: 0,
                req: Request::Distance {
                    kind,
                    p: scaled_slice(rng, &walk, len, PEAK),
                    q: scaled_slice(rng, &walk, len, PEAK),
                    threshold: None,
                    band: None,
                    deadline_ms: None,
                    accuracy,
                },
            },
        }
    };
    let pools = (0..CONNS)
        .map(|_| {
            let mut slots: Vec<Slot> = (0..POOL / BLOCK).flat_map(|_| block()).collect();
            for i in (1..slots.len()).rev() {
                slots.swap(i, rng.below(i + 1));
            }
            slots
                .into_iter()
                .map(|slot| match slot {
                    Slot::Exact(kind, class) => distance(&mut rng, kind, class, None),
                    Slot::Tolerant(kind) => {
                        // The loosest tolerance the analog fabric provably meets.
                        let sla = Sla::tolerance(analog.bound(kind, LENGTHS[0]).margin(ceiling))
                            .expect("calibrated margins are finite");
                        distance(&mut rng, kind, 0, Some(sla))
                    }
                    Slot::Knn(kind) => {
                        let query = scaled_slice(&mut rng, &walk, CORPUS_LEN, PEAK);
                        Item {
                            points: query.len() as u64,
                            windows: CORPUS_SIZE as u64,
                            class: 1,
                            env: Envelope {
                                id: 0,
                                req: Request::Knn {
                                    kind,
                                    k: KNN_K,
                                    query,
                                    train: Vec::new(),
                                    dataset: Some(DatasetRef::by_name(CORPUS_NAME)),
                                    threshold: None,
                                    band: None,
                                    deadline_ms: None,
                                    accuracy: None,
                                },
                            },
                        }
                    }
                })
                .collect()
        })
        .collect();
    Inputs { corpus, pools }
}

fn setup(seed: u64) -> (Server, Inputs) {
    let inputs = generate(seed);
    let server = Server::start(ServerConfig::default()).expect("start in-process server");
    let mut client = Client::connect(server.local_addr()).expect("connect set-up client");
    client
        .upload_dataset(CORPUS_NAME, &inputs.corpus)
        .expect("upload the kNN corpus");
    (server, inputs)
}

/// What a pooled request must be answered with, computed by direct library
/// calls before any timed pass.
enum Expected {
    /// Bitwise this value, with no routing report.
    Exact(f64),
    /// Bitwise this classification.
    Knn {
        label: usize,
        score: f64,
        nearest_index: usize,
    },
    /// Within `epsilon` of `exact`, with a routing report; bitwise `routed`
    /// when `backend` answered (the router's pick on an idle fleet).
    Tolerant {
        exact: f64,
        epsilon: f64,
        backend: BackendId,
        routed: f64,
    },
}

fn oracle(inputs: &Inputs) -> Vec<Vec<Expected>> {
    let router = Router::new(RouterConfig {
        fleet_power_w: ServerConfig::default().fleet_power_w,
    });
    let mut scratch = DpScratch::new();
    inputs
        .pools
        .iter()
        .map(|pool| {
            pool.iter()
                .map(|item| match &item.env.req {
                    Request::Distance {
                        kind,
                        p,
                        q,
                        accuracy,
                        ..
                    } => {
                        let exact = boxed_distance(*kind)
                            .evaluate(p, q)
                            .expect("well-shaped pair");
                        match accuracy {
                            None => Expected::Exact(exact),
                            Some(sla) => {
                                let backend = router.route_pair(*kind, p.len(), *sla).backend;
                                Expected::Tolerant {
                                    exact,
                                    epsilon: sla.epsilon(),
                                    backend,
                                    routed: routed_value(backend, *kind, p, q, &mut scratch),
                                }
                            }
                        }
                    }
                    Request::Knn { kind, k, query, .. } => {
                        let mut knn = KnnClassifier::new(boxed_distance(*kind), *k)
                            .with_engine(BatchEngine::serial());
                        knn.fit_all(inputs.corpus.iter().map(|e| (e.label, e.series.clone())));
                        let c = knn.classify(query).expect("classify against the corpus");
                        Expected::Knn {
                            label: c.label,
                            score: c.score,
                            nearest_index: c.nearest_index,
                        }
                    }
                    other => unreachable!("serve_mix never sends {other:?}"),
                })
                .collect()
        })
        .collect()
}

fn routed_value(
    backend: BackendId,
    kind: DistanceKind,
    p: &[f64],
    q: &[f64],
    scratch: &mut DpScratch,
) -> f64 {
    evaluate_routed(backend, &PairRequest::new(kind), p, q, scratch)
        .expect("well-shaped pair")
        .value
}

/// A reply's verdict. A tolerance request the router sent elsewhere than
/// the oracle assumed (the fleet was busy) is within its SLA but still owes
/// a bitwise check against the backend that answered.
enum Verdict {
    Right,
    Wrong,
    Rerouted(BackendId, f64),
}

fn verdict(expected: &Expected, reply: &Reply) -> Verdict {
    let right = match (expected, &reply.body, reply.route) {
        (Expected::Exact(want), ResponseBody::Distance { value }, None) => {
            value.to_bits() == want.to_bits()
        }
        (
            Expected::Knn {
                label,
                score,
                nearest_index,
            },
            ResponseBody::Knn {
                label: l,
                score: s,
                nearest_index: n,
            },
            None,
        ) => label == l && score.to_bits() == s.to_bits() && nearest_index == n,
        (
            Expected::Tolerant {
                exact,
                epsilon,
                backend,
                routed,
            },
            ResponseBody::Distance { value },
            Some(route),
        ) => {
            if (value - exact).abs() > *epsilon {
                false
            } else if route.backend != *backend {
                return Verdict::Rerouted(route.backend, *value);
            } else {
                value.to_bits() == routed.to_bits()
            }
        }
        _ => false,
    };
    if right {
        Verdict::Right
    } else {
        Verdict::Wrong
    }
}

/// One connection's share of a timed pass.
struct ConnRun {
    log: Slices,
    checked: u64,
    failed: u64,
    /// `(pool index, backend, value)` still owing a bitwise check.
    rerouted: Vec<(usize, BackendId, f64)>,
    /// Client-side spans, recorded only on the traced pass.
    encode: Acc,
    decode: Acc,
}

impl ConnRun {
    fn new(pass: Duration) -> ConnRun {
        ConnRun {
            log: Slices::new(pass.as_secs_f64(), SLICE_S),
            checked: 0,
            failed: 0,
            rerouted: Vec::new(),
            encode: Acc::default(),
            decode: Acc::default(),
        }
    }

    fn judge(&mut self, idx: usize, expected: &Expected, reply: &Reply) {
        self.checked += 1;
        match verdict(expected, reply) {
            Verdict::Right => {}
            Verdict::Rerouted(backend, value) => self.rerouted.push((idx, backend, value)),
            Verdict::Wrong => {
                self.failed += 1;
                eprintln!("serve_mix: request {idx} answered {reply:?}");
            }
        }
    }
}

/// Sends the pool's next request and records it as in flight.
fn send_next(
    conn: &mut Conn,
    pool: &mut [Item],
    cursor: &mut usize,
    inflight: &mut HashMap<u64, (Instant, usize)>,
    encode: Option<&mut Acc>,
) {
    let idx = *cursor % pool.len();
    *cursor += 1;
    let env = &mut pool[idx].env;
    let sent = conn.send(env, encode);
    inflight.insert(env.id, (sent, idx));
}

/// Drives one connection closed-loop at [`DEPTH`] in flight until `until`,
/// then drains, checking every answer as it arrives. Latency runs from a
/// request's write to its reply's arrival.
fn drive(
    conn: &mut Conn,
    pool: &mut [Item],
    expected: &[Expected],
    cursor: &mut usize,
    (start, until): (Instant, Instant),
    traced: bool,
    run: &mut ConnRun,
) {
    let mut inflight = HashMap::with_capacity(2 * DEPTH);
    for _ in 0..DEPTH {
        let encode = traced.then_some(&mut run.encode);
        send_next(conn, pool, cursor, &mut inflight, encode);
    }
    while !inflight.is_empty() {
        let (frame, arrived) = conn.recv();
        let t0 = Instant::now();
        let reply = decode_reply(&frame).expect("decode a reply");
        if traced {
            run.decode.add(us(t0.elapsed()));
        }
        let (sent, idx) = inflight
            .remove(&reply.id)
            .expect("reply id matches a request in flight");
        run.log.record(
            (arrived - start).as_secs_f64(),
            us(arrived - sent),
            pool[idx].points,
            pool[idx].windows,
        );
        run.judge(idx, &expected[idx], &reply);
        if Instant::now() < until {
            let encode = traced.then_some(&mut run.encode);
            send_next(conn, pool, cursor, &mut inflight, encode);
        }
    }
}

/// One timed pass over both connections, after a warm-up on each.
fn timed_pass(
    addr: SocketAddr,
    inputs: &mut Inputs,
    oracle: &[Vec<Expected>],
    duration: Duration,
    traced: bool,
    report: &mut Report,
) -> PassNumbers {
    let barrier = Barrier::new(CONNS);
    let runs: Vec<ConnRun> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .pools
            .iter_mut()
            .zip(oracle)
            .map(|(pool, expected)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut conn = Conn::open(addr);
                    let mut cursor = 0;
                    let mut run = ConnRun::new(duration);
                    let warm = Instant::now();
                    let window = (warm, warm + WARMUP);
                    drive(
                        &mut conn,
                        pool,
                        expected,
                        &mut cursor,
                        window,
                        false,
                        &mut run,
                    );
                    // Keep the warm-up's checks, not its timings.
                    run.log = Slices::new(duration.as_secs_f64(), SLICE_S);
                    barrier.wait();
                    let start = Instant::now();
                    let window = (start, start + duration);
                    drive(
                        &mut conn,
                        pool,
                        expected,
                        &mut cursor,
                        window,
                        traced,
                        &mut run,
                    );
                    if traced {
                        eprintln!(
                            "serve_mix traced pass: client encode {:.2} us, decode {:.2} us \
                             mean over {} requests",
                            run.encode.mean(),
                            run.decode.mean(),
                            run.encode.count()
                        );
                    }
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut scratch = DpScratch::new();
    for (c, run) in runs.iter().enumerate() {
        report.attempted += run.checked;
        report.failed += run.failed;
        for &(idx, backend, value) in &run.rerouted {
            let Request::Distance { kind, p, q, .. } = &inputs.pools[c][idx].env.req else {
                unreachable!("only distances are routed");
            };
            let direct = routed_value(backend, *kind, p, q, &mut scratch);
            if direct.to_bits() != value.to_bits() {
                eprintln!("serve_mix: request {idx} via {backend} answered {value}, not {direct}");
                report.failed += 1;
            }
        }
    }
    let mut slices = runs[0].log.clone();
    for run in &runs[1..] {
        slices.merge(&run.log);
    }
    PassNumbers {
        throughput_rps: slices.rate(),
        latency_p50_us: slices.latency(0.5),
        latency_p99_us: slices.latency(0.99),
        windows_per_s: slices.windows_per_s(),
        points_per_s: slices.points_per_s(),
    }
}

pub fn run(args: &Args) -> Report {
    let ((server, mut inputs), setup_s) = timed_setup(|| setup(args.seed));
    let oracle = oracle(&inputs);
    let addr = server.local_addr();
    let mut report = Report::default();
    report.set("setup_s", setup_s);
    let duration = args.pass_duration();
    let untraced = timed_pass(addr, &mut inputs, &oracle, duration, false, &mut report);
    if args.trace {
        let traced = timed_pass(addr, &mut inputs, &oracle, duration, true, &mut report);
        report.set_overhead(&untraced, &traced);
        scrape_server(addr, &mut report);
        layer_ledger(&server, &mut inputs, &oracle, &mut report);
        streams::ledger(&server, args.seed, &mut report);
    } else {
        report.set_pass(&untraced);
    }
    server.shutdown_and_join();
    report
}

/// The server's own account of the timed passes.
fn scrape_server(addr: SocketAddr, report: &mut Report) {
    let text = scrape::fetch(addr).expect("fetch /metrics");
    let get = |name: &str| scrape::value(&text, name, None).unwrap_or(0.0);
    report.set("server.latency_us_mean", get("mda_latency_us_mean"));
    report.set("queue.wait_us_mean", get("mda_queue_wait_us_mean"));
    report.set("queue.batch_occupancy", get("mda_batch_occupancy_mean"));
    report.set(
        "event_loop.pipeline_depth_mean",
        get("mda_pipeline_depth_mean"),
    );
    report.set("queue.shed", get("mda_shed_total"));
    for backend in BackendId::ALL {
        let label = format!("backend=\"{backend}\"");
        let selected = scrape::value(&text, "mda_backend_selected_total", Some(&label));
        report.set(
            &format!("routing.selected.{backend}"),
            selected.unwrap_or(0.0),
        );
    }
}

/// Per-layer times of one request, replayed serially.
#[derive(Default)]
struct Layers {
    encode: [Acc; 3],
    decode_request: [Acc; 3],
    encode_reply: [Acc; 3],
    decode_reply: [Acc; 3],
    decompose: Acc,
    resolve: Acc,
    route: Acc,
    kernel: Acc,
    kernel_by_backend: HashMap<BackendId, Acc>,
    rtt: Acc,
}

fn timed<T>(acc: &mut Acc, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    acc.add(us(t0.elapsed()));
    out
}

/// Sends every pooled request once, one at a time, timing each round trip
/// from encode to decoded reply; then replays the same requests and replies
/// through each layer's public function. The replayed layers plus the
/// residual add up to the mean sequential round trip.
fn layer_ledger(
    server: &Server,
    inputs: &mut Inputs,
    oracle: &[Vec<Expected>],
    report: &mut Report,
) {
    let mut conn = Conn::open(server.local_addr());
    let mut layers = Layers::default();
    let mut exchanges = Vec::with_capacity(CONNS * POOL);
    for (c, pool) in inputs.pools.iter_mut().enumerate() {
        for (i, item) in pool.iter_mut().enumerate() {
            let t0 = Instant::now();
            conn.send(&mut item.env, None);
            let (frame, _) = conn.recv();
            let reply = decode_reply(&frame).expect("decode a reply");
            layers.rtt.add(us(t0.elapsed()));
            // An idle server has the whole fleet free, so every answer comes
            // from the backend the oracle assumed.
            report.check(matches!(verdict(&oracle[c][i], &reply), Verdict::Right));
            exchanges.push((c, i, frame, reply));
        }
    }

    let store = server.datasets();
    let router = Router::new(RouterConfig {
        fleet_power_w: ServerConfig::default().fleet_power_w,
    });
    let mut scratch = DpScratch::new();
    for (c, i, reply_frame, reply) in &exchanges {
        let item = &inputs.pools[*c][*i];
        let class = item.class;
        let payload = timed(&mut layers.encode[class], || encode_request(&item.env));
        let env = timed(&mut layers.decode_request[class], || {
            decode_request(&payload).expect("decode a request")
        });
        let sla = env.req.accuracy().unwrap_or_default();
        if let Request::Knn {
            dataset: Some(dref),
            ..
        } = &env.req
        {
            timed(&mut layers.resolve, || {
                store.resolve(dref).expect("resolve")
            });
        }
        let mut decomposed = timed(&mut layers.decompose, || {
            decompose(env.req, store)
                .expect("resolvable request")
                .expect("compute request")
        });
        let (kind, len) = match &decomposed.items[0] {
            WorkItem::Pair { spec, .. } => (spec.kind, decomposed.max_pair_len()),
            WorkItem::Search { .. } => unreachable!("serve_mix sends no searches"),
        };
        let route = timed(&mut layers.route, || router.route_pair(kind, len, sla));
        decomposed.route_to(route.backend);
        let mut kernel_us = 0.0;
        for work in &decomposed.items {
            let acc = layers.kernel_by_backend.entry(route.backend).or_default();
            let t0 = Instant::now();
            let _ = execute_item_routed(work, &mut scratch).expect("kernel");
            let t = us(t0.elapsed());
            acc.add(t);
            kernel_us += t;
        }
        drop(route);
        layers.kernel.add(kernel_us);
        timed(&mut layers.encode_reply[class], || encode_reply(reply));
        timed(&mut layers.decode_reply[class], || {
            decode_reply(reply_frame).expect("decode a reply")
        });
    }

    let mut summed = vec![
        layers.decompose.mean(),
        layers.route.mean(),
        layers.kernel.mean(),
    ];
    for (layer, classes) in [
        ("client.encode_us", &layers.encode),
        ("protocol.decode_request_us", &layers.decode_request),
        ("protocol.encode_reply_us", &layers.encode_reply),
        ("client.decode_reply_us", &layers.decode_reply),
    ] {
        let mut all = Acc::default();
        for (acc, len) in classes.iter().zip(LENGTHS) {
            report.set(&format!("{layer}.len{len}"), acc.mean());
            all.merge(acc);
        }
        report.set(layer, all.mean());
        summed.push(all.mean());
    }
    report.set("exec.decompose_us", layers.decompose.mean());
    report.set("datasets.resolve_us", layers.resolve.mean());
    report.set("routing.route_us", layers.route.mean());
    report.set("kernel.execute_us", layers.kernel.mean());
    for backend in [BackendId::DigitalExact, BackendId::Analog, BackendId::Acam] {
        let mean = layers
            .kernel_by_backend
            .get(&backend)
            .map_or(0.0, Acc::mean);
        report.set(&format!("kernel.execute_us.{backend}"), mean);
    }
    report.set("event_loop.sequential_rtt_us", layers.rtt.mean());
    report.set(
        "event_loop.residual_us",
        residual(layers.rtt.mean(), &summed),
    );
}
