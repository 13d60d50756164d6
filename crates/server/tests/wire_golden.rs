//! Golden wire bytes: the exact encoding of one request per verb (the
//! compute verbs with and without every optional field and dataset
//! reference) and of one reply per result shape, plus error and routed
//! replies. A codec change that moves a single byte fails here; each
//! golden must also decode back to the value it was encoded from.

use mda_distance::DistanceKind;
use mda_server::protocol::{
    decode_reply, decode_request, encode_reply, encode_request, DatasetEntry, DatasetRef,
    DatasetSummary, Envelope, ErrorCode, MatchRecord, Reply, Request, ResponseBody, RouteInfo,
    StreamEventBody, StreamEventState, TrainInstance,
};
use mda_server::{BackendId, Bound, Sla};

fn env(id: u64, req: Request) -> Envelope {
    Envelope { id, req }
}

fn distance(opts: bool) -> Request {
    Request::Distance {
        kind: if opts {
            DistanceKind::Lcs
        } else {
            DistanceKind::Dtw
        },
        p: vec![0.0, 1.5],
        q: vec![-2.25, 3.0],
        threshold: opts.then_some(0.5),
        band: opts.then_some(3),
        deadline_ms: opts.then_some(250),
        accuracy: opts.then_some(Sla::Tolerance(2.5)),
    }
}

fn goldens_requests() -> Vec<(Envelope, &'static str)> {
    vec![
        (env(1, Request::Ping), r#"{"id":1,"op":"ping"}"#),
        (env(2, Request::Metrics), r#"{"id":2,"op":"metrics"}"#),
        (
            env(3, distance(false)),
            r#"{"id":3,"op":"distance","kind":"DTW","p":[0,1.5],"q":[-2.25,3]}"#,
        ),
        (
            env(4, distance(true)),
            r#"{"id":4,"op":"distance","threshold":0.5,"band":3,"deadline_ms":250,"accuracy":{"tolerance":2.5},"kind":"LCS","p":[0,1.5],"q":[-2.25,3]}"#,
        ),
        (
            env(
                5,
                Request::Distance {
                    kind: DistanceKind::Manhattan,
                    p: vec![1e-7],
                    q: vec![-0.0],
                    threshold: None,
                    band: None,
                    deadline_ms: None,
                    accuracy: Some(Sla::Exact),
                },
            ),
            r#"{"id":5,"op":"distance","accuracy":"exact","kind":"MD","p":[0.0000001],"q":[-0]}"#,
        ),
        (
            env(
                6,
                Request::Batch {
                    kind: DistanceKind::Manhattan,
                    pairs: vec![(vec![0.0], vec![1.0]), (vec![2.0, 3.0], vec![2.0, 3.5])],
                    query: None,
                    dataset: None,
                    threshold: None,
                    band: None,
                    deadline_ms: None,
                    accuracy: None,
                },
            ),
            r#"{"id":6,"op":"batch","kind":"MD","pairs":[[[0],[1]],[[2,3],[2,3.5]]]}"#,
        ),
        (
            env(
                7,
                Request::Batch {
                    kind: DistanceKind::Edit,
                    pairs: vec![(vec![1.0], vec![])],
                    query: None,
                    dataset: None,
                    threshold: Some(0.25),
                    band: Some(0),
                    deadline_ms: Some(9),
                    accuracy: Some(Sla::Exact),
                },
            ),
            r#"{"id":7,"op":"batch","threshold":0.25,"band":0,"deadline_ms":9,"accuracy":"exact","kind":"EdD","pairs":[[[1],[]]]}"#,
        ),
        // An inline batch with no pairs still writes its (empty) `pairs`.
        (
            env(
                8,
                Request::Batch {
                    kind: DistanceKind::Hamming,
                    pairs: Vec::new(),
                    query: None,
                    dataset: None,
                    threshold: None,
                    band: None,
                    deadline_ms: None,
                    accuracy: None,
                },
            ),
            r#"{"id":8,"op":"batch","kind":"HamD","pairs":[]}"#,
        ),
        (
            env(
                9,
                Request::Batch {
                    kind: DistanceKind::Hausdorff,
                    pairs: Vec::new(),
                    query: Some(vec![0.25, -1.0]),
                    dataset: Some(DatasetRef::by_name_version("sensors", 2)),
                    threshold: None,
                    band: None,
                    deadline_ms: Some(50),
                    accuracy: Some(Sla::Tolerance(12.0)),
                },
            ),
            r#"{"id":9,"op":"batch","deadline_ms":50,"accuracy":{"tolerance":12},"kind":"HauD","dataset_name":"sensors","version":2,"query":[0.25,-1]}"#,
        ),
        (
            env(
                10,
                Request::Batch {
                    kind: DistanceKind::Dtw,
                    pairs: Vec::new(),
                    query: Some(vec![1.0]),
                    dataset: Some(DatasetRef::by_id("abc123")),
                    threshold: None,
                    band: Some(2),
                    deadline_ms: None,
                    accuracy: None,
                },
            ),
            r#"{"id":10,"op":"batch","band":2,"kind":"DTW","dataset":"abc123","query":[1]}"#,
        ),
        (
            env(
                11,
                Request::Knn {
                    kind: DistanceKind::Dtw,
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
                    threshold: None,
                    band: None,
                    deadline_ms: None,
                    accuracy: None,
                },
            ),
            r#"{"id":11,"op":"knn","kind":"DTW","k":3,"query":[1,2],"train":[{"label":0,"series":[1,2]},{"label":7,"series":[9]}]}"#,
        ),
        (
            env(
                12,
                Request::Knn {
                    kind: DistanceKind::Lcs,
                    k: 1,
                    query: vec![0.5],
                    train: vec![TrainInstance {
                        label: 2,
                        series: vec![0.5],
                    }],
                    dataset: None,
                    threshold: Some(0.125),
                    band: Some(4),
                    deadline_ms: Some(1_000),
                    accuracy: Some(Sla::Tolerance(0.0)),
                },
            ),
            r#"{"id":12,"op":"knn","threshold":0.125,"band":4,"deadline_ms":1000,"accuracy":{"tolerance":0},"kind":"LCS","k":1,"query":[0.5],"train":[{"label":2,"series":[0.5]}]}"#,
        ),
        (
            env(
                13,
                Request::Knn {
                    kind: DistanceKind::Dtw,
                    k: 1,
                    query: vec![1.0, 2.0],
                    train: Vec::new(),
                    dataset: Some(DatasetRef::by_id("feedface")),
                    threshold: None,
                    band: None,
                    deadline_ms: None,
                    accuracy: None,
                },
            ),
            r#"{"id":13,"op":"knn","kind":"DTW","k":1,"query":[1,2],"dataset":"feedface"}"#,
        ),
        (
            env(
                14,
                Request::Knn {
                    kind: DistanceKind::Manhattan,
                    k: 2,
                    query: vec![3.0],
                    train: Vec::new(),
                    dataset: Some(DatasetRef::by_name("corpus")),
                    threshold: None,
                    band: None,
                    deadline_ms: Some(5),
                    accuracy: Some(Sla::Exact),
                },
            ),
            r#"{"id":14,"op":"knn","deadline_ms":5,"accuracy":"exact","kind":"MD","k":2,"query":[3],"dataset_name":"corpus"}"#,
        ),
        // Searches always write `band`, even at its default of 0.
        (
            env(
                15,
                Request::Search {
                    query: vec![0.0, 1.0],
                    haystack: vec![0.0, 1.0, 0.0, 1.0],
                    dataset: None,
                    series_index: 0,
                    window: 2,
                    band: 0,
                    deadline_ms: None,
                    accuracy: None,
                },
            ),
            r#"{"id":15,"op":"search","band":0,"query":[0,1],"haystack":[0,1,0,1],"window":2}"#,
        ),
        (
            env(
                16,
                Request::Search {
                    query: vec![0.0, 1.0],
                    haystack: vec![0.0, 1.0, 0.0],
                    dataset: None,
                    series_index: 0,
                    window: 2,
                    band: 1,
                    deadline_ms: Some(75),
                    accuracy: Some(Sla::Tolerance(1.5)),
                },
            ),
            r#"{"id":16,"op":"search","band":1,"deadline_ms":75,"accuracy":{"tolerance":1.5},"query":[0,1],"haystack":[0,1,0],"window":2}"#,
        ),
        (
            env(
                17,
                Request::Search {
                    query: vec![0.0, 1.0],
                    haystack: Vec::new(),
                    dataset: Some(DatasetRef::by_name("sensors")),
                    series_index: 3,
                    window: 2,
                    band: 1,
                    deadline_ms: None,
                    accuracy: None,
                },
            ),
            r#"{"id":17,"op":"search","band":1,"query":[0,1],"dataset_name":"sensors","series_index":3,"window":2}"#,
        ),
        (
            env(
                18,
                Request::Search {
                    query: vec![2.0],
                    haystack: Vec::new(),
                    dataset: Some(DatasetRef::by_id("abc123")),
                    series_index: 0,
                    window: 1,
                    band: 0,
                    deadline_ms: Some(1),
                    accuracy: Some(Sla::Exact),
                },
            ),
            r#"{"id":18,"op":"search","band":0,"deadline_ms":1,"accuracy":"exact","query":[2],"dataset":"abc123","series_index":0,"window":1}"#,
        ),
        (
            env(
                19,
                Request::OpenStream {
                    window: 4,
                    band: 2,
                    query: vec![0.0, 0.5, 1.0, 1.5],
                    threshold: Some(4.0),
                },
            ),
            r#"{"id":19,"op":"open_stream","threshold":4,"window":4,"band":2,"query":[0,0.5,1,1.5]}"#,
        ),
        // Streams also always write `band`.
        (
            env(
                20,
                Request::OpenStream {
                    window: 1,
                    band: 0,
                    query: vec![0.0],
                    threshold: None,
                },
            ),
            r#"{"id":20,"op":"open_stream","window":1,"band":0,"query":[0]}"#,
        ),
        (
            env(
                21,
                Request::PushPoints {
                    stream_id: 3,
                    points: vec![0.5, -0.25, 1e9],
                },
            ),
            r#"{"id":21,"op":"push_points","stream_id":3,"points":[0.5,-0.25,1000000000]}"#,
        ),
        (
            env(22, Request::Subscribe { stream_id: 3 }),
            r#"{"id":22,"op":"subscribe","stream_id":3}"#,
        ),
        (
            env(23, Request::CloseStream { stream_id: 3 }),
            r#"{"id":23,"op":"close_stream","stream_id":3}"#,
        ),
        // Upload entries are always written as objects with a label.
        (
            env(
                24,
                Request::UploadDataset {
                    name: "tank \"A\"\n".into(),
                    entries: vec![
                        DatasetEntry {
                            label: 0,
                            series: vec![0.0, 1.5, -2.25],
                        },
                        DatasetEntry {
                            label: 3,
                            series: vec![],
                        },
                    ],
                },
            ),
            r#"{"id":24,"op":"upload_dataset","name":"tank \"A\"\n","entries":[{"label":0,"series":[0,1.5,-2.25]},{"label":3,"series":[]}]}"#,
        ),
        (
            env(25, Request::ListDatasets),
            r#"{"id":25,"op":"list_datasets"}"#,
        ),
        (
            env(
                26,
                Request::DropDataset {
                    dataset: DatasetRef::by_id("abc123"),
                },
            ),
            r#"{"id":26,"op":"drop_dataset","dataset":"abc123"}"#,
        ),
        (
            env(
                27,
                Request::DropDataset {
                    dataset: DatasetRef::by_name_version("sensors", 4),
                },
            ),
            r#"{"id":27,"op":"drop_dataset","dataset_name":"sensors","version":4}"#,
        ),
    ]
}

fn ready(threshold: f64, records: bool) -> ResponseBody {
    ResponseBody::StreamEvent(StreamEventBody {
        stream_id: 7,
        epoch: 20,
        state: StreamEventState::Ready {
            mean: 0.5,
            std_dev: 1.25,
            decision: "pruned_keogh".into(),
            bound: 9.0,
            threshold,
            motif: records.then_some(MatchRecord {
                epoch: 17,
                distance: 2.5,
            }),
            discord: records.then_some(MatchRecord {
                epoch: 19,
                distance: 8.0,
            }),
        },
    })
}

fn goldens_replies() -> Vec<(Reply, &'static str)> {
    let analog = RouteInfo {
        backend: BackendId::Analog,
        bound: Bound { abs: 7.0, rel: 0.3 },
    };
    vec![
        (
            Reply::new(1, ResponseBody::Pong),
            r#"{"id":1,"ok":true,"result":{"pong":true}}"#,
        ),
        (
            Reply::new(2, ResponseBody::MetricsText("a 1\nb \"2\"\n".into())),
            r#"{"id":2,"ok":true,"result":{"text":"a 1\nb \"2\"\n"}}"#,
        ),
        (
            Reply::new(3, ResponseBody::Distance { value: -0.0 }),
            r#"{"id":3,"ok":true,"result":{"value":-0}}"#,
        ),
        (
            Reply::new(
                4,
                ResponseBody::Batch {
                    values: vec![1.0 / 3.0, 4.5],
                },
            ),
            r#"{"id":4,"ok":true,"result":{"values":[0.3333333333333333,4.5]}}"#,
        ),
        (
            Reply::new(5, ResponseBody::Batch { values: Vec::new() }),
            r#"{"id":5,"ok":true,"result":{"values":[]}}"#,
        ),
        (
            Reply::new(
                6,
                ResponseBody::Knn {
                    label: 2,
                    score: 0.125,
                    nearest_index: 5,
                },
            ),
            r#"{"id":6,"ok":true,"result":{"label":2,"score":0.125,"nearest_index":5}}"#,
        ),
        (
            Reply::new(
                7,
                ResponseBody::Search {
                    offset: 40,
                    distance: 0.0,
                },
            ),
            r#"{"id":7,"ok":true,"result":{"offset":40,"distance":0}}"#,
        ),
        (
            Reply::new(
                8,
                ResponseBody::DatasetUploaded {
                    dataset_id: "deadbeef01234567".into(),
                    version: 2,
                    count: 64,
                    bytes: 65_536,
                },
            ),
            r#"{"id":8,"ok":true,"result":{"dataset_id":"deadbeef01234567","version":2,"count":64,"bytes":65536}}"#,
        ),
        (
            Reply::new(
                9,
                ResponseBody::Datasets {
                    items: vec![
                        DatasetSummary {
                            name: "sensors".into(),
                            dataset_id: "deadbeef01234567".into(),
                            version: 2,
                            count: 64,
                            bytes: 65_536,
                        },
                        DatasetSummary {
                            name: "x".into(),
                            dataset_id: "0".into(),
                            version: 1,
                            count: 0,
                            bytes: 0,
                        },
                    ],
                },
            ),
            r#"{"id":9,"ok":true,"result":{"datasets":[{"name":"sensors","dataset_id":"deadbeef01234567","version":2,"count":64,"bytes":65536},{"name":"x","dataset_id":"0","version":1,"count":0,"bytes":0}]}}"#,
        ),
        (
            Reply::new(10, ResponseBody::Datasets { items: Vec::new() }),
            r#"{"id":10,"ok":true,"result":{"datasets":[]}}"#,
        ),
        (
            Reply::new(11, ResponseBody::Dropped { count: 1 }),
            r#"{"id":11,"ok":true,"result":{"dropped":1}}"#,
        ),
        (
            Reply::new(
                12,
                ResponseBody::StreamOpened {
                    stream_id: 7,
                    shard: 2,
                    burn_in: 16,
                },
            ),
            r#"{"id":12,"ok":true,"result":{"stream_id":7,"shard":2,"burn_in":16}}"#,
        ),
        (
            Reply::new(
                13,
                ResponseBody::PointsPushed {
                    stream_id: 7,
                    accepted: 3,
                    epoch: 19,
                },
            ),
            r#"{"id":13,"ok":true,"result":{"stream_id":7,"accepted":3,"epoch":19}}"#,
        ),
        (
            Reply::new(
                14,
                ResponseBody::Subscribed {
                    stream_id: 7,
                    epoch: 19,
                    warm: true,
                },
            ),
            r#"{"id":14,"ok":true,"result":{"subscribed":true,"stream_id":7,"epoch":19,"warm":true}}"#,
        ),
        (
            Reply::new(
                15,
                ResponseBody::Subscribed {
                    stream_id: 8,
                    epoch: 0,
                    warm: false,
                },
            ),
            r#"{"id":15,"ok":true,"result":{"subscribed":true,"stream_id":8,"epoch":0,"warm":false}}"#,
        ),
        (
            Reply::new(
                16,
                ResponseBody::StreamClosed {
                    stream_id: 7,
                    pushed: 19,
                },
            ),
            r#"{"id":16,"ok":true,"result":{"closed":true,"stream_id":7,"pushed":19}}"#,
        ),
        (
            Reply::new(
                17,
                ResponseBody::StreamEvent(StreamEventBody {
                    stream_id: 7,
                    epoch: 4,
                    state: StreamEventState::Warming {
                        seen: 4,
                        burn_in: 16,
                    },
                }),
            ),
            r#"{"id":17,"ok":true,"result":{"event":{"stream_id":7,"epoch":4,"state":"warming","seen":4,"burn_in":16}}}"#,
        ),
        (
            Reply::new(18, ready(4.0, true)),
            r#"{"id":18,"ok":true,"result":{"event":{"stream_id":7,"epoch":20,"state":"ready","mean":0.5,"std_dev":1.25,"decision":"pruned_keogh","bound":9,"threshold":4,"motif":{"epoch":17,"distance":2.5},"discord":{"epoch":19,"distance":8}}}}"#,
        ),
        // An unbounded threshold is omitted from the wire.
        (
            Reply::new(19, ready(f64::INFINITY, false)),
            r#"{"id":19,"ok":true,"result":{"event":{"stream_id":7,"epoch":20,"state":"ready","mean":0.5,"std_dev":1.25,"decision":"pruned_keogh","bound":9}}}"#,
        ),
        (
            Reply::new(
                20,
                ResponseBody::Error {
                    code: ErrorCode::Overloaded,
                    message: "queue full".into(),
                },
            ),
            r#"{"id":20,"ok":false,"error":{"code":"overloaded","message":"queue full"}}"#,
        ),
        (
            Reply::new(
                21,
                ResponseBody::Error {
                    code: ErrorCode::StaleVersion,
                    message: String::new(),
                },
            ),
            r#"{"id":21,"ok":false,"error":{"code":"stale_version","message":""}}"#,
        ),
        (
            Reply::new(22, ResponseBody::Distance { value: 1.25 }).with_route(analog),
            r#"{"id":22,"ok":true,"result":{"value":1.25},"backend":"analog","bound":{"abs":7,"rel":0.3}}"#,
        ),
        (
            Reply::new(
                23,
                ResponseBody::Search {
                    offset: 0,
                    distance: 1.5,
                },
            )
            .with_route(RouteInfo {
                backend: BackendId::DigitalExact,
                bound: Bound::EXACT,
            }),
            r#"{"id":23,"ok":true,"result":{"offset":0,"distance":1.5},"backend":"digital_exact","bound":{"abs":0,"rel":0}}"#,
        ),
        (
            Reply::new(
                24,
                ResponseBody::Error {
                    code: ErrorCode::Timeout,
                    message: "deadline expired".into(),
                },
            )
            .with_route(RouteInfo {
                backend: BackendId::Acam,
                bound: Bound { abs: 0.5, rel: 0.0 },
            }),
            r#"{"id":24,"ok":false,"error":{"code":"timeout","message":"deadline expired"},"backend":"acam","bound":{"abs":0.5,"rel":0}}"#,
        ),
    ]
}

#[test]
fn every_verb_encodes_to_its_golden_bytes_and_back() {
    for (env, golden) in goldens_requests() {
        let bytes = encode_request(&env);
        assert_eq!(
            String::from_utf8_lossy(&bytes),
            golden,
            "request {} ({})",
            env.id,
            env.req.op()
        );
        assert_eq!(decode_request(golden.as_bytes()).unwrap(), env);
    }
}

#[test]
fn every_reply_shape_encodes_to_its_golden_bytes_and_back() {
    for (reply, golden) in goldens_replies() {
        let bytes = encode_reply(&reply);
        assert_eq!(
            String::from_utf8_lossy(&bytes),
            golden,
            "reply {}",
            reply.id
        );
        assert_eq!(decode_reply(golden.as_bytes()).unwrap(), reply);
    }
}

#[test]
fn upload_entries_also_decode_from_bare_arrays() {
    let env = decode_request(
        br#"{"id":1,"op":"upload_dataset","name":"c","entries":[[0,1],{"series":[2]},{"label":4,"series":[]}]}"#,
    )
    .unwrap();
    assert_eq!(
        env.req,
        Request::UploadDataset {
            name: "c".into(),
            entries: vec![
                DatasetEntry {
                    label: 0,
                    series: vec![0.0, 1.0],
                },
                DatasetEntry {
                    label: 0,
                    series: vec![2.0],
                },
                DatasetEntry {
                    label: 4,
                    series: vec![],
                },
            ],
        }
    );
}
