//! The step-plan cache never changes an answer.
//!
//! A seeded sequence interleaves kinds, shapes, bands and thresholds through
//! `AnalogBackend::evaluate` and `DistanceAccelerator::compute`, with large
//! Hausdorff shapes mixed in so the cache overflows its node bound and
//! evicts. Every answer must be bitwise the answer of a fresh graph build
//! run through the frozen interpretive loop; invalid inputs must fail with
//! the errors they always did and leave no plan behind; the cache must
//! never hold more than `PLAN_CACHE_NODES` nodes. Two threads then share
//! one backend and one accelerator.

use mda_bench::kernels_baseline::analog as frozen;
use mda_core::accelerator::{FunctionParams, PLAN_CACHE_NODES};
use mda_core::analog::graph::builders;
use mda_core::analog::{AnalogGraph, ErrorModel};
use mda_core::{AcceleratorConfig, DistanceAccelerator};
use mda_distance::{Band, DistanceKind, DpScratch};
use mda_routing::{AnalogBackend, DistanceBackend, PairRequest};

/// One request: a kind with its parameters and a pair of series.
#[derive(Debug, Clone)]
struct Request {
    kind: DistanceKind,
    threshold: f64,
    band: Band,
    p: Vec<f64>,
    q: Vec<f64>,
}

impl Request {
    fn params(&self) -> FunctionParams {
        FunctionParams {
            threshold: self.threshold,
            weight: 1.0,
            band: self.band,
        }
    }

    fn pair_request(&self) -> PairRequest {
        PairRequest {
            kind: self.kind,
            threshold: Some(self.threshold),
            band: match self.band {
                Band::Full => None,
                Band::SakoeChiba(r) => Some(r),
            },
        }
    }

    /// A fresh graph for this pair, exactly as the accelerator builds it.
    fn graph(&self, config: &AcceleratorConfig) -> AnalogGraph {
        let volts = |xs: &[f64]| -> Vec<f64> {
            xs.iter()
                .map(|&x| config.dac.quantize(config.value_to_voltage(x)))
                .collect()
        };
        let (pv, qv) = (volts(&self.p), volts(&self.q));
        let thr = config.value_to_voltage(self.threshold);
        let weights = vec![1.0; pv.len().min(qv.len())];
        let errors = &mut ErrorModel::new(config.noise_seed);
        match self.kind {
            DistanceKind::Dtw => builders::dtw(config, &pv, &qv, 1.0, self.band, errors),
            DistanceKind::Lcs => builders::lcs(config, &pv, &qv, thr, 1.0, errors),
            DistanceKind::Edit => builders::edit(config, &pv, &qv, thr, errors),
            DistanceKind::Hausdorff => builders::hausdorff(config, &pv, &qv, 1.0, errors),
            DistanceKind::Hamming => builders::hamming(config, &pv, &qv, thr, &weights, errors),
            DistanceKind::Manhattan => builders::manhattan(config, &pv, &qv, &weights, errors),
        }
    }
}

/// What the frozen loop answers for a request: the decoded value, the
/// convergence time and the output waveform's bits.
#[derive(Debug, Clone, PartialEq)]
struct Expected {
    value: u64,
    convergence_time_s: u64,
    trace: Vec<u64>,
}

fn expected(config: &AcceleratorConfig, req: &Request) -> Expected {
    let sim = frozen::simulate(&req.graph(config));
    let quantized = config.adc.quantize(sim.final_voltage);
    let value = match req.kind {
        DistanceKind::Lcs | DistanceKind::Edit | DistanceKind::Hamming => quantized / config.v_step,
        _ => config.voltage_to_value(quantized),
    };
    Expected {
        value: value.to_bits(),
        convergence_time_s: sim.convergence_time_s.to_bits(),
        trace: sim
            .output_trace
            .values()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
    }
}

/// xorshift64*: a fixed, dependency-free request stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn series(&mut self, len: usize) -> Vec<f64> {
        (0..len)
            .map(|_| (self.next() % 10_000) as f64 / 10_000.0 * 8.0 - 4.0)
            .collect()
    }
}

/// The interleaved request stream: small shapes of every kind, band and
/// threshold, with every fourth request a large Hausdorff shape (~7k nodes;
/// fifteen of them overflow the cache bound).
fn requests(seed: u64, count: usize) -> Vec<Request> {
    let mut rng = Rng(seed);
    (0..count)
        .map(|i| {
            if i % 4 == 3 {
                let (m, n) = (40 + rng.below(16), 40 + rng.below(16));
                return Request {
                    kind: DistanceKind::Hausdorff,
                    threshold: 0.1,
                    band: Band::Full,
                    p: rng.series(m),
                    q: rng.series(n),
                };
            }
            let kind = DistanceKind::ALL[rng.below(DistanceKind::ALL.len())];
            let band = [Band::Full, Band::SakoeChiba(1), Band::SakoeChiba(3)][rng.below(3)];
            // Row kinds need equal lengths, and so does a band narrow
            // enough to admit no warping path between unequal ones.
            let equal = matches!(kind, DistanceKind::Hamming | DistanceKind::Manhattan)
                || (kind == DistanceKind::Dtw && band != Band::Full);
            let m = 1 + rng.below(7);
            let n = if equal { m } else { 1 + rng.below(7) };
            Request {
                kind,
                threshold: [0.1, 0.05, 0.5][rng.below(3)],
                band,
                p: rng.series(m),
                q: rng.series(n),
            }
        })
        .collect()
}

fn served(backend: &AnalogBackend, req: &Request) -> u64 {
    backend
        .evaluate(&req.pair_request(), &req.p, &req.q, &mut DpScratch::new())
        .expect("valid request")
        .to_bits()
}

fn computed(acc: &mut DistanceAccelerator, req: &Request) -> Expected {
    acc.configure_with(req.kind, req.params()).unwrap();
    let o = acc.compute(&req.p, &req.q).unwrap();
    Expected {
        value: o.value.to_bits(),
        // Every shape here fits one pass of the 128 x 128 array.
        convergence_time_s: o.convergence_time_s.to_bits(),
        trace: o
            .output_trace
            .values()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
    }
}

#[test]
fn interleaved_requests_match_fresh_frozen_builds_through_evictions() {
    let config = AcceleratorConfig::paper_defaults();
    let stream = requests(0x5eed, 60);
    let expect: Vec<Expected> = stream.iter().map(|r| expected(&config, r)).collect();

    let backend = AnalogBackend::new(config.clone());
    let mut acc = DistanceAccelerator::new(config.clone());
    let mut evictions = 0usize;
    let mut last_plans = 0usize;
    // Twice through, so the second pass hits plans that survived and
    // recompiles plans that were evicted.
    for pass in 0..2 {
        for (req, want) in stream.iter().zip(&expect) {
            assert_eq!(served(&backend, req), want.value, "pass {pass}: {req:?}");
            assert_eq!(&computed(&mut acc, req), want, "pass {pass}: {req:?}");
            for stats in [backend.plan_cache(), acc.plan_cache()] {
                assert!(stats.nodes <= PLAN_CACHE_NODES, "{stats:?}");
            }
            let plans = backend.plan_cache().plans;
            if plans < last_plans {
                evictions += 1;
            }
            last_plans = plans;
        }
    }
    assert!(evictions > 0, "the stream never overflowed the cache");
}

#[test]
fn invalid_requests_fail_as_before_and_cache_nothing() {
    let backend = AnalogBackend::default();
    let acc = DistanceAccelerator::new(AcceleratorConfig::paper_defaults());
    let ok = vec![0.5; 8];
    let cases: [(DistanceKind, Vec<f64>, Vec<f64>, &str); 5] = [
        (
            DistanceKind::Dtw,
            Vec::new(),
            ok.clone(),
            "input sequence is empty",
        ),
        (
            DistanceKind::Hausdorff,
            ok.clone(),
            Vec::new(),
            "input sequence is empty",
        ),
        (
            DistanceKind::Manhattan,
            vec![0.5; 5],
            ok.clone(),
            "sequences must have equal length, got 5 and 8",
        ),
        (
            DistanceKind::Hamming,
            ok.clone(),
            vec![0.5; 3],
            "sequences must have equal length, got 8 and 3",
        ),
        (
            DistanceKind::Lcs,
            vec![0.5, 100.0],
            ok.clone(),
            "value 100 outside encodable range (max magnitude 6.25)",
        ),
    ];
    for (kind, p, q, message) in cases {
        let req = PairRequest::new(kind);
        let err = backend
            .evaluate(&req, &p, &q, &mut DpScratch::new())
            .unwrap_err();
        assert_eq!(err.to_string(), message, "{kind}");
        // The accelerator reports the same error, behind its own prefix.
        let mut configured = acc.clone();
        configured.configure(kind).unwrap();
        let err = configured.compute(&p, &q).unwrap_err().to_string();
        assert!(err.ends_with(message), "{kind}: {err}");
        let value_err = acc
            .value_with(kind, &FunctionParams::default(), &p, &q)
            .unwrap_err();
        assert_eq!(value_err.to_string(), err, "{kind}");
        assert_eq!(configured.plan_cache().plans, 0, "{kind}");
    }
    assert_eq!(backend.plan_cache().plans, 0);
    assert_eq!(backend.plan_cache().nodes, 0);
    assert_eq!(acc.plan_cache().plans, 0);
}

#[test]
fn two_threads_share_one_backend_and_one_accelerator() {
    let config = AcceleratorConfig::paper_defaults();
    let streams = [requests(11, 20), requests(12, 20)];
    let expect: Vec<Vec<Expected>> = streams
        .iter()
        .map(|s| s.iter().map(|r| expected(&config, r)).collect())
        .collect();
    let backend = AnalogBackend::new(config.clone());
    let acc = DistanceAccelerator::new(config);
    std::thread::scope(|scope| {
        for (stream, expect) in streams.iter().zip(&expect) {
            let (backend, acc) = (&backend, &acc);
            scope.spawn(move || {
                for (req, want) in stream.iter().zip(expect) {
                    assert_eq!(served(backend, req), want.value, "{req:?}");
                    let value = acc.value_with(req.kind, &req.params(), &req.p, &req.q);
                    assert_eq!(value.unwrap().to_bits(), want.value, "{req:?}");
                    assert!(backend.plan_cache().nodes <= PLAN_CACHE_NODES);
                }
            });
        }
    });
}
