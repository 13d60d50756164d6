//! Bitwise goldens of the behavioural analog engine.
//!
//! Every line pins, for one simulated graph, the settled output voltage's
//! bits, the number of integration steps, the convergence time's bits and
//! an FNV-1a hash over the bits of every output-trace value. Any change to
//! the engine's arithmetic, update order, settle check or trace recording
//! shows up here as a changed line, so an engine rewrite that claims
//! bitwise identity has to pass this file unchanged.

use mda_core::accelerator::FunctionParams;
use mda_core::analog::graph::builders;
use mda_core::analog::{AnalogEngine, AnalogGraph, ErrorModel, SimulationOutcome};
use mda_core::{AcceleratorConfig, DistanceAccelerator};
use mda_distance::dtw::Band;
use mda_distance::DistanceKind;

fn fnv1a(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn series(len: usize, phase: f64) -> Vec<f64> {
    (0..len)
        .map(|i| (i as f64 * 0.45 + phase).sin() * 2.0 + (i as f64 * 0.11).cos() * 0.4)
        .collect()
}

fn volts(config: &AcceleratorConfig, xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|&x| config.value_to_voltage(x)).collect()
}

fn line(name: &str, sim: &SimulationOutcome) -> String {
    format!(
        "{name} {:016x} {} {:016x} {:016x}",
        sim.final_voltage.to_bits(),
        sim.steps,
        sim.convergence_time_s.to_bits(),
        fnv1a(sim.output_trace.values())
    )
}

#[derive(Clone, Copy)]
enum Case {
    Dtw(Band),
    Lcs,
    Edit,
    Hausdorff,
    Hamming,
    Manhattan,
}

impl Case {
    const ALL: [(Case, &'static str); 7] = [
        (Case::Dtw(Band::Full), "dtw"),
        (Case::Dtw(Band::SakoeChiba(2)), "dtw_r2"),
        (Case::Lcs, "lcs"),
        (Case::Edit, "edit"),
        (Case::Hausdorff, "hausdorff"),
        (Case::Hamming, "hamming"),
        (Case::Manhattan, "manhattan"),
    ];

    fn build(
        self,
        config: &AcceleratorConfig,
        p: &[f64],
        q: &[f64],
        errors: &mut ErrorModel,
    ) -> AnalogGraph {
        let (pv, qv) = (volts(config, p), volts(config, q));
        let thr = config.value_to_voltage(0.5);
        let weights = vec![1.0; p.len().min(q.len())];
        match self {
            Case::Dtw(band) => builders::dtw(config, &pv, &qv, 1.0, band, errors),
            Case::Lcs => builders::lcs(config, &pv, &qv, thr, 1.0, errors),
            Case::Edit => builders::edit(config, &pv, &qv, thr, errors),
            Case::Hausdorff => builders::hausdorff(config, &pv, &qv, 1.0, errors),
            Case::Hamming => builders::hamming(config, &pv, &qv, thr, &weights, errors),
            Case::Manhattan => builders::manhattan(config, &pv, &qv, &weights, errors),
        }
    }
}

fn engine_lines() -> Vec<String> {
    let config = AcceleratorConfig::paper_defaults();
    let engine = AnalogEngine::new();
    let mut out = Vec::new();
    for (m, n) in [(1usize, 1usize), (8, 8), (32, 32), (8, 13)] {
        let p = series(m, 0.0);
        let q = series(n, 0.6);
        for (case, name) in Case::ALL {
            for (seeded, tag) in [(false, "ideal"), (true, "seeded")] {
                let mut errors = if seeded {
                    ErrorModel::new(config.noise_seed)
                } else {
                    ErrorModel::ideal()
                };
                let graph = case.build(&config, &p, &q, &mut errors);
                let sim = engine.simulate(&graph);
                out.push(line(&format!("{name}_{m}x{n}_{tag}"), &sim));
            }
        }
    }
    out
}

fn fault_and_probe_lines() -> Vec<String> {
    let config = AcceleratorConfig::paper_defaults();
    let engine = AnalogEngine::new();
    let p = series(8, 0.0);
    let q = series(8, 0.6);
    let mut out = Vec::new();

    let mut graph =
        Case::Dtw(Band::Full).build(&config, &p, &q, &mut ErrorModel::new(config.noise_seed));
    let victims = graph.module_nodes();
    graph.inject_stuck_fault(victims[victims.len() / 3], 0.0);
    out.push(line("dtw_8x8_stuck", &engine.simulate(&graph)));

    let graph =
        Case::Dtw(Band::Full).build(&config, &p, &q, &mut ErrorModel::new(config.noise_seed));
    let modules = graph.module_nodes();
    let probes = [modules[0], modules[modules.len() / 2], graph.output()];
    let (sim, traces) = engine.simulate_with_probes(&graph, &probes);
    out.push(line("dtw_8x8_probed", &sim));
    for (k, trace) in traces.iter().enumerate() {
        out.push(format!(
            "dtw_8x8_probe{k} {} {:016x}",
            trace.len(),
            fnv1a(trace.values())
        ));
    }
    out
}

fn accelerator_lines() -> Vec<String> {
    let p = series(8, 0.0);
    let q = series(8, 0.6);
    let mut out = Vec::new();
    for kind in DistanceKind::ALL {
        for (params, tag) in [
            (FunctionParams::default(), "default"),
            (
                FunctionParams {
                    threshold: 0.5,
                    weight: 0.8,
                    band: Band::SakoeChiba(2),
                },
                "tuned",
            ),
        ] {
            let mut acc = DistanceAccelerator::new(AcceleratorConfig::paper_defaults());
            acc.configure_with(kind, params).unwrap();
            let o = acc.compute(&p, &q).unwrap();
            out.push(format!(
                "acc_{kind}_{tag} {:016x} {:016x} {:016x}",
                o.value.to_bits(),
                o.convergence_time_s.to_bits(),
                fnv1a(o.output_trace.values())
            ));
        }
    }
    out
}

fn check(actual: Vec<String>, expected: &str) {
    let expected: Vec<&str> = expected
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let mismatched: Vec<String> = actual
        .iter()
        .zip(
            expected
                .iter()
                .copied()
                .chain(std::iter::repeat("<missing>")),
        )
        .filter(|(a, e)| a.as_str() != *e)
        .map(|(a, e)| format!("  got      {a}\n  expected {e}"))
        .collect();
    assert!(
        mismatched.is_empty() && actual.len() == expected.len(),
        "{} of {} golden lines differ ({} expected):\n{}\n\nfull actual table:\n{}",
        mismatched.len(),
        actual.len(),
        expected.len(),
        mismatched.join("\n"),
        actual.join("\n")
    );
}

#[test]
fn engine_goldens() {
    check(engine_lines(), ENGINE);
}

#[test]
fn fault_and_probe_goldens() {
    check(fault_and_probe_lines(), FAULT_AND_PROBE);
}

#[test]
fn accelerator_goldens() {
    check(accelerator_lines(), ACCELERATOR);
}

const ENGINE: &str = "
dtw_1x1_ideal 3f971c5054f310f4 72 3e10c01868bf77a6 e3d4a6079ebaea38
dtw_1x1_seeded 3f9703507953cfbb 72 3e10c01868bf77a6 4a5104a22d4f96a0
dtw_r2_1x1_ideal 3f971c5054f310f4 72 3e10c01868bf77a6 e3d4a6079ebaea38
dtw_r2_1x1_seeded 3f9703507953cfbb 72 3e10c01868bf77a6 4a5104a22d4f96a0
lcs_1x1_ideal 0000000000000000 24 0000000000000000 37027190f725c8c5
lcs_1x1_seeded bf53c7796bf98873 56 3e118601e7acbc29 856261ed928d0150
edit_1x1_ideal 3f847745b51e24b5 96 3e166b7360e0c39a 59a547347de649c5
edit_1x1_seeded 3f8584fbf306e71a 96 3e16297ae13c576c 765e9924b2f421ef
hausdorff_1x1_ideal 3f971b587a7d18bc 64 3e11700467cb42c1 509b1b0adea08b1a
hausdorff_1x1_seeded 3f95c0275df2a625 64 3e11bcfba7606ba1 840c9b8c25a44b4f
hamming_1x1_ideal 3f84783a9e03a165 64 3e133dcfe54a3803 8dfd8b29548b225f
hamming_1x1_seeded 3f83e2f3c792beeb 64 3e133dcfe54a3803 449a1bb5c5fb6344
manhattan_1x1_ideal 3f971d6eb6cca779 64 3e10d615e8a0f101 f59ee94801b9a5c7
manhattan_1x1_seeded 3f96c5450fd89f6f 64 3e10d615e8a0f101 8dd4e86a89232bbc
dtw_8x8_ideal 3fb20f343ec39447 200 3e289c339dd65b25 460b781f563d447c
dtw_8x8_seeded 3fb2e83aadfce548 200 3e287b375e04250e 29ac31d8a2615027
dtw_r2_8x8_ideal 3fb20f343ec39447 200 3e289c339dd65b25 460b781f563d447c
dtw_r2_8x8_seeded 3fb2bfe255351afd 200 3e289c339dd65b25 d037cf3071f705e7
lcs_8x8_ideal 3fb1e8a7b091a662 160 3e296d1bdcb45c3e 8e78e4d7800ded6f
lcs_8x8_seeded 3fb124c37d5142b9 160 3e299916dc774f07 195253589d3b5b7f
edit_8x8_ideal 3f9475c9aaf00404 264 3e303c2769769f4e e66b4cf6748644f2
edit_8x8_seeded 3f9974787a8ad168 264 3e301b2b29a46938 e4b06532dab1010d
hausdorff_8x8_ideal 3f970bc0b812c7f0 64 3e11700467cb42c1 9153e0695ba5dac3
hausdorff_8x8_seeded 3f96d70e735d3bd2 64 3e11700467cb42c1 f3df1b9bf9cb4620
hamming_8x8_ideal 3faeb32c17195ff4 88 3e1b24e9da51d821 41fc8a917cc11b4d
hamming_8x8_seeded 3fae10b1e297a0ab 88 3e1b24e9da51d821 18f7ecb25a28fecc
manhattan_8x8_ideal 3fc0592e8b17de61 96 3e19db0f5c1bbb41 6648dfd77e20a297
manhattan_8x8_seeded 3fc012c82c086e7c 96 3e19db0f5c1bbb41 870737b0c695e288
dtw_32x32_ideal 3fc1efbd74e26463 560 3e410a4ff858712b 0717ef51e4433c38
dtw_32x32_seeded 3fc3b1cb4feef1a3 560 3e40d8d5989d2007 95754cd4ee9d8cb8
dtw_r2_32x32_ideal 3fc1ecec932bc2eb 536 3e40c85778b404fb c499b46603e60469
dtw_r2_32x32_seeded 3fc44c18738c7dd3 528 3e407e1fe91b0b45 e00f9129975309c2
lcs_32x32_ideal 3fd3d2fa3afa9b2e 440 3e422aef26c7caac fe3b76a547704a19
lcs_32x32_seeded 3fd30d4c76df6742 440 3e422aef26c7caac 7cdc82d4c08e6e00
edit_32x32_ideal 3f947715585ec081 808 3e4938e1ccfcdc1f 4803b39500d64cd1
edit_32x32_seeded 3fa4e45b83556cd8 784 3e4872f84e0f978f 61a5710c7efc7676
hausdorff_32x32_ideal 3f6cb70c42060cee 64 3e11700467cb42c1 ce7b0024cc8a7de9
hausdorff_32x32_seeded 3f85e3faa930e93f 64 3e10891ea90bc821 defcc3116cef04ee
hamming_32x32_ideal 3fcc22a5576f8144 248 3e3327d26568bea3 6e13cf76f4ebb63b
hamming_32x32_seeded 3fcb8705a26ce1d1 248 3e3327d26568bea3 1b7083949b49c892
manhattan_32x32_ideal 3fde24d109b537d3 280 3e32f0d8a5b50f21 90256a775e9282f6
manhattan_32x32_seeded 3fdd92faf5866be6 280 3e32f0d8a5b50f21 4a521bd2fae6fb62
dtw_8x13_ideal 3fcd5b2da6c7611f 264 3e300aad09bb4e2d afe1ee6fdb500915
dtw_8x13_seeded 3fce82a08fce40e2 256 3e2f9169142dc3ff 27fea73c2d8c2f39
dtw_r2_8x13_ideal 3fd9717f2ece76be 232 3e2c37ca98d445a9 d29c88dbd7b5d69c
dtw_r2_8x13_seeded 3fd9f24602d0b51d 232 3e2c37ca98d445a9 aa118d60d9311a16
lcs_8x13_ideal 3fb1e8b1a25a806b 216 3e31700467cb42bf 03ae704124ac9d09
lcs_8x13_seeded 3fb0689dff14e2cd 216 3e31700467cb42bf 4d2208423456b7b3
edit_8x13_ideal 3fb1e7d775108cd0 312 3e3311d4e5874532 8e5753d304567d4e
edit_8x13_seeded 3fb4d647b2fbb017 312 3e330156c59e2a27 a5f9f6f54873d5ae
hausdorff_8x13_ideal 3fa4f12bcfbd9edf 64 3e11bcfba7606ba1 e3bd30a18776d0e5
hausdorff_8x13_seeded 3fa53120c70dccff 64 3e11700467cb42c1 e0fe2069019f6712
hamming_8x13_ideal 3faeb32c17195ff4 88 3e1b24e9da51d821 41fc8a917cc11b4d
hamming_8x13_seeded 3fae6243390a7624 88 3e1b24e9da51d821 a820be8e472c3506
manhattan_8x13_ideal 3fc0592e8b17de61 96 3e19db0f5c1bbb41 6648dfd77e20a297
manhattan_8x13_seeded 3fc032c1b192b763 96 3e19db0f5c1bbb41 9ffa3243566b28b3
";

const FAULT_AND_PROBE: &str = "
dtw_8x8_stuck 3fb2e83aadfce548 200 3e287b375e04250e 29ac31d8a2615027
dtw_8x8_probed 3fb2e83aadfce548 200 3e287b375e04250e 29ac31d8a2615027
dtw_8x8_probe0 201 1668278c2af68ed2
dtw_8x8_probe1 201 fb2b541776737e61
dtw_8x8_probe2 201 29ac31d8a2615027
";

const ACCELERATOR: &str = "
acc_DTW_default 400db00000000000 3e285a3b1e31eef7 2925f86ac0cb6609
acc_DTW_tuned 4007700000000000 3e287b375e04250e 9fafdcd449649230
acc_LCS_default 3ff9000000000000 3e2b50e4da14cae1 0587eb2ee9b8c5b0
acc_LCS_tuned 4015e00000000000 3e299916dc774f07 19dac41833844a3b
acc_EdD_default 401db00000000000 3e31230d283619e8 71f394c8d965ac53
acc_EdD_tuned 4002c00000000000 3e301b2b29a46938 e4b06532dab1010d
acc_HauD_default 3ff2c00000000000 3e11700467cb42c1 724d623e2fb3fa11
acc_HauD_tuned 3fef400000000000 3e11700467cb42c1 b04c5535220dad3c
acc_HamD_default 401c200000000000 3e1b24e9da51d821 610f0d6d22e4ac1e
acc_HamD_tuned 4012c00000000000 3e1b24e9da51d821 329fdaf7ad08f5c1
acc_MD_default 4019000000000000 3e19db0f5c1bbb41 3765f4f7a7f5e0e8
acc_MD_tuned 4014500000000000 3e19db0f5c1bbb41 e36024999c9fda03
";
