//! Bitwise goldens of the routed analog backend's answers.
//!
//! `AnalogBackend::evaluate` is what the server runs for analog-routed
//! requests. Every line pins one answer's bits (or its error) for a request
//! shape, so a faster engine underneath has to return the same values.

use mda_distance::{DistanceKind, DpScratch};
use mda_routing::{AnalogBackend, DistanceBackend, PairRequest};

fn series(len: usize, phase: f64) -> Vec<f64> {
    (0..len)
        .map(|i| (i as f64 * 0.45 + phase).sin() * 2.0 + (i as f64 * 0.11).cos() * 0.4)
        .collect()
}

fn answer_lines() -> Vec<String> {
    let backend = AnalogBackend::default();
    let mut scratch = DpScratch::new();
    let mut out = Vec::new();
    for (m, n) in [(8usize, 8usize), (13, 8), (16, 16)] {
        let p = series(m, 0.0);
        let q = series(n, 0.6);
        for kind in DistanceKind::ALL {
            for threshold in [None, Some(0.5)] {
                for band in [None, Some(2)] {
                    let req = PairRequest {
                        kind,
                        threshold,
                        band,
                    };
                    let answer = match backend.evaluate(&req, &p, &q, &mut scratch) {
                        Ok(v) => format!("{:016x}", v.to_bits()),
                        Err(e) => format!("err {e}"),
                    };
                    out.push(format!("{kind}_{m}x{n}_t{threshold:?}_b{band:?} {answer}"));
                }
            }
        }
    }
    // Errors: an empty series, and a value beyond the DAC's input range.
    let (empty, loud, q) = (Vec::new(), vec![100.0; 8], series(8, 0.6));
    for kind in DistanceKind::ALL {
        for (p, tag) in [(&empty, "empty"), (&loud, "loud")] {
            let answer = match backend.evaluate(&PairRequest::new(kind), p, &q, &mut scratch) {
                Ok(v) => format!("{:016x}", v.to_bits()),
                Err(e) => format!("err {e}"),
            };
            out.push(format!("{kind}_{tag} {answer}"));
        }
    }
    out
}

#[test]
fn analog_backend_goldens() {
    let actual = answer_lines();
    let expected: Vec<&str> = EXPECTED
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    assert_eq!(
        actual.len(),
        expected.len(),
        "full actual table:\n{}",
        actual.join("\n")
    );
    for (a, e) in actual.iter().zip(&expected) {
        assert_eq!(a, e, "full actual table:\n{}", actual.join("\n"));
    }
}

const EXPECTED: &str = "
DTW_8x8_tNone_bNone 400db00000000000
DTW_8x8_tNone_bSome(2) 400db00000000000
DTW_8x8_tSome(0.5)_bNone 400db00000000000
DTW_8x8_tSome(0.5)_bSome(2) 400db00000000000
LCS_8x8_tNone_bNone 3ff9000000000000
LCS_8x8_tNone_bSome(2) 3ff9000000000000
LCS_8x8_tSome(0.5)_bNone 401a900000000000
LCS_8x8_tSome(0.5)_bSome(2) 401a900000000000
EdD_8x8_tNone_bNone 401db00000000000
EdD_8x8_tNone_bSome(2) 401db00000000000
EdD_8x8_tSome(0.5)_bNone 4002c00000000000
EdD_8x8_tSome(0.5)_bSome(2) 4002c00000000000
HauD_8x8_tNone_bNone 3ff2c00000000000
HauD_8x8_tNone_bSome(2) 3ff2c00000000000
HauD_8x8_tSome(0.5)_bNone 3ff2c00000000000
HauD_8x8_tSome(0.5)_bSome(2) 3ff2c00000000000
HamD_8x8_tNone_bNone 401c200000000000
HamD_8x8_tNone_bSome(2) 401c200000000000
HamD_8x8_tSome(0.5)_bNone 4017700000000000
HamD_8x8_tSome(0.5)_bSome(2) 4017700000000000
MD_8x8_tNone_bNone 4019000000000000
MD_8x8_tNone_bSome(2) 4019000000000000
MD_8x8_tSome(0.5)_bNone 4019000000000000
MD_8x8_tSome(0.5)_bSome(2) 4019000000000000
DTW_13x8_tNone_bNone 4017700000000000
DTW_13x8_tNone_bSome(2) 401a900000000000
DTW_13x8_tSome(0.5)_bNone 4017700000000000
DTW_13x8_tSome(0.5)_bSome(2) 401a900000000000
LCS_13x8_tNone_bNone 3ff9000000000000
LCS_13x8_tNone_bSome(2) 3ff9000000000000
LCS_13x8_tSome(0.5)_bNone 401db00000000000
LCS_13x8_tSome(0.5)_bSome(2) 401db00000000000
EdD_13x8_tNone_bNone 4026a80000000000
EdD_13x8_tNone_bSome(2) 4026a80000000000
EdD_13x8_tSome(0.5)_bNone 4019000000000000
EdD_13x8_tSome(0.5)_bSome(2) 4019000000000000
HauD_13x8_tNone_bNone 3fd9000000000000
HauD_13x8_tNone_bSome(2) 3fd9000000000000
HauD_13x8_tSome(0.5)_bNone 3fd9000000000000
HauD_13x8_tSome(0.5)_bSome(2) 3fd9000000000000
HamD_13x8_tNone_bNone err sequences must have equal length, got 13 and 8
HamD_13x8_tNone_bSome(2) err sequences must have equal length, got 13 and 8
HamD_13x8_tSome(0.5)_bNone err sequences must have equal length, got 13 and 8
HamD_13x8_tSome(0.5)_bSome(2) err sequences must have equal length, got 13 and 8
MD_13x8_tNone_bNone err sequences must have equal length, got 13 and 8
MD_13x8_tNone_bSome(2) err sequences must have equal length, got 13 and 8
MD_13x8_tSome(0.5)_bNone err sequences must have equal length, got 13 and 8
MD_13x8_tSome(0.5)_bSome(2) err sequences must have equal length, got 13 and 8
DTW_16x16_tNone_bNone 4015180000000000
DTW_16x16_tNone_bSome(2) 4015180000000000
DTW_16x16_tSome(0.5)_bNone 4015180000000000
DTW_16x16_tSome(0.5)_bSome(2) 4015180000000000
LCS_16x16_tNone_bNone 4009000000000000
LCS_16x16_tNone_bSome(2) 4009000000000000
LCS_16x16_tSome(0.5)_bNone 402ce80000000000
LCS_16x16_tSome(0.5)_bSome(2) 402ce80000000000
EdD_16x16_tNone_bNone 402c200000000000
EdD_16x16_tNone_bSome(2) 402c200000000000
EdD_16x16_tSome(0.5)_bNone 400c200000000000
EdD_16x16_tSome(0.5)_bSome(2) 400c200000000000
HauD_16x16_tNone_bNone 3fd9000000000000
HauD_16x16_tNone_bSome(2) 3fd9000000000000
HauD_16x16_tSome(0.5)_bNone 3fd9000000000000
HauD_16x16_tSome(0.5)_bSome(2) 3fd9000000000000
HamD_16x16_tNone_bNone 402b580000000000
HamD_16x16_tNone_bSome(2) 402b580000000000
HamD_16x16_tSome(0.5)_bNone 4027700000000000
HamD_16x16_tSome(0.5)_bSome(2) 4027700000000000
MD_16x16_tNone_bNone 40289c0000000000
MD_16x16_tNone_bSome(2) 40289c0000000000
MD_16x16_tSome(0.5)_bNone 40289c0000000000
MD_16x16_tSome(0.5)_bSome(2) 40289c0000000000
DTW_empty err input sequence is empty
DTW_loud err value 100 outside encodable range (max magnitude 6.25)
LCS_empty err input sequence is empty
LCS_loud err value 100 outside encodable range (max magnitude 6.25)
EdD_empty err input sequence is empty
EdD_loud err value 100 outside encodable range (max magnitude 6.25)
HauD_empty err input sequence is empty
HauD_loud err value 100 outside encodable range (max magnitude 6.25)
HamD_empty err sequences must have equal length, got 0 and 8
HamD_loud err value 100 outside encodable range (max magnitude 6.25)
MD_empty err sequences must have equal length, got 0 and 8
MD_loud err value 100 outside encodable range (max magnitude 6.25)
";
