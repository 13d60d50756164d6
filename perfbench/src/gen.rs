//! Seeded input generation. Every input a workload sends is drawn from
//! [`Rng`], so one `--seed` always produces the same inputs.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the workloads'
    /// independent input streams do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller).
    pub fn gaussian(&mut self) -> f64 {
        let u = self.unit().max(f64::MIN_POSITIVE);
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// A Gaussian random walk of `len` points.
pub fn random_walk(rng: &mut Rng, len: usize) -> Vec<f64> {
    let mut x = 0.0;
    (0..len)
        .map(|_| {
            x += rng.gaussian();
            x
        })
        .collect()
}

/// A window of `walk` at a random offset, centred and scaled so its largest
/// magnitude is `peak`. Keeping series inside the accelerator's encodable
/// range lets tolerance-tagged requests actually run on the analog paths.
pub fn scaled_slice(rng: &mut Rng, walk: &[f64], len: usize, peak: f64) -> Vec<f64> {
    let start = rng.below(walk.len() - len + 1);
    let slice = &walk[start..start + len];
    let mean = slice.iter().sum::<f64>() / len as f64;
    let max = slice
        .iter()
        .map(|x| (x - mean).abs())
        .fold(0.0f64, f64::max)
        .max(1e-9);
    slice.iter().map(|x| (x - mean) / max * peak).collect()
}

/// A mean-reverting walk (AR(1), φ = 0.995): random-walk-like locally but
/// stationary, so a long stream keeps revisiting the query's range and the
/// pruning mix does not drift with the seed.
#[derive(Debug, Clone)]
pub struct StreamSource {
    rng: Rng,
    x: f64,
}

impl StreamSource {
    pub fn new(seed: u64, stream: u64) -> StreamSource {
        StreamSource {
            rng: Rng::new(seed, stream),
            x: 0.0,
        }
    }

    pub fn next_point(&mut self) -> f64 {
        self.x = 0.995 * self.x + self.rng.gaussian();
        self.x
    }

    pub fn take(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next_point()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = random_walk(&mut Rng::new(7, 1), 100);
        let b = random_walk(&mut Rng::new(7, 1), 100);
        let c = random_walk(&mut Rng::new(8, 1), 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(
            StreamSource::new(3, 2).take(50),
            StreamSource::new(3, 2).take(50)
        );
    }

    #[test]
    fn scaled_slice_respects_peak() {
        let mut rng = Rng::new(1, 2);
        let walk = random_walk(&mut rng, 1000);
        let s = scaled_slice(&mut rng, &walk, 64, 3.0);
        assert_eq!(s.len(), 64);
        let peak = s.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        assert!((peak - 3.0).abs() < 1e-12);
    }
}
