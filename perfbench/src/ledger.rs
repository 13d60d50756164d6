//! The layer ledger's arithmetic: per-layer mean times and the residual
//! that no replayed layer accounts for.

/// A running mean of microsecond samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    sum: f64,
    n: usize,
}

impl Acc {
    pub fn add(&mut self, us: f64) {
        self.sum += us;
        self.n += 1;
    }

    /// Mean per sample; 0 when the layer never ran.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    pub fn count(&self) -> usize {
        self.n
    }

    /// Pools another layer's samples into this one.
    pub fn merge(&mut self, other: &Acc) {
        self.sum += other.sum;
        self.n += other.n;
    }
}

/// The part of a round trip no replayed layer accounts for: wire, syscalls,
/// wake-ups, queueing and the event loop's own bookkeeping. Means are
/// linear, so when every layer mean is taken over the same requests as the
/// round-trip mean, this is also the mean per-request residual. It is not
/// clamped: a negative value says the replayed layers ran slower in
/// isolation than inside the round trip.
pub fn residual(round_trip_us: f64, layers_us: &[f64]) -> f64 {
    round_trip_us - layers_us.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acc_means_and_empty_layers() {
        let mut a = Acc::default();
        assert_eq!(a.mean(), 0.0);
        a.add(2.0);
        a.add(4.0);
        assert_eq!(a.mean(), 3.0);
        let mut b = Acc::default();
        b.add(9.0);
        a.merge(&b);
        assert_eq!(a.mean(), 5.0);
    }

    #[test]
    fn residual_closes_the_sum() {
        let layers = [10.0, 7.5, 2.25, 30.0];
        let r = residual(100.0, &layers);
        assert_eq!(r, 50.25);
        assert_eq!(layers.iter().sum::<f64>() + r, 100.0);
    }

    #[test]
    fn residual_is_not_clamped() {
        assert_eq!(residual(10.0, &[6.0, 6.0]), -2.0);
        assert_eq!(residual(10.0, &[]), 10.0);
    }

    #[test]
    fn residual_of_means_is_mean_of_residuals() {
        // Three requests, two layers each.
        let rtt = [100.0, 140.0, 90.0];
        let enc = [10.0, 30.0, 5.0];
        let ker = [40.0, 50.0, 25.0];
        let (mut r, mut e, mut k) = (Acc::default(), Acc::default(), Acc::default());
        let mut per_request = Acc::default();
        for i in 0..3 {
            r.add(rtt[i]);
            e.add(enc[i]);
            k.add(ker[i]);
            per_request.add(residual(rtt[i], &[enc[i], ker[i]]));
        }
        let ledger = residual(r.mean(), &[e.mean(), k.mean()]);
        assert!((ledger - per_request.mean()).abs() < 1e-12);
    }
}
