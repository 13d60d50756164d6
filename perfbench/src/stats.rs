//! Summary statistics over measured samples.

/// Nearest-rank percentile: the smallest sample with at least `q` of all
/// samples at or below it. `q` is a fraction in `[0, 1]`; `q = 0` gives the
/// minimum. Sorts `samples` in place.
///
/// # Panics
///
/// On an empty sample set or a `q` outside `[0, 1]`.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(
        (0.0..=1.0).contains(&q),
        "percentile fraction {q} outside [0, 1]"
    );
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of the samples (nearest rank). Sorts `samples` in place.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// A timed pass cut into equal time slices, each summarised on its own.
/// Interference from outside the benchmark (other guests' CPU steal on a
/// shared host) only ever slows a slice down, so each figure is taken from
/// the quicker quarter of the slices: the upper quartile of per-slice rates,
/// the lower quartile of per-slice latencies. That reads the system as it
/// runs undisturbed, as long as a quarter of the pass was. Completions
/// outside the pass (warm-up, the closed loop's final drain) are left out.
#[derive(Debug, Clone)]
pub struct Slices {
    slice_s: f64,
    slices: Vec<Slice>,
}

#[derive(Debug, Clone, Default)]
struct Slice {
    points: u64,
    windows: u64,
    /// One per completion; `f32` keeps a long pass's log small.
    latencies_us: Vec<f32>,
}

impl Slices {
    pub fn new(pass_s: f64, slice_s: f64) -> Slices {
        let n = ((pass_s / slice_s).floor() as usize).max(1);
        Slices {
            slice_s,
            slices: vec![Slice::default(); n],
        }
    }

    /// Records one completion `at_s` seconds into the pass that delivered
    /// `points` series points and evaluated `windows` distance windows.
    pub fn record(&mut self, at_s: f64, latency_us: f64, points: u64, windows: u64) {
        if at_s < 0.0 {
            return;
        }
        if let Some(slice) = self.slices.get_mut((at_s / self.slice_s) as usize) {
            slice.points += points;
            slice.windows += windows;
            slice.latencies_us.push(latency_us as f32);
        }
    }

    /// Adds another log of the same pass (another connection's).
    pub fn merge(&mut self, other: &Slices) {
        for (mine, theirs) in self.slices.iter_mut().zip(&other.slices) {
            mine.points += theirs.points;
            mine.windows += theirs.windows;
            mine.latencies_us.extend_from_slice(&theirs.latencies_us);
        }
    }

    /// Percentile `q` over slices of `f` applied to each slice.
    fn over_slices(&self, q: f64, f: impl Fn(&Slice) -> f64) -> f64 {
        let mut per_slice: Vec<f64> = self.slices.iter().map(f).collect();
        percentile(&mut per_slice, q)
    }

    /// Completions per second.
    pub fn rate(&self) -> f64 {
        self.over_slices(QUICKER_QUARTER_RATE, |s| {
            s.latencies_us.len() as f64 / self.slice_s
        })
    }

    pub fn points_per_s(&self) -> f64 {
        self.over_slices(QUICKER_QUARTER_RATE, |s| s.points as f64 / self.slice_s)
    }

    pub fn windows_per_s(&self) -> f64 {
        self.over_slices(QUICKER_QUARTER_RATE, |s| s.windows as f64 / self.slice_s)
    }

    /// Each slice's latency percentile `q`, taken over slices at the lower
    /// quartile.
    ///
    /// # Panics
    ///
    /// When a slice holds no completion.
    pub fn latency(&self, q: f64) -> f64 {
        self.over_slices(QUICKER_QUARTER_LATENCY, |s| {
            let mut lat: Vec<f64> = s.latencies_us.iter().map(|&x| f64::from(x)).collect();
            percentile(&mut lat, q)
        })
    }
}

/// Where, over slices, a rate is read: its upper quartile.
const QUICKER_QUARTER_RATE: f64 = 0.75;
/// Where, over slices, a latency is read: its lower quartile.
const QUICKER_QUARTER_LATENCY: f64 = 0.25;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_selection() {
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 0.5), 50.0);
        assert_eq!(percentile(&mut xs, 0.99), 99.0);
        assert_eq!(percentile(&mut xs, 1.0), 100.0);
        assert_eq!(percentile(&mut xs, 0.0), 1.0);
        assert_eq!(percentile(&mut xs, 0.001), 1.0);
    }

    #[test]
    fn small_sets_round_up() {
        let mut xs = vec![3.0, 1.0, 2.0];
        assert_eq!(median(&mut xs), 2.0);
        assert_eq!(percentile(&mut xs, 0.99), 3.0);
        let mut one = vec![7.5];
        assert_eq!(percentile(&mut one, 0.5), 7.5);
        let mut even = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut even), 2.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_set_panics() {
        percentile(&mut [], 0.5);
    }

    #[test]
    fn slices_read_the_quicker_quarter_and_drop_what_lies_outside() {
        // Three 1 s slices holding 2, 4 and 3 completions, plus one from the
        // warm-up and one from the drain.
        let mut s = Slices::new(3.0, 1.0);
        for (at, lat) in [
            (-0.1, 9999.0),
            (0.1, 10.0),
            (0.9, 30.0),
            (1.0, 5.0),
            (1.2, 6.0),
            (1.5, 7.0),
            (1.9, 500.0),
            (2.0, 20.0),
            (2.5, 21.0),
            (2.99, 22.0),
            (3.01, 9999.0),
        ] {
            s.record(at, lat, 10, 1);
        }
        // Slice rates 2, 4, 3: the upper quartile is the fastest of three.
        assert_eq!(s.rate(), 4.0);
        assert_eq!(s.points_per_s(), 40.0);
        assert_eq!(s.windows_per_s(), 4.0);
        // Per-slice p50 10, 6, 21 and maxima 30, 500, 22: lower quartiles.
        assert_eq!(s.latency(0.5), 6.0);
        assert_eq!(s.latency(1.0), 22.0);
    }

    #[test]
    fn merged_logs_pool_their_slices() {
        let mut a = Slices::new(2.0, 1.0);
        let mut b = Slices::new(2.0, 1.0);
        a.record(0.5, 1.0, 1, 1);
        b.record(0.5, 3.0, 1, 1);
        b.record(1.5, 2.0, 1, 1);
        a.merge(&b);
        // Slice rates 2 and 1; slice maxima 3 and 2.
        assert_eq!(a.rate(), 2.0);
        assert_eq!(a.latency(1.0), 2.0);
    }

    #[test]
    fn a_short_pass_is_one_slice() {
        let mut s = Slices::new(0.5, 1.0);
        s.record(0.2, 1.0, 0, 1);
        s.record(0.4, 3.0, 0, 1);
        assert_eq!(s.rate(), 2.0);
        assert_eq!(s.latency(0.99), 3.0);
    }
}
