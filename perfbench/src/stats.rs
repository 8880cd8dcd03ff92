//! Statistics helpers: the percentile rule and open-loop timing.
//!
//! Latencies are taken from each op's *scheduled* send instant, so a stall
//! that delays later sends is charged to them (no coordinated omission),
//! and the generator's own lateness is reported separately.

/// Samples beyond a tail percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the benchmark may report, highest first.
pub const LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Nearest-rank index of percentile `p` among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error (99.9 / 100 * 10000 = 9990.000…02)
    // from bumping an exact rank up by one.
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it (p50 needs as many), or `None` for too few samples.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile of sorted samples; `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p) - 1])
}

/// Latency of an op that was due at `sched_ns` and finished at `done_ns`
/// (both on the run's clock): the wait for a late send counts.
pub fn latency_from_sched(sched_ns: u64, done_ns: u64) -> u64 {
    done_ns.saturating_sub(sched_ns)
}

/// How late the generator issued an op due at `sched_ns`.
pub fn gen_lag(sched_ns: u64, issued_ns: u64) -> u64 {
    issued_ns.saturating_sub(sched_ns)
}

/// Most time windows a run's samples are split into; see
/// [`Samples::windows_us`].
pub const MAX_WINDOWS: usize = 16;

/// A set of nanosecond samples, each stamped with the instant (on the
/// run's clock) it belongs to.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<u64>, Vec<u64>);

impl Samples {
    pub fn push(&mut self, v: u64) {
        self.push_at(0, v);
    }

    pub fn push_at(&mut self, at_ns: u64, v: u64) {
        self.0.push(v);
        self.1.push(at_ns);
    }

    /// Percentile `p` in µs as the median over equal-count time windows:
    /// as many windows (at most [`MAX_WINDOWS`]) as leave each one at
    /// least [`MIN_BEYOND`] samples beyond `p`. One transient disturbance
    /// then moves one window, not the figure. Returns the value, the total
    /// sample count and each window's value (µs, in time order).
    pub fn windows_us(&self, p: f64) -> Result<(f64, usize, Vec<f64>), String> {
        let n = self.0.len();
        let windows = (1..=MAX_WINDOWS.min(n.max(1)))
            .rev()
            .find(|&w| beyond(n / w, p) >= MIN_BEYOND);
        let Some(w) = windows else {
            return Err(format!(
                "p{p} needs {MIN_BEYOND} samples beyond it; {n} samples support {:?}",
                highest_supported(n)
            ));
        };
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| self.1[i]);
        let per: Vec<u64> = order
            .chunks(n / w)
            .take(w)
            .map(|c| {
                let mut v: Vec<u64> = c.iter().map(|&i| self.0[i]).collect();
                v.sort_unstable();
                percentile(&v, p).expect("non-empty window")
            })
            .collect();
        let mut sorted = per.clone();
        sorted.sort_unstable();
        let mid = if w % 2 == 1 {
            sorted[w / 2] as f64
        } else {
            (sorted[w / 2 - 1] + sorted[w / 2]) as f64 / 2.0
        };
        Ok((mid / 1e3, n, per.iter().map(|&x| x as f64 / 1e3).collect()))
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
        self.1.extend_from_slice(&other.1);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Percentile `p` in µs, 0 when there are no samples (for per-layer
    /// figures, which are reported with their count).
    pub fn percentile_us_or_zero(&self, p: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_unstable();
        percentile(&v, p).map_or(0.0, |x| x as f64 / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
    }

    #[test]
    fn windowed_refuses_unsupported_tail() {
        let mut s = Samples::default();
        for i in 0..999 {
            s.push(i * 1000);
        }
        assert!(s.windows_us(99.0).is_err());
        // Nine windows of 111: the middle one, samples 444..555, has its
        // p90 at 444 + 99.
        let (v, n, per) = s.windows_us(90.0).unwrap();
        assert_eq!((v, n, per.len()), (543.0, 999, 9));
        s.push(999_000);
        // Exactly enough for one window of p99: the plain percentile.
        assert_eq!(s.windows_us(99.0).unwrap(), (989.0, 1000, vec![989.0]));
    }

    #[test]
    fn windowed_percentile_is_the_median_of_windows() {
        // Four windows of 1000; the third holds a stall.
        let mut s = Samples::default();
        for w in 0..4u64 {
            for i in 0..1000u64 {
                let v = if w == 2 { 50_000_000 } else { (i + 1) * 1000 };
                s.push_at(w * 1_000_000 + i, v);
            }
        }
        // p99 needs 1000 per window: four windows; median of 990, 990,
        // 990 and 50 000 µs.
        let (v, n, per) = s.windows_us(99.0).unwrap();
        assert_eq!((v, n), (990.0, 4000));
        assert_eq!(per, [990.0, 990.0, 50_000.0, 990.0]);
        // p50 could use 200 windows; capped at 8.
        assert_eq!(s.windows_us(50.0).unwrap().2.len(), MAX_WINDOWS);
        let mut few = Samples::default();
        (0..500).for_each(|i| few.push_at(i, i));
        assert!(few.windows_us(99.0).is_err());
        assert_eq!(few.windows_us(90.0).unwrap().2.len(), 5);
    }

    #[test]
    fn latency_counts_from_the_scheduled_instant() {
        // Due at 1 ms, issued 3 ms late, served in 0.5 ms: 3.5 ms latency.
        let (sched, issued, done) = (1_000_000, 4_000_000, 4_500_000);
        assert_eq!(latency_from_sched(sched, done), 3_500_000);
        assert_eq!(gen_lag(sched, issued), 3_000_000);
        // Issued early (never happens, but must not underflow).
        assert_eq!(gen_lag(5, 3), 0);
    }
}
