//! Percentiles, window medians, quartile spread, and the timing loop of the
//! ladder rungs.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of the values (mean of the middle two when the count is even);
/// `None` when there are none.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Latencies of one step, filed by the 0-based time window their request
/// was due in.
#[derive(Default)]
pub struct Windows {
    by_window: Vec<Vec<u64>>,
}

impl Windows {
    pub fn new(windows: usize) -> Self {
        Windows {
            by_window: vec![Vec::new(); windows],
        }
    }

    pub fn record(&mut self, window: usize, latency_ns: u64) {
        let last = self.by_window.len() - 1;
        self.by_window[window.min(last)].push(latency_ns);
    }

    /// Sorts every window; call once before [`Self::percentiles`].
    pub fn seal(&mut self) {
        for w in &mut self.by_window {
            w.sort_unstable();
        }
    }

    /// Each non-empty window's `p` percentile, in microseconds.
    pub fn percentiles(&self, p: f64) -> Vec<f64> {
        self.by_window
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| percentile(w, p) as f64 / 1e3)
            .collect()
    }

    /// Every sample, ascending (for the pooled tail report).
    pub fn pooled(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self.by_window.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it; `None` below twenty samples.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    (n >= 20).then(|| 1.0 - 10.0 / n as f64)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (the exclusive method). `None` below two values or at a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |i: usize| {
        let pos = i as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v)?;
    (med != 0.0).then(|| (quartile(3) - quartile(1)) / med.abs())
}

/// Times `batches` batches of `batch` calls of `f` and returns the median
/// nanoseconds per call. Batching keeps the two clock reads (tens of
/// nanoseconds) out of calls that are themselves tens of nanoseconds.
pub fn median_ns_per_call(batches: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call = Vec::with_capacity(batches);
    let mut i = 0usize;
    for _ in 0..batches {
        let t0 = std::time::Instant::now();
        for _ in 0..batch {
            f(i);
            i += 1;
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&per_call).expect("at least one batch")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_exact_sort() {
        // 1..=1000 shuffled deterministically.
        let mut v: Vec<u64> = (1..=1000).map(|i| (i * 7919) % 1000 + 1).collect();
        v.sort_unstable();
        assert_eq!(v, (1..=1000).collect::<Vec<u64>>());
        assert_eq!(percentile(&v, 0.5), 500);
        assert_eq!(percentile(&v, 0.99), 990);
        assert_eq!(percentile(&v, 0.999), 999);
        assert_eq!(percentile(&v, 1.0), 1000);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[42], 0.99), 42);
    }

    #[test]
    fn window_median_ignores_one_stalled_window() {
        let mut w = Windows::new(5);
        for window in 0..5 {
            for i in 1..=100u64 {
                // Window 3 stalled: everything took 50 ms longer.
                let stall = if window == 3 { 50_000_000 } else { 0 };
                w.record(window, i * 1_000 + stall);
            }
        }
        w.seal();
        assert_eq!(w.pooled().len(), 500);
        assert_eq!(median(&w.percentiles(0.5)), Some(50.0));
        assert_eq!(median(&w.percentiles(0.99)), Some(99.0));
        assert_eq!(w.percentiles(0.5)[3], 50_050.0);
        // The pooled p99 sees the stall; the window median does not.
        assert!(percentile(&w.pooled(), 0.99) > 50_000_000);
        // A sample due past the last window is filed in the last one.
        w.record(9, 1);
        assert_eq!(w.pooled().len(), 501);
    }

    #[test]
    fn empty_windows_are_skipped() {
        let mut w = Windows::new(4);
        w.record(1, 7_000);
        w.seal();
        assert_eq!(w.percentiles(0.5), vec![7.0]);
        assert!(Windows::new(3).percentiles(0.5).is_empty());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let got = quartile_spread(&v).unwrap();
        assert!((got - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{got}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let got = quartile_spread(&[1.0, 2.0]).unwrap();
        assert!((got - 1.0).abs() < 1e-12, "{got}");
        assert_eq!(quartile_spread(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(100_000), Some(0.9999));
    }
}
