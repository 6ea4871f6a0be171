//! Sample summaries under the benchmark's reporting rule: a percentile
//! is reported only when at least [`MIN_BEYOND`] samples lie beyond it,
//! so no tail figure rests on a handful of outliers.

/// Samples that must lie strictly above a percentile for it to count.
pub const MIN_BEYOND: usize = 10;

/// Sorted samples (any integer unit; the caller names it).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<u64>,
}

impl Samples {
    /// Takes ownership of unsorted samples.
    pub fn new(mut values: Vec<u64>) -> Self {
        values.sort_unstable();
        Self { sorted: values }
    }

    /// The nearest-rank `q` percentile (`q` in `0..=1`), or `None` when
    /// fewer than [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        let n = self.sorted.len();
        let rank = rank(n, q)?;
        (n - rank >= MIN_BEYOND).then(|| self.sorted[rank - 1])
    }

    /// The median (`None` below `2 * MIN_BEYOND` samples).
    pub fn median(&self) -> Option<u64> {
        self.percentile(0.5)
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.sorted.last().copied().unwrap_or(0)
    }
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    Some(((q * n as f64).ceil() as usize).clamp(1, n))
}

/// The median over blocks of each block's `q` percentile: the figure
/// of a typical stretch of the run, so a burst of host contention that
/// hits one block in a run does not set it. Every block is long enough
/// to hold many periods of any periodic load (scrapes come every
/// 125 ms), so a stall that recurs at such a cadence lifts every
/// block's percentile and the median with it. `None` when there is no
/// block or some block does not support the percentile.
pub fn block_percentile<'a>(blocks: impl IntoIterator<Item = &'a [u64]>, q: f64) -> Option<u64> {
    let mut figures = blocks
        .into_iter()
        .map(|b| Samples::new(b.to_vec()).percentile(q))
        .collect::<Option<Vec<u64>>>()?;
    if figures.is_empty() {
        return None;
    }
    figures.sort_unstable();
    Some(figures[(figures.len() - 1) / 2])
}

/// Whether a bucketed histogram of `count` samples supports percentile
/// `q` under the same rule.
pub fn supported(count: u64, q: f64) -> bool {
    rank(count as usize, q).is_some_and(|r| count as usize - r >= MIN_BEYOND)
}

/// Median of floats (NaN-free input; 0 when empty).
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 999 samples: p99 has rank 990, leaving 9 beyond -> unreported.
        let s = Samples::new((1..=999).collect());
        assert_eq!(s.percentile(0.99), None);
        // 1000 samples: rank 990, 10 beyond -> reported.
        let s = Samples::new((1..=1000).collect());
        assert_eq!(s.percentile(0.99), Some(990));
        // The p999-on-5-samples defect: 4672 samples leave ~5 beyond p999.
        let s = Samples::new((0..4672).collect());
        assert_eq!(s.percentile(0.999), None);
        assert!(!supported(4672, 0.999));
        assert!(supported(10_000, 0.999));
    }

    /// Latencies of one 1.5 s block at 16k requests/s: 50-60 us, plus
    /// a stall of `stall_ns` every `every_ns` that holds the requests
    /// due inside it until it ends.
    fn block(stall_ns: u64, every_ns: u64) -> Vec<u64> {
        let gap = 1_000_000_000 / 16_000;
        (0..24_000u64)
            .map(|i| {
                let due = i * gap;
                let base = 50_000 + i % 10_000;
                let into = due % every_ns;
                if into < stall_ns {
                    base + stall_ns - into
                } else {
                    base
                }
            })
            .collect()
    }

    #[test]
    fn block_percentile_shows_a_stall_at_scrape_cadence() {
        let calm: Vec<Vec<u64>> = (0..5).map(|_| block(0, u64::MAX)).collect();
        let quiet = block_percentile(calm.iter().map(Vec::as_slice), 0.99).unwrap();
        assert!(quiet < 60_000, "{quiet}");
        // A 2 ms stall every 125 ms holds 1.6% of the requests: it lifts
        // every block's p99, so the median shows it.
        let stalled: Vec<Vec<u64>> = (0..5).map(|_| block(2_000_000, 125_000_000)).collect();
        let p = block_percentile(stalled.iter().map(Vec::as_slice), 0.99).unwrap();
        assert!(p > 200_000, "stall at scrape cadence must show: {p}");
        // A burst that hits two of five blocks does not set the figure.
        let mut mixed = calm.clone();
        mixed[1] = stalled[1].clone();
        mixed[3] = stalled[3].clone();
        assert_eq!(
            block_percentile(mixed.iter().map(Vec::as_slice), 0.99),
            Some(quiet)
        );
        // A block too short for its percentile leaves it unreported.
        let short = [&calm[0][..], &calm[1][..500]];
        assert_eq!(block_percentile(short, 0.99), None);
        assert_eq!(block_percentile(std::iter::empty(), 0.5), None);
    }

    #[test]
    fn median_and_empty_cases() {
        assert_eq!(Samples::new((1..=20).collect()).median(), Some(10));
        assert_eq!(Samples::new((1..=19).collect()).median(), None);
        assert_eq!(Samples::default().percentile(0.5), None);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
