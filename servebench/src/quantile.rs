//! Nearest-rank percentiles and medians.

/// The nearest-rank `p`-th percentile of sorted samples: the smallest
/// sample with at least `p`% of all samples at or below it. `None` on
/// no samples.
pub fn nearest_rank(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the middle pair for an even count);
/// `None` on no values.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// Round-trip times in nanoseconds, summarised by nearest rank.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    samples: Vec<u64>,
    sorted: bool,
}

impl Latencies {
    /// An empty set with room for `capacity` samples.
    pub fn with_capacity(capacity: usize) -> Self {
        Latencies { samples: Vec::with_capacity(capacity), sorted: true }
    }

    /// Adds one sample.
    pub fn push(&mut self, ns: u64) {
        self.samples.push(ns);
        self.sorted = false;
    }

    /// Adds every sample of `other`.
    pub fn extend(&mut self, other: &Latencies) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The nearest-rank `p`-th percentile in nanoseconds.
    pub fn percentile(&mut self, p: f64) -> Option<u64> {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        nearest_rank(&self.samples, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&sorted, 50.0), Some(50));
        assert_eq!(nearest_rank(&sorted, 99.0), Some(99));
        assert_eq!(nearest_rank(&sorted, 100.0), Some(100));
        assert_eq!(nearest_rank(&sorted, 0.0), Some(1));
        assert_eq!(nearest_rank(&[7], 99.0), Some(7));
        assert_eq!(nearest_rank(&[], 50.0), None);
        // Nearest rank never interpolates: the 50th percentile of four
        // samples is the second one.
        assert_eq!(nearest_rank(&[10, 20, 30, 40], 50.0), Some(20));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn latencies_sort_lazily_and_merge() {
        let mut a = Latencies::with_capacity(4);
        for ns in [40, 10, 30, 20] {
            a.push(ns);
        }
        assert_eq!(a.percentile(50.0), Some(20));
        let mut b = Latencies::default();
        b.push(5);
        b.extend(&a);
        assert_eq!(b.len(), 5);
        assert_eq!(b.percentile(0.0), Some(5));
        assert_eq!(b.percentile(100.0), Some(40));
    }
}
