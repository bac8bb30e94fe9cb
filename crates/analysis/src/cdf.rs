//! Cumulative distribution functions.
//!
//! Figures 2 and 7 plot, against request size, both the fraction of
//! *requests* at or below that size and the fraction of *data* moved
//! by requests at or below that size. [`Cdf`] supports both weightings
//! from one sample set.

/// An empirical CDF over `u64` samples (request sizes, in the paper's
/// use).
///
/// ```
/// use sioscope_analysis::Cdf;
///
/// // 97 small requests + 3 large ones: most *requests* are small,
/// // most *data* moves in the large ones — the paper's signature.
/// let mut sizes = vec![1024u64; 97];
/// sizes.extend([131072; 3]);
/// let cdf = Cdf::from_samples(sizes);
/// assert!(cdf.fraction_leq(2048) > 0.96);
/// assert!(cdf.weight_fraction_leq(2048) < 0.21);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cdf {
    /// Sorted distinct sample values.
    values: Vec<u64>,
    /// Cumulative count at each value.
    cum_count: Vec<u64>,
    /// Cumulative weight (sum of values ≤ v) at each value.
    cum_weight: Vec<u128>,
    total_count: u64,
    total_weight: u128,
}

impl Cdf {
    /// Build from raw samples. Accepts any order; zero-size samples
    /// are kept (a zero-byte request is still a request).
    pub fn from_samples(mut samples: Vec<u64>) -> Self {
        samples.sort_unstable();
        Self::from_sorted(samples)
    }

    /// Build the request-size CDF for one operation kind straight from
    /// a [`TraceIndex`](sioscope_trace::TraceIndex), whose per-kind
    /// size column is kept pre-sorted — skipping the O(n log n) sort
    /// [`from_samples`](Cdf::from_samples) pays.
    pub fn of_kind(index: &sioscope_trace::TraceIndex, kind: sioscope_pfs::OpKind) -> Self {
        Self::from_sorted(index.sizes_sorted_of(kind).to_vec())
    }

    /// Build from samples already in ascending order.
    pub(crate) fn from_sorted(samples: Vec<u64>) -> Self {
        debug_assert!(samples.windows(2).all(|w| w[0] <= w[1]), "samples unsorted");
        let mut values = Vec::new();
        let mut cum_count = Vec::new();
        let mut cum_weight = Vec::new();
        let mut count = 0u64;
        let mut weight = 0u128;
        let mut i = 0;
        while i < samples.len() {
            let v = samples[i];
            while i < samples.len() && samples[i] == v {
                count += 1;
                weight += u128::from(v);
                i += 1;
            }
            values.push(v);
            cum_count.push(count);
            cum_weight.push(weight);
        }
        Cdf {
            values,
            cum_count,
            cum_weight,
            total_count: count,
            total_weight: weight,
        }
    }

    /// Number of samples.
    pub fn n(&self) -> u64 {
        self.total_count
    }

    /// `true` iff built from no samples.
    pub fn is_empty(&self) -> bool {
        self.total_count == 0
    }

    /// Fraction of samples ≤ `x` (in `[0, 1]`; zero for an empty CDF).
    pub fn fraction_leq(&self, x: u64) -> f64 {
        if self.total_count == 0 {
            return 0.0;
        }
        match self.values.partition_point(|&v| v <= x) {
            0 => 0.0,
            i => self.cum_count[i - 1] as f64 / self.total_count as f64,
        }
    }

    /// Fraction of total weight carried by samples ≤ `x` — the
    /// "fraction of data" curve of Figures 2 and 7.
    pub fn weight_fraction_leq(&self, x: u64) -> f64 {
        if self.total_weight == 0 {
            return 0.0;
        }
        match self.values.partition_point(|&v| v <= x) {
            0 => 0.0,
            i => self.cum_weight[i - 1] as f64 / self.total_weight as f64,
        }
    }

    /// The distinct sample values in ascending order.
    pub(crate) fn support(&self) -> &[u64] {
        &self.values
    }

    /// Smallest value `v` with `fraction_leq(v) >= q` (the
    /// q-quantile); `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total_count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total_count as f64).ceil().max(1.0) as u64;
        let i = self.cum_count.partition_point(|&c| c < target);
        self.values.get(i.min(self.values.len() - 1)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cdf_is_zero_everywhere() {
        let c = Cdf::from_samples(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.fraction_leq(100), 0.0);
        assert_eq!(c.weight_fraction_leq(100), 0.0);
        assert_eq!(c.quantile(0.5), None);
    }

    #[test]
    fn count_fractions() {
        let c = Cdf::from_samples(vec![10, 20, 30, 40]);
        assert_eq!(c.n(), 4);
        assert_eq!(c.fraction_leq(5), 0.0);
        assert_eq!(c.fraction_leq(10), 0.25);
        assert_eq!(c.fraction_leq(25), 0.5);
        assert_eq!(c.fraction_leq(40), 1.0);
        assert_eq!(c.fraction_leq(1000), 1.0);
    }

    #[test]
    fn weight_fractions_favor_large_samples() {
        // The paper's signature: most requests small, most data large.
        // 97 requests of 1 KB + 3 requests of 128 KB.
        let mut samples = vec![1024u64; 97];
        samples.extend([131072u64; 3]);
        let c = Cdf::from_samples(samples);
        assert!(c.fraction_leq(2048) > 0.96);
        assert!(c.weight_fraction_leq(2048) < 0.21);
        assert!((c.weight_fraction_leq(131072) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn duplicates_collapse_in_support() {
        let c = Cdf::from_samples(vec![5, 5, 5, 7]);
        assert_eq!(c.support(), &[5, 7]);
        assert_eq!(c.fraction_leq(5), 0.75);
    }

    #[test]
    fn quantiles() {
        let c = Cdf::from_samples(vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(c.quantile(0.5), Some(5));
        assert_eq!(c.quantile(0.0), Some(1));
        assert_eq!(c.quantile(1.0), Some(10));
        assert_eq!(c.quantile(0.91), Some(10));
    }

    #[test]
    fn zero_sized_samples_count_but_weigh_nothing() {
        let c = Cdf::from_samples(vec![0, 0, 10]);
        assert_eq!(c.n(), 3);
        assert!((c.fraction_leq(0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.weight_fraction_leq(0), 0.0);
    }
}
