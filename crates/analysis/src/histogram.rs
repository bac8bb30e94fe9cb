//! Log-binned histograms.
//!
//! Request-size distributions in parallel-I/O studies span six orders
//! of magnitude (the paper's CDF x-axes run 1 B – 1 MB on log scales);
//! power-of-two binning is the standard presentation.

use std::fmt::Write as _;

/// A histogram over power-of-two bins: bin `i` covers
/// `[2^i, 2^(i+1))`, with a dedicated bin for zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    zero: u64,
    bins: Vec<u64>,
    total: u64,
}

impl LogHistogram {
    /// Build from samples.
    pub fn from_samples(samples: impl IntoIterator<Item = u64>) -> Self {
        let mut h = LogHistogram {
            zero: 0,
            bins: Vec::new(),
            total: 0,
        };
        for s in samples {
            h.add(s);
        }
        h
    }

    /// The request-size histogram of one operation kind, from a
    /// [`TraceIndex`](sioscope_trace::TraceIndex) posting list —
    /// binning commutes, so the result matches
    /// [`from_samples`](LogHistogram::from_samples) over a scan.
    pub fn of_kind(index: &sioscope_trace::TraceIndex, kind: sioscope_pfs::OpKind) -> Self {
        Self::from_samples(index.sizes_sorted_of(kind).iter().copied())
    }

    /// Add one sample.
    pub(crate) fn add(&mut self, value: u64) {
        self.total += 1;
        if value == 0 {
            self.zero += 1;
            return;
        }
        let bin = 63 - value.leading_zeros() as usize; // floor(log2)
        if self.bins.len() <= bin {
            self.bins.resize(bin + 1, 0);
        }
        self.bins[bin] += 1;
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The bin with the most samples, as `(lower_bound, count)`;
    /// `None` if only zeros or empty.
    pub fn mode_bin(&self) -> Option<(u64, u64)> {
        self.bins
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (1u64 << i, c))
    }

    /// Occupied bins as `(lower_bound, count)`, ascending.
    pub(crate) fn occupied(&self) -> Vec<(u64, u64)> {
        self.bins
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (1u64 << i, c))
            .collect()
    }

    /// Render an ASCII bar chart (one row per occupied bin).
    pub fn render(&self, title: &str, width: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let max = self
            .bins
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(self.zero)
            .max(1);
        if self.zero > 0 {
            let len = (self.zero as usize * width) / max as usize;
            let _ = writeln!(out, "{:>10} |{} {}", 0, "#".repeat(len), self.zero);
        }
        for (lo, c) in self.occupied() {
            let len = (c as usize * width) / max as usize;
            let _ = writeln!(out, "{lo:>10} |{} {c}", "#".repeat(len));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binning_is_power_of_two() {
        let h = LogHistogram::from_samples([1, 2, 3, 4, 7, 8, 1024, 1025]);
        assert_eq!(h.bins[0], 1); // [1,2)
        assert_eq!(h.bins[1], 2); // [2,4): 2,3
        assert_eq!(h.bins[2], 2); // [4,8): 4,7
        assert_eq!(h.bins[3], 1); // [8,16): 8
        assert_eq!(h.bins[10], 2); // [1024,2048)
        assert_eq!(h.total(), 8);
    }

    #[test]
    fn zero_has_its_own_bin() {
        let h = LogHistogram::from_samples([0, 0, 1]);
        assert_eq!(h.zero, 2);
        assert_eq!(h.bins[0], 1);
    }

    #[test]
    fn mode_bin_finds_the_peak() {
        let mut samples = vec![1024u64; 90];
        samples.extend([131072u64; 10]);
        let h = LogHistogram::from_samples(samples);
        assert_eq!(h.mode_bin(), Some((1024, 90)));
    }

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::from_samples([]);
        assert_eq!(h.total(), 0);
        assert_eq!(h.mode_bin(), None);
        assert!(h.occupied().is_empty());
    }

    #[test]
    fn render_shows_bounds_and_counts() {
        let h = LogHistogram::from_samples([0, 5, 5, 2048]);
        let text = h.render("sizes", 20);
        assert!(text.contains("sizes"));
        assert!(text.contains("2048"));
        assert!(text.lines().count() >= 4);
    }
}
