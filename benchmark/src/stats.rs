//! Order statistics over timing samples.

/// The share of a set of timings at or below its gated statistic, the
/// 2nd percentile: low enough to sit under the bursts of interference this
/// host suffers, and with a hundred samples or more not the minimum, which
/// picks up rare fast outliers (README, "Why a low quantile, and which").
pub const LOW: f64 = 0.02;

/// Nearest-rank quantile of `samples` (any order): the smallest sample
/// with at least a share `q` of all samples at or below it. With at most
/// fifty samples the 2nd percentile is therefore the minimum.
///
/// # Panics
/// Panics on an empty slice or a `q` outside `(0, 1]`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile share {q} outside (0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The gated statistic and its ungated diagnostics for one set of samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    /// The [`LOW`] quantile: the gated value.
    pub low: f64,
    pub median: f64,
    pub p90: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        Summary {
            n: samples.len(),
            low: quantile(samples, LOW),
            median: quantile(samples, 0.5),
            p90: quantile(samples, 0.9),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_twenty_samples() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.1), 2.0);
        assert_eq!(quantile(&v, 0.5), 10.0);
        assert_eq!(quantile(&v, 0.9), 18.0);
        assert_eq!(quantile(&v, 1.0), 20.0);
    }

    #[test]
    fn lower_decile_is_the_minimum_below_ten_samples() {
        for n in 1..10 {
            let v: Vec<f64> = (0..n).map(|i| 7.0 + f64::from(i)).rev().collect();
            assert_eq!(quantile(&v, 0.1), 7.0, "n = {n}");
        }
        // Eleven samples: rank ceil(1.1) = 2.
        let v: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.1), 1.0);
    }

    #[test]
    fn the_gated_quantile_is_the_minimum_up_to_fifty_samples() {
        for n in [1, 22, 50] {
            let v: Vec<f64> = (0..n).map(|i| 7.0 + f64::from(i)).rev().collect();
            assert_eq!(quantile(&v, LOW), 7.0, "n = {n}");
        }
        // 51 samples: rank ceil(1.02) = 2; 1500 samples: rank 30.
        let v: Vec<f64> = (0..51).map(f64::from).collect();
        assert_eq!(quantile(&v, LOW), 1.0);
        let v: Vec<f64> = (0..1500).map(f64::from).collect();
        assert_eq!(quantile(&v, LOW), 29.0);
    }

    #[test]
    fn summary_of_one_sample_is_that_sample() {
        let s = Summary::of(&[3.5]);
        assert_eq!((s.n, s.low, s.median, s.p90), (1, 3.5, 3.5, 3.5));
    }
}
