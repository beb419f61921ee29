//! Order statistics for the reported timings.

/// The median of `samples` (mean of the middle pair for an even count);
/// 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The arithmetic mean of `samples`; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// A tail latency: the highest percentile that still has
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    /// Samples strictly beyond `value` in the sorted order.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `samples`. With `2 * TAIL_BEYOND` samples or fewer the
/// qualifying percentile would not lie above the median, so the maximum
/// is reported instead, with `beyond` 0 to make the shortfall visible.
pub fn tail(samples: &[f64]) -> Tail {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            beyond: 0,
            samples: 0,
        };
    }
    let (index, beyond) = if n > 2 * TAIL_BEYOND {
        (n - 1 - TAIL_BEYOND, TAIL_BEYOND)
    } else {
        (n - 1, 0)
    };
    Tail {
        value: sorted[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        beyond,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 90.0);
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&few);
        assert_eq!((t.value, t.beyond, t.samples), (20.0, 0, 20));
    }
}
