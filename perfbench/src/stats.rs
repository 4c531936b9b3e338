//! Order statistics and ratios used by every metric the benchmark prints.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.to_vec();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The highest percentile of `n` samples that still has at least
/// `beyond` samples above it: `100 · (1 − beyond / n)`, floored to a
/// whole percent. `None` when fewer than `beyond + 1` samples exist — no
/// percentile is then supported beyond the median.
pub fn supported_percentile(n: usize, beyond: usize) -> Option<u32> {
    if n <= beyond {
        return None;
    }
    let p = 100.0 * (1.0 - beyond as f64 / n as f64);
    Some(p.floor() as u32)
}

/// The `p`-th percentile of `values` by the nearest-rank rule: the
/// smallest sample with at least `p`% of the samples at or below it.
pub fn percentile(values: &[f64], p: u32) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p.min(100) as f64 / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// `numerator / base`, or `0.0` when the base is zero: every ratio the
/// benchmark prints names its base, and an empty base means the layer
/// did no work on this workload.
pub fn ratio(numerator: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        numerator / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        // 10 samples support nothing beyond the minimum's rank.
        assert_eq!(supported_percentile(10, 10), None);
        assert_eq!(supported_percentile(11, 10), Some(9));
        // 100 samples: p90 leaves exactly 10 above it.
        assert_eq!(supported_percentile(100, 10), Some(90));
        // 1000 samples: p99.
        assert_eq!(supported_percentile(1000, 10), Some(99));
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = supported_percentile(samples.len(), 10).unwrap();
        let v = percentile(&samples, p).unwrap();
        assert_eq!(v, 90.0);
        assert_eq!(samples.iter().filter(|&&s| s > v).count(), 10);
    }

    #[test]
    fn percentile_edges() {
        let s = [5.0, 1.0, 3.0];
        assert_eq!(percentile(&s, 0), Some(1.0));
        assert_eq!(percentile(&s, 50), Some(3.0));
        assert_eq!(percentile(&s, 100), Some(5.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn ratios_name_their_base() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        // A layer that did nothing reports zero, not NaN or infinity.
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(5.0, 0.0), 0.0);
    }
}
