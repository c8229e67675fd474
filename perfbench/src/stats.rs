//! Order statistics over one run's samples.

/// Sorted copy of `v` (NaN-free input assumed: every sample is a
/// measured duration or count).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Geometric mean; 0 when any value is 0 or there are none.
pub fn geo_mean(v: &[f64]) -> f64 {
    if v.is_empty() || v.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// The highest percentile of a sample that still has at least ten
/// samples beyond it, with the percentile and the sample count. Below
/// 20 samples that percentile would fall under the median, down to the
/// minimum at 11 (and jump to the maximum at 10), so it stops at the
/// median (the lower middle sample for an even count): a short sample
/// has no tail to report, and says so by reporting its median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The order statistic.
    pub value: f64,
    /// Which percentile it is.
    pub pct: f64,
    /// Samples it was taken from.
    pub n: usize,
}

/// See [`Tail`].
pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    let n = s.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            pct: 100.0,
            n,
        };
    }
    // `beyond` samples lie above s[n - 1 - beyond].
    let beyond = 10.min(n / 2);
    Tail {
        value: s[n - 1 - beyond],
        pct: 100.0 * (n - beyond) as f64 / n as f64,
        n,
    }
}

/// Whether leg `n` of consecutive pairs `(0, 1), (2, 3), …` is the
/// traced one, alternating which leg of a pair goes first (ABBA), so a
/// drift over the run does not favour either side.
pub fn abba_traced(n: u64) -> bool {
    n.is_multiple_of(2) != (n / 2).is_multiple_of(2)
}

/// The tracing-overhead statistic: the median of paired
/// `traced / untraced` wall ratios, minus one. Unlike the minimum of
/// the ratios, its sign follows the typical pair, so a real overhead
/// shows as a positive value.
pub fn paired_overhead(pairs: &[(f64, f64)]) -> f64 {
    let ratios: Vec<f64> = pairs
        .iter()
        .filter(|(untraced, _)| *untraced > 0.0)
        .map(|(untraced, traced)| traced / untraced)
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        median(&ratios) - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.pct, 75.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        // Short samples stop at the median, never reach the extremes.
        for n in 1..20u32 {
            let v: Vec<f64> = (1..=n).map(f64::from).collect();
            assert_eq!(tail(&v).value, f64::from(n - n / 2), "n = {n}");
        }
    }

    #[test]
    fn geo_mean_weights_each_value_equally() {
        assert!((geo_mean(&[0.1, 1.0, 10.0]) - 1.0).abs() < 1e-12);
        assert_eq!(geo_mean(&[1.0, 0.0]), 0.0);
        assert_eq!(geo_mean(&[]), 0.0);
    }

    #[test]
    fn abba_legs_alternate_which_side_goes_first() {
        let legs: Vec<bool> = (0..8).map(abba_traced).collect();
        assert_eq!(legs, [false, true, true, false, false, true, true, false]);
    }

    #[test]
    fn paired_overhead_can_be_positive_and_negative() {
        let slower: Vec<(f64, f64)> = (1..=9)
            .map(|i| (f64::from(i), 1.05 * f64::from(i)))
            .collect();
        assert!((paired_overhead(&slower) - 0.05).abs() < 1e-12);
        // One lucky traced leg cannot pull the statistic below zero the
        // way the minimum of the ratios would.
        let mut mostly_slower = slower.clone();
        mostly_slower.push((1.0, 0.5));
        assert!(paired_overhead(&mostly_slower) > 0.0);
        let faster: Vec<(f64, f64)> = slower.iter().map(|&(a, b)| (b, a)).collect();
        assert!(paired_overhead(&faster) < 0.0);
    }
}
