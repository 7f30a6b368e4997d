//! Exact order statistics over raw samples.
//!
//! Every percentile is read from the sorted samples themselves, never from
//! a bucketed histogram, and is reported together with its sample count.

/// Median of `values` (mean of the two middle samples when `n` is even);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The tail sample: the highest-ranked sample that still has at least
/// `beyond` samples above it in sorted order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Its percentile, `100 · (n − beyond) / n`.
    pub percentile: f64,
    /// Total samples.
    pub n: usize,
}

/// The highest percentile with at least `beyond` samples beyond it. With
/// `n ≤ beyond` no such sample exists, and the smallest sample is
/// returned instead.
pub fn tail(values: &[f64], beyond: usize) -> Tail {
    let s = sorted(values);
    let n = s.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            n,
        };
    }
    // Index n−beyond−1 has exactly `beyond` samples after it.
    let idx = n.saturating_sub(beyond + 1);
    Tail {
        value: s[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        n,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Length of the union of half-open intervals `[start, end)`.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_exact() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&v, 10);
        assert_eq!((t.value, t.percentile, t.n), (10.0, 50.0, 20));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 10);
        assert_eq!((t.value, t.percentile), (990.0, 99.0));
        assert_eq!(tail(&[5.0, 6.0], 10).value, 5.0);
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&mut []), 0);
    }
}
