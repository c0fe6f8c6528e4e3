//! Order statistics over per-iteration samples.

/// Sorts a copy of `v` ascending (NaN-free input).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v`; 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Percentiles the tail is chosen from, highest first. They are a
/// factor ten apart in the samples they need, so a run's sample count
/// sits far from the point where the choice flips.
const TAIL_LADDER: [f64; 3] = [99.9, 99.0, 90.0];

/// A tail percentile with the samples it rests on.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    /// The percentile, e.g. 99.0.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples strictly beyond it (at least ten, unless too few samples
    /// exist for even the lowest percentile).
    pub beyond: usize,
}

/// The highest ladder percentile with at least ten samples beyond it;
/// the lowest ladder percentile when no percentile has ten.
pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    let n = s.len();
    let at = |pct: f64| {
        let beyond = n - (pct * n as f64 / 100.0).ceil() as usize;
        Tail {
            pct,
            value: s[n - 1 - beyond.min(n - 1)],
            beyond: beyond.min(n - 1),
        }
    };
    TAIL_LADDER
        .iter()
        .map(|&pct| at(pct))
        .find(|t| t.beyond >= 10)
        .unwrap_or_else(|| at(TAIL_LADDER[TAIL_LADDER.len() - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_beyond() {
        let v: Vec<f64> = (0..500).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.beyond, 50);
        assert_eq!(t.value, 449.0);
        let v: Vec<f64> = (0..2000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.beyond, 20);
    }
}
