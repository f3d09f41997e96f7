//! Order statistics for latency samples.

/// A sorted copy of `samples` (NaNs are never produced by the timers).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    v
}

/// Median of `samples`, or `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The lower quartile of `samples` (nearest rank), or `None` when empty.
pub fn lower_quartile(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    (!v.is_empty()).then(|| v[(v.len() - 1) / 4])
}

/// The `q` quantile (0 < q < 1) as the benchmark reports tails: when
/// fewer than ten samples lie beyond the `q` rank, it falls back to the
/// highest rank that still has ten samples beyond it (or the maximum for
/// tiny samples). Returns the value and the quantile actually used.
pub fn tail(samples: &[f64], q: f64) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let idx = if n > 10 { wanted.min(n - 11) } else { n - 1 };
    Some((v[idx], (idx + 1) as f64 / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 of 100 samples has one sample beyond it: fall back to p90.
        assert_eq!(tail(&xs, 0.99), Some((90.0, 0.90)));
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.99), Some((1980.0, 0.99)));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.5));
        assert_eq!(tail(&[5.0], 0.99), Some((5.0, 1.0)));
    }
}
