//! Order statistics over measured samples.

/// Median (mean of the two middle values for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the largest `share` of the values, but of at least `min` of
/// them (and at least one); 0 when empty. Unlike a percentile it moves
/// smoothly when the values fall into clusters, as request latencies of
/// different kinds do.
pub fn tail_mean(values: &[f64], share: f64, min: usize) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = ((share * v.len() as f64).ceil() as usize)
        .max(min)
        .clamp(1, v.len());
    mean(&v[v.len() - k..])
}

/// Arithmetic mean; 0 when empty. Means add across phases, which is
/// what lets a per-phase breakdown be checked against a total.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_mean(&v, 0.1, 1), 95.5);
        assert_eq!(tail_mean(&v, 0.001, 1), 100.0);
        assert_eq!(tail_mean(&v, 0.01, 4), 98.5);
        assert_eq!(tail_mean(&v[..3], 0.1, 5), 2.0);
        assert_eq!(tail_mean(&[], 0.1, 5), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
