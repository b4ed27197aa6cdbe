//! Order statistics: medians, percentiles that refuse to be read off
//! too few samples, and the quartile spread the noise study reports.

/// A percentile together with the sample count it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
}

/// Samples that must lie beyond a percentile before it is reported: a
/// tail read off fewer is one slow op, not a property of the system.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q` quantile (nearest rank) of `values`, or an error naming the
/// shortfall when fewer than [`MIN_BEYOND`] samples lie beyond it. The
/// median (`q` = 0.5) needs ten samples on each side like any other.
pub fn percentile(values: &[f64], q: f64) -> Result<Percentile, String> {
    assert!((0.0..1.0).contains(&q), "quantile {q} outside [0, 1)");
    let n = values.len();
    let beyond = (n as f64 * (1.0 - q)).floor() as usize;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{:.0} of {n} samples has {beyond} beyond it, {MIN_BEYOND} needed",
            q * 100.0
        ));
    }
    let v = sorted(values);
    let rank = ((n as f64 * q).ceil() as usize).clamp(1, n);
    Ok(Percentile {
        value: v[rank - 1],
        samples: n,
    })
}

/// Plain median (mean of the two middle values for an even count); 0
/// for no samples, which is what an unexercised layer reports.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_and_reports_the_count() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&values, 0.95).unwrap();
        assert_eq!(
            p95,
            Percentile {
                value: 190.0,
                samples: 200
            }
        );
        // 199 samples leave 9.95 -> 9 beyond p95.
        assert!(percentile(&values[..199], 0.95).is_err());
        assert!(percentile(&values, 0.99).is_err());
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99).unwrap().value, 990.0);
        assert_eq!(percentile(&values[..20], 0.5).unwrap().value, 10.0);
        assert!(percentile(&values[..19], 0.5).is_err());
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    /// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
    /// -> [2.75, 5.5, 8.25]; quantiles([10, 20, 40], n=4) -> [10, 20, 40].
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), Some((10.0, 40.0)));
        assert_eq!(quartile_spread(&ten), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
