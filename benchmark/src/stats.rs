//! Order statistics: the median, the quartiles as Python's
//! `statistics.quantiles(values, n=4)` computes them (the driver's
//! spread rule), and the window-median estimator every time-based
//! metric goes through.

/// The median of `values` (mean of the two middle ones for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// `(Q1, Q2, Q3)` by the exclusive method — what
/// `statistics.quantiles(values, n=4)` returns. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to 1..=n-1, delta = i*(n+1) - j*4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Distance between the first and third quartile as a share of the
/// median: the spread the driver holds against a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// One measurement window: a raw time-based value and the window's
/// speed factor (measured / reference time of the fixed spin).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowValue {
    /// The value as measured on the wall clock.
    pub raw: f64,
    /// Effective core slowness while it was measured (1.0 = reference).
    pub speed_factor: f64,
}

/// The window-median estimator: each window's value is restated to
/// reference core speed, and the reported value is the median over
/// windows — so interference that hits fewer than half the windows
/// cannot move it, and drift of core speed between runs cancels.
/// `time_like` values (durations, CPU time) are divided by the factor;
/// rates (`!time_like`) are multiplied.
pub fn window_median(windows: &[WindowValue], time_like: bool) -> Option<f64> {
    let restated: Vec<f64> = windows
        .iter()
        .map(|w| {
            if time_like {
                w.raw / w.speed_factor
            } else {
                w.raw * w.speed_factor
            }
        })
        .collect();
    median(&restated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 20.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(spread(&v), Some(5.5 / 5.5));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn window_median_restates_then_takes_the_middle_window() {
        let w = |raw, speed_factor| WindowValue { raw, speed_factor };
        // Five windows of a 100 us latency: two ran on a core 10 %
        // slow (and read 110), one was hit by a burst (400).
        let windows = [
            w(100.0, 1.0),
            w(110.0, 1.1),
            w(400.0, 1.0),
            w(110.0, 1.1),
            w(100.0, 1.0),
        ];
        let got = window_median(&windows, true).unwrap();
        assert!((got - 100.0).abs() < 1e-9, "{got}");
        // A rate on the same slow windows reads 10 % low and is
        // restated upwards.
        let rates = [w(1000.0, 1.0), w(1000.0 / 1.1, 1.1), w(250.0, 1.0)];
        let got = window_median(&rates, false).unwrap();
        assert!((got - 1000.0).abs() < 1e-9, "{got}");
        assert_eq!(window_median(&[], true), None);
    }
}
