//! Order statistics for reported timings.

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive"
/// method), so spreads printed here match the ones computed over
/// repeated runs.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let v = sorted(values);
    let m = v.len() + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Samples the tail percentile has beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The reported tail latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile the value is.
    pub percentile: f64,
    pub value: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest percentile with at least [`TAIL_MIN_BEYOND`] samples
/// ranked beyond it: the sample with exactly that many above it, at
/// percentile `100 (n − 10) / n`. The percentile moves smoothly with
/// the sample count, so runs of slightly different lengths report
/// nearly the same percentile. Below 20 samples that would fall under
/// the median; the median is returned instead, and `beyond` shows the
/// shortfall.
pub fn tail(values: &[f64]) -> Tail {
    assert!(!values.is_empty(), "tail of no samples");
    let v = sorted(values);
    let n = v.len();
    let rank = n.saturating_sub(TAIL_MIN_BEYOND).max(n.div_ceil(2));
    Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        beyond: n - rank,
        samples: n,
    }
}

/// Samples a tail window holds at least, so its tail sits at or above
/// its median.
pub const TAIL_WINDOW: usize = 2 * TAIL_MIN_BEYOND;

/// The tail of a run whose samples come in rounds, taken over windows:
/// consecutive whole rounds are grouped into windows of at least
/// [`TAIL_WINDOW`] samples (a shorter remainder joins the last window),
/// [`tail`] is taken in each, and each field of the result is the
/// median over windows (`beyond` the least). A host stall then moves
/// one window's tail, not the run's. Also returns the window count.
pub fn windowed_tail(rounds: &[Vec<f64>]) -> (Tail, usize) {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    let mut open: Vec<f64> = Vec::new();
    for r in rounds {
        open.extend(r);
        if open.len() >= TAIL_WINDOW {
            windows.push(std::mem::take(&mut open));
        }
    }
    match windows.last_mut() {
        Some(last) => last.extend(open),
        None => windows.push(open),
    }
    let tails: Vec<Tail> = windows.iter().map(|w| tail(w)).collect();
    let med = |f: fn(&Tail) -> f64| median(&tails.iter().map(f).collect::<Vec<_>>());
    let t = Tail {
        percentile: med(|t| t.percentile),
        value: med(|t| t.value),
        beyond: tails.iter().map(|t| t.beyond).min().expect("a window"),
        samples: med(|t| t.samples as f64) as usize,
    };
    (t, tails.len())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&ramp(5)), 3.0);
        assert_eq!(median(&ramp(4)), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), [1.5, 3.0, 4.5]);
        // Python extrapolates past the ends of tiny samples:
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&ramp(2)), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn tail_is_the_sample_with_ten_beyond() {
        let t = tail(&ramp(10_000));
        assert_eq!((t.percentile, t.value, t.beyond, t.samples), (99.9, 9990.0, 10, 10_000));
        let t = tail(&ramp(40));
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 30.0, 10));
        let t = tail(&ramp(20));
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
    }

    #[test]
    fn windowed_tail_groups_whole_rounds() {
        // Rounds big enough each make a window; the median of their
        // tails is reported.
        let rounds: Vec<Vec<f64>> =
            (0..3).map(|k| ramp(40).iter().map(|v| v + 100.0 * k as f64).collect()).collect();
        let (t, windows) = windowed_tail(&rounds);
        assert_eq!(windows, 3);
        assert_eq!((t.percentile, t.value, t.beyond, t.samples), (75.0, 130.0, 10, 40));
        // One-sample rounds: 45 samples make windows of 20 and 25.
        let rounds: Vec<Vec<f64>> = (1..=45).map(|i| vec![i as f64]).collect();
        let (t, windows) = windowed_tail(&rounds);
        assert_eq!(windows, 2);
        // Window tails: 10 (p50 of 1..=20) and 35 (p60 of 21..=45).
        assert_eq!((t.percentile, t.value, t.beyond, t.samples), (55.0, 22.5, 10, 22));
        // Fewer samples than a window: one window of all of them.
        let rounds: Vec<Vec<f64>> = (1..=12).map(|i| vec![i as f64]).collect();
        assert_eq!(windowed_tail(&rounds), (tail(&ramp(12)), 1));
    }

    #[test]
    fn tail_with_too_few_samples_reports_the_median_and_the_shortfall() {
        let t = tail(&ramp(12));
        assert_eq!((t.percentile, t.value, t.beyond, t.samples), (50.0, 6.0, 6, 12));
        let t = tail(&ramp(1));
        assert_eq!((t.percentile, t.value, t.beyond), (100.0, 1.0, 0));
    }
}
