//! Order statistics and the regression rule shared by the ledger and
//! `adaqp-bench compare`.

use serde_json::{json, Value};

/// Five-number summary of one metric's samples, and which of the five the
/// metric reports. With the handful of repetitions a run affords, no
/// percentile beyond the median has ten samples past it, so none is
/// reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// What the metric reports and `compare` compares: the median, unless
    /// [`Summary::fastest`] chose the minimum.
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// A metric that is a single exact observation (a count, a simulated
    /// time): every statistic equals the value.
    pub fn exact(value: f64) -> Self {
        Summary {
            value,
            median: value,
            q1: value,
            q3: value,
            min: value,
            max: value,
            n: 1,
        }
    }

    /// Reports the smallest sample instead of the median. For a whole-run
    /// host time on a shared sandbox: the program is deterministic and the
    /// neighbours only ever add time, in bursts of seconds whose density
    /// drifts from minute to minute, so the median of a run's repetitions
    /// follows the neighbours and its fastest repetition follows the
    /// program.
    pub fn fastest(self) -> Self {
        Summary {
            value: self.min,
            ..self
        }
    }

    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    pub fn to_json(self) -> Value {
        json!({
            "value": self.value,
            "median": self.median,
            "q1": self.q1,
            "q3": self.q3,
            "min": self.min,
            "max": self.max,
            "n": self.n,
        })
    }

    /// Reads back what [`Summary::to_json`] wrote.
    pub fn from_json(v: &Value) -> Option<Self> {
        Some(Summary {
            value: v.get("value")?.as_f64()?,
            median: v.get("median")?.as_f64()?,
            q1: v.get("q1")?.as_f64()?,
            q3: v.get("q3")?.as_f64()?,
            min: v.get("min")?.as_f64()?,
            max: v.get("max")?.as_f64()?,
            n: usize::try_from(v.get("n")?.as_u64()?).ok()?,
        })
    }
}

/// Median and quartiles as Python's `statistics.quantiles(xs, n=4)` gives
/// them (the exclusive method), so a spread computed here agrees with the
/// one the benchmark driver computes. Fewer than two samples have no
/// spread: every statistic is the sample.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample; callers summarize timings and
/// counts they produced themselves.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no samples to summarize");
    let mut xs = samples.to_vec();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let n = xs.len();
    if n == 1 {
        return Summary::exact(xs[0]);
    }
    let quantile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
    };
    let median = quantile(2);
    Summary {
        value: median,
        median,
        q1: quantile(1),
        q3: quantile(3),
        min: xs[0],
        max: xs[n - 1],
        n,
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Outcome of comparing one (workload, metric) pair across two runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The medians are within the bound but the run-to-run spread is wider
    /// than the bound, so "unchanged" cannot be claimed either.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative when `b` is
/// better). Identical values are 0 even at a zero
/// base; a change away from a zero base is infinitely large.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == b {
        return 0.0;
    }
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / a.abs()
    }
}

/// The regression rule: `b` is worse (better) than `a` when its value moved
/// the wrong (right) way by more than `bound`, a share of `a`'s value.
/// Inside the bound the pair is `Same` only if both runs' interquartile
/// spreads also fit inside the bound.
pub fn verdict(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    let w = worsening(a.value, b.value, better);
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        let base = a.value.abs();
        let spread = a.iqr().max(b.iqr());
        if spread > bound * base {
            Verdict::Unresolved
        } else {
            Verdict::Same
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        let s = summarize(&[7.0, 1.0, 4.0, 2.0, 6.0, 3.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 4.0, 6.0));
        assert_eq!((s.min, s.max, s.n), (1.0, 7.0, 7));
        // statistics.quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summarize(&[20.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        // statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
        let s = summarize(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.75, 3.5, 5.25));
    }

    #[test]
    fn single_sample_has_no_spread() {
        let s = summarize(&[2.5]);
        assert_eq!(s, Summary::exact(2.5));
        assert_eq!(s.iqr(), 0.0);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = summarize(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!(Summary::from_json(&s.to_json()), Some(s));
        assert_eq!(
            Summary::from_json(&s.fastest().to_json()),
            Some(s.fastest())
        );
    }

    #[test]
    fn fastest_reports_the_minimum_and_keeps_the_rest() {
        let s = summarize(&[3.0, 2.0, 9.0]);
        assert_eq!((s.value, s.median), (3.0, 3.0));
        let f = s.fastest();
        assert_eq!(
            (f.value, f.median, f.min, f.max, f.n),
            (2.0, 3.0, 2.0, 9.0, 3)
        );
        // The rule compares what is reported: two stalled repetitions move
        // the median past any bound and leave the fastest where it was.
        let stalled = summarize(&[2.0, 9.0, 9.5]);
        assert_eq!(verdict(&s, &stalled, Better::Lower, 0.25), Verdict::Worse);
        assert_ne!(
            verdict(&f, &stalled.fastest(), Better::Lower, 0.25),
            Verdict::Worse
        );
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert_eq!(worsening(10.0, 11.0, Better::Lower), 0.1);
        assert_eq!(worsening(10.0, 11.0, Better::Higher), -0.1);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worsening(0.0, 1.0, Better::Lower), f64::INFINITY);
        assert_eq!(worsening(0.0, 1.0, Better::Higher), f64::NEG_INFINITY);
    }

    #[test]
    fn verdict_applies_bound_then_spread() {
        let tight = |m: f64| Summary {
            value: m,
            median: m,
            q1: m * 0.99,
            q3: m * 1.01,
            min: m * 0.98,
            max: m * 1.02,
            n: 7,
        };
        let a = tight(10.0);
        assert_eq!(verdict(&a, &tight(10.5), Better::Lower, 0.1), Verdict::Same);
        assert_eq!(
            verdict(&a, &tight(11.5), Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &tight(8.5), Better::Lower, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&a, &tight(8.5), Better::Higher, 0.1),
            Verdict::Worse
        );
        // Medians agree, but one side's quartiles are 30 % apart: a 10 %
        // bound cannot tell "unchanged" from "moved".
        let noisy = Summary {
            q1: 8.5,
            q3: 11.5,
            ..tight(10.0)
        };
        assert_eq!(verdict(&a, &noisy, Better::Lower, 0.1), Verdict::Unresolved);
        // An exact metric (bound 0) is Same only when bit-identical.
        let x = Summary::exact(3.0);
        assert_eq!(
            verdict(&x, &Summary::exact(3.0), Better::Lower, 0.0),
            Verdict::Same
        );
        assert_eq!(
            verdict(&x, &Summary::exact(3.0000001), Better::Lower, 0.0),
            Verdict::Worse
        );
    }
}
