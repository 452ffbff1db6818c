//! Host-time profiling hook feeding diagnostic histograms.
//!
//! [`ScopedTimer`] measures real wall-clock, which varies with machine load
//! and thread count, so everything it records is diagnostic-flagged and
//! excluded from the deterministic default exports (see the crate docs).
//! This file is on the adaqp-lint sim-clock allowlist for exactly that
//! reason: host time here never leaks into simulated results.

use crate::Registry;
use std::time::Instant;

/// Times a scope on the host clock and records the elapsed seconds into a
/// diagnostic histogram when stopped.
///
/// Stop is explicit (`stop(self, registry)`) rather than `Drop`-based so the
/// registry borrow is only needed at the recording point:
///
/// ```
/// let mut reg = obs::Registry::new();
/// let t = obs::timer::ScopedTimer::start("phase_seconds");
/// // ... work ...
/// t.stop(&mut reg);
/// assert_eq!(reg.get("phase_seconds", &[]).unwrap().count, 1);
/// ```
#[derive(Debug)]
pub struct ScopedTimer {
    name: String,
    labels: Vec<(String, String)>,
    start: Instant,
}

impl ScopedTimer {
    /// Starts a timer that will record into histogram `name`.
    pub fn start(name: impl Into<String>) -> Self {
        Self::start_with_labels(name, &[])
    }

    /// Starts a timer recording into `name` with the given labels.
    pub fn start_with_labels(name: impl Into<String>, labels: &[(&str, &str)]) -> Self {
        ScopedTimer {
            name: name.into(),
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
            start: Instant::now(),
        }
    }

    /// Seconds elapsed so far.
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Stops the timer and records the elapsed seconds as one observation in
    /// the registry's diagnostic histogram.
    pub fn stop(self, registry: &mut Registry) -> f64 {
        let secs = self.elapsed_seconds();
        let labels: Vec<(&str, &str)> = self
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        registry.observe_diag(&self.name, &labels, secs);
        secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_records_a_diagnostic_observation() {
        let mut reg = Registry::new();
        let t = ScopedTimer::start_with_labels("phase_seconds", &[("phase", "setup")]);
        assert!(t.elapsed_seconds() >= 0.0);
        let secs = t.stop(&mut reg);
        let m = reg
            .get("phase_seconds", &[("phase", "setup")])
            .expect("recorded");
        assert!(m.diagnostic, "host time must be diagnostic-only");
        assert_eq!(m.count, 1);
        assert!((m.value - secs).abs() < 1e-12);
        // And therefore absent from the deterministic snapshot.
        assert!(reg
            .into_snapshot()
            .get("phase_seconds", &[("phase", "setup")])
            .is_none());
    }
}
