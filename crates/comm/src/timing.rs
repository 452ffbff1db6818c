//! Simulated-time accounting.
//!
//! The buckets a device charges simulated seconds to, and the rule that
//! composes them into an epoch, live in [`obs::time`]; this module keeps
//! their historical `comm::timing` paths and the host-side stopwatch.

pub use obs::time::{TimeBreakdown, TimeCategory};

/// Measures the host wall-clock time of `f` in seconds and returns it with
/// the closure's output: the diagnostic kernel time telemetry spans carry
/// next to their analytic simulated charge.
#[expect(
    clippy::disallowed_types,
    reason = "the one host stopwatch; its seconds are diagnostics"
)]
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::time::Schedule;

    #[test]
    fn charge_routes_to_buckets() {
        let mut tb = TimeBreakdown::new();
        tb.charge(TimeCategory::Comm, 1.0);
        tb.charge(TimeCategory::CentralComp, 2.0);
        tb.charge(TimeCategory::MarginalComp, 3.0);
        tb.charge(TimeCategory::Quant, 4.0);
        tb.charge(TimeCategory::Solve, 5.0);
        assert_eq!(tb.comm, 1.0);
        assert_eq!(tb.central_comp, 2.0);
        assert_eq!(tb.marginal_comp, 3.0);
        assert_eq!(tb.quant, 4.0);
        assert_eq!(tb.solve, 5.0);
    }

    #[test]
    fn overlap_hides_smaller_of_comm_and_central() {
        let mut tb = TimeBreakdown::new();
        tb.charge(TimeCategory::Comm, 10.0);
        tb.charge(TimeCategory::CentralComp, 4.0);
        tb.charge(TimeCategory::MarginalComp, 1.0);
        assert_eq!(tb.total(Schedule::Overlapped), 11.0);
        assert_eq!(tb.total(Schedule::Serial), 15.0);
        // When compute dominates, it becomes the critical path.
        let mut tb2 = TimeBreakdown::new();
        tb2.charge(TimeCategory::Comm, 2.0);
        tb2.charge(TimeCategory::CentralComp, 9.0);
        assert_eq!(tb2.total(Schedule::Overlapped), 9.0);
    }

    #[test]
    fn comm_fraction() {
        let mut tb = TimeBreakdown::new();
        tb.charge(TimeCategory::Comm, 3.0);
        tb.charge(TimeCategory::CentralComp, 1.0);
        assert_eq!(tb.comm_fraction(), 0.75);
        assert_eq!(TimeBreakdown::new().comm_fraction(), 0.0);
    }

    #[test]
    fn add_accumulates() {
        let mut a = TimeBreakdown::new();
        a.charge(TimeCategory::Comm, 1.0);
        let mut b = TimeBreakdown::new();
        b.charge(TimeCategory::Comm, 2.0);
        b.charge(TimeCategory::Quant, 0.5);
        a += b;
        assert_eq!(a.comm, 3.0);
        assert_eq!(a.quant, 0.5);
    }

    #[test]
    fn measure_reports_positive_time() {
        let (sum, secs) = measure(|| (0..100_000u64).sum::<u64>());
        assert_eq!(sum, 4_999_950_000);
        assert!(secs >= 0.0);
    }
}
