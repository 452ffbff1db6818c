//! The host-side stopwatch. The buckets a device charges simulated seconds
//! to, and the rule that composes them into an epoch, live in
//! [`obs::time`].

use obs::time::HostSeconds;

/// Measures the host wall-clock time of `f` and returns it with the
/// closure's output: the diagnostic kernel time telemetry spans carry next
/// to their analytic simulated charge. The one host stopwatch (clippy's
/// `disallowed_types` keeps `Instant` out of everything else), and its
/// seconds come back as [`HostSeconds`], which the simulated clock does not
/// accept.
#[expect(
    clippy::disallowed_types,
    reason = "the one host stopwatch; its seconds are diagnostics"
)]
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, HostSeconds) {
    let start = std::time::Instant::now();
    let out = f();
    (out, HostSeconds::from_secs(start.elapsed().as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_positive_time() {
        let (sum, secs) = measure(|| (0..100_000u64).sum::<u64>());
        assert_eq!(sum, 4_999_950_000);
        assert!(secs >= HostSeconds::default());
    }
}
