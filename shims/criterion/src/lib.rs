//! Offline stand-in for `criterion` (see `shims/README.md`).
//!
//! Keeps the registration API the workspace's benches use
//! (`criterion_group!` with a `config`, `criterion_main!`, groups and their
//! `bench_function`) and measures wall-clock time with
//! `std::time::Instant`: per benchmark it warms up, then runs `sample_size`
//! samples and reports min/mean/max nanoseconds per iteration on stdout. No
//! statistical analysis, plots or HTML reports.

#![allow(
    clippy::disallowed_types,
    reason = "a benchmark harness measures host time"
)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark registry and settings.
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(300),
        }
    }
}

impl Criterion {
    /// Number of measured samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Total time budget for the measured samples.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Warm-up budget before measuring.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Opens a named group sharing this registry's settings.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            settings: self.clone(),
        }
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup {
    name: String,
    settings: Criterion,
}

impl BenchmarkGroup {
    /// Runs one benchmark in this group, reported as `group/id`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Display,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher {
            samples_ns: Vec::new(),
            settings: self.settings.clone(),
        };
        f(&mut b);
        report(&format!("{}/{id}", self.name), &b.samples_ns);
        self
    }

    /// Ends the group (upstream finalizes reports; the shim prints as it
    /// goes, so this is a no-op kept for API compatibility).
    pub fn finish(self) {}
}

/// Passed to the benchmark closure; [`Bencher::iter`] performs the timing.
pub struct Bencher {
    /// Mean nanoseconds per iteration over measured samples.
    samples_ns: Vec<f64>,
    settings: Criterion,
}

impl Bencher {
    /// Times the closure. The routine picks an iteration count per sample so
    /// each sample lasts roughly `measurement_time / sample_size`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up: also estimates per-iteration cost.
        let warm_budget = self.settings.warm_up_time;
        let start = Instant::now();
        let mut iters: u64 = 0;
        while start.elapsed() < warm_budget {
            black_box(f());
            iters += 1;
        }
        let per_iter = start.elapsed().as_secs_f64() / iters.max(1) as f64;

        let samples = self.settings.sample_size;
        let per_sample = self.settings.measurement_time.as_secs_f64() / samples as f64;
        let iters_per_sample = ((per_sample / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000);

        self.samples_ns.clear();
        for _ in 0..samples {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            let ns = t.elapsed().as_secs_f64() * 1e9 / iters_per_sample as f64;
            self.samples_ns.push(ns);
        }
    }
}

/// Prints one `id [min mean max] ns/iter` row, the line `scripts/bench.sh`
/// records.
fn report(id: &str, samples_ns: &[f64]) {
    if samples_ns.is_empty() {
        println!("{id:<50} (no iter() call)");
        return;
    }
    let mean = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;
    let min = samples_ns.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = samples_ns.iter().cloned().fold(0.0f64, f64::max);
    println!("{id:<50} [{min:>12.1} {mean:>12.1} {max:>12.1}] ns/iter");
}

/// Declares a group of benchmark functions sharing one `config`, in
/// upstream's `name = ...; config = ...; targets = ...` form.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c: $crate::Criterion = $config;
            $($target(&mut c);)+
        }
    };
}

/// Declares the benchmark binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Criterion {
        Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(30))
            .warm_up_time(Duration::from_millis(5))
    }

    #[test]
    fn bench_runs_and_records_samples() {
        let mut b = Bencher {
            samples_ns: Vec::new(),
            settings: quick(),
        };
        b.iter(|| black_box(2u64 + 2));
        assert_eq!(b.samples_ns.len(), 3);
        assert!(b.samples_ns.iter().all(|&ns| ns > 0.0));
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = quick();
        let mut group = c.benchmark_group("g");
        let mut ran = 0u32;
        group.bench_function("a", |b| {
            b.iter(|| black_box(1));
            ran += 1;
        });
        let n = 4;
        group.bench_function(format!("b/{n}"), |b| b.iter(|| black_box(n * 2)));
        group.finish();
        assert_eq!(ran, 1);
    }
}
