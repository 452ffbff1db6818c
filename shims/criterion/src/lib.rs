//! Offline stand-in for `criterion` (see `shims/README.md`).
//!
//! Keeps the registration API (`criterion_group!`, `criterion_main!`,
//! groups, `bench_function`, `bench_with_input`, throughput annotations) and
//! measures wall-clock time with `std::time::Instant`: per benchmark it
//! warms up, then runs `sample_size` samples and reports min/mean/max
//! nanoseconds per iteration on stdout. No statistical analysis, plots or
//! HTML reports.

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

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        run_bench(&self.clone(), id, &mut f);
        self
    }

    /// Opens a named group sharing this registry's settings.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            settings: self.clone(),
            throughput: None,
        }
    }
}

/// Per-element / per-byte normalization for reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup {
    name: String,
    settings: Criterion,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup {
    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.settings.sample_size = n.max(1);
        self
    }

    /// Overrides the measurement budget for this group.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.settings.measurement_time = d;
        self
    }

    /// Sets the throughput annotation used in reports.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<I, F>(&mut self, id: I, mut f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into());
        run_bench_with_throughput(&self.settings, &full, self.throughput, &mut f);
        self
    }

    /// Runs one benchmark parameterized by borrowed input.
    pub fn bench_with_input<I, T, F>(&mut self, id: I, input: &T, mut f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        T: ?Sized,
        F: FnMut(&mut Bencher, &T),
    {
        let full = format!("{}/{}", self.name, id.into());
        let mut adapter = |b: &mut Bencher| f(b, input);
        run_bench_with_throughput(&self.settings, &full, self.throughput, &mut adapter);
        self
    }

    /// Ends the group (upstream finalizes reports; the shim prints as it
    /// goes, so this is a no-op kept for API compatibility).
    pub fn finish(self) {}
}

/// A benchmark identifier, optionally `function/parameter`-shaped.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// Builds an id with a function name and parameter display.
    pub fn new(name: impl Display, param: impl Display) -> Self {
        BenchmarkId {
            text: format!("{name}/{param}"),
        }
    }

    /// Builds an id from a parameter display alone.
    pub fn from_parameter(param: impl Display) -> Self {
        BenchmarkId {
            text: param.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            text: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(text: String) -> Self {
        BenchmarkId { text }
    }
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

fn run_bench(settings: &Criterion, id: &str, f: &mut dyn FnMut(&mut Bencher)) {
    run_bench_with_throughput(settings, id, None, f);
}

fn run_bench_with_throughput(
    settings: &Criterion,
    id: &str,
    throughput: Option<Throughput>,
    f: &mut dyn FnMut(&mut Bencher),
) {
    let mut b = Bencher {
        samples_ns: Vec::new(),
        settings: settings.clone(),
    };
    f(&mut b);
    if b.samples_ns.is_empty() {
        println!("{id:<50} (no iter() call)");
        return;
    }
    let n = b.samples_ns.len() as f64;
    let mean = b.samples_ns.iter().sum::<f64>() / n;
    let min = b.samples_ns.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = b.samples_ns.iter().cloned().fold(0.0f64, f64::max);
    let rate = match throughput {
        Some(Throughput::Elements(e)) => format!("  {:>12.0} elem/s", e as f64 * 1e9 / mean),
        Some(Throughput::Bytes(by)) => {
            format!(
                "  {:>12.1} MiB/s",
                by as f64 * 1e9 / mean / (1024.0 * 1024.0)
            )
        }
        None => String::new(),
    };
    println!("{id:<50} [{min:>12.1} {mean:>12.1} {max:>12.1}] ns/iter{rate}");
}

/// Declares a group of benchmark functions; both the simple
/// `criterion_group!(name, fn_a, fn_b)` form and the
/// `name = ...; config = ...; targets = ...` form are supported.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c: $crate::Criterion = $config;
            $($target(&mut c);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
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

    #[test]
    fn bench_runs_and_records_samples() {
        let mut c = Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(30))
            .warm_up_time(Duration::from_millis(5));
        let mut ran = 0u32;
        c.bench_function("smoke", |b| {
            b.iter(|| black_box(2u64 + 2));
            ran += 1;
        });
        assert_eq!(ran, 1);
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(20))
            .warm_up_time(Duration::from_millis(5));
        let mut group = c.benchmark_group("g");
        group.sample_size(2).throughput(Throughput::Elements(8));
        group.bench_function("a", |b| b.iter(|| black_box(1)));
        group.bench_with_input(BenchmarkId::new("b", 4), &4u32, |b, &x| {
            b.iter(|| black_box(x * 2));
        });
        group.finish();
    }
}
