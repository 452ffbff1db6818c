//! Deterministic shared parallel runtime.
//!
//! Every hot kernel in the workspace (matmul, SpMM aggregation, the codec,
//! row-wise NN ops) funnels through this module instead of spawning
//! ad-hoc scoped threads. The contract that makes this safe to use inside a
//! *deterministic simulation* is:
//!
//! 1. **Chunk boundaries depend only on the problem size** ([`chunk_ranges`]
//!    derives them from `rows` and `min_chunk`, never from the thread count),
//!    so the work decomposition is identical at 1, 2 or 8 threads.
//! 2. **Each chunk writes a disjoint output slice** — no shared accumulators,
//!    no atomics-ordered reductions. Reductions (e.g. `matmul_tn`) write
//!    per-chunk partial buffers that the caller merges in fixed chunk order.
//! 3. **Scheduling is load-balanced but order-free**: workers pull chunks
//!    from a shared queue, so a skewed sparse row distribution cannot idle a
//!    thread, and because of (1)+(2) the result is byte-identical no matter
//!    which worker ran which chunk.
//!
//! Worker threads are host-side compute only; the simulated device clock is
//! charged from the analytic cost model and never observes thread count.
//! Thread count comes from, in priority order: [`set_threads`] (wired to
//! `TrainingConfig::threads`), the `ADAQP_THREADS` environment variable, and
//! `std::thread::available_parallelism()`, all capped at [`MAX_THREADS`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Hard cap on worker threads; matches the historical cap used by matmul.
pub const MAX_THREADS: usize = 8;

/// Upper bound on the number of chunks a problem is split into. Fixing this
/// constant (rather than deriving chunk counts from the thread count) is what
/// pins the work decomposition — and therefore the bytes produced — across
/// thread counts.
const MAX_CHUNKS: usize = 64;

/// Thread count explicitly configured via [`set_threads`]; 0 means "unset,
/// fall back to the environment default".
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let from_env = std::env::var("ADAQP_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0);
        match from_env {
            Some(n) => n.min(MAX_THREADS),
            None => std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .min(MAX_THREADS),
        }
    })
}

/// Sets the worker-thread count for all kernels. `0` restores the default
/// (the `ADAQP_THREADS` environment variable, else the machine parallelism),
/// and any value is capped at [`MAX_THREADS`].
///
/// Changing the thread count never changes kernel results — only how the
/// fixed chunk decomposition is scheduled — so concurrent callers (e.g.
/// parallel tests) are benign.
pub fn set_threads(n: usize) {
    CONFIGURED.store(n.min(MAX_THREADS), Ordering::Relaxed);
}

/// The worker-thread count kernels currently use (always ≥ 1).
pub fn current_threads() -> usize {
    match CONFIGURED.load(Ordering::Relaxed) {
        0 => default_threads(),
        n => n,
    }
}

/// Rows per range of [`chunk_ranges`]: `max(min_chunk, ceil(rows /
/// MAX_CHUNKS))`, at least one. A problem of at most this many rows is one
/// range, which a kernel may run on the caller's thread without building a
/// task list.
pub fn chunk_len(rows: usize, min_chunk: usize) -> usize {
    min_chunk.max(1).max(rows.div_ceil(MAX_CHUNKS))
}

/// Splits `rows` items into half-open `(start, end)` ranges whose boundaries
/// depend only on `rows` and `min_chunk` — never on the thread count.
///
/// Each range spans `max(min_chunk, ceil(rows / MAX_CHUNKS))` rows (the last
/// may be shorter). An empty problem yields no ranges.
pub fn chunk_ranges(rows: usize, min_chunk: usize) -> Vec<(usize, usize)> {
    if rows == 0 {
        return Vec::new();
    }
    let chunk = chunk_len(rows, min_chunk);
    (0..rows)
        .step_by(chunk)
        .map(|start| (start, (start + chunk).min(rows)))
        .collect()
}

/// Work, in scalar operations, that one pooled worker's share must reach
/// before starting it pays: spawning and joining a scoped worker costs
/// some 20 µs (DESIGN.md §8, "Work threshold"), 2^16 element operations of
/// the row kernels. A call with less than two shares of work runs inline.
const WORKER_SHARE: usize = 1 << 16;

/// Runs `f` over every task on the shared worker pool.
///
/// Tasks are pulled from a queue by up to `current_threads()` scoped
/// workers, so uneven task costs balance out. `work` is about how many
/// scalar operations the tasks perform together: the pool starts one worker
/// per 2^16 operations at most, so a small call — or one thread, or one
/// task — runs inline. Which worker runs a task never changes
/// what it computes. Callers guarantee determinism themselves by making each
/// task own a disjoint output slice — this function adds no ordering of its
/// own.
///
/// A panic inside `f` propagates to the caller when the scope joins.
pub fn run_tasks<T, F>(tasks: Vec<T>, work: usize, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    run_tasks_with(tasks, work, None, f);
}

/// [`run_tasks`] with an optional worker-count override. The override is how
/// the sanitizer's adversarial scheduler forces re-executions at worker
/// counts {1, 2, max} regardless of the configured count and of `work`;
/// normal callers go through [`run_tasks`] and inherit [`current_threads`].
fn run_tasks_with<T, F>(tasks: Vec<T>, work: usize, forced_threads: Option<usize>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let threads = forced_threads
        .unwrap_or_else(|| current_threads().min(work / WORKER_SHARE))
        .max(1)
        .min(tasks.len());
    if threads <= 1 {
        for task in tasks {
            f(task);
        }
        return;
    }
    let (tx, rx) = crossbeam::channel::unbounded();
    for task in tasks {
        // Send on an unbounded channel only fails when all receivers are
        // gone, and `rx` is still alive here.
        let _ = tx.send(task);
    }
    drop(tx);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let rx = rx.clone();
            let f = &f;
            #[expect(
                clippy::disallowed_methods,
                reason = "a pool worker waits for its next task; it runs no device code"
            )]
            scope.spawn(move || {
                while let Ok(task) = rx.recv() {
                    f(task);
                }
            });
        }
    });
}

/// Runs `f` over tasks that each carry an explicit claim on a half-open
/// output row range, on the shared worker pool.
///
/// This is the entry point for kernels that build their own disjoint output
/// slices (per-chunk partial buffers for reductions, multi-buffer row splits)
/// instead of going through [`par_chunks_deterministic`] — their hand-built
/// range bookkeeping is exactly what the sanitizer's shadow ownership map
/// exists to check. Under `ADAQP_SAN` ([`crate::san`]) the claimed ranges are
/// verified to be in-bounds, disjoint and covering all `rows`; violations are
/// recorded in the sanitizer report (`kernel` names the call site), never
/// panicked on. When the sanitizer is off the claims cost nothing beyond one
/// relaxed atomic load.
///
/// Unlike [`par_chunks_deterministic`], tasks here own payloads the runtime
/// cannot clone, so the adversarial scheduler does not re-execute them —
/// callers keep the obligation that task order must not matter.
pub fn run_range_tasks<T, F>(
    kernel: &'static str,
    rows: usize,
    work: usize,
    tasks: Vec<((usize, usize), T)>,
    f: F,
) where
    T: Send,
    F: Fn(usize, usize, T) + Sync,
{
    if crate::san::enabled() {
        let claims: Vec<(usize, usize)> = tasks.iter().map(|((s, e), _)| (*s, *e)).collect();
        crate::san::check_claims(kernel, rows, &claims);
    }
    run_tasks(tasks, work, |((start, end), payload)| {
        f(start, end, payload);
    });
}

/// Deterministic parallel-for over the rows of a row-major buffer.
///
/// `out` is split at the fixed boundaries from [`chunk_ranges`] (`out.len()`
/// must be a multiple of `rows`); `f(row_start, row_end, chunk)` receives each
/// range together with the mutable sub-slice holding exactly those rows.
/// Because boundaries are derived from the problem size alone and every chunk
/// writes only its own slice, the bytes produced are identical for any thread
/// count. `work` sizes the pool as in [`run_tasks`].
///
/// Under `ADAQP_SAN` ([`crate::san`]) every launch additionally (a) feeds its
/// chunk claims through the shadow ownership map and (b) re-executes `f` on a
/// scratch copy of the pristine buffer under reversed, rotated and
/// seeded-shuffled chunk orders at worker counts {1, 2, [`MAX_THREADS`]},
/// recording a `ScheduleDivergence` if any re-execution's bytes differ from
/// the reference output. This is why `f` must be a pure function of
/// `(row range, chunk contents)` — a closure that reads mutable external
/// state would diverge under the adversarial scheduler even if its writes
/// are disjoint.
///
/// Disjoint writes are the compiler's to check: each chunk is its own
/// `&mut` sub-slice, and `f` is `Fn + Sync`, so the chunk it is handed is
/// the only `&mut` it can write through.
///
/// ```
/// use tensor::par::par_chunks_deterministic;
/// let mut out = vec![0u32; 8];
/// par_chunks_deterministic(&mut out, 8, 1, 8, |start, _end, chunk| {
///     chunk[0] = start as u32;
/// });
/// assert_eq!(out, [0, 1, 2, 3, 4, 5, 6, 7]);
/// ```
///
/// A closure that writes through a captured `&mut` — the way two chunks
/// would come to alias — does not compile:
///
/// ```compile_fail,E0596
/// use tensor::par::par_chunks_deterministic;
/// let mut out = vec![0u32; 8];
/// let mut shared = vec![0u32; 8];
/// par_chunks_deterministic(&mut out, 8, 1, 8, |start, _end, _chunk| {
///     shared[start] = 1;
/// });
/// ```
///
/// # Panics
///
/// Panics if `out.len()` is not a multiple of `rows`.
pub fn par_chunks_deterministic<T, F>(
    out: &mut [T],
    rows: usize,
    min_chunk: usize,
    work: usize,
    f: F,
) where
    T: Send + Copy + PartialEq,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    if rows == 0 {
        return;
    }
    assert!(
        out.len().is_multiple_of(rows),
        "par_chunks_deterministic: buffer length {} not a multiple of rows {rows}",
        out.len()
    );
    let width = out.len() / rows;
    let ranges = chunk_ranges(rows, min_chunk);
    let sanitize = crate::san::enabled();
    let pristine = if sanitize { out.to_vec() } else { Vec::new() };
    run_chunks(out, width, &ranges, work, None, None, &f);
    if sanitize {
        crate::san::check_claims("par_chunks_deterministic", rows, &ranges);
        for (schedule, threads) in crate::san::ADVERSARIAL_SCHEDULES {
            let order = crate::san::schedule_order(schedule, ranges.len(), rows);
            let mut scratch = pristine.clone();
            run_chunks(
                &mut scratch,
                width,
                &ranges,
                work,
                Some(&order),
                Some(threads),
                &f,
            );
            let divergence = scratch
                .iter()
                .zip(out.iter())
                .position(|(a, b)| !same_output(a, b));
            crate::san::record_schedule(
                "par_chunks_deterministic",
                rows,
                schedule,
                threads,
                divergence,
            );
        }
    }
}

/// Whether the sanitizer reads two outputs as the same: equal, or both NaN.
/// A kernel that computes NaN computes it under every schedule, and NaN is
/// the only value unequal to itself.
#[expect(clippy::eq_op, reason = "a value unequal to itself is a NaN")]
fn same_output<T: PartialEq>(a: &T, b: &T) -> bool {
    a == b || (a != a && b != b)
}

/// Splits `out` at the given row ranges and runs the chunk tasks, optionally
/// permuting the task order and forcing the worker count (the sanitizer's
/// adversarial levers; both `None` on the normal path).
fn run_chunks<T, F>(
    out: &mut [T],
    width: usize,
    ranges: &[(usize, usize)],
    work: usize,
    order: Option<&[usize]>,
    forced_threads: Option<usize>,
    f: &F,
) where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    // split_at_mut forces ascending construction; the permutation is applied
    // to the built task list afterwards.
    let mut rest = out;
    let mut built: Vec<Option<(usize, usize, &mut [T])>> = Vec::with_capacity(ranges.len());
    for &(start, end) in ranges {
        let (chunk, tail) = rest.split_at_mut((end - start) * width);
        built.push(Some((start, end, chunk)));
        rest = tail;
    }
    let tasks: Vec<(usize, usize, &mut [T])> = match order {
        Some(order) => order
            .iter()
            .filter_map(|&i| built.get_mut(i).and_then(Option::take))
            .collect(),
        None => built.into_iter().flatten().collect(),
    };
    run_tasks_with(tasks, work, forced_threads, |(start, end, chunk)| {
        f(start, end, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for rows in [0usize, 1, 7, 63, 64, 65, 1000, 100_000] {
            for min_chunk in [1usize, 16, 256] {
                let ranges = chunk_ranges(rows, min_chunk);
                let mut next = 0;
                for &(s, e) in &ranges {
                    assert_eq!(s, next, "gap at {s} (rows={rows})");
                    assert!(e > s);
                    next = e;
                }
                assert_eq!(next, rows, "ranges must cover all rows");
                assert!(ranges.len() <= MAX_CHUNKS + 1);
            }
        }
    }

    #[test]
    fn chunk_ranges_ignore_thread_count() {
        let before = chunk_ranges(12_345, 32);
        set_threads(1);
        let at_one = chunk_ranges(12_345, 32);
        set_threads(8);
        let at_eight = chunk_ranges(12_345, 32);
        set_threads(0);
        assert_eq!(before, at_one);
        assert_eq!(at_one, at_eight);
    }

    #[test]
    fn set_threads_caps_and_resets() {
        set_threads(99);
        assert_eq!(current_threads(), MAX_THREADS);
        set_threads(3);
        assert_eq!(current_threads(), 3);
        set_threads(0);
        assert!(current_threads() >= 1);
    }

    #[test]
    fn par_chunks_writes_every_row_once() {
        let rows = 513;
        let width = 3;
        let mut out = vec![0.0f32; rows * width];
        par_chunks_deterministic(&mut out, rows, 8, usize::MAX, |start, end, chunk| {
            assert_eq!(chunk.len(), (end - start) * width);
            for (local, row) in chunk.chunks_mut(width).enumerate() {
                for v in row.iter_mut() {
                    *v += (start + local) as f32;
                }
            }
        });
        for (i, row) in out.chunks(width).enumerate() {
            assert!(row.iter().all(|&v| v == i as f32), "row {i} wrong: {row:?}");
        }
    }

    #[test]
    fn par_chunks_identical_across_thread_counts() {
        let rows = 777;
        let width = 5;
        let fill = |out: &mut Vec<f32>| {
            par_chunks_deterministic(out, rows, 4, usize::MAX, |start, _end, chunk| {
                for (local, row) in chunk.chunks_mut(width).enumerate() {
                    let i = (start + local) as f32;
                    for (j, v) in row.iter_mut().enumerate() {
                        *v = (i * 31.0 + j as f32).sin();
                    }
                }
            });
        };
        let mut base = vec![0.0f32; rows * width];
        set_threads(1);
        fill(&mut base);
        for threads in [2usize, 8] {
            set_threads(threads);
            let mut got = vec![0.0f32; rows * width];
            fill(&mut got);
            assert_eq!(base, got, "results differ at {threads} threads");
        }
        set_threads(0);
    }

    #[test]
    fn run_tasks_executes_all() {
        use std::sync::atomic::AtomicU64;
        let hits = AtomicU64::new(0);
        run_tasks((0..100u64).collect(), usize::MAX, |i| {
            hits.fetch_add(i + 1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn small_work_runs_on_the_callers_thread() {
        // Whatever thread count a concurrent test has set, less than two
        // worker shares of work never starts the pool.
        let caller = std::thread::current().id();
        let ran_on = std::sync::Mutex::new(Vec::new());
        set_threads(MAX_THREADS);
        run_tasks((0..16u32).collect(), 2 * WORKER_SHARE - 1, |_| {
            let id = std::thread::current().id();
            ran_on.lock().expect("no task panics").push(id);
        });
        set_threads(0);
        let ran_on = ran_on.into_inner().expect("no task panics");
        assert_eq!(ran_on, vec![caller; 16]);
    }

    #[test]
    fn empty_problem_is_a_noop() {
        let mut out: Vec<f32> = Vec::new();
        par_chunks_deterministic(&mut out, 0, 4, usize::MAX, |_, _, _| unreachable!());
        run_tasks(Vec::<u32>::new(), usize::MAX, |_| unreachable!());
    }
}
