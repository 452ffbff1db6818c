//! The sanitizer's switch, counters and report are process-global, so the
//! tests that arm it and then assert exact counts live in this binary of
//! their own: next to the crate's unit tests, any test that launched a
//! parallel kernel while one of these held the switch was counted too
//! (seen as `kernels_checked` 2 instead of 1, about one run in six under
//! `ADAQP_SAN=1`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use tensor::par;
use tensor::san::{report, reset, set_sanitize, SanError};

/// The tests below toggle that state, so they must not interleave with one
/// another either. (Poisoning is fine — the state is re-set on entry.)
static GUARD: Mutex<()> = Mutex::new(());

fn san_guard() -> std::sync::MutexGuard<'static, ()> {
    let g = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    set_sanitize(true);
    reset();
    g
}

/// Restores global sanitize state even when an assertion fails.
struct SanOff;
impl Drop for SanOff {
    fn drop(&mut self) {
        set_sanitize(false);
        reset();
    }
}

/// Test-only kernel with a deliberate aliasing bug: it splits the output
/// in half correctly, but *claims* that both tasks own the first half —
/// exactly the bookkeeping error the shadow ownership map exists to
/// catch (the sanitizer's own negative test).
fn buggy_aliasing_kernel(out: &mut [f32]) {
    let rows = out.len();
    let half = rows / 2;
    let (lo, hi) = out.split_at_mut(half);
    // Both claims say 0..half; the second chunk really writes half..rows.
    let tasks = vec![((0usize, half), lo), ((0usize, half), hi)];
    par::run_range_tasks(
        "test::buggy_aliasing_kernel",
        rows,
        rows,
        tasks,
        |_s, _e, chunk| {
            for v in chunk.iter_mut() {
                *v += 1.0;
            }
        },
    );
}

#[test]
fn seeded_aliasing_kernel_is_caught() {
    let _g = san_guard();
    let _off = SanOff;
    let mut out = vec![0.0f32; 64];
    buggy_aliasing_kernel(&mut out);
    let rep = report();
    assert_eq!(rep.kernels_checked, 1);
    assert!(
        rep.errors.iter().any(|e| matches!(
            e,
            SanError::Overlap {
                kernel: "test::buggy_aliasing_kernel",
                ..
            }
        )),
        "expected an Overlap violation, got {:?}",
        rep.errors
    );
    // The kernel still executed (the sanitizer reports, it never aborts).
    assert!(out.iter().all(|&v| v == 1.0));
}

#[test]
fn clean_kernels_produce_clean_reports() {
    let _g = san_guard();
    let _off = SanOff;
    let mut out = vec![0.0f32; 257 * 3];
    par::par_chunks_deterministic(&mut out, 257, 8, 257 * 3, |s, _e, chunk| {
        for (local, row) in chunk.chunks_mut(3).enumerate() {
            for v in row.iter_mut() {
                *v = (s + local) as f32;
            }
        }
    });
    let rep = report();
    assert!(rep.is_clean(), "unexpected violations: {:?}", rep.errors);
    assert_eq!(rep.kernels_checked, 1);
    // Reversed, rotated and shuffled: one re-execution each.
    assert_eq!(rep.schedules_checked, 3);
    // The sanitized execution produced exactly the kernel's bytes.
    for (i, row) in out.chunks(3).enumerate() {
        assert!(row.iter().all(|&v| v == i as f32), "row {i}: {row:?}");
    }
}

#[test]
fn nan_outputs_are_not_a_schedule_divergence() {
    let _g = san_guard();
    let _off = SanOff;
    // The same NaN under every schedule, though no NaN equals itself.
    let mut out = vec![0.0f32; 257 * 3];
    par::par_chunks_deterministic(&mut out, 257, 8, 257 * 3, |_s, _e, chunk| {
        chunk.fill(f32::NAN);
    });
    let rep = report();
    assert!(rep.is_clean(), "unexpected violations: {:?}", rep.errors);
    assert_eq!(rep.schedules_checked, 3);
    assert!(out.iter().all(|v| v.is_nan()));
}

#[test]
fn order_dependent_kernel_diverges_under_adversarial_schedules() {
    let _g = san_guard();
    let _off = SanOff;
    // Each chunk stamps its rows with a shared visit counter: the bytes
    // depend on which chunk runs first, which is exactly the defect the
    // adversarial scheduler exists to expose.
    let counter = AtomicUsize::new(0);
    let mut out = vec![0.0f32; 512];
    par::par_chunks_deterministic(&mut out, 512, 8, 512, |_s, _e, chunk| {
        let stamp = counter.fetch_add(1, Ordering::Relaxed) as f32;
        for v in chunk.iter_mut() {
            *v = stamp;
        }
    });
    let rep = report();
    assert!(
        rep.errors
            .iter()
            .any(|e| matches!(e, SanError::ScheduleDivergence { .. })),
        "expected a ScheduleDivergence, got {:?}",
        rep.errors
    );
}

#[test]
fn disabled_mode_records_nothing() {
    // Sanitize is off in this process unless ADAQP_SAN is exported (in
    // which case this test is vacuous).
    let _g = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    if tensor::san::enabled() {
        return;
    }
    let before = report().kernels_checked;
    let mut out = vec![0.0f32; 128];
    par::par_chunks_deterministic(&mut out, 128, 8, 128, |_, _, chunk| {
        for v in chunk.iter_mut() {
            *v = 1.0;
        }
    });
    assert_eq!(report().kernels_checked, before);
}
