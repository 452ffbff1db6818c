//! `adaqp-san` — the write-race / determinism sanitizer for [`crate::par`].
//!
//! The parallel runtime's whole contract (DESIGN.md §8) is that every kernel
//! writes disjoint per-chunk output slices at boundaries derived from the
//! problem size alone, so results are byte-identical at any thread count.
//! This module makes that contract *checked* instead of conventional:
//!
//! * **Shadow ownership map.** Under `ADAQP_SAN` every instrumented kernel
//!   launch reports the output row ranges its chunks claim. `check_claims`
//!   verifies the claims are in-bounds, mutually disjoint and cover every
//!   row, recording any violation as a typed [`SanError`] (never a panic —
//!   library code reports, it does not abort).
//! * **Adversarial scheduler.** Kernels that run through
//!   [`crate::par::par_chunks_deterministic`] are re-executed on a scratch
//!   buffer with reversed, rotated and seeded-shuffled chunk orders at
//!   worker counts 1, 2 and [`crate::par::MAX_THREADS`]; any byte that
//!   differs from the reference execution is a [`SanError::ScheduleDivergence`].
//!
//! The mode is off by default and costs one relaxed atomic load per kernel
//! launch when disabled. Enable it with the `ADAQP_SAN=1` environment
//! variable, `TrainingConfig::sanitize`, or the CLI `--san` switch; read the
//! outcome with [`report`]. Sanitized runs re-execute every instrumented
//! kernel several times, so their host wall-clock is *not* a benchmark —
//! `scripts/bench.sh` refuses to record results while `ADAQP_SAN` is set.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// A determinism-contract violation observed by the sanitizer.
///
/// Every variant names the kernel (the instrumentation site label) and the
/// output row count of the offending launch, so a violation in a long run
/// can be traced back to one call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SanError {
    /// Two chunks claimed intersecting output row ranges: a write-race in
    /// any schedule where they run on different workers.
    Overlap {
        /// Instrumentation-site label of the kernel.
        kernel: &'static str,
        /// Output rows of the launch.
        rows: usize,
        /// The earlier claim (half-open row range).
        first: (usize, usize),
        /// The intersecting claim (half-open row range).
        second: (usize, usize),
    },
    /// The claims leave output rows unowned: those rows keep stale bytes and
    /// the kernel's result depends on buffer history.
    Gap {
        /// Instrumentation-site label of the kernel.
        kernel: &'static str,
        /// Output rows of the launch.
        rows: usize,
        /// The unclaimed half-open row range.
        missing: (usize, usize),
    },
    /// A claim reaches outside the output buffer (or is inverted), which a
    /// real write would turn into an out-of-bounds access.
    OutOfRange {
        /// Instrumentation-site label of the kernel.
        kernel: &'static str,
        /// Output rows of the launch.
        rows: usize,
        /// The offending claim.
        claim: (usize, usize),
    },
    /// An adversarial re-execution produced different bytes than the
    /// reference execution: the kernel's output depends on chunk order or
    /// worker count.
    ScheduleDivergence {
        /// Instrumentation-site label of the kernel.
        kernel: &'static str,
        /// Output rows of the launch.
        rows: usize,
        /// Which adversarial schedule diverged (`reversed`, `rotated`,
        /// `shuffled`).
        schedule: &'static str,
        /// Worker-thread count of the adversarial execution.
        threads: usize,
        /// Flat index of the first differing element.
        index: usize,
    },
}

impl std::fmt::Display for SanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SanError::Overlap {
                kernel,
                rows,
                first,
                second,
            } => write!(
                f,
                "[{kernel}] rows {}..{} and {}..{} overlap ({rows} output rows): \
                 chunks must write disjoint slices",
                first.0, first.1, second.0, second.1
            ),
            SanError::Gap {
                kernel,
                rows,
                missing,
            } => write!(
                f,
                "[{kernel}] rows {}..{} are claimed by no chunk ({rows} output rows): \
                 coverage must be total",
                missing.0, missing.1
            ),
            SanError::OutOfRange {
                kernel,
                rows,
                claim,
            } => write!(
                f,
                "[{kernel}] claim {}..{} is outside the {rows}-row output buffer",
                claim.0, claim.1
            ),
            SanError::ScheduleDivergence {
                kernel,
                rows,
                schedule,
                threads,
                index,
            } => write!(
                f,
                "[{kernel}] {schedule} chunk order at {threads} thread(s) diverged \
                 from the reference execution at element {index} ({rows} output rows)"
            ),
        }
    }
}

impl std::error::Error for SanError {}

/// Snapshot of the sanitizer's observations since the last [`reset`].
#[derive(Debug, Clone, Default)]
pub struct SanReport {
    /// Instrumented kernel launches whose claims were verified.
    pub kernels_checked: u64,
    /// Adversarial re-executions compared against reference output.
    pub schedules_checked: u64,
    /// Violations observed, in detection order.
    pub errors: Vec<SanError>,
}

impl SanReport {
    /// `true` when no violation has been recorded.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Sanitize mode forced on programmatically ([`set_sanitize`], wired to
/// `TrainingConfig::sanitize`). The `ADAQP_SAN` env var enables the mode
/// independently of this flag.
static FORCED: AtomicBool = AtomicBool::new(false);
static KERNELS_CHECKED: AtomicU64 = AtomicU64::new(0);
static SCHEDULES_CHECKED: AtomicU64 = AtomicU64::new(0);
static ERRORS: Mutex<Vec<SanError>> = Mutex::new(Vec::new());

fn env_enabled() -> bool {
    static FROM_ENV: OnceLock<bool> = OnceLock::new();
    *FROM_ENV.get_or_init(|| {
        std::env::var("ADAQP_SAN").is_ok_and(|v| {
            let v = v.trim();
            !v.is_empty() && v != "0"
        })
    })
}

/// Whether sanitize mode is active: forced via [`set_sanitize`] or enabled
/// by the `ADAQP_SAN` environment variable. One relaxed atomic load on the
/// fast path — the entire disabled-mode cost.
pub fn enabled() -> bool {
    FORCED.load(Ordering::Relaxed) || env_enabled()
}

/// Forces sanitize mode on (or releases the force; the `ADAQP_SAN` env var
/// still applies). Like [`crate::par::set_threads`] this is process-global
/// and benign under concurrent callers: sanitized execution verifies and
/// re-executes kernels but never changes their output bytes.
pub fn set_sanitize(on: bool) {
    FORCED.store(on, Ordering::Relaxed);
}

/// Clears recorded violations and counters (start-of-run isolation).
pub fn reset() {
    KERNELS_CHECKED.store(0, Ordering::Relaxed);
    SCHEDULES_CHECKED.store(0, Ordering::Relaxed);
    errors_lock().clear();
}

/// Snapshot of everything observed since the last [`reset`].
pub fn report() -> SanReport {
    SanReport {
        kernels_checked: KERNELS_CHECKED.load(Ordering::Relaxed),
        schedules_checked: SCHEDULES_CHECKED.load(Ordering::Relaxed),
        errors: errors_lock().clone(),
    }
}

fn errors_lock() -> std::sync::MutexGuard<'static, Vec<SanError>> {
    // A poisoned error log only means some other thread panicked mid-push;
    // the Vec contents are still meaningful diagnostics.
    ERRORS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Verifies one launch's claimed output ranges: in-bounds, disjoint and
/// covering every row. Pure; returns the first violation found. Zero-width
/// claims are ignored (they neither write nor cover anything).
pub fn verify_claims(
    kernel: &'static str,
    rows: usize,
    claims: &[(usize, usize)],
) -> Result<(), SanError> {
    let mut owned: Vec<(usize, usize)> = Vec::with_capacity(claims.len());
    for &(s, e) in claims {
        if s > e || e > rows {
            return Err(SanError::OutOfRange {
                kernel,
                rows,
                claim: (s, e),
            });
        }
        if s < e {
            owned.push((s, e));
        }
    }
    owned.sort_unstable();
    // In start-sorted order, adjacent-pair checks are complete: if every
    // adjacent pair satisfies `next.start >= prev.end`, the ends are
    // non-decreasing and all ranges are pairwise disjoint and contiguous.
    let mut prev: Option<(usize, usize)> = None;
    for &(s, e) in &owned {
        match prev {
            Some((ps, pe)) if s < pe => {
                return Err(SanError::Overlap {
                    kernel,
                    rows,
                    first: (ps, pe),
                    second: (s, e),
                });
            }
            Some((_, pe)) if s > pe => {
                return Err(SanError::Gap {
                    kernel,
                    rows,
                    missing: (pe, s),
                });
            }
            None if s > 0 => {
                return Err(SanError::Gap {
                    kernel,
                    rows,
                    missing: (0, s),
                });
            }
            _ => {}
        }
        prev = Some((s, e));
    }
    let covered = prev.map_or(0, |(_, e)| e);
    if covered < rows {
        return Err(SanError::Gap {
            kernel,
            rows,
            missing: (covered, rows),
        });
    }
    Ok(())
}

/// Runtime hook: verifies a launch's claims, recording a violation instead
/// of returning it, and bumps the kernel counter.
pub(crate) fn check_claims(kernel: &'static str, rows: usize, claims: &[(usize, usize)]) {
    KERNELS_CHECKED.fetch_add(1, Ordering::Relaxed);
    if let Err(e) = verify_claims(kernel, rows, claims) {
        errors_lock().push(e);
    }
}

/// Runtime hook: records one adversarial re-execution, and its divergence
/// (first differing flat index) if any.
pub(crate) fn record_schedule(
    kernel: &'static str,
    rows: usize,
    schedule: &'static str,
    threads: usize,
    divergence: Option<usize>,
) {
    SCHEDULES_CHECKED.fetch_add(1, Ordering::Relaxed);
    if let Some(index) = divergence {
        errors_lock().push(SanError::ScheduleDivergence {
            kernel,
            rows,
            schedule,
            threads,
            index,
        });
    }
}

/// The adversarial chunk orders, paired with the worker counts they run at
/// ({1, 2, max} per the sanitizer contract).
pub(crate) const ADVERSARIAL_SCHEDULES: [(&str, usize); 3] = [
    ("reversed", 1),
    ("rotated", 2),
    ("shuffled", crate::par::MAX_THREADS),
];

/// Task-order permutation for one adversarial schedule. Deterministic: the
/// shuffle is a Fisher–Yates pass keyed by a fixed constant mixed with the
/// problem shape, never by wall-clock or process state.
pub(crate) fn schedule_order(schedule: &'static str, len: usize, rows: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    match schedule {
        "reversed" => order.reverse(),
        "rotated" => {
            if len > 1 {
                order.rotate_left(len / 2 + 1);
            }
        }
        _ => {
            let mut state = 0x51A9_C0DE_u64 ^ (rows as u64) ^ ((len as u64) << 32);
            for i in (1..len).rev() {
                state = splitmix64(&mut state);
                let j = (state % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
        }
    }
    order
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par;

    #[test]
    fn verify_claims_accepts_chunk_ranges() {
        for rows in [1usize, 7, 64, 1000] {
            let ranges = par::chunk_ranges(rows, 4);
            assert_eq!(verify_claims("t", rows, &ranges), Ok(()));
        }
        // Order must not matter.
        assert_eq!(verify_claims("t", 10, &[(5, 10), (0, 5)]), Ok(()));
    }

    #[test]
    fn verify_claims_reports_each_variant() {
        assert!(matches!(
            verify_claims("t", 10, &[(0, 5), (3, 10)]),
            Err(SanError::Overlap { .. })
        ));
        assert!(matches!(
            verify_claims("t", 10, &[(0, 4), (6, 10)]),
            Err(SanError::Gap {
                missing: (4, 6),
                ..
            })
        ));
        assert!(matches!(
            verify_claims("t", 10, &[(0, 5)]),
            Err(SanError::Gap {
                missing: (5, 10),
                ..
            })
        ));
        assert!(matches!(
            verify_claims("t", 10, &[(0, 11)]),
            Err(SanError::OutOfRange { .. })
        ));
        assert!(matches!(
            verify_claims("t", 10, &[(7, 3)]),
            Err(SanError::OutOfRange { .. })
        ));
        // Full-buffer empty claim set: everything is missing.
        assert!(matches!(
            verify_claims("t", 10, &[]),
            Err(SanError::Gap {
                missing: (0, 10),
                ..
            })
        ));
    }

    #[test]
    fn schedule_orders_are_permutations_and_deterministic() {
        for (schedule, _) in ADVERSARIAL_SCHEDULES {
            for len in [0usize, 1, 2, 7, 64] {
                let a = schedule_order(schedule, len, 1000);
                let b = schedule_order(schedule, len, 1000);
                assert_eq!(a, b, "{schedule} order must be deterministic");
                let mut sorted = a.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..len).collect::<Vec<_>>());
            }
        }
        // The shuffled order actually differs from identity for real sizes.
        let shuffled = schedule_order("shuffled", 64, 4096);
        assert_ne!(shuffled, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn display_names_the_kernel() {
        let e = SanError::Overlap {
            kernel: "gnn::aggregate",
            rows: 100,
            first: (0, 10),
            second: (5, 20),
        };
        let s = e.to_string();
        assert!(s.contains("gnn::aggregate") && s.contains("0..10"), "{s}");
    }
}
