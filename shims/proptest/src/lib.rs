//! Offline stand-in for `proptest` (see `shims/README.md`).
//!
//! Implements randomized property testing without shrinking: each `proptest!`
//! test runs its body for `ProptestConfig::cases` deterministically-seeded
//! random inputs and panics (with the failing case number) on the first
//! violation. Covered surface: range strategies, tuples, `Just`,
//! `collection::vec`, `prop_map`/`prop_flat_map`, `prop_oneof!`, and the
//! `prop_assert!`/`prop_assert_eq!` macros.

pub mod strategy;
pub mod test_runner;

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Sizes accepted by [`vec()`]: a fixed length or a half-open range.
    pub trait IntoSizeRange {
        /// Draws a concrete length.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.below(self.end - self.start) + self.start
        }
    }

    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            rng.below(self.end() - self.start() + 1) + self.start()
        }
    }

    /// Strategy producing `Vec`s whose elements are drawn from `element`.
    pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, size: L) -> VecStrategy<S, L> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S, L> {
        element: S,
        size: L,
    }

    impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod prelude {
    //! The glob-import surface, mirroring `proptest::prelude::*`.

    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Runs one property-test body for every case, reporting the case index on
/// panic so failures are reproducible (the seed is fixed per test name).
#[doc(hidden)]
pub fn run_cases(name: &str, cases: u32, mut body: impl FnMut(&mut test_runner::TestRng)) {
    let mut rng = test_runner::TestRng::deterministic(name);
    for case in 0..cases {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = r {
            eprintln!("proptest shim: `{name}` failed on case {case}/{cases}");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Declares property tests; simplified form of `proptest::proptest!`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_cfg ($cfg) $($rest)*);
    };
    (@with_cfg ($cfg:expr)
     $( $(#[$meta:meta])* fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::test_runner::ProptestConfig = $cfg;
                $crate::run_cases(stringify!($name), cfg.cases, |rng| {
                    $(let $arg = $crate::strategy::Strategy::sample(&($strat), rng);)+
                    $body
                });
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(
            @with_cfg ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// `assert!` under a property-test body.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Skips the current case when its precondition fails. Upstream proptest
/// rejects and redraws; the shim simply returns from the case body, which
/// for these tests is equivalent (slightly fewer effective cases).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return;
        }
    };
}

/// `assert_eq!` under a property-test body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// `assert_ne!` under a property-test body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Uniform choice between strategies of a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_tuples((a, b) in (0usize..10, 5u64..=6), x in -1.0f32..1.0) {
            prop_assert!(a < 10);
            prop_assert!(b == 5 || b == 6);
            prop_assert!((-1.0..1.0).contains(&x));
        }

        #[test]
        fn vec_and_map(xs in crate::collection::vec(0u32..100, 3usize)) {
            prop_assert_eq!(xs.len(), 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]
        #[test]
        fn flat_map_links_sizes(v in (1usize..4).prop_flat_map(|n| {
            crate::collection::vec(0u8..255, n).prop_map(move |xs| (n, xs))
        })) {
            prop_assert_eq!(v.0, v.1.len());
        }
    }

    #[test]
    fn oneof_hits_all_arms() {
        let s = prop_oneof![Just(1u8), Just(2), Just(3)];
        let mut rng = crate::test_runner::TestRng::deterministic("oneof");
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[crate::strategy::Strategy::sample(&s, &mut rng) as usize] = true;
        }
        assert_eq!(seen, [false, true, true, true]);
    }
}
