//! Property-based tests pinning the parallel aggregation kernels to serial
//! reference implementations and to the cross-thread-count determinism
//! contract of `tensor::par`. Widths run past 128 columns, so every tile of
//! the column-tiled kernel (64, 32, 16, 8 and the scalar tail) is reached.

use gnn::{AggGraph, AggGraphBuilder};
use proptest::prelude::*;
use tensor::Matrix;

/// A randomly-shaped aggregation structure, the raw rows it was built from,
/// and matching feature/gradient matrices.
struct Case {
    agg: AggGraph,
    rows: Vec<Vec<(u32, f32)>>,
    x: Matrix,
    grad: Matrix,
}

/// Builds an aggregation over `num_target` rows and `num_ext` extended slots
/// with pseudo-random sparsity from `seed`, keeping the pushed entries so
/// the tests can fold them serially as a reference.
fn build_case(seed: u64, num_target: usize, num_ext: usize, dim: usize) -> Case {
    build_salted_case(seed, num_target, num_ext, dim, 0.0)
}

/// Values a product or a sum must carry through unchanged: NaN, both
/// infinities, a negative zero, subnormals of both signs, and magnitudes
/// whose products overflow.
const SPECIALS: [f32; 7] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    -0.0,
    f32::MIN_POSITIVE / 8.0,
    -1.0e-41,
    3.0e38,
];

/// A value uniform in `lo..hi`, or with probability `salt` one of
/// [`SPECIALS`]; `salt == 0` draws exactly what `rng.uniform` alone would.
fn draw(rng: &mut tensor::Rng, salt: f32, lo: f32, hi: f32) -> f32 {
    if salt > 0.0 && rng.unit() < salt {
        SPECIALS[rng.below(SPECIALS.len())]
    } else {
        rng.uniform(lo, hi)
    }
}

/// [`build_case`] with each coefficient, feature and gradient value
/// replaced by one of [`SPECIALS`] with probability `salt`.
fn build_salted_case(seed: u64, num_target: usize, num_ext: usize, dim: usize, salt: f32) -> Case {
    let mut rng = tensor::Rng::seed_from(seed);
    let mut b = AggGraphBuilder::new(num_ext);
    let mut rows = Vec::with_capacity(num_target);
    for _ in 0..num_target {
        let deg = rng.below(5);
        let mut row = Vec::with_capacity(deg);
        for _ in 0..deg {
            let u = rng.below(num_ext) as u32;
            let c = draw(&mut rng, salt, -1.0, 1.0);
            b.push_entry(u, c);
            row.push((u, c));
        }
        b.finish_row();
        rows.push(row);
    }
    let agg = b.build();
    let x = Matrix::from_fn(num_ext, dim, |_, _| draw(&mut rng, salt, -2.0, 2.0));
    let grad = Matrix::from_fn(num_target, dim, |_, _| draw(&mut rng, salt, -2.0, 2.0));
    Case { agg, rows, x, grad }
}

/// Serial reference for `Z = A X`: fold each row's entries in stored order.
fn forward_reference(c: &Case) -> Vec<f32> {
    let dim = c.x.cols();
    let mut out = vec![0.0f32; c.rows.len() * dim];
    for (v, row) in c.rows.iter().enumerate() {
        for &(u, coeff) in row {
            let orow = &mut out[v * dim..(v + 1) * dim];
            for (o, &xv) in orow.iter_mut().zip(c.x.row(u as usize)) {
                *o += coeff * xv;
            }
        }
    }
    out
}

/// Serial reference for `grad_X = A^T grad_Z`: the old scatter formulation —
/// walk targets ascending and accumulate into source rows. The parallel
/// transposed-CSR gather must reproduce this bitwise (same per-slot fold
/// order, same start from zero).
fn backward_reference(c: &Case) -> Vec<f32> {
    let dim = c.grad.cols();
    let mut out = vec![0.0f32; c.agg.num_ext() * dim];
    for (v, row) in c.rows.iter().enumerate() {
        for &(u, coeff) in row {
            let orow = &mut out[u as usize * dim..(u as usize + 1) * dim];
            for (o, &gv) in orow.iter_mut().zip(c.grad.row(v)) {
                *o += coeff * gv;
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn forward_matches_serial_reference_at_any_thread_count(
        seed in 0u64..500,
        num_target in 1usize..200,
        num_ext in 1usize..220,
        dim in 1usize..140,
    ) {
        let c = build_case(seed, num_target, num_ext, dim);
        let reference = forward_reference(&c);
        for t in [1usize, 2, 8] {
            tensor::par::set_threads(t);
            let z = c.agg.aggregate(&c.x);
            prop_assert_eq!(z.as_slice(), &reference[..], "threads {}", t);
        }
        tensor::par::set_threads(0);
    }

    #[test]
    fn backward_matches_serial_scatter_at_any_thread_count(
        seed in 0u64..500,
        num_target in 1usize..200,
        num_ext in 1usize..220,
        dim in 1usize..140,
    ) {
        let c = build_case(seed, num_target, num_ext, dim);
        let reference = backward_reference(&c);
        for t in [1usize, 2, 8] {
            tensor::par::set_threads(t);
            let gx = c.agg.backward(&c.grad);
            prop_assert_eq!(gx.as_slice(), &reference[..], "threads {}", t);
        }
        tensor::par::set_threads(0);
    }

    #[test]
    fn two_source_aggregate_matches_the_stacked_one_at_any_thread_count(
        seed in 0u64..500,
        num_target in 1usize..300,
        num_ext in 1usize..220,
        // Where the extended space splits, as a 0..=8 eighth of it: 0 is an
        // empty local block, 8 an empty halo.
        eighths in 0usize..9,
        dim in 1usize..140,
    ) {
        let c = build_case(seed, num_target, num_ext, dim);
        let num_local = num_ext * eighths / 8;
        let rows: Vec<usize> = (0..num_ext).collect();
        let local = c.x.gather_rows(&rows[..num_local]);
        let halo = c.x.gather_rows(&rows[num_local..]);
        let stacked = c.agg.aggregate(&Matrix::vstack(&[&local, &halo]));
        for t in [1usize, 2, 8] {
            tensor::par::set_threads(t);
            let z = c.agg.aggregate_with_halo(&local, &halo);
            prop_assert_eq!(z.as_slice(), stacked.as_slice(), "threads {}", t);
        }
        tensor::par::set_threads(0);
    }

    #[test]
    fn aggregate_rows_subset_agrees_with_full_aggregate(
        seed in 0u64..500,
        num_target in 1usize..160,
        num_ext in 1usize..180,
        dim in 1usize..140,
    ) {
        let c = build_case(seed, num_target, num_ext, dim);
        let full = c.agg.aggregate(&c.x);
        let targets: Vec<u32> = (0..num_target as u32).rev().collect();
        let rows = c.agg.aggregate_rows(&c.x, &targets);
        for (k, &v) in targets.iter().enumerate() {
            prop_assert_eq!(rows.row(k), full.row(v as usize));
        }
    }
}

/// Bit equality, except that any NaN equals any NaN: which payload an
/// operation on two NaNs forwards is the compiler's operand order, not the
/// kernel's arithmetic.
fn same_bits(got: &[f32], want: &[f32]) -> bool {
    let same = |(a, b): (&f32, &f32)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
    got.len() == want.len() && got.iter().zip(want).all(same)
}

/// Widths on both sides of every tile boundary of the column-tiled kernel,
/// and every width the scalar tail can see on its own.
const SWEEP_WIDTHS: [usize; 24] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 95, 96, 97, 127, 128, 129,
];

/// Every entry point at every tile width against the serial stored-order
/// fold, with NaN, infinities, signed zeros, subnormals and overflowing
/// products in the features, the gradients and the coefficients.
#[test]
fn every_tile_width_matches_the_serial_reference_bit_for_bit() {
    for (i, &dim) in SWEEP_WIDTHS.iter().enumerate() {
        let c = build_salted_case(900 + i as u64, 300, 260, dim, 0.03);
        let fwd = forward_reference(&c);
        let bwd = backward_reference(&c);
        // The salt reaches the outputs without drowning them.
        let finite = fwd.iter().filter(|v| v.is_finite()).count();
        assert!(fwd.iter().any(|v| v.is_nan()) && finite * 4 > fwd.len() * 3);
        let num_ext = c.agg.num_ext();
        let slots: Vec<usize> = (0..num_ext).collect();
        let targets: Vec<u32> = (0..c.rows.len() as u32).rev().collect();
        let picked: Vec<f32> = targets
            .iter()
            .flat_map(|&v| &fwd[v as usize * dim..(v as usize + 1) * dim])
            .copied()
            .collect();
        for t in [1usize, 2, 8] {
            tensor::par::set_threads(t);
            let at = format!("width {dim}, {t} threads");
            let z = c.agg.aggregate(&c.x);
            assert!(same_bits(z.as_slice(), &fwd), "aggregate, {at}");
            for num_local in [num_ext, num_ext / 2, 0] {
                let local = c.x.gather_rows(&slots[..num_local]);
                let halo = c.x.gather_rows(&slots[num_local..]);
                let z = c.agg.aggregate_with_halo(&local, &halo);
                let cut = num_ext - num_local;
                assert!(
                    same_bits(z.as_slice(), &fwd),
                    "aggregate_with_halo, {cut} halo rows, {at}"
                );
            }
            let z = c.agg.aggregate_rows(&c.x, &targets);
            assert!(same_bits(z.as_slice(), &picked), "aggregate_rows, {at}");
            let gx = c.agg.backward(&c.grad);
            assert!(same_bits(gx.as_slice(), &bwd), "backward, {at}");
        }
    }
    tensor::par::set_threads(0);
}

/// The two-source kernel under the sanitizer: disjoint claims, and the same
/// bytes under reversed, rotated and shuffled chunk orders. A plain test —
/// the sanitizer's switch is process-global, and this is the only test in
/// the binary that arms it.
#[test]
fn two_source_aggregate_is_clean_under_the_sanitizer() {
    // Several 128-row chunks, so the adversarial orders have something to permute.
    let c = build_case(7, 700, 900, 5);
    let rows: Vec<usize> = (0..900).collect();
    let (local, halo) = (c.x.gather_rows(&rows[..640]), c.x.gather_rows(&rows[640..]));
    let plain = c.agg.aggregate_with_halo(&local, &halo);
    tensor::san::set_sanitize(true);
    tensor::san::reset();
    let sanitized = c.agg.aggregate_with_halo(&local, &halo);
    let report = tensor::san::report();
    tensor::san::set_sanitize(false);
    assert!(report.is_clean(), "violations: {:?}", report.errors);
    assert!(report.kernels_checked >= 1 && report.schedules_checked >= 3);
    assert_eq!(sanitized, plain);
}
