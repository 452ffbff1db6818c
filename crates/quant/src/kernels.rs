//! Fused, autovectorizable codec kernels shared by the wire codecs.
//!
//! Everything here is a *bit-identical* reformulation of the original
//! scalar codec loops — same per-element arithmetic, same coin streams,
//! same wire bytes — restructured so the compiler can keep the hot loops
//! branch-free and lane-parallel:
//!
//! * [`min_max`] — 8-accumulator min/max reduction by compare-and-select.
//!   NaNs are skipped and min/max are associative and commutative on the
//!   extended reals, so lane-splitting the reduction is exact, not
//!   approximate; every tie keeps the earlier operand, so even the sign of
//!   a zero result is fixed.
//! * [`encode_span`] — fused stochastic-round + bit-pack over a
//!   byte-aligned span, monomorphized per bit-width. One wire byte is
//!   assembled per outer iteration (4×2-bit / 2×4-bit / 1×8-bit codes), so
//!   there is no per-element `fill == 8` branch and no intermediate
//!   one-byte-per-code buffer. Rounding coins come from the same
//!   murmur-style counter hash as before; the counter for element `j` is
//!   computed directly as `seed + (j+1)·φ32` (wrapping), which equals the
//!   historical one-add-per-element recurrence and breaks the loop-carried
//!   dependency so the lanes pipeline.
//! * [`dequant_span`] — shift-and-mask decode: a 32-bit word of packed
//!   codes is broadcast and every lane extracts its own code with a
//!   per-lane shift, then evaluates the exact historical expression
//!   `code as f32 * scale + zero_point`.
//!
//! Determinism invariants (DESIGN.md codec section): coins are a pure
//! function of `(block seed, element index)`, reductions are exact under
//! reassociation, and every span writes only its own output slice — so all
//! kernels are byte-identical at any worker-thread count and under the
//! sanitizer's adversarial schedules.

/// The golden-ratio increment of the per-element coin counter.
pub(crate) const PHI32: u32 = 0x9E37_79B9;

/// Murmur-style 32-bit finalizer turning a counter into a rounding coin in
/// `[0, 1)`. Identical to the historical per-element mix: independent per
/// element and cheap enough to pipeline; the high 24 bits are uniform —
/// all a rounding coin needs.
#[inline(always)]
pub(crate) fn coin(c32: u32) -> f32 {
    let mut z = c32 ^ (c32 >> 16);
    z = z.wrapping_mul(0x85EB_CA6B);
    z ^= z >> 13;
    (z >> 8) as f32 * (1.0 / 16_777_216.0)
}

/// The coin counter for element `j` of a span keyed by `seed`: the
/// historical loop advanced the counter by `φ32` *before* each draw, so
/// element `j` sees `seed + (j+1)·φ32` (all arithmetic mod 2^32).
#[inline(always)]
#[expect(clippy::cast_possible_truncation, reason = "counters wrap mod 2^32")]
pub(crate) fn counter_at(seed: u32, j: usize) -> u32 {
    seed.wrapping_add((j as u32).wrapping_add(1).wrapping_mul(PHI32))
}

/// Number of min/max accumulator lanes; wide enough for one AVX2 register.
const LANES: usize = 8;

/// `acc` lowered to `x` if `x` is smaller. A NaN `x` compares false and is
/// skipped, so an accumulator that starts as a number never becomes NaN —
/// which is what lets this be one packed compare-and-select (`minps`)
/// instead of `f32::min`'s NaN-checking three. A `-0.0`/`+0.0` tie keeps
/// `acc`, as `f32::min(acc, x)` does on x86-64.
#[inline(always)]
fn lower(acc: f32, x: f32) -> f32 {
    if x < acc {
        x
    } else {
        acc
    }
}

/// [`lower`]'s mirror image: `acc` raised to `x` if `x` is larger.
#[inline(always)]
fn raise(acc: f32, x: f32) -> f32 {
    if x > acc {
        x
    } else {
        acc
    }
}

/// Folds one chunk into the lane accumulators, element `k` into lane `k`.
#[inline(always)]
fn fold_lanes(mins: &mut [f32; LANES], maxs: &mut [f32; LANES], c: &[f32; LANES]) {
    for k in 0..LANES {
        mins[k] = lower(mins[k], c[k]);
        maxs[k] = raise(maxs[k], c[k]);
    }
}

/// Min and max of a slice via an 8-lane accumulator reduction.
///
/// NaNs are skipped (an all-NaN slice reports `(+Inf, -Inf)`) and on
/// numbers min/max are associative and commutative, so the value is the
/// sequential fold's. Element `i` folds into lane `i % 8` in position
/// order, then the lanes combine as a tree; every combine keeps its
/// earlier operand on a tie, so which zero wins a `-0.0`/`+0.0` tie is
/// fixed by that association and by nothing the compiler chooses. An empty
/// slice reports `(0.0, 0.0)`.
#[inline]
pub fn min_max(xs: &[f32]) -> (f32, f32) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mut mins = [f32::INFINITY; LANES];
    let mut maxs = [f32::NEG_INFINITY; LANES];
    let (chunks, rest) = xs.as_chunks::<LANES>();
    for c in chunks {
        fold_lanes(&mut mins, &mut maxs, c);
    }
    // The ragged end goes through the same whole-chunk fold, padded with
    // NaN (which every lane skips): folding it lane by lane at a run-time
    // index keeps the accumulators out of one vector register, and the
    // whole loop above drops to two-wide vectors.
    if !rest.is_empty() {
        let mut last = [f32::NAN; LANES];
        last[..rest.len()].copy_from_slice(rest);
        fold_lanes(&mut mins, &mut maxs, &last);
    }
    // Tree-shaped fold: three rounds of pairwise combines instead of a
    // seven-step serial chain — the fold runs once per row, and at small
    // dims its latency is a visible slice of the whole call.
    let mut stride = LANES / 2;
    while stride > 0 {
        for k in 0..stride {
            mins[k] = lower(mins[k], mins[k + stride]);
            maxs[k] = raise(maxs[k], maxs[k + stride]);
        }
        stride /= 2;
    }
    (mins[0], maxs[0])
}

/// Branch-free, autovectorizable `min(floor(x), max_code)` for `x >= 0` or
/// NaN — exactly the value of `(x as u32).min(max_code)`, which LLVM can
/// only emit as a scalar `cvttss2si` chain (the saturating float-to-int
/// cast has no packed lowering below AVX-512), scalarizing the whole
/// quantize loop. Instead: adding 2^23 forces the float's mantissa to hold
/// `round(x)` (round-to-nearest-even, exact for `x < 2^23`), the compare
/// corrects round to floor, and two selects restore the saturating cast's
/// exact behavior for `x >= 2^23` (clamp) and NaN (zero). Verified
/// bit-identical to the cast on the full f32 domain (see
/// `floor_code_matches_saturating_cast`); every step lowers to packed
/// add/sub/cmp/and/min.
#[inline(always)]
pub(crate) fn floor_code(x: f32, max_code: u32) -> u32 {
    const BIG: f32 = 8_388_608.0; // 2^23
    let s = x + BIG;
    let r = s.to_bits() & 0x7F_FFFF;
    let rf = s - BIG;
    let adj = u32::from(rf > x);
    // For x just below 2^23 the biased sum rounds into the 2^24 regime and
    // r underflows through the wrapping sub — the min() clamp makes that
    // lane max_code, which is what floor would have produced anyway.
    let code = r.wrapping_sub(adj).min(max_code);
    let code = if x >= BIG { max_code } else { code };
    if x.is_nan() {
        0
    } else {
        code
    }
}

/// [`floor_code`] specialized to the *bounded* domain the normal-scale
/// encode path guarantees: every non-NaN input satisfies
/// `0 <= x < max_code + 1.001` (see [`encode_span`]'s `EXACT = false`
/// contract), so `floor(x) <= 2^BITS` and the saturating `min(·, max_code)`
/// collapses to `code - (code >> BITS)` — two cheap packed integer ops
/// instead of an unsigned-min emulation. Bit-identical to
/// `floor_code(x, max_code)` on that domain (NaN still maps to 0), pinned
/// by `bounded_floor_matches_exact_on_domain`.
#[inline(always)]
pub(crate) fn floor_code_bounded<const BITS: u32>(x: f32) -> u32 {
    const BIG: f32 = 8_388_608.0; // 2^23
    let s = x + BIG;
    let r = s.to_bits() & 0x7F_FFFF;
    let rf = s - BIG;
    let adj = u32::from(rf > x);
    // No wrap: adj == 1 implies rf (an exact integer) > x >= 0, so r >= 1.
    let code = r.wrapping_sub(adj);
    let code = code - (code >> BITS);
    if x.is_nan() {
        0
    } else {
        code
    }
}

/// Lane-block width of the fused encode kernel: 32 elements per block keeps
/// whole output bytes per block at every supported width (32/4 = 8 bytes at
/// 2-bit, 16 at 4-bit, 32 at 8-bit) and gives the autovectorizer four AVX2
/// lanesets per iteration. Re-measured at x86-64-v3 (DESIGN.md §11): 16 is
/// level at dim 32 and up to 4 % slower on longer rows, 64 sends a 32-wide
/// row down the scalar tail (3x slower).
const ENC_BLOCK: usize = 32;

/// Lanes of [`encode_span`]'s short chunks: the part of a row past its
/// last whole [`ENC_BLOCK`] goes through the same branch-free quantizer
/// eight lanes at a time (one AVX2 register of `f32`), which keeps whole
/// output bytes at every width (2, 4 or 8 bytes per chunk).
const ENC_CHUNK: usize = 8;

/// Fused stochastic-round + pack of `row` into `out`, one wire byte per
/// outer iteration. `out` must hold exactly `packed_len(row.len())` bytes
/// for `BITS`-bit codes; element `j` draws its coin from
/// [`counter_at`]`(seed, j)`. Byte-aligned spans only: the first code lands
/// in the low bits of `out[0]`.
///
/// `EXACT` selects the clamp implementation. `EXACT = true` handles the
/// full f32 domain ([`floor_code`]). `EXACT = false` additionally requires
/// `mn` to be the row minimum and `inv_scale = 1/scale` for a *normal*
/// `scale = (max - min)/max_code`: then `(x - mn) * inv_scale` is in
/// `[0, max_code·(1 + 3ε)]` for every non-NaN element, the coin adds less
/// than 1, and the cheaper [`floor_code_bounded`] is bit-identical. Callers
/// dispatch on `scale.is_normal()`; both paths produce identical bytes on
/// their shared domain.
#[inline]
pub(crate) fn encode_span<const BITS: u32, const EXACT: bool>(
    row: &[f32],
    mn: f32,
    inv_scale: f32,
    seed: u32,
    out: &mut [u8],
) {
    let per_byte = (8 / BITS) as usize;
    // Lane-parallel middle: quantize ENC_BLOCK elements into a code array
    // (branch-free, no loop-carried state — the counter for lane k is
    // `base + k*φ32`, so every step autovectorizes), then fold the codes
    // into whole wire bytes. The whole-chunk pairing (instead of manual
    // `out[blk*n..]` slicing) is what lets LLVM drop the per-block bounds
    // checks when the span length is only known at run time — measured
    // ~25% faster on dim-64 rows.
    let (whole, _) = row.as_chunks::<ENC_BLOCK>();
    let blocks = whole.len();
    let bytes_per_block = ENC_BLOCK / per_byte;
    let (block_out, chunk_out) = out.split_at_mut(blocks * bytes_per_block);
    for (blk, (lanes, obytes)) in whole
        .iter()
        .zip(block_out.chunks_exact_mut(bytes_per_block))
        .enumerate()
    {
        let codes =
            quantize_lanes::<BITS, EXACT, ENC_BLOCK>(lanes, mn, inv_scale, seed, blk * ENC_BLOCK);
        pack_codes::<BITS>(&codes, obytes);
    }
    // The rest, shorter than one block, in chunks of eight lanes. The last
    // chunk's padding lanes hold `mn`, whose code is 0 whatever the coin:
    // `0 * inv_scale + coin` is below 1, or NaN where `inv_scale` or `mn`
    // is not finite, and both clamps map NaN to 0. So a partial last byte
    // holds exactly the row's own codes, and the padding's whole bytes,
    // past the end of `out`, are dropped.
    let done = blocks * ENC_BLOCK;
    let bytes_per_chunk = ENC_CHUNK / per_byte;
    for (c, obytes) in chunk_out.chunks_mut(bytes_per_chunk).enumerate() {
        let start = done + c * ENC_CHUNK;
        let rest = &row[start..];
        let mut lanes = [mn; ENC_CHUNK];
        let len = rest.len().min(ENC_CHUNK);
        lanes[..len].copy_from_slice(&rest[..len]);
        let codes = quantize_lanes::<BITS, EXACT, ENC_CHUNK>(&lanes, mn, inv_scale, seed, start);
        let mut packed = [0u8; ENC_CHUNK];
        pack_codes::<BITS>(&codes, &mut packed[..bytes_per_chunk]);
        obytes.copy_from_slice(&packed[..obytes.len()]);
    }
}

/// Stochastic-round codes of `N` lanes, lane `k` being element `first + k`
/// of its span (its coin counter `counter_at(seed, first + k)`).
#[inline(always)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "lane indices are below 32; counters wrap mod 2^32"
)]
fn quantize_lanes<const BITS: u32, const EXACT: bool, const N: usize>(
    lanes: &[f32; N],
    mn: f32,
    inv_scale: f32,
    seed: u32,
    first: usize,
) -> [u32; N] {
    let max_code = (1u32 << BITS) - 1;
    let base = counter_at(seed, first);
    let mut codes = [0u32; N];
    for k in 0..N {
        let c32 = base.wrapping_add((k as u32).wrapping_mul(PHI32));
        // x >= 0 by construction (row[j] >= mn), so floor_code computes
        // exactly `(x as u32).min(max_code)` — the stochastic-rounding
        // clamp — without the scalar saturating-cast chain.
        let x = (lanes[k] - mn) * inv_scale + coin(c32);
        codes[k] = if EXACT {
            floor_code(x, max_code)
        } else {
            floor_code_bounded::<BITS>(x)
        };
    }
    codes
}

/// Packs `codes` LSB-first, `BITS` bits each, into `obytes`, one byte per
/// `8 / BITS` codes.
///
/// SWAR byte assembly: adjacent u32 codes pair into one u64 (LLVM merges
/// the two loads), and two shift+or steps drop each code onto its
/// LSB-first bit position — the naive `acc |= code << k*BITS` fold made
/// LLVM extract every vector lane through a scalar register. The
/// truncating `as u8` keeps only the assembled byte; the high half
/// carries the shifted copies.
#[inline(always)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "codes are clamped to max_code <= 255"
)]
fn pack_codes<const BITS: u32>(codes: &[u32], obytes: &mut [u8]) {
    if BITS == 2 {
        for (b, byte) in obytes.iter_mut().enumerate() {
            let j = b * 4;
            let w1 = u64::from(codes[j]) | u64::from(codes[j + 1]) << 32;
            let w2 = u64::from(codes[j + 2]) | u64::from(codes[j + 3]) << 32;
            let t = w1 | (w2 << 4);
            *byte = (t | (t >> 30)) as u8;
        }
    } else if BITS == 4 {
        for (b, byte) in obytes.iter_mut().enumerate() {
            let j = b * 2;
            let w = u64::from(codes[j]) | u64::from(codes[j + 1]) << 32;
            *byte = (w | (w >> 28)) as u8;
        }
    } else {
        for (b, byte) in obytes.iter_mut().enumerate() {
            *byte = codes[b] as u8;
        }
    }
}

/// Expands the codes packed LSB-first in `bytes` (at most four) into
/// `vals`: `code as f32 * scale + zero`, each code extracted with its own
/// shift and mask.
#[inline(always)]
fn expand<const BITS: usize>(bytes: &[u8], scale: f32, zero: f32, vals: &mut [f32]) {
    let mut word = [0u8; 4];
    word[..bytes.len()].copy_from_slice(bytes);
    let word = u32::from_le_bytes(word);
    let mask = (1u32 << BITS) - 1;
    for (k, v) in vals.iter_mut().enumerate() {
        *v = (word >> (k * BITS) & mask) as f32 * scale + zero;
    }
}

/// De-quantizes the first `out.len()` `BITS`-bit codes (2 or 4) of
/// `packed`: `code as f32 * scale + zero`, the historical expression, per
/// element. Whole 32-bit words go first, then eight codes at a time: one
/// variable shift per lane (`vpsrlvd`) and an eight-wide convert, multiply
/// and add, where a table lookup per code would not vectorize. A tail
/// shorter than eight codes (a row whose length is not a multiple of 8)
/// goes code by code.
pub(crate) fn dequant_span<const BITS: usize>(
    packed: &[u8],
    scale: f32,
    zero: f32,
    out: &mut [f32],
) {
    const GROUP: usize = 8;
    let per_byte = 8 / BITS;
    let per_word = 32 / BITS;
    let value = |j: usize| {
        let code = u32::from(packed[j / per_byte] >> (j % per_byte * BITS)) & ((1 << BITS) - 1);
        code as f32 * scale + zero
    };
    let len = out.len();
    let words = len / per_word;
    let groups = (len - words * per_word) / GROUP;
    let (by_word, rest) = out.split_at_mut(words * per_word);
    let (by_group, last) = rest.split_at_mut(groups * GROUP);
    let (word_bytes, group_bytes) = packed.split_at(4 * words);
    for (w, vals) in word_bytes
        .chunks_exact(4)
        .zip(by_word.chunks_exact_mut(per_word))
    {
        expand::<BITS>(w, scale, zero, vals);
    }
    for (w, vals) in group_bytes
        .chunks_exact(BITS)
        .zip(by_group.chunks_exact_mut(GROUP))
    {
        expand::<BITS>(w, scale, zero, vals);
    }
    let j0 = len - last.len();
    for (o, v) in last.iter_mut().enumerate() {
        *v = value(j0 + o);
    }
}

/// De-quantizes 8-bit codes (one code per byte) — a straight multiply-add
/// loop (two roundings: Rust never fuses them) the compiler vectorizes on
/// its own.
pub(crate) fn dequant_span8(packed: &[u8], scale: f32, zero: f32, out: &mut [f32]) {
    let src = &packed[..out.len()];
    for (o, &b) in out.iter_mut().zip(src) {
        *o = b as f32 * scale + zero;
    }
}

/// De-quantizes the first `out.len()` `width`-bit codes of `packed`:
/// `code as f32 * scale + zero`. The one place a decoder dispatches on the
/// width.
#[inline]
pub(crate) fn dequant_row(
    width: crate::BitWidth,
    packed: &[u8],
    scale: f32,
    zero: f32,
    out: &mut [f32],
) {
    match width {
        crate::BitWidth::B2 => dequant_span::<2>(packed, scale, zero, out),
        crate::BitWidth::B4 => dequant_span::<4>(packed, scale, zero, out),
        crate::BitWidth::B8 => dequant_span8(packed, scale, zero, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_code_matches_saturating_cast() {
        // Edge cases around every regime change, plus a deterministic fuzz
        // sweep over raw bit patterns. The kernel only feeds floor_code
        // non-negative or NaN values, so that is the pinned domain.
        let mut cases: Vec<f32> = vec![
            f32::NAN,
            f32::INFINITY,
            0.0,
            f32::MIN_POSITIVE,
            1.0e-40, // subnormal
            0.999_999_9,
            1.0,
            3.999_999_8,
            4.0,
            255.999_98,
            256.0,
            8_388_607.5,
            8_388_608.0,
            16_777_216.0,
            1.0e38,
            f32::MAX,
        ];
        let mut state = 0x1234_5678_u64;
        for _ in 0..200_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            cases.push(f32::from_bits((state >> 32) as u32));
        }
        for mc in [3u32, 15, 255] {
            for &x in &cases {
                if x.is_nan() || x >= 0.0 {
                    let want = (x as u32).min(mc);
                    assert_eq!(
                        floor_code(x, mc),
                        want,
                        "x={x:?} bits={:08x} mc={mc}",
                        x.to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn bounded_floor_matches_exact_on_domain() {
        // The EXACT = false contract: non-NaN inputs lie in
        // [0, max_code + 1.001). Sweep a dense grid over that interval plus
        // the exact boundary values floor can reach (integers up to
        // 2^BITS), and NaN.
        fn check<const BITS: u32>() {
            let max_code = (1u32 << BITS) - 1;
            let hi = max_code as f32 + 1.0009;
            let steps = 400_000u32;
            for k in 0..=steps {
                let x = hi * (k as f32 / steps as f32);
                assert_eq!(
                    floor_code_bounded::<BITS>(x),
                    floor_code(x, max_code),
                    "BITS={BITS} x={x:?}"
                );
            }
            for i in 0..=(1u32 << BITS) {
                for nudge in [-1i32, 0, 1] {
                    let x = f32::from_bits(((i as f32).to_bits() as i32 + nudge) as u32);
                    if x >= 0.0 && x < hi {
                        assert_eq!(
                            floor_code_bounded::<BITS>(x),
                            floor_code(x, max_code),
                            "BITS={BITS} x={x:?}"
                        );
                    }
                }
            }
            assert_eq!(floor_code_bounded::<BITS>(f32::NAN), 0);
        }
        check::<2>();
        check::<4>();
        check::<8>();
    }

    #[test]
    fn counter_matches_sequential_recurrence() {
        let seed = 0xDEAD_BEEF_u32;
        let mut c = seed;
        for j in 0..1000 {
            c = c.wrapping_add(PHI32);
            assert_eq!(counter_at(seed, j), c, "element {j}");
        }
    }

    #[test]
    fn min_max_matches_sequential_fold() {
        // Zero ties keep the earlier operand of each combine, spelled out
        // so the reference does not lean on `f32::min`'s unspecified sign.
        let keep_min = |a: f32, b: f32| if a.is_nan() || b < a { b } else { a };
        let keep_max = |a: f32, b: f32| if a.is_nan() || b > a { b } else { a };
        // `min_max`'s own association: element i folds into lane i % LANES
        // in position order, then the lanes combine as a tree.
        let lane_fold = |s: &[f32]| {
            let mut mins = [f32::INFINITY; LANES];
            let mut maxs = [f32::NEG_INFINITY; LANES];
            for (i, &x) in s.iter().enumerate() {
                mins[i % LANES] = keep_min(mins[i % LANES], x);
                maxs[i % LANES] = keep_max(maxs[i % LANES], x);
            }
            let mut stride = LANES / 2;
            while stride > 0 {
                for k in 0..stride {
                    mins[k] = keep_min(mins[k], mins[k + stride]);
                    maxs[k] = keep_max(maxs[k], maxs[k + stride]);
                }
                stride /= 2;
            }
            (mins[0], maxs[0])
        };
        let ints: Vec<f32> = (0..1003).map(|i| ((i * 37) % 101) as f32 - 50.0).collect();
        // Every seventh element from position 3 is NaN, +Inf, -Inf, +0.0 or
        // -0.0 in turn, so short prefixes see NaN alone.
        const SALT: [f32; 5] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
        let salt = |xs: &[f32]| -> Vec<f32> {
            let pick = |(i, &x): (usize, &f32)| if i % 7 == 3 { SALT[(i / 7) % 5] } else { x };
            xs.iter().enumerate().map(pick).collect()
        };
        let salted = salt(&ints);
        // Non-negative with both zeros: the minimum is a -0.0/+0.0 tie.
        let zero_floor = salt(&ints.iter().map(|x| x.abs()).collect::<Vec<_>>());
        let zeros: Vec<f32> = (0..1003).map(|i| [0.0, -0.0, f32::NAN][i % 3]).collect();
        let nans = vec![f32::NAN; 1003];
        for xs in [&ints, &salted, &zero_floor, &zeros, &nans] {
            for n in [0usize, 1, 3, 4, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1003] {
                let s = &xs[..n];
                let got = min_max(s);
                let (want, lanes) = if n == 0 {
                    ((0.0, 0.0), (0.0, 0.0))
                } else {
                    let seq = s
                        .iter()
                        .fold((f32::INFINITY, f32::NEG_INFINITY), |(a, b), &x| {
                            (keep_min(a, x), keep_max(b, x))
                        });
                    (seq, lane_fold(s))
                };
                // NaN is skipped (an all-NaN slice reports +Inf, -Inf) and
                // the value is the sequential fold's; only which zero wins a
                // tie depends on the lanes, and that is pinned bit for bit.
                assert_eq!(got, want, "{:?} n = {n}", &xs[..4]);
                let bits = |(a, b): (f32, f32)| (a.to_bits(), b.to_bits());
                assert_eq!(bits(got), bits(lanes), "{:?} n = {n}", &xs[..4]);
            }
        }
    }

    /// The scalar loop `encode_span` ran on every element past its last
    /// whole block before short rows went through padded 8-lane chunks:
    /// one byte at a time, each code `(x as u32).min(max_code)`.
    fn encode_scalar<const BITS: u32>(
        row: &[f32],
        mn: f32,
        inv_scale: f32,
        seed: u32,
        out: &mut [u8],
    ) {
        let per_byte = (8 / BITS) as usize;
        let max_code = (1u32 << BITS) - 1;
        for (b, byte) in out.iter_mut().enumerate() {
            let mut acc = 0u8;
            for k in 0..per_byte {
                let j = b * per_byte + k;
                if j < row.len() {
                    let x = (row[j] - mn) * inv_scale + coin(counter_at(seed, j));
                    let code = (x as u32).min(max_code) as u8;
                    acc |= code << (k as u32 * BITS);
                }
            }
            *byte = acc;
        }
    }

    /// `encode_span` against [`encode_scalar`] on one row, at the clamp
    /// the codec would pick for it.
    fn assert_span_is_scalar<const BITS: u32>(row: &[f32], seed: u32) {
        let (mn, mx) = min_max(row);
        let max_code = ((1u32 << BITS) - 1) as f32;
        let scale = if mx > mn { (mx - mn) / max_code } else { 0.0 };
        let inv_scale = 1.0 / scale;
        let len = (row.len() * BITS as usize).div_ceil(8);
        let (mut got, mut want) = (vec![0xA5u8; len], vec![0x5Au8; len]);
        if scale.is_normal() {
            encode_span::<BITS, false>(row, mn, inv_scale, seed, &mut got);
        } else {
            encode_span::<BITS, true>(row, mn, inv_scale, seed, &mut got);
        }
        encode_scalar::<BITS>(row, mn, inv_scale, seed, &mut want);
        assert_eq!(
            got,
            want,
            "BITS {BITS}, len {}, scale {scale:e}: {row:?}",
            row.len()
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn padded_chunks_encode_every_length_as_the_scalar_loop(
            seed in 0u32..u32::MAX,
            kind in 0u8..4,
            values in proptest::collection::vec(-3.0f32..3.0, 70..=70),
        ) {
            // Normal scales take the bounded clamp; a subnormal scale (a
            // row spanning less than 2^-126 * max_code) or an infinite one
            // (a row spanning more than f32::MAX) takes the exact clamp.
            let row: Vec<f32> = match kind {
                0 => values,
                1 => values.iter().map(|v| v * 1e-39).collect(),
                2 => values
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| match i % 5 {
                        0 => f32::MAX,
                        1 => -f32::MAX,
                        _ => v,
                    })
                    .collect(),
                _ => values
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| if i % 7 == 3 { f32::NAN } else { v })
                    .collect(),
            };
            for len in 1..=row.len() {
                assert_span_is_scalar::<2>(&row[..len], seed);
                assert_span_is_scalar::<4>(&row[..len], seed);
                assert_span_is_scalar::<8>(&row[..len], seed);
            }
        }
    }

    /// Packs `codes` LSB-first, `BITS` bits each, as the wire does.
    fn pack<const BITS: usize>(codes: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; (codes.len() * BITS).div_ceil(8)];
        for (j, &c) in codes.iter().enumerate() {
            out[j * BITS / 8] |= c << (j * BITS % 8);
        }
        out
    }

    #[test]
    fn spans_handle_unaligned_starts() {
        // De-quantize every prefix of a scrambled code pattern: spans of
        // zero, part of one and several 32-bit words, tails of every length
        // below eight codes.
        let codes: Vec<u8> = (0..64).map(|i| ((i * 7 + i / 5) % 4) as u8).collect();
        let packed = pack::<2>(&codes);
        for len in 0..64 {
            let mut deq = vec![0.0f32; len];
            dequant_span::<2>(&packed, 0.5, -1.0, &mut deq);
            for (d, &c) in deq.iter().zip(&codes[..len]) {
                assert_eq!(*d, c as f32 * 0.5 - 1.0, "len {len}");
            }
        }
        let codes4: Vec<u8> = (0..40).map(|i| ((i * 11 + i / 3) % 16) as u8).collect();
        let packed4 = pack::<4>(&codes4);
        for len in 0..40 {
            let mut deq = vec![0.0f32; len];
            dequant_span::<4>(&packed4, 0.25, 3.0, &mut deq);
            for (d, &c) in deq.iter().zip(&codes4[..len]) {
                assert_eq!(*d, c as f32 * 0.25 + 3.0, "len {len}");
            }
        }
    }
}
