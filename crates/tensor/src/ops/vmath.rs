//! Branch-free, pure-`f32` `exp`/`tanh` and the row kernels built on them —
//! the one set of transcendentals under both the tape ops and the grad-free
//! engine.
//!
//! `std`'s `f32::exp`/`tanh` forward to the host libm: an out-of-line call
//! per element (the loop around it cannot vectorise) whose precision `std`
//! documents as platform-dependent. The kernels here are plain arithmetic on
//! `f32` and integer bit patterns — no call, no branch, no table — so a loop
//! over them auto-vectorises, and every result is fixed by IEEE-754
//! single-precision arithmetic alone, on any host.
//!
//! **Why vectorisation cannot change a bit.** Each scalar kernel is a fixed
//! sequence of correctly-rounded `f32` operations with no `mul_add`; a SIMD
//! lane performs that same sequence, so the elementwise slice forms
//! ([`exp_sub_slice`], [`gelu_slice`]) equal their per-element scalar form
//! bitwise at every length. The one reduction, the row sum, is written in a
//! *fixed* order (see [`sum_row`]) that the compiler may not reassociate,
//! so [`softmax_row`] and [`log_sum_exp`] depend on the row's contents only
//! — not on the batch, the thread, or the vector width of the build.
//!
//! Accuracy (pinned by `tests/vmath_properties.rs`, `exp` over every `f32`
//! input in range): [`exp`] relative error ≤ 2e-7 and monotone; [`tanh`]
//! absolute error ≤ 2e-7, odd and sign-preserving.
//!
//! The two slice kernels the LM forward spends time in, [`softmax_row`] and
//! [`gelu_slice`], are instantiated twice from one body (128-bit baseline and
//! 256-bit AVX2, chosen at run time — see `ops::dispatch`); by the argument
//! above the two instantiations agree bitwise, which this module's tests pin.

use super::dispatch::simd_dispatch;

/// Accumulator lanes of the row sum ([`sum_row`]).
pub const LANES: usize = 8;

const LOG2_E: f32 = std::f32::consts::LOG2_E;
// Cody–Waite split of ln 2: `LN2_HI` has 9 significant bits, so `n·LN2_HI`
// is exact for every exponent `n` this module produces.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;
// 1.5·2²³: adding it to |v| < 2²² rounds `v` to the nearest integer (ties to
// even) and leaves that integer in the low mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;
// `exp` overflows to +∞ above `EXP_HI` (> ln f32::MAX) and is flushed to 0
// below `EXP_LO` (the smallest `f32` ≥ ln f32::MIN_POSITIVE), so results are
// +∞, 0, or normal.
const EXP_HI: f32 = 89.0;
const EXP_LO: f32 = -87.336_54;
// Cephes `expf` minimax polynomial for (eʳ − 1 − r)/r² on |r| ≤ ln2/2
// (published digits kept; each rounds to one `f32`).
#[allow(clippy::excessive_precision)]
const EXP_P: [f32; 6] = [
    1.987_569_150_0e-4,
    1.398_199_950_7e-3,
    8.333_451_907_3e-3,
    4.166_579_589_4e-2,
    1.666_666_545_9e-1,
    5.000_000_120_1e-1,
];

/// `eˣ`: round `n = x·log₂e` with a magic-number add, reduce
/// `r = x − n·ln2` in two steps, evaluate a degree-5 polynomial in `r`, and
/// scale by `2ⁿ` built from integer exponent bits (in two halves, so
/// `n = 128` reaches up to `f32::MAX` without a premature `∞`).
///
/// Relative error ≤ 2e-7 wherever the result is normal; `exp(±0) == 1.0`
/// exactly; monotone non-decreasing over all of `f32`; `+∞` above
/// `ln f32::MAX`, `0.0` below `ln f32::MIN_POSITIVE`; NaN in → NaN out.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    // Selects, not `f32::min`/`max`: a NaN fails both comparisons and so
    // propagates through the arithmetic below.
    let xc = if x > EXP_HI { EXP_HI } else { x };
    let xc = if xc < EXP_LO { EXP_LO } else { xc };
    let shifted = xc * LOG2_E + ROUND_MAGIC;
    let n = shifted - ROUND_MAGIC;
    let ni = (shifted.to_bits() as i32).wrapping_sub(ROUND_MAGIC.to_bits() as i32);
    let r = xc - n * LN2_HI - n * LN2_LO;
    let [p0, p1, p2, p3, p4, p5] = EXP_P;
    let p = ((((p0 * r + p1) * r + p2) * r + p3) * r + p4) * r + p5;
    let y = p * (r * r) + r + 1.0;
    // 2ⁿ = 2^⌊n/2⌋ · 2^(n − ⌊n/2⌋); both exponents stay within [-63, 64].
    let half = ni >> 1;
    let s1 = f32::from_bits(((half + 127) << 23) as u32);
    let s2 = f32::from_bits(((ni - half + 127) << 23) as u32);
    let e = y * s1 * s2;
    if x < EXP_LO {
        0.0
    } else {
        e
    }
}

// Cephes `tanhf`: odd polynomial x + x·z·P(z), z = x², below this bound.
const TANH_SMALL: f32 = 0.625;
#[allow(clippy::excessive_precision)]
const TANH_P: [f32; 5] = [
    -5.704_988_727_45e-3,
    2.063_908_879_54e-2,
    -5.373_971_555_31e-2,
    1.333_144_220_36e-1,
    -3.333_328_194_22e-1,
];

/// `tanh x`, computed on `|x|` with the sign bit restored afterwards: the odd
/// polynomial below 0.625, `1 − 2/(e^{2|x|} + 1)` above (both evaluated, one
/// selected — no branch).
///
/// Absolute error ≤ 2e-7; `tanh(−x)` is bitwise `−tanh(x)`; `±0` is
/// preserved; saturates to exactly `±1` from |x| ≈ 9; NaN in → NaN out.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    const SIGN: u32 = 0x8000_0000;
    let ax = f32::from_bits(x.to_bits() & !SIGN);
    let z = ax * ax;
    let [p0, p1, p2, p3, p4] = TANH_P;
    let p = (((p0 * z + p1) * z + p2) * z + p3) * z + p4;
    let small = ax + ax * z * p;
    let large = 1.0 - 2.0 / (exp(2.0 * ax) + 1.0);
    let t = if ax < TANH_SMALL { small } else { large };
    f32::from_bits(t.to_bits() | (x.to_bits() & SIGN))
}

/// Logistic sigmoid `1/(1 + e⁻ˣ)`.
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_COEF: f32 = 0.044_715;

/// GELU, tanh approximation: `½x(1 + tanh(√(2/π)(x + 0.044715x³)))`.
#[inline(always)]
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + tanh(SQRT_2_OVER_PI * (x + GELU_COEF * x * x * x)))
}

/// Derivative of [`gelu`] at `x`.
#[inline(always)]
pub fn gelu_grad(x: f32) -> f32 {
    let t = tanh(SQRT_2_OVER_PI * (x + GELU_COEF * x * x * x));
    let dt = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * dt * SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_COEF * x * x)
}

simd_dispatch! {
    /// In place `x ← gelu(x)` over a slice, at the host's vector width.
    pub fn gelu_slice(xs: &mut [f32]) => gelu_slice_body
}

/// The one source body of [`gelu_slice`].
#[inline(always)]
fn gelu_slice_body(xs: &mut [f32]) {
    for x in xs.iter_mut() {
        *x = gelu(*x);
    }
}

/// In place `x ← exp(x − shift)` over a slice. The pass carries no
/// loop-carried value (the sum is a separate pass), so it vectorises.
#[inline(always)]
pub fn exp_sub_slice(xs: &mut [f32], shift: f32) {
    for x in xs.iter_mut() {
        *x = exp(*x - shift);
    }
}

/// Largest element of `xs` (`−∞` when empty); NaNs are skipped. `max` is
/// associative and commutative, so the lane-wise order changes nothing (the
/// sign of a zero maximum aside, which `exp(x − max)` cannot see).
#[inline(always)]
fn row_max(xs: &[f32]) -> f32 {
    let pick = |m: f32, x: f32| if x > m { x } else { m };
    let mut lanes = [f32::NEG_INFINITY; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for c in &mut chunks {
        for (m, &x) in lanes.iter_mut().zip(c) {
            *m = pick(*m, x);
        }
    }
    let tail = chunks.remainder().iter().copied();
    lanes.into_iter().chain(tail).fold(f32::NEG_INFINITY, pick)
}

/// `Σ f(xs[i])` in the order documented on [`sum_row`].
#[inline(always)]
fn lane_sum(xs: &[f32], f: impl Fn(f32) -> f32) -> f32 {
    let mut l = [0.0f32; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for c in &mut chunks {
        for (acc, &x) in l.iter_mut().zip(c) {
            *acc += f(x);
        }
    }
    let mut sum = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
    for &x in chunks.remainder() {
        sum += f(x);
    }
    sum
}

/// `Σ xs[i]` in the crate's one fixed row-sum order: accumulator lane `j`
/// takes elements `j, j+8, j+16, …` of the full 8-element chunks in ascending
/// order; the lanes combine as `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`; the
/// `len % 8` tail elements are then added one at a time, in order. Float
/// addition is not reassociated by the compiler, so this order *is* the
/// result, whatever vector width the lane adds compile to.
#[inline(always)]
pub fn sum_row(xs: &[f32]) -> f32 {
    lane_sum(xs, |x| x)
}

simd_dispatch! {
    /// In-place numerically-stable softmax of one row: max-shift, `exp` pass,
    /// row sum in the fixed [`sum_row`] order, one `1/sum` multiply — all
    /// three passes at the host's vector width.
    pub fn softmax_row(row: &mut [f32]) => softmax_row_body
}

/// The one source body of [`softmax_row`]; every helper it calls is
/// `#[inline(always)]`, so the max, `exp` and sum passes are instantiated
/// with it.
#[inline(always)]
fn softmax_row_body(row: &mut [f32]) {
    let max = row_max(row);
    exp_sub_slice(row, max);
    let inv = 1.0 / sum_row(row);
    for x in row.iter_mut() {
        *x *= inv;
    }
}

/// `log Σ exp(xs)`, max-shifted; the sum of exponentials is bitwise the one
/// [`softmax_row`] divides by. `ln` is `std`'s — one call per row.
pub fn log_sum_exp(xs: &[f32]) -> f32 {
    let max = row_max(xs);
    max + lane_sum(xs, |x| exp(x - max)).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_kernels_agree_with_each_other() {
        let raw: Vec<f32> = (0..21).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let mut sm = raw.clone();
        softmax_row(&mut sm);
        assert!((sum_row(&sm) - 1.0).abs() < 1e-6);
        // exp(x − lse) is softmax up to the rounding of ln and one exp.
        let lse = log_sum_exp(&raw);
        for (&x, &p) in raw.iter().zip(&sm) {
            assert!((exp(x - lse) - p).abs() < 1e-6);
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Each slice kernel's baseline body (inlined here, so compiled at the
    /// build's width) against its dispatched entry, at lengths whose
    /// remainders differ between 4 and 8 lanes and on the special values.
    #[test]
    fn dispatched_slice_kernels_are_bitwise_their_baseline_body() {
        crate::ops::dispatch::report_instantiation("softmax_row / gelu_slice");
        for len in [1usize, 7, 8, 9, 15, 16, 17, 127] {
            let raw: Vec<f32> = (0..len).map(|i| (i as f32 * 0.61).sin() * 6.0).collect();
            let (mut want, mut got) = (raw.clone(), raw.clone());
            gelu_slice_body(&mut want);
            gelu_slice(&mut got);
            assert_eq!(bits(&want), bits(&got), "gelu, len {len}");

            // One special value per row: a NaN's payload is part of the bits,
            // and two *different* NaNs meeting in one add (an input NaN and
            // the ∞ − ∞ one) would make the result depend on operand order,
            // which no instantiation promises.
            for special in [
                None,
                Some(f32::INFINITY),
                Some(f32::NEG_INFINITY),
                Some(f32::NAN),
            ] {
                let mut row = raw.clone();
                if let Some(v) = special {
                    row[len / 2] = v;
                }
                let (mut want, mut got) = (row.clone(), row);
                softmax_row_body(&mut want);
                softmax_row(&mut got);
                assert_eq!(bits(&want), bits(&got), "softmax, len {len}, {special:?}");
            }
        }
        let (mut want, mut got) = ([f32::NEG_INFINITY; 9], [f32::NEG_INFINITY; 9]);
        softmax_row_body(&mut want);
        softmax_row(&mut got);
        assert_eq!(bits(&want), bits(&got), "all −∞");
    }

    #[test]
    fn empty_and_single_rows() {
        softmax_row(&mut []);
        let mut one = [3.5f32];
        softmax_row(&mut one);
        assert_eq!(one, [1.0]);
        assert_eq!(log_sum_exp(&[3.5]), 3.5);
    }
}
