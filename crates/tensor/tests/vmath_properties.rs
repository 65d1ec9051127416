//! Properties of the `vmath` kernels — the one set of transcendentals under
//! the tape and the inference engine: accuracy against `f64` over every
//! input that matters, the algebraic facts rank-based consumers rely on
//! (monotone `exp`, odd `tanh`), slice kernels ≡ their scalar form bitwise at
//! every remainder class, and the documented row-sum order pinned to bits.

use delrec_tensor::vmath::{
    exp, exp_sub_slice, gelu, gelu_slice, log_sum_exp, softmax_row, sum_row, tanh, LANES,
};

/// Check `exp` against `f64::exp` on every `f32` whose bit pattern lies in
/// `bits` (a run of same-sign values); returns the largest relative error.
/// Also asserts monotonicity between neighbours: for negative values a
/// larger bit pattern is a smaller `x`.
fn sweep_exp(bits: std::ops::RangeInclusive<u32>) -> f64 {
    let negative = bits.start() >> 31 == 1;
    let mut worst = 0.0f64;
    let mut prev: Option<f32> = None;
    for b in bits {
        let x = f32::from_bits(b);
        let got = exp(x);
        let want = f64::from(x).exp();
        worst = worst.max(((f64::from(got) - want) / want).abs());
        if let Some(p) = prev {
            let ordered = if negative { got <= p } else { got >= p };
            assert!(
                ordered,
                "exp not monotone at x = {x:e}: {got:e} after {p:e}"
            );
        }
        prev = Some(got);
    }
    worst
}

/// Every `f32` in [−87.3, 88.7] — about 2.2 billion inputs, split into
/// overlapping bit ranges across the host's cores.
#[test]
fn exp_matches_f64_on_every_f32_and_is_monotone() {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
    let mut ranges = Vec::new();
    for (lo, hi) in [
        (0.0f32.to_bits(), 88.7f32.to_bits()),
        ((-0.0f32).to_bits(), (-87.3f32).to_bits()),
    ] {
        let step = (hi - lo) / threads + 1;
        for t in 0..threads {
            // Each range starts on its predecessor's last value, so the
            // monotonicity check has no seam.
            let start = lo + t * step;
            ranges.push(start..=(start + step).min(hi));
        }
    }
    let worst = std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| s.spawn(move || sweep_exp(r)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep thread panicked"))
            .fold(0.0f64, f64::max)
    });
    assert!(worst <= 2e-7, "max relative error {worst:e}");
    // The two halves meet at ±0.
    assert!(exp(-f32::MIN_POSITIVE) <= exp(-0.0) && exp(0.0) <= exp(f32::MIN_POSITIVE));
}

#[test]
fn exp_special_values() {
    assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
    assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
    // Saturation at the f32 limits: ln(f32::MAX) ≈ 88.72284,
    // ln(f32::MIN_POSITIVE) ≈ −87.33654.
    assert!(exp(88.722_83).is_finite());
    assert_eq!(exp(88.722_85), f32::INFINITY);
    assert_eq!(exp(1000.0), f32::INFINITY);
    assert_eq!(exp(f32::INFINITY), f32::INFINITY);
    assert!(exp(-87.336_54) >= f32::MIN_POSITIVE);
    assert_eq!(exp(-87.336_55), 0.0);
    assert_eq!(exp(-1000.0), 0.0);
    assert_eq!(exp(f32::NEG_INFINITY), 0.0);
    assert!(exp(f32::NAN).is_nan());
    // Monotone across the saturation points too.
    let xs = [
        -200.0f32, -87.336_55, -87.336_54, -87.3, 88.7, 88.722_83, 88.722_85, 200.0,
    ];
    for w in xs.windows(2) {
        assert!(exp(w[0]) <= exp(w[1]), "exp({}) > exp({})", w[0], w[1]);
    }
}

#[test]
fn tanh_matches_f64_and_is_odd() {
    let check = |b: u32| {
        let x = f32::from_bits(b);
        let got = tanh(x);
        let err = (f64::from(got) - f64::from(x).tanh()).abs();
        assert!(err <= 2e-7, "tanh({x:e}) abs err {err:e}");
        assert_eq!(tanh(-x).to_bits(), (-got).to_bits(), "tanh(-{x:e})");
    };
    // Every 16th value of [0, 12], plus every value around the seam between
    // the polynomial and the exp form.
    (0..=12.0f32.to_bits()).step_by(16).for_each(check);
    let seam = 0.625f32.to_bits();
    (seam - 4096..=seam + 4096).for_each(check);

    assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
    for x in [9.5f32, 20.0, 100.0, f32::MAX, f32::INFINITY] {
        assert_eq!(tanh(x), 1.0, "tanh({x})");
        assert_eq!(tanh(-x), -1.0, "tanh(-{x})");
    }
    assert!(tanh(f32::NAN).is_nan());
}

/// Deterministic pseudo-random values in roughly [−6, 6].
fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32 - 0.5) * 12.0
        })
        .collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The documented row-sum order, written out independently of the kernel.
fn sum_in_documented_order(xs: &[f32]) -> f32 {
    let full = xs.len() / LANES * LANES;
    let mut l = [0.0f32; LANES];
    for (i, &x) in xs[..full].iter().enumerate() {
        l[i % LANES] += x;
    }
    let mut sum = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
    for &x in &xs[full..] {
        sum += x;
    }
    sum
}

/// Lengths 0..=67 cover every remainder class of the 8-lane kernels (and of
/// the 4-wide SSE vectors they compile to) with zero to eight full chunks.
#[test]
fn slice_kernels_equal_their_scalar_form_bitwise_at_every_length() {
    for len in 0..=67usize {
        let raw = fill(len as u64 + 1, len);

        let mut got = raw.clone();
        gelu_slice(&mut got);
        let want: Vec<f32> = raw.iter().map(|&x| gelu(x)).collect();
        assert_eq!(bits(&got), bits(&want), "gelu_slice, len {len}");

        let mut got = raw.clone();
        exp_sub_slice(&mut got, 0.75);
        let want: Vec<f32> = raw.iter().map(|&x| exp(x - 0.75)).collect();
        assert_eq!(bits(&got), bits(&want), "exp_sub_slice, len {len}");

        assert_eq!(
            sum_row(&raw).to_bits(),
            sum_in_documented_order(&raw).to_bits(),
            "sum_row, len {len}"
        );
        if len == 0 {
            continue;
        }

        let max = raw.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = raw.iter().map(|&x| exp(x - max)).collect();
        let sum = sum_in_documented_order(&exps);
        let inv = 1.0 / sum;
        let want: Vec<f32> = exps.iter().map(|&e| e * inv).collect();
        let mut got = raw.clone();
        softmax_row(&mut got);
        assert_eq!(bits(&got), bits(&want), "softmax_row, len {len}");
        assert!(
            (sum_row(&got) - 1.0).abs() <= 1e-6,
            "softmax sum, len {len}"
        );

        assert_eq!(
            log_sum_exp(&raw).to_bits(),
            (max + sum.ln()).to_bits(),
            "log_sum_exp, len {len}"
        );
    }
}

/// Rows whose sum depends on association. 2²⁴ + 1 is not representable, so
/// added left to right every `+ 1` after a leading 2²⁴ is lost and each row
/// below sums to 2²⁴; the documented order gives something else.
#[test]
fn row_sum_order_is_pinned_to_exact_bits() {
    const BIG: f32 = 16_777_216.0; // 2²⁴
                                   // Lane striding and the tail: 2²⁴ then sixteen ones. Lane 0 holds 2²⁴
                                   // (its `+ 1` lost), lanes 1–7 hold 2 each; the tree adds them as
                                   // `((2²⁴+2)+4) + (4+4)` = 2²⁴ + 14, and the tail's `+ 1` ties to even.
    let mut row = vec![1.0f32; 17];
    row[0] = BIG;
    assert_eq!(row.iter().sum::<f32>(), BIG, "left-to-right");
    assert_eq!(sum_row(&row).to_bits(), (BIG + 16.0).to_bits());
    // The tree itself, on single-chunk rows (lane j = element j):
    // `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
    for (lanes, want) in [
        // l0+l1 loses a one, then + (l2+l3 = 1) loses the other.
        ([BIG, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0], BIG),
        // l2+l3 = 2 survives.
        ([BIG, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0], BIG + 2.0),
        // (l4+l5)+(l6+l7) = 4 survives.
        ([BIG, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0], BIG + 4.0),
    ] {
        assert_eq!(lanes.iter().sum::<f32>(), BIG, "left-to-right");
        assert_eq!(sum_row(&lanes).to_bits(), want.to_bits(), "{lanes:?}");
    }
}
