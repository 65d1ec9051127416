//! Property-based verification of the autograd engine: analytic gradients
//! match finite differences for randomly-sampled inputs through composite
//! graphs, and algebraic identities hold.

use delrec_tensor::grad_check::check_grad;
use delrec_tensor::{Shape, Tape, Tensor};
use proptest::prelude::*;

/// Bounded, well-conditioned values (finite differences are noisy near 0 for
/// division and at large magnitudes for exp-family ops).
fn values(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(prop_oneof![-2.0f32..-0.2, 0.2f32..2.0], n..=n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn elementwise_chain_gradients(a in values(6), b in values(6)) {
        check_grad(
            &[a, b],
            &[Shape::from([2, 3]), Shape::from([2, 3])],
            |tape, vars| {
                let s = tape.add(vars[0], vars[1]);
                let m = tape.mul(s, vars[0]);
                let t = tape.tanh(m);
                tape.sum_all(t)
            },
        );
    }

    #[test]
    fn matmul_composite_gradients(a in values(6), b in values(6)) {
        check_grad(
            &[a, b],
            &[Shape::from([2, 3]), Shape::from([3, 2])],
            |tape, vars| {
                let p = tape.matmul(vars[0], vars[1]);
                let q = tape.sigmoid(p);
                tape.mean_all(q)
            },
        );
    }

    #[test]
    fn softmax_cross_entropy_gradients(logits in values(8)) {
        check_grad(&[logits], &[Shape::from([2, 4])], |tape, vars| {
            tape.cross_entropy(vars[0], &[1, 3])
        });
    }

    #[test]
    fn layer_norm_gradients(x in values(8), g in values(4), b in values(4)) {
        check_grad(
            &[x, g, b],
            &[Shape::from([2, 4]), Shape::from([4]), Shape::from([4])],
            |tape, vars| {
                let y = tape.layer_norm(vars[0], vars[1], vars[2]);
                let q = tape.sqr(y);
                tape.sum_all(q)
            },
        );
    }

    #[test]
    fn gather_scatter_gradients(x in values(8)) {
        check_grad(&[x], &[Shape::from([4, 2])], |tape, vars| {
            let g = tape.gather_rows(vars[0], &[3, 1, 3, 0]);
            let s = tape.scatter_rows(vars[0], &[(0, 1), (2, 0), (2, 1)], 3);
            let gs = tape.sqr(g);
            let ss = tape.sqr(s);
            let a = tape.sum_all(gs);
            let b = tape.sum_all(ss);
            tape.add(a, b)
        });
    }

    /// (A·B)ᵀ = Bᵀ·Aᵀ as computed by the tape ops.
    #[test]
    fn transpose_matmul_identity(a in values(6), b in values(6)) {
        let tape = Tape::new();
        let av = tape.leaf(Tensor::new([2, 3], a));
        let bv = tape.leaf(Tensor::new([3, 2], b));
        let ab_t = tape.transpose(tape.matmul(av, bv));
        let bt_at = tape.matmul(tape.transpose(bv), tape.transpose(av));
        let lhs = tape.get(ab_t);
        let rhs = tape.get(bt_at);
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// reshape → reshape-back is the identity, including for gradients.
    #[test]
    fn reshape_roundtrip_identity(x in values(12)) {
        let tape = Tape::new();
        let v = tape.leaf(Tensor::new([3, 4], x.clone()));
        let r = tape.reshape(v, [2, 6]);
        let back = tape.reshape(r, [3, 4]);
        let restored = tape.get(back);
        prop_assert_eq!(restored.data(), &x[..]);
        let loss = tape.sum_all(back);
        let grads = tape.backward(loss);
        prop_assert_eq!(grads.get(v).unwrap().data(), &vec![1.0f32; 12][..]);
    }

    /// Gradient accumulates linearly: d(sum(a·x + b·x))/dx = a + b.
    #[test]
    fn fanout_linearity(x in values(5), a in 0.5f32..3.0, b in 0.5f32..3.0) {
        let tape = Tape::new();
        let v = tape.leaf(Tensor::from_vec(x));
        let s1 = tape.scale(v, a);
        let s2 = tape.scale(v, b);
        let sum = tape.add(s1, s2);
        let loss = tape.sum_all(sum);
        let grads = tape.backward(loss);
        for &g in grads.get(v).unwrap().data() {
            prop_assert!((g - (a + b)).abs() < 1e-5);
        }
    }
}

/// `Σ_k a[i,k]·b[k,j]` for one output element in `matmul_raw`'s order: full
/// 4-groups in ascending `k`, each as one left-associated expression added to
/// the accumulator, then the remainder one product at a time.
fn dot_in_kernel_order(k: usize, a: impl Fn(usize) -> f32, b: impl Fn(usize) -> f32) -> f32 {
    let mut acc = 0.0f32;
    let mut kk = 0;
    while kk + 4 <= k {
        acc +=
            a(kk) * b(kk) + a(kk + 1) * b(kk + 1) + a(kk + 2) * b(kk + 2) + a(kk + 3) * b(kk + 3);
        kk += 4;
    }
    while kk < k {
        acc += a(kk) * b(kk);
        kk += 1;
    }
    acc
}

fn to_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batched matmul (and the 2-D product, drawn as `bsz = 0`), forward and
    /// both gradients, against the naive per-element sums — bitwise, across
    /// every tile and k-group remainder.
    #[test]
    fn matmul_batched_is_bitwise_the_naive_reference(
        bsz in 0usize..3, m in 1usize..10, k in 1usize..10, n in 1usize..19,
        seed in 0u64..1000,
    ) {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut fill = |len: usize| -> Vec<f32> {
            (0..len).map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            }).collect()
        };
        let dims = |r: usize, c: usize| match bsz {
            0 => Shape::from([r, c]),
            _ => Shape::from([bsz, r, c]),
        };
        let bsz = bsz.max(1);
        let (a, b, w) = (fill(bsz * m * k), fill(bsz * k * n), fill(bsz * m * n));
        let tape = Tape::new();
        let av = tape.leaf(Tensor::new(dims(m, k), a.clone()));
        let bv = tape.leaf(Tensor::new(dims(k, n), b.clone()));
        let out = tape.matmul(av, bv);
        // Weighted sum: the upstream gradient of `out` is exactly `w`.
        let loss = tape.sum_all(tape.mul(out, tape.constant(Tensor::new(dims(m, n), w.clone()))));
        let grads = tape.backward(loss);
        let (mut want, mut want_ga, mut want_gb) =
            (vec![0.0f32; bsz * m * n], vec![0.0f32; bsz * m * k], vec![0.0f32; bsz * k * n]);
        for i in 0..bsz {
            let (a, b, g) = (&a[i * m * k..], &b[i * k * n..], &w[i * m * n..]);
            for r in 0..m {
                for c in 0..n {
                    want[(i * m + r) * n + c] =
                        dot_in_kernel_order(k, |kk| a[r * k + kk], |kk| b[kk * n + c]);
                }
                // dA = g · Bᵀ
                for c in 0..k {
                    want_ga[(i * m + r) * k + c] =
                        dot_in_kernel_order(n, |j| g[r * n + j], |j| b[c * n + j]);
                }
            }
            // dB = Aᵀ · g
            for r in 0..k {
                for c in 0..n {
                    want_gb[(i * k + r) * n + c] =
                        dot_in_kernel_order(m, |j| a[j * k + r], |j| g[j * n + c]);
                }
            }
        }
        prop_assert_eq!(to_bits(tape.get(out).data()), to_bits(&want));
        prop_assert_eq!(to_bits(grads.get(av).unwrap().data()), to_bits(&want_ga));
        prop_assert_eq!(to_bits(grads.get(bv).unwrap().data()), to_bits(&want_gb));
    }

    /// The binary ops in their three broadcast modes (Exact / Scalar /
    /// Suffix), forward and both gradients, against per-element `i % n`
    /// indexing — bitwise, including the order the suffix gradient sums in.
    #[test]
    fn binary_ops_are_bitwise_the_per_element_reference(
        rows in 1usize..6, d in 1usize..9, mode in 0usize..3, op in 0usize..4,
        a in values(40), b in values(40), w in values(40),
    ) {
        let len = rows * d;
        let (b_shape, n) = match mode {
            0 => (Shape::from([rows, d]), len),
            1 => (Shape::scalar(), 1),
            _ => (Shape::from([d]), d),
        };
        let (a, b, w) = (&a[..len], &b[..n], &w[..len]);
        let tape = Tape::new();
        let av = tape.leaf(Tensor::new([rows, d], a.to_vec()));
        let bv = tape.leaf(Tensor::new(b_shape, b.to_vec()));
        type F = fn(f32, f32) -> f32;
        let (out, fwd, dfa, dfb): (_, F, F, F) = match op {
            0 => (tape.add(av, bv), |x, y| x + y, |_, _| 1.0, |_, _| 1.0),
            1 => (tape.sub(av, bv), |x, y| x - y, |_, _| 1.0, |_, _| -1.0),
            2 => (tape.mul(av, bv), |x, y| x * y, |_, y| y, |x, _| x),
            _ => (tape.div(av, bv), |x, y| x / y, |_, y| 1.0 / y, |x, y| -x / (y * y)),
        };
        let loss = tape.sum_all(tape.mul(out, tape.constant(Tensor::new([rows, d], w.to_vec()))));
        let grads = tape.backward(loss);
        let want: Vec<f32> = (0..len).map(|i| fwd(a[i], b[i % n])).collect();
        let want_ga: Vec<f32> = (0..len).map(|i| w[i] * dfa(a[i], b[i % n])).collect();
        let mut want_gb = vec![0.0f32; n];
        for i in 0..len {
            let term = w[i] * dfb(a[i], b[i % n]);
            // Exact assigns; the broadcast modes sum onto zeros, in order.
            want_gb[i % n] = if mode == 0 { term } else { want_gb[i % n] + term };
        }
        prop_assert_eq!(to_bits(tape.get(out).data()), to_bits(&want));
        prop_assert_eq!(to_bits(grads.get(av).unwrap().data()), to_bits(&want_ga));
        prop_assert_eq!(to_bits(grads.get(bv).unwrap().data()), to_bits(&want_gb));
    }
}
