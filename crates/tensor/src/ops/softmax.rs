//! Softmax-family ops and the fused cross-entropy loss.

use super::vmath;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Softmax of one row, written into `out` — the engine's in-place
/// [`vmath::softmax_row`] over a copy, so the two cannot differ.
fn softmax_row(row: &[f32], out: &mut [f32]) {
    out.copy_from_slice(row);
    vmath::softmax_row(out);
}

impl Tape {
    /// Softmax over the last axis.
    pub fn softmax(&self, a: Var) -> Var {
        let _span = delrec_obs::span!("tensor.softmax");
        let (rows, d, shape, out) = {
            let va = self.value(a);
            let d = va.shape().last();
            let rows = va.shape().rows();
            let mut out = self.alloc(va.numel());
            for r in 0..rows {
                softmax_row(va.row(r), &mut out[r * d..(r + 1) * d]);
            }
            (rows, d, va.shape().clone(), out)
        };
        self.push(
            Tensor::new(shape, out),
            vec![a.id],
            Some(Box::new(move |ctx| {
                // dx = y ⊙ (g − ⟨g, y⟩) per row.
                let (y, g) = (ctx.out(), ctx.grad());
                let mut gr = ctx.alloc(g.numel());
                for r in 0..rows {
                    let ys = &y.data()[r * d..(r + 1) * d];
                    let gs = &g.data()[r * d..(r + 1) * d];
                    let dot: f32 = ys.iter().zip(gs).map(|(&yv, &gv)| yv * gv).sum();
                    for c in 0..d {
                        gr[r * d + c] = ys[c] * (gs[c] - dot);
                    }
                }
                vec![Tensor::new(g.shape().clone(), gr)]
            })),
        )
    }

    /// Softmax over the last axis restricted to a *valid prefix* per row:
    /// `out[r, c] = softmax(a[r, ..valid[r]])[c]` for `c < valid[r]`, and
    /// exactly `0.0` beyond it.
    ///
    /// This is the attention-mask primitive for right-padded batches. Because
    /// the max/sum run over the same contiguous prefix a single unpadded
    /// sequence would use, the valid outputs are bitwise identical to calling
    /// [`Tape::softmax`] on the unpadded row — the property the batched ==
    /// single-example tests pin down.
    ///
    /// # Panics
    /// Panics if `valid.len()` differs from the row count or any count is 0
    /// or exceeds the row width.
    pub fn softmax_masked(&self, a: Var, valid: &[usize]) -> Var {
        let _span = delrec_obs::span!("tensor.softmax");
        let (rows, d, shape, out) = {
            let va = self.value(a);
            let d = va.shape().last();
            let rows = va.shape().rows();
            assert_eq!(
                valid.len(),
                rows,
                "softmax_masked: {} valid counts for {rows} rows",
                valid.len()
            );
            let mut out = self.alloc(va.numel());
            for (r, &v) in valid.iter().enumerate() {
                assert!(
                    v >= 1 && v <= d,
                    "softmax_masked: valid count {v} out of 1..={d}"
                );
                softmax_row(&va.row(r)[..v], &mut out[r * d..r * d + v]);
                // Tail stays zero: padded keys get no probability mass.
            }
            (rows, d, va.shape().clone(), out)
        };
        let valid = valid.to_vec();
        self.push(
            Tensor::new(shape, out),
            vec![a.id],
            Some(Box::new(move |ctx| {
                let (y, g) = (ctx.out(), ctx.grad());
                let mut gr = ctx.alloc(g.numel());
                for (r, &v) in valid.iter().enumerate() {
                    let ys = &y.data()[r * d..r * d + v];
                    let gs = &g.data()[r * d..r * d + v];
                    let dot: f32 = ys.iter().zip(gs).map(|(&yv, &gv)| yv * gv).sum();
                    for c in 0..v {
                        gr[r * d + c] = ys[c] * (gs[c] - dot);
                    }
                    // Masked positions held constant zeros: no gradient.
                }
                debug_assert_eq!(valid.len(), rows);
                vec![Tensor::new(g.shape().clone(), gr)]
            })),
        )
    }

    /// Log-softmax over the last axis.
    pub fn log_softmax(&self, a: Var) -> Var {
        let (rows, d, shape, out) = {
            let va = self.value(a);
            let d = va.shape().last();
            let rows = va.shape().rows();
            let mut out = self.alloc(va.numel());
            for r in 0..rows {
                let row = va.row(r);
                let lse = vmath::log_sum_exp(row);
                for (o, &x) in out[r * d..(r + 1) * d].iter_mut().zip(row) {
                    *o = x - lse;
                }
            }
            (rows, d, va.shape().clone(), out)
        };
        self.push(
            Tensor::new(shape, out),
            vec![a.id],
            Some(Box::new(move |ctx| {
                // dx = g − softmax(x) * sum(g) per row; softmax = exp(out).
                let (y, g) = (ctx.out(), ctx.grad());
                let mut gr = ctx.alloc(g.numel());
                for r in 0..rows {
                    let gs = &g.data()[r * d..(r + 1) * d];
                    let ys = &y.data()[r * d..(r + 1) * d];
                    let total: f32 = gs.iter().sum();
                    for ((o, &gv), &yv) in gr[r * d..(r + 1) * d].iter_mut().zip(gs).zip(ys) {
                        *o = gv - vmath::exp(yv) * total;
                    }
                }
                vec![Tensor::new(g.shape().clone(), gr)]
            })),
        )
    }

    /// Mean cross-entropy between row logits and integer targets.
    ///
    /// `logits` is `[n, C]` (or `[C]` for a single example); `targets` holds
    /// one class index per row. Fused for numerical stability; the backward
    /// pass is `(softmax − onehot) / n`.
    pub fn cross_entropy(&self, logits: Var, targets: &[usize]) -> Var {
        let (rows, d, probs, loss) = {
            let vl = self.value(logits);
            let d = vl.shape().last();
            let rows = vl.shape().rows();
            assert_eq!(
                targets.len(),
                rows,
                "cross_entropy: {} targets for {} rows",
                targets.len(),
                rows
            );
            let mut probs = self.alloc(vl.numel());
            let mut loss = 0.0f32;
            for (r, &t) in targets.iter().enumerate() {
                assert!(t < d, "target {t} out of range for {d} classes");
                softmax_row(vl.row(r), &mut probs[r * d..(r + 1) * d]);
                loss -= probs[r * d + t].max(1e-12).ln();
            }
            loss /= rows as f32;
            (rows, d, probs, loss)
        };
        let targets = targets.to_vec();
        self.push(
            Tensor::scalar(loss),
            vec![logits.id],
            Some(Box::new(move |ctx| {
                let scale = ctx.grad().item() / rows as f32;
                let mut gr = ctx.alloc_copy(&probs);
                for (r, &t) in targets.iter().enumerate() {
                    gr[r * d + t] -= 1.0;
                }
                for v in &mut gr {
                    *v *= scale;
                }
                vec![Tensor::new(ctx.value(logits).shape().clone(), gr)]
            })),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check::check_grad;
    use crate::shape::Shape;

    #[test]
    fn softmax_rows_sum_to_one() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::new([2, 3], vec![1., 2., 3., -1., 0., 1.]));
        let y = tape.get(tape.softmax(a));
        let s0: f32 = y.row(0).iter().sum();
        let s1: f32 = y.row(1).iter().sum();
        assert!((s0 - 1.0).abs() < 1e-6 && (s1 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1., 2., 3.]));
        let b = tape.leaf(Tensor::from_vec(vec![1001., 1002., 1003.]));
        let (ya, yb) = (tape.get(tape.softmax(a)), tape.get(tape.softmax(b)));
        for (x, y) in ya.data().iter().zip(yb.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn masked_softmax_matches_unpadded_rows_exactly() {
        let tape = Tape::new();
        // Row 0 uses 2 of 4 positions, row 1 all 4.
        let padded = tape.leaf(Tensor::new(
            [2, 4],
            vec![0.3, -1.2, 99.0, 99.0, 0.5, 0.1, -0.7, 2.0],
        ));
        let y = tape.get(tape.softmax_masked(padded, &[2, 4]));
        let short = tape.leaf(Tensor::from_vec(vec![0.3, -1.2]));
        let ys = tape.get(tape.softmax(short));
        assert_eq!(
            &y.row(0)[..2],
            ys.data(),
            "valid prefix must be bitwise equal"
        );
        assert_eq!(
            &y.row(0)[2..],
            &[0.0, 0.0],
            "padded tail must be exactly zero"
        );
        let full = tape.leaf(Tensor::from_vec(vec![0.5, 0.1, -0.7, 2.0]));
        let yf = tape.get(tape.softmax(full));
        assert_eq!(y.row(1), yf.data());
    }

    #[test]
    fn grad_check_masked_softmax() {
        check_grad(
            &[vec![0.5, -1.2, 2.0, 0.1, 0.9, -0.4, 1.3, -2.0]],
            &[Shape::from([2, 4])],
            |tape, vars| {
                let y = tape.softmax_masked(vars[0], &[3, 4]);
                let q = tape.sqr(y);
                tape.sum_all(q)
            },
        );
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![0.3, -1.2, 2.0]));
        let ls = tape.get(tape.log_softmax(a));
        let s = tape.get(tape.softmax(a));
        for (l, p) in ls.data().iter().zip(s.data()) {
            assert!((l.exp() - p).abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_near_zero() {
        let tape = Tape::new();
        let logits = tape.leaf(Tensor::new([1, 3], vec![100., 0., 0.]));
        let loss = tape.cross_entropy(logits, &[0]);
        assert!(tape.get(loss).item() < 1e-5);
    }

    #[test]
    fn cross_entropy_uniform_is_log_c() {
        let tape = Tape::new();
        let logits = tape.leaf(Tensor::new([2, 4], vec![0.0; 8]));
        let loss = tape.cross_entropy(logits, &[1, 2]);
        assert!((tape.get(loss).item() - (4f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn grad_check_softmax_and_ce() {
        check_grad(
            &[vec![0.5, -1.2, 2.0, 0.1, 0.9, -0.4]],
            &[Shape::from([2, 3])],
            |tape, vars| tape.cross_entropy(vars[0], &[2, 0]),
        );
        check_grad(
            &[vec![0.5, -1.2, 2.0, 0.1, 0.9, -0.4]],
            &[Shape::from([2, 3])],
            |tape, vars| {
                let y = tape.softmax(vars[0]);
                let q = tape.sqr(y);
                tape.sum_all(q)
            },
        );
        check_grad(
            &[vec![0.5, -1.2, 2.0]],
            &[Shape::from([1, 3])],
            |tape, vars| {
                let y = tape.log_softmax(vars[0]);
                let q = tape.sqr(y);
                tape.sum_all(q)
            },
        );
    }
}
