//! Shape manipulation: reshape, row slices, concatenation, dropout.

use crate::shape::{Rows, Shape};
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use rand::Rng;

/// Draw an inverted-dropout mask: one `f32` per element of the whole
/// `[n, width]` tensor, in order, keeping it (as `1/(1-p)`) with probability
/// `1-p`. `mask` receives the rows `rows` produces, packed; the stream is
/// consumed for every row either way, so later draws do not depend on which
/// rows were kept.
pub(super) fn fill_dropout_mask<R: Rng>(
    mask: &mut [f32],
    width: usize,
    rows: Rows<'_>,
    p: f32,
    rng: &mut R,
) {
    assert!(p < 1.0, "dropout probability must be < 1");
    let keep = 1.0 - p;
    let scale = 1.0 / keep;
    let mut draw = || {
        if rng.random::<f32>() < keep {
            scale
        } else {
            0.0
        }
    };
    let Some((n, rows)) = rows.subset() else {
        mask.iter_mut().for_each(|m| *m = draw());
        return;
    };
    assert_eq!(mask.len(), rows.len() * width, "mask is [rows, width]");
    let mut kept = rows.iter().zip(mask.chunks_exact_mut(width)).peekable();
    for r in 0..n {
        match kept.next_if(|&(&k, _)| k == r) {
            Some((_, out)) => out.iter_mut().for_each(|m| *m = draw()),
            None => (0..width).for_each(|_| {
                draw();
            }),
        }
    }
}

impl Tape {
    /// Reinterpret a value with a new shape of equal element count.
    pub fn reshape(&self, a: Var, shape: impl Into<Shape>) -> Var {
        let (out, new) = {
            let va = self.value(a);
            let new: Shape = shape.into();
            assert_eq!(
                va.shape().numel(),
                new.numel(),
                "reshape {} -> {new} changes element count",
                va.shape()
            );
            (self.alloc_copy(va.data()), new)
        };
        self.push(
            Tensor::new(new, out),
            vec![a.id],
            Some(Box::new(move |ctx| {
                let old = ctx.value(a).shape().clone();
                vec![Tensor::new(old, ctx.alloc_copy(ctx.grad().data()))]
            })),
        )
    }

    /// Rows `start..start+len` of a rank-2 tensor.
    pub fn slice_rows(&self, a: Var, start: usize, len: usize) -> Var {
        let (n, d, out) = {
            let va = self.value(a);
            assert_eq!(va.shape().rank(), 2, "slice_rows expects rank 2");
            let (n, d) = (va.shape().dim(0), va.shape().dim(1));
            assert!(
                start + len <= n,
                "slice {start}..{} out of {n} rows",
                start + len
            );
            (
                n,
                d,
                self.alloc_copy(&va.data()[start * d..(start + len) * d]),
            )
        };
        self.push(
            Tensor::new([len, d], out),
            vec![a.id],
            Some(Box::new(move |ctx| {
                let mut gx = ctx.alloc(n * d);
                gx[start * d..(start + len) * d].copy_from_slice(ctx.grad().data());
                vec![Tensor::new([n, d], gx)]
            })),
        )
    }

    /// Concatenate rank-2 tensors along the row axis.
    pub fn concat_rows(&self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows of zero parts");
        let (d, data, row_counts) = {
            let d = self.value(parts[0]).shape().last();
            let mut row_counts = Vec::with_capacity(parts.len());
            let mut total_rows = 0;
            for &p in parts {
                let vp = self.value(p);
                assert_eq!(vp.shape().rank(), 2, "concat_rows expects rank 2 parts");
                assert_eq!(vp.shape().last(), d, "concat_rows last dims must match");
                row_counts.push(vp.shape().dim(0));
                total_rows += vp.shape().dim(0);
            }
            let mut data = self.alloc(total_rows * d);
            let mut offset = 0;
            for &p in parts {
                let vp = self.value(p);
                data[offset..offset + vp.numel()].copy_from_slice(vp.data());
                offset += vp.numel();
            }
            (d, data, row_counts)
        };
        let total: usize = row_counts.iter().sum();
        self.push(
            Tensor::new([total, d], data),
            parts.iter().map(|p| p.id).collect(),
            Some(Box::new(move |ctx| {
                let g = ctx.grad();
                let mut out = Vec::with_capacity(row_counts.len());
                let mut offset = 0;
                for &rc in &row_counts {
                    out.push(Tensor::new(
                        [rc, d],
                        ctx.alloc_copy(&g.data()[offset * d..(offset + rc) * d]),
                    ));
                    offset += rc;
                }
                out
            })),
        )
    }

    /// Concatenate rank-2 tensors of equal row count along the column axis
    /// (attention heads back into `[rows, d]`). Pure data movement, forward
    /// and backward.
    pub fn concat_cols(&self, parts: &[Var]) -> Var {
        let rows = self.value(parts[0]).shape().dim(0);
        let widths: Vec<usize> = parts
            .iter()
            .map(|&p| {
                let shape = self.shape_of(p);
                assert!(
                    shape.rank() == 2 && shape.dim(0) == rows,
                    "concat_cols parts are [{rows}, _], got {shape}"
                );
                shape.dim(1)
            })
            .collect();
        let d: usize = widths.iter().sum();
        let mut data = self.alloc(rows * d);
        let mut offset = 0;
        for (&p, &w) in parts.iter().zip(&widths) {
            let vp = self.value(p);
            for (dst, src) in data.chunks_exact_mut(d).zip(vp.data().chunks_exact(w)) {
                dst[offset..offset + w].copy_from_slice(src);
            }
            offset += w;
        }
        self.push(
            Tensor::new([rows, d], data),
            parts.iter().map(|p| p.id).collect(),
            Some(Box::new(move |ctx| {
                let mut offset = 0;
                let split = widths.iter().map(|&w| {
                    let mut part = ctx.alloc(rows * w);
                    let g = ctx.grad().data();
                    for (dst, src) in part.chunks_exact_mut(w).zip(g.chunks_exact(d)) {
                        dst.copy_from_slice(&src[offset..offset + w]);
                    }
                    offset += w;
                    Tensor::new([rows, w], part)
                });
                split.collect()
            })),
        )
    }

    /// Inverted dropout: during training, zero each element with probability
    /// `p` and scale survivors by `1/(1-p)`; identity in eval mode.
    ///
    /// With [`Rows::Of`], `a` is `[rows.len(), w]`, the rows `rows` of an
    /// `[n, w]` activation: the mask is drawn for all `n·w` elements, in
    /// order, and `a` gets its rows' entries — the values and the RNG stream
    /// of dropout over the whole activation, for the rows kept.
    pub fn dropout<R: Rng>(&self, a: Var, rows: Rows<'_>, p: f32, train: bool, rng: &mut R) -> Var {
        if !train || p <= 0.0 {
            return a;
        }
        let (shape, out, mask) = {
            let va = self.value(a);
            if let Some((_, rows)) = rows.subset() {
                assert!(
                    va.shape().rank() == 2 && va.shape().dim(0) == rows.len(),
                    "dropout over {} rows of a {} operand",
                    rows.len(),
                    va.shape()
                );
            }
            let mut mask = self.alloc(va.numel());
            fill_dropout_mask(&mut mask, va.shape().last(), rows, p, rng);
            let mut out = self.alloc(va.numel());
            for ((o, &x), &m) in out.iter_mut().zip(va.data()).zip(&mask) {
                *o = x * m;
            }
            (va.shape().clone(), out, mask)
        };
        self.push(
            Tensor::new(shape, out),
            vec![a.id],
            Some(Box::new(move |ctx| {
                let g = ctx.grad();
                let mut gr = ctx.alloc(g.numel());
                for ((o, &gv), &m) in gr.iter_mut().zip(g.data()).zip(&mask) {
                    *o = gv * m;
                }
                vec![Tensor::new(g.shape().clone(), gr)]
            })),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check::check_grad;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reshape_backward_restores_shape() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::new([2, 3], vec![1., 2., 3., 4., 5., 6.]));
        let r = tape.reshape(a, [3, 2]);
        let loss = tape.sum_all(r);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(a).unwrap().shape(), &Shape::from([2, 3]));
    }

    #[test]
    fn slice_rows_values() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::new([3, 2], vec![1., 2., 3., 4., 5., 6.]));
        let s = tape.slice_rows(a, 1, 2);
        assert_eq!(tape.get(s).data(), &[3., 4., 5., 6.]);
    }

    #[test]
    fn concat_then_slice_is_identity() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::new([1, 2], vec![1., 2.]));
        let b = tape.leaf(Tensor::new([2, 2], vec![3., 4., 5., 6.]));
        let c = tape.concat_rows(&[a, b]);
        assert_eq!(tape.get(c).data(), &[1., 2., 3., 4., 5., 6.]);
        let back = tape.slice_rows(c, 0, 1);
        assert_eq!(tape.get(back).data(), tape.get(a).data());
    }

    #[test]
    fn dropout_eval_is_identity() {
        let tape = Tape::new();
        let mut rng = StdRng::seed_from_u64(1);
        let a = tape.leaf(Tensor::from_vec(vec![1., 2., 3.]));
        let d = tape.dropout(a, Rows::All, 0.5, false, &mut rng);
        assert_eq!(d, a);
    }

    #[test]
    fn dropout_train_preserves_expectation_roughly() {
        let tape = Tape::new();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 10_000;
        let a = tape.leaf(Tensor::from_vec(vec![1.0; n]));
        let d = tape.dropout(a, Rows::All, 0.3, true, &mut rng);
        let mean = tape.get(d).sum() / n as f32;
        assert!((mean - 1.0).abs() < 0.05, "dropout mean {mean} drifted");
    }

    #[test]
    fn row_subset_dropout_is_the_full_dropout_gathered() {
        use rand::RngCore;
        let (n, w) = (11, 3);
        let keep = [0usize, 4, 5, 10];
        let full_data: Vec<f32> = (0..n * w).map(|i| i as f32 - 7.5).collect();
        let run = |rows: Rows<'_>, data: Vec<f32>, m: usize| {
            let tape = Tape::new();
            let mut rng = StdRng::seed_from_u64(3);
            let a = tape.leaf(Tensor::new([m, w], data));
            let d = tape.dropout(a, rows, 0.4, true, &mut rng);
            let grads = tape.backward(tape.sum_all(tape.sqr(d)));
            (tape.get(d), grads.get(a).unwrap().clone(), rng.next_u64())
        };
        let (full, full_grad, full_next) = run(Rows::All, full_data.clone(), n);
        let picked: Vec<f32> = keep
            .iter()
            .flat_map(|&r| full_data[r * w..(r + 1) * w].to_vec())
            .collect();
        let rows = Rows::Of { n, rows: &keep };
        let (sub, sub_grad, sub_next) = run(rows, picked, keep.len());
        for (i, &r) in keep.iter().enumerate() {
            assert_eq!(sub.row(i), full.row(r), "row {r}");
            assert_eq!(sub_grad.row(i), full_grad.row(r), "grad of row {r}");
        }
        assert_eq!(sub_next, full_next, "the whole mask was drawn");
    }

    #[test]
    fn grad_check_slice_concat() {
        check_grad(
            &[vec![0.5, -1.2, 2.0, 0.1], vec![0.9, -0.4]],
            &[Shape::from([2, 2]), Shape::from([1, 2])],
            |tape, vars| {
                let c = tape.concat_rows(&[vars[0], vars[1]]);
                let s = tape.slice_rows(c, 1, 2);
                let q = tape.sqr(s);
                tape.sum_all(q)
            },
        );
    }
}
