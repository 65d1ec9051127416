//! Matrix multiplication and transposes.

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// `out[m,n] += a[m,k] * b[k,n]` over contiguous row-major buffers.
///
/// Dense kernel: the `k` loop is unrolled four-wide so each pass over an
/// output row folds four rank-1 updates into one fused sweep — four times
/// fewer passes over `out`, and an inner loop the compiler can vectorize
/// without a data-dependent branch.
pub fn matmul_raw(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        let mut kk = 0;
        while kk + 4 <= k {
            let (a0, a1, a2, a3) = (a_row[kk], a_row[kk + 1], a_row[kk + 2], a_row[kk + 3]);
            let (b0, rest) = b[kk * n..].split_at(n);
            let (b1, rest) = rest.split_at(n);
            let (b2, rest) = rest.split_at(n);
            let b3 = &rest[..n];
            for (j, o) in out_row.iter_mut().enumerate() {
                *o += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
            }
            kk += 4;
        }
        for (kk, &av) in a_row.iter().enumerate().skip(kk) {
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Transpose tile edge: 32×32 f32 tiles are 4 KiB read + 4 KiB write,
/// comfortably inside L1 alongside the working set.
const TR_TILE: usize = 32;

/// `out[c, r] = x[r, c]` for a row-major `[rows, cols]` buffer — the kernel
/// behind [`crate::Tape::transpose`], exported as the reference the
/// transposing packers are tested against.
///
/// Tiled: the naive double loop strides `rows`-wide on every write, so past
/// L1 each store is a fresh cache line touched once per column sweep. Walking
/// [`TR_TILE`]² tiles keeps both the read rows and the write columns resident
/// while a tile is transposed. Pure data movement — element placement is
/// identical to the naive loop (pinned in this module's tests and in
/// `tests/gemm_properties.rs`).
pub fn transpose_into(x: &[f32], rows: usize, cols: usize, out: &mut [f32]) {
    debug_assert_eq!(x.len(), rows * cols);
    debug_assert_eq!(out.len(), rows * cols);
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + TR_TILE).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + TR_TILE).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    out[c * rows + r] = x[r * cols + c];
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
}

impl Tape {
    /// Matrix product. Supported operand ranks:
    ///
    /// * `[m,k] × [k,n] → [m,n]`
    /// * `[b,m,k] × [k,n] → [b,m,n]` (shared right operand)
    /// * `[b,m,k] × [b,k,n] → [b,m,n]` (batched)
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let (ra, rb, a_dims, b_dims) = {
            let (va, vb) = (self.value(a), self.value(b));
            (
                va.shape().rank(),
                vb.shape().rank(),
                va.shape().clone(),
                vb.shape().clone(),
            )
        };
        match (ra, rb) {
            (2, 2) => self.matmul_2d(a, b),
            (3, 2) => {
                let (bsz, m, k) = (a_dims.dim(0), a_dims.dim(1), a_dims.dim(2));
                let flat = self.reshape(a, [bsz * m, k]);
                let out = self.matmul_2d(flat, b);
                self.reshape(out, [bsz, m, b_dims.dim(1)])
            }
            (3, 3) => self.matmul_batched(a, b),
            _ => panic!("unsupported matmul ranks: {a_dims} x {b_dims}"),
        }
    }

    fn matmul_2d(&self, a: Var, b: Var) -> Var {
        let _span = delrec_obs::span!("tensor.matmul");
        let (m, k, n, out) = {
            let (va, vb) = (self.value(a), self.value(b));
            let (m, k) = (va.shape().dim(0), va.shape().dim(1));
            let (k2, n) = (vb.shape().dim(0), vb.shape().dim(1));
            assert_eq!(k, k2, "matmul inner dims: {} x {}", va.shape(), vb.shape());
            let mut out = self.alloc(m * n);
            super::gemm::gemm_auto(va.data(), vb.data(), &mut out, m, k, n);
            (m, k, n, out)
        };
        self.push(
            Tensor::new([m, n], out),
            vec![a.id, b.id],
            Some(Box::new(move |ctx| {
                // dA = g @ B^T ; dB = A^T @ g
                let (va, vb, g) = (ctx.value(a), ctx.value(b), ctx.grad());
                let mut bt = ctx.alloc(k * n);
                transpose_into(vb.data(), k, n, &mut bt);
                let mut ga = ctx.alloc(m * k);
                super::gemm::gemm_auto(g.data(), &bt, &mut ga, m, n, k);
                ctx.recycle(bt);
                let mut at = ctx.alloc(m * k);
                transpose_into(va.data(), m, k, &mut at);
                let mut gb = ctx.alloc(k * n);
                super::gemm::gemm_auto(&at, g.data(), &mut gb, k, m, n);
                ctx.recycle(at);
                vec![Tensor::new([m, k], ga), Tensor::new([k, n], gb)]
            })),
        )
    }

    fn matmul_batched(&self, a: Var, b: Var) -> Var {
        let _span = delrec_obs::span!("tensor.matmul");
        let (bsz, m, k, n, out) = {
            let (va, vb) = (self.value(a), self.value(b));
            let (bsz, m, k) = (va.shape().dim(0), va.shape().dim(1), va.shape().dim(2));
            let (bsz2, k2, n) = (vb.shape().dim(0), vb.shape().dim(1), vb.shape().dim(2));
            assert_eq!(bsz, bsz2, "batched matmul batch dims differ");
            assert_eq!(k, k2, "matmul inner dims: {} x {}", va.shape(), vb.shape());
            let mut out = self.alloc(bsz * m * n);
            for i in 0..bsz {
                matmul_raw(
                    &va.data()[i * m * k..(i + 1) * m * k],
                    &vb.data()[i * k * n..(i + 1) * k * n],
                    &mut out[i * m * n..(i + 1) * m * n],
                    m,
                    k,
                    n,
                );
            }
            (bsz, m, k, n, out)
        };
        self.push(
            Tensor::new([bsz, m, n], out),
            vec![a.id, b.id],
            Some(Box::new(move |ctx| {
                let (va, vb, g) = (ctx.value(a), ctx.value(b), ctx.grad());
                let mut ga = ctx.alloc(bsz * m * k);
                let mut gb = ctx.alloc(bsz * k * n);
                let mut bt = ctx.alloc(k * n);
                let mut at = ctx.alloc(m * k);
                for i in 0..bsz {
                    let gs = &g.data()[i * m * n..(i + 1) * m * n];
                    let asl = &va.data()[i * m * k..(i + 1) * m * k];
                    let bsl = &vb.data()[i * k * n..(i + 1) * k * n];
                    transpose_into(bsl, k, n, &mut bt);
                    matmul_raw(gs, &bt, &mut ga[i * m * k..(i + 1) * m * k], m, n, k);
                    transpose_into(asl, m, k, &mut at);
                    matmul_raw(&at, gs, &mut gb[i * k * n..(i + 1) * k * n], k, m, n);
                }
                ctx.recycle(bt);
                ctx.recycle(at);
                vec![Tensor::new([bsz, m, k], ga), Tensor::new([bsz, k, n], gb)]
            })),
        )
    }

    /// Transpose of a 2-D tensor, or of the last two axes of a 3-D tensor.
    pub fn transpose(&self, a: Var) -> Var {
        let rank = self.value(a).shape().rank();
        match rank {
            2 => {
                let (m, n, out) = {
                    let va = self.value(a);
                    let (m, n) = (va.shape().dim(0), va.shape().dim(1));
                    let mut out = self.alloc(m * n);
                    transpose_into(va.data(), m, n, &mut out);
                    (m, n, out)
                };
                self.push(
                    Tensor::new([n, m], out),
                    vec![a.id],
                    Some(Box::new(move |ctx| {
                        let mut gr = ctx.alloc(m * n);
                        transpose_into(ctx.grad().data(), n, m, &mut gr);
                        vec![Tensor::new([m, n], gr)]
                    })),
                )
            }
            3 => {
                let (b, m, n, out) = {
                    let va = self.value(a);
                    let (b, m, n) = (va.shape().dim(0), va.shape().dim(1), va.shape().dim(2));
                    let mut out = self.alloc(b * m * n);
                    for i in 0..b {
                        transpose_into(
                            &va.data()[i * m * n..(i + 1) * m * n],
                            m,
                            n,
                            &mut out[i * m * n..(i + 1) * m * n],
                        );
                    }
                    (b, m, n, out)
                };
                self.push(
                    Tensor::new([b, n, m], out),
                    vec![a.id],
                    Some(Box::new(move |ctx| {
                        let g = ctx.grad();
                        let mut gr = ctx.alloc(b * m * n);
                        for i in 0..b {
                            transpose_into(
                                &g.data()[i * m * n..(i + 1) * m * n],
                                n,
                                m,
                                &mut gr[i * m * n..(i + 1) * m * n],
                            );
                        }
                        vec![Tensor::new([b, m, n], gr)]
                    })),
                )
            }
            r => panic!("transpose supports rank 2 or 3, got rank {r}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check::check_grad;
    use crate::shape::Shape;

    #[test]
    fn matmul_raw_identity() {
        let a = vec![1., 2., 3., 4.]; // [2,2]
        let eye = vec![1., 0., 0., 1.];
        let mut out = vec![0.0; 4];
        matmul_raw(&a, &eye, &mut out, 2, 2, 2);
        assert_eq!(out, a);
    }

    #[test]
    fn unrolled_kernel_matches_the_plain_triple_loop() {
        // k = 7 hits both the 4-wide body and the tail; zeros included.
        let (m, k, n) = (3, 7, 5);
        let a: Vec<f32> = (0..m * k)
            .map(|i| {
                if i % 3 == 0 {
                    0.0
                } else {
                    (i as f32) * 0.25 - 2.0
                }
            })
            .collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32) * 0.5 - 8.0).collect();
        let mut dense = vec![0.0; m * n];
        matmul_raw(&a, &b, &mut dense, m, k, n);
        for i in 0..m {
            for j in 0..n {
                let want: f32 = (0..k).map(|kk| a[i * k + kk] * b[kk * n + j]).sum();
                let got = dense[i * n + j];
                assert!((got - want).abs() < 1e-4, "[{i},{j}]: {got} vs {want}");
            }
        }
    }

    #[test]
    fn matmul_2d_known_values() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::new([2, 3], vec![1., 2., 3., 4., 5., 6.]));
        let b = tape.leaf(Tensor::new([3, 2], vec![7., 8., 9., 10., 11., 12.]));
        let c = tape.matmul(a, b);
        assert_eq!(tape.get(c).data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_3d_shared_rhs() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::new([2, 1, 2], vec![1., 0., 0., 1.]));
        let b = tape.leaf(Tensor::new([2, 3], vec![1., 2., 3., 4., 5., 6.]));
        let c = tape.matmul(a, b);
        assert_eq!(tape.shape_of(c), Shape::from([2, 1, 3]));
        assert_eq!(tape.get(c).data(), &[1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    fn tiled_transpose_matches_naive_loop() {
        // Shapes straddling the tile edge in each dimension, plus degenerate
        // row/column vectors.
        for &(rows, cols) in &[
            (1usize, 1usize),
            (1, 70),
            (70, 1),
            (5, 9),
            (TR_TILE, TR_TILE),
            (TR_TILE - 1, TR_TILE + 1),
            (2 * TR_TILE + 3, TR_TILE + 5),
        ] {
            let x: Vec<f32> = (0..rows * cols).map(|i| i as f32 * 0.37 - 4.0).collect();
            let mut naive = vec![0.0f32; rows * cols];
            for r in 0..rows {
                for c in 0..cols {
                    naive[c * rows + r] = x[r * cols + c];
                }
            }
            let mut tiled = vec![0.0f32; rows * cols];
            transpose_into(&x, rows, cols, &mut tiled);
            assert_eq!(naive, tiled, "rows={rows} cols={cols}");
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::new([2, 3], vec![1., 2., 3., 4., 5., 6.]));
        let t = tape.transpose(a);
        let tt = tape.transpose(t);
        assert_eq!(tape.get(tt).data(), tape.get(a).data());
    }

    #[test]
    fn grad_check_matmul_2d() {
        check_grad(
            &[
                vec![0.5, -1.0, 0.3, 0.8, -0.2, 1.1],
                vec![0.9, 0.1, -0.4, 0.7, 0.2, -0.6],
            ],
            &[Shape::from([2, 3]), Shape::from([3, 2])],
            |tape, vars| {
                let c = tape.matmul(vars[0], vars[1]);
                tape.sum_all(c)
            },
        );
    }

    #[test]
    fn grad_check_matmul_batched() {
        check_grad(
            &[
                vec![0.5, -1.0, 0.3, 0.8, -0.2, 1.1, 0.4, -0.7],
                vec![0.9, 0.1, -0.4, 0.7, 0.2, -0.6, 1.2, 0.05],
            ],
            &[Shape::from([2, 2, 2]), Shape::from([2, 2, 2])],
            |tape, vars| {
                let c = tape.matmul(vars[0], vars[1]);
                tape.sum_all(c)
            },
        );
    }

    #[test]
    fn grad_check_transpose_3d() {
        check_grad(
            &[vec![0.5, -1.0, 0.3, 0.8, -0.2, 1.1, 0.4, -0.7]],
            &[Shape::from([2, 2, 2])],
            |tape, vars| {
                let t = tape.transpose(vars[0]);
                let s = tape.sqr(t);
                tape.sum_all(s)
            },
        );
    }
}
