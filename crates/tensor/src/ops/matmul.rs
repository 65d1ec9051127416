//! Matrix multiplication and transposes.

use super::gemm::{
    gemm_backward, gemm_packed_serial, pack_b_into, pack_b_transposed_into, PackedB,
};
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// `out[m,n] += a[m,k] * b[k,n]` over contiguous row-major buffers.
///
/// Dense kernel: the `k` loop is unrolled four-wide so each pass over an
/// output row folds four rank-1 updates into one fused sweep — four times
/// fewer passes over `out`, and an inner loop the compiler can vectorize
/// without a data-dependent branch.
///
/// This is [`super::gemm::matmul_raw_strided`]'s one source body at
/// `lda = k`, accumulating, compiled at the build's baseline width — the
/// reference every other kernel is pinned to, so deliberately *not* the
/// dispatched entry (whose 256-bit loop never reaches its main body at the
/// narrow `n` this is still called with, and measured slower).
pub fn matmul_raw(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    super::gemm::matmul_raw_strided_body(a, k, b, out, m, k, n, true);
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
/// [`TR_TILE`]² tiles keeps both sides resident — and each tile goes through
/// a stack buffer, so memory is only touched in contiguous runs: written
/// directly, a tile's [`TR_TILE`] output rows lie `rows` floats apart, which
/// at `rows = 4096` (an item table) is one L1 set for all of them (measured
/// 454 → 95 µs for `[4096, 32]`; other shapes unchanged). Pure data movement
/// — element placement is identical to the naive loop (pinned in this
/// module's tests and in `tests/gemm_properties.rs`).
pub fn transpose_into(x: &[f32], rows: usize, cols: usize, out: &mut [f32]) {
    debug_assert_eq!(x.len(), rows * cols);
    debug_assert_eq!(out.len(), rows * cols);
    let mut tile = [0.0f32; TR_TILE * TR_TILE];
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + TR_TILE).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + TR_TILE).min(cols);
            for r in r0..r1 {
                for (c, &v) in x[r * cols + c0..r * cols + c1].iter().enumerate() {
                    tile[c * TR_TILE + r - r0] = v;
                }
            }
            for (c, run) in tile.chunks_exact(TR_TILE).enumerate().take(c1 - c0) {
                out[(c0 + c) * rows + r0..(c0 + c) * rows + r1].copy_from_slice(&run[..r1 - r0]);
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
                // dA = g @ B^T ; dB = A^T @ g — each only if it is read (a
                // frozen weight's dB is a whole product over the rows).
                let (va, vb, g) = (ctx.value(a), ctx.value(b), ctx.grad());
                let mut ga = ctx.wants(a).then(|| ctx.alloc(m * k));
                let mut gb = ctx.wants(b).then(|| ctx.alloc(k * n));
                let (da, db) = (ga.as_deref_mut(), gb.as_deref_mut());
                gemm_backward(va.data(), vb.data(), g.data(), da, db, m, k, n);
                let grad = |d: Option<Vec<f32>>, shape: [usize; 2]| {
                    d.map_or_else(|| ctx.unread(), |d| Tensor::new(shape, d))
                };
                vec![grad(ga, [m, k]), grad(gb, [k, n])]
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
            let mut bp = PackedB::default();
            for i in 0..bsz {
                pack_b_into(&vb.data()[i * k * n..(i + 1) * k * n], k, n, &mut bp);
                let a_i = &va.data()[i * m * k..(i + 1) * m * k];
                gemm_packed_serial::<false>(a_i, &bp, &mut out[i * m * n..(i + 1) * m * n], m);
            }
            (bsz, m, k, n, out)
        };
        self.push(
            Tensor::new([bsz, m, n], out),
            vec![a.id, b.id],
            Some(Box::new(move |ctx| {
                // Per item: dA = g @ B^T ; dB = A^T @ g, both operands read
                // as they lie (transposing pack, transposed-A kernel).
                let (va, vb, g) = (ctx.value(a), ctx.value(b), ctx.grad());
                let mut ga = ctx.alloc(bsz * m * k);
                let mut gb = ctx.alloc(bsz * k * n);
                let mut bp = PackedB::default();
                for i in 0..bsz {
                    let gs = &g.data()[i * m * n..(i + 1) * m * n];
                    pack_b_transposed_into(&vb.data()[i * k * n..(i + 1) * k * n], n, k, &mut bp);
                    gemm_packed_serial::<false>(gs, &bp, &mut ga[i * m * k..(i + 1) * m * k], m);
                    let a_i = &va.data()[i * m * k..(i + 1) * m * k];
                    pack_b_into(gs, m, n, &mut bp);
                    gemm_packed_serial::<true>(a_i, &bp, &mut gb[i * k * n..(i + 1) * k * n], k);
                }
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
