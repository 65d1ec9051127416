//! Scaled-dot-product attention as one tape node per head.
//!
//! The node performs, element for element, the arithmetic of the generic-op
//! chain it replaced (`reshape` ×3, `transpose`, batched `matmul`, `scale`,
//! `softmax_masked`, `dropout`, batched `matmul`, `reshape`), so its output,
//! its three gradients and the RNG stream it leaves are that chain's to the
//! bit; `tests/attention_node.rs` keeps the chain as the oracle and DESIGN.md
//! ("Autograd tape") lists what that takes: every product in `matmul_raw`'s
//! k-order (the packed kernel has it), inner dimensions at the full `t` with
//! their exact-zero tails, softmax on the valid prefix, the mask drawn for
//! all `t·t` elements in (example, query, key) order, the softmax-backward
//! dot as a sequential sum. It keeps the probabilities and the mask for
//! backward and nothing else.

use super::gemm::{gemm_packed_serial, pack_b_into, pack_b_transposed_into, PackedB};
use super::vmath;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use rand::Rng;

/// The weights the products see: the probabilities, times the dropout mask
/// when there is one (assembled in `buf`).
fn dropped<'a>(p: &'a [f32], mask: Option<&[f32]>, buf: &'a mut Vec<f32>) -> &'a [f32] {
    let Some(m) = mask else { return p };
    buf.clear();
    buf.extend(p.iter().zip(m).map(|(&pv, &mv)| pv * mv));
    buf
}

impl Tape {
    /// One head of scaled-dot-product attention over `bsz` right-padded
    /// examples of `t` positions: `q`, `k`, `v` and the result are
    /// `[bsz·t, dh]`, example `b`'s position `i` at row `b·t + i`.
    ///
    /// Query row `r` attends to its first `valid[r]` key positions (the
    /// example's length, clipped to `i + 1` when causal) with weights
    /// `softmax(q·kᵀ · scale)`; the rest get exactly zero. With `train` and
    /// `dropout_p > 0` the weights pass through inverted dropout, drawing
    /// `bsz·t·t` values from `rng`.
    ///
    /// # Panics
    /// Panics on mismatched shapes or a `valid` count outside `1..=t`.
    #[allow(clippy::too_many_arguments)]
    pub fn attention<R: Rng>(
        &self,
        q: Var,
        k: Var,
        v: Var,
        bsz: usize,
        t: usize,
        valid: &[usize],
        scale: f32,
        dropout_p: f32,
        train: bool,
        rng: &mut R,
    ) -> Var {
        let _span = delrec_obs::span!("tensor.attention");
        let rows = bsz * t;
        let dropout = train && dropout_p > 0.0;
        assert_eq!(valid.len(), rows, "attention: one valid count per row");
        let (dh, out, probs, mask) = {
            let (vq, vk, vv) = (self.value(q), self.value(k), self.value(v));
            let dh = vq.shape().last();
            for x in [&vq, &vk, &vv] {
                assert_eq!(x.shape().0, [rows, dh], "attention operand shape");
            }
            let mut probs = self.alloc(rows * t);
            let mut mask = if dropout {
                self.alloc(rows * t)
            } else {
                Vec::new()
            };
            let mut out = self.alloc(rows * dh);
            let (mut bp, mut buf) = (PackedB::default(), Vec::new());
            for b in 0..bsz {
                let (ex, tt) = (b * t * dh..(b + 1) * t * dh, b * t * t..(b + 1) * t * t);
                let p = &mut probs[tt.clone()];
                pack_b_transposed_into(&vk.data()[ex.clone()], dh, t, &mut bp);
                gemm_packed_serial::<false>(&vq.data()[ex.clone()], &bp, p, t);
                for (row, &n) in p.chunks_exact_mut(t).zip(&valid[b * t..(b + 1) * t]) {
                    assert!(
                        n >= 1 && n <= t,
                        "attention: valid count {n} out of 1..={t}"
                    );
                    let (head, tail) = row.split_at_mut(n);
                    head.iter_mut().for_each(|x| *x *= scale);
                    vmath::softmax_row(head);
                    tail.fill(0.0);
                }
                let m = dropout.then(|| {
                    super::slice::fill_dropout_mask(&mut mask[tt.clone()], dropout_p, rng);
                    &mask[tt]
                });
                pack_b_into(&vv.data()[ex.clone()], t, dh, &mut bp);
                gemm_packed_serial::<false>(dropped(p, m, &mut buf), &bp, &mut out[ex], t);
            }
            (dh, out, probs, mask)
        };
        let valid = valid.to_vec();
        self.push(
            Tensor::new([rows, dh], out),
            vec![q.id, k.id, v.id],
            Some(Box::new(move |ctx| {
                let _span = delrec_obs::span!("tensor.attention");
                let (vq, vk, vv, g) = (ctx.value(q), ctx.value(k), ctx.value(v), ctx.grad());
                let mut dq = ctx.alloc(rows * dh);
                let mut dk = ctx.alloc(rows * dh);
                let mut dv = ctx.alloc(rows * dh);
                let mut ds = ctx.alloc(t * t);
                let (mut bp, mut buf) = (PackedB::default(), Vec::new());
                for b in 0..bsz {
                    let (ex, tt) = (b * t * dh..(b + 1) * t * dh, b * t * t..(b + 1) * t * t);
                    let (p, gs) = (&probs[tt.clone()], &g.data()[ex.clone()]);
                    let m = dropout.then(|| &mask[tt]);
                    // d(weights) = g · Vᵀ, with V packed as it lies.
                    pack_b_transposed_into(&vv.data()[ex.clone()], dh, t, &mut bp);
                    gemm_packed_serial::<false>(gs, &bp, &mut ds, t);
                    // dV = weightsᵀ · g, the weights as the forward used them.
                    pack_b_into(gs, t, dh, &mut bp);
                    gemm_packed_serial::<true>(
                        dropped(p, m, &mut buf),
                        &bp,
                        &mut dv[ex.clone()],
                        t,
                    );
                    // Back through dropout, softmax and the scale, row by row.
                    for (i, row) in ds.chunks_exact_mut(t).enumerate() {
                        let (head, tail) = row.split_at_mut(valid[b * t + i]);
                        if let Some(m) = m {
                            head.iter_mut()
                                .zip(&m[i * t..])
                                .for_each(|(x, &mv)| *x *= mv);
                        }
                        let ys = &p[i * t..i * t + head.len()];
                        let dot: f32 = ys.iter().zip(head.iter()).map(|(&y, &gv)| y * gv).sum();
                        for (x, &y) in head.iter_mut().zip(ys) {
                            *x = y * (*x - dot) * scale;
                        }
                        // What `0 · scale` leaves in a masked position.
                        tail.fill(0.0 * scale);
                    }
                    // dQ = dS · K
                    pack_b_into(&vk.data()[ex.clone()], t, dh, &mut bp);
                    gemm_packed_serial::<false>(&ds, &bp, &mut dq[ex.clone()], t);
                    // dK = dSᵀ · Q: the chain's (Qᵀ · dS)ᵀ, the same products
                    // (`a·b` is `b·a`) summed in the same order.
                    pack_b_into(&vq.data()[ex.clone()], t, dh, &mut bp);
                    gemm_packed_serial::<true>(&ds, &bp, &mut dk[ex], t);
                }
                ctx.recycle(ds);
                [dq, dk, dv].map(|d| Tensor::new([rows, dh], d)).into()
            })),
        )
    }
}
