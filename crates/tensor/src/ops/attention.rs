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
//!
//! Given a subset of the query rows it produces those rows alone, with the
//! bits the full node gives them: the same per-row products, the same mask
//! draws, and the two products whose inner dimension runs over query rows
//! (`dV = weightsᵀ·g`, `dK = dSᵀ·Q`) summed over the kept rows' k-groups
//! (`shape::k_group_rows`), the rows not kept as the exact zeros their
//! gradient is in the full node.

use super::gemm::{gemm_packed_serial, pack_b_into, pack_b_transposed_into, PackedB};
use super::vmath;
use crate::shape::{k_group_rows, Rows};
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

/// Where each example's query rows lie: example `b` produces rows
/// `spans[b]..spans[b + 1]` of `q` and of the result, at positions
/// `pos[spans[b]..spans[b + 1]]` (ascending) of the example.
struct QueryLayout {
    pos: Vec<usize>,
    spans: Vec<usize>,
}

impl QueryLayout {
    fn new(queries: Rows<'_>, bsz: usize, t: usize) -> Self {
        match queries.subset() {
            None => QueryLayout {
                pos: (0..bsz).flat_map(|_| 0..t).collect(),
                spans: (0..=bsz).map(|b| b * t).collect(),
            },
            Some((n, rows)) => {
                assert_eq!(n, bsz * t, "attention: query rows of {n}, not B·t");
                QueryLayout {
                    pos: rows.iter().map(|&r| r % t).collect(),
                    spans: (0..=bsz)
                        .map(|b| rows.partition_point(|&r| r < b * t))
                        .collect(),
                }
            }
        }
    }

    /// Example `b`'s rows of `q` and their positions.
    fn example(&self, b: usize) -> (std::ops::Range<usize>, &[usize]) {
        let rows = self.spans[b]..self.spans[b + 1];
        (rows.clone(), &self.pos[rows])
    }
}

/// `src`'s `[_, w]` rows laid out over the k-group `slots` of an
/// `[m, w]` product operand: slot `i` holds row `slots[i]`, or zeros.
fn grouped(src: &[f32], w: usize, slots: &[Option<usize>], out: &mut Vec<f32>) {
    out.clear();
    for slot in slots {
        match slot {
            Some(r) => out.extend_from_slice(&src[r * w..(r + 1) * w]),
            None => out.resize(out.len() + w, 0.0),
        }
    }
}

impl Tape {
    /// One head of scaled-dot-product attention over `bsz` right-padded
    /// examples of `t` positions: `k` and `v` are `[bsz·t, dh]`, example `b`'s
    /// position `i` at row `b·t + i`; `q` and the result hold the query rows
    /// `queries` (of `bsz·t`), packed.
    ///
    /// Query row `j` attends to its first `valid[j]` key positions (the
    /// example's length, clipped to `i + 1` when causal) with weights
    /// `softmax(q·kᵀ · scale)`; the rest get exactly zero. With `train` and
    /// `dropout_p > 0` the weights pass through inverted dropout, drawing
    /// `bsz·t·t` values from `rng` whichever rows are produced.
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
        queries: Rows<'_>,
        valid: &[usize],
        scale: f32,
        dropout_p: f32,
        train: bool,
        rng: &mut R,
    ) -> Var {
        let _span = delrec_obs::span!("tensor.attention");
        let rows = bsz * t;
        let dropout = train && dropout_p > 0.0;
        let layout = QueryLayout::new(queries, bsz, t);
        let nq = layout.pos.len();
        assert_eq!(valid.len(), nq, "attention: one valid count per query row");
        let (dh, out, probs, mask) = {
            let (vq, vk, vv) = (self.value(q), self.value(k), self.value(v));
            let dh = vq.shape().last();
            assert_eq!(vq.shape().0, [nq, dh], "attention query shape");
            for x in [&vk, &vv] {
                assert_eq!(x.shape().0, [rows, dh], "attention key/value shape");
            }
            let mut probs = self.alloc(nq * t);
            let mut mask = if dropout {
                self.alloc(nq * t)
            } else {
                Vec::new()
            };
            let mut out = self.alloc(nq * dh);
            let (mut bp, mut buf) = (PackedB::default(), Vec::new());
            for b in 0..bsz {
                let (qr, pos) = layout.example(b);
                let (ex, tt) = (b * t * dh..(b + 1) * t * dh, qr.start * t..qr.end * t);
                let qd = qr.start * dh..qr.end * dh;
                let p = &mut probs[tt.clone()];
                if !qr.is_empty() {
                    pack_b_transposed_into(&vk.data()[ex.clone()], dh, t, &mut bp);
                    gemm_packed_serial::<false>(&vq.data()[qd.clone()], &bp, p, qr.len());
                    for (row, &n) in p.chunks_exact_mut(t).zip(&valid[qr.clone()]) {
                        assert!(
                            n >= 1 && n <= t,
                            "attention: valid count {n} out of 1..={t}"
                        );
                        let (head, tail) = row.split_at_mut(n);
                        head.iter_mut().for_each(|x| *x *= scale);
                        vmath::softmax_row(head);
                        tail.fill(0.0);
                    }
                }
                let m = dropout.then(|| {
                    let kept = if pos.len() == t {
                        Rows::All
                    } else {
                        Rows::Of { n: t, rows: pos }
                    };
                    super::slice::fill_dropout_mask(&mut mask[tt.clone()], t, kept, dropout_p, rng);
                    &mask[tt]
                });
                if !qr.is_empty() {
                    pack_b_into(&vv.data()[ex], t, dh, &mut bp);
                    gemm_packed_serial::<false>(
                        dropped(p, m, &mut buf),
                        &bp,
                        &mut out[qd],
                        qr.len(),
                    );
                }
            }
            (dh, out, probs, mask)
        };
        let valid = valid.to_vec();
        self.push(
            Tensor::new([nq, dh], out),
            vec![q.id, k.id, v.id],
            Some(Box::new(move |ctx| {
                let _span = delrec_obs::span!("tensor.attention");
                let (vq, vk, vv, g) = (ctx.value(q), ctx.value(k), ctx.value(v), ctx.grad());
                let mut dq = ctx.alloc(nq * dh);
                let mut dk = ctx.alloc(rows * dh);
                let mut dv = ctx.alloc(rows * dh);
                let mut ds = ctx.alloc(t * t);
                let (mut bp, mut buf) = (PackedB::default(), Vec::new());
                let (mut lhs, mut rhs) = (Vec::new(), Vec::new());
                for b in 0..bsz {
                    let (qr, pos) = layout.example(b);
                    if qr.is_empty() {
                        continue; // no query here: its keys and values get zeros
                    }
                    let (ex, tt) = (b * t * dh..(b + 1) * t * dh, qr.start * t..qr.end * t);
                    let qd = qr.start * dh..qr.end * dh;
                    let (p, gs) = (&probs[tt.clone()], &g.data()[qd.clone()]);
                    let m = dropout.then(|| &mask[tt]);
                    let ds = &mut ds[..qr.len() * t];
                    // The products over query rows run over the kept rows'
                    // k-groups, the others zero; over all `t` when all kept.
                    let slots: Vec<Option<usize>> = if pos.len() == t {
                        Vec::new()
                    } else {
                        k_group_rows(pos.iter().copied(), t)
                            .into_iter()
                            .map(|i| pos.binary_search(&i).ok())
                            .collect()
                    };
                    // d(weights) = g · Vᵀ, with V packed as it lies.
                    pack_b_transposed_into(&vv.data()[ex.clone()], dh, t, &mut bp);
                    gemm_packed_serial::<false>(gs, &bp, ds, qr.len());
                    // dV = weightsᵀ · g, the weights as the forward used them.
                    let w = dropped(p, m, &mut buf);
                    let (w, gs) = if slots.is_empty() {
                        (w, gs)
                    } else {
                        grouped(w, t, &slots, &mut lhs);
                        grouped(gs, dh, &slots, &mut rhs);
                        (&lhs[..], &rhs[..])
                    };
                    pack_b_into(gs, gs.len() / dh, dh, &mut bp);
                    gemm_packed_serial::<true>(w, &bp, &mut dv[ex.clone()], t);
                    // Back through dropout, softmax and the scale, row by row.
                    for (j, row) in ds.chunks_exact_mut(t).enumerate() {
                        let (head, tail) = row.split_at_mut(valid[qr.start + j]);
                        if let Some(m) = m {
                            head.iter_mut()
                                .zip(&m[j * t..])
                                .for_each(|(x, &mv)| *x *= mv);
                        }
                        let ys = &p[j * t..j * t + head.len()];
                        let dot: f32 = ys.iter().zip(head.iter()).map(|(&y, &gv)| y * gv).sum();
                        for (x, &y) in head.iter_mut().zip(ys) {
                            *x = y * (*x - dot) * scale;
                        }
                        // What `0 · scale` leaves in a masked position.
                        tail.fill(0.0 * scale);
                    }
                    // dQ = dS · K
                    pack_b_into(&vk.data()[ex.clone()], t, dh, &mut bp);
                    gemm_packed_serial::<false>(ds, &bp, &mut dq[qd.clone()], qr.len());
                    // dK = dSᵀ · Q: the chain's (Qᵀ · dS)ᵀ, the same products
                    // (`a·b` is `b·a`) summed in the same order.
                    let (ds, qs) = if slots.is_empty() {
                        (&ds[..], &vq.data()[qd])
                    } else {
                        grouped(ds, t, &slots, &mut lhs);
                        grouped(&vq.data()[qd], dh, &slots, &mut rhs);
                        (&lhs[..], &rhs[..])
                    };
                    pack_b_into(qs, qs.len() / dh, dh, &mut bp);
                    gemm_packed_serial::<true>(ds, &bp, &mut dk[ex], t);
                }
                ctx.recycle(ds);
                vec![
                    Tensor::new([nq, dh], dq),
                    Tensor::new([rows, dh], dk),
                    Tensor::new([rows, dh], dv),
                ]
            })),
        )
    }
}
