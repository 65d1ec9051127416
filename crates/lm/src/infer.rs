//! Grad-free inference engine for [`MiniLm`]: a tape-free forward pass with
//! an optional shared-prefix K/V cache.
//!
//! Evaluation and serving score thousands of candidate sets without ever
//! taking a gradient, yet the tape path re-records every op — node
//! allocations, parent lists, boxed backward closures — per scoring call.
//! [`MiniLm::mask_logits_infer_batch`] runs the same arithmetic straight on
//! pooled buffers, with three structural savings the tape cannot express:
//!
//! * **Shared-prefix K/V cache** ([`PrefixCache`]): DELRec's Stage-2 prompt
//!   opens with a frozen head — instruction words, the distilled soft
//!   prompts, and the template up to the history section — identical across
//!   every example of an eval run. Its per-layer attention keys/values are
//!   computed once and reused, shrinking per-example attention from
//!   O((P+S)²) to O(S·(P+S)) and skipping the prefix FFN entirely.
//! * **Last-layer query pruning**: only the mask positions feed the output
//!   head, so the final block computes queries, attention, and FFN for one
//!   row per example instead of the whole padded batch.
//! * **L2-sized tiles**: a batch is encoded [`ENGINE_TILE_ROWS`] token rows
//!   at a time, so the `[rows, d]` buffers between ops stay cache-resident
//!   and the scratch a forward touches stays within what the buffer pool
//!   retains; the tiles are also the unit the thread pool's lanes claim.
//!
//! The output is **bitwise identical** to [`MiniLm::mask_logits_batch`]:
//! softmax and GELU are the tape's own kernels ([`delrec_tensor::vmath`]),
//! every GEMM keeps `matmul_raw`'s k-grouping, the layer norm mirrors the
//! tape's, padded tails contribute exact `+0.0` terms, and row-local ops are
//! computed per row either way.
//! The tests below pin this for every preset, with soft prompts and AdaLoRA
//! adapters attached.
//!
//! **attn·V.** A bidirectional example's query rows all attend to the same
//! `len` keys, so after the row softmaxes the mix is one packed GEMM
//! `[qrows, len] · [len, d_head]` per (head, example) over a scratch panel of
//! `V` — the blocked path. A causal model's rows each see a different key
//! count, and the query-pruned last layer has one row per example; both keep
//! one `m = 1` product per row. The choice is made from `cfg.causal` and the
//! row count, the two paths are bitwise equal where both apply, and the
//! `lm.attn.blocked` / `lm.attn.per_row` counters (examples × heads per
//! layer) show which one a deployment is on.
//!
//! **Cache validity**: per-layer prefix K/V are suffix-independent only when
//! the model is causal or has a single layer (a bidirectional layer ≥ 1
//! reads suffix positions into every prefix hidden state), so
//! [`MiniLm::build_prefix_cache`] returns `None` otherwise and callers fall
//! back to the plain tape-free forward. A cache is also keyed on the
//! parameter-store [`version`](delrec_tensor::ParamStore::version), so any
//! soft-prompt or AdaLoRA update invalidates it.

use crate::transformer::{LmToken, MiniLm};
use delrec_tensor::infer::{layer_norm_rows, InferCtx};
use delrec_tensor::vmath::softmax_row;
use delrec_tensor::{
    gemm_packed, gemm_packed_panels, matmul_raw_strided, pack_b, pack_b_into, pack_b_transposed,
    PackedB, ParamId, Tensor, NR,
};
use std::borrow::Cow;
use std::sync::Arc;

/// Token rows per engine tile. Every per-row buffer of a forward is
/// `[rows, ≤ 3·d]` floats, so ~1 Ki rows keep a tile's working set inside a
/// 2 MB L2 at the XL preset and inside what one `BufferPool` shard retains.
/// Not a tuning knob: the measured sweep is flat from 127 to 2032 rows
/// (DESIGN.md, "Inference engine").
const ENGINE_TILE_ROWS: usize = 1024;

/// Per-head cached attention tensors: `Kᵀ` (`[d_head, P]`) and `V`
/// (`[P, d_head]`).
type HeadKv = (Vec<f32>, Vec<f32>);

/// Precomputed per-layer, per-head attention keys/values for a frozen prompt
/// prefix shared by every sequence of a batch (and typically a whole eval
/// run).
///
/// Memory layout: `layers[l][h] = (Kᵀ, V)` where `Kᵀ` is `[d_head, P]`
/// (ready to sit as the first `P` columns of the assembled key matrix) and
/// `V` is `[P, d_head]` (the first `P` rows of the value matrix) — about
/// `2·L·d_model·P` floats total.
pub struct PrefixCache {
    tokens: Vec<LmToken>,
    version: u64,
    layers: Vec<Vec<HeadKv>>,
    p: usize,
    has_soft: bool,
}

impl PrefixCache {
    /// Number of cached prefix positions.
    pub fn len(&self) -> usize {
        self.p
    }

    /// True when no positions are cached (never constructed; `build_prefix_cache`
    /// returns `None` instead).
    pub fn is_empty(&self) -> bool {
        self.p == 0
    }

    /// The prefix tokens this cache was built for.
    pub fn tokens(&self) -> &[LmToken] {
        &self.tokens
    }

    /// Whether this cache may be used for the given store version and
    /// prompt prefix. Any parameter write (soft-prompt or AdaLoRA update,
    /// optimizer step) bumps the store version and invalidates.
    pub fn is_valid_for(&self, store_version: u64, prefix: &[LmToken]) -> bool {
        self.version == store_version && self.tokens == prefix
    }
}

/// Packed weight panels of one block, ready for [`gemm_packed`].
///
/// `qkv` is the fused `[d, 3·d]` panel — columns `0..d` are the per-head
/// `wq` side by side (head `h` at columns `h·dh..(h+1)·dh`), `d..2d` the
/// `wk`, `2d..3d` the `wv` — so one GEMM per layer replaces the `3 × heads`
/// separate projection calls, and each head's slice of the output is reached
/// by a column offset into the same row. The last block additionally carries
/// a `q`-only `[d, d]` and a `kv` `[d, 2·d]` panel: under last-layer query
/// pruning, queries run over the gathered mask rows while keys/values still
/// cover every row, so the three cannot share one call there.
pub(crate) struct LayerPack {
    qkv: PackedB,
    q: Option<PackedB>,
    kv: Option<PackedB>,
    wo: PackedB,
    w1: PackedB,
    w2: PackedB,
}

impl LayerPack {
    fn bytes(&self) -> usize {
        self.qkv.bytes()
            + self.q.as_ref().map_or(0, PackedB::bytes)
            + self.kv.as_ref().map_or(0, PackedB::bytes)
            + self.wo.bytes()
            + self.w1.bytes()
            + self.w2.bytes()
    }
}

/// Every packed weight panel of a [`MiniLm`], held in the model's
/// [`VersionedSlot`](delrec_tensor::VersionedSlot) and so rebuilt once per
/// parameter-store version: the attention/FFN panels per block plus the
/// transposed tied-embedding head. Attention projections are packed with
/// their AdaLoRA delta folded in (`W + ΔW`), so the per-forward `eff_proj`
/// materialization disappears from the hot path along with the packing
/// itself.
pub(crate) struct LmPack {
    layers: Vec<LayerPack>,
    head: PackedB,
}

/// Embedding tables plus the batch-level soft flag, so suffix rows mirror
/// the tape's scatter-add order (including the exact `+0.0` a hard token
/// receives from the soft scatter when the batch has any soft token).
struct EmbedTables<'a> {
    tok: &'a [f32],
    pos: &'a [f32],
    soft: Option<&'a Tensor>,
    has_soft: bool,
    d: usize,
}

impl EmbedTables<'_> {
    fn write_row(&self, token: LmToken, t: usize, out: &mut [f32]) {
        let d = self.d;
        for (c, o) in out.iter_mut().enumerate() {
            let mut v = match token {
                LmToken::Vocab(w) => self.tok[w as usize * d + c],
                LmToken::Soft(_) => 0.0,
            };
            if self.has_soft {
                v += match token {
                    LmToken::Soft(s) => self
                        .soft
                        .expect("input has soft tokens but no soft table given")
                        .data()[s * d + c],
                    LmToken::Vocab(_) => 0.0,
                };
            }
            *o = v + self.pos[t * d + c];
        }
    }
}

/// `x[r, c] += bias[c]` over every `bias.len()`-wide row of `x`.
fn add_row_bias(x: &mut [f32], bias: &[f32]) {
    for row in x.chunks_exact_mut(bias.len()) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// attn·V for one (head, example) whose `qrows` query rows all attend to the
/// same `valid` keys: softmax every row of `scores` (`[qrows, kmax]`, scaled
/// in place), then one packed GEMM `out = scores[.., ..valid] · v` with
/// `v = [valid, dh]` packed into the reused scratch panel. Bitwise equal to
/// [`attn_mix_row`] per row: same softmax, and the micro-kernel accumulates
/// each output in `matmul_raw_strided`'s 4-group k order from `0.0`.
///
/// The panel entry point is the serial one on purpose — the batch is already
/// split across lanes by tile, and a 250 k-MAC product is not worth a nested
/// fork.
fn attn_mix_blocked(
    scores: &mut [f32],
    kmax: usize,
    valid: usize,
    scale: f32,
    v: &[f32],
    v_pack: &mut PackedB,
    out: &mut [f32],
) {
    let dh = v.len() / valid;
    let qrows = scores.len() / kmax;
    for row in scores.chunks_exact_mut(kmax) {
        let row = &mut row[..valid];
        for x in row.iter_mut() {
            *x *= scale;
        }
        softmax_row(row);
    }
    pack_b_into(v, valid, dh, v_pack);
    gemm_packed_panels(scores, kmax, v_pack, 0..dh.div_ceil(NR), out, qrows);
}

/// attn·V for one query row attending to its first `row.len()` keys.
///
/// The product is truncated to the row's own `valid` keys, so the summation
/// association depends only on `valid` (example-local), never on the
/// batch's `kmax`: padded columns would otherwise shift the kernel's
/// four-wide accumulation grouping and perturb low bits whenever the batch
/// max length crosses a four-column boundary — the one place batch
/// composition could leak into a request's scores.
fn attn_mix_row(row: &mut [f32], scale: f32, v: &[f32], out: &mut [f32]) {
    let valid = row.len();
    for x in row.iter_mut() {
        *x *= scale;
    }
    softmax_row(row);
    matmul_raw_strided(row, valid, v, out, 1, valid, out.len(), false);
}

impl MiniLm {
    /// Effective projection `W (+ ΔW)`, mirroring the tape's `proj`.
    fn eff_proj(&self, id: ParamId) -> Cow<'_, [f32]> {
        match (&self.adapters, self.adapter_of.get(&id)) {
            (Some(ada), Some(&idx)) => {
                let delta = ada.delta_dense(&self.store, idx);
                let mut out = self.store.get(id).data().to_vec();
                for (o, &dv) in out.iter_mut().zip(delta.data()) {
                    *o += dv;
                }
                Cow::Owned(out)
            }
            _ => Cow::Borrowed(self.store.get(id).data()),
        }
    }

    /// Build every packed weight panel from the current store contents.
    fn build_pack(&self) -> LmPack {
        let _span = delrec_obs::span!("lm.pack");
        delrec_obs::counter!("lm.weight_pack.build").incr();
        let cfg = &self.cfg;
        let d = cfg.d_model;
        let heads = cfg.num_heads;
        let dh = d / heads;
        let ffn = cfg.ffn_dim;
        let nblocks = self.blocks.len();
        let layers = self
            .blocks
            .iter()
            .enumerate()
            .map(|(l, b)| {
                let wq: Vec<_> = b.wq.iter().map(|&id| self.eff_proj(id)).collect();
                let wk: Vec<_> = b.wk.iter().map(|&id| self.eff_proj(id)).collect();
                let wv: Vec<_> = b.wv.iter().map(|&id| self.eff_proj(id)).collect();
                let mut qkv = vec![0.0f32; d * 3 * d];
                for hd in 0..heads {
                    for r in 0..d {
                        let src = &wq[hd][r * dh..(r + 1) * dh];
                        qkv[r * 3 * d + hd * dh..r * 3 * d + hd * dh + dh].copy_from_slice(src);
                        let src = &wk[hd][r * dh..(r + 1) * dh];
                        qkv[r * 3 * d + d + hd * dh..r * 3 * d + d + hd * dh + dh]
                            .copy_from_slice(src);
                        let src = &wv[hd][r * dh..(r + 1) * dh];
                        qkv[r * 3 * d + 2 * d + hd * dh..r * 3 * d + 2 * d + hd * dh + dh]
                            .copy_from_slice(src);
                    }
                }
                // Split q / kv panels exist only where query pruning can
                // decouple the query rows from the key/value rows.
                let (q, kv) = if l + 1 == nblocks {
                    let mut qb = vec![0.0f32; d * d];
                    let mut kvb = vec![0.0f32; d * 2 * d];
                    for r in 0..d {
                        qb[r * d..(r + 1) * d].copy_from_slice(&qkv[r * 3 * d..r * 3 * d + d]);
                        kvb[r * 2 * d..(r + 1) * 2 * d]
                            .copy_from_slice(&qkv[r * 3 * d + d..(r + 1) * 3 * d]);
                    }
                    (Some(pack_b(&qb, d, d)), Some(pack_b(&kvb, d, 2 * d)))
                } else {
                    (None, None)
                };
                LayerPack {
                    qkv: pack_b(&qkv, d, 3 * d),
                    q,
                    kv,
                    wo: pack_b(self.store.get(b.wo).data(), d, d),
                    w1: pack_b(self.store.get(b.w1).data(), d, ffn),
                    w2: pack_b(self.store.get(b.w2).data(), ffn, d),
                }
            })
            .collect::<Vec<_>>();
        // The tied embedding is stored [vocab, d] but multiplies as
        // [d, vocab]: the head panel is packed from the transpose.
        let head = pack_b_transposed(self.store.get(self.tok_emb).data(), d, cfg.vocab_size);
        let bytes = layers.iter().map(LayerPack::bytes).sum::<usize>() + head.bytes();
        delrec_obs::gauge!("lm.weight_pack.bytes").set(bytes as f64);
        LmPack { layers, head }
    }

    /// The model's packed weight panels, rebuilt iff the parameter-store
    /// version moved since the cached pack was built.
    fn lm_pack(&self) -> Arc<LmPack> {
        let (pack, hit) = self
            .pack_cache
            .get_or_build(self.store.version(), || self.build_pack());
        if hit {
            delrec_obs::counter!("lm.weight_pack.hit").incr();
        }
        pack
    }

    /// Build a K/V cache for `prefix`, or `None` when caching cannot be
    /// exact: every sequence scored against the cache must start with
    /// exactly these tokens, and the model must be causal or single-layer
    /// (deeper bidirectional prefix states depend on the suffix).
    pub fn build_prefix_cache(
        &self,
        ic: &InferCtx,
        prefix: &[LmToken],
        soft_table: Option<&Tensor>,
    ) -> Option<PrefixCache> {
        if prefix.is_empty() {
            return None;
        }
        if !self.cfg.causal && self.cfg.num_layers > 1 {
            return None;
        }
        assert!(
            prefix.len() < self.cfg.max_len,
            "prefix length {} leaves no room for a suffix under max_len {}",
            prefix.len(),
            self.cfg.max_len
        );
        let mut layers = Vec::with_capacity(self.cfg.num_layers);
        let seqs = [prefix.to_vec()];
        let pack = self.lm_pack();
        let has_soft = prefix.iter().any(|t| matches!(t, LmToken::Soft(_)));
        let h = self.encode_infer(
            ic,
            &seqs,
            soft_table,
            None,
            None,
            Some(&mut layers),
            &pack,
            has_soft,
        );
        ic.recycle(h);
        Some(PrefixCache {
            tokens: prefix.to_vec(),
            version: self.store.version(),
            layers,
            p: prefix.len(),
            has_soft,
        })
    }

    /// Batched mask-position logits `[B, vocab_size]` without a tape: the
    /// grad-free counterpart of [`MiniLm::mask_logits_batch`] and bitwise
    /// identical to it. With a [`PrefixCache`], every sequence must extend
    /// the cached prefix and only the suffix is embedded and encoded.
    ///
    /// The batch is cut into **tiles** of consecutive examples —
    /// [`ENGINE_TILE_ROWS`] token rows' worth, so a tile's `[rows, d]`
    /// buffers sit in L2, and no more than `⌈B / lanes⌉` examples, so a
    /// batch smaller than a tile still gives every lane of the current
    /// `delrec-par` pool one — and the tiles go to that pool as one
    /// `for_each_range`, each encoded independently into its own disjoint
    /// rows of the logits buffer: inline and in order on one lane, claimed
    /// dynamically on several. An empty batch has no tiles and
    /// returns `[0, vocab_size]`. The result is bitwise the untiled pass at
    /// every lane count because an example's scores never depend on which
    /// other examples share its call (batch-row independence, pinned by
    /// `tests/batch_row_independence.rs`, `tests/engine_tiles.rs` and
    /// `tests/par_determinism.rs`): attention is truncated to each example's
    /// own valid keys, padding rows feed nothing, and the batch-level
    /// soft-scatter flag is computed here — over the *whole* batch — before
    /// tiling.
    pub fn mask_logits_infer_batch(
        &self,
        ic: &InferCtx,
        seqs: &[Vec<LmToken>],
        soft_table: Option<&Tensor>,
        mask_pos: &[usize],
        cache: Option<&PrefixCache>,
    ) -> Tensor {
        let _span = delrec_obs::span!("lm.mask_logits");
        let bsz = seqs.len();
        assert_eq!(bsz, mask_pos.len(), "one mask position per sequence");
        let vsz = self.cfg.vocab_size;
        let pack = self.lm_pack();
        let has_soft = seqs
            .iter()
            .any(|s| s.iter().any(|t| matches!(t, LmToken::Soft(_))));
        // Rows an example contributes: its tokens past the cached prefix.
        let p = cache.map_or(0, |c| c.p);
        let longest = seqs.iter().map(|s| s.len().saturating_sub(p)).max();
        let pool = delrec_par::current();
        // L2-sized, but never so large that a lane is left without a tile: a
        // batch of a few prompts fits one L2 tile and must still spread.
        let tile = (ENGINE_TILE_ROWS / longest.unwrap_or(1).max(1))
            .min(bsz.div_ceil(pool.lanes()))
            .max(1);
        let tiles = delrec_par::chunk_ranges(bsz, tile);
        delrec_obs::counter!("lm.engine.tiles").add(tiles.len() as u64);
        let elem_ranges: Vec<_> = tiles.iter().map(|r| r.start * vsz..r.end * vsz).collect();
        let mut logits = ic.alloc(bsz * vsz);
        pool.for_each_range(&mut logits, &elem_ranges, |ti, out| {
            let r = tiles[ti].clone();
            self.mask_logits_rows(
                ic,
                &seqs[r.clone()],
                soft_table,
                &mask_pos[r],
                cache,
                &pack,
                has_soft,
                out,
            );
        });
        Tensor::new([bsz, vsz], logits)
    }

    /// Encode + head for one tile of the batch, writing
    /// `seqs.len() * vocab_size` logits into `out`, with scratch from the
    /// (thread-sharded) buffer pool. `has_soft` is the *batch-level* soft
    /// flag, computed by the caller before tiling.
    #[allow(clippy::too_many_arguments)]
    fn mask_logits_rows(
        &self,
        ic: &InferCtx,
        seqs: &[Vec<LmToken>],
        soft_table: Option<&Tensor>,
        mask_pos: &[usize],
        cache: Option<&PrefixCache>,
        pack: &LmPack,
        has_soft: bool,
        out: &mut [f32],
    ) {
        let bsz = seqs.len();
        let d = self.cfg.d_model;
        let vsz = self.cfg.vocab_size;
        debug_assert_eq!(out.len(), bsz * vsz);
        let h = self.encode_infer(
            ic,
            seqs,
            soft_table,
            cache,
            Some(mask_pos),
            None,
            pack,
            has_soft,
        );
        // Final layer norm over the mask rows only — row-local, so identical
        // to the tape's normalize-everything-then-gather.
        let _head = delrec_obs::span!("lm.head");
        let mut hf = ic.alloc(bsz * d);
        layer_norm_rows(
            &h,
            self.store.get(self.ln_f_g).data(),
            self.store.get(self.ln_f_b).data(),
            &mut hf,
        );
        ic.recycle(h);
        gemm_packed(&hf, d, &pack.head, out, bsz, false);
        add_row_bias(out, self.store.get(self.head_bias).data());
        ic.recycle(hf);
    }

    /// Encoder stack without a tape. Returns the pre-final-layer-norm hidden
    /// rows: all `B·s_max` suffix rows, or one row per example when
    /// `mask_pos` enables last-layer query pruning. With `capture`, each
    /// layer's per-head `(Kᵀ, V)` over the (single, unpadded) input is
    /// recorded — the cache-building mode. Projections, `wo`, the FFN and the
    /// head all run through `pack`'s blocked GEMM panels (q/k/v fused into
    /// one call per layer), whose kernels preserve `matmul_raw`'s per-element
    /// accumulation order — which is what keeps this forward bitwise on the
    /// tape's.
    #[allow(clippy::too_many_arguments)]
    fn encode_infer(
        &self,
        ic: &InferCtx,
        seqs: &[Vec<LmToken>],
        soft_table: Option<&Tensor>,
        cache: Option<&PrefixCache>,
        mask_pos: Option<&[usize]>,
        mut capture: Option<&mut Vec<Vec<HeadKv>>>,
        pack: &LmPack,
        has_soft: bool,
    ) -> Vec<f32> {
        let _span = delrec_obs::span!("lm.encode");
        let cfg = &self.cfg;
        let bsz = seqs.len();
        assert!(bsz > 0, "empty batch");
        let d = cfg.d_model;
        let heads = cfg.num_heads;
        let dh = d / heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let p = cache.map_or(0, |c| c.p);
        let mut s_max = 0usize;
        for tokens in seqs {
            assert!(
                tokens.len() <= cfg.max_len,
                "input length {} exceeds max_len {}",
                tokens.len(),
                cfg.max_len
            );
            assert!(
                tokens.len() > p,
                "sequence no longer than the cached prefix"
            );
            s_max = s_max.max(tokens.len() - p);
        }
        let rows = bsz * s_max;
        let kmax = p + s_max;
        // `has_soft` is the *batch-level* flag, passed in by the caller so a
        // tile embeds exactly like the whole batch on the tape (a hard token
        // receives the soft scatter's exact `+0.0` whenever any example in
        // the batch has a soft token — even one in another tile).
        debug_assert!(
            has_soft
                || !seqs
                    .iter()
                    .any(|s| s.iter().any(|t| matches!(t, LmToken::Soft(_)))),
            "has_soft must cover every soft token in the batch"
        );
        if let Some(c) = cache {
            debug_assert!(
                seqs.iter().all(|s| s[..p] == c.tokens[..]),
                "prefix cache does not match the sequences"
            );
            // A prefix-only soft batch vs. suffix-only soft batch would
            // differ in the tape's scatter-add of exact +0.0 terms; DELRec's
            // templates put soft tokens in the prefix, so flag divergence.
            debug_assert_eq!(c.has_soft, has_soft, "soft-token layout changed");
        }
        debug_assert!(capture.is_none() || (bsz == 1 && cache.is_none() && mask_pos.is_none()));
        // Suffix-local row index of each mask position (last-layer pruning).
        let mask_rows: Option<Vec<usize>> = mask_pos.map(|mp| {
            assert_eq!(mp.len(), bsz, "one mask position per sequence");
            mp.iter()
                .zip(seqs)
                .enumerate()
                .map(|(b, (&q, tokens))| {
                    assert!(q >= p && q < tokens.len(), "mask position out of range");
                    b * s_max + (q - p)
                })
                .collect()
        });

        // Suffix embeddings; rows past a sequence's end stay exactly zero,
        // like the tape's scatter.
        let emb = EmbedTables {
            tok: self.store.get(self.tok_emb).data(),
            pos: self.store.get(self.pos_emb).data(),
            soft: soft_table,
            has_soft,
            d,
        };
        let mut h = ic.alloc(rows * d);
        {
            let _embed = delrec_obs::span!("lm.embed");
            for (b, tokens) in seqs.iter().enumerate() {
                for (s, &tok) in tokens[p..].iter().enumerate() {
                    let row = b * s_max + s;
                    emb.write_row(tok, p + s, &mut h[row * d..(row + 1) * d]);
                }
            }
        }

        // Layer-norm gains/offsets and FFN biases are read straight from the
        // store; every weight *matrix* comes from `pack`.
        let vec_of = |id: ParamId| self.store.get(id).data();
        let nblocks = self.blocks.len();
        let capturing = capture.is_some();
        // Scratch panel for the blocked attn·V, reused by every product.
        let mut v_pack = PackedB::default();
        // (examples × heads) per layer on the [per-row, blocked] attn·V path.
        let mut attn_paths = [0u64; 2];
        for (l, blk) in self.blocks.iter().enumerate() {
            let last = l + 1 == nblocks;
            // Queries at the final block: only mask rows feed the output.
            let pruned: Option<&[usize]> = if last { mask_rows.as_deref() } else { None };
            let nq = pruned.map_or(rows, <[usize]>::len);
            let qrows = pruned.map_or(s_max, |_| 1); // query rows per example

            // Bidirectional rows of one example share `valid = len`; with
            // more than one of them the mix is a single GEMM.
            let blocked = !cfg.causal && qrows > 1;
            attn_paths[usize::from(blocked)] += (bsz * heads) as u64;

            let mut xin = ic.alloc(rows * d);
            layer_norm_rows(&h, vec_of(blk.ln1_g), vec_of(blk.ln1_b), &mut xin);
            let q_in_buf: Option<Vec<f32>> = pruned.map(|rows_idx| {
                let mut g = ic.alloc(rows_idx.len() * d);
                for (i, &r) in rows_idx.iter().enumerate() {
                    g[i * d..(i + 1) * d].copy_from_slice(&xin[r * d..(r + 1) * d]);
                }
                g
            });
            let q_in: &[f32] = q_in_buf.as_deref().unwrap_or(&xin);

            let mut attn_cat = ic.alloc(nq * d);
            let mut kt_b = ic.alloc(dh * kmax);
            let mut v_b = ic.alloc(kmax * dh);
            let mut scores = ic.alloc(qrows * kmax);
            let mut out_b = ic.alloc(qrows * dh);
            let mut captured_heads: Vec<HeadKv> = Vec::new();

            // Projections: one packed GEMM over the concatenated panel per
            // layer leaves q/k/v as column bands of one wide buffer. Under
            // query pruning the q rows (mask rows only) differ from the k/v
            // rows, so q gets its own `[nq, d]` buffer and the wide one
            // carries k/v only. Head `hd` is the `dh` columns at
            // `band + hd·dh` of a row: q's band is column 0 of its buffer,
            // k's is `k_band` of the wide one, v's sits `d` after k's.
            let lp = &pack.layers[l];
            let qkv_span = delrec_obs::span!("lm.qkv");
            let (q_own, wide, wide_lda, k_band) = match pruned {
                Some(_) => {
                    let mut q = ic.alloc(nq * d);
                    let q_pack = lp.q.as_ref().expect("last-layer q pack");
                    gemm_packed(q_in, d, q_pack, &mut q, nq, false);
                    let mut kv = ic.alloc(rows * 2 * d);
                    let kv_pack = lp.kv.as_ref().expect("last-layer kv pack");
                    gemm_packed(&xin, d, kv_pack, &mut kv, rows, false);
                    (Some(q), kv, 2 * d, 0)
                }
                None => {
                    let mut qkv = ic.alloc(rows * 3 * d);
                    gemm_packed(&xin, d, &lp.qkv, &mut qkv, rows, false);
                    (None, qkv, 3 * d, d)
                }
            };
            drop(qkv_span);
            let (qb, q_lda) = match &q_own {
                Some(q) => (&q[..], d),
                None => (&wide[..], wide_lda),
            };

            for hd in 0..heads {
                let q_off = hd * dh;
                let k_off = k_band + hd * dh;
                let v_off = k_off + d;
                for b in 0..bsz {
                    let len = seqs[b].len();
                    let scores_span = delrec_obs::span!("lm.attn_scores");
                    // Assemble Kᵀ [dh, kmax]: cached prefix columns, then
                    // the example's suffix keys; V [kmax, dh] likewise.
                    if let Some(c) = cache {
                        let (ckt, cv) = &c.layers[l][hd];
                        for r in 0..dh {
                            kt_b[r * kmax..r * kmax + p].copy_from_slice(&ckt[r * p..(r + 1) * p]);
                        }
                        v_b[..p * dh].copy_from_slice(cv);
                    }
                    for s in 0..s_max {
                        let krow = (b * s_max + s) * wide_lda + k_off;
                        for r in 0..dh {
                            kt_b[r * kmax + p + s] = wide[krow + r];
                        }
                    }
                    for s in 0..s_max {
                        let vrow = (b * s_max + s) * wide_lda + v_off;
                        v_b[(p + s) * dh..(p + s + 1) * dh].copy_from_slice(&wide[vrow..vrow + dh]);
                    }
                    let q_start = match pruned {
                        Some(_) => b * q_lda + q_off,
                        None => b * s_max * q_lda + q_off,
                    };
                    // Overwrite mode fills exactly the qrows × kmax region it
                    // writes — no caller-side clear of the scores buffer.
                    matmul_raw_strided(
                        &qb[q_start..],
                        q_lda,
                        &kt_b,
                        &mut scores,
                        qrows,
                        dh,
                        kmax,
                        false,
                    );
                    drop(scores_span);
                    // Columns past a row's `valid` are never read again:
                    // both mixes truncate to `valid`, and the next example's
                    // score matmul overwrites the full row.
                    let mix_span = delrec_obs::span!("lm.attn_mix");
                    if blocked {
                        attn_mix_blocked(
                            &mut scores,
                            kmax,
                            len,
                            scale,
                            &v_b[..len * dh],
                            &mut v_pack,
                            &mut out_b,
                        );
                    } else {
                        for qi in 0..qrows {
                            let t_global = match mask_pos {
                                Some(mp) if last => mp[b],
                                _ => p + qi,
                            };
                            let valid = if cfg.causal {
                                (t_global + 1).min(len)
                            } else {
                                len
                            };
                            attn_mix_row(
                                &mut scores[qi * kmax..qi * kmax + valid],
                                scale,
                                &v_b[..valid * dh],
                                &mut out_b[qi * dh..(qi + 1) * dh],
                            );
                        }
                    }
                    drop(mix_span);
                    for qi in 0..qrows {
                        let dst = match pruned {
                            Some(_) => b,
                            None => b * s_max + qi,
                        };
                        attn_cat[dst * d + hd * dh..dst * d + (hd + 1) * dh]
                            .copy_from_slice(&out_b[qi * dh..(qi + 1) * dh]);
                    }
                }
                if capturing {
                    // Capture runs on a single unpadded, unpruned sequence
                    // (rows = P): copy the head's strided k/v bands out of
                    // the wide buffer as Kᵀ and a contiguous V.
                    let mut kt = vec![0.0f32; dh * rows];
                    let mut vc = vec![0.0f32; rows * dh];
                    for row in 0..rows {
                        let krow = row * wide_lda + k_off;
                        for r in 0..dh {
                            kt[r * rows + row] = wide[krow + r];
                        }
                        let vrow = row * wide_lda + v_off;
                        vc[row * dh..(row + 1) * dh].copy_from_slice(&wide[vrow..vrow + dh]);
                    }
                    captured_heads.push((kt, vc));
                }
            }
            if let Some(cap) = capture.as_deref_mut() {
                cap.push(captured_heads);
            }
            if let Some(q) = q_own {
                ic.recycle(q);
            }
            ic.recycle(wide);

            // attn_out = attn_cat · wo (raw weight — the tape path bypasses
            // adapters on the output projection).
            let wo_span = delrec_obs::span!("lm.wo");
            let mut attn_out = ic.alloc(nq * d);
            gemm_packed(&attn_cat, d, &lp.wo, &mut attn_out, nq, false);
            // Residual; at the final block this compresses h to mask rows.
            h = match pruned {
                Some(rows_idx) => {
                    let mut h2 = ic.alloc(nq * d);
                    for (i, &r) in rows_idx.iter().enumerate() {
                        for c in 0..d {
                            h2[i * d + c] = h[r * d + c] + attn_out[i * d + c];
                        }
                    }
                    ic.recycle(h);
                    h2
                }
                None => {
                    for (o, &a) in h.iter_mut().zip(attn_out.iter()) {
                        *o += a;
                    }
                    h
                }
            };
            drop(wo_span);
            // FFN over the rows that remain.
            let _ffn_span = delrec_obs::span!("lm.ffn");
            let ffn = cfg.ffn_dim;
            let mut xin2 = ic.alloc(nq * d);
            layer_norm_rows(&h, vec_of(blk.ln2_g), vec_of(blk.ln2_b), &mut xin2);
            let mut f = ic.alloc(nq * ffn);
            gemm_packed(&xin2, d, &lp.w1, &mut f, nq, false);
            add_row_bias(&mut f, vec_of(blk.b1));
            ic.gelu(&mut f);
            let mut f2 = ic.alloc(nq * d);
            gemm_packed(&f, ffn, &lp.w2, &mut f2, nq, false);
            add_row_bias(&mut f2, vec_of(blk.b2));
            for (o, &a) in h.iter_mut().zip(f2.iter()) {
                *o += a;
            }
            ic.recycle(xin);
            if let Some(b) = q_in_buf {
                ic.recycle(b);
            }
            ic.recycle(attn_cat);
            ic.recycle(attn_out);
            ic.recycle(xin2);
            ic.recycle(f);
            ic.recycle(f2);
            ic.recycle(kt_b);
            ic.recycle(v_b);
            ic.recycle(scores);
            ic.recycle(out_b);
        }
        delrec_obs::counter!("lm.attn.per_row").add(attn_paths[0]);
        delrec_obs::counter!("lm.attn.blocked").add(attn_paths[1]);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adalora::AdaLoraConfig;
    use crate::config::MiniLmConfig;
    use delrec_tensor::{Ctx, Tape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toks(ids: &[u32]) -> Vec<LmToken> {
        ids.iter().map(|&i| LmToken::Vocab(i)).collect()
    }

    fn tape_logits(
        lm: &MiniLm,
        seqs: &[Vec<LmToken>],
        soft: Option<&Tensor>,
        mask_pos: &[usize],
    ) -> Tensor {
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, lm.store(), false);
        let soft_var = soft.map(|t| tape.constant(t.clone()));
        let mut rng = StdRng::seed_from_u64(0);
        tape.get(lm.mask_logits_batch(&ctx, seqs, soft_var, mask_pos, &mut rng))
    }

    #[test]
    fn infer_matches_tape_bitwise_across_presets() {
        for (name, base) in [
            ("large", MiniLmConfig::large(60)),
            ("xl", MiniLmConfig::xl(60)),
            ("causal_xl", MiniLmConfig::causal_xl(60)),
        ] {
            let mut cfg = base;
            cfg.dropout = 0.0;
            let cacheable = cfg.causal || cfg.num_layers == 1;
            let lm = MiniLm::new(cfg, 7);
            // Shared prefix [5, 6, 1]; ragged suffixes; mask at the end.
            let seqs = vec![
                toks(&[5, 6, 1, 7, 2, 9]),
                toks(&[5, 6, 1, 3]),
                toks(&[5, 6, 1, 8, 4]),
            ];
            let mask_pos = [5usize, 3, 4];
            let want = tape_logits(&lm, &seqs, None, &mask_pos);
            let ic = InferCtx::default();
            let got = lm.mask_logits_infer_batch(&ic, &seqs, None, &mask_pos, None);
            assert_eq!(got.data(), want.data(), "{name}: engine without cache");
            let cache = lm.build_prefix_cache(&ic, &seqs[0][..3], None);
            assert_eq!(
                cache.is_some(),
                cacheable,
                "{name}: cache gate must track exactness"
            );
            if let Some(c) = &cache {
                let got = lm.mask_logits_infer_batch(&ic, &seqs, None, &mask_pos, Some(c));
                assert_eq!(got.data(), want.data(), "{name}: engine with prefix cache");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one mask position per sequence")]
    fn mask_positions_must_match_the_batch() {
        let lm = MiniLm::new(MiniLmConfig::large(60), 7);
        let ic = InferCtx::default();
        lm.mask_logits_infer_batch(&ic, &[toks(&[5, 6, 1])], None, &[2, 1], None);
    }

    #[test]
    fn an_empty_batch_has_no_tiles_and_no_logits() {
        let lm = MiniLm::new(MiniLmConfig::large(60), 7);
        let ic = InferCtx::default();
        let cache = lm.build_prefix_cache(&ic, &toks(&[5, 6]), None);
        for cache in [None, cache.as_ref()] {
            let got = lm.mask_logits_infer_batch(&ic, &[], None, &[], cache);
            assert_eq!((got.shape().dim(0), got.shape().dim(1)), (0, 60));
            assert!(got.data().is_empty());
        }
    }

    #[test]
    fn infer_matches_tape_with_soft_prompts_and_adapters() {
        let mut cfg = MiniLmConfig::large(60);
        cfg.dropout = 0.0;
        let d = cfg.d_model;
        let mut lm = MiniLm::new(cfg, 11);
        lm.attach_adalora(AdaLoraConfig::default(), 5);
        // Nudge singular values so adapter deltas are non-zero.
        let mut i = 0;
        while let Some(id) = lm.store().id_of(&format!("adalora.{i}.e")) {
            for v in lm.store_mut().get_mut(id).data_mut() {
                *v = 0.3;
            }
            i += 1;
        }
        assert!(i > 0, "adapters attached");
        let soft = Tensor::new([2, d], (0..2 * d).map(|i| 0.01 * i as f32 - 0.1).collect());
        let prefix = vec![
            LmToken::Vocab(5),
            LmToken::Soft(0),
            LmToken::Soft(1),
            LmToken::Vocab(6),
        ];
        let mut s1 = prefix.clone();
        s1.extend(toks(&[7, 2, 9]));
        let mut s2 = prefix.clone();
        s2.extend(toks(&[3]));
        let seqs = vec![s1, s2];
        let mask_pos = [6usize, 4];
        let want = tape_logits(&lm, &seqs, Some(&soft), &mask_pos);
        let ic = InferCtx::default();
        let got = lm.mask_logits_infer_batch(&ic, &seqs, Some(&soft), &mask_pos, None);
        assert_eq!(got.data(), want.data(), "engine without cache");
        let cache = lm
            .build_prefix_cache(&ic, &prefix, Some(&soft))
            .expect("single-layer model must cache");
        let got = lm.mask_logits_infer_batch(&ic, &seqs, Some(&soft), &mask_pos, Some(&cache));
        assert_eq!(got.data(), want.data(), "engine with prefix cache");
    }

    #[test]
    fn blocked_attn_mix_is_bitwise_the_per_row_path() {
        let wave = |i: usize, f: f32| (i as f32 * f).sin() * 3.0;
        let mut v_pack = PackedB::default();
        for dh in [8usize, 16] {
            for valid in [1usize, 3, 4, 5, 127] {
                // Padded key columns and more query rows than one MR tile.
                let (kmax, qrows, scale) = (valid + 2, valid.min(9) + 1, 0.25);
                let raw: Vec<f32> = (0..qrows * kmax).map(|i| wave(i, 0.37)).collect();
                let v: Vec<f32> = (0..valid * dh).map(|i| wave(i, 0.11)).collect();

                let mut scores = raw.clone();
                let mut got = vec![f32::NAN; qrows * dh];
                attn_mix_blocked(&mut scores, kmax, valid, scale, &v, &mut v_pack, &mut got);

                let mut scores = raw;
                let mut want = vec![f32::NAN; qrows * dh];
                for (row, out) in scores.chunks_exact_mut(kmax).zip(want.chunks_exact_mut(dh)) {
                    attn_mix_row(&mut row[..valid], scale, &v, out);
                }
                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "dh {dh}, valid {valid}");
            }
        }
    }

    #[test]
    fn prefix_cache_invalidates_on_writes_mode_and_prefix() {
        let mut cfg = MiniLmConfig::large(60);
        cfg.dropout = 0.0;
        let mut lm = MiniLm::new(cfg, 7);
        let prefix = toks(&[5, 6, 1]);
        let ic = InferCtx::default();
        let cache = lm.build_prefix_cache(&ic, &prefix, None).unwrap();
        let v = lm.store().version();
        assert!(cache.is_valid_for(v, &prefix));
        assert!(!cache.is_valid_for(v, &toks(&[5, 6])), "different prefix");
        // Any parameter write bumps the store version.
        let id = lm.store().id_of("lm.tok_emb").unwrap();
        lm.store_mut().get_mut(id).data_mut()[0] += 1.0;
        assert!(
            !cache.is_valid_for(lm.store().version(), &prefix),
            "parameter write must invalidate"
        );
    }
}
