//! The MiniLM bidirectional transformer encoder with a tied MLM head.

use crate::adalora::AdaLora;
use crate::config::MiniLmConfig;
use delrec_tensor::{
    init, k_group_rows, Ctx, ParamId, ParamStore, Rows, Tensor, Var, VersionedSlot,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// One position of an LM input: either a vocabulary word or a soft-prompt
/// slot (row index into a caller-provided soft-prompt table).
///
/// This is the mechanism of the paper's Eq. 1: a prompt is a mixed stream of
/// hard tokens `hp_i` and soft prompts `sp_j`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LmToken {
    /// A hard token: index into the shared vocabulary.
    Vocab(u32),
    /// A soft token: row of the soft-prompt embedding table.
    Soft(usize),
}

#[derive(Clone)]
pub(crate) struct Block {
    pub(crate) wq: Vec<ParamId>,
    pub(crate) wk: Vec<ParamId>,
    pub(crate) wv: Vec<ParamId>,
    pub(crate) wo: ParamId,
    pub(crate) ln1_g: ParamId,
    pub(crate) ln1_b: ParamId,
    pub(crate) w1: ParamId,
    pub(crate) b1: ParamId,
    pub(crate) w2: ParamId,
    pub(crate) b2: ParamId,
    pub(crate) ln2_g: ParamId,
    pub(crate) ln2_b: ParamId,
}

/// A from-scratch masked language model. Cloning copies all parameters —
/// used to stamp out per-baseline copies of one pretrained backbone.
///
/// All parameters are registered under the `lm.` prefix so DELRec's stages
/// can freeze/unfreeze the whole backbone with one call.
#[derive(Clone)]
pub struct MiniLm {
    /// Architecture.
    pub cfg: MiniLmConfig,
    pub(crate) store: ParamStore,
    pub(crate) tok_emb: ParamId,
    pub(crate) pos_emb: ParamId,
    pub(crate) blocks: Vec<Block>,
    pub(crate) ln_f_g: ParamId,
    pub(crate) ln_f_b: ParamId,
    pub(crate) head_bias: ParamId,
    pub(crate) adapters: Option<AdaLora>,
    /// Adapted projection lookup: base param id → adapter index.
    pub(crate) adapter_of: HashMap<ParamId, usize>,
    /// Lazily built packed weight panels for the grad-free forward, keyed on
    /// the store version. Cloning a MiniLm resets the slot (see
    /// [`VersionedSlot`]) — each clone repacks from its own store.
    pub(crate) pack_cache: VersionedSlot<crate::infer::LmPack>,
}

impl MiniLm {
    /// Initialize a fresh (untrained) MiniLM.
    pub fn new(cfg: MiniLmConfig, seed: u64) -> Self {
        assert_eq!(cfg.d_model % cfg.num_heads, 0, "heads must divide d_model");
        let mut rng = StdRng::seed_from_u64(seed);
        let (d, dh) = (cfg.d_model, cfg.d_model / cfg.num_heads);
        let mut store = ParamStore::new();
        let tok_emb = store.add(
            "lm.tok_emb",
            init::normal([cfg.vocab_size, d], 0.05, &mut rng),
        );
        let pos_emb = store.add("lm.pos_emb", init::normal([cfg.max_len, d], 0.05, &mut rng));
        let mut blocks = Vec::new();
        for b in 0..cfg.num_layers {
            let mut wq = Vec::new();
            let mut wk = Vec::new();
            let mut wv = Vec::new();
            for h in 0..cfg.num_heads {
                wq.push(store.add(format!("lm.b{b}.h{h}.wq"), init::xavier(d, dh, &mut rng)));
                wk.push(store.add(format!("lm.b{b}.h{h}.wk"), init::xavier(d, dh, &mut rng)));
                wv.push(store.add(format!("lm.b{b}.h{h}.wv"), init::xavier(d, dh, &mut rng)));
            }
            blocks.push(Block {
                wq,
                wk,
                wv,
                wo: store.add(format!("lm.b{b}.wo"), init::xavier(d, d, &mut rng)),
                ln1_g: store.add(format!("lm.b{b}.ln1.g"), Tensor::full([d], 1.0)),
                ln1_b: store.add(format!("lm.b{b}.ln1.b"), Tensor::zeros([d])),
                w1: store.add(
                    format!("lm.b{b}.ffn.w1"),
                    init::xavier(d, cfg.ffn_dim, &mut rng),
                ),
                b1: store.add(format!("lm.b{b}.ffn.b1"), Tensor::zeros([cfg.ffn_dim])),
                w2: store.add(
                    format!("lm.b{b}.ffn.w2"),
                    init::xavier(cfg.ffn_dim, d, &mut rng),
                ),
                b2: store.add(format!("lm.b{b}.ffn.b2"), Tensor::zeros([d])),
                ln2_g: store.add(format!("lm.b{b}.ln2.g"), Tensor::full([d], 1.0)),
                ln2_b: store.add(format!("lm.b{b}.ln2.b"), Tensor::zeros([d])),
            });
        }
        let ln_f_g = store.add("lm.lnf.g", Tensor::full([d], 1.0));
        let ln_f_b = store.add("lm.lnf.b", Tensor::zeros([d]));
        let head_bias = store.add("lm.head_bias", Tensor::zeros([cfg.vocab_size]));
        MiniLm {
            cfg,
            store,
            tok_emb,
            pos_emb,
            blocks,
            ln_f_g,
            ln_f_b,
            head_bias,
            adapters: None,
            adapter_of: HashMap::new(),
            pack_cache: Default::default(),
        }
    }

    /// The backing parameter store (soft prompts and adapters live here too).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable store access (optimizers, soft-prompt registration).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Freeze or unfreeze every backbone parameter (`lm.` prefix). Adapters
    /// and soft prompts are unaffected.
    pub fn set_backbone_trainable(&mut self, trainable: bool) {
        self.store.set_trainable_prefix("lm.", trainable);
    }

    /// Attach AdaLoRA adapters to every attention projection. Subsequent
    /// forward passes use `W + ΔW`. Returns the adapter handle for
    /// importance-based rank pruning.
    pub fn attach_adalora(&mut self, cfg: crate::adalora::AdaLoraConfig, seed: u64) {
        assert!(self.adapters.is_none(), "adapters already attached");
        let d = self.cfg.d_model;
        let dh = d / self.cfg.num_heads;
        let mut targets = Vec::new();
        for block in &self.blocks {
            for &p in block.wq.iter().chain(&block.wk).chain(&block.wv) {
                targets.push((p, d, dh));
            }
            // AdaLoRA also adapts the output projection and FFN matrices
            // (the AdaLoRA paper targets W_o / W_f1 / W_f2 alongside QKV).
            targets.push((block.wo, d, d));
            targets.push((block.w1, d, self.cfg.ffn_dim));
            targets.push((block.w2, self.cfg.ffn_dim, d));
        }
        let adalora = AdaLora::attach(&mut self.store, &targets, cfg, seed);
        for (i, t) in adalora.targets().iter().enumerate() {
            self.adapter_of.insert(*t, i);
        }
        self.adapters = Some(adalora);
    }

    /// The attached adapters, if any.
    pub fn adalora(&self) -> Option<&AdaLora> {
        self.adapters.as_ref()
    }

    /// Mutable adapter access (for pruning schedules).
    pub fn adalora_mut(&mut self) -> Option<&mut AdaLora> {
        self.adapters.as_mut()
    }

    /// Feed one optimizer step's gradients into the AdaLoRA sensitivity
    /// EMAs. Call with the *pre-update* parameter values (i.e. before
    /// `Optimizer::apply`). No-op without adapters.
    pub fn adalora_observe(&mut self, updates: &[(ParamId, Tensor)]) {
        if let Some(ada) = self.adapters.as_mut() {
            ada.update_importance(&self.store, updates);
        }
    }

    /// Prune the AdaLoRA rank budget by importance. No-op without adapters.
    pub fn prune_adalora(&mut self) {
        if let Some(ada) = self.adapters.as_mut() {
            ada.prune_to_budget(&mut self.store);
        }
    }

    /// Effective projection: base weight plus AdaLoRA delta when attached.
    fn proj(&self, ctx: &Ctx<'_>, base: ParamId) -> Var {
        let w = ctx.p(base);
        match (&self.adapters, self.adapter_of.get(&base)) {
            (Some(ada), Some(&idx)) => {
                let delta = ada.delta(ctx, idx);
                ctx.tape.add(w, delta)
            }
            _ => w,
        }
    }

    /// Batched input embeddings `[B·t_max, d]` over right-padded sequences:
    /// hard tokens from the tied table, soft tokens from `soft_table`, plus
    /// learned positions (paper Eq. 2 — soft prompts live directly in
    /// embedding space). Rows past a sequence's length stay exactly zero.
    fn embed_batch<S: AsRef<[LmToken]>>(
        &self,
        ctx: &Ctx<'_>,
        seqs: &[S],
        soft_table: Option<Var>,
        t_max: usize,
    ) -> Var {
        let tape = ctx.tape;
        let rows = seqs.len() * t_max;
        let mut hard = Vec::new();
        let mut soft = Vec::new();
        let mut pos = Vec::new();
        for (b, tokens) in seqs.iter().enumerate() {
            for (t, tok) in tokens.as_ref().iter().enumerate() {
                let dst = b * t_max + t;
                match *tok {
                    LmToken::Vocab(w) => hard.push((w as usize, dst)),
                    LmToken::Soft(s) => soft.push((s, dst)),
                }
                pos.push((t, dst));
            }
        }
        let mut x = tape.scatter_rows(ctx.p(self.tok_emb), &hard, rows);
        if !soft.is_empty() {
            let table = soft_table.expect("input has soft tokens but no soft table given");
            let s = tape.scatter_rows(table, &soft, rows);
            x = tape.add(x, s);
        }
        let p = tape.scatter_rows(ctx.p(self.pos_emb), &pos, rows);
        tape.add(x, p)
    }

    /// Hidden states `[rows.len(), d]` after the full encoder stack at the
    /// `(sequence, position)` pairs `rows` of a right-padded batch — the rows
    /// a loss reads, in the order given (repeats allowed). A position may lie
    /// in a sequence's padding (below the longest length); such a row holds
    /// finite garbage.
    ///
    /// Row-wise layers (projections, layer norm, FFN) run over the whole
    /// flattened `[B·t_max, d]` batch; attention is the only cross-row op,
    /// and [`delrec_tensor::Tape::attention`]'s valid-prefix masking gives
    /// padded key positions exactly zero weight, so padded rows never leak
    /// into valid ones. Every block but the last runs over all rows. The
    /// last computes only what `rows` needs: layer norm, K and V over all
    /// rows (every query attends to every key), and Q, attention, the output
    /// projection, both residuals, the FFN and the final layer norm over the
    /// [`K_GROUP`](delrec_tensor::K_GROUP)-row groups that hold a requested row
    /// ([`k_group_rows`]) — which keeps every fitted parameter's gradient
    /// bitwise what the full-row block gives (DESIGN.md, "The last block
    /// computes only the loss rows"). Its dropout masks are drawn for every
    /// row, so the RNG stream is unchanged too.
    pub fn encode_rows<S: AsRef<[LmToken]>>(
        &self,
        ctx: &Ctx<'_>,
        seqs: &[S],
        soft_table: Option<Var>,
        rows: &[(usize, usize)],
        rng: &mut StdRng,
    ) -> Var {
        let _span = delrec_obs::span!("lm.encode_tape");
        let tape = ctx.tape;
        let bsz = seqs.len();
        assert!(bsz > 0, "empty batch");
        let lens: Vec<usize> = seqs.iter().map(|s| s.as_ref().len()).collect();
        for &len in &lens {
            assert!(len > 0, "empty input");
            assert!(
                len <= self.cfg.max_len,
                "input length {len} exceeds max_len {}",
                self.cfg.max_len
            );
        }
        let t_max = *lens.iter().max().unwrap();
        let n = bsz * t_max;
        let flat: Vec<usize> = rows
            .iter()
            .map(|&(b, t)| {
                assert!(
                    b < bsz && t < t_max,
                    "row ({b}, {t}) outside [{bsz}, {t_max}]"
                );
                b * t_max + t
            })
            .collect();
        let kept = k_group_rows(flat.iter().copied(), n);
        delrec_obs::counter!("lm.encode_tape.last_block_rows").add(kept.len() as u64);
        let keep = if kept.len() == n {
            Rows::All
        } else {
            Rows::Of { n, rows: &kept }
        };
        // Per-(sequence, query-position) count of attendable key positions:
        // the sequence's valid prefix. Padded query rows get their
        // sequence's count too — their output is garbage either way, but the
        // count must stay in the attention node's 1..=t_max range.
        let valid = |r: usize| lens[r / t_max];
        let valid_all: Vec<usize> = (0..n).map(valid).collect();
        let valid_kept: Vec<usize> = kept.iter().map(|&r| valid(r)).collect();
        let mut h = self.embed_batch(ctx, seqs, soft_table, t_max);
        h = tape.dropout(h, Rows::All, self.cfg.dropout, ctx.train, rng);
        let last = self.blocks.len() - 1;
        for (i, block) in self.blocks.iter().enumerate() {
            let (rows, valid) = if i == last {
                (keep, &valid_kept)
            } else {
                (Rows::All, &valid_all)
            };
            h = self.block(ctx, block, h, bsz, t_max, rows, valid, rng);
        }
        let h = tape.layer_norm(h, ctx.p(self.ln_f_g), ctx.p(self.ln_f_b));
        if keep == Rows::All && flat.iter().copied().eq(0..n) {
            return h;
        }
        let at: Vec<usize> = flat
            .iter()
            .map(|r| kept.binary_search(r).expect("kept rows hold every row"))
            .collect();
        tape.gather_rows(h, &at)
    }

    /// One encoder block over the `[B·t_max, d]` hidden states `h`,
    /// producing the rows `keep` of its output: layer norm, K and V over
    /// every row; Q, attention, the output projection, both residuals and
    /// the FFN over the kept rows only. `valid` holds one attendable-key
    /// count per kept row.
    #[allow(clippy::too_many_arguments)]
    fn block(
        &self,
        ctx: &Ctx<'_>,
        block: &Block,
        h: Var,
        bsz: usize,
        t_max: usize,
        keep: Rows<'_>,
        valid: &[usize],
        rng: &mut StdRng,
    ) -> Var {
        let tape = ctx.tape;
        let kept = |x: Var| match keep {
            Rows::All => x,
            Rows::Of { rows, .. } => tape.gather_rows(x, rows),
        };
        let (p, train) = (self.cfg.dropout, ctx.train);
        let dh = self.cfg.d_model / self.cfg.num_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let xin = tape.layer_norm(h, ctx.p(block.ln1_g), ctx.p(block.ln1_b));
        let mut heads = Vec::with_capacity(self.cfg.num_heads);
        for hd in 0..self.cfg.num_heads {
            // Q gathers the kept rows per head, where the full-row block
            // multiplied `xin` itself: the per-head gradients then reach
            // `xin` in the same order (v, k, q, head by head, backwards).
            let q = tape.matmul(kept(xin), self.proj(ctx, block.wq[hd]));
            let k = tape.matmul(xin, self.proj(ctx, block.wk[hd]));
            let v = tape.matmul(xin, self.proj(ctx, block.wv[hd]));
            heads.push(tape.attention(q, k, v, bsz, t_max, keep, valid, scale, p, train, rng));
        }
        let attn_out = tape.concat_cols(&heads);
        let attn_out = tape.matmul(attn_out, ctx.p(block.wo));
        let attn_out = tape.dropout(attn_out, keep, p, train, rng);
        let h = tape.add(kept(h), attn_out);

        let xin2 = tape.layer_norm(h, ctx.p(block.ln2_g), ctx.p(block.ln2_b));
        let f = tape.matmul(xin2, ctx.p(block.w1));
        let f = tape.add(f, ctx.p(block.b1));
        let f = tape.gelu(f);
        let f = tape.matmul(f, ctx.p(block.w2));
        let f = tape.add(f, ctx.p(block.b2));
        let f = tape.dropout(f, keep, p, train, rng);
        tape.add(h, f)
    }

    /// MLM-head logits `[rows, vocab_size]` of hidden states `[rows, d]`:
    /// the tied embedding table plus the head bias.
    fn mlm_head(&self, ctx: &Ctx<'_>, h: Var) -> Var {
        let tape = ctx.tape;
        let emb_t = tape.transpose(ctx.p(self.tok_emb));
        let logits = tape.matmul(h, emb_t);
        tape.add(logits, ctx.p(self.head_bias))
    }

    /// Full-vocabulary logits at every position of every sequence:
    /// `[B, t_max, vocab_size]`. One batched forward pass; positions past a
    /// sequence's length hold garbage and must be masked by the caller. The
    /// full-row reference the row-pruned paths are tested against.
    pub fn forward_batch<S: AsRef<[LmToken]>>(
        &self,
        ctx: &Ctx<'_>,
        seqs: &[S],
        soft_table: Option<Var>,
        rng: &mut StdRng,
    ) -> Var {
        let t_max = seqs.iter().map(|s| s.as_ref().len()).max().unwrap_or(0);
        let rows: Vec<(usize, usize)> = (0..seqs.len())
            .flat_map(|b| (0..t_max).map(move |t| (b, t)))
            .collect();
        let h = self.encode_rows(ctx, seqs, soft_table, &rows, rng);
        let logits = self.mlm_head(ctx, h);
        ctx.tape
            .reshape(logits, [seqs.len(), t_max, self.cfg.vocab_size])
    }

    /// MLM-head logits at several positions in one forward pass:
    /// `[positions.len(), vocab_size]`. Used by pretraining, which masks
    /// multiple tokens per packed document.
    pub fn mask_logits_multi(
        &self,
        ctx: &Ctx<'_>,
        tokens: &[LmToken],
        soft_table: Option<Var>,
        positions: &[usize],
        rng: &mut StdRng,
    ) -> Var {
        assert!(!positions.is_empty(), "no mask positions");
        let rows: Vec<(usize, usize)> = positions
            .iter()
            .map(|&p| {
                assert!(p < tokens.len(), "mask position out of range");
                (0, p)
            })
            .collect();
        let h = self.encode_rows(ctx, &[tokens], soft_table, &rows, rng);
        self.mlm_head(ctx, h)
    }

    /// MLM-head logits (`[vocab_size]`) at `mask_pos` — the LM-head "output
    /// scores of all tokens" that the verbalizer turns into item scores.
    /// Thin wrapper over [`MiniLm::mask_logits_batch`] with a batch of one.
    pub fn mask_logits(
        &self,
        ctx: &Ctx<'_>,
        tokens: &[LmToken],
        soft_table: Option<Var>,
        mask_pos: usize,
        rng: &mut StdRng,
    ) -> Var {
        let logits = self.mask_logits_batch(ctx, &[tokens], soft_table, &[mask_pos], rng);
        ctx.tape.reshape(logits, [self.cfg.vocab_size])
    }

    /// Batched mask-position logits: one `[B, vocab_size]` tensor holding,
    /// for each sequence, the MLM-head scores at that sequence's mask slot.
    /// The whole batch shares one encoder pass over right-padded inputs,
    /// whose last block computes little more than the mask rows
    /// ([`MiniLm::encode_rows`]).
    pub fn mask_logits_batch<S: AsRef<[LmToken]>>(
        &self,
        ctx: &Ctx<'_>,
        seqs: &[S],
        soft_table: Option<Var>,
        mask_pos: &[usize],
        rng: &mut StdRng,
    ) -> Var {
        assert_eq!(seqs.len(), mask_pos.len(), "one mask position per sequence");
        let rows: Vec<(usize, usize)> = mask_pos
            .iter()
            .zip(seqs)
            .enumerate()
            .map(|(b, (&p, tokens))| {
                assert!(p < tokens.as_ref().len(), "mask position out of range");
                (b, p)
            })
            .collect();
        let at_mask = self.encode_rows(ctx, seqs, soft_table, &rows, rng);
        self.mlm_head(ctx, at_mask)
    }

    /// Plain (non-autograd) mean token embedding of a word sequence — the
    /// "LLM item embedding" used by the paradigm-3 baselines (LLMSEQSIM,
    /// LLM2BERT4Rec).
    pub fn title_embedding(&self, token_ids: &[u32]) -> Vec<f32> {
        assert!(!token_ids.is_empty(), "empty title");
        let emb = self.store.get(self.tok_emb);
        let d = self.cfg.d_model;
        let mut out = vec![0.0f32; d];
        for &t in token_ids {
            let row = emb.row(t as usize);
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        let inv = 1.0 / token_ids.len() as f32;
        for o in &mut out {
            *o *= inv;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delrec_tensor::Tape;

    fn tiny_lm() -> MiniLm {
        let mut cfg = MiniLmConfig::large(50);
        cfg.dropout = 0.0;
        MiniLm::new(cfg, 1)
    }

    fn toks(ids: &[u32]) -> Vec<LmToken> {
        ids.iter().map(|&i| LmToken::Vocab(i)).collect()
    }

    #[test]
    fn mask_logits_shape_and_finiteness() {
        let lm = tiny_lm();
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, lm.store(), false);
        let mut rng = StdRng::seed_from_u64(0);
        let logits = lm.mask_logits(&ctx, &toks(&[5, 6, 1, 7]), None, 2, &mut rng);
        let v = tape.get(logits);
        assert_eq!(v.numel(), 50);
        assert!(v.is_finite());
    }

    #[test]
    fn soft_tokens_change_the_output() {
        let lm = tiny_lm();
        let mut rng = StdRng::seed_from_u64(0);
        let mut run = |soft_row: f32| {
            let tape = Tape::new();
            let ctx = Ctx::new(&tape, lm.store(), false);
            let table = tape.constant(Tensor::full([2, 16], soft_row));
            let tokens = vec![
                LmToken::Soft(0),
                LmToken::Vocab(5),
                LmToken::Soft(1),
                LmToken::Vocab(1),
            ];
            let logits = lm.mask_logits(&ctx, &tokens, Some(table), 3, &mut rng);
            tape.get(logits)
        };
        assert_ne!(run(0.1).data(), run(0.9).data());
    }

    #[test]
    #[should_panic(expected = "soft tokens but no soft table")]
    fn soft_token_without_table_panics() {
        let lm = tiny_lm();
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, lm.store(), false);
        let mut rng = StdRng::seed_from_u64(0);
        lm.mask_logits(
            &ctx,
            &[LmToken::Soft(0), LmToken::Vocab(1)],
            None,
            1,
            &mut rng,
        );
    }

    #[test]
    fn backbone_freeze_excludes_lm_params_from_updates() {
        let mut lm = tiny_lm();
        lm.set_backbone_trainable(false);
        assert_eq!(lm.store().num_trainable_scalars(), 0);
        lm.set_backbone_trainable(true);
        assert!(lm.store().num_trainable_scalars() > 0);
    }

    #[test]
    fn title_embedding_is_mean_of_rows() {
        let lm = tiny_lm();
        let e1 = lm.title_embedding(&[3]);
        let e2 = lm.title_embedding(&[4]);
        let mean = lm.title_embedding(&[3, 4]);
        for i in 0..e1.len() {
            assert!((mean[i] - 0.5 * (e1[i] + e2[i])).abs() < 1e-6);
        }
    }

    #[test]
    fn batched_forward_matches_single_sequences() {
        for mut cfg in [MiniLmConfig::large(50), MiniLmConfig::xl(50)] {
            cfg.dropout = 0.0;
            let layers = cfg.num_layers;
            let lm = MiniLm::new(cfg, 3);
            let seqs: Vec<Vec<LmToken>> =
                vec![toks(&[5, 6, 1, 7, 2]), toks(&[9]), toks(&[3, 3, 8])];
            let tape = Tape::new();
            let ctx = Ctx::new(&tape, lm.store(), false);
            let mut rng = StdRng::seed_from_u64(0);
            let batched = tape.get(lm.forward_batch(&ctx, &seqs, None, &mut rng));
            let t_max = 5;
            assert_eq!(batched.shape().dim(0), 3);
            assert_eq!(batched.shape().dim(1), t_max);
            for (b, seq) in seqs.iter().enumerate() {
                let positions: Vec<usize> = (0..seq.len()).collect();
                let single = {
                    let tape = Tape::new();
                    let ctx = Ctx::new(&tape, lm.store(), false);
                    let mut rng = StdRng::seed_from_u64(0);
                    tape.get(lm.mask_logits_multi(&ctx, seq, None, &positions, &mut rng))
                };
                for t in 0..seq.len() {
                    for c in 0..50 {
                        let got = batched.data()[(b * t_max + t) * 50 + c];
                        let want = single.data()[t * 50 + c];
                        assert!(
                            (got - want).abs() < 1e-5,
                            "{layers} layers b={b} t={t} c={c}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_mask_logits_match_single_calls() {
        let lm = tiny_lm();
        let seqs: Vec<Vec<LmToken>> = vec![toks(&[5, 6, 1, 7]), toks(&[2, 9]), toks(&[4, 4, 4])];
        let mask_pos = [2usize, 0, 1];
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, lm.store(), false);
        let mut rng = StdRng::seed_from_u64(0);
        let batched = tape.get(lm.mask_logits_batch(&ctx, &seqs, None, &mask_pos, &mut rng));
        for (b, (seq, &p)) in seqs.iter().zip(&mask_pos).enumerate() {
            let tape = Tape::new();
            let ctx = Ctx::new(&tape, lm.store(), false);
            let mut rng = StdRng::seed_from_u64(0);
            let single = tape.get(lm.mask_logits(&ctx, seq, None, p, &mut rng));
            for c in 0..50 {
                let (got, want) = (batched.row(b)[c], single.data()[c]);
                assert!((got - want).abs() < 1e-5, "b={b} c={c}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn position_matters() {
        let lm = tiny_lm();
        let mut rng = StdRng::seed_from_u64(0);
        let mut run = |tokens: &[u32]| {
            let tape = Tape::new();
            let ctx = Ctx::new(&tape, lm.store(), false);
            let logits = lm.mask_logits(&ctx, &toks(tokens), None, 0, &mut rng);
            tape.get(logits)
        };
        assert_ne!(run(&[1, 8, 9]).data(), run(&[1, 9, 8]).data());
    }
}
