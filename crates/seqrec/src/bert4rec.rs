//! BERT4Rec (Sun et al., CIKM 2019): bidirectional self-attention with a
//! mask token. Used here both as a standalone conventional model and as the
//! substrate of the paper's LLM2BERT4Rec baseline, whose item embeddings are
//! initialized from (PCA-projected) language-model title embeddings.

use crate::model::{NeuralSeqModel, SequentialRecommender};
use delrec_data::ItemId;
use delrec_tensor::{init, Ctx, ParamId, ParamStore, Rows, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// BERT4Rec hyperparameters.
#[derive(Clone, Debug)]
pub struct Bert4RecConfig {
    /// Item-embedding dimension.
    pub embed_dim: usize,
    /// Maximum sequence length *including* the trailing mask slot.
    pub seq_len: usize,
    /// Transformer blocks.
    pub num_blocks: usize,
    /// Attention heads per block.
    pub num_heads: usize,
    /// Dropout rate.
    pub dropout: f32,
}

impl Default for Bert4RecConfig {
    fn default() -> Self {
        Bert4RecConfig {
            embed_dim: 32,
            seq_len: 10,
            num_blocks: 2,
            num_heads: 2,
            dropout: 0.2,
        }
    }
}

struct Block {
    wq: Vec<ParamId>,
    wk: Vec<ParamId>,
    wv: Vec<ParamId>,
    wo: ParamId,
    ln1_g: ParamId,
    ln1_b: ParamId,
    w1: ParamId,
    b1: ParamId,
    w2: ParamId,
    b2: ParamId,
    ln2_g: ParamId,
    ln2_b: ParamId,
}

/// The BERT4Rec model: next-item prediction as mask filling.
pub struct Bert4Rec {
    store: ParamStore,
    cfg: Bert4RecConfig,
    num_items: usize,
    emb: ParamId,
    mask_emb: ParamId,
    pos: ParamId,
    blocks: Vec<Block>,
    ln_f_g: ParamId,
    ln_f_b: ParamId,
}

impl Bert4Rec {
    /// Initialize with seeded weights.
    pub fn new(num_items: usize, cfg: Bert4RecConfig, seed: u64) -> Self {
        assert_eq!(cfg.embed_dim % cfg.num_heads, 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let d = cfg.embed_dim;
        let dh = d / cfg.num_heads;
        let mut store = ParamStore::new();
        let emb = store.add("bert4rec.emb", init::normal([num_items, d], 0.05, &mut rng));
        let mask_emb = store.add("bert4rec.mask", init::normal([1, d], 0.05, &mut rng));
        let pos = store.add(
            "bert4rec.pos",
            init::normal([cfg.seq_len, d], 0.05, &mut rng),
        );
        let mut blocks = Vec::new();
        for b in 0..cfg.num_blocks {
            let mut wq = Vec::new();
            let mut wk = Vec::new();
            let mut wv = Vec::new();
            for h in 0..cfg.num_heads {
                wq.push(store.add(
                    format!("bert4rec.b{b}.h{h}.wq"),
                    init::xavier(d, dh, &mut rng),
                ));
                wk.push(store.add(
                    format!("bert4rec.b{b}.h{h}.wk"),
                    init::xavier(d, dh, &mut rng),
                ));
                wv.push(store.add(
                    format!("bert4rec.b{b}.h{h}.wv"),
                    init::xavier(d, dh, &mut rng),
                ));
            }
            blocks.push(Block {
                wq,
                wk,
                wv,
                wo: store.add(format!("bert4rec.b{b}.wo"), init::xavier(d, d, &mut rng)),
                ln1_g: store.add(format!("bert4rec.b{b}.ln1.g"), Tensor::full([d], 1.0)),
                ln1_b: store.add(format!("bert4rec.b{b}.ln1.b"), Tensor::zeros([d])),
                w1: store.add(
                    format!("bert4rec.b{b}.ffn.w1"),
                    init::xavier(d, d, &mut rng),
                ),
                b1: store.add(format!("bert4rec.b{b}.ffn.b1"), Tensor::zeros([d])),
                w2: store.add(
                    format!("bert4rec.b{b}.ffn.w2"),
                    init::xavier(d, d, &mut rng),
                ),
                b2: store.add(format!("bert4rec.b{b}.ffn.b2"), Tensor::zeros([d])),
                ln2_g: store.add(format!("bert4rec.b{b}.ln2.g"), Tensor::full([d], 1.0)),
                ln2_b: store.add(format!("bert4rec.b{b}.ln2.b"), Tensor::zeros([d])),
            });
        }
        let ln_f_g = store.add("bert4rec.lnf.g", Tensor::full([d], 1.0));
        let ln_f_b = store.add("bert4rec.lnf.b", Tensor::zeros([d]));
        Bert4Rec {
            store,
            cfg,
            num_items,
            emb,
            mask_emb,
            pos,
            blocks,
            ln_f_g,
            ln_f_b,
        }
    }

    /// Overwrite the item-embedding table (LLM2BERT4Rec initialization).
    /// The matrix must be `[num_items, embed_dim]`.
    pub fn set_item_embeddings(&mut self, matrix: Tensor) {
        assert_eq!(
            matrix.shape(),
            self.store.shape_of(self.emb),
            "embedding init shape mismatch"
        );
        *self.store.get_mut(self.emb) = matrix;
    }
}

impl SequentialRecommender for Bert4Rec {
    fn name(&self) -> &str {
        "bert4rec"
    }

    fn scores(&self, prefix: &[ItemId]) -> Vec<f32> {
        self.scores_via_forward(prefix)
    }

    fn scores_batch(&self, prefixes: &[&[ItemId]]) -> Vec<Vec<f32>> {
        self.scores_batch_via_forward(prefixes)
    }
}

impl NeuralSeqModel for Bert4Rec {
    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn logits(&self, ctx: &Ctx<'_>, prefix: &[ItemId], rng: &mut StdRng) -> Var {
        let logits = self.logits_batch(ctx, &[prefix], rng);
        ctx.tape.reshape(logits, [self.num_items])
    }

    fn logits_batch(&self, ctx: &Ctx<'_>, prefixes: &[&[ItemId]], rng: &mut StdRng) -> Var {
        assert!(!prefixes.is_empty(), "empty batch");
        let tape = ctx.tape;
        let l = self.cfg.seq_len;
        let id_seqs: Vec<Vec<usize>> = prefixes
            .iter()
            .map(|prefix| {
                assert!(!prefix.is_empty(), "empty prefix");
                let take = prefix.len().min(l - 1);
                prefix[prefix.len() - take..]
                    .iter()
                    .map(|i| i.index())
                    .collect()
            })
            .collect();
        // Per-sequence length *including* the trailing mask slot.
        let lens: Vec<usize> = id_seqs.iter().map(|s| s.len() + 1).collect();
        let t_max = *lens.iter().max().unwrap();
        let bsz = id_seqs.len();
        let rows = bsz * t_max;
        let d = self.cfg.embed_dim;

        // History embeddings leave each sequence's mask slot zero; the mask
        // embedding is scattered into exactly that row.
        let hist = tape.embedding_padded(ctx.p(self.emb), &id_seqs, t_max);
        let hist = tape.reshape(hist, [rows, d]);
        let mask_slots: Vec<(usize, usize)> = lens
            .iter()
            .enumerate()
            .map(|(b, &t)| (0, b * t_max + t - 1))
            .collect();
        let mask = tape.scatter_rows(ctx.p(self.mask_emb), &mask_slots, rows);
        let x = tape.add(hist, mask);
        let pos_seqs: Vec<Vec<usize>> = lens.iter().map(|&t| (l - t..l).collect()).collect();
        let p = tape.embedding_padded(ctx.p(self.pos), &pos_seqs, t_max);
        let p = tape.reshape(p, [rows, d]);
        let mut h = tape.add(x, p);
        h = tape.dropout(h, Rows::All, self.cfg.dropout, ctx.train, rng);

        // Bidirectional within each sequence's valid prefix; padded key
        // positions get zero attention weight.
        let valid: Vec<usize> = lens
            .iter()
            .flat_map(|&len| (0..t_max).map(move |_| len))
            .collect();
        let dh = d / self.cfg.num_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        for block in &self.blocks {
            let xin = tape.layer_norm(h, ctx.p(block.ln1_g), ctx.p(block.ln1_b));
            let mut heads = Vec::with_capacity(self.cfg.num_heads);
            for hd in 0..self.cfg.num_heads {
                let q = tape.matmul(xin, ctx.p(block.wq[hd]));
                let k = tape.matmul(xin, ctx.p(block.wk[hd]));
                let v = tape.matmul(xin, ctx.p(block.wv[hd]));
                let (p, train) = (self.cfg.dropout, ctx.train);
                heads.push(tape.attention(
                    q,
                    k,
                    v,
                    bsz,
                    t_max,
                    Rows::All,
                    &valid,
                    scale,
                    p,
                    train,
                    rng,
                ));
            }
            let attn_out = tape.concat_cols(&heads);
            let attn_out = tape.matmul(attn_out, ctx.p(block.wo));
            let attn_out = tape.dropout(attn_out, Rows::All, self.cfg.dropout, ctx.train, rng);
            h = tape.add(h, attn_out);

            let xin2 = tape.layer_norm(h, ctx.p(block.ln2_g), ctx.p(block.ln2_b));
            let f = tape.matmul(xin2, ctx.p(block.w1));
            let f = tape.add(f, ctx.p(block.b1));
            let f = tape.gelu(f);
            let f = tape.matmul(f, ctx.p(block.w2));
            let f = tape.add(f, ctx.p(block.b2));
            let f = tape.dropout(f, Rows::All, self.cfg.dropout, ctx.train, rng);
            h = tape.add(h, f);
        }
        let h = tape.layer_norm(h, ctx.p(self.ln_f_g), ctx.p(self.ln_f_b));
        let mask_rows: Vec<usize> = lens
            .iter()
            .enumerate()
            .map(|(b, &t)| b * t_max + t - 1)
            .collect();
        let at_mask = tape.gather_rows(h, &mask_rows); // [B, d]
        let emb_t = tape.transpose(ctx.p(self.emb));
        tape.matmul(at_mask, emb_t) // [B, num_items]
    }

    fn num_items(&self) -> usize {
        self.num_items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix(ids: &[u32]) -> Vec<ItemId> {
        ids.iter().map(|&i| ItemId(i)).collect()
    }

    fn eval_cfg() -> Bert4RecConfig {
        Bert4RecConfig {
            dropout: 0.0,
            ..Default::default()
        }
    }

    #[test]
    fn scores_cover_catalog() {
        let m = Bert4Rec::new(20, eval_cfg(), 1);
        let s = m.scores(&prefix(&[0, 5, 7]));
        assert_eq!(s.len(), 20);
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn embedding_injection_changes_predictions() {
        let mut m = Bert4Rec::new(20, eval_cfg(), 1);
        let before = m.scores(&prefix(&[0, 5, 7]));
        let mut rng = StdRng::seed_from_u64(99);
        m.set_item_embeddings(init::normal([20, 32], 0.05, &mut rng));
        let after = m.scores(&prefix(&[0, 5, 7]));
        assert_ne!(before, after);
    }

    #[test]
    fn batched_scores_match_single_scores() {
        let m = Bert4Rec::new(20, eval_cfg(), 1);
        let prefixes: Vec<Vec<ItemId>> = vec![
            prefix(&[0, 5, 7, 2]),
            prefix(&[3]),
            prefix(&(0..15).collect::<Vec<u32>>()), // truncated to seq_len − 1
        ];
        let refs: Vec<&[ItemId]> = prefixes.iter().map(|p| p.as_slice()).collect();
        let batched = m.scores_batch(&refs);
        for (b, p) in prefixes.iter().enumerate() {
            let single = m.scores(p);
            for (i, (got, want)) in batched[b].iter().zip(&single).enumerate() {
                assert!((got - want).abs() < 1e-5, "b={b} item={i}: {got} vs {want}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "embedding init shape mismatch")]
    fn wrong_init_shape_panics() {
        let mut m = Bert4Rec::new(20, eval_cfg(), 1);
        m.set_item_embeddings(Tensor::zeros([20, 8]));
    }
}
