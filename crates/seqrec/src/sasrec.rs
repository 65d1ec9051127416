//! SASRec (Kang & McAuley, ICDM 2018): causal self-attention over the
//! interaction sequence; the representation at the last position scores all
//! items. This is the paper's strongest conventional backbone.

use crate::model::{NeuralSeqModel, SequentialRecommender};
use delrec_data::ItemId;
use delrec_tensor::{init, Ctx, ParamId, ParamStore, Rows, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SASRec hyperparameters.
#[derive(Clone, Debug)]
pub struct SasRecConfig {
    /// Item-embedding dimension (paper §V-A3 uses 100; scaled here).
    pub embed_dim: usize,
    /// Maximum sequence length.
    pub seq_len: usize,
    /// Self-attention blocks (paper: 2).
    pub num_blocks: usize,
    /// Attention heads per block.
    pub num_heads: usize,
    /// Dropout rate (paper: 0.5).
    pub dropout: f32,
}

impl Default for SasRecConfig {
    fn default() -> Self {
        SasRecConfig {
            embed_dim: 32,
            seq_len: 9,
            num_blocks: 2,
            num_heads: 2,
            dropout: 0.5,
        }
    }
}

struct Head {
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
}

struct Block {
    heads: Vec<Head>,
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

/// The SASRec model.
pub struct SasRec {
    store: ParamStore,
    cfg: SasRecConfig,
    num_items: usize,
    emb: ParamId,
    pos: ParamId,
    blocks: Vec<Block>,
    ln_f_g: ParamId,
    ln_f_b: ParamId,
}

impl SasRec {
    /// Initialize with seeded weights.
    pub fn new(num_items: usize, cfg: SasRecConfig, seed: u64) -> Self {
        assert_eq!(
            cfg.embed_dim % cfg.num_heads,
            0,
            "embed_dim must divide evenly into heads"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let d = cfg.embed_dim;
        let dh = d / cfg.num_heads;
        let mut store = ParamStore::new();
        let emb = store.add("sasrec.emb", init::normal([num_items, d], 0.05, &mut rng));
        let pos = store.add("sasrec.pos", init::normal([cfg.seq_len, d], 0.05, &mut rng));
        let mut blocks = Vec::new();
        for b in 0..cfg.num_blocks {
            let heads = (0..cfg.num_heads)
                .map(|h| Head {
                    wq: store.add(
                        format!("sasrec.b{b}.h{h}.wq"),
                        init::xavier(d, dh, &mut rng),
                    ),
                    wk: store.add(
                        format!("sasrec.b{b}.h{h}.wk"),
                        init::xavier(d, dh, &mut rng),
                    ),
                    wv: store.add(
                        format!("sasrec.b{b}.h{h}.wv"),
                        init::xavier(d, dh, &mut rng),
                    ),
                })
                .collect();
            blocks.push(Block {
                heads,
                wo: store.add(format!("sasrec.b{b}.wo"), init::xavier(d, d, &mut rng)),
                ln1_g: store.add(format!("sasrec.b{b}.ln1.g"), Tensor::full([d], 1.0)),
                ln1_b: store.add(format!("sasrec.b{b}.ln1.b"), Tensor::zeros([d])),
                w1: store.add(format!("sasrec.b{b}.ffn.w1"), init::xavier(d, d, &mut rng)),
                b1: store.add(format!("sasrec.b{b}.ffn.b1"), Tensor::zeros([d])),
                w2: store.add(format!("sasrec.b{b}.ffn.w2"), init::xavier(d, d, &mut rng)),
                b2: store.add(format!("sasrec.b{b}.ffn.b2"), Tensor::zeros([d])),
                ln2_g: store.add(format!("sasrec.b{b}.ln2.g"), Tensor::full([d], 1.0)),
                ln2_b: store.add(format!("sasrec.b{b}.ln2.b"), Tensor::zeros([d])),
            });
        }
        let ln_f_g = store.add("sasrec.lnf.g", Tensor::full([d], 1.0));
        let ln_f_b = store.add("sasrec.lnf.b", Tensor::zeros([d]));
        SasRec {
            store,
            cfg,
            num_items,
            emb,
            pos,
            blocks,
            ln_f_g,
            ln_f_b,
        }
    }

    /// Batched hidden states over right-padded histories: `[B·t_max, d]`
    /// after all blocks, plus each history's trimmed length and `t_max`.
    /// Sequence `b`'s step `t` lives at row `b·t_max + t`; rows past a
    /// sequence's length are garbage kept out of valid rows by the
    /// valid-prefix attention mask.
    fn encode_batch(
        &self,
        ctx: &Ctx<'_>,
        prefixes: &[&[ItemId]],
        rng: &mut StdRng,
    ) -> (Var, Vec<usize>, usize) {
        let tape = ctx.tape;
        let l = self.cfg.seq_len;
        let id_seqs: Vec<Vec<usize>> = prefixes
            .iter()
            .map(|prefix| {
                assert!(!prefix.is_empty(), "empty prefix");
                let take = prefix.len().min(l);
                prefix[prefix.len() - take..]
                    .iter()
                    .map(|i| i.index())
                    .collect()
            })
            .collect();
        let lens: Vec<usize> = id_seqs.iter().map(|s| s.len()).collect();
        let t_max = *lens.iter().max().unwrap();
        let bsz = id_seqs.len();
        let rows = bsz * t_max;
        let d = self.cfg.embed_dim;

        let x = tape.embedding_padded(ctx.p(self.emb), &id_seqs, t_max);
        let x = tape.reshape(x, [rows, d]);
        // Align positions to the *end* of the position table so "most recent"
        // is always the same position regardless of prefix length.
        let pos_seqs: Vec<Vec<usize>> = lens.iter().map(|&t| (l - t..l).collect()).collect();
        let p = tape.embedding_padded(ctx.p(self.pos), &pos_seqs, t_max);
        let p = tape.reshape(p, [rows, d]);
        let mut h = tape.add(x, p);
        h = tape.dropout(h, Rows::All, self.cfg.dropout, ctx.train, rng);

        // Causal + padding mask as a valid-prefix count per query row:
        // position t attends to j ≤ t, clipped to the sequence's length.
        let valid: Vec<usize> = lens
            .iter()
            .flat_map(|&len| (0..t_max).map(move |t| (t + 1).min(len)))
            .collect();
        let dh = d / self.cfg.num_heads;
        let scale = 1.0 / (dh as f32).sqrt();

        for block in &self.blocks {
            let xin = tape.layer_norm(h, ctx.p(block.ln1_g), ctx.p(block.ln1_b));
            let mut heads = Vec::with_capacity(block.heads.len());
            for head in &block.heads {
                let q = tape.matmul(xin, ctx.p(head.wq));
                let k = tape.matmul(xin, ctx.p(head.wk));
                let v = tape.matmul(xin, ctx.p(head.wv));
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
            let attn_out = tape.concat_cols(&heads); // [B·T, d]
            let attn_out = tape.matmul(attn_out, ctx.p(block.wo));
            let attn_out = tape.dropout(attn_out, Rows::All, self.cfg.dropout, ctx.train, rng);
            h = tape.add(h, attn_out);

            let xin2 = tape.layer_norm(h, ctx.p(block.ln2_g), ctx.p(block.ln2_b));
            let f = tape.matmul(xin2, ctx.p(block.w1));
            let f = tape.add(f, ctx.p(block.b1));
            let f = tape.relu(f);
            let f = tape.matmul(f, ctx.p(block.w2));
            let f = tape.add(f, ctx.p(block.b2));
            let f = tape.dropout(f, Rows::All, self.cfg.dropout, ctx.train, rng);
            h = tape.add(h, f);
        }
        let h = tape.layer_norm(h, ctx.p(self.ln_f_g), ctx.p(self.ln_f_b));
        (h, lens, t_max)
    }
}

impl SequentialRecommender for SasRec {
    fn name(&self) -> &str {
        "sasrec"
    }

    fn scores(&self, prefix: &[ItemId]) -> Vec<f32> {
        self.scores_via_forward(prefix)
    }

    fn scores_batch(&self, prefixes: &[&[ItemId]]) -> Vec<Vec<f32>> {
        self.scores_batch_via_forward(prefixes)
    }

    fn item_embeddings(&self) -> Option<Vec<Vec<f32>>> {
        let emb = self.store.get(self.emb);
        Some((0..self.num_items).map(|i| emb.row(i).to_vec()).collect())
    }
}

impl NeuralSeqModel for SasRec {
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
        let (h, lens, t_max) = self.encode_batch(ctx, prefixes, rng);
        // Each sequence's representation is its *last valid* row.
        let last_rows: Vec<usize> = lens
            .iter()
            .enumerate()
            .map(|(b, &t)| b * t_max + t - 1)
            .collect();
        let last = tape.gather_rows(h, &last_rows); // [B, d]
        let emb_t = tape.transpose(ctx.p(self.emb));
        tape.matmul(last, emb_t) // [B, num_items]
    }

    fn num_items(&self) -> usize {
        self.num_items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delrec_tensor::Tape;

    fn prefix(ids: &[u32]) -> Vec<ItemId> {
        ids.iter().map(|&i| ItemId(i)).collect()
    }

    fn eval_cfg() -> SasRecConfig {
        SasRecConfig {
            dropout: 0.0,
            ..Default::default()
        }
    }

    #[test]
    fn scores_cover_catalog() {
        let m = SasRec::new(30, eval_cfg(), 1);
        let s = m.scores(&prefix(&[1, 2, 3]));
        assert_eq!(s.len(), 30);
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn attention_is_order_sensitive() {
        let m = SasRec::new(30, eval_cfg(), 1);
        assert_ne!(m.scores(&prefix(&[1, 2, 3])), m.scores(&prefix(&[3, 2, 1])));
    }

    #[test]
    fn causality_future_items_do_not_change_shared_prefix_encoding() {
        // The *last-position* logits differ, but an identical prefix of the
        // input must give identical scores when it is the whole input:
        // extending the history changes predictions (sanity direction).
        let m = SasRec::new(30, eval_cfg(), 1);
        assert_ne!(m.scores(&prefix(&[1, 2])), m.scores(&prefix(&[1, 2, 5])));
    }

    #[test]
    fn long_histories_are_truncated_to_seq_len() {
        let m = SasRec::new(40, eval_cfg(), 1);
        let long: Vec<u32> = (0..20).collect();
        let tail: Vec<u32> = long[20 - 9..].to_vec();
        assert_eq!(m.scores(&prefix(&long)), m.scores(&prefix(&tail)));
    }

    #[test]
    fn batched_scores_match_single_scores() {
        let m = SasRec::new(25, eval_cfg(), 3);
        let prefixes: Vec<Vec<ItemId>> = vec![
            prefix(&[1, 2, 3, 4, 5, 6]),
            prefix(&[9]),
            prefix(&[7, 8, 7]),
            prefix(&(0..20).collect::<Vec<u32>>()), // truncated to seq_len
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
    fn gradients_flow_to_all_parameters() {
        let m = SasRec::new(15, eval_cfg(), 2);
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, m.store(), true);
        let mut rng = StdRng::seed_from_u64(0);
        let logits = m.logits(&ctx, &prefix(&[1, 2, 3, 4]), &mut rng);
        let loss = tape.cross_entropy(logits, &[5]);
        let mut grads = tape.backward(loss);
        let updates = ctx.grads(&mut grads);
        assert_eq!(updates.len(), m.store().len());
        assert!(updates.iter().all(|(_, g)| g.is_finite()));
    }
}
