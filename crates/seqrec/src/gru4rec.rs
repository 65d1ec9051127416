//! GRU4Rec (Hidasi et al., ICLR 2016): a gated recurrent unit over the
//! interaction sequence; the final hidden state scores all items.

use crate::model::{NeuralSeqModel, SequentialRecommender};
use delrec_data::ItemId;
use delrec_tensor::{init, Ctx, ParamId, ParamStore, Rows, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// GRU4Rec hyperparameters.
#[derive(Clone, Debug)]
pub struct Gru4RecConfig {
    /// Item-embedding dimension (paper §V-A3 uses 64; scaled here).
    pub embed_dim: usize,
    /// GRU hidden size.
    pub hidden_dim: usize,
    /// Dropout on the output projection (paper: 0.3).
    pub dropout: f32,
}

impl Default for Gru4RecConfig {
    fn default() -> Self {
        Gru4RecConfig {
            embed_dim: 32,
            hidden_dim: 32,
            dropout: 0.3,
        }
    }
}

/// The GRU4Rec model.
pub struct Gru4Rec {
    store: ParamStore,
    cfg: Gru4RecConfig,
    num_items: usize,
    emb: ParamId,
    // Gate weights: update (z), reset (r), candidate (h).
    wz: ParamId,
    uz: ParamId,
    bz: ParamId,
    wr: ParamId,
    ur: ParamId,
    br: ParamId,
    wh: ParamId,
    uh: ParamId,
    bh: ParamId,
    /// Projects the hidden state back to embedding space; logits are tied to
    /// the item embedding table.
    wo: ParamId,
}

impl Gru4Rec {
    /// Initialize with seeded weights.
    pub fn new(num_items: usize, cfg: Gru4RecConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (d, h) = (cfg.embed_dim, cfg.hidden_dim);
        let mut store = ParamStore::new();
        let emb = store.add("gru4rec.emb", init::normal([num_items, d], 0.05, &mut rng));
        let gate = |store: &mut ParamStore, rng: &mut StdRng, g: &str| {
            (
                store.add(format!("gru4rec.w{g}"), init::xavier(d, h, rng)),
                store.add(format!("gru4rec.u{g}"), init::xavier(h, h, rng)),
                store.add(format!("gru4rec.b{g}"), Tensor::zeros([h])),
            )
        };
        let (wz, uz, bz) = gate(&mut store, &mut rng, "z");
        let (wr, ur, br) = gate(&mut store, &mut rng, "r");
        let (wh, uh, bh) = gate(&mut store, &mut rng, "h");
        let wo = store.add("gru4rec.wo", init::xavier(h, d, &mut rng));
        Gru4Rec {
            store,
            cfg,
            num_items,
            emb,
            wz,
            uz,
            bz,
            wr,
            ur,
            br,
            wh,
            uh,
            bh,
            wo,
        }
    }

    /// Final hidden states (`[B, hidden]`) for a batch of prefixes: one
    /// time-major GRU sweep where every step's gate matmuls cover the whole
    /// batch. Sequences shorter than the longest are frozen once exhausted —
    /// their update is multiplied by a zero row — so row `b` equals the
    /// single-sequence recurrence over `prefixes[b]` exactly.
    fn final_hidden_batch(&self, ctx: &Ctx<'_>, prefixes: &[&[ItemId]]) -> Var {
        let tape = ctx.tape;
        let emb = ctx.p(self.emb);
        let bsz = prefixes.len();
        let hd = self.cfg.hidden_dim;
        let t_max = prefixes.iter().map(|p| p.len()).max().unwrap();
        let mut h = tape.constant(Tensor::zeros([bsz, hd]));
        for t in 0..t_max {
            // Exhausted sequences contribute a dummy row 0 lookup; their
            // update is zeroed below, so the value never matters.
            let ids: Vec<usize> = prefixes
                .iter()
                .map(|p| if t < p.len() { p[t].index() } else { 0 })
                .collect();
            let x = tape.gather_rows(emb, &ids); // [B, d]
            let z = {
                let a = tape.matmul(x, ctx.p(self.wz));
                let b = tape.matmul(h, ctx.p(self.uz));
                let s = tape.add(a, b);
                let s = tape.add(s, ctx.p(self.bz));
                tape.sigmoid(s)
            };
            let r = {
                let a = tape.matmul(x, ctx.p(self.wr));
                let b = tape.matmul(h, ctx.p(self.ur));
                let s = tape.add(a, b);
                let s = tape.add(s, ctx.p(self.br));
                tape.sigmoid(s)
            };
            let hc = {
                let a = tape.matmul(x, ctx.p(self.wh));
                let rh = tape.mul(r, h);
                let b = tape.matmul(rh, ctx.p(self.uh));
                let s = tape.add(a, b);
                let s = tape.add(s, ctx.p(self.bh));
                tape.tanh(s)
            };
            // h ← (1 − z) ⊙ h + z ⊙ hc  ≡  h + z ⊙ (hc − h)
            let diff = tape.sub(hc, h);
            let mut step = tape.mul(z, diff);
            if prefixes.iter().any(|p| t >= p.len()) {
                let mut mask = vec![0.0f32; bsz * hd];
                for (b, p) in prefixes.iter().enumerate() {
                    if t < p.len() {
                        mask[b * hd..(b + 1) * hd].fill(1.0);
                    }
                }
                let mask = tape.constant(Tensor::new([bsz, hd], mask));
                step = tape.mul(step, mask);
            }
            h = tape.add(h, step);
        }
        h
    }
}

impl SequentialRecommender for Gru4Rec {
    fn name(&self) -> &str {
        "gru4rec"
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

impl NeuralSeqModel for Gru4Rec {
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
        for p in prefixes {
            assert!(!p.is_empty(), "empty prefix");
        }
        let tape = ctx.tape;
        let h = self.final_hidden_batch(ctx, prefixes); // [B, hidden]
        let o = tape.matmul(h, ctx.p(self.wo));
        let o = tape.dropout(o, Rows::All, self.cfg.dropout, ctx.train, rng);
        let emb_t = tape.transpose(ctx.p(self.emb));
        tape.matmul(o, emb_t) // [B, num_items]
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

    #[test]
    fn logits_have_item_dimension() {
        let m = Gru4Rec::new(20, Gru4RecConfig::default(), 1);
        let scores = m.scores(&prefix(&[1, 2, 3]));
        assert_eq!(scores.len(), 20);
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn scores_depend_on_history_order() {
        let m = Gru4Rec::new(20, Gru4RecConfig::default(), 1);
        let a = m.scores(&prefix(&[1, 2, 3]));
        let b = m.scores(&prefix(&[3, 2, 1]));
        assert_ne!(a, b, "a recurrent model must be order-sensitive");
    }

    #[test]
    fn batched_scores_match_single_scores() {
        let m = Gru4Rec::new(
            20,
            Gru4RecConfig {
                dropout: 0.0,
                ..Default::default()
            },
            1,
        );
        let prefixes: Vec<Vec<ItemId>> = vec![prefix(&[1, 2, 3, 4]), prefix(&[5]), prefix(&[6, 7])];
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
        let m = Gru4Rec::new(
            10,
            Gru4RecConfig {
                dropout: 0.0,
                ..Default::default()
            },
            2,
        );
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, m.store(), true);
        let mut rng = StdRng::seed_from_u64(0);
        let logits = m.logits(&ctx, &prefix(&[1, 2]), &mut rng);
        let loss = tape.cross_entropy(logits, &[3]);
        let mut grads = tape.backward(loss);
        let updates = ctx.grads(&mut grads);
        assert_eq!(
            updates.len(),
            m.store().len(),
            "every parameter should receive a gradient"
        );
        assert!(updates.iter().all(|(_, g)| g.is_finite()));
    }
}
