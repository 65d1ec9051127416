//! Caser (Tang & Wang, WSDM 2018): the interaction sequence as an `L × d`
//! "image", convolved horizontally (per-window patterns) and vertically
//! (per-dimension aggregation), max-pooled, and projected to item scores.

use crate::model::{NeuralSeqModel, SequentialRecommender};
use delrec_data::ItemId;
use delrec_tensor::{init, Ctx, ParamId, ParamStore, Rows, Tensor, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Caser hyperparameters.
#[derive(Clone, Debug)]
pub struct CaserConfig {
    /// Item-embedding dimension (paper §V-A3 uses 100; scaled here).
    pub embed_dim: usize,
    /// Input window: the last `seq_len` items (left-padded with zeros).
    pub seq_len: usize,
    /// Horizontal filter heights.
    pub heights: Vec<usize>,
    /// Horizontal filters per height (paper: 16 total).
    pub filters_per_height: usize,
    /// Vertical filters.
    pub vertical_filters: usize,
    /// Dropout before the output layer (paper: 0.4).
    pub dropout: f32,
}

impl Default for CaserConfig {
    fn default() -> Self {
        CaserConfig {
            embed_dim: 32,
            seq_len: 9,
            heights: vec![2, 3],
            filters_per_height: 8,
            vertical_filters: 2,
            dropout: 0.4,
        }
    }
}

/// The Caser model.
pub struct Caser {
    store: ParamStore,
    cfg: CaserConfig,
    num_items: usize,
    emb: ParamId,
    /// One `[h·d, n_f]` weight and `[n_f]` bias per filter height.
    h_filters: Vec<(ParamId, ParamId)>,
    /// Vertical filter bank `[L, n_v]`.
    v_filter: ParamId,
    /// Fully-connected layer `[F_total, d]` + bias, tying logits to `emb`.
    w1: ParamId,
    b1: ParamId,
}

impl Caser {
    /// Initialize with seeded weights.
    pub fn new(num_items: usize, cfg: CaserConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = cfg.embed_dim;
        let mut store = ParamStore::new();
        let emb = store.add("caser.emb", init::normal([num_items, d], 0.05, &mut rng));
        let mut h_filters = Vec::new();
        for &h in &cfg.heights {
            let w = store.add(
                format!("caser.hconv{h}.w"),
                init::xavier(h * d, cfg.filters_per_height, &mut rng),
            );
            let b = store.add(
                format!("caser.hconv{h}.b"),
                Tensor::zeros([cfg.filters_per_height]),
            );
            h_filters.push((w, b));
        }
        let v_filter = store.add(
            "caser.vconv.w",
            init::xavier(cfg.seq_len, cfg.vertical_filters, &mut rng),
        );
        let f_total = cfg.heights.len() * cfg.filters_per_height + d * cfg.vertical_filters;
        let w1 = store.add("caser.fc.w", init::xavier(f_total, d, &mut rng));
        let b1 = store.add("caser.fc.b", Tensor::zeros([d]));
        Caser {
            store,
            cfg,
            num_items,
            emb,
            h_filters,
            v_filter,
            w1,
            b1,
        }
    }

    /// The `[L, d]` input matrix: last `L` items, left-padded with zeros.
    fn sequence_matrix(&self, ctx: &Ctx<'_>, prefix: &[ItemId]) -> Var {
        let tape = ctx.tape;
        let l = self.cfg.seq_len;
        let take = prefix.len().min(l);
        let recent: Vec<usize> = prefix[prefix.len() - take..]
            .iter()
            .map(|i| i.index())
            .collect();
        let emb_rows = tape.gather_rows(ctx.p(self.emb), &recent);
        if take == l {
            emb_rows
        } else {
            let pad = tape.constant(Tensor::zeros([l - take, self.cfg.embed_dim]));
            tape.concat_rows(&[pad, emb_rows])
        }
    }
}

impl SequentialRecommender for Caser {
    fn name(&self) -> &str {
        "caser"
    }

    fn scores(&self, prefix: &[ItemId]) -> Vec<f32> {
        self.scores_via_forward(prefix)
    }

    fn item_embeddings(&self) -> Option<Vec<Vec<f32>>> {
        let emb = self.store.get(self.emb);
        Some((0..self.num_items).map(|i| emb.row(i).to_vec()).collect())
    }
}

impl NeuralSeqModel for Caser {
    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn logits(&self, ctx: &Ctx<'_>, prefix: &[ItemId], rng: &mut StdRng) -> Var {
        assert!(!prefix.is_empty(), "empty prefix");
        let tape = ctx.tape;
        let (l, d) = (self.cfg.seq_len, self.cfg.embed_dim);
        let seq = self.sequence_matrix(ctx, prefix);

        // Feature columns collected as [f_i, 1] blocks, concatenated by rows.
        let mut columns: Vec<Var> = Vec::new();

        // Horizontal convolutions: unfold windows of height h, one matmul per
        // filter bank, ReLU, max-over-time pooling.
        for (&h, &(w, b)) in self.cfg.heights.iter().zip(&self.h_filters) {
            let n_windows = l - h + 1;
            let mut unfold_idx = Vec::with_capacity(n_windows * h);
            for start in 0..n_windows {
                unfold_idx.extend(start..start + h);
            }
            let windows = tape.gather_rows(seq, &unfold_idx);
            let windows = tape.reshape(windows, [n_windows, h * d]);
            let conv = tape.matmul(windows, ctx.p(w));
            let conv = tape.add(conv, ctx.p(b));
            let conv = tape.relu(conv);
            let pooled = tape.max_rows(conv); // [n_f]
            columns.push(tape.reshape(pooled, [self.cfg.filters_per_height, 1]));
        }

        // Vertical convolution: weighted sums over time per dimension.
        let seq_t = tape.transpose(seq); // [d, L]
        let v = tape.matmul(seq_t, ctx.p(self.v_filter)); // [d, n_v]
        columns.push(tape.reshape(v, [d * self.cfg.vertical_filters, 1]));

        let z = tape.concat_rows(&columns); // [F, 1]
        let z = tape.transpose(z); // [1, F]
        let o = tape.matmul(z, ctx.p(self.w1));
        let o = tape.add(o, ctx.p(self.b1));
        let o = tape.relu(o);
        let o = tape.dropout(o, Rows::All, self.cfg.dropout, ctx.train, rng);
        let emb_t = tape.transpose(ctx.p(self.emb));
        let logits = tape.matmul(o, emb_t);
        tape.reshape(logits, [self.num_items])
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
    fn scores_cover_catalog_and_are_finite() {
        let m = Caser::new(25, CaserConfig::default(), 3);
        let s = m.scores(&prefix(&[0, 1, 2, 3]));
        assert_eq!(s.len(), 25);
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn short_prefixes_are_left_padded() {
        let m = Caser::new(25, CaserConfig::default(), 3);
        // One item still produces a valid forward pass.
        let s = m.scores(&prefix(&[7]));
        assert_eq!(s.len(), 25);
    }

    #[test]
    fn long_prefixes_use_only_last_l_items() {
        let m = Caser::new(25, CaserConfig::default(), 3);
        let long: Vec<u32> = (0..15).map(|i| i % 20).collect();
        let tail: Vec<u32> = long[15 - 9..].to_vec();
        assert_eq!(m.scores(&prefix(&long)), m.scores(&prefix(&tail)));
    }

    #[test]
    fn gradients_flow_to_all_parameters() {
        let m = Caser::new(
            12,
            CaserConfig {
                dropout: 0.0,
                ..Default::default()
            },
            5,
        );
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, m.store(), true);
        let mut rng = StdRng::seed_from_u64(0);
        let logits = m.logits(&ctx, &prefix(&[1, 2, 3, 4, 5]), &mut rng);
        let loss = tape.cross_entropy(logits, &[6]);
        let mut grads = tape.backward(loss);
        let updates = ctx.grads(&mut grads);
        // ReLU/max-pool can zero a path, but every parameter must at least be
        // reachable; with random init all receive gradients here.
        assert_eq!(updates.len(), m.store().len());
    }
}
