//! `recommend(user_history) -> top-k` with **no candidate list**: the
//! full-catalog retrieve-then-re-rank pipeline over a fitted [`DelRec`].
//!
//! Stage one retrieves `retrieve_n` candidates by scanning every item with a
//! [`Retriever`] built from the LM's own item embeddings (mean title-token
//! embeddings, the MiniLM stand-in for "LLM item embeddings"); stage two
//! re-ranks the survivors with the fitted DELRec prompt scorer in bounded
//! chunks (prompt context caps how many titles fit per forward). Both stages
//! are bitwise thread-count deterministic, so the composition is too.
//!
//! The retriever lives in a [`VersionedSlot`] — the LM weight pack's
//! discipline: rebuilt from re-exported embeddings when the parameter-store
//! version moves. `retrieval.index.{build,hit}` counters and the
//! `retrieval.index.bytes` gauge make the slot observable.

use crate::delrec::DelRec;
use delrec_data::ItemId;
use delrec_eval::{Ranker, ScoreRequest, TopKQuery, TopKRecommender};
use delrec_lm::MiniLm;
use delrec_retrieval::{sort_ranked, IndexFormat, Retriever};
use delrec_tensor::VersionedSlot;
use std::sync::Arc;

/// Pipeline knobs for [`Recommender`].
#[derive(Clone, Debug)]
pub struct RecommendConfig {
    /// Candidates the retrieval stage surfaces for re-ranking. The recall
    /// ceiling of the whole pipeline: a target the scan leaves below this
    /// cut can never be recommended.
    pub retrieve_n: usize,
    /// Candidates per re-ranking prompt (the paper's protocol uses 15-way
    /// candidate sets; chunks reuse that shape so the scorer stays in
    /// distribution).
    pub rerank_chunk: usize,
    /// Storage format of the item index, fixed at construction: f32 panels
    /// by default, or int8 codes — a 3.6x smaller index at f32-parity scan
    /// speed, with scores that differ in low bits.
    pub index_format: IndexFormat,
}

impl Default for RecommendConfig {
    fn default() -> Self {
        RecommendConfig {
            retrieve_n: 100,
            rerank_chunk: 15,
            index_format: IndexFormat::F32,
        }
    }
}

/// The full-pipeline recommender: a fitted [`DelRec`] plus the cached
/// retrieval stage built from its item embeddings.
pub struct Recommender {
    model: DelRec,
    cfg: RecommendConfig,
    cache: VersionedSlot<Retriever>,
}

/// The pipeline must be shareable across serving threads like [`DelRec`]
/// itself (the retriever is immutable once built).
#[allow(dead_code)]
fn _assert_recommender_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Recommender>();
}

impl Recommender {
    /// Wrap a fitted model with the default pipeline configuration.
    pub fn new(model: DelRec) -> Self {
        Self::with_config(model, RecommendConfig::default())
    }

    /// Wrap a fitted model with explicit knobs.
    pub fn with_config(model: DelRec, cfg: RecommendConfig) -> Self {
        assert!(cfg.retrieve_n > 0, "retrieve_n must be positive");
        assert!(cfg.rerank_chunk > 0, "rerank_chunk must be positive");
        Recommender {
            model,
            cfg,
            cache: VersionedSlot::default(),
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &DelRec {
        &self.model
    }

    /// Mutable access to the wrapped model (parameter surgery, continued
    /// training). The retriever cache needs no explicit reset: it re-checks
    /// the store version on every [`recommend`](Self::recommend).
    pub fn model_mut(&mut self) -> &mut DelRec {
        &mut self.model
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &RecommendConfig {
        &self.cfg
    }

    /// Export the `[n_items, d_model]` item-embedding matrix from the LM:
    /// row `j` is the mean token embedding of item `j`'s title — computed
    /// once per parameter-store version, then packed into the index.
    ///
    /// Each lane fills a disjoint row range; a row is an independent title
    /// forward, so lane count changes scheduling only and the exported
    /// matrix is bitwise identical to a serial per-item loop.
    fn export_embeddings(lm: &MiniLm, items: &crate::prompt::ItemTokens) -> (Vec<f32>, usize) {
        let _span = delrec_obs::span!("retrieval.export");
        let dim = lm.cfg.d_model;
        let n_items = items.len();
        let mut emb = vec![0.0f32; n_items * dim];
        let pool = delrec_par::current();
        let item_ranges = delrec_par::partition(n_items, pool.lanes());
        let row_ranges: Vec<_> = item_ranges
            .iter()
            .map(|r| r.start * dim..r.end * dim)
            .collect();
        pool.for_each_range(&mut emb, &row_ranges, |i, rows| {
            for (row, j) in rows.chunks_exact_mut(dim).zip(item_ranges[i].clone()) {
                let title = items.title(ItemId(j as u32));
                // Untokenizable title: the zero row scores 0 against every
                // query and sorts purely by id — never recommended, never a
                // panic.
                if !title.is_empty() {
                    row.copy_from_slice(&lm.title_embedding(title));
                }
            }
        });
        (emb, dim)
    }

    /// The current retriever: the slot's while the parameter-store version
    /// stands, rebuilt from freshly exported embeddings once it moves.
    fn retriever(&self) -> Arc<Retriever> {
        let version = self.model.lm().store().version();
        let (retriever, hit) = self.cache.get_or_build(version, || {
            let (emb, dim) = Self::export_embeddings(self.model.lm(), self.model.items());
            Retriever::build(emb, dim, version, self.cfg.index_format)
        });
        if hit {
            delrec_obs::counter!("retrieval.index.hit").incr();
        }
        retriever
    }

    /// Retrieve-only entry (no re-ranking): the scan's best-first top-`n`.
    /// This is the stage the recall@N evaluation measures.
    pub fn retrieve(&self, history: &[ItemId], n: usize) -> Vec<(ItemId, f32)> {
        self.retriever().retrieve(history, n)
    }

    /// The full pipeline: retrieve `max(retrieve_n, k)` candidates from the
    /// whole catalog, re-rank them with the fitted DELRec, return the `k`
    /// best (score descending, ties toward the smaller [`ItemId`]).
    ///
    /// The one-row call of the batched pipeline below.
    pub fn recommend(&self, history: &[ItemId], k: usize) -> Vec<(ItemId, f32)> {
        self.recommend_batch_impl(&[(history, k)])
            .pop()
            .expect("one answer row per request")
    }

    /// Serve a whole batch of histories through one pipeline pass: one
    /// retriever pin, one `[B, d] × [d, n_items]` catalog scan, and one
    /// re-rank batch covering every request's candidate chunks. Row `i` is
    /// bitwise identical to [`recommend`](Self::recommend)`(histories[i],
    /// k)` at every thread count and batch size.
    pub fn recommend_batch(&self, histories: &[&[ItemId]], k: usize) -> Vec<Vec<(ItemId, f32)>> {
        let requests: Vec<TopKQuery<'_>> = histories.iter().map(|&h| (h, k)).collect();
        self.recommend_batch_impl(&requests)
    }

    /// The batched pipeline behind [`recommend_batch`](Self::recommend_batch)
    /// and the [`TopKRecommender::recommend_top_k_batch`] override, with a
    /// per-request `k`.
    ///
    /// Row `i` never depends on which other requests share the batch, stage
    /// by stage: the batched scan's row `i` is the m=1 scan of history `i`
    /// (fixed accumulation order per output element), per-row top-k is a pure
    /// function of that row, and the flattened re-rank scores each
    /// `(history, chunk)` request as its own one-row call would
    /// (`score_candidates_batch` batch-row independence). `B` rows ≡ `B`
    /// one-row calls is pinned by `tests/recommend_batch.rs`.
    fn recommend_batch_impl(&self, requests: &[TopKQuery<'_>]) -> Vec<Vec<(ItemId, f32)>> {
        for &(_, k) in requests {
            assert!(k > 0, "k must be positive");
        }
        if requests.is_empty() {
            return Vec::new();
        }
        let _span = delrec_obs::span!("recommend.batch");
        let retriever = self.retriever();
        let histories: Vec<&[ItemId]> = requests.iter().map(|&(h, _)| h).collect();
        let ns: Vec<usize> = requests
            .iter()
            .map(|&(_, k)| self.cfg.retrieve_n.max(k))
            .collect();
        let retrieved = retriever.retrieve_batch_each(&histories, &ns);
        let id_lists: Vec<Vec<ItemId>> = retrieved
            .iter()
            .map(|rows| rows.iter().map(|&(id, _)| id).collect())
            .collect();
        // One re-rank batch for the whole request set: every request's
        // rerank_chunk-sized candidate slices, flattened in request order.
        let chunk = self.cfg.rerank_chunk;
        let mut flat: Vec<ScoreRequest<'_>> = Vec::new();
        for (ids, &h) in id_lists.iter().zip(&histories) {
            for group in ids.chunks(chunk) {
                flat.push((h, group));
            }
        }
        let rerank = delrec_obs::span!("rerank");
        let scored = self.model.score_candidates_batch(&flat);
        drop(rerank);
        let mut out = Vec::with_capacity(requests.len());
        let mut row = 0;
        for (ids, &(_, k)) in id_lists.iter().zip(requests) {
            let n_chunks = ids.len().div_ceil(chunk);
            let mut scores = Vec::with_capacity(ids.len());
            for group in &scored[row..row + n_chunks] {
                scores.extend_from_slice(group);
            }
            row += n_chunks;
            let mut ranked: Vec<(ItemId, f32)> = ids.iter().copied().zip(scores).collect();
            sort_ranked(&mut ranked);
            ranked.truncate(k);
            out.push(ranked);
        }
        out
    }
}

impl TopKRecommender for Recommender {
    fn recommend_top_k(&self, prefix: &[ItemId], k: usize) -> Vec<(ItemId, f32)> {
        self.recommend(prefix, k)
    }

    fn recommend_top_k_batch(&self, requests: &[TopKQuery<'_>]) -> Vec<Vec<(ItemId, f32)>> {
        self.recommend_batch_impl(requests)
    }
}

/// The pipeline still serves the classic candidate-scoring protocol by
/// delegating to the wrapped model — one `Server<Recommender>` can answer
/// both request shapes.
impl Ranker for Recommender {
    fn name(&self) -> &str {
        "delrec+retrieval"
    }

    fn score_candidates(&self, prefix: &[ItemId], candidates: &[ItemId]) -> Vec<f32> {
        self.model.score_candidates(prefix, candidates)
    }

    fn score_candidates_batch(&self, requests: &[ScoreRequest<'_>]) -> Vec<Vec<f32>> {
        self.model.score_candidates_batch(requests)
    }

    fn model_version(&self) -> u64 {
        self.model.model_version()
    }
}
