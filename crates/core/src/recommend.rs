//! `recommend(user_history) -> top-k` with **no candidate list**: the
//! full-catalog retrieve-then-re-rank pipeline over a fitted [`DelRec`].
//!
//! Stage one retrieves `retrieve_n` candidates by scanning every item with a
//! [`Retriever`] built from the LM's own item embeddings (mean title-token
//! embeddings, the MiniLM stand-in for "LLM item embeddings"). Stage two
//! re-ranks them with one forward per request: the Stage-2 prompt shows the
//! history and the top `m_candidates` retrieved titles — the exact prompt
//! Stage 2 trains on — and the verbalizer scores *every* retrieved title from
//! that prompt's one `[mask]` row (the paper's "ranking scores for all
//! items", §IV-B). Both stages are bitwise thread-count deterministic, so the
//! composition is too.
//!
//! Each request records the retrieval position of its #1 item in the
//! `core.rerank.winner_retrieval_rank` histogram: how far past the top of the
//! retrieved list the re-ranker reaches.
//!
//! The retriever lives in a [`VersionedSlot`] — the LM weight pack's
//! discipline: rebuilt from re-exported embeddings when the parameter-store
//! version moves. `retrieval.index.{build,hit}` counters and the
//! `retrieval.index.bytes` gauge make the slot observable.

use crate::delrec::{DelRec, ItemScoreRequest};
use delrec_data::ItemId;
use delrec_eval::{Ranker, ScoreRequest, TopKQuery, TopKRecommender};
use delrec_lm::MiniLm;
use delrec_retrieval::{sort_ranked, IndexFormat, Retriever};
use delrec_tensor::VersionedSlot;
use std::sync::Arc;

/// Pipeline knobs for [`Recommender`].
#[derive(Clone, Debug)]
pub struct RecommendConfig {
    /// Candidates the retrieval stage surfaces for re-ranking, all scored
    /// from one `[mask]` row (the top `m_candidates` of them are shown in the
    /// prompt). The recall ceiling of the whole pipeline: a target the scan
    /// leaves below this cut can never be recommended.
    pub retrieve_n: usize,
}

impl Default for RecommendConfig {
    fn default() -> Self {
        RecommendConfig { retrieve_n: 100 }
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
            Retriever::build(emb, dim, version, IndexFormat::F32)
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
    /// whole catalog, score them all from one Stage-2 prompt showing the top
    /// `m_candidates`, return the `k` best (score descending, ties toward the
    /// smaller [`ItemId`]).
    ///
    /// The one-row call of the batched pipeline below.
    pub fn recommend(&self, history: &[ItemId], k: usize) -> Vec<(ItemId, f32)> {
        self.recommend_top_k(history, k)
    }

    /// Serve a whole batch of histories through one pipeline pass: one
    /// retriever pin, one `[B, d] × [d, n_items]` catalog scan, and one
    /// re-rank forward over the batch's `B` prompts. Row `i` is
    /// bitwise identical to [`recommend`](Self::recommend)`(histories[i],
    /// k)` at every thread count and batch size.
    pub fn recommend_batch(&self, histories: &[&[ItemId]], k: usize) -> Vec<Vec<(ItemId, f32)>> {
        let requests: Vec<TopKQuery<'_>> = histories.iter().map(|&h| (h, k)).collect();
        self.recommend_top_k_batch(&requests)
    }
}

impl TopKRecommender for Recommender {
    /// The batched pipeline behind [`Recommender::recommend_batch`], with a
    /// per-request `k`.
    ///
    /// Row `i` never depends on which other requests share the batch, stage
    /// by stage: the batched scan's row `i` is the m=1 scan of history `i`
    /// (fixed accumulation order per output element), per-row top-k is a pure
    /// function of that row, and the re-rank scores each request as its own
    /// one-row call would (`score_items_batch` batch-row independence). `B`
    /// rows ≡ `B` one-row calls is pinned by `tests/recommend_batch.rs`.
    fn recommend_top_k_batch(&self, requests: &[TopKQuery<'_>]) -> Vec<Vec<(ItemId, f32)>> {
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
        // One prompt per request, showing the top `m_candidates` retrieved
        // titles and scoring all of them.
        let shown = self.model.config().m_candidates;
        let items: Vec<ItemScoreRequest<'_>> = id_lists
            .iter()
            .zip(&histories)
            .map(|(ids, &h)| (h, &ids[..shown.min(ids.len())], ids.as_slice()))
            .collect();
        let rerank = delrec_obs::span!("rerank");
        let scored = self.model.score_items_batch(&items);
        drop(rerank);
        let winner_rank = delrec_obs::global().histogram("core.rerank.winner_retrieval_rank");
        id_lists
            .iter()
            .zip(scored)
            .zip(requests)
            .map(|((ids, scores), &(_, k))| {
                let mut ranked: Vec<(ItemId, f32)> = ids.iter().copied().zip(scores).collect();
                sort_ranked(&mut ranked);
                if let Some(&(winner, _)) = ranked.first() {
                    let pos = ids.iter().position(|&id| id == winner);
                    winner_rank.record(pos.expect("the winner was retrieved") as u64);
                }
                ranked.truncate(k);
                ranked
            })
            .collect()
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

    fn num_items(&self) -> Option<usize> {
        self.model.num_items()
    }
}
