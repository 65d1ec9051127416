//! The model the servers are started over: the product's [`Recommender`]
//! behind a wrapper that opens a benchmark span around every call the
//! server makes into it. The server runs those calls on its scheduler
//! thread, out of the generator's sight; the wrapper is how a traced run
//! sees when a batch's model call began and ended without adding a span
//! inside the program. With tracing off the wrapper costs one branch.

use crate::trace::Tracer;
use delrec_core::Recommender;
use delrec_data::ItemId;
use delrec_eval::{Ranker, ScoreRequest, TopKQuery, TopKRecommender};
use std::sync::Arc;

/// [`Recommender`] with spans around its serving entry points.
pub struct Traced {
    /// The product model, for direct (untraced) reference calls.
    pub inner: Recommender,
    tracer: Arc<Tracer>,
}

impl Traced {
    /// Wrap `inner`, recording into `tracer`.
    pub fn new(inner: Recommender, tracer: Arc<Tracer>) -> Self {
        Traced { inner, tracer }
    }
}

impl Ranker for Traced {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn score_candidates(&self, prefix: &[ItemId], candidates: &[ItemId]) -> Vec<f32> {
        let span = self
            .tracer
            .begin("core.score_candidates", Tracer::ROOT, None);
        let out = self.inner.score_candidates(prefix, candidates);
        self.tracer.end(span);
        out
    }

    fn score_candidates_batch(&self, requests: &[ScoreRequest<'_>]) -> Vec<Vec<f32>> {
        let span = self
            .tracer
            .begin("core.score_candidates_batch", Tracer::ROOT, None);
        let out = self.inner.score_candidates_batch(requests);
        self.tracer.end(span);
        out
    }

    fn model_version(&self) -> u64 {
        self.inner.model_version()
    }
}

impl TopKRecommender for Traced {
    fn recommend_top_k(&self, prefix: &[ItemId], k: usize) -> Vec<(ItemId, f32)> {
        let span = self
            .tracer
            .begin("core.recommend_top_k", Tracer::ROOT, None);
        let out = self.inner.recommend_top_k(prefix, k);
        self.tracer.end(span);
        out
    }

    fn recommend_top_k_batch(&self, requests: &[TopKQuery<'_>]) -> Vec<Vec<(ItemId, f32)>> {
        let span = self
            .tracer
            .begin("core.recommend_top_k_batch", Tracer::ROOT, None);
        let out = self.inner.recommend_top_k_batch(requests);
        self.tracer.end(span);
        out
    }
}
