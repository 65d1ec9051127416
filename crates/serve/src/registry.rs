//! Atomic model hot-swap: a registry of the currently-published model that
//! serving reads per batch and operators replace under live traffic.
//!
//! The swap protocol is one pointer exchange: [`ModelRegistry::publish`]
//! builds a new [`PublishedModel`] entry (model handle, optional top-k
//! handler, publish sequence number, the model's own parameter version) and
//! swaps it in under a short mutex. The scoring path loads the entry **once
//! per flushed batch** and holds that `Arc` for the batch's whole lifetime,
//! so:
//!
//! * no request is ever scored by a half-swapped model — a batch either sees
//!   the old entry or the new one, never a mixture;
//! * in-flight batches drain on the version they started with — the old
//!   model stays alive (and its weight-pack / retriever caches stay warm)
//!   until its last batch drops the `Arc`, then frees;
//! * every response reports the publish sequence that scored it
//!   (`model_seq`), so clients and tests can verify bitwise determinism
//!   against exactly the acknowledged version.
//!
//! Publishing a *repacked* model (same parameters, fresh caches — e.g. a
//! save/load round-trip) must not change a single
//! score bit for untouched sessions; publishing a *refitted* model changes
//! scores but never mixes versions within a batch. Both properties are
//! pinned by `tests/hot_swap.rs` and gated by `bench/bin/soak`.
//!
//! Metrics: `serve.<n>.swap.publishes` counter and `serve.<n>.swap.active_seq`
//! gauge via the owning server's [`Metrics`](crate::Metrics); span
//! `serve.swap.publish`.

use delrec_data::ItemId;
use delrec_eval::Ranker;
use std::sync::{Arc, Mutex};

/// The full-catalog recommendation handler a `start_recommender` server
/// derives from its model: a *batch* of `(session history, k)` requests in,
/// one answer row per request out — so a flushed top-k batch reaches the
/// pipeline's batched scan/re-rank path in one call. Stored type-erased so
/// the queue, scheduler, and scoring paths stay monomorphized over plain
/// [`Ranker`]s.
pub(crate) type TopKFn =
    Arc<dyn Fn(&[(&[ItemId], usize)]) -> Vec<Vec<(ItemId, f32)>> + Send + Sync>;

/// One published model generation: everything a batch needs, bundled so a
/// single `Arc` load pins a consistent view.
pub struct PublishedModel<R> {
    /// The model itself.
    pub model: Arc<R>,
    /// Full-catalog handler derived from `model` (servers started with
    /// `start_recommender` only).
    pub(crate) topk: Option<TopKFn>,
    /// Publish sequence: 0 for the model the server started with, +1 per
    /// [`ModelRegistry::publish`]. Strictly monotone, unique per server.
    pub seq: u64,
    /// The model's own declared version ([`Ranker::model_version`]) — for
    /// `DelRec` this is the `ParamStore` version, the same key its weight
    /// packs, prefix caches, and retriever index invalidate on. A repacked
    /// publish keeps this value while `seq` advances.
    pub model_version: u64,
}

/// Registry of the live model. Readers take a short mutex to clone the
/// current `Arc` (once per batch, nanoseconds next to a forward); writers
/// swap the pointer under the same mutex. No reader ever blocks on a model
/// build — `publish` receives the model already constructed.
pub struct ModelRegistry<R> {
    current: Mutex<Arc<PublishedModel<R>>>,
}

impl<R: Ranker> ModelRegistry<R> {
    /// Registry seeded with the server's starting model as generation 0.
    pub(crate) fn new(model: Arc<R>, topk: Option<TopKFn>) -> Self {
        let model_version = model.model_version();
        ModelRegistry {
            current: Mutex::new(Arc::new(PublishedModel {
                model,
                topk,
                seq: 0,
                model_version,
            })),
        }
    }

    /// The current generation. Scoring calls this once per batch and keeps
    /// the returned `Arc` for the batch's lifetime.
    pub fn current(&self) -> Arc<PublishedModel<R>> {
        Arc::clone(&self.current.lock().unwrap())
    }

    /// Publish sequence of the current generation.
    pub fn seq(&self) -> u64 {
        self.current.lock().unwrap().seq
    }

    /// Atomically install `model` as the next generation and return its
    /// publish sequence. Batches already holding the previous generation
    /// drain on it; batches flushed after this call see only the new one.
    pub(crate) fn publish(&self, model: Arc<R>, topk: Option<TopKFn>) -> u64 {
        let _span = delrec_obs::span!("serve.swap.publish");
        let model_version = model.model_version();
        let mut cur = self.current.lock().unwrap();
        let seq = cur.seq + 1;
        *cur = Arc::new(PublishedModel {
            model,
            topk,
            seq,
            model_version,
        });
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delrec_eval::Ranker;

    struct V(u64);
    impl Ranker for V {
        fn name(&self) -> &str {
            "v"
        }
        fn score_candidates(&self, _p: &[ItemId], c: &[ItemId]) -> Vec<f32> {
            vec![self.0 as f32; c.len()]
        }
        fn model_version(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn publish_advances_seq_and_old_generation_survives_until_dropped() {
        let reg = ModelRegistry::new(Arc::new(V(7)), None);
        let gen0 = reg.current();
        assert_eq!((gen0.seq, gen0.model_version), (0, 7));

        let seq = reg.publish(Arc::new(V(9)), None);
        assert_eq!(seq, 1);
        let gen1 = reg.current();
        assert_eq!((gen1.seq, gen1.model_version), (1, 9));

        // The drained-batch view: gen0 still scores as version 7 even though
        // the registry has moved on.
        assert_eq!(gen0.model.score_candidates(&[], &[ItemId(1)]), vec![7.0]);
        assert_eq!(gen1.model.score_candidates(&[], &[ItemId(1)]), vec![9.0]);
    }

    #[test]
    fn repacked_publish_keeps_model_version_while_seq_advances() {
        let reg = ModelRegistry::new(Arc::new(V(3)), None);
        reg.publish(Arc::new(V(3)), None);
        let cur = reg.current();
        assert_eq!((cur.seq, cur.model_version), (1, 3));
    }
}
