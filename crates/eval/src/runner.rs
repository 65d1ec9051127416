//! The candidate-set evaluation protocol (paper §V-A3): for each test
//! example, rank `m = 15` candidates (the ground truth + 14 random items) and
//! record the position of the ground truth.

use crate::metrics::RankingReport;
use delrec_data::{CandidateSampler, Dataset, ItemId, Split};

/// One history + candidate set awaiting scores (a batched-scoring request).
pub type ScoreRequest<'a> = (&'a [ItemId], &'a [ItemId]);

/// One history + requested depth awaiting a full-catalog top-k (a batched
/// top-k request).
pub type TopKQuery<'a> = (&'a [ItemId], usize);

/// Anything that can order a candidate set given a user history.
pub trait Ranker {
    /// Display name.
    fn name(&self) -> &str;

    /// One score per candidate (higher = better).
    fn score_candidates(&self, prefix: &[ItemId], candidates: &[ItemId]) -> Vec<f32>;

    /// Score several `(history, candidates)` requests at once; row `i` holds
    /// the scores for `requests[i]`. The default loops
    /// [`Self::score_candidates`], so every ranker keeps identical semantics;
    /// model-backed rankers override it to share one batched forward pass.
    /// [`evaluate`] drives this method in chunks.
    fn score_candidates_batch(&self, requests: &[ScoreRequest<'_>]) -> Vec<Vec<f32>> {
        requests
            .iter()
            .map(|&(prefix, candidates)| self.score_candidates(prefix, candidates))
            .collect()
    }

    /// A version handle for this model's parameters: any parameter change
    /// must be visible as a different value, and two handles with equal
    /// values must score bitwise-identically. Model-backed rankers report
    /// their parameter-store version (the same key their weight-pack /
    /// prefix-cache / retriever-index invalidation uses); the serving
    /// runtime's hot-swap registry records it per published generation so a
    /// repack (same version, new caches) is distinguishable from a refit.
    /// Stateless test doubles may keep the default `0`.
    fn model_version(&self) -> u64 {
        0
    }

    /// Size of the item catalog this model scores over: every [`ItemId`] it
    /// accepts indexes below it. The serving runtime validates requests
    /// against it at admission, so an out-of-catalog id fails its own
    /// request instead of panicking inside a batch. `None` (the default):
    /// the ranker does not say, and requests go unchecked.
    fn num_items(&self) -> Option<usize> {
        None
    }
}

/// Anything that can produce a best-first top-k over the *whole catalog*
/// from a user history alone — the full retrieve-then-re-rank pipeline, as
/// opposed to a [`Ranker`], which is handed its candidate set.
///
/// Contract: the returned list is best-first, at most `k` long (shorter only
/// when the catalog is smaller), deduplicated, and deterministic — equal
/// scores order by ascending [`ItemId`], and the list is bitwise identical
/// at every thread count.
pub trait TopKRecommender {
    /// Serve several `(history, k)` requests at once; row `i` answers
    /// `requests[i]` and must not depend on which other requests share the
    /// call, so a pipeline can share one catalog scan and one re-rank batch
    /// across the whole request set.
    fn recommend_top_k_batch(&self, requests: &[TopKQuery<'_>]) -> Vec<Vec<(ItemId, f32)>>;

    /// The `k` best items for this history, best first, with their scores:
    /// the batch of one.
    fn recommend_top_k(&self, prefix: &[ItemId], k: usize) -> Vec<(ItemId, f32)> {
        self.recommend_top_k_batch(&[(prefix, k)])
            .pop()
            .expect("one answer row per request")
    }
}

/// Adapter turning a closure into a [`Ranker`] — used to wrap full-catalog
/// scorers (conventional models) and test doubles.
pub struct FnRanker<F> {
    name: String,
    f: F,
}

impl<F: Fn(&[ItemId], &[ItemId]) -> Vec<f32>> FnRanker<F> {
    /// Wrap a scoring closure.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnRanker {
            name: name.into(),
            f,
        }
    }
}

impl<F: Fn(&[ItemId], &[ItemId]) -> Vec<f32>> Ranker for FnRanker<F> {
    fn name(&self) -> &str {
        &self.name
    }

    fn score_candidates(&self, prefix: &[ItemId], candidates: &[ItemId]) -> Vec<f32> {
        (self.f)(prefix, candidates)
    }
}

/// Evaluation parameters.
#[derive(Clone, Debug)]
pub struct EvalConfig {
    /// Candidate-set size `m` (paper: 15).
    pub m: usize,
    /// Seed for candidate sampling — shared across models so every model
    /// ranks the *same* candidate sets (required for paired t-tests).
    pub candidate_seed: u64,
    /// Cap on test examples (None = all).
    pub max_examples: Option<usize>,
    /// Examples handed to [`Ranker::score_candidates_batch`] per call. Purely
    /// a throughput knob: metrics are identical for every value because the
    /// protocol scores each example's candidate set independently.
    pub batch_size: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            m: 15,
            candidate_seed: 20_24,
            max_examples: None,
            batch_size: 16,
        }
    }
}

/// Run the protocol over a split and return per-example ranks.
pub fn evaluate<R: Ranker + ?Sized>(
    ranker: &R,
    dataset: &Dataset,
    split: Split,
    cfg: &EvalConfig,
) -> RankingReport {
    evaluate_examples(ranker, dataset.examples(split), dataset.num_items(), cfg)
}

/// Evaluate on an explicit example list (used by the cold-start study, which
/// slices the test split by prefix length). Examples are scored through
/// [`Ranker::score_candidates_batch`] in chunks of `cfg.batch_size`; the
/// rank computation is per-example, so the report is independent of how the
/// chunking falls.
pub fn evaluate_examples<R: Ranker + ?Sized>(
    ranker: &R,
    examples: &[delrec_data::Example],
    num_items: usize,
    cfg: &EvalConfig,
) -> RankingReport {
    let _span = delrec_obs::span!("eval.evaluate");
    assert!(cfg.batch_size > 0, "batch_size must be positive");
    let sampler = CandidateSampler::new(num_items, cfg.m);
    let take = cfg
        .max_examples
        .unwrap_or(examples.len())
        .min(examples.len());
    let mut ranks = Vec::with_capacity(take);
    for range in delrec_par::chunk_ranges(take, cfg.batch_size) {
        ranks.extend(rank_chunk(
            ranker,
            &examples[range.clone()],
            &sampler,
            cfg,
            range.start,
        ));
    }
    RankingReport::new(ranks, cfg.m)
}

/// Score one chunk of examples and return each example's rank, in chunk
/// order. `base` is the chunk's absolute offset in the evaluation order —
/// candidate sampling keys on it, so a chunk's candidate sets are
/// independent of how the chunking falls.
fn rank_chunk<R: Ranker + ?Sized>(
    ranker: &R,
    chunk: &[delrec_data::Example],
    sampler: &CandidateSampler,
    cfg: &EvalConfig,
    base: usize,
) -> Vec<usize> {
    let _chunk_span = delrec_obs::span!("eval.chunk");
    let candidate_sets: Vec<Vec<ItemId>> = chunk
        .iter()
        .enumerate()
        .map(|(k, ex)| sampler.candidates(ex.target, cfg.candidate_seed, base + k))
        .collect();
    let requests: Vec<ScoreRequest<'_>> = chunk
        .iter()
        .zip(&candidate_sets)
        .map(|(ex, cands)| (ex.prefix.as_slice(), cands.as_slice()))
        .collect();
    let score_rows = ranker.score_candidates_batch(&requests);
    assert_eq!(
        score_rows.len(),
        chunk.len(),
        "ranker returned wrong batch size"
    );
    chunk
        .iter()
        .zip(&candidate_sets)
        .zip(&score_rows)
        .map(|((ex, candidates), scores)| {
            assert_eq!(
                scores.len(),
                candidates.len(),
                "ranker returned wrong arity"
            );
            let pos = candidates
                .iter()
                .position(|&c| c == ex.target)
                .expect("sampler always includes the positive");
            // Rank = number of candidates scored strictly higher (ties favour
            // earlier candidates to stay deterministic).
            scores
                .iter()
                .enumerate()
                .filter(|&(j, &s)| s > scores[pos] || (s == scores[pos] && j < pos))
                .count()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use delrec_data::synthetic::{DatasetProfile, SyntheticConfig};

    fn tiny() -> Dataset {
        SyntheticConfig::profile(DatasetProfile::MovieLens100K)
            .scaled(0.08)
            .generate(4)
    }

    #[test]
    fn oracle_ranker_gets_perfect_scores() {
        let ds = tiny();
        // The oracle knows the positive: score it 1, everything else 0. It
        // must achieve HR@1 = 1 because the eval never leaks the positive —
        // emulate via a ranker that scores candidates by whether they equal
        // the example target. We reconstruct targets by index order.
        let examples = ds.examples(Split::Test).to_vec();
        let idx = std::cell::Cell::new(0usize);
        let oracle = FnRanker::new("oracle", move |_prefix, cands: &[ItemId]| {
            let target = examples[idx.get()].target;
            idx.set(idx.get() + 1);
            cands
                .iter()
                .map(|&c| if c == target { 1.0 } else { 0.0 })
                .collect()
        });
        let report = evaluate(&oracle, &ds, Split::Test, &EvalConfig::default());
        assert_eq!(report.hr(1), 1.0);
    }

    #[test]
    fn random_ranker_is_near_chance() {
        let ds = tiny();
        // Constant scores → rank decided by tie-break (candidate order),
        // and the positive's slot is uniform by the sampler's shuffle, so
        // HR@1 ≈ 1/15.
        let constant = FnRanker::new("const", |_p, c: &[ItemId]| vec![0.0; c.len()]);
        let report = evaluate(&constant, &ds, Split::Test, &EvalConfig::default());
        assert!(
            report.hr(1) < 0.2,
            "HR@1 {} should be near 1/15",
            report.hr(1)
        );
        assert!(
            (report.hr(5) - 5.0 / 15.0).abs() < 0.15,
            "HR@5 {} should be near 1/3",
            report.hr(5)
        );
        assert_eq!(report.hr(15), 1.0, "positive always within all 15");
    }

    #[test]
    fn same_seed_gives_identical_candidate_sets_across_models() {
        let ds = tiny();
        // Two rankers record the candidate sets they see.
        let collect = |tag: &str| {
            let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
            let seen2 = seen.clone();
            let r = FnRanker::new(tag, move |_p, c: &[ItemId]| {
                seen2.borrow_mut().push(c.to_vec());
                vec![0.0; c.len()]
            });
            evaluate(&r, &ds, Split::Test, &EvalConfig::default());
            let observed = seen.borrow().clone();
            observed
        };
        assert_eq!(collect("a"), collect("b"));
    }

    #[test]
    fn batched_eval_metrics_match_per_example_eval() {
        let ds = tiny();
        // Deterministic, history-sensitive scorer shared by both rankers.
        fn score(p: &[ItemId], c: &[ItemId]) -> Vec<f32> {
            let h: u32 = p
                .iter()
                .fold(17, |acc, i| acc.wrapping_mul(31).wrapping_add(i.0));
            c.iter()
                .map(|&i| (i.0.wrapping_mul(2_654_435_761).wrapping_add(h) % 1000) as f32)
                .collect()
        }
        // A ranker with a real `score_candidates_batch` override, recording
        // the largest batch it receives.
        struct Batched(std::cell::Cell<usize>);
        impl Ranker for Batched {
            fn name(&self) -> &str {
                "batched"
            }
            fn score_candidates(&self, p: &[ItemId], c: &[ItemId]) -> Vec<f32> {
                score(p, c)
            }
            fn score_candidates_batch(&self, reqs: &[ScoreRequest<'_>]) -> Vec<Vec<f32>> {
                self.0.set(self.0.get().max(reqs.len()));
                reqs.iter().map(|&(p, c)| score(p, c)).collect()
            }
        }
        let single = FnRanker::new("single", score);
        let batched = Batched(std::cell::Cell::new(0));
        let per_example = EvalConfig {
            batch_size: 1,
            ..Default::default()
        };
        let chunked = EvalConfig {
            batch_size: 7,
            ..Default::default()
        };
        let a = evaluate(&single, &ds, Split::Test, &per_example);
        let b = evaluate(&batched, &ds, Split::Test, &chunked);
        assert!(batched.0.get() > 1, "batched path never exercised");
        assert_eq!(a.len(), b.len());
        for k in [1, 5, 10, 15] {
            assert_eq!(a.hr(k), b.hr(k), "HR@{k} differs across batch sizes");
            assert_eq!(a.ndcg(k), b.ndcg(k), "NDCG@{k} differs across batch sizes");
        }
        assert_eq!(a.mrr(), b.mrr());
    }

    #[test]
    fn max_examples_caps_work() {
        let ds = tiny();
        let constant = FnRanker::new("const", |_p, c: &[ItemId]| vec![0.0; c.len()]);
        let cfg = EvalConfig {
            max_examples: Some(5),
            ..Default::default()
        };
        assert_eq!(evaluate(&constant, &ds, Split::Test, &cfg).len(), 5);
    }
}
