//! Evaluation of the *retrieval* stage and of the full
//! retrieve-then-re-rank pipeline.
//!
//! Two questions, two reports:
//!
//! * [`evaluate_retrieval`] — does the candidate generator surface the right
//!   items at all? Recall@N of the held-out target, plus coverage of the
//!   oracle candidate sets the classic protocol would have been handed (the
//!   `m`-way sets from [`CandidateSampler`], same seed discipline as
//!   [`evaluate`](crate::evaluate), so the numbers are comparable across
//!   models).
//! * [`evaluate_top_k`] — end-to-end HR@k / NDCG@k of a
//!   [`TopKRecommender`]'s `recommend(history) -> top-k` with *no candidate
//!   list*. Unlike [`RankingReport`](crate::RankingReport), the target may be
//!   absent from the returned list entirely (retrieval missed it); a miss
//!   contributes 0 to every metric instead of panicking.

use crate::runner::TopKRecommender;
use delrec_data::{CandidateSampler, Dataset, ItemId, Split};

/// Configuration for [`evaluate_retrieval`].
#[derive(Clone, Debug)]
pub struct RetrievalEvalConfig {
    /// Candidate-list depths to report recall/coverage at, ascending.
    pub ns: Vec<usize>,
    /// Oracle candidate-set size `m` (paper protocol: 15).
    pub m: usize,
    /// Seed for the oracle candidate sets — use the same value the ranking
    /// eval uses so coverage refers to the *identical* sets.
    pub candidate_seed: u64,
    /// Cap on test examples (None = all).
    pub max_examples: Option<usize>,
}

impl Default for RetrievalEvalConfig {
    fn default() -> Self {
        RetrievalEvalConfig {
            ns: vec![50, 100],
            m: 15,
            candidate_seed: 20_24,
            max_examples: None,
        }
    }
}

/// Per-depth recall and oracle coverage of a retrieval stage.
#[derive(Clone, Debug)]
pub struct RetrievalReport {
    ns: Vec<usize>,
    recall: Vec<f64>,
    coverage: Vec<f64>,
    examples: usize,
}

impl RetrievalReport {
    /// Number of evaluated examples.
    pub fn len(&self) -> usize {
        self.examples
    }

    /// Whether the report is empty.
    pub fn is_empty(&self) -> bool {
        self.examples == 0
    }

    /// The depths this report covers.
    pub fn ns(&self) -> &[usize] {
        &self.ns
    }

    /// Recall@n: fraction of examples whose held-out target appears in the
    /// top-`n` retrieved. Panics when `n` was not in the config's `ns`.
    pub fn recall_at(&self, n: usize) -> f64 {
        self.recall[self.pos(n)]
    }

    /// Oracle coverage@n: mean fraction of the `m`-way oracle candidate set
    /// present in the top-`n` retrieved — how much of the classic protocol's
    /// search space the generator reproduces without being told it.
    pub fn coverage_at(&self, n: usize) -> f64 {
        self.coverage[self.pos(n)]
    }

    fn pos(&self, n: usize) -> usize {
        self.ns
            .iter()
            .position(|&x| x == n)
            .unwrap_or_else(|| panic!("depth {n} not evaluated (have {:?})", self.ns))
    }
}

/// Measure a retrieval stage (`retrieve(history, n) -> best-first items`)
/// against a split's held-out targets and oracle candidate sets.
pub fn evaluate_retrieval<F>(
    retrieve: F,
    dataset: &Dataset,
    split: Split,
    cfg: &RetrievalEvalConfig,
) -> RetrievalReport
where
    F: Fn(&[ItemId], usize) -> Vec<ItemId>,
{
    let _span = delrec_obs::span!("eval.retrieval");
    assert!(!cfg.ns.is_empty(), "need at least one depth");
    assert!(
        cfg.ns.windows(2).all(|w| w[0] < w[1]),
        "depths must be ascending"
    );
    let examples = dataset.examples(split);
    let take = cfg
        .max_examples
        .unwrap_or(examples.len())
        .min(examples.len());
    let sampler = CandidateSampler::new(dataset.num_items(), cfg.m);
    let deepest = *cfg.ns.last().expect("non-empty");
    let mut hits = vec![0usize; cfg.ns.len()];
    let mut covered = vec![0.0f64; cfg.ns.len()];
    for (i, ex) in examples[..take].iter().enumerate() {
        // One scan at the deepest n; shallower depths are prefixes of it
        // (the retrieval contract returns a best-first list).
        let retrieved = retrieve(&ex.prefix, deepest);
        let oracle = sampler.candidates(ex.target, cfg.candidate_seed, i);
        for (d, &n) in cfg.ns.iter().enumerate() {
            let top = &retrieved[..n.min(retrieved.len())];
            if top.contains(&ex.target) {
                hits[d] += 1;
            }
            let present = oracle.iter().filter(|c| top.contains(c)).count();
            covered[d] += present as f64 / oracle.len() as f64;
        }
    }
    // No examples reads 0.0, as in `RankingReport` and `TopKReport`.
    let mean = |total: f64| if take == 0 { 0.0 } else { total / take as f64 };
    RetrievalReport {
        ns: cfg.ns.clone(),
        recall: hits.iter().map(|&h| mean(h as f64)).collect(),
        coverage: covered.iter().map(|&c| mean(c)).collect(),
        examples: take,
    }
}

/// End-to-end ranks of a [`TopKRecommender`] over a split: `ranks[i]` is the
/// target's 0-based position in the returned list, or `None` when the
/// pipeline never surfaced it (a retrieval miss).
#[derive(Clone, Debug)]
pub struct TopKReport {
    ranks: Vec<Option<usize>>,
    k: usize,
}

impl TopKReport {
    /// Number of evaluated examples.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// Whether the report is empty.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// The list depth `k` every example was asked for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Fraction of examples where the pipeline surfaced the target at all.
    pub fn found_rate(&self) -> f64 {
        if self.ranks.is_empty() {
            return 0.0;
        }
        let found = self.ranks.iter().filter(|r| r.is_some()).count();
        found as f64 / self.ranks.len() as f64
    }

    /// HR@k — a miss (target absent) counts 0, same as rank ≥ k.
    pub fn hr(&self, k: usize) -> f64 {
        assert!(k <= self.k, "HR@{k} needs lists of ≥ {k} (have {})", self.k);
        if self.ranks.is_empty() {
            return 0.0;
        }
        let hits = self
            .ranks
            .iter()
            .filter(|r| r.is_some_and(|r| r < k))
            .count();
        hits as f64 / self.ranks.len() as f64
    }

    /// NDCG@k with a single relevant item: `1 / log2(rank + 2)` when the
    /// target landed inside the top-k, else 0 — the same gain formula as
    /// [`RankingReport::ndcg`](crate::RankingReport::ndcg) so oracle and
    /// pipeline numbers subtract meaningfully.
    pub fn ndcg(&self, k: usize) -> f64 {
        assert!(
            k <= self.k,
            "NDCG@{k} needs lists of ≥ {k} (have {})",
            self.k
        );
        if self.ranks.is_empty() {
            return 0.0;
        }
        let total: f64 = self
            .ranks
            .iter()
            .map(|r| match r {
                Some(r) if *r < k => 1.0 / ((*r as f64) + 2.0).log2(),
                _ => 0.0,
            })
            .sum();
        total / self.ranks.len() as f64
    }
}

/// Run a [`TopKRecommender`] end to end over a split: each example's history
/// goes in with **no candidate list**, and the target's position in the
/// returned top-`k` is recorded.
pub fn evaluate_top_k<R: TopKRecommender + ?Sized>(
    rec: &R,
    dataset: &Dataset,
    split: Split,
    k: usize,
    max_examples: Option<usize>,
) -> TopKReport {
    let _span = delrec_obs::span!("eval.top_k");
    assert!(k > 0, "k must be positive");
    let examples = dataset.examples(split);
    let take = max_examples.unwrap_or(examples.len()).min(examples.len());
    let ranks = examples[..take]
        .iter()
        .map(|ex| {
            let top = rec.recommend_top_k(&ex.prefix, k);
            debug_assert!(top.len() <= k);
            top.iter().position(|&(id, _)| id == ex.target)
        })
        .collect();
    TopKReport { ranks, k }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::TopKQuery;
    use delrec_data::synthetic::{DatasetProfile, SyntheticConfig};

    fn tiny() -> Dataset {
        SyntheticConfig::profile(DatasetProfile::MovieLens100K)
            .scaled(0.08)
            .generate(4)
    }

    /// Retrieval double returning the catalog in id order.
    fn id_order(n_items: usize) -> impl Fn(&[ItemId], usize) -> Vec<ItemId> {
        move |_h: &[ItemId], n: usize| (0..n.min(n_items) as u32).map(ItemId).collect()
    }

    #[test]
    fn full_catalog_retrieval_has_perfect_recall() {
        let ds = tiny();
        let n = ds.num_items();
        let cfg = RetrievalEvalConfig {
            ns: vec![n],
            ..Default::default()
        };
        let report = evaluate_retrieval(id_order(n), &ds, Split::Test, &cfg);
        assert_eq!(report.recall_at(n), 1.0);
        assert_eq!(report.coverage_at(n), 1.0);
        assert_eq!(report.len(), ds.examples(Split::Test).len());
    }

    #[test]
    fn shallow_depths_bound_recall_from_below() {
        let ds = tiny();
        let n = ds.num_items();
        let cfg = RetrievalEvalConfig {
            ns: vec![1, n],
            max_examples: Some(10),
            ..Default::default()
        };
        let report = evaluate_retrieval(id_order(n), &ds, Split::Test, &cfg);
        assert!(report.recall_at(1) <= report.recall_at(n));
        assert!(report.coverage_at(1) <= report.coverage_at(n));
        assert_eq!(report.len(), 10);
    }

    #[test]
    fn empty_evaluation_reports_zero_not_nan() {
        let ds = tiny();
        let n = ds.num_items();
        let cfg = RetrievalEvalConfig {
            ns: vec![1, n],
            max_examples: Some(0),
            ..Default::default()
        };
        let report = evaluate_retrieval(id_order(n), &ds, Split::Test, &cfg);
        assert!(report.is_empty());
        for depth in [1, n] {
            assert_eq!(report.recall_at(depth), 0.0, "recall@{depth}");
            assert_eq!(report.coverage_at(depth), 0.0, "coverage@{depth}");
        }
    }

    struct Oracle {
        targets: Vec<ItemId>,
        i: std::cell::Cell<usize>,
    }

    impl TopKRecommender for Oracle {
        fn recommend_top_k_batch(&self, requests: &[TopKQuery<'_>]) -> Vec<Vec<(ItemId, f32)>> {
            requests
                .iter()
                .map(|&(_, k)| {
                    let t = self.targets[self.i.get()];
                    self.i.set(self.i.get() + 1);
                    (0..k as u32)
                        .map(|j| if j == 0 { (t, 1.0) } else { (ItemId(j), 0.0) })
                        .collect()
                })
                .collect()
        }
    }

    #[test]
    fn oracle_recommender_scores_perfect_hr1() {
        let ds = tiny();
        let oracle = Oracle {
            targets: ds.examples(Split::Test).iter().map(|e| e.target).collect(),
            i: std::cell::Cell::new(0),
        };
        let report = evaluate_top_k(&oracle, &ds, Split::Test, 10, None);
        assert_eq!(report.hr(1), 1.0);
        assert_eq!(report.ndcg(10), 1.0);
        assert_eq!(report.found_rate(), 1.0);
    }

    struct Misser;

    impl TopKRecommender for Misser {
        fn recommend_top_k_batch(&self, requests: &[TopKQuery<'_>]) -> Vec<Vec<(ItemId, f32)>> {
            // Never returns any real target: ids far outside the catalog.
            requests
                .iter()
                .map(|&(_, k)| {
                    (0..k as u32)
                        .map(|j| (ItemId(1_000_000 + j), 0.0))
                        .collect()
                })
                .collect()
        }
    }

    #[test]
    fn misses_count_zero_not_panic() {
        let ds = tiny();
        let report = evaluate_top_k(&Misser, &ds, Split::Test, 10, Some(5));
        assert_eq!(report.hr(10), 0.0);
        assert_eq!(report.ndcg(10), 0.0);
        assert_eq!(report.found_rate(), 0.0);
        assert_eq!(report.len(), 5);
    }
}
