//! Shared harness for the `BENCH_*` binaries.
//!
//! Every perf binary follows the same skeleton — deterministic operand
//! streams, a correctness gate asserting bitwise agreement *before* a single
//! timing is reported, best-of-N timing loops, and a JSON blob written to
//! `results/BENCH_*.json`. This module holds the pieces they share
//! (`bin/{gemm,soak}.rs`) so a new benchmark starts from the shared,
//! already-trusted building blocks.

use crate::ExperimentContext;
use delrec_core::{DelRec, LmPreset, TeacherKind};
use delrec_data::{CandidateSampler, ItemId, Split};
use delrec_eval::{Ranker, ScoreRequest};
use std::time::Instant;

/// Deterministic operand fill (same LCG stream as the gemm property tests),
/// mapped into `[-0.5, 0.5)`.
pub fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

/// Best-of-3 nanoseconds *per iteration* for `iters` calls of `f` — for
/// kernel microbenchmarks where one call is timer-noise-dominated.
pub fn best_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// One warm-up call (caches, pools, packs) followed by the best-of-3 wall
/// time of a single `f()` pass — for end-to-end scoring passes.
pub fn best_wall_ns(mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// Bit patterns of per-request score rows, for bitwise correctness gates
/// (`f32` compares confuse `-0.0`/`0.0` and hide ULP drift; bits don't).
pub fn score_bits(scores: &[Vec<f32>]) -> Vec<Vec<u32>> {
    scores
        .iter()
        .map(|r| r.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// Fit a DELRec on the context's dataset with the standard progress log line.
pub fn fit_delrec(ctx: &ExperimentContext, teacher: TeacherKind, preset: LmPreset) -> DelRec {
    let t = ctx.teacher(teacher);
    eprintln!("[{}] fitting DELRec …", ctx.dataset.name);
    let mut cfg = ctx.delrec_config(teacher);
    cfg.lm = preset;
    DelRec::fit(
        &ctx.dataset,
        &ctx.pipeline,
        t.as_ref(),
        ctx.lm(preset),
        &cfg,
    )
}

/// A deterministic scoring request stream over the dataset's test split:
/// each example's prefix paired with a seeded 15-way candidate set — the
/// workload every end-to-end scoring benchmark floods models with.
pub struct ScoringWorkload {
    prefixes: Vec<Vec<ItemId>>,
    cand_sets: Vec<Vec<ItemId>>,
}

impl ScoringWorkload {
    /// At most `cap` test examples (panics if the split is empty).
    pub fn build(ctx: &ExperimentContext, seed: u64, cap: usize) -> Self {
        Self::with_len(ctx, seed, |available| available.min(cap))
    }

    /// Exactly `n` requests, cycling through the test examples if the split
    /// is shorter — for load tests that need a fixed request count.
    pub fn build_cycled(ctx: &ExperimentContext, seed: u64, n: usize) -> Self {
        Self::with_len(ctx, seed, |_| n)
    }

    fn with_len(ctx: &ExperimentContext, seed: u64, len: impl Fn(usize) -> usize) -> Self {
        let examples = ctx.dataset.examples(Split::Test);
        assert!(!examples.is_empty(), "no test examples");
        let n = len(examples.len());
        let sampler = CandidateSampler::new(ctx.dataset.num_items(), 15);
        let (mut prefixes, mut cand_sets) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for i in 0..n {
            let ex = &examples[i % examples.len()];
            prefixes.push(ex.prefix.clone());
            cand_sets.push(sampler.candidates(ex.target, seed, i));
        }
        ScoringWorkload {
            prefixes,
            cand_sets,
        }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.prefixes.len()
    }

    /// Whether the workload is empty (it never is; `build` panics instead).
    pub fn is_empty(&self) -> bool {
        self.prefixes.is_empty()
    }

    /// The `i`-th request's session history.
    pub fn prefix(&self, i: usize) -> &[ItemId] {
        &self.prefixes[i]
    }

    /// The `i`-th request's candidate set.
    pub fn candidates(&self, i: usize) -> &[ItemId] {
        &self.cand_sets[i]
    }

    /// The whole stream as borrowed `(prefix, candidates)` score requests.
    pub fn requests(&self) -> Vec<ScoreRequest<'_>> {
        self.prefixes
            .iter()
            .zip(&self.cand_sets)
            .map(|(p, c)| (p.as_slice(), c.as_slice()))
            .collect()
    }

    /// Score the whole stream through `Ranker::score_candidates_batch` in
    /// chunks of `batch` — the standard batched scoring pass every
    /// end-to-end benchmark times.
    pub fn score_pass<R: Ranker>(&self, model: &R, batch: usize) -> Vec<Vec<f32>> {
        let requests = self.requests();
        let n = requests.len();
        let mut out = Vec::with_capacity(n);
        let mut i = 0;
        while i < n {
            let end = (i + batch).min(n);
            out.extend(model.score_candidates_batch(&requests[i..end]));
            i = end;
        }
        out
    }
}
