//! Shared harness for the `BENCH_*` binaries.
//!
//! Every perf binary follows the same skeleton — deterministic operand
//! streams, a correctness gate asserting bitwise agreement *before* a single
//! timing is reported, best-of-N timing loops, and a JSON blob written to
//! `results/BENCH_*.json`. This module holds the pieces that used to be
//! copy-pasted across `bin/{infer,serve,obs,gemm,par}.rs` so a new benchmark
//! starts from the shared, already-trusted building blocks.

use crate::ExperimentContext;
use delrec_core::{DelRec, LmPreset, PromptBuilder, SoftMode, TeacherKind};
use delrec_data::{CandidateSampler, ItemId, Split};
use delrec_eval::{Ranker, ScoreRequest};
use delrec_lm::LmToken;
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

/// Hardware-adaptive speedup gate: with ≥ 4 cores demand a real speedup; on
/// fewer cores extra lanes cannot buy wall time, so demand "no regression"
/// (within timing noise) instead and record the mode in the JSON so the
/// numbers read honestly. Returns `(gate_mode, target_ratio)`.
pub fn adaptive_speedup_gate(cores: usize, speedup_target: f64) -> (&'static str, f64) {
    if cores >= 4 {
        ("speedup", speedup_target)
    } else {
        ("no_regression", 0.85)
    }
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

/// A synthetic full-catalog retrieval workload at an arbitrary catalog
/// scale: deterministic item embeddings (the shared LCG stream) plus seeded
/// query histories. The fitted model's catalog tops out at a few hundred
/// items at smoke scale, so scan-throughput measurements sweep these instead
/// — item count × embedding dim points far beyond what a fitted LM provides,
/// with bit-reproducible contents at every point.
pub struct CatalogWorkload {
    /// Catalog size this point was built at.
    pub n_items: usize,
    /// Embedding dimension this point was built at.
    pub dim: usize,
    /// Row-major `[n_items, dim]` embeddings in `[-0.5, 0.5)` (not yet
    /// normalized — the index build normalizes its own copy).
    pub embeddings: Vec<f32>,
    /// Seeded query histories over the catalog, lengths in `5..=12`.
    pub histories: Vec<Vec<ItemId>>,
}

impl CatalogWorkload {
    /// One sweep point: `n_items × dim` embeddings and `n_queries`
    /// histories, all derived from `seed` (and the point's own shape, so
    /// different points never share a stream).
    pub fn build(n_items: usize, dim: usize, n_queries: usize, seed: u64) -> Self {
        assert!(n_items > 0 && dim > 0 && n_queries > 0);
        let point_seed = seed
            .wrapping_add((n_items as u64) << 24)
            .wrapping_add(dim as u64);
        let embeddings = fill(point_seed, n_items * dim);
        let mut state = point_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let histories = (0..n_queries)
            .map(|_| {
                let len = 5 + next() % 8;
                (0..len)
                    .map(|_| ItemId((next() % n_items) as u32))
                    .collect()
            })
            .collect();
        CatalogWorkload {
            n_items,
            dim,
            embeddings,
            histories,
        }
    }

    /// The standard item-count × embedding-dim sweep grid.
    pub fn sweep(points: &[(usize, usize)], n_queries: usize, seed: u64) -> Vec<Self> {
        points
            .iter()
            .map(|&(n, d)| Self::build(n, d, n_queries, seed))
            .collect()
    }
}

/// A pre-tokenized recommendation prompt stream for benchmarks that drive
/// the MiniLm directly (bypassing `DelRec`): token sequences, mask
/// positions, candidate title sets, and the shared template prefix length.
pub struct PromptStream {
    /// Tokenized prompts, one per example.
    pub seqs: Vec<Vec<LmToken>>,
    /// Mask-token position within each prompt.
    pub mask_pos: Vec<usize>,
    /// Tokenized candidate titles per example, for the verbalizer.
    pub title_sets: Vec<Vec<Vec<u32>>>,
    /// Length of the template prefix shared by every prompt.
    pub prefix_len: usize,
}

impl PromptStream {
    /// Build prompts for at most `cap` test examples with seeded 15-way
    /// candidate sets (no soft prompts — these benches use the raw backbone).
    pub fn build(ctx: &ExperimentContext, teacher: TeacherKind, seed: u64, cap: usize) -> Self {
        let examples = ctx.dataset.examples(Split::Test);
        assert!(!examples.is_empty(), "no test examples");
        let n = examples.len().min(cap);
        let pb = PromptBuilder::new(&ctx.pipeline.vocab, &ctx.pipeline.items, teacher.name());
        let sampler = CandidateSampler::new(ctx.dataset.num_items(), 15);
        let mut seqs = Vec::with_capacity(n);
        let mut mask_pos = Vec::with_capacity(n);
        let mut title_sets = Vec::with_capacity(n);
        let mut prefix_len = 0;
        for (i, ex) in examples[..n].iter().enumerate() {
            let cands = sampler.candidates(ex.target, seed, i);
            let take = ex.prefix.len().min(9);
            let prompt =
                pb.recommendation(&ex.prefix[ex.prefix.len() - take..], &cands, SoftMode::None);
            prefix_len = prompt.prefix_len;
            seqs.push(prompt.tokens);
            mask_pos.push(prompt.mask_pos);
            title_sets.push(ctx.pipeline.items.titles_of(&cands));
        }
        PromptStream {
            seqs,
            mask_pos,
            title_sets,
            prefix_len,
        }
    }

    /// Number of prompts.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// Whether the stream is empty (it never is; `build` panics instead).
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// The template prefix shared by every prompt.
    pub fn shared_prefix(&self) -> &[LmToken] {
        &self.seqs[0][..self.prefix_len]
    }

    /// Borrowed title-set slices for `range`, in the shape the verbalizer's
    /// batch API takes.
    pub fn title_refs(&self, range: std::ops::Range<usize>) -> Vec<&[Vec<u32>]> {
        self.title_sets[range]
            .iter()
            .map(|t| t.as_slice())
            .collect()
    }
}
