//! Per-layer measurements of a traced run: direct calls into each layer's
//! public functions on the workload's own model and data, each loop inside
//! one benchmark span. A workload measures the layers it loads; the metrics
//! of a layer it bypasses stay unset and print as 0.

use crate::datagen::Rng;
use crate::report::{Checks, Values};
use crate::stack::Backbone;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use delrec_core::{PromptBuilder, Recommender, SoftMode};
use delrec_data::{CandidateSampler, ItemId, Split};
use delrec_eval::{Ranker, ScoreRequest, TopKQuery, TopKRecommender};
use delrec_lm::verbalizer::rank_candidates_batch_mode;
use delrec_lm::LmToken;
use delrec_par::{with_pool, ThreadPool};
use delrec_retrieval::{l2_normalize_rows, top_k, IndexFormat, Retriever};
use delrec_serve::{SessionStore, WalOptions};
use delrec_tensor::{
    gemm_packed, gemm_packed_q8, pack_b, pack_b_transposed, quantize_pack, InferCtx, MathMode,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Requests per batched direct call: the server's `max_batch`.
pub const BATCH: usize = 32;
/// Top-k depth every top-k request asks for.
pub const K: usize = 10;
/// Candidates per scoring request (the paper's protocol).
pub const M: usize = 15;

/// What the layer measurements run on.
pub struct LayerCtx<'a> {
    /// Data, pipeline, teacher.
    pub backbone: &'a Backbone,
    /// The fitted model behind the workload.
    pub rec: &'a Recommender,
    /// Soft-prompt slots the model was fitted with.
    pub k_soft: usize,
    /// Whether the workload retrieves from the catalog.
    pub topk: bool,
    /// Whether the workload goes through the server.
    pub serving: bool,
    /// Wall time all the measurement loops together may take.
    pub budget: Duration,
    /// Seed of the run (candidate sets, kernel operands).
    pub seed: u64,
}

/// Median seconds per call of `f`, over calls repeated for `budget` (at
/// least five), after one warm-up call; the loop is one span.
fn per_call(
    tracer: &Tracer,
    parent: SpanId,
    name: &'static str,
    budget: Duration,
    mut f: impl FnMut(usize),
) -> f64 {
    f(0);
    let span = tracer.begin(name, parent, None);
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut i = 1;
    while samples.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        f(i);
        samples.push(t.elapsed().as_secs_f64());
        i += 1;
    }
    tracer.end(span);
    median(&samples)
}

/// Deterministic operands in `[-0.5, 0.5)`.
fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut rng = Rng::new(seed);
    (0..len).map(|_| rng.unit() as f32 - 0.5).collect()
}

/// The benchmark's own FMA-shaped loop: 64 independent multiply-add chains,
/// enough to keep every vector lane and port of one core busy. Built with
/// the same flags as the program, so it is the rate *this build* can reach.
fn host_fma_gflops(budget: Duration) -> f64 {
    const LANES: usize = 64;
    const ITERS: usize = 20_000;
    let mut acc = [0.5f32; LANES];
    let mul: [f32; LANES] = std::array::from_fn(|i| 1.0 - 1e-7 * (i as f32 + 1.0));
    let add: [f32; LANES] = std::array::from_fn(|i| 1e-7 * (i as f32 + 1.0));
    let mut best = f64::INFINITY;
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 3 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..ITERS {
            for j in 0..LANES {
                acc[j] = acc[j] * mul[j] + add[j];
            }
        }
        black_box(&mut acc);
        best = best.min(t.elapsed().as_secs_f64());
        rounds += 1;
    }
    (2 * LANES * ITERS) as f64 / best / 1e9
}

/// Streaming triad `a = b + s·c` over arrays far larger than the caches;
/// bytes are computed from the array sizes (two reads, one write).
fn host_triad_gbytes_s(budget: Duration) -> f64 {
    const N: usize = 8 << 20;
    let b = vec![1.0f32; N];
    let c = vec![2.0f32; N];
    let mut a = vec![0.0f32; N];
    let mut best = f64::INFINITY;
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 3 || start.elapsed() < budget {
        let t = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = *y + 3.0 * *z;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
        rounds += 1;
    }
    (3 * N * 4) as f64 / best / 1e9
}

/// Share of the index's top-`n` that a brute-force f64 ranking of the same
/// normalised embeddings also puts in its top-`n` (ties at the cut count:
/// an f32 scan may order exact-equal neighbours either way).
fn recall_against_brute_force(
    retriever: &Retriever,
    normalised: &[f32],
    dim: usize,
    history: &[ItemId],
    n: usize,
) -> f64 {
    let query = retriever.encoder().encode(history);
    let mut exact: Vec<f64> = normalised
        .chunks_exact(dim)
        .map(|row| {
            row.iter()
                .zip(&query)
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum()
        })
        .collect();
    let got = retriever.retrieve(history, n);
    let scores = exact.clone();
    let n = n.min(exact.len());
    exact.sort_by(|a, b| b.total_cmp(a));
    let cut = exact[n - 1] - 1e-6;
    let hits = got
        .iter()
        .filter(|(id, _)| scores[id.index()] >= cut)
        .count();
    hits as f64 / n as f64
}

/// Measure every layer the workload loads and record the metrics.
pub fn measure(
    ctx: &LayerCtx<'_>,
    tracer: &Tracer,
    parent: SpanId,
    values: &mut Values,
    checks: &mut Checks,
) {
    let us = 1e6;
    let bb = ctx.backbone;
    let model = ctx.rec.model();
    let lm = model.lm();
    let d = lm.cfg.d_model;
    let examples = bb.train.examples(Split::Test);
    let history = |i: usize| examples[i % examples.len()].prefix.as_slice();
    let sampler = CandidateSampler::new(bb.n_items, M);
    let cand_sets: Vec<Vec<ItemId>> = (0..BATCH * 4)
        .map(|i| sampler.candidates(examples[i % examples.len()].target, ctx.seed, i))
        .collect();
    let cands = |i: usize| cand_sets[i % cand_sets.len()].as_slice();
    // Loops this workload runs: 11 everywhere, 13 more with retrieval, 2 more
    // with a server; each gets an equal share of the budget.
    let loops = 11 + 13 * u32::from(ctx.topk) + 2 * u32::from(ctx.serving);
    let budget = ctx.budget / loops;
    let time =
        |name: &'static str, f: &mut dyn FnMut(usize)| per_call(tracer, parent, name, budget, f);

    values.set("par.lanes", delrec_par::current().lanes() as f64);

    // --- The host, measured by the benchmark's own loops. -----------------
    let fma = host_fma_gflops(budget);
    let triad = host_triad_gbytes_s(budget);
    values.set("host.fma_gflops", fma);
    values.set("host.triad_gbytes_s", triad);

    // --- obs: what a disabled span site costs the hot path. ---------------
    const SPANS: usize = 100_000;
    let span_s = time("bench.obs.span_disabled", &mut |_| {
        for _ in 0..SPANS {
            black_box(delrec_obs::span!("perfbench.disabled"));
        }
    });
    values.set("obs.span_disabled_ns", span_s / SPANS as f64 * 1e9);

    // --- seqrec: one teacher scoring call. ---------------------------------
    let teacher_s = time("bench.seqrec.scores", &mut |i| {
        black_box(bb.teacher.scores(history(i)));
    });
    values.set("seqrec.score_us", teacher_s * us);

    // --- core + lm: prompt build, forward, verbalizer, at batch 1 and 32. --
    let pb = PromptBuilder::new(&bb.pipeline.vocab, &bb.pipeline.items, "sasrec");
    let soft = SoftMode::Slots(ctx.k_soft);
    let prompt_s = time("bench.core.prompt_build", &mut |i| {
        let h = history(i);
        black_box(pb.recommendation(&h[h.len() - h.len().min(9)..], cands(i), soft));
    });
    values.set("core.prompt_build_us", prompt_s * us);

    let prompts: Vec<_> = (0..BATCH)
        .map(|i| pb.recommendation(history(i), cands(i), soft))
        .collect();
    let seqs: Vec<Vec<LmToken>> = prompts.iter().map(|p| p.tokens.clone()).collect();
    let mask_pos: Vec<usize> = prompts.iter().map(|p| p.mask_pos).collect();
    let soft_values = model.soft_prompt().map(|s| s.values(lm.store()));
    let ic = InferCtx::new(MathMode::Exact);
    // The scoring path reuses the shared prompt head's K/V when the model
    // allows it; mirror that, so this is the forward a request pays for.
    let prefix_cache = lm.build_prefix_cache(&ic, &seqs[0][..prompts[0].prefix_len], soft_values);
    let forward_b1 = time("bench.lm.mask_logits_b1", &mut |i| {
        let j = i % BATCH;
        black_box(lm.mask_logits_infer_batch(
            &ic,
            &seqs[j..j + 1],
            soft_values,
            &mask_pos[j..j + 1],
            prefix_cache.as_ref(),
        ));
    });
    let forward_b32 = time("bench.lm.mask_logits_b32", &mut |_| {
        black_box(lm.mask_logits_infer_batch(
            &ic,
            &seqs,
            soft_values,
            &mask_pos,
            prefix_cache.as_ref(),
        ));
    });
    let tokens: usize = seqs.iter().map(Vec::len).sum();
    values.set("lm.forward_us_per_prompt_b1", forward_b1 * us);
    values.set(
        "lm.forward_us_per_prompt_b32",
        forward_b32 / BATCH as f64 * us,
    );
    values.set("lm.tokens_per_s_b32", tokens as f64 / forward_b32);

    let logits = lm.mask_logits_infer_batch(
        &ic,
        &seqs[..1],
        soft_values,
        &mask_pos[..1],
        prefix_cache.as_ref(),
    );
    let titles = bb.pipeline.items.titles_of(cands(0));
    let verbalize_s = time("bench.lm.verbalize", &mut |_| {
        black_box(rank_candidates_batch_mode(
            &logits,
            &[titles.as_slice()],
            MathMode::Exact,
        ));
    });
    values.set("lm.verbalize_us", verbalize_s * us);

    let score_b1 = time("bench.core.score_candidates", &mut |i| {
        black_box(ctx.rec.score_candidates(history(i), cands(i)));
    });
    let score_batch = time("bench.core.score_candidates_batch", &mut |i| {
        let reqs: Vec<ScoreRequest<'_>> = (0..BATCH)
            .map(|j| (history(i * BATCH + j), cands(i * BATCH + j)))
            .collect();
        black_box(ctx.rec.score_candidates_batch(&reqs));
    });
    values.set("core.score_us_b1", score_b1 * us);
    values.set("core.score_us_per_req_b32", score_batch / BATCH as f64 * us);
    let mut gain = score_b1 / (score_batch / BATCH as f64);

    // --- tensor: the LM's projection GEMM against the host's peak. ---------
    {
        let (m, k, n) = (1024, d, 3 * d);
        let a = fill(ctx.seed, m * k);
        let bp = pack_b(&fill(ctx.seed ^ 1, k * n), k, n);
        let mut out = vec![0.0f32; m * n];
        let s = time("bench.tensor.gemm_packed_lm", &mut |_| {
            gemm_packed(&a, k, &bp, &mut out, m, false);
            black_box(&mut out);
        });
        let gflops = (2 * m * k * n) as f64 / s / 1e9;
        values.set("tensor.gemm_lm_gflops", gflops);
        values.set("tensor.gemm_lm_pct_peak", 100.0 * gflops / fma);
    }

    // --- retrieval, par and the scan kernels: top-k workloads only. --------
    if ctx.topk {
        let recommend_b1 = time("bench.core.recommend_top_k", &mut |i| {
            black_box(ctx.rec.recommend_top_k(history(i), K));
        });
        let recommend_batch = time("bench.core.recommend_top_k_batch", &mut |i| {
            let reqs: Vec<TopKQuery<'_>> =
                (0..BATCH).map(|j| (history(i * BATCH + j), K)).collect();
            black_box(ctx.rec.recommend_top_k_batch(&reqs));
        });
        let retrieve_n = ctx.rec.config().retrieve_n;
        let pipeline_retrieve = time("bench.core.retrieve", &mut |i| {
            black_box(ctx.rec.retrieve(history(i), retrieve_n));
        });
        values.set("core.recommend_us_b1", recommend_b1 * us);
        values.set(
            "core.recommend_us_per_req_b32",
            recommend_batch / BATCH as f64 * us,
        );
        values.set(
            "core.rerank_share_b1",
            1.0 - pipeline_retrieve / recommend_b1,
        );
        gain = recommend_b1 / (recommend_batch / BATCH as f64);

        // A retriever of the benchmark's own, over embeddings it exported
        // itself, so the index's stages can be called one at a time and the
        // scan checked against a brute-force ranking.
        let n_items = bb.n_items;
        let mut emb = vec![0.0f32; n_items * d];
        for (j, row) in emb.chunks_exact_mut(d).enumerate() {
            let title = bb.pipeline.items.title(ItemId(j as u32));
            if !title.is_empty() {
                row.copy_from_slice(&lm.title_embedding(title));
            }
        }
        let pack_s = time("bench.tensor.pack_b_transposed", &mut |_| {
            black_box(pack_b_transposed(&emb, d, n_items));
        });
        values.set("tensor.pack_b_us", pack_s * us);
        let retriever = Retriever::build(emb.clone(), d, 0, IndexFormat::F32);
        let index = retriever.index();
        values.set("retrieval.index_bytes", index.bytes() as f64);

        let mut normalised = emb;
        l2_normalize_rows(&mut normalised, d);
        let probes = 8;
        let recall: f64 = (0..probes)
            .map(|i| recall_against_brute_force(&retriever, &normalised, d, history(i), 100))
            .sum::<f64>()
            / probes as f64;
        values.set("retrieval.recall_at_100", recall);
        checks.check(
            "retrieval.recall_at_100 == 1 against brute force",
            recall == 1.0,
        );

        let encode_s = time("bench.retrieval.encode", &mut |i| {
            for j in 0..64 {
                black_box(retriever.encoder().encode(history(i * 64 + j)));
            }
        });
        values.set("retrieval.encode_us", encode_s / 64.0 * us);
        let queries: Vec<f32> = (0..BATCH)
            .flat_map(|i| retriever.encoder().encode(history(i)))
            .collect();
        let mut row = vec![0.0f32; n_items];
        let scan_b1 = time("bench.retrieval.scan", &mut |i| {
            let j = i % BATCH;
            row.fill(0.0);
            index.scan_into(&queries[j * d..(j + 1) * d], &mut row);
            black_box(&mut row);
        });
        let topk_s = time("bench.retrieval.top_k", &mut |_| {
            black_box(top_k(&row, retrieve_n));
        });
        let retrieve_b1 = time("bench.retrieval.retrieve", &mut |i| {
            black_box(retriever.retrieve(history(i), retrieve_n));
        });
        let mut block = vec![0.0f32; BATCH * n_items];
        let mut scan_batch = |_: usize| {
            block.fill(0.0);
            index.scan_batch_into(&queries, BATCH, &mut block);
            black_box(&mut block);
        };
        let scan_b32 = time("bench.retrieval.scan_batch", &mut scan_batch);
        values.set("retrieval.scan_us_b1", scan_b1 * us);
        values.set("retrieval.topk_us", topk_s * us);
        values.set("retrieval.retrieve_us_b1", retrieve_b1 * us);
        values.set(
            "retrieval.scan_us_per_row_b32",
            scan_b32 / BATCH as f64 * us,
        );
        // One scan streams every panel once and writes one score per item.
        let scan_gbytes = (index.bytes() + n_items * 4) as f64 / scan_b1 / 1e9;
        values.set("retrieval.scan_gbytes_s", scan_gbytes);
        values.set("retrieval.scan_pct_bandwidth", 100.0 * scan_gbytes / triad);

        let pool = delrec_par::current();
        let dispatch_s = time("bench.par.run_indexed", &mut |_| {
            pool.run_indexed(pool.lanes(), &|i| {
                black_box(i);
            });
        });
        values.set("par.dispatch_us", dispatch_s * us);
        let serial = ThreadPool::new(1);
        let scan_serial = with_pool(&serial, || {
            time("bench.retrieval.scan_batch_serial", &mut scan_batch)
        });
        values.set("par.scan_speedup", scan_serial / scan_b32);

        // The scan's GEMM by itself, f32 and int8 panels, same operands.
        let a = fill(ctx.seed ^ 2, BATCH * d);
        let packed = pack_b_transposed(&normalised, d, n_items);
        let flops = (2 * BATCH * d * n_items) as f64;
        let f32_s = time("bench.tensor.gemm_packed_scan", &mut |_| {
            gemm_packed(&a, d, &packed, &mut block, BATCH, false);
            black_box(&mut block);
        });
        let quantised = quantize_pack(&packed);
        let q8_s = time("bench.tensor.gemm_packed_q8_scan", &mut |_| {
            gemm_packed_q8(&a, d, &quantised, &mut block, BATCH, false);
            black_box(&mut block);
        });
        values.set("tensor.gemm_scan_gflops", flops / f32_s / 1e9);
        values.set("tensor.gemm_q8_scan_gflops", flops / q8_s / 1e9);
    }
    values.set("core.batch_gain", gain);

    // --- serve: what one session append costs, with and without the WAL. ---
    if ctx.serving {
        let mut rng = Rng::new(ctx.seed ^ 0x5E55);
        let users = 4096;
        let memory = SessionStore::new(16, 50);
        let append_s = time("bench.serve.session_append", &mut |_| {
            for _ in 0..256 {
                let user = rng.below(users) as u64;
                black_box(memory.append(user, &[ItemId(rng.below(bb.n_items) as u32)]));
            }
        });
        let dir = crate::scratch_dir().join("wal-probe");
        let _ = std::fs::remove_dir_all(&dir);
        let durable = SessionStore::persistent(16, 50, &dir, WalOptions::default())
            .expect("open the probe WAL");
        let durable_s = time("bench.serve.session_append_wal", &mut |_| {
            for _ in 0..256 {
                let user = rng.below(users) as u64;
                black_box(durable.append(user, &[ItemId(rng.below(bb.n_items) as u32)]));
            }
        });
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
        values.set("serve.session_append_us", append_s / 256.0 * us);
        values.set(
            "serve.wal_append_us",
            (durable_s - append_s).max(0.0) / 256.0 * us,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_host_loops_report_positive_rates() {
        assert!(host_fma_gflops(Duration::from_millis(5)) > 0.0);
        assert!(host_triad_gbytes_s(Duration::from_millis(5)) > 0.0);
    }

    #[test]
    fn brute_force_recall_is_one_for_the_exact_index_and_drops_for_a_wrong_one() {
        let (n, d) = (500, 8);
        let emb = fill(9, n * d);
        let retriever = Retriever::build(emb.clone(), d, 0, IndexFormat::F32);
        let mut normalised = emb.clone();
        l2_normalize_rows(&mut normalised, d);
        let history = [ItemId(3), ItemId(40)];
        let recall = recall_against_brute_force(&retriever, &normalised, d, &history, 100);
        assert_eq!(recall, 1.0);
        // Against embeddings the index was not built from, the gate can fail.
        let mut other = fill(10, n * d);
        l2_normalize_rows(&mut other, d);
        let recall = recall_against_brute_force(&retriever, &other, d, &history, 100);
        assert!(recall < 0.9, "recall {recall} against unrelated embeddings");
    }
}
