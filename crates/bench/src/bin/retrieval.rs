//! `retrieval` — the full-catalog retrieve → re-rank pipeline, written to
//! `BENCH_retrieval.json`.
//!
//! Three gates, all asserted **before** a single timing is reported:
//!
//! 1. **Recall.** The retrieval stage's recall of the held-out target over
//!    the test split, at a depth that is a fixed *fraction of the catalog*
//!    (`min(100, n_items / 4)`, and half of it), must clear floors pinned as
//!    multiples of the random baseline — retrieving 100 of a 40-item smoke
//!    catalog cannot miss and gates nothing. Coverage of the oracle 15-way
//!    candidate sets (same seed discipline as the ranking eval) is recorded
//!    alongside.
//! 2. **End-to-end quality.** `recommend(history) -> top-k` with no
//!    candidate list must land HR@10 / NDCG@10 within a pinned budget of the
//!    oracle-candidate protocol (which is handed a 15-way set containing the
//!    target — the full-catalog pipeline has to *find* it first, so the
//!    budget is a headroom bound, not an equality).
//! 3. **Determinism.** Retrieval and the full pipeline must be bitwise
//!    identical across thread counts {1, 2, 4, 8}, on both the fitted model
//!    and a synthetic catalog big enough to engage the parallel GEMM driver.
//! 4. **Batched ≡ sequential.** `retrieve_batch` and `recommend_batch` must
//!    be bitwise identical to looping the single-query path, at every tested
//!    thread count and batch size, both index formats.
//!
//! Then the headline measurements: full-catalog scan throughput over the
//! item-count × embedding-dim sweep (`CatalogWorkload`), f32 and q8 panels;
//! the batched multi-query scan against B sequential m=1 scans at B=32 on a
//! 32k-item catalog, GEMM-only and at the retrieve level (the coalescing win
//! the serve scheduler cashes in); and
//! the fitted pipeline's per-request latency split into retrieve and re-rank
//! stages, solo vs batched.

use delrec_bench::harness::{
    adaptive_speedup_gate, best_wall_ns, fill, fit_delrec, CatalogWorkload,
};
use delrec_bench::{banner, write_json, CliArgs, ExperimentContext};
use delrec_core::{LmPreset, Recommender, TeacherKind};
use delrec_data::synthetic::DatasetProfile;
use delrec_data::{ItemId, Split};
use delrec_eval::json::Json;
use delrec_eval::{
    evaluate, evaluate_retrieval, evaluate_top_k, RetrievalEvalConfig, TopKQuery, TopKRecommender,
};
use delrec_par::{with_pool, ThreadPool};
use delrec_retrieval::{IndexFormat, Retriever};
use std::hint::black_box;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const K: usize = 10;
/// Deepest recall-gate depth, and the share of the catalog it may not
/// exceed: the gate runs at `min(RECALL_DEPTH_CAP, n_items / 4)` and at half
/// of that, so a random ranking scores at most 0.25 and 0.125 however small
/// the catalog is and the gate can fail at every scale it runs at.
const RECALL_DEPTH_CAP: usize = 100;
const RECALL_CATALOG_DIVISOR: usize = 4;
/// Recall floors as a multiple of the random baseline `depth / n_items`. The
/// fitted smoke model (40 items, 60 test examples, so one example is 0.017)
/// measured recall@5 0.18–0.33 and recall@10 0.38–0.50 over seeds {1, 2, 3,
/// 7, 42} — 1.5–2.7x and 1.5–2.0x random; seed 42: 0.233 / 0.500.
const RECALL_FLOOR_X_RANDOM: f64 = 1.4;
/// How far the full-catalog pipeline may trail the oracle-candidate
/// protocol. The oracle is handed a 15-way set that *contains* the target;
/// the pipeline searches the whole catalog — a large gap is expected, but it
/// must stay bounded or retrieval is broken. Measured gaps at smoke/seed 42:
/// HR 0.433, NDCG 0.198.
const E2E_HR10_BUDGET: f64 = 0.60;
const E2E_NDCG10_BUDGET: f64 = 0.40;
/// The catalog-scale sweep: item count × embedding dim, far past what a
/// fitted smoke-scale LM provides.
const SWEEP: [(usize, usize); 4] = [(2048, 32), (8192, 64), (32768, 64), (65536, 128)];
const SWEEP_QUERIES: usize = 16;
/// The batched-scan measurement: B queries coalesced into one `[B,d]×[d,n]`
/// GEMM vs B sequential m=1 scans, on a catalog big enough that the win is
/// memory traffic (the item panel streams through cache once per batch
/// instead of once per query).
const BATCH_N_ITEMS: usize = 32768;
const BATCH_DIM: usize = 64;
const BATCH_B: usize = 32;
/// Batch sizes the bitwise gate replays (1 pins the degenerate case, 32
/// spans multiple register tiles, 5 is deliberately unaligned).
const GATE_BATCHES: [usize; 3] = [1, 5, 32];
/// The f32 speedup target for the batched scan on a multi-core host. On
/// hosts below the adaptive gate's core floor this drops to a no-regression
/// bound — same precedent as `bench/bin/par`.
const BATCH_SPEEDUP_TARGET: f64 = 2.0;
/// Q8 is gated no-regression at every core count: its per-tile dequant
/// compute is per-output-element and is not amortised by row batching (the
/// q8 win is index footprint, not batched throughput), so batching must
/// simply not slow it down.
const Q8_NO_REGRESSION: f64 = 0.85;

fn bits(ranked: &[(ItemId, f32)]) -> Vec<(u32, u32)> {
    ranked.iter().map(|&(id, s)| (id.0, s.to_bits())).collect()
}

fn main() {
    let args = CliArgs::from_env();
    banner(&format!(
        "Full-catalog retrieval → re-rank (scale: {})",
        args.scale
    ));
    let ctx = ExperimentContext::new(DatasetProfile::MovieLens100K, args.scale, args.seed);
    let model = fit_delrec(&ctx, TeacherKind::SASRec, LmPreset::Large);
    let rec = Recommender::new(model);
    let eval_cfg = ctx.eval_config();

    // ---- Gate 1: retrieval recall ----------------------------------------
    let n_items = ctx.dataset.num_items();
    let deep = RECALL_DEPTH_CAP
        .min(n_items / RECALL_CATALOG_DIVISOR)
        .max(2);
    let shallow = deep / 2;
    let floor_shallow = RECALL_FLOOR_X_RANDOM * shallow as f64 / n_items as f64;
    let floor_deep = RECALL_FLOOR_X_RANDOM * deep as f64 / n_items as f64;
    let ret_cfg = RetrievalEvalConfig {
        ns: vec![shallow, deep],
        m: eval_cfg.m,
        candidate_seed: eval_cfg.candidate_seed,
        max_examples: eval_cfg.max_examples,
    };
    let ret = evaluate_retrieval(
        |h, n| rec.retrieve(h, n).into_iter().map(|(id, _)| id).collect(),
        &ctx.dataset,
        Split::Test,
        &ret_cfg,
    );
    println!(
        "retrieval over {} examples, {n_items} items: recall@{shallow} {:.3} (floor \
         {floor_shallow:.3}), recall@{deep} {:.3} (floor {floor_deep:.3}), coverage@{deep} {:.3}",
        ret.len(),
        ret.recall_at(shallow),
        ret.recall_at(deep),
        ret.coverage_at(deep)
    );
    assert!(
        ret.recall_at(shallow) >= floor_shallow,
        "recall gate: recall@{shallow} {:.3} below floor {floor_shallow:.3}",
        ret.recall_at(shallow)
    );
    assert!(
        ret.recall_at(deep) >= floor_deep,
        "recall gate: recall@{deep} {:.3} below floor {floor_deep:.3}",
        ret.recall_at(deep)
    );

    // ---- Gate 2: end-to-end quality vs the oracle-candidate protocol ------
    let oracle = evaluate(&rec, &ctx.dataset, Split::Test, &eval_cfg);
    let e2e = evaluate_top_k(&rec, &ctx.dataset, Split::Test, K, eval_cfg.max_examples);
    let hr_gap = oracle.hr(K) - e2e.hr(K);
    let ndcg_gap = oracle.ndcg(K) - e2e.ndcg(K);
    println!(
        "end-to-end@{K}: full-catalog HR {:.3} / NDCG {:.3} (found {:.3}) vs \
         oracle-candidate HR {:.3} / NDCG {:.3} — gaps {:.3} / {:.3}",
        e2e.hr(K),
        e2e.ndcg(K),
        e2e.found_rate(),
        oracle.hr(K),
        oracle.ndcg(K),
        hr_gap,
        ndcg_gap
    );
    assert!(
        hr_gap <= E2E_HR10_BUDGET,
        "quality gate: HR@{K} gap {hr_gap:.3} exceeds budget {E2E_HR10_BUDGET}"
    );
    assert!(
        ndcg_gap <= E2E_NDCG10_BUDGET,
        "quality gate: NDCG@{K} gap {ndcg_gap:.3} exceeds budget {E2E_NDCG10_BUDGET}"
    );

    // ---- Gate 3: thread-count determinism --------------------------------
    // (a) The fitted pipeline: retrieval and full recommend, every lane
    // count bitwise identical to serial.
    let history: Vec<ItemId> = ctx.dataset.examples(Split::Test)[0].prefix.clone();
    let serial = ThreadPool::new(1);
    let want_ret = with_pool(&serial, || bits(&rec.retrieve(&history, 100)));
    let want_rec = with_pool(&serial, || bits(&rec.recommend_top_k(&history, K)));
    for &t in &THREADS[1..] {
        let pool = ThreadPool::new(t);
        let got_ret = with_pool(&pool, || bits(&rec.retrieve(&history, 100)));
        let got_rec = with_pool(&pool, || bits(&rec.recommend_top_k(&history, K)));
        assert_eq!(want_ret, got_ret, "retrieval diverged at {t} threads");
        assert_eq!(want_rec, got_rec, "recommend diverged at {t} threads");
    }
    // (b) A synthetic catalog big enough that the scan's parallel GEMM
    // driver actually engages — the fitted smoke catalog may be too small.
    let big = CatalogWorkload::build(8192, 64, 4, args.seed);
    for &format in &[IndexFormat::F32, IndexFormat::Q8] {
        let r = Retriever::build(big.embeddings.clone(), big.dim, 0, format);
        let want: Vec<_> = with_pool(&serial, || {
            big.histories
                .iter()
                .map(|h| bits(&r.retrieve(h, 100)))
                .collect()
        });
        for &t in &THREADS[1..] {
            let pool = ThreadPool::new(t);
            let got: Vec<_> = with_pool(&pool, || {
                big.histories
                    .iter()
                    .map(|h| bits(&r.retrieve(h, 100)))
                    .collect()
            });
            assert_eq!(want, got, "{format:?} scan diverged at {t} threads");
        }
    }
    println!("determinism gate: retrieval and recommend bitwise stable across {THREADS:?} threads");

    // ---- Gate 4: batched ≡ sequential ------------------------------------
    // (a) `retrieve_batch` on a synthetic catalog: every batch size, thread
    // count, and index format must reproduce the m=1 loop bit-for-bit.
    let bgate = CatalogWorkload::build(8192, 64, *GATE_BATCHES.iter().max().unwrap(), args.seed);
    let gate_refs: Vec<&[ItemId]> = bgate.histories.iter().map(|h| h.as_slice()).collect();
    for &format in &[IndexFormat::F32, IndexFormat::Q8] {
        let r = Retriever::build(bgate.embeddings.clone(), bgate.dim, 0, format);
        let want: Vec<_> = with_pool(&serial, || {
            gate_refs
                .iter()
                .map(|h| bits(&r.retrieve(h, 100)))
                .collect()
        });
        for &t in &THREADS {
            let pool = ThreadPool::new(t);
            for &b in &GATE_BATCHES {
                let got = with_pool(&pool, || r.retrieve_batch(&gate_refs[..b], 100));
                for (i, row) in got.iter().enumerate() {
                    assert_eq!(
                        want[i],
                        bits(row),
                        "{format:?} retrieve_batch(B={b}) row {i} diverged at {t} threads"
                    );
                }
            }
        }
    }
    // (b) The fitted pipeline: `recommend_batch` over mixed histories and
    // per-request depths must reproduce the solo `recommend_top_k` loop.
    let batch_requests: Vec<(Vec<ItemId>, usize)> = ctx
        .dataset
        .examples(Split::Test)
        .iter()
        .take(6)
        .enumerate()
        .map(|(i, ex)| (ex.prefix.clone(), [K, 5, 1, K, 3, 7][i % 6]))
        .collect();
    let want_batch: Vec<_> = with_pool(&serial, || {
        batch_requests
            .iter()
            .map(|(h, k)| bits(&rec.recommend_top_k(h, *k)))
            .collect()
    });
    for &t in &THREADS {
        let pool = ThreadPool::new(t);
        let queries: Vec<TopKQuery<'_>> = batch_requests
            .iter()
            .map(|(h, k)| (h.as_slice(), *k))
            .collect();
        let got = with_pool(&pool, || rec.recommend_top_k_batch(&queries));
        for (i, row) in got.iter().enumerate() {
            assert_eq!(
                want_batch[i],
                bits(row),
                "recommend_batch row {i} diverged from solo at {t} threads"
            );
        }
    }
    println!(
        "batched gate: retrieve_batch and recommend_batch bitwise equal to the \
         sequential loop at B {GATE_BATCHES:?}, {THREADS:?} threads, both formats"
    );

    // ---- Timing: catalog-scale scan sweep --------------------------------
    let mut sweep_rows = Vec::new();
    for point in CatalogWorkload::sweep(&SWEEP, SWEEP_QUERIES, args.seed) {
        let mut row = vec![
            ("n_items", Json::from(point.n_items)),
            ("dim", Json::from(point.dim)),
            ("queries", Json::from(SWEEP_QUERIES)),
        ];
        for &format in &[IndexFormat::F32, IndexFormat::Q8] {
            let label = match format {
                IndexFormat::F32 => "f32",
                IndexFormat::Q8 => "q8",
            };
            let build_ns = best_wall_ns(|| {
                black_box(Retriever::build(
                    point.embeddings.clone(),
                    point.dim,
                    0,
                    format,
                ));
            });
            let r = Retriever::build(point.embeddings.clone(), point.dim, 0, format);
            let pass_ns = best_wall_ns(|| {
                for h in &point.histories {
                    black_box(r.retrieve(h, 100));
                }
            });
            let per_query_ns = pass_ns / SWEEP_QUERIES as f64;
            let items_per_s = point.n_items as f64 / (per_query_ns / 1e9);
            println!(
                "scan {}x{} [{label}]: build {:.2} ms, {:.3} ms/query, {:.1}M items/s",
                point.n_items,
                point.dim,
                build_ns / 1e6,
                per_query_ns / 1e6,
                items_per_s / 1e6
            );
            row.push((
                match format {
                    IndexFormat::F32 => "f32",
                    IndexFormat::Q8 => "q8",
                },
                Json::obj([
                    ("build_ns", Json::from(build_ns)),
                    ("per_query_ns", Json::from(per_query_ns)),
                    ("items_per_s", Json::from(items_per_s)),
                    ("index_bytes", Json::from(r.index().bytes())),
                ]),
            ));
        }
        sweep_rows.push(Json::obj(row));
    }

    // ---- Timing: batched multi-query scan vs B sequential scans ----------
    // Two comparisons per format on identical inputs. GEMM only: raw
    // `scan_batch_into` against a loop of m=1 `scan_into` (the materialising
    // reference kernels). Retrieve level: the streamed `retrieve_batch` —
    // encode, tile scan and selection fused, what the serve scheduler's
    // coalesced flush actually calls — against B solo `retrieve` calls. The
    // f32 gate follows the `par` bench precedent: a speedup target on
    // multi-core hosts, a no-regression bound on starved ones, and the
    // verdict is *recorded*, never asserted (timing on shared hosts is
    // noisy; the bitwise gates above are the hard ones).
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let bw = CatalogWorkload::build(BATCH_N_ITEMS, BATCH_DIM, BATCH_B, args.seed);
    let bw_refs: Vec<&[ItemId]> = bw.histories.iter().map(|h| h.as_slice()).collect();
    let batch_queries = fill(args.seed ^ 0x5ca1_ab1e, BATCH_B * BATCH_DIM);
    let mut batched_rows = Vec::new();
    for &format in &[IndexFormat::F32, IndexFormat::Q8] {
        let label = match format {
            IndexFormat::F32 => "f32",
            IndexFormat::Q8 => "q8",
        };
        let r = Retriever::build(bw.embeddings.clone(), BATCH_DIM, 0, format);
        let idx = r.index();
        let mut out = vec![0.0f32; BATCH_B * BATCH_N_ITEMS];
        let batched_ns = best_wall_ns(|| {
            out.fill(0.0);
            idx.scan_batch_into(&batch_queries, BATCH_B, &mut out);
            black_box(&out);
        });
        let mut row_buf = vec![0.0f32; BATCH_N_ITEMS];
        let sequential_ns = best_wall_ns(|| {
            for i in 0..BATCH_B {
                row_buf.fill(0.0);
                idx.scan_into(
                    &batch_queries[i * BATCH_DIM..(i + 1) * BATCH_DIM],
                    &mut row_buf,
                );
                black_box(&row_buf);
            }
        });
        let retrieve_batched_ns = best_wall_ns(|| {
            black_box(r.retrieve_batch(&bw_refs, 100));
        });
        let retrieve_sequential_ns = best_wall_ns(|| {
            for h in &bw_refs {
                black_box(r.retrieve(h, 100));
            }
        });
        let speedup = sequential_ns / batched_ns;
        let retrieve_speedup = retrieve_sequential_ns / retrieve_batched_ns;
        let scan_gflops = (2 * BATCH_B * BATCH_DIM * BATCH_N_ITEMS) as f64 / batched_ns;
        let (gate_mode, target) = match format {
            IndexFormat::F32 => adaptive_speedup_gate(cores, BATCH_SPEEDUP_TARGET),
            IndexFormat::Q8 => ("no_regression", Q8_NO_REGRESSION),
        };
        let met = speedup >= target;
        println!(
            "batched scan {BATCH_N_ITEMS}x{BATCH_DIM} B={BATCH_B} [{label}]: \
             batched {:.3} ms ({scan_gflops:.1} GFLOP/s), {BATCH_B}x sequential {:.3} ms, \
             speedup {speedup:.2}x \
             — gate [{gate_mode}] target {target:.2} on {cores} core(s){}; \
             retrieve-100: batched {:.3} ms, {BATCH_B}x solo {:.3} ms ({retrieve_speedup:.2}x)",
            batched_ns / 1e6,
            sequential_ns / 1e6,
            if met { "" } else { " — MISSED" },
            retrieve_batched_ns / 1e6,
            retrieve_sequential_ns / 1e6
        );
        batched_rows.push((
            label,
            Json::obj([
                ("batched_ns", Json::from(batched_ns)),
                ("sequential_ns", Json::from(sequential_ns)),
                ("speedup", Json::from(speedup)),
                ("scan_gflops", Json::from(scan_gflops)),
                (
                    "rows_items_per_s",
                    Json::from((BATCH_B * BATCH_N_ITEMS) as f64 / (batched_ns / 1e9)),
                ),
                ("gate_mode", Json::from(gate_mode)),
                ("target", Json::from(target)),
                ("met", Json::Bool(met)),
                ("retrieve_batched_ns", Json::from(retrieve_batched_ns)),
                ("retrieve_sequential_ns", Json::from(retrieve_sequential_ns)),
                ("retrieve_speedup", Json::from(retrieve_speedup)),
            ]),
        ));
    }
    // ---- Timing: fitted pipeline stage latencies -------------------------
    let retrieve_ns = best_wall_ns(|| {
        black_box(rec.retrieve(&history, 100));
    });
    let recommend_ns = best_wall_ns(|| {
        black_box(rec.recommend_top_k(&history, K));
    });
    // The batched fitted pipeline: B requests through one retrieve_batch +
    // one re-rank forward over B prompts vs B solo recommend calls.
    let fitted_histories: Vec<&[ItemId]> =
        batch_requests.iter().map(|(h, _)| h.as_slice()).collect();
    let fitted_b = fitted_histories.len();
    let recommend_batch_ns = best_wall_ns(|| {
        black_box(rec.recommend_batch(&fitted_histories, K));
    });
    let recommend_loop_ns = best_wall_ns(|| {
        for h in &fitted_histories {
            black_box(rec.recommend_top_k(h, K));
        }
    });
    println!(
        "fitted pipeline: retrieve-100 {:.3} ms, recommend-{K} {:.2} ms \
         (re-rank ≈ {:.2} ms); recommend_batch B={fitted_b} {:.2} ms vs \
         {:.2} ms solo loop ({:.2}x)",
        retrieve_ns / 1e6,
        recommend_ns / 1e6,
        (recommend_ns - retrieve_ns) / 1e6,
        recommend_batch_ns / 1e6,
        recommend_loop_ns / 1e6,
        recommend_loop_ns / recommend_batch_ns
    );

    let blob = Json::obj([
        ("experiment", Json::from("retrieval")),
        ("scale", Json::from(args.scale.to_string())),
        ("dataset", Json::from(ctx.dataset.name.clone())),
        ("catalog_items", Json::from(ctx.dataset.num_items())),
        (
            "recall",
            Json::obj([
                ("examples", Json::from(ret.len())),
                ("depth_shallow", Json::from(shallow)),
                ("depth_deep", Json::from(deep)),
                ("recall_shallow", Json::from(ret.recall_at(shallow))),
                ("recall_deep", Json::from(ret.recall_at(deep))),
                ("coverage_shallow", Json::from(ret.coverage_at(shallow))),
                ("coverage_deep", Json::from(ret.coverage_at(deep))),
                ("floor_shallow", Json::from(floor_shallow)),
                ("floor_deep", Json::from(floor_deep)),
                ("met", Json::Bool(true)), // asserted above
            ]),
        ),
        (
            "end_to_end",
            Json::obj([
                ("k", Json::from(K)),
                ("hr", Json::from(e2e.hr(K))),
                ("ndcg", Json::from(e2e.ndcg(K))),
                ("found_rate", Json::from(e2e.found_rate())),
                ("oracle_hr", Json::from(oracle.hr(K))),
                ("oracle_ndcg", Json::from(oracle.ndcg(K))),
                ("hr_gap", Json::from(hr_gap)),
                ("ndcg_gap", Json::from(ndcg_gap)),
                ("hr_budget", Json::from(E2E_HR10_BUDGET)),
                ("ndcg_budget", Json::from(E2E_NDCG10_BUDGET)),
                ("met", Json::Bool(true)), // asserted above
            ]),
        ),
        (
            "determinism",
            Json::obj([
                (
                    "threads",
                    Json::arr(THREADS.iter().map(|&t| Json::from(t)).collect::<Vec<_>>()),
                ),
                ("bitwise_identical", Json::Bool(true)), // asserted above
                (
                    "batch_sizes",
                    Json::arr(
                        GATE_BATCHES
                            .iter()
                            .map(|&b| Json::from(b))
                            .collect::<Vec<_>>(),
                    ),
                ),
                ("batched_equals_sequential", Json::Bool(true)), // asserted above
            ]),
        ),
        ("scan_sweep", Json::arr(sweep_rows)),
        (
            "batched_scan",
            Json::obj(
                [
                    ("n_items", Json::from(BATCH_N_ITEMS)),
                    ("dim", Json::from(BATCH_DIM)),
                    ("batch", Json::from(BATCH_B)),
                    ("cores", Json::from(cores)),
                ]
                .into_iter()
                .chain(batched_rows)
                .collect::<Vec<_>>(),
            ),
        ),
        (
            "pipeline_latency",
            Json::obj([
                ("retrieve_100_ns", Json::from(retrieve_ns)),
                ("recommend_k_ns", Json::from(recommend_ns)),
                ("recommend_batch_b", Json::from(fitted_b)),
                ("recommend_batch_ns", Json::from(recommend_batch_ns)),
                ("recommend_loop_ns", Json::from(recommend_loop_ns)),
            ]),
        ),
    ]);
    write_json(&args.out, "BENCH_retrieval", &blob).expect("write results");
}
