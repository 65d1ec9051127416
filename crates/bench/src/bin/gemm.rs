//! `gemm` — payoff of the packed register-blocked GEMM and fused QKV/FFN
//! projections (see the "GEMM kernel" section of `DESIGN.md`), written to
//! `BENCH_gemm.json`.
//!
//! Three measurements, all behind correctness gates that assert **bitwise**
//! agreement before a single timing is reported:
//!
//! 1. **Kernel microbench.** `matmul_raw` vs the blocked kernel (packing per
//!    call, and against a cached pack) on the LM's own shapes: the old
//!    per-head projection, the fused per-layer panel, the tied-embedding
//!    head, and one XL engine tile's fused projection. Beside the dispatched
//!    kernel runs its baseline body (`gemm_packed_baseline`: the same source
//!    compiled at the build's 128-bit width), so the file records what the
//!    host's instantiation buys. Gate: baseline body ≡ dispatched kernel ≡
//!    `matmul_raw`, bit for bit, on every timed shape. One lane, so a large
//!    shape times the kernel and not a fork.
//! 2. **End-to-end batch-32 scoring.** A fitted DELRec scored over the same
//!    request stream as BENCH_obs through the engine's fused forward,
//!    best-of-3 wall. Gate: the engine and the autograd tape produce
//!    identical score bits.
//! 3. **Attribution re-run.** The BENCH_obs batch-32 profile repeated on the
//!    fused forward: the `lm.qkv` + `lm.pack` share of wall, against the
//!    55.5% `lm.qkv` share measured on the per-head projections it replaced.

use delrec_bench::harness::{best_ns, best_wall_ns, fill, fit_delrec, score_bits, ScoringWorkload};
use delrec_bench::{banner, write_json, CliArgs, ExperimentContext};
use delrec_core::{LmPreset, TeacherKind};
use delrec_data::synthetic::DatasetProfile;
use delrec_eval::json::Json;
use delrec_tensor::{gemm_packed, gemm_packed_baseline, matmul_raw, pack_b, simd_lanes, PackedB};
use std::hint::black_box;
use std::time::Instant;

const BATCH: usize = 32;
/// `lm.qkv` share of batch-32 wall on the per-head projections the fused
/// panel replaced (measured in PR 4, before the blocked GEMM).
const PRE_PR_QKV_PCT: f64 = 55.5;

/// One timed kernel shape: gate bitwise equality (baseline body ≡ dispatched
/// kernel ≡ `matmul_raw`), then time naive, pack-per-call, cached-pack and
/// the baseline body over the cached pack.
fn kernel_case(label: &str, m: usize, k: usize, n: usize, iters: u32) -> Json {
    let a = fill(1, m * k);
    let b = fill(2, k * n);
    let bp: PackedB = pack_b(&b, k, n);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut want = vec![0.0f32; m * n];
    matmul_raw(&a, &b, &mut want, m, k, n);
    // The timed kernels themselves, over the same pack they are timed on.
    let mut got = vec![f32::NAN; m * n];
    gemm_packed(&a, k, &bp, &mut got, m, false);
    assert_eq!(
        bits(&want),
        bits(&got),
        "correctness gate: dispatched kernel diverged from matmul_raw at {label}"
    );
    let mut body = vec![f32::NAN; m * n];
    gemm_packed_baseline(&a, k, &bp, &mut body, m);
    assert_eq!(
        bits(&want),
        bits(&body),
        "correctness gate: baseline body diverged from matmul_raw at {label}"
    );

    let mut out = vec![0.0f32; m * n];
    let naive_ns = best_ns(iters, || {
        out.fill(0.0);
        matmul_raw(&a, &b, black_box(&mut out), m, k, n);
    });
    let pack_each_ns = best_ns(iters, || {
        let bp = pack_b(&b, k, n);
        gemm_packed(&a, k, &bp, black_box(&mut out), m, false);
    });
    let cached_ns = best_ns(iters, || {
        gemm_packed(&a, k, &bp, black_box(&mut out), m, false);
    });
    let body_ns = best_ns(iters, || {
        gemm_packed_baseline(&a, k, &bp, black_box(&mut out), m);
    });
    let gflops = (2 * m * k * n) as f64 / cached_ns;
    println!(
        "  {label:<28} [{m:>4}x{k:>2}x{n:>2}]  naive {naive_ns:8.0} ns   pack-each \
         {pack_each_ns:8.0} ns   cached-pack {cached_ns:8.0} ns ({:.2}x naive, {gflops:.1} \
         GFLOP/s)   baseline body {body_ns:8.0} ns ({:.2}x)",
        naive_ns / cached_ns,
        body_ns / cached_ns
    );
    Json::obj([
        ("label", Json::from(label)),
        ("m", Json::from(m)),
        ("k", Json::from(k)),
        ("n", Json::from(n)),
        ("naive_ns", Json::from(naive_ns)),
        ("pack_each_ns", Json::from(pack_each_ns)),
        ("cached_pack_ns", Json::from(cached_ns)),
        ("baseline_body_ns", Json::from(body_ns)),
        ("cached_pack_gflops", Json::from(gflops)),
        ("speedup_cached_vs_naive", Json::from(naive_ns / cached_ns)),
        (
            "speedup_dispatched_vs_body",
            Json::from(body_ns / cached_ns),
        ),
    ])
}

fn main() {
    let args = CliArgs::from_env();
    banner(&format!(
        "GEMM v2 — blocked kernel + fused projections (scale: {})",
        args.scale
    ));

    // ---- Part 1: kernel microbench on the LM's shapes --------------------
    // d = 16, dh = 8, ffn = 32, vocab ≈ 60 (the Large preset the serving
    // benches use); 96 rows ≈ batch-32 × 3 suffix positions.
    // The last shape is one XL engine tile: 8 prompts × 127 tokens through
    // the fused [32, 96] projection.
    let instantiation = match simd_lanes() {
        8 => "avx2-256",
        _ => "baseline-128",
    };
    println!(
        "kernel (gate: baseline body == dispatched [{instantiation}] == matmul_raw, bitwise):"
    );
    let kernels = delrec_par::with_pool(&delrec_par::ThreadPool::new(1), || {
        Json::arr(vec![
            kernel_case("per-head projection", 96, 16, 8, 20_000),
            kernel_case("fused qkv panel", 96, 16, 48, 8_000),
            kernel_case("ffn w1", 96, 16, 32, 10_000),
            kernel_case("tied-embedding head", 32, 16, 60, 10_000),
            kernel_case("xl tile fused qkv", 1016, 32, 96, 400),
        ])
    });

    // ---- Part 2: end-to-end batch-32 scoring on the fused forward --------
    let ctx = ExperimentContext::new(DatasetProfile::MovieLens100K, args.scale, args.seed);
    let mut model = fit_delrec(&ctx, TeacherKind::SASRec, LmPreset::Large);
    let work = ScoringWorkload::build(&ctx, args.seed, 64);
    let n = work.len();
    let score_pass = |model: &_| work.score_pass(model, BATCH);

    // Correctness gate: the engine and the tape agree bitwise.
    let fused_scores = score_pass(&model);
    model.set_inference_engine(false);
    let tape_scores = score_pass(&model);
    assert_eq!(
        score_bits(&fused_scores),
        score_bits(&tape_scores),
        "correctness gate: engine diverged from the tape"
    );
    model.set_inference_engine(true);
    println!("e2e gate: fused == tape over {n} requests (bitwise)");

    // Timed pass: one warm-up (prefix cache, engine pool, weight pack, title
    // cache), then best-of-3 wall.
    let fused_ns = best_wall_ns(|| {
        black_box(score_pass(&model));
    });
    println!(
        "batch-{BATCH} score_candidates_batch: {:.2} ms per pass",
        fused_ns / 1e6
    );

    // ---- Part 3: attribution re-run on the fused path --------------------
    const PASSES: usize = 5;
    delrec_obs::set_enabled(true);
    delrec_obs::reset();
    // One lane: spans running on parallel lanes would sum to more than wall
    // and inflate every share (coverage read 163 % on two cores).
    let one_lane = delrec_par::ThreadPool::new(1);
    let t0 = Instant::now();
    delrec_par::with_pool(&one_lane, || {
        for _ in 0..PASSES {
            black_box(score_pass(&model));
        }
    });
    let wall_ns = t0.elapsed().as_nanos() as f64;
    delrec_obs::set_enabled(false);
    let report = delrec_obs::profile();
    let flat = report.flat();
    let self_pct = |name: &str| -> f64 {
        let ns: u64 = flat
            .iter()
            .filter(|f| f.name == name)
            .map(|f| f.self_ns)
            .sum();
        100.0 * ns as f64 / wall_ns
    };
    let qkv_pct = self_pct("lm.qkv");
    let pack_pct = self_pct("lm.pack");
    let covered_ns: u64 = report.roots().iter().map(|r| r.total_ns).sum();
    let coverage_pct = 100.0 * covered_ns as f64 / wall_ns;
    let dominant = &flat[0];
    println!(
        "attribution: lm.qkv {qkv_pct:.1}% + lm.pack {pack_pct:.1}% of wall (was \
         {PRE_PR_QKV_PCT}% pre-PR); dominant span now {} ({:.1}%); coverage {coverage_pct:.1}%",
        dominant.name,
        100.0 * dominant.self_ns as f64 / wall_ns
    );
    assert!(
        qkv_pct + pack_pct < PRE_PR_QKV_PCT,
        "correctness of the attribution claim: projection share must drop"
    );

    let blob = Json::obj([
        ("experiment", Json::from("gemm")),
        ("scale", Json::from(args.scale.to_string())),
        ("dataset", Json::from(ctx.dataset.name.clone())),
        ("instantiation", Json::from(instantiation)),
        ("simd_lanes", Json::from(simd_lanes())),
        ("kernels", kernels),
        (
            "e2e",
            Json::obj([
                ("batch", Json::from(BATCH)),
                ("requests_per_pass", Json::from(n)),
                ("fused_wall_ns", Json::from(fused_ns)),
            ]),
        ),
        (
            "attribution",
            Json::obj([
                ("passes", Json::from(PASSES)),
                ("wall_ns", Json::from(wall_ns)),
                ("coverage_pct", Json::from(coverage_pct)),
                ("qkv_pct_of_wall", Json::from(qkv_pct)),
                ("pack_pct_of_wall", Json::from(pack_pct)),
                ("pre_pr_qkv_pct_of_wall", Json::from(PRE_PR_QKV_PCT)),
                (
                    "dominant",
                    Json::obj([
                        ("name", Json::from(dominant.name)),
                        (
                            "pct_of_wall",
                            Json::from(100.0 * dominant.self_ns as f64 / wall_ns),
                        ),
                    ]),
                ),
            ]),
        ),
    ]);
    write_json(&args.out, "BENCH_gemm", &blob).expect("write results");
}
