//! `quant` — int8 quantized weight panels (`MathMode::Quantized`) vs the f32
//! fused path, written to `BENCH_quant.json`.
//!
//! Three gates, all asserted **before** a single timing is reported:
//!
//! 1. **Pack memory.** The q8 weight pack must be ≥ 3.5x smaller than the
//!    f32 pack, read from the `lm.weight_pack.bytes{,_q8}` gauges after
//!    forcing one build of each. The XL preset is the honest shape here:
//!    per-column f32 scales cost 4/k bytes per element, so a k = 16 panel
//!    (the Large preset) caps at 3.2x while k ≥ 32 clears 3.5x.
//! 2. **Eval drift.** HR@{1,5,10} and NDCG@{5,10} under `Quantized` must
//!    stay within |Δ| < 1e-2 (absolute) of the exact engine's metrics over
//!    the standard eval protocol — the same budget the root test suite pins.
//! 3. **Determinism.** Quantized batch-32 scores must be bitwise identical
//!    across thread counts {1, 2, 4, 8}: the q8 kernel's parallel driver
//!    only redistributes disjoint outputs, so lanes must never change bits.
//!
//! Then the headline measurement: batch-32 scoring wall, quantized vs the
//! f32 fused path, best-of-3 each. The latency ratio is recorded, not gated
//! — at MiniLM scale int8 panels buy memory, not arithmetic; the widening
//! to f32 in-register costs about what the smaller panel footprint saves.
//! Next to it, the two kernels alone on the served catalog-scan shape
//! (`[32, 32] × [32, 4096]`, one lane) in GFLOP/s: the `i8 → f32` widening
//! is what the 128-bit baseline lacks an instruction for, so this ratio is
//! where the host's instantiation (`simd_lanes`) shows most.

use delrec_bench::harness::{best_ns, best_wall_ns, fill, fit_delrec, score_bits, ScoringWorkload};
use delrec_bench::{banner, write_json, CliArgs, ExperimentContext};
use delrec_core::{LmPreset, TeacherKind};
use delrec_data::synthetic::DatasetProfile;
use delrec_data::Split;
use delrec_eval::json::Json;
use delrec_eval::{evaluate, RankingReport};
use delrec_obs::MetricValue;
use delrec_par::{with_pool, ThreadPool};
use delrec_tensor::{gemm_packed, gemm_packed_q8, pack_b, pack_b_q8, simd_lanes, MathMode};
use std::hint::black_box;

const BATCH: usize = 32;
const MEM_RATIO_TARGET: f64 = 3.5;
const DRIFT_BUDGET: f64 = 1e-2;
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// (metric, k) pairs the drift gate covers.
const METRICS: [(&str, usize); 5] = [("hr", 1), ("hr", 5), ("hr", 10), ("ndcg", 5), ("ndcg", 10)];

/// Current value of a gauge in the global registry (NaN if never set).
fn gauge(name: &str) -> f64 {
    delrec_obs::global()
        .snapshot()
        .into_iter()
        .find_map(|(n, v)| match v {
            MetricValue::Gauge(g) if n == name => Some(g),
            _ => None,
        })
        .unwrap_or(f64::NAN)
}

fn metric(report: &RankingReport, which: &str, k: usize) -> f64 {
    match which {
        "hr" => report.hr(k),
        _ => report.ndcg(k),
    }
}

/// `(f32, q8)` GFLOP/s of the packed kernels on the served scan shape.
fn scan_kernel_gflops() -> (f64, f64) {
    let (m, k, n) = (32usize, 32usize, 4096usize);
    let a = fill(1, m * k);
    let b = fill(2, k * n);
    let (bp, bq) = (pack_b(&b, k, n), pack_b_q8(&b, k, n));
    let mut out = vec![0.0f32; m * n];
    with_pool(&ThreadPool::new(1), || {
        let f32_ns = best_ns(200, || {
            gemm_packed(&a, k, &bp, black_box(&mut out), m, false)
        });
        let q8_ns = best_ns(200, || {
            gemm_packed_q8(&a, k, &bq, black_box(&mut out), m, false)
        });
        let flops = (2 * m * k * n) as f64;
        (flops / f32_ns, flops / q8_ns)
    })
}

fn main() {
    let args = CliArgs::from_env();
    banner(&format!(
        "Quantized inference — int8 weight panels vs the f32 fused path (scale: {})",
        args.scale
    ));
    let ctx = ExperimentContext::new(DatasetProfile::MovieLens100K, args.scale, args.seed);
    // XL, not Large: the memory gate needs k ≥ 32 panels (see module docs).
    let mut model = fit_delrec(&ctx, TeacherKind::SASRec, LmPreset::Xl);
    let work = ScoringWorkload::build(&ctx, args.seed, 64);
    let n = work.len();

    // ---- Gate 1: pack memory ---------------------------------------------
    // One scoring pass per mode forces the weight-pack build; the build
    // publishes its footprint through the always-on gauges.
    let f32_scores = work.score_pass(&model, BATCH);
    let bytes_f32 = gauge("lm.weight_pack.bytes");
    model.set_math_mode(MathMode::Quantized);
    let q8_scores = work.score_pass(&model, BATCH);
    let bytes_q8 = gauge("lm.weight_pack.bytes_q8");
    let mem_ratio = bytes_f32 / bytes_q8;
    println!(
        "pack memory: f32 {bytes_f32:.0} B → q8 {bytes_q8:.0} B = {mem_ratio:.2}x \
         (gate ≥ {MEM_RATIO_TARGET}x)"
    );
    assert!(
        mem_ratio >= MEM_RATIO_TARGET,
        "memory gate: q8 pack only {mem_ratio:.2}x smaller, need ≥ {MEM_RATIO_TARGET}x"
    );

    // ---- Gate 2: eval-level metric drift ---------------------------------
    let eval_cfg = ctx.eval_config();
    model.set_math_mode(MathMode::Exact);
    let exact = evaluate(&model, &ctx.dataset, Split::Test, &eval_cfg);
    model.set_math_mode(MathMode::Quantized);
    let quant = evaluate(&model, &ctx.dataset, Split::Test, &eval_cfg);
    let mut drift_rows = Vec::new();
    for (which, k) in METRICS {
        let (e, q) = (metric(&exact, which, k), metric(&quant, which, k));
        let delta = (e - q).abs();
        println!("drift {which}@{k}: exact {e:.4} vs quantized {q:.4} (|Δ| = {delta:.4})");
        assert!(
            delta < DRIFT_BUDGET,
            "drift gate: {which}@{k} moved {delta:.4} ≥ {DRIFT_BUDGET}"
        );
        drift_rows.push(Json::obj([
            ("metric", Json::from(format!("{which}@{k}"))),
            ("exact", Json::from(e)),
            ("quantized", Json::from(q)),
            ("abs_delta", Json::from(delta)),
        ]));
    }

    // ---- Gate 3: thread-count determinism --------------------------------
    // Still in Quantized mode. Every lane count must reproduce the 1-lane
    // bits exactly.
    let serial_pool = ThreadPool::new(1);
    let want = with_pool(&serial_pool, || score_bits(&work.score_pass(&model, BATCH)));
    for &t in &THREADS[1..] {
        let pool = ThreadPool::new(t);
        let got = with_pool(&pool, || score_bits(&work.score_pass(&model, BATCH)));
        assert_eq!(
            want, got,
            "determinism gate: quantized scoring diverged from serial at {t} threads"
        );
    }
    println!("determinism gate: quantized scores bitwise stable across {THREADS:?} threads");

    // ---- Timing: batch-32 wall, quantized vs f32 fused -------------------
    let q8_ns = best_wall_ns(|| {
        black_box(work.score_pass(&model, BATCH));
    });
    model.set_math_mode(MathMode::Exact);
    let f32_ns = best_wall_ns(|| {
        black_box(work.score_pass(&model, BATCH));
    });
    let latency_ratio = f32_ns / q8_ns;
    println!(
        "batch-{BATCH} score_candidates_batch: f32 {:.2} ms vs quantized {:.2} ms \
         ({latency_ratio:.2}x)",
        f32_ns / 1e6,
        q8_ns / 1e6
    );
    let (scan_f32, scan_q8) = scan_kernel_gflops();
    println!(
        "scan kernel [32x32x4096], {} lanes: f32 {scan_f32:.1} vs q8 {scan_q8:.1} GFLOP/s ({:.2}x)",
        simd_lanes(),
        scan_q8 / scan_f32
    );
    // Sanity: the two passes scored the same requests; rows must line up.
    assert_eq!(f32_scores.len(), q8_scores.len());

    let blob = Json::obj([
        ("experiment", Json::from("quant")),
        ("scale", Json::from(args.scale.to_string())),
        ("dataset", Json::from(ctx.dataset.name.clone())),
        ("lm_preset", Json::from("xl")),
        (
            "pack_memory",
            Json::obj([
                ("bytes_f32", Json::from(bytes_f32)),
                ("bytes_q8", Json::from(bytes_q8)),
                ("ratio", Json::from(mem_ratio)),
                ("target", Json::from(MEM_RATIO_TARGET)),
                ("met", Json::Bool(mem_ratio >= MEM_RATIO_TARGET)),
            ]),
        ),
        (
            "eval_drift",
            Json::obj([
                ("examples", Json::from(exact.len())),
                ("budget_abs", Json::from(DRIFT_BUDGET)),
                ("metrics", Json::arr(drift_rows)),
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
            ]),
        ),
        (
            "latency",
            Json::obj([
                ("batch", Json::from(BATCH)),
                ("requests_per_pass", Json::from(n)),
                ("f32_wall_ns", Json::from(f32_ns)),
                ("q8_wall_ns", Json::from(q8_ns)),
                ("f32_over_q8", Json::from(latency_ratio)),
            ]),
        ),
        (
            "scan_kernel",
            Json::obj([
                ("shape", Json::from("32x32x4096")),
                ("simd_lanes", Json::from(simd_lanes())),
                ("f32_gflops", Json::from(scan_f32)),
                ("q8_gflops", Json::from(scan_q8)),
                ("q8_over_f32", Json::from(scan_q8 / scan_f32)),
            ]),
        ),
    ]);
    write_json(&args.out, "BENCH_quant", &blob).expect("write results");
}
