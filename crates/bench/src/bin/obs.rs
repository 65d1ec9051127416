//! `obs` — cost and payoff of the observability layer.
//!
//! Two measurements, written to `BENCH_obs.json`:
//!
//! 1. **Disabled-mode overhead.** Span profiling ships off. On the infer
//!    bench's hottest configuration (engine, exact math, prefix cache,
//!    B = 32) a disabled `span!` costs one relaxed atomic load and a
//!    never-taken branch, and an always-on counter costs one cached
//!    `OnceLock` load plus a relaxed add. Both per-call costs are measured
//!    in tight loops, multiplied by the per-pass instrumentation-event
//!    counts (taken from one *enabled* pass and a registry delta), and
//!    divided by the measured disabled-mode pass time. The quotient is an
//!    upper bound on what this PR added to the uninstrumented hot path —
//!    measured arithmetically rather than A/B because the uninstrumented
//!    binary no longer exists, and a sub-2% wall-clock difference between
//!    two separate runs drowns in scheduler noise anyway. **Gate: < 2%.**
//!
//! 2. **Batch-32 time attribution.** The first real profile of
//!    `score_candidates_batch` over a fitted DELRec: spans from all six
//!    layers (serve enters via its own integration tests; here the scoring
//!    stack below it) aggregated over several passes, printed as a tree,
//!    and reduced to a flat self-time ranking. The component ranking is the
//!    answer to the question BENCH_serve left open: what dominates the
//!    1.36x model-layer batching ceiling. **Gate: components must cover
//!    ≥ 90% of measured wall time.**

use delrec_bench::harness::{fit_delrec, PromptStream, ScoringWorkload};
use delrec_bench::{banner, write_json, CliArgs, ExperimentContext};
use delrec_core::{LmPreset, TeacherKind};
use delrec_data::synthetic::DatasetProfile;
use delrec_eval::json::Json;
use delrec_lm::verbalizer;
use delrec_obs::{FlatSpanStats, MetricValue, SpanStats};
use delrec_tensor::InferCtx;
use std::hint::black_box;
use std::time::Instant;

const BATCH: usize = 32;

/// Nanoseconds per call of `f`, measured over `iters` iterations.
fn per_call_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Sum of every counter in the global registry (histogram/gauge entries are
/// cross-checked separately; counters are what the hot path increments).
fn counter_total() -> u64 {
    delrec_obs::global()
        .snapshot()
        .into_iter()
        .map(|(_, v)| match v {
            MetricValue::Counter(c) => c,
            _ => 0,
        })
        .sum()
}

fn span_to_json(s: &SpanStats) -> Json {
    Json::obj([
        ("name", Json::from(s.name)),
        ("count", Json::from(s.count as f64)),
        ("total_ns", Json::from(s.total_ns as f64)),
        ("self_ns", Json::from(s.self_ns() as f64)),
        (
            "children",
            Json::arr(s.children.iter().map(span_to_json).collect::<Vec<_>>()),
        ),
    ])
}

fn flat_to_json(f: &FlatSpanStats, wall_ns: f64) -> Json {
    Json::obj([
        ("name", Json::from(f.name)),
        ("count", Json::from(f.count as f64)),
        ("total_ns", Json::from(f.total_ns as f64)),
        ("self_ns", Json::from(f.self_ns as f64)),
        (
            "pct_of_wall",
            Json::from(100.0 * f.self_ns as f64 / wall_ns),
        ),
    ])
}

fn main() {
    let args = CliArgs::from_env();
    banner(&format!(
        "Observability — disabled-mode overhead and batch-{BATCH} attribution (scale: {})",
        args.scale
    ));
    let ctx = ExperimentContext::new(DatasetProfile::MovieLens100K, args.scale, args.seed);

    // ---- Part 1: disabled-mode overhead on the infer hot path -------------
    // The same prompt stream as BENCH_infer, hottest configuration only.
    let lm = ctx.lm(LmPreset::Large);
    let prompts = PromptStream::build(&ctx, TeacherKind::SASRec, args.seed, 64);
    let n = prompts.len();
    let ic = InferCtx::default();
    let cache = lm.build_prefix_cache(&ic, prompts.shared_prefix(), None);
    let one_pass = || {
        let mut i = 0;
        while i < n {
            let end = (i + BATCH).min(n);
            let logits = lm.mask_logits_infer_batch(
                &ic,
                &prompts.seqs[i..end],
                None,
                &prompts.mask_pos[i..end],
                cache.as_ref(),
            );
            let refs = prompts.title_refs(i..end);
            black_box(verbalizer::rank_candidates_batch(&logits, &refs));
            i = end;
        }
    };

    // Per-call costs of the two instrumentation primitives.
    delrec_obs::set_enabled(false);
    let span_ns = per_call_ns(4_000_000, || {
        black_box(delrec_obs::span!("obs_bench.probe"));
    });
    let counter_ns = per_call_ns(4_000_000, || {
        delrec_obs::counter!("obs_bench.probe").incr();
    });

    // Events per pass: spans from one enabled pass, counters from a
    // registry delta around a disabled pass (counters are always on).
    delrec_obs::set_enabled(true);
    delrec_obs::reset();
    one_pass();
    let spans_per_pass = delrec_obs::profile().total_count();
    delrec_obs::set_enabled(false);
    let c0 = counter_total();
    one_pass();
    let counters_per_pass = counter_total() - c0;

    // Disabled-mode pass wall time, best of five (shortest pass has the
    // least scheduler interference).
    let mut pass_ns = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        one_pass();
        pass_ns = pass_ns.min(t.elapsed().as_nanos() as f64);
    }
    let overhead_ns = spans_per_pass as f64 * span_ns + counters_per_pass as f64 * counter_ns;
    let overhead_pct = 100.0 * overhead_ns / pass_ns;
    println!(
        "disabled overhead: {spans_per_pass} spans × {span_ns:.2} ns + \
         {counters_per_pass} counters × {counter_ns:.2} ns = {overhead_ns:.0} ns \
         over a {:.2} ms pass → {overhead_pct:.4}%",
        pass_ns / 1e6
    );
    assert!(
        overhead_pct < 2.0,
        "disabled-mode overhead {overhead_pct:.4}% breaches the 2% budget"
    );

    // ---- Part 2: batch-32 attribution over a fitted DELRec ----------------
    let model = fit_delrec(&ctx, TeacherKind::SASRec, LmPreset::Large);
    // Warm the caches (prefix K/V, title sets, engine pool) outside the
    // profiled window — steady-state serving is what the ceiling is about.
    let work = ScoringWorkload::build(&ctx, args.seed, 64);
    let score_pass = || {
        black_box(work.score_pass(&model, BATCH));
    };
    score_pass(); // warm-up, unprofiled

    const PASSES: usize = 5;
    delrec_obs::set_enabled(true);
    delrec_obs::reset();
    let t0 = Instant::now();
    for _ in 0..PASSES {
        score_pass();
    }
    let wall_ns = t0.elapsed().as_nanos() as f64;
    delrec_obs::set_enabled(false);
    let report = delrec_obs::profile();

    let covered_ns: u64 = report.roots().iter().map(|r| r.total_ns).sum();
    let coverage_pct = 100.0 * covered_ns as f64 / wall_ns;
    let flat = report.flat();
    let dominant = &flat[0];
    println!("{}", report.render_text());
    println!(
        "batch-{BATCH} scoring: {:.2} ms over {PASSES} passes, spans cover {coverage_pct:.1}%; \
         dominant component: {} ({:.1}% of wall)",
        wall_ns / 1e6,
        dominant.name,
        100.0 * dominant.self_ns as f64 / wall_ns
    );
    assert!(
        coverage_pct >= 90.0,
        "span coverage {coverage_pct:.1}% below the 90% attribution bar"
    );

    let blob = Json::obj([
        ("experiment", Json::from("obs")),
        ("scale", Json::from(args.scale.to_string())),
        ("dataset", Json::from(ctx.dataset.name.clone())),
        (
            "disabled_overhead",
            Json::obj([
                ("span_ns_per_call", Json::from(span_ns)),
                ("counter_ns_per_call", Json::from(counter_ns)),
                ("spans_per_pass", Json::from(spans_per_pass as f64)),
                ("counters_per_pass", Json::from(counters_per_pass as f64)),
                ("pass_wall_ns", Json::from(pass_ns)),
                ("overhead_pct", Json::from(overhead_pct)),
                ("budget_pct", Json::from(2.0)),
            ]),
        ),
        (
            "profile",
            Json::obj([
                ("batch", Json::from(BATCH)),
                ("passes", Json::from(PASSES)),
                ("requests_per_pass", Json::from(n)),
                ("wall_ns", Json::from(wall_ns)),
                ("covered_ns", Json::from(covered_ns as f64)),
                ("coverage_pct", Json::from(coverage_pct)),
                (
                    "dominant",
                    Json::obj([
                        ("name", Json::from(dominant.name)),
                        ("self_ns", Json::from(dominant.self_ns as f64)),
                        (
                            "pct_of_wall",
                            Json::from(100.0 * dominant.self_ns as f64 / wall_ns),
                        ),
                    ]),
                ),
                (
                    "components",
                    Json::arr(
                        flat.iter()
                            .map(|f| flat_to_json(f, wall_ns))
                            .collect::<Vec<_>>(),
                    ),
                ),
                (
                    "tree",
                    Json::arr(report.roots().iter().map(span_to_json).collect::<Vec<_>>()),
                ),
            ]),
        ),
    ]);
    write_json(&args.out, "BENCH_obs", &blob).expect("write results");
}
