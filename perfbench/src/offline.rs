//! `offline_fit_eval`: the researcher's path, no server. Pretrain → teacher
//! → `DelRec::fit` → `evaluate` over the whole test split → direct scoring
//! calls. It uses `tensor` and `lm` the other way round from serving — tape,
//! backward, optimiser steps, parameter writes that bump the store version
//! and invalidate every pack cache — so an inference-side cache or kernel
//! change that taxes training shows here and nowhere else.
//!
//! The two measured phases mirror the served workloads': a closed loop
//! (`evaluate` passes back to back; `sat_rps` is examples per second) and an
//! open loop (one `score_candidates` call per due time at a frozen rate,
//! timed from the due time; the no-server reference for `score_sessions`).

use crate::layers::{self, LayerCtx, BATCH, M};
use crate::load::{open_loop, Served, Target};
use crate::model::Traced;
use crate::peak_rss_mb;
use crate::report::{Checks, Outcome, Values};
use crate::stack::{build_backbone, fit, Scale, StackSpec, TRAIN_CATALOG};
use crate::stats::{median, quantile_sorted, sorted, supported_quantile};
use crate::trace::Tracer;
use delrec_core::{DelRecConfig, LmPreset, Recommender, TeacherKind};
use delrec_data::{CandidateSampler, Example, ItemId, Split};
use delrec_eval::{evaluate, EvalConfig, Ranker, ScoreRequest};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "offline_fit_eval";
/// Open-loop rate of direct scoring calls, per second. **Frozen** at about
/// half of what one thread sustains at the commit that defined the
/// benchmark (see the README).
pub const PACED_RPS: f64 = 700.0;

/// The fit this workload times: between the product's `smoke` and `small`
/// budgets, sized to about half of a ten-second run on the host the
/// benchmark was defined on.
fn fit_config(scale: Scale) -> DelRecConfig {
    let mut cfg = DelRecConfig::small(TeacherKind::SASRec);
    cfg.lm = LmPreset::Xl;
    match scale {
        Scale::Full => {
            cfg.k_soft = 8;
            cfg.stage1.epochs = 1;
            cfg.stage1.max_examples = Some(128);
            cfg.stage2.epochs = 3;
            cfg.stage2.max_examples = Some(384);
        }
        Scale::Quick => cfg = DelRecConfig::smoke(TeacherKind::SASRec),
    }
    cfg
}

/// Direct scoring calls as a load target: `submit` *is* the call.
struct Direct<'a> {
    model: &'a Traced,
    examples: &'a [Example],
    candidates: &'a [Vec<ItemId>],
    /// Scores of the first calls, for the batched ≡ solo check.
    kept: Vec<(usize, Vec<f32>)>,
}

impl Target for Direct<'_> {
    type Request = usize;
    type Handle = Served;

    fn prepare(&mut self, i: u64) -> usize {
        i as usize % self.examples.len()
    }

    fn submit(&mut self, _i: u64, j: usize) -> Option<Served> {
        let t = Instant::now();
        let scores = self
            .model
            .score_candidates(&self.examples[j].prefix, &self.candidates[j]);
        let latency = t.elapsed();
        if self.kept.len() < 2 * BATCH {
            self.kept.push((j, scores));
        }
        Some(Served {
            latency,
            queue_wait: Duration::ZERO,
        })
    }

    fn wait(&mut self, _i: u64, served: Served) -> Option<Served> {
        Some(served)
    }

    fn backlog(&self) -> usize {
        0
    }
}

/// Run the workload.
pub fn run(seed: u64, seconds: f64, traced: bool, scale: Scale) -> Outcome {
    let mut values = Values::default();
    let mut checks = Checks::default();
    let tracer = Arc::new(Tracer::new(traced));
    let mut spec = StackSpec::new(LmPreset::Xl, TRAIN_CATALOG, scale);
    spec.fit = fit_config(scale);

    // --- Set-up: everything a fit starts from, several times over. ---------
    let mut totals = Vec::new();
    let mut last = None;
    for _ in 0..scale.setup_repeats() {
        let t = Instant::now();
        let root = tracer.begin("setup", Tracer::ROOT, None);
        let built = build_backbone(&spec, seed, &tracer, root);
        tracer.end(root);
        totals.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    let (backbone, mut times) = last.expect("at least one set-up");

    // --- Measured: the fit, once. ---------------------------------------------
    let (fitted, fit_s) = fit(&backbone, &spec.fit, seed, &tracer, Tracer::ROOT);
    times.fit_s = fit_s;
    let model = Traced::new(Recommender::new(fitted), Arc::clone(&tracer));

    // The fit is a fixed amount of work; the loops share what is left, the
    // paced calls taking two thirds: their p90 is the figure that needs the
    // most samples (twenty parts of a few hundred calls each).
    let left = (seconds - fit_s).max(0.3 * seconds);
    let (eval_secs, paced_secs) = if traced {
        (left / 8.0, left / 4.0)
    } else {
        (left / 3.0, left * 2.0 / 3.0)
    };

    // --- Measured: evaluation passes, back to back. ---------------------------
    let eval_cfg = EvalConfig {
        m: M,
        candidate_seed: seed ^ 0xE7A1,
        max_examples: None,
        batch_size: 16,
    };
    let passes = |secs: f64, checks: &mut Checks| {
        let start = Instant::now();
        let mut rates = Vec::new();
        let mut quality: Vec<(u64, u64)> = Vec::new();
        while rates.len() < 2 || start.elapsed().as_secs_f64() < secs {
            let span = tracer.begin("eval.evaluate", Tracer::ROOT, None);
            let t = Instant::now();
            let report = evaluate(&model, &backbone.train, Split::Test, &eval_cfg);
            rates.push(report.len() as f64 / t.elapsed().as_secs_f64());
            tracer.end(span);
            quality.push((report.hr(10).to_bits(), report.ndcg(10).to_bits()));
        }
        let (hr, ndcg) = (f64::from_bits(quality[0].0), f64::from_bits(quality[0].1));
        checks.check(
            "HR@10 and NDCG@10 are finite and in [0, 1]",
            hr.is_finite() && ndcg.is_finite() && (0.0..=1.0).contains(&hr) && ndcg <= hr,
        );
        checks.check(
            "every evaluation pass reports the same HR@10 and NDCG@10",
            quality.iter().all(|&q| q == quality[0]),
        );
        let examples = backbone.train.examples(Split::Test).len() as u64;
        checks.requests(examples * rates.len() as u64, 0);
        (median(&rates), hr, ndcg)
    };
    tracer.set_enabled(false);
    let mut untraced_rate = 0.0;
    if traced {
        untraced_rate = passes(eval_secs, &mut checks).0;
        tracer.set_enabled(true);
    }
    let (eval_rate, hr, ndcg) = passes(eval_secs, &mut checks);

    // --- Measured: direct scoring calls on a schedule. ------------------------
    let examples = backbone.train.examples(Split::Test);
    let sampler = CandidateSampler::new(backbone.n_items, M);
    let candidates: Vec<Vec<ItemId>> = examples
        .iter()
        .enumerate()
        .map(|(i, ex)| sampler.candidates(ex.target, seed, i))
        .collect();
    let mut direct = Direct {
        model: &model,
        examples,
        candidates: &candidates,
        kept: Vec::new(),
    };
    let paced_root = tracer.begin("phase.paced", Tracer::ROOT, None);
    let paced = open_loop(
        &mut direct,
        PACED_RPS,
        Duration::from_secs_f64(paced_secs),
        0,
    );
    tracer.end(paced_root);
    checks.requests(paced.attempted, paced.failed);
    let from_due = sorted(
        paced
            .samples
            .iter()
            .map(|s| s.due_latency().as_secs_f64() * 1e3)
            .collect(),
    );
    if scale == Scale::Full {
        checks.check(
            "paced phase has ten samples beyond p90",
            supported_quantile(&from_due, 0.90).is_some(),
        );
    }

    // --- Output check: the solo calls agree with the batched call. -----------
    let kept = std::mem::take(&mut direct.kept);
    let mut mismatches = 0;
    for chunk in kept.chunks(BATCH) {
        let requests: Vec<ScoreRequest<'_>> = chunk
            .iter()
            .map(|(j, _)| (examples[*j].prefix.as_slice(), candidates[*j].as_slice()))
            .collect();
        let rows = model.inner.score_candidates_batch(&requests);
        for ((_, solo), row) in chunk.iter().zip(&rows) {
            let same = solo
                .iter()
                .map(|x| x.to_bits())
                .eq(row.iter().map(|x| x.to_bits()));
            mismatches += u64::from(!same);
        }
    }
    checks.check_many(
        "direct solo score differs from the batched call",
        kept.len() as u64,
        mismatches,
    );

    if !traced {
        values.set("setup_s", median(&totals));
        values.set("fit_s", fit_s);
        values.set("sat_rps", eval_rate);
        // No server here: the calls run on this thread and nothing in the
        // program recurs on a schedule, so the quietest part is the
        // program's figure and the rest is the host's.
        values.set("paced_p50_ms", paced.quiet_due_latency_ms(0.50));
        values.set("paced_p90_ms", paced.quiet_due_latency_ms(0.90));
        values.set("peak_rss_mb", peak_rss_mb());
        return Outcome { values, checks };
    }

    values.set("trace.overhead_ratio", eval_rate / untraced_rate.max(1e-9));
    times.record(&spec.fit, &backbone, &mut values);
    values.set("eval.examples_per_s", eval_rate);
    values.set("eval.hr_at_10", hr);
    values.set("eval.ndcg_at_10", ndcg);
    let lags = sorted(
        paced
            .samples
            .iter()
            .filter(|s| s.waited)
            .map(|s| s.lag.as_secs_f64() * 1e3)
            .collect(),
    );
    if !lags.is_empty() {
        values.set("serve.gen_lag_p99_ms", quantile_sorted(&lags, 0.99));
    }
    values.set("serve.latency_p99_ms", quantile_sorted(&from_due, 0.99));

    let layer_root = tracer.begin("layers", Tracer::ROOT, None);
    layers::measure(
        &LayerCtx {
            backbone: &backbone,
            rec: &model.inner,
            k_soft: spec.fit.k_soft,
            topk: false,
            serving: false,
            budget: Duration::from_secs_f64(left / 2.0),
            seed,
        },
        &tracer,
        layer_root,
        &mut values,
        &mut checks,
    );
    tracer.end(layer_root);

    crate::trace::write_file(NAME, &tracer, &mut checks);
    Outcome { values, checks }
}
