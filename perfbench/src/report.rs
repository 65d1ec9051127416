//! The metric tables and the result line.
//!
//! Every metric the benchmark prints is declared here, with its unit, which
//! way is better and — for per-layer metrics — the end-to-end metric it is
//! expected to move and on which workload. `BENCHMARK.json` carries the same
//! names; a unit test keeps the two in step.

use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, `layer.metric` for per-layer metrics.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End to end: share of the parent's median the metric may worsen by.
    /// Per layer: `None` (no bound).
    pub bound: Option<f64>,
    /// Per layer: the end-to-end metric this should move, and where.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        moves,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; measured with tracing off. Every
/// workload reports every one of them (the offline workload's reading of
/// each is in the README).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("fit_s", "s", Lower, 0.25),
    e2e("sat_rps", "1/s", Higher, 0.25),
    e2e("paced_p50_ms", "ms", Lower, 0.25),
    e2e("paced_p90_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// Single layers; measured in a traced run. A metric of a layer the
/// workload bypasses reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Set-up stages → setup_s on every workload.
    layer("data.dataset_build_s", "s", Lower, "setup_s, all"),
    layer("core.pipeline_build_s", "s", Lower, "setup_s, topk_scan"),
    layer("lm.pretrain_s", "s", Lower, "setup_s, all"),
    layer("seqrec.teacher_train_s", "s", Lower, "setup_s, all"),
    layer("core.fit_s", "s", Lower, "fit_s, all"),
    layer("retrieval.index_build_s", "s", Lower, "setup_s, topk_scan"),
    layer("serve.start_s", "s", Lower, "setup_s, serving"),
    layer("tensor.pack_b_us", "us", Lower, "setup_s, topk_scan"),
    layer(
        "core.fit_examples_per_s",
        "1/s",
        Higher,
        "fit_s, offline_fit_eval",
    ),
    layer("seqrec.score_us", "us", Lower, "fit_s, offline_fit_eval"),
    // LM and prompt scoring at batch 1 → paced latency where the LM works.
    layer(
        "lm.forward_us_per_prompt_b1",
        "us",
        Lower,
        "paced_p50_ms, topk_rerank score_sessions",
    ),
    layer(
        "core.prompt_build_us",
        "us",
        Lower,
        "paced_p50_ms, topk_rerank score_sessions",
    ),
    layer(
        "lm.verbalize_us",
        "us",
        Lower,
        "paced_p50_ms, topk_rerank score_sessions",
    ),
    layer(
        "core.score_us_b1",
        "us",
        Lower,
        "paced_p50_ms, topk_rerank score_sessions offline_fit_eval",
    ),
    layer(
        "core.recommend_us_b1",
        "us",
        Lower,
        "paced_p50_ms, topk_rerank topk_scan",
    ),
    // ... and at batch 32 → saturation throughput.
    layer(
        "lm.forward_us_per_prompt_b32",
        "us",
        Lower,
        "sat_rps, topk_rerank score_sessions",
    ),
    layer(
        "lm.tokens_per_s_b32",
        "1/s",
        Higher,
        "sat_rps, topk_rerank score_sessions",
    ),
    layer(
        "core.score_us_per_req_b32",
        "us",
        Lower,
        "sat_rps, topk_rerank score_sessions offline_fit_eval",
    ),
    layer(
        "core.recommend_us_per_req_b32",
        "us",
        Lower,
        "sat_rps, topk_rerank topk_scan",
    ),
    layer(
        "core.batch_gain",
        "ratio",
        Higher,
        "sat_rps: the ceiling coalescing can reach",
    ),
    layer(
        "core.rerank_share_b1",
        "ratio",
        Lower,
        "dominance check: >=0.90 topk_rerank, <=0.25 topk_scan",
    ),
    // Caches the scoring path consults (ratios of useful outcomes).
    layer(
        "core.prefix_cache_hit_ratio",
        "ratio",
        Higher,
        "sat_rps paced_p50_ms, score_sessions",
    ),
    layer(
        "lm.weight_pack_hit_ratio",
        "ratio",
        Higher,
        "sat_rps, serving; fit_s if training taxes packs",
    ),
    layer(
        "lm.title_cache_hit_ratio",
        "ratio",
        Higher,
        "sat_rps, score_sessions",
    ),
    layer(
        "tensor.pool_hit_ratio",
        "ratio",
        Higher,
        "sat_rps fit_s, all",
    ),
    // Retrieval → topk_scan only.
    layer(
        "retrieval.encode_us",
        "us",
        Lower,
        "paced_p50_ms, topk_scan",
    ),
    layer(
        "retrieval.scan_us_b1",
        "us",
        Lower,
        "paced_p50_ms, topk_scan",
    ),
    layer("retrieval.topk_us", "us", Lower, "paced_p50_ms, topk_scan"),
    layer(
        "retrieval.retrieve_us_b1",
        "us",
        Lower,
        "paced_p50_ms, topk_scan",
    ),
    layer(
        "retrieval.scan_us_per_row_b32",
        "us",
        Lower,
        "sat_rps, topk_scan",
    ),
    layer(
        "retrieval.index_bytes",
        "B",
        Lower,
        "peak_rss_mb, topk_scan",
    ),
    layer(
        "retrieval.recall_at_100",
        "ratio",
        Higher,
        "guards an approximate index; 1.0 today",
    ),
    layer(
        "retrieval.scan_gbytes_s",
        "GB/s",
        Higher,
        "sat_rps, topk_scan",
    ),
    layer(
        "retrieval.scan_pct_bandwidth",
        "%",
        Higher,
        "headroom of the scan kernel",
    ),
    layer(
        "par.lanes",
        "count",
        Higher,
        "sat_rps, topk_scan on a host with cores to spare",
    ),
    layer("par.dispatch_us", "us", Lower, "sat_rps, topk_scan"),
    layer("par.scan_speedup", "ratio", Higher, "sat_rps, topk_scan"),
    // Kernels as operation counts and computed bytes over time.
    layer(
        "tensor.gemm_lm_gflops",
        "GFLOP/s",
        Higher,
        "sat_rps, topk_rerank",
    ),
    layer(
        "tensor.gemm_scan_gflops",
        "GFLOP/s",
        Higher,
        "sat_rps, topk_scan",
    ),
    layer(
        "tensor.gemm_q8_scan_gflops",
        "GFLOP/s",
        Higher,
        "decides q8: sat_rps, topk_scan",
    ),
    layer(
        "host.fma_gflops",
        "GFLOP/s",
        Higher,
        "the host, not the program",
    ),
    layer(
        "host.triad_gbytes_s",
        "GB/s",
        Higher,
        "the host, not the program",
    ),
    layer(
        "tensor.gemm_lm_pct_peak",
        "%",
        Higher,
        "headroom of the LM GEMM",
    ),
    // Serving.
    layer(
        "serve.submit_us",
        "us",
        Lower,
        "sat_rps paced_p50_ms, score_sessions",
    ),
    layer(
        "serve.session_append_us",
        "us",
        Lower,
        "sat_rps, score_sessions",
    ),
    layer(
        "serve.wal_append_us",
        "us",
        Lower,
        "sat_rps, score_sessions",
    ),
    layer(
        "serve.wal_bytes_per_req",
        "B",
        Lower,
        "sat_rps, score_sessions",
    ),
    layer(
        "serve.overhead_us_per_req",
        "us",
        Lower,
        "sat_rps, score_sessions",
    ),
    layer(
        "serve.overhead_share",
        "ratio",
        Lower,
        "largest on score_sessions",
    ),
    layer(
        "serve.queue_wait_p50_ms",
        "ms",
        Lower,
        "paced_p50_ms, serving",
    ),
    layer(
        "serve.queue_wait_p99_ms",
        "ms",
        Lower,
        "paced_p90_ms, serving",
    ),
    layer(
        "serve.paced_mean_batch",
        "count",
        Lower,
        "paced_p50_ms, serving",
    ),
    layer("serve.sat_mean_batch", "count", Higher, "sat_rps, serving"),
    layer("serve.rejected", "count", Lower, "failed requests"),
    layer("serve.shed", "count", Lower, "failed requests"),
    layer("serve.timed_out", "count", Lower, "failed requests"),
    layer(
        "serve.queue_depth_end",
        "count",
        Lower,
        "a growing backlog at the frozen rate",
    ),
    layer(
        "serve.recover_s",
        "s",
        Lower,
        "informational, score_sessions",
    ),
    layer(
        "serve.latency_p99_ms",
        "ms",
        Lower,
        "informational: too noisy for a bound",
    ),
    layer(
        "serve.gen_lag_p99_ms",
        "ms",
        Lower,
        "generator lateness: a warning at 10% of paced_p50_ms",
    ),
    // Evaluation and quality.
    layer(
        "eval.examples_per_s",
        "1/s",
        Higher,
        "sat_rps, offline_fit_eval",
    ),
    layer(
        "eval.hr_at_10",
        "ratio",
        Higher,
        "quality, offline_fit_eval; exact per seed",
    ),
    layer(
        "eval.ndcg_at_10",
        "ratio",
        Higher,
        "quality, offline_fit_eval; exact per seed",
    ),
    // Instrumentation.
    layer(
        "obs.span_disabled_ns",
        "ns",
        Lower,
        "everything: the hot path pays it per span site",
    ),
    layer(
        "trace.overhead_ratio",
        "ratio",
        Higher,
        "traced / untraced sat_rps",
    ),
    layer(
        "waterfall.coverage_ratio",
        "ratio",
        Higher,
        "share of served latency the outside spans explain",
    ),
];

/// Metric values of one run, by declared name.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Record `value` under a declared name. Panics on an undeclared one:
    /// that is a bug in the benchmark, not a measurement.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric {name} is not declared"
        );
        self.0.insert(name, value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Output checks and request counts of one run.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Requests sent plus output checks made.
    pub attempted: u64,
    /// Requests refused, shed, timed out or errored, plus failed checks.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one output check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }

    /// Count `n` identical checks of which `bad` failed.
    pub fn check_many(&mut self, what: &str, n: u64, bad: u64) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            self.failures.push(format!("{what}: {bad} of {n}"));
        }
    }

    /// Count requests sent and failed.
    pub fn requests(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures
                .push(format!("{failed} of {attempted} requests failed"));
        }
    }

    /// Whether every check passed and no request failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Result of one run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Metric values.
    pub values: Values,
    /// Checks and request counts.
    pub checks: Checks,
}

/// The metrics a run in this mode prints, each with its value (a bypassed
/// layer's metric reads 0; a missing end-to-end metric is a bug).
pub fn printed(outcome: &Outcome, traced: bool) -> Vec<(&'static MetricDef, f64)> {
    let defs = if traced { PER_LAYER } else { END_TO_END };
    defs.iter()
        .map(|def| {
            let v = match outcome.values.get(def.name) {
                Some(v) => v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {} was not measured", def.name),
            };
            (def, v)
        })
        .collect()
}

/// The last line of standard output: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`. Values print with every
/// digit `f64` carries.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let metrics: Vec<String> = printed(outcome, traced)
        .into_iter()
        .map(|(def, v)| {
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.checks.correct(),
        outcome.checks.attempted.max(1),
        outcome.checks.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contracts_limits() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} declared twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        // Set-up time gets the largest bound, and no bound exceeds 0.25.
        for m in END_TO_END {
            let b = m.bound.unwrap();
            assert!(b <= setup.bound.unwrap() && b <= 0.25);
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contracts_keys() {
        let mut outcome = Outcome::default();
        for m in END_TO_END {
            outcome.values.set(m.name, 1.25);
        }
        outcome.checks.requests(10, 0);
        let line = result_line(&outcome, false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
        // A traced run prints every per-layer metric, 0 for bypassed layers.
        let line = result_line(&Outcome::default(), true);
        assert_eq!(line.matches("\"value\"").count(), PER_LAYER.len());
        outcome.checks.check("x", false);
        assert!(result_line(&outcome, false).starts_with("{\"correct\": false"));
    }

    /// `BENCHMARK.json` sits at the repository root, outside this package;
    /// where the package is checked out alone the file is not there and the
    /// comparison is skipped.
    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.word(),
                m.bound.unwrap()
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.word()
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = text.matches("\"better\"").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }
}
