//! End-to-end integration: data generation → LM pretraining → teacher
//! training → DELRec two-stage fit → candidate-set evaluation, all through
//! the public facade crate.

use delrec::core::{
    build_teacher, pretrained_lm, DelRec, DelRecConfig, LmPreset, Pipeline, TeacherKind, Variant,
};
use delrec::data::synthetic::{DatasetProfile, SyntheticConfig};
use delrec::data::{Dataset, Split};
use delrec::eval::{evaluate, EvalConfig, Ranker};
use delrec::lm::{MiniLm, PretrainConfig};

fn tiny_world() -> (Dataset, Pipeline, MiniLm) {
    let data = SyntheticConfig::profile(DatasetProfile::MovieLens100K)
        .scaled(0.08)
        .generate(21);
    let pipeline = Pipeline::build(&data);
    let lm = pretrained_lm(
        &data,
        &pipeline,
        LmPreset::Large,
        &PretrainConfig {
            epochs: 1,
            max_sentences: Some(20),
            ..Default::default()
        },
        21,
    );
    (data, pipeline, lm)
}

fn smoke_cfg() -> DelRecConfig {
    DelRecConfig::smoke(TeacherKind::SASRec)
}

#[test]
fn full_pipeline_produces_a_working_ranker() {
    let (data, pipeline, lm) = tiny_world();
    let teacher = build_teacher(&data, TeacherKind::SASRec, 1, Some(40), 21);
    let mut cfg = smoke_cfg();
    cfg.lm = LmPreset::Large;
    let model = DelRec::fit(&data, &pipeline, teacher.as_ref(), lm, &cfg);

    // Both stages ran.
    assert!(!model.stage1_stats.lambdas.is_empty(), "stage 1 ran");
    assert!(!model.stage2_losses.is_empty(), "stage 2 ran");
    assert!(model.stage2_losses.iter().all(|l| l.is_finite()));

    // The evaluation protocol holds: positives are always among the m
    // candidates, so HR@m = 1.
    let cfg_eval = EvalConfig {
        max_examples: Some(12),
        ..Default::default()
    };
    let report = evaluate(&model, &data, Split::Test, &cfg_eval);
    assert_eq!(report.len(), 12);
    assert_eq!(report.hr(15), 1.0);
    // Metrics are monotone in k.
    assert!(report.hr(1) <= report.hr(5));
    assert!(report.hr(5) <= report.hr(10));
    assert!(report.ndcg(5) <= report.hr(5) + 1e-12);
}

#[test]
fn inference_is_deterministic() {
    let (data, pipeline, lm) = tiny_world();
    let teacher = build_teacher(&data, TeacherKind::SASRec, 1, Some(40), 21);
    let mut cfg = smoke_cfg();
    cfg.lm = LmPreset::Large;
    let model = DelRec::fit(&data, &pipeline, teacher.as_ref(), lm, &cfg);
    let ex = &data.examples(Split::Test)[0];
    let cands: Vec<_> = data.catalog.ids().take(5).collect();
    let a = model.score_candidates(&ex.prefix, &cands);
    let b = model.score_candidates(&ex.prefix, &cands);
    assert_eq!(a, b, "repeated inference must be bit-identical");
}

#[test]
fn every_ablation_variant_fits_and_ranks() {
    let (data, pipeline, lm) = tiny_world();
    let teacher = build_teacher(&data, TeacherKind::SASRec, 1, Some(40), 21);
    let variants = Variant::TABLE3
        .into_iter()
        .chain(Variant::TABLE4)
        .chain([Variant::Default]);
    for variant in variants {
        let mut cfg = smoke_cfg();
        cfg.lm = LmPreset::Large;
        cfg.variant = variant;
        let model = DelRec::fit(&data, &pipeline, teacher.as_ref(), lm.clone(), &cfg);
        let cands: Vec<_> = data.catalog.ids().take(4).collect();
        let ex = &data.examples(Split::Test)[0];
        let scores = model.score_candidates(&ex.prefix, &cands);
        assert_eq!(scores.len(), 4, "variant {}", variant.label());
        assert!(
            scores.iter().all(|s| s.is_finite()),
            "variant {}",
            variant.label()
        );
        // Structural checks per variant.
        assert_eq!(model.soft_prompt().is_some(), variant.uses_soft_prompts());
        assert_eq!(!model.stage2_losses.is_empty(), variant.runs_finetuning());
        assert_eq!(
            !model.stage1_stats.lambdas.is_empty(),
            variant.runs_distillation()
        );
    }
}

#[test]
fn all_three_teacher_backbones_distill() {
    let (data, pipeline, lm) = tiny_world();
    for kind in [
        TeacherKind::Caser,
        TeacherKind::GRU4Rec,
        TeacherKind::SASRec,
    ] {
        let teacher = build_teacher(&data, kind, 1, Some(30), 21);
        let mut cfg = DelRecConfig::smoke(kind);
        cfg.lm = LmPreset::Large;
        let model = DelRec::fit(&data, &pipeline, teacher.as_ref(), lm.clone(), &cfg);
        assert!(!model.stage2_losses.is_empty(), "{}", kind.name());
    }
}
