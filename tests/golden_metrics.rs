//! Golden-metrics regression test: the exact bits of HR@k / NDCG@k from a
//! fixed-seed tiny DELRec fit.
//!
//! Every layer below evaluation — data generation, LM pretraining, teacher
//! training, both DELRec stages, the grad-free scoring engine, and the
//! verbalizer — is seeded and ordered, so the end-to-end metrics are a pure
//! function of the seed. This test pins them as `f64` bit patterns (not
//! approximate comparisons): any change to arithmetic order, RNG
//! consumption, iteration order, or ranking tie-breaks anywhere in the
//! stack shows up here, even when the metric value only moves in the last
//! ulp.
//!
//! The bits do not depend on the host's libm: every `exp`/`tanh` on the
//! training and scoring paths is `delrec_tensor::vmath`'s pure-`f32`
//! arithmetic, fixed by IEEE-754 alone (`std`'s `f32::exp`/`tanh` forward to
//! libm, with platform-dependent precision, and are not used there).
//!
//! # Re-blessing
//!
//! When a change *intentionally* alters numerics (new op ordering, different
//! RNG schedule, a model change), re-bless the constants:
//!
//! ```text
//! cargo test --test golden_metrics -- --nocapture
//! ```
//!
//! The failure output (and a `golden metrics:` line printed on every run)
//! lists the observed `value (bits 0x…)` for each metric. Copy the new bit
//! patterns into `GOLDEN` below, and say in the commit message *why* the
//! numerics moved — this test failing is the only tripwire for silent
//! numeric drift, so never re-bless to paper over an unexplained diff.

use delrec::core::{
    build_teacher, pretrained_lm, DelRec, DelRecConfig, LmPreset, Pipeline, TeacherKind,
};
use delrec::data::synthetic::{DatasetProfile, SyntheticConfig};
use delrec::data::Split;
use delrec::eval::{evaluate, EvalConfig};
use delrec::lm::PretrainConfig;

/// `(label, k, blessed bits)` — HR@k and NDCG@k from the fixed-seed fit
/// below, plus MRR (k = 0 by convention).
const GOLDEN: &[(&str, usize, u64)] = &[
    ("hr", 1, 0x3FCAAAAAAAAAAAAB),
    ("hr", 5, 0x3FE1555555555555),
    ("hr", 10, 0x3FEAAAAAAAAAAAAB),
    ("ndcg", 5, 0x3FD77E2A476E3C25),
    ("ndcg", 10, 0x3FDD8BF5823D1514),
    ("mrr", 0, 0x3FD721DCC877321D),
];

/// FNV-1a over the bits of every fitted parameter (backbone, soft prompts,
/// adapters), in store order. HR/NDCG over 24 examples cannot see a last-ulp
/// drift in training; this can. Re-bless it by the procedure above.
const GOLDEN_PARAM_BITS: u64 = 0xF53F_45E3_0092_D51E;

/// The same checksum over the 1-layer LM straight out of MLM pretraining, so
/// a pretraining drift is told apart from a fitting one.
const GOLDEN_PRETRAINED_BITS: u64 = 0x8CF7_6215_6740_72E4;

/// The two-layer (`LmPreset::Xl`) stack, where a full encoder block feeds the
/// last one: its pretrained LM, then the fit (Stage 1 on a frozen backbone,
/// Stage 2 with AdaLoRA), dropout on throughout.
const GOLDEN_XL_PRETRAINED_BITS: u64 = 0xCD22_1A7D_5335_38D8;
const GOLDEN_XL_PARAM_BITS: u64 = 0xE4AA_B362_3038_279F;

fn fnv1a_param_bits(store: &delrec::tensor::ParamStore) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (_, _, t) in store.iter() {
        for byte in t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Print a checksum (the line the re-blessing procedure copies from) and
/// record a mismatch against its blessed value.
fn check_bits(name: &str, got: u64, blessed: u64, failures: &mut Vec<String>) {
    println!("golden metrics: {name} = {got:#018X}");
    if got != blessed {
        failures.push(format!("{name}: got {got:#018X}, blessed {blessed:#018X}"));
    }
}

#[test]
fn xl_training_is_bit_stable_across_builds() {
    let seed = 33;
    let data = SyntheticConfig::profile(DatasetProfile::MovieLens100K)
        .scaled(0.08)
        .generate(seed);
    let pipeline = Pipeline::build(&data);
    let lm = pretrained_lm(
        &data,
        &pipeline,
        LmPreset::Xl,
        &PretrainConfig {
            epochs: 1,
            max_sentences: Some(20),
            ..Default::default()
        },
        seed,
    );
    assert_eq!(
        lm.cfg.num_layers, 2,
        "the XL preset has a block before the last"
    );
    assert!(lm.cfg.dropout > 0.0, "dropout is on");
    let pretrained_bits = fnv1a_param_bits(lm.store());
    let teacher = build_teacher(&data, TeacherKind::SASRec, 1, Some(40), seed);
    let cfg = DelRecConfig::smoke(TeacherKind::SASRec);
    assert_eq!(cfg.lm, LmPreset::Xl);
    let model = DelRec::fit(&data, &pipeline, teacher.as_ref(), lm, &cfg);
    assert!(model.lm().adalora().is_some(), "Stage 2 ran with AdaLoRA");
    let mut failures = Vec::new();
    check_bits(
        "XL pretrained parameter bits",
        pretrained_bits,
        GOLDEN_XL_PRETRAINED_BITS,
        &mut failures,
    );
    check_bits(
        "XL fitted parameter bits",
        fnv1a_param_bits(model.lm().store()),
        GOLDEN_XL_PARAM_BITS,
        &mut failures,
    );
    assert!(
        failures.is_empty(),
        "XL training drifted — see the re-blessing procedure in this file's \
         header before updating:\n{}",
        failures.join("\n")
    );
}

#[test]
fn metrics_are_bit_stable_across_builds() {
    let seed = 33;
    let data = SyntheticConfig::profile(DatasetProfile::MovieLens100K)
        .scaled(0.08)
        .generate(seed);
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
        seed,
    );
    let pretrained_bits = fnv1a_param_bits(lm.store());
    let teacher = build_teacher(&data, TeacherKind::SASRec, 1, Some(40), seed);
    let mut cfg = DelRecConfig::smoke(TeacherKind::SASRec);
    cfg.lm = LmPreset::Large;
    let model = DelRec::fit(&data, &pipeline, teacher.as_ref(), lm, &cfg);

    let report = evaluate(
        &model,
        &data,
        Split::Test,
        &EvalConfig {
            max_examples: Some(24),
            ..Default::default()
        },
    );
    assert_eq!(report.len(), 24, "evaluation example count changed");

    let mut failures = Vec::new();
    let param_bits = fnv1a_param_bits(model.lm().store());
    check_bits(
        "pretrained parameter bits",
        pretrained_bits,
        GOLDEN_PRETRAINED_BITS,
        &mut failures,
    );
    check_bits(
        "fitted parameter bits",
        param_bits,
        GOLDEN_PARAM_BITS,
        &mut failures,
    );
    for &(label, k, want_bits) in GOLDEN {
        let got = match label {
            "hr" => report.hr(k),
            "ndcg" => report.ndcg(k),
            "mrr" => report.mrr(),
            other => unreachable!("unknown metric label {other}"),
        };
        let name = if k > 0 {
            format!("{label}@{k}")
        } else {
            label.to_string()
        };
        println!(
            "golden metrics: {name} = {got:.17} (bits {:#018X})",
            got.to_bits()
        );
        if got.to_bits() != want_bits {
            failures.push(format!(
                "{name}: got {got:.17} (bits {:#018X}), blessed bits {want_bits:#018X} \
                 ({:.17})",
                got.to_bits(),
                f64::from_bits(want_bits)
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden metrics drifted — see the re-blessing procedure in this \
         file's header before updating:\n{}",
        failures.join("\n")
    );
}
