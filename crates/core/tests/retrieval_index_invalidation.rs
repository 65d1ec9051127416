//! What is the recommender's own about its retriever slot (the slot's
//! policy is pinned once, beside `delrec_tensor::VersionedSlot`): a
//! parameter-store version bump rebuilds the `ItemIndex` from *re-exported*
//! embeddings, bitwise identical to a fresh build, and the
//! `retrieval.index.{build,hit}` counters follow the slot.
//!
//! The slot is internal to [`Recommender`], so the test observes it through
//! its public surfaces: the `retrieval.index.{build,hit}` counters and the
//! retrieved `(item, score)` lists themselves. The fresh-build reference is
//! a second `Recommender` over a save/load round-trip of the mutated model:
//! the restored model has identical parameters but an empty slot, so it
//! must build from scratch.
//!
//! Counters are process-global and tests share the process, so assertions
//! compare deltas as *at least*, never exact totals.

use delrec_core::{
    build_teacher, pretrained_lm, DelRec, DelRecConfig, LmPreset, Pipeline, Recommender,
    TeacherKind,
};
use delrec_data::synthetic::{DatasetProfile, SyntheticConfig};
use delrec_data::{ItemId, Split};
use delrec_obs::MetricValue;

fn counter(name: &str) -> u64 {
    delrec_obs::global()
        .snapshot()
        .into_iter()
        .find_map(|(n, v)| match v {
            MetricValue::Counter(c) if n == name => Some(c),
            _ => None,
        })
        .unwrap_or(0)
}

fn bits(ranked: &[(ItemId, f32)]) -> Vec<(u32, u32)> {
    ranked.iter().map(|&(id, s)| (id.0, s.to_bits())).collect()
}

#[test]
fn version_bump_and_mode_switch_rebuild_bitwise_identical_to_fresh() {
    let ds = SyntheticConfig::profile(DatasetProfile::MovieLens100K)
        .scaled(0.08)
        .generate(23);
    let pipeline = Pipeline::build(&ds);
    let lm = pretrained_lm(
        &ds,
        &pipeline,
        LmPreset::Large,
        &delrec_lm::PretrainConfig {
            epochs: 1,
            max_sentences: Some(20),
            ..Default::default()
        },
        2,
    );
    let teacher = build_teacher(&ds, TeacherKind::SASRec, 1, Some(30), 5);
    let mut cfg = DelRecConfig::smoke(TeacherKind::SASRec);
    cfg.lm = LmPreset::Large;
    let model = DelRec::fit(&ds, &pipeline, teacher.as_ref(), lm, &cfg);
    let mut rec = Recommender::new(model);
    let history: Vec<ItemId> = ds.examples(Split::Test)[0].prefix.clone();
    let n = 20;

    // First retrieve builds the index; a repeat must hit the cached one.
    let b0 = counter("retrieval.index.build");
    let h0 = counter("retrieval.index.hit");
    let before = rec.retrieve(&history, n);
    assert!(
        counter("retrieval.index.build") > b0,
        "first retrieve must build the index"
    );
    let b1 = counter("retrieval.index.build");
    let again = rec.retrieve(&history, n);
    assert_eq!(bits(&before), bits(&again), "cached index changes nothing");
    assert_eq!(
        counter("retrieval.index.build"),
        b1,
        "same-version retrieve must not rebuild"
    );
    assert!(
        counter("retrieval.index.hit") > h0,
        "same-version retrieve must hit the cache"
    );

    // A parameter write to the *embedding table* bumps the store version:
    // the next retrieve must rebuild, and with different scores (otherwise
    // this proves nothing). Shift every token row so every title embedding
    // moves — a single element might belong to a token no title uses.
    {
        let lm = rec.model_mut().lm_mut();
        let id = lm.store().id_of("lm.tok_emb").expect("token embedding");
        for v in lm.store_mut().get_mut(id).data_mut() {
            *v += 0.5;
        }
    }
    let b2 = counter("retrieval.index.build");
    let rebuilt = rec.retrieve(&history, n);
    assert!(
        counter("retrieval.index.build") > b2,
        "stale version must force a rebuild"
    );
    assert_ne!(
        bits(&before),
        bits(&rebuilt),
        "the embedding write must actually change retrieval scores"
    );

    // Fresh-build reference: a save/load round-trip has identical parameters
    // but an empty retriever cache.
    let mut blob = Vec::new();
    rec.model().save(&mut blob).expect("serialize");
    let restored = DelRec::load(&pipeline, &cfg, &mut blob.as_slice()).expect("restore");
    let fresh = Recommender::new(restored);
    let b3 = counter("retrieval.index.build");
    let fresh_scores = fresh.retrieve(&history, n);
    assert!(
        counter("retrieval.index.build") > b3,
        "a fresh recommender must not inherit the cache"
    );
    assert_eq!(
        bits(&rebuilt),
        bits(&fresh_scores),
        "rebuild must be bitwise identical to a fresh build"
    );
}
