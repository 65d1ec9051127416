//! `core.rerank.winner_retrieval_rank`: a top-k batch of `B` requests records
//! `B` samples, each the retrieval position of one response's #1 item, so
//! each below that request's retrieval depth `max(retrieve_n, k)`.
//!
//! The suite holds one test and runs as its own process, so the global
//! registry's deltas count exactly this test's requests.

use delrec_core::{
    build_teacher, pretrained_lm, DelRec, DelRecConfig, LmPreset, Pipeline, RecommendConfig,
    Recommender, TeacherKind,
};
use delrec_data::synthetic::{DatasetProfile, SyntheticConfig};
use delrec_data::{ItemId, Split};
use delrec_eval::{TopKQuery, TopKRecommender};

#[test]
fn a_batch_records_each_winners_retrieval_rank_once() {
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
    let retrieve_n = 8;
    let rec = Recommender::with_config(model, RecommendConfig { retrieve_n });

    let mut histories: Vec<Vec<ItemId>> = ds.examples(Split::Test)[..4]
        .iter()
        .map(|e| e.prefix.clone())
        .collect();
    histories.push(Vec::new());
    let ks = [5, 20, 8, 1, 30];
    let requests: Vec<TopKQuery<'_>> = histories
        .iter()
        .zip(ks)
        .map(|(h, k)| (h.as_slice(), k))
        .collect();

    // Each response's winner and where retrieval placed it, from solo calls
    // made before the measured batch.
    let mut want_sum = 0;
    for &(h, k) in &requests {
        let depth = retrieve_n.max(k);
        let winner = rec.recommend(h, k)[0].0;
        let retrieved = rec.retrieve(h, depth);
        let pos = retrieved
            .iter()
            .position(|&(id, _)| id == winner)
            .expect("the winner was retrieved");
        assert!(pos < depth);
        want_sum += pos as u64;
    }

    let hist = delrec_obs::global().histogram("core.rerank.winner_retrieval_rank");
    let (count, sum) = (hist.count(), hist.sum());
    rec.recommend_top_k_batch(&requests);
    assert_eq!(hist.count() - count, requests.len() as u64);
    assert_eq!(hist.sum() - sum, want_sum);
}
