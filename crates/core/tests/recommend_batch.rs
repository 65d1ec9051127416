//! The pipeline pins. `recommend(h, k)` is, bit for bit, one Stage-2 prompt
//! showing the top 15 retrieved items with every retrieved item scored from
//! its `[mask]` row, and the 15 shown items score exactly as
//! `score_candidates` scores them. `Recommender::recommend_batch` (one
//! retriever pin, one batched catalog scan, one re-rank forward) is bitwise
//! identical to looping the sequential `recommend` — over ragged request
//! sets including empty histories, per-request `k`s larger than
//! `retrieve_n`, both index formats, and at `DELREC_THREADS` ∈ {1, 2, 4, 8}.
//!
//! One smoke model is fitted and shared across all the checks (fitting
//! dominates this test's runtime; the checks themselves are cheap): the
//! second index format gets a save/load copy of it.

use delrec_core::{
    build_teacher, pretrained_lm, DelRec, DelRecConfig, LmPreset, Pipeline, RecommendConfig,
    Recommender, TeacherKind,
};
use delrec_data::synthetic::{DatasetProfile, SyntheticConfig};
use delrec_data::{Dataset, ItemId, Split};
use delrec_eval::{Ranker, TopKQuery, TopKRecommender};
use delrec_par::{with_pool, ThreadPool};
use delrec_retrieval::{sort_ranked, IndexFormat};

const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Retrieved items the re-rank prompt shows (the paper's 15-way candidate
/// set, the prompt Stage 2 trains on).
const SHOWN: usize = 15;
/// Depths on both sides of `retrieve_n = 8` and of `SHOWN`: the 20s and 30s
/// score retrieved items the prompt does not show.
const PIN_KS: [usize; 4] = [1, 5, 20, 30];

fn bits(ranked: &[(ItemId, f32)]) -> Vec<(u32, u32)> {
    ranked.iter().map(|&(id, s)| (id.0, s.to_bits())).collect()
}

fn ids(ranked: &[(ItemId, f32)]) -> Vec<ItemId> {
    ranked.iter().map(|&(id, _)| id).collect()
}

/// The re-rank stage rebuilt from public parts: retrieve `max(retrieve_n,
/// k)`, score every retrieved item from the one prompt that shows the top
/// `SHOWN`, sort, keep `k`.
fn one_row_reference(rec: &Recommender, history: &[ItemId], k: usize) -> Vec<(ItemId, f32)> {
    let retrieved = ids(&rec.retrieve(history, rec.config().retrieve_n.max(k)));
    let shown = &retrieved[..SHOWN.min(retrieved.len())];
    let scores = rec
        .model()
        .score_items_batch(&[(history, shown, &retrieved)])
        .pop()
        .expect("one score row");
    let mut ranked: Vec<(ItemId, f32)> = retrieved.into_iter().zip(scores).collect();
    sort_ranked(&mut ranked);
    ranked.truncate(k);
    ranked
}

fn smoke_dataset() -> (Dataset, Pipeline) {
    let ds = SyntheticConfig::profile(DatasetProfile::MovieLens100K)
        .scaled(0.08)
        .generate(23);
    let pipeline = Pipeline::build(&ds);
    (ds, pipeline)
}

fn smoke_config() -> DelRecConfig {
    let mut cfg = DelRecConfig::smoke(TeacherKind::SASRec);
    cfg.lm = LmPreset::Large;
    cfg
}

/// A recommender over a save/load copy of `rec`'s model: identical
/// parameters, an empty retriever slot, and its own pipeline configuration.
fn restored(rec: &Recommender, cfg: RecommendConfig) -> Recommender {
    let mut blob = Vec::new();
    rec.model().save(&mut blob).expect("serialize");
    let (_, pipeline) = smoke_dataset();
    let model = DelRec::load(&pipeline, &smoke_config(), &mut blob.as_slice()).expect("restore");
    Recommender::with_config(model, cfg)
}

fn smoke_recommender() -> (Recommender, Vec<Vec<ItemId>>) {
    let (ds, pipeline) = smoke_dataset();
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
    let model = DelRec::fit(&ds, &pipeline, teacher.as_ref(), lm, &smoke_config());
    // A small retrieve_n so the k > retrieve_n requests below actually
    // exercise the per-request max(retrieve_n, k) depth widening.
    let rec = Recommender::with_config(
        model,
        RecommendConfig {
            retrieve_n: 8,
            ..Default::default()
        },
    );
    // Ragged histories: real test prefixes of varying length, a one-item
    // history, and the empty cold start.
    let mut histories: Vec<Vec<ItemId>> = ds.examples(Split::Test)[..4]
        .iter()
        .map(|e| e.prefix.clone())
        .collect();
    histories.push(vec![ItemId(1)]);
    histories.push(Vec::new());
    (rec, histories)
}

#[test]
fn recommend_batch_is_bitwise_sequential_across_threads_and_modes() {
    let (rec, histories) = smoke_recommender();
    let refs: Vec<&[ItemId]> = histories.iter().map(|h| h.as_slice()).collect();
    // Per-request depths straddling retrieve_n = 8 (the 20s force the
    // widened retrieval depth path).
    let ks: [usize; 6] = [5, 20, 8, 3, 20, 1];
    let requests: Vec<TopKQuery<'_>> = refs.iter().zip(ks).map(|(&h, k)| (h, k)).collect();

    let q8 = restored(
        &rec,
        RecommendConfig {
            index_format: IndexFormat::Q8,
            ..rec.config().clone()
        },
    );
    for rec in [&rec, &q8] {
        let mode = rec.config().index_format;
        let serial = ThreadPool::new(1);
        let want: Vec<_> = with_pool(&serial, || {
            requests
                .iter()
                .map(|&(h, k)| bits(&rec.recommend(h, k)))
                .collect()
        });
        for &t in &THREADS {
            let pool = ThreadPool::new(t);
            let got: Vec<_> = with_pool(&pool, || {
                rec.recommend_top_k_batch(&requests)
                    .iter()
                    .map(|row| bits(row))
                    .collect()
            });
            assert_eq!(want, got, "{mode:?} batch diverged at {t} threads");
        }

        // Uniform-k wrapper against the same sequential reference.
        let k = 10;
        let want_uniform: Vec<_> = with_pool(&serial, || {
            refs.iter().map(|&h| bits(&rec.recommend(h, k))).collect()
        });
        let got_uniform: Vec<_> = rec
            .recommend_batch(&refs, k)
            .iter()
            .map(|row| bits(row))
            .collect();
        assert_eq!(want_uniform, got_uniform, "{mode:?} uniform-k diverged");
    }

    // Degenerate shapes.
    assert!(rec.recommend_top_k_batch(&[]).is_empty());
    let solo = rec.recommend_top_k_batch(&[(refs[0], 4)]);
    assert_eq!(solo.len(), 1);
    assert_eq!(bits(&solo[0]), bits(&rec.recommend(refs[0], 4)));
}

#[test]
fn recommend_is_one_prompt_scoring_every_retrieved_item() {
    let (rec, histories) = smoke_recommender();
    assert_eq!(rec.model().config().m_candidates, SHOWN);
    for h in &histories {
        for k in PIN_KS {
            assert_eq!(
                bits(&rec.recommend(h, k)),
                bits(&one_row_reference(&rec, h, k)),
                "history {h:?}, k {k}"
            );
        }
    }
}

#[test]
fn shown_items_score_as_their_candidate_set_engine_on_and_off() {
    let (mut rec, histories) = smoke_recommender();
    let depth = *PIN_KS.iter().max().unwrap();
    for engine in [true, false] {
        rec.model_mut().set_inference_engine(engine);
        for h in &histories {
            let retrieved = ids(&rec.retrieve(h, depth));
            assert!(retrieved.len() > SHOWN, "the pin needs unshown items");
            let shown = &retrieved[..SHOWN];
            let one_row = rec
                .model()
                .score_items_batch(&[(h, shown, &retrieved)])
                .pop()
                .expect("one score row");
            let candidates = rec.score_candidates(h, shown);
            let as_bits = |s: &[f32]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                as_bits(&one_row[..SHOWN]),
                as_bits(&candidates),
                "engine {engine}, history {h:?}"
            );
        }
    }
}

#[test]
fn parallel_embedding_export_matches_serial_bitwise() {
    // The export runs inside retriever construction; force a fresh build per
    // thread count via a save/load round-trip (empty cache, identical
    // parameters) and compare full catalog rankings, which are a function of
    // every exported row.
    let (rec, histories) = smoke_recommender();
    let history = histories[0].as_slice();
    let make_fresh = || restored(&rec, RecommendConfig::default());

    let serial = ThreadPool::new(1);
    let want = with_pool(&serial, || {
        bits(&make_fresh().retrieve(history, usize::MAX))
    });
    for &t in &THREADS[1..] {
        let pool = ThreadPool::new(t);
        let got = with_pool(&pool, || bits(&make_fresh().retrieve(history, usize::MAX)));
        assert_eq!(want, got, "exported embeddings diverged at {t} threads");
    }
}
