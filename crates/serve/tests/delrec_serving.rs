//! End-to-end: a real (smoke-scale) fitted DelRec behind the serving
//! runtime. Pins the tentpole correctness bar — served scores are bitwise
//! identical to direct `score_candidates` calls even though the scheduler
//! coalesces concurrent requests into shared batched forwards, and served
//! top-k lists are bitwise the direct `recommend_top_k` although coalesced
//! requests share one retrieve-and-re-rank call — and that the model is
//! shared across threads without copies.

use delrec_core::{
    build_teacher, pretrained_lm, DelRec, DelRecConfig, LmPreset, Recommender, TeacherKind,
};
use delrec_data::synthetic::{DatasetProfile, SyntheticConfig};
use delrec_data::ItemId;
use delrec_eval::{Ranker, TopKRecommender};
use delrec_serve::{RecRequest, ServeConfig, ServeError, Server, TopKRequest};
use std::sync::Arc;
use std::time::Duration;

fn smoke_model() -> (DelRec, usize) {
    let ds = SyntheticConfig::profile(DatasetProfile::MovieLens100K)
        .scaled(0.08)
        .generate(9);
    let pipeline = delrec_core::Pipeline::build(&ds);
    let lm = pretrained_lm(
        &ds,
        &pipeline,
        LmPreset::Large,
        &delrec_lm::PretrainConfig {
            epochs: 1,
            max_sentences: Some(120),
            ..Default::default()
        },
        2,
    );
    let teacher = build_teacher(&ds, TeacherKind::SASRec, 1, Some(60), 5);
    let mut cfg = DelRecConfig::smoke(TeacherKind::SASRec);
    cfg.lm = LmPreset::Large;
    let n_items = ds.num_items();
    (
        DelRec::fit(&ds, &pipeline, teacher.as_ref(), lm, &cfg),
        n_items,
    )
}

#[test]
fn served_delrec_scores_are_bitwise_identical_to_direct_calls() {
    let (model, n_items) = smoke_model();
    let model = Arc::new(model);

    // A short window plus eager submission forces genuine coalescing.
    let server = Server::start(
        Arc::clone(&model),
        ServeConfig {
            max_batch: 8,
            batch_window: Duration::from_millis(5),
            session_shards: 4,
            max_history: 12,
            ..ServeConfig::default()
        },
    );
    let client = server.client();

    // Heterogeneous traffic: varying users, history lengths, candidate sets.
    // Replay the session semantics client-side (append delta, truncate) so we
    // know the exact history snapshot each request was scored against — the
    // store itself keeps advancing as later requests for the same user land.
    let item = |x: usize| ItemId((x % n_items) as u32);
    let max_history = 12;
    let mut sessions: std::collections::HashMap<u64, Vec<ItemId>> = Default::default();
    let mut inflight = Vec::new();
    for i in 0..24usize {
        let user = (i % 5) as u64;
        let delta: Vec<ItemId> = (0..(i % 4) + 1).map(|k| item(i * 3 + k)).collect();
        let cands: Vec<ItemId> = (0..6 + i % 5).map(|k| item(i * 7 + k + 1)).collect();
        let hist = sessions.entry(user).or_default();
        hist.extend_from_slice(&delta);
        if hist.len() > max_history {
            hist.drain(..hist.len() - max_history);
        }
        let snapshot = hist.clone();
        let handle = client
            .submit(RecRequest {
                user_id: user,
                recent_items: delta,
                candidates: cands.clone(),
                deadline: None,
            })
            .expect("admitted");
        inflight.push((user, handle, snapshot, cands));
    }

    let mut coalesced = 0usize;
    for (user, handle, hist, cands) in inflight {
        let resp = handle.wait().expect("deadline-free requests complete");
        let direct = model.score_candidates(&hist, &cands);
        assert_eq!(
            resp.scores, direct,
            "serving must never perturb scores (user {user})"
        );
        if resp.batch_size > 1 {
            coalesced += 1;
        }
    }
    // Sanity on the premise: at least some requests actually shared a
    // forward pass (all 24 were queued before the first 5 ms window closed
    // on this model's multi-ms forwards).
    assert!(
        coalesced > 0,
        "traffic never coalesced; test proves nothing"
    );

    let snap = server.shutdown();
    assert_eq!(snap.completed, 24);
    assert!(snap.mean_batch_size > 1.0);
}

#[test]
fn served_top_k_is_bitwise_the_direct_recommend_top_k_under_coalescing() {
    let (model, n_items) = smoke_model();
    let rec = Arc::new(Recommender::new(model));
    // A window longer than the whole flood: batches flush at max_batch, so
    // the 24 requests arrive as three coalesced handler calls.
    let server = Server::start_recommender(
        Arc::clone(&rec),
        ServeConfig {
            max_batch: 8,
            batch_window: Duration::from_millis(200),
            ..ServeConfig::default()
        },
    );
    let client = server.client();

    // One fresh user per request, so the session is exactly the history
    // sent; every history differs, so a row delivered to the wrong request
    // shows.
    let item = |x: usize| ItemId((x % n_items) as u32);
    let histories: Vec<Vec<ItemId>> = (0..24usize)
        .map(|i| (0..2 + i % 5).map(|j| item(i * 7 + j * 3 + 1)).collect())
        .collect();
    let handles: Vec<_> = histories
        .iter()
        .enumerate()
        .map(|(i, history)| {
            client
                .submit_topk(TopKRequest {
                    user_id: i as u64,
                    recent_items: history.clone(),
                    k: 10,
                    deadline: None,
                })
                .expect("admitted")
        })
        .collect();

    let bits = |items: &[(ItemId, f32)]| -> Vec<(u32, u32)> {
        items.iter().map(|&(id, s)| (id.0, s.to_bits())).collect()
    };
    for (i, (history, handle)) in histories.iter().zip(handles).enumerate() {
        let resp = handle.wait().expect("deadline-free requests complete");
        assert_eq!(resp.items.len(), 10);
        assert_eq!(
            bits(&resp.items),
            bits(&rec.recommend_top_k(history, 10)),
            "request {i}: served top-k must be bitwise the direct call"
        );
    }

    // Admission reads the fitted catalog through `Recommender` and
    // `DelRec`: an id past it, or a `k` above it, fails at submit.
    assert_eq!(rec.num_items(), Some(n_items));
    let submit = |recent_items: Vec<ItemId>, k| {
        client.submit_topk(TopKRequest {
            user_id: 99,
            recent_items,
            k,
            deadline: None,
        })
    };
    let rejected = |value| Some(ServeError::OutOfCatalog { value, n_items });
    assert_eq!(
        submit(vec![item(0), ItemId(n_items as u32)], 10).err(),
        rejected(n_items)
    );
    assert_eq!(
        submit(vec![item(0)], n_items + 1).err(),
        rejected(n_items + 1)
    );

    let snap = server.shutdown();
    assert_eq!(snap.completed, 24);
    assert!(
        snap.mean_topk_batch_size > 1.0,
        "top-k traffic never coalesced; test proves nothing: {snap:?}"
    );
}

#[test]
fn served_scores_do_not_depend_on_batch_composition() {
    let (model, n_items) = smoke_model();
    let model = Arc::new(model);
    let item = |x: usize| ItemId((x % n_items) as u32);
    let probe_hist: Vec<ItemId> = (0..5).map(|k| item(k * 11 + 2)).collect();
    let probe_cands: Vec<ItemId> = (0..9).map(|k| item(k * 5 + 3)).collect();

    // Serve the same probe request twice: once alone (B=1 naive loop), once
    // packed into a batch with unrelated traffic. Same bits both times.
    let solo = {
        let server = Server::start(Arc::clone(&model), ServeConfig::naive_loop());
        let resp = server
            .client()
            .submit(RecRequest {
                user_id: 1,
                recent_items: probe_hist.clone(),
                candidates: probe_cands.clone(),
                deadline: None,
            })
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(resp.batch_size, 1);
        resp.scores
    };

    let batched = {
        let server = Server::start(
            Arc::clone(&model),
            ServeConfig {
                max_batch: 8,
                batch_window: Duration::from_millis(20),
                ..ServeConfig::default()
            },
        );
        let client = server.client();
        let probe = client
            .submit(RecRequest {
                user_id: 1,
                recent_items: probe_hist.clone(),
                candidates: probe_cands.clone(),
                deadline: None,
            })
            .unwrap();
        let others: Vec<_> = (0..7usize)
            .map(|i| {
                client
                    .submit(RecRequest {
                        user_id: 100 + i as u64,
                        recent_items: (0..3).map(|k| item(i * 13 + k)).collect(),
                        candidates: (0..4 + i).map(|k| item(i * 17 + k + 5)).collect(),
                        deadline: None,
                    })
                    .unwrap()
            })
            .collect();
        let resp = probe.wait().unwrap();
        assert!(resp.batch_size > 1, "probe must share its forward");
        for o in others {
            o.wait().unwrap();
        }
        resp.scores
    };

    assert_eq!(
        solo, batched,
        "batchmates must not perturb a request's scores"
    );
}
