//! The full-catalog top-k serving path: a `start_recommender` server answers
//! [`TopKRequest`]s bitwise identically to calling the model's
//! `recommend_top_k` directly on the session history, shares sessions with
//! the candidate-scoring protocol, and rejects top-k on servers without a
//! recommendation path.

use delrec_data::ItemId;
use delrec_eval::{Ranker, ScoreRequest, TopKQuery, TopKRecommender};
use delrec_serve::{RecRequest, ServeConfig, ServeError, Server, TopKRequest};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic stand-in for the retrieve + re-rank pipeline: scores are a
/// hash of (history, item), top-k is brute force over a fixed catalog.
struct HashRecommender {
    n_items: u32,
}

impl HashRecommender {
    fn score(prefix: &[ItemId], candidate: ItemId) -> f32 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        for it in prefix {
            mix(u64::from(it.0) + 1);
        }
        mix(u64::from(candidate.0) + 1);
        (h >> 40) as f32 / (1u64 << 24) as f32
    }
}

impl Ranker for HashRecommender {
    fn name(&self) -> &str {
        "hash-recommender"
    }

    fn score_candidates(&self, prefix: &[ItemId], candidates: &[ItemId]) -> Vec<f32> {
        candidates.iter().map(|&c| Self::score(prefix, c)).collect()
    }

    fn score_candidates_batch(&self, requests: &[ScoreRequest<'_>]) -> Vec<Vec<f32>> {
        requests
            .iter()
            .map(|&(p, c)| self.score_candidates(p, c))
            .collect()
    }
}

impl TopKRecommender for HashRecommender {
    fn recommend_top_k_batch(&self, requests: &[TopKQuery<'_>]) -> Vec<Vec<(ItemId, f32)>> {
        requests
            .iter()
            .map(|&(prefix, k)| {
                let mut all: Vec<(ItemId, f32)> = (0..self.n_items)
                    .map(|j| (ItemId(j), Self::score(prefix, ItemId(j))))
                    .collect();
                all.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0 .0.cmp(&b.0 .0)));
                all.truncate(k);
                all
            })
            .collect()
    }
}

/// [`HashRecommender`] plus a record of the largest request set a single
/// `recommend_top_k_batch` call received — the observable that pins the
/// scheduler actually coalescing top-k requests into one handler call
/// instead of looping the solo path.
struct BatchTrackingRecommender {
    inner: HashRecommender,
    max_handler_batch: AtomicU64,
}

impl Ranker for BatchTrackingRecommender {
    fn name(&self) -> &str {
        "batch-tracking-recommender"
    }

    fn score_candidates(&self, prefix: &[ItemId], candidates: &[ItemId]) -> Vec<f32> {
        self.inner.score_candidates(prefix, candidates)
    }
}

impl TopKRecommender for BatchTrackingRecommender {
    fn recommend_top_k_batch(&self, requests: &[TopKQuery<'_>]) -> Vec<Vec<(ItemId, f32)>> {
        self.max_handler_batch
            .fetch_max(requests.len() as u64, Ordering::Relaxed);
        self.inner.recommend_top_k_batch(requests)
    }
}

fn bits(items: &[(ItemId, f32)]) -> Vec<(u32, u32)> {
    items.iter().map(|&(id, s)| (id.0, s.to_bits())).collect()
}

#[test]
fn served_topk_matches_direct_call_on_session_history() {
    let model = Arc::new(HashRecommender { n_items: 200 });
    let server = Server::start_recommender(Arc::clone(&model), ServeConfig::default());
    let client = server.client();

    let history: Vec<ItemId> = vec![ItemId(3), ItemId(17), ItemId(42)];
    let resp = client
        .recommend_topk(TopKRequest {
            user_id: 1,
            recent_items: history.clone(),
            k: 10,
            deadline: None,
        })
        .expect("served");
    assert_eq!(resp.items.len(), 10);
    assert_eq!(
        bits(&resp.items),
        bits(&model.recommend_top_k(&history, 10)),
        "served top-k must be bitwise identical to the direct call"
    );

    // A second request sends only the delta; the server scores against the
    // accumulated session history.
    let delta = vec![ItemId(7)];
    let mut full: Vec<ItemId> = history.clone();
    full.extend_from_slice(&delta);
    let resp2 = client
        .recommend_topk(TopKRequest {
            user_id: 1,
            recent_items: delta,
            k: 10,
            deadline: None,
        })
        .expect("served");
    assert_eq!(bits(&resp2.items), bits(&model.recommend_top_k(&full, 10)));
    server.shutdown();
}

#[test]
fn one_server_answers_both_protocols() {
    let model = Arc::new(HashRecommender { n_items: 100 });
    let server = Server::start_recommender(Arc::clone(&model), ServeConfig::default());
    let client = server.client();

    let cands = vec![ItemId(5), ItemId(6), ItemId(7)];
    let scored = client
        .recommend(RecRequest {
            user_id: 9,
            recent_items: vec![ItemId(1)],
            candidates: cands.clone(),
            deadline: None,
        })
        .expect("scored");
    assert_eq!(
        scored.scores,
        model.score_candidates(&[ItemId(1)], &cands),
        "candidate scoring still bitwise-matches the direct call"
    );

    let topk = client
        .recommend_topk(TopKRequest {
            user_id: 9,
            recent_items: vec![],
            k: 5,
            deadline: None,
        })
        .expect("served");
    // Both protocols share one session: the top-k history is [ItemId(1)].
    assert_eq!(
        bits(&topk.items),
        bits(&model.recommend_top_k(&[ItemId(1)], 5))
    );
    server.shutdown();
}

#[test]
fn plain_server_rejects_topk_and_zero_k_is_rejected_up_front() {
    let model = Arc::new(HashRecommender { n_items: 10 });
    let plain = Server::start(Arc::clone(&model), ServeConfig::default());
    let err = plain
        .client()
        .recommend_topk(TopKRequest {
            user_id: 1,
            recent_items: vec![],
            k: 3,
            deadline: None,
        })
        .expect_err("no top-k path");
    assert_eq!(err, ServeError::TopKUnsupported);
    plain.shutdown();

    let rec = Server::start_recommender(model, ServeConfig::default());
    let err = rec
        .client()
        .recommend_topk(TopKRequest {
            user_id: 1,
            recent_items: vec![],
            k: 0,
            deadline: None,
        })
        .expect_err("k = 0 asks for nothing");
    assert_eq!(err, ServeError::EmptyCandidates);
    rec.shutdown();
}

#[test]
fn flooded_topk_requests_coalesce_into_one_handler_call() {
    let model = Arc::new(BatchTrackingRecommender {
        inner: HashRecommender { n_items: 150 },
        max_handler_batch: AtomicU64::new(0),
    });
    // A wide window so only the size trigger flushes: 24 requests submitted
    // back-to-back must land as coalesced batches of max_batch, never solo.
    let cfg = ServeConfig {
        max_batch: 8,
        batch_window: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let server = Server::start_recommender(Arc::clone(&model), cfg);
    let client = server.client();

    let mut pending = Vec::new();
    for u in 0..24u64 {
        let history = vec![ItemId((u % 7) as u32), ItemId((u * 13 % 50) as u32)];
        let handle = client
            .submit_topk(TopKRequest {
                user_id: 100 + u,
                recent_items: history.clone(),
                k: 6,
                deadline: None,
            })
            .expect("admitted");
        pending.push((u, history, handle));
    }
    for (u, history, handle) in pending {
        let resp = handle.wait().expect("served");
        assert_eq!(
            bits(&resp.items),
            bits(&model.inner.recommend_top_k(&history, 6)),
            "user {u}: coalesced answer must be bitwise identical to direct"
        );
    }

    let coalesced = model.max_handler_batch.load(Ordering::Relaxed);
    assert!(
        coalesced > 1,
        "the handler must see whole batches, got max {coalesced}"
    );
    let snap = server.shutdown();
    assert!(
        snap.topk_batches >= 1 && snap.topk_batches < 24,
        "24 requests must flush in fewer than 24 top-k batches, got {}",
        snap.topk_batches
    );
    assert!(
        snap.mean_topk_batch_size > 1.0,
        "mean top-k batch size {} must show coalescing",
        snap.mean_topk_batch_size
    );
    assert_eq!(snap.completed, 24);
}

#[test]
fn expired_topk_deadline_is_shed_not_answered_late() {
    let model = Arc::new(HashRecommender { n_items: 50 });
    let server = Server::start_recommender(model, ServeConfig::default());
    // A deadline inside the batch window is unmeetable in the worst case:
    // admission sheds it immediately.
    let err = server
        .client()
        .recommend_topk(TopKRequest::with_budget(
            1,
            vec![],
            5,
            Duration::from_nanos(1),
        ))
        .expect_err("unmeetable");
    assert!(
        matches!(
            err,
            ServeError::DeadlineUnmeetable | ServeError::DeadlineExpired
        ),
        "got {err:?}"
    );
    server.shutdown();
}
