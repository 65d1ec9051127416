//! Property-based verification of the serving scheduler: however requests
//! arrive and however the batch window coalesces them, every response's
//! scores are identical to unbatched direct scoring, and deadline-carrying
//! requests are never silently answered late.

use delrec_data::ItemId;
use delrec_eval::Ranker;
use delrec_serve::{ranking_of, RecRequest, ServeConfig, ServeError, Server};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic stand-in model: each candidate's score is a hash of the
/// exact `(prefix, candidate)` pair, so any deviation in the history the
/// server scored against — wrong session snapshot, cross-request
/// contamination, reordered candidates — changes the score.
struct HashRanker {
    /// Batched-entry-point call count, to prove coalescing actually happened.
    batch_calls: AtomicU64,
}

impl HashRanker {
    fn new() -> Self {
        HashRanker {
            batch_calls: AtomicU64::new(0),
        }
    }

    fn hash_score(prefix: &[ItemId], candidate: ItemId) -> f32 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        for it in prefix {
            mix(u64::from(it.0) + 1);
        }
        mix(u64::from(candidate.0) + 1);
        (h >> 40) as f32 / (1u64 << 24) as f32
    }
}

impl Ranker for HashRanker {
    fn name(&self) -> &str {
        "hash-ranker"
    }

    fn score_candidates(&self, prefix: &[ItemId], candidates: &[ItemId]) -> Vec<f32> {
        candidates
            .iter()
            .map(|&c| Self::hash_score(prefix, c))
            .collect()
    }

    fn score_candidates_batch(&self, requests: &[delrec_eval::ScoreRequest<'_>]) -> Vec<Vec<f32>> {
        self.batch_calls.fetch_add(1, Ordering::Relaxed);
        requests
            .iter()
            .map(|&(p, c)| self.score_candidates(p, c))
            .collect()
    }
}

/// One generated request: a user, a history delta, and a candidate set.
#[derive(Clone, Debug)]
struct GenReq {
    user: u64,
    delta: Vec<u32>,
    candidates: Vec<u32>,
}

/// Strategy for a burst of requests (the vendored proptest has no tuple
/// strategies or `prop_map`, so this implements [`Strategy`] directly by
/// composing the primitive strategies).
struct GenReqs {
    max: usize,
}

impl Strategy for GenReqs {
    type Value = Vec<GenReq>;

    fn sample(&self, rng: &mut TestRng) -> Vec<GenReq> {
        let n = (1usize..=self.max).sample(rng);
        (0..n)
            .map(|_| GenReq {
                user: (0u64..6).sample(rng),
                delta: prop::collection::vec(0u32..500, 0..8).sample(rng),
                candidates: prop::collection::vec(0u32..500, 1..12).sample(rng),
            })
            .collect()
    }
}

fn gen_requests(max: usize) -> GenReqs {
    GenReqs { max }
}

fn ids(xs: &[u32]) -> Vec<ItemId> {
    xs.iter().map(|&x| ItemId(x)).collect()
}

/// Replay the server's session semantics client-side: append the delta to
/// the user's history, truncate to `max_history`, snapshot.
fn replay_session(hist: &mut Vec<ItemId>, delta: &[ItemId], max_history: usize) -> Vec<ItemId> {
    hist.extend_from_slice(delta);
    if hist.len() > max_history {
        hist.drain(..hist.len() - max_history);
    }
    hist.clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The correctness bar of the runtime: for any arrival sequence, batch
    /// size, and batch window — i.e. for any way the scheduler slices the
    /// stream into micro-batches — every served score vector is **bitwise**
    /// what direct unbatched `score_candidates` returns on the same session
    /// history, and the ranking matches it.
    #[test]
    fn coalescing_never_changes_scores(
        reqs in gen_requests(40),
        max_batch in 1usize..=16,
        window_us in prop_oneof![Just(0u64), 1u64..=3000],
    ) {
        let model = Arc::new(HashRanker::new());
        let max_history = 10;
        let server = Server::start(Arc::clone(&model), ServeConfig {
            max_batch,
            batch_window: Duration::from_micros(window_us),
            max_queue: 4096,
            session_shards: 4,
            max_history,
            persistence: None,
        });
        let client = server.client();

        // Submit everything without waiting, so the scheduler sees real
        // queue depth and actually coalesces.
        let mut sessions: std::collections::HashMap<u64, Vec<ItemId>> = Default::default();
        let mut inflight = Vec::new();
        for r in &reqs {
            let delta = ids(&r.delta);
            let expected_hist = replay_session(
                sessions.entry(r.user).or_default(), &delta, max_history);
            let handle = client.submit(RecRequest {
                user_id: r.user,
                recent_items: delta,
                candidates: ids(&r.candidates),
                deadline: None,
            }).expect("no deadline, deep queue: always admitted");
            inflight.push((handle, expected_hist, ids(&r.candidates)));
        }

        for (handle, hist, cands) in inflight {
            let resp = handle.wait().expect("deadline-free requests always answer");
            let direct = model.score_candidates(&hist, &cands);
            prop_assert_eq!(&resp.scores, &direct,
                "served scores must be bitwise identical to direct scoring");
            prop_assert_eq!(&resp.ranking, &ranking_of(&direct));
            prop_assert!(resp.batch_size >= 1 && resp.batch_size <= max_batch);
        }

        let snap = server.shutdown();
        prop_assert_eq!(snap.completed, reqs.len() as u64);
        prop_assert_eq!(snap.submitted, reqs.len() as u64);
        // Coalescing bookkeeping holds regardless of how batches formed.
        prop_assert_eq!(snap.batches, model.batch_calls.load(Ordering::Relaxed));
        prop_assert!(snap.batches <= snap.completed);
    }

    /// Deadline discipline: every deadline-carrying request is either
    /// answered within its budget (as the server measured it, at score
    /// completion) or refused with a deadline error — never silently late,
    /// never dropped without an answer. The metrics ledger must account for
    /// every submitted request.
    #[test]
    fn expired_deadlines_are_shed_never_silently_late(
        reqs in gen_requests(30),
        budget_us in prop_oneof![Just(0u64), 1u64..=200, 500u64..=100_000],
        max_batch in 1usize..=8,
    ) {
        let model = Arc::new(HashRanker::new());
        let server = Server::start(Arc::clone(&model), ServeConfig {
            max_batch,
            batch_window: Duration::from_micros(100),
            max_queue: 4096,
            session_shards: 4,
            max_history: 10,
            persistence: None,
        });
        let client = server.client();
        let budget = Duration::from_micros(budget_us);

        let mut accepted = 0u64;
        let mut rejected_at_admission = 0u64;
        let mut outcomes = Vec::new();
        for r in &reqs {
            let deadline = Instant::now() + budget;
            match client.submit(RecRequest {
                user_id: r.user,
                recent_items: ids(&r.delta),
                candidates: ids(&r.candidates),
                deadline: Some(deadline),
            }) {
                Ok(h) => { accepted += 1; outcomes.push((h, budget)); }
                Err(ServeError::DeadlineUnmeetable) => rejected_at_admission += 1,
                Err(e) => panic!("unexpected reject: {e}"),
            }
        }

        let mut completed = 0u64;
        let mut shed = 0u64;
        for (h, budget) in outcomes {
            match h.wait() {
                Ok(resp) => {
                    completed += 1;
                    // Server-measured completion time respected the budget:
                    // latency = score-done − submit, and submit ≥ the instant
                    // the deadline clock started.
                    prop_assert!(resp.latency <= budget,
                        "answered {:?} past a {:?} budget", resp.latency, budget);
                }
                Err(ServeError::DeadlineExpired) => shed += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }

        let snap = server.shutdown();
        prop_assert_eq!(snap.submitted, accepted);
        prop_assert_eq!(snap.rejected_deadline, rejected_at_admission);
        prop_assert_eq!(snap.completed, completed);
        prop_assert_eq!(snap.shed_expired + snap.timed_out, shed);
        // Every accepted request was answered exactly once.
        prop_assert_eq!(completed + shed, accepted);
    }
}

/// A model call that panics fails its own batch and nothing else: every
/// member of that batch is answered `Internal`, the scheduler thread survives
/// to answer the next batch, and `shutdown` returns a ledger that still
/// satisfies the invariants of `serve/src/metrics.rs`. Both model calls of
/// `score_batch` are covered — candidate scoring and top-k.
///
/// Batches are formed deterministically: the window never elapses, so a
/// flush happens exactly when the third request of a wave arrives.
#[test]
fn panicking_batch_fails_alone_and_the_server_keeps_serving() {
    /// Stands in for an out-of-catalog `ItemId` reaching the title table.
    const POISON: ItemId = ItemId(u32::MAX);
    struct Fragile;
    impl Ranker for Fragile {
        fn name(&self) -> &str {
            "fragile"
        }
        fn score_candidates(&self, prefix: &[ItemId], candidates: &[ItemId]) -> Vec<f32> {
            assert!(!prefix.contains(&POISON), "history item out of catalog");
            HashRanker::new().score_candidates(prefix, candidates)
        }
    }
    impl delrec_eval::TopKRecommender for Fragile {
        fn recommend_top_k_batch(
            &self,
            requests: &[delrec_eval::TopKQuery<'_>],
        ) -> Vec<Vec<(ItemId, f32)>> {
            requests
                .iter()
                .map(|&(prefix, k)| {
                    let ids: Vec<ItemId> = (0..k as u32).map(ItemId).collect();
                    let scores = self.score_candidates(prefix, &ids);
                    ids.into_iter().zip(scores).collect()
                })
                .collect()
        }
    }

    let server = Server::start_recommender(
        Arc::new(Fragile),
        ServeConfig {
            max_batch: 3,
            batch_window: Duration::from_secs(3600),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    // One wave = three users = one batch; a poisoned wave's middle user
    // reports the marker item as its history.
    let recent = |poisoned: bool, i: u64| {
        vec![if poisoned && i == 1 {
            POISON
        } else {
            ItemId(7)
        }]
    };
    let score_wave = |user0: u64, poisoned: bool| -> Vec<_> {
        let submit = |i| {
            client.submit(RecRequest {
                user_id: user0 + i,
                recent_items: recent(poisoned, i),
                candidates: vec![ItemId(1), ItemId(2)],
                deadline: None,
            })
        };
        (0..3).map(|i| submit(i).expect("admitted")).collect()
    };
    let topk_wave = |user0: u64, poisoned: bool| -> Vec<_> {
        let submit = |i| {
            client.submit_topk(delrec_serve::TopKRequest {
                user_id: user0 + i,
                recent_items: recent(poisoned, i),
                k: 2,
                deadline: None,
            })
        };
        (0..3).map(|i| submit(i).expect("admitted")).collect()
    };

    for h in score_wave(0, true) {
        assert_eq!(h.wait().unwrap_err(), ServeError::Internal);
    }
    for h in score_wave(10, false) {
        let resp = h.wait().expect("the scheduler outlives a panicked batch");
        let want = Fragile.score_candidates(&[ItemId(7)], &[ItemId(1), ItemId(2)]);
        assert_eq!((resp.scores, resp.batch_size), (want, 3));
    }
    for h in topk_wave(20, true) {
        assert_eq!(h.wait().unwrap_err(), ServeError::Internal);
    }
    for h in topk_wave(30, false) {
        assert_eq!(h.wait().expect("served after a panic").items.len(), 2);
    }

    // Exact totals (they imply every documented inequality): a panicked
    // batch counts as submitted and nothing else.
    let snap = server.shutdown();
    assert_eq!((snap.submitted, snap.completed), (12, 6));
    assert_eq!((snap.batches, snap.topk_batches), (2, 1));
    assert_eq!(
        (snap.mean_batch_size, snap.mean_topk_batch_size),
        (3.0, 3.0)
    );
    assert_eq!(snap.shed_expired + snap.timed_out, 0);
}

/// Backpressure: with the scheduler unable to drain (a blocking model) and a
/// tiny queue bound, surplus submissions are rejected with `QueueFull`.
#[test]
fn queue_depth_bound_rejects_with_queue_full() {
    struct SlowRanker;
    impl Ranker for SlowRanker {
        fn name(&self) -> &str {
            "slow"
        }
        fn score_candidates(&self, _p: &[ItemId], c: &[ItemId]) -> Vec<f32> {
            std::thread::sleep(Duration::from_millis(20));
            vec![0.0; c.len()]
        }
    }
    let server = Server::start(
        Arc::new(SlowRanker),
        ServeConfig {
            max_batch: 1,
            batch_window: Duration::ZERO,
            max_queue: 4,
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let mut handles = Vec::new();
    let mut full = 0;
    for i in 0..64u32 {
        match client.submit(RecRequest {
            user_id: 1,
            recent_items: vec![],
            candidates: vec![ItemId(i)],
            deadline: None,
        }) {
            Ok(h) => handles.push(h),
            Err(ServeError::QueueFull { depth }) => {
                assert!(depth >= 4);
                full += 1;
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert!(full > 0, "a 4-deep queue against a 20ms model must shed");
    for h in handles {
        h.wait().unwrap();
    }
    let snap = server.shutdown();
    assert_eq!(snap.rejected_queue_full, full);
    assert_eq!(snap.completed + snap.rejected_queue_full, 64);
}

/// Shutdown drains: everything accepted before `shutdown` is answered.
#[test]
fn shutdown_drains_queue_and_refuses_new_requests() {
    let model = Arc::new(HashRanker::new());
    let server = Server::start(
        Arc::clone(&model),
        ServeConfig {
            max_batch: 8,
            batch_window: Duration::from_millis(50), // long window: rely on drain
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let handles: Vec<_> = (0..10u32)
        .map(|i| {
            client
                .submit(RecRequest {
                    user_id: 9,
                    recent_items: vec![ItemId(i)],
                    candidates: vec![ItemId(i), ItemId(i + 1)],
                    deadline: None,
                })
                .unwrap()
        })
        .collect();
    let snap = server.shutdown();
    assert_eq!(snap.completed, 10);
    for h in handles {
        assert!(h.wait().is_ok());
    }
    // The client outlives the server; submits now fail cleanly.
    assert!(matches!(
        client.submit(RecRequest {
            user_id: 9,
            recent_items: vec![],
            candidates: vec![ItemId(1)],
            deadline: None,
        }),
        Err(ServeError::Shutdown)
    ));
}
