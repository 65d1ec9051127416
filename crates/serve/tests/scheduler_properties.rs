//! Property-based verification of the serving scheduler: however requests
//! arrive and however the batch window coalesces them, every response's
//! scores are identical to unbatched direct scoring, and deadline-carrying
//! requests are never silently answered late.

use delrec_data::ItemId;
use delrec_eval::Ranker;
use delrec_serve::{ranking_of, RecRequest, ServeConfig, ServeError, Server, TopKRequest};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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
            client.submit_topk(TopKRequest {
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

/// The shipped policy admits what it can serve: with no default linger, a
/// 1 ms budget is meetable (the old 2 ms window refused it at submit with
/// `DeadlineUnmeetable`), and only a deadline already past is refused.
#[test]
fn default_config_admits_and_answers_a_one_millisecond_budget() {
    let model = Arc::new(HashRanker::new());
    let server = Server::start(Arc::clone(&model), ServeConfig::default());
    let client = server.client();
    let budget = Duration::from_millis(1);
    let mut answered = 0;
    for user in 0..10u64 {
        let handle = client
            .submit(RecRequest::with_budget(
                user,
                vec![ItemId(3)],
                vec![ItemId(1), ItemId(2)],
                budget,
            ))
            .expect("a 1 ms budget is meetable when nothing lingers");
        match handle.wait() {
            Ok(resp) => {
                assert!(resp.latency <= budget, "answered late: {:?}", resp.latency);
                answered += 1;
            }
            // A host stall longer than the budget sheds the request; it is
            // never answered late.
            Err(ServeError::DeadlineExpired) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(answered > 0, "no 1 ms request of ten was answered in time");
    let past = client.submit(RecRequest {
        user_id: 99,
        recent_items: vec![],
        candidates: vec![ItemId(1)],
        deadline: Some(Instant::now()),
    });
    assert_eq!(past.err(), Some(ServeError::DeadlineUnmeetable));
    let snap = server.shutdown();
    assert_eq!(snap.rejected_deadline, 1);
}

/// A [`HashRanker`] whose first batched call blocks until the test opens the
/// gate: the test sees the scheduler busy and builds a backlog behind it
/// without sleeping.
struct Gated {
    /// (first call entered, gate open)
    state: Mutex<(bool, bool)>,
    changed: Condvar,
}

impl Gated {
    fn new() -> Self {
        Gated {
            state: Mutex::new((false, false)),
            changed: Condvar::new(),
        }
    }

    /// Block until the first model call has started.
    fn wait_entered(&self) {
        let mut st = self.state.lock().unwrap();
        while !st.0 {
            st = self.changed.wait(st).unwrap();
        }
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.changed.notify_all();
    }
}

impl Ranker for Gated {
    fn name(&self) -> &str {
        "gated"
    }

    fn score_candidates(&self, prefix: &[ItemId], candidates: &[ItemId]) -> Vec<f32> {
        HashRanker::new().score_candidates(prefix, candidates)
    }

    fn score_candidates_batch(&self, requests: &[delrec_eval::ScoreRequest<'_>]) -> Vec<Vec<f32>> {
        let mut st = self.state.lock().unwrap();
        if !st.0 {
            st.0 = true;
            self.changed.notify_all();
            while !st.1 {
                st = self.changed.wait(st).unwrap();
            }
        }
        drop(st);
        requests
            .iter()
            .map(|&(p, c)| self.score_candidates(p, c))
            .collect()
    }
}

/// Work conservation under the default config: a lone request on an idle
/// server is flushed alone at once, and what queues while that call runs is
/// the next batch — `max_batch` of it in one call, and the remainder in the
/// call right after, without lingering.
#[test]
fn a_backlog_built_during_one_call_is_the_next_batch() {
    let model = Arc::new(Gated::new());
    let cfg = ServeConfig::default();
    let max_batch = cfg.max_batch;
    let server = Server::start(Arc::clone(&model), cfg);
    let client = server.client();
    let submit = |user: u64| {
        client
            .submit(RecRequest {
                user_id: user,
                recent_items: vec![ItemId(user as u32)],
                candidates: vec![ItemId(1), ItemId(2)],
                deadline: None,
            })
            .expect("admitted")
    };

    let first = submit(0);
    model.wait_entered();
    let backlog = max_batch + 3;
    let rest: Vec<_> = (1..=backlog as u64).map(submit).collect();
    assert_eq!(client.queue_depth(), backlog, "the scheduler is held");
    model.open();
    assert_eq!(first.wait().expect("served").batch_size, 1);
    for (i, h) in rest.into_iter().enumerate() {
        let want = if i < max_batch { max_batch } else { 3 };
        assert_eq!(h.wait().expect("served").batch_size, want, "request {i}");
    }
    let snap = server.shutdown();
    assert_eq!((snap.batches, snap.completed), (3, 1 + backlog as u64));
}

/// Admission validation: a request naming an id outside the model's catalog
/// (history or candidate), or asking for more top-k items than the catalog
/// holds, fails alone at submit — before its session is touched — and its
/// would-be batchmates are scored as if it had never been sent. Without the
/// check the bad id reaches the model call and fails the whole batch with
/// `Internal`.
#[test]
fn an_out_of_catalog_request_fails_alone_at_submit() {
    const N: usize = 50;
    struct Catalog;
    impl Ranker for Catalog {
        fn name(&self) -> &str {
            "catalog"
        }
        fn score_candidates(&self, prefix: &[ItemId], candidates: &[ItemId]) -> Vec<f32> {
            let all = prefix.iter().chain(candidates);
            assert!(all.clone().all(|id| id.index() < N), "item out of catalog");
            HashRanker::new().score_candidates(prefix, candidates)
        }
        fn num_items(&self) -> Option<usize> {
            Some(N)
        }
    }
    impl delrec_eval::TopKRecommender for Catalog {
        fn recommend_top_k_batch(
            &self,
            requests: &[delrec_eval::TopKQuery<'_>],
        ) -> Vec<Vec<(ItemId, f32)>> {
            requests
                .iter()
                .map(|&(prefix, k)| {
                    assert!(k <= N, "k beyond the catalog");
                    let ids: Vec<ItemId> = (0..k as u32).map(ItemId).collect();
                    let scores = self.score_candidates(prefix, &ids);
                    ids.into_iter().zip(scores).collect()
                })
                .collect()
        }
    }

    // A window that never elapses: each wave of three flushes on size.
    let server = Server::start_recommender(
        Arc::new(Catalog),
        ServeConfig {
            max_batch: 3,
            batch_window: Duration::from_secs(3600),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let outside = |extra: u32| ItemId(N as u32 + extra);
    let rejected = |value| Some(ServeError::OutOfCatalog { value, n_items: N });
    let score = |user: u64, recent: ItemId, candidate: ItemId| {
        client.submit(RecRequest {
            user_id: user,
            recent_items: vec![recent],
            candidates: vec![ItemId(1), candidate],
            deadline: None,
        })
    };
    let topk = |user: u64, recent: ItemId, k: usize| {
        client.submit_topk(TopKRequest {
            user_id: user,
            recent_items: vec![recent],
            k,
            deadline: None,
        })
    };

    let mut scored = vec![score(0, ItemId(7), ItemId(2)).expect("admitted")];
    assert_eq!(score(1, outside(0), ItemId(2)).err(), rejected(N));
    scored.push(score(2, ItemId(7), ItemId(2)).expect("admitted"));
    assert_eq!(score(3, ItemId(7), outside(4)).err(), rejected(N + 4));
    scored.push(score(4, ItemId(7), ItemId(2)).expect("admitted"));
    let want = Catalog.score_candidates(&[ItemId(7)], &[ItemId(1), ItemId(2)]);
    for h in scored {
        let resp = h.wait().expect("the bad request's batchmates score");
        assert_eq!((resp.scores, resp.batch_size), (want.clone(), 3));
    }

    let mut listed = vec![topk(10, ItemId(7), N).expect("k = catalog size is fine")];
    assert_eq!(topk(11, outside(1), 2).err(), rejected(N + 1));
    listed.push(topk(12, ItemId(7), 2).expect("admitted"));
    assert_eq!(topk(13, ItemId(7), N + 1).err(), rejected(N + 1));
    listed.push(topk(14, ItemId(7), 1).expect("admitted"));
    for h in listed {
        assert_eq!(h.wait().expect("served").batch_size, 3);
    }

    // The refused ids never entered a session (nor, on a persistent
    // server, its WAL).
    for user in [1, 3, 11, 13] {
        assert_eq!(server.sessions().history(user), None, "user {user}");
    }
    let snap = server.shutdown();
    assert_eq!((snap.submitted, snap.completed), (6, 6));
    assert_eq!((snap.batches, snap.topk_batches), (2, 1));
}
