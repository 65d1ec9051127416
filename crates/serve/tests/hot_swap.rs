//! Hot-swap correctness under live traffic.
//!
//! Concurrent clients keep scoring while `Server::publish` fires repeatedly.
//! Each response carries the publish sequence of the generation that scored
//! it (`model_seq`); the tests verify every response **bitwise** against
//! direct scoring on exactly that acknowledged generation:
//!
//! * refitted publishes (scores change per version): a response's scores
//!   always match its own `model_seq`'s version — never a mixture, never a
//!   generation the registry hadn't published when the batch flushed;
//! * repacked publishes (parameter-identical model, fresh instance): no
//!   response changes by a single bit across any number of swaps;
//! * the full-catalog top-k path swaps with the model (the handler is
//!   rebuilt per generation, not captured at startup).

use delrec_data::ItemId;
use delrec_eval::{Ranker, ScoreRequest, TopKRecommender};
use delrec_serve::{RecRequest, ServeConfig, Server, TopKRequest};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Version 0 of the traffic model lives at this model_version; publish `s`
/// installs `VERSION_BASE + s`, so a response's `model_seq` maps directly to
/// the version that must explain its scores.
const VERSION_BASE: u64 = 1000;

/// Deterministic versioned stand-in model: every score hashes the exact
/// `(version, prefix, candidate)` triple, so scoring with the wrong
/// generation — or a half-swapped mixture — changes the bits.
struct VersionedRanker {
    version: u64,
}

fn hash_score(version: u64, prefix: &[ItemId], candidate: ItemId) -> f32 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    mix(version);
    for it in prefix {
        mix(u64::from(it.0) + 1);
    }
    mix(u64::from(candidate.0) + 1);
    (h >> 40) as f32 / (1u64 << 24) as f32
}

impl Ranker for VersionedRanker {
    fn name(&self) -> &str {
        "versioned"
    }

    fn score_candidates(&self, prefix: &[ItemId], candidates: &[ItemId]) -> Vec<f32> {
        candidates
            .iter()
            .map(|&c| hash_score(self.version, prefix, c))
            .collect()
    }

    fn score_candidates_batch(&self, requests: &[ScoreRequest<'_>]) -> Vec<Vec<f32>> {
        requests
            .iter()
            .map(|&(p, c)| self.score_candidates(p, c))
            .collect()
    }

    fn model_version(&self) -> u64 {
        self.version
    }
}

/// The top-k a generation would serve for `(prefix, k)`: derived from the
/// same hash, so a stale captured handler (or a torn swap) produces
/// different items.
fn expected_topk(version: u64, prefix: &[ItemId], k: usize) -> Vec<(ItemId, f32)> {
    (0..k as u32)
        .map(|i| {
            let id = ItemId(i);
            (id, hash_score(version, prefix, id))
        })
        .collect()
}

impl TopKRecommender for VersionedRanker {
    fn recommend_top_k(&self, prefix: &[ItemId], k: usize) -> Vec<(ItemId, f32)> {
        expected_topk(self.version, prefix, k)
    }
}

fn ids(xs: &[u32]) -> Vec<ItemId> {
    xs.iter().map(|&x| ItemId(x)).collect()
}

/// Client-side session replay (same as the scheduler property tests).
fn replay_session(hist: &mut Vec<ItemId>, delta: &[ItemId], max_history: usize) -> Vec<ItemId> {
    hist.extend_from_slice(delta);
    if hist.len() > max_history {
        hist.drain(..hist.len() - max_history);
    }
    hist.clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Refitted publishes under concurrent clients: every response's scores
    /// are bitwise the direct scoring of its **acknowledged** generation
    /// (`VERSION_BASE + model_seq`), and `model_seq` never exceeds what the
    /// publisher had actually published by the time the response was read.
    #[test]
    fn every_response_matches_its_acknowledged_generation(
        n_clients in 1usize..=3,
        reqs_per_client in 5usize..=30,
        publishes in 1usize..=8,
        max_batch in 1usize..=8,
        window_us in prop_oneof![Just(0u64), 1u64..=500],
    ) {
        let max_history = 8;
        let server = Arc::new(Server::start(
            Arc::new(VersionedRanker { version: VERSION_BASE }),
            ServeConfig {
                max_batch,
                batch_window: Duration::from_micros(window_us),
                max_queue: 8192,
                session_shards: 4,
                max_history,
                persistence: None,
            },
        ));

        // Publisher: keeps swapping versions while clients submit.
        let stop = Arc::new(AtomicBool::new(false));
        let publisher = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut published = 0;
                while published < publishes && !stop.load(Ordering::Relaxed) {
                    published += 1;
                    let seq = server.publish(Arc::new(VersionedRanker {
                        version: VERSION_BASE + published as u64,
                    }));
                    assert_eq!(seq, published as u64, "publish sequences are dense");
                    std::thread::sleep(Duration::from_micros(200));
                }
                published as u64
            })
        };

        // Clients: disjoint users, per-user history tracked client-side.
        let clients: Vec<_> = (0..n_clients as u64)
            .map(|c| {
                let client = server.client();
                std::thread::spawn(move || {
                    let mut hist = Vec::new();
                    let mut out = Vec::new();
                    for i in 0..reqs_per_client as u32 {
                        let delta = ids(&[c as u32 * 10_000 + i]);
                        let expected_hist = replay_session(&mut hist, &delta, max_history);
                        let cands = ids(&[i, i + 1, i + 2]);
                        let h = client
                            .submit(RecRequest {
                                user_id: c,
                                recent_items: delta,
                                candidates: cands.clone(),
                                deadline: None,
                            })
                            .expect("deep queue, no deadline: always admitted");
                        out.push((h, expected_hist, cands));
                    }
                    out
                })
            })
            .collect();

        let mut max_seq_seen = 0u64;
        for c in clients {
            for (h, hist, cands) in c.join().unwrap() {
                let resp = h.wait().expect("deadline-free requests always answer");
                let version = VERSION_BASE + resp.model_seq;
                let direct: Vec<f32> =
                    cands.iter().map(|&cd| hash_score(version, &hist, cd)).collect();
                prop_assert_eq!(&resp.scores, &direct,
                    "scores must match the acknowledged generation (seq {})", resp.model_seq);
                max_seq_seen = max_seq_seen.max(resp.model_seq);
            }
        }
        stop.store(true, Ordering::Relaxed);
        let published = publisher.join().unwrap();
        prop_assert!(max_seq_seen <= published,
            "a response acknowledged seq {} but only {} were published",
            max_seq_seen, published);

        // Swap-event ledger: the metrics counter and gauge agree with the
        // publisher's ground truth.
        let snap = server.metrics().snapshot();
        prop_assert_eq!(snap.model_publishes, published);
        prop_assert_eq!(server.registry().seq(), published);
        let active = delrec_obs::global()
            .snapshot()
            .into_iter()
            .find(|(n, _)| n == &format!("{}.swap.active_seq", server.metrics().namespace()))
            .map(|(_, v)| v);
        prop_assert_eq!(active, Some(delrec_obs::MetricValue::Gauge(published as f64)));
    }

    /// Coalesced top-k batches under publish churn: concurrent clients flood
    /// top-k requests while the publisher swaps generations; every response's
    /// items must be exactly its acknowledged generation's top-k. The
    /// scheduler answers a whole flushed batch from **one** handler call
    /// against the generation pinned at flush, so a single row computed by a
    /// different generation than its batch's acknowledged `model_seq` — a
    /// mixed-generation top-k batch — would fail the bitwise check here.
    #[test]
    fn coalesced_topk_batches_never_mix_generations(
        n_clients in 1usize..=3,
        reqs_per_client in 5usize..=25,
        publishes in 1usize..=8,
        max_batch in 1usize..=8,
        window_us in prop_oneof![Just(0u64), 1u64..=500],
    ) {
        let max_history = 8;
        let server = Arc::new(Server::start_recommender(
            Arc::new(VersionedRanker { version: VERSION_BASE }),
            ServeConfig {
                max_batch,
                batch_window: Duration::from_micros(window_us),
                max_queue: 8192,
                session_shards: 4,
                max_history,
                persistence: None,
            },
        ));

        let stop = Arc::new(AtomicBool::new(false));
        let publisher = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut published = 0;
                while published < publishes && !stop.load(Ordering::Relaxed) {
                    published += 1;
                    server.publish(Arc::new(VersionedRanker {
                        version: VERSION_BASE + published as u64,
                    }));
                    std::thread::sleep(Duration::from_micros(200));
                }
                published as u64
            })
        };

        let clients: Vec<_> = (0..n_clients as u64)
            .map(|c| {
                let client = server.client();
                std::thread::spawn(move || {
                    let mut hist = Vec::new();
                    let mut out = Vec::new();
                    for i in 0..reqs_per_client as u32 {
                        let delta = ids(&[c as u32 * 10_000 + i]);
                        let expected_hist = replay_session(&mut hist, &delta, max_history);
                        let h = client
                            .submit_topk(TopKRequest {
                                user_id: c,
                                recent_items: delta,
                                k: 5,
                                deadline: None,
                            })
                            .expect("deep queue, no deadline: always admitted");
                        out.push((h, expected_hist));
                    }
                    out
                })
            })
            .collect();

        let mut max_seq_seen = 0u64;
        for c in clients {
            for (h, hist) in c.join().unwrap() {
                let resp = h.wait().expect("deadline-free requests always answer");
                let want = expected_topk(VERSION_BASE + resp.model_seq, &hist, 5);
                prop_assert_eq!(&resp.items, &want,
                    "top-k row mixed into a foreign generation (seq {})", resp.model_seq);
                max_seq_seen = max_seq_seen.max(resp.model_seq);
            }
        }
        stop.store(true, Ordering::Relaxed);
        let published = publisher.join().unwrap();
        prop_assert!(max_seq_seen <= published,
            "a response acknowledged seq {} but only {} were published",
            max_seq_seen, published);

        // The coalesced ledger stays consistent under swap churn.
        let snap = server.metrics().snapshot();
        let total = (n_clients * reqs_per_client) as u64;
        prop_assert_eq!(snap.completed, total);
        prop_assert!(snap.topk_batches >= 1 && snap.topk_batches <= total);
        prop_assert!(snap.mean_topk_batch_size >= 1.0);
    }

    /// Repacked publishes are bitwise invisible: a parameter-identical model
    /// (same `model_version`, fresh instance) swapped in any number of times
    /// never changes a response bit for untouched sessions.
    #[test]
    fn repacked_publish_never_changes_a_bit(
        reqs in 10usize..=60,
        publishes in 1usize..=10,
        max_batch in 1usize..=8,
    ) {
        let max_history = 8;
        let server = Arc::new(Server::start(
            Arc::new(VersionedRanker { version: VERSION_BASE }),
            ServeConfig {
                max_batch,
                batch_window: Duration::from_micros(100),
                max_queue: 8192,
                session_shards: 4,
                max_history,
                persistence: None,
            },
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let publisher = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for _ in 0..publishes {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    // Same version: the repack. seq advances, bits must not.
                    server.publish(Arc::new(VersionedRanker { version: VERSION_BASE }));
                    std::thread::sleep(Duration::from_micros(150));
                }
            })
        };

        let client = server.client();
        let mut hist = Vec::new();
        let mut inflight = Vec::new();
        for i in 0..reqs as u32 {
            let delta = ids(&[i]);
            let expected_hist = replay_session(&mut hist, &delta, max_history);
            let cands = ids(&[i, i + 7]);
            let h = client
                .submit(RecRequest {
                    user_id: 1,
                    recent_items: delta,
                    candidates: cands.clone(),
                    deadline: None,
                })
                .unwrap();
            inflight.push((h, expected_hist, cands));
        }
        for (h, hist, cands) in inflight {
            let resp = h.wait().unwrap();
            let direct: Vec<f32> =
                cands.iter().map(|&cd| hash_score(VERSION_BASE, &hist, cd)).collect();
            prop_assert_eq!(&resp.scores, &direct,
                "repacked swap changed bits at seq {}", resp.model_seq);
        }
        stop.store(true, Ordering::Relaxed);
        publisher.join().unwrap();
    }
}

/// The full-catalog path swaps with the model: top-k responses always match
/// the acknowledged generation's `recommend_top_k` — the handler is rebuilt
/// per publish, not captured once at startup.
///
/// The interleaving is driven, not raced: a first wave is submitted and
/// fully acknowledged, then `publish` returns, then a second wave goes in.
/// Every wave-1 batch flushed before the publish and every wave-2 batch
/// after it, so the generations are known without any timing assumption.
#[test]
fn topk_handler_swaps_with_the_model() {
    let max_history = 8;
    let server = Server::start_recommender(
        Arc::new(VersionedRanker {
            version: VERSION_BASE,
        }),
        ServeConfig {
            max_batch: 4,
            batch_window: Duration::from_micros(100),
            max_queue: 8192,
            session_shards: 4,
            max_history,
            persistence: None,
        },
    );
    let client = server.client();
    let mut hist = Vec::new();
    let mut next_item = 0u32;
    // Submit a 20-request burst, wait for all of it, check each response
    // against the generation it acknowledges; returns the `model_seq`s seen.
    let mut wave = || -> Vec<u64> {
        let inflight: Vec<_> = (0..20)
            .map(|_| {
                let delta = ids(&[next_item]);
                next_item += 1;
                let expected_hist = replay_session(&mut hist, &delta, max_history);
                let handle = client
                    .submit_topk(TopKRequest {
                        user_id: 3,
                        recent_items: delta,
                        k: 5,
                        deadline: None,
                    })
                    .unwrap();
                (handle, expected_hist)
            })
            .collect();
        inflight
            .into_iter()
            .map(|(handle, hist)| {
                let resp = handle.wait().unwrap();
                let want = expected_topk(VERSION_BASE + resp.model_seq, &hist, 5);
                assert_eq!(
                    resp.items, want,
                    "top-k must come from the acknowledged generation (seq {})",
                    resp.model_seq
                );
                resp.model_seq
            })
            .collect()
    };

    let before = wave();
    assert!(
        before.iter().all(|&seq| seq == 0),
        "nothing was published yet: {before:?}"
    );
    server.publish(Arc::new(VersionedRanker {
        version: VERSION_BASE + 1,
    }));
    let after = wave();
    assert!(
        after.iter().all(|&seq| seq >= 1),
        "a batch flushed after publish returned still used the old handler: {after:?}"
    );
}

/// Old generations drain: a batch holding generation N keeps it alive after
/// publish(N+1); once the last holder drops, the old model frees.
#[test]
fn old_generation_drains_then_frees() {
    let server = Server::start(
        Arc::new(VersionedRanker {
            version: VERSION_BASE,
        }),
        ServeConfig::default(),
    );
    // Pin generation 0 the way a flushed batch does.
    let gen0 = server.registry().current();
    server.publish(Arc::new(VersionedRanker {
        version: VERSION_BASE + 1,
    }));
    let weak = Arc::downgrade(&gen0.model);
    assert_eq!(gen0.seq, 0);
    // Still scorable while held (the drain window).
    assert_eq!(
        gen0.model.score_candidates(&[], &[ItemId(1)]),
        vec![hash_score(VERSION_BASE, &[], ItemId(1))]
    );
    drop(gen0);
    assert!(
        weak.upgrade().is_none(),
        "old generation must free once its last batch drops"
    );
}
