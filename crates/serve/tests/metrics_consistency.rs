//! Concurrent pin of the metrics snapshot-consistency guarantee.
//!
//! `Metrics::snapshot` promises that even under concurrent writers every
//! snapshot satisfies the ledger invariants documented in
//! `serve/src/metrics.rs` — the fix for the original implementation, whose
//! independent relaxed loads could observe a completion without its
//! submission or a flushed batch without its requests. This test replays the
//! server's exact event ordering (submission on client threads, shedding,
//! batch accounting, and sinks on a worker thread, bridged by a channel the
//! way the real scheduler bridges with the queue mutex) while a checker
//! thread snapshots as fast as it can; any invariant violation in any
//! interleaving is a failure. Proptest drives the load shape: request count,
//! batch size, and how often requests shed or time out.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use delrec_serve::{Metrics, MetricsSnapshot};
use proptest::prelude::*;

/// The cross-counter invariants a consistent snapshot must satisfy.
/// `batched_requests` (and its top-k twin) are reconstructed from
/// `mean_batch_size · batches` (exact in f64 for any realistic count).
fn check(s: &MetricsSnapshot) -> Result<(), String> {
    let sinks = s.completed + s.shed_expired + s.timed_out;
    if sinks > s.submitted {
        return Err(format!(
            "sinks {} > submitted {} ({s:?})",
            sinks, s.submitted
        ));
    }
    let batched_requests = (s.mean_batch_size * s.batches as f64).round() as u64;
    if s.completed + s.timed_out > batched_requests {
        return Err(format!(
            "completed {} + timed_out {} > batched_requests {batched_requests} ({s:?})",
            s.completed, s.timed_out
        ));
    }
    if s.batches > 0 && s.mean_batch_size < 1.0 {
        return Err(format!("mean_batch_size {} < 1 ({s:?})", s.mean_batch_size));
    }
    if s.topk_batches > s.batches {
        return Err(format!(
            "topk_batches {} > batches {} ({s:?})",
            s.topk_batches, s.batches
        ));
    }
    let topk_batched = (s.mean_topk_batch_size * s.topk_batches as f64).round() as u64;
    if topk_batched > batched_requests {
        return Err(format!(
            "topk_batched_requests {topk_batched} > batched_requests {batched_requests} ({s:?})"
        ));
    }
    if s.topk_batches > 0 && s.mean_topk_batch_size < 1.0 {
        return Err(format!(
            "mean_topk_batch_size {} < 1 ({s:?})",
            s.mean_topk_batch_size
        ));
    }
    Ok(())
}

/// Outcome of one request, fixed up front so writers need no coordination.
#[derive(Clone, Copy, PartialEq)]
enum Fate {
    Complete,
    Shed,
    TimeOut,
}

fn run_case(total: usize, batch: usize, shed_mod: usize, timeout_mod: usize) {
    run_case_with_publishes(total, batch, shed_mod, timeout_mod, 0, 0);
}

fn run_case_with_publishes(
    total: usize,
    batch: usize,
    shed_mod: usize,
    timeout_mod: usize,
    publishes: usize,
    topk_mod: usize,
) {
    let fate = move |i: usize| {
        if shed_mod > 0 && i % shed_mod == shed_mod - 1 {
            Fate::Shed
        } else if timeout_mod > 0 && i % timeout_mod == timeout_mod - 1 {
            Fate::TimeOut
        } else {
            Fate::Complete
        }
    };
    let m = Arc::new(Metrics::new());
    let stop = Arc::new(AtomicBool::new(false));

    // Checker: hammer snapshots for the whole run. Swap events add a
    // stateful invariant on top of `check`'s per-snapshot ones: the publish
    // count is monotone across snapshots and never exceeds what the
    // publisher thread has actually recorded.
    let checker = {
        let m = Arc::clone(&m);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || -> Result<u64, String> {
            let mut taken = 0u64;
            let mut last_publishes = 0u64;
            // The stop flag is read *before* each snapshot and acted on
            // after it, so a run that finishes before this thread is first
            // scheduled (a single request on a loaded host) still gets one
            // checked snapshot instead of failing "checker never ran".
            let mut stopping = false;
            while !stopping {
                stopping = stop.load(Ordering::Relaxed);
                let s = m.snapshot();
                check(&s)?;
                if s.model_publishes < last_publishes {
                    return Err(format!(
                        "model_publishes went backwards: {} then {} ({s:?})",
                        last_publishes, s.model_publishes
                    ));
                }
                if s.model_publishes > publishes as u64 {
                    return Err(format!(
                        "model_publishes {} > {} ever recorded ({s:?})",
                        s.model_publishes, publishes
                    ));
                }
                last_publishes = s.model_publishes;
                taken += 1;
            }
            Ok(taken)
        })
    };

    // Publisher: replay `Server::publish`'s metrics event (dense sequence
    // numbers) interleaved with the scoring traffic.
    let publisher = {
        let m = Arc::clone(&m);
        std::thread::spawn(move || {
            for seq in 1..=publishes as u64 {
                m.record_publish(seq);
                std::thread::yield_now();
            }
        })
    };

    // Two client threads submit and hand off over a channel — the stand-in
    // for the real queue mutex (both give the worker a happens-before edge
    // back to the submission).
    let (tx, rx) = mpsc::channel::<usize>();
    let clients: Vec<_> = [0, 1]
        .into_iter()
        .map(|half| {
            let m = Arc::clone(&m);
            let tx = tx.clone();
            std::thread::spawn(move || {
                for i in (0..total).filter(|i| i % 2 == half) {
                    m.record_submitted();
                    let _ = tx.send(i);
                }
            })
        })
        .collect();
    drop(tx);

    // Worker: drain into batches of up to `batch`, replaying score_batch's
    // event order — shed first, then per-protocol sections (candidate
    // scoring, then top-k), each with its batch accounting before its
    // per-request sinks. Requests with `i % topk_mod == 0` replay the
    // coalesced top-k path.
    let worker = {
        let m = Arc::clone(&m);
        std::thread::spawn(move || loop {
            let mut chunk = Vec::with_capacity(batch);
            match rx.recv() {
                Ok(i) => chunk.push(i),
                Err(_) => return,
            }
            while chunk.len() < batch {
                match rx.try_recv() {
                    Ok(i) => chunk.push(i),
                    Err(_) => break,
                }
            }
            let mut live = Vec::with_capacity(chunk.len());
            let mut topk_live = Vec::new();
            for i in chunk {
                if fate(i) == Fate::Shed {
                    m.record_shed_expired();
                } else if topk_mod > 0 && i % topk_mod == 0 {
                    topk_live.push(i);
                } else {
                    live.push(i);
                }
            }
            let sink = |i: usize| match fate(i) {
                Fate::TimeOut => m.record_timed_out(),
                _ => m.record_completed(
                    Duration::from_nanos(100 + i as u64),
                    Duration::from_nanos(50 + i as u64),
                ),
            };
            if !live.is_empty() {
                m.record_batch(live.len() as u64);
                for i in live {
                    sink(i);
                }
            }
            if !topk_live.is_empty() {
                m.record_topk_batch(topk_live.len() as u64);
                for i in topk_live {
                    sink(i);
                }
            }
        })
    };

    for c in clients {
        c.join().unwrap();
    }
    worker.join().unwrap();
    publisher.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    let taken = checker
        .join()
        .unwrap()
        .unwrap_or_else(|e| panic!("inconsistent snapshot: {e}"));
    assert!(taken > 0, "checker never ran");

    // Quiescent totals are exact.
    let s = m.snapshot();
    let want_shed = (0..total).filter(|&i| fate(i) == Fate::Shed).count() as u64;
    let want_timeout = (0..total).filter(|&i| fate(i) == Fate::TimeOut).count() as u64;
    assert_eq!(s.submitted, total as u64);
    assert_eq!(s.shed_expired, want_shed);
    assert_eq!(s.timed_out, want_timeout);
    assert_eq!(s.completed, total as u64 - want_shed - want_timeout);
    assert_eq!(s.model_publishes, publishes as u64);
    check(&s).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn snapshots_stay_internally_consistent_under_load(
        total in 200usize..1200,
        batch in 1usize..=16,
        shed_mod in 0usize..5,
        timeout_mod in 0usize..5,
        publishes in 0usize..8,
        topk_mod in 0usize..4,
    ) {
        run_case_with_publishes(total, batch, shed_mod, timeout_mod, publishes, topk_mod);
    }
}

/// The degenerate shapes the proptest ranges can miss.
#[test]
fn edge_shapes() {
    run_case(1, 1, 0, 0); // single request
    run_case(64, 64, 1, 0); // everything sheds, batches never flush
    run_case(64, 8, 0, 1); // everything times out
    run_case_with_publishes(64, 8, 0, 0, 0, 1); // pure top-k traffic
    run_case_with_publishes(128, 4, 2, 3, 2, 2); // mixed protocols + churn
}
