//! Serving metrics on the shared observability registry: monotonic counters
//! and log-bucketed latency histograms, with an internally consistent
//! snapshot.
//!
//! Every hot-path update is a single atomic add — no locks, no allocation —
//! so metrics cost nanoseconds next to a model forward. The storage lives in
//! [`delrec_obs::global`]'s registry under `serve.<instance>.*` names, so one
//! registry dump shows the serving ledger next to the tensor-pool and
//! prefix-cache counters from the layers below.
//!
//! # Snapshot consistency
//!
//! [`Metrics::snapshot`] is not a point-in-time freeze (that would need a
//! lock on the hot path), but it is *internally consistent*: the invariants
//! that hold in any quiescent state also hold in every snapshot taken under
//! concurrent load —
//!
//! * `completed + shed_expired + timed_out ≤ submitted`
//! * `completed + timed_out ≤ batched_requests`
//! * `batched_requests ≥ batches` (so `mean_batch_size ≥ 1` once a batch
//!   flushed)
//! * `topk_batched_requests ≤ batched_requests`, `topk_batches ≤ batches` and
//!   `topk_batched_requests ≥ topk_batches` (so `mean_topk_batch_size ≥ 1`
//!   once a top-k batch flushed) — top-k batches ride the shared batch ledger
//!   *and* their own `topk_batch.*` pair
//!
//! They are inequalities on purpose: a request whose batch's model call
//! panicked is answered `ServeError::Internal` and appears in `submitted`
//! alone — its batch reaches neither the batch ledger nor a sink.
//!
//! The guarantee comes from a write/read ordering discipline rather than a
//! lock. Writers publish with `Release` increments in dependency order: a
//! request's `submitted` increment happens-before its sink increment (the
//! queue mutex sequences them), and a batch's `batched_requests` increment
//! precedes its `batches` increment, which precedes its per-request sinks.
//! The snapshot then reads in the *reverse* order with `Acquire` loads —
//! sinks (`completed`, `timed_out`, `shed_expired`) first, then `batches`,
//! then `batched_requests`, then `submitted` — so for every sink event the
//! snapshot observes, the upstream events it implies are already visible.
//! Reordering those loads (or demoting them to `Relaxed`) breaks the
//! invariants; the concurrent test in `tests/metrics_consistency.rs` pins
//! them.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

use delrec_obs::{Counter, Gauge, Histogram};

/// Serving-runtime instances registered so far; gives each [`Metrics`] a
/// distinct `serve.<n>.*` namespace in the global registry so two runtimes
/// in one process (common in tests) never share ledgers.
static INSTANCES: AtomicU64 = AtomicU64::new(0);

/// All counters of a serving runtime. Shared by reference between the
/// admission path and the scheduler; updated through the `record_*` methods,
/// whose orderings carry the snapshot guarantee documented at the module
/// level.
pub struct Metrics {
    namespace: String,
    submitted: Arc<Counter>,
    completed: Arc<Counter>,
    rejected_queue_full: Arc<Counter>,
    rejected_deadline: Arc<Counter>,
    shed_expired: Arc<Counter>,
    timed_out: Arc<Counter>,
    batches: Arc<Counter>,
    batched_requests: Arc<Counter>,
    topk_batches: Arc<Counter>,
    topk_batched_requests: Arc<Counter>,
    publishes: Arc<Counter>,
    active_model_seq: Arc<Gauge>,
    /// Nanoseconds, log-bucketed (quantiles within ~12 % — see
    /// [`delrec_obs::Histogram`]).
    latency: Arc<Histogram>,
    queue_wait: Arc<Histogram>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh, zeroed metrics under a new `serve.<n>.*` registry namespace.
    pub fn new() -> Self {
        let id = INSTANCES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let reg = delrec_obs::global();
        let namespace = format!("serve.{id}");
        let name = |field: &str| format!("{namespace}.{field}");
        Metrics {
            submitted: reg.counter(&name("submitted")),
            completed: reg.counter(&name("completed")),
            rejected_queue_full: reg.counter(&name("rejected_queue_full")),
            rejected_deadline: reg.counter(&name("rejected_deadline")),
            shed_expired: reg.counter(&name("shed_expired")),
            timed_out: reg.counter(&name("timed_out")),
            batches: reg.counter(&name("batches")),
            batched_requests: reg.counter(&name("batched_requests")),
            topk_batches: reg.counter(&name("topk_batch.batches")),
            topk_batched_requests: reg.counter(&name("topk_batch.requests")),
            publishes: reg.counter(&name("swap.publishes")),
            active_model_seq: reg.gauge(&name("swap.active_seq")),
            latency: reg.histogram(&name("latency_ns")),
            queue_wait: reg.histogram(&name("queue_wait_ns")),
            namespace,
        }
    }

    /// The `serve.<n>` prefix this instance's metrics live under in the
    /// global registry.
    pub fn namespace(&self) -> &str {
        &self.namespace
    }

    /// A request was accepted into the queue. Relaxed is enough: the queue
    /// mutex already sequences this before any downstream event for the same
    /// request, and the downstream `Release` increments publish it.
    pub fn record_submitted(&self) {
        self.submitted.incr();
    }

    /// Admission rejection: queue at its depth bound.
    pub fn record_rejected_queue_full(&self) {
        self.rejected_queue_full.incr();
    }

    /// Admission rejection: deadline unmeetable under the batch window.
    pub fn record_rejected_deadline(&self) {
        self.rejected_deadline.incr();
    }

    /// A request was shed at flush with an expired deadline. `Release`: a
    /// snapshot that sees this shed also sees the request's submission.
    pub fn record_shed_expired(&self) {
        self.shed_expired.incr_release();
    }

    /// A request's deadline expired during scoring (answered with an error,
    /// never with late scores). `Release`, as for
    /// [`Metrics::record_shed_expired`].
    pub fn record_timed_out(&self) {
        self.timed_out.incr_release();
    }

    /// A request was answered with scores. `Release`: a snapshot that sees
    /// this completion also sees the submission and the batch accounting
    /// that preceded it.
    pub fn record_completed(&self, latency: Duration, queue_wait: Duration) {
        let nanos = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.latency.record(nanos(latency));
        self.queue_wait.record(nanos(queue_wait));
        self.completed.incr_release();
    }

    /// A new model generation was published. The gauge carries the publish
    /// sequence now being handed to freshly flushed batches; in-flight
    /// batches keep scoring on the generation they loaded at flush.
    pub fn record_publish(&self, seq: u64) {
        self.publishes.incr();
        self.active_model_seq.set(seq as f64);
    }

    /// A batch of `size` live requests flushed. The occupancy numerator is
    /// published before the batch count (both `Release`), and the snapshot
    /// reads them in the opposite order, so an observed batch always has its
    /// requests counted — `mean_batch_size` can never dip below one.
    pub fn record_batch(&self, size: u64) {
        self.batched_requests.add_release(size);
        self.batches.incr_release();
    }

    /// A coalesced top-k batch of `size` live requests went through one
    /// handler call. Top-k batches ride the shared `batches` /
    /// `batched_requests` ledger (their completions land in `completed`, so
    /// the `completed + timed_out ≤ batched_requests` invariant must count
    /// them) *and* their own `topk_batch.*` pair for occupancy of the
    /// batched-pipeline path specifically.
    ///
    /// Write order is load-bearing twice over, and the snapshot reads in
    /// exactly the reverse: both occupancy numerators precede both batch
    /// counts (so neither mean can dip below one), and within each kind the
    /// shared counter precedes its top-k twin — a snapshot that observes a
    /// top-k request or batch always also observes it in the shared ledger,
    /// keeping `topk_batched_requests ≤ batched_requests` and `topk_batches ≤
    /// batches`.
    pub fn record_topk_batch(&self, size: u64) {
        self.batched_requests.add_release(size);
        self.topk_batched_requests.add_release(size);
        self.batches.incr_release();
        self.topk_batches.incr_release();
    }

    /// Point-in-time copy of every counter plus derived quantiles.
    ///
    /// One pass, in the documented order — sinks first, then batch counts,
    /// then sources — each with an `Acquire` load pairing with the writers'
    /// `Release` increments. See the module docs for why this order is
    /// load-bearing.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // 1. Sinks: every event observed here implies an upstream event.
        let completed = self.completed.get_acquire();
        let timed_out = self.timed_out.get_acquire();
        let shed_expired = self.shed_expired.get_acquire();
        // 2. The reverse of `record_topk_batch`'s write order: both batch
        //    counts before both occupancy numerators, and within each kind
        //    the top-k counter before the shared one it nests inside.
        let topk_batches = self.topk_batches.get_acquire();
        let batches = self.batches.get_acquire();
        let topk_batched_requests = self.topk_batched_requests.get_acquire();
        let batched_requests = self.batched_requests.get_acquire();
        // 3. Sources last: by now every implied upstream increment is
        //    visible. Admission rejections have no cross-counter invariant
        //    but ride in the same pass.
        let submitted = self.submitted.get_acquire();
        let rejected_queue_full = self.rejected_queue_full.get();
        let rejected_deadline = self.rejected_deadline.get();
        let model_publishes = self.publishes.get();
        let ns = Duration::from_nanos;
        MetricsSnapshot {
            submitted,
            completed,
            rejected_queue_full,
            rejected_deadline,
            shed_expired,
            timed_out,
            batches,
            topk_batches,
            model_publishes,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                batched_requests as f64 / batches as f64
            },
            mean_topk_batch_size: if topk_batches == 0 {
                0.0
            } else {
                topk_batched_requests as f64 / topk_batches as f64
            },
            latency_mean: ns(self.latency.mean()),
            latency_p50: ns(self.latency.quantile(0.50)),
            latency_p95: ns(self.latency.quantile(0.95)),
            latency_p99: ns(self.latency.quantile(0.99)),
            queue_wait_p50: ns(self.queue_wait.quantile(0.50)),
            queue_wait_p99: ns(self.queue_wait.quantile(0.99)),
        }
    }
}

/// Plain-data view of [`Metrics`] at one instant.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests answered with scores.
    pub completed: u64,
    /// Admission rejections for queue depth.
    pub rejected_queue_full: u64,
    /// Admission rejections for unmeetable deadlines.
    pub rejected_deadline: u64,
    /// Requests shed at flush with expired deadlines.
    pub shed_expired: u64,
    /// Requests that expired during scoring.
    pub timed_out: u64,
    /// Batches flushed (coalesced top-k batches included).
    pub batches: u64,
    /// Coalesced top-k batches (each one handler call over a flushed set of
    /// [`TopKRequest`](crate::TopKRequest)s). Also counted in `batches`.
    pub topk_batches: u64,
    /// Model generations published over the server's lifetime (excludes the
    /// generation it started with).
    pub model_publishes: u64,
    /// Mean requests per flushed batch.
    pub mean_batch_size: f64,
    /// Mean top-k requests per coalesced top-k batch.
    pub mean_topk_batch_size: f64,
    /// Mean submit-to-response latency.
    pub latency_mean: Duration,
    /// Median latency.
    pub latency_p50: Duration,
    /// 95th-percentile latency.
    pub latency_p95: Duration,
    /// 99th-percentile latency.
    pub latency_p99: Duration,
    /// Median queue wait.
    pub queue_wait_p50: Duration,
    /// 99th-percentile queue wait.
    pub queue_wait_p99: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_derives_mean_batch_size() {
        let m = Metrics::new();
        m.record_batch(3);
        m.record_batch(7);
        let s = m.snapshot();
        assert_eq!(s.batches, 2);
        assert!((s.mean_batch_size - 5.0).abs() < 1e-9);
    }

    #[test]
    fn metrics_are_visible_in_the_global_registry() {
        use delrec_obs::MetricValue;
        let m = Metrics::new();
        m.record_submitted();
        m.record_batch(1);
        m.record_completed(Duration::from_millis(2), Duration::from_millis(1));
        let prefix = m.namespace().to_string();
        let snap = delrec_obs::global().snapshot();
        let get = |field: &str| {
            snap.iter()
                .find(|(n, _)| *n == format!("{prefix}.{field}"))
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("{prefix}.{field} not registered"))
        };
        assert_eq!(get("submitted"), MetricValue::Counter(1));
        assert_eq!(get("completed"), MetricValue::Counter(1));
        assert_eq!(get("batches"), MetricValue::Counter(1));
        match get("latency_ns") {
            MetricValue::Histogram { count, .. } => assert_eq!(count, 1),
            other => panic!("latency_ns is {other:?}"),
        }
    }
}
