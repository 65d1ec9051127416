//! The serving runtime: admission control and the micro-batching scheduler.
//!
//! ```text
//!  clients ──submit──▶ [admission] ──▶ queue (Mutex<VecDeque> + Condvar)
//!                                        │
//!                              scheduler thread: whenever it is free and
//!                              the queue is non-empty, flush
//!                              min(len, max_batch) requests, then score the
//!                              batch itself — one model call per protocol,
//!                              which fans out over the `delrec-par` pool
//!                              from inside
//!                                        │
//!                                        ▼
//!                     per-request response channels (mpsc)
//! ```
//!
//! One scheduler thread is the only thread the server owns; parallelism lives
//! inside the model call. The scheduler is **work-conserving** by default: it
//! never waits while requests are queued, so a lone request on an idle server
//! is scored at once, and batches grow with load on their own — whatever
//! arrives during one model call is the next batch. A positive
//! [`ServeConfig::batch_window`] is an opt-in linger that only an idle
//! scheduler waits out; its docs give the measured trade. Two contracts
//! everything else leans on:
//!
//! * a served response's scores are **bitwise identical** to calling the
//!   model's `score_candidates` directly on the same session history —
//!   micro-batching is a latency/throughput knob, never a numerics knob;
//! * a model call that panics fails **its batch only**: each member is
//!   answered [`ServeError::Internal`] and the scheduler keeps serving.
//!   Requests naming an item outside the model's catalog never get that far:
//!   admission refuses them alone with [`ServeError::OutOfCatalog`].

use crate::metrics::{Metrics, MetricsSnapshot};
use crate::registry::{ModelRegistry, TopKFn};
use crate::request::{ranking_of, RecRequest, RecResponse, ServeError, TopKRequest, TopKResponse};
use crate::session::SessionStore;
use crate::wal::WalOptions;
use delrec_eval::{Ranker, ScoreRequest, TopKRecommender};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serving runtime knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Most requests one flush takes from the queue (and so one model call
    /// scores).
    pub max_batch: usize,
    /// Linger: how long an idle scheduler holds a partial batch for
    /// batchmates, counted from its oldest request's submit. A full batch
    /// flushes at once either way.
    ///
    /// The default is `ZERO`: the scheduler flushes whatever is queued the
    /// moment it is free, so batches fill from the backlog that builds up
    /// during each model call instead of from waiting. On perfbench's served
    /// workloads (2 vCPUs, one pool lane) that took `score_sessions`' paced
    /// median from 1.9 ms (the old 2 ms window, nearly all of it spent
    /// waiting for 32 batchmates) to 0.045 ms at the same saturated
    /// throughput, where the backlog still fills batches (29–32 of 32). A
    /// positive window only pays where one large batch is much cheaper per
    /// request than several small ones *and* the traffic is too thin to
    /// queue on its own; it also makes admission refuse deadlines that fall
    /// inside it ([`ServeError::DeadlineUnmeetable`]). Tests use a long
    /// window to force coalescing deterministically.
    pub batch_window: Duration,
    /// Admission bound: reject when this many requests are already queued.
    pub max_queue: usize,
    /// Lock stripes in the session store.
    pub session_shards: usize,
    /// Most-recent interactions kept per session.
    pub max_history: usize,
    /// Session durability. `None` (the default) keeps sessions in memory
    /// only; `Some` write-ahead logs every session mutation under this
    /// directory and replays it on start, so restarting a server with the
    /// same directory recovers every session bitwise (see
    /// [`SessionStore::persistent`]).
    pub persistence: Option<PersistConfig>,
}

/// Where and how a server's session store persists.
#[derive(Clone, Debug)]
pub struct PersistConfig {
    /// WAL directory (created if absent, recovered if present).
    pub dir: PathBuf,
    /// Log framing/compaction knobs.
    pub wal: WalOptions,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            batch_window: Duration::ZERO,
            max_queue: 1024,
            session_shards: 16,
            max_history: 50,
            persistence: None,
        }
    }
}

impl ServeConfig {
    /// The baseline the benchmark compares against: one request per forward,
    /// zero coalescing.
    pub fn naive_loop() -> Self {
        ServeConfig {
            max_batch: 1,
            ..Self::default()
        }
    }

    /// The one flush rule, shared by the scheduler and admission: a queue of
    /// `queued` requests whose oldest was submitted at `oldest` is due at the
    /// returned instant — at once when it fills a batch, else once the oldest
    /// has lingered `batch_window` (at once under the default zero window).
    /// The scheduler flushes when it is free and this instant has passed;
    /// admission refuses a deadline that cannot outlast it.
    fn flush_due(&self, queued: usize, oldest: Instant) -> Instant {
        if queued >= self.max_batch {
            oldest
        } else {
            oldest + self.batch_window
        }
    }

    /// Persist sessions under `dir` with default WAL options. Starting a
    /// server on an existing directory recovers its sessions first — the
    /// whole recover-on-start story is "same config, same dir".
    pub fn with_persistence(mut self, dir: impl Into<PathBuf>) -> Self {
        self.persistence = Some(PersistConfig {
            dir: dir.into(),
            wal: WalOptions::default(),
        });
        self
    }
}

/// What a queued request wants scored, plus its response path.
enum Work {
    /// Classic protocol: score an explicit candidate list.
    Score {
        candidates: Vec<delrec_data::ItemId>,
        tx: mpsc::Sender<Result<RecResponse, ServeError>>,
    },
    /// Full-catalog protocol: retrieve + re-rank the whole catalog.
    TopK {
        k: usize,
        tx: mpsc::Sender<Result<TopKResponse, ServeError>>,
    },
}

impl Work {
    fn send_err(&self, e: ServeError) {
        match self {
            Work::Score { tx, .. } => {
                let _ = tx.send(Err(e));
            }
            Work::TopK { tx, .. } => {
                let _ = tx.send(Err(e));
            }
        }
    }
}

/// One queued request: the resolved session snapshot plus the response path.
struct Pending {
    prefix: Vec<delrec_data::ItemId>,
    deadline: Option<Instant>,
    submitted: Instant,
    work: Work,
}

struct QueueState {
    q: VecDeque<Pending>,
    closed: bool,
}

/// Derives a full-catalog top-k handler from a model generation, so
/// [`Server::publish`] can rebuild the handler alongside each swap.
type TopKFactory<R> = Arc<dyn Fn(&Arc<R>) -> TopKFn + Send + Sync>;

/// State shared by clients and the scheduler.
struct Shared<R> {
    /// The hot-swappable model: batches load the current generation once at
    /// flush and drain on it, so a publish never splits a batch.
    models: ModelRegistry<R>,
    /// How to derive a full-catalog handler from a model — captured by
    /// `start_recommender` so [`Server::publish`] can rebuild the handler
    /// for each new generation. Its presence is the server-level "supports
    /// top-k" bit admission checks; absent, [`TopKRequest`]s are rejected
    /// with [`ServeError::TopKUnsupported`].
    topk_factory: Option<TopKFactory<R>>,
    cfg: ServeConfig,
    queue: Mutex<QueueState>,
    /// Signalled on submit and on shutdown; the scheduler waits on it.
    notify: Condvar,
    metrics: Metrics,
    sessions: SessionStore,
    /// Live-queue depth mirror so admission reads don't serialize with the
    /// scheduler's drain (the queue lock is still the source of truth at
    /// enqueue time).
    depth: AtomicU64,
}

/// Handle for submitting requests. Cheap to clone; every clone talks to the
/// same server.
pub struct Client<R> {
    shared: Arc<Shared<R>>,
}

impl<R> Clone for Client<R> {
    fn clone(&self) -> Self {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// An in-flight request's receive side.
pub struct ResponseHandle {
    rx: mpsc::Receiver<Result<RecResponse, ServeError>>,
}

impl ResponseHandle {
    /// Block until the server answers (with scores or a shedding error).
    pub fn wait(self) -> Result<RecResponse, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Shutdown))
    }

    /// Block up to `timeout`; `None` when nothing arrived in time.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<RecResponse, ServeError>> {
        self.rx.recv_timeout(timeout).ok()
    }
}

/// An in-flight full-catalog top-k request's receive side.
pub struct TopKHandle {
    rx: mpsc::Receiver<Result<TopKResponse, ServeError>>,
}

impl TopKHandle {
    /// Block until the server answers (with items or a shedding error).
    pub fn wait(self) -> Result<TopKResponse, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Shutdown))
    }

    /// Block up to `timeout`; `None` when nothing arrived in time.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<TopKResponse, ServeError>> {
        self.rx.recv_timeout(timeout).ok()
    }
}

impl<R: Ranker + Send + Sync + 'static> Client<R> {
    /// Shared admission path: resolve the session, check backpressure and
    /// deadline feasibility, and return the still-held queue lock so the
    /// caller can push its [`Pending`] atomically with the checks.
    fn admit(
        &self,
        user_id: u64,
        recent_items: &[delrec_data::ItemId],
        deadline: Option<Instant>,
        now: Instant,
    ) -> Result<
        (
            Vec<delrec_data::ItemId>,
            std::sync::MutexGuard<'_, QueueState>,
        ),
        ServeError,
    > {
        let sh = &*self.shared;
        // Session update happens even if admission sheds the request: the
        // interactions are real events, and losing them would corrupt the
        // history for the user's *next* request.
        let prefix = sh.sessions.append(user_id, recent_items);

        let st = sh.queue.lock().unwrap();
        if st.closed {
            return Err(ServeError::Shutdown);
        }
        if st.q.len() >= sh.cfg.max_queue {
            sh.metrics.record_rejected_queue_full();
            return Err(ServeError::QueueFull { depth: st.q.len() });
        }
        if let Some(d) = deadline {
            // The scheduler's own flush rule, applied to the queue this
            // request joins: its batch cannot flush before the queue's front
            // is due, nor before now. A deadline that cannot outlast that is
            // shed here instead of dying in the queue — under the default
            // zero window, only a deadline already past.
            let oldest = st.q.front().map_or(now, |p| p.submitted);
            let earliest_flush = sh.cfg.flush_due(st.q.len() + 1, oldest).max(now);
            if d <= earliest_flush {
                sh.metrics.record_rejected_deadline();
                return Err(ServeError::DeadlineUnmeetable);
            }
        }
        Ok((prefix, st))
    }

    /// Admission validation against the current model's catalog
    /// ([`Ranker::num_items`]): every id in `items` must index it, and a
    /// top-k request's `k` must not exceed it. Runs before the session
    /// append, so a bad id never enters a session or its WAL and never
    /// reaches a batch, where it would fail every batchmate with
    /// [`ServeError::Internal`]. Models that do not report a catalog size
    /// are not checked.
    fn check_catalog(
        &self,
        items: &[&[delrec_data::ItemId]],
        k: Option<usize>,
    ) -> Result<(), ServeError> {
        let Some(n_items) = self.shared.models.current().model.num_items() else {
            return Ok(());
        };
        let out = |value| Err(ServeError::OutOfCatalog { value, n_items });
        if let Some(id) = items
            .iter()
            .flat_map(|s| s.iter())
            .find(|id| id.index() >= n_items)
        {
            return out(id.index());
        }
        match k {
            Some(k) if k > n_items => out(k),
            _ => Ok(()),
        }
    }

    /// Push an admitted request and wake the scheduler.
    fn enqueue(&self, mut st: std::sync::MutexGuard<'_, QueueState>, pending: Pending) {
        let sh = &*self.shared;
        st.q.push_back(pending);
        sh.depth.store(st.q.len() as u64, Ordering::Relaxed);
        sh.metrics.record_submitted();
        drop(st);
        sh.notify.notify_all();
    }

    /// Resolve the session, run admission control, and enqueue. Returns
    /// immediately with a handle; the response arrives when the request's
    /// batch flushes and scores.
    pub fn submit(&self, req: RecRequest) -> Result<ResponseHandle, ServeError> {
        let now = Instant::now();
        if req.candidates.is_empty() {
            return Err(ServeError::EmptyCandidates);
        }
        self.check_catalog(&[&req.recent_items, &req.candidates], None)?;
        let (prefix, st) = self.admit(req.user_id, &req.recent_items, req.deadline, now)?;
        let (tx, rx) = mpsc::channel();
        self.enqueue(
            st,
            Pending {
                prefix,
                deadline: req.deadline,
                submitted: now,
                work: Work::Score {
                    candidates: req.candidates,
                    tx,
                },
            },
        );
        Ok(ResponseHandle { rx })
    }

    /// Submit and block for the answer.
    pub fn recommend(&self, req: RecRequest) -> Result<RecResponse, ServeError> {
        self.submit(req)?.wait()
    }

    /// Submit a full-catalog top-k request. Shares the queue, scheduler,
    /// admission control, and deadline discipline with [`submit`](Self::submit);
    /// requires a server started with [`Server::start_recommender`].
    pub fn submit_topk(&self, req: TopKRequest) -> Result<TopKHandle, ServeError> {
        let now = Instant::now();
        if self.shared.topk_factory.is_none() {
            return Err(ServeError::TopKUnsupported);
        }
        if req.k == 0 {
            return Err(ServeError::EmptyCandidates);
        }
        self.check_catalog(&[&req.recent_items], Some(req.k))?;
        let (prefix, st) = self.admit(req.user_id, &req.recent_items, req.deadline, now)?;
        let (tx, rx) = mpsc::channel();
        self.enqueue(
            st,
            Pending {
                prefix,
                deadline: req.deadline,
                submitted: now,
                work: Work::TopK { k: req.k, tx },
            },
        );
        Ok(TopKHandle { rx })
    }

    /// Submit a full-catalog top-k request and block for the answer.
    pub fn recommend_topk(&self, req: TopKRequest) -> Result<TopKResponse, ServeError> {
        self.submit_topk(req)?.wait()
    }

    /// Current queue depth (approximate between lock acquisitions).
    pub fn queue_depth(&self) -> usize {
        self.shared.depth.load(Ordering::Relaxed) as usize
    }
}

/// Run one model call of a batch. A panic inside it (an out-of-catalog
/// `ItemId` indexing the title table, a bug in a handler) is contained here:
/// every one of `members` is answered [`ServeError::Internal`],
/// `serve.batch_panics` is bumped, and `None` tells the caller there is
/// nothing to deliver. Without this the scheduler thread would die while
/// admission kept queueing requests nobody answers.
///
/// `AssertUnwindSafe`: the call reaches the shared model through `&self`, so
/// anything a panic leaves half-done sits behind the model's own locks, and a
/// poisoned one fails later batches the same contained way.
fn contained<T>(members: &[Pending], call: impl FnOnce() -> T) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(call)) {
        Ok(out) => Some(out),
        Err(_) => {
            delrec_obs::counter!("serve.batch_panics").incr();
            for p in members {
                p.work.send_err(ServeError::Internal);
            }
            None
        }
    }
}

/// Score one flushed batch and deliver every response, on the scheduler
/// thread.
///
/// The model generation is loaded **once**, here, and held for the whole
/// batch: a concurrent [`Server::publish`] can land at any point and this
/// batch still scores every row — candidate and top-k alike — against the
/// generation it started with (the hot-swap "no mixed-version batch"
/// guarantee).
fn score_batch<R: Ranker>(sh: &Shared<R>, batch: Vec<Pending>) {
    let _span = delrec_obs::span!("serve.score_batch");
    let published = sh.models.current();
    let now = Instant::now();
    // Shed queue-expired requests — they are answered with an error, never
    // scored, never silently dropped — then split the survivors by protocol:
    // candidate-scoring requests coalesce into one batched forward, top-k
    // requests each run the full retrieve + re-rank pipeline.
    let mut live = Vec::with_capacity(batch.len());
    let mut topk_live = Vec::new();
    for p in batch {
        if p.deadline.is_some_and(|d| d <= now) {
            sh.metrics.record_shed_expired();
            p.work.send_err(ServeError::DeadlineExpired);
        } else if matches!(p.work, Work::Score { .. }) {
            live.push(p);
        } else {
            topk_live.push(p);
        }
    }
    let requests: Vec<ScoreRequest<'_>> = live
        .iter()
        .map(|p| {
            let Work::Score { candidates, .. } = &p.work else {
                unreachable!("partitioned above")
            };
            (p.prefix.as_slice(), candidates.as_slice())
        })
        .collect();
    let rows = if requests.is_empty() {
        None
    } else {
        contained(&live, || published.model.score_candidates_batch(&requests))
    };
    if let Some(rows) = rows {
        debug_assert_eq!(rows.len(), live.len(), "one score row per live request");
        let done = Instant::now();
        let batch_size = live.len();
        sh.metrics.record_batch(batch_size as u64);
        for (p, scores) in live.into_iter().zip(rows) {
            let Work::Score { tx, .. } = p.work else {
                unreachable!("partitioned above")
            };
            if p.deadline.is_some_and(|d| d <= done) {
                // Expired mid-forward: the contract is "never silently
                // answered late", so the scores are discarded and the client
                // told why.
                sh.metrics.record_timed_out();
                let _ = tx.send(Err(ServeError::DeadlineExpired));
                continue;
            }
            let ranking = ranking_of(&scores);
            sh.metrics
                .record_completed(done - p.submitted, now - p.submitted);
            let _ = tx.send(Ok(RecResponse {
                scores,
                ranking,
                batch_size,
                model_seq: published.seq,
                queue_wait: now - p.submitted,
                latency: done - p.submitted,
            }));
        }
    }
    if !topk_live.is_empty() {
        // Admission rejects top-k requests on servers without a handler
        // factory, and every published generation of such a server carries a
        // handler. The whole flushed set goes through **one** handler call —
        // one batched catalog scan, one re-rank batch — against the single
        // generation this batch pinned above; a publish landing mid-call
        // never mixes into it. The pipeline's own spans (`recommend.batch`
        // around `retrieval.scan` — one per streamed pass, selection fused
        // into it — and `rerank`) fire inside the handler call; this span
        // bounds the serving-side stage.
        let topk = published
            .topk
            .as_ref()
            .expect("top-k request admitted without a handler");
        let _span = delrec_obs::span!("serve.topk_batch");
        let requests: Vec<(&[delrec_data::ItemId], usize)> = topk_live
            .iter()
            .map(|p| {
                let Work::TopK { k, .. } = &p.work else {
                    unreachable!("partitioned above")
                };
                (p.prefix.as_slice(), *k)
            })
            .collect();
        let Some(rows) = contained(&topk_live, || topk(&requests)) else {
            return;
        };
        debug_assert_eq!(rows.len(), topk_live.len(), "one answer row per request");
        let done = Instant::now();
        let batch_size = topk_live.len();
        sh.metrics.record_topk_batch(batch_size as u64);
        for (p, items) in topk_live.into_iter().zip(rows) {
            let Work::TopK { tx, .. } = p.work else {
                unreachable!("partitioned above")
            };
            if p.deadline.is_some_and(|d| d <= done) {
                // Expired mid-pipeline: same "never silently answered late"
                // contract as the scoring path.
                sh.metrics.record_timed_out();
                let _ = tx.send(Err(ServeError::DeadlineExpired));
                continue;
            }
            sh.metrics
                .record_completed(done - p.submitted, now - p.submitted);
            let _ = tx.send(Ok(TopKResponse {
                items,
                batch_size,
                model_seq: published.seq,
                queue_wait: now - p.submitted,
                latency: done - p.submitted,
            }));
        }
    }
}

/// The scheduler loop: wait for work, flush whatever is due
/// ([`ServeConfig::flush_due`]; under the default zero window, everything
/// queued up to `max_batch`), score it, repeat.
fn scheduler_loop<R: Ranker>(sh: &Shared<R>) {
    loop {
        let batch = {
            let mut st = sh.queue.lock().unwrap();
            loop {
                let Some(front) = st.q.front() else {
                    if st.closed {
                        return;
                    }
                    st = sh.notify.wait(st).unwrap();
                    continue;
                };
                let due = sh.cfg.flush_due(st.q.len(), front.submitted);
                let now = Instant::now();
                if st.closed || due <= now {
                    break; // due (or final drain) flush
                }
                // Idle with a partial batch under a positive window: linger
                // until it is due or a submit fills the batch.
                st = sh.notify.wait_timeout(st, due - now).unwrap().0;
            }
            let take = st.q.len().min(sh.cfg.max_batch);
            let batch: Vec<Pending> = st.q.drain(..take).collect();
            sh.depth.store(st.q.len() as u64, Ordering::Relaxed);
            batch
        };
        score_batch(sh, batch);
    }
}

/// A running serving runtime over any [`Ranker`].
///
/// The model is shared, not copied: `R: Send + Sync` lets the scheduler and
/// the pool lanes inside a model call score against the same fitted
/// parameters (the `delrec-core` model pins this property with a
/// compile-time assertion).
pub struct Server<R: Ranker + Send + Sync + 'static> {
    shared: Arc<Shared<R>>,
    scheduler: Option<JoinHandle<()>>,
}

impl<R: Ranker + Send + Sync + 'static> Server<R> {
    /// Spawn the scheduler over `model`.
    /// Serves the candidate-scoring protocol only; [`TopKRequest`]s are
    /// rejected with [`ServeError::TopKUnsupported`].
    pub fn start(model: Arc<R>, cfg: ServeConfig) -> Self {
        Self::start_inner(model, cfg, None)
    }

    fn start_inner(model: Arc<R>, cfg: ServeConfig, topk_factory: Option<TopKFactory<R>>) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        assert!(cfg.max_queue >= 1, "max_queue must be at least 1");
        let sessions = match &cfg.persistence {
            None => SessionStore::new(cfg.session_shards, cfg.max_history),
            Some(p) => {
                SessionStore::persistent(cfg.session_shards, cfg.max_history, &p.dir, p.wal.clone())
                    .unwrap_or_else(|e| panic!("session persistence at {}: {e}", p.dir.display()))
            }
        };
        let topk = topk_factory.as_ref().map(|f| f(&model));
        let shared = Arc::new(Shared {
            models: ModelRegistry::new(model, topk),
            topk_factory,
            sessions,
            cfg,
            queue: Mutex::new(QueueState {
                q: VecDeque::new(),
                closed: false,
            }),
            notify: Condvar::new(),
            metrics: Metrics::new(),
            depth: AtomicU64::new(0),
        });

        let sh = Arc::clone(&shared);
        let scheduler = std::thread::Builder::new()
            .name("serve-scheduler".into())
            .spawn(move || scheduler_loop(&sh))
            .expect("spawn scheduler");

        Server {
            shared,
            scheduler: Some(scheduler),
        }
    }

    /// Spawn a server that additionally serves the full-catalog protocol:
    /// [`TopKRequest`]s run `model.recommend_top_k_batch` over the resolved
    /// session histories — the whole flushed batch in one call, so a
    /// pipeline-backed recommender coalesces every request into one catalog
    /// scan — inside the same queue, batching, and deadline discipline as
    /// candidate scoring. One server answers both request shapes.
    pub fn start_recommender(model: Arc<R>, cfg: ServeConfig) -> Self
    where
        R: TopKRecommender,
    {
        // A *factory*, not a captured handler: publish rebuilds the top-k
        // closure for each new generation so swapped models serve the
        // full-catalog protocol too.
        let factory = Arc::new(|m: &Arc<R>| {
            let handler = Arc::clone(m);
            let f: TopKFn = Arc::new(move |requests| handler.recommend_top_k_batch(requests));
            f
        });
        Self::start_inner(model, cfg, Some(factory))
    }

    /// Atomically publish `model` as the new serving generation and return
    /// its publish sequence (the `model_seq` subsequent responses carry).
    ///
    /// Safe under live traffic: batches flushed before this call drain on
    /// the generation they loaded; batches flushed after see only `model`.
    /// No request is ever scored by a mixture, and untouched sessions score
    /// bitwise-identically across a publish of a repacked (parameter-equal)
    /// model — pinned by `tests/hot_swap.rs` and gated by `bench/bin/soak`.
    pub fn publish(&self, model: Arc<R>) -> u64 {
        let topk = self.shared.topk_factory.as_ref().map(|f| f(&model));
        let seq = self.shared.models.publish(model, topk);
        self.shared.metrics.record_publish(seq);
        seq
    }

    /// The hot-swap registry (current generation, publish sequence).
    pub fn registry(&self) -> &ModelRegistry<R> {
        &self.shared.models
    }

    /// A submission handle. Clone freely across client threads.
    pub fn client(&self) -> Client<R> {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Live metrics (atomic reads; callable while serving).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The session store (e.g. to pre-seed histories).
    pub fn sessions(&self) -> &SessionStore {
        &self.shared.sessions
    }

    /// The configuration the server runs with.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.cfg
    }

    /// Stop accepting requests, drain and answer everything queued, join all
    /// threads, and return the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.close_and_join();
        self.shared.metrics.snapshot()
    }

    fn close_and_join(&mut self) {
        {
            let mut st = self.shared.queue.lock().unwrap();
            st.closed = true;
        }
        self.shared.notify.notify_all();
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
    }
}

impl<R: Ranker + Send + Sync + 'static> Drop for Server<R> {
    fn drop(&mut self) {
        self.close_and_join();
    }
}
