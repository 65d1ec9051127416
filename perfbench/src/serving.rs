//! The three served workloads: `topk_rerank`, `topk_scan`, `score_sessions`.
//!
//! Each builds its stack (several times, for a steady `setup_s`), starts one
//! server, and drives it from one generator thread through two phases: a
//! closed loop that saturates it and an open loop at the workload's frozen
//! rate. Sampled responses are checked bitwise against direct model calls,
//! the server's ledger against the generator's own counts, and — where
//! sessions are durable — the recovered WAL against the live store.

use crate::datagen::Rng;
use crate::layers::{self, LayerCtx, BATCH, K, M};
use crate::load::{closed_loop, open_loop, Phase, Served, Target};
use crate::model::Traced;
use crate::report::{Checks, Outcome, Values};
use crate::stack::{build_backbone, fit, Backbone, Scale, StackSpec, StageTimes, HEAD};
use crate::stats::{median, quantile_sorted, sorted, supported_quantile};
use crate::trace::{SpanId, Tracer};
use crate::{peak_rss_mb, scratch_dir};
use delrec_core::{LmPreset, Recommender};
use delrec_data::{CandidateSampler, Example, ItemId, Split};
use delrec_eval::{Ranker, TopKQuery, TopKRecommender};
use delrec_serve::{
    Client, MetricsSnapshot, RecRequest, ResponseHandle, ServeConfig, Server, SessionStore,
    TopKHandle, TopKRequest,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests the closed loop keeps outstanding: two full batches, so the
/// scheduler always finds the next batch waiting.
pub const WINDOW: usize = 64;
/// Served responses checked against direct calls, per phase.
const SAMPLES_PER_PHASE: usize = 128;
/// Returning users of `score_sessions`.
const SESSION_USERS: usize = 4096;

/// Which protocol a workload speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// `TopKRequest { k: 10 }` over the whole catalog, a fresh session each.
    TopK,
    /// `RecRequest` with 15 candidates from returning users with durable
    /// sessions.
    Sessions,
}

/// One served workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// LM backbone.
    pub preset: LmPreset,
    /// Served catalog size.
    pub n_items: usize,
    /// Request protocol.
    pub protocol: Protocol,
    /// Open-loop rate, requests per second. **Frozen**: about half of
    /// `sat_rps` at the commit that defined the benchmark, on the host it
    /// was defined on (see the README); never recalibrated, so that a
    /// latency measured after a change is a latency at the same load.
    pub paced_rps: f64,
}

/// The served workloads. `topk_rerank`: the LM re-rank does nearly all the
/// work. `topk_scan`: the catalog scan and the heap do most of it.
/// `score_sessions`: the model is so cheap that admission, sessions, WAL and
/// scheduling are the largest share they ever are.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "topk_rerank",
        preset: LmPreset::Xl,
        n_items: 4096,
        protocol: Protocol::TopK,
        paced_rps: 100.0,
    },
    Workload {
        name: "topk_scan",
        preset: LmPreset::Large,
        n_items: 262_144,
        protocol: Protocol::TopK,
        paced_rps: 220.0,
    },
    Workload {
        name: "score_sessions",
        preset: LmPreset::Large,
        n_items: 4096,
        protocol: Protocol::Sessions,
        paced_rps: 16000.0,
    },
];

/// A served top-k answer kept for the bitwise check.
struct KeptTopK {
    history: Vec<ItemId>,
    items: Vec<(ItemId, f32)>,
}

/// A served scoring answer kept for the bitwise check.
struct KeptScores {
    history: Vec<ItemId>,
    candidates: Vec<ItemId>,
    scores: Vec<f32>,
}

/// Which requests of a phase are kept: every `stride`-th, up to a cap.
#[derive(Default)]
struct Sampling {
    stride: u64,
    cap: usize,
    topk: Vec<KeptTopK>,
    scores: Vec<KeptScores>,
}

impl Sampling {
    fn len(&self) -> usize {
        self.topk.len() + self.scores.len()
    }

    fn wants(&self, i: u64) -> bool {
        self.len() < self.cap && i.is_multiple_of(self.stride.max(1))
    }

    /// Answers that differ bitwise from the direct call on the same history.
    /// The first top-k answers are recomputed one request at a time, the
    /// rest through the batched call (which the product pins to it).
    fn mismatches(&self, model: &Recommender) -> u64 {
        let (solo, batched) = self.topk.split_at(BATCH.min(self.topk.len()));
        let mut bad = 0;
        for k in solo {
            bad += u64::from(bits(&k.items) != bits(&model.recommend_top_k(&k.history, K)));
        }
        for chunk in batched.chunks(BATCH) {
            let queries: Vec<TopKQuery<'_>> =
                chunk.iter().map(|k| (k.history.as_slice(), K)).collect();
            for (k, want) in chunk.iter().zip(&model.recommend_top_k_batch(&queries)) {
                bad += u64::from(bits(&k.items) != bits(want));
            }
        }
        for k in &self.scores {
            let want = model.score_candidates(&k.history, &k.candidates);
            bad += u64::from(score_bits(&k.scores) != score_bits(&want));
        }
        bad
    }
}

/// The generator's side of a top-k workload.
struct TopKTarget<'a> {
    client: Client<Traced>,
    examples: &'a [Example],
    order: Vec<usize>,
    max_history: usize,
    sampling: Sampling,
}

impl TopKTarget<'_> {
    /// The history request `i` sends (test prefixes, in a seeded order).
    fn prefix(&self, i: u64) -> &[ItemId] {
        &self.examples[self.order[i as usize % self.order.len()]].prefix
    }
}

impl Target for TopKTarget<'_> {
    type Request = TopKRequest;
    type Handle = TopKHandle;

    fn prepare(&mut self, i: u64) -> TopKRequest {
        TopKRequest {
            // A fresh session per request: the session is the prefix.
            user_id: i,
            recent_items: self.prefix(i).to_vec(),
            k: K,
            deadline: None,
        }
    }

    fn submit(&mut self, _i: u64, request: TopKRequest) -> Option<TopKHandle> {
        self.client.submit_topk(request).ok()
    }

    fn wait(&mut self, i: u64, handle: TopKHandle) -> Option<Served> {
        let resp = handle.wait().ok()?;
        if self.sampling.wants(i) {
            // What the server scored against: the session, truncated.
            let prefix = self.prefix(i);
            let history = prefix[prefix.len().saturating_sub(self.max_history)..].to_vec();
            self.sampling.topk.push(KeptTopK {
                history,
                items: resp.items,
            });
        }
        Some(Served {
            latency: resp.latency,
            queue_wait: resp.queue_wait,
        })
    }

    fn backlog(&self) -> usize {
        self.client.queue_depth()
    }
}

/// The generator's side of `score_sessions`: returning users sending short
/// deltas, mirrored so that a sampled response can be recomputed.
struct SessionTarget {
    client: Client<Traced>,
    rng: Rng,
    seed: u64,
    head: usize,
    n_items: usize,
    sampler: CandidateSampler,
    max_history: usize,
    mirror: Vec<Vec<ItemId>>,
    pending: HashMap<u64, (Vec<ItemId>, Vec<ItemId>)>,
    sampling: Sampling,
}

impl SessionTarget {
    fn append_mirror(&mut self, user: usize, delta: &[ItemId]) {
        let h = &mut self.mirror[user];
        h.extend_from_slice(delta);
        if h.len() > self.max_history {
            h.drain(..h.len() - self.max_history);
        }
    }
}

impl Target for SessionTarget {
    type Request = RecRequest;
    type Handle = ResponseHandle;

    fn prepare(&mut self, i: u64) -> RecRequest {
        let user = self.rng.below(self.mirror.len());
        let delta: Vec<ItemId> = (0..1 + self.rng.below(2))
            .map(|_| ItemId(self.rng.below(self.head) as u32))
            .collect();
        let target = ItemId(self.rng.below(self.n_items) as u32);
        let candidates = self.sampler.candidates(target, self.seed, i as usize);
        // The server appends the delta even when it refuses the request, so
        // the mirror appends unconditionally too.
        self.append_mirror(user, &delta);
        if self.sampling.wants(i) && self.sampling.len() + self.pending.len() < self.sampling.cap {
            self.pending
                .insert(i, (self.mirror[user].clone(), candidates.clone()));
        }
        RecRequest {
            user_id: user as u64,
            recent_items: delta,
            candidates,
            deadline: None,
        }
    }

    fn submit(&mut self, _i: u64, request: RecRequest) -> Option<ResponseHandle> {
        self.client.submit(request).ok()
    }

    fn wait(&mut self, i: u64, handle: ResponseHandle) -> Option<Served> {
        let resp = handle.wait().ok()?;
        if let Some((history, candidates)) = self.pending.remove(&i) {
            self.sampling.scores.push(KeptScores {
                history,
                candidates,
                scores: resp.scores,
            });
        }
        Some(Served {
            latency: resp.latency,
            queue_wait: resp.queue_wait,
        })
    }

    fn backlog(&self) -> usize {
        self.client.queue_depth()
    }
}

/// A stack that is up and serving.
struct Running {
    backbone: Backbone,
    model: Arc<Traced>,
    server: Server<Traced>,
    wal_dir: Option<PathBuf>,
    /// `score_sessions`: every user's pre-seeded history.
    seeded: Vec<Vec<ItemId>>,
    times: StageTimes,
    index_s: f64,
    start_s: f64,
    total_s: f64,
}

fn bits(ranked: &[(ItemId, f32)]) -> Vec<(u32, u32)> {
    ranked.iter().map(|&(id, s)| (id.0, s.to_bits())).collect()
}

fn score_bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Build everything from the seed to a server that has answered one request.
fn set_up(w: &Workload, spec: &StackSpec, seed: u64, tracer: &Arc<Tracer>) -> Running {
    let t = Instant::now();
    let root = tracer.begin("setup", Tracer::ROOT, None);
    let (backbone, mut times) = build_backbone(spec, seed, tracer, root);
    let (fitted, fit_s) = fit(&backbone, &spec.fit, seed, tracer, root);
    times.fit_s = fit_s;
    let model = Arc::new(Traced::new(Recommender::new(fitted), Arc::clone(tracer)));
    let warm_history = backbone.train.examples(Split::Test)[0].prefix.clone();
    // The first retrieval exports every title embedding and packs the index.
    let ((), index_s) = tracer.time("retrieval.index_build", root, || {
        if w.protocol == Protocol::TopK {
            let n = model.inner.config().retrieve_n;
            std::hint::black_box(model.inner.retrieve(&warm_history, n));
        }
    });
    let mut cfg = ServeConfig {
        max_queue: 4096,
        ..ServeConfig::default()
    };
    let wal_dir = (w.protocol == Protocol::Sessions).then(|| {
        let dir = scratch_dir().join(format!("wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    if let Some(dir) = &wal_dir {
        cfg = cfg.with_persistence(dir);
    }
    let mut seeded = Vec::new();
    let (server, start_s) = tracer.time("serve.start", root, || {
        let server = match w.protocol {
            Protocol::TopK => Server::start_recommender(Arc::clone(&model), cfg),
            Protocol::Sessions => Server::start(Arc::clone(&model), cfg),
        };
        let client = server.client();
        // One answered request: the LM's weight packs are built on first
        // use, and an operator waits for that too.
        match w.protocol {
            Protocol::TopK => {
                let warm = TopKRequest {
                    user_id: u64::MAX,
                    recent_items: warm_history.clone(),
                    k: K,
                    deadline: None,
                };
                client.recommend_topk(warm).expect("warm-up request");
            }
            Protocol::Sessions => {
                // Returning users come with a history.
                let mut rng = Rng::new(seed ^ 0x05EE_D0FF);
                let users = SESSION_USERS.min(spec.n_items);
                let head = HEAD.min(spec.train_items / 2);
                for user in 0..users {
                    let items: Vec<ItemId> =
                        (0..9).map(|_| ItemId(rng.below(head) as u32)).collect();
                    server.sessions().append(user as u64, &items);
                    seeded.push(items);
                }
                let warm = RecRequest {
                    user_id: 0,
                    recent_items: Vec::new(),
                    candidates: (0..M as u32).map(ItemId).collect(),
                    deadline: None,
                };
                client.recommend(warm).expect("warm-up request");
            }
        }
        server
    });
    tracer.end(root);
    Running {
        backbone,
        model,
        server,
        wal_dir,
        seeded,
        times,
        index_s,
        start_s,
        total_s: t.elapsed().as_secs_f64(),
    }
}

fn tear_down(r: Running) {
    drop(r.server);
    if let Some(dir) = r.wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Either generator, so that the phases are written once.
enum AnyTarget<'a> {
    TopK(TopKTarget<'a>),
    Sessions(Box<SessionTarget>),
}

impl AnyTarget<'_> {
    fn sampling(&mut self) -> &mut Sampling {
        match self {
            AnyTarget::TopK(t) => &mut t.sampling,
            AnyTarget::Sessions(t) => &mut t.sampling,
        }
    }

    /// Keep about `SAMPLES_PER_PHASE` more answers out of `expected`.
    fn sample_next(&mut self, expected: f64) {
        let s = self.sampling();
        s.cap = s.len() + SAMPLES_PER_PHASE;
        s.stride = ((expected / SAMPLES_PER_PHASE as f64) as u64).max(1);
    }

    fn closed(&mut self, duration: Duration, first: u64) -> Phase {
        match self {
            AnyTarget::TopK(t) => closed_loop(t, WINDOW, duration, first),
            AnyTarget::Sessions(t) => closed_loop(t.as_mut(), WINDOW, duration, first),
        }
    }

    fn open(&mut self, rate: f64, duration: Duration, first: u64) -> Phase {
        match self {
            AnyTarget::TopK(t) => open_loop(t, rate, duration, first),
            AnyTarget::Sessions(t) => open_loop(t.as_mut(), rate, duration, first),
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Counters of the program's own registry that the scoring path bumps.
#[derive(Clone, Copy)]
struct CacheCounters {
    prefix: (u64, u64),
    pack: (u64, u64),
    title: (u64, u64),
    pool: (u64, u64),
    wal: (u64, u64),
}

impl CacheCounters {
    fn read() -> Self {
        let c = |name: &str| delrec_obs::global().counter(name).get();
        CacheCounters {
            prefix: (c("core.prefix_cache.hit"), c("core.prefix_cache.rebuild")),
            pack: (c("lm.weight_pack.hit"), c("lm.weight_pack.build")),
            title: (c("lm.title_cache.hit"), c("lm.title_cache.miss")),
            // `take` counts every checkout, `miss` the ones that allocated.
            pool: (c("tensor.pool.take"), c("tensor.pool.miss")),
            wal: (c("serve.wal.append_bytes"), c("serve.wal.appends")),
        }
    }
}

fn ratio(hit: u64, miss: u64) -> f64 {
    if hit + miss == 0 {
        0.0
    } else {
        hit as f64 / (hit + miss) as f64
    }
}

/// Synthesise each answered request's spans from what the generator and the
/// response recorded, hang the model call that served it underneath, and
/// return the share of served latency those spans explain.
fn request_spans(tracer: &Tracer, phase: &Phase, root: SpanId) -> f64 {
    // Model calls the wrapper saw on the scheduler thread, by start time.
    let mut calls: Vec<(u64, u64)> = tracer
        .spans()
        .iter()
        .filter(|s| {
            s.name == "core.recommend_top_k_batch" || s.name == "core.score_candidates_batch"
        })
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    calls.sort_unstable();
    let ns = |d: Duration| d.as_nanos() as u64;
    let mut covered = Vec::with_capacity(phase.samples.len());
    for s in &phase.samples {
        let id = Some(s.request);
        let sent = tracer.ns(s.submit_start);
        let due = sent.saturating_sub(ns(s.lag));
        let flush = sent + ns(s.served.queue_wait);
        let req = tracer.record("request", due, sent + ns(s.served.latency), root, id);
        tracer.record("gen.lag", due, sent, req, id);
        tracer.record("serve.submit", sent, sent + ns(s.submit), req, id);
        tracer.record("serve.queue_wait", sent, flush, req, id);
        // The batch's model call is the first one to start once this
        // request's queue wait is over.
        let call = calls.get(calls.partition_point(|&(start, _)| start < flush));
        if let Some(&(a, b)) = call {
            tracer.record("core.call", a, b, req, id);
        }
        let explained = ns(s.lag) + ns(s.served.queue_wait) + call.map_or(0, |&(a, b)| b - a);
        covered.push(explained as f64 / ns(s.due_latency()).max(1) as f64);
    }
    if covered.is_empty() {
        0.0
    } else {
        median(&covered)
    }
}

/// Run one served workload.
pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool, scale: Scale) -> Outcome {
    let mut values = Values::default();
    let mut checks = Checks::default();
    let tracer = Arc::new(Tracer::new(traced));
    let spec = StackSpec::new(w.preset, w.n_items, scale);

    // --- Set-up, several times over; the last stack is the one measured. ---
    let mut running: Option<Running> = None;
    let mut totals = Vec::new();
    let mut fits = Vec::new();
    for _ in 0..scale.setup_repeats() {
        if let Some(prev) = running.take() {
            tear_down(prev);
        }
        let r = set_up(w, &spec, seed, &tracer);
        totals.push(r.total_s);
        fits.push(r.times.fit_s);
        running = Some(r);
    }
    let r = running.expect("at least one set-up");
    let max_history = r.server.config().max_history;
    let max_batch = r.server.config().max_batch;

    let examples = r.backbone.train.examples(Split::Test);
    let mut target = match w.protocol {
        Protocol::TopK => AnyTarget::TopK(TopKTarget {
            client: r.server.client(),
            examples,
            order: Rng::new(seed ^ 0x0DE5).permutation(examples.len()),
            max_history,
            sampling: Sampling::default(),
        }),
        Protocol::Sessions => AnyTarget::Sessions(Box::new(SessionTarget {
            client: r.server.client(),
            rng: Rng::new(seed ^ 0x5E55_1045),
            seed,
            head: HEAD.min(spec.train_items / 2),
            n_items: spec.n_items,
            sampler: CandidateSampler::new(spec.n_items, M),
            max_history,
            mirror: r.seeded.clone(),
            pending: HashMap::new(),
            sampling: Sampling::default(),
        })),
    };

    // --- Measured phases. ---------------------------------------------------
    // Untraced run: half the time saturating, half paced. Traced run: the
    // same two phases in a quarter of the time each — once untraced, for the
    // overhead ratio — and the rest on the layer measurements.
    let (sat_secs, paced_secs) = if traced {
        (seconds / 8.0, seconds / 4.0)
    } else {
        (seconds / 2.0, seconds / 2.0)
    };
    let (sat_time, paced_time) = (
        Duration::from_secs_f64(sat_secs),
        Duration::from_secs_f64(paced_secs),
    );
    // Requests are numbered across phases, so the count sent so far is also
    // the next request's index.
    let (mut attempted, mut failed) = (0, 0);
    let mut account = |p: &Phase| {
        attempted += p.attempted;
        failed += p.failed;
        attempted
    };
    tracer.set_enabled(false);
    let warm_time = Duration::from_secs_f64((seconds / 40.0).min(0.25));
    let mut next = account(&target.closed(warm_time, 0));
    let counters_before = CacheCounters::read();
    let snap_before = r.server.metrics().snapshot();
    let mut untraced_sat_rps = 0.0;
    if traced {
        let p = target.closed(sat_time, next);
        next = account(&p);
        untraced_sat_rps = p.rps(max_batch);
        tracer.set_enabled(true);
    }
    target.sample_next(2.0 * w.paced_rps * sat_secs);
    let sat_root = tracer.begin("phase.sat", Tracer::ROOT, None);
    let sat = target.closed(sat_time, next);
    tracer.end(sat_root);
    next = account(&sat);
    let snap_sat = r.server.metrics().snapshot();
    target.sample_next(w.paced_rps * paced_secs);
    let paced_root = tracer.begin("phase.paced", Tracer::ROOT, None);
    let paced = target.open(w.paced_rps, paced_time, next);
    tracer.end(paced_root);
    account(&paced);
    let counters_after = CacheCounters::read();
    checks.requests(attempted, failed);

    let from_due = sorted(paced.samples.iter().map(|s| ms(s.due_latency())).collect());
    let p50 = paced.due_latency_ms(0.50);
    let p90 = paced.due_latency_ms(0.90);
    if scale == Scale::Full {
        checks.check(
            "paced phase has ten samples beyond p90",
            supported_quantile(&from_due, 0.90).is_some(),
        );
    }
    let sat_rps = sat.rps(max_batch);

    // --- Output checks. -------------------------------------------------------
    let kept = std::mem::take(target.sampling());
    checks.check_many(
        "served response differs from the direct call",
        kept.len() as u64,
        kept.mismatches(&r.model.inner),
    );
    checks.check("sampled responses were kept", kept.len() > 0);

    let live = r.server.sessions().dump();
    if let AnyTarget::Sessions(t) = &target {
        let mirror: Vec<(u64, Vec<ItemId>)> = t
            .mirror
            .iter()
            .enumerate()
            .map(|(u, h)| (u as u64, h.clone()))
            .collect();
        checks.check(
            "session store equals the generator's mirror",
            live == mirror,
        );
    }
    // A backlog that grows at the frozen rate shows as queue waits that keep
    // rising: compare the last fifth of the phase with the first. (The queue
    // depth at the end is reported too, but one stall of the host in the
    // last milliseconds would fail a check on it.)
    let depth_end = paced.backlog_at_end;
    let waits: Vec<f64> = paced
        .samples
        .iter()
        .map(|s| ms(s.served.queue_wait))
        .collect();
    let fifth = (waits.len() / 5).max(1);
    let window_ms = ms(r.server.config().batch_window);
    let (early, late) = (
        median(&waits[..fifth]),
        median(&waits[waits.len() - fifth..]),
    );
    checks.check(
        "no growing backlog at the frozen rate (late queue waits <= 5x early ones)",
        late <= 5.0 * early.max(window_ms),
    );
    drop(target);
    let Running {
        backbone,
        model,
        server,
        wal_dir,
        times,
        index_s,
        start_s,
        ..
    } = r;
    let snap: MetricsSnapshot = server.shutdown();
    // Set-up sent one warm-up request per stack on top of the generator's.
    let rejected = snap.rejected_queue_full + snap.rejected_deadline;
    checks.check(
        "ledger: submitted == completed + shed + timed_out",
        snap.submitted == snap.completed + snap.shed_expired + snap.timed_out,
    );
    checks.check(
        "ledger: generator's count == submitted + rejected",
        attempted + 1 == snap.submitted + rejected,
    );
    let mut recover_s = 0.0;
    if let Some(dir) = &wal_dir {
        let t = Instant::now();
        let recovered = SessionStore::recover(dir).map(|s| s.dump());
        recover_s = t.elapsed().as_secs_f64();
        checks.check(
            "recovered WAL equals the sessions before shutdown",
            recovered.is_ok_and(|d| d == live),
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    // --- Metrics. -------------------------------------------------------------
    if !traced {
        values.set("setup_s", median(&totals));
        values.set("fit_s", median(&fits));
        values.set("sat_rps", sat_rps);
        values.set("paced_p50_ms", p50);
        values.set("paced_p90_ms", p90);
        values.set("peak_rss_mb", peak_rss_mb());
        return Outcome { values, checks };
    }

    let coverage = request_spans(&tracer, &paced, paced_root);
    values.set("waterfall.coverage_ratio", coverage);
    values.set("trace.overhead_ratio", sat_rps / untraced_sat_rps.max(1e-9));
    times.record(&spec.fit, &backbone, &mut values);
    values.set("retrieval.index_build_s", index_s);
    values.set("serve.start_s", start_s);

    let batches = |s: &MetricsSnapshot| (s.batches as f64, s.mean_batch_size * s.batches as f64);
    let mean_batch = |a: &MetricsSnapshot, b: &MetricsSnapshot| {
        let ((ba, ra), (bb, rb)) = (batches(a), batches(b));
        if bb > ba {
            (rb - ra) / (bb - ba)
        } else {
            0.0
        }
    };
    // The traced run's untraced saturation phase shares the first interval.
    values.set("serve.sat_mean_batch", mean_batch(&snap_before, &snap_sat));
    values.set("serve.paced_mean_batch", mean_batch(&snap_sat, &snap));
    let waits = sorted(waits);
    // The generator's own lateness: requests it was on time to wait for. A
    // request that was already late when its turn came is late because an
    // earlier `submit` stalled, which is the system's doing.
    let lags = sorted(
        paced
            .samples
            .iter()
            .filter(|s| s.waited)
            .map(|s| ms(s.lag))
            .collect(),
    );
    checks.check(
        "the generator waited for most due times",
        lags.len() * 2 > paced.samples.len(),
    );
    values.set("serve.queue_wait_p50_ms", quantile_sorted(&waits, 0.50));
    values.set("serve.queue_wait_p99_ms", quantile_sorted(&waits, 0.99));
    values.set("serve.latency_p99_ms", quantile_sorted(&from_due, 0.99));
    let late = quantile_sorted(&lags, 0.99);
    values.set("serve.gen_lag_p99_ms", late);
    // A warning, not a check: lateness is the host's scheduler at work, not
    // an output of the program, and as a check it failed one traced run in
    // five on a shared host (eight late wake-ups in a thousand are enough).
    // The latency from the due time carries it in any case.
    if scale == Scale::Full && late >= 0.10 * p50 {
        eprintln!(
            "perfbench: warning: generator lateness p99 {late:.3} ms is over 10% of \
             paced p50 {p50:.3} ms; the host shaped part of this run's load"
        );
    }
    values.set("serve.rejected", rejected as f64);
    values.set("serve.shed", snap.shed_expired as f64);
    values.set("serve.timed_out", snap.timed_out as f64);
    values.set("serve.queue_depth_end", depth_end as f64);
    values.set("serve.recover_s", recover_s);
    let submit_us: Vec<f64> = sat
        .samples
        .iter()
        .chain(&paced.samples)
        .map(|s| s.submit.as_secs_f64() * 1e6)
        .collect();
    values.set("serve.submit_us", median(&submit_us));

    let (before, after) = (counters_before, counters_after);
    let delta = |a: (u64, u64), b: (u64, u64)| (b.0 - a.0, b.1 - a.1);
    let (hit, miss) = delta(before.prefix, after.prefix);
    values.set("core.prefix_cache_hit_ratio", ratio(hit, miss));
    let (hit, miss) = delta(before.pack, after.pack);
    values.set("lm.weight_pack_hit_ratio", ratio(hit, miss));
    let (hit, miss) = delta(before.title, after.title);
    values.set("lm.title_cache_hit_ratio", ratio(hit, miss));
    let (take, miss) = delta(before.pool, after.pool);
    values.set(
        "tensor.pool_hit_ratio",
        ratio(take.saturating_sub(miss), miss),
    );
    let (bytes, appends) = delta(before.wal, after.wal);
    if appends > 0 {
        values.set("serve.wal_bytes_per_req", bytes as f64 / appends as f64);
    }

    let layer_root = tracer.begin("layers", Tracer::ROOT, None);
    layers::measure(
        &LayerCtx {
            backbone: &backbone,
            rec: &model.inner,
            k_soft: spec.fit.k_soft,
            topk: w.protocol == Protocol::TopK,
            serving: true,
            budget: Duration::from_secs_f64(seconds / 2.0),
            seed,
        },
        &tracer,
        layer_root,
        &mut values,
        &mut checks,
    );
    tracer.end(layer_root);
    // What the server adds to a request on top of the model's batched call.
    let direct_us = match w.protocol {
        Protocol::TopK => values.get("core.recommend_us_per_req_b32"),
        Protocol::Sessions => values.get("core.score_us_per_req_b32"),
    }
    .unwrap_or(0.0);
    let per_req_us = 1e6 / sat_rps.max(1e-9);
    values.set("serve.overhead_us_per_req", per_req_us - direct_us);
    values.set(
        "serve.overhead_share",
        (per_req_us - direct_us) / per_req_us,
    );

    crate::trace::write_file(w.name, &tracer, &mut checks);
    Outcome { values, checks }
}
