//! `soak` — open-loop soak of the serving runtime across a model hot-swap
//! and a simulated kill/recover, over a WAL-backed session store.
//!
//! The run sustains paced traffic through three waves on one persistence
//! directory:
//!
//! 1. **Pre-swap wave** — open-loop arrivals build per-user sessions on a
//!    persistent server; every response is verified bitwise against direct
//!    scoring on the client-tracked history. Probe users then record
//!    reference scores on their settled sessions.
//! 2. **Hot swap** — the fitted model is repacked through a `save → load`
//!    round-trip and published under live configuration. A post-swap wave
//!    hits fresh users (verified bitwise against the repacked model), and
//!    the probes re-score: untouched sessions must not change by a single
//!    bit across the swap, and every post-swap response must acknowledge the
//!    new generation.
//! 3. **Kill / recover** — the server is dropped, a garbage torn tail is
//!    appended to one shard log (the crash that never acked), and the store
//!    is recovered: the rebuilt state must be bitwise identical to the
//!    pre-crash dump with zero lost sessions. A restarted server on the same
//!    directory then continues the original sessions seamlessly.
//!
//! Gates (abort on violation, recorded in the JSON): zero bitwise scoring
//! mismatches in every wave, zero probe drift across the swap, recovered
//! state ≡ pre-crash state, zero lost sessions, `completed + shed +
//! timed_out ≤ submitted` on every ledger, and p99 latency bounded by the
//! request deadline budget. Observability: `serve.wal.*` and
//! `serve.<n>.swap.*` metrics are exported into the blob.
//!
//! Writes `BENCH_soak.json`.

use delrec_bench::harness::{fit_delrec, ScoringWorkload};
use delrec_bench::{banner, write_json, CliArgs, ExperimentContext};
use delrec_core::{DelRec, LmPreset, TeacherKind};
use delrec_data::synthetic::DatasetProfile;
use delrec_data::ItemId;
use delrec_eval::json::Json;
use delrec_eval::report::Table;
use delrec_eval::Ranker;
use delrec_serve::{
    MetricsSnapshot, PersistConfig, RecRequest, ServeConfig, Server, SessionStore, WalOptions,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client-side session replay: the store's append/truncate semantics.
fn replay_session(hist: &mut Vec<ItemId>, delta: &[ItemId], max_history: usize) -> Vec<ItemId> {
    hist.extend_from_slice(delta);
    if hist.len() > max_history {
        hist.drain(..hist.len() - max_history);
    }
    hist.clone()
}

/// Read one counter from the global observability registry (0 if absent).
fn global_counter(name: &str) -> u64 {
    delrec_obs::global()
        .snapshot()
        .into_iter()
        .find(|(n, _)| n == name)
        .and_then(|(_, v)| match v {
            delrec_obs::MetricValue::Counter(c) => Some(c),
            _ => None,
        })
        .unwrap_or(0)
}

/// One wave's outcome: the server-side ledger plus the client-side bitwise
/// verification tally.
struct Wave {
    label: &'static str,
    submitted: usize,
    completed: u64,
    shed_or_timed_out: u64,
    rejected: u64,
    mismatches: usize,
    wrong_seq: usize,
    p50_ms: f64,
    p99_ms: f64,
}

impl Wave {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::from(self.label)),
            ("submitted", Json::from(self.submitted)),
            ("completed", Json::from(self.completed as usize)),
            (
                "shed_or_timed_out",
                Json::from(self.shed_or_timed_out as usize),
            ),
            ("rejected", Json::from(self.rejected as usize)),
            ("bitwise_mismatches", Json::from(self.mismatches)),
            ("wrong_model_seq", Json::from(self.wrong_seq)),
            ("latency_p50_ms", Json::from(self.p50_ms)),
            ("latency_p99_ms", Json::from(self.p99_ms)),
        ])
    }
}

/// The ledger invariant every server snapshot must satisfy.
fn assert_ledger(snap: &MetricsSnapshot, label: &str) {
    assert!(
        snap.completed + snap.shed_expired + snap.timed_out <= snap.submitted,
        "[{label}] ledger violated: completed {} + shed {} + timed_out {} > submitted {}",
        snap.completed,
        snap.shed_expired,
        snap.timed_out,
        snap.submitted
    );
}

/// Drive one open-loop wave: users `user_base + (i % users)` receive paced
/// delta appends drawn from the workload, every completed response is
/// verified bitwise against `verify_model` on the client-tracked history,
/// and (when `expect_seq` is set) must acknowledge exactly that publish
/// sequence. `sessions` carries each user's shadow history across waves —
/// and across the kill/recover.
#[allow(clippy::too_many_arguments)]
fn run_wave(
    label: &'static str,
    server: &Server<DelRec>,
    verify_model: &DelRec,
    work: &ScoringWorkload,
    sessions: &mut HashMap<u64, Vec<ItemId>>,
    user_base: u64,
    users: u64,
    n: usize,
    offered_rps: f64,
    budget: Duration,
    expect_seq: Option<u64>,
) -> Wave {
    let client = server.client();
    let max_history = server.config().max_history;
    let interarrival = Duration::from_secs_f64(1.0 / offered_rps);
    let start = Instant::now();
    let mut rejected = 0u64;
    let mut inflight = Vec::with_capacity(n);
    for i in 0..n {
        let due = start + interarrival * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let user = user_base + (i as u64 % users);
        let prefix = work.prefix(i);
        let delta = &prefix[..prefix.len().min(3)];
        let expected = replay_session(sessions.entry(user).or_default(), delta, max_history);
        let cands = work.candidates(i).to_vec();
        match client.submit(RecRequest {
            user_id: user,
            recent_items: delta.to_vec(),
            candidates: cands.clone(),
            deadline: Some(Instant::now() + budget),
        }) {
            Ok(h) => inflight.push((h, expected, cands)),
            Err(_) => rejected += 1,
        }
    }

    let mut completed = 0u64;
    let mut shed = 0u64;
    let mut mismatches = 0usize;
    let mut wrong_seq = 0usize;
    let mut verified = Vec::new();
    for (h, hist, cands) in inflight {
        match h.wait() {
            Ok(resp) => {
                completed += 1;
                if expect_seq.is_some_and(|s| resp.model_seq != s) {
                    wrong_seq += 1;
                }
                verified.push((resp.scores, hist, cands));
            }
            Err(_) => shed += 1,
        }
    }
    // Verify after the wave drains so direct scoring never overlaps the
    // server's own forwards.
    for (scores, hist, cands) in &verified {
        if verify_model.score_candidates(hist, cands) != *scores {
            mismatches += 1;
        }
    }

    let after = server.metrics().snapshot();
    assert_ledger(&after, label);
    eprintln!(
        "[{label}] {completed}/{n} completed, {shed} shed, {rejected} rejected, \
         {mismatches} bitwise mismatches"
    );
    Wave {
        label,
        submitted: n,
        completed,
        shed_or_timed_out: shed,
        rejected,
        mismatches,
        wrong_seq,
        p50_ms: after.latency_p50.as_secs_f64() * 1e3,
        p99_ms: after.latency_p99.as_secs_f64() * 1e3,
    }
}

fn main() {
    let args = CliArgs::from_env();
    banner(&format!(
        "Soak — durable sessions + model hot-swap under live traffic (scale: {})",
        args.scale
    ));
    let ctx = ExperimentContext::new(DatasetProfile::MovieLens100K, args.scale, args.seed);
    let teacher = TeacherKind::SASRec;
    let preset = LmPreset::Large;
    let model = Arc::new(fit_delrec(&ctx, teacher, preset));

    let (wave_n, users) = match args.scale.to_string().as_str() {
        "smoke" => (48usize, 6u64),
        _ => (160, 16),
    };
    let work = ScoringWorkload::build_cycled(&ctx, args.seed, wave_n);

    // Calibrate offered load to half of the model's direct throughput so the
    // open loop stays sustainable and sheds only on real regressions.
    let t = Instant::now();
    std::hint::black_box(work.score_pass(model.as_ref(), 16));
    let model_rps = wave_n as f64 / t.elapsed().as_secs_f64().max(1e-9);
    let offered_rps = (0.5 * model_rps).clamp(20.0, 2000.0);
    let budget = Duration::from_millis(1000);
    eprintln!("[calibrate] direct ≈ {model_rps:.0} req/s, offering {offered_rps:.0} req/s");

    let wal_dir: PathBuf = std::env::temp_dir().join(format!("delrec-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let cfg = || ServeConfig {
        max_batch: 16,
        max_queue: 4096,
        session_shards: 8,
        persistence: Some(PersistConfig {
            dir: wal_dir.clone(),
            // Aggressive compaction so the soak exercises live snapshotting,
            // not just log appends.
            wal: WalOptions {
                snapshot_bytes: 2048,
                fsync: false,
            },
        }),
        ..ServeConfig::default()
    };

    let mut sessions: HashMap<u64, Vec<ItemId>> = HashMap::new();
    let mut waves = Vec::new();

    // ---- Phase 1: pre-swap wave + probe baselines --------------------------
    let server = Server::start(Arc::clone(&model), cfg());
    waves.push(run_wave(
        "pre-swap",
        &server,
        &model,
        &work,
        &mut sessions,
        0,
        users,
        wave_n,
        offered_rps,
        budget,
        Some(0),
    ));

    // Probes: settled sessions re-scored with an empty delta, before and
    // after the swap. Their bits are the swap-transparency gate.
    let client = server.client();
    let probe_users: Vec<u64> = (0..users.min(6)).collect();
    let probe_scores = |tag: &str| -> Vec<Vec<f32>> {
        probe_users
            .iter()
            .enumerate()
            .map(|(i, &u)| {
                client
                    .submit(RecRequest {
                        user_id: u,
                        recent_items: vec![],
                        candidates: work.candidates(i).to_vec(),
                        deadline: None,
                    })
                    .unwrap_or_else(|e| panic!("probe {tag} admission: {e}"))
                    .wait()
                    .unwrap_or_else(|e| panic!("probe {tag} response: {e}"))
                    .scores
            })
            .collect()
    };
    let probes_before = probe_scores("pre-swap");

    // ---- Phase 2: hot swap (repack via save → load) under live config -----
    eprintln!("[swap] repacking the fitted model (save → load) …");
    let mut blob = Vec::new();
    model.save(&mut blob).expect("serialize fitted model");
    let mut repack_cfg = ctx.delrec_config(teacher);
    repack_cfg.lm = preset;
    let repacked = Arc::new(
        DelRec::load(&ctx.pipeline, &repack_cfg, &mut blob.as_slice()).expect("restore model"),
    );
    let seq = server.publish(Arc::clone(&repacked));
    assert_eq!(seq, 1, "first publish must be sequence 1");

    waves.push(run_wave(
        "post-swap",
        &server,
        &repacked,
        &work,
        &mut sessions,
        1_000,
        users,
        wave_n,
        offered_rps,
        budget,
        Some(1),
    ));

    let probes_after = probe_scores("post-swap");
    let probe_diffs = probes_before
        .iter()
        .zip(&probes_after)
        .filter(|(a, b)| a != b)
        .count();
    assert_eq!(
        probe_diffs, 0,
        "hot swap changed bits for untouched sessions"
    );
    eprintln!(
        "[swap] {} probe sessions bitwise stable across publish",
        probe_users.len()
    );

    // ---- Phase 3: kill, recover, verify, restart ---------------------------
    let pre_crash = server.sessions().dump();
    let swap_snap = server.metrics().snapshot();
    assert_eq!(swap_snap.model_publishes, 1);
    assert_ledger(&swap_snap, "pre-kill");
    let final_p99_ms = swap_snap.latency_p99.as_secs_f64() * 1e3;
    drop(server); // the kill: in-memory state is gone, only the WAL remains

    // A crash can tear the record being written when the plug pulls; no such
    // record was ever acknowledged. Simulate one and demand recovery shrugs.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(wal_dir.join("shard-000.log"))
            .expect("open shard log for tail injection");
        f.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00]).unwrap();
    }

    let torn_before = global_counter("serve.wal.torn_tails");
    let recovered = SessionStore::recover(&wal_dir).expect("recover WAL directory");
    let torn_after = global_counter("serve.wal.torn_tails");
    let recovered_dump = recovered.dump();
    let lost = pre_crash.len().saturating_sub(recovered_dump.len());
    assert_eq!(lost, 0, "sessions lost across kill/recover");
    assert_eq!(
        recovered_dump, pre_crash,
        "recovered state must be bitwise identical to the pre-crash view"
    );
    assert!(torn_after > torn_before, "injected torn tail not observed");
    eprintln!(
        "[recover] {} sessions recovered bitwise, torn tail truncated",
        recovered_dump.len()
    );
    drop(recovered); // release the shard logs before the restart reopens them

    // Restart on the same directory (recover-on-start) and continue the
    // *original* sessions: the shadow histories survive in `sessions`, so a
    // bitwise-clean wave proves continuity through the crash.
    let server = Server::start(Arc::clone(&repacked), cfg());
    assert_eq!(
        server.sessions().dump(),
        pre_crash,
        "recover-on-start state"
    );
    waves.push(run_wave(
        "post-recover",
        &server,
        &repacked,
        &work,
        &mut sessions,
        0,
        users,
        wave_n,
        offered_rps,
        budget,
        Some(0),
    ));
    let restart_snap = server.shutdown();
    assert_ledger(&restart_snap, "post-recover");

    // ---- Gates and report --------------------------------------------------
    let total_mismatches: usize = waves.iter().map(|w| w.mismatches).sum();
    let total_wrong_seq: usize = waves.iter().map(|w| w.wrong_seq).sum();
    assert_eq!(total_mismatches, 0, "bitwise scoring mismatches in soak");
    assert_eq!(total_wrong_seq, 0, "responses acknowledged the wrong model");
    let budget_ms = budget.as_secs_f64() * 1e3;
    for w in &waves {
        assert!(
            w.p99_ms <= budget_ms,
            "[{}] p99 {:.1}ms exceeds the {budget_ms:.0}ms budget",
            w.label,
            w.p99_ms
        );
        assert!(w.completed > 0, "[{}] nothing completed", w.label);
    }

    let mut table = Table::new(["wave", "done", "shed", "mismatch", "p50", "p99"]);
    for w in &waves {
        table.row(vec![
            w.label.into(),
            format!("{}/{}", w.completed, w.submitted),
            format!("{}", w.shed_or_timed_out + w.rejected),
            format!("{}", w.mismatches),
            format!("{:.1}ms", w.p50_ms),
            format!("{:.1}ms", w.p99_ms),
        ]);
    }
    println!("{}", table.to_markdown());

    let wal_metrics = Json::obj([
        (
            "appends",
            Json::from(global_counter("serve.wal.appends") as usize),
        ),
        (
            "append_bytes",
            Json::from(global_counter("serve.wal.append_bytes") as usize),
        ),
        (
            "snapshots",
            Json::from(global_counter("serve.wal.snapshots") as usize),
        ),
        (
            "records_recovered",
            Json::from(global_counter("serve.wal.records_recovered") as usize),
        ),
        (
            "torn_tails",
            Json::from(global_counter("serve.wal.torn_tails") as usize),
        ),
        (
            "recoveries",
            Json::from(global_counter("serve.wal.recoveries") as usize),
        ),
    ]);
    let blob = Json::obj([
        ("experiment", Json::from("soak")),
        ("scale", Json::from(args.scale.to_string())),
        ("dataset", Json::from(ctx.dataset.name.clone())),
        ("offered_rps", Json::from(offered_rps)),
        ("budget_ms", Json::from(budget_ms)),
        ("waves", Json::arr(waves.iter().map(Wave::to_json))),
        (
            "gates",
            Json::obj([
                ("bitwise_mismatches", Json::from(total_mismatches)),
                ("wrong_model_seq", Json::from(total_wrong_seq)),
                ("probe_sessions", Json::from(probe_users.len())),
                ("probe_bit_diffs_across_swap", Json::from(probe_diffs)),
                ("sessions_pre_crash", Json::from(pre_crash.len())),
                ("sessions_lost", Json::from(lost)),
                ("recovered_bitwise_equal", Json::from(1usize)),
                ("ledger_consistent", Json::from(1usize)),
                ("p99_within_budget", Json::from(1usize)),
            ]),
        ),
        (
            "swap",
            Json::obj([
                ("publishes", Json::from(swap_snap.model_publishes as usize)),
                ("final_p99_ms", Json::from(final_p99_ms)),
            ]),
        ),
        ("wal", wal_metrics),
    ]);
    write_json(&args.out, "BENCH_soak", &blob).expect("write results");
    let _ = std::fs::remove_dir_all(&wal_dir);
}
