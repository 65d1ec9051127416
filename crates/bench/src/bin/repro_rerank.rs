//! `repro_rerank` — the served one-row re-rank against the 7-chunk merge,
//! written to `rerank_one_row.json`.
//!
//! Per profile (MovieLens-100K, Steam, Beauty) and seed (`--seed` and 7),
//! DELRec (XL, SASRec teacher, the scale's budgets) is fitted on the profile
//! at full size (its `smoke` size under `--scale smoke`). Each test history's
//! top 100 retrieved items are ranked four ways: retrieval order; the 7-chunk
//! merge (seven 15-candidate prompts, `score_candidates_batch`, merged by
//! `sort_ranked` — rebuilt here, not kept in the product); one row with 15
//! shown (`Recommender::recommend_batch`, the served path); one row with none
//! shown. Reported per run, per profile and pooled: HR/NDCG@10, a paired
//! t-test of per-example NDCG@10 against the merge, and which retrieval chunk
//! of 15 each list's #1 item came from. The quality budget (pooled ΔNDCG@10
//! of the served path ≥ −0.01, no profile with a loss at p ≤ 0.05) is
//! reported, not asserted. Asserted at every scale: the 15 shown items score
//! bitwise as `score_candidates` scores them, the served lists are the
//! one-row scores sorted, and every list is well formed.

use delrec_bench::harness::fit_delrec;
use delrec_bench::{banner, write_json, CliArgs, ExperimentContext, Scale};
use delrec_core::{ItemScoreRequest, LmPreset, RecommendConfig, Recommender, TeacherKind};
use delrec_data::synthetic::DatasetProfile;
use delrec_data::{ItemId, Split};
use delrec_eval::json::Json;
use delrec_eval::report::Table;
use delrec_eval::{paired_t_test, Ranker, ScoreRequest};
use delrec_retrieval::sort_ranked;

const PROFILES: [DatasetProfile; 3] = [
    DatasetProfile::MovieLens100K,
    DatasetProfile::Steam,
    DatasetProfile::Beauty,
];
const SECOND_SEED: u64 = 7;
/// Test examples per run above `smoke`.
const EXAMPLES: usize = 400;
const K: usize = 10;
/// The merge's chunk and the served path's shown set.
const CHUNK: usize = 15;
const BATCH: usize = 16;
/// Quality budget, fixed before the first run.
const NDCG_DELTA_FLOOR: f64 = -0.01;
const ALPHA: f64 = 0.05;
const METHODS: [&str; 4] = [
    "retrieval_order",
    "chunk_merge_7x15",
    "one_row_15_shown",
    "one_row_0_shown",
];
const RETRIEVAL: usize = 0;
const MERGE: usize = 1;
const SERVED: usize = 2;

/// Per method, per example: (HR@10, NDCG@10, retrieval chunk of the #1 item).
type Outcomes = [Vec<(f64, f64, usize)>; 4];

fn top_k(ids: &[ItemId], scores: Vec<f32>) -> Vec<(ItemId, f32)> {
    let mut ranked: Vec<(ItemId, f32)> = ids.iter().copied().zip(scores).collect();
    sort_ranked(&mut ranked);
    ranked.truncate(K);
    ranked
}

fn bits<T: Copy>(scored: &[(T, f32)]) -> Vec<(T, u32)> {
    scored.iter().map(|&(x, s)| (x, s.to_bits())).collect()
}

fn run(profile: DatasetProfile, seed: u64, scale: Scale) -> Outcomes {
    let smoke = scale == Scale::Smoke;
    let factor = if smoke { scale.dataset_factor() } else { 1.0 };
    let ctx = ExperimentContext::with_dataset_factor(profile, scale, seed, factor);
    let rec = Recommender::new(fit_delrec(&ctx, TeacherKind::SASRec, LmPreset::Xl));
    let depth = rec.config().retrieve_n.max(K);
    let cap = if smoke {
        scale.eval_examples().unwrap_or(EXAMPLES)
    } else {
        EXAMPLES
    };
    let test = ctx.dataset.examples(Split::Test);
    let test = &test[..cap.min(test.len())];
    eprintln!(
        "[{}] ranking {} examples four ways …",
        ctx.dataset.name,
        test.len()
    );
    let mut out: Outcomes = Default::default();
    for batch in test.chunks(BATCH) {
        let histories: Vec<&[ItemId]> = batch.iter().map(|e| e.prefix.as_slice()).collect();
        let retrieved: Vec<Vec<(ItemId, f32)>> =
            histories.iter().map(|h| rec.retrieve(h, depth)).collect();
        let ids: Vec<Vec<ItemId>> = retrieved
            .iter()
            .map(|r| r.iter().map(|p| p.0).collect())
            .collect();
        let chunks: Vec<ScoreRequest<'_>> = (ids.iter().zip(&histories))
            .flat_map(|(ids, &h)| ids.chunks(CHUNK).map(move |c| (h, c)))
            .collect();
        let mut merge_scores = rec.model().score_candidates_batch(&chunks).into_iter();
        let one_row = |shown: usize| {
            let requests: Vec<ItemScoreRequest<'_>> = (ids.iter().zip(&histories))
                .map(|(ids, &h)| (h, &ids[..shown.min(ids.len())], ids.as_slice()))
                .collect();
            rec.model().score_items_batch(&requests)
        };
        let (shown_15, shown_0) = (one_row(CHUNK), one_row(0));
        let served = rec.recommend_batch(&histories, K);
        for (i, ex) in batch.iter().enumerate() {
            let ids = &ids[i];
            let merged: Vec<f32> = merge_scores
                .by_ref()
                .take(ids.len().div_ceil(CHUNK))
                .flatten()
                .collect();
            let n_shown = CHUNK.min(ids.len());
            let (one_row, merge) = (&shown_15[i][..n_shown], &merged[..n_shown]);
            assert!(
                one_row
                    .iter()
                    .zip(merge)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "shown ≢ score_candidates"
            );
            assert_eq!(
                bits(&served[i]),
                bits(&top_k(ids, shown_15[i].clone())),
                "served ≢ sorted one-row scores"
            );
            let lists = [
                retrieved[i][..K.min(ids.len())].to_vec(),
                top_k(ids, merged),
                served[i].clone(),
                top_k(ids, shown_0[i].clone()),
            ];
            for ((list, name), outcomes) in lists.iter().zip(METHODS).zip(&mut out) {
                let mut distinct: Vec<ItemId> = list.iter().map(|p| p.0).collect();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(
                    distinct.len(),
                    K.min(ids.len()),
                    "{name}: length or duplicates"
                );
                assert!(
                    list.iter().all(|(id, s)| ids.contains(id) && s.is_finite()),
                    "{name}: item"
                );
                assert!(list.windows(2).all(|w| w[0].1 >= w[1].1), "{name}: order");
                let rank = list.iter().position(|p| p.0 == ex.target);
                let winner = ids
                    .iter()
                    .position(|&id| id == list[0].0)
                    .expect("retrieved");
                let ndcg = rank.map_or(0.0, |r| 1.0 / (r as f64 + 2.0).log2());
                outcomes.push((f64::from(u8::from(rank.is_some())), ndcg, winner / CHUNK));
            }
        }
    }
    out
}

/// Print one group's table (a run, a profile's runs, or all runs); return
/// its JSON and the served path's NDCG@10 delta and p against the merge.
fn summarize(label: &str, runs: &[&Outcomes]) -> (Json, f64, f64) {
    let pooled: Vec<Vec<(f64, f64, usize)>> = (0..METHODS.len())
        .map(|m| runs.iter().flat_map(|r| r[m].iter().copied()).collect())
        .collect();
    let col =
        |m: usize, f: fn(&(f64, f64, usize)) -> f64| pooled[m].iter().map(f).collect::<Vec<f64>>();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let merge_ndcg = col(MERGE, |o| o.1);
    let mut table = Table::new([
        "Method",
        "HR@10",
        "NDCG@10",
        "ΔNDCG@10 vs merge",
        "p",
        "#1 item's retrieval chunk",
    ]);
    let (mut rows, mut served) = (Vec::new(), (0.0, 1.0));
    for (m, name) in METHODS.iter().enumerate() {
        let (hr, ndcg) = (mean(&col(m, |o| o.0)), col(m, |o| o.1));
        let delta = mean(&ndcg) - mean(&merge_ndcg);
        let test = paired_t_test(&ndcg, &merge_ndcg);
        let mut chunks = vec![0usize; RecommendConfig::default().retrieve_n.div_ceil(CHUNK)];
        pooled[m].iter().for_each(|o| chunks[o.2] += 1);
        if m == SERVED {
            served = (delta, test.p);
        }
        table.row([
            name.to_string(),
            format!("{hr:.4}"),
            format!("{:.4}", mean(&ndcg)),
            format!("{delta:+.4}"),
            format!("{:.3}", test.p),
            format!("{chunks:?}"),
        ]);
        rows.push((
            *name,
            Json::obj([
                ("hr10", Json::from(hr)),
                ("ndcg10", Json::from(mean(&ndcg))),
                ("delta_ndcg10_vs_merge", Json::from(delta)),
                ("p_vs_merge", Json::from(test.p)),
                (
                    "winner_chunks",
                    Json::arr(chunks.into_iter().map(Json::from)),
                ),
            ]),
        ));
    }
    println!(
        "### {label} ({} examples)\n\n{}",
        merge_ndcg.len(),
        table.to_markdown()
    );
    let json = Json::obj([
        ("label", Json::from(label)),
        ("examples", Json::from(merge_ndcg.len())),
        ("methods", Json::obj(rows)),
    ]);
    (json, served.0, served.1)
}

fn main() {
    let args = CliArgs::from_env();
    banner(&format!(
        "Re-rank: one [mask] row vs the 7-chunk merge (scale: {})",
        args.scale
    ));
    let mut seeds = vec![args.seed];
    if args.scale != Scale::Smoke && args.seed != SECOND_SEED {
        seeds.push(SECOND_SEED);
    }
    let profiles: Vec<DatasetProfile> = PROFILES
        .into_iter()
        .filter(|p| args.includes(p.name()))
        .collect();
    assert!(!profiles.is_empty(), "--datasets matched no profile");
    let runs: Vec<(DatasetProfile, u64, Outcomes)> = (profiles.iter())
        .flat_map(|&p| seeds.iter().map(move |&s| (p, s)))
        .map(|(p, s)| (p, s, run(p, s, args.scale)))
        .collect();

    let mut run_rows = Vec::new();
    let mut retrieval_beats_both = 0;
    for (p, seed, outcomes) in &runs {
        run_rows.push(summarize(&format!("{} seed {seed}", p.name()), &[outcomes]).0);
        let ndcg = |m: usize| outcomes[m].iter().map(|o| o.1).sum::<f64>();
        if ndcg(RETRIEVAL) > ndcg(MERGE) && ndcg(RETRIEVAL) > ndcg(SERVED) {
            retrieval_beats_both += 1;
        }
    }
    let mut profile_rows = Vec::new();
    let mut significant_loss = Vec::new();
    for &p in &profiles {
        let mine: Vec<&Outcomes> = runs.iter().filter(|r| r.0 == p).map(|r| &r.2).collect();
        let (json, delta, pv) = summarize(&format!("{} (seeds pooled)", p.name()), &mine);
        if delta < 0.0 && pv <= ALPHA {
            significant_loss.push(Json::from(p.name()));
        }
        profile_rows.push(json);
    }
    let all: Vec<&Outcomes> = runs.iter().map(|r| &r.2).collect();
    let (pooled, delta, pv) = summarize("All runs pooled", &all);
    let met = delta >= NDCG_DELTA_FLOOR && significant_loss.is_empty();
    println!(
        "budget (served ΔNDCG@10 vs merge ≥ {NDCG_DELTA_FLOOR}, no profile losing at p ≤ {ALPHA}): \
         {delta:+.4} (p {pv:.3}), {} profile(s) losing → {}",
        significant_loss.len(),
        if met { "met" } else { "MISSED" }
    );
    println!(
        "retrieval order beat both re-rankers on NDCG@10 in {retrieval_beats_both} of {} runs",
        runs.len()
    );
    let blob = Json::obj([
        ("experiment", Json::from("rerank_one_row")),
        ("scale", Json::from(args.scale.to_string())),
        (
            "seeds",
            Json::arr(seeds.iter().map(|&s| Json::from(s as usize))),
        ),
        ("runs", Json::arr(run_rows)),
        ("profiles", Json::arr(profile_rows)),
        ("pooled", pooled),
        ("budget_met", Json::Bool(met)),
        (
            "profiles_with_significant_loss",
            Json::arr(significant_loss),
        ),
        (
            "retrieval_order_beats_both_runs",
            Json::from(retrieval_beats_both),
        ),
    ]);
    write_json(&args.out, "rerank_one_row", &blob).expect("write results");
}
