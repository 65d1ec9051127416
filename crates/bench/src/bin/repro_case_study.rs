//! Reproduces the **case study** (§V-G, Figure 9): a user whose taste
//! *drifts* mid-history. The paper shows Flan-T5-XL anchoring on the last
//! title, SASRec following recent sequential patterns, and DELRec combining
//! both to anticipate the drift.
//!
//! We locate a drifted synthetic user (the generator plants preference
//! drift), then print each model's top-3 recommendations with the latent
//! genres, so the qualitative story is inspectable.

use delrec_bench::methods::fit_delrec_variant;
use delrec_bench::{banner, write_json, CliArgs, ExperimentContext, Method};
use delrec_core::{TeacherKind, Variant};
use delrec_data::synthetic::DatasetProfile;
use delrec_data::{ItemId, Split};
use delrec_eval::json::Json;
use delrec_eval::{Ranker, ScoreRequest};

fn main() {
    let args = CliArgs::from_env();
    banner(&format!(
        "Case study — preference drift (scale: {})",
        args.scale
    ));
    let ctx = ExperimentContext::new(DatasetProfile::MovieLens100K, args.scale, args.seed);
    let catalog = &ctx.dataset.catalog;

    // Find a test example whose history spans ≥ 2 genres with a late switch:
    // the last 3 items' dominant genre differs from the first items'.
    let pick = ctx
        .dataset
        .examples(Split::Test)
        .iter()
        .filter(|e| e.prefix.len() >= 6)
        .find(|e| {
            let genres: Vec<usize> = e.prefix.iter().map(|&i| catalog.get(i).genre).collect();
            let head = &genres[..genres.len() - 3];
            let tail = &genres[genres.len() - 3..];
            let head_mode = mode(head);
            let tail_mode = mode(tail);
            head_mode != tail_mode && tail.iter().filter(|&&g| g == tail_mode).count() >= 2
        })
        .cloned()
        .expect("a drifted user exists in the test split");

    println!("### Viewing history\n");
    for &item in &pick.prefix {
        println!(
            "- {} [{}]",
            catalog.title(item),
            catalog.genres()[catalog.get(item).genre]
        );
    }
    println!(
        "\nGround-truth next interaction: **{}** [{}]\n",
        catalog.title(pick.target),
        catalog.genres()[catalog.get(pick.target).genre]
    );

    // Three contenders, as in Figure 9.
    let zero_shot = Method::FlanT5Xl.fit(&ctx);
    let sasrec = Method::Conventional(TeacherKind::SASRec).fit(&ctx);
    let delrec = fit_delrec_variant(&ctx, TeacherKind::SASRec, Variant::Default);

    // Score over the full catalog (every item is a candidate).
    let all_items: Vec<ItemId> = ctx.dataset.catalog.ids().collect();
    let mut rows = Vec::new();
    let entries: Vec<(&str, &dyn Ranker)> = vec![
        ("Flan-T5-XL (zero-shot)", zero_shot.as_ref()),
        ("SASRec", sasrec.as_ref()),
        ("DELRec (SASRec)", &delrec),
    ];
    println!("### Recommendations (top 3 over the full catalog)\n");
    for (name, model) in entries {
        // One request per 14 titles: a full catalog cannot fit one LM prompt.
        let requests: Vec<ScoreRequest<'_>> = all_items
            .chunks(14)
            .map(|chunk| (pick.prefix.as_slice(), chunk))
            .collect();
        let scores = model.score_candidates_batch(&requests).concat();
        let mut idx: Vec<usize> = (0..scores.len()).collect();
        idx.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
        let top: Vec<String> = idx
            .iter()
            .take(3)
            .map(|&i| {
                format!(
                    "{} [{}]",
                    catalog.title(ItemId(i as u32)),
                    catalog.genres()[catalog.get(ItemId(i as u32)).genre]
                )
            })
            .collect();
        let hit_rank = idx.iter().position(|&i| i as u32 == pick.target.0).unwrap();
        println!("- **{name}** → {}", top.join("; "));
        println!(
            "  (ground truth ranked {} of {})",
            hit_rank + 1,
            all_items.len()
        );
        rows.push(Json::obj([
            ("model", Json::from(name)),
            ("top3", Json::arr(top.into_iter().map(Json::from))),
            ("truth_rank", Json::from(hit_rank + 1)),
        ]));
    }

    let blob = Json::obj([
        ("experiment", Json::from("case_study")),
        ("scale", Json::from(args.scale.to_string())),
        (
            "history",
            Json::arr(pick.prefix.iter().map(|&i| Json::from(catalog.title(i)))),
        ),
        ("truth", Json::from(catalog.title(pick.target))),
        ("models", Json::arr(rows)),
    ]);
    write_json(&args.out, "case_study", &blob).expect("write results");
}

fn mode(genres: &[usize]) -> usize {
    let mut counts = std::collections::HashMap::new();
    for &g in genres {
        *counts.entry(g).or_insert(0usize) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(_, c)| c)
        .map(|(g, _)| g)
        .unwrap()
}
