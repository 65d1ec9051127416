//! Movie night: the paper's case-study scenario as a runnable program.
//!
//! A viewer binges classic dramas, then drifts toward action/sci-fi — the
//! situation Figure 9 of the paper illustrates. We train three recommenders
//! and show how each continues the story:
//!
//! * the raw language model anchors on title semantics alone;
//! * SASRec follows the sequential pattern it learned from ids;
//! * DELRec combines both via distilled soft prompts.
//!
//! ```sh
//! cargo run --release --example movie_night
//! ```

use delrec::core::baselines::ZeroShotLm;
use delrec::core::{
    build_teacher, pretrained_lm, DelRec, DelRecConfig, LmPreset, Pipeline, TeacherKind,
};
use delrec::data::synthetic::{DatasetProfile, SyntheticConfig};
use delrec::data::{ItemId, Split};
use delrec::eval::{Ranker, ScoreRequest};
use delrec::lm::PretrainConfig;

fn main() {
    let data = SyntheticConfig::profile(DatasetProfile::MovieLens100K)
        .scaled(0.15)
        .generate(7);
    let catalog = &data.catalog;
    let pipeline = Pipeline::build(&data);
    let lm = pretrained_lm(
        &data,
        &pipeline,
        LmPreset::Xl,
        &PretrainConfig {
            epochs: 6,
            lr: 5e-3,
            ..Default::default()
        },
        7,
    );
    let teacher = build_teacher(&data, TeacherKind::SASRec, 8, None, 7);

    // Find a genre-drifting viewer in the test split.
    let genre_of = |i: ItemId| catalog.get(i).genre;
    let story = data
        .examples(Split::Test)
        .iter()
        .filter(|e| e.prefix.len() >= 6)
        .find(|e| {
            let gs: Vec<usize> = e.prefix.iter().map(|&i| genre_of(i)).collect();
            gs[gs.len() - 1] != gs[0] && gs[gs.len() - 2] == gs[gs.len() - 1]
        })
        .expect("a drifting viewer exists")
        .clone();

    println!("## The viewer's history\n");
    for &m in &story.prefix {
        println!(
            "  • {} — {}",
            catalog.title(m),
            catalog.genres()[genre_of(m)]
        );
    }
    println!(
        "\n(they actually watched next: {} — {})\n",
        catalog.title(story.target),
        catalog.genres()[genre_of(story.target)]
    );

    // Three recommenders.
    let zero_shot = ZeroShotLm::new(
        "lm",
        lm.clone(),
        pipeline.vocab.clone(),
        pipeline.items.clone(),
    );
    let cfg = DelRecConfig::small(TeacherKind::SASRec).with_alpha_for(&data.name);
    let delrec = DelRec::fit(&data, &pipeline, teacher.as_ref(), lm, &cfg);

    let all: Vec<ItemId> = catalog.ids().collect();
    // One request per 14 titles: a whole catalog cannot fit one LM prompt.
    let requests: Vec<ScoreRequest<'_>> = all
        .chunks(14)
        .map(|chunk| (story.prefix.as_slice(), chunk))
        .collect();
    let show = |name: &str, scores: Vec<f32>| {
        let mut idx: Vec<usize> = (0..scores.len()).collect();
        idx.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
        println!("{name} suggests:");
        for &i in idx.iter().take(3) {
            let id = ItemId(i as u32);
            println!(
                "  → {} — {}",
                catalog.title(id),
                catalog.genres()[genre_of(id)]
            );
        }
        let rank = idx
            .iter()
            .position(|&i| i as u32 == story.target.0)
            .unwrap()
            + 1;
        println!("  (their actual next pick ranked #{rank})\n");
    };

    show(
        "The raw language model",
        zero_shot.score_candidates_batch(&requests).concat(),
    );
    show("SASRec", {
        let s = teacher.scores(&story.prefix);
        all.iter().map(|c| s[c.index()]).collect()
    });
    show("DELRec", delrec.score_candidates_batch(&requests).concat());
}
