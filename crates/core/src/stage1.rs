//! Stage 1 — *Distill Pattern from Conventional SR Models* (paper §IV-B).
//!
//! Two task streams are built from the training split:
//!
//! * **Temporal Analysis (TA)** — the PMRI strategy: the sequence is split at
//!   α; the first part forms an in-context example, and the model must fill
//!   in the masked second-to-last item given that the last item followed it
//!   (Eq. 4).
//! * **Recommendation Pattern Simulating (RPS)** — the model predicts the
//!   *teacher's* top-1 recommendation given the history and the teacher's
//!   (shuffled) top-h set (Eq. 5).
//!
//! Only the soft prompts train; the LM is frozen (except in the `w UDPSM`
//! ablation). The two losses combine with a dynamic λ (Eq. 6), implemented
//! as descent-rate weighting: the task whose loss falls slower gets more
//! weight next epoch.

use crate::config::StageConfig;
use crate::prompt::{Prompt, PromptBuilder, SoftMode};
use delrec_data::{CandidateSampler, Dataset, ItemId, Split};
use delrec_lm::{verbalizer, MiniLm, SoftPrompt};
use delrec_seqrec::SequentialRecommender;
use delrec_tensor::optim::clip_grad_norm;
use delrec_tensor::{Ctx, Tape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One supervised prompt-completion example: rank `candidates` (title token
/// lists) and hit `target_idx`.
#[derive(Clone, Debug)]
pub struct TrainItem {
    /// The prompt with its mask position.
    pub prompt: Prompt,
    /// Candidate title token ids, in prompt order.
    pub candidates: Vec<Vec<u32>>,
    /// Index of the label within `candidates`.
    pub target_idx: usize,
}

/// Which parts of Stage 1 run (ablations toggle these).
#[derive(Clone, Copy, Debug)]
pub struct Stage1Options {
    /// Include the Temporal Analysis task (`w/o TA` disables).
    pub use_ta: bool,
    /// Include the Recommendation Pattern Simulating task (`w/o RPS`
    /// disables).
    pub use_rps: bool,
    /// Freeze the LM backbone (the paper's default; `w UDPSM` unfreezes).
    pub freeze_backbone: bool,
    /// Pin λ instead of adapting it (design ablation for Eq. 6's dynamic
    /// weighting; `None` = dynamic, the paper's behaviour).
    pub fixed_lambda: Option<f32>,
}

impl Default for Stage1Options {
    fn default() -> Self {
        Stage1Options {
            use_ta: true,
            use_rps: true,
            freeze_backbone: true,
            fixed_lambda: None,
        }
    }
}

/// Distillation diagnostics.
#[derive(Clone, Debug, Default)]
pub struct Stage1Stats {
    /// Mean TA loss per epoch.
    pub ta_losses: Vec<f32>,
    /// Mean RPS loss per epoch.
    pub rps_losses: Vec<f32>,
    /// λ used per epoch (weight of TA in Eq. 6).
    pub lambdas: Vec<f32>,
}

/// Build the Temporal Analysis stream from training examples (skipping
/// sequences too short for the α split).
#[allow(clippy::too_many_arguments)]
pub fn build_ta_items(
    dataset: &Dataset,
    pb: &PromptBuilder<'_>,
    items: &crate::prompt::ItemTokens,
    alpha: usize,
    m: usize,
    soft: SoftMode,
    max_items: usize,
    seed: u64,
) -> Vec<TrainItem> {
    assert!(alpha >= 2, "alpha must leave a non-empty ICL history");
    let sampler = CandidateSampler::new(dataset.num_items(), m);
    let mut out = Vec::new();
    for (i, ex) in dataset.examples(Split::Train).iter().enumerate() {
        if out.len() >= max_items {
            break;
        }
        // Full sequence s = prefix ++ target; need length ≥ α + 2.
        let mut s: Vec<ItemId> = ex.prefix.clone();
        s.push(ex.target);
        let l = s.len();
        if l < alpha + 2 {
            continue;
        }
        let icl_history = &s[..alpha - 1];
        let icl_next = s[alpha - 1];
        let label = s[l - 2];
        let query_next = s[l - 1];
        let query_history = &s[alpha - 1..l - 2];
        let candidates = sampler.candidates(label, seed, i);
        let target_idx = candidates.iter().position(|&c| c == label).unwrap();
        let prompt = pb.temporal_analysis(
            icl_history,
            icl_next,
            query_history,
            query_next,
            &candidates,
            soft,
        );
        out.push(TrainItem {
            prompt,
            candidates: items.titles_of(&candidates),
            target_idx,
        });
    }
    out
}

/// Build the Recommendation Pattern Simulating stream: labels come from the
/// *teacher*, not the ground truth.
#[allow(clippy::too_many_arguments)]
pub fn build_rps_items(
    dataset: &Dataset,
    teacher: &dyn SequentialRecommender,
    pb: &PromptBuilder<'_>,
    items: &crate::prompt::ItemTokens,
    h: usize,
    m: usize,
    soft: SoftMode,
    max_items: usize,
    seed: u64,
) -> Vec<TrainItem> {
    let sampler = CandidateSampler::new(dataset.num_items(), m);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
    let mut out = Vec::new();
    for (i, ex) in dataset.examples(Split::Train).iter().enumerate() {
        if out.len() >= max_items {
            break;
        }
        let top_h = teacher.recommend(&ex.prefix, h);
        if top_h.is_empty() {
            continue;
        }
        let label = top_h[0]; // sr_1: the teacher's highest-probability item
                              // Present the top-h set shuffled so the label is not positionally
                              // given away; the model must learn the teacher's ordering.
        let mut shuffled = top_h.clone();
        for j in (1..shuffled.len()).rev() {
            let k = rng.random_range(0..=j);
            shuffled.swap(j, k);
        }
        let candidates = sampler.candidates(label, seed, i);
        let target_idx = candidates.iter().position(|&c| c == label).unwrap();
        let prompt = pb.pattern_simulating(&ex.prefix, &shuffled, &candidates, soft);
        out.push(TrainItem {
            prompt,
            candidates: items.titles_of(&candidates),
            target_idx,
        });
    }
    out
}

/// Forward a batch of [`TrainItem`]s to a cross-entropy loss var.
pub(crate) fn batch_loss(
    lm: &MiniLm,
    ctx: &Ctx<'_>,
    soft_table: Option<delrec_tensor::Var>,
    batch: &[&TrainItem],
    rng: &mut StdRng,
) -> delrec_tensor::Var {
    let tape = ctx.tape;
    // One padded LM forward for the whole minibatch, one batched verbalizer
    // reduction over its [B, V] mask logits, one cross-entropy. All DELRec
    // training streams use fixed-size candidate sets, which the batched
    // verbalizer requires.
    let seqs: Vec<&[delrec_lm::LmToken]> = batch
        .iter()
        .map(|item| item.prompt.tokens.as_slice())
        .collect();
    let mask_pos: Vec<usize> = batch.iter().map(|item| item.prompt.mask_pos).collect();
    let logits = lm.mask_logits_batch(ctx, &seqs, soft_table, &mask_pos, rng);
    let candidate_sets: Vec<&[Vec<u32>]> = batch
        .iter()
        .map(|item| item.candidates.as_slice())
        .collect();
    let scores = verbalizer::candidate_scores_batch(tape, logits, &candidate_sets);
    let targets: Vec<usize> = batch.iter().map(|item| item.target_idx).collect();
    tape.cross_entropy(scores, &targets)
}

/// Run the multi-task distillation (Eq. 6). Trains the soft prompts in
/// place; the LM backbone is frozen unless `opts.freeze_backbone` is false.
pub fn distill(
    lm: &mut MiniLm,
    sp: &SoftPrompt,
    ta_items: &[TrainItem],
    rps_items: &[TrainItem],
    cfg: &StageConfig,
    opts: Stage1Options,
    seed: u64,
) -> Stage1Stats {
    assert!(
        opts.use_ta || opts.use_rps,
        "at least one task must be active"
    );
    let ta_items = if opts.use_ta { ta_items } else { &[] };
    let rps_items = if opts.use_rps { rps_items } else { &[] };
    assert!(
        !ta_items.is_empty() || !rps_items.is_empty(),
        "no distillation examples"
    );

    lm.set_backbone_trainable(!opts.freeze_backbone);
    sp.set_trainable(lm.store_mut(), true);

    let mut opt = cfg.make_optimizer();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = Stage1Stats::default();
    let half = (cfg.batch_size / 2).max(1);

    for _ in 0..cfg.epochs {
        let _epoch_span = delrec_obs::span!("core.stage1.epoch");
        // Dynamic λ: descent-rate weighting once two epochs of history exist.
        let lambda = dynamic_lambda(&stats.ta_losses, &stats.rps_losses, opts);
        stats.lambdas.push(lambda);
        delrec_obs::gauge!("core.stage1.lambda").set(f64::from(lambda));

        let mut ta_order = shuffled_indices(ta_items.len(), &mut rng);
        let mut rps_order = shuffled_indices(rps_items.len(), &mut rng);
        if let Some(cap) = cfg.max_examples {
            ta_order.truncate(cap);
            rps_order.truncate(cap);
        }
        let steps = (ta_order.len().div_ceil(half)).max(rps_order.len().div_ceil(half));
        let mut ta_sum = 0.0f32;
        let mut ta_n = 0usize;
        let mut rps_sum = 0.0f32;
        let mut rps_n = 0usize;
        for step in 0..steps {
            let ta_batch: Vec<&TrainItem> = slice_cyclic(&ta_order, step, half)
                .iter()
                .map(|&i| &ta_items[i])
                .collect();
            let rps_batch: Vec<&TrainItem> = slice_cyclic(&rps_order, step, half)
                .iter()
                .map(|&i| &rps_items[i])
                .collect();
            let (ta_l, rps_l, mut updates) = {
                let tape = Tape::new();
                let ctx = Ctx::new(&tape, lm.store(), true);
                let forward = delrec_obs::span!("train.forward");
                let soft_table = Some(sp.var(&ctx));
                let mut total = None;
                let mut ta_l = None;
                let mut rps_l = None;
                if !ta_batch.is_empty() {
                    let l = batch_loss(lm, &ctx, soft_table, &ta_batch, &mut rng);
                    ta_l = Some(tape.get(l).item());
                    total = Some(tape.scale(l, lambda));
                }
                if !rps_batch.is_empty() {
                    let l = batch_loss(lm, &ctx, soft_table, &rps_batch, &mut rng);
                    rps_l = Some(tape.get(l).item());
                    let weight = if ta_batch.is_empty() {
                        1.0
                    } else {
                        1.0 - lambda
                    };
                    let scaled = tape.scale(l, weight);
                    total = Some(match total {
                        Some(t) => tape.add(t, scaled),
                        None => scaled,
                    });
                }
                let total = total.expect("a non-empty batch");
                drop(forward);
                let mut grads = tape.backward(total);
                (ta_l, rps_l, ctx.grads(&mut grads))
            };
            let apply = delrec_obs::span!("train.apply");
            clip_grad_norm(&mut updates, 5.0);
            opt.apply(lm.store_mut(), &updates);
            drop(apply);
            if let Some(l) = ta_l {
                ta_sum += l;
                ta_n += 1;
            }
            if let Some(l) = rps_l {
                rps_sum += l;
                rps_n += 1;
            }
        }
        stats
            .ta_losses
            .push(if ta_n > 0 { ta_sum / ta_n as f32 } else { 0.0 });
        stats.rps_losses.push(if rps_n > 0 {
            rps_sum / rps_n as f32
        } else {
            0.0
        });
        delrec_obs::gauge!("core.stage1.ta_loss").set(f64::from(*stats.ta_losses.last().unwrap()));
        delrec_obs::gauge!("core.stage1.rps_loss")
            .set(f64::from(*stats.rps_losses.last().unwrap()));
    }
    // Restore the default freeze state.
    lm.set_backbone_trainable(true);
    stats
}

/// Eq. 6's dynamic weights via descent-rate (DWA-style) weighting.
fn dynamic_lambda(ta_hist: &[f32], rps_hist: &[f32], opts: Stage1Options) -> f32 {
    if !opts.use_ta {
        return 0.0;
    }
    if !opts.use_rps {
        return 1.0;
    }
    if let Some(l) = opts.fixed_lambda {
        return l.clamp(0.0, 1.0);
    }
    if ta_hist.len() < 2 || rps_hist.len() < 2 {
        return 0.5;
    }
    let n = ta_hist.len();
    let r_ta = ta_hist[n - 1] / ta_hist[n - 2].max(1e-6);
    let r_rps = rps_hist[n - 1] / rps_hist[n - 2].max(1e-6);
    const T: f32 = 2.0;
    let (e_ta, e_rps) = ((r_ta / T).exp(), (r_rps / T).exp());
    e_ta / (e_ta + e_rps)
}

fn shuffled_indices(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

/// `step`-th window of width `width` over `order`, wrapping around (so the
/// shorter task stream keeps contributing until the longer one finishes).
fn slice_cyclic(order: &[usize], step: usize, width: usize) -> Vec<usize> {
    if order.is_empty() {
        return Vec::new();
    }
    (0..width)
        .map(|k| order[(step * width + k) % order.len()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use delrec_data::synthetic::{DatasetProfile, SyntheticConfig};
    use delrec_seqrec::PopularityRecommender;

    fn setup() -> (Dataset, Pipeline) {
        let ds = SyntheticConfig::profile(DatasetProfile::MovieLens100K)
            .scaled(0.08)
            .generate(7);
        let p = Pipeline::build(&ds);
        (ds, p)
    }

    #[test]
    fn ta_items_have_valid_targets_and_masks() {
        let (ds, p) = setup();
        let pb = PromptBuilder::new(&p.vocab, &p.items, "sasrec");
        let items = build_ta_items(&ds, &pb, &p.items, 4, 15, SoftMode::Slots(4), 50, 1);
        assert!(!items.is_empty());
        for it in &items {
            assert_eq!(it.candidates.len(), 15);
            assert!(it.target_idx < 15);
            assert!(it.prompt.mask_pos < it.prompt.tokens.len());
        }
    }

    #[test]
    fn ta_skips_short_sequences() {
        let (ds, p) = setup();
        let pb = PromptBuilder::new(&p.vocab, &p.items, "sasrec");
        // α = 8 needs length ≥ 10; only long-prefix examples qualify.
        let items = build_ta_items(&ds, &pb, &p.items, 8, 15, SoftMode::Slots(4), 1000, 1);
        let eligible = ds
            .examples(Split::Train)
            .iter()
            .filter(|e| e.prefix.len() + 1 >= 10)
            .count();
        assert_eq!(items.len(), eligible.min(1000));
    }

    #[test]
    fn rps_labels_are_the_teachers_top1_not_ground_truth() {
        let (ds, p) = setup();
        let teacher = PopularityRecommender::fit(&ds);
        let pb = PromptBuilder::new(&p.vocab, &p.items, "sasrec");
        let items = build_rps_items(
            &ds,
            &teacher,
            &pb,
            &p.items,
            5,
            15,
            SoftMode::Slots(4),
            20,
            1,
        );
        // Popularity's top-1 is constant; every item's label title must match.
        let top1 = teacher.recommend(&ds.examples(Split::Train)[0].prefix, 1)[0];
        let expected = p.items.title(top1).to_vec();
        for it in &items {
            assert_eq!(it.candidates[it.target_idx], expected);
        }
    }

    #[test]
    fn dynamic_lambda_shifts_toward_the_slower_task() {
        let opts = Stage1Options::default();
        // TA barely improving (ratio ~1), RPS improving fast (ratio 0.5):
        // λ (TA weight) must exceed 0.5.
        let l = dynamic_lambda(&[1.0, 0.99], &[1.0, 0.5], opts);
        assert!(l > 0.5, "λ = {l}");
        // A fixed λ overrides the dynamics.
        assert_eq!(
            dynamic_lambda(
                &[1.0, 0.9],
                &[1.0, 0.5],
                Stage1Options {
                    fixed_lambda: Some(0.3),
                    ..opts
                }
            ),
            0.3
        );
        // Single-task ablations pin λ.
        assert_eq!(
            dynamic_lambda(
                &[],
                &[],
                Stage1Options {
                    use_ta: false,
                    ..opts
                }
            ),
            0.0
        );
        assert_eq!(
            dynamic_lambda(
                &[],
                &[],
                Stage1Options {
                    use_rps: false,
                    ..opts
                }
            ),
            1.0
        );
    }

    #[test]
    fn distill_updates_only_soft_prompts_when_frozen() {
        let (ds, p) = setup();
        let teacher = PopularityRecommender::fit(&ds);
        let mut lm = crate::pipeline::pretrained_lm(
            &ds,
            &p,
            crate::pipeline::LmPreset::Large,
            &delrec_lm::PretrainConfig {
                epochs: 1,
                max_sentences: Some(100),
                ..Default::default()
            },
            2,
        );
        let d_model = lm.cfg.d_model;
        let sp = SoftPrompt::init(lm.store_mut(), "s1", 4, d_model, 3);
        let before_sp = sp.values(lm.store()).clone();
        let before_emb = lm
            .store()
            .get(lm.store().id_of("lm.tok_emb").unwrap())
            .clone();

        let pb = PromptBuilder::new(&p.vocab, &p.items, "sasrec");
        let ta = build_ta_items(&ds, &pb, &p.items, 4, 15, SoftMode::Slots(4), 8, 1);
        let rps = build_rps_items(
            &ds,
            &teacher,
            &pb,
            &p.items,
            3,
            15,
            SoftMode::Slots(4),
            8,
            1,
        );
        let cfg = StageConfig {
            epochs: 1,
            batch_size: 4,
            max_examples: Some(8),
            lr: 5e-3,
            weight_decay: 1e-5,
            optimizer: crate::config::StageOptimizer::Adam,
        };
        let stats = distill(&mut lm, &sp, &ta, &rps, &cfg, Stage1Options::default(), 9);
        assert_eq!(stats.lambdas.len(), 1);
        assert_ne!(
            sp.values(lm.store()).data(),
            before_sp.data(),
            "soft prompts must move"
        );
        let after_emb = lm.store().get(lm.store().id_of("lm.tok_emb").unwrap());
        assert_eq!(
            after_emb.data(),
            before_emb.data(),
            "frozen backbone must not move"
        );
    }
}
