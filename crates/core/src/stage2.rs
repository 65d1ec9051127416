//! Stage 2 — *LLMs-based Sequential Recommendation* (paper §IV-C).
//!
//! The learned soft prompts are frozen and inserted into the Figure-6
//! recommendation prompt; the LM is fine-tuned on the ground-truth next item
//! with PEFT (AdaLoRA adapters, Lion optimizer) to "bridge the semantic gap"
//! between the distilled soft prompts and the hard prompt (Eq. 8).

use crate::config::StageConfig;
use crate::prompt::{ItemTokens, PromptBuilder, SoftMode};
use crate::stage1::{batch_loss, TrainItem};
use delrec_data::{CandidateSampler, Dataset, Split};
use delrec_lm::{MiniLm, SoftPrompt};
use delrec_tensor::optim::clip_grad_norm;
use delrec_tensor::{Ctx, Tape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stage 2 behaviour switches (ablations).
#[derive(Clone, Copy, Debug)]
pub struct Stage2Options {
    /// Freeze the soft prompts (paper default; `w ULSR` unfreezes them).
    pub freeze_soft: bool,
    /// Update the backbone alongside the adapters (CPU-scale default; set
    /// false for the paper's strict PEFT regime).
    pub tune_backbone: bool,
}

impl Default for Stage2Options {
    fn default() -> Self {
        Stage2Options {
            freeze_soft: true,
            tune_backbone: true,
        }
    }
}

/// Build the ground-truth fine-tuning stream (Figure-6 prompts over the
/// training split).
pub fn build_lsr_items(
    dataset: &Dataset,
    pb: &PromptBuilder<'_>,
    items: &ItemTokens,
    m: usize,
    soft: SoftMode,
    max_items: usize,
    seed: u64,
) -> Vec<TrainItem> {
    let sampler = CandidateSampler::new(dataset.num_items(), m);
    let mut out = Vec::new();
    for (i, ex) in dataset.examples(Split::Train).iter().enumerate() {
        if out.len() >= max_items {
            break;
        }
        let candidates = sampler.candidates(ex.target, seed, i);
        let target_idx = candidates.iter().position(|&c| c == ex.target).unwrap();
        let prompt = pb.recommendation(&ex.prefix, &candidates, soft);
        out.push(TrainItem {
            prompt,
            candidates: items.titles_of(&candidates),
            target_idx,
        });
    }
    out
}

/// Fine-tune the LM with AdaLoRA on ground truth. The LM must already have
/// adapters attached (see [`MiniLm::attach_adalora`]). Returns mean loss per
/// epoch.
pub fn finetune(
    lm: &mut MiniLm,
    sp: Option<&SoftPrompt>,
    items: &[TrainItem],
    cfg: &StageConfig,
    prune_every: usize,
    opts: Stage2Options,
    seed: u64,
) -> Vec<f32> {
    assert!(!items.is_empty(), "no fine-tuning examples");
    assert!(
        lm.adalora().is_some(),
        "attach AdaLoRA adapters before Stage 2"
    );
    // Freeze policy: AdaLoRA adapters always train; soft prompts per
    // `opts`. At the paper's 3B scale the backbone stays frozen; our MiniLM
    // is ~10^5× smaller and PEFT-only adaptation cannot bridge its much
    // thinner pretraining, so the backbone trains too unless the caller
    // freezes it (`tune_backbone`; see DESIGN.md §deviations).
    lm.set_backbone_trainable(opts.tune_backbone);
    lm.store_mut().set_trainable_prefix("adalora.", true);
    if let Some(sp) = sp {
        sp.set_trainable(lm.store_mut(), !opts.freeze_soft);
    }

    let mut opt = cfg.make_optimizer();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut losses = Vec::with_capacity(cfg.epochs);
    let mut order: Vec<usize> = (0..items.len()).collect();
    let mut step_count = 0usize;
    for _epoch in 0..cfg.epochs {
        let _epoch_span = delrec_obs::span!("core.stage2.epoch");
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let take = cfg.max_examples.unwrap_or(order.len()).min(order.len());
        let mut total = 0.0f32;
        let mut batches = 0usize;
        for chunk in order[..take].chunks(cfg.batch_size) {
            let (loss_value, mut updates) = {
                let tape = Tape::new();
                let ctx = Ctx::new(&tape, lm.store(), true);
                let forward = delrec_obs::span!("train.forward");
                let soft_table = sp.map(|s| s.var(&ctx));
                let batch: Vec<&TrainItem> = chunk.iter().map(|&i| &items[i]).collect();
                let loss = batch_loss(lm, &ctx, soft_table, &batch, &mut rng);
                let loss_value = tape.get(loss).item();
                drop(forward);
                let mut grads = tape.backward(loss);
                (loss_value, ctx.grads(&mut grads))
            };
            let apply = delrec_obs::span!("train.apply");
            clip_grad_norm(&mut updates, 5.0);
            // Sensitivity uses the pre-update values: observe, then apply.
            lm.adalora_observe(&updates);
            opt.apply(lm.store_mut(), &updates);
            drop(apply);
            step_count += 1;
            total += loss_value;
            batches += 1;
            if prune_every > 0 && step_count.is_multiple_of(prune_every) {
                lm.prune_adalora();
            }
        }
        losses.push(total / batches.max(1) as f32);
        delrec_obs::gauge!("core.stage2.loss").set(f64::from(*losses.last().unwrap()));
    }
    losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{pretrained_lm, LmPreset, Pipeline};
    use delrec_lm::AdaLoraConfig;

    fn setup() -> (Dataset, Pipeline, MiniLm) {
        let ds = delrec_data::synthetic::SyntheticConfig::profile(
            delrec_data::synthetic::DatasetProfile::MovieLens100K,
        )
        .scaled(0.08)
        .generate(8);
        let p = Pipeline::build(&ds);
        let lm = pretrained_lm(
            &ds,
            &p,
            LmPreset::Large,
            &delrec_lm::PretrainConfig {
                epochs: 1,
                max_sentences: Some(100),
                ..Default::default()
            },
            2,
        );
        (ds, p, lm)
    }

    #[test]
    fn lsr_items_target_ground_truth() {
        let (ds, p, _) = setup();
        let pb = PromptBuilder::new(&p.vocab, &p.items, "sasrec");
        let items = build_lsr_items(&ds, &pb, &p.items, 15, SoftMode::None, 20, 1);
        for (it, ex) in items.iter().zip(ds.examples(Split::Train)) {
            assert_eq!(it.candidates[it.target_idx], p.items.title(ex.target));
        }
    }

    #[test]
    fn finetune_moves_adapters_but_not_base_weights() {
        let (ds, p, mut lm) = setup();
        lm.attach_adalora(AdaLoraConfig::default(), 5);
        let d_model = lm.cfg.d_model;
        let sp = SoftPrompt::init(lm.store_mut(), "s", 4, d_model, 3);
        let pb = PromptBuilder::new(&p.vocab, &p.items, "sasrec");
        let items = build_lsr_items(&ds, &pb, &p.items, 15, SoftMode::Slots(4), 12, 1);
        let base_before = lm
            .store()
            .get(lm.store().id_of("lm.b0.h0.wq").unwrap())
            .clone();
        let sp_before = sp.values(lm.store()).clone();
        let cfg = StageConfig {
            epochs: 1,
            batch_size: 4,
            max_examples: Some(12),
            lr: 2e-3,
            weight_decay: 1e-6,
            optimizer: crate::config::StageOptimizer::Adam,
        };
        let losses = finetune(
            &mut lm,
            Some(&sp),
            &items,
            &cfg,
            0,
            Stage2Options {
                tune_backbone: false, // the paper's strict PEFT regime
                ..Default::default()
            },
            7,
        );
        assert_eq!(losses.len(), 1);
        assert!(losses[0].is_finite());
        let base_after = lm.store().get(lm.store().id_of("lm.b0.h0.wq").unwrap());
        assert_eq!(base_after.data(), base_before.data(), "base weights frozen");
        assert_eq!(
            sp.values(lm.store()).data(),
            sp_before.data(),
            "soft prompts frozen by default"
        );
        let e0 = lm.store().get(lm.store().id_of("adalora.0.e").unwrap());
        assert!(e0.l2_norm() > 0.0, "adapter singular values must train");
    }

    #[test]
    fn ulsr_variant_also_moves_soft_prompts() {
        let (ds, p, mut lm) = setup();
        lm.attach_adalora(AdaLoraConfig::default(), 5);
        let d_model = lm.cfg.d_model;
        let sp = SoftPrompt::init(lm.store_mut(), "s", 4, d_model, 3);
        let pb = PromptBuilder::new(&p.vocab, &p.items, "sasrec");
        let items = build_lsr_items(&ds, &pb, &p.items, 15, SoftMode::Slots(4), 12, 1);
        let sp_before = sp.values(lm.store()).clone();
        let cfg = StageConfig {
            epochs: 1,
            batch_size: 4,
            max_examples: Some(12),
            lr: 2e-3,
            weight_decay: 1e-6,
            optimizer: crate::config::StageOptimizer::Adam,
        };
        finetune(
            &mut lm,
            Some(&sp),
            &items,
            &cfg,
            0,
            Stage2Options {
                freeze_soft: false,
                ..Default::default()
            },
            7,
        );
        assert_ne!(sp.values(lm.store()).data(), sp_before.data());
    }
}
