//! MLM pretraining over the world-knowledge corpus.
//!
//! This is the substitution for Flan-T5's pretraining: after it, title tokens
//! of same-genre items sit close in embedding space, giving the MiniLM the
//! "rich intrinsic details about the items" (paper §IV-A) that conventional
//! ID-based models lack.
//!
//! Inputs are *packed documents* (many sentences joined to roughly prompt
//! length — see `delrec_data::corpus::pack_corpus`), so that the position
//! embeddings covering full-length prompts are all trained. Each step masks
//! ~15% of a document's positions and predicts them from one forward pass.

use crate::transformer::{LmToken, MiniLm};
use delrec_tensor::optim::{clip_grad_norm, Adam, Optimizer};
use delrec_tensor::{Ctx, Tape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pretraining hyperparameters.
#[derive(Clone, Debug)]
pub struct PretrainConfig {
    /// Passes over the document set.
    pub epochs: usize,
    /// Documents per gradient step.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Fraction of positions masked per document.
    pub mask_prob: f32,
    /// Cap on documents per epoch (None = all).
    pub max_sentences: Option<usize>,
    /// Shuffle / mask-choice seed.
    pub seed: u64,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        PretrainConfig {
            epochs: 3,
            batch_size: 8,
            lr: 3e-3,
            mask_prob: 0.15,
            max_sentences: None,
            seed: 11,
        }
    }
}

/// Run MLM pretraining over (packed or raw) token sequences. Returns mean
/// loss per epoch.
pub fn pretrain_mlm(
    lm: &mut MiniLm,
    corpus: &[Vec<u32>],
    mask_token: u32,
    cfg: &PretrainConfig,
) -> Vec<f32> {
    assert!(!corpus.is_empty(), "empty corpus");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = Adam::new(cfg.lr);
    let mut order: Vec<usize> = (0..corpus.len()).collect();
    let mut losses = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let take = cfg.max_sentences.unwrap_or(order.len()).min(order.len());
        let mut total = 0.0f32;
        let mut batches = 0usize;
        for chunk in order[..take].chunks(cfg.batch_size) {
            let (loss_value, mut updates) = {
                let tape = Tape::new();
                let ctx = Ctx::new(&tape, lm.store(), true);
                let forward = delrec_obs::span!("train.forward");
                let mut rows = Vec::new();
                let mut targets = Vec::new();
                for &di in chunk {
                    let doc = &corpus[di];
                    if doc.len() < 2 {
                        continue;
                    }
                    let n_masks = ((doc.len() as f32 * cfg.mask_prob).round() as usize)
                        .clamp(1, doc.len() / 2);
                    // Distinct random positions.
                    let mut positions: Vec<usize> = Vec::with_capacity(n_masks);
                    while positions.len() < n_masks {
                        let p = rng.random_range(0..doc.len());
                        if !positions.contains(&p) {
                            positions.push(p);
                        }
                    }
                    let tokens: Vec<LmToken> = doc
                        .iter()
                        .enumerate()
                        .map(|(p, &t)| {
                            LmToken::Vocab(if positions.contains(&p) {
                                mask_token
                            } else {
                                t
                            })
                        })
                        .collect();
                    let logits = lm.mask_logits_multi(&ctx, &tokens, None, &positions, &mut rng);
                    // One row per masked position.
                    for (ri, &p) in positions.iter().enumerate() {
                        rows.push(tape.slice_rows(logits, ri, 1));
                        targets.push(doc[p] as usize);
                    }
                }
                if rows.is_empty() {
                    continue;
                }
                let stacked = tape.concat_rows(&rows);
                let loss = tape.cross_entropy(stacked, &targets);
                let loss_value = tape.get(loss).item();
                drop(forward);
                let mut grads = tape.backward(loss);
                (loss_value, ctx.grads(&mut grads))
            };
            let apply = delrec_obs::span!("train.apply");
            clip_grad_norm(&mut updates, 5.0);
            opt.apply(lm.store_mut(), &updates);
            drop(apply);
            total += loss_value;
            batches += 1;
        }
        losses.push(total / batches.max(1) as f32);
    }
    losses
}

/// Mean log-probability assigned to the true token at the masked last
/// position of (up to) `limit` documents. A finer-grained pretraining health
/// metric than top-1 accuracy (which is a high bar over large vocabularies).
pub fn mlm_mean_log_prob(lm: &MiniLm, corpus: &[Vec<u32>], mask_token: u32, limit: usize) -> f32 {
    let mut total = 0.0f32;
    let mut n = 0usize;
    let mut rng = StdRng::seed_from_u64(0);
    for sent in corpus.iter().take(limit) {
        if sent.len() < 2 {
            continue;
        }
        let mask_pos = sent.len() - 1;
        let tokens: Vec<LmToken> = sent
            .iter()
            .enumerate()
            .map(|(p, &t)| LmToken::Vocab(if p == mask_pos { mask_token } else { t }))
            .collect();
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, lm.store(), false);
        let logits = lm.mask_logits(&ctx, &tokens, None, mask_pos, &mut rng);
        let logits = tape.get(logits);
        let data = logits.data();
        let lse = delrec_tensor::vmath::log_sum_exp(data);
        total += data[sent[mask_pos] as usize] - lse;
        n += 1;
    }
    total / n.max(1) as f32
}

/// Top-1 mask-filling accuracy over (up to) `limit` documents, masking the
/// last position of each — a quick pretraining health check.
pub fn mlm_accuracy(lm: &MiniLm, corpus: &[Vec<u32>], mask_token: u32, limit: usize) -> f32 {
    let mut hits = 0usize;
    let mut total = 0usize;
    let mut rng = StdRng::seed_from_u64(0);
    for sent in corpus.iter().take(limit) {
        if sent.len() < 2 {
            continue;
        }
        let mask_pos = sent.len() - 1;
        let tokens: Vec<LmToken> = sent
            .iter()
            .enumerate()
            .map(|(p, &t)| LmToken::Vocab(if p == mask_pos { mask_token } else { t }))
            .collect();
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, lm.store(), false);
        let logits = lm.mask_logits(&ctx, &tokens, None, mask_pos, &mut rng);
        if tape.get(logits).argmax() == sent[mask_pos] as usize {
            hits += 1;
        }
        total += 1;
    }
    hits as f32 / total.max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MiniLmConfig;

    /// A tiny synthetic corpus with a deterministic pattern: token 2i is
    /// always followed by 2i+1.
    fn pattern_corpus(pairs: usize) -> Vec<Vec<u32>> {
        let mut corpus = Vec::new();
        for _ in 0..8 {
            for i in 0..pairs {
                corpus.push(vec![4 + 2 * i as u32, 5 + 2 * i as u32]);
            }
        }
        corpus
    }

    #[test]
    fn pretraining_reduces_loss_and_learns_the_pattern() {
        let corpus = pattern_corpus(5);
        let mut cfg = MiniLmConfig::large(20);
        cfg.dropout = 0.0;
        let mut lm = MiniLm::new(cfg, 1);
        let before = mlm_accuracy(&lm, &corpus, 1, 40);
        let losses = pretrain_mlm(
            &mut lm,
            &corpus,
            1,
            &PretrainConfig {
                epochs: 14,
                batch_size: 8,
                lr: 5e-3,
                mask_prob: 0.5,
                ..Default::default()
            },
        );
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "loss should fall: {losses:?}"
        );
        let after = mlm_accuracy(&lm, &corpus, 1, 40);
        assert!(
            after > before.max(0.5),
            "pattern should be learned: before {before}, after {after}"
        );
    }

    #[test]
    fn multi_mask_pretraining_handles_long_documents() {
        // One long repeated-pattern document: positions must all train.
        let doc: Vec<u32> = (0..60).map(|i| 4 + (i % 6) as u32).collect();
        let corpus = vec![doc; 8];
        let mut cfg = MiniLmConfig::large(16);
        cfg.dropout = 0.0;
        let mut lm = MiniLm::new(cfg, 2);
        let losses = pretrain_mlm(
            &mut lm,
            &corpus,
            1,
            &PretrainConfig {
                epochs: 6,
                ..Default::default()
            },
        );
        assert!(losses.iter().all(|l| l.is_finite()));
        assert!(losses.last().unwrap() < losses.first().unwrap());
    }
}
