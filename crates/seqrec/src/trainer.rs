//! Shared training loop for all neural sequential recommenders.

use crate::model::NeuralSeqModel;
use delrec_data::Example;
use delrec_tensor::optim::{clip_grad_norm, Adagrad, Adam, Lion, Optimizer, Sgd};
use delrec_tensor::{Ctx, Tape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which optimizer the trainer instantiates (paper §V-A3: Adam for
/// SASRec/Caser, Adagrad for GRU4Rec).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OptimizerKind {
    /// Adam with decoupled weight decay.
    Adam {
        /// Decoupled weight-decay coefficient.
        weight_decay: f32,
    },
    /// Adagrad.
    Adagrad,
    /// Lion.
    Lion {
        /// Decoupled weight-decay coefficient.
        weight_decay: f32,
    },
    /// Plain SGD.
    Sgd,
}

/// Training configuration.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Passes over the (possibly capped) training set.
    pub epochs: usize,
    /// Examples per gradient step.
    pub batch_size: usize,
    /// Cap on training examples per epoch (None = all).
    pub max_examples: Option<usize>,
    /// Learning rate.
    pub lr: f32,
    /// Optimizer family.
    pub optimizer: OptimizerKind,
    /// Global gradient-norm clip.
    pub clip: f32,
    /// Shuffling / dropout seed.
    pub seed: u64,
}

impl TrainConfig {
    /// Paper-style Adam recipe (SASRec, Caser): lr 1e-3, batch 128 scaled
    /// down to CPU-friendly sizes.
    pub fn adam(epochs: usize, lr: f32) -> Self {
        TrainConfig {
            epochs,
            batch_size: 16,
            max_examples: None,
            lr,
            optimizer: OptimizerKind::Adam { weight_decay: 0.0 },
            clip: 5.0,
            seed: 17,
        }
    }

    /// Paper-style Adagrad recipe (GRU4Rec): lr 0.01.
    pub fn adagrad(epochs: usize, lr: f32) -> Self {
        TrainConfig {
            optimizer: OptimizerKind::Adagrad,
            ..Self::adam(epochs, lr)
        }
    }
}

fn make_optimizer(cfg: &TrainConfig) -> Box<dyn Optimizer> {
    match cfg.optimizer {
        OptimizerKind::Adam { weight_decay } => Box::new(Adam::with_decay(cfg.lr, weight_decay)),
        OptimizerKind::Adagrad => Box::new(Adagrad::new(cfg.lr)),
        OptimizerKind::Lion { weight_decay } => Box::new(Lion::new(cfg.lr, weight_decay)),
        OptimizerKind::Sgd => Box::new(Sgd::new(cfg.lr)),
    }
}

/// Train `model` with next-item cross-entropy over the full catalog.
/// Returns the mean loss per epoch.
pub fn train<M: NeuralSeqModel>(
    model: &mut M,
    examples: &[Example],
    cfg: &TrainConfig,
) -> Vec<f32> {
    assert!(!examples.is_empty(), "no training examples");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = make_optimizer(cfg);
    let mut order: Vec<usize> = (0..examples.len()).collect();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for _epoch in 0..cfg.epochs {
        // Fisher–Yates shuffle.
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
                let ctx = Ctx::new(&tape, model.store(), true);
                let prefixes: Vec<&[delrec_data::ItemId]> = chunk
                    .iter()
                    .map(|&ei| examples[ei].prefix.as_slice())
                    .collect();
                let targets: Vec<usize> = chunk
                    .iter()
                    .map(|&ei| examples[ei].target.index())
                    .collect();
                // One padded forward for the whole minibatch; the loss is a
                // single cross-entropy over its [B, num_items] logits.
                let logits = model.logits_batch(&ctx, &prefixes, &mut rng);
                let loss = tape.cross_entropy(logits, &targets);
                let loss_value = tape.get(loss).item();
                let mut grads = tape.backward(loss);
                (loss_value, ctx.grads(&mut grads))
            };
            clip_grad_norm(&mut updates, cfg.clip);
            opt.apply(model.store_mut(), &updates);
            total += loss_value;
            batches += 1;
        }
        epoch_losses.push(total / batches.max(1) as f32);
    }
    epoch_losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gru4rec::{Gru4Rec, Gru4RecConfig};
    use crate::model::SequentialRecommender;
    use crate::sasrec::{SasRec, SasRecConfig};
    use delrec_data::synthetic::{DatasetProfile, SyntheticConfig};
    use delrec_data::Split;

    fn tiny_dataset() -> delrec_data::Dataset {
        SyntheticConfig::profile(DatasetProfile::MovieLens100K)
            .scaled(0.08)
            .generate(3)
    }

    #[test]
    fn sasrec_loss_decreases() {
        let ds = tiny_dataset();
        let mut model = SasRec::new(
            ds.num_items(),
            SasRecConfig {
                dropout: 0.1,
                ..Default::default()
            },
            7,
        );
        let cfg = TrainConfig {
            max_examples: Some(300),
            ..TrainConfig::adam(3, 1e-3)
        };
        let losses = train(&mut model, ds.examples(Split::Train), &cfg);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "loss should decrease: {losses:?}"
        );
    }

    #[test]
    fn trained_model_beats_untrained_on_hit_rate() {
        let ds = tiny_dataset();
        let untrained = SasRec::new(
            ds.num_items(),
            SasRecConfig {
                dropout: 0.1,
                ..Default::default()
            },
            7,
        );
        let mut trained = SasRec::new(
            ds.num_items(),
            SasRecConfig {
                dropout: 0.1,
                ..Default::default()
            },
            7,
        );
        let cfg = TrainConfig {
            max_examples: Some(400),
            ..TrainConfig::adam(4, 1e-3)
        };
        train(&mut trained, ds.examples(Split::Train), &cfg);
        let hit10 = |m: &SasRec| {
            let test = ds.examples(Split::Test);
            let hits = test
                .iter()
                .take(60)
                .filter(|e| m.recommend(&e.prefix, 10).contains(&e.target))
                .count();
            hits as f32 / test.len().min(60) as f32
        };
        let (h_trained, h_untrained) = (hit10(&trained), hit10(&untrained));
        assert!(
            h_trained > h_untrained,
            "training should help: trained {h_trained} vs untrained {h_untrained}"
        );
    }

    /// FNV-1a over every parameter's bits, in store order.
    fn param_bits(store: &delrec_tensor::ParamStore) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (_, _, t) in store.iter() {
            for byte in t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()) {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Training is pinned by its bits, not by a loss trend: three fixed-seed
    /// steps (ragged batches, dropout on, so the attention's mask draws and
    /// every backward product enter the next step's forward) must leave each
    /// model's parameters exactly where the blessed run left them. Re-bless
    /// only for a change that means to alter training numerics, and say why.
    #[test]
    fn attention_models_train_to_blessed_bits() {
        use crate::bert4rec::{Bert4Rec, Bert4RecConfig};
        let ds = tiny_dataset();
        let cfg = TrainConfig {
            max_examples: Some(48),
            ..TrainConfig::adam(1, 1e-3)
        };
        let mut sasrec = SasRec::new(ds.num_items(), SasRecConfig::default(), 7);
        train(&mut sasrec, ds.examples(Split::Train), &cfg);
        let mut bert = Bert4Rec::new(ds.num_items(), Bert4RecConfig::default(), 7);
        train(&mut bert, ds.examples(Split::Train), &cfg);
        let got = (param_bits(sasrec.store()), param_bits(bert.store()));
        println!(
            "training bits: sasrec {:#018X}, bert4rec {:#018X}",
            got.0, got.1
        );
        assert_eq!(
            got,
            (0xC7B9_F50F_8DAD_558C, 0x536F_E8A4_7F97_6FB3),
            "training bits drifted"
        );
    }

    #[test]
    fn gru4rec_trains_without_nans() {
        let ds = tiny_dataset();
        let mut model = Gru4Rec::new(ds.num_items(), Gru4RecConfig::default(), 7);
        let cfg = TrainConfig {
            max_examples: Some(150),
            ..TrainConfig::adagrad(2, 0.01)
        };
        let losses = train(&mut model, ds.examples(Split::Train), &cfg);
        assert!(losses.iter().all(|l| l.is_finite()), "losses: {losses:?}");
    }
}
