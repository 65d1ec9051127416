//! The grad-free inference engine as an evaluation drop-in: it must
//! reproduce the autograd tape's metrics *exactly* (same `RankingReport`,
//! rank for rank) at every batch size — and, one level down, the tape's mask
//! logits bit for bit on a ragged batch through both attn·V paths.

use delrec::core::{
    build_teacher, pretrained_lm, DelRec, DelRecConfig, LmPreset, Pipeline, TeacherKind,
};
use delrec::data::synthetic::{DatasetProfile, SyntheticConfig};
use delrec::data::ItemId;
use delrec::data::{Dataset, Split};
use delrec::eval::{evaluate, EvalConfig, Ranker, RankingReport, ScoreRequest};
use delrec::lm::{AdaLoraConfig, LmToken, MiniLm, MiniLmConfig};
use delrec::par::{with_pool, ThreadPool};
use delrec::tensor::{Ctx, InferCtx, Tape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fitted_model() -> (Dataset, DelRec) {
    let ds = SyntheticConfig::profile(DatasetProfile::MovieLens100K)
        .scaled(0.08)
        .generate(9);
    let pipeline = Pipeline::build(&ds);
    let lm = pretrained_lm(
        &ds,
        &pipeline,
        LmPreset::Large,
        &delrec::lm::PretrainConfig {
            epochs: 1,
            max_sentences: Some(120),
            ..Default::default()
        },
        2,
    );
    let teacher = build_teacher(&ds, TeacherKind::SASRec, 1, Some(60), 5);
    let mut cfg = DelRecConfig::smoke(TeacherKind::SASRec);
    cfg.lm = LmPreset::Large;
    let model = DelRec::fit(&ds, &pipeline, teacher.as_ref(), lm, &cfg);
    (ds, model)
}

/// The tape forward as a [`Ranker`], so `evaluate` can drive it exactly as
/// it drives the model's engine.
struct TapeRanker<'a>(&'a DelRec);

impl Ranker for TapeRanker<'_> {
    fn name(&self) -> &str {
        "delrec-tape"
    }

    fn score_candidates(&self, prefix: &[ItemId], candidates: &[ItemId]) -> Vec<f32> {
        self.score_candidates_batch(&[(prefix, candidates)])
            .pop()
            .expect("one score row per request")
    }

    fn score_candidates_batch(&self, requests: &[ScoreRequest<'_>]) -> Vec<Vec<f32>> {
        let items: Vec<_> = requests.iter().map(|&(h, c)| (h, c, c)).collect();
        self.0.score_items_batch_tape(&items)
    }
}

fn eval_with(model: &impl Ranker, ds: &Dataset, batch_size: usize) -> RankingReport {
    evaluate(
        model,
        ds,
        Split::Test,
        &EvalConfig {
            max_examples: Some(24),
            batch_size,
            ..Default::default()
        },
    )
}

#[test]
fn exact_engine_reproduces_tape_metrics_at_every_batch_size() {
    let (ds, model) = fitted_model();
    for bs in [1usize, 7, 32] {
        let engine = eval_with(&model, &ds, bs);
        let tape = eval_with(&TapeRanker(&model), &ds, bs);
        assert_eq!(
            engine, tape,
            "batch_size={bs}: exact engine must match the tape rank for rank"
        );
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Engine ≡ tape, bit for bit, on a ragged batch with soft prompts and
/// AdaLoRA deltas attached: `xl` (2 layers — layer 0 takes the blocked attn·V
/// GEMM, the pruned last layer the per-row path) and `large` (single layer,
/// so the prefix cache applies), serial and on a 4-lane pool.
#[test]
fn engine_mask_logits_are_bitwise_the_tapes_on_both_attention_paths() {
    let blocked = delrec::obs::global().counter("lm.attn.blocked");
    let per_row = delrec::obs::global().counter("lm.attn.per_row");
    for (name, base) in [
        ("xl", MiniLmConfig::xl(60)),
        ("large", MiniLmConfig::large(60)),
    ] {
        let mut cfg = base;
        cfg.dropout = 0.0;
        let (d, layers) = (cfg.d_model, cfg.num_layers);
        let mut lm = MiniLm::new(cfg, 11);
        lm.attach_adalora(AdaLoraConfig::default(), 5);
        // Nudge singular values so adapter deltas are non-zero.
        let mut i = 0;
        while let Some(id) = lm.store().id_of(&format!("adalora.{i}.e")) {
            lm.store_mut().get_mut(id).data_mut().fill(0.3);
            i += 1;
        }
        assert!(i > 0, "adapters attached");
        let soft = Tensor::new([2, d], (0..2 * d).map(|i| 0.01 * i as f32 - 0.1).collect());
        let prefix = [
            LmToken::Vocab(5),
            LmToken::Soft(0),
            LmToken::Soft(1),
            LmToken::Vocab(6),
        ];
        // Ragged key counts 5, 8, 9, 12..=15 cross the softmax's 8 lanes and
        // every `k % 4` class of the attn·V product. The tape sums attn·V
        // over the batch's padded 15 keys (exact zeros past an example's
        // end), the engine over the example's own — the same association
        // only when the count has at most one key past a 4-group or shares
        // the longest example's last group, hence no 6, 7, 10 or 11.
        let seqs: Vec<Vec<LmToken>> = [1usize, 4, 5, 8, 9, 10, 11]
            .iter()
            .map(|&n| {
                let suffix = (0..n).map(|j| LmToken::Vocab(((7 * n + 3 * j) % 50 + 1) as u32));
                prefix.iter().copied().chain(suffix).collect()
            })
            .collect();
        let mask_pos: Vec<usize> = seqs.iter().map(|s| s.len() - 1).collect();

        let tape = Tape::new();
        let ctx = Ctx::new(&tape, lm.store(), false);
        let soft_var = tape.constant(soft.clone());
        let mut rng = StdRng::seed_from_u64(0);
        let want = tape.get(lm.mask_logits_batch(&ctx, &seqs, Some(soft_var), &mask_pos, &mut rng));

        let ic = InferCtx::default();
        let cache = lm.build_prefix_cache(&ic, &prefix, Some(&soft));
        assert_eq!(cache.is_some(), layers == 1, "{name}: cache gate");
        for lanes in [1usize, 4] {
            let (b0, r0) = (blocked.get(), per_row.get());
            with_pool(&ThreadPool::new(lanes), || {
                let got = lm.mask_logits_infer_batch(&ic, &seqs, Some(&soft), &mask_pos, None);
                assert!(bits(&got) == bits(&want), "{name}, {lanes} lanes, no cache");
                if let Some(c) = &cache {
                    let got =
                        lm.mask_logits_infer_batch(&ic, &seqs, Some(&soft), &mask_pos, Some(c));
                    assert!(bits(&got) == bits(&want), "{name}, {lanes} lanes, cached");
                }
            });
            // Only a layer that keeps all its query rows can block; the
            // pruned last layer goes row by row.
            // (Counters are process-wide: lower bounds, not equalities.)
            if name == "xl" {
                assert!(blocked.get() > b0, "xl layer 0 must take the blocked path");
            }
            assert!(
                per_row.get() > r0,
                "{name}: the pruned last layer goes row by row"
            );
        }
    }
}
