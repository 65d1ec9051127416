//! Bitwise pin of the grad-free engine's fused packed-GEMM forward against
//! its one reference, the autograd tape, with the full feature load attached
//! (soft prompts + AdaLoRA with non-zero deltas, ragged batches, prefix
//! cache where exact).
//!
//! Covers single-layer (`large`), multi-layer bidirectional (`xl`), and
//! multi-layer causal (`causal_xl`) presets: multi-layer models exercise the
//! fused `[d, 3d]` panel on every block plus the split q/kv panels on the
//! pruned last block; the causal preset exerces per-row `valid` truncation
//! against the fused strided value rows.

use delrec_lm::adalora::AdaLoraConfig;
use delrec_lm::{LmToken, MiniLm, MiniLmConfig};
use delrec_tensor::{Ctx, InferCtx, Tape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn toks(ids: &[u32]) -> Vec<LmToken> {
    ids.iter().map(|&i| LmToken::Vocab(i)).collect()
}

/// A MiniLm with adapters attached and singular values nudged so the AdaLoRA
/// deltas are non-zero — the pack must fold `W + ΔW`, not `W`.
fn adapted_lm(mut cfg: MiniLmConfig, seed: u64) -> MiniLm {
    cfg.dropout = 0.0;
    let mut lm = MiniLm::new(cfg, seed);
    lm.attach_adalora(AdaLoraConfig::default(), seed + 1);
    let mut i = 0;
    while let Some(id) = lm.store().id_of(&format!("adalora.{i}.e")) {
        for v in lm.store_mut().get_mut(id).data_mut() {
            *v = 0.3;
        }
        i += 1;
    }
    assert!(i > 0, "adapters attached");
    lm
}

fn tape_logits(
    lm: &MiniLm,
    seqs: &[Vec<LmToken>],
    soft: Option<&Tensor>,
    mask_pos: &[usize],
) -> Tensor {
    let tape = Tape::new();
    let ctx = Ctx::new(&tape, lm.store(), false);
    let soft_var = soft.map(|t| tape.constant(t.clone()));
    let mut rng = StdRng::seed_from_u64(0);
    tape.get(lm.mask_logits_batch(&ctx, seqs, soft_var, mask_pos, &mut rng))
}

#[test]
fn fused_matches_tape_bitwise() {
    for (name, base) in [
        ("large", MiniLmConfig::large(60)),
        ("xl", MiniLmConfig::xl(60)),
        ("causal_xl", MiniLmConfig::causal_xl(60)),
    ] {
        let lm = adapted_lm(base, 23);
        let d = lm.cfg.d_model;
        let soft = Tensor::new([2, d], (0..2 * d).map(|i| 0.01 * i as f32 - 0.1).collect());
        // Shared prefix with soft tokens in it (DELRec's template shape),
        // ragged suffixes, mask at each sequence's end.
        let prefix = vec![
            LmToken::Vocab(5),
            LmToken::Soft(0),
            LmToken::Soft(1),
            LmToken::Vocab(6),
        ];
        let mut seqs: Vec<Vec<LmToken>> = Vec::new();
        for suffix in [&[7u32, 2, 9][..], &[3][..], &[8, 4][..]] {
            let mut s = prefix.clone();
            s.extend(toks(suffix));
            seqs.push(s);
        }
        let mask_pos = [6usize, 4, 5];
        let want = tape_logits(&lm, &seqs, Some(&soft), &mask_pos);

        let ic = InferCtx::default();
        let fused = lm.mask_logits_infer_batch(&ic, &seqs, Some(&soft), &mask_pos, None);
        assert_eq!(fused.data(), want.data(), "{name}: fused vs tape");

        // Prefix cache, where exact.
        let cacheable = lm.cfg.causal || lm.cfg.num_layers == 1;
        let cache = lm.build_prefix_cache(&ic, &prefix, Some(&soft));
        assert_eq!(cache.is_some(), cacheable, "{name}: cache gate");
        if let Some(c) = &cache {
            let cached = lm.mask_logits_infer_batch(&ic, &seqs, Some(&soft), &mask_pos, Some(c));
            assert_eq!(cached.data(), want.data(), "{name}: fused + cache vs tape");
        }
    }
}
