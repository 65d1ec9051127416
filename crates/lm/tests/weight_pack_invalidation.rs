//! What is the LM's own about its weight-pack slot (the slot's policy —
//! hit at one version, one rebuild per bump, racing builders, a panicking
//! build — is pinned once, beside `delrec_tensor::VersionedSlot`): the pack
//! folds each AdaLoRA delta into its projection panel, so an *adapter* write
//! must repack; the `lm.weight_pack.{build,hit}` counters follow the slot;
//! and a `Clone` packs from its own store.
//!
//! The slot is internal (filled lazily inside the forward), so the test
//! observes it through those counters and through the scores. Counters are
//! process-global, so assertions are on deltas being *at least* the expected
//! amount, never exact totals.

use delrec_lm::{AdaLoraConfig, LmToken, MiniLm, MiniLmConfig};
use delrec_obs::MetricValue;
use delrec_tensor::{Ctx, InferCtx, Tape, Tensor};

fn toks(ids: &[u32]) -> Vec<LmToken> {
    ids.iter().map(|&w| LmToken::Vocab(w)).collect()
}

fn counter(name: &str) -> u64 {
    delrec_obs::global()
        .snapshot()
        .into_iter()
        .find_map(|(n, v)| match v {
            MetricValue::Counter(c) if n == name => Some(c),
            _ => None,
        })
        .unwrap_or(0)
}

fn score(lm: &MiniLm, ic: &InferCtx, seqs: &[Vec<LmToken>], mask_pos: &[usize]) -> Tensor {
    lm.mask_logits_infer_batch(ic, seqs, None, mask_pos, None)
}

#[test]
fn version_bump_forces_repack_bitwise_identical_to_fresh_pack() {
    let mut cfg = MiniLmConfig::large(60);
    cfg.dropout = 0.0;
    let mut lm = MiniLm::new(cfg, 17);
    lm.attach_adalora(AdaLoraConfig::default(), 5);
    let seqs = vec![
        toks(&[5, 6, 1, 7, 2, 9]),
        toks(&[5, 6, 1, 3]),
        toks(&[5, 6, 1, 8, 4]),
    ];
    let mask_pos = [5usize, 3, 4];
    let ic = InferCtx::default();

    let (b0, h0) = (
        counter("lm.weight_pack.build"),
        counter("lm.weight_pack.hit"),
    );
    let before = score(&lm, &ic, &seqs, &mask_pos);
    assert!(counter("lm.weight_pack.build") > b0, "first forward packs");
    let again = score(&lm, &ic, &seqs, &mask_pos);
    assert_eq!(before.data(), again.data(), "cached pack changes nothing");
    assert!(counter("lm.weight_pack.hit") > h0, "second forward hits");

    // Adapters start at ΔW = 0 (zero singular values). Writing them changes
    // no base weight, only the delta the pack folded in.
    let e = lm.store().id_of("adalora.0.e").unwrap();
    lm.store_mut().get_mut(e).data_mut().fill(0.3);
    let b1 = counter("lm.weight_pack.build");
    let repacked = score(&lm, &ic, &seqs, &mask_pos);
    assert!(
        counter("lm.weight_pack.build") > b1,
        "an adapter write must repack"
    );
    assert_ne!(
        before.data(),
        repacked.data(),
        "the adapter write must actually change the logits — otherwise the \
         invalidation test proves nothing"
    );

    // The tape reads the store (and the adapters) directly, so it cannot be
    // serving a stale delta.
    let tape = Tape::new();
    let ctx = Ctx::new(&tape, lm.store(), false);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
    let want = tape.get(lm.mask_logits_batch(&ctx, &seqs, None, &mask_pos, &mut rng));
    assert_eq!(
        repacked.data(),
        want.data(),
        "repack must match the tape bitwise"
    );

    // A clone starts with an empty slot and packs from its own store.
    let fresh = lm.clone();
    let b2 = counter("lm.weight_pack.build");
    let fresh_scores = score(&fresh, &ic, &seqs, &mask_pos);
    assert!(
        counter("lm.weight_pack.build") > b2,
        "a clone must not inherit the original's pack"
    );
    assert_eq!(repacked.data(), fresh_scores.data());
}
