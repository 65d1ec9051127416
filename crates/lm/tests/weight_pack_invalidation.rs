//! WeightPack invalidation: a parameter-store version bump forces a repack,
//! and the repacked scores are bitwise-identical to a fresh pack — the
//! mirror of `prefix_cache_invalidation.rs` for the packed weight panels.
//!
//! The pack cache is internal (built lazily inside the forward), so
//! this test observes it through its two public surfaces: the
//! `lm.weight_pack.build` / `lm.weight_pack.hit` obs counters, and the
//! scores themselves. The fresh-pack reference comes from a `Clone` of the
//! mutated model: cloning deliberately resets the pack slot (two clones have
//! independent stores whose version counters advance from identical values),
//! so the clone packs from scratch while the original must detect staleness
//! on its own.
//!
//! Counters are process-global and other tests may run concurrently in this
//! binary's process, so assertions are on deltas being *at least* the
//! expected amount, never exact totals.

use delrec_lm::{LmToken, MiniLm, MiniLmConfig};
use delrec_obs::MetricValue;
use delrec_tensor::{Ctx, InferCtx, MathMode, Tape, Tensor};

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
    let seqs = vec![
        toks(&[5, 6, 1, 7, 2, 9]),
        toks(&[5, 6, 1, 3]),
        toks(&[5, 6, 1, 8, 4]),
    ];
    let mask_pos = [5usize, 3, 4];
    let ic = InferCtx::new(MathMode::Exact);

    // First forward builds the pack; repeat forwards hit the cached one.
    let b0 = counter("lm.weight_pack.build");
    let h0 = counter("lm.weight_pack.hit");
    let before = score(&lm, &ic, &seqs, &mask_pos);
    assert!(
        counter("lm.weight_pack.build") > b0,
        "first forward must build the pack"
    );
    let b1 = counter("lm.weight_pack.build");
    let again = score(&lm, &ic, &seqs, &mask_pos);
    assert_eq!(before.data(), again.data(), "cached pack changes nothing");
    assert_eq!(
        counter("lm.weight_pack.build"),
        b1,
        "same-version forward must not repack"
    );
    assert!(
        counter("lm.weight_pack.hit") > h0,
        "same-version forward must hit the cached pack"
    );

    // A parameter write bumps the store version: the next forward repacks.
    let id = lm.store().id_of("lm.b0.h0.wq").unwrap();
    lm.store_mut().get_mut(id).data_mut()[0] += 0.5;
    let b2 = counter("lm.weight_pack.build");
    let repacked = score(&lm, &ic, &seqs, &mask_pos);
    assert!(
        counter("lm.weight_pack.build") > b2,
        "stale version must force a repack"
    );
    assert_ne!(
        before.data(),
        repacked.data(),
        "the weight write must actually change the logits — otherwise the \
         invalidation test proves nothing"
    );

    // Fresh-pack reference: a clone starts with an empty pack slot and
    // packs the mutated weights from scratch.
    let fresh = lm.clone();
    let b3 = counter("lm.weight_pack.build");
    let fresh_scores = score(&fresh, &ic, &seqs, &mask_pos);
    assert!(
        counter("lm.weight_pack.build") > b3,
        "a clone must not inherit the original's pack"
    );
    assert_eq!(
        repacked.data(),
        fresh_scores.data(),
        "repack must be bitwise-identical to a fresh pack"
    );

    // And the repack agrees with the tape, which reads the store directly
    // and so cannot be serving stale weights.
    let tape = Tape::new();
    let ctx = Ctx::new(&tape, lm.store(), false);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
    let want = tape.get(lm.mask_logits_batch(&ctx, &seqs, None, &mask_pos, &mut rng));
    assert_eq!(
        repacked.data(),
        want.data(),
        "repack must match the tape bitwise"
    );
}
