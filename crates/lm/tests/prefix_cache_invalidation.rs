//! PrefixCache invalidation: each staleness trigger forces a rebuild, and
//! the rebuilt cache is bitwise-identical to the uncached path.
//!
//! `PrefixCache::is_valid_for` keys on two things — parameter-store
//! version and the prefix tokens themselves. For each trigger
//! this test walks the full caller protocol (validity check → rebuild →
//! score) and asserts the rebuilt cache reproduces the uncached logits
//! bit-for-bit, not approximately: a cache serving stale K/V would still
//! produce plausible-looking scores, so only exact equality pins the
//! invalidation contract.

use delrec_lm::{LmToken, MiniLm, MiniLmConfig, PrefixCache};
use delrec_tensor::{InferCtx, Tensor};

fn toks(ids: &[u32]) -> Vec<LmToken> {
    ids.iter().map(|&w| LmToken::Vocab(w)).collect()
}

fn world() -> (MiniLm, Vec<LmToken>, Vec<Vec<LmToken>>, Vec<usize>) {
    let mut cfg = MiniLmConfig::large(60);
    cfg.dropout = 0.0;
    let lm = MiniLm::new(cfg, 17);
    let prefix = toks(&[5, 6, 1]);
    // Ragged suffixes extending the shared prefix, mask at the end of each.
    let seqs = vec![
        toks(&[5, 6, 1, 7, 2, 9]),
        toks(&[5, 6, 1, 3]),
        toks(&[5, 6, 1, 8, 4]),
    ];
    let mask_pos = vec![5usize, 3, 4];
    (lm, prefix, seqs, mask_pos)
}

/// Score with and without `cache` and demand bitwise equality.
fn assert_cached_matches_uncached(
    lm: &MiniLm,
    ic: &InferCtx,
    seqs: &[Vec<LmToken>],
    mask_pos: &[usize],
    cache: &PrefixCache,
    what: &str,
) -> Tensor {
    let plain = lm.mask_logits_infer_batch(ic, seqs, None, mask_pos, None);
    let cached = lm.mask_logits_infer_batch(ic, seqs, None, mask_pos, Some(cache));
    assert_eq!(
        plain.data(),
        cached.data(),
        "{what}: rebuilt cache must be bitwise-identical to uncached"
    );
    plain
}

#[test]
fn param_store_version_bump_forces_rebuild() {
    let (mut lm, prefix, seqs, mask_pos) = world();
    let ic = InferCtx::default();
    let cache = lm.build_prefix_cache(&ic, &prefix, None).unwrap();
    assert!(cache.is_valid_for(lm.store().version(), &prefix));
    let before = assert_cached_matches_uncached(&lm, &ic, &seqs, &mask_pos, &cache, "fresh cache");

    // Any parameter write — here a soft-prompt-style embedding nudge — bumps
    // the store version and must invalidate.
    let id = lm.store().id_of("lm.tok_emb").unwrap();
    lm.store_mut().get_mut(id).data_mut()[0] += 0.5;
    assert!(
        !cache.is_valid_for(lm.store().version(), &prefix),
        "stale version must invalidate"
    );

    let rebuilt = lm.build_prefix_cache(&ic, &prefix, None).unwrap();
    assert!(rebuilt.is_valid_for(lm.store().version(), &prefix));
    let after =
        assert_cached_matches_uncached(&lm, &ic, &seqs, &mask_pos, &rebuilt, "post-write rebuild");
    assert_ne!(
        before.data(),
        after.data(),
        "the parameter write must actually change the logits — otherwise the \
         invalidation test proves nothing"
    );
}

#[test]
fn prefix_token_change_forces_rebuild() {
    let (lm, prefix, seqs, mask_pos) = world();
    let ic = InferCtx::default();
    let cache = lm.build_prefix_cache(&ic, &prefix, None).unwrap();

    // A new prompt template (different teacher name, different instruction
    // wording) shows up as different prefix tokens.
    let new_prefix = toks(&[5, 9, 1]);
    assert!(
        !cache.is_valid_for(lm.store().version(), &new_prefix),
        "a cache built for one prefix must not serve another"
    );

    let rebuilt = lm.build_prefix_cache(&ic, &new_prefix, None).unwrap();
    assert!(rebuilt.is_valid_for(lm.store().version(), &new_prefix));
    let new_seqs: Vec<Vec<LmToken>> = seqs
        .iter()
        .map(|s| {
            let mut s = s.clone();
            s[..3].copy_from_slice(&new_prefix);
            s
        })
        .collect();
    assert_cached_matches_uncached(
        &lm,
        &ic,
        &new_seqs,
        &mask_pos,
        &rebuilt,
        "new-prefix rebuild",
    );
}
