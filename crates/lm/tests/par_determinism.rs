//! Thread-count invariance of the grad-free batch scoring path.
//!
//! `mask_logits_infer_batch` — the engine under `score_candidates_batch` and
//! the serving runtime — hands its example tiles to the shared `delrec-par`
//! pool. The lanes only choose *which* worker computes which tile; each
//! example's arithmetic is untouched (pinned separately by
//! `batch_row_independence.rs` and `engine_tiles.rs`), so the output must be
//! **bitwise identical** at every thread count, with every engine feature
//! attached at once: soft prompts, AdaLoRA adapters, and the prefix cache.
//!
//! The proptest's batches are random, ragged and smaller than one L2 tile,
//! so there the lane count alone sets the cut (`⌈B / lanes⌉` examples per
//! tile, down to one example each when lanes outnumber the batch);
//! `tiled_batches_are_bitwise_serial` covers L2 tiles outnumbering the lanes.
//! Thread counts {1, 2, 3, 7, 8} and {1, 2, 3, 4, 8}.

use delrec_lm::{AdaLoraConfig, LmToken, MiniLm, MiniLmConfig};
use delrec_par::{with_pool, ThreadPool};
use delrec_tensor::{InferCtx, Tensor};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// `lm.engine.tiles` is process-wide and `tiled_batches_are_bitwise_serial`
/// reads it: the two tests of this binary take turns.
fn serialised() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A small MiniLM with non-trivial AdaLoRA deltas, a two-row soft-prompt
/// table, and the shared `[Vocab(5), Soft(0), Soft(1), Vocab(6)]` prefix
/// used across the engine's equivalence tests.
fn build_lm() -> (MiniLm, Tensor, Vec<LmToken>) {
    let mut cfg = MiniLmConfig::large(60);
    cfg.dropout = 0.0;
    let d = cfg.d_model;
    let mut lm = MiniLm::new(cfg, 11);
    lm.attach_adalora(AdaLoraConfig::default(), 5);
    // Nudge singular values so adapter deltas are non-zero.
    let mut i = 0;
    while let Some(id) = lm.store().id_of(&format!("adalora.{i}.e")) {
        for v in lm.store_mut().get_mut(id).data_mut() {
            *v = 0.3;
        }
        i += 1;
    }
    assert!(i > 0, "adapters attached");
    let soft = Tensor::new([2, d], (0..2 * d).map(|i| 0.01 * i as f32 - 0.1).collect());
    let prefix = vec![
        LmToken::Vocab(5),
        LmToken::Soft(0),
        LmToken::Soft(1),
        LmToken::Vocab(6),
    ];
    (lm, soft, prefix)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random ragged batches score to the same bits on a 1-lane pool and on
    /// pools of {2, 3, 7, 8} lanes, with and without the prefix cache.
    #[test]
    fn batch_scoring_is_bitwise_serial_at_every_thread_count(
        suffixes in prop::collection::vec(prop::collection::vec(1u32..50, 1..8), 1..7),
        use_cache in prop_oneof![Just(false), Just(true)],
    ) {
        let _turn = serialised();
        let (lm, soft, prefix) = build_lm();
        let seqs: Vec<Vec<LmToken>> = suffixes
            .iter()
            .map(|s| {
                let mut t = prefix.clone();
                t.extend(s.iter().map(|&i| LmToken::Vocab(i)));
                t
            })
            .collect();
        let mask_pos: Vec<usize> = seqs.iter().map(|s| s.len() - 1).collect();
        let ic = InferCtx::default();
        let cache = if use_cache {
            Some(
                lm.build_prefix_cache(&ic, &prefix, Some(&soft))
                    .expect("single-layer model must cache"),
            )
        } else {
            None
        };
        let run = |lanes: usize| {
            let pool = ThreadPool::new(lanes);
            with_pool(&pool, || {
                lm.mask_logits_infer_batch(&ic, &seqs, Some(&soft), &mask_pos, cache.as_ref())
            })
        };
        let serial = bits(&run(1));
        for lanes in [2usize, 3, 7, 8] {
            let got = bits(&run(lanes));
            prop_assert_eq!(
                &serial,
                &got,
                "lanes={} batch={} cache={}",
                lanes,
                seqs.len(),
                use_cache
            );
        }
    }
}

/// More tiles than lanes, and a ragged last tile: 64-token sequences make an
/// L2 tile 16 examples (17 behind the 4-token prefix cache), so 3·tile + 2
/// examples are four tiles on one lane — asserted on the engine's counter, so
/// the case cannot go vacuous if the engine's tile size drifts from the
/// `1024` below — and four or more claimed dynamically by {2, 3, 4, 8} lanes,
/// with soft prompts, AdaLoRA deltas and the prefix cache attached.
#[test]
fn tiled_batches_are_bitwise_serial() {
    let _turn = serialised();
    let tiles = delrec_obs::global().counter("lm.engine.tiles");
    let (lm, soft, prefix) = build_lm();
    let ic = InferCtx::default();
    let cache = lm
        .build_prefix_cache(&ic, &prefix, Some(&soft))
        .expect("single-layer model must cache");
    for cache in [None, Some(&cache)] {
        let tile = 1024 / (64 - cache.map_or(0, |c| c.len()));
        let seqs: Vec<Vec<LmToken>> = (0..3 * tile + 2)
            .map(|i| {
                let body = (prefix.len()..64 - (i * 5) % 23)
                    .map(|t| LmToken::Vocab(((i * 13 + t * 3) % 50 + 1) as u32));
                prefix.iter().copied().chain(body).collect()
            })
            .collect();
        let mask_pos: Vec<usize> = seqs.iter().map(|s| s.len() - 1).collect();
        let run = |lanes: usize| {
            with_pool(&ThreadPool::new(lanes), || {
                lm.mask_logits_infer_batch(&ic, &seqs, Some(&soft), &mask_pos, cache)
            })
        };
        let before = tiles.get();
        let serial = bits(&run(1));
        assert_eq!(tiles.get() - before, 4, "3·tile + 2 examples on one lane");
        for lanes in [2usize, 3, 4, 8] {
            assert!(
                serial == bits(&run(lanes)),
                "lanes={lanes} cache={}",
                cache.is_some()
            );
        }
    }
}
