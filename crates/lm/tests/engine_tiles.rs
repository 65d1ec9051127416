//! The engine's example tiles change nothing but the order of the work.
//!
//! `mask_logits_infer_batch` encodes a batch one tile of consecutive examples
//! at a time (`1024 / longest suffix` examples, capped at `⌈B / lanes⌉` so
//! every lane gets one, at least one). These tests put batches on every side
//! of a tile boundary — {1, tile−1, tile, tile+1, 3·tile+2} examples — and
//! pin the tiled result bitwise to its two references: the autograd tape
//! over the *whole* batch, and one-example engine calls. They run at lanes
//! {1, 2, 4} (a tile is also the unit a lane claims, so the cut differs at
//! each), for `xl` (no prefix cache) and `large` (prefix cache).
//!
//! **Which batches the tape can referee.** The tape sums attn·V over the
//! batch's padded key count in 4-groups (exact zeros past a row's own keys),
//! the engine over the row's own keys; the two associate alike only when a
//! row's key count is at most one past a 4-group (or shares the longest
//! row's last group) — see `tests/infer_engine.rs`. So the batches here use
//! lengths ≡ 0 or 1 (mod 4) up to 128 tokens (8 examples to a tile).
//!
//! The tile size is private to the engine; `ENGINE_TILE_ROWS` below mirrors
//! it and `tile_counter_advances_by_ceil_b_over_tile` fails if the two drift
//! apart, so the boundary batches above cannot silently stop straddling one.

use delrec_lm::{LmToken, MiniLm, MiniLmConfig, PrefixCache};
use delrec_par::{with_pool, ThreadPool};
use delrec_tensor::{Ctx, InferCtx, Tape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

/// Mirror of `delrec_lm::infer::ENGINE_TILE_ROWS` (pinned by the counter test).
const ENGINE_TILE_ROWS: usize = 1024;
const PREFIX: [u32; 4] = [5, 6, 1, 9];

/// Ragged lengths ≡ 0 or 1 (mod 4), example 0 the longest at 128 tokens.
fn long_len(i: usize) -> usize {
    128 - 4 * ((i * 7) % 10) - 3 * (i % 2)
}

/// `lm.engine.tiles` is process-wide: tests of this binary that read it or
/// bump it take turns.
fn serialised() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn lm_of(mut cfg: MiniLmConfig) -> MiniLm {
    cfg.dropout = 0.0;
    MiniLm::new(cfg, 7)
}

fn prefix() -> Vec<LmToken> {
    PREFIX.iter().copied().map(LmToken::Vocab).collect()
}

/// `bsz` sequences of `len_of(i)` tokens sharing [`PREFIX`], mask at each
/// sequence's end.
fn batch(bsz: usize, len_of: fn(usize) -> usize) -> (Vec<Vec<LmToken>>, Vec<usize>) {
    let seqs: Vec<Vec<LmToken>> = (0..bsz)
        .map(|i| {
            let body = (PREFIX.len()..len_of(i))
                .map(|t| LmToken::Vocab(((i * 31 + t * 7) % 50 + 1) as u32));
            prefix().into_iter().chain(body).collect()
        })
        .collect();
    let mask_pos = seqs.iter().map(|s| s.len() - 1).collect();
    (seqs, mask_pos)
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

/// Bitwise equality with a failure message short enough to read.
#[track_caller]
fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    let diff: Vec<usize> = (0..got.len())
        .filter(|&i| got[i].to_bits() != want[i].to_bits())
        .collect();
    assert!(
        diff.is_empty(),
        "{what}: {} of {} elements differ, first at {} ({:e} vs {:e})",
        diff.len(),
        got.len(),
        diff[0],
        got[diff[0]],
        want[diff[0]]
    );
}

/// Batches around the tile boundary ≡ one-example calls ≡ the tape over the
/// whole batch — at lanes {1, 2, 4}.
fn tiles_match_their_references(
    name: &str,
    lm: &MiniLm,
    cache: Option<&PrefixCache>,
    len_of: fn(usize) -> usize,
) {
    let ic = InferCtx::default();
    let rows = len_of(0) - cache.map_or(0, PrefixCache::len);
    let tile = ENGINE_TILE_ROWS / rows;
    assert!(tile >= 2, "{name}: need a tile boundary to straddle");
    let vsz = lm.cfg.vocab_size;
    for bsz in [1, tile - 1, tile, tile + 1, 3 * tile + 2] {
        let (seqs, mask_pos) = batch(bsz, len_of);
        // One-example calls: never tiled, never forked.
        let mut want = Vec::with_capacity(bsz * vsz);
        for (s, &mp) in seqs.iter().zip(&mask_pos) {
            let solo = lm.mask_logits_infer_batch(&ic, std::slice::from_ref(s), None, &[mp], cache);
            want.extend_from_slice(solo.data());
        }
        let tape = tape_logits(lm, &seqs, None, &mask_pos);
        assert_same_bits(&want, tape.data(), &format!("{name}: B={bsz} solo vs tape"));
        for lanes in [1usize, 2, 4] {
            let got = with_pool(&ThreadPool::new(lanes), || {
                lm.mask_logits_infer_batch(&ic, &seqs, None, &mask_pos, cache)
            });
            assert_eq!((got.shape().dim(0), got.shape().dim(1)), (bsz, vsz));
            assert_same_bits(
                got.data(),
                &want,
                &format!("{name}: B={bsz} lanes={lanes} vs its references"),
            );
        }
    }
}

#[test]
fn xl_tiles_match_tape_and_solo_calls() {
    let _turn = serialised();
    let lm = lm_of(MiniLmConfig::xl(60));
    let ic = InferCtx::default();
    assert!(
        lm.build_prefix_cache(&ic, &prefix(), None).is_none(),
        "a 2-layer bidirectional model has no exact prefix cache"
    );
    tiles_match_their_references("xl", &lm, None, long_len);
}

#[test]
fn large_tiles_match_tape_and_solo_calls_through_the_prefix_cache() {
    let _turn = serialised();
    let lm = lm_of(MiniLmConfig::large(60));
    let ic = InferCtx::default();
    let cache = lm.build_prefix_cache(&ic, &prefix(), None);
    assert!(cache.is_some(), "a single-layer model caches its prefix");
    tiles_match_their_references("large+cache", &lm, cache.as_ref(), long_len);
}

/// The tape adds the soft scatter's `+0.0` to every hard token of a batch
/// that holds a soft token anywhere. Here the only soft token sits in the
/// second tile: the first tile, all hard tokens, must still equal the tape's
/// whole-batch result — `has_soft` is a property of the batch, not the tile.
#[test]
fn a_soft_token_in_another_tile_leaves_this_tile_on_the_tape() {
    let _turn = serialised();
    let lm = lm_of(MiniLmConfig::xl(60));
    let d = lm.cfg.d_model;
    let vsz = lm.cfg.vocab_size;
    let soft = Tensor::new([1, d], (0..d).map(|i| 0.02 * i as f32 - 0.3).collect());
    let tile = ENGINE_TILE_ROWS / long_len(0);
    let (mut seqs, mask_pos) = batch(tile + 1, long_len);
    seqs[tile][2] = LmToken::Soft(0);
    let want = tape_logits(&lm, &seqs, Some(&soft), &mask_pos);
    let ic = InferCtx::default();
    for lanes in [1usize, 2, 4] {
        let got = with_pool(&ThreadPool::new(lanes), || {
            lm.mask_logits_infer_batch(&ic, &seqs, Some(&soft), &mask_pos, None)
        });
        assert_same_bits(
            &got.data()[..vsz],
            &want.data()[..vsz],
            &format!("lanes={lanes}: example 0, a tile away from the soft token"),
        );
        assert_same_bits(got.data(), want.data(), &format!("lanes={lanes}: batch"));
    }
}

/// `lm.engine.tiles` counts one per tile: `⌈B / tile⌉` for a call of `B`
/// examples on one lane, nothing for an empty one — which ties
/// [`ENGINE_TILE_ROWS`] here to the engine's constant. On `L` lanes a tile
/// holds at most `⌈B / L⌉` examples, so a batch that fits one L2 tile is
/// still cut into one tile per lane.
#[test]
fn tile_counter_advances_by_ceil_b_over_tile() {
    let _turn = serialised();
    let lm = lm_of(MiniLmConfig::large(60));
    let ic = InferCtx::default();
    let tiles = delrec_obs::global().counter("lm.engine.tiles");
    let tile = ENGINE_TILE_ROWS / long_len(0);
    for (lanes, bsz, want) in [
        (1usize, 0usize, 0u64),
        (1, 1, 1),
        (1, tile, 1),
        (1, tile + 1, 2),
        (1, 3 * tile + 2, 4),
        (4, 0, 0),
        (4, 1, 1),
        (4, 3, 3),
        (2, tile - 1, 2),
        (4, tile, 4),
        (2, 3 * tile + 2, 4),
        (4, 4 * tile + 1, 5),
    ] {
        let (seqs, mask_pos) = batch(bsz, long_len);
        let before = tiles.get();
        with_pool(&ThreadPool::new(lanes), || {
            lm.mask_logits_infer_batch(&ic, &seqs, None, &mask_pos, None)
        });
        assert_eq!(
            tiles.get() - before,
            want,
            "B={bsz} lanes={lanes} at {tile} examples per L2 tile"
        );
    }
    // One example longer than a whole tile is still one tile of one example.
    let mut cfg = MiniLmConfig::large(60);
    cfg.max_len = 2 * ENGINE_TILE_ROWS;
    let lm = lm_of(cfg);
    let long: Vec<LmToken> = (0..ENGINE_TILE_ROWS + 5)
        .map(|t| LmToken::Vocab((t % 50 + 1) as u32))
        .collect();
    let seqs = vec![long.clone(), long];
    let before = tiles.get();
    with_pool(&ThreadPool::new(1), || {
        lm.mask_logits_infer_batch(&ic, &seqs, None, &[3, 4], None)
    });
    assert_eq!(tiles.get() - before, 2, "over-long examples: one per tile");
}
