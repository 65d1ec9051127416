//! The quantized weight-pack path (`MathMode::Quantized`): the dual-slot
//! pack cache keys on (store version, pack format), so f32 and int8 packs
//! coexist and invalidate independently; quantized logits stay close to
//! exact; and the quantized kernel is thread-count deterministic.
//!
//! The `lm.weight_pack.*` counters are process-global and every forward in
//! this file bumps them, so each test holds [`serial`]'s lock for its whole
//! body: a "no rebuild" assertion compares a counter to itself across a call
//! and must not see a sibling test's pack build in between.

use delrec_lm::{LmToken, MiniLm, MiniLmConfig};
use delrec_obs::MetricValue;
use delrec_par::{with_pool, ThreadPool};
use delrec_tensor::{Ctx, InferCtx, MathMode, Tape, Tensor};

/// One test of this binary at a time (see the module docs). A sibling's
/// failed assertion must not cascade, so a poisoned lock is still taken.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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

fn test_model() -> (MiniLm, Vec<Vec<LmToken>>, Vec<usize>) {
    let mut cfg = MiniLmConfig::large(60);
    cfg.dropout = 0.0;
    let lm = MiniLm::new(cfg, 23);
    let seqs = vec![
        toks(&[5, 6, 1, 7, 2, 9]),
        toks(&[5, 6, 1, 3]),
        toks(&[5, 6, 1, 8, 4]),
    ];
    let mask_pos = vec![5usize, 3, 4];
    (lm, seqs, mask_pos)
}

fn score(lm: &MiniLm, ic: &InferCtx, seqs: &[Vec<LmToken>], mask_pos: &[usize]) -> Tensor {
    lm.mask_logits_infer_batch(ic, seqs, None, mask_pos, None)
}

/// Exact ↔ Quantized ↔ Exact: each mode builds its own pack slot exactly
/// once, switching back hits the still-cached slot without a rebuild, and
/// exact scores come back bitwise identical to the tape reference.
#[test]
fn mode_switch_rebuilds_the_right_pack_and_exact_stays_on_tape() {
    let _serial = serial();
    let (lm, seqs, mask_pos) = test_model();
    let exact = InferCtx::new(MathMode::Exact);
    let quant = InferCtx::new(MathMode::Quantized);

    // Tape reference for the exact scores.
    let tape = Tape::new();
    let ctx = Ctx::new(&tape, lm.store(), false);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
    let want = tape.get(lm.mask_logits_batch(&ctx, &seqs, None, &mask_pos, &mut rng));

    let b0 = counter("lm.weight_pack.build");
    let q0 = counter("lm.weight_pack.build_q8");
    let exact_scores = score(&lm, &exact, &seqs, &mask_pos);
    assert!(
        counter("lm.weight_pack.build") > b0,
        "first exact forward must build the f32 pack"
    );
    assert_eq!(
        counter("lm.weight_pack.build_q8"),
        q0,
        "exact forward must not touch the q8 slot"
    );
    assert_eq!(
        exact_scores.data(),
        want.data(),
        "exact engine must mirror the tape bitwise"
    );

    // Switch to quantized: builds the q8 slot, leaves the f32 slot alone.
    let b1 = counter("lm.weight_pack.build");
    let quant_scores = score(&lm, &quant, &seqs, &mask_pos);
    assert!(
        counter("lm.weight_pack.build_q8") > q0,
        "first quantized forward must build the q8 pack"
    );
    assert_eq!(
        counter("lm.weight_pack.build"),
        b1,
        "quantized forward must not rebuild the f32 slot"
    );

    // Switch back: the f32 slot is still valid — a hit, not a rebuild — and
    // the scores reproduce the tape bit for bit again.
    let b2 = counter("lm.weight_pack.build");
    let q2 = counter("lm.weight_pack.build_q8");
    let h2 = counter("lm.weight_pack.hit");
    let back = score(&lm, &exact, &seqs, &mask_pos);
    assert_eq!(counter("lm.weight_pack.build"), b2, "no f32 rebuild");
    assert_eq!(counter("lm.weight_pack.build_q8"), q2, "no q8 rebuild");
    assert!(counter("lm.weight_pack.hit") > h2, "f32 slot must hit");
    assert_eq!(
        back.data(),
        want.data(),
        "exact scores after a quantized round-trip must stay on the tape"
    );

    // And the q8 slot survives too.
    let hq = counter("lm.weight_pack.hit_q8");
    let again = score(&lm, &quant, &seqs, &mask_pos);
    assert!(counter("lm.weight_pack.hit_q8") > hq, "q8 slot must hit");
    assert_eq!(
        again.data(),
        quant_scores.data(),
        "cached q8 pack changes nothing"
    );
}

/// Quantizing the weights perturbs each panel column by at most
/// maxabs/254, so the logits must move — proving the int8 path actually
/// runs — but only slightly.
#[test]
fn quantized_logits_stay_close_to_exact() {
    let _serial = serial();
    let (lm, seqs, mask_pos) = test_model();
    let exact_scores = score(&lm, &InferCtx::new(MathMode::Exact), &seqs, &mask_pos);
    let quant_scores = score(&lm, &InferCtx::new(MathMode::Quantized), &seqs, &mask_pos);
    assert_eq!(exact_scores.data().len(), quant_scores.data().len());
    let mut max_abs = 0.0f32;
    for (&e, &q) in exact_scores.data().iter().zip(quant_scores.data()) {
        assert!(q.is_finite(), "quantized logits must stay finite");
        max_abs = max_abs.max((e - q).abs());
    }
    assert!(max_abs > 0.0, "int8 panels must actually change the bits");
    assert!(
        max_abs < 0.5,
        "quantized logits drifted {max_abs} from exact — far beyond the \
         per-weight 1/254 quantization error propagated through one layer"
    );
}

/// A parameter write invalidates *both* pack slots independently.
#[test]
fn version_bump_invalidates_both_slots() {
    let _serial = serial();
    let (mut lm, seqs, mask_pos) = test_model();
    let exact = InferCtx::new(MathMode::Exact);
    let quant = InferCtx::new(MathMode::Quantized);
    let before_exact = score(&lm, &exact, &seqs, &mask_pos);
    let before_quant = score(&lm, &quant, &seqs, &mask_pos);

    let id = lm.store().id_of("lm.b0.h0.wq").unwrap();
    lm.store_mut().get_mut(id).data_mut()[0] += 0.5;

    let b = counter("lm.weight_pack.build");
    let q = counter("lm.weight_pack.build_q8");
    let after_exact = score(&lm, &exact, &seqs, &mask_pos);
    let after_quant = score(&lm, &quant, &seqs, &mask_pos);
    assert!(
        counter("lm.weight_pack.build") > b,
        "stale f32 slot repacks"
    );
    assert!(
        counter("lm.weight_pack.build_q8") > q,
        "stale q8 slot repacks"
    );
    assert_ne!(before_exact.data(), after_exact.data());
    assert_ne!(before_quant.data(), after_quant.data());
}

/// Quantized scoring is bitwise identical at every thread count: the q8
/// parallel driver mirrors the f32 one, redistributing disjoint output
/// regions without changing any element's accumulation order.
#[test]
fn quantized_scores_are_thread_count_deterministic() {
    let _serial = serial();
    let (lm, seqs, mask_pos) = test_model();
    let ic = InferCtx::new(MathMode::Quantized);
    let serial = ThreadPool::new(1);
    let want = with_pool(&serial, || score(&lm, &ic, &seqs, &mask_pos));
    for lanes in [2usize, 4, 8] {
        let pool = ThreadPool::new(lanes);
        let got = with_pool(&pool, || score(&lm, &ic, &seqs, &mask_pos));
        assert_eq!(
            want.data(),
            got.data(),
            "quantized logits diverged at {lanes} lanes"
        );
    }
}
