//! Batch-composition independence of the inference engine: every row of a
//! batched `mask_logits_infer_batch` call must be bitwise identical to
//! scoring that sequence alone (B=1), whatever its batchmates are.
//!
//! This is the property the serving runtime's correctness bar rests on —
//! micro-batch coalescing must never perturb a request's scores. It once
//! failed: `matmul_raw`'s four-wide accumulation made the attn·V summation
//! association depend on the batch's padded key count `kmax`, shifting low
//! bits whenever `kmax` crossed a multiple-of-four boundary relative to a
//! row's valid key count. `encode_infer` now truncates each query row's
//! attn·V product to its example-local valid keys; these tests pin that,
//! isolating each engine feature (prefix cache, soft prompts, AdaLoRA
//! adapters) that could reintroduce batch-shape dependence.

use delrec_lm::{AdaLoraConfig, LmToken, MiniLm, MiniLmConfig};
use delrec_tensor::{InferCtx, Tensor};

fn toks(ids: &[u32]) -> Vec<LmToken> {
    ids.iter().map(|&i| LmToken::Vocab(i)).collect()
}

fn diff_report(
    lm: &MiniLm,
    ic: &InferCtx,
    seqs: &[Vec<LmToken>],
    soft: Option<&Tensor>,
    mask_pos: &[usize],
    cache: Option<&delrec_lm::PrefixCache>,
    label: &str,
) -> usize {
    let batched = lm.mask_logits_infer_batch(ic, seqs, soft, mask_pos, cache);
    let vsz = batched.data().len() / seqs.len();
    let mut total = 0;
    for (i, (s, &mp)) in seqs.iter().zip(mask_pos).enumerate() {
        let solo = lm.mask_logits_infer_batch(ic, std::slice::from_ref(s), soft, &[mp], cache);
        let n = batched.data()[i * vsz..(i + 1) * vsz]
            .iter()
            .zip(solo.data())
            .filter(|(a, b)| a != b)
            .count();
        println!("{label} row {i}: {n}/{vsz} differ");
        total += n;
    }
    total
}

#[test]
fn isolate_cache_only() {
    let mut cfg = MiniLmConfig::large(60);
    cfg.dropout = 0.0;
    let lm = MiniLm::new(cfg, 7);
    let prefix = toks(&[5, 6, 1]);
    let mk = |suffix: &[u32]| {
        let mut s = prefix.clone();
        s.extend(toks(suffix));
        s
    };
    let seqs = vec![mk(&[7, 2, 9]), mk(&[3]), mk(&[8, 4, 1, 2])];
    let mask_pos = [5usize, 3, 6];
    let ic = InferCtx::default();
    let cache = lm
        .build_prefix_cache(&ic, &prefix, None)
        .expect("cacheable");
    assert_eq!(
        diff_report(&lm, &ic, &seqs, None, &mask_pos, Some(&cache), "cache-only"),
        0
    );
}

#[test]
fn isolate_soft_only() {
    let mut cfg = MiniLmConfig::large(60);
    cfg.dropout = 0.0;
    let d = cfg.d_model;
    let lm = MiniLm::new(cfg, 11);
    let soft = Tensor::new([2, d], (0..2 * d).map(|i| 0.01 * i as f32 - 0.1).collect());
    let prefix = vec![
        LmToken::Vocab(5),
        LmToken::Soft(0),
        LmToken::Soft(1),
        LmToken::Vocab(6),
    ];
    let mk = |suffix: &[u32]| {
        let mut s = prefix.clone();
        s.extend(toks(suffix));
        s
    };
    let seqs = vec![mk(&[7, 2, 9]), mk(&[3]), mk(&[8, 4, 1, 2])];
    let mask_pos = [6usize, 4, 7];
    let ic = InferCtx::default();
    assert_eq!(
        diff_report(&lm, &ic, &seqs, Some(&soft), &mask_pos, None, "soft-only"),
        0
    );
}

#[test]
fn isolate_adapters_only() {
    let mut cfg = MiniLmConfig::large(60);
    cfg.dropout = 0.0;
    let mut lm = MiniLm::new(cfg, 11);
    lm.attach_adalora(AdaLoraConfig::default(), 5);
    let mut i = 0;
    while let Some(id) = lm.store().id_of(&format!("adalora.{i}.e")) {
        for v in lm.store_mut().get_mut(id).data_mut() {
            *v = 0.3;
        }
        i += 1;
    }
    assert!(i > 0);
    let prefix = toks(&[5, 6, 1]);
    let mk = |suffix: &[u32]| {
        let mut s = prefix.clone();
        s.extend(toks(suffix));
        s
    };
    let seqs = vec![mk(&[7, 2, 9]), mk(&[3]), mk(&[8, 4, 1, 2])];
    let mask_pos = [5usize, 3, 6];
    let ic = InferCtx::default();
    assert_eq!(
        diff_report(&lm, &ic, &seqs, None, &mask_pos, None, "adapters-only"),
        0
    );
}

#[test]
fn batched_rows_match_single_rows_with_cache_soft_and_adapters() {
    let mut cfg = MiniLmConfig::large(60);
    cfg.dropout = 0.0;
    let d = cfg.d_model;
    let mut lm = MiniLm::new(cfg, 11);
    lm.attach_adalora(AdaLoraConfig::default(), 5);
    let mut i = 0;
    while let Some(id) = lm.store().id_of(&format!("adalora.{i}.e")) {
        for v in lm.store_mut().get_mut(id).data_mut() {
            *v = 0.3;
        }
        i += 1;
    }
    assert!(i > 0);
    let soft = Tensor::new([2, d], (0..2 * d).map(|i| 0.01 * i as f32 - 0.1).collect());
    let prefix = vec![
        LmToken::Vocab(5),
        LmToken::Soft(0),
        LmToken::Soft(1),
        LmToken::Vocab(6),
    ];
    let mk = |suffix: &[u32]| {
        let mut s = prefix.clone();
        s.extend(toks(suffix));
        s
    };
    let seqs = vec![mk(&[7, 2, 9]), mk(&[3]), mk(&[8, 4, 1, 2])];
    let mask_pos = [6usize, 4, 7];
    let ic = InferCtx::default();
    let cache = lm
        .build_prefix_cache(&ic, &prefix, Some(&soft))
        .expect("cacheable");
    let batched = lm.mask_logits_infer_batch(&ic, &seqs, Some(&soft), &mask_pos, Some(&cache));
    let vsz = batched.data().len() / seqs.len();
    for (i, (s, &mp)) in seqs.iter().zip(&mask_pos).enumerate() {
        let solo = lm.mask_logits_infer_batch(
            &ic,
            std::slice::from_ref(s),
            Some(&soft),
            &[mp],
            Some(&cache),
        );
        let n_diff = batched.data()[i * vsz..(i + 1) * vsz]
            .iter()
            .zip(solo.data())
            .filter(|(a, b)| a != b)
            .count();
        println!("cache+soft+adapters row {i}: {n_diff}/{vsz} differ");
        assert_eq!(n_diff, 0, "row {i} differs");
    }
}

#[test]
fn batched_rows_match_single_rows_bitwise() {
    let mut cfg = MiniLmConfig::large(60);
    cfg.dropout = 0.0;
    let lm = MiniLm::new(cfg, 7);
    let seqs = vec![
        toks(&[5, 6, 1, 7, 2, 9]),
        toks(&[5, 6, 1, 3]),
        toks(&[5, 6, 1, 8, 4]),
    ];
    let mask_pos = [5usize, 3, 4];
    let ic = InferCtx::default();
    let batched = lm.mask_logits_infer_batch(&ic, &seqs, None, &mask_pos, None);
    let vsz = batched.data().len() / seqs.len();
    for (i, (s, &mp)) in seqs.iter().zip(&mask_pos).enumerate() {
        let solo = lm.mask_logits_infer_batch(&ic, std::slice::from_ref(s), None, &[mp], None);
        let row = &batched.data()[i * vsz..(i + 1) * vsz];
        let n_diff = row.iter().zip(solo.data()).filter(|(a, b)| a != b).count();
        let max_diff = row
            .iter()
            .zip(solo.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        println!("row {i}: {n_diff}/{vsz} elements differ, max {max_diff:e}");
        assert_eq!(n_diff, 0, "row {i} differs");
    }
}
