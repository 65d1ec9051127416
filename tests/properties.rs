//! Property-based tests over the workspace's core invariants.

use delrec::data::synthetic::{DatasetProfile, SyntheticConfig};
use delrec::data::{CandidateSampler, ItemId, Vocab};
use delrec::eval::metrics::RankingReport;
use delrec::eval::ttest::two_sided_p;
use delrec::lm::{verbalizer, LmToken, MiniLm, MiniLmConfig};
use delrec::seqrec::top_k;
use delrec::tensor::{Ctx, Tape, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The candidate sampler always returns m distinct items containing the
    /// positive, deterministically.
    #[test]
    fn candidate_sampler_invariants(
        n_items in 20usize..200,
        m in 2usize..16,
        positive in 0u32..20,
        seed in 0u64..1000,
        idx in 0usize..50,
    ) {
        let sampler = CandidateSampler::new(n_items, m);
        let c1 = sampler.candidates(ItemId(positive), seed, idx);
        let c2 = sampler.candidates(ItemId(positive), seed, idx);
        prop_assert_eq!(&c1, &c2);
        prop_assert_eq!(c1.len(), m);
        prop_assert!(c1.contains(&ItemId(positive)));
        let mut dedup = c1.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), m);
        prop_assert!(c1.iter().all(|i| i.index() < n_items));
    }

    /// HR@k is monotone in k; NDCG@k ≤ HR@k; MRR ∈ (0, 1].
    #[test]
    fn metric_relationships(ranks in prop::collection::vec(0usize..15, 1..100)) {
        let rep = RankingReport::new(ranks, 15);
        let mut prev = 0.0;
        for k in 1..=15 {
            let hr = rep.hr(k);
            prop_assert!(hr >= prev - 1e-12, "HR must be monotone in k");
            prop_assert!(rep.ndcg(k) <= hr + 1e-12, "NDCG@k ≤ HR@k");
            prev = hr;
        }
        prop_assert_eq!(rep.hr(15), 1.0);
        prop_assert!(rep.mrr() > 0.0 && rep.mrr() <= 1.0);
    }

    /// `top_k` returns indices sorted by score, descending, without
    /// duplicates.
    #[test]
    fn top_k_is_sorted_and_unique(scores in prop::collection::vec(-100f32..100.0, 1..60), k in 1usize..20) {
        let top = top_k(&scores, k);
        prop_assert_eq!(top.len(), k.min(scores.len()));
        for w in top.windows(2) {
            prop_assert!(scores[w[0].index()] >= scores[w[1].index()]);
        }
        let mut ids: Vec<_> = top.iter().map(|i| i.0).collect();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), top.len());
    }

    /// softmax rows are probability distributions for arbitrary logits.
    #[test]
    fn softmax_rows_are_distributions(data in prop::collection::vec(-30f32..30.0, 12)) {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::new([3, 4], data));
        let y = tape.get(tape.softmax(x));
        for r in 0..3 {
            let row = y.row(r);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    /// cross_entropy is non-negative and equals ln(C) for uniform logits.
    #[test]
    fn cross_entropy_bounds(c in 2usize..12, target in 0usize..12) {
        let target = target % c;
        let tape = Tape::new();
        let logits = tape.leaf(Tensor::new([1, c], vec![0.0; c]));
        let loss = tape.get(tape.cross_entropy(logits, &[target])).item();
        prop_assert!((loss - (c as f32).ln()).abs() < 1e-5);
    }

    /// Student-t p-values are valid probabilities, monotone decreasing in |t|.
    #[test]
    fn p_values_behave(t in 0.0f64..20.0, df in 2.0f64..200.0) {
        let p = two_sided_p(t, df);
        prop_assert!((0.0..=1.0).contains(&p));
        let p2 = two_sided_p(t + 1.0, df);
        prop_assert!(p2 <= p + 1e-9, "p must fall as t grows");
    }

    /// Vocabulary encode/decode round-trips for any subset of known words.
    #[test]
    fn vocab_roundtrip(idx in prop::collection::vec(0usize..5, 1..20)) {
        let words = ["alpha", "beta", "gamma", "delta", "epsilon"];
        let vocab = Vocab::build(words);
        let text: Vec<&str> = idx.iter().map(|&i| words[i]).collect();
        let joined = text.join(" ");
        let ids = vocab.encode(&joined);
        prop_assert_eq!(vocab.decode(&ids), joined);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `forward_batch` over right-padded sequences matches running each
    /// sequence through its own forward pass, within 1e-5, at every valid
    /// position — the batched == looped-single contract of the batch-first
    /// execution path.
    #[test]
    fn forward_batch_matches_per_sequence_forward(
        lens in prop::collection::vec(1usize..12, 1..5),
        seed in 0u64..1000,
    ) {
        let vocab = 40usize;
        let cfg = MiniLmConfig {
            vocab_size: vocab,
            d_model: 16,
            num_layers: 1,
            num_heads: 2,
            ffn_dim: 32,
            max_len: 16,
            dropout: 0.0,
        };
        let lm = MiniLm::new(cfg, seed);
        let mut tok_rng = StdRng::seed_from_u64(seed ^ 0x51ED);
        use rand::Rng;
        let seqs: Vec<Vec<LmToken>> = lens
            .iter()
            .map(|&l| {
                (0..l)
                    .map(|_| LmToken::Vocab(tok_rng.random_range(0..vocab as u32)))
                    .collect()
            })
            .collect();
        let tape = Tape::new();
        let ctx = Ctx::new(&tape, lm.store(), false);
        let mut rng = StdRng::seed_from_u64(0);
        let batched = tape.get(lm.forward_batch(&ctx, &seqs, None, &mut rng));
        let t_max = lens.iter().copied().max().unwrap();
        for (b, seq) in seqs.iter().enumerate() {
            let tape1 = Tape::new();
            let ctx1 = Ctx::new(&tape1, lm.store(), false);
            let mut rng1 = StdRng::seed_from_u64(0);
            let single = tape1.get(lm.forward_batch(&ctx1, std::slice::from_ref(seq), None, &mut rng1));
            for t in 0..seq.len() {
                let got = batched.row(b * t_max + t);
                let want = single.row(t);
                for (v, (g, w)) in got.iter().zip(want).enumerate() {
                    prop_assert!(
                        (g - w).abs() < 1e-5,
                        "b={b} t={t} vocab={v}: {g} vs {w}"
                    );
                }
            }
        }
    }

    /// Batched candidate scoring commutes with any permutation of the
    /// candidate order: permuting a candidate set permutes its score row the
    /// same way, independent of the other examples in the batch.
    #[test]
    fn batched_candidate_scores_commute_with_order(
        bsz in 1usize..4,
        m in 2usize..6,
        keys in prop::collection::vec(0u32..1000, 8),
        seed in 0u64..1000,
    ) {
        let vocab = 30usize;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        // Fixed-size candidate sets of 1–3-token titles per batch row.
        let sets: Vec<Vec<Vec<u32>>> = (0..bsz)
            .map(|_| {
                (0..m)
                    .map(|_| {
                        let l = rng.random_range(1..4usize);
                        (0..l).map(|_| rng.random_range(0..vocab as u32)).collect()
                    })
                    .collect()
            })
            .collect();
        let logits_data: Vec<f32> =
            (0..bsz * vocab).map(|_| rng.random_range(-3.0..3.0f32)).collect();
        // Permutation of 0..m derived from the generated keys by argsort.
        let mut perm: Vec<usize> = (0..m).collect();
        perm.sort_by_key(|&i| keys[i]);

        let score = |sets: &[Vec<Vec<u32>>]| -> Vec<Vec<f32>> {
            let tape = Tape::new();
            let logits = tape.leaf(Tensor::new([bsz, vocab], logits_data.clone()));
            let refs: Vec<&[Vec<u32>]> = sets.iter().map(|s| s.as_slice()).collect();
            let out = tape.get(verbalizer::candidate_scores_batch(&tape, logits, &refs));
            (0..bsz).map(|b| out.row(b).to_vec()).collect()
        };
        let base = score(&sets);
        let permuted_sets: Vec<Vec<Vec<u32>>> = sets
            .iter()
            .map(|s| perm.iter().map(|&i| s[i].clone()).collect())
            .collect();
        let permuted = score(&permuted_sets);
        for b in 0..bsz {
            for (j, &i) in perm.iter().enumerate() {
                prop_assert!(
                    (permuted[b][j] - base[b][i]).abs() < 1e-6,
                    "b={b}: permuted[{j}]={} vs base[{i}]={}",
                    permuted[b][j],
                    base[b][i]
                );
            }
        }
    }
}

proptest! {
    // Dataset generation is slower; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The synthetic generator always satisfies the min-interaction filter
    /// and chronological split, for any seed.
    #[test]
    fn generator_invariants(seed in 0u64..10_000) {
        let ds = SyntheticConfig::profile(DatasetProfile::MovieLens100K)
            .scaled(0.06)
            .generate(seed);
        for seq in &ds.sequences {
            prop_assert!(seq.len() >= 5);
            // Timestamps strictly increase within a user.
            for w in seq.events.windows(2) {
                prop_assert!(w[0].1 < w[1].1);
            }
        }
        use delrec::data::Split;
        let (tr, va, te) = (
            ds.examples(Split::Train).len(),
            ds.examples(Split::Val).len(),
            ds.examples(Split::Test).len(),
        );
        let total = tr + va + te;
        prop_assert!(tr >= total * 8 / 10 - 1);
        prop_assert!(va.abs_diff(total / 10) <= 1);
        // No leakage: max train ts < min test ts.
        if tr > 0 && te > 0 {
            let max_train = ds.examples(Split::Train).iter().map(|e| e.ts).max().unwrap();
            let min_test = ds.examples(Split::Test).iter().map(|e| e.ts).min().unwrap();
            prop_assert!(max_train < min_test);
        }
    }
}
