//! Deterministic top-k pins: equal scores order by ascending `ItemId`, and
//! the whole retrieval path — encode → full-catalog scan → top-k — is
//! bitwise identical at every thread count.
//!
//! Thread counts are pinned with `with_pool` (the same mechanism
//! `DELREC_THREADS` feeds) so one process covers {1, 2, 4, 8} lanes without
//! relying on the environment.

use delrec_data::ItemId;
use delrec_par::{with_pool, ThreadPool};
use delrec_retrieval::{top_k, IndexFormat, ItemIndex, Retriever};
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn fill(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

/// `(id, score-bits)` pairs — the bitwise identity every gate compares.
fn ranked_bits(ranked: &[(ItemId, f32)]) -> Vec<(u32, u32)> {
    ranked.iter().map(|&(id, s)| (id.0, s.to_bits())).collect()
}

/// Reference selection: full sort under the documented total order.
fn brute_force(scores: &[f32], k: usize) -> Vec<(ItemId, f32)> {
    let mut all: Vec<(ItemId, f32)> = scores
        .iter()
        .enumerate()
        .map(|(j, &s)| (ItemId(j as u32), s))
        .collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0 .0.cmp(&b.0 .0)));
    all.truncate(k);
    all
}

#[test]
fn equal_scores_order_by_item_id_unit() {
    // A plateau wider than k: the kept subset must be the smallest ids.
    let mut scores = vec![0.25f32; 64];
    scores[40] = 0.9;
    let got = top_k(&scores, 5);
    assert_eq!(got[0], (ItemId(40), 0.9));
    for (rank, &(id, s)) in got[1..].iter().enumerate() {
        assert_eq!(id, ItemId(rank as u32), "plateau must keep smallest ids");
        assert_eq!(s, 0.25);
    }
}

#[test]
fn full_retrieval_is_bitwise_identical_across_thread_counts() {
    // Catalogs big enough that the scan's parallel driver engages
    // (macs = dim · n_items ≥ 128k); 8192 × 64 is big enough that a solo
    // query forks onto all 8 lanes.
    for (n_items, dim) in [(6144, 32), (8192, 64)] {
        let emb = fill(0xC0FFEE, n_items * dim);
        let histories: Vec<Vec<ItemId>> = (0..8)
            .map(|u| {
                (0..10)
                    .map(|i| ItemId((u * 613 + i * 97) % n_items as u32))
                    .collect()
            })
            .collect();
        let r = Retriever::build(emb, dim, 7, IndexFormat::F32);
        let serial = ThreadPool::new(1);
        let want: Vec<_> = with_pool(&serial, || {
            histories
                .iter()
                .map(|h| ranked_bits(&r.retrieve(h, 100)))
                .collect()
        });
        for &t in &THREADS[1..] {
            let pool = ThreadPool::new(t);
            let got: Vec<_> = with_pool(&pool, || {
                histories
                    .iter()
                    .map(|h| ranked_bits(&r.retrieve(h, 100)))
                    .collect()
            });
            assert_eq!(
                want, got,
                "{n_items}x{dim} retrieval diverged at {t} threads"
            );
        }
    }
}

#[test]
fn scan_scores_match_serial_bitwise_at_every_thread_count() {
    let (n_items, dim) = (4096, 48);
    let idx = ItemIndex::build(fill(42, n_items * dim), dim, 0);
    let query = {
        let mut q = fill(77, dim);
        delrec_retrieval::l2_normalize_rows(&mut q, dim);
        q
    };
    let serial = ThreadPool::new(1);
    let want: Vec<u32> = with_pool(&serial, || {
        idx.scan(&query).iter().map(|s| s.to_bits()).collect()
    });
    for &t in &THREADS[1..] {
        let pool = ThreadPool::new(t);
        let got: Vec<u32> = with_pool(&pool, || {
            idx.scan(&query).iter().map(|s| s.to_bits()).collect()
        });
        assert_eq!(want, got, "scan bits diverged at {t} threads");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `top_k` equals the full-sort reference for arbitrary score rows with
    /// forced ties (scores snapped to a 16-level grid so plateaus are the
    /// common case, not a fluke).
    #[test]
    fn top_k_matches_brute_force_with_ties(
        n in 1usize..400,
        k in 0usize..50,
        seed in 0u64..1 << 20,
    ) {
        let scores: Vec<f32> = fill(seed, n)
            .into_iter()
            .map(|v| (v * 8.0).round() / 8.0)
            .collect();
        let got = top_k(&scores, k);
        let want = brute_force(&scores, k.min(n));
        prop_assert_eq!(ranked_bits(&got), ranked_bits(&want));
    }

    /// The selected list is invariant under thread count for random
    /// embedding matrices — the proptest twin of the fixed-seed gate above,
    /// on smaller shapes for case throughput.
    #[test]
    fn retrieval_thread_invariance(
        n_items in 16usize..300,
        dim in 1usize..24,
        seed in 0u64..1 << 20,
    ) {
        let emb = fill(seed, n_items * dim);
        let r = Retriever::build(emb, dim, 0, IndexFormat::F32);
        let history = vec![ItemId(0), ItemId((n_items / 2) as u32)];
        let serial = ThreadPool::new(1);
        let want = with_pool(&serial, || ranked_bits(&r.retrieve(&history, 20)));
        for &t in &THREADS[1..] {
            let pool = ThreadPool::new(t);
            let got = with_pool(&pool, || ranked_bits(&r.retrieve(&history, 20)));
            prop_assert_eq!(&want, &got, "diverged at {} threads", t);
        }
    }
}
