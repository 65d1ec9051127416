//! The batched-retrieval pin: `retrieve_batch` / `retrieve_batch_each` are
//! bitwise identical to looping the sequential single-query `retrieve` — at
//! every thread count, batch size, retrieval depth (including deeper than
//! the catalog), and over ragged batches including empty histories.
//! Batching is a bandwidth knob, never a numerics knob.

use delrec_data::ItemId;
use delrec_par::{with_pool, ThreadPool};
use delrec_retrieval::{IndexFormat, ItemIndex, Retriever};
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

fn ranked_bits(ranked: &[(ItemId, f32)]) -> Vec<(u32, u32)> {
    ranked.iter().map(|&(id, s)| (id.0, s.to_bits())).collect()
}

/// Ragged histories, deterministically derived from a seed: lengths vary 0
/// (cold start) through 12, ids include out-of-catalog ones (skipped by the
/// encoder).
fn ragged_histories(seed: u64, b: usize, n_items: usize) -> Vec<Vec<ItemId>> {
    (0..b)
        .map(|u| {
            let len = (u + seed as usize) % 13;
            (0..len)
                .map(|i| ItemId(((seed as usize + u * 613 + i * 97) % (n_items + 3)) as u32))
                .collect()
        })
        .collect()
}

#[test]
fn batched_scan_matches_sequential_bitwise_across_threads() {
    // Catalog big enough that the scan's parallel driver engages.
    let (n_items, dim) = (4096, 32);
    let emb = fill(0xBA7C4, n_items * dim);
    let idx = ItemIndex::build(emb, dim, 0);
    for b in [1usize, 3, 32] {
        let queries = fill(b as u64 + 9, b * dim);
        for &t in &THREADS {
            let pool = ThreadPool::new(t);
            with_pool(&pool, || {
                let batch = idx.scan_batch(&queries, b);
                for i in 0..b {
                    let single = idx.scan(&queries[i * dim..(i + 1) * dim]);
                    let batch_bits: Vec<u32> = batch[i * n_items..(i + 1) * n_items]
                        .iter()
                        .map(|s| s.to_bits())
                        .collect();
                    let single_bits: Vec<u32> = single.iter().map(|s| s.to_bits()).collect();
                    assert_eq!(
                        batch_bits, single_bits,
                        "row {i} of {b} diverged at {t} threads"
                    );
                }
            });
        }
    }
}

#[test]
fn retrieve_batch_spanning_multiple_scan_blocks_matches_sequential() {
    // 150 histories > the 128-row scan block: the blocked path must stitch
    // rows across block boundaries without touching a bit.
    let (n_items, dim, b) = (512, 16, 150);
    let emb = fill(0xB10C, n_items * dim);
    let r = Retriever::build(emb, dim, 0, IndexFormat::F32);
    let histories = ragged_histories(5, b, n_items);
    let refs: Vec<&[ItemId]> = histories.iter().map(|h| h.as_slice()).collect();
    let batch = r.retrieve_batch(&refs, 20);
    assert_eq!(batch.len(), b);
    for (i, h) in histories.iter().enumerate() {
        assert_eq!(
            ranked_bits(&batch[i]),
            ranked_bits(&r.retrieve(h, 20)),
            "row {i} diverged across the block boundary"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline pin: ragged batches (empty histories included), per-row
    /// depths larger than the catalog, every thread count.
    #[test]
    fn retrieve_batch_each_is_bitwise_sequential(
        n_items in 16usize..200,
        dim in 1usize..16,
        b in 0usize..12,
        seed in 0u64..1 << 20,
    ) {
        let emb = fill(seed, n_items * dim);
        let r = Retriever::build(emb, dim, 0, IndexFormat::F32);
        let histories = ragged_histories(seed, b, n_items);
        let refs: Vec<&[ItemId]> = histories.iter().map(|h| h.as_slice()).collect();
        // Depths sweep past the catalog size (k > retrieve_n upstream maps
        // to n > n_items here).
        let ns: Vec<usize> = (0..b).map(|i| 1 + (seed as usize + i * 31) % (2 * n_items)).collect();
        let serial = ThreadPool::new(1);
        let want: Vec<_> = with_pool(&serial, || {
            histories
                .iter()
                .zip(&ns)
                .map(|(h, &n)| ranked_bits(&r.retrieve(h, n)))
                .collect()
        });
        for &t in &THREADS {
            let pool = ThreadPool::new(t);
            let got: Vec<_> = with_pool(&pool, || {
                r.retrieve_batch_each(&refs, &ns)
                    .iter()
                    .map(|row| ranked_bits(row))
                    .collect()
            });
            prop_assert_eq!(&want, &got, "diverged at {} threads", t);
        }
    }

    /// Uniform-depth wrapper agrees with the per-depth path.
    #[test]
    fn retrieve_batch_matches_each_with_uniform_depth(
        n_items in 16usize..120,
        b in 1usize..8,
        n in 1usize..40,
        seed in 0u64..1 << 20,
    ) {
        let dim = 8;
        let emb = fill(seed, n_items * dim);
        let r = Retriever::build(emb, dim, 0, IndexFormat::F32);
        let histories = ragged_histories(seed, b, n_items);
        let refs: Vec<&[ItemId]> = histories.iter().map(|h| h.as_slice()).collect();
        let ns = vec![n; b];
        let uniform: Vec<_> = r.retrieve_batch(&refs, n).iter().map(|x| ranked_bits(x)).collect();
        let each: Vec<_> = r.retrieve_batch_each(&refs, &ns).iter().map(|x| ranked_bits(x)).collect();
        prop_assert_eq!(uniform, each);
    }
}
