//! The streamed-retrieval pin: the request path (`Retriever::retrieve*`,
//! which walks the index tile by tile and never holds a score row) is
//! bitwise the materialised reference `top_k(index.scan(encode(h)), n)` —
//! both index formats, pool lanes {1, 2, 4, 8}, batches spanning two row
//! blocks, ragged and empty histories, depths past the catalog size, and
//! catalogs that are a multiple of neither the tile nor the panel width.

use delrec::data::ItemId;
use delrec::par::{with_pool, ThreadPool};
use delrec::retrieval::{sort_ranked, top_k, IndexFormat, Retriever, TopKSelector};
use proptest::prelude::*;

const LANES: [usize; 4] = [1, 2, 4, 8];
const FORMATS: [IndexFormat; 2] = [IndexFormat::F32, IndexFormat::Q8];

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

fn bits(ranked: &[(ItemId, f32)]) -> Vec<(u32, u32)> {
    ranked.iter().map(|&(id, s)| (id.0, s.to_bits())).collect()
}

/// Histories of length 0 (cold start) through 12, with some out-of-catalog
/// ids (skipped by the encoder).
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

/// Depths cycling through shallow, the serving default, and past the catalog.
fn depths(b: usize, n_items: usize) -> Vec<usize> {
    (0..b).map(|i| [1, 10, 100, n_items + 7][i % 4]).collect()
}

/// The materialised reference: one full score row per history, then the
/// free `top_k` over it, on a one-lane pool.
fn reference(r: &Retriever, histories: &[Vec<ItemId>], ns: &[usize]) -> Vec<Vec<(u32, u32)>> {
    with_pool(&ThreadPool::new(1), || {
        histories
            .iter()
            .zip(ns)
            .map(|(h, &n)| bits(&top_k(&r.index().scan(&r.encoder().encode(h)), n)))
            .collect()
    })
}

/// Assert the fused batch call equals `want` at every lane count.
fn assert_fused_matches(
    r: &Retriever,
    histories: &[Vec<ItemId>],
    ns: &[usize],
    want: &[Vec<(u32, u32)>],
    what: &str,
) {
    let refs: Vec<&[ItemId]> = histories.iter().map(|h| h.as_slice()).collect();
    for lanes in LANES {
        let got: Vec<_> = with_pool(&ThreadPool::new(lanes), || {
            r.retrieve_batch_each(&refs, ns)
                .iter()
                .map(|row| bits(row))
                .collect()
        });
        assert_eq!(want, got.as_slice(), "{what}: diverged at {lanes} lanes");
    }
}

#[test]
fn fused_matches_reference_at_fixed_awkward_shapes() {
    // (n_items, dim, batch): under one panel, under one tile, one item past
    // a tile, and a solo query over a catalog large enough that it forks.
    for (n_items, dim, b) in [
        (5, 3, 5),
        (37, 8, 32),
        (1025, 16, 130),
        (3001, 7, 5),
        (9001, 16, 1),
    ] {
        for format in FORMATS {
            let r = Retriever::build(fill(n_items as u64, n_items * dim), dim, 0, format);
            let histories = ragged_histories(n_items as u64 + 1, b, n_items);
            let ns = depths(b, n_items);
            let want = reference(&r, &histories, &ns);
            let what = format!("{format:?} {n_items}x{dim} B={b}");
            assert_fused_matches(&r, &histories, &ns, &want, &what);
            // Solo is the batch path with one row.
            for (h, (&n, want)) in histories.iter().zip(ns.iter().zip(&want)).take(4) {
                assert_eq!(&bits(&r.retrieve(h, n)), want, "{what}: solo");
            }
        }
    }
}

#[test]
fn all_zero_query_ties_everywhere_and_ranks_by_id() {
    let (n_items, dim) = (2500, 8);
    for format in FORMATS {
        let r = Retriever::build(fill(7, n_items * dim), dim, 0, format);
        for lanes in LANES {
            let got = with_pool(&ThreadPool::new(lanes), || r.retrieve(&[], 100));
            let want: Vec<(u32, u32)> = (0..100).map(|id| (id, 0.0f32.to_bits())).collect();
            assert_eq!(bits(&got), want, "{format:?} at {lanes} lanes");
        }
    }
}

#[test]
fn selector_is_exact_on_nan_and_signed_zero_rows() {
    // What a scan never produces but the selector must still order exactly:
    // both NaN signs (above +inf and below -inf under `total_cmp`), -0.0
    // against 0.0, infinities, and wide plateaus.
    let specials = [
        f32::NAN,
        -f32::NAN,
        -0.0,
        0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    let mut row: Vec<f32> = fill(99, 3000)
        .into_iter()
        .map(|v| (v * 4.0).round() / 4.0)
        .collect();
    for (i, j) in (0..row.len()).step_by(41).enumerate() {
        row[j] = specials[i % specials.len()];
    }
    let mut sorted: Vec<(ItemId, f32)> = row
        .iter()
        .enumerate()
        .map(|(j, &s)| (ItemId(j as u32), s))
        .collect();
    sort_ranked(&mut sorted);
    for k in [1, 10, 100, 3000] {
        let want = bits(&sorted[..k]);
        assert_eq!(bits(&top_k(&row, k)), want, "one tile, k {k}");
        // Tile by tile into two alternating "lanes", merged per row.
        let (mut even, mut odd) = (TopKSelector::new(k), TopKSelector::new(k));
        for (t, tile) in row.chunks(1024).enumerate() {
            let lane = if t % 2 == 0 { &mut even } else { &mut odd };
            lane.push_tile((t * 1024) as u32, tile);
        }
        odd.merge(&mut even);
        assert_eq!(bits(&odd.finish()), want, "merged lanes, k {k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fused_retrieve_batch_each_is_bitwise_the_materialised_reference(
        n_items in 900usize..4200,
        dim in 3usize..20,
        b in prop_oneof![Just(1usize), Just(5), Just(32), Just(130)],
        seed in 0u64..1 << 20,
        q8 in prop_oneof![Just(false), Just(true)],
    ) {
        let format = if q8 { IndexFormat::Q8 } else { IndexFormat::F32 };
        let r = Retriever::build(fill(seed, n_items * dim), dim, 0, format);
        let histories = ragged_histories(seed, b, n_items);
        let ns = depths(b, n_items);
        let want = reference(&r, &histories, &ns);
        let what = format!("{format:?} {n_items}x{dim} B={b} seed {seed}");
        assert_fused_matches(&r, &histories, &ns, &want, &what);
    }
}
