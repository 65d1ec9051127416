//! Deterministic top-k selection over catalog scores, streamed tile by tile.
//!
//! The ordering is total and explicit: higher score first, and *bitwise
//! equal* scores break toward the smaller [`ItemId`]. Comparison uses
//! [`f32::total_cmp`], so `-0.0 < 0.0` and NaN ordering are pinned rather
//! than left to `partial_cmp`'s mercy — given a bitwise-deterministic score
//! row (which the index scan guarantees at every thread count), the selected
//! list is bitwise identical run to run and lane count to lane count.

use delrec_data::ItemId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// `(score, item)` with the *reversed* retrieval order, so the max-heap's
/// root is the worst element currently kept — a classic bounded top-k heap.
#[derive(Clone, Copy, PartialEq)]
struct Worst(f32, u32);

impl Eq for Worst {}

impl PartialOrd for Worst {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Worst {
    fn cmp(&self, other: &Self) -> Ordering {
        // Lower score = "greater" (worse); on equal bits, higher id = worse.
        other
            .0
            .total_cmp(&self.0)
            .then_with(|| self.1.cmp(&other.1))
    }
}

/// Bounded best-`k` selector over a stream of score tiles — the one
/// selection routine of this crate. The streamed catalog scan feeds it one
/// `[tile]` block at a time per query row; the free [`top_k`] is the same
/// selector fed a whole row as one tile.
///
/// Most scores of a large catalog lose to the `k`-th best seen so far, so
/// [`push_tile`](Self::push_tile) rejects them with one IEEE compare,
/// `s < threshold`, where `threshold` is the worst kept score (`-inf` until
/// `k` are kept, so nothing is rejected early). The prefilter is exact:
/// `<` is true only for two non-NaN floats in strict numeric order, which
/// implies [`f32::total_cmp`] `Less`, i.e. the candidate is worse than the
/// worst kept entry whatever its id. Everything `<` cannot decide — NaN,
/// `-0.0` against `0.0`, bitwise ties — falls through to the exact `Worst`
/// comparison. The kept set is therefore the top `k` under the total order,
/// which does not depend on the order tiles arrive in: selectors fed
/// disjoint tile ranges [`merge`](Self::merge) into the selection a single
/// one would have made.
pub struct TopKSelector {
    heap: BinaryHeap<Worst>,
    k: usize,
    threshold: f32,
    admitted: u64,
}

impl TopKSelector {
    /// Selector keeping the best `k` of whatever is pushed. Callers clamp
    /// `k` to the number of scores they will push (storage for `k` entries
    /// is reserved up front).
    pub fn new(k: usize) -> Self {
        TopKSelector {
            heap: BinaryHeap::with_capacity(k),
            k,
            threshold: f32::NEG_INFINITY,
            admitted: 0,
        }
    }

    /// Offer `scores[j]` as the score of item `first + j`, for every `j`.
    pub fn push_tile(&mut self, first: u32, scores: &[f32]) {
        let mut threshold = self.threshold;
        for (j, &s) in scores.iter().enumerate() {
            if s < threshold {
                continue;
            }
            if self.offer(Worst(s, first + j as u32)) {
                self.admitted += 1;
                threshold = self.threshold;
            }
        }
    }

    /// Exact admission step: keep `cand` if fewer than `k` are kept or it
    /// beats the worst kept entry under the total order. Returns whether it
    /// entered the heap.
    fn offer(&mut self, cand: Worst) -> bool {
        if self.heap.len() < self.k {
            self.heap.push(cand);
        } else {
            match self.heap.peek_mut() {
                Some(mut worst) if cand < *worst => *worst = cand,
                _ => return false, // not better, or k == 0
            }
        }
        if self.heap.len() == self.k {
            self.threshold = self.heap.peek().expect("k > 0 entries kept").0;
        }
        true
    }

    /// Fold in everything `other` kept, leaving it empty. Top-`k` of a union
    /// is the top-`k` of the parts' top-`k`s, so merging selectors that saw
    /// disjoint items equals one selector that saw them all.
    pub fn merge(&mut self, other: &mut TopKSelector) {
        for cand in other.heap.drain() {
            self.offer(cand);
        }
        other.threshold = f32::NEG_INFINITY;
    }

    /// Scores that passed the threshold *and* entered the heap through
    /// [`push_tile`](Self::push_tile) so far — the selector's useful work,
    /// against one cheap compare for every score pushed.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// The kept items, best first; ties in score order by ascending
    /// [`ItemId`]. Leaves the selector empty.
    pub fn finish(&mut self) -> Vec<(ItemId, f32)> {
        // Heap-internal layout is not a contract; sort the survivors with
        // the same total order, best first.
        let mut out: Vec<(ItemId, f32)> = self
            .heap
            .drain()
            .map(|Worst(s, j)| (ItemId(j), s))
            .collect();
        self.threshold = f32::NEG_INFINITY;
        sort_ranked(&mut out);
        out
    }
}

/// The `k` best-scoring items of `scores` (item `j`'s score at index `j`),
/// best first; ties in score order by ascending [`ItemId`]. Returns fewer
/// than `k` entries only when the catalog itself is smaller than `k`.
///
/// This is the materialised reference — a whole score row pushed through a
/// [`TopKSelector`] as one tile. Request paths never build the row: see
/// [`ItemIndex::scan_top_k`](crate::ItemIndex::scan_top_k).
pub fn top_k(scores: &[f32], k: usize) -> Vec<(ItemId, f32)> {
    let _span = delrec_obs::span!("retrieval.topk");
    let mut selector = TopKSelector::new(k.min(scores.len()));
    selector.push_tile(0, scores);
    selector.finish()
}

/// Sort `(item, score)` pairs best-first under the retrieval order: score
/// descending via [`f32::total_cmp`], ties toward the smaller [`ItemId`].
/// Shared by [`top_k`] and re-ranking callers that score a candidate subset.
pub fn sort_ranked(ranked: &mut [(ItemId, f32)]) {
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0 .0.cmp(&b.0 .0)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_best_scores_in_order() {
        let scores = [0.1, 0.9, -0.3, 0.5, 0.7];
        let got = top_k(&scores, 3);
        assert_eq!(
            got,
            vec![(ItemId(1), 0.9), (ItemId(4), 0.7), (ItemId(3), 0.5)]
        );
    }

    #[test]
    fn equal_scores_break_toward_smaller_item_id() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let got = top_k(&scores, 2);
        assert_eq!(got, vec![(ItemId(0), 0.5), (ItemId(1), 0.5)]);
        // Including the boundary: the last kept and first dropped are tied,
        // and the *smaller id* is kept.
        let got = top_k(&[0.9, 0.5, 0.5, 0.5], 2);
        assert_eq!(got, vec![(ItemId(0), 0.9), (ItemId(1), 0.5)]);
    }

    #[test]
    fn negative_zero_orders_below_positive_zero() {
        let got = top_k(&[-0.0, 0.0], 2);
        assert_eq!(got[0], (ItemId(1), 0.0));
        assert_eq!(got[1], (ItemId(0), -0.0));
    }

    #[test]
    fn k_larger_than_catalog_returns_everything() {
        let got = top_k(&[0.2, 0.8], 10);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, ItemId(1));
    }

    #[test]
    fn k_zero_and_empty_scores_are_empty() {
        assert!(top_k(&[0.5], 0).is_empty());
        assert!(top_k(&[], 3).is_empty());
    }

    /// Full-sort reference under the documented total order.
    fn brute_force(scores: &[f32], k: usize) -> Vec<(ItemId, f32)> {
        let mut all: Vec<(ItemId, f32)> = scores
            .iter()
            .enumerate()
            .map(|(j, &s)| (ItemId(j as u32), s))
            .collect();
        sort_ranked(&mut all);
        all.truncate(k);
        all
    }

    fn bits(ranked: &[(ItemId, f32)]) -> Vec<(u32, u32)> {
        ranked.iter().map(|&(id, s)| (id.0, s.to_bits())).collect()
    }

    /// A row where `<` alone cannot order things: both NaN signs, both
    /// zeros, infinities and plateaus.
    fn awkward_row() -> Vec<f32> {
        let specials = [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.25,
            0.25,
            -0.5,
        ];
        (0..200).map(|j| specials[(j * 7 + j / 9) % 9]).collect()
    }

    #[test]
    fn prefilter_is_exact_on_nan_signed_zero_and_ties() {
        let row = awkward_row();
        for k in [0, 1, 2, 5, 40, 199, 200, 500] {
            let want = brute_force(&row, k);
            assert_eq!(bits(&top_k(&row, k)), bits(&want), "k {k}");
        }
    }

    #[test]
    fn tiles_in_any_split_and_merged_lanes_match_one_pass() {
        let row = awkward_row();
        for k in [1, 7, 64] {
            let want = bits(&top_k(&row, k));
            for tile in [1, 8, 33, 200] {
                // One selector, tile by tile.
                let mut one = TopKSelector::new(k);
                for (t, chunk) in row.chunks(tile).enumerate() {
                    one.push_tile((t * tile) as u32, chunk);
                }
                assert!(one.admitted() >= k as u64 && one.admitted() <= row.len() as u64);
                assert_eq!(bits(&one.finish()), want, "k {k} tile {tile}");
                // Two "lanes" over alternating tiles, merged either way.
                for swap in [false, true] {
                    let (mut a, mut b) = (TopKSelector::new(k), TopKSelector::new(k));
                    for (t, chunk) in row.chunks(tile).enumerate() {
                        let lane = if t % 2 == 0 { &mut a } else { &mut b };
                        lane.push_tile((t * tile) as u32, chunk);
                    }
                    if swap {
                        std::mem::swap(&mut a, &mut b);
                    }
                    a.merge(&mut b);
                    assert!(b.finish().is_empty());
                    assert_eq!(bits(&a.finish()), want, "k {k} tile {tile} swap {swap}");
                }
            }
        }
    }
}
