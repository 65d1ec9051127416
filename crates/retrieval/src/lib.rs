//! Full-catalog candidate generation for DELRec.
//!
//! The missing production stage in the paper's protocol: instead of scoring
//! an oracle-provided candidate set, [`Retriever`] scans *every* item — LLM
//! (MiniLM) item embeddings, L2-normalized and repacked into the blocked
//! GEMM panel layout ([`ItemIndex`]) — against a query vector aggregated
//! from the user's history ([`UserEncoder`]), keeping each query's best
//! candidates as the scores stream by ([`TopKSelector`]). DELRec re-ranks
//! the survivors upstream (see `delrec-core`'s `Recommender`).
//!
//! Design invariants, shared with every kernel in this workspace:
//!
//! * **Bitwise thread-count determinism.** Every score is the packed GEMM
//!   kernel's fixed k-order dot product, whichever tile or lane computes it,
//!   and selection keeps the best `n` under a total order
//!   ([`f32::total_cmp`], ties toward the smaller `ItemId`), which no visiting
//!   order can change. Identical input → identical candidate lists at
//!   `DELREC_THREADS` 1 or 64.
//! * **Exactness.** Brute force, not ANN: the scan's own recall is 1.0, so
//!   end-to-end recall measures the *embeddings*, not an index structure.
//! * **One build per parameter version.** [`ItemIndex`] carries the
//!   parameter-store version it was exported from; callers cache it and
//!   rebuild when the version moves — same contract as the LM weight-pack
//!   cache.

#![warn(missing_docs)]

pub mod encoder;
pub mod index;
pub mod topk;

pub use encoder::{UserEncoder, DEFAULT_DECAY};
pub use index::{l2_normalize_rows, IndexFormat, ItemIndex};
pub use topk::{sort_ranked, top_k, TopKSelector};

use delrec_data::ItemId;

/// Queries per streamed pass in [`Retriever::retrieve_batch_each`]: bounds
/// the encoded `[rows, dim]` query block and each lane's `[rows, tile]`
/// score block (512 KB of f32 at 128 rows — L2-resident) no matter how large
/// a batch callers hand in. Blocking is invisible in the output: each row's
/// scan and selection depend only on that row.
const SCAN_BLOCK_ROWS: usize = 128;

/// Index + encoder composed into the retrieval stage: history in,
/// best-first `(item, score)` candidates out.
pub struct Retriever {
    index: ItemIndex,
    encoder: UserEncoder,
}

impl Retriever {
    /// Build both stages from one row-major `[n_items, dim]` embedding
    /// matrix exported at parameter-store version `version`. `_format` is
    /// ignored: [`IndexFormat`] has one variant, and the argument goes with
    /// it (ROADMAP 5(d)).
    pub fn build(embeddings: Vec<f32>, dim: usize, version: u64, _format: IndexFormat) -> Self {
        let encoder = UserEncoder::new(embeddings.clone(), dim);
        let index = ItemIndex::build(embeddings, dim, version);
        Retriever { index, encoder }
    }

    /// The packed index (size, version, bytes).
    pub fn index(&self) -> &ItemIndex {
        &self.index
    }

    /// The query encoder.
    pub fn encoder(&self) -> &UserEncoder {
        &self.encoder
    }

    /// Retrieve the `n` best-scoring candidates for a user history (oldest
    /// first), best first. Returns the whole catalog ranked when
    /// `n >= catalog size`. This *is* the batch path with one row.
    pub fn retrieve(&self, history: &[ItemId], n: usize) -> Vec<(ItemId, f32)> {
        self.retrieve_batch_each(&[history], &[n])
            .pop()
            .expect("one row per history")
    }

    /// Retrieve candidates for `B` histories through **one** pass over the
    /// catalog: all queries are encoded into a `[B, dim]` matrix and scored
    /// tile by tile ([`ItemIndex::scan_top_k`]), so the packed item panels
    /// stream from memory once for the whole batch instead of once per user,
    /// and no `[B, n_items]` score matrix ever exists. Row `i` depends only
    /// on `histories[i]` — at every thread count and batch size — because
    /// each output score's accumulation order and each row's top-k selection
    /// depend only on that row's own query.
    pub fn retrieve_batch(&self, histories: &[&[ItemId]], n: usize) -> Vec<Vec<(ItemId, f32)>> {
        let ns = vec![n; histories.len()];
        self.retrieve_batch_each(histories, &ns)
    }

    /// [`retrieve_batch`](Self::retrieve_batch) with a per-history retrieval
    /// depth (`ns[i]` candidates for `histories[i]`). The scan cost is
    /// independent of the depths — one pass covers the batch regardless —
    /// so mixed-depth callers (e.g. a serving batch coalescing requests with
    /// different `k`) still share the panel traversal.
    pub fn retrieve_batch_each(
        &self,
        histories: &[&[ItemId]],
        ns: &[usize],
    ) -> Vec<Vec<(ItemId, f32)>> {
        assert_eq!(histories.len(), ns.len(), "one depth per history");
        let dim = self.index.dim();
        let mut out = Vec::with_capacity(histories.len());
        let mut queries = vec![0.0f32; histories.len().min(SCAN_BLOCK_ROWS) * dim];
        for (histories, ns) in histories
            .chunks(SCAN_BLOCK_ROWS)
            .zip(ns.chunks(SCAN_BLOCK_ROWS))
        {
            let queries = &mut queries[..histories.len() * dim];
            for (h, query) in histories.iter().zip(queries.chunks_exact_mut(dim)) {
                self.encoder.encode_into(h, query);
            }
            out.extend(self.index.scan_top_k(queries, ns));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retrieve_ranks_the_history_neighborhood_first() {
        // Three well-separated directions; history in direction 0.
        let emb = vec![
            1.0, 0.0, 0.0, //
            0.9, 0.1, 0.0, //
            0.0, 1.0, 0.0, //
            0.0, 0.0, 1.0, //
        ];
        let r = Retriever::build(emb, 3, 0, IndexFormat::F32);
        let got = r.retrieve(&[ItemId(0)], 2);
        assert_eq!(got[0].0, ItemId(0));
        assert_eq!(got[1].0, ItemId(1));
    }

    #[test]
    fn cold_start_returns_id_order() {
        let emb = vec![0.3f32; 5 * 4];
        let r = Retriever::build(emb, 4, 0, IndexFormat::F32);
        let got = r.retrieve(&[], 3);
        let ids: Vec<u32> = got.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
