//! The brute-force item index: every item embedding, L2-normalized and
//! repacked into the GEMM panel layout, so a full-catalog scan is the packed
//! GEMM kernel walked over the panels. The index packs f32 in 64-wide panels
//! ([`SCAN_NR`]), which the kernel scans through its one entry with a
//! 512-bit (AVX-512F) twin. An int8 index was measured and dropped: on the
//! 262 144-item benchmark catalog it cut peak RSS by under 5 % and served
//! at 0.64x the f32 throughput (DESIGN.md, *int8 panels* under "GEMM
//! kernel").
//!
//! No approximate-nearest-neighbor structure: at the catalog scales this
//! repo targets (10⁴–10⁶ items × 16–128 dims) a blocked GEMM scan is
//! bandwidth-bound — one query against 262 144 × 16 f32 streams the 16 MB
//! index in 0.80–0.87 ms on the 2-vCPU AVX-512 benchmark host (20–22 GB/s),
//! so a query row is cheap only when it shares the stream with others — is
//! *exact* (recall of the scan itself is 1.0 by construction), and — the
//! property every kernel here pins — bitwise deterministic across thread
//! counts, which no graph- or tree-based ANN traversal can promise once its
//! visit order floats. DESIGN.md's "Retrieval" section carries the full
//! trade-off discussion.
//!
//! Request paths go through [`ItemIndex::scan_top_k`], which never holds
//! more than a `[rows, tile]` block of scores; the materialising
//! [`ItemIndex::scan_batch_into`] family is the reference it is tested
//! against.

use crate::topk::TopKSelector;
use delrec_data::ItemId;
use delrec_tensor::{gemm_packed, gemm_packed_panels, pack_b_transposed_into, PackedB, SCAN_NR};

/// Items per streamed score tile of [`ItemIndex::scan_top_k`]: 16 panels of
/// [`SCAN_NR`]. Sized so a lane's `[rows, TILE_ITEMS]` f32 block — 4 KB for
/// a solo query, 512 KB at the retriever's 128-row block — is still in L2
/// when the selectors read back what the kernel just wrote.
const TILE_ITEMS: usize = 1024;

/// Panels per streamed score tile.
const TILE_PANELS: usize = TILE_ITEMS / SCAN_NR;

/// Minimum multiply-accumulates per lane before [`ItemIndex::scan_top_k`]
/// forks: the same break-even the GEMM's own parallel driver uses.
const PAR_MIN_MACS_PER_LANE: usize = 64 * 1024;

/// How the packed item matrix is stored: f32 panels, the one format. Nothing
/// reads it; the type and [`crate::Retriever::build`]'s argument of it exist
/// only because the frozen `perfbench/` package names them, and go with that
/// package's `[benchmark]` PR (ROADMAP 5(d)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexFormat {
    /// f32 panels ([`PackedB`]).
    F32,
}

/// L2-normalize each `dim`-length row in place; all-zero rows stay zero.
///
/// Normalizing at build time turns the scan's dot products into cosine
/// similarities against a normalized query, so score magnitudes are
/// comparable across items regardless of title length or embedding norm.
pub fn l2_normalize_rows(rows: &mut [f32], dim: usize) {
    assert!(dim > 0, "embedding dim must be positive");
    debug_assert_eq!(rows.len() % dim, 0);
    for row in rows.chunks_exact_mut(dim) {
        let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt();
        if norm > 0.0 {
            let inv = 1.0 / norm;
            for v in row {
                *v *= inv;
            }
        }
    }
}

/// The full-catalog item index: `n_items` L2-normalized embeddings packed
/// for one blocked GEMM scan, tagged with the parameter-store version the
/// embeddings were exported from.
///
/// The scan inherits the GEMM drivers' parallelism (`delrec-par` splits
/// column panels into disjoint stripes) and their bitwise thread-count
/// determinism: each output score is one fixed left-associated k-order dot
/// product no matter how many lanes computed the row.
pub struct ItemIndex {
    panel: PackedB<SCAN_NR>,
    dim: usize,
    n_items: usize,
    version: u64,
}

impl ItemIndex {
    /// Build from a row-major `[n_items, dim]` embedding matrix (consumed:
    /// rows are normalized in place before packing). `version` tags the
    /// parameter-store version the embeddings came from, for cache
    /// invalidation upstream.
    pub fn build(mut embeddings: Vec<f32>, dim: usize, version: u64) -> Self {
        assert!(dim > 0, "embedding dim must be positive");
        assert_eq!(
            embeddings.len() % dim,
            0,
            "embedding matrix length {} not a multiple of dim {dim}",
            embeddings.len()
        );
        let n_items = embeddings.len() / dim;
        assert!(n_items > 0, "cannot index an empty catalog");
        let _span = delrec_obs::span!("retrieval.index.build");
        l2_normalize_rows(&mut embeddings, dim);
        // `[n_items, dim]` row-major is exactly the transposed-source layout
        // `pack_b_transposed_into` packs into `[dim, n_items]` panels.
        let mut panel = PackedB::default();
        pack_b_transposed_into(&embeddings, dim, n_items, &mut panel);
        delrec_obs::counter!("retrieval.index.build").incr();
        delrec_obs::gauge!("retrieval.index.bytes").set(panel.bytes() as f64);
        ItemIndex {
            panel,
            dim,
            n_items,
            version,
        }
    }

    /// Catalog size this index covers.
    pub fn len(&self) -> usize {
        self.n_items
    }

    /// Whether the index is empty (never: `build` rejects empty catalogs).
    pub fn is_empty(&self) -> bool {
        self.n_items == 0
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Parameter-store version the embeddings were exported from.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Heap bytes of the packed panels (padding included).
    pub fn bytes(&self) -> usize {
        self.panel.bytes()
    }

    /// Score one query against every item: `out[j] = q · e_j`. `out` must
    /// hold exactly [`len`](Self::len) zeroed floats.
    pub fn scan_into(&self, query: &[f32], out: &mut [f32]) {
        self.scan_batch_into(query, 1, out);
    }

    /// Score `m` queries (row-major `[m, dim]`) against every item into a
    /// zeroed row-major `[m, n_items]` score matrix — **one** blocked GEMM
    /// call, so the packed panels stream from memory once for all `m` rows
    /// instead of once per query.
    ///
    /// Row `i` of the output is bitwise identical to an `m = 1` scan of
    /// query `i`: each output score is one fixed left-associated k-order dot
    /// product, and the kernel's row blocking only chooses which register
    /// tile computes it, never the accumulation order.
    pub fn scan_batch_into(&self, queries: &[f32], m: usize, out: &mut [f32]) {
        assert_eq!(queries.len(), m * self.dim, "query matrix shape");
        assert_eq!(out.len(), m * self.n_items, "score matrix shape");
        if m == 0 {
            return;
        }
        let _span = delrec_obs::span!("retrieval.scan");
        gemm_packed(queries, self.dim, &self.panel, out, m, false);
        self.count_scan(m);
    }

    fn count_scan(&self, m: usize) {
        delrec_obs::counter!("retrieval.scan.items").add((m * self.n_items) as u64);
        delrec_obs::counter!("retrieval.scan.rows").add(m as u64);
        delrec_obs::counter!("retrieval.scan.batches").incr();
    }

    /// Score `ks.len()` queries (row-major `[m, dim]`) against every item and
    /// keep row `i`'s best `ks[i]`, best first — in **one streamed pass**
    /// that never holds a full score row: the panels are walked in
    /// [`TILE_ITEMS`]-wide tiles, each `[m, tile]` score block is computed
    /// into a reused scratch and pushed straight into one [`TopKSelector`]
    /// per row. Transient memory is `O(m · tile)`, not `O(m · n_items)`.
    ///
    /// Row `i` is bitwise `top_k(scan(query i), ks[i])`: each score is the
    /// same fixed k-order dot product whichever block computes it, and the
    /// best `k` under a total order do not depend on visiting order. With
    /// several pool lanes each takes a contiguous tile range with private
    /// selectors, merged per row under the same order — parallel ≡ serial.
    pub fn scan_top_k(&self, queries: &[f32], ks: &[usize]) -> Vec<Vec<(ItemId, f32)>> {
        let (m, dim, n_items) = (ks.len(), self.dim, self.n_items);
        assert_eq!(queries.len(), m * dim, "query matrix shape");
        if m == 0 {
            return Vec::new();
        }
        let _span = delrec_obs::span!("retrieval.scan");
        let panels = n_items.div_ceil(SCAN_NR);
        let tiles = panels.div_ceil(TILE_PANELS);
        let pool = delrec_par::current();
        let lanes = (m * dim * n_items / PAR_MIN_MACS_PER_LANE).clamp(1, pool.lanes());
        let tile_ranges = delrec_par::partition(tiles, lanes);
        // One selector per (lane, row); a lane owns its row of the outer Vec.
        let mut selectors: Vec<Vec<TopKSelector>> = tile_ranges
            .iter()
            .map(|_| {
                ks.iter()
                    .map(|&k| TopKSelector::new(k.min(n_items)))
                    .collect()
            })
            .collect();
        pool.for_each_chunk(&mut selectors, 1, |lane, rows| {
            let mut block = vec![0.0f32; m * TILE_ITEMS.min(n_items)];
            for tile in tile_ranges[lane].clone() {
                let range = tile * TILE_PANELS..((tile + 1) * TILE_PANELS).min(panels);
                let first = tile * TILE_ITEMS;
                let width = (range.end * SCAN_NR).min(n_items) - first;
                let block = &mut block[..m * width];
                gemm_packed_panels(queries, dim, &self.panel, range, block, m);
                for (selector, scores) in rows[0].iter_mut().zip(block.chunks_exact(width)) {
                    selector.push_tile(first as u32, scores);
                }
            }
        });
        self.count_scan(m);
        let admitted: u64 = selectors.iter().flatten().map(|s| s.admitted()).sum();
        delrec_obs::counter!("retrieval.select.admitted").add(admitted);
        let (merged, rest) = selectors.split_first_mut().expect("at least one lane");
        for lane in rest {
            for (into, from) in merged.iter_mut().zip(lane) {
                into.merge(from);
            }
        }
        merged.iter_mut().map(|s| s.finish()).collect()
    }

    /// Convenience: allocate and fill a score row for one query.
    pub fn scan(&self, query: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.n_items];
        self.scan_into(query, &mut out);
        out
    }

    /// Convenience: allocate and fill a `[m, n_items]` score matrix for `m`
    /// row-major queries (see [`scan_batch_into`](Self::scan_batch_into)).
    pub fn scan_batch(&self, queries: &[f32], m: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * self.n_items];
        self.scan_batch_into(queries, m, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn normalize_makes_unit_rows_and_keeps_zero_rows() {
        let mut rows = vec![3.0, 4.0, 0.0, 0.0, 1.0, 0.0];
        l2_normalize_rows(&mut rows, 2);
        assert!((rows[0] - 0.6).abs() < 1e-6 && (rows[1] - 0.8).abs() < 1e-6);
        assert_eq!(&rows[2..4], &[0.0, 0.0]);
        assert_eq!(&rows[4..6], &[1.0, 0.0]);
    }

    #[test]
    fn scan_matches_explicit_dot_products() {
        let (n, d) = (37, 8);
        let mut emb = fill(11, n * d);
        let idx = ItemIndex::build(emb.clone(), d, 0);
        l2_normalize_rows(&mut emb, d);
        let q = fill(23, d);
        let scores = idx.scan(&q);
        assert_eq!(scores.len(), n);
        for j in 0..n {
            let want: f32 = (0..d).map(|k| q[k] * emb[j * d + k]).sum();
            assert!((scores[j] - want).abs() < 1e-5, "item {j}");
        }
    }

    #[test]
    fn batch_scan_rows_match_single_query_scans() {
        let (n, d, m) = (19, 6, 4);
        let emb = fill(5, n * d);
        let idx = ItemIndex::build(emb, d, 0);
        let queries = fill(7, m * d);
        let mut batch = vec![0.0f32; m * n];
        idx.scan_batch_into(&queries, m, &mut batch);
        for i in 0..m {
            let single = idx.scan(&queries[i * d..(i + 1) * d]);
            assert_eq!(&batch[i * n..(i + 1) * n], single.as_slice(), "row {i}");
        }
    }

    #[test]
    fn streamed_top_k_is_the_materialised_top_k_and_counts_its_work() {
        // Three tiles, the last one ragged and ending mid-panel.
        let (n, d, m) = (2 * TILE_ITEMS + 37, 5, 3);
        let emb = fill(13, n * d);
        let queries = fill(17, m * d);
        let ks = [1, 100, n + 5];
        let counter = |name| delrec_obs::global().counter(name).get();
        let bits = |r: &[(ItemId, f32)]| -> Vec<(u32, u32)> {
            r.iter().map(|&(id, s)| (id.0, s.to_bits())).collect()
        };
        let idx = ItemIndex::build(emb, d, 0);
        let (admitted, passes) = (
            counter("retrieval.select.admitted"),
            counter("retrieval.scan.batches"),
        );
        let got = idx.scan_top_k(&queries, &ks);
        // Other tests bump the same process-wide counters: lower bounds only.
        assert!(counter("retrieval.scan.batches") > passes);
        assert!(counter("retrieval.select.admitted") >= admitted + (1 + 100 + n) as u64);
        for (i, (row, &k)) in got.iter().zip(&ks).enumerate() {
            let want = crate::top_k(&idx.scan(&queries[i * d..(i + 1) * d]), k);
            assert_eq!(bits(row), bits(&want), "row {i}");
        }
        assert!(idx.scan_top_k(&[], &[]).is_empty());
    }
}
