//! Property-based pins for the blocked GEMM path (`ops/gemm.rs`).
//!
//! The kernel's contract is not "close to" but **bitwise-identical to**
//! [`matmul_raw`]: the register-blocked tile must accumulate every output in
//! the exact 4-wide k-group order of the naive kernel, so the fused LM
//! forward, the tape, and the golden-metrics pin all stay on one arithmetic.
//! Every property here compares `f32::to_bits`, never an epsilon, across
//! randomized shapes that independently hit the three remainder classes:
//! `k % 4` (the unroll tail), `n % NR` (a partial B panel), and `m % MR`
//! (a partial row tile) — and, for the item index's `SCAN_NR`-wide packs,
//! `n % SCAN_NR`.

use delrec_tensor::{
    gemm_auto, gemm_packed, gemm_packed_baseline, gemm_packed_panels, gemm_packed_q8, matmul_raw,
    matmul_raw_strided, pack_b, pack_b_into, pack_b_transposed, quantize_pack, scan_simd_lanes,
    transpose_into, PackedB, MR, NR, SCAN_NR,
};
use proptest::prelude::*;

/// Deterministic value stream so each (shape, seed) case is reproducible.
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

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `b` (`[k, n]` row-major) packed into the item index's `SCAN_NR`-wide panels.
fn pack_wide(b: &[f32], k: usize, n: usize) -> PackedB<SCAN_NR> {
    let mut bp = PackedB::default();
    pack_b_into(b, k, n, &mut bp);
    bp
}

/// Columns `cols` of every row of a row-major `[m, n]` matrix, as a dense
/// `[m, cols.len()]` block.
fn column_block(full: &[f32], n: usize, cols: std::ops::Range<usize>) -> Vec<f32> {
    full.chunks_exact(n.max(1))
        .flat_map(|row| row[cols.clone()].iter().copied())
        .collect()
}

/// Over a `SCAN_NR`-wide pack of `b`, the dispatched full-product entry, the
/// dispatched panel-range entry and the baseline body over panels `panels`
/// must each equal `matmul_raw` bit for bit (the first on the whole product,
/// the other two on the block the range covers).
fn check_wide(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, panels: std::ops::Range<usize>) {
    let mut want = vec![0.0f32; m * n];
    matmul_raw(a, b, &mut want, m, k, n);
    let bp = pack_wide(b, k, n);
    let mut got = vec![f32::NAN; m * n];
    gemm_packed(a, k, &bp, &mut got, m, false);
    assert_eq!(bits(&want), bits(&got), "entry m={m} k={k} n={n}");
    let cols = (panels.start * SCAN_NR).min(n)..(panels.end * SCAN_NR).min(n);
    let want_block = column_block(&want, n, cols.clone());
    let mut block = vec![f32::NAN; m * cols.len()];
    gemm_packed_panels(a, k, &bp, panels.clone(), &mut block, m);
    assert_eq!(
        bits(&want_block),
        bits(&block),
        "panel entry m={m} k={k} n={n} {panels:?}"
    );
    block.fill(f32::NAN);
    gemm_packed_baseline(a, k, &bp, panels.clone(), &mut block, m);
    assert_eq!(
        bits(&want_block),
        bits(&block),
        "baseline body m={m} k={k} n={n} {panels:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// `gemm == matmul_raw` to the bit, accumulate semantics included.
    /// Shape ranges start below the tile/unroll widths (m < MR, k < 4,
    /// n < NR all reachable) and extend past several full tiles.
    #[test]
    fn gemm_is_bitwise_matmul_raw(m in 1usize..3 * MR + 2, k in 1usize..19, n in 1usize..3 * NR + 3, seed in 0u64..1 << 32) {
        let a = fill(seed, m * k);
        let b = fill(seed ^ 0xA5A5, k * n);
        let mut want = fill(seed ^ 0x0F0F, m * n); // non-zero: exercises += semantics
        let mut got = want.clone();
        matmul_raw(&a, &b, &mut want, m, k, n);
        gemm_packed(&a, k, &pack_b(&b, k, n), &mut got, m, true);
        prop_assert_eq!(bits(&want), bits(&got), "m={} k={} n={}", m, k, n);
    }

    /// Overwrite mode over garbage equals matmul_raw over zeros: the
    /// register accumulators start at the same 0.0 a fill would store.
    #[test]
    fn overwrite_is_bitwise_matmul_raw_over_zeros(m in 1usize..14, k in 1usize..17, n in 1usize..21, seed in 0u64..1 << 32) {
        let a = fill(seed, m * k);
        let b = fill(seed ^ 0x1234, k * n);
        let mut want = vec![0.0f32; m * n];
        matmul_raw(&a, &b, &mut want, m, k, n);
        let bp = pack_b(&b, k, n);
        let mut got = fill(seed ^ 0x777, m * n); // garbage must not leak through
        gemm_packed(&a, k, &bp, &mut got, m, false);
        prop_assert_eq!(bits(&want), bits(&got));
        let mut got_strided = fill(seed ^ 0x888, m * n);
        matmul_raw_strided(&a, k, &b, &mut got_strided, m, k, n, false);
        prop_assert_eq!(bits(&want), bits(&got_strided));
    }

    /// Strided A (reading k columns out of a wider lda-pitch buffer — the
    /// fused-QKV access pattern) matches a contiguous copy bitwise, for both
    /// the packed kernel and the strided naive kernel.
    #[test]
    fn strided_a_is_bitwise_contiguous(m in 1usize..10, k in 1usize..13, n in 1usize..18, pad in 0usize..5, seed in 0u64..1 << 32) {
        let lda = k + pad;
        let wide = fill(seed, m * lda);
        let mut narrow = vec![0.0f32; m * k];
        for i in 0..m {
            narrow[i * k..(i + 1) * k].copy_from_slice(&wide[i * lda..i * lda + k]);
        }
        let b = fill(seed ^ 0xBEEF, k * n);
        let mut want = vec![0.0f32; m * n];
        matmul_raw(&narrow, &b, &mut want, m, k, n);

        let bp = pack_b(&b, k, n);
        let mut got = vec![0.0f32; m * n];
        gemm_packed(&wide, lda, &bp, &mut got, m, false);
        prop_assert_eq!(bits(&want), bits(&got));

        let mut got2 = vec![0.0f32; m * n];
        matmul_raw_strided(&wide, lda, &b, &mut got2, m, k, n, true);
        prop_assert_eq!(bits(&want), bits(&got2));
    }

    /// Packing the transpose directly (the tied-embedding-head path) equals
    /// materializing the transpose and packing it.
    #[test]
    fn transposed_pack_is_bitwise_transpose_then_pack(m in 1usize..7, k in 1usize..13, n in 1usize..26, seed in 0u64..1 << 32) {
        let src = fill(seed, n * k); // stored [n, k], multiplies as [k, n]
        let mut bt = vec![0.0f32; n * k];
        transpose_into(&src, n, k, &mut bt);
        let a = fill(seed ^ 0xC0DE, m * k);
        let mut want = vec![0.0f32; m * n];
        matmul_raw(&a, &bt, &mut want, m, k, n);
        let bp = pack_b_transposed(&src, k, n);
        let mut got = vec![0.0f32; m * n];
        gemm_packed(&a, k, &bp, &mut got, m, false);
        prop_assert_eq!(bits(&want), bits(&got));
    }

    /// Both arms of the `gemm_auto` dispatch heuristic produce identical
    /// bits, so the m/n/MAC thresholds are a pure performance choice. The
    /// shape ranges straddle the 8k-MAC packing threshold (up to ~59k MACs),
    /// so both the raw and packed routes are exercised.
    #[test]
    fn gemm_auto_is_bitwise_matmul_raw(m in 1usize..40, k in 1usize..40, n in 1usize..40, seed in 0u64..1 << 32) {
        let a = fill(seed, m * k);
        let b = fill(seed ^ 0xD1CE, k * n);
        let mut want = vec![0.0f32; m * n];
        matmul_raw(&a, &b, &mut want, m, k, n);
        let mut got = vec![0.0f32; m * n];
        gemm_auto(&a, &b, &mut got, m, k, n);
        prop_assert_eq!(bits(&want), bits(&got));
    }

    /// Parallel `gemm_packed` is bitwise-identical to the 1-lane serial path
    /// at every tested thread count. Shapes are scaled up so the product
    /// crosses the parallel work threshold: `wide` below forces the
    /// panel-block path (too few row tiles to split), the tall arm forces
    /// row blocks, and both accumulate modes run on the same operands.
    #[test]
    fn parallel_gemm_is_bitwise_serial_at_every_thread_count(
        wide in prop_oneof![Just(false), Just(true)],
        dim in 1usize..5,
        k in 33usize..96,
        acc in prop_oneof![Just(false), Just(true)],
        seed in 0u64..1 << 32,
    ) {
        // Tall: m in 33..161, n in 17..81 — always ≥ 2 row tiles.
        // Wide: m in 1..5, n in 257..1281 — 1 row tile, ≥ 32 panels.
        let (m, n) = if wide { (dim, 256 * dim + 256) } else { (32 * dim + 1, 16 * dim + 1) };
        let a = fill(seed, m * k);
        let b = fill(seed ^ 0xFACE, k * n);
        let bp = pack_b(&b, k, n);
        let seed_out = fill(seed ^ 0x5EED, m * n);
        let serial = delrec_par::with_pool(&delrec_par::ThreadPool::new(1), || {
            let mut out = seed_out.clone();
            gemm_packed(&a, k, &bp, &mut out, m, acc);
            out
        });
        for lanes in [2usize, 3, 7, 8] {
            let pool = delrec_par::ThreadPool::new(lanes);
            let got = delrec_par::with_pool(&pool, || {
                let mut out = seed_out.clone();
                gemm_packed(&a, k, &bp, &mut out, m, acc);
                out
            });
            prop_assert_eq!(bits(&serial), bits(&got), "m={} k={} n={} acc={} lanes={}", m, k, n, acc, lanes);
        }
    }

    /// Per-channel quantization invariants of `quantize_pack`: in every column
    /// the max-abs value maps to a ±127 code, all-zero columns keep a 0.0
    /// scale with all-zero codes (no NaN anywhere downstream), and every
    /// dequantized element sits within maxabs/254 of the original — half a
    /// code step at the column's own scale.
    #[test]
    fn q8_pack_per_channel_scale_properties(
        k in 1usize..24,
        n in 1usize..26,
        zero_col in 0usize..26,
        seed in 0u64..1 << 32,
    ) {
        let mut b = fill(seed, k * n);
        let zc = zero_col % n;
        for kk in 0..k {
            b[kk * n + zc] = 0.0;
        }
        let bq = quantize_pack(&pack_b(&b, k, n));
        // Identity A makes the kernel emit the dequantized panel itself:
        // row kk of `deq` is `widen(q[kk, :]) · scales`, one multiply per
        // element, so every invariant is observable through the public API.
        let mut eye = vec![0.0f32; k * k];
        for kk in 0..k {
            eye[kk * k + kk] = 1.0;
        }
        let mut deq = vec![f32::NAN; k * n];
        gemm_packed_q8(&eye, k, &bq, &mut deq, k, false);
        prop_assert!(deq.iter().all(|x| !x.is_nan()), "kernel emitted NaN");
        for j in 0..n {
            let maxabs = (0..k).map(|kk| b[kk * n + j].abs()).fold(0.0f32, f32::max);
            let s = bq.scales()[j];
            prop_assert!(s.is_finite(), "column {} scale not finite", j);
            let col_max = (0..k).map(|kk| deq[kk * n + j].abs()).fold(0.0f32, f32::max);
            if maxabs == 0.0 {
                prop_assert_eq!(s, 0.0, "zero column {} must get scale 0", j);
                for kk in 0..k {
                    prop_assert_eq!(deq[kk * n + j].to_bits(), 0.0f32.to_bits());
                }
                continue;
            }
            prop_assert!(
                (s - maxabs / 127.0).abs() <= f32::EPSILON * maxabs,
                "column {}: scale {} vs maxabs/127 {}", j, s, maxabs / 127.0
            );
            // The max-abs element maps to a ±127 code, and no code exceeds
            // it: the column's dequantized max is exactly 127 · scale.
            prop_assert_eq!(
                col_max.to_bits(),
                (127.0 * s).to_bits(),
                "column {}: max |dequant| must be 127·scale", j
            );
            for kk in 0..k {
                prop_assert!(
                    (deq[kk * n + j] - b[kk * n + j]).abs() <= maxabs / 254.0 + f32::EPSILON * maxabs,
                    "column {} row {}: dequant error above maxabs/254", j, kk
                );
            }
        }
    }

    /// Parallel `gemm_packed_q8` is bitwise-identical to the 1-lane serial
    /// path at thread counts {2, 4, 8}, through both the row-block and
    /// panel-block splits, in both accumulate modes — the f32 pin above run
    /// through the q8 kernel, which forks through the same driver.
    #[test]
    fn parallel_q8_is_bitwise_serial_at_every_thread_count(
        wide in prop_oneof![Just(false), Just(true)],
        dim in 1usize..5,
        k in 33usize..96,
        acc in prop_oneof![Just(false), Just(true)],
        seed in 0u64..1 << 32,
    ) {
        let (m, n) = if wide { (dim, 256 * dim + 256) } else { (32 * dim + 1, 16 * dim + 1) };
        let a = fill(seed, m * k);
        let b = fill(seed ^ 0xFACE, k * n);
        let bq = quantize_pack(&pack_b(&b, k, n));
        let seed_out = fill(seed ^ 0x5EED, m * n);
        let serial = delrec_par::with_pool(&delrec_par::ThreadPool::new(1), || {
            let mut out = seed_out.clone();
            gemm_packed_q8(&a, k, &bq, &mut out, m, acc);
            out
        });
        for lanes in [2usize, 4, 8] {
            let pool = delrec_par::ThreadPool::new(lanes);
            let got = delrec_par::with_pool(&pool, || {
                let mut out = seed_out.clone();
                gemm_packed_q8(&a, k, &bq, &mut out, m, acc);
                out
            });
            prop_assert_eq!(bits(&serial), bits(&got), "m={} k={} n={} acc={} lanes={}", m, k, n, acc, lanes);
        }
    }

    /// The item index's `SCAN_NR`-wide scan (the entry with the 512-bit twin
    /// where AVX-512F is detected) ≡ its baseline body ≡ `matmul_raw`, bit
    /// for bit: every `k % 4` class up to k = 33, every row-tile remainder,
    /// widths below, at and off the 64 grid up to ~3 panels, and random
    /// panel sub-ranges (empty ones included).
    #[test]
    fn wide_scan_is_bitwise_matmul_raw(
        m in 1usize..=9,
        k in 1usize..=33,
        full in 0usize..=2,
        // Half the cases land on the grid (n = 64, 128, 192), half off it.
        rem in prop_oneof![Just(SCAN_NR), 1usize..SCAN_NR],
        lo in 0usize..4,
        len in 0usize..4,
        seed in 0u64..1 << 32,
    ) {
        let n = full * SCAN_NR + rem;
        let a = fill(seed, m * k);
        let b = fill(seed ^ 0x5CA7, k * n);
        let panels = n.div_ceil(SCAN_NR);
        let start = lo.min(panels);
        check_wide(&a, &b, m, k, n, start..(start + len).min(panels));
    }

    /// Tiled transpose places every element exactly like the naive loop,
    /// including shapes straddling the tile boundary.
    #[test]
    fn tiled_transpose_matches_naive(rows in 1usize..70, cols in 1usize..70, seed in 0u64..1 << 32) {
        let x = fill(seed, rows * cols);
        let mut naive = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                naive[c * rows + r] = x[r * cols + c];
            }
        }
        let mut tiled = vec![0.0f32; rows * cols];
        transpose_into(&x, rows, cols, &mut tiled);
        prop_assert_eq!(bits(&naive), bits(&tiled));
    }
}

/// Directed corner sweep on top of the random shapes: every combination of
/// {below, at, just above} the MR / 4-group / NR edges, and the same at the
/// `SCAN_NR` edge for the item index's wide packs.
#[test]
fn remainder_class_grid_is_bitwise() {
    match scan_simd_lanes() {
        16 => println!("wide scan: entry ran the 512-bit AVX-512F twin"),
        8 => println!("wide scan: no AVX-512F here — entry ran the 256-bit AVX2 twin"),
        _ => println!("wide scan: no AVX2 here — the entry IS the baseline body"),
    }
    let wide_edges = [SCAN_NR - 1, SCAN_NR, SCAN_NR + 1, 2 * SCAN_NR + 3];
    for m in [1, MR - 1, MR, MR + 1, 2 * MR] {
        for k in [1, 3, 4, 5, 8, 9, 16] {
            for n in [1, NR - 1, NR, NR + 1, 2 * NR, 2 * NR + 3] {
                let a = fill((m * 1009 + k) as u64, m * k);
                let b = fill((n * 2003 + 1) as u64, k * n);
                let mut want = vec![0.0f32; m * n];
                matmul_raw(&a, &b, &mut want, m, k, n);
                let mut got = vec![0.0f32; m * n];
                gemm_packed(&a, k, &pack_b(&b, k, n), &mut got, m, true);
                assert_eq!(bits(&want), bits(&got), "m={m} k={k} n={n}");
            }
            for n in [1, NR + 1].into_iter().chain(wide_edges) {
                let a = fill((m * 1009 + k) as u64, m * k);
                let b = fill((n * 2003 + 1) as u64, k * n);
                check_wide(&a, &b, m, k, n, 0..n.div_ceil(SCAN_NR));
            }
        }
    }
}
