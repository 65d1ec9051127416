//! Second-generation GEMM: a register-blocked micro-kernel over a packed
//! right-hand operand, bitwise-identical to [`matmul_raw`].
//!
//! [`matmul_raw`] streams each output row across the full width `n` once per
//! 4-wide k-group: every group re-loads and re-stores `n` output floats and
//! re-slices four rows of `B` straight out of the row-major buffer. That is
//! `m·n·⌈k/4⌉` output-buffer round trips, and for the narrow per-head
//! projections of the LM (`n = d_head = 8`) the per-group slicing overhead
//! rivals the arithmetic. This module restructures the same arithmetic:
//!
//! * **B is packed once** ([`pack_b`]) into `NR`-wide column panels, laid out
//!   k-major so the kernel's inner loop reads one contiguous, cache-resident
//!   strip per k-group. Packing is pure data movement — no arithmetic — and
//!   for the LM's frozen inference weights it amortizes to zero across calls
//!   (see `delrec-lm`'s `LmPack`).
//! * **The micro-kernel holds an `MR`×`NR` output tile in registers** for the
//!   whole k loop: each output float is loaded and stored once instead of
//!   `⌈k/4⌉` times, and each packed `B` strip is reused across `MR` rows of
//!   `A`, which is streamed row-major exactly as before.
//!
//! **Bitwise identity.** Blocking reorders *which outputs* are computed when,
//! never the k-order *within* an output: every `out[i,j]` accumulates its
//! products in [`matmul_raw`]'s exact order — full 4-groups in ascending k,
//! each group evaluated as the same left-associated
//! `acc + (a0·b0 + a1·b1 + a2·b2 + a3·b3)` expression, then the `k % 4`
//! remainder one product at a time. Padded panel lanes (`n % NR`) compute on
//! zeros into dead accumulators that are never written back. The property
//! tests in `tests/gemm_properties.rs` pin `gemm == matmul_raw` to the bit
//! across randomized shapes including every remainder class.
//!
//! **Vector width.** The panel drivers and [`matmul_raw_strided`] are each
//! one `#[inline(always)]` body behind a `simd_dispatch!` entry
//! (`ops::dispatch`): compiled at the build's baseline width and, on x86-64,
//! once more at 256 bits, chosen at run time. The per-element expression
//! above has no `mul_add` and a fixed order, so the width cannot change a
//! bit; this module's tests pin body ≡ entry.
//!
//! **Panel width.** [`PackedB`] carries its panel width `W` as a const
//! generic that defaults to [`NR`] = 8, the LM's width. The item-index scan
//! packs [`SCAN_NR`] = 64-wide panels instead: at its `k = 16` an `MR`×64
//! tile is sixteen 512-bit accumulators, so the kernel streams the index at
//! the host's full vector width. Packs wider than `NR` run through
//! `wide_panel_range`, the one entry that also has an AVX-512F twin; both
//! entries instantiate the same body, micro-kernel included. The width only
//! decides which registers compute an output, so a 64-wide pack gives every
//! output the bits an `NR`-wide one does.

use super::dispatch::simd_dispatch;
use super::matmul::matmul_raw;

/// Rows of the register-blocked output tile.
pub const MR: usize = 4;
/// Columns of the register-blocked output tile: the default panel width of
/// [`PackedB`], the one every LM and tape pack uses.
pub const NR: usize = 8;
/// Panel width of the item-index scan's packs (`PackedB<SCAN_NR>`): sixteen
/// 512-bit accumulators per `MR`-row tile at the index's `k = 16`.
pub const SCAN_NR: usize = 64;

/// Minimum multiply-accumulates per parallel task: below this the fork/join
/// handshake (queue lock + wake + latch) costs more than the arithmetic it
/// offloads, so smaller products stay serial on the calling thread.
const PAR_MIN_MACS_PER_TASK: usize = 64 * 1024;

/// Minimum multiply-accumulates for an auto-dispatching GEMM to pay for a
/// per-call packing pass: packing allocates and writes `⌈n/NR⌉·k·NR` floats
/// before a single MAC runs, and below a few thousand MACs [`matmul_raw`]
/// finishes in less time than that data movement. Mirrors
/// [`PAR_MIN_MACS_PER_TASK`] an order of magnitude down — an allocation plus
/// a copy is far cheaper than a fork/join handshake, but not free.
///
/// This is the *single* named threshold for every pack-or-not decision:
/// [`gemm_auto`] consults it (long-lived panels — LM weight packs, the
/// retrieval item index — pack unconditionally because the cost amortizes
/// over every later call).
pub const AUTO_PACK_MIN_MACS: usize = 8 * 1024;

/// A right-hand GEMM operand repacked into `W`-wide column panels (`W`
/// defaults to [`NR`]; the item index packs [`SCAN_NR`]).
///
/// Panel `p` covers columns `p·W .. min((p+1)·W, n)` and stores `k`
/// contiguous rows of `W` floats each (k-major); columns past `n` in the
/// last panel are zero-padded so the micro-kernel never branches on width.
/// Total size `⌈n/W⌉·k·W` floats. The `Default` value is an empty `[0, 0]`
/// pack — the scratch panel [`pack_b_into`] grows.
#[derive(Clone, Debug, Default)]
pub struct PackedB<const W: usize = NR> {
    data: Vec<f32>,
    k: usize,
    n: usize,
}

impl<const W: usize> PackedB<W> {
    /// Inner (shared) dimension `k` this pack was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output width `n` this pack was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Packed size in floats (includes zero padding of the last panel).
    pub fn packed_len(&self) -> usize {
        self.data.len()
    }

    /// Heap bytes of the pack (4 bytes per packed float, padding included).
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

/// Pack a row-major `[k, n]` matrix into `NR`-wide panels for [`gemm_packed`].
pub fn pack_b(b: &[f32], k: usize, n: usize) -> PackedB {
    let mut bp = PackedB::default();
    pack_b_into(b, k, n, &mut bp);
    bp
}

/// [`pack_b`] into an existing pack, reusing its allocation: for operands
/// rebuilt per call (attention's per-example `V`), where one scratch panel
/// serves every product of a forward pass. The panel width is the pack's.
pub fn pack_b_into<const W: usize>(b: &[f32], k: usize, n: usize, bp: &mut PackedB<W>) {
    debug_assert_eq!(b.len(), k * n);
    let panels = n.div_ceil(W);
    bp.data.clear();
    bp.data.resize(panels * k * W, 0.0);
    for p in 0..panels {
        let j0 = p * W;
        let w = W.min(n - j0);
        let dst = &mut bp.data[p * k * W..(p + 1) * k * W];
        for kk in 0..k {
            dst[kk * W..kk * W + w].copy_from_slice(&b[kk * n + j0..kk * n + j0 + w]);
        }
    }
    bp.k = k;
    bp.n = n;
}

/// Pack the *transpose* of a row-major `[n, k]` matrix — the packed
/// equivalent of [`super::matmul::transpose_into`] followed by [`pack_b`],
/// without materializing the `[k, n]` intermediate. Used for the tied
/// embedding head, whose weight lives as `[vocab, d]` but multiplies as
/// `[d, vocab]`.
pub fn pack_b_transposed(src: &[f32], k: usize, n: usize) -> PackedB {
    let mut bp = PackedB::default();
    pack_b_transposed_into(src, k, n, &mut bp);
    bp
}

/// [`pack_b_transposed`] into an existing pack of any panel width, reusing
/// its allocation (see [`pack_b_into`]): the tape's `X · Yᵀ` products —
/// attention scores over `Kᵀ`, every matmul backward's `g · Bᵀ` — pack `Y`
/// as it lies, and the item index packs its `[n_items, dim]` embeddings into
/// [`SCAN_NR`]-wide panels.
pub fn pack_b_transposed_into<const W: usize>(
    src: &[f32],
    k: usize,
    n: usize,
    bp: &mut PackedB<W>,
) {
    debug_assert_eq!(src.len(), n * k);
    let panels = n.div_ceil(W);
    bp.data.clear();
    bp.data.resize(panels * k * W, 0.0);
    for p in 0..panels {
        let j0 = p * W;
        let w = W.min(n - j0);
        let dst = &mut bp.data[p * k * W..(p + 1) * k * W];
        for (j, col) in src[j0 * k..(j0 + w) * k].chunks_exact(k.max(1)).enumerate() {
            for (kk, &v) in col.iter().enumerate() {
                dst[kk * W + j] = v;
            }
        }
    }
    bp.k = k;
    bp.n = n;
}

/// A right-hand GEMM operand quantized to int8 with per-output-channel
/// scales, in the same `NR`-wide k-major panel layout as [`PackedB`].
///
/// Column `j` stores codes `q[kk, j] = round(b[kk, j] / scale[j])` clamped
/// to `[-127, 127]`, with `scale[j] = maxabs_j / 127` so the column's
/// largest magnitude maps to ±127 and the dequantization error is at most
/// `maxabs_j / 254` per element. All-zero columns get `scale[j] = 0.0` and
/// all-zero codes — no division, no NaN. Scales are indexed by global column
/// (`scales[j]`; panel `p` owns `scales[p·NR .. (p+1)·NR]`, padded lanes
/// carry `0.0`).
///
/// No product path stores one: int8 lost to f32 both under the LM and as
/// the item index (DESIGN.md, "GEMM kernel", *int8 panels*). The type,
/// [`quantize_pack`] and [`gemm_packed_q8`] stay only because the frozen
/// `perfbench/` package's `tensor.gemm_q8_scan_gflops` probe calls them,
/// and go with that package's `[benchmark]` PR (ROADMAP 5(d)).
#[derive(Clone, Debug)]
pub struct QuantizedPanel {
    data: Vec<i8>,
    scales: Vec<f32>,
    k: usize,
    n: usize,
}

impl QuantizedPanel {
    /// Inner (shared) dimension `k` this pack was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output width `n` this pack was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Packed size in int8 codes (includes zero padding of the last panel).
    pub fn packed_len(&self) -> usize {
        self.data.len()
    }

    /// Heap bytes of the pack: one byte per code plus the f32 scales.
    pub fn bytes(&self) -> usize {
        self.data.len() + self.scales.len() * std::mem::size_of::<f32>()
    }

    /// Per-column scales, indexed by global column; padded lanes are `0.0`.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }
}

/// Quantize an existing f32 pack, preserving its layout: per-column max-abs
/// over the panels (column `j` is lane `j % NR` of panel `j / NR`), then one
/// rounded, clamped division per element, so the code layout is identical
/// to the f32 pack by construction. Goes with [`QuantizedPanel`]
/// (ROADMAP 5(d)).
pub fn quantize_pack(bp: &PackedB) -> QuantizedPanel {
    let (k, n) = (bp.k, bp.n);
    let panels = n.div_ceil(NR);
    let mut scales = vec![0.0f32; panels * NR];
    for p in 0..panels {
        let panel = &bp.data[p * k * NR..(p + 1) * k * NR];
        let lane_max = &mut scales[p * NR..(p + 1) * NR];
        for strip in panel.chunks_exact(NR) {
            for (mx, &v) in lane_max.iter_mut().zip(strip) {
                *mx = mx.max(v.abs());
            }
        }
    }
    for s in scales.iter_mut() {
        *s /= 127.0;
    }
    let mut data = vec![0i8; bp.data.len()];
    for p in 0..panels {
        let src = &bp.data[p * k * NR..(p + 1) * k * NR];
        let dst = &mut data[p * k * NR..(p + 1) * k * NR];
        let lane_scale = &scales[p * NR..(p + 1) * NR];
        for (drow, srow) in dst.chunks_exact_mut(NR).zip(src.chunks_exact(NR)) {
            for jn in 0..NR {
                if lane_scale[jn] > 0.0 {
                    drow[jn] = (srow[jn] / lane_scale[jn]).round().clamp(-127.0, 127.0) as i8;
                }
            }
        }
    }
    QuantizedPanel { data, scales, k, n }
}

/// `out[m, n] (+)= a[m, k] · B` for a packed `B`, with `A` rows `lda` floats
/// apart (`lda ≥ k`; pass `lda = k` for a contiguous `A`).
///
/// With `accumulate` the result adds into `out` exactly like [`matmul_raw`];
/// without it, `out` is overwritten — bitwise-identical to [`matmul_raw`]
/// over a zero-filled `out`, since the register accumulators start at the
/// same `0.0` the fill would have stored.
#[inline]
pub fn gemm_packed<const W: usize>(
    a: &[f32],
    lda: usize,
    bp: &PackedB<W>,
    out: &mut [f32],
    m: usize,
    accumulate: bool,
) {
    let (k, n) = (bp.k, bp.n);
    debug_assert!(lda >= k, "row stride {lda} shorter than k {k}");
    debug_assert!(m == 0 || a.len() >= (m - 1) * lda + k);
    debug_assert_eq!(out.len(), m * n);
    // `bp.data` is re-borrowed as a plain slice *parameter*: a `&[f32]`
    // argument carries LLVM's noalias/readonly attributes on the data pointer
    // itself, while a pointer loaded out of `&PackedB` inside the callee does
    // not — and without provable no-aliasing against `out`, the whole micro-
    // kernel compiles to scalar stack code (measured ~2.6x slower).
    if accumulate {
        gemm_dispatch::<W, true, false>(a, lda, bp, out, m);
    } else {
        gemm_dispatch::<W, false, false>(a, lda, bp, out, m);
    }
}

/// Serial `out[m, w] = a[m, k] · B[:, panels]` over the `W`-wide panels
/// `panels` of a packed `B` only: `out` is a dense `[m, w]` block whose
/// column 0 is global column `panels.start · W` and whose width `w` stops at
/// `min(panels.end · W, n)`; it is overwritten, never read.
///
/// This is the panel-range driver [`gemm_packed`]'s parallel stripes run,
/// exposed so a caller that consumes scores block by block (the retrieval
/// scan feeding a top-k selector) never has to hold the full `[m, n]`
/// product. It never forks — the caller owns the split — and each element is
/// bitwise the one [`gemm_packed`] writes at the same `(row, column)`: a
/// block boundary chooses which call computes an output, never its k-order.
pub fn gemm_packed_panels<const W: usize>(
    a: &[f32],
    lda: usize,
    bp: &PackedB<W>,
    panels: std::ops::Range<usize>,
    out: &mut [f32],
    m: usize,
) {
    let w = panel_block_width::<W>(bp.k, bp.n, lda, a.len(), m, &panels, out.len());
    panel_range::<W, false, false>(a, lda, &bp.data, bp.k, bp.n, out, m, panels, w);
}

/// Serial `out[m, n] = A · B` over every panel of a packed `B`, `A`
/// contiguous: `a` is `A` itself (`[m, k]`) or, with `TA`, its transpose as it
/// lies in memory (`[k, m]`) — what a backward pass holds when it needs
/// `Xᵀ · g`, read in place instead of through a transposed copy. The tape's
/// products (batched matmul, the attention node, matmul backward) run this:
/// [`matmul_raw`]'s bits from the register-blocked kernel, and never a fork
/// per (head, example).
pub(crate) fn gemm_packed_serial<const TA: bool>(
    a: &[f32],
    bp: &PackedB,
    out: &mut [f32],
    m: usize,
) {
    let (k, n) = (bp.k, bp.n);
    assert_eq!(a.len(), m * k, "A is [m, k] (or its transpose)");
    assert_eq!(out.len(), m * n, "out is [m, n]");
    let lda = if TA { m } else { k };
    gemm_panel_range::<NR, false, TA>(a, lda, &bp.data, k, n, out, m, 0..n.div_ceil(NR), n);
}

/// [`gemm_packed_panels`]'s kernel body as the build's baseline compiles it
/// (128-bit vectors on x86-64), at the pack's panel width, whatever the host
/// supports: the same dense `[m, w]` block over panels `panels`, overwritten.
/// It is the reference the dispatched kernel is gated bitwise against and
/// timed beside (`bench/bin/gemm`). Not a second code path — nothing outside
/// benches and tests calls it.
#[doc(hidden)]
pub fn gemm_packed_baseline<const W: usize>(
    a: &[f32],
    lda: usize,
    bp: &PackedB<W>,
    panels: std::ops::Range<usize>,
    out: &mut [f32],
    m: usize,
) {
    // Its own function with the pack as a slice *parameter*, like the
    // dispatched instantiations: see `gemm_packed` on why that matters.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn run<const W: usize>(
        a: &[f32],
        lda: usize,
        data: &[f32],
        k: usize,
        n: usize,
        out: &mut [f32],
        m: usize,
        panels: std::ops::Range<usize>,
        ldo: usize,
    ) {
        gemm_panel_range_body::<W, false, false>(a, lda, data, k, n, out, m, panels, ldo);
    }
    let w = panel_block_width::<W>(bp.k, bp.n, lda, a.len(), m, &panels, out.len());
    run::<W>(a, lda, &bp.data, bp.k, bp.n, out, m, panels, w);
}

/// Width of the `[m, w]` block a panel-range entry over `W`-wide panels
/// writes, after checking the operand shapes against it.
fn panel_block_width<const W: usize>(
    k: usize,
    n: usize,
    lda: usize,
    a_len: usize,
    m: usize,
    panels: &std::ops::Range<usize>,
    out_len: usize,
) -> usize {
    assert!(
        panels.start <= panels.end && panels.end <= n.div_ceil(W),
        "panel range {panels:?} outside 0..{}",
        n.div_ceil(W)
    );
    assert!(lda >= k, "row stride {lda} shorter than k {k}");
    assert!(
        m == 0 || a_len >= (m - 1) * lda + k,
        "A shorter than [m, k]"
    );
    let w = (panels.end * W).min(n) - (panels.start * W).min(n);
    assert_eq!(out_len, m * w, "block is [m, {w}]");
    w
}

/// [`gemm_packed`] (and [`gemm_backward`]'s products) through
/// [`gemm_try_parallel`]: the serial call is [`panel_range`] over the pack's
/// data, handed to the kernel as a slice parameter (see [`gemm_packed`]).
#[inline]
fn gemm_dispatch<const W: usize, const ACC: bool, const TA: bool>(
    a: &[f32],
    lda: usize,
    bp: &PackedB<W>,
    out: &mut [f32],
    m: usize,
) {
    let (data, k, n) = (&bp.data[..], bp.k, bp.n);
    gemm_try_parallel::<W, ACC>(m, k, n, out, |i0, rows, panels, out, ldo| {
        // Output rows are columns of a transposed `A`.
        let a = &a[if TA { i0 } else { i0 * lda }..];
        panel_range::<W, ACC, TA>(a, lda, data, k, n, out, rows, panels, ldo);
    });
}

/// The one serial/parallel driver of both packed GEMMs, f32 and q8.
/// `serial(i0, rows, panels, out, ldo)` computes output rows
/// `i0 .. i0 + rows` over the `W`-wide column panels `panels` into `out`
/// (rows `ldo` apart, column 0 at global column `panels.start · W`),
/// adding into it under `ACC`. The product runs as one serial call when the
/// current pool has one lane or is too small to amortize a fork — both
/// checked before anything is allocated; otherwise:
///
/// * **Row blocks** (tall shapes): the output rows are cut into `MR`-aligned
///   contiguous blocks, each task running the serial call on its own
///   `A`-rows × `out`-rows sub-problem — a pure sub-slicing of the serial
///   call.
/// * **Panel blocks** (short, wide shapes — e.g. the `[bsz, vocab]` head):
///   each task computes a stripe of `W`-wide column panels into a private
///   stripe buffer (reading the prior `out` values first when accumulating),
///   and the caller copies the stripes back serially. Copies preserve bits,
///   so this too is exactly the serial arithmetic.
///
/// Either way parallelism only changes *which thread* computes which
/// disjoint outputs, never the k-order within an output element (see the
/// module docs' bitwise-identity argument — tile heights and panel
/// boundaries don't enter the per-element expression).
#[inline]
fn gemm_try_parallel<const W: usize, const ACC: bool>(
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    serial: impl Fn(usize, usize, std::ops::Range<usize>, &mut [f32], usize) + Sync,
) {
    let panels = n.div_ceil(W);
    let macs = m * k * n;
    if macs < 2 * PAR_MIN_MACS_PER_TASK {
        return serial(0, m, 0..panels, out, n);
    }
    let pool = delrec_par::current();
    let lanes = pool.lanes();
    if lanes < 2 {
        return serial(0, m, 0..panels, out, n);
    }
    let task_cap = (macs / PAR_MIN_MACS_PER_TASK).min(lanes);
    let row_tiles = m.div_ceil(MR);
    if row_tiles >= 2 && task_cap >= 2 {
        let tile_ranges = delrec_par::partition(row_tiles, task_cap.min(row_tiles));
        let row_ranges: Vec<_> = tile_ranges
            .iter()
            .map(|r| r.start * MR * n..(r.end * MR).min(m) * n)
            .collect();
        pool.for_each_range(out, &row_ranges, |ti, out_chunk| {
            let rows = out_chunk.len() / n;
            serial(tile_ranges[ti].start * MR, rows, 0..panels, out_chunk, n);
        });
        return;
    }
    let tasks = task_cap.min(panels);
    if tasks < 2 {
        return serial(0, m, 0..panels, out, n);
    }
    let panel_ranges = delrec_par::partition(panels, tasks);
    let prior: &[f32] = out;
    let mut stripes: Vec<Vec<f32>> = vec![Vec::new(); tasks];
    pool.for_each_chunk(&mut stripes, 1, |ti, slot| {
        let pr = &panel_ranges[ti];
        let j0 = pr.start * W;
        let w = (pr.end * W).min(n) - j0;
        let mut tmp = vec![0.0f32; m * w];
        if ACC {
            for i in 0..m {
                tmp[i * w..(i + 1) * w].copy_from_slice(&prior[i * n + j0..i * n + j0 + w]);
            }
        }
        serial(0, m, pr.clone(), &mut tmp, w);
        slot[0] = tmp;
    });
    for (ti, pr) in panel_ranges.iter().enumerate() {
        let j0 = pr.start * W;
        let w = (pr.end * W).min(n) - j0;
        let tmp = &stripes[ti];
        for i in 0..m {
            out[i * n + j0..i * n + j0 + w].copy_from_slice(&tmp[i * w..(i + 1) * w]);
        }
    }
}

/// The `W`-wide panels `p_range` of a packed `B` (`data`, `[k, n]`) into an
/// `out` whose rows are `ldo` floats apart and whose column 0 is global
/// column `p_range.start * W`; the whole product is the full range with
/// `ldo = n`. With `TA`, `a` holds the left operand transposed (`[k, m]`,
/// rows `lda` apart). `NR`-wide packs run [`gemm_panel_range`], wider ones
/// [`wide_panel_range`]: two dispatched entries, one body.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn panel_range<const W: usize, const ACC: bool, const TA: bool>(
    a: &[f32],
    lda: usize,
    data: &[f32],
    k: usize,
    n: usize,
    out: &mut [f32],
    m: usize,
    p_range: std::ops::Range<usize>,
    ldo: usize,
) {
    if W > NR {
        wide_panel_range::<W, ACC, TA>(a, lda, data, k, n, out, m, p_range, ldo);
    } else {
        gemm_panel_range::<W, ACC, TA>(a, lda, data, k, n, out, m, p_range, ldo);
    }
}

simd_dispatch! {
    /// [`panel_range`] for the LM's and the tape's `NR`-wide packs: runs
    /// [`gemm_panel_range_body`] at 128 or 256 bits. No 512-bit twin — it
    /// measured slower on these narrow panels (DESIGN.md, negative result c).
    #[allow(clippy::too_many_arguments)]
    fn gemm_panel_range<const W: usize, const ACC: bool, const TA: bool>(
        a: &[f32],
        lda: usize,
        data: &[f32],
        k: usize,
        n: usize,
        out: &mut [f32],
        m: usize,
        p_range: std::ops::Range<usize>,
        ldo: usize,
    ) => gemm_panel_range_body
}

simd_dispatch! {
    avx512f;
    /// [`panel_range`] for wide packs (the item index's [`SCAN_NR`]): runs
    /// [`gemm_panel_range_body`] at 512 bits where AVX-512F is detected, and
    /// at 256 or 128 bits otherwise. The first call publishes which as the
    /// `tensor.scan_simd_lanes` gauge.
    #[allow(clippy::too_many_arguments)]
    fn wide_panel_range<const W: usize, const ACC: bool, const TA: bool>(
        a: &[f32],
        lda: usize,
        data: &[f32],
        k: usize,
        n: usize,
        out: &mut [f32],
        m: usize,
        p_range: std::ops::Range<usize>,
        ldo: usize,
    ) => gemm_panel_range_body
}

/// The one source body of [`gemm_panel_range`] and [`wide_panel_range`];
/// `#[inline(always)]` so each instantiation compiles it, micro-kernel
/// included, at its own vector width and panel width `W`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_panel_range_body<const W: usize, const ACC: bool, const TA: bool>(
    a: &[f32],
    lda: usize,
    data: &[f32],
    k: usize,
    n: usize,
    out: &mut [f32],
    m: usize,
    p_range: std::ops::Range<usize>,
    ldo: usize,
) {
    let p0 = p_range.start;
    for p in p_range {
        let j0 = p * W;
        let w = W.min(n - j0);
        let jo = j0 - p0 * W; // column offset within `out`
        let panel = &data[p * k * W..(p + 1) * k * W];
        let mut i0 = 0;
        while i0 + MR <= m {
            micro_tile::<W, MR, ACC, TA>(a, lda, panel, out, i0, jo, w, k, ldo);
            i0 += MR;
        }
        // Remainder rows dispatch to compile-time heights so the tile still
        // lives in registers (MR is 4; 1..=3 are the only partial heights).
        match m - i0 {
            0 => {}
            1 => micro_tile::<W, 1, ACC, TA>(a, lda, panel, out, i0, jo, w, k, ldo),
            2 => micro_tile::<W, 2, ACC, TA>(a, lda, panel, out, i0, jo, w, k, ldo),
            _ => micro_tile::<W, 3, ACC, TA>(a, lda, panel, out, i0, jo, w, k, ldo),
        }
    }
}

/// One `MRT`×`W` output tile against one packed panel. `MRT` and `ACC` are
/// compile-time so the accumulator array promotes to registers: with a
/// runtime row count — or a runtime `accumulate` flag, whose dynamic-length
/// tile load forces the array to be addressable — the tile spills to the
/// stack, every k-step becomes a memory round trip, and the kernel loses to
/// [`matmul_raw`] on wide shapes by ~2.5x.
///
/// `TA` reads the left operand from its transpose (`a[kk * lda + i]` for
/// `a[i * lda + kk]`): the same values into the same expression, so the
/// same bits — and a tile's `MRT` values at one `kk` lie contiguous.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_tile<const W: usize, const MRT: usize, const ACC: bool, const TA: bool>(
    a: &[f32],
    lda: usize,
    panel: &[f32],
    out: &mut [f32],
    i0: usize,
    j0: usize,
    w: usize,
    k: usize,
    ldo: usize,
) {
    let at = |im: usize, kk: usize| match TA {
        true => a[kk * lda + i0 + im],
        false => a[(i0 + im) * lda + kk],
    };
    // The output tile lives in registers across the whole k loop.
    let mut acc = [[0.0f32; W]; MRT];
    if ACC {
        for (im, tile) in acc.iter_mut().enumerate() {
            let row = &out[(i0 + im) * ldo + j0..(i0 + im) * ldo + j0 + w];
            tile[..w].copy_from_slice(row);
        }
    }
    let mut kk = 0;
    while kk + 4 <= k {
        let strip = &panel[kk * W..(kk + 4) * W];
        let (b0, rest) = strip.split_at(W);
        let (b1, rest) = rest.split_at(W);
        let (b2, b3) = rest.split_at(W);
        for (im, tile) in acc.iter_mut().enumerate() {
            let (a0, a1, a2, a3) = if TA {
                (at(im, kk), at(im, kk + 1), at(im, kk + 2), at(im, kk + 3))
            } else {
                let ar = &a[(i0 + im) * lda + kk..(i0 + im) * lda + kk + 4];
                (ar[0], ar[1], ar[2], ar[3])
            };
            for jn in 0..W {
                // Same left-associated group expression as matmul_raw.
                tile[jn] += a0 * b0[jn] + a1 * b1[jn] + a2 * b2[jn] + a3 * b3[jn];
            }
        }
        kk += 4;
    }
    while kk < k {
        let strip = &panel[kk * W..(kk + 1) * W];
        for (im, tile) in acc.iter_mut().enumerate() {
            let av = at(im, kk);
            for jn in 0..W {
                tile[jn] += av * strip[jn];
            }
        }
        kk += 1;
    }
    for (im, tile) in acc.iter().enumerate() {
        let row = &mut out[(i0 + im) * ldo + j0..(i0 + im) * ldo + j0 + w];
        row.copy_from_slice(&tile[..w]);
    }
}

/// `out[m, n] (+)= a[m, k] · dequant(Bq)` for an int8-quantized `B` — the
/// [`QuantizedPanel`] counterpart of [`gemm_packed`].
///
/// The kernel widens each int8 code to f32 in-register and accumulates
/// `Σ_k a[i,k] · widen(q[k,j])` in f32 with exactly [`gemm_packed`]'s
/// k-order (full 4-groups in ascending k, the same left-associated group
/// expression, then the remainder one product at a time). The per-column
/// scale multiplies the *finished* sum once at write-back; with
/// `accumulate`, the prior `out` value is added after that single multiply.
/// One fixed rounding schedule per output element means results are
/// run-to-run and thread-count deterministic — though not bitwise-equal to
/// [`gemm_packed`] over the unquantized weights, which is the whole trade.
/// It forks through the f32 path's driver ([`gemm_try_parallel`]), so its
/// thread-count determinism is that driver's. Goes with [`QuantizedPanel`]
/// (ROADMAP 5(d)).
#[inline]
pub fn gemm_packed_q8(
    a: &[f32],
    lda: usize,
    bq: &QuantizedPanel,
    out: &mut [f32],
    m: usize,
    accumulate: bool,
) {
    let (k, n) = (bq.k, bq.n);
    debug_assert!(lda >= k, "row stride {lda} shorter than k {k}");
    debug_assert!(m == 0 || a.len() >= (m - 1) * lda + k);
    debug_assert_eq!(out.len(), m * n);
    // Codes and scales reach the kernel as slice parameters, as in
    // `gemm_packed`.
    let (data, scales) = (&bq.data[..], &bq.scales[..]);
    if accumulate {
        gemm_try_parallel::<NR, true>(m, k, n, out, |i0, rows, panels, out, ldo| {
            let a = &a[i0 * lda..];
            q8_panel_range::<true>(a, lda, data, scales, k, n, out, rows, panels, ldo);
        });
    } else {
        gemm_try_parallel::<NR, false>(m, k, n, out, |i0, rows, panels, out, ldo| {
            let a = &a[i0 * lda..];
            q8_panel_range::<false>(a, lda, data, scales, k, n, out, rows, panels, ldo);
        });
    }
}

simd_dispatch! {
    /// [`gemm_packed_q8`] over panels `p_range` — the q8 mirror of
    /// [`gemm_panel_range`], with the panel's `NR` scales sliced alongside
    /// its codes. Runs [`q8_panel_range_body`] at the host's vector width.
    #[allow(clippy::too_many_arguments)]
    fn q8_panel_range<const ACC: bool>(
        a: &[f32],
        lda: usize,
        data: &[i8],
        scales: &[f32],
        k: usize,
        n: usize,
        out: &mut [f32],
        m: usize,
        p_range: std::ops::Range<usize>,
        ldo: usize,
    ) => q8_panel_range_body
}

/// The one source body of [`q8_panel_range`] (see
/// [`gemm_panel_range_body`]).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn q8_panel_range_body<const ACC: bool>(
    a: &[f32],
    lda: usize,
    data: &[i8],
    scales: &[f32],
    k: usize,
    n: usize,
    out: &mut [f32],
    m: usize,
    p_range: std::ops::Range<usize>,
    ldo: usize,
) {
    let p0 = p_range.start;
    for p in p_range {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        let jo = j0 - p0 * NR; // column offset within `out`
        let panel = &data[p * k * NR..(p + 1) * k * NR];
        let lane_scale = &scales[p * NR..(p + 1) * NR];
        let mut i0 = 0;
        while i0 + MR <= m {
            micro_tile_q8::<MR, ACC>(a, lda, panel, lane_scale, out, i0, jo, w, k, ldo);
            i0 += MR;
        }
        match m - i0 {
            0 => {}
            1 => micro_tile_q8::<1, ACC>(a, lda, panel, lane_scale, out, i0, jo, w, k, ldo),
            2 => micro_tile_q8::<2, ACC>(a, lda, panel, lane_scale, out, i0, jo, w, k, ldo),
            _ => micro_tile_q8::<3, ACC>(a, lda, panel, lane_scale, out, i0, jo, w, k, ldo),
        }
    }
}

/// One `MRT`×`NR` output tile against one int8 panel. Codes accumulate as
/// widened f32 in registers (same const-generic spill avoidance as
/// [`micro_tile`]); the prior `out` values are *not* pre-loaded into the
/// tile — the per-column scale must multiply only the fresh sum, so the
/// accumulate add happens at write-back as `out += sum · scale`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_tile_q8<const MRT: usize, const ACC: bool>(
    a: &[f32],
    lda: usize,
    panel: &[i8],
    lane_scale: &[f32],
    out: &mut [f32],
    i0: usize,
    j0: usize,
    w: usize,
    k: usize,
    ldo: usize,
) {
    let mut acc = [[0.0f32; NR]; MRT];
    let mut kk = 0;
    while kk + 4 <= k {
        let strip = &panel[kk * NR..(kk + 4) * NR];
        let (b0, rest) = strip.split_at(NR);
        let (b1, rest) = rest.split_at(NR);
        let (b2, b3) = rest.split_at(NR);
        for (im, tile) in acc.iter_mut().enumerate() {
            let ar = &a[(i0 + im) * lda + kk..(i0 + im) * lda + kk + 4];
            let (a0, a1, a2, a3) = (ar[0], ar[1], ar[2], ar[3]);
            for jn in 0..NR {
                // Same left-associated group expression as micro_tile, over
                // in-register widened codes.
                tile[jn] += a0 * f32::from(b0[jn])
                    + a1 * f32::from(b1[jn])
                    + a2 * f32::from(b2[jn])
                    + a3 * f32::from(b3[jn]);
            }
        }
        kk += 4;
    }
    while kk < k {
        let strip = &panel[kk * NR..(kk + 1) * NR];
        for (im, tile) in acc.iter_mut().enumerate() {
            let av = a[(i0 + im) * lda + kk];
            for jn in 0..NR {
                tile[jn] += av * f32::from(strip[jn]);
            }
        }
        kk += 1;
    }
    for (im, tile) in acc.iter().enumerate() {
        let row = &mut out[(i0 + im) * ldo + j0..(i0 + im) * ldo + j0 + w];
        for (o, (&sum, &s)) in row.iter_mut().zip(tile.iter().zip(lane_scale)) {
            if ACC {
                *o += sum * s;
            } else {
                *o = sum * s;
            }
        }
    }
}

/// `out = a · b` over a **zero-filled** `out`, choosing the blocked kernel
/// when the shape amortizes its packing pass and falling back to
/// [`matmul_raw`] otherwise. Both arms are bitwise-identical, so the
/// heuristic is free to change; this is the kernel behind
/// [`crate::Tape::matmul`]'s 2-D forward and backward.
pub fn gemm_auto(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert!(out.iter().all(|&x| x == 0.0), "gemm_auto needs zeroed out");
    // Packing costs an allocation plus k·n writes against m·k·n multiplies:
    // below ~8 rows the pack dominates, below one panel of columns blocking
    // buys nothing, and below AUTO_PACK_MIN_MACS total work the raw kernel
    // finishes before the pack's data movement pays for itself.
    if m >= 8 && n >= NR && m * k * n >= AUTO_PACK_MIN_MACS {
        let bp = pack_b(b, k, n);
        gemm_packed(a, k, &bp, out, m, false);
    } else {
        matmul_raw(a, b, out, m, k, n);
    }
}

/// The gradients of `a[m, k] · b[k, n]` given the upstream `g[m, n]` — the
/// backward of [`crate::Tape::matmul`]'s 2-D product — into **zero-filled**
/// outputs, each computed only if asked for: `ga = g · bᵀ` and `gb = aᵀ · g`.
/// Neither transpose is materialised: `b` is packed transposed as it lies and
/// `a` is read through the kernel's transposed-`A` mode, so each element is
/// bitwise what [`matmul_raw`] gives over explicit transposes. Forks like
/// [`gemm_packed`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_backward(
    a: &[f32],
    b: &[f32],
    g: &[f32],
    ga: Option<&mut [f32]>,
    gb: Option<&mut [f32]>,
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert!(a.len() == m * k && b.len() == k * n && g.len() == m * n);
    let mut bp = PackedB::<NR>::default();
    if let Some(ga) = ga {
        debug_assert_eq!(ga.len(), m * k);
        pack_b_transposed_into(b, n, k, &mut bp);
        gemm_dispatch::<NR, false, false>(g, n, &bp, ga, m);
    }
    if let Some(gb) = gb {
        debug_assert_eq!(gb.len(), k * n);
        pack_b_into(g, m, n, &mut bp);
        gemm_dispatch::<NR, false, true>(a, k, &bp, gb, k);
    }
}

simd_dispatch! {
    /// [`matmul_raw`] with `A` rows `lda` floats apart and explicit accumulate
    /// control: the small-shape companion of [`gemm_packed`] for operands built
    /// on the fly (attention scores over an assembled `Kᵀ`, attn·V) where `A` is
    /// a strided view into a fused projection buffer and packing `B` per call
    /// would cost more than it saves.
    ///
    /// `accumulate = false` zero-fills exactly the `m·n` region the kernel
    /// writes — no caller-side clears of anything wider — and matches
    /// [`matmul_raw`] over a zeroed `out` bitwise.
    ///
    /// Runs its one source body at the host's vector width (`simd_dispatch!`).
    #[allow(clippy::too_many_arguments)]
    pub fn matmul_raw_strided(
        a: &[f32],
        lda: usize,
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        accumulate: bool,
    ) => matmul_raw_strided_body
}

/// The one source body of [`matmul_raw_strided`] — and, instantiated at the
/// build's baseline width with `lda = k`, of [`matmul_raw`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(super) fn matmul_raw_strided_body(
    a: &[f32],
    lda: usize,
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    debug_assert!(lda >= k, "row stride {lda} shorter than k {k}");
    debug_assert!(m == 0 || a.len() >= (m - 1) * lda + k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let a_row = &a[i * lda..i * lda + k];
        let out_row = &mut out[i * n..(i + 1) * n];
        if !accumulate {
            out_row.fill(0.0);
        }
        let mut kk = 0;
        while kk + 4 <= k {
            let (a0, a1, a2, a3) = (a_row[kk], a_row[kk + 1], a_row[kk + 2], a_row[kk + 3]);
            let (b0, rest) = b[kk * n..].split_at(n);
            let (b1, rest) = rest.split_at(n);
            let (b2, rest) = rest.split_at(n);
            let b3 = &rest[..n];
            for (j, o) in out_row.iter_mut().enumerate() {
                *o += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
            }
            kk += 4;
        }
        for (kk, &av) in a_row.iter().enumerate().skip(kk) {
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul::transpose_into;

    /// Deterministic pseudo-random fill, different per (seed, index).
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

    /// Widths and depths whose remainders differ between 4 and 8 lanes.
    const WIDTHS: [usize; 8] = [1, 7, 8, 9, 15, 16, 17, 127];
    const DEPTHS: [usize; 5] = [1, 3, 4, 16, 127];

    /// Each packed kernel's baseline body (inlined here, so compiled at the
    /// build's width) against its dispatched entry — f32 at the LM's `NR`
    /// and at the index's [`SCAN_NR`] (the entry with the 512-bit twin), and
    /// q8 — both `ACC` modes, every tile-height remainder, widths below, at
    /// and past a wide panel.
    #[test]
    fn dispatched_panel_kernels_are_bitwise_their_baseline_body() {
        use crate::ops::dispatch::{report_instantiation, scan_simd_lanes, simd_lanes};
        report_instantiation("gemm_panel_range / q8_panel_range", simd_lanes());
        report_instantiation("wide_panel_range", scan_simd_lanes());
        fn f32_case<const W: usize, const ACC: bool>(m: usize, k: usize, n: usize) {
            let a = fill(m as u64 * 31 + k as u64, m * k);
            let b = fill(n as u64 * 17 + 7, k * n);
            let mut bp = PackedB::<W>::default();
            pack_b_into(&b, k, n, &mut bp);
            let panels = 0..n.div_ceil(W);
            let (mut want, mut got) = (fill(99, m * n), fill(99, m * n));
            let data = &bp.data;
            gemm_panel_range_body::<W, ACC, false>(
                &a,
                k,
                data,
                k,
                n,
                &mut want,
                m,
                panels.clone(),
                n,
            );
            panel_range::<W, ACC, false>(&a, k, data, k, n, &mut got, m, panels, n);
            assert_eq!(
                bits(&want),
                bits(&got),
                "f32 W={W} acc={ACC} m={m} k={k} n={n}"
            );
        }
        fn case<const ACC: bool>(m: usize, k: usize, n: usize) {
            f32_case::<NR, ACC>(m, k, n);
            f32_case::<SCAN_NR, ACC>(m, k, n);
            let a = fill(m as u64 * 31 + k as u64, m * k);
            let b = fill(n as u64 * 17 + 7, k * n);
            let bq = quantize_pack(&pack_b(&b, k, n));
            let panels = 0..n.div_ceil(NR);
            let (mut want, mut got) = (fill(99, m * n), fill(99, m * n));
            let (q, sc) = (&bq.data, &bq.scales);
            q8_panel_range_body::<ACC>(&a, k, q, sc, k, n, &mut want, m, panels.clone(), n);
            q8_panel_range::<ACC>(&a, k, q, sc, k, n, &mut got, m, panels, n);
            assert_eq!(bits(&want), bits(&got), "q8 acc={ACC} m={m} k={k} n={n}");
        }
        for m in [1usize, 3, 4, 9] {
            for k in DEPTHS {
                for n in WIDTHS.into_iter().chain([63, 64, 65, 200]) {
                    case::<false>(m, k, n);
                    case::<true>(m, k, n);
                }
            }
        }
    }

    #[test]
    fn dispatched_strided_matmul_is_bitwise_its_baseline_body() {
        crate::ops::dispatch::report_instantiation("matmul_raw_strided", crate::simd_lanes());
        for m in [1usize, 5] {
            for k in DEPTHS {
                for n in WIDTHS {
                    let lda = k + 3;
                    let a = fill(m as u64 * 13 + k as u64, m * lda);
                    let b = fill(n as u64 * 19 + 3, k * n);
                    for accumulate in [false, true] {
                        let (mut want, mut got) = (fill(5, m * n), fill(5, m * n));
                        matmul_raw_strided_body(&a, lda, &b, &mut want, m, k, n, accumulate);
                        matmul_raw_strided(&a, lda, &b, &mut got, m, k, n, accumulate);
                        assert_eq!(
                            bits(&want),
                            bits(&got),
                            "acc={accumulate} m={m} k={k} n={n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_is_bitwise_matmul_raw_across_remainder_classes() {
        // Every combination of full/partial tiles: m around MR, n around NR,
        // k around the 4-group width.
        for &m in &[1usize, 3, 4, 5, 8, 13] {
            for &k in &[1usize, 2, 3, 4, 7, 16] {
                for &n in &[1usize, 5, 8, 9, 16, 19] {
                    let a = fill(m as u64 * 31 + k as u64, m * k);
                    let b = fill(n as u64 * 17 + 7, k * n);
                    let mut want = fill(99, m * n); // non-zero: accumulate path
                    let mut got = want.clone();
                    matmul_raw(&a, &b, &mut want, m, k, n);
                    gemm_packed(&a, k, &pack_b(&b, k, n), &mut got, m, true);
                    assert_eq!(
                        want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "m={m} k={k} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn overwrite_mode_equals_matmul_raw_over_zeroed_out() {
        let (m, k, n) = (6, 10, 11);
        let a = fill(1, m * k);
        let b = fill(2, k * n);
        let mut want = vec![0.0f32; m * n];
        matmul_raw(&a, &b, &mut want, m, k, n);
        let bp = pack_b(&b, k, n);
        let mut got = fill(3, m * n); // garbage: overwrite must not read it
        gemm_packed(&a, k, &bp, &mut got, m, false);
        assert_eq!(
            want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn strided_a_reads_the_right_columns() {
        // A is the first k columns of a wider [m, lda] buffer.
        let (m, k, n, lda) = (5, 6, 9, 10);
        let wide = fill(4, m * lda);
        let mut narrow = vec![0.0f32; m * k];
        for i in 0..m {
            narrow[i * k..(i + 1) * k].copy_from_slice(&wide[i * lda..i * lda + k]);
        }
        let b = fill(5, k * n);
        let mut want = vec![0.0f32; m * n];
        matmul_raw(&narrow, &b, &mut want, m, k, n);

        let bp = pack_b(&b, k, n);
        let mut got = vec![0.0f32; m * n];
        gemm_packed(&wide, lda, &bp, &mut got, m, false);
        assert_eq!(want, got, "gemm_packed with lda");

        let mut got2 = fill(6, m * n);
        matmul_raw_strided(&wide, lda, &b, &mut got2, m, k, n, false);
        assert_eq!(want, got2, "matmul_raw_strided overwrite with lda");
    }

    #[test]
    fn transposed_pack_matches_transpose_then_pack() {
        let (k, n) = (7, 13);
        let src = fill(8, n * k); // [n, k] row-major
        let mut bt = vec![0.0f32; n * k];
        transpose_into(&src, n, k, &mut bt); // [k, n]
        let via_transpose = pack_b(&bt, k, n);
        let direct = pack_b_transposed(&src, k, n);
        assert_eq!(via_transpose.data, direct.data);
        let a = fill(9, 3 * k);
        let mut want = vec![0.0f32; 3 * n];
        matmul_raw(&a, &bt, &mut want, 3, k, n);
        let mut got = vec![0.0f32; 3 * n];
        gemm_packed(&a, k, &direct, &mut got, 3, false);
        assert_eq!(want, got);
    }

    /// Widen a pack's codes back to a row-major `[k, n]` f32 matrix, run the
    /// reference [`matmul_raw`] over them (the same per-element k-order the
    /// q8 micro-kernel uses), then apply scale-then-prior at each element —
    /// the semantics `gemm_packed_q8` must reproduce bitwise.
    fn q8_reference(a: &[f32], bq: &QuantizedPanel, m: usize, prior: Option<&[f32]>) -> Vec<f32> {
        let (k, n) = (bq.k, bq.n);
        let mut codes = vec![0.0f32; k * n];
        for j in 0..n {
            for kk in 0..k {
                codes[kk * n + j] = f32::from(bq.data[(j / NR) * k * NR + kk * NR + j % NR]);
            }
        }
        let mut sums = vec![0.0f32; m * n];
        matmul_raw(a, &codes, &mut sums, m, k, n);
        sums.iter()
            .enumerate()
            .map(|(idx, &sum)| {
                let scaled = sum * bq.scales[idx % n];
                match prior {
                    Some(p) => p[idx] + scaled,
                    None => scaled,
                }
            })
            .collect()
    }

    #[test]
    fn q8_pack_scales_map_maxabs_to_127() {
        let (k, n) = (9, 13);
        let b = fill(42, k * n);
        let bq = quantize_pack(&pack_b(&b, k, n));
        for j in 0..n {
            let maxabs = (0..k).map(|kk| b[kk * n + j].abs()).fold(0.0f32, f32::max);
            let s = bq.scales()[j];
            assert!(
                (s - maxabs / 127.0).abs() <= f32::EPSILON * maxabs,
                "column {j}: scale {s} vs maxabs/127 {}",
                maxabs / 127.0
            );
            let code_max = (0..k)
                .map(|kk| bq.data[(j / NR) * k * NR + kk * NR + j % NR].unsigned_abs())
                .max()
                .unwrap();
            assert_eq!(code_max, 127, "column {j}: max |code| must hit 127");
            for kk in 0..k {
                let q = bq.data[(j / NR) * k * NR + kk * NR + j % NR];
                let deq = f32::from(q) * s;
                assert!(
                    (deq - b[kk * n + j]).abs() <= maxabs / 254.0 + f32::EPSILON * maxabs,
                    "column {j} row {kk}: dequant {deq} vs {}",
                    b[kk * n + j]
                );
            }
        }
        // Padded lanes of the last panel: zero scale, zero codes.
        for j in n..n.div_ceil(NR) * NR {
            assert_eq!(bq.scales()[j], 0.0);
        }
    }

    #[test]
    fn q8_zero_columns_produce_exact_zeros_not_nan() {
        let (m, k, n) = (5, 7, 10);
        let mut b = fill(3, k * n);
        for kk in 0..k {
            b[kk * n + 4] = 0.0; // column 4 all zeros
        }
        let bq = quantize_pack(&pack_b(&b, k, n));
        assert_eq!(bq.scales()[4], 0.0);
        let a = fill(4, m * k);
        let mut out = vec![f32::NAN; m * n];
        gemm_packed_q8(&a, k, &bq, &mut out, m, false);
        for i in 0..m {
            assert_eq!(out[i * n + 4].to_bits(), 0.0f32.to_bits());
        }
        assert!(out.iter().all(|x| !x.is_nan()));
    }

    #[test]
    fn q8_kernel_is_bitwise_reference_across_remainder_classes() {
        for &m in &[1usize, 3, 4, 5, 8, 13] {
            for &k in &[1usize, 2, 3, 4, 7, 16] {
                for &n in &[1usize, 5, 8, 9, 16, 19] {
                    let a = fill(m as u64 * 31 + k as u64, m * k);
                    let b = fill(n as u64 * 17 + 7, k * n);
                    let bq = quantize_pack(&pack_b(&b, k, n));
                    // Overwrite mode.
                    let want = q8_reference(&a, &bq, m, None);
                    let mut got = fill(99, m * n); // garbage: must not be read
                    gemm_packed_q8(&a, k, &bq, &mut got, m, false);
                    assert_eq!(
                        want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "overwrite m={m} k={k} n={n}"
                    );
                    // Accumulate mode.
                    let prior = fill(7, m * n);
                    let want = q8_reference(&a, &bq, m, Some(&prior));
                    let mut got = prior.clone();
                    gemm_packed_q8(&a, k, &bq, &mut got, m, true);
                    assert_eq!(
                        want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "accumulate m={m} k={k} n={n}"
                    );
                }
            }
        }
    }

    /// The q8 mirror of `parallel_gemm_is_bitwise_serial`: shapes crossing
    /// the parallel threshold through both the row-block and panel-block
    /// paths, both accumulate modes, thread counts {1, 2, 4, 8}.
    #[test]
    fn parallel_q8_is_bitwise_serial() {
        for &(m, k, n) in &[(64usize, 64usize, 40usize), (3, 512, 256), (33, 48, 96)] {
            let a = fill(m as u64 ^ 0xabc, m * k);
            let b = fill(n as u64 ^ 0xdef, k * n);
            let bq = quantize_pack(&pack_b(&b, k, n));
            for accumulate in [false, true] {
                let seed_out = fill(7, m * n);
                let serial = delrec_par::with_pool(&delrec_par::ThreadPool::new(1), || {
                    let mut out = seed_out.clone();
                    gemm_packed_q8(&a, k, &bq, &mut out, m, accumulate);
                    out
                });
                for lanes in [2usize, 4, 8] {
                    let pool = delrec_par::ThreadPool::new(lanes);
                    let got = delrec_par::with_pool(&pool, || {
                        let mut out = seed_out.clone();
                        gemm_packed_q8(&a, k, &bq, &mut out, m, accumulate);
                        out
                    });
                    assert_eq!(
                        serial.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "m={m} k={k} n={n} acc={accumulate} lanes={lanes}"
                    );
                }
            }
        }
    }

    #[test]
    fn q8_pack_is_at_least_3_5x_smaller_at_serving_k() {
        // The serving panels all have k ≥ 32 (XL preset), where the 4-byte
        // per-column scale overhead leaves 4k/(k+4) ≥ 3.56x.
        let (k, n) = (32, 96);
        let b = fill(12, k * n);
        let ratio =
            pack_b(&b, k, n).bytes() as f64 / quantize_pack(&pack_b(&b, k, n)).bytes() as f64;
        assert!(ratio >= 3.5, "pack-memory ratio {ratio:.2} < 3.5");
    }

    /// Any split of the panels into consecutive blocks reassembles the full
    /// product bit for bit, including the ragged last panel and an empty
    /// range.
    #[test]
    fn panel_blocks_reassemble_the_full_product_bitwise() {
        let (m, k, n) = (5usize, 7usize, 43usize);
        let a = fill(61, m * k);
        let b = fill(62, k * n);
        let bp = pack_b(&b, k, n);
        let mut want = vec![0.0f32; m * n];
        gemm_packed(&a, k, &bp, &mut want, m, false);
        let panels = n.div_ceil(NR);
        for step in [1usize, 2, 4, panels] {
            let mut got = vec![0.0f32; m * n];
            for p0 in (0..panels).step_by(step) {
                let range = p0..(p0 + step).min(panels);
                let (j0, j1) = (range.start * NR, (range.end * NR).min(n));
                let w = j1 - j0;
                let mut block = fill(63, m * w); // garbage: must not be read
                gemm_packed_panels(&a, k, &bp, range, &mut block, m);
                for i in 0..m {
                    got[i * n + j0..i * n + j1].copy_from_slice(&block[i * w..(i + 1) * w]);
                }
            }
            assert_eq!(bits(&want), bits(&got), "step {step}");
        }
        gemm_packed_panels(&a, k, &bp, panels..panels, &mut [], m);
    }

    #[test]
    fn gemm_auto_both_arms_agree() {
        for &(m, k, n) in &[(2usize, 5usize, 4usize), (16, 16, 48)] {
            let a = fill(10 + m as u64, m * k);
            let b = fill(20 + n as u64, k * n);
            let mut want = vec![0.0f32; m * n];
            matmul_raw(&a, &b, &mut want, m, k, n);
            let mut got = vec![0.0f32; m * n];
            gemm_auto(&a, &b, &mut got, m, k, n);
            assert_eq!(
                want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "m={m} k={k} n={n}"
            );
        }
    }

    #[test]
    fn gemm_auto_agrees_at_the_pack_threshold_boundary() {
        // Shapes pinned to straddle AUTO_PACK_MIN_MACS by name, so a future
        // retune of the threshold keeps exercising both dispatch arms right
        // at the boundary instead of silently testing one arm twice.
        let k = 16usize;
        let m_at = AUTO_PACK_MIN_MACS / (k * NR * 2) + 1; // packs (m ≥ 8, n ≥ NR)
        for &(m, n) in &[(m_at, NR * 2), (7, AUTO_PACK_MIN_MACS / k)] {
            assert_eq!(
                (m * k * n >= AUTO_PACK_MIN_MACS) && m >= 8,
                m == m_at,
                "shape ({m},{k},{n}) no longer straddles the threshold"
            );
            let a = fill(31 + m as u64, m * k);
            let b = fill(37 + n as u64, k * n);
            let mut want = vec![0.0f32; m * n];
            matmul_raw(&a, &b, &mut want, m, k, n);
            let mut got = vec![0.0f32; m * n];
            gemm_auto(&a, &b, &mut got, m, k, n);
            assert_eq!(
                want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "m={m} k={k} n={n}"
            );
        }
    }

    #[test]
    fn k_zero_overwrite_clears_out() {
        let bp = pack_b(&[], 0, 5);
        let mut out = fill(11, 3 * 5);
        gemm_packed(&[], 0, &bp, &mut out, 3, false);
        assert!(out.iter().all(|&x| x == 0.0));
    }

    /// Shapes big enough to cross the parallel threshold, covering both the
    /// row-block path (tall) and the panel-block path (short and wide), in
    /// both accumulate modes, at several lane counts.
    #[test]
    fn parallel_gemm_is_bitwise_serial() {
        for &(m, k, n) in &[(64usize, 64usize, 40usize), (3, 512, 256), (33, 48, 96)] {
            let a = fill(m as u64 ^ 0xabc, m * k);
            let b = fill(n as u64 ^ 0xdef, k * n);
            let bp = pack_b(&b, k, n);
            for accumulate in [false, true] {
                let seed_out = fill(7, m * n);
                let serial = delrec_par::with_pool(&delrec_par::ThreadPool::new(1), || {
                    let mut out = seed_out.clone();
                    gemm_packed(&a, k, &bp, &mut out, m, accumulate);
                    out
                });
                for lanes in [2usize, 3, 7, 8] {
                    let pool = delrec_par::ThreadPool::new(lanes);
                    let got = delrec_par::with_pool(&pool, || {
                        let mut out = seed_out.clone();
                        gemm_packed(&a, k, &bp, &mut out, m, accumulate);
                        out
                    });
                    assert_eq!(
                        serial.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "m={m} k={k} n={n} acc={accumulate} lanes={lanes}"
                    );
                }
            }
        }
    }

    /// `gemm_backward` — transposing pack for `g · Bᵀ`, transposed-`A` kernel
    /// for `Aᵀ · g` — against `matmul_raw` over explicit transposes, on small
    /// shapes and on ones that fork (row blocks and panel stripes), at
    /// several lane counts.
    #[test]
    fn backward_products_are_bitwise_matmul_raw_over_transposes() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (5, 7, 9),
            (3, 512, 256),
            (64, 64, 40),
            (48, 3, 1024),
        ] {
            let (a, b, g) = (fill(1, m * k), fill(2, k * n), fill(3, m * n));
            let (mut at, mut bt) = (vec![0.0f32; m * k], vec![0.0f32; k * n]);
            transpose_into(&a, m, k, &mut at);
            transpose_into(&b, k, n, &mut bt);
            let (mut want_ga, mut want_gb) = (vec![0.0f32; m * k], vec![0.0f32; k * n]);
            matmul_raw(&g, &bt, &mut want_ga, m, n, k);
            matmul_raw(&at, &g, &mut want_gb, k, m, n);
            for lanes in [1usize, 2, 4] {
                let pool = delrec_par::ThreadPool::new(lanes);
                let (ga, gb) = delrec_par::with_pool(&pool, || {
                    let (mut ga, mut gb) = (vec![0.0f32; m * k], vec![0.0f32; k * n]);
                    gemm_backward(&a, &b, &g, Some(&mut ga), Some(&mut gb), m, k, n);
                    (ga, gb)
                });
                assert_eq!(
                    bits(&want_ga),
                    bits(&ga),
                    "ga m={m} k={k} n={n} lanes={lanes}"
                );
                assert_eq!(
                    bits(&want_gb),
                    bits(&gb),
                    "gb m={m} k={k} n={n} lanes={lanes}"
                );
            }
        }
    }

    /// The threshold must actually engage the pool for large products (the
    /// bitwise test above would pass vacuously if everything stayed serial).
    #[test]
    fn parallel_path_engages_above_threshold() {
        let tasks = delrec_obs::global().counter("par.pool.tasks");
        let (m, k, n) = (64, 64, 64);
        let a = fill(21, m * k);
        let b = fill(22, k * n);
        let bp = pack_b(&b, k, n);
        let mut out = vec![0.0f32; m * n];
        let pool = delrec_par::ThreadPool::new(4);
        let before = tasks.get();
        delrec_par::with_pool(&pool, || {
            gemm_packed(&a, k, &bp, &mut out, m, false);
        });
        assert!(
            tasks.get() > before,
            "large product should fork to the pool"
        );
    }
}
