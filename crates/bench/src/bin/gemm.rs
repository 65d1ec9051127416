//! `gemm` — the kernel table: the packed register-blocked GEMM, the fused
//! QKV/FFN projections and the vectorised `vmath` loops, timed on the LM's
//! own shapes (see the "GEMM kernel" section of `DESIGN.md`) and written to
//! `BENCH_gemm.json`. End-to-end and per-layer timings are `perfbench`'s;
//! this binary keeps what a kernel edit needs, behind these gates:
//!
//! 1. **Kernel table** (one lane, so a large shape times the kernel and not
//!    a fork). `matmul_raw` vs the blocked kernel (packing per call, and
//!    against a cached pack) on the old per-head projection, the fused
//!    per-layer panel, the tied-embedding head and one XL engine tile's fused
//!    projection, with the dispatched kernel's baseline body
//!    (`gemm_packed_baseline`: the same source at the build's 128-bit width)
//!    beside it. Then `gelu_slice`, `softmax_row` and the blocked attn·V on
//!    the XL attention shape beside their libm / per-row reference loops.
//!    Gates: baseline body ≡ dispatched kernel ≡ `matmul_raw` on every timed
//!    shape and blocked attn·V ≡ the per-row products, bit for bit;
//!    `gelu_slice` ≥ 2x its libm loop (the softmax and attn·V ratios are
//!    recorded, not gated). Last, the item-index scan shape (`k = 16`,
//!    `m ∈ {1, 32}`, the 262 144-item catalog at `full`, 16 384 items at
//!    `smoke`), walked in the index's 1024-item score tiles: the `NR`-wide
//!    kernel vs the `SCAN_NR`-wide entry the index runs (512-bit where
//!    AVX-512F is detected) vs that entry's baseline body, all three gated ≡
//!    `matmul_raw` bit for bit, with GFLOP/s.
//! 2. **End-to-end batch-32 scoring.** A fitted DELRec scored through the
//!    engine's fused forward, best-of-3 wall with spans off. Gate: the engine
//!    and the autograd tape produce identical score bits.
//! 3. **Attribution** (one lane, spans on). The batch-32 profile: the
//!    `lm.qkv` + `lm.pack` share of wall against the 55.5 % `lm.qkv` share
//!    of the per-head projections the fused panel replaced. Gates: the share
//!    stays below that; spans cover ≥ 90 % of wall; and disabled-mode
//!    instrumentation costs < 2 % of part 2's pass — (spans per pass ×
//!    disabled-span cost + counters per pass × counter cost) ÷ pass wall,
//!    computed rather than A/B'd because no uninstrumented build exists.

use delrec_bench::harness::{best_ns, best_wall_ns, fill, fit_delrec, score_bits, ScoringWorkload};
use delrec_bench::{banner, write_json, CliArgs, ExperimentContext, Scale};
use delrec_core::{LmPreset, TeacherKind};
use delrec_data::synthetic::DatasetProfile;
use delrec_eval::json::Json;
use delrec_obs::MetricValue;
use delrec_tensor::{
    gemm_packed, gemm_packed_baseline, gemm_packed_panels, matmul_raw, matmul_raw_strided, pack_b,
    pack_b_into, pack_b_transposed, pack_b_transposed_into, scan_simd_lanes, simd_lanes,
    transpose_into, vmath, PackedB, NR, SCAN_NR,
};
use std::hint::black_box;
use std::time::Instant;

const BATCH: usize = 32;
/// `lm.qkv` share of batch-32 wall on the per-head projections the fused
/// panel replaced (measured in PR 4, before the blocked GEMM).
const PRE_PR_QKV_PCT: f64 = 55.5;
/// Keys per attention row in the XL serving prompt, and its head width.
const KEYS: usize = 127;
const D_HEAD: usize = 16;
/// `gelu_slice` must beat its scalar libm loop by this factor (≈ 4–10x when
/// vectorised): a kernel body that stops inlining falls back to one call
/// per element, which costs about what libm does.
const GELU_MIN_SPEEDUP: f64 = 2.0;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One timed kernel shape: gate bitwise equality (baseline body ≡ dispatched
/// kernel ≡ `matmul_raw`), then time naive, pack-per-call, cached-pack and
/// the baseline body over the cached pack.
fn kernel_case(label: &str, m: usize, k: usize, n: usize, iters: u32) -> Json {
    let a = fill(1, m * k);
    let b = fill(2, k * n);
    let bp: PackedB = pack_b(&b, k, n);
    let mut want = vec![0.0f32; m * n];
    matmul_raw(&a, &b, &mut want, m, k, n);
    // The timed kernels themselves, over the same pack they are timed on.
    let mut got = vec![f32::NAN; m * n];
    gemm_packed(&a, k, &bp, &mut got, m, false);
    assert_eq!(
        bits(&want),
        bits(&got),
        "correctness gate: dispatched kernel diverged from matmul_raw at {label}"
    );
    let mut body = vec![f32::NAN; m * n];
    let all = 0..n.div_ceil(NR);
    gemm_packed_baseline(&a, k, &bp, all.clone(), &mut body, m);
    assert_eq!(
        bits(&want),
        bits(&body),
        "correctness gate: baseline body diverged from matmul_raw at {label}"
    );

    let mut out = vec![0.0f32; m * n];
    let naive_ns = best_ns(iters, || {
        out.fill(0.0);
        matmul_raw(&a, &b, black_box(&mut out), m, k, n);
    });
    let pack_each_ns = best_ns(iters, || {
        let bp = pack_b(&b, k, n);
        gemm_packed(&a, k, &bp, black_box(&mut out), m, false);
    });
    let cached_ns = best_ns(iters, || {
        gemm_packed(&a, k, &bp, black_box(&mut out), m, false);
    });
    let body_ns = best_ns(iters, || {
        gemm_packed_baseline(&a, k, &bp, all.clone(), black_box(&mut out), m);
    });
    let gflops = (2 * m * k * n) as f64 / cached_ns;
    println!(
        "  {label:<28} [{m:>4}x{k:>2}x{n:>2}]  naive {naive_ns:8.0} ns   pack-each \
         {pack_each_ns:8.0} ns   cached-pack {cached_ns:8.0} ns ({:.2}x naive, {gflops:.1} \
         GFLOP/s)   baseline body {body_ns:8.0} ns ({:.2}x)",
        naive_ns / cached_ns,
        body_ns / cached_ns
    );
    Json::obj([
        ("label", Json::from(label)),
        ("m", Json::from(m)),
        ("k", Json::from(k)),
        ("n", Json::from(n)),
        ("naive_ns", Json::from(naive_ns)),
        ("pack_each_ns", Json::from(pack_each_ns)),
        ("cached_pack_ns", Json::from(cached_ns)),
        ("baseline_body_ns", Json::from(body_ns)),
        ("cached_pack_gflops", Json::from(gflops)),
        ("speedup_cached_vs_naive", Json::from(naive_ns / cached_ns)),
        (
            "speedup_dispatched_vs_body",
            Json::from(body_ns / cached_ns),
        ),
    ])
}

/// Items per score block of the timed scan: `ItemIndex::scan_top_k`'s tile,
/// so the `[m, SCAN_TILE]` block stays cache-resident as it does there and
/// the timing is the kernel's, not the write-back of an `[m, n]` matrix.
const SCAN_TILE: usize = 1024;

/// `a · B` one `SCAN_TILE`-item block at a time over a packed `B`, through
/// the serial panel-range entry the index's request path runs (or, with
/// `baseline`, its baseline body) into one reused `block`; each block is
/// also copied into `out` unless `out` is empty (the gate, not the timing).
fn scan_tiles<const W: usize>(
    a: &[f32],
    bp: &PackedB<W>,
    m: usize,
    block: &mut [f32],
    out: &mut [f32],
    baseline: bool,
) {
    let (k, n) = (bp.k(), bp.n());
    let panels = n.div_ceil(W);
    let per_tile = SCAN_TILE / W;
    for p0 in (0..panels).step_by(per_tile) {
        let range = p0..(p0 + per_tile).min(panels);
        let (j0, j1) = (range.start * W, (range.end * W).min(n));
        let block = &mut block[..m * (j1 - j0)];
        if baseline {
            gemm_packed_baseline(a, k, bp, range, block, m);
        } else {
            gemm_packed_panels(a, k, bp, range, block, m);
        }
        if !out.is_empty() {
            for (i, row) in block.chunks_exact(j1 - j0).enumerate() {
                out[i * n + j0..i * n + j1].copy_from_slice(row);
            }
        }
    }
}

/// The item-index scan shape `[m, k] · [k, n]` over a `[n, k]` embedding
/// matrix packed as the index packs it: gate the `NR`-wide kernel, the
/// `SCAN_NR`-wide entry and its baseline body ≡ `matmul_raw` bit for bit,
/// then time the three over the same tiles.
fn scan_case(m: usize, k: usize, n: usize) -> Json {
    let a = fill(5, m * k);
    let emb = fill(6, n * k);
    let mut bt = vec![0.0f32; k * n];
    transpose_into(&emb, n, k, &mut bt);
    let narrow: PackedB = pack_b_transposed(&emb, k, n);
    let mut wide = PackedB::<SCAN_NR>::default();
    pack_b_transposed_into(&emb, k, n, &mut wide);
    let mut want = vec![0.0f32; m * n];
    matmul_raw(&a, &bt, &mut want, m, k, n);
    let mut block = vec![0.0f32; m * SCAN_TILE];
    let mut got = vec![f32::NAN; m * n];
    let gate = |what: &str, got: &mut [f32]| {
        assert_eq!(
            bits(&want),
            bits(got),
            "correctness gate: {what} diverged from matmul_raw at the scan shape m={m} n={n}"
        );
        got.fill(f32::NAN);
    };
    scan_tiles(&a, &narrow, m, &mut block, &mut got, false);
    gate("NR-wide kernel", &mut got);
    scan_tiles(&a, &wide, m, &mut block, &mut got, false);
    gate("wide entry", &mut got);
    scan_tiles(&a, &wide, m, &mut block, &mut got, true);
    gate("wide baseline body", &mut got);

    // About 2^26 outputs per timed batch: a few hundred ms at either m.
    let iters = ((1usize << 26) / (m * n)).clamp(2, 4096) as u32;
    let narrow_ns = best_ns(iters, || {
        scan_tiles(&a, &narrow, m, black_box(&mut block), &mut [], false);
    });
    let wide_ns = best_ns(iters, || {
        scan_tiles(&a, &wide, m, black_box(&mut block), &mut [], false);
    });
    let body_ns = best_ns(iters, || {
        scan_tiles(&a, &wide, m, black_box(&mut block), &mut [], true);
    });
    let gflops = |ns: f64| (2 * m * k * n) as f64 / ns;
    println!(
        "  scan [{m:>2}x{k}x{n}]  NR-{NR} kernel {:6.1} GFLOP/s   {SCAN_NR}-wide entry \
         {:6.1} GFLOP/s ({:.2}x)   {SCAN_NR}-wide baseline body {:6.1} GFLOP/s",
        gflops(narrow_ns),
        gflops(wide_ns),
        narrow_ns / wide_ns,
        gflops(body_ns)
    );
    Json::obj([
        ("m", Json::from(m)),
        ("k", Json::from(k)),
        ("n", Json::from(n)),
        ("nr_kernel_ns", Json::from(narrow_ns)),
        ("wide_entry_ns", Json::from(wide_ns)),
        ("wide_baseline_body_ns", Json::from(body_ns)),
        ("nr_kernel_gflops", Json::from(gflops(narrow_ns))),
        ("wide_entry_gflops", Json::from(gflops(wide_ns))),
        ("wide_baseline_body_gflops", Json::from(gflops(body_ns))),
        ("speedup_wide_vs_nr", Json::from(narrow_ns / wide_ns)),
    ])
}

/// The vectorised loops and the blocked attn·V on the XL attention shape,
/// each beside its reference loop: `(label, kernel, reference)` in ns per
/// element (per MAC for attn·V). Gate: blocked attn·V ≡ one `m = 1` product
/// per query row, bitwise.
fn vector_kernel_rows() -> Vec<(&'static str, f64, f64)> {
    let src: Vec<f32> = fill(3, KEYS * KEYS).iter().map(|x| x * 8.0).collect();
    let elems = src.len() as f64;
    let mut buf = src.clone();
    let gelu = best_ns(128, || {
        buf.copy_from_slice(&src);
        vmath::gelu_slice(black_box(&mut buf));
    }) / elems;
    let gelu_libm = best_ns(128, || {
        buf.copy_from_slice(&src);
        for x in black_box(&mut buf).iter_mut() {
            let v = *x;
            *x = 0.5 * v * (1.0 + (0.797_884_6 * (v + 0.044_715 * v * v * v)).tanh());
        }
    }) / elems;
    let softmax = best_ns(128, || {
        buf.copy_from_slice(&src);
        for row in black_box(&mut buf).chunks_exact_mut(KEYS) {
            vmath::softmax_row(row);
        }
    }) / elems;
    let softmax_libm = best_ns(128, || {
        buf.copy_from_slice(&src);
        for row in black_box(&mut buf).chunks_exact_mut(KEYS) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            let inv = 1.0 / sum;
            row.iter_mut().for_each(|x| *x *= inv);
        }
    }) / elems;

    // attn·V of one (head, example): [KEYS, KEYS]·[KEYS, D_HEAD] as one
    // packed GEMM (pack included) vs one m = 1 product per query row.
    let v = fill(4, KEYS * D_HEAD);
    let blocked = |pack: &mut PackedB, out: &mut [f32]| {
        pack_b_into(black_box(&v), KEYS, D_HEAD, pack);
        gemm_packed_panels(
            black_box(&src),
            KEYS,
            pack,
            0..D_HEAD.div_ceil(NR),
            out,
            KEYS,
        );
    };
    let per_row = |out: &mut [f32]| {
        for (row, o) in black_box(&src)
            .chunks_exact(KEYS)
            .zip(out.chunks_exact_mut(D_HEAD))
        {
            matmul_raw_strided(row, KEYS, black_box(&v), o, 1, KEYS, D_HEAD, false);
        }
    };
    let mut pack = PackedB::default();
    let (mut got, mut want) = (vec![f32::NAN; KEYS * D_HEAD], vec![f32::NAN; KEYS * D_HEAD]);
    blocked(&mut pack, &mut got);
    per_row(&mut want);
    assert_eq!(
        bits(&got),
        bits(&want),
        "correctness gate: blocked attn·V diverged from the per-row products"
    );
    let macs = (KEYS * KEYS * D_HEAD) as f64;
    let attn_blocked = best_ns(16, || blocked(&mut pack, &mut got)) / macs;
    let attn_per_row = best_ns(16, || per_row(&mut want)) / macs;

    vec![
        ("gelu_slice vs libm tanh loop", gelu, gelu_libm),
        ("softmax_row@127 vs libm exp loop", softmax, softmax_libm),
        (
            "attn_v blocked vs per-row (ns/MAC)",
            attn_blocked,
            attn_per_row,
        ),
    ]
}

/// Sum of every counter in the global registry (counters are always on).
fn counter_total() -> u64 {
    delrec_obs::global()
        .snapshot()
        .into_iter()
        .map(|(_, v)| match v {
            MetricValue::Counter(c) => c,
            _ => 0,
        })
        .sum()
}

/// Nanoseconds per call of a disabled `span!` and of a counter increment.
fn instrumentation_ns() -> (f64, f64) {
    delrec_obs::set_enabled(false);
    let span_ns = best_ns(1_000_000, || {
        black_box(delrec_obs::span!("gemm_bench.probe"));
    });
    let counter_ns = best_ns(1_000_000, || {
        delrec_obs::counter!("gemm_bench.probe").incr();
    });
    (span_ns, counter_ns)
}

fn main() {
    let args = CliArgs::from_env();
    banner(&format!(
        "GEMM v2 — blocked kernel + fused projections (scale: {})",
        args.scale
    ));

    // ---- Part 1: the kernel table on the LM's shapes ---------------------
    // d = 16, dh = 8, ffn = 32, vocab ≈ 60 (the Large preset the scoring
    // pass uses); 96 rows ≈ batch-32 × 3 suffix positions.
    // The last shape is one XL engine tile: 8 prompts × 127 tokens through
    // the fused [32, 96] projection.
    let instantiation = match simd_lanes() {
        8 => "avx2-256",
        _ => "baseline-128",
    };
    let scan_instantiation = match scan_simd_lanes() {
        16 => "avx512f-512",
        8 => "avx2-256",
        _ => "baseline-128",
    };
    println!(
        "kernel (gate: baseline body == dispatched [{instantiation}] == matmul_raw, bitwise):"
    );
    let scan_items = match args.scale {
        Scale::Smoke => 16_384,
        Scale::Small => 65_536,
        Scale::Full => 262_144,
    };
    let (kernels, vector, scan) = delrec_par::with_pool(&delrec_par::ThreadPool::new(1), || {
        let kernels = Json::arr(vec![
            kernel_case("per-head projection", 96, 16, 8, 20_000),
            kernel_case("fused qkv panel", 96, 16, 48, 8_000),
            kernel_case("ffn w1", 96, 16, 32, 10_000),
            kernel_case("tied-embedding head", 32, 16, 60, 10_000),
            kernel_case("xl tile fused qkv", 1016, 32, 96, 400),
        ]);
        let vector = vector_kernel_rows();
        println!(
            "item-index scan (gate: NR-{NR} kernel == {SCAN_NR}-wide entry [{scan_instantiation}] \
             == its baseline body == matmul_raw, bitwise):"
        );
        let scan = Json::arr(vec![
            scan_case(1, 16, scan_items),
            scan_case(32, 16, scan_items),
        ]);
        (kernels, vector, scan)
    });
    for &(label, kernel, reference) in &vector {
        println!(
            "  {label:<36} {kernel:6.3} vs {reference:6.3} ns/elem ({:.2}x)",
            reference / kernel
        );
    }
    let (_, gelu, gelu_libm) = vector[0];
    assert!(
        gelu_libm / gelu >= GELU_MIN_SPEEDUP,
        "gelu_slice is {:.2}x its libm reference (< {GELU_MIN_SPEEDUP}x): the loop no longer vectorises",
        gelu_libm / gelu
    );

    // ---- Part 2: end-to-end batch-32 scoring on the fused forward --------
    let ctx = ExperimentContext::new(DatasetProfile::MovieLens100K, args.scale, args.seed);
    let model = fit_delrec(&ctx, TeacherKind::SASRec, LmPreset::Large);
    let work = ScoringWorkload::build(&ctx, args.seed, 64);
    let n = work.len();
    let score_pass = |model: &_| work.score_pass(model, BATCH);

    // Correctness gate: the engine and the tape agree bitwise, batch by batch.
    let fused_scores = score_pass(&model);
    let tape_scores: Vec<Vec<f32>> = work
        .requests()
        .chunks(BATCH)
        .flat_map(|batch| {
            let items: Vec<_> = batch.iter().map(|&(h, c)| (h, c, c)).collect();
            model.score_items_batch_tape(&items)
        })
        .collect();
    assert_eq!(
        score_bits(&fused_scores),
        score_bits(&tape_scores),
        "correctness gate: engine diverged from the tape"
    );
    println!("e2e gate: fused == tape over {n} requests (bitwise)");

    // One disabled-mode pass's registry delta: its counter events.
    let c0 = counter_total();
    black_box(score_pass(&model));
    let counters_per_pass = counter_total() - c0;

    // Timed pass: one warm-up (prefix cache, engine pool, weight pack, title
    // cache), then best-of-3 wall.
    let fused_ns = best_wall_ns(|| {
        black_box(score_pass(&model));
    });
    println!(
        "batch-{BATCH} score_candidates_batch: {:.2} ms per pass",
        fused_ns / 1e6
    );

    // ---- Part 3: attribution on the fused path ---------------------------
    const PASSES: usize = 5;
    delrec_obs::set_enabled(true);
    delrec_obs::reset();
    // One lane: spans running on parallel lanes would sum to more than wall
    // and inflate every share (coverage read 163 % on two cores).
    let one_lane = delrec_par::ThreadPool::new(1);
    let t0 = Instant::now();
    delrec_par::with_pool(&one_lane, || {
        for _ in 0..PASSES {
            black_box(score_pass(&model));
        }
    });
    let wall_ns = t0.elapsed().as_nanos() as f64;
    delrec_obs::set_enabled(false);
    let report = delrec_obs::profile();
    let flat = report.flat();
    let self_pct = |name: &str| -> f64 {
        let ns: u64 = flat
            .iter()
            .filter(|f| f.name == name)
            .map(|f| f.self_ns)
            .sum();
        100.0 * ns as f64 / wall_ns
    };
    let qkv_pct = self_pct("lm.qkv");
    let pack_pct = self_pct("lm.pack");
    let covered_ns: u64 = report.roots().iter().map(|r| r.total_ns).sum();
    let coverage_pct = 100.0 * covered_ns as f64 / wall_ns;
    let dominant = &flat[0];
    println!(
        "attribution: lm.qkv {qkv_pct:.1}% + lm.pack {pack_pct:.1}% of wall (was \
         {PRE_PR_QKV_PCT}% pre-PR); dominant span now {} ({:.1}%); coverage {coverage_pct:.1}%",
        dominant.name,
        100.0 * dominant.self_ns as f64 / wall_ns
    );
    assert!(
        qkv_pct + pack_pct < PRE_PR_QKV_PCT,
        "correctness of the attribution claim: projection share must drop"
    );
    assert!(
        coverage_pct >= 90.0,
        "span coverage {coverage_pct:.1}% below the 90% attribution bar"
    );

    // Disabled-mode overhead: this profile's events at the disabled
    // per-call prices, over part 2's pass (which may run on more lanes, so
    // the quotient errs high).
    let spans_per_pass = report.total_count() as f64 / PASSES as f64;
    let (span_ns, counter_ns) = instrumentation_ns();
    let overhead_ns = spans_per_pass * span_ns + counters_per_pass as f64 * counter_ns;
    let overhead_pct = 100.0 * overhead_ns / fused_ns;
    println!(
        "disabled overhead: {spans_per_pass:.0} spans × {span_ns:.2} ns + {counters_per_pass} \
         counters × {counter_ns:.2} ns over a {:.2} ms pass → {overhead_pct:.4}%",
        fused_ns / 1e6
    );
    assert!(
        overhead_pct < 2.0,
        "disabled-mode overhead {overhead_pct:.4}% breaches the 2% budget"
    );

    let blob = Json::obj([
        ("experiment", Json::from("gemm")),
        ("scale", Json::from(args.scale.to_string())),
        ("dataset", Json::from(ctx.dataset.name.clone())),
        ("instantiation", Json::from(instantiation)),
        ("simd_lanes", Json::from(simd_lanes())),
        ("kernels", kernels),
        ("scan_instantiation", Json::from(scan_instantiation)),
        ("scan_simd_lanes", Json::from(scan_simd_lanes())),
        ("scan_kernels", scan),
        (
            "vector_kernels",
            Json::arr(vector.iter().map(|&(label, kernel, reference)| {
                Json::obj([
                    ("label", Json::from(label)),
                    ("ns_per_elem", Json::from(kernel)),
                    ("reference_ns_per_elem", Json::from(reference)),
                    ("speedup", Json::from(reference / kernel)),
                ])
            })),
        ),
        (
            "e2e",
            Json::obj([
                ("batch", Json::from(BATCH)),
                ("requests_per_pass", Json::from(n)),
                ("fused_wall_ns", Json::from(fused_ns)),
            ]),
        ),
        (
            "attribution",
            Json::obj([
                ("passes", Json::from(PASSES)),
                ("wall_ns", Json::from(wall_ns)),
                ("coverage_pct", Json::from(coverage_pct)),
                ("qkv_pct_of_wall", Json::from(qkv_pct)),
                ("pack_pct_of_wall", Json::from(pack_pct)),
                ("pre_pr_qkv_pct_of_wall", Json::from(PRE_PR_QKV_PCT)),
                (
                    "dominant",
                    Json::obj([
                        ("name", Json::from(dominant.name)),
                        (
                            "pct_of_wall",
                            Json::from(100.0 * dominant.self_ns as f64 / wall_ns),
                        ),
                    ]),
                ),
            ]),
        ),
        (
            "disabled_overhead",
            Json::obj([
                ("span_ns_per_call", Json::from(span_ns)),
                ("counter_ns_per_call", Json::from(counter_ns)),
                ("spans_per_pass", Json::from(spans_per_pass)),
                ("counters_per_pass", Json::from(counters_per_pass as f64)),
                ("pass_wall_ns", Json::from(fused_ns)),
                ("overhead_pct", Json::from(overhead_pct)),
            ]),
        ),
    ]);
    write_json(&args.out, "BENCH_gemm", &blob).expect("write results");
}
