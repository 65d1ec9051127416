#!/usr/bin/env bash
# Repo-wide checks: formatting, lints (warnings are errors), and tests.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --workspace -- -D warnings
# The observability crate is a zero-dependency leaf everything else links
# against; hold it (tests included) to the same warnings-are-errors bar.
cargo clippy -p delrec-obs --all-targets -- -D warnings
# The tensor crate carries the GEMM micro-kernel; lint its tests and the
# gemm property suite at the same bar.
cargo clippy -p delrec-tensor --all-targets -- -D warnings
# The LM crate owns the engine's tile loop and its equivalence suites; lint
# it (tests included) at the same bar.
cargo clippy -p delrec-lm --all-targets -- -D warnings
# The thread pool underpins every parallel path and owns the only unsafe
# lifetime erasure in the workspace; lint it (tests included) at -D warnings.
cargo clippy -p delrec-par --all-targets -- -D warnings
# The retrieval crate pins the full-catalog scan's determinism contract;
# lint it (tests and proptests included) at the same bar.
cargo clippy -p delrec-retrieval --all-targets -- -D warnings
# The seqrec crate holds two of the three models built on the tape's attention
# node and the suite that pins their training bits; same bar.
cargo clippy -p delrec-seqrec --all-targets -- -D warnings
# The serve crate's suites pin the scheduler's flush policy, admission and
# served ≡ direct; lint them (tests included) at the same bar.
cargo clippy -p delrec-serve --all-targets -- -D warnings
# The benchmark package (perfbench/, a workspace of its own) builds the
# product crates through path dependencies and uses only their public API:
# build it here so an API break against it is caught before the pipeline
# runs it.
cargo build --release --manifest-path perfbench/Cargo.toml
# Every suite in the workspace (the root Cargo.toml's `default-members`
# covers the root package and every crate) must pass single-threaded (pool
# runs inline) and multi-threaded (parallel paths engage); results are
# bitwise-identical either way, so both runs use the same expectations. The
# suites most sensitive to the pool size — lm's par_determinism, retrieval,
# serve (incl. topk_serving), tests/streaming_retrieval.rs — ride in these
# two lines; several also inject lanes {1,2,4,8} themselves via with_pool.
DELREC_THREADS=1 cargo test -q
DELREC_THREADS=4 cargo test -q
# The tensor kernels run `unsafe` `#[target_feature]` twins picked at run
# time, and the LM engine's bitwise pins sit on top of them. The test profile
# keeps `debug_assert!` on; release drops it (and links with thin LTO, where
# the twins get their 256-bit code), so both crates must also hold there —
# and delrec-seqrec with them: the tape's attention node is now the attention
# of all three models (MiniLM, SASRec, BERT4Rec) and its blessed training
# bits must hold without `debug_assert!` too.
cargo test --release -q -p delrec-tensor -p delrec-lm -p delrec-seqrec
# The fitted-parameter checksums (one- and two-layer fits, both pretrained
# LMs) and the golden metrics must hold where the 256-bit kernels engage too.
cargo test --release -q --test golden_metrics

# Smoke-run the durability soak: sustained open-loop traffic across a live
# model hot-swap and a simulated kill/recover, gating zero lost sessions,
# bitwise WAL recovery, bitwise swap transparency for untouched sessions,
# a consistent request ledger, and bounded p99.
cargo run --release -q -p delrec-bench --bin soak -- --scale smoke --out "$(mktemp -d)"

# Smoke-run the kernel table: asserts the blocked kernel (dispatched and
# baseline body) is bitwise identical to matmul_raw on every timed shape, the
# blocked attn·V bitwise the per-row products, and the vmath GELU loop >= 2x
# its scalar libm reference (i.e. still vectorised); that engine and tape
# scoring agree to the bit; and that the batch-32 profile's spans cover
# >= 90% of wall while disabled-mode span/counter overhead stays under 2% of
# a scoring pass.
cargo run --release -q -p delrec-bench --bin gemm -- --scale smoke --out "$(mktemp -d)"

# Smoke-run the thread-pool scaling benchmark: asserts parallel GEMM and
# batch scoring are bitwise identical to the 1-thread path at every timed
# thread count before reporting any scaling curve.
cargo run --release -q -p delrec-bench --bin par -- --scale smoke --out "$(mktemp -d)"

# Smoke-run the retrieval benchmark: asserts the full-catalog stage's
# recall floors at depth min(100, n_items/4) and half of it (1.4x the random
# baseline — a gate that can fail on the 40-item smoke catalog, where
# retrieving 100 could not), the end-to-end HR/NDCG budget of the one-row
# re-rank vs the oracle-candidate protocol, bitwise thread-count determinism
# of both retrieval and recommend, and the batched-≡-sequential gate
# (retrieve_batch and recommend_batch vs the m=1 loop at B {1,5,32}, both
# formats) before timing the scan sweep and the coalesced-vs-sequential
# comparison (GEMM only and at the retrieve level).
cargo run --release -q -p delrec-bench --bin retrieval -- --scale smoke --out "$(mktemp -d)"

# Smoke-run the re-rank quality experiment on one profile and one seed. At
# this scale it asserts only that the served one-row re-rank scores its 15
# shown items bitwise as score_candidates does, that the served lists are the
# one-row scores sorted, and that every compared list is well formed; its
# quality numbers come from `--scale small` (EXPERIMENTS.md).
cargo run --release -q -p delrec-bench --bin repro_rerank -- --scale smoke --datasets movielens --out "$(mktemp -d)"
