//! Dense tensors and reverse-mode automatic differentiation.
//!
//! This crate is the numeric substrate for the whole DELRec workspace: the
//! conventional sequential recommenders (`delrec-seqrec`), the MiniLM language
//! model (`delrec-lm`), and the DELRec framework itself (`delrec-core`) all
//! build their forward passes on [`Tape`] and train through [`Tape::backward`].
//!
//! Design notes:
//!
//! * [`Tensor`] is a dense, row-major `f32` buffer plus a shape. Models here
//!   are small (embedding dims 16–64), so simplicity and cache-friendly
//!   contiguous layouts beat clever stride tricks.
//! * [`Tape`] implements define-by-run autograd: each op appends a node whose
//!   backward closure maps the upstream gradient to per-parent gradients.
//!   Correctness of every op is checked against finite differences in the
//!   test-suite (see [`grad_check`]).
//! * [`params::ParamStore`] owns named trainable tensors; [`params::Ctx`]
//!   binds them into a tape for one forward/backward pass; [`optim`] applies
//!   updates (SGD, Adam, Adagrad, and the Lion optimizer the paper uses).

#![warn(missing_docs)]

pub mod grad_check;
pub mod infer;
pub mod init;
pub mod optim;
pub mod params;
pub mod serialize;
pub mod shape;
pub mod tape;
pub mod tensor;

mod ops;

pub use infer::{InferCtx, MathMode};
pub use ops::vmath;
pub use ops::{
    gemm_auto, gemm_packed, gemm_packed_baseline, gemm_packed_panels, gemm_packed_q8, matmul_raw,
    matmul_raw_strided, pack_b, pack_b_into, pack_b_transposed, pack_b_transposed_into,
    quantize_pack, scan_simd_lanes, simd_lanes, transpose_into, PackedB, QuantizedPanel,
    AUTO_PACK_MIN_MACS, MR, NR, SCAN_NR,
};
pub use params::{Ctx, ParamId, ParamStore, VersionedSlot};
pub use shape::{k_group_rows, Rows, Shape, K_GROUP};
pub use tape::{BufferPool, BwdCtx, Gradients, Tape, Var};
pub use tensor::Tensor;
