//! Differentiable operations, implemented as methods on [`crate::Tape`].
//!
//! Each submodule groups a family of ops; every op's gradient is verified
//! against finite differences in its module tests and in the crate's
//! property-test suite.

mod activation;
mod attention;
mod dispatch;
mod elementwise;
mod embedding;
mod gemm;
mod matmul;
mod norm;
mod reduce;
mod slice;
mod softmax;
pub mod vmath;

pub use dispatch::simd_lanes;
pub use gemm::{
    gemm, gemm_auto, gemm_packed, gemm_packed_baseline, gemm_packed_panels, gemm_packed_q8,
    gemm_packed_q8_panels, matmul_raw_strided, pack_b, pack_b_into, pack_b_q8, pack_b_transposed,
    quantize_pack, PackedB, QuantizedPanel, AUTO_PACK_MIN_MACS, MR, NR,
};
pub use matmul::{matmul_raw, transpose_into};

// The layer-norm epsilon is shared with the grad-free inference path
// (`crate::infer`), which must mirror the tape's arithmetic bitwise.
pub(crate) use norm::EPS as LN_EPS;
