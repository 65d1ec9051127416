//! Grad-free inference kernels: pooled scratch buffers over the same
//! arithmetic the tape's forward runs.
//!
//! [`crate::Tape`] pays for differentiability on every op — a node
//! allocation, parent bookkeeping, and a boxed backward closure — which is
//! pure overhead when no gradient will ever be taken. [`InferCtx`] is the
//! inference-side counterpart: a [`BufferPool`] and nothing else. Softmax and
//! GELU *are* the tape's — both sides call the one kernel set in
//! [`crate::vmath`] — and [`layer_norm_rows`] reproduces the tape's
//! `layer_norm` forward bitwise, so a forward pass built on them is
//! indistinguishable from a tape forward — the property the LM-level
//! equivalence tests pin down.

use crate::ops::{vmath, LN_EPS};
use crate::tape::BufferPool;
use std::sync::Arc;

/// The one numeric mode of a grad-free forward: f32 weights, bitwise the
/// tape's forward. Nothing reads it; the type exists only because the frozen
/// `perfbench/` package names it, and goes with that package's
/// `[benchmark]` PR (ROADMAP 6(3)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MathMode {
    /// f32 weights; bitwise identical to the tape forward.
    #[default]
    Exact,
}

/// Row-wise layer normalization of `x` (row width = `gamma.len()`) into
/// `out`, bitwise identical to the tape's `layer_norm` forward (same biased
/// variance, same epsilon, same `(x − μ)·istd·γ + β` evaluation order).
pub fn layer_norm_rows(x: &[f32], gamma: &[f32], beta: &[f32], out: &mut [f32]) {
    let _span = delrec_obs::span!("tensor.layer_norm");
    let d = gamma.len();
    debug_assert_eq!(beta.len(), d);
    debug_assert_eq!(x.len(), out.len());
    debug_assert_eq!(x.len() % d, 0);
    for (row, out_row) in x.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
        let mean = row.iter().sum::<f32>() / d as f32;
        let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let istd = 1.0 / (var + LN_EPS).sqrt();
        for c in 0..d {
            out_row[c] = (row[c] - mean) * istd * gamma[c] + beta[c];
        }
    }
}

/// Context for grad-free forward passes: a shared [`BufferPool`]. The
/// inference analogue of [`crate::Ctx`], minus the tape.
#[derive(Default)]
pub struct InferCtx {
    pool: Arc<BufferPool>,
}

impl InferCtx {
    /// [`InferCtx::default`] under the signature the frozen `perfbench/`
    /// package calls; goes with [`MathMode`].
    pub fn new(_math: MathMode) -> Self {
        Self::default()
    }

    /// The backing buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Zeroed scratch buffer of length `n` from the pool.
    pub fn alloc(&self, n: usize) -> Vec<f32> {
        self.pool.take(n)
    }

    /// Pooled copy of `src`.
    pub fn alloc_copy(&self, src: &[f32]) -> Vec<f32> {
        self.pool.take_copy(src)
    }

    /// Return a finished scratch buffer to the pool.
    pub fn recycle(&self, buf: Vec<f32>) {
        self.pool.put(buf);
    }

    /// In-place GELU over a slice: the tape's [`vmath::gelu`], per element.
    pub fn gelu(&self, xs: &mut [f32]) {
        let _span = delrec_obs::span!("tensor.gelu");
        vmath::gelu_slice(xs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use crate::tensor::Tensor;

    #[test]
    fn softmax_row_is_bitwise_equal_to_tape_softmax() {
        // 11 elements: one full lane chunk plus a tail.
        let raw = vec![
            0.3f32, -1.2, 2.0, 0.45, -0.8, 1.1, -0.05, 0.7, -2.4, 0.9, 0.0,
        ];
        let tape = Tape::new();
        let v = tape.leaf(Tensor::from_vec(raw.clone()));
        let want = tape.get(tape.softmax(v));
        let mut got = raw;
        vmath::softmax_row(&mut got);
        assert_eq!(got.as_slice(), want.data());
    }

    #[test]
    fn layer_norm_rows_is_bitwise_equal_to_tape_layer_norm() {
        let raw = vec![0.3f32, -1.2, 2.0, 0.45, -0.8, 0.1, 1.7, -0.33];
        let gamma = vec![1.1f32, 0.9, 1.0, 1.3];
        let beta = vec![0.05f32, -0.1, 0.0, 0.2];
        let tape = Tape::new();
        let x = tape.leaf(Tensor::new([2, 4], raw.clone()));
        let g = tape.leaf(Tensor::from_vec(gamma.clone()));
        let b = tape.leaf(Tensor::from_vec(beta.clone()));
        let want = tape.get(tape.layer_norm(x, g, b));
        let mut got = vec![0.0f32; raw.len()];
        layer_norm_rows(&raw, &gamma, &beta, &mut got);
        assert_eq!(got.as_slice(), want.data());
    }

    #[test]
    fn gelu_is_bitwise_equal_to_tape_gelu() {
        let raw = vec![-3.0f32, -0.5, 0.0, 0.5, 3.0];
        let tape = Tape::new();
        let v = tape.leaf(Tensor::from_vec(raw.clone()));
        let want = tape.get(tape.gelu(v));
        let mut got = raw;
        InferCtx::default().gelu(&mut got);
        assert_eq!(got.as_slice(), want.data());
    }

    #[test]
    fn infer_ctx_recycles_buffers() {
        let ic = InferCtx::default();
        let mut buf = ic.alloc(64);
        assert_eq!(buf.len(), 64);
        buf.iter_mut().for_each(|v| *v = 5.0);
        ic.recycle(buf);
        let again = ic.alloc(64);
        assert!(again.iter().all(|&v| v == 0.0), "recycled buffer zeroed");
        assert_eq!(ic.pool().len(), 0, "buffer was reused");
    }
}
