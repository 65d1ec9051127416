//! Define-by-run reverse-mode autograd.
//!
//! A [`Tape`] records every operation as a node holding its output value, its
//! parent node ids, and a backward closure that maps the upstream gradient to
//! one gradient per parent. [`Tape::backward`] walks the nodes in reverse
//! topological order (which is simply reverse creation order) accumulating
//! gradients.
//!
//! Two pieces keep the hot path allocation-light:
//!
//! * Backward closures receive a [`BwdCtx`] giving read access to every node
//!   value already on the tape, so ops capture [`Var`] handles and small
//!   metadata instead of cloning their operands into the closure.
//! * A [`BufferPool`] recycles `Vec<f32>` buffers within one pass. Node
//!   values return to the tape's pool when the tape drops, gradients when
//!   [`Gradients`] drops, and both forward and backward passes allocate
//!   scratch through it, so a backward pass runs largely in the memory its
//!   forward pass freed.
//! * Only what the loss can differentiate is differentiated. A
//!   [`Tape::constant`] — a frozen parameter, a fixed input — needs no
//!   gradient, nor does any node computed from constants alone: such nodes
//!   drop their backward closure when recorded, and an op whose other
//!   parents do need one skips the constant's ([`BwdCtx::wants`]).

use crate::shape::Shape;
use crate::tensor::Tensor;
use std::cell::{Ref, RefCell};
use std::sync::{Arc, Mutex};

/// Handle to a value recorded on a [`Tape`]. Cheap to copy; only valid for
/// the tape that created it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var {
    pub(crate) id: usize,
}

/// Size-classed free list of `f32` buffers.
///
/// Buffers are binned by `floor(log2(capacity))`, so a request of `n`
/// elements is served from the first non-empty bin of capacity ≥ `n` (at most
/// two bins above the exact fit, to avoid handing huge buffers to tiny
/// requests). Misses fall back to a fresh allocation; each bin is capped, and
/// the pool as a whole holds at most [`BufferPool::total_float_cap`] floats,
/// so a one-off giant pass (or a serving peak) cannot pin memory forever.
///
/// The free lists are **sharded by thread**: each thread is pinned
/// round-robin to one of a fixed set of lock-striped shards, so the parallel
/// scoring path (`delrec-par` workers each running their own chunk) recycles
/// scratch without contending on a single mutex. A thread takes from and
/// returns to its own shard, which also keeps recycling hit rates intact —
/// a worker gets back the very buffers it freed. Each shard enforces
/// `total_float_cap / shards`, so the pool-wide retention bound holds under
/// any number of workers without a racy global counter.
pub struct BufferPool {
    shards: Box<[Mutex<PoolInner>]>,
    /// Per-shard retention bound (`total_float_cap / shards`).
    shard_float_cap: usize,
    /// Pool-wide retention bound: total pooled floats never exceeds this.
    total_float_cap: usize,
}

#[derive(Default)]
struct PoolInner {
    bins: Vec<Vec<Vec<f32>>>,
    /// Sum of `capacity()` over every pooled buffer.
    total_floats: usize,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::with_total_float_cap(POOL_TOTAL_FLOAT_CAP)
    }
}

/// Shard count for every pool in the process: enough for the configured lane
/// count (power of two for cheap masking), at least 4 so test-injected pools
/// on small machines still spread, at most 16 to bound per-pool overhead.
/// Computed once: `default_lanes` reads the environment (and, with
/// `DELREC_THREADS` unset, the affinity mask and cgroup files; with it
/// invalid, prints a warning), and every tape builds a pool.
fn pool_shards() -> usize {
    static SHARDS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *SHARDS.get_or_init(|| {
        delrec_par::default_lanes()
            .max(4)
            .next_power_of_two()
            .min(16)
    })
}

/// This thread's home shard, assigned round-robin at first use.
fn home_shard(nshards: usize) -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SEED: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SEED.with(|s| *s) & (nshards - 1)
}

/// Per-bin retention cap. 64 buffers per size class comfortably covers the
/// widest layer fan-out in this workspace while bounding steady-state memory.
const POOL_BIN_CAP: usize = 64;
/// How many bins above the exact size class to search before allocating.
const POOL_SLACK_BINS: usize = 2;
/// Default total retention cap: 32 Mi floats (128 MiB). Large enough that a
/// training step or a batched forward recycles everything it touches, small
/// enough that a long-running server cannot accrete peak-load allocations.
const POOL_TOTAL_FLOAT_CAP: usize = 32 << 20;

fn size_class(n: usize) -> usize {
    // floor(log2(n)) for n ≥ 1; class 0 holds capacities 1..=1, etc.
    usize::BITS as usize - 1 - (n.max(1)).leading_zeros() as usize
}

impl BufferPool {
    /// Fresh, empty pool with the default retention cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh pool retaining at most `total_floats` floats across all bins
    /// (each ~4 bytes). Serving deployments size this to their memory budget;
    /// tests shrink it to exercise eviction.
    pub fn with_total_float_cap(total_floats: usize) -> Self {
        let n = pool_shards();
        let shards: Vec<Mutex<PoolInner>> = (0..n).map(|_| Mutex::default()).collect();
        BufferPool {
            shards: shards.into_boxed_slice(),
            shard_float_cap: total_floats / n,
            total_float_cap: total_floats,
        }
    }

    /// The pool's retention cap, in floats.
    pub fn total_float_cap(&self) -> usize {
        self.total_float_cap
    }

    /// Total floats currently pooled (sum of buffer capacities across
    /// shards). Each shard respects its own slice of the cap, so this never
    /// exceeds [`total_float_cap`](Self::total_float_cap) even transiently.
    pub fn total_floats(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().total_floats)
            .sum()
    }

    /// The shard serving the current thread.
    fn shard(&self) -> &Mutex<PoolInner> {
        &self.shards[home_shard(self.shards.len())]
    }

    /// A zeroed buffer of length `n`, recycled when possible.
    ///
    /// Normalization is the pool's job, never the call site's: whatever was
    /// `put` in, the returned buffer has `len() == n` exactly, every element
    /// `0.0`, and capacity at most one size class above the slack-bin search
    /// ceiling — a recycled buffer that once served a much larger request is
    /// trimmed here rather than handed back over-long.
    pub fn take(&self, n: usize) -> Vec<f32> {
        delrec_obs::counter!("tensor.pool.take").incr();
        if let Some(mut buf) = self.take_raw(n) {
            Self::normalize(&mut buf, n);
            buf.resize(n, 0.0);
            return buf;
        }
        delrec_obs::counter!("tensor.pool.miss").incr();
        vec![0.0; n]
    }

    /// A buffer holding a copy of `src`, recycled when possible. Same
    /// normalization guarantees as [`BufferPool::take`], with
    /// `len() == src.len()`.
    pub fn take_copy(&self, src: &[f32]) -> Vec<f32> {
        delrec_obs::counter!("tensor.pool.take").incr();
        if let Some(mut buf) = self.take_raw(src.len()) {
            Self::normalize(&mut buf, src.len());
            buf.extend_from_slice(src);
            return buf;
        }
        delrec_obs::counter!("tensor.pool.miss").incr();
        src.to_vec()
    }

    /// Empty a recycled buffer and bound its capacity for a request of `n`
    /// elements. `take_raw` already limits the served size class, so the
    /// shrink is defense in depth: the guarantee belongs to the pool, not to
    /// the bin search.
    fn normalize(buf: &mut Vec<f32>, n: usize) {
        buf.clear();
        let cls = size_class(n) + POOL_SLACK_BINS + 1;
        if cls < usize::BITS as usize && buf.capacity() > (1 << cls) {
            buf.shrink_to(1 << cls);
        }
    }

    fn take_raw(&self, n: usize) -> Option<Vec<f32>> {
        if n == 0 {
            return None;
        }
        let mut inner = self.shard().lock().unwrap();
        let lo = size_class(n);
        if lo >= inner.bins.len() {
            return None;
        }
        // Capacities in n's own class straddle n — scan for one that fits.
        if let Some(pos) = inner.bins[lo].iter().rposition(|b| b.capacity() >= n) {
            let buf = inner.bins[lo].swap_remove(pos);
            inner.total_floats -= buf.capacity();
            return Some(buf);
        }
        // Every buffer in a strictly higher class is guaranteed to fit.
        let hi = (lo + POOL_SLACK_BINS).min(inner.bins.len() - 1);
        for cls in lo + 1..=hi {
            if let Some(buf) = inner.bins[cls].pop() {
                debug_assert!(buf.capacity() >= n);
                inner.total_floats -= buf.capacity();
                return Some(buf);
            }
        }
        None
    }

    /// Return a buffer to the pool. Buffers beyond the per-class cap, beyond
    /// the pool's total-float cap, or with no capacity are simply dropped —
    /// retention is bounded no matter how hard a load peak churned.
    pub fn put(&self, buf: Vec<f32>) {
        let cap = buf.capacity();
        if cap == 0 {
            return;
        }
        let mut inner = self.shard().lock().unwrap();
        if inner.total_floats + cap > self.shard_float_cap {
            return; // over budget: let the allocator have it back
        }
        let cls = size_class(cap);
        if inner.bins.len() <= cls {
            inner.bins.resize_with(cls + 1, Vec::new);
        }
        if inner.bins[cls].len() < POOL_BIN_CAP {
            inner.bins[cls].push(buf);
            inner.total_floats += cap;
        }
    }

    /// Number of buffers currently pooled (diagnostics and tests).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().bins.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// True when nothing is pooled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Everything a backward closure may touch: the upstream gradient, the values
/// of all tape nodes (so closures read operands instead of owning clones of
/// them), this node's own forward output, and the buffer pool for scratch.
pub struct BwdCtx<'a> {
    nodes: &'a [Node],
    id: usize,
    grad: &'a Tensor,
    pool: &'a BufferPool,
}

impl<'a> BwdCtx<'a> {
    /// Gradient of the loss with respect to this node's output.
    pub fn grad(&self) -> &'a Tensor {
        self.grad
    }

    /// Value of any variable recorded before this node (operands, usually).
    pub fn value(&self, v: Var) -> &'a Tensor {
        &self.nodes[v.id].value
    }

    /// Whether the loss's gradient with respect to `v` is wanted — false
    /// for a [`Tape::constant`] and anything computed from constants alone.
    /// A backward closure may skip such a parent's gradient and return
    /// [`BwdCtx::unread`] in its place.
    pub fn wants(&self, v: Var) -> bool {
        self.nodes[v.id].needs_grad
    }

    /// The stand-in for a gradient [`BwdCtx::wants`] says nobody reads: an
    /// empty tensor, which the tape drops.
    pub fn unread(&self) -> Tensor {
        Tensor::new([0], Vec::new())
    }

    /// This node's own forward output.
    pub fn out(&self) -> &'a Tensor {
        &self.nodes[self.id].value
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
}

type BackwardFn = Box<dyn Fn(&BwdCtx) -> Vec<Tensor>>;

pub(crate) struct Node {
    value: Tensor,
    parents: Vec<usize>,
    backward: Option<BackwardFn>,
    /// A [`Tape::leaf`], or computed from one: the loss's gradient with
    /// respect to this node is wanted.
    needs_grad: bool,
}

/// A gradient tape: the computation graph for one forward/backward pass.
///
/// Tapes are intended to be short-lived — build one per training step, call
/// [`Tape::backward`], read the gradients, and drop it. Each tape recycles
/// its own buffers through a private [`BufferPool`].
///
/// ```
/// use delrec_tensor::{Tape, Tensor};
///
/// let tape = Tape::new();
/// let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0]));
/// let y = tape.sqr(x);              // y = x²
/// let loss = tape.sum_all(y);       // loss = Σ x²
/// let grads = tape.backward(loss);
/// assert_eq!(grads.get(x).unwrap().data(), &[2.0, 4.0, 6.0]); // d/dx = 2x
/// ```
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: RefCell<Vec<Node>>,
    pool: Arc<BufferPool>,
}

impl Tape {
    /// Create an empty tape with its own private buffer pool.
    pub fn new() -> Self {
        Tape::default()
    }

    /// The buffer pool backing this tape.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Zeroed buffer of length `n` from this tape's pool (forward scratch).
    pub fn alloc(&self, n: usize) -> Vec<f32> {
        self.pool.take(n)
    }

    /// Pooled copy of `src`.
    pub fn alloc_copy(&self, src: &[f32]) -> Vec<f32> {
        self.pool.take_copy(src)
    }

    /// Record a leaf value (an input or trainable parameter). Leaves receive
    /// gradients but have no backward function.
    pub fn leaf(&self, value: Tensor) -> Var {
        self.record(value, vec![], None, true)
    }

    /// Record a constant: a leaf whose gradient is never computed (a frozen
    /// parameter, a fixed input), so neither is that of any node computed
    /// from constants alone. [`Gradients::get`] returns `None` for it.
    pub fn constant(&self, value: Tensor) -> Var {
        self.record(value, vec![], None, false)
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True if the tape has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow the value of a variable.
    pub fn value(&self, v: Var) -> Ref<'_, Tensor> {
        Ref::map(self.nodes.borrow(), |nodes| &nodes[v.id].value)
    }

    /// Clone the value of a variable out of the tape.
    pub fn get(&self, v: Var) -> Tensor {
        self.nodes.borrow()[v.id].value.clone()
    }

    /// Shape of a variable's value.
    pub fn shape_of(&self, v: Var) -> Shape {
        self.nodes.borrow()[v.id].value.shape().clone()
    }

    /// Record an op's output. It wants a gradient if any parent does; if none
    /// does, its backward closure is dropped here, with whatever it holds.
    pub(crate) fn push(
        &self,
        value: Tensor,
        parents: Vec<usize>,
        backward: Option<BackwardFn>,
    ) -> Var {
        let needs_grad = {
            let nodes = self.nodes.borrow();
            parents.iter().any(|&p| nodes[p].needs_grad)
        };
        let backward = backward.filter(|_| needs_grad);
        self.record(value, parents, backward, needs_grad)
    }

    fn record(
        &self,
        value: Tensor,
        parents: Vec<usize>,
        backward: Option<BackwardFn>,
        needs_grad: bool,
    ) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        let id = nodes.len();
        nodes.push(Node {
            value,
            parents,
            backward,
            needs_grad,
        });
        Var { id }
    }

    /// Run reverse-mode differentiation from `loss` (which must be a scalar)
    /// and return the gradient of every node with respect to it.
    ///
    /// # Panics
    /// Panics if `loss` is not a single-element tensor.
    pub fn backward(&self, loss: Var) -> Gradients {
        let _span = delrec_obs::span!("tensor.backward");
        let nodes = self.nodes.borrow();
        assert_eq!(
            nodes[loss.id].value.numel(),
            1,
            "backward() requires a scalar loss, got shape {}",
            nodes[loss.id].value.shape()
        );
        let mut grads: Vec<Option<Tensor>> = (0..nodes.len()).map(|_| None).collect();
        grads[loss.id] = Some(Tensor::full(nodes[loss.id].value.shape().clone(), 1.0));
        for id in (0..=loss.id).rev() {
            let Some(g) = grads[id].as_ref() else {
                continue;
            };
            let node = &nodes[id];
            if let Some(back) = &node.backward {
                let ctx = BwdCtx {
                    nodes: &nodes,
                    id,
                    grad: g,
                    pool: &self.pool,
                };
                let parent_grads = back(&ctx);
                debug_assert_eq!(
                    parent_grads.len(),
                    node.parents.len(),
                    "backward fn returned wrong number of gradients"
                );
                for (&pid, pg) in node.parents.iter().zip(parent_grads) {
                    if !nodes[pid].needs_grad {
                        self.pool.put(pg.into_data());
                        continue;
                    }
                    debug_assert_eq!(
                        pg.shape(),
                        nodes[pid].value.shape(),
                        "gradient shape mismatch for parent node {pid}"
                    );
                    match &mut grads[pid] {
                        Some(existing) => {
                            existing.add_assign(&pg);
                            self.pool.put(pg.into_data());
                        }
                        slot @ None => *slot = Some(pg),
                    }
                }
            }
        }
        Gradients {
            grads,
            pool: Arc::clone(&self.pool),
        }
    }
}

impl Drop for Tape {
    fn drop(&mut self) {
        // Hand every node's buffer back to the pool so the next tape built on
        // the same pool replays the step without fresh allocations.
        for node in self.nodes.get_mut().drain(..) {
            self.pool.put(node.value.into_data());
        }
    }
}

/// Gradients of every tape node with respect to the loss passed to
/// [`Tape::backward`]. Gradients not moved out with [`Gradients::take`]
/// return to the tape's buffer pool on drop.
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
    pool: Arc<BufferPool>,
}

impl Gradients {
    /// Gradient of `v`, or `None` if the loss did not depend on it.
    pub fn get(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.id).and_then(|g| g.as_ref())
    }

    /// Gradient of `v`, defaulting to zeros of the given shape when the loss
    /// did not depend on it.
    pub fn get_or_zeros(&self, v: Var, shape: &Shape) -> Tensor {
        self.get(v)
            .cloned()
            .unwrap_or_else(|| Tensor::zeros(shape.clone()))
    }

    /// Take ownership of the gradient of `v`.
    pub fn take(&mut self, v: Var) -> Option<Tensor> {
        self.grads.get_mut(v.id).and_then(|g| g.take())
    }
}

impl Drop for Gradients {
    fn drop(&mut self) {
        for g in self.grads.drain(..).flatten() {
            self.pool.put(g.into_data());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrip() {
        let tape = Tape::new();
        let v = tape.leaf(Tensor::from_vec(vec![1., 2., 3.]));
        assert_eq!(tape.get(v).data(), &[1., 2., 3.]);
        assert_eq!(tape.len(), 1);
    }

    #[test]
    fn backward_through_chain() {
        // loss = sum(2 * x) => dloss/dx = 2 everywhere.
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1., 2., 3.]));
        let y = tape.scale(x, 2.0);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).unwrap().data(), &[2., 2., 2.]);
    }

    #[test]
    fn gradient_accumulates_over_fanout() {
        // loss = sum(x + x) => dloss/dx = 2.
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![5., -1.]));
        let y = tape.add(x, x);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).unwrap().data(), &[2., 2.]);
    }

    #[test]
    fn unused_leaf_has_no_gradient() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0]));
        let unused = tape.leaf(Tensor::from_vec(vec![9.0]));
        let loss = tape.sum_all(x);
        let grads = tape.backward(loss);
        assert!(grads.get(unused).is_none());
        assert!(grads.get(x).is_some());
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn non_scalar_loss_panics() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1., 2.]));
        tape.backward(x);
    }

    #[test]
    fn shard_count_is_read_from_the_environment_once() {
        // Start the global pool first: it is the one other reader of the
        // variable, and must not see the values set below.
        delrec_par::global();
        let before = pool_shards();
        let saved = std::env::var("DELREC_THREADS").ok();
        // Re-read, "64" would give 16 shards (more than any host of up to 8
        // lanes starts with) and "zero" would print the invalid-value warning
        // once per tape; read once, neither can.
        for value in ["64", "zero"] {
            std::env::set_var("DELREC_THREADS", value);
            assert_eq!(pool_shards(), before);
            assert_eq!(Tape::new().pool().shards.len(), before);
        }
        match saved {
            Some(v) => std::env::set_var("DELREC_THREADS", v),
            None => std::env::remove_var("DELREC_THREADS"),
        }
    }

    #[test]
    fn pool_serves_and_recycles_buffers() {
        let pool = BufferPool::new();
        let buf = pool.take(100);
        assert_eq!(buf.len(), 100);
        assert!(buf.iter().all(|&v| v == 0.0));
        pool.put(buf);
        assert_eq!(pool.len(), 1);
        let again = pool.take(100);
        assert_eq!(again.len(), 100);
        assert_eq!(pool.len(), 0, "buffer was reused, not re-pooled");
        // A request far larger than anything pooled allocates fresh.
        pool.put(again);
        let big = pool.take(100_000);
        assert_eq!(big.len(), 100_000);
        assert_eq!(pool.len(), 1, "small buffer not handed to huge request");
    }

    #[test]
    fn take_normalizes_oversized_recycled_buffers() {
        let pool = BufferPool::new();
        pool.put(Vec::with_capacity(256));
        // Class 8 is within the slack window of a class-6 request, so the
        // 256-capacity buffer is reused — normalized to the requested length.
        let buf = pool.take(65);
        assert_eq!(pool.len(), 0, "recycled, not freshly allocated");
        assert_eq!(buf.len(), 65, "length normalized in the pool");
        assert!(buf.iter().all(|&v| v == 0.0));
        assert!(buf.capacity() <= 512, "capacity bounded near the request");
    }

    #[test]
    fn take_copy_normalizes_length_to_source() {
        let pool = BufferPool::new();
        let mut big = pool.take(100);
        big.iter_mut().for_each(|v| *v = 3.0);
        pool.put(big);
        let src: Vec<f32> = (0..30).map(|i| i as f32).collect();
        let copied = pool.take_copy(&src);
        assert_eq!(pool.len(), 0, "recycled, not freshly allocated");
        assert_eq!(copied, src, "exactly the source, no stale tail");
    }

    #[test]
    fn pool_zeroes_reused_buffers() {
        let pool = BufferPool::new();
        let mut buf = pool.take(8);
        buf.iter_mut().for_each(|v| *v = 7.0);
        pool.put(buf);
        let reused = pool.take(6);
        assert!(reused.iter().all(|&v| v == 0.0), "stale data leaked");
    }

    #[test]
    fn pool_total_float_cap_bounds_retention_under_churn() {
        // Shard budget of 1000 floats: puts beyond it are dropped, so a burst
        // of large buffers (a simulated load peak) cannot pin memory. A
        // single thread only ever touches its home shard, so its retention is
        // bounded by cap/shards exactly.
        let cap = 1000 * pool_shards();
        let pool = BufferPool::with_total_float_cap(cap);
        for _ in 0..10 {
            pool.put(vec![0.0; 256]);
        }
        assert!(
            pool.total_floats() <= cap,
            "pooled {} floats, cap {cap}",
            pool.total_floats()
        );
        assert_eq!(pool.len(), 3, "exactly ⌊1000/256⌋ buffers retained");
        // Taking releases budget; the pool accepts puts again.
        let buf = pool.take(256);
        assert_eq!(pool.len(), 2);
        pool.put(buf);
        assert_eq!(pool.len(), 3);
        // A single buffer over the whole cap is never retained.
        pool.put(vec![0.0; 2 * cap]);
        assert_eq!(pool.len(), 3, "over-cap buffer dropped");
        assert!(pool.total_floats() <= cap);
    }

    #[test]
    fn pool_growth_cap_holds_under_parallel_churn() {
        // N threads hammering take/put from every shard: the pool-wide
        // retention bound must hold at every observable instant, because each
        // shard enforces its own slice of the cap (no racy global counter).
        let pool = Arc::new(BufferPool::with_total_float_cap(10_000));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let p = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let n = 64 + ((t * 37 + i) % 7) * 100;
                        let b = p.take(n);
                        assert_eq!(b.len(), n);
                        p.put(b);
                        let pooled = p.total_floats();
                        assert!(pooled <= p.total_float_cap(), "pooled {pooled}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(pool.total_floats() <= pool.total_float_cap());
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let pool = Arc::new(BufferPool::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let p = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let b = p.take(64);
                        assert_eq!(b.len(), 64);
                        p.put(b);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(pool.total_floats() <= pool.total_float_cap());
    }

    #[test]
    fn constants_and_what_only_they_compute_get_no_gradient() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1., 2.]));
        let c = tape.constant(Tensor::from_vec(vec![3., 4.]));
        let cc = tape.sqr(c);
        let y = tape.mul(x, cc);
        let grads = tape.backward(tape.sum_all(y));
        assert_eq!(grads.get(x).unwrap().data(), &[9., 16.]);
        assert!(grads.get(c).is_none() && grads.get(cc).is_none());
        let nodes = tape.nodes.borrow();
        assert!(!nodes[cc.id].needs_grad && nodes[cc.id].backward.is_none());
        assert!(nodes[y.id].needs_grad);
    }
}
