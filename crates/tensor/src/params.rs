//! Named trainable parameters and their binding into autograd tapes.

use crate::shape::Shape;
use crate::tape::{Gradients, Tape, Var};
use crate::tensor::Tensor;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Stable handle to a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) usize);

/// Owns all trainable tensors of a model (or of several models sharing one
/// optimizer). Parameters can be individually frozen — DELRec freezes the
/// LM in Stage 1 and the soft prompts in Stage 2.
#[derive(Clone, Default)]
pub struct ParamStore {
    names: Vec<String>,
    tensors: Vec<Tensor>,
    trainable: Vec<bool>,
    index: HashMap<String, usize>,
    /// Monotone write counter; see [`ParamStore::version`].
    version: u64,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new trainable parameter under a unique name.
    ///
    /// # Panics
    /// Panics if the name is already taken.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let name = name.into();
        assert!(
            !self.index.contains_key(&name),
            "duplicate parameter name {name:?}"
        );
        let id = self.tensors.len();
        self.index.insert(name.clone(), id);
        self.names.push(name);
        self.tensors.push(value);
        self.trainable.push(true);
        self.version += 1;
        ParamId(id)
    }

    /// Current value of a parameter.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.tensors[id.0]
    }

    /// Mutable value (used by optimizers and serialization).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        self.version += 1;
        &mut self.tensors[id.0]
    }

    /// Monotone write counter: bumped by every [`ParamStore::add`] and every
    /// [`ParamStore::get_mut`] (conservatively — the borrow may not write).
    /// Inference-side caches derived from parameter values (e.g. the LM's
    /// prefix K/V cache) snapshot this to detect updates without hashing
    /// tensors.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Look up a parameter by name.
    pub fn id_of(&self, name: &str) -> Option<ParamId> {
        self.index.get(name).copied().map(ParamId)
    }

    /// Name of a parameter.
    pub fn name_of(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Shape of a parameter.
    pub fn shape_of(&self, id: ParamId) -> &Shape {
        self.tensors[id.0].shape()
    }

    /// Mark a parameter trainable or frozen. Frozen parameters still take
    /// part in the forward pass, but [`Ctx`] binds them as constants: no
    /// gradient is computed for them and optimizers never see one.
    pub fn set_trainable(&mut self, id: ParamId, trainable: bool) {
        self.trainable[id.0] = trainable;
    }

    /// Freeze or unfreeze every parameter whose name starts with `prefix`.
    /// Returns how many parameters were affected.
    pub fn set_trainable_prefix(&mut self, prefix: &str, trainable: bool) -> usize {
        let mut n = 0;
        for (i, name) in self.names.iter().enumerate() {
            if name.starts_with(prefix) {
                self.trainable[i] = trainable;
                n += 1;
            }
        }
        n
    }

    /// Whether a parameter is currently trainable.
    pub fn is_trainable(&self, id: ParamId) -> bool {
        self.trainable[id.0]
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.tensors.iter().map(Tensor::numel).sum()
    }

    /// Total scalar count across trainable parameters only.
    pub fn num_trainable_scalars(&self) -> usize {
        self.tensors
            .iter()
            .zip(&self.trainable)
            .filter(|(_, &t)| t)
            .map(|(t, _)| t.numel())
            .sum()
    }

    /// Iterate over `(id, name, tensor)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.names
            .iter()
            .zip(&self.tensors)
            .enumerate()
            .map(|(i, (n, t))| (ParamId(i), n.as_str(), t))
    }
}

/// A value derived from a [`ParamStore`]'s contents — packed weight panels,
/// an item index — built lazily and kept until [`ParamStore::version`] moves.
///
/// The policy lives here and nowhere else: look the version up under the
/// lock; on a miss build *outside* it (a build outlasts a lookup by orders of
/// magnitude, and a build that panics must not take the slot with it);
/// re-check before inserting, and the first insert wins. Racing builders of
/// one version produce identical values, so the loser's copy is dropped.
///
/// `Clone` resets to empty: a clone of the owner has its own store, whose
/// version counter advances independently from the same starting value, so
/// a shared value could validate against the wrong clone's weights.
pub struct VersionedSlot<T>(Mutex<Option<(u64, Arc<T>)>>);

impl<T> Default for VersionedSlot<T> {
    fn default() -> Self {
        VersionedSlot(Mutex::new(None))
    }
}

impl<T> Clone for VersionedSlot<T> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<T> VersionedSlot<T> {
    /// The slot, recovered if a holder panicked: every critical section is
    /// one read or one assignment, so the contents are always valid.
    fn lock(&self) -> MutexGuard<'_, Option<(u64, Arc<T>)>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value for `version`, from the slot or from `build`. The flag is
    /// `true` when the slot served it — a racing builder whose insert lost
    /// included — so owners can count hits beside their builds.
    pub fn get_or_build(&self, version: u64, build: impl FnOnce() -> T) -> (Arc<T>, bool) {
        let current = |slot: &Option<(u64, Arc<T>)>| match slot {
            Some((v, value)) if *v == version => Some(Arc::clone(value)),
            _ => None,
        };
        if let Some(hit) = current(&self.lock()) {
            return (hit, true);
        }
        let built = Arc::new(build());
        let mut slot = self.lock();
        if let Some(winner) = current(&slot) {
            return (winner, true);
        }
        *slot = Some((version, Arc::clone(&built)));
        (built, false)
    }
}

/// One forward/backward pass's view of a [`ParamStore`]: binds parameters
/// into a [`Tape`] lazily (each parameter is copied in at most once) and
/// remembers the bindings so gradients can be routed back by [`Ctx::grads`].
pub struct Ctx<'a> {
    /// The tape recording this pass.
    pub tape: &'a Tape,
    store: &'a ParamStore,
    bound: RefCell<HashMap<usize, Var>>,
    /// Whether dropout & co. should be active.
    pub train: bool,
}

impl<'a> Ctx<'a> {
    /// New context over a tape and parameter store.
    pub fn new(tape: &'a Tape, store: &'a ParamStore, train: bool) -> Self {
        Ctx {
            tape,
            store,
            bound: RefCell::new(HashMap::new()),
            train,
        }
    }

    /// Bind (or reuse) the tape variable holding parameter `id`: a leaf if
    /// it is trainable, a [`Tape::constant`] if frozen — no gradient is
    /// computed for a frozen parameter.
    pub fn p(&self, id: ParamId) -> Var {
        if let Some(&v) = self.bound.borrow().get(&id.0) {
            return v;
        }
        let value = self.store.get(id).clone();
        let v = if self.store.is_trainable(id) {
            self.tape.leaf(value)
        } else {
            self.tape.constant(value)
        };
        self.bound.borrow_mut().insert(id.0, v);
        v
    }

    /// The store backing this context.
    pub fn store(&self) -> &ParamStore {
        self.store
    }

    /// Collect gradients for every *trainable* bound parameter after a
    /// backward pass (frozen ones were bound as constants and have none).
    /// Parameters the loss did not touch are skipped.
    pub fn grads(&self, grads: &mut Gradients) -> Vec<(ParamId, Tensor)> {
        let mut out: Vec<(ParamId, Tensor)> = Vec::new();
        for (&pid, &var) in self.bound.borrow().iter() {
            if let Some(g) = grads.take(var) {
                out.push((ParamId(pid), g));
            }
        }
        // Deterministic order regardless of hash-map iteration.
        out.sort_by_key(|(id, _)| *id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(vec![1., 2.]));
        assert_eq!(store.id_of("w"), Some(w));
        assert_eq!(store.name_of(w), "w");
        assert_eq!(store.num_scalars(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_name_panics() {
        let mut store = ParamStore::new();
        store.add("w", Tensor::scalar(1.0));
        store.add("w", Tensor::scalar(2.0));
    }

    #[test]
    fn freeze_by_prefix() {
        let mut store = ParamStore::new();
        let a = store.add("lm.layer0.w", Tensor::scalar(1.0));
        let b = store.add("lm.layer1.w", Tensor::scalar(1.0));
        let c = store.add("soft_prompt", Tensor::scalar(1.0));
        let n = store.set_trainable_prefix("lm.", false);
        assert_eq!(n, 2);
        assert!(!store.is_trainable(a));
        assert!(!store.is_trainable(b));
        assert!(store.is_trainable(c));
        assert_eq!(store.num_trainable_scalars(), 1);
    }

    #[test]
    fn slot_hits_at_one_version_and_rebuilds_once_per_bump() {
        let slot = VersionedSlot::default();
        let builds = std::cell::Cell::new(0);
        let get = |version| {
            slot.get_or_build(version, || {
                builds.set(builds.get() + 1);
                version * 10
            })
        };
        let (first, hit) = get(1);
        assert!(!hit && *first == 10);
        let (again, hit) = get(1);
        assert!(hit && Arc::ptr_eq(&first, &again), "same version, same Arc");
        let (bumped, hit) = get(2);
        assert!(!hit && *bumped == 20);
        assert!(get(2).1, "the rebuilt value is kept");
        assert_eq!(builds.get(), 2, "one build per version");
        assert!(
            !slot.clone().get_or_build(2, || 0).1,
            "a clone starts empty"
        );
    }

    #[test]
    fn racing_first_touches_all_receive_the_surviving_value() {
        const N: usize = 8;
        let slot = VersionedSlot::default();
        // Every build waits for all N threads to have missed, so all N race
        // the insert and N - 1 of them lose it.
        let missed = std::sync::Barrier::new(N);
        let got: Vec<(Arc<usize>, bool)> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..N)
                .map(|i| {
                    let (slot, missed) = (&slot, &missed);
                    s.spawn(move || {
                        slot.get_or_build(7, || {
                            missed.wait();
                            i
                        })
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let survivor = &slot.get_or_build(7, || unreachable!()).0;
        assert!(got.iter().all(|(value, _)| Arc::ptr_eq(value, survivor)));
        assert_eq!(got.iter().filter(|(_, hit)| !hit).count(), 1, "one winner");
    }

    #[test]
    fn a_panicking_build_leaves_the_slot_usable() {
        let slot = VersionedSlot::default();
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            slot.get_or_build(1, || -> u32 { panic!("build failed") })
        }));
        assert!(failed.is_err());
        assert!(!slot.get_or_build(1, || 5).1, "the next call builds");
        let (value, hit) = slot.get_or_build(1, || unreachable!());
        assert!(hit && *value == 5, "and the one after hits");
    }

    #[test]
    fn ctx_binds_once_and_routes_grads() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(vec![3.0, 4.0]));
        let frozen = store.add("frozen", Tensor::from_vec(vec![1.0, 1.0]));
        store.set_trainable(frozen, false);

        let tape = Tape::new();
        let ctx = Ctx::new(&tape, &store, true);
        let v1 = ctx.p(w);
        let v2 = ctx.p(w);
        assert_eq!(v1, v2, "parameter bound twice must reuse the same var");

        let f = ctx.p(frozen);
        let prod = tape.mul(v1, f);
        let loss = tape.sum_all(prod);
        let mut grads = tape.backward(loss);
        let updates = ctx.grads(&mut grads);
        assert_eq!(updates.len(), 1, "frozen parameter excluded");
        assert_eq!(updates[0].0, w);
        assert_eq!(updates[0].1.data(), &[1.0, 1.0]);
    }
}
