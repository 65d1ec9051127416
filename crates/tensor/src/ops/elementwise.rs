//! Elementwise arithmetic with suffix broadcasting.
//!
//! Broadcasting rule: for binary ops the right operand must either match the
//! left's shape exactly, be a scalar, or match a *suffix* of the left's shape
//! (the bias-add case). The backward pass for a broadcast operand sums the
//! gradient over the broadcast leading dimensions.

use crate::shape::Shape;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// How the right operand lines up with the left.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Broadcast {
    /// Same shape.
    Exact,
    /// Right is a scalar.
    Scalar,
    /// Right matches a suffix of the left's shape; repeats over leading dims.
    Suffix,
}

fn classify(a: &Shape, b: &Shape) -> Broadcast {
    if a == b {
        Broadcast::Exact
    } else if b.numel() == 1 {
        Broadcast::Scalar
    } else if a.ends_with(b) {
        Broadcast::Suffix
    } else {
        panic!("cannot broadcast {b} against {a}")
    }
}

/// `out[i] = f(g[i], a[i], b[i mod n])`, `n = b.len()`, as a walk over
/// `n`-long row chunks of the left-shaped operands against the whole of `b`:
/// no integer division per element, and an inner loop over three plain
/// slices. Covers all three broadcast modes (Exact is one chunk, Scalar is
/// chunks of one).
fn broadcast_map(
    out: &mut [f32],
    g: &[f32],
    a: &[f32],
    b: &[f32],
    f: impl Fn(f32, f32, f32) -> f32,
) {
    let n = b.len().max(1);
    for ((oc, gc), ac) in out.chunks_mut(n).zip(g.chunks(n)).zip(a.chunks(n)) {
        for (((o, &gv), &x), &y) in oc.iter_mut().zip(gc).zip(ac).zip(b) {
            *o = f(gv, x, y);
        }
    }
}

impl Tape {
    fn binary(
        &self,
        a: Var,
        b: Var,
        fwd: impl Fn(f32, f32) -> f32,
        dfa: impl Fn(f32, f32) -> f32 + 'static,
        dfb: impl Fn(f32, f32) -> f32 + 'static,
    ) -> Var {
        let (shape, out) = {
            let (va, vb) = (self.value(a), self.value(b));
            classify(va.shape(), vb.shape()); // panics unless `b` broadcasts
            let mut out = self.alloc(va.numel());
            let xs = va.data();
            broadcast_map(&mut out, xs, xs, vb.data(), |_, x, y| fwd(x, y));
            (va.shape().clone(), out)
        };
        self.push(
            Tensor::new(shape, out),
            vec![a.id, b.id],
            Some(Box::new(move |ctx| {
                let (va, vb, g) = (ctx.value(a), ctx.value(b), ctx.grad());
                let (xs, ys, gs) = (va.data(), vb.data(), g.data());
                let mut ga = ctx.alloc(xs.len());
                broadcast_map(&mut ga, gs, xs, ys, |gv, x, y| gv * dfa(x, y));
                let gb = match classify(va.shape(), vb.shape()) {
                    Broadcast::Exact => {
                        let mut gb = ctx.alloc(xs.len());
                        broadcast_map(&mut gb, gs, xs, ys, |gv, x, y| gv * dfb(x, y));
                        gb
                    }
                    Broadcast::Scalar | Broadcast::Suffix => {
                        // Sum the full-shaped gradient down onto the suffix,
                        // row chunk by row chunk (ascending, per element).
                        let mut gb = ctx.alloc(ys.len());
                        let n = ys.len().max(1);
                        for (gc, xc) in gs.chunks(n).zip(xs.chunks(n)) {
                            for (((o, &gv), &x), &y) in gb.iter_mut().zip(gc).zip(xc).zip(ys) {
                                *o += gv * dfb(x, y);
                            }
                        }
                        gb
                    }
                };
                vec![
                    Tensor::new(va.shape().clone(), ga),
                    Tensor::new(vb.shape().clone(), gb),
                ]
            })),
        )
    }

    /// Elementwise `a + b` (suffix broadcasting on `b`).
    pub fn add(&self, a: Var, b: Var) -> Var {
        self.binary(a, b, |x, y| x + y, |_, _| 1.0, |_, _| 1.0)
    }

    /// Elementwise `a - b` (suffix broadcasting on `b`).
    pub fn sub(&self, a: Var, b: Var) -> Var {
        self.binary(a, b, |x, y| x - y, |_, _| 1.0, |_, _| -1.0)
    }

    /// Elementwise `a * b` (suffix broadcasting on `b`).
    pub fn mul(&self, a: Var, b: Var) -> Var {
        self.binary(a, b, |x, y| x * y, |_, y| y, |x, _| x)
    }

    /// Elementwise `a / b` (suffix broadcasting on `b`).
    pub fn div(&self, a: Var, b: Var) -> Var {
        self.binary(a, b, |x, y| x / y, |_, y| 1.0 / y, |x, y| -x / (y * y))
    }

    /// Pointwise `fwd(x)`; `dfa` is the derivative as a function of
    /// (input, output). Shared with the activations in `ops::activation`.
    pub(super) fn unary(
        &self,
        a: Var,
        fwd: impl Fn(f32) -> f32,
        dfa: impl Fn(f32, f32) -> f32 + 'static,
    ) -> Var {
        let (shape, out) = {
            let va = self.value(a);
            let mut out = self.alloc(va.numel());
            for (o, &x) in out.iter_mut().zip(va.data()) {
                *o = fwd(x);
            }
            (va.shape().clone(), out)
        };
        self.push(
            Tensor::new(shape, out),
            vec![a.id],
            Some(Box::new(move |ctx| {
                let (va, y, g) = (ctx.value(a), ctx.out(), ctx.grad());
                let mut ga = ctx.alloc(va.numel());
                let xy = va.data().iter().zip(y.data());
                for ((o, &gv), (&x, &yv)) in ga.iter_mut().zip(g.data()).zip(xy) {
                    *o = gv * dfa(x, yv);
                }
                vec![Tensor::new(va.shape().clone(), ga)]
            })),
        )
    }

    /// `a * s` for a scalar constant `s`.
    pub fn scale(&self, a: Var, s: f32) -> Var {
        self.unary(a, |x| x * s, move |_, _| s)
    }

    /// `a + s` for a scalar constant `s`.
    pub fn add_scalar(&self, a: Var, s: f32) -> Var {
        self.unary(a, move |x| x + s, |_, _| 1.0)
    }

    /// Elementwise negation.
    pub fn neg(&self, a: Var) -> Var {
        self.scale(a, -1.0)
    }

    /// Elementwise square.
    pub fn sqr(&self, a: Var) -> Var {
        self.unary(a, |x| x * x, |x, _| 2.0 * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check::check_grad;

    #[test]
    fn add_exact_values() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1., 2.]));
        let b = tape.leaf(Tensor::from_vec(vec![10., 20.]));
        let c = tape.add(a, b);
        assert_eq!(tape.get(c).data(), &[11., 22.]);
    }

    #[test]
    fn add_suffix_broadcast_backward_sums() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::new([2, 3], vec![0.; 6]));
        let bias = tape.leaf(Tensor::from_vec(vec![1., 2., 3.]));
        let c = tape.add(a, bias);
        let loss = tape.sum_all(c);
        let grads = tape.backward(loss);
        // Each bias element is used twice (once per row).
        assert_eq!(grads.get(bias).unwrap().data(), &[2., 2., 2.]);
    }

    #[test]
    fn scalar_broadcast() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1., 2., 3.]));
        let s = tape.leaf(Tensor::scalar(10.0));
        let c = tape.mul(a, s);
        assert_eq!(tape.get(c).data(), &[10., 20., 30.]);
        let loss = tape.sum_all(c);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(s).unwrap().item(), 6.0);
    }

    #[test]
    #[should_panic(expected = "cannot broadcast")]
    fn invalid_broadcast_panics() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::new([2, 3], vec![0.; 6]));
        let b = tape.leaf(Tensor::from_vec(vec![0.; 2]));
        tape.add(a, b);
    }

    #[test]
    fn grad_check_binary_ops() {
        for op in ["add", "sub", "mul", "div"] {
            check_grad(
                &[vec![0.5, -1.2, 2.0, 0.3], vec![1.5, 0.7, -0.9, 2.2]],
                &[Shape::from([2, 2]), Shape::from([2, 2])],
                |tape, vars| {
                    let c = match op {
                        "add" => tape.add(vars[0], vars[1]),
                        "sub" => tape.sub(vars[0], vars[1]),
                        "mul" => tape.mul(vars[0], vars[1]),
                        _ => tape.div(vars[0], vars[1]),
                    };
                    tape.sum_all(c)
                },
            );
        }
    }

    #[test]
    fn grad_check_unary_ops() {
        check_grad(
            &[vec![0.5, -1.2, 2.0]],
            &[Shape::from([3])],
            |tape, vars| {
                let s = tape.scale(vars[0], 3.0);
                let q = tape.sqr(s);
                let n = tape.neg(q);
                let p = tape.add_scalar(n, 1.0);
                tape.sum_all(p)
            },
        );
    }
}
