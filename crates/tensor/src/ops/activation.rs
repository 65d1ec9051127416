//! Pointwise nonlinearities.

use super::vmath;
use crate::tape::{Tape, Var};

impl Tape {
    /// Rectified linear unit.
    pub fn relu(&self, a: Var) -> Var {
        self.unary(a, |x| x.max(0.0), |x, _| if x > 0.0 { 1.0 } else { 0.0 })
    }

    /// GELU with the tanh approximation (the transformer FFN nonlinearity).
    pub fn gelu(&self, a: Var) -> Var {
        self.unary(a, vmath::gelu, |x, _| vmath::gelu_grad(x))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self, a: Var) -> Var {
        self.unary(a, vmath::sigmoid, |_, y| y * (1.0 - y))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self, a: Var) -> Var {
        self.unary(a, vmath::tanh, |_, y| 1.0 - y * y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check::check_grad;
    use crate::shape::Shape;
    use crate::tensor::Tensor;

    #[test]
    fn relu_clamps_negatives() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![-1., 0., 2.]));
        assert_eq!(tape.get(tape.relu(a)).data(), &[0., 0., 2.]);
    }

    #[test]
    fn sigmoid_midpoint() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![0.0]));
        assert!((tape.get(tape.sigmoid(a)).item() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn gelu_known_values() {
        // gelu(0) = 0; gelu(large) ≈ identity; gelu(-large) ≈ 0.
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![0.0, 6.0, -6.0]));
        let y = tape.get(tape.gelu(a));
        assert!(y.data()[0].abs() < 1e-6);
        assert!((y.data()[1] - 6.0).abs() < 1e-3);
        assert!(y.data()[2].abs() < 1e-3);
    }

    #[test]
    fn grad_check_activations() {
        // Inputs avoid the ReLU kink at 0.
        let input = vec![0.5, -1.2, 2.0, -0.3, 0.9];
        for op in ["relu", "gelu", "sigmoid", "tanh"] {
            check_grad(
                std::slice::from_ref(&input),
                &[Shape::from([5])],
                |tape, vars| {
                    let y = match op {
                        "relu" => tape.relu(vars[0]),
                        "gelu" => tape.gelu(vars[0]),
                        "sigmoid" => tape.sigmoid(vars[0]),
                        _ => tape.tanh(vars[0]),
                    };
                    tape.sum_all(y)
                },
            );
        }
    }
}
