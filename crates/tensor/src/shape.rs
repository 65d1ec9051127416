//! Tensor shapes: dimension bookkeeping shared by every op.

use std::fmt;

/// The shape of a dense row-major tensor.
///
/// Rank is unbounded in principle, but everything in this workspace uses rank
/// 0 (scalars) through 3 (batched matrices).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Shape of a scalar (rank 0, one element).
    pub fn scalar() -> Self {
        Shape(vec![])
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (`1` for scalars).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Dimension `i`. Panics if out of range.
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// Last dimension; panics on scalars.
    pub fn last(&self) -> usize {
        *self.0.last().expect("scalar shape has no last dimension")
    }

    /// All dimensions except the last, i.e. the number of "rows" when the
    /// tensor is viewed as a stack of vectors of length [`Shape::last`].
    pub fn rows(&self) -> usize {
        self.0[..self.rank() - 1].iter().product()
    }

    /// True if `suffix` matches the trailing dimensions of `self`, the
    /// broadcast rule used by bias additions.
    pub fn ends_with(&self, suffix: &Shape) -> bool {
        suffix.rank() <= self.rank() && self.0[self.rank() - suffix.rank()..] == suffix.0[..]
    }
}

/// The rows of an `[n, …]` activation an op produces: all of them, or a
/// subset held packed — row `rows[i]` of the whole is row `i` of the
/// operand and of the result. [`crate::Tape::attention`] and
/// [`crate::Tape::dropout`] take one, so a training pass can compute only
/// the rows its loss reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rows<'a> {
    /// Every row.
    All,
    /// Rows `rows` of `n`, strictly ascending.
    Of {
        /// Rows of the whole activation.
        n: usize,
        /// The rows produced, strictly ascending, each below `n`.
        rows: &'a [usize],
    },
}

impl<'a> Rows<'a> {
    /// `(n, rows)` of a subset, checked; `None` for [`Rows::All`].
    pub(crate) fn subset(self) -> Option<(usize, &'a [usize])> {
        let Rows::Of { n, rows } = self else {
            return None;
        };
        assert!(
            rows.windows(2).all(|w| w[0] < w[1]) && rows.iter().all(|&r| r < n),
            "rows must be strictly ascending and below {n}"
        );
        Some((n, rows))
    }
}

/// Rows per k-group of the GEMM kernels: every product sums its inner
/// dimension as full groups of this many terms — each one left-associated
/// expression added to the accumulator — then the remainder one at a time.
pub const K_GROUP: usize = 4;

/// The rows of `0..n` in the [`K_GROUP`]-row groups that hold any of `rows`:
/// ascending, each group whole (the last, partial group up to `n`).
///
/// A product whose inner dimension runs over rows gives, over these rows,
/// the bits it gives over all `n` as long as the others contribute exact
/// zeros: each group keeps its terms at their places, an all-zero group adds
/// `±0` to an accumulator that is never `-0`, and a zero term inside a group
/// only ever meets a non-zero partner or another zero. A dense layout of
/// `rows` alone would regroup the sums and change the bits.
pub fn k_group_rows(rows: impl IntoIterator<Item = usize>, n: usize) -> Vec<usize> {
    let mut out: Vec<usize> = rows
        .into_iter()
        .flat_map(|r| {
            assert!(r < n, "row {r} out of {n}");
            let g0 = r / K_GROUP * K_GROUP;
            g0..(g0 + K_GROUP).min(n)
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.numel(), 1);
    }

    #[test]
    fn numel_and_rows() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.rows(), 6);
        assert_eq!(s.last(), 4);
    }

    #[test]
    fn ends_with_suffix() {
        let s = Shape::from([2, 3, 4]);
        assert!(s.ends_with(&Shape::from([4])));
        assert!(s.ends_with(&Shape::from([3, 4])));
        assert!(!s.ends_with(&Shape::from([2, 4])));
        assert!(s.ends_with(&Shape::from([2, 3, 4])));
        assert!(!s.ends_with(&Shape::from([1, 2, 3, 4])));
    }

    #[test]
    fn k_group_rows_are_whole_groups_ascending() {
        assert_eq!(k_group_rows([9, 1, 2], 11), vec![0, 1, 2, 3, 8, 9, 10]);
        assert_eq!(k_group_rows([4, 5, 4], 12), vec![4, 5, 6, 7]);
        assert_eq!(k_group_rows([0], 2), vec![0, 1]);
        assert!(k_group_rows([], 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unordered_rows_are_refused() {
        Rows::Of {
            n: 4,
            rows: &[2, 1],
        }
        .subset();
    }

    #[test]
    fn display_is_bracketed() {
        assert_eq!(format!("{}", Shape::from([2, 3])), "[2, 3]");
        assert_eq!(format!("{}", Shape::scalar()), "[]");
    }
}
