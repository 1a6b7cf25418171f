//! Vector types and numeric kernels for the continuous-deployment platform.
//!
//! The platform deals with two very different feature spaces:
//!
//! * the **URL pipeline** hashes tokens into a `2^18`-dimensional space where
//!   each row has only a handful of non-zero entries — represented by
//!   [`SparseVector`];
//! * the **Taxi pipeline** produces 11 dense engineered features —
//!   represented by [`DenseVector`].
//!
//! [`Vector`] is the closed sum of the two, and every kernel used by the SGD
//! trainer (`dot`, `axpy`, scaling, norms) is implemented for both layouts so
//! that a gradient step over a sparse row touches only the row's non-zero
//! coordinates. This mirrors the paper's observation (§3.2.1) that one-hot /
//! hashed encodings must be kept sparse to keep the materialized feature size
//! linear in the input size.

#![warn(missing_docs)]

pub mod dense;
pub mod ops;
pub mod sparse;
pub mod vector;

pub use dense::DenseVector;
pub use sparse::{merge_entries, SparseBuilder, SparseVector};
pub use vector::Vector;

/// Crate-wide error type for shape/index violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Two operands had incompatible dimensions.
    DimensionMismatch {
        /// Dimension of the left operand.
        left: usize,
        /// Dimension of the right operand.
        right: usize,
    },
    /// A sparse index was out of the declared dimension.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The declared dimension.
        dim: usize,
    },
    /// Sparse indices were not strictly increasing.
    UnsortedIndices {
        /// Position of the first out-of-order index.
        position: usize,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { left, right } => {
                write!(f, "dimension mismatch: {left} vs {right}")
            }
            LinalgError::IndexOutOfBounds { index, dim } => {
                write!(f, "index {index} out of bounds for dimension {dim}")
            }
            LinalgError::UnsortedIndices { position } => {
                write!(
                    f,
                    "sparse indices not strictly increasing at position {position}"
                )
            }
        }
    }
}

impl std::error::Error for LinalgError {}
