//! # li-models — the model substrate for learned index structures
//!
//! This crate implements, from scratch, every machine-learning model the
//! paper "The Case for Learned Index Structures" (Kraska et al., SIGMOD
//! 2018) uses to build learned indexes:
//!
//! * [`LinearModel`] — single-feature least-squares regression, trained in
//!   one pass over sorted data (closed form, §3.6 of the paper). This is
//!   the work-horse leaf model of the Recursive Model Index.
//! * [`MultivariateLinear`] — multivariate linear regression over an
//!   engineered feature vector (`key`, `log key`, `key²`, `√key`), solved
//!   via the normal equations (§3.7.1 "automatic feature engineering").
//! * [`Mlp`] — a small fully-connected network with zero to two hidden
//!   ReLU layers and a layer width of up to 32 neurons (§3.3). A
//!   zero-hidden-layer MLP is exactly linear regression, which we assert
//!   in tests.
//! * [`GruClassifier`] — a character-level GRU with an embedding layer
//!   and a sigmoid output, the classifier behind the learned Bloom filter
//!   (§5.2: "a 16-dimensional GRU with a 32-dimensional embedding").
//! * [`NgramLogReg`] — a hashed character-n-gram logistic regression; a
//!   cheap classifier alternative used by tests and low-budget runs.
//!
//! The paper trains complex models with TensorFlow but **never executes
//! TensorFlow at inference** — its Learning Index Framework extracts the
//! weights into flat generated code (§3.1). The structs in this crate are
//! that extracted form: plain arrays of `f64` weights with straight-line
//! `predict` functions, so simple models execute in tens of nanoseconds.
//!
//! [`cdf`] holds the theory side: the empirical CDF, the
//! Dvoretzky–Kiefer–Wolfowitz bound, and the Appendix-A expected-error
//! analysis (`E[(F(x) − F̂_N(x))²] = F(x)(1 − F(x))/N`, hence O(√N)
//! position error for a constant-size model).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdf;
pub mod gru;
pub mod isotonic;
pub mod linalg;
pub mod linear;
pub mod mlp;
pub mod multivariate;
pub mod ngram;
pub mod quant;
pub mod rng;
pub mod vecmlp;

pub use cdf::EmpiricalCdf;
pub use gru::{GruClassifier, GruConfig};
pub use isotonic::IsotonicModel;
pub use linalg::Matrix;
pub use linear::{LinearFit, LinearModel};
pub use mlp::{Mlp, MlpConfig};
pub use multivariate::{FeatureMap, MultivariateLinear};
pub use ngram::NgramLogReg;
pub use quant::{Codebook, QuantizedLinear};
pub use vecmlp::VecMlp;

/// A trained regression model mapping a scalar key to a scalar position.
///
/// All range-index models in this workspace implement this trait; the
/// Recursive Model Index composes them into stages. Predictions are raw
/// (possibly out of `[0, N)` range); callers clamp.
pub trait Model: Send + Sync {
    /// Predict the position estimate for `x` (unclamped).
    fn predict(&self, x: f64) -> f64;

    /// Approximate in-memory size of the model parameters in bytes.
    fn size_bytes(&self) -> usize;

    /// Number of arithmetic operations (mul+add) per prediction — the
    /// paper's §2.1 "precision gain per operation" budget currency.
    fn op_count(&self) -> usize;

    /// Whether the model is monotonically non-decreasing over the train
    /// domain. Monotonic models extend their min/max error guarantees to
    /// lookup keys that are not in the stored set (§3.4).
    fn is_monotonic(&self) -> bool {
        false
    }
}

/// A binary probabilistic classifier scoring byte strings into `[0, 1]`.
///
/// Used by the learned Bloom filter (§5.1.1): the score is interpreted as
/// the probability that the input is a key of the indexed set.
pub trait Classifier: Send + Sync {
    /// Probability estimate that `input` belongs to the key set.
    fn score(&self, input: &[u8]) -> f64;

    /// Approximate in-memory size of the model parameters in bytes.
    fn size_bytes(&self) -> usize;
}

/// Clamp a raw model prediction into a valid position in `[0, n)`.
#[inline(always)]
pub fn clamp_position(pred: f64, n: usize) -> usize {
    if pred.is_nan() || pred <= 0.0 {
        // NaN or <= 0 both land at position 0.
        0
    } else {
        let p = pred as usize;
        if p >= n {
            n.saturating_sub(1)
        } else {
            p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_position_bounds() {
        assert_eq!(clamp_position(-3.0, 10), 0);
        assert_eq!(clamp_position(f64::NAN, 10), 0);
        assert_eq!(clamp_position(0.0, 10), 0);
        assert_eq!(clamp_position(4.2, 10), 4);
        assert_eq!(clamp_position(9.99, 10), 9);
        assert_eq!(clamp_position(1e18, 10), 9);
        assert_eq!(clamp_position(5.0, 0), 0);
    }
}
