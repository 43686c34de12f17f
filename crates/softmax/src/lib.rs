//! Bit-accurate integer-only softmax — Algorithm 1 of SoftmAP.
//!
//! The paper approximates `exp` with I-BERT's second-order integer
//! polynomial after range reduction by `ln 2`, computes the reduction's
//! modulus with Barrett reduction (multiply/shift instead of divide),
//! and normalizes with one integer division. Every intermediate has an
//! allocated bit width (Table I); the sum of exponentials is truncated
//! to `N` extra bits. This crate is the *scalar specification* of that
//! pipeline: the AP mapping in the `softmap` crate reproduces it
//! bit-for-bit.
//!
//! * [`PrecisionConfig`] — `(M, Δ_vcorr, N, TC)` grid point,
//! * [`WidthTable`] — Table I (allocated widths per intermediate),
//! * [`SoftmaxConstants`] — the offline-precomputed constants
//!   (`v_ln2`, `µ`, `v_b`, `v_c`),
//! * [`IntSoftmax`] — the end-to-end integer pipeline,
//! * [`float_ref`] — exact softmax reference,
//! * [`metrics`] — KL divergence and friends,
//! * [`sweep`] — the paper's precision grid.
//!
//! # Examples
//!
//! ```
//! use softmap_softmax::{IntSoftmax, PrecisionConfig};
//!
//! let cfg = PrecisionConfig::paper_best(); // M=6, vcorr=M, N=16, TC=-7
//! let sm = IntSoftmax::new(cfg)?;
//! let scores = [0.0_f64, -1.0, -2.0, -3.0];
//! let out = sm.run_floats(&scores)?;
//! let sum: f64 = out.probabilities.iter().sum();
//! assert!((sum - 1.0).abs() < 0.05);
//! # Ok::<(), softmap_softmax::SoftmaxError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod float_ref;
pub mod metrics;
pub mod sweep;

mod config;
mod constants;
mod ibert;
mod widths;

pub use config::{PrecisionConfig, SumMode};
pub use constants::SoftmaxConstants;
pub use ibert::{IntSoftmax, IntSoftmaxOutput};
pub use widths::WidthTable;

/// Errors from configuring or running the integer softmax.
#[derive(Debug, Clone, PartialEq)]
pub enum SoftmaxError {
    /// The configuration is internally inconsistent (e.g. `v_ln2 == 0`
    /// because the scale is too coarse).
    BadConfig(String),
    /// The input vector is empty.
    EmptyInput,
    /// An input code is out of the quantizer's range.
    CodeOutOfRange(i64),
    /// The score at this index is NaN, or every score is −∞ (index 0):
    /// the row has no softmax. See [`IntSoftmax::check_scores`].
    NonFinite(usize),
}

impl core::fmt::Display for SoftmaxError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            Self::EmptyInput => write!(f, "input vector is empty"),
            Self::CodeOutOfRange(c) => write!(f, "quantized code {c} out of range"),
            Self::NonFinite(i) => write!(f, "score {i} is NaN or the row's maximum is -inf"),
        }
    }
}

impl std::error::Error for SoftmaxError {}
