//! SoftmAP: software–hardware co-design for integer-only softmax on
//! associative processors — the paper's primary contribution.
//!
//! This crate ties the substrates together:
//!
//! * [`ApSoftmax`] — the sixteen-step Fig. 5 dataflow executed on the
//!   bit-level AP simulator, bit-exact against the scalar
//!   `softmap_softmax::IntSoftmax` specification,
//! * [`ApDeployment`] / [`WorkloadModel`] — the deployment model (tiles
//!   per head, scheduling, area) and per-workload latency/energy,
//! * [`characterize`] — the paper's evaluation: AP vs. A100/RTX3090
//!   energy, latency and EDP across Llama models, sequence lengths and
//!   batch sizes (Figs. 6–8, Tables V–VI).
//!
//! # Examples
//!
//! Run the integer softmax on the AP and check it against the scalar
//! specification:
//!
//! ```
//! use softmap::ApSoftmax;
//! use softmap_softmax::{IntSoftmax, PrecisionConfig};
//!
//! let cfg = PrecisionConfig::paper_best();
//! let scores = [0.0_f64, -0.4, -1.2, -3.0];
//! let scalar = IntSoftmax::new(cfg)?.run_floats(&scores)?;
//! let on_ap = ApSoftmax::new(cfg)?.execute_floats(&scores)?;
//! assert_eq!(on_ap.codes, scalar.codes);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod characterize;
pub mod llm_bridge;
pub mod mapping;
pub mod plan;
pub mod serve;

mod deploy;

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

pub use deploy::{ApDeployment, ApWorkloadCost, WorkloadModel};
pub use llm_bridge::ApMappedSoftmax;
pub use mapping::{
    ApSoftmax, ApSoftmaxRun, CacheStats, Layout, PlanMode, StepStats, TileState, VectorCost,
};
pub use plan::{
    AutotuneStats, CompiledPlan, MappingChoice, PlanCache, PlanStats, ShardedPlan, TunedPlan,
};
pub use serve::{ServeConfig, ServeStats, SoftmaxServer, Ticket};

/// Errors from the co-design layer.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The input vector is empty.
    EmptyInput,
    /// A workload parameter is invalid.
    BadWorkload(String),
    /// A non-blocking submission found the serving queue at its bound
    /// (see [`SoftmaxServer::try_submit`]); the caller should back off
    /// and retry, or use the blocking [`SoftmaxServer::submit`].
    QueueFull,
    /// An error from the AP simulator.
    Ap(softmap_ap::ApError),
    /// The score at this index is NaN, or every score is −∞ (index 0):
    /// the row has no softmax. Every real-score entry point applies
    /// [`softmap_softmax::IntSoftmax::check_scores`] before quantizing.
    NonFinite(usize),
    /// An error from the scalar softmax specification.
    Softmax(softmap_softmax::SoftmaxError),
    /// Executing a served request panicked (the panic hook reported
    /// the message); the server keeps serving the other requests.
    Panicked,
}

/// Locks `m`, recovering the guard from a thread that panicked while
/// holding it. Panics are caught per request and chunk (see [`serve`]);
/// no queue update can be left half-done, and a chunk a panic may have
/// left half-done is discarded with its job.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with [`lock`]'s recovery.
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

impl core::fmt::Display for CoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::EmptyInput => write!(f, "input vector is empty"),
            Self::BadWorkload(msg) => write!(f, "bad workload: {msg}"),
            Self::QueueFull => write!(f, "serving queue is full (backpressure)"),
            Self::Ap(e) => write!(f, "AP error: {e}"),
            Self::NonFinite(i) => write!(f, "score {i} is NaN or the row's maximum is -inf"),
            Self::Softmax(e) => write!(f, "softmax error: {e}"),
            Self::Panicked => write!(f, "execution panicked"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Ap(e) => Some(e),
            Self::Softmax(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<softmap_ap::ApError> for CoreError {
    fn from(e: softmap_ap::ApError) -> Self {
        Self::Ap(e)
    }
}

#[doc(hidden)]
impl From<softmap_softmax::SoftmaxError> for CoreError {
    fn from(e: softmap_softmax::SoftmaxError) -> Self {
        match e {
            softmap_softmax::SoftmaxError::NonFinite(i) => Self::NonFinite(i),
            e => Self::Softmax(e),
        }
    }
}
