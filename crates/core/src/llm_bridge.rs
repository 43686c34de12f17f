//! The LLM-harness adapter: run every attention row's softmax on the
//! simulated AP, through the compiled-plan replay path.
//!
//! `softmap_llm`'s perplexity experiments (Tables III/IV) swap softmax
//! implementations behind [`SoftmaxFn`]; [`ApMappedSoftmax`] is the
//! variant that executes the mapped Fig. 5 dataflow instead of the
//! scalar specification. It is bit-exact with
//! [`softmap_llm::softmax_impls::IntApproxSoftmax`] at the same
//! precision (the mapping's defining property), so the perplexity
//! numbers are identical — what it adds is the deployment-faithful
//! execution path: every worker of
//! [`softmap_llm::softmax_impls::apply_batch_parallel`] holds one
//! persistent [`TileState`] in its [`SoftmaxScratch`] extension slot
//! and replays the shape's cached plan for every row it claims.

use std::sync::Arc;

use softmap_llm::softmax_impls::{SoftmaxFn, SoftmaxScratch};
use softmap_softmax::PrecisionConfig;

use crate::mapping::{ApSoftmax, ApSoftmaxRun, TileState};
use crate::serve::SoftmaxServer;
use crate::CoreError;

/// Per-worker state parked in [`SoftmaxScratch::ext`]: the persistent
/// tile (with its cached-plan slot), the reused run buffers, and the
/// `f32 → f64` staging vector.
#[derive(Default)]
struct ApWorkerState {
    tile: TileState,
    run: ApSoftmaxRun,
    scores64: Vec<f64>,
}

/// A [`SoftmaxFn`] that executes rows on the simulated AP via
/// [`ApSoftmax`], replaying cached plans per worker.
///
/// Rows longer than the device's tile capacity (the default is the
/// paper's 48 × 2048-row grid, i.e. 4096 scores per tile) execute
/// **sharded** across tiles, so long-context attention (8k–32k tokens)
/// runs through the same adapter, still bit-exact versus the scalar
/// specification.
///
/// # Examples
///
/// ```
/// use softmap::ApMappedSoftmax;
/// use softmap_llm::softmax_impls::{apply_batch_parallel, SoftmaxFn};
/// use softmap_softmax::PrecisionConfig;
///
/// let sm = ApMappedSoftmax::new(PrecisionConfig::paper_best())?;
/// let rows: Vec<Vec<f32>> = (0..4)
///     .map(|r| (0..8).map(|i| -((r * 3 + i) as f32) * 0.4).collect())
///     .collect();
/// let probs = apply_batch_parallel(&sm, &rows).map_err(softmap::CoreError::BadWorkload)?;
/// assert_eq!(probs.len(), 4);
/// // One shape across the batch: one compile, replays after.
/// assert_eq!(sm.mapping().plan_stats().compiles, 1);
/// # Ok::<(), softmap::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ApMappedSoftmax {
    mapping: ApSoftmax,
    /// When set, rows go through the serving layer's queue instead of
    /// executing inline — many harness workers then share the server's
    /// continuous wave batching.
    serve: Option<Arc<SoftmaxServer>>,
}

impl ApMappedSoftmax {
    /// Builds the adapter at one precision point with the mapping's
    /// defaults (fast backend plan-cached execution is selected by
    /// [`ApSoftmax`] itself).
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn new(cfg: PrecisionConfig) -> Result<Self, CoreError> {
        Ok(Self {
            mapping: ApSoftmax::new(cfg)?.with_backend(softmap_ap::ExecBackend::FastWord),
            serve: None,
        })
    }

    /// Wraps an already-configured mapping (layout, division style,
    /// backend, plan mode).
    #[must_use]
    pub fn with_mapping(mapping: ApSoftmax) -> Self {
        Self {
            mapping,
            serve: None,
        }
    }

    /// Routes every row through `server`'s submission queue instead of
    /// executing inline: harness workers become serving clients, and
    /// concurrent rows coalesce into device waves. The server should
    /// wrap the same precision/mapping configuration for the
    /// bit-exactness contract to refer to this adapter's mapping.
    #[must_use]
    pub fn with_server(mut self, server: Arc<SoftmaxServer>) -> Self {
        self.serve = Some(server);
        self
    }

    /// The serving layer this adapter routes through, if any.
    #[must_use]
    pub fn server(&self) -> Option<&Arc<SoftmaxServer>> {
        self.serve.as_ref()
    }

    /// The underlying mapping (plan-cache statistics live here).
    #[must_use]
    pub fn mapping(&self) -> &ApSoftmax {
        &self.mapping
    }
}

impl SoftmaxFn for ApMappedSoftmax {
    fn apply(&self, scores: &[f32]) -> Result<Vec<f32>, String> {
        self.apply_scratch(scores, &mut SoftmaxScratch::default())
    }

    fn apply_scratch(
        &self,
        scores: &[f32],
        scratch: &mut SoftmaxScratch,
    ) -> Result<Vec<f32>, String> {
        // Park the worker state in the scratch's extension slot; a
        // foreign occupant (another implementation's state) is
        // replaced.
        if !scratch
            .ext
            .as_ref()
            .is_some_and(|ext| ext.is::<ApWorkerState>())
        {
            scratch.ext = Some(Box::<ApWorkerState>::default());
        }
        let state = scratch
            .ext
            .as_mut()
            .and_then(|ext| ext.downcast_mut::<ApWorkerState>())
            .expect("slot was just ensured");
        let ApWorkerState {
            tile,
            run,
            scores64,
        } = state;
        scores64.clear();
        scores64.extend(scores.iter().map(|&s| f64::from(s)));
        if let Some(server) = &self.serve {
            let ticket = server.submit(scores64).map_err(|e| e.to_string())?;
            ticket.wait_into(run).map_err(|e| e.to_string())?;
        } else {
            self.mapping
                .execute_floats_into(tile, scores64, run)
                .map_err(|e| e.to_string())?;
        }
        let scale = f64::from(run.frac_bits).exp2().recip();
        Ok(run
            .codes
            .iter()
            .map(|&c| (c as f64 * scale) as f32)
            .collect())
    }

    fn name(&self) -> String {
        format!("SoftmAP AP replay {}", self.mapping.spec().config().label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softmap_llm::softmax_impls::{apply_batch_parallel, IntApproxSoftmax};

    #[test]
    fn matches_scalar_int_softmax_exactly() {
        let cfg = PrecisionConfig::paper_best();
        let ap = ApMappedSoftmax::new(cfg).unwrap();
        let scalar = IntApproxSoftmax::new(cfg).unwrap();
        for len in [3usize, 8, 17] {
            let row: Vec<f32> = (0..len).map(|i| -(i as f32) * 0.63 % 6.9).collect();
            assert_eq!(
                ap.apply(&row).unwrap(),
                scalar.apply(&row).unwrap(),
                "len {len}"
            );
        }
    }

    #[test]
    fn batch_workers_share_the_plan_cache() {
        let ap = ApMappedSoftmax::new(PrecisionConfig::paper_best()).unwrap();
        let rows: Vec<Vec<f32>> = (0..12)
            .map(|r| {
                (0..16)
                    .map(|i| -((r * 7 + i) as f32) * 0.21 % 6.3)
                    .collect()
            })
            .collect();
        let batched = apply_batch_parallel(&ap, &rows).unwrap();
        for (row, got) in rows.iter().zip(&batched) {
            assert_eq!(&ap.apply(row).unwrap(), got);
        }
        // One shape across the whole batch: exactly one compile, every
        // other row replays (possibly across several workers).
        assert_eq!(ap.mapping().plan_stats().compiles, 1);
        assert!(ap.mapping().plan_stats().hits >= 12);
    }

    #[test]
    fn worker_state_survives_and_foreign_ext_is_replaced() {
        let ap = ApMappedSoftmax::new(PrecisionConfig::paper_best()).unwrap();
        let mut scratch = SoftmaxScratch {
            ext: Some(Box::new(42u32)),
            ..SoftmaxScratch::default()
        };
        let row: Vec<f32> = (0..8).map(|i| -(i as f32) * 0.5).collect();
        let a = ap.apply_scratch(&row, &mut scratch).unwrap();
        let b = ap.apply_scratch(&row, &mut scratch).unwrap();
        assert_eq!(a, b);
        assert!(scratch
            .ext
            .as_ref()
            .is_some_and(|e| e.is::<super::ApWorkerState>()));
        assert!(ap.name().contains("AP replay"));
    }

    #[test]
    fn empty_rows_are_errors() {
        let ap = ApMappedSoftmax::new(PrecisionConfig::paper_best()).unwrap();
        assert!(ap.apply(&[]).is_err());
    }

    #[test]
    fn nan_rows_are_errors_inline_and_served() {
        let ap = ApMappedSoftmax::new(PrecisionConfig::paper_best()).unwrap();
        let server = SoftmaxServer::new(ap.mapping().clone(), Default::default()).unwrap();
        let served = ap.clone().with_server(Arc::new(server));
        let want = CoreError::NonFinite(1).to_string();
        for sm in [&ap, &served] {
            assert_eq!(sm.apply(&[0.0, f32::NAN, -3.0, -4.0]).unwrap_err(), want);
        }
    }

    #[test]
    fn long_context_rows_shard_and_match_scalar() {
        // A 6000-score attention row exceeds one 2048-row tile (4096
        // packed scores) on the default device: the adapter shards it
        // and stays bit-exact with the scalar implementation.
        let cfg = PrecisionConfig::paper_best();
        let ap = ApMappedSoftmax::new(cfg).unwrap();
        let scalar = IntApproxSoftmax::new(cfg).unwrap();
        let row: Vec<f32> = (0..6000).map(|i| -((i % 83) as f32) * 0.08).collect();
        assert_eq!(ap.apply(&row).unwrap(), scalar.apply(&row).unwrap());
        // The default mapping autotunes, so the winning partition may
        // use more shards than the paper's packed two-shard split.
        assert!(ap.mapping().sharded_plan(6000).unwrap().shards() >= 2);
    }

    #[test]
    fn long_context_batch_replays_sharded_plans_per_worker() {
        // Tiny device so the sharded path is exercised cheaply: every
        // batch row shards, workers share the compiled phase programs.
        let cfg = PrecisionConfig::paper_best();
        let mapping = crate::ApSoftmax::new(cfg)
            .unwrap()
            .with_backend(softmap_ap::ExecBackend::FastWord)
            .with_device(softmap_ap::DeviceConfig::new(2, 8));
        let ap = ApMappedSoftmax::with_mapping(mapping);
        let scalar = IntApproxSoftmax::new(cfg).unwrap();
        let rows: Vec<Vec<f32>> = (0..6)
            .map(|r| {
                (0..48)
                    .map(|i| -(((r * 5 + i) % 67) as f32) * 0.1)
                    .collect()
            })
            .collect();
        let batched = apply_batch_parallel(&ap, &rows).unwrap();
        for (row, got) in rows.iter().zip(&batched) {
            assert_eq!(&scalar.apply(row).unwrap(), got);
        }
        // One row shape: at most one sharded plan + six phase programs.
        assert!(ap.mapping().plan_stats().compiles <= 7);
        assert!(ap.mapping().plan_stats().hits >= 5);
    }
}
