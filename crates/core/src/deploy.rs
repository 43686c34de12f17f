//! The AP deployment model: how many tiles, how vectors are scheduled,
//! and what one full-model softmax workload costs.
//!
//! The paper deploys "an AP inside each head" (Fig. 4) and sizes the
//! area tables accordingly (one 2048-row tile per head reproduces the
//! 0.64/0.81/1.28 mm² of Section V-B), while its latency comparisons
//! imply several vectors in flight per head. Both knobs are explicit
//! here: `tiles_per_head` (1 for the area table, more for the latency
//! figures) and `packing` (whether multiple short vectors share a tile
//! — an ablation; the baseline 2D reduction network is unsegmented, so
//! the default is one vector in flight per tile). See the README's
//! "Reconciliation note" under the device-model section for the full
//! discussion.
//!
//! The tile capacity is **enforced**: the model hands its geometry to
//! the mapping as a [`softmap_ap::DeviceConfig`], so sequences past
//! `2 × rows_per_tile` tokens execute (and are costed) **sharded**
//! across the head's tiles — per-phase waves plus the cross-tile
//! reduction-network cycles — instead of being rejected.

use softmap_ap::{AreaModel, DeviceConfig, DivStyle, EnergyModel};
use softmap_softmax::PrecisionConfig;

use crate::mapping::ApSoftmax;
use crate::CoreError;

/// Deployment-level configuration of the AP accelerator.
///
/// # Examples
///
/// ```
/// use softmap::ApDeployment;
///
/// let d = ApDeployment::default();
/// assert_eq!(d.tiles_per_head, 48);
/// assert_eq!(d.rows_per_tile, 2048);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApDeployment {
    /// AP tiles per attention head (vectors processed concurrently).
    /// The default (48) is calibrated so the latency crossover against
    /// the GPU models falls at the paper's L ≈ 1024.
    pub tiles_per_head: usize,
    /// Rows per tile (2048 rows = sequence length 4096 at two words per
    /// row, the paper's maximum for a single tile; longer sequences
    /// execute sharded across the head's tiles).
    pub rows_per_tile: usize,
    /// Clock frequency in GHz (the paper's Table VI: 1000 MHz).
    pub clock_ghz: f64,
    /// Division microcode style.
    pub div_style: DivStyle,
    /// Whether several short vectors may share a tile (requires a
    /// segmented reduction network; ablation knob).
    pub packing: bool,
    /// Whether sharded vectors keep their shards **pinned** in tiles
    /// across the three phases (the residency plan; see
    /// `softmap_ap::device`). On: phase-boundary staging is elided and
    /// same-length shards run in SIMD lockstep, cutting sharded work
    /// and energy sharply. Off: the re-staged path, kept for
    /// differential testing and as the automatic per-vector fallback
    /// whenever a vector needs more shards than the head has tiles.
    /// Occupancy is unchanged either way — a resident vector holds the
    /// same `shards` tiles its waves would.
    pub resident: bool,
    /// Whether each shape compiles the mapping the autotuner's rule
    /// picks — one word per row, equal-length shards where the grid
    /// allows, the configured [`softmap_ap::DivStyle`] — instead of
    /// the paper's (see `softmap::mapping::autotune`). **Off by
    /// default at the deployment level** so the paper-reproduction
    /// tables keep the paper's fixed mapping byte-for-byte; opt in per
    /// deployment with
    /// `ApDeployment { autotune: true, ..ApDeployment::default() }`.
    /// (Bare [`crate::ApSoftmax`] mappings default to *on*.)
    pub autotune: bool,
}

impl Default for ApDeployment {
    fn default() -> Self {
        Self {
            tiles_per_head: 48,
            rows_per_tile: 2048,
            clock_ghz: 1.0,
            div_style: DivStyle::Restoring,
            packing: false,
            resident: true,
            autotune: false,
        }
    }
}

impl ApDeployment {
    /// The paper's area-table deployment: one tile per head.
    #[must_use]
    pub fn area_reference() -> Self {
        Self {
            tiles_per_head: 1,
            ..Self::default()
        }
    }
}

/// Cost of one full-model softmax workload on the AP deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApWorkloadCost {
    /// End-to-end latency, seconds (heads run in parallel; layers and
    /// vector waves serialize).
    pub latency_s: f64,
    /// Total energy, joules (scales with every processed vector across
    /// all heads and layers).
    pub energy_j: f64,
    /// Critical-path cycles for one vector (for a sharded vector this
    /// includes intra-vector waves and the cross-tile reductions).
    pub cycles_per_vector: u64,
    /// Cell events for one vector.
    pub events_per_vector: u64,
    /// Number of sequential waves per layer.
    pub waves_per_layer: u64,
    /// Tiles (shards) one vector occupies (1 when it fits one tile).
    pub shards_per_vector: u64,
}

impl ApWorkloadCost {
    /// Energy-delay product, J·s.
    #[must_use]
    pub fn edp(&self) -> f64 {
        self.latency_s * self.energy_j
    }
}

/// Characterizes the mapped dataflow per vector length and schedules it
/// over a transformer's softmax workload.
///
/// # Examples
///
/// ```
/// use softmap::{ApDeployment, WorkloadModel};
/// use softmap_softmax::PrecisionConfig;
///
/// let model = WorkloadModel::new(PrecisionConfig::paper_best(), ApDeployment::default())?;
/// let cost = model.cost(32, 32, 512, 1)?; // layers, heads, seq, batch
/// assert!(cost.latency_s > 0.0);
/// assert!(cost.energy_j > 0.0);
/// # Ok::<(), softmap::CoreError>(())
/// ```
#[derive(Debug)]
pub struct WorkloadModel {
    mapping: ApSoftmax,
    deploy: ApDeployment,
    energy: EnergyModel,
}

impl WorkloadModel {
    /// Builds the model for one precision configuration.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the mapping.
    pub fn new(cfg: PrecisionConfig, deploy: ApDeployment) -> Result<Self, CoreError> {
        Ok(Self {
            mapping: ApSoftmax::new(cfg)?
                .with_div_style(deploy.div_style)
                .with_resident(deploy.resident)
                .with_autotune(deploy.autotune)
                .with_device(DeviceConfig::new(
                    deploy.tiles_per_head,
                    deploy.rows_per_tile,
                )),
            deploy,
            energy: EnergyModel::nm16(),
        })
    }

    /// The deployment parameters.
    #[must_use]
    pub fn deployment(&self) -> ApDeployment {
        self.deploy
    }

    /// The underlying per-vector mapping (e.g. to inspect the
    /// [`ApSoftmax::mapping_choice`] of a shape when `autotune` is on).
    #[must_use]
    pub fn mapping(&self) -> &ApSoftmax {
        &self.mapping
    }

    /// The energy model in use.
    #[must_use]
    pub fn energy_model(&self) -> EnergyModel {
        self.energy
    }

    /// The full static device view per vector ([`crate::VectorCost`]):
    /// total work, shards, waves, reduction charges, and the critical
    /// path, from [`ApSoftmax::static_vector_cost`]. The shape's plan
    /// is compiled once from the mapping's deterministic representative
    /// input; every further query is an execution-free cache lookup.
    ///
    /// # Errors
    ///
    /// Propagates mapping execution errors.
    pub fn vector_cost(&self, seq_len: usize) -> Result<crate::VectorCost, CoreError> {
        self.mapping.static_vector_cost(seq_len)
    }

    /// Cost of the softmax workload of one full transformer forward
    /// pass: `layers × batch × seq_len` softmax vectors per head, heads
    /// in parallel across their tiles.
    ///
    /// # Errors
    ///
    /// * [`CoreError::BadWorkload`] for zero-sized workloads or vectors
    ///   exceeding the tile capacity.
    /// * Mapping execution errors.
    pub fn cost(
        &self,
        layers: usize,
        heads: usize,
        seq_len: usize,
        batch: usize,
    ) -> Result<ApWorkloadCost, CoreError> {
        self.cost_vectors(layers, heads, seq_len, batch * seq_len)
    }

    /// Cost of the softmax workload of one *decode* step: one query
    /// vector per batch element per head per layer, each attending over
    /// a `seq_len`-deep KV cache (extension experiment; the paper
    /// evaluates prefill).
    ///
    /// # Errors
    ///
    /// As [`WorkloadModel::cost`].
    pub fn cost_decode(
        &self,
        layers: usize,
        heads: usize,
        seq_len: usize,
        batch: usize,
    ) -> Result<ApWorkloadCost, CoreError> {
        self.cost_vectors(layers, heads, seq_len, batch)
    }

    fn cost_vectors(
        &self,
        layers: usize,
        heads: usize,
        seq_len: usize,
        vectors_per_head_layer: usize,
    ) -> Result<ApWorkloadCost, CoreError> {
        if layers == 0 || heads == 0 || seq_len == 0 || vectors_per_head_layer == 0 {
            return Err(CoreError::BadWorkload(
                "layers, heads, seq_len and batch must be non-zero".into(),
            ));
        }
        let vc = self.mapping.static_vector_cost(seq_len)?;
        let (slots, cycles_per_vector) = if vc.shards > 1 {
            // A sharded vector occupies `shards` of the head's tiles at
            // a time; its critical path already includes intra-vector
            // waves and the cross-tile reductions. Remaining tiles run
            // other vectors concurrently.
            let concurrent = (self.deploy.tiles_per_head / vc.shards).max(1);
            (concurrent, vc.latency_cycles)
        } else {
            let rows_needed = seq_len.div_ceil(2);
            let vectors_per_tile = if self.deploy.packing {
                (self.deploy.rows_per_tile / rows_needed).max(1)
            } else {
                1
            };
            (
                self.deploy.tiles_per_head * vectors_per_tile,
                vc.total.cycles(),
            )
        };
        let waves = vectors_per_head_layer.div_ceil(slots) as u64;

        let latency_s =
            (layers as u64 * waves * cycles_per_vector) as f64 / (self.deploy.clock_ghz * 1e9);

        let per_vec_energy = self.energy.energy(&vc.total).total_j;
        let total_vectors = (layers * heads * vectors_per_head_layer) as f64;
        let energy_j = per_vec_energy * total_vectors;

        Ok(ApWorkloadCost {
            latency_s,
            energy_j,
            cycles_per_vector,
            events_per_vector: vc.total.cell_events(),
            waves_per_layer: waves,
            shards_per_vector: vc.shards as u64,
        })
    }

    /// Deployment area in mm² for `heads` attention heads, using the
    /// mapped column budget and the calibrated 16 nm area model.
    ///
    /// # Errors
    ///
    /// Propagates mapping execution errors (the column budget comes from
    /// a compiled layout).
    pub fn area_mm2(&self, heads: usize) -> Result<f64, CoreError> {
        // Column budget from the compiled plan at full tile occupancy
        // (the layout is shape-determined, so the plan's metadata is
        // exactly the executed-layout measurement).
        let probe_len = (self.deploy.rows_per_tile * 2).min(256);
        let plan = self.mapping.plan(probe_len)?;
        let area = AreaModel::nm16();
        Ok(area.deployment_area_mm2(
            heads * self.deploy.tiles_per_head,
            self.deploy.rows_per_tile,
            plan.cols_used(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> WorkloadModel {
        WorkloadModel::new(PrecisionConfig::paper_best(), ApDeployment::default()).unwrap()
    }

    #[test]
    fn latency_scales_linearly_with_batch_and_layers() {
        // 480 = 10 full waves at the default 48 tiles/head, so the
        // ceil() in wave scheduling does not distort the ratios.
        let m = model();
        let base = m.cost(2, 8, 480, 1).unwrap();
        let b4 = m.cost(2, 8, 480, 4).unwrap();
        let l4 = m.cost(8, 8, 480, 1).unwrap();
        assert!((b4.latency_s / base.latency_s - 4.0).abs() < 0.01);
        assert!((l4.latency_s / base.latency_s - 4.0).abs() < 0.01);
    }

    #[test]
    fn heads_parallel_in_latency_but_not_energy() {
        let m = model();
        let h8 = m.cost(2, 8, 256, 1).unwrap();
        let h16 = m.cost(2, 16, 256, 1).unwrap();
        assert!((h16.latency_s - h8.latency_s).abs() < 1e-12);
        assert!((h16.energy_j / h8.energy_j - 2.0).abs() < 0.01);
    }

    #[test]
    fn more_tiles_cut_latency() {
        let small = WorkloadModel::new(
            PrecisionConfig::paper_best(),
            ApDeployment {
                tiles_per_head: 1,
                ..ApDeployment::default()
            },
        )
        .unwrap();
        let big = WorkloadModel::new(
            PrecisionConfig::paper_best(),
            ApDeployment {
                tiles_per_head: 8,
                ..ApDeployment::default()
            },
        )
        .unwrap();
        let a = small.cost(2, 8, 256, 1).unwrap();
        let b = big.cost(2, 8, 256, 1).unwrap();
        assert!(
            (a.latency_s / b.latency_s - 8.0).abs() < 0.2,
            "ratio = {}",
            a.latency_s / b.latency_s
        );
        // energy is workload-proportional, not tile-proportional
        assert!((a.energy_j - b.energy_j).abs() / a.energy_j < 1e-9);
    }

    #[test]
    fn packing_helps_short_sequences() {
        let base = ApDeployment {
            tiles_per_head: 8,
            ..ApDeployment::default()
        };
        let packed = WorkloadModel::new(
            PrecisionConfig::paper_best(),
            ApDeployment {
                packing: true,
                ..base
            },
        )
        .unwrap();
        let unpacked = WorkloadModel::new(PrecisionConfig::paper_best(), base).unwrap();
        let a = packed.cost(2, 8, 128, 1).unwrap();
        let b = unpacked.cost(2, 8, 128, 1).unwrap();
        assert!(a.latency_s < b.latency_s / 8.0);
    }

    #[test]
    fn long_sequences_shard_instead_of_failing() {
        // The seed rejected anything past 2 × rows_per_tile; the device
        // model runs it sharded — the very regime (8k–32k tokens) where
        // softmax dominates transformer latency.
        let m = model();
        let c8k = m.cost(1, 1, 8192, 1).unwrap();
        assert_eq!(c8k.shards_per_vector, 2);
        let c16k = m.cost(1, 1, 16384, 1).unwrap();
        assert_eq!(c16k.shards_per_vector, 4);
        // On the re-staged path, work (energy) scales ~linearly with
        // the token count; the critical path includes the cross-tile
        // reductions.
        let restaged = WorkloadModel::new(
            PrecisionConfig::paper_best(),
            ApDeployment {
                resident: false,
                ..ApDeployment::default()
            },
        )
        .unwrap();
        let c4k = m.cost(1, 1, 4096, 1).unwrap();
        assert_eq!(c4k.shards_per_vector, 1);
        let r16k = restaged.cost(1, 1, 16384, 1).unwrap();
        let per_tok_4k = c4k.energy_j / (4096.0 * 4096.0);
        let per_tok_16k = r16k.energy_j / (16384.0 * 16384.0);
        assert!(
            (per_tok_16k / per_tok_4k - 1.0).abs() < 0.25,
            "sharded energy per token drifted: {per_tok_16k} vs {per_tok_4k}"
        );
        // The default deployment keeps shards resident: at four shards
        // in one wave, lockstep execution cuts sharded energy well
        // below the re-staged characterization.
        assert!(
            c16k.energy_j < 0.5 * r16k.energy_j,
            "resident energy {} should undercut re-staged {}",
            c16k.energy_j,
            r16k.energy_j
        );
        assert!(c16k.cycles_per_vector > c8k.cycles_per_vector);
        // Degenerate workloads still error.
        assert!(matches!(
            m.cost(0, 1, 128, 1),
            Err(CoreError::BadWorkload(_))
        ));
    }

    #[test]
    fn sharded_vector_cost_exposes_device_view() {
        let m = model();
        let vc = m.vector_cost(16384).unwrap();
        assert_eq!(vc.shards, 4);
        assert_eq!(vc.waves, 1, "48 tiles hold 4 shards in one wave");
        assert!(vc.reduction.cycles() > 0);
        assert!(vc.latency_cycles < vc.total.cycles());
        assert_eq!(m.mapping().static_vector_cost(16384).unwrap(), vc);
    }

    #[test]
    fn area_reference_matches_paper_shape() {
        let m = WorkloadModel::new(
            PrecisionConfig::paper_best(),
            ApDeployment::area_reference(),
        )
        .unwrap();
        let a7 = m.area_mm2(32).unwrap();
        let a13 = m.area_mm2(40).unwrap();
        let a70 = m.area_mm2(64).unwrap();
        assert!((a13 / a7 - 1.25).abs() < 1e-6);
        assert!((a70 / a7 - 2.0).abs() < 1e-6);
        // magnitude in the paper's band (0.64 mm² for 32 heads)
        assert!(a7 > 0.2 && a7 < 2.0, "a7 = {a7}");
    }

    #[test]
    fn decode_costs_scale_with_batch_not_length_squared() {
        let m = model();
        let a = m.cost_decode(32, 32, 1024, 1).unwrap();
        let b = m.cost_decode(32, 32, 2048, 1).unwrap();
        // per-vector cycles barely grow with cache depth (log reduction)
        assert!(b.latency_s < a.latency_s * 1.2);
        // but energy grows with the cache depth (more rows active)
        assert!(b.energy_j > a.energy_j * 1.5);
        // decode is far cheaper than prefill at the same point
        let prefill = m.cost(32, 32, 1024, 1).unwrap();
        assert!(a.latency_s < prefill.latency_s / 10.0);
    }

    #[test]
    fn vector_stats_memoized() {
        let m = model();
        let a = m.vector_cost(512).unwrap();
        let b = m.vector_cost(512).unwrap();
        assert_eq!(a, b);
        assert_eq!(m.mapping().cache_stats().compiles, 1);
    }
}
