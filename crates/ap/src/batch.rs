//! Multi-tile batch execution.
//!
//! A deployed SoftmAP accelerator runs many independent AP tiles — one
//! softmax vector (or segment) per tile — in parallel. This module is
//! the host-side analogue: it fans a batch of independent jobs out
//! across OS threads, one simulated tile per job, and aggregates the
//! per-tile statistics into a [`BatchStats`] view (total work for
//! energy, slowest tile for the concurrent-hardware makespan).
//!
//! The thread fan-out itself is the dependency-free
//! [`softmap_par`] scheduler, re-exported here so tile-level callers
//! have one import.
//!
//! # Examples
//!
//! ```
//! use softmap_ap::batch;
//!
//! let squares = batch::parallel_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

pub use softmap_par::{
    parallel_map, parallel_map_with, tile_parallelism, try_parallel_map, try_parallel_map_with,
};

use crate::device;
use crate::CycleStats;

/// Aggregate view of a batch of per-tile statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Tiles in the batch.
    pub tiles: u64,
    /// Sum of all tiles' counters (total work / energy proxy).
    pub total: CycleStats,
    /// The batch's wall-clock makespan: the slowest tile under
    /// [`BatchStats::aggregate`]'s unbounded grid, or the wave-scheduled
    /// critical path under [`BatchStats::aggregate_on`]'s finite grid.
    pub makespan_cycles: u64,
    /// Sequential waves the batch needs on the grid (1 when every job
    /// had its own tile).
    pub waves: u64,
}

impl BatchStats {
    /// Aggregates per-tile statistics assuming one concurrent hardware
    /// tile per job (the unbounded-grid view).
    #[must_use]
    pub fn aggregate(per_tile: &[CycleStats]) -> Self {
        let mut total = CycleStats::default();
        let mut makespan = 0;
        for s in per_tile {
            total.accumulate(s);
            makespan = makespan.max(s.cycles());
        }
        Self {
            tiles: per_tile.len() as u64,
            total,
            makespan_cycles: makespan,
            waves: u64::from(!per_tile.is_empty()),
        }
    }

    /// Aggregates per-tile statistics on a **finite** grid of
    /// `grid_tiles` concurrent tiles: jobs beyond the grid execute in
    /// waves, and the makespan is the greedy list-scheduling critical
    /// path ([`device::wave_makespan`]).
    #[must_use]
    pub fn aggregate_on(per_tile: &[CycleStats], grid_tiles: usize) -> Self {
        let mut agg = Self::aggregate(per_tile);
        let cycles: Vec<u64> = per_tile.iter().map(CycleStats::cycles).collect();
        let mut loads = Vec::new();
        agg.makespan_cycles = device::wave_makespan(&cycles, grid_tiles, &mut loads);
        agg.waves = per_tile.len().div_ceil(grid_tiles.max(1)) as u64;
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_stats_aggregate() {
        let mut a = CycleStats::default();
        a.charge_compare(10, 2);
        let mut b = CycleStats::default();
        b.charge_compare(10, 2);
        b.charge_write(5, 1);
        let agg = BatchStats::aggregate(&[a, b]);
        assert_eq!(agg.tiles, 2);
        assert_eq!(agg.total.cycles(), 3);
        assert_eq!(agg.makespan_cycles, 2);
        assert_eq!(agg.waves, 1);
    }

    #[test]
    fn finite_grid_schedules_waves() {
        let mut s = CycleStats::default();
        s.charge_compare(8, 1);
        let jobs = [s; 5];
        // Unbounded grid: all five run at once.
        assert_eq!(BatchStats::aggregate(&jobs).makespan_cycles, 1);
        // Two tiles: ceil(5/2) = 3 waves, greedy makespan 3 cycles.
        let g = BatchStats::aggregate_on(&jobs, 2);
        assert_eq!(g.waves, 3);
        assert_eq!(g.makespan_cycles, 3);
        assert_eq!(g.total.cycles(), 5);
        // A grid at least as large as the batch matches the unbounded view.
        assert_eq!(
            BatchStats::aggregate_on(&jobs, 8).makespan_cycles,
            BatchStats::aggregate(&jobs).makespan_cycles
        );
    }

    #[test]
    fn reexported_parallel_map_runs_tiles() {
        let out = parallel_map(&[1u64, 2, 3], |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
        assert!(tile_parallelism(3) >= 1);
    }
}
