//! Multi-tile batch execution.
//!
//! A deployed SoftmAP accelerator runs many independent AP tiles — one
//! softmax vector (or segment) per tile — in parallel. This module is
//! the host-side analogue: it fans a batch of independent jobs out
//! across OS threads, one simulated tile per job.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexported_parallel_map_runs_tiles() {
        let out = parallel_map(&[1u64, 2, 3], |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
        assert!(tile_parallelism(3) >= 1);
    }
}
