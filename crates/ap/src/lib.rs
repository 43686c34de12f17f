//! Bit-level Associative Processor (AP) simulator.
//!
//! SoftmAP (DATE 2025) maps its integer-only softmax onto a
//! two-dimensional SRAM-based Associative Processor: a content
//! addressable memory (CAM) whose controller performs arithmetic as
//! sequences of *compare* / *write* cycles driven by per-operation
//! look-up tables (LUTs), bit-serially across word bits and in parallel
//! across all rows (Fig. 3 of the paper).
//!
//! This crate is that machine, built from the cells up:
//!
//! * [`RowSet`] — row bit-vectors backing the tag register and column planes,
//! * [`CamArray`] — the CAM: column bit-planes + key/mask/tag semantics,
//!   with exact cycle and per-cell event accounting,
//! * [`lut`] — LUT pass tables (XOR, addition, subtraction, copy, …)
//!   exactly in the compare/write formulation of the paper,
//! * [`ApCore`] — the controller: word-level operations (add, subtract,
//!   multiply, square, shifts, copy, broadcast, max-search, 2D reduction,
//!   division) composed from LUT passes over [`Field`]s,
//! * [`ExecBackend`] — the dual execution engine: every `ApCore` op runs
//!   either as interpreted bit-serial microcode (ground truth) or on a
//!   fused word-parallel fast path that is bit- and cycle-identical by
//!   contract (see the `backend` module docs for the cost model),
//! * [`ApTile`] — reusable tile state: one flat-arena core handed out
//!   freshly cleared per program, zero allocations in steady state,
//! * [`program`] — the compiled-program IR: a [`Recorder`] captures an
//!   op trace from the `ApCore` API into an [`ApProgram`] that replays
//!   bit- and cycle-exactly on either backend and answers cost queries
//!   ([`ApProgram::static_cost`]) without touching a CAM,
//! * [`device`] — the capacity-bounded device model: the finite tile
//!   grid, shard partitioning for long vectors, wave scheduling, and
//!   the cross-tile reduction-network cost contract,
//! * [`batch`] — the multi-tile batch driver: independent jobs fanned
//!   across host threads, one persistent simulated tile per worker,
//! * [`cost`] — the paper's Table II analytic runtime formulas,
//! * [`EnergyModel`] / [`AreaModel`] — calibrated 16 nm energy and area
//!   models driven by the counted cell events.
//!
//! # Examples
//!
//! The paper's Fig. 3 walk-through — XOR of A = \[3, 0, 2, 3\] and
//! B = \[1, 1, 2, 2\] on 2-bit words:
//!
//! ```
//! use softmap_ap::{ApCore, ApConfig};
//!
//! let mut ap = ApCore::new(ApConfig::new(4, 8)).unwrap();
//! let a = ap.alloc_field(2).unwrap();
//! let b = ap.alloc_field(2).unwrap();
//! let r = ap.alloc_field(2).unwrap();
//! ap.load(a, &[0b11, 0b00, 0b10, 0b11]).unwrap();
//! ap.load(b, &[0b01, 0b01, 0b10, 0b10]).unwrap();
//! ap.xor(a, b, r).unwrap();
//! assert_eq!(ap.read(r), vec![0b10, 0b01, 0b00, 0b01]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cost;
pub mod device;
pub mod lut;
pub mod program;

mod area;
mod backend;
mod cam;
mod core_ops;
mod energy;
mod field;
mod rowset;
mod stats;
mod tile;

pub use area::AreaModel;
pub use backend::ExecBackend;
pub use cam::CamArray;
pub use core_ops::{ApConfig, ApCore, DivStyle, Overflow};
pub use device::DeviceConfig;
pub use energy::{EnergyBreakdown, EnergyModel};
pub use field::Field;
pub use program::optimizer::{OptLevel, PassReport};
pub use program::{ApOp, ApProgram, BlockStats, ExecIo, Operand, ProgramScratch, Recorder, RegId};
pub use rowset::RowSet;
pub use stats::CycleStats;
pub use tile::ApTile;

/// Errors reported by the AP simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApError {
    /// A field allocation or access exceeded the CAM's column count.
    ColumnCapacity {
        /// Columns requested (end of range).
        needed: usize,
        /// Columns available in the array.
        available: usize,
    },
    /// More words were supplied than the CAM has rows.
    RowCapacity {
        /// Rows needed to store the data.
        needed: usize,
        /// Rows available in the array.
        available: usize,
    },
    /// A value does not fit in the destination field width.
    WidthOverflow {
        /// The value that did not fit.
        value: u64,
        /// Field width in bits.
        width: usize,
    },
    /// Fields overlap where an operation requires disjoint fields.
    FieldOverlap,
    /// Division by zero was attempted on at least one active row.
    DivisionByZero,
    /// Configuration values are out of range (zero rows/cols, etc.).
    BadConfig(&'static str),
}

impl core::fmt::Display for ApError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::ColumnCapacity { needed, available } => {
                write!(
                    f,
                    "column capacity exceeded: need {needed}, have {available}"
                )
            }
            Self::RowCapacity { needed, available } => {
                write!(f, "row capacity exceeded: need {needed}, have {available}")
            }
            Self::WidthOverflow { value, width } => {
                write!(f, "value {value} does not fit in {width} bits")
            }
            Self::FieldOverlap => write!(f, "operation requires disjoint fields"),
            Self::DivisionByZero => write!(f, "division by zero on an active row"),
            Self::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
        }
    }
}

impl std::error::Error for ApError {}
