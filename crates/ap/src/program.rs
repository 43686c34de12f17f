//! Compiled AP programs: record an op trace once, replay it many times.
//!
//! The SoftmAP dataflow is *static*: for a fixed (layout, rows,
//! precision, division style) the controller issues the same sixteen-step
//! microcode sequence for every vector — only the data changes. SOLE and
//! VEXP exploit exactly this to precompute their schedules; this module
//! is the equivalent layer for the simulated AP.
//!
//! Three pieces:
//!
//! * [`ApOp`] — one controller-level operation with **pre-resolved**
//!   field column ranges, input/output slots, and scalar registers.
//!   Host-side values that the controller derives at run time (the
//!   min-search result, the reduction sum) flow through *registers*
//!   ([`RegId`]) instead of being burned into the trace, so a recorded
//!   program is valid for any input of the same shape.
//! * [`Recorder`] — wraps an [`ApCore`] with the same op vocabulary the
//!   mapping layer uses, executing each op as it is issued and
//!   (optionally) appending it to a trace together with the exact
//!   [`CycleStats`] delta it charged. `Recorder::finish` turns the
//!   trace into an [`ApProgram`].
//! * [`ApProgram::replay`] — runs a program on any core of the same
//!   geometry, on either [`crate::ExecBackend`], with **bit- and
//!   cycle-exact** results versus issuing the same ops directly
//!   (enforced by the differential proptests in
//!   `crates/ap/tests/program_replay.rs`).
//!
//! [`ApProgram::static_cost`] returns the cycle/cell-event totals
//! recorded at compile time — a cost query that touches no CAM. Cycle
//! counts of the mapped dataflow are shape-determined except for
//! data-dependent microcode inside a few ops (the restoring divider's
//! restore adds, saturating subtractions that underflow nowhere,
//! variable shifts, the reciprocal divider's distinct-divisor count) and
//! write-tag populations, so the static cost is exact for the input the
//! program was compiled from and for any input following the same
//! microcode path; `softmap`'s cost tables compile from a deterministic
//! representative input for exactly this reason.
//!
//! # The residency contract
//!
//! Sharded phase programs can execute **resident**: the shard's tile is
//! not cleared between the min-search, exp, and divide phases, so each
//! phase's input planes are the previous phase's output planes, still
//! in the arena. For this to be sound the three phase programs of one
//! shard length must compile against a *shared field layout* — the same
//! allocation order at the same union geometry in every phase — so
//! column ranges line up across phase boundaries. The persistent fields
//! are the per-half score planes `x` (written once by the min phase,
//! stabilized in place and consumed by the exp phase) and the per-half
//! `v_approx` planes (written by the exp phase, consumed by the divide
//! phase); every other field is written before it is read within its
//! own phase, so junk left by a previous phase is harmless — both
//! backends' dividers zero their remainder/quotient scratch before use.
//! Cost-wise, residency elides the phase-boundary `Load`/`Read` staging
//! ops entirely (they are simply not recorded in the resident phase
//! programs), and same-length resident shards execute the identical
//! program in SIMD lockstep across tiles: the wave's first shard of a
//! length replays at full price, the rest through
//! [`ApProgram::replay_lockstep`], which charges only per-tile-distinct
//! input staging. Both discounts charge identical [`CycleStats`] on
//! both backends. The re-staged path (and the automatic fallback when a
//! vector's shards exceed the tile grid) is unchanged from before
//! residency existed.
//!
//! # Examples
//!
//! ```
//! use softmap_ap::{ApConfig, ApCore, CycleStats};
//! use softmap_ap::program::{ExecIo, ProgramScratch, Recorder};
//!
//! // Record: x += 1 over every row, then read x back.
//! let mut core = ApCore::new(ApConfig::new(4, 20)).unwrap();
//! let x = core.alloc_field(6).unwrap();
//! let one = core.alloc_field(6).unwrap();
//! let data: Vec<u64> = vec![1, 2, 3, 4];
//! let inputs: [&[u64]; 1] = [&data];
//! let mut out = Vec::new();
//! {
//!     let mut outs: [&mut Vec<u64>; 1] = [&mut out];
//!     let mut scratch = ProgramScratch::default();
//!     let mut on_step = |_: &'static str, _: CycleStats| {};
//!     let mut rec = Recorder::new(
//!         &mut core,
//!         ExecIo::new(&inputs, &mut outs),
//!         &mut scratch,
//!         &mut on_step,
//!         true,
//!     );
//!     rec.load(x, 0).unwrap();
//!     rec.broadcast(one, 1).unwrap();
//!     rec.add_into(x, one).unwrap();
//!     rec.read(x, 0).unwrap();
//!     let program = rec.finish().unwrap();
//!     assert_eq!(out, vec![2, 3, 4, 5]);
//!     // The recorded cost is the recording execution's cost, exactly.
//!     assert_eq!(program.static_cost(), core.stats());
//!
//!     // Replay on a fresh core with new data: no re-deciding, no field
//!     // allocation — the ops carry resolved column ranges.
//!     let mut core2 = ApCore::new(ApConfig::new(4, 20)).unwrap();
//!     let data2: Vec<u64> = vec![10, 20, 30, 40];
//!     let inputs2: [&[u64]; 1] = [&data2];
//!     let mut out2 = Vec::new();
//!     let mut outs2: [&mut Vec<u64>; 1] = [&mut out2];
//!     program
//!         .replay(
//!             &mut core2,
//!             ExecIo::new(&inputs2, &mut outs2),
//!             &mut scratch,
//!             |_, _| {},
//!         )
//!         .unwrap();
//!     assert_eq!(out2, vec![11, 21, 31, 41]);
//! }
//! ```

pub mod optimizer;

use crate::{ApConfig, ApCore, ApError, CycleStats, DivStyle, ExecBackend, Field, Overflow};

/// Index of a scalar register: a host-side value a program derives at
/// run time (a min-search result, a reduction sum) and feeds back into
/// later ops. Register contents live in [`ProgramScratch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegId(u32);

impl RegId {
    /// The register's index into [`ProgramScratch`].
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A broadcast value: a compile-time constant or a register read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A constant resolved at compile time (the dataflow's µ, v_ln2,
    /// v_b, v_c writes).
    Const(u64),
    /// The current value of a scalar register.
    Reg(RegId),
}

/// One operation of a compiled AP program. Field operands are
/// pre-resolved column ranges; host I/O references input/output *slots*
/// bound at replay time; scalar values flow through registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApOp {
    /// Bulk-load input slot `input` into `field` (the dataflow's
    /// "Write v" steps).
    Load {
        /// Destination field.
        field: Field,
        /// Input slot index.
        input: u32,
    },
    /// Broadcast a constant or register value into `field` on all rows.
    Broadcast {
        /// Destination field.
        field: Field,
        /// The value to drive.
        value: Operand,
    },
    /// Out-of-place copy `dst = src`.
    Copy {
        /// Source field.
        src: Field,
        /// Destination field.
        dst: Field,
    },
    /// Out-of-place multiply `r = a * b` (gated shift-add LUT sweep).
    Mul {
        /// Left operand.
        a: Field,
        /// Right operand.
        b: Field,
        /// Result field (`a.width() + b.width()` bits or wider).
        r: Field,
    },
    /// In-place addition `acc += src`.
    AddInto {
        /// Accumulator.
        acc: Field,
        /// Addend.
        src: Field,
    },
    /// In-place subtraction `acc -= src` whose borrow set must be empty
    /// by construction (checked with a debug assertion at replay, as on
    /// the direct-issue path).
    SubAssertClean {
        /// Accumulator.
        acc: Field,
        /// Subtrahend.
        src: Field,
    },
    /// Saturating in-place subtraction `acc = max(acc - src, 0)`.
    SaturatingSubInto {
        /// Accumulator.
        acc: Field,
        /// Subtrahend.
        src: Field,
    },
    /// In-place logical right shift by a constant.
    ShrConst {
        /// The shifted field.
        field: Field,
        /// Shift amount in bits.
        k: usize,
    },
    /// In-place per-row variable right shift (`field >>= amount`).
    ShrVariable {
        /// The shifted field.
        field: Field,
        /// Per-row shift amounts.
        amount: Field,
    },
    /// Bit-serial minimum search over `field`; the minimum value lands
    /// in register `dst` (one compare cycle per bit).
    MinSearch {
        /// Searched field.
        field: Field,
        /// Destination register.
        dst: RegId,
    },
    /// Scalar register minimum `dst = min(a, b)` (controller-side,
    /// free).
    RegMin {
        /// Destination register.
        dst: RegId,
        /// First operand register.
        a: RegId,
        /// Second operand register.
        b: RegId,
    },
    /// Scalar clamp `dst = max(src, 1)` — the divisor clamp after a
    /// wrapped reduction (controller-side, free).
    RegMax1 {
        /// Destination register.
        dst: RegId,
        /// Source register.
        src: RegId,
    },
    /// Load scalar input slot `slot` into register `dst` — how values
    /// computed outside this program (a cross-tile reduction result
    /// arriving over the reduction network) enter a shard's replay.
    /// Controller-side and free here; the network transfer itself is
    /// charged by the device model's reduction-cost contract.
    RegLoad {
        /// Destination register.
        dst: RegId,
        /// Scalar input slot index.
        slot: u32,
    },
    /// 2D row-parallel tree reduction of `field` over segments of
    /// `segment_rows` rows; the first segment's sum lands in `dst`.
    ReduceSum {
        /// Summed field.
        field: Field,
        /// Per-segment sum landing field.
        sum_field: Field,
        /// Rows per segment.
        segment_rows: usize,
        /// Overflow behaviour.
        mode: Overflow,
        /// Destination register (first segment's sum).
        dst: RegId,
    },
    /// Word-parallel fixed-point division
    /// `quot = (num << frac_bits) / den`.
    Divide {
        /// Numerator field.
        num: Field,
        /// Divisor field.
        den: Field,
        /// Quotient field.
        quot: Field,
        /// Fixed-point fraction bits.
        frac_bits: usize,
        /// Division microcode style.
        style: DivStyle,
    },
    /// Optimizer-generated fused constant multiply `r = a * bits`
    /// (folded from a `Broadcast(Const)` + [`ApOp::Mul`] pair): the
    /// controller knows every multiplier bit at compile time, so zero
    /// bits issue no LUT sweep at all and set bits run ungated. The
    /// result planes — the carry column included — are identical to
    /// the broadcast-then-multiply pair on both backends.
    MulConst {
        /// Multiplicand field.
        a: Field,
        /// Result field (`a.width() + width` bits or wider).
        r: Field,
        /// The constant multiplier, resolved at compile time.
        bits: u64,
        /// Multiplier width in bits (the folded `b` operand's width).
        width: usize,
    },
    /// Optimizer-generated fused restoring division: the same plane
    /// math as [`ApOp::Divide`] with [`DivStyle::Restoring`], but the
    /// controller renames the remainder window each iteration instead
    /// of physically shifting it (one canonicalization copy per
    /// channel replaces the per-iteration shift sweeps), and up to two
    /// divisions sharing one divisor run as a single batched arena
    /// pass.
    FusedDivide {
        /// Shared divisor field.
        den: Field,
        /// Fixed-point fraction bits.
        frac_bits: usize,
        /// `(numerator, quotient)` channel pairs; only the first
        /// `n_channels` entries are live.
        channels: [(Field, Field); 2],
        /// Number of live channels (1 or 2).
        n_channels: u8,
    },
    /// Append `field`'s words to output slot `output` (free read-out).
    Read {
        /// Source field.
        field: Field,
        /// Output slot index.
        output: u32,
    },
    /// A named step boundary: replay reports the [`CycleStats`] charged
    /// since the previous boundary to the step callback.
    Step {
        /// Step name (the mapping uses Fig. 5 step labels).
        name: &'static str,
    },
}

/// Reusable run-time state for recording and replay: scalar registers
/// plus the reduction-sums staging buffer. Keep one per worker (the
/// mapping's `TileState` does) so steady-state replay allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct ProgramScratch {
    regs: Vec<u64>,
    sums: Vec<u64>,
}

impl ProgramScratch {
    /// The current value of a register.
    ///
    /// # Panics
    ///
    /// Panics if the register was never written in the last
    /// record/replay.
    #[must_use]
    pub fn reg(&self, id: RegId) -> u64 {
        self.regs[id.index()]
    }

    fn set_reg(&mut self, id: RegId, value: u64) -> Result<(), ApError> {
        let i = id.index();
        match i.cmp(&self.regs.len()) {
            core::cmp::Ordering::Less => self.regs[i] = value,
            core::cmp::Ordering::Equal => self.regs.push(value),
            core::cmp::Ordering::Greater => {
                return Err(ApError::BadConfig("program register out of range"))
            }
        }
        Ok(())
    }

    fn get_reg(&self, id: RegId) -> Result<u64, ApError> {
        self.regs
            .get(id.index())
            .copied()
            .ok_or(ApError::BadConfig("program register read before write"))
    }
}

/// Borrowed input/output bindings for one program execution: `inputs`
/// are the bulk-load word slices ([`ApOp::Load`] slots), `outputs` the
/// read-out buffers ([`ApOp::Read`] slots, appended to), and `scalars`
/// the externally computed register values ([`ApOp::RegLoad`] slots —
/// cross-tile reduction results fed back into a shard).
pub struct ExecIo<'s, 'd> {
    inputs: &'s [&'d [u64]],
    outputs: &'s mut [&'d mut Vec<u64>],
    scalars: &'s [u64],
}

impl<'s, 'd> ExecIo<'s, 'd> {
    /// Binds input and output slots (no scalar inputs).
    pub fn new(inputs: &'s [&'d [u64]], outputs: &'s mut [&'d mut Vec<u64>]) -> Self {
        Self {
            inputs,
            outputs,
            scalars: &[],
        }
    }

    /// Binds scalar input slots on top of the word I/O.
    #[must_use]
    pub fn with_scalars(mut self, scalars: &'s [u64]) -> Self {
        self.scalars = scalars;
        self
    }

    fn input(&self, slot: u32) -> Result<&'d [u64], ApError> {
        self.inputs
            .get(slot as usize)
            .copied()
            .ok_or(ApError::BadConfig("program input slot out of range"))
    }

    fn output(&mut self, slot: u32) -> Result<&mut Vec<u64>, ApError> {
        self.outputs
            .get_mut(slot as usize)
            .map(|v| &mut **v)
            .ok_or(ApError::BadConfig("program output slot out of range"))
    }

    fn scalar(&self, slot: u32) -> Result<u64, ApError> {
        self.scalars
            .get(slot as usize)
            .copied()
            .ok_or(ApError::BadConfig("program scalar slot out of range"))
    }
}

/// Executes one op against destructured run-time state. This is the
/// single execution engine behind both the recording path and replay,
/// so the two cannot diverge.
fn apply_op(
    core: &mut ApCore,
    op: &ApOp,
    io: &mut ExecIo<'_, '_>,
    scratch: &mut ProgramScratch,
    mark: &mut CycleStats,
    on_step: &mut dyn FnMut(&'static str, CycleStats),
) -> Result<(), ApError> {
    match *op {
        ApOp::Load { field, input } => core.load(field, io.input(input)?),
        ApOp::Broadcast { field, value } => {
            let v = match value {
                Operand::Const(c) => c,
                Operand::Reg(r) => scratch.get_reg(r)?,
            };
            core.broadcast(field, v)
        }
        ApOp::Copy { src, dst } => core.copy(src, dst),
        ApOp::Mul { a, b, r } => core.mul(a, b, r),
        ApOp::AddInto { acc, src } => core.add_into(acc, src),
        ApOp::SubAssertClean { acc, src } => {
            let clean = core.sub_into_ref(acc, src)?.is_none_set();
            debug_assert!(clean, "recorded subtraction must not underflow");
            let _ = clean;
            Ok(())
        }
        ApOp::SaturatingSubInto { acc, src } => core.saturating_sub_into(acc, src),
        ApOp::ShrConst { field, k } => core.shr_const(field, k),
        ApOp::ShrVariable { field, amount } => core.shr_variable(field, amount),
        ApOp::MinSearch { field, dst } => {
            let v = core.min_search_value(field);
            scratch.set_reg(dst, v)
        }
        ApOp::RegMin { dst, a, b } => {
            let v = scratch.get_reg(a)?.min(scratch.get_reg(b)?);
            scratch.set_reg(dst, v)
        }
        ApOp::RegMax1 { dst, src } => {
            let v = scratch.get_reg(src)?.max(1);
            scratch.set_reg(dst, v)
        }
        ApOp::RegLoad { dst, slot } => {
            let v = io.scalar(slot)?;
            scratch.set_reg(dst, v)
        }
        ApOp::ReduceSum {
            field,
            sum_field,
            segment_rows,
            mode,
            dst,
        } => {
            let ProgramScratch { sums, .. } = scratch;
            core.reduce_sum_2d_mode_into(field, sum_field, segment_rows, mode, sums)?;
            let first = scratch.sums[0];
            scratch.set_reg(dst, first)
        }
        ApOp::Divide {
            num,
            den,
            quot,
            frac_bits,
            style,
        } => core.divide(num, den, quot, frac_bits, style),
        ApOp::MulConst { a, r, bits, width } => core.mul_const(a, r, bits, width),
        ApOp::FusedDivide {
            den,
            frac_bits,
            ref channels,
            n_channels,
        } => core.fused_divide(&channels[..n_channels as usize], den, frac_bits),
        ApOp::Read { field, output } => {
            core.read_append(field, io.output(output)?);
            Ok(())
        }
        ApOp::Step { name } => {
            let now = core.stats();
            on_step(name, now.since(mark));
            *mark = now;
            Ok(())
        }
    }
}

/// Trace under construction: the ops issued so far and the exact cost
/// each charged during the recording execution.
#[derive(Debug, Default)]
struct Trace {
    ops: Vec<ApOp>,
    costs: Vec<CycleStats>,
    last: CycleStats,
}

/// Issues controller ops against an [`ApCore`], optionally recording
/// them into an [`ApProgram`]. In pass-through mode (`record = false`)
/// the recorder is a zero-overhead adapter: ops execute directly and
/// nothing is retained — the mapping layer's *direct-issue* path.
///
/// The recorder captures the core's current column-allocation cursor at
/// construction; replay restores it so ops that allocate scratch
/// internally (division) land on the same columns they did while
/// recording.
pub struct Recorder<'s, 'd> {
    core: &'s mut ApCore,
    io: ExecIo<'s, 'd>,
    scratch: &'s mut ProgramScratch,
    on_step: &'s mut dyn FnMut(&'static str, CycleStats),
    mark: CycleStats,
    reserved_cols: usize,
    num_regs: u32,
    trace: Option<Trace>,
}

impl<'s, 'd> Recorder<'s, 'd> {
    /// Starts issuing (and, when `record` is set, recording) on `core`.
    /// All fields the program touches must already be allocated; the
    /// step callback receives the per-step cost deltas exactly as
    /// replay will report them.
    pub fn new(
        core: &'s mut ApCore,
        io: ExecIo<'s, 'd>,
        scratch: &'s mut ProgramScratch,
        on_step: &'s mut dyn FnMut(&'static str, CycleStats),
        record: bool,
    ) -> Self {
        scratch.regs.clear();
        scratch.sums.clear();
        let mark = core.stats();
        let reserved_cols = core.cols() - core.free_cols();
        Self {
            core,
            io,
            scratch,
            on_step,
            mark,
            reserved_cols,
            num_regs: 0,
            trace: record.then(|| Trace {
                last: mark,
                ..Trace::default()
            }),
        }
    }

    /// Executes `op` and appends it (with its cost) to the trace.
    fn issue(&mut self, op: ApOp) -> Result<(), ApError> {
        apply_op(
            self.core,
            &op,
            &mut self.io,
            self.scratch,
            &mut self.mark,
            self.on_step,
        )?;
        if let Some(t) = &mut self.trace {
            let now = self.core.stats();
            t.costs.push(now.since(&t.last));
            t.last = now;
            t.ops.push(op);
        }
        Ok(())
    }

    fn alloc_reg(&mut self) -> RegId {
        let id = RegId(self.num_regs);
        self.num_regs += 1;
        id
    }

    /// Rows of the underlying core (for shape-derived op parameters
    /// like the reduction segment size).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.core.rows()
    }

    /// Marks a named step boundary.
    pub fn step(&mut self, name: &'static str) {
        self.issue(ApOp::Step { name })
            .expect("step marks cannot fail");
    }

    /// Bulk-loads input slot `input` into `field`.
    ///
    /// # Errors
    ///
    /// See [`ApCore::load`]; also errors on an unbound input slot.
    pub fn load(&mut self, field: Field, input: usize) -> Result<(), ApError> {
        self.issue(ApOp::Load {
            field,
            input: u32::try_from(input).map_err(|_| ApError::BadConfig("input slot too large"))?,
        })
    }

    /// Broadcasts a constant into `field` on all rows.
    ///
    /// # Errors
    ///
    /// See [`ApCore::broadcast`].
    pub fn broadcast(&mut self, field: Field, value: u64) -> Result<(), ApError> {
        self.issue(ApOp::Broadcast {
            field,
            value: Operand::Const(value),
        })
    }

    /// Broadcasts a register's value into `field` on all rows.
    ///
    /// # Errors
    ///
    /// See [`ApCore::broadcast`].
    pub fn broadcast_reg(&mut self, field: Field, reg: RegId) -> Result<(), ApError> {
        self.issue(ApOp::Broadcast {
            field,
            value: Operand::Reg(reg),
        })
    }

    /// Out-of-place copy; see [`ApCore::copy`].
    ///
    /// # Errors
    ///
    /// See [`ApCore::copy`].
    pub fn copy(&mut self, src: Field, dst: Field) -> Result<(), ApError> {
        self.issue(ApOp::Copy { src, dst })
    }

    /// Out-of-place multiply; see [`ApCore::mul`].
    ///
    /// # Errors
    ///
    /// See [`ApCore::mul`].
    pub fn mul(&mut self, a: Field, b: Field, r: Field) -> Result<(), ApError> {
        self.issue(ApOp::Mul { a, b, r })
    }

    /// In-place addition; see [`ApCore::add_into`].
    ///
    /// # Errors
    ///
    /// See [`ApCore::add_into`].
    pub fn add_into(&mut self, acc: Field, src: Field) -> Result<(), ApError> {
        self.issue(ApOp::AddInto { acc, src })
    }

    /// In-place subtraction that must not underflow by construction
    /// (debug-asserted); see [`ApCore::sub_into_ref`].
    ///
    /// # Errors
    ///
    /// See [`ApCore::sub_into`].
    pub fn sub_assert_clean(&mut self, acc: Field, src: Field) -> Result<(), ApError> {
        self.issue(ApOp::SubAssertClean { acc, src })
    }

    /// Saturating in-place subtraction; see
    /// [`ApCore::saturating_sub_into`].
    ///
    /// # Errors
    ///
    /// See [`ApCore::saturating_sub_into`].
    pub fn saturating_sub_into(&mut self, acc: Field, src: Field) -> Result<(), ApError> {
        self.issue(ApOp::SaturatingSubInto { acc, src })
    }

    /// Constant right shift; see [`ApCore::shr_const`].
    ///
    /// # Errors
    ///
    /// See [`ApCore::shr_const`].
    pub fn shr_const(&mut self, field: Field, k: usize) -> Result<(), ApError> {
        self.issue(ApOp::ShrConst { field, k })
    }

    /// Per-row variable right shift; see [`ApCore::shr_variable`].
    ///
    /// # Errors
    ///
    /// See [`ApCore::shr_variable`].
    pub fn shr_variable(&mut self, field: Field, amount: Field) -> Result<(), ApError> {
        self.issue(ApOp::ShrVariable { field, amount })
    }

    /// Bit-serial minimum search into a fresh register; see
    /// [`ApCore::min_search_value`].
    pub fn min_search(&mut self, field: Field) -> RegId {
        let dst = self.alloc_reg();
        self.issue(ApOp::MinSearch { field, dst })
            .expect("min search cannot fail");
        dst
    }

    /// Scalar register minimum into a fresh register (controller-side,
    /// free).
    pub fn reg_min(&mut self, a: RegId, b: RegId) -> RegId {
        let dst = self.alloc_reg();
        self.issue(ApOp::RegMin { dst, a, b })
            .expect("register ops on recorded registers cannot fail");
        dst
    }

    /// Scalar clamp `max(src, 1)` into a fresh register
    /// (controller-side, free).
    pub fn reg_max1(&mut self, src: RegId) -> RegId {
        let dst = self.alloc_reg();
        self.issue(ApOp::RegMax1 { dst, src })
            .expect("register ops on recorded registers cannot fail");
        dst
    }

    /// Loads scalar input slot `slot` into a fresh register — how a
    /// cross-tile value (global minimum, combined sum) enters a shard's
    /// program.
    ///
    /// # Errors
    ///
    /// Errors on an unbound scalar slot.
    pub fn reg_input(&mut self, slot: usize) -> Result<RegId, ApError> {
        let dst = self.alloc_reg();
        self.issue(ApOp::RegLoad {
            dst,
            slot: u32::try_from(slot).map_err(|_| ApError::BadConfig("scalar slot too large"))?,
        })?;
        Ok(dst)
    }

    /// 2D tree reduction; the first segment's sum lands in the returned
    /// register. See [`ApCore::reduce_sum_2d_mode_into`].
    ///
    /// # Errors
    ///
    /// See [`ApCore::reduce_sum_2d_mode_into`].
    pub fn reduce_sum(
        &mut self,
        field: Field,
        sum_field: Field,
        segment_rows: usize,
        mode: Overflow,
    ) -> Result<RegId, ApError> {
        let dst = self.alloc_reg();
        self.issue(ApOp::ReduceSum {
            field,
            sum_field,
            segment_rows,
            mode,
            dst,
        })?;
        Ok(dst)
    }

    /// Word-parallel division; see [`ApCore::divide`].
    ///
    /// # Errors
    ///
    /// See [`ApCore::divide`].
    pub fn divide(
        &mut self,
        num: Field,
        den: Field,
        quot: Field,
        frac_bits: usize,
        style: DivStyle,
    ) -> Result<(), ApError> {
        self.issue(ApOp::Divide {
            num,
            den,
            quot,
            frac_bits,
            style,
        })
    }

    /// Appends `field`'s words to output slot `output`.
    ///
    /// # Errors
    ///
    /// Errors on an unbound output slot.
    pub fn read(&mut self, field: Field, output: usize) -> Result<(), ApError> {
        self.issue(ApOp::Read {
            field,
            output: u32::try_from(output)
                .map_err(|_| ApError::BadConfig("output slot too large"))?,
        })
    }

    /// Ends the recording. Returns the compiled program, or `None` in
    /// pass-through mode.
    #[must_use]
    pub fn finish(self) -> Option<ApProgram> {
        let trace = self.trace?;
        let summary = summarize(&trace.ops, &trace.costs);
        Some(ApProgram {
            config: ApConfig::new(self.core.rows(), self.core.cols()),
            reserved_cols: self.reserved_cols,
            num_regs: self.num_regs as usize,
            num_inputs: summary.num_inputs as usize,
            num_outputs: summary.num_outputs as usize,
            num_scalars: summary.num_scalars as usize,
            ops: trace.ops,
            costs: trace.costs,
            static_total: summary.static_total,
            static_steps: summary.static_steps,
            hoisted: Vec::new(),
            blocking: None,
        })
    }
}

/// Static summary of a trace: totals, per-step segments, and slot
/// counts — shared by [`Recorder::finish`] and [`ApProgram::recost`].
struct TraceSummary {
    static_total: CycleStats,
    static_steps: Vec<(&'static str, CycleStats)>,
    num_inputs: u32,
    num_outputs: u32,
    num_scalars: u32,
}

fn summarize(ops: &[ApOp], costs: &[CycleStats]) -> TraceSummary {
    let mut static_total = CycleStats::default();
    for c in costs {
        static_total.accumulate(c);
    }
    let mut static_steps = Vec::new();
    let mut seg = CycleStats::default();
    let mut num_inputs = 0u32;
    let mut num_outputs = 0u32;
    let mut num_scalars = 0u32;
    for (op, cost) in ops.iter().zip(costs) {
        match *op {
            ApOp::Step { name } => {
                static_steps.push((name, seg));
                seg = CycleStats::default();
            }
            ApOp::Load { input, .. } => {
                num_inputs = num_inputs.max(input + 1);
                seg.accumulate(cost);
            }
            ApOp::Read { output, .. } => {
                num_outputs = num_outputs.max(output + 1);
                seg.accumulate(cost);
            }
            ApOp::RegLoad { slot, .. } => {
                num_scalars = num_scalars.max(slot + 1);
                seg.accumulate(cost);
            }
            _ => seg.accumulate(cost),
        }
    }
    if seg != CycleStats::default() {
        // Ops after the last step mark that charged cycles: keep
        // them in the per-step accounting so the segments always
        // sum to the static total.
        static_steps.push(("(after last step)", seg));
    }
    TraceSummary {
        static_total,
        static_steps,
        num_inputs,
        num_outputs,
        num_scalars,
    }
}

// ---------------------------------------------------------------------------
// Region-blocked execution planning
// ---------------------------------------------------------------------------

/// Strip-image byte budget for automatic strip sizing: the blocked
/// executor picks the widest strip whose footprint-plane image stays
/// within this (comfortably L2-resident), so a whole region's ops run
/// out of cache-resident planes. Mid-size tiles (≤ 4096 rows) usually
/// fit a region's whole image and run a single full-width strip —
/// there the win is the per-op arena re-sweep elision — while
/// large-row tiles strip-mine to stay under the budget.
const STRIP_TARGET_BYTES: usize = 48 * 1024;

/// Auto-sizing floor, in 64-row blocks: below this width the ripple
/// kernels' per-plane loop overhead stops amortizing and strip-mining
/// loses more than cache residency gains (an explicit
/// `strip_override` width is taken as given instead).
const MIN_STRIP_BLOCKS: usize = 16;

/// Smallest tile (in 64-row blocks) the auto planner will engage at
/// all: under ~512 rows a region's whole image already sits in L1/L2
/// during op-by-op replay, so strip-mining only adds per-region setup
/// (gather/scatter lists, preflight, tally replay) with nothing to
/// win back — measured ~5% *slower* at 256 rows. The plan is still
/// recorded for such tiles (observability), but replay stays op-by-op
/// (`BlockStats::engaged` is `false`) unless an explicit strip
/// override asks for blocking anyway.
const MIN_TILE_BLOCKS: usize = 8;

/// The reserved carry/borrow column (see `ApCore`: column 0 is always
/// the carry column, column 1 the predication flag).
const CARRY_COL: usize = 0;

/// The reserved predication-flag column (the restoring divider latches
/// its final borrow set there).
const FLAG_COL: usize = 1;

/// Aggregate statistics of a program's region-blocking plan (see
/// [`ApProgram::plan_blocking`]). All counts are per full replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockStats {
    /// Row-parallel regions formed.
    pub regions: usize,
    /// Non-`Step` ops covered by regions (executed strip-mined).
    pub blocked_ops: usize,
    /// Largest region, in non-`Step` ops.
    pub max_ops_per_region: usize,
    /// Largest per-strip plane image, in bytes.
    pub footprint_bytes_max: usize,
    /// Narrowest strip chosen across regions, in 64-row blocks.
    pub strip_blocks_min: usize,
    /// Widest strip chosen across regions, in 64-row blocks.
    pub strip_blocks_max: usize,
    /// Column-plane arena gathers elided versus op-by-op execution
    /// (each op's operand planes re-read from the arena).
    pub gathers_elided: usize,
    /// Column-plane arena scatters elided versus op-by-op execution
    /// (each op's result planes re-written to the arena).
    pub scatters_elided: usize,
    /// Whether replay will actually run the regions strip-mined.
    /// `false` when the tile is under the small-tile admission floor
    /// (see [`ApProgram::plan_blocking`]) — the plan is still recorded
    /// for observability, but replay stays op-by-op.
    pub engaged: bool,
}

impl std::fmt::Display for BlockStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} regions ({} ops, max {}/region), footprint ≤ {} B, \
             strips {}–{} blocks, {} gathers + {} scatters elided{}",
            self.regions,
            self.blocked_ops,
            self.max_ops_per_region,
            self.footprint_bytes_max,
            self.strip_blocks_min,
            self.strip_blocks_max,
            self.gathers_elided,
            self.scatters_elided,
            if self.engaged {
                ""
            } else {
                " (declined: tile under the admission floor)"
            }
        )
    }
}

/// One row-parallel region: a maximal run of ops that act on every
/// 64-row block independently, plus its compile-time field footprint.
#[derive(Debug, Clone)]
pub(crate) struct BlockRegion {
    /// First op index (inclusive).
    pub(crate) start: u32,
    /// One past the last op index.
    pub(crate) end: u32,
    /// Merged column intervals read before they are written inside the
    /// region — gathered from the arena once per strip.
    pub(crate) gather: Vec<Field>,
    /// Merged column intervals written inside the region — scattered
    /// back to the arena once per strip (the carry column included
    /// when any op writes it).
    pub(crate) scatter: Vec<Field>,
    /// Strip width in 64-row blocks.
    pub(crate) strip_blocks: usize,
    /// Data-dependent tally slots the region's ops produce (write
    /// events, borrow populations) — consumed by the charge walk.
    pub(crate) tally_len: usize,
}

/// A program's region-blocking plan: the regions plus summary stats.
#[derive(Debug, Clone)]
pub(crate) struct BlockPlan {
    pub(crate) regions: Vec<BlockRegion>,
    pub(crate) stats: BlockStats,
}

/// Whether an op is row-parallel *and* statically valid, i.e. safe to
/// execute inside a blocked region. Ops that fail their op-by-op
/// validation (overlap/width errors) are left as boundaries so the
/// op-by-op engine raises the identical error.
fn blockable(op: &ApOp, cols: usize) -> bool {
    let ok = |f: Field| f.start() >= 2 && f.end() <= cols;
    match *op {
        ApOp::Step { .. } => true,
        ApOp::Broadcast { field, value } => {
            ok(field)
                && field.width() <= 64
                && match value {
                    Operand::Const(c) => c <= field.max_value(),
                    Operand::Reg(_) => true,
                }
        }
        ApOp::Copy { src, dst } => {
            ok(src) && ok(dst) && !src.overlaps(&dst) && dst.width() >= src.width()
        }
        ApOp::Mul { a, b, r } => {
            ok(a)
                && ok(b)
                && ok(r)
                && !r.overlaps(&a)
                && !r.overlaps(&b)
                && r.width() >= a.width() + b.width()
        }
        ApOp::MulConst { a, r, bits, width } => {
            ok(a)
                && ok(r)
                && !r.overlaps(&a)
                && (1..=64).contains(&width)
                && (width == 64 || bits >> width == 0)
                && r.width() >= a.width() + width
        }
        ApOp::AddInto { acc, src }
        | ApOp::SubAssertClean { acc, src }
        | ApOp::SaturatingSubInto { acc, src } => {
            ok(acc) && ok(src) && !acc.overlaps(&src) && acc.width() >= src.width()
        }
        ApOp::ShrConst { field, .. } => ok(field),
        ApOp::ShrVariable { field, amount } => ok(field) && ok(amount) && !field.overlaps(&amount),
        // Restoring division is row-parallel (the LUT sub/restore
        // sweeps act on each 64-row block independently); the
        // controller-reciprocal style stays a boundary — it branches on
        // cross-row divisor values. Zero-divisor admission is dynamic
        // and handled by the region preflight.
        ApOp::Divide {
            num,
            den,
            quot,
            style,
            ..
        } => {
            style == DivStyle::Restoring
                && ok(num)
                && ok(den)
                && ok(quot)
                && !num.overlaps(&quot)
                && !den.overlaps(&quot)
                && !num.overlaps(&den)
        }
        ApOp::FusedDivide {
            den,
            ref channels,
            n_channels,
            ..
        } => {
            ok(den)
                && channels[..n_channels as usize].iter().all(|&(num, quot)| {
                    ok(num)
                        && ok(quot)
                        && !num.overlaps(&quot)
                        && !den.overlaps(&quot)
                        && !num.overlaps(&den)
                })
        }
        _ => false,
    }
}

/// Data-dependent tally slots one op contributes (the strip executor
/// accumulates them across strips; the charge walk consumes them in
/// the same deterministic order).
pub(crate) fn tally_slots(op: &ApOp) -> usize {
    match *op {
        ApOp::AddInto { .. } | ApOp::SubAssertClean { .. } => 1,
        ApOp::SaturatingSubInto { .. } => 2,
        ApOp::Mul { b, .. } => b.width(),
        ApOp::MulConst { bits, .. } => bits.count_ones() as usize,
        ApOp::ShrVariable { amount, .. } => amount.width(),
        // Three tallies per restoring iteration: subtract ripple
        // events, borrow population, restore-blend events.
        ApOp::Divide { num, frac_bits, .. } => 3 * (num.width() + frac_bits),
        ApOp::FusedDivide {
            frac_bits,
            ref channels,
            n_channels,
            ..
        } => channels[..n_channels as usize]
            .iter()
            .map(|&(num, _)| 3 * (num.width() + frac_bits))
            .sum(),
        _ => 0,
    }
}

/// Run-time admission check for a region: register-valued broadcasts
/// must fit their field, and every in-region division must be
/// guaranteed to succeed (non-zero divisor in every row, remainder
/// scratch capacity). On `false` the caller falls back to the op-by-op
/// engine, which raises the identical error at the identical op — with
/// the identical partially-executed arena state, since nothing has run
/// yet when the preflight rejects.
fn region_preflight(core: &ApCore, ops: &[ApOp], regs: &[u64]) -> bool {
    ops.iter().enumerate().all(|(i, op)| match *op {
        ApOp::Broadcast {
            field,
            value: Operand::Reg(r),
        } => regs.get(r.index()).is_some_and(|&v| v <= field.max_value()),
        ApOp::Divide { den, .. } | ApOp::FusedDivide { den, .. } => {
            divide_admissible(core, &ops[..i], regs, den)
        }
        _ => true,
    })
}

/// Whether an op writes columns overlapping `f` (the carry/flag
/// latches excluded — reserved columns 0/1 never overlap an allocated
/// field).
fn op_writes_overlap(op: &ApOp, f: Field) -> bool {
    match *op {
        ApOp::Broadcast { field, .. } => field.overlaps(&f),
        ApOp::Copy { dst, .. } => dst.overlaps(&f),
        ApOp::Mul { r, .. } | ApOp::MulConst { r, .. } => r.overlaps(&f),
        ApOp::AddInto { acc, .. }
        | ApOp::SubAssertClean { acc, .. }
        | ApOp::SaturatingSubInto { acc, .. } => acc.overlaps(&f),
        ApOp::ShrConst { field, k } => k > 0 && field.overlaps(&f),
        ApOp::ShrVariable { field, .. } => field.overlaps(&f),
        ApOp::Divide { quot, .. } => quot.overlaps(&f),
        ApOp::FusedDivide {
            ref channels,
            n_channels,
            ..
        } => channels[..n_channels as usize]
            .iter()
            .any(|&(_, quot)| quot.overlaps(&f)),
        _ => false,
    }
}

/// Whether a region-resident division is guaranteed to succeed: its
/// remainder scratch must fit the array, and every row's divisor must
/// be non-zero *at the point the division runs*. When an earlier
/// region op broadcast the divisor, the value resolves statically;
/// when the divisor columns are untouched inside the region, the
/// op-by-op engine's own zero scan (a free OR of the divisor planes)
/// decides; anything the preflight cannot resolve rejects
/// the region, and the op-by-op fallback raises the identical
/// [`ApError::DivisionByZero`] at the identical op if it comes to
/// that.
fn divide_admissible(core: &ApCore, prior: &[ApOp], regs: &[u64], den: Field) -> bool {
    if !core.scratch_fits(den.width() + 1) {
        return false;
    }
    for op in prior.iter().rev() {
        if let ApOp::Broadcast { field, value } = *op {
            if field == den {
                let v = match value {
                    Operand::Const(c) => c,
                    Operand::Reg(r) => regs.get(r.index()).copied().unwrap_or(0),
                };
                return v != 0;
            }
        }
        if op_writes_overlap(op, den) {
            return false;
        }
    }
    core.cam().field_all_nonzero(den)
}

/// Marks a field's columns as read (arena-gathered unless already
/// written inside the region).
fn mark_read(f: Field, first_read: &mut [bool], written: &[bool], reads: &mut usize) {
    for c in f.start()..f.end() {
        *reads += 1;
        if !written[c] {
            first_read[c] = true;
        }
    }
}

/// Marks a field's columns as written inside the region.
fn mark_write(f: Field, written: &mut [bool], writes: &mut usize) {
    *writes += f.width();
    written[f.start()..f.end()].fill(true);
}

/// Merges a column mask into maximal `[start, end)` intervals
/// (re-using [`Field`] as the interval type).
fn intervals(mask: &[bool]) -> Vec<Field> {
    let mut out = Vec::new();
    let mut c = 0;
    while c < mask.len() {
        if !mask[c] {
            c += 1;
            continue;
        }
        let start = c;
        while c < mask.len() && mask[c] {
            c += 1;
        }
        out.push(Field::new(start, c - start));
    }
    out
}

/// Charges one restoring-division channel exactly as the op-by-op
/// FastWord dividers do, from the structural schedule plus the
/// strip-accumulated `[ev_sub, n_borrow, ev_add]` tally triples (one
/// per iteration, MSB-first). `physical_shift` selects the standalone
/// divider's schedule (per-iteration remainder shift sweeps) versus
/// the fused window rename (shift-free, one canonicalization sweep per
/// channel at the end). Includes the upfront zero broadcasts of the
/// remainder scratch and the quotient.
fn charge_divide_channel(
    core: &mut ApCore,
    nw: usize,
    dw: usize,
    qw: usize,
    frac_bits: usize,
    tally: &[u64],
    physical_shift: bool,
) {
    let rows = core.rows() as u64;
    let rem_w = dw + 1;
    let low = 4 * dw as u64;
    let ripple = 2 * (rem_w - dw) as u64;
    let mut cmp_cycles = 0u64;
    let mut cmp_events = 0u64;
    let mut wr_cycles = (rem_w + qw) as u64;
    let mut wr_events = (rem_w + qw) as u64 * rows;
    for (it, k) in (0..nw + frac_bits).rev().enumerate() {
        if physical_shift {
            let moved = (rem_w - 1) as u64;
            cmp_cycles += 2 * moved;
            cmp_events += 2 * moved * rows;
            wr_cycles += 2 * moved;
            wr_events += moved * rows;
        }
        if k >= frac_bits {
            cmp_cycles += 2;
            cmp_events += 2 * rows;
            wr_cycles += 2;
            wr_events += rows;
        } else {
            wr_cycles += 1;
            wr_events += rows;
        }
        let (ev_sub, n_borrow, ev_add) = (tally[3 * it], tally[3 * it + 1], tally[3 * it + 2]);
        cmp_cycles += low + ripple + 1;
        cmp_events += rows * (3 * low + 2 * ripple) + rows;
        wr_cycles += 1 + low + ripple;
        wr_events += rows + ev_sub;
        wr_cycles += 2;
        wr_events += rows + n_borrow;
        if n_borrow > 0 {
            cmp_cycles += low + ripple;
            cmp_events += rows * (4 * low + 3 * ripple);
            wr_cycles += 1 + low + ripple;
            wr_events += rows + ev_add;
        }
        cmp_cycles += 1;
        cmp_events += rows;
        let n_nob = rows - n_borrow;
        if k < qw {
            wr_cycles += 1;
            wr_events += n_nob;
        } else if n_nob > 0 {
            wr_cycles += qw as u64;
            wr_events += qw as u64 * n_nob;
        }
    }
    if !physical_shift {
        cmp_cycles += 2 * rem_w as u64;
        cmp_events += 2 * rem_w as u64 * rows;
        wr_cycles += 2 * rem_w as u64;
        wr_events += rem_w as u64 * rows;
    }
    let st = core.cam_mut().stats_mut();
    st.charge_compares_bulk(cmp_cycles, cmp_events);
    st.charge_writes_bulk(wr_cycles, wr_events);
}

/// Charges the cost model for one blocked region exactly as the
/// op-by-op FastWord engine would have — per op, in op order, from the
/// structural cycle shapes plus the data-dependent tallies the strip
/// executor accumulated in `core`'s tally buffer. `hoisted` holds the
/// region's slice of the program's hoisted indices (absolute), `base`
/// the absolute index of `ops[0]`.
fn charge_region(
    core: &mut ApCore,
    ops: &[ApOp],
    hoisted: &[u32],
    base: usize,
    charge: ReplayCharge,
    mark: &mut CycleStats,
    on_step: &mut dyn FnMut(&'static str, CycleStats),
) {
    let rows = core.rows() as u64;
    let tally = std::mem::take(&mut core.tally_buf);
    let mut cursor = 0usize;
    let mut h = 0usize;
    for (k, op) in ops.iter().enumerate() {
        let hoist = hoisted.get(h) == Some(&((base + k) as u32));
        if hoist {
            h += 1;
        }
        let discount = match charge {
            ReplayCharge::Full => false,
            ReplayCharge::Hoisted => hoist,
            // Regions contain no `Load` ops, so lockstep discounts all.
            ReplayCharge::Lockstep => true,
        };
        match *op {
            ApOp::Broadcast { field, .. } => {
                if !discount {
                    let w = field.width() as u64;
                    core.cam_mut().stats_mut().charge_writes_bulk(w, w * rows);
                }
            }
            ApOp::Copy { src, dst } => {
                if !discount {
                    let sw = src.width() as u64;
                    let hi = (dst.width() - src.width()) as u64;
                    let st = core.cam_mut().stats_mut();
                    st.charge_compares_bulk(2 * sw, 2 * sw * rows);
                    st.charge_writes_bulk(2 * sw, sw * rows);
                    if hi > 0 {
                        st.charge_writes_bulk(hi, hi * rows);
                    }
                }
            }
            ApOp::Mul { a, b, r } => {
                let bw = b.width();
                if !discount {
                    let rw = r.width() as u64;
                    core.cam_mut().stats_mut().charge_writes_bulk(rw, rw * rows);
                    for j in 0..bw {
                        core.fw_charge_ripple(a.width(), a.width() + 1, true, tally[cursor + j]);
                    }
                }
                cursor += bw;
            }
            ApOp::MulConst { a, r, bits, .. } => {
                let set = bits.count_ones() as usize;
                if !discount {
                    let rw = r.width() as u64;
                    core.cam_mut().stats_mut().charge_writes_bulk(rw, rw * rows);
                    for s in 0..set {
                        core.fw_charge_ripple(a.width(), a.width() + 1, false, tally[cursor + s]);
                    }
                }
                cursor += set;
            }
            ApOp::AddInto { acc, src } => {
                if !discount {
                    core.fw_charge_ripple(src.width(), acc.width(), false, tally[cursor]);
                }
                cursor += 1;
            }
            ApOp::SubAssertClean { acc, src } => {
                if !discount {
                    core.fw_charge_ripple(src.width(), acc.width(), false, tally[cursor]);
                    // Borrow-column readback.
                    core.cam_mut().stats_mut().charge_compares_bulk(1, rows);
                }
                cursor += 1;
            }
            ApOp::SaturatingSubInto { acc, src } => {
                if !discount {
                    core.fw_charge_ripple(src.width(), acc.width(), false, tally[cursor]);
                    core.cam_mut().stats_mut().charge_compares_bulk(1, rows);
                    let n_borrow = tally[cursor + 1];
                    if n_borrow > 0 {
                        // Gated clamp broadcast of the underflowed rows.
                        let aw = acc.width() as u64;
                        core.cam_mut()
                            .stats_mut()
                            .charge_writes_bulk(aw, aw * n_borrow);
                    }
                }
                cursor += 2;
            }
            ApOp::ShrConst { field, k } => {
                if !discount && k > 0 {
                    let w = field.width();
                    let st = core.cam_mut().stats_mut();
                    if k >= w {
                        st.charge_writes_bulk(w as u64, w as u64 * rows);
                    } else {
                        let moved = (w - k) as u64;
                        st.charge_compares_bulk(2 * moved, 2 * moved * rows);
                        st.charge_writes_bulk(2 * moved, moved * rows);
                        st.charge_writes_bulk(k as u64, k as u64 * rows);
                    }
                }
            }
            ApOp::ShrVariable { field, amount } => {
                let aw = amount.width();
                if !discount {
                    let w = field.width();
                    let mut cmp_cycles = 0u64;
                    let mut cmp_events = 0u64;
                    let mut wr_cycles = 0u64;
                    let mut wr_events = 0u64;
                    for j in 0..aw {
                        let s = 1usize << j;
                        let n_j = tally[cursor + j];
                        if s >= w {
                            cmp_cycles += 1;
                            cmp_events += rows;
                            if n_j > 0 {
                                wr_cycles += w as u64;
                                wr_events += w as u64 * n_j;
                            }
                        } else {
                            let moved = (w - s) as u64;
                            cmp_cycles += 2 * moved + 1;
                            cmp_events += (4 * moved + 1) * rows;
                            wr_cycles += 2 * moved;
                            wr_events += moved * n_j;
                            if n_j > 0 {
                                wr_cycles += s as u64;
                                wr_events += s as u64 * n_j;
                            }
                        }
                    }
                    let st = core.cam_mut().stats_mut();
                    st.charge_compares_bulk(cmp_cycles, cmp_events);
                    st.charge_writes_bulk(wr_cycles, wr_events);
                }
                cursor += aw;
            }
            ApOp::Divide {
                num,
                den,
                quot,
                frac_bits,
                ..
            } => {
                let slots = 3 * (num.width() + frac_bits);
                if !discount {
                    charge_divide_channel(
                        core,
                        num.width(),
                        den.width(),
                        quot.width(),
                        frac_bits,
                        &tally[cursor..cursor + slots],
                        true,
                    );
                }
                cursor += slots;
            }
            ApOp::FusedDivide {
                den,
                frac_bits,
                ref channels,
                n_channels,
            } => {
                for &(num, quot) in &channels[..n_channels as usize] {
                    let slots = 3 * (num.width() + frac_bits);
                    if !discount {
                        charge_divide_channel(
                            core,
                            num.width(),
                            den.width(),
                            quot.width(),
                            frac_bits,
                            &tally[cursor..cursor + slots],
                            false,
                        );
                    }
                    cursor += slots;
                }
            }
            ApOp::Step { name } => {
                let now = core.stats();
                on_step(name, now.since(mark));
                *mark = now;
            }
            _ => unreachable!("non-blockable op inside a region"),
        }
    }
    debug_assert_eq!(cursor, tally.len());
    core.tally_buf = tally;
}

/// How a replay charges the cost model: full price, the hoisted-op
/// discount of [`ApProgram::replay_resident`], or the wave-lockstep
/// discount of [`ApProgram::replay_lockstep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplayCharge {
    Full,
    Hoisted,
    Lockstep,
}

/// A compiled AP program: a flat op trace with pre-resolved fields plus
/// the per-op costs recorded at compile time. See the module docs for
/// the replay and static-cost contracts.
#[derive(Debug, Clone)]
pub struct ApProgram {
    config: ApConfig,
    reserved_cols: usize,
    num_regs: usize,
    num_inputs: usize,
    num_outputs: usize,
    num_scalars: usize,
    ops: Vec<ApOp>,
    costs: Vec<CycleStats>,
    static_total: CycleStats,
    static_steps: Vec<(&'static str, CycleStats)>,
    /// Op indices the optimizer marked as hoistable out of per-shard
    /// phase bodies (sorted); see [`ApProgram::replay_resident`].
    hoisted: Vec<u32>,
    /// Region-blocked execution plan computed by
    /// [`ApProgram::plan_blocking`] (`None` until planned; cleared by
    /// the optimizer whenever it rewrites the trace).
    pub(crate) blocking: Option<BlockPlan>,
}

impl ApProgram {
    /// The tile geometry the program was compiled at (and must replay
    /// at).
    #[must_use]
    pub fn config(&self) -> ApConfig {
        self.config
    }

    /// Columns reserved by the program's field layout; internal scratch
    /// (division) allocates above this cursor, exactly as it did while
    /// recording.
    #[must_use]
    pub fn reserved_cols(&self) -> usize {
        self.reserved_cols
    }

    /// Number of input slots the program loads from.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of output slots the program reads into.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of scalar input slots the program loads registers from.
    #[must_use]
    pub fn num_scalars(&self) -> usize {
        self.num_scalars
    }

    /// The op trace.
    #[must_use]
    pub fn ops(&self) -> &[ApOp] {
        &self.ops
    }

    /// Per-op cost deltas recorded at compile time (parallel to
    /// [`ApProgram::ops`]).
    #[must_use]
    pub fn op_costs(&self) -> &[CycleStats] {
        &self.costs
    }

    /// Number of ops (including step marks).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total cycle/cell-event cost recorded at compile time — the
    /// execution-free cost query. Exact for the compile input and for
    /// any input following the same microcode path (see module docs).
    #[must_use]
    pub fn static_cost(&self) -> CycleStats {
        self.static_total
    }

    /// Per-step compile-time costs, in step-mark order (the static
    /// counterpart of the mapping's per-step breakdown). Cycle-charging
    /// ops recorded after the last step mark are kept in a final
    /// `"(after last step)"` segment, so the segments always sum to
    /// [`ApProgram::static_cost`].
    #[must_use]
    pub fn static_steps(&self) -> &[(&'static str, CycleStats)] {
        &self.static_steps
    }

    /// Replays the program on `core`, which must be freshly acquired at
    /// [`ApProgram::config`]'s geometry (any backend). `on_step`
    /// receives the per-step cost deltas of *this* execution.
    ///
    /// Replay is bit- and cycle-exact versus issuing the same ops
    /// directly, for any input of the program's shape.
    ///
    /// # Errors
    ///
    /// * [`ApError::BadConfig`] on geometry or slot-count mismatch.
    /// * Any error the underlying ops report (e.g. a width overflow in
    ///   [`Overflow::Error`] reductions, division by zero).
    pub fn replay(
        &self,
        core: &mut ApCore,
        io: ExecIo<'_, '_>,
        scratch: &mut ProgramScratch,
        mut on_step: impl FnMut(&'static str, CycleStats),
    ) -> Result<(), ApError> {
        self.replay_inner(core, io, scratch, &mut on_step, ReplayCharge::Full)
    }

    /// [`ApProgram::replay`] with the resident-operand discount: ops
    /// the optimizer marked as hoistable (broadcasts of shard-invariant
    /// values — see `optimizer`) execute their plane writes but charge
    /// no cycles. The mapping layer replays every shard after a wave's
    /// first with this variant: an identical-value broadcast drives all
    /// tiles' write drivers in parallel, so only the first shard pays.
    ///
    /// # Errors
    ///
    /// Same as [`ApProgram::replay`].
    pub fn replay_resident(
        &self,
        core: &mut ApCore,
        io: ExecIo<'_, '_>,
        scratch: &mut ProgramScratch,
        mut on_step: impl FnMut(&'static str, CycleStats),
    ) -> Result<(), ApError> {
        self.replay_inner(core, io, scratch, &mut on_step, ReplayCharge::Hoisted)
    }

    /// [`ApProgram::replay`] with the wave-lockstep discount: every op
    /// except input staging ([`ApOp::Load`]) executes its plane writes
    /// but charges no cycles and no cell events. Under the residency
    /// contract (see the `softmap_ap::device` module docs), all
    /// resident shards of one length execute the *same* phase program
    /// in SIMD lockstep across tiles — the compare, write, and 2D
    /// drivers are shared — so only the wave's first shard of each
    /// length (the "leader") pays the program's cost; followers replay
    /// through this variant and are charged only for streaming their
    /// per-tile-distinct input planes.
    ///
    /// # Errors
    ///
    /// Same as [`ApProgram::replay`].
    pub fn replay_lockstep(
        &self,
        core: &mut ApCore,
        io: ExecIo<'_, '_>,
        scratch: &mut ProgramScratch,
        mut on_step: impl FnMut(&'static str, CycleStats),
    ) -> Result<(), ApError> {
        self.replay_inner(core, io, scratch, &mut on_step, ReplayCharge::Lockstep)
    }

    fn replay_inner(
        &self,
        core: &mut ApCore,
        mut io: ExecIo<'_, '_>,
        scratch: &mut ProgramScratch,
        on_step: &mut dyn FnMut(&'static str, CycleStats),
        charge: ReplayCharge,
    ) -> Result<(), ApError> {
        if core.rows() != self.config.rows || core.cols() != self.config.cols {
            return Err(ApError::BadConfig("replay geometry mismatch"));
        }
        if io.inputs.len() < self.num_inputs
            || io.outputs.len() < self.num_outputs
            || io.scalars.len() < self.num_scalars
        {
            return Err(ApError::BadConfig("replay is missing io slots"));
        }
        core.set_next_col(self.reserved_cols);
        scratch.regs.clear();
        scratch.regs.resize(self.num_regs, 0);
        let mut mark = core.stats();
        let blocked = match &self.blocking {
            Some(plan) if plan.stats.engaged && core.backend() == ExecBackend::FastWord => {
                Some(plan)
            }
            _ => None,
        };
        let mut h = 0usize;
        let mut next_region = 0usize;
        let mut i = 0usize;
        while i < self.ops.len() {
            if let Some(plan) = blocked {
                if let Some(region) = plan.regions.get(next_region) {
                    if region.start as usize == i {
                        next_region += 1;
                        let end = region.end as usize;
                        if region_preflight(core, &self.ops[i..end], &scratch.regs) {
                            core.fw_run_region_strips(&self.ops[i..end], region, &scratch.regs)?;
                            let h0 = h;
                            while h < self.hoisted.len() && (self.hoisted[h] as usize) < end {
                                h += 1;
                            }
                            charge_region(
                                core,
                                &self.ops[i..end],
                                &self.hoisted[h0..h],
                                i,
                                charge,
                                &mut mark,
                                on_step,
                            );
                            i = end;
                            continue;
                        }
                        // Preflight failed: fall through to the op-by-op
                        // engine, which raises the identical error at
                        // the identical op.
                    }
                }
            }
            let op = &self.ops[i];
            let hoist = self.hoisted.get(h) == Some(&(i as u32));
            if hoist {
                h += 1;
            }
            let discount = match charge {
                ReplayCharge::Full => false,
                ReplayCharge::Hoisted => hoist,
                ReplayCharge::Lockstep => !matches!(op, ApOp::Load { .. }),
            };
            if discount {
                // Plane writes happen; the charge is rolled back (the
                // cost-model statement "this shard rides the shared
                // device-wide drivers for free").
                let snapshot = core.stats();
                apply_op(core, op, &mut io, scratch, &mut mark, on_step)?;
                core.restore_stats(snapshot);
            } else {
                apply_op(core, op, &mut io, scratch, &mut mark, on_step)?;
            }
            i += 1;
        }
        Ok(())
    }

    /// Re-derives the per-op costs, static total, and step segments by
    /// replaying the (optimized) trace once on `core` — how the static
    /// cost contract survives optimization: after the pass pipeline
    /// rewrites `ops`, one recost execution charges the *fused*
    /// schedule and re-anchors [`ApProgram::static_cost`] /
    /// [`ApProgram::static_steps`] to it. Outputs are appended and
    /// registers derived exactly as in a normal replay.
    ///
    /// # Errors
    ///
    /// Same as [`ApProgram::replay`].
    pub fn recost(
        &mut self,
        core: &mut ApCore,
        mut io: ExecIo<'_, '_>,
        scratch: &mut ProgramScratch,
        mut on_step: impl FnMut(&'static str, CycleStats),
    ) -> Result<(), ApError> {
        if core.rows() != self.config.rows || core.cols() != self.config.cols {
            return Err(ApError::BadConfig("replay geometry mismatch"));
        }
        if io.inputs.len() < self.num_inputs
            || io.outputs.len() < self.num_outputs
            || io.scalars.len() < self.num_scalars
        {
            return Err(ApError::BadConfig("replay is missing io slots"));
        }
        core.set_next_col(self.reserved_cols);
        scratch.regs.clear();
        scratch.regs.resize(self.num_regs, 0);
        let mut mark = core.stats();
        let mut last = mark;
        let mut costs = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            apply_op(core, op, &mut io, scratch, &mut mark, &mut on_step)?;
            let now = core.stats();
            costs.push(now.since(&last));
            last = now;
        }
        self.costs = costs;
        let summary = summarize(&self.ops, &self.costs);
        self.static_total = summary.static_total;
        self.static_steps = summary.static_steps;
        Ok(())
    }

    /// Op indices marked as hoistable by the optimizer (discounted
    /// under [`ApProgram::replay_resident`]).
    #[must_use]
    pub fn hoisted(&self) -> &[u32] {
        &self.hoisted
    }

    /// Partitions the trace into **row-parallel regions** — maximal op
    /// runs where every op acts on each 64-row block independently
    /// (broadcasts, copies, multiplies, add/sub, shifts, restoring
    /// division), bounded by cross-row ops (min-search, reductions,
    /// load/read/reg ops) — and records each region's field footprint.
    /// FastWord
    /// replay then executes each region strip-mined: per strip of
    /// 64-row blocks it gathers the region's operand planes once, runs
    /// all of the region's ops on the cache-resident strip, and
    /// scatters the written planes once.
    ///
    /// This is a **host-only** optimization: replayed planes (the
    /// carry/flag columns included) and the charged [`CycleStats`] are
    /// identical to op-by-op execution — the device cost contract is
    /// untouched. Microcode replay ignores the plan entirely.
    ///
    /// `strip_override` pins the strip width in 64-row blocks and
    /// engages blocking below the small-tile admission floor; only
    /// tests pin it. `None`, what the mapping passes, auto-sizes each
    /// region's strip to fit its footprint in cache. Re-running the
    /// optimizer clears the plan; call this after the final pass
    /// pipeline.
    pub fn plan_blocking(&mut self, strip_override: Option<usize>) {
        let cols = self.config.cols;
        let bl = self.config.rows.div_ceil(64);
        let mut regions = Vec::new();
        let mut stats = BlockStats {
            // Small-tile admission floor: below it the whole tile is
            // narrower than a healthy strip, so the loop interchange
            // has nothing to amortize its per-region setup against —
            // regions are still recorded (observability), but replay
            // stays op-by-op (ratio 1.0 by construction). An explicit
            // strip override is a request to block regardless (tests,
            // experiments).
            engaged: strip_override.is_some() || bl >= MIN_TILE_BLOCKS,
            ..BlockStats::default()
        };
        let mut i = 0usize;
        while i < self.ops.len() {
            if !blockable(&self.ops[i], cols) {
                i += 1;
                continue;
            }
            let start = i;
            while i < self.ops.len() && blockable(&self.ops[i], cols) {
                i += 1;
            }
            let end = i;
            let real = self.ops[start..end]
                .iter()
                .filter(|op| !matches!(op, ApOp::Step { .. }))
                .count();
            if real < 2 {
                // A single op gains nothing from the loop interchange.
                continue;
            }
            let mut first_read = vec![false; cols];
            let mut written = vec![false; cols];
            let mut reads = 0usize;
            let mut writes = 0usize;
            let mut tally_len = 0usize;
            let carry = Field::new(CARRY_COL, 1);
            let flag = Field::new(FLAG_COL, 1);
            for op in &self.ops[start..end] {
                tally_len += tally_slots(op);
                match *op {
                    ApOp::Broadcast { field, .. } => {
                        mark_write(field, &mut written, &mut writes);
                    }
                    ApOp::Copy { src, dst } => {
                        mark_read(src, &mut first_read, &written, &mut reads);
                        mark_write(dst, &mut written, &mut writes);
                    }
                    ApOp::Mul { a, b, r } => {
                        mark_read(a, &mut first_read, &written, &mut reads);
                        mark_read(b, &mut first_read, &written, &mut reads);
                        mark_write(r, &mut written, &mut writes);
                        mark_write(carry, &mut written, &mut writes);
                    }
                    ApOp::MulConst { a, r, .. } => {
                        mark_read(a, &mut first_read, &written, &mut reads);
                        mark_write(r, &mut written, &mut writes);
                        mark_write(carry, &mut written, &mut writes);
                    }
                    ApOp::AddInto { acc, src }
                    | ApOp::SubAssertClean { acc, src }
                    | ApOp::SaturatingSubInto { acc, src } => {
                        mark_read(src, &mut first_read, &written, &mut reads);
                        mark_read(acc, &mut first_read, &written, &mut reads);
                        mark_write(acc, &mut written, &mut writes);
                        mark_write(carry, &mut written, &mut writes);
                    }
                    ApOp::ShrConst { field, k } => {
                        if k == 0 {
                            // Free no-op on the direct path too.
                        } else if k >= field.width() {
                            mark_write(field, &mut written, &mut writes);
                        } else {
                            mark_read(field, &mut first_read, &written, &mut reads);
                            mark_write(field, &mut written, &mut writes);
                        }
                    }
                    ApOp::ShrVariable { field, amount } => {
                        mark_read(field, &mut first_read, &written, &mut reads);
                        mark_read(amount, &mut first_read, &written, &mut reads);
                        mark_write(field, &mut written, &mut writes);
                    }
                    ApOp::Divide { num, den, quot, .. } => {
                        mark_read(num, &mut first_read, &written, &mut reads);
                        mark_read(den, &mut first_read, &written, &mut reads);
                        mark_write(quot, &mut written, &mut writes);
                        mark_write(carry, &mut written, &mut writes);
                        mark_write(flag, &mut written, &mut writes);
                    }
                    ApOp::FusedDivide {
                        den,
                        ref channels,
                        n_channels,
                        ..
                    } => {
                        mark_read(den, &mut first_read, &written, &mut reads);
                        for &(num, quot) in &channels[..n_channels as usize] {
                            mark_read(num, &mut first_read, &written, &mut reads);
                            mark_write(quot, &mut written, &mut writes);
                        }
                        mark_write(carry, &mut written, &mut writes);
                        mark_write(flag, &mut written, &mut writes);
                    }
                    ApOp::Step { .. } => {}
                    _ => unreachable!("non-blockable op inside a region"),
                }
            }
            let gather = intervals(&first_read);
            let scatter = intervals(&written);
            let p = (0..cols).filter(|&c| first_read[c] || written[c]).count();
            let auto = (STRIP_TARGET_BYTES / (8 * p.max(1))).max(MIN_STRIP_BLOCKS);
            let strip_blocks = strip_override.unwrap_or(auto).clamp(1, bl.max(1));
            let gather_cols: usize = gather.iter().map(|f| f.width()).sum();
            let scatter_cols: usize = scatter.iter().map(|f| f.width()).sum();
            stats.regions += 1;
            stats.blocked_ops += real;
            stats.max_ops_per_region = stats.max_ops_per_region.max(real);
            stats.footprint_bytes_max = stats.footprint_bytes_max.max(p * 8 * strip_blocks);
            stats.strip_blocks_min = if stats.regions == 1 {
                strip_blocks
            } else {
                stats.strip_blocks_min.min(strip_blocks)
            };
            stats.strip_blocks_max = stats.strip_blocks_max.max(strip_blocks);
            stats.gathers_elided += reads - gather_cols;
            stats.scatters_elided += writes - scatter_cols;
            regions.push(BlockRegion {
                start: start as u32,
                end: end as u32,
                gather,
                scatter,
                strip_blocks,
                tally_len,
            });
        }
        self.blocking = Some(BlockPlan { regions, stats });
    }

    /// The region-blocking summary, if [`ApProgram::plan_blocking`]
    /// has run on the current trace.
    #[must_use]
    pub fn block_stats(&self) -> Option<BlockStats> {
        self.blocking.as_ref().map(|p| p.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecBackend;

    /// Records a tiny add/shift/read pipeline and returns
    /// (program, outputs, recording stats).
    fn record(data: &[u64]) -> (ApProgram, Vec<u64>, CycleStats) {
        let mut core = ApCore::new(ApConfig::new(data.len(), 24)).unwrap();
        let x = core.alloc_field(8).unwrap();
        let k = core.alloc_field(8).unwrap();
        let inputs: [&[u64]; 1] = [data];
        let mut out = Vec::new();
        let mut outs: [&mut Vec<u64>; 1] = [&mut out];
        let mut scratch = ProgramScratch::default();
        let mut steps = Vec::new();
        let mut on_step = |name: &'static str, s: CycleStats| steps.push((name, s));
        let mut rec = Recorder::new(
            &mut core,
            ExecIo::new(&inputs, &mut outs),
            &mut scratch,
            &mut on_step,
            true,
        );
        rec.load(x, 0).unwrap();
        rec.step("in");
        rec.broadcast(k, 3).unwrap();
        rec.add_into(x, k).unwrap();
        rec.shr_const(x, 1).unwrap();
        rec.step("compute");
        rec.read(x, 0).unwrap();
        let program = rec.finish().unwrap();
        assert_eq!(steps.len(), 2);
        (program, out, core.stats())
    }

    #[test]
    fn static_cost_equals_recording_stats() {
        let (program, out, stats) = record(&[0, 1, 200, 250]);
        assert_eq!(out, vec![1, 2, 101, 126]);
        assert_eq!(program.static_cost(), stats);
        let step_total =
            program
                .static_steps()
                .iter()
                .fold(CycleStats::default(), |mut acc, (_, s)| {
                    acc.accumulate(s);
                    acc
                });
        // The trailing read is free, so the marked steps cover the total.
        assert_eq!(step_total, program.static_cost());
        assert_eq!(program.num_inputs(), 1);
        assert_eq!(program.num_outputs(), 1);
        assert!(!program.is_empty());
        assert_eq!(program.len(), program.op_costs().len());
    }

    #[test]
    fn replay_is_exact_on_both_backends() {
        let (program, _, _) = record(&[0, 1, 200, 250]);
        for backend in [ExecBackend::Microcode, ExecBackend::FastWord] {
            let mut core = ApCore::with_backend(program.config(), backend).unwrap();
            let data: Vec<u64> = vec![7, 8, 9, 10];
            let inputs: [&[u64]; 1] = [&data];
            let mut out = Vec::new();
            let mut outs: [&mut Vec<u64>; 1] = [&mut out];
            let mut scratch = ProgramScratch::default();
            program
                .replay(
                    &mut core,
                    ExecIo::new(&inputs, &mut outs),
                    &mut scratch,
                    |_, _| {},
                )
                .unwrap();
            assert_eq!(out, vec![5, 5, 6, 6], "{backend:?}");
        }
    }

    #[test]
    fn replay_rejects_geometry_and_slot_mismatches() {
        let (program, _, _) = record(&[1, 2, 3, 4]);
        let mut wrong = ApCore::new(ApConfig::new(8, 24)).unwrap();
        let data: Vec<u64> = vec![0; 8];
        let inputs: [&[u64]; 1] = [&data];
        let mut out = Vec::new();
        let mut outs: [&mut Vec<u64>; 1] = [&mut out];
        let mut scratch = ProgramScratch::default();
        assert!(matches!(
            program.replay(
                &mut wrong,
                ExecIo::new(&inputs, &mut outs),
                &mut scratch,
                |_, _| {}
            ),
            Err(ApError::BadConfig(_))
        ));

        let mut right = ApCore::new(program.config()).unwrap();
        let mut scratch = ProgramScratch::default();
        let mut outs: [&mut Vec<u64>; 0] = [];
        let data4: Vec<u64> = vec![0; 4];
        let inputs4: [&[u64]; 1] = [&data4];
        assert!(matches!(
            program.replay(
                &mut right,
                ExecIo::new(&inputs4, &mut outs),
                &mut scratch,
                |_, _| {}
            ),
            Err(ApError::BadConfig(_))
        ));
    }

    #[test]
    fn scalar_inputs_feed_registers_at_replay() {
        // Record: x -= scalar_input(0), broadcast through a register.
        let data: Vec<u64> = vec![9, 4, 7, 12];
        let mut core = ApCore::new(ApConfig::new(4, 40)).unwrap();
        let x = core.alloc_field(8).unwrap();
        let m = core.alloc_field(8).unwrap();
        let inputs: [&[u64]; 1] = [&data];
        let mut out = Vec::new();
        let mut outs: [&mut Vec<u64>; 1] = [&mut out];
        let mut scratch = ProgramScratch::default();
        let mut on_step = |_: &'static str, _: CycleStats| {};
        let mut rec = Recorder::new(
            &mut core,
            ExecIo::new(&inputs, &mut outs).with_scalars(&[3]),
            &mut scratch,
            &mut on_step,
            true,
        );
        rec.load(x, 0).unwrap();
        let r = rec.reg_input(0).unwrap();
        rec.broadcast_reg(m, r).unwrap();
        rec.sub_assert_clean(x, m).unwrap();
        rec.read(x, 0).unwrap();
        let program = rec.finish().unwrap();
        assert_eq!(out, vec![6, 1, 4, 9]);
        assert_eq!(program.num_scalars(), 1);

        // Replay with another scalar binding: the register re-derives.
        let mut core2 = ApCore::new(program.config()).unwrap();
        let mut out2 = Vec::new();
        let mut outs2: [&mut Vec<u64>; 1] = [&mut out2];
        program
            .replay(
                &mut core2,
                ExecIo::new(&inputs, &mut outs2).with_scalars(&[4]),
                &mut scratch,
                |_, _| {},
            )
            .unwrap();
        assert_eq!(out2, vec![5, 0, 3, 8]);

        // A replay missing the scalar binding is rejected.
        let mut core3 = ApCore::new(program.config()).unwrap();
        let mut out3 = Vec::new();
        let mut outs3: [&mut Vec<u64>; 1] = [&mut out3];
        assert!(matches!(
            program.replay(
                &mut core3,
                ExecIo::new(&inputs, &mut outs3),
                &mut scratch,
                |_, _| {},
            ),
            Err(ApError::BadConfig(_))
        ));
    }

    #[test]
    fn registers_thread_runtime_values() {
        let data: Vec<u64> = vec![9, 4, 7, 12];
        let mut core = ApCore::new(ApConfig::new(4, 40)).unwrap();
        let x = core.alloc_field(8).unwrap();
        let m = core.alloc_field(8).unwrap();
        let inputs: [&[u64]; 1] = [&data];
        let mut out = Vec::new();
        let mut outs: [&mut Vec<u64>; 1] = [&mut out];
        let mut scratch = ProgramScratch::default();
        let mut on_step = |_: &'static str, _: CycleStats| {};
        let mut rec = Recorder::new(
            &mut core,
            ExecIo::new(&inputs, &mut outs),
            &mut scratch,
            &mut on_step,
            true,
        );
        rec.load(x, 0).unwrap();
        let r = rec.min_search(x);
        rec.broadcast_reg(m, r).unwrap();
        rec.sub_assert_clean(x, m).unwrap();
        rec.read(x, 0).unwrap();
        let program = rec.finish().unwrap();
        assert_eq!(out, vec![5, 0, 3, 8]);
        assert_eq!(scratch.reg(r), 4);

        // Replay with other data re-derives the min at run time.
        let mut core2 = ApCore::new(program.config()).unwrap();
        let data2: Vec<u64> = vec![30, 11, 20, 11];
        let inputs2: [&[u64]; 1] = [&data2];
        let mut out2 = Vec::new();
        let mut outs2: [&mut Vec<u64>; 1] = [&mut out2];
        program
            .replay(
                &mut core2,
                ExecIo::new(&inputs2, &mut outs2),
                &mut scratch,
                |_, _| {},
            )
            .unwrap();
        assert_eq!(out2, vec![19, 0, 9, 0]);
        assert_eq!(scratch.reg(r), 11);
    }
}
