use crate::lut::{Lut, LutSet, Slot};
use crate::program::ApOp;
use crate::{ApError, CamArray, CycleStats, ExecBackend, Field, RowSet};

/// Geometry of one AP tile.
///
/// # Examples
///
/// ```
/// use softmap_ap::ApConfig;
/// let cfg = ApConfig::new(2048, 96);
/// assert_eq!(cfg.rows, 2048);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApConfig {
    /// CAM rows (words processed in parallel).
    pub rows: usize,
    /// CAM columns (bits per row across all fields).
    pub cols: usize,
}

impl ApConfig {
    /// Creates a configuration.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        Self { rows, cols }
    }
}

/// How word-parallel division is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DivStyle {
    /// Restoring long division entirely in AP microcode (the paper's
    /// step 16 "Divide").
    #[default]
    Restoring,
    /// The controller computes the scalar reciprocal of the (per-segment)
    /// divisor and the AP multiplies by it — a cheaper co-designed
    /// alternative exercised as an ablation.
    ControllerReciprocal,
}

/// Behaviour of the 2D reduction when a segment sum exceeds the sum
/// field — the paper's `N`-truncation (Table I) decides how many extra
/// bits the sum register has; overflow behaviour is the co-design knob
/// probed by Tables III/IV at small `N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Overflow {
    /// Report an error ([`ApError::WidthOverflow`]).
    #[default]
    Error,
    /// Clamp to the largest representable value (the hardware default
    /// assumed by the reproduction; see the README substitution notes).
    Saturate,
    /// Keep only the low bits (failure-injection mode).
    Wrap,
}

/// Runs one LUT over one bit position against destructured core state.
/// `bind` maps slots to concrete columns; `gate` adds an extra match
/// condition (row predication).
///
/// Allocation-free: the bound-column buffers and the tag register are
/// reused across every cycle, and the LUT itself comes from the core's
/// cached [`LutSet`].
fn run_lut_bit(
    cam: &mut CamArray,
    tag: &mut RowSet,
    match_buf: &mut Vec<(usize, bool)>,
    write_buf: &mut Vec<(usize, bool)>,
    lut: &Lut,
    bind: impl Fn(Slot) -> usize,
    gate: Option<(usize, bool)>,
) {
    for pass in &lut.passes {
        match_buf.clear();
        for &(s, v) in &pass.match_bits {
            match_buf.push((bind(s), v));
        }
        if let Some(g) = gate {
            match_buf.push(g);
        }
        write_buf.clear();
        for &(s, v) in &pass.write_bits {
            write_buf.push((bind(s), v));
        }
        cam.compare_into(match_buf, tag);
        cam.write(tag, write_buf);
    }
}

/// The AP controller: word-level operations over [`Field`]s, composed
/// from LUT compare/write passes on a [`CamArray`].
///
/// All arithmetic is unsigned; subtraction exposes its borrow so callers
/// can implement saturation (the convention used by the SoftmAP mapping,
/// which keeps every intermediate as a magnitude).
///
/// A core owns all the scratch state its two backends need — the tag
/// register, borrow/flag/search row-sets, LUT tables, and the fused
/// engine's gather buffers — so steady-state execution (and especially
/// reuse through [`crate::ApTile`]) performs no heap allocation.
///
/// # Examples
///
/// ```
/// use softmap_ap::{ApCore, ApConfig};
///
/// let mut ap = ApCore::new(ApConfig::new(4, 24)).unwrap();
/// let a = ap.alloc_field(6).unwrap();
/// let acc = ap.alloc_field(8).unwrap();
/// ap.load(a, &[3, 7, 0, 63]).unwrap();
/// ap.load(acc, &[10, 20, 30, 40]).unwrap();
/// ap.add_into(acc, a).unwrap();
/// assert_eq!(ap.read(acc), vec![13, 27, 30, 103]);
/// ```
#[derive(Debug, Clone)]
pub struct ApCore {
    cam: CamArray,
    backend: ExecBackend,
    carry_col: usize,
    flag_col: usize,
    next_col: usize,
    /// Cached all-rows set (the microcode engine's ungated tag).
    all_rows: RowSet,
    /// Reusable tag scratch: one compare target reused across every
    /// cycle instead of a fresh allocation per compare.
    tag_scratch: RowSet,
    /// Borrow set of the most recent subtraction (also the divider's
    /// restore tag); see [`ApCore::sub_into_ref`].
    borrow_scratch: RowSet,
    /// Flag-column tag scratch (divider quotient set, shift gates).
    flag_scratch: RowSet,
    /// Candidate sets for the bit-serial max/min search.
    search_a: RowSet,
    search_b: RowSet,
    /// The LUT tables, built once and reused for every operation.
    luts: LutSet,
    /// Reusable bound-column buffers for the LUT pass engine.
    match_buf: Vec<(usize, bool)>,
    write_buf: Vec<(usize, bool)>,
    /// Reusable word gather buffers for the `FastWord` backend.
    pub(crate) vals_a: Vec<u64>,
    pub(crate) vals_b: Vec<u64>,
    pub(crate) vals_r: Vec<u64>,
    /// Carry/borrow block scratch for the fused ripple engines.
    pub(crate) vals_c: Vec<u64>,
    /// Pre-subtraction remainder scratch for the fused divider.
    pub(crate) vals_p: Vec<u64>,
    /// Gate plane scratch for gated fused operations.
    pub(crate) gate_buf: Vec<u64>,
    /// Pooled strip scratch for the region-blocked executor: one
    /// bit-major plane image of the active strip (`cols * strip_blocks`
    /// words).
    pub(crate) strip_buf: Vec<u64>,
    /// Data-dependent tallies (ripple write events, borrow and
    /// shift-gate populations) that the FastWord kernels count for
    /// `backend::charge`: per op on the op-by-op path, per region and
    /// across strips on the blocked path.
    pub(crate) tally_buf: Vec<u64>,
    /// The strip divider's lane buffer: one lane group's remainder
    /// window and divisor planes.
    pub(crate) div_lanes: Vec<[u64; crate::backend::LANES]>,
}

impl ApCore {
    /// Builds an AP tile; two columns are reserved internally for the
    /// carry/borrow bit and a predication flag.
    ///
    /// # Errors
    ///
    /// Returns [`ApError::BadConfig`] for degenerate geometries.
    pub fn new(config: ApConfig) -> Result<Self, ApError> {
        Self::with_backend(config, ExecBackend::default())
    }

    /// Builds an AP tile executing on the given backend.
    ///
    /// # Errors
    ///
    /// Returns [`ApError::BadConfig`] for degenerate geometries.
    pub fn with_backend(config: ApConfig, backend: ExecBackend) -> Result<Self, ApError> {
        if config.cols < 3 {
            return Err(ApError::BadConfig("need at least 3 columns"));
        }
        let cam = CamArray::new(config.rows, config.cols)?;
        Ok(Self {
            cam,
            backend,
            carry_col: 0,
            flag_col: 1,
            next_col: 2,
            all_rows: RowSet::all(config.rows),
            tag_scratch: RowSet::new(config.rows),
            borrow_scratch: RowSet::new(config.rows),
            flag_scratch: RowSet::new(config.rows),
            search_a: RowSet::new(config.rows),
            search_b: RowSet::new(config.rows),
            luts: LutSet::new(),
            match_buf: Vec::with_capacity(8),
            write_buf: Vec::with_capacity(8),
            vals_a: Vec::new(),
            vals_b: Vec::new(),
            vals_r: Vec::new(),
            vals_c: Vec::new(),
            vals_p: Vec::new(),
            gate_buf: Vec::new(),
            strip_buf: Vec::new(),
            tally_buf: Vec::new(),
            div_lanes: Vec::new(),
        })
    }

    /// Re-shapes this core for a fresh program: zeroes all CAM cells
    /// and statistics, releases every allocated field, and switches to
    /// `backend` — while keeping every internal buffer's capacity, so
    /// reuse at a previously seen geometry performs **zero** heap
    /// allocations. This is the engine beneath [`crate::ApTile`].
    ///
    /// # Errors
    ///
    /// Returns [`ApError::BadConfig`] for degenerate geometries.
    pub fn reshape(&mut self, config: ApConfig, backend: ExecBackend) -> Result<(), ApError> {
        if config.cols < 3 {
            return Err(ApError::BadConfig("need at least 3 columns"));
        }
        self.cam.reshape(config.rows, config.cols)?;
        self.backend = backend;
        self.next_col = 2;
        self.all_rows.reset(config.rows);
        self.all_rows.fill(true);
        self.tag_scratch.reset(config.rows);
        self.borrow_scratch.reset(config.rows);
        self.flag_scratch.reset(config.rows);
        self.search_a.reset(config.rows);
        self.search_b.reset(config.rows);
        Ok(())
    }

    /// Clears all CAM cells, statistics, and field allocations at the
    /// current geometry and backend (a same-shape [`ApCore::reshape`]).
    pub fn clear(&mut self) {
        let config = ApConfig::new(self.rows(), self.cols());
        let backend = self.backend;
        self.reshape(config, backend)
            .expect("current geometry is valid");
    }

    /// The execution backend in use.
    #[must_use]
    pub fn backend(&self) -> ExecBackend {
        self.backend
    }

    /// Switches the execution backend. Field contents and accumulated
    /// statistics are carried over unchanged (both backends maintain
    /// identical CAM state).
    pub fn set_backend(&mut self, backend: ExecBackend) {
        self.backend = backend;
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.cam.rows()
    }

    /// Total columns (including the reserved carry column).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cam.cols()
    }

    /// Columns still available for allocation.
    #[must_use]
    pub fn free_cols(&self) -> usize {
        self.cam.cols() - self.next_col
    }

    /// Allocates a fresh field of `width` columns.
    ///
    /// # Errors
    ///
    /// Returns [`ApError::ColumnCapacity`] when the array is full.
    pub fn alloc_field(&mut self, width: usize) -> Result<Field, ApError> {
        let f = Field::new(self.next_col, width);
        if f.end() > self.cam.cols() {
            return Err(ApError::ColumnCapacity {
                needed: f.end(),
                available: self.cam.cols(),
            });
        }
        self.next_col = f.end();
        Ok(f)
    }

    /// Accumulated cycle statistics.
    #[must_use]
    pub fn stats(&self) -> CycleStats {
        self.cam.stats()
    }

    /// Resets the cycle statistics.
    pub fn reset_stats(&mut self) {
        self.cam.reset_stats();
    }

    /// Re-arms the core for the next resident phase: statistics reset
    /// to zero and the field-allocation cursor rewound to the first
    /// data column, while **keeping every CAM cell** — the residency
    /// contract's "the next phase's input planes are this phase's
    /// output planes, still in the arena". Geometry and backend stay
    /// as they are; callers validate them (see
    /// [`crate::ApTile::rearm_resident`]).
    pub fn rearm(&mut self) {
        self.cam.reset_stats();
        self.next_col = 2;
    }

    /// Direct access to the underlying CAM (observer use).
    #[must_use]
    pub fn cam(&self) -> &CamArray {
        &self.cam
    }

    /// Mutable CAM access for the `FastWord` engine.
    pub(crate) fn cam_mut(&mut self) -> &mut CamArray {
        &mut self.cam
    }

    /// The reserved carry/borrow column.
    pub(crate) fn carry_col(&self) -> usize {
        self.carry_col
    }

    /// The reserved predication-flag column.
    pub(crate) fn flag_col(&self) -> usize {
        self.flag_col
    }

    // ---- host I/O -------------------------------------------------------

    /// Loads one word per row into `field` (bit-serial: `width` cycles;
    /// an empty slice is free).
    ///
    /// # Errors
    ///
    /// See [`CamArray::load_field`].
    pub fn load(&mut self, field: Field, words: &[u64]) -> Result<(), ApError> {
        self.cam.load_field(field, words)
    }

    /// Broadcasts a constant into `field` on all rows.
    ///
    /// # Errors
    ///
    /// See [`CamArray::broadcast_field`].
    pub fn broadcast(&mut self, field: Field, value: u64) -> Result<(), ApError> {
        self.broadcast_all(field, value)
    }

    /// Allocation-free ungated broadcast (the cached all-rows tag).
    pub(crate) fn broadcast_all(&mut self, field: Field, value: u64) -> Result<(), ApError> {
        let Self { cam, all_rows, .. } = self;
        cam.broadcast_field(field, value, all_rows)
    }

    /// Broadcasts a constant into `field` on the rows of `tag`.
    ///
    /// # Errors
    ///
    /// See [`CamArray::broadcast_field`].
    pub fn broadcast_tagged(
        &mut self,
        field: Field,
        value: u64,
        tag: &RowSet,
    ) -> Result<(), ApError> {
        self.cam.broadcast_field(field, value, tag)
    }

    /// Reads back all words of `field`.
    #[must_use]
    pub fn read(&self, field: Field) -> Vec<u64> {
        self.cam.read_field(field)
    }

    /// Appends all words of `field` to `out` — the allocation-free
    /// read-out used by the pooled execution path.
    pub fn read_append(&self, field: Field, out: &mut Vec<u64>) {
        self.cam.read_field_append(field, out);
    }

    /// Reads one word.
    #[must_use]
    pub fn read_row(&self, row: usize, field: Field) -> u64 {
        self.cam.read_word(row, field)
    }

    /// Directly sets one row's word without charging cycles; see
    /// [`CamArray::poke_word`] (the 2D-arithmetic back-door, not part
    /// of the machine's ISA).
    ///
    /// # Panics
    ///
    /// Panics if the row is out of range or the value does not fit.
    pub fn poke_row(&mut self, row: usize, field: Field, value: u64) {
        self.cam.poke_word(row, field, value);
    }

    /// Clears the carry column (one write cycle).
    fn clear_carry(&mut self) {
        let cc = self.carry_col;
        let Self { cam, all_rows, .. } = self;
        cam.write(all_rows, &[(cc, false)]);
    }

    // ---- logic ----------------------------------------------------------

    /// `r = a ^ b`, out of place. `r` is cleared first (`width` cycles),
    /// then the two XOR passes of the paper's Fig. 3 run per bit.
    ///
    /// # Errors
    ///
    /// Returns [`ApError::FieldOverlap`] if `r` overlaps an operand, or a
    /// width error if `r` is narrower than the operands.
    pub fn xor(&mut self, a: Field, b: Field, r: Field) -> Result<(), ApError> {
        let w = a.width().max(b.width());
        if r.width() < w {
            return Err(ApError::WidthOverflow {
                value: w as u64,
                width: r.width(),
            });
        }
        if r.overlaps(&a) || r.overlaps(&b) {
            return Err(ApError::FieldOverlap);
        }
        if self.backend == ExecBackend::FastWord {
            return self.fw_xor(a, b, r);
        }
        self.broadcast_all(r, 0)?;
        let cc = self.carry_col;
        let Self {
            cam,
            tag_scratch,
            match_buf,
            write_buf,
            luts,
            ..
        } = self;
        for i in 0..w {
            // Missing operand bits beyond a narrower field read as 0.
            if i < a.width() && i < b.width() {
                let bind = move |s: Slot| match s {
                    Slot::A => a.col(i),
                    Slot::B => b.col(i),
                    Slot::R => r.col(i),
                    Slot::C => cc,
                };
                run_lut_bit(
                    cam,
                    tag_scratch,
                    match_buf,
                    write_buf,
                    &luts.xor,
                    bind,
                    None,
                );
            } else {
                let src = if i < a.width() { a } else { b };
                // XOR with implicit 0: copy the remaining operand bit.
                let bind = move |s: Slot| match s {
                    Slot::A => src.col(i),
                    Slot::R => r.col(i),
                    _ => cc,
                };
                run_lut_bit(
                    cam,
                    tag_scratch,
                    match_buf,
                    write_buf,
                    &luts.copy,
                    bind,
                    None,
                );
            }
        }
        Ok(())
    }

    /// `dst = src`, out of place (two passes per bit).
    ///
    /// # Errors
    ///
    /// Returns [`ApError::FieldOverlap`] on overlap, a width error if
    /// `dst` is narrower than `src`, or [`ApError::ColumnCapacity`] if
    /// `dst` exceeds the array. Destination bits above `src.width()`
    /// are cleared.
    pub fn copy(&mut self, src: Field, dst: Field) -> Result<(), ApError> {
        if dst.overlaps(&src) {
            return Err(ApError::FieldOverlap);
        }
        if dst.width() < src.width() {
            return Err(ApError::WidthOverflow {
                value: src.width() as u64,
                width: dst.width(),
            });
        }
        self.cam.check_field(dst)?;
        if self.backend == ExecBackend::FastWord {
            return self.fw_copy(src, dst);
        }
        let cc = self.carry_col;
        {
            let Self {
                cam,
                tag_scratch,
                match_buf,
                write_buf,
                luts,
                ..
            } = self;
            for i in 0..src.width() {
                let bind = move |s: Slot| match s {
                    Slot::A => src.col(i),
                    Slot::R => dst.col(i),
                    _ => cc,
                };
                run_lut_bit(
                    cam,
                    tag_scratch,
                    match_buf,
                    write_buf,
                    &luts.copy,
                    bind,
                    None,
                );
            }
        }
        if dst.width() > src.width() {
            let hi = dst.sub(src.width(), dst.width() - src.width());
            self.broadcast_all(hi, 0)?;
        }
        Ok(())
    }

    // ---- arithmetic -----------------------------------------------------

    /// In-place addition `acc += src` (gated variant of the paper's
    /// addition LUT when `gate` is provided: only rows whose gate column
    /// matches participate).
    ///
    /// The carry ripples through the full accumulator width; overflow
    /// past `acc.width()` is dropped (callers size accumulators per
    /// Table I so this never fires in the mapped dataflow).
    ///
    /// # Errors
    ///
    /// Returns [`ApError::FieldOverlap`] if the fields overlap or a
    /// width error if `acc` is narrower than `src`.
    pub fn add_into(&mut self, acc: Field, src: Field) -> Result<(), ApError> {
        self.add_into_gated(acc, src, None)
    }

    /// Gated in-place addition; see [`ApCore::add_into`].
    ///
    /// # Errors
    ///
    /// Same as [`ApCore::add_into`].
    pub fn add_into_gated(
        &mut self,
        acc: Field,
        src: Field,
        gate: Option<(usize, bool)>,
    ) -> Result<(), ApError> {
        if acc.overlaps(&src) {
            return Err(ApError::FieldOverlap);
        }
        if acc.width() < src.width() {
            return Err(ApError::WidthOverflow {
                value: src.width() as u64,
                width: acc.width(),
            });
        }
        if self.backend == ExecBackend::FastWord {
            return self.fw_add_sub::<false>(acc, src, gate);
        }
        self.clear_carry();
        let cc = self.carry_col;
        let Self {
            cam,
            tag_scratch,
            match_buf,
            write_buf,
            luts,
            ..
        } = self;
        for i in 0..src.width() {
            let bind = move |s: Slot| match s {
                Slot::A => src.col(i),
                Slot::B => acc.col(i),
                Slot::R => acc.col(i),
                Slot::C => cc,
            };
            run_lut_bit(
                cam,
                tag_scratch,
                match_buf,
                write_buf,
                &luts.add,
                bind,
                gate,
            );
        }
        for i in src.width()..acc.width() {
            let bind = move |s: Slot| match s {
                Slot::B => acc.col(i),
                _ => cc,
            };
            run_lut_bit(
                cam,
                tag_scratch,
                match_buf,
                write_buf,
                &luts.carry_ripple,
                bind,
                gate,
            );
        }
        Ok(())
    }

    /// In-place subtraction `acc -= src` with two's-complement wrap on
    /// underflow. Returns the set of rows that underflowed (borrow-out),
    /// read from the borrow column.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ApCore::add_into`].
    pub fn sub_into(&mut self, acc: Field, src: Field) -> Result<RowSet, ApError> {
        self.sub_into_gated(acc, src, None)
    }

    /// Allocation-free [`ApCore::sub_into`]: the borrow set is returned
    /// as a reference to an internal scratch register (valid until the
    /// next subtraction) instead of a fresh allocation — the pooled
    /// execution path's variant.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ApCore::add_into`].
    pub fn sub_into_ref(&mut self, acc: Field, src: Field) -> Result<&RowSet, ApError> {
        self.sub_into_scratch(acc, src, None)?;
        Ok(&self.borrow_scratch)
    }

    /// Gated in-place subtraction; see [`ApCore::sub_into`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`ApCore::add_into`].
    pub fn sub_into_gated(
        &mut self,
        acc: Field,
        src: Field,
        gate: Option<(usize, bool)>,
    ) -> Result<RowSet, ApError> {
        self.sub_into_scratch(acc, src, gate)?;
        Ok(self.borrow_scratch.clone())
    }

    /// The shared subtraction engine: leaves the borrow set in
    /// `self.borrow_scratch`.
    fn sub_into_scratch(
        &mut self,
        acc: Field,
        src: Field,
        gate: Option<(usize, bool)>,
    ) -> Result<(), ApError> {
        if acc.overlaps(&src) {
            return Err(ApError::FieldOverlap);
        }
        if acc.width() < src.width() {
            return Err(ApError::WidthOverflow {
                value: src.width() as u64,
                width: acc.width(),
            });
        }
        if self.backend == ExecBackend::FastWord {
            return self.fw_add_sub::<true>(acc, src, gate);
        }
        self.clear_carry();
        let cc = self.carry_col;
        {
            let Self {
                cam,
                tag_scratch,
                match_buf,
                write_buf,
                luts,
                ..
            } = self;
            for i in 0..src.width() {
                let bind = move |s: Slot| match s {
                    Slot::A => src.col(i),
                    Slot::B => acc.col(i),
                    Slot::R => acc.col(i),
                    Slot::C => cc,
                };
                run_lut_bit(
                    cam,
                    tag_scratch,
                    match_buf,
                    write_buf,
                    &luts.sub,
                    bind,
                    gate,
                );
            }
            for i in src.width()..acc.width() {
                let bind = move |s: Slot| match s {
                    Slot::B => acc.col(i),
                    _ => cc,
                };
                run_lut_bit(
                    cam,
                    tag_scratch,
                    match_buf,
                    write_buf,
                    &luts.borrow_ripple,
                    bind,
                    gate,
                );
            }
        }
        // Reading the borrow column costs one compare cycle.
        let Self {
            cam,
            borrow_scratch,
            ..
        } = self;
        cam.compare_into(&[(self.carry_col, true)], borrow_scratch);
        Ok(())
    }

    /// Saturating in-place subtraction: `acc = max(acc - src, 0)`.
    /// Underflowed rows are zeroed (this is how the mapped dataflow keeps
    /// every intermediate a magnitude; cf. the `v_corr` width discussion
    /// in the paper).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ApCore::add_into`].
    pub fn saturating_sub_into(&mut self, acc: Field, src: Field) -> Result<(), ApError> {
        self.sub_into_scratch(acc, src, None)?;
        // The controller branches on the borrow tag it already holds,
        // so a broadcast to an empty set spends no cycles (the cost
        // model charges empty bulk I/O as free).
        let Self {
            cam,
            borrow_scratch,
            ..
        } = self;
        cam.broadcast_field(acc, 0, borrow_scratch)
    }

    /// Out-of-place multiplication `r = a * b` by gated shift-add
    /// (`8·wa·wb`-cycle class, the `8M²` term of Table II).
    ///
    /// # Errors
    ///
    /// Overlap/width errors as for the other arithmetic; `r` must be at
    /// least `a.width() + b.width()` wide, and inside the array
    /// ([`ApError::ColumnCapacity`]). `a` and `b` may be the same field
    /// (squaring).
    pub fn mul(&mut self, a: Field, b: Field, r: Field) -> Result<(), ApError> {
        if r.overlaps(&a) || r.overlaps(&b) {
            return Err(ApError::FieldOverlap);
        }
        if r.width() < a.width() + b.width() {
            return Err(ApError::WidthOverflow {
                value: (a.width() + b.width()) as u64,
                width: r.width(),
            });
        }
        self.cam.check_field(r)?;
        if self.backend == ExecBackend::FastWord {
            return self.fw_mul(a, b, r);
        }
        self.broadcast_all(r, 0)?;
        for j in 0..b.width() {
            // Partial sums below offset j never carry past bit
            // j + a.width(), so one ripple bit suffices.
            let acc_width = (a.width() + 1).min(r.width() - j);
            let acc = r.sub(j, acc_width);
            self.add_into_gated(acc, a, Some((b.col(j), true)))?;
        }
        Ok(())
    }

    /// Squares `a` into `r` (`r = a²`); alias of [`ApCore::mul`] with
    /// both operands bound to the same field.
    ///
    /// # Errors
    ///
    /// Same as [`ApCore::mul`].
    pub fn square(&mut self, a: Field, r: Field) -> Result<(), ApError> {
        self.mul(a, a, r)
    }

    /// Optimizer entry (`ApOp::MulConst`): fused constant multiply
    /// `r = a * bits` over `width` multiplier bits. Plane-exact — the
    /// carry column included — versus broadcasting `bits` into a field
    /// and running [`ApCore::mul`], on either backend; zero multiplier
    /// bits issue no sweep and charge nothing.
    pub(crate) fn mul_const(
        &mut self,
        a: Field,
        r: Field,
        bits: u64,
        width: usize,
    ) -> Result<(), ApError> {
        if r.overlaps(&a) {
            return Err(ApError::FieldOverlap);
        }
        if width == 0 || width > 64 {
            return Err(ApError::BadConfig("fused multiplier width out of range"));
        }
        if width < 64 && bits >> width != 0 {
            return Err(ApError::WidthOverflow { value: bits, width });
        }
        if r.width() < a.width() + width {
            return Err(ApError::WidthOverflow {
                value: (a.width() + width) as u64,
                width: r.width(),
            });
        }
        self.cam.check_field(r)?;
        self.fw_mul_const(a, r, bits, width)
    }

    // ---- shifts ---------------------------------------------------------

    /// In-place logical right shift by a constant, over all rows.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` for interface uniformity.
    pub fn shr_const(&mut self, field: Field, k: usize) -> Result<(), ApError> {
        if k == 0 {
            return Ok(());
        }
        if k >= field.width() {
            return self.broadcast_all(field, 0);
        }
        if self.backend == ExecBackend::FastWord {
            return self.fw_shr_const(field, k);
        }
        let cc = self.carry_col;
        {
            let Self {
                cam,
                tag_scratch,
                match_buf,
                write_buf,
                luts,
                ..
            } = self;
            for i in 0..field.width() - k {
                let bind = move |s: Slot| match s {
                    Slot::A => field.col(i + k),
                    Slot::R => field.col(i),
                    _ => cc,
                };
                run_lut_bit(
                    cam,
                    tag_scratch,
                    match_buf,
                    write_buf,
                    &luts.copy,
                    bind,
                    None,
                );
            }
        }
        let hi = field.sub(field.width() - k, k);
        self.broadcast_all(hi, 0)
    }

    /// In-place per-row variable right shift: `field >>= amount`, where
    /// `amount` is read per row from its own field (bit-serial over the
    /// amount bits; rows with amount bit `j` set shift by `2^j`).
    ///
    /// # Errors
    ///
    /// Returns [`ApError::FieldOverlap`] if the fields overlap.
    pub fn shr_variable(&mut self, field: Field, amount: Field) -> Result<(), ApError> {
        if field.overlaps(&amount) {
            return Err(ApError::FieldOverlap);
        }
        if self.backend == ExecBackend::FastWord {
            return self.fw_shr_variable(field, amount);
        }
        let cc = self.carry_col;
        for j in 0..amount.width() {
            let s = crate::backend::shift_weight(j);
            let gate = Some((amount.col(j), true));
            if s >= field.width() {
                // Entire field shifts out for gated rows.
                let Self {
                    cam, flag_scratch, ..
                } = self;
                cam.compare_into(&[(amount.col(j), true)], flag_scratch);
                cam.broadcast_field(field, 0, flag_scratch)?;
                continue;
            }
            {
                let Self {
                    cam,
                    tag_scratch,
                    match_buf,
                    write_buf,
                    luts,
                    ..
                } = self;
                for i in 0..field.width() - s {
                    let bind = move |slot: Slot| match slot {
                        Slot::A => field.col(i + s),
                        Slot::R => field.col(i),
                        _ => cc,
                    };
                    run_lut_bit(
                        cam,
                        tag_scratch,
                        match_buf,
                        write_buf,
                        &luts.copy,
                        bind,
                        gate,
                    );
                }
            }
            let Self {
                cam, flag_scratch, ..
            } = self;
            cam.compare_into(&[(amount.col(j), true)], flag_scratch);
            let hi = field.sub(field.width() - s, s);
            cam.broadcast_field(hi, 0, flag_scratch)?;
        }
        Ok(())
    }

    /// `r = a & b`, out of place (one pass per bit after clearing `r`).
    ///
    /// # Errors
    ///
    /// Overlap/width errors as for [`ApCore::xor`].
    pub fn and(&mut self, a: Field, b: Field, r: Field) -> Result<(), ApError> {
        if self.backend == ExecBackend::FastWord {
            self.bitwise_check(a, b, r)?;
            return self.fw_and(a, b, r);
        }
        self.bitwise(|l| &l.and, a, b, r)
    }

    /// `r = a | b`, out of place (three passes per bit).
    ///
    /// # Errors
    ///
    /// Overlap/width errors as for [`ApCore::xor`].
    pub fn or(&mut self, a: Field, b: Field, r: Field) -> Result<(), ApError> {
        if self.backend == ExecBackend::FastWord {
            self.bitwise_check(a, b, r)?;
            return self.fw_or(a, b, r);
        }
        self.bitwise(|l| &l.or, a, b, r)
    }

    /// `r = !a` over `a.width()` bits, out of place (two passes per bit,
    /// no pre-clear needed).
    ///
    /// # Errors
    ///
    /// Overlap/width errors as for [`ApCore::copy`].
    pub fn not(&mut self, a: Field, r: Field) -> Result<(), ApError> {
        if r.overlaps(&a) {
            return Err(ApError::FieldOverlap);
        }
        if r.width() < a.width() {
            return Err(ApError::WidthOverflow {
                value: a.width() as u64,
                width: r.width(),
            });
        }
        if self.backend == ExecBackend::FastWord {
            return self.fw_not(a, r);
        }
        let cc = self.carry_col;
        let Self {
            cam,
            tag_scratch,
            match_buf,
            write_buf,
            luts,
            ..
        } = self;
        for i in 0..a.width() {
            let bind = move |s: Slot| match s {
                Slot::A => a.col(i),
                Slot::R => r.col(i),
                _ => cc,
            };
            run_lut_bit(
                cam,
                tag_scratch,
                match_buf,
                write_buf,
                &luts.not,
                bind,
                None,
            );
        }
        Ok(())
    }

    /// Validation shared by both backends of the bitwise engine.
    fn bitwise_check(&self, a: Field, b: Field, r: Field) -> Result<(), ApError> {
        let w = a.width().max(b.width());
        if r.width() < w {
            return Err(ApError::WidthOverflow {
                value: w as u64,
                width: r.width(),
            });
        }
        if r.overlaps(&a) || r.overlaps(&b) {
            return Err(ApError::FieldOverlap);
        }
        Ok(())
    }

    /// Shared engine for the two-operand bitwise LUTs (result
    /// pre-cleared; operands zero-extended to the wider width). The LUT
    /// is picked from the cached set by `pick`.
    fn bitwise(
        &mut self,
        pick: fn(&LutSet) -> &Lut,
        a: Field,
        b: Field,
        r: Field,
    ) -> Result<(), ApError> {
        let w = a.width().max(b.width());
        self.bitwise_check(a, b, r)?;
        self.broadcast_all(r, 0)?;
        let cc = self.carry_col;
        let Self {
            cam,
            tag_scratch,
            match_buf,
            write_buf,
            luts,
            ..
        } = self;
        let lut = pick(luts);
        for i in 0..a.width().min(b.width()) {
            let bind = move |s: Slot| match s {
                Slot::A => a.col(i),
                Slot::B => b.col(i),
                Slot::R => r.col(i),
                Slot::C => cc,
            };
            run_lut_bit(cam, tag_scratch, match_buf, write_buf, lut, bind, None);
        }
        // Bits where only one operand exists: AND with 0 stays 0 (done);
        // OR/XOR-style LUTs that set R on a single operand bit are
        // handled by matching that operand against the implicit zero.
        // Does this LUT set R when the other operand is 0?
        let sets_on_single = lut.passes.iter().any(|p| {
            p.match_bits.contains(&(Slot::A, true)) && !p.match_bits.contains(&(Slot::B, true))
                || p.match_bits.contains(&(Slot::B, true))
                    && !p.match_bits.contains(&(Slot::A, true))
        });
        for i in a.width().min(b.width())..w {
            let src = if i < a.width() { a } else { b };
            if sets_on_single {
                let bind = move |s: Slot| match s {
                    Slot::A => src.col(i),
                    Slot::R => r.col(i),
                    _ => cc,
                };
                run_lut_bit(
                    cam,
                    tag_scratch,
                    match_buf,
                    write_buf,
                    &luts.copy,
                    bind,
                    None,
                );
            }
        }
        Ok(())
    }

    /// Word-parallel dot product: `r_prod = a * b` per row, then a 2D
    /// tree reduction over all rows — the per-output-element wavefront
    /// of the paper's Table II matrix-matrix multiplication row
    /// (`2M + 8M² + 8·log2(j) + 2M + log2(j)` with `j` = rows).
    ///
    /// Returns the dot-product value.
    ///
    /// # Errors
    ///
    /// As [`ApCore::mul`] and [`ApCore::reduce_sum_2d`]; `sum` must be
    /// wide enough for the full dot product.
    pub fn dot(&mut self, a: Field, b: Field, prod: Field, sum: Field) -> Result<u64, ApError> {
        self.mul(a, b, prod)?;
        let sums = self.reduce_sum_2d(prod, sum, self.rows())?;
        Ok(sums[0])
    }

    // ---- search ---------------------------------------------------------

    /// The shared bit-serial extreme search (MSB to LSB). Leaves the
    /// attaining row set in `self.search_a` and returns the extreme
    /// value. One compare cycle per bit. Allocation-free.
    fn extreme_search(&mut self, field: Field, maximize: bool) -> u64 {
        let Self {
            cam,
            search_a,
            search_b,
            ..
        } = self;
        search_a.fill(true);
        let mut value = 0u64;
        for i in (0..field.width()).rev() {
            // Tag rows whose bit matches the preferred polarity, then
            // intersect with the surviving candidates.
            cam.compare_into(&[(field.col(i), maximize)], search_b);
            search_b.and_with(search_a);
            if search_b.is_none_set() {
                if !maximize {
                    // Every remaining candidate has a 1 here.
                    value |= 1 << i;
                }
            } else {
                if maximize {
                    value |= 1 << i;
                }
                core::mem::swap(search_a, search_b);
            }
        }
        value
    }

    /// Bit-serial maximum search (MSB to LSB): returns the maximum value
    /// in `field` over all rows and the set of rows attaining it.
    /// One compare cycle per bit.
    #[must_use]
    pub fn max_search(&mut self, field: Field) -> (u64, RowSet) {
        let max = self.extreme_search(field, true);
        (max, self.search_a.clone())
    }

    /// Allocation-free [`ApCore::max_search`] when only the value is
    /// needed (the attaining rows stay in an internal register).
    #[must_use]
    pub fn max_search_value(&mut self, field: Field) -> u64 {
        self.extreme_search(field, true)
    }

    /// Bit-serial minimum search (MSB to LSB, preferring zero bits):
    /// returns the minimum value in `field` over all rows and the rows
    /// attaining it. One compare cycle per bit.
    #[must_use]
    pub fn min_search(&mut self, field: Field) -> (u64, RowSet) {
        let min = self.extreme_search(field, false);
        (min, self.search_a.clone())
    }

    /// Allocation-free [`ApCore::min_search`] when only the value is
    /// needed.
    #[must_use]
    pub fn min_search_value(&mut self, field: Field) -> u64 {
        self.extreme_search(field, false)
    }

    // ---- 2D reduction ---------------------------------------------------

    /// 2D (row-parallel) tree reduction: sums `field` over each segment
    /// of `segment_rows` consecutive rows, returning one sum per segment.
    ///
    /// The 2D AP adds row pairs bit-parallel without data movement; per
    /// the paper's Table II this costs `8·log2(n) + 1` cycles per
    /// reduction (plus the word-width add the caller performs to combine
    /// its two packed words per row). Cell events are charged as
    /// `(n-1) · width · 3` per segment (each pairwise add touches the two
    /// operand rows and the result row across the field).
    ///
    /// Values are computed exactly, on the host, without reading rows
    /// back: a segment's sum is Σ_b popcount(plane_b ∧ segment) · 2^b,
    /// accumulated in `u128`, so no field width or segment length can
    /// wrap it. The per-segment sum (after the overflow rule) is poked
    /// into the segment's first row at `sum_field` so subsequent steps
    /// (broadcast, division) can consume it in place.
    ///
    /// # Errors
    ///
    /// Returns a width error if a segment's sum exceeds `sum_field`,
    /// and [`ApError::BadConfig`] if `segment_rows` is zero or does not
    /// divide the row count.
    pub fn reduce_sum_2d(
        &mut self,
        field: Field,
        sum_field: Field,
        segment_rows: usize,
    ) -> Result<Vec<u64>, ApError> {
        self.reduce_sum_2d_mode(field, sum_field, segment_rows, Overflow::Error)
    }

    /// 2D reduction with explicit overflow behaviour; see
    /// [`ApCore::reduce_sum_2d`] and [`Overflow`].
    ///
    /// # Errors
    ///
    /// As [`ApCore::reduce_sum_2d`]; width overflow is only an error in
    /// [`Overflow::Error`] mode.
    pub fn reduce_sum_2d_mode(
        &mut self,
        field: Field,
        sum_field: Field,
        segment_rows: usize,
        mode: Overflow,
    ) -> Result<Vec<u64>, ApError> {
        let mut sums = Vec::new();
        self.reduce_sum_2d_mode_into(field, sum_field, segment_rows, mode, &mut sums)?;
        Ok(sums)
    }

    /// Allocation-free [`ApCore::reduce_sum_2d_mode`]: per-segment sums
    /// are written into `sums` (cleared first).
    ///
    /// # Errors
    ///
    /// As [`ApCore::reduce_sum_2d_mode`]. A [`Overflow::Error`]
    /// overflow reports the exact sum, saturated to `u64::MAX`, after
    /// the segments before it have been written.
    pub fn reduce_sum_2d_mode_into(
        &mut self,
        field: Field,
        sum_field: Field,
        segment_rows: usize,
        mode: Overflow,
        sums: &mut Vec<u64>,
    ) -> Result<(), ApError> {
        sums.clear();
        if segment_rows == 0 || !self.rows().is_multiple_of(segment_rows) {
            return Err(ApError::BadConfig("segment_rows must divide the row count"));
        }
        let max = u128::from(sum_field.max_value());
        for base in (0..self.rows()).step_by(segment_rows) {
            let exact = self.cam.field_sum(field, base..base + segment_rows);
            let sum = if exact <= max {
                exact
            } else {
                match mode {
                    Overflow::Error => {
                        return Err(ApError::WidthOverflow {
                            value: u64::try_from(exact).unwrap_or(u64::MAX),
                            width: sum_field.width(),
                        })
                    }
                    Overflow::Saturate => max,
                    Overflow::Wrap => exact & max,
                }
            };
            let sum = u64::try_from(sum).expect("at most the sum field's maximum");
            self.cam.poke_word(base, sum_field, sum);
            sums.push(sum);
        }
        let stages = segment_rows.next_power_of_two().trailing_zeros() as u64;
        let cycles = 8 * stages + 1;
        let events = (segment_rows as u64 - 1)
            * field.width() as u64
            * 3
            * (self.rows() / segment_rows) as u64;
        self.cam.charge_2d(cycles, events);
        Ok(())
    }

    // ---- division -------------------------------------------------------

    /// Word-parallel fixed-point division:
    /// `quot = (num << frac_bits) / den`, per row, where `den` is a
    /// per-row field. Rows in which `den == 0` are an error.
    ///
    /// With [`DivStyle::Restoring`] the quotient is developed bit by bit
    /// with a shift/subtract/restore microprogram — the paper's step 16.
    /// With [`DivStyle::ControllerReciprocal`] the controller computes a
    /// scalar reciprocal per distinct divisor value (intended for the
    /// post-reduction case where the divisor is a per-segment constant)
    /// and the AP multiplies by it; the result may differ from the
    /// restoring quotient by at most one ULP and is exercised as an
    /// ablation.
    ///
    /// Saturates to `quot.max_value()` if the true quotient overflows the
    /// quotient field.
    ///
    /// # Errors
    ///
    /// * [`ApError::DivisionByZero`] if any row's divisor is zero.
    /// * Overlap errors if fields alias.
    /// * Column-capacity errors if scratch space cannot be allocated.
    pub fn divide(
        &mut self,
        num: Field,
        den: Field,
        quot: Field,
        frac_bits: usize,
        style: DivStyle,
    ) -> Result<(), ApError> {
        if num.overlaps(&quot) || den.overlaps(&quot) || num.overlaps(&den) {
            return Err(ApError::FieldOverlap);
        }
        // Zero-divisor scan on the planes (free observer access).
        if !self.cam.field_all_nonzero(den) {
            return Err(ApError::DivisionByZero);
        }
        match style {
            DivStyle::Restoring if self.backend == ExecBackend::FastWord => {
                self.fw_divide(&ApOp::Divide {
                    num,
                    den,
                    quot,
                    frac_bits,
                    style,
                })
            }
            DivStyle::Restoring => self.divide_restoring(num, den, quot, frac_bits),
            // The reciprocal microprogram is controller-driven: its
            // constituent ops (mul, shifts, copies, compares) dispatch
            // per backend themselves, so the body is shared. The
            // controller reads the divisor words through a reused
            // buffer (no allocation in steady state).
            DivStyle::ControllerReciprocal => {
                let mut dens = std::mem::take(&mut self.vals_p);
                dens.clear();
                self.cam.read_field_append(den, &mut dens);
                let result = self.divide_reciprocal(num, den, quot, frac_bits, &mut dens);
                self.vals_p = dens;
                result
            }
        }
    }

    /// Optimizer entry (`ApOp::FusedDivide`): batched fused restoring
    /// division of up to two `(num, quot)` channels by the shared
    /// divisor `den`, with the same overlap and zero-divisor checks as
    /// [`ApCore::divide`]. Plane-exact versus issuing the restoring
    /// divisions back to back, on either backend.
    pub(crate) fn fused_divide(&mut self, op: &ApOp) -> Result<(), ApError> {
        let ApOp::FusedDivide {
            den,
            ref channels,
            n_channels,
            ..
        } = *op
        else {
            unreachable!("{op:?} is not a fused division");
        };
        for &(num, quot) in &channels[..usize::from(n_channels)] {
            if num.overlaps(&quot) || den.overlaps(&quot) || num.overlaps(&den) {
                return Err(ApError::FieldOverlap);
            }
        }
        if !self.cam.field_all_nonzero(den) {
            return Err(ApError::DivisionByZero);
        }
        self.fw_divide(op)
    }

    fn divide_restoring(
        &mut self,
        num: Field,
        den: Field,
        quot: Field,
        frac_bits: usize,
    ) -> Result<(), ApError> {
        // Remainder scratch: one bit wider than the divisor.
        let rem_width = den.width() + 1;
        let rem = self.alloc_scratch(rem_width)?;
        if let Err(e) = self.broadcast_all(quot, 0) {
            self.release_scratch(rem);
            return Err(e);
        }
        self.broadcast_all(rem, 0)?;

        let total_bits = num.width() + frac_bits;
        let cc = self.carry_col;
        let fc = self.flag_col;
        for k in (0..total_bits).rev() {
            {
                let Self {
                    cam,
                    tag_scratch,
                    match_buf,
                    write_buf,
                    luts,
                    all_rows,
                    ..
                } = self;
                // rem = (rem << 1) | dividend_bit(k); shift MSB-first so
                // no bit is clobbered before it is read.
                for i in (0..rem.width() - 1).rev() {
                    let bind = move |s: Slot| match s {
                        Slot::A => rem.col(i),
                        Slot::R => rem.col(i + 1),
                        _ => cc,
                    };
                    run_lut_bit(
                        cam,
                        tag_scratch,
                        match_buf,
                        write_buf,
                        &luts.copy,
                        bind,
                        None,
                    );
                }
                if k >= frac_bits {
                    let bind = move |s: Slot| match s {
                        Slot::A => num.col(k - frac_bits),
                        Slot::R => rem.col(0),
                        _ => cc,
                    };
                    run_lut_bit(
                        cam,
                        tag_scratch,
                        match_buf,
                        write_buf,
                        &luts.copy,
                        bind,
                        None,
                    );
                } else {
                    cam.write(all_rows, &[(rem.col(0), false)]);
                }
            }
            // Try rem -= den; latch the borrow into the flag column (the
            // carry column is recycled by the restoring add), then rows
            // that underflowed restore by adding den back, gated on the
            // flag.
            self.sub_into_scratch(rem, den, None)?;
            let any_borrow = {
                let Self {
                    cam,
                    all_rows,
                    borrow_scratch,
                    ..
                } = self;
                cam.write(all_rows, &[(fc, false)]);
                cam.write(borrow_scratch, &[(fc, true)]);
                !borrow_scratch.is_none_set()
            };
            if any_borrow {
                self.add_into_gated(rem, den, Some((fc, true)))?;
            }
            // Quotient bit = 1 for rows that did not borrow (empty-set
            // broadcasts above the field are free, mirroring the
            // controller's branch on the tag).
            let Self {
                cam, flag_scratch, ..
            } = self;
            cam.compare_into(&[(fc, false)], flag_scratch);
            if k < quot.width() {
                cam.write(flag_scratch, &[(quot.col(k), true)]);
            } else {
                // Quotient bit above the field: saturate affected rows.
                cam.broadcast_field(quot, quot.max_value(), flag_scratch)?;
            }
        }
        self.release_scratch(rem);
        Ok(())
    }

    /// `dens` holds the divisor words [`ApCore::divide`] read for the
    /// controller; it is sorted and deduplicated in place (it is
    /// scratch, so no allocation happens in steady state).
    fn divide_reciprocal(
        &mut self,
        num: Field,
        den: Field,
        quot: Field,
        frac_bits: usize,
        dens: &mut Vec<u64>,
    ) -> Result<(), ApError> {
        // The controller computes floor(2^G / den) once per distinct
        // divisor (cheap scalar work) and broadcasts it; the AP then
        // multiplies and shifts: quot = (num * recip) >> (G - F). Guard
        // bits G = F + num.width() keep the result within one ULP of the
        // restoring quotient.
        let guard_bits = frac_bits + num.width();
        let recip_width = guard_bits + 1;
        let recip = self.alloc_scratch(recip_width)?;
        let prod_width = num.width() + recip_width;
        let prod = self.alloc_scratch(prod_width)?;

        dens.sort_unstable();
        dens.dedup();
        for &d in dens.iter() {
            let r = ((1u128 << guard_bits) / u128::from(d)) as u64;
            // Tag rows holding divisor d: one compare per divisor bit.
            let Self {
                cam,
                search_a,
                search_b,
                ..
            } = self;
            search_a.fill(true);
            for i in 0..den.width() {
                cam.compare_into(&[(den.col(i), d >> i & 1 == 1)], search_b);
                search_a.and_with(search_b);
            }
            cam.broadcast_field(recip, r, search_a)?;
        }
        self.mul(num, recip, prod)?;
        self.shr_const(prod, guard_bits - frac_bits)?;
        // Copy the low quot.width() bits of the shifted product out,
        // saturating rows whose quotient overflows the field.
        let low = prod.sub(0, quot.width().min(prod.width()));
        self.copy(low, quot)?;
        if prod.width() > quot.width() {
            let hi = prod.sub(quot.width(), prod.width() - quot.width());
            let Self {
                cam,
                search_a,
                search_b,
                ..
            } = self;
            search_a.fill(false);
            for i in 0..hi.width() {
                cam.compare_into(&[(hi.col(i), true)], search_b);
                search_a.or_with(search_b);
            }
            if !search_a.is_none_set() {
                cam.broadcast_field(quot, quot.max_value(), search_a)?;
            }
        }
        self.release_scratch(prod);
        self.release_scratch(recip);
        Ok(())
    }

    /// Copies packed borrow words into the borrow scratch register —
    /// the fused subtract engine's hand-off to `sub_into_scratch`.
    pub(crate) fn set_borrow_scratch(&mut self, words: &[u64]) {
        self.borrow_scratch.copy_from_words(words);
    }

    // ---- scratch management ----------------------------------------------

    /// Moves the column-allocation cursor to `next_col` — the program
    /// replay engine's way of reserving a compiled layout's columns so
    /// internal scratch allocations (division) land exactly where they
    /// did while recording.
    /// Restores a statistics snapshot — the cost-model rollback behind
    /// resident (hoisted-broadcast) replay. Plane state is untouched.
    pub(crate) fn restore_stats(&mut self, snapshot: CycleStats) {
        *self.cam.stats_mut() = snapshot;
    }

    pub(crate) fn set_next_col(&mut self, next_col: usize) {
        debug_assert!(
            (2..=self.cam.cols()).contains(&next_col),
            "reserved cursor {next_col} outside 2..={}",
            self.cam.cols()
        );
        self.next_col = next_col;
    }

    pub(crate) fn alloc_scratch(&mut self, width: usize) -> Result<Field, ApError> {
        self.alloc_field(width)
    }

    /// Whether a scratch allocation of `width` columns would succeed at
    /// the current cursor — the blocked-region preflight's guarantee
    /// that an in-region division cannot fail on column capacity.
    pub(crate) fn scratch_fits(&self, width: usize) -> bool {
        width <= self.cam.cols() - self.next_col
    }

    pub(crate) fn release_scratch(&mut self, field: Field) {
        // Scratch fields are stack-allocated at the end of the column
        // space; release only when the field is the most recent
        // allocation (LIFO), which all internal callers respect.
        if field.end() == self.next_col {
            self.next_col = field.start();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(rows: usize, cols: usize) -> ApCore {
        ApCore::with_backend(ApConfig::new(rows, cols), ExecBackend::Microcode).unwrap()
    }

    #[test]
    fn xor_matches_paper_example() {
        let mut ap = core(4, 8);
        let a = ap.alloc_field(2).unwrap();
        let b = ap.alloc_field(2).unwrap();
        let r = ap.alloc_field(2).unwrap();
        ap.load(a, &[0b11, 0b00, 0b10, 0b11]).unwrap();
        ap.load(b, &[0b01, 0b01, 0b10, 0b10]).unwrap();
        ap.xor(a, b, r).unwrap();
        assert_eq!(ap.read(r), vec![0b10, 0b01, 0b00, 0b01]);
        // operands untouched
        assert_eq!(ap.read(a), vec![0b11, 0b00, 0b10, 0b11]);
        assert_eq!(ap.read(b), vec![0b01, 0b01, 0b10, 0b10]);
    }

    #[test]
    fn add_exhaustive_small() {
        let mut ap = core(256, 20);
        let a = ap.alloc_field(4).unwrap();
        let acc = ap.alloc_field(5).unwrap();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for x in 0..16u64 {
            for y in 0..16u64 {
                xs.push(x);
                ys.push(y);
            }
        }
        ap.load(a, &xs).unwrap();
        ap.load(acc, &ys).unwrap();
        ap.add_into(acc, a).unwrap();
        let out = ap.read(acc);
        for i in 0..256 {
            assert_eq!(out[i], xs[i] + ys[i], "{} + {}", xs[i], ys[i]);
        }
    }

    #[test]
    fn sub_reports_borrow_and_wraps() {
        let mut ap = core(4, 16);
        let a = ap.alloc_field(4).unwrap();
        let acc = ap.alloc_field(4).unwrap();
        ap.load(a, &[3, 10, 0, 15]).unwrap();
        ap.load(acc, &[10, 3, 0, 15]).unwrap();
        let borrow = ap.sub_into(acc, a).unwrap();
        assert_eq!(ap.read(acc), vec![7, (16 + 3 - 10), 0, 0]);
        assert_eq!(borrow.iter_set().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn sub_into_ref_matches_owned_borrow_set() {
        let mut ap = core(4, 16);
        let a = ap.alloc_field(4).unwrap();
        let acc = ap.alloc_field(4).unwrap();
        ap.load(a, &[3, 10, 0, 15]).unwrap();
        ap.load(acc, &[10, 3, 0, 15]).unwrap();
        let borrow = ap.sub_into_ref(acc, a).unwrap();
        assert_eq!(borrow.iter_set().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn saturating_sub_zeroes_underflow() {
        let mut ap = core(3, 16);
        let a = ap.alloc_field(4).unwrap();
        let acc = ap.alloc_field(4).unwrap();
        ap.load(a, &[5, 9, 2]).unwrap();
        ap.load(acc, &[7, 4, 2]).unwrap();
        ap.saturating_sub_into(acc, a).unwrap();
        assert_eq!(ap.read(acc), vec![2, 0, 0]);
    }

    #[test]
    fn mul_exhaustive_small() {
        let mut ap = core(256, 24);
        let a = ap.alloc_field(4).unwrap();
        let b = ap.alloc_field(4).unwrap();
        let r = ap.alloc_field(8).unwrap();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for x in 0..16u64 {
            for y in 0..16u64 {
                xs.push(x);
                ys.push(y);
            }
        }
        ap.load(a, &xs).unwrap();
        ap.load(b, &ys).unwrap();
        ap.mul(a, b, r).unwrap();
        let out = ap.read(r);
        for i in 0..256 {
            assert_eq!(out[i], xs[i] * ys[i], "{} * {}", xs[i], ys[i]);
        }
    }

    #[test]
    fn square_uses_same_field_for_both_operands() {
        let mut ap = core(16, 24);
        let a = ap.alloc_field(5).unwrap();
        let r = ap.alloc_field(10).unwrap();
        let xs: Vec<u64> = (0..16).map(|i| i * 2 % 32).collect();
        ap.load(a, &xs).unwrap();
        ap.square(a, r).unwrap();
        let out = ap.read(r);
        for i in 0..16 {
            assert_eq!(out[i], xs[i] * xs[i]);
        }
        assert_eq!(ap.read(a), xs, "squaring must not clobber its operand");
    }

    #[test]
    fn shr_const_shifts_all_rows() {
        let mut ap = core(4, 12);
        let f = ap.alloc_field(8).unwrap();
        ap.load(f, &[0b1011_0110, 0xFF, 1, 0]).unwrap();
        ap.shr_const(f, 3).unwrap();
        assert_eq!(ap.read(f), vec![0b0001_0110, 0x1F, 0, 0]);
        ap.shr_const(f, 8).unwrap();
        assert_eq!(ap.read(f), vec![0, 0, 0, 0]);
    }

    #[test]
    fn shr_variable_per_row_amounts() {
        let mut ap = core(5, 20);
        let f = ap.alloc_field(8).unwrap();
        let amt = ap.alloc_field(3).unwrap();
        let values = [0xF0u64, 0xF0, 0xF0, 0xF0, 0xFF];
        let amounts = [0u64, 1, 4, 7, 5];
        ap.load(f, &values).unwrap();
        ap.load(amt, &amounts).unwrap();
        ap.shr_variable(f, amt).unwrap();
        let out = ap.read(f);
        for i in 0..5 {
            assert_eq!(out[i], values[i] >> amounts[i], "row {i}");
        }
    }

    #[test]
    fn max_search_finds_value_and_rows() {
        let mut ap = core(6, 10);
        let f = ap.alloc_field(6).unwrap();
        ap.load(f, &[13, 42, 7, 42, 0, 41]).unwrap();
        let (max, rows) = ap.max_search(f);
        assert_eq!(max, 42);
        assert_eq!(rows.iter_set().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(ap.max_search_value(f), 42);
    }

    #[test]
    fn max_search_all_zero() {
        let mut ap = core(3, 8);
        let f = ap.alloc_field(4).unwrap();
        ap.load(f, &[0, 0, 0]).unwrap();
        let (max, rows) = ap.max_search(f);
        assert_eq!(max, 0);
        assert_eq!(rows.count(), 3);
    }

    #[test]
    fn min_search_value_matches_min_search() {
        let mut ap = core(6, 10);
        let f = ap.alloc_field(6).unwrap();
        ap.load(f, &[13, 42, 7, 42, 9, 41]).unwrap();
        let (min, rows) = ap.min_search(f);
        assert_eq!(min, 7);
        assert_eq!(rows.iter_set().collect::<Vec<_>>(), vec![2]);
        assert_eq!(ap.min_search_value(f), 7);
    }

    #[test]
    fn reduce_sum_segments() {
        let mut ap = core(8, 24);
        let f = ap.alloc_field(6).unwrap();
        let sum = ap.alloc_field(10).unwrap();
        ap.load(f, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let sums = ap.reduce_sum_2d(f, sum, 4).unwrap();
        assert_eq!(sums, vec![10, 26]);
        assert_eq!(ap.read_row(0, sum), 10);
        assert_eq!(ap.read_row(4, sum), 26);
    }

    #[test]
    fn reduce_sum_rejects_bad_segments() {
        let mut ap = core(8, 24);
        let f = ap.alloc_field(6).unwrap();
        let sum = ap.alloc_field(10).unwrap();
        assert!(ap.reduce_sum_2d(f, sum, 3).is_err());
        assert!(ap.reduce_sum_2d(f, sum, 0).is_err());
    }

    #[test]
    fn reduce_sum_detects_overflow() {
        let mut ap = core(4, 16);
        let f = ap.alloc_field(6).unwrap();
        let sum = ap.alloc_field(6).unwrap();
        ap.load(f, &[63, 63, 63, 63]).unwrap();
        assert!(matches!(
            ap.reduce_sum_2d(f, sum, 4),
            Err(ApError::WidthOverflow { .. })
        ));
    }

    #[test]
    fn wide_reductions_sum_without_wrapping_on_both_backends() {
        // u64::MAX + 3 = 2^64 + 2 does not fit a u64: the sum is exact
        // in u128, so each overflow mode sees the true value.
        for backend in [ExecBackend::Microcode, ExecBackend::FastWord] {
            for (mode, want) in [
                (
                    Overflow::Error,
                    Err(ApError::WidthOverflow {
                        value: u64::MAX,
                        width: 64,
                    }),
                ),
                (Overflow::Saturate, Ok(vec![u64::MAX])),
                (Overflow::Wrap, Ok(vec![2])),
            ] {
                let mut ap = ApCore::with_backend(ApConfig::new(2, 130), backend).unwrap();
                let f = ap.alloc_field(64).unwrap();
                let sum = ap.alloc_field(64).unwrap();
                ap.load(f, &[u64::MAX, 3]).unwrap();
                let got = ap.reduce_sum_2d_mode(f, sum, 2, mode);
                assert_eq!(got, want, "{backend:?} {mode:?}");
                if let Ok(sums) = got {
                    assert_eq!(ap.read_row(0, sum), sums[0], "{backend:?} {mode:?}");
                }
            }
        }
    }

    #[test]
    fn divide_restoring_matches_integer_division() {
        let mut ap = core(6, 64);
        let num = ap.alloc_field(8).unwrap();
        let den = ap.alloc_field(8).unwrap();
        let quot = ap.alloc_field(12).unwrap();
        let ns = [100u64, 255, 1, 0, 200, 17];
        let ds = [3u64, 255, 2, 7, 199, 17];
        ap.load(num, &ns).unwrap();
        ap.load(den, &ds).unwrap();
        ap.divide(num, den, quot, 4, DivStyle::Restoring).unwrap();
        let out = ap.read(quot);
        for i in 0..6 {
            assert_eq!(out[i], (ns[i] << 4) / ds[i], "{}/{}", ns[i], ds[i]);
        }
    }

    #[test]
    fn divide_by_zero_is_an_error() {
        let mut ap = core(2, 64);
        let num = ap.alloc_field(4).unwrap();
        let den = ap.alloc_field(4).unwrap();
        let quot = ap.alloc_field(8).unwrap();
        ap.load(num, &[1, 1]).unwrap();
        ap.load(den, &[1, 0]).unwrap();
        assert_eq!(
            ap.divide(num, den, quot, 0, DivStyle::Restoring),
            Err(ApError::DivisionByZero)
        );
    }

    #[test]
    fn divide_saturates_on_quotient_overflow() {
        let mut ap = core(2, 64);
        let num = ap.alloc_field(8).unwrap();
        let den = ap.alloc_field(4).unwrap();
        let quot = ap.alloc_field(4).unwrap();
        ap.load(num, &[200, 3]).unwrap();
        ap.load(den, &[2, 3]).unwrap();
        ap.divide(num, den, quot, 0, DivStyle::Restoring).unwrap();
        assert_eq!(ap.read(quot), vec![15, 1]);
    }

    #[test]
    fn divide_reciprocal_close_to_restoring() {
        let mut ap = core(4, 80);
        let num = ap.alloc_field(8).unwrap();
        let den = ap.alloc_field(8).unwrap();
        let quot = ap.alloc_field(13).unwrap();
        let ns = [100u64, 255, 17, 80];
        let ds = [200u64, 200, 200, 200];
        ap.load(num, &ns).unwrap();
        ap.load(den, &ds).unwrap();
        ap.divide(num, den, quot, 8, DivStyle::ControllerReciprocal)
            .unwrap();
        let out = ap.read(quot);
        for i in 0..4 {
            let exact = (ns[i] << 8) / ds[i];
            let got = out[i];
            assert!(
                got <= exact && exact - got <= 1,
                "row {i}: got {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn copy_clears_high_destination_bits() {
        let mut ap = core(2, 20);
        let src = ap.alloc_field(4).unwrap();
        let dst = ap.alloc_field(8).unwrap();
        ap.load(src, &[0b1010, 0b0101]).unwrap();
        ap.broadcast(dst, 0xFF).unwrap();
        ap.copy(src, dst).unwrap();
        assert_eq!(ap.read(dst), vec![0b1010, 0b0101]);
    }

    #[test]
    fn field_allocation_respects_capacity() {
        let mut ap = core(2, 8);
        assert!(ap.alloc_field(6).is_ok()); // 2 cols reserved internally
        assert!(matches!(
            ap.alloc_field(1),
            Err(ApError::ColumnCapacity { .. })
        ));
    }

    #[test]
    fn overlap_rejected() {
        let mut ap = core(2, 20);
        let a = ap.alloc_field(4).unwrap();
        let r = ap.alloc_field(8).unwrap();
        assert_eq!(ap.mul(a, a, a.sub(0, 4)), Err(ApError::FieldOverlap));
        assert_eq!(ap.xor(a, a, a), Err(ApError::FieldOverlap));
        assert_eq!(ap.copy(a, a), Err(ApError::FieldOverlap));
        assert!(ap.mul(a, a, r).is_ok());
    }

    #[test]
    fn bitwise_ops_match_integer_semantics() {
        let mut ap = core(16, 40);
        let a = ap.alloc_field(6).unwrap();
        let b = ap.alloc_field(6).unwrap();
        let r = ap.alloc_field(6).unwrap();
        let xs: Vec<u64> = (0..16).map(|i| (i * 7) % 64).collect();
        let ys: Vec<u64> = (0..16).map(|i| (i * 13 + 5) % 64).collect();
        ap.load(a, &xs).unwrap();
        ap.load(b, &ys).unwrap();
        ap.and(a, b, r).unwrap();
        assert_eq!(
            ap.read(r),
            xs.iter().zip(&ys).map(|(x, y)| x & y).collect::<Vec<_>>()
        );
        ap.or(a, b, r).unwrap();
        assert_eq!(
            ap.read(r),
            xs.iter().zip(&ys).map(|(x, y)| x | y).collect::<Vec<_>>()
        );
        ap.not(a, r).unwrap();
        assert_eq!(ap.read(r), xs.iter().map(|x| !x & 63).collect::<Vec<_>>());
    }

    #[test]
    fn dot_product_matches_integer_dot() {
        let mut ap = core(64, 64);
        let a = ap.alloc_field(6).unwrap();
        let b = ap.alloc_field(6).unwrap();
        let prod = ap.alloc_field(12).unwrap();
        let sum = ap.alloc_field(20).unwrap();
        let xs: Vec<u64> = (0..64).map(|i| i % 64).collect();
        let ys: Vec<u64> = (0..64).map(|i| (i * 3) % 64).collect();
        ap.load(a, &xs).unwrap();
        ap.load(b, &ys).unwrap();
        let d = ap.dot(a, b, prod, sum).unwrap();
        let expect: u64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
        assert_eq!(d, expect);
    }

    #[test]
    fn add_cycles_scale_with_width() {
        let mut ap = core(8, 40);
        let a = ap.alloc_field(8).unwrap();
        let acc = ap.alloc_field(9).unwrap();
        ap.load(a, &[1; 8]).unwrap();
        ap.load(acc, &[1; 8]).unwrap();
        ap.reset_stats();
        ap.add_into(acc, a).unwrap();
        let s = ap.stats();
        // 1 carry clear + 8 bits * 4 passes * 2 cycles + 1 ripple bit * 2
        // passes * 2 cycles = 1 + 64 + 4 = 69.
        assert_eq!(s.cycles(), 69);
    }

    #[test]
    fn reshape_resets_fields_stats_and_cells() {
        let mut ap = core(8, 24);
        let f = ap.alloc_field(6).unwrap();
        ap.load(f, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        assert!(ap.stats().cycles() > 0);
        assert!(ap.free_cols() < 22);
        ap.reshape(ApConfig::new(6, 20), ExecBackend::FastWord)
            .unwrap();
        assert_eq!((ap.rows(), ap.cols()), (6, 20));
        assert_eq!(ap.stats().cycles(), 0);
        assert_eq!(ap.free_cols(), 18);
        let g = ap.alloc_field(6).unwrap();
        assert_eq!(ap.read(g), vec![0; 6], "reshape must zero all cells");
        assert!(ap
            .reshape(ApConfig::new(4, 2), ExecBackend::Microcode)
            .is_err());
        // clear() is a same-shape reshape.
        ap.load(g, &[1, 2, 3, 4, 5, 6]).unwrap();
        ap.clear();
        let g2 = ap.alloc_field(6).unwrap();
        assert_eq!(g2, g, "clear releases field allocations");
        assert_eq!(ap.read(g2), vec![0; 6]);
    }
}
