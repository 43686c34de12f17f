//! Dual execution backends for the AP controller.
//!
//! Every [`ApCore`] word-level operation can execute two ways:
//!
//! * [`ExecBackend::Microcode`] — the ground-truth bit-serial engine:
//!   LUT compare/write passes over the CAM bit-planes, exactly as the
//!   hardware sequencer would issue them. Costs are charged inline, one
//!   [`crate::CycleStats::charge_compare`] /
//!   [`crate::CycleStats::charge_write`] per cycle.
//! * [`ExecBackend::FastWord`] — the production fast path: a *fused*
//!   word-parallel engine over the same column bit-planes. Instead of
//!   interpreting LUT passes (four compare/write pairs per bit for an
//!   add), it computes each operation's result and its exact cost in a
//!   single sweep — carry/borrow chains as word-parallel recurrences
//!   over 64-row blocks, and the data-dependent write-tag populations
//!   as closed-form popcounts (see [`fused_ripple`]). Costs are
//!   charged through the same cost model in bulk
//!   ([`crate::CycleStats::charge_compares_bulk`] /
//!   [`crate::CycleStats::charge_writes_bulk`]).
//!
//! # The cost-model contract
//!
//! For any sequence of operations on identical inputs the two backends
//! leave **bit-identical CAM state** (including the reserved
//! carry/flag columns) and **identical [`crate::CycleStats`]** — total
//! cycles, compare/write split, and per-cell event counts. The
//! differential proptests in `crates/ap/tests/backend_diff.rs` enforce
//! the contract op by op; `crates/bench/benches/backend_compare.rs`
//! measures the speedup it buys.
//!
//! One pure function, [`charge`], holds the FastWord price of every
//! row-parallel [`ApOp`]: the op's structural cycle shape plus the
//! data-dependent tallies its kernels count (ripple write events,
//! borrow and shift-gate populations, the restoring divider's
//! `[ev_sub, n_borrow, ev_add]` per iteration), in
//! `program::tally_slots` order. The op-by-op engines fill those
//! tallies and charge the op at once; the region-blocked strip
//! executor ([`ApCore::fw_run_region_strips`]) accumulates them across
//! strips and `program::charge_region` charges each op of the region
//! from them afterwards. Broadcasts, the saturating clamp among them,
//! are priced by [`crate::CamArray::broadcast_field`], which both
//! backends share; the gated public add and subtract, which are no
//! `ApOp`, are priced by the same ripple primitive `charge` uses.
//!
//! Because plane state is maintained exactly, controller-driven
//! microprograms (the reciprocal divider, max/min search, the Fig. 5
//! mapping) are written once and run on either backend.

use crate::cam::tail_mask;
use crate::program::{ApOp, BlockRegion, Operand};
use crate::{ApCore, ApError, CycleStats, DivStyle, Field};

/// Which engine executes [`ApCore`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// Bit-serial LUT microcode over CAM planes (ground truth, the
    /// oracle of the differential tests).
    Microcode,
    /// Fused word-parallel execution with analytic cost charging
    /// (bit- and cycle-exact vs. `Microcode`, roughly an order of
    /// magnitude faster on wide operations). The default.
    #[default]
    FastWord,
}

/// One bit-position step of the fused ripple engine, over one 64-row
/// block.
///
/// The in-place add/sub LUTs write, per bit, exactly the rows whose
/// `(carry, a, b)` state changes. With the carry-in chain `c`, the
/// written-cell count per bit collapses to two popcounts:
///
/// * every changing row satisfies `a ^ c = 1` (one cell written),
/// * rows that also write the carry column (`(0,1,1)` and `(1,0,0)`
///   for add; `(0,1,0)` and `(1,0,1)` for sub) are `a ^ c = 1` with
///   `a == b` (add) / `a != b` (sub) — one extra cell.
///
/// The same formula covers the carry/borrow-ripple LUTs above the
/// source width (where `a = 0`). Row predication is a plain AND mask
/// on `a`: ungated rows see `a = 0` with carry-in 0 and are provably
/// untouched, matching the gated microcode.
macro_rules! fused_step {
    ($SUB:ident, $av:expr, $bref:expr, $cref:expr, $ev:expr) => {{
        let av = $av;
        let bv = *$bref;
        let cv = *$cref;
        let t = av ^ bv;
        let t1 = av ^ cv;
        let extra = if $SUB { t1 & t } else { t1 & !t };
        $ev += u64::from(t1.count_ones()) + u64::from(extra.count_ones());
        *$bref = t ^ cv;
        *$cref = if $SUB {
            (av & !bv) | (cv & !t)
        } else {
            (av & bv) | (cv & t)
        };
    }};
}

/// Fused in-place ripple add (`SUB = false`) or subtract
/// (`SUB = true`) of a `sw`-bit source into an `aw`-bit accumulator,
/// word-parallel over `bl` 64-row blocks of column words laid out
/// bit-major (`buf[bit * bl + block]`).
///
/// `carry` must be zeroed by the caller (this models the microcode's
/// `clear_carry`); on return it holds the final carry/borrow column
/// state. Returns the write-cell events of the equivalent LUT pass
/// sequence.
fn fused_ripple<const SUB: bool>(
    a: &[u64],
    sw: usize,
    b: &mut [u64],
    aw: usize,
    bl: usize,
    gate: Option<&[u64]>,
    carry: &mut [u64],
) -> u64 {
    debug_assert!(a.len() >= sw * bl);
    debug_assert!(b.len() >= aw * bl);
    debug_assert_eq!(carry.len(), bl);
    let mut ev = 0u64;
    for i in 0..sw {
        let ar = &a[i * bl..(i + 1) * bl];
        let br = &mut b[i * bl..(i + 1) * bl];
        match gate {
            Some(g) => {
                for ((bref, cref), (&av, &gv)) in br
                    .iter_mut()
                    .zip(carry.iter_mut())
                    .zip(ar.iter().zip(g.iter()))
                {
                    fused_step!(SUB, av & gv, bref, cref, ev);
                }
            }
            None => {
                for ((bref, cref), &av) in br.iter_mut().zip(carry.iter_mut()).zip(ar.iter()) {
                    fused_step!(SUB, av, bref, cref, ev);
                }
            }
        }
    }
    // Carry/borrow ripple into accumulator bits above the source width.
    for i in sw..aw {
        let br = &mut b[i * bl..(i + 1) * bl];
        for (bref, cref) in br.iter_mut().zip(carry.iter_mut()) {
            fused_step!(SUB, 0u64, bref, cref, ev);
        }
    }
    ev
}

/// 64-row blocks the strip divider carries through all of its
/// iterations together: the lane loops compile to 256-bit vector code
/// and a group's remainder window and difference scratch stay in L1.
pub(crate) const LANES: usize = 4;

/// [`fused_ripple`] over one lane group of the strip divider, out of
/// place: `dst = src - den` (`SUB`, ungated: the trial subtract into
/// the difference scratch) or `dst = src + (den & gate)` (the restoring
/// add from the scratch back into the remainder window, gated by the
/// rows that borrowed; gated-off rows copy `src`). `den` is zero-padded
/// to the remainder width, which is the ripple into the bits above the
/// source width. Returns the write-cell events and the final
/// carry/borrow lanes.
fn lanes_ripple<const SUB: bool>(
    src: &[[u64; LANES]],
    dst: &mut [[u64; LANES]],
    den: &[[u64; LANES]],
    gate: &[u64; LANES],
) -> (u64, [u64; LANES]) {
    let mut ev = [0u64; LANES];
    let mut carry = [0u64; LANES];
    for ((s, d), a) in src.iter().zip(dst.iter_mut()).zip(den) {
        for l in 0..LANES {
            d[l] = s[l];
            fused_step!(SUB, a[l] & gate[l], &mut d[l], &mut carry[l], ev[l]);
        }
    }
    (ev.iter().sum(), carry)
}

/// One plane's words of a lane group (`src`, at most [`LANES`] words),
/// zero-padded.
fn lanes_of(src: &[u64]) -> [u64; LANES] {
    std::array::from_fn(|l| src.get(l).copied().unwrap_or(0))
}

/// Stores the first `dst.len()` lanes of `w`.
fn store_lanes(dst: &mut [u64], w: &[u64; LANES]) {
    match <&mut [u64; LANES]>::try_from(&mut *dst) {
        Ok(full) => *full = *w,
        Err(_) => dst.copy_from_slice(&w[..dst.len()]),
    }
}

/// Set bits over a run of plane words (a lane group's rows, a plane).
fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// The shift a variable shifter's amount bit `j` stands for, `2^j`,
/// saturating at `usize::MAX`: a bit at or above the word size weighs
/// more than any field is wide, so it clears the field.
pub(crate) fn shift_weight(j: usize) -> usize {
    u32::try_from(j)
        .ok()
        .and_then(|j| 1usize.checked_shl(j))
        .unwrap_or(usize::MAX)
}

/// `n` copy-LUT bit copies over every row: two single-column compare
/// passes per bit, whose writes together touch each row once.
fn copies(st: &mut CycleStats, rows: u64, n: u64) {
    st.charge_compares_bulk(2 * n, 2 * n * rows);
    st.charge_writes_bulk(2 * n, n * rows);
}

/// One in-place ripple add or subtract of a `sw`-bit source into an
/// `aw`-bit accumulator: `clear_carry`, 4 passes per source bit and 2
/// ripple passes per extra accumulator bit (a gate adds one matched
/// column to every compare), with `ev` the write cells
/// [`fused_ripple`] counted.
fn ripple(st: &mut CycleStats, rows: u64, sw: usize, aw: usize, gated: bool, ev: u64) {
    let g = u64::from(gated);
    let low = 4 * sw as u64;
    let ripple = 2 * (aw - sw) as u64;
    st.charge_compares_bulk(low + ripple, rows * ((3 + g) * low + (2 + g) * ripple));
    st.charge_writes_bulk(1 + low + ripple, rows + ev);
}

/// One restoring-division channel: the zero broadcasts of the
/// remainder scratch and the quotient, then per iteration (MSB first)
/// the remainder shift, the incoming dividend bit (a cleared bit below
/// the binary point), the trial subtract and its borrow read-back, the
/// borrow latch (ungated clear, tagged set), the restoring add when any
/// row borrowed, the no-borrow tag compare and the quotient bit — or,
/// above the quotient field, the saturating broadcast to the no-borrow
/// rows (free when there are none). `tally` holds `[ev_sub, n_borrow,
/// ev_add]` per iteration. `physical_shift` prices the standalone
/// divider's per-iteration shift copies; without it (the fused window
/// rename) one canonicalization copy of the remainder ends the channel.
#[allow(clippy::too_many_arguments)]
fn divide_channel(
    st: &mut CycleStats,
    rows: u64,
    num: Field,
    den: Field,
    quot: Field,
    frac_bits: usize,
    tally: &[u64],
    physical_shift: bool,
) {
    let (dw, qw) = (den.width(), quot.width() as u64);
    let rem_w = dw + 1;
    st.charge_writes_bulk(rem_w as u64 + qw, (rem_w as u64 + qw) * rows);
    for (t, k) in tally
        .chunks_exact(3)
        .zip((0..num.width() + frac_bits).rev())
    {
        let [ev_sub, n_borrow, ev_add] = [t[0], t[1], t[2]];
        if physical_shift {
            copies(st, rows, (rem_w - 1) as u64);
        }
        if k >= frac_bits {
            copies(st, rows, 1);
        } else {
            st.charge_writes_bulk(1, rows);
        }
        ripple(st, rows, dw, rem_w, false, ev_sub);
        st.charge_compares_bulk(1, rows);
        st.charge_writes_bulk(2, rows + n_borrow);
        if n_borrow > 0 {
            ripple(st, rows, dw, rem_w, true, ev_add);
        }
        st.charge_compares_bulk(1, rows);
        let n_nob = rows - n_borrow;
        if (k as u64) < qw {
            st.charge_writes_bulk(1, n_nob);
        } else if n_nob > 0 {
            st.charge_writes_bulk(qw, qw * n_nob);
        }
    }
    if !physical_shift {
        copies(st, rows, rem_w as u64);
    }
}

/// The FastWord price of one row-parallel op over `rows` rows: its
/// structural cycle shape plus the data-dependent `tally` its kernels
/// counted, `program::tally_slots(op)` slots in that function's order.
/// The only place such a price is written: the op-by-op engines charge
/// it per op, `program::charge_region` per op of a blocked region, and
/// both equal Microcode's LUT-pass charges exactly.
///
/// A broadcast costs one write cycle per bit over every row (the
/// region walk's arm: op by op, [`crate::CamArray::broadcast_field`]
/// prices it).
///
/// # Panics
///
/// Panics on an op that is not row-parallel (loads, reads, searches,
/// reductions, register ops, reciprocal division) and on `Step` marks,
/// which cost nothing and report instead.
pub(crate) fn charge(op: &ApOp, rows: u64, tally: &[u64]) -> CycleStats {
    let mut st = CycleStats::default();
    match *op {
        ApOp::Broadcast { field, .. } => {
            let w = field.width() as u64;
            st.charge_writes_bulk(w, w * rows);
        }
        ApOp::Copy { src, dst } => {
            // The destination bits above the source clear by an
            // ungated broadcast.
            let hi = (dst.width() - src.width()) as u64;
            copies(&mut st, rows, src.width() as u64);
            st.charge_writes_bulk(hi, hi * rows);
        }
        ApOp::Mul { a, r, .. } | ApOp::MulConst { a, r, .. } => {
            // Clear the result, then one ripple of `a` into `a + 1`
            // result bits per multiplier bit — gated on the multiplier
            // column, or for a constant ungated and only for set bits.
            let (rw, gated) = (r.width() as u64, matches!(op, ApOp::Mul { .. }));
            st.charge_writes_bulk(rw, rw * rows);
            for &ev in tally {
                ripple(&mut st, rows, a.width(), a.width() + 1, gated, ev);
            }
        }
        ApOp::AddInto { acc, src } => {
            ripple(&mut st, rows, src.width(), acc.width(), false, tally[0])
        }
        ApOp::SubAssertClean { acc, src } | ApOp::SaturatingSubInto { acc, src } => {
            ripple(&mut st, rows, src.width(), acc.width(), false, tally[0]);
            // The borrow column's read-back.
            st.charge_compares_bulk(1, rows);
            // The saturating clamp: a broadcast of zero to the
            // borrowing rows, free when none borrowed.
            if matches!(op, ApOp::SaturatingSubInto { .. }) && tally[1] > 0 {
                let aw = acc.width() as u64;
                st.charge_writes_bulk(aw, aw * tally[1]);
            }
        }
        ApOp::ShrConst { field, k } => {
            // Surviving bits move by bit copies; the vacated high bits
            // (the whole field when `k` reaches its width) clear by an
            // ungated broadcast.
            let (w, k) = (field.width() as u64, k as u64);
            if k >= w {
                st.charge_writes_bulk(w, w * rows);
            } else if k > 0 {
                copies(&mut st, rows, w - k);
                st.charge_writes_bulk(k, k * rows);
            }
        }
        ApOp::ShrVariable { field, amount } => {
            let w = field.width();
            for (j, &n_j) in tally[..amount.width()].iter().enumerate() {
                let s = shift_weight(j);
                if s >= w {
                    // One tag compare, then the whole field clears for
                    // the gated rows — free when no row is gated (the
                    // controller branches on the tag it just read).
                    st.charge_compares_bulk(1, rows);
                    if n_j > 0 {
                        st.charge_writes_bulk(w as u64, w as u64 * n_j);
                    }
                    continue;
                }
                // Gated copy of each surviving bit (match = source bit
                // + gate), then one tag compare and a gated clear of
                // the vacated high bits (free when the tag is empty).
                let (moved, s) = ((w - s) as u64, s as u64);
                st.charge_compares_bulk(2 * moved + 1, (4 * moved + 1) * rows);
                st.charge_writes_bulk(2 * moved, moved * n_j);
                if n_j > 0 {
                    st.charge_writes_bulk(s, s * n_j);
                }
            }
        }
        ApOp::Divide {
            num,
            den,
            quot,
            frac_bits,
            style: DivStyle::Restoring,
        } => divide_channel(&mut st, rows, num, den, quot, frac_bits, tally, true),
        ApOp::FusedDivide {
            den,
            frac_bits,
            ref channels,
            n_channels,
        } => {
            let mut rest = tally;
            for &(num, quot) in &channels[..usize::from(n_channels)] {
                let (t, r) = rest.split_at(3 * (num.width() + frac_bits));
                divide_channel(&mut st, rows, num, den, quot, frac_bits, t, false);
                rest = r;
            }
        }
        _ => unreachable!("{op:?} is not a priced row-parallel op"),
    }
    st
}

impl ApCore {
    /// 64-row block count.
    fn fw_blocks(&self) -> usize {
        self.rows().div_ceil(64)
    }

    /// Copies a field's bit-planes into a bit-major block buffer
    /// (`buf[bit * blocks + block]`). Because the CAM arena is flat and
    /// column-major with the same stride, this is a single memcpy of
    /// one contiguous arena range.
    fn fw_gather(&self, field: Field, buf: &mut Vec<u64>) {
        buf.clear();
        buf.extend_from_slice(self.cam().field_words(field));
    }

    /// Writes a bit-major block buffer back into a field's bit-planes
    /// (the inverse memcpy of [`ApCore::fw_gather`]).
    fn fw_scatter(&mut self, field: Field, buf: &[u64]) {
        self.cam_mut().field_words_mut(field).copy_from_slice(buf);
    }

    /// Fills `buf` with the gate column's block words at the requested
    /// polarity; returns whether the op is gated. (Tail bits beyond the
    /// row count may be set after complementing; they are harmless
    /// because every operand plane keeps its tail zero.)
    fn fw_gate_into(&self, gate: Option<(usize, bool)>, buf: &mut Vec<u64>) -> bool {
        match gate {
            Some((col, polarity)) => {
                buf.clear();
                buf.extend_from_slice(self.cam().plane_words(col));
                if !polarity {
                    for w in buf.iter_mut() {
                        *w = !*w;
                    }
                }
                true
            }
            None => false,
        }
    }

    /// Adds the [`charge`] of `op`, whose op-by-op engine counted
    /// `tally`, to the core's statistics.
    fn fw_charge(&mut self, op: &ApOp, tally: &[u64]) {
        let price = charge(op, self.rows() as u64, tally);
        self.cam_mut().stats_mut().accumulate(&price);
    }

    /// Fused in-place ripple add (`SUB = false`) or subtract of `src`
    /// into `acc`, gated or not, priced by the same ripple primitive as
    /// [`charge`]. A subtract also reads its borrow column back (one
    /// compare) and leaves the borrow set in `self.borrow_scratch` (the
    /// shared convention of `ApCore::sub_into_scratch`).
    pub(crate) fn fw_add_sub<const SUB: bool>(
        &mut self,
        acc: Field,
        src: Field,
        gate: Option<(usize, bool)>,
    ) -> Result<(), ApError> {
        let bl = self.fw_blocks();
        let rows = self.rows() as u64;
        let (sw, aw) = (src.width(), acc.width());
        let cc = self.carry_col();
        let mut gbuf = std::mem::take(&mut self.gate_buf);
        let gated = self.fw_gate_into(gate, &mut gbuf);
        let mut va = std::mem::take(&mut self.vals_a);
        let mut vb = std::mem::take(&mut self.vals_b);
        let mut carry = std::mem::take(&mut self.vals_c);
        self.fw_gather(src, &mut va);
        self.fw_gather(acc, &mut vb);
        carry.clear();
        carry.resize(bl, 0);
        let gw = gated.then_some(&gbuf[..]);
        let ev = fused_ripple::<SUB>(&va, sw, &mut vb, aw, bl, gw, &mut carry);
        self.fw_scatter(acc, &vb);
        self.cam_mut().plane_words_mut(cc).copy_from_slice(&carry);
        let st = self.cam_mut().stats_mut();
        ripple(st, rows, sw, aw, gated, ev);
        if SUB {
            st.charge_compares_bulk(1, rows);
            self.set_borrow_scratch(&carry);
        }
        self.vals_a = va;
        self.vals_b = vb;
        self.vals_c = carry;
        self.gate_buf = gbuf;
        Ok(())
    }

    pub(crate) fn fw_copy(&mut self, src: Field, dst: Field) -> Result<(), ApError> {
        let sw = src.width();
        let mut va = std::mem::take(&mut self.vals_a);
        self.fw_gather(src, &mut va);
        self.fw_scatter(dst.sub(0, sw), &va);
        self.vals_a = va;
        let hi = dst.sub(sw, dst.width() - sw);
        self.cam_mut().field_words_mut(hi).fill(0);
        self.fw_charge(&ApOp::Copy { src, dst }, &[]);
        Ok(())
    }

    /// Shared fast engine for XOR/AND/OR: `r` is pre-cleared, common
    /// bits run `passes` two-column compare passes each (their writes
    /// touch `events_mask` cells: each set result bit is written by
    /// exactly one pass), and single-operand upper bits run the copy
    /// LUT when the operation is identity-on-zero (`ext_copies`).
    fn fw_bitwise2(
        &mut self,
        a: Field,
        b: Field,
        r: Field,
        f: fn(u64, u64) -> u64,
        passes: u64,
        ext_copies: bool,
    ) -> Result<(), ApError> {
        let bl = self.fw_blocks();
        let rows = self.rows() as u64;
        let (awd, bw) = (a.width(), b.width());
        let w = awd.max(bw);
        let cm = awd.min(bw);
        self.broadcast_all(r, 0)?;
        let mut va = std::mem::take(&mut self.vals_a);
        let mut vb = std::mem::take(&mut self.vals_b);
        let mut vr = std::mem::take(&mut self.vals_r);
        self.fw_gather(a, &mut va);
        self.fw_gather(b, &mut vb);
        vr.clear();
        vr.resize(w * bl, 0);
        let mut ev = 0u64;
        for i in 0..cm {
            for blk in 0..bl {
                let x = f(va[i * bl + blk], vb[i * bl + blk]);
                ev += u64::from(x.count_ones());
                vr[i * bl + blk] = x;
            }
        }
        if ext_copies {
            let longer = if awd > bw { &va } else { &vb };
            vr[cm * bl..w * bl].copy_from_slice(&longer[cm * bl..w * bl]);
        }
        self.fw_scatter(r.sub(0, w), &vr);
        let ub = if ext_copies { (w - cm) as u64 } else { 0 };
        let st = self.cam_mut().stats_mut();
        st.charge_compares_bulk(
            passes * cm as u64 + 2 * ub,
            (2 * passes * cm as u64 + 2 * ub) * rows,
        );
        st.charge_writes_bulk(passes * cm as u64 + 2 * ub, ev + ub * rows);
        self.vals_a = va;
        self.vals_b = vb;
        self.vals_r = vr;
        Ok(())
    }

    pub(crate) fn fw_xor(&mut self, a: Field, b: Field, r: Field) -> Result<(), ApError> {
        self.fw_bitwise2(a, b, r, |x, y| x ^ y, 2, true)
    }

    pub(crate) fn fw_and(&mut self, a: Field, b: Field, r: Field) -> Result<(), ApError> {
        self.fw_bitwise2(a, b, r, |x, y| x & y, 1, false)
    }

    pub(crate) fn fw_or(&mut self, a: Field, b: Field, r: Field) -> Result<(), ApError> {
        self.fw_bitwise2(a, b, r, |x, y| x | y, 3, true)
    }

    pub(crate) fn fw_not(&mut self, a: Field, r: Field) -> Result<(), ApError> {
        let bl = self.fw_blocks();
        let rows = self.rows();
        let aw = a.width();
        let mut va = std::mem::take(&mut self.vals_a);
        self.fw_gather(a, &mut va);
        for i in 0..aw {
            for blk in 0..bl {
                va[i * bl + blk] = !va[i * bl + blk] & tail_mask(rows, blk, bl);
            }
        }
        self.fw_scatter(r.sub(0, aw), &va);
        self.vals_a = va;
        // Two single-column compare passes per bit; every row written
        // once per bit (R=0 for ones, R=1 for zeros).
        let st = self.cam_mut().stats_mut();
        st.charge_compares_bulk(2 * aw as u64, 2 * (aw * rows) as u64);
        st.charge_writes_bulk(2 * aw as u64, (aw * rows) as u64);
        Ok(())
    }

    pub(crate) fn fw_mul(&mut self, a: Field, b: Field, r: Field) -> Result<(), ApError> {
        let bl = self.fw_blocks();
        let (awd, bw, rw) = (a.width(), b.width(), r.width());
        let cc = self.carry_col();
        let mut va = std::mem::take(&mut self.vals_a);
        let mut vg = std::mem::take(&mut self.vals_b);
        let mut vr = std::mem::take(&mut self.vals_r);
        let mut carry = std::mem::take(&mut self.vals_c);
        let mut tally = std::mem::take(&mut self.tally_buf);
        self.fw_gather(a, &mut va);
        self.fw_gather(b, &mut vg);
        vr.clear();
        vr.resize(rw * bl, 0);
        carry.clear();
        carry.resize(bl, 0);
        tally.clear();
        for j in 0..bw {
            // Partial sums never carry past a.width() + 1 bits, and the
            // result field guarantees rw - j >= awd + 1 for every j.
            let acc_w = (awd + 1).min(rw - j);
            debug_assert_eq!(acc_w, awd + 1);
            carry.fill(0);
            let gate = &vg[j * bl..(j + 1) * bl];
            // A multiplier bit set in no row (common for broadcast
            // constants) matches no LUT pass: the cycles are still
            // issued but nothing is written, so the sweep is skipped.
            let ev = if gate.iter().all(|&g| g == 0) {
                0
            } else {
                fused_ripple::<false>(
                    &va,
                    awd,
                    &mut vr[j * bl..(j + acc_w) * bl],
                    acc_w,
                    bl,
                    Some(gate),
                    &mut carry,
                )
            };
            tally.push(ev);
        }
        self.fw_scatter(r, &vr);
        // The carry column holds the final gated add's carry state.
        self.cam_mut().plane_words_mut(cc).copy_from_slice(&carry);
        self.fw_charge(&ApOp::Mul { a, b, r }, &tally);
        self.vals_a = va;
        self.vals_b = vg;
        self.vals_r = vr;
        self.vals_c = carry;
        self.tally_buf = tally;
        Ok(())
    }

    /// Fused-schedule constant multiplier behind `ApOp::MulConst`.
    /// Plane-exact — the final carry column included — versus
    /// broadcasting `bits` and running [`ApCore::mul`], on both
    /// backends: this word-parallel engine is the single
    /// implementation, charged as the schedule the optimizing
    /// controller actually issues. Set multiplier bits run one ungated
    /// ripple each (the controller needs no gate column for a bit it
    /// knows is one); zero bits issue nothing at all — the elision the
    /// gated multiply cannot perform, because it must still spend the
    /// compare cycles to discover an empty gate.
    pub(crate) fn fw_mul_const(
        &mut self,
        a: Field,
        r: Field,
        bits: u64,
        width: usize,
    ) -> Result<(), ApError> {
        let bl = self.fw_blocks();
        let (awd, rw) = (a.width(), r.width());
        let cc = self.carry_col();
        let mut va = std::mem::take(&mut self.vals_a);
        let mut vr = std::mem::take(&mut self.vals_r);
        let mut carry = std::mem::take(&mut self.vals_c);
        let mut tally = std::mem::take(&mut self.tally_buf);
        self.fw_gather(a, &mut va);
        vr.clear();
        vr.resize(rw * bl, 0);
        carry.clear();
        carry.resize(bl, 0);
        tally.clear();
        for j in 0..width {
            let acc_w = (awd + 1).min(rw - j);
            debug_assert_eq!(acc_w, awd + 1);
            // A cleared carry matches the gated multiply for unset bits
            // too: its per-bit clear_carry runs before the (skipped)
            // sweep, so after an unset top bit the carry column is zero
            // in both schedules.
            carry.fill(0);
            if bits >> j & 1 == 1 {
                // Ungated is plane-exact vs. the all-rows gate: operand
                // planes keep their tail bits zero, so padding rows add
                // 0 + 0 and stay untouched.
                tally.push(fused_ripple::<false>(
                    &va,
                    awd,
                    &mut vr[j * bl..(j + acc_w) * bl],
                    acc_w,
                    bl,
                    None,
                    &mut carry,
                ));
            }
        }
        self.fw_scatter(r, &vr);
        self.cam_mut().plane_words_mut(cc).copy_from_slice(&carry);
        self.fw_charge(&ApOp::MulConst { a, r, bits, width }, &tally);
        self.vals_a = va;
        self.vals_r = vr;
        self.vals_c = carry;
        self.tally_buf = tally;
        Ok(())
    }

    pub(crate) fn fw_shr_const(&mut self, field: Field, k: usize) -> Result<(), ApError> {
        let bl = self.fw_blocks();
        let w = field.width();
        debug_assert!(k > 0 && k < w);
        let mut va = std::mem::take(&mut self.vals_a);
        self.fw_gather(field, &mut va);
        va.copy_within(k * bl..w * bl, 0);
        va[(w - k) * bl..w * bl].fill(0);
        self.fw_scatter(field, &va);
        self.vals_a = va;
        self.fw_charge(&ApOp::ShrConst { field, k }, &[]);
        Ok(())
    }

    pub(crate) fn fw_shr_variable(&mut self, field: Field, amount: Field) -> Result<(), ApError> {
        let bl = self.fw_blocks();
        let w = field.width();
        let mut va = std::mem::take(&mut self.vals_a);
        let mut vamt = std::mem::take(&mut self.vals_b);
        let mut tally = std::mem::take(&mut self.tally_buf);
        self.fw_gather(field, &mut va);
        self.fw_gather(amount, &mut vamt);
        tally.clear();
        for j in 0..amount.width() {
            // Rows with amount bit `j` set shift by its weight; a weight
            // reaching the width clears the whole field for them.
            let s = shift_weight(j).min(w);
            let g = &vamt[j * bl..(j + 1) * bl];
            tally.push(popcount(g));
            for i in 0..w - s {
                for blk in 0..bl {
                    let idx = i * bl + blk;
                    va[idx] = (va[(i + s) * bl + blk] & g[blk]) | (va[idx] & !g[blk]);
                }
            }
            for i in w - s..w {
                for blk in 0..bl {
                    va[i * bl + blk] &= !g[blk];
                }
            }
        }
        self.fw_scatter(field, &va);
        self.fw_charge(&ApOp::ShrVariable { field, amount }, &tally);
        self.vals_a = va;
        self.vals_b = vamt;
        self.tally_buf = tally;
        Ok(())
    }

    /// Splits the strip image into a disjoint (source, accumulator)
    /// pair of plane ranges — the in-place analogue of the op-by-op
    /// engine's gather-into-`vals` staging copies, which the blocked
    /// path exists to eliminate. Ranges are word offsets into the
    /// image; region validation guarantees the fields never overlap.
    fn strip_split(
        sbuf: &mut [u64],
        src: std::ops::Range<usize>,
        acc: std::ops::Range<usize>,
    ) -> (&[u64], &mut [u64]) {
        if src.end <= acc.start {
            let (lo, hi) = sbuf.split_at_mut(acc.start);
            (&lo[src], &mut hi[..acc.end - acc.start])
        } else {
            debug_assert!(acc.end <= src.start);
            let (lo, hi) = sbuf.split_at_mut(src.start);
            (&hi[..src.end - src.start], &mut lo[acc])
        }
    }

    /// Region-blocked strip-mined executor: runs one row-parallel
    /// region of a compiled program over the arena in strips of
    /// `region.strip_blocks` 64-row blocks. Per strip, the region's
    /// first-read planes are gathered into the pooled strip image
    /// **once**, every op of the region runs on the cache-resident
    /// strip (plane-exact kernels mirroring the op-by-op `fw_*`
    /// engines, the carry column included), and the written planes
    /// scatter back **once** — eliminating the per-op arena re-sweeps.
    ///
    /// When the planner picks a single full-width strip (the whole
    /// tile fits the strip budget), even those two copies are skipped:
    /// the arena is detached and the region's kernels run on it in
    /// place, since the strip image at `sb == bl` would be a
    /// column-for-column copy of the arena anyway.
    ///
    /// Charges **nothing**: data-dependent tallies (ripple write
    /// events, borrow populations, shift-gate populations) accumulate
    /// in `self.tally_buf` across strips, in `program::tally_slots`
    /// order, and the caller (`program::charge_region`) charges each
    /// op of the region its [`charge`] from them — the price the
    /// op-by-op engines charge, so `CycleStats` stay bit-identical to
    /// the unblocked path.
    ///
    /// Within a strip, planes are packed at stride `sb` (the strip's
    /// block count): column `c` lives at `strip_buf[c * sb..(c+1) * sb]`.
    /// Every plane the ops touch is either gathered or written before
    /// it is read (guaranteed by the region's footprint analysis), so
    /// stale strip-buffer contents are never observed.
    pub(crate) fn fw_run_region_strips(
        &mut self,
        ops: &[ApOp],
        region: &BlockRegion,
        regs: &[u64],
    ) -> Result<(), ApError> {
        let bl = self.fw_blocks();
        let sblocks = region.strip_blocks.clamp(1, bl);
        let mut tally = std::mem::take(&mut self.tally_buf);
        let mut vb = std::mem::take(&mut self.vals_b);
        let mut vc = std::mem::take(&mut self.vals_c);
        let mut lanes = std::mem::take(&mut self.div_lanes);
        tally.clear();
        tally.resize(region.tally_len, 0);
        let result = if sblocks == bl {
            // Single full-width strip: the strip image would be a
            // column-for-column copy of the arena (same stride, same
            // plane layout), so skip the image entirely — detach the
            // arena and run the region's kernels on it in place.
            // Gather and scatter vanish, and an in-region division's
            // remainder scratch writes straight into the detached
            // planes (`rem_direct`).
            let mut arena = self.cam_mut().take_arena();
            let r = self.fw_region_ops(
                ops, region, regs, &mut arena, bl, 0, &mut tally, &mut vb, &mut vc, &mut lanes,
                true,
            );
            self.cam_mut().restore_arena(arena);
            r
        } else {
            let cols = self.cols();
            let mut sbuf = std::mem::take(&mut self.strip_buf);
            if sbuf.len() < cols * sblocks {
                sbuf.resize(cols * sblocks, 0);
            }
            let mut r = Ok(());
            let mut s0 = 0usize;
            while s0 < bl {
                let sb = sblocks.min(bl - s0);
                for iv in &region.gather {
                    for col in iv.start()..iv.end() {
                        let src = &self.cam().plane_words(col)[s0..s0 + sb];
                        sbuf[col * sb..(col + 1) * sb].copy_from_slice(src);
                    }
                }
                if let Err(e) = self.fw_region_ops(
                    ops, region, regs, &mut sbuf, sb, s0, &mut tally, &mut vb, &mut vc, &mut lanes,
                    false,
                ) {
                    r = Err(e);
                    break;
                }
                for iv in &region.scatter {
                    for col in iv.start()..iv.end() {
                        let src = &sbuf[col * sb..(col + 1) * sb];
                        self.cam_mut().plane_words_mut(col)[s0..s0 + sb].copy_from_slice(src);
                    }
                }
                s0 += sb;
            }
            self.strip_buf = sbuf;
            r
        };
        self.tally_buf = tally;
        self.vals_b = vb;
        self.vals_c = vc;
        self.div_lanes = lanes;
        result
    }

    /// Runs every op of one region over a single strip of the tile
    /// (`sbuf` planes at stride `sb`, covering arena blocks
    /// `s0..s0 + sb`), accumulating the region's data-dependent
    /// tallies. `rem_direct` marks the arena-direct mode, where `sbuf`
    /// *is* the detached full-width arena: a division's remainder
    /// scratch is then written into `sbuf` itself rather than through
    /// the (temporarily empty) CAM.
    #[allow(clippy::too_many_arguments)]
    fn fw_region_ops(
        &mut self,
        ops: &[ApOp],
        region: &BlockRegion,
        regs: &[u64],
        sbuf: &mut [u64],
        sb: usize,
        s0: usize,
        tally: &mut [u64],
        vb: &mut Vec<u64>,
        vc: &mut Vec<u64>,
        lanes: &mut Vec<[u64; LANES]>,
        rem_direct: bool,
    ) -> Result<(), ApError> {
        let bl = self.fw_blocks();
        let rows = self.rows();
        let cc = self.carry_col();
        vc.clear();
        vc.resize(sb, 0);
        let mut cursor = 0usize;
        for op in ops {
            match *op {
                ApOp::Broadcast { field, value } => {
                    let v = match value {
                        Operand::Const(c) => c,
                        Operand::Reg(r) => regs[r.index()],
                    };
                    for i in 0..field.width() {
                        let col = field.col(i);
                        let plane = &mut sbuf[col * sb..(col + 1) * sb];
                        if v >> i & 1 == 1 {
                            for (blk, w) in plane.iter_mut().enumerate() {
                                *w = tail_mask(rows, s0 + blk, bl);
                            }
                        } else {
                            plane.fill(0);
                        }
                    }
                }
                ApOp::Copy { src, dst } => {
                    let sw = src.width();
                    sbuf.copy_within(src.start() * sb..src.end() * sb, dst.start() * sb);
                    sbuf[(dst.start() + sw) * sb..dst.end() * sb].fill(0);
                }
                ApOp::Mul { a, b, r } => {
                    let (awd, bw) = (a.width(), b.width());
                    sbuf[r.start() * sb..r.end() * sb].fill(0);
                    for j in 0..bw {
                        vc.fill(0);
                        // Stage only the gate plane (one strip word
                        // run); operands stay in the image.
                        let gc = b.col(j);
                        vb.clear();
                        vb.extend_from_slice(&sbuf[gc * sb..(gc + 1) * sb]);
                        if vb.iter().all(|&g| g == 0) {
                            continue;
                        }
                        let (vsrc, vacc) = Self::strip_split(
                            sbuf,
                            a.start() * sb..a.end() * sb,
                            (r.start() + j) * sb..(r.start() + j + awd + 1) * sb,
                        );
                        let ev = fused_ripple::<false>(
                            vsrc,
                            awd,
                            vacc,
                            awd + 1,
                            sb,
                            Some(vb.as_slice()),
                            vc.as_mut_slice(),
                        );
                        tally[cursor + j] += ev;
                    }
                    cursor += bw;
                    sbuf[cc * sb..(cc + 1) * sb].copy_from_slice(vc.as_slice());
                }
                ApOp::MulConst { a, r, bits, width } => {
                    let awd = a.width();
                    sbuf[r.start() * sb..r.end() * sb].fill(0);
                    let mut set = 0usize;
                    for j in 0..width {
                        vc.fill(0);
                        if bits >> j & 1 == 1 {
                            let (vsrc, vacc) = Self::strip_split(
                                sbuf,
                                a.start() * sb..a.end() * sb,
                                (r.start() + j) * sb..(r.start() + j + awd + 1) * sb,
                            );
                            let ev = fused_ripple::<false>(
                                vsrc,
                                awd,
                                vacc,
                                awd + 1,
                                sb,
                                None,
                                vc.as_mut_slice(),
                            );
                            tally[cursor + set] += ev;
                            set += 1;
                        }
                    }
                    cursor += set;
                    sbuf[cc * sb..(cc + 1) * sb].copy_from_slice(vc.as_slice());
                }
                ApOp::AddInto { acc, src } => {
                    let (sw, aw) = (src.width(), acc.width());
                    vc.fill(0);
                    let (vsrc, vacc) = Self::strip_split(
                        sbuf,
                        src.start() * sb..src.end() * sb,
                        acc.start() * sb..acc.end() * sb,
                    );
                    let ev = fused_ripple::<false>(vsrc, sw, vacc, aw, sb, None, vc.as_mut_slice());
                    tally[cursor] += ev;
                    cursor += 1;
                    sbuf[cc * sb..(cc + 1) * sb].copy_from_slice(vc.as_slice());
                }
                ApOp::SubAssertClean { acc, src } => {
                    let (sw, aw) = (src.width(), acc.width());
                    vc.fill(0);
                    let (vsrc, vacc) = Self::strip_split(
                        sbuf,
                        src.start() * sb..src.end() * sb,
                        acc.start() * sb..acc.end() * sb,
                    );
                    let ev = fused_ripple::<true>(vsrc, sw, vacc, aw, sb, None, vc.as_mut_slice());
                    debug_assert!(
                        vc.iter().all(|&w| w == 0),
                        "recorded subtraction must not underflow"
                    );
                    tally[cursor] += ev;
                    cursor += 1;
                    sbuf[cc * sb..(cc + 1) * sb].copy_from_slice(vc.as_slice());
                }
                ApOp::SaturatingSubInto { acc, src } => {
                    let (sw, aw) = (src.width(), acc.width());
                    vc.fill(0);
                    let (vsrc, vacc) = Self::strip_split(
                        sbuf,
                        src.start() * sb..src.end() * sb,
                        acc.start() * sb..acc.end() * sb,
                    );
                    let ev = fused_ripple::<true>(vsrc, sw, vacc, aw, sb, None, vc.as_mut_slice());
                    let n_borrow: u64 = vc.iter().map(|w| u64::from(w.count_ones())).sum();
                    tally[cursor] += ev;
                    tally[cursor + 1] += n_borrow;
                    cursor += 2;
                    // Clamp the underflowed rows back to zero (the
                    // gated clear broadcast of the op-by-op path).
                    for i in 0..aw {
                        let col = acc.col(i);
                        for (blk, w) in sbuf[col * sb..(col + 1) * sb].iter_mut().enumerate() {
                            *w &= !vc[blk];
                        }
                    }
                    sbuf[cc * sb..(cc + 1) * sb].copy_from_slice(vc.as_slice());
                }
                ApOp::ShrConst { field, k } => {
                    let w = field.width();
                    if k == 0 {
                        // Free no-op, as on the direct path.
                    } else if k >= w {
                        sbuf[field.start() * sb..field.end() * sb].fill(0);
                    } else {
                        sbuf.copy_within(
                            (field.start() + k) * sb..field.end() * sb,
                            field.start() * sb,
                        );
                        sbuf[(field.start() + w - k) * sb..field.end() * sb].fill(0);
                    }
                }
                ApOp::ShrVariable { field, amount } => {
                    let w = field.width();
                    let fs = field.start();
                    for j in 0..amount.width() {
                        let s = shift_weight(j);
                        let gc = amount.col(j);
                        vb.clear();
                        vb.extend_from_slice(&sbuf[gc * sb..(gc + 1) * sb]);
                        let n_j: u64 = vb.iter().map(|w| u64::from(w.count_ones())).sum();
                        tally[cursor + j] += n_j;
                        if s >= w {
                            if n_j > 0 {
                                for i in 0..w {
                                    for blk in 0..sb {
                                        sbuf[(fs + i) * sb + blk] &= !vb[blk];
                                    }
                                }
                            }
                            continue;
                        }
                        for i in 0..w - s {
                            for blk in 0..sb {
                                let hi = sbuf[(fs + i + s) * sb + blk] & vb[blk];
                                let idx = (fs + i) * sb + blk;
                                sbuf[idx] = hi | (sbuf[idx] & !vb[blk]);
                            }
                        }
                        for i in w - s..w {
                            for blk in 0..sb {
                                sbuf[(fs + i) * sb + blk] &= !vb[blk];
                            }
                        }
                    }
                    cursor += amount.width();
                }
                ApOp::Divide {
                    num,
                    den,
                    quot,
                    frac_bits,
                    ..
                } => {
                    // Region admission guarantees Restoring style,
                    // a non-zero divisor in every row, and scratch
                    // capacity — the alloc cannot fail here, but an
                    // error still unwinds through the pooled-buffer
                    // restore below.
                    let rem = match self.alloc_scratch(den.width() + 1) {
                        Ok(rem) => rem,
                        Err(e) => {
                            return Err(e);
                        }
                    };
                    let slots = 3 * (num.width() + frac_bits);
                    self.fw_strip_divide_channel(
                        sbuf,
                        &mut tally[cursor..cursor + slots],
                        sb,
                        s0,
                        rem,
                        num,
                        den,
                        quot,
                        frac_bits,
                        lanes,
                        rem_direct,
                    );
                    self.release_scratch(rem);
                    cursor += slots;
                }
                ApOp::FusedDivide {
                    den,
                    frac_bits,
                    channels,
                    n_channels,
                } => {
                    let rem = match self.alloc_scratch(den.width() + 1) {
                        Ok(rem) => rem,
                        Err(e) => {
                            return Err(e);
                        }
                    };
                    for &(num, quot) in &channels[..n_channels as usize] {
                        let slots = 3 * (num.width() + frac_bits);
                        self.fw_strip_divide_channel(
                            sbuf,
                            &mut tally[cursor..cursor + slots],
                            sb,
                            s0,
                            rem,
                            num,
                            den,
                            quot,
                            frac_bits,
                            lanes,
                            rem_direct,
                        );
                        cursor += slots;
                    }
                    self.release_scratch(rem);
                }
                ApOp::Step { .. } => {}
                _ => unreachable!("non-blockable op inside a region"),
            }
        }
        debug_assert_eq!(
            cursor, region.tally_len,
            "strip executor and tally layout out of sync"
        );
        Ok(())
    }

    /// One restoring-division channel of the strip executor: the plane
    /// math of [`ApCore::fw_divide`], charging nothing (the
    /// per-iteration `ev_sub` / `n_borrow` / `ev_add` tallies land in
    /// `tally[3*it..]`, which [`charge`] prices after the region).
    ///
    /// The strip is walked [`LANES`] 64-row blocks at a time, and each
    /// group runs all `nw + frac_bits` iterations before the next group
    /// starts. The group's remainder lives in the pooled `lanes` buffer
    /// as a window over the planes `[0; frac_bits] ++ num ++ [0; rem_w]`:
    /// iteration `k` works on planes `k..k + rem_w`, so `rem <<= 1` and
    /// the incoming dividend bit are the window moving down one plane.
    /// Each iteration's trial subtract is an out-of-place
    /// [`lanes_ripple`] sweep from the window into a difference scratch
    /// (the same pooled buffer), so the window still holds the
    /// pre-subtraction remainder. When the borrow lanes cover every
    /// valid row of the group, the iteration ends there: the window is
    /// already the restored remainder and the tally takes
    /// `ev_add = ev_sub`. Otherwise the restoring add, gated by the rows
    /// that borrowed, sweeps from the scratch back into the window.
    ///
    /// Exactness: both sweeps are [`fused_ripple`]'s algebra per 64-row
    /// block (the gated add's events are the op-by-op divider's
    /// change-mask count, see [`ApCore::fw_divide`]), and no
    /// block's result depends on another's, so the groups' tallies sum
    /// to the full-width values. A partial last group is padded with
    /// zero lanes, which never borrow, write no cell and are never
    /// stored back; rows past the row count are masked out of the
    /// quotient by the tail mask of the arena's final block (global
    /// index `s0 + g0 + l`). A group without a borrow adds zero
    /// `ev_add`, so [`charge`]'s restore decision on the summed
    /// `n_borrow` is the op-by-op one. The skipped restore's
    /// `ev_add = ev_sub` is exact:
    /// - on a row that borrowed, the add's carry into each bit equals
    ///   the subtract's borrow into it, both being `pre ^ post ^ den`
    ///   at that bit;
    /// - so the add writes exactly the cells the subtract wrote (the
    ///   accumulator cell `a ^ c` and the carry-column extra) and
    ///   returns the row to `pre`;
    /// - a gated-off row writes nothing;
    /// - padding lanes and rows past the row count hold a zero
    ///   numerator and divisor, so they never borrow and write nothing.
    ///   "Valid" is therefore the tail mask at the global block index
    ///   for real lanes and zero for padding lanes.
    ///
    /// Only the remainder's live planes are swept. Each iteration
    /// bounds the remainder's height `r`: it starts at zero, becomes 1
    /// when the incoming window plane has a bit set, then grows by at
    /// most one plane per iteration (`rem <<= 1`), and the restoring
    /// invariant `rem < den` caps what an iteration leaves at the
    /// height `den_h` of the OR of the group's divisor planes. Both
    /// sweeps run over planes `0..h` with `h = max(r, floor)`, where
    /// from plane `floor` up every divisor plane is either clear or set
    /// in every valid row (`floor` is 0 for a broadcast divisor). On
    /// planes `h..rem_w` the remainder is zero and the divisor bit is
    /// the same in every valid row, so each row's cell events there
    /// follow from its borrow `c` into plane `h` alone. Per plane,
    /// [`fused_ripple`]'s subtract with remainder bit 0 writes:
    /// - on a clear divisor plane, one cell (`a ^ c = c`) and passes
    ///   the borrow on;
    /// - on a set divisor plane, two cells when `c = 0` (`a ^ c` and
    ///   the carry-column extra) and none when `c = 1`, and borrows
    ///   either way.
    ///
    /// So a `c = 1` row writes one cell per clear divisor plane in
    /// `h..rem_w` and borrows out; a `c = 0` row writes nothing up to
    /// the first set plane `f`, two cells there and one per clear plane
    /// above it, and borrows out, or writes nothing and does not borrow
    /// when no plane in `h..rem_w` is set. A per-group table in the
    /// pooled buffer, built from the top plane down to `floor`, holds
    /// both counts for a row entering plane `p` as `tab[p] = [zeros,
    /// head, ..]`: `zeros`, the clear divisor planes in `p..rem_w`, and
    /// `head`, the `c = 0` row's `2 + zeros[f + 1]` (0 when no plane in
    /// `p..rem_w` is set). With
    /// `pc` borrowing rows at `h` among `pv` valid rows, the trial
    /// subtract writes its sweep's events plus
    /// `pc · zeros + (pv - pc) · head`.
    /// - With a set plane at or above `h` every valid row borrows, so
    ///   the restore is skipped as above.
    /// - Without one, the borrow is `c` and the difference above `h` is
    ///   all ones in the borrowing rows and zero elsewhere. The gated
    ///   restoring add then carries 1 into plane `h` in exactly the
    ///   borrowing rows (the subtract's borrow into it) and writes one
    ///   cell per plane above it there, returning the remainder's zero
    ///   bits, so its events are its sweep's plus `pc · (rem_w - h)`.
    ///
    /// The window planes above `h` are zero before and after the
    /// iteration and are never written. At `h = rem_w`, `tab[h]` is zero
    /// and this is the full sweep.
    ///
    /// The quotient and the carry/flag latches land in the strip image
    /// (they are in the region's scatter list); the remainder scratch
    /// is allocated at run time, so it writes through to the arena — or
    /// into `sbuf` itself in the arena-direct mode (`rem_direct`, where
    /// `sbuf` *is* the detached arena).
    #[allow(clippy::too_many_arguments)]
    fn fw_strip_divide_channel(
        &mut self,
        sbuf: &mut [u64],
        tally: &mut [u64],
        sb: usize,
        s0: usize,
        rem: Field,
        num: Field,
        den: Field,
        quot: Field,
        frac_bits: usize,
        lanes: &mut Vec<[u64; LANES]>,
        rem_direct: bool,
    ) {
        let (bl, rows) = (self.fw_blocks(), self.rows());
        let (nw, dw, qw) = (num.width(), den.width(), quot.width());
        let (rem_w, bits) = (dw + 1, nw + frac_bits);
        let (cc, fc) = (self.carry_col(), self.flag_col());
        lanes.clear();
        lanes.resize(bits + 4 * rem_w + 1, [0; LANES]);
        // `vd` carries a zero plane at `dw`: the borrow ripple into the
        // remainder's top bit is the `a = 0` step of the same sweep.
        let (win, rest) = lanes.split_at_mut(bits + rem_w);
        let (vd, rest) = rest.split_at_mut(rem_w);
        let (diff, tab) = rest.split_at_mut(rem_w);
        for g0 in (0..sb).step_by(LANES) {
            let n = LANES.min(sb - g0);
            let at = |c: usize| c * sb + g0..c * sb + g0 + n;
            win[..frac_bits].fill([0; LANES]);
            win[bits..].fill([0; LANES]);
            for (i, w) in win[frac_bits..bits].iter_mut().enumerate() {
                *w = lanes_of(&sbuf[at(num.col(i))]);
            }
            for (i, w) in vd[..dw].iter_mut().enumerate() {
                *w = lanes_of(&sbuf[at(den.col(i))]);
            }
            let valid: [u64; LANES] = std::array::from_fn(|l| {
                if l < n {
                    tail_mask(rows, s0 + g0 + l, bl)
                } else {
                    0
                }
            });
            let pv = popcount(&valid);
            let den_h = vd
                .iter()
                .rposition(|p| *p != [0; LANES])
                .map_or(0, |p| p + 1);
            let mut floor = rem_w;
            tab[rem_w] = [0; LANES];
            while floor > 0 && (vd[floor - 1] == [0; LANES] || vd[floor - 1] == valid) {
                floor -= 1;
                let mut e = tab[floor + 1];
                if vd[floor] == [0; LANES] {
                    e[0] += 1;
                } else {
                    e[1] = 2 + e[0];
                }
                tab[floor] = e;
            }
            let mut sat = [0u64; LANES];
            let mut bor = [0u64; LANES];
            let mut live = 0usize;
            for (t, k) in tally.chunks_exact_mut(3).zip((0..bits).rev()) {
                let r = if live == 0 {
                    usize::from(win[k] != [0; LANES])
                } else {
                    (live + 1).min(rem_w)
                };
                live = r.min(den_h);
                let h = r.max(floor);
                let rem = &mut win[k..k + h];
                let (sweep, c) =
                    lanes_ripple::<true>(rem, &mut diff[..h], &vd[..h], &[u64::MAX; LANES]);
                let pc = popcount(&c);
                let [zeros, head, ..] = tab[h];
                let ev_sub = sweep + pc * zeros + (pv - pc) * head;
                bor = if head > 0 { valid } else { c };
                t[0] += ev_sub;
                t[1] += popcount(&bor);
                t[2] += if (0..LANES).all(|l| valid[l] & !bor[l] == 0) {
                    ev_sub
                } else {
                    lanes_ripple::<false>(&diff[..h], rem, &vd[..h], &bor).0 + pc * zeros
                };
                // Quotient bit of the no-borrow rows; iterations above
                // the quotient field saturate every bit of those rows,
                // and all of them precede the first in-field bit.
                if k < qw {
                    for (l, q) in sbuf[at(quot.col(k))].iter_mut().enumerate() {
                        *q = (sat[l] | !bor[l]) & valid[l];
                    }
                } else {
                    for l in 0..LANES {
                        sat[l] |= !bor[l];
                    }
                }
            }
            for i in bits..qw {
                sbuf[at(quot.col(i))].fill(0);
            }
            for (i, w) in win[..rem_w].iter().enumerate() {
                let c = rem.col(i);
                if rem_direct {
                    store_lanes(&mut sbuf[at(c)], w);
                } else {
                    store_lanes(
                        &mut self.cam_mut().plane_words_mut(c)[s0 + g0..s0 + g0 + n],
                        w,
                    );
                }
            }
            store_lanes(&mut sbuf[at(cc)], &bor);
            store_lanes(&mut sbuf[at(fc)], &bor);
        }
    }

    /// The op-by-op restoring divider behind `ApOp::Divide` (restoring
    /// style) and `ApOp::FusedDivide`: one plane schedule for both, and
    /// [`charge`] prices the op's own schedule. The standalone divider
    /// shifts its remainder physically every iteration; the fused one
    /// renames the remainder window instead — the controller re-labels
    /// which columns form the window — and copies the remainder back to
    /// its home columns once per channel. Channels run back to back over
    /// one divisor gather and one remainder scratch, plane-exact versus
    /// as many standalone divisions (remainder scratch, quotients and
    /// the final carry/flag columns included).
    ///
    /// Per iteration the trial subtract is one [`fused_ripple`] sweep.
    /// The restore needs no second carry ripple: for a restored row the
    /// add returns the remainder to its pre-subtraction value, so the
    /// add's carry-in chain is `den ^ post ^ pre` and its written cells
    /// collapse to the change mask `ch = pre ^ post` (accumulator
    /// writes) plus `ch & !(den ^ post)` (carry-column writes) — a blend
    /// and two popcounts per bit instead of a ripple sweep.
    pub(crate) fn fw_divide(&mut self, op: &ApOp) -> Result<(), ApError> {
        let (den, frac_bits, pairs, n) = match *op {
            ApOp::Divide {
                num,
                den,
                quot,
                frac_bits,
                ..
            } => (den, frac_bits, [(num, quot); 2], 1),
            ApOp::FusedDivide {
                den,
                frac_bits,
                channels,
                n_channels,
            } => (den, frac_bits, channels, usize::from(n_channels)),
            _ => unreachable!("{op:?} is not a restoring division"),
        };
        let bl = self.fw_blocks();
        let rows = self.rows();
        let dw = den.width();
        let rem_w = dw + 1;
        let (cc, fc) = (self.carry_col(), self.flag_col());
        let rem = self.alloc_scratch(rem_w)?;
        // The price clears the remainder and each quotient by a
        // broadcast, whose error a quotient past the array is.
        if let Err(e) = pairs[..n]
            .iter()
            .try_for_each(|&(_, quot)| self.cam().check_field(quot))
        {
            self.release_scratch(rem);
            return Err(e);
        }
        let mut vd = std::mem::take(&mut self.vals_a);
        let mut vrem = std::mem::take(&mut self.vals_b);
        let mut vq = std::mem::take(&mut self.vals_r);
        let mut borrowed = std::mem::take(&mut self.vals_c);
        let mut vpre = std::mem::take(&mut self.vals_p);
        let mut tally = std::mem::take(&mut self.tally_buf);
        self.fw_gather(den, &mut vd);
        vpre.clear();
        vpre.resize(rem_w * bl, 0);
        tally.clear();
        for &(num, quot) in &pairs[..n] {
            let qw = quot.width();
            vrem.clear();
            vrem.resize(rem_w * bl, 0);
            vq.clear();
            vq.resize(qw * bl, 0);
            borrowed.clear();
            borrowed.resize(bl, 0);
            for k in (0..num.width() + frac_bits).rev() {
                // rem <<= 1, then the dividend bit — or a cleared rem[0]
                // below the binary point.
                vrem.copy_within(0..(rem_w - 1) * bl, bl);
                if k >= frac_bits {
                    vrem[..bl].copy_from_slice(self.cam().plane_words(num.col(k - frac_bits)));
                } else {
                    vrem[..bl].fill(0);
                }
                // Try rem -= den, then restore the rows that borrowed.
                borrowed.fill(0);
                vpre.copy_from_slice(&vrem);
                let ev_sub =
                    fused_ripple::<true>(&vd, dw, &mut vrem, rem_w, bl, None, &mut borrowed);
                let n_borrow = popcount(&borrowed);
                let mut ev_add = 0u64;
                if n_borrow > 0 {
                    for i in 0..rem_w {
                        let a_bits = if i < dw {
                            &vd[i * bl..(i + 1) * bl]
                        } else {
                            &[][..]
                        };
                        let rr = &mut vrem[i * bl..(i + 1) * bl];
                        for (blk, (rref, (&pv, &bor))) in rr
                            .iter_mut()
                            .zip(vpre[i * bl..(i + 1) * bl].iter().zip(borrowed.iter()))
                            .enumerate()
                        {
                            let post = *rref;
                            let av = a_bits.get(blk).copied().unwrap_or(0);
                            let ch = (pv ^ post) & bor;
                            ev_add += u64::from(ch.count_ones())
                                + u64::from((ch & !(av ^ post)).count_ones());
                            *rref = (pv & bor) | (post & !bor);
                        }
                    }
                }
                tally.extend_from_slice(&[ev_sub, n_borrow, ev_add]);
                // Quotient bit for rows that did not borrow; above the
                // quotient field those rows saturate to all-ones.
                let bits = if k < qw { k..k + 1 } else { 0..qw };
                for i in bits {
                    for blk in 0..bl {
                        vq[i * bl + blk] |= !borrowed[blk] & tail_mask(rows, blk, bl);
                    }
                }
            }
            self.fw_scatter(rem, &vrem);
            self.fw_scatter(quot, &vq);
            // After the final iteration both the borrow latch and the
            // carry column hold that iteration's borrow (the restoring
            // add's carry-out is 1 for every restored row).
            self.cam_mut()
                .plane_words_mut(fc)
                .copy_from_slice(&borrowed);
            self.cam_mut()
                .plane_words_mut(cc)
                .copy_from_slice(&borrowed);
        }
        self.fw_charge(op, &tally);
        self.vals_a = vd;
        self.vals_b = vrem;
        self.vals_r = vq;
        self.vals_c = borrowed;
        self.vals_p = vpre;
        self.tally_buf = tally;
        self.release_scratch(rem);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ApConfig, ExecBackend};

    /// A result field past the array's last column is a
    /// `ColumnCapacity` error on both backends, for the out-of-place
    /// copy, `mul`, the constant multiply and both dividers — none of
    /// which clears the field through a broadcast on the FastWord side —
    /// and both backends are left alike: same planes, statistics and
    /// free columns.
    #[test]
    fn out_of_range_result_fields_fail_alike_on_both_backends() {
        let want = Err(ApError::ColumnCapacity {
            needed: 44,
            available: 40,
        });
        let after = [ExecBackend::Microcode, ExecBackend::FastWord].map(|backend| {
            let mut ap = ApCore::with_backend(ApConfig::new(70, 40), backend).unwrap();
            let a = ap.alloc_field(4).unwrap();
            let d = ap.alloc_field(4).unwrap();
            let q = ap.alloc_field(6).unwrap();
            ap.load(a, &[9; 70]).unwrap();
            ap.load(d, &[3; 70]).unwrap();
            let bad = Field::new(36, 8);
            assert_eq!(ap.copy(a, bad), want, "copy on {backend:?}");
            assert_eq!(ap.mul(a, d, bad), want, "mul on {backend:?}");
            assert_eq!(ap.mul_const(a, bad, 5, 4), want, "mul_const on {backend:?}");
            let restoring = ap.divide(a, d, bad, 2, DivStyle::Restoring);
            assert_eq!(restoring, want, "divide on {backend:?}");
            let fused = ApOp::FusedDivide {
                den: d,
                frac_bits: 2,
                channels: [(a, q), (a, bad)],
                n_channels: 2,
            };
            assert_eq!(ap.fused_divide(&fused), want, "fused divide on {backend:?}");
            let planes: Vec<Vec<u64>> = (0..40).map(|c| ap.cam().plane(c).to_vec()).collect();
            (ap.stats(), ap.free_cols(), planes)
        });
        assert_eq!(after[0], after[1]);
    }

    /// Packs 64 row values into bit-major plane words (one block).
    fn pack(values: &[u64; 64], width: usize) -> Vec<u64> {
        let mut out = vec![0u64; width];
        for (r, &v) in values.iter().enumerate() {
            for (i, w) in out.iter_mut().enumerate() {
                *w |= (v >> i & 1) << r;
            }
        }
        out
    }

    fn unpack(planes: &[u64], width: usize) -> [u64; 64] {
        let mut out = [0u64; 64];
        for (r, v) in out.iter_mut().enumerate() {
            for (i, &p) in planes.iter().enumerate().take(width) {
                *v |= (p >> r & 1) << i;
            }
        }
        out
    }

    /// Bit-serial reference of the in-place add/sub LUT pass sequence
    /// for one row, counting written cells.
    fn reference(sub: bool, a: u64, b: u64, sw: usize, aw: usize) -> (u64, u64, bool) {
        let mut b = b;
        let mut c = false;
        let mut ev = 0u64;
        for i in 0..aw {
            let ab = i < sw && a >> i & 1 == 1;
            let bb = b >> i & 1 == 1;
            let (diff, c2) = if sub {
                let d = i8::from(bb) - i8::from(ab) - i8::from(c);
                (d.rem_euclid(2) == 1, d < 0)
            } else {
                let s = u8::from(bb) + u8::from(ab) + u8::from(c);
                (s & 1 == 1, s >= 2)
            };
            if diff != bb {
                ev += 1;
            }
            if c2 != c {
                ev += 1;
            }
            if diff != bb || c2 != c {
                // exactly the changing rows are written by some pass
            }
            if diff {
                b |= 1 << i;
            } else {
                b &= !(1 << i);
            }
            c = c2;
        }
        (b & ((1u64 << aw) - 1), ev, c)
    }

    #[test]
    fn fused_matches_lut_reference_exhaustively() {
        // All (a, b) pairs over 5-bit source / 6-bit accumulator, in
        // batches of 64 rows per block.
        for sub in [false, true] {
            let mut cases = Vec::new();
            for a in 0..32u64 {
                for b in 0..64u64 {
                    cases.push((a, b));
                }
            }
            for chunk in cases.chunks(64) {
                let mut av = [0u64; 64];
                let mut bv = [0u64; 64];
                for (r, &(a, b)) in chunk.iter().enumerate() {
                    av[r] = a;
                    bv[r] = b;
                }
                let pa = pack(&av, 5);
                let mut pb = pack(&bv, 6);
                let mut carry = vec![0u64; 1];
                let ev = if sub {
                    fused_ripple::<true>(&pa, 5, &mut pb, 6, 1, None, &mut carry)
                } else {
                    fused_ripple::<false>(&pa, 5, &mut pb, 6, 1, None, &mut carry)
                };
                let got = unpack(&pb, 6);
                let mut want_ev = 0u64;
                for (r, &(a, b)) in chunk.iter().enumerate() {
                    let (want_b, e, want_c) = reference(sub, a, b, 5, 6);
                    assert_eq!(got[r], want_b, "sub={sub} a={a} b={b}");
                    assert_eq!(carry[0] >> r & 1 == 1, want_c, "sub={sub} a={a} b={b}");
                    want_ev += e;
                }
                assert_eq!(ev, want_ev, "sub={sub} events");
            }
        }
    }

    #[test]
    fn fused_gate_masks_rows_exactly() {
        let mut av = [0u64; 64];
        let mut bv = [0u64; 64];
        for r in 0..64 {
            av[r] = (r as u64 * 7) % 32;
            bv[r] = (r as u64 * 13 + 3) % 64;
        }
        let gate = 0xAAAA_5555_F0F0_0F0Fu64;
        let pa = pack(&av, 5);
        let mut pb = pack(&bv, 6);
        let mut carry = vec![0u64; 1];
        let ev = fused_ripple::<false>(&pa, 5, &mut pb, 6, 1, Some(&[gate]), &mut carry);
        let got = unpack(&pb, 6);
        let mut want_ev = 0;
        for r in 0..64 {
            if gate >> r & 1 == 1 {
                let (want_b, e, want_c) = reference(false, av[r], bv[r], 5, 6);
                assert_eq!(got[r], want_b, "gated row {r}");
                assert_eq!(carry[0] >> r & 1 == 1, want_c);
                want_ev += e;
            } else {
                assert_eq!(got[r], bv[r], "ungated row {r} must not change");
                assert_eq!(carry[0] >> r & 1, 0);
            }
        }
        assert_eq!(ev, want_ev);
    }
}
