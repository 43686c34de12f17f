use crate::{ApError, CycleStats, Field, RowSet};

/// In-place 64×64 bit-matrix transpose (Hacker's Delight 7-3, widened):
/// afterwards, bit `j` of `a[i]` is what bit `i` of `a[j]` was.
///
/// This is the bit-plane ↔ row-word converter behind the word-parallel
/// host I/O paths: 64 rows move per inner operation instead of one
/// cell. The six butterfly rounds (`j` = 32, 16, …, 1) each swap the
/// off-diagonal `j × j` sub-blocks of every `2j`-row block; writing a
/// round as a walk over contiguous half-blocks lets the compiler
/// vectorize it.
pub(crate) fn transpose64(a: &mut [u64; 64]) {
    butterfly(a, 32, 0x0000_0000_FFFF_FFFF);
    butterfly(a, 16, 0x0000_FFFF_0000_FFFF);
    butterfly(a, 8, 0x00FF_00FF_00FF_00FF);
    butterfly(a, 4, 0x0F0F_0F0F_0F0F_0F0F);
    butterfly(a, 2, 0x3333_3333_3333_3333);
    butterfly(a, 1, 0x5555_5555_5555_5555);
}

/// One transpose round: in each `2j`-row block, row `k` of the upper
/// half trades its high `j`-bit groups (selected by `m << j`) with the
/// low groups (`m`) of row `k + j` in the lower half.
#[inline(always)]
fn butterfly(a: &mut [u64; 64], j: usize, m: u64) {
    for block in a.chunks_exact_mut(2 * j) {
        let (lo, hi) = block.split_at_mut(j);
        for (x, y) in lo.iter_mut().zip(hi) {
            let t = (*x >> j ^ *y) & m;
            *x ^= t << j;
            *y ^= t;
        }
    }
}

/// The valid-rows mask for one 64-row block: all ones except the tail
/// bits beyond `rows` in the final block (the arena-wide invariant).
pub(crate) fn tail_mask(rows: usize, blk: usize, blocks: usize) -> u64 {
    if blk + 1 == blocks && !rows.is_multiple_of(64) {
        (1u64 << (rows % 64)) - 1
    } else {
        u64::MAX
    }
}

/// The content-addressable memory at the heart of the AP.
///
/// Data is stored column-major in one contiguous `u64` arena: each
/// column's bit-plane occupies `blocks = ceil(rows / 64)` consecutive
/// words at a fixed stride, so column `c`'s plane is
/// `arena[c * blocks .. (c + 1) * blocks]` and a [`Field`]'s planes are
/// one contiguous arena range. Flat allocation keeps column-hopping
/// sweeps (LUT passes, the `FastWord` gather/scatter) in cache and lets
/// a tile be cleared for reuse with a single `fill(0)` instead of a
/// reallocation. Tail bits beyond `rows` in each plane's last word are
/// kept zero arena-wide (the same invariant as [`RowSet`]).
///
/// The two primitive cycles of the machine are:
///
/// * [`CamArray::compare`] — present a key on a set of masked columns;
///   every row matching on *all* masked columns is tagged (this is the
///   key/mask/tag search of Fig. 3),
/// * [`CamArray::write`] — drive key bits into the masked columns of the
///   tagged rows.
///
/// Every cycle is charged to an internal [`CycleStats`]. Host-side bulk
/// I/O ([`CamArray::load_field`] / [`CamArray::read_field`]) models the
/// paper's "Write x" dataflow steps: one write cycle per bit column.
/// Degenerate host I/O that moves no data — an empty load, a broadcast
/// to an empty tag — charges **zero** cycles: the controller never
/// issues cycles for work it can statically see is empty.
///
/// # Examples
///
/// ```
/// use softmap_ap::{CamArray, Field};
///
/// let mut cam = CamArray::new(8, 4).unwrap();
/// let f = Field::new(0, 4);
/// cam.load_field(f, &[3, 7, 3, 0]).unwrap();
/// // search for the value 3 on all four columns
/// let tag = cam.compare(&[(0, true), (1, true), (2, false), (3, false)]);
/// assert_eq!(tag.iter_set().collect::<Vec<_>>(), vec![0, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct CamArray {
    rows: usize,
    cols: usize,
    /// Words per column plane (`rows.div_ceil(64)`), the arena stride.
    blocks: usize,
    /// Column-major plane storage: `cols * blocks` words.
    arena: Vec<u64>,
    stats: CycleStats,
}

impl CamArray {
    /// Creates a zeroed CAM of `rows × cols` cells.
    ///
    /// # Errors
    ///
    /// Returns [`ApError::BadConfig`] if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Result<Self, ApError> {
        if rows == 0 || cols == 0 {
            return Err(ApError::BadConfig("CAM dimensions must be non-zero"));
        }
        let blocks = rows.div_ceil(64);
        Ok(Self {
            rows,
            cols,
            blocks,
            arena: vec![0; cols * blocks],
            stats: CycleStats::default(),
        })
    }

    /// Re-shapes this CAM to `rows × cols`, zeroing all cells and the
    /// cycle statistics. The arena buffer's capacity is kept, so
    /// reusing a tile at the same (or any previously seen) geometry
    /// performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`ApError::BadConfig`] if either dimension is zero.
    pub(crate) fn reshape(&mut self, rows: usize, cols: usize) -> Result<(), ApError> {
        if rows == 0 || cols == 0 {
            return Err(ApError::BadConfig("CAM dimensions must be non-zero"));
        }
        self.rows = rows;
        self.cols = cols;
        self.blocks = rows.div_ceil(64);
        self.arena.clear();
        self.arena.resize(cols * self.blocks, 0);
        self.stats = CycleStats::default();
        Ok(())
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Accumulated cycle statistics.
    #[must_use]
    pub fn stats(&self) -> CycleStats {
        self.stats
    }

    /// Resets the cycle statistics to zero.
    pub fn reset_stats(&mut self) {
        self.stats = CycleStats::default();
    }

    fn check_col(&self, col: usize) -> usize {
        assert!(col < self.cols, "column {col} out of range {}", self.cols);
        col
    }

    /// One compare cycle: tags every row whose cells equal the key bit on
    /// each masked `(column, key)` pair.
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of range.
    #[must_use]
    pub fn compare(&mut self, masked: &[(usize, bool)]) -> RowSet {
        let mut tag = RowSet::new(self.rows);
        self.compare_into(masked, &mut tag);
        tag
    }

    /// Allocation-free [`CamArray::compare`]: writes the tag into `out`
    /// (which must range over this array's rows).
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of range or `out` has the wrong
    /// length.
    pub fn compare_into(&mut self, masked: &[(usize, bool)], out: &mut RowSet) {
        assert_eq!(out.len(), self.rows, "tag length mismatch");
        out.fill(true);
        for &(col, key) in masked {
            self.check_col(col);
            out.and_with_plane(&self.arena[col * self.blocks..(col + 1) * self.blocks], key);
        }
        self.stats
            .charge_compare(self.rows as u64, masked.len() as u64);
    }

    /// One write cycle: drives each `(column, key)` bit into all rows of
    /// `tag`.
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of range.
    pub fn write(&mut self, tag: &RowSet, masked: &[(usize, bool)]) {
        let tagged = tag.count() as u64;
        for &(col, key) in masked {
            self.check_col(col);
            let plane = &mut self.arena[col * self.blocks..(col + 1) * self.blocks];
            for (p, t) in plane.iter_mut().zip(tag.words()) {
                if key {
                    *p |= t;
                } else {
                    *p &= !t;
                }
            }
        }
        self.stats.charge_write(tagged, masked.len() as u64);
    }

    /// Reads one column plane's packed row-words (64 rows per word)
    /// without charging cycles (observer access for the simulator
    /// itself and for state-equality assertions in tests).
    #[must_use]
    pub fn plane(&self, col: usize) -> &[u64] {
        self.check_col(col);
        &self.arena[col * self.blocks..(col + 1) * self.blocks]
    }

    /// Host-side bulk load of one word per row into `field`: charged as
    /// one write cycle per bit column (the paper's "Write x" steps cost
    /// `width` cycles). An empty `words` slice moves no data and
    /// charges zero cycles.
    ///
    /// The width check is one OR over all words (every word fits the
    /// field exactly when their OR does); only when it fails is the
    /// first offending word sought, for the error. Each 64-row
    /// block of words then becomes `width` plane words through a 64×64
    /// bit transpose, shared among blocks: every block takes a lane of
    /// 8, 16, 32 or 64 bits (the smallest that holds the field), its
    /// row words shifted into the lane, so one transpose serves
    /// `64 / lane` blocks and block `k`'s planes come out at rows
    /// `k · lane ..` of the buffer.
    ///
    /// # Errors
    ///
    /// * [`ApError::RowCapacity`] if more words than rows are supplied.
    /// * [`ApError::ColumnCapacity`] if the field exceeds the array.
    /// * [`ApError::WidthOverflow`] for the first word that does not fit
    ///   the field.
    pub fn load_field(&mut self, field: Field, words: &[u64]) -> Result<(), ApError> {
        self.check_field(field)?;
        if words.len() > self.rows {
            return Err(ApError::RowCapacity {
                needed: words.len(),
                available: self.rows,
            });
        }
        let max = field.max_value();
        if words.iter().fold(0, |acc, &w| acc | w) > max {
            let &value = words.iter().find(|&&w| w > max).expect("a word overflows");
            return Err(ApError::WidthOverflow {
                value,
                width: field.width(),
            });
        }
        if words.is_empty() {
            // Nothing to drive: the controller issues no cycles.
            return Ok(());
        }
        // Word-parallel store: transpose each group of 64-row blocks of
        // input words into plane words. Rows beyond the supplied words
        // keep their contents (the valid-mask blend); each bit column
        // is charged as one write cycle driving exactly `words.len()`
        // rows.
        let w = field.width();
        let lane = w.next_power_of_two().clamp(8, 64);
        let blocks = words.len().div_ceil(64);
        let mut buf = [0u64; 64];
        for g0 in (0..blocks).step_by(64 / lane) {
            let group = (64 / lane).min(blocks - g0);
            // The group's first block is copied in and the rest of the
            // buffer cleared; later blocks (never longer) OR into it.
            let base = g0 * 64;
            let in_block = (words.len() - base).min(64);
            buf[..in_block].copy_from_slice(&words[base..base + in_block]);
            buf[in_block..].fill(0);
            for k in 1..group {
                let base = (g0 + k) * 64;
                let in_block = (words.len() - base).min(64);
                for (slot, &word) in buf.iter_mut().zip(&words[base..base + in_block]) {
                    *slot |= word << (k * lane);
                }
            }
            transpose64(&mut buf);
            for k in 0..group {
                let in_block = (words.len() - (g0 + k) * 64).min(64);
                let valid = u64::MAX >> (64 - in_block);
                let planes = buf[k * lane..(k + 1) * lane].iter().take(w);
                for (bit, &bv) in planes.enumerate() {
                    let pw = &mut self.arena[field.col(bit) * self.blocks + g0 + k];
                    *pw = (*pw & !valid) | (bv & valid);
                }
            }
        }
        for _ in 0..w {
            self.stats.charge_write(words.len() as u64, 1);
        }
        Ok(())
    }

    /// Host-side broadcast of one constant into `field` for the rows of
    /// `tag`: one write cycle per bit column. An empty tag drives no
    /// rows and charges zero cycles (the controller branches on the
    /// tag's emptiness, exactly as it does after a saturating
    /// subtract).
    ///
    /// # Errors
    ///
    /// * [`ApError::ColumnCapacity`] if the field exceeds the array.
    /// * [`ApError::WidthOverflow`] if the value does not fit the field.
    pub fn broadcast_field(
        &mut self,
        field: Field,
        value: u64,
        tag: &RowSet,
    ) -> Result<(), ApError> {
        self.check_field(field)?;
        if value > field.max_value() {
            return Err(ApError::WidthOverflow {
                value,
                width: field.width(),
            });
        }
        if tag.is_none_set() {
            return Ok(());
        }
        for bit in 0..field.width() {
            // A field wider than the value holds zeros above bit 63.
            let set = bit < 64 && value >> bit & 1 == 1;
            self.write(tag, &[(field.col(bit), set)]);
        }
        Ok(())
    }

    /// [`ApError::ColumnCapacity`] unless `field` lies inside the
    /// array: the check loads, broadcasts and the ops whose result
    /// field the microcode clears first (copy, multiplies, dividers)
    /// make before they drive a cell.
    pub(crate) fn check_field(&self, field: Field) -> Result<(), ApError> {
        if field.end() > self.cols {
            return Err(ApError::ColumnCapacity {
                needed: field.end(),
                available: self.cols,
            });
        }
        Ok(())
    }

    /// Reads back one word per row from `field` (free: models the host
    /// observing the array after execution; result read-out costs are
    /// accounted by the deployment model, not per cell).
    #[must_use]
    pub fn read_field(&self, field: Field) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.rows);
        self.read_field_append(field, &mut out);
        out
    }

    /// Appends `field`'s words (one per row) to `out` without
    /// allocating beyond `out`'s capacity — the pooled-tile read-out
    /// path. Each 64-row block's `width` plane words become its row
    /// words through a 64×64 bit transpose, the inverse of
    /// [`CamArray::load_field`]'s: block `k` of a group places its
    /// planes at rows `k · lane ..` of the buffer (lanes of 8, 16, 32 or
    /// 64 bits, the smallest that holds the field), so one transpose
    /// serves `64 / lane` blocks, and each row word is shifted and
    /// masked out of its block's lane.
    ///
    /// # Panics
    ///
    /// Panics if the field exceeds the array's columns.
    pub fn read_field_append(&self, field: Field, out: &mut Vec<u64>) {
        assert!(
            field.end() <= self.cols,
            "field {field} exceeds {} columns",
            self.cols
        );
        let base_len = out.len();
        out.resize(base_len + self.rows, 0);
        let dst = &mut out[base_len..];
        let w = field.width();
        let lane = w.next_power_of_two().clamp(8, 64);
        let mask = u64::MAX >> (64 - lane);
        let mut buf = [0u64; 64];
        for g0 in (0..self.blocks).step_by(64 / lane) {
            let group = (64 / lane).min(self.blocks - g0);
            buf.fill(0);
            for k in 0..group {
                let planes = buf[k * lane..(k + 1) * lane].iter_mut().take(w);
                for (bit, slot) in planes.enumerate() {
                    *slot = self.arena[field.col(bit) * self.blocks + g0 + k];
                }
            }
            transpose64(&mut buf);
            for k in 0..group {
                let base = (g0 + k) * 64;
                let in_block = (self.rows - base).min(64);
                for (d, &s) in dst[base..base + in_block].iter_mut().zip(&buf) {
                    *d = (s >> (k * lane)) & mask;
                }
            }
        }
    }

    /// Exact sum of `field`'s words over `rows`, taken straight from
    /// the planes (free observer access): Σ_b popcount(plane_b ∧
    /// rows) · 2^b. Each plane's count is the popcount of the blocks
    /// the range touches less the bits outside it in the two edge
    /// blocks; a `u128` holds any sum of 64-bit words a tile can have.
    pub(crate) fn field_sum(&self, field: Field, rows: std::ops::Range<usize>) -> u128 {
        assert!(
            field.end() <= self.cols && rows.end <= self.rows,
            "field {field} or rows {rows:?} out of range"
        );
        if rows.is_empty() {
            return 0;
        }
        let (first, last) = (rows.start / 64, (rows.end - 1) / 64);
        let below = !(u64::MAX << (rows.start % 64));
        let above = !(u64::MAX >> (63 - (rows.end - 1) % 64));
        let mut sum = 0u128;
        for bit in 0..field.width() {
            let plane = &self.arena[field.col(bit) * self.blocks..][first..=last];
            let all: u64 = plane.iter().map(|w| u64::from(w.count_ones())).sum();
            let outside =
                (plane[0] & below).count_ones() + (plane[last - first] & above).count_ones();
            sum += u128::from(all - u64::from(outside)) << bit;
        }
        sum
    }

    /// Whether every row of `field` holds a non-zero word: the OR of
    /// the field's planes covers every row (free observer access). This
    /// is the zero-divisor scan shared by both backends and by the
    /// blocked executor's division preflight.
    pub(crate) fn field_all_nonzero(&self, field: Field) -> bool {
        assert!(field.end() <= self.cols, "field {field} out of range");
        (0..self.blocks).all(|blk| {
            let any = (field.start()..field.end())
                .fold(0, |acc, col| acc | self.arena[col * self.blocks + blk]);
            let live = tail_mask(self.rows, blk, self.blocks);
            any & live == live
        })
    }

    /// Reads one word from one row (free observer access).
    #[must_use]
    pub fn read_word(&self, row: usize, field: Field) -> u64 {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        let mut w = 0;
        // A `u64` holds a wider field's low 64 bits.
        for bit in 0..field.width().min(64) {
            if self.arena[field.col(bit) * self.blocks + row / 64] >> (row % 64) & 1 == 1 {
                w |= 1 << bit;
            }
        }
        w
    }

    /// Charges 2D (row-parallel) cycles; see [`CycleStats::charge_2d`].
    pub fn charge_2d(&mut self, cycles: u64, cell_events: u64) {
        self.stats.charge_2d(cycles, cell_events);
    }

    /// Mutable access to the cycle counters for the `FastWord` backend,
    /// which charges analytically instead of per compare/write call.
    pub(crate) fn stats_mut(&mut self) -> &mut CycleStats {
        &mut self.stats
    }

    /// One column's packed row-words (64 rows per word), for the
    /// word-parallel `FastWord` engine.
    pub(crate) fn plane_words(&self, col: usize) -> &[u64] {
        self.check_col(col);
        &self.arena[col * self.blocks..(col + 1) * self.blocks]
    }

    /// Mutable packed row-words of one column. Callers must keep the
    /// tail bits beyond the row count zero (the arena-wide invariant).
    pub(crate) fn plane_words_mut(&mut self, col: usize) -> &mut [u64] {
        self.check_col(col);
        &mut self.arena[col * self.blocks..(col + 1) * self.blocks]
    }

    /// All of a field's planes as one contiguous arena slice, laid out
    /// bit-major (`slice[bit * blocks + block]`) — exactly the
    /// `FastWord` engine's buffer layout, so gather/scatter is a single
    /// memcpy.
    pub(crate) fn field_words(&self, field: Field) -> &[u64] {
        assert!(field.end() <= self.cols, "field {field} out of range");
        &self.arena[field.start() * self.blocks..field.end() * self.blocks]
    }

    /// Mutable contiguous arena slice of a field's planes; see
    /// [`CamArray::field_words`]. Callers must keep tail bits zero.
    pub(crate) fn field_words_mut(&mut self, field: Field) -> &mut [u64] {
        assert!(field.end() <= self.cols, "field {field} out of range");
        &mut self.arena[field.start() * self.blocks..field.end() * self.blocks]
    }

    /// Detaches the whole plane storage (leaving an empty arena behind)
    /// so the blocked executor can run strip kernels directly on it
    /// while the CAM stays borrowable for geometry queries. The caller
    /// must hand the vector back via [`CamArray::restore_arena`] before
    /// any plane accessor runs again.
    pub(crate) fn take_arena(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.arena)
    }

    /// Reattaches plane storage detached by [`CamArray::take_arena`].
    pub(crate) fn restore_arena(&mut self, arena: Vec<u64>) {
        debug_assert_eq!(arena.len(), self.cols * self.blocks);
        self.arena = arena;
    }

    /// Directly sets one word in one row without charging cycles.
    ///
    /// This is the simulator's back-door for modelling 2D row-parallel
    /// arithmetic whose cost is charged analytically via
    /// [`CamArray::charge_2d`]; it is not part of the machine's ISA.
    ///
    /// # Panics
    ///
    /// Panics if the row is out of range or the value does not fit.
    pub fn poke_word(&mut self, row: usize, field: Field, value: u64) {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        assert!(
            value <= field.max_value(),
            "value {value} does not fit {field}"
        );
        for bit in 0..field.width() {
            let w = &mut self.arena[field.col(bit) * self.blocks + row / 64];
            if bit < 64 && value >> bit & 1 == 1 {
                *w |= 1 << (row % 64);
            } else {
                *w &= !(1 << (row % 64));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose64_is_a_transpose() {
        // Deterministic pseudo-random matrix.
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut a = [0u64; 64];
        for v in &mut a {
            *v = next();
        }
        let orig = a;
        transpose64(&mut a);
        for (i, &row) in a.iter().enumerate() {
            for (j, &col) in orig.iter().enumerate() {
                assert_eq!(row >> j & 1, col >> i & 1, "element ({i},{j}) wrong");
            }
        }
        // Involution: transposing twice restores the matrix.
        transpose64(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn load_partial_rows_preserves_rest_and_handles_blocks() {
        // Cross the 64-row block boundary with a partial final block.
        let mut cam = CamArray::new(100, 6).unwrap();
        let f = Field::new(0, 6);
        cam.broadcast_field(f, 0b10_1010, &RowSet::all(100))
            .unwrap();
        let data: Vec<u64> = (0..70).map(|i| i % 64).collect();
        cam.load_field(f, &data).unwrap();
        let out = cam.read_field(f);
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(out[i], v, "row {i}");
        }
        for (row, &v) in out.iter().enumerate().skip(70) {
            assert_eq!(v, 0b10_1010, "row {row} must keep contents");
        }
    }

    #[test]
    fn load_read_roundtrip() {
        let mut cam = CamArray::new(5, 10).unwrap();
        let f = Field::new(2, 6);
        let data = [0u64, 63, 21, 42, 7];
        cam.load_field(f, &data).unwrap();
        assert_eq!(cam.read_field(f), data);
        assert_eq!(cam.read_word(3, f), 42);
        // width cycles charged
        assert_eq!(cam.stats().write_cycles(), 6);
    }

    #[test]
    fn empty_load_is_free() {
        let mut cam = CamArray::new(8, 8).unwrap();
        let f = Field::new(0, 8);
        cam.load_field(f, &[]).unwrap();
        assert_eq!(cam.stats().cycles(), 0, "an empty load must charge zero");
        assert_eq!(cam.stats().write_cell_events(), 0);
    }

    #[test]
    fn empty_tag_broadcast_is_free() {
        let mut cam = CamArray::new(8, 8).unwrap();
        let f = Field::new(0, 8);
        cam.broadcast_field(f, 0xFF, &RowSet::new(8)).unwrap();
        assert_eq!(
            cam.stats().cycles(),
            0,
            "a broadcast to no rows must charge zero"
        );
        // Validation still applies before the emptiness check.
        assert!(matches!(
            cam.broadcast_field(Field::new(0, 4), 16, &RowSet::new(8)),
            Err(ApError::WidthOverflow { .. })
        ));
    }

    #[test]
    fn compare_matches_on_all_masked_columns() {
        let mut cam = CamArray::new(4, 4).unwrap();
        let f = Field::new(0, 4);
        cam.load_field(f, &[0b1010, 0b1000, 0b0010, 0b1010])
            .unwrap();
        let tag = cam.compare(&[(1, true), (3, true)]);
        assert_eq!(tag.iter_set().collect::<Vec<_>>(), vec![0, 3]);
        let tag = cam.compare(&[(0, false)]);
        assert_eq!(tag.count(), 4);
    }

    #[test]
    fn write_only_touches_tagged_rows() {
        let mut cam = CamArray::new(4, 2).unwrap();
        let mut tag = RowSet::new(4);
        tag.set(1, true);
        tag.set(2, true);
        cam.write(&tag, &[(0, true), (1, false)]);
        let f = Field::new(0, 2);
        assert_eq!(cam.read_field(f), vec![0, 1, 1, 0]);
    }

    #[test]
    fn broadcast_constant() {
        let mut cam = CamArray::new(3, 8).unwrap();
        let f = Field::new(0, 8);
        cam.broadcast_field(f, 0xA5, &RowSet::all(3)).unwrap();
        assert_eq!(cam.read_field(f), vec![0xA5; 3]);
    }

    #[test]
    fn capacity_errors() {
        let mut cam = CamArray::new(2, 4).unwrap();
        let wide = Field::new(0, 5);
        assert!(matches!(
            cam.load_field(wide, &[0, 0]),
            Err(ApError::ColumnCapacity { .. })
        ));
        let f = Field::new(0, 4);
        assert!(matches!(
            cam.load_field(f, &[0, 0, 0]),
            Err(ApError::RowCapacity { .. })
        ));
        assert!(matches!(
            cam.load_field(f, &[16, 0]),
            Err(ApError::WidthOverflow { .. })
        ));
        assert!(matches!(
            cam.broadcast_field(f, 16, &RowSet::all(2)),
            Err(ApError::WidthOverflow { .. })
        ));
    }

    #[test]
    fn zero_dimensions_rejected() {
        assert!(CamArray::new(0, 4).is_err());
        assert!(CamArray::new(4, 0).is_err());
    }

    #[test]
    fn reshape_reuses_the_arena_and_clears_state() {
        let mut cam = CamArray::new(100, 8).unwrap();
        let f = Field::new(0, 8);
        cam.broadcast_field(f, 0xFF, &RowSet::all(100)).unwrap();
        assert!(cam.stats().cycles() > 0);
        cam.reshape(70, 6).unwrap();
        assert_eq!((cam.rows(), cam.cols()), (70, 6));
        assert_eq!(cam.stats().cycles(), 0);
        let g = Field::new(0, 6);
        assert_eq!(cam.read_field(g), vec![0; 70], "reshape must zero cells");
        // Same geometry round again: contents cleared, invariant holds.
        cam.load_field(g, &(0..70).map(|i| i % 64).collect::<Vec<_>>())
            .unwrap();
        cam.reshape(70, 6).unwrap();
        assert_eq!(cam.read_field(g), vec![0; 70]);
        assert!(cam.reshape(0, 4).is_err());
    }

    #[test]
    fn planes_are_contiguous_arena_ranges() {
        let mut cam = CamArray::new(65, 4).unwrap();
        let f = Field::new(1, 2);
        cam.load_field(f, &(0..65).map(|i| i % 4).collect::<Vec<_>>())
            .unwrap();
        // field_words is bit-major with the plane stride: plane 0 of
        // the field == plane_words(1), plane 1 == plane_words(2).
        let blocks = 2; // ceil(65 / 64)
        let fw = cam.field_words(f).to_vec();
        assert_eq!(&fw[..blocks], cam.plane_words(1));
        assert_eq!(&fw[blocks..], cam.plane_words(2));
        // Tail bits beyond row 65 stay zero arena-wide.
        for col in 0..4 {
            assert_eq!(cam.plane(col)[1] >> 1, 0, "tail bits of col {col}");
        }
    }

    #[test]
    fn stats_track_cell_events() {
        let mut cam = CamArray::new(100, 8).unwrap();
        let _ = cam.compare(&[(0, true), (1, false)]);
        assert_eq!(cam.stats().compare_cell_events(), 200);
        let mut tag = RowSet::new(100);
        for i in 0..10 {
            tag.set(i, true);
        }
        cam.write(&tag, &[(2, true)]);
        assert_eq!(cam.stats().write_cell_events(), 10);
        cam.reset_stats();
        assert_eq!(cam.stats().cycles(), 0);
    }
}
