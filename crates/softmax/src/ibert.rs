use crate::{PrecisionConfig, SoftmaxConstants, SoftmaxError, SumMode, WidthTable};

/// Result of one integer-only softmax evaluation.
///
/// `codes[i] · 2^-frac_bits` is the probability assigned to element `i`
/// (the paper's `v_sm`; the output scale is fixed by the `2M + 12`-bit
/// result column of the AP mapping, Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct IntSoftmaxOutput {
    /// Fixed-point probability codes (`v_sm`).
    pub codes: Vec<u64>,
    /// Fraction bits of the codes (`F = 2M + 11`).
    pub frac_bits: u32,
    /// Dequantized probabilities (`codes · 2^-F`).
    pub probabilities: Vec<f64>,
    /// The intermediate `v_approx` values (integer exponentials), kept
    /// for bit-exact cross-checking against the AP mapping.
    pub vapprox: Vec<u64>,
    /// The (possibly truncated) sum of `v_approx` used as divisor.
    pub sum: u64,
    /// The mathematically exact sum.
    pub sum_exact: u128,
    /// Whether the sum register overflowed (saturated or wrapped).
    pub sum_overflowed: bool,
}

/// Per-element intermediate trace of Algorithm 1, used to verify the AP
/// mapping step by step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepTrace {
    /// `max(v) - v` magnitudes (the negated `v_stable`).
    pub neg_vstable: Vec<u64>,
    /// Barrett quotients `q̂`.
    pub q_hat: Vec<u64>,
    /// Range-reduction remainders `r = -v_corr`.
    pub r: Vec<u64>,
    /// Polynomial inputs `t = v_b - r` (saturated at 0).
    pub t: Vec<u64>,
    /// Polynomial outputs `(t² + v_c)`.
    pub poly: Vec<u64>,
    /// Shifted outputs `v_approx`.
    pub vapprox: Vec<u64>,
}

/// The bit-accurate integer-only softmax of Algorithm 1.
///
/// All intermediates are computed as unsigned magnitudes with the exact
/// widths of Table I; the AP mapping in the `softmap` crate reproduces
/// this pipeline bit-for-bit (verified by integration tests).
///
/// # Examples
///
/// ```
/// use softmap_softmax::{IntSoftmax, PrecisionConfig};
///
/// let sm = IntSoftmax::new(PrecisionConfig::new(8, 0, 16))?;
/// let out = sm.run_floats(&[0.0, -0.5, -1.0, -6.0])?;
/// // probabilities decrease with the score
/// assert!(out.probabilities[0] > out.probabilities[1]);
/// assert!(out.probabilities[2] > out.probabilities[3]);
/// # Ok::<(), softmap_softmax::SoftmaxError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IntSoftmax {
    cfg: PrecisionConfig,
    consts: SoftmaxConstants,
    widths: WidthTable,
}

impl IntSoftmax {
    /// Builds the pipeline for one precision configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SoftmaxError::BadConfig`] if the configuration's
    /// constants do not fit their Table I allocations.
    pub fn new(cfg: PrecisionConfig) -> Result<Self, SoftmaxError> {
        let consts = SoftmaxConstants::from_config(&cfg)?;
        let widths = WidthTable::from_config(&cfg);
        Ok(Self {
            cfg,
            consts,
            widths,
        })
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &PrecisionConfig {
        &self.cfg
    }

    /// The offline constants.
    #[must_use]
    pub fn constants(&self) -> &SoftmaxConstants {
        &self.consts
    }

    /// The Table I width allocations.
    #[must_use]
    pub fn widths(&self) -> &WidthTable {
        &self.widths
    }

    /// Quantizes real scores: stabilize (subtract max), clip to
    /// `[TC, 0]`, and round to signed `M`-bit codes in
    /// `[-2^(M-1), 0]`.
    #[must_use]
    pub fn quantize(&self, v: &[f64]) -> Vec<i64> {
        let mut out = Vec::with_capacity(v.len());
        self.quantize_into(v, &mut out);
        out
    }

    /// Allocation-free [`IntSoftmax::quantize`]: writes the codes into
    /// `out` (resized to `v.len()`), reusing its capacity — the pooled
    /// execution path's entry point. It does not vet its input: run
    /// [`IntSoftmax::check_scores`] first, or a NaN quantizes to the
    /// row maximum.
    ///
    /// The per-score loop has no branch and no saturating cast, so it
    /// vectorizes:
    /// * `(x − max).min(0).max(TC)` clips; a NaN difference (a NaN
    ///   score, or +∞ − +∞) becomes 0, the row maximum's code;
    /// * rounding and the clamp to `[−2^(M−1), 0]` stay in `f64`;
    /// * adding 2^52 + 2^51 puts the integer-valued result in the low
    ///   mantissa bits, where subtracting the constant's own bit
    ///   pattern reads it off exactly (any integer of magnitude below
    ///   2^51 converts this way).
    pub fn quantize_into(&self, v: &[f64], out: &mut Vec<i64>) {
        const MAGIC: f64 = 6_755_399_441_055_744.0; // 2^52 + 2^51
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (s, tc) = (self.cfg.scale(), self.cfg.tc);
        let lo = -self.cfg.max_code_magnitude() as f64;
        out.clear();
        out.resize(v.len(), 0);
        for (code, &x) in out.iter_mut().zip(v) {
            let stable = (x - max).min(0.0).max(tc);
            let q = (stable / s).round().min(0.0).max(lo);
            *code = (q + MAGIC).to_bits() as i64 - MAGIC.to_bits() as i64;
        }
    }

    /// The input policy every real-score entry point applies before
    /// quantizing: a NaN anywhere, or a row whose maximum is −∞ (all
    /// scores −∞), has no softmax and is rejected.
    ///
    /// Other infinities pass and behave as their limits. +∞ scores
    /// share the mass equally and every finite score gets the clip
    /// code. A −∞ score beside a larger one quantizes to the clip code
    /// (`TC`), like any score at least `|TC|` below the maximum, so it
    /// gets the clip code's mass: exactly zero at
    /// [`PrecisionConfig::paper_best`] and at every point of
    /// [`crate::sweep::full_grid`] with its default `TC`. A shallower
    /// `TC` set through [`PrecisionConfig::with_tc`] can leave the clip
    /// code a non-zero exponential, and −∞ then gets that mass: `M = 4`
    /// with `TC` ≥ −2, `M = 6` with `TC` from −4 to −2, and `M = 8`
    /// with `TC` = −6 (of the integer `TC`s the constants accept).
    ///
    /// # Errors
    ///
    /// [`SoftmaxError::NonFinite`] with the first NaN's index, or 0 for
    /// an all-−∞ row. An empty slice passes (the entry points reject it
    /// as [`SoftmaxError::EmptyInput`]).
    pub fn check_scores(&self, v: &[f64]) -> Result<(), SoftmaxError> {
        // A branch-free pass the compiler vectorizes (a per-score early
        // exit costs ten times as much); the index is sought only once a
        // NaN is known to be there.
        if v.iter().fold(false, |nan, &x| nan | x.is_nan()) {
            let i = v.iter().position(|x| x.is_nan()).expect("a NaN was seen");
            return Err(SoftmaxError::NonFinite(i));
        }
        if !v.is_empty() && v.iter().all(|&x| x == f64::NEG_INFINITY) {
            return Err(SoftmaxError::NonFinite(0));
        }
        Ok(())
    }

    /// Runs the integer pipeline on quantized codes.
    ///
    /// # Errors
    ///
    /// * [`SoftmaxError::EmptyInput`] for an empty slice,
    /// * [`SoftmaxError::CodeOutOfRange`] if a code magnitude exceeds
    ///   the signed `M`-bit range.
    pub fn run_codes(&self, codes: &[i64]) -> Result<IntSoftmaxOutput, SoftmaxError> {
        let trace = self.trace_codes(codes)?;
        self.finish(&trace)
    }

    /// Runs quantization plus the integer pipeline on real scores.
    ///
    /// # Errors
    ///
    /// As [`IntSoftmax::run_codes`], and [`SoftmaxError::NonFinite`]
    /// for scores [`IntSoftmax::check_scores`] rejects.
    pub fn run_floats(&self, v: &[f64]) -> Result<IntSoftmaxOutput, SoftmaxError> {
        if v.is_empty() {
            return Err(SoftmaxError::EmptyInput);
        }
        self.check_scores(v)?;
        self.run_codes(&self.quantize(v))
    }

    /// Runs the pipeline over a batch of score rows, fanned out across
    /// host threads (one independent softmax per row, as the deployed
    /// accelerator would run one per tile). Results are in input order
    /// and identical to per-row [`IntSoftmax::run_floats`] calls.
    ///
    /// # Errors
    ///
    /// The first (by input order) failing row's error.
    pub fn run_floats_batch(
        &self,
        rows: &[Vec<f64>],
    ) -> Result<Vec<IntSoftmaxOutput>, SoftmaxError> {
        softmap_par::try_parallel_map(rows, |row| self.run_floats(row))
    }

    /// Batched [`IntSoftmax::run_codes`]; see
    /// [`IntSoftmax::run_floats_batch`].
    ///
    /// # Errors
    ///
    /// The first failing row's error.
    pub fn run_codes_batch(
        &self,
        rows: &[Vec<i64>],
    ) -> Result<Vec<IntSoftmaxOutput>, SoftmaxError> {
        softmap_par::try_parallel_map(rows, |row| self.run_codes(row))
    }

    /// Validates a code vector against the quantizer's range without
    /// computing the pipeline — the cheap precondition check shared by
    /// every entry point (the AP mapping uses it to vet its inputs
    /// without paying for a full scalar trace).
    ///
    /// One branch-free min/max fold decides; only when it fails is the
    /// first out-of-range code sought, for the error.
    ///
    /// # Errors
    ///
    /// As [`IntSoftmax::run_codes`]; [`SoftmaxError::CodeOutOfRange`]
    /// carries the first out-of-range code.
    pub fn validate_codes(&self, codes: &[i64]) -> Result<(), SoftmaxError> {
        if codes.is_empty() {
            return Err(SoftmaxError::EmptyInput);
        }
        let lo = -self.cfg.max_code_magnitude();
        let hi = self.cfg.max_code_magnitude() - 1;
        let (min, max) = codes.iter().fold((i64::MAX, i64::MIN), |(min, max), &c| {
            (min.min(c), max.max(c))
        });
        if min < lo || max > hi {
            let &c = codes
                .iter()
                .find(|&&c| c < lo || c > hi)
                .expect("a code is out of range");
            return Err(SoftmaxError::CodeOutOfRange(c));
        }
        Ok(())
    }

    /// Computes the per-element intermediates of Algorithm 1 — the
    /// specification the AP mapping is tested against.
    ///
    /// # Errors
    ///
    /// As [`IntSoftmax::run_codes`].
    pub fn trace_codes(&self, codes: &[i64]) -> Result<StepTrace, SoftmaxError> {
        self.validate_codes(codes)?;
        let m = self.cfg.m;
        let max = *codes.iter().max().expect("non-empty");
        let vapprox_mask = (1u64 << self.widths.vapprox) - 1;
        let poly_max = (1u64 << self.widths.poly) - 1;

        let n = codes.len();
        let mut tr = StepTrace {
            neg_vstable: Vec::with_capacity(n),
            q_hat: Vec::with_capacity(n),
            r: Vec::with_capacity(n),
            t: Vec::with_capacity(n),
            poly: Vec::with_capacity(n),
            vapprox: Vec::with_capacity(n),
        };
        for &c in codes {
            // Line 4 (as a magnitude): x = max(v) - v in [0, 2^M - 1].
            let x = (max - c) as u64;
            debug_assert!(x < (1 << m));
            // Line 7 via Barrett (lines 6-7): q̂ and remainder r = -v_corr.
            let q_hat = ((u128::from(x) * u128::from(self.consts.mu)) >> (2 * m)) as u64;
            let r = x - q_hat * self.consts.vln2;
            // Line 11, polynomial input: t = v_b + v_corr = v_b - r,
            // saturating at zero (covers the Barrett overshoot that the
            // paper's wider v_corr allocations would absorb).
            let t = self.consts.vb.saturating_sub(r);
            // Line 11, polynomial: (t² + v_c), within its allocation.
            let poly = (t * t + self.consts.vc).min(poly_max);
            // Line 11, shift: v_approx = poly >> q̂.
            let shifted = if q_hat >= 64 { 0 } else { poly >> q_hat };
            let vapprox = shifted.min(vapprox_mask);
            tr.neg_vstable.push(x);
            tr.q_hat.push(q_hat);
            tr.r.push(r);
            tr.t.push(t);
            tr.poly.push(poly);
            tr.vapprox.push(vapprox);
        }
        Ok(tr)
    }

    /// Completes the pipeline (sum, truncation, division) from a trace.
    ///
    /// # Errors
    ///
    /// Currently infallible for a valid trace; kept fallible for
    /// interface stability.
    pub fn finish(&self, trace: &StepTrace) -> Result<IntSoftmaxOutput, SoftmaxError> {
        let sum_exact: u128 = trace.vapprox.iter().map(|&v| u128::from(v)).sum();
        let sum_bits = self.consts.effective_sum_bits(&self.cfg);
        let sum_max = (1u128 << sum_bits) - 1;
        let (sum, overflowed) = match self.cfg.sum_mode {
            SumMode::Exact => (sum_exact, false),
            SumMode::Saturate => {
                if sum_exact > sum_max {
                    (sum_max, true)
                } else {
                    (sum_exact, false)
                }
            }
            SumMode::Wrap => {
                if sum_exact > sum_max {
                    (sum_exact & sum_max, true)
                } else {
                    (sum_exact, false)
                }
            }
        };
        // Line 12: v_sm = (v_approx << F) / sum. A wrapped sum can reach
        // zero; the hardware divider clamps the divisor at 1.
        let divisor = sum.max(1);
        let f = self.widths.frac_bits();
        let result_max = (1u128 << self.widths.result) - 1;
        let codes: Vec<u64> = trace
            .vapprox
            .iter()
            .map(|&v| (((u128::from(v) << f) / divisor).min(result_max)) as u64)
            .collect();
        let scale = (f64::from(f)).exp2().recip();
        let probabilities = codes.iter().map(|&c| c as f64 * scale).collect();
        Ok(IntSoftmaxOutput {
            codes,
            frac_bits: f,
            probabilities,
            vapprox: trace.vapprox.clone(),
            sum: sum as u64,
            sum_exact,
            sum_overflowed: overflowed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float_ref;
    use crate::metrics;
    use proptest::prelude::*;

    fn best() -> IntSoftmax {
        IntSoftmax::new(PrecisionConfig::paper_best()).unwrap()
    }

    /// The quantizer's earlier formula (clamp, round, saturating cast,
    /// integer clamp): the oracle for the branch-free one.
    fn quantize_oracle(sm: &IntSoftmax, v: &[f64]) -> Vec<i64> {
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let s = sm.cfg.scale();
        let lo = -sm.cfg.max_code_magnitude();
        v.iter()
            .map(|&x| {
                let stable = (x - max).clamp(sm.cfg.tc, 0.0);
                ((stable / s).round() as i64).clamp(lo, 0)
            })
            .collect()
    }

    /// One score of a quantizer test row, from a drawn `(kind, k, f)`:
    /// infinities, NaN, half-code ties `(k + ½)·S`, subnormals, huge
    /// magnitudes, or an ordinary score.
    fn score(cfg: &PrecisionConfig, (kind, k, f): (u32, i64, f64)) -> f64 {
        match kind {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            2 => f64::NAN,
            3 => 0.0,
            4 | 5 => (k as f64 + 0.5) * cfg.scale(),
            6 => f * 1e-310,
            7 => f.signum() * 1e300,
            8 => f.signum() * f64::MAX,
            _ => f,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn quantizer_matches_its_earlier_formula(
            draws in prop::collection::vec((0u32..12, -140i64..3, -9.0f64..1.0), 1..48),
            capped in any::<bool>(),
        ) {
            // A capped row has maximum exactly 0, so every tie score
            // lands exactly halfway between two codes.
            let mut configs = crate::sweep::full_grid();
            configs.push(PrecisionConfig::paper_best().with_tc(-3.0));
            configs.push(PrecisionConfig::new(4, 0, 16).with_tc(-2.0));
            for cfg in configs {
                let sm = IntSoftmax::new(cfg).unwrap();
                let mut row: Vec<f64> = draws.iter().map(|&d| score(&cfg, d)).collect();
                if capped {
                    for x in &mut row {
                        *x = -x.abs();
                    }
                    row.push(0.0);
                }
                prop_assert_eq!(
                    sm.quantize(&row),
                    quantize_oracle(&sm, &row),
                    "{} {:?}",
                    cfg.label(),
                    row
                );
            }
        }
    }

    #[test]
    fn nan_and_all_neg_inf_rows_are_rejected_with_the_first_bad_index() {
        let sm = best();
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        for (row, index) in [
            (vec![0.0, nan, -3.0, -4.0], 1),
            (vec![nan; 3], 0),
            (vec![-inf; 4], 0),
            (vec![-inf, -inf, nan], 2),
            (vec![inf, 0.0, nan, nan], 2),
        ] {
            assert_eq!(sm.check_scores(&row), Err(SoftmaxError::NonFinite(index)));
            assert_eq!(sm.run_floats(&row), Err(SoftmaxError::NonFinite(index)));
        }
        assert_eq!(
            sm.run_floats_batch(&[vec![0.0], vec![nan]]).unwrap_err(),
            SoftmaxError::NonFinite(0)
        );
        assert_eq!(sm.check_scores(&[]), Ok(()));
        assert_eq!(sm.run_floats(&[]), Err(SoftmaxError::EmptyInput));
    }

    #[test]
    fn infinities_behave_as_their_limits() {
        // +inf scores share the mass; the finite ones get the clip code.
        let sm = best();
        let (inf, clip) = (f64::INFINITY, PrecisionConfig::paper_best().tc - 1.0);
        let out = sm.run_floats(&[inf, 0.0, inf, -3.0]).unwrap();
        let two = sm.run_floats(&[0.0, clip, 0.0, clip]).unwrap();
        assert_eq!(out.codes, two.codes);
        assert_eq!(out.codes[0], out.codes[2]);
        // -inf beside a larger score gets exactly zero mass at every
        // grid point's default clip threshold.
        for cfg in crate::sweep::full_grid() {
            let sm = IntSoftmax::new(cfg).unwrap();
            let out = sm.run_floats(&[0.0, -inf, -3.0, -4.0]).unwrap();
            assert_eq!(out.codes[1], 0, "{}", cfg.label());
        }
        // A shallow clip threshold leaves the clip code (and -inf) mass.
        let shallow = IntSoftmax::new(PrecisionConfig::paper_best().with_tc(-3.0)).unwrap();
        let out = shallow.run_floats(&[0.0, -inf]).unwrap();
        assert!(out.codes[1] > 0);
        assert_eq!(out.codes, shallow.run_floats(&[0.0, -3.5]).unwrap().codes);
    }

    #[test]
    fn probabilities_sum_close_to_one() {
        let sm = best();
        let out = sm.run_floats(&[0.0, -1.0, -2.0, -0.5, -3.5]).unwrap();
        let total: f64 = out.probabilities.iter().sum();
        assert!((total - 1.0).abs() < 0.01, "sum = {total}");
    }

    #[test]
    fn shift_invariance_is_exact_in_code_domain() {
        let sm = best();
        let codes = vec![-3i64, 0, -17, -31, -8];
        let shifted: Vec<i64> = codes.iter().map(|c| c - 1).collect();
        // shifting all codes equally must not change anything after
        // max subtraction (as long as codes stay in range)
        let a = sm.run_codes(&codes).unwrap();
        let b = sm.run_codes(&shifted).unwrap();
        assert_eq!(a.codes, b.codes);
    }

    #[test]
    fn close_to_float_softmax_at_high_precision() {
        let sm = IntSoftmax::new(PrecisionConfig::new(8, 0, 20)).unwrap();
        let v = [0.0, -0.3, -1.1, -2.2, -0.05, -4.0, -6.9, -0.77];
        let out = sm.run_floats(&v).unwrap();
        let exact = float_ref::softmax(&v);
        let kl = metrics::kl_divergence(&exact, &out.probabilities);
        assert!(kl < 1e-2, "kl = {kl}");
    }

    #[test]
    fn coarser_m_is_worse() {
        let v: Vec<f64> = (0..32).map(|i| -(f64::from(i) * 0.21) % 6.5).collect();
        let exact = float_ref::softmax(&v);
        let mut kls = Vec::new();
        for m in [4, 6, 8] {
            let sm = IntSoftmax::new(PrecisionConfig::new(m, 0, 20)).unwrap();
            let out = sm.run_floats(&v).unwrap();
            kls.push(metrics::kl_divergence(&exact, &out.probabilities));
        }
        assert!(
            kls[0] > kls[2],
            "M=4 ({}) should be worse than M=8 ({})",
            kls[0],
            kls[2]
        );
    }

    #[test]
    fn vcorr_width_is_irrelevant() {
        // The paper's finding: varying v_corr does not change results.
        let v: Vec<f64> = (0..64).map(|i| -(f64::from(i) * 0.37) % 7.0).collect();
        let base = IntSoftmax::new(PrecisionConfig::new(6, 0, 16))
            .unwrap()
            .run_floats(&v)
            .unwrap();
        for delta in [1, 2] {
            let out = IntSoftmax::new(PrecisionConfig::new(6, delta, 16))
                .unwrap()
                .run_floats(&v)
                .unwrap();
            assert_eq!(base.codes, out.codes, "delta = {delta}");
        }
    }

    #[test]
    fn small_n_saturates_on_long_inputs() {
        // 4096 near-equal scores: the sum needs ~log2(4096) extra bits,
        // so N = 8 must saturate while N = 16 must not.
        let v = vec![0.0f64; 4096];
        let sat = IntSoftmax::new(PrecisionConfig::new(6, 0, 8))
            .unwrap()
            .run_floats(&v)
            .unwrap();
        assert!(sat.sum_overflowed);
        let ok = IntSoftmax::new(PrecisionConfig::new(6, 0, 16))
            .unwrap()
            .run_floats(&v)
            .unwrap();
        assert!(!ok.sum_overflowed);
        // and the saturated distribution is distorted: it no longer sums
        // to ~1 (each element got a too-large share).
        let sat_total: f64 = sat.probabilities.iter().sum();
        let ok_total: f64 = ok.probabilities.iter().sum();
        assert!((ok_total - 1.0).abs() < 0.05, "ok sum = {ok_total}");
        assert!(sat_total > 1.5, "saturated sum = {sat_total}");
    }

    #[test]
    fn wrap_mode_is_catastrophic() {
        let v = vec![0.0f64; 4096];
        let wrap = IntSoftmax::new(PrecisionConfig::new(6, 0, 8).with_sum_mode(SumMode::Wrap))
            .unwrap()
            .run_floats(&v)
            .unwrap();
        assert!(wrap.sum_overflowed);
        // wrapped sum is much smaller than the saturated one
        let sat = IntSoftmax::new(PrecisionConfig::new(6, 0, 8))
            .unwrap()
            .run_floats(&v)
            .unwrap();
        assert!(wrap.sum < sat.sum);
    }

    #[test]
    fn argmax_is_preserved() {
        let sm = best();
        let v = [-2.0, -0.1, -5.0, -0.4, -3.3];
        let out = sm.run_floats(&v).unwrap();
        let argmax_in = 1;
        let argmax_out = out
            .probabilities
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(argmax_out, argmax_in);
    }

    #[test]
    fn rejects_bad_inputs() {
        let sm = best();
        assert_eq!(sm.run_floats(&[]), Err(SoftmaxError::EmptyInput));
        assert_eq!(
            sm.run_codes(&[1000]),
            Err(SoftmaxError::CodeOutOfRange(1000))
        );
        assert_eq!(
            sm.run_codes(&[-1000]),
            Err(SoftmaxError::CodeOutOfRange(-1000))
        );
    }

    #[test]
    fn quantize_respects_clipping() {
        let sm = best();
        let codes = sm.quantize(&[0.0, -3.0, -100.0]);
        assert_eq!(codes[0], 0);
        assert_eq!(codes[2], -sm.config().max_code_magnitude());
        assert!(codes[1] < 0 && codes[1] > codes[2]);
    }

    #[test]
    fn batched_runs_match_per_row() {
        let sm = best();
        let rows: Vec<Vec<f64>> = (0..9)
            .map(|v| {
                (0..24)
                    .map(|i| -((v * 3 + i) as f64 * 0.29) % 6.7)
                    .collect()
            })
            .collect();
        let batch = sm.run_floats_batch(&rows).unwrap();
        assert_eq!(batch.len(), rows.len());
        for (row, got) in rows.iter().zip(&batch) {
            let single = sm.run_floats(row).unwrap();
            assert_eq!(single.codes, got.codes);
            assert_eq!(single.sum, got.sum);
        }
        assert!(matches!(
            sm.run_floats_batch(&[vec![0.0], vec![]]),
            Err(SoftmaxError::EmptyInput)
        ));
    }

    #[test]
    fn trace_intermediates_fit_allocated_widths() {
        let sm = IntSoftmax::new(PrecisionConfig::new(8, 0, 16)).unwrap();
        let codes: Vec<i64> = (-128..=0).collect();
        let tr = sm.trace_codes(&codes).unwrap();
        let w = sm.widths();
        for i in 0..codes.len() {
            assert!(tr.neg_vstable[i] < 1 << w.vstable);
            assert!(tr.q_hat[i] < 1 << w.q);
            assert!(tr.r[i] < 1 << w.vcorr.max(5), "r = {}", tr.r[i]);
            assert!(tr.poly[i] < 1 << w.poly);
            assert!(tr.vapprox[i] < 1 << w.vapprox);
        }
    }
}
