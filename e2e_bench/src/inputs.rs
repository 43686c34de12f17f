//! Seeded score generation.
//!
//! The program under test only ever sees the scores built here; the
//! seed picks the logit generator's stream, so one seed gives the same
//! rows on every host.

/// SplitMix64: a small, well-mixed generator whose stream depends only
/// on its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated per `stream` so the workloads and
    /// the rows inside one workload draw independent values.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An approximately standard-normal draw (Irwin–Hall sum of four
    /// uniforms, rescaled to unit variance).
    pub fn normal(&mut self) -> f64 {
        let sum: f64 = (0..4).map(|_| self.unit()).sum();
        (sum - 2.0) * 3f64.sqrt()
    }
}

/// Appends one attention-logit row of `len` scores to `out`.
///
/// Each row draws its own sharpness. Flat rows keep every score within
/// about one unit of the row maximum, so nothing is clipped; peaked
/// rows put a few scores far above a wide spread, which pushes most of
/// the row below the quantizer clip at `TC = -7` after max subtraction.
pub fn logit_row(rng: &mut Rng, len: usize, out: &mut Vec<f64>) {
    let sharpness = rng.unit();
    let spread = 0.25 + 12.0 * sharpness * sharpness;
    let offset = 20.0 * (rng.unit() - 0.5);
    let start = out.len();
    out.extend((0..len).map(|_| offset + spread * rng.normal()));
    let peaks = 1 + (rng.next_u64() % 4) as usize;
    for _ in 0..peaks {
        let at = start + (rng.next_u64() % len as u64) as usize;
        out[at] = offset + spread * (2.0 + rng.unit());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_span_flat_to_clipped() {
        let tc = softmap_softmax::PrecisionConfig::paper_best().tc;
        let mut rng = Rng::new(1, 0);
        let (mut flat, mut clipped) = (0, 0);
        for _ in 0..200 {
            let mut row = Vec::new();
            logit_row(&mut rng, 256, &mut row);
            let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let min = row.iter().copied().fold(f64::INFINITY, f64::min);
            if min - max > -2.0 {
                flat += 1;
            }
            if min - max < tc {
                clipped += 1;
            }
        }
        assert!(flat >= 10, "only {flat} flat rows");
        assert!(clipped >= 50, "only {clipped} rows cross TC");
    }
}
