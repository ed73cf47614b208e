//! The analog matrix-vector multiplication unit.
//!
//! An [`AnalogMvmu`] is the functional model of Fig. 2: a stack of bit-slice
//! crossbars sharing one DAC array, with ADCs, shift-and-add reduction, and
//! the offset-binary bias correction that maps signed weights onto
//! non-negative conductances.
//!
//! The unit stores each weight once, as its signed Q4.12 bits. The bit-slice
//! crossbars ([`CrossbarSlice`]) are derived from those bits on demand, only
//! where a path needs them: by the bit-serial reference, and by write-noise
//! programming, which perturbs every slice's conductances and collapses
//! them into effective real-valued weights.
//!
//! Six evaluation paths are provided:
//!
//! - [`AnalogMvmu::mvm`] (and [`AnalogMvmu::mvm_into`]) — dispatches to
//!   the fastest path that is exact for the programming noise: the exact
//!   integer path when programming was noiseless, otherwise the
//!   effective-weight path. This is the path the simulator runs on an
//!   ideal device;
//! - [`AnalogMvmu::mvm_exact`] — one `i64` accumulation of `Σ x·w`
//!   against the stored weights, bit-exact with
//!   [`puma_core::tensor::FixedMatrix::mvm_exact`];
//! - [`AnalogMvmu::mvm_bit_serial`] — the reference pipeline: 16 DAC
//!   phases × per-slice analog column sums × ADC quantization (with
//!   clamping) × shift-and-add. With noiseless programming this is
//!   bit-exact with [`puma_core::tensor::FixedMatrix::mvm_exact`];
//! - [`AnalogMvmu::mvm_noisy_fast`] — collapses the noisy conductances into
//!   an effective real-valued weight matrix once at program time, then does
//!   a single `f64` MVM per call (used by the Fig. 13 accuracy sweeps);
//! - [`AnalogMvmu::mvm_degraded`] — the effective-weight MVM with the
//!   read noise, drift, IR drop and ADC narrowing of a
//!   [`NonIdealityConfig`]; the simulator runs it when that config is not
//!   ideal;
//! - [`AnalogMvmu::mvm_faulted`] — the degraded path with a [`FaultPlan`]'s
//!   stuck cells and dead columns on top; the simulator runs it when the
//!   plan is not empty.
//!
//! The exact path's kernel is integer-only and compiled twice: a portable
//! instance for the default target and an AVX2 instance. Each call runs the
//! AVX2 instance when the running CPU reports AVX2
//! (`is_x86_feature_detected!`), the portable one otherwise. Both sum every
//! column in `i64` in row order, so the result is bit-identical on every
//! host.

use crate::noise::{keyed_gaussian, keyed_hash, unit_from, NoiseModel};
use crate::slice::{encode_weight, slice_levels, CrossbarSlice};
use puma_core::config::{FaultPlan, MvmuConfig, NonIdealityConfig};
use puma_core::error::{PumaError, Result};
use puma_core::fixed::{narrow_accumulator, Fixed, FRAC_BITS};
use puma_core::tensor::FixedMatrix;
use serde::{Deserialize, Serialize};

/// Offset added to signed weights so conductances are non-negative.
const WEIGHT_OFFSET: i64 = 32768;

/// Hash tags decorrelating the perturbation families drawn from one seed.
const TAG_READ_NOISE: u64 = 0x5245_4144; // "READ"
const TAG_DRIFT: u64 = 0x4452_4654; // "DRFT"
const TAG_STUCK: u64 = 0x5354_554B; // "STUK"
const TAG_STUCK_LEVEL: u64 = 0x534C_564C; // "SLVL"
const TAG_DEAD_COLUMN: u64 = 0x4443_4F4C; // "DCOL"

/// Rounds an ADC output code to the nearest representable step (an ADC of
/// `b < 16` bits resolves Q4.12 outputs in `2^(16−b)`-raw-bit steps).
fn quantize_adc(raw: i16, step: i64) -> i16 {
    if step <= 1 {
        return raw;
    }
    let r = i64::from(raw);
    let half = step / 2;
    let q = if r >= 0 { (r + half) / step * step } else { -((-r + half) / step * step) };
    q.clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16
}

/// Rebuilds the effective real-valued weight matrix from programmed
/// (noisy) slice conductances: `w_eff = Σ_s g_s · 2^(b·s) − offset`.
fn reconstruct_effective(slices: &[CrossbarSlice], dim: usize) -> Vec<f64> {
    let mut eff = vec![-(WEIGHT_OFFSET as f64); dim * dim];
    for slice in slices {
        let sig = slice.significance() as f64;
        for row in 0..dim {
            for col in 0..dim {
                eff[row * dim + col] += sig * slice.conductance(row, col);
            }
        }
    }
    eff
}

/// Column-block width of the exact kernel. A `[i64; 32]` block
/// accumulator stays in vector registers across the whole row loop.
const BLOCK: usize = 32;

/// The exact MVM: `out[c] = narrow(Σ_r x_r · w[r][c])` over the row-major
/// `out.len()`-square `weights`, accumulated in `i64` in row order, one
/// block of `W` columns at a time (`W` must divide `out.len()`).
/// Integer-only, so every compiled instance returns the same bits.
#[inline(always)]
fn exact_blocks<const W: usize>(out: &mut [Fixed], input: &[Fixed], weights: &[i16]) {
    let dim = out.len();
    for (block, out) in out.chunks_exact_mut(W).enumerate() {
        let mut acc = [0i64; W];
        for (&x, row) in input.iter().zip(weights.chunks_exact(dim)) {
            let xb = i64::from(x.to_bits());
            if xb == 0 {
                continue;
            }
            for (a, &w) in acc.iter_mut().zip(&row.as_chunks::<W>().0[block]) {
                *a += xb * i64::from(w);
            }
        }
        for (y, a) in out.iter_mut().zip(acc) {
            *y = Fixed::from_bits(narrow_accumulator(a, FRAC_BITS));
        }
    }
}

/// The portable instance of the exact kernel. Dimensions are powers of
/// two, so a unit narrower than [`BLOCK`] falls back to single columns.
#[inline(always)]
fn exact_portable(out: &mut [Fixed], input: &[Fixed], weights: &[i16]) {
    if out.len() >= BLOCK {
        exact_blocks::<BLOCK>(out, input, weights);
    } else {
        exact_blocks::<1>(out, input, weights);
    }
}

/// The same kernel body compiled for AVX2, which has the 256-bit integer
/// lanes the default x86-64 target lacks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn exact_avx2(out: &mut [Fixed], input: &[Fixed], weights: &[i16]) {
    exact_portable(out, input, weights);
}

/// Runs the AVX2 instance of the exact kernel when the CPU has AVX2, the
/// portable one otherwise. The feature check is a cached load, made once
/// per call.
#[allow(unsafe_code)]
fn exact_mvm(out: &mut [Fixed], input: &[Fixed], weights: &[i16]) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: `exact_avx2` is safe code whose only precondition is
        // that the running CPU supports AVX2, which the
        // `is_x86_feature_detected!("avx2")` check above has confirmed.
        return unsafe { exact_avx2(out, input, weights) };
    }
    exact_portable(out, input, weights);
}

/// Functional model of one logical MVMU (a stack of bit-slice crossbars).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalogMvmu {
    cfg: MvmuConfig,
    /// Q4.12 weight bits, row-major, `dim × dim` (zero-padded) — the one
    /// stored copy of the weights; slices are derived from it on demand.
    weights: Vec<i16>,
    /// Effective real-valued weights reconstructed from noisy conductances
    /// (only populated when programmed with noise).
    effective: Option<Vec<f64>>,
    /// The noise model used at the last programming.
    noise: NoiseModel,
    /// Logical (unpadded) shape of the stored matrix.
    logical_rows: usize,
    logical_cols: usize,
}

impl AnalogMvmu {
    /// Creates an unprogrammed MVMU (all weights zero).
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::InvalidConfig`] if the configuration is invalid.
    pub fn new(cfg: MvmuConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(AnalogMvmu {
            weights: vec![0; cfg.dim * cfg.dim],
            effective: None,
            noise: NoiseModel::noiseless(),
            logical_rows: cfg.dim,
            logical_cols: cfg.dim,
            cfg,
        })
    }

    /// The configuration this MVMU was built with.
    pub fn config(&self) -> &MvmuConfig {
        &self.cfg
    }

    /// Crossbar dimension.
    pub fn dim(&self) -> usize {
        self.cfg.dim
    }

    /// Logical (unpadded) shape of the programmed matrix.
    pub fn logical_shape(&self) -> (usize, usize) {
        (self.logical_rows, self.logical_cols)
    }

    /// Programs a weight matrix (serial writes at configuration time,
    /// §3.2.5), applying `noise` to every slice. Matrices smaller than
    /// `dim × dim` are zero-padded.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::InvalidShape`] if the matrix exceeds the
    /// crossbar dimensions.
    pub fn program(&mut self, weights: &FixedMatrix, noise: &NoiseModel) -> Result<()> {
        let dim = self.cfg.dim;
        if weights.rows() > dim || weights.cols() > dim {
            return Err(PumaError::InvalidShape {
                what: format!(
                    "matrix {}x{} exceeds crossbar {}x{}",
                    weights.rows(),
                    weights.cols(),
                    dim,
                    dim
                ),
            });
        }
        self.logical_rows = weights.rows();
        self.logical_cols = weights.cols();
        // Clear, then copy the logical rows × cols: a reprogrammed unit
        // keeps no stale weight in its padding.
        self.weights.fill(0);
        let cols = weights.cols();
        for (r, dst) in self.weights.chunks_exact_mut(dim).take(weights.rows()).enumerate() {
            let src = &weights.as_slice()[r * cols..(r + 1) * cols];
            for (d, s) in dst.iter_mut().zip(src) {
                *d = s.to_bits();
            }
        }
        self.noise = noise.clone();
        self.effective = if noise.is_noiseless() {
            None
        } else {
            Some(reconstruct_effective(&self.programmed_slices(), dim))
        };
        Ok(())
    }

    /// Derives the physical slices (least significant first) from the
    /// stored weights: each cell's offset-binary word split into
    /// `bits_per_cell`-wide levels, then the programming noise applied to
    /// every slice in slice order — the same levels and the same noise
    /// stream as writing the slices at program time.
    fn programmed_slices(&self) -> Vec<CrossbarSlice> {
        let dim = self.cfg.dim;
        let mut slices: Vec<CrossbarSlice> = (0..self.cfg.slices())
            .map(|s| {
                CrossbarSlice::new(dim, self.cfg.bits_per_cell, s)
                    .expect("a validated MVMU config yields valid slices")
            })
            .collect();
        for (idx, &w) in self.weights.iter().enumerate() {
            for (slice, level) in slices.iter_mut().zip(slice_levels(encode_weight(w), &self.cfg)) {
                slice.write_cell(idx / dim, idx % dim, level);
            }
        }
        for slice in &mut slices {
            self.noise.apply(slice);
        }
        slices
    }

    /// The ideal stored weight at `(row, col)` (independent of noise).
    ///
    /// # Panics
    ///
    /// Panics if indices exceed the crossbar dimension.
    pub fn weight(&self, row: usize, col: usize) -> Fixed {
        assert!(row < self.cfg.dim && col < self.cfg.dim, "index out of bounds");
        Fixed::from_bits(self.weights[row * self.cfg.dim + col])
    }

    /// Computes the MVM, choosing the fastest path that is faithful to the
    /// configured noise level: the exact integer path when programming was
    /// noiseless, otherwise the effective-weight path.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::ShapeMismatch`] if `input.len() != dim`.
    pub fn mvm(&self, input: &[Fixed]) -> Result<Vec<Fixed>> {
        if self.effective.is_some() {
            self.mvm_noisy_fast(input)
        } else {
            self.mvm_exact(input)
        }
    }

    /// [`AnalogMvmu::mvm`] written into `out` (`dim` words); the exact
    /// path allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::ShapeMismatch`] if `input` or `out` is not
    /// `dim` long.
    pub fn mvm_into(&self, input: &[Fixed], out: &mut [Fixed]) -> Result<()> {
        if self.effective.is_some() {
            self.check_len(out.len())?;
            out.copy_from_slice(&self.mvm_noisy_fast(input)?);
            Ok(())
        } else {
            self.mvm_exact_into(input, out)
        }
    }

    /// Exact integer path: 64-bit accumulation of `Σ x·w` against the
    /// stored signed weights. This equals the offset-binary crossbar sum
    /// `Σ x·(w + offset)` less its `offset·Σ x` correction, so it is
    /// bit-identical to the bit-serial pipeline on noiseless hardware
    /// (verified by tests), but one pass instead of 16 phases × slices.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::ShapeMismatch`] if `input.len() != dim`.
    pub fn mvm_exact(&self, input: &[Fixed]) -> Result<Vec<Fixed>> {
        let mut out = vec![Fixed::ZERO; self.cfg.dim];
        self.mvm_exact_into(input, &mut out)?;
        Ok(out)
    }

    /// [`AnalogMvmu::mvm_exact`] written into `out` (`dim` words), without
    /// allocating.
    fn mvm_exact_into(&self, input: &[Fixed], out: &mut [Fixed]) -> Result<()> {
        self.check_len(input.len())?;
        self.check_len(out.len())?;
        exact_mvm(out, input, &self.weights);
        Ok(())
    }

    fn check_len(&self, len: usize) -> Result<()> {
        if len == self.cfg.dim {
            Ok(())
        } else {
            Err(PumaError::ShapeMismatch { expected: self.cfg.dim, actual: len })
        }
    }

    /// Reference bit-serial pipeline (Fig. 2b): for each of the 16 input
    /// bits, drive the DACs, read per-slice analog column sums, quantize
    /// through the ADC (clamping at its full-scale range), and shift-and-add
    /// into the accumulator; finally apply the offset correction and narrow
    /// to Q4.12.
    ///
    /// Derives the slices from the stored weights on every call, with the
    /// programming noise of the last [`AnalogMvmu::program`] applied, so it
    /// reads the same (possibly noisy) conductances the effective-weight
    /// paths were built from.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::ShapeMismatch`] if `input.len() != dim`.
    pub fn mvm_bit_serial(&self, input: &[Fixed]) -> Result<Vec<Fixed>> {
        let dim = self.cfg.dim;
        if input.len() != dim {
            return Err(PumaError::ShapeMismatch { expected: dim, actual: input.len() });
        }
        let slices = self.programmed_slices();
        let adc_max = (1u64 << self.cfg.adc_bits()) - 1;
        let mut acc = vec![0i64; dim];
        let mut bits = vec![false; dim];
        for phase in 0..16u32 {
            for (i, x) in input.iter().enumerate() {
                bits[i] = (x.to_bits() as u16) & (1 << phase) != 0;
            }
            // Two's complement: bit 15 carries negative weight.
            let phase_weight: i64 = if phase == 15 { -(1i64 << 15) } else { 1i64 << phase };
            for slice in &slices {
                let sums = slice.column_sums_programmed(&bits);
                let sig = slice.significance() as i64;
                for (col, &current) in sums.iter().enumerate() {
                    // ADC: round to the nearest code, clamp at full scale.
                    let code = current.round().clamp(0.0, adc_max as f64) as i64;
                    acc[col] += phase_weight * sig * code;
                }
            }
        }
        let input_sum: i64 = input.iter().map(|x| x.to_bits() as i64).sum();
        let correction = WEIGHT_OFFSET * input_sum;
        Ok(acc
            .into_iter()
            .map(|a| Fixed::from_bits(narrow_accumulator(a - correction, FRAC_BITS)))
            .collect())
    }

    /// Noisy fast path: one `f64` MVM against the effective weights
    /// reconstructed at program time. Skips per-phase ADC rounding, which
    /// is below the noise floor it models (validated against
    /// [`AnalogMvmu::mvm_bit_serial`] in tests).
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::ShapeMismatch`] if `input.len() != dim`, or
    /// [`PumaError::Execution`] if the MVMU was programmed without noise.
    pub fn mvm_noisy_fast(&self, input: &[Fixed]) -> Result<Vec<Fixed>> {
        let dim = self.cfg.dim;
        if input.len() != dim {
            return Err(PumaError::ShapeMismatch { expected: dim, actual: input.len() });
        }
        let eff = self.effective.as_ref().ok_or_else(|| PumaError::Execution {
            what: "mvm_noisy_fast requires noisy programming".to_string(),
        })?;
        let mut acc = vec![0.0f64; dim];
        for (row, &x) in input.iter().enumerate() {
            let xb = x.to_bits() as f64;
            if xb == 0.0 {
                continue;
            }
            let base = row * dim;
            for (col, a) in acc.iter_mut().enumerate() {
                *a += xb * eff[base + col];
            }
        }
        Ok(acc
            .into_iter()
            .map(|a| Fixed::from_bits(narrow_accumulator(a.round() as i64, FRAC_BITS)))
            .collect())
    }

    /// Degraded analog path: the effective-weight MVM with the
    /// [`NonIdealityConfig`] perturbations applied on top — read-side
    /// conductance noise (resampled per `time_index`), saturating
    /// conductance drift, first-order IR drop along the columns, and ADC
    /// output quantization when [`MvmuConfig::adc_bits_override`] narrows
    /// the converter.
    ///
    /// Deterministic by construction: every perturbation is a
    /// counter-based hash of `(ni.seed, site, cell, time_index)` — see
    /// [`keyed_gaussian`] — so a fixed key replays bit-exactly. With all
    /// knobs zero and no ADC override this is bit-identical to
    /// [`AnalogMvmu::mvm`] (the accumulation is exact in `f64`: products
    /// stay below 2³¹ and sums below 2³⁹, within the 53-bit mantissa).
    ///
    /// `site` identifies the physical crossbar (callers key it
    /// resident-relative so co-tenants and relocation don't shift a
    /// model's noise realization); `time_index` is the simulated cycle of
    /// the MVM relative to the run's start.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::ShapeMismatch`] if `input.len() != dim`.
    pub fn mvm_degraded(
        &self,
        input: &[Fixed],
        ni: &NonIdealityConfig,
        site: u64,
        time_index: u64,
    ) -> Result<Vec<Fixed>> {
        self.mvm_faulted(input, ni, &FaultPlan::none(), site, time_index)
    }

    /// The degraded analog path with a [`FaultPlan`]'s crossbar defects
    /// applied on top of the [`NonIdealityConfig`] perturbations: stuck
    /// cells read a frozen random conductance (no drift, no read noise —
    /// the cell no longer responds to anything), and a dead column's
    /// analog current reads as zero (the digital offset correction still
    /// applies, so the output is `−offset·Σx` narrowed and quantized).
    ///
    /// Defects are persistent: the stuck/dead decisions and the stuck
    /// level are counter-based hashes of `(faults.seed, site, cell)` —
    /// independent of `time_index` — so a fault realization is frozen
    /// per physical crossbar for the whole run, and resident-relative
    /// `site` keying makes it survive relocation. With an empty plan
    /// this is bit-identical to [`AnalogMvmu::mvm_degraded`], and with
    /// an ideal `ni` on top, to [`AnalogMvmu::mvm`].
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::ShapeMismatch`] if `input.len() != dim`.
    pub fn mvm_faulted(
        &self,
        input: &[Fixed],
        ni: &NonIdealityConfig,
        faults: &FaultPlan,
        site: u64,
        time_index: u64,
    ) -> Result<Vec<Fixed>> {
        let dim = self.cfg.dim;
        if input.len() != dim {
            return Err(PumaError::ShapeMismatch { expected: dim, actual: input.len() });
        }
        // Read noise perturbs every slice independently, so one weight
        // sees a sigma of the per-level sigma times sqrt(Σ_s sig_s²).
        let agg_sig = (0..self.cfg.slices())
            .map(|s| f64::from(1u32 << (self.cfg.bits_per_cell * s)).powi(2))
            .sum::<f64>()
            .sqrt();
        let sigma_w =
            NoiseModel::new(ni.read_sigma, 0).level_sigma(self.cfg.bits_per_cell) * agg_sig;
        let tau = if ni.drift_nu > 0.0 {
            let t = time_index as f64;
            t / (t + ni.drift_t0_cycles as f64)
        } else {
            0.0
        };
        let offset = WEIGHT_OFFSET as f64;
        let eff = self.effective.as_deref();
        let mut acc = vec![0.0f64; dim];
        let mut input_sum: i64 = 0;
        let mut abs_sum: i64 = 0;
        for (row, &x) in input.iter().enumerate() {
            let xb = i64::from(x.to_bits());
            if xb == 0 {
                continue;
            }
            input_sum += xb;
            abs_sum += xb.abs();
            let base = row * dim;
            let xf = xb as f64;
            for (col, a) in acc.iter_mut().enumerate() {
                let idx = base + col;
                // A stuck cell reads a frozen conductance: drift and
                // read noise no longer reach it.
                if faults.stuck_cell_rate > 0.0
                    && unit_from(keyed_hash(faults.seed, &[site, idx as u64, TAG_STUCK]))
                        < faults.stuck_cell_rate
                {
                    let level =
                        unit_from(keyed_hash(faults.seed, &[site, idx as u64, TAG_STUCK_LEVEL]));
                    *a += xf * (level * 65535.0 - offset);
                    continue;
                }
                // Base effective weight: write-noisy when programmed so,
                // otherwise the ideal stored weight.
                let w = match eff {
                    Some(e) => e[idx],
                    None => f64::from(self.weights[idx]),
                };
                let mut wp = w;
                if tau > 0.0 {
                    // Conductances decay toward zero, so the signed
                    // weight drifts toward −offset.
                    let u = 0.5 + unit_from(keyed_hash(ni.seed, &[site, idx as u64, TAG_DRIFT]));
                    let m = (1.0 - ni.drift_nu * u * tau).max(0.0);
                    wp = m * (w + offset) - offset;
                }
                if sigma_w > 0.0 {
                    wp += sigma_w
                        * keyed_gaussian(ni.seed, &[site, idx as u64, time_index, TAG_READ_NOISE]);
                }
                *a += xf * wp;
            }
        }
        let correction = offset * input_sum as f64;
        let activity = abs_sum as f64 / (dim as f64 * offset);
        let adc_step = match self.cfg.adc_bits_override {
            Some(b) if b < 16 => 1i64 << (16 - b),
            _ => 1,
        };
        Ok(acc
            .into_iter()
            .enumerate()
            .map(|(col, a)| {
                // A dead column's ADC sees zero analog current; the
                // digital offset correction still subtracts.
                if faults.dead_column_rate > 0.0
                    && unit_from(keyed_hash(faults.seed, &[site, col as u64, TAG_DEAD_COLUMN]))
                        < faults.dead_column_rate
                {
                    let raw = narrow_accumulator((-correction).round() as i64, FRAC_BITS);
                    return Fixed::from_bits(quantize_adc(raw, adc_step));
                }
                // IR drop attenuates the analog column current (offset
                // still encoded); the digital offset correction is exact.
                let att = if ni.ir_drop_alpha > 0.0 {
                    (1.0 - ni.ir_drop_alpha * activity * (col + 1) as f64 / dim as f64).max(0.0)
                } else {
                    1.0
                };
                let analog = att * (a + correction) - correction;
                let raw = narrow_accumulator(analog.round() as i64, FRAC_BITS);
                Fixed::from_bits(quantize_adc(raw, adc_step))
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puma_core::tensor::Matrix;

    fn small_cfg() -> MvmuConfig {
        MvmuConfig { dim: 16, ..MvmuConfig::default() }
    }

    fn test_matrix(rows: usize, cols: usize) -> FixedMatrix {
        Matrix::from_fn(rows, cols, |r, c| {
            0.05 * (r as f32 - 3.0) - 0.07 * (c as f32 - 2.0) + 0.01 * ((r * c) as f32 % 5.0)
        })
        .quantize()
    }

    fn test_input(n: usize) -> Vec<Fixed> {
        (0..n)
            .map(|i| Fixed::from_f32(0.1 * (i as f32 - n as f32 / 2.0) / n as f32 + 0.05))
            .collect()
    }

    #[test]
    fn exact_path_matches_digital_reference() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x = test_input(16);
        let analog = mvmu.mvm_exact(&x).unwrap();
        let digital = m.mvm_exact(&x).unwrap();
        assert_eq!(analog, digital);
    }

    #[test]
    fn bit_serial_matches_exact_when_noiseless() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x = test_input(16);
        assert_eq!(mvmu.mvm_bit_serial(&x).unwrap(), mvmu.mvm_exact(&x).unwrap());
    }

    #[test]
    fn bit_serial_handles_negative_inputs_and_weights() {
        let m = Matrix::from_fn(8, 8, |r, c| if (r + c) % 2 == 0 { -0.5 } else { 0.25 }).quantize();
        let cfg = MvmuConfig { dim: 8, ..MvmuConfig::default() };
        let mut mvmu = AnalogMvmu::new(cfg).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x: Vec<Fixed> =
            (0..8).map(|i| Fixed::from_f32(if i % 2 == 0 { -1.0 } else { 0.5 })).collect();
        assert_eq!(mvmu.mvm_bit_serial(&x).unwrap(), m.mvm_exact(&x).unwrap());
    }

    #[test]
    fn padding_preserves_logical_result() {
        let m = test_matrix(5, 7);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        assert_eq!(mvmu.logical_shape(), (5, 7));
        let mut x = test_input(5);
        x.resize(16, Fixed::ZERO);
        let y = mvmu.mvm(&x).unwrap();
        let reference = m.mvm_exact(&x[..5]).unwrap();
        assert_eq!(&y[..7], reference.as_slice());
        assert!(y[7..].iter().all(|&v| v == Fixed::ZERO));
    }

    #[test]
    fn oversized_matrix_rejected() {
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        assert!(mvmu.program(&test_matrix(17, 4), &NoiseModel::noiseless()).is_err());
    }

    #[test]
    fn wrong_input_length_rejected() {
        let mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        assert!(mvmu.mvm(&test_input(8)).is_err());
        assert!(mvmu.mvm_bit_serial(&test_input(8)).is_err());
    }

    #[test]
    fn weight_readback_roundtrips() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        for r in 0..16 {
            for c in 0..16 {
                assert_eq!(mvmu.weight(r, c), m.get(r, c));
            }
        }
    }

    #[test]
    fn noisy_fast_requires_noise() {
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&test_matrix(16, 16), &NoiseModel::noiseless()).unwrap();
        assert!(mvmu.mvm_noisy_fast(&test_input(16)).is_err());
    }

    #[test]
    fn noisy_paths_agree_closely() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::new(0.1, 99)).unwrap();
        let x = test_input(16);
        let fast = mvmu.mvm_noisy_fast(&x).unwrap();
        let serial = mvmu.mvm_bit_serial(&x).unwrap();
        for (a, b) in fast.iter().zip(serial.iter()) {
            assert!(
                (a.to_f32() - b.to_f32()).abs() < 0.2,
                "fast {} vs bit-serial {}",
                a.to_f32(),
                b.to_f32()
            );
        }
    }

    #[test]
    fn low_noise_output_stays_near_ideal() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::new(0.05, 3)).unwrap();
        let x = test_input(16);
        let noisy = mvmu.mvm(&x).unwrap();
        let ideal = m.mvm_exact(&x).unwrap();
        for (a, b) in noisy.iter().zip(ideal.iter()) {
            assert!((a.to_f32() - b.to_f32()).abs() < 0.1);
        }
    }

    #[test]
    fn degraded_path_with_ideal_config_matches_exact() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x = test_input(16);
        let ni = NonIdealityConfig::ideal();
        assert_eq!(mvmu.mvm_degraded(&x, &ni, 3, 1000).unwrap(), mvmu.mvm_exact(&x).unwrap());
        // A wide ADC override changes nothing either (step 1).
        let wide = MvmuConfig { adc_bits_override: Some(16), ..small_cfg() };
        let mut mvmu = AnalogMvmu::new(wide).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        assert_eq!(mvmu.mvm_degraded(&x, &ni, 3, 1000).unwrap(), mvmu.mvm_exact(&x).unwrap());
    }

    #[test]
    fn degraded_path_replays_bit_exactly() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x = test_input(16);
        let ni = NonIdealityConfig {
            read_sigma: 0.2,
            drift_nu: 0.1,
            ir_drop_alpha: 0.05,
            seed: 42,
            ..NonIdealityConfig::ideal()
        };
        let a = mvmu.mvm_degraded(&x, &ni, 5, 777).unwrap();
        assert_eq!(a, mvmu.mvm_degraded(&x, &ni, 5, 777).unwrap(), "same key replays");
        assert_ne!(a, mvmu.mvm_degraded(&x, &ni, 6, 777).unwrap(), "site shifts realization");
        assert_ne!(a, mvmu.mvm_degraded(&x, &ni, 5, 778).unwrap(), "read noise is per-cycle");
        let reseeded = NonIdealityConfig { seed: 43, ..ni };
        assert_ne!(a, mvmu.mvm_degraded(&x, &reseeded, 5, 777).unwrap(), "seed reseeds");
    }

    #[test]
    fn drift_is_time_saturating_and_pure() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x = test_input(16);
        let ni = NonIdealityConfig {
            drift_nu: 0.2,
            drift_t0_cycles: 1000,
            seed: 9,
            ..NonIdealityConfig::ideal()
        };
        let ideal = mvmu.mvm_exact(&x).unwrap();
        let at0 = mvmu.mvm_degraded(&x, &ni, 0, 0).unwrap();
        assert_eq!(at0, ideal, "no time has passed, no drift");
        let early = mvmu.mvm_degraded(&x, &ni, 0, 100).unwrap();
        let late = mvmu.mvm_degraded(&x, &ni, 0, 1_000_000).unwrap();
        let err = |out: &[Fixed]| {
            out.iter()
                .zip(ideal.iter())
                .map(|(a, b)| (a.to_f32() - b.to_f32()).abs() as f64)
                .sum::<f64>()
        };
        assert!(err(&late) > err(&early), "drift grows with simulated time");
        assert_eq!(late, mvmu.mvm_degraded(&x, &ni, 0, 1_000_000).unwrap(), "pure in time");
    }

    #[test]
    fn ir_drop_attenuates_far_columns_more() {
        // A uniform positive matrix and input: the far column loses more
        // analog current than the near one.
        let m = Matrix::from_fn(16, 16, |_, _| 0.5).quantize();
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x: Vec<Fixed> = (0..16).map(|_| Fixed::from_f32(0.5)).collect();
        let ni = NonIdealityConfig { ir_drop_alpha: 0.1, ..NonIdealityConfig::ideal() };
        let out = mvmu.mvm_degraded(&x, &ni, 0, 0).unwrap();
        let ideal = mvmu.mvm_exact(&x).unwrap();
        let drop0 = (ideal[0].to_f32() - out[0].to_f32()).abs();
        let drop_last = (ideal[15].to_f32() - out[15].to_f32()).abs();
        assert!(drop_last > drop0, "far column must sag more: {drop0} vs {drop_last}");
    }

    #[test]
    fn narrow_adc_quantizes_output_steps() {
        let m = test_matrix(16, 16);
        let cfg = MvmuConfig { adc_bits_override: Some(8), ..small_cfg() };
        let mut mvmu = AnalogMvmu::new(cfg).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x = test_input(16);
        let out = mvmu.mvm_degraded(&x, &NonIdealityConfig::ideal(), 0, 0).unwrap();
        let step = 1 << 8;
        for v in &out {
            assert_eq!(i32::from(v.to_bits()) % step, 0, "output {v:?} off the ADC grid");
        }
        // The quantized output still tracks the exact one within a step.
        for (q, e) in out.iter().zip(mvmu.mvm_exact(&x).unwrap()) {
            assert!((i32::from(q.to_bits()) - i32::from(e.to_bits())).abs() <= step / 2);
        }
    }

    #[test]
    fn degraded_path_stacks_on_write_noise() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::new(0.1, 99)).unwrap();
        let x = test_input(16);
        // With ideal knobs the degraded path reproduces the write-noisy
        // fast path (same effective weights, exact f64 accumulation).
        let ni = NonIdealityConfig::ideal();
        assert_eq!(mvmu.mvm_degraded(&x, &ni, 0, 0).unwrap(), mvmu.mvm_noisy_fast(&x).unwrap());
    }

    #[test]
    fn faulted_path_with_empty_plan_matches_degraded() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x = test_input(16);
        let ni = NonIdealityConfig::ideal();
        let plan = FaultPlan::none();
        assert_eq!(
            mvmu.mvm_faulted(&x, &ni, &plan, 3, 1000).unwrap(),
            mvmu.mvm_exact(&x).unwrap(),
            "empty plan takes the exact path"
        );
        // A bare seed change keeps the plan inert.
        let seeded = FaultPlan { seed: 99, ..plan };
        assert_eq!(
            mvmu.mvm_faulted(&x, &ni, &seeded, 3, 1000).unwrap(),
            mvmu.mvm_exact(&x).unwrap()
        );
    }

    #[test]
    fn stuck_cells_are_persistent_and_replay() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x = test_input(16);
        let ni = NonIdealityConfig::ideal();
        let plan = FaultPlan { stuck_cell_rate: 0.2, seed: 7, ..FaultPlan::none() };
        let a = mvmu.mvm_faulted(&x, &ni, &plan, 5, 0).unwrap();
        assert_ne!(a, mvmu.mvm_exact(&x).unwrap(), "stuck cells corrupt the output");
        assert_eq!(a, mvmu.mvm_faulted(&x, &ni, &plan, 5, 0).unwrap(), "same key replays");
        // Defects are frozen in time (unlike read noise) but move with
        // the site and the seed.
        assert_eq!(a, mvmu.mvm_faulted(&x, &ni, &plan, 5, 12345).unwrap(), "time-invariant");
        assert_ne!(a, mvmu.mvm_faulted(&x, &ni, &plan, 6, 0).unwrap(), "site shifts defects");
        let reseeded = FaultPlan { seed: 8, ..plan };
        assert_ne!(a, mvmu.mvm_faulted(&x, &ni, &reseeded, 5, 0).unwrap(), "seed reseeds");
    }

    #[test]
    fn dead_column_reads_negative_offset_correction() {
        let m = test_matrix(16, 16);
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x = test_input(16);
        let ni = NonIdealityConfig::ideal();
        // Rate 1.0: every column is dead, so every output equals the
        // narrowed −offset·Σx regardless of the weights.
        let plan = FaultPlan { dead_column_rate: 1.0, seed: 3, ..FaultPlan::none() };
        let out = mvmu.mvm_faulted(&x, &ni, &plan, 0, 0).unwrap();
        let input_sum: i64 = x.iter().map(|v| i64::from(v.to_bits())).sum();
        let want = Fixed::from_bits(narrow_accumulator(-32768 * input_sum, FRAC_BITS));
        assert!(out.iter().all(|&v| v == want), "dead columns read −offset correction");
        // A partial rate kills some columns and leaves the rest exact.
        let partial = FaultPlan { dead_column_rate: 0.3, seed: 3, ..FaultPlan::none() };
        let out = mvmu.mvm_faulted(&x, &ni, &partial, 0, 0).unwrap();
        let exact = mvmu.mvm_exact(&x).unwrap();
        let dead = out.iter().zip(&exact).filter(|(a, b)| a != b).count();
        assert!(dead > 0 && dead < 16, "expected a partial kill, got {dead}/16");
    }

    #[test]
    fn reprogramming_a_smaller_matrix_clears_the_padding() {
        let mut mvmu = AnalogMvmu::new(small_cfg()).unwrap();
        mvmu.program(&test_matrix(16, 16), &NoiseModel::noiseless()).unwrap();
        let small = test_matrix(5, 7);
        mvmu.program(&small, &NoiseModel::noiseless()).unwrap();
        assert_eq!(mvmu.logical_shape(), (5, 7));
        for r in 0..16 {
            for c in 0..16 {
                let want = if r < 5 && c < 7 { small.get(r, c) } else { Fixed::ZERO };
                assert_eq!(mvmu.weight(r, c), want, "cell ({r}, {c})");
            }
        }
        let mut padded = FixedMatrix::zeros(16, 16).unwrap();
        for r in 0..5 {
            for c in 0..7 {
                padded.set(r, c, small.get(r, c));
            }
        }
        let x = test_input(16);
        let want = padded.mvm_exact(&x).unwrap();
        assert_eq!(mvmu.mvm(&x).unwrap(), want);
        assert_eq!(mvmu.mvm_bit_serial(&x).unwrap(), want);
    }

    /// A `rows × cols` matrix of raw Q4.12 bits.
    fn raw_matrix(rows: usize, cols: usize, bits: impl Fn(usize, usize) -> i16) -> FixedMatrix {
        let mut m = FixedMatrix::zeros(rows, cols).unwrap();
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, Fixed::from_bits(bits(r, c)));
            }
        }
        m
    }

    #[test]
    fn kernel_instances_agree_at_full_width() {
        // The real crossbar size. On an AVX2 host the dispatcher runs the
        // AVX2 instance, so this test is the portable body's only coverage
        // there.
        let dim = MvmuConfig::default().dim;
        assert_eq!(dim, 128);
        let check = |m: &FixedMatrix, x: &[Fixed], what: &str| {
            let mut mvmu = AnalogMvmu::new(MvmuConfig::default()).unwrap();
            mvmu.program(m, &NoiseModel::noiseless()).unwrap();
            let padded = raw_matrix(dim, dim, |r, c| {
                if r < m.rows() && c < m.cols() {
                    m.get(r, c).to_bits()
                } else {
                    0
                }
            });
            let oracle = padded.mvm_exact(x).unwrap();
            let mut portable = vec![Fixed::ZERO; dim];
            exact_portable(&mut portable, x, &mvmu.weights);
            let mut dispatched = vec![Fixed::ZERO; dim];
            exact_mvm(&mut dispatched, x, &mvmu.weights);
            assert_eq!(portable, oracle, "portable instance, {what}");
            assert_eq!(dispatched, oracle, "dispatched instance, {what}");
        };

        // Column sums near ±2^37: every product is ±2^30 (or just under),
        // and alternating inputs cancel them back to a small exact sum.
        let all_min = raw_matrix(dim, dim, |_, _| i16::MIN);
        let alternating: Vec<Fixed> = (0..dim)
            .map(|i| Fixed::from_bits(if i % 2 == 0 { i16::MIN } else { i16::MAX }))
            .collect();
        for (x, what) in [
            (vec![Fixed::from_bits(i16::MIN); dim], "i16::MIN inputs"),
            (vec![Fixed::from_bits(i16::MAX); dim], "i16::MAX inputs"),
            (alternating, "alternating extremes"),
        ] {
            check(&all_min, &x, what);
        }

        // Pseudo-random raw bits, every other input row zero, then the
        // same matrix at a padded 96×100 logical shape.
        let hash =
            |r: usize, c: usize| ((r * 7919 + c * 104_729) as u32).wrapping_mul(2_654_435_761);
        let full = raw_matrix(dim, dim, |r, c| (hash(r, c) >> 16) as u16 as i16);
        let sparse: Vec<Fixed> = (0..dim)
            .map(|i| Fixed::from_bits(if i % 2 == 0 { 0 } else { (hash(i, 0) >> 8) as u16 as i16 }))
            .collect();
        check(&full, &sparse, "zero input rows");
        check(&full, &vec![Fixed::ZERO; dim], "all-zero input");
        let logical = raw_matrix(96, 100, |r, c| full.get(r, c).to_bits());
        let mut x: Vec<Fixed> =
            (0..96).map(|i| Fixed::from_bits((hash(0, i) >> 16) as u16 as i16)).collect();
        x.resize(dim, Fixed::ZERO);
        check(&logical, &x, "padded 96x100");
    }

    /// The write-noisy unit as it was built when every slice was stored:
    /// per-cell writes of each slice's level, then the noise applied slice
    /// by slice, then `w_eff = Σ_s sig_s · g_s − 32768`.
    fn stored_slice_unit(
        m: &FixedMatrix,
        cfg: &MvmuConfig,
        noise: &NoiseModel,
    ) -> (Vec<CrossbarSlice>, Vec<f64>) {
        let dim = cfg.dim;
        let mut slices: Vec<CrossbarSlice> = (0..cfg.slices())
            .map(|s| CrossbarSlice::new(dim, cfg.bits_per_cell, s).unwrap())
            .collect();
        for row in 0..dim {
            for col in 0..dim {
                let w =
                    if row < m.rows() && col < m.cols() { m.get(row, col).to_bits() } else { 0 };
                for (s, level) in slice_levels(encode_weight(w), cfg).into_iter().enumerate() {
                    slices[s].write_cell(row, col, level);
                }
            }
        }
        for slice in &mut slices {
            noise.apply(slice);
        }
        let mut eff = vec![-32768.0f64; dim * dim];
        for slice in &slices {
            let sig = slice.significance() as f64;
            for row in 0..dim {
                for col in 0..dim {
                    eff[row * dim + col] += sig * slice.conductance(row, col);
                }
            }
        }
        (slices, eff)
    }

    #[test]
    fn write_noise_realization_matches_stored_slices() {
        let m = test_matrix(13, 11);
        let x = test_input(16);
        for bits in [2u32, 6] {
            let cfg = MvmuConfig { bits_per_cell: bits, ..small_cfg() };
            for seed in [1u64, 7, 99] {
                let noise = NoiseModel::new(0.2, seed);
                let mut mvmu = AnalogMvmu::new(cfg).unwrap();
                mvmu.program(&m, &noise).unwrap();
                let (slices, eff) = stored_slice_unit(&m, &cfg, &noise);

                // The effective-weight MVM over the stored-slice weights.
                let mut acc = vec![0.0f64; 16];
                for (row, v) in x.iter().enumerate() {
                    for (col, a) in acc.iter_mut().enumerate() {
                        *a += f64::from(v.to_bits()) * eff[row * 16 + col];
                    }
                }
                let fast: Vec<Fixed> = acc
                    .into_iter()
                    .map(|a| Fixed::from_bits(narrow_accumulator(a.round() as i64, FRAC_BITS)))
                    .collect();
                assert_eq!(mvmu.mvm_noisy_fast(&x).unwrap(), fast, "bits {bits} seed {seed}");
                let ni = NonIdealityConfig::ideal();
                assert_eq!(mvmu.mvm_degraded(&x, &ni, 0, 0).unwrap(), fast);

                // The bit-serial pipeline over the stored slices.
                let adc_max = ((1u64 << cfg.adc_bits()) - 1) as f64;
                let mut acc = vec![0i64; 16];
                for phase in 0..16u32 {
                    let on: Vec<bool> =
                        x.iter().map(|v| (v.to_bits() as u16) & (1 << phase) != 0).collect();
                    let pw = if phase == 15 { -(1i64 << 15) } else { 1i64 << phase };
                    for slice in &slices {
                        let sig = i64::from(slice.significance());
                        for (a, g) in acc.iter_mut().zip(slice.column_sums_programmed(&on)) {
                            *a += pw * sig * g.round().clamp(0.0, adc_max) as i64;
                        }
                    }
                }
                let x_sum: i64 = x.iter().map(|v| i64::from(v.to_bits())).sum();
                let serial: Vec<Fixed> = acc
                    .into_iter()
                    .map(|a| Fixed::from_bits(narrow_accumulator(a - 32768 * x_sum, FRAC_BITS)))
                    .collect();
                assert_eq!(mvmu.mvm_bit_serial(&x).unwrap(), serial, "bits {bits} seed {seed}");
            }
        }
    }

    #[test]
    fn high_noise_on_many_bits_corrupts_output() {
        let m = test_matrix(16, 16);
        let cfg = MvmuConfig { dim: 16, bits_per_cell: 6, ..MvmuConfig::default() };
        let mut mvmu = AnalogMvmu::new(cfg).unwrap();
        mvmu.program(&m, &NoiseModel::new(0.3, 3)).unwrap();
        let x = test_input(16);
        let noisy = mvmu.mvm(&x).unwrap();
        let ideal = m.mvm_exact(&x).unwrap();
        let max_err = noisy
            .iter()
            .zip(ideal.iter())
            .map(|(a, b)| (a.to_f32() - b.to_f32()).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err > 0.2, "expected large corruption, got {max_err}");
    }
}
