//! Property tests on the crossbar substrate: the analog pipeline must be
//! bit-exact with the digital reference when programming is noiseless,
//! regardless of matrix shape, cell precision, or input contents.

use proptest::prelude::*;
use puma_core::config::MvmuConfig;
use puma_core::fixed::Fixed;
use puma_core::tensor::{FixedMatrix, Matrix};
use puma_xbar::slice::{decode_weight, encode_weight, reconstruct_levels, slice_levels};
use puma_xbar::{AnalogMvmu, NoiseModel};

/// Raw Q4.12 bits, with the two's-complement extremes drawn often.
fn raw_bits() -> impl Strategy<Value = i16> {
    (any::<i16>(), 0u8..16).prop_map(|(w, k)| match k {
        0 => i16::MIN,
        1 => i16::MAX,
        _ => w,
    })
}

/// Programs `m` (zero-padded) into a `dim`-square unit of `bits` per cell
/// and returns it with the digital reference output for `x`.
fn padded_unit(m: &FixedMatrix, x: &[Fixed], dim: usize, bits: u32) -> (AnalogMvmu, Vec<Fixed>) {
    let cfg = MvmuConfig { dim, bits_per_cell: bits, ..MvmuConfig::default() };
    let mut mvmu = AnalogMvmu::new(cfg).unwrap();
    mvmu.program(m, &NoiseModel::noiseless()).unwrap();
    let mut padded = FixedMatrix::zeros(dim, dim).unwrap();
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            padded.set(r, c, m.get(r, c));
        }
    }
    let digital = padded.mvm_exact(x).unwrap();
    assert_eq!(&digital[..m.cols()], m.mvm_exact(&x[..m.rows()]).unwrap().as_slice());
    (mvmu, digital)
}

/// Checks the exact and bit-serial paths of a 16×16 unit against the
/// digital reference.
fn assert_analog_equals_digital(m: &FixedMatrix, x: &[Fixed], bits: u32) {
    let (mvmu, digital) = padded_unit(m, x, 16, bits);
    assert_eq!(mvmu.mvm_exact(x).unwrap(), digital, "exact, {bits} bits/cell");
    assert_eq!(mvmu.mvm_bit_serial(x).unwrap(), digital, "bit-serial, {bits} bits/cell");
}

/// A `rows × cols` matrix of the raw Q4.12 bits `raw`, row-major.
fn raw_matrix(rows: usize, cols: usize, raw: &[i16]) -> FixedMatrix {
    let mut m = FixedMatrix::zeros(rows, cols).unwrap();
    for (i, &w) in raw.iter().enumerate() {
        m.set(i / cols, i % cols, Fixed::from_bits(w));
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn weight_slicing_roundtrips(enc in any::<u16>(), bits in 1u32..=6) {
        let cfg = MvmuConfig { bits_per_cell: bits, ..MvmuConfig::default() };
        prop_assert_eq!(reconstruct_levels(&slice_levels(enc, &cfg), &cfg), enc);
    }

    #[test]
    fn offset_encoding_roundtrips(w in any::<i16>()) {
        prop_assert_eq!(decode_weight(encode_weight(w)), w);
    }

    #[test]
    fn analog_equals_digital_for_any_weights(
        seed in 0u64..10_000,
        (rows, cols, raw_weights) in (1usize..=16, 1usize..=16).prop_flat_map(|(r, c)| {
            (Just(r), Just(c), prop::collection::vec(raw_bits(), r * c..r * c + 1))
        }),
        raw_input in prop::collection::vec(raw_bits(), 16..17),
        bits in 1u32..=6,
        (wide_rows, wide_cols, wide_weights) in (1usize..=128, 1usize..=128).prop_flat_map(|(r, c)| {
            (Just(r), Just(c), prop::collection::vec(raw_bits(), r * c..r * c + 1))
        }),
        wide_input in prop::collection::vec(raw_bits(), 128..129),
    ) {
        // Every cell precision, also 3, 5 and 6 bits, whose slices do not
        // divide the 16-bit word. First a smooth in-range 16×16 matrix...
        let dim = 16usize;
        let m = Matrix::from_fn(dim, dim, |r, c| {
            let h = (r as u64 * 31 + c as u64 * 17) ^ seed;
            ((h % 97) as f32 / 97.0 - 0.5) * 2.0
        })
        .quantize();
        let x: Vec<Fixed> = (0..dim)
            .map(|i| Fixed::from_f32((((i as u64) ^ seed) % 23) as f32 / 23.0 - 0.5))
            .collect();
        assert_analog_equals_digital(&m, &x, bits);
        // ...then raw Q4.12 bits (extremes included) in a padded shape.
        let m = raw_matrix(rows, cols, &raw_weights);
        let x: Vec<Fixed> = raw_input.into_iter().map(Fixed::from_bits).collect();
        assert_analog_equals_digital(&m, &x, bits);
        // ...and the exact path at the real crossbar width, where the
        // kernel runs in full column blocks (bit-serial stays at 16×16 for
        // test time).
        let m = raw_matrix(wide_rows, wide_cols, &wide_weights);
        let x: Vec<Fixed> = wide_input.into_iter().map(Fixed::from_bits).collect();
        let (mvmu, digital) = padded_unit(&m, &x, 128, bits);
        prop_assert_eq!(mvmu.mvm_exact(&x).unwrap(), digital);
    }

    #[test]
    fn extreme_inputs_do_not_break_the_pipeline(pattern in 0usize..4) {
        let dim = 8usize;
        let cfg = MvmuConfig { dim, ..MvmuConfig::default() };
        let m = Matrix::from_fn(dim, dim, |r, c| if (r + c) % 2 == 0 { 7.9 } else { -7.9 })
            .quantize();
        let mut mvmu = AnalogMvmu::new(cfg).unwrap();
        mvmu.program(&m, &NoiseModel::noiseless()).unwrap();
        let x: Vec<Fixed> = (0..dim)
            .map(|i| match pattern {
                0 => Fixed::MAX,
                1 => Fixed::MIN,
                2 => if i % 2 == 0 { Fixed::MAX } else { Fixed::MIN },
                _ => Fixed::ZERO,
            })
            .collect();
        // Saturates identically on both paths, never panics.
        prop_assert_eq!(mvmu.mvm_exact(&x).unwrap(), m.mvm_exact(&x).unwrap());
        prop_assert_eq!(mvmu.mvm_bit_serial(&x).unwrap(), m.mvm_exact(&x).unwrap());
    }

    #[test]
    fn noise_bias_is_small(sigma in 0.0f64..0.3, seed in 0u64..100) {
        // Write noise is zero-mean: the average output deviation over a
        // full crossbar stays well below the worst-case single deviation.
        let dim = 16usize;
        let cfg = MvmuConfig { dim, ..MvmuConfig::default() };
        let m = Matrix::from_fn(dim, dim, |_, _| 0.25).quantize();
        let mut mvmu = AnalogMvmu::new(cfg).unwrap();
        mvmu.program(&m, &NoiseModel::new(sigma, seed)).unwrap();
        let x: Vec<Fixed> = vec![Fixed::from_f32(0.5); dim];
        let noisy = mvmu.mvm(&x).unwrap();
        let ideal = m.mvm_exact(&x).unwrap();
        let mean_err: f64 = noisy
            .iter()
            .zip(ideal.iter())
            .map(|(a, b)| (a.to_f32() - b.to_f32()) as f64)
            .sum::<f64>()
            / dim as f64;
        prop_assert!(mean_err.abs() < 0.8, "mean err {mean_err}");
    }
}
