//! Polynomial activation approximation under HE — the alternative the paper
//! argues *against* (§III-A, §VI-C: "fitting the activation function with a
//! higher-order polynomial ... will obviously bring more significant
//! computational cost. There is a tradeoff between accuracy and efficiency").
//!
//! Implemented so the trade-off can be measured: a quadratic least-squares
//! fit of the sigmoid evaluated homomorphically (`c2·x² + c1·x + c0`), to be
//! compared against the enclave's exact sigmoid.

use crate::crt::{CrtCiphertext, CrtPlainSystem};
use crate::image::EncryptedMap;
use crate::ops::OpCounter;
use hesgx_bfv::error::Result;
use hesgx_bfv::prelude::EvaluationKeys;

/// Fixed-point quadratic `y ≈ (c2·x² + c1·x + c0) / denominator`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuadraticFit {
    /// Constant coefficient (pre-scaled).
    pub c0: i64,
    /// Linear coefficient (pre-scaled).
    pub c1: i64,
    /// Quadratic coefficient (pre-scaled).
    pub c2: i64,
    /// Common denominator of the fixed-point representation.
    pub denominator: i64,
}

impl QuadraticFit {
    /// Evaluates the fit on a plaintext integer (the reference semantics for
    /// the homomorphic version *before* the final division, which HE cannot
    /// perform — the caller rescales after decryption or in the enclave).
    pub fn eval_numerator(&self, x: i64) -> i64 {
        self.c2 * x * x + self.c1 * x + self.c0
    }
}

/// Least-squares quadratic fit of the sigmoid over `x ∈ [-range, range]`
/// (float domain), quantized with `scale` so the fit applies to integers
/// `x_int = x · in_scale`:
///
/// `sigmoid(x_int / in_scale) · out_scale ≈ eval_numerator(x_int) / denominator`.
pub fn fit_sigmoid_quadratic(
    range: f64,
    in_scale: f64,
    out_scale: f64,
    scale: i64,
) -> QuadraticFit {
    // Sample the target on a grid and solve the 3×3 normal equations.
    let samples = 401;
    let (mut s0, mut s1, mut s2, mut s3, mut s4) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
    let (mut t0, mut t1, mut t2) = (0.0f64, 0.0, 0.0);
    for i in 0..samples {
        let x = -range + 2.0 * range * i as f64 / (samples - 1) as f64;
        let y = 1.0 / (1.0 + (-x).exp());
        let (x1, x2, x3, x4) = (x, x * x, x * x * x, x * x * x * x);
        s0 += 1.0;
        s1 += x1;
        s2 += x2;
        s3 += x3;
        s4 += x4;
        t0 += y;
        t1 += y * x1;
        t2 += y * x2;
    }
    // Solve [s0 s1 s2; s1 s2 s3; s2 s3 s4] [a0 a1 a2]^T = [t0 t1 t2]^T.
    let m = [[s0, s1, s2], [s1, s2, s3], [s2, s3, s4]];
    let det = det3(&m);
    let a0 = det3(&[[t0, s1, s2], [t1, s2, s3], [t2, s3, s4]]) / det;
    let a1 = det3(&[[s0, t0, s2], [s1, t1, s3], [s2, t2, s4]]) / det;
    let a2 = det3(&[[s0, s1, t0], [s1, s2, t1], [s2, s3, t2]]) / det;
    // y(x) ≈ a0 + a1 x + a2 x².  With x = x_int/in_scale and output × out_scale:
    // out ≈ out_scale·a0 + (out_scale·a1/in_scale)·x_int + (out_scale·a2/in_scale²)·x_int².
    QuadraticFit {
        c0: (out_scale * a0 * scale as f64).round() as i64,
        c1: (out_scale * a1 / in_scale * scale as f64).round() as i64,
        c2: (out_scale * a2 / (in_scale * in_scale) * scale as f64).round() as i64,
        denominator: scale,
    }
}

fn det3(m: &[[f64; 3]; 3]) -> f64 {
    m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
}

/// Evaluates the quadratic numerator homomorphically on one ciphertext:
/// `c2·x² + c1·x + c0` (one `C×C` multiply + relinearization + scalar ops).
///
/// # Errors
///
/// Propagates homomorphic-operation failures.
pub fn he_quadratic(
    sys: &CrtPlainSystem,
    x: &CrtCiphertext,
    fit: &QuadraticFit,
    evk: &[EvaluationKeys],
    counter: &mut OpCounter,
) -> Result<CrtCiphertext> {
    let sq = sys.square(x)?;
    counter.ct_ct_mul += 1;
    let sq = sys.relinearize(&sq, evk)?;
    counter.relin += 1;
    let mut acc = sys.mul_scalar(&sq, fit.c2)?;
    counter.ct_pt_mul += 1;
    let lin = sys.mul_scalar(x, fit.c1)?;
    counter.ct_pt_mul += 1;
    sys.add_inplace(&mut acc, &lin)?;
    counter.ct_ct_add += 1;
    let acc = sys.add_scalar(&acc, fit.c0)?;
    counter.ct_pt_add += 1;
    Ok(acc)
}

/// Applies [`he_quadratic`] to every cell of a feature map.
///
/// # Errors
///
/// Propagates homomorphic-operation failures.
pub fn he_quadratic_map(
    sys: &CrtPlainSystem,
    input: &EncryptedMap,
    fit: &QuadraticFit,
    evk: &[EvaluationKeys],
    counter: &mut OpCounter,
) -> Result<EncryptedMap> {
    let (c, h, w) = input.shape();
    let mut cells = Vec::with_capacity(input.cells().len());
    for cell in input.cells() {
        cells.push(he_quadratic(sys, cell, fit, evk, counter)?);
    }
    Ok(EncryptedMap::new(c, h, w, cells))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::ParExec;
    use hesgx_crypto::rng::ChaChaRng;

    #[test]
    fn fit_approximates_sigmoid_near_zero() {
        // Over [-4, 4] a quadratic tracks the sigmoid to within ~0.1.
        let fit = fit_sigmoid_quadratic(4.0, 1.0, 1.0, 1 << 20);
        for x in [-3.0f64, -1.0, 0.0, 1.0, 3.0] {
            let approx = fit.eval_numerator(x as i64) as f64 / fit.denominator as f64;
            let exact = 1.0 / (1.0 + (-x).exp());
            assert!(
                (approx - exact).abs() < 0.12,
                "x={x}: approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn fit_degrades_away_from_fit_range() {
        // The paper's point: low-order fits are poor outside their range.
        let fit = fit_sigmoid_quadratic(4.0, 1.0, 1.0, 1 << 20);
        let x = 12.0f64;
        let approx = fit.eval_numerator(x as i64) as f64 / fit.denominator as f64;
        let exact = 1.0 / (1.0 + (-x).exp());
        assert!(
            (approx - exact).abs() > 0.3,
            "should be badly wrong at x=12"
        );
    }

    #[test]
    fn he_quadratic_matches_plain_numerator() {
        let sys = CrtPlainSystem::new(256, &[12289, 13313, 15361]).unwrap();
        let mut rng = ChaChaRng::from_seed(88);
        let keys = sys.generate_keys(&mut rng);
        let fit = QuadraticFit {
            c0: 250,
            c1: 63,
            c2: -4,
            denominator: 1000,
        };
        for x in [-30i64, -5, 0, 7, 25] {
            let ct = sys.encrypt_slots(&[x], &keys.public, &mut rng).unwrap();
            let mut counter = OpCounter::default();
            let out = he_quadratic(&sys, &ct, &fit, &keys.evaluation, &mut counter).unwrap();
            let got = sys.decrypt_slots(&out, &keys.secret).unwrap()[0];
            assert_eq!(got, fit.eval_numerator(x) as i128, "x = {x}");
            assert_eq!(counter.ct_ct_mul, 1);
            assert_eq!(counter.relin, 1);
        }
    }

    #[test]
    fn approx_costs_more_he_ops_than_exact_sgx() {
        // The trade-off: the HE approximation pays a C×C multiply per value;
        // the exact SGX path pays none (only dec/enc inside the enclave).
        let sys = CrtPlainSystem::new(256, &[12289, 13313]).unwrap();
        let mut rng = ChaChaRng::from_seed(89);
        let keys = sys.generate_keys(&mut rng);
        let images = vec![vec![1i64, 2, 3, 4]];
        let map =
            EncryptedMap::encrypt_images(&sys, &images, 2, &keys.public, &rng, &ParExec::serial())
                .unwrap();
        let fit = QuadraticFit {
            c0: 1,
            c1: 1,
            c2: 1,
            denominator: 1,
        };
        let mut counter = OpCounter::default();
        let _ = he_quadratic_map(&sys, &map, &fit, &keys.evaluation, &mut counter).unwrap();
        assert_eq!(counter.ct_ct_mul, 4);
        assert_eq!(counter.relin, 4);
    }
}
