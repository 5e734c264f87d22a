//! Negacyclic number-theoretic transform over `Z_p[x]/(x^n + 1)`.
//!
//! The classic Longa–Naehrig formulation: the forward transform folds the
//! multiplication by powers of ψ (a primitive 2n-th root of unity) into the
//! butterflies, so polynomial multiplication modulo `x^n + 1` is a pointwise
//! product between forward transforms.

use crate::arith::{
    add_mod, inv_mod, mul_mod, mul_mod_shoup, mul_mod_shoup_lazy, primitive_root_of_unity,
    shoup_precompute, sub_mod, BarrettU128,
};
use hesgx_obs::prof;

/// Precomputed twiddle tables for one `(n, p)` pair.
///
/// Twiddle factors carry Shoup precomputations, so every butterfly costs two
/// multiplications and no division. The production [`NttTable::forward`] /
/// [`NttTable::inverse`] kernels use Harvey-style lazy reduction: values ride
/// through the butterfly passes in `[0, 4p)` (forward) / `[0, 2p)` (inverse)
/// against the precomputed `2p` bound, and a single correction sweep at the
/// end restores the canonical range. The pre-lazy eager kernels are retained
/// as `*_reference` oracles for the differential suite and the bench
/// baseline. See DESIGN.md §16 for the value-range contract per pass.
#[derive(Debug, Clone)]
pub struct NttTable {
    n: usize,
    p: u64,
    /// `2p`, the lazy-reduction bound used by every butterfly pass.
    two_p: u64,
    /// Barrett reducer for the pointwise product stage (replaces `u128 %`).
    barrett: BarrettU128,
    /// ψ^bitrev(i) for the forward (decimation-in-time, CT) transform.
    root_powers: Vec<u64>,
    /// Shoup constants for `root_powers`.
    root_powers_shoup: Vec<u64>,
    /// ψ^{-bitrev(i)} for the inverse (GS) transform.
    inv_root_powers: Vec<u64>,
    /// Shoup constants for `inv_root_powers`.
    inv_root_powers_shoup: Vec<u64>,
    /// n^{-1} mod p.
    inv_n: u64,
    /// Shoup constant for `inv_n`.
    inv_n_shoup: u64,
}

pub(crate) fn bit_reverse(mut x: usize, log_n: u32) -> usize {
    let mut r = 0;
    for _ in 0..log_n {
        r = (r << 1) | (x & 1);
        x >>= 1;
    }
    r
}

impl NttTable {
    /// Builds tables for degree `n` (a power of two) and prime `p ≡ 1 mod 2n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or `p ≢ 1 (mod 2n)`.
    pub fn new(n: usize, p: u64) -> Self {
        assert!(n.is_power_of_two(), "degree must be a power of two");
        assert_eq!(
            (p - 1) % (2 * n as u64),
            0,
            "prime must be congruent to 1 mod 2n"
        );
        let log_n = n.trailing_zeros();
        let psi = primitive_root_of_unity(p, 2 * n as u64);
        let psi_inv = inv_mod(psi, p).expect("psi invertible");

        let mut root_powers = vec![0u64; n];
        let mut inv_root_powers = vec![0u64; n];
        let mut power = 1u64;
        let mut powers = vec![0u64; n];
        for item in powers.iter_mut() {
            *item = power;
            power = mul_mod(power, psi, p);
        }
        let mut inv_power = 1u64;
        let mut inv_powers = vec![0u64; n];
        for item in inv_powers.iter_mut() {
            *item = inv_power;
            inv_power = mul_mod(inv_power, psi_inv, p);
        }
        for i in 0..n {
            root_powers[i] = powers[bit_reverse(i, log_n)];
            inv_root_powers[i] = inv_powers[bit_reverse(i, log_n)];
        }

        let inv_n = inv_mod(n as u64, p).expect("n invertible mod p");
        let root_powers_shoup = root_powers
            .iter()
            .map(|&w| shoup_precompute(w, p))
            .collect();
        let inv_root_powers_shoup = inv_root_powers
            .iter()
            .map(|&w| shoup_precompute(w, p))
            .collect();
        NttTable {
            n,
            p,
            two_p: 2 * p,
            barrett: BarrettU128::new(p),
            root_powers,
            root_powers_shoup,
            inv_root_powers,
            inv_root_powers_shoup,
            inv_n,
            inv_n_shoup: shoup_precompute(inv_n, p),
        }
    }

    /// The transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the transform length is zero (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The prime modulus.
    pub fn modulus(&self) -> u64 {
        self.p
    }

    /// In-place forward negacyclic NTT (coefficient order → bit-reversed
    /// evaluation order), Harvey lazy-reduction kernel.
    ///
    /// Accepts any input values below `4p` (canonical inputs included) and
    /// produces fully reduced canonical outputs, bit-identical to
    /// [`NttTable::forward_reference`] on canonical inputs.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != n`.
    // hesgx-lint: hot
    pub fn forward(&self, values: &mut [u64]) {
        let _prof = prof::span("bfv.ntt.forward");
        self.forward_lazy(values);
        // Single correction sweep: [0, 4p) -> [0, p).
        let (p, two_p) = (self.p, self.two_p);
        for v in values.iter_mut() {
            let mut x = *v;
            let d = x.wrapping_sub(two_p);
            x = d.wrapping_add(two_p & (((d as i64) >> 63) as u64));
            let d = x.wrapping_sub(p);
            *v = d.wrapping_add(p & (((d as i64) >> 63) as u64));
        }
    }

    /// Forward butterfly passes only: inputs in `[0, 4p)`, outputs in
    /// `[0, 4p)`. Each pass reduces the upper operand into `[0, 2p)` with one
    /// conditional `2p` subtraction and takes the twiddle product through the
    /// lazy Shoup form, so no butterfly ever fully reduces.
    // hesgx-lint: hot
    fn forward_lazy(&self, values: &mut [u64]) {
        assert_eq!(values.len(), self.n);
        let p = self.p;
        let two_p = self.two_p;
        let mut t = self.n;
        let mut m = 1;
        while m < self.n {
            t >>= 1;
            for (i, block) in values.chunks_exact_mut(2 * t).enumerate() {
                let s = self.root_powers[m + i];
                let s_shoup = self.root_powers_shoup[m + i];
                let (left, right) = block.split_at_mut(t);
                for (a, b) in left.iter_mut().zip(right.iter_mut()) {
                    // u: [0, 4p) -> [0, 2p); v: lazy product in [0, 2p).
                    let d = (*a).wrapping_sub(two_p);
                    let u = d.wrapping_add(two_p & (((d as i64) >> 63) as u64));
                    let v = mul_mod_shoup_lazy(*b, s, s_shoup, p);
                    *a = u + v;
                    *b = u + two_p - v;
                }
            }
            m <<= 1;
        }
    }

    /// In-place inverse negacyclic NTT (bit-reversed evaluation order →
    /// coefficient order), Harvey lazy-reduction kernel.
    ///
    /// Accepts any input values below `2p` and produces fully reduced
    /// canonical outputs, bit-identical to [`NttTable::inverse_reference`]
    /// on canonical inputs.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != n`.
    // hesgx-lint: hot
    pub fn inverse(&self, values: &mut [u64]) {
        let _prof = prof::span("bfv.ntt.inverse");
        self.inverse_lazy(values);
        self.scale_inv_n(values);
    }

    /// Inverse (GS) butterfly passes only: inputs in `[0, 2p)`, outputs in
    /// `[0, 2p)`. The sum arm takes one conditional `2p` subtraction; the
    /// difference arm shifts by `2p` before the lazy twiddle product.
    // hesgx-lint: hot
    fn inverse_lazy(&self, values: &mut [u64]) {
        assert_eq!(values.len(), self.n);
        let p = self.p;
        let two_p = self.two_p;
        let mut t = 1;
        let mut m = self.n;
        while m > 1 {
            let h = m >> 1;
            for (i, block) in values.chunks_exact_mut(2 * t).enumerate() {
                let s = self.inv_root_powers[h + i];
                let s_shoup = self.inv_root_powers_shoup[h + i];
                let (left, right) = block.split_at_mut(t);
                for (a, b) in left.iter_mut().zip(right.iter_mut()) {
                    let u = *a;
                    let v = *b;
                    // u + v in [0, 4p): one conditional subtract -> [0, 2p).
                    let d = (u + v).wrapping_sub(two_p);
                    *a = d.wrapping_add(two_p & (((d as i64) >> 63) as u64));
                    // u + 2p - v in (0, 4p) < 2^64; lazy product -> [0, 2p).
                    *b = mul_mod_shoup_lazy(u + two_p - v, s, s_shoup, p);
                }
            }
            t <<= 1;
            m = h;
        }
    }

    /// Final `n^{-1}` scaling with a single correction: `[0, 2p)` inputs to
    /// canonical `[0, p)` outputs.
    // hesgx-lint: hot
    fn scale_inv_n(&self, values: &mut [u64]) {
        let p = self.p;
        for v in values.iter_mut() {
            let r = mul_mod_shoup_lazy(*v, self.inv_n, self.inv_n_shoup, p);
            let d = r.wrapping_sub(p);
            *v = d.wrapping_add(p & (((d as i64) >> 63) as u64));
        }
    }

    /// Negacyclic convolution of `a` and `b` (both length `n`, coefficients
    /// mod `p`), returning the product modulo `x^n + 1`.
    ///
    /// The whole pipeline stays lazy: both forward transforms leave values
    /// in `[0, 4p)`, the pointwise stage Barrett-reduces the `< 16p^2`
    /// products straight to canonical form (no `u128 %` division), and only
    /// the inverse side corrects.
    // hesgx-lint: hot
    pub fn negacyclic_multiply(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let _prof = prof::span("bfv.ntt.negacyclic");
        let mut fa = a.to_vec();
        let mut fb = b.to_vec();
        self.forward_lazy(&mut fa);
        self.forward_lazy(&mut fb);
        for (x, y) in fa.iter_mut().zip(fb.iter()) {
            *x = self.barrett.mul_mod(*x, *y);
        }
        self.inverse_lazy(&mut fa);
        self.scale_inv_n(&mut fa);
        fa
    }

    /// Pre-lazy eager forward transform (every butterfly fully reduces).
    /// Retained as the differential-test oracle and bench baseline.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != n`.
    pub fn forward_reference(&self, values: &mut [u64]) {
        assert_eq!(values.len(), self.n);
        let p = self.p;
        let mut t = self.n;
        let mut m = 1;
        while m < self.n {
            t >>= 1;
            for (i, block) in values.chunks_exact_mut(2 * t).enumerate() {
                let s = self.root_powers[m + i];
                let s_shoup = self.root_powers_shoup[m + i];
                let (left, right) = block.split_at_mut(t);
                for (a, b) in left.iter_mut().zip(right.iter_mut()) {
                    let u = *a;
                    let v = mul_mod_shoup(*b, s, s_shoup, p);
                    *a = add_mod(u, v, p);
                    *b = sub_mod(u, v, p);
                }
            }
            m <<= 1;
        }
    }

    /// Pre-lazy eager inverse transform (every butterfly fully reduces).
    /// Retained as the differential-test oracle and bench baseline.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != n`.
    pub fn inverse_reference(&self, values: &mut [u64]) {
        assert_eq!(values.len(), self.n);
        let p = self.p;
        let mut t = 1;
        let mut m = self.n;
        while m > 1 {
            let h = m >> 1;
            for (i, block) in values.chunks_exact_mut(2 * t).enumerate() {
                let s = self.inv_root_powers[h + i];
                let s_shoup = self.inv_root_powers_shoup[h + i];
                let (left, right) = block.split_at_mut(t);
                for (a, b) in left.iter_mut().zip(right.iter_mut()) {
                    let u = *a;
                    let v = *b;
                    *a = add_mod(u, v, p);
                    *b = mul_mod_shoup(sub_mod(u, v, p), s, s_shoup, p);
                }
            }
            t <<= 1;
            m = h;
        }
        for v in values.iter_mut() {
            *v = mul_mod_shoup(*v, self.inv_n, self.inv_n_shoup, p);
        }
    }

    /// Pre-lazy eager negacyclic convolution (`u128 %` pointwise stage).
    /// Retained as the differential-test oracle and bench baseline.
    pub fn negacyclic_multiply_reference(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut fa = a.to_vec();
        let mut fb = b.to_vec();
        self.forward_reference(&mut fa);
        self.forward_reference(&mut fb);
        for (x, y) in fa.iter_mut().zip(fb.iter()) {
            *x = mul_mod(*x, *y, self.p);
        }
        self.inverse_reference(&mut fa);
        fa
    }

    /// The Barrett reducer bound to this table's modulus (shared with the
    /// RNS pointwise kernels in `poly.rs`).
    #[inline]
    pub(crate) fn barrett(&self) -> BarrettU128 {
        self.barrett
    }
}

/// Schoolbook negacyclic multiplication (test oracle, O(n^2)).
pub fn negacyclic_multiply_naive(a: &[u64], b: &[u64], p: u64) -> Vec<u64> {
    let n = a.len();
    assert_eq!(b.len(), n);
    let mut out = vec![0u64; n];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            let prod = mul_mod(ai, bj, p);
            let k = i + j;
            if k < n {
                out[k] = add_mod(out[k], prod, p);
            } else {
                out[k - n] = sub_mod(out[k - n], prod, p);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hesgx_crypto::rng::ChaChaRng;

    #[test]
    fn forward_inverse_roundtrip() {
        let n = 256;
        let p = crate::arith::largest_prime_congruent_one(45, 2 * n as u64);
        let table = NttTable::new(n, p);
        let mut rng = ChaChaRng::from_seed(1);
        let original: Vec<u64> = (0..n).map(|_| rng.next_below(p)).collect();
        let mut values = original.clone();
        table.forward(&mut values);
        assert_ne!(values, original);
        table.inverse(&mut values);
        assert_eq!(values, original);
    }

    #[test]
    fn multiply_matches_naive() {
        for n in [8usize, 64, 256] {
            let p = crate::arith::largest_prime_congruent_one(40, 2 * n as u64);
            let table = NttTable::new(n, p);
            let mut rng = ChaChaRng::from_seed(n as u64);
            let a: Vec<u64> = (0..n).map(|_| rng.next_below(p)).collect();
            let b: Vec<u64> = (0..n).map(|_| rng.next_below(p)).collect();
            assert_eq!(
                table.negacyclic_multiply(&a, &b),
                negacyclic_multiply_naive(&a, &b, p),
                "degree {n}"
            );
        }
    }

    #[test]
    fn negacyclic_wraparound_sign() {
        // (x^(n-1)) * x = x^n = -1 mod x^n + 1.
        let n = 16;
        let p = crate::arith::largest_prime_congruent_one(30, 2 * n as u64);
        let table = NttTable::new(n, p);
        let mut a = vec![0u64; n];
        a[n - 1] = 1;
        let mut b = vec![0u64; n];
        b[1] = 1;
        let prod = table.negacyclic_multiply(&a, &b);
        let mut expect = vec![0u64; n];
        expect[0] = p - 1;
        assert_eq!(prod, expect);
    }

    #[test]
    fn multiply_by_one_is_identity() {
        let n = 32;
        let p = crate::arith::largest_prime_congruent_one(30, 2 * n as u64);
        let table = NttTable::new(n, p);
        let mut rng = ChaChaRng::from_seed(7);
        let a: Vec<u64> = (0..n).map(|_| rng.next_below(p)).collect();
        let mut one = vec![0u64; n];
        one[0] = 1;
        assert_eq!(table.negacyclic_multiply(&a, &one), a);
    }
}
