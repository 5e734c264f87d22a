//! 64-bit modular arithmetic, deterministic Miller–Rabin, and NTT-friendly
//! prime generation.
//!
//! Everything here operates on moduli below 2^62 so that products fit in
//! `u128` without overflow.

/// Maximum supported modulus bit size for a single RNS limb.
pub const MAX_LIMB_BITS: u32 = 62;

/// Computes `a * b mod m` using a 128-bit intermediate.
#[inline]
pub fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    (a as u128 * b as u128 % m as u128) as u64
}

/// Computes `a + b mod m` for `a, b < m` (branchless — the inputs are
/// uniformly random in the NTT hot loops, so a compare-branch would
/// mispredict half the time).
#[inline]
pub fn add_mod(a: u64, b: u64, m: u64) -> u64 {
    let s = a + b; // cannot overflow: a, b < m <= 2^62
    let d = s.wrapping_sub(m);
    // mask = all-ones iff d underflowed (s < m).
    let mask = ((d as i64) >> 63) as u64;
    d.wrapping_add(m & mask)
}

/// Computes `a - b mod m` for `a, b < m` (branchless).
#[inline]
pub fn sub_mod(a: u64, b: u64, m: u64) -> u64 {
    let d = a.wrapping_sub(b);
    let mask = ((d as i64) >> 63) as u64;
    d.wrapping_add(m & mask)
}

/// Precomputes the Shoup constant `floor(w · 2^64 / p)` for fast repeated
/// multiplication by the fixed operand `w` modulo `p`.
#[inline]
pub fn shoup_precompute(w: u64, p: u64) -> u64 {
    (((w as u128) << 64) / p as u128) as u64
}

/// Shoup modular multiplication: `x · w mod p` using the precomputed
/// `w_shoup = floor(w · 2^64 / p)`. Two multiplications, no division.
///
/// Requires `p < 2^63`; the result is fully reduced.
#[inline]
pub fn mul_mod_shoup(x: u64, w: u64, w_shoup: u64, p: u64) -> u64 {
    let r = mul_mod_shoup_lazy(x, w, w_shoup, p);
    // r < 2p; reduce branchlessly.
    let d = r.wrapping_sub(p);
    let mask = ((d as i64) >> 63) as u64;
    d.wrapping_add(p & mask)
}

/// Lazy (Harvey-style) Shoup multiplication: returns `x · w mod p` reduced
/// only into `[0, 2p)`, skipping the final conditional subtraction.
///
/// Sound for **any** `x < 2^64` (not just canonical inputs): with
/// `w_shoup = floor(w·2^64/p)` the quotient estimate `q = floor(x·w_shoup /
/// 2^64)` satisfies `q > x·w/p − 2`, so `r = x·w − q·p < 2p`, and `q ≤
/// x·w/p` keeps `r ≥ 0`. This is what lets the NTT butterflies defer
/// reductions across whole passes (DESIGN.md §16).
#[inline]
pub fn mul_mod_shoup_lazy(x: u64, w: u64, w_shoup: u64, p: u64) -> u64 {
    let q = ((x as u128 * w_shoup as u128) >> 64) as u64;
    x.wrapping_mul(w).wrapping_sub(q.wrapping_mul(p))
}

/// Shoup multiplication that keeps the quotient: returns
/// `(floor(x·w / p), x·w mod p)` for `w < p` with `w_shoup` as in
/// [`shoup_precompute`]. The lazy quotient estimate is the true quotient or
/// one below it (see [`mul_mod_shoup_lazy`]), so one compare corrects both.
#[inline]
pub fn mul_div_rem_shoup(x: u64, w: u64, w_shoup: u64, p: u64) -> (u64, u64) {
    let q = ((x as u128 * w_shoup as u128) >> 64) as u64;
    let r = x.wrapping_mul(w).wrapping_sub(q.wrapping_mul(p));
    if r >= p {
        (q + 1, r - p)
    } else {
        (q, r)
    }
}

/// High 128 bits of the 256-bit product `a · b`.
#[inline]
fn mulhi_u128(a: u128, b: u128) -> u128 {
    const M: u128 = u64::MAX as u128;
    let (a1, a0) = (a >> 64, a & M);
    let (b1, b0) = (b >> 64, b & M);
    let lo = a0 * b0;
    let mid1 = a0 * b1;
    let mid2 = a1 * b0;
    let carry = (lo >> 64) + (mid1 & M) + (mid2 & M);
    a1 * b1 + (mid1 >> 64) + (mid2 >> 64) + (carry >> 64)
}

/// Barrett reducer for 128-bit intermediates modulo an odd `p < 2^62`.
///
/// `u128 %` lowers to a software division (`__umodti3`, tens of cycles);
/// in the NTT pointwise stage that single division rivals the cost of a
/// whole butterfly pass. Barrett replaces it with two wide multiplies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrettU128 {
    p: u64,
    /// `floor(2^128 / p)`; for odd `p` this equals `floor((2^128−1)/p)`,
    /// which is computable without 256-bit arithmetic.
    ratio: u128,
    /// `floor(2^64 / p)` (again `= floor((2^64−1)/p)` for odd `p`), used by
    /// the narrow-operand fast path in [`Self::mul_mod`]: when both operands
    /// fit 32 bits the product fits `u64` and a single 64×64→128 high
    /// multiply replaces the two 128-bit wide multiplies of [`Self::reduce`].
    ratio64: u64,
}

impl BarrettU128 {
    /// Precomputes the reduction constant for odd `p` with `3 ≤ p < 2^62`.
    ///
    /// # Panics
    ///
    /// Panics when `p` is even or out of range (the NTT moduli are odd
    /// primes below [`MAX_LIMB_BITS`] bits, so this never fires in use).
    pub fn new(p: u64) -> Self {
        assert!(p >= 3 && !p.is_multiple_of(2), "p must be odd >= 3");
        assert!(p < 1 << MAX_LIMB_BITS, "p above {MAX_LIMB_BITS} bits");
        Self {
            p,
            ratio: u128::MAX / p as u128,
            ratio64: u64::MAX / p,
        }
    }

    /// The modulus this reducer was built for.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.p
    }

    /// Fully reduces any `x < 2^128` to the canonical range `[0, p)`.
    ///
    /// The quotient estimate `q = floor(x·ratio / 2^128)` is off by at most
    /// one from `floor(x/p)` (since `ratio ≥ 2^128/p − 1` and `x < 2^128`),
    /// so `x − q·p < 2p` and one conditional subtraction finishes the job.
    #[inline]
    pub fn reduce(&self, x: u128) -> u64 {
        let q = mulhi_u128(x, self.ratio);
        let mut r = (x - q * self.p as u128) as u64;
        if r >= self.p {
            r -= self.p;
        }
        r
    }

    /// `z / p` for `z < p` as a 64-bit fixed-point fraction, rounded down:
    /// `⌊z·⌊2^128/p⌋ / 2^64⌋`, which lies in `(2^64·z/p − 2, 2^64·z/p]`
    /// (the inner floor loses less than `z/2^64 < 1`, the outer less than 1).
    #[inline]
    pub fn frac64(&self, z: u64) -> u64 {
        let (hi, lo) = ((self.ratio >> 64) as u64, self.ratio as u64);
        z * hi + ((z as u128 * lo as u128) >> 64) as u64
    }

    /// `a · b mod p` for arbitrary `u64` operands (a product of two `u64`
    /// values always fits `u128`, so lazy `[0, 4p)` operands are covered).
    ///
    /// When both operands fit 32 bits — always true in production, where the
    /// workspace moduli stay below [`MAX_LIMB_BITS`] bits and operands are
    /// canonical or lazily `< 4p` — the product fits `u64` and the reduction
    /// runs against `ratio64` with one 64×64→128 high multiply. The quotient
    /// estimate `q = floor(x·ratio64 / 2^64)` satisfies
    /// `floor(x/p) − 1 ≤ q ≤ floor(x/p)` for `x < 2^64`, so the remainder
    /// lands in `[0, 2p)` and one conditional subtraction makes it
    /// canonical — bit-identical to the wide path by exactness.
    #[inline]
    pub fn mul_mod(&self, a: u64, b: u64) -> u64 {
        if (a | b) >> 32 == 0 {
            let x = a * b;
            let q = ((x as u128 * self.ratio64 as u128) >> 64) as u64;
            let mut r = x.wrapping_sub(q.wrapping_mul(self.p));
            if r >= self.p {
                r -= self.p;
            }
            r
        } else {
            self.reduce(a as u128 * b as u128)
        }
    }
}

/// Computes `a^e mod m`.
pub fn pow_mod(mut a: u64, mut e: u64, m: u64) -> u64 {
    let mut result = 1 % m;
    a %= m;
    while e > 0 {
        if e & 1 == 1 {
            result = mul_mod(result, a, m);
        }
        a = mul_mod(a, a, m);
        e >>= 1;
    }
    result
}

/// Computes the modular inverse of `a` modulo `m` (extended Euclid).
///
/// Returns `None` when `gcd(a, m) != 1`.
pub fn inv_mod(a: u64, m: u64) -> Option<u64> {
    let (mut old_r, mut r) = (a as i128, m as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let quotient = old_r / r;
        (old_r, r) = (r, old_r - quotient * r);
        (old_s, s) = (s, old_s - quotient * s);
    }
    if old_r != 1 {
        return None;
    }
    let mut inv = old_s % m as i128;
    if inv < 0 {
        inv += m as i128;
    }
    Some(inv as u64)
}

/// Deterministic Miller–Rabin for 64-bit integers.
///
/// Uses the known-sufficient witness set for the full 64-bit range.
pub fn is_prime_u64(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &p in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut s = 0;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    // Sufficient deterministic witness set for n < 2^64 (Sinclair).
    'witness: for &a in &[2u64, 325, 9375, 28178, 450775, 9780504, 1795265022] {
        let a = a % n;
        if a == 0 {
            continue;
        }
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Finds the largest prime `p < 2^bits` with `p ≡ 1 (mod modulus_step)`.
///
/// This is how NTT-friendly coefficient-modulus limbs and batching-friendly
/// plaintext moduli are generated: `modulus_step = 2n` guarantees a primitive
/// `2n`-th root of unity exists mod `p`.
///
/// # Panics
///
/// Panics if `bits` exceeds [`MAX_LIMB_BITS`] or no prime exists in range.
pub fn largest_prime_congruent_one(bits: u32, modulus_step: u64) -> u64 {
    assert!(
        bits <= MAX_LIMB_BITS,
        "limb size above {MAX_LIMB_BITS} bits"
    );
    assert!(bits >= 10, "limb size too small");
    let upper = 1u64 << bits;
    // Largest candidate of the form k*step + 1 below 2^bits.
    let mut candidate = (upper - 2) / modulus_step * modulus_step + 1;
    while candidate > modulus_step {
        if is_prime_u64(candidate) {
            return candidate;
        }
        candidate -= modulus_step;
    }
    panic!("no prime of {bits} bits congruent to 1 mod {modulus_step}");
}

/// The primes below `2^bits` that are `≡ 1 (mod step)`, largest first.
pub fn primes_congruent_one_below(bits: u32, step: u64) -> impl Iterator<Item = u64> {
    assert!(bits <= MAX_LIMB_BITS);
    let first = ((1u64 << bits) - 2) / step * step + 1;
    std::iter::successors(Some(first), move |&c| c.checked_sub(step))
        .take_while(move |&c| c > step)
        .filter(|&c| is_prime_u64(c))
}

/// Returns `count` distinct primes just below `2^bits`, each `≡ 1 (mod step)`.
pub fn primes_congruent_one(bits: u32, step: u64, count: usize) -> Vec<u64> {
    let out: Vec<u64> = primes_congruent_one_below(bits, step).take(count).collect();
    assert_eq!(out.len(), count, "not enough primes below 2^{bits}");
    out
}

/// Finds the smallest prime `p > lower` with `p ≡ 1 (mod step)`.
pub fn smallest_prime_congruent_one_above(lower: u64, step: u64) -> u64 {
    let mut candidate = lower / step * step + 1;
    while candidate <= lower {
        candidate += step;
    }
    loop {
        if is_prime_u64(candidate) {
            return candidate;
        }
        candidate = candidate
            .checked_add(step)
            .expect("prime search overflowed u64");
    }
}

/// Finds a generator of the multiplicative group mod prime `p` with known
/// factorization structure `p - 1 = 2^k * odd`, then returns a primitive
/// `order`-th root of unity.
///
/// `order` must divide `p - 1` and be a power of two.
pub fn primitive_root_of_unity(p: u64, order: u64) -> u64 {
    assert!(order.is_power_of_two(), "order must be a power of two");
    assert_eq!((p - 1) % order, 0, "order must divide p-1");
    let cofactor = (p - 1) / order;
    // Try small candidates: g = c^cofactor has order dividing `order`; it has
    // order exactly `order` iff g^(order/2) != 1.
    for c in 2..p {
        let g = pow_mod(c, cofactor, p);
        if g != 1 && pow_mod(g, order / 2, p) == p - 1 {
            return g;
        }
    }
    unreachable!("no primitive root found for prime {p}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_mod_matches_naive() {
        let m = (1u64 << 61) - 1;
        assert_eq!(mul_mod(m - 1, m - 1, m), 1);
        assert_eq!(mul_mod(0, 123, m), 0);
        assert_eq!(mul_mod(2, 3, 7), 6);
    }

    #[test]
    fn add_sub_mod_roundtrip() {
        let m = 1_000_003;
        for (a, b) in [(0u64, 0u64), (1, m - 1), (m - 1, m - 1), (5, 7)] {
            let s = add_mod(a, b, m);
            assert_eq!(sub_mod(s, b, m), a);
        }
    }

    #[test]
    fn pow_mod_fermat() {
        let p = 40961;
        for a in [2u64, 3, 12345] {
            assert_eq!(pow_mod(a, p - 1, p), 1);
        }
    }

    #[test]
    fn inv_mod_works() {
        let m = 12289;
        for a in 1..100u64 {
            let inv = inv_mod(a, m).unwrap();
            assert_eq!(mul_mod(a, inv, m), 1);
        }
        assert_eq!(inv_mod(6, 9), None);
    }

    #[test]
    fn primality_known_values() {
        assert!(is_prime_u64(2));
        assert!(is_prime_u64(12289));
        assert!(is_prime_u64(40961));
        assert!(is_prime_u64(65537));
        assert!(is_prime_u64((1 << 61) - 1));
        assert!(!is_prime_u64(0));
        assert!(!is_prime_u64(1));
        assert!(!is_prime_u64(561));
        assert!(!is_prime_u64(3215031751)); // strong pseudoprime to bases 2,3,5,7
    }

    #[test]
    fn ntt_prime_generation() {
        let n = 1024u64;
        let p = largest_prime_congruent_one(46, 2 * n);
        assert!(is_prime_u64(p));
        assert_eq!(p % (2 * n), 1);
        assert!(p < 1 << 46);

        let ps = primes_congruent_one(45, 2 * n, 5);
        assert_eq!(ps.len(), 5);
        for w in ps.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn batching_plaintext_primes() {
        // The classic NTT primes used as plaintext moduli.
        let t = smallest_prime_congruent_one_above(10_000, 2048);
        assert_eq!(t, 12289);
        let t2 = smallest_prime_congruent_one_above(40_000, 2048);
        assert_eq!(t2, 40961);
    }

    #[test]
    fn roots_of_unity() {
        let p = 12289; // 12289 - 1 = 2^12 * 3
        let w = primitive_root_of_unity(p, 4096);
        assert_eq!(pow_mod(w, 4096, p), 1);
        assert_ne!(pow_mod(w, 2048, p), 1);
    }
}

#[cfg(test)]
mod shoup_tests {
    use super::*;

    #[test]
    fn shoup_matches_mul_mod() {
        let p = largest_prime_congruent_one(52, 2048);
        for w in [1u64, 2, p - 1, 123_456_789, p / 2] {
            let ws = shoup_precompute(w, p);
            for x in [0u64, 1, p - 1, 987_654_321 % p, p / 3] {
                assert_eq!(mul_mod_shoup(x, w, ws, p), mul_mod(x, w, p), "x={x} w={w}");
            }
        }
    }

    #[test]
    fn shoup_div_rem_matches_u128_division() {
        for p in [
            12289u64,
            largest_prime_congruent_one(52, 2048),
            largest_prime_congruent_one(MAX_LIMB_BITS, 2048),
        ] {
            for w in [0u64, 1, 65537 % p, p / 2, p - 1] {
                let ws = shoup_precompute(w, p);
                for x in [0u64, 1, p / 3, p - 2, p - 1] {
                    let prod = x as u128 * w as u128;
                    let want = ((prod / p as u128) as u64, (prod % p as u128) as u64);
                    assert_eq!(mul_div_rem_shoup(x, w, ws, p), want, "x={x} w={w} p={p}");
                }
            }
        }
    }

    #[test]
    fn lazy_shoup_bound_and_congruence_for_any_u64_input() {
        // The lazy form must stay below 2p and agree mod p even for inputs
        // far outside the canonical range (the Harvey passes feed it values
        // up to 4p, and the proof covers all of u64).
        let p = largest_prime_congruent_one(MAX_LIMB_BITS, 2048);
        for w in [1u64, p - 1, 0x1234_5678_9abc_def0 % p, p / 2 + 1] {
            let ws = shoup_precompute(w, p);
            for x in [0u64, 1, p - 1, 2 * p - 1, 4 * p - 1, u64::MAX] {
                let r = mul_mod_shoup_lazy(x, w, ws, p);
                assert!(r < 2 * p, "lazy result {r} >= 2p for x={x} w={w}");
                assert_eq!(r % p, mul_mod(x % p, w, p), "congruence x={x} w={w}");
            }
        }
    }

    #[test]
    fn barrett_matches_u128_remainder() {
        for p in [
            12289u64,
            40961,
            largest_prime_congruent_one(30, 2048),
            largest_prime_congruent_one(MAX_LIMB_BITS, 8192),
        ] {
            let red = BarrettU128::new(p);
            assert_eq!(red.modulus(), p);
            let probes = [
                0u128,
                1,
                p as u128 - 1,
                p as u128,
                4 * p as u128 - 1,
                (p as u128 - 1) * (p as u128 - 1),
                (4 * p as u128 - 1) * (4 * p as u128 - 1),
                u128::MAX,
            ];
            for x in probes {
                assert_eq!(red.reduce(x) as u128, x % p as u128, "p={p} x={x}");
            }
            for (a, b) in [(p - 1, p - 1), (4 * p - 1, 4 * p - 2), (1, 0)] {
                assert_eq!(red.mul_mod(a, b), mul_mod(a % p, b % p, p), "p={p}");
            }
        }
    }

    #[test]
    fn barrett_narrow_fast_path_matches_wide() {
        // Both operands below 2^32 take the ratio64 fast path; straddling
        // pairs exercise the gate itself (one wide operand forces the slow
        // path). Results must agree with the u128 remainder bit-for-bit.
        for p in [12289u64, 40961, 65537, (1 << 32) - 5] {
            let red = BarrettU128::new(p);
            let narrow = [0u64, 1, p % (1 << 32), u32::MAX as u64, 0xdead_beef];
            for &a in &narrow {
                for &b in &narrow {
                    assert_eq!(
                        red.mul_mod(a, b) as u128,
                        (a as u128 * b as u128) % p as u128,
                        "p={p} a={a} b={b}"
                    );
                }
                let wide = u64::MAX - 7;
                assert_eq!(
                    red.mul_mod(a, wide) as u128,
                    (a as u128 * wide as u128) % p as u128,
                    "p={p} a={a} straddle"
                );
            }
        }
    }
}
