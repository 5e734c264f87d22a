//! `Evaluator::{multiply, square, relinearize}` against the wide-integer
//! definition they replaced: reconstruct every coefficient in `U256`, center
//! it, take the tensor product over the integers in a basis of 45-bit NTT
//! primes wider than `4·n·q²`, rescale by `⌊(t·|x| + ⌊q/2⌋)/q⌋` with a
//! 256-bit reciprocal division, reduce into the limbs; decompose `c2` from
//! its `U256` reconstruction and reduce every digit with `%`.
//!
//! Equality is demanded on every limb of every output polynomial — the
//! oracle's result goes through the wire format into a `Ciphertext` and is
//! compared with `==` — decryptable or not: an exhausted ciphertext and the
//! hand-built extreme coefficient vectors are what stress the margins of
//! the two base conversions (DESIGN.md §19).

use hesgx_bfv::arith::{add_mod, inv_mod, mul_mod, primes_congruent_one, sub_mod};
use hesgx_bfv::context::BfvContext;
use hesgx_bfv::ntt::NttTable;
use hesgx_bfv::prelude::*;
use hesgx_bfv::serialization::{ciphertext_from_bytes, ciphertext_to_bytes};
use hesgx_crypto::rng::ChaChaRng;
use hesgx_crypto::uint::{Reciprocal, U256, U512};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// One polynomial as the wire format carries it.
struct WirePoly {
    ntt: bool,
    limbs: Vec<Vec<u64>>,
}

/// Coefficient `j` of an extreme polynomial, given `q`.
type Pattern = fn(u128, usize) -> u128;

/// Magic, kind tag and context id: what precedes a ciphertext's payload.
const HEADER_LEN: usize = 37;

fn parse(ct: &Ciphertext) -> Vec<WirePoly> {
    let bytes = ciphertext_to_bytes(ct);
    let mut pos = HEADER_LEN;
    let u64_at = |pos: &mut usize| {
        let v = u64::from_le_bytes(bytes[*pos..*pos + 8].try_into().unwrap());
        *pos += 8;
        v
    };
    let size = u64_at(&mut pos);
    (0..size)
        .map(|_| {
            let ntt = bytes[pos] == 1;
            pos += 1;
            let limb_count = u64_at(&mut pos);
            let limbs = (0..limb_count)
                .map(|_| {
                    let len = u64_at(&mut pos);
                    (0..len).map(|_| u64_at(&mut pos)).collect()
                })
                .collect();
            WirePoly { ntt, limbs }
        })
        .collect()
}

fn build(ctx: &BfvContext, header: &[u8], polys: &[WirePoly]) -> Ciphertext {
    let mut bytes = header.to_vec();
    bytes.extend_from_slice(&(polys.len() as u64).to_le_bytes());
    for poly in polys {
        bytes.push(poly.ntt as u8);
        bytes.extend_from_slice(&(poly.limbs.len() as u64).to_le_bytes());
        for limb in &poly.limbs {
            bytes.extend_from_slice(&(limb.len() as u64).to_le_bytes());
            for v in limb {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    ciphertext_from_bytes(ctx, &bytes).unwrap()
}

fn div_rem_u64(n: U256, d: u64) -> (U256, u64) {
    let mut quot = [0u64; 4];
    let mut rem = 0u128;
    for i in (0..4).rev() {
        let cur = rem << 64 | n.0[i] as u128;
        quot[i] = (cur / d as u128) as u64;
        rem = cur % d as u128;
    }
    (U256(quot), rem as u64)
}

/// A CRT basis with 256-bit reconstruction.
struct WideCrt {
    primes: Vec<u64>,
    tables: Vec<NttTable>,
    product: U256,
    reciprocal: Reciprocal,
    half: U256,
    hat: Vec<U256>,
    hat_inv: Vec<u64>,
}

impl WideCrt {
    fn new(n: usize, primes: Vec<u64>) -> Self {
        let product = primes.iter().fold(U256::ONE, |acc, &p| {
            let (prod, carry) = acc.carrying_mul_u64(p);
            assert_eq!(carry, 0);
            prod
        });
        let hat: Vec<U256> = primes.iter().map(|&p| div_rem_u64(product, p).0).collect();
        let hat_inv = (hat.iter().zip(&primes))
            .map(|(&hat, &p)| inv_mod(div_rem_u64(hat, p).1, p).unwrap())
            .collect();
        WideCrt {
            tables: primes.iter().map(|&p| NttTable::new(n, p)).collect(),
            reciprocal: Reciprocal::new(product),
            half: product.shr(1),
            primes,
            product,
            hat,
            hat_inv,
        }
    }

    fn reconstruct(&self, residues: impl Iterator<Item = u64>) -> U256 {
        let mut acc = U512::ZERO;
        for (i, r) in residues.enumerate() {
            let c = mul_mod(r, self.hat_inv[i], self.primes[i]);
            let (term, carry) = self.hat[i].carrying_mul_u64(c);
            let mut wide = U512::from_u256(term);
            wide.0[4] = carry;
            let (sum, overflow) = acc.overflowing_add(wide);
            assert!(!overflow);
            acc = sum;
        }
        self.reciprocal.reduce_u512(acc)
    }

    /// Coefficient-form rows of `poly`.
    fn coeff_rows(&self, poly: &WirePoly) -> Vec<Vec<u64>> {
        let mut rows = poly.limbs.clone();
        if poly.ntt {
            for (row, table) in rows.iter_mut().zip(&self.tables) {
                table.inverse(row);
            }
        }
        rows
    }
}

/// The wide-integer evaluator.
struct Oracle {
    t: u64,
    dbc: u32,
    decomp_count: usize,
    q: WideCrt,
    wide: WideCrt,
    q_mod_wide: Vec<u64>,
}

impl Oracle {
    fn new(params: &EncryptionParameters) -> Self {
        let n = params.poly_degree();
        let q_bits = params.coeff_modulus_bits();
        // P > 4·n·q² and, for the reciprocal division, P < 2^250: primes of
        // 45 bits, fewer where a whole number of them would overshoot.
        let wide_target = 2 * q_bits + n.trailing_zeros() + 2;
        let wide_bits = (38..=45u32)
            .rev()
            .find(|&bits| bits * wide_target.div_ceil(bits) <= 250)
            .unwrap();
        let mut wide_primes = Vec::new();
        let mut product = U256::ONE;
        for w in primes_congruent_one(wide_bits, 2 * n as u64, 16) {
            if product.bits() >= wide_target {
                break;
            }
            if !params.coeff_moduli().contains(&w) {
                product = product.carrying_mul_u64(w).0;
                wide_primes.push(w);
            }
        }
        assert!(product.bits() >= wide_target);
        let q = WideCrt::new(n, params.coeff_moduli().to_vec());
        Oracle {
            t: params.plain_modulus(),
            dbc: params.decomposition_bit_count(),
            decomp_count: q_bits.div_ceil(params.decomposition_bit_count()) as usize,
            q_mod_wide: (wide_primes.iter())
                .map(|&w| div_rem_u64(q.product, w).1)
                .collect(),
            wide: WideCrt::new(n, wide_primes),
            q,
        }
    }

    /// `poly`, centered, modulo every wide prime, in evaluation form.
    fn to_wide_ntt(&self, poly: &WirePoly) -> Vec<Vec<u64>> {
        let rows = self.q.coeff_rows(poly);
        let n = rows[0].len();
        let mut out = vec![vec![0u64; n]; self.wide.primes.len()];
        for j in 0..n {
            let x = self.q.reconstruct(rows.iter().map(|row| row[j]));
            for (w, &wp) in self.wide.primes.iter().enumerate() {
                let r = div_rem_u64(x, wp).1;
                out[w][j] = if x > self.q.half {
                    sub_mod(r, self.q_mod_wide[w], wp)
                } else {
                    r
                };
            }
        }
        for (row, table) in out.iter_mut().zip(&self.wide.tables) {
            table.forward(row);
        }
        out
    }

    fn multiply(&self, a: &[WirePoly], b: &[WirePoly]) -> Vec<WirePoly> {
        let a_wide: Vec<_> = a.iter().map(|p| self.to_wide_ntt(p)).collect();
        let b_wide: Vec<_> = b.iter().map(|p| self.to_wide_ntt(p)).collect();
        let n = a[0].limbs[0].len();
        (0..a.len() + b.len() - 1)
            .map(|k| {
                let mut acc = vec![vec![0u64; n]; self.wide.primes.len()];
                for (i, a_i) in a_wide.iter().enumerate() {
                    let Some(b_j) = k.checked_sub(i).and_then(|j| b_wide.get(j)) else {
                        continue;
                    };
                    for (w, &wp) in self.wide.primes.iter().enumerate() {
                        for x in 0..n {
                            let prod = mul_mod(a_i[w][x], b_j[w][x], wp);
                            acc[w][x] = add_mod(acc[w][x], prod, wp);
                        }
                    }
                }
                for (row, table) in acc.iter_mut().zip(&self.wide.tables) {
                    table.inverse(row);
                }
                self.rescale(&acc)
            })
            .collect()
    }

    /// `round(t·x/q)` of every reconstructed, centered wide coefficient.
    fn rescale(&self, wide_rows: &[Vec<u64>]) -> WirePoly {
        let n = wide_rows[0].len();
        let mut limbs = vec![vec![0u64; n]; self.q.primes.len()];
        for j in 0..n {
            let y = self.wide.reconstruct(wide_rows.iter().map(|row| row[j]));
            let negative = y > self.wide.half;
            let magnitude = if negative {
                self.wide.product.wrapping_sub(y)
            } else {
                y
            };
            let (scaled, carry) = magnitude.carrying_mul_u64(self.t);
            assert_eq!(carry, 0);
            let (s, _) = (self.q.reciprocal).div_rem(scaled.checked_add(self.q.half).unwrap());
            for (limb, &qi) in limbs.iter_mut().zip(&self.q.primes) {
                let r = div_rem_u64(s, qi).1;
                limb[j] = if negative && r != 0 { qi - r } else { r };
            }
        }
        WirePoly { ntt: false, limbs }
    }

    fn relinearize(&self, ct: &[WirePoly], evk: &EvaluationKeys) -> Vec<WirePoly> {
        assert_eq!(ct.len(), 3);
        let c2 = self.q.coeff_rows(&ct[2]);
        let n = c2[0].len();
        let limb_count = self.q.primes.len();
        let mask = (1u64 << self.dbc) - 1;
        let c2: Vec<U256> = (0..n)
            .map(|j| self.q.reconstruct(c2.iter().map(|row| row[j])))
            .collect();
        let mut acc = [
            vec![vec![0u64; n]; limb_count],
            vec![vec![0u64; n]; limb_count],
        ];
        for k in 0..self.decomp_count {
            let (key0, key1) = evk.component_limbs(k);
            for (i, (&qi, table)) in self.q.primes.iter().zip(&self.q.tables).enumerate() {
                let mut digit: Vec<u64> = (c2.iter())
                    .map(|x| (x.shr(k as u32 * self.dbc).0[0] & mask) % qi)
                    .collect();
                table.forward(&mut digit);
                for (acc, key) in acc.iter_mut().zip([key0, key1]) {
                    for j in 0..n {
                        let prod = mul_mod(key[i][j], digit[j], qi);
                        acc[i][j] = add_mod(acc[i][j], prod, qi);
                    }
                }
            }
        }
        (acc.iter_mut().zip(ct))
            .map(|(acc, c)| {
                let mut limbs = self.q.coeff_rows(c);
                for (i, (&qi, table)) in self.q.primes.iter().zip(&self.q.tables).enumerate() {
                    table.inverse(&mut acc[i]);
                    for j in 0..n {
                        limbs[i][j] = add_mod(limbs[i][j], acc[i][j], qi);
                    }
                }
                WirePoly { ntt: false, limbs }
            })
            .collect()
    }
}

struct Fixture {
    name: String,
    ctx: Arc<BfvContext>,
    header: Vec<u8>,
    encryptor: Encryptor,
    evaluator: Evaluator,
    evk: EvaluationKeys,
    oracle: Oracle,
}

impl Fixture {
    fn new(name: impl Into<String>, params: EncryptionParameters) -> Self {
        let oracle = Oracle::new(&params);
        let ctx = BfvContext::new(params).unwrap();
        let mut rng = ChaChaRng::from_seed(424_242);
        let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
        let encryptor = Encryptor::new(ctx.clone(), keygen.public_key());
        let probe = encryptor.encrypt(&Plaintext::zero(), &mut rng).unwrap();
        Fixture {
            name: name.into(),
            header: ciphertext_to_bytes(&probe)[..HEADER_LEN].to_vec(),
            encryptor,
            evaluator: Evaluator::new(ctx.clone()),
            evk: keygen.evaluation_keys(&mut rng),
            oracle,
            ctx,
        }
    }

    fn q(&self) -> u128 {
        let moduli = self.ctx.params().coeff_moduli();
        moduli.iter().map(|&qi| qi as u128).product()
    }

    fn random_plain(&self, rng: &mut ChaChaRng) -> Plaintext {
        let mut coeffs = vec![0u64; self.ctx.poly_degree()];
        rng.fill_below(self.ctx.params().plain_modulus(), &mut coeffs);
        Plaintext::from_coeffs(coeffs)
    }

    /// `ct` with the polynomials selected by `which` in evaluation form.
    fn with_ntt(&self, ct: &Ciphertext, which: impl Fn(usize) -> bool) -> Ciphertext {
        let mut polys = parse(ct);
        for (idx, poly) in polys.iter_mut().enumerate() {
            if which(idx) && !poly.ntt {
                for (limb, table) in poly.limbs.iter_mut().zip(&self.oracle.q.tables) {
                    table.forward(limb);
                }
                poly.ntt = true;
            }
        }
        build(&self.ctx, &self.header, &polys)
    }

    /// A ciphertext whose polynomial `p` has `coeff(p, j)` as coefficient `j`.
    fn ciphertext_of(&self, size: usize, coeff: impl Fn(usize, usize) -> u128) -> Ciphertext {
        let moduli = self.ctx.params().coeff_moduli();
        let polys: Vec<WirePoly> = (0..size)
            .map(|p| WirePoly {
                ntt: false,
                limbs: (moduli.iter())
                    .map(|&qi| {
                        (0..self.ctx.poly_degree())
                            .map(|j| (coeff(p, j) % qi as u128) as u64)
                            .collect()
                    })
                    .collect(),
            })
            .collect();
        build(&self.ctx, &self.header, &polys)
    }

    /// `multiply(a, b)`, asserted equal to the oracle's (and to `square(a)`
    /// when the operands are one ciphertext).
    fn checked_multiply(&self, a: &Ciphertext, b: &Ciphertext, what: &str) -> Ciphertext {
        let want = self.oracle.multiply(&parse(a), &parse(b));
        let want = build(&self.ctx, &self.header, &want);
        let got = self.evaluator.multiply(a, b).unwrap();
        assert!(got == want, "{}: multiply, {what}", self.name);
        if a == b {
            let squared = self.evaluator.square(a).unwrap();
            assert!(squared == want, "{}: square, {what}", self.name);
        }
        got
    }

    fn checked_relinearize(&self, ct: &Ciphertext, what: &str) -> Ciphertext {
        let want = self.oracle.relinearize(&parse(ct), &self.evk);
        let want = build(&self.ctx, &self.header, &want);
        let got = self.evaluator.relinearize(ct, &self.evk).unwrap();
        assert!(got == want, "{}: relinearize, {what}", self.name);
        got
    }

    /// Shapes (a)–(e): fresh, after a plaintext chain, a second
    /// multiplication on a relinearised square, sizes 3 × 2 and 3 × 3, and
    /// operands in mixed representation.
    fn check_ciphertext_shapes(&self, seed: u64) {
        let mut rng = ChaChaRng::from_seed(seed);
        let ev = &self.evaluator;
        let (m1, m2) = (self.random_plain(&mut rng), self.random_plain(&mut rng));
        let a = self.encryptor.encrypt(&m1, &mut rng).unwrap();
        let b = self.encryptor.encrypt(&m2, &mut rng).unwrap();

        let product = self.checked_multiply(&a, &b, "fresh");
        let squared = self.checked_multiply(&a, &a, "fresh");
        let relinearised = self.checked_relinearize(&squared, "fresh square");
        self.checked_relinearize(&product, "fresh product");

        let w = Plaintext::from_coeffs(vec![3, 0, 1, 2]);
        let mut chain = ev.mul_plain(&a, &w).unwrap();
        for _ in 0..3 {
            chain = ev.add(&chain, &b).unwrap();
            chain = ev.add_plain(&chain, &m2).unwrap();
        }
        self.checked_multiply(&chain, &b, "mul_plain/add chain");
        self.checked_multiply(&chain, &chain, "mul_plain/add chain");

        let deep = self.checked_multiply(&relinearised, &relinearised, "second multiplication");
        self.checked_relinearize(&deep, "second multiplication");
        self.checked_multiply(&relinearised, &chain, "second multiplication by a chain");

        assert_eq!(self.checked_multiply(&product, &a, "3 x 2").size(), 4);
        assert_eq!(self.checked_multiply(&b, &squared, "2 x 3").size(), 4);
        assert_eq!(self.checked_multiply(&product, &product, "3 x 3").size(), 5);

        let a_ntt = self.with_ntt(&a, |_| true);
        let a_half = self.with_ntt(&a, |idx| idx == 1);
        self.checked_multiply(&a_ntt, &b, "ntt x coeff");
        self.checked_multiply(&b, &a_half, "coeff x half-ntt");
        self.checked_multiply(&a_ntt, &a_ntt, "ntt x ntt");
        self.checked_multiply(&a_half, &a_half, "half-ntt squared");
        self.checked_relinearize(
            &self.with_ntt(&product, |idx| idx != 1),
            "c0, c2 in ntt form",
        );
    }

    /// Shape (f): the coefficient vectors that maximise the tensor
    /// product's magnitude in either sign, and the ends of `[0, q)`.
    fn check_extreme_coefficients(&self) {
        let q = self.q();
        let patterns: [(&str, Pattern); 6] = [
            ("all q-1", |q, _| q - 1),
            ("all q/2", |q, _| q / 2),
            ("all q/2+1", |q, _| q / 2 + 1),
            ("alternating q/2, q/2+1", |q, j| q / 2 + (j % 2) as u128),
            ("alternating 0, q-1", |q, j| (j % 2) as u128 * (q - 1)),
            ("q/2 then q/2+1", |q, j| q / 2 + (j >= 100) as u128),
        ];
        let cts: Vec<(&str, Ciphertext)> = patterns
            .iter()
            .map(|(name, pattern)| (*name, self.ciphertext_of(2, |_, j| pattern(q, j))))
            .collect();
        for (i, (name_a, a)) in cts.iter().enumerate() {
            for (name_b, b) in &cts[i..] {
                let product = self.checked_multiply(a, b, &format!("{name_a} x {name_b}"));
                self.checked_relinearize(&product, &format!("{name_a} x {name_b}"));
            }
        }
        // Size 3: the middle components sum three extreme products.
        for (name, pattern) in &patterns[..3] {
            let triple = self.ciphertext_of(3, |_, j| pattern(q, j));
            self.checked_relinearize(&triple, name);
            self.checked_multiply(&triple, &triple, &format!("size 3, {name}"));
        }
    }
}

/// The plaintext moduli `CrtPlainSystem::moduli_for` composes a range from
/// at n = 1024 past the linear shortcut (the paper-scale pure-HE model takes
/// the first three).
fn deep_moduli() -> impl Iterator<Item = u64> {
    std::iter::successors(Some(40_000), |&lower| {
        Some(hesgx_bfv::arith::smallest_prime_congruent_one_above(
            lower, 2048,
        ))
    })
    .skip(1)
}

fn small() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| Fixture::new("test_n256", presets::test_n256()))
}

fn paper_scale() -> &'static Vec<Fixture> {
    static FIX: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut fixtures = vec![Fixture::new("paper_n1024", presets::paper_n1024())];
        fixtures.extend(deep_moduli().take(5).map(|t| {
            Fixture::new(
                format!("cryptonets_n1024({t})"),
                presets::cryptonets_n1024(t),
            )
        }));
        fixtures
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn small_preset_matches_the_wide_oracle(seed in any::<u64>()) {
        small().check_ciphertext_shapes(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn paper_scale_presets_match_the_wide_oracle(seed in any::<u64>()) {
        for fixture in paper_scale() {
            fixture.check_ciphertext_shapes(seed);
        }
    }
}

#[test]
fn extreme_coefficients_match_the_wide_oracle() {
    small().check_extreme_coefficients();
    for fixture in paper_scale() {
        fixture.check_extreme_coefficients();
    }
    // A single 60-bit limb with a 30-bit t, three 36-bit limbs, and a
    // decomposition base wider than a limb.
    let custom = |name: &str, bits: u32, limbs: usize, t: u64, dbc: u32| {
        let params = EncryptionParameters::builder()
            .poly_degree(256)
            .coeff_moduli(primes_congruent_one(bits, 512, limbs))
            .plain_modulus(t)
            .decomposition_bit_count(dbc)
            .build()
            .unwrap();
        Fixture::new(name, params)
    };
    for fixture in [
        custom("one 60-bit limb, t = 2^30", 60, 1, 1 << 30, 20),
        custom("three 36-bit limbs", 36, 3, 12289, 16),
        custom("dbc 50 over 40-bit limbs", 40, 2, 12289, 50),
    ] {
        fixture.check_extreme_coefficients();
        fixture.check_ciphertext_shapes(7);
    }
}

#[test]
fn large_degree_defaults_match_the_wide_oracle() {
    for n in [2048, 4096] {
        let params = EncryptionParameters::builder()
            .poly_degree(n)
            .plain_modulus(65537)
            .build()
            .unwrap();
        let fixture = Fixture::new(format!("default n = {n}"), params);
        let mut rng = ChaChaRng::from_seed(n as u64);
        let a = fixture
            .encryptor
            .encrypt(&fixture.random_plain(&mut rng), &mut rng)
            .unwrap();
        let squared = fixture.checked_multiply(&a, &a, "fresh");
        fixture.checked_relinearize(&squared, "fresh square");
        let q = fixture.q();
        let extreme = fixture.ciphertext_of(2, |p, j| q / 2 + ((p + j) % 2) as u128);
        fixture.checked_multiply(&extreme, &a, "extreme x fresh");
    }
}

/// Three 40-bit limbs put `q` at the 120-bit cap, past what the oracle's
/// 250-bit reciprocal can follow (`4·n·q²` has 250 bits), so here the
/// product is held to its meaning instead: it decrypts to the negacyclic
/// product of the messages, before and after relinearisation.
#[test]
fn the_widest_coefficient_modulus_multiplies_correctly() {
    let params = EncryptionParameters::builder()
        .poly_degree(256)
        .coeff_moduli(primes_congruent_one(40, 512, 3))
        .plain_modulus(12289)
        .build()
        .unwrap();
    let ctx = BfvContext::new(params).unwrap();
    let mut rng = ChaChaRng::from_seed(120);
    let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
    let encryptor = Encryptor::new(ctx.clone(), keygen.public_key());
    let decryptor = Decryptor::new(ctx.clone(), keygen.secret_key());
    let evaluator = Evaluator::new(ctx.clone());
    let evk = keygen.evaluation_keys(&mut rng);
    let mut message = || {
        let mut coeffs = vec![0u64; 256];
        rng.fill_below(12289, &mut coeffs);
        coeffs
    };
    let (m1, m2) = (message(), message());
    let a = encryptor
        .encrypt(&Plaintext::from_coeffs(m1.clone()), &mut rng)
        .unwrap();
    let b = encryptor
        .encrypt(&Plaintext::from_coeffs(m2.clone()), &mut rng)
        .unwrap();
    let want = hesgx_bfv::ntt::negacyclic_multiply_naive(&m1, &m2, 12289);
    let product = evaluator.multiply(&a, &b).unwrap();
    assert_eq!(decryptor.decrypt(&product).unwrap().coeffs(), want);
    let relinearised = evaluator.relinearize(&product, &evk).unwrap();
    assert_eq!(decryptor.decrypt(&relinearised).unwrap().coeffs(), want);
    let squared = evaluator.square(&a).unwrap();
    let want = hesgx_bfv::ntt::negacyclic_multiply_naive(&m1, &m1, 12289);
    assert_eq!(decryptor.decrypt(&squared).unwrap().coeffs(), want);
}
