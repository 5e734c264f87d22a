//! Plaintext-CRT arithmetic over FV — the CryptoNets technique (paper \[16\])
//! for dynamic ranges larger than one plaintext modulus.
//!
//! A logical value is encrypted once per plaintext modulus `t_i` (all moduli
//! prime and `≡ 1 mod 2n`, so every part supports SIMD batching). Homomorphic
//! operations run component-wise; decryption CRT-combines the per-modulus
//! residues back into a signed integer in `(-T/2, T/2)` with `T = Π t_i`.
//!
//! The batch (SIMD) dimension carries the image batch, exactly as the paper's
//! experiments run `batchSize = 10` images at once (§V-B, §VIII).

use hesgx_bfv::keys::Automorphism;
use hesgx_bfv::prelude::*;
use hesgx_bfv::{arith, context::BfvContext, params::ParameterError};
use hesgx_crypto::rng::ChaChaRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A logical ciphertext: one FV ciphertext per plaintext modulus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrtCiphertext {
    pub(crate) parts: Vec<Ciphertext>,
}

impl CrtCiphertext {
    /// Number of CRT parts.
    pub fn part_count(&self) -> usize {
        self.parts.len()
    }

    /// Borrows one component ciphertext (for serialization / auditing).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.part_count()`.
    pub fn part(&self, i: usize) -> &Ciphertext {
        &self.parts[i]
    }

    /// Approximate serialized size in bytes (for transfer/EPC modeling).
    pub fn byte_len(&self) -> usize {
        self.parts.iter().map(|c| c.byte_len()).sum()
    }

    /// Largest component ciphertext size (2 fresh, 3 after a multiply).
    pub fn size(&self) -> usize {
        self.parts.iter().map(|c| c.size()).max().unwrap_or(0)
    }
}

/// A logical ciphertext on the wire: one [`SeededCiphertext`] per plaintext
/// modulus, each with a seed of its own ([`CrtPlainSystem::encrypt_seeded`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CrtSeededCiphertext {
    pub(crate) parts: Vec<SeededCiphertext>,
}

impl CrtSeededCiphertext {
    /// Number of CRT parts.
    pub fn part_count(&self) -> usize {
        self.parts.len()
    }

    /// Borrows one component (for serialization / auditing).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.part_count()`.
    pub fn part(&self, i: usize) -> &SeededCiphertext {
        &self.parts[i]
    }

    /// Bytes on the wire: `c0` and 32 bytes of seed a part.
    pub fn byte_len(&self) -> usize {
        self.parts.iter().map(|c| c.byte_len()).sum()
    }
}

/// How a cell's values sit in its plaintext polynomial — the one argument
/// that tells [`CrtPlainSystem::encode`], [`CrtPlainSystem::encrypt`] and
/// [`CrtPlainSystem::decrypt`] apart for the two kinds of map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// One value per SIMD slot ([`BatchEncoder`]): products are slot-wise.
    Slots,
    /// One value per polynomial coefficient: a product with a plaintext
    /// polynomial is a negacyclic convolution (`Layout::Coeff`).
    Coeffs,
}

/// Part `i`'s key of a per-part key slice: [`BfvError::ContextMismatch`]
/// for keys of a system with fewer parts.
pub(crate) fn part_key<K>(keys: &[K], i: usize) -> hesgx_bfv::error::Result<&K> {
    keys.get(i).ok_or(BfvError::ContextMismatch)
}

/// Key material for every CRT part.
#[derive(Debug, Clone)]
pub struct CrtKeys {
    /// Public keys, one per modulus.
    pub public: Vec<PublicKey>,
    /// Secret keys, one per modulus.
    pub secret: Vec<SecretKey>,
    /// Relinearization keys, one per modulus.
    pub evaluation: Vec<EvaluationKeys>,
    /// Galois keys of the declared rotations, one set per modulus.
    pub galois: Vec<GaloisKeys>,
}

/// The multi-modulus FV system: contexts, encoders, and evaluators for each
/// plaintext modulus.
#[derive(Debug)]
pub struct CrtPlainSystem {
    moduli: Vec<u64>,
    contexts: Vec<Arc<BfvContext>>,
    encoders: Vec<BatchEncoder>,
    evaluators: Vec<Evaluator>,
    product: u128,
    /// Per part `(T/t_i, [(T/t_i)^{-1}]_{t_i})`, the CRT-combine constants
    /// of [`CrtPlainSystem::decrypt`]; empty for a single-part system,
    /// whose slots are already the residues.
    combine: Vec<(u128, u64)>,
    /// What [`CrtPlainSystem::generate_keys`] makes Galois keys for.
    pub(crate) rotations: Vec<Automorphism>,
}

impl CrtPlainSystem {
    /// Builds a system over explicit plaintext moduli (each prime,
    /// `≡ 1 mod 2n`).
    ///
    /// # Errors
    ///
    /// Propagates parameter/batching validation failures, and rejects a
    /// repeated modulus (no CRT inverse) here rather than at decryption.
    pub fn new(poly_degree: usize, moduli: &[u64]) -> hesgx_bfv::error::Result<Self> {
        let mut contexts = Vec::new();
        let mut encoders = Vec::new();
        let mut evaluators = Vec::new();
        for &t in moduli {
            let params = EncryptionParameters::builder()
                .poly_degree(poly_degree)
                .plain_modulus(t)
                .build()?;
            let ctx = BfvContext::new(params.clone())?;
            encoders.push(BatchEncoder::new(&params)?);
            evaluators.push(Evaluator::new(ctx.clone()));
            contexts.push(ctx);
        }
        let product: u128 = moduli.iter().map(|&t| t as u128).product();
        let mut combine = Vec::new();
        if moduli.len() > 1 {
            for &t in moduli {
                let hat = product / t as u128;
                let inv = arith::inv_mod((hat % t as u128) as u64, t)
                    .ok_or(ParameterError::InvalidPlainModulus(t))?;
                combine.push((hat, inv));
            }
        }
        Ok(CrtPlainSystem {
            moduli: moduli.to_vec(),
            contexts,
            encoders,
            evaluators,
            product,
            combine,
            rotations: Vec::new(),
        })
    }

    /// The system whose [`CrtPlainSystem::generate_keys`] also makes Galois
    /// keys for the row rotations by `steps`, declared by the engine.
    pub fn with_rotations(mut self, steps: Vec<usize>) -> Self {
        self.rotations = steps.into_iter().map(Automorphism::RotateRows).collect();
        self
    }

    /// The plaintext moduli covering `required_bits` of signed range (from
    /// [`hesgx_nn::quantize::RangeReport`]) for a plan with `depth`
    /// ciphertext multiplications — the one chooser of both engines.
    ///
    /// A linear plan (`depth` 0) whose range fits one prime below the 2^30
    /// validation cap gets that prime: every operation runs once, not once
    /// per part. Anything else is composed from the successive ~16-bit
    /// batching primes above 40 000, because a multiplication carries an
    /// `r_t·‖m‖ ≈ t²` noise floor that a large `t` would blow through.
    pub fn moduli_for(poly_degree: usize, required_bits: u32, depth: u32) -> Vec<u64> {
        let step = 2 * poly_degree as u64;
        let above = move |lower| arith::smallest_prime_congruent_one_above(lower, step);
        if depth == 0 && required_bits <= 28 {
            return vec![above((1u64 << (required_bits + 1)).max(40_000))];
        }
        let mut bits = 0f64;
        std::iter::successors(Some(above(40_000)), |&t| Some(above(t)))
            .take_while(|&t| {
                let short = bits < required_bits as f64 + 1.0;
                bits += (t as f64).log2();
                short
            })
            .collect()
    }

    /// The plaintext moduli.
    pub fn moduli(&self) -> &[u64] {
        &self.moduli
    }

    /// Number of CRT parts (limbs) per logical ciphertext.
    pub fn part_count(&self) -> usize {
        self.moduli.len()
    }

    /// The per-part contexts.
    pub fn contexts(&self) -> &[Arc<BfvContext>] {
        &self.contexts
    }

    /// The modulus product `T` (signed range is `±T/2`).
    pub fn modulus_product(&self) -> u128 {
        self.product
    }

    /// SIMD slots per ciphertext (= ring degree).
    pub fn slot_count(&self) -> usize {
        self.contexts[0].poly_degree()
    }

    /// Generates key material for all parts; the Galois keys draw from forks
    /// of `rng`, so nothing else differs with rotations or without.
    pub fn generate_keys(&self, rng: &mut ChaChaRng) -> CrtKeys {
        let mut public = Vec::new();
        let mut secret = Vec::new();
        let mut evaluation = Vec::new();
        let mut galois = Vec::new();
        for (part, ctx) in self.contexts.iter().enumerate() {
            let keygen = KeyGenerator::new(ctx.clone(), rng);
            public.push(keygen.public_key());
            secret.push(keygen.secret_key());
            evaluation.push(keygen.evaluation_keys(rng));
            let fork = &mut rng.fork(&format!("galois-{part}"));
            galois.push(keygen.galois_keys(&self.rotations, fork));
        }
        CrtKeys {
            public,
            secret,
            evaluation,
            galois,
        }
    }

    /// Encodes one signed value per SIMD slot ([`Encoding::Slots`]) or per
    /// polynomial coefficient ([`Encoding::Coeffs`]) modulo each part's
    /// modulus: the part plaintexts of an encryption or an operand.
    ///
    /// # Errors
    ///
    /// Fails when more values than slots are supplied (for coefficients,
    /// when the plaintext is used).
    pub fn encode(
        &self,
        values: &[i64],
        encoding: Encoding,
    ) -> hesgx_bfv::error::Result<Vec<Plaintext>> {
        let residues = |t: u64| values.iter().map(move |&v| v.rem_euclid(t as i64) as u64);
        (self.moduli.iter().zip(&self.encoders))
            .map(|(&t, encoder)| match encoding {
                Encoding::Slots => encoder.encode(&residues(t).collect::<Vec<_>>()),
                Encoding::Coeffs => Ok(Plaintext::from_coeffs(residues(t).collect())),
            })
            .collect()
    }

    /// Encrypts one signed value per slot or coefficient (`encoding`) under
    /// one key per part; the key type picks the encryption
    /// ([`EncryptionKey`]): the public keys, or the secret keys — in
    /// evaluation form — for a party that holds `s`.
    ///
    /// # Errors
    ///
    /// Fails when more values than slots are supplied or fewer keys than parts.
    pub fn encrypt<K: EncryptionKey>(
        &self,
        values: &[i64],
        encoding: Encoding,
        keys: &[K],
        rng: &mut ChaChaRng,
    ) -> hesgx_bfv::error::Result<CrtCiphertext> {
        let parts = self.encrypt_parts(values, encoding, |i, pt| {
            part_key(keys, i)?.encrypt(&self.contexts[i], pt, rng)
        })?;
        Ok(CrtCiphertext { parts })
    }

    /// [`CrtPlainSystem::encrypt`] under the secret keys for the wire: a
    /// seeded ciphertext a part ([`Encryptor::encrypt_seeded`]), each part's
    /// seed drawn from `rng` in turn.
    ///
    /// # Errors
    ///
    /// As [`CrtPlainSystem::encrypt`].
    pub fn encrypt_seeded(
        &self,
        values: &[i64],
        encoding: Encoding,
        secret: &[SecretKey],
        rng: &mut ChaChaRng,
    ) -> hesgx_bfv::error::Result<CrtSeededCiphertext> {
        let parts = self.encrypt_parts(values, encoding, |i, pt| {
            Encryptor::symmetric(self.contexts[i].clone(), part_key(secret, i)?)
                .encrypt_seeded(pt, rng)
        })?;
        Ok(CrtSeededCiphertext { parts })
    }

    /// `values` encoded for every part and encrypted part by part.
    fn encrypt_parts<T>(
        &self,
        values: &[i64],
        encoding: Encoding,
        mut encrypt: impl FnMut(usize, &Plaintext) -> hesgx_bfv::error::Result<T>,
    ) -> hesgx_bfv::error::Result<Vec<T>> {
        let plain = self.encode(values, encoding)?;
        plain
            .iter()
            .enumerate()
            .map(|(i, pt)| encrypt(i, pt))
            .collect()
    }

    /// [`CrtCiphertext::byte_len`] of a fresh (size-2) ciphertext: a
    /// function of the parameters alone.
    pub fn fresh_ciphertext_byte_len(&self) -> usize {
        self.contexts
            .iter()
            .map(|ctx| 2 * ctx.limb_count() * ctx.poly_degree() * 8)
            .sum()
    }

    /// [`CrtSeededCiphertext::byte_len`]: half a fresh ciphertext and 32
    /// bytes of seed a part.
    pub fn seeded_ciphertext_byte_len(&self) -> usize {
        self.fresh_ciphertext_byte_len() / 2 + 32 * self.part_count()
    }

    /// [`BfvError::ContextMismatch`] unless every cell carries one part per
    /// plaintext modulus — the one part-count check ahead of every read of a
    /// cell's parts by index, so a cell of another system (deserialized, or
    /// handed over by the untrusted host) is refused instead of indexed past
    /// its end.
    ///
    /// # Errors
    ///
    /// [`BfvError::ContextMismatch`] for the first cell of another part
    /// count.
    pub fn check_parts<'a>(
        &self,
        cells: impl IntoIterator<Item = &'a CrtCiphertext>,
    ) -> hesgx_bfv::error::Result<()> {
        match cells
            .into_iter()
            .all(|ct| ct.parts.len() == self.moduli.len())
        {
            true => Ok(()),
            false => Err(BfvError::ContextMismatch),
        }
    }

    /// Decrypts to one signed value per slot or coefficient (`encoding`;
    /// CRT combination, centered lift): [`CrtPlainSystem::decrypt_at`] every
    /// one.
    ///
    /// # Errors
    ///
    /// As [`CrtPlainSystem::decrypt_at`].
    pub fn decrypt(
        &self,
        ct: &CrtCiphertext,
        encoding: Encoding,
        secret: &[SecretKey],
    ) -> hesgx_bfv::error::Result<Vec<i128>> {
        self.decrypt_at(ct, encoding, 0..self.slot_count(), secret)
    }

    /// The signed values at the slots or coefficients (`encoding`) of `at`,
    /// in that order. A coefficient cell is scaled and rounded only there
    /// ([`Decryptor::decrypt_at`]); a slot cell decodes whole first, its
    /// slots being an NTT of every coefficient.
    ///
    /// # Errors
    ///
    /// [`BfvError::ContextMismatch`] for a cell of another part count
    /// ([`CrtPlainSystem::check_parts`]) and [`BfvError::InvalidShape`] for
    /// an index at or past the slot count, both before anything is
    /// decrypted; `ContextMismatch` for fewer keys than parts; propagates
    /// decryption failures.
    pub fn decrypt_at(
        &self,
        ct: &CrtCiphertext,
        encoding: Encoding,
        at: impl Iterator<Item = usize> + Clone,
        secret: &[SecretKey],
    ) -> hesgx_bfv::error::Result<Vec<i128>> {
        self.check_parts([ct])?;
        let (t_big, n) = (self.product, self.slot_count());
        if let Some(j) = at.clone().find(|&j| j >= n) {
            return Err(BfvError::InvalidShape(format!("value {j} of {n} slots")));
        }
        // Σ_i [r_i · (T/t_i)^{-1}]_{t_i} · T/t_i, each term below T.
        let mut acc = vec![0u128; at.clone().count()];
        for (i, ctx) in self.contexts.iter().enumerate() {
            let decryptor = Decryptor::new(ctx.clone(), part_key(secret, i)?);
            let part = &ct.parts[i];
            let residues = match encoding {
                Encoding::Slots => {
                    let slots = self.encoders[i].decode(&decryptor.decrypt(part)?);
                    at.clone().map(|s| slots[s]).collect()
                }
                Encoding::Coeffs => decryptor.decrypt_at(part, at.clone())?,
            };
            match self.combine.get(i) {
                None => acc = residues.into_iter().map(u128::from).collect(),
                Some(&(hat, inv)) => {
                    // r, inv < t ≤ 2^30 (parameter validation): no overflow.
                    let t = self.moduli[i];
                    for (a, r) in acc.iter_mut().zip(residues) {
                        *a += (r * inv % t) as u128 * hat;
                    }
                }
            }
        }
        Ok(acc
            .into_iter()
            .map(|mut v| {
                // Below `part_count · T`: a subtraction per extra part.
                while v >= t_big {
                    v -= t_big;
                }
                if v > t_big / 2 {
                    v as i128 - t_big as i128
                } else {
                    v as i128
                }
            })
            .collect())
    }

    /// The evaluator of CRT part `part` — the limb-level entry point of the
    /// layer kernels in [`crate::ops`], which schedule cells × parts as
    /// independent tasks and call the per-part FV operations directly.
    ///
    /// # Panics
    ///
    /// Panics if `part >= self.part_count()`.
    pub fn evaluator(&self, part: usize) -> &Evaluator {
        &self.evaluators[part]
    }

    /// `value` reduced into part `part`'s plaintext space, as the centered
    /// representative in `(-t/2, t/2]` (minimal noise growth as a multiplier).
    fn centered(&self, value: i64, part: usize) -> i64 {
        let t = self.moduli[part] as i64;
        let reduced = value.rem_euclid(t);
        if reduced > t / 2 {
            reduced - t
        } else {
            reduced
        }
    }

    /// Applies `op` to every part of `a` with that part's evaluator.
    fn map_parts(
        &self,
        a: &CrtCiphertext,
        mut op: impl FnMut(usize, &Evaluator, &Ciphertext) -> hesgx_bfv::error::Result<Ciphertext>,
    ) -> hesgx_bfv::error::Result<CrtCiphertext> {
        self.check_parts([a])?;
        let parts = self
            .evaluators
            .iter()
            .enumerate()
            .map(|(i, eval)| op(i, eval, &a.parts[i]))
            .collect::<hesgx_bfv::error::Result<_>>()?;
        Ok(CrtCiphertext { parts })
    }

    /// `a += b`, component-wise.
    ///
    /// # Errors
    ///
    /// Propagates component failures; `ContextMismatch` for a cell of
    /// another part count.
    pub fn add_inplace(
        &self,
        a: &mut CrtCiphertext,
        b: &CrtCiphertext,
    ) -> hesgx_bfv::error::Result<()> {
        self.check_parts([&*a, b])?;
        for (i, eval) in self.evaluators.iter().enumerate() {
            eval.add_inplace(&mut a.parts[i], &b.parts[i])?;
        }
        Ok(())
    }

    /// Multiplies by a signed integer constant (applied to all slots),
    /// re-deriving the weight form on every call — the raw-weight oracle of
    /// [`CrtPlainSystem::prepare_scalar`].
    ///
    /// # Errors
    ///
    /// Propagates component failures; `ContextMismatch` for a cell of
    /// another part count.
    pub fn mul_scalar(
        &self,
        a: &CrtCiphertext,
        value: i64,
    ) -> hesgx_bfv::error::Result<CrtCiphertext> {
        self.map_parts(a, |i, eval, part| {
            eval.mul_plain_signed_scalar(part, self.centered(value, i))
        })
    }

    /// Prepares a signed scalar weight once for repeated multiplication,
    /// one operand a part — [`CrtPlainSystem::mul_scalar`] with the
    /// centering and Shoup precomputation hoisted out of the per-request
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates component failures.
    pub fn prepare_scalar(&self, value: i64) -> hesgx_bfv::error::Result<Vec<PlainScalar>> {
        (self.evaluators.iter().enumerate())
            .map(|(i, eval)| eval.prepare_plain_scalar(self.centered(value, i)))
            .collect()
    }

    /// Adds a signed integer constant (to all slots), embedding `Δ·c` on
    /// every call — the raw-weight oracle of [`CrtPlainSystem::prepare_bias`].
    ///
    /// # Errors
    ///
    /// Propagates component failures; `ContextMismatch` for a cell of
    /// another part count.
    pub fn add_scalar(
        &self,
        a: &CrtCiphertext,
        value: i64,
    ) -> hesgx_bfv::error::Result<CrtCiphertext> {
        self.map_parts(a, |i, eval, part| {
            let residue = value.rem_euclid(self.moduli[i] as i64) as u64;
            eval.add_plain(part, &Plaintext::constant(residue))
        })
    }

    /// Prepares `values`, encoded as `encoding` says, once for repeated
    /// in-place addition, one addend a part — [`CrtPlainSystem::add_scalar`]
    /// without the per-call polynomial allocation for a constant
    /// (`&[c]` as [`Encoding::Coeffs`], `c` in every slot too).
    ///
    /// # Errors
    ///
    /// Fails when more values than slots are supplied.
    pub fn prepare_bias(
        &self,
        values: &[i64],
        encoding: Encoding,
    ) -> hesgx_bfv::error::Result<Vec<PreparedBias>> {
        let plain = self.encode(values, encoding)?.into_iter();
        (plain.zip(&self.evaluators))
            .map(|(p, eval)| eval.prepare_plain_bias(&p))
            .collect()
    }

    /// Slot-wise square (`C × C` multiply). Output parts have size 3 until
    /// relinearized or refreshed.
    ///
    /// # Errors
    ///
    /// Propagates component failures; `ContextMismatch` for a cell of
    /// another part count.
    pub fn square(&self, a: &CrtCiphertext) -> hesgx_bfv::error::Result<CrtCiphertext> {
        self.map_parts(a, |_, eval, part| eval.square(part))
    }

    /// Relinearizes all parts back to size 2.
    ///
    /// # Errors
    ///
    /// Propagates component failures; `ContextMismatch` for too few keys or
    /// a cell of another part count.
    pub fn relinearize(
        &self,
        a: &CrtCiphertext,
        keys: &[EvaluationKeys],
    ) -> hesgx_bfv::error::Result<CrtCiphertext> {
        self.map_parts(a, |i, eval, part| {
            eval.relinearize(part, part_key(keys, i)?)
        })
    }

    /// Minimum invariant-noise budget over the parts.
    ///
    /// # Errors
    ///
    /// Propagates component failures; `ContextMismatch` for too few keys or
    /// a cell of another part count.
    pub fn noise_budget(
        &self,
        ct: &CrtCiphertext,
        secret: &[SecretKey],
    ) -> hesgx_bfv::error::Result<u32> {
        self.check_parts([ct])?;
        let mut min = u32::MAX;
        for (i, ctx) in self.contexts.iter().enumerate() {
            let dec = Decryptor::new(ctx.clone(), part_key(secret, i)?);
            min = min.min(dec.invariant_noise_budget(&ct.parts[i])?);
        }
        Ok(min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> (CrtPlainSystem, CrtKeys, ChaChaRng) {
        let sys = CrtPlainSystem::new(256, &[12289, 13313]).unwrap();
        let mut rng = ChaChaRng::from_seed(41);
        let keys = sys.generate_keys(&mut rng);
        (sys, keys, rng)
    }

    /// The chooser, by depth: one prime for a linear range up to 28 bits,
    /// the ~16-bit composition past that and at any depth.
    #[test]
    fn moduli_for_is_a_function_of_depth() {
        let small = [40961, 45569, 50177, 51713];
        for (bits, depth, want) in [
            (14, 0, &[40961][..]),
            (20, 0, &[2_100_737]),
            (28, 0, &[536_874_497]),
            (29, 0, &small[..2]),
            (30, 0, &small[..3]),
            (14, 1, &small[..1]),
            (20, 1, &small[..2]),
            (30, 1, &small[..3]),
            (49, 2, &small[..4]),
        ] {
            let moduli = CrtPlainSystem::moduli_for(256, bits, depth);
            assert_eq!(moduli, want, "{bits} bits at depth {depth}");
            let sys = CrtPlainSystem::new(256, &moduli).unwrap();
            assert!(sys.modulus_product() >> (bits + 1) > 0, "{bits} bits");
            for &t in sys.moduli() {
                assert_eq!(t % 512, 1);
                assert!(arith::is_prime_u64(t));
            }
        }
    }

    /// The degraded-rung predicate of the hybrid service: its moduli (the
    /// model's range at depth 0) begin with the ones the CryptoNets range
    /// needs at depth 1. Only the deep model has the rung.
    #[test]
    fn a_hybrid_service_carries_the_pure_he_plan_where_its_moduli_begin_with_its_own() {
        use hesgx_nn::layers::{ActivationKind, PoolKind};
        use hesgx_nn::model_zoo::paper_cnn;
        use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};
        let small = QuantizedCnn {
            pipeline: QuantPipeline::Hybrid,
            in_side: 8,
            conv_out: 2,
            kernel: 3,
            window: 2,
            classes: 3,
            conv_weights: (0..18).map(|i| (i % 7) as i64 - 3).collect(),
            conv_bias: vec![5, -9],
            fc_weights: (0..3 * 18).map(|i| (i % 5) as i64 - 2).collect(),
            fc_bias: vec![10, -5, 0],
            weight_scale: 8,
            fc_scale: 8,
            act_scale: 16,
        };
        let deep = QuantizedCnn {
            act_scale: 1 << 23,
            ..small.clone()
        };
        let net = paper_cnn(
            ActivationKind::Sigmoid,
            PoolKind::Mean,
            &mut ChaChaRng::from_seed(5),
        );
        let paper = QuantizedCnn::from_network(&net, QuantPipeline::Hybrid, 16, 32, 16);
        for (model, n, hybrid, pure_he, rung) in [
            (small, 256, &[40961][..], &[40961, 45569][..], false),
            (deep, 256, &[40961, 45569, 50177], &[40961, 45569], true),
            (paper, 1024, &[270_337], &[40961, 59393, 61441], false),
        ] {
            let bits = |model: &QuantizedCnn| model.range_report().unwrap().required_plain_bits;
            let service = CrtPlainSystem::moduli_for(n, bits(&model), 0);
            let cryptonets = QuantizedCnn {
                pipeline: QuantPipeline::CryptoNets,
                ..model
            };
            let own = CrtPlainSystem::moduli_for(n, bits(&cryptonets), 1);
            assert_eq!((&service[..], &own[..]), (hybrid, pure_he));
            assert_eq!(service.starts_with(&own), rung, "{hybrid:?}");
        }
    }

    #[test]
    fn encrypt_decrypt_signed_values() {
        // Two parts (CRT-combined) and one (the residues are the values),
        // under the public key and under the secret key, as slots and as
        // coefficients.
        let values = vec![-1_000_000i64, -5, 0, 5, 1_000_000, 80_000_000];
        for moduli in [&[12289u64, 13313][..], &[268_432_897]] {
            let sys = CrtPlainSystem::new(256, moduli).unwrap();
            let mut rng = ChaChaRng::from_seed(41);
            let keys = sys.generate_keys(&mut rng);
            for encoding in [Encoding::Slots, Encoding::Coeffs] {
                let cts = [
                    sys.encrypt(&values, encoding, &keys.public, &mut rng)
                        .unwrap(),
                    sys.encrypt(&values, encoding, &keys.secret, &mut rng)
                        .unwrap(),
                ];
                for ct in &cts {
                    assert_eq!(ct.byte_len(), sys.fresh_ciphertext_byte_len());
                    let back = sys.decrypt(ct, encoding, &keys.secret).unwrap();
                    for (i, &v) in values.iter().enumerate() {
                        assert_eq!(back[i], v as i128, "{encoding:?} {i} of {moduli:?}");
                    }
                    assert!(back[values.len()..].iter().all(|&v| v == 0));
                }
                assert_ne!(cts[0], cts[1]);
            }
        }
    }

    /// Decrypting at chosen slots or coefficients is the whole decryption
    /// read there, in any order and with repeats, on one part and on two;
    /// an index past the slots is refused.
    #[test]
    fn decrypt_at_is_the_whole_decryption_read_at_the_chosen_places() {
        let values: Vec<i64> = (0..256).map(|i| (i * 7919 % 2001) - 1000).collect();
        for moduli in [&[12289u64, 13313][..], &[268_432_897]] {
            let sys = CrtPlainSystem::new(256, moduli).unwrap();
            let mut rng = ChaChaRng::from_seed(43);
            let keys = sys.generate_keys(&mut rng);
            for encoding in [Encoding::Slots, Encoding::Coeffs] {
                let ct = sys
                    .encrypt(&values, encoding, &keys.secret, &mut rng)
                    .unwrap();
                let whole = sys.decrypt(&ct, encoding, &keys.secret).unwrap();
                let mut at: Vec<usize> = (0..256).collect();
                for round in 0..4 {
                    rng.shuffle(&mut at);
                    let chosen = &at[..[0, 1, 100, 256][round]];
                    let picks = chosen.iter().chain(&at[..round]).copied();
                    let got = sys.decrypt_at(&ct, encoding, picks.clone(), &keys.secret);
                    let want: Vec<i128> = picks.map(|j| whole[j]).collect();
                    assert_eq!(got.unwrap(), want, "{encoding:?} of {moduli:?}");
                }
                let past = sys.decrypt_at(&ct, encoding, [3, 256].into_iter(), &keys.secret);
                assert!(matches!(past, Err(BfvError::InvalidShape(_))));
            }
        }
    }

    /// A cell of fewer (or more) parts than the system — deserializable, or
    /// handed over by an untrusted host — is `ContextMismatch` from every
    /// call that reads parts by index, not a panic.
    #[test]
    fn a_cell_of_another_part_count_is_refused() {
        let (sys, keys, mut rng) = system();
        let one = CrtPlainSystem::new(256, &[12289]).unwrap();
        let short = one
            .encrypt(&[3, -4], Encoding::Slots, &keys.secret[..1], &mut rng)
            .unwrap();
        let fine = sys
            .encrypt(&[3, -4], Encoding::Slots, &keys.secret, &mut rng)
            .unwrap();
        let mut long = fine.clone();
        long.parts.push(fine.parts[0].clone());
        for cell in [&short, &long] {
            let refused = |r: hesgx_bfv::error::Result<()>| {
                assert!(matches!(r, Err(BfvError::ContextMismatch)), "{r:?}");
            };
            refused(sys.check_parts([&fine, cell]));
            for encoding in [Encoding::Slots, Encoding::Coeffs] {
                refused(sys.decrypt(cell, encoding, &keys.secret).map(drop));
                let at = [0usize].into_iter();
                refused(sys.decrypt_at(cell, encoding, at, &keys.secret).map(drop));
            }
            refused(sys.noise_budget(cell, &keys.secret).map(drop));
            refused(sys.add_inplace(&mut fine.clone(), cell));
            refused(sys.add_inplace(&mut cell.clone(), &fine));
            refused(sys.mul_scalar(cell, 3).map(drop));
            refused(sys.add_scalar(cell, 3).map(drop));
            refused(sys.square(cell).map(drop));
            refused(sys.relinearize(cell, &keys.evaluation).map(drop));
        }
        assert_eq!(sys.check_parts([&fine, &fine]), Ok(()));
    }

    #[test]
    fn repeated_modulus_is_rejected_at_construction() {
        assert!(CrtPlainSystem::new(256, &[12289, 12289]).is_err());
    }

    #[test]
    fn linear_homomorphism() {
        let (sys, keys, mut rng) = system();
        let a = sys
            .encrypt(&[10, -20], Encoding::Slots, &keys.public, &mut rng)
            .unwrap();
        let b = sys
            .encrypt(&[3, 7], Encoding::Slots, &keys.public, &mut rng)
            .unwrap();
        let mut acc = sys.mul_scalar(&a, -4).unwrap();
        sys.add_inplace(&mut acc, &b).unwrap();
        let acc = sys.add_scalar(&acc, 100).unwrap();
        let back = sys.decrypt(&acc, Encoding::Slots, &keys.secret).unwrap();
        assert_eq!(back[0], 10 * -4 + 3 + 100);
        assert_eq!(back[1], -20 * -4 + 7 + 100);
    }

    #[test]
    fn square_exceeding_single_modulus() {
        // 9000^2 = 8.1e7 exceeds each modulus (~1.3e4) but fits the signed
        // range of the product (12289 * 13313 / 2 ≈ 8.18e7).
        let (sys, keys, mut rng) = system();
        let a = sys
            .encrypt(&[9_000, -300], Encoding::Slots, &keys.public, &mut rng)
            .unwrap();
        let sq = sys.square(&a).unwrap();
        assert_eq!(sq.size(), 3);
        let back = sys.decrypt(&sq, Encoding::Slots, &keys.secret).unwrap();
        assert_eq!(back[0], 81_000_000);
        assert_eq!(back[1], 90_000);
    }

    #[test]
    fn relinearize_preserves_slots() {
        let (sys, keys, mut rng) = system();
        let a = sys
            .encrypt(&[111, -42], Encoding::Slots, &keys.public, &mut rng)
            .unwrap();
        let sq = sys.square(&a).unwrap();
        let relin = sys.relinearize(&sq, &keys.evaluation).unwrap();
        assert_eq!(relin.size(), 2);
        let back = sys.decrypt(&relin, Encoding::Slots, &keys.secret).unwrap();
        assert_eq!(back[0], 111 * 111);
        assert_eq!(back[1], 42 * 42);
    }

    #[test]
    fn prepared_scalar_and_bias_match_uncached_bitwise() {
        // The only test of the CRT centering: the prepared per-part forms,
        // applied through `evaluator(i)` as the layer kernels do, against the
        // whole-ciphertext raw-value oracles — at both part counts.
        for sys in [
            CrtPlainSystem::new(256, &[12289, 13313]).unwrap(),
            CrtPlainSystem::new(256, &CrtPlainSystem::moduli_for(256, 20, 0)).unwrap(),
        ] {
            let mut rng = ChaChaRng::from_seed(41);
            let keys = sys.generate_keys(&mut rng);
            let a = sys
                .encrypt(&[10, -20, 7], Encoding::Slots, &keys.public, &mut rng)
                .unwrap();
            for v in [-9_000i64, -1, 0, 1, 4, 11_000] {
                let prepared = sys.prepare_scalar(v).unwrap();
                let bias = sys.prepare_bias(&[v], Encoding::Coeffs).unwrap();
                let term = sys.mul_scalar(&a, v).unwrap();
                let mut sum = a.clone();
                sys.add_inplace(&mut sum, &term).unwrap();
                let biased = sys.add_scalar(&a, v).unwrap();
                let slots = sys.decrypt(&term, Encoding::Slots, &keys.secret).unwrap();
                assert_eq!(slots[..3], [10 * v as i128, -20 * v as i128, 7 * v as i128]);
                for part in 0..sys.part_count() {
                    let (eval, x) = (sys.evaluator(part), a.part(part));
                    assert_eq!(
                        eval.mul_plain_scalar(x, &prepared[part]).unwrap(),
                        term.parts[part],
                        "prepared multiply diverged for {v}"
                    );
                    // Fused accumulate vs multiply-then-add.
                    let mut fused = x.clone();
                    eval.mul_plain_scalar_acc(&mut fused, x, &prepared[part])
                        .unwrap();
                    assert_eq!(fused, sum.parts[part], "fused accumulate diverged for {v}");

                    let mut got = x.clone();
                    eval.add_plain_bias_inplace(&mut got, &bias[part]).unwrap();
                    assert_eq!(got, biased.parts[part], "prepared bias diverged for {v}");
                }
            }
        }
    }

    #[test]
    fn noise_budget_positive_and_decreasing() {
        let (sys, keys, mut rng) = system();
        let a = sys
            .encrypt(&[1], Encoding::Slots, &keys.public, &mut rng)
            .unwrap();
        let fresh = sys.noise_budget(&a, &keys.secret).unwrap();
        let sq = sys.square(&a).unwrap();
        let after = sys.noise_budget(&sq, &keys.secret).unwrap();
        assert!(fresh > after);
        assert!(after > 0);
    }
}
