//! Binary wire format for keys, plaintexts, and ciphertexts.
//!
//! The framework's deployment moves FV artifacts between three parties — the
//! user, the untrusted edge server, and the enclave — so every artifact needs
//! a stable, self-describing byte encoding. The format is deliberately
//! simple: a 4-byte magic + 1-byte kind tag, the 32-byte context id, then
//! length-prefixed little-endian payloads. Decoding validates the magic, the
//! kind, structural sanity (limb counts, degrees), and — through the context
//! id — that the artifact belongs to the parameter set it is used with.

use crate::ciphertext::{Ciphertext, SeededCiphertext};
use crate::context::BfvContext;
use crate::error::{BfvError, Result};
use crate::keys::{PublicKey, SecretKey};
use crate::plaintext::Plaintext;
use crate::poly::{PolyForm, RnsPoly};

/// Format magic: `HSGX`.
const MAGIC: [u8; 4] = *b"HSGX";

/// Artifact kind tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Kind {
    Ciphertext = 1,
    PublicKey = 2,
    SecretKey = 3,
    Plaintext = 4,
    SeededCiphertext = 5,
}

impl Kind {
    fn from_u8(v: u8) -> Option<Kind> {
        match v {
            1 => Some(Kind::Ciphertext),
            2 => Some(Kind::PublicKey),
            3 => Some(Kind::SecretKey),
            4 => Some(Kind::Plaintext),
            5 => Some(Kind::SeededCiphertext),
            _ => None,
        }
    }
}

/// Errors are surfaced as [`BfvError::ContextMismatch`] (wrong context) or
/// [`BfvError::InvalidCiphertextSize`] (structural corruption).
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new(kind: Kind, context_id: &[u8; 32]) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC);
        buf.push(kind as u8);
        buf.extend_from_slice(context_id);
        Writer { buf }
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64_slice(&mut self, vs: &[u64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v);
        }
    }

    fn poly(&mut self, poly: &RnsPoly) {
        self.buf.push(match poly.form() {
            PolyForm::Coeff => 0,
            PolyForm::Ntt => 1,
        });
        self.u64(poly.limbs.len() as u64);
        for limb in &poly.limbs {
            self.u64_slice(limb);
        }
    }

    fn finish(self) -> Vec<u8> {
        self.buf
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8], expected: Kind) -> Result<(Reader<'a>, [u8; 32])> {
        if data.len() < 37 || data[..4] != MAGIC {
            return Err(BfvError::InvalidCiphertextSize(0));
        }
        if Kind::from_u8(data[4]) != Some(expected) {
            return Err(BfvError::InvalidCiphertextSize(data[4] as usize));
        }
        let mut id = [0u8; 32];
        id.copy_from_slice(&data[5..37]);
        Ok((Reader { data, pos: 37 }, id))
    }

    fn u64(&mut self) -> Result<u64> {
        if self.pos + 8 > self.data.len() {
            return Err(BfvError::InvalidCiphertextSize(self.pos));
        }
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.data[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(u64::from_le_bytes(b))
    }

    fn byte(&mut self) -> Result<u8> {
        if self.pos >= self.data.len() {
            return Err(BfvError::InvalidCiphertextSize(self.pos));
        }
        let b = self.data[self.pos];
        self.pos += 1;
        Ok(b)
    }

    fn u64_vec(&mut self, max: usize) -> Result<Vec<u64>> {
        let len = self.u64()? as usize;
        if len > max {
            return Err(BfvError::InvalidCiphertextSize(len));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    fn poly(&mut self, ctx: &BfvContext) -> Result<RnsPoly> {
        let form = match self.byte()? {
            0 => PolyForm::Coeff,
            1 => PolyForm::Ntt,
            other => return Err(BfvError::InvalidCiphertextSize(other as usize)),
        };
        let limb_count = self.u64()? as usize;
        if limb_count != ctx.limb_count() {
            return Err(BfvError::ContextMismatch);
        }
        let mut limbs = Vec::with_capacity(limb_count);
        for i in 0..limb_count {
            let limb = self.u64_vec(ctx.poly_degree())?;
            if limb.len() != ctx.poly_degree() {
                return Err(BfvError::InvalidCiphertextSize(limb.len()));
            }
            let qi = ctx.params().coeff_moduli()[i];
            if limb.iter().any(|&v| v >= qi) {
                return Err(BfvError::PlaintextOutOfRange(qi));
            }
            limbs.push(limb);
        }
        Ok(RnsPoly { limbs, form })
    }

    fn bytes32(&mut self) -> Result<[u8; 32]> {
        let end = self.pos + 32;
        let bytes = self.data.get(self.pos..end);
        let bytes = bytes.ok_or(BfvError::InvalidCiphertextSize(self.pos))?;
        self.pos = end;
        Ok(bytes.try_into().expect("32 bytes"))
    }

    fn done(&self) -> Result<()> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(BfvError::InvalidCiphertextSize(self.data.len() - self.pos))
        }
    }
}

/// Serializes a ciphertext.
pub fn ciphertext_to_bytes(ct: &Ciphertext) -> Vec<u8> {
    let mut w = Writer::new(Kind::Ciphertext, ct.context_id());
    w.u64(ct.polys.len() as u64);
    for poly in &ct.polys {
        w.poly(poly);
    }
    w.finish()
}

/// Deserializes a ciphertext bound to `ctx`.
///
/// # Errors
///
/// Fails on malformed input, unreduced residues, or a context mismatch.
pub fn ciphertext_from_bytes(ctx: &BfvContext, data: &[u8]) -> Result<Ciphertext> {
    let (mut r, id) = Reader::new(data, Kind::Ciphertext)?;
    if &id != ctx.id() {
        return Err(BfvError::ContextMismatch);
    }
    let size = r.u64()? as usize;
    if !(2..=8).contains(&size) {
        return Err(BfvError::InvalidCiphertextSize(size));
    }
    let mut polys = Vec::with_capacity(size);
    for _ in 0..size {
        polys.push(r.poly(ctx)?);
    }
    r.done()?;
    Ok(Ciphertext {
        polys,
        context_id: id,
    })
}

/// Serializes a seeded ciphertext: `c0`, then the 32-byte seed.
pub fn seeded_ciphertext_to_bytes(ct: &SeededCiphertext) -> Vec<u8> {
    let mut w = Writer::new(Kind::SeededCiphertext, ct.context_id());
    w.poly(&ct.c0);
    w.buf.extend_from_slice(ct.seed());
    w.finish()
}

/// Deserializes a seeded ciphertext bound to `ctx`.
///
/// # Errors
///
/// Fails on malformed input, unreduced residues, a `c0` not in evaluation
/// form, or a context mismatch.
pub fn seeded_ciphertext_from_bytes(ctx: &BfvContext, data: &[u8]) -> Result<SeededCiphertext> {
    let (mut r, id) = Reader::new(data, Kind::SeededCiphertext)?;
    if &id != ctx.id() {
        return Err(BfvError::ContextMismatch);
    }
    let c0 = r.poly(ctx)?;
    if c0.form() != PolyForm::Ntt {
        return Err(BfvError::InvalidCiphertextSize(0));
    }
    let seed = r.bytes32()?;
    r.done()?;
    Ok(SeededCiphertext {
        c0,
        seed,
        context_id: id,
    })
}

/// Serializes a public key.
pub fn public_key_to_bytes(pk: &PublicKey) -> Vec<u8> {
    let mut w = Writer::new(Kind::PublicKey, pk.context_id());
    w.poly(&pk.p0);
    w.poly(&pk.p1);
    w.finish()
}

/// Deserializes a public key bound to `ctx`.
///
/// # Errors
///
/// Fails on malformed input or a context mismatch.
pub fn public_key_from_bytes(ctx: &BfvContext, data: &[u8]) -> Result<PublicKey> {
    let (mut r, id) = Reader::new(data, Kind::PublicKey)?;
    if &id != ctx.id() {
        return Err(BfvError::ContextMismatch);
    }
    let p0 = r.poly(ctx)?;
    let p1 = r.poly(ctx)?;
    r.done()?;
    Ok(PublicKey {
        p0,
        p1,
        context_id: id,
    })
}

/// Serializes a secret key (seal it before storing outside the enclave!).
pub fn secret_key_to_bytes(sk: &SecretKey) -> Vec<u8> {
    let mut w = Writer::new(Kind::SecretKey, sk.context_id());
    w.poly(&sk.s);
    w.finish()
}

/// Deserializes a secret key bound to `ctx`.
///
/// # Errors
///
/// Fails on malformed input or a context mismatch.
pub fn secret_key_from_bytes(ctx: &BfvContext, data: &[u8]) -> Result<SecretKey> {
    let (mut r, id) = Reader::new(data, Kind::SecretKey)?;
    if &id != ctx.id() {
        return Err(BfvError::ContextMismatch);
    }
    let s = r.poly(ctx)?;
    r.done()?;
    Ok(SecretKey { s, context_id: id })
}

/// Serializes a plaintext (not context-bound; carries a zero id).
pub fn plaintext_to_bytes(pt: &Plaintext) -> Vec<u8> {
    let mut w = Writer::new(Kind::Plaintext, &[0u8; 32]);
    w.u64_slice(pt.coeffs());
    w.finish()
}

/// Deserializes a plaintext (coefficients validated against `ctx`'s `t`).
///
/// # Errors
///
/// Fails on malformed input or unreduced coefficients.
pub fn plaintext_from_bytes(ctx: &BfvContext, data: &[u8]) -> Result<Plaintext> {
    let (mut r, _) = Reader::new(data, Kind::Plaintext)?;
    let coeffs = r.u64_vec(ctx.poly_degree())?;
    let t = ctx.params().plain_modulus();
    if let Some(&c) = coeffs.iter().find(|&&c| c >= t) {
        return Err(BfvError::PlaintextOutOfRange(c));
    }
    r.done()?;
    Ok(Plaintext::from_coeffs(coeffs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decryptor::Decryptor;
    use crate::encryptor::Encryptor;
    use crate::keys::KeyGenerator;
    use crate::params::presets;
    use hesgx_crypto::rng::ChaChaRng;

    fn setup() -> (
        std::sync::Arc<BfvContext>,
        Encryptor,
        Decryptor,
        Ciphertext,
        PublicKey,
        SecretKey,
    ) {
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        let mut rng = ChaChaRng::from_seed(55);
        let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
        let enc = Encryptor::new(ctx.clone(), keygen.public_key());
        let dec = Decryptor::new(ctx.clone(), keygen.secret_key());
        let ct = enc.encrypt(&Plaintext::constant(321), &mut rng).unwrap();
        (ctx, enc, dec, ct, keygen.public_key(), keygen.secret_key())
    }

    #[test]
    fn ciphertext_roundtrip_preserves_decryption() {
        let (ctx, _, dec, ct, _, _) = setup();
        let bytes = ciphertext_to_bytes(&ct);
        let restored = ciphertext_from_bytes(&ctx, &bytes).unwrap();
        assert_eq!(restored, ct);
        assert_eq!(dec.decrypt(&restored).unwrap().coeffs()[0], 321);
    }

    #[test]
    fn seeded_ciphertext_roundtrip_expands_and_decrypts() {
        let (ctx, _, dec, _, _, sk) = setup();
        let mut rng = ChaChaRng::from_seed(57);
        let enc = Encryptor::symmetric(ctx.clone(), sk);
        let seeded = enc
            .encrypt_seeded(&Plaintext::constant(99), &mut rng)
            .unwrap();
        let bytes = seeded_ciphertext_to_bytes(&seeded);
        assert_eq!(
            bytes.len(),
            37 + 1 + 8 + ctx.limb_count() * (8 + 8 * 256) + 32
        );
        let restored = seeded_ciphertext_from_bytes(&ctx, &bytes).unwrap();
        assert_eq!(restored, seeded);
        let ct = restored.expand(&ctx).unwrap();
        assert_eq!(dec.decrypt(&ct).unwrap().coeffs()[0], 99);
        assert!(ciphertext_from_bytes(&ctx, &bytes).is_err());
        assert!(seeded_ciphertext_from_bytes(&ctx, &ciphertext_to_bytes(&ct)).is_err());
    }

    #[test]
    fn public_key_roundtrip_still_encrypts() {
        let (ctx, _, dec, _, pk, _) = setup();
        let restored = public_key_from_bytes(&ctx, &public_key_to_bytes(&pk)).unwrap();
        let enc2 = Encryptor::new(ctx.clone(), restored);
        let mut rng = ChaChaRng::from_seed(56);
        let ct = enc2.encrypt(&Plaintext::constant(7), &mut rng).unwrap();
        assert_eq!(dec.decrypt(&ct).unwrap().coeffs()[0], 7);
    }

    #[test]
    fn secret_key_roundtrip_still_decrypts() {
        let (ctx, _, _, ct, _, sk) = setup();
        let restored = secret_key_from_bytes(&ctx, &secret_key_to_bytes(&sk)).unwrap();
        let dec2 = Decryptor::new(ctx, restored);
        assert_eq!(dec2.decrypt(&ct).unwrap().coeffs()[0], 321);
    }

    #[test]
    fn plaintext_roundtrip() {
        let (ctx, _, _, _, _, _) = setup();
        let pt = Plaintext::from_coeffs(vec![1, 2, 3, 4000]);
        let restored = plaintext_from_bytes(&ctx, &plaintext_to_bytes(&pt)).unwrap();
        assert_eq!(restored, pt);
    }

    #[test]
    fn wrong_kind_rejected() {
        let (ctx, _, _, ct, pk, _) = setup();
        let ct_bytes = ciphertext_to_bytes(&ct);
        assert!(public_key_from_bytes(&ctx, &ct_bytes).is_err());
        let pk_bytes = public_key_to_bytes(&pk);
        assert!(ciphertext_from_bytes(&ctx, &pk_bytes).is_err());
    }

    #[test]
    fn wrong_context_rejected() {
        let (_, _, _, ct, _, _) = setup();
        let other = BfvContext::new(presets::paper_n1024()).unwrap();
        assert_eq!(
            ciphertext_from_bytes(&other, &ciphertext_to_bytes(&ct)),
            Err(BfvError::ContextMismatch)
        );
    }

    #[test]
    fn truncated_and_garbage_rejected() {
        let (ctx, _, _, ct, _, _) = setup();
        let bytes = ciphertext_to_bytes(&ct);
        for cut in [0, 4, 36, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                ciphertext_from_bytes(&ctx, &bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        assert!(ciphertext_from_bytes(&ctx, b"not a ciphertext").is_err());
    }

    #[test]
    fn unreduced_residue_rejected() {
        let (ctx, _, _, ct, _, _) = setup();
        let mut bytes = ciphertext_to_bytes(&ct);
        // Corrupt one residue to an out-of-range value (all-ones limb word).
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(ciphertext_from_bytes(&ctx, &bytes).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let (ctx, _, _, ct, _, _) = setup();
        let mut bytes = ciphertext_to_bytes(&ct);
        bytes.push(0);
        assert!(ciphertext_from_bytes(&ctx, &bytes).is_err());
    }
}
