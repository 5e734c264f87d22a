//! The wire decoders of `hesgx_bfv::serialization` face bytes from outside
//! the trust boundary (client → edge server, untrusted host → enclave), and
//! that is why they exist although no serving path inside this workspace
//! calls them: whatever arrives, they return `Err` — never panic, never
//! allocate past a length they have validated — and whatever they accept is
//! a well-formed artifact of the context (every residue below its limb
//! modulus, every coefficient below `t`).

use hesgx_bfv::context::BfvContext;
use hesgx_bfv::ntt::NttTable;
use hesgx_bfv::prelude::*;
use hesgx_bfv::serialization::*;
use hesgx_crypto::rng::ChaChaRng;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// Magic + kind tag + context id.
const HEADER: usize = 37;

struct Fixture {
    ctx: Arc<BfvContext>,
    /// Valid encodings: ciphertext, public key, secret key, plaintext,
    /// seeded ciphertext.
    valid: [Vec<u8>; 5],
    /// A valid ciphertext of mixed form: `c0` in evaluation form, `c1` in
    /// coefficient form (see [`mixed_form`]).
    mixed: Vec<u8>,
    /// What both ciphertexts encrypt.
    plain: Plaintext,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let ctx = BfvContext::new(presets::test_n256()).unwrap();
        let mut rng = ChaChaRng::from_seed(404);
        let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
        let plain = Plaintext::from_coeffs(vec![1, 2, 3, 4000]);
        let ct = Encryptor::new(ctx.clone(), keygen.public_key())
            .encrypt(&plain, &mut rng)
            .unwrap();
        let symmetric = Encryptor::symmetric(ctx.clone(), keygen.secret_key());
        let sym = symmetric.encrypt_symmetric(&plain, &mut rng).unwrap();
        let seeded = symmetric.encrypt_seeded(&plain, &mut rng).unwrap();
        Fixture {
            valid: [
                ciphertext_to_bytes(&ct),
                public_key_to_bytes(&keygen.public_key()),
                secret_key_to_bytes(&keygen.secret_key()),
                plaintext_to_bytes(&plain),
                seeded_ciphertext_to_bytes(&seeded),
            ],
            mixed: mixed_form(&ctx, ciphertext_to_bytes(&sym)),
            plain,
            ctx,
        }
    })
}

/// Every valid encoding the mutation test starts from, with its decoder.
fn corpus() -> impl Iterator<Item = (usize, &'static [u8])> {
    let f = fixture();
    let valid = f.valid.iter().enumerate();
    valid
        .map(|(kind, bytes)| (kind, &bytes[..]))
        .chain([(0, &f.mixed[..])])
}

/// An evaluation-form ciphertext with its `c1` inverse-transformed and
/// relabelled: the same ciphertext, the wire format's form byte differing
/// between its components.
fn mixed_form(ctx: &BfvContext, mut bytes: Vec<u8>) -> Vec<u8> {
    let n = ctx.poly_degree();
    let form_at = residue_offset(ctx, 8, 1, 0, 0) - 8 - 8 - 1;
    assert_eq!(bytes[form_at], 1, "c1 in evaluation form");
    bytes[form_at] = 0;
    for (limb, &qi) in ctx.params().coeff_moduli().iter().enumerate() {
        let at = residue_offset(ctx, 8, 1, limb, 0);
        let words = bytes[at..at + 8 * n].chunks_exact(8);
        let mut values: Vec<u64> = words
            .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
            .collect();
        NttTable::new(n, qi).inverse(&mut values);
        for (j, v) in values.iter().enumerate() {
            bytes[at + 8 * j..at + 8 * j + 8].copy_from_slice(&v.to_le_bytes());
        }
    }
    bytes
}

#[test]
fn a_mixed_form_ciphertext_decodes_and_decrypts() {
    let f = fixture();
    assert_eq!(decode(0, &f.mixed), Ok(()));
    let sk = secret_key_from_bytes(&f.ctx, &f.valid[2]).unwrap();
    let ct = ciphertext_from_bytes(&f.ctx, &f.mixed).unwrap();
    let decrypted = Decryptor::new(f.ctx.clone(), sk).decrypt(&ct).unwrap();
    assert_eq!(decrypted.coeffs()[..f.plain.len()], *f.plain.coeffs());
}

/// Runs decoder `kind` over `data`. An accepted artifact must re-encode to
/// the very bytes it was read from (the format has one encoding per value,
/// so nothing unvalidated can ride along) — except the plaintext's context
/// id, which the format leaves unbound.
fn decode(kind: usize, data: &[u8]) -> Result<(), BfvError> {
    let ctx = &fixture().ctx;
    let reencoded = match kind {
        0 => ciphertext_to_bytes(&ciphertext_from_bytes(ctx, data)?),
        1 => public_key_to_bytes(&public_key_from_bytes(ctx, data)?),
        2 => secret_key_to_bytes(&secret_key_from_bytes(ctx, data)?),
        4 => {
            let seeded = seeded_ciphertext_from_bytes(ctx, data)?;
            // What the decoder accepts, the receiver can expand.
            assert!(seeded.expand(ctx).is_ok());
            seeded_ciphertext_to_bytes(&seeded)
        }
        _ => {
            let pt = plaintext_from_bytes(ctx, data)?;
            let t = ctx.params().plain_modulus();
            assert!(pt.len() <= ctx.poly_degree() && pt.coeffs().iter().all(|&c| c < t));
            assert_eq!(plaintext_to_bytes(&pt)[HEADER..], data[HEADER..]);
            return Ok(());
        }
    };
    assert_eq!(reencoded, data, "decoder {kind} accepted a second encoding");
    Ok(())
}

/// Byte offset of residue `j` of limb `limb` of the `poly`-th polynomial in
/// an encoding whose polynomials start `prefix` bytes after the header.
fn residue_offset(ctx: &BfvContext, prefix: usize, poly: usize, limb: usize, j: usize) -> usize {
    let limb_bytes = 8 + 8 * ctx.poly_degree();
    let poly_bytes = 1 + 8 + ctx.limb_count() * limb_bytes;
    HEADER + prefix + poly * poly_bytes + 1 + 8 + limb * limb_bytes + 8 + 8 * j
}

#[test]
fn residue_at_or_above_its_limb_modulus_is_rejected() {
    let f = fixture();
    let n = f.ctx.poly_degree();
    // (decoder, bytes before the first polynomial, polynomial count)
    for (kind, prefix, polys) in [(0, 8, 2), (1, 0, 2), (2, 0, 1), (4, 0, 1)] {
        for poly in 0..polys {
            for (limb, &qi) in f.ctx.params().coeff_moduli().iter().enumerate() {
                for j in [0, n / 2, n - 1] {
                    let at = residue_offset(&f.ctx, prefix, poly, limb, j);
                    let mut bytes = f.valid[kind].clone();
                    bytes[at..at + 8].copy_from_slice(&(qi - 1).to_le_bytes());
                    assert_eq!(decode(kind, &bytes), Ok(()), "q_i - 1 is reduced");
                    for bad in [qi, qi + 1, u64::MAX] {
                        bytes[at..at + 8].copy_from_slice(&bad.to_le_bytes());
                        assert_eq!(
                            decode(kind, &bytes),
                            Err(BfvError::PlaintextOutOfRange(qi)),
                            "decoder {kind} poly {poly} limb {limb} slot {j} value {bad}"
                        );
                    }
                }
            }
        }
    }
}

/// The seeded ciphertext's own refusals: a `c0` relabelled to coefficient
/// form, a context id or limb count of another parameter set, a seed cut
/// short — each an `Err`, and another kind's bytes are not a seeded one.
#[test]
fn a_seeded_ciphertext_of_another_form_context_or_length_is_refused() {
    let f = fixture();
    let valid = &f.valid[4];
    let mut coeff = valid.clone();
    assert_eq!(coeff[HEADER], 1, "c0 in evaluation form");
    coeff[HEADER] = 0;
    assert!(decode(4, &coeff).is_err());
    let mut foreign = valid.clone();
    foreign[5] ^= 1;
    assert_eq!(decode(4, &foreign), Err(BfvError::ContextMismatch));
    let other = BfvContext::new(presets::paper_n1024()).unwrap();
    assert_eq!(
        seeded_ciphertext_from_bytes(&other, valid),
        Err(BfvError::ContextMismatch)
    );
    let mut limbs = valid.clone();
    limbs[HEADER + 1..HEADER + 9].copy_from_slice(&3u64.to_le_bytes());
    assert_eq!(decode(4, &limbs), Err(BfvError::ContextMismatch));
    for cut in [1, 31, 32] {
        assert!(decode(4, &valid[..valid.len() - cut]).is_err(), "cut {cut}");
    }
    for kind in 0..4 {
        assert!(decode(4, &f.valid[kind]).is_err(), "kind {kind}");
        assert!(decode(kind, valid).is_err(), "kind {kind}");
    }
}

#[test]
fn oversized_length_prefixes_fail_before_any_allocation() {
    // Every length field set to values whose allocation would abort the
    // process if it were attempted before the bound check.
    let f = fixture();
    let huge = [u64::MAX, 1 << 60, 1 << 40, f.ctx.poly_degree() as u64 + 1];
    for kind in 0..5 {
        // Ciphertext: size, then (form, limb count, limb length); keys and
        // the seeded ciphertext: limb count at +1, limb length at +9;
        // plaintext: coefficient count.
        let fields: &[usize] = match kind {
            0 => &[0, 9, 17],
            1 | 2 | 4 => &[1, 9],
            _ => &[0],
        };
        for &field in fields {
            for &len in &huge {
                let mut bytes = f.valid[kind].clone();
                bytes[HEADER + field..HEADER + field + 8].copy_from_slice(&len.to_le_bytes());
                assert!(
                    decode(kind, &bytes).is_err(),
                    "decoder {kind} field {field}"
                );
                // The same header with nothing behind it.
                bytes.truncate(HEADER + field + 8);
                assert!(decode(kind, &bytes).is_err());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_are_an_error(
        body in proptest::collection::vec(any::<u8>(), 0..4096usize),
        with_header in any::<bool>(),
    ) {
        for kind in 0..5 {
            // Half the cases get a valid magic/kind/context-id so the body
            // reaches the structural checks instead of dying at the magic.
            let mut data = Vec::new();
            if with_header {
                data.extend_from_slice(&fixture().valid[kind][..HEADER]);
            }
            data.extend_from_slice(&body);
            prop_assert!(decode(kind, &data).is_err(), "decoder {kind} accepted noise");
        }
    }

    #[test]
    fn mutated_valid_encodings_never_panic(
        at in any::<usize>(),
        word in any::<u64>(),
        mode in 0u8..7,
    ) {
        for (kind, valid) in corpus() {
            let mut bytes = valid.to_vec();
            let at = at % bytes.len();
            match mode {
                0 => bytes[at] ^= 1 << (word % 8),
                1 => bytes.truncate(at),
                2 => bytes.extend_from_slice(&word.to_le_bytes()[..1 + at % 8]),
                // An 8-byte field overwritten with a boundary or random word.
                _ => {
                    let at = at.min(bytes.len() - 8);
                    let value = [0, u64::MAX, 1 << 40, word][usize::from(mode - 3)];
                    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
                }
            }
            // Either outcome is fine; `decode` asserts what acceptance means.
            let accepted = decode(kind, &bytes).is_ok();
            if mode == 1 || mode == 2 {
                prop_assert!(!accepted, "decoder {kind} accepted a resized encoding");
            }
        }
    }
}
