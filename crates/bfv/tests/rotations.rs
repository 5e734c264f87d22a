//! The Galois automorphisms against a decrypt–permute–compare oracle: a row
//! rotation, the row swap and `rotate_and_sum` decrypt to the batch matrix
//! ([`matrix_index_map`]) rotated, swapped or orbit-summed, at n = 256 and
//! n = 1024, with noise budget left after each. Keys of another context or
//! for a permutation never generated are an `Err`, not a panic.

use hesgx_bfv::context::BfvContext;
use hesgx_bfv::encoding::{matrix_index_map, BatchEncoder};
use hesgx_bfv::keys::Automorphism;
use hesgx_bfv::prelude::*;
use hesgx_crypto::rng::ChaChaRng;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

struct Fixture {
    ctx: Arc<BfvContext>,
    encoder: BatchEncoder,
    encryptor: Encryptor,
    decryptor: Decryptor,
    secret: SecretKey,
    evaluator: Evaluator,
    galois: GaloisKeys,
    /// `matrix_index_map(n)`: matrix entry → encoder slot.
    map: Vec<usize>,
}

/// Rotation steps with keys: every power of two below `n/2` (the
/// `rotate_and_sum` strides) and three others.
fn steps(n: usize) -> Vec<usize> {
    let powers = (0..).map(|j| 1usize << j).take_while(|&s| s < n / 2);
    powers.chain([3, 5, n / 2 - 1]).collect()
}

fn build(params: EncryptionParameters, seed: u64) -> Fixture {
    let ctx = BfvContext::new(params).unwrap();
    let n = ctx.poly_degree();
    let mut rng = ChaChaRng::from_seed(seed);
    let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
    let mut automorphisms: Vec<Automorphism> =
        steps(n).into_iter().map(Automorphism::RotateRows).collect();
    automorphisms.push(Automorphism::SwapRows);
    Fixture {
        encoder: BatchEncoder::new(ctx.params()).unwrap(),
        encryptor: Encryptor::new(ctx.clone(), keygen.public_key()),
        decryptor: Decryptor::new(ctx.clone(), keygen.secret_key()),
        secret: keygen.secret_key(),
        evaluator: Evaluator::new(ctx.clone()),
        galois: keygen.galois_keys(&automorphisms, &mut rng),
        map: matrix_index_map(n),
        ctx,
    }
}

fn fixture(n: usize) -> &'static Fixture {
    static N256: OnceLock<Fixture> = OnceLock::new();
    static N1024: OnceLock<Fixture> = OnceLock::new();
    match n {
        256 => N256.get_or_init(|| build(presets::test_n256(), 256)),
        _ => N1024.get_or_init(|| build(presets::paper_n1024(), 1024)),
    }
}

impl Fixture {
    /// Encrypts the `2 × n/2` matrix `m` (row-major), under the public key
    /// or the secret key.
    fn encrypt(&self, m: &[u64], symmetric: bool, rng: &mut ChaChaRng) -> Ciphertext {
        let mut slots = vec![0; m.len()];
        for (i, &v) in m.iter().enumerate() {
            slots[self.map[i]] = v;
        }
        let pt = self.encoder.encode(&slots).unwrap();
        if symmetric {
            self.secret.encrypt(&self.ctx, &pt, rng).unwrap()
        } else {
            self.encryptor.encrypt(&pt, rng).unwrap()
        }
    }

    /// Decrypts to the matrix, asserting noise budget is left.
    fn decrypt(&self, ct: &Ciphertext) -> Vec<u64> {
        let budget = self.decryptor.invariant_noise_budget(ct).unwrap();
        assert!(budget > 0, "noise budget exhausted");
        let slots = self.encoder.decode(&self.decryptor.decrypt(ct).unwrap());
        self.map.iter().map(|&slot| slots[slot]).collect()
    }

    fn matrix(&self, seed: u64) -> Vec<u64> {
        let mut rng = ChaChaRng::from_seed(seed);
        let t = self.ctx.params().plain_modulus();
        (0..self.ctx.poly_degree())
            .map(|_| rng.next_below(t))
            .collect()
    }
}

/// `m` with both rows rotated left by `step`.
fn rotated(m: &[u64], step: usize) -> Vec<u64> {
    let row = m.len() / 2;
    (0..m.len())
        .map(|i| m[i / row * row + (i % row + step) % row])
        .collect()
}

fn check_rotation(n: usize, seed: u64, pick: usize, symmetric: bool) {
    let f = fixture(n);
    let m = f.matrix(seed);
    let mut rng = ChaChaRng::from_seed(seed ^ 1);
    let ct = f.encrypt(&m, symmetric, &mut rng);
    let all = steps(n);
    let step = all[pick % all.len()];
    let out = f.evaluator.rotate_rows(&ct, step, &f.galois).unwrap();
    assert_eq!(f.decrypt(&out), rotated(&m, step), "step {step}");
    // The row swap.
    let swapped = f
        .evaluator
        .apply_galois(&ct, Automorphism::SwapRows, &f.galois)
        .unwrap();
    let (top, bottom) = m.split_at(n / 2);
    assert_eq!(f.decrypt(&swapped), [bottom, top].concat());
}

fn check_rotate_and_sum(n: usize, seed: u64, pick: usize) {
    let f = fixture(n);
    let t = f.ctx.params().plain_modulus();
    let m = f.matrix(seed);
    let mut rng = ChaChaRng::from_seed(seed ^ 2);
    let ct = f.encrypt(&m, true, &mut rng);
    let row = n / 2;
    let stride = 1 << (pick % (row.trailing_zeros() as usize + 1));
    let out = f.evaluator.rotate_and_sum(&ct, stride, &f.galois).unwrap();
    let want: Vec<u64> = (0..n)
        .map(|i| {
            let orbit = (0..row / stride).map(|j| rotated(&m, j * stride)[i]);
            orbit.fold(0, |acc, v| (acc + v) % t)
        })
        .collect();
    assert_eq!(f.decrypt(&out), want, "stride {stride}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn rotate_rows_and_swap_permute_the_matrix_n256(seed in any::<u64>(), pick in 0usize..64, symmetric in any::<bool>()) {
        check_rotation(256, seed, pick, symmetric);
    }

    #[test]
    fn rotate_rows_and_swap_permute_the_matrix_n1024(seed in any::<u64>(), pick in 0usize..64, symmetric in any::<bool>()) {
        check_rotation(1024, seed, pick, symmetric);
    }

    #[test]
    fn rotate_and_sum_sums_the_full_orbit_n256(seed in any::<u64>(), pick in 0usize..64) {
        check_rotate_and_sum(256, seed, pick);
    }

    #[test]
    fn rotate_and_sum_sums_the_full_orbit_n1024(seed in any::<u64>(), pick in 0usize..64) {
        check_rotate_and_sum(1024, seed, pick);
    }
}

/// A rotation after a plaintext product (evaluation form in, the FC
/// layer's order) still permutes, and a size-3 ciphertext is refused.
#[test]
fn rotation_of_an_evaluation_form_product() {
    let f = fixture(256);
    let t = f.ctx.params().plain_modulus();
    let (a, b) = (f.matrix(5), f.matrix(6));
    let mut rng = ChaChaRng::from_seed(7);
    let ct = f.encrypt(&a, true, &mut rng);
    let mut weights = vec![0; 256];
    for (i, &v) in b.iter().enumerate() {
        weights[f.map[i]] = v;
    }
    let plain = f.encoder.encode(&weights).unwrap();
    let product = f.evaluator.mul_plain(&ct, &plain).unwrap();
    let out = f.evaluator.rotate_rows(&product, 3, &f.galois).unwrap();
    let want: Vec<u64> = (a.iter().zip(&b)).map(|(x, y)| x * y % t).collect();
    assert_eq!(f.decrypt(&out), rotated(&want, 3));
    let size3 = f.evaluator.square(&ct).unwrap();
    assert_eq!(
        f.evaluator.rotate_rows(&size3, 3, &f.galois),
        Err(BfvError::InvalidCiphertextSize(3))
    );
}

#[test]
fn foreign_or_missing_galois_keys_are_errors() {
    let f = fixture(256);
    let mut rng = ChaChaRng::from_seed(8);
    let ct = f.encrypt(&f.matrix(8), true, &mut rng);
    // Step 7 has no key.
    let elt = Automorphism::RotateRows(7).galois_elt(256);
    assert_eq!(
        f.evaluator.rotate_rows(&ct, 7, &f.galois),
        Err(BfvError::MissingGaloisKey(elt))
    );
    // Stride 64 needs step 64 and nothing else; an odd stride is no orbit.
    let none = KeyGenerator::new(f.ctx.clone(), &mut rng).galois_keys(&[], &mut rng);
    assert!(matches!(
        f.evaluator.rotate_and_sum(&ct, 64, &none),
        Err(BfvError::MissingGaloisKey(_))
    ));
    assert!(matches!(
        f.evaluator.rotate_and_sum(&ct, 3, &f.galois),
        Err(BfvError::InvalidShape(_))
    ));
    // Keys of the n = 1024 context.
    let other = &fixture(1024).galois;
    assert_eq!(
        f.evaluator.rotate_rows(&ct, 1, other),
        Err(BfvError::ContextMismatch)
    );
}
