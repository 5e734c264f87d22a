//! Differential property suite for the Harvey lazy-reduction NTT kernels.
//!
//! The lazy `forward`/`inverse`/`negacyclic_multiply` path must be *exactly*
//! equal — bit for bit — to two independent oracles at every supported
//! `(n, p)` tier: the retained pre-change eager transforms
//! (`*_reference`) and the schoolbook `negacyclic_multiply_naive` O(n²)
//! convolution. Adversarial inputs exercise the `[0, 4p)` / `[0, 2p)` lazy
//! bounds documented in DESIGN.md §16, and every kernel output is checked
//! against the canonical-range invariant (`< p`).

use hesgx_bfv::arith::{largest_prime_congruent_one, MAX_LIMB_BITS};
use hesgx_bfv::ntt::{negacyclic_multiply_naive, NttTable};
use hesgx_crypto::rng::ChaChaRng;

/// Transform lengths used across the stack: 8–256 by the unit corpus,
/// 256/1024 by the pipeline (`moduli_for` / paper parameters), 4096 as the
/// largest degree the plaintext primes below are checked at.
const DEGREES: &[usize] = &[8, 64, 256, 1024, 4096];

/// Modulus bit-sizes per tier: small batching primes up to the widest
/// supported limb.
const PRIME_BITS: &[u32] = &[24, 30, 45, MAX_LIMB_BITS];

/// The 14–17-bit plaintext primes the batch encoder transforms under:
/// 12289 (the test systems), 40961 (the first of `moduli_for`'s ~16-bit
/// primes) and 65537 (`paper_n1024`), each `≡ 1 (mod 2n)` at its degree.
const PLAIN_TIERS: &[(usize, u64)] = &[
    (256, 12289),
    (1024, 12289),
    (1024, 65537),
    (4096, 40961),
    (4096, 65537),
];

fn tiers() -> Vec<(usize, u64)> {
    let mut out = Vec::new();
    for &n in DEGREES {
        for &bits in PRIME_BITS {
            out.push((n, largest_prime_congruent_one(bits, 2 * n as u64)));
        }
    }
    out.extend_from_slice(PLAIN_TIERS);
    out
}

fn random_canonical(n: usize, p: u64, seed: u64) -> Vec<u64> {
    let mut rng = ChaChaRng::from_seed(seed);
    (0..n).map(|_| rng.next_below(p)).collect()
}

/// Inputs hugging the lazy bounds: everything interesting below `limit`
/// (multiples of `p` ± 1, the bound itself − 1), cycled across the slots.
fn straddling(n: usize, p: u64, limit: u64) -> Vec<u64> {
    let probes = [
        0,
        1,
        p - 1,
        p,
        p + 1,
        2 * p - 1,
        (2 * p).min(limit - 1),
        (2 * p + 1).min(limit - 1),
        (3 * p).min(limit - 1),
        limit - 1,
    ];
    (0..n).map(|i| probes[i % probes.len()]).collect()
}

fn assert_canonical(values: &[u64], p: u64, what: &str) {
    for (i, &v) in values.iter().enumerate() {
        assert!(v < p, "{what}: slot {i} = {v} not canonical (p = {p})");
    }
}

#[test]
fn lazy_forward_matches_eager_reference_all_tiers() {
    for (n, p) in tiers() {
        let table = NttTable::new(n, p);
        let input = random_canonical(n, p, n as u64 ^ p);
        let mut lazy = input.clone();
        let mut eager = input;
        table.forward(&mut lazy);
        table.forward_reference(&mut eager);
        assert_eq!(lazy, eager, "forward diverged at n={n} p={p}");
        assert_canonical(&lazy, p, "forward");
    }
}

#[test]
fn lazy_inverse_matches_eager_reference_all_tiers() {
    for (n, p) in tiers() {
        let table = NttTable::new(n, p);
        let input = random_canonical(n, p, (n as u64).rotate_left(7) ^ p);
        let mut lazy = input.clone();
        let mut eager = input;
        table.inverse(&mut lazy);
        table.inverse_reference(&mut eager);
        assert_eq!(lazy, eager, "inverse diverged at n={n} p={p}");
        assert_canonical(&lazy, p, "inverse");
    }
}

#[test]
fn lazy_multiply_matches_eager_reference_all_tiers() {
    for (n, p) in tiers() {
        let table = NttTable::new(n, p);
        let a = random_canonical(n, p, 11 * n as u64 + 1);
        let b = random_canonical(n, p, 13 * n as u64 + 2);
        let lazy = table.negacyclic_multiply(&a, &b);
        assert_eq!(
            lazy,
            table.negacyclic_multiply_reference(&a, &b),
            "negacyclic_multiply diverged at n={n} p={p}"
        );
        assert_canonical(&lazy, p, "negacyclic_multiply");
    }
}

#[test]
fn lazy_multiply_matches_schoolbook_oracle() {
    // The O(n²) oracle is independent of *both* NTT implementations. Kept
    // to n ≤ 1024 so the suite stays fast in debug builds; the 4096 tier is
    // covered transitively by the reference-equality tests above.
    for (n, p) in tiers() {
        if n > 1024 {
            continue;
        }
        let table = NttTable::new(n, p);
        let a = random_canonical(n, p, 17 * n as u64 + 3);
        let b = random_canonical(n, p, 19 * n as u64 + 4);
        assert_eq!(
            table.negacyclic_multiply(&a, &b),
            negacyclic_multiply_naive(&a, &b, p),
            "schoolbook mismatch at n={n} p={p}"
        );
    }
}

#[test]
fn adversarial_constant_inputs() {
    for (n, p) in tiers() {
        let table = NttTable::new(n, p);
        for value in [0u64, p - 1] {
            let input = vec![value; n];
            let mut lazy = input.clone();
            let mut eager = input.clone();
            table.forward(&mut lazy);
            table.forward_reference(&mut eager);
            assert_eq!(lazy, eager, "forward(const {value}) at n={n} p={p}");
            assert_canonical(&lazy, p, "forward(const)");

            let mut lazy = input.clone();
            let mut eager = input;
            table.inverse(&mut lazy);
            table.inverse_reference(&mut eager);
            assert_eq!(lazy, eager, "inverse(const {value}) at n={n} p={p}");
            assert_canonical(&lazy, p, "inverse(const)");
        }
        // all-zero times all-(p-1) stays all-zero.
        let zero = vec![0u64; n];
        let maxed = vec![p - 1; n];
        assert_eq!(table.negacyclic_multiply(&zero, &maxed), zero);
    }
}

#[test]
fn adversarial_inputs_straddling_lazy_bounds() {
    // `forward` accepts anything below 4p; `inverse` anything below 2p.
    // Both must agree with the eager oracle run on the values reduced to
    // canonical form (the transforms are functions of residues mod p).
    for (n, p) in tiers() {
        let table = NttTable::new(n, p);

        let wild = straddling(n, p, 4 * p);
        let mut lazy = wild.clone();
        let mut eager: Vec<u64> = wild.iter().map(|&v| v % p).collect();
        table.forward(&mut lazy);
        table.forward_reference(&mut eager);
        assert_eq!(lazy, eager, "forward on [0,4p) inputs at n={n} p={p}");
        assert_canonical(&lazy, p, "forward straddling");

        let wild = straddling(n, p, 2 * p);
        let mut lazy = wild.clone();
        let mut eager: Vec<u64> = wild.iter().map(|&v| v % p).collect();
        table.inverse(&mut lazy);
        table.inverse_reference(&mut eager);
        assert_eq!(lazy, eager, "inverse on [0,2p) inputs at n={n} p={p}");
        assert_canonical(&lazy, p, "inverse straddling");
    }
}

#[test]
fn roundtrip_is_identity_all_tiers() {
    for (n, p) in tiers() {
        let table = NttTable::new(n, p);
        let original = random_canonical(n, p, 23 * n as u64 + 5);
        let mut values = original.clone();
        table.forward(&mut values);
        table.inverse(&mut values);
        assert_eq!(values, original, "roundtrip at n={n} p={p}");
    }
}
