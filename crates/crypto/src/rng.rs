//! Deterministic, seedable CSPRNG built on ChaCha20.
//!
//! All randomness in the workspace flows through this type: key generation,
//! error sampling in `hesgx-bfv`, weight initialization in `hesgx-nn`, and the
//! synthetic dataset. Seeding every experiment makes the whole reproduction
//! bit-for-bit deterministic.

use crate::chacha20::{self, BLOCK_LEN, KEY_LEN, NONCE_LEN};
use crate::sha256::sha256;

/// Keystream bytes buffered per refill: four consecutive blocks, so a word
/// draw is a load from the buffer and a refill is rare.
const BUFFER_LEN: usize = 4 * BLOCK_LEN;

/// ChaCha20-based pseudo-random generator.
///
/// The generator key and the buffered keystream blocks are zeroized when the
/// generator drops (see [`ChaChaRng::zeroize`]): forks of this type seed key
/// generation and enclave re-encryption, so a stale copy in freed memory is
/// key-equivalent material.
///
/// # Examples
///
/// ```
/// use hesgx_crypto::rng::ChaChaRng;
///
/// let mut a = ChaChaRng::from_seed(42);
/// let mut b = ChaChaRng::from_seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone)]
pub struct ChaChaRng {
    key: [u8; KEY_LEN],
    nonce: [u8; NONCE_LEN],
    counter: u32,
    buffer: [u8; BUFFER_LEN],
    offset: usize,
}

impl std::fmt::Debug for ChaChaRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The key and buffered keystream are secret; only stream-position
        // metadata is printable (hesgx-lint: secret-debug).
        f.debug_struct("ChaChaRng")
            .field("key", &"<redacted>")
            .field("counter", &self.counter)
            .field("offset", &self.offset)
            .finish()
    }
}

impl Drop for ChaChaRng {
    fn drop(&mut self) {
        self.zeroize();
    }
}

impl ChaChaRng {
    /// Creates a generator from a 32-byte key.
    pub fn from_key(key: [u8; KEY_LEN]) -> Self {
        ChaChaRng {
            key,
            nonce: [0; NONCE_LEN],
            counter: 0,
            buffer: [0; BUFFER_LEN],
            offset: BUFFER_LEN,
        }
    }

    /// Creates a generator from a `u64` seed (expanded through SHA-256).
    pub fn from_seed(seed: u64) -> Self {
        let mut material = [0u8; 16];
        material[..8].copy_from_slice(&seed.to_le_bytes());
        material[8..].copy_from_slice(b"hesgxrng");
        Self::from_key(sha256(&material))
    }

    /// Derives an independent child generator labeled by `domain`.
    ///
    /// Children with different labels produce independent streams; forking the
    /// same label twice produces the same stream.
    pub fn fork(&self, domain: &str) -> Self {
        let mut material = Vec::with_capacity(KEY_LEN + domain.len());
        material.extend_from_slice(&self.key);
        material.extend_from_slice(domain.as_bytes());
        Self::from_key(sha256(&material))
    }

    /// Derives a child generator from `domain` and a word drawn from this
    /// stream. Unlike [`ChaChaRng::fork`], which depends on the key alone,
    /// this advances the parent, so successive calls with one label yield
    /// independent children — the per-request form.
    pub fn fork_next(&mut self, domain: &str) -> Self {
        let word = self.next_u64();
        self.fork(&format!("{domain}-{word}"))
    }

    fn refill(&mut self) {
        for block in self.buffer.chunks_exact_mut(BLOCK_LEN) {
            block.copy_from_slice(&chacha20::block(&self.key, self.counter, &self.nonce));
            self.counter = self.counter.checked_add(1).unwrap_or_else(|| {
                // Roll the nonce on counter exhaustion (2^32 blocks = 256 GiB).
                for b in self.nonce.iter_mut() {
                    *b = b.wrapping_add(1);
                    if *b != 0 {
                        break;
                    }
                }
                0
            });
        }
        self.offset = 0;
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut written = 0;
        while written < dest.len() {
            if self.offset == BUFFER_LEN {
                self.refill();
            }
            let take = (BUFFER_LEN - self.offset).min(dest.len() - written);
            dest[written..written + take]
                .copy_from_slice(&self.buffer[self.offset..self.offset + take]);
            self.offset += take;
            written += take;
        }
    }

    /// The next `N` keystream bytes: one load from the buffer, unless they
    /// straddle a refill.
    fn next_bytes<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        match self.buffer.get(self.offset..self.offset + N) {
            Some(bytes) => {
                out.copy_from_slice(bytes);
                self.offset += N;
            }
            None => self.fill_bytes(&mut out),
        }
        out
    }

    /// Returns a uniformly random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.next_bytes())
    }

    /// Returns a uniformly random `u32`.
    pub fn next_u32(&mut self) -> u32 {
        u32::from_le_bytes(self.next_bytes())
    }

    /// Returns a uniform value in `[0, bound)` via rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        let mut out = [0u64];
        self.fill_below(bound, &mut out);
        out[0]
    }

    /// Fills `dest` with uniform values in `[0, bound)` — the draws of
    /// [`ChaChaRng::next_below`] repeated, with both divisions hoisted out
    /// of the loop: the rejection zone, and the reduction `word % bound`,
    /// done by a multiply with `⌊2^64 / bound⌋` and one correction.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn fill_below(&mut self, bound: u64, dest: &mut [u64]) {
        assert!(bound > 0, "bound must be positive");
        if bound.is_power_of_two() {
            for v in dest {
                *v = self.next_u64() & (bound - 1);
            }
            return;
        }
        // Rejection sampling over the largest multiple of bound.
        let zone = u64::MAX - (u64::MAX % bound) - 1;
        // `⌊word·ratio / 2^64⌋` is `⌊word / bound⌋` or one below it (the
        // estimate falls short by `word·(2^64 mod bound) / (bound·2^64) <
        // 1`), so the remainder lands in `[0, 2·bound)`.
        let ratio = ((1u128 << 64) / bound as u128) as u64;
        for v in dest {
            *v = loop {
                let word = self.next_u64();
                if word <= zone {
                    let quotient = ((word as u128 * ratio as u128) >> 64) as u64;
                    let rem = word - quotient * bound;
                    break if rem >= bound { rem - bound } else { rem };
                }
            };
        }
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a sample from the standard normal distribution (Box–Muller).
    pub fn next_gaussian(&mut self) -> f64 {
        loop {
            let u1 = self.next_f64();
            if u1 > f64::EPSILON {
                let u2 = self.next_f64();
                return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            }
        }
    }

    /// Shuffles `slice` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Overwrites the generator key, nonce, and buffered keystream with
    /// zeros. Called automatically on drop; callable early when a generator's
    /// lifetime outlives its usefulness.
    ///
    /// A zeroized generator is deliberately useless: the next refill expands
    /// the all-zero key, so callers must not keep drawing from it.
    pub fn zeroize(&mut self) {
        for b in self.key.iter_mut() {
            *b = 0;
        }
        for b in self.nonce.iter_mut() {
            *b = 0;
        }
        for b in self.buffer.iter_mut() {
            *b = 0;
        }
        self.counter = 0;
        self.offset = BUFFER_LEN;
        // Keep the optimizer from eliding the wipes as dead stores.
        std::sync::atomic::compiler_fence(std::sync::atomic::Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaChaRng::from_seed(7);
        let mut b = ChaChaRng::from_seed(7);
        let mut c = ChaChaRng::from_seed(8);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn fork_independent() {
        let root = ChaChaRng::from_seed(1);
        let mut x = root.fork("keys");
        let mut y = root.fork("noise");
        let mut x2 = root.fork("keys");
        assert_ne!(x.next_u64(), y.next_u64());
        let mut x = root.fork("keys");
        assert_eq!(x.next_u64(), x2.next_u64());
    }

    #[test]
    fn fork_next_children_differ_per_call_and_replay_per_seed() {
        let mut root = ChaChaRng::from_seed(1);
        let first = root.fork_next("batch").next_u64();
        assert_ne!(first, root.fork_next("batch").next_u64());
        let mut replay = ChaChaRng::from_seed(1);
        assert_eq!(first, replay.fork_next("batch").next_u64());
    }

    #[test]
    fn next_below_in_range_and_covers() {
        let mut rng = ChaChaRng::from_seed(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.next_below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fill_below_is_next_below_repeated_and_reduces_exactly() {
        for bound in [3u64, 10, 12289, (1 << 54) - 77, (1 << 63) + 5, u64::MAX] {
            let mut bulk = ChaChaRng::from_seed(9);
            let mut single = ChaChaRng::from_seed(9);
            let mut words = ChaChaRng::from_seed(9);
            let mut filled = [0u64; 64];
            bulk.fill_below(bound, &mut filled);
            let zone = u64::MAX - (u64::MAX % bound) - 1;
            for &v in &filled {
                assert_eq!(v, single.next_below(bound));
                let accepted = loop {
                    let word = words.next_u64();
                    if word <= zone {
                        break word;
                    }
                };
                assert_eq!(v, accepted % bound, "bound {bound}");
            }
        }
    }

    #[test]
    fn next_f64_unit_interval() {
        let mut rng = ChaChaRng::from_seed(4);
        for _ in 0..1000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = ChaChaRng::from_seed(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = ChaChaRng::from_seed(6);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zeroize_clears_key_and_keystream_buffer() {
        let mut rng = ChaChaRng::from_seed(11);
        // Draw some output so the keystream buffer holds live material.
        let _ = rng.next_u64();
        assert!(rng.key.iter().any(|&b| b != 0));
        assert!(rng.buffer.iter().any(|&b| b != 0));
        rng.zeroize();
        assert!(rng.key.iter().all(|&b| b == 0));
        assert!(rng.nonce.iter().all(|&b| b == 0));
        assert!(rng.buffer.iter().all(|&b| b == 0));
        assert_eq!(rng.counter, 0);
    }

    #[test]
    fn debug_redacts_key_material() {
        let rng = ChaChaRng::from_seed(12);
        let rendered = format!("{rng:?}");
        assert!(rendered.contains("<redacted>"));
        assert!(!rendered.contains("buffer"));
    }

    /// Every draw reads one byte stream — the concatenated `chacha20::block`
    /// outputs — across four-block refills and across the `u32::MAX` counter
    /// rollover (where the nonce steps), whatever mix of word and unaligned
    /// byte draws reads it.
    #[test]
    fn draws_are_the_block_keystream_across_refills_and_counter_rollover() {
        const BLOCKS: usize = 12;
        for start in [0, u32::MAX - 5] {
            let mut rng = ChaChaRng::from_seed(13);
            rng.counter = start;
            let (mut counter, mut nonce) = (start, rng.nonce);
            let mut expected = Vec::new();
            for _ in 0..BLOCKS {
                expected.extend_from_slice(&chacha20::block(&rng.key, counter, &nonce));
                counter = counter.wrapping_add(1);
                // The nonce starts at zero: its roll is the first byte.
                nonce[0] += u8::from(counter == 0);
            }
            let mut drawn = Vec::new();
            for step in 0.. {
                match step % 5 {
                    0 => drawn.extend_from_slice(&rng.next_u32().to_le_bytes()),
                    1 | 3 => drawn.extend_from_slice(&rng.next_u64().to_le_bytes()),
                    _ => {
                        let mut bytes = [0u8; 61];
                        let len = if step % 10 == 2 { 3 } else { 61 };
                        rng.fill_bytes(&mut bytes[..len]);
                        drawn.extend_from_slice(&bytes[..len]);
                    }
                }
                if drawn.len() >= expected.len() - 64 {
                    break;
                }
            }
            assert_eq!(drawn, expected[..drawn.len()], "start {start}");
        }
    }

    #[test]
    fn fill_bytes_across_blocks() {
        let mut rng = ChaChaRng::from_seed(9);
        let mut big = vec![0u8; 300];
        rng.fill_bytes(&mut big);
        let mut rng2 = ChaChaRng::from_seed(9);
        let mut parts = vec![0u8; 300];
        rng2.fill_bytes(&mut parts[..100]);
        rng2.fill_bytes(&mut parts[100..]);
        assert_eq!(big, parts);
    }
}
