//! Encrypted feature maps: the data layout of the encrypted pipelines.
//!
//! One [`CrtCiphertext`] per pixel position; the SIMD slots carry the image
//! batch. Encrypting a batch of `B` 28×28 images therefore costs 784
//! CRT-ciphertext encryptions regardless of `B` — the throughput trick of the
//! paper's §V-B / §VIII (`batchSize = 10` in all experiments).

use crate::crt::{CrtCiphertext, CrtPlainSystem};
use crate::par::ParExec;
use hesgx_bfv::error::Result;
use hesgx_bfv::prelude::{PolyArena, PublicKey, SecretKey};
use hesgx_crypto::rng::ChaChaRng;

/// An encrypted feature map of shape `[channels][height][width]`, one
/// ciphertext per cell, batch in the slots.
#[derive(Debug, Clone)]
pub struct EncryptedMap {
    channels: usize,
    height: usize,
    width: usize,
    cells: Vec<CrtCiphertext>,
}

impl EncryptedMap {
    /// Builds a map from parts.
    ///
    /// # Panics
    ///
    /// Panics when `cells.len() != channels * height * width`.
    pub fn new(channels: usize, height: usize, width: usize, cells: Vec<CrtCiphertext>) -> Self {
        assert_eq!(cells.len(), channels * height * width);
        EncryptedMap {
            channels,
            height,
            width,
            cells,
        }
    }

    /// Shape as `(channels, height, width)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.channels, self.height, self.width)
    }

    /// The ciphertext at `[c][y][x]`.
    pub fn cell(&self, c: usize, y: usize, x: usize) -> &CrtCiphertext {
        &self.cells[(c * self.height + y) * self.width + x]
    }

    /// All cells in row-major order.
    pub fn cells(&self) -> &[CrtCiphertext] {
        &self.cells
    }

    /// The cells in row-major order, by value (the logits of a finished
    /// inference).
    pub fn into_cells(self) -> Vec<CrtCiphertext> {
        self.cells
    }

    /// Total serialized bytes (transfer/EPC modeling).
    pub fn byte_len(&self) -> usize {
        self.cells.iter().map(|c| c.byte_len()).sum()
    }

    /// Returns every limb buffer of a consumed map to `arena` — the
    /// stage-to-stage recycling of the inference pipeline: once a layer has
    /// produced its output map, the input map's buffers feed the next
    /// layer's accumulator copies.
    pub fn recycle(self, arena: &PolyArena) {
        for cell in self.cells {
            cell.recycle(arena);
        }
    }

    /// Encrypts a batch of quantized images (each `side*side` pixels): one
    /// task per pixel position on `pool` (a pool of one runs inline).
    ///
    /// Each cell encrypts with its **own fork** of `rng`, keyed by the pixel
    /// index (`enc-cell-{i}`), so the ciphertexts are bit-for-bit identical
    /// for every thread count and scheduling order. Forking never advances
    /// the parent: two calls on one `rng` draw the same randomness, so pass
    /// a per-batch fork ([`ChaChaRng::fork_next`]) for more than one batch.
    ///
    /// # Errors
    ///
    /// Fails when the batch exceeds the slot count or encryption fails.
    ///
    /// # Panics
    ///
    /// Panics when an image has the wrong pixel count.
    pub fn encrypt_images(
        sys: &CrtPlainSystem,
        images: &[Vec<i64>],
        side: usize,
        public: &[PublicKey],
        rng: &ChaChaRng,
        pool: &ParExec,
    ) -> Result<EncryptedMap> {
        let base = rng.fork("enc-map");
        let cells = pool.try_run(side * side, |pixel| {
            let mut cell_rng = base.fork(&format!("enc-cell-{pixel}"));
            let slots: Vec<i64> = images
                .iter()
                .map(|img| {
                    assert_eq!(img.len(), side * side, "image size mismatch");
                    img[pixel]
                })
                .collect();
            sys.encrypt_slots(&slots, public, &mut cell_rng)
        })?;
        Ok(EncryptedMap::new(1, side, side, cells))
    }

    /// Decrypts every cell for the first `batch` slots: returns
    /// `[batch][channels*height*width]` signed values. One decryption task
    /// per cell on `pool` (a pool of one runs inline); decryption draws no
    /// randomness, so the result is the same for every pool size.
    ///
    /// # Errors
    ///
    /// Propagates decryption failures.
    // hesgx-lint: allow(secret-pub-api, reason = "user-side decryption with the user's own key copy")
    pub fn decrypt_all(
        &self,
        sys: &CrtPlainSystem,
        secret: &[SecretKey],
        batch: usize,
        pool: &ParExec,
    ) -> Result<Vec<Vec<i128>>> {
        let per_cell = pool.try_run(self.cells.len(), |i| {
            sys.decrypt_slots(&self.cells[i], secret)
        })?;
        let mut out = vec![Vec::with_capacity(self.cells.len()); batch];
        for slots in &per_cell {
            for (b, row) in out.iter_mut().enumerate() {
                row.push(slots[b]);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crt::CrtPlainSystem;

    #[test]
    fn encrypt_decrypt_image_batch() {
        let sys = CrtPlainSystem::new(256, &[12289]).unwrap();
        let mut rng = ChaChaRng::from_seed(51);
        let keys = sys.generate_keys(&mut rng);
        let side = 4;
        let images: Vec<Vec<i64>> = (0..3)
            .map(|b| (0..side * side).map(|p| (b * 16 + p) as i64 % 16).collect())
            .collect();
        let map = EncryptedMap::encrypt_images(
            &sys,
            &images,
            side,
            &keys.public,
            &rng,
            &ParExec::serial(),
        )
        .unwrap();
        assert_eq!(map.shape(), (1, side, side));
        let back = map
            .decrypt_all(&sys, &keys.secret, 3, &ParExec::serial())
            .unwrap();
        for (b, img) in images.iter().enumerate() {
            let expect: Vec<i128> = img.iter().map(|&v| v as i128).collect();
            assert_eq!(back[b], expect, "batch {b}");
        }
    }
}
