//! Encrypted feature maps: the data layouts of the encrypted pipelines.
//!
//! [`Layout::Pixel`] is the paper's (§V-B / §VIII, `batchSize = 10`): one
//! [`CrtCiphertext`] per pixel position, the batch across the SIMD slots —
//! `B` 28×28 images are 784 encryptions with `B` live slots each.
//! [`Layout::Patches`] fills the slots with the convolution's im2col patches,
//! which makes it a rotation-free 1×1 convolution over `k²` channels;
//! [`Layout::for_conv`] counts which is fewer ciphertexts (DESIGN.md §6).

use crate::crt::{CrtCiphertext, CrtPlainSystem};
use crate::par::ParExec;
use hesgx_bfv::error::Result;
use hesgx_bfv::prelude::{PolyArena, PublicKey, SecretKey};
use hesgx_crypto::rng::ChaChaRng;

/// How the cells of an [`EncryptedMap`] hold a batch of feature maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One cell per `[channel][y][x]` position; slot `b` is image `b`.
    Pixel,
    /// Packed around a stride-1 convolution with `side × side` outputs: a
    /// channel (kernel offset before it, output channel after) holds every
    /// (position, image) pair, [`patch_slot`]-ordered, in `chunks × 1` cells.
    Patches {
        /// Images in the batch.
        batch: usize,
        /// Side of the convolution's output.
        side: usize,
    },
}

/// The one slot-index function of [`Layout::Patches`]: (`position`, `image`)
/// is value `index` of its channel — cell `index / slots`, slot `index % slots`.
pub fn patch_slot(position: usize, image: usize, batch: usize) -> usize {
    position * batch + image
}

impl Layout {
    /// The layout bringing `batch` `in_side²` images to a stride-1 `kernel²`
    /// convolution (`1 ≤ kernel ≤ in_side`) in fewer ciphertexts: patches iff
    /// `k²·⌈P·B / slots⌉ < in_side²` (the paper's model, n = 1024: `B ≤ 55`).
    pub fn for_conv(in_side: usize, kernel: usize, batch: usize, slots: usize) -> Layout {
        let side = in_side - kernel + 1;
        let patches = Layout::Patches { batch, side };
        if patches.ingress_cells(in_side, slots) < in_side * in_side {
            return patches;
        }
        Layout::Pixel
    }

    /// Cells per channel of a `Patches { batch, side }` map.
    pub fn chunks(batch: usize, side: usize, slots: usize) -> usize {
        (side * side * batch).div_ceil(slots)
    }

    /// How many ciphertexts a batch of `in_side × in_side` images is.
    pub fn ingress_cells(self, in_side: usize, slots: usize) -> usize {
        match self {
            Layout::Pixel => in_side * in_side,
            Layout::Patches { batch, side } => {
                (in_side - side + 1).pow(2) * Layout::chunks(batch, side, slots)
            }
        }
    }

    /// The slot values of every ingress cell, in map order (client and
    /// `ecall_Transcipher`). Panics on an image shorter than `in_side²`.
    pub fn pack(self, images: &[Vec<i64>], in_side: usize, slots: usize) -> Vec<Vec<i64>> {
        let Layout::Patches { batch, side } = self else {
            let cell = |pixel| images.iter().map(|img| img[pixel]).collect();
            return (0..in_side * in_side).map(cell).collect();
        };
        let kernel = in_side - side + 1;
        let mut cells = Vec::new();
        for (ky, kx) in (0..kernel * kernel).map(|offset| (offset / kernel, offset % kernel)) {
            let mut channel = vec![0; side * side * batch];
            for position in 0..side * side {
                let pixel = (position / side + ky) * in_side + position % side + kx;
                for (b, img) in images.iter().enumerate() {
                    channel[patch_slot(position, b, batch)] = img[pixel];
                }
            }
            cells.extend(channel.chunks(slots).map(<[i64]>::to_vec));
        }
        cells
    }
}

/// An encrypted feature map: `channels × height × width` row-major cells.
#[derive(Debug, Clone)]
pub struct EncryptedMap {
    channels: usize,
    height: usize,
    width: usize,
    cells: Vec<CrtCiphertext>,
    layout: Layout,
}

impl EncryptedMap {
    /// Builds a [`Layout::Pixel`] map from parts.
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
            layout: Layout::Pixel,
        }
    }

    /// The map of a [`Layout::pack`]ed batch's ciphertexts (`1 × in_side ×
    /// in_side`, or `k² × chunks × 1`). Panics when the cell count does not fit.
    pub fn ingress(layout: Layout, in_side: usize, cells: Vec<CrtCiphertext>) -> Self {
        let Layout::Patches { side, .. } = layout else {
            return EncryptedMap::new(1, in_side, in_side, cells);
        };
        let offsets = (in_side - side + 1).pow(2);
        EncryptedMap::new(offsets, cells.len() / offsets, 1, cells).with_layout(layout)
    }

    /// The same cells read under `layout` (a packed convolution's output).
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self
    }

    /// How the cells hold their values.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Live slots per million slots of a packed map's cells; a
    /// [`Layout::Pixel`] map does not say how many images it carries.
    pub fn occupancy_ppm(&self, slots: usize) -> Option<u64> {
        let Layout::Patches { batch, side } = self.layout else {
            return None;
        };
        let live = self.channels * side * side * batch * 1_000_000;
        Some((live / (self.cells.len() * slots).max(1)) as u64)
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

    /// Encrypts a batch of quantized images (each `side*side` pixels) in
    /// `layout`: one task per ingress cell on `pool` (one runs inline).
    ///
    /// Each cell encrypts with its **own fork** of `rng`, keyed by the cell
    /// index (`enc-cell-{i}`), so the ciphertexts are bit-for-bit identical
    /// for every thread count and scheduling order. Forking never advances
    /// the parent: two calls on one `rng` draw the same randomness, so pass
    /// a per-batch fork ([`ChaChaRng::fork_next`]) for more than one batch.
    ///
    /// # Errors
    ///
    /// Fails when a cell holds more values than slots or encryption fails.
    ///
    /// # Panics
    ///
    /// Panics when an image has the wrong pixel count.
    pub fn encrypt_images(
        sys: &CrtPlainSystem,
        images: &[Vec<i64>],
        side: usize,
        layout: Layout,
        public: &[PublicKey],
        rng: &ChaChaRng,
        pool: &ParExec,
    ) -> Result<EncryptedMap> {
        let sized = |img: &Vec<i64>| img.len() == side * side;
        assert!(images.iter().all(sized), "image size mismatch");
        let base = rng.fork("enc-map");
        let packed = layout.pack(images, side, sys.slot_count());
        let cells = pool.try_run(packed.len(), |cell| {
            let mut cell_rng = base.fork(&format!("enc-cell-{cell}"));
            sys.encrypt_slots(&packed[cell], public, &mut cell_rng)
        })?;
        Ok(EncryptedMap::ingress(layout, side, cells))
    }

    /// Decrypts every cell for the first `batch` slots: returns
    /// `[batch][channels*height*width]` signed values — the images of a
    /// [`Layout::Pixel`] map. One decryption task per cell on `pool` (a pool
    /// of one runs inline); decryption draws no randomness, so the result is
    /// the same for every pool size.
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
        let image = |b| per_cell.iter().map(|cell| cell[b]).collect();
        Ok((0..batch).map(image).collect())
    }
}

#[cfg(test)]
impl EncryptedMap {
    /// Test oracle: decrypts a [`Layout::Patches`] map and unpacks it through
    /// [`patch_slot`] into `[batch][channels × side²]`, the shape
    /// [`EncryptedMap::decrypt_all`] gives the `Pixel` map of the same values.
    pub(crate) fn decrypt_unpacked(
        &self,
        sys: &CrtPlainSystem,
        secret: &[SecretKey],
    ) -> Vec<Vec<i128>> {
        let Layout::Patches { batch, side } = self.layout else {
            panic!("not a packed map");
        };
        let slots = sys.slot_count();
        let cells = self.decrypt_all(sys, secret, slots, &ParExec::serial());
        let cells = cells.unwrap();
        let value = |v: usize, b: usize| {
            let i = patch_slot(v % (side * side), b, batch);
            cells[i % slots][v / (side * side) * self.height + i / slots]
        };
        (0..batch)
            .map(|b| {
                (0..self.channels * side * side)
                    .map(|v| value(v, b))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crt::CrtPlainSystem;

    /// The count rule at the geometries the repository serves: the paper's
    /// 28×28 / 5×5 model at n = 1024 packs up to 55 images (150 ciphertexts
    /// at the paper's batch of 10, not 784), the 12×12 / 3×3 broker model at
    /// n = 256 every batch its `max_batch` of 8 allows, and a kernel as wide
    /// as its input (one output position, nothing to pack) never.
    #[test]
    fn count_rule_crossovers() {
        let packed = |batch| Layout::Patches { batch, side: 24 };
        assert_eq!(Layout::for_conv(28, 5, 10, 1024), packed(10));
        assert_eq!(packed(10).ingress_cells(28, 1024), 150);
        assert_eq!(Layout::for_conv(28, 5, 55, 1024), packed(55));
        assert_eq!(packed(55).ingress_cells(28, 1024), 775);
        assert_eq!(Layout::for_conv(28, 5, 56, 1024), Layout::Pixel);
        assert_eq!(Layout::Pixel.ingress_cells(28, 1024), 784);
        for (batch, cells) in [(1, 9), (2, 9), (3, 18), (8, 36)] {
            let layout = Layout::for_conv(12, 3, batch, 256);
            assert_eq!(layout, Layout::Patches { batch, side: 10 });
            assert_eq!(layout.ingress_cells(12, 256), cells);
        }
        assert_eq!(Layout::for_conv(4, 4, 1, 256), Layout::Pixel);
    }

    #[test]
    fn packed_batch_round_trips_and_reports_its_occupancy() {
        let sys = CrtPlainSystem::new(256, &[12289]).unwrap();
        let mut rng = ChaChaRng::from_seed(52);
        let keys = sys.generate_keys(&mut rng);
        let (side, batch) = (6, 20);
        let images: Vec<Vec<i64>> = (0..batch)
            .map(|b| (0..side * side).map(|p| (b * 36 + p) as i64 % 97).collect())
            .collect();
        // A 1×1 kernel: the patches are the pixels, 36·20 = 720 values in
        // three cells.
        let layout = Layout::Patches { batch, side };
        let pool = ParExec::new(2);
        let map =
            EncryptedMap::encrypt_images(&sys, &images, side, layout, &keys.public, &rng, &pool)
                .unwrap();
        assert_eq!((map.shape(), map.layout()), ((1, 3, 1), layout));
        assert_eq!(map.occupancy_ppm(256), Some(720 * 1_000_000 / (3 * 256)));
        let back = map.decrypt_unpacked(&sys, &keys.secret);
        for (b, img) in images.iter().enumerate() {
            let expect: Vec<i128> = img.iter().map(|&v| v as i128).collect();
            assert_eq!(back[b], expect, "image {b}");
        }
        let pixel = EncryptedMap::encrypt_images(
            &sys,
            &images,
            side,
            Layout::Pixel,
            &keys.public,
            &rng,
            &pool,
        )
        .unwrap();
        assert_eq!(pixel.layout(), Layout::Pixel);
        assert_eq!(pixel.occupancy_ppm(256), None);
    }

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
            Layout::Pixel,
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
