//! Encrypted feature maps: the data layouts of the encrypted pipelines.
//!
//! [`Layout::Pixel`] is the paper's (§V-B / §VIII, `batchSize = 10`): one
//! [`CrtCiphertext`] per pixel position, the batch across the SIMD slots —
//! `B` 28×28 images are 784 encryptions with `B` live slots each.
//! [`Layout::Patches`] fills the slots with the convolution's im2col patches,
//! which makes it a rotation-free 1×1 convolution over `k²` channels;
//! [`Layout::FcOperand`] repeats every fully connected input once per class,
//! which makes that layer slot-wise too, and [`Layout::Orbit`] the pure-HE
//! plan but its FC rotations; `Layout::for_*` pick the fewer (DESIGN.md §6).

use crate::crt::{CrtCiphertext, CrtPlainSystem};
use crate::par::ParExec;
use hesgx_bfv::encoding::matrix_index_map;
use hesgx_bfv::error::{BfvError, Result};
use hesgx_bfv::prelude::{EncryptionKey, SecretKey};
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
    /// Packed for the fully connected layer: cell `g` holds inputs
    /// `g·L .. g·L + L` of every image, each repeated for every class at
    /// [`fc_slot`], `L` = [`Layout::fc_per_cell`] — `⌈inputs / L⌉` cells. The
    /// layer's one output cell holds `L` partial sums per (class, image)
    /// (`inputs = L`), the reduced logits one (`inputs = 1`).
    FcOperand {
        /// Output classes of the layer.
        classes: usize,
        /// Images in the batch.
        batch: usize,
        /// Values the map holds per (class, image).
        inputs: usize,
    },
    /// Packed for the pure-HE plan, a stride-1 convolution whose output a
    /// `window²` sum-pool brings to `side × side`: cell `[plane][g·window +
    /// dy][dx]` holds window member `(dy, dx)` of plane `plane` (kernel
    /// offset, then output channel) for group `g`'s images, (pooled position,
    /// image) at [`orbit_entry`]; pooled, `[channel][g][0]`.
    Orbit {
        /// Images in the batch.
        batch: usize,
        /// Side of the pooled map.
        side: usize,
        /// Side of the pooling window.
        window: usize,
    },
}

/// The one slot-index function of [`Layout::Patches`]: (`position`, `image`)
/// is value `index` of its channel — cell `index / slots`, slot `index % slots`.
pub fn patch_slot(position: usize, image: usize, batch: usize) -> usize {
    position * batch + image
}

/// The images a batch-matrix row of `slots / 2` holds in [`Layout::Orbit`]:
/// the row over the orbit, `side²` rounded up to a power of two.
pub fn orbit_stride(side: usize, slots: usize) -> Option<usize> {
    let orbit = side.checked_mul(side)?.checked_next_power_of_two()?;
    Some(slots / 2 / orbit).filter(|&stride| stride > 0)
}

/// The one slot-index function of [`Layout::Orbit`]: the batch-matrix entry
/// ([`matrix_index_map`]) of `position` of image `image` of its group —
/// rotations by multiples of `stride` cycle one image's positions only.
pub fn orbit_entry(position: usize, image: usize, stride: usize, slots: usize) -> usize {
    image / stride * (slots / 2) + position * stride + image % stride
}

/// The one slot-index function of [`Layout::FcOperand`]: input `j_local` of
/// its cell, as seen by `class`, of `image` — `per_cell` inputs to a cell.
pub fn fc_slot(
    j_local: usize,
    class: usize,
    image: usize,
    per_cell: usize,
    classes: usize,
) -> usize {
    (image * per_cell + j_local) * classes + class
}

/// The slots of one [`Layout::FcOperand`] cell of `per_cell` inputs:
/// `value(j_local, class, image)` at [`fc_slot`] for the cell's first `live`
/// inputs and `images` images, zero elsewhere.
pub fn fc_cell(
    slots: usize,
    (per_cell, live): (usize, usize),
    (classes, images): (usize, usize),
    value: impl Fn(usize, usize, usize) -> i64,
) -> Vec<i64> {
    let mut cell = vec![0; slots];
    for (image, class) in (0..images * classes).map(|i| (i / classes, i % classes)) {
        for j in 0..live {
            cell[fc_slot(j, class, image, per_cell, classes)] = value(j, class, image);
        }
    }
    cell
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

    /// The layout bringing `batch` `in_side²` images to the pure-HE plan
    /// (`kernel²` conv, `window²` pool) in fewer ciphertexts: the orbit iff
    /// it has a stride and `kernel²·window²·groups < in_side²` (the 12×12
    /// model at n = 1024: `B ≤ 96`).
    pub fn for_orbit(
        in_side: usize,
        kernel: usize,
        window: usize,
        batch: usize,
        slots: usize,
    ) -> Layout {
        let side = (in_side + 1 - kernel) / window;
        let orbit = Layout::Orbit {
            batch,
            side,
            window,
        };
        match orbit.orbit_geometry(slots) {
            Some(_) if orbit.ingress_cells(in_side, slots) < in_side * in_side => orbit,
            _ => Layout::Pixel,
        }
    }

    /// `(stride, groups)` of a [`Layout::Orbit`] map: [`orbit_stride`] and
    /// `⌈batch / (2·stride)⌉`; `None` for another layout or no stride.
    pub fn orbit_geometry(self, slots: usize) -> Option<(usize, usize)> {
        let Layout::Orbit { batch, side, .. } = self else {
            return None;
        };
        orbit_stride(side, slots).map(|stride| (stride, batch.div_ceil(2 * stride)))
    }

    /// The layout an enclave hands `batch` images' `inputs` values to a
    /// `classes`-way fully connected layer in. The operand layout iff it is
    /// fewer ciphertexts — `C·B ≤ slots` and `⌈J/L⌉ < J` (the paper's model,
    /// n = 1024: `B ≤ 51`) — and the layer is wider than a ciphertext,
    /// `C·J ≥ slots`: a narrower one would fit a small batch into one cell
    /// (`L = J`), leaving the HE layer a single multiply and the whole dot
    /// product to whoever adds up the partial sums (DESIGN.md §6).
    pub fn for_fc(inputs: usize, classes: usize, batch: usize, slots: usize) -> Layout {
        let operand = Layout::FcOperand {
            classes,
            batch,
            inputs,
        };
        let wide = classes.checked_mul(inputs).is_some_and(|all| all >= slots);
        match operand.fc_per_cell(slots) {
            Some(per_cell) if wide && inputs.div_ceil(per_cell) < inputs => operand,
            _ => Layout::Pixel,
        }
    }

    /// `L = min(inputs, ⌊slots / (C·B)⌋)`, the inputs one cell of an
    /// `FcOperand` map holds. `None` for another layout and for a claim no
    /// cell can hold: no input, class or image, or `C·B` past `slots`.
    pub fn fc_per_cell(self, slots: usize) -> Option<usize> {
        let Layout::FcOperand {
            classes,
            batch,
            inputs,
        } = self
        else {
            return None;
        };
        let block = classes.checked_mul(batch).filter(|&block| block > 0)?;
        Some(inputs.min(slots / block)).filter(|&per_cell| per_cell > 0)
    }

    /// Cells per channel of a `Patches { batch, side }` map (a claim past
    /// `usize` saturates: more cells than any map holds).
    pub fn chunks(batch: usize, side: usize, slots: usize) -> usize {
        let values = side.saturating_mul(side).saturating_mul(batch);
        values.div_ceil(slots)
    }

    /// How many ciphertexts a batch of `in_side × in_side` images is (no
    /// batch enters as `FcOperand`; one told to enters per pixel).
    pub fn ingress_cells(self, in_side: usize, slots: usize) -> usize {
        match self {
            Layout::Pixel | Layout::FcOperand { .. } => in_side * in_side,
            Layout::Patches { batch, side } => {
                (in_side - side + 1).pow(2) * Layout::chunks(batch, side, slots)
            }
            Layout::Orbit { side, window, .. } => {
                let groups = self.orbit_geometry(slots).map_or(0, |(_, groups)| groups);
                ((in_side + 1).saturating_sub(side * window) * window).pow(2) * groups
            }
        }
    }

    /// The slot values of every ingress cell, in map order (client and
    /// `ecall_Transcipher`). Panics on an image shorter than `in_side²`.
    pub fn pack(self, images: &[Vec<i64>], in_side: usize, slots: usize) -> Vec<Vec<i64>> {
        if let (Layout::Orbit { side, window, .. }, Some(geometry)) =
            (self, self.orbit_geometry(slots))
        {
            return pack_orbit(images, (in_side, side, window), slots, geometry);
        }
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

/// [`Layout::pack`] of a [`Layout::Orbit`], in map order.
fn pack_orbit(
    images: &[Vec<i64>],
    (in_side, side, window): (usize, usize, usize),
    slots: usize,
    (stride, groups): (usize, usize),
) -> Vec<Vec<i64>> {
    let kernel = in_side + 1 - side * window;
    let (map, per_group) = (matrix_index_map(slots), 2 * stride);
    let padded = images.chunks(per_group).chain(std::iter::repeat(&[][..]));
    let groups: Vec<&[Vec<i64>]> = padded.take(groups).collect();
    let mut cells = Vec::new();
    for (ky, kx) in (0..kernel * kernel).map(|offset| (offset / kernel, offset % kernel)) {
        for group in &groups {
            for (dy, dx) in (0..window * window).map(|m| (m / window, m % window)) {
                let mut cell = vec![0; slots];
                for (image, img) in group.iter().enumerate() {
                    for position in 0..side * side {
                        let y = position / side * window + dy + ky;
                        let x = position % side * window + dx + kx;
                        cell[map[orbit_entry(position, image, stride, slots)]] =
                            img[y * in_side + x];
                    }
                }
                cells.push(cell);
            }
        }
    }
    cells
}

/// An encrypted feature map: `channels × height × width` row-major cells.
#[derive(Debug, Clone, PartialEq)]
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
    /// in_side`, `k² × chunks × 1` or `k² × groups·w × w`). Panics when the
    /// cell count does not fit.
    pub fn ingress(layout: Layout, in_side: usize, cells: Vec<CrtCiphertext>) -> Self {
        let (offsets, width) = match layout {
            Layout::Patches { side, .. } => ((in_side - side + 1).pow(2), 1),
            Layout::Orbit { side, window, .. } => ((in_side + 1 - side * window).pow(2), window),
            _ => return EncryptedMap::new(1, in_side, in_side, cells),
        };
        let height = cells.len() / (offsets * width);
        EncryptedMap::new(offsets, height, width, cells).with_layout(layout)
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
    /// [`Layout::Pixel`] map does not say how many images it carries (nor,
    /// unmeasured, does a [`Layout::Orbit`] one).
    pub fn occupancy_ppm(&self, slots: usize) -> Option<u64> {
        let live = match self.layout {
            Layout::Pixel | Layout::Orbit { .. } => return None,
            Layout::Patches { batch, side } => [self.channels, side, side, batch],
            Layout::FcOperand {
                classes,
                batch,
                inputs,
            } => [inputs, classes, batch, 1],
        };
        // (A host-claimed shape may multiply past any integer width.)
        let live = live
            .iter()
            .fold(1_000_000u128, |n, &f| n.saturating_mul(f as u128));
        let held = (self.cells.len() as u128 * slots as u128).max(1);
        Some(u64::try_from(live / held).unwrap_or(u64::MAX))
    }

    /// [`Layout::fc_per_cell`] of a map holding exactly the cells its
    /// [`Layout::FcOperand`] claims; [`BfvError::InvalidShape`] otherwise.
    pub fn fc_per_cell(&self, slots: usize) -> Result<usize> {
        if let (Layout::FcOperand { inputs, .. }, Some(per_cell)) =
            (self.layout, self.layout.fc_per_cell(slots))
        {
            if inputs.div_ceil(per_cell) == self.cells.len() {
                return Ok(per_cell);
            }
        }
        let (held, layout) = (self.cells.len(), self.layout);
        Err(BfvError::InvalidShape(format!(
            "{held} cells of {slots} slots as {layout:?}"
        )))
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

    /// Encrypts a batch of quantized images (each `side*side` pixels) in
    /// `layout` under `keys` ([`CrtPlainSystem::encrypt_slots`]: the user's
    /// copy of the secret keys, or the public keys): one task per ingress
    /// cell on `pool` (one runs inline).
    ///
    /// Each cell encrypts with its **own fork** of `rng`, keyed by the cell
    /// index (`enc-cell-{i}`), so the ciphertexts are bit-for-bit identical
    /// for every thread count and scheduling order. Forking never advances
    /// the parent: two calls on one `rng` draw the same randomness, so pass
    /// a per-batch fork ([`ChaChaRng::fork_next`]) for more than one batch.
    ///
    /// # Errors
    ///
    /// [`BfvError::InvalidShape`] for an image not of `side²` pixels; fails
    /// when a cell holds more values than slots or encryption fails.
    pub fn encrypt_images<K: EncryptionKey + Sync>(
        sys: &CrtPlainSystem,
        images: &[Vec<i64>],
        side: usize,
        layout: Layout,
        keys: &[K],
        rng: &ChaChaRng,
        pool: &ParExec,
    ) -> Result<EncryptedMap> {
        if images.iter().any(|img| img.len() != side * side) {
            return Err(BfvError::InvalidShape(format!(
                "an image not of {side}² pixels"
            )));
        }
        let base = rng.fork("enc-map");
        let packed = layout.pack(images, side, sys.slot_count());
        let cells = pool.try_run(packed.len(), |cell| {
            let mut cell_rng = base.fork(&format!("enc-cell-{cell}"));
            sys.encrypt_slots(&packed[cell], keys, &mut cell_rng)
        })?;
        Ok(EncryptedMap::ingress(layout, side, cells))
    }

    /// Decrypts every cell into one row of signed values per image, for the
    /// first `batch` images — the one decode of a finished inference's logits.
    /// A [`Layout::Pixel`] (or, raw, a [`Layout::Patches`]) map gives slot `b`
    /// of every cell, `[batch][channels*height*width]`; a
    /// [`Layout::FcOperand`] map reads [`fc_slot`], `[batch][class·inputs +
    /// input]` — `[batch][classes]` for reduced logits; a `channels × groups
    /// × 1` [`Layout::Orbit`] map reads position 0 of the image's group,
    /// `[batch][channels]`. One decryption task per cell on `pool` (a pool of
    /// one runs inline); decryption draws no randomness, so the result is the
    /// same for every pool size.
    ///
    /// # Errors
    ///
    /// [`BfvError::InvalidShape`] for an `FcOperand` or `Orbit` map that
    /// does not hold what it claims or fewer than `batch` images; propagates
    /// decryption failures.
    // hesgx-lint: allow(secret-pub-api, reason = "user-side decryption with the user's own key copy")
    pub fn decrypt_all(
        &self,
        sys: &CrtPlainSystem,
        secret: &[SecretKey],
        batch: usize,
        pool: &ParExec,
    ) -> Result<Vec<Vec<i128>>> {
        let slots = sys.slot_count();
        let refuse = || {
            let (cells, layout) = (self.cells.len(), self.layout);
            let claim = format!("{batch} rows of {cells} cells as {layout:?}");
            Err(BfvError::InvalidShape(claim))
        };
        let read = match self.layout {
            Layout::FcOperand {
                classes,
                batch: held,
                inputs,
            } => {
                let per_cell = self.fc_per_cell(slots)?;
                if batch > held {
                    return refuse();
                }
                Read::Operand(classes, inputs, per_cell)
            }
            Layout::Orbit { batch: held, .. } => {
                let geometry = self.layout.orbit_geometry(slots);
                let shaped = (self.height, self.width) == (geometry.map_or(0, |(_, g)| g), 1);
                match geometry.filter(|_| shaped && batch <= held) {
                    Some((stride, _)) => Read::Orbit(stride, matrix_index_map(slots)),
                    None => return refuse(),
                }
            }
            _ => Read::Slot,
        };
        let cells = pool.try_run(self.cells.len(), |i| {
            sys.decrypt_slots(&self.cells[i], secret)
        })?;
        let row = |b| match &read {
            Read::Slot => cells.iter().map(|cell| cell[b]).collect(),
            Read::Operand(classes, inputs, per) => (0..classes * inputs)
                .map(|v| (v / inputs, v % inputs))
                .map(|(class, j)| cells[j / per][fc_slot(j % per, class, b, *per, *classes)])
                .collect(),
            Read::Orbit(stride, map) => {
                let (group, image) = (b / (2 * stride), b % (2 * stride));
                let slot = map[orbit_entry(0, image, *stride, slots)];
                let cell = |c: usize| cells[c * self.height + group][slot];
                (0..self.channels).map(cell).collect()
            }
        };
        Ok((0..batch).map(row).collect())
    }
}

/// Where [`EncryptedMap::decrypt_all`] reads an image's values.
enum Read {
    Slot,
    Operand(usize, usize, usize),
    Orbit(usize, Vec<usize>),
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
        // The egress rule: the paper's 720 pooled values for ten classes at
        // n = 1024 leave ten to a cell at the paper's batch (72 ciphertexts,
        // not 720) and packed up to 51 images — 52 would be one input a cell
        // again. The broker's 50 values for three classes at n = 256 never
        // do: 150 values are not a ciphertext's worth, one image's would all
        // sit in one cell.
        let operand = |classes, batch, inputs| Layout::FcOperand {
            classes,
            batch,
            inputs,
        };
        for (batch, per_cell, cells) in [(1, 102, 8), (10, 10, 72), (34, 3, 240), (51, 2, 360)] {
            let layout = Layout::for_fc(720, 10, batch, 1024);
            assert_eq!(layout, operand(10, batch, 720));
            assert_eq!(layout.fc_per_cell(1024), Some(per_cell), "batch {batch}");
            assert_eq!(720usize.div_ceil(per_cell), cells, "batch {batch}");
        }
        assert_eq!(Layout::for_fc(720, 10, 52, 1024), Layout::Pixel);
        assert_eq!(operand(10, 52, 720).fc_per_cell(1024), Some(1));
        for (batch, per_cell) in [(1, 50), (2, 42), (8, 10)] {
            assert_eq!(Layout::for_fc(50, 3, batch, 256), Layout::Pixel);
            assert_eq!(operand(3, batch, 50).fc_per_cell(256), Some(per_cell));
        }
        // `C·J` at the slots is wide enough, one value short is not.
        assert_eq!(Layout::for_fc(64, 4, 2, 256), operand(4, 2, 64));
        assert_eq!(Layout::for_fc(85, 3, 2, 256), Layout::Pixel);
        assert_eq!(Layout::for_fc(usize::MAX, 3, 2, 256), Layout::Pixel);
        // `C·B` at the slots still holds one input a cell; past them, and for
        // a claim of nothing or of more than `usize`, no cell holds any.
        assert_eq!(operand(4, 64, 18).fc_per_cell(256), Some(1));
        for claim in [
            operand(4, 65, 18),
            operand(0, 2, 18),
            operand(3, 0, 18),
            operand(3, 2, 0),
            operand(usize::MAX, 2, 18),
            Layout::Pixel,
            Layout::Patches { batch: 2, side: 6 },
        ] {
            assert_eq!(claim.fc_per_cell(256), None, "{claim:?}");
        }
        for (inputs, classes, batch) in [
            (72, 4, 64),
            (72, 4, 65),
            (1, 256, 1),
            (18, 0, 2),
            (72, 4, 0),
        ] {
            assert_eq!(Layout::for_fc(inputs, classes, batch, 256), Layout::Pixel);
        }
        // The reduced logits hold one value per (class, image).
        assert_eq!(operand(10, 10, 1).fc_per_cell(1024), Some(1));
    }

    /// An `FcOperand` map decrypts through `fc_slot` into one row per image
    /// (`[class·inputs + input]`), says how full its cells are, and refuses
    /// a claim its cells do not hold.
    #[test]
    fn fc_operand_round_trips_and_reports_its_occupancy() {
        let sys = CrtPlainSystem::new(256, &[12289]).unwrap();
        let mut rng = ChaChaRng::from_seed(53);
        let keys = sys.generate_keys(&mut rng);
        // Seven inputs of two images for twenty classes: ⌊256/40⌋ = 6 a cell.
        let (classes, batch, inputs) = (20, 2, 7);
        let layout = Layout::FcOperand {
            classes,
            batch,
            inputs,
        };
        let value = |input: usize, image: usize| (input * 10 + image) as i64 - 30;
        let cells: Vec<CrtCiphertext> = [(0, 6), (6, 1)]
            .iter()
            .map(|&(first, live)| {
                let each = |j, _, image| value(first + j, image);
                let slots = fc_cell(256, (6, live), (classes, batch), each);
                sys.encrypt_slots(&slots, &keys.public, &mut rng).unwrap()
            })
            .collect();
        let map = EncryptedMap::new(2, 1, 1, cells.clone()).with_layout(layout);
        assert_eq!(map.fc_per_cell(256).unwrap(), 6);
        assert_eq!(map.occupancy_ppm(256), Some(7 * 40 * 1_000_000 / 512));
        let rows = map
            .decrypt_all(&sys, &keys.secret, batch, &ParExec::new(2))
            .unwrap();
        for (image, row) in rows.iter().enumerate() {
            let want: Vec<i128> = (0..classes * inputs)
                .map(|v| value(v % inputs, image).into())
                .collect();
            assert_eq!(row, &want, "image {image}");
        }
        // The paper request's operand map and its one logits ciphertext.
        let paper = |inputs, count| {
            let layout = Layout::FcOperand {
                classes: 10,
                batch: 10,
                inputs,
            };
            let map = EncryptedMap::new(count, 1, 1, vec![cells[0].clone(); count]);
            map.with_layout(layout).occupancy_ppm(1024)
        };
        assert_eq!(paper(720, 72), Some(976_562));
        assert_eq!(paper(1, 1), Some(97_656));
        // More rows than images, a cell too many, a claim no cell holds.
        let invalid = |map: &EncryptedMap, batch| {
            let rows = map.decrypt_all(&sys, &keys.secret, batch, &ParExec::serial());
            assert!(matches!(rows, Err(BfvError::InvalidShape(_))), "{map:?}");
        };
        invalid(&map, 3);
        let long = EncryptedMap::new(3, 1, 1, vec![cells[0].clone(); 3]).with_layout(layout);
        assert!(long.fc_per_cell(256).is_err());
        invalid(&long, 2);
        for claim in [(0, 2, 7), (20, 13, 7), (usize::MAX, usize::MAX, 7)] {
            let (classes, batch, inputs) = claim;
            let claim = Layout::FcOperand {
                classes,
                batch,
                inputs,
            };
            let map = map.clone().with_layout(claim);
            invalid(&map, 1);
            assert!(map.occupancy_ppm(256).is_some());
        }
        assert!(map
            .clone()
            .with_layout(Layout::Pixel)
            .fc_per_cell(256)
            .is_err());
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

    /// The orbit count rule: the 12×12 / 3×3 / 2×2 model at n = 1024 runs an
    /// orbit of 32 positions, 16 images a matrix row and 32 a group of 36
    /// cells — packed up to 96 images (108 cells against 144). The paper's
    /// 28×28 / 5×5 / 2×2 model: an orbit of 256, 4 images a group of 100
    /// cells against 784, so up to 28. An orbit longer than a row never.
    #[test]
    fn orbit_count_rule_and_geometry() {
        let orbit = |batch, side| Layout::Orbit {
            batch,
            side,
            window: 2,
        };
        for (batch, groups) in [(1, 1), (10, 1), (32, 1), (33, 2), (96, 3)] {
            assert_eq!(Layout::for_orbit(12, 3, 2, batch, 1024), orbit(batch, 5));
            assert_eq!(orbit(batch, 5).orbit_geometry(1024), Some((16, groups)));
            assert_eq!(orbit(batch, 5).ingress_cells(12, 1024), 36 * groups);
        }
        assert_eq!(Layout::for_orbit(12, 3, 2, 97, 1024), Layout::Pixel);
        assert_eq!(Layout::for_orbit(28, 5, 2, 28, 1024), orbit(28, 12));
        assert_eq!(orbit(28, 12).ingress_cells(28, 1024), 700);
        assert_eq!(Layout::for_orbit(28, 5, 2, 29, 1024), Layout::Pixel);
        assert_eq!(Layout::for_orbit(28, 5, 2, 1, 256), Layout::Pixel);
        assert_eq!(orbit(1, 12).orbit_geometry(256), None);
        assert_eq!(Layout::Pixel.orbit_geometry(1024), None);
    }

    /// An orbit batch packs one cell per (kernel offset, window member), each
    /// pooled position of each image at its `orbit_entry`; `decrypt_all`
    /// reads position 0 of a `channels × groups × 1` map.
    #[test]
    fn orbit_batch_packs_planes_of_pooled_positions() {
        let sys = CrtPlainSystem::new(256, &[12289]).unwrap();
        let mut rng = ChaChaRng::from_seed(54);
        let keys = sys.generate_keys(&mut rng);
        // 4×4 images, a 1×1 kernel, 2×2 windows: 4 positions, 32 images a row.
        let images: Vec<Vec<i64>> = (0..3)
            .map(|b| (0..16).map(|p| (b * 16 + p) as i64 - 20).collect())
            .collect();
        let layout = Layout::for_orbit(4, 1, 2, 3, 256);
        assert_eq!(layout.orbit_geometry(256), Some((32, 1)));
        let pool = ParExec::serial();
        let map = EncryptedMap::encrypt_images(&sys, &images, 4, layout, &keys.secret, &rng, &pool)
            .unwrap();
        assert_eq!((map.shape(), map.layout()), ((1, 2, 2), layout));
        assert_eq!(map.occupancy_ppm(256), None);
        let index = matrix_index_map(256);
        for (member, cell) in map.cells().iter().enumerate() {
            let slots = sys.decrypt_slots(cell, &keys.secret).unwrap();
            let (dy, dx) = (member / 2, member % 2);
            for (b, img) in images.iter().enumerate() {
                for position in 0..4 {
                    let pixel = (position / 2 * 2 + dy) * 4 + position % 2 * 2 + dx;
                    let slot = index[orbit_entry(position, b, 32, 256)];
                    assert_eq!(
                        slots[slot], img[pixel] as i128,
                        "member {member}, image {b}"
                    );
                }
            }
        }
        // The four member cells read as a `4 × 1 × 1` map: position 0 of each.
        let cells = map.cells().to_vec();
        let pooled = EncryptedMap::new(4, 1, 1, cells).with_layout(layout);
        let rows = pooled.decrypt_all(&sys, &keys.secret, 3, &pool).unwrap();
        for (row, img) in rows.iter().zip(&images) {
            let want: Vec<i128> = [0, 1, 4, 5].iter().map(|&p| img[p].into()).collect();
            assert_eq!(row, &want);
        }
        // More rows than images, a map not one row a group, or a height its
        // groups do not make.
        assert!(pooled.decrypt_all(&sys, &keys.secret, 4, &pool).is_err());
        assert!(map.decrypt_all(&sys, &keys.secret, 1, &pool).is_err());
        let claim = Layout::Orbit {
            batch: 129,
            side: 2,
            window: 2,
        };
        let odd = pooled.with_layout(claim);
        assert!(odd.decrypt_all(&sys, &keys.secret, 1, &pool).is_err());
    }

    /// An image of the wrong size is an error, not a panic.
    #[test]
    fn encrypt_images_refuses_a_misshapen_image() {
        let sys = CrtPlainSystem::new(256, &[12289]).unwrap();
        let mut rng = ChaChaRng::from_seed(55);
        let keys = sys.generate_keys(&mut rng);
        let images = vec![vec![1i64; 16], vec![1i64; 15]];
        for layout in [Layout::Pixel, Layout::for_orbit(4, 1, 2, 2, 256)] {
            let enc = EncryptedMap::encrypt_images(
                &sys,
                &images,
                4,
                layout,
                &keys.public,
                &rng,
                &ParExec::serial(),
            );
            assert!(matches!(enc, Err(BfvError::InvalidShape(_))), "{layout:?}");
        }
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
