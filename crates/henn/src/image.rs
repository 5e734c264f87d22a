//! Encrypted feature maps: the data layouts of the encrypted pipelines.
//!
//! [`Layout::Pixel`] is the paper's (§V-B / §VIII, `batchSize = 10`): one
//! [`CrtCiphertext`] per pixel position, the batch across the SIMD slots —
//! `B` 28×28 images are 784 encryptions with `B` live slots each.
//! [`Layout::Coeff`] is one ciphertext per image, its pixels the plaintext
//! polynomial's coefficients, so a convolution is one product with a kernel
//! polynomial per (channel, image), with no rotation;
//! [`Layout::FcOperand`] packs the fully connected inputs `⌊n/B⌋` slots an
//! image, so that layer is one product per (class, cell) with no rotation,
//! and [`Layout::Orbit`] the pure-HE plan but its FC rotations;
//! `Layout::for_*` pick the fewer (DESIGN.md §6), and one rule, [`SlotMap`],
//! places every value for encoders and decoders.

use crate::crt::{CrtCiphertext, CrtPlainSystem, CrtSeededCiphertext, Encoding};
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
    /// One cell per (channel, image), `channels × batch × 1`: pixel `(y, x)`
    /// of a `side × side` map is coefficient `y·pitch + x` of the plaintext
    /// polynomial ([`Encoding::Coeffs`]). A stride-1 convolution keeps the
    /// pitch and shrinks the side; nothing wraps while `(side − 1)·pitch +
    /// side ≤ n`.
    Coeff {
        /// Images in the batch.
        batch: usize,
        /// Side of the map.
        side: usize,
        /// Coefficients from one row of the map to the next.
        pitch: usize,
    },
    /// Packed for the fully connected layer, `P = ⌊slots / batch⌋` slots an
    /// image: value `v = class·inputs + input` sits in cell `v / P` at slot
    /// `image·P + v % P` — `⌈classes·inputs / P⌉` cells
    /// ([`Layout::fc_geometry`]). The layer's operand is one class of its
    /// inputs, each value once; its output one cell a class of `P` partial
    /// sums an image (`inputs = P`), the reduced logits one value a class
    /// (`inputs = 1`).
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
    /// offset, then output channel) for group `g`'s images; pooled,
    /// `[channel][g][0]`.
    Orbit {
        /// Images in the batch.
        batch: usize,
        /// Side of the pooled map.
        side: usize,
        /// Side of the pooling window.
        window: usize,
    },
}

/// The images a batch-matrix row of `slots / 2` holds in [`Layout::Orbit`]:
/// the row over the orbit, `side²` rounded up to a power of two.
pub fn orbit_stride(side: usize, slots: usize) -> Option<usize> {
    let orbit = side.checked_mul(side)?.checked_next_power_of_two()?;
    Some(slots / 2 / orbit).filter(|&stride| stride > 0)
}

/// A [`Layout`]'s one placement rule over `(channels, h, w)` cells of
/// `slots` slots: value `(channel, position = y·w + x, image)` — `(class,
/// input, image)` in an `FcOperand` map — sits at [`SlotMap::place`]:
///
/// | layout | cell | slot |
/// |---|---|---|
/// | `Pixel` | `channel·h·w + position` | `image` |
/// | `Coeff` | `channel·batch + image` | `(position / side)·pitch + position % side` |
/// | `FcOperand` | `v / P` | `image·P + v % P` |
/// | `Orbit` | `[channel][g·w + dy][dx]` | `matrix_index_map[(i / stride)·slots/2 + q·stride + i % stride]` |
///
/// `v = class·inputs + input` and `P = ⌊slots / batch⌋`; orbit image `i` of
/// group `g` at `(y, x)` (on a `side·w` grid, `w = 1` pooled) is pooled
/// position `q = (y / w)·side + x / w`.
#[derive(Debug, Clone)]
pub struct SlotMap {
    layout: Layout,
    shape: (usize, usize, usize),
    slots: usize,
    extent: (usize, usize, usize),
    /// `P` of an operand map, an orbit's stride.
    step: std::num::NonZeroUsize,
    index: Option<Vec<usize>>,
}

type Pair = (usize, usize);

impl SlotMap {
    /// `(channels, positions, images)` of the addresses the map holds.
    pub fn extent(&self) -> (usize, usize, usize) {
        self.extent
    }

    /// `(base, step)` of `(channel, position)`: image `i` sits at `base +
    /// step·i` of the cells laid end to end — every layout but the orbit.
    #[inline(always)]
    fn row(&self, channel: usize, position: usize) -> Option<Pair> {
        let ((_, positions, _), slots) = (self.extent, self.slots);
        match self.layout {
            Layout::Pixel => Some(((channel * positions + position) * slots, 1)),
            Layout::Coeff { batch, side, pitch } => {
                let coefficient = position / side * pitch + position % side;
                Some((channel * batch * slots + coefficient, slots))
            }
            Layout::FcOperand { inputs, .. } => {
                let (value, per) = (channel * inputs + position, self.step.get());
                Some((value / per * slots + value % per, per))
            }
            Layout::Orbit { .. } => None,
        }
    }

    /// The `(cell, slot)` of an address; `None` outside the map.
    #[inline(always)]
    pub fn place(&self, channel: usize, position: usize, image: usize) -> Option<(usize, usize)> {
        let (channels, positions, images) = self.extent;
        if channel >= channels || position >= positions || image >= images {
            return None;
        }
        self.at(self.row(channel, position), channel, position, image)
    }

    /// The `(cell, slot)` of `(channel, position)` for every image the map
    /// holds, in image order — [`SlotMap::place`] of each, the row resolved
    /// once; nothing outside the map.
    pub fn places(&self, channel: usize, position: usize) -> impl Iterator<Item = Pair> + '_ {
        let (channels, positions, images) = self.extent;
        let held = channel < channels && position < positions;
        let row = held.then(|| self.row(channel, position)).flatten();
        (0..images * usize::from(held)).map_while(move |i| self.at(row, channel, position, i))
    }

    #[inline(always)]
    fn at(&self, row: Option<Pair>, c: usize, p: usize, i: usize) -> Option<Pair> {
        let ((_, h, w), slots, step) = (self.shape, self.slots, self.step);
        if let Some((base, step)) = row {
            let k = base + step * i;
            return Some((k >> slots.trailing_zeros(), k & (slots - 1)));
        }
        let Layout::Orbit { side, .. } = self.layout else {
            return None;
        };
        let (row, group) = (side * w, i / step / 2);
        let (y, x) = (p / row, p % row);
        let entry = i / step % 2 * (slots / 2) + (y / w * side + x / w) * step.get();
        let cell = (c * h + group * w + y % w) * w + x % w;
        Some((cell, self.index.as_ref()?[entry + i % step]))
    }

    /// Every cell's slots, `value(channel, position, image)` at its place for
    /// the first `images` images; [`BfvError::InvalidShape`] past the map's.
    pub fn encode(
        &self,
        images: usize,
        value: impl Fn(usize, usize, usize) -> i64,
    ) -> Result<Vec<Vec<i64>>> {
        let ((channels, positions, held), (c, h, w)) = (self.extent, self.shape);
        if images > held {
            let claim = format!("{images} images as {:?}", self.layout);
            return Err(BfvError::InvalidShape(claim));
        }
        let mut cells = vec![vec![0; self.slots]; c * h * w];
        for (c, p) in (0..channels).flat_map(|c| (0..positions).map(move |p| (c, p))) {
            for (i, (cell, slot)) in self.places(c, p).take(images).enumerate() {
                cells[cell][slot] = value(c, p, i);
            }
        }
        Ok(cells)
    }

    /// Value `(channel, position, image)` of the decrypted `cells`; errs
    /// ([`BfvError::InvalidShape`]) for an address the cells do not hold.
    pub fn decode<T: Copy>(&self, cells: &[Vec<T>], c: usize, p: usize, i: usize) -> Result<T> {
        let place = self.place(c, p, i);
        let value = place.and_then(|(cell, slot)| cells.get(cell)?.get(slot).copied());
        let layout = self.layout;
        value.ok_or_else(|| BfvError::InvalidShape(format!("({c}, {p}, {i}) of {layout:?}")))
    }
}

impl Layout {
    /// The layout bringing `batch` `in_side²` images to a stride-1
    /// convolution in fewer ciphertexts: one an image ([`Layout::Coeff`],
    /// pitch `in_side`) iff an image fits a polynomial, `in_side² ≤ slots`,
    /// and `batch < in_side²` (the paper's model, n = 1024: `B ≤ 783`).
    pub fn for_conv(in_side: usize, batch: usize, slots: usize) -> Layout {
        let pixels = in_side.saturating_mul(in_side);
        match pixels <= slots && batch < pixels {
            true => Layout::Coeff {
                batch,
                side: in_side,
                pitch: in_side,
            },
            false => Layout::Pixel,
        }
    }

    /// How the layout's cells hold their values: [`Encoding::Coeffs`] for
    /// [`Layout::Coeff`], SIMD slots for every other layout.
    pub fn encoding(self) -> Encoding {
        match self {
            Layout::Coeff { .. } => Encoding::Coeffs,
            _ => Encoding::Slots,
        }
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
    /// `classes`-way fully connected layer in. The one-class operand layout,
    /// each value once, iff it crosses the enclave boundary in fewer
    /// ciphertexts — its `⌈J/P⌉` cells out, the `C` partial-sum cells back
    /// in and the `⌈C/P⌉` logit cells out of the closing reduction against
    /// `J` cells out per pixel, `⌈J/P⌉ + C + ⌈C/P⌉ < J` (the paper's model,
    /// n = 1024: `B ≤ 512`) — and the layer is wider than a ciphertext,
    /// `C·J ≥ slots`: a narrower one would leave the HE layer one product a
    /// class and the whole dot product to whoever adds up the partial sums
    /// (DESIGN.md §6).
    pub fn for_fc(inputs: usize, classes: usize, batch: usize, slots: usize) -> Layout {
        let operand = Layout::FcOperand {
            classes: 1,
            batch,
            inputs,
        };
        let wide = classes.checked_mul(inputs).is_some_and(|all| all >= slots);
        let crossings = |(per, cells): (usize, usize)| {
            let logits = classes.div_ceil(per);
            cells.saturating_add(classes).saturating_add(logits)
        };
        match operand.fc_geometry(slots).map(crossings) {
            Some(crossings) if wide && crossings < inputs => operand,
            _ => Layout::Pixel,
        }
    }

    /// `(P, cells)` of an `FcOperand` map: `P = ⌊slots / batch⌋` slots an
    /// image, `⌈classes·inputs / P⌉` cells. `None` for another layout and
    /// for a claim no cell can hold: no class, input or image, more images
    /// than slots, or more values than `usize`.
    pub fn fc_geometry(self, slots: usize) -> Option<(usize, usize)> {
        let Layout::FcOperand {
            classes,
            batch,
            inputs,
        } = self
        else {
            return None;
        };
        let per = slots.checked_div(batch).filter(|&per| per > 0)?;
        let values = classes.checked_mul(inputs).filter(|&values| values > 0)?;
        Some((per, values.div_ceil(per)))
    }

    /// How many ciphertexts a batch of `in_side × in_side` images is.
    pub fn ingress_cells(self, in_side: usize, slots: usize) -> usize {
        let (_, _, (offsets, height, width)) = self.ingress_shape(in_side, slots);
        offsets * height * width
    }

    /// The layout, kernel and shape `in_side²` images enter in (`FcOperand`:
    /// per pixel); kernel 0 for a `Coeff` claim of another side.
    fn ingress_shape(self, in_side: usize, slots: usize) -> (Layout, usize, (usize, usize, usize)) {
        let (out_side, height, width) = match self {
            Layout::Coeff { batch, side, .. } => {
                return (self, usize::from(side == in_side), (1, batch, 1))
            }
            Layout::Orbit { side, window, .. } => {
                let groups = self.orbit_geometry(slots).map_or(0, |(_, groups)| groups);
                (side * window, groups * window, window)
            }
            _ => return (Layout::Pixel, 1, (1, in_side, in_side)),
        };
        let kernel = (in_side + 1).saturating_sub(out_side);
        (self, kernel, (kernel * kernel, height, width))
    }

    /// The placement rule of a map of `(channels, height, width)` cells; errs
    /// for a claim they cannot hold: no image, or not `batch × 1` or
    /// `groups·w × w` (pooled `groups × 1`) cells a channel or an operand's
    /// `⌈classes·inputs / P⌉ × 1 × 1`, or a `Coeff` map whose rows overlap
    /// (`side > pitch`) or wrap (`(side − 1)·pitch + side > slots`).
    pub fn slot_map(self, shape: (usize, usize, usize), slots: usize) -> Result<SlotMap> {
        let (c, h, w) = shape;
        // The rule's step (`P`, an orbit's stride) and what the claim holds.
        let (step, extent) = match self {
            Layout::Pixel => (Some(1), (c, h.saturating_mul(w), slots)),
            Layout::Coeff { batch, side, pitch } => {
                let last = (side.checked_sub(1)).and_then(|rows| rows.checked_mul(pitch));
                let fits = last
                    .and_then(|last| last.checked_add(side))
                    .is_some_and(|end| end <= slots);
                let held = batch > 0 && side <= pitch && fits && (h, w) == (batch, 1);
                (held.then_some(1), (c, side.saturating_mul(side), batch))
            }
            Layout::FcOperand {
                classes: n,
                batch: b,
                inputs,
            } => {
                let held = self.fc_geometry(slots).filter(|&(_, g)| shape == (g, 1, 1));
                (held.map(|(per, _)| per), (n, inputs, b))
            }
            Layout::Orbit {
                batch: b,
                side,
                window: win,
            } => {
                let fits = |g: usize| g > 0 && (w == 1 || w == win) && g.checked_mul(w) == Some(h);
                let held = self.orbit_geometry(slots).filter(|&(_, g)| fits(g));
                let row = side.saturating_mul(w);
                let extent = (c, row.saturating_mul(row), b);
                (held.map(|(stride, _)| stride), extent)
            }
        };
        let cells = c.checked_mul(h).and_then(|n| n.checked_mul(w));
        let held = step.filter(|_| slots.is_power_of_two() && cells.is_some());
        let Some(step) = held.and_then(std::num::NonZeroUsize::new) else {
            let claim = format!("{c}×{h}×{w} cells of {slots} slots as {self:?}");
            return Err(BfvError::InvalidShape(claim));
        };
        let index = matches!(self, Layout::Orbit { .. }).then(|| matrix_index_map(slots));
        Ok(SlotMap {
            layout: self,
            shape,
            slots,
            extent,
            step,
            index,
        })
    }

    /// The slots (coefficients) of every ingress cell (client and
    /// `ecall_Transcipher`): the pixels where the layout places them, the
    /// orbit's im2col of its convolution; errs for an image not of `in_side²`
    /// pixels, a kernel wider than it, a `Coeff` map of another side or more
    /// images.
    pub fn pack(self, images: &[Vec<i64>], in_side: usize, slots: usize) -> Result<Vec<Vec<i64>>> {
        let (layout, kernel, shape) = self.ingress_shape(in_side, slots);
        if kernel == 0 || images.iter().any(|img| img.len() != in_side * in_side) {
            let claim = format!("{} images of {in_side}² pixels as {self:?}", images.len());
            return Err(BfvError::InvalidShape(claim));
        }
        let out_side = in_side + 1 - kernel;
        let patch = |offset, position, image: usize| {
            let (y, x) = (position / out_side + offset / kernel, position % out_side);
            images[image][y * in_side + x + offset % kernel]
        };
        layout.slot_map(shape, slots)?.encode(images.len(), patch)
    }
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

    /// The map of a [`Layout::pack`]ed batch's ciphertexts (`1 × side × side`,
    /// `1 × batch × 1` or `k² × groups·w × w`). Panics when the cell count
    /// does not fit.
    pub fn ingress(layout: Layout, side: usize, slots: usize, cells: Vec<CrtCiphertext>) -> Self {
        let (layout, _, (offsets, height, width)) = layout.ingress_shape(side, slots);
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

    /// Live slots per million of a packed map's cells ([`SlotMap`]); not of a
    /// `Pixel` map (no image count), an orbit, or a claim the cells do not hold.
    pub fn occupancy_ppm(&self, slots: usize) -> Option<u64> {
        if matches!(self.layout, Layout::Pixel | Layout::Orbit { .. }) {
            return None;
        }
        let (c, p, i) = self.layout.slot_map(self.shape(), slots).ok()?.extent();
        let held = (self.cells.len() as u128 * slots as u128).max(1);
        u64::try_from((c * p * i) as u128 * 1_000_000 / held).ok()
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
    /// `layout` under `keys` ([`CrtPlainSystem::encrypt`]: the user's
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
    /// [`BfvError::InvalidShape`] when [`Layout::pack`] refuses the batch;
    /// fails when encryption fails.
    pub fn encrypt_images<K: EncryptionKey + Sync>(
        sys: &CrtPlainSystem,
        images: &[Vec<i64>],
        side: usize,
        layout: Layout,
        keys: &[K],
        rng: &ChaChaRng,
        pool: &ParExec,
    ) -> Result<EncryptedMap> {
        let cells = encrypt_cells(sys, images, side, layout, rng, pool, |values, rng| {
            sys.encrypt(values, layout.encoding(), keys, rng)
        })?;
        Ok(EncryptedMap::ingress(layout, side, sys.slot_count(), cells))
    }

    /// Decrypts every cell (a task each on `pool`) and decodes a row per image
    /// for the first `batch` through the [`SlotMap`], the one decode of a
    /// finished inference's logits: `[channels·height·width]` of a `Pixel`
    /// map, `[class·inputs + input]` of an `FcOperand` one, `[channels]` at
    /// position 0 of a pooled orbit (whose logits fill their orbit).
    ///
    /// # Errors
    ///
    /// [`BfvError::InvalidShape`] for a map that does not hold its claim, an
    /// orbit not pooled, or more rows than it holds images (a `Pixel` map:
    /// its slots); propagates decryption failures.
    // hesgx-lint: allow(secret-pub-api, reason = "user-side decryption with the user's own key copy")
    pub fn decrypt_all(
        &self,
        sys: &CrtPlainSystem,
        secret: &[SecretKey],
        batch: usize,
        pool: &ParExec,
    ) -> Result<Vec<Vec<i128>>> {
        let rule = self.layout.slot_map(self.shape(), sys.slot_count())?;
        let (channels, positions, held) = rule.extent();
        let orbit = matches!(self.layout, Layout::Orbit { .. });
        let positions = if orbit { 1 } else { positions };
        if orbit && self.width != 1 || batch > held {
            let (cells, layout) = (self.cells.len(), self.layout);
            let claim = format!("{batch} rows of {cells} cells as {layout:?}");
            return Err(BfvError::InvalidShape(claim));
        }
        let decrypt = |i| sys.decrypt(&self.cells[i], self.layout.encoding(), secret);
        let cells = pool.try_run(self.cells.len(), decrypt)?;
        let value = |b, v| rule.decode(&cells, v / positions, v % positions, b);
        let row = |b| (0..channels * positions).map(|v| value(b, v)).collect();
        (0..batch).map(row).collect()
    }
}

/// The ingress cells of a batch: [`Layout::pack`], then `encrypt` over each
/// cell's values from the cell's own `enc-cell-{i}` fork of `rng`'s
/// `enc-map` fork — one task a cell on `pool`.
fn encrypt_cells<T: Send + Sync>(
    sys: &CrtPlainSystem,
    images: &[Vec<i64>],
    side: usize,
    layout: Layout,
    rng: &ChaChaRng,
    pool: &ParExec,
    encrypt: impl Fn(&[i64], &mut ChaChaRng) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let base = rng.fork("enc-map");
    let packed = layout.pack(images, side, sys.slot_count())?;
    pool.try_run(packed.len(), |cell| {
        let mut cell_rng = base.fork(&format!("enc-cell-{cell}"));
        encrypt(&packed[cell], &mut cell_rng)
    })
}

/// A client's FV upload: a batch packed as [`EncryptedMap::encrypt_images`]
/// packs it, each cell a [`CrtSeededCiphertext`] — `c0` and a 32-byte seed a
/// part instead of `(c0, a)`, half the bytes. The host turns it into the map
/// the pipeline reads with [`SeededMap::expand`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeededMap {
    layout: Layout,
    side: usize,
    cells: Vec<CrtSeededCiphertext>,
}

impl SeededMap {
    /// Encrypts a batch of quantized images (each `side*side` pixels) in
    /// `layout` under the user's copy of the secret keys, seeded
    /// ([`CrtPlainSystem::encrypt_seeded`]): the packing, the per-cell
    /// `enc-cell-{i}` forks and the task per cell of
    /// [`EncryptedMap::encrypt_images`].
    ///
    /// # Errors
    ///
    /// As [`EncryptedMap::encrypt_images`].
    // hesgx-lint: allow(secret-pub-api, reason = "client-side encryption with the user's own key copy")
    pub fn encrypt_images(
        sys: &CrtPlainSystem,
        images: &[Vec<i64>],
        side: usize,
        layout: Layout,
        secret: &[SecretKey],
        rng: &ChaChaRng,
        pool: &ParExec,
    ) -> Result<SeededMap> {
        let cells = encrypt_cells(sys, images, side, layout, rng, pool, |values, rng| {
            sys.encrypt_seeded(values, layout.encoding(), secret, rng)
        })?;
        Ok(SeededMap {
            layout,
            side,
            cells,
        })
    }

    /// The seeded cells, in [`EncryptedMap::ingress`] order.
    pub fn cells(&self) -> &[CrtSeededCiphertext] {
        &self.cells
    }

    /// Bytes on the wire: `c0` and 32 bytes of seed a cell part.
    pub fn byte_len(&self) -> usize {
        self.cells.iter().map(CrtSeededCiphertext::byte_len).sum()
    }

    /// The host's half of the upload: every part's `a` regenerated from its
    /// seed ([`hesgx_bfv::ciphertext::SeededCiphertext::expand`]), one task
    /// per (cell, part) on `pool`, into the [`EncryptedMap::ingress`] map
    /// the client would have sent whole. Consumes the upload, so it is gone
    /// once the map exists.
    ///
    /// # Errors
    ///
    /// [`BfvError::InvalidShape`] for a cell count the layout does not hold,
    /// [`BfvError::ContextMismatch`] for a cell of another part count or a
    /// part of another context; propagates expansion failures.
    pub fn expand(self, sys: &CrtPlainSystem, pool: &ParExec) -> Result<EncryptedMap> {
        let _prof = hesgx_obs::prof::span("henn.expand");
        let (slots, parts) = (sys.slot_count(), sys.part_count());
        let cells = self.layout.ingress_cells(self.side, slots);
        if self.cells.len() != cells {
            let claim = format!("{} cells as {:?}", self.cells.len(), self.layout);
            return Err(BfvError::InvalidShape(claim));
        }
        if self.cells.iter().any(|ct| ct.part_count() != parts) {
            return Err(BfvError::ContextMismatch);
        }
        let mut expanded = pool
            .try_run(cells * parts, |k| {
                let (cell, part) = (k / parts, k % parts);
                self.cells[cell].parts[part].expand(&sys.contexts()[part])
            })?
            .into_iter();
        let cells = (0..cells).map(|_| CrtCiphertext {
            parts: expanded.by_ref().take(parts).collect(),
        });
        let cells = cells.collect();
        Ok(EncryptedMap::ingress(self.layout, self.side, slots, cells))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crt::CrtPlainSystem;

    /// The count rule at the geometries the repository serves: the paper's
    /// 28×28 model at n = 1024 enters one ciphertext an image (10 at the
    /// paper's batch of 10, not 784) up to 783 images, the 12×12 broker model
    /// at n = 256 every batch its `max_batch` of 8 allows, and an image past
    /// the ring degree (28×28 at n = 256) never.
    #[test]
    fn count_rule_crossovers() {
        let coeff = |batch, side| Layout::Coeff {
            batch,
            side,
            pitch: side,
        };
        for batch in [1, 10, 783] {
            assert_eq!(Layout::for_conv(28, batch, 1024), coeff(batch, 28));
            assert_eq!(coeff(batch, 28).ingress_cells(28, 1024), batch);
        }
        assert_eq!(Layout::for_conv(28, 784, 1024), Layout::Pixel);
        assert_eq!(Layout::Pixel.ingress_cells(28, 1024), 784);
        for batch in [1, 2, 3, 8] {
            assert_eq!(Layout::for_conv(12, batch, 256), coeff(batch, 12));
        }
        // `in_side² = n` still fits, one pixel more does not.
        assert_eq!(Layout::for_conv(16, 1, 256), coeff(1, 16));
        assert_eq!(Layout::for_conv(17, 1, 256), Layout::Pixel);
        assert_eq!(Layout::for_conv(28, 1, 256), Layout::Pixel);
        assert_eq!(Layout::for_conv(usize::MAX, 1, 256), Layout::Pixel);
        // The egress rule: the paper's 720 pooled values for ten classes at
        // n = 1024 leave each once, `P = ⌊1024/B⌋` to an image, 8 ciphertexts
        // at the paper's batch (not 720), packed up to 512 images — 513 would
        // be one value a cell again. The broker's 50 values for three classes
        // at n = 256 never do: 150 values are not a ciphertext's worth.
        let operand = |classes, batch, inputs| Layout::FcOperand {
            classes,
            batch,
            inputs,
        };
        for (batch, per, cells) in [(1, 1024, 1), (10, 102, 8), (100, 10, 72), (512, 2, 360)] {
            let layout = Layout::for_fc(720, 10, batch, 1024);
            assert_eq!(layout, operand(1, batch, 720));
            assert_eq!(
                layout.fc_geometry(1024),
                Some((per, cells)),
                "batch {batch}"
            );
        }
        assert_eq!(Layout::for_fc(720, 10, 513, 1024), Layout::Pixel);
        assert_eq!(operand(1, 513, 720).fc_geometry(1024), Some((1, 720)));
        for (batch, per, cells) in [(1, 256, 1), (2, 128, 1), (8, 32, 2)] {
            assert_eq!(Layout::for_fc(50, 3, batch, 256), Layout::Pixel);
            assert_eq!(operand(1, batch, 50).fc_geometry(256), Some((per, cells)));
        }
        // `C·J` at the slots is wide enough, one value short is not.
        assert_eq!(Layout::for_fc(64, 4, 2, 256), operand(1, 2, 64));
        assert_eq!(Layout::for_fc(85, 3, 2, 256), Layout::Pixel);
        assert_eq!(Layout::for_fc(usize::MAX, 3, 2, 256), Layout::Pixel);
        // As many images as slots still hold one value a cell; past them,
        // and for a claim of nothing or of more than `usize`, no cell holds
        // any.
        assert_eq!(operand(4, 256, 18).fc_geometry(256), Some((1, 72)));
        for claim in [
            operand(4, 257, 18),
            operand(0, 2, 18),
            operand(3, 0, 18),
            operand(3, 2, 0),
            operand(usize::MAX, 2, 18),
            Layout::Pixel,
            Layout::for_conv(6, 2, 256),
        ] {
            assert_eq!(claim.fc_geometry(256), None, "{claim:?}");
        }
        assert_eq!(Layout::for_fc(72, 4, 128, 256), operand(1, 128, 72));
        for (inputs, classes, batch) in [
            (72, 4, 129),
            (72, 4, 257),
            (1, 256, 1),
            (18, 0, 2),
            (72, 4, 0),
        ] {
            assert_eq!(Layout::for_fc(inputs, classes, batch, 256), Layout::Pixel);
        }
        // The layer leaves a cell a class of `P` partial sums an image, the
        // reduction one cell of every logit.
        assert_eq!(operand(10, 10, 102).fc_geometry(1024), Some((102, 10)));
        assert_eq!(operand(10, 10, 1).fc_geometry(1024), Some((102, 1)));
    }

    /// The egress rule counts every ciphertext that crosses the enclave
    /// boundary: the operand cells out, the partial sums back in and the
    /// reduced logits out, against one cell an input out per pixel.
    #[test]
    fn fc_operand_counts_every_crossing() {
        let operand = |batch, inputs| Layout::FcOperand {
            classes: 1,
            batch,
            inputs,
        };
        // Sixteen classes of 18 inputs at n = 256: 1 + 16 + 1 crossings
        // packed are no fewer than 18 per pixel, at every batch.
        for batch in [1, 2, 14, 128] {
            assert_eq!(Layout::for_fc(18, 16, batch, 256), Layout::Pixel);
        }
        // Fifteen classes: 1 + 15 + 1 < 18 while an image's 18 inputs fit
        // one cell (`P ≥ 18`, 14 images); at 15 they take two.
        assert_eq!(Layout::for_fc(18, 15, 14, 256), operand(14, 18));
        assert_eq!(Layout::for_fc(18, 15, 15, 256), Layout::Pixel);
        // The paper's model at n = 1024 and B = 10: 8 + 10 + 1 = 19 against
        // 720.
        assert_eq!(Layout::for_fc(720, 10, 10, 1024), operand(10, 720));
        // No crossing count overflows.
        assert_eq!(Layout::for_fc(1, usize::MAX, 1, 256), Layout::Pixel);
    }

    /// An `FcOperand` map decodes through its slot map into one row per
    /// image (`[class·inputs + input]`), says how full its cells are, and
    /// refuses a claim its cells do not hold.
    #[test]
    fn fc_operand_round_trips_and_reports_its_occupancy() {
        let sys = CrtPlainSystem::new(256, &[12289]).unwrap();
        let mut rng = ChaChaRng::from_seed(53);
        let keys = sys.generate_keys(&mut rng);
        // Seven inputs of three images for twenty classes: 140 values, 85
        // slots an image (the 256th slot idle), in two cells (the last one
        // short: 55 values an image).
        let (classes, batch, inputs) = (20, 3, 7);
        let layout = Layout::FcOperand {
            classes,
            batch,
            inputs,
        };
        let value = |v: usize, image: usize| ((v * 3 + image) % 97) as i64 - 48;
        let rule = layout.slot_map((2, 1, 1), 256).unwrap();
        assert_eq!(rule.place(19, 6, 1), Some((1, 85 + 139 % 85)));
        let packed = rule.encode(batch, |class, input, image| {
            value(class * inputs + input, image)
        });
        let cells: Vec<CrtCiphertext> = (packed.unwrap().iter())
            .map(|slots| {
                sys.encrypt(slots, Encoding::Slots, &keys.public, &mut rng)
                    .unwrap()
            })
            .collect();
        let map = EncryptedMap::new(2, 1, 1, cells.clone()).with_layout(layout);
        assert_eq!(layout.fc_geometry(256), Some((85, 2)));
        assert!(layout.slot_map(map.shape(), 256).is_ok());
        assert_eq!(map.occupancy_ppm(256), Some(140 * 3 * 1_000_000 / 512));
        let rows = map
            .decrypt_all(&sys, &keys.secret, batch, &ParExec::new(2))
            .unwrap();
        for (image, row) in rows.iter().enumerate() {
            let want: Vec<i128> = (0..classes * inputs)
                .map(|v| value(v, image).into())
                .collect();
            assert_eq!(row, &want, "image {image}");
        }
        // The paper request's operand map, the FC's partial sums and the
        // one logits ciphertext.
        let paper = |classes, inputs, count| {
            let layout = Layout::FcOperand {
                classes,
                batch: 10,
                inputs,
            };
            let map = EncryptedMap::new(count, 1, 1, vec![cells[0].clone(); count]);
            map.with_layout(layout).occupancy_ppm(1024)
        };
        assert_eq!(paper(1, 720, 8), Some(878_906));
        assert_eq!(paper(10, 102, 10), Some(996_093));
        assert_eq!(paper(10, 1, 1), Some(97_656));
        // More rows than images, a cell too many, a claim no cell holds.
        let invalid = |map: &EncryptedMap, batch| {
            let rows = map.decrypt_all(&sys, &keys.secret, batch, &ParExec::serial());
            assert!(matches!(rows, Err(BfvError::InvalidShape(_))), "{map:?}");
        };
        invalid(&map, 4);
        let long = EncryptedMap::new(3, 1, 1, vec![cells[0].clone(); 3]).with_layout(layout);
        assert!(layout.slot_map(long.shape(), 256).is_err());
        invalid(&long, 3);
        for claim in [(0, 2, 7), (20, 257, 7), (usize::MAX, usize::MAX, 7)] {
            let (classes, batch, inputs) = claim;
            let claim = Layout::FcOperand {
                classes,
                batch,
                inputs,
            };
            let map = map.clone().with_layout(claim);
            invalid(&map, 1);
            assert_eq!(map.occupancy_ppm(256), None);
        }
    }

    /// The seeded upload, in the three ingress layouts a session sends
    /// (`Coeff`, `Pixel`, and `Orbit` for the degraded rung) on two CRT
    /// parts: the host's expansion is bit-identical at pools 1, 2 and 4 and
    /// to each part's own [`SeededCiphertext::expand`], keeps the `c0` that
    /// travelled, decodes to the batch, and halves the bytes; every seed is
    /// its own; a map that does not hold its layout's cells, or a cell of
    /// another part count, is refused.
    ///
    /// [`SeededCiphertext::expand`]: hesgx_bfv::ciphertext::SeededCiphertext::expand
    #[test]
    fn a_seeded_upload_expands_to_the_same_map_on_every_pool() {
        let sys = CrtPlainSystem::new(256, &[12289, 13313]).unwrap();
        let mut rng = ChaChaRng::from_seed(53);
        let keys = sys.generate_keys(&mut rng);
        let side = 8;
        let images: Vec<Vec<i64>> = (0..2)
            .map(|b| {
                (0..side * side)
                    .map(|p| (b * 7 + p * 3) as i64 % 16)
                    .collect()
            })
            .collect();
        let orbit = Layout::for_orbit(side, 3, 2, images.len(), 256);
        assert!(matches!(orbit, Layout::Orbit { .. }), "{orbit:?}");
        for layout in [Layout::for_conv(side, 2, 256), Layout::Pixel, orbit] {
            let upload = |threads| {
                let pool = ParExec::new(threads);
                SeededMap::encrypt_images(&sys, &images, side, layout, &keys.secret, &rng, &pool)
                    .unwrap()
            };
            let sent = upload(1);
            let cells = layout.ingress_cells(side, 256);
            assert_eq!(sent.cells().len(), cells);
            assert_eq!(sent.byte_len(), cells * sys.seeded_ciphertext_byte_len());
            let one = sent.clone().expand(&sys, &ParExec::serial()).unwrap();
            assert_eq!(one.byte_len(), cells * sys.fresh_ciphertext_byte_len());
            for threads in [2, 4] {
                let pool = ParExec::new(threads);
                assert_eq!(upload(threads), sent, "{layout:?} encrypted at {threads}");
                let map = sent.clone().expand(&sys, &pool).unwrap();
                assert_eq!(map, one, "{layout:?} expanded at {threads}");
            }
            let mut seeds = Vec::new();
            for (seeded, cell) in sent.cells().iter().zip(one.cells()) {
                for part in 0..2 {
                    let ctx = &sys.contexts()[part];
                    let (seeded, ct) = (seeded.part(part), cell.part(part));
                    assert_eq!(&seeded.expand(ctx).unwrap(), ct);
                    seeds.push(*seeded.seed());
                }
            }
            let total = seeds.len();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), total, "{layout:?}: a seed repeats");
            if layout != orbit {
                let rows = one.decrypt_all(&sys, &keys.secret, 2, &ParExec::serial());
                let want: Vec<Vec<i128>> = (images.iter())
                    .map(|img| img.iter().map(|&v| v.into()).collect())
                    .collect();
                assert_eq!(rows.unwrap(), want, "{layout:?}");
            }
            let mut short = sent.clone();
            short.cells.pop();
            let refused = short.expand(&sys, &ParExec::serial());
            assert!(matches!(refused, Err(BfvError::InvalidShape(_))));
            let mut narrow = sent.clone();
            narrow.cells[0].parts.pop();
            let refused = narrow.expand(&sys, &ParExec::serial());
            assert!(matches!(refused, Err(BfvError::ContextMismatch)));
        }
    }

    /// A `Coeff` batch is one cell an image holding pixel `(y, x)` at
    /// coefficient `y·pitch + x` (a pitch wider than the side leaves gaps),
    /// decodes into one row per image and says how full its cells are.
    #[test]
    fn packed_batch_round_trips_and_reports_its_occupancy() {
        let sys = CrtPlainSystem::new(256, &[12289]).unwrap();
        let mut rng = ChaChaRng::from_seed(52);
        let keys = sys.generate_keys(&mut rng);
        let (side, batch) = (6, 20);
        let images: Vec<Vec<i64>> = (0..batch)
            .map(|b| (0..side * side).map(|p| (b * 36 + p) as i64 % 97).collect())
            .collect();
        let layout = Layout::for_conv(side, batch, 256);
        let pool = ParExec::new(2);
        let map =
            EncryptedMap::encrypt_images(&sys, &images, side, layout, &keys.public, &rng, &pool)
                .unwrap();
        assert_eq!((map.shape(), map.layout()), ((1, batch, 1), layout));
        assert_eq!(map.occupancy_ppm(256), Some(36 * 1_000_000 / 256));
        for (cell, img) in map.cells().iter().zip(&images) {
            let coeffs = sys.decrypt(cell, Encoding::Coeffs, &keys.secret).unwrap();
            let want: Vec<i128> = img.iter().map(|&v| v.into()).collect();
            assert_eq!(coeffs[..36], want[..]);
            assert!(coeffs[36..].iter().all(|&c| c == 0));
        }
        let wide = Layout::Coeff {
            batch: 2,
            side: 2,
            pitch: 7,
        };
        let rule = wide.slot_map((1, 2, 1), 256).unwrap();
        assert_eq!(rule.place(0, 3, 1), Some((1, 8)));
        let back = map.decrypt_all(&sys, &keys.secret, batch, &pool).unwrap();
        assert_eq!(back.len(), batch);
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
    /// pooled position `q` of image `b` at batch-matrix entry `(b / stride)·
    /// slots/2 + q·stride + b % stride`; `decrypt_all` reads position 0 of a
    /// `channels × groups × 1` map.
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
            let slots = sys.decrypt(cell, Encoding::Slots, &keys.secret).unwrap();
            let (dy, dx) = (member / 2, member % 2);
            for (b, img) in images.iter().enumerate() {
                for position in 0..4 {
                    let pixel = (position / 2 * 2 + dy) * 4 + position % 2 * 2 + dx;
                    let slot = index[b / 32 * 128 + position * 32 + b % 32];
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

    /// Claims past what a layout holds are errors, not a panic or a silently
    /// short map: more rows than a `Pixel` map's slots; a `Coeff` image past
    /// the ring degree, more images than its batch, a side other than the
    /// images', rows that overlap, and cells not `channels × batch × 1`; and
    /// 80 images into an orbit of two (whose one group would have kept 64).
    #[test]
    fn claims_past_the_layout_are_refused() {
        let sys = CrtPlainSystem::new(256, &[40961]).unwrap();
        let mut rng = ChaChaRng::from_seed(56);
        let keys = sys.generate_keys(&mut rng);
        let pool = ParExec::serial();
        fn refused<T>(result: Result<T>) -> bool {
            matches!(result, Err(BfvError::InvalidShape(_)))
        }
        let encrypt = |images: &[Vec<i64>], side, layout| {
            EncryptedMap::encrypt_images(&sys, images, side, layout, &keys.public, &rng, &pool)
        };
        let pixel = encrypt(&[vec![3; 16]], 4, Layout::Pixel).unwrap();
        assert_eq!(
            pixel
                .decrypt_all(&sys, &keys.secret, 256, &pool)
                .unwrap()
                .len(),
            256
        );
        assert!(refused(pixel.decrypt_all(&sys, &keys.secret, 257, &pool)));
        let coeff = |batch, side, pitch| Layout::Coeff { batch, side, pitch };
        assert!(refused(encrypt(
            &vec![vec![1; 17 * 17]; 1],
            17,
            coeff(1, 17, 17)
        )));
        assert!(refused(encrypt(&vec![vec![1; 16]; 3], 4, coeff(2, 4, 4))));
        assert!(refused(encrypt(&vec![vec![1; 16]; 1], 4, coeff(1, 2, 4))));
        assert!(refused(encrypt(&vec![vec![1; 16]; 1], 4, coeff(1, 4, 3))));
        assert!(refused(encrypt(&vec![vec![1; 16]; 1], 4, coeff(0, 4, 4))));
        let two = encrypt(&vec![vec![1; 16]; 2], 4, coeff(2, 4, 4)).unwrap();
        assert_eq!(two.shape(), (1, 2, 1));
        for (shape, claim) in [
            ((1, 1, 2), coeff(2, 4, 4)),
            ((1, 2, 2), coeff(2, 4, 4)),
            ((1, 2, 1), coeff(3, 4, 4)),
            ((1, 2, 1), coeff(2, 16, 17)),
            ((usize::MAX, 2, 1), coeff(2, 4, 4)),
            ((1, 2, 1), coeff(2, usize::MAX, usize::MAX)),
        ] {
            assert!(refused(claim.slot_map(shape, 256)), "{shape:?} {claim:?}");
            if shape == two.shape() {
                let map = two.clone().with_layout(claim);
                assert!(refused(map.decrypt_all(&sys, &keys.secret, 1, &pool)));
            }
        }
        assert!(coeff(2, 16, 16).slot_map((1, 2, 1), 256).is_ok());
        let orbit = Layout::Orbit {
            batch: 2,
            side: 2,
            window: 2,
        };
        assert_eq!(orbit.orbit_geometry(256), Some((32, 1)));
        assert!(refused(encrypt(&vec![vec![1; 36]; 80], 6, orbit)));
        assert_eq!(
            encrypt(&vec![vec![1; 36]; 2], 6, orbit)
                .unwrap()
                .cells()
                .len(),
            36
        );
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
