//! Property-based tests of the homomorphic NN layers: every encrypted
//! operation must agree with its plaintext counterpart on random inputs.

use hesgx_crypto::rng::ChaChaRng;
use hesgx_henn::crt::Encoding;
use hesgx_henn::crt::{CrtKeys, CrtPlainSystem};
use hesgx_henn::image::{EncryptedMap, Layout};
use hesgx_henn::ops::{self, OpCounter};
use hesgx_henn::par::ParExec;
use hesgx_henn::weights::{NttBank, WeightBank};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Every kernel is swept over these pool sizes; 1 runs inline.
const POOLS: [usize; 3] = [1, 2, 4];

fn system() -> &'static (CrtPlainSystem, CrtKeys) {
    static SYS: OnceLock<(CrtPlainSystem, CrtKeys)> = OnceLock::new();
    SYS.get_or_init(|| {
        let sys = CrtPlainSystem::new(256, &[12289, 13313]).unwrap();
        let mut rng = ChaChaRng::from_seed(777);
        let keys = sys.generate_keys(&mut rng);
        (sys, keys)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn crt_encrypt_decrypt_roundtrip(values in proptest::collection::vec(-40_000_000i64..40_000_000, 1..8), seed in any::<u64>()) {
        let (sys, keys) = system();
        let mut rng = ChaChaRng::from_seed(seed);
        let ct = sys.encrypt(&values, Encoding::Slots, &keys.public, &mut rng).unwrap();
        let back = sys.decrypt(&ct, Encoding::Slots, &keys.secret).unwrap();
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(back[i], v as i128);
        }
    }

    #[test]
    fn affine_combination_matches_plain(a in -1000i64..1000, b in -1000i64..1000,
                                        w in -50i64..50, c in -500i64..500, seed in any::<u64>()) {
        let (sys, keys) = system();
        let mut rng = ChaChaRng::from_seed(seed);
        let ca = sys.encrypt(&[a], Encoding::Slots, &keys.public, &mut rng).unwrap();
        let cb = sys.encrypt(&[b], Encoding::Slots, &keys.public, &mut rng).unwrap();
        // w*a + b + c
        let mut acc = sys.mul_scalar(&ca, w).unwrap();
        sys.add_inplace(&mut acc, &cb).unwrap();
        let acc = sys.add_scalar(&acc, c).unwrap();
        prop_assert_eq!(
            sys.decrypt(&acc, Encoding::Slots, &keys.secret).unwrap()[0],
            (w * a + b + c) as i128
        );
    }

    #[test]
    fn square_matches_plain(v in -8000i64..8000, seed in any::<u64>()) {
        let (sys, keys) = system();
        let mut rng = ChaChaRng::from_seed(seed);
        let ct = sys.encrypt(&[v], Encoding::Slots, &keys.public, &mut rng).unwrap();
        let sq = sys.relinearize(&sys.square(&ct).unwrap(), &keys.evaluation).unwrap();
        prop_assert_eq!(
            sys.decrypt(&sq, Encoding::Slots, &keys.secret).unwrap()[0],
            (v as i128) * (v as i128)
        );
    }

    /// Every layout's slot map, at random geometry: it sends the addresses
    /// of its map to distinct `(cell, slot)`s inside `cells × slots` and
    /// nothing outside them anywhere; decoding what it encodes gives every
    /// value back and more images than it holds are refused; and an ingress
    /// layout's pack is the encode of its convolution's im2col patches (a
    /// `Pixel` map the batch pixel by pixel, a `Coeff` map one image a cell),
    /// in `ingress_cells` cells. A `Coeff` map holds its claim exactly when
    /// no row wraps, `(side − 1)·pitch + side ≤ n`, up to the edge
    /// `side² = n`.
    #[test]
    fn slot_maps_are_injective_and_packing_round_trips(
        family in 0usize..4, a in 1usize..7, window in 1usize..4, kernel in 1usize..4,
        batch in 1usize..40, inputs in 1usize..40, pooled in any::<bool>(),
        slots_pick in 0usize..3, seed in any::<u64>(),
    ) {
        let slots = [64usize, 256, 1024][slots_pick];
        // The orbit's convolution kernel; the other ingress maps are pixels.
        let kernel = if family == 3 { kernel } else { 1 };
        let offsets = kernel * kernel;
        // The layout, its map's cells and, for an ingress map, the image side.
        let (layout, shape, in_side) = match family {
            0 => (Layout::Pixel, (1, a, a), Some(a)),
            1 => {
                // At the edge `side² = n` (pitch = side) or a random side.
                let side = if pooled { slots.isqrt() } else { a * window };
                let pitch = side + inputs % 3;
                let layout = Layout::Coeff { batch, side, pitch };
                // Two channels, or the one an ingress map has.
                (layout, (a % 2 + 1, batch, 1), (a % 2 == 0).then_some(side))
            }
            2 => {
                let layout = Layout::FcOperand { classes: a * window, batch: batch % 9 + 1, inputs };
                let cells = layout.fc_geometry(slots).map_or(1, |(_, cells)| cells);
                (layout, (cells, 1, 1), None)
            }
            _ => {
                let layout = Layout::Orbit { batch, side: a.min(4), window };
                let groups = layout.orbit_geometry(slots).map_or(1, |(_, groups)| groups);
                match pooled {
                    true => (layout, (offsets, groups, 1), None),
                    false => {
                        let in_side = a.min(4) * window + kernel - 1;
                        (layout, (offsets, groups * window, window), Some(in_side))
                    }
                }
            }
        };
        let rule = layout.slot_map(shape, slots);
        let held = match layout {
            Layout::Coeff { side, pitch, .. } => (side - 1) * pitch + side <= slots,
            Layout::FcOperand { .. } => layout.fc_geometry(slots).is_some(),
            Layout::Orbit { .. } => layout.orbit_geometry(slots).is_some(),
            Layout::Pixel => true,
        };
        prop_assert_eq!(rule.is_ok(), held, "{:?}", layout);
        let Ok(rule) = rule else { return Ok(()) };
        let (channels, positions, images) = rule.extent();
        let cells = shape.0 * shape.1 * shape.2;
        let mut seen = Vec::with_capacity(channels * positions * images);
        for (c, p, i) in (0..channels * positions * images)
            .map(|v| (v / (positions * images), v / images % positions, v % images))
        {
            let (cell, slot) = rule.place(c, p, i).expect("inside the map");
            prop_assert!(cell < cells && slot < slots, "{:?} ({}, {}, {})", layout, c, p, i);
            seen.push(cell * slots + slot);
        }
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), channels * positions * images, "{:?}", layout);
        for outside in [(channels, 0, 0), (0, positions, 0), (0, 0, images)] {
            prop_assert_eq!(rule.place(outside.0, outside.1, outside.2), None);
        }

        let mut rng = ChaChaRng::from_seed(seed);
        let n = batch.min(images);
        let values: Vec<i64> = (0..channels * positions * n)
            .map(|_| rng.next_below(1 << 20) as i64 - (1 << 19))
            .collect();
        let value = |c: usize, p: usize, i: usize| values[(c * positions + p) * n + i];
        let encoded = rule.encode(n, value).unwrap();
        prop_assert_eq!(encoded.len(), cells);
        prop_assert!(encoded.iter().all(|cell| cell.len() == slots));
        for (c, p, i) in (0..channels * positions * n)
            .map(|v| (v / (positions * n), v / n % positions, v % n))
        {
            prop_assert_eq!(rule.decode(&encoded, c, p, i).unwrap(), value(c, p, i));
        }
        prop_assert!(rule.encode(images + 1, value).is_err());
        prop_assert!(rule.decode(&encoded, 0, 0, images).is_err());

        let Some(in_side) = in_side else { return Ok(()) };
        let pictures: Vec<Vec<i64>> = (0..n)
            .map(|_| (0..in_side * in_side).map(|_| rng.next_below(1 << 20) as i64).collect())
            .collect();
        // im2col: kernel offset (ky, kx) of output position (y, x) is pixel
        // (y + ky, x + kx).
        let out = in_side + 1 - kernel;
        let mut patches = vec![vec![vec![0; n]; out * out]; offsets];
        for (offset, column) in patches.iter_mut().enumerate() {
            let (ky, kx) = (offset / kernel, offset % kernel);
            for (position, images) in column.iter_mut().enumerate() {
                let (y, x) = (position / out + ky, position % out + kx);
                for (image, patch) in images.iter_mut().enumerate() {
                    *patch = pictures[image][y * in_side + x];
                }
            }
        }
        let packed = layout.pack(&pictures, in_side, slots).unwrap();
        prop_assert_eq!(packed.len(), layout.ingress_cells(in_side, slots));
        let im2col = rule.encode(n, |offset, position, image| patches[offset][position][image]);
        prop_assert_eq!(&packed, &im2col.unwrap());
        if layout == Layout::Pixel {
            for (pixel, cell) in packed.iter().enumerate() {
                let want: Vec<i64> = pictures.iter().map(|img| img[pixel]).collect();
                prop_assert_eq!(&cell[..n], &want[..]);
            }
        }
        prop_assert!(layout.pack(&vec![vec![0; in_side * in_side]; images + 1], in_side, slots).is_err());
    }

    /// The `FcOperand` rule at random `(classes, inputs, batch, slots)`:
    /// `P = ⌊slots / B⌋` slots an image, value `v = class·inputs + input`
    /// in cell `v / P` at slot `image·P + v % P`, in `⌈C·J / P⌉` cells —
    /// injective, inside the cells, round-tripping through encode and
    /// decode, the last cell short when `P ∤ C·J` and the slots past `P·B`
    /// idle — and a batch past the slots holds nothing.
    #[test]
    fn fc_operand_rule_is_injective_and_round_trips(
        classes in 1usize..12, inputs in 1usize..200, batch in 1usize..80,
        slots_pick in 0usize..3, seed in any::<u64>(),
    ) {
        let slots = [64usize, 256, 1024][slots_pick];
        let layout = Layout::FcOperand { classes, batch, inputs };
        let Some((per, cells)) = layout.fc_geometry(slots) else {
            prop_assert!(batch > slots);
            prop_assert!(layout.slot_map((1, 1, 1), slots).is_err());
            return Ok(());
        };
        let values = classes * inputs;
        prop_assert_eq!((per, cells), (slots / batch, values.div_ceil(per)));
        prop_assert!(layout.slot_map((cells + 1, 1, 1), slots).is_err());
        let rule = layout.slot_map((cells, 1, 1), slots).unwrap();
        prop_assert_eq!(rule.extent(), (classes, inputs, batch));
        let mut seen = vec![false; cells * slots];
        for (v, image) in (0..values * batch).map(|k| (k / batch, k % batch)) {
            let place = rule.place(v / inputs, v % inputs, image);
            prop_assert_eq!(place, Some((v / per, image * per + v % per)));
            let (cell, slot) = place.unwrap();
            prop_assert!(!std::mem::replace(&mut seen[cell * slots + slot], true));
        }
        // The last cell holds `C·J − (G − 1)·P` values an image; the slots
        // past `P·B` hold none.
        let last = values - (cells - 1) * per;
        let held = seen[(cells - 1) * slots..].iter().filter(|&&s| s).count();
        prop_assert_eq!(held, last * batch);
        prop_assert!(seen.chunks(slots).all(|cell| cell[per * batch..].iter().all(|&s| !s)));

        let mut rng = ChaChaRng::from_seed(seed);
        let drawn: Vec<i64> = (0..values * batch).map(|_| rng.next_below(1 << 20) as i64).collect();
        let value = |c: usize, p: usize, i: usize| drawn[(c * inputs + p) * batch + i];
        let encoded = rule.encode(batch, value).unwrap();
        prop_assert_eq!(encoded.len(), cells);
        for (c, p, i) in (0..values * batch).map(|k| (k / batch / inputs, k / batch % inputs, k % batch)) {
            prop_assert_eq!(rule.decode(&encoded, c, p, i).unwrap(), value(c, p, i));
        }
        prop_assert!(rule.encode(batch + 1, value).is_err());
    }

    /// Pack → multiply → reduce is the plaintext fully connected layer: the
    /// inputs laid out once, as the enclave lays them out, multiplied by the
    /// operand bank (one product per class and cell), decrypted and summed
    /// per (class, image), equal `W·x + b` for every class and image, with
    /// the same bits at every pool size; and the count rule picks the
    /// layout exactly when it crosses the enclave boundary in fewer
    /// ciphertexts, for a layer wider than one.
    #[test]
    fn fc_operand_pack_multiply_reduce_round_trips(
        inputs in 1usize..120, classes in 1usize..12, batch in 1usize..24, seed in any::<u64>(),
    ) {
        let (sys, keys) = system();
        let slots = sys.slot_count();
        let layout = Layout::FcOperand { classes: 1, batch, inputs };
        let (per, cells) = layout.fc_geometry(slots).expect("24 ≤ 256");
        let ruled = Layout::for_fc(inputs, classes, batch, slots);
        let crossings = cells + classes + classes.div_ceil(per);
        let picked = crossings < inputs && classes * inputs >= slots;
        prop_assert_eq!(ruled == layout, picked);

        let rule = layout.slot_map((cells, 1, 1), slots).unwrap();
        let mut rng = ChaChaRng::from_seed(seed);
        let mut draw = |n: usize, below: u64| -> Vec<i64> {
            (0..n).map(|_| rng.next_below(below) as i64 - below as i64 / 2).collect()
        };
        let x: Vec<Vec<i64>> = (0..batch).map(|_| draw(inputs, 64)).collect();
        let (weights, bias) = (draw(classes * inputs, 16), draw(classes, 200));
        let packed = rule.encode(batch, |_, input, image| x[image][input]).unwrap();
        let cts: Vec<_> = packed
            .iter()
            .map(|values| sys.encrypt(values, Encoding::Slots, &keys.secret, &mut rng).unwrap())
            .collect();
        let map = EncryptedMap::new(cells, 1, 1, cts).with_layout(layout);
        let bank = NttBank::fc_operand(sys, &weights, &bias, per).unwrap();
        let mut bits = None;
        for threads in POOLS {
            let mut counter = OpCounter::default();
            let pool = ParExec::new(threads);
            let sums = ops::he_linear(sys, &map, &bank, &[], &mut counter, &pool).unwrap();
            prop_assert_eq!(sums.cells().len(), classes);
            prop_assert_eq!(counter.ct_pt_mul as usize, classes * cells);
            let rows = sums.decrypt_all(sys, &keys.secret, batch, &pool).unwrap();
            for (image, row) in rows.iter().enumerate() {
                for (class, partial) in row.chunks(per).enumerate() {
                    let dot: i64 = (0..inputs).map(|i| weights[class * inputs + i] * x[image][i]).sum();
                    let logit: i128 = partial.iter().sum();
                    prop_assert_eq!(logit, (dot + bias[class]).into(), "image {} class {}", image, class);
                }
            }
            let cells = sums.into_cells();
            prop_assert_eq!(bits.get_or_insert(cells.clone()), &cells, "{} threads", threads);
        }
    }

    /// The convolution over a `Coeff` map — one kernel-polynomial product
    /// per (input channel, output channel, image) — decrypts to the
    /// plaintext convolution at every valid position, for one or two input
    /// channels, any kernel up to the image and random weights, and equals
    /// the raw-weight oracle over the same batch in `Pixel`.
    #[test]
    fn coeff_conv_is_the_plain_conv_at_every_position(
        side in 1usize..13, kernel_pick in 0usize..12, channels in 1usize..3,
        outs in 1usize..3, batch in 1usize..4, seed in any::<u64>(),
    ) {
        let (sys, keys) = system();
        let (slots, kernel) = (sys.slot_count(), kernel_pick % side + 1);
        let mut rng = ChaChaRng::from_seed(seed);
        let mut draw = |n: usize, low: i64, below: u64| -> Vec<i64> {
            (0..n).map(|_| rng.next_below(below) as i64 + low).collect()
        };
        let positions = side * side;
        let x = draw(channels * positions * batch, 0, 16);
        let weights = draw(outs * channels * kernel * kernel, -7, 15);
        let bias = draw(outs, -20, 40);
        let value = |c: usize, p: usize, b: usize| x[(c * positions + p) * batch + b];
        let encrypt = |layout: Layout, shape| {
            let cells = layout.slot_map(shape, slots).unwrap().encode(batch, value).unwrap();
            let mut rng = ChaChaRng::from_seed(seed ^ 1);
            let cells = cells
                .iter()
                .map(|cell| sys.encrypt(cell, layout.encoding(), &keys.secret, &mut rng).unwrap())
                .collect();
            EncryptedMap::new(shape.0, shape.1, shape.2, cells).with_layout(layout)
        };
        let layout = Layout::Coeff { batch, side, pitch: side };
        let coeff = encrypt(layout, (channels, batch, 1));
        let pixel = encrypt(Layout::Pixel, (channels, side, side));
        let bank = NttBank::conv(sys, &weights, &bias, kernel, side).unwrap();
        let k = (kernel, kernel);
        let out_side = side - kernel + 1;
        let mut oracle_ops = OpCounter::default();
        let oracle = ops::he_conv2d_reference(sys, &pixel, &weights, &bias, outs, k, &mut oracle_ops)
            .unwrap()
            .decrypt_all(sys, &keys.secret, batch, &ParExec::serial())
            .unwrap();
        for threads in [1, 2] {
            let mut counter = OpCounter::default();
            let out = ops::he_linear(sys, &coeff, &bank, &[], &mut counter, &ParExec::new(threads)).unwrap();
            let shrunk = Layout::Coeff { batch, side: out_side, pitch: side };
            prop_assert_eq!((out.shape(), out.layout()), ((outs, batch, 1), shrunk));
            prop_assert_eq!(counter.ct_pt_mul as usize, outs * batch * channels);
            let rows = out.decrypt_all(sys, &keys.secret, batch, &ParExec::serial()).unwrap();
            for (b, row) in rows.iter().enumerate() {
                for (o, oy, ox) in (0..outs * out_side * out_side)
                    .map(|v| (v / (out_side * out_side), v / out_side % out_side, v % out_side))
                {
                    let taps = (0..channels * kernel * kernel).map(|t| {
                        let (c, dy, dx) = (t / (kernel * kernel), t / kernel % kernel, t % kernel);
                        let w = weights[(o * channels + c) * kernel * kernel + dy * kernel + dx];
                        w * value(c, (oy + dy) * side + ox + dx, b)
                    });
                    let want = taps.sum::<i64>() + bias[o];
                    let at = (o * out_side + oy) * out_side + ox;
                    prop_assert_eq!(row[at], want.into(), "({}, {}, {}) of image {}", o, oy, ox, b);
                }
            }
            prop_assert_eq!(&rows, &oracle, "{} threads", threads);
        }
    }

    #[test]
    fn he_conv_matches_plain_conv(pixels in proptest::collection::vec(0i64..16, 16),
                                  weights in proptest::collection::vec(-7i64..8, 4),
                                  bias in -20i64..20, seed in any::<u64>()) {
        let (sys, keys) = system();
        let rng = ChaChaRng::from_seed(seed);
        let images = vec![pixels.clone()];
        let enc = EncryptedMap::encrypt_images(sys, &images, 4, Layout::Pixel, &keys.public, &rng, &ParExec::serial()).unwrap();
        let bank = WeightBank::prepare(sys, &weights, &[bias]).unwrap();
        for threads in POOLS {
            let mut counter = OpCounter::default();
            let out = ops::he_conv2d(sys, &enc, &bank, 1, (2, 2), &mut counter, &ParExec::new(threads)).unwrap();
            let dec = out.decrypt_all(sys, &keys.secret, 1, &ParExec::serial()).unwrap();
            // Plain reference.
            for oy in 0..3 {
                for ox in 0..3 {
                    let mut acc = bias;
                    for ky in 0..2 {
                        for kx in 0..2 {
                            acc += weights[ky * 2 + kx] * pixels[(oy + ky) * 4 + ox + kx];
                        }
                    }
                    prop_assert_eq!(dec[0][oy * 3 + ox], acc as i128, "{} threads", threads);
                }
            }
        }
    }

    #[test]
    fn scaled_pool_matches_window_sums(pixels in proptest::collection::vec(-100i64..100, 16), seed in any::<u64>()) {
        let (sys, keys) = system();
        let rng = ChaChaRng::from_seed(seed);
        let enc = EncryptedMap::encrypt_images(sys, std::slice::from_ref(&pixels), 4, Layout::Pixel, &keys.public, &rng, &ParExec::serial()).unwrap();
        for threads in POOLS {
            let mut counter = OpCounter::default();
            let pooled = ops::he_scaled_mean_pool(sys, &enc, 2, &mut counter, &ParExec::new(threads)).unwrap();
            let dec = pooled.decrypt_all(sys, &keys.secret, 1, &ParExec::serial()).unwrap();
            for oy in 0..2 {
                for ox in 0..2 {
                    let mut sum = 0i64;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            sum += pixels[(oy * 2 + dy) * 4 + ox * 2 + dx];
                        }
                    }
                    prop_assert_eq!(dec[0][oy * 2 + ox], sum as i128, "{} threads", threads);
                }
            }
        }
    }

    #[test]
    fn par_conv_bit_identical_to_serial(pixels in proptest::collection::vec(0i64..16, 16),
                                        weights in proptest::collection::vec(-7i64..8, 4),
                                        bias in -20i64..20, seed in any::<u64>()) {
        // HE ops draw no randomness, so the kernel must reproduce the serial
        // raw-weight oracle's ciphertexts bit for bit at every pool size —
        // with the oracle's one-per-tap weight preparations gone.
        let (sys, keys) = system();
        let rng = ChaChaRng::from_seed(seed);
        let enc = EncryptedMap::encrypt_images(sys, &[pixels], 4, Layout::Pixel, &keys.public, &rng, &ParExec::serial()).unwrap();
        let mut oracle_counter = OpCounter::default();
        let oracle = ops::he_conv2d_reference(sys, &enc, &weights, &[bias], 1, (2, 2), &mut oracle_counter).unwrap();
        prop_assert_eq!(oracle_counter.weight_prep, 9 * 4 + 9);
        let bank = WeightBank::prepare(sys, &weights, &[bias]).unwrap();
        for threads in POOLS {
            let mut counter = OpCounter::default();
            let out = ops::he_conv2d(sys, &enc, &bank, 1, (2, 2), &mut counter, &ParExec::new(threads)).unwrap();
            prop_assert_eq!(oracle.cells(), out.cells(), "ciphertext mismatch at {} threads", threads);
            prop_assert_eq!(counter, OpCounter { weight_prep: 0, ..oracle_counter });
        }
    }

    #[test]
    fn par_fc_bit_identical_to_serial(pixels in proptest::collection::vec(0i64..16, 4),
                                      weights in proptest::collection::vec(-9i64..10, 12),
                                      biases in proptest::collection::vec(-20i64..20, 3),
                                      seed in any::<u64>()) {
        let (sys, keys) = system();
        let rng = ChaChaRng::from_seed(seed);
        let enc = EncryptedMap::encrypt_images(sys, &[pixels], 2, Layout::Pixel, &keys.public, &rng, &ParExec::serial()).unwrap();
        let mut oracle_counter = OpCounter::default();
        let oracle = ops::he_conv2d_reference(sys, &enc, &weights, &biases, 3, (2, 2), &mut oracle_counter).unwrap();
        prop_assert_eq!(oracle_counter.weight_prep, 3 * 4 + 3);
        let bank = WeightBank::prepare(sys, &weights, &biases).unwrap();
        for threads in POOLS {
            let mut counter = OpCounter::default();
            let out = ops::he_conv2d(sys, &enc, &bank, 3, (2, 2), &mut counter, &ParExec::new(threads)).unwrap();
            prop_assert_eq!(out.shape(), (3, 1, 1));
            prop_assert_eq!(oracle.cells(), out.cells(), "logit ciphertext mismatch at {} threads", threads);
            prop_assert_eq!(counter, OpCounter { weight_prep: 0, ..oracle_counter });
        }
    }

    #[test]
    fn par_pool_bit_identical_to_serial(pixels in proptest::collection::vec(-100i64..100, 16),
                                        seed in any::<u64>()) {
        let (sys, keys) = system();
        let rng = ChaChaRng::from_seed(seed);
        let enc = EncryptedMap::encrypt_images(sys, &[pixels], 4, Layout::Pixel, &keys.public, &rng, &ParExec::serial()).unwrap();
        let mut serial_counter = OpCounter::default();
        let serial = ops::he_scaled_mean_pool(sys, &enc, 2, &mut serial_counter, &ParExec::serial()).unwrap();
        for threads in [2usize, 4] {
            let mut counter = OpCounter::default();
            let par = ops::he_scaled_mean_pool(sys, &enc, 2, &mut counter, &ParExec::new(threads)).unwrap();
            prop_assert_eq!(serial.cells(), par.cells(), "pooled ciphertext mismatch at {} threads", threads);
            prop_assert_eq!(serial_counter, counter);
        }
    }

    #[test]
    fn par_encrypt_deterministic_across_pool_sizes(
            imgs in proptest::collection::vec(proptest::collection::vec(0i64..16, 16), 1..4),
            threads_a in 1usize..9, threads_b in 1usize..9, seed in any::<u64>()) {
        // Parallel encryption forks one RNG stream per cell, so the same
        // seed yields the same ciphertexts whatever the pool size — and
        // decryption agrees across pool sizes too.
        let (sys, keys) = system();
        let rng = ChaChaRng::from_seed(seed);
        let pool_a = ParExec::new(threads_a);
        let pool_b = ParExec::new(threads_b);
        let enc_a = EncryptedMap::encrypt_images(sys, &imgs, 4, Layout::Pixel, &keys.public, &rng, &pool_a).unwrap();
        let enc_b = EncryptedMap::encrypt_images(sys, &imgs, 4, Layout::Pixel, &keys.public, &rng, &pool_b).unwrap();
        prop_assert_eq!(enc_a.cells(), enc_b.cells(),
                        "encryption differs between {} and {} threads", threads_a, threads_b);
        let serial_dec = enc_a.decrypt_all(sys, &keys.secret, imgs.len(), &ParExec::serial()).unwrap();
        let par_dec = enc_a.decrypt_all(sys, &keys.secret, imgs.len(), &pool_b).unwrap();
        prop_assert_eq!(&serial_dec, &par_dec);
        for (b, img) in imgs.iter().enumerate() {
            for (p, &v) in img.iter().enumerate() {
                prop_assert_eq!(par_dec[b][p], v as i128);
            }
        }
    }

    #[test]
    fn batch_slots_independent(imgs in proptest::collection::vec(proptest::collection::vec(0i64..16, 4), 1..5),
                               w in -10i64..10, seed in any::<u64>()) {
        // Scaling an encrypted map scales every batch slot independently.
        let (sys, keys) = system();
        let rng = ChaChaRng::from_seed(seed);
        let enc = EncryptedMap::encrypt_images(sys, &imgs, 2, Layout::Pixel, &keys.public, &rng, &ParExec::serial()).unwrap();
        let scaled = sys.mul_scalar(enc.cell(0, 0, 0), w).unwrap();
        let slots = sys.decrypt(&scaled, Encoding::Slots, &keys.secret).unwrap();
        for (b, img) in imgs.iter().enumerate() {
            prop_assert_eq!(slots[b], (img[0] * w) as i128, "batch {}", b);
        }
    }
}
