//! Host-claimed shapes (ROADMAP 4a). The untrusted host hands the enclave and
//! the HE layers an [`EncryptedMap`] whose shape and [`Layout`] it chose, and
//! a transcipher payload whose framing it chose; every index, gather bound
//! and staging size downstream derives from those claims. Whatever is
//! claimed — no images, no classes, more of either than slots, a cell count
//! that disagrees with the layout, a side the pooling does not tile,
//! products past `usize`, a reduction over a map that holds no partial sums,
//! an operand map into a layer that does not read it, a fully connected layer
//! over a map that is not its bank's — the answer is `Err`, never a panic or
//! an out-of-bounds gather, and nothing is emitted that the cells which
//! actually crossed could not fill. A polynomial's form is a claim too (the
//! wire format carries it per polynomial): relabelled, it is served or
//! refused, never trusted into a panic.

mod testutil;

use hesgx_bfv::context::BfvContext;
use hesgx_bfv::prelude::{BfvError, Ciphertext, EncryptionKey, Plaintext};
use hesgx_bfv::serialization::{ciphertext_from_bytes, ciphertext_to_bytes};
use hesgx_core::planner::{plan_for, EcallBatching, EnclaveOp, Placement};
use hesgx_core::InferenceEnclave;
use hesgx_crypto::rng::ChaChaRng;
use hesgx_crypto::transcipher::{seal_images, IngressKey};
use hesgx_henn::crt::Encoding;
use hesgx_henn::crt::{CrtCiphertext, CrtKeys, CrtPlainSystem};
use hesgx_henn::image::{EncryptedMap, Layout};
use hesgx_henn::layers::{HeLayer, HeLayers};
use hesgx_henn::ops::{self, OpCounter};
use hesgx_henn::par::ParExec;
use hesgx_henn::weights::WeightBank;
use hesgx_nn::layers::ActivationKind;
use hesgx_tee::enclave::{EnclaveBuilder, Platform};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// One key domain shared by the enclave, the HE layers and the cells a map is
/// built from — so no claim is turned away as a context mismatch before its
/// shape is read.
struct Host {
    enclave: InferenceEnclave,
    layers: HeLayers,
    /// The model's FC weights, prepared: what `HeLayer::Fc` multiplies by.
    fc_bank: WeightBank,
    keys: CrtKeys,
    cell: CrtCiphertext,
}

fn host() -> &'static Host {
    static HOST: OnceLock<Host> = OnceLock::new();
    HOST.get_or_init(|| {
        let sys = || CrtPlainSystem::new(256, &[12289, 13313]).unwrap();
        let mut rng = ChaChaRng::from_seed(41);
        let keys = sys().generate_keys(&mut rng);
        let cell = sys()
            .encrypt(
                &[3, -1, 4, 1, -5, 9],
                Encoding::Slots,
                &keys.public,
                &mut rng,
            )
            .unwrap();
        let enclave = EnclaveBuilder::new("claims")
            .add_code(b"c")
            .build(Platform::new(930));
        let enclave = InferenceEnclave::new(enclave, keys.secret.clone(), keys.public.clone(), 42);
        let model = testutil::small_hybrid_model();
        let fc_bank = WeightBank::prepare(&sys(), &model.fc_weights, &model.fc_bias).unwrap();
        let layers = HeLayers::new(sys(), model, ParExec::new(2)).unwrap();
        Host {
            enclave,
            layers,
            fc_bank,
            keys,
            cell,
        }
    })
}

/// What a claim is replaced with: small numbers around the geometry of the
/// 8×8 model at n = 256, and the ones whose products leave `usize` (picks
/// `0..20`).
fn number(pick: usize) -> usize {
    const EDGES: [usize; 12] = [
        0,
        1,
        2,
        3,
        6,
        18,
        36,
        85,
        86,
        256,
        usize::MAX / 2,
        usize::MAX,
    ];
    if pick < 8 {
        pick
    } else {
        EDGES[pick - 8]
    }
}

/// Encrypts under `key`, then — for the part that carries a `component` —
/// flips that polynomial's form byte on the wire: the one claim about a
/// ciphertext the format lets a host make without touching a residue.
struct Relabel<'a, K> {
    key: &'a K,
    component: Option<usize>,
}

impl<K: EncryptionKey> EncryptionKey for Relabel<'_, K> {
    fn encrypt(
        &self,
        ctx: &Arc<BfvContext>,
        plain: &Plaintext,
        rng: &mut ChaChaRng,
    ) -> hesgx_bfv::error::Result<Ciphertext> {
        let ct = self.key.encrypt(ctx, plain, rng)?;
        let Some(component) = self.component else {
            return Ok(ct);
        };
        let mut bytes = ciphertext_to_bytes(&ct);
        // Magic, kind, context id, size; then per polynomial its form byte,
        // limb count and length-prefixed limbs.
        let poly_bytes = 1 + 8 + ctx.limb_count() * (8 + 8 * ctx.poly_degree());
        bytes[37 + 8 + component * poly_bytes] ^= 1;
        ciphertext_from_bytes(ctx, &bytes)
    }
}

/// A cell of the host's key domain encrypted under `keys` (the public or the
/// secret ones) with polynomial `component` of CRT part `part` relabelled.
fn relabelled<K: EncryptionKey>(keys: &[K], part: usize, component: usize) -> CrtCiphertext {
    let keys: Vec<_> = (keys.iter().enumerate())
        .map(|(i, key)| Relabel {
            key,
            component: (i == part).then_some(component),
        })
        .collect();
    let mut rng = ChaChaRng::from_seed(43);
    let sys = host().layers.system();
    sys.encrypt(&[3, -1, 4, 1, -5, 9], Encoding::Slots, &keys, &mut rng)
        .unwrap()
}

/// `layout` with field `field` (of its one to three numbers) set to `value`.
fn claim(layout: Layout, field: usize, value: usize) -> Layout {
    let pick = |i, old| if field == i { value } else { old };
    match layout {
        Layout::Pixel => Layout::Pixel,
        Layout::Coeff { batch, side, pitch } => Layout::Coeff {
            batch: pick(0, batch),
            side: pick(1, side),
            pitch: pick(2, pitch),
        },
        Layout::FcOperand {
            classes,
            batch,
            inputs,
        } => Layout::FcOperand {
            classes: pick(0, classes),
            batch: pick(1, batch),
            inputs: pick(2, inputs),
        },
        Layout::Orbit {
            batch,
            side,
            window,
        } => Layout::Orbit {
            batch: pick(0, batch),
            side: pick(1, side),
            window: pick(2, window),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A crossing the pipeline could have built — a per-pixel,
    /// coefficient-encoded or partial-sum map, an activation with or without
    /// pooling or the closing reduction, out per pixel or packed for the FC
    /// layer — is served; the same crossing with one claim replaced (a
    /// layout number, the emitted layout's, a missing row of cells, another
    /// chain) is served or refused, and so is each HE layer over the same
    /// map.
    #[test]
    fn claimed_shapes_are_refused_or_served_never_trusted(
        family in 0usize..3, channels in 1usize..3, side_pick in 0usize..3,
        batch in 1usize..5, classes in 1usize..6, pools in any::<bool>(),
        operand in any::<bool>(), per_pixel in 0usize..4,
        mutate in 0usize..12, field in 0usize..3, value in 0usize..20, other in 0usize..5,
    ) {
        let host = host();
        let (sys, model) = (host.layers.system(), host.layers.model());
        let side = [2usize, 4, 6][side_pick];
        let sigmoid = EnclaveOp::Activation(ActivationKind::Sigmoid);
        let mut chain = vec![sigmoid];
        chain.extend(pools.then_some(EnclaveOp::MeanPool));
        let outputs = channels * (side / if pools { 2 } else { 1 }).pow(2);
        let (mut layout, mut shape) = match family {
            0 => (Layout::Pixel, (channels, side, side)),
            1 => (Layout::Coeff { batch, side, pitch: side }, (channels, batch, 1)),
            _ => {
                // The FC layer's partial sums: one cell a class.
                chain = vec![EnclaveOp::LogitReduce];
                (Layout::FcOperand { classes, batch, inputs: 256 / batch }, (classes, 1, 1))
            }
        };
        let mut emit = match operand && family < 2 {
            true => Layout::FcOperand { classes: 1, batch, inputs: outputs },
            false => Layout::Pixel,
        };
        let batching = if per_pixel == 0 { EcallBatching::PerPixel } else { EcallBatching::Batched };
        // What this crossing is before anything is changed about it.
        let packed = family > 0 || emit != Layout::Pixel;
        let built = mutate < 6;
        match mutate {
            6 | 7 => layout = claim(layout, field, number(value)),
            8 => emit = claim(emit, field, number(value)),
            9 => shape.1 -= 1,
            10 => chain = vec![[sigmoid, EnclaveOp::MeanPool, EnclaveOp::Divide, EnclaveOp::Refresh,
                EnclaveOp::LogitReduce][other]; 1 + value % 3],
            11 => chain = vec![EnclaveOp::MeanPool; 60 + value],
            _ => {}
        }
        let cells = vec![host.cell.clone(); shape.0 * shape.1 * shape.2];
        let map = EncryptedMap::new(shape.0, shape.1, shape.2, cells).with_layout(layout);
        let _ = (map.occupancy_ppm(256), layout.slot_map(map.shape(), 256));
        let _ = map.decrypt_all(sys, &host.keys.secret, 2, &ParExec::serial());

        let applied = host.enclave.apply(&chain, sys, model, &map, batching, emit, host.layers.pool());
        if built {
            let crosses = !packed || batching == EcallBatching::Batched;
            prop_assert_eq!(applied.is_ok(), crosses, "{:?}", applied.as_ref().err());
        }
        if let Ok((out, _)) = applied {
            // Every emitted cell was filled from cells that crossed.
            prop_assert!(out.cells().len() <= map.cells().len() * 256, "{:?}", out.shape());
            if chain.contains(&EnclaveOp::LogitReduce) {
                // One logit a (class, image), in no more cells than held the sums.
                prop_assert_eq!(&chain[..], &[EnclaveOp::LogitReduce][..]);
                let Layout::FcOperand { classes, batch, .. } = map.layout() else {
                    return Err(TestCaseError::fail(format!("reduced {:?}", map.layout())));
                };
                prop_assert_eq!(out.layout(), Layout::FcOperand { classes, batch, inputs: 1 });
                prop_assert!(out.cells().len() <= map.cells().len());
            } else {
                prop_assert_eq!(out.layout(), emit);
            }
            let per_pixel = batching == EcallBatching::PerPixel;
            prop_assert!(!per_pixel || (layout, emit) == (Layout::Pixel, Layout::Pixel));
            prop_assert!(out.layout().slot_map(out.shape(), 256).is_ok());
        }

        for layer in [HeLayer::Conv, HeLayer::Square, HeLayer::SumPool, HeLayer::Fc] {
            let mut counter = OpCounter::default();
            let out = host.layers.apply(layer, &map, &host.keys.evaluation, &host.keys.galois, &mut counter);
            let reads = matches!(
                (layer, layout),
                (_, Layout::Pixel)
                    | (HeLayer::Conv, Layout::Coeff { .. })
                    | (HeLayer::Fc, Layout::FcOperand { .. })
            );
            prop_assert!(reads || out.is_err(), "{:?} read {:?}", layer, layout);
            if out.is_err() {
                prop_assert_eq!(counter, OpCounter::default());
            }
        }

        // The FC layer is the convolution whose kernel is the map's own
        // sides: the model's `2 × 3 × 3` pooled map comes back as one cell a
        // class; with one side replaced it no longer holds the bank's 18
        // inputs and is refused, not read short or mis-shaped.
        let mut fc_shape = [model.conv_out, model.pool_side(), model.pool_side()];
        if !built {
            fc_shape[field] = value % 8;
        }
        let [c, h, w] = fc_shape;
        let fc_map = EncryptedMap::new(c, h, w, vec![host.cell.clone(); c * h * w]);
        let mut counter = OpCounter::default();
        let logits = host.layers.apply(HeLayer::Fc, &fc_map, &host.keys.evaluation, &host.keys.galois, &mut counter);
        prop_assert_eq!(logits.is_ok(), c * h * w == model.fc_in(), "{:?}", fc_shape);
        if let Ok(logits) = logits {
            prop_assert_eq!(logits.shape(), (model.classes, 1, 1));
        }
        // The kernel itself under a claimed output count and kernel sides:
        // served only when the taps are exactly the bank's and fit the map.
        let (out, rows, cols) = (number(other), number(value), number(mutate + field));
        let mut counter = OpCounter::default();
        let served = ops::he_conv2d(sys, &fc_map, &host.fc_bank, out, (rows, cols), &mut counter, host.layers.pool());
        let taps = [c, rows, cols].iter().try_fold(out, |n, &f| n.checked_mul(f));
        let fits = out == model.classes && taps == Some(model.classes * model.fc_in()) && rows <= h && cols <= w;
        prop_assert_eq!(served.is_ok(), fits, "{} × {:?} over {:?}", out, (rows, cols), fc_shape);
        if served.is_err() {
            prop_assert_eq!(counter, OpCounter::default());
        }
    }

    /// The wire format encodes each polynomial's form, so a host can
    /// relabel one component of one cell of a map the pipeline could have
    /// built: the model's input per pixel or one image a cell, its pooled map
    /// per pixel or packed for the FC layer. Decryption and the enclave serve
    /// it (to a wrong value, which only its sender reads); a convolution
    /// refuses it — the scalar one to accumulate it into a correctly
    /// labelled cell, the polynomial one to read a cell no encryption
    /// produced; the operand FC transforms whatever it is handed. Nothing
    /// panics.
    #[test]
    fn a_relabelled_form_is_refused_or_served_never_trusted(
        family in 0usize..4, secret_base in any::<bool>(), part in 0usize..2,
        component in 0usize..2, at in any::<usize>(),
    ) {
        let host = host();
        let (sys, model) = (host.layers.system(), host.layers.model());
        let sigmoid = EnclaveOp::Activation(ActivationKind::Sigmoid);
        let (layer, chain, layout, shape) = match family {
            0 => (HeLayer::Conv, vec![sigmoid, EnclaveOp::MeanPool], Layout::Pixel, (1, 8, 8)),
            1 => (HeLayer::Conv, vec![sigmoid], Layout::Coeff { batch: 2, side: 8, pitch: 8 }, (1, 2, 1)),
            2 => (HeLayer::Fc, vec![sigmoid], Layout::Pixel, (2, 3, 3)),
            _ => (
                HeLayer::Fc,
                vec![EnclaveOp::LogitReduce],
                Layout::FcOperand { classes: 1, batch: 2, inputs: 18 },
                (1, 1, 1),
            ),
        };
        let mut cells = vec![host.cell.clone(); shape.0 * shape.1 * shape.2];
        let target = at % cells.len();
        cells[target] = match secret_base {
            true => relabelled(&host.keys.secret, part, component),
            false => relabelled(&host.keys.public, part, component),
        };
        let map = EncryptedMap::new(shape.0, shape.1, shape.2, cells).with_layout(layout);

        let _ = map.decrypt_all(sys, &host.keys.secret, 2, &ParExec::serial());
        let batched = EcallBatching::Batched;
        let applied = host.enclave.apply(&chain, sys, model, &map, batched, Layout::Pixel, host.layers.pool());
        prop_assert!(applied.is_ok(), "{:?}", applied.err());
        let mut counter = OpCounter::default();
        let out = host.layers.apply(layer, &map, &host.keys.evaluation, &host.keys.galois, &mut counter);
        if layout == Layout::Pixel || layer == HeLayer::Conv {
            let refused = matches!(out, Err(BfvError::InvalidShape(_)));
            prop_assert!(refused, "{:?} over {:?}: {:?}", layer, layout, out.map(|m| m.shape()));
            prop_assert_eq!(counter, OpCounter::default());
        } else {
            prop_assert!(out.is_ok(), "{:?}", out.err());
        }
    }

    /// A transcipher payload's framing is the host's claim about its batch:
    /// only an authentic payload of the model's geometry comes back as cells,
    /// exactly the ingress layout's count of them.
    #[test]
    fn transcipher_framing_claims_are_refused_inside_the_enclave(
        images in 0usize..4, pixels_pick in 0usize..6,
        forge_at in 0usize..16, forged in any::<u8>(),
    ) {
        let host = host();
        let (sys, model) = (host.layers.system(), host.layers.model());
        let pixels = [0, 1, 16, 63, 64, 65][pixels_pick];
        let key = IngressKey::derive(b"salt", b"ikm", b"claims");
        let batch = vec![vec![1i64; pixels]; images];
        let Ok(mut payload) = seal_images(&key, &[5u8; 12], &batch) else {
            return Ok(());
        };
        // Half the time, overwrite a byte of the clear `images`/`pixels`
        // framing words (payload bytes 13..21).
        let tampered = forge_at < 8 && std::mem::replace(&mut payload[13 + forge_at], forged) != forged;
        let plan = plan_for(ActivationKind::Sigmoid, Placement::Hybrid);
        let pool = ParExec::serial();
        let served = host.enclave.transcipher_ingress(sys, model, &plan, &key, &payload, &pool);
        match served {
            Ok((map, _)) => {
                prop_assert!(!tampered && pixels == 64);
                let layout = plan.ingress_layout(model, images, 256);
                prop_assert_eq!(map.layout(), layout);
                prop_assert_eq!(map.cells().len(), layout.ingress_cells(8, 256));
            }
            Err(err) => prop_assert!(tampered || pixels != 64 || images == 0, "{}", err),
        }
    }
}
