//! `ntt_bench` — the exactness gate of the lazy-reduction NTT kernels and
//! of the two things built on them that ship: the weight-bank conv kernel
//! and the enclave cell (not in the paper). Wall numbers are printed for
//! orientation only; `benchmark/` is where wall time is measured.
//!
//! Three kernels per `(n, p)` tier, lazy versus the retained eager
//! reference: the Harvey/Shoup forward transform, the lazy inverse, and the
//! symmetric negacyclic multiply (two forward transforms, Barrett pointwise
//! stage and lazy inverse, versus two eager transforms, a `u128 %` pointwise
//! stage, the eager inverse and its scaling pass). Bit-identity is asserted
//! on every tier before anything is timed; wall times are median-of-k via
//! the audited [`WallTimer`] shim.
//!
//! The conv-layer section runs the fig8-scale convolution over the paper's
//! image batch twice on one thread — the [`WeightBank`] kernel
//! ([`ops::he_conv2d`]) and the raw-weight oracle
//! ([`ops::he_conv2d_reference`]). The two must produce byte-identical
//! ciphertexts; the wall-time gap is the measured payoff of provision-time
//! weight preparation and fused accumulation. Then, in either mode at the
//! paper's geometry (28×28, five 5×5 maps, n = 1024, the paper's batch), the
//! coefficient-encoded kernel — one ciphertext an image, one kernel-polynomial
//! product per map and image — must decrypt to the plaintext convolution at
//! every valid position; its op counts join the deterministic artifact. So
//! does the dense-operand FC at the same geometry: the 720 pooled values of
//! each image once, `⌊1024/10⌋ = 102` slots an image, in 8 cells, one
//! product chain a class ([`ops::he_linear`]: 80 products) into 10
//! partial-sum cells, whose sums must equal the plaintext FC for every
//! (class, image).
//!
//! The enclave-cell section prices what one activation/pool cell costs
//! inside the enclave at the Fig. 8 ring degree: `decrypt_slots`, and
//! `encrypt_slots` under the public key (SEAL 2.1's client path) versus under
//! the secret key (the served client's and the enclave's). Its deterministic
//! face is two
//! flags: the RNS-native decryption equals the `U256` scale-and-round of the
//! reconstructed phase on fresh, worn and size-3 ciphertexts, and a
//! secret-key encryption round-trips every slot.
//!
//! Artifacts: `target/bench/BENCH_ntt.json` (full tables including wall
//! times — informative, machine-readable, *not* replay-stable) and
//! `target/bench/BENCH_ntt.deterministic.json` (tier shapes, output
//! checksums, op counts, and identity flags only — byte-identical across
//! reruns, which CI checks by running the experiment twice and diffing).

use super::{header, RunConfig};
use hesgx_bfv::ntt::NttTable;
use hesgx_bfv::prelude::{Ciphertext, Decryptor, SecretKey};
use hesgx_crypto::rng::ChaChaRng;
use hesgx_crypto::uint::{Reciprocal, U256};
use hesgx_henn::crt::CrtPlainSystem;
use hesgx_henn::crt::Encoding;
use hesgx_henn::image::{EncryptedMap, Layout};
use hesgx_henn::ops::{self, OpCounter};
use hesgx_henn::par::ParExec;
use hesgx_henn::weights::{NttBank, WeightBank};
use hesgx_nn::quantize::QuantizedCnn;
use hesgx_tee::wall::WallTimer;
use std::fmt::Write as _;

/// Deterministic input generation seed (one domain per tier and operand).
const SEED: u64 = 4096;

/// The `(n, p)` tiers: every NTT-friendly prime the workspace's parameter
/// presets actually select, from the test degree up to 4096. Each prime
/// satisfies `p ≡ 1 (mod 2n)`.
const TIERS: &[(usize, u64)] = &[
    (256, 12289),
    (1024, 12289),
    (1024, 65537),
    (4096, 40961),
    (4096, 65537),
];

/// Median wall times of one kernel, optimized and reference, nanoseconds.
struct KernelTimes {
    /// Median of the lazy-reduction implementation.
    optimized_ns: u64,
    /// Median of the eager reference implementation.
    reference_ns: u64,
}

impl KernelTimes {
    /// Reference/optimized wall-time ratio (≥ 1.0 means the lazy path wins).
    fn speedup(&self) -> f64 {
        self.reference_ns as f64 / (self.optimized_ns.max(1)) as f64
    }
}

/// One `(n, p)` tier's results.
struct TierResult {
    /// Transform length.
    n: usize,
    /// NTT-friendly prime modulus.
    p: u64,
    /// Forward transform medians.
    forward: KernelTimes,
    /// Inverse transform medians.
    inverse: KernelTimes,
    /// Symmetric negacyclic multiply medians.
    negacyclic: KernelTimes,
    /// Wrapping sum of the negacyclic product's coefficients — a
    /// deterministic witness that optimized and reference agreed exactly.
    product_checksum: u64,
}

/// The coefficient-encoded convolution at the paper's geometry: its median
/// wall time, whether it decrypted to the plaintext convolution, its ops.
struct CoeffConv {
    /// Median of one [`ops::he_linear`] over the batch's `Coeff` map.
    kernel_ns: u64,
    /// Every valid position of every map and image decrypted exactly.
    matches_plain: bool,
    /// The kernel's op counts.
    ops: OpCounter,
}

/// The fully connected layer over the dense operand layout at the paper's
/// geometry: its median wall time, whether its partial sums added up to the
/// plaintext FC, and its cell and op counts.
struct DenseFc {
    /// Median of one [`ops::he_linear`] over the batch's operand map.
    kernel_ns: u64,
    /// Every (class, image)'s partial sums added up to `W·x + b`.
    matches_plain: bool,
    /// Operand cells in.
    operand_cells: usize,
    /// Partial-sum cells out (one a class).
    sum_cells: usize,
    /// The kernel's op counts.
    ops: OpCounter,
}

/// What one cell of an enclave transform costs, and the two exactness flags
/// that make the numbers meaningful.
struct EnclaveCell {
    /// Median of `CrtPlainSystem::decrypt` (slots).
    decrypt_slots_ns: u64,
    /// Median of `CrtPlainSystem::encrypt` (slots, public key).
    encrypt_public_ns: u64,
    /// Median of `CrtPlainSystem::encrypt` (slots, secret key).
    encrypt_secret_ns: u64,
    /// `Decryptor::decrypt` equalled the `U256` reference on every probe.
    rns_decrypt_matches_u256: bool,
    /// A secret-key encryption decrypted back to every slot value.
    symmetric_roundtrip_exact: bool,
}

fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Times `k` runs of `f` and returns the median wall nanoseconds.
fn median_of<F: FnMut()>(k: usize, mut f: F) -> u64 {
    let mut samples = Vec::with_capacity(k);
    for _ in 0..k {
        let t = WallTimer::start();
        f();
        samples.push(t.elapsed_ns());
    }
    median(samples)
}

fn random_poly(rng: &mut ChaChaRng, n: usize, p: u64) -> Vec<u64> {
    (0..n).map(|_| rng.next_below(p)).collect()
}

fn bench_tier(n: usize, p: u64, reps: usize) -> TierResult {
    let table = NttTable::new(n, p);
    let domain = format!("tier-{n}-{p}");
    let mut rng = ChaChaRng::from_seed(SEED).fork(&domain);
    let a = random_poly(&mut rng, n, p);
    let b = random_poly(&mut rng, n, p);

    // Exactness first: the speedup claim is only meaningful because the
    // lazy path is bit-identical to the eager one on the same inputs.
    let mut fwd_opt = a.clone();
    let mut fwd_ref = a.clone();
    table.forward(&mut fwd_opt);
    table.forward_reference(&mut fwd_ref);
    let forward_exact = fwd_opt == fwd_ref;
    let mut inv_opt = fwd_opt.clone();
    let mut inv_ref = fwd_opt;
    table.inverse(&mut inv_opt);
    table.inverse_reference(&mut inv_ref);
    let product_opt = table.negacyclic_multiply(&a, &b);
    let product_ref = table.negacyclic_multiply_reference(&a, &b);
    let exact = forward_exact && inv_opt == inv_ref && product_opt == product_ref;
    assert!(exact, "lazy NTT diverged from reference at n={n}, p={p}");
    let product_checksum = product_opt.iter().fold(0u64, |s, &c| s.wrapping_add(c));

    let forward = KernelTimes {
        optimized_ns: median_of(reps, || {
            let mut v = a.clone();
            table.forward(&mut v);
        }),
        reference_ns: median_of(reps, || {
            let mut v = a.clone();
            table.forward_reference(&mut v);
        }),
    };
    let inverse = KernelTimes {
        optimized_ns: median_of(reps, || {
            let mut v = a.clone();
            table.inverse(&mut v);
        }),
        reference_ns: median_of(reps, || {
            let mut v = a.clone();
            table.inverse_reference(&mut v);
        }),
    };
    let negacyclic = KernelTimes {
        optimized_ns: median_of(reps, || {
            std::hint::black_box(table.negacyclic_multiply(&a, &b));
        }),
        reference_ns: median_of(reps, || {
            std::hint::black_box(table.negacyclic_multiply_reference(&a, &b));
        }),
    };
    TierResult {
        n,
        p,
        forward,
        inverse,
        negacyclic,
        product_checksum,
    }
}

/// The conv-layer A/B: medians, whether kernel and oracle ciphertexts
/// matched byte for byte, and each side's op counts.
struct ConvLayer {
    times: KernelTimes,
    cells_match: bool,
    kernel_ops: OpCounter,
    oracle_ops: OpCounter,
}

/// Times the conv layer of `model` over the paper's image batch: the
/// weight-bank kernel on an inline pool, then the raw-weight oracle, on
/// the same encrypted input.
fn run_conv(model: &QuantizedCnn, poly_degree: usize, reps: usize) -> ConvLayer {
    let bits = model.range_report().expect("ntt_bench conv range fits i64");
    let moduli = CrtPlainSystem::moduli_for(poly_degree, bits.required_plain_bits, 0);
    let sys = CrtPlainSystem::new(poly_degree, &moduli).expect("ntt_bench conv system builds");
    let mut rng = ChaChaRng::from_seed(SEED).fork("conv-layer");
    let keys = sys.generate_keys(&mut rng);
    let images: Vec<Vec<i64>> = (0..crate::PAPER_BATCH_SIZE)
        .map(|b| {
            (0..model.in_side * model.in_side)
                .map(|p| ((p * 3 + b * 7) % 16) as i64)
                .collect()
        })
        .collect();
    let enc = EncryptedMap::encrypt_images(
        &sys,
        &images,
        model.in_side,
        Layout::Pixel,
        &keys.public,
        &rng,
        &ParExec::serial(),
    )
    .expect("ntt_bench conv batch encrypts");
    let bank = WeightBank::prepare(&sys, &model.conv_weights, &model.conv_bias)
        .expect("ntt_bench conv weights prepare");
    let (pool, k) = (ParExec::serial(), (model.kernel, model.kernel));
    let kernel = |counter: &mut OpCounter| {
        ops::he_conv2d(&sys, &enc, &bank, model.conv_out, k, counter, &pool)
            .expect("ntt_bench conv kernel runs")
    };
    let oracle = |counter: &mut OpCounter| {
        ops::he_conv2d_reference(
            &sys,
            &enc,
            &model.conv_weights,
            &model.conv_bias,
            model.conv_out,
            k,
            counter,
        )
        .expect("ntt_bench conv oracle runs")
    };
    // The untimed first runs yield the identity flag and the op counts.
    let (mut kernel_ops, mut oracle_ops) = (OpCounter::default(), OpCounter::default());
    let cells_match = kernel(&mut kernel_ops).cells() == oracle(&mut oracle_ops).cells();
    let times = KernelTimes {
        optimized_ns: median_of(reps, || {
            std::hint::black_box(kernel(&mut OpCounter::default()));
        }),
        reference_ns: median_of(reps, || {
            std::hint::black_box(oracle(&mut OpCounter::default()));
        }),
    };
    ConvLayer {
        times,
        cells_match,
        kernel_ops,
        oracle_ops,
    }
}

/// Runs the coefficient-encoded convolution of the paper's model over the
/// paper's batch at n = 1024 and holds every output against the plaintext
/// convolution.
fn run_coeff_conv(reps: usize) -> CoeffConv {
    let (model, n, batch) = (
        crate::formula_model(false),
        crate::PAPER_POLY_DEGREE,
        crate::PAPER_BATCH_SIZE,
    );
    let (side, k) = (model.in_side, model.kernel);
    let bits = model.range_report().expect("ntt_bench conv range fits i64");
    let moduli = CrtPlainSystem::moduli_for(n, bits.required_plain_bits, 0);
    let sys = CrtPlainSystem::new(n, &moduli).expect("ntt_bench conv system builds");
    let mut rng = ChaChaRng::from_seed(SEED).fork("coeff-conv");
    let keys = sys.generate_keys(&mut rng);
    let images: Vec<Vec<i64>> = (0..batch)
        .map(|b| {
            (0..side * side)
                .map(|p| ((p * 3 + b * 7) % 16) as i64)
                .collect()
        })
        .collect();
    let layout = Layout::for_conv(side, batch, n);
    assert!(matches!(layout, Layout::Coeff { .. }), "{layout:?}");
    let serial = ParExec::serial();
    let enc =
        EncryptedMap::encrypt_images(&sys, &images, side, layout, &keys.secret, &rng, &serial)
            .expect("ntt_bench coeff batch encrypts");
    let (weights, biases) = (&model.conv_weights, &model.conv_bias);
    let bank = NttBank::conv(&sys, weights, biases, k, side);
    let bank = bank.expect("ntt_bench kernel polynomials");
    let conv = |ops: &mut OpCounter| {
        ops::he_linear(&sys, &enc, &bank, &[], ops, &serial).expect("ntt_bench coeff conv runs")
    };
    let mut ops = OpCounter::default();
    let rows = (conv(&mut ops).decrypt_all(&sys, &keys.secret, batch, &serial))
        .expect("ntt_bench coeff conv decrypts");
    let out = side - k + 1;
    let plain = |b: usize, v: usize| -> i128 {
        let (o, y, x) = (v / (out * out), v / out % out, v % out);
        let tap = |t: usize| weights[o * k * k + t] * images[b][(y + t / k) * side + x + t % k];
        ((0..k * k).map(tap).sum::<i64>() + biases[o]).into()
    };
    let matches_plain = (rows.iter().enumerate())
        .all(|(b, row)| row.iter().enumerate().all(|(v, &got)| got == plain(b, v)));
    CoeffConv {
        kernel_ns: median_of(reps, || {
            std::hint::black_box(conv(&mut OpCounter::default()));
        }),
        matches_plain,
        ops,
    }
}

/// Runs the paper model's FC layer over the paper's batch of pooled maps in
/// the dense operand layout at n = 1024 and holds every (class, image)'s
/// summed partial sums against the plaintext FC.
fn run_dense_fc(reps: usize) -> DenseFc {
    let (model, n, batch) = (
        crate::formula_model(false),
        crate::PAPER_POLY_DEGREE,
        crate::PAPER_BATCH_SIZE,
    );
    let (inputs, classes) = (model.fc_in(), model.classes);
    let bits = model.range_report().expect("ntt_bench FC range fits i64");
    let moduli = CrtPlainSystem::moduli_for(n, bits.required_plain_bits, 0);
    let sys = CrtPlainSystem::new(n, &moduli).expect("ntt_bench FC system builds");
    let mut rng = ChaChaRng::from_seed(SEED).fork("dense-fc");
    let keys = sys.generate_keys(&mut rng);
    let x = |b: usize, j: usize| ((j * 5 + b * 3) % 16) as i64;
    let layout = Layout::for_fc(inputs, classes, batch, n);
    let (per, cells) = layout.fc_geometry(n).expect("the paper's FC packs");
    let rule = layout.slot_map((cells, 1, 1), n).expect("the operand map");
    let packed = rule
        .encode(batch, |_, j, b| x(b, j))
        .expect("the batch fits");
    let cts = (packed.iter())
        .map(|values| sys.encrypt(values, Encoding::Slots, &keys.secret, &mut rng))
        .collect::<Result<_, _>>()
        .expect("ntt_bench operand encrypts");
    let map = EncryptedMap::new(cells, 1, 1, cts).with_layout(layout);
    let (weights, biases) = (&model.fc_weights, &model.fc_bias);
    let bank = NttBank::fc_operand(&sys, weights, biases, per).expect("ntt_bench FC bank");
    let serial = ParExec::serial();
    let fc = |ops: &mut OpCounter| {
        ops::he_linear(&sys, &map, &bank, &[], ops, &serial).expect("ntt_bench dense FC runs")
    };
    let mut ops = OpCounter::default();
    let sums = fc(&mut ops);
    let sum_cells = sums.cells().len();
    let rows = (sums.decrypt_all(&sys, &keys.secret, batch, &serial))
        .expect("ntt_bench dense FC decrypts");
    let plain = |b: usize, c: usize| -> i128 {
        let dot = (0..inputs).map(|j| weights[c * inputs + j] * x(b, j));
        (dot.sum::<i64>() + biases[c]).into()
    };
    let matches_plain = (rows.iter().enumerate()).all(|(b, row)| {
        let logits = row.chunks(per).map(|sums| sums.iter().sum::<i128>());
        logits.enumerate().all(|(c, logit)| logit == plain(b, c))
    });
    DenseFc {
        kernel_ns: median_of(reps, || {
            std::hint::black_box(fc(&mut OpCounter::default()));
        }),
        matches_plain,
        operand_cells: cells,
        sum_cells,
        ops,
    }
}

/// `⌊(t·x + ⌊q/2⌋)/q⌋ mod t` in 256-bit integers on the reconstructed phase
/// of `ct` — the decryption formula as written, to hold
/// `Decryptor::decrypt`'s RNS-native evaluation against.
fn decrypt_u256(
    sys: &CrtPlainSystem,
    part: usize,
    dec: &Decryptor<&SecretKey>,
    ct: &Ciphertext,
) -> Vec<u64> {
    let params = sys.contexts()[part].params();
    let t = params.plain_modulus();
    let q = params
        .coeff_moduli()
        .iter()
        .fold(U256::ONE, |q, &qi| q.carrying_mul_u64(qi).0);
    let rec_q = Reciprocal::new(q);
    let phase = dec.raw_phase(ct).expect("ntt_bench cell phase");
    phase
        .into_iter()
        .map(|x| {
            let sum = U256::from_u128(x)
                .carrying_mul_u64(t)
                .0
                .wrapping_add(q.shr(1));
            rec_q
                .div_rem(sum)
                .0
                .to_u64()
                .map_or(u64::MAX, |quot| quot % t)
        })
        .collect()
}

/// Times one enclave cell — decrypt, and re-encrypt under either key — on
/// the fig8 system at `poly_degree`, and evaluates the two exactness flags.
fn run_cell(poly_degree: usize, reps: usize) -> EnclaveCell {
    let report = crate::formula_model(false).range_report();
    let bits = report
        .expect("ntt_bench cell range fits i64")
        .required_plain_bits;
    let moduli = CrtPlainSystem::moduli_for(poly_degree, bits, 0);
    let sys = CrtPlainSystem::new(poly_degree, &moduli).expect("ntt_bench cell system builds");
    let mut rng = ChaChaRng::from_seed(SEED).fork("enclave-cell");
    let keys = sys.generate_keys(&mut rng);
    let span = 1i64 << bits.min(40);
    let values: Vec<i64> = (0..sys.slot_count() as i64)
        .map(|i| (i * 2_654_435_761) % span - span / 2)
        .collect();

    let public = sys
        .encrypt(&values, Encoding::Slots, &keys.public, &mut rng)
        .expect("ntt_bench cell encrypts");
    let secret = sys
        .encrypt(&values, Encoding::Slots, &keys.secret, &mut rng)
        .expect("ntt_bench cell encrypts");
    let decrypted = sys
        .decrypt(&secret, Encoding::Slots, &keys.secret)
        .expect("ntt_bench cell decrypts");
    let symmetric_roundtrip_exact = decrypted.iter().zip(&values).all(|(&d, &v)| d == v as i128);

    // Fresh under both keys, worn by a scalar-multiply chain, and size 3.
    let mut worn = sys
        .mul_scalar(&secret, 1021)
        .expect("ntt_bench cell multiplies");
    worn = sys
        .mul_scalar(&worn, -1019)
        .expect("ntt_bench cell multiplies");
    let squared = sys.square(&public).expect("ntt_bench cell squares");
    let mut rns_decrypt_matches_u256 = true;
    for part in 0..sys.part_count() {
        let dec = Decryptor::new(sys.contexts()[part].clone(), &keys.secret[part]);
        for ct in [&public, &secret, &worn, &squared] {
            let got = dec.decrypt(ct.part(part)).expect("ntt_bench cell decrypts");
            rns_decrypt_matches_u256 &=
                got.coeffs() == decrypt_u256(&sys, part, &dec, ct.part(part));
        }
    }

    EnclaveCell {
        decrypt_slots_ns: median_of(reps, || {
            std::hint::black_box(sys.decrypt(&public, Encoding::Slots, &keys.secret)).ok();
        }),
        encrypt_public_ns: median_of(reps, || {
            std::hint::black_box(sys.encrypt(&values, Encoding::Slots, &keys.public, &mut rng))
                .ok();
        }),
        encrypt_secret_ns: median_of(reps, || {
            std::hint::black_box(sys.encrypt(&values, Encoding::Slots, &keys.secret, &mut rng))
                .ok();
        }),
        rns_decrypt_matches_u256,
        symmetric_roundtrip_exact,
    }
}

/// Runs the NTT + conv-layer benchmark and writes both artifacts.
pub fn ntt_bench(cfg: RunConfig) {
    header("NTT BENCH: lazy-reduction kernels vs eager reference (not in the paper)");
    let reps = cfg.reps(30);
    let conv_reps = if cfg.quick { 3 } else { 5 };
    println!("median of {reps} runs per kernel; exactness asserted per tier\n");
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>6} {:>12} {:>12} {:>6} {:>12} {:>12} {:>6}",
        "n",
        "p",
        "fwd opt(ns)",
        "fwd ref(ns)",
        "x",
        "inv opt(ns)",
        "inv ref(ns)",
        "x",
        "mul opt(ns)",
        "mul ref(ns)",
        "x"
    );
    let tiers: Vec<TierResult> = TIERS
        .iter()
        .map(|&(n, p)| {
            let t = bench_tier(n, p, reps);
            println!(
                "{:>6} {:>8} {:>12} {:>12} {:>6.2} {:>12} {:>12} {:>6.2} {:>12} {:>12} {:>6.2}",
                t.n,
                t.p,
                t.forward.optimized_ns,
                t.forward.reference_ns,
                t.forward.speedup(),
                t.inverse.optimized_ns,
                t.inverse.reference_ns,
                t.inverse.speedup(),
                t.negacyclic.optimized_ns,
                t.negacyclic.reference_ns,
                t.negacyclic.speedup()
            );
            t
        })
        .collect();

    let model = crate::formula_model(cfg.quick);
    let poly_degree = if cfg.quick {
        256
    } else {
        crate::PAPER_POLY_DEGREE
    };
    println!(
        "\nconv layer at fig8 scale (poly n={poly_degree}, {}x{} input, batch {}, one \
         thread): weight-bank kernel vs raw-weight oracle",
        model.in_side,
        model.in_side,
        crate::PAPER_BATCH_SIZE
    );
    let ConvLayer {
        times: conv,
        cells_match: conv_cells_match,
        kernel_ops,
        oracle_ops,
    } = run_conv(&model, poly_degree, conv_reps);
    assert!(
        conv_cells_match,
        "weight-bank kernel diverged from the oracle"
    );
    assert_eq!(
        kernel_ops.weight_prep, 0,
        "the weight-bank kernel must prepare no weights per call"
    );
    println!(
        "kernel {} ns vs oracle {} ns — {:.2}x; ciphertexts byte-identical: {}; \
         oracle weight preps/call: {}",
        conv.optimized_ns,
        conv.reference_ns,
        conv.speedup(),
        conv_cells_match,
        oracle_ops.weight_prep
    );
    let coeff_conv = run_coeff_conv(conv_reps);
    assert!(
        coeff_conv.matches_plain,
        "the coefficient-encoded kernel diverged from the plaintext convolution"
    );
    println!(
        "coefficient-encoded conv at n={}, 28x28, batch {}: {} ns, {} products; \
         every position == plaintext convolution: {}",
        crate::PAPER_POLY_DEGREE,
        crate::PAPER_BATCH_SIZE,
        coeff_conv.kernel_ns,
        coeff_conv.ops.ct_pt_mul,
        coeff_conv.matches_plain
    );
    let dense_fc = run_dense_fc(conv_reps);
    assert!(
        dense_fc.matches_plain,
        "the dense-operand FC diverged from the plaintext FC"
    );
    println!(
        "dense-operand FC at n={}, 720 inputs, 10 classes, batch {}: {} ns, {} operand \
         cells, {} products, {} partial-sum cells; every logit == plaintext FC: {}",
        crate::PAPER_POLY_DEGREE,
        crate::PAPER_BATCH_SIZE,
        dense_fc.kernel_ns,
        dense_fc.operand_cells,
        dense_fc.ops.ct_pt_mul,
        dense_fc.sum_cells,
        dense_fc.matches_plain
    );

    let cell_degree = crate::PAPER_POLY_DEGREE;
    let cell = run_cell(cell_degree, reps);
    assert!(
        cell.rns_decrypt_matches_u256,
        "RNS-native decryption diverged from the U256 reference"
    );
    assert!(
        cell.symmetric_roundtrip_exact,
        "secret-key encryption did not round-trip"
    );
    println!(
        "\nenclave cell at n={cell_degree}: decrypt_slots {} ns; encrypt_slots public-key {} ns \
         vs secret-key {} ns — {:.2}x; RNS decrypt == U256 reference: {}; symmetric \
         round-trip exact: {}",
        cell.decrypt_slots_ns,
        cell.encrypt_public_ns,
        cell.encrypt_secret_ns,
        cell.encrypt_public_ns as f64 / cell.encrypt_secret_ns.max(1) as f64,
        cell.rns_decrypt_matches_u256,
        cell.symmetric_roundtrip_exact
    );

    // Full artifact: wall times included (informative, not replay-stable).
    let mut json = String::from("{\"experiment\":\"ntt_bench\",");
    let _ = write!(json, "\"reps\":{reps},\"tiers\":[");
    for (i, t) in tiers.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"n\":{},\"p\":{},\"forward\":{{\"optimized_ns\":{},\"reference_ns\":{}}},\
             \"inverse\":{{\"optimized_ns\":{},\"reference_ns\":{}}},\
             \"negacyclic_multiply\":{{\"optimized_ns\":{},\"reference_ns\":{}}},\
             \"product_checksum\":{}}}",
            t.n,
            t.p,
            t.forward.optimized_ns,
            t.forward.reference_ns,
            t.inverse.optimized_ns,
            t.inverse.reference_ns,
            t.negacyclic.optimized_ns,
            t.negacyclic.reference_ns,
            t.product_checksum
        );
    }
    let _ = write!(
        json,
        "],\"conv_layer\":{{\"poly_degree\":{poly_degree},\"batch\":{},\"cached_ns\":{},\
         \"uncached_ns\":{},\"cells_match\":{conv_cells_match},\
         \"uncached_weight_prep\":{}}},\"coeff_conv_ns\":{},\"dense_fc_ns\":{},\
         \"enclave_cell\":{{\"poly_degree\":{cell_degree},\
         \"decrypt_slots_ns\":{},\"encrypt_slots_public_ns\":{},\
         \"encrypt_slots_secret_ns\":{}}}}}",
        crate::PAPER_BATCH_SIZE,
        conv.optimized_ns,
        conv.reference_ns,
        oracle_ops.weight_prep,
        coeff_conv.kernel_ns,
        dense_fc.kernel_ns,
        cell.decrypt_slots_ns,
        cell.encrypt_public_ns,
        cell.encrypt_secret_ns
    );
    if let Some(path) = crate::write_bench_file("BENCH_ntt.json", &json) {
        println!("bench table written to {}", path.display());
    }

    // Deterministic artifact: everything here is a pure function of the
    // seeds — CI runs the experiment twice and byte-diffs this file.
    let mut det = String::from("{\"experiment\":\"ntt_bench\",\"tiers\":[");
    for (i, t) in tiers.iter().enumerate() {
        if i > 0 {
            det.push(',');
        }
        let _ = write!(
            det,
            "{{\"n\":{},\"p\":{},\"product_checksum\":{}}}",
            t.n, t.p, t.product_checksum
        );
    }
    let ops = &oracle_ops;
    let _ = write!(
        det,
        "],\"lazy_matches_reference\":true,\"conv_layer\":{{\"poly_degree\":{poly_degree},\
         \"batch\":{},\"cells_match\":{conv_cells_match},\
         \"cached_weight_prep\":{},\"uncached_weight_prep\":{},\
         \"ct_pt_mul\":{},\"ct_pt_add\":{},\"ct_ct_add\":{}}},\
         \"coeff_conv\":{{\"poly_degree\":{},\"batch\":{},\"matches_plain\":{},\
         \"ct_pt_mul\":{},\"ct_pt_add\":{},\"ct_ct_add\":{}}},\
         \"dense_fc\":{{\"poly_degree\":{},\"batch\":{},\"matches_plain\":{},\
         \"operand_cells\":{},\"ct_pt_mul\":{},\"sum_cells\":{},\
         \"ct_pt_add\":{},\"ct_ct_add\":{}}},\
         \"enclave_cell\":{{\"poly_degree\":{cell_degree},\
         \"rns_decrypt_matches_u256\":{},\"symmetric_roundtrip_exact\":{}}}}}",
        crate::PAPER_BATCH_SIZE,
        kernel_ops.weight_prep,
        ops.weight_prep,
        ops.ct_pt_mul,
        ops.ct_pt_add,
        ops.ct_ct_add,
        crate::PAPER_POLY_DEGREE,
        crate::PAPER_BATCH_SIZE,
        coeff_conv.matches_plain,
        coeff_conv.ops.ct_pt_mul,
        coeff_conv.ops.ct_pt_add,
        coeff_conv.ops.ct_ct_add,
        crate::PAPER_POLY_DEGREE,
        crate::PAPER_BATCH_SIZE,
        dense_fc.matches_plain,
        dense_fc.operand_cells,
        dense_fc.ops.ct_pt_mul,
        dense_fc.sum_cells,
        dense_fc.ops.ct_pt_add,
        dense_fc.ops.ct_ct_add,
        cell.rns_decrypt_matches_u256,
        cell.symmetric_roundtrip_exact
    );
    if let Some(path) = crate::write_bench_file("BENCH_ntt.deterministic.json", &det) {
        println!("deterministic table written to {}", path.display());
    }
}
