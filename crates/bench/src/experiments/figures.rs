//! Figures 3–6: weight encoding, homomorphic convolution vs kernel size,
//! sigmoid with/without SGX, pooling with/without SGX.

use super::{header, RunConfig};
use crate::stats::linear_fit;
use crate::PaperEnv;
use hesgx_core::planner::{EcallBatching, EnclaveOp};
use hesgx_core::InferenceEnclave;
use hesgx_henn::crt::CrtPlainSystem;
use hesgx_henn::image::{EncryptedMap, Layout};
use hesgx_henn::ops::{self, OpCounter};
use hesgx_henn::par::ParExec;
use hesgx_henn::weights::{conv_weight_count, WeightBank};
use hesgx_nn::layers::ActivationKind;
use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};
use std::time::Instant;

/// A model stub supplying the quantization scales the enclave operators need
/// (the figure sweeps exercise single operators, not a trained model).
pub fn scale_stub(window: usize) -> QuantizedCnn {
    QuantizedCnn {
        pipeline: QuantPipeline::Hybrid,
        in_side: 28,
        conv_out: 1,
        kernel: 5,
        window,
        classes: 10,
        conv_weights: vec![1; 25],
        conv_bias: vec![0],
        fc_weights: vec![1; 10 * 144],
        fc_bias: vec![0; 10],
        weight_scale: 16,
        fc_scale: 32,
        act_scale: 16,
    }
}

/// Virtual time (ms) of `op` over `map` in one batched ECALL.
fn enclave_ms(
    enclave: &InferenceEnclave,
    sys: &CrtPlainSystem,
    model: &QuantizedCnn,
    op: EnclaveOp,
    map: &EncryptedMap,
) -> f64 {
    let serial = ParExec::serial();
    let (batched, emit) = (EcallBatching::Batched, Layout::Pixel);
    let (_, cost) = enclave
        .apply(&[op], sys, model, map, batched, emit, &serial)
        .unwrap();
    cost.total_ns() as f64 / 1e6
}

/// One Fig. 3 measurement point.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Point {
    /// Number of operands prepared: `kernels·k²` weights plus `kernels`
    /// biases ([`conv_weight_count`]).
    pub weights: usize,
    /// Preparation time in ms.
    pub ms: f64,
}

/// Fig. 3 result: the two fixed-kernel sweeps and the joint sweep, plus the
/// linearity of each (R² of a least-squares line).
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// Fixed 11 kernels, kernel size sweep.
    pub kernels_11: Vec<Fig3Point>,
    /// Fixed 26 kernels, kernel size sweep.
    pub kernels_26: Vec<Fig3Point>,
    /// Joint sweep (kernel count and size grow together).
    pub joint: Vec<Fig3Point>,
    /// R² values for the three sweeps.
    pub r2: (f64, f64, f64),
}

/// Fig. 3 — "The time of weights coding against its number". The paper
/// timed SEAL 2.1's encoder; this times [`WeightBank::prepare`], the
/// once-per-model operand preparation every served convolution consumes.
pub fn fig3_weight_encoding(env: &mut PaperEnv, cfg: RunConfig) -> Fig3 {
    header("FIG 3: weight-encoding time vs number of weights");
    let reps = cfg.reps(40);
    let run_sweep = |label: &str, configs: &[(usize, usize)]| -> Vec<Fig3Point> {
        let mut points = Vec::new();
        for &(kernels, side) in configs {
            let operand = |i: usize| (i as i64 % 63) - 31;
            let weights: Vec<i64> = (0..kernels * side * side).map(operand).collect();
            let biases: Vec<i64> = (0..kernels).map(operand).collect();
            let prepare = || WeightBank::prepare(&env.sys, &weights, &biases).unwrap();
            let mut bank = prepare();
            // Median over repetitions — robust against host scheduling spikes.
            // Each rep frees the previous bank only after building the next,
            // so every size is timed on a heap that already holds it. Freed
            // first, the allocator returns the heap to the OS and faults it
            // back in at some sizes and not others (glibc's adaptive trim
            // threshold), which bends the joint sweep off its line.
            let mut samples = Vec::with_capacity(reps);
            for _ in 0..reps {
                let start = Instant::now();
                let next = prepare();
                samples.push(start.elapsed().as_secs_f64() * 1e3);
                bank = next;
            }
            drop(bank);
            samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let ms = samples[samples.len() / 2];
            let weights = conv_weight_count(kernels, side);
            points.push(Fig3Point { weights, ms });
        }
        println!("{label}:");
        for p in &points {
            println!("  {:6} weights -> {:8.3} ms", p.weights, p.ms);
        }
        points
    };

    let sizes: &[usize] = if cfg.quick {
        &[2, 4, 6, 8]
    } else {
        &[1, 2, 3, 4, 5, 6, 7, 8]
    };
    let cfg11: Vec<(usize, usize)> = sizes.iter().map(|&s| (11, s)).collect();
    let cfg26: Vec<(usize, usize)> = sizes.iter().map(|&s| (26, s)).collect();
    let joint: Vec<(usize, usize)> = sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| (5 + 10 * i, s * 2))
        .collect();

    let kernels_11 = run_sweep("(a) 11 kernels, kernel size sweep", &cfg11);
    let kernels_26 = run_sweep("(a) 26 kernels, kernel size sweep", &cfg26);
    let joint = run_sweep("(b) joint kernel count + size sweep", &joint);

    let fit = |pts: &[Fig3Point]| {
        linear_fit(
            &pts.iter()
                .map(|p| (p.weights as f64, p.ms))
                .collect::<Vec<_>>(),
        )
        .2
    };
    let r2 = (fit(&kernels_11), fit(&kernels_26), fit(&joint));
    println!("linearity (paper: encoding time linear in weight count):");
    println!("  R² (a) 11 kernels = {:.4}", r2.0);
    println!("  R² (a) 26 kernels = {:.4}", r2.1);
    println!("  R² (b) joint      = {:.4}", r2.2);
    Fig3 {
        kernels_11,
        kernels_26,
        joint,
        r2,
    }
}

/// One Fig. 4 measurement point.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Point {
    /// Kernel side length.
    pub kernel: usize,
    /// `C×P` (= `C+C`+outputs) operation count.
    pub ops: u64,
    /// Convolution time in ms.
    pub ms: f64,
}

/// Fig. 4 — homomorphic convolution time and operation count vs kernel size
/// on a 28×28 feature map. Times the raw-weight reference oracle: the paper's
/// textbook loop, weight preparation included.
pub fn fig4_conv_kernel(env: &mut PaperEnv, cfg: RunConfig) -> Vec<Fig4Point> {
    header("FIG 4: homomorphic convolution time vs kernel size (28x28 map, stride 1)");
    let kernels: Vec<usize> = if cfg.quick {
        vec![1, 2, 4, 8, 14, 15, 20, 24, 28]
    } else {
        (1..=28).collect()
    };
    let rng = env.rng.fork("fig4");
    let images = vec![(0..784).map(|p| (p % 16) as i64).collect::<Vec<i64>>()];
    let input = EncryptedMap::encrypt_images(
        &env.sys,
        &images,
        28,
        Layout::Pixel,
        &env.keys.public,
        &rng,
        &ParExec::serial(),
    )
    .unwrap();
    let mut points = Vec::new();
    println!("kernel   C×P / C+C ops    time (ms)");
    for &k in &kernels {
        let weights: Vec<i64> = (0..k * k).map(|i| (i as i64 % 5) - 2).collect();
        let mut counter = OpCounter::default();
        let start = Instant::now();
        let _ = ops::he_conv2d_reference(&env.sys, &input, &weights, &[0], 1, (k, k), &mut counter)
            .unwrap();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let theoretical = OpCounter::conv_theoretical(28, k);
        assert_eq!(counter.ct_pt_mul, theoretical, "op count mismatch");
        println!("{k:6}   {theoretical:13}    {ms:9.3}");
        points.push(Fig4Point {
            kernel: k,
            ops: theoretical,
            ms,
        });
    }
    // Shape checks from the paper.
    let p1 = points.iter().find(|p| p.kernel == 1).unwrap();
    let p28 = points.iter().find(|p| p.kernel == 28);
    if let Some(p28) = p28 {
        println!(
            "k=1 vs k=28 (same op count {}): {:.3} ms vs {:.3} ms — small kernel pays {:.2}x loop overhead (paper: 16.66x of the k=28 time)",
            p1.ops, p1.ms, p28.ms, p1.ms / p28.ms
        );
    }
    points
}

/// One Fig. 5 measurement point.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Point {
    /// Feature-map side length (calculations = side²).
    pub side: usize,
    /// Square+relinearize under HE (`EncryptSigmoid`), ms.
    pub encrypt_ms: f64,
    /// Exact sigmoid inside SGX (virtual time), ms.
    pub sgx_ms: f64,
    /// Same code outside (`FakeSGXSigmoid`), ms.
    pub fake_ms: f64,
}

/// Fig. 5 — "Sigmoid computing time with/without SGX".
pub fn fig5_sigmoid(env: &mut PaperEnv, cfg: RunConfig) -> Vec<Fig5Point> {
    header("FIG 5: sigmoid computing time with/without SGX");
    let sides: Vec<usize> = if cfg.quick {
        vec![8, 16, 24]
    } else {
        vec![4, 8, 12, 16, 20, 24]
    };
    let model = scale_stub(2);
    let real = env.inference_enclave(false);
    let fake = env.inference_enclave(true);
    let serial = ParExec::serial();
    let rng = env.rng.fork("fig5");
    let mut points = Vec::new();
    println!("map side   cells   EncryptSigmoid(ms)   SGXSigmoid(ms)   FakeSGXSigmoid(ms)");
    for &side in &sides {
        let images = vec![(0..side * side)
            .map(|p| (p as i64 % 41) - 20)
            .collect::<Vec<i64>>()];
        let input = EncryptedMap::encrypt_images(
            &env.sys,
            &images,
            side,
            Layout::Pixel,
            &env.keys.public,
            &rng,
            &serial,
        )
        .unwrap();

        // EncryptSigmoid: the HE pipeline's square + relinearization.
        let start = Instant::now();
        let mut counter = OpCounter::default();
        let _ = ops::he_square_activation(
            &env.sys,
            &input,
            &env.keys.evaluation,
            &mut counter,
            &serial,
        )
        .unwrap();
        let encrypt_ms = start.elapsed().as_secs_f64() * 1e3;

        // SGXSigmoid: exact sigmoid, batched ECALL, virtual time.
        let sigmoid = EnclaveOp::Activation(ActivationKind::Sigmoid);
        let sgx_ms = enclave_ms(&real, &env.sys, &model, sigmoid, &input);
        // FakeSGXSigmoid: same code, zero-overhead model.
        let fake_ms = enclave_ms(&fake, &env.sys, &model, sigmoid, &input);

        println!(
            "{side:8}   {:5}   {encrypt_ms:18.3}   {sgx_ms:14.3}   {fake_ms:18.3}",
            side * side
        );
        points.push(Fig5Point {
            side,
            encrypt_ms,
            sgx_ms,
            fake_ms,
        });
    }
    let ordered = points
        .iter()
        .all(|p| p.encrypt_ms > p.sgx_ms && p.sgx_ms > p.fake_ms);
    println!(
        "shape check — EncryptSigmoid > SGXSigmoid > FakeSGXSigmoid at every size: {ordered} (paper: same ordering)"
    );
    points
}

/// One Fig. 6 measurement point.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Point {
    /// Pooling window side.
    pub window: usize,
    /// HE window-sum time (`EncryptedSum`), ms.
    pub encrypted_sum_ms: f64,
    /// In-enclave division on the reduced map (`SGXDivide`), virtual ms.
    pub sgx_divide_ms: f64,
    /// Same division outside (`FakeSGXDivide`), ms.
    pub fake_divide_ms: f64,
    /// Whole map pooled inside (`SGXPool`), virtual ms.
    pub sgx_pool_ms: f64,
    /// Same pooling outside (`FakeSGXPool`), ms.
    pub fake_pool_ms: f64,
}

impl Fig6Point {
    /// Total `SGXDiv` strategy time (sum outside + divide inside).
    pub fn sgx_div_total(&self) -> f64 {
        self.encrypted_sum_ms + self.sgx_divide_ms
    }
}

/// Fig. 6 — "Pool computing time with/without SGX" on a 24×24 feature map.
pub fn fig6_pooling(env: &mut PaperEnv, _cfg: RunConfig) -> Vec<Fig6Point> {
    header("FIG 6: pooling time with/without SGX (24x24 input feature map)");
    let windows = [2usize, 3, 4, 6, 8, 12];
    let real = env.inference_enclave(false);
    let fake = env.inference_enclave(true);
    let serial = ParExec::serial();
    let rng = env.rng.fork("fig6");
    let images = vec![(0..576).map(|p| (p % 17) as i64).collect::<Vec<i64>>()];
    let input = EncryptedMap::encrypt_images(
        &env.sys,
        &images,
        24,
        Layout::Pixel,
        &env.keys.public,
        &rng,
        &serial,
    )
    .unwrap();
    let mut points = Vec::new();
    println!("window   EncSum(ms)  SGXDivide  FakeSGXDivide  SGXDiv(total)  SGXPool  FakeSGXPool");
    for &w in &windows {
        let model = scale_stub(w);

        let start = Instant::now();
        let mut counter = OpCounter::default();
        let summed = ops::he_scaled_mean_pool(&env.sys, &input, w, &mut counter, &serial).unwrap();
        let encrypted_sum_ms = start.elapsed().as_secs_f64() * 1e3;

        let sgx_divide_ms = enclave_ms(&real, &env.sys, &model, EnclaveOp::Divide, &summed);
        let fake_divide_ms = enclave_ms(&fake, &env.sys, &model, EnclaveOp::Divide, &summed);
        let sgx_pool_ms = enclave_ms(&real, &env.sys, &model, EnclaveOp::MeanPool, &input);
        let fake_pool_ms = enclave_ms(&fake, &env.sys, &model, EnclaveOp::MeanPool, &input);

        let p = Fig6Point {
            window: w,
            encrypted_sum_ms,
            sgx_divide_ms,
            fake_divide_ms,
            sgx_pool_ms,
            fake_pool_ms,
        };
        println!(
            "{:6}   {:9.3}  {:9.3}  {:13.3}  {:13.3}  {:7.3}  {:11.3}",
            w,
            p.encrypted_sum_ms,
            p.sgx_divide_ms,
            p.fake_divide_ms,
            p.sgx_div_total(),
            p.sgx_pool_ms,
            p.fake_pool_ms
        );
        points.push(p);
    }
    // Shape checks.
    let first = points.first().unwrap();
    let last = points.last().unwrap();
    println!(
        "SGXDiv advantage grows with window: gap(w=2) = {:.3} ms, gap(w=12) = {:.3} ms (paper: SGXDiv wins for window ≥ 3)",
        first.sgx_pool_ms - first.sgx_div_total(),
        last.sgx_pool_ms - last.sgx_div_total()
    );
    println!(
        "SGXDivide -> FakeSGXDivide gap shrinks with window: {:.3} ms (w=2) vs {:.3} ms (w=12)",
        first.sgx_divide_ms - first.fake_divide_ms,
        last.sgx_divide_ms - last.fake_divide_ms
    );
    points
}
