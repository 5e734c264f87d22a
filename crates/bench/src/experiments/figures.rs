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
pub(crate) fn scale_stub(window: usize) -> QuantizedCnn {
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

/// Fig. 3 — "The time of weights coding against its number". The paper
/// timed SEAL 2.1's encoder; this times [`WeightBank::prepare`], the
/// once-per-model operand preparation every served convolution consumes.
pub fn fig3_weight_encoding(env: &mut PaperEnv, cfg: RunConfig) {
    header("FIG 3: weight-encoding time vs number of weights");
    let reps = cfg.reps(40);
    // Each point: operands prepared (`kernels·k²` weights plus `kernels`
    // biases, `conv_weight_count`) and the median preparation ms.
    let run_sweep = |label: &str, configs: &[(usize, usize)]| -> Vec<(f64, f64)> {
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
            points.push((conv_weight_count(kernels, side) as f64, ms));
        }
        println!("{label}:");
        for (weights, ms) in &points {
            println!("  {weights:6} weights -> {ms:8.3} ms");
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

    println!("linearity (paper: encoding time linear in weight count):");
    println!("  R² (a) 11 kernels = {:.4}", linear_fit(&kernels_11).2);
    println!("  R² (a) 26 kernels = {:.4}", linear_fit(&kernels_26).2);
    println!("  R² (b) joint      = {:.4}", linear_fit(&joint).2);
}

/// Fig. 4 — homomorphic convolution time and operation count vs kernel size
/// on a 28×28 feature map. Times the raw-weight reference oracle: the paper's
/// textbook loop, weight preparation included.
pub fn fig4_conv_kernel(env: &mut PaperEnv, cfg: RunConfig) {
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
    // `(ops, ms)` at k = 1 and k = 28, which share an op count.
    let mut ends = Vec::new();
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
        if k == 1 || k == 28 {
            ends.push((theoretical, ms));
        }
    }
    // Shape check from the paper.
    if let [(ops, ms1), (_, ms28)] = ends[..] {
        println!(
            "k=1 vs k=28 (same op count {ops}): {ms1:.3} ms vs {ms28:.3} ms — small kernel pays {:.2}x loop overhead (paper: 16.66x of the k=28 time)",
            ms1 / ms28
        );
    }
}

/// Fig. 5 — "Sigmoid computing time with/without SGX".
pub fn fig5_sigmoid(env: &mut PaperEnv, cfg: RunConfig) {
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
    let mut ordered = true;
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
        ordered &= encrypt_ms > sgx_ms && sgx_ms > fake_ms;
    }
    println!(
        "shape check — EncryptSigmoid > SGXSigmoid > FakeSGXSigmoid at every size: {ordered} (paper: same ordering)"
    );
}

/// One Fig. 6 measurement point, ms (the enclave ones virtual).
struct Fig6Point {
    /// HE window-sum time (`EncryptedSum`).
    encrypted_sum_ms: f64,
    /// In-enclave division on the reduced map (`SGXDivide`).
    sgx_divide_ms: f64,
    /// Same division outside (`FakeSGXDivide`).
    fake_divide_ms: f64,
    /// Whole map pooled inside (`SGXPool`).
    sgx_pool_ms: f64,
}

impl Fig6Point {
    /// Total `SGXDiv` strategy time (sum outside + divide inside).
    fn sgx_div_total(&self) -> f64 {
        self.encrypted_sum_ms + self.sgx_divide_ms
    }
}

/// Fig. 6 — "Pool computing time with/without SGX" on a 24×24 feature map.
pub fn fig6_pooling(env: &mut PaperEnv, _cfg: RunConfig) {
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
            encrypted_sum_ms,
            sgx_divide_ms,
            fake_divide_ms,
            sgx_pool_ms,
        };
        println!(
            "{:6}   {:9.3}  {:9.3}  {:13.3}  {:13.3}  {:7.3}  {:11.3}",
            w,
            p.encrypted_sum_ms,
            p.sgx_divide_ms,
            p.fake_divide_ms,
            p.sgx_div_total(),
            p.sgx_pool_ms,
            fake_pool_ms
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
}
