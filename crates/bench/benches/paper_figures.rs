//! Criterion micro-benchmarks for the workloads behind Figures 3-6 and the
//! per-layer pieces of Figure 8.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hesgx_bench::experiments::figures::scale_stub;
use hesgx_bench::PaperEnv;
use hesgx_core::planner::{EcallBatching, EnclaveOp};
use hesgx_henn::image::{EncryptedMap, Layout};
use hesgx_henn::ops::{self, OpCounter};
use hesgx_henn::par::ParExec;
use hesgx_henn::weights::WeightBank;
use hesgx_nn::layers::ActivationKind;
use std::hint::black_box;

fn bench_weight_encoding(c: &mut Criterion) {
    let env = PaperEnv::new(11);
    let mut group = c.benchmark_group("fig3/weight_encoding");
    for kernels in [11usize, 26] {
        let operand = |i: usize| (i as i64 % 63) - 31;
        let weights: Vec<i64> = (0..kernels * 25).map(operand).collect();
        let biases: Vec<i64> = (0..kernels).map(operand).collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{kernels}kernels_5x5")),
            &(weights, biases),
            |b, (w, bias)| b.iter(|| black_box(WeightBank::prepare(&env.sys, w, bias).unwrap())),
        );
    }
    group.finish();
}

fn bench_conv_kernel(c: &mut Criterion) {
    let env = PaperEnv::new(12);
    let rng = env.rng.fork("bench-conv");
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
    let mut group = c.benchmark_group("fig4/he_conv_28x28");
    group.sample_size(10);
    for k in [1usize, 5, 14, 28] {
        let weights: Vec<i64> = (0..k * k).map(|i| (i as i64 % 5) - 2).collect();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                let mut counter = OpCounter::default();
                black_box(
                    ops::he_conv2d_reference(
                        &env.sys,
                        &input,
                        &weights,
                        &[0],
                        1,
                        (k, k),
                        &mut counter,
                    )
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_sigmoid_variants(c: &mut Criterion) {
    let env = PaperEnv::new(13);
    let rng = env.rng.fork("bench-sigmoid");
    let side = 12;
    let images = vec![(0..side * side)
        .map(|p| (p as i64 % 31) - 15)
        .collect::<Vec<i64>>()];
    let input = EncryptedMap::encrypt_images(
        &env.sys,
        &images,
        side,
        Layout::Pixel,
        &env.keys.public,
        &rng,
        &ParExec::serial(),
    )
    .unwrap();
    let model = scale_stub(2);
    let real = env.inference_enclave(false);
    let fake = env.inference_enclave(true);
    let serial = ParExec::serial();
    let (sigmoid, batched) = (
        EnclaveOp::Activation(ActivationKind::Sigmoid),
        EcallBatching::Batched,
    );
    let mut group = c.benchmark_group("fig5/sigmoid_12x12");
    group.sample_size(10);
    group.bench_function("encrypt_sigmoid_square_relin", |b| {
        b.iter(|| {
            let mut counter = OpCounter::default();
            black_box(
                ops::he_square_activation(
                    &env.sys,
                    &input,
                    &env.keys.evaluation,
                    &mut counter,
                    &serial,
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("sgx_sigmoid", |b| {
        b.iter(|| {
            black_box(
                real.apply(
                    &[sigmoid],
                    &env.sys,
                    &model,
                    &input,
                    batched,
                    Layout::Pixel,
                    &serial,
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("fake_sgx_sigmoid", |b| {
        b.iter(|| {
            black_box(
                fake.apply(
                    &[sigmoid],
                    &env.sys,
                    &model,
                    &input,
                    batched,
                    Layout::Pixel,
                    &serial,
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_pooling_variants(c: &mut Criterion) {
    let env = PaperEnv::new(14);
    let rng = env.rng.fork("bench-pool");
    let images = vec![(0..576).map(|p| (p % 17) as i64).collect::<Vec<i64>>()];
    let input = EncryptedMap::encrypt_images(
        &env.sys,
        &images,
        24,
        Layout::Pixel,
        &env.keys.public,
        &rng,
        &ParExec::serial(),
    )
    .unwrap();
    let real = env.inference_enclave(false);
    let (serial, batched) = (ParExec::serial(), EcallBatching::Batched);
    let mut group = c.benchmark_group("fig6/pooling_24x24");
    group.sample_size(10);
    for window in [2usize, 4, 8] {
        let model = scale_stub(window);
        group.bench_with_input(
            BenchmarkId::new("sgx_div", window),
            &window,
            |b, &window| {
                b.iter(|| {
                    let mut counter = OpCounter::default();
                    let summed =
                        ops::he_scaled_mean_pool(&env.sys, &input, window, &mut counter, &serial)
                            .unwrap();
                    black_box(
                        real.apply(
                            &[EnclaveOp::Divide],
                            &env.sys,
                            &model,
                            &summed,
                            batched,
                            Layout::Pixel,
                            &serial,
                        )
                        .unwrap(),
                    )
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("sgx_pool", window), &window, |b, _| {
            b.iter(|| {
                black_box(
                    real.apply(
                        &[EnclaveOp::MeanPool],
                        &env.sys,
                        &model,
                        &input,
                        batched,
                        Layout::Pixel,
                        &serial,
                    )
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    figures,
    bench_weight_encoding,
    bench_conv_kernel,
    bench_sigmoid_variants,
    bench_pooling_variants
);
criterion_main!(figures);
