//! Criterion micro-benchmarks for the operations behind Tables I-V.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hesgx_bench::experiments::figures::scale_stub;
use hesgx_bench::{PaperEnv, PAPER_BATCH_SIZE};
use hesgx_bfv::prelude::KeyGenerator;
use hesgx_core::planner::{EcallBatching, EnclaveOp};
use hesgx_henn::crt::Encoding;
use hesgx_henn::image::{EncryptedMap, Layout};
use hesgx_henn::par::ParExec;
use std::hint::black_box;

fn bench_keygen(c: &mut Criterion) {
    let env = PaperEnv::new(1);
    let ctx = env.sys.contexts()[0].clone();
    let mut rng = env.rng.fork("bench-keygen");
    c.bench_function("table1/keygen_outside", |b| {
        b.iter(|| black_box(KeyGenerator::new(ctx.clone(), &mut rng)))
    });
    let enclave = env.build_enclave("bench-keygen", false);
    c.bench_function("table1/keygen_inside_sgx", |b| {
        b.iter(|| {
            let (kg, cost) = enclave.ecall("ecall_generate_key", 0, 2048, |_| {
                KeyGenerator::new(ctx.clone(), &mut rng)
            });
            black_box((kg, cost.total_ns()))
        })
    });
}

fn bench_image_encryption(c: &mut Criterion) {
    let env = PaperEnv::new(2);
    let rng = env.rng.fork("bench-enc");
    let images: Vec<Vec<i64>> = (0..PAPER_BATCH_SIZE)
        .map(|b| (0..784).map(|p| ((p + b) % 16) as i64).collect())
        .collect();
    let mut group = c.benchmark_group("table2");
    group.sample_size(10);
    group.bench_function("encrypt_10_images", |b| {
        b.iter(|| {
            black_box(
                EncryptedMap::encrypt_images(
                    &env.sys,
                    &images,
                    28,
                    Layout::Pixel,
                    &env.keys.public,
                    &rng,
                    &ParExec::serial(),
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_result_decryption(c: &mut Criterion) {
    let env = PaperEnv::new(3);
    let mut rng = env.rng.fork("bench-dec");
    let ct = env
        .sys
        .encrypt(
            &[9; PAPER_BATCH_SIZE],
            Encoding::Slots,
            &env.keys.public,
            &mut rng,
        )
        .unwrap();
    c.bench_function("table3/decrypt_one_result", |b| {
        b.iter(|| {
            black_box(
                env.sys
                    .decrypt(&ct, Encoding::Slots, &env.keys.secret)
                    .unwrap(),
            )
        })
    });
}

fn bench_relinearization(c: &mut Criterion) {
    let env = PaperEnv::new(4);
    let mut rng = env.rng.fork("bench-relin");
    let fresh = env
        .sys
        .encrypt(
            &[7; PAPER_BATCH_SIZE],
            Encoding::Slots,
            &env.keys.public,
            &mut rng,
        )
        .unwrap();
    let size3 = env.sys.square(&fresh).unwrap();
    c.bench_function("table5/relinearize", |b| {
        b.iter(|| black_box(env.sys.relinearize(&size3, &env.keys.evaluation).unwrap()))
    });
    let ie = env.inference_enclave(false);
    let (model, serial) = (scale_stub(2), ParExec::serial());
    let refresh = |cts: Vec<_>| {
        let map = EncryptedMap::new(cts.len(), 1, 1, cts);
        ie.apply(
            &[EnclaveOp::Refresh],
            &env.sys,
            &model,
            &map,
            EcallBatching::Batched,
            Layout::Pixel,
            &serial,
        )
        .unwrap()
    };
    c.bench_function("table5/sgx_noise_reduction", |b| {
        b.iter_batched(
            || vec![size3.clone()],
            |one| black_box(refresh(one)),
            BatchSize::SmallInput,
        )
    });
    let mut group = c.benchmark_group("table5");
    group.sample_size(10);
    group.bench_function("sgx_noise_reduction_batched_10", |b| {
        b.iter_batched(
            || vec![size3.clone(); PAPER_BATCH_SIZE],
            |batch| black_box(refresh(batch)),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    tables,
    bench_keygen,
    bench_image_encryption,
    bench_result_decryption,
    bench_relinearization
);
criterion_main!(tables);
