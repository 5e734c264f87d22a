//! Micro-timings of single public primitives of the `bfv`, `crypto`, `tee`
//! and `serve` layers: the median of repeated calls, taken in the traced
//! run after the workload. They say which kernel a layer-level change
//! moved; none of them is an end-to-end number.

use crate::stats::median;
use hesgx_bfv::ntt::NttTable;
use hesgx_bfv::prelude::{
    presets, BfvContext, Decryptor, Encryptor, Evaluator, KeyGenerator, Plaintext,
};
use hesgx_core::request::InferRequest;
use hesgx_crypto::rng::ChaChaRng;
use hesgx_crypto::transcipher::{open_images, seal_images, IngressKey};
use hesgx_serve::{AdmissionQueue, BrokerConfig, Pending};
use hesgx_tee::enclave::{EnclaveBuilder, Platform};
use std::hint::black_box;
use std::time::Instant;

const CALLS: usize = 200;

/// Median nanoseconds of `calls` calls of `f`.
fn median_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..calls)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Runs every micro-timing. Returns the values by metric name, or the
/// first primitive whose output was wrong.
pub fn run(seed: u64) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    let mut rng = ChaChaRng::from_seed(seed).fork("benchmark-micro");

    // bfv at the paper's parameters (n = 1024).
    let params = presets::paper_n1024();
    let (n, p, t) = (
        params.poly_degree(),
        params.coeff_moduli()[0],
        params.plain_modulus(),
    );
    let table = NttTable::new(n, p);
    let poly: Vec<u64> = (0..n).map(|_| rng.next_below(p)).collect();
    let mut values = poly.clone();
    out.push((
        "bfv.ntt_forward_ns",
        median_ns(CALLS, || table.forward(black_box(&mut values))),
    ));
    values.copy_from_slice(&poly);
    table.forward(&mut values);
    let evaluated = values.clone();
    out.push((
        "bfv.ntt_inverse_ns",
        median_ns(CALLS, || {
            values.copy_from_slice(&evaluated);
            table.inverse(black_box(&mut values));
        }),
    ));
    if values != poly {
        return Err("bfv: inverse NTT of forward NTT is not the identity".into());
    }

    let ctx = BfvContext::new(params).map_err(|e| format!("bfv context: {e}"))?;
    let keygen = KeyGenerator::new(ctx.clone(), &mut rng);
    let encryptor = Encryptor::new(ctx.clone(), keygen.public_key());
    let decryptor = Decryptor::new(ctx.clone(), keygen.secret_key());
    let evaluator = Evaluator::new(ctx.clone());
    let relin_keys = keygen.evaluation_keys(&mut rng);
    let message = Plaintext::from_coeffs((0..n).map(|_| rng.next_below(t)).collect());
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("bfv {what}: {e}");

    let mut ct = encryptor
        .encrypt(&message, &mut rng)
        .map_err(|e| fail("encrypt", &e))?;
    out.push((
        "bfv.encrypt_us",
        median_ns(CALLS, || {
            ct = encryptor
                .encrypt(&message, &mut rng)
                .expect("encrypted once");
        }) / 1e3,
    ));
    let mut decrypted = decryptor.decrypt(&ct).map_err(|e| fail("decrypt", &e))?;
    out.push((
        "bfv.decrypt_us",
        median_ns(CALLS, || {
            decrypted = decryptor.decrypt(&ct).expect("decrypted once");
        }) / 1e3,
    ));
    if decrypted.coeffs()[..message.significant_len()]
        != message.coeffs()[..message.significant_len()]
    {
        return Err("bfv: decrypt(encrypt(m)) differs from m".into());
    }
    let weight = evaluator
        .transform_plain_to_ntt(&Plaintext::constant(3))
        .map_err(|e| fail("transform_plain_to_ntt", &e))?;
    out.push((
        "bfv.mul_plain_ntt_us",
        median_ns(CALLS, || {
            black_box(
                evaluator
                    .mul_plain_ntt(&ct, &weight)
                    .expect("valid operands"),
            );
        }) / 1e3,
    ));
    let mut squared = evaluator.square(&ct).map_err(|e| fail("square", &e))?;
    out.push((
        "bfv.square_us",
        median_ns(CALLS / 4, || {
            squared = evaluator.square(&ct).expect("squared once");
        }) / 1e3,
    ));
    out.push((
        "bfv.relinearize_us",
        median_ns(CALLS / 4, || {
            black_box(
                evaluator
                    .relinearize(&squared, &relin_keys)
                    .expect("valid operands"),
            );
        }) / 1e3,
    ));

    // crypto: the transciphered payload of one fig8 request (10 x 784).
    let key = IngressKey::derive(b"benchmark-salt", b"benchmark-ikm", b"benchmark");
    let images: Vec<Vec<i64>> = (0..10)
        .map(|_| (0..784).map(|_| rng.next_below(16) as i64).collect())
        .collect();
    let nonce = [7u8; 12];
    let mut payload = seal_images(&key, &nonce, &images).map_err(|e| format!("seal: {e}"))?;
    out.push((
        "crypto.transcipher_seal_us",
        median_ns(CALLS, || {
            payload = seal_images(&key, &nonce, &images).expect("sealed once");
        }) / 1e3,
    ));
    let mut opened = open_images(&key, &payload).map_err(|e| format!("open: {e}"))?;
    out.push((
        "crypto.transcipher_open_us",
        median_ns(CALLS, || {
            opened = open_images(&key, &payload).expect("opened once");
        }) / 1e3,
    ));
    if opened != images {
        return Err("crypto: open_images(seal_images(x)) differs from x".into());
    }
    let mut buffer = vec![0u8; 1 << 20];
    let fill_ns = median_ns(20, || rng.fill_bytes(black_box(&mut buffer)));
    out.push(("crypto.rng_fill_mib_s", 1e9 / fill_ns));

    // tee: one boundary crossing with nothing inside.
    let enclave = EnclaveBuilder::new("benchmark-empty")
        .seed(seed)
        .build(Platform::new(seed));
    out.push((
        "tee.ecall_empty_ns",
        median_ns(10 * CALLS, || {
            black_box(enclave.ecall("empty", 0, 0, |_| ()));
        }),
    ));

    // serve: admission plus DRR batch selection, per request, at the
    // broker_12 shape (batches of 8 one-image requests, 3 tenants).
    let config = BrokerConfig::new();
    let mut queue = AdmissionQueue::new(64, config.quantum);
    let pending: Vec<Pending> = (0..8u64)
        .map(|id| Pending {
            id,
            arrived: 0,
            request: InferRequest::single(vec![0; 144]).tenant((id % 3) as u32),
        })
        .collect();
    let mut expired = Vec::new();
    let mut taken = 0;
    let per_batch_ns = median_ns(CALLS, || {
        for p in &pending {
            queue.offer(p.clone(), 8);
        }
        taken = queue.take_batch(0, 8, &mut expired).len();
    });
    if taken != pending.len() || !queue.is_empty() {
        return Err("serve: the admission queue did not hand back the offered batch".into());
    }
    out.push(("serve.queue_op_ns", per_batch_ns / pending.len() as f64));
    Ok(out)
}
