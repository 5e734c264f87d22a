//! `transcipher` — transciphered ingress versus FV-ciphertext ingress
//! (DESIGN.md §17; the upload-bandwidth escape hatch the paper's client
//! cannot afford to skip at WAN link speeds).
//!
//! The same image batch is served twice per HE pool size: once uploaded the
//! classic way (FV ciphertexts, one coefficient-encoded ciphertext an image,
//! each `c0` and a 32-byte seed — 160 KiB at the paper's geometry), once as a
//! ChaCha20-sealed stream payload that the enclave re-encrypts under FV
//! behind `ecall_Transcipher` (4 bytes per quantized pixel plus framing —
//! kilobytes). Three claims are written to the artifacts, and the first and
//! the third are asserted:
//!
//! 1. **Logit bit-identity** — both ingress modes produce byte-identical
//!    logits at every HE pool size (1/2/4); the in-enclave re-encryption
//!    decrypts to exactly the pixels the client packed.
//! 2. **Upload reduction** — the transciphered payload is smaller than the
//!    FV upload: 7× at the quick geometry and 5× at the paper's against one
//!    seeded ciphertext an image (14× and 10× with `a` shipped whole, 50×
//!    and 156× against the im2col upload, 203× and 817× against one
//!    ciphertext per pixel — the payload did not grow, the FV upload
//!    shrank).
//! 3. **Cost reconciliation** — the new ECALL's modeled cost lands in the
//!    session's books ns-for-ns: folding the recorder's `infer.*.ecall`
//!    spans (now including `infer.ingress.ecall`) reproduces
//!    `total_enclave_cost` exactly.
//!
//! Artifacts: `target/bench/BENCH_transcipher.json` (wall times included —
//! informative, not replay-stable) and
//! `target/bench/BENCH_transcipher.deterministic.json` (upload bytes,
//! reduction ratio, identity/reconciliation flags, modeled ns — byte-stable;
//! CI runs the experiment twice and diffs it).

use super::{header, RunConfig};
use hesgx_core::pipeline::total_enclave_cost;
use hesgx_core::request::{InferRequest, Ingress};
use hesgx_core::session::{ParamsPreset, Session, SessionBuilder};
use hesgx_nn::quantize::QuantizedCnn;
use hesgx_obs::{Recorder, SpanCost};
use hesgx_tee::enclave::Platform;
use hesgx_tee::wall::WallTimer;
use std::fmt::Write as _;

/// Session seed: both ingress modes provision from the same seed so the key
/// domain, the ingress key, and every RNG stream line up.
const SEED: u64 = 1721;

/// HE worker-pool sizes the identity claim is checked at.
const POOLS: [usize; 3] = [1, 2, 4];

/// One `(pool, ingress)` cell of the sweep.
#[derive(Debug, Clone)]
struct ServeRun {
    logits: Vec<Vec<i64>>,
    upload_bytes: u64,
    wall_ns: u64,
    ingress_model_ns: u64,
}

fn build_session(
    preset: ParamsPreset,
    threads: usize,
    model: &QuantizedCnn,
) -> (Session, Recorder) {
    let rec = Recorder::enabled();
    let session = SessionBuilder::new()
        .params(preset)
        .threads(threads)
        .seed(SEED)
        .recorder(rec.clone())
        .build(Platform::new(1721), model.clone())
        .expect("transcipher bench session provisions");
    (session, rec)
}

/// Serves `images` once on a fresh session and books the run. A fresh
/// session per serve keeps every RNG stream at its origin, so logits are
/// comparable bit-for-bit across cells of the sweep.
fn serve_once(
    preset: ParamsPreset,
    threads: usize,
    model: &QuantizedCnn,
    images: &[Vec<i64>],
    ingress: Ingress,
) -> (ServeRun, bool) {
    let (session, rec) = build_session(preset, threads, model);
    let timer = WallTimer::start();
    let response = session
        .serve(InferRequest::batch(images.to_vec()).ingress(ingress))
        .expect("transcipher bench serve succeeds");
    let wall_ns = timer.elapsed_ns();
    let metrics = &response.metrics;
    // Reconciliation: fold exactly the `.ecall` pipeline spans (the `.he`
    // spans carry wall time only) and compare against the session's books.
    let folded = rec
        .spans_with_prefix("infer.")
        .into_iter()
        .filter(|(name, _)| name.ends_with(".ecall"))
        .fold(SpanCost::default(), |acc, (_, s)| {
            acc.saturating_add(s.cost)
        });
    let reconciles = folded == total_enclave_cost(metrics);
    let ingress_model_ns = metrics
        .stages
        .iter()
        .find(|s| s.name.contains("Transciphered"))
        .and_then(|s| s.enclave.as_ref())
        .map(|c| c.model_ns())
        .unwrap_or(0);
    (
        ServeRun {
            logits: response.logits,
            upload_bytes: response.upload_bytes,
            wall_ns,
            ingress_model_ns,
        },
        reconciles,
    )
}

/// Runs the transciphered-ingress experiment, writes both artifacts, and
/// asserts the logit identity and the cost reconciliation.
pub fn transcipher(cfg: RunConfig) {
    header("TRANSCIPHER: stream-cipher ingress vs FV-ciphertext ingress (DESIGN.md §17)");
    let (preset, degree) = if cfg.quick {
        (ParamsPreset::Small, 256)
    } else {
        (ParamsPreset::Paper, crate::PAPER_POLY_DEGREE)
    };
    let m = crate::formula_model(cfg.quick);
    let pixels = m.in_side * m.in_side;
    let images: Vec<Vec<i64>> = (0..crate::PAPER_BATCH_SIZE)
        .map(|b| (0..pixels).map(|p| ((p * 3 + b * 7) % 16) as i64).collect())
        .collect();
    println!(
        "batch of {} {}x{} images at poly degree {degree}; fresh session per \
         serve, seed {SEED}",
        images.len(),
        m.in_side,
        m.in_side,
    );
    println!(
        "\n{:>5} {:>14} {:>18} {:>16} {:>14}",
        "pool", "ingress", "upload (bytes)", "wall (ns)", "logits"
    );

    let mut fv_upload = 0u64;
    let mut tc_upload = 0u64;
    let mut logits_match = true;
    let mut cost_reconciles = true;
    let mut ingress_model_ns = 0u64;
    let mut reference: Option<Vec<Vec<i64>>> = None;
    let mut rows: Vec<(usize, &'static str, u64, u64)> = Vec::new();
    for &threads in &POOLS {
        for ingress in [Ingress::FvCiphertext, Ingress::Transciphered] {
            let (run, reconciled) = serve_once(preset, threads, &m, &images, ingress);
            cost_reconciles &= reconciled;
            let matches = match &reference {
                None => {
                    reference = Some(run.logits.clone());
                    true
                }
                Some(reference) => reference == &run.logits,
            };
            logits_match &= matches;
            let label = match ingress {
                Ingress::FvCiphertext => {
                    fv_upload = run.upload_bytes;
                    "fv-ciphertext"
                }
                Ingress::Transciphered => {
                    tc_upload = run.upload_bytes;
                    ingress_model_ns = run.ingress_model_ns;
                    "transciphered"
                }
            };
            println!(
                "{:>5} {:>14} {:>18} {:>16} {:>14}",
                threads,
                label,
                run.upload_bytes,
                run.wall_ns,
                if matches { "identical" } else { "DIVERGED" }
            );
            rows.push((threads, label, run.upload_bytes, run.wall_ns));
        }
    }

    let reduction = fv_upload / tc_upload.max(1);
    println!("\nupload reduction: {fv_upload} bytes -> {tc_upload} bytes ({reduction}x)");
    println!(
        "ecall_Transcipher modeled cost: {ingress_model_ns} ns; obs reconciliation: {}",
        if cost_reconciles {
            "ns-for-ns"
        } else {
            "FAILED"
        }
    );

    // Full artifact: wall times included (informative, not replay-stable).
    let mut json = String::from("{\"experiment\":\"transcipher\",\"runs\":[");
    for (i, (pool, label, upload, wall)) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"pool\":{pool},\"ingress\":\"{label}\",\"upload_bytes\":{upload},\
             \"wall_ns\":{wall}}}"
        );
    }
    let _ = write!(
        json,
        "],\"reduction\":{reduction},\"logits_match\":{logits_match},\"cost_reconciles\":{cost_reconciles}}}"
    );
    if let Some(path) = crate::write_bench_file("BENCH_transcipher.json", &json) {
        println!("bench table written to {}", path.display());
    }

    // Deterministic artifact: pure function of the seeds — CI runs the
    // experiment twice and byte-diffs this file.
    let det = format!(
        "{{\"experiment\":\"transcipher\",\"batch\":{},\"pixels\":{pixels},\
         \"fv_upload_bytes\":{fv_upload},\"transcipher_upload_bytes\":{tc_upload},\
         \"reduction\":{reduction},\"logits_match\":{logits_match},\
         \"cost_reconciles\":{cost_reconciles},\"ingress_model_ns\":{ingress_model_ns}}}",
        images.len(),
    );
    if let Some(path) = crate::write_bench_file("BENCH_transcipher.deterministic.json", &det) {
        println!("deterministic table written to {}", path.display());
    }

    // Hard gates (after the artifacts, so a failure leaves them on disk for
    // debugging): claims 1 and 3 above.
    assert!(
        logits_match,
        "logits diverged across ingress modes or HE pools {POOLS:?}"
    );
    assert!(
        cost_reconciles,
        "folded infer.*.ecall spans diverged from total_enclave_cost"
    );
}
