//! Golden bit-identity regression for the hybrid (Fig. 8) pipeline.
//!
//! The NTT/weight-cache speed pass (ROADMAP item 1) is required to be
//! *provably* behavior-preserving: the decrypted logits and the serialized
//! logit-ciphertext bytes must be byte-identical to the pre-optimization
//! pipeline at every HE pool size. This test pins both against
//! `tests/golden/pipeline_bits.json` for three runs: the `Pixel` ingress and
//! the `Coeff` ingress of the 8×8 model, whose logits leave one ciphertext
//! per class — through the compiled plan (its FC layer is too narrow to pack,
//! so the closing reduction is skipped) and through the hand-built
//! three-stage list without that stage, bit for bit the same: the proof that
//! `Pixel` egress is the three-stage pipeline's — and the `Coeff` ingress
//! of the same model with four maps and an eight-class FC layer, wide
//! enough that the compiled plan packs the egress and its logits leave in
//! one ciphertext. Regenerate (only when an intentional protocol change
//! lands) with
//! `HESGX_UPDATE_GOLDEN=1 cargo test -p hesgx-core --test golden_pipeline`.

mod testutil;

use hesgx_bfv::serialization::ciphertext_to_bytes;
use hesgx_core::pipeline::{HybridInference, ProvisionConfig};
use hesgx_crypto::rng::ChaChaRng;
use hesgx_crypto::sha256::sha256;
use hesgx_henn::crt::CrtCiphertext;
use hesgx_henn::image::{EncryptedMap, Layout};
use hesgx_henn::par::ParExec;
use hesgx_nn::quantize::QuantizedCnn;
use hesgx_tee::enclave::Platform;
use std::fmt::Write as _;
use std::path::Path;
use testutil::{small_hybrid_model, wide_hybrid_model};

const BATCH: usize = 2;

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        write!(s, "{b:02x}").unwrap();
    }
    s
}

/// One seeded batch of `model` on a fresh service at `threads` workers,
/// entered in each of `layouts` in turn (consecutive inferences: the
/// enclave's call counter advances between them) and run through the compiled
/// plan, or — `per_class` — through it without its closing stage. Returns,
/// per layout, the decrypted logits (`[batch][class]`) and the logit
/// ciphertexts.
fn run(
    model: &QuantizedCnn,
    threads: usize,
    layouts: &[Layout],
    per_class: bool,
) -> Vec<(Vec<Vec<i128>>, Vec<CrtCiphertext>)> {
    let (service, ceremony) = HybridInference::provision_with(
        Platform::new(83),
        model.clone(),
        ProvisionConfig {
            poly_degree: 256,
            seed: 29,
            threads,
            ..ProvisionConfig::default()
        },
    )
    .unwrap();
    let images: Vec<Vec<i64>> = (0..BATCH)
        .map(|b| {
            (0..64)
                .map(|p| ((p * (5 + 2 * b) + 3 * b) % (16 - b)) as i64)
                .collect()
        })
        .collect();
    let mut plan = service.plan().clone();
    assert_eq!(plan.stages.len(), 4);
    plan.stages.truncate(if per_class { 3 } else { 4 });
    let serial = ParExec::serial();
    let served = layouts.iter().map(|&layout| {
        let enc = EncryptedMap::encrypt_images(
            service.system(),
            &images,
            model.in_side,
            layout,
            &ceremony.public,
            &ChaChaRng::from_seed(131),
            &serial,
        )
        .unwrap();
        let (logits, _) = service.run(&plan, &enc).unwrap();
        let rows = logits.decrypt_all(service.system(), &ceremony.user_secret, BATCH, &serial);
        (rows.unwrap(), logits.into_cells())
    });
    served.collect()
}

/// The sha256 over every serialized ciphertext part in (cell, part) order.
fn digest(cells: &[CrtCiphertext]) -> String {
    let mut bytes = Vec::new();
    for ct in cells {
        for part in 0..ct.part_count() {
            bytes.extend_from_slice(&ciphertext_to_bytes(ct.part(part)));
        }
    }
    hex(&sha256(&bytes))
}

/// The three pinned runs at `threads` workers: the 8×8 model from `Pixel`
/// and then from the `Coeff` ingress `Session::serve` picks (one logit
/// ciphertext per class either way, rows asserted equal, and both asserted
/// bit-identical to the plan without its closing stage), then the
/// wide model from `Coeff` through its compiled plan (packed
/// egress: one logits ciphertext; rows asserted equal to the plan without
/// the closing stage). Returns each model's rows and the three digests.
fn run_pool(threads: usize) -> ([Vec<Vec<i128>>; 2], [String; 3]) {
    let packed = Layout::Coeff {
        batch: 2,
        side: 8,
        pitch: 8,
    };
    let narrow = small_hybrid_model();
    let compiled = run(&narrow, threads, &[Layout::Pixel, packed], false);
    assert_eq!(
        compiled,
        run(&narrow, threads, &[Layout::Pixel, packed], true)
    );
    let [(rows, pixel), (packed_rows, coeff)] = &compiled[..] else {
        panic!("two layouts, two runs");
    };
    assert_eq!(rows, packed_rows);
    assert_eq!((pixel.len(), coeff.len()), (narrow.classes, narrow.classes));

    let wide = wide_hybrid_model();
    let (wide_rows, one) = run(&wide, threads, &[packed], false).remove(0);
    assert_eq!(one.len(), 1, "packed egress");
    let (per_class_rows, per_class) = run(&wide, threads, &[packed], true).remove(0);
    assert_eq!(per_class.len(), wide.classes);
    assert_eq!(wide_rows, per_class_rows);
    (
        [rows.clone(), wide_rows],
        [digest(pixel), digest(coeff), digest(&one)],
    )
}

/// Renders the golden artifact: a small deterministic JSON document.
fn render([logits, wide]: &[Vec<Vec<i128>>; 2], [pixel, packed, egress]: &[String; 3]) -> String {
    let rows = |logits: &[Vec<i128>]| -> String {
        let rows = logits.iter().map(|row| {
            let vals: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            format!("[{}]", vals.join(","))
        });
        rows.collect::<Vec<_>>().join(", ")
    };
    format!(
        "{{\n  \"model\": \"small_hybrid_model\",\n  \"poly_degree\": 256,\n  \
         \"pools\": [1, 2, 4],\n  \"logits\": [{}],\n  \
         \"ciphertext_sha256\": \"{pixel}\",\n  \
         \"packed_ciphertext_sha256\": \"{packed}\",\n  \
         \"packed_egress_model\": \"wide_hybrid_model\",\n  \
         \"packed_egress_logits\": [{}],\n  \
         \"packed_egress_ciphertext_sha256\": \"{egress}\"\n}}\n",
        rows(logits),
        rows(wide),
    )
}

#[test]
fn pipeline_logits_and_ciphertext_bytes_match_golden() {
    let mut reference = None;
    for threads in [1usize, 2, 4] {
        let run = run_pool(threads);
        match &reference {
            None => reference = Some(run),
            Some(r) => assert_eq!(
                &run, r,
                "pool size {threads} diverged from the single-thread run"
            ),
        }
    }
    let (logits, digest) = reference.unwrap();
    let rendered = render(&logits, &digest);

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/pipeline_bits.json");
    if std::env::var_os("HESGX_UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &rendered).unwrap();
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden pipeline bits committed; regenerate with HESGX_UPDATE_GOLDEN=1");
    assert_eq!(
        rendered, golden,
        "pipeline output drifted from tests/golden/pipeline_bits.json; the \
         speed pass must stay bit-identical (DESIGN.md §16)"
    );
}
