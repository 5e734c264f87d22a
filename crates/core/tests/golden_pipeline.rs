//! Golden bit-identity regression for the hybrid (Fig. 8) pipeline.
//!
//! The NTT/weight-cache speed pass (ROADMAP item 1) is required to be
//! *provably* behavior-preserving: the decrypted logits and the serialized
//! logit-ciphertext bytes must be byte-identical to the pre-optimization
//! pipeline at every HE pool size. This test pins both against
//! `tests/golden/pipeline_bits.json`, for the `Pixel` ingress layout (whose
//! digest has not moved since the patch-packed layout landed beside it) and
//! for the `Patches` layout requests are served in. Regenerate (only when an intentional
//! protocol change lands) with
//! `HESGX_UPDATE_GOLDEN=1 cargo test -p hesgx-core --test golden_pipeline`.

mod testutil;

use hesgx_bfv::serialization::ciphertext_to_bytes;
use hesgx_core::pipeline::{HybridInference, ProvisionConfig};
use hesgx_crypto::rng::ChaChaRng;
use hesgx_crypto::sha256::sha256;
use hesgx_henn::image::{EncryptedMap, Layout};
use hesgx_henn::par::ParExec;
use hesgx_tee::enclave::Platform;
use std::fmt::Write as _;
use std::path::Path;
use testutil::small_hybrid_model;

const BATCH: usize = 2;

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        write!(s, "{b:02x}").unwrap();
    }
    s
}

/// Runs one seeded batch at `threads` workers through both ingress layouts —
/// `Pixel` first (the paper-reproduction plans' and, bit for bit, the
/// pre-packing pipeline's), then the `Patches` layout `Session::serve` picks
/// for it. Returns the decrypted logits (`[batch][class]`, asserted equal for
/// the two) and, per layout, the sha256 over every serialized logit
/// ciphertext part in (class, part) order.
fn run_pool(threads: usize) -> (Vec<Vec<i128>>, [String; 2]) {
    let model = small_hybrid_model();
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
    let rng = ChaChaRng::from_seed(131);
    let packed = service.ingress_layout(BATCH);
    assert_eq!(packed, Layout::Patches { batch: 2, side: 6 });
    let mut rows = None;
    let digests = [Layout::Pixel, packed].map(|layout| {
        let enc = EncryptedMap::encrypt_images(
            service.system(),
            &images,
            model.in_side,
            layout,
            &ceremony.public,
            &rng,
            &ParExec::serial(),
        )
        .unwrap();
        let (logits, _) = service.run(service.plan(), &enc).unwrap();

        let mut bytes = Vec::new();
        for ct in &logits {
            for part in 0..ct.part_count() {
                bytes.extend_from_slice(&ciphertext_to_bytes(ct.part(part)));
            }
        }
        let mut decrypted = vec![Vec::new(); BATCH];
        for ct in &logits {
            let slots = service
                .system()
                .decrypt_slots(ct, &ceremony.user_secret)
                .unwrap();
            for (b, row) in decrypted.iter_mut().enumerate() {
                row.push(slots[b]);
            }
        }
        assert_eq!(
            *rows.get_or_insert(decrypted.clone()),
            decrypted,
            "{layout:?}"
        );
        hex(&sha256(&bytes))
    });
    (rows.unwrap(), digests)
}

/// Renders the golden artifact: a small deterministic JSON document.
fn render(logits: &[Vec<i128>], [pixel, packed]: &[String; 2]) -> String {
    let rows: Vec<String> = logits
        .iter()
        .map(|row| {
            let vals: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            format!("[{}]", vals.join(","))
        })
        .collect();
    format!(
        "{{\n  \"model\": \"small_hybrid_model\",\n  \"poly_degree\": 256,\n  \
         \"pools\": [1, 2, 4],\n  \"logits\": [{}],\n  \
         \"ciphertext_sha256\": \"{pixel}\",\n  \
         \"packed_ciphertext_sha256\": \"{packed}\"\n}}\n",
        rows.join(", "),
    )
}

#[test]
fn pipeline_logits_and_ciphertext_bytes_match_golden() {
    let mut reference: Option<(Vec<Vec<i128>>, [String; 2])> = None;
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
