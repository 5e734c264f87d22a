//! Transciphered-ingress dispatch (DESIGN.md §17): the glue between a
//! client's ChaCha20-sealed pixel payload and `ecall_Transcipher`.
//!
//! The client side is [`seal_ingress_payload`] — quantized pixels framed and
//! stream-encrypted under the per-session [`IngressKey`] both ends derive
//! from the key-ceremony transcript (see [`crate::keydist::derive_ingress_key`]).
//! The service side is [`HybridInference::transcipher_ingress`], which sends
//! the payload through the enclave wrapper, whose ECALL packs and
//! re-encrypts the pixels into the [`EncryptedMap`] the plan's conv layer
//! reads, as an `infer.ingress.ecall` stage of the pipeline's stage runner
//! so the obs fold still reconciles ns-for-ns with
//! [`crate::pipeline::total_enclave_cost`].
//!
//! This file sits on the audited ECALL surface (`hesgx-lint`'s `ecall-cost`
//! scope): every `pub fn` here either threads the enclave
//! [`hesgx_tee::cost::CostBreakdown`] through its return value or carries a
//! justified allow.

use crate::error::{Error, Result};
use crate::pipeline::{HybridInference, HybridMetrics, StageMetrics, Staged};
use hesgx_crypto::chacha20::NONCE_LEN;
use hesgx_crypto::rng::ChaChaRng;
use hesgx_crypto::transcipher::{self, IngressKey};
use hesgx_henn::image::EncryptedMap;

/// Seals a quantized image batch under the session ingress key — the client
/// side of transciphered ingress. The nonce is drawn from `rng` (12 bytes),
/// so the caller controls determinism: the session forks a dedicated
/// `transcipher-nonce` stream and replays produce byte-identical payloads.
///
/// # Errors
///
/// Fails when the batch is empty, ragged, out of the `i32` pixel range, or
/// larger than the framing's body cap.
// hesgx-lint: allow(ecall-cost, reason = "client-side sealing; runs outside the enclave boundary")
pub fn seal_ingress_payload(
    key: &IngressKey,
    rng: &mut ChaChaRng,
    images: &[Vec<i64>],
) -> Result<Vec<u8>> {
    let mut nonce = [0u8; NONCE_LEN];
    rng.fill_bytes(&mut nonce);
    transcipher::seal_images(key, &nonce, images)
        .map_err(|e| Error::Config(format!("transcipher ingress: {e}")))
}

impl HybridInference {
    /// Transciphered ingress at the pipeline level: opens the client's
    /// sealed payload inside the enclave (`ecall_Transcipher`), re-encrypts
    /// the pixels under FV into the [`EncryptedMap`] of
    /// [`HybridInference::ingress_layout`] — the map the client's
    /// `EncryptedMap::encrypt_images` produces on the FV-ciphertext path, so
    /// the rest of the pipeline is identical.
    ///
    /// Returns the map and the ingress stage's metrics (wall time and
    /// enclave cost, also recorded as the `infer.ingress.ecall` stage span).
    ///
    /// # Errors
    ///
    /// Fails when the payload does not authenticate, is malformed, or its
    /// per-image pixel count does not match the model's input side;
    /// propagates HE/TEE failures.
    // hesgx-lint: allow(ecall-cost, reason = "the enclave CostBreakdown travels inside the returned StageMetrics")
    pub fn transcipher_ingress(
        &self,
        key: &IngressKey,
        payload: &[u8],
    ) -> Result<(EncryptedMap, StageMetrics)> {
        let mut metrics = HybridMetrics::default();
        let map = self.run_stage(&mut metrics, "infer.ingress.ecall", |_| {
            let (map, cost) = self.enclave().transcipher_ingress(
                self.system(),
                self.model(),
                self.plan(),
                key,
                payload,
                self.pool(),
            )?;
            Ok(Staged::ecall(
                map,
                "Transciphered Ingress (SGX inside)",
                cost,
            ))
        })?;
        let stage = metrics
            .stages
            .pop()
            .ok_or(Error::Internal("ingress stage was not recorded"))?;
        Ok((map, stage))
    }
}
