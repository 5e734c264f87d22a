//! The request/response surface of the Session API (DESIGN.md §14).
//!
//! Batch shape and failure posture travel *with the request* rather than
//! in the name of the method that takes it, so a broker can queue, batch,
//! and retry heterogeneous traffic through one code path. [`InferRequest`] carries the images plus the
//! per-request policy (tenant, [`Resilience`], optional deadline on the
//! virtual clock) and [`crate::Session::serve`] answers with an
//! [`InferResponse`] that bundles the logits with how they were served,
//! the stage metrics, and the deterministic trace ID.
//!
//! The session-level companion is [`crate::recovery::retry_with_cost`]:
//! every session and broker worker retries a transient fault up to
//! [`MAX_RETRIES`](crate::recovery::MAX_RETRIES) times.

use crate::pipeline::HybridMetrics;
use crate::session::Served;

/// Tenant identifier attached to a request; the serving broker schedules
/// fairly across tenants (deficit round-robin) keyed on this value. The
/// default single-session API uses tenant `0`.
pub type TenantId = u32;

/// A point on the deterministic virtual clock, in nanoseconds. All serving
/// deadlines and latency figures are virtual-clock values (modeled costs),
/// never wall time — that is what keeps load replays byte-identical.
pub type VirtualNs = u64;

/// How a request's image batch crosses the wire into the pipeline
/// (DESIGN.md §17).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ingress {
    /// The client FV-encrypts the batch locally and uploads one ciphertext
    /// per pixel position — the paper's original ingress. Maximum client
    /// cost, megabytes on the wire, nothing extra inside the enclave.
    #[default]
    FvCiphertext,
    /// Transciphered ingress: the client seals the quantized pixels under
    /// the per-session ChaCha20 ingress key (kilobytes on the wire) and the
    /// enclave authenticates, opens, and re-encrypts under FV inside
    /// (`ecall_Transcipher`). Logits are bit-identical to
    /// [`Ingress::FvCiphertext`] — both paths feed the same plaintext
    /// pixels into the same pipeline.
    Transciphered,
}

/// Failure posture of a single request once the pipeline's bounded retries
/// are exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Resilience {
    /// Propagate the error to the caller.
    #[default]
    FailFast,
    /// Answer from the pure-HE square-activation fallback and mark the
    /// response [`Served::Degraded`]. A service whose parameters cannot
    /// carry that plan exactly has no such fallback
    /// ([`crate::HybridInference::degraded_plan`]); there the request fails
    /// as a [`Resilience::FailFast`] one does.
    Degrade,
}

/// One inference request: a batch of quantized images plus the per-request
/// serving policy.
///
/// Build with [`InferRequest::single`] or [`InferRequest::batch`] and chain
/// the setters:
///
/// ```ignore
/// let req = InferRequest::batch(images)
///     .tenant(3)
///     .resilience(Resilience::Degrade)
///     .deadline(5_000_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferRequest {
    /// The tenant this request belongs to (fair-scheduling key).
    pub tenant: TenantId,
    /// Quantized images, each `in_side × in_side` pixels row-major. The
    /// batch rides the SIMD slots of one ciphertext, so its length is
    /// bounded by the slot count of the session's FV parameters.
    pub images: Vec<Vec<i64>>,
    /// How the batch crosses the wire (FV ciphertexts or a transciphered
    /// stream payload).
    pub ingress: Ingress,
    /// What to do when the enclave stays unavailable after bounded retries.
    pub resilience: Resilience,
    /// Optional absolute virtual-clock deadline. The session itself does
    /// not enforce it (a lone session has no queue to sit in); the serving
    /// broker drops requests whose deadline passed before dispatch.
    pub deadline: Option<VirtualNs>,
}

impl InferRequest {
    /// A single-image request with default policy (tenant 0, fail-fast).
    pub fn single(image: Vec<i64>) -> Self {
        InferRequest::batch(vec![image])
    }

    /// A batched request with default policy (tenant 0, fail-fast).
    pub fn batch(images: Vec<Vec<i64>>) -> Self {
        InferRequest {
            tenant: 0,
            images,
            ingress: Ingress::default(),
            resilience: Resilience::default(),
            deadline: None,
        }
    }

    /// Sets how the batch crosses the wire into the pipeline.
    #[must_use]
    pub fn ingress(mut self, ingress: Ingress) -> Self {
        self.ingress = ingress;
        self
    }

    /// Sets the tenant the broker should account this request to.
    #[must_use]
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Sets the failure posture once bounded retries are exhausted.
    #[must_use]
    pub fn resilience(mut self, resilience: Resilience) -> Self {
        self.resilience = resilience;
        self
    }

    /// Sets an absolute virtual-clock deadline for broker-side admission.
    #[must_use]
    pub fn deadline(mut self, deadline: VirtualNs) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// The answer to an [`InferRequest`].
#[derive(Debug, Clone)]
pub struct InferResponse {
    /// One logit row per requested image, in request order. For
    /// [`Served::Exact`] responses these are bit-identical to
    /// [`hesgx_nn::quantize::QuantizedCnn::forward_ints`].
    pub logits: Vec<Vec<i64>>,
    /// Whether the exact hybrid pipeline answered or the degraded pure-HE
    /// fallback did.
    pub served: Served,
    /// Per-stage metrics of the run that produced the logits.
    pub metrics: HybridMetrics,
    /// Bytes the client shipped over the wire for this request's batch:
    /// the FV ciphertext map for [`Ingress::FvCiphertext`], the sealed
    /// stream payload for [`Ingress::Transciphered`]. The serving broker
    /// books this into its load report's upload column.
    pub upload_bytes: u64,
    /// Deterministic request identifier `req-<seed:016x>-<ordinal>`: a pure
    /// function of the session seed and the per-session request ordinal,
    /// never of wall time, so replays produce identical IDs. The
    /// `session.request` trace slice carries the same two facts as its
    /// `seed` and `request` arguments.
    pub trace_id: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builders_set_policy_fields() {
        let req = InferRequest::single(vec![1, 2, 3])
            .tenant(7)
            .ingress(Ingress::Transciphered)
            .resilience(Resilience::Degrade)
            .deadline(99);
        assert_eq!(req.images, vec![vec![1, 2, 3]]);
        assert_eq!(req.tenant, 7);
        assert_eq!(req.ingress, Ingress::Transciphered);
        assert_eq!(req.resilience, Resilience::Degrade);
        assert_eq!(req.deadline, Some(99));
    }

    #[test]
    fn defaults_match_the_old_infer_batch_contract() {
        let req = InferRequest::batch(vec![vec![0; 4]]);
        assert_eq!(req.tenant, 0);
        assert_eq!(req.ingress, Ingress::FvCiphertext);
        assert_eq!(req.resilience, Resilience::FailFast);
        assert_eq!(req.deadline, None);
    }
}
