//! The one-stop session API: builder → [`Session`] → plaintext logits.
//!
//! [`HybridInference`] exposes the paper's machinery — key ceremony,
//! encrypted maps, stage plans — which most callers don't want to
//! assemble by hand. A [`Session`] owns both roles of the protocol (the
//! provisioned edge service *and* the attested user key material) so a caller
//! can go quantized pixels → logits in one call, while every intermediate
//! still travels encrypted through the real pipeline. Use the lower-level
//! modules directly when the user and the server must be separate processes.
//!
//! The one entry point is [`Session::serve`]: an [`InferRequest`] carries
//! the image batch plus the per-request policy (tenant, [`Resilience`],
//! optional virtual-clock deadline), and the [`InferResponse`] bundles the
//! logits with how they were served, the stage metrics, and the
//! deterministic trace ID.
//!
//! The session is also where the recovery ladder (DESIGN.md §11) lives:
//! transient enclave faults retry inside the pipeline up to
//! [`MAX_RETRIES`](crate::recovery::MAX_RETRIES) times, sealed-state
//! corruption triggers a bounded re-provision (same seed → identical keys,
//! so the user's material stays valid), and a request sent with
//! [`Resilience::Degrade`] falls back to the service's pure-HE plan —
//! marked [`Served::Degraded`] — when retries are exhausted, provided the
//! service compiled one
//! ([`HybridInference::degraded_plan`]). Install a [`FaultPlan`] with
//! [`SessionBuilder::chaos`] to drive every one of those paths
//! deterministically and read the resulting [`FaultReport`] back via
//! [`Session::fault_report`].
//!
//! ```
//! use hesgx_core::prelude::*;
//!
//! # fn main() -> hesgx_core::Result<()> {
//! # let model = QuantizedCnn {
//! #     pipeline: QuantPipeline::Hybrid,
//! #     in_side: 8, conv_out: 2, kernel: 3, window: 2, classes: 3,
//! #     conv_weights: (0..18).map(|i| (i % 7) as i64 - 3).collect(),
//! #     conv_bias: vec![5, -9],
//! #     fc_weights: (0..3 * 18).map(|i| (i % 5) as i64 - 2).collect(),
//! #     fc_bias: vec![10, -5, 0],
//! #     weight_scale: 8, fc_scale: 8, act_scale: 16,
//! # };
//! let session = SessionBuilder::new()
//!     .params(ParamsPreset::Small)
//!     .activation(ActivationKind::Sigmoid)
//!     .threads(2)
//!     .seed(7)
//!     .build(Platform::new(1), model.clone())?;
//! let image: Vec<i64> = (0..64).map(|p| p % 16).collect();
//! let response = session.serve(InferRequest::single(image.clone()))?;
//! assert_eq!(response.logits, vec![model.forward_ints(&image)]);
//! assert_eq!(response.served, Served::Exact);
//! assert_eq!(response.metrics.threads, 2);
//! # Ok(())
//! # }
//! ```

use crate::error::{Error, FaultClass, Result};
use crate::ingress::seal_ingress_payload;
use crate::keydist::{derive_ingress_key, verify_key_ceremony, KeyCeremonyPublic};
use crate::pipeline::{
    total_enclave_cost, HybridInference, HybridMetrics, ProvisionConfig, StageMetrics,
};
use crate::planner::{InferencePlan, Placement};
use crate::recovery::retry_with_cost;
use crate::request::{InferRequest, InferResponse, Ingress, Resilience};
use hesgx_chaos::{FaultHook, FaultInjector, FaultPlan, FaultReport, RecoveryEvent};
use hesgx_crypto::rng::ChaChaRng;
use hesgx_crypto::transcipher::IngressKey;
use hesgx_henn::image::{EncryptedMap, Layout, SeededMap};
use hesgx_henn::par::ParExec;
use hesgx_nn::layers::ActivationKind;
use hesgx_nn::quantize::{QuantizedCnn, MAX_PIXEL};
use hesgx_obs::{counters, Recorder};
use hesgx_tee::attestation::AttestationService;
use hesgx_tee::cost::CostBreakdown;
use hesgx_tee::enclave::Platform;
use hesgx_tee::wall::WallTimer;
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// FV parameter presets for [`SessionBuilder::params`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamsPreset {
    /// The paper's MNIST setting: polynomial degree 1024 (§V-A).
    Paper,
    /// Small parameters for tests and demos: degree 256.
    Small,
}

impl ParamsPreset {
    fn poly_degree(self) -> usize {
        match self {
            ParamsPreset::Paper => 1024,
            ParamsPreset::Small => 256,
        }
    }
}

/// How an [`InferRequest`] was ultimately served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// The full hybrid pipeline ran: logits are bit-identical to
    /// [`QuantizedCnn::forward_ints`].
    Exact,
    /// Transient-fault retries were exhausted and the pure-HE plan of
    /// [`CryptoNets`](hesgx_henn::cryptonets::CryptoNets) answered instead.
    /// The logits sit on a different fixed-point scale: they are exactly
    /// [`QuantizedCnn::forward_ints`] of the same weights quantized for
    /// [`QuantPipeline::CryptoNets`](hesgx_nn::quantize::QuantPipeline::CryptoNets),
    /// not the hybrid reference. Only a service whose parameters can carry
    /// that plan has this rung ([`HybridInference::degraded_plan`]); on any
    /// other the exhausted request fails as a fail-fast one does.
    Degraded,
}

/// The plan `service` compiled for `placement`.
fn plan(service: &HybridInference, placement: Placement) -> Result<&InferencePlan> {
    let degraded = service.degraded_plan();
    match placement {
        Placement::Hybrid => Ok(service.plan()),
        Placement::PureHe => degraded.ok_or(Error::Internal("no degraded plan was compiled")),
    }
}

/// Bound on sealed-state re-provisions per recovery episode: one corruption
/// is recoverable, a second in a row means the environment is hostile.
const MAX_REPROVISIONS: u32 = 2;

/// Builder for [`Session`]; every knob has a paper-faithful default (those
/// of [`ProvisionConfig`]).
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    /// The provisioning settings; `build` fills in the fault hook.
    config: ProvisionConfig,
    chaos: Option<FaultPlan>,
}

impl SessionBuilder {
    /// Starts from the defaults: paper parameters, sigmoid activation,
    /// default retry budget, calibrated SGX cost model, one worker per core.
    pub fn new() -> Self {
        SessionBuilder::default()
    }

    /// Selects the FV parameter preset.
    #[must_use]
    pub fn params(mut self, preset: ParamsPreset) -> Self {
        self.config.poly_degree = preset.poly_degree();
        self
    }

    /// Selects the activation computed exactly inside the enclave (§VI-C).
    #[must_use]
    pub fn activation(mut self, kind: ActivationKind) -> Self {
        self.config.activation = kind;
        self
    }

    /// Sets the HE worker-thread count; `0` (default) means one per
    /// available core, `1` is fully serial. Inference results are
    /// bit-identical for every value.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Seeds every RNG in the session (keys, encryption, enclave identity):
    /// equal seeds give equal keys and, on a fresh platform each, equal runs.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Installs a deterministic fault-injection plan: the built session
    /// threads the plan's [`FaultInjector`] through every enclave boundary
    /// (ECALL entry/exit, EPC paging, seal/unseal, attestation verification,
    /// noise refresh) and exposes the accumulated [`FaultReport`] via
    /// [`Session::fault_report`]. The same plan seed always produces the
    /// same report, for every thread count.
    #[must_use]
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Installs an observability recorder: the session threads it through
    /// the enclave boundary, the EPC, the worker pool, the recovery layer,
    /// the attestation verifier, and the chaos injector, and exposes the
    /// deterministic snapshot via [`Session::obs_snapshot_json`]. The default
    /// is the disabled no-op recorder (zero overhead).
    #[must_use]
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.config.recorder = recorder;
        self
    }

    /// Provisions the service on `platform`, runs the key ceremony,
    /// verifies the attested quote (retrying transient attestation faults
    /// up to [`MAX_RETRIES`](crate::recovery::MAX_RETRIES) times), and
    /// returns the ready session.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for a model quantized for another pipeline
    /// and propagates HE/TEE provisioning and attestation failures.
    pub fn build(self, platform: Arc<Platform>, model: QuantizedCnn) -> Result<Session> {
        let mut config = self.config;
        let chaos = self.chaos.map(|plan| Arc::new(plan.build()));
        if let Some(injector) = &chaos {
            // Delivered faults are counted once, at the injector — the single
            // source of truth for `faults.injected`.
            injector.set_recorder(config.recorder.clone());
        }
        config.fault_hook = chaos.clone().map(|injector| injector as Arc<dyn FaultHook>);
        let (service, ceremony) =
            HybridInference::provision_with(platform.clone(), model.clone(), config.clone())?;

        // The user role verifies the quote before trusting the keys (§IV-A).
        // An injected attestation-verification fault is transient — the
        // verifier re-contacts the attestation service — so it rides the
        // same bounded retry as every other transient fault.
        let mut attestation = AttestationService::new();
        attestation.register_platform(platform.quoting_enclave());
        if let Some(injector) = &chaos {
            attestation.set_fault_hook(injector.clone());
        }
        attestation.set_recorder(config.recorder.clone());
        let measurement = *service.enclave().enclave().measurement();
        let hook = chaos.as_ref().map(|c| c.as_ref() as &dyn FaultHook);
        let (verified, _cost) = retry_with_cost(hook, &config.recorder, || {
            let res = verify_key_ceremony(&attestation, &ceremony, &measurement)
                .map(|_| ())
                .map_err(Error::Tee);
            (res, CostBreakdown::default())
        });
        verified?;

        // The user role derives the transciphered-ingress key from the
        // ceremony material it already holds; the enclave side derives the
        // same key independently, so nothing new crosses the wire.
        let ingress_key = derive_ingress_key(&ceremony.public, &ceremony.user_secret);
        // A broker's workers share keys and the ingress key: each client
        // stream (FV randomness, transcipher nonces) is its launch's own.
        let launch = service.enclave().enclave().launch();
        let client = ChaChaRng::from_seed(config.seed).fork("session-client");
        Ok(Session {
            service: RwLock::new(service),
            ceremony,
            ingress_key,
            rng: Mutex::new(client.fork(&format!("launch-{launch}"))),
            platform,
            model,
            config,
            chaos,
            requests: AtomicU64::new(0),
        })
    }
}

/// A provisioned inference session: encrypt → hybrid pipeline → decrypt,
/// with the recovery ladder wrapped around the pipeline.
#[derive(Debug)]
pub struct Session {
    service: RwLock<HybridInference>,
    ceremony: KeyCeremonyPublic,
    /// Per-session transciphered-ingress key, derived from the ceremony
    /// transcript by both roles (DESIGN.md §17). Survives re-provisioning:
    /// same seed → same ceremony → same key.
    ingress_key: IngressKey,
    rng: Mutex<ChaChaRng>,
    /// Everything needed to re-provision after sealed-state corruption:
    /// same platform + model + config (same seed) rebuilds identical keys,
    /// so the user's ceremony material stays valid across the swap.
    platform: Arc<Platform>,
    model: QuantizedCnn,
    config: ProvisionConfig,
    chaos: Option<Arc<FaultInjector>>,
    /// Monotone per-session request counter; with the seed it names a
    /// request — the `session.request` slice's `seed`/`request` args and the
    /// trace ID `req-<seed:016x>-<n>` — so timelines from different sessions
    /// (or re-runs) line up byte-for-byte.
    requests: AtomicU64,
}

impl Session {
    /// Serves one [`InferRequest`] — the single entry point of the session
    /// API. The image batch rides the SIMD slots of one ciphertext
    /// (amortizing every per-ciphertext cost as in the paper's §V-B) and
    /// the response carries one logit row per image, in request order.
    ///
    /// Transient faults retry inside the pipeline up to
    /// [`MAX_RETRIES`](crate::recovery::MAX_RETRIES) times; sealed-state
    /// corruption triggers a bounded re-provision and the batch runs again.
    /// Once retries are exhausted the request's [`Resilience`] decides:
    /// [`Resilience::FailFast`] propagates the error,
    /// [`Resilience::Degrade`] answers from the pure-HE square-activation
    /// fallback and marks the response [`Served::Degraded`].
    ///
    /// The request's `deadline` is carried for the serving broker
    /// (`hesgx-serve`), which drops requests whose deadline passes while
    /// queued; a lone session has no queue and serves regardless.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for an empty or oversized batch or an
    /// image that is not `in_side × in_side` pixels, and propagates HE/TEE
    /// failures (under [`Resilience::Degrade`], only fatal ones — including
    /// failures of the fallback itself).
    ///
    /// The request is one `session.request` scope on every observability
    /// face, named by the session seed and the request ordinal — never by
    /// wall time — so equal seeds replay byte-identical timelines. A served
    /// request books the rollup of its enclave stages
    /// ([`total_enclave_cost`]) plus its wall time, as `session.provision`
    /// does for the ceremony; a failed one drops an error instant and books
    /// nothing.
    pub fn serve(&self, request: InferRequest) -> Result<InferResponse> {
        let seed = self.config.seed;
        let ordinal = self.requests.fetch_add(1, Ordering::Relaxed);
        let batch = request.images.len() as u64;
        let args = [("batch", batch), ("seed", seed), ("request", ordinal)];
        let start = WallTimer::start();
        let scope = self.recorder().open("session.request", &args);
        let (logits, served, metrics, upload_bytes) = match self.serve_inner(&request) {
            Ok(served) => served,
            Err(err) => {
                self.recorder().trace_instant("session.request.error", &[]);
                return Err(err);
            }
        };
        let mut cost = total_enclave_cost(&metrics);
        cost.real_ns = start.elapsed_ns();
        scope.close(cost);
        Ok(InferResponse {
            logits,
            served,
            metrics,
            upload_bytes,
            trace_id: format!("req-{seed:016x}-{ordinal}"),
        })
    }

    /// Runs `body` as one `name` scope on every observability face, booked
    /// as an `.he` stage books: wall time only, and nothing on failure.
    fn scoped<T>(&self, name: &str, body: impl FnOnce() -> Result<T>) -> Result<T> {
        let start = WallTimer::start();
        let scope = self.recorder().open(name, &[]);
        let out = body()?;
        scope.close(CostBreakdown {
            real_ns: start.elapsed_ns(),
            ..CostBreakdown::default()
        });
        Ok(out)
    }

    /// Ingress, then the recovery ladder around the encrypted batch.
    fn serve_inner(
        &self,
        request: &InferRequest,
    ) -> Result<(Vec<Vec<i64>>, Served, HybridMetrics, u64)> {
        let (enc, mut upload_bytes, ingress_stage) = self.ingest(request)?;
        let (rows, served, mut metrics) = self.ladder(request, &enc, &mut upload_bytes)?;
        // The ingress ECALL ran once, before the ladder; prepend its stage so
        // the metrics carry it and the obs `.ecall` span fold still equals
        // `total_enclave_cost` ns-for-ns.
        if let Some(stage) = ingress_stage {
            metrics.stages.insert(0, stage);
        }
        Ok((rows, served, metrics, upload_bytes))
    }

    /// Brings a request's batch into the pipeline by its [`Ingress`] mode, in
    /// [`HybridInference::ingress_layout`]. Returns the map, the bytes the
    /// client shipped, and the ingress stage metrics when an ECALL ran.
    fn ingest(&self, request: &InferRequest) -> Result<(EncryptedMap, u64, Option<StageMetrics>)> {
        self.scoped("session.ingest", || {
            self.check_batch(&request.images)?;
            let batch = request.images.len();
            let (enc, bytes, stage) = match request.ingress {
                Ingress::FvCiphertext => {
                    let upload = self.encrypt_batch(&request.images, Placement::Hybrid)?;
                    let bytes = upload.byte_len() as u64;
                    (self.expand(upload)?, bytes, None)
                }
                Ingress::Transciphered => self.transcipher_batch(&request.images)?,
            };
            let slots = self.service.read().system().slot_count();
            let pixel_ppm = (batch * 1_000_000 / slots) as u64;
            let ppm = enc.occupancy_ppm(slots).unwrap_or(pixel_ppm);
            self.recorder().gauge(counters::SLOT_OCCUPANCY_PPM, ppm);
            Ok((enc, bytes, stage))
        })
    }

    /// Validates a batch where both ingress modes meet: a broker merges
    /// tenants' requests into one batch, so a malformed one must come back as
    /// an error, never reach a shape assert inside an encryptor, and a pixel
    /// outside ±[`MAX_PIXEL`] must never be reduced modulo `t` into an exact
    /// looking answer with wrong logits.
    fn check_batch(&self, images: &[Vec<i64>]) -> Result<()> {
        if images.is_empty() {
            return Err(Error::Config("empty image batch".into()));
        }
        let slots = self.service.read().system().slot_count();
        if images.len() > slots {
            return Err(Error::Config(format!(
                "batch of {} exceeds the {} SIMD slots",
                images.len(),
                slots
            )));
        }
        let side = self.model.in_side;
        match images.iter().find(|img| !self.model.accepts_image(img)) {
            None => Ok(()),
            Some(bad) if bad.len() != side * side => Err(Error::Config(format!(
                "request carries {} pixels per image, the model expects {side}×{side}",
                bad.len()
            ))),
            Some(_) => Err(Error::Config(format!(
                "request carries a pixel outside ±{MAX_PIXEL}"
            ))),
        }
    }

    /// Transciphered ingress: seals the batch under the session ingress key
    /// (the client role) and re-encrypts it under FV inside the enclave
    /// (`ecall_Transcipher`). The nonce comes from a dedicated fork of the
    /// client stream, advanced once per request — deterministic for a fixed
    /// seed, fresh across requests.
    fn transcipher_batch(
        &self,
        images: &[Vec<i64>],
    ) -> Result<(EncryptedMap, u64, Option<StageMetrics>)> {
        let payload = self.seal_batch(images)?;
        let (enc, stage) = self
            .service
            .read()
            .transcipher_ingress(&self.ingress_key, &payload)?;
        Ok((enc, payload.len() as u64, Some(stage)))
    }

    /// The client role of transciphered ingress: seals `images` under the
    /// session ingress key with this request's nonce stream.
    fn seal_batch(&self, images: &[Vec<i64>]) -> Result<Vec<u8>> {
        let mut nonce_rng = self.rng.lock().fork_next("transcipher-nonce");
        seal_ingress_payload(&self.ingress_key, &mut nonce_rng, images)
    }

    /// The recovery ladder over an ingested batch: run the exact plan
    /// (re-provisioning, boundedly, on sealed-state corruption), else — for
    /// a request that opted in — run the degraded plan.
    fn ladder(
        &self,
        request: &InferRequest,
        enc: &EncryptedMap,
        upload_bytes: &mut u64,
    ) -> Result<(Vec<Vec<i64>>, Served, HybridMetrics)> {
        self.scoped("session.ladder", || {
            let batch = request.images.len();
            let mut reprovisions = 0u32;
            loop {
                let err = match self.run_plan(Placement::Hybrid, enc, batch) {
                    Ok((rows, metrics)) => {
                        self.recorder().incr(counters::SERVED_EXACT, 1);
                        return Ok((rows, Served::Exact, metrics));
                    }
                    Err(err) => err,
                };
                match err.classify() {
                    FaultClass::SealedState if reprovisions < MAX_REPROVISIONS => {
                        self.reprovision("sealed-state corruption detected during inference")?;
                        reprovisions += 1;
                    }
                    FaultClass::Transient
                        if request.resilience == Resilience::Degrade
                            && self.service.read().degraded_plan().is_some() =>
                    {
                        // Bounded retries already ran (and were exhausted)
                        // inside the pipeline; keep serving without SGX. (A
                        // service whose parameters cannot carry the pure-HE
                        // plan has no such rung: the error propagates below.)
                        let reason = "transient retries exhausted; pure-HE square fallback";
                        if let Some(hook) = self.hook() {
                            hook.on_recovery(RecoveryEvent::Degraded { reason });
                        }
                        if self.recorder().trace_enabled() {
                            self.recorder().trace_instant(
                                "session.degraded",
                                &[("reason", reason.to_string())],
                            );
                        }
                        // That plan reads a per-pixel map as it is; a
                        // coefficient-encoded one re-enters once, in the
                        // layout the plan asks for.
                        let reingested = match enc.layout() {
                            Layout::Coeff { .. } => {
                                let upload =
                                    self.encrypt_batch(&request.images, Placement::PureHe)?;
                                *upload_bytes += upload.byte_len() as u64;
                                Some(self.expand(upload)?)
                            }
                            _ => None,
                        };
                        let enc = reingested.as_ref().unwrap_or(enc);
                        let (rows, metrics) = self.run_plan(Placement::PureHe, enc, batch)?;
                        self.recorder().incr(counters::SERVED_DEGRADED, 1);
                        return Ok((rows, Served::Degraded, metrics));
                    }
                    _ => return Err(err),
                }
            }
        })
    }

    /// One attempt over an already-encrypted batch: runs the service's plan
    /// for `placement` and decrypts the logits.
    fn run_plan(
        &self,
        placement: Placement,
        enc: &EncryptedMap,
        batch: usize,
    ) -> Result<(Vec<Vec<i64>>, HybridMetrics)> {
        let (logits, metrics) = {
            let service = self.service.read();
            service.run(plan(&service, placement)?, enc)?
        };
        Ok((self.decrypt_logits(&logits, batch)?, metrics))
    }

    /// Probes the sealed secret-key blob (the recovery ladder's
    /// sealed-state check) and heals by re-provisioning when it fails to
    /// verify. Returns `true` when a re-provision was needed.
    ///
    /// # Errors
    ///
    /// Propagates non-sealed-state failures, and sealed-state failures that
    /// persist after re-provisioning.
    pub fn verify_sealed_state(&self) -> Result<bool> {
        match self.service.read().verify_sealed_state() {
            Ok(_) => return Ok(false),
            Err(err) if err.classify() == FaultClass::SealedState => {}
            Err(err) => return Err(err),
        }
        self.reprovision("sealed secret-key blob failed verification")?;
        self.service.read().verify_sealed_state().map(|_| true)
    }

    /// The client role of FV-ciphertext ingress: encrypts a batch
    /// [`Session::check_batch`] has validated in the ingress layout of the
    /// service's plan for `placement`, under the user's copy of the secret
    /// keys, seeded (`c0` and a 32-byte seed a cell part, DESIGN.md §19),
    /// booking the upload.
    fn encrypt_batch(&self, images: &[Vec<i64>], placement: Placement) -> Result<SeededMap> {
        self.scoped("session.encrypt", || {
            let service = self.service.read();
            let (sys, model) = (service.system(), service.model());
            let layout =
                plan(&service, placement)?.ingress_layout(model, images.len(), sys.slot_count());
            // A fresh base per batch (batches never share randomness); the
            // cells fork it, so their streams stay scheduling-independent.
            let batch_rng = self.rng.lock().fork_next("batch");
            let upload = SeededMap::encrypt_images(
                sys,
                images,
                model.in_side,
                layout,
                &self.ceremony.user_secret,
                &batch_rng,
                service.pool(),
            )?;
            self.recorder()
                .incr(counters::INGRESS_UPLOAD_BYTES, upload.byte_len() as u64);
            Ok(upload)
        })
    }

    /// The host role of FV-ciphertext ingress: the uploaded batch, every
    /// part's `a` regenerated from its seed on the service's pool — the one
    /// map the pipeline reads. The upload is gone once the map exists.
    fn expand(&self, upload: SeededMap) -> Result<EncryptedMap> {
        let service = self.service.read();
        Ok(upload.expand(service.system(), service.pool())?)
    }

    /// Decrypts the logits map into one row per batched image.
    fn decrypt_logits(&self, logits: &EncryptedMap, batch: usize) -> Result<Vec<Vec<i64>>> {
        self.scoped("session.decrypt", || {
            let service = self.service.read();
            let (secret, inline) = (&self.ceremony.user_secret, ParExec::serial());
            let rows = logits.decrypt_all(service.system(), secret, batch, &inline)?;
            let narrow = |v: i128| i64::try_from(v).map_err(|_| Error::RangeViolation(v));
            let narrow = |row: Vec<i128>| row.into_iter().map(narrow).collect();
            rows.into_iter().map(narrow).collect()
        })
    }

    /// Rebuilds the provisioned service from the stored platform + model +
    /// config. Same seed → the key ceremony regenerates identical keys, so
    /// everything the user already holds (public keys, secret copy, the
    /// encrypted batch in flight) stays valid.
    fn reprovision(&self, reason: &'static str) -> Result<()> {
        self.scoped("session.reprovision", || {
            let (service, ceremony) = HybridInference::provision_with(
                self.platform.clone(),
                self.model.clone(),
                self.config.clone(),
            )?;
            debug_assert_eq!(
                ceremony.public, self.ceremony.public,
                "same-seed re-provision must regenerate identical keys"
            );
            if let Some(hook) = self.hook() {
                hook.on_recovery(RecoveryEvent::Reprovisioned { reason });
            }
            self.recorder().incr(counters::REPROVISIONS, 1);
            *self.service.write() = service;
            Ok(())
        })
    }

    fn hook(&self) -> Option<&dyn FaultHook> {
        self.chaos.as_ref().map(|c| c.as_ref() as &dyn FaultHook)
    }

    /// The fault report accumulated by the installed chaos plan, if any.
    pub fn fault_report(&self) -> Option<FaultReport> {
        self.chaos.as_ref().map(|c| c.report())
    }

    /// Deterministic JSON encoding of [`Session::fault_report`].
    pub fn fault_report_json(&self) -> Option<String> {
        self.chaos.as_ref().map(|c| c.report_json())
    }

    /// The underlying provisioned service (plan, enclave, CRT system). The
    /// guard holds a shared lock: re-provisioning waits for it to drop.
    pub fn service(&self) -> RwLockReadGuard<'_, HybridInference> {
        self.service.read()
    }

    /// The attested key-ceremony material the user role holds.
    pub fn ceremony(&self) -> &KeyCeremonyPublic {
        &self.ceremony
    }

    /// The quantized model served by this session.
    pub fn model(&self) -> &QuantizedCnn {
        &self.model
    }

    /// The HE worker-thread count.
    pub fn threads(&self) -> usize {
        self.service.read().threads()
    }

    /// The observability recorder installed via [`SessionBuilder::recorder`]
    /// (the disabled no-op recorder when none was).
    pub fn recorder(&self) -> &Recorder {
        &self.config.recorder
    }

    /// The deterministic JSON snapshot of the session's recorder: sorted
    /// keys, modeled cost terms and entry counts only — byte-identical across
    /// runs and worker-pool sizes for a fixed seed.
    pub fn obs_snapshot_json(&self) -> String {
        self.recorder().snapshot_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{EcallBatching, EnclaveOp, Stage};
    use hesgx_chaos::{ChaosEvent, FaultKind, FaultSite};
    use hesgx_nn::quantize::QuantPipeline;

    fn small_model() -> QuantizedCnn {
        QuantizedCnn {
            pipeline: QuantPipeline::Hybrid,
            in_side: 8,
            conv_out: 2,
            kernel: 3,
            window: 2,
            classes: 3,
            conv_weights: (0..18).map(|i| (i % 7) as i64 - 3).collect(),
            conv_bias: vec![5, -9],
            fc_weights: (0..3 * 18).map(|i| (i % 5) as i64 - 2).collect(),
            fc_bias: vec![10, -5, 0],
            weight_scale: 8,
            fc_scale: 8,
            act_scale: 16,
        }
    }

    /// The client role of FV-ciphertext ingress, in the layout `serve` picks.
    fn client_upload(session: &Session, images: &[Vec<i64>]) -> SeededMap {
        session.encrypt_batch(images, Placement::Hybrid).unwrap()
    }

    /// The map the host expands a client's upload into.
    fn client_batch(session: &Session, images: &[Vec<i64>]) -> EncryptedMap {
        session.expand(client_upload(session, images)).unwrap()
    }

    fn build(threads: usize, seed: u64) -> Session {
        SessionBuilder::new()
            .params(ParamsPreset::Small)
            .threads(threads)
            .seed(seed)
            .build(Platform::new(40 + threads as u64), small_model())
            .unwrap()
    }

    #[test]
    fn session_matches_plaintext_reference() {
        let session = build(2, 5);
        let images: Vec<Vec<i64>> = (0..3)
            .map(|b| (0..64).map(|p| ((p + b * 5) % 16) as i64).collect())
            .collect();
        let response = session.serve(InferRequest::batch(images.clone())).unwrap();
        assert_eq!(response.served, Served::Exact);
        for (img, row) in images.iter().zip(&response.logits) {
            assert_eq!(row, &session.model().forward_ints(img));
        }
        // Conv, activation + pooling, FC: this model's 3 × 18 FC values are
        // no ciphertext's worth, so they leave per pixel — nothing to reduce.
        assert_eq!(response.metrics.stages.len(), 3);
        assert_eq!(response.metrics.threads, 2);
        // With sixteen classes the FC layer is wider than a ciphertext (16 ×
        // 18 values an image), but packed it would cross the enclave in 1 +
        // 16 + 1 ciphertexts, per pixel in 18: it still leaves per pixel.
        let sixteen = QuantizedCnn {
            classes: 16,
            fc_weights: (0..16 * 18).map(|i| (i % 5) as i64 - 2).collect(),
            fc_bias: (0..16).map(|i| i % 9 - 4).collect(),
            ..small_model()
        };
        // Four maps and eight classes (8 × 36 values an image, 1 + 8 + 1
        // crossings packed against 36): four stages, the closing reduction
        // last.
        let wide = QuantizedCnn {
            conv_out: 4,
            classes: 8,
            conv_weights: (0..36).map(|i| (i % 7) as i64 - 3).collect(),
            conv_bias: vec![5, -9, 3, -1],
            fc_weights: (0..8 * 36).map(|i| (i % 5) as i64 - 2).collect(),
            fc_bias: (0..8).map(|i| i % 9 - 4).collect(),
            ..small_model()
        };
        for (model, closing) in [
            (sixteen, None),
            (wide, Some("Logit Reduction (SGX inside)")),
        ] {
            let session = SessionBuilder::new()
                .params(ParamsPreset::Small)
                .threads(2)
                .seed(5)
                .build(Platform::new(48), model)
                .unwrap();
            let response = session.serve(InferRequest::batch(images.clone())).unwrap();
            for (img, row) in images.iter().zip(&response.logits) {
                assert_eq!(row, &session.model().forward_ints(img));
            }
            let names: Vec<&str> = response.metrics.stages[2..]
                .iter()
                .map(|stage| stage.name.as_str())
                .collect();
            let mut want = vec!["Fully Connected Layer (HE outside)"];
            want.extend(closing);
            assert_eq!(names, want);
        }
    }

    #[test]
    fn single_image_shorthand() {
        let session = build(1, 6);
        let image: Vec<i64> = (0..64).map(|p| (p % 16) as i64).collect();
        let response = session.serve(InferRequest::single(image.clone())).unwrap();
        assert_eq!(response.logits, vec![session.model().forward_ints(&image)]);
    }

    #[test]
    fn response_trace_ids_follow_the_request_ordinal() {
        let session = build(1, 7);
        let image: Vec<i64> = (0..64).map(|p| (p % 16) as i64).collect();
        let a = session.serve(InferRequest::single(image.clone())).unwrap();
        let b = session.serve(InferRequest::single(image)).unwrap();
        assert_eq!(a.trace_id, "req-0000000000000007-0");
        assert_eq!(b.trace_id, "req-0000000000000007-1");
    }

    #[test]
    fn batch_limits_are_config_errors() {
        let session = build(1, 7);
        assert!(matches!(
            session.serve(InferRequest::batch(Vec::new())).unwrap_err(),
            Error::Config(_)
        ));
        let too_many: Vec<Vec<i64>> = (0..session.service().system().slot_count() + 1)
            .map(|_| vec![0; 64])
            .collect();
        assert!(matches!(
            session.serve(InferRequest::batch(too_many)).unwrap_err(),
            Error::Config(_)
        ));
        // A wrong-length image is refused the same way on both ingress
        // modes, before it can reach a shape assert inside an encryptor —
        // alone or hidden behind a well-formed image in a merged batch.
        for ingress in [Ingress::FvCiphertext, Ingress::Transciphered] {
            for images in [vec![vec![0; 63]], vec![vec![0; 64], vec![0; 65]]] {
                let err = session
                    .serve(InferRequest::batch(images).ingress(ingress))
                    .unwrap_err();
                assert!(
                    matches!(&err, Error::Config(msg) if msg.contains("the model expects 8×8")),
                    "{ingress:?}: {err}"
                );
            }
        }
        // So is a pixel outside ±MAX_PIXEL, which would otherwise wrap
        // modulo t into an exact-looking answer with wrong logits.
        for ingress in [Ingress::FvCiphertext, Ingress::Transciphered] {
            for pixel in [16, -16, i64::MIN, i64::MAX] {
                let mut image = vec![0; 64];
                image[9] = pixel;
                let err = session
                    .serve(InferRequest::batch(vec![vec![0; 64], image]).ingress(ingress))
                    .unwrap_err();
                assert!(
                    matches!(&err, Error::Config(msg) if msg.contains("outside ±15")),
                    "{ingress:?}, pixel {pixel}: {err}"
                );
            }
        }
        // The refusals left the session serving.
        let image: Vec<i64> = (0..64).map(|p| (p % 16) as i64).collect();
        let response = session.serve(InferRequest::single(image.clone())).unwrap();
        assert_eq!(response.logits, vec![session.model().forward_ints(&image)]);
    }

    /// The degree is checked where it is consumed, so a hand-built
    /// [`ProvisionConfig`] gets the same refusal `build` would — and a zero
    /// degree never reaches the modulus chooser's division.
    #[test]
    fn bad_degree_rejected_at_provisioning() {
        for poly_degree in [0, 1, 300] {
            let config = ProvisionConfig {
                poly_degree,
                ..ProvisionConfig::default()
            };
            let err = HybridInference::provision_with(Platform::new(49), small_model(), config)
                .unwrap_err();
            assert!(matches!(err, Error::Config(_)), "{poly_degree}: {err}");
        }
    }

    #[test]
    fn consecutive_batches_use_distinct_encryption_streams() {
        let session = build(1, 8);
        let image: Vec<i64> = (0..64).map(|p| (p % 16) as i64).collect();
        // Same plaintext twice: values equal, but a fresh random stream each
        // call (the client RNG advances between batches).
        let a = session.serve(InferRequest::single(image.clone())).unwrap();
        let b = session.serve(InferRequest::single(image.clone())).unwrap();
        assert_eq!(a.logits, b.logits);
        // Regression: the per-batch base and the transcipher nonce stream
        // were plain forks of the client stream — a function of its key, not
        // its position — so every request reused one batch's encryption
        // randomness and one ChaCha20 nonce.
        let images = [image];
        let first = client_batch(&session, &images);
        assert_ne!(first.cells(), client_batch(&session, &images).cells());
        assert_ne!(
            session.seal_batch(&images).unwrap(),
            session.seal_batch(&images).unwrap()
        );
        // Still a pure function of the seed and the request ordinal.
        let replay = build(1, 8);
        for _ in 0..2 {
            client_batch(&replay, &images);
        }
        assert_eq!(first.cells(), client_batch(&replay, &images).cells());
    }

    /// The §IV-E refresh is an operator of hand-built plans: between pooling
    /// and the FC layer it is one more crossing and changes no logit.
    #[test]
    fn noise_refresh_adds_a_stage_without_changing_logits() {
        let session = build(1, 9);
        let images = [(0..64).map(|p| (p % 16) as i64).collect::<Vec<i64>>()];
        let enc = client_batch(&session, &images);
        let service = session.service();
        let mut refreshed = service.plan().clone();
        refreshed
            .stages
            .insert(2, Stage::enclave(EnclaveOp::Refresh));
        let (plain, plain_metrics) = service.run(service.plan(), &enc).unwrap();
        let (fresh, fresh_metrics) = service.run(&refreshed, &enc).unwrap();
        drop(service);
        let rows = session.decrypt_logits(&fresh, 1).unwrap();
        assert_eq!(rows, session.decrypt_logits(&plain, 1).unwrap());
        assert_eq!(rows, vec![session.model().forward_ints(&images[0])]);
        assert_eq!(fresh_metrics.stages.len(), plain_metrics.stages.len() + 1);
        assert_eq!(fresh_metrics.stages[2].name, "Noise Refresh (SGX inside)");
    }

    #[test]
    fn transciphered_ingress_matches_fv_ingress_with_smaller_upload() {
        let images: Vec<Vec<i64>> = (0..2)
            .map(|b| (0..64).map(|p| ((p * 3 + b) % 16) as i64).collect())
            .collect();
        let fv = build(1, 16)
            .serve(InferRequest::batch(images.clone()))
            .unwrap();
        let tc = build(1, 16)
            .serve(InferRequest::batch(images).ingress(Ingress::Transciphered))
            .unwrap();
        assert_eq!(fv.logits, tc.logits, "ingress mode must not change logits");
        assert_eq!(tc.served, Served::Exact);
        assert!(
            tc.upload_bytes * 10 < fv.upload_bytes,
            "stream payload ({}) must undercut the FV upload ({}) by 10x+",
            tc.upload_bytes,
            fv.upload_bytes
        );
        // The transciphered run carries the extra ingress ECALL stage.
        assert_eq!(tc.metrics.stages.len(), fv.metrics.stages.len() + 1);
        assert_eq!(
            tc.metrics.stages[0].name,
            "Transciphered Ingress (SGX inside)"
        );
    }

    #[test]
    fn transient_faults_recover_with_exact_output() {
        let image: Vec<i64> = (0..64).map(|p| ((p * 5) % 16) as i64).collect();
        let session = SessionBuilder::new()
            .params(ParamsPreset::Small)
            .threads(1)
            .seed(10)
            .chaos(FaultPlan::new(1).script(FaultSite::EcallEnter, 0, FaultKind::Transient))
            .build(Platform::new(42), small_model())
            .unwrap();
        let response = session.serve(InferRequest::single(image.clone())).unwrap();
        assert_eq!(response.logits, vec![session.model().forward_ints(&image)]);
        let report = session.fault_report().expect("chaos installed");
        assert_eq!(report.injected_at(FaultSite::EcallEnter), 1);
        assert!(matches!(
            report
                .events
                .iter()
                .find(|e| matches!(e, ChaosEvent::Recovery(_))),
            Some(ChaosEvent::Recovery(RecoveryEvent::Retry { .. }))
        ));
    }

    #[test]
    fn seal_corruption_heals_by_reprovision() {
        let session = SessionBuilder::new()
            .params(ParamsPreset::Small)
            .threads(1)
            .seed(11)
            .chaos(FaultPlan::new(2).script(FaultSite::Seal, 0, FaultKind::Corruption))
            .build(Platform::new(43), small_model())
            .unwrap();
        assert!(session.verify_sealed_state().unwrap(), "must re-provision");
        let report = session.fault_report().unwrap();
        assert!(report.reprovisioned());
        // The healed session still serves exact inference.
        let image: Vec<i64> = (0..64).map(|p| (p % 16) as i64).collect();
        let response = session.serve(InferRequest::single(image.clone())).unwrap();
        assert_eq!(response.logits, vec![session.model().forward_ints(&image)]);
    }

    /// ROADMAP item 1, enclave half. A broker's workers are same-seed
    /// sessions on one platform — one key ceremony, one secret key — and a
    /// re-provision rebuilds the same keys again. Under one key a repeated
    /// mask (`c1 = a` of the symmetric form, which the client's batches,
    /// the enclave's re-encryptions and its transcipher ingress all use
    /// under the one `s`; a transcipher nonce) lets the host subtract two
    /// ciphertexts, so no stream may repeat across worker 0, worker 1 and
    /// worker 0's re-provisioned successor.
    #[test]
    fn no_mask_repeats_across_workers_or_reprovisioning() {
        use hesgx_bfv::serialization::ciphertext_to_bytes;
        let platform = Platform::new(47);
        let worker = || {
            SessionBuilder::new()
                .params(ParamsPreset::Small)
                .threads(1)
                .seed(17)
                .build(platform.clone(), small_model())
                .unwrap()
        };
        let (w0, w1) = (worker(), worker());
        assert_eq!(w0.ceremony().public, w1.ceremony().public, "one key domain");
        let images = vec![(0..64).map(|p| (p % 16) as i64).collect::<Vec<i64>>()];
        // The last limb of the last polynomial of a size-2 ciphertext: c1.
        let c1 = |map: &EncryptedMap| -> Vec<Vec<u8>> {
            let parts = map
                .cells()
                .iter()
                .flat_map(|ct| (0..ct.part_count()).map(|p| ciphertext_to_bytes(ct.part(p))));
            parts
                .map(|bytes| bytes[bytes.len() - 8 * 256..].to_vec())
                .collect()
        };
        // Every seed a client upload carries, one a cell part.
        let seeds = |upload: &SeededMap| -> Vec<[u8; 32]> {
            let cells = upload.cells().iter();
            cells
                .flat_map(|ct| (0..ct.part_count()).map(|p| *ct.part(p).seed()))
                .collect()
        };
        // The client role: each worker's first batch and first payload, and
        // worker 0's second batch — its seeds, and the `a` the host expands.
        let (up0, up1) = (client_upload(&w0, &images), client_upload(&w1, &images));
        let up2 = client_upload(&w0, &images);
        let mut sent = [seeds(&up0), seeds(&up1), seeds(&up2)].concat();
        let (enc0, enc1) = (w0.expand(up0).unwrap(), w1.expand(up1).unwrap());
        let mut seen = [c1(&enc0), c1(&enc1), c1(&w0.expand(up2).unwrap())].concat();
        seen.push(w0.seal_batch(&images).unwrap());
        seen.push(w1.seal_batch(&images).unwrap());
        // What the transcipher-ingress ECALL emits.
        let transciphered = |session: &Session| c1(&session.transcipher_batch(&images).unwrap().0);
        // What the host sees leave a service's first four ECALLs: two
        // refreshes, then the cell a packed egress emits (the 16 pooled
        // values of the ingress map, each once) and the reduced cell of the
        // closing stage.
        let first_ecalls = |session: &Session| -> Vec<Vec<u8>> {
            let service = session.service();
            let mut seen = Vec::new();
            let mut map = enc0.clone();
            let operand = Layout::FcOperand {
                classes: 1,
                batch: 1,
                inputs: 16,
            };
            for (chain, from_last, emit) in [
                (vec![EnclaveOp::Refresh], false, Layout::Pixel),
                (vec![EnclaveOp::Refresh], false, Layout::Pixel),
                (vec![EnclaveOp::MeanPool], false, operand),
                (vec![EnclaveOp::LogitReduce], true, Layout::Pixel),
            ] {
                let input = if from_last { &map } else { &enc0 };
                let (sys, model) = (service.system(), service.model());
                let (batched, serial) = (EcallBatching::Batched, ParExec::serial());
                let (out, _) = service
                    .enclave()
                    .apply(&chain, sys, model, input, batched, emit, &serial)
                    .unwrap();
                seen.extend(c1(&out));
                map = out;
            }
            seen
        };
        for worker in [&w0, &w1] {
            seen.extend(first_ecalls(worker));
            seen.extend(transciphered(worker));
        }
        w0.reprovision("test").unwrap();
        seen.extend(first_ecalls(&w0));
        seen.extend(transciphered(&w0));
        let total = seen.len();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), total, "a mask or nonce was used twice");
        // The re-provisioned successor's client keeps drawing fresh seeds.
        sent.extend(seeds(&client_upload(&w0, &images)));
        let total = sent.len();
        sent.sort_unstable();
        sent.dedup();
        assert_eq!(sent.len(), total, "a seed was sent twice");
    }

    /// The host's half of FV ingress: a client upload — the `Coeff` batch
    /// of the exact plan, and the orbit batch the degraded rung re-sends —
    /// expands to one map at pools 1, 2 and 4, each part the `c0` that
    /// travelled and the `a` its seed gives, and that map runs exact.
    #[test]
    fn an_upload_expands_bit_identically_on_every_pool() {
        let deep = QuantizedCnn {
            act_scale: 1 << 23,
            ..small_model()
        };
        let session = SessionBuilder::new()
            .params(ParamsPreset::Small)
            .threads(1)
            .seed(18)
            .build(Platform::new(48), deep.clone())
            .unwrap();
        let image: Vec<i64> = (0..64).map(|p| ((p * 7) % 16) as i64).collect();
        for placement in [Placement::Hybrid, Placement::PureHe] {
            let upload = session
                .encrypt_batch(std::slice::from_ref(&image), placement)
                .unwrap();
            let service = session.service();
            let sys = service.system();
            let map = upload.clone().expand(sys, &ParExec::serial()).unwrap();
            for threads in [2, 4] {
                let pool = ParExec::new(threads);
                assert_eq!(upload.clone().expand(sys, &pool).unwrap(), map);
            }
            for (seeded, cell) in upload.cells().iter().zip(map.cells()) {
                for (part, ctx) in sys.contexts().iter().enumerate() {
                    assert_eq!(&seeded.part(part).expand(ctx).unwrap(), cell.part(part));
                }
            }
            let plan = match placement {
                Placement::Hybrid => service.plan(),
                Placement::PureHe => service.degraded_plan().expect("the deep model has one"),
            };
            let (logits, _) = service.run(plan, &map).unwrap();
            drop(service);
            let want = match placement {
                Placement::Hybrid => deep.forward_ints(&image),
                Placement::PureHe => QuantizedCnn {
                    pipeline: QuantPipeline::CryptoNets,
                    ..deep.clone()
                }
                .forward_ints(&image),
            };
            assert_eq!(session.decrypt_logits(&logits, 1).unwrap(), vec![want]);
        }
    }

    #[test]
    fn exhausted_retries_degrade_but_keep_serving() {
        // Four consecutive scripted faults on the first ECALL exceed the
        // default budget of 3 retries; the resilient path must fall back.
        let exhausting = || {
            (0..4).fold(FaultPlan::new(3), |plan, occurrence| {
                plan.script(FaultSite::EcallEnter, occurrence, FaultKind::Transient)
            })
        };
        let session_for = |platform, model: QuantizedCnn| {
            SessionBuilder::new()
                .params(ParamsPreset::Small)
                .threads(1)
                .seed(12)
                .chaos(exhausting())
                .build(Platform::new(platform), model)
                .unwrap()
        };
        // The degraded rung exists where the parameters carry the pure-HE
        // plan: a hybrid range wide enough to need the deep composition
        // and to cover the squares.
        let deep = QuantizedCnn {
            act_scale: 1 << 23,
            ..small_model()
        };
        let session = session_for(44, deep.clone());
        let image: Vec<i64> = (0..64).map(|p| (p % 4) as i64).collect();
        let degrade = || InferRequest::single(image.clone()).resilience(Resilience::Degrade);
        let response = session.serve(degrade()).unwrap();
        assert_eq!(response.served, Served::Degraded);
        // Degraded is exact too — against the pure-HE reference.
        let pure_he = QuantizedCnn {
            pipeline: QuantPipeline::CryptoNets,
            ..deep
        };
        assert_eq!(response.logits, vec![pure_he.forward_ints(&image)]);
        assert!(session.fault_report().unwrap().degraded());
        // The request came in one coefficient-encoded cell; the pure-HE
        // plan cannot read that, so the rung re-ingested it in the orbit
        // layout (9 offsets × 4 window members) and the response owns up to
        // both uploads.
        let seeded = session.service().system().seeded_ciphertext_byte_len() as u64;
        assert_eq!(response.upload_bytes, (1 + 36) * seeded);
        {
            let upload = session
                .encrypt_batch(std::slice::from_ref(&image), Placement::PureHe)
                .unwrap();
            let enc = session.expand(upload).unwrap();
            assert_eq!(enc.cells().len(), 36);
            let service = session.service();
            let plan = service.degraded_plan().expect("the deep model has one");
            let (logits, _) = service.run(plan, &enc).unwrap();
            let refs: Vec<_> = logits.cells().iter().collect();
            let (budget, _) = service
                .enclave()
                .noise_probe(service.system(), &refs)
                .unwrap();
            assert!(budget > 0, "degraded logits ran out of noise budget");
        }
        // A fail-fast request propagates the same exhaustion as an error.
        let session2 = session_for(45, small_model());
        let err = session2
            .serve(InferRequest::single(image.clone()))
            .unwrap_err();
        assert!(err.is_transient(), "{err}");
        // And so does a `Degrade` request on a service sized for the hybrid
        // plan alone: the pure-HE logits would wrap modulo its plaintext
        // modulus, so no degraded plan was compiled and nothing degrades.
        let session3 = session_for(46, small_model());
        assert!(session3.service().degraded_plan().is_none());
        let err = session3.serve(degrade()).unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert!(!session3.fault_report().unwrap().degraded());
    }
}
