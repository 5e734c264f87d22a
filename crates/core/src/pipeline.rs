//! The hybrid inference pipeline — the paper's Fig. 2 put together.
//!
//! `EncryptSGX` flow: homomorphic convolution outside → exact sigmoid and
//! pooling inside, in one crossing → homomorphic fully connected outside →
//! encrypted logits back to the user. Per-stage wall-clock and enclave
//! virtual-time metrics are collected for the Fig. 8 comparison.

use crate::error::{Error, Result};
use crate::keydist::{
    enclave_generate_keys, seal_secret_keys, secret_key_bytes, KeyCeremonyPublic,
};
use crate::planner::{plan_for, EcallBatching, EnclaveOp, InferencePlan, Placement, Stage};
use crate::sgx_ops::InferenceEnclave;
use hesgx_bfv::prelude::{EvaluationKeys, GaloisKeys};
use hesgx_chaos::FaultHook;
use hesgx_crypto::rng::ChaChaRng;
use hesgx_henn::crt::{CrtCiphertext, CrtPlainSystem};
use hesgx_henn::cryptonets::CryptoNets;
use hesgx_henn::image::{EncryptedMap, Layout};
use hesgx_henn::layers::{HeLayer, HeLayers};
use hesgx_henn::ops::OpCounter;
use hesgx_henn::par::ParExec;
use hesgx_nn::layers::ActivationKind;
use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};
use hesgx_obs::{counters, Recorder};
use hesgx_tee::cost::{CostBreakdown, CostModel};
use hesgx_tee::enclave::{EnclaveBuilder, Platform};
use hesgx_tee::error::TeeError;
use hesgx_tee::sealing::SealedBlob;
use hesgx_tee::wall::WallTimer;
use std::sync::Arc;
use std::time::Duration;

/// Timing of one pipeline stage.
#[derive(Debug, Clone)]
pub struct StageMetrics {
    /// Stage label.
    pub name: String,
    /// Real wall-clock time of the untrusted-side work.
    pub wall: Duration,
    /// Enclave cost (virtual time), when the stage crossed into SGX.
    pub enclave: Option<CostBreakdown>,
}

impl StageMetrics {
    /// Wall time plus modeled enclave overhead (the number the paper reports).
    pub fn effective(&self) -> Duration {
        match &self.enclave {
            // In-enclave work: its body time is inside `wall` already; add the
            // modeled overhead terms on top.
            Some(cost) => {
                let overhead = cost.total_ns().saturating_sub(cost.real_ns);
                self.wall + Duration::from_nanos(overhead)
            }
            None => self.wall,
        }
    }
}

/// Full-pipeline metrics.
#[derive(Debug, Clone, Default)]
pub struct HybridMetrics {
    /// Per-stage timings, in execution order.
    pub stages: Vec<StageMetrics>,
    /// Homomorphic operation counts.
    pub ops: OpCounter,
    /// Worker threads the run executed with (1 = serial).
    pub threads: usize,
}

impl HybridMetrics {
    /// Total effective time across stages.
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|s| s.effective()).sum()
    }
}

/// What a stage body hands back to [`HybridInference::run_stage`].
pub(crate) struct Staged {
    /// The stage's output map, passed through to the caller.
    out: EncryptedMap,
    /// Display name for [`StageMetrics::name`].
    label: String,
    /// `Some` marks an ECALL stage and carries what crossing the boundary
    /// cost; `None` is an HE stage that never left the untrusted side.
    enclave: Option<CostBreakdown>,
}

impl Staged {
    /// An HE stage: wall time only.
    fn he(out: EncryptedMap, label: impl Into<String>) -> Self {
        Staged {
            out,
            label: label.into(),
            enclave: None,
        }
    }

    /// An ECALL stage with its enclave cost.
    pub(crate) fn ecall(out: EncryptedMap, label: impl Into<String>, cost: CostBreakdown) -> Self {
        Staged {
            out,
            label: label.into(),
            enclave: Some(cost),
        }
    }
}

/// Everything [`HybridInference::provision_with`] needs beyond the platform
/// and the model. [`ProvisionConfig::default`] matches the paper's setup:
/// `poly_degree = 1024`, real-SGX cost model, one worker per available core,
/// sigmoid activation.
#[derive(Debug, Clone)]
pub struct ProvisionConfig {
    /// FV polynomial degree (the paper uses 1024 for the MNIST CNN).
    pub poly_degree: usize,
    /// Seed for the enclave identity, key ceremony, and re-encryption RNG.
    pub seed: u64,
    /// Enclave cost model; `None` is the calibrated SGX model, and
    /// [`CostModel::fake_sgx`] gives the paper's `EncryptFakeSGX` control.
    pub cost_model: Option<CostModel>,
    /// HE worker threads; `0` means one per available core, `1` is serial.
    pub threads: usize,
    /// The activation computed exactly inside the enclave (paper §VI-C:
    /// ReLU and Tanh work just as well as Sigmoid).
    pub activation: ActivationKind,
    /// Fault-injection hook threaded through every enclave boundary (ECALL
    /// entry/exit, EPC paging, seal/unseal, noise refresh). `None` runs
    /// fault-free with zero overhead on the hot paths.
    pub fault_hook: Option<Arc<dyn FaultHook>>,
    /// Observability recorder threaded through the enclave, the worker pool,
    /// and the pipeline stages. The default is the disabled no-op recorder:
    /// recording costs nothing unless a caller installs an enabled one.
    pub recorder: Recorder,
}

impl Default for ProvisionConfig {
    fn default() -> Self {
        ProvisionConfig {
            poly_degree: 1024,
            seed: 0,
            cost_model: None,
            threads: 0,
            activation: ActivationKind::Sigmoid,
            fault_hook: None,
            recorder: Recorder::disabled(),
        }
    }
}

/// The hybrid HE + SGX inference service.
#[derive(Debug)]
pub struct HybridInference {
    /// The layers that run under HE outside the enclave: CRT system, model,
    /// prepared weight banks, worker pool.
    he: HeLayers,
    enclave: InferenceEnclave,
    /// The exact plan ([`Placement::Hybrid`]) compiled at provisioning.
    plan: InferencePlan,
    /// The same model compiled for [`Placement::PureHe`], when the
    /// provisioned parameters can carry it.
    degraded_plan: Option<InferencePlan>,
    /// Evaluation and Galois keys for the pure-HE degraded plan (its square
    /// relinearizes, its orbit FC rotates; no Galois keys without it).
    /// Private on purpose: the secret-hygiene lint forbids both in public
    /// signatures outside bfv/henn.
    evaluation: Vec<EvaluationKeys>,
    galois: Vec<GaloisKeys>,
    /// Sealed copy of the secret keys (restart persistence, §IV-A step 2);
    /// probed by [`HybridInference::verify_sealed_state`].
    sealed_keys: SealedBlob,
}

/// Display name of an HE stage in [`StageMetrics::name`].
fn he_label(layer: HeLayer) -> &'static str {
    match layer {
        HeLayer::Conv => "Convolutional Layer (HE outside)",
        HeLayer::Square => "Square Activation (HE fallback)",
        HeLayer::SumPool => "Window Sum (HE outside)",
        HeLayer::Fc => "Fully Connected Layer (HE outside)",
    }
}

impl HybridInference {
    /// Provisions the service on `platform`: builds the inference enclave,
    /// runs the in-enclave key ceremony, and returns the service plus the
    /// attested public material for users.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when the polynomial degree is not a power
    /// of two ≥ 2, the model is not quantized for the hybrid pipeline, its
    /// geometry is inconsistent ([`QuantizedCnn::check_geometry`]) or its
    /// range does not fit `i64`; fails when the HE parameters cannot cover
    /// its value range.
    pub fn provision_with(
        platform: Arc<Platform>,
        model: QuantizedCnn,
        config: ProvisionConfig,
    ) -> Result<(Self, KeyCeremonyPublic)> {
        let n = config.poly_degree;
        if n < 2 || !n.is_power_of_two() {
            return Err(Error::Config(format!(
                "polynomial degree must be a power of two >= 2, got {n}"
            )));
        }
        if model.pipeline != QuantPipeline::Hybrid {
            return Err(Error::Config(format!(
                "model quantized for {:?}, the hybrid pipeline needs QuantPipeline::Hybrid",
                model.pipeline
            )));
        }
        model.check_geometry().map_err(Error::Config)?;
        // One scope on every face; it books the key ceremony below.
        let scope = config.recorder.open("session.provision", &[]);
        let report = model.range_report().map_err(Error::Config)?;
        let moduli = CrtPlainSystem::moduli_for(n, report.required_plain_bits, 0);
        // The parameters are sized for the hybrid plan; the pure-HE plan's
        // squares and undivided window sums grow far past `act_scale`. It is
        // compiled only where the service's moduli begin with the ones
        // `CryptoNets` builds for *its* range; else there is no degraded rung.
        let pure_he = QuantizedCnn {
            pipeline: QuantPipeline::CryptoNets,
            ..model.clone()
        };
        let carried = CryptoNets::moduli(&pure_he, n).is_ok_and(|own| moduli.starts_with(&own));
        let steps = carried.then(|| CryptoNets::rotations(&pure_he, n));
        let sys = CrtPlainSystem::new(n, &moduli).map_err(Error::He)?;
        let sys = sys.with_rotations(steps.unwrap_or_default());
        let compile = |placement| plan_for(config.activation, placement);
        let plan = compile(Placement::Hybrid);
        let degraded_plan = carried.then(|| compile(Placement::PureHe));
        let pool = ParExec::new(config.threads).with_recorder(config.recorder.clone());
        let he = HeLayers::new(sys, model, pool).map_err(Error::He)?;
        // The enclave heap, one arena resident until evicted, must hold a
        // full encrypted feature map and its staging; the EPC stays at its
        // hardware size, so a working set past it pages on every request (and
        // is charged) as the paper's §III-B describes, one inside it only on
        // its first touch.
        let mut builder = EnclaveBuilder::new("hesgx-inference")
            .add_code(b"hesgx-hybrid-inference-v1")
            .heap_bytes(512 * 1024 * 1024)
            .seed(config.seed);
        if let Some(cost_model) = config.cost_model {
            builder = builder.cost_model(cost_model);
        }
        if let Some(hook) = &config.fault_hook {
            builder = builder.fault_hook(hook.clone());
        }
        builder = builder.recorder(config.recorder.clone());
        let enclave = builder.build(platform);
        let mut rng = ChaChaRng::from_seed(config.seed).fork("provision");
        let provision_start = WallTimer::start();
        let (keys, ceremony) = enclave_generate_keys(&enclave, he.system(), &mut rng)?;
        // Seal the secret keys right after the ceremony; a corrupted seal
        // (crash mid-write, injected fault) is only *detected* at the next
        // unseal, which is exactly what verify_sealed_state probes.
        let sealed_keys = seal_secret_keys(&enclave, &keys.secret);
        // The key-ceremony ECALL already recorded its own `ecall.*` span;
        // `session.provision` is the session-level rollup of the same
        // modeled cost plus the untrusted-side wall time around it.
        let mut cost = ceremony.keygen_cost;
        cost.real_ns = provision_start.elapsed_ns();
        scope.close(cost);
        let inference =
            InferenceEnclave::new(enclave, keys.secret, keys.public, config.seed ^ 0x1ee7);
        let service = HybridInference {
            plan,
            degraded_plan,
            he,
            enclave: inference,
            evaluation: keys.evaluation,
            galois: keys.galois,
            sealed_keys,
        };
        Ok((service, ceremony))
    }

    /// The CRT system (for user-side encryption/decryption).
    pub fn system(&self) -> &CrtPlainSystem {
        self.he.system()
    }

    /// The quantized model.
    pub fn model(&self) -> &QuantizedCnn {
        self.he.model()
    }

    /// [`InferencePlan::ingress_layout`] of [`HybridInference::plan`].
    pub fn ingress_layout(&self, batch: usize) -> Layout {
        let slots = self.system().slot_count();
        self.plan.ingress_layout(self.model(), batch, slots)
    }

    /// The exact plan compiled at provisioning — the stage list
    /// [`HybridInference::run`] walks when the enclave is available. Clone
    /// it and swap a stage to run a Fig. 8 control group, the `SgxDiv`
    /// pooling split or a noise refresh on the same service.
    pub fn plan(&self) -> &InferencePlan {
        &self.plan
    }

    /// The same model compiled for [`Placement::PureHe`]: what the session's
    /// recovery ladder runs once the enclave stays unavailable, with the
    /// Galois keys its orbit FC rotates under. `None` when the provisioned
    /// parameters — sized for the hybrid plan's range — do not begin with
    /// the moduli [`CryptoNets::moduli`] picks for the model's
    /// [`QuantPipeline::CryptoNets`] range, or that range overflows `i64`:
    /// serving it anyway would return wrapped logits.
    pub fn degraded_plan(&self) -> Option<&InferencePlan> {
        self.degraded_plan.as_ref()
    }

    /// The inference enclave (measurement, launch ordinal, recorder).
    pub fn enclave(&self) -> &InferenceEnclave {
        &self.enclave
    }

    /// The HE worker-thread count this service runs with.
    pub fn threads(&self) -> usize {
        self.he.pool().threads()
    }

    /// The observability recorder this service reports into: the
    /// enclave's own (disabled no-op unless [`ProvisionConfig::recorder`]
    /// installed an enabled one).
    pub fn recorder(&self) -> &Recorder {
        self.enclave.enclave().recorder()
    }

    /// The HE worker pool (crate-internal: the ingress dispatch shares it).
    pub(crate) fn pool(&self) -> &ParExec {
        self.he.pool()
    }

    /// Runs one pipeline stage — the single instrumentation point of the
    /// pipeline. `span` names the stage on every observability face
    /// ([`Recorder::open`]): the trace-timeline slice, the profiler frame
    /// and the recorder span. A failed body drops the scope, which closes
    /// the slice and the frame and books nothing. Otherwise the span books
    /// wall time only for an `.he` stage (no boundary crossing, so no
    /// modeled terms) and the stage's full [`CostBreakdown`] for an
    /// `.ecall` stage — which is what makes the obs totals reconcile
    /// ns-for-ns with [`total_enclave_cost`] — and the stage's
    /// [`StageMetrics`] are appended. The body gets the metrics record for
    /// its op counts and hands back a [`Staged`] result.
    pub(crate) fn run_stage(
        &self,
        metrics: &mut HybridMetrics,
        span: &str,
        body: impl FnOnce(&mut HybridMetrics) -> Result<Staged>,
    ) -> Result<EncryptedMap> {
        let start = WallTimer::start();
        let recorder = self.recorder();
        let scope = recorder.open(span, &[]);
        let staged = body(metrics)?;
        let wall = start.elapsed();
        let cost = staged.enclave.unwrap_or(CostBreakdown {
            real_ns: wall.as_nanos() as u64,
            ..CostBreakdown::default()
        });
        scope.close(cost);
        if staged.enclave.is_some() && recorder.is_enabled() {
            // Per-layer ECALL cost distribution (modeled terms only, so the
            // histogram stays byte-stable across runs and pool sizes).
            recorder.observe(&format!("{span}.model_ns"), cost.model_ns());
        }
        metrics.stages.push(StageMetrics {
            name: staged.label,
            wall,
            enclave: staged.enclave,
        });
        Ok(staged.out)
    }

    /// Recorder-gated budget telemetry: measures the minimum invariant-noise
    /// budget of `map` inside the enclave and records the bit-count as a
    /// `noise.budget.layer[{layer}].{side}` gauge sample (`side` is `pre` or
    /// `post`). The probe's ECALL cost books under `ecall.ecall_NoiseProbe`,
    /// never under a pipeline stage, so the reconciliation invariant (the
    /// `infer.*.ecall` fold equals `total_enclave_cost`) is untouched.
    fn budget_gauge(&self, layer: usize, side: &str, map: &EncryptedMap) -> Result<()> {
        if !self.recorder().is_enabled() || map.cells().is_empty() {
            return Ok(());
        }
        let cells: Vec<&CrtCiphertext> = map.cells().iter().collect();
        let (bits, _) = self.enclave.noise_probe(self.system(), &cells)?;
        let gauge = format!("noise.budget.layer[{layer}].{side}");
        self.recorder().gauge(&gauge, u64::from(bits));
        self.recorder().incr(counters::NOISE_PROBES, 1);
        Ok(())
    }

    /// The body of an enclave stage: the map crosses the boundary once in
    /// [`InferenceEnclave::apply`], with recorder-gated budget telemetry
    /// either side (the pre-probe measures what actually crosses).
    fn enclave_stage(
        &self,
        plan: &InferencePlan,
        layer: usize,
        (ops, batching): (&[EnclaveOp], EcallBatching),
        input: &EncryptedMap,
    ) -> Result<Staged> {
        self.budget_gauge(layer, "pre", input)?;
        let (sys, model, pool) = (self.system(), self.model(), self.pool());
        // The live share of the crossing cells' slots, where the map says (a
        // `Pixel` map's batch is the session's to know).
        if let Some(ppm) = input.occupancy_ppm(sys.slot_count()) {
            let gauge = format!("infer.layer[{layer}].slot_occupancy_ppm");
            self.recorder().gauge(&gauge, ppm);
        }
        let emit = plan.egress_layout(layer, model, input.layout(), sys.slot_count());
        let (out, cost) = self
            .enclave
            .apply(ops, sys, model, input, batching, emit, pool)?;
        self.budget_gauge(layer, "post", &out)?;
        let label = |op: &EnclaveOp| match op {
            EnclaveOp::Activation(_) => "Activation (SGX inside)",
            EnclaveOp::MeanPool => "Pooling Layer (SgxPool)",
            EnclaveOp::Divide => "Pooling Layer (SgxDiv)",
            EnclaveOp::Refresh => "Noise Refresh (SGX inside)",
            EnclaveOp::LogitReduce => "Logit Reduction (SGX inside)",
        };
        let label = ops.iter().map(label).collect::<Vec<_>>().join(" + ");
        Ok(Staged::ecall(out, label, cost))
    }

    /// The body of stage `layer` of `plan`.
    fn stage_body(
        &self,
        plan: &InferencePlan,
        layer: usize,
        input: &EncryptedMap,
        metrics: &mut HybridMetrics,
    ) -> Result<Staged> {
        match &plan.stages[layer] {
            // Parallel over output cells × CRT limbs, bit-identical for
            // every pool size.
            &Stage::He(he) => {
                let (evk, galois) = (&self.evaluation, &self.galois);
                let out = self.he.apply(he, input, evk, galois, &mut metrics.ops)?;
                Ok(Staged::he(out, he_label(he)))
            }
            Stage::Enclave(chain, batching) => {
                self.enclave_stage(plan, layer, (chain, *batching), input)
            }
        }
    }

    /// Runs `plan` over `input`: one `HybridInference::run_stage` per
    /// [`Stage`], each stage's map feeding the next. Returns the last map —
    /// the encrypted logits, in the layout [`EncryptedMap::decrypt_all`]
    /// decodes: one cell per class, or one [`Layout::FcOperand`] cell — plus
    /// the metrics. A closing [`EnclaveOp::LogitReduce`] stage runs only
    /// behind a fully connected layer that left partial sums.
    ///
    /// The exact plan, the degraded plan, and the Fig. 8 control groups all
    /// come through here; only the stage list differs.
    ///
    /// # Errors
    ///
    /// Propagates HE/TEE failures.
    pub fn run(
        &self,
        plan: &InferencePlan,
        input: &EncryptedMap,
    ) -> Result<(EncryptedMap, HybridMetrics)> {
        let mut metrics = HybridMetrics {
            threads: self.threads(),
            ..HybridMetrics::default()
        };
        let prefix = match plan.placement {
            Placement::Hybrid => "infer",
            Placement::PureHe => "infer.degraded",
        };
        // The latest stage output; until a stage ran, the input.
        let mut last: Option<EncryptedMap> = None;
        for (layer, stage) in plan.stages.iter().enumerate() {
            let map = last.as_ref().unwrap_or(input);
            let reduction =
                matches!(stage, Stage::Enclave(chain, _) if chain[..] == [EnclaveOp::LogitReduce]);
            if reduction && map.layout() == Layout::Pixel {
                continue;
            }
            let side = match stage {
                Stage::He(_) => "he",
                Stage::Enclave(..) => "ecall",
            };
            let span = format!("{prefix}.layer[{layer}].{side}");
            last = Some(self.run_stage(&mut metrics, &span, |metrics| {
                self.stage_body(plan, layer, map, metrics)
            })?);
        }
        Ok((last.unwrap_or_else(|| input.clone()), metrics))
    }

    /// Unseals the stored secret-key blob and checks it still decodes to the
    /// enclave-resident keys — the recovery ladder's sealed-state probe.
    ///
    /// # Errors
    ///
    /// A corrupted blob (crash mid-seal, injected [`hesgx_chaos::FaultSite::Seal`]
    /// or [`hesgx_chaos::FaultSite::Unseal`] fault) surfaces as
    /// [`TeeError::SealedBlobCorrupted`], which classifies as
    /// [`crate::error::FaultClass::SealedState`] and tells the session layer
    /// to re-provision rather than retry.
    pub fn verify_sealed_state(&self) -> Result<CostBreakdown> {
        let (restored, cost) = self.enclave.enclave().unseal(&self.sealed_keys);
        let bytes = restored.map_err(Error::Tee)?;
        if bytes != secret_key_bytes(self.enclave.secret_keys()) {
            return Err(Error::Tee(TeeError::SealedBlobCorrupted));
        }
        Ok(cost)
    }
}

/// Sums the enclave costs of a metrics record.
pub fn total_enclave_cost(metrics: &HybridMetrics) -> CostBreakdown {
    metrics
        .stages
        .iter()
        .filter_map(|s| s.enclave)
        .fold(CostBreakdown::default(), CostBreakdown::saturating_add)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::fuse;
    use hesgx_henn::ops;
    use hesgx_tee::enclave::Platform;

    fn small_hybrid_model() -> QuantizedCnn {
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

    /// The same weights with an activation scale so wide that the hybrid
    /// range needs the deep (multi-modulus) composition and covers the
    /// model's pure-HE range — the only kind of service that has a degraded
    /// plan ([`HybridInference::degraded_plan`]).
    fn deep_hybrid_model() -> QuantizedCnn {
        QuantizedCnn {
            act_scale: 1 << 23,
            ..small_hybrid_model()
        }
    }

    /// `logits` decrypted with the enclave's secret keys (test-only access):
    /// one row of class scores per batched image.
    fn decrypt_rows(
        service: &HybridInference,
        logits: &EncryptedMap,
        batch: usize,
    ) -> Vec<Vec<i128>> {
        let secret = service.enclave.secret_keys();
        logits
            .decrypt_all(service.system(), secret, batch, &ParExec::serial())
            .unwrap()
    }

    /// The plaintext reference rows `decrypt_rows` is compared against.
    fn reference_rows(model: &QuantizedCnn, images: &[Vec<i64>]) -> Vec<Vec<i128>> {
        images
            .iter()
            .map(|img| model.forward_ints(img).iter().map(|&v| v.into()).collect())
            .collect()
    }

    #[test]
    fn hybrid_matches_integer_reference_exactly() {
        let model = small_hybrid_model();
        let (service, _ceremony) = HybridInference::provision_with(
            Platform::new(31),
            model.clone(),
            ProvisionConfig {
                poly_degree: 256,
                seed: 7,
                ..ProvisionConfig::default()
            },
        )
        .unwrap();
        let rng = ChaChaRng::from_seed(101);
        let images: Vec<Vec<i64>> = (0..3)
            .map(|b| (0..64).map(|p| ((p + b * 7) % 16) as i64).collect())
            .collect();
        let enc = EncryptedMap::encrypt_images(
            service.system(),
            &images,
            model.in_side,
            Layout::Pixel,
            service.enclave.public_keys(),
            &rng,
            &ParExec::serial(),
        )
        .unwrap();
        let (logits, metrics) = service.run(service.plan(), &enc).unwrap();
        assert_eq!(
            decrypt_rows(&service, &logits, images.len()),
            reference_rows(&model, &images)
        );
        // Conv, one crossing for activation + pooling, FC.
        assert_eq!(metrics.stages.len(), 3);
        assert!(metrics.total() > Duration::ZERO);
    }

    #[test]
    fn per_pixel_ecalls_cost_more() {
        let model = small_hybrid_model();
        let (service, _) = HybridInference::provision_with(
            Platform::new(32),
            model.clone(),
            ProvisionConfig {
                poly_degree: 256,
                seed: 8,
                ..ProvisionConfig::default()
            },
        )
        .unwrap();
        let rng = ChaChaRng::from_seed(102);
        let images = vec![(0..64).map(|p| (p % 16) as i64).collect::<Vec<i64>>()];
        let enc = EncryptedMap::encrypt_images(
            service.system(),
            &images,
            model.in_side,
            Layout::Pixel,
            service.enclave.public_keys(),
            &rng,
            &ParExec::serial(),
        )
        .unwrap();
        let (_, batched) = service.run(service.plan(), &enc).unwrap();
        // Fig. 8's `EncryptSGX (single)` group: the hand-unfused plan with
        // a per-pixel activation stage, on the same service.
        let mut per_pixel = service.plan().clone();
        let sigmoid = EnclaveOp::Activation(ActivationKind::Sigmoid);
        per_pixel.stages.splice(
            1..2,
            [
                Stage::Enclave(vec![sigmoid], EcallBatching::PerPixel),
                Stage::enclave(EnclaveOp::MeanPool),
            ],
        );
        let (_, single) = service.run(&per_pixel, &enc).unwrap();
        let b = total_enclave_cost(&batched);
        let s = total_enclave_cost(&single);
        assert!(
            s.transition_ns > b.transition_ns,
            "per-pixel must pay more transitions"
        );
    }

    #[test]
    fn window_2_uses_sgx_pool() {
        let model = small_hybrid_model();
        let (service, _) = HybridInference::provision_with(
            Platform::new(33),
            model,
            ProvisionConfig {
                poly_degree: 256,
                seed: 9,
                ..ProvisionConfig::default()
            },
        )
        .unwrap();
        // SgxPool, riding the activation's crossing.
        let sigmoid = EnclaveOp::Activation(ActivationKind::Sigmoid);
        assert_eq!(
            service.plan().stages[1],
            Stage::Enclave(vec![sigmoid, EnclaveOp::MeanPool], EcallBatching::Batched)
        );
    }

    #[test]
    fn wrong_pipeline_is_a_config_error() {
        let mut model = small_hybrid_model();
        model.pipeline = QuantPipeline::CryptoNets;
        let err = HybridInference::provision_with(
            Platform::new(34),
            model,
            ProvisionConfig {
                poly_degree: 256,
                seed: 10,
                ..ProvisionConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
    }

    #[test]
    fn logits_bit_identical_across_thread_counts() {
        let model = small_hybrid_model();
        let images: Vec<Vec<i64>> = (0..2)
            .map(|b| (0..64).map(|p| ((p * 3 + b) % 16) as i64).collect())
            .collect();
        let mut reference: Option<EncryptedMap> = None;
        for threads in [1usize, 2, 4] {
            // Same seeds everywhere → only the pool size varies.
            let (service, _) = HybridInference::provision_with(
                Platform::new(35),
                model.clone(),
                ProvisionConfig {
                    poly_degree: 256,
                    seed: 11,
                    threads,
                    ..ProvisionConfig::default()
                },
            )
            .unwrap();
            let rng = ChaChaRng::from_seed(103);
            let enc = EncryptedMap::encrypt_images(
                service.system(),
                &images,
                model.in_side,
                Layout::Pixel,
                service.enclave.public_keys(),
                &rng,
                &ParExec::serial(),
            )
            .unwrap();
            let (logits, metrics) = service.run(service.plan(), &enc).unwrap();
            assert_eq!(metrics.threads, threads);
            match &reference {
                None => reference = Some(logits),
                Some(cts) => assert_eq!(&logits, cts, "{threads} threads"),
            }
        }
    }

    /// Provisions `model` at degree 256 and encrypts `images` under the
    /// ceremony keys with a fixed client seed.
    fn service_and_input(
        model: &QuantizedCnn,
        platform: u64,
        seed: u64,
        images: &[Vec<i64>],
    ) -> (HybridInference, EncryptedMap) {
        let (service, _) = HybridInference::provision_with(
            Platform::new(platform),
            model.clone(),
            ProvisionConfig {
                poly_degree: 256,
                seed,
                ..ProvisionConfig::default()
            },
        )
        .unwrap();
        let rng = ChaChaRng::from_seed(104);
        let enc = EncryptedMap::encrypt_images(
            service.system(),
            images,
            model.in_side,
            Layout::Pixel,
            service.enclave.public_keys(),
            &rng,
            &ParExec::serial(),
        )
        .unwrap();
        (service, enc)
    }

    /// The weight banks must be a pure speed change: the pipeline's logits
    /// (ciphertext bytes, not just decrypted values) equal those of the same
    /// stages assembled by hand around the raw-weight oracles, with zero
    /// per-request weight preparations versus the oracles' one-per-tap count.
    #[test]
    fn cached_weights_are_bit_identical_with_zero_weight_prep() {
        let model = small_hybrid_model();
        let images: Vec<Vec<i64>> = (0..2)
            .map(|b| (0..64).map(|p| ((p * 5 + b * 3) % 16) as i64).collect())
            .collect();
        let (service, enc) = service_and_input(&model, 36, 12, &images);
        let (logits, metrics) = service.run(service.plan(), &enc).unwrap();

        // Same seeds → same keys and the same enclave re-encryption streams.
        let (oracle, enc) = service_and_input(&model, 36, 12, &images);
        let mut oracle_ops = OpCounter::default();
        let conv = ops::he_conv2d_reference(
            oracle.system(),
            &enc,
            &model.conv_weights,
            &model.conv_bias,
            model.conv_out,
            (model.kernel, model.kernel),
            &mut oracle_ops,
        )
        .unwrap();
        let in_enclave = |op: &[EnclaveOp], map: &EncryptedMap| {
            let (sys, pool) = (oracle.system(), oracle.pool());
            oracle
                .enclave
                .apply(
                    op,
                    sys,
                    &model,
                    map,
                    EcallBatching::Batched,
                    Layout::Pixel,
                    pool,
                )
                .unwrap()
                .0
        };
        let sigmoid = EnclaveOp::Activation(ActivationKind::Sigmoid);
        let pooled = in_enclave(&[sigmoid, EnclaveOp::MeanPool], &conv);
        let oracle_logits = ops::he_conv2d_reference(
            oracle.system(),
            &pooled,
            &model.fc_weights,
            &model.fc_bias,
            model.classes,
            (model.pool_side(), model.pool_side()),
            &mut oracle_ops,
        )
        .unwrap();

        assert_eq!(
            logits.cells(),
            oracle_logits.cells(),
            "bank kernels must match the oracles"
        );
        assert_eq!(metrics.ops.weight_prep, 0, "no per-request weight prep");
        // Conv: 2 channels × 6×6 cells × 3×3 taps + bias per cell;
        // FC: 3 classes × 18 inputs + bias per class.
        assert_eq!(
            oracle_ops.weight_prep as usize,
            2 * 36 * 9 + 2 * 36 + 3 * 18 + 3
        );
        assert_eq!(
            metrics.ops,
            OpCounter {
                weight_prep: 0,
                ..oracle_ops
            }
        );
    }

    /// The degraded plan is the CryptoNets stage list: its logit ciphertexts
    /// equal conv → square → sum-pool → FC assembled by hand, both around
    /// the raw-weight oracles and around the bank kernels, and no stage
    /// crosses into the enclave.
    #[test]
    fn degraded_cached_weights_are_bit_identical() {
        use hesgx_henn::weights::WeightBank;
        let model = deep_hybrid_model();
        let images = vec![(0..64).map(|p| ((p * 7) % 16) as i64).collect::<Vec<i64>>()];
        let (service, enc) = service_and_input(&model, 37, 13, &images);
        let degraded = service.degraded_plan().expect("the deep model has one");
        let (logits, metrics) = service.run(degraded, &enc).unwrap();
        assert_eq!(metrics.ops.weight_prep, 0);
        assert_eq!(metrics.stages.len(), 4);
        assert!(metrics.stages.iter().all(|s| s.enclave.is_none()));

        let (sys, pool) = (service.system(), service.pool());
        let square_and_pool = |conv: &EncryptedMap, ops_count: &mut OpCounter| {
            let squared =
                ops::he_square_activation(sys, conv, &service.evaluation, ops_count, pool).unwrap();
            ops::he_scaled_mean_pool(sys, &squared, model.window, ops_count, pool).unwrap()
        };

        let mut oracle_ops = OpCounter::default();
        let conv = ops::he_conv2d_reference(
            sys,
            &enc,
            &model.conv_weights,
            &model.conv_bias,
            model.conv_out,
            (model.kernel, model.kernel),
            &mut oracle_ops,
        )
        .unwrap();
        let pooled = square_and_pool(&conv, &mut oracle_ops);
        let fc = (model.pool_side(), model.pool_side());
        let oracle_logits = ops::he_conv2d_reference(
            sys,
            &pooled,
            &model.fc_weights,
            &model.fc_bias,
            model.classes,
            fc,
            &mut oracle_ops,
        )
        .unwrap();
        assert_eq!(logits.cells(), oracle_logits.cells());

        let mut hand_ops = OpCounter::default();
        let conv_bank = WeightBank::prepare(sys, &model.conv_weights, &model.conv_bias).unwrap();
        let fc_bank = WeightBank::prepare(sys, &model.fc_weights, &model.fc_bias).unwrap();
        let conv = ops::he_conv2d(
            sys,
            &enc,
            &conv_bank,
            model.conv_out,
            (model.kernel, model.kernel),
            &mut hand_ops,
            pool,
        )
        .unwrap();
        let pooled = square_and_pool(&conv, &mut hand_ops);
        let hand_logits = ops::he_conv2d(
            sys,
            &pooled,
            &fc_bank,
            model.classes,
            fc,
            &mut hand_ops,
            pool,
        )
        .unwrap();
        assert_eq!(logits.cells(), hand_logits.cells());
        assert_eq!(metrics.ops, hand_ops);
    }

    /// Every compiled plan is exact, and it is the one hybrid plan worth
    /// running. One service per (model, pool size): the 2×2- and 3×3-window
    /// models with an FC layer wide enough to pack, and a 3×3-window model
    /// whose FC layer never packs. Whatever the window, the compiled plan is
    /// the fused `SgxPool` list — activation and pooling in one crossing —
    /// and two literal hand-unfused lists run beside it: `SgxPool` (its two
    /// crossings merge back into the compiled plan) and `SgxDiv` (an HE
    /// window-sum stage between the activation's crossing and the in-enclave
    /// division: nothing to merge), each unfused and as the planner's merge
    /// pass fuses it, every enclave stage through {batched, per-pixel}.
    /// Logits must equal the plaintext reference — fused and unfused
    /// therefore each other — and the metrics must show one stage per plan
    /// stage, ECALL where planned. Every list runs from every ingress layout
    /// × every egress layout the rules pick: a per-pixel map of two images
    /// (out per pixel), the same images one cell an image (out packed for a
    /// wide FC layer wherever a batched crossing feeds it directly — one
    /// logits ciphertext, the closing reduction run), and 129 images one
    /// cell an image (forced by hand: the ingress rule packs up to 63), one
    /// past the egress rule (`⌊256/129⌋ = 1` slot an image: out per pixel,
    /// the closing stage skipped). A `Coeff` input gives
    /// the same rows from fewer conv products wherever a batched crossing follows
    /// the convolution, and is refused — an error, not a panic — where a
    /// per-pixel one does.
    ///
    /// Two facts pin why the compiler has no choice left to make. Every
    /// crossing of a compiled plan enters with at least 10 bits of noise
    /// budget (`noise.budget.layer[i].pre`), so a refresh gated at that
    /// threshold would always skip — and it leaves re-encrypted with at
    /// least as much (`.post`), a refresh in all but name. And against the
    /// `SgxDiv` list on the same service and input, the compiled plan books
    /// no more transitions and no more marshalling, strictly fewer
    /// transitions wherever it crosses once — which on the narrow 3×3 model
    /// it always does (DESIGN.md §6). The pure-HE plan joins on the model
    /// whose parameters carry it, against the CryptoNets-pipeline reference,
    /// and refuses a packed input the same way.
    #[test]
    fn every_compiled_plan_is_exact() {
        // An FC layer wide enough to pack, and packed crossing the enclave
        // in fewer ciphertexts, for both windows: eight maps and eight
        // classes (`8·J ≥ 256`, `1 + 8 + 1 < J` for `J` = 72 and 32).
        let wide_fc = |window: usize| {
            let model = QuantizedCnn {
                window,
                conv_out: 8,
                classes: 8,
                conv_weights: (0..72).map(|i| (i % 7) as i64 - 3).collect(),
                conv_bias: (0..8).map(|i| i % 5 - 2).collect(),
                ..small_hybrid_model()
            };
            QuantizedCnn {
                fc_weights: (0..8 * model.fc_in()).map(|i| (i % 5) as i64 - 2).collect(),
                fc_bias: (0..8).map(|i| i % 9 - 4).collect(),
                ..model
            }
        };
        // Three classes of 8 inputs: no ciphertext's worth, never packed.
        let narrow_3 = {
            let model = QuantizedCnn {
                window: 3,
                ..small_hybrid_model()
            };
            QuantizedCnn {
                fc_weights: (0..3 * model.fc_in()).map(|i| (i % 5) as i64 - 2).collect(),
                ..model
            }
        };
        let batch_of = |n: usize| -> Vec<Vec<i64>> {
            (0..n)
                .map(|b| (0..64).map(|p| ((p * 3 + b * 5) % 16) as i64).collect())
                .collect()
        };
        let (images, past_the_rule) = (batch_of(2), batch_of(129));
        let provision = |model: &QuantizedCnn, threads| {
            let recorder = Recorder::enabled();
            let (service, _) = HybridInference::provision_with(
                Platform::new(40),
                model.clone(),
                ProvisionConfig {
                    poly_degree: 256,
                    seed: 16,
                    threads,
                    recorder: recorder.clone(),
                    ..ProvisionConfig::default()
                },
            )
            .unwrap();
            let encrypt = |images: &[Vec<i64>], layout| {
                EncryptedMap::encrypt_images(
                    service.system(),
                    images,
                    model.in_side,
                    layout,
                    service.enclave.public_keys(),
                    &ChaChaRng::from_seed(107),
                    &ParExec::serial(),
                )
                .unwrap()
            };
            // One cell an image, 2 or 129 images.
            let packed = encrypt(&images, service.ingress_layout(2));
            assert_eq!(packed.shape(), (1, 2, 1));
            let coeff = Layout::Coeff {
                batch: 129,
                side: 8,
                pitch: 8,
            };
            let wide = encrypt(&past_the_rule, coeff);
            assert_eq!(wide.shape(), (1, 129, 1));
            let enc = [encrypt(&images, Layout::Pixel), packed, wide];
            (service, enc, recorder)
        };
        // The two pooling splits of §VI-D, one stage per operator.
        let sigmoid = EnclaveOp::Activation(ActivationKind::Sigmoid);
        let closing = Stage::enclave(EnclaveOp::LogitReduce);
        let sgx_pool = vec![
            Stage::He(HeLayer::Conv),
            Stage::enclave(sigmoid),
            Stage::enclave(EnclaveOp::MeanPool),
            Stage::He(HeLayer::Fc),
            closing.clone(),
        ];
        let sgx_div = vec![
            Stage::He(HeLayer::Conv),
            Stage::enclave(sigmoid),
            Stage::He(HeLayer::SumPool),
            Stage::enclave(EnclaveOp::Divide),
            Stage::He(HeLayer::Fc),
            closing,
        ];
        let mut packed_egresses = 0;
        for model in [wide_fc(2), wide_fc(3), narrow_3] {
            let packs = Layout::for_fc(model.fc_in(), model.classes, 2, 256) != Layout::Pixel;
            for threads in [1usize, 2] {
                let (service, enc, recorder) = provision(&model, threads);
                assert_eq!(service.plan().stages, fuse(sgx_pool.clone()));
                // Sized for `act_scale`-bounded values, these parameters
                // cannot carry the pure-HE plan's squares.
                assert!(service.degraded_plan().is_none());
                // Per input: the batched books of the compiled plan and of
                // the `SgxDiv` list, and the compiled plan's crossings.
                let mut books = [(CostBreakdown::default(), CostBreakdown::default(), 0); 3];
                for batching in [EcallBatching::Batched, EcallBatching::PerPixel] {
                    for (div, unfused) in [(false, &sgx_pool), (true, &sgx_div)] {
                        // SgxDiv keeps an HE stage between its two crossings:
                        // nothing to merge, one list to run.
                        let mut lists = vec![fuse(unfused.clone()), unfused.clone()];
                        lists.dedup();
                        assert_eq!(lists.len() == 1, div);
                        let mut fused_rows = [None, None, None];
                        for mut stages in lists {
                            for stage in &mut stages {
                                if let Stage::Enclave(_, stage_batching) = stage {
                                    *stage_batching = batching;
                                }
                            }
                            let plan = InferencePlan {
                                stages,
                                ..service.plan().clone()
                            };
                            let compiled = plan == *service.plan();
                            for (i, input) in enc.iter().enumerate() {
                                let images = [&images, &images, &past_the_rule][i];
                                let what = format!(
                                    "window {} {threads} threads {:?} from {:?}",
                                    model.window,
                                    plan.stages,
                                    input.layout()
                                );
                                let pixel = input.layout() == Layout::Pixel;
                                if !pixel && batching == EcallBatching::PerPixel {
                                    let err = service.run(&plan, input).unwrap_err();
                                    assert!(matches!(err, Error::Config(_)), "{what}: {err}");
                                    continue;
                                }
                                // The egress rule's plan shape, spelled out:
                                // the one crossing that repacks the
                                // convolution's output is the one feeding the
                                // FC layer — and the count, for the batch the
                                // packed map carries.
                                let operand = i == 1 && compiled && packs;
                                packed_egresses += usize::from(operand);
                                recorder.reset();
                                let (logits, metrics) = service.run(&plan, input).unwrap();
                                let cells = if operand { 1 } else { model.classes };
                                assert_eq!(logits.cells().len(), cells, "{what}");
                                let rows = decrypt_rows(&service, &logits, images.len());
                                assert_eq!(rows, reference_rows(&model, images), "{what}");
                                assert_eq!(
                                    *fused_rows[i].get_or_insert(rows.clone()),
                                    rows,
                                    "{what}"
                                );
                                let crossed: Vec<bool> =
                                    metrics.stages.iter().map(|s| s.enclave.is_some()).collect();
                                // (The closing reduction runs only behind a
                                // packed egress.)
                                let ran = plan.stages.len() - usize::from(!operand);
                                let planned: Vec<bool> = plan.stages[..ran]
                                    .iter()
                                    .map(|s| matches!(s, Stage::Enclave(..)))
                                    .collect();
                                assert_eq!(crossed, planned, "{what}");
                                // The stage that pools is named for the split.
                                let label = if div {
                                    "Pooling Layer (SgxDiv)"
                                } else {
                                    "Pooling Layer (SgxPool)"
                                };
                                assert!(
                                    metrics.stages.iter().any(|s| s.name.ends_with(label)),
                                    "{what}"
                                );
                                // Conv and FC accumulate; of the pooling
                                // splits only SgxDiv adds ciphertexts (the
                                // window sums). A `Coeff` conv is one product
                                // per map and image, with nothing to add; a
                                // packed FC accumulates its operand cells
                                // once a class.
                                let conv_adds = match pixel {
                                    true => model.conv_out * model.conv_side().pow(2),
                                    false => 0,
                                };
                                let pool_cells = model.conv_out * model.pool_side().pow(2);
                                let mut adds = conv_adds * (model.kernel.pow(2) - 1);
                                adds += match operand {
                                    true => model.classes * (model.fc_in().div_ceil(128) - 1),
                                    false => model.classes * (model.fc_in() - 1),
                                };
                                if div {
                                    adds += pool_cells * (model.window.pow(2) - 1);
                                }
                                assert_eq!(metrics.ops.ct_ct_add, adds as u64, "{what}");
                                if compiled {
                                    let crossings = crossed.iter().filter(|&&c| c).count();
                                    let budgets = |side| -> Vec<u64> {
                                        let gauge =
                                            |layer| format!("noise.budget.layer[{layer}].{side}");
                                        let series = |layer| recorder.gauge_series(&gauge(layer));
                                        (0..plan.stages.len()).flat_map(series).collect()
                                    };
                                    let (pre, post) = (budgets("pre"), budgets("post"));
                                    assert_eq!(pre.len(), crossings, "{what}");
                                    for (bits_in, bits_out) in pre.iter().zip(&post) {
                                        assert!(*bits_in >= 10, "{what}: {pre:?}");
                                        assert!(bits_out >= bits_in, "{what}: {post:?}");
                                    }
                                    books[i].0 = total_enclave_cost(&metrics);
                                    books[i].2 = crossings;
                                }
                                if div && batching == EcallBatching::Batched {
                                    books[i].1 = total_enclave_cost(&metrics);
                                }
                            }
                        }
                    }
                }
                // DESIGN.md §6's table, booked: behind the activation's
                // crossing the fused pool is never costlier than `SgxDiv`.
                for (fused, split, crossings) in books {
                    assert!(fused.copy_ns <= split.copy_ns, "{fused:?} vs {split:?}");
                    assert!(fused.transition_ns <= split.transition_ns);
                    if crossings == 1 {
                        assert!(fused.transition_ns < split.transition_ns);
                    }
                    assert!(packs || crossings == 1, "window {}", model.window);
                }
            }
        }
        // The wide models × both pool sizes.
        assert_eq!(packed_egresses, 4);
        // The model whose hybrid range covers its pure-HE range: both of
        // the service's plans are exact, each against its own reference.
        let model = deep_hybrid_model();
        let pure_he_reference = QuantizedCnn {
            pipeline: QuantPipeline::CryptoNets,
            ..model.clone()
        };
        for threads in [1usize, 2] {
            let (service, [enc, packed, wide], _) = provision(&model, threads);
            for (input, images) in [(&enc, &images), (&packed, &images), (&wide, &past_the_rule)] {
                let (logits, _) = service.run(service.plan(), input).unwrap();
                assert_eq!(
                    decrypt_rows(&service, &logits, images.len()),
                    reference_rows(&model, images),
                    "deep hybrid, {threads} threads, {:?}",
                    input.layout()
                );
            }
            let degraded = service.degraded_plan().expect("the deep model has one");
            assert_eq!(degraded.placement, Placement::PureHe);
            // Nothing behind its convolution can repack: it reads the orbit
            // layout the pure-HE engine encrypts in, or one cell per pixel.
            let layout = degraded.ingress_layout(&model, 2, 256);
            let (batch, side, window) = (2, 3, 2);
            assert_eq!(
                layout,
                Layout::Orbit {
                    batch,
                    side,
                    window
                }
            );
            let orbit = EncryptedMap::encrypt_images(
                service.system(),
                &images,
                model.in_side,
                layout,
                service.enclave.public_keys(),
                &ChaChaRng::from_seed(108),
                &ParExec::serial(),
            )
            .unwrap();
            let err = service.run(degraded, &packed).unwrap_err();
            assert!(matches!(err, Error::He(_)), "{err}");
            for input in [&enc, &orbit] {
                let what = format!("pure HE, {threads} threads, {:?}", input.layout());
                let (logits, metrics) = service.run(degraded, input).unwrap();
                assert_eq!(
                    decrypt_rows(&service, &logits, images.len()),
                    reference_rows(&pure_he_reference, &images),
                    "{what}"
                );
                assert!(metrics.stages.iter().all(|s| s.enclave.is_none()));
                let rotates = input.layout() == layout;
                assert_eq!(metrics.ops.rotations > 0, rotates, "{what}");
                let refs: Vec<&CrtCiphertext> = logits.cells().iter().collect();
                let (budget, _) = service
                    .enclave
                    .noise_probe(service.system(), &refs)
                    .unwrap();
                assert!(budget > 0, "{what}: logits ran out of noise budget");
            }
        }
    }

    /// The stage runner is the one instrumentation point: on every pipeline
    /// path, each stage in the metrics has exactly one recorder span entry,
    /// one balanced timeline slice, and one profiler frame of the same name.
    #[test]
    fn every_stage_lands_once_on_every_observability_face() {
        use crate::ingress::seal_ingress_payload;
        use crate::keydist::derive_ingress_key;
        use hesgx_obs::{Profiler, TracePhase};

        #[derive(Clone, Copy, Debug)]
        enum Path {
            Plain,
            /// The service's plan by hand, a refresh stage after pooling.
            Refreshed,
            Transciphered,
            Degraded,
        }
        let images = vec![(0..64).map(|p| ((p * 3) % 16) as i64).collect::<Vec<i64>>()];
        for (path, want_stages) in [
            (Path::Plain, 3),
            (Path::Refreshed, 4),
            (Path::Transciphered, 4),
            (Path::Degraded, 4),
        ] {
            let rec = Recorder::with_timeline();
            let profiler = Profiler::enabled();
            let model = match path {
                Path::Degraded => deep_hybrid_model(),
                _ => small_hybrid_model(),
            };
            let (service, ceremony) = HybridInference::provision_with(
                Platform::new(39),
                model,
                ProvisionConfig {
                    poly_degree: 256,
                    seed: 15,
                    recorder: rec.clone(),
                    ..ProvisionConfig::default()
                },
            )
            .unwrap();
            let mut rng = ChaChaRng::from_seed(106);
            let enc = EncryptedMap::encrypt_images(
                service.system(),
                &images,
                8,
                Layout::Pixel,
                service.enclave.public_keys(),
                &rng,
                &ParExec::serial(),
            )
            .unwrap();

            let installed = profiler.install();
            let stages = match path {
                Path::Degraded => {
                    let plan = service.degraded_plan().expect("the deep model has one");
                    service.run(plan, &enc).unwrap().1.stages
                }
                Path::Refreshed => {
                    let mut plan = service.plan().clone();
                    plan.stages.insert(2, Stage::enclave(EnclaveOp::Refresh));
                    service.run(&plan, &enc).unwrap().1.stages
                }
                Path::Transciphered => {
                    let key = derive_ingress_key(&ceremony.public, &ceremony.user_secret);
                    let payload = seal_ingress_payload(&key, &mut rng, &images).unwrap();
                    let (enc, ingress) = service.transcipher_ingress(&key, &payload).unwrap();
                    let (_, metrics) = service.run(service.plan(), &enc).unwrap();
                    let mut stages = vec![ingress];
                    stages.extend(metrics.stages);
                    stages
                }
                Path::Plain => service.run(service.plan(), &enc).unwrap().1.stages,
            };
            drop(installed);
            assert_eq!(stages.len(), want_stages, "{path:?}");

            let span_entries: u64 = rec
                .spans_with_prefix("infer.")
                .iter()
                .map(|(_, stats)| stats.entries)
                .sum();
            assert_eq!(span_entries as usize, stages.len(), "{path:?}: recorder");

            let slices = |phase: TracePhase| {
                rec.trace_events()
                    .iter()
                    .filter(|e| e.phase == phase && e.name.starts_with("infer."))
                    .count()
            };
            assert_eq!(
                slices(TracePhase::Begin),
                stages.len(),
                "{path:?}: timeline"
            );
            assert_eq!(slices(TracePhase::End), stages.len(), "{path:?}: timeline");

            // Deterministic face rows: {"path":"a;b;c","calls":N,"bytes":M}.
            let face = profiler.deterministic_json();
            let frames: u64 = face
                .split("{\"path\":\"")
                .skip(1)
                .filter_map(|row| {
                    let (frame_path, rest) = row.split_once('"')?;
                    let leaf = frame_path.rsplit(';').next()?;
                    let calls = rest.strip_prefix(",\"calls\":")?.split(',').next()?;
                    leaf.starts_with("infer.")
                        .then(|| calls.parse::<u64>().ok())?
                })
                .sum();
            assert_eq!(frames as usize, stages.len(), "{path:?}: profiler {face}");
        }
    }

    /// A hand-built model (every field is public) with inconsistent
    /// geometry must be refused by both engine constructors with an error,
    /// not reach `usize` underflow or a kernel shape assert.
    #[test]
    fn inconsistent_model_geometry_is_an_error_not_a_panic() {
        use hesgx_bfv::error::BfvError;
        use hesgx_henn::cryptonets::CryptoNets;
        type Break = fn(&mut QuantizedCnn);
        let cases: [(&str, Break); 8] = [
            ("kernel larger than the input", |m| m.kernel = m.in_side + 1),
            ("zero kernel", |m| m.kernel = 0),
            ("zero window", |m| m.window = 0),
            ("window not tiling the conv output", |m| m.window = 4),
            ("short conv weights", |m| {
                m.conv_weights.pop();
            }),
            ("extra conv bias", |m| m.conv_bias.push(1)),
            ("short fc weights", |m| {
                m.fc_weights.pop();
            }),
            ("missing fc bias", |m| m.fc_bias.clear()),
        ];
        for (what, break_it) in cases {
            let mut model = small_hybrid_model();
            break_it(&mut model);
            let err = HybridInference::provision_with(
                Platform::new(38),
                model.clone(),
                ProvisionConfig {
                    poly_degree: 256,
                    seed: 14,
                    ..ProvisionConfig::default()
                },
            )
            .unwrap_err();
            assert!(matches!(err, Error::Config(_)), "{what}: {err}");
            model.pipeline = QuantPipeline::CryptoNets;
            let err = CryptoNets::new(model, 256).unwrap_err();
            assert!(matches!(err, BfvError::InvalidShape(_)), "{what}: {err}");
        }
        // A well-formed model quantized for the other pipeline is refused
        // the same way by the pure-HE engine.
        let err = CryptoNets::new(small_hybrid_model(), 256).unwrap_err();
        assert!(matches!(err, BfvError::InvalidShape(_)), "{err}");
        assert!(small_hybrid_model().check_geometry().is_ok());
    }
}
