//! `fig8_fv` / `fig8_tc`: the paper's Fig. 8 "EncryptSGX" configuration —
//! one long-lived `Session` at n = 1024, one client in a closed loop sending
//! batch-of-10 requests, FV-ciphertext or transciphered ingress.

use super::{elapsed_ns, ms, op_counts, Child, Ready, Runner, Sample, BATCH, HE_THREADS};
use crate::spec::STAGES;
use hesgx_core::request::{InferRequest, Ingress};
use hesgx_core::session::{ParamsPreset, Served, Session, SessionBuilder};
use hesgx_crypto::rng::ChaChaRng;
use hesgx_nn::quantize::QuantizedCnn;
use hesgx_obs::Recorder;
use hesgx_tee::cost::CostBreakdown;
use hesgx_tee::enclave::Platform;
use std::time::Instant;

const STAGE_WALL: [&str; STAGES] = [
    "core.stage0_wall_ms",
    "core.stage1_wall_ms",
    "core.stage2_wall_ms",
    "core.stage3_wall_ms",
    "core.stage4_wall_ms",
];
const STAGE_EFFECTIVE: [&str; STAGES] = [
    "core.stage0_effective_ms",
    "core.stage1_effective_ms",
    "core.stage2_effective_ms",
    "core.stage3_effective_ms",
    "core.stage4_effective_ms",
];

struct Fig8 {
    session: Session,
    model: QuantizedCnn,
    ingress: Ingress,
    rng: ChaChaRng,
}

pub fn setup(ingress: Ingress, seed: u64, recorder: Recorder) -> Ready {
    let model = super::paper_model();
    let started = Instant::now();
    let session = SessionBuilder::new()
        .params(ParamsPreset::Paper)
        .threads(HE_THREADS)
        .seed(seed)
        .recorder(recorder)
        .build(Platform::new(seed), model.clone())
        .expect("the fig8 session provisions");
    let provision_ns = elapsed_ns(started);
    let mut runner = Fig8 {
        session,
        model,
        ingress,
        rng: super::pixel_rng(seed),
    };
    let warmup = runner.request();
    Ready {
        runner: Box::new(runner),
        provision_ns,
        warmup,
    }
}

/// The modeled terms of an ECALL's cost. The seeded jitter term is left
/// out on purpose: it is zero-mean noise by construction (sigma = 7 % of
/// each call), so it would widen every bound without carrying information.
fn modeled_overhead_ns(cost: &CostBreakdown) -> u64 {
    cost.slowdown_ns + cost.transition_ns + cost.copy_ns + cost.paging_ns
}

impl Runner for Fig8 {
    fn request(&mut self) -> Sample {
        let pixels = self.model.in_side * self.model.in_side;
        let images = super::random_images(&mut self.rng, BATCH, pixels);
        let request = InferRequest::batch(images.clone()).ingress(self.ingress);
        let started = Instant::now();
        let result = self.session.serve(request);
        let wall_ns = elapsed_ns(started);
        let mut sample = Sample::failed(started, wall_ns, 1, BATCH as u64);
        let Ok(response) = result else {
            return sample;
        };
        if response.served == Served::Exact && response.logits.len() == images.len() {
            sample.verified_images = images
                .iter()
                .zip(&response.logits)
                .filter(|(image, logits)| &self.model.forward_ints(image) == *logits)
                .count() as u64;
        }
        sample.failed = u64::from(sample.verified_images != sample.images);
        sample.upload_bytes = response.upload_bytes;
        sample.trace_id = Some(response.trace_id);

        // Stages are told apart by position and by whether they crossed
        // into the enclave, never by their label.
        let stages = &response.metrics.stages;
        let wall_of = |enclave: bool| -> u64 {
            stages
                .iter()
                .filter(|s| s.enclave.is_some() == enclave)
                .map(|s| s.wall.as_nanos() as u64)
                .sum()
        };
        let (he_ns, ecall_ns) = (wall_of(false), wall_of(true));
        let client_ns = wall_ns.saturating_sub(he_ns + ecall_ns);
        let cost = stages
            .iter()
            .filter_map(|s| s.enclave)
            .fold(CostBreakdown::default(), CostBreakdown::saturating_add);
        sample.overhead_ns = modeled_overhead_ns(&cost);
        let ingress_ns = match (self.ingress, stages.first()) {
            (Ingress::Transciphered, Some(first)) if first.enclave.is_some() => {
                first.wall.as_nanos() as u64
            }
            _ => 0,
        };
        sample.layer = vec![
            ("core.client_ms", ms(client_ns)),
            ("core.he_stage_ms", ms(he_ns)),
            ("core.ecall_stage_wall_ms", ms(ecall_ns)),
            ("core.ecall_overhead_ms", ms(sample.overhead_ns)),
            ("core.ingress_ecall_ms", ms(ingress_ns)),
            ("tee.real_ms", ms(cost.real_ns)),
            ("tee.slowdown_ms", ms(cost.slowdown_ns)),
            ("tee.transition_us", cost.transition_ns as f64 / 1e3),
            ("tee.copy_ms", ms(cost.copy_ns)),
            ("tee.paging_ms", ms(cost.paging_ns)),
        ];
        sample.layer.extend(op_counts(&response.metrics.ops));

        // The client's encryption and decryption bracket the stages but the
        // API does not split them, so the remainder is laid out first.
        sample.children.push(Child {
            name: "client (encrypt + decrypt)".into(),
            offset_ns: 0,
            dur_ns: client_ns,
            derived: true,
        });
        let mut offset_ns = client_ns;
        for (i, stage) in stages.iter().enumerate() {
            let stage_wall_ns = stage.wall.as_nanos() as u64;
            if i < STAGES {
                let overhead_ns = stage.enclave.as_ref().map_or(0, modeled_overhead_ns);
                sample.layer.push((STAGE_WALL[i], ms(stage_wall_ns)));
                sample
                    .layer
                    .push((STAGE_EFFECTIVE[i], ms(stage_wall_ns + overhead_ns)));
            }
            sample.children.push(Child {
                name: format!("stage{i}: {}", stage.name),
                offset_ns,
                dur_ns: stage_wall_ns,
                derived: true,
            });
            offset_ns += stage_wall_ns;
        }
        sample
    }
}
