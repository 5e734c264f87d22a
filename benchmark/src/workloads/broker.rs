//! `broker_12`: the serving broker (2 workers, `max_batch` 8, `queue_cap`
//! 64, n = 256) replaying a seeded open-loop trace of 1-image requests from
//! 3 tenants. One timed unit is one full replay of the trace by
//! `Broker::run`; the runner repeats it in a closed loop. Latency inside a
//! replay is counted on the virtual clock from each request's scheduled
//! arrival; the replay's wall time gives the throughput.

use super::{elapsed_ns, ms, Child, Ready, Runner, Sample, HE_THREADS};
use hesgx_core::session::{ParamsPreset, Served};
use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};
use hesgx_obs::Recorder;
use hesgx_serve::{Broker, BrokerConfig, LoadSpec, LoadTrace};
use std::time::Instant;

/// Requests per timed replay: about 1.6 s of wall, and 15 samples beyond
/// the reported 95th percentile of virtual latency.
const REPLAY_REQUESTS: usize = 300;
const WARMUP_REQUESTS: usize = 64;
const TENANTS: u32 = 3;

struct BrokerReplay {
    broker: Broker,
    model: QuantizedCnn,
    trace: LoadTrace,
}

pub fn setup(seed: u64, recorder: Recorder) -> Ready {
    let model = super::small_model(QuantPipeline::Hybrid);
    let started = Instant::now();
    let broker = Broker::new(
        BrokerConfig::new().workers(2).max_batch(8).queue_cap(64),
        model.clone(),
        ParamsPreset::Small,
        seed,
        HE_THREADS,
        recorder,
    )
    .expect("the broker fleet provisions");
    let provision_ns = elapsed_ns(started);

    let image_len = model.in_side * model.in_side;
    let trace = |requests: usize, mean_gap_ns: u64| {
        let mut spec = LoadSpec::new(seed);
        spec.requests = requests;
        spec.mean_gap_ns = mean_gap_ns;
        spec.tenants = TENANTS;
        spec.image_len = image_len;
        LoadTrace::generate(&spec)
    };
    // Calibrated as `repro serve_load` does: a one-request replay measures
    // the modeled service time S of one batch, and arrivals come every S/10
    // on average. The fleet serves 16 images per S, so utilisation stays
    // near 63 % whatever the cost-model constants are.
    let service_ns = broker.run(&trace(1, 1)).total_service_ns.max(10);
    let mean_gap_ns = service_ns / 10;
    let mut runner = BrokerReplay {
        broker,
        model,
        trace: trace(WARMUP_REQUESTS, mean_gap_ns),
    };
    let warmup = runner.request();
    runner.trace = trace(REPLAY_REQUESTS, mean_gap_ns);
    Ready {
        runner: Box::new(runner),
        provision_ns,
        warmup,
    }
}

impl Runner for BrokerReplay {
    fn request(&mut self) -> Sample {
        let started = Instant::now();
        let report = self.broker.run(&self.trace);
        let wall_ns = elapsed_ns(started);

        let requests = self.trace.arrivals.len() as u64;
        let images: u64 = self
            .trace
            .arrivals
            .iter()
            .map(|a| a.request.images.len() as u64)
            .sum();
        let mut sample = Sample::failed(started, wall_ns, requests, images);
        let mut served = 0u64;
        for outcome in &report.outcomes {
            let sent = &self.trace.arrivals[outcome.id as usize].request.images;
            let exact = outcome.served == Served::Exact
                && outcome.logits.len() == sent.len()
                && sent
                    .iter()
                    .zip(&outcome.logits)
                    .all(|(image, logits)| &self.model.forward_ints(image) == logits);
            if exact {
                served += 1;
                sample.verified_images += sent.len() as u64;
            }
        }
        // Shed, dropped, failed and degraded requests all count as failed:
        // whatever did not come back exact.
        sample.failed = requests - served;
        sample.upload_bytes = report.total_upload_bytes;
        let dropped = report.dropped_queue_full
            + report.dropped_oversize
            + report.dropped_deadline
            + report.failed;
        sample.layer = vec![
            ("serve.virt_latency_ms_p50", ms(report.latency.p50_ns)),
            ("serve.virt_latency_ms_p95", ms(report.latency.p95_ns)),
            ("serve.virt_latency_ms_max", ms(report.latency.max_ns)),
            ("serve.virt_makespan_ms", ms(report.makespan_ns)),
            ("serve.batches", report.batches as f64),
            (
                "serve.batch_fill_permille",
                report.mean_fill_permille() as f64,
            ),
            (
                "serve.dropped_permille",
                dropped as f64 * 1e3 / report.offered.max(1) as f64,
            ),
            ("serve.he_ns_per_request", report.he_ns_per_request() as f64),
            (
                "serve.batch_wall_ms_mean",
                ms(wall_ns) / report.batches.max(1) as f64,
            ),
        ];
        sample.children.push(Child {
            name: "Broker::run".into(),
            offset_ns: 0,
            dur_ns: wall_ns,
            derived: false,
        });
        sample
    }
}
