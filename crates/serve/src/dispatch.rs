//! The broker→worker dispatch boundary, on the audited cost-charging
//! surface (`ecall-cost` lint scope): every public function here threads a
//! [`CostBreakdown`] through its return value, so no batch reaches the
//! enclave without the TEE cost model being charged.

use crate::config::HeCostModel;
use hesgx_core::pipeline::total_enclave_cost;
use hesgx_core::request::{InferRequest, InferResponse, VirtualNs};
use hesgx_core::session::Session;
use hesgx_core::Result;
use hesgx_tee::cost::CostBreakdown;
use hesgx_tee::wall::WallTimer;

/// Runs one packed batch on a worker session and returns the response
/// together with the enclave cost the pipeline charged for it (zero for a
/// failed batch). The dispatch is one `serve.dispatch` scope on the
/// session's recorder, annotated with the batch fill and booked with its
/// wall time only: the enclave terms already sit in the request's spans.
pub fn dispatch_batch(
    session: &Session,
    request: InferRequest,
) -> (Result<InferResponse>, CostBreakdown) {
    let start = WallTimer::start();
    let fill = request.images.len() as u64;
    let scope = session.recorder().open("serve.dispatch", &[("fill", fill)]);
    match session.serve(request) {
        Ok(response) => {
            scope.close(CostBreakdown {
                real_ns: start.elapsed_ns(),
                ..CostBreakdown::default()
            });
            let cost = total_enclave_cost(&response.metrics);
            (Ok(response), cost)
        }
        Err(err) => (Err(err), CostBreakdown::default()),
    }
}

/// The modeled service time of a dispatched batch on the virtual clock:
/// the HE evaluator ops priced through the cost table, the ingress transfer
/// of the request's upload bytes, plus the *modeled* enclave terms
/// (transitions, copies, paging) of the charged cost. Wall terms are
/// deliberately excluded — they vary per run and per thread count, and the
/// virtual clock must not.
// hesgx-lint: allow(ecall-cost, reason = "pure arithmetic over an already-charged cost")
pub fn modeled_service_ns(
    response: &InferResponse,
    charged: &CostBreakdown,
    he_costs: &HeCostModel,
) -> VirtualNs {
    he_costs
        .eval_ns(&response.metrics.ops)
        .saturating_add(he_costs.ingress_ns(response.upload_bytes))
        .saturating_add(charged.model_ns())
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hesgx_core::prelude::*;
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

    #[test]
    fn dispatch_charges_the_enclave_cost() {
        let session = SessionBuilder::new()
            .params(ParamsPreset::Small)
            .threads(1)
            .seed(3)
            .build(Platform::new(9_100), small_model())
            .unwrap();
        let image: Vec<i64> = (0..64).map(|p| (p % 16) as i64).collect();
        let (result, cost) = dispatch_batch(&session, InferRequest::single(image));
        let response = result.unwrap();
        assert!(cost.model_ns() > 0, "enclave stages must charge model time");
        let ns = modeled_service_ns(&response, &cost, &HeCostModel::paper());
        assert!(ns >= cost.model_ns());
        assert!(response.upload_bytes > 0, "FV ingress uploads ciphertexts");
        // The remainder beyond the charged enclave time prices the recorded
        // op counts plus the ingress transfer of the upload bytes.
        assert_eq!(
            ns - cost.model_ns(),
            HeCostModel::paper().eval_ns(&response.metrics.ops)
                + HeCostModel::paper().ingress_ns(response.upload_bytes)
        );
    }
}
