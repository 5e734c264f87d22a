//! Layer placement planning (paper §IV-C/§IV-D).
//!
//! Linear layers (convolution, fully connected) run under HE outside the
//! enclave — the model weights never enter the enclave, avoiding the EPC
//! pressure and side-channel surface of §III-B. Non-linear layers (activation,
//! pooling) run inside on plaintext, in one boundary crossing: the activation
//! already decrypts the whole map, so pooling rides along (`SGXPool`) and
//! the paper's window-size rule for `SGXDiv` (§VI-D) never pays off in a
//! compiled plan (DESIGN.md §6); it stays a Fig. 6 experiment.
//!
//! The plan is the program: [`plan_for`] compiles the paper's CNN into the
//! ordered [`Stage`] list that [`crate::pipeline::HybridInference::run`]
//! walks — HE layers and enclave operators alike are data, and adjacent
//! batched enclave stages compile to one stage carrying the chain of their
//! operators (§VI-E); a hybrid plan closes with the logit reduction a packed
//! egress needs. The degraded pure-HE fallback is the same CNN compiled with
//! [`Placement::PureHe`]; the Fig. 8 control groups, the `SGXDiv` split, the
//! noise refresh and the per-op experiments are hand-built plans.

use hesgx_henn::cryptonets::CryptoNets;
use hesgx_henn::image::Layout;
use hesgx_henn::layers::HeLayer;
use hesgx_nn::layers::ActivationKind;
use hesgx_nn::quantize::QuantizedCnn;
use serde::{Deserialize, Serialize};

/// Whether the enclave is available to a plan's non-linear layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// Linear layers under HE outside, non-linear layers exact on plaintext
    /// inside SGX (paper Fig. 2). Logits are bit-identical to
    /// [`QuantizedCnn::forward_ints`].
    Hybrid,
    /// The enclave is unavailable: the pure-HE engine's plan
    /// ([`CryptoNets::LAYERS`]). The sigmoid becomes the square, mean
    /// pooling stays a window sum (no division without the enclave), and
    /// over a [`Layout::Orbit`] map the FC rotates. The logits are exactly
    /// [`QuantizedCnn::forward_ints`] of the same weights quantized for
    /// [`hesgx_nn::quantize::QuantPipeline::CryptoNets`] — a different
    /// fixed-point scale, which [`crate::session::Served::Degraded`] marks.
    /// A service compiles this plan only when its parameters can carry it
    /// ([`crate::pipeline::HybridInference::degraded_plan`]).
    PureHe,
}

/// What the enclave computes on the decrypted slots between ECALL-in and
/// re-encrypt (paper §IV-D/§IV-E) — the operand of
/// [`crate::sgx_ops::InferenceEnclave::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EnclaveOp {
    /// The exact activation, cell by cell (`SGXSigmoid` in Fig. 5; ReLU,
    /// Tanh and LeakyReLU work just as well, §VI-C).
    Activation(ActivationKind),
    /// `SGXPool` (§VI-D): every pooling window is summed and divided
    /// inside — fixed input size regardless of window (the green line of
    /// Fig. 6).
    MeanPool,
    /// `SGXDiv` (§VI-D): the non-linear division by `k²` of window sums that
    /// were computed homomorphically outside. Hand-built plans only (Fig. 6):
    /// behind the activation's crossing the fused `SGXPool` is cheaper.
    Divide,
    /// Noise refresh (`ecall_DecreaseNoise`, §IV-E / Table V): decrypt and
    /// re-encrypt unchanged, removing all accumulated noise and shrinking
    /// size-3 ciphertexts back to size 2 — the enclave alternative to
    /// relinearization. Hand-built plans only: every crossing of a compiled
    /// plan already re-encrypts fresh.
    Refresh,
    /// The closing stage behind a fully connected layer that read
    /// [`Layout::FcOperand`]: its output cells, one a class, are decrypted,
    /// the partial sums of every (class, image) are added up, and the
    /// logits leave in `⌈C / ⌊n/B⌋⌉` ciphertexts (one for the paper's model
    /// up to 102 images). A chain of its own; the run skips it when the
    /// request's egress was [`Layout::Pixel`].
    LogitReduce,
}

/// How an enclave stage's cells cross the boundary (§VI-E) — the Fig. 8
/// control groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EcallBatching {
    /// One ECALL per feature map (the framework's design, `EncryptSGX`).
    Batched,
    /// One ECALL per output cell (`EncryptSGX (single)` — the paper's
    /// negative result: "frequent accesses to SGX bring about huge
    /// time-consuming").
    PerPixel,
}

/// One step of a plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stage {
    /// A layer under HE outside the enclave (§IV-C).
    He(HeLayer),
    /// One boundary crossing (§IV-D): decrypt once, fold the chain of exact
    /// operators over the plaintext in order, re-encrypt the final map.
    Enclave(Vec<EnclaveOp>, EcallBatching),
}

impl Stage {
    /// A batched enclave stage computing the single operator `op`.
    pub fn enclave(op: EnclaveOp) -> Self {
        Stage::Enclave(vec![op], EcallBatching::Batched)
    }
}

/// Merges every batched enclave stage into a batched enclave stage right
/// before it.
pub(crate) fn fuse(mut stages: Vec<Stage>) -> Vec<Stage> {
    use EcallBatching::Batched;
    stages.dedup_by(|later, earlier| match (earlier, later) {
        (Stage::Enclave(chain, Batched), Stage::Enclave(ops, Batched)) => {
            chain.append(ops);
            true
        }
        _ => false,
    });
    stages
}

/// An executable plan: the stage list one inference walks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InferencePlan {
    /// Which side of the placement rule the plan was compiled for (names
    /// the spans: `infer.layer[i]` vs `infer.degraded.layer[i]`).
    pub placement: Placement,
    /// The stages, in execution order. The last stage's output cells are
    /// the logits.
    pub stages: Vec<Stage>,
}

impl InferencePlan {
    /// The layout a `batch`-image request enters this plan in, for the FV
    /// client path and `ecall_Transcipher` alike. The pure-HE plan reads
    /// [`Layout::Orbit`] where [`CryptoNets`] encrypts in it
    /// ([`Layout::for_orbit`]). [`Layout::Coeff`] needs a repacker behind
    /// the convolution — a batched enclave stage, which decrypts the whole
    /// map anyway; there the count decides ([`Layout::for_conv`]). Every
    /// other plan reads [`Layout::Pixel`].
    pub fn ingress_layout(&self, model: &QuantizedCnn, batch: usize, slots: usize) -> Layout {
        use EcallBatching::Batched;
        if self.placement == Placement::PureHe {
            return Layout::for_orbit(model.in_side, model.kernel, model.window, batch, slots);
        }
        let [Stage::He(HeLayer::Conv), Stage::Enclave(_, Batched), ..] = &self.stages[..] else {
            return Layout::Pixel;
        };
        Layout::for_conv(model.in_side, batch, slots)
    }

    /// The layout enclave stage `layer` emits for an input in `input`
    /// layout. [`Layout::FcOperand`] needs the plan to end `[Enclave(batched),
    /// He(Fc), Enclave([LogitReduce])]` from `layer` on and the input to say
    /// how many images it carries; there the count decides
    /// ([`Layout::for_fc`]). Everything else leaves as [`Layout::Pixel`].
    pub fn egress_layout(
        &self,
        layer: usize,
        model: &QuantizedCnn,
        input: Layout,
        slots: usize,
    ) -> Layout {
        use EcallBatching::Batched;
        let closing = Stage::enclave(EnclaveOp::LogitReduce);
        match (input, self.stages.get(layer..).unwrap_or_default()) {
            (
                Layout::Coeff { batch, .. },
                [Stage::Enclave(_, Batched), Stage::He(HeLayer::Fc), last],
            ) if *last == closing => Layout::for_fc(model.fc_in(), model.classes, batch, slots),
            _ => Layout::Pixel,
        }
    }
}

/// Compiles the paper's 4-layer CNN into a plan: linear layers → HE
/// outside; the activation and the mean pooling → exact inside the enclave,
/// in one crossing whatever the window; or, when `placement` says the
/// enclave is unavailable, the pure-HE engine's own layers
/// ([`CryptoNets::LAYERS`]).
pub fn plan_for(activation: ActivationKind, placement: Placement) -> InferencePlan {
    let stages = match placement {
        Placement::Hybrid => fuse(vec![
            Stage::He(HeLayer::Conv),
            Stage::enclave(EnclaveOp::Activation(activation)),
            Stage::enclave(EnclaveOp::MeanPool),
            Stage::He(HeLayer::Fc),
            Stage::enclave(EnclaveOp::LogitReduce),
        ]),
        Placement::PureHe => CryptoNets::LAYERS.map(Stage::He).to_vec(),
    };
    InferencePlan { placement, stages }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hesgx_nn::quantize::QuantPipeline;

    #[test]
    fn linear_layers_stay_outside() {
        let model = QuantizedCnn {
            pipeline: QuantPipeline::Hybrid,
            in_side: 28,
            conv_out: 6,
            kernel: 5,
            window: 2,
            classes: 10,
            conv_weights: vec![0; 150],
            conv_bias: vec![0; 6],
            fc_weights: vec![0; 8640],
            fc_bias: vec![0; 10],
            weight_scale: 16,
            fc_scale: 32,
            act_scale: 16,
        };
        let sigmoid = ActivationKind::Sigmoid;
        let activation = EnclaveOp::Activation(sigmoid);
        let batched = EcallBatching::Batched;
        // The pooling rides the activation's boundary crossing: one enclave
        // stage, and the closing reduction behind the FC layer.
        let closing = Stage::enclave(EnclaveOp::LogitReduce);
        let default = plan_for(sigmoid, Placement::Hybrid);
        assert_eq!(
            default.stages,
            [
                Stage::He(HeLayer::Conv),
                Stage::Enclave(vec![activation, EnclaveOp::MeanPool], batched),
                Stage::He(HeLayer::Fc),
                closing.clone(),
            ]
        );
        let relu = plan_for(ActivationKind::Relu, Placement::Hybrid);
        let relu_pool = vec![
            EnclaveOp::Activation(ActivationKind::Relu),
            EnclaveOp::MeanPool,
        ];
        assert_eq!(relu.stages[1], Stage::Enclave(relu_pool, batched));
        // Only batched neighbours merge: a hand-unfused plan (the paper's
        // per-op experiments, Fig. 8's per-pixel group) survives the pass;
        // any batched neighbour merges, a hand-built refresh included.
        let unfused = vec![
            Stage::Enclave(vec![activation], EcallBatching::PerPixel),
            Stage::enclave(EnclaveOp::MeanPool),
        ];
        assert_eq!(fuse(unfused.clone()), unfused);
        let refreshed = vec![
            Stage::enclave(activation),
            Stage::enclave(EnclaveOp::Refresh),
        ];
        assert_eq!(
            fuse(refreshed),
            [Stage::Enclave(
                vec![activation, EnclaveOp::Refresh],
                batched
            )]
        );
        // The egress rule reads the plan's shape from the stage it is asked
        // about, the batch off that stage's input, and then the count: the
        // 864 inputs here leave packed, each once, up to 512 images at n =
        // 1024 (`⌊1024/513⌋ = 1` slot an image is no fewer cells).
        let coeff = |batch| Layout::Coeff {
            batch,
            side: 24,
            pitch: 28,
        };
        let egress =
            |plan: &InferencePlan, layer, input| plan.egress_layout(layer, &model, input, 1024);
        let operand = |batch| Layout::FcOperand {
            classes: 1,
            batch,
            inputs: 864,
        };
        assert_eq!(egress(&default, 1, coeff(10)), operand(10));
        assert_eq!(egress(&default, 1, coeff(512)), operand(512));
        assert_eq!(egress(&default, 1, coeff(513)), Layout::Pixel);
        // A per-pixel map does not say how many images it carries; no other
        // stage feeds the FC layer; a hand-built plan may leave the closing
        // stage out, end it differently, put a refresh stage between the
        // crossing and the FC layer, or cross per pixel.
        assert_eq!(egress(&default, 1, Layout::Pixel), Layout::Pixel);
        for layer in [0, 2, 3, 4, usize::MAX] {
            assert_eq!(egress(&default, layer, coeff(10)), Layout::Pixel);
        }
        let edit = |edit: &dyn Fn(&mut Vec<Stage>)| {
            let mut by_hand = default.clone();
            edit(&mut by_hand.stages);
            egress(&by_hand, 1, coeff(10))
        };
        let refresh = Stage::enclave(EnclaveOp::Refresh);
        assert_eq!(edit(&|_| ()), operand(10));
        assert_eq!(edit(&|stages| stages.truncate(3)), Layout::Pixel);
        assert_eq!(edit(&|stages| stages.push(closing.clone())), Layout::Pixel);
        assert_eq!(edit(&|stages| stages[3] = refresh.clone()), Layout::Pixel);
        assert_eq!(
            edit(&|stages| stages.insert(2, refresh.clone())),
            Layout::Pixel
        );
        for stage in [1, 3] {
            let per_pixel = |stages: &mut Vec<Stage>| {
                if let Stage::Enclave(_, batching) = &mut stages[stage] {
                    *batching = EcallBatching::PerPixel;
                }
            };
            assert_eq!(edit(&per_pixel), Layout::Pixel);
        }
        // Without the enclave the same model compiles to the CryptoNets list.
        let plan = plan_for(sigmoid, Placement::PureHe);
        assert_eq!(
            plan.stages,
            [
                Stage::He(HeLayer::Conv),
                Stage::He(HeLayer::Square),
                Stage::He(HeLayer::SumPool),
                Stage::He(HeLayer::Fc),
            ]
        );
    }
}
