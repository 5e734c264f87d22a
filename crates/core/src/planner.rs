//! Layer placement planning (paper §IV-C/§IV-D and the §VI-D pooling rule).
//!
//! Linear layers (convolution, fully connected) run under HE outside the
//! enclave — the model weights never enter the enclave, avoiding the EPC
//! pressure and side-channel surface of §III-B. Non-linear layers (activation,
//! pooling) run inside on plaintext. For pooling the paper derives a
//! window-size rule from Fig. 6: small windows favor `SGXPool` (ship the whole
//! map in), larger windows favor `SGXDiv` (HE window-sums outside, division
//! inside) because the homomorphic addition shrinks what must be decrypted.
//!
//! The plan is the program: [`plan_for`] compiles a model and a
//! [`ServePolicy`] into the ordered [`Stage`] list that
//! [`crate::pipeline::HybridInference::run`] walks — HE layers and enclave
//! operators alike are data, and adjacent batched enclave stages compile to
//! one stage carrying the chain of their operators (§VI-E); a hybrid plan
//! closes with the logit reduction a packed egress needs. The degraded
//! pure-HE fallback is the same model compiled with [`Placement::PureHe`]; the
//! Fig. 8 control groups and per-op experiments are hand-built unfused plans.

use crate::request::{NoiseRefresh, ServePolicy};
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
    /// The enclave is unavailable: the sigmoid becomes the CryptoNets
    /// square under the ceremony's evaluation keys and mean pooling stays a
    /// window sum (no division without the enclave). The logits are exactly
    /// [`QuantizedCnn::forward_ints`] of the same weights quantized for
    /// [`hesgx_nn::quantize::QuantPipeline::CryptoNets`] — a different
    /// fixed-point scale, which [`crate::session::Served::Degraded`] marks.
    /// A service compiles this plan only when its parameters can carry it
    /// ([`crate::pipeline::HybridInference::degraded_plan`]).
    PureHe,
}

/// How the pooling layer splits between HE and the enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PoolStrategy {
    /// The whole feature map enters the enclave; addition and division both
    /// happen inside. Best for small windows (paper §VI-D).
    SgxPool,
    /// Window sums are computed homomorphically outside; only the reduced map
    /// enters the enclave for the division. Best for windows ≥ 3.
    SgxDiv,
}

impl PoolStrategy {
    /// The paper's decision rule (§VI-D): *"we can choose SGXPool when the
    /// window size is less than 3 and select SGXDiv when the window size is
    /// larger"*.
    pub fn select(window: usize) -> Self {
        if window < 3 {
            PoolStrategy::SgxPool
        } else {
            PoolStrategy::SgxDiv
        }
    }

    /// The stages the split compiles to: `SgxPool` is one ECALL over the
    /// whole map; `SgxDiv` sums the windows under HE first and ships the
    /// reduced (noisier) map in for the division.
    pub fn stages(self) -> Vec<Stage> {
        match self {
            PoolStrategy::SgxPool => vec![Stage::enclave(EnclaveOp::MeanPool)],
            PoolStrategy::SgxDiv => vec![
                Stage::He(HeLayer::SumPool),
                Stage::enclave(EnclaveOp::Divide),
            ],
        }
    }
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
    /// were computed homomorphically outside.
    Divide,
    /// Noise refresh (`ecall_DecreaseNoise`, §IV-E / Table V): decrypt and
    /// re-encrypt unchanged, removing all accumulated noise and shrinking
    /// size-3 ciphertexts back to size 2 — the enclave alternative to
    /// relinearization.
    Refresh,
    /// The closing stage behind a fully connected layer that read
    /// [`Layout::FcOperand`]: its one output cell is decrypted, the partial
    /// sums of every (class, image) are added up, and the logits leave in
    /// one ciphertext. A chain of its own; the run skips it when the
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
/// before it. [`EnclaveOp::Refresh`] never merges: it is policy-gated on a
/// probe of exactly what it refreshes and has a fault site of its own.
pub(crate) fn fuse(mut stages: Vec<Stage>) -> Vec<Stage> {
    use EcallBatching::Batched;
    let merges = |ops: &[EnclaveOp]| !ops.contains(&EnclaveOp::Refresh);
    stages.dedup_by(|later, earlier| match (earlier, later) {
        (Stage::Enclave(chain, Batched), Stage::Enclave(ops, Batched))
            if merges(chain) && merges(ops) =>
        {
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
    /// Gate every [`EnclaveOp::Refresh`] stage on the live budget: the
    /// enclave probes first and refreshes only below
    /// `refresh_threshold_bits`. Otherwise a refresh stage always runs.
    pub refresh_auto: bool,
    /// Refresh ciphertexts inside the enclave when the minimum noise budget
    /// falls below this many bits.
    pub refresh_threshold_bits: u32,
}

impl InferencePlan {
    /// The layout a `batch`-image request enters this plan in, for the FV
    /// client path and `ecall_Transcipher` alike. [`Layout::Patches`] needs a
    /// repacker behind the convolution — a batched enclave stage, which
    /// decrypts the whole map anyway; there the count decides
    /// ([`Layout::for_conv`]). Every other plan reads [`Layout::Pixel`].
    pub fn ingress_layout(&self, model: &QuantizedCnn, batch: usize, slots: usize) -> Layout {
        use EcallBatching::Batched;
        let [Stage::He(HeLayer::Conv), Stage::Enclave(_, Batched), ..] = &self.stages[..] else {
            return Layout::Pixel;
        };
        Layout::for_conv(model.in_side, model.kernel, batch, slots)
    }

    /// The layout enclave stage `layer` emits for an input in `input`
    /// layout. [`Layout::FcOperand`] needs the plan to end `[Enclave(batched,
    /// no Refresh), He(Fc), Enclave([LogitReduce])]` from `layer` on and the
    /// input to say how many images it carries; there the count decides
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
                Layout::Patches { batch, .. },
                [Stage::Enclave(chain, Batched), Stage::He(HeLayer::Fc), last],
            ) if *last == closing && !chain.contains(&EnclaveOp::Refresh) => {
                Layout::for_fc(model.fc_in(), model.classes, batch, slots)
            }
            _ => Layout::Pixel,
        }
    }
}

/// The refresh threshold a policy without an override gets.
const DEFAULT_REFRESH_THRESHOLD_BITS: u32 = 10;

/// Compiles the paper's 4-layer CNN into a plan: linear layers → HE
/// outside; non-linear layers → exact inside the enclave (`activation`,
/// pooling split by the §VI-D window rule, the policy's noise refresh before
/// the FC layer), or their HE stand-ins when `placement` says the enclave is
/// unavailable.
pub fn plan_for(
    model: &QuantizedCnn,
    activation: ActivationKind,
    policy: &ServePolicy,
    placement: Placement,
) -> InferencePlan {
    let mut stages = vec![Stage::He(HeLayer::Conv)];
    match placement {
        Placement::Hybrid => {
            stages.push(Stage::enclave(EnclaveOp::Activation(activation)));
            stages.extend(PoolStrategy::select(model.window).stages());
            if policy.noise_refresh != NoiseRefresh::Off {
                stages.push(Stage::enclave(EnclaveOp::Refresh));
            }
        }
        Placement::PureHe => {
            stages.push(Stage::He(HeLayer::Square));
            stages.push(Stage::He(HeLayer::SumPool));
        }
    }
    stages.push(Stage::He(HeLayer::Fc));
    if placement == Placement::Hybrid {
        stages.push(Stage::enclave(EnclaveOp::LogitReduce));
    }
    InferencePlan {
        placement,
        stages: fuse(stages),
        refresh_auto: policy.noise_refresh == NoiseRefresh::Auto,
        refresh_threshold_bits: policy
            .refresh_threshold_bits
            .unwrap_or(DEFAULT_REFRESH_THRESHOLD_BITS),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hesgx_nn::quantize::QuantPipeline;

    #[test]
    fn pool_rule_matches_paper() {
        assert_eq!(PoolStrategy::select(2), PoolStrategy::SgxPool);
        assert_eq!(PoolStrategy::select(3), PoolStrategy::SgxDiv);
        assert_eq!(PoolStrategy::select(4), PoolStrategy::SgxDiv);
        assert_eq!(PoolStrategy::select(12), PoolStrategy::SgxDiv);
    }

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
        let plan = plan_for(&model, sigmoid, &ServePolicy::default(), Placement::Hybrid);
        // The paper's model uses a 2×2 window → SgxPool, and the pooling
        // rides the activation's boundary crossing: one enclave stage, and
        // the closing reduction behind the FC layer.
        let closing = Stage::enclave(EnclaveOp::LogitReduce);
        assert_eq!(
            plan.stages,
            [
                Stage::He(HeLayer::Conv),
                Stage::Enclave(vec![activation, EnclaveOp::MeanPool], batched),
                Stage::He(HeLayer::Fc),
                closing.clone(),
            ]
        );
        assert_eq!(plan.refresh_threshold_bits, 10);
        assert!(!plan.refresh_auto);
        // A 3×3 window → SgxDiv: the window sum is an HE stage of its own
        // between the two crossings, so nothing is adjacent and nothing
        // merges — only the division crosses into the enclave.
        let window_3 = QuantizedCnn {
            window: 3,
            ..model.clone()
        };
        let plan = plan_for(
            &window_3,
            sigmoid,
            &ServePolicy::default(),
            Placement::Hybrid,
        );
        assert_eq!(
            plan.stages,
            [
                Stage::He(HeLayer::Conv),
                Stage::enclave(activation),
                Stage::He(HeLayer::SumPool),
                Stage::enclave(EnclaveOp::Divide),
                Stage::He(HeLayer::Fc),
                closing.clone(),
            ]
        );
        // The policy's refresh lands between pooling and the FC layer and
        // stays a stage of its own, gated or not.
        let policy = ServePolicy::new()
            .noise_refresh(NoiseRefresh::Auto)
            .refresh_threshold_bits(7);
        let plan = plan_for(&model, ActivationKind::Relu, &policy, Placement::Hybrid);
        let relu_pool = vec![
            EnclaveOp::Activation(ActivationKind::Relu),
            EnclaveOp::MeanPool,
        ];
        assert_eq!(
            plan.stages[1..3],
            [
                Stage::Enclave(relu_pool, batched),
                Stage::enclave(EnclaveOp::Refresh)
            ]
        );
        assert_eq!(plan.stages.len(), 5);
        assert!(plan.refresh_auto);
        assert_eq!(plan.refresh_threshold_bits, 7);
        let always = ServePolicy::new().noise_refresh(NoiseRefresh::Always);
        let always = plan_for(&model, sigmoid, &always, Placement::Hybrid);
        assert_eq!(always.stages[2], plan.stages[2]);
        assert_eq!(always.stages.len(), 5);
        assert!(!always.refresh_auto);
        // Only batched neighbours merge: a hand-unfused plan (the paper's
        // per-op experiments, Fig. 8's per-pixel group) survives the pass.
        let unfused = vec![
            Stage::Enclave(vec![activation], EcallBatching::PerPixel),
            Stage::enclave(EnclaveOp::MeanPool),
        ];
        assert_eq!(fuse(unfused.clone()), unfused);
        // The egress rule reads the plan's shape from the stage it is asked
        // about, the batch off that stage's input, and then the count: ten
        // classes at n = 1024 leave packed up to 51 images (`⌊1024/520⌋ = 1`
        // input a cell is no fewer cells), whatever the 864 inputs here.
        let default = plan_for(&model, sigmoid, &ServePolicy::default(), Placement::Hybrid);
        let patches = |batch| Layout::Patches { batch, side: 24 };
        let egress =
            |plan: &InferencePlan, layer, input| plan.egress_layout(layer, &model, input, 1024);
        let operand = |batch| Layout::FcOperand {
            classes: 10,
            batch,
            inputs: 864,
        };
        assert_eq!(egress(&default, 1, patches(10)), operand(10));
        assert_eq!(egress(&default, 1, patches(51)), operand(51));
        assert_eq!(egress(&default, 1, patches(52)), Layout::Pixel);
        // A per-pixel map does not say how many images it carries; no other
        // stage feeds the FC layer; a refresh re-encrypts per pixel (`plan`,
        // `always`); a hand-built plan may leave the closing stage out, end
        // it differently, or cross per pixel.
        assert_eq!(egress(&default, 1, Layout::Pixel), Layout::Pixel);
        for layer in [0, 2, 3, 4, usize::MAX] {
            assert_eq!(egress(&default, layer, patches(10)), Layout::Pixel);
        }
        for refreshed in [&plan, &always] {
            for layer in 0..5 {
                assert_eq!(egress(refreshed, layer, patches(10)), Layout::Pixel);
            }
        }
        let edit = |edit: &dyn Fn(&mut Vec<Stage>)| {
            let mut by_hand = default.clone();
            edit(&mut by_hand.stages);
            egress(&by_hand, 1, patches(10))
        };
        assert_eq!(edit(&|_| ()), operand(10));
        assert_eq!(edit(&|stages| stages.truncate(3)), Layout::Pixel);
        assert_eq!(edit(&|stages| stages.push(closing.clone())), Layout::Pixel);
        assert_eq!(
            edit(&|stages| stages[3] = Stage::enclave(EnclaveOp::Refresh)),
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
        // Without the enclave the same model compiles to the CryptoNets
        // list, whatever the policy says about refreshing.
        let plan = plan_for(&model, sigmoid, &policy, Placement::PureHe);
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
