//! Fixed-point quantization of the paper's CNN, plus dynamic-range analysis.
//!
//! The encrypted pipelines compute with integers modulo the plaintext modulus,
//! so the model must be expressed in exact integer arithmetic and every
//! intermediate value must be proven to fit. This module:
//!
//! * quantizes a trained float [`Network`] built by
//!   [`crate::model_zoo::paper_cnn`] into [`QuantizedCnn`] — integer weights,
//!   integer biases at matching scales;
//! * provides [`QuantizedCnn::forward_ints`], the **bit-exact reference
//!   semantics** both the HE-only and the hybrid pipeline must reproduce
//!   (integration tests in `hesgx-core`/`hesgx-henn` assert equality);
//! * computes a [`RangeReport`] bounding every intermediate, from which the
//!   required plaintext-modulus capacity follows (paper §III-A's "numerical
//!   diffusion" of scaled mean-pooling shows up here as the ×k² term).

use crate::layers::{ActivationKind, Layer};
use crate::network::Network;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Which encrypted pipeline the quantized model feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuantPipeline {
    /// Hybrid HE+SGX: exact sigmoid and true mean-pool inside the enclave;
    /// activations re-quantized to `act_scale` on re-encryption.
    Hybrid,
    /// CryptoNets-style HE-only: square activation, scaled (sum) mean-pool,
    /// everything exact integer arithmetic end to end.
    CryptoNets,
}

/// Pixel quantization step: grey 0–255 → 0–15, matching
/// [`crate::dataset::quantize_pixels`]. `x_f ≈ x_int * PIXEL_STEP`.
pub const PIXEL_STEP: f64 = 16.0 / 255.0;

/// Largest pixel magnitude a model's plaintext space is sized for: the top of
/// [`crate::dataset::quantize_pixels`]'s 0–15 range, and the input bound of
/// [`QuantizedCnn::range_report`].
pub const MAX_PIXEL: i64 = 15;

/// Integer version of the paper's 4-layer CNN shape: conv → activation →
/// pool → fully connected. Dimensions are configurable so tests and ablation
/// benches can run scaled-down instances; [`QuantizedCnn::from_network`]
/// fills in the paper's 28×28/6×(5×5)/2×2/10 configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedCnn {
    /// Pipeline variant this model is quantized for.
    pub pipeline: QuantPipeline,
    /// Input image side length.
    pub in_side: usize,
    /// Convolution output channels.
    pub conv_out: usize,
    /// Convolution kernel side.
    pub kernel: usize,
    /// Pooling window (2 in the paper).
    pub window: usize,
    /// Output classes.
    pub classes: usize,
    /// Conv weights `[conv_out][kernel][kernel]` (single input channel),
    /// value × `weight_scale`.
    pub conv_weights: Vec<i64>,
    /// Conv bias at conv-output scale.
    pub conv_bias: Vec<i64>,
    /// FC weights `[classes][conv_out * pool_side²]`, value × `fc_scale`.
    pub fc_weights: Vec<i64>,
    /// FC bias at logit scale.
    pub fc_bias: Vec<i64>,
    /// Scale applied to conv weights.
    pub weight_scale: i64,
    /// Scale applied to FC weights.
    pub fc_scale: i64,
    /// Scale of enclave-re-encrypted activations (hybrid only).
    pub act_scale: i64,
}

impl QuantizedCnn {
    /// Convolution output side.
    pub fn conv_side(&self) -> usize {
        self.in_side - self.kernel + 1
    }

    /// Pooling output side.
    pub fn pool_side(&self) -> usize {
        self.conv_side() / self.window
    }

    /// Flattened FC input size.
    pub fn fc_in(&self) -> usize {
        self.conv_out * self.pool_side() * self.pool_side()
    }

    /// Whether `pixels` is an image the model can serve: `in_side²` pixels,
    /// each within ±[`MAX_PIXEL`]. A larger pixel would wrap modulo the
    /// plaintext modulus into wrong logits no later stage can tell from
    /// right ones, so every served request is checked against this.
    pub fn accepts_image(&self, pixels: &[i64]) -> bool {
        pixels.len() == self.in_side * self.in_side
            && pixels.iter().all(|p| (-MAX_PIXEL..=MAX_PIXEL).contains(p))
    }

    /// Checks that the (public, hand-settable) fields describe a network the
    /// encrypted pipelines can run: the kernel fits the input, the pooling
    /// window tiles the conv output, and every weight/bias vector has the
    /// length its layer implies. Engine constructors call this before any
    /// shape arithmetic, so [`QuantizedCnn::conv_side`] and friends never
    /// underflow on a model that passed.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn check_geometry(&self) -> Result<(), String> {
        if self.kernel == 0 || self.kernel > self.in_side {
            return Err(format!(
                "kernel side {} does not fit the {}×{} input",
                self.kernel, self.in_side, self.in_side
            ));
        }
        if self.conv_out == 0 {
            return Err("the conv layer has no output channels".into());
        }
        if self.window == 0 || !self.conv_side().is_multiple_of(self.window) {
            return Err(format!(
                "pooling window {} does not tile the {}×{} conv output",
                self.window,
                self.conv_side(),
                self.conv_side()
            ));
        }
        let expected = [
            (
                "conv_weights",
                self.conv_weights.len(),
                self.conv_out * self.kernel * self.kernel,
            ),
            ("conv_bias", self.conv_bias.len(), self.conv_out),
            (
                "fc_weights",
                self.fc_weights.len(),
                self.classes * self.fc_in(),
            ),
            ("fc_bias", self.fc_bias.len(), self.classes),
        ];
        for (name, len, want) in expected {
            if len != want {
                return Err(format!("{name} holds {len} values, the shape needs {want}"));
            }
        }
        Ok(())
    }

    /// Quantizes a float network built by [`crate::model_zoo::paper_cnn`].
    ///
    /// # Panics
    ///
    /// Panics when the network does not have the paper's 4-layer shape.
    pub fn from_network(
        net: &Network,
        pipeline: QuantPipeline,
        weight_scale: i64,
        fc_scale: i64,
        act_scale: i64,
    ) -> Self {
        let layers = net.layers();
        assert_eq!(layers.len(), 4, "expected the paper's 4-layer CNN");
        let Layer::Conv(conv) = &layers[0] else {
            panic!("layer 0 must be convolutional")
        };
        let Layer::Pool(pool) = &layers[2] else {
            panic!("layer 2 must be pooling")
        };
        let Layer::Dense(dense) = &layers[3] else {
            panic!("layer 3 must be fully connected")
        };
        assert_eq!(conv.in_channels, 1, "paper model is single-channel");

        let conv_weights: Vec<i64> = conv
            .weights
            .data()
            .iter()
            .map(|&w| (w * weight_scale as f64).round() as i64)
            .collect();
        // conv_out_int ≈ conv_out_f * weight_scale / PIXEL_STEP.
        let conv_out_scale = weight_scale as f64 / PIXEL_STEP;
        let conv_bias: Vec<i64> = conv
            .bias
            .iter()
            .map(|&b| (b * conv_out_scale).round() as i64)
            .collect();

        let fc_weights: Vec<i64> = dense
            .weights
            .data()
            .iter()
            .map(|&w| (w * fc_scale as f64).round() as i64)
            .collect();
        // FC input scale depends on the pipeline.
        let fc_in_scale = match pipeline {
            // Enclave outputs activations at act_scale; mean-pool preserves it.
            QuantPipeline::Hybrid => act_scale as f64,
            // Square of conv ints, summed over the window.
            QuantPipeline::CryptoNets => {
                conv_out_scale * conv_out_scale * (pool.window * pool.window) as f64
            }
        };
        let fc_bias: Vec<i64> = dense
            .bias
            .iter()
            .map(|&b| (b * fc_scale as f64 * fc_in_scale).round() as i64)
            .collect();

        let conv_side = 28 - conv.kernel + 1;
        let pool_side = conv_side / pool.window;
        assert_eq!(
            dense.in_dim,
            conv.out_channels * pool_side * pool_side,
            "FC input must match pooled conv output"
        );

        QuantizedCnn {
            pipeline,
            in_side: 28,
            conv_out: conv.out_channels,
            kernel: conv.kernel,
            window: pool.window,
            classes: dense.out_dim,
            conv_weights,
            conv_bias,
            fc_weights,
            fc_bias,
            weight_scale,
            fc_scale,
            act_scale,
        }
    }

    /// Scale factor mapping conv-output integers back to float pre-activations.
    pub fn conv_out_scale(&self) -> f64 {
        self.weight_scale as f64 / PIXEL_STEP
    }

    /// The exact integer convolution over `in_side²` quantized pixels.
    /// Returns `[conv_out][conv_side][conv_side]` integers.
    ///
    /// # Panics
    ///
    /// Panics on a pixel-count mismatch.
    pub fn conv_ints(&self, pixels: &[i64]) -> Vec<i64> {
        let (n, k, s) = (self.in_side, self.kernel, self.conv_side());
        assert_eq!(pixels.len(), n * n);
        let mut out = vec![0i64; self.conv_out * s * s];
        for o in 0..self.conv_out {
            for oy in 0..s {
                for ox in 0..s {
                    let mut acc = self.conv_bias[o];
                    for ky in 0..k {
                        for kx in 0..k {
                            acc += self.conv_weights[(o * k + ky) * k + kx]
                                * pixels[(oy + ky) * n + (ox + kx)];
                        }
                    }
                    out[(o * s + oy) * s + ox] = acc;
                }
            }
        }
        out
    }

    /// The exact enclave activation for the hybrid pipeline: dequantize,
    /// apply the true sigmoid, re-quantize to `act_scale`.
    pub fn enclave_sigmoid(&self, conv_int: i64) -> i64 {
        let x = conv_int as f64 / self.conv_out_scale();
        (ActivationKind::Sigmoid.apply(x) * self.act_scale as f64).round() as i64
    }

    /// Generic enclave activation: dequantize, apply the exact function,
    /// re-quantize to `act_scale`. The paper's §VI-C point — "SGX enables the
    /// calculation of diverse activation functions (e.g., Relu and Tanh)
    /// flexibly, accurately, and quickly" — is this one function.
    pub fn enclave_activation(&self, conv_int: i64, kind: ActivationKind) -> i64 {
        let x = conv_int as f64 / self.conv_out_scale();
        (kind.apply(x) * self.act_scale as f64).round() as i64
    }

    /// The exact enclave mean over a pooling-window sum (round half up, as the
    /// enclave computes it; activations are nonnegative).
    pub fn enclave_mean(&self, window_sum: i64) -> i64 {
        let k2 = (self.window * self.window) as i64;
        (window_sum + k2 / 2).div_euclid(k2)
    }

    /// Full exact-integer forward pass; returns the `classes` logits.
    ///
    /// This function *defines* the reference semantics of both encrypted
    /// pipelines: the HE+SGX and HE-only implementations must produce exactly
    /// these integers.
    pub fn forward_ints(&self, pixels: &[i64]) -> Vec<i64> {
        let conv = self.conv_ints(pixels);
        let act: Vec<i64> = match self.pipeline {
            QuantPipeline::Hybrid => conv.iter().map(|&v| self.enclave_sigmoid(v)).collect(),
            QuantPipeline::CryptoNets => conv.iter().map(|&v| v * v).collect(),
        };
        let (cs, ps) = (self.conv_side(), self.pool_side());
        let mut pooled = vec![0i64; self.fc_in()];
        for c in 0..self.conv_out {
            for py in 0..ps {
                for px in 0..ps {
                    let mut sum = 0i64;
                    for dy in 0..self.window {
                        for dx in 0..self.window {
                            sum +=
                                act[(c * cs + py * self.window + dy) * cs + px * self.window + dx];
                        }
                    }
                    pooled[(c * ps + py) * ps + px] = match self.pipeline {
                        QuantPipeline::Hybrid => self.enclave_mean(sum),
                        QuantPipeline::CryptoNets => sum, // scaled mean-pool keeps the sum
                    };
                }
            }
        }
        let fc_in = self.fc_in();
        let mut logits = vec![0i64; self.classes];
        for (o, logit) in logits.iter_mut().enumerate() {
            let mut acc = self.fc_bias[o];
            for (i, &p) in pooled.iter().enumerate() {
                acc += self.fc_weights[o * fc_in + i] * p;
            }
            *logit = acc;
        }
        logits
    }

    /// Predicted class from exact-integer inference.
    pub fn predict_ints(&self, pixels: &[i64]) -> usize {
        let logits = self.forward_ints(pixels);
        let mut best = 0;
        for (i, &v) in logits.iter().enumerate() {
            if v > logits[best] {
                best = i;
            }
        }
        best
    }

    /// Convenience: quantize a grey-level image tensor and predict.
    pub fn predict_image(&self, image: &Tensor) -> usize {
        self.predict_ints(&crate::dataset::quantize_pixels(image))
    }

    /// Worst-case dynamic-range analysis, in checked `i64` arithmetic.
    ///
    /// # Errors
    ///
    /// Fails when a bound does not fit `i64`: [`QuantizedCnn::forward_ints`]
    /// would wrap there too, so no engine has an exact reference to meet.
    pub fn range_report(&self) -> Result<RangeReport, String> {
        let count = |n: usize| i64::try_from(n).ok();
        let max_abs = |values: &[i64]| {
            values
                .iter()
                .try_fold(0i64, |max, v| Some(max.max(v.checked_abs()?)))
        };
        // `n · max|w| · x + max|b|`: an affine layer of `n` terms over `|x|`.
        let affine = |n: usize, w: &[i64], x: i64, b: &[i64]| {
            count(n)?
                .checked_mul(max_abs(w)?)?
                .checked_mul(x)?
                .checked_add(max_abs(b)?)
        };
        let bounds = || {
            let k2 = self.kernel.checked_mul(self.kernel)?;
            let conv = affine(k2, &self.conv_weights, MAX_PIXEL, &self.conv_bias)?;
            let (act, pool) = match self.pipeline {
                // The mean keeps the scale.
                QuantPipeline::Hybrid => (self.act_scale, self.act_scale),
                // The window sum magnifies the square (numerical diffusion).
                QuantPipeline::CryptoNets => {
                    let act = conv.checked_mul(conv)?;
                    (
                        act,
                        act.checked_mul(count(self.window.checked_mul(self.window)?)?)?,
                    )
                }
            };
            let logit = affine(self.fc_in(), &self.fc_weights, pool, &self.fc_bias)?;
            Some((conv, act, pool, logit))
        };
        let Some((conv_bound, act_bound, pool_bound, logit_bound)) = bounds() else {
            return Err(format!(
                "a {:?} bound of this model overflows i64",
                self.pipeline
            ));
        };
        Ok(RangeReport {
            conv_bound,
            act_bound,
            pool_bound,
            logit_bound,
            // `2·bound + 1 ≤ u64::MAX` for any bound that fits `i64`.
            required_plain_bits: 64 - (2 * logit_bound as u64 + 1).leading_zeros(),
        })
    }
}

/// Worst-case magnitude bounds per pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RangeReport {
    /// Bound on |conv output|.
    pub conv_bound: i64,
    /// Bound on |activation output|.
    pub act_bound: i64,
    /// Bound on |pooling output|.
    pub pool_bound: i64,
    /// Bound on |logit|.
    pub logit_bound: i64,
    /// Plaintext-modulus capacity (bits) needed to hold any intermediate with
    /// sign: the plain-CRT moduli product must exceed this.
    pub required_plain_bits: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset;
    use crate::layers::{ActivationKind, PoolKind};
    use crate::model_zoo::paper_cnn;
    use hesgx_crypto::rng::ChaChaRng;

    fn trained_stub(pipeline: QuantPipeline) -> QuantizedCnn {
        let mut rng = ChaChaRng::from_seed(3);
        let (act, pool) = match pipeline {
            QuantPipeline::Hybrid => (ActivationKind::Sigmoid, PoolKind::Mean),
            QuantPipeline::CryptoNets => (ActivationKind::Square, PoolKind::ScaledMean),
        };
        let net = paper_cnn(act, pool, &mut rng);
        QuantizedCnn::from_network(&net, pipeline, 16, 32, 16)
    }

    #[test]
    fn forward_ints_shapes() {
        let q = trained_stub(QuantPipeline::Hybrid);
        let pixels = vec![7i64; 784];
        assert_eq!(q.forward_ints(&pixels).len(), 10);
        assert_eq!(q.conv_side(), 24);
        assert_eq!(q.pool_side(), 12);
        assert_eq!(q.fc_in(), 864);
    }

    #[test]
    fn hybrid_range_fits_moderate_modulus() {
        let q = trained_stub(QuantPipeline::Hybrid);
        let r = q.range_report().unwrap();
        assert!(r.act_bound == 16);
        assert!(r.required_plain_bits < 32, "hybrid range: {r:?}");
    }

    #[test]
    fn cryptonets_range_shows_numerical_diffusion() {
        let q = trained_stub(QuantPipeline::CryptoNets);
        let r = q.range_report().unwrap();
        // Scaled mean-pool magnifies by k² (paper §III-A).
        assert_eq!(r.pool_bound, r.act_bound * 4);
        assert!(r.required_plain_bits > 20);
    }

    #[test]
    fn range_report_refuses_one_past_i64_max() {
        let mut q = trained_stub(QuantPipeline::Hybrid);
        q.fc_weights.fill(0);
        q.fc_bias[3] = i64::MAX;
        let r = q.range_report().unwrap();
        assert_eq!((r.logit_bound, r.required_plain_bits), (i64::MAX, 64));
        q.fc_weights[0] = 1;
        assert!(q.range_report().is_err());
        q.fc_weights[0] = 0;
        q.conv_weights[0] = i64::MIN;
        assert!(q.range_report().is_err(), "|i64::MIN| does not fit");
    }

    #[test]
    fn quantized_prediction_tracks_float_model() {
        // After quantization, most predictions must agree with the float net.
        let mut rng = ChaChaRng::from_seed(4);
        let net = paper_cnn(ActivationKind::Sigmoid, PoolKind::Mean, &mut rng);
        let q = QuantizedCnn::from_network(&net, QuantPipeline::Hybrid, 64, 64, 64);
        let samples = dataset::generate(20, 5);
        let mut agree = 0;
        for s in &samples {
            let float_pred = net.predict(&dataset::normalize(&s.image));
            if q.predict_image(&s.image) == float_pred {
                agree += 1;
            }
        }
        assert!(agree >= 16, "quantization drift too large: {agree}/20");
    }

    #[test]
    fn enclave_mean_rounds() {
        let q = trained_stub(QuantPipeline::Hybrid);
        assert_eq!(q.enclave_mean(4), 1);
        assert_eq!(q.enclave_mean(6), 2); // 1.5 rounds up
        assert_eq!(q.enclave_mean(7), 2);
        assert_eq!(q.enclave_mean(0), 0);
    }

    #[test]
    fn enclave_sigmoid_range() {
        let q = trained_stub(QuantPipeline::Hybrid);
        for v in [-100_000i64, -100, 0, 100, 100_000] {
            let s = q.enclave_sigmoid(v);
            assert!((0..=q.act_scale).contains(&s));
        }
        assert_eq!(q.enclave_sigmoid(0), q.act_scale / 2);
    }

    #[test]
    fn custom_small_model_forward() {
        // A scaled-down instance (8×8 input, 2 kernels of 3×3, 4 classes).
        let q = QuantizedCnn {
            pipeline: QuantPipeline::CryptoNets,
            in_side: 8,
            conv_out: 2,
            kernel: 3,
            window: 2,
            classes: 4,
            conv_weights: (0..18).map(|i| (i % 5) as i64 - 2).collect(),
            conv_bias: vec![1, -1],
            fc_weights: (0..4 * 2 * 9).map(|i| (i % 3) as i64 - 1).collect(),
            fc_bias: vec![0, 1, 2, 3],
            weight_scale: 8,
            fc_scale: 8,
            act_scale: 16,
        };
        assert_eq!(q.conv_side(), 6);
        assert_eq!(q.pool_side(), 3);
        assert_eq!(q.fc_in(), 18);
        let pixels = vec![5i64; 64];
        let logits = q.forward_ints(&pixels);
        assert_eq!(logits.len(), 4);
    }
}
