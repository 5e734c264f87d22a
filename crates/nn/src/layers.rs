//! CNN layers with forward and backward passes.
//!
//! The set matches the paper's §II-A taxonomy: convolutional, pooling
//! (mean / scaled-mean / max), activation (Sigmoid, ReLU, Tanh, Leaky ReLU,
//! plus the Square approximation CryptoNets substitutes), and fully connected.

use crate::tensor::Tensor;
use hesgx_crypto::rng::ChaChaRng;
use serde::{Deserialize, Serialize};

/// Supported activation functions (paper §II-A4 lists the first four; Square
/// is the polynomial stand-in HE pipelines use, paper §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActivationKind {
    /// `σ(x) = 1 / (1 + e^{-x})`.
    Sigmoid,
    /// `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// `max(αx, x)` with α = 0.01.
    LeakyRelu,
    /// `x²` — the HE-friendly polynomial approximation.
    Square,
}

impl ActivationKind {
    /// Applies the function to a scalar.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            ActivationKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            ActivationKind::Relu => x.max(0.0),
            ActivationKind::Tanh => x.tanh(),
            ActivationKind::LeakyRelu => {
                if x >= 0.0 {
                    x
                } else {
                    0.01 * x
                }
            }
            ActivationKind::Square => x * x,
        }
    }

    /// Derivative given the input `x` and the output `y = f(x)`.
    pub fn derivative(self, x: f64, y: f64) -> f64 {
        match self {
            ActivationKind::Sigmoid => y * (1.0 - y),
            ActivationKind::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActivationKind::Tanh => 1.0 - y * y,
            ActivationKind::LeakyRelu => {
                if x >= 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
            ActivationKind::Square => 2.0 * x,
        }
    }
}

/// Pooling flavors (paper §II-A2 and §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PoolKind {
    /// Classic mean pooling (average of the window).
    Mean,
    /// Scaled mean pooling: the *sum* of the window — the division-free
    /// variant CryptoNets uses because HE cannot divide (paper §III-A). The
    /// output is `k²` times larger; the paper calls this "numerical
    /// diffusion".
    ScaledMean,
    /// Max pooling (only computable inside SGX in the hybrid design,
    /// paper §VI-D).
    Max,
}

/// Per-forward cache needed by the backward pass.
#[derive(Debug, Clone)]
pub enum LayerCache {
    /// No state needed.
    None,
    /// The layer input.
    Input(Tensor),
    /// Input and output.
    InOut(Tensor, Tensor),
    /// Input plus argmax indices (max pooling).
    MaxIdx(Tensor, Vec<usize>),
}

/// Parameter gradients produced by a backward pass.
#[derive(Debug, Clone)]
pub enum ParamGrads {
    /// Layer has no parameters.
    None,
    /// Weight and bias gradients.
    WeightsBias(Tensor, Vec<f64>),
}

/// 2-D convolution (valid padding).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conv2d {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels (number of kernels).
    pub out_channels: usize,
    /// Kernel side length.
    pub kernel: usize,
    /// Stride (the paper uses 1).
    pub stride: usize,
    /// Weights, shape `[out, in, k, k]`.
    pub weights: Tensor,
    /// Per-output-channel bias.
    pub bias: Vec<f64>,
}

impl Conv2d {
    /// Creates a convolution with Xavier-uniform initial weights.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        rng: &mut ChaChaRng,
    ) -> Self {
        let fan_in = (in_channels * kernel * kernel) as f64;
        let bound = (6.0 / fan_in).sqrt();
        let weights = Tensor::from_fn(&[out_channels, in_channels, kernel, kernel], |_| {
            (rng.next_f64() * 2.0 - 1.0) * bound
        });
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            weights,
            bias: vec![0.0; out_channels],
        }
    }

    /// Output spatial side for an `s`-sized square input.
    pub fn output_side(&self, s: usize) -> usize {
        (s - self.kernel) / self.stride + 1
    }

    fn weight_at(&self, o: usize, i: usize, ky: usize, kx: usize) -> f64 {
        let k = self.kernel;
        self.weights.data()[((o * self.in_channels + i) * k + ky) * k + kx]
    }

    /// Forward pass: input `[in, H, W]` → output `[out, H', W']`.
    pub fn forward(&self, input: &Tensor) -> (Tensor, LayerCache) {
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let oh = (h - self.kernel) / self.stride + 1;
        let ow = (w - self.kernel) / self.stride + 1;
        let mut out = Tensor::zeros(&[self.out_channels, oh, ow]);
        for o in 0..self.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = self.bias[o];
                    for i in 0..self.in_channels {
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                acc += self.weight_at(o, i, ky, kx)
                                    * input.at3(i, oy * self.stride + ky, ox * self.stride + kx);
                            }
                        }
                    }
                    *out.at3_mut(o, oy, ox) = acc;
                }
            }
        }
        (out, LayerCache::Input(input.clone()))
    }

    /// Backward pass: returns input gradient and parameter gradients.
    pub fn backward(&self, cache: &LayerCache, grad_out: &Tensor) -> (Tensor, ParamGrads) {
        let LayerCache::Input(input) = cache else {
            panic!("conv2d expects Input cache");
        };
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let (oh, ow) = (grad_out.shape()[1], grad_out.shape()[2]);
        let mut grad_in = Tensor::zeros(&[self.in_channels, h, w]);
        let mut grad_w = Tensor::zeros(self.weights.shape());
        let mut grad_b = vec![0.0; self.out_channels];
        let k = self.kernel;
        for (o, gb) in grad_b.iter_mut().enumerate() {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = grad_out.at3(o, oy, ox);
                    *gb += g;
                    for i in 0..self.in_channels {
                        for ky in 0..k {
                            for kx in 0..k {
                                let (y, x) = (oy * self.stride + ky, ox * self.stride + kx);
                                grad_w.data_mut()
                                    [((o * self.in_channels + i) * k + ky) * k + kx] +=
                                    g * input.at3(i, y, x);
                                *grad_in.at3_mut(i, y, x) += g * self.weight_at(o, i, ky, kx);
                            }
                        }
                    }
                }
            }
        }
        (grad_in, ParamGrads::WeightsBias(grad_w, grad_b))
    }

    /// SGD parameter update.
    pub fn apply_grads(&mut self, grads: &ParamGrads, lr: f64) {
        let ParamGrads::WeightsBias(gw, gb) = grads else {
            return;
        };
        for (w, g) in self.weights.data_mut().iter_mut().zip(gw.data()) {
            *w -= lr * g;
        }
        for (b, g) in self.bias.iter_mut().zip(gb) {
            *b -= lr * g;
        }
    }
}

/// Elementwise activation layer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Activation {
    /// The function applied.
    pub kind: ActivationKind,
}

impl Activation {
    /// Forward pass.
    pub fn forward(&self, input: &Tensor) -> (Tensor, LayerCache) {
        let out = input.map(|v| self.kind.apply(v));
        (out.clone(), LayerCache::InOut(input.clone(), out))
    }

    /// Backward pass.
    pub fn backward(&self, cache: &LayerCache, grad_out: &Tensor) -> (Tensor, ParamGrads) {
        let LayerCache::InOut(input, output) = cache else {
            panic!("activation expects InOut cache");
        };
        let mut grad_in = grad_out.clone();
        for ((g, &x), &y) in grad_in
            .data_mut()
            .iter_mut()
            .zip(input.data())
            .zip(output.data())
        {
            *g *= self.kind.derivative(x, y);
        }
        (grad_in, ParamGrads::None)
    }
}

/// Non-overlapping pooling layer with square window.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pool {
    /// Pooling flavor.
    pub kind: PoolKind,
    /// Window side length.
    pub window: usize,
}

impl Pool {
    /// Forward pass: `[c, H, W]` → `[c, H/k, W/k]`.
    ///
    /// # Panics
    ///
    /// Panics when the spatial size is not divisible by the window.
    pub fn forward(&self, input: &Tensor) -> (Tensor, LayerCache) {
        let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        assert_eq!(h % self.window, 0, "height not divisible by window");
        assert_eq!(w % self.window, 0, "width not divisible by window");
        let (oh, ow) = (h / self.window, w / self.window);
        let mut out = Tensor::zeros(&[c, oh, ow]);
        let mut argmax = Vec::new();
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    match self.kind {
                        PoolKind::Mean | PoolKind::ScaledMean => {
                            let mut acc = 0.0;
                            for dy in 0..self.window {
                                for dx in 0..self.window {
                                    acc +=
                                        input.at3(ch, oy * self.window + dy, ox * self.window + dx);
                                }
                            }
                            if self.kind == PoolKind::Mean {
                                acc /= (self.window * self.window) as f64;
                            }
                            *out.at3_mut(ch, oy, ox) = acc;
                        }
                        PoolKind::Max => {
                            let mut best = f64::NEG_INFINITY;
                            let mut best_idx = 0;
                            for dy in 0..self.window {
                                for dx in 0..self.window {
                                    let (y, x) = (oy * self.window + dy, ox * self.window + dx);
                                    let v = input.at3(ch, y, x);
                                    if v > best {
                                        best = v;
                                        best_idx = (ch * h + y) * w + x;
                                    }
                                }
                            }
                            *out.at3_mut(ch, oy, ox) = best;
                            argmax.push(best_idx);
                        }
                    }
                }
            }
        }
        let cache = if self.kind == PoolKind::Max {
            LayerCache::MaxIdx(input.clone(), argmax)
        } else {
            LayerCache::Input(input.clone())
        };
        (out, cache)
    }

    /// Backward pass.
    pub fn backward(&self, cache: &LayerCache, grad_out: &Tensor) -> (Tensor, ParamGrads) {
        match (self.kind, cache) {
            (PoolKind::Mean | PoolKind::ScaledMean, LayerCache::Input(input)) => {
                let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
                let mut grad_in = Tensor::zeros(&[c, h, w]);
                let scale = if self.kind == PoolKind::Mean {
                    1.0 / (self.window * self.window) as f64
                } else {
                    1.0
                };
                for ch in 0..c {
                    for y in 0..h {
                        for x in 0..w {
                            *grad_in.at3_mut(ch, y, x) =
                                grad_out.at3(ch, y / self.window, x / self.window) * scale;
                        }
                    }
                }
                (grad_in, ParamGrads::None)
            }
            (PoolKind::Max, LayerCache::MaxIdx(input, argmax)) => {
                let mut grad_in = Tensor::zeros(input.shape());
                for (flat, &idx) in argmax.iter().enumerate() {
                    grad_in.data_mut()[idx] += grad_out.data()[flat];
                }
                (grad_in, ParamGrads::None)
            }
            _ => panic!("pool cache mismatch"),
        }
    }
}

/// Fully connected layer over the flattened input.
///
/// The paper (Table VI) realizes this as a convolution whose kernels match the
/// input feature-map size; the two formulations compute the same dot products.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    /// Flattened input size.
    pub in_dim: usize,
    /// Output size (class count).
    pub out_dim: usize,
    /// Weights, shape `[out, in]`.
    pub weights: Tensor,
    /// Per-output bias.
    pub bias: Vec<f64>,
}

impl Dense {
    /// Creates a dense layer with Xavier-uniform initial weights.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut ChaChaRng) -> Self {
        let bound = (6.0 / in_dim as f64).sqrt();
        Dense {
            in_dim,
            out_dim,
            weights: Tensor::from_fn(&[out_dim, in_dim], |_| (rng.next_f64() * 2.0 - 1.0) * bound),
            bias: vec![0.0; out_dim],
        }
    }

    /// Forward pass (input is flattened automatically).
    pub fn forward(&self, input: &Tensor) -> (Tensor, LayerCache) {
        assert_eq!(input.len(), self.in_dim, "dense input size mismatch");
        let mut out = Tensor::zeros(&[self.out_dim]);
        for o in 0..self.out_dim {
            let row = &self.weights.data()[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = self.bias[o];
            for (w, x) in row.iter().zip(input.data()) {
                acc += w * x;
            }
            out.data_mut()[o] = acc;
        }
        (out, LayerCache::Input(input.clone()))
    }

    /// Backward pass.
    pub fn backward(&self, cache: &LayerCache, grad_out: &Tensor) -> (Tensor, ParamGrads) {
        let LayerCache::Input(input) = cache else {
            panic!("dense expects Input cache");
        };
        let mut grad_in = Tensor::zeros(input.shape());
        let mut grad_w = Tensor::zeros(self.weights.shape());
        let mut grad_b = vec![0.0; self.out_dim];
        for (o, gb) in grad_b.iter_mut().enumerate() {
            let g = grad_out.data()[o];
            *gb = g;
            for i in 0..self.in_dim {
                grad_w.data_mut()[o * self.in_dim + i] += g * input.data()[i];
                grad_in.data_mut()[i] += g * self.weights.data()[o * self.in_dim + i];
            }
        }
        (grad_in, ParamGrads::WeightsBias(grad_w, grad_b))
    }

    /// SGD parameter update.
    pub fn apply_grads(&mut self, grads: &ParamGrads, lr: f64) {
        let ParamGrads::WeightsBias(gw, gb) = grads else {
            return;
        };
        for (w, g) in self.weights.data_mut().iter_mut().zip(gw.data()) {
            *w -= lr * g;
        }
        for (b, g) in self.bias.iter_mut().zip(gb) {
            *b -= lr * g;
        }
    }
}

/// A network layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// Convolutional layer.
    Conv(Conv2d),
    /// Activation layer.
    Activation(Activation),
    /// Pooling layer.
    Pool(Pool),
    /// Fully connected layer.
    Dense(Dense),
}

impl Layer {
    /// Forward pass.
    pub fn forward(&self, input: &Tensor) -> (Tensor, LayerCache) {
        match self {
            Layer::Conv(l) => l.forward(input),
            Layer::Activation(l) => l.forward(input),
            Layer::Pool(l) => l.forward(input),
            Layer::Dense(l) => l.forward(input),
        }
    }

    /// Backward pass.
    pub fn backward(&self, cache: &LayerCache, grad_out: &Tensor) -> (Tensor, ParamGrads) {
        match self {
            Layer::Conv(l) => l.backward(cache, grad_out),
            Layer::Activation(l) => l.backward(cache, grad_out),
            Layer::Pool(l) => l.backward(cache, grad_out),
            Layer::Dense(l) => l.backward(cache, grad_out),
        }
    }

    /// SGD parameter update.
    pub fn apply_grads(&mut self, grads: &ParamGrads, lr: f64) {
        match self {
            Layer::Conv(l) => l.apply_grads(grads, lr),
            Layer::Dense(l) => l.apply_grads(grads, lr),
            _ => {}
        }
    }

    /// Human-readable layer name.
    pub fn name(&self) -> &'static str {
        match self {
            Layer::Conv(_) => "Convolutional Layer",
            Layer::Activation(a) => match a.kind {
                ActivationKind::Sigmoid => "Sigmoid",
                ActivationKind::Relu => "ReLU",
                ActivationKind::Tanh => "Tanh",
                ActivationKind::LeakyRelu => "Leaky ReLU",
                ActivationKind::Square => "Square",
            },
            Layer::Pool(_) => "Pooling Layer",
            Layer::Dense(_) => "Fully Connected Layer",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> ChaChaRng {
        ChaChaRng::from_seed(5)
    }

    #[test]
    fn conv_identity_kernel() {
        // 1x1 kernel with weight 1 reproduces the input.
        let mut conv = Conv2d::new(1, 1, 1, 1, &mut rng());
        conv.weights = Tensor::from_vec(&[1, 1, 1, 1], vec![1.0]);
        conv.bias = vec![0.0];
        let input = Tensor::from_fn(&[1, 4, 4], |i| i as f64);
        let (out, _) = conv.forward(&input);
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn conv_known_values() {
        // 2x2 all-ones kernel over 3x3 input: each output = window sum.
        let mut conv = Conv2d::new(1, 1, 2, 1, &mut rng());
        conv.weights = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0; 4]);
        conv.bias = vec![0.5];
        let input = Tensor::from_vec(&[1, 3, 3], (1..=9).map(f64::from).collect());
        let (out, _) = conv.forward(&input);
        assert_eq!(out.shape(), &[1, 2, 2]);
        assert_eq!(out.data(), &[12.5, 16.5, 24.5, 28.5]);
    }

    #[test]
    fn conv_gradcheck() {
        // Numerical gradient check on a tiny conv.
        let mut r = rng();
        let conv = Conv2d::new(1, 2, 2, 1, &mut r);
        let input = Tensor::from_fn(&[1, 3, 3], |_| r.next_f64() - 0.5);
        let (out, cache) = conv.forward(&input);
        // Loss = sum of outputs; grad_out = ones.
        let grad_out = out.map(|_| 1.0);
        let (grad_in, _) = conv.backward(&cache, &grad_out);
        let eps = 1e-6;
        for idx in 0..input.len() {
            let mut plus = input.clone();
            plus.data_mut()[idx] += eps;
            let (outp, _) = conv.forward(&plus);
            let mut minus = input.clone();
            minus.data_mut()[idx] -= eps;
            let (outm, _) = conv.forward(&minus);
            let numeric =
                (outp.data().iter().sum::<f64>() - outm.data().iter().sum::<f64>()) / (2.0 * eps);
            assert!(
                (numeric - grad_in.data()[idx]).abs() < 1e-5,
                "grad mismatch at {idx}: {numeric} vs {}",
                grad_in.data()[idx]
            );
        }
    }

    #[test]
    fn activations_known_values() {
        assert!((ActivationKind::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert_eq!(ActivationKind::Relu.apply(-1.0), 0.0);
        assert_eq!(ActivationKind::Relu.apply(2.0), 2.0);
        assert_eq!(ActivationKind::Square.apply(-3.0), 9.0);
        assert_eq!(ActivationKind::LeakyRelu.apply(-1.0), -0.01);
        assert!((ActivationKind::Tanh.apply(0.0)).abs() < 1e-12);
    }

    #[test]
    fn activation_gradcheck_all_kinds() {
        for kind in [
            ActivationKind::Sigmoid,
            ActivationKind::Tanh,
            ActivationKind::Square,
            ActivationKind::LeakyRelu,
        ] {
            let act = Activation { kind };
            let input = Tensor::from_vec(&[1, 1, 3], vec![0.3, -0.7, 1.2]);
            let (out, cache) = act.forward(&input);
            let grad_out = out.map(|_| 1.0);
            let (grad_in, _) = act.backward(&cache, &grad_out);
            let eps = 1e-6;
            for idx in 0..3 {
                let mut plus = input.clone();
                plus.data_mut()[idx] += eps;
                let mut minus = input.clone();
                minus.data_mut()[idx] -= eps;
                let numeric = (act.forward(&plus).0.data().iter().sum::<f64>()
                    - act.forward(&minus).0.data().iter().sum::<f64>())
                    / (2.0 * eps);
                assert!(
                    (numeric - grad_in.data()[idx]).abs() < 1e-5,
                    "{kind:?} grad mismatch"
                );
            }
        }
    }

    #[test]
    fn mean_pool_values() {
        let pool = Pool {
            kind: PoolKind::Mean,
            window: 2,
        };
        let input = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let (out, _) = pool.forward(&input);
        assert_eq!(out.data(), &[2.5]);
    }

    #[test]
    fn scaled_mean_pool_magnifies_by_window_square() {
        // The "numerical diffusion" the paper warns about: output is k² × mean.
        let input = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let mean = Pool {
            kind: PoolKind::Mean,
            window: 2,
        }
        .forward(&input)
        .0;
        let scaled = Pool {
            kind: PoolKind::ScaledMean,
            window: 2,
        }
        .forward(&input)
        .0;
        assert_eq!(scaled.data()[0], mean.data()[0] * 4.0);
    }

    #[test]
    fn max_pool_values_and_backward() {
        let pool = Pool {
            kind: PoolKind::Max,
            window: 2,
        };
        let input = Tensor::from_vec(&[1, 2, 4], vec![1.0, 5.0, 2.0, 0.0, 3.0, 4.0, 8.0, 7.0]);
        let (out, cache) = pool.forward(&input);
        assert_eq!(out.data(), &[5.0, 8.0]);
        let grad_out = Tensor::from_vec(&[1, 1, 2], vec![1.0, 2.0]);
        let (grad_in, _) = pool.backward(&cache, &grad_out);
        assert_eq!(grad_in.data(), &[0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn dense_matches_manual_dot() {
        let mut d = Dense::new(3, 2, &mut rng());
        d.weights = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        d.bias = vec![0.5, -0.5];
        let input = Tensor::from_vec(&[3], vec![1.0, 1.0, 1.0]);
        let (out, _) = d.forward(&input);
        assert_eq!(out.data(), &[6.5, -0.5]);
    }

    #[test]
    fn dense_gradcheck() {
        let mut r = rng();
        let d = Dense::new(4, 3, &mut r);
        let input = Tensor::from_fn(&[4], |_| r.next_f64() - 0.5);
        let (out, cache) = d.forward(&input);
        let grad_out = out.map(|_| 1.0);
        let (grad_in, _) = d.backward(&cache, &grad_out);
        let eps = 1e-6;
        for idx in 0..4 {
            let mut plus = input.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = input.clone();
            minus.data_mut()[idx] -= eps;
            let numeric = (d.forward(&plus).0.data().iter().sum::<f64>()
                - d.forward(&minus).0.data().iter().sum::<f64>())
                / (2.0 * eps);
            assert!((numeric - grad_in.data()[idx]).abs() < 1e-5);
        }
    }
}
