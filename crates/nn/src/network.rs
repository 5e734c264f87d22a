//! Sequential networks, softmax cross-entropy training, and evaluation.

use crate::layers::{Layer, LayerCache, ParamGrads};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A feed-forward network: an ordered list of layers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    layers: Vec<Layer>,
}

impl Network {
    /// Creates a network from layers.
    pub fn new(layers: Vec<Layer>) -> Self {
        Network { layers }
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Plain forward pass: logits for one input.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        let mut cur = input.clone();
        for layer in &self.layers {
            cur = layer.forward(&cur).0;
        }
        cur
    }

    /// Predicted class (argmax of logits).
    pub fn predict(&self, input: &Tensor) -> usize {
        self.forward(input).argmax()
    }

    /// Forward with caches for training.
    fn forward_train(&self, input: &Tensor) -> (Tensor, Vec<LayerCache>) {
        let mut cur = input.clone();
        let mut caches = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (next, cache) = layer.forward(&cur);
            caches.push(cache);
            cur = next;
        }
        (cur, caches)
    }

    /// One SGD step on a single example. Returns the cross-entropy loss.
    ///
    /// Parameter gradients are clamped element-wise to ±1 — essential for the
    /// square-activation variant, whose unbounded activations otherwise blow
    /// the gradients up mid-training.
    pub fn train_step(&mut self, input: &Tensor, label: usize, lr: f64) -> f64 {
        let (logits, caches) = self.forward_train(input);
        let (loss, mut grad) = softmax_cross_entropy(&logits, label);
        let mut grads: Vec<ParamGrads> = Vec::with_capacity(self.layers.len());
        for (layer, cache) in self.layers.iter().zip(caches.iter()).rev() {
            let (grad_in, mut pgrads) = layer.backward(cache, &grad);
            clip_grads(&mut pgrads);
            grads.push(pgrads);
            grad = grad_in;
        }
        grads.reverse();
        for (layer, g) in self.layers.iter_mut().zip(grads.iter()) {
            layer.apply_grads(g, lr);
        }
        loss
    }

    /// Classification accuracy over a labelled set.
    pub fn accuracy(&self, samples: &[(Tensor, usize)]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let correct = samples
            .iter()
            .filter(|(x, y)| self.predict(x) == *y)
            .count();
        correct as f64 / samples.len() as f64
    }
}

/// Clamps parameter gradients element-wise to ±1 (gradient clipping).
fn clip_grads(grads: &mut ParamGrads) {
    if let ParamGrads::WeightsBias(w, b) = grads {
        for g in w.data_mut().iter_mut() {
            *g = g.clamp(-1.0, 1.0);
        }
        for g in b.iter_mut() {
            *g = g.clamp(-1.0, 1.0);
        }
    }
}

/// Softmax cross-entropy loss and its gradient w.r.t. the logits.
pub fn softmax_cross_entropy(logits: &Tensor, label: usize) -> (f64, Tensor) {
    let max = logits
        .data()
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.data().iter().map(|&v| (v - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    let probs: Vec<f64> = exps.iter().map(|&e| e / sum).collect();
    let loss = -probs[label].max(1e-12).ln();
    let mut grad = Tensor::zeros(logits.shape());
    for (i, g) in grad.data_mut().iter_mut().enumerate() {
        *g = probs[i] - if i == label { 1.0 } else { 0.0 };
    }
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, ActivationKind, Dense};
    use hesgx_crypto::rng::ChaChaRng;

    #[test]
    fn softmax_gradient_sums_to_zero() {
        let logits = Tensor::from_vec(&[4], vec![1.0, 2.0, 3.0, 4.0]);
        let (loss, grad) = softmax_cross_entropy(&logits, 2);
        assert!(loss > 0.0);
        assert!(grad.data().iter().sum::<f64>().abs() < 1e-12);
        // Gradient at the true label must be negative.
        assert!(grad.data()[2] < 0.0);
    }

    #[test]
    fn tiny_mlp_learns_xor_like_task() {
        // 2-bit parity with a small MLP — sanity check of full backprop.
        let mut rng = ChaChaRng::from_seed(9);
        let mut net = Network::new(vec![
            Layer::Dense(Dense::new(2, 8, &mut rng)),
            Layer::Activation(Activation {
                kind: ActivationKind::Tanh,
            }),
            Layer::Dense(Dense::new(8, 2, &mut rng)),
        ]);
        let data: Vec<(Tensor, usize)> = [(0., 0., 0), (0., 1., 1), (1., 0., 1), (1., 1., 0)]
            .iter()
            .map(|&(a, b, y)| (Tensor::from_vec(&[2], vec![a, b]), y))
            .collect();
        for _ in 0..600 {
            for (x, y) in &data {
                net.train_step(x, *y, 0.1);
            }
        }
        assert_eq!(net.accuracy(&data), 1.0, "XOR must be learnable");
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = ChaChaRng::from_seed(10);
        let mut net = Network::new(vec![Layer::Dense(Dense::new(4, 3, &mut rng))]);
        let x = Tensor::from_vec(&[4], vec![0.5, -0.5, 0.25, 1.0]);
        let first = net.train_step(&x, 1, 0.05);
        let mut last = first;
        for _ in 0..50 {
            last = net.train_step(&x, 1, 0.05);
        }
        assert!(last < first, "loss must decrease: {first} -> {last}");
    }
}
