//! The paper's CNN architecture (Fig. 7 / Table VI) and helpers to print it.

use crate::layers::{Activation, ActivationKind, Conv2d, Dense, Layer, Pool, PoolKind};
use crate::network::Network;
use hesgx_crypto::rng::ChaChaRng;

/// Builds the four-layer CNN of the paper's case study:
///
/// | Input | Layer | Stride | Kernel | Output |
/// |---|---|---|---|---|
/// | 1×(28×28) | Convolutional | 1×1 | 6×(5×5) | 6×(24×24) |
/// | 6×(24×24) | activation | — | — | 6×(24×24) |
/// | 6×(24×24) | Pooling | — | 6×(2×2) | 6×(12×12) |
/// | 6×(12×12) | Fully connected | — | 10×(12×12) | 10×(1×1) |
///
/// `activation`/`pool` select the variant: `(Sigmoid, Mean)` is the hybrid
/// framework's exact model; `(Square, ScaledMean)` is the CryptoNets-style
/// HE-only baseline (paper \[16\]).
pub fn paper_cnn(activation: ActivationKind, pool: PoolKind, rng: &mut ChaChaRng) -> Network {
    Network::new(vec![
        Layer::Conv(Conv2d::new(1, 6, 5, 1, rng)),
        Layer::Activation(Activation { kind: activation }),
        Layer::Pool(Pool {
            kind: pool,
            window: 2,
        }),
        Layer::Dense(Dense::new(6 * 12 * 12, 10, rng)),
    ])
}

/// One row of the architecture table (paper Table VI).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchitectureRow {
    /// Input feature-map shape description.
    pub input: String,
    /// Layer name.
    pub layer: String,
    /// Stride description ("/" when not applicable).
    pub stride: String,
    /// Kernel description ("/" when not applicable).
    pub kernel: String,
    /// Output feature-map shape description.
    pub output: String,
}

/// Produces the Table VI rows for a network built by [`paper_cnn`].
pub fn architecture_table(net: &Network) -> Vec<ArchitectureRow> {
    let mut rows = Vec::new();
    // Shape tracking for the known 28x28 single-channel input.
    let mut shape = (1usize, 28usize, 28usize);
    for layer in net.layers() {
        let input = format!("{} x ({} x {})", shape.0, shape.1, shape.2);
        let row = match layer {
            Layer::Conv(c) => {
                let side = c.output_side(shape.1);
                let out = (c.out_channels, side, side);
                let r = ArchitectureRow {
                    input,
                    layer: "Convolutional Layer".into(),
                    stride: format!("({} x {})", c.stride, c.stride),
                    kernel: format!("{} x ({} x {})", c.out_channels, c.kernel, c.kernel),
                    output: format!("{} x ({} x {})", out.0, out.1, out.2),
                };
                shape = out;
                r
            }
            Layer::Activation(_) => ArchitectureRow {
                input: input.clone(),
                layer: layer.name().into(),
                stride: "/".into(),
                kernel: "/".into(),
                output: input,
            },
            Layer::Pool(p) => {
                let out = (shape.0, shape.1 / p.window, shape.2 / p.window);
                let r = ArchitectureRow {
                    input,
                    layer: "Pooling Layer".into(),
                    stride: "/".into(),
                    kernel: format!("{} x ({} x {})", shape.0, p.window, p.window),
                    output: format!("{} x ({} x {})", out.0, out.1, out.2),
                };
                shape = out;
                r
            }
            Layer::Dense(d) => {
                let r = ArchitectureRow {
                    input,
                    layer: "Fully Connected Layer".into(),
                    stride: "/".into(),
                    kernel: format!("{} x ({} x {})", d.out_dim, shape.1, shape.2),
                    output: format!("{} x (1 x 1)", d.out_dim),
                };
                shape = (d.out_dim, 1, 1);
                r
            }
        };
        rows.push(row);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn paper_cnn_shapes() {
        let mut rng = ChaChaRng::from_seed(1);
        let net = paper_cnn(ActivationKind::Sigmoid, PoolKind::Mean, &mut rng);
        let input = Tensor::zeros(&[1, 28, 28]);
        let out = net.forward(&input);
        assert_eq!(out.shape(), &[10]);
    }

    #[test]
    fn table_vi_matches_paper() {
        let mut rng = ChaChaRng::from_seed(1);
        let net = paper_cnn(ActivationKind::Sigmoid, PoolKind::Mean, &mut rng);
        let rows = architecture_table(&net);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].input, "1 x (28 x 28)");
        assert_eq!(rows[0].kernel, "6 x (5 x 5)");
        assert_eq!(rows[0].output, "6 x (24 x 24)");
        assert_eq!(rows[1].layer, "Sigmoid");
        assert_eq!(rows[2].kernel, "6 x (2 x 2)");
        assert_eq!(rows[2].output, "6 x (12 x 12)");
        assert_eq!(rows[3].kernel, "10 x (12 x 12)");
        assert_eq!(rows[3].output, "10 x (1 x 1)");
    }
}
