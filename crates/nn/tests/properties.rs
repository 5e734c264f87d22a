//! Property-based tests of the CNN substrate: layer algebra, pooling
//! invariants, and quantized-model consistency.

use hesgx_crypto::rng::ChaChaRng;
use hesgx_nn::layers::{Activation, ActivationKind, Conv2d, Pool, PoolKind};
use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};
use hesgx_nn::tensor::Tensor;
use proptest::prelude::*;

fn arb_map(c: usize, h: usize, w: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f64..10.0, c * h * w)
        .prop_map(move |data| Tensor::from_vec(&[c, h, w], data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conv_is_linear(input1 in arb_map(1, 6, 6), input2 in arb_map(1, 6, 6), seed in any::<u64>()) {
        // conv(x + y) == conv(x) + conv(y) when bias is zero.
        let mut rng = ChaChaRng::from_seed(seed);
        let mut conv = Conv2d::new(1, 2, 3, 1, &mut rng);
        conv.bias = vec![0.0; 2];
        let sum = Tensor::from_vec(
            input1.shape(),
            input1.data().iter().zip(input2.data()).map(|(a, b)| a + b).collect(),
        );
        let (out_sum, _) = conv.forward(&sum);
        let (o1, _) = conv.forward(&input1);
        let (o2, _) = conv.forward(&input2);
        for ((s, a), b) in out_sum.data().iter().zip(o1.data()).zip(o2.data()) {
            prop_assert!((s - (a + b)).abs() < 1e-9);
        }
    }

    #[test]
    fn scaled_mean_is_window_square_times_mean(input in arb_map(2, 4, 4)) {
        let mean = Pool { kind: PoolKind::Mean, window: 2 }.forward(&input).0;
        let scaled = Pool { kind: PoolKind::ScaledMean, window: 2 }.forward(&input).0;
        for (m, s) in mean.data().iter().zip(scaled.data()) {
            prop_assert!((s - 4.0 * m).abs() < 1e-9);
        }
    }

    #[test]
    fn max_pool_dominates_mean_pool(input in arb_map(1, 4, 4)) {
        let mean = Pool { kind: PoolKind::Mean, window: 2 }.forward(&input).0;
        let max = Pool { kind: PoolKind::Max, window: 2 }.forward(&input).0;
        for (m, x) in mean.data().iter().zip(max.data()) {
            prop_assert!(x >= m);
        }
    }

    #[test]
    fn sigmoid_bounded_monotone(a in -50.0f64..50.0, b in -50.0f64..50.0) {
        let sa = ActivationKind::Sigmoid.apply(a);
        let sb = ActivationKind::Sigmoid.apply(b);
        prop_assert!((0.0..=1.0).contains(&sa));
        if a < b {
            prop_assert!(sa <= sb);
        }
    }

    #[test]
    fn activations_preserve_shape(input in arb_map(2, 3, 3)) {
        for kind in [ActivationKind::Sigmoid, ActivationKind::Relu, ActivationKind::Tanh, ActivationKind::Square, ActivationKind::LeakyRelu] {
            let (out, _) = Activation { kind }.forward(&input);
            prop_assert_eq!(out.shape(), input.shape());
        }
    }

    #[test]
    fn quantized_forward_deterministic_and_bounded(pixels in proptest::collection::vec(0i64..16, 64)) {
        let model = QuantizedCnn {
            pipeline: QuantPipeline::Hybrid,
            in_side: 8,
            conv_out: 2,
            kernel: 3,
            window: 2,
            classes: 4,
            conv_weights: (0..18).map(|i| (i % 7) as i64 - 3).collect(),
            conv_bias: vec![1, -2],
            fc_weights: (0..4 * 18).map(|i| (i % 5) as i64 - 2).collect(),
            fc_bias: vec![5, -5, 0, 2],
            weight_scale: 8,
            fc_scale: 8,
            act_scale: 16,
        };
        let l1 = model.forward_ints(&pixels);
        let l2 = model.forward_ints(&pixels);
        prop_assert_eq!(&l1, &l2);
        // Every intermediate bound from the range report must hold.
        let report = model.range_report().unwrap();
        for &v in &model.conv_ints(&pixels) {
            prop_assert!(v.abs() <= report.conv_bound);
        }
        for &logit in &l1 {
            prop_assert!(logit.abs() <= report.logit_bound);
        }
        prop_assert!(model.predict_ints(&pixels) < 4);
    }

    /// At the `i64` edge the range report is the wide-integer one or a
    /// refusal, never a wrapped bound: weights near a power of two up to
    /// 2^30 and activation scales up to 2^40 cross `i64::MAX` in both
    /// pipelines and stay far inside `i128`.
    #[test]
    fn range_report_is_exact_or_refuses_at_the_i64_edge(
        cryptonets in any::<bool>(),
        conv in 0u32..31,
        fc in 0u32..31,
        act in 0u32..41,
        nudge in -1i64..2,
        negative in any::<bool>(),
    ) {
        let weight = |exp: u32| {
            let w = (1i64 << exp) + nudge;
            if negative { -w } else { w }
        };
        let pipeline = if cryptonets { QuantPipeline::CryptoNets } else { QuantPipeline::Hybrid };
        let model = QuantizedCnn {
            pipeline,
            in_side: 8,
            conv_out: 2,
            kernel: 3,
            window: 2,
            classes: 4,
            conv_weights: (0..18).map(|i| if i == 5 { weight(conv) } else { i % 3 - 1 }).collect(),
            conv_bias: vec![1, -2],
            fc_weights: (0..4 * 18).map(|i| if i == 7 { weight(fc) } else { 1 }).collect(),
            fc_bias: vec![5, -5, 0, 2],
            weight_scale: 8,
            fc_scale: 8,
            act_scale: 1 << act,
        };
        let max = |v: &[i64]| v.iter().map(|&x| i128::from(x).abs()).max().unwrap_or(0);
        let conv_bound = 9 * max(&model.conv_weights) * 15 + max(&model.conv_bias);
        let (act_bound, pool_bound) = match pipeline {
            QuantPipeline::Hybrid => (i128::from(model.act_scale), i128::from(model.act_scale)),
            QuantPipeline::CryptoNets => (conv_bound * conv_bound, 4 * conv_bound * conv_bound),
        };
        let logit_bound = 18 * max(&model.fc_weights) * pool_bound + max(&model.fc_bias);
        let wide = [conv_bound, act_bound, pool_bound, logit_bound];
        match model.range_report() {
            Ok(r) => {
                let got = [r.conv_bound, r.act_bound, r.pool_bound, r.logit_bound];
                prop_assert_eq!(got.map(i128::from), wide);
                prop_assert!(r.required_plain_bits <= 64);
            }
            Err(_) => prop_assert!(wide.iter().any(|&b| b > i128::from(i64::MAX)), "{wide:?}"),
        }
    }

    #[test]
    fn enclave_mean_is_rounded_true_mean(sum in 0i64..10_000) {
        let model = QuantizedCnn {
            pipeline: QuantPipeline::Hybrid,
            in_side: 8,
            conv_out: 1,
            kernel: 3,
            window: 2,
            classes: 2,
            conv_weights: vec![1; 9],
            conv_bias: vec![0],
            fc_weights: vec![1; 18],
            fc_bias: vec![0, 0],
            weight_scale: 8,
            fc_scale: 8,
            act_scale: 16,
        };
        let mean = model.enclave_mean(sum);
        let true_mean = sum as f64 / 4.0;
        prop_assert!((mean as f64 - true_mean).abs() <= 0.5);
    }
}
