//! `purehe_12`: the CryptoNets pure-HE baseline on the reduced 12x12 shape
//! at n = 1024 — no enclave at all; ciphertext squares and relinearisations
//! dominate. The paper-scale pure-HE request (about 20 s, and two
//! consecutive ones measured 19.9 s and 23.8 s) cannot repeat within a
//! tenth and stays in `repro fig8`.

use super::{elapsed_ns, ms, op_counts, Child, Ready, Runner, Sample, BATCH};
use hesgx_bfv::error::BfvError;
use hesgx_crypto::rng::ChaChaRng;
use hesgx_henn::crt::CrtKeys;
use hesgx_henn::cryptonets::CryptoNets;
use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};
use std::time::Instant;

struct PureHe {
    engine: CryptoNets,
    keys: CrtKeys,
    model: QuantizedCnn,
    pixels: ChaChaRng,
    encryption: ChaChaRng,
}

pub fn setup(seed: u64) -> Ready {
    let model = super::small_model(QuantPipeline::CryptoNets);
    let mut encryption = ChaChaRng::from_seed(seed).fork("benchmark-purehe");
    let started = Instant::now();
    let engine = CryptoNets::new(model.clone(), 1024).expect("the pure-HE engine builds");
    let keys = engine.system().generate_keys(&mut encryption);
    let provision_ns = elapsed_ns(started);
    let mut runner = PureHe {
        engine,
        keys,
        model,
        pixels: super::pixel_rng(seed),
        encryption,
    };
    let warmup = runner.request();
    Ready {
        runner: Box::new(runner),
        provision_ns,
        warmup,
    }
}

impl Runner for PureHe {
    fn request(&mut self) -> Sample {
        let pixels = self.model.in_side * self.model.in_side;
        let images = super::random_images(&mut self.pixels, BATCH, pixels);
        let started = Instant::now();
        let (mut encrypt_ns, mut infer_end_ns) = (0, 0);
        let result = (|| {
            let encrypted = self
                .engine
                .encrypt_batch(&images, &self.keys, &mut self.encryption)?;
            encrypt_ns = elapsed_ns(started);
            let (logits, ops) = self.engine.infer(&encrypted, &self.keys)?;
            infer_end_ns = elapsed_ns(started);
            let predicted = self
                .engine
                .decrypt_predictions(&logits, &self.keys, BATCH)?;
            Ok::<_, BfvError>((encrypted, ops, predicted))
        })();
        let wall_ns = elapsed_ns(started);

        let mut sample = Sample::failed(started, wall_ns, 1, BATCH as u64);
        let Ok((encrypted, ops, predicted)) = result else {
            return sample;
        };
        sample.verified_images = images
            .iter()
            .zip(&predicted)
            .filter(|(image, class)| self.model.predict_ints(image) == **class)
            .count() as u64;
        sample.failed = u64::from(sample.verified_images != sample.images);
        sample.upload_bytes = encrypted.byte_len() as u64;
        let (infer_ns, decrypt_ns) = (infer_end_ns - encrypt_ns, wall_ns - infer_end_ns);
        sample.layer = vec![
            ("henn.purehe_encrypt_ms", ms(encrypt_ns)),
            ("henn.purehe_infer_ms", ms(infer_ns)),
            ("henn.purehe_decrypt_ms", ms(decrypt_ns)),
        ];
        sample.layer.extend(op_counts(&ops));
        let mut offset_ns = 0;
        for (name, dur_ns) in [
            ("CryptoNets::encrypt_batch", encrypt_ns),
            ("CryptoNets::infer", infer_ns),
            ("CryptoNets::decrypt_predictions", decrypt_ns),
        ] {
            sample.children.push(Child {
                name: name.into(),
                offset_ns,
                dur_ns,
                derived: false,
            });
            offset_ns += dur_ns;
        }
        sample
    }
}
