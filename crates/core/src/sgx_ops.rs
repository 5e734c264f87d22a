//! In-enclave plaintext computing (paper §IV-D/§IV-E): exact activations,
//! pooling, and noise refresh on ciphertexts passed into the enclave.
//!
//! Every operation follows the same shape: ECALL in with the ciphertexts,
//! decrypt with the enclave-resident secret keys, compute the exact function
//! on plaintext, re-encrypt, ECALL out. The enclave holds `s`, so it
//! re-encrypts under the secret key
//! ([`CrtPlainSystem::encrypt_slots_symmetric`], DESIGN.md §19) — the public
//! keys it keeps are only what it hands out. The re-encryption also resets
//! the invariant noise, which is why the hybrid pipeline never needs
//! relinearization keys (§IV-E).
//!
//! Batching policy mirrors the paper §VI-E: a whole feature map (or a whole
//! batch of ciphertexts) enters in a *single* ECALL so the boundary-crossing
//! and key-load costs amortize; the `*_single_ecalls` variants reproduce the
//! pathological per-pixel design Fig. 8 calls `EncryptSGX (single)`.
//!
//! All of them run on one skeleton, `InferenceEnclave::batched_ecall`: one
//! fallible ECALL per logical call under the retry policy, per-cell work
//! scheduled on the caller's [`ParExec`] inside the enclave body (a pool of
//! one runs it inline) with its CPU time reported to the cost model.

use crate::error::{Error, Result};
use crate::recovery::{retry_with_cost, RecoveryPolicy};
use hesgx_bfv::prelude::{PublicKey, SecretKey};
use hesgx_chaos::{FaultHook, FaultSite};
use hesgx_crypto::rng::ChaChaRng;
use hesgx_crypto::transcipher::{self, IngressKey};
use hesgx_henn::crt::{CrtCiphertext, CrtPlainSystem};
use hesgx_henn::image::EncryptedMap;
use hesgx_henn::par::ParExec;
use hesgx_nn::layers::ActivationKind;
use hesgx_nn::quantize::QuantizedCnn;
use hesgx_tee::cost::CostBreakdown;
use hesgx_tee::enclave::Enclave;
use hesgx_tee::error::TeeError;
use hesgx_tee::wall::WallTimer;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// The inference enclave: a TEE instance holding the FV secret keys, able to
/// decrypt → compute → re-encrypt.
#[derive(Debug)]
pub struct InferenceEnclave {
    enclave: Enclave,
    secret: Vec<SecretKey>,
    /// Only handed out ([`InferenceEnclave::public_keys`]); the enclave
    /// itself re-encrypts under `secret`.
    public: Vec<PublicKey>,
    rng: Mutex<ChaChaRng>,
    /// Monotone per-call counter: domain-separates the RNG forks of the
    /// transforms (the fork itself never advances the parent stream, so
    /// without this two calls would reuse one stream).
    calls: AtomicU64,
    /// Bounded-retry policy for transient boundary faults.
    recovery: RecoveryPolicy,
}

/// The boundary shape of one batched ECALL — what
/// [`InferenceEnclave::batched_ecall`] needs besides the body.
struct EcallShape<'a> {
    /// ECALL name (`ecall.<name>` on the books).
    name: &'a str,
    /// Marshalled input size; also sizes the touched EPC region.
    in_bytes: usize,
    /// Marshalled output size.
    out_bytes: usize,
    /// The call's base RNG stream is the fork `{fork_prefix}-call-{n}`.
    fork_prefix: &'a str,
    /// An extra fault site consulted before each attempt: the request can be
    /// dropped before it ever reaches the enclave.
    pre_site: Option<FaultSite>,
    /// Whether the compute pass re-reads the header page, now resident — the
    /// spot where injected EPC load pressure strikes.
    retouch_header: bool,
}

/// Runs `n` tasks on `pool` inside an ECALL body, each under its own wall
/// timer, and adds their summed time to `cpu_ns` — what lets the virtual
/// clock charge the enclave for the *full* CPU work of a batch, not just the
/// shortened wall time.
fn timed_tasks<T: Send + Sync>(
    pool: &ParExec,
    n: usize,
    cpu_ns: &mut u64,
    task: impl Fn(usize) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let timed = pool.try_run(n, |i| {
        let start = WallTimer::start();
        let out = task(i)?;
        Ok::<_, Error>((out, start.elapsed_ns()))
    })?;
    let mut outs = Vec::with_capacity(timed.len());
    for (out, ns) in timed {
        outs.push(out);
        *cpu_ns = cpu_ns.saturating_add(ns);
    }
    Ok(outs)
}

impl InferenceEnclave {
    /// Wraps an enclave whose key ceremony produced `secret`/`public`.
    // hesgx-lint: allow(ecall-cost, reason = "constructor; performs no enclave computation")
    pub fn new(
        enclave: Enclave,
        secret: Vec<SecretKey>,
        public: Vec<PublicKey>,
        seed: u64,
    ) -> Self {
        InferenceEnclave {
            enclave,
            secret,
            public,
            rng: Mutex::new(ChaChaRng::from_seed(seed).fork("enclave-reencrypt")),
            calls: AtomicU64::new(0),
            recovery: RecoveryPolicy::default(),
        }
    }

    /// The underlying simulated enclave.
    // hesgx-lint: allow(ecall-cost, reason = "accessor; performs no enclave computation")
    pub fn enclave(&self) -> &Enclave {
        &self.enclave
    }

    /// Overrides the bounded-retry policy for transient boundary faults.
    // hesgx-lint: allow(ecall-cost, reason = "setter; performs no enclave computation")
    pub fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.recovery = policy;
    }

    /// The active retry policy.
    // hesgx-lint: allow(ecall-cost, reason = "accessor; performs no enclave computation")
    pub fn recovery_policy(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// The enclave's installed fault hook as a trait object (recovery-event
    /// sink), if any.
    fn hook(&self) -> Option<&dyn FaultHook> {
        self.enclave.fault_hook().map(|h| h.as_ref())
    }

    /// The observability recorder the enclave reports into (the disabled
    /// no-op recorder unless the provisioning config installed one).
    fn obs(&self) -> &hesgx_obs::Recorder {
        self.enclave.recorder()
    }

    /// Consults `site` before an attempt begins (the noise-refresh site: the
    /// request can be dropped before it ever reaches the enclave).
    fn consult_pre_site(&self, site: Option<FaultSite>) -> std::result::Result<(), Error> {
        if let Some(site) = site {
            if self.hook().and_then(|h| h.inject(site)).is_some() {
                return Err(Error::Tee(TeeError::Interrupted(site)));
            }
        }
        Ok(())
    }

    /// The public keys matching the enclave's secret keys.
    // hesgx-lint: allow(ecall-cost, reason = "accessor; performs no enclave computation")
    pub fn public_keys(&self) -> &[PublicKey] {
        &self.public
    }

    /// The enclave-resident secret keys (crate-internal; users receive their
    /// copy through the key ceremony).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn secret_keys(&self) -> &[SecretKey] {
        &self.secret
    }

    /// The skeleton of every batched in-enclave operator: ONE fallible ECALL
    /// per logical call, `body` running inside it over a touched EPC region
    /// of `in_bytes`.
    ///
    /// Transient boundary faults are retried under the enclave's
    /// [`RecoveryPolicy`] with every attempt's boundary cost summed into the
    /// returned breakdown (an aborted `EENTER` still crossed the boundary);
    /// `shape.pre_site` is consulted before each attempt. The values a body
    /// computes are exact on any successful attempt, so retries never change
    /// inference output.
    ///
    /// The call counter advances and the base RNG stream is forked *once* per
    /// logical call, outside the retry loop (forking never advances the
    /// parent stream); bodies re-encrypt each cell from its own `cell-{i}`
    /// fork of that base. A retried attempt therefore re-encrypts with
    /// exactly the same randomness as the attempt it replaces — retries are
    /// bit-invisible in the output ciphertexts — and the output is
    /// bit-identical for every pool size. (The fork labels are pinned by the
    /// golden ciphertext hashes.) The body tallies its CPU time
    /// (see [`timed_tasks`]) into the `&mut u64`, which is reported via
    /// [`hesgx_tee::enclave::EnclaveCtx::record_cpu_ns`].
    fn batched_ecall<T>(
        &self,
        shape: EcallShape<'_>,
        body: impl Fn(&ChaChaRng, &mut u64) -> Result<T>,
    ) -> Result<(T, CostBreakdown)> {
        let EcallShape {
            name,
            in_bytes,
            out_bytes,
            fork_prefix,
            pre_site,
            retouch_header,
        } = shape;
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let base = self.rng.lock().fork(&format!("{fork_prefix}-call-{call}"));
        let (result, cost) = retry_with_cost(&self.recovery, self.hook(), self.obs(), || {
            if let Err(e) = self.consult_pre_site(pre_site) {
                return (Err(e), CostBreakdown::default());
            }
            let (res, cost) = self
                .enclave
                .ecall_fallible(name, in_bytes, out_bytes, |ctx| {
                    let region = ctx.alloc(in_bytes.max(4096)).map_err(Error::Tee)?;
                    // First pass marshals the input in (cold faults).
                    ctx.touch(region).map_err(Error::Tee)?;
                    if retouch_header {
                        ctx.touch_bytes(region, 1).map_err(Error::Tee)?;
                    }
                    let mut cpu_ns = 0u64;
                    let out = body(&base, &mut cpu_ns)?;
                    ctx.record_cpu_ns(cpu_ns);
                    ctx.free(region).map_err(Error::Tee)?;
                    Ok::<_, Error>(out)
                });
            match res {
                Ok(inner) => (inner, cost),
                Err(tee) => (Err(Error::Tee(tee)), cost),
            }
        });
        Ok((result?, cost))
    }

    /// Decrypt a batch of ciphertexts, map each slot value, re-encrypt — the
    /// common core of the cell-wise operators (activation, division,
    /// refresh), one task per cell on `pool`.
    fn transform_cells(
        &self,
        name: &str,
        sys: &CrtPlainSystem,
        cells: &[&CrtCiphertext],
        f: impl Fn(usize, i128) -> i64 + Sync,
        pool: &ParExec,
        pre_site: Option<FaultSite>,
    ) -> Result<(Vec<CrtCiphertext>, CostBreakdown)> {
        let in_bytes: usize = cells.iter().map(|c| c.byte_len()).sum();
        self.batched_ecall(
            EcallShape {
                name,
                in_bytes,
                out_bytes: in_bytes,
                fork_prefix: "par",
                pre_site,
                retouch_header: true,
            },
            |base, cpu_ns| {
                timed_tasks(pool, cells.len(), cpu_ns, |idx| {
                    let mut rng = base.fork(&format!("cell-{idx}"));
                    let slots = sys.decrypt_slots(cells[idx], &self.secret)?;
                    let mapped: Vec<i64> = slots.iter().map(|&v| f(idx, v)).collect();
                    Ok(sys.encrypt_slots_symmetric(&mapped, &self.secret, &mut rng)?)
                })
            },
        )
    }

    /// Exact activation over a whole feature map in a single batched ECALL
    /// (`SGXSigmoid` in Fig. 5; also serves ReLU/Tanh/LeakyReLU, §VI-C),
    /// per-cell work scheduled on `pool` inside the enclave.
    ///
    /// # Errors
    ///
    /// Propagates HE/TEE failures.
    pub fn activation_map(
        &self,
        sys: &CrtPlainSystem,
        input: &EncryptedMap,
        model: &QuantizedCnn,
        kind: ActivationKind,
        pool: &ParExec,
    ) -> Result<(EncryptedMap, CostBreakdown)> {
        let (c, h, w) = input.shape();
        let cells: Vec<&CrtCiphertext> = input.cells().iter().collect();
        let (out, cost) = self.transform_cells(
            "ecall_activation",
            sys,
            &cells,
            |_, v| model.enclave_activation(v as i64, kind),
            pool,
            None,
        )?;
        Ok((EncryptedMap::new(c, h, w, out), cost))
    }

    /// The pathological per-pixel variant: one ECALL per cell
    /// (`EncryptSGX (single)` in Fig. 8). Returns the summed cost.
    ///
    /// # Errors
    ///
    /// Propagates HE/TEE failures.
    pub fn activation_map_single_ecalls(
        &self,
        sys: &CrtPlainSystem,
        input: &EncryptedMap,
        model: &QuantizedCnn,
        kind: ActivationKind,
    ) -> Result<(EncryptedMap, CostBreakdown)> {
        let (c, h, w) = input.shape();
        let mut out = Vec::with_capacity(input.cells().len());
        let mut total = CostBreakdown::default();
        let inline = ParExec::serial();
        for cell in input.cells() {
            let (mut mapped, cost) = self.transform_cells(
                "ecall_activation_single",
                sys,
                &[cell],
                |_, v| model.enclave_activation(v as i64, kind),
                &inline,
                None,
            )?;
            out.push(
                mapped
                    .pop()
                    .ok_or(Error::Internal("single-cell transform returned no cell"))?,
            );
            total = total.saturating_add(cost);
        }
        Ok((EncryptedMap::new(c, h, w, out), total))
    }

    /// `SGXDiv` (paper §VI-D): the window sums were computed homomorphically
    /// outside; the enclave only performs the non-linear division by `k²` —
    /// one ECALL, per-cell work on `pool`.
    ///
    /// # Errors
    ///
    /// Propagates HE/TEE failures.
    pub fn divide_map(
        &self,
        sys: &CrtPlainSystem,
        summed: &EncryptedMap,
        model: &QuantizedCnn,
        pool: &ParExec,
    ) -> Result<(EncryptedMap, CostBreakdown)> {
        let (c, h, w) = summed.shape();
        let cells: Vec<&CrtCiphertext> = summed.cells().iter().collect();
        let (out, cost) = self.transform_cells(
            "ecall_divide",
            sys,
            &cells,
            |_, v| model.enclave_mean(v as i64),
            pool,
            None,
        )?;
        Ok((EncryptedMap::new(c, h, w, out), cost))
    }

    /// Transciphered ingress (`ecall_Transcipher`, DESIGN.md §17): the
    /// client's ChaCha20-sealed pixel payload enters the enclave, is
    /// authenticated and opened *inside*, and the quantized pixels are
    /// re-encrypted under FV — one ciphertext per pixel position with the
    /// batch riding the SIMD slots, exactly the layout
    /// `EncryptedMap::encrypt_images` produces on the client for the
    /// FV-ciphertext ingress path.
    ///
    /// The upload is kilobytes where an FV-ciphertext upload is megabytes;
    /// the price is the in-enclave FV encryption, which is charged honestly:
    /// EPC touches for the marshalled payload region, measured CPU time for
    /// the authenticate+stream-decrypt and for every per-pixel FV encryption
    /// (summed across pool workers via
    /// [`hesgx_tee::enclave::EnclaveCtx::record_cpu_ns`]), and output
    /// marshalling sized by [`CrtPlainSystem::fresh_ciphertext_byte_len`] —
    /// fresh ciphertext sizes depend only on the FV parameters, and the
    /// produced map must leave the enclave for the HE-outside linear layers.
    ///
    /// [`FaultSite::Transcipher`] is consulted before every attempt (the
    /// upload can be dropped in transit); transient faults retry under the
    /// enclave's [`RecoveryPolicy`]. The RNG base is forked once per logical
    /// call *outside* the retry loop and every cell encrypts from its own
    /// `cell-{pixel}` fork, so retries are bit-invisible and the ciphertext
    /// bits are identical for every pool size.
    ///
    /// Returns the per-pixel ciphertext cells, the batch size the payload
    /// carried, and the boundary cost.
    ///
    /// # Errors
    ///
    /// Fails without retry when the payload does not authenticate or is
    /// malformed ([`Error::Config`] — a forged upload must not burn the
    /// retry budget), or when its batch exceeds the SIMD slot count;
    /// propagates HE/TEE failures.
    pub fn transcipher_ingress(
        &self,
        sys: &CrtPlainSystem,
        key: &IngressKey,
        payload: &[u8],
        pool: &ParExec,
    ) -> Result<(Vec<CrtCiphertext>, usize, CostBreakdown)> {
        let in_bytes = payload.len();
        // The clear framing header sizes the out-marshalling before the tag
        // is checked; a lying header can only mis-price a request that then
        // fails authentication, never desynchronize unpacking (the shape is
        // re-read from the authenticated header inside the ECALL body).
        let (_, pixels) = transcipher::peek_shape(payload)
            .map_err(|e| Error::Config(format!("transcipher ingress: {e}")))?;
        let ((cells, batch), cost) = self.batched_ecall(
            EcallShape {
                name: "ecall_Transcipher",
                in_bytes,
                out_bytes: sys.fresh_ciphertext_byte_len().saturating_mul(pixels),
                fork_prefix: "transcipher",
                pre_site: Some(FaultSite::Transcipher),
                retouch_header: true,
            },
            |base, cpu_ns| {
                let open_timer = WallTimer::start();
                let images = transcipher::open_images(key, payload)
                    .map_err(|e| Error::Config(format!("transcipher ingress: {e}")))?;
                *cpu_ns = open_timer.elapsed_ns();
                let batch = images.len();
                let Some(first) = images.first() else {
                    return Err(Error::Internal("transcipher payload opened empty"));
                };
                if batch > sys.slot_count() {
                    return Err(Error::Config(format!(
                        "transcipher batch of {batch} images exceeds the {} SIMD slots",
                        sys.slot_count()
                    )));
                }
                let images = &images;
                let cells = timed_tasks(pool, first.len(), cpu_ns, |pixel| {
                    let mut rng = base.fork(&format!("cell-{pixel}"));
                    let slots: Vec<i64> = images.iter().map(|img| img[pixel]).collect();
                    Ok(sys.encrypt_slots_symmetric(&slots, &self.secret, &mut rng)?)
                })?;
                Ok((cells, batch))
            },
        )?;
        self.obs().incr(hesgx_obs::counters::TRANSCIPHERS, 1);
        self.obs()
            .incr(hesgx_obs::counters::INGRESS_UPLOAD_BYTES, in_bytes as u64);
        Ok((cells, batch, cost))
    }

    /// `SGXPool` (paper §VI-D): the whole feature map enters the enclave and
    /// both the addition and the division happen inside. Fixed input size
    /// regardless of window (the paper's green line in Fig. 6). Still one
    /// ECALL for the whole map; the decryption of every input cell and the
    /// pool+re-encrypt of every output cell are scheduled on `pool` inside
    /// the enclave body, with the summed per-task CPU time reported to the
    /// cost model.
    ///
    /// # Errors
    ///
    /// Propagates HE/TEE failures.
    pub fn pool_full_map(
        &self,
        sys: &CrtPlainSystem,
        input: &EncryptedMap,
        model: &QuantizedCnn,
        max_pool: bool,
        pool: &ParExec,
    ) -> Result<(EncryptedMap, CostBreakdown)> {
        let (c, h, w) = input.shape();
        let window = model.window;
        let (oh, ow) = (h / window, w / window);
        let in_bytes = input.byte_len();
        let slot_count = sys.slot_count();
        let (cells, cost) = self.batched_ecall(
            EcallShape {
                name: "ecall_pool",
                in_bytes,
                out_bytes: in_bytes / (window * window).max(1),
                fork_prefix: "par",
                pre_site: None,
                retouch_header: false,
            },
            |base, cpu_ns| {
                // Decrypt the full map, one task per cell.
                let plain = timed_tasks(pool, input.cells().len(), cpu_ns, |i| {
                    Ok(sys.decrypt_slots(&input.cells()[i], &self.secret)?)
                })?;
                // Pool + re-encrypt, one task per output cell.
                let plain = &plain;
                timed_tasks(pool, c * oh * ow, cpu_ns, |o| {
                    let ch = o / (oh * ow);
                    let oy = (o / ow) % oh;
                    let ox = o % ow;
                    let mut rng = base.fork(&format!("cell-{o}"));
                    let mut slots_out = vec![0i64; slot_count];
                    for (s, slot_out) in slots_out.iter_mut().enumerate() {
                        let mut acc: Option<i64> = None;
                        for dy in 0..window {
                            for dx in 0..window {
                                let v = plain[(ch * h + oy * window + dy) * w + ox * window + dx][s]
                                    as i64;
                                acc = Some(match acc {
                                    None => v,
                                    Some(a) if max_pool => a.max(v),
                                    Some(a) => a + v,
                                });
                            }
                        }
                        let acc = acc.ok_or(Error::Internal("pooling window is empty"))?;
                        *slot_out = if max_pool {
                            acc
                        } else {
                            model.enclave_mean(acc)
                        };
                    }
                    Ok(sys.encrypt_slots_symmetric(&slots_out, &self.secret, &mut rng)?)
                })
            },
        )?;
        Ok((EncryptedMap::new(c, oh, ow, cells), cost))
    }

    /// Noise refresh (`ecall_DcreaseNoise`, paper §VI-E / Table V): decrypt
    /// and re-encrypt a batch of ciphertexts in one ECALL (per-ciphertext
    /// work on `pool`), removing all accumulated noise and shrinking size-3
    /// ciphertexts back to size 2 — the enclave alternative to
    /// relinearization.
    ///
    /// # Errors
    ///
    /// Propagates HE/TEE failures.
    pub fn refresh_batch(
        &self,
        sys: &CrtPlainSystem,
        cts: &[CrtCiphertext],
        pool: &ParExec,
    ) -> Result<(Vec<CrtCiphertext>, CostBreakdown)> {
        let refs: Vec<&CrtCiphertext> = cts.iter().collect();
        self.transform_cells(
            "ecall_DecreaseNoise",
            sys,
            &refs,
            |_, v| v as i64,
            pool,
            Some(FaultSite::NoiseRefresh),
        )
    }

    /// Single-ciphertext refresh (one ECALL round-trip each — the
    /// unamortized row of Table V).
    ///
    /// # Errors
    ///
    /// Propagates HE/TEE failures.
    pub fn refresh_one(
        &self,
        sys: &CrtPlainSystem,
        ct: &CrtCiphertext,
    ) -> Result<(CrtCiphertext, CostBreakdown)> {
        let (mut out, cost) = self.transform_cells(
            "ecall_DecreaseNoise",
            sys,
            &[ct],
            |_, v| v as i64,
            &ParExec::serial(),
            Some(FaultSite::NoiseRefresh),
        )?;
        let fresh = out
            .pop()
            .ok_or(Error::Internal("refresh returned no ciphertext"))?;
        Ok((fresh, cost))
    }

    /// Measures the minimum invariant-noise budget (bits) across `cts`
    /// inside the enclave — the noise-telemetry source and the input to the
    /// Auto refresh decision (DESIGN.md §13).
    ///
    /// The probe deliberately sits *outside* the fault-injection and RNG
    /// machinery: it uses the plain (infallible) ECALL path, consults no
    /// fault sites, advances neither the call counter nor the re-encryption
    /// stream, and touches no EPC pages (it reads ciphertexts the
    /// surrounding operator already marshalled). Enabling telemetry can
    /// therefore never shift a chaos occurrence index or change a single
    /// output ciphertext bit. Measurement stays behind the enclave
    /// boundary: the secret key and the noise polynomial never leave, only
    /// the bit-count (4 bytes) is marshalled out.
    ///
    /// # Errors
    ///
    /// Propagates HE decryption failures.
    pub fn noise_probe(
        &self,
        sys: &CrtPlainSystem,
        cts: &[&CrtCiphertext],
    ) -> Result<(u32, CostBreakdown)> {
        let in_bytes: usize = cts.iter().map(|c| c.byte_len()).sum();
        let (bits, cost) = self.enclave.ecall("ecall_NoiseProbe", in_bytes, 4, |_ctx| {
            let mut min_bits = u32::MAX;
            for ct in cts {
                min_bits = min_bits.min(sys.noise_budget(ct, &self.secret)?);
            }
            Ok::<_, Error>(min_bits)
        });
        Ok((bits?, cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keydist::enclave_generate_keys;
    use hesgx_chaos::{FaultInjector, FaultKind, FaultPlan};
    use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};
    use hesgx_tee::enclave::{EnclaveBuilder, Platform};
    use std::sync::Arc;

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

    fn setup() -> (InferenceEnclave, CrtPlainSystem, ChaChaRng) {
        setup_with(None)
    }

    /// The same seeded enclave every time, optionally with a fault hook.
    fn setup_with(
        hook: Option<Arc<FaultInjector>>,
    ) -> (InferenceEnclave, CrtPlainSystem, ChaChaRng) {
        let mut builder = EnclaveBuilder::new("test-enclave").add_code(b"v1");
        if let Some(h) = hook {
            builder = builder.fault_hook(h);
        }
        let enclave = builder.build(Platform::new(21));
        let sys = CrtPlainSystem::new(256, &[12289, 13313]).unwrap();
        let mut rng = ChaChaRng::from_seed(91);
        let (keys, _) = enclave_generate_keys(&enclave, &sys, &mut rng).expect("key ceremony");
        let ie = InferenceEnclave::new(enclave, keys.secret, keys.public, 92);
        (ie, sys, rng)
    }

    /// Every pooled operator is swept over these pool sizes; 1 runs inline.
    const POOLS: [usize; 3] = [1, 2, 4];

    #[test]
    fn activation_matches_reference() {
        let (ie, sys, rng) = setup();
        let model = small_model();
        // A map of "conv outputs" to activate.
        let values: Vec<Vec<i64>> = vec![vec![-500, -10, 0, 10, 500, 123, -77, 999, 4]];
        let enc =
            EncryptedMap::encrypt_images(&sys, &values, 3, &ie.public, &rng, &ParExec::serial())
                .unwrap();
        let (out, cost) = ie
            .activation_map(
                &sys,
                &enc,
                &model,
                ActivationKind::Sigmoid,
                &ParExec::serial(),
            )
            .unwrap();
        let dec = out
            .decrypt_all(&sys, &ie.secret, 1, &ParExec::serial())
            .unwrap();
        let expect: Vec<i128> = values[0]
            .iter()
            .map(|&v| model.enclave_sigmoid(v) as i128)
            .collect();
        assert_eq!(dec[0], expect);
        assert!(cost.total_ns() > 0);
    }

    #[test]
    fn batched_ecall_cheaper_than_per_cell() {
        let (ie, sys, rng) = setup();
        let model = small_model();
        let values = vec![(0..16).map(|v| v * 10 - 80).collect::<Vec<i64>>()];
        let enc =
            EncryptedMap::encrypt_images(&sys, &values, 4, &ie.public, &rng, &ParExec::serial())
                .unwrap();
        let (batched_out, batched) = ie
            .activation_map(
                &sys,
                &enc,
                &model,
                ActivationKind::Sigmoid,
                &ParExec::serial(),
            )
            .unwrap();
        let (single_out, single) = ie
            .activation_map_single_ecalls(&sys, &enc, &model, ActivationKind::Sigmoid)
            .unwrap();
        assert!(
            single.transition_ns > batched.transition_ns,
            "per-cell ECALLs must pay more transitions: {} vs {}",
            single.transition_ns,
            batched.transition_ns
        );
        // Both run the same core, so they compute the same values.
        assert_eq!(
            single_out
                .decrypt_all(&sys, &ie.secret, 1, &ParExec::serial())
                .unwrap(),
            batched_out
                .decrypt_all(&sys, &ie.secret, 1, &ParExec::serial())
                .unwrap()
        );
    }

    #[test]
    fn refresh_preserves_value_and_resets_noise() {
        let (ie, sys, mut rng) = setup();
        let keys_secret = &ie.secret;
        let ct = sys
            .encrypt_slots(&[1234, -99], &ie.public, &mut rng)
            .unwrap();
        // Square to consume budget and grow the ciphertext.
        let sq = sys.square(&ct).unwrap();
        assert_eq!(sq.size(), 3);
        let before = sys.noise_budget(&sq, keys_secret).unwrap();
        let (fresh, _) = ie.refresh_one(&sys, &sq).unwrap();
        assert_eq!(fresh.size(), 2, "refresh shrinks the ciphertext");
        let after = sys.noise_budget(&fresh, keys_secret).unwrap();
        assert!(
            after > before,
            "refresh must reset noise: {before} -> {after}"
        );
        let dec = sys.decrypt_slots(&fresh, keys_secret).unwrap();
        assert_eq!(dec[0], 1234 * 1234);
        assert_eq!(dec[1], 99 * 99);
    }

    #[test]
    fn batched_refresh_amortizes_transitions() {
        let (ie, sys, mut rng) = setup();
        let cts: Vec<_> = (0..8)
            .map(|i| sys.encrypt_slots(&[i], &ie.public, &mut rng).unwrap())
            .collect();
        let (_, batched) = ie.refresh_batch(&sys, &cts, &ParExec::serial()).unwrap();
        let mut single_total = CostBreakdown::default();
        for ct in &cts {
            let (_, c) = ie.refresh_one(&sys, ct).unwrap();
            single_total = single_total.saturating_add(c);
        }
        assert!(single_total.transition_ns > batched.transition_ns);
    }

    #[test]
    fn parallel_activation_bit_identical_across_pool_sizes() {
        let model = small_model();
        let values: Vec<Vec<i64>> = vec![(0..16).map(|v| v * 9 - 70).collect()];
        let mut reference: Option<Vec<CrtCiphertext>> = None;
        for threads in [1usize, 2, 3, 8] {
            // Fresh (deterministic) enclave per pool size so each run starts
            // from the same RNG state and call counter.
            let (ie, sys, rng) = setup();
            let enc = EncryptedMap::encrypt_images(
                &sys,
                &values,
                4,
                &ie.public,
                &rng,
                &ParExec::serial(),
            )
            .unwrap();
            let pool = ParExec::new(threads);
            let (out, cost) = ie
                .activation_map(&sys, &enc, &model, ActivationKind::Sigmoid, &pool)
                .unwrap();
            assert!(cost.total_ns() > 0);
            let dec = out
                .decrypt_all(&sys, &ie.secret, 1, &ParExec::serial())
                .unwrap();
            let expect: Vec<i128> = values[0]
                .iter()
                .map(|&v| model.enclave_sigmoid(v) as i128)
                .collect();
            assert_eq!(dec[0], expect, "{threads} threads");
            match &reference {
                None => reference = Some(out.cells().to_vec()),
                Some(cells) => assert_eq!(out.cells(), &cells[..], "{threads} threads"),
            }
        }
    }

    #[test]
    fn parallel_pool_full_map_matches_serial_values() {
        let model = small_model();
        let img = vec![(1..=16i64).collect::<Vec<i64>>()];
        let mut reference = None;
        for threads in POOLS {
            let (ie, sys, rng) = setup();
            let enc =
                EncryptedMap::encrypt_images(&sys, &img, 4, &ie.public, &rng, &ParExec::serial())
                    .unwrap();
            let pool = ParExec::new(threads);
            let (mean, _) = ie.pool_full_map(&sys, &enc, &model, false, &pool).unwrap();
            assert_eq!(mean.shape(), (1, 2, 2));
            let dec = mean
                .decrypt_all(&sys, &ie.secret, 1, &ParExec::serial())
                .unwrap();
            assert_eq!(dec[0], vec![4, 6, 12, 14]);
            let (maxp, _) = ie.pool_full_map(&sys, &enc, &model, true, &pool).unwrap();
            let dec = maxp
                .decrypt_all(&sys, &ie.secret, 1, &ParExec::serial())
                .unwrap();
            assert_eq!(dec[0], vec![6, 8, 14, 16]);
            // Ciphertext bits, not just values, are pool-size independent.
            let cells = (mean.cells().to_vec(), maxp.cells().to_vec());
            assert_eq!(
                *reference.get_or_insert(cells.clone()),
                cells,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn parallel_refresh_preserves_values() {
        let mut reference = None;
        for threads in POOLS {
            let (ie, sys, mut rng) = setup();
            let cts: Vec<_> = (0..6)
                .map(|i| {
                    sys.encrypt_slots(&[i * 11 - 20], &ie.public, &mut rng)
                        .unwrap()
                })
                .collect();
            let pool = ParExec::new(threads);
            let (fresh, _) = ie.refresh_batch(&sys, &cts, &pool).unwrap();
            for (i, ct) in fresh.iter().enumerate() {
                let dec = sys.decrypt_slots(ct, &ie.secret).unwrap();
                assert_eq!(dec[0], (i as i128) * 11 - 20);
            }
            assert_eq!(
                *reference.get_or_insert(fresh.clone()),
                fresh,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn divide_map_computes_means() {
        let (ie, sys, rng) = setup();
        let model = small_model();
        // Window sums (window=2 → divide by 4 with rounding).
        let sums = vec![vec![4i64, 6, 7, 0]];
        let enc =
            EncryptedMap::encrypt_images(&sys, &sums, 2, &ie.public, &rng, &ParExec::serial())
                .unwrap();
        let (out, _) = ie
            .divide_map(&sys, &enc, &model, &ParExec::serial())
            .unwrap();
        let dec = out
            .decrypt_all(&sys, &ie.secret, 1, &ParExec::serial())
            .unwrap();
        assert_eq!(dec[0], vec![1, 2, 2, 0]);
    }

    #[test]
    fn pool_full_map_mean_and_max() {
        let (ie, sys, rng) = setup();
        let model = small_model();
        let img = vec![(1..=16i64).collect::<Vec<i64>>()];
        let enc = EncryptedMap::encrypt_images(&sys, &img, 4, &ie.public, &rng, &ParExec::serial())
            .unwrap();
        let inline = ParExec::serial();
        let (mean, _) = ie
            .pool_full_map(&sys, &enc, &model, false, &inline)
            .unwrap();
        assert_eq!(mean.shape(), (1, 2, 2));
        let dec = mean
            .decrypt_all(&sys, &ie.secret, 1, &ParExec::serial())
            .unwrap();
        // windows sums 14,22,46,54 → means 4,6,12,14 (round half up).
        assert_eq!(dec[0], vec![4, 6, 12, 14]);
        let (maxp, _) = ie.pool_full_map(&sys, &enc, &model, true, &inline).unwrap();
        let dec = maxp
            .decrypt_all(&sys, &ie.secret, 1, &ParExec::serial())
            .unwrap();
        assert_eq!(dec[0], vec![6, 8, 14, 16]);
    }

    #[test]
    fn sequential_retry_is_bit_invisible_in_the_ciphertexts() {
        // Regression: a transform once locked (and advanced) the shared RNG
        // stream *inside* the retry closure, so a retried attempt
        // re-encrypted with different randomness than a fault-free run. The
        // core forks the stream once per logical call, outside the retry
        // loop, and each cell forks that; checked at every pool size for a
        // batched transform, the full-map pool, and a one-cell call.
        let model = small_model();
        let values: Vec<Vec<i64>> = vec![(0..16).map(|v| v * 9 - 70).collect()];
        let run = |hook: Option<Arc<FaultInjector>>, threads: usize| {
            let (ie, sys, rng) = setup_with(hook);
            let enc = EncryptedMap::encrypt_images(
                &sys,
                &values,
                4,
                &ie.public,
                &rng,
                &ParExec::serial(),
            )
            .unwrap();
            let pool = ParExec::new(threads);
            let (act, _) = ie
                .activation_map(&sys, &enc, &model, ActivationKind::Sigmoid, &pool)
                .unwrap();
            let (pooled, _) = ie.pool_full_map(&sys, &enc, &model, false, &pool).unwrap();
            let (one, _) = ie.refresh_one(&sys, &enc.cells()[0]).unwrap();
            (act.cells().to_vec(), pooled.cells().to_vec(), one)
        };
        let clean = run(None, 1);
        for threads in POOLS {
            assert_eq!(clean, run(None, threads), "{threads} threads");
            // EcallExit consultation order in `run`: occurrence 0 is the
            // activation ECALL (faulted, retried as occurrence 1), occurrence
            // 2 is the pool ECALL (faulted, retried as occurrence 3),
            // occurrence 4 is the one-cell refresh (faulted, retried as 5).
            let injector = Arc::new(
                FaultPlan::new(5)
                    .script(FaultSite::EcallExit, 0, FaultKind::Transient)
                    .script(FaultSite::EcallExit, 2, FaultKind::Transient)
                    .script(FaultSite::EcallExit, 4, FaultKind::Transient)
                    .build(),
            );
            let faulted = run(Some(injector.clone()), threads);
            assert_eq!(injector.report().retries(), 3, "all three faults delivered");
            assert_eq!(
                clean.0, faulted.0,
                "activation ciphertexts changed by retry"
            );
            assert_eq!(clean.1, faulted.1, "pool ciphertexts changed by retry");
            assert_eq!(clean.2, faulted.2, "one-cell ciphertext changed by retry");
        }
    }

    #[test]
    fn transcipher_ingress_recovers_pixels_and_retries_are_bit_invisible() {
        let images: Vec<Vec<i64>> = (0..2)
            .map(|b| (0..16).map(|p| (p * 3 + b) as i64 - 7).collect())
            .collect();
        let key = IngressKey::derive(b"salt", b"ikm", b"test-ingress");
        let payload = transcipher::seal_images(&key, &[9u8; 12], &images).unwrap();
        let run = |hook: Option<Arc<FaultInjector>>, threads: usize| {
            let (ie, sys, _) = setup_with(hook);
            let pool = ParExec::new(threads);
            let (cells, batch, cost) = ie.transcipher_ingress(&sys, &key, &payload, &pool).unwrap();
            assert_eq!(batch, 2);
            assert_eq!(cells.len(), 16);
            assert!(cost.total_ns() > 0);
            // The re-encrypted cells decrypt to exactly the sealed pixels,
            // slot b = image b — the layout the conv layer expects — and
            // have the size the out-marshalling was priced at.
            for (pixel, ct) in cells.iter().enumerate() {
                assert_eq!(ct.byte_len(), sys.fresh_ciphertext_byte_len());
                let slots = sys.decrypt_slots(ct, &ie.secret).unwrap();
                for (b, img) in images.iter().enumerate() {
                    assert_eq!(slots[b], img[pixel] as i128, "pixel {pixel} batch {b}");
                }
            }
            cells
        };
        let clean = run(None, 1);
        for threads in POOLS {
            assert_eq!(clean, run(None, threads), "{threads} threads");
            let injector = Arc::new(
                FaultPlan::new(6)
                    .script(FaultSite::Transcipher, 0, FaultKind::Transient)
                    .build(),
            );
            let faulted = run(Some(injector.clone()), threads);
            assert_eq!(
                injector.report().retries(),
                1,
                "fault delivered and retried"
            );
            assert_eq!(clean, faulted, "retry must be bit-invisible");
        }
    }

    #[test]
    fn transcipher_ingress_rejects_forged_payloads_without_retrying() {
        let (ie, sys, _) = setup();
        let images = vec![vec![1i64, 2, 3, 4]];
        let key = IngressKey::derive(b"salt", b"ikm", b"test-ingress");
        let mut payload = transcipher::seal_images(&key, &[1u8; 12], &images).unwrap();
        let mid = payload.len() / 2;
        payload[mid] ^= 0x40;
        let pool = ParExec::new(1);
        let err = ie
            .transcipher_ingress(&sys, &key, &payload, &pool)
            .unwrap_err();
        assert!(
            matches!(err, Error::Config(_)),
            "auth failure must be fatal, not transient: {err}"
        );
    }

    #[test]
    fn dropped_refresh_attempts_still_land_in_the_cost_books() {
        // A NoiseRefresh fault drops the request before the boundary, so the
        // attempt is (correctly) charged CostBreakdown::default() — but it
        // must still appear as a recorded entry, or FaultReport attempt
        // counts and recorded cost entries stop reconciling.
        use hesgx_obs::{counters, Recorder};
        let rec = Recorder::enabled();
        let injector = Arc::new(
            FaultPlan::new(9)
                .script(FaultSite::NoiseRefresh, 0, FaultKind::Transient)
                .build(),
        );
        let platform = Platform::new(21);
        let enclave = EnclaveBuilder::new("test-enclave")
            .add_code(b"v1")
            .fault_hook(injector.clone())
            .recorder(rec.clone())
            .build(platform);
        let sys = CrtPlainSystem::new(256, &[12289, 13313]).unwrap();
        let mut rng = ChaChaRng::from_seed(91);
        let (keys, _) = enclave_generate_keys(&enclave, &sys, &mut rng).expect("key ceremony");
        let ie = InferenceEnclave::new(enclave, keys.secret, keys.public, 92);
        let cts: Vec<_> = (0..4)
            .map(|i| sys.encrypt_slots(&[i * 3], &ie.public, &mut rng).unwrap())
            .collect();
        let (fresh, cost) = ie.refresh_batch(&sys, &cts, &ParExec::serial()).unwrap();
        assert_eq!(fresh.len(), 4);
        let span = rec.span("recovery.retry").expect("attempts recorded");
        // One dropped attempt + one real crossing.
        assert_eq!(span.entries, 2, "zero-cost attempt must be recorded");
        assert_eq!(span.cost.transition_ns, cost.transition_ns);
        assert_eq!(rec.counter(counters::RECOVERY_ATTEMPTS), 2);
        assert_eq!(rec.counter(counters::RECOVERY_RETRIES), 1);
        // Attempt count reconciles with the fault report: retries + 1.
        assert_eq!(span.entries, injector.report().retries() + 1);
        // Only one ECALL actually crossed the boundary.
        let ecall = rec
            .span("ecall.ecall_DecreaseNoise")
            .expect("refresh crossing recorded");
        assert_eq!(ecall.entries, 1);
    }
}
