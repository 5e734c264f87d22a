//! In-enclave plaintext computing (paper §IV-D/§IV-E): exact activations,
//! pooling, and noise refresh on ciphertexts passed into the enclave.
//!
//! Every operation follows the same shape: ECALL in with the ciphertexts,
//! decrypt with the enclave-resident secret keys, compute the exact function
//! on plaintext, re-encrypt, ECALL out — so there is one map → map operator,
//! [`InferenceEnclave::apply`], and *what* it computes is data (a chain of
//! [`EnclaveOp`]s). The enclave holds `s`, so it
//! re-encrypts under the secret key, in evaluation form
//! ([`CrtPlainSystem::encrypt`] given `&self.secret`, DESIGN.md §19) —
//! the public keys it keeps are only what it hands out. The re-encryption also resets
//! the invariant noise, which is why the hybrid pipeline never needs
//! relinearization keys (§IV-E).
//!
//! Batching policy mirrors the paper §VI-E: a whole feature map (or a whole
//! batch of ciphertexts) enters in a *single* ECALL so the boundary-crossing
//! and key-load costs amortize; [`EcallBatching::PerPixel`] reproduces, for
//! any operator, the pathological one-ECALL-per-cell design Fig. 8 calls
//! `EncryptSGX (single)`.
//!
//! Every ECALL runs on one skeleton, `InferenceEnclave::batched_ecall`: one
//! fallible ECALL per logical call under the retry budget, per-cell work
//! scheduled on the caller's [`ParExec`] inside the enclave body (a pool of
//! one runs it inline) with its CPU time reported to the cost model.

use crate::error::{Error, Result};
use crate::planner::{EcallBatching, EnclaveOp, InferencePlan};
use crate::recovery::retry_with_cost;
use hesgx_bfv::prelude::{PublicKey, SecretKey};
use hesgx_chaos::{FaultHook, FaultSite};
use hesgx_crypto::rng::ChaChaRng;
use hesgx_crypto::transcipher::{self, IngressKey};
use hesgx_henn::crt::{CrtCiphertext, CrtPlainSystem};
use hesgx_henn::image::{EncryptedMap, Layout, SlotMap};
use hesgx_henn::par::ParExec;
use hesgx_nn::quantize::QuantizedCnn;
use hesgx_obs::prof;
use hesgx_tee::cost::CostBreakdown;
use hesgx_tee::enclave::Enclave;
use hesgx_tee::error::TeeError;
use hesgx_tee::wall::WallTimer;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    /// The packed crossings' gather indices by [`GatherKey`], most recently
    /// used first; past `slots²` slot entries (the values of the largest
    /// packed map, `n` cells of `n` slots) the least recently used go.
    gathers: Mutex<Vec<(GatherKey, Arc<Gather>)>>,
}

/// What a packed crossing's [`Gather`] is a function of: the input's layout
/// and cell shape, the slot count, and the `sy × sx` block of input
/// positions behind one output (the chain's pooling and reduction).
type GatherKey = (Layout, (usize, usize, usize), usize, (usize, usize));

/// The boundary shape of one batched ECALL — what
/// [`InferenceEnclave::batched_ecall`] needs besides the body.
struct EcallShape<'a> {
    /// ECALL name (`ecall.<name>` on the books).
    name: &'a str,
    /// Marshalled input size; the body touches that much of the enclave
    /// heap.
    in_bytes: usize,
    /// Plaintext the body stages on the enclave heap, behind the input.
    staging_bytes: usize,
    /// Marshalled output size.
    out_bytes: usize,
    /// The call's base RNG stream is the fork `{fork_prefix}-call-{n}`.
    fork_prefix: &'a str,
    /// An extra fault site consulted before each attempt: the request can be
    /// dropped before it ever reaches the enclave.
    pre_site: Option<FaultSite>,
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

/// Folds `chain` over one image's block of input values behind one output
/// (row-major `span × span`, or a row of partial sums), in place, and
/// returns the output: [`EnclaveOp::MeanPool`] sums the block's `k × k`
/// windows into its head, [`EnclaveOp::LogitReduce`] the whole block, then
/// every op maps the values still live.
// hesgx-lint: hot
fn fold(chain: &[EnclaveOp], model: &QuantizedCnn, block: &mut [i64]) -> i64 {
    let k = model.window;
    let mut live = block.len();
    for &op in chain {
        if op == EnclaveOp::LogitReduce {
            block[0] = block[..live].iter().sum();
            live = 1;
        }
        if op == EnclaveOp::MeanPool {
            let wide = live.isqrt();
            let side = wide / k;
            // Window `i` starts at or past value `i`: its sum overwrites
            // only values no later window reads.
            for i in 0..side * side {
                let corner = i / side * k * wide + i % side * k;
                let sum = (0..k * k)
                    .map(|d| block[corner + d / k * wide + d % k])
                    .sum();
                block[i] = sum;
            }
            live = side * side;
        }
        for v in &mut block[..live] {
            *v = match op {
                EnclaveOp::Activation(kind) => model.enclave_activation(*v, kind),
                EnclaveOp::MeanPool | EnclaveOp::Divide => model.enclave_mean(*v),
                EnclaveOp::Refresh | EnclaveOp::LogitReduce => *v,
            }
        }
    }
    block[0]
}

/// The gather index of a packed crossing, built from its slot map once per
/// [`GatherKey`] the enclave serves: where every block's members sit, and
/// which blocks lie in each input cell — all a cell's task needs to decrypt
/// only what its blocks read.
#[derive(Debug, Default)]
struct Gather {
    /// Members a block.
    area: usize,
    /// Slot (coefficient) of member `d` of the block behind output `o` for
    /// image `b`, at `(o·images + b)·area + d`.
    slots: Vec<usize>,
    /// For each input cell, the blocks `o·images + b` that lie in it.
    blocks: Vec<Vec<usize>>,
}

impl Gather {
    /// The index of `outputs` blocks over the `cells` cells `read` places:
    /// block `o` is `corner(o) = (channel, position)` and the members
    /// `step[d]` positions on, in [`fold`] order. `None` for a member
    /// outside the map or a block across two cells.
    fn new(
        read: &SlotMap,
        cells: usize,
        outputs: usize,
        step: &[usize],
        corner: impl Fn(usize) -> (usize, usize),
    ) -> Option<Gather> {
        let (area, images) = (step.len(), read.extent().2);
        let mut slots = vec![0; outputs * images * area];
        let mut blocks = vec![Vec::new(); cells];
        let mut home = vec![0; images];
        for o in 0..outputs {
            let (ch, first) = corner(o);
            for (d, &step) in step.iter().enumerate() {
                let mut placed = 0;
                for (b, (cell, slot)) in read.places(ch, first + step).enumerate() {
                    if d == 0 {
                        home[b] = cell;
                    } else if home[b] != cell {
                        return None;
                    }
                    slots[(o * images + b) * area + d] = slot;
                    placed += 1;
                }
                if placed != images {
                    return None;
                }
            }
            for (b, &cell) in home.iter().enumerate() {
                blocks.get_mut(cell)?.push(o * images + b);
            }
        }
        Some(Gather {
            area,
            slots,
            blocks,
        })
    }

    /// What cell `k`'s task reads: its blocks' slots, block by block.
    fn at(&self, k: usize) -> impl Iterator<Item = usize> + Clone + '_ {
        let block = move |&g: &usize| &self.slots[g * self.area..(g + 1) * self.area];
        self.blocks[k].iter().flat_map(block).copied()
    }
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
        // Same seed → same keys, for a fleet's workers and a re-provisioned
        // successor alike; a mask reused under one key lets the host subtract
        // two ciphertexts, so each launch draws from a stream of its own.
        let root = ChaChaRng::from_seed(seed).fork("enclave-reencrypt");
        let rng = root.fork(&format!("launch-{}", enclave.launch()));
        InferenceEnclave {
            enclave,
            secret,
            public,
            rng: Mutex::new(rng),
            calls: AtomicU64::new(0),
            gathers: Mutex::default(),
        }
    }

    /// The cached gather index of `key`, else `build`'s, cached — `None`
    /// (and nothing cached) when `build` refuses.
    fn gather(
        &self,
        key: GatherKey,
        build: impl FnOnce() -> Option<Gather>,
    ) -> Option<Arc<Gather>> {
        let mut gathers = self.gathers.lock();
        let gather = match gathers.iter().position(|(cached, _)| *cached == key) {
            Some(at) => gathers.remove(at).1,
            None => {
                let _prof = prof::span("ecall.gather");
                Arc::new(build()?)
            }
        };
        gathers.insert(0, (key, gather.clone()));
        let (budget, mut held) = (key.2 * key.2, 0);
        gathers.retain(|(_, gather)| {
            held += gather.slots.len();
            held <= budget
        });
        Some(gather)
    }

    /// The underlying simulated enclave.
    // hesgx-lint: allow(ecall-cost, reason = "accessor; performs no enclave computation")
    pub fn enclave(&self) -> &Enclave {
        &self.enclave
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
    /// per logical call, `body` running inside it over the first `in_bytes +
    /// staging_bytes` of the enclave heap, touched on entry.
    ///
    /// Transient boundary faults are retried up to
    /// [`MAX_RETRIES`](crate::recovery::MAX_RETRIES) times with every
    /// attempt's boundary cost summed into the returned breakdown (an aborted
    /// `EENTER` still crossed the boundary);
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
            staging_bytes,
            out_bytes,
            fork_prefix,
            pre_site,
        } = shape;
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let base = self.rng.lock().fork(&format!("{fork_prefix}-call-{call}"));
        let (result, cost) = retry_with_cost(self.hook(), self.obs(), || {
            if let Err(e) = self.consult_pre_site(pre_site) {
                return (Err(e), CostBreakdown::default());
            }
            let (res, cost) = self
                .enclave
                .ecall_fallible(name, in_bytes, out_bytes, |ctx| {
                    // The input is marshalled in and the staging laid out
                    // behind it at the heap's base: pages fault only when
                    // not resident.
                    ctx.touch(in_bytes + staging_bytes).map_err(Error::Tee)?;
                    let mut cpu_ns = 0u64;
                    let out = body(&base, &mut cpu_ns)?;
                    ctx.record_cpu_ns(cpu_ns);
                    Ok::<_, Error>(out)
                });
            match res {
                Ok(inner) => (inner, cost),
                Err(tee) => (Err(Error::Tee(tee)), cost),
            }
        });
        Ok((result?, cost))
    }

    /// The one in-enclave operator (paper §IV-D/§IV-E): the cells of `input`
    /// cross the boundary and are decrypted once, `chain` is folded over the
    /// plaintext slots in order, and only the final map is re-encrypted —
    /// one crossing however many operators the chain carries (§VI-E).
    ///
    /// Output `o` is a function of the `span × span` block of input
    /// positions at its position, folded inside the task that emits it:
    /// every [`EnclaveOp::MeanPool`] of the chain multiplies `span` by the
    /// model's pooling window, every other op is cell-wise; an
    /// [`EnclaveOp::LogitReduce`], alone over a [`Layout::FcOperand`] map,
    /// adds up each class's row of partial sums. A [`Layout::Pixel`] input
    /// is decrypted cell by cell inside the task that emits the outputs it
    /// feeds. A packed input (`Coeff`, `FcOperand`) makes one pass per
    /// cell: one task decrypts it — scaling and rounding only the
    /// coefficients a gather index, built from its [`SlotMap`] on the first
    /// crossing of its geometry and kept, says its blocks read — folds every block that lies in
    /// it, image by image, and leaves the outputs in an `outputs × images`
    /// buffer the emitting tasks scatter from. The enclave is the
    /// repacker: it emits `emit`, the layout the next layer reads — one
    /// cell per output ([`Layout::Pixel`]) or `P = ⌊slots / batch⌋` outputs
    /// a cell, each once ([`Layout::FcOperand`] of one class), every cell
    /// through [`SlotMap::encode`]; a reduction emits its logits that way
    /// whatever `emit` says. The boundary is priced from the cells that
    /// cross: the input's in, one fresh ciphertext per emitted cell out,
    /// and a packed crossing's folded values staged.
    ///
    /// [`EcallBatching::Batched`] is one ECALL for the whole map, per-cell
    /// work scheduled on `pool` inside the enclave body.
    /// [`EcallBatching::PerPixel`] is the same call once per output cell on
    /// an inline pool — the unamortized row of Table V, the `EncryptSGX
    /// (single)` group of Fig. 8 — returning the summed cost.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for a map whose cells do not hold what its layout
    /// claims (a cell of another CRT part count among them), a packed
    /// layout either side of a per-pixel crossing (its cells do not split
    /// by output), sides the chain's pooling does not tile, a packed block
    /// across two cells, an `emit` that does not hold the outputs, and a
    /// `LogitReduce` not alone over an `FcOperand` map — all before the
    /// boundary; propagates HE/TEE failures.
    ///
    /// [`SlotMap::encode`]: hesgx_henn::image::SlotMap::encode
    #[allow(clippy::too_many_arguments)]
    pub fn apply(
        &self,
        chain: &[EnclaveOp],
        sys: &CrtPlainSystem,
        model: &QuantizedCnn,
        input: &EncryptedMap,
        batching: EcallBatching,
        emit: Layout,
        pool: &ParExec,
    ) -> Result<(EncryptedMap, CostBreakdown)> {
        let book = |op: &EnclaveOp| match op {
            EnclaveOp::Activation(_) => "_activation",
            EnclaveOp::MeanPool => "_pool",
            EnclaveOp::Divide => "_divide",
            EnclaveOp::Refresh => "_DecreaseNoise",
            EnclaveOp::LogitReduce => "_LogitReduce",
        };
        let mut name = chain
            .iter()
            .map(book)
            .fold("ecall".to_owned(), |name, op| name + op);
        if batching == EcallBatching::PerPixel && name == "ecall_activation" {
            name += "_single";
        }
        let batched = batching == EcallBatching::Batched;
        let refreshes = chain.contains(&EnclaveOp::Refresh);
        let slots = sys.slot_count();
        let (c, cells_h, cells_w) = input.shape();
        let refuse = || {
            let layout = input.layout();
            Error::Config(format!(
                "a {c}×{cells_h}×{cells_w} {layout:?} map cannot cross {batching:?} through \
                 {chain:?} into {emit:?}"
            ))
        };
        let pools = chain.iter().filter(|op| **op == EnclaveOp::MeanPool);
        let span = u32::try_from(pools.count())
            .ok()
            .and_then(|pools| model.window.checked_pow(pools))
            .filter(|&span| span > 0)
            .ok_or_else(refuse)?;
        // Where the input's values sit; the feature map's sides; whether it
        // is packed (decrypted whole, gathered through its slot map). A
        // reduction reads each class's partial sums as one row to add up.
        let read = input.layout().slot_map(input.shape(), slots);
        let read = read.map_err(|_| refuse())?;
        let (channels, _, images) = read.extent();
        let reduce = chain.contains(&EnclaveOp::LogitReduce);
        let (h, w, packed) = match input.layout() {
            Layout::Pixel if !reduce => (cells_h, cells_w, false),
            Layout::Coeff { side, .. } if batched && !reduce => (side, side, true),
            Layout::FcOperand { inputs, .. } if batched && chain.len() == 1 && reduce => {
                (1, inputs, true)
            }
            _ => return Err(refuse()),
        };
        // The block of input positions behind one output.
        let (sy, sx) = if reduce { (1, w) } else { (span, span) };
        if h % sy != 0 || w % sx != 0 {
            return Err(refuse());
        }
        let area = sy.checked_mul(sx).ok_or_else(refuse)?;
        let (oh, ow) = (h / sy, w / sx);
        let outputs = channels * oh * ow;
        // The layout the cells leave in.
        let emit = match emit {
            _ if reduce => Layout::FcOperand {
                classes: channels,
                batch: images,
                inputs: 1,
            },
            Layout::Pixel => emit,
            Layout::FcOperand {
                classes: 1,
                batch,
                inputs,
            } if batched && inputs == outputs && (!packed || images == batch) => emit,
            _ => return Err(refuse()),
        };
        // Outputs an emitted cell holds, and one emitted cell's slot map: cell
        // `g` of an operand map holds values `g·P ..` where the one-cell map
        // of `P` inputs places `0 ..`.
        let (per, cell) = match emit {
            Layout::FcOperand { batch, .. } => {
                let (inputs, _) = emit.fc_geometry(slots).ok_or_else(refuse)?;
                let cell = Layout::FcOperand {
                    classes: 1,
                    batch,
                    inputs,
                };
                (inputs, cell)
            }
            _ => (1, emit),
        };
        let write = cell.slot_map((1, 1, 1), slots).map_err(|_| refuse())?;
        // The block behind output `o`: its channel and first position, and
        // member `d` `step[d]` positions on.
        let corner = |o: usize| (o / (oh * ow), o / ow % oh * sy * w + o % ow * sx);
        let step: Vec<usize> = (0..area).map(|d| d / sx * w + d % sx).collect();
        sys.check_parts(input.cells()).map_err(|_| refuse())?;
        // The gather index: built on a crossing's first request, its build
        // charged to that request alone.
        let started = WallTimer::start();
        let gather = match packed {
            true => self.gather((input.layout(), input.shape(), slots, (sy, sx)), || {
                Gather::new(&read, input.cells().len(), outputs, &step, corner)
            }),
            false => Some(Arc::default()),
        };
        let gather = gather.ok_or_else(refuse)?;
        let index_ns = started.elapsed_ns();
        // The crossing cells: a packed map whole, else block by block.
        let crossing: Vec<&CrtCiphertext> = match packed {
            true => input.cells().iter().collect(),
            false => (0..outputs * area)
                .map(|i| {
                    let (ch, first) = corner(i / area);
                    let position = first + step[i % area];
                    input.cell(ch, position / w, position % w)
                })
                .collect(),
        };
        let inline = ParExec::serial();
        let (per_call, pool) = match batching {
            EcallBatching::Batched => (outputs.div_ceil(per), pool),
            EcallBatching::PerPixel => (1, &inline),
        };
        let encoding = input.layout().encoding();
        // Emitted cell `j` of the outputs from `folded[0]` on (`[output][image]`,
        // `images` a row): the scatter through its slot map and the
        // encryption from its own fork.
        let emit_cell = |base: &ChaChaRng, j: usize, folded: &[i64]| -> Result<CrtCiphertext> {
            let _prof = prof::span("ecall.emit");
            let mut rng = base.fork(&format!("cell-{j}"));
            let value = |_, p: usize, b| folded.get(p * images + b).copied().unwrap_or(0);
            let values = write.encode(images.min(write.extent().2), value)?;
            Ok(sys.encrypt(&values[0], emit.encoding(), &self.secret, &mut rng)?)
        };
        let mut cells = Vec::with_capacity(outputs.div_ceil(per));
        let mut total = CostBreakdown::default();
        let per_entry = if packed {
            crossing.len()
        } else {
            per_call * per * area
        };
        for entering in crossing.chunks(per_entry.max(1)) {
            let (out, cost) = self.batched_ecall(
                EcallShape {
                    name: &name,
                    in_bytes: entering.iter().map(|c| c.byte_len()).sum(),
                    staging_bytes: usize::from(packed) * outputs * images * 8,
                    out_bytes: per_call * sys.fresh_ciphertext_byte_len(),
                    fork_prefix: "par",
                    pre_site: refreshes.then_some(FaultSite::NoiseRefresh),
                },
                |base, cpu_ns| {
                    if !packed {
                        // Each task decrypts the blocks behind its outputs,
                        // folds them image by image, and emits.
                        return timed_tasks(pool, per_call, cpu_ns, |j| {
                            let first = j * per;
                            let folded = {
                                let _prof = prof::span("ecall.fold");
                                let mut folded = Vec::with_capacity(per * images);
                                let mut block = vec![0; area];
                                for o in first..outputs.min(first + per) {
                                    let members = &entering[o * area..(o + 1) * area];
                                    let slots = members
                                        .iter()
                                        .map(|ct| Ok(sys.decrypt(ct, encoding, &self.secret)?))
                                        .collect::<Result<Vec<_>>>()?;
                                    folded.extend((0..images).map(|b| {
                                        for (v, slots) in block.iter_mut().zip(&slots) {
                                            *v = slots[b] as i64;
                                        }
                                        fold(chain, model, &mut block)
                                    }));
                                }
                                folded
                            };
                            emit_cell(base, j, &folded)
                        });
                    }
                    // One task a crossing cell: decrypt it where its blocks
                    // read, and fold each block.
                    *cpu_ns += index_ns;
                    let blocks = timed_tasks(pool, entering.len(), cpu_ns, |k| {
                        let _prof = prof::span("ecall.fold");
                        let at = gather.at(k);
                        let values = sys.decrypt_at(entering[k], encoding, at, &self.secret)?;
                        let mut values: Vec<i64> = values.into_iter().map(|v| v as i64).collect();
                        let blocks = values.chunks_exact_mut(area);
                        Ok(blocks
                            .map(|block| fold(chain, model, block))
                            .collect::<Vec<_>>())
                    })?;
                    let mut folded = vec![0; outputs * images];
                    for (cell, outs) in gather.blocks.iter().zip(blocks) {
                        for (&g, v) in cell.iter().zip(outs) {
                            folded[g] = v;
                        }
                    }
                    timed_tasks(pool, per_call, cpu_ns, |j| {
                        emit_cell(base, j, &folded[j * per * images..])
                    })
                },
            )?;
            cells.extend(out);
            total = total.saturating_add(cost);
        }
        let out = match emit {
            Layout::Pixel => EncryptedMap::new(c, oh, ow, cells),
            _ => EncryptedMap::new(cells.len(), 1, 1, cells).with_layout(emit),
        };
        Ok((out, total))
    }

    /// Transciphered ingress (`ecall_Transcipher`, DESIGN.md §17): the
    /// client's ChaCha20-sealed pixel payload enters the enclave, is
    /// authenticated and opened *inside*, and the quantized pixels are
    /// re-encrypted under FV in [`InferencePlan::ingress_layout`] — cell for
    /// cell what [`Layout::pack`] has the client encrypt on the FV-ciphertext
    /// path.
    ///
    /// The upload is kilobytes where an FV-ciphertext upload is megabytes;
    /// the price is the in-enclave FV encryption, charged honestly: EPC
    /// touches for the payload, measured CPU time for the open and every
    /// per-cell FV encryption (summed across workers), and out-marshalling
    /// of one [`CrtPlainSystem::fresh_ciphertext_byte_len`] per cell.
    ///
    /// [`FaultSite::Transcipher`] is consulted before every attempt (the
    /// upload can be dropped in transit). The skeleton forks the RNG base
    /// once per logical call and every cell encrypts from its own `cell-{i}`
    /// fork, so retries are bit-invisible and the bits pool-size independent.
    /// Returns the [`EncryptedMap::ingress`] map of the packed cells, in the
    /// layout of the authenticated batch, and the boundary cost.
    ///
    /// # Errors
    ///
    /// Fails without retry ([`Error::Config`] — a forged upload must not burn
    /// the retry budget) when the payload does not authenticate, is
    /// malformed, carries images of another size than the model's or more
    /// of them than SIMD slots; propagates HE/TEE failures.
    pub fn transcipher_ingress(
        &self,
        sys: &CrtPlainSystem,
        model: &QuantizedCnn,
        plan: &InferencePlan,
        key: &IngressKey,
        payload: &[u8],
        pool: &ParExec,
    ) -> Result<(EncryptedMap, CostBreakdown)> {
        let (side, slots, in_bytes) = (model.in_side, sys.slot_count(), payload.len());
        // The clear framing header sizes the out-marshalling before the tag
        // is checked; a lying header can only mis-price a request that then
        // fails authentication, never desynchronize unpacking (the shape is
        // re-read from the authenticated header inside the ECALL body).
        let (images, _) = transcipher::peek_shape(payload)
            .map_err(|e| Error::Config(format!("transcipher ingress: {e}")))?;
        let priced = plan.ingress_layout(model, images, slots);
        let (map, cost) = self.batched_ecall(
            EcallShape {
                name: "ecall_Transcipher",
                in_bytes,
                staging_bytes: 0,
                out_bytes: sys
                    .fresh_ciphertext_byte_len()
                    .saturating_mul(priced.ingress_cells(side, slots)),
                fork_prefix: "transcipher",
                pre_site: Some(FaultSite::Transcipher),
            },
            |base, cpu_ns| {
                let open_timer = WallTimer::start();
                let images = transcipher::open_images(key, payload)
                    .map_err(|e| Error::Config(format!("transcipher ingress: {e}")))?;
                // (The framing gives every image of a payload one length.)
                let (batch, pixels) = (images.len(), images.first().map_or(0, Vec::len));
                if batch > slots || pixels != side * side {
                    return Err(Error::Config(format!(
                        "transcipher payload carries {batch} images of {pixels} pixels, the model \
                         expects {side}×{side} and the {slots} SIMD slots hold one image each"
                    )));
                }
                let layout = plan.ingress_layout(model, batch, slots);
                let packed = layout.pack(&images, side, slots)?;
                *cpu_ns = open_timer.elapsed_ns();
                let cells = timed_tasks(pool, packed.len(), cpu_ns, |cell| {
                    let mut rng = base.fork(&format!("cell-{cell}"));
                    Ok(sys.encrypt(&packed[cell], layout.encoding(), &self.secret, &mut rng)?)
                })?;
                Ok(EncryptedMap::ingress(layout, side, slots, cells))
            },
        )?;
        self.obs().incr(hesgx_obs::counters::TRANSCIPHERS, 1);
        self.obs()
            .incr(hesgx_obs::counters::INGRESS_UPLOAD_BYTES, in_bytes as u64);
        Ok((map, cost))
    }

    /// Measures the minimum invariant-noise budget (bits) across `cts`
    /// inside the enclave — the noise-telemetry source (DESIGN.md §13).
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
    use hesgx_henn::crt::Encoding;
    use hesgx_nn::layers::ActivationKind;
    use hesgx_nn::quantize::{QuantPipeline, QuantizedCnn};
    use hesgx_obs::{counters, Recorder};
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
        setup_with(None, Recorder::disabled())
    }

    /// The same seeded enclave every time, optionally with a fault hook and
    /// an enabled recorder.
    fn setup_with(
        hook: Option<Arc<FaultInjector>>,
        recorder: Recorder,
    ) -> (InferenceEnclave, CrtPlainSystem, ChaChaRng) {
        let mut builder = EnclaveBuilder::new("test-enclave")
            .add_code(b"v1")
            .recorder(recorder);
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

    const KINDS: [ActivationKind; 5] = [
        ActivationKind::Sigmoid,
        ActivationKind::Relu,
        ActivationKind::Tanh,
        ActivationKind::LeakyRelu,
        ActivationKind::Square,
    ];

    /// Every chain the one entry point is swept over, with the
    /// `ecall.<name>` books its batched and per-pixel calls land in: each op
    /// alone, the activation + pooling chain the planner compiles for every
    /// activation kind, and — the general case of the block fold — pooling
    /// twice with a cell-wise op in between.
    fn chains() -> Vec<(Vec<EnclaveOp>, &'static str, &'static str)> {
        let mut chains = vec![
            (vec![EnclaveOp::MeanPool], "ecall_pool", "ecall_pool"),
            (vec![EnclaveOp::Divide], "ecall_divide", "ecall_divide"),
            (
                vec![EnclaveOp::Refresh],
                "ecall_DecreaseNoise",
                "ecall_DecreaseNoise",
            ),
            (
                vec![EnclaveOp::MeanPool, EnclaveOp::Divide, EnclaveOp::MeanPool],
                "ecall_pool_divide_pool",
                "ecall_pool_divide_pool",
            ),
        ];
        for kind in KINDS {
            let activation = EnclaveOp::Activation(kind);
            chains.push((
                vec![activation],
                "ecall_activation",
                "ecall_activation_single",
            ));
            chains.push((
                vec![activation, EnclaveOp::MeanPool],
                "ecall_activation_pool",
                "ecall_activation_pool",
            ));
        }
        chains
    }

    /// The table's input: a 2 × 4 × 4 map (two channels, so the pooling
    /// windows must respect channel boundaries) carrying two images in slots
    /// 0 and 1; every other slot holds zero.
    const SHAPE: (usize, usize, usize) = (2, 4, 4);

    fn table_images() -> Vec<Vec<i64>> {
        (0..2)
            .map(|b| (0..32).map(|i| i * 9 - 70 + b * 13).collect())
            .collect()
    }

    /// The table map in `layout`: one cell per position, or one cell per
    /// (channel, image) encoded through the layout's slot map, with nonzero
    /// garbage in every coefficient the slot map does not place — what a
    /// packed crossing must never read.
    fn table_input(
        ie: &InferenceEnclave,
        sys: &CrtPlainSystem,
        rng: &ChaChaRng,
        layout: Layout,
    ) -> EncryptedMap {
        let images = table_images();
        if layout != Layout::Pixel {
            let rule = layout.slot_map((SHAPE.0, 2, 1), 256).unwrap();
            let values = rule.encode(2, |ch, position, b| images[b][ch * 16 + position]);
            let mut values = values.unwrap();
            let mut placed = vec![[false; 256]; values.len()];
            for (ch, position) in (0..SHAPE.0).flat_map(|ch| (0..16).map(move |p| (ch, p))) {
                for (cell, slot) in rule.places(ch, position) {
                    placed[cell][slot] = true;
                }
            }
            for (cell, slot) in (0..values.len()).flat_map(|c| (0..256).map(move |s| (c, s))) {
                if !placed[cell][slot] {
                    values[cell][slot] = 1000 + (cell * 7919 + slot * 104_729) as i64 % 5000;
                }
            }
            let cells = (values.iter().enumerate())
                .map(|(i, values)| {
                    let mut rng = rng.fork(&format!("cell-{i}"));
                    let encoding = layout.encoding();
                    sys.encrypt(values, encoding, &ie.public, &mut rng).unwrap()
                })
                .collect();
            return EncryptedMap::new(SHAPE.0, 2, 1, cells).with_layout(layout);
        }
        let mut cells = Vec::new();
        for ch in 0..2 {
            let channel: Vec<Vec<i64>> = images
                .iter()
                .map(|img| img[ch * 16..(ch + 1) * 16].to_vec())
                .collect();
            let rng = rng.fork(&format!("channel-{ch}"));
            let map = EncryptedMap::encrypt_images(
                sys,
                &channel,
                4,
                Layout::Pixel,
                &ie.public,
                &rng,
                &ParExec::serial(),
            )
            .unwrap();
            cells.extend(map.into_cells());
        }
        EncryptedMap::new(SHAPE.0, SHAPE.1, SHAPE.2, cells)
    }

    /// What a chain's `outputs` values per image leave the enclave as: one
    /// cell each, or packed for the FC layer, each once — a `Pixel` map
    /// (which does not say how many images it carries) for fifty images,
    /// five slots each (`⌊256/50⌋`), so the table's 32, 8 and 2 outputs
    /// fill seven cells (the last one short), two (the last one short) and
    /// one; a `Coeff` map for its two images, 128 slots each, one cell.
    fn emits(outputs: usize, input: Layout) -> [Layout; 2] {
        let batch = if input == Layout::Pixel { 50 } else { 2 };
        let operand = Layout::FcOperand {
            classes: 1,
            batch,
            inputs: outputs,
        };
        [Layout::Pixel, operand]
    }

    /// The slot vector of every cell `emit` lays `expect` (`[image][output]`)
    /// out in, through its slot map. `idle` is what the images past the
    /// table's two hold (a `Pixel` input's other slots).
    fn emitted(expect: &[Vec<i64>], idle: &[i64], emit: Layout) -> Vec<Vec<i64>> {
        let outputs = idle.len();
        let value = |o: usize, image: usize| expect.get(image).map_or(idle[o], |img| img[o]);
        let Some((_, cells)) = emit.fc_geometry(256) else {
            return (0..outputs)
                .map(|o| (0..256).map(|s| value(o, s)).collect())
                .collect();
        };
        let rule = emit.slot_map((cells, 1, 1), 256).unwrap();
        let cells = rule.encode(rule.extent().2, |_, o, image| value(o, image));
        cells.unwrap()
    }

    /// The layouts of the table map: per pixel, and one cell an image with
    /// rows back to back or seven coefficients apart (three garbage
    /// coefficients after each row).
    const LAYOUTS: [Layout; 3] = [
        Layout::Pixel,
        Layout::Coeff {
            batch: 2,
            side: 4,
            pitch: 4,
        },
        Layout::Coeff {
            batch: 2,
            side: 4,
            pitch: 7,
        },
    ];

    /// The plaintext function `chain` computes over one image of the table
    /// map, one whole-map pass per op — the oracle every `apply` call is
    /// held to.
    fn reference(chain: &[EnclaveOp], model: &QuantizedCnn, image: &[i64]) -> Vec<i64> {
        let (c, mut h, mut w) = SHAPE;
        let mut image = image.to_vec();
        for &op in chain {
            image = match op {
                EnclaveOp::Activation(kind) => image
                    .iter()
                    .map(|&v| model.enclave_activation(v, kind))
                    .collect(),
                EnclaveOp::Divide => image.iter().map(|&v| model.enclave_mean(v)).collect(),
                EnclaveOp::Refresh | EnclaveOp::LogitReduce => image,
                EnclaveOp::MeanPool => {
                    let k = model.window;
                    let mut out = Vec::new();
                    for ch in 0..c {
                        for oy in 0..h / k {
                            for ox in 0..w / k {
                                let sum = (0..k * k)
                                    .map(|d| image[(ch * h + oy * k + d / k) * w + ox * k + d % k])
                                    .sum();
                                out.push(model.enclave_mean(sum));
                            }
                        }
                    }
                    (h, w) = (h / k, w / k);
                    out
                }
            };
        }
        image
    }

    /// The one entry point, over `chain × layout × emitted layout × {Batched,
    /// PerPixel} × pools`: every slot of every output cell decrypts to the
    /// plaintext function, laid out as the emitted layout says (a packed
    /// input leaves the slots beyond its batch zero, a packed output every
    /// slot outside its (input, class, image) triples) — whatever garbage
    /// a packed input holds between and after its rows — the batched
    /// ciphertext bits do not depend on the pool size, a per-pixel run pays
    /// two transitions per *final* output cell into the same `ecall.<name>`
    /// books Fig. 8's `EncryptSGX (single)` group reads, and a packed map —
    /// whose cells do not split by output cell — refuses to cross per pixel
    /// on either side.
    #[test]
    fn apply_matches_the_plaintext_function_for_every_op_batching_and_pool() {
        let model = small_model();
        let images = table_images();
        for ((chain, batched_name, per_pixel_name), layout) in chains()
            .into_iter()
            .flat_map(|chain| LAYOUTS.map(|layout| (chain.clone(), layout)))
        {
            let chain = &chain[..];
            let expect: Vec<Vec<i64>> = images
                .iter()
                .map(|img| reference(chain, &model, img))
                .collect();
            let idle = match layout {
                Layout::Pixel => reference(chain, &model, &[0; 32]),
                _ => vec![0; expect[0].len()],
            };
            let outputs = expect[0].len();
            for emit in emits(outputs, layout) {
                let want = emitted(&expect, &idle, emit);
                let mut batched_bits = None;
                for batching in [EcallBatching::Batched, EcallBatching::PerPixel] {
                    for threads in POOLS {
                        let what = format!(
                            "{chain:?} {layout:?} into {emit:?} {batching:?} {threads} threads"
                        );
                        // Fresh (deterministic) enclave per run so each starts
                        // from the same RNG state and call counter.
                        let rec = Recorder::enabled();
                        let (ie, sys, rng) = setup_with(None, rec.clone());
                        let input = table_input(&ie, &sys, &rng, layout);
                        let pool = ParExec::new(threads);
                        // The key ceremony already crossed the boundary once.
                        let crossings = |rec: &Recorder| {
                            [
                                counters::ECALLS,
                                counters::ECALL_TRANSITIONS,
                                counters::BYTES_MARSHALLED,
                            ]
                            .map(|c| rec.counter(c))
                        };
                        let before = crossings(&rec);
                        let applied = ie.apply(chain, &sys, &model, &input, batching, emit, &pool);
                        let packed = layout != Layout::Pixel || emit != Layout::Pixel;
                        if packed && batching == EcallBatching::PerPixel {
                            assert!(matches!(applied, Err(Error::Config(_))), "{what}");
                            assert_eq!(crossings(&rec), before, "{what}: refused before crossing");
                            continue;
                        }
                        let (out, cost) = applied.unwrap();
                        assert_eq!(out.layout(), emit, "{what}");
                        assert_eq!(out.cells().len(), want.len(), "{what}");
                        for (o, ct) in out.cells().iter().enumerate() {
                            let slots = sys.decrypt(ct, Encoding::Slots, &ie.secret).unwrap();
                            let want: Vec<i128> = want[o].iter().map(|&v| v.into()).collect();
                            assert_eq!(slots, want, "{what}: cell {o}");
                        }
                        let (name, calls) = match batching {
                            EcallBatching::Batched => (batched_name, 1),
                            EcallBatching::PerPixel => (per_pixel_name, outputs as u64),
                        };
                        let span = rec.span(&format!("ecall.{name}")).expect(&what);
                        assert_eq!(span.entries, calls, "{what}");
                        assert_eq!(span.cost.transition_ns, cost.transition_ns, "{what}");
                        let [ecalls, transitions, marshalled] = crossings(&rec);
                        assert_eq!(ecalls - before[0], calls, "{what}");
                        assert_eq!(transitions - before[1], 2 * calls, "{what}");
                        // The boundary is priced from the cells that cross:
                        // the whole input map in — two packed cells instead
                        // of 32 — and only the final map out, seven packed
                        // cells instead of 32.
                        let bytes = |map: &EncryptedMap| -> u64 {
                            map.cells().iter().map(|c| c.byte_len() as u64).sum()
                        };
                        assert_eq!(
                            marshalled - before[2],
                            bytes(&input) + bytes(&out),
                            "{what}"
                        );
                        if batching == EcallBatching::Batched {
                            // Ciphertext bits, not just values, are pool-size
                            // independent.
                            let bits = out.cells().to_vec();
                            assert_eq!(*batched_bits.get_or_insert(bits.clone()), bits, "{what}");
                        }
                    }
                }
            }
        }
    }

    /// The partial sums a 3-class FC layer leaves for three images: one cell
    /// a class, 85 sums an image (`⌊256/3⌋`).
    const SUMS: Layout = Layout::FcOperand {
        classes: 3,
        batch: 3,
        inputs: 85,
    };

    /// A packed crossing's gather index is built on the first request of its
    /// geometry only: a second identical request finds it cached — nothing
    /// rebuilt — and emits the bits a cold build emits at that call; a map
    /// of another geometry gets an index of its own beside it.
    #[test]
    fn a_second_identical_crossing_reuses_its_gather_index() {
        let model = small_model();
        let chain = [
            EnclaveOp::Activation(ActivationKind::Sigmoid),
            EnclaveOp::MeanPool,
        ];
        let run = |ie: &InferenceEnclave, sys: &CrtPlainSystem, input: &EncryptedMap| {
            let (batched, pool) = (EcallBatching::Batched, ParExec::new(2));
            let out = ie.apply(&chain, sys, &model, input, batched, Layout::Pixel, &pool);
            out.unwrap().0
        };
        let (warm, sys, rng) = setup();
        let input = table_input(&warm, &sys, &rng, LAYOUTS[1]);
        run(&warm, &sys, &input);
        let built = warm.gathers.lock()[0].1.clone();
        let second = run(&warm, &sys, &input);
        {
            let gathers = warm.gathers.lock();
            assert_eq!(gathers.len(), 1);
            assert!(Arc::ptr_eq(&gathers[0].1, &built), "the index was rebuilt");
        }
        let (cold, sys, rng) = setup();
        let input = table_input(&cold, &sys, &rng, LAYOUTS[1]);
        run(&cold, &sys, &input);
        cold.gathers.lock().clear();
        assert_eq!(run(&cold, &sys, &input), second);
        run(&warm, &sys, &table_input(&warm, &sys, &rng, LAYOUTS[2]));
        let gathers = warm.gathers.lock();
        assert_eq!(gathers.len(), 2);
        assert!(Arc::ptr_eq(&gathers[1].1, &built));
    }

    /// Partial sum `j` of (class, image).
    fn partial(class: usize, image: usize, j: usize) -> i64 {
        ((7 * class + 3 * image + j) % 11) as i64 - 5
    }

    /// The three cells of [`SUMS`]: every partial sum where the slot map
    /// places it, and in the one slot past `3·85` a value the reduction
    /// must not pick up.
    fn partial_sums(ie: &InferenceEnclave, sys: &CrtPlainSystem, rng: &ChaChaRng) -> EncryptedMap {
        let rule = SUMS.slot_map((3, 1, 1), 256).unwrap();
        let mut cells = rule.encode(3, |class, j, image| partial(class, image, j));
        let cells = (cells.as_mut().unwrap().iter_mut().enumerate())
            .map(|(k, slots)| {
                slots[255] = 7;
                let mut rng = rng.fork(&format!("partial-sums-{k}"));
                sys.encrypt(slots, Encoding::Slots, &ie.public, &mut rng)
                    .unwrap()
            })
            .collect();
        EncryptedMap::new(3, 1, 1, cells).with_layout(SUMS)
    }

    /// The closing stage: one `ecall_LogitReduce` decrypts the FC layer's
    /// cells, one a class, adds up the partial sums of every (class, image)
    /// and re-encrypts one cell holding each logit once, where the slot map
    /// of one input a class puts it — every other slot zero, the bits
    /// pool-independent — which is what `decrypt_all` hands the client row
    /// by row: the plaintext logits. Anything else it is asked to reduce is
    /// refused before the boundary.
    #[test]
    fn logit_reduce_sums_the_partials_into_one_ciphertext() {
        let model = small_model();
        let reduce = [EnclaveOp::LogitReduce];
        let logit = |class, image| (0..85).map(|j| partial(class, image, j)).sum::<i64>();
        let mut bits = None;
        for threads in POOLS {
            let rec = Recorder::enabled();
            let (ie, sys, rng) = setup_with(None, rec.clone());
            let input = partial_sums(&ie, &sys, &rng);
            let pool = ParExec::new(threads);
            let batched = EcallBatching::Batched;
            let (out, _) = ie
                .apply(&reduce, &sys, &model, &input, batched, Layout::Pixel, &pool)
                .unwrap();
            let reduced = Layout::FcOperand {
                classes: 3,
                batch: 3,
                inputs: 1,
            };
            assert_eq!((out.layout(), out.shape()), (reduced, (1, 1, 1)));
            let rule = reduced.slot_map((1, 1, 1), 256).unwrap();
            let mut want = vec![0i128; 256];
            for (class, image) in (0..9).map(|i| (i % 3, i / 3)) {
                let (_, slot) = rule.place(class, 0, image).unwrap();
                assert_eq!(slot, image * 85 + class);
                want[slot] = logit(class, image).into();
            }
            assert_eq!(
                sys.decrypt(&out.cells()[0], Encoding::Slots, &ie.secret)
                    .unwrap(),
                want
            );
            let rows = out.decrypt_all(&sys, &ie.secret, 3, &pool).unwrap();
            let plain: Vec<Vec<i128>> = (0..3)
                .map(|image| (0..3).map(|class| logit(class, image).into()).collect())
                .collect();
            assert_eq!(rows, plain);
            assert_eq!(rec.span("ecall.ecall_LogitReduce").unwrap().entries, 1);
            let cells = out.into_cells();
            assert_eq!(
                *bits.get_or_insert(cells.clone()),
                cells,
                "{threads} threads"
            );

            let ecalls = rec.counter(counters::ECALLS);
            let refused = |chain: &[EnclaveOp], map: &EncryptedMap, batching| {
                let applied = ie.apply(chain, &sys, &model, map, batching, Layout::Pixel, &pool);
                assert!(
                    matches!(applied, Err(Error::Config(_))),
                    "{chain:?} over {:?}",
                    map.layout()
                );
            };
            refused(&reduce, &input, EcallBatching::PerPixel);
            refused(
                &[EnclaveOp::LogitReduce, EnclaveOp::Refresh],
                &input,
                batched,
            );
            refused(&[EnclaveOp::Refresh], &input, batched);
            for layout in LAYOUTS {
                refused(&reduce, &table_input(&ie, &sys, &rng, layout), batched);
            }
            assert_eq!(
                rec.counter(counters::ECALLS),
                ecalls,
                "refused before crossing"
            );
        }
    }

    /// A partial-sum map a cell short or a cell over, or claiming more sums
    /// than its cells hold, is refused before the boundary — no ECALL, so
    /// no cell is decrypted.
    #[test]
    fn a_partial_sum_map_with_a_missing_or_extra_cell_is_refused() {
        let rec = Recorder::enabled();
        let (ie, sys, rng) = setup_with(None, rec.clone());
        let input = partial_sums(&ie, &sys, &rng);
        let cells = input.cells();
        let short = EncryptedMap::new(2, 1, 1, cells[..2].to_vec());
        let over = EncryptedMap::new(4, 1, 1, [cells, &cells[..1]].concat());
        let wider = Layout::FcOperand {
            classes: 3,
            batch: 3,
            inputs: 86,
        };
        let ecalls = rec.counter(counters::ECALLS);
        for map in [
            short.with_layout(SUMS),
            over.with_layout(SUMS),
            input.clone().with_layout(wider),
        ] {
            let applied = ie.apply(
                &[EnclaveOp::LogitReduce],
                &sys,
                &small_model(),
                &map,
                EcallBatching::Batched,
                Layout::Pixel,
                &ParExec::new(2),
            );
            assert!(matches!(applied, Err(Error::Config(_))), "{map:?}");
        }
        assert_eq!(rec.counter(counters::ECALLS), ecalls);
    }

    /// A map one of whose cells has fewer CRT parts than the system — as
    /// the untrusted host could hand over — is refused before the boundary,
    /// packed or per pixel, chain or reduction: no ECALL, so no cell is
    /// decrypted.
    #[test]
    fn a_cell_of_another_part_count_is_refused_before_the_boundary() {
        let rec = Recorder::enabled();
        let (ie, sys, rng) = setup_with(None, rec.clone());
        let one = CrtPlainSystem::new(256, &sys.moduli()[..1]).unwrap();
        let with_short = |map: EncryptedMap| {
            let (layout, (c, h, w)) = (map.layout(), map.shape());
            let mut short = rng.fork("short");
            let short = one.encrypt(&[1, 2], layout.encoding(), &ie.public[..1], &mut short);
            let mut cells = map.into_cells();
            *cells.last_mut().unwrap() = short.unwrap();
            EncryptedMap::new(c, h, w, cells).with_layout(layout)
        };
        let chain = [
            EnclaveOp::Activation(ActivationKind::Sigmoid),
            EnclaveOp::MeanPool,
        ];
        let mut cases: Vec<_> = LAYOUTS
            .map(|layout| (&chain[..], with_short(table_input(&ie, &sys, &rng, layout))))
            .into();
        cases.push((
            &[EnclaveOp::LogitReduce],
            with_short(partial_sums(&ie, &sys, &rng)),
        ));
        let ecalls = rec.counter(counters::ECALLS);
        for (chain, map) in cases {
            for batching in [EcallBatching::Batched, EcallBatching::PerPixel] {
                let pool = ParExec::new(2);
                let applied = ie.apply(
                    chain,
                    &sys,
                    &small_model(),
                    &map,
                    batching,
                    Layout::Pixel,
                    &pool,
                );
                assert!(
                    matches!(applied, Err(Error::Config(_))),
                    "{:?}",
                    map.layout()
                );
            }
        }
        assert_eq!(rec.counter(counters::ECALLS), ecalls);
    }

    /// §VI-E: per-pixel crossings pay the boundary once per output cell, a
    /// batched call once per map — for the activation (Fig. 8), the refresh
    /// (Table V) and a fused chain alike, whose per-pixel ECALL carries the
    /// whole block of inputs behind one *final* output cell — and both
    /// compute the same values.
    #[test]
    fn batched_ecall_cheaper_than_per_cell() {
        let model = small_model();
        for (op, ..) in chains() {
            let (ie, sys, rng) = setup();
            let input = table_input(&ie, &sys, &rng, Layout::Pixel);
            let serial = ParExec::serial();
            let run = |batching| {
                ie.apply(&op, &sys, &model, &input, batching, Layout::Pixel, &serial)
                    .unwrap()
            };
            let (batched_out, batched) = run(EcallBatching::Batched);
            let (single_out, single) = run(EcallBatching::PerPixel);
            assert_eq!(
                single.transition_ns,
                batched.transition_ns * single_out.cells().len() as u64,
                "{op:?}: one enter + exit per output cell"
            );
            let decrypt =
                |map: &EncryptedMap| map.decrypt_all(&sys, &ie.secret, 2, &serial).unwrap();
            assert_eq!(decrypt(&single_out), decrypt(&batched_out), "{op:?}");
        }
    }

    #[test]
    fn refresh_preserves_value_and_resets_noise() {
        let (ie, sys, mut rng) = setup();
        let keys_secret = &ie.secret;
        let ct = sys
            .encrypt(&[1234, -99], Encoding::Slots, &ie.public, &mut rng)
            .unwrap();
        // Square to consume budget and grow the ciphertext.
        let sq = sys.square(&ct).unwrap();
        assert_eq!(sq.size(), 3);
        let before = sys.noise_budget(&sq, keys_secret).unwrap();
        let (fresh, _) = ie
            .apply(
                &[EnclaveOp::Refresh],
                &sys,
                &small_model(),
                &EncryptedMap::new(1, 1, 1, vec![sq]),
                EcallBatching::PerPixel,
                Layout::Pixel,
                &ParExec::serial(),
            )
            .unwrap();
        let fresh = &fresh.cells()[0];
        assert_eq!(fresh.size(), 2, "refresh shrinks the ciphertext");
        let after = sys.noise_budget(fresh, keys_secret).unwrap();
        assert!(
            after > before,
            "refresh must reset noise: {before} -> {after}"
        );
        let dec = sys.decrypt(fresh, Encoding::Slots, keys_secret).unwrap();
        assert_eq!(dec[0], 1234 * 1234);
        assert_eq!(dec[1], 99 * 99);
    }

    #[test]
    fn sequential_retry_is_bit_invisible_in_the_ciphertexts() {
        // Regression: a transform once locked (and advanced) the shared RNG
        // stream *inside* the retry closure, so a retried attempt
        // re-encrypted with different randomness than a fault-free run. The
        // core forks the stream once per logical call, outside the retry
        // loop, and each cell forks that; checked for every chain at every
        // pool size, batched — into either emitted layout — and (inline) one
        // cell per call, and for the closing reduction over its one cell.
        let model = small_model();
        let reduce = (vec![EnclaveOp::LogitReduce], "", "");
        for (op, ..) in chains().into_iter().chain([reduce]) {
            let run = |hook: Option<Arc<FaultInjector>>, layout, batching, operand, threads| {
                let (ie, sys, rng) = setup_with(hook, Recorder::disabled());
                let input = match layout {
                    Layout::FcOperand { .. } => partial_sums(&ie, &sys, &rng),
                    _ => table_input(&ie, &sys, &rng, layout),
                };
                let outputs = reference(&op, &model, &[0; 32]).len();
                let emit = emits(outputs, layout)[usize::from(operand)];
                let pool = ParExec::new(threads);
                let (out, _) = ie
                    .apply(&op, &sys, &model, &input, batching, emit, &pool)
                    .unwrap();
                out.into_cells()
            };
            // A packed map crosses batched only, either way.
            let batched = EcallBatching::Batched;
            let mut cases = vec![
                (LAYOUTS[0], batched, false, &POOLS[..]),
                (LAYOUTS[1], batched, false, &POOLS[..]),
                (LAYOUTS[0], batched, true, &POOLS[..]),
                (LAYOUTS[1], batched, true, &POOLS[..]),
                (LAYOUTS[0], EcallBatching::PerPixel, false, &POOLS[..1]),
            ];
            if op == [EnclaveOp::LogitReduce] {
                cases = vec![(SUMS, batched, false, &POOLS[..])];
            }
            for (layout, batching, operand, pools) in cases {
                let clean = run(None, layout, batching, operand, 1);
                for &threads in pools {
                    // The result of the first crossing is lost on the way
                    // out; a per-pixel run also loses its second cell's
                    // (the shortest chain output has two).
                    let injector = Arc::new(
                        FaultPlan::new(5)
                            .script(FaultSite::EcallExit, 0, FaultKind::Transient)
                            .script(FaultSite::EcallExit, 2, FaultKind::Transient)
                            .build(),
                    );
                    let faulted = run(Some(injector.clone()), layout, batching, operand, threads);
                    let delivered = match batching {
                        EcallBatching::Batched => 1,
                        EcallBatching::PerPixel => 2,
                    };
                    assert_eq!(injector.report().retries(), delivered, "{op:?}");
                    assert_eq!(
                        clean, faulted,
                        "{op:?} {layout:?} {batching:?} operand {operand} {threads} threads: \
                         ciphertexts changed by retry"
                    );
                }
            }
        }
    }

    /// The plans of `small_model` that read each packed ingress layout, and
    /// its cells for two images: the hybrid plan's one cell an image, the
    /// pure-HE plan's orbit (9 offsets × 4 window members).
    fn ingress_plans() -> [(InferencePlan, Layout, usize); 2] {
        let compile = |placement| crate::planner::plan_for(ActivationKind::Sigmoid, placement);
        let (batch, side, window) = (2, 3, 2);
        [
            (
                compile(crate::planner::Placement::Hybrid),
                Layout::Coeff {
                    batch,
                    side: 8,
                    pitch: 8,
                },
                2,
            ),
            (
                compile(crate::planner::Placement::PureHe),
                Layout::Orbit {
                    batch,
                    side,
                    window,
                },
                36,
            ),
        ]
    }

    #[test]
    fn transcipher_ingress_recovers_pixels_and_retries_are_bit_invisible() {
        let model = small_model();
        let images: Vec<Vec<i64>> = (0..2)
            .map(|b| (0..64).map(|p| (p * 3 + b) as i64 - 7).collect())
            .collect();
        let key = IngressKey::derive(b"salt", b"ikm", b"test-ingress");
        let payload = transcipher::seal_images(&key, &[9u8; 12], &images).unwrap();
        for (plan, layout, want) in ingress_plans() {
            let run = |hook: Option<Arc<FaultInjector>>, threads: usize| {
                let rec = Recorder::enabled();
                let (ie, sys, _) = setup_with(hook.clone(), rec.clone());
                let pool = ParExec::new(threads);
                let marshalled = rec.counter(counters::BYTES_MARSHALLED);
                let (map, cost) = ie
                    .transcipher_ingress(&sys, &model, &plan, &key, &payload, &pool)
                    .unwrap();
                assert_eq!(map.layout(), layout);
                let cells = map.cells().to_vec();
                assert_eq!(cells.len(), want, "{layout:?}");
                assert!(cost.total_ns() > 0);
                // The out-marshalling was priced for exactly these cells.
                if hook.is_none() {
                    let out: usize = cells.iter().map(|ct| ct.byte_len()).sum();
                    assert_eq!(
                        rec.counter(counters::BYTES_MARSHALLED) - marshalled,
                        (payload.len() + out) as u64
                    );
                }
                // The re-encrypted cells decrypt to exactly the slot values
                // the client would have encrypted, the rest of a cell zero.
                let packed = layout.pack(&images, 8, 256).unwrap();
                for (i, ct) in cells.iter().enumerate() {
                    assert_eq!(ct.byte_len(), sys.fresh_ciphertext_byte_len());
                    let mut want = packed[i].clone();
                    want.resize(256, 0);
                    let slots = sys.decrypt(ct, layout.encoding(), &ie.secret).unwrap();
                    let want: Vec<i128> = want.iter().map(|&v| v.into()).collect();
                    assert_eq!(slots, want, "{layout:?} cell {i}");
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
    }

    #[test]
    fn transcipher_ingress_rejects_forged_payloads_without_retrying() {
        let (ie, sys, _) = setup();
        let model = small_model();
        let key = IngressKey::derive(b"salt", b"ikm", b"test-ingress");
        let pool = ParExec::new(1);
        for (plan, layout, _) in ingress_plans() {
            let ingress =
                |payload: &[u8]| ie.transcipher_ingress(&sys, &model, &plan, &key, payload, &pool);
            let mut payload = transcipher::seal_images(&key, &[1u8; 12], &[vec![1; 64]]).unwrap();
            let mid = payload.len() / 2;
            payload[mid] ^= 0x40;
            let err = ingress(&payload).unwrap_err();
            assert!(
                matches!(err, Error::Config(_)),
                "auth failure must be fatal, not transient: {err}"
            );
            // An authentic payload of the wrong geometry is refused inside
            // the body, before any slot is gathered from it.
            let payload = transcipher::seal_images(&key, &[2u8; 12], &[vec![1; 16]]).unwrap();
            let err = ingress(&payload).unwrap_err();
            assert!(
                matches!(&err, Error::Config(msg) if msg.contains("the model expects 8×8")),
                "{layout:?}: {err}"
            );
        }
    }

    #[test]
    fn dropped_refresh_attempts_still_land_in_the_cost_books() {
        // A NoiseRefresh fault drops the request before the boundary, so the
        // attempt is (correctly) charged CostBreakdown::default() — but it
        // must still appear as a recorded entry, or FaultReport attempt
        // counts and recorded cost entries stop reconciling.
        let rec = Recorder::enabled();
        let injector = Arc::new(
            FaultPlan::new(9)
                .script(FaultSite::NoiseRefresh, 0, FaultKind::Transient)
                .build(),
        );
        let (ie, sys, mut rng) = setup_with(Some(injector.clone()), rec.clone());
        let cts: Vec<_> = (0..4)
            .map(|i| {
                sys.encrypt(&[i * 3], Encoding::Slots, &ie.public, &mut rng)
                    .unwrap()
            })
            .collect();
        let (fresh, cost) = ie
            .apply(
                &[EnclaveOp::Refresh],
                &sys,
                &small_model(),
                &EncryptedMap::new(1, 2, 2, cts),
                EcallBatching::Batched,
                Layout::Pixel,
                &ParExec::serial(),
            )
            .unwrap();
        assert_eq!(fresh.cells().len(), 4);
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
