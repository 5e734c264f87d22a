//! Broker configuration: fleet size, admission bounds, batching caps, the
//! deficit-round-robin quantum, and the modeled HE evaluator cost table.

use hesgx_henn::ops::OpCounter;

/// Modeled nanosecond cost of each homomorphic evaluator operation at the
/// paper's parameters. The broker prices a dispatched batch by folding the
/// pipeline's [`OpCounter`] through this table — a *modeled* figure on the
/// virtual clock, deliberately independent of wall time and thread count so
/// load replays are byte-identical.
///
/// The counts it folds are not constant in the batch `B`. For a model of
/// `C` conv maps, `J` FC inputs and `K` classes at `n` slots, a request that
/// enters one ciphertext an image (`Layout::Coeff`) pays `C·B` conv
/// products, one per map and image, so that part of a batch's cost grows
/// with its fill. Its FC reads operand cells (`Layout::FcOperand`), each
/// value once, where that is fewer: `K·⌈J/⌊n/B⌋⌉` multiplies, `⌊n/B⌋`
/// slots an image, which grows with `B` too until one slot an image is no
/// fewer and the layer goes back to `K·J` per-pixel multiplies. A per-pixel
/// request (`Layout::Pixel`) is the one case whose counts stay flat as the
/// batch fills: all images ride the slots of the same ciphertexts, and the
/// per-request share falls as `1/fill`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeCostModel {
    /// Ciphertext × plaintext multiplication.
    pub ct_pt_mul_ns: u64,
    /// Ciphertext + ciphertext addition.
    pub ct_ct_add_ns: u64,
    /// Ciphertext + plaintext addition.
    pub ct_pt_add_ns: u64,
    /// Ciphertext × ciphertext multiplication.
    pub ct_ct_mul_ns: u64,
    /// Relinearization.
    pub relin_ns: u64,
    /// Per-byte ingress transfer cost — what the broker charges for moving
    /// a request's upload (FV ciphertexts or a transciphered stream payload)
    /// into the service. This is where transciphered ingress pays off on the
    /// virtual clock — bytes a pixel instead of one ciphertext an image —
    /// once the bytes it saves outprice the re-encryption ECALL it adds: at
    /// n = 256 that takes a link slower than this calibration's 2 ns a byte
    /// (DESIGN.md §17, *Serving*).
    pub ingress_byte_ns: u64,
}

impl HeCostModel {
    /// Calibrated to the order of magnitude of the paper's SEAL 2.1 numbers
    /// at polynomial degree 1024 (§VII): multiplications dominate, additions
    /// are two orders cheaper, relinearization is the outlier.
    pub fn paper() -> Self {
        HeCostModel {
            ct_pt_mul_ns: 60_000,
            ct_ct_add_ns: 8_000,
            ct_pt_add_ns: 6_000,
            ct_ct_mul_ns: 450_000,
            relin_ns: 900_000,
            // ~500 MB/s modeled ingest path (TLS + copy), 2 ns per byte.
            ingress_byte_ns: 2,
        }
    }

    /// The modeled transfer time of `upload_bytes` of client payload.
    pub fn ingress_ns(&self, upload_bytes: u64) -> u64 {
        upload_bytes.saturating_mul(self.ingress_byte_ns)
    }

    /// The modeled evaluator time of one pipeline run with the given
    /// operation counts.
    pub fn eval_ns(&self, ops: &OpCounter) -> u64 {
        ops.ct_pt_mul
            .saturating_mul(self.ct_pt_mul_ns)
            .saturating_add(ops.ct_ct_add.saturating_mul(self.ct_ct_add_ns))
            .saturating_add(ops.ct_pt_add.saturating_mul(self.ct_pt_add_ns))
            .saturating_add(ops.ct_ct_mul.saturating_mul(self.ct_ct_mul_ns))
            .saturating_add(ops.relin.saturating_mul(self.relin_ns))
    }
}

impl Default for HeCostModel {
    fn default() -> Self {
        HeCostModel::paper()
    }
}

/// Configuration of a [`crate::Broker`].
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Number of `Session` workers in the fleet (virtual service stations).
    /// All workers share one seed, hence one key domain — the precondition
    /// for packing different requests into one ciphertext batch.
    pub workers: usize,
    /// Bounded admission queue: arrivals beyond this depth are dropped with
    /// backpressure accounting (`serve.drop.queue_full`).
    pub queue_cap: usize,
    /// Upper bound on images per dispatched batch; additionally clamped to
    /// the SIMD slot count of the sessions' FV parameters.
    pub max_batch: usize,
    /// Deficit-round-robin quantum, in images added to a tenant's deficit
    /// per scheduling round.
    pub quantum: u64,
    /// Modeled HE evaluator cost table for pricing dispatched batches.
    pub he_costs: HeCostModel,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            workers: 2,
            queue_cap: 64,
            max_batch: 16,
            quantum: 4,
            he_costs: HeCostModel::paper(),
        }
    }
}

impl BrokerConfig {
    /// Starts from the defaults: two workers, queue of 64, batches of up to
    /// 16 images, quantum 4.
    pub fn new() -> Self {
        BrokerConfig::default()
    }

    /// Sets the worker-fleet size.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the admission-queue bound.
    #[must_use]
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap.max(1);
        self
    }

    /// Sets the per-batch image cap (1 disables cross-request batching).
    #[must_use]
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the DRR quantum.
    #[must_use]
    pub fn quantum(mut self, quantum: u64) -> Self {
        self.quantum = quantum.max(1);
        self
    }

    /// Overrides the modeled HE evaluator cost table.
    #[must_use]
    pub fn he_costs(mut self, he_costs: HeCostModel) -> Self {
        self.he_costs = he_costs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_ns_folds_all_op_classes() {
        let he = HeCostModel::paper();
        let ops = OpCounter {
            ct_pt_mul: 2,
            ct_ct_add: 3,
            ct_pt_add: 1,
            ct_ct_mul: 1,
            relin: 1,
            rotations: 0,
            weight_prep: 0,
        };
        assert_eq!(
            he.eval_ns(&ops),
            2 * 60_000 + 3 * 8_000 + 6_000 + 450_000 + 900_000
        );
    }

    #[test]
    fn config_setters_clamp_to_sane_minima() {
        let cfg = BrokerConfig::new()
            .workers(0)
            .queue_cap(0)
            .max_batch(0)
            .quantum(0);
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.queue_cap, 1);
        assert_eq!(cfg.max_batch, 1);
        assert_eq!(cfg.quantum, 1);
    }
}
