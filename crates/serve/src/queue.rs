//! Bounded admission queue with per-tenant deficit-round-robin batching.
//!
//! Admission is a hard bound: once `cap` requests sit queued, further
//! arrivals are dropped (backpressure — the deterministic stand-in for a
//! 429). Dispatch walks the tenant ring deficit-round-robin: each
//! scheduling round credits every active tenant `quantum` images of
//! deficit, and a tenant's head request is taken only when its deficit
//! covers the request's image count — so a tenant streaming large batches
//! cannot starve single-image tenants, while unused credit accumulates for
//! the patient. The classic DRR reset applies: a tenant that drains its
//! queue forfeits its remaining deficit.
//!
//! All iteration orders are fixed (ring order is first-appearance order,
//! the starting tenant rotates once per dispatch), so batch composition is
//! a pure function of the arrival sequence — the property the byte-identity
//! tests pin.

use hesgx_core::request::{InferRequest, TenantId, VirtualNs};
use std::collections::{BTreeMap, VecDeque};

/// One admitted request waiting for dispatch.
#[derive(Debug, Clone)]
pub struct Pending {
    /// Trace-wide request ordinal.
    pub id: u64,
    /// Virtual arrival time.
    pub arrived: VirtualNs,
    /// The request itself (tenant, images, resilience, absolute deadline).
    pub request: InferRequest,
}

/// The bounded multi-tenant queue.
#[derive(Debug)]
pub struct AdmissionQueue {
    cap: usize,
    quantum: u64,
    len: usize,
    /// Per-tenant FIFO lanes.
    lanes: BTreeMap<TenantId, VecDeque<Pending>>,
    /// Per-tenant deficit counters (images of accumulated credit).
    deficits: BTreeMap<TenantId, u64>,
    /// Tenants in first-appearance order — the DRR visiting ring.
    ring: Vec<TenantId>,
    /// Ring index the next dispatch starts from (rotates for fairness).
    cursor: usize,
}

/// Outcome of an admission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Queued for dispatch.
    Admitted,
    /// Dropped: the queue is at capacity (backpressure).
    QueueFull,
    /// Dropped: the request's batch alone exceeds the dispatch cap, so it
    /// could never be scheduled.
    Oversize,
}

impl AdmissionQueue {
    /// An empty queue bounded at `cap` requests with DRR quantum `quantum`.
    pub fn new(cap: usize, quantum: u64) -> Self {
        AdmissionQueue {
            cap: cap.max(1),
            quantum: quantum.max(1),
            len: 0,
            lanes: BTreeMap::new(),
            deficits: BTreeMap::new(),
            ring: Vec::new(),
            cursor: 0,
        }
    }

    /// Queued request count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Offers a request; `max_images` is the dispatch cap a batch can carry
    /// (requests that alone exceed it are unschedulable and rejected).
    pub fn offer(&mut self, pending: Pending, max_images: usize) -> Admission {
        if pending.request.images.len() > max_images {
            return Admission::Oversize;
        }
        if self.len >= self.cap {
            return Admission::QueueFull;
        }
        let tenant = pending.request.tenant;
        if !self.lanes.contains_key(&tenant) {
            self.ring.push(tenant);
        }
        self.lanes.entry(tenant).or_default().push_back(pending);
        self.len += 1;
        Admission::Admitted
    }

    /// Selects the next batch to dispatch at virtual time `now`, packing up
    /// to `max_images` images deficit-round-robin across tenants. Requests
    /// whose deadline lies *strictly before* `now` (`deadline < now`) are
    /// dropped into `expired` instead of the batch; a request with
    /// `deadline == now` still dispatches, so on a zero-latency virtual
    /// clock an arrival deadlined "now" is served rather than stillborn.
    /// An empty return with a non-empty `expired` means the queue held only
    /// dead requests.
    pub fn take_batch(
        &mut self,
        now: VirtualNs,
        max_images: usize,
        expired: &mut Vec<Pending>,
    ) -> Vec<Pending> {
        let mut batch = Vec::new();
        let mut images = 0usize;
        if self.ring.is_empty() {
            return batch;
        }
        // Sweeps without a pop can only mean deficit starvation; deficits
        // grow by `quantum ≥ 1` per sweep, and any admitted request needs at
        // most `max_images` credit, so `max_images` dry sweeps prove the
        // remaining heads are capacity-blocked for *this* batch.
        let mut dry_sweeps = 0usize;
        while images < max_images && self.len > 0 && dry_sweeps <= max_images {
            let mut progressed = false;
            for offset in 0..self.ring.len() {
                let tenant = self.ring[(self.cursor + offset) % self.ring.len()];
                let Some(lane) = self.lanes.get_mut(&tenant) else {
                    continue;
                };
                if lane.is_empty() {
                    continue;
                }
                let deficit = self.deficits.entry(tenant).or_insert(0);
                *deficit = deficit.saturating_add(self.quantum);
                while let Some(head) = lane.pop_front() {
                    if head.request.deadline.is_some_and(|deadline| deadline < now) {
                        expired.push(head);
                        self.len -= 1;
                        progressed = true;
                        continue;
                    }
                    let need = head.request.images.len();
                    if images + need > max_images || (need as u64) > *deficit {
                        lane.push_front(head);
                        break;
                    }
                    *deficit -= need as u64;
                    images += need;
                    batch.push(head);
                    self.len -= 1;
                    progressed = true;
                }
                // Classic DRR: an emptied lane forfeits its credit.
                if lane.is_empty() {
                    self.deficits.insert(tenant, 0);
                }
                if images >= max_images {
                    break;
                }
            }
            dry_sweeps = if progressed { 0 } else { dry_sweeps + 1 };
        }
        self.cursor = (self.cursor + 1) % self.ring.len();
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(tenant: TenantId, images: usize) -> InferRequest {
        InferRequest::batch(vec![vec![0i64; 4]; images]).tenant(tenant)
    }

    fn pend(id: u64, tenant: TenantId, images: usize) -> Pending {
        Pending {
            id,
            arrived: id,
            request: req(tenant, images),
        }
    }

    #[test]
    fn admission_is_bounded_and_oversize_rejected() {
        let mut q = AdmissionQueue::new(2, 4);
        assert_eq!(q.offer(pend(0, 0, 1), 8), Admission::Admitted);
        assert_eq!(q.offer(pend(1, 0, 1), 8), Admission::Admitted);
        assert_eq!(q.offer(pend(2, 0, 1), 8), Admission::QueueFull);
        assert_eq!(q.offer(pend(3, 0, 9), 8), Admission::Oversize);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drr_interleaves_tenants_instead_of_serving_fifo() {
        let mut q = AdmissionQueue::new(16, 1);
        // Tenant 0 floods first; tenant 1 arrives after.
        for i in 0..4 {
            q.offer(pend(i, 0, 1), 16);
        }
        q.offer(pend(4, 1, 1), 16);
        q.offer(pend(5, 1, 1), 16);
        let mut expired = Vec::new();
        let batch = q.take_batch(0, 4, &mut expired);
        assert!(expired.is_empty());
        let tenants: Vec<TenantId> = batch.iter().map(|p| p.request.tenant).collect();
        // Quantum 1: strict alternation while both lanes are non-empty.
        assert_eq!(tenants, vec![0, 1, 0, 1]);
    }

    #[test]
    fn large_requests_wait_for_deficit_but_are_not_starved() {
        let mut q = AdmissionQueue::new(16, 1);
        q.offer(pend(0, 0, 3), 8); // needs 3 credits at quantum 1
        q.offer(pend(1, 1, 1), 8);
        let mut expired = Vec::new();
        let batch = q.take_batch(0, 8, &mut expired);
        let ids: Vec<u64> = batch.iter().map(|p| p.id).collect();
        assert!(ids.contains(&0), "large request eventually served: {ids:?}");
        assert!(ids.contains(&1));
    }

    #[test]
    fn expired_requests_are_dropped_not_dispatched() {
        let mut q = AdmissionQueue::new(16, 4);
        let mut p = pend(0, 0, 1);
        p.request = p.request.deadline(10);
        q.offer(p, 8);
        q.offer(pend(1, 0, 1), 8);
        let mut expired = Vec::new();
        let batch = q.take_batch(50, 8, &mut expired);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].id, 0);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].id, 1);
        assert!(q.is_empty());
    }

    #[test]
    fn deadline_equal_to_now_still_dispatches() {
        // The expiry boundary is strict: `deadline < now` expires,
        // `deadline == now` dispatches (pinned so a doc/code drift like the
        // one this test was added for cannot silently recur).
        let mut q = AdmissionQueue::new(16, 4);
        let mut p = pend(0, 0, 1);
        p.request = p.request.deadline(50);
        q.offer(p, 8);
        let mut expired = Vec::new();
        let batch = q.take_batch(50, 8, &mut expired);
        assert!(expired.is_empty());
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].id, 0);

        // One tick later the same deadline is dead.
        let mut p = pend(1, 0, 1);
        p.request = p.request.deadline(50);
        q.offer(p, 8);
        let batch = q.take_batch(51, 8, &mut expired);
        assert!(batch.is_empty());
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].id, 1);
    }

    #[test]
    fn capacity_cap_is_respected() {
        let mut q = AdmissionQueue::new(16, 8);
        for i in 0..6 {
            q.offer(pend(i, 0, 2), 4);
        }
        let mut expired = Vec::new();
        let batch = q.take_batch(0, 4, &mut expired);
        let images: usize = batch.iter().map(|p| p.request.images.len()).sum();
        assert_eq!(images, 4);
        assert_eq!(q.len(), 4);
    }
}
