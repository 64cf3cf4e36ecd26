//! Per-tenant FIFO queues with admission control and batch coalescing.
//!
//! Each shard fronts its engine with one [`TenantQueues`]: requests enter
//! a per-tenant FIFO, and admission is bounded — past a first watermark
//! new requests are *degraded* (served at a coarser encoding level, §5.3's
//! ladder used as a load-shedding dial), past a second they are *shed*
//! outright. Dispatch is round-robin across tenants for fairness, and a
//! dispatched request pulls every queued request for the same context
//! along with it (they ride the same transfer — the shared-prefix fan-out
//! batching of the serving tentpole).

use std::collections::VecDeque;

/// What a queue entry asks the shard to do.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EntryKind {
    /// A tenant query: fetch (or hit) the context, then prefill the
    /// prompt suffix.
    Query,
    /// A loss-repair re-fetch: pull the entropy chunks a lossy transfer
    /// never delivered. Competes under the *same* admission watermarks as
    /// first fetches — under overload a re-fetch is degraded or shed like
    /// any arrival (the context stays at its repaired quality).
    Refetch {
        /// Bytes still missing.
        bytes: u64,
        /// Quality the cached context returns to once the holes are
        /// filled.
        restore_quality: f64,
    },
}

/// A request waiting in a shard queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueuedRequest {
    /// Index into the run's request slice (`usize::MAX` for internally
    /// generated re-fetches, which have no outcome slot).
    pub index: usize,
    /// Tenant that issued it.
    pub tenant: usize,
    /// Context it reads.
    pub context_id: u64,
    /// Virtual arrival time.
    pub arrival: f64,
    /// Tokens in the query's unique suffix (prefilled after load).
    pub prompt_tokens: usize,
    /// Whether admission degraded it (coarser level under pressure).
    pub degraded: bool,
    /// Query or re-fetch.
    pub kind: EntryKind,
}

/// Admission decision for one arriving request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Queue healthy: serve at the configured policy.
    Normal,
    /// Shard saturated: serve at the degraded (coarser) level.
    Degraded,
    /// Queue full: reject.
    Shed,
}

/// Per-tenant FIFO queues for one shard.
#[derive(Clone, Debug)]
pub struct TenantQueues {
    queues: Vec<VecDeque<QueuedRequest>>,
    /// Total queued across tenants.
    total: usize,
    /// Degrade watermark (inclusive, on `total` at admission time).
    degrade_depth: usize,
    /// Shed watermark (inclusive).
    shed_depth: usize,
    /// Round-robin cursor: the tenant *after* the last one served.
    cursor: usize,
    /// Highest `total` ever observed (the backpressure bound under test).
    peak: usize,
}

impl TenantQueues {
    /// Creates queues for `num_tenants` tenants with the two watermarks.
    pub fn new(num_tenants: usize, degrade_depth: usize, shed_depth: usize) -> Self {
        assert!(num_tenants >= 1, "need at least one tenant");
        assert!(
            (1..=shed_depth).contains(&degrade_depth),
            "need 1 <= degrade_depth ({degrade_depth}) <= shed_depth ({shed_depth})"
        );
        TenantQueues {
            queues: vec![VecDeque::new(); num_tenants],
            total: 0,
            degrade_depth,
            shed_depth,
            cursor: 0,
            peak: 0,
        }
    }

    /// The admission decision the current depth implies.
    fn admission(&self) -> Admission {
        if self.total >= self.shed_depth {
            Admission::Shed
        } else if self.total >= self.degrade_depth {
            Admission::Degraded
        } else {
            Admission::Normal
        }
    }

    /// Admits a request (or sheds it): applies the watermark decision,
    /// marks the request degraded when applicable, and enqueues it.
    /// Returns the decision made.
    pub fn push(&mut self, mut req: QueuedRequest) -> Admission {
        let decision = self.admission();
        if decision == Admission::Shed {
            return decision;
        }
        req.degraded = decision == Admission::Degraded;
        self.queues[req.tenant].push_back(req);
        self.total += 1;
        self.peak = self.peak.max(self.total);
        decision
    }

    /// Total queued requests.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether every queue is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Highest queue depth ever observed.
    pub fn peak_depth(&self) -> usize {
        self.peak
    }

    /// Pops the next batch: round-robin over tenants picks the head
    /// request, then every queued request for the same context (across all
    /// tenants, in tenant order) joins it, up to `max_batch` requests
    /// total. Returns an empty vec when nothing is queued.
    pub fn pop_batch(&mut self, max_batch: usize) -> Vec<QueuedRequest> {
        assert!(max_batch >= 1);
        let n = self.queues.len();
        let Some(lead_tenant) = (0..n)
            .map(|o| (self.cursor + o) % n)
            .find(|&t| !self.queues[t].is_empty())
        else {
            return Vec::new();
        };
        let Some(head) = self.queues[lead_tenant].pop_front() else {
            return Vec::new();
        };
        self.total -= 1;
        self.cursor = (lead_tenant + 1) % n;
        let mut batch = vec![head];
        // Coalesce same-context requests: they share one store fetch, so
        // riding along costs nothing and empties queues faster. Tenant
        // order keeps the scan deterministic.
        for t in 0..n {
            while batch.len() < max_batch {
                let Some(pos) = self.queues[t]
                    .iter()
                    .position(|r| r.context_id == head.context_id)
                else {
                    break;
                };
                let Some(req) = self.queues[t].remove(pos) else {
                    break;
                };
                self.total -= 1;
                batch.push(req);
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(index: usize, tenant: usize, context_id: u64) -> QueuedRequest {
        QueuedRequest {
            index,
            tenant,
            context_id,
            arrival: index as f64,
            prompt_tokens: 4,
            degraded: false,
            kind: EntryKind::Query,
        }
    }

    #[test]
    fn refetch_entries_obey_the_same_watermarks() {
        let mut q = TenantQueues::new(1, 2, 3);
        let refetch = |index: usize| QueuedRequest {
            kind: EntryKind::Refetch {
                bytes: 1_000,
                restore_quality: 0.99,
            },
            ..req(index, 0, 5)
        };
        assert_eq!(q.push(req(0, 0, 5)), Admission::Normal);
        assert_eq!(q.push(refetch(1)), Admission::Normal);
        assert_eq!(q.push(refetch(2)), Admission::Degraded);
        assert_eq!(
            q.push(refetch(3)),
            Admission::Shed,
            "full queue sheds re-fetches too"
        );
        // Re-fetches coalesce with queries of the same context.
        let batch = q.pop_batch(8);
        assert_eq!(batch.len(), 3);
        assert!(matches!(batch[1].kind, EntryKind::Refetch { .. }));
    }

    #[test]
    fn watermarks_degrade_then_shed() {
        let mut q = TenantQueues::new(2, 2, 4);
        assert_eq!(q.push(req(0, 0, 1)), Admission::Normal);
        assert_eq!(q.push(req(1, 0, 1)), Admission::Normal);
        assert_eq!(q.push(req(2, 1, 2)), Admission::Degraded);
        assert_eq!(q.push(req(3, 1, 2)), Admission::Degraded);
        assert_eq!(q.push(req(4, 0, 3)), Admission::Shed);
        assert_eq!(q.len(), 4, "shed requests are not enqueued");
        assert_eq!(q.peak_depth(), 4);
    }

    #[test]
    fn round_robin_across_tenants() {
        let mut q = TenantQueues::new(3, 10, 10);
        q.push(req(0, 0, 10));
        q.push(req(1, 1, 11));
        q.push(req(2, 2, 12));
        q.push(req(3, 0, 13));
        let lead = |q: &mut TenantQueues| q.pop_batch(8)[0].tenant;
        assert_eq!(lead(&mut q), 0);
        assert_eq!(lead(&mut q), 1);
        assert_eq!(lead(&mut q), 2);
        assert_eq!(lead(&mut q), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn batch_coalesces_same_context_across_tenants() {
        let mut q = TenantQueues::new(3, 10, 10);
        q.push(req(0, 0, 7));
        q.push(req(1, 1, 9));
        q.push(req(2, 1, 7));
        q.push(req(3, 2, 7));
        let batch = q.pop_batch(8);
        assert_eq!(batch.len(), 3, "all context-7 requests ride together");
        assert!(batch.iter().all(|r| r.context_id == 7));
        assert_eq!(q.len(), 1, "context 9 stays queued");
        let rest = q.pop_batch(8);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].context_id, 9);
    }

    #[test]
    fn batch_size_is_bounded() {
        let mut q = TenantQueues::new(1, 20, 20);
        for i in 0..6 {
            q.push(req(i, 0, 5));
        }
        let batch = q.pop_batch(4);
        assert_eq!(batch.len(), 4);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn degraded_flag_set_by_admission() {
        let mut q = TenantQueues::new(1, 1, 3);
        q.push(req(0, 0, 1));
        q.push(req(1, 0, 2));
        let b = q.pop_batch(1);
        assert!(!b[0].degraded, "first request was admitted normally");
        let b = q.pop_batch(1);
        assert!(b[0].degraded, "second request crossed the watermark");
    }
}
