//! The discrete-event virtual clock.
//!
//! The serving front shares one clock with `cachegen-net`'s virtual-time
//! link model: every event carries an `f64` time in seconds, and the queue
//! pops events in time order. Ties are broken by insertion sequence so a
//! run is a pure function of its inputs — the same trace always replays
//! the same schedule, which is what makes the determinism requirement
//! ("same seed ⇒ same per-tenant TTFT percentiles") checkable.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Timed<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Timed<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time.total_cmp(&other.time) == Ordering::Equal && self.seq == other.seq
    }
}

impl<E> Eq for Timed<E> {}

impl<E> PartialOrd for Timed<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Timed<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event
        // (and, at equal times, the earliest-inserted) on top.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-priority event queue over virtual seconds.
pub struct EventQueue<E> {
    heap: BinaryHeap<Timed<E>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at virtual time `time` (seconds).
    pub fn push(&mut self, time: f64, event: E) {
        assert!(time.is_finite() && time >= 0.0, "bad event time {time}");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Timed { time, seq, event });
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|t| (t.time, t.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(1.0, "first");
        q.push(1.0, "second");
        q.push(0.5, "zeroth");
        assert_eq!(q.pop(), Some((0.5, "zeroth")));
        assert_eq!(q.pop(), Some((1.0, "first")));
        assert_eq!(q.pop(), Some((1.0, "second")));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "bad event time")]
    fn rejects_nan_times() {
        EventQueue::new().push(f64::NAN, ());
    }
}
