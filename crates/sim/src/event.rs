//! The deterministic event queue.
//!
//! The heap orders only 24-byte `(time, seq, slot)` keys; payloads sit in
//! a slab indexed by `slot`, with a free list so a popped event's slot is
//! reused by the next schedule. A sift therefore moves three words however
//! large the payload is, and a queue in steady state allocates nothing.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Heap key of one pending event; `slot` indexes the payload slab.
#[derive(Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Key>() == 24);

impl Key {
    fn order(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

// Ordering looks at `(time, seq)` only, so the heap makes exactly the
// comparisons it would make on the events themselves.
impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}
impl Eq for Key {}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for a min-heap: earliest time first, then FIFO on ties.
        other.order().cmp(&self.order())
    }
}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered event queue with FIFO tie-breaking.
///
/// Events scheduled for the same instant are delivered in the order they
/// were scheduled, making simulations fully deterministic.
///
/// # Example
///
/// ```
/// use smrp_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ms(2.0), "late");
/// q.schedule(SimTime::from_ms(1.0), "early");
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Key>,
    /// Payload of each pending event, at its key's `slot`; `None` marks a
    /// free slot.
    slab: Vec<Option<E>>,
    /// Free slab slots, reused before the slab grows.
    free: Vec<u32>,
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
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at absolute `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.schedule_keyed(time, seq, event);
    }

    /// Schedules `event` at `time` under a caller-supplied sequence
    /// number. This lets an engine share one global ordering sequence
    /// between this heap and other event structures (the timer wheel):
    /// popping whichever structure holds the smaller `(time, seq)` key
    /// reproduces the order of a single merged heap.
    ///
    /// Do not mix with [`EventQueue::schedule`] on the same queue — the
    /// internal counter knows nothing about caller-supplied values.
    pub fn schedule_keyed(&mut self, time: SimTime, seq: u64, event: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("event slab exhausted");
                self.slab.push(Some(event));
                slot
            }
        };
        self.heap.push(Key { time, seq, slot });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let key = self.heap.pop()?;
        let event = self.slab[key.slot as usize]
            .take()
            .expect("a queued key owns its slab slot");
        self.free.push(key.slot);
        Some((key.time, event))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|k| k.time)
    }

    /// `(time, seq)` key of the earliest pending event.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(Key::order)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("scheduled_total", &self.seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(3.0), 3);
        q.schedule(SimTime::from_ms(1.0), 1);
        q.schedule(SimTime::from_ms(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(5.0);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(1.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(1.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(10.0), "b");
        q.schedule(SimTime::from_ms(5.0), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule(SimTime::from_ms(7.0), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn default_needs_no_default_payload() {
        struct Opaque;
        let mut q: EventQueue<Opaque> = EventQueue::default();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, Opaque);
        assert!(q.pop().is_some());
    }

    use proptest::prelude::*;

    /// What a queue should do: a list of `(time, seq, payload)` popped in
    /// `(time, seq)` order.
    #[derive(Default)]
    struct Model {
        pending: Vec<(SimTime, u64, usize)>,
    }

    impl Model {
        fn pop(&mut self) -> Option<(SimTime, usize)> {
            let i =
                (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))?;
            let (time, _, payload) = self.pending.swap_remove(i);
            Some((time, payload))
        }
    }

    /// Replays `ops` on a queue and on the model: `(0, t, _)` pops, any
    /// other op schedules payload `i` at `t` ms. With `keyed`, each
    /// schedule goes through `schedule_keyed` with the sequence advanced by
    /// the op's third field, as an engine sharing its sequence would.
    fn check_against_model(ops: &[(u8, u8, u8)], keyed: bool) -> Result<(), TestCaseError> {
        let mut q = EventQueue::new();
        let mut model = Model::default();
        let mut seq = 0u64;
        let mut peak = 0usize;
        for (i, &(op, t, gap)) in ops.iter().enumerate() {
            if op == 0 {
                prop_assert_eq!(q.pop(), model.pop());
            } else {
                let time = SimTime::from_ms(f64::from(t));
                seq += u64::from(gap);
                if keyed {
                    q.schedule_keyed(time, seq, i);
                } else {
                    q.schedule(time, i);
                }
                model.pending.push((time, seq, i));
                seq += 1;
            }
            peak = peak.max(model.pending.len());
            prop_assert_eq!(q.len(), model.pending.len());
            let want = model.pending.iter().map(|&(t, s, _)| (t, s)).min();
            prop_assert_eq!(q.peek_key().map(|k| k.0), want.map(|k| k.0));
            if keyed {
                prop_assert_eq!(q.peek_key(), want);
            }
            // Popped slots are reused: the slab never outgrows the most
            // events ever pending at once.
            prop_assert!(q.slab.len() <= peak);
            prop_assert_eq!(q.slab.len(), q.len() + q.free.len());
        }
        while let Some(want) = model.pop() {
            prop_assert_eq!(q.pop(), Some(want));
        }
        prop_assert!(q.pop().is_none());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random schedule/pop interleavings over a few instants (so ties
        /// are common) pop exactly as the sorted reference does.
        #[test]
        fn matches_sorted_reference(
            ops in proptest::collection::vec((0u8..3, 0u8..6, 0u8..4), 0..200),
        ) {
            check_against_model(&ops, false)?;
        }

        /// The same with caller-supplied, gapped sequence numbers.
        #[test]
        fn keyed_matches_sorted_reference(
            ops in proptest::collection::vec((0u8..3, 0u8..6, 0u8..4), 0..200),
        ) {
            check_against_model(&ops, true)?;
        }
    }
}
