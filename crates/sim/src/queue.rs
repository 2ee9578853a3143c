//! Time-ordered, insertion-stable event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use vmp_types::Nanos;

/// A deterministic future-event list.
///
/// Events are delivered in nondecreasing time order; events scheduled for
/// the *same* time are delivered in the order they were scheduled (FIFO).
/// That stability is what makes whole-machine simulations reproducible:
/// a `BinaryHeap` alone would break ties arbitrarily.
///
/// # Examples
///
/// ```
/// use vmp_sim::EventQueue;
/// use vmp_types::Nanos;
///
/// let mut q: EventQueue<u32> = EventQueue::new();
/// assert!(q.is_empty());
/// q.schedule(Nanos::from_ns(5), 1);
/// q.schedule_after(Nanos::from_ns(5), Nanos::from_ns(0), 2);
/// assert_eq!(q.len(), 2);
/// assert_eq!(q.peek_time(), Some(Nanos::from_ns(5)));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    key: Reverse<(Nanos, u64)>,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedules `event` at absolute simulated time `at`.
    pub fn schedule(&mut self, at: Nanos, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { key: Reverse((at, seq)), event });
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_after(&mut self, now: Nanos, delay: Nanos, event: E) {
        self.schedule(now + delay, event);
    }

    /// Removes and returns the earliest event with its timestamp.
    ///
    /// Among events with equal timestamps, the earliest-scheduled one is
    /// returned first.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        self.heap.pop().map(|e| {
            let Reverse((t, _)) = e.key;
            (t, e.event)
        })
    }

    /// Removes and returns the earliest event iff its timestamp is at or
    /// before `deadline`.
    ///
    /// Equivalent to `peek_time` + `pop` but with a single heap descent,
    /// which matters in `run_until`-style dispatch loops where it runs
    /// once per delivered event. FIFO tie-breaking is unchanged: the
    /// heap order is untouched, only the removal is fused.
    pub fn pop_if_at_or_before(&mut self, deadline: Nanos) -> Option<(Nanos, E)> {
        let entry = self.heap.peek_mut()?;
        let Reverse((t, _)) = entry.key;
        if t > deadline {
            return None;
        }
        let entry = std::collections::binary_heap::PeekMut::pop(entry);
        Some((t, entry.event))
    }

    /// Delivers an event at `at` without storing it, when it would be
    /// the very next one delivered: `at` is at or before `deadline` and
    /// strictly before every pending event (a tie would go behind the
    /// pending one). Returns whether it did. On `true` the sequence
    /// number [`EventQueue::schedule`] would have assigned is consumed,
    /// so the queue is left exactly as `schedule(at, e)` followed by
    /// `pop_if_at_or_before(deadline)` would leave it; on `false`
    /// nothing changes.
    #[inline]
    pub fn bypass(&mut self, at: Nanos, deadline: Nanos) -> bool {
        let next = at <= deadline && self.peek_time().is_none_or(|head| at < head);
        self.seq += u64::from(next);
        next
    }

    /// Returns the timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|e| {
            let Reverse((t, _)) = e.key;
            t
        })
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Every pending entry as `(time, sequence, event)`, sorted by
    /// delivery order. The sequence numbers are the queue's internal
    /// FIFO tie-breakers; feed the list to [`EventQueue::restore`] to
    /// rebuild an identical queue.
    pub fn entries(&self) -> Vec<(Nanos, u64, E)>
    where
        E: Clone,
    {
        let mut out: Vec<(Nanos, u64, E)> = self
            .heap
            .iter()
            .map(|e| {
                let Reverse((t, seq)) = e.key;
                (t, seq, e.event.clone())
            })
            .collect();
        out.sort_by_key(|&(t, seq, _)| (t, seq));
        out
    }

    /// The next sequence number the queue will assign.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Rebuilds a queue from a captured [`EventQueue::entries`] list and
    /// [`EventQueue::next_seq`] counter, preserving every entry's
    /// original tie-breaker so delivery order is bit-identical.
    pub fn restore(next_seq: u64, entries: Vec<(Nanos, u64, E)>) -> Self {
        let heap = entries
            .into_iter()
            .map(|(t, seq, event)| Entry { key: Reverse((t, seq)), event })
            .collect();
        EventQueue { heap, seq: next_seq }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_ns(30), 'c');
        q.schedule(Nanos::from_ns(10), 'a');
        q.schedule(Nanos::from_ns(20), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Nanos::from_ns(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_ties_and_times() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_ns(5), "t5-first");
        q.schedule(Nanos::from_ns(3), "t3");
        q.schedule(Nanos::from_ns(5), "t5-second");
        assert_eq!(q.pop().unwrap().1, "t3");
        assert_eq!(q.pop().unwrap().1, "t5-first");
        assert_eq!(q.pop().unwrap().1, "t5-second");
        assert!(q.pop().is_none());
    }

    #[test]
    fn schedule_after_adds_delay() {
        let mut q = EventQueue::new();
        q.schedule_after(Nanos::from_ns(100), Nanos::from_ns(50), ());
        assert_eq!(q.peek_time(), Some(Nanos::from_ns(150)));
    }

    #[test]
    fn len_clear_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Nanos::ZERO, 0);
        q.schedule(Nanos::ZERO, 1);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn pop_if_at_or_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_ns(10), 'a');
        q.schedule(Nanos::from_ns(20), 'b');
        assert_eq!(q.pop_if_at_or_before(Nanos::from_ns(5)), None);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_if_at_or_before(Nanos::from_ns(10)), Some((Nanos::from_ns(10), 'a')));
        assert_eq!(q.pop_if_at_or_before(Nanos::from_ns(15)), None);
        assert_eq!(q.pop_if_at_or_before(Nanos::from_ns(100)), Some((Nanos::from_ns(20), 'b')));
        assert_eq!(q.pop_if_at_or_before(Nanos::from_ns(100)), None);
    }

    #[test]
    fn pop_if_at_or_before_keeps_fifo_ties() {
        // The fused peek+pop must deliver equal-time events in schedule
        // order, exactly like peek_time + pop did.
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Nanos::from_ns(7), i);
        }
        let order: Vec<i32> =
            std::iter::from_fn(|| q.pop_if_at_or_before(Nanos::from_ns(7)).map(|(_, e)| e))
                .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_if_matches_peek_then_pop() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for i in 0..50u32 {
            let t = Nanos::from_ns(u64::from(i % 7) * 3);
            a.schedule(t, i);
            b.schedule(t, i);
        }
        let deadline = Nanos::from_ns(12);
        loop {
            let via_fused = a.pop_if_at_or_before(deadline);
            let via_peek = match b.peek_time() {
                Some(t) if t <= deadline => b.pop(),
                _ => None,
            };
            assert_eq!(via_fused, via_peek);
            if via_fused.is_none() {
                break;
            }
        }
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn bypass_stands_for_schedule_then_pop() {
        // Each step either bypasses or schedules-and-pops on `a`, and
        // always schedules-and-pops on `b`; the queues must agree on
        // every delivery and on their captured state throughout.
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for (i, t) in [30u64, 10, 20, 20, 40].into_iter().enumerate() {
            a.schedule(Nanos::from_ns(t), i);
            b.schedule(Nanos::from_ns(t), i);
        }
        let deadline = Nanos::from_ns(35);
        let mut bypassed = 0;
        for (step, t) in [5u64, 10, 8, 9, 36, 20, 15].into_iter().enumerate() {
            let (at, event) = (Nanos::from_ns(t), 100 + step);
            let next = b.peek_time().is_none_or(|h| at < h) && at <= deadline;
            assert_eq!(a.bypass(at, deadline), next, "bypass at {t}");
            if next {
                bypassed += 1;
                b.schedule(at, event);
                assert_eq!(b.pop_if_at_or_before(deadline), Some((at, event)));
            } else {
                a.schedule(at, event);
                b.schedule(at, event);
                assert_eq!(a.pop_if_at_or_before(deadline), b.pop_if_at_or_before(deadline));
            }
            assert_eq!((a.next_seq(), a.entries()), (b.next_seq(), b.entries()));
        }
        assert_eq!(bypassed, 4, "the schedule must exercise both branches");
        // A restored copy keeps delivering exactly as the original.
        let mut c = EventQueue::restore(a.next_seq(), a.entries());
        loop {
            let (x, y) = (a.pop(), c.pop());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn bypass_keeps_fifo_ties_around_a_consumed_number() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_ns(7), 'a');
        // A tie with the head is never bypassed…
        assert!(!q.bypass(Nanos::from_ns(7), Nanos::from_ns(100)));
        assert_eq!(q.next_seq(), 1);
        // …an earlier event is, and consumes one number…
        assert!(q.bypass(Nanos::from_ns(3), Nanos::from_ns(100)));
        assert_eq!(q.next_seq(), 2);
        // …and later ties still deliver in schedule order.
        q.schedule(Nanos::from_ns(7), 'b');
        q.schedule(Nanos::from_ns(7), 'c');
        let entries: Vec<u64> = q.entries().iter().map(|&(_, seq, _)| seq).collect();
        assert_eq!(entries, vec![0, 2, 3]);
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
        // An empty queue takes any event up to the deadline, none past it.
        assert!(!q.bypass(Nanos::from_ns(101), Nanos::from_ns(100)));
        assert!(q.bypass(Nanos::from_ns(100), Nanos::from_ns(100)));
        assert_eq!(q.next_seq(), 5);
    }

    #[test]
    fn pop_returns_timestamp() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_us(2), 9u8);
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, Nanos::from_us(2));
        assert_eq!(e, 9);
    }
}
