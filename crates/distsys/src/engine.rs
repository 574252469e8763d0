//! A deterministic discrete-event queue.
//!
//! Minimal by design: events are any payload type ordered by scheduled
//! time, with FIFO tie-breaking (a monotone sequence number) so equal-time
//! events pop in insertion order — a property the session replays rely on
//! and the tests pin down.
//!
//! # One heap, one contract
//!
//! Every simulation (the sharded farm, the shared channel and
//! single-client sessions) runs on this one queue: a
//! `std::collections::BinaryHeap` ordered by a packed `u128` key,
//! `(at.to_bits() << 64) | seq`, so a single integer compare realises
//! "earliest time first, lowest sequence number on ties". The order is
//! a total order over `(time, sequence)`, so a schedule/pop interleaving
//! determines the popped sequence exactly — the property test below
//! checks it against a linear-scan model, and the workspace goldens
//! (including a 64-shard, 4096-client event log) pin it end to end.
//!
//! Do not bring back a bucketed calendar queue on the strength of
//! synthetic hold-model benchmarks: on the 64-shard, 4096-client
//! Figure-7 simulation its width estimate collapsed to the integer
//! viewing-time step, leaving ~40 events per bucket behind mid-deque
//! inserts in a 16k-bucket ring, and it ran at about 70% of this heap's
//! requests per second.
//!
//! # Scheduling contract (NaN / causality)
//!
//! [`EventQueue::schedule`] **panics** when the event time is not finite
//! (NaN or ±∞) or lies before the current clock. These are programming
//! errors in the caller — a simulation that schedules into the past has
//! already lost causality, and silently accepting NaN would poison every
//! downstream comparison — so the contract is a loud panic rather than a
//! recoverable error (covered by `#[should_panic]` tests). The clock
//! itself starts at `0.0` on a fresh queue and only advances when an
//! event is popped; scheduling alone never moves it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled at a simulated time.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    at: f64,
    seq: u64,
    payload: E,
}

impl<E> Scheduled<E> {
    /// The queue order packed into one integer: earliest time first,
    /// lowest sequence number on ties. Event times are guaranteed
    /// non-negative and finite (the [`EventQueue::schedule`] contract),
    /// where `f64::to_bits` is monotone — so a single `u128` compare
    /// *is* the `(total_cmp, seq)` lexicographic order, with no
    /// float-compare plus tie-break branch pair on the sift paths.
    #[inline]
    fn key(&self) -> u128 {
        ((self.at.to_bits() as u128) << 64) | self.seq as u128
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert the packed key to get
        // earliest-first with FIFO sequence ties.
        other.key().cmp(&self.key())
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic discrete-event queue with a simulation clock — see the
/// [module docs](self) for the determinism contract.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: f64,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: 0.0,
            seq: 0,
        }
    }

    /// Current simulation time: `0.0` on a fresh queue (even after
    /// events have been scheduled), then the timestamp of the most
    /// recently popped event. Only [`pop`](Self::pop) advances it.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is not finite (NaN or ±∞) or earlier than the
    /// current clock — the causality contract documented in the
    /// [module docs](self).
    pub fn schedule(&mut self, at: f64, payload: E) {
        assert!(at.is_finite(), "event time must be finite");
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        self.heap.push(Scheduled {
            at,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Schedules `payload` `delay` time units from now.
    pub fn schedule_in(&mut self, delay: f64, payload: E) {
        self.schedule(self.now + delay, payload);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let s = self.heap.pop()?;
        self.now = s.at;
        Some((s.at, s.payload))
    }

    /// Peeks at the earliest pending event time.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|s| s.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(5.0, "x");
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 5.0);
    }

    /// The documented initial state: a fresh queue's clock reads zero,
    /// and scheduling alone never advances it — only popping does.
    #[test]
    fn clock_starts_at_zero_and_schedule_does_not_advance_it() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0.0, "fresh queue clock");
        q.schedule(7.5, "later");
        q.schedule(2.5, "sooner");
        assert_eq!(q.now(), 0.0, "schedule must not move the clock");
        assert_eq!(q.peek_time(), Some(2.5));
        assert_eq!(q.now(), 0.0, "peek must not move the clock");
        q.pop();
        assert_eq!(q.now(), 2.5);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "first");
        q.schedule(1.0, "second");
        q.schedule(1.0, "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(2.0, "a");
        q.pop();
        q.schedule_in(3.0, "b");
        assert_eq!(q.pop(), Some((5.0, "b")));
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(2.0, ());
        q.pop();
        q.schedule(1.0, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_time() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_infinite_time() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(f64::INFINITY, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_negative_infinite_time() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule(f64::NEG_INFINITY, ());
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(4.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(2.0));
    }

    /// Far-future events pop in exact order against nearer events
    /// scheduled after them, and after the clock jumps to the far
    /// future, events scheduled relative to it still sort correctly.
    #[test]
    fn overflow_lane_interleaves_correctly() {
        let mut q = EventQueue::new();
        q.schedule(1e9, "far");
        q.schedule(1.0, "near");
        q.schedule(1e9, "far2");
        assert_eq!(q.pop(), Some((1.0, "near")));
        assert_eq!(q.pop(), Some((1e9, "far")));
        q.schedule(1e9 + 0.5, "mid");
        assert_eq!(q.pop(), Some((1e9, "far2")));
        assert_eq!(q.pop(), Some((1e9 + 0.5, "mid")));
        assert_eq!(q.pop(), None);
    }

    /// Growing the heap well past its initial capacity, with quantised
    /// and tied times, keeps the exhaustive pop order.
    #[test]
    fn resize_preserves_order() {
        let mut q = EventQueue::new();
        let mut expect: Vec<(f64, usize)> = Vec::new();
        for i in 0..500usize {
            let at = ((i * 7919) % 101) as f64 * 0.25;
            q.schedule(at, i);
            expect.push((at, i));
        }
        expect.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut got = Vec::new();
        while let Some((at, i)) = q.pop() {
            got.push((at, i));
        }
        assert_eq!(got, expect);
    }

    /// The trivially correct model of the queue: a flat list of
    /// `(at, seq)` pairs, popped by scanning for the minimum.
    #[derive(Default)]
    struct Model {
        pending: Vec<(f64, u64)>,
        now: f64,
        seq: u64,
    }

    impl Model {
        fn schedule(&mut self, at: f64) -> u64 {
            let seq = self.seq;
            self.pending.push((at, seq));
            self.seq += 1;
            seq
        }

        fn min_index(&self) -> Option<usize> {
            (0..self.pending.len()).min_by(|&i, &j| {
                let (a, b) = (self.pending[i], self.pending[j]);
                a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
            })
        }

        fn pop(&mut self) -> Option<(f64, u64)> {
            let ev = self.pending.swap_remove(self.min_index()?);
            self.now = ev.0;
            Some(ev)
        }

        fn peek_time(&self) -> Option<f64> {
            self.min_index().map(|i| self.pending[i].0)
        }
    }

    /// Schedules `at` on both the queue and the model, payload = the
    /// model's sequence number.
    fn schedule_both(q: &mut EventQueue<u64>, model: &mut Model, at: f64) {
        let seq = model.schedule(at);
        q.schedule(at, seq);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random schedule/pop interleavings pop exactly what the model
        /// pops, clock and length included — over equal-time bursts,
        /// zero delays, fractional and integer delays, 1e6 far-future
        /// jumps, and (in half the cases) more than 4,096 pending
        /// events from a quantised prefill.
        #[test]
        fn matches_linear_scan_model(
            prefill in prop_oneof![0usize..64, 4097usize..6000],
            ops in proptest::collection::vec((0u8..9, 0u32..1000), 0..600),
        ) {
            let mut q = EventQueue::new();
            let mut model = Model::default();
            for i in 0..prefill {
                schedule_both(&mut q, &mut model, (i * 7919 % 101) as f64 * 0.5);
            }
            for (kind, p) in ops {
                let now = model.now;
                match kind {
                    0..=2 => prop_assert_eq!(q.pop(), model.pop()),
                    3 => schedule_both(&mut q, &mut model, now),
                    4 => {
                        let at = now + (p % 5) as f64;
                        for _ in 0..=p % 8 {
                            schedule_both(&mut q, &mut model, at);
                        }
                    }
                    5 => schedule_both(&mut q, &mut model, now + (p % 100) as f64),
                    6 => schedule_both(&mut q, &mut model, now + p as f64 * 1e-3),
                    7 => schedule_both(&mut q, &mut model, now + 1e6 + (p % 3) as f64),
                    _ => schedule_both(&mut q, &mut model, now + (p % 3) as f64 * 2.5),
                }
                prop_assert_eq!(q.now(), model.now);
                prop_assert_eq!(q.len(), model.pending.len());
                prop_assert_eq!(q.peek_time(), model.peek_time());
            }
            // Drain: the model's remaining events in (at, seq) order.
            model
                .pending
                .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for &ev in &model.pending {
                prop_assert_eq!(q.pop(), Some(ev));
            }
            prop_assert_eq!(q.pop(), None);
        }
    }
}
