//! The discrete-event calendar.
//!
//! A bucketed **timing wheel** for the near future plus a binary-heap
//! overflow for far-future events. Simulator latencies are a few hundred
//! cycles, so nearly every event lands in the wheel, where scheduling is
//! a linked-list append and popping is a bitmap scan — no comparison-heap
//! traffic on the hot path.
//!
//! Wheel events live in one **node slab**. Each bucket is a singly
//! linked FIFO threaded through the slab by `u32` indices (head and tail
//! per bucket), and popped nodes go onto a LIFO free list. A schedule
//! therefore writes the node the last pop freed (still cache-hot), and a
//! pop reads the bucket's head. The working set is one small node per
//! pending event, in a single allocation.
//!
//! Ordering is exactly the classic `(time, sequence)` heap contract:
//! events fire in time order, FIFO among equal timestamps, fully
//! deterministic. Two structural facts let the wheel preserve it
//! without storing sequence numbers:
//!
//! * The wheel spans `[now, now + WHEEL_BUCKETS)` and bucket index is
//!   `time % WHEEL_BUCKETS`, so a bucket holds at most one distinct
//!   timestamp and drains in insertion order.
//! * At a given timestamp `T`, every overflow-heap insertion happens
//!   while `now + WHEEL_BUCKETS <= T` and every wheel insertion while
//!   `now + WHEEL_BUCKETS > T`; `now` is monotonic, so all heap events
//!   at `T` were scheduled before all wheel events at `T`. Popping the
//!   heap first on timestamp ties therefore *is* FIFO order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Size of the timing wheel: events within this many cycles of `now` go
/// to O(1) buckets, the rest to the overflow heap. Power of two.
const WHEEL_BUCKETS: u64 = 4096;
const WHEEL_MASK: u64 = WHEEL_BUCKETS - 1;
/// Occupancy-bitmap words (64 bits each) covering the buckets.
const BITMAP_WORDS: usize = (WHEEL_BUCKETS / 64) as usize;
/// Null slab index: end of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// One slab entry. `event` is `None` exactly while the node is on the
/// free list; `next` links the node's bucket list or the free list.
#[derive(Debug)]
struct Node<E> {
    event: Option<E>,
    next: u32,
}

/// An event calendar over event payloads of type `E`.
///
/// # Examples
///
/// ```
/// use gpusim::engine::Calendar;
///
/// let mut cal: Calendar<&str> = Calendar::new();
/// cal.schedule(10, "b");
/// cal.schedule(5, "a");
/// cal.schedule(10, "c");
/// assert_eq!(cal.peek_time(), Some(5));
/// assert_eq!(cal.pop(), Some((5, "a")));
/// assert_eq!(cal.pop(), Some((10, "b"))); // FIFO among equal times
/// assert_eq!(cal.pop(), Some((10, "c")));
/// assert_eq!(cal.pop(), None);
/// ```
#[derive(Debug)]
pub struct Calendar<E> {
    /// Wheel event storage; grows to the peak number of pending wheel
    /// events and is recycled through `free` from then on.
    nodes: Vec<Node<E>>,
    /// Head of the LIFO free list of `nodes`.
    free: u32,
    /// Per bucket `[head, tail]` node indices; `head == NIL` when empty.
    /// Bucket `time & WHEEL_MASK` holds the events at the unique
    /// in-window timestamp mapping there.
    ends: Box<[[u32; 2]; WHEEL_BUCKETS as usize]>,
    /// One bit per bucket: does it hold events?
    occupied: [u64; BITMAP_WORDS],
    /// One bit per `occupied` word: is the word nonzero?
    summary: u64,
    /// Events in the wheel (not counting the heap).
    wheel_len: usize,
    /// Far-future events, keyed `(time, seq)`.
    heap: BinaryHeap<Reverse<(u64, u64, EventBox<E>)>>,
    seq: u64,
    now: u64,
    pops: u64,
}

/// Counters describing one engine run, for throughput benchmarking
/// (perfbench's `gpusim.events`). Not part of [`SimReport`](crate::SimReport): the
/// report stays byte-identical whether or not anyone reads these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total events popped from the calendar over the run.
    pub events_processed: u64,
}

/// Wrapper giving the payload a no-op ordering so the heap orders only on
/// `(time, seq)`.
#[derive(Debug)]
struct EventBox<E>(E);

impl<E> PartialEq for EventBox<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for EventBox<E> {}
impl<E> PartialOrd for EventBox<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for EventBox<E> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E> Calendar<E> {
    /// Creates an empty calendar at time 0.
    pub fn new() -> Self {
        Calendar {
            nodes: Vec::new(),
            free: NIL,
            ends: Box::new([[NIL; 2]; WHEEL_BUCKETS as usize]),
            occupied: [0; BITMAP_WORDS],
            summary: 0,
            wheel_len: 0,
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
            pops: 0,
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to the current time (the event
    /// fires "now", after already-pending events at this time).
    #[inline]
    pub fn schedule(&mut self, at: u64, event: E) {
        let at = at.max(self.now);
        if at - self.now < WHEEL_BUCKETS {
            let idx = self.alloc(event);
            let b = (at & WHEEL_MASK) as usize;
            let [head, tail] = self.ends[b];
            if head == NIL {
                self.ends[b] = [idx, idx];
                self.occupied[b >> 6] |= 1u64 << (b & 63);
                self.summary |= 1u64 << (b >> 6);
            } else {
                self.nodes[tail as usize].next = idx;
                self.ends[b][1] = idx;
            }
            self.wheel_len += 1;
        } else {
            self.heap.push(Reverse((at, self.seq, EventBox(event))));
        }
        self.seq += 1;
    }

    /// Stores `event` in the most recently freed node (or a new one) and
    /// returns its index, unlinked.
    #[inline]
    fn alloc(&mut self, event: E) -> u32 {
        let idx = self.free;
        if idx == NIL {
            let idx = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("calendar slab exceeds u32 indices");
            self.nodes.push(Node {
                event: Some(event),
                next: NIL,
            });
            idx
        } else {
            let node = &mut self.nodes[idx as usize];
            self.free = node.next;
            node.event = Some(event);
            node.next = NIL;
            idx
        }
    }

    /// Schedules `event` `delta` cycles from now — the common hot-path
    /// form (`schedule(now + delta, ..)` inside an event handler).
    #[inline]
    pub fn schedule_in(&mut self, delta: u64, event: E) {
        self.schedule(self.now + delta, event);
    }

    /// First occupied bucket index at or (circularly) after `start`,
    /// via the two-level bitmap. `None` when the wheel is empty.
    #[inline]
    fn next_occupied(&self, start: usize) -> Option<usize> {
        if self.wheel_len == 0 {
            return None;
        }
        let wi = start >> 6;
        let bit = start & 63;
        // Tail of the starting word (bits >= `bit`).
        let tail = self.occupied[wi] & (!0u64 << bit);
        if tail != 0 {
            return Some((wi << 6) + tail.trailing_zeros() as usize);
        }
        // Words strictly after `wi`, then (wrapping) strictly before it.
        let after = if wi == 63 {
            0
        } else {
            self.summary & (!0u64 << (wi + 1))
        };
        let candidates = if after != 0 {
            after
        } else {
            self.summary & ((1u64 << wi) - 1)
        };
        if candidates != 0 {
            let word = candidates.trailing_zeros() as usize;
            return Some((word << 6) + self.occupied[word].trailing_zeros() as usize);
        }
        // Only the starting word's head (bits < `bit`) can remain.
        let head = self.occupied[wi] & !(!0u64 << bit);
        debug_assert!(head != 0, "wheel_len > 0 but bitmap empty");
        Some((wi << 6) + head.trailing_zeros() as usize)
    }

    /// Timestamp of the earliest wheel event, if any.
    #[inline]
    fn wheel_next_time(&self) -> Option<u64> {
        let start = (self.now & WHEEL_MASK) as usize;
        let b = self.next_occupied(start)?;
        // Buckets map injectively onto [now, now + WHEEL_BUCKETS), so the
        // circular bucket distance from `now` is the time delta.
        Some(self.now + ((b as u64).wrapping_sub(self.now) & WHEEL_MASK))
    }

    /// Pops the next event, advancing the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, E)> {
        let wheel_t = self.wheel_next_time();
        let heap_t = self.heap.peek().map(|Reverse((t, ..))| *t);
        match (wheel_t, heap_t) {
            (None, None) => None,
            // On equal timestamps the heap must win: its events were
            // scheduled first (see module docs), so this is FIFO order.
            (Some(wt), Some(ht)) if ht <= wt => self.pop_heap(),
            (None, Some(_)) => self.pop_heap(),
            (Some(wt), _) => Some(self.pop_wheel(wt)),
        }
    }

    fn pop_heap(&mut self) -> Option<(u64, E)> {
        let Reverse((at, _, EventBox(event))) = self.heap.pop()?;
        self.now = at;
        self.pops += 1;
        Some((at, event))
    }

    #[inline]
    fn pop_wheel(&mut self, at: u64) -> (u64, E) {
        let b = (at & WHEEL_MASK) as usize;
        let idx = self.ends[b][0];
        let node = &mut self.nodes[idx as usize];
        let event = node.event.take().expect("occupied bucket");
        let next = std::mem::replace(&mut node.next, self.free);
        self.free = idx;
        self.ends[b][0] = next;
        if next == NIL {
            self.occupied[b >> 6] &= !(1u64 << (b & 63));
            if self.occupied[b >> 6] == 0 {
                self.summary &= !(1u64 << (b >> 6));
            }
        }
        self.wheel_len -= 1;
        self.now = at;
        self.pops += 1;
        (at, event)
    }

    /// Timestamp of the next event without popping it, or `None` when
    /// the calendar is empty.
    pub fn peek_time(&self) -> Option<u64> {
        let wheel_t = self.wheel_next_time();
        let heap_t = self.heap.peek().map(|Reverse((t, ..))| *t);
        match (wheel_t, heap_t) {
            (Some(w), Some(h)) => Some(w.min(h)),
            (a, b) => a.or(b),
        }
    }

    /// Total events popped since construction.
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// The current simulation time (timestamp of the last popped event).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slab nodes allocated so far: the peak number of events that were
    /// pending in the wheel at once.
    pub fn slab_len(&self) -> usize {
        self.nodes.len()
    }
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Calendar::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(30, 3);
        cal.schedule(10, 1);
        cal.schedule(20, 2);
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut cal = Calendar::new();
        for i in 0..100 {
            cal.schedule(42, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut cal = Calendar::new();
        cal.schedule(7, ());
        assert_eq!(cal.now(), 0);
        cal.pop();
        assert_eq!(cal.now(), 7);
    }

    #[test]
    fn past_scheduling_is_clamped() {
        let mut cal = Calendar::new();
        cal.schedule(100, "late");
        cal.pop();
        cal.schedule(50, "too-early");
        let (at, e) = cal.pop().unwrap();
        assert_eq!(at, 100);
        assert_eq!(e, "too-early");
    }

    #[test]
    fn len_and_is_empty() {
        let mut cal = Calendar::new();
        assert!(cal.is_empty());
        cal.schedule(1, ());
        assert_eq!(cal.len(), 1);
        cal.pop();
        assert!(cal.is_empty());
    }

    #[test]
    fn far_future_events_take_the_overflow_path() {
        let mut cal = Calendar::new();
        cal.schedule(WHEEL_BUCKETS * 10, "far");
        cal.schedule(3, "near");
        assert_eq!(cal.len(), 2);
        assert_eq!(cal.pop(), Some((3, "near")));
        assert_eq!(cal.pop(), Some((WHEEL_BUCKETS * 10, "far")));
        assert!(cal.is_empty());
    }

    #[test]
    fn heap_and_wheel_interleave_fifo_on_equal_times() {
        // "a" is scheduled while T is out of the window (heap); "b" at the
        // same T once the window has advanced (wheel). FIFO demands a, b.
        let mut cal = Calendar::new();
        let t = WHEEL_BUCKETS + 100;
        cal.schedule(t, "a");
        cal.schedule(200, "step");
        assert_eq!(cal.pop(), Some((200, "step")));
        cal.schedule(t, "b"); // t - now < WHEEL_BUCKETS: wheel path
        assert_eq!(cal.pop(), Some((t, "a")));
        assert_eq!(cal.pop(), Some((t, "b")));
    }

    #[test]
    fn wheel_wraparound_keeps_order() {
        // March far past several wheel revolutions with varying strides.
        let mut cal = Calendar::new();
        let mut expect = Vec::new();
        let mut t = 0u64;
        for i in 0..10_000u64 {
            t += (i * 37) % 97 + 1;
            cal.schedule(t, i);
            expect.push((t, i));
        }
        let got: Vec<(u64, u64)> = std::iter::from_fn(|| cal.pop()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn stress_matches_reference_heap() {
        // Mixed schedule/pop traffic vs a (time, seq) reference heap.
        let mut cal = Calendar::new();
        let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut rng = 0x1234_5678_9abc_def0u64;
        let mut next = |m: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % m
        };
        let mut seq = 0u64;
        for round in 0..50_000 {
            if next(3) > 0 || reference.is_empty() {
                // Mix near (wheel) and far (heap) horizons; repeat
                // timestamps often enough to exercise tie-breaking.
                let delta = if next(10) == 0 {
                    WHEEL_BUCKETS + next(20_000)
                } else {
                    next(600)
                };
                let at = cal.now() + delta;
                cal.schedule(at, seq);
                reference.push(Reverse((at, seq)));
                seq += 1;
            } else {
                let got = cal.pop();
                let Reverse((at, id)) = reference.pop().unwrap();
                assert_eq!(got, Some((at, id)), "round {round}");
            }
        }
        while let Some(Reverse((at, id))) = reference.pop() {
            assert_eq!(cal.pop(), Some((at, id)));
        }
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn slab_reuses_freed_nodes() {
        // A steady schedule-one/pop-one stream never holds more than two
        // events, so the slab must stay at two nodes however long it runs.
        let mut cal = Calendar::new();
        cal.schedule(0, 0u64);
        for i in 1..10_000u64 {
            cal.schedule_in(i % 7, i);
            cal.pop();
        }
        assert_eq!(cal.slab_len(), 2);
        // The most recently freed node is written first (LIFO).
        cal.pop();
        let freed = cal.free;
        assert_ne!(freed, NIL);
        cal.schedule_in(3, 99);
        assert_eq!(
            cal.ends[((cal.now() + 3) & WHEEL_MASK) as usize],
            [freed, freed]
        );
    }

    #[test]
    fn peek_time_is_non_mutating() {
        let mut cal = Calendar::new();
        assert_eq!(cal.peek_time(), None);
        cal.schedule(9, "x");
        cal.schedule(WHEEL_BUCKETS * 2, "y");
        assert_eq!(cal.peek_time(), Some(9));
        assert_eq!(cal.peek_time(), Some(9));
        assert_eq!(cal.len(), 2);
        cal.pop();
        assert_eq!(cal.peek_time(), Some(WHEEL_BUCKETS * 2));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut cal = Calendar::new();
        cal.schedule(100, "a");
        cal.pop();
        cal.schedule_in(5, "b");
        assert_eq!(cal.pop(), Some((105, "b")));
    }
}
