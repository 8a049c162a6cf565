//! A bounded multi-producer/multi-consumer queue with explicit
//! backpressure and graceful drain.
//!
//! `hetmem-serve` routes every request through one of these per worker
//! shard. Two properties matter for an online service:
//!
//! 1. **Backpressure is an error, not a wait**: [`BoundedQueue::try_push`]
//!    never blocks. When the queue is full the caller gets the item back
//!    ([`PushError::Overloaded`]) and turns it into a structured
//!    `overloaded` response — the paper's runtime answers `GetAllocation`
//!    at `cudaMalloc` time, so stalling the caller is worse than
//!    refusing.
//! 2. **Close drains**: after [`BoundedQueue::close`], pushes fail with
//!    [`PushError::Closed`] but consumers keep receiving queued items
//!    until the queue is empty, then get `None`. Shutdown therefore
//!    finishes every accepted request and loses none.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused; the rejected item is handed back.
///
/// Handing the item back is load-bearing, not a convenience: the
/// serve front ends thread a one-shot reply sink through each queued
/// job, and a refused push must return that sink intact so the
/// refusal can be *answered* (as `overloaded`/`shutting-down`) rather
/// than silently dropped. The event-driven core's completion
/// bookkeeping relies on every sink being consumed exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity — shed load.
    Overloaded(T),
    /// The queue was closed — the service is draining.
    Closed(T),
}

impl<T> PushError<T> {
    /// Recovers the rejected item.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Overloaded(item) | PushError::Closed(item) => item,
        }
    }
}

#[derive(Debug)]
struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue: non-blocking producers, blocking consumers,
/// close-and-drain shutdown.
///
/// # Examples
///
/// ```
/// use hetmem_harness::queue::{BoundedQueue, PushError};
///
/// let q = BoundedQueue::new(1);
/// q.try_push(1).unwrap();
/// assert!(matches!(q.try_push(2), Err(PushError::Overloaded(2))));
/// q.close();
/// assert!(matches!(q.try_push(3), Err(PushError::Closed(3))));
/// assert_eq!(q.pop(), Some(1)); // closed queues still drain
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<QueueInner<T>>,
    capacity: usize,
    not_empty: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
        }
    }

    /// Enqueues `item` without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Closed`] after [`close`](Self::close),
    /// [`PushError::Overloaded`] at capacity; both return the item.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Overloaded(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is empty and
    /// open. Returns `None` once the queue is closed **and** drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: future pushes fail, consumers drain what is
    /// already queued and then receive `None`.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .items
            .len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn overload_returns_item() {
        let q = BoundedQueue::new(2);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        match q.try_push("c") {
            Err(PushError::Overloaded(item)) => assert_eq!(item, "c"),
            other => panic!("expected overload, got {other:?}"),
        }
        // Popping frees a slot.
        assert_eq!(q.pop(), Some("a"));
        q.try_push("c").unwrap();
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3).unwrap_err().into_inner(), 3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "stays terminated");
    }

    #[test]
    fn blocked_consumers_wake_on_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        // Give consumers a moment to block, then close with one item.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.try_push(7).unwrap();
        q.close();
        let mut results: Vec<_> = consumers.into_iter().map(|c| c.join().unwrap()).collect();
        results.sort();
        assert_eq!(results, vec![None, None, Some(7)]);
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let q = Arc::new(BoundedQueue::new(16));
        let total = 400u64;
        let sum = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let counted = Arc::new(std::sync::atomic::AtomicU64::new(0));
        std::thread::scope(|scope| {
            let producers: Vec<_> = (0..4u64)
                .map(|t| {
                    let q = Arc::clone(&q);
                    scope.spawn(move || {
                        for i in 0..100u64 {
                            let mut item = t * 100 + i;
                            // Spin on overload: the test wants totals,
                            // the server sheds instead.
                            loop {
                                match q.try_push(item) {
                                    Ok(()) => break,
                                    Err(PushError::Overloaded(back)) => {
                                        item = back;
                                        std::thread::yield_now();
                                    }
                                    Err(PushError::Closed(_)) => panic!("closed early"),
                                }
                            }
                        }
                    })
                })
                .collect();
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    let q = Arc::clone(&q);
                    let sum = Arc::clone(&sum);
                    let counted = Arc::clone(&counted);
                    scope.spawn(move || {
                        while let Some(item) = q.pop() {
                            sum.fetch_add(item, std::sync::atomic::Ordering::Relaxed);
                            counted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            q.close();
            for c in consumers {
                c.join().unwrap();
            }
        });
        assert_eq!(counted.load(std::sync::atomic::Ordering::Relaxed), total);
        assert_eq!(
            sum.load(std::sync::atomic::Ordering::Relaxed),
            (0..total).sum::<u64>()
        );
    }
}
