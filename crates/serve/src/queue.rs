//! A bounded MPMC queue with condvar wakeups: the admission-control point
//! between connection handlers (producers) and the micro-batching
//! dispatcher (consumer).
//!
//! `try_push` never blocks — a full queue is an *admission decision* (the
//! caller turns it into `429 Too Many Requests`), not back-pressure that
//! stalls the socket. The consumer side exposes both a blocking pop (for
//! the first job of a batch) and a non-blocking drain (for the rest),
//! which is what gives the dispatcher its natural batching window:
//! whatever queued while the previous batch was being served is
//! coalesced into the next one. The blocking pop sleeps on the condvar
//! until a push or [`BoundedQueue::close`], so an idle consumer never
//! wakes on its own.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Error returned by [`BoundedQueue::try_push`] on overflow, handing the
/// rejected item back to the caller.
#[derive(Debug)]
pub struct QueueFull<T>(pub T);

/// A fixed-capacity FIFO queue shared between threads.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    /// Set by [`BoundedQueue::close`]: blocked pops return once empty.
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `capacity` items.
    #[must_use]
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity.min(4096)),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// The configured bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().items.is_empty()
    }

    /// Enqueues without blocking; returns the post-push depth, or the item
    /// back inside [`QueueFull`] when at capacity.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] when the queue already holds `capacity` items.
    pub fn try_push(&self, item: T) -> Result<usize, QueueFull<T>> {
        let mut q = self.lock();
        if q.items.len() >= self.capacity {
            return Err(QueueFull(item));
        }
        q.items.push_back(item);
        let depth = q.items.len();
        drop(q);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Blocks until an item is available and returns it, or returns
    /// `None` once the queue is closed and empty. Items pushed before the
    /// close are still handed out, which is what lets a drain serve
    /// every admitted job.
    pub fn pop_wait(&self) -> Option<T> {
        let mut q = self.lock();
        loop {
            if let Some(item) = q.items.pop_front() {
                return Some(item);
            }
            if q.closed {
                return None;
            }
            q = neusight_guard::recover_poison(self.ready.wait(q));
        }
    }

    /// Closes the queue and wakes every blocked [`pop_wait`](Self::pop_wait).
    /// The flag is set under the lock, so a consumer about to wait cannot
    /// miss it.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Dequeues up to `max` items without blocking.
    pub fn drain_up_to(&self, max: usize) -> Vec<T> {
        let mut q = self.lock();
        let n = q.items.len().min(max);
        q.items.drain(..n).collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        // A producer that panicked mid-push poisons the mutex; the queue
        // state itself is still consistent (push_back/pop_front are not
        // interruptible between invariant-breaking steps), so recover and
        // count rather than cascading the panic to every other handler.
        neusight_guard::recover_poison(self.inner.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn admission_control_rejects_over_capacity() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        let QueueFull(rejected) = q.try_push(3).unwrap_err();
        assert_eq!(rejected, 3);
        assert_eq!(q.len(), 2);
        // Popping frees a slot.
        assert_eq!(q.pop_wait(), Some(1));
        assert_eq!(q.try_push(3).unwrap(), 2);
    }

    #[test]
    fn drain_preserves_fifo_order() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.drain_up_to(3), vec![0, 1, 2]);
        assert_eq!(q.drain_up_to(10), vec![3, 4]);
        assert!(q.drain_up_to(10).is_empty());
        assert!(q.is_empty());
    }

    #[test]
    fn pop_wait_wakes_on_push() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_wait())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(42).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(42));
    }

    #[test]
    fn close_wakes_a_blocked_pop_after_the_backlog() {
        let q = Arc::new(BoundedQueue::new(4));
        q.try_push(1).unwrap();
        q.close();
        // Items admitted before the close are still served...
        assert_eq!(q.pop_wait(), Some(1));
        // ...and then a closed, empty queue returns at once.
        assert_eq!(q.pop_wait(), None);
        let q: Arc<BoundedQueue<u8>> = Arc::new(BoundedQueue::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_wait())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }
}
