//! A pre-allocated bounded queue for the I/O threads.
//!
//! `std::sync::mpsc` channels allocate per message (the modern std
//! implementation grows linked blocks), which would show up in the
//! `alloc_count` stat on every spill and read of the out-of-core hot
//! path. [`BoundedQueue`] instead stores messages in a ring buffer
//! allocated once at construction: `push`/`pop` in steady state touch
//! only a futex-backed mutex and two condvars, so submitting a write
//! job or recycling a buffer is allocation-free.
//!
//! The queue is multi-producer/multi-consumer (clone the handle), but
//! the engines use it as a simple SPSC pipe between the superstep
//! thread and a persistent I/O thread. Capacity doubles as the
//! backpressure bound of paper §3.3: with capacity 1 a producer can
//! fill the next buffer while the previous one drains, and submitting
//! a third blocks until the device catches up.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

struct State<T> {
    buf: VecDeque<T>,
    closed: bool,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

/// A bounded blocking queue backed by a ring buffer allocated once.
pub struct BoundedQueue<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for BoundedQueue<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` messages (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    buf: VecDeque::with_capacity(capacity),
                    closed: false,
                }),
                capacity,
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
            }),
        }
    }

    /// Blocks until space is available, then enqueues `item`. Returns
    /// the item back if the queue was closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.inner.state.lock();
        while state.buf.len() >= self.inner.capacity && !state.closed {
            self.inner.not_full.wait(&mut state);
        }
        if state.closed {
            return Err(item);
        }
        state.buf.push_back(item);
        self.inner.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues `item` without waiting for space: past the capacity the
    /// ring grows, allocating. Returns the item back if the queue was
    /// closed. For producers that bound the queue's length themselves.
    pub fn push_unbounded(&self, item: T) -> Result<(), T> {
        let mut state = self.inner.state.lock();
        if state.closed {
            return Err(item);
        }
        state.buf.push_back(item);
        self.inner.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues `item` only if space is immediately available; returns
    /// it back when the queue is full or closed. Used for buffer
    /// recycling, where dropping an over-budget buffer is preferable
    /// to blocking.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut state = self.inner.state.lock();
        if state.closed || state.buf.len() >= self.inner.capacity {
            return Err(item);
        }
        state.buf.push_back(item);
        self.inner.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until a message arrives, returning `None` once the queue
    /// is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.inner.state.lock();
        loop {
            if let Some(item) = state.buf.pop_front() {
                self.inner.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            self.inner.not_empty.wait(&mut state);
        }
    }

    /// Dequeues a message only if one is immediately available.
    pub fn try_pop(&self) -> Option<T> {
        let mut state = self.inner.state.lock();
        let item = state.buf.pop_front();
        if item.is_some() {
            self.inner.not_full.notify_one();
        }
        item
    }

    /// Closes the queue: pending messages remain poppable, further
    /// pushes fail, and blocked parties wake up.
    pub fn close(&self) {
        let mut state = self.inner.state.lock();
        state.closed = true;
        self.inner.not_empty.notify_all();
        self.inner.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_roundtrip() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn capacity_backpressure_blocks_until_pop() {
        let q = BoundedQueue::new(1);
        q.push(1u32).unwrap();
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.push(2).is_ok());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop(), Some(1));
        assert!(t.join().unwrap());
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn close_wakes_consumer_and_rejects_producers() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        q.push(7).unwrap();
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.pop());
        assert_eq!(t.join().unwrap(), Some(7));
        q.close();
        assert_eq!(q.push(8), Err(8));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn try_push_respects_capacity() {
        let q = BoundedQueue::new(1);
        assert!(q.try_push(1).is_ok());
        assert_eq!(q.try_push(2), Err(2));
    }

    #[test]
    fn steady_state_push_pop_is_allocation_free() {
        if !xstream_core::alloc_stats::run_alone(
            module_path!(),
            "steady_state_push_pop_is_allocation_free",
        ) {
            return;
        }
        let q = BoundedQueue::new(8);
        // Warm up (Arc and ring already allocated at construction).
        q.push(0u64).unwrap();
        q.pop();
        let clean = xstream_core::alloc_stats::any_allocation_free_window(50, || {
            for i in 0..8 {
                q.push(i).unwrap();
            }
            for _ in 0..8 {
                q.pop();
            }
        });
        assert!(clean, "bounded queue allocated in every window");
    }
}
