//! Bounded single-producer/single-consumer ring buffer — the transport
//! between host worker threads (and from the coordinator's source emitters
//! into the workers). Lock-free Lamport queue: the producer only writes
//! `tail`, the consumer only writes `head`, so a release store on one side
//! paired with an acquire load on the other is the whole protocol.
//!
//! Two throughput refinements over the textbook queue, both invisible to
//! the protocol:
//!
//! * **Cache-line padding.** `head` and `tail` live on separate cache
//!   lines (`CachePadded`), so the producer's tail stores never
//!   invalidate the line the consumer is spinning on (and vice versa).
//! * **Cached remote indices.** Each end keeps a private copy of its own
//!   index (only it ever writes it) plus a *cached* snapshot of the remote
//!   one. The remote index is reloaded only on apparent-full /
//!   apparent-empty, so in the common case a push or pop touches exactly
//!   one atomic (its own release store) instead of two.
//!
//! On top of the scalar [`Producer::push`]/[`Consumer::pop`], the batched
//! [`Producer::push_slice`], [`Consumer::drain_slices`] and
//! [`Consumer::drain_into`] move a whole batch per release store, as at
//! most two contiguous copies (the part up to the end of the buffer and
//! the part that wrapped) — the live engine forwards each replica's output
//! batch with one `push_slice` and drains each input ring straight into
//! its port queue with one `drain_slices` per pass.
//!
//! Overflow never blocks: [`Producer::push`] returns the rejected value,
//! [`Producer::push_slice`] the accepted count, and the caller counts the
//! remainder as transport drops, mirroring the drop-on-overflow semantics
//! of the simulator's bounded ports.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pads and aligns its contents to a 64-byte cache line so two adjacent
/// atomics never share a line (false sharing kills SPSC throughput: every
/// store by one side would invalidate the other side's cached line).
#[repr(align(64))]
struct CachePadded<T>(T);

struct Ring<T> {
    mask: usize,
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot the consumer will read (only the consumer stores it).
    head: CachePadded<AtomicUsize>,
    /// Next slot the producer will write (only the producer stores it).
    tail: CachePadded<AtomicUsize>,
}

// Safety: the Producer/Consumer split guarantees at most one thread touches
// each end; the atomics order the slot accesses between the two threads.
unsafe impl<T: Send> Sync for Ring<T> {}
unsafe impl<T: Send> Send for Ring<T> {}

impl<T> Ring<T> {
    fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(2).next_power_of_two();
        let buf = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            mask: cap - 1,
            buf,
            head: CachePadded(AtomicUsize::new(0)),
            tail: CachePadded(AtomicUsize::new(0)),
        }
    }

    fn len(&self) -> usize {
        self.tail
            .0
            .load(Ordering::Acquire)
            .wrapping_sub(self.head.0.load(Ordering::Acquire))
    }

    /// The slot array as one `T` pointer, derived from the whole buffer so
    /// it may address a run of slots. `UnsafeCell` and `MaybeUninit` are
    /// both `repr(transparent)`, so slot `i` is `slots().add(i)`; writing
    /// through it is what the `UnsafeCell` grants.
    #[inline]
    fn slots(&self) -> *mut T {
        UnsafeCell::raw_get(self.buf.as_ptr()).cast::<T>()
    }

    /// Split the run of `n <= capacity` slots starting at index `at` into
    /// its part up to the end of the buffer and the part that wrapped to
    /// the front: `(start, first, second)` with `first + second == n`.
    #[inline]
    fn regions(&self, at: usize, n: usize) -> (usize, usize, usize) {
        let start = at & self.mask;
        let first = n.min(self.mask + 1 - start);
        (start, first, n - first)
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // &mut self: both ends are gone, plain loads suffice.
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        for i in head..tail {
            unsafe { (*self.buf[i & self.mask].get()).assume_init_drop() };
        }
    }
}

/// The write end of a bounded SPSC ring (exactly one per ring).
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
    /// Private copy of `ring.tail` (this end is its only writer).
    tail: usize,
    /// Last observed consumer head; refreshed only on apparent-full.
    cached_head: usize,
}

/// The read end of a bounded SPSC ring (exactly one per ring).
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
    /// Private copy of `ring.head` (this end is its only writer).
    head: usize,
    /// Last observed producer tail; refreshed only on apparent-empty.
    cached_tail: usize,
}

/// Create a bounded SPSC channel with room for at least `cap` items
/// (rounded up to a power of two).
pub fn channel<T: Send>(cap: usize) -> (Producer<T>, Consumer<T>) {
    let ring = Arc::new(Ring::with_capacity(cap));
    (
        Producer {
            ring: ring.clone(),
            tail: 0,
            cached_head: 0,
        },
        Consumer {
            ring,
            head: 0,
            cached_tail: 0,
        },
    )
}

impl<T: Send> Producer<T> {
    /// Free slots from this end's view, reloading the consumer's head only
    /// when the cached snapshot cannot satisfy `want` slots.
    #[inline]
    fn free_slots(&mut self, want: usize) -> usize {
        let cap = self.ring.mask + 1;
        let free = cap - self.tail.wrapping_sub(self.cached_head);
        if free >= want {
            return free;
        }
        self.cached_head = self.ring.head.0.load(Ordering::Acquire);
        cap - self.tail.wrapping_sub(self.cached_head)
    }

    /// Append `v`; on a full ring the value comes back as `Err` and the
    /// caller decides (the runtime counts it as a transport drop).
    pub fn push(&mut self, v: T) -> Result<(), T> {
        if self.free_slots(1) == 0 {
            return Err(v);
        }
        unsafe { (*self.ring.buf[self.tail & self.ring.mask].get()).write(v) };
        self.tail = self.tail.wrapping_add(1);
        self.ring.tail.0.store(self.tail, Ordering::Release);
        Ok(())
    }

    /// Append as much of `vals` as fits (in order) and return the accepted
    /// count; the caller counts `vals.len() - accepted` as transport drops.
    /// One release store publishes the whole batch.
    pub fn push_slice(&mut self, vals: &[T]) -> usize
    where
        T: Copy,
    {
        let n = vals.len().min(self.free_slots(vals.len()));
        if n == 0 {
            return 0;
        }
        let (start, first, second) = self.ring.regions(self.tail, n);
        let slots = self.ring.slots();
        // SAFETY: `free_slots` bounds `n` by the slots between `tail` and
        // the consumer's head one lap on, which the consumer does not read
        // until the release store below publishes them; `regions` keeps
        // both runs inside the buffer (`start + first <= capacity`,
        // `second <= start`), and `vals` is a caller's slice, disjoint from
        // the ring's allocation. `T: Copy`, so the old slot contents need
        // no drop.
        unsafe {
            ptr::copy_nonoverlapping(vals.as_ptr(), slots.add(start), first);
            ptr::copy_nonoverlapping(vals.as_ptr().add(first), slots, second);
        }
        self.tail = self.tail.wrapping_add(n);
        self.ring.tail.0.store(self.tail, Ordering::Release);
        n
    }

    /// Items currently queued (racy snapshot).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no items are queued (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Send> Consumer<T> {
    /// Readable items from this end's view, reloading the producer's tail
    /// only when the cached snapshot says the ring looks empty.
    #[inline]
    fn available(&mut self) -> usize {
        let avail = self.cached_tail.wrapping_sub(self.head);
        if avail > 0 {
            return avail;
        }
        self.cached_tail = self.ring.tail.0.load(Ordering::Acquire);
        self.cached_tail.wrapping_sub(self.head)
    }

    /// Take the oldest item, if any.
    pub fn pop(&mut self) -> Option<T> {
        if self.available() == 0 {
            return None;
        }
        let v = unsafe { (*self.ring.buf[self.head & self.ring.mask].get()).assume_init_read() };
        self.head = self.head.wrapping_add(1);
        self.ring.head.0.store(self.head, Ordering::Release);
        Some(v)
    }

    /// The one consumer-side batch operation: hand every currently
    /// visible item to `f` in FIFO order as at most two contiguous slices
    /// (the second one only when the run wraps past the end of the
    /// buffer), then free the whole run for the producer with one release
    /// store. Always refreshes the cached tail (a drain wants everything
    /// published so far). Returns the number of items handed over.
    ///
    /// The items count as *moved out* once `f` has seen them — the ring
    /// never drops them — so `f` must take them by bitwise copy.
    fn take_slices(&mut self, mut f: impl FnMut(&[T])) -> usize {
        self.cached_tail = self.ring.tail.0.load(Ordering::Acquire);
        let n = self.cached_tail.wrapping_sub(self.head);
        if n == 0 {
            return 0;
        }
        let (start, first, second) = self.ring.regions(self.head, n);
        let slots = self.ring.slots();
        // SAFETY: the acquire load above makes the producer's writes to
        // the `n` slots from `head` visible and initialised, and the
        // producer does not write them again until the release store
        // below; `regions` keeps both runs inside the buffer.
        unsafe {
            f(std::slice::from_raw_parts(slots.add(start), first));
            if second > 0 {
                f(std::slice::from_raw_parts(slots, second));
            }
        }
        self.head = self.head.wrapping_add(n);
        self.ring.head.0.store(self.head, Ordering::Release);
        n
    }

    /// Hand every currently visible item to `f`, in FIFO order, as at most
    /// two contiguous slices, and return how many there were — a drain
    /// with no staging buffer: the live worker's `f` offers each slice
    /// straight to an input-port queue.
    pub fn drain_slices(&mut self, f: impl FnMut(&[T])) -> usize
    where
        T: Copy,
    {
        self.take_slices(f)
    }

    /// Move every currently visible item into `out` (appending, FIFO
    /// order) and return how many were moved.
    pub fn drain_into(&mut self, out: &mut Vec<T>) -> usize {
        self.take_slices(|items| {
            out.reserve(items.len());
            // SAFETY: `reserve` made room for `items.len()` more elements
            // past `out.len()`; the copy moves the items out of the ring
            // (see `take_slices`), so each has exactly one owner again
            // once `set_len` covers it.
            unsafe {
                ptr::copy_nonoverlapping(
                    items.as_ptr(),
                    out.as_mut_ptr().add(out.len()),
                    items.len(),
                );
                out.set_len(out.len() + items.len());
            }
        })
    }

    /// Items currently queued (racy snapshot).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no items are queued (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_overflow() {
        let (mut tx, mut rx) = channel::<u32>(4);
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(99), Err(99));
        assert_eq!(rx.pop(), Some(0));
        tx.push(4).unwrap();
        let rest: Vec<u32> = std::iter::from_fn(|| rx.pop()).collect();
        assert_eq!(rest, vec![1, 2, 3, 4]);
        assert!(rx.pop().is_none());
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (mut tx, rx) = channel::<u8>(5);
        let mut accepted = 0;
        while tx.push(0).is_ok() {
            accepted += 1;
        }
        assert_eq!(accepted, 8);
        assert_eq!(rx.len(), 8);
    }

    #[test]
    fn push_slice_accepts_up_to_capacity() {
        let (mut tx, mut rx) = channel::<u32>(4);
        assert_eq!(tx.push_slice(&[0, 1]), 2);
        // Only two slots left: the tail of the batch is rejected.
        assert_eq!(tx.push_slice(&[2, 3, 4, 5]), 2);
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(tx.push_slice(&[]), 0);
    }

    #[test]
    fn drain_into_appends_and_wraps() {
        let (mut tx, mut rx) = channel::<u64>(4);
        let mut out = vec![99];
        // Cycle the ring a few times so head/tail wrap past the capacity.
        for round in 0..5u64 {
            let base = round * 3;
            assert_eq!(tx.push_slice(&[base, base + 1, base + 2]), 3);
            rx.drain_into(&mut out);
        }
        assert_eq!(out.len(), 1 + 15);
        assert_eq!(out[0], 99);
        assert!(out[1..].iter().copied().eq(0..15));
    }

    #[test]
    fn drain_slices_hands_over_one_run_in_at_most_two_slices() {
        let (mut tx, mut rx) = channel::<u32>(4);
        let mut seen: Vec<Vec<u32>> = Vec::new();
        // Empty ring: nothing is handed over.
        assert_eq!(rx.drain_slices(|s| seen.push(s.to_vec())), 0);
        assert!(seen.is_empty());
        // Full ring from slot 0: one contiguous slice.
        assert_eq!(tx.push_slice(&[0, 1, 2, 3, 4]), 4);
        assert_eq!(rx.drain_slices(|s| seen.push(s.to_vec())), 4);
        assert_eq!(seen, vec![vec![0, 1, 2, 3]]);
        // Full ring from slot 2: the run wraps, so do the copies in and out.
        assert_eq!(tx.push_slice(&[4, 5]), 2);
        assert_eq!(rx.pop(), Some(4));
        assert_eq!(rx.pop(), Some(5));
        assert_eq!(tx.push_slice(&[6, 7, 8, 9]), 4);
        seen.clear();
        assert_eq!(rx.drain_slices(|s| seen.push(s.to_vec())), 4);
        assert_eq!(seen, vec![vec![6, 7], vec![8, 9]]);
        // The drained slots are free again.
        assert_eq!(tx.push_slice(&[10, 11, 12, 13]), 4);
        assert_eq!(rx.len(), 4);
    }

    #[test]
    fn cross_thread_transfer_preserves_every_item() {
        let (mut tx, mut rx) = channel::<u64>(64);
        // Interpreted, every push is a thousand times slower.
        let n = if cfg!(miri) { 2_000u64 } else { 100_000u64 };
        let producer = std::thread::spawn(move || {
            let mut dropped = 0u64;
            for i in 0..n {
                let mut v = i;
                loop {
                    match tx.push(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            dropped += 1;
                            std::thread::yield_now();
                        }
                    }
                }
            }
            dropped
        });
        let mut got = 0u64;
        let mut next = 0u64;
        while got < n {
            if let Some(v) = rx.pop() {
                assert_eq!(v, next, "items must arrive in order");
                next += 1;
                got += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert!(rx.pop().is_none());
    }

    #[test]
    fn drop_releases_queued_items() {
        let (mut tx, rx) = channel::<String>(8);
        tx.push("a".to_owned()).unwrap();
        tx.push("b".to_owned()).unwrap();
        drop(tx);
        drop(rx); // Ring::drop must free the two queued strings (miri-clean).
    }
}
