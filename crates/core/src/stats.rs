//! Lightweight instrumentation counters for the complexity experiments.
//!
//! The complexity claims of §III (time `O(N/p + log N)`, work
//! `O(N + p·log N)`) are validated empirically by counting comparisons. The
//! counters here are designed so that instrumentation is *opt-in*: the hot
//! kernels take an arbitrary comparator, and a [`CountingCmp`] wraps any
//! comparator with a relaxed atomic increment. Production call sites simply
//! do not wrap.

use core::cell::Cell;
use core::cmp::Ordering;
use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};

/// Number of counter shards in a [`CountingCmp`]. Threads are assigned
/// shards round-robin, so with up to 16 concurrently counting threads no
/// two share a cache line; beyond that the counter stays correct and
/// merely loses some of the padding benefit.
const COUNTER_SHARDS: usize = 16;

/// One cache-line-padded counter slot. 128-byte alignment covers the
/// spatial-prefetcher pair of 64-byte lines on current x86 parts.
#[derive(Debug, Default)]
#[repr(align(128))]
struct CounterShard {
    count: AtomicU64,
}

/// Dense per-thread shard assignment: each thread picks a slot once
/// (round-robin over a process-global counter) and keeps it for life, so a
/// thread's increments always hit the same padded line.
fn counter_shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: Cell<Option<usize>> = const { Cell::new(None) };
    }
    SHARD.with(|slot| match slot.get() {
        Some(i) => i,
        None => {
            let i = NEXT.fetch_add(1, AtomicOrdering::Relaxed) % COUNTER_SHARDS;
            slot.set(Some(i));
            i
        }
    })
}

/// A comparator adapter that counts invocations.
///
/// # Examples
/// ```
/// use mergepath::stats::CountingCmp;
/// use mergepath::merge::sequential::merge_into_by;
/// let counter = CountingCmp::new();
/// let mut out = [0; 4];
/// merge_into_by(&[1, 3], &[2, 4], &mut out, &counter.cmp_fn::<i32>());
/// assert!(counter.count() >= 3);
/// ```
///
/// The count is **sharded**: each thread increments its own
/// cache-line-padded relaxed [`AtomicU64`] slot, and [`CountingCmp::count`]
/// sums the slots. A single adapter can therefore be shared by every thread
/// of a parallel merge without the increments serializing the kernel on one
/// contended cache line (false sharing). Relaxed ordering is sufficient
/// because the total is only read after the threads have been joined (the
/// join imposes the necessary happens-before edge).
#[derive(Debug, Default)]
pub struct CountingCmp {
    shards: [CounterShard; COUNTER_SHARDS],
}

impl CountingCmp {
    /// Creates a fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn bump(&self) {
        self.shards[counter_shard_index()]
            .count
            .fetch_add(1, AtomicOrdering::Relaxed);
    }

    /// Returns a comparator closure for `T: Ord` that bumps this counter.
    pub fn cmp_fn<T: Ord>(&self) -> impl Fn(&T, &T) -> Ordering + Sync + '_ {
        move |x: &T, y: &T| {
            self.bump();
            x.cmp(y)
        }
    }

    /// Wraps an arbitrary comparator.
    pub fn wrap<'s, T, F>(&'s self, inner: F) -> impl Fn(&T, &T) -> Ordering + Sync + 's
    where
        F: Fn(&T, &T) -> Ordering + Sync + 's,
    {
        move |x: &T, y: &T| {
            self.bump();
            inner(x, y)
        }
    }

    /// Number of comparisons observed so far (sum over the shards).
    pub fn count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.count.load(AtomicOrdering::Relaxed))
            .sum()
    }

    /// Resets the counter to zero and returns the previous value.
    pub fn reset(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.count.swap(0, AtomicOrdering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_cmp_counts_and_resets() {
        let counter = CountingCmp::new();
        let cmp = counter.cmp_fn::<i32>();
        assert_eq!(cmp(&1, &2), Ordering::Less);
        assert_eq!(cmp(&2, &2), Ordering::Equal);
        assert_eq!(cmp(&3, &2), Ordering::Greater);
        drop(cmp);
        assert_eq!(counter.count(), 3);
        assert_eq!(counter.reset(), 3);
        assert_eq!(counter.count(), 0);
    }

    #[test]
    fn counting_cmp_wrap_preserves_semantics() {
        let counter = CountingCmp::new();
        let reverse = |x: &i32, y: &i32| y.cmp(x);
        let cmp = counter.wrap(reverse);
        assert_eq!(cmp(&1, &2), Ordering::Greater);
        drop(cmp);
        assert_eq!(counter.count(), 1);
    }

    #[test]
    fn counting_cmp_is_shareable_across_threads() {
        let counter = CountingCmp::new();
        let cmp = counter.cmp_fn::<u64>();
        crate::executor::global().run_indexed(4, &|_share| {
            for i in 0..1000u64 {
                let _ = cmp(&i, &(i + 1));
            }
        });
        drop(cmp);
        assert_eq!(counter.count(), 4000);
    }

    #[test]
    fn counting_cmp_shards_sum_across_native_threads() {
        let counter = std::sync::Arc::new(CountingCmp::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let counter = std::sync::Arc::clone(&counter);
                std::thread::spawn(move || {
                    let cmp = counter.cmp_fn::<u32>();
                    for i in 0..500u32 {
                        let _ = cmp(&i, &(i + 1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("counting thread panicked");
        }
        assert_eq!(counter.count(), 8 * 500);
        assert_eq!(counter.reset(), 8 * 500);
        assert_eq!(counter.count(), 0);
    }

    #[test]
    fn counter_shards_are_cache_line_padded() {
        assert!(core::mem::align_of::<CounterShard>() >= 128);
        assert!(core::mem::size_of::<CountingCmp>() >= COUNTER_SHARDS * 128);
    }
}
