//! Oracle checks and the attempted / failed tally.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// An element the self-tests can corrupt in place.
pub trait Corrupt {
    /// Changes the value so that it no longer equals the original.
    fn corrupt(&mut self);
}

impl Corrupt for u32 {
    fn corrupt(&mut self) {
        *self ^= 1;
    }
}

/// Keyed records corrupt their payload, the part only a stability break
/// would change.
impl Corrupt for (u32, u32) {
    fn corrupt(&mut self) {
        self.1 ^= 1;
    }
}

/// Counts every checked op, and the ones that failed. Shared by the
/// client threads of a run.
#[derive(Debug, Default)]
pub struct Checker {
    attempted: AtomicU64,
    failed: AtomicU64,
    corrupt_pending: AtomicBool,
}

impl Checker {
    /// A checker; with `corrupt`, the first output it checks has one
    /// element changed first.
    pub fn new(corrupt: bool) -> Self {
        Checker {
            corrupt_pending: AtomicBool::new(corrupt),
            ..Checker::default()
        }
    }

    /// Counts one op whose output `got` must equal `want`.
    pub fn check<T: PartialEq + Corrupt>(&self, got: &mut [T], want: &[T]) -> bool {
        if self.corrupt_pending.swap(false, Ordering::Relaxed) {
            if let Some(x) = got.first_mut() {
                x.corrupt();
            }
        }
        self.record(got == want)
    }

    /// Counts one op that succeeded (`ok`) or failed without an output to
    /// compare (an error status, a protocol error, a timeout).
    pub fn record(&self, ok: bool) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Counts ops another process checked: `attempted`, of which `failed`
    /// failed.
    pub fn absorb(&self, attempted: u64, failed: u64) {
        self.attempted.fetch_add(attempted, Ordering::Relaxed);
        self.failed.fetch_add(failed, Ordering::Relaxed);
    }

    /// Ops checked so far.
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    /// Ops that failed so far.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}
