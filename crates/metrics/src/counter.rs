//! Lock-free counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter shared between task threads.
///
/// Uses `Relaxed` ordering: counts are statistical, and no other memory is
/// published through them, so there is nothing for stronger orderings to
/// synchronize.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter starting at zero.
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero, returning the previous value.
    #[inline]
    pub fn take(&self) -> u64 {
        self.value.swap(0, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_basic() {
        let c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.take(), 10);
        assert_eq!(c.get(), 0);
    }

    /// Pins the batched-increment contract the runtime's worker loop
    /// relies on: one `add(n)` per drained batch must be exactly
    /// equivalent to `n` `incr()`s, including under concurrency.
    #[test]
    fn add_matches_repeated_incr() {
        let batched = Counter::new();
        let scalar = Counter::new();
        for batch in [1u64, 16, 256, 1024] {
            batched.add(batch);
            for _ in 0..batch {
                scalar.incr();
            }
        }
        assert_eq!(batched.get(), scalar.get());
        assert_eq!(batched.get(), 1 + 16 + 256 + 1024);
    }

    #[test]
    fn add_across_threads_totals_exactly() {
        let c = Arc::new(Counter::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1_000 {
                    c.add(64); // one batch of 64 per "channel op"
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 8 * 1_000 * 64);
    }

    #[test]
    fn counter_across_threads() {
        let c = Arc::new(Counter::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.incr();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }
}
