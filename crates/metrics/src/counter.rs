//! Lock-free counters and windowed rate meters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

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

/// Produces a throughput timeline by sampling a [`Counter`] at wall-clock
/// instants: each call to [`RateMeter::sample`] appends one
/// `(seconds_since_start, events_per_second)` point.
#[derive(Debug)]
pub struct RateMeter {
    started: Instant,
    inner: Mutex<RateInner>,
}

#[derive(Debug)]
struct RateInner {
    last_at: f64,
    last_count: u64,
    points: Vec<(f64, f64)>,
}

impl RateMeter {
    /// Creates a meter anchored at "now".
    pub fn new() -> Self {
        RateMeter {
            started: Instant::now(),
            inner: Mutex::new(RateInner {
                last_at: 0.0,
                last_count: 0,
                points: Vec::new(),
            }),
        }
    }

    /// Records one rate point from the counter's current value.
    ///
    /// Returns the instantaneous rate (events/second since the previous
    /// sample). Samples closer than 1 ms apart are folded into the previous
    /// point to avoid divide-by-nearly-zero spikes.
    pub fn sample(&self, counter: &Counter) -> f64 {
        let now = self.started.elapsed().as_secs_f64();
        let count = counter.get();
        let mut inner = self.inner.lock();
        let dt = now - inner.last_at;
        if dt < 1e-3 {
            return inner.points.last().map_or(0.0, |&(_, r)| r);
        }
        let rate = (count - inner.last_count) as f64 / dt;
        inner.last_at = now;
        inner.last_count = count;
        inner.points.push((now, rate));
        rate
    }

    /// The recorded `(time, rate)` series so far.
    pub fn series(&self) -> Vec<(f64, f64)> {
        self.inner.lock().points.clone()
    }
}

impl Default for RateMeter {
    fn default() -> Self {
        Self::new()
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

    #[test]
    fn rate_meter_reports_positive_rate() {
        let c = Counter::new();
        let m = RateMeter::new();
        c.add(100);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let r = m.sample(&c);
        assert!(r > 0.0);
        assert_eq!(m.series().len(), 1);
    }

    #[test]
    fn rate_meter_folds_rapid_samples() {
        let c = Counter::new();
        let m = RateMeter::new();
        std::thread::sleep(std::time::Duration::from_millis(2));
        c.add(10);
        m.sample(&c);
        // Immediate resample: no new point.
        m.sample(&c);
        assert_eq!(m.series().len(), 1);
    }
}
