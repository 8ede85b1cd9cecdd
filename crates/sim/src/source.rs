//! Interval sources: adapters from the workload generators to the
//! simulator's pull interface.

use streambal_core::{IntervalStats, Key, TaskId};
use streambal_workloads::{FluctuatingWorkload, SocialWorkload, StockWorkload};

/// A stream of per-interval key statistics.
///
/// `dest` exposes the partitioner's *current* key→task mapping; workloads
/// whose fluctuation process is defined relative to task loads (the Zipf
/// generator's `f` knob) use it, others ignore it.
pub trait IntervalSource {
    /// Produces the next interval's statistics.
    fn next_interval(
        &mut self,
        n_tasks: usize,
        dest: &mut dyn FnMut(Key) -> TaskId,
    ) -> IntervalStats;
}

/// The synthetic Zipf workload as a source (Tab. II parameter grid).
#[derive(Debug)]
pub struct ZipfSource {
    inner: FluctuatingWorkload,
    first: bool,
}

impl ZipfSource {
    /// See [`FluctuatingWorkload::new`].
    pub fn new(k: usize, z: f64, tuples: u64, f: f64, seed: u64) -> Self {
        ZipfSource {
            inner: FluctuatingWorkload::new(k, z, tuples, f, seed),
            first: true,
        }
    }

    /// The wrapped workload.
    pub fn workload(&self) -> &FluctuatingWorkload {
        &self.inner
    }
}

impl IntervalSource for ZipfSource {
    fn next_interval(
        &mut self,
        n_tasks: usize,
        dest: &mut dyn FnMut(Key) -> TaskId,
    ) -> IntervalStats {
        if self.first {
            self.first = false; // interval 0 is the base distribution
        } else {
            self.inner.advance(n_tasks, dest);
        }
        self.inner.interval_stats()
    }
}

/// The slow-drift Social workload as a source.
#[derive(Debug)]
pub struct SocialSource {
    inner: SocialWorkload,
    first: bool,
}

impl SocialSource {
    /// Wraps a social workload.
    pub fn new(inner: SocialWorkload) -> Self {
        SocialSource { inner, first: true }
    }
}

impl IntervalSource for SocialSource {
    fn next_interval(
        &mut self,
        _n_tasks: usize,
        _dest: &mut dyn FnMut(Key) -> TaskId,
    ) -> IntervalStats {
        if self.first {
            self.first = false;
        } else {
            self.inner.advance();
        }
        self.inner.interval_stats()
    }
}

/// The bursty Stock workload as a source.
#[derive(Debug)]
pub struct StockSource {
    inner: StockWorkload,
    first: bool,
}

impl StockSource {
    /// Wraps a stock workload.
    pub fn new(inner: StockWorkload) -> Self {
        StockSource { inner, first: true }
    }
}

impl IntervalSource for StockSource {
    fn next_interval(
        &mut self,
        _n_tasks: usize,
        _dest: &mut dyn FnMut(Key) -> TaskId,
    ) -> IntervalStats {
        if self.first {
            self.first = false;
        } else {
            self.inner.advance();
        }
        self.inner.interval_stats()
    }
}

/// A fixed, replayed sequence of interval stats (tests, custom traces,
/// frozen instances), pulled lazily.
#[derive(Debug)]
pub struct ReplaySource<I> {
    intervals: I,
}

impl<I: Iterator<Item = IntervalStats>> ReplaySource<I> {
    /// Builds from explicit intervals; replays them once, then yields
    /// empty intervals.
    pub fn new(intervals: impl IntoIterator<IntoIter = I>) -> Self {
        ReplaySource {
            intervals: intervals.into_iter(),
        }
    }
}

impl<I: Iterator<Item = IntervalStats>> IntervalSource for ReplaySource<I> {
    fn next_interval(
        &mut self,
        _n_tasks: usize,
        _dest: &mut dyn FnMut(Key) -> TaskId,
    ) -> IntervalStats {
        self.intervals.next().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_source_first_interval_is_base() {
        let mut s = ZipfSource::new(100, 0.8, 1000, 1.0, 5);
        let base = s.workload().freqs().to_vec();
        let _ = s.next_interval(4, &mut |k| TaskId::from((k.raw() % 4) as usize));
        // First pull must not fluctuate.
        assert_eq!(s.workload().freqs(), &base[..]);
        let _ = s.next_interval(4, &mut |k| TaskId::from((k.raw() % 4) as usize));
        assert_ne!(s.workload().freqs(), &base[..], "second pull fluctuates");
    }

    #[test]
    fn replay_source_exhausts_to_empty() {
        let iv = [(Key(1), streambal_core::KeyStat::new(1, 1, 1))];
        let mut s = ReplaySource::new([iv.into_iter().collect()]);
        let first = s.next_interval(1, &mut |_| TaskId(0));
        assert_eq!(first.len(), 1);
        let second = s.next_interval(1, &mut |_| TaskId(0));
        assert!(second.is_empty());
    }

    #[test]
    fn social_and_stock_sources_advance() {
        let mut soc = SocialSource::new(SocialWorkload::new(100, 1000, 0.1, 3));
        let a = soc.next_interval(2, &mut |_| TaskId(0));
        let b = soc.next_interval(2, &mut |_| TaskId(0));
        assert_eq!(a.total_cost(), b.total_cost(), "drift conserves mass");

        let mut stk = StockSource::new(StockWorkload::new(50, 1000, 5, 10, 3));
        let a = stk.next_interval(2, &mut |_| TaskId(0));
        let b = stk.next_interval(2, &mut |_| TaskId(0));
        assert!(b.total_cost() > a.total_cost(), "bursts add mass");
    }
}
