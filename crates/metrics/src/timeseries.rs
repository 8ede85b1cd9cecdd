//! `(tick, value)` series for timeline figures.

/// An append-only series of `(tick, value)` observations.
///
/// Ticks are caller-defined (seconds, interval indices, tuple counts). Used
/// for the throughput-over-time plots of Figs. 15 and 16, where different
/// balancing strategies are compared on the same time axis.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
    label: String,
}

impl TimeSeries {
    /// Creates an empty, unlabelled series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Creates an empty series with a display label (e.g. `"Mixed θmax=0.1"`).
    pub fn labelled(label: impl Into<String>) -> Self {
        TimeSeries {
            points: Vec::new(),
            label: label.into(),
        }
    }

    /// The display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Appends an observation. Ticks should be non-decreasing; that is
    /// asserted in debug builds.
    pub fn push(&mut self, tick: f64, value: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(t, _)| t <= tick),
            "time series ticks must be non-decreasing"
        );
        self.points.push((tick, value));
    }

    /// The raw points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of the values.
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }

    /// Mean of the values in the tick range `[from, to)`. A single
    /// streaming sum/count pass — called once per interval by report
    /// generation, so it must not allocate.
    pub fn mean_in(&self, from: f64, to: f64) -> f64 {
        let (sum, count) = self
            .points
            .iter()
            .filter(|&&(t, _)| t >= from && t < to)
            .fold((0.0f64, 0usize), |(s, n), &(_, v)| (s + v, n + 1));
        if count == 0 {
            return 0.0;
        }
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(vals: &[(f64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for &(t, v) in vals {
            s.push(t, v);
        }
        s
    }

    #[test]
    fn push_and_mean() {
        let s = series(&[(0.0, 2.0), (1.0, 4.0), (2.0, 6.0)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.mean(), 4.0);
    }

    #[test]
    fn mean_in_range() {
        let s = series(&[(0.0, 1.0), (1.0, 100.0), (2.0, 200.0), (3.0, 1.0)]);
        assert_eq!(s.mean_in(1.0, 3.0), 150.0);
        assert_eq!(s.mean_in(10.0, 20.0), 0.0);
    }

    #[test]
    fn labels_survive() {
        let s = TimeSeries::labelled("Mixed");
        assert_eq!(s.label(), "Mixed");
    }
}
