//! Per-key counters stored at 32 bits while their values fit.
//!
//! Nearly every per-key number kept per interval — a tuple count, the
//! state bytes an interval wrote, a word count — fits 32 bits. A
//! [`Cells`] column stores its values at four bytes each while every one
//! fits, and the first value that does not widens the whole column to
//! eight bytes, exactly, so sums stay exact for arbitrary `u64` values.
//! A column's width follows from the values it holds and is never
//! configured: a cleared column is narrow again.
//!
//! The statistics window keeps an interval's state bytes in one
//! ([`crate::StatsWindow`]), `streambal-runtime`'s word count keeps one
//! count column per retained interval, and
//! [`StatsAccumulator`](crate::StatsAccumulator) applies the same rule to
//! its `(freq, mem)` pairs.

/// `c + n` when the sum fits 32 bits.
#[inline]
pub(crate) fn narrow_add(c: u32, n: u64) -> Option<u32> {
    u32::try_from(n).ok()?.checked_add(c)
}

/// A column of `u64` counters held at the narrowest width that is exact
/// for all of them (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cells(Repr);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    Narrow(Vec<u32>),
    Wide(Vec<u64>),
}

impl Default for Cells {
    fn default() -> Self {
        Cells::new()
    }
}

impl Cells {
    /// An empty, narrow column.
    pub const fn new() -> Self {
        Cells(Repr::Narrow(Vec::new()))
    }

    /// An empty, narrow column with room for `n` cells.
    pub fn with_capacity(n: usize) -> Self {
        Cells(Repr::Narrow(Vec::with_capacity(n)))
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Narrow(v) => v.len(),
            Repr::Wide(v) => v.len(),
        }
    }

    /// True when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once some value has needed 64 bits.
    #[cfg(test)]
    fn is_wide(&self) -> bool {
        matches!(self.0, Repr::Wide(_))
    }

    /// Cell `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        match &self.0 {
            Repr::Narrow(v) => u64::from(v[i]),
            Repr::Wide(v) => v[i],
        }
    }

    /// Appends `value`.
    pub fn push(&mut self, value: u64) {
        match &mut self.0 {
            Repr::Narrow(v) => match u32::try_from(value) {
                Ok(c) => v.push(c),
                Err(_) => {
                    let mut wide = widened(v);
                    wide.push(value);
                    self.0 = Repr::Wide(wide);
                }
            },
            Repr::Wide(v) => v.push(value),
        }
    }

    /// Adds `n` to cell `i` and returns the new value.
    #[inline]
    pub fn add(&mut self, i: usize, n: u64) -> u64 {
        match &mut self.0 {
            Repr::Narrow(v) => match narrow_add(v[i], n) {
                Some(sum) => {
                    v[i] = sum;
                    u64::from(sum)
                }
                None => {
                    let mut wide = widened(v);
                    wide[i] += n;
                    let sum = wide[i];
                    self.0 = Repr::Wide(wide);
                    sum
                }
            },
            Repr::Wide(v) => {
                v[i] += n;
                v[i]
            }
        }
    }

    /// Cell `i`'s value, leaving the cell zero.
    #[inline]
    pub fn take(&mut self, i: usize) -> u64 {
        match &mut self.0 {
            Repr::Narrow(v) => u64::from(std::mem::take(&mut v[i])),
            Repr::Wide(v) => std::mem::take(&mut v[i]),
        }
    }

    /// Grows or shrinks the column to `len` cells; new cells are zero.
    pub fn resize(&mut self, len: usize) {
        match &mut self.0 {
            Repr::Narrow(v) => v.resize(len, 0),
            Repr::Wide(v) => v.resize(len, 0),
        }
    }

    /// Keeps the first `len` cells.
    pub fn truncate(&mut self, len: usize) {
        match &mut self.0 {
            Repr::Narrow(v) => v.truncate(len),
            Repr::Wide(v) => v.truncate(len),
        }
    }

    /// Returns unused capacity to the allocator.
    pub fn shrink_to_fit(&mut self) {
        match &mut self.0 {
            Repr::Narrow(v) => v.shrink_to_fit(),
            Repr::Wide(v) => v.shrink_to_fit(),
        }
    }

    /// Drops every cell. A narrow column keeps its capacity; a wide one
    /// becomes an empty narrow column of the same capacity.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Narrow(v) => v.clear(),
            Repr::Wide(v) => *self = Cells::with_capacity(v.capacity()),
        }
    }

    /// The values, in order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        // Exactly one of the two slices is non-empty.
        let (narrow, wide): (&[u32], &[u64]) = match &self.0 {
            Repr::Narrow(v) => (v, &[]),
            Repr::Wide(v) => (&[], v),
        };
        narrow
            .iter()
            .map(|&c| u64::from(c))
            .chain(wide.iter().copied())
    }
}

/// `v` at 64 bits.
fn widened(v: &[u32]) -> Vec<u64> {
    v.iter().map(|&c| u64::from(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIG: u64 = u32::MAX as u64;

    #[test]
    fn widens_exactly_on_the_first_value_past_32_bits() {
        let mut c = Cells::new();
        c.push(7);
        c.push(BIG);
        assert!(!c.is_wide());
        assert_eq!(c.add(1, 0), BIG);
        assert!(!c.is_wide(), "adding zero keeps the width");
        assert_eq!(c.add(1, 1), BIG + 1);
        assert!(c.is_wide());
        assert_eq!(c.iter().collect::<Vec<_>>(), [7, BIG + 1]);
        assert_eq!(c.take(1), BIG + 1);
        assert_eq!(c.get(1), 0);
        c.clear();
        assert!(!c.is_wide() && c.is_empty(), "an emptied column is narrow");
    }

    #[test]
    fn push_past_32_bits_keeps_earlier_values() {
        let mut c = Cells::with_capacity(4);
        c.push(1);
        c.push(u64::MAX);
        c.resize(3);
        assert!(c.is_wide());
        assert_eq!(c.iter().collect::<Vec<_>>(), [1, u64::MAX, 0]);
        c.truncate(1);
        c.shrink_to_fit();
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(0), 1);
    }

    #[test]
    fn narrow_add_refuses_what_does_not_fit() {
        assert_eq!(narrow_add(1, 2), Some(3));
        assert_eq!(narrow_add(u32::MAX, 1), None);
        assert_eq!(narrow_add(0, BIG + 1), None);
    }
}
