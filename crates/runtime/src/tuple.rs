//! The wire tuple.

use streambal_core::Key;

/// Default tag for single-stream topologies.
pub const TAG_DEFAULT: u8 = 0;
/// Left stream of a co-join (e.g. TPC-H orders).
pub const TAG_LEFT: u8 = 1;
/// Right stream of a co-join (e.g. TPC-H lineitems).
pub const TAG_RIGHT: u8 = 2;
/// A partial-aggregate emission (PKG's partial/merge pattern).
pub const TAG_PARTIAL: u8 = 3;

/// A fixed-size key-value tuple.
///
/// `Copy` and 32 bytes: channel transfers never allocate. The two value
/// slots carry operator-specific payloads (e.g. `custkey`/`revenue` for
/// TPC-H lineitems); richer payloads live in operator state, not on the
/// wire. A tuple carries no latency stamp: the source reads the clock
/// once per staged batch, and that one value rides with each message
/// ([`crate::Message::TupleBatch`]'s `emitted_us`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuple {
    /// The partitioning key.
    pub key: Key,
    /// Stream tag ([`TAG_DEFAULT`], [`TAG_LEFT`], …).
    pub tag: u8,
    /// Operator-specific payload.
    pub vals: [u64; 2],
}

// Every data-plane hop copies tuples: the key, the tag and the payload,
// padded to 32 bytes, and nothing more.
const _: () = assert!(std::mem::size_of::<Tuple>() == 32);

impl Tuple {
    /// A bare keyed tuple (word-count style).
    pub fn keyed(key: Key) -> Self {
        Tuple {
            key,
            tag: TAG_DEFAULT,
            vals: [0, 0],
        }
    }

    /// A tagged tuple with payload.
    pub fn tagged(key: Key, tag: u8, vals: [u64; 2]) -> Self {
        Tuple { key, tag, vals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let t = Tuple::keyed(Key(5));
        assert_eq!(t.key, Key(5));
        assert_eq!(t.tag, TAG_DEFAULT);
        let j = Tuple::tagged(Key(1), TAG_LEFT, [7, 8]);
        assert_eq!(j.vals, [7, 8]);
        assert_eq!(j.tag, TAG_LEFT);
    }

    #[test]
    fn tuple_is_small() {
        // Half a cache line; channels copy it.
        assert_eq!(std::mem::size_of::<Tuple>(), 32);
    }
}
