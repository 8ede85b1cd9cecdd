// L010 passes channels, an `Arc`, names that only contain a banned
// word, a doc or string naming `Mutex`, and test code.
use std::sync::Arc;

/// Owned by one thread: no `Mutex`.
pub struct Plane(crossbeam::channel::Sender<u64>, Arc<u64>, bool);

pub fn describe(atomic: bool, mutex_free: bool) -> &'static str {
    if atomic && mutex_free { "RwLock" } else { "channel" }
}

#[cfg(test)]
mod tests {
    use std::sync::{atomic::AtomicUsize, Mutex};
}
