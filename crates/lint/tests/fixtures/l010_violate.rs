// L010 in the runtime: the atomic module, a lock, a condition variable
// and an atomic type (lines 3, 4, 6 and 7).
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

pub struct Shared(std::sync::Condvar, Arc<u64>);
pub static HITS: AtomicU64 = AtomicU64::new(0);
