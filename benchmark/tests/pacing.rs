//! A paced worker has the capacity its service cost says. (Alone in its
//! test binary: a concurrent CPU-heavy test would steal the capacity it
//! measures.)

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use streambal_benchmark::probes::{Clock, ProbeOp, StallMeter};
use streambal_core::Key;
use streambal_runtime::{Operator, Tuple, WordCountOp};

/// `c = 10 µs` realises 100 k tuples/s ± 2 % over 2 s, sleep overshoot
/// notwithstanding: the deadline is absolute, so overshoot is repaid.
/// A host stall (see `StallMeter`) is capacity nobody could have used:
/// a run that caught one says nothing about the pacing either way.
#[test]
fn paced_probe_realises_its_rate() {
    const TUPLES: u64 = 200_000;
    let stalls = StallMeter::start();
    let out = Arc::new(Mutex::new(Vec::new()));
    let mut op = ProbeOp::new(
        WordCountOp::new(),
        0,
        64,
        10_000,
        Clock::start(),
        false,
        Arc::clone(&out),
    );
    let t = Instant::now();
    for i in 0..TUPLES {
        op.process(&Tuple::keyed(Key(i % 64)), 0, &mut |_| {});
    }
    let rate = TUPLES as f64 / t.elapsed().as_secs_f64();
    let stall = stalls.worst_oversleep();
    if stall >= Duration::from_millis(10) {
        eprintln!("inconclusive: the host stalled the process for {stall:?}");
        return;
    }
    assert!(
        (98_000.0..=102_000.0).contains(&rate),
        "paced at 10 us/tuple, realised {rate:.0} tuples/s"
    );
}
