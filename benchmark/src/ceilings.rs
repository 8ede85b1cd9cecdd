//! Isolated ceilings: single layers timed alone, outside the engine, so
//! the traced run's per-thread shares can be set against what each
//! layer costs with nothing else contending.

use std::hint::black_box;
use std::time::Instant;

use crossbeam::channel::{bounded, unbounded};
use streambal_core::{Key, RoutingView, TaskId};
use streambal_hashring::mix64;
use streambal_metrics::Histogram;
use streambal_runtime::{SourceRouter, Tuple};

use crate::report::median;

/// `core::routing` / `runtime::router`: `route_batch` over `keys` in the
/// engine's batch size, against the run's final routing view. Median of
/// five passes after one warm-up pass.
pub fn route_batch_ns_per_tuple(view: RoutingView, keys: &[Key]) -> f64 {
    const BATCH: usize = 256;
    let mut router = SourceRouter::from_view(view);
    let mut dests: Vec<TaskId> = Vec::with_capacity(BATCH);
    let mut pass = || {
        let t = Instant::now();
        for batch in keys.chunks(BATCH) {
            router.route_batch(black_box(batch), &mut dests);
            black_box(&dests);
        }
        t.elapsed().as_nanos() as f64 / keys.len().max(1) as f64
    };
    pass();
    let passes: Vec<f64> = (0..5).map(|_| pass()).collect();
    median(&passes).unwrap_or(f64::NAN)
}

/// `vendor/crossbeam`: two threads, `send_weighted`/`recv` of 64-tuple
/// batches through a 1024-tuple channel, buffers recycled over a return
/// channel like the engine's pool.
pub fn channel_ns_per_tuple() -> f64 {
    const BATCH: usize = 64;
    const BATCHES: usize = 32_768;
    let (tx, rx) = bounded::<Vec<Tuple>>(1024);
    let (back_tx, back_rx) = unbounded::<Vec<Tuple>>();
    let t = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut seen = 0u64;
            while let Ok(mut batch) = rx.recv() {
                seen += batch.len() as u64;
                batch.clear();
                if back_tx.send(batch).is_err() {
                    break;
                }
            }
            black_box(seen);
        });
        for i in 0..BATCHES {
            let mut batch = back_rx
                .try_recv()
                .unwrap_or_else(|_| Vec::with_capacity(BATCH));
            batch.extend((0..BATCH).map(|j| Tuple::keyed(Key((i * BATCH + j) as u64))));
            if tx.send_weighted(batch, BATCH).is_err() {
                break;
            }
        }
        drop(tx);
    });
    t.elapsed().as_nanos() as f64 / (BATCH * BATCHES) as f64
}

/// `metrics`: one `Histogram::record` of a latency-shaped value.
pub fn hist_record_ns() -> f64 {
    const N: u64 = 4_000_000;
    let mut h = Histogram::new();
    let t = Instant::now();
    for i in 0..N {
        h.record(black_box(mix64(i) >> 44));
    }
    black_box(h.count());
    t.elapsed().as_nanos() as f64 / N as f64
}
