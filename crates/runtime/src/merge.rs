//! The merge stage — the downstream half of the two-stage pipeline.
//!
//! The engine's topology is a two-stage seam: a **keyed stage** (the
//! worker threads running an [`Operator`] over per-key windowed state)
//! feeding a **merge stage** over a second channel plane. The plane
//! works like the source plane: workers accumulate emissions into
//! `Vec<Tuple>` batches and ship them over one bounded, tuple-weighted
//! channel (`EngineConfig::collector_capacity` — a full merge stage
//! backpressures the keyed stage exactly like a full worker channel
//! backpressures the source). That channel is all the two stages share:
//! a drained batch is dropped where it was drained.
//!
//! The merge stage is what makes **hot-key splitting** exact. When a
//! key is split, its tuples round-robin across replica slots and each
//! replica accumulates a *partial* aggregate; nothing on the keyed
//! stage ever sees the key's total. Replicas emit their partials as
//! `TAG_PARTIAL` tuples (count deltas for `WordCountOp`'s
//! partial-emission mode, window contributions for the join ops), and
//! the merge stage's [`Collector`] folds them per key — the only place
//! a split key's stream is reunified. The consistency argument is the
//! FIFO-per-channel one restated downstream (see the crate docs'
//! "Hot-key splitting" section): each replica's partials arrive on the
//! merge plane in emission order, merging is commutative and
//! associative (sums per key), so any interleaving of replica partials
//! folds to the same totals the unsplit operator would have produced.
//!
//! For runs without a collector the keyed stage's final states merge at
//! shutdown instead (`EngineReport::final_states` sums blobs per key),
//! which is the same fold executed once at the end.

use crossbeam::channel::Receiver;
use streambal_trace::ThreadRecorder;

use crate::operator::Collector;
use crate::tuple::Tuple;

/// The merge-stage runner: drains emission batches from the keyed
/// stage and folds them through a [`Collector`].
///
/// Owns the downstream end of the second channel plane. The engine
/// spawns [`MergeStage::run`] on its own thread; the returned rows land
/// in `EngineReport::collector_result`.
pub struct MergeStage {
    collector: Box<dyn Collector>,
    rx: Receiver<Vec<Tuple>>,
    rec: ThreadRecorder,
}

impl MergeStage {
    /// Builds the stage around its collector and inbound plane.
    pub fn new(
        collector: Box<dyn Collector>,
        rx: Receiver<Vec<Tuple>>,
        rec: ThreadRecorder,
    ) -> Self {
        MergeStage { collector, rx, rec }
    }

    /// Drains the plane to disconnection and returns the merged result
    /// rows.
    pub fn run(mut self) -> Vec<(u64, u64)> {
        while let Ok(batch) = self.rx.recv() {
            for t in &batch {
                self.collector.collect(t);
            }
        }
        self.rec.mark("collector-done");
        self.collector.result()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::SumCollector;
    use crate::tuple::TAG_PARTIAL;
    use crossbeam::channel::unbounded;
    use streambal_core::Key;
    use streambal_trace::{ThreadLabel, TraceSink};

    /// The stage folds split-key partials from multiple "replicas" into
    /// one total per key.
    #[test]
    fn merges_replica_partials_and_recycles_buffers() {
        let (tx, rx) = unbounded::<Vec<Tuple>>();
        let sink = TraceSink::new(false);
        let stage = MergeStage::new(
            Box::new(SumCollector::new()),
            rx,
            sink.recorder(ThreadLabel::Collector),
        );
        // Two replicas of split key 7 emit partials interleaved with an
        // unsplit key 9, over nine batches.
        let n = 9u64;
        for i in 0..n {
            let replica_delta = i + 1;
            tx.send(vec![
                Tuple::tagged(Key(7), TAG_PARTIAL, [replica_delta, 0]),
                Tuple::tagged(Key(7), TAG_PARTIAL, [replica_delta, 0]),
                Tuple::tagged(Key(9), TAG_PARTIAL, [1, 0]),
            ])
            .unwrap();
        }
        drop(tx);
        let rows = stage.run();
        // Σ 2·(i+1) for i in 0..n, and n ones for key 9.
        assert_eq!(rows, vec![(7, n * (n + 1)), (9, n)]);
    }
}
