// Fixture: the data-plane shapes L007 accepts — batch-granularity
// recorder calls, a `record` on a non-trace receiver (a worker's latency
// histogram), annotated sites, and test code.

fn drain(recorder: &mut ThreadRecorder, batch: &[Tuple]) {
    recorder.count_batch(batch.len() as u64);
}

fn close(recorder: &mut ThreadRecorder, interval: u64) {
    recorder.close_interval(interval);
}

fn latency(histogram: &mut Histogram, micros: u64) {
    histogram.record(micros);
}

fn annotated(tracer: &mut Tracer, op: OpLabel) {
    // lint: allow(trace, reason = "one event per protocol op, not per
    // tuple — this site fires at control-plane rate")
    tracer.record(op);
}

#[cfg(test)]
mod tests {
    #[test]
    fn per_event_recording_is_fine_in_tests() {
        let mut tracer = Tracer::default();
        tracer.record(1);
    }
}
