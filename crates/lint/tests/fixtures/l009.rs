// L009 in the controller: a clock read in non-test code is flagged
// (lines 7 and 11); an instant passed in, a doc or string naming
// `Instant::now`, and test code are not.
use std::time::{Duration, Instant};

pub fn reads_the_clock() -> Instant {
    Instant::now()
}

pub fn waited(since: Instant) -> Duration {
    since.elapsed()
}

/// Takes `now` instead of calling `Instant::now()`.
pub fn waited_until(since: Instant, now: Instant) -> Duration {
    let _ = "Instant::now";
    now.duration_since(since)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_may_read_the_clock() {
        let t0 = Instant::now();
        assert!(t0.elapsed() < Duration::from_secs(60));
    }
}
