//! Percentiles, the sample-count rule, and the failure classification.

use acc_server::{Response, WireAbort};

/// Percentiles a tail may be reported at, highest first.
const TAIL_LEVELS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of the `p` percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest reportable percentile for `n` samples: the first of
/// 99.9/99/95/90/50 with at least [`MIN_BEYOND`] samples beyond it.
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LEVELS
        .into_iter()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// Median and one tail percentile of a sample, with its count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The requested tail percentile.
    pub tail: f64,
}

/// Summarize `samples` at the median and the `tail` percentile. Refuses a
/// tail the sample is too small to support.
pub fn summarize(samples: &mut [f64], tail: f64) -> Result<Summary, String> {
    let n = samples.len();
    match tail_level(n) {
        Some(best) if best >= tail => {}
        _ => {
            return Err(format!(
                "{n} samples cannot support p{tail}: fewer than {MIN_BEYOND} lie beyond it"
            ))
        }
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    Ok(Summary {
        n,
        p50: percentile(samples, 50.0),
        tail: percentile(samples, tail),
    })
}

/// Median of a sample (0 when empty; per-layer figures only).
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    percentile(samples, 50.0)
}

/// `p` percentile of a sample (0 when empty; per-layer figures only).
pub fn pct(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    percentile(samples, p)
}

/// How one wire request ended, as the client sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Committed and durable.
    Committed,
    /// The transaction's own logic aborted: the mix's decision.
    UserAbort,
    /// Shed by admission control.
    Overloaded,
    /// Deadline passed, queued or mid-run.
    DeadlineExceeded,
    /// Deadlock victim after the server's own retries.
    Deadlock,
    /// Doomed by a compensating step after the server's own retries.
    Doomed,
    /// Malformed, misrouted or an engine error.
    Error,
}

impl Outcome {
    /// Classify a response.
    pub fn of(resp: &Response) -> Outcome {
        match resp {
            Response::Committed { .. } => Outcome::Committed,
            Response::RolledBack { reason, .. } => match reason {
                WireAbort::UserAbort => Outcome::UserAbort,
                WireAbort::Deadlock => Outcome::Deadlock,
                WireAbort::Doomed => Outcome::Doomed,
            },
            Response::Overloaded { .. } => Outcome::Overloaded,
            Response::DeadlineExceeded { .. } => Outcome::DeadlineExceeded,
            Response::Error { .. } => Outcome::Error,
        }
    }

    /// Counts against `ok_frac`: everything except a commit or a user abort.
    pub fn is_failure(self) -> bool {
        !matches!(self, Outcome::Committed | Outcome::UserAbort)
    }

    /// Worth a client resubmission: the request had no net effect and may
    /// succeed if sent again.
    pub fn resubmittable(self) -> bool {
        matches!(
            self,
            Outcome::Overloaded | Outcome::Deadlock | Outcome::Doomed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: exactly 10 beyond p99, only 1 beyond p99.9.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_level(1000), Some(99.0));
        assert_eq!(tail_level(999), Some(95.0));
        assert_eq!(tail_level(10_000), Some(99.9));
        assert_eq!(tail_level(200), Some(95.0));
        assert_eq!(tail_level(100), Some(90.0));
        assert_eq!(tail_level(20), Some(50.0));
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(0), None);
    }

    #[test]
    fn summarize_refuses_unsupported_tail() {
        let mut small: Vec<f64> = (0..500).map(f64::from).collect();
        assert!(summarize(&mut small, 99.0).is_err());
        let mut big: Vec<f64> = (0..2000).rev().map(f64::from).collect();
        let s = summarize(&mut big, 99.0).unwrap();
        assert_eq!(s.n, 2000);
        assert_eq!(s.p50, 999.0);
        assert_eq!(s.tail, 1979.0);
    }

    #[test]
    fn user_aborts_are_not_failures() {
        let resp = |reason| Response::RolledBack {
            client_seq: 1,
            reason,
        };
        assert!(!Outcome::of(&resp(WireAbort::UserAbort)).is_failure());
        assert!(Outcome::of(&resp(WireAbort::Deadlock)).is_failure());
        assert!(Outcome::of(&resp(WireAbort::Doomed)).is_failure());
        let committed = Response::Committed {
            client_seq: 1,
            txn_id: 3,
            steps: 2,
            engine_retries: 0,
            latency_micros: 10,
        };
        assert!(!Outcome::of(&committed).is_failure());
        let overloaded = Response::Overloaded {
            client_seq: 1,
            queue_depth: 64,
        };
        assert!(Outcome::of(&overloaded).is_failure());
        assert!(Outcome::of(&Response::DeadlineExceeded { client_seq: 1 }).is_failure());
        let error = Response::Error {
            client_seq: 1,
            message: "x".into(),
        };
        assert!(Outcome::of(&error).is_failure());
    }

    #[test]
    fn only_no_effect_failures_are_resubmitted() {
        assert!(Outcome::Deadlock.resubmittable());
        assert!(Outcome::Doomed.resubmittable());
        assert!(Outcome::Overloaded.resubmittable());
        assert!(!Outcome::DeadlineExceeded.resubmittable());
        assert!(!Outcome::Error.resubmittable());
        assert!(!Outcome::UserAbort.resubmittable());
        assert!(!Outcome::Committed.resubmittable());
    }
}
