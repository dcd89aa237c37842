//! Request seeds and the open-loop arrival schedule, both pure functions of
//! the workload seed.

use acc_common::SeededRng;

/// The splitmix64 finalizer: a bijection on `u64`.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of operation `op` under workload seed `seed`. Distinct `op`s
/// give distinct seeds (a bijection of `base + op`).
pub fn request_seed(seed: u64, op: u64) -> u64 {
    mix64(mix64(seed ^ 0x7265_7173_6565_6473).wrapping_add(op))
}

/// Due times, ns after the schedule's start, of `count` Poisson arrivals at
/// `rate` per second.
pub fn arrivals(seed: u64, rate: f64, count: usize) -> Vec<u64> {
    let mut rng = SeededRng::new(seed ^ 0x6f70_656e_6c6f_6f70);
    let mean_gap_ns = 1e9 / rate;
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            at += rng.exponential(mean_gap_ns);
            at as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(arrivals(42, 9000.0, 5000), arrivals(42, 9000.0, 5000));
        let seeds: Vec<u64> = (0..100).map(|i| request_seed(42, i)).collect();
        let again: Vec<u64> = (0..100).map(|i| request_seed(42, i)).collect();
        assert_eq!(seeds, again);
    }

    #[test]
    fn different_seed_different_schedule() {
        assert_ne!(arrivals(42, 9000.0, 5000), arrivals(43, 9000.0, 5000));
        assert_ne!(request_seed(42, 0), request_seed(43, 0));
    }

    #[test]
    fn schedule_is_ordered_at_the_rate() {
        let a = arrivals(7, 9000.0, 90_000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let secs = *a.last().unwrap() as f64 / 1e9;
        assert!((secs - 10.0).abs() < 0.2, "90k arrivals took {secs} s");
    }

    #[test]
    fn request_seeds_are_distinct() {
        let mut seeds: Vec<u64> = (0..100_000).map(|i| request_seed(1, i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 100_000);
    }
}
