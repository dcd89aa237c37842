//! CPU time per thread, read from `/proc/self/task`, split between the
//! program under test (the front-end and the engine) and the benchmark's own
//! threads (the main thread and the load generator).

use std::collections::HashMap;
use std::time::Duration;

/// Name prefix of every thread the benchmark starts; Linux shows a thread's
/// name as its `comm`.
pub const BENCH_THREAD: &str = "pb-";

/// Linux reports utime and stime in USER_HZ ticks, which the x86-64 and
/// arm64 ABIs fix at 100 per second.
const NS_PER_TICK: u64 = 10_000_000;

/// CPU time spent between two snapshots, ns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Split {
    /// User-mode time of the program's threads.
    pub program_user: u64,
    /// Kernel time of the program's threads: sockets, futexes, wake-ups.
    pub program_sys: u64,
}

/// Cumulative (user, system) ticks of each live thread of the program.
pub struct Snapshot(HashMap<u32, (u64, u64)>);

/// Spawn a benchmark thread, named so that its CPU time is not charged to
/// the program.
pub fn spawn<T: Send + 'static>(
    name: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<std::thread::JoinHandle<T>, String> {
    std::thread::Builder::new()
        .name(format!("{BENCH_THREAD}{name}"))
        .spawn(f)
        .map_err(|e| format!("spawn {name}: {e}"))
}

/// (tid, comm, utime, stime) from one line of `/proc/<pid>/task/<tid>/stat`.
fn parse_stat(line: &str) -> Option<(u32, &str, u64, u64)> {
    let (head, rest) = line.rsplit_once(')')?;
    let (tid, comm) = head.split_once(" (")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    Some((
        tid.trim().parse().ok()?,
        comm,
        fields.get(11)?.parse().ok()?,
        fields.get(12)?.parse().ok()?,
    ))
}

/// Read the CPU time of every live thread but the benchmark's.
pub fn snapshot() -> Result<Snapshot, String> {
    let main = std::process::id();
    let mut threads = HashMap::new();
    let dir = std::fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    for entry in dir {
        let path = entry.map_err(|e| e.to_string())?.path().join("stat");
        // A thread that ended since the directory was listed has no stat.
        let Ok(line) = std::fs::read_to_string(&path) else {
            continue;
        };
        let (tid, comm, user, sys) =
            parse_stat(&line).ok_or_else(|| format!("malformed {}", path.display()))?;
        if tid != main && !comm.starts_with(BENCH_THREAD) {
            threads.insert(tid, (user, sys));
        }
    }
    Ok(Snapshot(threads))
}

impl Snapshot {
    /// CPU time the program's threads alive now spent since `earlier`. A
    /// thread started in between counts from zero.
    pub fn since(&self, earlier: &Snapshot) -> Split {
        let mut split = Split::default();
        for (tid, &(user, sys)) in &self.0 {
            let (u0, s0) = earlier.0.get(tid).copied().unwrap_or_default();
            split.program_user += user.saturating_sub(u0) * NS_PER_TICK;
            split.program_sys += sys.saturating_sub(s0) * NS_PER_TICK;
        }
        split
    }
}

impl Split {
    /// (user, system) microseconds per unit of `n`.
    pub fn per(&self, n: usize) -> (f64, f64) {
        let per = |ns: u64| Duration::from_nanos(ns).as_secs_f64() * 1e6 / n.max(1) as f64;
        (per(self.program_user), per(self.program_sys))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_thread_stat_line_whose_name_has_spaces_and_parens() {
        let line = "4242 (pb-x (y) z) S 1 4242 4242 0 -1 4194368 \
                    120 0 0 0 731 58 0 0 20 0 9 0 100 0 0";
        assert_eq!(parse_stat(line), Some((4242, "pb-x (y) z", 731, 58)));
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn sums_user_and_system_time_and_counts_new_threads_from_zero() {
        let before = Snapshot(HashMap::from([(1, (10, 5)), (2, (100, 50))]));
        let after = Snapshot(HashMap::from([(1, (12, 6)), (2, (130, 70)), (3, (4, 1))]));
        assert_eq!(
            after.since(&before),
            Split {
                program_user: 36 * NS_PER_TICK,
                program_sys: 22 * NS_PER_TICK,
            }
        );
    }

    #[test]
    fn leaves_out_the_benchmark_threads() {
        let (tid, seen) = spawn("test", || {
            let link = std::fs::read_link("/proc/thread-self").unwrap();
            let tid: u32 = link.file_name().unwrap().to_str().unwrap().parse().unwrap();
            (tid, snapshot().unwrap())
        })
        .unwrap()
        .join()
        .unwrap();
        assert!(!seen.0.contains_key(&tid));
        assert!(!seen.0.contains_key(&std::process::id()));
    }
}
