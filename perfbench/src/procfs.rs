//! Host resource usage of this process, read with std from `/proc`.

use std::fs;

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which
/// the kernel ABI fixes at 100 per second on every architecture.
const TICKS_PER_SEC: f64 = 100.0;

/// A point-in-time reading of the process's host resource counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU seconds, all threads (including exited ones).
    pub user_s: f64,
    /// Kernel CPU seconds, all threads (including exited ones).
    pub sys_s: f64,
    /// Voluntary context switches summed over the live threads.
    pub vcsw: u64,
}

impl Usage {
    pub fn read() -> Usage {
        let mut u = Usage::default();
        if let Ok(stat) = fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name; utime and stime
            // are fields 14 and 15 of the whole line.
            if let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) {
                let f: Vec<&str> = rest.split_whitespace().collect();
                let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
                u.user_s = tick(11) / TICKS_PER_SEC;
                u.sys_s = tick(12) / TICKS_PER_SEC;
            }
        }
        // `/proc/self/status` counts the main thread only: the simulated
        // processes are threads, so sum over every task.
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let Ok(status) = fs::read_to_string(task.path().join("status")) else {
                    continue; // the thread exited meanwhile
                };
                u.vcsw += status_field(&status, "voluntary_ctxt_switches:");
            }
        }
        u
    }
}

/// On-CPU nanoseconds of this process's live threads, summed from the first
/// field of each task's `schedstat`: exact to the nanosecond, where
/// `/proc/self/stat` counts 10 ms ticks.
pub fn cpu_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .map(|s| status_field(&s, "VmHWM:") as f64 / 1024.0)
        .unwrap_or(0.0)
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}
