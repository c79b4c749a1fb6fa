//! Benchmark harness reproducing every table and figure of the Heron
//! paper's evaluation (§V).
//!
//! One binary per experiment (see `DESIGN.md` §4 for the index):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig4_throughput` | Fig. 4 — RamCast / Heron-null / TPCC / local TPCC scalability |
//! | `fig5_vs_dynastar` | Fig. 5 — Heron vs DynaStar throughput & latency |
//! | `fig6_latency_breakdown` | Fig. 6 — ordering/coordination/execution breakdown + CDF |
//! | `fig7_txn_latency` | Fig. 7 — per-transaction-type latency + CDF |
//! | `table1_wait_for_all` | Table I — delayed transactions under wait-for-all |
//! | `fig8_state_transfer` | Fig. 8 — state-transfer latency & full-warehouse recovery |
//! | `ablation_sweeps` | transfer chunk size (§V-E2), Phase-4 cut-off δ (§V-A), execution mode (§III-D2) |
//! | `chaos_suite` | fault model of §IV — seeded fault plans through the consistency checker |
//! | `race_audit` | Sim-TSan sweep — happens-before race & protocol-lint audit over the fig4/fig5/chaos schedules (DESIGN.md §10) |
//! | `explore_suite` | Sim-Check — schedule exploration (random / PCT / preemption-bounded) with deadlock & livelock detection over the fig4/chaos/recovery shapes (DESIGN.md §15) |
//!
//! Run them with `cargo run -p heron-bench --release --bin <name>`; pass
//! `--quick` for a shorter, coarser run. Criterion microbenchmarks of the
//! implementation itself live in `benches/`.
#![forbid(unsafe_code)]

pub mod chaos;
pub mod harness;
pub mod null;
pub mod report;
pub mod sched_workloads;
pub mod syncapp;

pub use harness::{
    quantile, run_dynastar_tpcc, run_heron, LoadSummary, RaceAuditSummary, RunConfig, Workload,
};
pub use null::NullApp;
pub use report::{write_results, Json};

/// `true` when `--quick` was passed: benchmarks shrink their measurement
/// windows for a fast smoke run.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The number following `name` on the command line (`--seed 42`), if
/// present and numeric.
pub fn arg_value(name: &str) -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`); `None` where procfs is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib as f64 / 1024.0)
}

/// CPU time this process has used so far, all threads, live and exited
/// (`utime + stime` from `/proc/self/stat`, in `USER_HZ` ticks of 10 ms);
/// `None` where procfs is unavailable.
pub fn cpu_time() -> Option<std::time::Duration> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(std::time::Duration::from_millis((utime + stime) * 10))
}

/// Prints a standard experiment header.
pub fn banner(title: &str, paper: &str) {
    println!("{}", "=".repeat(76));
    println!("{title}");
    println!("paper reference: {paper}");
    println!("{}", "=".repeat(76));
}
