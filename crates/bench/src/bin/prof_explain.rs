//! Trace and profile explainer: runs the fig7 TPC-C shape with tracing
//! and profiling on, prints per-resource utilization timelines, the
//! wait-state totals, the top-k slowest requests and the p999 tail
//! exemplars decomposed along their critical paths, and the metrics
//! registry; exports a flamegraph-style collapsed-stack file plus a
//! Perfetto trace with counter tracks; cross-checks the span-derived
//! Fig. 6 attribution against the legacy breakdown counters; and verifies
//! the observers are free: schedules stay bit-identical with tracing and
//! profiling on or off across both engines and four shapes, and the CPU
//! overhead of profiling stays under 5 % (DESIGN.md §11, §16).
//!
//! Usage:
//!
//! ```text
//! cargo run -p heron-bench --release --bin prof_explain [-- OPTIONS]
//!   --seed S    simulation seed (default 42)
//!   --quick     fewer requests / shorter windows
//!   --topk K    slowest requests to explain (default 8)
//! ```
//!
//! Artifacts: `bench_results/prof_explain.json` (Perfetto, spans +
//! counter tracks), `bench_results/prof_waitstates.folded` (collapsed
//! stacks for flamegraph tooling), and
//! `bench_results/BENCH_prof_overhead.json`. Exit status is nonzero iff
//! any check fails.

use heron_bench::harness::BreakdownSummary;
use heron_bench::{
    arg_value, banner, cpu_time, quantile, quick_mode, run_heron, write_results, Json, LoadSummary,
    RunConfig, Workload,
};
use heron_core::critical_path::{attribute_where, blame_exemplars, critical_paths, Attribution};
use std::time::Duration;

/// Interleaved off/on pairs the overhead verdict takes the median over.
/// One pair's CPU ratio spreads with σ ≈ 5–7 % on a 2-vCPU box; medians
/// of 25 read +0.0 to +5.1 % over seven gate runs (EXPERIMENTS.md).
const OVERHEAD_PAIRS: usize = 25;

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

fn within_1pct(a: u64, b: u64) -> bool {
    a.abs_diff(b) * 100 <= b
}

/// The shapes the determinism pin covers: the fig4 load ladder entry, the
/// same shape under a crash/recovery, and a width-4 P-SMR pool (so parked
/// workers and the dispatcher gauge are exercised).
fn shapes(base_seed: u64, quick: bool) -> Vec<(&'static str, RunConfig)> {
    let shape = |k: u64, p: usize| {
        let mut cfg = RunConfig::new(p, 3, Workload::Tpcc).quick(quick);
        cfg.seed = base_seed + k;
        cfg.warmup = Duration::from_millis(1);
        cfg.window = Duration::from_millis(if quick { 3 } else { 6 });
        cfg
    };
    let (down, up) = (Duration::from_millis(1), Duration::from_millis(3));
    vec![
        ("fig4-tpcc-2p", shape(0, 2)),
        ("chaos-tpcc-2p", shape(1, 2).with_crash(down, up)),
        (
            "psmr-tpcc-2p-w4",
            shape(2, 2).with_warehouses_per_partition(8).with_width(4),
        ),
    ]
}

/// The profiled report run: the fig7 shape in fixed-work mode, so the
/// legacy breakdown counters cover exactly the traced requests.
fn report_shape(seed: u64, quick: bool) -> RunConfig {
    let mut cfg = RunConfig::new(4, 3, Workload::Tpcc)
        .quick(quick)
        .with_requests(if quick { 30 } else { 150 });
    cfg.seed = seed;
    cfg
}

fn check_attribution(label: &str, a: &Attribution, legacy: &BreakdownSummary) -> bool {
    let (lo, lc, le) = (
        legacy.ordering.as_nanos() as u64,
        legacy.coordination.as_nanos() as u64,
        legacy.execution.as_nanos() as u64,
    );
    let ok = a.n == legacy.n as u64
        && within_1pct(a.ordering_ns, lo)
        && within_1pct(a.coordination_ns, lc)
        && within_1pct(a.execution_ns, le);
    if !ok {
        println!(
            "{label}: FAIL — blamed aggregate diverges from the legacy breakdown \
             (trace n={} o={} c={} e={} vs legacy n={} o={lo} c={lc} e={le})",
            a.n, a.ordering_ns, a.coordination_ns, a.execution_ns, legacy.n
        );
    }
    ok
}

fn main() {
    banner(
        "prof explain — tracing, wait-state profiling, critical paths, p999 blame",
        "Fig. 6/Fig. 7 latency anatomy from causal spans; schedules bit-identical on or off",
    );
    let seed = arg_value("--seed").unwrap_or(42);
    let topk = arg_value("--topk").unwrap_or(8) as usize;
    let quick = quick_mode();
    let mut failed = false;

    // ------------------------------------------------------------------
    // The traced + profiled run: report, critical paths, exemplar blame,
    // Fig. 6 cross-check.
    // ------------------------------------------------------------------
    let profiled = run_heron(
        &report_shape(seed, quick)
            .with_tracing(true)
            .with_profiling(true),
    );
    let prof = profiled.prof.as_ref().expect("profiling was enabled");
    let tracer = profiled.tracer.as_ref().expect("tracing was enabled");
    let events = tracer.events();
    println!(
        "fig7-tpcc-4p seed {seed}: {:.0} tps, {} procs profiled, {} gauges, {} trace events, \
         {} sim events",
        profiled.tps,
        prof.procs.len(),
        prof.gauges.len(),
        events.len(),
        profiled.events
    );

    // Wait-state totals over all processes.
    println!("\nwait-state totals (virtual time, all processes):");
    let totals = prof.totals();
    let grand: u64 = totals.iter().map(|t| t.ns).sum();
    for t in totals.iter().take(12) {
        println!(
            "  {:<24} {:>12.1} µs  ({:>5.1} %)  {:>8} transitions",
            t.state,
            us(t.ns),
            t.ns as f64 / grand.max(1) as f64 * 100.0,
            t.transitions
        );
    }

    // Resource utilization timelines.
    println!("\nresource utilization (bucket {} µs):", us(prof.bucket_ns));
    for g in &prof.gauges {
        println!(
            "  {:<24} mean {:>7.3}  max {:>5}  ({} buckets)",
            g.name,
            g.mean_overall,
            g.max,
            g.mean.len()
        );
    }
    if prof.gauges.is_empty() {
        println!("FAIL: no utilization gauges registered");
        failed = true;
    }

    // Top-k critical paths over every traced request.
    let paths = critical_paths(&events);
    println!("\ntop {} slowest requests:", topk.min(paths.len()));
    for (i, p) in paths.iter().take(topk).enumerate() {
        let segs: Vec<String> = p
            .segments
            .iter()
            .map(|s| format!("{} {:.1} µs", s.name, us(s.ns)))
            .collect();
        println!(
            "  #{:<2} uid {:<6} {}p {:>8.1} µs = {}",
            i + 1,
            p.uid,
            p.partitions,
            us(p.total_ns),
            segs.join(" | "),
        );
    }

    // p999 exemplars: each is its request's critical path, so in this
    // fixed-work run they are the slowest requests above. Every
    // exemplar's segments must sum exactly to its end-to-end latency.
    let blamed = blame_exemplars(&events, &profiled.exemplars);
    let tags: Vec<String> = blamed
        .iter()
        .map(|b| format!("uid {} {:.1} µs", b.uid, us(b.total_ns)))
        .collect();
    println!(
        "
tail exemplars (histogram-tagged): {}",
        tags.join(", ")
    );
    if blamed.is_empty() {
        println!("FAIL: no tail exemplars retained");
        failed = true;
    }
    for (b, &(latency_ns, _)) in blamed.iter().zip(&profiled.exemplars) {
        let sum: u64 = b.segments.iter().map(|s| s.ns).sum();
        if sum != b.total_ns || b.total_ns != latency_ns {
            println!(
                "FAIL: exemplar uid {} decomposition {} ns != latency {} ns (trace {} ns)",
                b.uid, sum, latency_ns, b.total_ns
            );
            failed = true;
        }
        if b.segments.iter().any(|s| s.name == "untraced") {
            println!("FAIL: exemplar uid {} missing from the trace", b.uid);
            failed = true;
        }
    }

    // Registry view: the same run, through named histograms and counters.
    println!("\nmetrics registry:");
    for (name, h) in &profiled.hists {
        println!(
            "  {name:<22} n={:<6} p50 {:>8.1} µs  p99 {:>8.1} µs  p999 {:>8.1} µs",
            h.count,
            us(h.p50),
            us(h.p99),
            us(h.p999),
        );
    }
    for (name, v) in &profiled.counters {
        println!("  {name:<22} {v}");
    }

    // Fig. 6 cross-check: the analyzer's span attribution must match the
    // legacy counters within 1 %.
    let single = attribute_where(&events, |p| p == 1);
    let multi = attribute_where(&events, |p| p > 1);
    failed |= !check_attribution("single", &single, &profiled.single);
    failed |= !check_attribution("multi", &multi, &profiled.multi);
    if multi.n == 0 {
        println!("FAIL: no multi-partition requests traced");
        failed = true;
    }

    // Artifacts: collapsed stacks + Perfetto with counter tracks.
    let dir = std::path::Path::new("bench_results");
    std::fs::create_dir_all(dir).expect("create bench_results/");
    let folded = prof.collapsed_stacks();
    std::fs::write(dir.join("prof_waitstates.folded"), &folded).expect("write folded stacks");
    let perfetto = sim::trace::export_chrome_json_with_counters(
        &events,
        &tracer.track_names(),
        &prof.counter_tracks(),
    );
    std::fs::write(dir.join("prof_explain.json"), perfetto).expect("write perfetto trace");
    println!(
        "\nartifacts: bench_results/prof_explain.json (perfetto, load in ui.perfetto.dev), \
         bench_results/prof_waitstates.folded ({} lines)",
        folded.lines().count()
    );

    // ------------------------------------------------------------------
    // Determinism pin: tracing + profiling off vs on, both engines, three
    // shapes.
    // ------------------------------------------------------------------
    let reference = sim::EngineConfig {
        queue: sim::QueueKind::Heap,
        direct_handoff: false,
    };
    let engines = [("fast", sim::EngineConfig::default()), ("heap", reference)];
    println!("\ndeterminism pin (schedule hash, tracing + profiling off vs on):");
    let mut pins = Vec::new();
    let mut pin = |shape_name: &str, engine_name: &str, off: &LoadSummary, on: &LoadSummary| {
        let ok = (off.schedule_hash, off.events, off.virtual_ns)
            == (on.schedule_hash, on.events, on.virtual_ns)
            && off.tps == on.tps;
        println!(
            "  {shape_name:<18} {engine_name:<5} hash {:#018x}  events {:>8}  {}",
            on.schedule_hash,
            on.events,
            if ok { "identical" } else { "DIVERGED" }
        );
        if !ok {
            println!(
                "FAIL: observers changed the schedule on {shape_name}/{engine_name} \
                 (off {:#018x}/{} vs on {:#018x}/{})",
                off.schedule_hash, off.events, on.schedule_hash, on.events
            );
        }
        let mut j = Json::obj();
        j.set("shape", shape_name);
        j.set("engine", engine_name);
        j.set("schedule_hash", format!("{:#018x}", on.schedule_hash));
        j.set("events", on.events);
        j.set("identical", ok);
        pins.push(j);
        ok
    };
    for (shape_name, cfg) in shapes(seed, quick) {
        for (engine_name, engine) in engines {
            let cfg = cfg.clone().with_engine(engine);
            let off = run_heron(&cfg);
            let on = run_heron(&cfg.with_tracing(true).with_profiling(true));
            failed |= !pin(shape_name, engine_name, &off, &on);
        }
    }

    // ------------------------------------------------------------------
    // Overhead: profiling on vs off, in process CPU time — wall time is
    // dominated by OS thread handoffs and drifts between runs. The pairs
    // interleave (off,on,on,off,…) so drift lands on both sides, and the
    // verdict is the median of the per-pair on/off ratios, which a few
    // disturbed pairs cannot move. The first off run also pins the report
    // shape's schedule against the traced + profiled run above.
    // ------------------------------------------------------------------
    let cpu = || cpu_time().expect("process CPU time needs /proc/self/stat");
    let cpu_run = |cfg: &RunConfig| {
        let t0 = cpu();
        let summary = run_heron(cfg);
        (summary, (cpu() - t0).as_secs_f64() * 1e3)
    };
    let (mut cpu_off, mut cpu_on, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..OVERHEAD_PAIRS {
        // Alternate which side runs first, so an order effect cancels.
        let order = if pair % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        let mut ms = [0.0; 2];
        for profiling in order {
            let (summary, cpu_ms) = cpu_run(&report_shape(seed, quick).with_profiling(profiling));
            ms[usize::from(profiling)] = cpu_ms;
            if pair == 0 && !profiling {
                failed |= !pin("fig7-tpcc-4p", "fast", &summary, &profiled);
            }
        }
        cpu_off.push(ms[0]);
        cpu_on.push(ms[1]);
        ratios.push(ms[1] / ms[0]);
    }
    for v in [&mut cpu_off, &mut cpu_on, &mut ratios] {
        v.sort_by(f64::total_cmp);
    }
    let overhead_pct = (quantile(&ratios, 0.5) - 1.0) * 100.0;
    println!(
        "\noverhead: median CPU off {:.0} ms, on {:.0} ms; median of {OVERHEAD_PAIRS} pair \
         ratios {overhead_pct:+.2} % (budget 5 %)",
        quantile(&cpu_off, 0.5),
        quantile(&cpu_on, 0.5),
    );
    if overhead_pct > 5.0 {
        println!("FAIL: profiling overhead exceeds the 5 % budget");
        failed = true;
    }

    let mut out = Json::obj();
    out.set("schedule", "fig7-tpcc-4p");
    out.set("seed", seed);
    out.set("quick", quick);
    out.set("pairs", OVERHEAD_PAIRS as u64);
    out.set("cpu_ms_off_median", quantile(&cpu_off, 0.5));
    out.set("cpu_ms_on_median", quantile(&cpu_on, 0.5));
    out.set("cpu_overhead_pct", overhead_pct);
    out.set("procs_profiled", prof.procs.len() as u64);
    out.set("gauges", prof.gauges.len() as u64);
    out.set("exemplars", blamed.len() as u64);
    out.set("determinism", Json::Arr(pins));
    write_results("BENCH_prof_overhead.json", &out).expect("write overhead results");

    if failed {
        println!("prof explain: FAIL");
        std::process::exit(1);
    }
    println!(
        "prof explain: exemplars sum exactly, attribution matches, schedules \
         bit-identical, overhead within budget"
    );
}
