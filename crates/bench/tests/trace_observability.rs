//! Regression tests for the virtual-time tracing subsystem (DESIGN.md
//! §11): tracing must not perturb the schedule, the Perfetto export must
//! be well-formed and causally sensible, and the critical-path analyzer's
//! Fig. 6 attribution must agree with the legacy breakdown counters and
//! decompose every request exactly, pool parks included.

use heron_bench::{run_heron, RunConfig, Workload};
use heron_core::critical_path::{attribute_where, critical_paths, spans};
use heron_core::{HeronCluster, HeronConfig, PartitionId};
use rdma_sim::{Fabric, FaultPlan, LatencyModel};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tpcc::{TpccApp, TpccGen, TpccScale};

/// A small fig4-shaped run in fixed-work mode: deterministic request set,
/// whole run measured, so schedules and attributions compare exactly.
fn shape(partitions: usize, requests: u64) -> RunConfig {
    let mut cfg = RunConfig::new(partitions, 3, Workload::Tpcc)
        .quick(true)
        .with_requests(requests);
    cfg.clients = partitions * 2;
    cfg.seed = 7;
    cfg
}

/// Satellite: enabling tracing changes neither the simulator event count
/// nor delivery order nor final virtual time — the same cross-check the
/// race detector ships.
#[test]
fn tracing_does_not_perturb_the_schedule() {
    let on = run_heron(&shape(2, 15).with_tracing(true));
    let off = run_heron(&shape(2, 15));
    assert_eq!(on.events, off.events, "sim event counts differ");
    assert_eq!(on.virtual_ns, off.virtual_ns, "final virtual time differs");
    assert_eq!(on.tps, off.tps, "completed work differs");
    assert_eq!(on.mean, off.mean, "latencies differ — delivery order moved");
    assert!(on.tracer.is_some() && !on.tracer.as_ref().unwrap().is_empty());
    assert!(off.tracer.is_none());
}

/// Satellite: a 2-partition, 2-request run exports well-formed Chrome
/// `trace_event` JSON — parseable nesting, monotone non-negative
/// timestamps, the expected span names, and thread metadata per track.
#[test]
fn perfetto_export_is_well_formed() {
    let summary = run_heron(&shape(2, 2).with_tracing(true));
    let tracer = summary.tracer.expect("tracing was on");
    let json = tracer.export_chrome_json();

    // Structural well-formedness without a JSON parser: braces and
    // brackets balance outside string literals, and never go negative.
    let (mut depth, mut in_str, mut esc) = (0i64, false, false);
    for c in json.chars() {
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced braces");
            }
            _ => {}
        }
    }
    assert_eq!(depth, 0, "unbalanced braces");
    assert!(!in_str, "unterminated string");

    // The spans the stack promises, client to executor to fabric.
    for name in [
        "client.request",
        "mcast.submit",
        "mcast.deliver",
        "exec.request",
        "exec.execute",
        "rdma.post",
        "rdma.write.flight",
        "thread_name",
        "heron-sim",
    ] {
        assert!(json.contains(name), "export is missing {name:?}");
    }

    // Events are recorded in virtual time: every duration fits inside the
    // run, and Begin/End pairs are non-negative (t1 ≥ t0 per span).
    let events = tracer.events();
    assert!(!events.is_empty());
    for s in spans(&events) {
        assert!(s.t1 >= s.t0, "span {} ends before it begins", s.name);
        assert!(
            s.t1 <= summary.virtual_ns,
            "span {} outlives the run",
            s.name
        );
    }
    // Record order is monotone in virtual time per track (one process
    // runs at a time; the buffer appends as the schedule executes).
    let mut last: std::collections::HashMap<u32, u64> = Default::default();
    for e in &events {
        let t = last.entry(e.track).or_insert(0);
        assert!(e.t_ns >= *t, "track {} goes back in time", e.track);
        *t = e.t_ns;
    }
}

/// Acceptance criterion: the analyzer's ordering/coordination/execution
/// attribution matches the legacy Fig. 6 breakdown within 1 % (exactly,
/// in fact: the phase spans sample the same virtual instants).
#[test]
fn critical_path_attribution_matches_legacy_breakdown() {
    let summary = run_heron(&shape(4, 12).with_tracing(true));
    let events = summary.tracer.as_ref().expect("tracing was on").events();
    for (label, a, legacy) in [
        (
            "single",
            attribute_where(&events, |p| p == 1),
            summary.single,
        ),
        ("multi", attribute_where(&events, |p| p > 1), summary.multi),
    ] {
        assert!(a.n > 0, "{label}: no samples traced");
        assert_eq!(a.n, legacy.n as u64, "{label}: sample counts differ");
        for (name, t, l) in [
            ("ordering", a.ordering_ns, legacy.ordering.as_nanos() as u64),
            (
                "coordination",
                a.coordination_ns,
                legacy.coordination.as_nanos() as u64,
            ),
            (
                "execution",
                a.execution_ns,
                legacy.execution.as_nanos() as u64,
            ),
        ] {
            assert!(
                t.abs_diff(l) * 100 <= l,
                "{label} {name}: trace {t} ns vs legacy {l} ns diverge > 1 %"
            );
        }
    }

    // Critical paths decompose every traced request's full latency.
    let paths = critical_paths(&events);
    assert!(!paths.is_empty());
    assert!(paths.windows(2).all(|w| w[0].total_ns >= w[1].total_ns));
    for p in &paths {
        let sum: u64 = p.segments.iter().map(|s| s.ns).sum();
        assert_eq!(sum, p.total_ns, "segments must account for the latency");
        assert!(p.total_ns <= summary.virtual_ns);
        assert!(p.segments.iter().all(|s| s.name != "untraced"));
    }
    // Closed-loop latency floor: nothing completes in zero virtual time.
    assert!(paths
        .iter()
        .all(|p| p.total_ns >= Duration::from_micros(1).as_nanos() as u64));
}

/// On a width-4 P-SMR pool the all-requests view carries the parks too:
/// a majority of partition 1 is paused past the transfer timeout while
/// partition 0's workers sit in Phase 2 of cross-partition TPC-C
/// transactions, so they park starved and resume when the barrier heals.
/// At least one request shows a `park.*` segment, and every request's
/// segments still sum exactly to its `client.request` span.
#[test]
fn critical_paths_carve_parks_and_sum_exactly_at_width_4() {
    let simulation = sim::Simulation::new(7);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let scale = TpccScale::bench();
    let app = Arc::new(TpccApp::new(scale, 16).with_partitions(2));
    let hcfg = HeronConfig::new(2, 3)
        .with_executor_width(4)
        .with_tracing(true);
    let cluster = HeronCluster::build(&fabric, hcfg, app);
    cluster.spawn(&simulation);
    let mut plan = FaultPlan::new(7);
    for r in [1, 2] {
        plan = plan.pause(
            cluster.replica_node(PartitionId(1), r).id(),
            Duration::from_micros(300),
            Duration::from_millis(8),
        );
    }
    plan.arm(&simulation, &fabric);
    let live = Arc::new(AtomicUsize::new(4));
    for c in 0..4u16 {
        let mut client = cluster.client(format!("c{c}"));
        let live = live.clone();
        simulation.spawn(format!("client-{c}"), move || {
            let mut gen = TpccGen::new(scale, 16, 7 + u64::from(c));
            for _ in 0..30 {
                client.execute(&gen.next(c + 1).encode());
            }
            if live.fetch_sub(1, Ordering::SeqCst) == 1 {
                sim::stop();
            }
        });
    }
    simulation
        .run_until(sim::SimTime::from_secs(1))
        .expect("simulation error");
    let events = cluster.tracer().expect("tracing was on").events();

    let latency: HashMap<u64, u64> = spans(&events)
        .iter()
        .filter(|s| s.name == "client.request" && s.corr != 0)
        .map(|s| (s.corr, s.dur_ns()))
        .collect();
    let paths = critical_paths(&events);
    assert_eq!(paths.len(), latency.len(), "one path per traced request");
    assert_eq!(paths.len(), 4 * 30, "every request completed");
    for p in &paths {
        let sum: u64 = p.segments.iter().map(|s| s.ns).sum();
        assert_eq!(sum, latency[&p.uid], "uid {} segments vs latency", p.uid);
    }
    let parked = paths
        .iter()
        .filter(|p| p.segments.iter().any(|s| s.name.starts_with("park.")))
        .count();
    assert!(parked > 0, "no park segment in {} paths", paths.len());
}
