//! Registered-memory guard: rdma-sim backs registered memory with pages
//! allocated on first write, so a deployment's host memory follows what
//! the run writes, not what it registers, and the replicas of a partition
//! share one bootstrap image copy-on-write (DESIGN.md §3). The count of
//! resident pages is deterministic for a seed, unlike RSS, so an eager
//! zero-fill of the rings or a per-replica bootstrap would fail this test
//! on any machine.

use heron_bench::NullApp;
use heron_core::{HeronCluster, HeronConfig, PartitionId};
use rdma_sim::{Fabric, LatencyModel, NodeId};
use sim::SimTime;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use tpcc::{TpccApp, TpccScale};

const PARTITIONS: u16 = 4;
const SESSIONS: usize = 16;
const MIB: usize = 1 << 20;

/// Bounds on resident registered memory, summed over every node. Measured
/// at under 0.1 MiB after set-up (set-up writes almost only zeros) and
/// 3.0 MiB after the run, of 188 MiB registered.
const SETUP_BOUND: usize = MIB;
const RUN_BOUND: usize = 8 * MIB;

fn resident_and_registered(fabric: &Fabric) -> (usize, usize) {
    (0..fabric.len() as u32)
        .map(|i| fabric.node(NodeId(i)))
        .map(|n| (n.resident_bytes(), n.registered_bytes()))
        .fold((0, 0), |(r, g), (nr, ng)| (r + nr, g + ng))
}

#[test]
fn resident_registered_memory_stays_bounded() {
    let simulation = sim::Simulation::new(42);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let cfg = HeronConfig::new(PARTITIONS as usize, 3).with_max_clients(SESSIONS);
    let cluster = HeronCluster::build(&fabric, cfg, Arc::new(NullApp::new(PARTITIONS)));
    cluster.spawn(&simulation);
    let (resident, registered) = resident_and_registered(&fabric);
    eprintln!(
        "after set-up: {:.1} MiB resident of {:.1} MiB registered",
        resident as f64 / MIB as f64,
        registered as f64 / MIB as f64
    );
    assert!(
        registered > 16 * RUN_BOUND,
        "the deployment registers far more than the bounds allow resident"
    );
    assert!(resident <= SETUP_BOUND, "set-up made {resident} B resident");

    // A short closed-loop run of single-partition null requests.
    for s in 0..SESSIONS {
        let mut client = cluster.client(format!("s{s}"));
        simulation.spawn(format!("session-{s}"), move || {
            for k in 0..40u16 {
                let dests = [PartitionId((s as u16 + k) % PARTITIONS)];
                let reply = client.execute_on(&NullApp::request(&dests), &dests);
                assert_eq!(reply.as_ref(), b"ok");
            }
        });
    }
    simulation
        .run_until(SimTime::from_nanos(20_000_000))
        .expect("run");
    let completed = cluster.metrics().completed.load(Ordering::Relaxed);
    assert_eq!(completed, (SESSIONS * 40) as u64, "every request completed");
    let (resident, _) = resident_and_registered(&fabric);
    eprintln!(
        "after the run: {:.1} MiB resident",
        resident as f64 / MIB as f64
    );
    assert!(resident <= RUN_BOUND, "the run made {resident} B resident");
}

/// Bound on the host bytes of registered memory after a short TPC-C run
/// on the benchmark's 4 × 3 shape. Measured at 22.5 MiB after set-up (one
/// bootstrap image per partition, of 67.5 MiB the replicas map) and 29.8
/// MiB after 8 requests per session, most of the growth being copies of
/// shared pages the replicas wrote.
const TPCC_RUN_BOUND: usize = 36 * MIB;

#[test]
fn replicas_share_the_bootstrap_image() {
    let simulation = sim::Simulation::new(42);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let app = Arc::new(TpccApp::new(TpccScale::bench(), PARTITIONS));
    let cfg = HeronConfig::new(PARTITIONS as usize, 3).with_max_clients(SESSIONS);
    let cluster = HeronCluster::build(&fabric, cfg, app.clone());
    cluster.spawn(&simulation);
    let image: usize = (0..PARTITIONS)
        .map(|p| cluster.replica_node(PartitionId(p), 0).resident_bytes())
        .sum();
    let (mapped, _) = resident_and_registered(&fabric);
    eprintln!(
        "after set-up: {:.1} MiB host bytes, {:.1} MiB mapped by the nodes",
        fabric.host_bytes() as f64 / MIB as f64,
        mapped as f64 / MIB as f64
    );
    assert_eq!(
        fabric.host_bytes(),
        image,
        "set-up materialized pages beyond one image per partition"
    );
    assert_eq!(mapped, 3 * image, "every replica maps the whole image");

    for s in 0..SESSIONS {
        let mut client = cluster.client(format!("s{s}"));
        let mut gen = app.generator(s as u64);
        simulation.spawn(format!("session-{s}"), move || {
            for k in 0..8u16 {
                let home = (s as u16 + k) % PARTITIONS + 1;
                client.execute(&gen.next(home).encode());
            }
        });
    }
    simulation
        .run_until(SimTime::from_nanos(20_000_000))
        .expect("run");
    let completed = cluster.metrics().completed.load(Ordering::Relaxed);
    assert_eq!(completed, (SESSIONS * 8) as u64, "every request completed");
    eprintln!(
        "after the run: {:.1} MiB host bytes",
        fabric.host_bytes() as f64 / MIB as f64
    );
    assert!(
        fabric.host_bytes() <= TPCC_RUN_BOUND,
        "the run made {} B resident",
        fabric.host_bytes()
    );
}
