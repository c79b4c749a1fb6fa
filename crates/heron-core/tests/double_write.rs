//! Regression test: a multi-partition request that writes one object twice
//! while another partition reads that object remotely must complete.
//!
//! A TPC-C NewOrder may order one item on two lines; the supplying
//! partition then writes the stock row twice under the request's
//! timestamp. The dual-version store used to treat the second write like
//! a write by a newer request and evict the only version older than the
//! timestamp. The home partition's remote read at that timestamp then
//! found no readable version, every replica of the home partition fell
//! into a state transfer nobody could serve, and all client sessions hung
//! in a fault-free run.

use bytes::Bytes;
use heron_core::{
    Execution, HeronCluster, HeronConfig, LocalReader, ObjectId, PartitionId, Placement, ReadSet,
    StateMachine,
};
use rdma_sim::{Fabric, LatencyModel};
use sim::SimTime;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Two partitions; object `k` lives on partition `k % 2`. Every request
/// goes to both partitions: the reader partition 0 fetches objects 3, 5
/// and then `target` remotely, and partition 1 writes `target` twice.
struct DoubleWrite;

const SESSIONS: u64 = 4;
const REQUESTS: u64 = 20;

fn target(req: &[u8]) -> ObjectId {
    ObjectId(u64::from_le_bytes(req[..8].try_into().unwrap()))
}

fn value(v: &Bytes) -> u64 {
    u64::from_le_bytes(v[..8].try_into().unwrap())
}

impl StateMachine for DoubleWrite {
    fn placement(&self, oid: ObjectId) -> Placement {
        Placement::Partition(PartitionId((oid.0 % 2) as u16))
    }

    fn destinations(&self, _req: &[u8]) -> Vec<PartitionId> {
        vec![PartitionId(0), PartitionId(1)]
    }

    fn read_set(&self, req: &[u8]) -> Vec<ObjectId> {
        // The other remote reads (each needs an address query first) put
        // the read of `target` after partition 1's writes land.
        vec![ObjectId(3), ObjectId(5), target(req)]
    }

    fn execute(
        &self,
        partition: PartitionId,
        req: &[u8],
        reads: &ReadSet,
        _local: &dyn LocalReader,
    ) -> Execution {
        let oid = target(req);
        let old = value(reads.get(oid).expect("target read"));
        let writes = if partition == PartitionId(1) {
            vec![
                (oid, Bytes::copy_from_slice(&(old + 1).to_le_bytes())),
                (oid, Bytes::copy_from_slice(&(old + 2).to_le_bytes())),
            ]
        } else {
            vec![]
        };
        Execution {
            writes,
            response: Bytes::copy_from_slice(&old.to_le_bytes()),
            compute: Duration::ZERO,
        }
    }

    fn bootstrap(&self, partition: PartitionId) -> Vec<(ObjectId, Bytes)> {
        (0..16u64)
            .filter(|k| k % 2 == partition.0 as u64)
            .map(|k| (ObjectId(k), Bytes::copy_from_slice(&0u64.to_le_bytes())))
            .collect()
    }
}

#[test]
fn request_writing_an_object_twice_completes() {
    let simulation = sim::Simulation::new(252);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let cluster = HeronCluster::build(&fabric, HeronConfig::new(2, 3), Arc::new(DoubleWrite));
    cluster.spawn(&simulation);
    let done = Arc::new(AtomicU64::new(0));
    for s in 0..SESSIONS {
        let mut client = cluster.client(format!("s{s}"));
        let done = Arc::clone(&done);
        simulation.spawn(format!("session-{s}"), move || {
            // Each session owns one object of partition 1 (7, 9, 11, 13).
            let oid = 7 + 2 * s;
            for k in 0..REQUESTS {
                let reply = client.execute(&oid.to_le_bytes());
                // Partition 0 replies first: the value before this
                // request, which the previous one left at 2 per request.
                assert_eq!(value(&reply), 2 * k, "session {s} request {k}");
                done.fetch_add(1, Ordering::SeqCst);
            }
        });
    }
    simulation
        .run_until(SimTime::from_nanos(50_000_000))
        .expect("run");
    assert_eq!(
        done.load(Ordering::SeqCst),
        SESSIONS * REQUESTS,
        "every session completes every request"
    );
    let metrics = cluster.metrics();
    assert_eq!(metrics.transfers_started.load(Ordering::Relaxed), 0);
    for p in [PartitionId(0), PartitionId(1)] {
        let digests: Vec<u64> = (0..3).map(|i| cluster.state_digest(p, i)).collect();
        assert!(
            digests.iter().all(|d| *d == digests[0]),
            "{p}: {digests:x?}"
        );
    }
}
