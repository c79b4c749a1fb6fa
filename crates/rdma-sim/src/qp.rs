//! Reliable-connection queue pairs and the one-sided verbs.

use crate::error::{RdmaError, RdmaResult};
use crate::fabric::{Addr, Message, Node, NodeId};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A reliable-connection (RC) queue pair from a local node to a remote
/// node — in-order, reliable delivery, the transport mode Heron uses
/// (paper §II-C).
///
/// All verbs must be called from a simulated process: they charge the
/// issuing process the modeled fabric latency.
#[derive(Clone)]
pub struct QueuePair {
    local: Node,
    remote: Node,
}

impl fmt::Debug for QueuePair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueuePair")
            .field("local", &self.local.id())
            .field("remote", &self.remote.id())
            .finish()
    }
}

impl QueuePair {
    pub(crate) fn new(local: Node, remote: Node) -> Self {
        QueuePair { local, remote }
    }

    /// The local endpoint's id.
    pub fn local_id(&self) -> NodeId {
        self.local.id()
    }

    /// The remote endpoint's id.
    pub fn remote_id(&self) -> NodeId {
        self.remote.id()
    }

    fn check_local_alive(&self) -> RdmaResult<()> {
        if !self.local.is_alive() {
            return Err(RdmaError::LocalFailure);
        }
        Ok(())
    }

    /// Accounts the verb-level fault plan costs: post_ns (scaled by any
    /// slowdown), injected stalls, and decides whether this verb's
    /// completion is dropped. Must be called at the verb's posting point.
    fn post_verb(&self) -> RdmaResult<FaultGate> {
        let gate = self.fault_gate()?;
        sim::sleep_ns(self.local.fabric.latency.post_ns * gate.slow);
        Ok(gate)
    }

    /// Passes the verb through the fabric's fault layer (if a
    /// [`crate::FaultPlan`] is armed): charges any injected stall, crashes
    /// the local node if the plan says so, and reports whether this verb's
    /// completion is to be dropped and how much the node is slowed. With no
    /// plan armed this is a no-op returning the identity gate.
    fn fault_gate(&self) -> RdmaResult<FaultGate> {
        match self
            .local
            .fabric
            .verb_fate(self.local.id(), sim::now().as_nanos())
        {
            crate::faults::VerbFate::Proceed { stall_ns, slow } => {
                if stall_ns > 0 {
                    sim::sleep_ns(stall_ns);
                }
                Ok(FaultGate { slow, drop: false })
            }
            crate::faults::VerbFate::Drop { stall_ns, slow } => {
                if stall_ns > 0 {
                    sim::sleep_ns(stall_ns);
                }
                Ok(FaultGate { slow, drop: true })
            }
            crate::faults::VerbFate::CrashLocal => {
                self.local
                    .inner
                    .alive
                    .store(false, std::sync::atomic::Ordering::SeqCst);
                Err(RdmaError::LocalFailure)
            }
        }
    }

    /// Sleeps until the op reaches the remote node, respecting RC in-order
    /// delivery and link serialization on this (src, dst) link, and
    /// returns at the arrival instant.
    fn sleep_until_arrival(&self, payload_bytes: usize) {
        let now = sim::now().as_nanos();
        let arrival =
            self.local
                .fabric
                .fifo_arrival(self.local.id(), self.remote.id(), now, payload_bytes);
        sim::sleep_ns(arrival - now);
    }

    /// One-sided RDMA read of `len` bytes at `addr` in the remote node's
    /// memory. The remote CPU is not involved.
    ///
    /// Cost: post + one-way request + one-way response carrying `len` bytes.
    ///
    /// # Errors
    ///
    /// [`RdmaError::RemoteFailure`] if the remote node is crashed (the
    /// paper's "RDMA exception"); [`RdmaError::OutOfBounds`] for a bad
    /// range; [`RdmaError::LocalFailure`] if this node is crashed.
    pub fn read(&self, addr: Addr, len: usize) -> RdmaResult<Vec<u8>> {
        self.check_local_alive()?;
        // Post → request on the wire → response: one synchronous span on
        // the issuing process covers the whole round trip.
        let _span = sim::trace::span_args("rdma.read", 0, &self.verb_args(addr, len));
        let gate = self.post_verb()?;
        let lat = self.local.fabric.latency;
        self.sleep_until_arrival(8);
        if gate.drop {
            // Request lost in the fabric: the completion queue reports an
            // error, indistinguishable from a remote failure.
            return Err(RdmaError::RemoteFailure);
        }
        if !self.remote.is_alive() {
            return Err(RdmaError::RemoteFailure);
        }
        // Snapshot at arrival time: per-word atomicity holds because all
        // memory mutations happen at single virtual instants. Deliberately
        // the raw read: a one-sided read must not acquire — it is exactly
        // the access the race detector checks.
        let data = self.remote.read_raw(addr, len)?;
        if let Some(tsan) = self.local.fabric.tsan() {
            tsan.on_remote_read(&self.remote, addr, len, sim::now().as_nanos());
        }
        sim::sleep_ns(lat.one_way(len) * gate.slow);
        let stats = &self.local.fabric.stats;
        stats.reads.fetch_add(1, Ordering::Relaxed);
        stats.doorbells.fetch_add(1, Ordering::Relaxed);
        stats.bytes_read.fetch_add(len as u64, Ordering::Relaxed);
        Ok(data)
    }

    /// One-sided read of a single 8-byte word.
    ///
    /// # Errors
    ///
    /// As [`QueuePair::read`], plus [`RdmaError::Misaligned`].
    pub fn read_word(&self, addr: Addr) -> RdmaResult<u64> {
        if !addr.is_word_aligned() {
            return Err(RdmaError::Misaligned);
        }
        let bytes = self.read(addr, 8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte read")))
    }

    /// One-sided read of `n` consecutive words.
    ///
    /// # Errors
    ///
    /// As [`QueuePair::read`], plus [`RdmaError::Misaligned`].
    pub fn read_words(&self, addr: Addr, n: usize) -> RdmaResult<Vec<u64>> {
        if !addr.is_word_aligned() {
            return Err(RdmaError::Misaligned);
        }
        let bytes = self.read(addr, n * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect())
    }

    /// Signaled one-sided RDMA write: returns once the completion arrives,
    /// i.e. after a full round trip. The payload is visible in remote memory
    /// from the one-way point.
    ///
    /// # Errors
    ///
    /// [`RdmaError::RemoteFailure`], [`RdmaError::OutOfBounds`],
    /// [`RdmaError::LocalFailure`].
    pub fn write(&self, addr: Addr, data: &[u8]) -> RdmaResult<()> {
        self.check_local_alive()?;
        let _span = sim::trace::span_args("rdma.write", 0, &self.verb_args(addr, data.len()));
        let gate = self.post_verb()?;
        let lat = self.local.fabric.latency;
        self.sleep_until_arrival(data.len());
        if gate.drop {
            // Dropped before landing: remote memory is left untouched and
            // the issuer sees an errored completion.
            return Err(RdmaError::RemoteFailure);
        }
        if !self.remote.is_alive() {
            return Err(RdmaError::RemoteFailure);
        }
        self.remote.write_instrumented(addr, data, "rdma-write")?;
        sim::sleep_ns(lat.one_way(8) * gate.slow);
        let stats = &self.local.fabric.stats;
        stats.writes.fetch_add(1, Ordering::Relaxed);
        stats.doorbells.fetch_add(1, Ordering::Relaxed);
        stats
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Signaled write of one 8-byte word.
    ///
    /// # Errors
    ///
    /// As [`QueuePair::write`], plus [`RdmaError::Misaligned`].
    pub fn write_word(&self, addr: Addr, value: u64) -> RdmaResult<()> {
        if !addr.is_word_aligned() {
            return Err(RdmaError::Misaligned);
        }
        self.write(addr, &value.to_le_bytes())
    }

    /// Unsignaled (fire-and-forget) one-sided write: a [`WriteBatch`] of
    /// one. The issuing process is only charged the posting cost; the
    /// payload lands in remote memory one one-way latency later (and wakes
    /// pollers of that node's memory).
    ///
    /// If the remote node is crashed at arrival time the write is silently
    /// dropped — matching unsignaled verb semantics, where no completion is
    /// ever reported.
    ///
    /// # Errors
    ///
    /// [`RdmaError::LocalFailure`] if this node is crashed.
    pub fn post_write(&self, addr: Addr, data: Vec<u8>) -> RdmaResult<()> {
        let mut batch = self.write_batch();
        batch.push(addr, data);
        batch.post()
    }

    /// Unsignaled write of one 8-byte word. See [`QueuePair::post_write`].
    ///
    /// # Errors
    ///
    /// [`RdmaError::Misaligned`] or [`RdmaError::LocalFailure`].
    pub fn post_write_word(&self, addr: Addr, value: u64) -> RdmaResult<()> {
        if !addr.is_word_aligned() {
            return Err(RdmaError::Misaligned);
        }
        self.post_write(addr, value.to_le_bytes().to_vec())
    }

    /// Atomic compare-and-swap on an 8-byte word of remote memory. Returns
    /// the previous value (the swap happened iff it equals `expected`).
    ///
    /// # Errors
    ///
    /// [`RdmaError::RemoteFailure`], [`RdmaError::OutOfBounds`],
    /// [`RdmaError::Misaligned`], [`RdmaError::LocalFailure`].
    pub fn compare_and_swap(&self, addr: Addr, expected: u64, new: u64) -> RdmaResult<u64> {
        if !addr.is_word_aligned() {
            return Err(RdmaError::Misaligned);
        }
        self.check_local_alive()?;
        let _span = sim::trace::span_args("rdma.cas", 0, &self.verb_args(addr, 8));
        let gate = self.post_verb()?;
        let lat = self.local.fabric.latency;
        self.sleep_until_arrival(16);
        if gate.drop {
            return Err(RdmaError::RemoteFailure);
        }
        if !self.remote.is_alive() {
            return Err(RdmaError::RemoteFailure);
        }
        let old = {
            let mut mem = self.remote.inner.mem.lock();
            self.remote.inner.check_range(&mem, addr, 8)?;
            mem.compare_and_swap(addr.0 as usize, expected, new)
        };
        if old == expected {
            self.remote.inner.mem_cond.notify_all();
        }
        if let Some(tsan) = self.local.fabric.tsan() {
            let ticket = crate::tsan::Epoch::capture("rdma-cas");
            tsan.on_cas(&self.remote, addr, &ticket, sim::now().as_nanos());
        }
        sim::sleep_ns(lat.one_way(8) * gate.slow);
        let stats = &self.local.fabric.stats;
        stats.cas_ops.fetch_add(1, Ordering::Relaxed);
        stats.doorbells.fetch_add(1, Ordering::Relaxed);
        Ok(old)
    }

    /// Trace-arg triple identifying the verb's target: the remote node (the
    /// QP), the target address (identifying the region), and payload bytes.
    fn verb_args(&self, addr: Addr, len: usize) -> [(&'static str, u64); 3] {
        [
            ("dst", u64::from(self.remote.id().0)),
            ("addr", addr.0),
            ("len", len as u64),
        ]
    }

    /// Opens a doorbell batch towards this queue pair's remote end: up to
    /// N unsignaled writes posted with a single doorbell ring. See
    /// [`WriteBatch`].
    pub fn write_batch(&self) -> WriteBatch {
        WriteBatch {
            qp: self.clone(),
            writes: Vec::new(),
            bytes: 0,
        }
    }

    /// Two-sided send. The payload arrives in the remote node's receive
    /// queue after one one-way latency; the remote CPU must [`Node::recv`]
    /// it. Dropped silently if the remote is crashed at arrival.
    ///
    /// # Errors
    ///
    /// [`RdmaError::LocalFailure`] if this node is crashed.
    pub fn send(&self, payload: Vec<u8>) -> RdmaResult<()> {
        self.check_local_alive()?;
        let _post = sim::trace::span_args("rdma.send", 0, &self.verb_args(Addr(0), payload.len()));
        let gate = self.post_verb()?;
        let now = sim::now().as_nanos();
        let delay =
            self.local
                .fabric
                .fifo_arrival(self.local.id(), self.remote.id(), now, payload.len())
                - now;
        let remote = self.remote.clone();
        let from = self.local.id();
        let stats = &self.local.fabric.stats;
        stats.sends.fetch_add(1, Ordering::Relaxed);
        stats.doorbells.fetch_add(1, Ordering::Relaxed);
        if gate.drop {
            return Ok(());
        }
        // Carry the sender's happens-before clock with the message; the
        // receiver joins it on delivery (a sync edge for the detector).
        // Empty — and free — when no detector runs.
        let clock = sim::vc_current();
        let flight = sim::trace::flight_begin("rdma.send.flight", 0, &self.verb_args(Addr(0), 0));
        // Zero-copy wrap: the vector becomes the message payload as-is
        // and its allocation recycles through the bytes pool on drop.
        let payload = bytes::Bytes::from(payload);
        sim::schedule_ns(delay, move || {
            if let Some(flight) = flight {
                flight.end_at(now + delay);
            }
            if remote.is_alive() {
                // A send into a crashed receiver is silently lost; the
                // mailbox refuses posts for a dead node anyway.
                let _ = remote
                    .inner
                    .inbox
                    .send_with_clock(Message { from, payload }, clock);
            }
        });
        Ok(())
    }
}

/// The fault layer's decision about one verb: how much to scale the verb's
/// latency charges and whether its completion is lost. The identity gate
/// (`slow == 1`, `drop == false`) is what every verb gets when no
/// [`crate::FaultPlan`] is armed.
#[derive(Debug, Clone, Copy)]
struct FaultGate {
    slow: u64,
    drop: bool,
}

/// A doorbell batch of unsignaled writes to a single peer — the one
/// implementation of unsignaled writes; [`QueuePair::post_write`] is a
/// batch of one.
///
/// Real ConnectX NICs let the driver chain multiple WQEs and ring the
/// doorbell once; the NIC then streams the work requests back-to-back.
/// The model follows that: posting the batch charges the issuing process
/// `post_ns` **once** (one doorbell) regardless of the number of writes,
/// the combined payload serializes as one unit on the (src, dst) link,
/// and all writes land atomically (in push order) at the arrival instant
/// as a single scheduler event. Higher layers therefore run one code path
/// at every batch size: a batch cap of 1 means doorbells of one write.
///
/// Crash semantics match unsignaled writes: if the remote node is crashed
/// at arrival time the whole batch is silently dropped.
#[derive(Debug)]
pub struct WriteBatch {
    qp: QueuePair,
    writes: Vec<(Addr, Vec<u8>)>,
    bytes: usize,
}

impl WriteBatch {
    /// Queues one write; no fabric activity until [`WriteBatch::post`].
    pub fn push(&mut self, addr: Addr, data: Vec<u8>) {
        self.bytes += data.len();
        self.writes.push((addr, data));
    }

    /// Queues one 8-byte word write.
    ///
    /// # Errors
    ///
    /// [`RdmaError::Misaligned`] for an unaligned address.
    pub fn push_word(&mut self, addr: Addr, value: u64) -> RdmaResult<()> {
        if !addr.is_word_aligned() {
            return Err(RdmaError::Misaligned);
        }
        self.push(addr, value.to_le_bytes().to_vec());
        Ok(())
    }

    /// Number of queued writes.
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// True if nothing has been queued.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// Total queued payload bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Rings the doorbell: charges `post_ns` once, occupies the link with
    /// the combined payload, and schedules a single landing event that
    /// applies every queued write in push order.
    ///
    /// Posting an empty batch is free and touches neither the fabric nor
    /// the stats.
    ///
    /// # Errors
    ///
    /// [`RdmaError::LocalFailure`] if the local node is crashed.
    pub fn post(self) -> RdmaResult<()> {
        let Some(&(first, _)) = self.writes.first() else {
            return Ok(());
        };
        let qp = &self.qp;
        qp.check_local_alive()?;
        let n = self.writes.len() as u64;
        let args = [
            ("dst", u64::from(qp.remote.id().0)),
            ("addr", first.0),
            ("n", n),
            ("len", self.bytes as u64),
        ];
        // The posting charge is a synchronous span; the in-flight payload
        // (doorbell → landing) becomes a flight span ended by the landing
        // closure, captured exactly like the race detector's write ticket.
        let _post = sim::trace::span_args("rdma.post", 0, &args);
        // One doorbell ⇒ the whole batch counts as one verb for the fault
        // plan; dropping it loses every queued write, like a lost WQE chain.
        let gate = qp.post_verb()?;
        let fabric = &qp.local.fabric;
        let now = sim::now().as_nanos();
        let delay = fabric.fifo_arrival(qp.local.id(), qp.remote.id(), now, self.bytes) - now;
        let stats = &fabric.stats;
        stats.posted_writes.fetch_add(n, Ordering::Relaxed);
        stats.doorbells.fetch_add(1, Ordering::Relaxed);
        stats
            .bytes_written
            .fetch_add(self.bytes as u64, Ordering::Relaxed);
        if gate.drop {
            // Lost in the fabric; unsignaled, so nobody is told.
            return Ok(());
        }
        // Ticket the batch for the race detector at post time: the NIC
        // carries the poster's ordering context to the remote memory, once
        // per WQE chain.
        let ticket = fabric.tsan().map(|t| {
            (
                t,
                crate::tsan::Epoch::capture("rdma-post-write"),
                now + delay,
            )
        });
        let flight = sim::trace::flight_begin("rdma.write.flight", 0, &args[..3]);
        // Send-queue occupancy for the profiler: posted here, drained by
        // the landing event one (FIFO-ordered) delay later.
        let sendq = if sim::prof::enabled() {
            let g = fabric
                .sendq_gauge
                .get_or_init(|| sim::prof::gauge("qp.sendq"))
                .clone();
            g.set_at(
                now,
                fabric.posted_inflight.fetch_add(n, Ordering::Relaxed) + n,
            );
            Some((g, Arc::clone(fabric)))
        } else {
            None
        };
        let remote = qp.remote.clone();
        let writes = self.writes;
        sim::schedule_ns(delay, move || {
            if let Some((g, fabric)) = sendq {
                g.set_at(
                    now + delay,
                    fabric.posted_inflight.fetch_sub(n, Ordering::Relaxed) - n,
                );
            }
            if let Some(flight) = flight {
                flight.end_at(now + delay);
            }
            if remote.is_alive() {
                for (addr, data) in &writes {
                    // Ignore landing errors: an unsignaled write has no
                    // completion to report them through.
                    if remote.write_raw(*addr, data).is_ok() {
                        if let Some((tsan, ticket, arrival)) = &ticket {
                            tsan.on_write(&remote, *addr, data.len(), ticket, *arrival);
                        }
                    }
                }
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{Fabric, LatencyModel, RdmaError};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn two_nodes() -> (sim::Simulation, Fabric, crate::Node, crate::Node) {
        let simulation = sim::Simulation::new(99);
        let fabric = Fabric::new(LatencyModel::connectx4());
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        (simulation, fabric, a, b)
    }

    #[test]
    fn read_write_round_trip_with_latency() {
        let (simulation, _fabric, a, b) = two_nodes();
        let addr = b.alloc_bytes(16);
        simulation.spawn("a", move || {
            let qp = a.connect(&b);
            let t0 = sim::now();
            qp.write(addr, b"0123456789abcdef").unwrap();
            let wrote = sim::now() - t0;
            let lat = LatencyModel::connectx4();
            // post + one_way(16B payload) + one_way(8B ack)
            assert_eq!(
                wrote.as_nanos() as u64,
                lat.post_ns + lat.one_way(16) + lat.one_way(8)
            );
            let data = qp.read(addr, 16).unwrap();
            assert_eq!(&data, b"0123456789abcdef");
        });
        simulation.run().unwrap();
    }

    #[test]
    fn post_write_lands_after_one_way_and_wakes_pollers() {
        let (simulation, _fabric, a, b) = two_nodes();
        let addr = b.alloc_words(1);
        let b_poll = b.clone();
        let seen_at = Arc::new(AtomicU64::new(0));
        let seen = seen_at.clone();
        simulation.spawn("poller", move || {
            b_poll.poll_until(|| b_poll.local_read_word(addr).unwrap() == 7);
            seen.store(sim::now().as_nanos(), Ordering::SeqCst);
        });
        simulation.spawn("writer", move || {
            let qp = a.connect(&b);
            let t0 = sim::now();
            qp.post_write_word(addr, 7).unwrap();
            // Posting is cheap; landing happens asynchronously.
            assert_eq!((sim::now() - t0).as_nanos(), 150);
        });
        simulation.run().unwrap();
        assert_eq!(seen_at.load(Ordering::SeqCst), 150 + 850 + 8 * 328 / 1024);
    }

    #[test]
    fn read_from_crashed_node_raises_rdma_exception() {
        let (simulation, fabric, a, b) = two_nodes();
        let addr = b.alloc_words(1);
        let b_id = b.id();
        simulation.spawn("a", move || {
            let qp = a.connect(&b);
            fabric.crash(b_id);
            assert_eq!(qp.read(addr, 8).unwrap_err(), RdmaError::RemoteFailure);
            assert_eq!(
                qp.write_word(addr, 1).unwrap_err(),
                RdmaError::RemoteFailure
            );
            fabric.recover(b_id);
            assert!(qp.read(addr, 8).is_ok());
        });
        simulation.run().unwrap();
    }

    #[test]
    fn post_write_to_crashed_node_is_dropped() {
        let (simulation, fabric, a, b) = two_nodes();
        let addr = b.alloc_words(1);
        let b2 = b.clone();
        let b_id = b.id();
        simulation.spawn("a", move || {
            let qp = a.connect(&b);
            fabric.crash(b_id);
            qp.post_write_word(addr, 9).unwrap();
            sim::sleep(std::time::Duration::from_micros(100));
            fabric.recover(b_id);
            assert_eq!(b2.local_read_word(addr).unwrap(), 0);
        });
        simulation.run().unwrap();
    }

    #[test]
    fn compare_and_swap_is_atomic_and_returns_old() {
        let (simulation, _fabric, a, b) = two_nodes();
        let addr = b.alloc_words(1);
        simulation.spawn("a", move || {
            let qp = a.connect(&b);
            assert_eq!(qp.compare_and_swap(addr, 0, 5).unwrap(), 0);
            assert_eq!(b.local_read_word(addr).unwrap(), 5);
            // Mismatched expectation: no swap, returns current value.
            assert_eq!(qp.compare_and_swap(addr, 0, 9).unwrap(), 5);
            assert_eq!(b.local_read_word(addr).unwrap(), 5);
        });
        simulation.run().unwrap();
    }

    #[test]
    fn two_sided_send_recv() {
        let (simulation, _fabric, a, b) = two_nodes();
        let a_id = a.id();
        let b_recv = b.clone();
        simulation.spawn("receiver", move || {
            let msg = b_recv.recv();
            assert_eq!(msg.from, a_id);
            assert_eq!(msg.payload, b"ping".to_vec());
        });
        simulation.spawn("sender", move || {
            let qp = a.connect(&b);
            qp.send(b"ping".to_vec()).unwrap();
        });
        simulation.run().unwrap();
    }

    #[test]
    fn concurrent_writers_serialize_per_word() {
        // Two nodes posting to distinct words of a third node: both land.
        let simulation = sim::Simulation::new(5);
        let fabric = Fabric::new(LatencyModel::connectx4());
        let target = fabric.add_node("t");
        let addr = target.alloc_words(2);
        for (i, val) in [(0u64, 11u64), (1, 22)] {
            let w = fabric.add_node(format!("w{i}"));
            let t = target.clone();
            simulation.spawn(format!("w{i}"), move || {
                let qp = w.connect(&t);
                qp.write_word(addr.offset(i * 8), val).unwrap();
            });
        }
        simulation.run().unwrap();
        assert_eq!(target.local_read_word(addr).unwrap(), 11);
        assert_eq!(target.local_read_word(addr.offset(8)).unwrap(), 22);
    }

    #[test]
    fn stats_count_operations() {
        let (simulation, fabric, a, b) = two_nodes();
        let addr = b.alloc_words(4);
        simulation.spawn("a", move || {
            let qp = a.connect(&b);
            qp.write_word(addr, 1).unwrap();
            qp.post_write_word(addr.offset(8), 2).unwrap();
            let _ = qp.read(addr, 32).unwrap();
            qp.send(vec![1, 2, 3]).unwrap();
        });
        simulation.run().unwrap();
        let s = fabric.stats();
        assert_eq!(s.reads.load(Ordering::Relaxed), 1);
        assert_eq!(s.writes.load(Ordering::Relaxed), 1);
        assert_eq!(s.posted_writes.load(Ordering::Relaxed), 1);
        assert_eq!(s.sends.load(Ordering::Relaxed), 1);
        assert_eq!(s.bytes_read.load(Ordering::Relaxed), 32);
        assert_eq!(s.bytes_written.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn bulk_posts_serialize_on_the_link() {
        // Two back-to-back 32 KiB unsignaled writes must not overlap on
        // the wire: the second lands one full serialization time after the
        // first (store-and-forward), which is what paces state-transfer
        // streaming.
        let (simulation, _fabric, a, b) = two_nodes();
        let addr = b.alloc_bytes(2 * 32 * 1024);
        let b2 = b.clone();
        simulation.spawn("writer", move || {
            let qp = a.connect(&b);
            let lat = LatencyModel::connectx4();
            let t0 = sim::now().as_nanos();
            qp.post_write(addr, vec![1u8; 32 * 1024]).unwrap();
            qp.post_write(addr.offset(32 * 1024), vec![2u8; 32 * 1024])
                .unwrap();
            // Wait for both to land.
            b2.poll_until(|| b2.local_read(addr.offset(2 * 32 * 1024 - 1), 1).unwrap()[0] == 2);
            let elapsed = sim::now().as_nanos() - t0;
            let ser = 32 * lat.ns_per_kib;
            // First post's doorbell, then both serializations back to
            // back (the second was posted during the first's
            // transmission), then propagation.
            assert_eq!(elapsed, lat.post_ns + 2 * ser + lat.one_way_ns);
        });
        simulation.run().unwrap();
    }

    #[test]
    fn write_batch_of_one_matches_post_write_exactly() {
        // The equivalence higher layers rely on: a 1-write batch has the
        // same posting cost and the same landing instant as post_write.
        let simulation = sim::Simulation::new(7);
        let fabric = Fabric::new(LatencyModel::connectx4());
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let c = fabric.add_node("c");
        let addr_b = b.alloc_words(1);
        let addr_c = c.alloc_words(1);
        let (b2, c2) = (b.clone(), c.clone());
        simulation.spawn("writer", move || {
            // post_write on the a->b link.
            let qp_b = a.connect(&b);
            let t0 = sim::now().as_nanos();
            qp_b.post_write_word(addr_b, 7).unwrap();
            let post_cost = sim::now().as_nanos() - t0;
            // 1-write batch on the fresh a->c link (same link history).
            let qp_c = a.connect(&c);
            let t1 = sim::now().as_nanos();
            let mut batch = qp_c.write_batch();
            batch.push_word(addr_c, 7).unwrap();
            batch.post().unwrap();
            let batch_cost = sim::now().as_nanos() - t1;
            assert_eq!(post_cost, batch_cost);
            b2.poll_until(|| b2.local_read_word(addr_b).unwrap() == 7);
            let landed_b = sim::now().as_nanos() - t0;
            c2.poll_until(|| c2.local_read_word(addr_c).unwrap() == 7);
            let landed_c = sim::now().as_nanos() - t1;
            assert_eq!(landed_b, landed_c);
        });
        simulation.run().unwrap();
    }

    #[test]
    fn write_batch_charges_one_doorbell_for_n_writes() {
        let (simulation, fabric, a, b) = two_nodes();
        let addr = b.alloc_words(8);
        let b2 = b.clone();
        simulation.spawn("writer", move || {
            let qp = a.connect(&b);
            let lat = LatencyModel::connectx4();
            let t0 = sim::now().as_nanos();
            let mut batch = qp.write_batch();
            for i in 0..8u64 {
                batch.push_word(addr.offset(i * 8), i + 1).unwrap();
            }
            assert_eq!(batch.len(), 8);
            assert_eq!(batch.bytes(), 64);
            batch.post().unwrap();
            // One doorbell: post_ns charged once, not 8 times.
            assert_eq!(sim::now().as_nanos() - t0, lat.post_ns);
            // All writes land together after serialization of the
            // combined 64-byte payload plus propagation.
            b2.poll_until(|| b2.local_read_word(addr.offset(56)).unwrap() == 8);
            assert_eq!(sim::now().as_nanos() - t0, lat.post_ns + lat.one_way(64));
            for i in 0..8u64 {
                assert_eq!(b2.local_read_word(addr.offset(i * 8)).unwrap(), i + 1);
            }
        });
        simulation.run().unwrap();
        let s = fabric.stats();
        assert_eq!(s.posted_writes.load(Ordering::Relaxed), 8);
        assert_eq!(s.doorbells.load(Ordering::Relaxed), 1);
        assert_eq!(s.bytes_written.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn write_batch_occupies_the_send_queue_gauge_until_it_lands() {
        let (simulation, _fabric, a, b) = two_nodes();
        let prof = simulation.enable_profiling();
        let addr = b.alloc_words(3);
        simulation.spawn("writer", move || {
            let qp = a.connect(&b);
            let mut batch = qp.write_batch();
            for i in 0..3u64 {
                batch.push_word(addr.offset(i * 8), i + 1).unwrap();
            }
            batch.post().unwrap();
            // Idle past the landing and into a later timeline bucket.
            sim::sleep(std::time::Duration::from_micros(300));
        });
        simulation.run().unwrap();
        let report = prof.report();
        let sendq = report
            .gauges
            .iter()
            .find(|g| g.name == "qp.sendq")
            .expect("a profiled batch registers qp.sendq");
        assert_eq!(sendq.max, 3, "all three queued writes are in flight");
        // Three writes for exactly one flight time: the landing drained the
        // gauge back to 0 (an undrained gauge would hold 3 to the end).
        let area: f64 = sendq.mean.iter().sum::<f64>() * sendq.bucket_ns as f64;
        let flight = LatencyModel::connectx4().one_way(24) as f64;
        assert!((area - 3.0 * flight).abs() < 1e-6, "area {area}");
    }

    #[test]
    fn write_batch_to_crashed_node_is_dropped_whole() {
        let (simulation, fabric, a, b) = two_nodes();
        let addr = b.alloc_words(2);
        let b2 = b.clone();
        let b_id = b.id();
        simulation.spawn("writer", move || {
            let qp = a.connect(&b);
            fabric.crash(b_id);
            let mut batch = qp.write_batch();
            batch.push_word(addr, 1).unwrap();
            batch.push_word(addr.offset(8), 2).unwrap();
            batch.post().unwrap();
            sim::sleep(std::time::Duration::from_micros(100));
            fabric.recover(b_id);
            assert_eq!(b2.local_read_word(addr).unwrap(), 0);
            assert_eq!(b2.local_read_word(addr.offset(8)).unwrap(), 0);
        });
        simulation.run().unwrap();
    }

    #[test]
    fn empty_write_batch_is_free() {
        let (simulation, fabric, a, b) = two_nodes();
        let _addr = b.alloc_words(1);
        simulation.spawn("writer", move || {
            let qp = a.connect(&b);
            let t0 = sim::now().as_nanos();
            qp.write_batch().post().unwrap();
            assert_eq!(sim::now().as_nanos(), t0);
        });
        simulation.run().unwrap();
        assert_eq!(fabric.stats().doorbells.load(Ordering::Relaxed), 0);
        assert_eq!(fabric.stats().posted_writes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn doorbells_count_individual_verbs() {
        let (simulation, fabric, a, b) = two_nodes();
        let addr = b.alloc_words(4);
        simulation.spawn("a", move || {
            let qp = a.connect(&b);
            qp.write_word(addr, 1).unwrap();
            qp.post_write_word(addr.offset(8), 2).unwrap();
            let _ = qp.read(addr, 8).unwrap();
            let _ = qp.compare_and_swap(addr, 1, 3).unwrap();
            qp.send(vec![1]).unwrap();
        });
        simulation.run().unwrap();
        assert_eq!(fabric.stats().doorbells.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn recovery_bumps_incarnation() {
        let (simulation, fabric, _a, b) = two_nodes();
        let b_id = b.id();
        simulation.spawn("p", move || {
            assert_eq!(b.incarnation(), 0);
            fabric.crash(b_id);
            assert_eq!(b.incarnation(), 0);
            fabric.recover(b_id);
            assert_eq!(b.incarnation(), 1);
            fabric.crash(b_id);
            fabric.recover(b_id);
            assert_eq!(b.incarnation(), 2);
        });
        simulation.run().unwrap();
    }

    #[test]
    fn local_node_crash_fails_local_verbs() {
        let (simulation, fabric, a, b) = two_nodes();
        let addr = b.alloc_words(1);
        let a_id = a.id();
        simulation.spawn("a", move || {
            let qp = a.connect(&b);
            fabric.crash(a_id);
            assert_eq!(qp.read(addr, 8).unwrap_err(), RdmaError::LocalFailure);
            assert_eq!(
                qp.post_write_word(addr, 3).unwrap_err(),
                RdmaError::LocalFailure
            );
        });
        simulation.run().unwrap();
    }
}
