//! The request-execution engine and the P-SMR executor pool.
//!
//! [`ExecCore`] holds the per-command execution path of Algorithms 1 and 2
//! (Phase 2/4 barriers, the reading phase with dual-version remote reads,
//! compute + writing phase, and the client reply). It is shared by the
//! serial executor in [`crate::replica`] (which runs it on lane 0, exactly
//! as before the pool existed) and by the pool workers below.
//!
//! The pool (Marandi et al., "Rethinking State-Machine Replication for
//! Parallelism") replaces the single executor process with:
//!
//! * a **dispatcher** process — owns the delivery stream, computes each
//!   command's conflict key-set ([`crate::StateMachine::conflict_keys`]),
//!   and dispatches the *front* of the delivered queue to a free worker as
//!   soon as the front's keys are disjoint from every in-flight command's
//!   keys. Strict in-order dispatch keeps per-lane coordination entries
//!   monotone and means a conflicting predecessor always *finishes* on
//!   this replica before its successor starts anywhere on it — which is
//!   what makes the relaxed barrier reads below safe;
//! * N **worker** processes — each runs [`ExecCore::run_command`] on its
//!   own coordination *lane* (a private `(ts, phase)` entry per writer
//!   replica, see [`crate::layout::ReplicaLayout::coord_slot`]), replies to
//!   the client directly, and reports completion to the dispatcher.
//!
//! Workers never run the state-transfer protocol themselves: when one
//! starves on a Phase-2 barrier or observes it is lagging (Algorithm 2,
//! lines 23–25), it **parks** and the dispatcher resolves the stall — it
//! quiesces (stops dispatching, waits for running workers to finish or
//! park), runs the requester-side transfer of Algorithm 3 once nothing is
//! mid-command, and then tells each parked worker whether the adopted
//! snapshot covered its command (abandon, the client will retry) or not
//! (retry in place). Responder-side serves quiesce the same way, so the
//! snapshot bound `completed_req` is exact. `completed_req` itself becomes
//! a prefix watermark: the largest timestamp such that every dispatched
//! command up to it has finished its write phase.
//!
//! Dependency tracking is last-writer-in-delivery-order over the conflict
//! keys: because only the queue front dispatches, a command waits exactly
//! until every earlier conflicting command completed — equivalent to
//! chaining along the last-writer dependency graph of the delivered
//! prefix, without materializing the graph.

use crate::app::{Execution, LocalReader, ReadSet};
use crate::cluster::ReplicaShared;
use crate::layout::{decode_envelope, encode_coord, encode_response, resp_slot, COORD_ENTRY};
use crate::metrics::Breakdown;
use crate::replica::{
    coord_status, pending_sync_requests, respond_transfer, state_transfer, state_transfer_abortable,
};
use crate::types::{ObjectId, PartitionId, Placement};
use amcast::{mask_groups, Delivered, DeliveryEvent, Timestamp};
use bytes::Bytes;
use rand::Rng;
use sim::{Mailbox, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// The executing replica has fallen behind the fast majority and cannot
/// read consistent remote values; it must state-transfer (Algorithm 2,
/// lines 23–25).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Lagging;

/// Writes queued per target node, to be flushed in the same doorbell batch
/// as the next coordination entry for that node (batched mode only).
pub(crate) type PendingWrites = HashMap<rdma_sim::NodeId, Vec<(rdma_sim::Addr, Vec<u8>)>>;

/// How a stalled command resumes after the stall was handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StallOutcome {
    /// A state transfer adopted a snapshot that already includes this
    /// command: abandon it without replying (the client's retry will be
    /// skipped or re-executed consistently).
    Covered,
    /// Not covered: retry the stalled step.
    Retry,
}

/// What a command does when it cannot make progress. The serial executor
/// runs Algorithm 3 inline; pool workers park and let the dispatcher run
/// it after quiescing the pool.
pub(crate) trait StallHandler {
    /// The Phase-2 majority barrier starved past the transfer timeout.
    fn on_phase2_starved(&mut self, dests: &[PartitionId], ts: Timestamp) -> StallOutcome;
    /// A remote read found no version old enough (Algorithm 2, lines
    /// 23–25).
    fn on_lagging(&mut self, ts: Timestamp) -> StallOutcome;
    /// The command's write phase (and Phase 4, if any) finished; record it
    /// in `completed_req`. The serial executor stores the timestamp
    /// directly; the pool advances a prefix watermark instead.
    fn on_completed(&mut self, ts: Timestamp);
    /// Offers the handler the client reply. Returns `true` if the handler
    /// took ownership of posting it. The serial executor declines (the
    /// default) and [`ExecCore::reply`] posts directly; pool workers ship
    /// it to the dispatcher on their `Done` event, because each replica
    /// owns ONE response slot per client and two workers finishing
    /// different requests of the same client concurrently would race
    /// unordered writes into that slot (a lagging command could clobber a
    /// fresher reply). The dispatcher is the slot's single writer.
    fn on_reply(&mut self, _client_id: u64, _seq: u64, _response: &[u8]) -> bool {
        false
    }
}

/// The per-command execution path of Algorithms 1 and 2, bound to one
/// coordination lane of one replica.
pub(crate) struct ExecCore {
    pub(crate) shared: Arc<ReplicaShared>,
    /// Coordination lane this engine writes its `(ts, phase)` entries on:
    /// 0 for the serial executor, the worker index in the pool.
    pub(crate) lane: usize,
}

impl ExecCore {
    fn cfg(&self) -> &crate::HeronConfig {
        &self.shared.cluster.cfg
    }

    fn n(&self) -> usize {
        self.cfg().replicas_per_partition
    }

    /// Executes one delivered command end to end: decode, the
    /// single-partition fast path or the Phase 2 → execute → Phase 4
    /// pipeline, the client reply, and the Breakdown sample. `recv_ns` is
    /// the virtual time the command was taken off the delivery stream
    /// (equals "now" on the serial path; earlier than "now" by the queue
    /// wait in the pool — surfaced as the `execute.parallel` phase).
    ///
    /// Returns `false` if the command was abandoned because a state
    /// transfer covered it (no reply was sent).
    pub(crate) fn run_command(
        &self,
        d: &Delivered,
        recv_ns: u64,
        stalls: &mut dyn StallHandler,
    ) -> bool {
        let shared = &self.shared;
        let ts = d.ts;
        let (client_id, seq, submit_ns, payload) = {
            let (c, s, t, p) = decode_envelope(&d.payload);
            (c, s, t, p.to_vec())
        };
        let dests: Vec<PartitionId> = mask_groups(d.dests)
            .into_iter()
            .map(PartitionId::from)
            .collect();
        let ordering_ns = recv_ns.saturating_sub(submit_ns);
        let parallel_ns = sim::now().as_nanos().saturating_sub(recv_ns);
        // Whole-request span on this executor, correlated on the message
        // uid so one request stitches across partitions. The phase child
        // spans below open and close at the very instants the Breakdown
        // counters sample, so trace-derived attribution matches them
        // exactly (the Fig. 6 view over spans). The dispatch wait is not a
        // span of its own (overlapping waits across workers would not
        // nest); it rides as an arg, like the ordering stage.
        let uid = u64::from(d.id.0);
        let _req_span = sim::trace::span_args(
            "exec.request",
            uid,
            &[
                ("ts", ts.raw()),
                ("partition", u64::from(shared.partition.0)),
                ("partitions", dests.len() as u64),
                ("ordering_ns", ordering_ns),
                ("parallel_ns", parallel_ns),
            ],
        );

        // Lines 5–7: single-partition fast path — classic SMR.
        if dests.len() == 1 {
            let t0 = sim::now();
            let exec_span = sim::trace::span("exec.execute", uid);
            let reads = loop {
                match self.read_objects(&payload, ts, &dests, &[]) {
                    Ok(r) => break r,
                    Err(Lagging) => {
                        // Local-only reads cannot lag; defensive fallback.
                        match stalls.on_lagging(ts) {
                            StallOutcome::Covered => return false,
                            StallOutcome::Retry => {}
                        }
                    }
                }
            };
            let exec = self.execute_and_write(&payload, ts, &reads);
            let exec_ns = (sim::now() - t0).as_nanos() as u64;
            drop(exec_span);
            stalls.on_completed(ts);
            if !stalls.on_reply(client_id, seq, &exec.response) {
                self.reply(client_id, seq, &exec.response);
            }
            sim::trace::instant("exec.reply", uid);
            shared.cluster.metrics.record_breakdown(Breakdown {
                ordering_ns,
                parallel_ns,
                coordination_ns: 0,
                execution_ns: exec_ns,
                partitions: 1,
                at_partition: shared.partition.0,
            });
            return true;
        }

        // Lines 8–10: Phase 2 — barrier on a majority of every involved
        // partition. If the barrier starves, the peers' coordination
        // writes were lost while we were crashed (they ran this request
        // long ago): recover through state transfer instead of waiting
        // forever.
        let t_p2 = sim::now();
        let p2_span = sim::trace::span("exec.phase2", uid);
        self.write_coord(&dests, ts, 1);
        loop {
            if self.wait_coord_timeout(&dests, ts, 1, self.cfg().transfer_timeout) {
                break;
            }
            match stalls.on_phase2_starved(&dests, ts) {
                StallOutcome::Covered => return false, // transfer covered this request
                StallOutcome::Retry => {}
            }
        }
        let p2_ns = (sim::now() - t_p2).as_nanos() as u64;
        drop(p2_span);

        // Lines 11–13: execution (reading phase, compute, writing phase).
        // If we have lagged behind the fast majority, state-transfer; a
        // transfer whose snapshot already includes this request covers it
        // (it will be skipped via last_req), otherwise we caught up to a
        // point *before* this request and must still execute it.
        let t_exec = sim::now();
        let exec_span = sim::trace::span("exec.execute", uid);
        let mut pending_writes = PendingWrites::new();
        let active_only = self.cfg().execution_mode == crate::ExecutionMode::ActiveOnly;
        let active = shared
            .cluster
            .app
            .active_partition(&payload)
            .unwrap_or(dests[0]);
        let response = if active_only && active != shared.partition {
            // Passive partition (§III-D2 variant): the active partition
            // executes and writes our objects remotely. We only keep the
            // update log complete (our declared read set covers what the
            // active may write here) and acknowledge the client; the
            // FIFO link guarantees the active's object writes land before
            // its Phase-4 coordination entry does.
            let mut log = shared.log.lock();
            for oid in shared.cluster.app.read_set_at(shared.partition, &payload) {
                if shared.cluster.app.placement(oid) == Placement::Partition(shared.partition) {
                    log.push((ts.raw(), oid));
                }
            }
            Bytes::new()
        } else {
            let exec = loop {
                pending_writes.clear();
                let attempt = if active_only {
                    self.execute_active_only(&payload, ts, &dests, &mut pending_writes)
                } else {
                    self.read_objects(&payload, ts, &dests, &dests)
                        .map(|reads| self.execute_and_write(&payload, ts, &reads))
                };
                match attempt {
                    Ok(exec) => break exec,
                    Err(Lagging) => match stalls.on_lagging(ts) {
                        StallOutcome::Covered => return false, // transfer included this request
                        StallOutcome::Retry => {}
                    },
                }
            };
            exec.response
        };
        let exec_ns = (sim::now() - t_exec).as_nanos() as u64;
        drop(exec_span);

        // Lines 14–16: Phase 4 — same barrier, with the optional
        // wait-for-all delay (paper §V-E1). Queued active-only write-backs
        // ride the same doorbells.
        let t_p4 = sim::now();
        let p4_span = sim::trace::span("exec.phase4", uid);
        // Protocol lint (regression guard): the Phase-4 entry — which in
        // batched active-only mode carries the remote object write-backs —
        // must never be posted before the Phase-2 quorum was observed.
        // Coordination entries are monotone, so once the barrier above
        // passed this stays satisfied; a hit means a code change skipped
        // or reordered the Phase-2 wait.
        if let Some(det) = shared.cluster.detector.as_ref() {
            let (_, quorum, _) = coord_status(shared, &dests, ts, 1);
            if !quorum {
                let coord_len =
                    (self.cfg().partitions * self.n() * shared.layout.coord_width * COORD_ENTRY)
                        as u64;
                det.report_lint(
                    "Phase-2 write-back before quorum clock advanced",
                    &shared.node,
                    "coord",
                    (shared.layout.coord.0, shared.layout.coord.0 + coord_len),
                    None,
                    format!(
                        "posting the Phase-4 entry (and its queued write-backs) for ts {} \
                         while the Phase-2 majority barrier is not satisfied",
                        ts.raw()
                    ),
                );
            }
        }
        self.write_coord_with(&dests, ts, 2, pending_writes);
        self.wait_coord(&dests, ts, 2, self.cfg().wait_for_all);
        let p4_ns = (sim::now() - t_p4).as_nanos() as u64;
        drop(p4_span);

        stalls.on_completed(ts);
        // Line 17: reply.
        if !stalls.on_reply(client_id, seq, &response) {
            self.reply(client_id, seq, &response);
        }
        sim::trace::instant("exec.reply", uid);
        shared.cluster.metrics.record_breakdown(Breakdown {
            ordering_ns,
            parallel_ns,
            coordination_ns: p2_ns + p4_ns,
            execution_ns: exec_ns,
            partitions: dests.len() as u16,
            at_partition: shared.partition.0,
        });
        true
    }

    // ------------------------------------------------------------------
    // Algorithm 1: coordination.
    // ------------------------------------------------------------------

    /// Writes our coordination entry `(r.tmp, phase)` to every replica of
    /// every involved partition: smallest partition first, then by replica
    /// index — the order behind Table I's per-partition asymmetry.
    fn write_coord(&self, dests: &[PartitionId], ts: Timestamp, phase: u64) {
        self.write_coord_with(dests, ts, phase, PendingWrites::new());
    }

    /// [`Self::write_coord`] with queued object writes coalesced in: each
    /// target's pending writes and its coordination entry are flushed as
    /// ONE doorbell batch — the coord entry pushed last, so by the fabric's
    /// in-order application a peer that observes the barrier entry also
    /// observes every object write that preceded it (the invariant the
    /// passive execution path relies on). With nothing pending each target
    /// gets a batch of one.
    fn write_coord_with(
        &self,
        dests: &[PartitionId],
        ts: Timestamp,
        phase: u64,
        mut pending: PendingWrites,
    ) {
        let shared = &self.shared;
        let n = self.n();
        let entry = encode_coord(ts.raw(), phase);
        let mut sorted = dests.to_vec();
        sorted.sort_unstable();
        for h in sorted {
            for q in 0..n {
                let target = shared.peer(h, q);
                let slot_on_target = self.layout_of(&target).coord_slot(
                    shared.partition.0 as usize,
                    shared.idx,
                    self.lane,
                    n,
                );
                if target.id() == shared.node.id() {
                    let _ = shared.node.local_write(slot_on_target, &entry);
                } else {
                    let mut batch = shared.qp(&target).write_batch();
                    for (addr, buf) in pending.remove(&target.id()).unwrap_or_default() {
                        batch.push(addr, buf);
                    }
                    batch.push(slot_on_target, entry.to_vec());
                    let _ = batch.post();
                }
            }
        }
        // Write-backs only target replicas of involved partitions, so the
        // barrier loop above must have drained everything.
        debug_assert!(
            pending.is_empty(),
            "queued writes must target barrier peers"
        );
    }

    fn layout_of(&self, node: &rdma_sim::Node) -> crate::layout::ReplicaLayout {
        // All replica nodes share the same allocation schedule, so the
        // layout of any replica equals ours.
        let _ = node;
        self.shared.layout
    }

    /// Like [`ExecCore::wait_coord`] but gives up after `timeout`; returns
    /// whether the majority barrier was reached.
    fn wait_coord_timeout(
        &self,
        dests: &[PartitionId],
        ts: Timestamp,
        phase: u64,
        timeout: Duration,
    ) -> bool {
        self.shared.node.poll_until_timeout(
            || {
                let (_, maj, _) = coord_status(&self.shared, dests, ts, phase);
                maj
            },
            timeout,
        )
    }

    /// Blocks until a majority of every involved partition has coordinated
    /// (Algorithm 1, lines 10/16). With `delta` set, additionally waits up
    /// to δ for *all* replicas, recording Table I's delay statistics.
    fn wait_coord(
        &self,
        dests: &[PartitionId],
        ts: Timestamp,
        phase: u64,
        delta: Option<Duration>,
    ) {
        let shared = &self.shared;
        shared.node.poll_until(|| {
            let (_, maj, _) = coord_status(shared, dests, ts, phase);
            maj
        });
        if let Some(delta) = delta {
            let stats = &shared.cluster.metrics.delays[shared.partition.0 as usize];
            stats.total.fetch_add(1, Ordering::Relaxed);
            let (_, _, everyone) = coord_status(shared, dests, ts, phase);
            if everyone {
                return;
            }
            stats.delayed.fetch_add(1, Ordering::Relaxed);
            let t0 = sim::now();
            shared.node.poll_until_timeout(
                || {
                    let (_, _, everyone) = coord_status(shared, dests, ts, phase);
                    everyone
                },
                delta,
            );
            let waited = (sim::now() - t0).as_nanos() as u64;
            stats.delay_sum_ns.fetch_add(waited, Ordering::Relaxed);
        }
    }

    // ------------------------------------------------------------------
    // Algorithm 2: execution.
    // ------------------------------------------------------------------

    /// The reading phase: local objects from our store, remote objects via
    /// one-sided reads against replicas that coordinated in Phase 2.
    fn read_objects(
        &self,
        payload: &[u8],
        ts: Timestamp,
        _dests: &[PartitionId],
        coordinated: &[PartitionId],
    ) -> Result<ReadSet, Lagging> {
        let shared = &self.shared;
        let app = &shared.cluster.app;
        let mut reads = ReadSet::new();
        for oid in app.read_set_at(shared.partition, payload) {
            match app.placement(oid) {
                Placement::Replicated => {
                    let (_, v) = shared
                        .store
                        .get(oid)
                        .unwrap_or_else(|| panic!("replicated object {oid} missing"));
                    reads.insert(oid, v);
                }
                Placement::Partition(h) if h == shared.partition => {
                    let (_, v) = shared
                        .store
                        .get(oid)
                        .unwrap_or_else(|| panic!("local object {oid} missing"));
                    reads.insert(oid, v);
                }
                Placement::Partition(h) => {
                    debug_assert!(
                        coordinated.contains(&h),
                        "read set touches partition {h} the request was not multicast to"
                    );
                    let v = self.remote_read(oid, h, ts)?;
                    reads.insert(oid, v);
                }
            }
        }
        Ok(reads)
    }

    /// One remote read, with address discovery and failover (Algorithm 2,
    /// lines 8–27).
    fn remote_read(&self, oid: ObjectId, h: PartitionId, ts: Timestamp) -> Result<Bytes, Lagging> {
        let (versions, _cap) = self.remote_read_slot(oid, h, ts)?;
        match versions.read_for(ts) {
            Some((_, v)) => Ok(v.clone()),
            None => Err(Lagging), // lines 23–25
        }
    }

    /// Like [`ExecCore::remote_read`] but returns the whole dual-version
    /// slot image (used by the active-only execution mode, which must
    /// reconstruct remote slots when writing them back).
    fn remote_read_slot(
        &self,
        oid: ObjectId,
        h: PartitionId,
        ts: Timestamp,
    ) -> Result<(crate::store::SlotVersions, usize), Lagging> {
        let shared = &self.shared;
        loop {
            // Refresh the set of consistent candidates: replicas of h whose
            // coordination entry matches r.tmp (they executed everything
            // before r and have not moved past it).
            let (matching, _, _) = coord_status(shared, &[h], ts, 1);
            let candidates = matching.get(&h).cloned().unwrap_or_default();
            let candidates: Vec<usize> = candidates
                .into_iter()
                .filter(|&q| shared.peer(h, q).is_alive())
                .collect();
            if candidates.is_empty() {
                // Everyone readable has moved past r: we are the lagger.
                return Err(Lagging);
            }
            // Address discovery for candidates we don't know yet.
            let known: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&q| {
                    let node = shared.peer(h, q);
                    shared.object_map.lock().contains_key(&(oid, node.id()))
                })
                .collect();
            if known.is_empty() {
                self.query_addresses(oid, h, &candidates);
                continue;
            }
            // Line 15: pick a random coordinated replica.
            let pick = known[sim::with_rng(|r| r.gen_range(0..known.len()))];
            let target = shared.peer(h, pick);
            let (addr, cap) = *shared
                .object_map
                .lock()
                .get(&(oid, target.id()))
                .expect("known candidate has a cached address");
            let slot = crate::store::Slot { addr, cap };
            let t_issue = sim::now().as_nanos();
            match shared.qp(&target).read(addr, slot.size()) {
                Err(_) => {
                    // RDMA exception: the process failed; try another
                    // (lines 20–21). Drop the stale address mapping.
                    shared.object_map.lock().remove(&(oid, target.id()));
                    continue;
                }
                Ok(raw) => {
                    let versions = crate::store::SlotVersions::decode(&raw, cap);
                    let chosen_ts = match versions.read_for(ts) {
                        None => return Err(Lagging), // lines 23–25
                        Some((t, _)) => t,
                    };
                    self.audit_remote_slot_read(
                        &target, oid, addr, cap, &versions, chosen_ts, ts, t_issue,
                    );
                    return Ok((versions, cap));
                }
            }
        }
    }

    /// Protocol lint: adjudicates a completed remote slot read against the
    /// race detector's shadow state. The raw read of a dual-version slot
    /// is exempt from the generic check (it legitimately snapshots the
    /// version a concurrent writer is overwriting), so after decoding we
    /// check only the byte range of the version the reader actually
    /// *chose*: if its last writer has no happens-before edge to us, the
    /// dual-versioning discipline failed to protect this read.
    ///
    /// Two benign cases are filtered out:
    /// * writes that landed *after* we issued the read (`t_issue`) — the
    ///   in-flux window; our snapshot predates them and the shadow marks
    ///   surface them through the `influx_windows` statistic instead;
    /// * state-transfer applies (the service process rewrites whole slots
    ///   on a lagger that a Phase-2-starved reader may still legitimately
    ///   target; the reader's snapshot of committed versions stays valid —
    ///   see DESIGN.md §10).
    ///
    /// Active-only mode is excluded wholesale: racing active replicas
    /// write identical slot images remotely by design.
    #[allow(clippy::too_many_arguments)]
    fn audit_remote_slot_read(
        &self,
        target: &rdma_sim::Node,
        oid: ObjectId,
        addr: rdma_sim::Addr,
        cap: usize,
        versions: &crate::store::SlotVersions,
        chosen_ts: Timestamp,
        r_ts: Timestamp,
        t_issue: u64,
    ) {
        let Some(det) = self.shared.cluster.detector.as_ref() else {
            return;
        };
        if self.cfg().execution_mode != crate::ExecutionMode::ActiveOnly {
            let one = (crate::store::VERSION_HDR + cap) as u64;
            // On a timestamp tie `read_for` keeps version `a`.
            let start = if chosen_ts == versions.a.0 {
                addr
            } else {
                addr.offset(one)
            };
            let Some(conflict) = det.audit_remote_read(target, start, one as usize) else {
                return;
            };
            if conflict.writer.time_ns > t_issue || conflict.writer.proc.starts_with("heron-svc-") {
                return;
            }
            det.report_lint(
                "remote read targeted the active version slot",
                target,
                format!("slot:{oid}"),
                conflict.range,
                Some(conflict.writer),
                format!(
                    "the version chosen by the remote reader (ts {} for request ts {}) \
                     was written with no happens-before edge to the reader; on real \
                     hardware the one-sided read could have returned torn bytes",
                    chosen_ts.raw(),
                    r_ts.raw(),
                ),
            );
        }
    }

    /// Algorithm 2 lines 8–13: ask every replica of `h` for the object's
    /// address and wait until a majority answered.
    fn query_addresses(&self, oid: ObjectId, h: PartitionId, candidates: &[usize]) {
        let shared = &self.shared;
        let majority = self.cfg().majority();
        shared.addr_heard.lock().remove(&oid);
        for q in 0..self.n() {
            let target = shared.peer(h, q);
            if target.id() == shared.node.id() {
                continue;
            }
            let msg = crate::layout::encode_rpc(&crate::layout::Rpc::AddrQuery { oid });
            let _ = shared.qp(&target).send(msg);
        }
        let _ = candidates;
        // Replies are absorbed by the service process, which fills
        // object_map/addr_heard and rings the doorbell.
        shared.node.poll_until_timeout(
            || {
                shared
                    .addr_heard
                    .lock()
                    .get(&oid)
                    .map(|nodes| nodes.len() >= majority)
                    .unwrap_or(false)
            },
            Duration::from_millis(1),
        );
    }

    /// The §III-D2 *active-only* execution of a multi-partition request:
    /// this (active) replica reads the union read set, runs the
    /// application once per involved partition, applies its own writes
    /// locally, and writes the passive partitions' objects remotely as
    /// whole dual-version slot images (racing active replicas write
    /// identical images, so the competition the paper warns about is
    /// harmless here). FIFO links guarantee these object writes land at
    /// every passive replica before this replica's Phase-4 coordination
    /// entry.
    fn execute_active_only(
        &self,
        payload: &[u8],
        ts: Timestamp,
        dests: &[PartitionId],
        pending: &mut PendingWrites,
    ) -> Result<Execution, Lagging> {
        let shared = &self.shared;
        let app = Arc::clone(&shared.cluster.app);
        // Union read set, caching remote slot images for the write-back.
        let mut reads = ReadSet::new();
        let mut remote_slots: HashMap<ObjectId, crate::store::SlotVersions> = HashMap::new();
        for oid in app.read_set(payload) {
            match app.placement(oid) {
                Placement::Replicated => {
                    let (_, v) = shared
                        .store
                        .get(oid)
                        .unwrap_or_else(|| panic!("replicated object {oid} missing"));
                    reads.insert(oid, v);
                }
                Placement::Partition(h) if h == shared.partition => {
                    let (_, v) = shared
                        .store
                        .get(oid)
                        .unwrap_or_else(|| panic!("local object {oid} missing"));
                    reads.insert(oid, v);
                }
                Placement::Partition(h) => {
                    let (versions, _) = self.remote_read_slot(oid, h, ts)?;
                    let (_, v) = versions.read_for(ts).expect("checked by remote_read_slot");
                    reads.insert(oid, v.clone());
                    remote_slots.insert(oid, versions);
                }
            }
        }
        // Execute every partition's share; the active pays all the compute
        // the passive partitions saved.
        let local = StoreReader { shared };
        let mut total_compute = Duration::ZERO;
        let mut response = Bytes::new();
        let mut remote_writes: Vec<(PartitionId, ObjectId, Bytes)> = Vec::new();
        shared.in_write_phase.fetch_add(1, Ordering::SeqCst);
        for &p in dests {
            let exec = app.execute(p, payload, &reads, &local);
            total_compute += exec.compute;
            if response.is_empty() {
                response = exec.response.clone();
            }
            for (oid, value) in exec.writes {
                match app.placement(oid) {
                    Placement::Replicated => {
                        panic!("application attempted to write replicated object {oid}")
                    }
                    Placement::Partition(h) if h == shared.partition => {
                        shared.store.set(oid, &value, ts);
                        shared.log.lock().push((ts.raw(), oid));
                    }
                    Placement::Partition(h) => remote_writes.push((h, oid, value)),
                }
            }
        }
        shared.in_write_phase.fetch_sub(1, Ordering::SeqCst);
        if !total_compute.is_zero() {
            sim::sleep(total_compute);
        }
        // Write back the passive partitions' objects. In batched mode they
        // are queued and ride the Phase-4 coordination doorbell (one batch
        // per peer); unbatched, each image is its own verb, posted before
        // the barrier.
        let batched = self.cfg().max_batch() > 1;
        for (h, oid, value) in remote_writes {
            let versions = remote_slots.get(&oid).unwrap_or_else(|| {
                panic!(
                    "active-only mode requires remotely-written object {oid} \
                     to be in the request's read set"
                )
            });
            for q in 0..self.n() {
                let target = shared.peer(h, q);
                let Some(&(addr, cap)) = shared.object_map.lock().get(&(oid, target.id())) else {
                    continue; // unknown address: that replica will lag and state-transfer
                };
                let image = encode_slot_image(versions, &value, ts, cap);
                if batched {
                    pending.entry(target.id()).or_default().push((addr, image));
                } else {
                    let _ = shared.qp(&target).post_write(addr, image);
                }
            }
        }
        Ok(Execution {
            writes: vec![],
            response,
            compute: Duration::ZERO,
        })
    }

    /// Compute + writing phase: runs the application, then applies local
    /// writes under the dual-versioning rule and appends to the update log.
    fn execute_and_write(&self, payload: &[u8], ts: Timestamp, reads: &ReadSet) -> Execution {
        let shared = &self.shared;
        let app = &shared.cluster.app;
        let local = StoreReader { shared };
        let exec = app.execute(shared.partition, payload, reads, &local);
        if !exec.compute.is_zero() {
            sim::sleep(exec.compute);
        }
        shared.in_write_phase.fetch_add(1, Ordering::SeqCst);
        for (oid, value) in &exec.writes {
            match app.placement(*oid) {
                Placement::Replicated => {
                    panic!("application attempted to write replicated object {oid}")
                }
                Placement::Partition(h) if h == shared.partition => {
                    shared.store.set(*oid, value, ts);
                    shared.log.lock().push((ts.raw(), *oid));
                }
                Placement::Partition(_) => {
                    // Remote object: its own partition writes it (paper
                    // §III-A Phase 3); nothing to do here.
                }
            }
        }
        shared.in_write_phase.fetch_sub(1, Ordering::SeqCst);
        exec
    }

    /// Writes the response into the client's response slot for our
    /// partition — one unsignaled RDMA write.
    fn reply(&self, client_id: u64, seq: u64, response: &[u8]) {
        post_reply(&self.shared, client_id, seq, response);
    }
}

/// Posts `response` into the client's response slot for this replica —
/// one unsignaled RDMA write. Called from the serial executor (inline)
/// and from the pool dispatcher (the slot's single writer at width > 1).
fn post_reply(shared: &Arc<ReplicaShared>, client_id: u64, seq: u64, response: &[u8]) {
    let cfg = &shared.cluster.cfg;
    let info = {
        let clients = shared.cluster.clients.lock();
        match clients.get(&client_id) {
            Some(c) => (c.node, c.resp_base),
            None => return, // client vanished (e.g. test ended)
        }
    };
    let client_node = shared.cluster.fabric.node(info.0);
    let slot = resp_slot(
        info.1,
        shared.partition.0 as usize,
        shared.idx,
        cfg.replicas_per_partition,
        cfg.max_response,
    );
    let buf = encode_response(seq, response);
    let _ = shared.qp(&client_node).post_write(slot, buf);
}

/// Builds the dual-version slot image that results from applying the
/// paper's `set()` rule (overwrite the smaller-timestamp version) to a
/// remotely-read slot — what the active-only mode writes back to passive
/// replicas. Deterministic: racing writers with the same reads produce
/// byte-identical images.
fn encode_slot_image(
    versions: &crate::store::SlotVersions,
    new_value: &[u8],
    ts: Timestamp,
    cap: usize,
) -> Vec<u8> {
    assert!(
        new_value.len() <= cap,
        "active-only remote write exceeds the remote slot capacity"
    );
    let encode_one = |buf: &mut Vec<u8>, tmp: Timestamp, data: &[u8]| {
        buf.extend_from_slice(&tmp.raw().to_le_bytes());
        buf.extend_from_slice(&(data.len() as u64).to_le_bytes());
        buf.extend_from_slice(data);
        buf.extend(std::iter::repeat_n(0u8, cap - data.len()));
    };
    let mut buf = Vec::with_capacity(2 * (16 + cap));
    if versions.victim_for(ts) == 0 {
        encode_one(&mut buf, ts, new_value);
        encode_one(&mut buf, versions.b.0, &versions.b.1);
    } else {
        encode_one(&mut buf, versions.a.0, &versions.a.1);
        encode_one(&mut buf, ts, new_value);
    }
    buf
}

/// [`LocalReader`] backed by the executing replica's store.
struct StoreReader<'a> {
    shared: &'a ReplicaShared,
}

impl LocalReader for StoreReader<'_> {
    fn read(&self, oid: ObjectId) -> Option<Bytes> {
        match self.shared.cluster.app.placement(oid) {
            Placement::Replicated => {}
            Placement::Partition(h) if h == self.shared.partition => {}
            Placement::Partition(_) => return None,
        }
        self.shared.store.get(oid).map(|(_, v)| v)
    }
}

// ----------------------------------------------------------------------
// The P-SMR pool: dispatcher + workers (executor_width > 1).
// ----------------------------------------------------------------------

/// A command handed from the dispatcher to a worker.
pub(crate) struct Job {
    d: Delivered,
    /// Virtual time the dispatcher took the delivery off the stream; the
    /// gap to the worker's pickup is the `execute.parallel` dispatch wait.
    recv_ns: u64,
    /// Sorted, deduplicated conflict key-set.
    keys: Vec<u64>,
}

/// Why a worker parked mid-command.
#[derive(Debug, Clone)]
pub(crate) enum ParkReason {
    /// Phase-2 barrier starved past the transfer timeout.
    Phase2Starved {
        /// The barrier's involved partitions, for the dispatcher's
        /// heal check.
        dests: Vec<PartitionId>,
    },
    /// A remote read found no version old enough.
    Lagging,
}

/// Worker → dispatcher notifications.
pub(crate) enum WorkerEvent {
    /// The worker finished its command. `reply` carries the client
    /// response for the dispatcher to post (`None` if the command was
    /// abandoned as transfer-covered): the dispatcher is the single
    /// writer of this replica's per-client response slots, so replies
    /// from concurrently-finishing workers never race — see
    /// [`StallHandler::on_reply`].
    Done {
        worker: usize,
        ts: u64,
        reply: Option<(u64, u64, Vec<u8>)>,
    },
    /// The worker is parked waiting for a [`StallVerdict`].
    Parked {
        worker: usize,
        ts: u64,
        reason: ParkReason,
    },
}

/// Dispatcher → parked worker resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StallVerdict {
    /// The transfer's snapshot covered the worker's command: abandon it.
    Covered,
    /// Not covered: retry the stalled step.
    Retry,
}

/// One in-flight command, from dispatch until its `Done` event.
struct InFlight {
    ts: u64,
    keys: Vec<u64>,
    parked: Option<ParkReason>,
}

/// The pool dispatcher: owns the delivery stream and the conflict-gated
/// dispatch, runs both sides of the state-transfer protocol (after
/// quiescing the workers), and maintains the `completed_req` watermark.
pub(crate) struct Dispatcher {
    shared: Arc<ReplicaShared>,
    deliveries: Mailbox<DeliveryEvent>,
    events: Mailbox<WorkerEvent>,
    jobs: Vec<Mailbox<Job>>,
    verdicts: Vec<Mailbox<StallVerdict>>,
    /// Delivered, not yet dispatched (front dispatches first — strict
    /// delivery order).
    queue: VecDeque<Job>,
    /// In-flight commands by worker index (deterministic iteration).
    inflight: BTreeMap<usize, InFlight>,
    /// Idle worker indices; the lowest free index is picked.
    free: BTreeSet<usize>,
    /// Dispatched timestamps → finished?, pruned from the front as the
    /// prefix completes; the largest pruned entry is the `completed_req`
    /// watermark.
    done: BTreeMap<u64, bool>,
    /// First time we observed each pending state-transfer request
    /// (requester idx, from_tmp) — drives the deterministic responder
    /// rotation of Algorithm 3.
    seen_requests: HashMap<(usize, u64), SimTime>,
    /// Set by an ordering-layer Gap: nothing may execute until a state
    /// transfer covers everything up to the next delivery.
    needs_full_sync: bool,
    /// The first delivery after a Gap, held back until the pool drained
    /// and the covering transfer completed.
    pending_gap: Option<Delivered>,
    /// Highest client seq this replica has posted a response for, per
    /// client. Workers can finish out of delivery order, so without this
    /// guard a lagging command's reply would overwrite a fresher one in
    /// the client's (single, per-replica) response slot, regressing its
    /// seq word. Skipping the stale post is safe: the slot's newer seq
    /// already satisfies the client's `>= seq` answered check, and a
    /// closed-loop client never re-reads an older seq.
    last_replied: HashMap<u64, u64>,
}

impl Dispatcher {
    fn cfg(&self) -> &crate::HeronConfig {
        &self.shared.cluster.cfg
    }

    fn n(&self) -> usize {
        self.cfg().replicas_per_partition
    }

    /// Runs the dispatcher loop forever.
    pub(crate) fn run(mut self) {
        // Executors-per-replica occupancy timeline (inert when profiling
        // is off): how many of the pool's workers hold a command.
        let busy = if sim::prof::enabled() {
            sim::prof::gauge(format!(
                "pool.busy.p{}r{}",
                self.shared.partition.0, self.shared.idx
            ))
        } else {
            sim::prof::Gauge::disabled()
        };
        let mut busy_last = 0u64;
        loop {
            if busy.is_enabled() {
                let v = self.inflight.len() as u64;
                if v != busy_last {
                    busy.set(v);
                    busy_last = v;
                }
            }
            if !self.shared.node.is_alive() {
                // Crashed: stop dispatching until recovery; workers caught
                // mid-command keep going against failing verbs, exactly
                // like the serial executor caught mid-command.
                self.shared
                    .node
                    .poll_until_timeout(|| self.shared.node.is_alive(), Duration::from_millis(1));
                continue;
            }
            let mut progress = self.drain_events();
            if self.pending_gap.is_none() {
                if let Some(ev) = self.deliveries.try_recv() {
                    match ev {
                        DeliveryEvent::Deliver(d) => self.on_deliver(d),
                        DeliveryEvent::Gap { .. } => self.needs_full_sync = true,
                    }
                    progress = true;
                }
            }
            let serve_blocked = self.serve_transfers(&mut progress);
            progress |= self.resolve_parks();
            progress |= self.resolve_gap();
            // Dispatch is paused while a due responder serve or a parked
            // worker waits for the pool to drain — both need a quiesced
            // pool, and feeding it new work would starve them.
            let anyone_parked = self.inflight.values().any(|f| f.parked.is_some());
            if !serve_blocked && !anyone_parked {
                progress |= self.try_dispatch();
            }
            if progress {
                continue;
            }
            self.idle_wait();
        }
    }

    /// Absorbs worker notifications: completions advance the watermark and
    /// free the worker; parks are recorded for [`Self::resolve_parks`].
    fn drain_events(&mut self) -> bool {
        let mut any = false;
        while let Some(ev) = self.events.try_recv() {
            any = true;
            match ev {
                WorkerEvent::Done { worker, ts, reply } => {
                    if let Some((client_id, seq, response)) = reply {
                        if self.last_replied.get(&client_id).is_none_or(|&l| seq > l) {
                            self.last_replied.insert(client_id, seq);
                            post_reply(&self.shared, client_id, seq, &response);
                        }
                    }
                    self.inflight.remove(&worker);
                    self.free.insert(worker);
                    if let Some(fin) = self.done.get_mut(&ts) {
                        *fin = true;
                    }
                    // Advance the prefix watermark: `completed_req` may
                    // only cover timestamps with no unfinished dispatch
                    // below them (a responder's snapshot bound must have
                    // no holes).
                    let mut watermark = None;
                    while let Some((&t, &fin)) = self.done.first_key_value() {
                        if !fin {
                            break;
                        }
                        self.done.pop_first();
                        watermark = Some(t);
                    }
                    if let Some(t) = watermark {
                        let cur = self.shared.completed_req.load(Ordering::SeqCst);
                        self.shared
                            .completed_req
                            .store(cur.max(t), Ordering::SeqCst);
                        if t > cur {
                            crate::replica::publish_progress(&self.shared);
                        }
                    }
                }
                WorkerEvent::Parked { worker, ts, reason } => {
                    if let Some(f) = self.inflight.get_mut(&worker) {
                        debug_assert_eq!(f.ts, ts, "park for a command the worker does not hold");
                        f.parked = Some(reason);
                    }
                }
            }
        }
        any
    }

    /// Algorithm 1 lines 3–4 plus queue admission (the dispatcher half of
    /// the serial `on_deliver` prefix).
    fn on_deliver(&mut self, d: Delivered) {
        let shared = &self.shared;
        let ts = d.ts;
        if ts.raw() <= shared.last_req.load(Ordering::SeqCst) {
            shared
                .cluster
                .metrics
                .skipped_requests
                .fetch_add(1, Ordering::Relaxed);
            shared.exec_trace.lock().push((ts.raw(), 's'));
            return;
        }
        shared.last_req.store(ts.raw(), Ordering::SeqCst);
        if self.needs_full_sync {
            // Everything missed has a smaller timestamp than this delivery;
            // hold it until the pool drained and a transfer covers it.
            self.needs_full_sync = false;
            self.pending_gap = Some(d);
            return;
        }
        let keys = {
            let (_, _, _, payload) = decode_envelope(&d.payload);
            let mut k = shared.cluster.app.conflict_keys(payload);
            k.sort_unstable();
            k.dedup();
            k
        };
        self.queue.push_back(Job {
            d,
            recv_ns: sim::now().as_nanos(),
            keys,
        });
    }

    /// Dispatches from the queue front while a free worker exists and the
    /// front's conflict keys are disjoint from every in-flight command's.
    fn try_dispatch(&mut self) -> bool {
        let mut any = false;
        while !self.queue.is_empty() && !self.free.is_empty() {
            // A transfer that completed after this command was queued may
            // already cover it (its effects are in the adopted snapshot);
            // executing it against newer state would be wrong. The
            // watermark can only reach a queued timestamp via a transfer:
            // dispatched commands all precede it in delivery order.
            let front_ts = self.queue.front().expect("checked non-empty").d.ts.raw();
            if front_ts <= self.shared.completed_req.load(Ordering::SeqCst) {
                let job = self.queue.pop_front().expect("checked non-empty");
                self.shared
                    .cluster
                    .metrics
                    .skipped_requests
                    .fetch_add(1, Ordering::Relaxed);
                self.shared.exec_trace.lock().push((job.d.ts.raw(), 's'));
                any = true;
                continue;
            }
            let conflicts = {
                let front = self.queue.front().expect("checked non-empty");
                self.inflight
                    .values()
                    .any(|f| f.keys.iter().any(|k| front.keys.binary_search(k).is_ok()))
            };
            if conflicts {
                break;
            }
            let worker = *self.free.iter().next().expect("checked non-empty");
            self.free.remove(&worker);
            let job = self.queue.pop_front().expect("checked non-empty");
            let ts = job.d.ts.raw();
            // 'e' is pushed at dispatch, which happens in delivery order
            // (front-only), preserving the checker's strictly-increasing
            // execution-trace invariant.
            self.shared.exec_trace.lock().push((ts, 'e'));
            self.done.insert(ts, false);
            self.inflight.insert(
                worker,
                InFlight {
                    ts,
                    keys: job.keys.clone(),
                    parked: None,
                },
            );
            let _ = self.jobs[worker].send(job);
            any = true;
        }
        any
    }

    /// Requester-side stall resolution: once every in-flight worker is
    /// parked (dispatch pauses on the first park, so runners drain), the
    /// pool is quiesced-except-parked — parked workers sit at safe points
    /// with no partial writes — and the dispatcher runs Algorithm 3's
    /// requester side on their behalf, then hands each a verdict.
    fn resolve_parks(&mut self) -> bool {
        if self.inflight.is_empty() || self.inflight.values().any(|f| f.parked.is_none()) {
            return false;
        }
        // The transfer is abortable on barrier-heal only when every park
        // is a Phase-2 starvation whose barrier has healed (the serial
        // executor's anti-deadlock escape hatch, aggregated over the
        // pool). A lagging park genuinely needs the transfer.
        let mut barrier_checks: Vec<(Timestamp, Vec<PartitionId>)> = Vec::new();
        let mut any_lagging = false;
        for f in self.inflight.values() {
            match f.parked.as_ref().expect("all parked") {
                ParkReason::Phase2Starved { dests } => {
                    barrier_checks.push((Timestamp::from_raw(f.ts), dests.clone()));
                }
                ParkReason::Lagging => any_lagging = true,
            }
        }
        let heal_shared = Arc::clone(&self.shared);
        let healed = move || {
            !any_lagging
                && barrier_checks
                    .iter()
                    .all(|(ts, dests)| coord_status(&heal_shared, dests, *ts, 1).1)
        };
        let rid = state_transfer_abortable(&self.shared, &healed);
        for (worker, f) in self.inflight.iter_mut() {
            f.parked = None;
            let covered = rid.map(|r| r >= f.ts).unwrap_or(false);
            let verdict = if covered {
                StallVerdict::Covered
            } else {
                StallVerdict::Retry
            };
            let _ = self.verdicts[*worker].send(verdict);
        }
        true
    }

    /// Completes a Gap recovery once the pool drained: transfer until a
    /// snapshot covers the held-back delivery, then skip it (the serial
    /// executor's `needs_full_sync` path, made pool-aware).
    fn resolve_gap(&mut self) -> bool {
        let Some(d) = &self.pending_gap else {
            return false;
        };
        if !self.queue.is_empty() || !self.inflight.is_empty() {
            return false;
        }
        let ts = d.ts.raw();
        while state_transfer(&self.shared) < ts {}
        self.shared.exec_trace.lock().push((ts, 's'));
        self.pending_gap = None;
        true
    }

    /// Responder side of Algorithm 3 for the pool: identical rotation to
    /// the serial executor, but a due serve first quiesces the pool —
    /// `completed_req` is an exact request boundary only when nothing is
    /// mid-command. Returns whether a due serve is waiting on the drain
    /// (which pauses dispatch).
    fn serve_transfers(&mut self, progress: &mut bool) -> bool {
        let shared = Arc::clone(&self.shared);
        let n = self.n();
        let pending: std::collections::HashSet<(usize, u64)> =
            pending_sync_requests(&shared).into_iter().collect();
        self.seen_requests.retain(|k, _| pending.contains(k));
        let mut blocked = false;
        for p in 0..n {
            if p == shared.idx {
                continue;
            }
            let slot = shared.layout.sync_slot(p);
            let status = shared.node.local_read_word(slot.offset(8)).unwrap_or(0);
            if status != 1 {
                continue;
            }
            let from = shared.node.local_read_word(slot).unwrap_or(0);
            let first_seen = *self.seen_requests.entry((p, from)).or_insert_with(sim::now);
            let my_rank = (shared.idx + n - p - 1) % n;
            let due = first_seen + self.cfg().transfer_timeout * my_rank as u32;
            if sim::now() < due {
                continue;
            }
            if !self.inflight.is_empty() {
                blocked = true;
                continue;
            }
            respond_transfer(&shared, p, from);
            self.seen_requests.remove(&(p, from));
            *progress = true;
        }
        blocked
    }

    /// Blocks until something can make progress: a delivery (unless held
    /// back by a Gap), a worker event, an unseen transfer request, or a
    /// registered request's rotation turn.
    fn idle_wait(&self) {
        let deliveries = self.deliveries.clone();
        let events = self.events.clone();
        let shared = Arc::clone(&self.shared);
        let now = sim::now();
        let n = self.n();
        let mut timeout = Duration::from_millis(10);
        for key in pending_sync_requests(&shared) {
            if let Some(first) = self.seen_requests.get(&key) {
                let rank = (shared.idx + n - key.0 - 1) % n;
                let due = *first + self.cfg().transfer_timeout * rank as u32;
                // Only future turns shorten the wait. A past-due serve
                // still pending here is blocked on the in-flight drain,
                // and its wake signal is a worker Done event (covered by
                // the predicate below); a zero timeout would return
                // without yielding and freeze the cooperative scheduler.
                if let Some(until_due) = due.checked_sub(now) {
                    if !until_due.is_zero() {
                        timeout = timeout.min(until_due);
                    }
                }
            }
        }
        let seen: std::collections::HashSet<(usize, u64)> =
            self.seen_requests.keys().copied().collect();
        let gap_held = self.pending_gap.is_some();
        self.shared.node.poll_until_timeout(
            || {
                !events.is_empty()
                    || (!gap_held && !deliveries.is_empty())
                    || pending_sync_requests(&shared)
                        .iter()
                        .any(|k| !seen.contains(k))
            },
            timeout,
        );
    }
}

/// A pool worker: executes the jobs its dispatcher hands it on its own
/// coordination lane, parking on stalls.
pub(crate) struct Worker {
    core: ExecCore,
    index: usize,
    jobs: Mailbox<Job>,
    events: Mailbox<WorkerEvent>,
    verdicts: Mailbox<StallVerdict>,
}

impl Worker {
    /// Runs the worker loop forever.
    pub(crate) fn run(self) {
        loop {
            let job = self.jobs.recv();
            let ts = job.d.ts;
            let mut stalls = PoolStalls {
                index: self.index,
                shared: &self.core.shared,
                events: &self.events,
                verdicts: &self.verdicts,
                reply: None,
            };
            let _ = self.core.run_command(&job.d, job.recv_ns, &mut stalls);
            let _ = self.events.send(WorkerEvent::Done {
                worker: self.index,
                ts: ts.raw(),
                reply: stalls.reply.take(),
            });
            self.core.shared.ring_doorbell();
        }
    }
}

/// [`StallHandler`] for pool workers: park and await the dispatcher's
/// verdict. `on_completed` is a no-op — the dispatcher advances the
/// watermark when it processes the worker's `Done` event.
struct PoolStalls<'a> {
    index: usize,
    shared: &'a Arc<ReplicaShared>,
    events: &'a Mailbox<WorkerEvent>,
    verdicts: &'a Mailbox<StallVerdict>,
    /// Reply captured by [`StallHandler::on_reply`], shipped to the
    /// dispatcher on the `Done` event.
    reply: Option<(u64, u64, Vec<u8>)>,
}

impl PoolStalls<'_> {
    fn park(&self, ts: Timestamp, reason: ParkReason) -> StallOutcome {
        // The park's whole duration is observable: a `pool.park` span nested
        // under the stalled command's span (so the critical-path analyzer
        // carves it out of the stage it interrupted), and a parked
        // wait-state for the profiler.
        let label = match &reason {
            ParkReason::Phase2Starved { .. } => "phase2_starved",
            ParkReason::Lagging => "lagging",
        };
        let lagging = u64::from(matches!(reason, ParkReason::Lagging));
        let _span = sim::trace::span_args(
            "pool.park",
            0,
            &[
                ("ts", ts.raw()),
                ("worker", self.index as u64),
                ("lagging", lagging),
            ],
        );
        let _wait = sim::prof::parked_scope(label);
        let _ = self.events.send(WorkerEvent::Parked {
            worker: self.index,
            ts: ts.raw(),
            reason,
        });
        self.shared.ring_doorbell();
        match self.verdicts.recv() {
            StallVerdict::Covered => StallOutcome::Covered,
            StallVerdict::Retry => StallOutcome::Retry,
        }
    }
}

impl StallHandler for PoolStalls<'_> {
    fn on_phase2_starved(&mut self, dests: &[PartitionId], ts: Timestamp) -> StallOutcome {
        self.park(
            ts,
            ParkReason::Phase2Starved {
                dests: dests.to_vec(),
            },
        )
    }

    fn on_lagging(&mut self, ts: Timestamp) -> StallOutcome {
        self.park(ts, ParkReason::Lagging)
    }

    fn on_completed(&mut self, _ts: Timestamp) {}

    fn on_reply(&mut self, client_id: u64, seq: u64, response: &[u8]) -> bool {
        self.reply = Some((client_id, seq, response.to_vec()));
        true
    }
}

/// Spawns the executor pool for one replica: the dispatcher under the
/// serial executor's process name (so pool runs keep the same process
/// roster shape) plus `width` workers.
pub(crate) fn spawn_pool(
    simulation: &sim::Simulation,
    shared: Arc<ReplicaShared>,
    deliveries: Mailbox<DeliveryEvent>,
    p: usize,
    i: usize,
) {
    let width = shared.cluster.cfg.executor_width;
    debug_assert!(width > 1, "the pool exists only above width 1");
    let events: Mailbox<WorkerEvent> = Mailbox::new();
    let jobs: Vec<Mailbox<Job>> = (0..width).map(|_| Mailbox::new()).collect();
    let verdicts: Vec<Mailbox<StallVerdict>> = (0..width).map(|_| Mailbox::new()).collect();
    let dispatcher = Dispatcher {
        shared: Arc::clone(&shared),
        deliveries,
        events: events.clone(),
        jobs: jobs.clone(),
        verdicts: verdicts.clone(),
        queue: VecDeque::new(),
        inflight: BTreeMap::new(),
        free: (0..width).collect(),
        done: BTreeMap::new(),
        seen_requests: HashMap::new(),
        needs_full_sync: false,
        pending_gap: None,
        last_replied: HashMap::new(),
    };
    simulation.spawn(format!("heron-exec-p{p}r{i}"), move || dispatcher.run());
    for k in 0..width {
        let worker = Worker {
            core: ExecCore {
                shared: Arc::clone(&shared),
                lane: k,
            },
            index: k,
            jobs: jobs[k].clone(),
            events: events.clone(),
            verdicts: verdicts[k].clone(),
        };
        simulation.spawn(format!("heron-exec-p{p}r{i}w{k}"), move || worker.run());
    }
}
