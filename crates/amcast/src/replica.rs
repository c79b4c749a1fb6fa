//! The multicast replica process: Skeen ordering, intra-group replication,
//! delivery, and leader change.

use crate::cluster::{Delivered, DeliveryEvent, McastInner};
use crate::layout::{
    decode_ctrl_header, decode_log_header, decode_sub_header, encode_ctrl, encode_log, CtrlKind,
    NodeLayout, CTRL_HDR, LOG_HDR, SUB_HDR,
};
use crate::timestamp::{GroupId, MsgId, Timestamp};
use crate::{mask_groups, DestMask};
use bytes::Bytes;
use rdma_sim::{Node, QueuePair, WriteBatch};
use sim::SimTime;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Which replica index leads a group in the given epoch.
pub(crate) fn leader_for_epoch(epoch: u64, n: usize) -> usize {
    (epoch % n as u64) as usize
}

struct Pending {
    payload: Option<Vec<u8>>,
    mask: DestMask,
    myprop: Option<u64>,
}

struct State {
    epoch: u64,
    is_leader: bool,
    // Reader cursors.
    sub_expected: Vec<u64>,
    ctrl_expected: Vec<u64>,
    ctrl_out_stamp: Vec<u64>,
    applied_seq: u64,
    // Protocol knowledge shared by leader and followers (followers keep it
    // so a takeover can adopt the old leader's proposals).
    props: HashMap<u32, HashMap<u16, u64>>,
    finals: HashMap<u32, u64>,
    /// Uids sequenced into the group log (ordering-level dedup).
    done: HashSet<u32>,
    /// Uids handed to the application (integrity-level dedup).
    delivered: HashSet<u32>,
    max_ts_seen: u64,
    // Leader state.
    clock: u64,
    pending: HashMap<u32, Pending>,
    finalized: BTreeSet<(u64, u32)>,
    /// Messages ordered so far in the current group-commit window; the
    /// first message of a window pays the full `ordering_cpu`, the rest
    /// pay the marginal batched cost. Always 0 on entry at `max_batch = 1`.
    ordering_window: usize,
    next_seq: u64,
    acks_cache: Vec<u64>,
    last_hb_sent: SimTime,
    hb_counter: u64,
    // Follower state.
    last_hb_val: u64,
    last_hb_change: SimTime,
    election_target: u64,
    /// A recovered replica may hold a stale, never-committed tail in its
    /// own log (entries it appended as a pre-crash leader, or that a since
    /// deposed leader wrote while it was down). Until the current regime is
    /// known, applying the local log is unsafe: `await_epoch` blocks
    /// applies until the regime is learned, through either exit:
    ///
    /// * a *fresh* heartbeat reveals the live leader's epoch
    ///   (`follower_check_leader`), or
    /// * this replica itself wins a takeover — after adopting a majority
    ///   log any suspect tail is superseded, so assuming leadership clears
    ///   the gate.
    ///
    /// Both exits raise `entry_epoch_floor` to the learned epoch (it only
    /// ever ratchets up), and applies then refuse entries stamped by older
    /// regimes — the live leader's retransmission path overwrites them
    /// re-stamped with its own epoch.
    await_epoch: bool,
    entry_epoch_floor: u64,
    /// First sequence number this replica's rebuilt in-memory log speaks
    /// for after a WAL reload (earlier entries were truncated behind a
    /// checkpoint horizon). Zero on replicas that never reloaded: their
    /// ring still holds whatever the ring window holds.
    log_floor: u64,
    /// After a power loss wipes the rings, the stale stamps the cursor
    /// scan's jump-forward relies on are gone; until this deadline every
    /// pump rescans all lane slots (local reads only, no events).
    lanes_suspect_until: SimTime,
}

/// One multicast replica's protocol driver.
///
/// Obtain it from [`crate::Mcast::replica`] and call [`McastReplica::run`]
/// inside a simulated process; it loops forever, delivering messages into
/// the replica's delivery mailbox.
pub struct McastReplica {
    inner: Arc<McastInner>,
    group: GroupId,
    idx: usize,
    node: Node,
    my_global: usize,
    layout: NodeLayout,
    /// This replica's durable WAL namespace, when storage is attached
    /// (before the replica was constructed — see [`crate::Mcast::attach_wal`]).
    wal_disk: Option<sim::storage::Disk>,
}

impl std::fmt::Debug for McastReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McastReplica")
            .field("group", &self.group)
            .field("idx", &self.idx)
            .finish()
    }
}

impl McastReplica {
    pub(crate) fn new(inner: Arc<McastInner>, group: GroupId, idx: usize) -> Self {
        let node = inner.nodes[group.0 as usize][idx].clone();
        let my_global = inner.global_idx(group, idx);
        let layout = inner.layouts[&node.id()];
        let wal_disk = inner
            .wal
            .get()
            .map(|s| s.disk(crate::Mcast::wal_namespace(group, idx)));
        McastReplica {
            inner,
            group,
            idx,
            node,
            my_global,
            layout,
            wal_disk,
        }
    }

    fn n(&self) -> usize {
        self.inner.cfg.replicas_per_group
    }

    fn majority(&self) -> usize {
        self.inner.cfg.majority()
    }

    /// Queue pair to the node hosting global replica index `g`.
    fn qp(&self, qps: &mut HashMap<usize, QueuePair>, global: usize) -> QueuePair {
        qps.entry(global)
            .or_insert_with(|| {
                let n = self.inner.cfg.replicas_per_group;
                let node = &self.inner.nodes[global / n][global % n];
                self.node.connect(node)
            })
            .clone()
    }

    fn peer_node(&self, global: usize) -> &Node {
        let n = self.inner.cfg.replicas_per_group;
        &self.inner.nodes[global / n][global % n]
    }

    /// Runs the replica protocol loop forever.
    ///
    /// # Panics
    ///
    /// Panics on ring overruns (a sign the deployment is undersized) and if
    /// called outside a simulated process.
    pub fn run(self) {
        let mut qps: HashMap<usize, QueuePair> = HashMap::new();
        let mut st = State {
            epoch: 0,
            is_leader: self.idx == leader_for_epoch(0, self.n()),
            sub_expected: vec![1; self.inner.cfg.max_clients],
            ctrl_expected: vec![1; self.inner.cfg.total_replicas()],
            ctrl_out_stamp: vec![1; self.inner.cfg.total_replicas()],
            applied_seq: 0,
            props: HashMap::new(),
            finals: HashMap::new(),
            done: HashSet::new(),
            delivered: HashSet::new(),
            max_ts_seen: 0,
            clock: 0,
            pending: HashMap::new(),
            finalized: BTreeSet::new(),
            ordering_window: 0,
            next_seq: 0,
            acks_cache: vec![0; self.n()],
            last_hb_sent: SimTime::ZERO,
            hb_counter: 0,
            last_hb_val: 0,
            last_hb_change: sim::now(),
            election_target: 0,
            await_epoch: false,
            entry_epoch_floor: 0,
            log_floor: 0,
            lanes_suspect_until: SimTime::ZERO,
        };
        let mut incarnation = self.node.incarnation();
        let mut power_cycles = self.node.power_cycles();
        // Sequencer backlog timeline for the profiler (inert when off):
        // proposals awaiting finalization plus finalized-but-undelivered
        // messages held by the group-commit window.
        let backlog = if sim::prof::enabled() {
            sim::prof::gauge(format!("amcast.backlog.g{}r{}", self.group.0, self.idx))
        } else {
            sim::prof::Gauge::disabled()
        };
        let mut backlog_last = 0u64;
        loop {
            if !self.node.is_alive() {
                // Crashed; idle until recovered.
                self.node
                    .poll_until_timeout(|| self.node.is_alive(), self.inner.cfg.leader_timeout);
                continue;
            }
            if self.node.incarnation() != incarnation {
                incarnation = self.node.incarnation();
                // We were crashed and revived (possibly entirely while
                // parked). Fresh timeout window — don't start an election
                // off a heartbeat gap that is our own fault — and rescan
                // the lanes whose writes we missed.
                st.last_hb_change = sim::now();
                st.is_leader = false;
                self.resync_lanes(&mut st);
                // A crash loses volatile ordering state: drop in-flight
                // proposals/finals (client retries re-learn them) and keep
                // only what was actually delivered. In particular, a
                // pre-crash leader's sequencing bookkeeping (`done`,
                // `finals`) must not survive — a takeover may have replaced
                // its unreplicated log tail, and reusing stale decisions
                // would sequence retried messages at obsolete timestamps.
                st.pending.clear();
                st.finalized.clear();
                st.props.clear();
                st.finals.clear();
                st.done = st.delivered.clone();
                // Our own log tail beyond `applied_seq` is suspect for the
                // same reason: refuse to apply it until a fresh heartbeat
                // reveals the current regime (`follower_apply_log` then
                // requires entries stamped by it or a newer one).
                st.await_epoch = true;
                st.last_hb_val = self
                    .node
                    .local_read_word(self.layout.heartbeat)
                    .unwrap_or(0);
                if self.node.power_cycles() != power_cycles {
                    // Not just a crash: a power loss wiped our registered
                    // memory (rings, log, acks, heartbeat). Rebuild from
                    // the durable WAL.
                    power_cycles = self.node.power_cycles();
                    self.reload_after_power_loss(&mut st, &mut qps);
                }
            }
            self.do_work(&mut st, &mut qps);
            if backlog.is_enabled() {
                // Only a changed value moves the step function; skipping
                // the no-op updates keeps the clock reads off the hot loop.
                let v = (st.pending.len() + st.finalized.len()) as u64;
                if v != backlog_last {
                    backlog.set(v);
                    backlog_last = v;
                }
            }
            let deadline = if st.is_leader {
                st.last_hb_sent + self.inner.cfg.heartbeat_interval
            } else {
                st.last_hb_change + self.inner.cfg.leader_timeout
            };
            let now = sim::now();
            let timeout = deadline
                .checked_sub(now)
                .unwrap_or(std::time::Duration::from_nanos(1));
            let this = &self;
            let st_ref = &st;
            self.node
                .poll_until_timeout(|| this.has_work(st_ref), timeout);
        }
    }

    // ------------------------------------------------------------------
    // Work detection (cheap local-memory scans).
    // ------------------------------------------------------------------

    fn has_work(&self, st: &State) -> bool {
        let sizes = &self.inner.sizes;
        // New submissions?
        for c in 0..sizes.max_clients {
            let addr = sizes.sub_slot(self.layout, c, st.sub_expected[c]);
            if self.node.local_read_word(addr).unwrap_or(0) >= st.sub_expected[c] {
                return true;
            }
        }
        // New control messages?
        for w in 0..sizes.total_replicas {
            if w == self.my_global {
                continue;
            }
            let addr = sizes.ctrl_slot(self.layout, w, st.ctrl_expected[w]);
            if self.node.local_read_word(addr).unwrap_or(0) >= st.ctrl_expected[w] {
                return true;
            }
        }
        if st.is_leader {
            // New acks?
            for i in 0..self.n() {
                if i == self.idx {
                    continue;
                }
                let v = self
                    .node
                    .local_read_word(self.inner.sizes.ack_slot(self.layout, i))
                    .unwrap_or(0);
                if v != st.acks_cache[i] {
                    return true;
                }
            }
        } else {
            // New log entries? Mirrors `follower_apply_log`'s recovery
            // gates exactly, or a refused stale entry would read as
            // permanent work and this process would spin without blocking.
            if !st.await_epoch {
                let addr = self.inner.sizes.log_slot(self.layout, st.applied_seq);
                let stamp = self.node.local_read_word(addr).unwrap_or(0);
                let epoch = self.node.local_read_word(addr.offset(32)).unwrap_or(0);
                if stamp > st.applied_seq && epoch >= st.entry_epoch_floor {
                    return true;
                }
            }
            // Truncation horizon advertised past our position? Gated like
            // the entry check above: `follower_apply_log` ignores the
            // floor while `await_epoch` holds, so reading it as work
            // before the first heartbeat would spin without blocking.
            // (`break_has_work_gate` drops the gate to re-introduce that
            // exact spin for the livelock-detector self-test.)
            if (!st.await_epoch || self.inner.cfg.break_has_work_gate)
                && self
                    .node
                    .local_read_word(self.layout.log_floor)
                    .unwrap_or(0)
                    > st.applied_seq
            {
                return true;
            }
            // Heartbeat moved?
            if self
                .node
                .local_read_word(self.layout.heartbeat)
                .unwrap_or(0)
                != st.last_hb_val
            {
                return true;
            }
        }
        if sim::now() < st.lanes_suspect_until {
            // Post-power-loss: wiped lanes can hide fresh writes from the
            // cursor probes above, so any stamp ahead of a cursor anywhere
            // in a lane counts as work.
            for c in 0..sizes.max_clients {
                for s in 0..sizes.sub_slots {
                    let addr = sizes.sub_slot(self.layout, c, s as u64 + 1);
                    if self.node.local_read_word(addr).unwrap_or(0) > st.sub_expected[c] {
                        return true;
                    }
                }
            }
            for w in 0..sizes.total_replicas {
                if w == self.my_global {
                    continue;
                }
                for s in 0..sizes.ctrl_slots {
                    let addr = sizes.ctrl_slot(self.layout, w, s as u64 + 1);
                    if self.node.local_read_word(addr).unwrap_or(0) > st.ctrl_expected[w] {
                        return true;
                    }
                }
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // Main work pump.
    // ------------------------------------------------------------------

    fn do_work(&self, st: &mut State, qps: &mut HashMap<usize, QueuePair>) {
        st.ordering_window = 0;
        if sim::now() < st.lanes_suspect_until {
            self.resync_lanes(st);
        }
        self.scan_submissions(st, qps);
        self.scan_ctrl(st, qps);
        if st.is_leader {
            // Step down if a successor took over while we were out.
            let hb = self
                .node
                .local_read_word(self.layout.heartbeat)
                .unwrap_or(0);
            if hb >> 32 > st.epoch {
                st.epoch = hb >> 32;
                st.election_target = st.election_target.max(st.epoch);
                st.is_leader = self.idx == leader_for_epoch(st.epoch, self.n());
                st.last_hb_val = hb;
                st.last_hb_change = sim::now();
                st.pending.clear();
                st.finalized.clear();
                return;
            }
            self.leader_sequence_ready(st, qps);
            self.leader_commit_deliver(st);
            if self.maybe_heartbeat(st, qps) {
                self.leader_retransmit(st, qps);
            }
        } else {
            self.follower_apply_log(st, qps);
            self.follower_check_leader(st, qps);
        }
    }

    /// After a crash, every lane cursor may point at a slot whose write we
    /// missed. Advance each cursor to the oldest stamp still present that
    /// is newer than the cursor; the skipped entries are recovered by the
    /// senders' retry paths.
    fn resync_lanes(&self, st: &mut State) {
        let sizes = self.inner.sizes;
        for c in 0..sizes.max_clients {
            // If the slot the cursor points at is readable, the normal
            // scan makes progress from here — never jump past it.
            let cur = sizes.sub_slot(self.layout, c, st.sub_expected[c]);
            if self.node.local_read_word(cur).unwrap_or(0) >= st.sub_expected[c] {
                continue;
            }
            let mut oldest: Option<u64> = None;
            for s in 0..sizes.sub_slots {
                let addr = sizes.sub_slot(self.layout, c, s as u64 + 1);
                let stamp = self.node.local_read_word(addr).unwrap_or(0);
                if stamp > st.sub_expected[c] && oldest.map(|o| stamp < o).unwrap_or(true) {
                    oldest = Some(stamp);
                }
            }
            if let Some(o) = oldest {
                st.sub_expected[c] = o;
            }
        }
        for w in 0..sizes.total_replicas {
            if w == self.my_global {
                continue;
            }
            let cur = sizes.ctrl_slot(self.layout, w, st.ctrl_expected[w]);
            if self.node.local_read_word(cur).unwrap_or(0) >= st.ctrl_expected[w] {
                continue;
            }
            let mut oldest: Option<u64> = None;
            for s in 0..sizes.ctrl_slots {
                let addr = sizes.ctrl_slot(self.layout, w, s as u64 + 1);
                let stamp = self.node.local_read_word(addr).unwrap_or(0);
                if stamp > st.ctrl_expected[w] && oldest.map(|o| stamp < o).unwrap_or(true) {
                    oldest = Some(stamp);
                }
            }
            if let Some(o) = oldest {
                st.ctrl_expected[w] = o;
            }
        }
    }

    /// Rebuilds protocol state after a power loss wiped this node's
    /// registered memory. The durable WAL holds every entry we delivered
    /// (appended before each upcall), and the floor record holds the
    /// sequence position of any truncated prefix: together they restore
    /// the delivered set, the log position, and the in-memory tail of the
    /// group log. Without attached storage the replica rejoins
    /// empty-handed, exactly like the plain crash path, and relies on
    /// retransmission and client retries.
    fn reload_after_power_loss(&self, st: &mut State, qps: &mut HashMap<usize, QueuePair>) {
        // Wiped lanes lose the stale stamps the cursor scan's jump-forward
        // relies on; rescan all slots for a while (local reads only).
        st.lanes_suspect_until = sim::now() + 32 * self.inner.cfg.leader_timeout;
        // Mark this incarnation as reloaded before anything else: elections
        // read this word and refuse to conclude while an alive member's
        // boot generation lags its power-cycle count (its WAL — possibly
        // the longest surviving log — is not in the ring yet). Without a
        // WAL there is nothing to reload, so the non-durable path marks too.
        let _ = self
            .node
            .local_write_word(self.layout.boot_gen, self.node.power_cycles());
        // Boot-readiness watermark advanced: progress for the explorer's
        // zero-virtual-time livelock guards.
        sim::note_progress();
        let Some(disk) = &self.wal_disk else {
            return;
        };
        let (floor_seq, _floor_ts) = crate::wal::read_floor(disk);
        let frames = crate::wal::read_frames(disk);
        st.delivered.clear();
        for uid in crate::wal::read_seen(disk) {
            st.delivered.insert(uid);
        }
        let mut end = floor_seq;
        let mut max_clock = 0u64;
        for f in &frames {
            st.delivered.insert(f.uid);
            end = end.max(f.seq + 1);
            max_clock = max_clock.max(Timestamp::from_raw(f.ts_raw).clock());
        }
        st.done = st.delivered.clone();
        st.applied_seq = end;
        st.next_seq = end;
        st.log_floor = floor_seq;
        st.max_ts_seen = st.max_ts_seen.max(max_clock);
        st.clock = st.clock.max(max_clock);
        // Rebuild the ring tail so takeovers and retransmissions can read
        // our log again. Only the last window's worth fits; anything older
        // is served from checkpoints at the application layer.
        let window_start = end.saturating_sub(self.inner.sizes.log_slots as u64);
        for f in &frames {
            if f.seq < window_start {
                continue;
            }
            let buf = encode_log(f.seq, f.uid, f.mask, f.ts_raw, f.epoch, &f.payload);
            let _ = self
                .node
                .local_write(self.inner.sizes.log_slot(self.layout, f.seq), &buf);
        }
        let _ = self.node.local_write_word(self.layout.log_seq, end);
        if self.n() == 1 {
            // Single-replica group: we are the only possible leader and our
            // WAL is the whole committed log; resume leading immediately.
            st.await_epoch = false;
            st.is_leader = true;
            return;
        }
        // Post our reloaded position into every live peer's ack array so a
        // surviving leader's retransmission path sees where we really are
        // (the ack word otherwise only advances on apply progress).
        for i in 0..self.n() {
            if i == self.idx {
                continue;
            }
            let target = self.inner.global_idx(self.group, i);
            if !self.peer_node(target).is_alive() {
                continue;
            }
            let node_id = self.peer_node(target).id();
            let slot = self
                .inner
                .sizes
                .ack_slot(self.inner.layouts[&node_id], self.idx);
            let _ = self.qp(qps, target).post_write_word(slot, st.applied_seq);
        }
    }

    fn scan_submissions(&self, st: &mut State, qps: &mut HashMap<usize, QueuePair>) {
        let sizes = self.inner.sizes;
        for c in 0..sizes.max_clients {
            loop {
                let expected = st.sub_expected[c];
                let addr = sizes.sub_slot(self.layout, c, expected);
                let hdr = match self.node.local_read(addr, SUB_HDR) {
                    Ok(h) => h,
                    Err(_) => break,
                };
                let (stamp, uid, mask, len) = decode_sub_header(&hdr);
                if stamp < expected {
                    break;
                }
                if stamp > expected {
                    // Entries were lost (we were crashed, or the writer
                    // lapped the ring). Jump forward; lost submissions are
                    // recovered by client retry.
                    st.sub_expected[c] = stamp;
                    continue;
                }
                let payload = self
                    .node
                    .local_read(addr.offset(SUB_HDR as u64), len)
                    .expect("submission payload in range");
                st.sub_expected[c] = expected + 1;
                self.handle_submission(st, qps, uid, mask, payload);
            }
        }
    }

    fn scan_ctrl(&self, st: &mut State, qps: &mut HashMap<usize, QueuePair>) {
        let sizes = self.inner.sizes;
        for w in 0..sizes.total_replicas {
            if w == self.my_global {
                continue;
            }
            loop {
                let expected = st.ctrl_expected[w];
                let addr = sizes.ctrl_slot(self.layout, w, expected);
                let hdr = match self.node.local_read(addr, CTRL_HDR) {
                    Ok(h) => h,
                    Err(_) => break,
                };
                let (stamp, kind, uid, a, b, len) = decode_ctrl_header(&hdr);
                if stamp < expected {
                    break;
                }
                if stamp > expected {
                    // Entries were lost while we were crashed (or the
                    // writer lapped us). Jump forward; lost proposals and
                    // forwards are re-sent by retry paths.
                    st.ctrl_expected[w] = stamp;
                    continue;
                }
                let payload = self
                    .node
                    .local_read(addr.offset(CTRL_HDR as u64), len)
                    .expect("control payload in range");
                st.ctrl_expected[w] = expected + 1;
                match kind {
                    Some(CtrlKind::Proposal) => self.handle_proposal(st, uid, a as u16, b),
                    Some(CtrlKind::Final) => self.handle_final(st, uid, b),
                    Some(CtrlKind::FwdSub) => {
                        if st.is_leader {
                            self.handle_submission(st, qps, uid, a, payload);
                        }
                        // A non-leader drops forwarded submissions; the
                        // client's retry will find the real leader.
                    }
                    None => panic!("corrupt control entry kind"),
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Skeen ordering (leader).
    // ------------------------------------------------------------------

    fn handle_submission(
        &self,
        st: &mut State,
        qps: &mut HashMap<usize, QueuePair>,
        uid: u32,
        mask: DestMask,
        payload: Vec<u8>,
    ) {
        if st.done.contains(&uid) {
            return; // duplicate of an already-sequenced message
        }
        if !st.is_leader {
            // Forward to the current leader of our group.
            let leader = leader_for_epoch(st.epoch, self.n());
            let target = self.inner.global_idx(self.group, leader);
            self.write_ctrl(st, qps, target, CtrlKind::FwdSub, uid, mask, 0, &payload);
            return;
        }
        sim::trace::instant("mcast.ingest", u64::from(uid));
        self.charge_ordering(st);
        {
            let pend = st.pending.entry(uid).or_insert(Pending {
                payload: None,
                mask,
                myprop: None,
            });
            pend.payload = Some(payload);
            pend.mask = mask;
        }
        let myprop = st.pending[&uid].myprop;
        match myprop {
            Some(prop) => {
                // Re-broadcast our proposal: makes client retries
                // idempotent and repairs proposals lost to a remote
                // leader change.
                self.broadcast_proposal(st, qps, uid, mask, prop);
            }
            None => {
                if !st.finals.contains_key(&uid) {
                    st.clock += 1;
                    let prop = st.clock;
                    st.pending.get_mut(&uid).expect("just inserted").myprop = Some(prop);
                    st.props.entry(uid).or_default().insert(self.group.0, prop);
                    self.broadcast_proposal(st, qps, uid, mask, prop);
                }
            }
        }
        self.try_finalize(st, qps, uid);
    }

    /// Charges leader CPU for ordering one message. The first message of
    /// each group-commit window pays the full `ordering_cpu` and the
    /// following ones only the marginal `ordering_cpu_batched`; with
    /// `max_batch = 1` every window holds one message, so every message
    /// pays the full cost.
    fn charge_ordering(&self, st: &mut State) {
        let cfg = &self.inner.cfg;
        if st.ordering_window == 0 {
            sim::sleep(cfg.ordering_cpu);
        } else {
            sim::sleep(cfg.ordering_cpu_batched);
        }
        st.ordering_window += 1;
        if st.ordering_window >= cfg.max_batch {
            st.ordering_window = 0;
        }
    }

    /// Sends our clock proposal to every replica of every destination group
    /// (own followers included, so a successor leader can adopt it).
    fn broadcast_proposal(
        &self,
        st: &mut State,
        qps: &mut HashMap<usize, QueuePair>,
        uid: u32,
        mask: DestMask,
        prop: u64,
    ) {
        for g in mask_groups(mask) {
            for i in 0..self.n() {
                let target = self.inner.global_idx(g, i);
                if target == self.my_global {
                    continue;
                }
                self.write_ctrl(
                    st,
                    qps,
                    target,
                    CtrlKind::Proposal,
                    uid,
                    u64::from(self.group.0),
                    prop,
                    &[],
                );
            }
        }
    }

    fn handle_proposal(&self, st: &mut State, uid: u32, from_group: u16, clock: u64) {
        if st.done.contains(&uid) {
            return;
        }
        let entry = st
            .props
            .entry(uid)
            .or_default()
            .entry(from_group)
            .or_insert(0);
        *entry = (*entry).max(clock);
        st.max_ts_seen = st.max_ts_seen.max(clock);
        if st.is_leader {
            // We might not have the submission yet; try_finalize handles it.
            self.try_finalize_noqp(st, uid);
        }
    }

    fn handle_final(&self, st: &mut State, uid: u32, clock: u64) {
        if st.done.contains(&uid) {
            return;
        }
        let f = st.finals.entry(uid).or_insert(clock);
        *f = (*f).max(clock);
        st.max_ts_seen = st.max_ts_seen.max(clock);
        if st.is_leader {
            st.clock = st.clock.max(clock);
            self.try_finalize_noqp(st, uid);
        }
    }

    /// Finalization that cannot emit control traffic (used from handlers
    /// that don't have the QP map handy; finals are announced lazily by
    /// `leader_sequence_ready`).
    fn try_finalize_noqp(&self, st: &mut State, uid: u32) {
        let Some(pend) = st.pending.get(&uid) else {
            return;
        };
        if pend.payload.is_none() {
            return;
        }
        if st.finalized.iter().any(|&(_, u)| u == uid) {
            return;
        }
        let final_clock = if let Some(&f) = st.finals.get(&uid) {
            f
        } else {
            // All destination groups must have proposed.
            let props = match st.props.get(&uid) {
                Some(p) => p,
                None => return,
            };
            let groups = mask_groups(pend.mask);
            if !groups.iter().all(|g| props.contains_key(&g.0)) {
                return;
            }
            groups
                .iter()
                .map(|g| props[&g.0])
                .max()
                .expect("at least one destination")
        };
        st.finals.insert(uid, final_clock);
        st.clock = st.clock.max(final_clock);
        let ts = Timestamp::new(final_clock, MsgId(uid));
        st.max_ts_seen = st.max_ts_seen.max(final_clock);
        st.finalized.insert((ts.raw(), uid));
        // Timestamp agreement reached: every destination group proposed and
        // the final timestamp (max of proposals) is now fixed.
        sim::trace::instant_args("mcast.final", u64::from(uid), &[("ts", ts.raw())]);
    }

    fn try_finalize(&self, st: &mut State, _qps: &mut HashMap<usize, QueuePair>, uid: u32) {
        self.try_finalize_noqp(st, uid);
    }

    /// Skeen delivery condition: a finalized message can be sequenced once
    /// no pending message we have proposed for (but not finalized) could
    /// receive a smaller final timestamp.
    ///
    /// Group commit: drains every sequenceable message in rounds of up to
    /// `max_batch` (rounds of one at the paper's `max_batch = 1`). A round
    /// announces its finals with one doorbell per destination replica and
    /// replicates to each follower as one doorbell-batched log append
    /// behind a single `log_seq` bump. Popping a message never unblocks
    /// another (the blocked predicate only consults non-finalized pending
    /// proposals), so the round size changes the verb count and leader CPU,
    /// never the delivery order or the timestamps.
    fn leader_sequence_ready(&self, st: &mut State, qps: &mut HashMap<usize, QueuePair>) {
        let max_batch = self.inner.cfg.max_batch;
        loop {
            let mut round: Vec<(u64, u32, DestMask, Vec<u8>)> = Vec::new();
            while round.len() < max_batch {
                let Some(&(ts_raw, uid)) = st.finalized.iter().next() else {
                    break;
                };
                let blocked = st.pending.iter().any(|(u, p)| {
                    if st.finals.contains_key(u) {
                        return false; // already finalized; ordered via the set
                    }
                    match p.myprop {
                        // A pending proposal below ts could still finalize
                        // under ts.
                        Some(prop) => Timestamp::new(prop, MsgId(*u)).raw() < ts_raw,
                        // No own proposal yet: our future proposal will
                        // exceed the current clock, hence exceed ts.
                        None => false,
                    }
                });
                if blocked {
                    break;
                }
                st.finalized.remove(&(ts_raw, uid));
                let pend = st.pending.remove(&uid).expect("finalized implies pending");
                let payload = pend.payload.expect("finalized implies payload");
                round.push((ts_raw, uid, pend.mask, payload));
            }
            if round.is_empty() {
                return;
            }
            let drained_all = round.len() < max_batch;

            // Announce the final timestamps to all destination replicas:
            // redundant in steady state (each leader computes the same max)
            // but lets successor leaders adopt in-flight decisions. One
            // doorbell per target; BTreeMap keeps the posting order
            // deterministic.
            let mut ctrl: BTreeMap<usize, WriteBatch> = BTreeMap::new();
            for (_, uid, mask, _) in &round {
                let final_clock = st.finals[uid];
                for g in mask_groups(*mask) {
                    for i in 0..self.n() {
                        let target = self.inner.global_idx(g, i);
                        if target == self.my_global {
                            continue;
                        }
                        self.queue_ctrl(
                            st,
                            qps,
                            &mut ctrl,
                            target,
                            CtrlKind::Final,
                            *uid,
                            u64::from(self.group.0),
                            final_clock,
                            &[],
                        );
                    }
                }
            }
            for (_, batch) in ctrl {
                let _ = batch.post();
            }

            // Log append: write every entry locally, publish log_seq once
            // for the whole round, then one doorbell-batched write per
            // follower carrying all of the round's entries.
            let mut entries: Vec<(u64, Vec<u8>)> = Vec::with_capacity(round.len());
            for (ts_raw, uid, mask, payload) in &round {
                let seq = st.next_seq;
                st.next_seq += 1;
                st.done.insert(*uid);
                st.props.remove(uid);
                sim::trace::instant_args("mcast.sequenced", u64::from(*uid), &[("seq", seq)]);
                let entry = encode_log(seq, *uid, *mask, *ts_raw, st.epoch, payload);
                let my_slot = self.inner.sizes.log_slot(self.layout, seq);
                self.node
                    .local_write(my_slot, &entry)
                    .expect("own log slot in range");
                entries.push((seq, entry));
            }
            self.node
                .local_write_word(self.layout.log_seq, st.next_seq)
                .expect("own log_seq word");
            for i in 0..self.n() {
                if i == self.idx {
                    continue;
                }
                let target = self.inner.global_idx(self.group, i);
                let peer_layout = self.inner.layouts[&self.peer_node(target).id()];
                let mut batch = self.qp(qps, target).write_batch();
                for (seq, entry) in &entries {
                    batch.push(self.inner.sizes.log_slot(peer_layout, *seq), entry.clone());
                }
                let _ = batch.post();
            }

            if drained_all {
                return;
            }
        }
    }

    /// Delivers log entries once a majority of the group stores them.
    fn leader_commit_deliver(&self, st: &mut State) {
        let mut stored: Vec<u64> = Vec::with_capacity(self.n());
        for i in 0..self.n() {
            if i == self.idx {
                stored.push(st.next_seq);
            } else {
                let v = self
                    .node
                    .local_read_word(self.inner.sizes.ack_slot(self.layout, i))
                    .unwrap_or(0);
                st.acks_cache[i] = v;
                stored.push(v);
            }
        }
        stored.sort_unstable_by(|a, b| b.cmp(a));
        let committed = stored[self.majority() - 1];
        while st.applied_seq < committed {
            let seq = st.applied_seq;
            let entry = self.read_own_log(seq);
            st.applied_seq += 1;
            self.deliver(st, entry);
        }
    }

    /// Whether our own ring still holds the entry for `seq` (the slot's
    /// stamp matches). False for wiped slots and truncated prefixes.
    fn holds_log(&self, seq: u64) -> bool {
        let addr = self.inner.sizes.log_slot(self.layout, seq);
        match self.node.local_read(addr, LOG_HDR) {
            Ok(hdr) => decode_log_header(&hdr).0 == seq + 1,
            Err(_) => false,
        }
    }

    fn read_own_log(&self, seq: u64) -> crate::layout::LogEntry {
        let addr = self.inner.sizes.log_slot(self.layout, seq);
        let hdr = self
            .node
            .local_read(addr, LOG_HDR)
            .expect("log header in range");
        let (stamp, uid, mask, ts_raw, _epoch, len) = decode_log_header(&hdr);
        debug_assert_eq!(stamp, seq + 1, "own log slot holds wrong sequence");
        let payload = self
            .node
            .local_read(addr.offset(LOG_HDR as u64), len)
            .expect("log payload in range");
        crate::layout::LogEntry {
            seq,
            uid,
            mask,
            ts_raw,
            payload,
        }
    }

    fn deliver(&self, st: &mut State, entry: crate::layout::LogEntry) {
        if !st.delivered.insert(entry.uid) {
            return; // integrity: never deliver the same message twice
        }
        st.done.insert(entry.uid);
        st.props.remove(&entry.uid);
        st.finals.remove(&entry.uid);
        st.pending.remove(&entry.uid);
        st.max_ts_seen = st
            .max_ts_seen
            .max(Timestamp::from_raw(entry.ts_raw).clock());
        // Delivery watermark advanced: progress for the explorer's
        // zero-virtual-time livelock guards.
        sim::note_progress();
        sim::trace::instant_args(
            "mcast.deliver",
            u64::from(entry.uid),
            &[("ts", entry.ts_raw), ("seq", entry.seq)],
        );
        // Durability: log the delivery before the upcall, so the set of
        // messages ever handed to the application survives power loss.
        // The append charges this process the modeled write + fsync cost.
        if let Some(disk) = &self.wal_disk {
            disk.append(
                crate::wal::WAL_FILE,
                &encode_log(
                    entry.seq,
                    entry.uid,
                    entry.mask,
                    entry.ts_raw,
                    st.epoch,
                    &entry.payload,
                ),
            );
        }
        // A dead consumer (its process was killed) cannot take deliveries;
        // dropping the event mirrors losing an upcall to a crashed replica.
        let _ = self.inner.deliveries[self.group.0 as usize][self.idx].send(
            DeliveryEvent::Deliver(Delivered {
                id: MsgId(entry.uid),
                ts: Timestamp::from_raw(entry.ts_raw),
                dests: entry.mask,
                payload: Bytes::from(entry.payload),
            }),
        );
    }

    /// Returns `true` if a heartbeat round was sent.
    fn maybe_heartbeat(&self, st: &mut State, qps: &mut HashMap<usize, QueuePair>) -> bool {
        let now = sim::now();
        if now < st.last_hb_sent + self.inner.cfg.heartbeat_interval && st.hb_counter > 0 {
            return false;
        }
        st.hb_counter += 1;
        st.last_hb_sent = now;
        let value = (st.epoch << 32) | (st.hb_counter & 0xFFFF_FFFF);
        for i in 0..self.n() {
            if i == self.idx {
                continue;
            }
            let target = self.inner.global_idx(self.group, i);
            let node_id = self.peer_node(target).id();
            let hb = self.inner.layouts[&node_id].heartbeat;
            let qp = self.qp(qps, target);
            let _ = qp.post_write_word(hb, value);
        }
        true
    }

    /// Re-sends log entries to followers whose acks are behind — the
    /// catch-up path for followers that missed unsignaled writes while
    /// crashed. Bounded per round; paced by the heartbeat cadence.
    fn leader_retransmit(&self, st: &mut State, qps: &mut HashMap<usize, QueuePair>) {
        const BATCH: u64 = 64;
        for i in 0..self.n() {
            if i == self.idx {
                continue;
            }
            let behind = st.acks_cache[i];
            if behind >= st.next_seq {
                continue;
            }
            let target = self.inner.global_idx(self.group, i);
            if !self.peer_node(target).is_alive() {
                continue;
            }
            // Entries older than the log window are gone; the follower
            // will observe a gap. Entries below our reload floor were
            // truncated behind a checkpoint and are not in the rebuilt
            // ring at all.
            let window_lo = st
                .next_seq
                .saturating_sub(self.inner.sizes.log_slots as u64 / 2);
            let from = behind.max(window_lo).max(st.log_floor);
            let to = st.next_seq.min(from + BATCH);
            let node_id = self.peer_node(target).id();
            let peer_layout = self.inner.layouts[&node_id];
            let qp = self.qp(qps, target);
            if st.log_floor > behind {
                // The follower sits behind our truncation horizon: its
                // wiped ring will never show it a lap gap, so advertise
                // the first sequence number we can actually serve.
                let _ = qp.post_write_word(peer_layout.log_floor, from);
            }
            // Under group commit the whole round rides one doorbell.
            let per_doorbell = if self.inner.cfg.max_batch > 1 {
                BATCH
            } else {
                1
            };
            self.post_log_range(&qp, peer_layout, from..to, st.epoch, per_doorbell);
        }
    }

    /// Posts our log entries `seqs` into a peer's ring, `per_doorbell`
    /// entries per doorbell, re-stamped with `epoch`: the current regime
    /// vouches for each entry, so a recovered peer may apply it.
    fn post_log_range(
        &self,
        qp: &QueuePair,
        peer_layout: NodeLayout,
        seqs: std::ops::Range<u64>,
        epoch: u64,
        per_doorbell: u64,
    ) {
        for lo in seqs.clone().step_by(per_doorbell as usize) {
            let mut batch = qp.write_batch();
            for seq in lo..seqs.end.min(lo + per_doorbell) {
                let entry = self.read_own_log(seq);
                let buf = encode_log(
                    seq,
                    entry.uid,
                    entry.mask,
                    entry.ts_raw,
                    epoch,
                    &entry.payload,
                );
                batch.push(self.inner.sizes.log_slot(peer_layout, seq), buf);
            }
            let _ = batch.post();
        }
    }

    // ------------------------------------------------------------------
    // Follower side.
    // ------------------------------------------------------------------

    fn follower_apply_log(&self, st: &mut State, qps: &mut HashMap<usize, QueuePair>) {
        if st.await_epoch {
            // Freshly recovered: the local log may end in a stale tail from
            // a deposed regime. Hold all applies until a heartbeat reveals
            // the live leader's epoch (`follower_check_leader` clears this).
            return;
        }
        // A leader whose durable log was truncated below our position
        // advertises its floor here: the dropped prefix can never be
        // retransmitted, so surface the gap (the application recovers from
        // a checkpoint) and resume from the floor.
        let floor = self
            .node
            .local_read_word(self.layout.log_floor)
            .unwrap_or(0);
        if floor > st.applied_seq {
            let _ =
                self.inner.deliveries[self.group.0 as usize][self.idx].send(DeliveryEvent::Gap {
                    from: st.applied_seq,
                    to: floor - 1,
                });
            st.applied_seq = floor;
            st.log_floor = st.log_floor.max(floor);
        }
        let mut progressed = false;
        loop {
            let addr = self.inner.sizes.log_slot(self.layout, st.applied_seq);
            let Ok(hdr) = self.node.local_read(addr, LOG_HDR) else {
                break;
            };
            let (stamp, uid, mask, ts_raw, epoch, len) = decode_log_header(&hdr);
            if stamp == 0 || stamp < st.applied_seq + 1 {
                break;
            }
            if epoch < st.entry_epoch_floor {
                // Written by a regime older than the one we rejoined under:
                // this is our own pre-crash tail, never confirmed by a
                // majority. The live leader retransmits the true entry for
                // this slot re-stamped with its epoch; wait for it.
                break;
            }
            if stamp > st.applied_seq + 1 {
                // The leader lapped us: entries were overwritten before we
                // applied them. Surface the gap; the application recovers
                // out of band (Heron: state transfer).
                let missed_to = stamp - 2; // the slot now holds seq stamp-1
                let _ = self.inner.deliveries[self.group.0 as usize][self.idx].send(
                    DeliveryEvent::Gap {
                        from: st.applied_seq,
                        to: missed_to,
                    },
                );
                st.applied_seq = stamp - 1;
                continue;
            }
            sim::sleep(self.inner.cfg.follower_cpu);
            let payload = self
                .node
                .local_read(addr.offset(LOG_HDR as u64), len)
                .expect("log payload in range");
            st.applied_seq += 1;
            progressed = true;
            self.deliver(
                st,
                crate::layout::LogEntry {
                    seq: st.applied_seq - 1,
                    uid,
                    mask,
                    ts_raw,
                    payload,
                },
            );
        }
        if progressed {
            self.node
                .local_write_word(self.layout.log_seq, st.applied_seq)
                .expect("own log_seq word");
            let leader = leader_for_epoch(st.epoch, self.n());
            let target = self.inner.global_idx(self.group, leader);
            let node_id = self.peer_node(target).id();
            let slot = self
                .inner
                .sizes
                .ack_slot(self.inner.layouts[&node_id], self.idx);
            let qp = self.qp(qps, target);
            let _ = qp.post_write_word(slot, st.applied_seq);
        }
    }

    fn follower_check_leader(&self, st: &mut State, qps: &mut HashMap<usize, QueuePair>) {
        let hb = self
            .node
            .local_read_word(self.layout.heartbeat)
            .unwrap_or(0);
        let now = sim::now();
        if hb != st.last_hb_val {
            st.last_hb_val = hb;
            st.last_hb_change = now;
            let seen_epoch = hb >> 32;
            if st.await_epoch {
                // First heartbeat since we recovered: only a live leader
                // heartbeats, so its epoch is the current regime. Entries
                // written by older regimes (our suspect tail) stay refused.
                st.await_epoch = false;
                st.entry_epoch_floor = st.entry_epoch_floor.max(seen_epoch);
            }
            if seen_epoch > st.epoch {
                st.epoch = seen_epoch;
                st.election_target = st.election_target.max(seen_epoch);
                st.is_leader = self.idx == leader_for_epoch(st.epoch, self.n());
            }
            return;
        }
        if self.n() == 1 {
            return;
        }
        if now
            .checked_sub(st.last_hb_change)
            .map(|d| d >= self.inner.cfg.leader_timeout)
            != Some(true)
        {
            return;
        }
        // Heartbeat silence: advance the election target.
        let target = st.epoch.max(st.election_target) + 1;
        st.election_target = target;
        st.last_hb_change = now; // restart the timeout window
        if leader_for_epoch(target, self.n()) == self.idx {
            self.try_takeover(st, qps, target);
        }
    }

    /// Epoch takeover: adopt the longest majority log, backfill peers, and
    /// become leader.
    fn try_takeover(&self, st: &mut State, qps: &mut HashMap<usize, QueuePair>, target: u64) {
        // 1. Read peers' log positions.
        let mut alive = 1usize;
        let mut longest: (u64, Option<usize>) = (st.applied_seq, None);
        // Ordered: the backfill below posts in this map's iteration order,
        // which must not depend on a hasher's random keys.
        let mut peer_seq: BTreeMap<usize, u64> = BTreeMap::new();
        for i in 0..self.n() {
            if i == self.idx {
                continue;
            }
            let target_g = self.inner.global_idx(self.group, i);
            let node_id = self.peer_node(target_g).id();
            let qp = self.qp(qps, target_g);
            if let Ok(seq) = qp.read_word(self.inner.layouts[&node_id].log_seq) {
                // An alive peer whose boot generation lags its power-cycle
                // count is back up but has not reloaded its WAL into the
                // ring yet: its log_seq word still reads as wiped. Electing
                // now could adopt a log shorter than its durable one and
                // re-sequence entries it will later replay — wait instead.
                let gen = qp
                    .read_word(self.inner.layouts[&node_id].boot_gen)
                    .unwrap_or(0);
                if gen != self.peer_node(target_g).power_cycles() {
                    return; // recovering peer not ready; retry next timeout
                }
                alive += 1;
                peer_seq.insert(i, seq);
                if seq > longest.0 {
                    longest = (seq, Some(i));
                }
            }
        }
        if alive < self.majority() {
            return; // cannot take over without a majority; retry later
        }
        // 2. Fetch entries we are missing from the longest log.
        if let Some(holder) = longest.1 {
            let target_g = self.inner.global_idx(self.group, holder);
            let holder_node = self.peer_node(target_g).id();
            let holder_layout = self.inner.layouts[&holder_node];
            let qp = self.qp(qps, target_g);
            for seq in st.applied_seq..longest.0 {
                let slot = self.inner.sizes.log_slot(holder_layout, seq);
                let Ok(hdr) = qp.read(slot, LOG_HDR) else {
                    return; // holder died mid-transfer; retry next timeout
                };
                let (stamp, _, _, _, _, len) = decode_log_header(&hdr);
                if stamp != seq + 1 {
                    return; // holder's slot was overwritten; retry
                }
                let Ok(payload) = qp.read(slot.offset(LOG_HDR as u64), len) else {
                    return;
                };
                let mut entry = hdr;
                entry.extend_from_slice(&payload);
                let my_slot = self.inner.sizes.log_slot(self.layout, seq);
                self.node
                    .local_write(my_slot, &entry)
                    .expect("own log slot in range");
            }
        }
        // 3. Apply everything we now hold (delivers locally, in order).
        let adopt_to = longest.0;
        while st.applied_seq < adopt_to {
            let entry = self.read_own_log(st.applied_seq);
            st.applied_seq += 1;
            self.deliver(st, entry);
        }
        self.node
            .local_write_word(self.layout.log_seq, st.applied_seq)
            .expect("own log_seq word");
        // 4. Backfill shorter peers so the group converges.
        for (&i, &seq) in &peer_seq {
            if seq >= adopt_to {
                continue;
            }
            let target_g = self.inner.global_idx(self.group, i);
            let node_id = self.peer_node(target_g).id();
            let peer_layout = self.inner.layouts[&node_id];
            // A prefix of the adopted log may be gone from our ring: WAL
            // compaction truncated it, or a power loss wiped it and the
            // reload found it already behind the checkpoint floor. Those
            // entries exist only inside checkpoints now — advance the
            // peer's floor word so it surfaces a gap and the application
            // recovers the prefix via state transfer, then backfill the
            // entries we do hold.
            let mut from = seq;
            while from < adopt_to && !self.holds_log(from) {
                from += 1;
            }
            let qp = self.qp(qps, target_g);
            if from > seq {
                let _ = qp.post_write_word(peer_layout.log_floor, from);
            }
            // Backfilled under the new epoch so recovered peers accept.
            self.post_log_range(&qp, peer_layout, from..adopt_to, target, 1);
        }
        // 5. Assume leadership. We adopted a majority log, so any suspect
        // recovered tail was superseded; our own appends carry `target`.
        st.await_epoch = false;
        st.entry_epoch_floor = st.entry_epoch_floor.max(target);
        st.epoch = target;
        st.is_leader = true;
        st.next_seq = adopt_to;
        st.clock = st.clock.max(st.max_ts_seen) + 16;
        st.pending.clear();
        st.finalized.clear();
        for i in 0..self.n() {
            let _ = self
                .node
                .local_write_word(self.inner.sizes.ack_slot(self.layout, i), 0);
        }
        st.acks_cache = vec![0; self.n()];
        // Adopt the old leader's surviving proposals/finals for messages
        // not yet sequenced; payloads arrive again via client retries.
        let uids: Vec<u32> = st
            .props
            .keys()
            .chain(st.finals.keys())
            .copied()
            .filter(|u| !st.done.contains(u))
            .collect();
        for uid in uids {
            let myprop = st
                .props
                .get(&uid)
                .and_then(|m| m.get(&self.group.0))
                .copied();
            st.pending.entry(uid).or_insert(Pending {
                payload: None,
                mask: 0,
                myprop,
            });
        }
        st.hb_counter = 0;
        self.maybe_heartbeat(st, qps);
    }

    // ------------------------------------------------------------------
    // Control-lane writer.
    // ------------------------------------------------------------------

    /// Posts one control entry to `target` at once: a batch of one
    /// through [`Self::queue_ctrl`].
    #[allow(clippy::too_many_arguments)]
    fn write_ctrl(
        &self,
        st: &mut State,
        qps: &mut HashMap<usize, QueuePair>,
        target: usize,
        kind: CtrlKind,
        uid: u32,
        a: DestMask,
        b: u64,
        payload: &[u8],
    ) {
        let mut one = BTreeMap::new();
        self.queue_ctrl(st, qps, &mut one, target, kind, uid, a, b, payload);
        for (_, batch) in one {
            let _ = batch.post();
        }
    }

    /// Stamps and encodes one control entry for `target`'s lane and queues
    /// it into that target's [`WriteBatch`]; the caller rings one doorbell
    /// per target when the batch is complete. Stamps are consumed in queue
    /// order, so consecutive entries land in consecutive ring slots.
    #[allow(clippy::too_many_arguments)]
    fn queue_ctrl(
        &self,
        st: &mut State,
        qps: &mut HashMap<usize, QueuePair>,
        batches: &mut BTreeMap<usize, WriteBatch>,
        target: usize,
        kind: CtrlKind,
        uid: u32,
        a: DestMask,
        b: u64,
        payload: &[u8],
    ) {
        let stamp = st.ctrl_out_stamp[target];
        st.ctrl_out_stamp[target] = stamp + 1;
        let node_id = self.peer_node(target).id();
        let slot = self
            .inner
            .sizes
            .ctrl_slot(self.inner.layouts[&node_id], self.my_global, stamp);
        let buf = encode_ctrl(stamp, kind, uid, a, b, payload);
        batches
            .entry(target)
            .or_insert_with(|| self.qp(qps, target).write_batch())
            .push(slot, buf);
    }
}
