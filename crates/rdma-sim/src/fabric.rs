//! Nodes, registered memory, and the fabric that connects them.

use crate::error::{RdmaError, RdmaResult};
use crate::latency::LatencyModel;
use crate::pages::PageTable;
use parking_lot::{Mutex, RwLock};
use sim::{Cond, Mailbox};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a fabric node (one RDMA-capable endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// A byte address within a node's registered memory. Word-granularity verbs
/// require 8-byte alignment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

impl Addr {
    /// The address `bytes` further into the region.
    pub const fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }

    /// Whether this address may be used with word-granularity verbs.
    pub const fn is_word_aligned(self) -> bool {
        self.0.is_multiple_of(8)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// A two-sided message delivered through [`Node::recv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// The sending node.
    pub from: NodeId,
    /// Message payload. `Bytes` wraps the sender's buffer without copying
    /// and recycles it through the shim's pool on last drop, so sends do
    /// not hit the global allocator (deref to `&[u8]` to read).
    pub payload: bytes::Bytes,
}

/// Counters of fabric activity, readable at any time.
///
/// Benchmarks use these to verify protocol claims such as "the state
/// transfer protocol without data amounts to two RDMA writes".
#[derive(Debug, Default)]
pub struct FabricStats {
    /// Completed signaled reads.
    pub reads: AtomicU64,
    /// Completed signaled writes.
    pub writes: AtomicU64,
    /// Posted unsignaled writes.
    pub posted_writes: AtomicU64,
    /// Completed compare-and-swap verbs.
    pub cas_ops: AtomicU64,
    /// Two-sided sends.
    pub sends: AtomicU64,
    /// Total payload bytes fetched by reads.
    pub bytes_read: AtomicU64,
    /// Total payload bytes carried by (posted or signaled) writes.
    pub bytes_written: AtomicU64,
    /// Doorbell rings: one per individually posted verb, one per
    /// [`crate::WriteBatch`] regardless of how many writes it carries.
    /// `posted_writes / doorbells` is the achieved batching factor.
    pub doorbells: AtomicU64,
}

impl FabricStats {
    /// Snapshot of `(reads, writes incl. posted, sends)`.
    pub fn op_counts(&self) -> (u64, u64, u64) {
        (
            self.reads.load(Ordering::Relaxed),
            self.writes.load(Ordering::Relaxed) + self.posted_writes.load(Ordering::Relaxed),
            self.sends.load(Ordering::Relaxed),
        )
    }
}

/// Page size of registered memory, bytes.
pub(crate) const PAGE: usize = 4096;

/// A node's registered memory: `brk` bytes of address space over a page
/// table whose pages are allocated on the first write that stores a
/// nonzero byte in them. A page never written reads as zeros, so
/// registering memory costs no host memory until the run uses it.
pub(crate) struct Memory {
    pages: PageTable<u8, PAGE>,
    brk: usize,
}

impl Memory {
    /// Appends the `len` bytes at byte `start` to `out`. The caller has
    /// bounds-checked the range.
    fn read_into(&self, start: usize, len: usize, out: &mut Vec<u8>) {
        let mut at = start;
        while at < start + len {
            let (i, off) = (at / PAGE, at % PAGE);
            let n = (PAGE - off).min(start + len - at);
            match self.pages.page(i) {
                Some(page) => out.extend_from_slice(&page[off..off + n]),
                None => out.resize(out.len() + n, 0),
            }
            at += n;
        }
    }

    /// Writes `data` at byte `start`. The caller has bounds-checked the
    /// range. Zeros written to an unbacked page leave it unbacked.
    fn write(&mut self, start: usize, data: &[u8]) {
        let (mut at, mut rest) = (start, data);
        while !rest.is_empty() {
            let (i, off) = (at / PAGE, at % PAGE);
            let (now, later) = rest.split_at((PAGE - off).min(rest.len()));
            if self.pages.is_resident(i) || now.iter().any(|&b| b != 0) {
                self.pages.page_mut(i, &0)[off..off + now.len()].copy_from_slice(now);
            }
            at += now.len();
            rest = later;
        }
    }

    /// The 8-byte word at byte `start`, read in place. The caller has
    /// bounds-checked the range; word alignment keeps it within one page.
    fn read_word(&self, start: usize) -> u64 {
        let (i, off) = (start / PAGE, start % PAGE);
        self.pages.page(i).map_or(0, |page| {
            u64::from_le_bytes(page[off..off + 8].try_into().expect("8 bytes"))
        })
    }

    /// Atomic compare-and-swap of the 8-byte word at byte `start`
    /// (bounds-checked and word-aligned). Returns the previous value.
    pub(crate) fn compare_and_swap(&mut self, start: usize, expected: u64, new: u64) -> u64 {
        let old = self.read_word(start);
        if old == expected && old != new {
            let (i, off) = (start / PAGE, start % PAGE);
            self.pages.page_mut(i, &0)[off..off + 8].copy_from_slice(&new.to_le_bytes());
        }
        old
    }
}

pub(crate) struct NodeInner {
    pub(crate) id: NodeId,
    pub(crate) name: String,
    pub(crate) mem: Mutex<Memory>,
    pub(crate) alive: AtomicBool,
    /// Incremented on every recovery; lets colocated processes detect that
    /// the node was crashed and revived while they were parked.
    pub(crate) incarnation: AtomicU64,
    /// Incremented on every [`Fabric::power_loss`]; lets colocated
    /// processes distinguish a memory-wiping power loss (cold restart
    /// required) from a plain crash (memory preserved).
    pub(crate) power_cycles: AtomicU64,
    /// Notified whenever a remote write lands in this node's memory; local
    /// processes block on it instead of busy-polling.
    pub(crate) mem_cond: Cond,
    pub(crate) inbox: Mailbox<Message>,
}

impl NodeInner {
    pub(crate) fn check_range(&self, mem: &Memory, addr: Addr, len: usize) -> RdmaResult<()> {
        match (addr.0 as usize).checked_add(len) {
            Some(end) if end <= mem.brk => Ok(()),
            _ => Err(RdmaError::OutOfBounds),
        }
    }
}

pub(crate) struct FabricInner {
    pub(crate) latency: LatencyModel,
    pub(crate) nodes: RwLock<Vec<Arc<NodeInner>>>,
    pub(crate) stats: FabricStats,
    /// Per directed (src, dst) pair: virtual arrival time of the last
    /// operation, enforcing the in-order delivery of RC transport. Dense
    /// matrix (grown on demand) so the per-verb lookup is two index
    /// multiplies instead of a hash.
    pub(crate) link_clock: Mutex<LinkClocks>,
    /// Set once a [`crate::FaultPlan`] with verb-level faults is armed;
    /// lets the verb hot path skip the fault lock entirely when no plan is
    /// installed, keeping fault-free runs bit-identical and cheap.
    pub(crate) faults_on: AtomicBool,
    pub(crate) faults: Mutex<Option<crate::faults::FaultRuntime>>,
    /// Set by [`Fabric::enable_race_detector`]; same pattern as
    /// `faults_on` — detector-off memory accesses cost one relaxed load.
    pub(crate) tsan_on: AtomicBool,
    pub(crate) tsan: Mutex<Option<Arc<crate::tsan::TsanState>>>,
    /// Unsignaled writes posted but not yet landed, fabric-wide: the value
    /// behind the profiler's `qp.sendq` occupancy gauge.
    pub(crate) posted_inflight: AtomicU64,
    /// The `qp.sendq` occupancy gauge, registered once per fabric on the
    /// first profiled post (posting is far too hot for a per-call
    /// name lookup).
    pub(crate) sendq_gauge: std::sync::OnceLock<sim::prof::Gauge>,
}

/// Busy-until times of every directed link, stored as a dense `n × n`
/// matrix indexed by node ids. The matrix grows (with re-indexing) the
/// first time a node id beyond the current bound appears; after that,
/// every lookup is a multiply and an add.
#[derive(Default)]
pub(crate) struct LinkClocks {
    n: usize,
    clocks: Vec<u64>,
}

impl LinkClocks {
    /// Mutable busy-until slot for the `src → dst` link.
    fn slot(&mut self, src: NodeId, dst: NodeId) -> &mut u64 {
        let need = (src.0.max(dst.0) as usize) + 1;
        if need > self.n {
            let new_n = need.next_power_of_two().max(4);
            let mut grown = vec![0u64; new_n * new_n];
            for s in 0..self.n {
                grown[s * new_n..s * new_n + self.n]
                    .copy_from_slice(&self.clocks[s * self.n..(s + 1) * self.n]);
            }
            self.n = new_n;
            self.clocks = grown;
        }
        &mut self.clocks[src.0 as usize * self.n + dst.0 as usize]
    }
}

impl FabricInner {
    /// Arrival time of a `bytes`-sized op posted now on the `src → dst`
    /// link. Models store-and-forward serialization: the link transmits
    /// one op at a time at link bandwidth, so back-to-back bulk writes
    /// queue behind each other; propagation is added after transmission.
    /// This also yields RC's in-order delivery.
    pub(crate) fn fifo_arrival(&self, src: NodeId, dst: NodeId, now: u64, bytes: usize) -> u64 {
        let ser = (bytes as u64 * self.latency.ns_per_kib) / 1024;
        let mut clocks = self.link_clock.lock();
        let link_free = clocks.slot(src, dst);
        let send_end = now.max(*link_free) + ser;
        *link_free = send_end;
        send_end + self.latency.one_way_ns
    }

    /// Consults the armed fault plan (if any) about a verb `node` is about
    /// to issue at `now_ns`. Without a plan this is a single relaxed load.
    pub(crate) fn verb_fate(&self, node: NodeId, now_ns: u64) -> crate::faults::VerbFate {
        if !self.faults_on.load(Ordering::Relaxed) {
            return crate::faults::VerbFate::Proceed {
                stall_ns: 0,
                slow: 1,
            };
        }
        match self.faults.lock().as_mut() {
            Some(runtime) => runtime.verb_fate(node, now_ns),
            None => crate::faults::VerbFate::Proceed {
                stall_ns: 0,
                slow: 1,
            },
        }
    }

    /// The enabled race detector state, or `None`. One relaxed load when
    /// the detector is off.
    pub(crate) fn tsan(&self) -> Option<Arc<crate::tsan::TsanState>> {
        if !self.tsan_on.load(Ordering::Relaxed) {
            return None;
        }
        self.tsan.lock().clone()
    }
}

/// The shared-memory fabric: a set of nodes connected by RDMA.
#[derive(Clone)]
pub struct Fabric {
    pub(crate) inner: Arc<FabricInner>,
}

impl fmt::Debug for Fabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fabric")
            .field("nodes", &self.inner.nodes.read().len())
            .field("latency", &self.inner.latency)
            .finish()
    }
}

impl Fabric {
    /// Creates a fabric with the given latency model.
    pub fn new(latency: LatencyModel) -> Self {
        Fabric {
            inner: Arc::new(FabricInner {
                latency,
                nodes: RwLock::new(Vec::new()),
                stats: FabricStats::default(),
                link_clock: Mutex::new(LinkClocks::default()),
                faults_on: AtomicBool::new(false),
                faults: Mutex::new(None),
                tsan_on: AtomicBool::new(false),
                tsan: Mutex::new(None),
                posted_inflight: AtomicU64::new(0),
                sendq_gauge: std::sync::OnceLock::new(),
            }),
        }
    }

    /// Turns on the Sim-TSan race detector for every node on this fabric
    /// and returns a handle to its reports. Idempotent: repeated calls
    /// return handles to the same state. See [`crate::tsan`] for the
    /// memory model.
    pub fn enable_race_detector(&self) -> crate::RaceDetector {
        let state = {
            let mut guard = self.inner.tsan.lock();
            Arc::clone(guard.get_or_insert_with(|| Arc::new(crate::tsan::TsanState::new())))
        };
        self.inner.tsan_on.store(true, Ordering::SeqCst);
        crate::RaceDetector { state }
    }

    /// The enabled race detector, if any.
    pub fn race_detector(&self) -> Option<crate::RaceDetector> {
        if !self.inner.tsan_on.load(Ordering::Relaxed) {
            return None;
        }
        self.inner
            .tsan
            .lock()
            .as_ref()
            .map(|state| crate::RaceDetector {
                state: Arc::clone(state),
            })
    }

    /// Registers a new node (endpoint) on the fabric.
    pub fn add_node(&self, name: impl Into<String>) -> Node {
        let mut nodes = self.inner.nodes.write();
        let id = NodeId(nodes.len() as u32);
        // The inbox shares the node's memory condition so one wait point
        // covers both one-sided writes landing and two-sided messages.
        let mem_cond = Cond::labeled("rdma.mem");
        let inner = Arc::new(NodeInner {
            id,
            name: name.into(),
            mem: Mutex::new(Memory {
                pages: PageTable::new(),
                brk: 0,
            }),
            alive: AtomicBool::new(true),
            incarnation: AtomicU64::new(0),
            power_cycles: AtomicU64::new(0),
            inbox: Mailbox::with_cond(mem_cond.clone()),
            mem_cond,
        });
        nodes.push(Arc::clone(&inner));
        Node {
            inner,
            fabric: Arc::clone(&self.inner),
        }
    }

    /// Returns a handle to an existing node.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never returned by [`Fabric::add_node`].
    pub fn node(&self, id: NodeId) -> Node {
        let nodes = self.inner.nodes.read();
        Node {
            inner: Arc::clone(&nodes[id.0 as usize]),
            fabric: Arc::clone(&self.inner),
        }
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.inner.nodes.read().len()
    }

    /// Whether the fabric has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Marks a node crashed: signaled verbs against it fail with
    /// [`RdmaError::RemoteFailure`], unsignaled writes and sends to it are
    /// dropped. Its registered memory is preserved.
    pub fn crash(&self, id: NodeId) {
        self.inner.nodes.read()[id.0 as usize]
            .alive
            .store(false, Ordering::SeqCst);
    }

    /// Crashes a node *and wipes its registered memory*: every page is
    /// freed, so every byte reads as zero, modeling a power loss that
    /// destroys volatile DRAM. The allocation map (`brk`) is preserved, so
    /// addresses handed out before the loss stay valid — they just read as
    /// zeros until rewritten.
    /// Durable state must live in [`sim::storage`] to survive this.
    pub fn power_loss(&self, id: NodeId) {
        let node = &self.inner.nodes.read()[id.0 as usize];
        node.alive.store(false, Ordering::SeqCst);
        node.power_cycles.fetch_add(1, Ordering::SeqCst);
        node.mem.lock().pages.clear();
    }

    /// Brings a crashed node back. Its memory is as it was at crash time
    /// (Heron treats such a replica as a lagger and state-transfers it).
    pub fn recover(&self, id: NodeId) {
        let node = &self.inner.nodes.read()[id.0 as usize];
        node.incarnation.fetch_add(1, Ordering::SeqCst);
        node.alive.store(true, Ordering::SeqCst);
        // Wake local pollers so colocated processes notice the recovery.
        node.mem_cond.notify_all();
    }

    /// Whether the node is currently alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.inner.nodes.read()[id.0 as usize]
            .alive
            .load(Ordering::SeqCst)
    }

    /// Fabric-wide operation counters.
    pub fn stats(&self) -> &FabricStats {
        &self.inner.stats
    }

    /// The latency model in force.
    pub fn latency(&self) -> LatencyModel {
        self.inner.latency
    }
}

/// A handle to one fabric node. Cloneable; clones refer to the same node.
#[derive(Clone)]
pub struct Node {
    pub(crate) inner: Arc<NodeInner>,
    pub(crate) fabric: Arc<FabricInner>,
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.inner.id)
            .field("name", &self.inner.name)
            .field("alive", &self.inner.alive.load(Ordering::SeqCst))
            .finish()
    }
}

impl Node {
    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.inner.id
    }

    /// The name given at registration.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Whether this node is alive.
    pub fn is_alive(&self) -> bool {
        self.inner.alive.load(Ordering::SeqCst)
    }

    /// How many times this node has been recovered. A process that caches
    /// this value can detect a crash/recovery cycle that happened entirely
    /// while it was blocked.
    pub fn incarnation(&self) -> u64 {
        self.inner.incarnation.load(Ordering::SeqCst)
    }

    /// How many times this node has lost power ([`Fabric::power_loss`]).
    /// Compared against a cached value, distinguishes "crashed with memory
    /// intact" (recover warm) from "memory wiped" (must cold-restart from
    /// durable storage).
    pub fn power_cycles(&self) -> u64 {
        self.inner.power_cycles.load(Ordering::SeqCst)
    }

    /// Registers `bytes` of RDMA-accessible memory (zero-initialized,
    /// rounded up to whole words) and returns its base address.
    pub fn alloc_bytes(&self, bytes: usize) -> Addr {
        let words = bytes.div_ceil(8);
        let mut mem = self.inner.mem.lock();
        let base = mem.brk;
        mem.brk += words * 8;
        let brk = mem.brk;
        mem.pages.cover(brk);
        Addr(base as u64)
    }

    /// Host bytes backing this node's registered memory: its allocated
    /// 4 KiB pages. Deterministic for a schedule, unlike RSS.
    pub fn resident_bytes(&self) -> usize {
        self.inner.mem.lock().pages.resident_pages() * PAGE
    }

    /// Bytes of registered memory (the allocation map's `brk`).
    pub fn registered_bytes(&self) -> usize {
        self.inner.mem.lock().brk
    }

    /// Registers `words` 8-byte words of RDMA-accessible memory.
    pub fn alloc_words(&self, words: usize) -> Addr {
        self.alloc_bytes(words * 8)
    }

    /// Opens a reliable-connection queue pair from this node to `remote`.
    pub fn connect(&self, remote: &Node) -> crate::QueuePair {
        crate::QueuePair::new(self.clone(), remote.clone())
    }

    // ---- local (zero-latency) access to this node's own memory ----

    /// Reads bytes from this node's own registered memory.
    ///
    /// For the race detector, a local read is an *acquire*: polling one's
    /// own RDMA-visible memory is how Heron processes observe remote
    /// writes, so the reader inherits the writers' clocks. Local reads are
    /// never themselves race-checked.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if the range is outside registered memory.
    pub fn local_read(&self, addr: Addr, len: usize) -> RdmaResult<Vec<u8>> {
        let data = self.read_raw(addr, len)?;
        if let Some(tsan) = self.fabric.tsan() {
            tsan.on_local_read(self, addr, len);
        }
        Ok(data)
    }

    /// The uninstrumented read: used by remote (one-sided) reads, which
    /// must *not* acquire — they are exactly the accesses being checked.
    pub(crate) fn read_raw(&self, addr: Addr, len: usize) -> RdmaResult<Vec<u8>> {
        let mem = self.inner.mem.lock();
        self.inner.check_range(&mem, addr, len)?;
        // Reuse a pooled buffer (message payloads recycle through the
        // same pool) instead of allocating per read.
        let mut out = bytes::take_buf();
        mem.read_into(addr.0 as usize, len, &mut out);
        Ok(out)
    }

    /// Reads one 8-byte word from this node's own memory.
    ///
    /// # Errors
    ///
    /// [`RdmaError::Misaligned`] or [`RdmaError::OutOfBounds`].
    pub fn local_read_word(&self, addr: Addr) -> RdmaResult<u64> {
        if !addr.is_word_aligned() {
            return Err(RdmaError::Misaligned);
        }
        // Polling loops read words far more often than anything else:
        // read in place instead of through a buffer. Same acquire as
        // `local_read`.
        let value = {
            let mem = self.inner.mem.lock();
            self.inner.check_range(&mem, addr, 8)?;
            mem.read_word(addr.0 as usize)
        };
        if let Some(tsan) = self.fabric.tsan() {
            tsan.on_local_read(self, addr, 8);
        }
        Ok(value)
    }

    /// Writes bytes into this node's own registered memory.
    ///
    /// # Errors
    ///
    /// [`RdmaError::OutOfBounds`] if the range is outside registered memory.
    pub fn local_write(&self, addr: Addr, data: &[u8]) -> RdmaResult<()> {
        self.write_instrumented(addr, data, "local-write")
    }

    /// Write with an explicit operation label for race reports (signaled
    /// RDMA writes land through here as `"rdma-write"`).
    pub(crate) fn write_instrumented(
        &self,
        addr: Addr,
        data: &[u8],
        op: &'static str,
    ) -> RdmaResult<()> {
        self.write_raw(addr, data)?;
        if let Some(tsan) = self.fabric.tsan() {
            let ticket = crate::tsan::Epoch::capture(op);
            let now_ns = sim::try_now().map(|t| t.as_nanos()).unwrap_or(0);
            tsan.on_write(self, addr, data.len(), &ticket, now_ns);
        }
        Ok(())
    }

    /// The uninstrumented write. Event-context landings (unsignaled
    /// writes, batches) use this and commit their captured ticket to the
    /// shadow state themselves.
    pub(crate) fn write_raw(&self, addr: Addr, data: &[u8]) -> RdmaResult<()> {
        {
            let mut mem = self.inner.mem.lock();
            self.inner.check_range(&mem, addr, data.len())?;
            mem.write(addr.0 as usize, data);
        }
        self.inner.mem_cond.notify_all();
        Ok(())
    }

    /// Writes one 8-byte word into this node's own memory.
    ///
    /// # Errors
    ///
    /// [`RdmaError::Misaligned`] or [`RdmaError::OutOfBounds`].
    pub fn local_write_word(&self, addr: Addr, value: u64) -> RdmaResult<()> {
        if !addr.is_word_aligned() {
            return Err(RdmaError::Misaligned);
        }
        self.local_write(addr, &value.to_le_bytes())
    }

    /// Tells the race detector what protocol role the byte range plays
    /// (see [`crate::RegionKind`]). Recorded even before
    /// [`Fabric::enable_race_detector`] is called, so annotation order
    /// does not matter; a no-op burden-wise when the detector never runs.
    pub fn annotate_region(
        &self,
        addr: Addr,
        len: usize,
        kind: crate::RegionKind,
        label: impl Into<String>,
    ) {
        let state = {
            let mut guard = self.fabric.tsan.lock();
            Arc::clone(guard.get_or_insert_with(|| Arc::new(crate::tsan::TsanState::new())))
        };
        state.annotate(self, addr, len, kind, label.into());
    }

    /// The condition notified whenever a remote write lands in this node's
    /// memory. A process polling RDMA-visible memory (e.g. Heron's
    /// coordination memory) blocks here instead of spinning.
    pub fn mem_cond(&self) -> &Cond {
        &self.inner.mem_cond
    }

    /// Blocks the calling process until `pred()` is true, re-checking after
    /// every remote write into this node's memory.
    pub fn poll_until(&self, pred: impl FnMut() -> bool) {
        let mut pred = pred;
        self.inner.mem_cond.wait_while(|| !pred());
    }

    /// Like [`Node::poll_until`] with a virtual-time timeout. Returns `true`
    /// if the predicate turned true before the deadline.
    pub fn poll_until_timeout(
        &self,
        pred: impl FnMut() -> bool,
        timeout: std::time::Duration,
    ) -> bool {
        let mut pred = pred;
        self.inner.mem_cond.wait_while_timeout(|| !pred(), timeout)
    }

    // ---- two-sided ----

    /// Blocks until a two-sided message arrives.
    pub fn recv(&self) -> Message {
        self.inbox_recv()
    }

    /// Blocks until a message arrives or the timeout elapses.
    ///
    /// # Errors
    ///
    /// Returns [`sim::RecvTimeoutError`] on timeout.
    pub fn recv_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> Result<Message, sim::RecvTimeoutError> {
        self.inner.inbox.recv_timeout(timeout)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Message> {
        self.inner.inbox.try_recv()
    }

    /// Number of two-sided messages waiting in the receive queue.
    pub fn pending_messages(&self) -> usize {
        self.inner.inbox.len()
    }

    fn inbox_recv(&self) -> Message {
        self.inner.inbox.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_word_aligned_and_grows() {
        let fabric = Fabric::new(LatencyModel::zero());
        let n = fabric.add_node("n");
        let a = n.alloc_bytes(3);
        let b = n.alloc_bytes(16);
        let c = n.alloc_words(2);
        assert_eq!(a, Addr(0));
        assert_eq!(b, Addr(8)); // 3 bytes rounded to one word
        assert_eq!(c, Addr(24));
        assert!(a.is_word_aligned() && b.is_word_aligned() && c.is_word_aligned());
    }

    #[test]
    fn local_read_write_round_trips() {
        let fabric = Fabric::new(LatencyModel::zero());
        let n = fabric.add_node("n");
        let addr = n.alloc_bytes(32);
        n.local_write(addr, b"hello rdma").unwrap();
        assert_eq!(n.local_read(addr, 10).unwrap(), b"hello rdma");
        n.local_write_word(addr.offset(16), 0xDEAD_BEEF).unwrap();
        assert_eq!(n.local_read_word(addr.offset(16)).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn out_of_bounds_and_misalignment_are_errors() {
        let fabric = Fabric::new(LatencyModel::zero());
        let n = fabric.add_node("n");
        let addr = n.alloc_bytes(8);
        assert_eq!(n.local_read(addr, 9).unwrap_err(), RdmaError::OutOfBounds);
        assert_eq!(
            n.local_read_word(addr.offset(4)).unwrap_err(),
            RdmaError::Misaligned
        );
        assert_eq!(
            n.local_write(Addr(1 << 40), b"x").unwrap_err(),
            RdmaError::OutOfBounds
        );
    }

    #[test]
    fn crash_and_recover_toggle_liveness() {
        let fabric = Fabric::new(LatencyModel::zero());
        let n = fabric.add_node("n");
        assert!(fabric.is_alive(n.id()));
        fabric.crash(n.id());
        assert!(!fabric.is_alive(n.id()));
        assert!(!n.is_alive());
        fabric.recover(n.id());
        assert!(n.is_alive());
    }

    #[test]
    fn node_lookup_by_id() {
        let fabric = Fabric::new(LatencyModel::zero());
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        assert_eq!(fabric.node(a.id()).name(), "a");
        assert_eq!(fabric.node(b.id()).name(), "b");
        assert_eq!(fabric.len(), 2);
    }

    #[test]
    fn power_loss_wipes_memory_but_preserves_layout() {
        let fabric = Fabric::new(LatencyModel::zero());
        let n = fabric.add_node("n");
        let addr = n.alloc_bytes(16);
        n.local_write_word(addr, 42).unwrap();
        n.local_write_word(addr.offset(8), 7).unwrap();
        assert_eq!(n.power_cycles(), 0);
        fabric.power_loss(n.id());
        assert!(!n.is_alive());
        assert_eq!(n.power_cycles(), 1);
        fabric.recover(n.id());
        assert!(n.is_alive());
        // Addresses stay valid but contents are gone.
        assert_eq!(n.local_read_word(addr).unwrap(), 0);
        assert_eq!(n.local_read_word(addr.offset(8)).unwrap(), 0);
        // New allocations continue past the preserved brk.
        assert_eq!(n.alloc_bytes(8), addr.offset(16));
    }

    #[test]
    fn memory_survives_crash() {
        let fabric = Fabric::new(LatencyModel::zero());
        let n = fabric.add_node("n");
        let addr = n.alloc_bytes(8);
        n.local_write_word(addr, 42).unwrap();
        fabric.crash(n.id());
        fabric.recover(n.id());
        assert_eq!(n.local_read_word(addr).unwrap(), 42);
    }

    #[test]
    fn dropping_a_simulation_with_writes_in_flight_frees_the_fabric() {
        let simulation = sim::Simulation::new(1);
        let fabric = Fabric::new(LatencyModel::connectx4());
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let addr = b.alloc_words(1);
        let b2 = b.clone();
        // The poller's waiter on `b`'s memory condition holds the kernel,
        // and the queued landing of the write (posted at 150 ns, landing
        // after 1 µs) holds `b`.
        simulation.spawn("poller", move || b2.poll_until(|| false));
        simulation.spawn("writer", move || {
            a.connect(&b).post_write_word(addr, 1).unwrap();
        });
        simulation.run_until(sim::SimTime::from_nanos(500)).unwrap();
        let fabric_ref = Arc::downgrade(&fabric.inner);
        drop(fabric);
        drop(simulation);
        assert!(
            fabric_ref.upgrade().is_none(),
            "the fabric outlived its simulation"
        );
    }

    // ---- paged memory ----

    #[test]
    fn reads_and_writes_straddle_page_boundaries() {
        let fabric = Fabric::new(LatencyModel::zero());
        let n = fabric.add_node("n");
        let base = n.alloc_bytes(3 * PAGE);
        // 3 bytes before the first boundary, a whole page, 5 bytes after.
        let at = base.offset(PAGE as u64 - 3);
        let data: Vec<u8> = (0..PAGE + 8).map(|i| (i % 251 + 1) as u8).collect();
        n.local_write(at, &data).unwrap();
        assert_eq!(n.resident_bytes(), 3 * PAGE);
        assert_eq!(n.local_read(at, data.len()).unwrap(), data);
        // Bytes around the written range are still zero.
        assert_eq!(n.local_read(base, PAGE - 3).unwrap(), vec![0; PAGE - 3]);
        let after = at.offset(data.len() as u64);
        assert_eq!(n.local_read(after, 8).unwrap(), vec![0; 8]);
    }

    #[test]
    fn write_batch_lands_across_pages() {
        let simulation = sim::Simulation::new(1);
        let fabric = Fabric::new(LatencyModel::connectx4());
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let base = b.alloc_bytes(2 * PAGE);
        let entry = base.offset(PAGE as u64 - 16);
        let b2 = b.clone();
        simulation.spawn("writer", move || {
            let qp = a.connect(&b2);
            let mut batch = qp.write_batch();
            // One entry straddling the boundary, one word on each page.
            batch.push(entry, vec![7; 32]);
            batch.push_word(base, 1).unwrap();
            batch
                .push_word(base.offset(2 * PAGE as u64 - 8), 2)
                .unwrap();
            batch.post().unwrap();
            b2.poll_until(|| b2.local_read_word(base).unwrap() == 1);
        });
        simulation.run().unwrap();
        assert_eq!(b.local_read(entry, 32).unwrap(), vec![7; 32]);
        assert_eq!(b.local_read_word(base).unwrap(), 1);
        assert_eq!(
            b.local_read_word(base.offset(2 * PAGE as u64 - 8)).unwrap(),
            2
        );
        assert_eq!(b.resident_bytes(), 2 * PAGE);
    }

    #[test]
    fn unbacked_pages_read_as_zeros_through_every_verb() {
        let simulation = sim::Simulation::new(1);
        let fabric = Fabric::new(LatencyModel::connectx4());
        let a = fabric.add_node("a");
        let b = fabric.add_node("b");
        let base = b.alloc_bytes(4 * PAGE);
        assert_eq!(b.resident_bytes(), 0, "registering allocates no page");
        assert_eq!(b.local_read(base, 4 * PAGE).unwrap(), vec![0; 4 * PAGE]);
        let word = base.offset(2 * PAGE as u64 + 64);
        let b2 = b.clone();
        simulation.spawn("reader", move || {
            let qp = a.connect(&b2);
            assert_eq!(
                qp.read(base.offset(PAGE as u64 - 4), 8).unwrap(),
                vec![0; 8]
            );
            assert_eq!(qp.read_word(word).unwrap(), 0);
            // A failing CAS reads the unbacked word as 0 and allocates
            // nothing...
            assert_eq!(qp.compare_and_swap(word, 5, 9).unwrap(), 0);
            assert_eq!(b2.resident_bytes(), 0);
            // ...a CAS against expected = 0 succeeds on a never-written
            // word.
            assert_eq!(qp.compare_and_swap(word, 0, 9).unwrap(), 0);
            assert_eq!(qp.read_word(word).unwrap(), 9);
        });
        simulation.run().unwrap();
        assert_eq!(b.local_read_word(word).unwrap(), 9);
        assert_eq!(b.resident_bytes(), PAGE);
        // Writing zeros to an unbacked page leaves it unbacked.
        b.local_write(base, &[0; 64]).unwrap();
        assert_eq!(b.resident_bytes(), PAGE);
    }

    #[test]
    fn bounds_follow_brk_not_the_page_end() {
        let fabric = Fabric::new(LatencyModel::zero());
        let n = fabric.add_node("n");
        let addr = n.alloc_bytes(8);
        n.local_write_word(addr, 1).unwrap();
        // The page is 4 KiB, but only 8 bytes are registered.
        assert_eq!(n.resident_bytes(), PAGE);
        assert_eq!(n.local_read(addr, 9).unwrap_err(), RdmaError::OutOfBounds);
        assert_eq!(
            n.local_write(addr.offset(8), b"x").unwrap_err(),
            RdmaError::OutOfBounds
        );
        assert_eq!(
            n.local_read(Addr(u64::MAX), 1).unwrap_err(),
            RdmaError::OutOfBounds
        );
    }

    #[test]
    fn power_loss_frees_pages_and_keeps_brk() {
        let fabric = Fabric::new(LatencyModel::zero());
        let n = fabric.add_node("n");
        let addr = n.alloc_bytes(2 * PAGE);
        n.local_write(addr.offset(PAGE as u64 - 4), &[1; 8])
            .unwrap();
        assert_eq!(n.resident_bytes(), 2 * PAGE);
        fabric.power_loss(n.id());
        assert_eq!(n.resident_bytes(), 0);
        fabric.recover(n.id());
        assert_eq!(n.local_read(addr, 2 * PAGE).unwrap(), vec![0; 2 * PAGE]);
        assert_eq!(n.alloc_bytes(8), addr.offset(2 * PAGE as u64));
    }
}
