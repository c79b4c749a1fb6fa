//! Measurement from outside the program: a delegating [`StateMachine`]
//! wrapper that counts and times the application calls, and an in-memory
//! span recorder shared by the wrapper, the load generator and the run
//! loop.
//!
//! Counting is always on (plain atomics, no effect on virtual time), so the
//! virtual counters of traced and untraced runs can be compared bit for
//! bit. Host timing and spans are recorded only when tracing is on.

use bytes::Bytes;
use heron_core::{
    Execution, LocalReader, ObjectId, PartitionId, Placement, ReadSet, SnapshotStore, StateMachine,
    StorageKind,
};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A request's `(session, seq)` id.
type ReqId = (u32, u64);

/// Key of an application request in the probe's request map.
fn body_key(body: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    body.hash(&mut h);
    h.finish()
}

/// One recorded span. Host times are nanoseconds since the probe was
/// created; virtual times are simulated nanoseconds.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 = none).
    pub parent: u64,
    pub name: &'static str,
    /// The request's `(session, seq)` id; `(u32::MAX, 0)` for spans that
    /// belong to no request.
    pub req: (u32, u64),
    pub host_start: u64,
    pub host_end: u64,
    pub virt_start: u64,
    pub virt_end: u64,
}

/// Application-layer counters, read by the run loop at the window's edges.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AppCounts {
    pub exec_calls: u64,
    pub compute_ns: u64,
    pub reads: u64,
    pub exec_host_ns: u64,
}

/// Shared recorder for counters and (when tracing) spans.
pub struct Probe {
    trace: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// The `(session, seq)` id and `bench.request` span of each request
    /// sent, keyed by a hash of the request's bytes, which the application
    /// receives unmodified. Entries stay after the reply: a slow replica may
    /// execute the request later. Two requests with equal bytes share an
    /// entry, and the later one wins.
    requests: Mutex<HashMap<u64, (ReqId, u64)>>,
    exec_calls: AtomicU64,
    compute_ns: AtomicU64,
    reads: AtomicU64,
    exec_host_ns: AtomicU64,
}

impl Probe {
    pub fn new(trace: bool) -> Self {
        Probe {
            trace,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            requests: Mutex::new(HashMap::new()),
            exec_calls: AtomicU64::new(0),
            compute_ns: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            exec_host_ns: AtomicU64::new(0),
        }
    }

    /// Host nanoseconds since the probe was created.
    pub fn host_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn app_counts(&self) -> AppCounts {
        AppCounts {
            exec_calls: self.exec_calls.load(Ordering::Relaxed),
            compute_ns: self.compute_ns.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            exec_host_ns: self.exec_host_ns.load(Ordering::Relaxed),
        }
    }

    /// Records a finished span (tracing only).
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        req: (u32, u64),
        host: (u64, u64),
        virt: (u64, u64),
    ) {
        if !self.trace {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            name,
            req,
            host_start: host.0,
            host_end: host.1,
            virt_start: virt.0,
            virt_end: virt.1,
        });
    }

    /// Opens the `bench.request` span of request `req`, whose application
    /// bytes are `body` (tracing only): its id becomes the parent of the
    /// application spans the request causes.
    pub fn begin_request(&self, req: (u32, u64), body: &[u8]) -> Option<(u64, u64, u64)> {
        if !self.trace {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.requests
            .lock()
            .expect("request map poisoned")
            .insert(body_key(body), (req, id));
        Some((id, self.host_ns(), sim::now().as_nanos()))
    }

    /// Closes a span opened by [`Probe::begin_request`].
    pub fn end_request(&self, req: (u32, u64), open: Option<(u64, u64, u64)>) {
        let Some((id, host_start, virt_start)) = open else {
            return;
        };
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent: 0,
            name: "bench.request",
            req,
            host_start,
            host_end: self.host_ns(),
            virt_start,
            virt_end: sim::now().as_nanos(),
        });
    }

    /// Runs `f` as an application span of the request whose bytes are
    /// `body`. A request the generator did not send is recorded with no
    /// parent and the id `(u32::MAX, 0)`.
    fn app_span<R>(&self, name: &'static str, body: &[u8], f: impl FnOnce() -> R) -> (R, u64) {
        if !self.trace {
            return (f(), 0);
        }
        let start = self.host_ns();
        let out = f();
        let end = self.host_ns();
        let (req, parent) = self
            .requests
            .lock()
            .expect("request map poisoned")
            .get(&body_key(body))
            .copied()
            .unwrap_or(((u32::MAX, 0), 0));
        let now = sim::try_now().map_or(0, |t| t.as_nanos());
        self.record(name, parent, req, (start, end), (now, now));
        (out, end - start)
    }

    /// Takes every recorded span, in id order.
    pub fn take_spans(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span log poisoned"));
        spans.sort_unstable_by_key(|s| s.id);
        spans
    }
}

/// Self time per span name: each span's duration minus the union of the
/// intervals its children cover. Returns `(name, count, total_ns, self_ns)`
/// sorted by name.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.host_start, s.host_end));
    }
    let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64, u64)> =
        std::collections::BTreeMap::new();
    for s in spans {
        let dur = s.host_end - s.host_start;
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.host_start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.host_end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur - covered;
    }
    by_name
        .into_iter()
        .map(|(n, (c, t, s))| (n, c, t, s))
        .collect()
}

/// Writes spans as CSV (one header line, one line per span).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "id,parent,name,session,seq,host_start_ns,host_end_ns,virt_start_ns,virt_end_ns"
    )?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{},{},{},{}",
            s.id,
            s.parent,
            s.name,
            s.req.0,
            s.req.1,
            s.host_start,
            s.host_end,
            s.virt_start,
            s.virt_end
        )?;
    }
    out.flush()
}

/// Counts the local reads an execution makes.
struct CountingReader<'a> {
    inner: &'a dyn LocalReader,
    reads: Cell<u64>,
}

impl LocalReader for CountingReader<'_> {
    fn read(&self, oid: ObjectId) -> Option<Bytes> {
        self.reads.set(self.reads.get() + 1);
        self.inner.read(oid)
    }
}

/// Delegates every [`StateMachine`] method to `inner`, counting and (when
/// tracing) timing the calls the `tpcc.*` per-layer metrics and the `app.*`
/// spans need.
pub struct Probed<A> {
    pub inner: A,
    pub probe: std::sync::Arc<Probe>,
}

impl<A: StateMachine> StateMachine for Probed<A> {
    fn placement(&self, oid: ObjectId) -> Placement {
        self.inner.placement(oid)
    }

    fn storage_kind(&self, oid: ObjectId) -> StorageKind {
        self.inner.storage_kind(oid)
    }

    fn destinations(&self, request: &[u8]) -> Vec<PartitionId> {
        self.probe
            .app_span("app.destinations", request, || {
                self.inner.destinations(request)
            })
            .0
    }

    fn active_partition(&self, request: &[u8]) -> Option<PartitionId> {
        self.inner.active_partition(request)
    }

    fn read_set(&self, request: &[u8]) -> Vec<ObjectId> {
        self.inner.read_set(request)
    }

    fn conflict_keys(&self, request: &[u8]) -> Vec<u64> {
        self.inner.conflict_keys(request)
    }

    fn read_set_at(&self, partition: PartitionId, request: &[u8]) -> Vec<ObjectId> {
        self.probe
            .app_span("app.read_set_at", request, || {
                self.inner.read_set_at(partition, request)
            })
            .0
    }

    fn execute(
        &self,
        partition: PartitionId,
        request: &[u8],
        reads: &ReadSet,
        local: &dyn LocalReader,
    ) -> Execution {
        let counting = CountingReader {
            inner: local,
            reads: Cell::new(0),
        };
        let (exec, host_ns) = self.probe.app_span("app.execute", request, || {
            self.inner.execute(partition, request, reads, &counting)
        });
        let p = &self.probe;
        p.exec_calls.fetch_add(1, Ordering::Relaxed);
        p.compute_ns
            .fetch_add(exec.compute.as_nanos() as u64, Ordering::Relaxed);
        p.reads
            .fetch_add(reads.len() as u64 + counting.reads.get(), Ordering::Relaxed);
        p.exec_host_ns.fetch_add(host_ns, Ordering::Relaxed);
        exec
    }

    fn bootstrap(&self, partition: PartitionId) -> Vec<(ObjectId, Bytes)> {
        self.inner.bootstrap(partition)
    }

    fn snapshot(&self, partition: PartitionId, store: &dyn SnapshotStore) -> Vec<u8> {
        self.inner.snapshot(partition, store)
    }

    fn install(&self, partition: PartitionId, image: &[u8], store: &dyn SnapshotStore) {
        self.inner.install(partition, image, store)
    }

    fn digest(&self, partition: PartitionId, store: &dyn SnapshotStore) -> u64 {
        self.inner.digest(partition, store)
    }
}
