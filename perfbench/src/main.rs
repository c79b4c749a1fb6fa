//! One sub-run of one benchmark workload on the unmodified Heron program.
//!
//! ```text
//! heron-perfbench --workload <tpcc-4p|ordering-4p|failover-4p> --seed <n>
//!                 [--trace <spans.csv>] [--corrupt]
//! ```
//!
//! Builds the deployment with `HeronConfig::new(4, 3)` defaults — only the
//! shape (partitions, replicas, clients) is set — drives it through a
//! warm-up, the measurement window and a drain, checks that the replicas of
//! every partition agree, and prints one JSON object with the sub-run's
//! `virtual` metrics (deterministic for a seed), its `host` measurements and
//! its check verdict (`correct`, `failures`). `--trace` records spans from
//! the benchmark's own code and writes them to the given CSV file. Exits 1
//! when a check fails.
//! `run.py` runs this program once per sub-run and aggregates the results.

mod probe;
mod procfs;

use heron_bench::{Json, NullApp};
use heron_core::{HeronCluster, HeronConfig, Metrics, PartitionId, StateMachine};
use probe::{AppCounts, Probe, Probed};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use rdma_sim::{Fabric, FabricStats, LatencyModel};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tpcc::{TpccApp, TpccGen, TpccScale};

const PARTITIONS: usize = 4;
const REPLICAS: usize = 3;
/// Client sessions: closed-loop clients, or the open loop's session pool.
const SESSIONS: usize = 16;
/// Latency limit behind `slo_ok_frac`.
const SLO_NS: u64 = 1_000_000;
/// The run loop advances virtual time in slices of this length, the same in
/// traced and untraced runs, so both execute the same schedule.
const SLICE_NS: u64 = 1_000_000;
const MS: u64 = 1_000_000;
/// Sentinel for "not yet" in request records.
const NONE: u64 = u64::MAX;

#[derive(Clone, Copy, PartialEq, Eq)]
enum App {
    Tpcc,
    Null,
}

#[derive(Clone, Copy)]
enum Load {
    /// Each session sends its next request when the previous one returns.
    Closed,
    /// Poisson arrivals at this mean rate, served by the session pool.
    Open { per_sec: f64 },
}

struct Spec {
    name: &'static str,
    app: App,
    load: Load,
    warmup_ms: u64,
    window_ms: u64,
    drain_ms: u64,
    /// Virtual ms at which partition 0's ordering leader (replica 0)
    /// crashes, and at which it recovers.
    fault: Option<(u64, u64)>,
}

// Why each workload exists is recorded in `predictions.json`.
const WORKLOADS: [Spec; 3] = [
    // The paper's headline: coordination, remote reads and execution work.
    Spec {
        name: "tpcc-4p",
        app: App::Tpcc,
        load: Load::Closed,
        warmup_ms: 2,
        window_ms: 12,
        drain_ms: 2,
        fault: None,
    },
    // Same shape, null requests: only ordering and the kernel work.
    Spec {
        name: "ordering-4p",
        app: App::Null,
        load: Load::Closed,
        warmup_ms: 2,
        window_ms: 12,
        drain_ms: 2,
        fault: None,
    },
    // The only workload where election, client retry and state transfer run.
    Spec {
        name: "failover-4p",
        app: App::Tpcc,
        load: Load::Open { per_sec: 80_000.0 },
        warmup_ms: 5,
        window_ms: 45,
        drain_ms: 10,
        fault: Some((10, 35)),
    },
];

/// One request as the load generator saw it (virtual ns).
#[derive(Clone, Copy)]
struct Req {
    due: u64,
    start: u64,
    end: u64,
    p0: bool,
    multi: bool,
    /// The reply had the shape the application promises.
    reply_ok: bool,
}

impl Req {
    fn due_at(due: u64, dests: &[PartitionId]) -> Req {
        Req {
            due,
            start: NONE,
            end: NONE,
            p0: dests.contains(&PartitionId(0)),
            multi: dests.len() > 1,
            reply_ok: false,
        }
    }
}

/// One open-loop arrival: due time, destinations, application request.
struct Arrival {
    due: u64,
    dests: Vec<PartitionId>,
    body: Vec<u8>,
}

struct Args {
    spec: &'static Spec,
    seed: u64,
    /// Tracing on, with the spans written to this file.
    trace: Option<std::path::PathBuf>,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut trace, mut corrupt) = (None, None, None, false);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => workload = it.next(),
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = Some(v.parse::<u64>().map_err(|e| format!("--seed {v}: {e}"))?);
            }
            "--trace" => trace = Some(it.next().ok_or("--trace needs a file")?.into()),
            "--corrupt" => corrupt = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = WORKLOADS
        .iter()
        .find(|s| s.name == workload)
        .ok_or(format!("unknown workload {workload}"))?;
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        trace,
        corrupt,
    })
}

/// Independent, reproducible stream `k` of the workload seed.
fn stream(seed: u64, k: u64) -> u64 {
    let mut r = SmallRng::seed_from_u64(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    r.next_u64()
}

fn tpcc_gen(seed: u64, k: u64) -> TpccGen {
    TpccGen::new(TpccScale::bench(), PARTITIONS as u16, stream(seed, k))
}

fn dests_of(txn: &tpcc::Transaction) -> Vec<PartitionId> {
    let mut d: Vec<PartitionId> = txn
        .warehouses()
        .into_iter()
        .map(|w| PartitionId((w - 1) % PARTITIONS as u16))
        .collect();
    d.sort_unstable();
    d.dedup();
    d
}

/// One client session of the load generator.
struct Session {
    id: u32,
    client: heron_core::HeronClient,
    app: App,
    probe: Arc<Probe>,
    records: Records,
}

impl Session {
    /// Sends one request and records it in `records[idx]`.
    fn send(&mut self, idx: usize, dests: &[PartitionId], body: &[u8]) {
        let req = (self.id, self.client.seq() + 1);
        self.records.lock().expect("records poisoned")[idx].start = sim::now().as_nanos();
        let span = self.probe.begin_request(req, body);
        let reply_ok = match self.app {
            App::Tpcc => !self.client.execute(body).is_empty(),
            App::Null => self.client.execute_on(body, dests).as_ref() == b"ok",
        };
        self.probe.end_request(req, span);
        let mut recs = self.records.lock().expect("records poisoned");
        recs[idx].end = sim::now().as_nanos();
        recs[idx].reply_ok = reply_ok;
    }

    /// Open loop: takes the next arrival in due order and waits for its
    /// due time if early. When every session is busy the arrival waits, and
    /// its latency still counts from `due`.
    fn serve(mut self, arrivals: &[Arrival], next: &AtomicUsize) {
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(a) = arrivals.get(i) else { break };
            let now = sim::now().as_nanos();
            if now < a.due {
                sim::sleep_ns(a.due - now);
            }
            self.send(i, &a.dests, &a.body);
        }
    }

    /// Closed loop: the next request goes out when the previous one
    /// returns, until the window ends.
    fn run_closed(mut self, seed: u64, window_end: u64) {
        let s = self.id as u64;
        let mut gen = tpcc_gen(seed, s);
        let mut rng = SmallRng::seed_from_u64(stream(seed, 1000 + s));
        let home = (self.id % PARTITIONS as u32) as u16 + 1;
        while sim::now().as_nanos() < window_end {
            let (dests, body) = match self.app {
                App::Tpcc => {
                    let txn = gen.next(home);
                    (dests_of(&txn), txn.encode())
                }
                App::Null => {
                    let d = vec![PartitionId(rng.gen_range(0..PARTITIONS as u16))];
                    let body = NullApp::request(&d);
                    (d, body)
                }
            };
            let idx = {
                let mut recs = self.records.lock().expect("records poisoned");
                recs.push(Req::due_at(sim::now().as_nanos(), &dests));
                recs.len() - 1
            };
            self.send(idx, &dests, &body);
        }
    }
}

/// The generator's record of every request, shared by its sessions.
type Records = Arc<Mutex<Vec<Req>>>;

/// Spawns the load generator's sessions.
fn spawn_load(
    simulation: &sim::Simulation,
    cluster: &HeronCluster,
    spec: &Spec,
    seed: u64,
    probe: &Arc<Probe>,
    records: &Records,
) {
    let window_end = (spec.warmup_ms + spec.window_ms) * MS;
    let arrivals = match spec.load {
        Load::Closed => None,
        Load::Open { per_sec } => {
            // Poisson arrivals over warm-up and window, each a TPC-C
            // request from a uniformly drawn home warehouse.
            let mut rng = SmallRng::seed_from_u64(stream(seed, 1 << 20));
            let mut gen = tpcc_gen(seed, 1 << 21);
            let mut t = 0.0f64;
            let mut out = Vec::new();
            loop {
                let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
                t += -u.ln() / per_sec * 1e9;
                if t as u64 >= window_end {
                    break;
                }
                let txn = gen.next(rng.gen_range(1..=PARTITIONS as u16));
                let dests = dests_of(&txn);
                records
                    .lock()
                    .expect("records poisoned")
                    .push(Req::due_at(t as u64, &dests));
                out.push(Arrival {
                    due: t as u64,
                    dests,
                    body: txn.encode(),
                });
            }
            Some(Arc::new(out))
        }
    };
    let next = Arc::new(AtomicUsize::new(0));
    for s in 0..SESSIONS {
        let session = Session {
            id: s as u32,
            client: cluster.client(format!("s{s}")),
            app: spec.app,
            probe: Arc::clone(probe),
            records: Arc::clone(records),
        };
        let (arrivals, next) = (arrivals.clone(), Arc::clone(&next));
        simulation.spawn(format!("bench-session-{s}"), move || match arrivals {
            Some(arrivals) => session.serve(&arrivals, &next),
            None => session.run_closed(seed, window_end),
        });
    }
}

/// Counters read at the window's edges.
#[derive(Clone, Copy)]
struct Edge {
    events: u64,
    fabric: [u64; 8],
    app: AppCounts,
    delays: (u64, u64, u64),
    skipped: u64,
    transfers_started: u64,
    breakdowns: usize,
    transfers: usize,
    usage: procfs::Usage,
}

fn fabric_counts(s: &FabricStats) -> [u64; 8] {
    let l = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
    [
        l(&s.reads),
        l(&s.posted_writes),
        l(&s.writes),
        l(&s.cas_ops),
        l(&s.sends),
        l(&s.doorbells),
        l(&s.bytes_read),
        l(&s.bytes_written),
    ]
}

fn edge(sim: &sim::Simulation, fabric: &Fabric, m: &Metrics, probe: &Probe) -> Edge {
    let l = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
    Edge {
        events: sim.events_executed(),
        fabric: fabric_counts(fabric.stats()),
        app: probe.app_counts(),
        delays: m.delays.iter().fold((0, 0, 0), |a, d| {
            (
                a.0 + l(&d.total),
                a.1 + l(&d.delayed),
                a.2 + l(&d.delay_sum_ns),
            )
        }),
        skipped: l(&m.skipped_requests),
        transfers_started: l(&m.transfers_started),
        breakdowns: m.breakdowns.lock().len(),
        transfers: m.transfers.lock().len(),
        usage: procfs::Usage::read(),
    }
}

/// Nearest-rank quantile of a sorted slice (0 when empty).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn mean_us(v: impl Iterator<Item = u64>) -> f64 {
    let (n, s) = v.fold((0u64, 0u64), |(n, s), x| (n + 1, s + x));
    ratio(s as f64, n as f64) / 1e3
}

/// Set-up: the application and its data, the cluster and every simulated
/// process, before the first simulated event.
fn set_up(args: &Args, probe: &Arc<Probe>) -> (sim::Simulation, Fabric, HeronCluster, Records) {
    let spec = args.spec;
    let simulation = sim::Simulation::new(args.seed);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let app: Arc<dyn StateMachine> = match spec.app {
        App::Tpcc => {
            let scale = TpccScale {
                seed: stream(args.seed, 1 << 22),
                ..TpccScale::bench()
            };
            Arc::new(Probed {
                inner: TpccApp::new(scale, PARTITIONS as u16),
                probe: Arc::clone(probe),
            })
        }
        App::Null => Arc::new(NullApp::new(PARTITIONS as u16)),
    };
    let cfg = HeronConfig::new(PARTITIONS, REPLICAS).with_max_clients(SESSIONS);
    let cluster = HeronCluster::build(&fabric, cfg, app);
    cluster.spawn(&simulation);
    let records = Arc::new(Mutex::new(Vec::new()));
    spawn_load(&simulation, &cluster, spec, args.seed, probe, &records);
    if let Some((down, up)) = spec.fault {
        let c = cluster.clone();
        simulation.spawn("bench-fault", move || {
            sim::sleep_ns(down * MS);
            c.crash_replica(PartitionId(0), 0);
            sim::sleep_ns((up - down) * MS);
            c.recover_replica(PartitionId(0), 0);
        });
    }
    (simulation, fabric, cluster, records)
}

/// Runs warm-up, window and drain in slices; returns the counters at the
/// window's two edges and the host time spent inside the window.
fn drive(
    spec: &Spec,
    simulation: &sim::Simulation,
    fabric: &Fabric,
    metrics: &Metrics,
    probe: &Probe,
) -> (Edge, Edge, u64) {
    let (ws, we) = window(spec);
    let drain_end = we + spec.drain_ms * MS;
    let (mut at_ws, mut at_we) = (None, None);
    let mut window_host_ns = 0;
    let mut t = 0;
    while t < drain_end {
        if t == ws {
            at_ws = Some(edge(simulation, fabric, metrics, probe));
        }
        if t == we {
            at_we = Some(edge(simulation, fabric, metrics, probe));
        }
        let next = (t + SLICE_NS).min(drain_end);
        let h0 = probe.host_ns();
        simulation
            .run_until(sim::SimTime::from_nanos(next))
            .expect("simulation run");
        let h1 = probe.host_ns();
        probe.record("sim.run_until", 0, (u32::MAX, 0), (h0, h1), (t, next));
        if t >= ws && t < we {
            window_host_ns += h1 - h0;
        }
        t = next;
    }
    (
        at_ws.expect("window start"),
        at_we.expect("window end"),
        window_host_ns,
    )
}

/// Virtual start and end of the measurement window, ns.
fn window(spec: &Spec) -> (u64, u64) {
    let ws = spec.warmup_ms * MS;
    (ws, ws + spec.window_ms * MS)
}

/// Requests completed inside the measurement window.
fn committed(spec: &Spec, recs: &[Req]) -> u64 {
    let (ws, we) = window(spec);
    recs.iter()
        .filter(|r| r.end != NONE && r.end >= ws && r.end < we)
        .count() as u64
}

/// The correctness check after the drain; returns what failed.
fn check(cluster: &HeronCluster, recs: &[Req], metrics: &Metrics, corrupt: bool) -> Vec<String> {
    let mut failures = Vec::new();
    if corrupt {
        match cluster.object_ids(PartitionId(0), 1).first() {
            Some(&oid) => cluster.corrupt_value(PartitionId(0), 1, oid),
            None => failures.push("--corrupt needs a workload with application state".into()),
        }
    }
    for p in 0..PARTITIONS {
        let pid = PartitionId(p as u16);
        let digests: Vec<u64> = (0..REPLICAS)
            .map(|i| cluster.state_digest(pid, i))
            .collect();
        if digests.iter().any(|d| *d != digests[0]) {
            failures.push(format!(
                "partition {p}: replica digests differ {digests:x?}"
            ));
        }
        let last: Vec<u64> = (0..REPLICAS).map(|i| cluster.last_req(pid, i)).collect();
        if last.iter().any(|l| *l != last[0]) {
            failures.push(format!(
                "partition {p}: replicas delivered different prefixes {last:?}"
            ));
        }
    }
    // Every request is counted once: as completed when the generator saw
    // its reply (which the cluster counts too), as failed otherwise.
    let replied = recs.iter().filter(|r| r.end != NONE).count() as u64;
    let completed = metrics.completed.load(Ordering::Relaxed);
    if replied != completed {
        failures.push(format!(
            "generator saw {replied} replies, cluster counted {completed}"
        ));
    }
    let bad = recs.iter().filter(|r| r.end != NONE && !r.reply_ok).count();
    if bad > 0 {
        failures.push(format!("{bad} malformed replies"));
    }
    failures
}

/// Metrics of simulated time: deterministic for the seed. The end-to-end
/// ones are left as raw counts and samples, which `run.py` pools over
/// sub-runs.
fn virtual_metrics(
    spec: &Spec,
    recs: &[Req],
    (a, b): (&Edge, &Edge),
    metrics: &Metrics,
    simulation: &sim::Simulation,
) -> Json {
    let (ws, we) = window(spec);
    let in_window = |x: u64| x >= ws && x < we;
    let attempted: Vec<&Req> = recs.iter().filter(|r| in_window(r.due)).collect();
    let done: Vec<&&Req> = attempted.iter().filter(|r| r.end != NONE).collect();
    let failed = (attempted.len() - done.len()) as u64;
    let mut lat: Vec<u64> = done.iter().map(|r| r.end - r.due).collect();
    lat.sort_unstable();
    let committed = committed(spec, recs);
    // Longest stretch of the window in which partition 0 completed nothing;
    // a crash starts a stretch, so under a fault this is the time from the
    // crash to the first completed request that involves partition 0.
    let mut marks: Vec<u64> = recs
        .iter()
        .filter(|r| r.p0 && r.end != NONE && in_window(r.end))
        .map(|r| r.end)
        .chain([ws, we])
        .chain(spec.fault.map(|(down, _)| down * MS))
        .collect();
    marks.sort_unstable();
    let unavail_ns = marks.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    let mut late: Vec<u64> = attempted
        .iter()
        .filter(|r| r.start != NONE)
        .map(|r| r.start - r.due)
        .collect();
    late.sort_unstable();

    let per_req = |x: u64| ratio(x as f64, committed as f64);
    let bds = metrics.breakdowns.lock()[a.breakdowns..b.breakdowns].to_vec();
    // Every replica of the home partition records a breakdown; the median
    // follows the majority that answers the client, not the slowest replica.
    let bd_p50 = |multi: bool, f: fn(&heron_core::Breakdown) -> u64| {
        let mut v: Vec<u64> = bds
            .iter()
            .filter(|x| (x.partitions > 1) == multi)
            .map(f)
            .collect();
        v.sort_unstable();
        quantile(&v, 0.5) as f64 / 1e3
    };
    let lat_p50 = |multi: bool| {
        let mut v: Vec<u64> = done
            .iter()
            .filter(|r| r.multi == multi)
            .map(|r| r.end - r.due)
            .collect();
        v.sort_unstable();
        quantile(&v, 0.5) as f64 / 1e3
    };
    // Transfers that completed after the window opened, drain included: a
    // lagger recovering late in the window finishes during the drain.
    let transfers = metrics.transfers.lock()[a.transfers..].to_vec();
    let app_calls = (b.app.exec_calls - a.app.exec_calls) as f64;
    let (dt, dd, dsum) = (
        b.delays.0 - a.delays.0,
        b.delays.1 - a.delays.1,
        b.delays.2 - a.delays.2,
    );

    let mut v = Json::obj();
    v.set(
        "schedule_hash",
        format!("{:016x}", simulation.schedule_hash()),
    );
    v.set("events", simulation.events_executed());
    v.set("attempted", attempted.len());
    v.set("failed", failed);
    v.set(
        "slo_miss",
        lat.iter().filter(|&&l| l > SLO_NS).count() as u64 + failed,
    );
    v.set("committed", committed);
    v.set("window_s", spec.window_ms as f64 / 1e3);
    v.set("lat_ns", lat);
    v.set("unavail_ms", unavail_ns as f64 / 1e6);
    v.set("sim.events_per_req", per_req(b.events - a.events));
    for (i, name) in [
        "rdma-sim.reads_per_req",
        "rdma-sim.posted_writes_per_req",
        "rdma-sim.writes_per_req",
        "rdma-sim.cas_per_req",
        "rdma-sim.sends_per_req",
        "rdma-sim.doorbells_per_req",
        "rdma-sim.bytes_read_per_req",
        "rdma-sim.bytes_written_per_req",
    ]
    .into_iter()
    .enumerate()
    {
        v.set(name, per_req(b.fabric[i] - a.fabric[i]));
    }
    v.set(
        "amcast.ordering_single_us",
        bd_p50(false, |x| x.ordering_ns),
    );
    v.set("amcast.ordering_multi_us", bd_p50(true, |x| x.ordering_ns));
    v.set("heron-core.coord_us", bd_p50(true, |x| x.coordination_ns));
    v.set("heron-core.wfa_delayed_frac", ratio(dd as f64, dt as f64));
    v.set(
        "heron-core.wfa_delay_us",
        ratio(dsum as f64, dd as f64) / 1e3,
    );
    v.set(
        "heron-core.exec_single_us",
        bd_p50(false, |x| x.execution_ns),
    );
    v.set("heron-core.exec_multi_us", bd_p50(true, |x| x.execution_ns));
    v.set(
        "heron-core.multi_frac",
        ratio(
            attempted.iter().filter(|r| r.multi).count() as f64,
            attempted.len() as f64,
        ),
    );
    v.set("heron-core.transfers", transfers.len());
    v.set(
        "heron-core.transfers_started",
        metrics.transfers_started.load(Ordering::Relaxed) - a.transfers_started,
    );
    v.set(
        "heron-core.transfer_bytes",
        transfers.iter().map(|x| x.bytes).sum::<u64>(),
    );
    v.set(
        "heron-core.transfer_us",
        mean_us(transfers.iter().map(|x| x.duration_ns)),
    );
    v.set(
        "heron-core.skipped_requests",
        metrics.skipped_requests.load(Ordering::Relaxed) - a.skipped,
    );
    v.set(
        "tpcc.exec_calls_per_req",
        per_req(b.app.exec_calls - a.app.exec_calls),
    );
    v.set(
        "tpcc.compute_us",
        ratio((b.app.compute_ns - a.app.compute_ns) as f64, app_calls) / 1e3,
    );
    v.set(
        "tpcc.reads_per_exec",
        ratio((b.app.reads - a.app.reads) as f64, app_calls),
    );
    v.set("bench.lat_single_p50_us", lat_p50(false));
    v.set("bench.lat_multi_p50_us", lat_p50(true));
    v.set("bench.late_p99_us", quantile(&late, 0.99) as f64 / 1e3);
    v.set("samples.late", late.len());
    for multi in [false, true] {
        let shape = if multi { "multi" } else { "single" };
        v.set(
            &format!("samples.breakdown_{shape}"),
            bds.iter().filter(|x| (x.partitions > 1) == multi).count(),
        );
        v.set(
            &format!("samples.lat_{shape}"),
            done.iter().filter(|r| r.multi == multi).count(),
        );
    }
    v
}

/// Host measurements of the window (plus set-up and peak memory).
/// `setup` is set-up's (CPU, wall) seconds.
fn host_metrics(
    setup: (f64, f64),
    (a, b): (&Edge, &Edge),
    window_host_ns: u64,
    committed: u64,
) -> Json {
    let events = (b.events - a.events) as f64;
    let sys = b.usage.sys_s - a.usage.sys_s;
    let cpu = (b.usage.user_s - a.usage.user_s) + sys;
    let mut h = Json::obj();
    h.set("setup_s", setup.0);
    h.set("setup_wall_s", setup.1);
    h.set("peak_rss_mb", procfs::peak_rss_mb());
    h.set(
        "bench.wall_us_per_req",
        ratio(window_host_ns as f64, committed as f64) / 1e3,
    );
    h.set("sim.cpu_us_per_req", ratio(cpu * 1e6, committed as f64));
    h.set(
        "sim.host_ns_per_event",
        ratio(window_host_ns as f64, events),
    );
    h.set("sim.sys_frac", ratio(sys, cpu));
    h.set(
        "sim.vcsw_per_event",
        ratio(b.usage.vcsw.saturating_sub(a.usage.vcsw) as f64, events),
    );
    let calls = (b.app.exec_calls - a.app.exec_calls) as f64;
    h.set(
        "tpcc.exec_host_ns",
        ratio((b.app.exec_host_ns - a.app.exec_host_ns) as f64, calls),
    );
    h
}

/// Traced runs: self time per span name, the per-layer host metrics the
/// spans give, and the spans themselves written to `path`.
fn span_metrics(
    probe: &Probe,
    replied: u64,
    host: &mut Json,
    path: &std::path::Path,
) -> std::io::Result<()> {
    let spans = probe.take_spans();
    let table = probe::self_times(&spans);
    let all = replied.max(1) as f64;
    let total_of = |pred: &dyn Fn(&str) -> bool| {
        table
            .iter()
            .filter(|(n, ..)| pred(n))
            .map(|&(_, _, total, _)| total)
            .sum::<u64>() as f64
    };
    let app_ns = total_of(&|n| n.starts_with("app."));
    host.set("tpcc.app_us_per_req", app_ns / all / 1e3);
    host.set(
        "sim.self_us_per_req",
        (total_of(&|n| n == "sim.run_until") - app_ns) / all / 1e3,
    );
    let rows: Vec<Json> = table
        .iter()
        .map(|&(name, count, total, own)| {
            let mut r = Json::obj();
            r.set("name", name);
            r.set("count", count);
            r.set("total_us", total as f64 / 1e3);
            r.set("self_us", own as f64 / 1e3);
            r
        })
        .collect();
    host.set("spans", Json::Arr(rows));
    probe::write_spans(path, &spans)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("heron-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let probe = Arc::new(Probe::new(args.trace.is_some()));
    // Set-up is timed in CPU seconds of the whole process, which unlike
    // wall time do not grow while other programs hold the CPU: on a busy
    // 2-vCPU machine set-up's wall time rose from 0.14 s to 0.18-0.27 s
    // while its CPU time stayed at 0.13-0.14 s. Wall time is kept too.
    let (setup_t0, setup_cpu0) = (Instant::now(), procfs::cpu_ns());
    let (simulation, fabric, cluster, records) = set_up(&args, &probe);
    let setup = (
        procfs::cpu_ns().saturating_sub(setup_cpu0) as f64 / 1e9,
        setup_t0.elapsed().as_secs_f64(),
    );
    let metrics = cluster.metrics();
    let (a, b, window_host_ns) = drive(args.spec, &simulation, &fabric, &metrics, &probe);

    let recs = records.lock().expect("records poisoned").clone();
    let mut failures = check(&cluster, &recs, &metrics, args.corrupt);
    let virt = virtual_metrics(args.spec, &recs, (&a, &b), &metrics, &simulation);
    let committed = committed(args.spec, &recs);
    let mut host = host_metrics(setup, (&a, &b), window_host_ns, committed);
    if let Some(path) = &args.trace {
        let replied = recs.iter().filter(|r| r.end != NONE).count() as u64;
        if let Err(e) = span_metrics(&probe, replied, &mut host, path) {
            failures.push(format!("writing spans: {e}"));
        }
    }

    let mut out = Json::obj();
    out.set("workload", args.spec.name);
    out.set("seed", args.seed);
    out.set("trace", args.trace.is_some());
    out.set("virtual", virt);
    out.set("host", host);
    out.set("correct", failures.is_empty());
    out.set("failures", failures.clone());
    print!("{}", out.render());
    drop(simulation);
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("heron-perfbench: check failed: {f}");
        }
        std::process::exit(1);
    }
}
