//! The simulation kernel: virtual clock, deterministic scheduler, and the
//! cooperative handshake that ensures exactly one simulated process runs at
//! a time.
//!
//! # Scheduling fast paths
//!
//! The classic engine parks the blocking process, wakes the host thread,
//! and has the host pop the next event and unpark its target — two full
//! park/unpark handshakes per context switch. With
//! [`EngineConfig::direct_handoff`] on (the default), a blocking process
//! pops the next event itself:
//!
//! * **self-resume** — the popped event wakes the blocking process itself
//!   (a `yield_now`, a sleep, a send that resolved at the current instant):
//!   zero handshakes, the thread just keeps running;
//! * **direct handoff** — the event wakes another process: one handshake
//!   (peer unparked, self parked), the host stays asleep;
//! * **timer inline** — the event is a timer closure: it runs on the
//!   blocking thread in event context (the process's identity is masked for
//!   the closure's duration so clock/trace attribution is identical to a
//!   host-run timer), and popping continues;
//! * anything else (queue empty, deadline reached, stop, panic) falls back
//!   to the host loop.
//!
//! Pop order, event counts, and the schedule hash are identical with the
//! fast paths on or off — both paths drain the same queue through the same
//! accounting, only on different OS threads.

use crate::error::{SimError, SimResult};
use crate::explore::{Choice, ChoiceActor, ExploreConfig, ExploreState};
use crate::prof::ProfState;
use crate::queue::{Entry, EventQueue, Popped, QueueKind, Wake};
use crate::time::SimTime;
use crate::trace::TraceState;
use crate::vclock::VectorClock;
use parking_lot::{Condvar, Mutex};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Identifier of a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub(crate) u32);

impl Pid {
    /// The process's dense index (pids are assigned 0, 1, 2, … in spawn
    /// order). Used by the race detector to index vector-clock entries.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid#{}", self.0)
    }
}

/// Scheduler engine selection. The default — wheel plus direct handoff —
/// is the fast path; the alternatives exist so determinism tests can prove
/// the fast engine reproduces the reference engine's schedules exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Event-queue implementation.
    pub queue: QueueKind,
    /// Let a blocking process pop and dispatch the next event itself
    /// (self-resume / direct handoff / inline timers) instead of always
    /// round-tripping through the host thread.
    pub direct_handoff: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            queue: QueueKind::Wheel,
            direct_handoff: true,
        }
    }
}

/// Panic payload used to unwind a killed process. Never observed by user
/// code.
pub(crate) struct KilledToken;

/// Park/unpark for simulated process threads. Two implementations, picked
/// by the engine (the wake path is part of what
/// [`EngineConfig::direct_handoff`] selects, so the classic engine stays a
/// faithful before-baseline for `sched_bench`):
///
/// * **Classic** — a mutex-guarded run flag plus a condvar, the original
///   handshake.
/// * **Token** — an atomic run token plus `std::thread::park`. The token
///   is consumed with a swap — an RMW always observes the latest store, so
///   a wake posted before the owner blocks is never lost — and the owner's
///   `Thread` handle is published under a tiny mutex so an unpark racing
///   with the very first park is ordered. One handshake costs two atomics
///   and at most one futex round-trip each way, versus the
///   mutex-plus-condvar dance.
enum Parker {
    Classic {
        lock: Mutex<bool>, // "run" flag
        cv: Condvar,
    },
    Token {
        token: AtomicBool,
        thread: Mutex<Option<std::thread::Thread>>,
    },
}

impl Parker {
    fn new(fast: bool) -> Arc<Self> {
        Arc::new(if fast {
            Parker::Token {
                token: AtomicBool::new(false),
                thread: Mutex::new(None),
            }
        } else {
            Parker::Classic {
                lock: Mutex::new(false),
                cv: Condvar::new(),
            }
        })
    }

    fn unpark(&self) {
        match self {
            Parker::Classic { lock, cv } => {
                let mut run = lock.lock();
                *run = true;
                cv.notify_one();
            }
            Parker::Token { token, thread } => {
                token.store(true, Ordering::SeqCst);
                if let Some(t) = thread.lock().as_ref() {
                    t.unpark();
                }
            }
        }
    }

    /// Only ever called by the owning thread.
    fn park(&self) {
        match self {
            Parker::Classic { lock, cv } => {
                let mut run = lock.lock();
                while !*run {
                    cv.wait(&mut run);
                }
                *run = false;
            }
            Parker::Token { token, thread } => {
                {
                    let mut t = thread.lock();
                    if t.is_none() {
                        *t = Some(std::thread::current());
                    }
                }
                while !token.swap(false, Ordering::SeqCst) {
                    std::thread::park();
                }
            }
        }
    }
}

struct ProcInfo {
    name: String,
    parker: Arc<Parker>,
    /// Incremented on every block; wake entries carry the token they were
    /// issued for, so stale wakes are filtered out.
    token: u64,
    parked: bool,
    killed: bool,
    finished: bool,
    /// Mirrors `killed || finished` for lock-free liveness checks on the
    /// mailbox send path (see [`Kernel::dead_flag`]).
    dead: Arc<AtomicBool>,
    rng: Option<SmallRng>,
    /// Happens-before clock; stays empty (and free) unless a race detector
    /// is ticking it. See [`crate::vclock`].
    vc: VectorClock,
    join: Option<std::thread::JoinHandle<()>>,
}

struct KState {
    now: u64,
    seq: u64,
    /// Events popped off the queue since the simulation started (timers and
    /// process wakes, stale wakes included) — the scheduler's unit of real
    /// work.
    events: u64,
    /// Order-sensitive fingerprint of every `(time, seq)` popped, folded
    /// FNV-1a style. Two runs with equal hashes (and equal event counts)
    /// executed the exact same schedule.
    sched_hash: u64,
    queue: EventQueue,
    procs: Vec<ProcInfo>,
    /// The process currently executing user code, if any.
    running: Option<Pid>,
    /// The active run's virtual-time bound, mirrored from `run_loop` so the
    /// direct-handoff path stops at the same instant the host would.
    limit: Option<u64>,
    stop: bool,
    panic: Option<String>,
    unfinished: usize,
    /// Deterministic id source for [`crate::Cond`] instances (assignment
    /// order within the run; 0 means unassigned).
    cond_seq: u64,
    /// Debug-build zero-progress watch: `(instant, pid, streak)` of
    /// consecutive live dispatches of one process at one instant. Trips a
    /// debug assertion on a runaway same-instant wake loop even when
    /// exploration is off (see [`crate::explore`] for the real detectors).
    dbg_spin: (u64, u32, u32),
    /// Per-process wait-state accounting ([`crate::prof`]); lives here so
    /// the hot hooks run under the lock they already hold — no second
    /// lock, no `Arc` traffic per event.
    prof: Option<crate::prof::ProfProcs>,
}

/// Consecutive same-instant live dispatches of one process before the
/// debug-build zero-progress assertion fires. Far above any legitimate
/// same-instant cascade; a genuine `has_work`-class spin blows through it
/// in microseconds of wall time.
const DEBUG_SPIN_LIMIT: u32 = 500_000;

/// Debug-build guard on every live process dispatch (host loop and direct
/// handoff): panics on a zero-virtual-time wake storm so the PR 8 bug
/// class fails fast in tests even without the exploration detectors.
fn debug_spin_watch(st: &mut KState, pid: Pid) {
    let (at, last, streak) = st.dbg_spin;
    if at == st.now && last == pid.0 {
        st.dbg_spin.2 = streak.saturating_add(1);
        debug_assert!(
            st.dbg_spin.2 < DEBUG_SPIN_LIMIT,
            "process '{}' dispatched {}x at {} ns without virtual time advancing \
             (zero-progress spin; see sim::explore livelock detectors)",
            st.procs[pid.0 as usize].name,
            st.dbg_spin.2,
            st.now,
        );
    } else {
        st.dbg_spin = (st.now, pid.0, 0);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a fold step of the schedule hash: absorbs a popped
/// `(time, seq)` pair.
fn fold_hash(h: u64, time: u64, seq: u64) -> u64 {
    let h = (h ^ time).wrapping_mul(FNV_PRIME);
    (h ^ seq).wrapping_mul(FNV_PRIME)
}

pub(crate) struct Kernel {
    state: Mutex<KState>,
    sched_cv: Condvar,
    seed: u64,
    handoff: bool,
    /// Tracing gate: one relaxed load decides every trace hook, mirroring
    /// the race detector's fabric flag, so the off path costs nothing and
    /// schedules stay bit-identical either way (see [`crate::trace`]).
    trace_on: AtomicBool,
    trace: Mutex<Option<Arc<TraceState>>>,
    /// Set on the first vector-clock tick. While unset (no race detector
    /// running), clock snapshots return the empty clock after one relaxed
    /// load, without taking the state lock — the mailbox/Cond send paths
    /// stay allocation- and lock-free.
    vc_on: AtomicBool,
    /// Exploration gate, mirroring `trace_on`: one relaxed load decides
    /// every choice-point / detector hook, so the off path costs nothing
    /// and schedules stay bit-identical either way (see [`crate::explore`]).
    explore_on: AtomicBool,
    explore: Mutex<Option<Arc<ExploreState>>>,
    /// Profiling gate, mirroring `trace_on`: one relaxed load decides
    /// every wait-state hook, so the off path costs nothing and schedules
    /// stay bit-identical either way (see [`crate::prof`]).
    prof_on: AtomicBool,
    prof: Mutex<Option<Arc<ProfState>>>,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Kernel>, Pid)>> = const { RefCell::new(None) };
    /// True while a timer closure runs inline on a process thread (direct
    /// handoff): masks the thread's process identity so the closure sees
    /// event context, exactly as if it ran on the host thread.
    static EVENT_CTX: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with the calling process's kernel and pid.
///
/// # Panics
///
/// Panics when the current thread is not a simulated process (including a
/// timer closure running in event context).
pub(crate) fn with_ctx<R>(f: impl FnOnce(&Arc<Kernel>, Pid) -> R) -> R {
    assert!(
        !EVENT_CTX.with(|e| e.get()),
        "sim API called outside a simulated process"
    );
    CURRENT.with(|c| {
        let borrow = c.borrow();
        let (kernel, pid) = borrow
            .as_ref()
            .expect("sim API called outside a simulated process");
        f(kernel, *pid)
    })
}

/// Like [`with_ctx`] but returns `None` when the current thread is not a
/// simulated process (the host thread driving the simulation, or a timer
/// closure running in event context).
pub(crate) fn try_with_ctx<R>(f: impl FnOnce(&Arc<Kernel>, Pid) -> R) -> Option<R> {
    if EVENT_CTX.with(|e| e.get()) {
        return None;
    }
    CURRENT.with(|c| {
        let borrow = c.borrow();
        borrow.as_ref().map(|(kernel, pid)| f(kernel, *pid))
    })
}

fn install_kill_quiet_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<KilledToken>().is_none() {
                default(info);
            }
        }));
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "process panicked".to_string()
    }
}

type TimerFn = Box<dyn FnOnce() + Send>;

/// Up to this many consecutive same-instant timers are drained under one
/// state-lock acquisition and run back to back.
const TIMER_BATCH: usize = 128;

/// What a blocking process decided to do after consulting the queue.
enum Block {
    /// Popped its own wake: keep running, no handshake at all.
    SelfResume { killed: bool },
    /// Popped another process's wake: unpark it, park self.
    Handoff {
        next: Arc<Parker>,
        mine: Arc<Parker>,
    },
    /// Run a batch of same-instant timer closures inline (event context),
    /// then look again. Bookkeeping (event count, schedule hash) is
    /// committed after the batch runs — `base_hash` is the schedule hash
    /// as of the first pop, and nothing else can pop in between because
    /// the popping process is the only runnable thread.
    Timers {
        time: u64,
        base_hash: u64,
        first: (u64, TimerFn),
        rest: Vec<(u64, TimerFn)>,
    },
    /// Hand control back to the host loop and park.
    Host(Arc<Parker>),
}

impl Kernel {
    fn new(seed: u64, engine: EngineConfig) -> Arc<Self> {
        Arc::new(Kernel {
            state: Mutex::new(KState {
                now: 0,
                seq: 0,
                events: 0,
                sched_hash: FNV_OFFSET,
                queue: EventQueue::new(engine.queue),
                procs: Vec::new(),
                running: None,
                limit: None,
                stop: false,
                panic: None,
                unfinished: 0,
                cond_seq: 0,
                dbg_spin: (0, u32::MAX, 0),
                prof: None,
            }),
            sched_cv: Condvar::new(),
            seed,
            handoff: engine.direct_handoff,
            trace_on: AtomicBool::new(false),
            trace: Mutex::new(None),
            vc_on: AtomicBool::new(false),
            explore_on: AtomicBool::new(false),
            explore: Mutex::new(None),
            prof_on: AtomicBool::new(false),
            prof: Mutex::new(None),
        })
    }

    /// The profiler state, or `None` when profiling is off (the common
    /// case: one relaxed load, no state lock).
    pub(crate) fn prof_state(&self) -> Option<Arc<ProfState>> {
        if !self.prof_on.load(Ordering::Relaxed) {
            return None;
        }
        self.prof.lock().clone()
    }

    /// Whether wait-state profiling is on (one relaxed load).
    pub(crate) fn prof_enabled(&self) -> bool {
        self.prof_on.load(Ordering::Relaxed)
    }

    /// Enables wait-state profiling (idempotent; the first call's bucket
    /// width wins) and returns the shared profiler state.
    pub(crate) fn enable_prof(&self, bucket_ns: u64) -> Arc<ProfState> {
        let state = {
            let mut guard = self.prof.lock();
            Arc::clone(guard.get_or_insert_with(|| Arc::new(ProfState::new(bucket_ns))))
        };
        {
            let mut st = self.state.lock();
            if st.prof.is_none() {
                st.prof = Some(crate::prof::ProfProcs::new());
            }
        }
        self.prof_on.store(true, Ordering::Relaxed);
        state
    }

    /// Snapshot of the per-process wait-state totals as of "now" (for
    /// [`crate::prof::Profiler::report`]); empty when profiling is off.
    pub(crate) fn prof_proc_totals(
        &self,
    ) -> (u64, Vec<Vec<(crate::prof::Key, crate::prof::Stat)>>) {
        let st = self.state.lock();
        let totals = st
            .prof
            .as_ref()
            .map(|p| p.snapshot(st.now))
            .unwrap_or_default();
        (st.now, totals)
    }

    /// The exploration state, or `None` when exploration is off (the common
    /// case: one relaxed load, no state lock).
    pub(crate) fn explore_state(&self) -> Option<Arc<ExploreState>> {
        if !self.explore_on.load(Ordering::Relaxed) {
            return None;
        }
        self.explore.lock().clone()
    }

    /// Enables schedule exploration (idempotent; the first call's config
    /// wins) and returns the shared exploration state.
    pub(crate) fn enable_explore(&self, cfg: ExploreConfig) -> Arc<ExploreState> {
        let state = {
            let mut guard = self.explore.lock();
            Arc::clone(guard.get_or_insert_with(|| Arc::new(ExploreState::new(cfg))))
        };
        self.explore_on.store(true, Ordering::Relaxed);
        state
    }

    /// Hands out the next deterministic [`crate::Cond`] id (1, 2, 3, … in
    /// first-use order, which is schedule-determined and thus stable for a
    /// given seed).
    pub(crate) fn alloc_cond_id(&self) -> u64 {
        let mut st = self.state.lock();
        st.cond_seq += 1;
        st.cond_seq
    }

    /// The trace recording state, or `None` when tracing is off (the common
    /// case: one relaxed load, no state lock).
    pub(crate) fn trace_state(&self) -> Option<Arc<TraceState>> {
        if !self.trace_on.load(Ordering::Relaxed) {
            return None;
        }
        self.trace.lock().clone()
    }

    /// Enables tracing (idempotent) and returns the shared recording state.
    pub(crate) fn enable_trace(&self) -> Arc<TraceState> {
        let state = {
            let mut guard = self.trace.lock();
            Arc::clone(guard.get_or_insert_with(|| Arc::new(TraceState::new())))
        };
        self.trace_on.store(true, Ordering::Relaxed);
        state
    }

    /// Names of all spawned processes, in pid order.
    pub(crate) fn proc_names(&self) -> Vec<String> {
        self.state
            .lock()
            .procs
            .iter()
            .map(|p| p.name.clone())
            .collect()
    }

    pub(crate) fn now_nanos(&self) -> u64 {
        self.state.lock().now
    }

    pub(crate) fn events(&self) -> u64 {
        self.state.lock().events
    }

    pub(crate) fn sched_hash(&self) -> u64 {
        self.state.lock().sched_hash
    }

    fn push_entry(st: &mut KState, time: u64, wake: Wake) {
        let seq = st.seq;
        st.seq += 1;
        st.queue.push(time, seq, wake);
    }

    /// Books a popped entry: event count, schedule hash, clock advance.
    /// Every pop — host loop or handoff path, stale or live — goes through
    /// here exactly once (timer batches fold the same hash sequence and
    /// commit it wholesale), which is what keeps the fast paths'
    /// accounting bit-identical to the classic engine's.
    fn book_pop(st: &mut KState, time: u64, seq: u64) {
        st.events += 1;
        st.sched_hash = fold_hash(st.sched_hash, time, seq);
        st.now = st.now.max(time);
    }

    pub(crate) fn schedule(&self, delay: u64, f: impl FnOnce() + Send + 'static) {
        let mut st = self.state.lock();
        let at = st.now.saturating_add(delay);
        Self::push_entry(&mut st, at, Wake::Timer(Box::new(f)));
    }

    pub(crate) fn spawn(self: &Arc<Self>, name: String, f: impl FnOnce() + Send + 'static) -> Pid {
        let mut st = self.state.lock();
        let pid = Pid(st.procs.len() as u32);
        let parker = Parker::new(self.handoff);
        let rng = SmallRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(pid.0)),
        );
        let kernel = Arc::clone(self);
        let thread_parker = Arc::clone(&parker);
        let thread_name = format!("sim-{}-{}", pid.0, name);
        let join = std::thread::Builder::new()
            .name(thread_name)
            .stack_size(1 << 20)
            .spawn(move || {
                // Wait to be scheduled for the first time.
                thread_parker.park();
                {
                    let st = kernel.state.lock();
                    if st.procs[pid.0 as usize].killed {
                        drop(st);
                        kernel.finish(pid, None);
                        return;
                    }
                }
                CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&kernel), pid)));
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                let panic_msg = match result {
                    Ok(()) => None,
                    Err(payload) => {
                        if payload.downcast_ref::<KilledToken>().is_some() {
                            None
                        } else {
                            Some(panic_message(payload.as_ref()))
                        }
                    }
                };
                kernel.finish(pid, panic_msg);
            })
            .expect("failed to spawn simulated process thread");
        st.procs.push(ProcInfo {
            name,
            parker,
            token: 0,
            parked: true,
            killed: false,
            finished: false,
            dead: Arc::new(AtomicBool::new(false)),
            rng: Some(rng),
            vc: VectorClock::new(),
            join: Some(join),
        });
        st.unfinished += 1;
        let now = st.now;
        Self::push_entry(&mut st, now, Wake::Proc { pid, token: 0 });
        if let Some(pr) = &mut st.prof {
            pr.on_spawn(pid, now);
        }
        pid
    }

    /// Marks a process finished and hands control back to the scheduler.
    fn finish(&self, pid: Pid, panic_msg: Option<String>) {
        let mut st = self.state.lock();
        let now = st.now;
        if let Some(pr) = &mut st.prof {
            pr.on_finish(pid, now);
        }
        let p = &mut st.procs[pid.0 as usize];
        p.finished = true;
        p.parked = false;
        p.dead.store(true, Ordering::Relaxed);
        st.unfinished -= 1;
        if let Some(msg) = panic_msg {
            let name = st.procs[pid.0 as usize].name.clone();
            st.panic = Some(format!("process '{name}' panicked: {msg}"));
        }
        if st.running == Some(pid) {
            st.running = None;
            self.sched_cv.notify_one();
        }
    }

    /// First half of blocking: bump the wake token and mark the process
    /// parked. The caller must then register wake sources and call
    /// [`Kernel::yield_and_park`].
    pub(crate) fn begin_block(&self, pid: Pid) -> u64 {
        let mut st = self.state.lock();
        let p = &mut st.procs[pid.0 as usize];
        p.token += 1;
        p.parked = true;
        p.token
    }

    /// Registers a timed wake-up (used by sleeps and waits with deadlines).
    pub(crate) fn enqueue_wake_at(&self, at: u64, pid: Pid, token: u64) {
        let mut st = self.state.lock();
        Self::push_entry(&mut st, at, Wake::Proc { pid, token });
    }

    /// Releases the processor to the host loop: the caller must park after
    /// dropping the state lock.
    fn release_to_host(&self, st: &mut KState, pid: Pid) -> Block {
        st.running = None;
        self.sched_cv.notify_one();
        Block::Host(Arc::clone(&st.procs[pid.0 as usize].parker))
    }

    /// Second half of blocking: yield to the scheduler and park until woken.
    ///
    /// With direct handoff enabled this pops and dispatches queue entries
    /// itself (see the module docs); otherwise it always wakes the host.
    ///
    /// # Panics
    ///
    /// Unwinds with [`KilledToken`] if the process was killed while parked.
    pub(crate) fn yield_and_park(&self, pid: Pid) {
        self.yield_and_park_as(pid, crate::prof::BLOCKED_COND);
    }

    /// [`Kernel::yield_and_park`] with an explicit profiler wait-state
    /// default for sites that are not cond waits (the classic sleep path).
    fn yield_and_park_as(&self, pid: Pid, default: crate::prof::Key) {
        let block = {
            let mut st = self.state.lock();
            let now = st.now;
            if let Some(pr) = &mut st.prof {
                pr.on_block(pid, now, crate::prof::resolve_block_key(default));
            }
            self.next_block(&mut st, pid)
        };
        self.finish_block(pid, block);
    }

    /// Dispatches a [`Block`] decision and keeps consuming events until the
    /// processor is actually given up (or the process resumes itself).
    fn finish_block(&self, pid: Pid, first: Block) {
        let mut block = first;
        loop {
            match block {
                Block::SelfResume { killed } => {
                    if killed {
                        std::panic::panic_any(KilledToken);
                    }
                    return;
                }
                Block::Timers {
                    time,
                    base_hash,
                    first,
                    rest,
                } => {
                    run_timer_batch(self, time, base_hash, first, rest);
                    block = {
                        let mut st = self.state.lock();
                        self.next_block(&mut st, pid)
                    };
                    continue;
                }
                Block::Handoff { next, mine } => {
                    next.unpark();
                    mine.park();
                    break;
                }
                Block::Host(mine) => {
                    mine.park();
                    break;
                }
            }
        }
        let killed = self.state.lock().procs[pid.0 as usize].killed;
        if killed {
            std::panic::panic_any(KilledToken);
        }
    }

    /// Decides how the blocking process `pid` leaves the processor.
    fn next_block(&self, st: &mut KState, pid: Pid) -> Block {
        debug_assert_eq!(st.running, Some(pid), "blocking from a non-running process");
        // Under exploration every pop is a choice point, so the self-resume
        // and direct-handoff fast paths yield back to the host loop, which
        // owns the chooser. Schedules stay bit-identical (both paths drain
        // the same queue through the same accounting).
        if !self.handoff || self.explore_on.load(Ordering::Relaxed) {
            return self.release_to_host(st, pid);
        }
        loop {
            if st.stop || st.panic.is_some() {
                return self.release_to_host(st, pid);
            }
            let limit = st.limit;
            match st.queue.pop_due(limit) {
                Popped::Empty | Popped::Beyond => return self.release_to_host(st, pid),
                Popped::Event(Entry {
                    time,
                    seq,
                    wake: Wake::Timer(f),
                }) => {
                    // Booking is deferred to after the batch runs; advance
                    // the clock now so the closures observe the served
                    // instant (wakes and schedules they issue land at it).
                    st.now = st.now.max(time);
                    let base_hash = st.sched_hash;
                    let mut rest = Vec::new();
                    while rest.len() + 1 < TIMER_BATCH {
                        match st.queue.pop_timer_at(time) {
                            Some(next) => rest.push(next),
                            None => break,
                        }
                    }
                    return Block::Timers {
                        time,
                        base_hash,
                        first: (seq, f),
                        rest,
                    };
                }
                Popped::Event(Entry {
                    time,
                    seq,
                    wake: Wake::Proc { pid: next, token },
                }) => {
                    Self::book_pop(st, time, seq);
                    {
                        let p = &st.procs[next.0 as usize];
                        if p.finished || !p.parked || p.token != token {
                            continue; // stale wake
                        }
                    }
                    if cfg!(debug_assertions) {
                        debug_spin_watch(st, next);
                    }
                    let killed = {
                        let p = &mut st.procs[next.0 as usize];
                        p.parked = false;
                        p.killed
                    };
                    let now = st.now;
                    if let Some(pr) = &mut st.prof {
                        pr.on_dispatch(next, now);
                    }
                    if next == pid {
                        return Block::SelfResume { killed };
                    }
                    let next_parker = Arc::clone(&st.procs[next.0 as usize].parker);
                    st.running = Some(next);
                    return Block::Handoff {
                        next: next_parker,
                        mine: Arc::clone(&st.procs[pid.0 as usize].parker),
                    };
                }
            }
        }
    }

    /// Blocks `pid` until `nanos` of virtual time pass. With the fast
    /// engine, the whole begin-block / enqueue-wake / pick-next-event
    /// sequence runs under a single state-lock acquisition — it is the
    /// hottest blocking path (every `sleep`, `yield_now`, and
    /// simulated-latency charge), and merging the locks is
    /// semantics-preserving because nothing else can run between them
    /// while this process holds the processor. The classic engine keeps
    /// the original multi-acquisition sequence so it stays a faithful
    /// before-baseline for `sched_bench`.
    pub(crate) fn sleep(&self, pid: Pid, nanos: u64) {
        if !self.handoff {
            let token = self.begin_block(pid);
            let at = self.state.lock().now.saturating_add(nanos);
            self.enqueue_wake_at(at, pid, token);
            self.yield_and_park_as(pid, crate::prof::SLEEP);
            return;
        }
        let block = {
            let mut st = self.state.lock();
            let p = &mut st.procs[pid.0 as usize];
            p.token += 1;
            p.parked = true;
            let token = p.token;
            let at = st.now.saturating_add(nanos);
            Self::push_entry(&mut st, at, Wake::Proc { pid, token });
            let now = st.now;
            if let Some(pr) = &mut st.prof {
                pr.on_block(pid, now, crate::prof::resolve_block_key(crate::prof::SLEEP));
            }
            self.next_block(&mut st, pid)
        };
        self.finish_block(pid, block);
    }

    /// Wakes a parked process if `token` still matches its current block.
    /// Wakes aimed at killed or finished processes are discarded: the kill
    /// path already queued the wake that unwinds the victim, so honouring a
    /// later notify would only enqueue stale events.
    pub(crate) fn wake(&self, pid: Pid, token: u64) {
        let mut st = self.state.lock();
        let now = st.now;
        let p = &st.procs[pid.0 as usize];
        if !p.finished && !p.killed && p.parked && p.token == token {
            Self::push_entry(&mut st, now, Wake::Proc { pid, token });
        }
    }

    /// A shared flag that turns true once the process is killed or
    /// finished — i.e. will never again run user code. Used by
    /// [`crate::Mailbox`] to fail sends whose every receiver is gone with
    /// one relaxed load per owner instead of taking the kernel state lock.
    pub(crate) fn dead_flag(&self, pid: Pid) -> Arc<AtomicBool> {
        Arc::clone(&self.state.lock().procs[pid.0 as usize].dead)
    }

    pub(crate) fn kill(&self, pid: Pid) {
        let mut st = self.state.lock();
        let now = st.now;
        let p = &mut st.procs[pid.0 as usize];
        if p.finished || p.killed {
            return;
        }
        p.killed = true;
        p.dead.store(true, Ordering::Relaxed);
        if p.parked {
            let token = p.token;
            Self::push_entry(&mut st, now, Wake::Proc { pid, token });
        }
    }

    pub(crate) fn is_finished(&self, pid: Pid) -> bool {
        self.state.lock().procs[pid.0 as usize].finished
    }

    pub(crate) fn stop(&self) {
        self.state.lock().stop = true;
    }

    pub(crate) fn proc_name(&self, pid: Pid) -> String {
        self.state.lock().procs[pid.0 as usize].name.clone()
    }

    pub(crate) fn with_rng<R>(&self, pid: Pid, f: impl FnOnce(&mut SmallRng) -> R) -> R {
        let mut rng = {
            let mut st = self.state.lock();
            st.procs[pid.0 as usize]
                .rng
                .take()
                .expect("process RNG already borrowed")
        };
        let out = f(&mut rng);
        self.state.lock().procs[pid.0 as usize].rng = Some(rng);
        out
    }

    /// Snapshot of the process's happens-before clock. Empty (no
    /// allocation, no state lock) unless a race detector has ticked a
    /// clock somewhere in this simulation.
    pub(crate) fn vc_snapshot(&self, pid: Pid) -> VectorClock {
        if !self.vc_on.load(Ordering::Relaxed) {
            return VectorClock::new();
        }
        self.state.lock().procs[pid.0 as usize].vc.clone()
    }

    /// Ticks the process's own clock entry (a release operation) and
    /// returns the new value together with a snapshot of the full clock.
    pub(crate) fn vc_tick(&self, pid: Pid) -> (u64, VectorClock) {
        self.vc_on.store(true, Ordering::Relaxed);
        let mut st = self.state.lock();
        let p = &mut st.procs[pid.0 as usize];
        let clk = p.vc.tick(pid.0);
        (clk, p.vc.clone())
    }

    /// Joins `other` into the process's clock (an acquire operation).
    pub(crate) fn vc_join(&self, pid: Pid, other: &VectorClock) {
        if other.is_empty() {
            return;
        }
        self.state.lock().procs[pid.0 as usize].vc.join(other);
    }

    /// One pop under exploration: gathers every entry due at the served
    /// instant (the ready set, capped), offers it to the strategy, and
    /// restores the rest unbooked in their original relative order. Stale
    /// wakes stay in the choice set — they are part of the kernel's native
    /// pop order, which is what makes the Baseline strategy bit-identical
    /// to an unexplored run. Works unchanged on both queue engines.
    fn pop_explored(&self, st: &mut KState, ex: &ExploreState, deadline: Option<u64>) -> Popped {
        let first = match st.queue.pop_due(deadline) {
            Popped::Event(e) => e,
            other => return other,
        };
        let time = first.time;
        let mut ready = vec![first];
        while ready.len() < ex.ready_cap() {
            match st.queue.pop_due(Some(time)) {
                Popped::Event(e) => {
                    debug_assert_eq!(e.time, time, "same-instant gather crossed instants");
                    ready.push(e);
                }
                _ => break,
            }
        }
        let idx = if ready.len() > 1 {
            let choices: Vec<Choice> = ready
                .iter()
                .map(|e| Choice {
                    seq: e.seq,
                    actor: match &e.wake {
                        Wake::Timer(_) => ChoiceActor::Timer,
                        Wake::Proc { pid, token } => {
                            let p = &st.procs[pid.0 as usize];
                            ChoiceActor::Proc {
                                pid: pid.0,
                                stale: p.finished || !p.parked || p.token != *token,
                            }
                        }
                    },
                })
                .collect();
            let (idx, preempted) = ex.choose(time, &choices);
            if preempted {
                if let Some(tr) = self.trace_state() {
                    tr.record_instant_extern(
                        time,
                        "explore.preempt",
                        0,
                        &[("seq", choices[idx].seq), ("ready", choices.len() as u64)],
                    );
                }
            }
            idx
        } else {
            0
        };
        // `remove` (not swap_remove): the leftovers must keep their seq
        // order for `unpop` to rebuild the same-instant batch correctly.
        let chosen = ready.remove(idx);
        for e in ready.into_iter().rev() {
            st.queue.unpop(e);
        }
        Popped::Event(chosen)
    }

    /// Runs the event loop. `deadline` bounds virtual time (inclusive);
    /// `strict` turns an empty run queue with still-blocked processes into a
    /// [`SimError::Deadlock`].
    fn run_loop(&self, deadline: Option<u64>, strict: bool) -> SimResult<()> {
        self.state.lock().limit = deadline;
        let explore = self.explore_state();
        loop {
            let action = {
                let mut st = self.state.lock();
                if let Some(msg) = st.panic.take() {
                    drop(st);
                    panic!("{msg}");
                }
                if st.stop {
                    return Ok(());
                }
                let popped = match &explore {
                    Some(ex) => self.pop_explored(&mut st, ex, deadline),
                    None => st.queue.pop_due(deadline),
                };
                match popped {
                    Popped::Empty => {
                        if st.unfinished > 0 {
                            if let Some(ex) = &explore {
                                // Quiescence with blocked processes: feed
                                // the wait-for graph to the deadlock
                                // detector (strict or not — nothing inside
                                // the simulation can ever wake them).
                                let blocked: Vec<(u32, String)> = st
                                    .procs
                                    .iter()
                                    .enumerate()
                                    .filter(|(_, p)| !p.finished)
                                    .map(|(i, p)| (i as u32, p.name.clone()))
                                    .collect();
                                ex.on_quiescence(&blocked);
                            }
                            if strict {
                                let blocked = st
                                    .procs
                                    .iter()
                                    .filter(|p| !p.finished)
                                    .map(|p| p.name.clone())
                                    .collect();
                                return Err(SimError::Deadlock { blocked });
                            }
                        }
                        if let Some(d) = deadline {
                            st.now = st.now.max(d);
                        }
                        return Ok(());
                    }
                    Popped::Beyond => {
                        st.now = deadline.expect("bounded pop without a deadline");
                        return Ok(());
                    }
                    Popped::Event(Entry { time, seq, wake }) => {
                        Self::book_pop(&mut st, time, seq);
                        match wake {
                            Wake::Timer(f) => Some(Err(f)),
                            Wake::Proc { pid, token } => {
                                let stale = {
                                    let p = &st.procs[pid.0 as usize];
                                    p.finished || !p.parked || p.token != token
                                };
                                if stale {
                                    None // stale wake
                                } else {
                                    let tripped = explore.as_ref().is_some_and(|ex| {
                                        ex.note_dispatch(
                                            pid.0,
                                            &st.procs[pid.0 as usize].name,
                                            st.now,
                                        )
                                    });
                                    if tripped {
                                        // Zero-progress spin: record the
                                        // violation and end the run instead
                                        // of feeding the spin forever.
                                        st.stop = true;
                                        None
                                    } else {
                                        if cfg!(debug_assertions) {
                                            debug_spin_watch(&mut st, pid);
                                        }
                                        st.procs[pid.0 as usize].parked = false;
                                        st.running = Some(pid);
                                        let now = st.now;
                                        if let Some(pr) = &mut st.prof {
                                            pr.on_dispatch(pid, now);
                                        }
                                        Some(Ok(Arc::clone(&st.procs[pid.0 as usize].parker)))
                                    }
                                }
                            }
                        }
                    }
                }
            };
            match action {
                None => continue,
                Some(Err(timer)) => timer(),
                Some(Ok(parker)) => {
                    parker.unpark();
                    let mut st = self.state.lock();
                    while st.running.is_some() {
                        self.sched_cv.wait(&mut st);
                    }
                }
            }
        }
    }
}

/// Runs a batch of same-instant timer closures on a process thread in
/// *event* context: the thread's process identity is masked for the
/// batch's duration, so `try_with_ctx`-based attribution (vector clocks,
/// trace spans) behaves exactly as if the closures ran on the host.
///
/// Bookkeeping is folded locally and committed under one lock acquisition
/// afterwards, which is observably identical to booking each pop
/// individually because the popping process is the only runnable thread.
/// A panicking timer is recorded and re-raised from the host loop, like a
/// process panic; closures it would have cut off are restored to the
/// queue unbooked, exactly as if they had never been popped.
fn run_timer_batch(
    kernel: &Kernel,
    time: u64,
    base_hash: u64,
    first: (u64, TimerFn),
    rest: Vec<(u64, TimerFn)>,
) {
    let mut hash = base_hash;
    let mut ran = 0u64;
    let mut panic_msg = None;
    let mut pending = std::iter::once(first).chain(rest);
    EVENT_CTX.with(|e| e.set(true));
    for (seq, f) in pending.by_ref() {
        hash = fold_hash(hash, time, seq);
        ran += 1;
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            panic_msg = Some(panic_message(payload.as_ref()));
            break;
        }
    }
    EVENT_CTX.with(|e| e.set(false));
    let leftover: Vec<(u64, TimerFn)> = pending.collect();
    let mut st = kernel.state.lock();
    st.sched_hash = hash;
    st.events += ran;
    st.now = st.now.max(time);
    for (seq, f) in leftover.into_iter().rev() {
        st.queue.unpop(Entry {
            time,
            seq,
            wake: Wake::Timer(f),
        });
    }
    if let Some(msg) = panic_msg {
        st.panic = Some(format!("timer event panicked: {msg}"));
    }
}

/// A deterministic discrete-event simulation.
///
/// Create one, [`spawn`](Simulation::spawn) processes, then
/// [`run`](Simulation::run) it to completion (or
/// [`run_until`](Simulation::run_until) a virtual deadline). Dropping the
/// simulation kills every remaining process and joins their threads.
pub struct Simulation {
    kernel: Arc<Kernel>,
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now())
            .finish()
    }
}

impl Simulation {
    /// Creates a new simulation whose randomness derives from `seed`,
    /// using the default engine (timer wheel, direct handoff).
    pub fn new(seed: u64) -> Self {
        Self::with_engine(seed, EngineConfig::default())
    }

    /// Creates a simulation with an explicit scheduler engine. All engines
    /// execute bit-identical schedules; the non-default ones exist for
    /// determinism cross-checks and benchmarking.
    pub fn with_engine(seed: u64, engine: EngineConfig) -> Self {
        install_kill_quiet_hook();
        Simulation {
            kernel: Kernel::new(seed, engine),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.kernel.now_nanos())
    }

    /// Number of scheduler events executed so far (timer firings and
    /// process wake-ups). This is the simulator's wall-clock work metric:
    /// fewer events for the same virtual-time run means a faster
    /// simulation.
    pub fn events_executed(&self) -> u64 {
        self.kernel.events()
    }

    /// Order-sensitive fingerprint of the schedule executed so far: an
    /// FNV-1a fold over every popped `(time, seq)` pair. Two runs that
    /// report the same hash (and the same [`Simulation::events_executed`])
    /// popped the exact same events in the exact same order — the
    /// regression signal for scheduler-engine changes.
    pub fn schedule_hash(&self) -> u64 {
        self.kernel.sched_hash()
    }

    /// Spawns a simulated process, scheduled to start at the current virtual
    /// time.
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce() + Send + 'static,
    {
        self.kernel.spawn(name.into(), f)
    }

    /// Runs until every process finishes, [`crate::stop`] is called, or no
    /// progress is possible.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] if the run queue drains while
    /// processes are still blocked.
    ///
    /// # Panics
    ///
    /// Re-raises any panic from a simulated process.
    pub fn run(&self) -> SimResult<()> {
        self.kernel.run_loop(None, true)
    }

    /// Runs until virtual time reaches `deadline` (events at exactly
    /// `deadline` are processed). Processes blocked without timers are left
    /// parked; this is not an error, because later calls may unblock them.
    ///
    /// # Panics
    ///
    /// Re-raises any panic from a simulated process.
    pub fn run_until(&self, deadline: SimTime) -> SimResult<()> {
        self.kernel.run_loop(Some(deadline.as_nanos()), false)
    }

    /// Enables schedule exploration (idempotent; the first call's config
    /// wins). Call before running: subsequent [`Simulation::run`] /
    /// [`Simulation::run_until`] calls route every pop through the
    /// configured strategy's choice points and arm the deadlock and
    /// livelock detectors. With [`crate::ExploreConfig`]'s
    /// [`crate::StrategyKind::Baseline`] the executed schedule is
    /// bit-identical to an unexplored run.
    pub fn enable_exploration(&self, cfg: ExploreConfig) {
        self.kernel.enable_explore(cfg);
    }

    /// The exploration report so far, or `None` when exploration was never
    /// enabled.
    pub fn explore_report(&self) -> Option<crate::explore::ExploreReport> {
        self.kernel.explore_state().map(|ex| ex.report())
    }

    /// Enables virtual-time tracing (idempotent) and returns a
    /// [`crate::trace::Tracer`] handle over the recorded events. Tracing
    /// never perturbs the schedule: runs are bit-identical with it on or
    /// off (see [`crate::trace`]).
    pub fn enable_tracing(&self) -> crate::trace::Tracer {
        let state = self.kernel.enable_trace();
        crate::trace::Tracer::new(state, Arc::clone(&self.kernel))
    }

    /// Enables wait-state profiling (idempotent) and returns a
    /// [`crate::prof::Profiler`] handle. Like tracing, profiling never
    /// perturbs the schedule: runs are bit-identical with it on or off
    /// (see [`crate::prof`]).
    pub fn enable_profiling(&self) -> crate::prof::Profiler {
        let state = self.kernel.enable_prof(crate::prof::DEFAULT_BUCKET_NS);
        crate::prof::Profiler::new(state, Arc::clone(&self.kernel))
    }

    /// Runs for `d` more virtual time from the current instant.
    ///
    /// # Panics
    ///
    /// Re-raises any panic from a simulated process.
    pub fn run_for(&self, d: std::time::Duration) -> SimResult<()> {
        let deadline = self.now().as_nanos().saturating_add(d.as_nanos() as u64);
        self.kernel.run_loop(Some(deadline), false)
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        let joins: Vec<_> = {
            let mut st = self.kernel.state.lock();
            st.stop = true;
            let mut joins = Vec::new();
            for p in st.procs.iter_mut() {
                if !p.finished {
                    p.killed = true;
                    p.dead.store(true, Ordering::Relaxed);
                    p.parker.unpark();
                }
                if let Some(j) = p.join.take() {
                    joins.push(j);
                }
            }
            joins
        };
        for j in joins {
            let _ = j.join();
        }
        // A killed process's waiter stays in its condition and holds the
        // kernel; a timer still queued (a write in flight at the stop) can
        // hold the node owning that condition. Drop the queue, outside the
        // lock, or that cycle keeps the kernel and everything the timers
        // reach alive.
        let pending = self.kernel.state.lock().queue.take();
        drop(pending);
    }
}
