//! Golden schedule corpus: fixed-work shapes whose schedule fingerprint is
//! pinned to committed values.
//!
//! `schedule_hash.rs` proves that the scheduler engines agree with each
//! other; this file proves that the *program* still executes the schedule it
//! executed when the values below were recorded. A refactor that claims to
//! be schedule-neutral — merging two code paths, moving a verb, reshaping a
//! batch — must leave every entry here unchanged. A change that moves an
//! entry on purpose updates it in the same commit and says why.
//!
//! Each Heron shape pins the event-order hash, the event count and the final
//! virtual time, plus the fabric's doorbell and posted-write counters, so a
//! change in how unsignaled writes are grouped into doorbells shows up by
//! name even where it would also move the hash. Chaos shapes pin the hash
//! and the checker's verdict.
//!
//! The shapes cover `max_batch` 1 (the paper's system) and 8, the
//! all-involved and active-only execution modes, a width-4 executor pool, a
//! follower crash under group commit (batched retransmission), a chaos seed
//! that crashes an ordering leader (election backfill and unbatched
//! retransmission), and a durable-recovery seed (power loss, WAL reload).

use heron_bench::chaos;
use heron_bench::{run_heron, RunConfig, Workload};
use heron_core::ExecutionMode;
use std::time::Duration;

/// A pinned Heron run: `(schedule_hash, events, virtual_ns, doorbells,
/// posted_writes)`.
type Golden = (u64, u64, u64, u64, u64);

/// The corpus's base shape: 2 partitions × 3 replicas, 30 requests, seed 42.
fn shape(workload: Workload, max_batch: usize) -> RunConfig {
    RunConfig::new(2, 3, workload)
        .with_requests(30)
        .with_max_batch(max_batch)
}

fn active_only(mut cfg: RunConfig) -> RunConfig {
    cfg.execution_mode = ExecutionMode::ActiveOnly;
    cfg
}

/// Runs `cfg` and compares it to `golden`. Tracing is on only to read the
/// fabric counters from the metrics registry; it is schedule-invisible
/// (`prof_explain` pins the on/off hash).
fn check(name: &str, cfg: RunConfig, golden: Golden) {
    let s = run_heron(&cfg.with_tracing(true));
    let counter = |key: &str| {
        s.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("{name}: counter {key} missing"))
    };
    let got = (
        s.schedule_hash,
        s.events,
        s.virtual_ns,
        counter("fabric.doorbells"),
        counter("fabric.posted_writes"),
    );
    assert_eq!(
        got, golden,
        "{name}: (schedule_hash, events, virtual_ns, doorbells, posted_writes) \
         left the golden corpus; got ({:#018x}, {}, {}, {}, {})",
        got.0, got.1, got.2, got.3, got.4
    );
}

/// Runs a chaos scenario and compares its schedule hash and verdict.
fn check_chaos(name: &str, sc: &chaos::Scenario, hash: u64, verdict: &str) {
    let (result, got) = chaos::run_with_engine(sc, sim::EngineConfig::default());
    let got_verdict = format!("{result:?}");
    assert_eq!(
        (got, got_verdict.as_str()),
        (hash, verdict),
        "{name}: schedule hash or verdict left the golden corpus; got {got:#018x}"
    );
}

#[test]
fn tpcc() {
    check(
        "tpcc mb1",
        shape(Workload::Tpcc, 1),
        (0x61b9_0793_94cd_4ba6, 26164, 2_550_672, 4930, 4510),
    );
    check(
        "tpcc mb8",
        shape(Workload::Tpcc, 8),
        (0xb918_e9f1_93a7_59f1, 24043, 2_268_472, 4611, 4493),
    );
}

#[test]
fn tpcc_active_only() {
    check(
        "tpcc active-only mb1",
        active_only(shape(Workload::Tpcc, 1)),
        (0x6f7d_3ada_9a64_8e8c, 26963, 2_591_433, 5098, 4678),
    );
    check(
        "tpcc active-only mb8",
        active_only(shape(Workload::Tpcc, 8)),
        (0x53db_a98e_4bf0_7187, 24368, 2_327_091, 4603, 4675),
    );
}

#[test]
fn null() {
    check(
        "null mb1",
        shape(Workload::Null, 1),
        (0x6ed5_5505_05a8_6c8f, 21575, 1_193_147, 4337, 4337),
    );
    check(
        "null mb8",
        shape(Workload::Null, 8),
        (0x3a19_ba4c_c705_724f, 18359, 669_376, 3551, 4267),
    );
}

#[test]
fn psmr_width4() {
    check(
        "psmr w4",
        shape(Workload::Tpcc, 1)
            .with_warehouses_per_partition(8)
            .with_width(4),
        (0x0b59_f9f2_d7de_f3e4, 32213, 1_246_417, 5462, 5252),
    );
}

/// A follower of partition 0 crashes and recovers mid-run under group
/// commit: the leader catches it up with doorbell-batched retransmission.
#[test]
fn tpcc_follower_crash_batched() {
    check(
        "tpcc follower crash mb8",
        shape(Workload::Tpcc, 8)
            .with_crash(Duration::from_micros(500), Duration::from_micros(1200)),
        (0x143a_eeaf_a223_5f8c, 24256, 2_593_390, 4507, 4478),
    );
}

/// Chaos seed 9439 crashes partition 1's ordering leader: a follower takes
/// over and backfills a shorter peer with two entries, and the leaders
/// retransmit to the recovered replica one entry per doorbell.
#[test]
fn chaos_ordering_leader_crash() {
    check_chaos(
        "chaos seed 9439",
        &chaos::scenario_for_seed(9439, true),
        0xae2c_552e_bc3d_b3e9,
        "Pass { ops: 62 }",
    );
}

/// Durable-recovery seed 9028 power-cycles the ordering leader, so WAL
/// reload, election backfill (two peers, up to three entries each) and
/// retransmission all run. Backfilling two peers once made this seed's
/// schedule depend on hash-map iteration order.
#[test]
fn durable_recovery() {
    check_chaos(
        "recovery seed 9028",
        &chaos::recovery_scenario_for_seed(9028, true),
        0x2367_bf80_a4a8_99ea,
        "Pass { ops: 62 }",
    );
}
