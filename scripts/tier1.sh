#!/usr/bin/env bash
# Tier-1 verification: release build + full test suite, fully offline.
# Every dependency is a vendored shim under shims/ (see README), so this
# must pass with no network access from a fresh checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace

# Lint gate: formatting and clippy, warnings denied. Every crate root also
# carries #![forbid(unsafe_code)], so unsafe cannot creep in silently.
cargo fmt --check
cargo clippy --all-targets --offline -- -D warnings

# Rustdoc gate: every intra-doc link must resolve, private items included,
# so a doc comment cannot keep pointing at a renamed or deleted function.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace --document-private-items

# Chaos gate: seeded fault plans through the SMR consistency checker
# (DESIGN.md §9). Fixed seed window so failures replay exactly; on a
# non-linearizable history or a stall the suite exits non-zero and prints
# the failing seed plus its shrunken minimal reproduction.
if ! cargo run -q --release --offline -p heron-bench --bin chaos_suite -- \
    --quick --seed 9000 --schedules 8; then
  echo "tier1: chaos suite FAILED — replay with:" >&2
  echo "  cargo run --release -p heron-bench --bin chaos_suite -- --quick --seed <failing seed> --schedules 1" >&2
  exit 1
fi

# Checker self-test: corrupt one applied command and require the checker to
# report the violation (proves the gate can actually fail).
cargo run -q --release --offline -p heron-bench --bin chaos_suite -- \
    --quick --selftest

# Race gate: Sim-TSan happens-before audit over the fig4/fig5/chaos
# schedule shapes at fixed seeds (DESIGN.md §10). Any race or protocol
# lint, a detector-induced schedule perturbation, or a peak RSS over the
# bound committed in race_audit.rs (paged shadow and registered memory)
# exits non-zero with the full report.
if ! cargo run -q --release --offline -p heron-bench --bin race_audit -- \
    --quick --seed 42; then
  echo "tier1: race audit FAILED — replay with:" >&2
  echo "  cargo run --release -p heron-bench --bin race_audit -- --quick --seed 42" >&2
  exit 1
fi

# Detector self-test: disable the dual-versioning victim guard and require
# the race detector to catch the resulting protocol violation.
cargo run -q --release --offline -p heron-bench --bin race_audit -- \
    --quick --selftest

# Perf gate: a short fixed-work scheduler run (DESIGN.md §12). Fails if the
# fast engine's measured speedup over the reference engine (heap queue,
# host-mediated wakeups) drops below the floor committed in
# bench_results/BENCH_scheduler.json — i.e. a >20 % events/sec regression
# against the recorded baseline. Gating on the speedup ratio, not absolute
# events/sec, keeps the gate stable across machines. Every gate run also
# re-proves the engines execute bit-identical schedules.
if ! cargo run -q --release --offline -p heron-bench --bin sched_bench -- \
    --gate --quick; then
  echo "tier1: scheduler perf gate FAILED — remeasure with:" >&2
  echo "  cargo run --release -p heron-bench --bin sched_bench -- --quick" >&2
  exit 1
fi

# P-SMR gate: executor-pool scaling (DESIGN.md §13). Sweeps width ∈
# {1,2,4,8} × conflict level on TPC-C fixed work; fails if the width-8
# speedups drop below the quick-mode floors, if any cell stalls, or if
# the width=1 identity / pool correctness tests regressed (those run in
# `cargo test` above via schedule_hash.rs / psmr_order.rs / chaos.rs).
if ! cargo run -q --release --offline -p heron-bench --bin psmr_scaling -- \
    --gate --quick; then
  echo "tier1: P-SMR scaling gate FAILED — remeasure with:" >&2
  echo "  cargo run --release -p heron-bench --bin psmr_scaling -- --quick" >&2
  exit 1
fi

# Exploration gate: Sim-Check schedule exploration (DESIGN.md §15). Pins
# the exploration-off schedule hash against a Baseline-explored run on
# both engines (fig4 + chaos + recovery shapes) and runs a fixed-seed
# random/PCT budget that must stay free of deadlock/livelock findings.
if ! cargo run -q --release --offline -p heron-bench --bin explore_suite -- \
    --gate --quick --seed 42; then
  echo "tier1: exploration gate FAILED — replay with:" >&2
  echo "  cargo run --release -p heron-bench --bin explore_suite -- --gate --quick --seed 42" >&2
  exit 1
fi

# Detector self-test: inject a deadlock, a livelock, and the re-broken
# PR 8 has_work gate; require each to be caught and shrunk to a minimal
# replayable trace (proves the exploration gate can actually fail).
cargo run -q --release --offline -p heron-bench --bin explore_suite -- \
    --quick --selftest

# Trace and profiling gate: virtual-time tracing and the Sim-Prof
# wait-state profiler (DESIGN.md §11, §16). Exports the Perfetto trace
# with counter tracks, pins the tracing + profiling off/on schedule hash
# on both engines (fig4 + chaos + psmr-w4 shapes) and on the fig7 report
# shape, requires every critical path and p999 exemplar to sum exactly to
# its end-to-end latency and the span-derived single/multi attribution to
# match the legacy Fig. 6 breakdown within 1 %, and bounds the median
# profiling CPU overhead over interleaved off/on pairs at 5 %.
if ! cargo run -q --release --offline -p heron-bench --bin prof_explain -- \
    --quick --seed 42; then
  echo "tier1: trace/profiling gate FAILED — replay with:" >&2
  echo "  cargo run --release -p heron-bench --bin prof_explain -- --quick --seed 42" >&2
  exit 1
fi

# Bench trend gate: fresh BENCH_*.json vs the committed baselines; a >20 %
# geomean regression on the psmr / recovery / scheduler figures fails.
# (Skips figure pairs that are not apples-to-apples, e.g. quick vs full.)
python3 scripts/bench_trend.py

# Recovery gate: durable checkpoints + cold restart (DESIGN.md §14). Runs
# the fixed-seed durable-recovery chaos scenarios through the checker,
# requires cold-restart cost to scale with the WAL tail (checkpoint +
# tail replay, never full history), and pins the durability-off schedule
# hash against bench_results/BENCH_recovery.json — with checkpointing
# disabled the durability subsystem must be schedule-invisible.
if ! cargo run -q --release --offline -p heron-bench --bin recovery_bench -- \
    --gate --quick; then
  echo "tier1: recovery gate FAILED — remeasure with:" >&2
  echo "  cargo run --release -p heron-bench --bin recovery_bench -- --quick" >&2
  exit 1
fi
