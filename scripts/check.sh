#!/usr/bin/env bash
# Repo-wide checks: lint the whole workspace (warnings are errors), make
# sure the rustdoc for every crate still builds, run the test suite, and
# finish with a short invariant/differential-oracle fuzz smoke (fails on
# any violation; see EXPERIMENTS.md "Invariant checking & fuzzing").
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> drain-fuzz smoke (invariants + differential oracle)"
# The wake-driven Phase A scheduler is on (config default) for every
# leg, so the smoke — sabotage injection included — also soaks the wake
# graph under the deep sweep's missed-wake oracle.
cargo build --release -p drain-bench --bin drain_fuzz --quiet
./target/release/drain_fuzz --smoke --json results/drain_fuzz_smoke.json
./target/release/drain_fuzz --smoke --seed-fault \
    --json results/drain_fuzz_smoke_fault.json

echo "==> drain-trace smoke (event trace + telemetry on a 4x4 mesh)"
# The binary re-parses every JSONL line it wrote and asserts drain-epoch
# cadence, so a zero exit is the smoke pass; golden-trace determinism is
# covered by the drain-bench test suite above.
cargo build --release -p drain-bench --bin drain_trace --quiet
./target/release/drain_trace --mesh 4x4 --cycles 8192 \
    --out results/trace_smoke
cargo test -p drain-bench --test golden_trace -q

echo "==> trace overhead benchmark (smoke mode)"
cargo bench -p drain-bench --bench trace_overhead -- --test

echo "==> routing-table benchmark (smoke mode: DistanceMap + up*/down* at 64/256/1024 routers)"
# One untimed build of each all-pairs table per size; no timing gate,
# but a regression to per-pair heap tables at least runs here.
cargo bench -p drain-bench --bench routing_tables -- --test

echo "==> kernel benchmark (smoke mode: untimed low + saturated presets)"
# One untimed pass of every (preset, scheme) point — including the
# saturated preset, so the dense-sweep path can't silently break — plus
# the cross-refactor golden pins: trace-byte and Stats digests recorded
# before the struct-of-arrays kernel landed (see DESIGN.md §7.6). Any
# change to visit order, RNG draw schedule, or candidate ordering fails
# here, not in a figure regeneration a week later.
scripts/bench_kernel.sh --test
cargo test -p drain-bench --test golden_pin -q

echo "==> drain-metrics smoke (registry + phase profiler + exposition round-trip)"
# The binary re-parses its merged JSONL stream and its Prometheus file
# (round-trip must be byte-identical) and asserts the merged phase
# attribution sums to ~100%; the profiler-is-invisible differentials get
# a named CI line alongside it.
cargo build --release -p drain-bench --bin drain_metrics --quiet
./target/release/drain_metrics --mesh 4x4 --cycles 8192 --points 2 \
    --out results/metrics_smoke
cargo test -p drain-bench --test metrics -q
# Golden pins must reproduce with the profiler sampling at the default
# cadence — metrics are pure observers and this holds them to it.
DRAIN_PROFILE=64 cargo test -p drain-bench --test golden_pin -q

echo "==> wake-scheduler smoke (wake-vs-dense differentials + dense golden pins)"
# The golden-pin run above already gates the wake-driven Phase A scheduler
# (it is the config default). Here the wake-vs-dense differentials get a
# named CI line, and the pins are repeated once with the dense scan forced
# — both schedulers must reproduce the same FNV constants bit-for-bit.
cargo test -p drain-bench --test determinism -q wake_scheduler
DRAIN_PHASE_A=dense cargo test -p drain-bench --test golden_pin -q

echo "==> keyed-RNG smoke (keyed pins + differentials + keyed fuzz leg)"
# The keyed counter-based RNG (DESIGN.md §11, determinism contract v2)
# has its own golden-pin family and differential suite: keyed pins must
# reproduce at wake on/off × fast-forward on/off, and keyed draws must
# be invariant under visit-order permutations. All keyed tests set
# their mode explicitly, so these filters are env-independent; the
# DRAIN_RNG=keyed env path is exercised by the fuzz leg, which also
# re-proves sabotage detection is mode-independent.
cargo test -p drain-bench --test golden_pin -q keyed
cargo test -p drain-bench --test determinism -q keyed
cargo test -p drain-netsim --test rng_props -q
DRAIN_RNG=keyed ./target/release/drain_fuzz --smoke \
    --json results/drain_fuzz_smoke_keyed.json
./target/release/drain_fuzz --smoke --rng-mode keyed --seed-fault \
    --json results/drain_fuzz_smoke_keyed_fault.json

echo "All checks passed."
