#!/usr/bin/env bash
# The full local CI gate: build, tests, formatting, lints.
# The build environment is offline; all dependencies are path deps
# (crates/* and the vendored shims/*), so --offline must always work.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
# Every test in the workspace: the root suite, fa-faults, and the
# per-crate proptests and differential tests (fa-mem, fa-heap,
# fa-allocext, fa-wal, fa-exec, ...).
cargo test -q --offline --workspace
# The benchmark package (fabench/) is its own workspace: its arithmetic
# tests (statistics, host correction) run here.
cargo test -q --offline --manifest-path fabench/Cargo.toml
cargo fmt --check
cargo clippy -q --offline --workspace --all-targets -- -D warnings

# Fault-injection liveness gate: every named scenario must leave the
# runtime live (input conservation is asserted inside the bench).
cargo run --release --offline -p fa-bench --bin faults -- --check

# Performance regression gate: wall-clock throughput and snapshot cost
# and the TLB walk count vs the committed results/perf.json baseline,
# plus the >=2x virtual-time speedup of parallel diagnosis on Apache
# and Squid.
cargo run --release --offline -p fa-bench --bin perf -- --check

# Sentry gate: at rate 1/64 the mean allocator overhead must stay under
# the 5% always-on budget and at least one run must be caught before its
# organic crash point; the sweep is virtual-clock-deterministic, so the
# comparison against results/sentry.json is exact.
cargo run --release --offline -p fa-bench --bin sentry -- --check

# Crash-safety gate: a killed supervisor must recover its journaled
# state in under 5% of a cold fleet start, lose zero patch epochs,
# re-converge byte-identically, and stay immunized. (The per-kill-point
# acceptance sweep runs in the root test suite: crash_supervision.rs.)
cargo run --release --offline -p fa-bench --bin crash -- --check

# Patch-plane scale gate: lock-free reads must beat the locked baseline
# by >=5x under contention, time-to-fleet-immunity must stay sublinear
# from 10^2 to 10^5 workers, and the virtual-time propagation outputs
# must match results/fleet_scale.json exactly (seeded + deterministic);
# query throughput is the median of seven timed phases per fleet size.
# Single-worker throughput regressions are covered by the perf gate
# above; this gate covers the fleet-scale query path.
cargo run --release --offline -p fa-bench --bin fleet_scale -- --check
