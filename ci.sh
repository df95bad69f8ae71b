#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merge.
# Mirrors .github/workflows/ci.yml so the same commands run locally.
set -euxo pipefail

cargo build --release
# Every package of the workspace, not just the root suite: the runtime,
# cluster, core, datalet ... unit and integration tests live there.
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings

# The frozen benchmark is a package of its own (BENCHMARK.json runs it):
# an API change that breaks it must fail here, not in the pipeline.
cargo test -q --manifest-path crates/bench/src/bin/spine/Cargo.toml
cargo run --release --quiet --manifest-path crates/bench/src/bin/spine/Cargo.toml -- --smoke

# Benchmarks must keep compiling (criterion harnesses + probe binaries)
# even though CI doesn't run them.
cargo bench --no-run -p bespokv-bench

# Consistency oracle: checker unit tests + the full mode x seed sweep
# (linearizability for SC, convergence for EC, transition, teeth test).
cargo test -p bespokv-checker -q
cargo test --test consistency_oracle -q

# The same sweep with aggressive load shedding armed (head window 1,
# 2 ms queue bound, tight MS+EC watermarks): sheds, forced trims and
# resyncs must never become consistency violations.
BESPOKV_SHED=1 cargo test --test consistency_oracle -q

# The same sweep with the flat-combining write path armed everywhere:
# MS ingresses must combine, AA ingresses must keep the gate shut, and
# kills/rejoins must never lose or duplicate an acked combined write.
BESPOKV_WRITE_COMBINE=1 cargo test --test consistency_oracle -q

# The same sweep with the skew engine armed (hot-key sketch, validating
# edge cache, clean-replica read spreading): cached serves and spread
# strong reads must never become stale reads, and AA modes must keep
# the cache stone cold (no ServeIfClean grant ever).
BESPOKV_SKEW=1 cargo test --test consistency_oracle -q

# The same sweep with gray-failure stall injection armed (a replica
# wedged solid mid-outage, a gray partition where heartbeats flow but
# client traffic stalls, a slow-node window), alone and stacked with
# the skew engine: alive-but-stuck nodes must never become stale reads
# or lost acks.
BESPOKV_STALL=1 cargo test --test consistency_oracle -q
BESPOKV_STALL=1 BESPOKV_SKEW=1 cargo test --test consistency_oracle -q

# Crash durability (DESIGN.md 14): the truncate-at-every-byte torn-write
# harness, then the kill -9 + restart-from-disk oracle sweep across all
# four modes — acked-durable writes must survive restart, MS modes must
# delta-sync instead of full-snapshotting, and no cut point may ever
# serve corrupt data.
cargo test -q -p bespokv-datalet --test crash_recovery
cargo test -q --test crash_restart

# Crash durability with stall windows on the survivors: a wedge during
# phase B and gray/slow windows during the drain must not cost a single
# acked-durable write.
BESPOKV_STALL=1 cargo test -q --test crash_restart

# The three surviving probes must build; CI doesn't run them
# (timing-sensitive), see EXPERIMENTS.md for the BENCH_saturate.json /
# BENCH_connscale.json / BENCH_relaystall.json recipes.
cargo build --release -p bespokv-bench --bin saturate
cargo build --release -p bespokv-bench --bin connscale
cargo build --release -p bespokv-bench --bin relaystall
