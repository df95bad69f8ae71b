#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merge.
# Mirrors .github/workflows/ci.yml so the same commands run locally.
set -euxo pipefail

cargo build --release
# Every package of the workspace, not just the root suite: the runtime,
# cluster, core, datalet ... unit and integration tests live there.
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings
# Docs build clean: a deleted item leaves no dangling intra-doc link.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The frozen benchmark is a package of its own (BENCHMARK.json runs it):
# an API change that breaks it must fail here, not in the pipeline.
cargo test -q --manifest-path crates/bench/src/bin/spine/Cargo.toml
cargo run --release --quiet --manifest-path crates/bench/src/bin/spine/Cargo.toml -- --smoke
# The relay-heavy workloads: every AA+SC op and every PUT is answered by
# a controlet, so the smoke's checks (SC reads see every acked PUT,
# replicas converge) cover the reply path to the edge, for chain-acked
# (MS+SC) and locally acked (MS+EC) writes alike.
cargo run --release --quiet --manifest-path crates/bench/src/bin/spine/Cargo.toml -- --smoke --workload b_zipf_aasc
cargo run --release --quiet --manifest-path crates/bench/src/bin/spine/Cargo.toml -- --smoke --workload a_unif_mssc
cargo run --release --quiet --manifest-path crates/bench/src/bin/spine/Cargo.toml -- --smoke --workload a_unif_msec

# Benchmarks must keep compiling (criterion harnesses + probe binaries)
# even though CI doesn't run them.
cargo bench --no-run -p bespokv-bench

# `--workspace` above already runs the consistency oracle sweep and the
# crash-restart sweep (with the checker and torn-write harness) on the
# one serving path every cluster has: fast path, skew engine and
# overload bounds, with every write ordered by its controlet. What it
# cannot run is each sweep again with gray-failure stall injection
# armed (a replica
# wedged solid mid-outage, a gray partition where heartbeats flow but
# client traffic stalls, a slow-node window): alive-but-stuck nodes must
# never become stale reads, lost acks or lost acked-durable writes.
BESPOKV_STALL=1 cargo test --test consistency_oracle -q
BESPOKV_STALL=1 cargo test -q --test crash_restart

# The two surviving probes must build; CI doesn't run them
# (timing-sensitive), see EXPERIMENTS.md for the BENCH_saturate.json /
# BENCH_connscale.json recipes.
cargo build --release -p bespokv-bench --bin saturate
cargo build --release -p bespokv-bench --bin connscale
