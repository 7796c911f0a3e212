#!/usr/bin/env bash
# CI gate: formatting, an offline release build, and the full offline
# test suite. The workspace has no external dependencies (see DESIGN.md
# "Dependencies"), so --offline must always succeed; a failure here means
# someone reintroduced a registry dependency.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --offline --workspace -- -D warnings

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> index differential suite (release: hybrid kernels bit-identical to scans)"
cargo test -q --release --offline -p soc-data --test index_diff

echo "==> hybrid index smoke bench (release: >=2x satisfied vs dense on skewed log, uniform within noise)"
cargo test -q --release --offline -p soc-bench smoke_hybrid_index_beats_dense -- --ignored

echo "==> projection smoke bench (release: view-backed project_onto >=10x faster than the scan at 10^5, equal outputs; retried once)"
cargo test -q --release --offline -p soc-bench smoke_projection_index_beats_scan -- --ignored --nocapture

echo "==> solver smoke bench (release, budgeted node limit)"
cargo test -q --release --offline -p soc-bench smoke_warm_solver_proves_within_node_budget -- --ignored

echo "==> observability overhead smoke (release, <=5% contract incl. sketch accuracy)"
cargo test -q --release --offline -p soc-bench smoke_obs_overhead_within_contract -- --ignored

echo "==> bench regression guard (working-tree BENCH_*.json vs HEAD baselines, >15% ratio regression or telemetry-contract violation fails)"
scripts/bench_guard.sh

echo "==> sketch-and-refine smoke (release: gap <=5% vs exact at 10^3, >=5x speedup at 10^5, verified upper >= exact; retried once)"
cargo test -q --release --offline -p soc-bench smoke_sketch_gap_and_speedup -- --ignored --nocapture

echo "==> soc-serve smoke (release: ephemeral port, hello/load/solve/stats/shutdown, clean exit)"
cargo test -q --release --offline -p soc-cli --test serve_smoke -- --ignored

# perfbench is a separate workspace (so `cargo test --workspace` never
# compiles it) that imports soc-obs and soc-serve; build it and replay
# both end-to-end workloads briefly. perfbench exits 0 only when every
# answer checks out.
for workload in solve_projected batch_exact; do
  echo "==> perfbench smoke (release: $workload, 3 s traced run, every answer checked)"
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 3 --trace 1
done

echo "CI OK"
