#!/usr/bin/env bash
# Full local verification: what CI runs, in the same order.
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo clippy -D warnings"
cargo clippy --all-targets --release -- -D warnings

echo "==> pbsm-lint (invariant linter)"
scripts/lint.sh
test -s bench_results/lint.json

echo "==> cargo test"
cargo test -q --release

echo "==> pbsmbench test (its own workspace: builds against the library APIs it calls)"
cargo test -q --release --offline --manifest-path pbsmbench/Cargo.toml

echo "==> lockcheck stress (debug build: latch-order sentinel armed, 8 threads)"
PBSM_SERVE_THREADS=8 PBSM_LOCKCHECK_DUMP=bench_results/lockcheck_violation.txt \
    cargo test -q -p pbsm --test concurrent_serving

echo "==> perf-lab smoke (bench_all @ PBSM_SCALE=0.02, regression gate vs baseline)"
scripts/bench.sh --scale 0.02 --tol 0.02
test -s bench_results/bulkload_vs_insert.json
test -s bench_results/bulkload_vs_insert.txt

echo "==> chaos smoke (seeded fault sweep vs fault-free oracle)"
scripts/chaos.sh

echo "==> crash smoke (kill-restart-verify sweep, journal recovery + resume)"
scripts/crash.sh

echo "==> soak smoke (mixed workload, time-series sampler, leak/SLO sentinels)"
scripts/soak.sh --queries 250 --scale 0.01

echo "==> serve smoke (multi-reader stress suite + query_service bench)"
scripts/serve.sh --queries 120 --scale 0.02

echo "==> shard smoke (K-shard scatter-gather vs oracle + single-shard crash sweep)"
scripts/shard.sh

echo "==> profile smoke (EXPLAIN ANALYZE + pbsm-profile-v1 schema validation)"
PBSM_SCALE=0.02 cargo run -q --release -p pbsm-bench --bin profile_smoke
test -s bench_results/profile_smoke.json

echo "verify: OK"
