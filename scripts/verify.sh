#!/usr/bin/env bash
# Tier-1 verification gate for the qens workspace.
#
# Runs entirely offline (no crates-io access is required — every crate
# is dependency-free):
#
#   1. release build of the whole workspace,
#   2. the full test suite, three times in a row at the default test
#      parallelism — the canary for tests that share process-global
#      state (telemetry registry, trace store) without taking their
#      file's lock: such a test passes alone and under
#      --test-threads=1 and fails only when a sibling lands inside it.
#      The suite is also the end-to-end check: it runs the built
#      `repro` binary (--smoke, profile, fleet, scale, the refusals)
#      and drives live servers over real sockets (every endpoint, the
#      error and admission paths, concurrent scrapes, graceful drain),
#   3. clippy with warnings denied,
#   4. rustfmt check,
#   5. the repo benchmark's own unit tests (`benchmark/` is a workspace
#      of its own, so step 2 never sees them); this runs them only —
#      `BENCHMARK.json` and `benchmark/` are the driver's contract and
#      are measured by the driver, not here,
#   6. one 3 s run of the repo benchmark's `serve_closed` workload (run
#      only, nothing under `benchmark/` is edited): fails unless no
#      operation failed and the keep-alive p50 is under 5 ms — a reply
#      that leaves as two writes reads 44 ms there,
#   7. two 3 s runs of the repo benchmark's `fleet_churn` workload (run
#      only). The plain run fails unless no operation failed and peak
#      RSS is under 300 MB: the 20k-node fleet alone is ~100 MB, so
#      per-entry memo state that scales with the fleet (1.4 GB when
#      every entry held per-node ratio tables) cannot come back
#      unnoticed. The traced run (`--trace 1`) fails unless no operation
#      failed and `selection.latency_p99_ms` is under 2 ms: that p99 is
#      the first miss after a node re-quantises, ~0.4 ms while the index
#      is patched in place and ~5.5 ms when it is rebuilt, so a bulk
#      rebuild per mutation cannot come back unnoticed either,
#   8. one 3 s run of the repo benchmark's `fleet_select` workload (run
#      only): fails unless no operation failed and peak RSS is under
#      600 MB. Its 1M summary-only nodes read ~460 MB while each node
#      keeps its summaries in one flat block, and ~725 MB with a heap
#      block per cluster rectangle and representative.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --workspace --release --offline

echo "==> cargo test -q --offline, 3x at default test parallelism (racy-test canary)"
for run in 1 2 3; do
  cargo test -q --offline || { echo "FAIL: test suite failed on run $run of 3"; exit 1; }
done

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> benchmark package unit tests"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

# One 3 s run of a repo-benchmark workload (run only) at the given
# --trace level (1 reports the per-layer metrics instead of the
# end-to-end ones): fails unless no operation failed and the named
# metric reads below the limit.
bench_gate() { # workload trace metric limit
  local out
  echo "==> repo benchmark: $1, 3 s, --trace $2 (failed_share 0, $3 < $4)"
  out=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$1" --seconds 3 --trace "$2")
  echo "$out" | grep -E "^$1 (throughput_ops_s|latency_p50_ms|peak_rss_mb|failed_share|$3) "
  echo "$out" | awk -v workload="$1" -v metric="$3" -v limit="$4" '
    $1 == workload && $2 == "failed_share" { seen++; if ($3 + 0 != 0) bad = 1 }
    $1 == workload && $2 == metric { seen++; if ($3 + 0 >= limit) bad = 1 }
    END { exit !(seen == 2 && !bad) }' \
    || { echo "FAIL: $1 has failed operations or a $3 of $4 or more"; exit 1; }
}
bench_gate serve_closed 0 latency_p50_ms 5
bench_gate fleet_churn 0 peak_rss_mb 300
bench_gate fleet_churn 1 selection.latency_p99_ms 2
bench_gate fleet_select 0 peak_rss_mb 600

echo "verify OK"
