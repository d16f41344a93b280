#!/usr/bin/env bash
# Runs the whole benchmark twice on the current code and checks that the
# two sets agree: every end-to-end metric within its bound, every count
# that repeats exactly for a seed and every answer digest equal.
# Extra arguments go to the runner, e.g. `./agree.sh --seed 7`.
set -euo pipefail
exec cargo run --release --offline --quiet \
  --manifest-path "$(dirname "$0")/Cargo.toml" -- --agree "$@"
