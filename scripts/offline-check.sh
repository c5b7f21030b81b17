#!/usr/bin/env bash
# Tier-1 and what it does not cover: every workspace test in release mode,
# the two tests whose readings are per process once more on their own, and
# the nine extension gates (e8 five times: each wave is one publish, so it is
# deterministic). Needs no registry; exits nonzero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline --workspace --release
cargo test -q --offline --release -p solros --test idle_wake -- --test-threads=1
cargo test -q --offline --release -p solros-bench --test alloc_budget -- --test-threads=1
cargo build --release --offline -p solros-bench --bin extensions
for gate in e3 e3-engine e4 e5 e6 e7 e8 e8 e8 e8 e8 e9 e10; do
    target/release/extensions "$gate" >"target/$gate.out" ||
        { cat "target/$gate.out"; echo "FAIL: extensions $gate"; exit 1; }
done
echo "offline-check: tests and all nine extension gates passed (e8 five times)"
