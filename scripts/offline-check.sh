#!/usr/bin/env bash
# Tier-1 and what it does not cover: every workspace test in release mode,
# the two tests whose readings are per process once more on their own, the
# reply-wave sweep test twenty times, and the nine extension gates of the
# solros-bench binary (e8 five times: each
# wave is one publish, so it is deterministic; e6 three times: its recall
# storm drives calls parked on a lease across two engines). Needs no registry; exits nonzero on the first
# failure. Ends with the per-crate line counts of scripts/loc.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline --workspace --release
cargo test -q --offline --release -p solros --test idle_wake -- --test-threads=1
cargo test -q --offline --release -p solros-bench --test alloc_budget -- --test-threads=1
# The reply-wave sweep reads counters the engine bumps after its publish;
# twenty runs in a row catch a window that counts a reply twice or never.
for _ in $(seq 20); do
    cargo test -q --offline --release -p solros-bench --lib reply_wave_publishes_collapse_with_depth
done
cargo build --release --offline -p solros-bench
for gate in e3 e3-engine e4 e5 e6 e6 e6 e7 e8 e8 e8 e8 e8 e9 e10; do
    target/release/solros-bench "$gate" >"target/$gate.out" ||
        { cat "target/$gate.out"; echo "FAIL: solros-bench $gate"; exit 1; }
done
echo "offline-check: tests and all nine extension gates passed (e8 five times, e6 three times)"
scripts/loc.sh
