#!/usr/bin/env bash
# Tier-1 where no crate registry is reachable.
#
# The root workspace names rand, parking_lot, bytes, crossbeam, proptest and
# criterion, so `cargo test` cannot resolve offline. This stages a throwaway
# copy of the workspace under target/offline-ws/, drops what needs proptest or
# criterion (their dev-dependencies, the two [[bench]] targets, the
# prop_*.rs / proptest_*.rs integration tests), patches the other four crates
# onto the std-backed stand-ins in benchmark/stubs/ (read only), then runs
# every remaining test and the nine extension gates in release mode (the e8
# gate five times; the idle-CPU test and the allocation-budget test, whose
# readings are per process, once more on their own).
#
# Usage: scripts/offline-check.sh      (from anywhere; exits nonzero on failure)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
ws="$root/target/offline-ws"
stubs="$root/benchmark/stubs"

# Restage the sources; $ws/target survives so reruns are incremental.
mkdir -p "$ws"
rm -rf "$ws/Cargo.toml" "$ws/crates" "$ws/src" "$ws/tests" "$ws/examples"
cp -a "$root/Cargo.toml" "$root/crates" "$root/src" "$root/tests" "$root/examples" "$ws/"

find "$ws" -path "$ws/target" -prune -o -name Cargo.toml -print0 |
    xargs -0 sed -i -E '/^(proptest|criterion)\b/d'
sed -i '/^\[\[bench\]\]/,$d' "$ws/crates/bench/Cargo.toml"
rm -rf "$ws/crates/bench/benches"
find "$ws/tests" "$ws"/crates/*/tests \( -name 'prop_*.rs' -o -name 'proptest_*.rs' \) -delete

cat >>"$ws/Cargo.toml" <<EOF

[patch.crates-io]
parking_lot = { path = "$stubs/parking_lot" }
rand = { path = "$stubs/rand" }
bytes = { path = "$stubs/bytes" }
crossbeam = { path = "$stubs/crossbeam" }
EOF

cd "$ws"
cargo test --offline --workspace --release
# The idle-CPU reading is per process: once more with no neighbour threads.
cargo test --offline --release -p solros --test idle_wake -- --test-threads=1
# So is the allocation count (crates/nvme's two-thread status test needs
# release mode to interleave; the workspace run above already is).
cargo test --offline --release -p solros-bench --test alloc_budget -- --test-threads=1
cargo build --offline --release -p solros-bench --bin extensions
# e8 submits each wave with one publish, so it is deterministic: five in a row.
for gate in e3 e3-engine e4 e5 e6 e7 e8 e8 e8 e8 e8 e9 e10; do
    echo "== extensions $gate"
    "$ws/target/release/extensions" "$gate" >"$ws/target/$gate.out" ||
        { cat "$ws/target/$gate.out"; echo "FAIL: extensions $gate"; exit 1; }
done
echo "offline-check: tests and all nine extension gates passed (e8 five times)"
