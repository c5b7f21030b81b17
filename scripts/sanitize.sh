#!/usr/bin/env bash
# AddressSanitizer (with its leak checker) over the tests of the crates whose
# `unsafe` moves payload bytes: the shared PCIe regions and windows
# (solros-pcie), the NVMe store and device (solros-nvme), the file system
# (solros-fs) and the stubs and proxies (solros). Needs the nightly
# toolchain, which ships the ASan runtime; the explicit target keeps build
# scripts and proc macros uninstrumented. Builds into target/asan so the
# instrumented artifacts do not replace the regular ones.
#
# Run it on an otherwise idle machine: ASan's slowdown plus other load can
# trip the 2 s wall-clock watchdogs of crates/core/tests/tcp_handler.rs.
#
#   scripts/sanitize.sh                    every test of the four crates
#   scripts/sanitize.sh --lib              extra arguments go to cargo test
set -euo pipefail
cd "$(dirname "$0")/.."

export RUSTFLAGS=-Zsanitizer=address
export RUSTDOCFLAGS=-Zsanitizer=address
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/asan}"
cargo +nightly test --offline --target x86_64-unknown-linux-gnu \
    -p solros-pcie -p solros-nvme -p solros-fs -p solros "$@"
