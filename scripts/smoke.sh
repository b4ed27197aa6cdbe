#!/usr/bin/env bash
# Tier-1 smoke: everything CI enforces, runnable locally in one shot.
#
#   scripts/smoke.sh          # full check
#   PROPTEST_CASES=16 scripts/smoke.sh   # faster property-test pass
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace"
cargo test --workspace --quiet

echo "==> examples (each exits 0)"
for example in examples/*.rs; do
  cargo run --release -q --example "$(basename "$example" .rs)" > /dev/null
done

echo "==> cargo doc --workspace --no-deps (rustdoc and cargo warnings are errors)"
# `-D warnings` covers rustdoc's warnings only; a cargo warning (an
# output filename collision, say) fails the step through the grep.
# No `--quiet`: it hides cargo's warnings too.
doc_log=$(RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps 2>&1) || {
  echo "$doc_log"
  exit 1
}
if grep -q '^warning:' <<<"$doc_log"; then
  echo "$doc_log"
  echo "cargo doc printed a warning" >&2
  exit 1
fi

echo "==> service smoke (serve / submit twice / cache hit / scalana diff)"
scripts/service_smoke.sh target/release/scalana

echo "==> wgen differential fuzz sweep (30 generated cases, all oracles)"
# A quick pass through the generative differential tester: 30 programs
# per oracle set, against a live in-process daemon, with shrinking on
# failure. The full 200-case run already happened under
# `cargo test --workspace`; this sweep exercises a second fixed seed.
WGEN_SEED=1337 WGEN_CASES=30 cargo test --quiet --release -p scalana-wgen

echo "==> scalbench unit tests (a package of its own, outside the workspace)"
cargo test --release --offline --quiet --manifest-path scalbench/Cargo.toml

echo "==> scalbench run --smoke (five workloads, served bytes vs in-process analysis)"
# Exits 1 on any failed op or failed byte-comparison.
cargo run --release --offline --quiet --manifest-path scalbench/Cargo.toml -- run --smoke

echo "==> scalbench population (every generated pool program analyzes; about a minute)"
# Runs each of the pool's 65,536 programs through the in-process
# analysis, including `analysis_to_json`, as CI does.
cargo test --release --offline --quiet --manifest-path scalbench/Cargo.toml -- --ignored every_pool_program_analyzes

echo "==> lines of Rust per crate, non-test and test (printed, not gated)"
scripts/loc.sh

echo "smoke: all green"
