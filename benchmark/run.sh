#!/usr/bin/env bash
# Entry point named by ../BENCHMARK.json: build sp-benchmark from this
# checkout, then hand it the arguments (--workload … --seed … --seconds …
# --trace …, or a subcommand: all, selfcheck, compare).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
# The repository's .cargo/config.toml patches the registry crates with
# absolute paths to offline-stubs/; a checkout elsewhere needs them
# pointed at its own copy. Nothing is fetched.
stubs="$root/offline-stubs"
patch=()
for crate in rand rayon proptest criterion; do
  patch+=(--config "patch.crates-io.$crate.path=\"$stubs/$crate\"")
done
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" "${patch[@]}" >&2
exec "$target/release/sp-benchmark" "$@"
