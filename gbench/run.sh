#!/usr/bin/env bash
# Build the benchmark and the cluster member it spawns, then run it.
# Arguments go to gbench unchanged: see its --help-less usage in README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# The driver sets CARGO_TARGET_DIR (relative to the checkout it runs from);
# the default keeps build output in one ignored directory at the repo root.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$(dirname "$here")/.bench_build}"
# gravel-node is a path dependency of this package, so one build in this
# package's own workspace produces both binaries from the same artefacts.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" -p gbench -p gravel-node >&2
exec "$CARGO_TARGET_DIR/release/gbench" "$@"
