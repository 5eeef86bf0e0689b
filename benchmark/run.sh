#!/usr/bin/env bash
# Builds the benchmark from source and runs it. With no arguments it is
# `perf run`: every workload, every end-to-end metric with its unit,
# outputs checked. Arguments go to `perf` as they are, so the acceptance
# driver's `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
# and `trace`, `compare`, `run --quick` all come through here.
set -euo pipefail
cd "$(dirname "$0")/.."
# cargo resolves a relative CARGO_TARGET_DIR against this directory.
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
if [ "$#" -eq 0 ]; then
    set -- run
fi
exec "$target/release/perf" "$@"
