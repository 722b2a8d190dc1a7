#!/usr/bin/env bash
# Builds the darksil daemon and the benchmark harness from this checkout,
# then runs the harness with the given arguments:
#   bash perfbench/run.sh --workload transient|serve --seed N \
#        --seconds S --trace 0|1
# Run it from the repository root. Build output goes to CARGO_TARGET_DIR
# (default .bench_build); scratch files go to .bench_work and are removed.
set -euo pipefail

root=$(pwd)
target=${CARGO_TARGET_DIR:-.bench_build}
case $target in
    /*) ;;
    *) target=$root/$target ;;
esac
export CARGO_TARGET_DIR=$target

cargo build --release --offline --quiet --manifest-path Cargo.toml --bin darksil >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/darksil-perfbench" --darksil "$target/release/darksil" "$@"
