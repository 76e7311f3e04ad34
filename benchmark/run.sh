#!/usr/bin/env bash
# The repo's benchmark in one command. With no arguments it runs all six
# workloads interleaved (`run`); any arguments are passed through, e.g.
#   benchmark/run.sh run --smoke
#   benchmark/run.sh --workload epoch_mix_8 --seed 11 --seconds 10 --trace 0
#   benchmark/run.sh compare a.json -- b.json
set -euo pipefail
cd "$(dirname "$0")/.."
if [ "$#" -eq 0 ]; then
    set -- run
fi
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
