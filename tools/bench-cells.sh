#!/bin/sh
# The scenario cells whose run-phase block transfers `bench compare`
# gates against results/baseline/. Block-transfer counts are
# deterministic for a fixed (scenario, cell, n, seed), so a difference
# is a change of I/O behaviour, never machine noise.
#
#   tools/bench-cells.sh results            # fresh rows, then `bench compare`
#   tools/bench-cells.sh results/baseline   # refresh the baseline on purpose
#
# Each run replaces its own row in <out-dir>/BENCH_<scenario>.json.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 <out-dir>" >&2
    exit 2
fi
out=$1

bench() {
    cargo run --release -p cosbt-bench --bin bench -- run "$@" --out "$out"
}

# The gcola cell also runs the --reopen cold-start phase (sync, drop all
# process state, reopen from the files, count the hits and transfers of
# cold reads), so persistence is exercised on every CI run.
bench --scenario balanced --structure gcola --shards 2 --backend file --cache-bytes 32768 --n 20000 --seed 42 --reopen
# The basic COLA (the g-COLA at g = 2, p = 0) through the facade's file
# and reopen paths.
bench --scenario balanced --structure basic --backend file --cache-bytes 32768 --n 20000 --seed 42 --reopen
# The deamortized COLA through the same paths: its row puts the g-COLA's
# budgeted merges and reopen under the gate.
bench --scenario balanced --structure deamortized --backend file --cache-bytes 32768 --n 20000 --seed 42 --reopen
bench --scenario read_heavy --structure btree --backend file --cache-bytes 16384 --n 20000 --seed 42
bench --scenario read_heavy --structure gcola --backend file --cache-bytes 16384 --n 20000 --seed 42
bench --scenario miss_heavy --structure gcola --backend file --cache-bytes 16384 --n 20000 --seed 42
bench --scenario write_heavy --structure brt --backend file --cache-bytes 16384 --n 20000 --seed 42
# The plain g-COLA carry path's gate: 3,802 run transfers, the merge I/O
# of 18k inserts with nothing contending for the cache (a carry reads
# levels 0..=t once and never the level above, writes back one version
# of each key, and growing the store touches no page), plus the I/O of
# the cell's gets, which the filter's false positives move.
bench --scenario write_heavy --structure gcola --backend file --cache-bytes 16384 --n 20000 --seed 42
bench --scenario scan_heavy --structure gcola --backend file --cache-bytes 16384 --n 20000 --seed 42
# The memory cell: zero transfers, but the scenario runner's op stream and
# the facade's memory path run on every CI event.
bench --scenario balanced --structure gcola --n 20000 --seed 42
# The out-of-core cell: ~1M keys against a 1 MiB cache (data an order of
# magnitude past memory) on the O_DIRECT device. Where a filesystem
# refuses O_DIRECT, the device falls back to buffered with a warning;
# transfer counts, the only thing the gate checks, are identical either
# way.
bench --scenario write_heavy --structure gcola --backend file --direct --cache-bytes 1048576 --n 1000000 --seed 42
