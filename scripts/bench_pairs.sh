#!/usr/bin/env bash
# The paired protocol a performance claim is shown with.
#
#   scripts/bench_pairs.sh <parent-ref> [workload...]
#
# Unpacks <parent-ref> (`git archive`) under .bench_build/, builds the
# benchmark/ package of both sides (each from its own checkout, so
# identical harness code times two versions of the crates), then runs
# PAIRS pairs per workload at the benchmark's own run length. Within a
# pair both sides get the same seed; which side goes first alternates.
# Seeds start at 1001 (development runs use single digits), or at
# $FIRST_SEED for a second set of pairs on seeds no run has seen.
#
# Every run is appended to .bench_build/parent.runs.jsonl or
# .bench_build/change.runs.jsonl, and every pair's `wall_s` and
# `op_p90_ms` to .bench_build/pairs.tsv; the script ends with the per-pair
# `wall_s` tally, the `op_p90_ms` tally for `corpus_grid`, and
# `benchmark compare` over the two logs, whose exit code it returns. A gain is claimed when the change wins at least nine
# tenths of the pairs and the medians differ by more than the parent's
# interquartile spread (both are printed).
#
# Before any timing it prints the deterministic proxy a dispatch change is
# gated on, `dump_opt paper:all` (dispatch slots per innermost loop of each
# paper kernel, DESIGN.md §10) for parent and change; a parent whose
# `dump_opt` predates `paper:all` is asked kernel by kernel. Then the
# proxy a compile-path change is gated on, `alloc_census` (heap
# allocations from source to O2 bytecode, per stage, for the corpus
# barrier programs): the change's census program, run against each side's
# crates.
#
# `paper_compute` is ~100 % one function, `hsm_vm::vm::Vm::run_until_event`,
# and where the linker puts it (any edit to a crate linked before hsm-vm
# moves it) is worth up to 11 % with byte-identical code: address = 0 or
# 16 (mod 64) is slow, 32 or 48 fast. The script prints the symbol's
# address on both sides and repeats the warning next to the verdict when
# they differ mod 64.
#
# A run takes its free units ahead on a second host thread when the host
# has one to spare (RCCE cores since ISSUE 22, the pthread baseline's
# threads since ISSUE 23), which is where a `paper_compute` gain or loss
# comes from. So the script prints what the host offers (`nproc`, the load
# average, and `std::thread::available_parallelism` as a process started
# here sees it) next to the addresses, and refuses a `paper_compute`
# verdict on fewer than two CPUs: both sides would run serially and the
# pairs would compare nothing. Being offered a second CPU is not getting
# one: on the shared 2-vCPU container whole processes run with the second
# thread delivering nothing (two threads of fixed work taking twice as long
# as one) while `nproc` says 2 and the load average stays below 1. So the
# same probe also times a fixed spin on one thread and on two and prints
# the speed-up (2.0 = a whole second CPU, 1.0 = none) before the first
# pair and after the last, and a warning goes next to the `paper_compute`
# verdict when either reads below 1.5.
set -euo pipefail

PAIRS=10
FIRST_SEED=${FIRST_SEED:-1001}

[ $# -ge 1 ] || { echo "usage: $0 <parent-ref> [workload...]" >&2; exit 2; }
root=$(git rev-parse --show-toplevel)
cd "$root"
parent_ref=$1
shift
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(paper_compute paper_memory corpus_grid serve_mix)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)

build=$root/.bench_build
tree=$build/parent
rm -rf "$tree"
mkdir -p "$tree"
git archive "$parent_ref" | tar -x -C "$tree"
echo "parent $(git rev-parse --short "$parent_ref"), change: working tree at $(git rev-parse --short HEAD)"

cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"

# Address of the dispatch loop in one side's benchmark binary.
loop_addr() { # <checkout>
    nm -C "$1/benchmark/target/release/benchmark" |
        grep ' hsm_vm::vm::Vm::run_until_event$' | cut -d' ' -f1
}
parent_addr=$(loop_addr "$tree")
change_addr=$(loop_addr "$root")
parent_mod=$((16#$parent_addr % 64))
change_mod=$((16#$change_addr % 64))
echo "Vm::run_until_event: parent $parent_addr (= $parent_mod mod 64), change $change_addr (= $change_mod mod 64)"

# The slot table of one side, built from its own checkout.
slot_table() { # <checkout>
    (
        cd "$1"
        cargo build --release --offline --quiet --example dump_opt
        ./target/release/examples/dump_opt paper:all 2>/dev/null ||
            for kernel in pi 3-5 primes stream dot lu; do
                ./target/release/examples/dump_opt "paper:$kernel" 32 tf |
                    sed -n "s/^loop /$kernel: loop /p"
            done
    )
}
echo "dispatch slots per paper-kernel loop (dump_opt paper:all), parent:"
slot_table "$tree"
echo "change:"
slot_table "$root"

# The compile path's allocation census of one side; a parent that
# predates the census program is given the change's.
census() { # <checkout>
    (
        cd "$1"
        [ -f examples/alloc_census.rs ] || cp "$root/examples/alloc_census.rs" examples/
        cargo run --release --offline --quiet --example alloc_census
    )
}
echo "compile-path heap allocations (alloc_census), parent:"
census "$tree"
echo "change:"
census "$root"

# What a benchmark process started from here is told it may use (the
# affinity mask capped by any cgroup quota, asked of std itself), and
# what a second thread then delivers: the same dependent multiply-add
# chain timed on one thread and on two at once, as `2 * one / two`.
cat > "$build/parallelism.rs" <<'EOF'
use std::time::Instant;

fn spin() -> u64 {
    let mut x = std::hint::black_box(1u64);
    for i in 0..100_000_000u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    std::hint::black_box(x)
}

fn main() {
    let offered = std::thread::available_parallelism().map_or(1, usize::from);
    let start = Instant::now();
    spin();
    let one = start.elapsed().as_secs_f64();
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(spin);
        spin();
    });
    let two = start.elapsed().as_secs_f64();
    println!("{offered} {:.2}", 2.0 * one / two);
}
EOF
rustc -O -o "$build/parallelism" "$build/parallelism.rs"
read -r parallelism speedup_before < <("$build/parallelism")
echo "host: nproc $(nproc), available_parallelism $parallelism, two threads deliver ${speedup_before}x one, loadavg $(cat /proc/loadavg)"
if ((parallelism < 2)) && [[ " ${workloads[*]} " == *" paper_compute "* ]]; then
    echo "refusing a paper_compute verdict: available_parallelism is $parallelism, and the workload's" >&2
    echo "RCCE points need a second CPU to advance cores on; name the other workloads to run those." >&2
    exit 3
fi

# Runs one side from its own checkout and prints its wall_s and
# op_p90_ms, tab-separated.
run_side() { # <checkout> <log> <workload> <seed>
    (cd "$1" && ./benchmark/target/release/benchmark \
        --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 --log "$2") |
        tail -n 1 |
        sed -n 's/.*"wall_s": {"value": \([0-9.e+-]*\).*"op_p90_ms": {"value": \([0-9.e+-]*\).*/\1\t\2/p'
}

parent_log=$build/parent.runs.jsonl
change_log=$build/change.runs.jsonl
tally=$build/pairs.tsv
rm -f "$parent_log" "$change_log" "$tally"
for workload in "${workloads[@]}"; do
    for ((pair = 0; pair < PAIRS; pair++)); do
        seed=$((FIRST_SEED + pair))
        if ((pair % 2 == 0)); then
            p=$(run_side "$tree" "$parent_log" "$workload" "$seed")
            c=$(run_side "$root" "$change_log" "$workload" "$seed")
        else
            c=$(run_side "$root" "$change_log" "$workload" "$seed")
            p=$(run_side "$tree" "$parent_log" "$workload" "$seed")
        fi
        # workload, seed, parent wall_s and op_p90_ms, change wall_s and op_p90_ms.
        printf '%s\t%s\t%s\t%s\n' "$workload" "$seed" "$p" "$c" | tee -a "$tally"
    done
done

# Pairs the change won on the columns <parent> <change> of the tally.
pairs_won() { # <parent-column> <change-column> [workload]
    awk -F'\t' -v p="$1" -v c="$2" -v only="${3:-}" '
        only != "" && $1 != only { next }
        { n[$1]++; if ($c < $p) w[$1]++; else if ($c > $p) l[$1]++ }
        END { for (k in n) printf "  %-14s %d/%d won, %d lost\n", k, w[k], n[k], l[k] }' "$tally"
}
read -r _ speedup_after < <("$build/parallelism")
echo
echo "host after the last pair: two threads deliver ${speedup_after}x one, loadavg $(cat /proc/loadavg)"
echo "wall_s pairs won by the change (ties count for neither):"
pairs_won 3 5
if grep -q '^corpus_grid' "$tally"; then
    echo "op_p90_ms pairs won by the change:"
    pairs_won 4 6 corpus_grid
fi
echo
if ((parent_mod != change_mod)); then
    echo "NOTE: Vm::run_until_event sits at = $parent_mod (parent) vs = $change_mod (change) mod 64:"
    echo "      a paper_compute delta of up to ~11 % below is code placement, not the change."
    echo
fi
if [[ " ${workloads[*]} " == *" paper_compute "* ]] &&
    awk -v a="$speedup_before" -v b="$speedup_after" 'BEGIN { exit !(a < 1.5 || b < 1.5) }'; then
    echo "WARNING: a second thread delivered ${speedup_before}x before the pairs and ${speedup_after}x after (2.0 = a"
    echo "         whole CPU): in such stretches both sides run their units serially, so the"
    echo "         paper_compute rows below understate whatever a second CPU would show."
    echo
fi
"$root/benchmark/target/release/benchmark" compare "$parent_log" "$change_log"
