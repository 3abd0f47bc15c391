#!/usr/bin/env bash
# splitbench: build the benchmark and run it.
#
#   benchmark/run.sh [--seed N] [--traced] [--aa]        every workload, as tables
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                                        one run, result on the last line
#
# See benchmark/README.md for the workloads and metrics.
set -euo pipefail
# Everything below is relative to the repository root.
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Share the root workspace's target directory unless the caller chose one.
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

# glibc adapts its mmap and trim thresholds at run time: after the first large
# free, whether the next 16 MiB recovery buffer or peer region is mapped and
# page-faulted afresh or reused from the heap depends on what was freed
# before it. That makes recovery and repair times bimodal, and on a virtual
# machine every first touch of a page is a trip through the hypervisor. Pin
# both thresholds where glibc's own adaptation ends up (32 MiB is its
# ceiling for the mmap threshold) and never trim, so every large buffer is
# reused from the heap on every run.
export MALLOC_MMAP_THRESHOLD_=33554432
export MALLOC_TRIM_THRESHOLD_=2147483647

# minirocks hands every write from the client's thread to its commit thread
# and back. On a virtual machine a wake-up that crosses cores costs tens of
# microseconds more than one that stays on a core, and where the scheduler
# puts the two threads holds for a whole run: unpinned, ycsb_b's update p50
# is 26 us in one run and 59 us in the next. One CPU for the whole process,
# the last one this shell may use, makes every hand-off the same kind.
cpu="$(awk '/^Cpus_allowed_list:/ {n = split($2, a, /[,-]/); print a[n]}' /proc/self/status)"
exec taskset -c "$cpu" "$target/release/splitbench" "$@"
