#!/usr/bin/env bash
# Offline build-and-test for the whole workspace.
#
# This container has no crates.io access, so `cargo build` cannot resolve
# external dependencies. This script compiles the stub crates in
# tools/stubs/ (std-backed implementations of the exact API surface the
# workspace uses — see tools/stubs/README.md), builds every workspace
# crate, binary, and test target with plain rustc, and RUNS the subsets
# that don't need real JSON codecs (the serde_derive stub is a no-op, so
# anything that round-trips serde_json at runtime is compile-checked
# only). It is a verification aid, not a build system: in a networked
# environment use cargo and tier1.sh, and ignore this script.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${OFFLINE_CHECK_DIR:-/tmp/dp-offline-check}"
mkdir -p "$OUT"
RUSTC="rustc --edition 2021 -O -L $OUT --out-dir $OUT"

echo "== stubs"
rustc --edition 2021 -O --crate-type proc-macro --crate-name serde_derive \
    tools/stubs/serde_derive.rs --out-dir "$OUT"
for c in rand rayon crossbeam parking_lot; do
    $RUSTC --crate-type rlib --crate-name "$c" "tools/stubs/$c.rs"
done
$RUSTC --crate-type rlib --crate-name serde tools/stubs/serde.rs \
    --extern serde_derive="$OUT/libserde_derive.so"
$RUSTC --crate-type rlib --crate-name serde_json tools/stubs/serde_json.rs \
    --extern serde="$OUT/libserde.rlib"

# Every workspace lib by crate name; unused externs are harmless, so all
# downstream targets just take the full set.
ext() { echo "--extern $1=$OUT/lib$1.rlib"; }
EXTERNS_MD="$(ext dp_obs) $(ext dp_ckpt) $(ext rand) $(ext rayon) $(ext serde)"

echo "== libs"
$RUSTC --crate-type rlib --crate-name dp_obs crates/obs/src/lib.rs
$RUSTC --crate-type rlib --crate-name dp_serve crates/serve/src/lib.rs $(ext dp_obs)
$RUSTC --crate-type rlib --crate-name dp_ckpt crates/ckpt/src/lib.rs
$RUSTC --crate-type rlib --crate-name dp_md crates/md/src/lib.rs $EXTERNS_MD
$RUSTC --crate-type rlib --crate-name dp_parallel crates/parallel/src/lib.rs \
    $EXTERNS_MD $(ext dp_md) $(ext crossbeam) $(ext parking_lot)
$RUSTC --crate-type rlib --crate-name dp_linalg crates/linalg/src/lib.rs \
    $(ext dp_obs) $(ext rayon)
$RUSTC --crate-type rlib --crate-name dp_autograd crates/autograd/src/lib.rs \
    $(ext dp_linalg)
$RUSTC --crate-type rlib --crate-name dp_nn crates/nn/src/lib.rs \
    $(ext dp_linalg) $(ext dp_autograd) $(ext rand) $(ext serde) $(ext serde_json)
$RUSTC --crate-type rlib --crate-name deepmd_core crates/core/src/lib.rs \
    $(ext dp_obs) $(ext dp_linalg) $(ext dp_nn) $(ext dp_md) $(ext rayon) \
    $(ext serde) $(ext rand)
EXTERNS_ALL="$EXTERNS_MD $(ext serde_json) $(ext crossbeam) $(ext parking_lot) \
    $(ext dp_md) $(ext dp_parallel) $(ext dp_linalg) $(ext dp_autograd) \
    $(ext dp_nn) $(ext deepmd_core)"
$RUSTC --crate-type rlib --crate-name dp_train crates/train/src/lib.rs $EXTERNS_ALL
$RUSTC --crate-type rlib --crate-name dp_replica crates/replica/src/lib.rs \
    $EXTERNS_ALL $(ext dp_train)
$RUSTC --crate-type rlib --crate-name dp_perfmodel crates/perfmodel/src/lib.rs \
    $(ext serde)
CARGO_MANIFEST_DIR="$PWD/crates/bench" \
    $RUSTC --crate-type rlib --crate-name dp_bench crates/bench/src/lib.rs \
    $EXTERNS_ALL $(ext dp_train) $(ext dp_perfmodel)
EXTERNS_ALL="$EXTERNS_ALL $(ext dp_train) $(ext dp_replica) $(ext dp_perfmodel) $(ext dp_bench) $(ext dp_serve)"
$RUSTC --crate-type rlib --crate-name deepmd_repro src/lib.rs $EXTERNS_ALL
EXTERNS_ALL="$EXTERNS_ALL $(ext deepmd_repro)"

echo "== bins and examples (compile)"
$RUSTC --crate-name dpmd src/bin/dpmd.rs $EXTERNS_ALL
for e in examples/*.rs; do
    $RUSTC --crate-name "ex_$(basename "$e" .rs)" "$e" $EXTERNS_ALL
done

echo "== benches (compile)"
$RUSTC --crate-type rlib --crate-name criterion tools/stubs/criterion.rs
for b in crates/*/benches/*.rs; do
    $RUSTC --crate-name "bench_$(basename "$b" .rs)" "$b" $EXTERNS_ALL $(ext criterion)
done

echo "== unit tests"
$RUSTC --test --crate-name dp_obs_t crates/obs/src/lib.rs
$RUSTC --test --crate-name dp_serve_t crates/serve/src/lib.rs $(ext dp_obs)
$RUSTC --test --crate-name dp_ckpt_t crates/ckpt/src/lib.rs
$RUSTC --test --crate-name dp_md_t crates/md/src/lib.rs $EXTERNS_MD
$RUSTC --test --crate-name dp_parallel_t crates/parallel/src/lib.rs \
    $EXTERNS_MD $(ext dp_md) $(ext crossbeam) $(ext parking_lot)
$RUSTC --test --crate-name dp_linalg_t crates/linalg/src/lib.rs \
    $(ext dp_obs) $(ext rayon)
$RUSTC --test --crate-name dp_autograd_t crates/autograd/src/lib.rs \
    $(ext dp_linalg)
$RUSTC --test --crate-name dp_nn_t crates/nn/src/lib.rs \
    $(ext dp_linalg) $(ext dp_autograd) $(ext rand) $(ext serde) $(ext serde_json)
$RUSTC --test --crate-name deepmd_core_t crates/core/src/lib.rs \
    $(ext dp_obs) $(ext dp_linalg) $(ext dp_nn) $(ext dp_md) $(ext rayon) \
    $(ext serde) $(ext rand) $(ext serde_json)
$RUSTC --test --crate-name dp_train_t crates/train/src/lib.rs $EXTERNS_ALL
$RUSTC --test --crate-name dp_replica_t crates/replica/src/lib.rs $EXTERNS_ALL
$RUSTC --test --crate-name dp_perfmodel_t crates/perfmodel/src/lib.rs $(ext serde)
CARGO_MANIFEST_DIR="$PWD/crates/bench" \
    $RUSTC --test --crate-name dp_bench_t crates/bench/src/lib.rs $EXTERNS_ALL
$RUSTC --test --crate-name deepmd_repro_t src/lib.rs $EXTERNS_ALL

echo "== integration tests (compile)"
# CARGO_BIN_EXE_dpmd is a cargo-ism; point it at the rustc-built binary so
# env!() resolves. Subprocess-driven tests still can't RUN offline (the
# deck parser needs real serde_json), so those stay compile-only.
for t in tests/*.rs; do
    CARGO_BIN_EXE_dpmd="$OUT/dpmd" \
        $RUSTC --test --crate-name "it_$(basename "$t" .rs)" "$t" $EXTERNS_ALL
done

# The per-binary skips are exactly the JSON round-trip tests: the
# serde_derive stub is a no-op, so serialization returns Err offline.
# Everything else runs (dp-ckpt/dp-md round-trips use their own codec and
# stay in the run set).
for t in dp_obs_t dp_serve_t dp_ckpt_t dp_md_t dp_parallel_t dp_linalg_t \
         dp_autograd_t dp_nn_t deepmd_core_t dp_train_t dp_replica_t \
         dp_perfmodel_t dp_bench_t deepmd_repro_t; do
    echo "== run $t"
    case "$t" in
    dp_nn_t | deepmd_core_t)
        "$OUT/$t" --skip serde_roundtrip "$@"
        ;;
    dp_train_t)
        "$OUT/$t" --skip serde_roundtrip \
            --skip checkpoint::tests::roundtrip_is_bit_exact \
            --skip checkpoint::tests::moment_length_mismatch "$@"
        ;;
    *)
        "$OUT/$t" "$@"
        ;;
    esac
done

# Integration tests runnable without real JSON codecs: the fault drills
# drive run_parallel_md directly (checkpoints use dp-ckpt's own binary
# format), and the allocation/workspace/virial suites never serialize.
echo "== run it_fault_tolerance (library-level drills)"
"$OUT/it_fault_tolerance" --test-threads=1 \
    killed_rank corrupted torn_checkpoint dropped_message delayed_message \
    rank_failure_without retries_exhausted_is_typed dead_rank_in_allreduce \
    chaos_schedule localized_respawn torn_shard_escalates chaos_soak_recovers \
    broken_invariant_fails flight_recorder
for t in it_alloc_regression it_workspace_reuse it_parallel_dp it_virial; do
    echo "== run $t"
    "$OUT/$t"
done
# The serve e2e drives a real daemon subprocess over loopback; eval uses
# the daemon's own std-only JSON codec, so everything except the deck-job
# tests (serde_json at runtime) runs offline.
echo "== run it_serve (daemon e2e, deck-job tests skipped)"
"$OUT/it_serve" --test-threads=2 --skip job_
# The per-rank observability drill drives run_parallel_md directly with
# string-level JSONL asserts; the deck-level half needs real serde_json.
echo "== run it_imbalance (driver-level)"
"$OUT/it_imbalance" --test-threads=1 driver_level
echo "offline check OK"
