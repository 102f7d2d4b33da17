#!/usr/bin/env bash
# perfbench entry point: build the harness and `dpmd`, then measure.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload, one pass, one process; the last stdout line is the
#       result object BENCHMARK.json describes.
#   run.sh [--seed N] [--scale X] [--workload W]... [--traced-only] [--out FILE]
#       the full ledger: every workload in its own process, untraced pass
#       then traced pass, merged into one document (default
#       <target>/perfbench-work/ledger.json).
#   run.sh compare A.json B.json | run.sh validate FILE
#   run.sh test
#       the crate's unit tests (what `cargo test -p dp-perfbench` runs).
#
# Build route: `cargo build --release --offline` first; when cargo cannot
# resolve the external crates (this container), plain rustc against the
# read-only stubs in tools/stubs into <target>/perfbench-offline/. The two
# routes produce different code (real vs sequential-stub rayon, opt-level
# 3 vs 2) and their numbers are not comparable — `compare` refuses.
set -euo pipefail
HERE="$(cd "$(dirname "$0")" && pwd)"
ROOT="$(cd "$HERE/../.." && pwd)"
cd "$ROOT"
if [ ! -f src/bin/dpmd.rs ] || [ ! -d tools/stubs ] || [ ! -d crates/core/src ]; then
    echo "perfbench: $ROOT is not a dpmd checkout (no program to measure)" >&2
    exit 2
fi

TARGET="${CARGO_TARGET_DIR:-target}"
OUT="$TARGET/perfbench-offline"
# rayon is pinned to one thread so the real and the stub build time the
# same sequential code; the rank grid and the serve workers still thread.
export RAYON_NUM_THREADS=1
export PERFBENCH_WORK="$TARGET/perfbench-work"
mkdir -p "$PERFBENCH_WORK"

# newer_than <stamp> <find args...>: is any matching .rs newer than stamp?
newer_than() {
    local stamp="$1"
    shift
    [ ! -f "$stamp" ] || [ -n "$(find "$@" -name '*.rs' -newer "$stamp" -print -quit)" ]
}

ext() { for c in "$@"; do printf -- '--extern %s=%s/lib%s.rlib ' "$c" "$OUT" "$c"; done; }
ALL="dp_obs dp_ckpt dp_md dp_parallel dp_linalg dp_autograd dp_nn deepmd_core \
    rand rayon serde serde_json crossbeam parking_lot"

# The program: stubs, every library the harness or dpmd links, and dpmd.
build_program() {
    mkdir -p "$OUT"
    # -A warnings: the repository's own lints are not this script's business
    local RUSTC="rustc --edition 2021 -O -A warnings -L $OUT --out-dir $OUT"
    lib() { # lib <crate_name> <src> <deps...>
        local name="$1" src="$2"
        shift 2
        $RUSTC --crate-type rlib --crate-name "$name" "$src" $(ext "$@")
    }
    rustc --edition 2021 -O --crate-type proc-macro --crate-name serde_derive \
        tools/stubs/serde_derive.rs --out-dir "$OUT"
    for c in rand rayon crossbeam parking_lot; do lib "$c" "tools/stubs/$c.rs"; done
    $RUSTC --crate-type rlib --crate-name serde tools/stubs/serde.rs \
        --extern serde_derive="$OUT/libserde_derive.so"
    lib serde_json tools/stubs/serde_json.rs serde
    lib dp_obs crates/obs/src/lib.rs
    lib dp_serve crates/serve/src/lib.rs dp_obs
    lib dp_ckpt crates/ckpt/src/lib.rs
    lib dp_md crates/md/src/lib.rs dp_obs dp_ckpt rand rayon serde
    lib dp_parallel crates/parallel/src/lib.rs dp_obs dp_ckpt dp_md rand rayon serde \
        crossbeam parking_lot
    lib dp_linalg crates/linalg/src/lib.rs dp_obs rayon
    lib dp_autograd crates/autograd/src/lib.rs dp_linalg
    lib dp_nn crates/nn/src/lib.rs dp_linalg dp_autograd rand serde serde_json
    lib deepmd_core crates/core/src/lib.rs dp_obs dp_linalg dp_nn dp_md rayon serde rand
    lib dp_train crates/train/src/lib.rs $ALL
    lib dp_replica crates/replica/src/lib.rs $ALL dp_train
    lib dp_perfmodel crates/perfmodel/src/lib.rs serde
    lib deepmd_repro src/lib.rs $ALL dp_train dp_replica dp_perfmodel dp_serve
    $RUSTC --crate-name dpmd src/bin/dpmd.rs \
        $(ext $ALL dp_train dp_replica dp_perfmodel dp_serve deepmd_repro)
    touch "$OUT/program.stamp"
}

build_harness() {
    rustc --edition 2021 -O -L "$OUT" --out-dir "$OUT" --crate-name perfbench \
        crates/perfbench/src/main.rs $(ext $ALL dp_train dp_replica dp_serve)
    touch "$OUT/harness.stamp"
}

program_stale() { newer_than "$OUT/program.stamp" crates src tools/stubs -path crates/perfbench -prune -o; }
harness_stale() { newer_than "$OUT/harness.stamp" crates/perfbench; }

if [ -f "$OUT/harness.stamp" ] && ! program_stale && ! harness_stale; then
    ROUTE=offline
elif cargo build --release --offline -p dp-perfbench -p deepmd-repro \
    --bin perfbench --bin dpmd >"$PERFBENCH_WORK/cargo.log" 2>&1; then
    ROUTE=cargo
else
    echo "perfbench: cargo cannot build offline, compiling with rustc + tools/stubs" >&2
    if program_stale; then build_program >&2; fi
    build_harness >&2
    ROUTE=offline
fi
if [ "$ROUTE" = cargo ]; then BIN="$TARGET/release"; else BIN="$OUT"; fi

export PERFBENCH_BUILD_ROUTE="$ROUTE"
export PERFBENCH_DPMD="$BIN/dpmd"
PERFBENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_COMMIT

case "${1:-}" in
compare | validate) exec "$BIN/perfbench" "$@" ;;
test)
    if [ "$ROUTE" = cargo ]; then exec cargo test --release --offline -p dp-perfbench; fi
    rustc --edition 2021 -O --test -L "$OUT" --out-dir "$OUT" --crate-name perfbench_t \
        crates/perfbench/src/main.rs $(ext $ALL dp_train dp_replica dp_serve)
    exec "$OUT/perfbench_t"
    ;;
esac
for a in "$@"; do
    if [ "$a" = "--trace" ]; then exec "$BIN/perfbench" bench "$@"; fi
done
exec "$BIN/perfbench" ledger "$@"
