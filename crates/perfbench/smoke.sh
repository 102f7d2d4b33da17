#!/usr/bin/env bash
# Smoke run: all six workloads, both passes, at a twentieth of the timed
# phase (well under a minute), then a structural check of the ledger it
# wrote. Numbers from a smoke run are not measurements; only the exact
# counts and the output checks mean anything at this scale.
#
#   smoke.sh [LEDGER.json]   (path relative to the repository root)
set -euo pipefail
HERE="$(cd "$(dirname "$0")" && pwd)"
OUT="${1:-${CARGO_TARGET_DIR:-target}/perfbench-work/smoke.json}"
"$HERE/run.sh" --scale 0.05 --out "$OUT"
"$HERE/run.sh" validate "$OUT"
