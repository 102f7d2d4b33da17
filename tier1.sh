#!/usr/bin/env bash
# Tier-1 gate (ROADMAP.md), the one script CI and a local check both run:
# release build + full test suite, then the end-to-end smokes unit tests
# cannot cover because they need the real binaries — the perfbench smoke
# ledger, a `dpmd --resume` round trip, the --metrics JSONL stream,
# injected-fault recovery, per-rank observability artifacts, the typed
# fatal exit, the chaos schedule and soak, the ensemble swap-log
# determinism check, and the serve daemon.
#
# Run from anywhere; it cds to the repo root. `--skip-tests` leaves the
# `cargo test` stages out (CI runs them as their own steps).
# A run's stdout goes to a file before it is grepped: `grep -q` closes the
# pipe at its first match, and a `dpmd` that is still printing then dies
# on EPIPE before it has written its metrics and Prometheus dump.
set -eu
cd "$(dirname "$0")"

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

# Every dependency is a path crate of this workspace, so the build needs
# the toolchain and nothing else: `--offline` under an empty CARGO_HOME
# proves no registry, vendor directory or network is involved. `--locked`:
# a manifest edit that leaves the committed Cargo.lock stale fails here
# instead of being rewritten silently.
export CARGO_HOME="$DIR/cargo-home"
mkdir -p "$CARGO_HOME"
DPMD="${CARGO_TARGET_DIR:-target}/release/dpmd"
cargo build --release --offline --locked --workspace
if [ "${1:-}" != "--skip-tests" ]; then
    cargo test -q --offline --workspace
    # the scalar fallback stays a tested baseline on hosts that always
    # dispatch to the SIMD path: linalg's unit tests and property suite,
    # deepmd-core's layer and net pass tests, scalar golden folds and
    # training-gradient finite-difference checks, the train suite with Adam
    # (the trainer's steps run that gradient pass on the linalg panels), and the shipped
    # path against the 2018 baseline and the §5.3 variants (dp-bench)
    DPMD_SIMD=off cargo test -q --offline -p dp-linalg -p deepmd-core -p dp-train
    DPMD_SIMD=off cargo test -q --offline -p dp-bench --test baseline
fi

# Benchmark smoke: all six perfbench workloads, both passes, at a twentieth
# of the timed phase, then a structural check of the ledger, so a change
# that breaks one of the benchmark's output checks fails here instead of
# leaving the benchmark without numbers.
bash crates/perfbench/smoke.sh
echo "tier1: perfbench smoke ledger validated"

# deck <steps> <deck-path> <checkpoint-base>
deck() {
  cat > "$2" <<EOF
{
  "system": {"kind": "fcc", "a0": 5.26, "reps": [3,3,3], "mass": 39.948},
  "potential": {"kind": "lennard_jones", "eps": 0.0104, "sigma": 3.405, "rcut": 5.0},
  "temperature": 40.0,
  "dt_fs": 2.0,
  "steps": $1,
  "thermo_every": 10,
  "checkpoint_every": 20,
  "checkpoint_path": "$3",
  "seed": 7
}
EOF
}

# Uninterrupted 80-step run (same checkpoint stride, so the
# neighbor-rebuild schedule matches the resumed run).
deck 80 "$DIR/straight.json" "$DIR/straight.ckpt"
"$DPMD" "$DIR/straight.json" | grep '^step' > "$DIR/straight.thermo"

# Same deck stopped at step 40, then resumed to 80.
deck 40 "$DIR/first.json" "$DIR/killed.ckpt"
"$DPMD" "$DIR/first.json" > /dev/null
deck 80 "$DIR/second.json" "$DIR/killed.ckpt"
"$DPMD" "$DIR/second.json" --resume "$DIR/killed.ckpt" \
  | grep '^step' > "$DIR/resumed.thermo"

# The resumed run re-emits exactly the post-midpoint samples; they must be
# bit-identical to the straight run's.
awk '$2 > 40' "$DIR/straight.thermo" > "$DIR/straight.tail"
diff -u "$DIR/straight.tail" "$DIR/resumed.thermo"
echo "tier1: dpmd --resume round trip is bit-exact"

# Metrics smoke: a tiny run with --metrics must leave a per-step JSONL
# stream (tests/observability.rs checks its fields).
cat > "$DIR/bench.json" <<EOF
{
  "system": {"kind": "fcc", "a0": 5.26, "reps": [3,3,3], "mass": 39.948},
  "potential": {"kind": "lennard_jones", "eps": 0.0104, "sigma": 3.405, "rcut": 5.0},
  "temperature": 40.0,
  "dt_fs": 2.0,
  "steps": 20,
  "thermo_every": 10,
  "seed": 7
}
EOF
"$DPMD" "$DIR/bench.json" --metrics "$DIR/metrics.jsonl" > /dev/null
test -s "$DIR/metrics.jsonl"
echo "tier1: --metrics wrote a per-step JSONL stream"

# Fault-tolerance smoke: a parallel deck with an injected rank kill must
# recover from the checkpoint rotation, log the recovery, surface the
# typed counters in --metrics, and exit 0.
cat > "$DIR/fault.json" <<EOF
{
  "system": {"kind": "fcc", "a0": 5.26, "reps": [3,3,3], "mass": 39.948},
  "potential": {"kind": "lennard_jones", "eps": 0.0104, "sigma": 3.405, "rcut": 5.0},
  "temperature": 40.0,
  "dt_fs": 2.0,
  "steps": 30,
  "thermo_every": 10,
  "grid": [2, 1, 1],
  "checkpoint_every": 10,
  "checkpoint_path": "$DIR/fault.ckpt",
  "fault_kill_rank": 1,
  "fault_kill_step": 15,
  "seed": 7
}
EOF
"$DPMD" "$DIR/fault.json" --metrics "$DIR/fault-metrics.jsonl" \
  --prom-dump "$DIR/fault-prom.txt" > "$DIR/fault.out"
grep -q 'recovered from 1 failed epoch' "$DIR/fault.out"
grep -q 'fault.detected' "$DIR/fault-metrics.jsonl"
grep -q 'recovery.success' "$DIR/fault-metrics.jsonl"
# the flight recorder's pre-fault window rides the same metrics stream
grep -q '"event":"flight_recorder"' "$DIR/fault-metrics.jsonl"
# the Prometheus snapshot passes the strict parser and carries the fault
# counters and per-phase roofline gauges
"$DPMD" promcheck "$DIR/fault-prom.txt"
grep -q 'dpmd_fault_detected' "$DIR/fault-prom.txt"
grep -q 'dpmd_roofline_achieved_gflops{phase="compute"}' "$DIR/fault-prom.txt"
echo "tier1: injected rank kill recovered bit-exactly via checkpoint"

# Per-rank observability smoke: a parallel deck driven with --trace
# --metrics --imbalance-report must produce one merged chrome trace with a
# tid lane per rank, per-rank histogram rows plus heartbeat and imbalance
# events in the JSONL, and the breakdown table on stdout.
cat > "$DIR/obs.json" <<EOF
{
  "system": {"kind": "fcc", "a0": 5.26, "reps": [3,3,3], "mass": 39.948},
  "potential": {"kind": "lennard_jones", "eps": 0.0104, "sigma": 3.405, "rcut": 5.0},
  "temperature": 40.0,
  "dt_fs": 2.0,
  "steps": 30,
  "thermo_every": 10,
  "grid": [2, 1, 1],
  "report_every": 10,
  "seed": 7
}
EOF
"$DPMD" "$DIR/obs.json" --trace "$DIR/obs-trace.json" \
  --metrics "$DIR/obs-metrics.jsonl" --imbalance-report > "$DIR/obs.out"
grep -q 'rank imbalance' "$DIR/obs.out"
grep -q '"tid":0' "$DIR/obs-trace.json"
grep -q '"tid":1' "$DIR/obs-trace.json"
grep -q '"event":"hist"' "$DIR/obs-metrics.jsonl"
grep -q '"p95":' "$DIR/obs-metrics.jsonl"
grep -q '"event":"imbalance_heartbeat"' "$DIR/obs-metrics.jsonl"
grep -q '"event":"imbalance"' "$DIR/obs-metrics.jsonl"
echo "tier1: per-rank trace and imbalance analyzer artifacts validated"

# An unrecoverable fault (re-killed every epoch, retry budget 1) must exit
# with the dedicated fault code 5, a typed message, and no panic spew.
cat > "$DIR/fatal.json" <<EOF
{
  "system": {"kind": "fcc", "a0": 5.26, "reps": [3,3,3], "mass": 39.948},
  "potential": {"kind": "lennard_jones", "eps": 0.0104, "sigma": 3.405, "rcut": 5.0},
  "temperature": 40.0,
  "dt_fs": 2.0,
  "steps": 30,
  "thermo_every": 10,
  "grid": [2, 1, 1],
  "checkpoint_every": 10,
  "checkpoint_path": "$DIR/fatal.ckpt",
  "fault_kill_rank": 1,
  "fault_kill_step": 15,
  "fault_kill_every_epoch": true,
  "fault_max_retries": 1,
  "seed": 7
}
EOF
set +e
"$DPMD" "$DIR/fatal.json" > /dev/null 2> "$DIR/fatal.err"
code=$?
set -e
test "$code" -eq 5
grep -q 'retries exhausted' "$DIR/fatal.err"
if grep -q 'panicked' "$DIR/fatal.err"; then
  echo "tier1: panic spew leaked into a typed failure" >&2
  exit 1
fi
echo "tier1: unrecoverable fault exits with typed code 5"

# Chaos smoke: one deck key expands a seed into a deterministic schedule
# of kills/drops/delays; the run must recover from all of them and exit 0.
cat > "$DIR/chaos.json" <<EOF
{
  "system": {"kind": "fcc", "a0": 5.26, "reps": [3,3,3], "mass": 39.948},
  "potential": {"kind": "lennard_jones", "eps": 0.0104, "sigma": 3.405, "rcut": 5.0},
  "temperature": 40.0,
  "dt_fs": 2.0,
  "steps": 60,
  "thermo_every": 10,
  "grid": [2, 1, 1],
  "checkpoint_every": 10,
  "checkpoint_path": "$DIR/chaos.ckpt",
  "fault_chaos": {"seed": 7, "kills": 2, "drops": 1, "delays": 2, "max_delay_ms": 20},
  "fault_comm_deadline_ms": 2000,
  "seed": 7
}
EOF
"$DPMD" "$DIR/chaos.json" > "$DIR/chaos.out"
grep -q 'recovered from' "$DIR/chaos.out"
echo "tier1: fault_chaos schedule recovered via checkpoint rotation"

# Chaos-soak smoke: a deterministic schedule of a kill, a drop, a delay
# and a torn per-rank shard write lands on a sharded-checkpoint run while
# conservation-class invariants are audited every 10 steps. The run must
# finish clean (recoveries are allowed, audit failures are not) inside 60
# seconds.
cat > "$DIR/soak.json" <<EOF
{
  "system": {"kind": "fcc", "a0": 5.26, "reps": [3,3,3], "mass": 39.948},
  "potential": {"kind": "lennard_jones", "eps": 0.0104, "sigma": 3.405, "rcut": 5.0},
  "temperature": 40.0,
  "dt_fs": 2.0,
  "steps": 60,
  "thermo_every": 10,
  "seed": 7,
  "grid": [2, 1, 1],
  "checkpoint_every": 10,
  "checkpoint_path": "$DIR/soak.ckpt",
  "checkpoint_shards": true,
  "fault_comm_deadline_ms": 2000,
  "chaos_soak": {"seed": 11, "kills": 1, "drops": 1, "delays": 1, "torn_shards": 1, "max_delay_ms": 20}
}
EOF
timeout 60 "$DPMD" "$DIR/soak.json" --metrics "$DIR/soak-metrics.jsonl" > "$DIR/soak-out.txt"
grep -q '"audit.passed"' "$DIR/soak-metrics.jsonl"
if grep -q '"audit.failed"' "$DIR/soak-metrics.jsonl"; then
  echo "tier1: soak smoke tripped the invariant auditor" >&2
  cat "$DIR/soak-out.txt" >&2
  exit 1
fi
echo "tier1: chaos-soak smoke survived compound faults, all audits passed"

# Ensemble smoke: an 8-replica parallel-tempering deck run twice through
# `dpmd ensemble`. steps=20 with exchange_every=10 gives rounds at steps 10
# and 20: 4 even-phase pairs then 3 odd-phase pairs = 7 attempts, and the
# CounterRng swap schedule makes the two swap logs and reports identical.
for run in a b; do
  cat > "$DIR/ensemble-$run.json" <<EOF
{
  "replicas": 8,
  "system": {"kind": "fcc", "a0": 5.26, "reps": [2, 2, 2], "mass": 63.546},
  "model": {"kind": "synthetic", "seed": 7, "rcut": 4.0},
  "t_min": 100.0,
  "t_max": 400.0,
  "steps": 20,
  "dt_fs": 2.0,
  "exchange_every": 10,
  "perturb": 0.05,
  "swap_log": "$DIR/swaps-$run.jsonl",
  "seed": 1
}
EOF
  "$DPMD" ensemble "$DIR/ensemble-$run.json" | grep -v '^swap log:' > "$DIR/ensemble-$run.out"
done
test "$(wc -l < "$DIR/swaps-a.jsonl")" -eq 7
cmp "$DIR/swaps-a.jsonl" "$DIR/swaps-b.jsonl"
cmp "$DIR/ensemble-a.out" "$DIR/ensemble-b.out"
grep -q '^exchange: .* accepted / 7 attempted$' "$DIR/ensemble-a.out"
echo "tier1: ensemble smoke reproduced 7 swap attempts byte-for-byte"

# Serve smoke: daemon on an ephemeral port, one deck job polled to done,
# one eval, /metrics quantiles, then a graceful drain that exits 0.
"$DPMD" serve --addr 127.0.0.1:0 --addr-file "$DIR/serve.addr" \
  --state-dir "$DIR/serve-state" > "$DIR/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  test -s "$DIR/serve.addr" && break
  sleep 0.1
done
ADDR=$(cat "$DIR/serve.addr")

deck 40 "$DIR/serve-job.json" "$DIR/serve-job.ckpt"
"$DPMD" request POST "http://$ADDR/v1/jobs" --body "$DIR/serve-job.json" \
  > "$DIR/submit.json"
grep -q '"id":"job-1"' "$DIR/submit.json"
for _ in $(seq 1 300); do
  "$DPMD" request GET "http://$ADDR/v1/jobs/job-1" > "$DIR/job-status.json" || true
  grep -q '"state":"done"' "$DIR/job-status.json" && break
  sleep 0.1
done
grep -q '"state":"done"' "$DIR/job-status.json"
grep -q '"potential":"lennard-jones"' "$DIR/job-status.json"

printf '{"cell": [20,12,12], "positions": [[1,5,5],[3,5,5],[5,5,5]]}' \
  > "$DIR/eval.json"
"$DPMD" request POST "http://$ADDR/v1/eval" --body "$DIR/eval.json" \
  | grep -q '"energy":'
"$DPMD" request GET "http://$ADDR/metrics" > "$DIR/serve-metrics.json"
grep -q 'serve.http.latency_us' "$DIR/serve-metrics.json"
grep -q '"p95":' "$DIR/serve-metrics.json"
grep -q '"done":1' "$DIR/serve-metrics.json"
grep -q '"ensemble":' "$DIR/serve-metrics.json"

# Prometheus scrape of the same daemon: must pass the strict parser and
# expose the pre-registered ensemble counters and roofline gauges.
"$DPMD" request GET "http://$ADDR/metrics?format=prometheus" \
  > "$DIR/serve-prom.txt"
"$DPMD" promcheck "$DIR/serve-prom.txt"
grep -q 'dpmd_replica_exchange_attempts' "$DIR/serve-prom.txt"
grep -q 'dpmd_roofline_achieved_gflops{phase="compute"}' "$DIR/serve-prom.txt"

"$DPMD" request POST "http://$ADDR/v1/admin/shutdown" | grep -q draining
wait $SERVE_PID
echo "tier1: serve daemon ran a job and an eval, then drained cleanly"

# Bad serve flags must exit with the usage code, not hang or panic.
set +e
"$DPMD" serve --bogus-flag 2> /dev/null
code=$?
set -e
test "$code" -eq 2
echo "tier1: serve flag errors exit with typed code 2"
echo "tier1: OK"
