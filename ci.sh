#!/usr/bin/env sh
# The full offline quality gate: formatting, lints (warnings are
# errors), release build, and the complete test suite. No network or
# registry access is required — the workspace has no external
# dependencies.
set -eux

cd "$(dirname "$0")"

# Every test, benchmark and smoke run is bounded: a hang fails the gate
# instead of blocking it. The cargo bound includes compilation and is far
# above any suite's normal run time (about a minute for the whole
# workspace on a 2-core host).
TEST_TIMEOUT=1800

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --workspace --release
timeout "$TEST_TIMEOUT" cargo test --workspace --quiet

# Perf smoke: rerun the quick executor-benchmark matrix and compare
# against the committed baseline. Fails on any simulated-cycle drift
# (the event-driven scheduler must stay cycle-exact; the golden-trace
# suite above checks the same property per-instruction) or on a >2x
# wall-clock regression.
timeout "$TEST_TIMEOUT" cargo run --release -p vpsim-bench --bin bench_pipeline -- \
    --quick --check BENCH_pipeline.quick.json

# Tracing-overhead smoke: the same quick matrix with event tracing
# enabled must stay cycle-exact against the *untraced* baseline (trace
# neutrality: recording events may not perturb simulation) and inside
# the same wall-clock slowdown gate (tracing stays cheap).
timeout "$TEST_TIMEOUT" cargo run --release -p vpsim-bench --bin bench_pipeline -- \
    --quick --traced --check BENCH_pipeline.quick.json

# Trace-determinism smoke: `repro --trace` is a pure function of
# (traced zoo, trials, seeds) — invocations at different worker counts
# must dump byte-identical JSONL.
TRACE_TMP="$(mktemp -d)"
timeout 120 ./target/release/repro --trace "$TRACE_TMP/a.jsonl" --trials 2 --jobs 1 > /dev/null
timeout 120 ./target/release/repro --trace "$TRACE_TMP/b.jsonl" --trials 2 --jobs 4 > /dev/null
cmp "$TRACE_TMP/a.jsonl" "$TRACE_TMP/b.jsonl"
rm -rf "$TRACE_TMP"

# Robustness smoke: the quick chaos sweep (12 attack variants + RSA x
# noise levels 0-4 x both receivers) is fully seeded, so every cell
# must match the committed baseline bit for bit.
timeout "$TEST_TIMEOUT" cargo run --release -p vpsim-bench --bin bench_chaos -- \
    --quick --check BENCH_chaos.quick.json

# Fuzz: malformed configs/programs must return typed errors, not panic,
# and manifest record lines must round-trip bit-exactly while torn or
# adversarial lines are rejected.
timeout "$TEST_TIMEOUT" cargo test --release -q -p vpsim-bench --test fuzz_validation

# Torture (quick): kill/resume the reference campaign at >=20 seeded
# interruption points, sweep seeded hostile sink-I/O fault plans
# (including a simulated crash), cancel a deliberately hung cell within
# its hard deadline, and abuse the process-isolated fleet (SIGKILL,
# poisoned cells, muted heartbeats, zombie sweep). Every path must
# converge bit-identically.
timeout "$TEST_TIMEOUT" cargo test --release -q -p vpsim-harness --test torture

# Overload smoke: a slowloris peer trickling half a request must not
# block a parallel /healthz and must be evicted by the read timeout;
# connections and submissions past the caps are shed with 503.
timeout "$TEST_TIMEOUT" cargo test --release -q -p vpsim-serve --test serve_integration -- slowloris shed

# Serve smoke: boot a real daemon on an ephemeral port, submit two
# campaigns, stream one to completion, check progress and metrics,
# cancel the other mid-flight, and shut down cleanly.
SERVE_STATE="$(mktemp -d)"
SERVE_LOG="$SERVE_STATE/daemon.out"
./target/release/repro serve --port 0 --state "$SERVE_STATE/state" \
    --runners 2 --jobs 2 > "$SERVE_LOG" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$SERVE_STATE"' EXIT
for _ in $(seq 1 100); do
    grep -q 'listening on' "$SERVE_LOG" && break
    sleep 0.1
done
SERVE_ADDR="$(sed -n 's/.*listening on //p' "$SERVE_LOG" | head -1)"
printf '%s' '{"name":"ci-smoke","trials":20,"seed":7,"cells":[{"category":"train_test","channel":"timing_window","predictor":"lvp"}]}' \
    > "$SERVE_STATE/smoke.json"
./target/release/repro submit --addr "$SERVE_ADDR" --spec "$SERVE_STATE/smoke.json"
printf '%s' '{"name":"ci-doomed","trials":50000,"seed":7,"cells":[{"category":"train_test","channel":"timing_window","predictor":"lvp"}]}' \
    > "$SERVE_STATE/doomed.json"
./target/release/repro submit --addr "$SERVE_ADDR" --spec "$SERVE_STATE/doomed.json"
timeout 60 ./target/release/repro watch --addr "$SERVE_ADDR" --id 1 | grep -q '"state":"done"'
./target/release/repro query --addr "$SERVE_ADDR" --id 1 | grep -q '"state":"done"'
./target/release/repro query --addr "$SERVE_ADDR" | grep -q 'ci-doomed'
./target/release/repro cancel --addr "$SERVE_ADDR" --id 2
./target/release/repro query --addr "$SERVE_ADDR" --id 2 | grep -q '"state":"cancelled"'
./target/release/repro metrics --addr "$SERVE_ADDR" | grep -q 'vpsim_jobs_done_total'
./target/release/repro shutdown --addr "$SERVE_ADDR"
# Bounded join: a daemon that does not exit within 30 s fails the gate.
for _ in $(seq 1 300); do
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "ci: daemon did not exit after shutdown" >&2
    exit 1
fi
wait "$SERVE_PID"
trap - EXIT
rm -rf "$SERVE_STATE"

# Fleet smoke: a campaign on the process-isolated backend must survive
# one of its workers being SIGKILLed mid-run — exit 0 with result lines
# byte-identical to the thread backend.
FLEET_TMP="$(mktemp -d)"
trap 'rm -rf "$FLEET_TMP"' EXIT
printf '%s' '{"name":"ci-fleet","trials":40,"seed":7,"cells":[{"category":"train_test","channel":"timing_window","predictor":"lvp"}]}' \
    > "$FLEET_TMP/spec.json"
timeout 120 ./target/release/repro run --spec "$FLEET_TMP/spec.json" --isolate thread \
    > "$FLEET_TMP/thread.out"
timeout 120 ./target/release/repro run --spec "$FLEET_TMP/spec.json" --isolate process --workers 2 \
    > "$FLEET_TMP/fleet.out" &
FLEET_PID=$!
WORKER_PID=""
for _ in $(seq 1 100); do
    WORKER_PID="$(pgrep -o -f 'release/repro --worker-loop' 2>/dev/null || true)"
    [ -n "$WORKER_PID" ] && break
    sleep 0.05
done
[ -n "$WORKER_PID" ] && kill -9 "$WORKER_PID" 2>/dev/null || true
wait "$FLEET_PID"
cmp "$FLEET_TMP/thread.out" "$FLEET_TMP/fleet.out"
trap - EXIT
rm -rf "$FLEET_TMP"

echo "ci: all checks passed"
