#!/usr/bin/env bash
# Full local gate: formatting, lints as errors, the whole test suite, and
# a telemetry smoke of the CLI. CI and pre-push runs should both go
# through this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> NaN-ordering lint (partial_cmp must not drive sort/argmax)"
# A `partial_cmp` comparator panics (`.unwrap()`) or silently destabilises
# the ordering (`.unwrap_or(Equal)`) as soon as a NaN reaches it; ranking
# and argmax code must use `total_cmp`. The 3-line window after each
# sort/max/min call site catches multi-line closures. Extend the allowlist
# (one regex alternative per site) only with a justification for why the
# site can never see NaN.
nan_allowlist='^$' # no allowed sites
nan_hits="$(grep -rn --include='*.rs' -E -A3 '\.(sort(_unstable)?_by|max_by|min_by)\(' \
    crates src tests examples 2>/dev/null |
    grep 'partial_cmp(' | grep -Ev "$nan_allowlist" || true)"
if [ -n "$nan_hits" ]; then
    echo "NaN-unsafe ordering(s) found; use f32::total_cmp / f64::total_cmp:" >&2
    echo "$nan_hits" >&2
    exit 1
fi

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings as errors)"
# Catches intra-doc links left dangling by a removed or renamed item. The
# vendored stubs are excluded: they mirror external crates' API surface,
# docs included, and are not this workspace's to fix.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --exclude proptest --exclude rand

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> telemetry suite"
cargo test -q -p graphrare-telemetry
cargo test -q -p graphrare-suite --test telemetry_contract

echo "==> CLI telemetry smoke (--telemetry-out JSONL must validate)"
cargo build -q --release -p graphrare --bin graphrare
cargo build -q --release -p graphrare-bench --bin telemetry_lint
smoke_dir="$(mktemp -d)"
serve_pid=""
serve2_pid=""
# Also reap any serving daemon a failed smoke leaves behind.
trap 'kill ${serve_pid:-} ${serve2_pid:-} 2>/dev/null || true; rm -rf "$smoke_dir"' EXIT
target/release/telemetry_lint --make-fixture "$smoke_dir/toy"
target/release/graphrare \
    --input "$smoke_dir/toy" \
    --steps 6 --seed 1 --quiet \
    --telemetry-out "$smoke_dir/events.jsonl"
target/release/telemetry_lint "$smoke_dir/events.jsonl"
# Same smoke with entropy refreshes enabled, so the `sequence_refresh`
# events pass through the lint too.
target/release/graphrare \
    --input "$smoke_dir/toy" \
    --steps 6 --seed 1 --quiet --entropy-refresh-every 2 \
    --telemetry-out "$smoke_dir/events_refresh.jsonl"
target/release/telemetry_lint "$smoke_dir/events_refresh.jsonl"
grep -q '"event": *"sequence_refresh"' "$smoke_dir/events_refresh.jsonl" ||
    { echo "expected sequence_refresh events in the refresh-enabled smoke" >&2; exit 1; }

echo "==> checkpoint/resume smoke (killed run must match uninterrupted run)"
cargo build -q --release -p graphrare-bench --bin store_dump
target/release/graphrare \
    --input "$smoke_dir/toy" \
    --steps 6 --seed 1 --quiet \
    --checkpoint-every 2 --checkpoint-dir "$smoke_dir/ckpts" \
    > "$smoke_dir/full.out"
# Simulate a crash after step 4: drop the final checkpoint, resume, and
# require byte-identical stdout.
rm "$smoke_dir/ckpts/step-000006.grrs"
target/release/graphrare \
    --input "$smoke_dir/toy" \
    --steps 6 --seed 1 --quiet \
    --checkpoint-every 2 --checkpoint-dir "$smoke_dir/ckpts" --resume \
    > "$smoke_dir/resumed.out"
diff "$smoke_dir/full.out" "$smoke_dir/resumed.out"
target/release/store_dump "$smoke_dir/ckpts/step-000006.grrs"
# The same kill-and-resume under --algo a2c. Twelve steps put the A2C
# update (every 10 steps) after the step-8 resume point.
target/release/graphrare \
    --input "$smoke_dir/toy" \
    --steps 12 --seed 1 --quiet --algo a2c \
    --checkpoint-every 4 --checkpoint-dir "$smoke_dir/ckpts_a2c" \
    > "$smoke_dir/full_a2c.out"
rm "$smoke_dir/ckpts_a2c/step-000012.grrs"
target/release/graphrare \
    --input "$smoke_dir/toy" \
    --steps 12 --seed 1 --quiet --algo a2c \
    --checkpoint-every 4 --checkpoint-dir "$smoke_dir/ckpts_a2c" --resume \
    > "$smoke_dir/resumed_a2c.out"
diff "$smoke_dir/full_a2c.out" "$smoke_dir/resumed_a2c.out"
# Checkpoints record the strategy: resuming A2C checkpoints as PPO fails.
if target/release/graphrare \
    --input "$smoke_dir/toy" \
    --steps 12 --seed 1 --quiet --algo ppo \
    --checkpoint-every 4 --checkpoint-dir "$smoke_dir/ckpts_a2c" --resume \
    > /dev/null 2> "$smoke_dir/cross_resume.err"; then
    echo "an --algo a2c checkpoint resumed under --algo ppo" >&2
    exit 1
fi
grep -q 'algo=a2c' "$smoke_dir/cross_resume.err" ||
    { echo "cross-strategy resume failed without naming the strategy" >&2; exit 1; }
# The same kill-and-resume with entropy refreshes every 2 steps: the
# step-4 checkpoint it resumes from holds a re-anchored optimiser.
target/release/graphrare \
    --input "$smoke_dir/toy" \
    --steps 6 --seed 1 --quiet --entropy-refresh-every 2 \
    --checkpoint-every 2 --checkpoint-dir "$smoke_dir/ckpts_refresh" \
    > "$smoke_dir/full_refresh.out"
rm "$smoke_dir/ckpts_refresh/step-000006.grrs"
target/release/graphrare \
    --input "$smoke_dir/toy" \
    --steps 6 --seed 1 --quiet --entropy-refresh-every 2 \
    --checkpoint-every 2 --checkpoint-dir "$smoke_dir/ckpts_refresh" --resume \
    > "$smoke_dir/resumed_refresh.out"
diff "$smoke_dir/full_refresh.out" "$smoke_dir/resumed_refresh.out"
# Checkpoints record the refresh cadence: resuming them under another fails.
if target/release/graphrare \
    --input "$smoke_dir/toy" \
    --steps 6 --seed 1 --quiet --entropy-refresh-every 3 \
    --checkpoint-every 2 --checkpoint-dir "$smoke_dir/ckpts_refresh" --resume \
    > /dev/null 2> "$smoke_dir/cadence_resume.err"; then
    echo "an --entropy-refresh-every 2 checkpoint resumed under --entropy-refresh-every 3" >&2
    exit 1
fi
grep -q 'entropy-refresh-every=2' "$smoke_dir/cadence_resume.err" ||
    { echo "cross-cadence resume failed without naming the cadence" >&2; exit 1; }

echo "==> trace profiler smoke (flame/percentiles parse; self-diff gates at 0%)"
cargo build -q --release -p graphrare-trace --bin graphrare-trace
# Folded stacks from the CLI smoke's stream: every line must be
# `stack;frames SELF_NS`, and the driver.run root must be present.
target/release/graphrare-trace flame "$smoke_dir/events.jsonl" > "$smoke_dir/stacks.folded"
awk 'NF != 2 || $2 !~ /^[0-9]+$/ { print "bad folded line: " $0; bad = 1 } END { exit bad }' \
    "$smoke_dir/stacks.folded"
grep -q '^driver\.run ' "$smoke_dir/stacks.folded" ||
    { echo "folded stacks missing the driver.run root" >&2; exit 1; }
target/release/graphrare-trace percentiles "$smoke_dir/events.jsonl" > "$smoke_dir/percentiles.txt"
grep -q 'driver\.run/driver\.step' "$smoke_dir/percentiles.txt" ||
    { echo "percentile table missing the driver.step path" >&2; exit 1; }
target/release/graphrare-trace timeline "$smoke_dir/events.jsonl" > /dev/null
# Regression gate sanity: a run diffed against itself has zero delta on
# every path, so the strictest possible threshold must pass.
target/release/graphrare-trace diff "$smoke_dir/events.jsonl" "$smoke_dir/events.jsonl" \
    --max-regress 0% > /dev/null

echo "==> rewire perf gate (rewire.* span totals vs committed baseline)"
# The smoke above is deterministic (fixed fixture, fixed seed), so its
# rewire.* span totals are comparable to a committed baseline of the
# same invocation. The threshold is deliberately loose and the noise
# floor exempts sub-50µs paths: absolute times vary across machines,
# and the gate only has to catch order-of-magnitude regressions (e.g.
# reintroducing per-step allocation in the hot loop). Regenerate with:
#   target/release/telemetry_lint --make-fixture DIR/toy
#   target/release/graphrare --input DIR/toy --steps 6 --seed 1 --quiet \
#       --telemetry-out scripts/baselines/rewire_smoke.jsonl
if ! target/release/graphrare-trace diff scripts/baselines/rewire_smoke.jsonl \
    "$smoke_dir/events.jsonl" --path-prefix rewire. --max-regress 300% \
    --min-total-ns 50000 > "$smoke_dir/rewire_gate.txt"; then
    cat "$smoke_dir/rewire_gate.txt" >&2
    echo "rewire.* spans regressed past the gate; see table above" >&2
    exit 1
fi

echo "==> count gate (exact event, span and allocation totals vs committed baseline)"
# Counts cannot flake the way times do: the same toy smoke at one thread
# must produce exactly the committed totals. Two threads are not pinned:
# the worker threads' allocations vary run to run. A change that adds a
# forward pass, an event or an allocation on the hot path moves a count;
# if it is meant to, regenerate the baseline with:
#   target/release/telemetry_lint --make-fixture DIR/toy
#   target/release/graphrare --input DIR/toy --steps 6 --seed 1 --quiet \
#       --threads 1 --telemetry-out DIR/counts.jsonl
#   and the five `key value` lines this gate prints for DIR/counts.jsonl,
#   into scripts/baselines/counts.txt.
target/release/graphrare \
    --input "$smoke_dir/toy" \
    --steps 6 --seed 1 --quiet --threads 1 \
    --telemetry-out "$smoke_dir/counts.jsonl" > /dev/null
counts() {
    local run
    run=$(grep '"event":"span","name":"driver\.run"' "$1")
    echo "events $(wc -l < "$1")"
    echo "kernel_spans $(grep -c '"event":"span","name":"kernel\.' "$1")"
    echo "train_eval_spans $(grep -c '"event":"span","name":"train\.eval"' "$1")"
    echo "driver_run_alloc_n $(echo "$run" | sed -n 's/.*"alloc_n":\([0-9]*\).*/\1/p')"
    echo "driver_run_alloc_bytes $(echo "$run" | sed -n 's/.*"alloc_bytes":\([0-9]*\).*/\1/p')"
}
if ! diff <(grep -v '^#' scripts/baselines/counts.txt) <(counts "$smoke_dir/counts.jsonl") \
    > "$smoke_dir/counts.diff"; then
    cat "$smoke_dir/counts.diff" >&2
    echo "toy-smoke counts differ from scripts/baselines/counts.txt (< baseline, > this run)" >&2
    exit 1
fi

echo "==> incremental rewiring smoke (full vs incremental must be bit-identical)"
cargo build -q --release -p graphrare-bench --bin bench_rewire
# The binary lock-steps RewiredGraph against materialize + fresh tensors
# over every strategy x regime cell and exits non-zero on any divergence.
target/release/bench_rewire --quick --check-only --output "$smoke_dir/bench_rewire.json"

echo "==> rewirer arena smoke (every --rewirer strategy end-to-end; matrix and arena rows present)"
# Each strategy drives a short run through the CLI and must produce a
# result line; the quick bench report above must carry one matrix row
# per strategy x regime cell.
for strategy in ppo dhgr reference none; do
    target/release/graphrare --input "$smoke_dir/toy" --steps 6 --seed 1 --quiet \
        --rewirer "$strategy" > "$smoke_dir/rewirer_$strategy.out"
    grep -q 'test accuracy' "$smoke_dir/rewirer_$strategy.out" ||
        { echo "strategy $strategy produced no result line" >&2; exit 1; }
    for regime in dense sparse; do
        grep -q "\"strategy\": \"$strategy\", \"regime\": \"$regime\"" \
            "$smoke_dir/bench_rewire.json" ||
            { echo "bench_rewire.json missing $strategy x $regime row" >&2; exit 1; }
    done
done
# The strategy arena on one split of Cornell, run from the smoke
# directory so its CSV lands there and the committed results/ stays
# untouched: one row per strategy.
cargo build -q --release -p graphrare-bench --bin repro_ablation_rl
arena_bin="$PWD/target/release/repro_ablation_rl"
(cd "$smoke_dir" && "$arena_bin" --splits 1 --datasets cornell --quiet > arena.out)
for strategy in PPO A2C random dhgr reference none; do
    [ "$(grep -cF "($strategy)," "$smoke_dir/results/ablation_rl.csv")" = 1 ] ||
        { echo "ablation_rl.csv does not have exactly one $strategy row" >&2; exit 1; }
done

echo "==> serving daemon smoke (concurrent runs bit-identical to solo; kill -9 resume)"
cargo build -q --release -p graphrare-serve --bin graphrare-serve --bin graphrare-client
serve_dir="$smoke_dir/serve"
mkdir -p "$serve_dir"
sock="$serve_dir/daemon.sock"
client() { target/release/graphrare-client --connect "unix:$sock" "$@"; }

# Daemon lifetime 1: it will be killed with -9 mid-run, which truncates
# any buffered JSONL mid-line, so only the graceful lifetime below gets
# a --telemetry-out stream to lint.
target/release/graphrare-serve --listen "unix:$sock" --state-dir "$serve_dir/state" \
    --max-runs 2 --checkpoint-every 2 --quiet &
serve_pid=$!
for _ in $(seq 100); do [ -S "$sock" ] && break; sleep 0.05; done
[ -S "$sock" ] || { echo "daemon socket never appeared" >&2; exit 1; }

# Two concurrent runs watched to completion; their fetched artifacts
# must be byte-identical to solo CLI runs of the same specs.
run1=$(client submit --input "$smoke_dir/toy" --steps 6 --seed 1 --threads 1 | sed -n 's/^run_id=//p')
run2=$(client submit --input "$smoke_dir/toy" --steps 6 --seed 2 --threads 1 | sed -n 's/^run_id=//p')
client watch "$run1" > /dev/null 2>&1
client watch "$run2" > /dev/null 2>&1
client result "$run1" --out "$serve_dir/served-1.grrs" > /dev/null
client result "$run2" --out "$serve_dir/served-2.grrs" > /dev/null
target/release/graphrare --input "$smoke_dir/toy" --steps 6 --seed 1 --threads 1 --quiet \
    --save-model "$serve_dir/solo-1.grrs" > /dev/null
target/release/graphrare --input "$smoke_dir/toy" --steps 6 --seed 2 --threads 1 --quiet \
    --save-model "$serve_dir/solo-2.grrs" > /dev/null
cmp "$serve_dir/served-1.grrs" "$serve_dir/solo-1.grrs"
cmp "$serve_dir/served-2.grrs" "$serve_dir/solo-2.grrs"
# Every shared run flag away from its default, names in mixed case: the
# client's spec and the CLI's flags must make the same run. --rewirer
# stays ppo so that --algo a2c takes effect.
run_flags=(--backbone GAT --lambda 0.5 --steps 6 --seed 4 --split-seed 2 --k-cap 6
    --threads 1 --algo A2C)
run_all=$(client submit --input "$smoke_dir/toy" "${run_flags[@]}" | sed -n 's/^run_id=//p')
client watch "$run_all" > /dev/null 2>&1
client result "$run_all" --out "$serve_dir/served-flags.grrs" > /dev/null
target/release/graphrare --input "$smoke_dir/toy" "${run_flags[@]}" --quiet \
    --save-model "$serve_dir/solo-flags.grrs" > /dev/null
cmp "$serve_dir/served-flags.grrs" "$serve_dir/solo-flags.grrs"

# Run 3 is paced: advance it to step 4 (past two checkpoints), then
# kill the daemon outright — no chance to checkpoint on the way down.
run3=$(client submit --input "$smoke_dir/toy" --steps 6 --seed 3 --threads 1 --paced | sed -n 's/^run_id=//p')
client budget "$run3" 4 > /dev/null
step=""
for _ in $(seq 200); do
    step=$(client status "$run3" | sed -n 's/^step=//p')
    [ "$step" = 4 ] && break
    sleep 0.05
done
[ "$step" = 4 ] || { echo "run $run3 never reached step 4" >&2; exit 1; }
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
# The killed daemon leaves its socket file behind; remove it so the wait
# below waits for the restarted daemon's socket.
rm -f "$sock"

# Daemon lifetime 2 over the same state dir: run 3 comes back from its
# newest checkpoint (step 4) and, granted exactly its remaining 2 steps,
# finishes bit-identical to an uninterrupted solo run. This lifetime
# streams telemetry for the lint below.
target/release/graphrare-serve --listen "unix:$sock" --state-dir "$serve_dir/state" \
    --max-runs 2 --checkpoint-every 2 --quiet \
    --telemetry-out "$serve_dir/serve-events.jsonl" &
serve2_pid=$!
for _ in $(seq 100); do [ -S "$sock" ] && break; sleep 0.05; done
[ -S "$sock" ] || { echo "restarted daemon socket never appeared" >&2; exit 1; }
client budget "$run3" 2 > /dev/null
client watch "$run3" > /dev/null 2>&1
client result "$run3" --out "$serve_dir/served-3.grrs" > /dev/null
target/release/graphrare --input "$smoke_dir/toy" --steps 6 --seed 3 --threads 1 --quiet \
    --save-model "$serve_dir/solo-3.grrs" > /dev/null
cmp "$serve_dir/served-3.grrs" "$serve_dir/solo-3.grrs"

# Graceful shutdown must flush telemetry and exit 0 (wait propagates a
# non-zero daemon exit through set -e).
client shutdown > /dev/null
wait "$serve2_pid"
target/release/telemetry_lint "$serve_dir/serve-events.jsonl"
# The daemon's single stream demultiplexes by run id: the resumed run's
# driver spans are there under its tag.
target/release/graphrare-trace flame "$serve_dir/serve-events.jsonl" --run-id "$run3" |
    grep -q '^driver\.run' ||
    { echo "run $run3 spans missing from daemon telemetry" >&2; exit 1; }

echo "All checks passed."
