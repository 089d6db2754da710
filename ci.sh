#!/usr/bin/env sh
# Offline CI gate: build, test, lint, audit. No network access required —
# all dependencies are in-repo path crates (see DESIGN.md "Dependencies").
set -eu

# Per-step wall-clock timing: step <name> <cmd...> runs the command,
# echoes a banner before and the elapsed seconds after.
step() {
    name="$1"; shift
    echo "== $name =="
    t0=$(date +%s)
    "$@"
    echo "-- $name: $(( $(date +%s) - t0 ))s"
}

step "build (release)" cargo build --release --workspace --all-targets

step "test" cargo test -q --workspace

# The FP16 conversion kernels against their scalar oracle on every one of
# the 2^32 f32 bit patterns; the debug test step above covers a strided
# sample and every exponent edge.
step "fp16 sweep (release)" cargo test --release -q -p espresso-gc fp16

# The engine's event loop against a test copy of the single-heap loop it
# replaced (spans bit for bit: from scratch, faulted, resumed from delta
# checkpoints), the allocations per planner trial and per compiled block,
# with the debug oracles off — the allocation counts are pinned in
# release builds only — the direct block compile against the historical
# task expansion over every option (debug builds sample), and the
# checkpoint pin against from-scratch runs of every single-swap trial at
# bases along a planner run, zoo models on 1x4 and 2x4 clusters (release
# only: hundreds of thousands of simulations).
step "event order (release)" cargo test --release -q -p espresso-sim \
    --test event_order --test alloc_per_trial --test compile_oracle \
    --test pin_soundness

step "clippy (-D warnings)" cargo clippy --workspace --all-targets -- -D warnings

# The API docs with rustdoc warnings as errors: every intra-doc link must
# resolve to a public item, so a moved or renamed item cannot leave a
# dangling or private link behind.
step "rustdoc (-D warnings)" env RUSTDOCFLAGS="-D warnings" \
    cargo doc --workspace --no-deps --offline

# The end-to-end benchmark (e2ebench/) is a Cargo workspace of its own,
# built against the repository's crates by path, so the workspace steps
# above do not compile it. Building and testing it here catches a
# training or serve API change that would break the benchmark.
step "e2ebench (build + test)" cargo test --release --offline --manifest-path e2ebench/Cargo.toml

# Verification layer: oracle sweep (200 sampled jobs, incl. degraded and
# faulted), timeline invariant audit over the fault corpus, golden-trace
# byte diff, and serve-path equivalence. Prints its own per-step timing;
# exits non-zero with a minimized repro / located byte diff on failure.
step "audit" ./target/release/espresso-audit all

# One decision + one /metrics scrape against an ephemeral-port server,
# then a clean shutdown. Exits non-zero on any non-200.
step "serve smoke" ./target/release/espresso-loadgen --smoke

# Brief load run (cached + uncached phases) regenerating BENCH_serve.json.
step "serve bench" ./target/release/espresso-loadgen --clients 4 --requests 2000 \
    --uncached-requests 200 --out BENCH_serve.json

# Fleet crash-equivalence gate: spawn a real server, register jobs and
# stream epoch-stamped health deltas, kill -9 it at the midpoint, restart
# on the same state directory, and require (a) the recovered job table to
# equal the pre-crash table byte-for-byte and (b) the final table after
# the remaining deltas to equal an uninterrupted control run's.
step "fleet gate" ./target/release/espresso-loadgen --fleet-gate

# Fleet bench: ~1200 jobs with a kill -9 + restart in the middle of the
# delta stream; regenerates BENCH_fleet.json (registration throughput,
# recovery time, delta-to-decision latency, stale serving under load).
step "fleet bench" ./target/release/espresso-loadgen --fleet --jobs 1200 --deltas 200 \
    --out BENCH_fleet.json

# Adaptive-ratio gate: the ratio-aware oracle sweep (layerwise allocator
# within 10% of exhaustive grid enumeration at equal error budget), then
# the fixed-vs-adaptive bench over the paper models; regenerates
# BENCH_adapt.json and fails unless the adaptive plan beats the best
# fixed ratio within budget on at least two models.
adapt_gate() {
    ./target/release/espresso-audit adapt
    ./target/release/adapt --out BENCH_adapt.json
}
step "adapt" adapt_gate

# Planner fast-path gate: the differential sweep (200 seeded jobs, incl.
# degraded / faulted / layerwise-ratio cases; fast vs reference planner
# must agree on every strategy, report field, robust score, and timeline
# span, bit for bit), then the cold-latency bench over the paper models;
# regenerates BENCH_decide.json and fails if the LSTM fast-path decision
# rate drops below the recorded baseline x 0.9.
decide_gate() {
    ./target/release/espresso-audit decide
    ./target/release/decide --out BENCH_decide.json
}
step "decide" decide_gate

# Multi-core planner path: the kill -9 fleet gate and the decide
# differential sweep (including its warm-vs-cold cross-request cases)
# again with ESPRESSO_PLANNER_THREADS=4, so the robust ensemble's pool
# fan-out (whole selections and the pricing matrix) is diffed
# fast-vs-reference and exercised inside the fleet replan workers on
# every run — byte-identity must hold at any thread count. The batched-replanning
# throughput gate itself (≥3x shared-spec, ≤5% unique-spec regression)
# runs inside the "fleet bench" step above. The last run repeats the
# fleet gate with the planner memo disabled (ESPRESSO_WARM_STARTS=0), so
# the kill -9 byte-identity holds on the cold path too.
planner_threads_gate() {
    ESPRESSO_PLANNER_THREADS=4 ./target/release/espresso-loadgen --fleet-gate
    ESPRESSO_PLANNER_THREADS=4 ./target/release/espresso-audit decide
    ESPRESSO_WARM_STARTS=0 ./target/release/espresso-loadgen --fleet-gate
}
step "planner threads (4)" planner_threads_gate

# Crash/recovery gate: train with a checkpoint cadence, halt mid-run (a
# simulated process crash), resume from the checkpoint, and require the
# resumed run's weight and state fingerprints to equal an uninterrupted
# run's — the bitwise-resume guarantee, end to end through the CLI.
recover() {
    ckpt_dir=$(mktemp -d)
    faults="crash=30:1,slow=50-90:4.0"
    ./target/release/espresso-cli train --steps 120 --checkpoint-every 40 \
        --halt-at 70 --checkpoint-dir "$ckpt_dir" --faults "$faults" > /dev/null
    resumed=$(./target/release/espresso-cli train --steps 120 \
        --checkpoint-dir "$ckpt_dir" --resume --faults "$faults" \
        | grep -E "^(weights|state) fingerprint:")
    fresh=$(./target/release/espresso-cli train --steps 120 --faults "$faults" \
        | grep -E "^(weights|state) fingerprint:")
    rm -rf "$ckpt_dir"
    if [ "$resumed" != "$fresh" ]; then
        echo "recover: resumed fingerprints differ from uninterrupted run" >&2
        echo "resumed:" >&2; echo "$resumed" >&2
        echo "fresh:"   >&2; echo "$fresh" >&2
        exit 1
    fi
    echo "recover: crash at 70, resume from checkpoint 40, fingerprints match"

    # The same crash with two generations on disk (60 current, 40
    # previous) and one byte of the current file's tensor section
    # substituted: the resume must reject the damaged file, fall back to
    # generation 40, and still reach the uninterrupted fingerprints.
    ckpt_dir=$(mktemp -d)
    ./target/release/espresso-cli train --steps 120 --checkpoint-every 20 \
        --halt-at 70 --checkpoint-dir "$ckpt_dir" --faults "$faults" > /dev/null
    file="$ckpt_dir/checkpoint.json"
    header=$(head -n 1 "$file")
    meta=$(echo "$header" | sed -n 's/.* meta=\([0-9]*\) .*/\1/p')
    at=$(( ${#header} + 1 + meta + 101 ))
    old=$(od -An -tu1 -j "$at" -N 1 "$file" | tr -d ' ')
    # shellcheck disable=SC2059
    printf "$(printf '\\%03o' $(( (old + 1) % 256 )))" \
        | dd of="$file" bs=1 seek="$at" conv=notrunc 2> /dev/null
    out=$(./target/release/espresso-cli train --steps 120 \
        --checkpoint-dir "$ckpt_dir" --resume --faults "$faults")
    rm -rf "$ckpt_dir"
    resumed=$(echo "$out" | grep -E "^(weights|state) fingerprint:")
    if ! echo "$out" | grep -qE "^ *\[ *40\] resumed from checkpoint" \
        || [ "$resumed" != "$fresh" ]; then
        echo "recover: a damaged current checkpoint did not fall back to 40" >&2
        echo "$out" >&2
        exit 1
    fi
    echo "recover: byte $at of generation 60 damaged, fell back to 40, fingerprints match"
}
step "recover" recover

# Elastic-membership churn gate, both layers of the stack:
#  (a) training — a seeded churn plan (Poisson-ish interleaved
#      preemptions and re-joins from --churn-faults) halted mid-run and
#      resumed from a checkpoint must reach weight/state fingerprints
#      identical to the uninterrupted run, with shards re-expanding and
#      error-feedback residuals redistributed at every membership move;
#  (b) fleet — espresso-loadgen --churn streams worker losses AND
#      re-joins at the control plane, kill -9s the server mid-churn, and
#      requires the restarted run to converge byte-for-byte with an
#      uninterrupted control run; regenerates BENCH_churn.json.
churn() {
    ckpt_dir=$(mktemp -d)
    seed=7
    ./target/release/espresso-cli train --steps 120 --churn-faults "$seed" \
        --checkpoint-every 40 --halt-at 70 --checkpoint-dir "$ckpt_dir" > /dev/null
    resumed=$(./target/release/espresso-cli train --steps 120 --churn-faults "$seed" \
        --checkpoint-dir "$ckpt_dir" --resume \
        | grep -E "^(weights|state) fingerprint:")
    fresh=$(./target/release/espresso-cli train --steps 120 --churn-faults "$seed" \
        | grep -E "^(weights|state) fingerprint:")
    rm -rf "$ckpt_dir"
    if [ "$resumed" != "$fresh" ]; then
        echo "churn: resumed fingerprints differ from uninterrupted churn run" >&2
        echo "resumed:" >&2; echo "$resumed" >&2
        echo "fresh:"   >&2; echo "$fresh" >&2
        exit 1
    fi
    echo "churn: seeded churn plan resumed bitwise (seed $seed)"
    ./target/release/espresso-loadgen --churn --out BENCH_churn.json
}
step "churn" churn

# Thread-count invariance of training, end to end through the CLI: the
# seeded churn run must print the same weight/state fingerprints at one
# thread and at three (an uneven split of the four workers), and a run
# halted at 70 under one thread and resumed under three must match the
# uninterrupted run — the parallel step and the fanned-out robust re-plans
# are bit-identical for any thread count.
train_threads() {
    ckpt_dir=$(mktemp -d)
    args="--steps 120 --churn-faults 7"
    fp() { grep -E "^(weights|state) fingerprint:"; }
    # shellcheck disable=SC2086
    one=$(./target/release/espresso-cli train $args --threads 1 | fp)
    # shellcheck disable=SC2086
    three=$(./target/release/espresso-cli train $args --threads 3 | fp)
    # shellcheck disable=SC2086
    ./target/release/espresso-cli train $args --threads 1 --checkpoint-every 40 \
        --halt-at 70 --checkpoint-dir "$ckpt_dir" > /dev/null
    # shellcheck disable=SC2086
    resumed=$(./target/release/espresso-cli train $args --threads 3 \
        --checkpoint-dir "$ckpt_dir" --resume | fp)
    rm -rf "$ckpt_dir"
    if [ "$one" != "$three" ] || [ "$resumed" != "$one" ]; then
        echo "train threads: fingerprints depend on the thread count" >&2
        echo "1 thread:" >&2; echo "$one" >&2
        echo "3 threads:" >&2; echo "$three" >&2
        echo "halted at 1, resumed at 3:" >&2; echo "$resumed" >&2
        exit 1
    fi
    echo "train threads: fingerprints equal at 1 and 3 threads, and across a 1 -> 3 resume"
}
step "train threads" train_threads

echo "CI OK"
