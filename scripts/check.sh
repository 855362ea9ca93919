#!/usr/bin/env bash
# Build and test every supported configuration:
#   default  - RelWithDebInfo with trace instrumentation compiled in
#   asan     - address + undefined-behaviour sanitizers
#   notrace  - every Probe publish call compiled out (the zero-overhead
#              configuration); the component libraries must not
#              reference TraceRecorder::push, and those below the core
#              must not reference the counter table (CounterRegistry)
#              either
#   tsan     - thread sanitizer over the lane workers of threaded
#              batch passes and two traced machines on two threads
#              (runs test_trace, test_metrics, test_engine_threads,
#              test_batch, test_serving and the quick engine fuzz; see
#              CMakePresets)
#
# The presets exclude the "long" ctest label (the 100-seed engine
# fuzz); run `ctest` directly in a build dir for the full profile.
#
# Usage: scripts/check.sh [preset...]   (default: all four)
set -euo pipefail

cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
    presets=(default asan notrace tsan)
fi

for preset in "${presets[@]}"; do
    echo "=== [$preset] configure ==="
    cmake --preset "$preset"
    echo "=== [$preset] build ==="
    cmake --build --preset "$preset" -j "$(nproc)"
    echo "=== [$preset] test ==="
    ctest --preset "$preset"
    if [ "$preset" = notrace ]; then
        # Compile-out guard: no publish site may survive as a call
        # into the trace recorder, and no component below the core
        # (which owns the never-built TraceSession) may call into the
        # counter table (notrace builds define its add() out of line
        # so that a surviving counter publish shows up here).
        for lib in core dram noc pe png serving; do
            undefined="$(nm -uC "build-notrace/src/$lib/libnc_$lib.a")"
            if grep -q 'TraceRecorder::push' <<<"$undefined"; then
                echo "FAIL: libnc_$lib.a references TraceRecorder::push"
                exit 1
            fi
            if [ "$lib" != core ] \
                && grep -q 'CounterRegistry::' <<<"$undefined"
            then
                echo "FAIL: libnc_$lib.a references the counter table"
                exit 1
            fi
        done
        echo "notrace compile-out guard passed"
    fi
done

# Quick-mode serving smoke: run the serve_sweep bench against the
# committed baseline — the sweep is deterministic, so its cycle and
# served-request counts must match bench/baselines/BENCH_serve.json
# exactly (see bench.sh --compare).
case " ${presets[*]} " in
*" default "*)
    echo "=== [default] serve_sweep smoke ==="
    smoke_dir="$(mktemp -d)"
    trap 'rm -rf "$smoke_dir"' EXIT
    NEUROCUBE_QUICK=1 scripts/bench.sh --compare bench/baselines \
        "$smoke_dir" serve_sweep

    # HTML report smoke: the self-contained report must be valid
    # (template markers present) and byte-deterministic across two
    # identical runs — wall_ms is host wall-clock, so it is the one
    # field normalized before the comparison.
    echo "=== [default] html report smoke ==="
    build="${NEUROCUBE_BUILD:-build}"
    mkdir -p "$smoke_dir/report_a" "$smoke_dir/report_b"
    NEUROCUBE_QUICK=1 NEUROCUBE_BENCH_DIR="$smoke_dir/report_a" \
        "$build/bench/table3_comparison" >/dev/null
    NEUROCUBE_QUICK=1 NEUROCUBE_BENCH_DIR="$smoke_dir/report_b" \
        "$build/bench/table3_comparison" >/dev/null
    report="$smoke_dir/report_a/BENCH_table3.html"
    for marker in '<!DOCTYPE html>' 'id="nc-data"' '</html>'; do
        if ! grep -qF "$marker" "$report"; then
            echo "FAIL: $report missing '$marker'"
            exit 1
        fi
    done
    normalize_wall() {
        sed -E 's/"wall_ms":[0-9.eE+-]+/"wall_ms":0/g' "$1"
    }
    if ! cmp -s <(normalize_wall "$report") \
            <(normalize_wall "$smoke_dir/report_b/BENCH_table3.html")
    then
        echo "FAIL: BENCH_table3.html differs across identical runs"
        exit 1
    fi
    echo "html report smoke passed"
    ;;
esac

echo "all presets passed: ${presets[*]}"
