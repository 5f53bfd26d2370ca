#!/usr/bin/env bash
# Times the per-cycle simulator kernel (the `sim_kernel` criterion bench:
# low-injection, saturated, and congested-irregular presets over the
# headline schemes, plus keyed-RNG variants of the saturated and
# congested presets) and records the medians in BENCH_kernel.json at the
# repo root. Every preset entry carries an "rng_mode" field
# ("stream" or "keyed") naming the determinism contract it ran under;
# the *_keyed presets are the same points as their stream twins with
# RngMode::Keyed, so keyed-vs-stream is a same-session comparison.
#
# Usage:
#   scripts/bench_kernel.sh             bench + write BENCH_kernel.json
#   scripts/bench_kernel.sh --test      one untimed pass per preset (CI
#                                       smoke; writes nothing)
#   scripts/bench_kernel.sh --baseline  bench + write the numbers to
#                                       BENCH_kernel.baseline.json instead
#                                       — run this on a reference commit
#                                       (see EXPERIMENTS.md "Kernel
#                                       performance") so the next default
#                                       run reports speedups against it
#   scripts/bench_kernel.sh --rng       interleaved keyed-vs-stream
#                                       timing (kernel_time binary,
#                                       best-of-7, both modes alternated
#                                       in one process) written
#                                       commit-stamped to
#                                       BENCH_kernel_rng.json
#
# Keep PRESET_CYCLES and SCHEMES in sync with
# crates/bench/benches/sim_kernel.rs.
set -euo pipefail
cd "$(dirname "$0")/.."

declare -A PRESET_CYCLES=(
    [low]=20000 [saturated]=5000 [saturated_keyed]=5000
    [irregular]=2000 [irregular_keyed]=2000
)
PRESETS=(low saturated saturated_keyed irregular irregular_keyed)
SCHEMES=(escapevc spin drain)

# Criterion directory for one preset's estimates ("irregular" lives in
# its own benchmark group — a congested faulty mesh(12,12), the wake
# scheduler's target regime).
preset_dir() { # <preset>
    case "$1" in
        irregular)       echo "sim_kernel_irregular/congested" ;;
        irregular_keyed) echo "sim_kernel_irregular/congested_keyed" ;;
        *)               echo "sim_kernel/$1" ;;
    esac
}

# Determinism contract a preset runs under (see DESIGN.md §11).
preset_mode() { # <preset>
    case "$1" in
        *_keyed) echo keyed ;;
        *)       echo stream ;;
    esac
}

if [[ "${1:-}" == "--test" ]]; then
    exec cargo bench -p drain-bench --bench sim_kernel -- --test
fi

OUT=BENCH_kernel.json
BASELINE=BENCH_kernel.baseline.json
if [[ "${1:-}" == "--baseline" ]]; then
    OUT="$BASELINE"
fi

# Stamp with the commit actually checked out at run time (plus a -dirty
# suffix when the worktree has uncommitted changes), so a stale JSON is
# recognisable by its hash instead of masquerading as current.
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [[ "$commit" != unknown && -n "$(git status --porcelain 2>/dev/null)" ]]; then
    commit="$commit-dirty"
fi

# Median per-iteration nanoseconds from the shim's estimates.json.
median_ns() { # <preset> <scheme>  (relative to target/criterion/<group>)
    local f="target/criterion/$1/$2/new/estimates.json"
    sed -n 's/.*"median":{"point_estimate":\([0-9]*\)}.*/\1/p' "$f"
}

# ns/cycle with one decimal.
per_cycle() { # <total-ns> <cycles>
    awk -v t="$1" -v c="$2" 'BEGIN { printf "%.1f", t / c }'
}

if [[ "${1:-}" == "--rng" ]]; then
    # Same-session keyed-vs-stream comparison: the kernel_time harness
    # alternates RngMode::Stream and RngMode::Keyed within one process
    # (best-of-7 each), so container drift between measurement windows
    # cannot fabricate the ratio. Criterion's *_keyed presets above
    # remain the per-scheme medians; this file records the floors.
    cargo build --release -p drain-bench --bin kernel_time --quiet
    lines=$(./target/release/kernel_time --preset all --reps 7)
    lines+=$'\n'$(./target/release/kernel_time --preset mesh16 --reps 7)
    printf '{"commit":"%s","bench":"kernel_time","unit":"ns/cycle","points":[\n' \
        "$commit" > BENCH_kernel_rng.json
    printf '%s\n' "$lines" | sed '$!s/$/,/' >> BENCH_kernel_rng.json
    printf ']}\n' >> BENCH_kernel_rng.json
    echo "wrote BENCH_kernel_rng.json"
    cat BENCH_kernel_rng.json
    exit 0
fi

cargo bench -p drain-bench --bench sim_kernel -- 'sim_kernel/|sim_kernel_irregular'

# Median of three values.
median3() {
    printf '%s\n' "$@" | sort -g | sed -n 2p
}

# Pull a recorded per-preset median back out of a previous baseline file
# (tolerating baselines captured before the "rng_mode" field existed).
baseline_median() { # <preset>
    sed -n "s/.*\"$1\":{\"cycles\":[0-9]*,\(\"rng_mode\":\"[a-z]*\",\)\{0,1\}\"median_ns_per_cycle\":\([0-9.]*\).*/\2/p" \
        "$BASELINE" | head -n1
}

presets_json=""
declare -A PRESET_MEDIAN
for preset in "${PRESETS[@]}"; do
    cycles=${PRESET_CYCLES[$preset]}
    schemes_json=""
    vals=()
    for scheme in "${SCHEMES[@]}"; do
        ns=$(median_ns "$(preset_dir "$preset")" "$scheme")
        [[ -n "$ns" ]] || { echo "missing estimates for $preset/$scheme" >&2; exit 1; }
        npc=$(per_cycle "$ns" "$cycles")
        vals+=("$npc")
        schemes_json+="\"$scheme\":$npc,"
    done
    med=$(median3 "${vals[@]}")
    PRESET_MEDIAN[$preset]=$med
    presets_json+="\"$preset\":{\"cycles\":$cycles,\"rng_mode\":\"$(preset_mode "$preset")\","
    presets_json+="\"median_ns_per_cycle\":$med,"
    presets_json+="\"schemes\":{${schemes_json%,}}},"
done

speedup_json=""
if [[ "$OUT" != "$BASELINE" && -f "$BASELINE" ]]; then
    base_commit=$(sed -n 's/.*"commit":"\([^"]*\)".*/\1/p' "$BASELINE" | head -n1)
    for preset in "${PRESETS[@]}"; do
        base=$(baseline_median "$preset")
        [[ -n "$base" ]] || continue
        ratio=$(awk -v b="$base" -v n="${PRESET_MEDIAN[$preset]}" \
            'BEGIN { printf "%.2f", b / n }')
        speedup_json+="\"$preset\":$ratio,"
    done
    if [[ -n "$speedup_json" ]]; then
        speedup_json="\"baseline_commit\":\"$base_commit\",\"speedup_vs_baseline\":{${speedup_json%,}},"
    fi
fi

printf '{"commit":"%s","bench":"sim_kernel","unit":"ns/cycle",%s"presets":{%s}}\n' \
    "$commit" "$speedup_json" "${presets_json%,}" > "$OUT"
echo "wrote $OUT"
cat "$OUT"
