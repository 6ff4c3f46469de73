#!/usr/bin/env bash
# Builds the benchmark, runs all six workloads with tracing off and the
# traced runs, prints every metric by name with its unit, and writes
# <target>/benchmark/summary.json (one row per metric and workload).
#
#   benchmark/run.sh [--seed N] [--seconds S] [--quick] [--agree] [--check]
#
#   --quick   smoke sizing (< 20 s): every code path, no steady numbers;
#             only paper_replay is traced
#   --agree   run the untraced set twice and hold each end-to-end metric to
#             its bound (exact metrics and sim_digest must be equal)
#   --check   compare the exact metrics and sim_digest with
#             benchmark/baseline.json (same seed and sizing); any move, up
#             or down, fails
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1 seconds=10 quick="" agree=0 check=0
while [ $# -gt 0 ]; do
    case "$1" in
    --seed) seed=$2; shift ;;
    --seconds) seconds=$2; shift ;;
    --quick) quick=--quick; seconds=1 ;;
    --agree) agree=1 ;;
    --check) check=1 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/osiris-benchmark"
out="$CARGO_TARGET_DIR/benchmark"
mkdir -p "$out"
workloads=$("$bin" --list | awk '$1 == "workload" { print $2 }')
traced=$workloads
[ -n "$quick" ] && traced=paper_replay

failed=0
# run <workload> <trace> <file>: one process; its output, less the JSON
# line the driver reads, goes to the terminal and to <file>.
run() {
    echo "== $1 (seed $seed, trace $2)"
    # shellcheck disable=SC2086
    "$bin" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2" $quick \
        | grep -v '^{' | tee "$3" || failed=1
}

# rows <file> <workload> <trace>: the metric lines of one run as JSON rows.
rows() {
    awk -v w="$2" -v t="$3" '
        $1 == "workload" || $1 == "note:" { next }
        $1 == "ops" {
            printf "{\"workload\": \"%s\", \"trace\": %s, \"metric\": \"ops\", \"value\": %s}\n", w, t, $2
            printf "{\"workload\": \"%s\", \"trace\": %s, \"metric\": \"failed_ops\", \"value\": %s}\n", w, t, $4
            if (t == 0)
                printf "{\"workload\": \"%s\", \"trace\": %s, \"metric\": \"sim_digest\", \"value\": \"%s\"}\n", w, t, $6
            next
        }
        NF >= 3 {
            printf "{\"workload\": \"%s\", \"trace\": %s, \"metric\": \"%s\", \"value\": %s, \"unit\": \"%s\"", w, t, $1, $2, $3
            if (NF >= 15)
                printf ", \"median\": %s, \"q1\": %s, \"q3\": %s, \"p90\": %s, \"min\": %s, \"n\": %s", $5, $7, $9, $11, $13, $15
            printf "}\n"
        }' "$1"
}

: > "$out/rows.a"
for w in $workloads; do
    run "$w" 0 "$out/$w.a.txt"
    rows "$out/$w.a.txt" "$w" 0 >> "$out/rows.a"
done
for w in $traced; do
    run "$w" 1 "$out/$w.traced.txt"
    rows "$out/$w.traced.txt" "$w" 1 >> "$out/rows.a"
done

{
    printf '{\n"seed": %s,\n"seconds": %s,\n"quick": %s,\n"rows": [\n' \
        "$seed" "$seconds" "$([ -n "$quick" ] && echo true || echo false)"
    sed '$!s/$/,/' "$out/rows.a"
    printf ']\n}\n'
} > "$out/summary.json"
echo "summary written to $out/summary.json"

# The rows of exact metrics, stripped to what must repeat.
exact_rows() {
    exact=$("$bin" --list | awk '$1 == "end_to_end" && $6 == "exact" { printf "%s|", $2 }')
    grep -E "\"trace\": 0, \"metric\": \"(${exact}sim_digest)\"" "$1" | sed 's/, "unit".*/}/; s/,$//'
}

if [ "$agree" = 1 ]; then
    : > "$out/rows.b"
    for w in $workloads; do
        run "$w" 0 "$out/$w.b.txt"
        rows "$out/$w.b.txt" "$w" 0 >> "$out/rows.b"
    done
    echo "== agreement of two sets (seed $seed)"
    if ! diff <(exact_rows "$out/rows.a") <(exact_rows "$out/rows.b"); then
        echo "DISAGREE: exact metrics differ between the two sets"
        failed=1
    fi
    "$bin" --list | awk '$1 == "end_to_end" && $6 == "timed" { print $2, $5 }' > "$out/bounds"
    # Each timed metric: how far the second set is from the first, as a
    # share of the first, against the bound.
    if ! awk -F'[:,}] *' '
        FILENAME ~ /bounds$/ { split($0, b, " "); bound[b[1]] = b[2]; next }
        {
            gsub(/"/, "")
            w = $2; m = $6; v = $8
            if (!(m in bound)) next
            if (FILENAME ~ /rows.a$/) { a[w, m] = v; next }
            worse = (v - a[w, m]) / a[w, m]
            verdict = (worse <= bound[m]) ? "agree" : "DISAGREE"
            if (verdict == "DISAGREE") bad = 1
            printf "%-16s %-24s %14.4f %14.4f %+7.1f%% (bound %2.0f%%) %s\n", w, m, a[w, m], v, 100 * worse, 100 * bound[m], verdict
        }
        END { exit bad }' "$out/bounds" "$out/rows.a" "$out/rows.b"; then
        failed=1
    fi
fi

if [ "$check" = 1 ]; then
    echo "== exact metrics against benchmark/baseline.json"
    if diff <(exact_rows benchmark/baseline.json) <(exact_rows "$out/rows.a"); then
        echo "exact metrics and sim_digest equal the baseline's"
    else
        echo "CHECK FAILED: an exact metric or sim_digest moved (baseline seed and sizing are in benchmark/baseline.json)"
        failed=1
    fi
fi

if grep -q '"metric": "failed_ops", "value": [1-9]' "$out/rows.a"; then
    echo "FAILED: a workload reported failed_ops > 0"
    failed=1
fi
exit $failed
