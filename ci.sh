#!/usr/bin/env bash
# Offline CI gate: formatting, lints, build, and the tier-1 test suite.
# Everything runs without network access; the workspace has no external
# dependencies.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "== kernel file-size cap: no file under crates/kernel/src over 1,300 lines =="
find crates/kernel/src -name '*.rs' -exec wc -l {} + |
    awk '$2 != "total" && $1 > 1300 { print "over 1,300 lines: " $2 " (" $1 ")"; bad = 1 } END { exit bad }'

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== workspace tests =="
cargo test -q --workspace

echo "== trace + metrics + timeseries determinism: two identical runs, byte-identical exports =="
trace_tmp="$(mktemp -d)"
trap 'rm -rf "$trace_tmp"' EXIT
OSIRIS_TRACE_OUT="$trace_tmp/a.json" OSIRIS_METRICS_OUT="$trace_tmp/a_metrics" \
    OSIRIS_AXIOM_OUT="$trace_tmp/a_axiom.bin" \
    OSIRIS_TIMESERIES_OUT="$trace_tmp/a_timeseries.json" \
    cargo run --release --example quickstart >/dev/null
OSIRIS_TRACE_OUT="$trace_tmp/b.json" OSIRIS_METRICS_OUT="$trace_tmp/b_metrics" \
    OSIRIS_AXIOM_OUT="$trace_tmp/b_axiom.bin" \
    OSIRIS_TIMESERIES_OUT="$trace_tmp/b_timeseries.json" \
    cargo run --release --example quickstart >/dev/null
diff "$trace_tmp/a.json" "$trace_tmp/b.json"
diff "$trace_tmp/a_metrics.prom" "$trace_tmp/b_metrics.prom"
diff "$trace_tmp/a_metrics.json" "$trace_tmp/b_metrics.json"
diff "$trace_tmp/a_timeseries.json" "$trace_tmp/b_timeseries.json"
cmp "$trace_tmp/a_axiom.bin" "$trace_tmp/b_axiom.bin"

echo "== promlint: Prometheus exposition well-formedness =="
cargo run --release -p osiris-metrics --bin promlint -- \
    "$trace_tmp/a_metrics.prom" "$trace_tmp/b_metrics.prom"

echo "== campaign smoke: degraded/quarantined outcome classes reach the report =="
OSIRIS_CAMPAIGN_OUT="$trace_tmp/campaign_smoke.json" \
    cargo run --release -p osiris-bench --bin campaign_smoke >/dev/null

echo "== double-fault smoke: faults during recovery survive via the fallback chain =="
OSIRIS_CAMPAIGN_OUT="$trace_tmp/double_fault.json" \
    cargo run --release -p osiris-bench --bin double_fault >/dev/null
grep -q '"during-recovery"' "$trace_tmp/double_fault.json" || {
    echo "double-fault report missing the during-recovery model" >&2
    exit 1
}

echo "== axiom_replay: replaying the recorded axiom reproduces the run byte-for-byte =="
OSIRIS_REPLAY_TRACE_OUT="$trace_tmp/replay.json" \
    OSIRIS_REPLAY_METRICS_OUT="$trace_tmp/replay_metrics" \
    OSIRIS_REPLAY_TIMESERIES_OUT="$trace_tmp/replay_timeseries.json" \
    cargo run --release -p osiris-bench --bin axiom_replay -- "$trace_tmp/a_axiom.bin"
diff "$trace_tmp/a.json" "$trace_tmp/replay.json"
diff "$trace_tmp/a_metrics.prom" "$trace_tmp/replay_metrics.prom"
diff "$trace_tmp/a_metrics.json" "$trace_tmp/replay_metrics.json"
diff "$trace_tmp/a_timeseries.json" "$trace_tmp/replay_timeseries.json"
cargo run --release -p osiris-bench --bin axiom_bisect -- \
    "$trace_tmp/a_axiom.bin" "$trace_tmp/b_axiom.bin" >/dev/null

echo "== bench_trace --check: tracer overhead bounds =="
cargo run --release -p osiris-bench --bin bench_trace -- --check

echo "== bench_metrics --check: registry overhead bounds =="
cargo run --release -p osiris-bench --bin bench_metrics -- --check

echo "== bench_restart --check: O(dirty) restart + clone-pool dedup =="
cargo run --release -p osiris-bench --bin bench_restart -- --check

echo "== bench_axiom --check: disabled-recorder overhead + zero-alloc retention =="
cargo run --release -p osiris-bench --bin bench_axiom -- --check

echo "== bench_spans --check: disabled span-recorder overhead + zero-alloc recording =="
cargo run --release -p osiris-bench --bin bench_spans -- --check

echo "== hang_recovery example: wedge -> watchdog verdict -> rollback -> transparent retry =="
cargo run --release --example hang_recovery >/dev/null

echo "== bench_timeouts --check: hang-detection latency bound + zero-alloc armed deadlines =="
cargo run --release -p osiris-bench --bin bench_timeouts -- --check

echo "== campaign_coverage: FailStop + DoubleFault x DuringRecovery + fail-silent Hang/ReplyDrop coverage gates =="
OSIRIS_FORGE_OUT="$trace_tmp/campaign_coverage" \
    cargo run --release -p osiris-bench --bin campaign_coverage >/dev/null
cargo run --release -p osiris-metrics --bin promlint -- "$trace_tmp/campaign_coverage.prom"

echo "== bench_campaign --check: forged-injection speedup + adoption alloc discipline =="
cargo run --release -p osiris-bench --bin bench_campaign -- --check

echo "ci.sh: all gates passed"
