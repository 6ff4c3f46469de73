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

echo "== one injection path: only InjectionRecord::from_run builds a record from a run =="
test "$(grep -rln "RecoveryActionTag::from_counts(" crates/*/src examples)" = crates/faults/src/campaign.rs

echo "== one metrics store, one trace owner: no shared slots in osiris-metrics or osiris-trace, no publish/mirror step in the kernel, no trace handle =="
if grep -rn 'Atomic\|Mutex' crates/metrics/src ||
    grep -rn 'Atomic\|Mutex\|Arc' crates/trace/src ||
    grep -rn 'publish(\|reload_published(\|sync_registry(' crates/kernel/src ||
    grep -rn TraceHandle crates/*/src src examples; then
    exit 1
fi

echo "== metrics are a fold: the kernel names no series and writes none; osiris_metrics::SeriesFold does =="
if grep -rnE 'CounterId|GaugeId|HistId|series_table!|\.(inc|observe|set_max)\(' crates/kernel/src; then
    exit 1
fi

echo "== one run token: the RCB spawns no thread and owns no channel; the process host has no channel =="
if grep -rnE 'thread::(spawn|Builder|scope)|mpsc' crates/{kernel,core,checkpoint,cothread}/src ||
    grep -n 'mpsc\|channel(' crates/workloads/src/host.rs; then
    exit 1
fi

echo "== one event table, one writer: chrome.rs, the metric renderers and the reports build no Json tree and, like render_text, format nothing through core::fmt; the kernel holds no trace vocabulary, no path becomes a lossy string =="
text_path="$(sed -n '/^pub(crate) enum CompName/,/^fn text_capacity/p' crates/trace/src/lib.rs)"
metric_paths="$(sed -n '/^pub fn render_prometheus/,/^pub fn validate_prometheus/p' crates/metrics/src/prom.rs
    sed -n '1,/^#\[cfg(test)\]/p' crates/metrics/src/export.rs
    sed -n '/^impl WriteJson for TimeseriesSampler/,/^}/p' crates/metrics/src/timeseries.rs)"
report_rs="$(find crates/faults/src crates/bench/src -name '*.rs')"
report_prod="$(for f in $report_rs; do sed '/^#\[cfg(test)\]/,$d' "$f"; done)"
report_impls="$(for f in $report_rs; do sed -n '/^impl WriteJson for/,/^}/p' "$f"; done)"
test -n "$text_path"
test "$(grep -c '^pub fn render_prometheus\|^impl WriteJson for' <<<"$metric_paths")" = 3
test -n "$report_prod"
test "$(grep -c '^impl WriteJson for' <<<"$report_impls")" = 14
if grep -n 'Json::' crates/trace/src/chrome.rs ||
    grep -n 'format_args!\|write!(\|writeln!(\|:?}' crates/trace/src/chrome.rs ||
    grep -n 'format_args!\|write!(\|writeln!(\|:?}' <<<"$text_path" ||
    grep -n 'format!\|write!(\|writeln!(\|to_string()\|replace(\|Json::' <<<"$metric_paths" ||
    grep -n '\bJson::' <<<"$report_prod" ||
    grep -n 'format!\|to_string()\|:?}' <<<"$report_impls" ||
    grep -n 'pub use json::.*\bJson\b' crates/trace/src/lib.rs crates/bench/src/lib.rs ||
    grep -rn 'fn trace_twin' crates/kernel/src ||
    grep -rn to_string_lossy crates/*/src src examples; then
    exit 1
fi

echo "== one control-plane vocabulary: the RCB mirrors no axiom code, the axiom has no converter beyond codes!'s from_u8 =="
if grep -rnE 'enum (CompStatus|IntentPhase|RecoveryAction|RecoveryPhase)\b' crates/{kernel,core}/src ||
    grep -rnE 'fn \w+_u8\(|fn \w+_from\(' crates/axiom/src | grep -v 'fn from_u8('; then
    exit 1
fi

echo "== one conduct state: the kernel keeps no recovering mirror and no replay cap; osiris_core::conduct decides =="
if grep -rnE '\brecovering\s*:' crates/kernel/src || grep -rn 'MAX_INTENT_REPLAYS' crates/kernel/src; then
    exit 1
fi

echo "== one watchdog step: the kernel keeps no watchdog timing and no detection state; osiris_core::watchdog decides =="
if grep -rnE 'MAX_RETRIES|MAX_PROBES|BACKOFF_BASE|PROBE_PERIOD|enum WdState' crates/kernel/src; then
    exit 1
fi

echo "== one search harness; no kernel entry point or recovery step mirrored: the searches share tests/support, the kernel and the searches run osiris_core's Host methods =="
if grep -nE 'struct Graph|fn search\(|impl Hasher for' crates/core/tests/*.rs ||
    grep -rnE 'fn (watchdog_after_ok|watchdog_rejects_reply|watchdog_fails|service_watchdog|fall_back|restart_rs|resolve_intent)\b' crates/kernel/src crates/core/tests ||
    grep -rnE 'fn (capture_fault|execute_recovery|shut_down|bounce|quarantine)\b' crates/core/tests ||
    grep -rn 'Effect::Retry(' crates/kernel/src; then
    exit 1
fi

echo "== one undo path in the checkpoint crate: no boxed reference log, no deep-copy image, no coalescing switch =="
if grep -rnE 'UndoMode|BoxedReference|boxed_log|DeepImage|clone_image_deep|restore_image_deep|set_coalescing' crates/*/src src examples; then
    exit 1
fi

echo "== no discarded copies: a statement that drops a PMap::remove result calls delete instead =="
if grep -rnE '^\s*[a-z_][a-z_0-9().]*\.remove\(ctx\.heap\(\), [^;]*\);$' crates/*/src; then
    exit 1
fi

echo "== handlers own their messages: no handler borrows its message; the disk write queue and the VFS cache fill move their block =="
disk_write_arm="$(sed -n '/OsMsg::DiskWrite {/,/OsMsg::DiskTick/p' crates/servers/src/disk.rs)"
vfs_disk_reply="$(sed -n '/fn disk_reply(/,/^    }$/p' crates/servers/src/vfs.rs)"
test -n "$disk_write_arm" && test -n "$vfs_disk_reply"
if grep -rnE 'fn handle\([^)]*&(\w+::)*Message<' crates/*/src crates/*/tests src tests examples ||
    grep -n 'data\.clone()' <<<"$disk_write_arm$vfs_disk_reply"; then
    exit 1
fi

echo "== one shared block: a disk block is one Block (Arc<[u8]>) from the VFS cache through DiskWrite, the disk's queue and store, and back as RData; the disk copies none =="
disk_write="$(sed -n '/^    DiskWrite {/,/^    },/p' crates/servers/src/proto.rs)"
r_data="$(grep '^    RData(' crates/servers/src/proto.rs)"
disk_op="$(sed -n '/^enum DiskOp {/,/^}/p' crates/servers/src/disk.rs)"
disk_store="$(grep '^    blocks: ' crates/servers/src/disk.rs)"
cache_block="$(sed -n '/^struct CacheBlock {/,/^}/p' crates/servers/src/vfs.rs)"
if grep -n 'Vec<u8>' <<<"$disk_write$r_data$disk_op$disk_store$cache_block" ||
    grep -n '\.to_vec()' crates/servers/src/disk.rs; then
    exit 1
fi
for part in "$disk_write" "$r_data" "$disk_op" "$disk_store" "$cache_block"; do
    grep -qw Block <<<"$part" || { echo "a block type's declaration was not found" >&2; exit 1; }
done

echo "== one audit, typed: the RCB carries no OS facts =="
if grep -rn 'audit_facts\|heap_of(' crates/*/src src examples ||
    grep -rnE 'contains\("(torn|orphan)' crates/servers/src; then
    exit 1
fi

echo "== one value per injection stage: one site profiler, a campaign built from its ordered records, coverage keyed by the site =="
if grep -rnE 'record_at|site_digest128|StepProfiler|StepProfile\b|fn quiet' crates/*/src src examples ||
    grep -n Mutex crates/faults/src/campaign.rs; then
    exit 1
fi

echo "== one inspector, one scenario: three binaries; the quickstart programs and fault are osiris_workloads::quickstart's alone =="
bins="$(find crates -path '*/src/bin/*' | sort | tr '\n' ' ')"
test "$bins" = "crates/bench/src/bin/gates.rs crates/bench/src/bin/osiris-inspect.rs crates/bench/src/bin/reproduce.rs " ||
    { echo "unexpected binaries: $bins" >&2; exit 1; }
if grep -nE 'impl\b.*\bFaultHook\b|ProgramRegistry::new\(\)' examples/quickstart.rs crates/bench/src/bin/*.rs; then
    exit 1
fi

echo "== DESIGN.md stays within its 45,083-byte cap =="
test "$(wc -c < DESIGN.md)" -le 45083

echo "== repo-root size cap: no tracked file at the root over 64 KiB (dumps belong under target/) =="
git ls-files -z -- ':(glob)*' | xargs -0 wc -c |
    awk '$2 != "total" && $1 > 65536 { print "over 64 KiB: " $2 " (" $1 " bytes)"; bad = 1 } END { exit bad }'

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== workspace tests (the root package ran in tier-1) =="
cargo test -q --workspace --exclude osiris

echo "== export determinism: two identical runs, byte-identical export trees =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
OSIRIS_OUT_DIR="$tmp/a" cargo run --release --example quickstart >/dev/null
OSIRIS_OUT_DIR="$tmp/b" cargo run --release --example quickstart >/dev/null
diff -r "$tmp/a" "$tmp/b"

echo "== osiris-inspect lint: Prometheus exposition well-formedness =="
cargo run --release -p osiris-bench --bin osiris-inspect -- lint \
    "$tmp/a/metrics.prom" "$tmp/b/metrics.prom"

echo "== osiris-inspect replay: replaying the recorded axiom reproduces the run byte-for-byte =="
OSIRIS_OUT_DIR="$tmp/replay" \
    cargo run --release -p osiris-bench --bin osiris-inspect -- replay "$tmp/a/axiom.bin"
diff -r "$tmp/a" "$tmp/replay"
cargo run --release -p osiris-bench --bin osiris-inspect -- diff \
    "$tmp/a/axiom.bin" "$tmp/b/axiom.bin" >/dev/null

echo "== gates: every exact-count claim (restore, watchdog, forge, recording layers, map stores); no clock, no file writes =="
cargo run --release -p osiris-bench --bin gates

echo "== benchmark/: builds against the facade, passes its tests, and a --quick run fails no operation =="
CARGO_TARGET_DIR=target cargo build --release --manifest-path benchmark/Cargo.toml
CARGO_TARGET_DIR=target cargo test -q --manifest-path benchmark/Cargo.toml
benchmark/run.sh --quick >/dev/null

echo "== hang_recovery example: wedge -> watchdog verdict -> rollback -> transparent retry =="
cargo run --release --example hang_recovery >/dev/null

echo "== clean tree: no gate wrote a tracked or unignored file =="
test -z "$(git status --porcelain)" || { git status --short >&2; exit 1; }

echo "ci.sh: all gates passed"
