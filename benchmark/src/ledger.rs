//! The ledger's vocabulary: workload and metric names with their units,
//! directions and bounds (mirrored by `BENCHMARK.json`), and the public
//! counters of an `Os` the per-layer ratios are computed from.

use osiris::{Os, OsEngine};

use crate::spans::{Agg, Kind, SpanLog, SERVERS};
use crate::stats::Summary;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    /// End-to-end metrics only; per-layer metrics carry none.
    pub bound: f64,
    /// A count made by the program: two runs with one seed must agree to
    /// the last digit, whatever the bound allows across seeds.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, exact: bool) -> Def {
    Def {
        name,
        unit,
        better: "lower",
        bound,
        exact,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

/// `(name, why)` of every workload, in running order.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "paper_replay",
        "the paper's 12 UnixBench analogs and test suite replayed on the default config: every fault-free layer contributes; the headline",
    ),
    (
        "paper_observed",
        "the same programs with trace, axiom, timeseries and watchdog on plus the export/replay tail: the layers' recording path",
    ),
    (
        "null_rpc",
        "read-only syscalls on one key and one path: pump, window and Ctx set-up do all the work, checkpoint does none",
    ),
    (
        "write_heavy",
        "8 KiB writes and 4 KiB reads over 8 x 48 KiB files (6x the VFS cache), 2 KiB DsPuts, Brks: heap, journal, cache and disk timers dominate",
    ),
    (
        "crash_storm",
        "a round across PM, VM, VFS and DS with a crash on every K-th eligible probe: the only workload where rollback, restart and the RS conduct matter",
    ),
    (
        "forge_campaign",
        "Forge::plan + run_plan at stress 1200 on one thread: the snapshot/fork/readopt layer and the campaign plane no syscall workload touches",
    ),
];

/// End-to-end metrics: measured with tracing off, by every workload.
///
/// The bounds are three times the widest run-to-run spread measured over ten
/// seeds on the sandbox this was written on (see the README's noise floor),
/// or 0.25, the widest a bound may be. The issue asked for 0.08 and 0.10 on
/// the times; the sandbox does not allow them.
pub const END_TO_END: [Def; 7] = [
    e2e("host_ns_per_syscall", "ns", 0.25, false),
    e2e("host_ms_per_injection", "ms", 0.25, false),
    e2e("allocs_per_syscall", "count", 0.02, true),
    e2e("vcycles_per_syscall", "cycles", 0.05, true),
    e2e("export_replay_ms", "ms", 0.25, false),
    e2e("peak_rss_mib", "MiB", 0.15, false),
    e2e("setup_s", "s", 0.25, false),
];

/// Per-layer metrics: emitted by every traced run.
pub const PER_LAYER: [Def; 81] = [
    layer("bench.driver_self_ns_per_syscall", "ns", "lower"),
    layer("bench.span_reconcile_pct", "%", "lower"),
    layer("trace_overhead_pct", "%", "lower"),
    layer("servers.os.boot_ms", "ms", "lower"),
    layer("servers.os.submit_ns", "ns", "lower"),
    layer("servers.os.submit_allocs", "count", "lower"),
    layer("servers.pm.host_ns_per_syscall", "ns", "lower"),
    layer("servers.pm.syscall_share", "share", "lower"),
    layer("servers.vm.host_ns_per_syscall", "ns", "lower"),
    layer("servers.vm.syscall_share", "share", "lower"),
    layer("servers.vfs.host_ns_per_syscall", "ns", "lower"),
    layer("servers.vfs.syscall_share", "share", "lower"),
    layer("servers.ds.host_ns_per_syscall", "ns", "lower"),
    layer("servers.ds.syscall_share", "share", "lower"),
    layer("kernel.pump.host_ns_per_msg", "ns", "lower"),
    layer("kernel.pump.msgs_per_syscall", "count", "lower"),
    layer("kernel.pump.calls_per_syscall", "count", "lower"),
    layer("kernel.pump.empty_call_ns", "ns", "lower"),
    layer("kernel.pump.allocs_per_msg", "count", "lower"),
    layer("kernel.timer.fire_ns", "ns", "lower"),
    layer("kernel.timer.fires_per_syscall", "count", "lower"),
    layer("kernel.watchdog.delta_ns_per_msg", "ns", "lower"),
    layer("kernel.watchdog.armed_per_syscall", "count", "lower"),
    layer("kernel.host.handoff_us_per_syscall", "us", "lower"),
    layer("core.window.opens_per_syscall", "count", "lower"),
    layer("core.window.closed_by_send_share", "share", "lower"),
    layer("core.window.coverage_by_cycles", "share", "higher"),
    layer("core.window.delta_ns_per_syscall", "ns", "lower"),
    layer("core.policy.pessimistic_delta_ns", "ns", "lower"),
    layer("core.recovery.host_us_per_recovery", "us", "lower"),
    layer("core.recovery.vcycles_per_recovery", "cycles", "lower"),
    layer("core.recovery.rollback_share", "share", "higher"),
    layer("core.recovery.ecrash_share", "share", "lower"),
    layer("checkpoint.journal.delta_ns_per_syscall", "ns", "lower"),
    layer(
        "checkpoint.journal.always_delta_ns_per_syscall",
        "ns",
        "lower",
    ),
    layer(
        "checkpoint.journal.undo_appends_per_syscall",
        "count",
        "lower",
    ),
    layer("checkpoint.journal.coalesced_share", "share", "higher"),
    layer("checkpoint.journal.undo_bytes_per_syscall", "B", "lower"),
    layer("checkpoint.heap.logged_write_ns", "ns", "lower"),
    layer("checkpoint.heap.unlogged_write_ns", "ns", "lower"),
    layer("checkpoint.journal.rollback_ns_per_record", "ns", "lower"),
    layer("checkpoint.image.clone_us_1pct", "us", "lower"),
    layer("checkpoint.image.restore_us_1pct", "us", "lower"),
    layer("checkpoint.image.restore_us_100pct", "us", "lower"),
    layer("axiom.delta_ns_per_msg", "ns", "lower"),
    layer("axiom.records_per_syscall", "count", "lower"),
    layer("axiom.bytes_per_record", "B", "lower"),
    layer("axiom.serialize_ms", "ms", "lower"),
    layer("axiom.verify_ms", "ms", "lower"),
    layer("axiom.decode_ms", "ms", "lower"),
    layer("axiom.reduce_ms", "ms", "lower"),
    layer("axiom.replay_ms", "ms", "lower"),
    layer("trace.delta_ns_per_msg", "ns", "lower"),
    layer("trace.text_export_ms", "ms", "lower"),
    layer("trace.chrome_export_ms", "ms", "lower"),
    layer("trace.chrome_mib", "MiB", "lower"),
    layer("metrics.delta_ns_per_msg", "ns", "lower"),
    layer("metrics.snapshot_ms", "ms", "lower"),
    layer("metrics.prom_render_ms", "ms", "lower"),
    layer("metrics.json_render_ms", "ms", "lower"),
    layer("metrics.families", "count", "lower"),
    layer("metrics.timeseries.delta_ns_per_msg", "ns", "lower"),
    layer("metrics.timeseries.export_ms", "ms", "lower"),
    layer("faults.forge.plan_ms", "ms", "lower"),
    layer("faults.forge.snapshot_us", "us", "lower"),
    layer("faults.forge.fork_ms", "ms", "lower"),
    layer("faults.forge.readopt_us", "us", "lower"),
    layer("faults.forge.readopt_share", "share", "higher"),
    layer("faults.forge.dirty_kib_per_fork", "KiB", "lower"),
    layer("faults.forge.suffix_ms_per_injection", "ms", "lower"),
    layer("faults.forge.scaling_2t", "x", "higher"),
    layer("faults.injector.armed_delta_ns_per_syscall", "ns", "lower"),
    layer("monolith.host_ns_per_syscall", "ns", "lower"),
    layer("kernel.compartment_overhead_x", "x", "lower"),
    layer("sim.slowdown_vs_monolith", "x", "lower"),
    layer("sim.instr_slowdown_enhanced", "x", "lower"),
    layer("sim.instr_slowdown_pessimistic", "x", "lower"),
    layer("sim.instr_slowdown_always", "x", "lower"),
    layer("ablation.all_on_delta_ns_per_msg", "ns", "lower"),
    layer("ablation.residual_pct", "%", "lower"),
    layer("bench.threads_available", "count", "higher"),
];

/// One measured value. A timed one is the fastest of its samples (see
/// [`Summary`]) and carries their distribution.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub dist: Option<Summary>,
}

impl Metric {
    pub fn plain(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            dist: None,
        }
    }

    pub fn timed(name: &'static str, dist: Summary) -> Metric {
        Metric {
            name,
            value: dist.min,
            dist: Some(dist),
        }
    }
}

/// What a run, or a part of one, comes to.
#[derive(Default)]
pub struct Outcome {
    pub ops: u64,
    pub failed: u64,
    pub sim_digest: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Takes over everything `part` measured, counted and noted.
    pub fn absorb(&mut self, part: Outcome) {
        self.ops += part.ops;
        self.failed += part.failed;
        self.metrics.extend(part.metrics);
        self.notes.extend(part.notes);
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The public counters of an `Os` the ledger uses, read through
/// `Os::metrics()`, `Os::reports()` and `Os::axiom()`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub now: u64,
    pub msgs: u64,
    pub syscalls: u64,
    pub timers: u64,
    pub wd_armed: u64,
    pub crashes: u64,
    pub recoveries: u64,
    pub rollbacks: u64,
    pub recovery_cycles: u64,
    pub opens: u64,
    pub closed_by_send: u64,
    pub cycles_in: u64,
    pub cycles_out: u64,
    pub undo_appends: u64,
    pub coalesced: u64,
    pub undo_bytes: u64,
    pub axiom_records: u64,
}

impl Counters {
    pub fn read(os: &Os) -> Counters {
        let m = os.metrics();
        let mut c = Counters {
            now: os.now(),
            msgs: m.ipc_delivered,
            syscalls: m.syscalls,
            timers: m.timers_fired,
            wd_armed: m.wd_armed,
            crashes: m.crashes,
            recoveries: m.recovered_rollback
                + m.recovered_fresh
                + m.recovered_naive
                + m.recovered_quiescent,
            rollbacks: m.recovered_rollback,
            recovery_cycles: m.recovery_cycles,
            axiom_records: os.axiom().len() as u64,
            ..Counters::default()
        };
        for r in os.reports() {
            c.opens += r.window.opens;
            c.closed_by_send += r.window.closed_by_send;
            c.cycles_in += r.window.cycles_in;
            c.cycles_out += r.window.cycles_out;
            c.undo_appends += r.undo_appends;
            c.coalesced += r.coalesced_writes;
            // The report carries the count and the integer mean of the
            // per-window undo bytes, not their sum.
            c.undo_bytes += r.undo_window_bytes.count * r.undo_window_bytes.mean;
        }
        c
    }

    fn fields(&mut self) -> [&mut u64; 17] {
        [
            &mut self.now,
            &mut self.msgs,
            &mut self.syscalls,
            &mut self.timers,
            &mut self.wd_armed,
            &mut self.crashes,
            &mut self.recoveries,
            &mut self.rollbacks,
            &mut self.recovery_cycles,
            &mut self.opens,
            &mut self.closed_by_send,
            &mut self.cycles_in,
            &mut self.cycles_out,
            &mut self.undo_appends,
            &mut self.coalesced,
            &mut self.undo_bytes,
            &mut self.axiom_records,
        ]
    }

    /// `self - earlier`, field by field.
    pub fn since(mut self, mut earlier: Counters) -> Counters {
        for (a, b) in self.fields().into_iter().zip(earlier.fields()) {
            *a -= *b;
        }
        self
    }

    /// `self + other`, field by field.
    pub fn plus(mut self, mut other: Counters) -> Counters {
        for (a, b) in self.fields().into_iter().zip(other.fields()) {
            *a += *b;
        }
        self
    }
}

/// The per-layer metrics the traced passes of a workload yield: ratios of
/// the `Os` counters they moved (`c`, over all of them), and times from the
/// spans around the benchmark's calls, taken from the fastest passes.
pub fn workload_layers(c: &Counters, log: &SpanLog, ecrash: u64) -> Vec<Metric> {
    let n = log.all.agg(Kind::Syscall).count as f64;
    let pump_calls = log.all.agg(Kind::Pump).count as f64;
    let msgs_per_syscall = ratio(c.msgs as f64, n);
    let fast = log.fastest_passes();
    let syscall = fast.agg(Kind::Syscall);
    let submit = fast.agg(Kind::Submit);
    let pump = fast.agg(Kind::Pump);
    let fast_n = syscall.count as f64;
    let fast_msgs = fast_n * msgs_per_syscall;
    let clean = Agg {
        count: syscall.count - fast.crashed.count,
        total_ns: syscall.total_ns - fast.crashed.total_ns,
        ..Agg::default()
    };
    let mut out = vec![
        Metric::plain("servers.os.submit_ns", submit.mean_ns()),
        Metric::plain(
            "servers.os.submit_allocs",
            ratio(submit.allocs as f64, submit.count as f64),
        ),
        Metric::plain(
            "kernel.pump.host_ns_per_msg",
            ratio(pump.total_ns as f64, fast_msgs),
        ),
        Metric::plain("kernel.pump.msgs_per_syscall", msgs_per_syscall),
        Metric::plain("kernel.pump.calls_per_syscall", ratio(pump_calls, n)),
        Metric::plain(
            "kernel.pump.allocs_per_msg",
            ratio(log.all.agg(Kind::Pump).allocs as f64, c.msgs as f64),
        ),
        Metric::plain("kernel.timer.fire_ns", fast.agg(Kind::Timer).mean_ns()),
        Metric::plain("kernel.timer.fires_per_syscall", ratio(c.timers as f64, n)),
        Metric::plain(
            "kernel.watchdog.armed_per_syscall",
            ratio(c.wd_armed as f64, n),
        ),
        Metric::plain("core.window.opens_per_syscall", ratio(c.opens as f64, n)),
        Metric::plain(
            "core.window.closed_by_send_share",
            ratio(c.closed_by_send as f64, c.opens as f64),
        ),
        Metric::plain(
            "core.window.coverage_by_cycles",
            ratio(c.cycles_in as f64, (c.cycles_in + c.cycles_out) as f64),
        ),
        // A syscall that ended in ECRASH had a recovery inside it; the
        // difference to the mean clean syscall is what the recovery cost.
        Metric::plain(
            "core.recovery.host_us_per_recovery",
            if fast.crashed.count == 0 {
                0.0
            } else {
                (fast.crashed.mean_ns() - clean.mean_ns()).max(0.0) / 1e3
            },
        ),
        Metric::plain(
            "core.recovery.vcycles_per_recovery",
            ratio(c.recovery_cycles as f64, c.recoveries as f64),
        ),
        Metric::plain(
            "core.recovery.rollback_share",
            ratio(c.rollbacks as f64, c.recoveries as f64),
        ),
        Metric::plain("core.recovery.ecrash_share", ratio(ecrash as f64, n)),
        Metric::plain(
            "checkpoint.journal.undo_appends_per_syscall",
            ratio(c.undo_appends as f64, n),
        ),
        Metric::plain(
            "checkpoint.journal.coalesced_share",
            ratio(c.coalesced as f64, (c.coalesced + c.undo_appends) as f64),
        ),
        Metric::plain(
            "checkpoint.journal.undo_bytes_per_syscall",
            ratio(c.undo_bytes as f64, n),
        ),
        Metric::plain(
            "axiom.records_per_syscall",
            ratio(c.axiom_records as f64, n),
        ),
    ];
    const NS: [&str; 4] = [
        "servers.pm.host_ns_per_syscall",
        "servers.vm.host_ns_per_syscall",
        "servers.vfs.host_ns_per_syscall",
        "servers.ds.host_ns_per_syscall",
    ];
    const SHARE: [&str; 4] = [
        "servers.pm.syscall_share",
        "servers.vm.syscall_share",
        "servers.vfs.syscall_share",
        "servers.ds.syscall_share",
    ];
    for i in 0..SERVERS.len() {
        out.push(Metric::plain(NS[i], fast.by_server[i].mean_ns()));
        out.push(Metric::plain(
            SHARE[i],
            ratio(log.all.by_server[i].count as f64, n),
        ));
    }
    out
}

/// The lines `--list` prints: one per workload and metric.
pub fn list() -> Vec<String> {
    let mut out = Vec::new();
    for (name, why) in WORKLOADS {
        out.push(format!("workload {name} {why}"));
    }
    for d in &END_TO_END {
        let kind = if d.exact { "exact" } else { "timed" };
        out.push(format!(
            "end_to_end {} {} {} {} {kind}",
            d.name, d.unit, d.better, d.bound
        ));
    }
    for d in &PER_LAYER {
        out.push(format!("per_layer {} {} {}", d.name, d.unit, d.better));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of the array under `key` in a BENCHMARK.json.
    fn names_under(doc: &str, key: &str) -> Vec<String> {
        let start = doc.find(&format!("\"{key}\"")).expect("section present");
        let open = start + doc[start..].find('[').expect("array opens");
        let close = open + doc[open..].find(']').expect("array closes");
        doc[open..close]
            .split("\"name\"")
            .skip(1)
            .map(|rest| {
                let mut quoted = rest.split('"');
                quoted.next();
                quoted.next().expect("name value").to_string()
            })
            .collect()
    }

    #[test]
    fn list_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = |section: &str| -> Vec<String> {
            list()
                .iter()
                .filter_map(|l| l.strip_prefix(section))
                .map(|l| l.split(' ').nth(1).expect("name").to_string())
                .collect()
        };
        // Same names in the same order covers both directions.
        assert_eq!(listed("workload"), names_under(&doc, "workloads"));
        assert_eq!(listed("end_to_end"), names_under(&doc, "end_to_end"));
        assert_eq!(listed("per_layer"), names_under(&doc, "per_layer"));
        assert!(doc.contains("\"paths\": [\"benchmark\"]"));
    }
}
