//! Same configuration ⇒ same bytes, on every export at once. The flight
//! recorder stamps events with the virtual clock only, registry families
//! keep registration order, span ids come from a kernel-local counter, the
//! sampler lands on a fixed Δ-grid and the axiom chains what the kernel
//! sealed — so two identical runs with every recorder on must produce
//! **byte-identical** trace text, Chrome document, Prometheus text, metrics
//! JSON, `timeseries.json` and axiom bytes. This is the property the
//! `ci.sh` diff gates and post-mortem workflows (diff a failing run against
//! a good one) rely on.

use osiris_axiom::{bisect, AxiomConfig};
use osiris_core::PolicyKind;
use osiris_faults::forge::ScriptWorkload;
use osiris_faults::PeriodicCrash;
use osiris_kernel::FaultHook;
use osiris_metrics::{validate_prometheus, MetricsConfig, SeriesValue, TimeseriesConfig};
use osiris_servers::{Os, OsConfig};
use osiris_trace::{TraceConfig, TraceEvent};
use osiris_workloads::run_suite_with;
use osiris_workloads::{Host, ProgramRegistry};

/// Every recorder on (metrics is on by default).
fn recorded_cfg() -> OsConfig {
    let mut cfg = OsConfig::with_policy(PolicyKind::Enhanced);
    cfg.trace = TraceConfig::on();
    cfg.timeseries = TimeseriesConfig::on();
    cfg.axiom = AxiomConfig::on();
    // The faulted variant sustains periodic crashes for the whole suite;
    // keep the legacy restart-forever behaviour so every crash recovers
    // and spans keep flowing across recoveries.
    cfg.escalation = osiris_core::EscalationPolicy::unbounded();
    cfg
}

const TEXT_EXPORTS: [&str; 5] = [
    "trace text",
    "Chrome document",
    "Prometheus text",
    "metrics JSON",
    "timeseries.json",
];

/// Two full suite runs with every recorder on; asserts their six exports
/// are pairwise byte-identical and returns the first run with its text
/// exports, in [`TEXT_EXPORTS`] order.
fn identical_pair(faulted: bool) -> (Os, [String; 5]) {
    let run = || {
        let hook =
            faulted.then(|| Box::new(PeriodicCrash::new("pm", 200_000)) as Box<dyn FaultHook>);
        let (_, mut os) = run_suite_with(recorded_cfg(), hook);
        let text = [
            os.trace_text(),
            os.chrome_trace().pretty(),
            os.metrics_prometheus(),
            os.metrics_json().pretty(),
            os.timeseries_json().pretty(),
        ];
        (os, text)
    };
    let (a, text_a) = run();
    let (b, text_b) = run();
    for (what, (x, y)) in TEXT_EXPORTS.iter().zip(text_a.iter().zip(&text_b)) {
        assert!(!x.is_empty(), "{what} must not be empty");
        assert!(x == y, "{what} must be deterministic");
    }
    assert!(a.axiom_bytes() == b.axiom_bytes(), "axiom bytes differ");
    assert!(
        bisect(a.axiom().records(), b.axiom().records()).is_none(),
        "identical histories must not bisect"
    );
    (a, text_a)
}

#[test]
fn fault_free_exports_are_byte_identical() {
    let (os, [_, chrome, prom, _, timeseries]) = identical_pair(false);
    assert!(
        !os.axiom().is_empty(),
        "suite must seal control-plane events"
    );
    assert!(
        prom.contains("osiris_kernel_syscalls_total"),
        "suite must populate kernel counters"
    );
    // The suite must actually exercise the span machinery end to end.
    assert!(chrome.contains("\"ph\": \"b\""), "span open lane present");
    assert!(chrome.contains("\"ph\": \"e\""), "span close lane present");
    assert!(
        timeseries.contains("osiris_span_latency_cycles"),
        "sampler tracks the span latency families"
    );
}

#[test]
fn faulted_exports_are_byte_identical_and_record_recovery() {
    let (mut os, [text, chrome, prom, ..]) = identical_pair(true);
    // The injected crashes must be visible in the trace: crash capture,
    // the RS notification, the decision and the completed recovery.
    for needle in [
        "Crash",
        "RsCrashNotified",
        "RecoveryDecision",
        "RecoveryDone",
    ] {
        assert!(text.contains(needle), "faulted trace must contain {needle}");
    }
    // ...in the registry: per-component crash counters, the per-action
    // recovery family and latency samples...
    for needle in [
        "osiris_comp_crashes_total",
        "osiris_kernel_recoveries_total{action=\"rollback\"}",
        "osiris_comp_recovery_latency_cycles_count",
    ] {
        assert!(
            prom.contains(needle),
            "faulted exposition must contain {needle}"
        );
    }
    validate_prometheus(&prom).expect("suite exposition must pass the validator");
    // ...on the span lane: under sustained periodic crashes at least one
    // request span overlapped a recovery and carried the flag to its close...
    assert!(
        chrome.contains("\"crossed_recovery\": true"),
        "faulted run must close at least one recovery-crossing span"
    );
    // ...and in the axiom, whose chain is intact.
    let names: Vec<&str> = os
        .axiom()
        .records()
        .iter()
        .map(|r| r.event.name())
        .collect();
    for needle in ["crash", "recovery_decision", "recovery_done"] {
        assert!(names.contains(&needle), "axiom must contain {needle}");
    }
    os.verify_axiom().expect("chain intact");
}

#[test]
fn disabled_tracer_records_nothing() {
    let (_, os) = run_suite_with(OsConfig::with_policy(PolicyKind::Enhanced), None);
    assert!(os.trace_text().is_empty());
    assert!(os.tracer().is_empty());
}

/// A disabled registry still lists every family and reads zero through all
/// three views: `KernelMetrics`, `ComponentReport` and the exposition,
/// computed series included.
#[test]
fn disabled_registry_reads_zero() {
    let mut cfg = OsConfig::with_policy(PolicyKind::Enhanced);
    cfg.metrics = MetricsConfig::off();
    let (_, os) = run_suite_with(cfg, None);
    let m = os.metrics();
    assert_eq!(m.syscalls, 0, "disabled registry views read zero");
    assert_eq!(m.ipc_delivered, 0);
    assert_eq!(m.timers_fired + m.crashes + m.wd_armed, 0);
    let reports = os.reports();
    assert!(reports.iter().any(|r| r.window.opens > 0), "the suite ran");
    for r in reports {
        let counted = [r.cycles, r.messages, r.writes, r.undo_appends, r.crashes];
        assert!(counted.iter().all(|n| *n == 0), "{}: {counted:?}", r.name);
        assert_eq!(
            (r.heap_bytes, r.clone_bytes, r.clone_dedup_bytes),
            (0, 0, 0)
        );
        assert_eq!((r.window_cycles.count, r.undo_window_bytes.count), (0, 0));
    }
    let snap = os.metrics_snapshot();
    let on = Os::new(OsConfig::with_policy(PolicyKind::Enhanced)).metrics_snapshot();
    assert_eq!(snap.families.len(), 53);
    for (off, on) in snap.families.iter().zip(&on.families) {
        assert_eq!((&off.name, off.series.len()), (&on.name, on.series.len()));
    }
    assert!(snap
        .families
        .iter()
        .all(|f| f.series.iter().all(|s| match &s.value {
            SeriesValue::Counter(n) | SeriesValue::Gauge(n) => *n == 0,
            SeriesValue::Hist(h) => h.is_empty(),
        })));
}

/// The forge's scripted workload (PM, VM, VFS and DS, two bulk rounds a
/// step) with every recorder on, returning the Prometheus text, the metrics
/// JSON and `timeseries.json`. With `poll`, something reads the registry
/// after every step, as a dashboard polling a live system would.
fn scripted_run(poll: bool) -> [String; 3] {
    let script = ScriptWorkload { stress_rounds: 2 };
    let mut os = Os::new(recorded_cfg());
    let mut seen = 0;
    for step in 0..ScriptWorkload::STEPS {
        let run = script.run_range(&mut os, step..step + 1);
        assert!(run.clean(), "step {step}: {:?}", run.outcome);
        if poll {
            assert!(!os.metrics_snapshot().families.is_empty());
            let syscalls = os.metrics().syscalls;
            assert!(syscalls > seen, "a mid-run read sees the run so far");
            seen = syscalls;
            let handled: u64 = os.reports().iter().map(|r| r.messages).sum();
            assert_eq!(handled, os.metrics().ipc_delivered);
        }
    }
    [
        os.metrics_prometheus(),
        os.metrics_json().pretty(),
        os.timeseries_json().pretty(),
    ]
}

/// Reading the registry must not be observable: a run polled after every
/// step ends with the same bytes as the same run left alone.
#[test]
fn mid_run_reads_leave_every_export_byte_identical() {
    let alone = scripted_run(false);
    let polled = scripted_run(true);
    for (what, (a, b)) in ["Prometheus text", "metrics JSON", "timeseries.json"]
        .iter()
        .zip(alone.iter().zip(&polled))
    {
        assert!(a.contains("osiris_"), "{what} must not be empty");
        assert!(a == b, "{what} differs after mid-run reads");
    }
}

#[test]
fn span_ids_mint_from_one_after_boot() {
    // A short direct run whose trace cannot wrap: the first span the
    // workload opens must be id 1 — the mint counter resets at the boot
    // barrier, so boot-time component initialization never consumes ids.
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        assert_eq!(sys.getpid().unwrap().0, 1);
        0
    });
    let mut host = Host::new(Os::new(recorded_cfg()), registry);
    let outcome = host.run("main", &[]);
    assert!(outcome.completed(), "short run must complete: {outcome:?}");
    let os = host.into_engine();
    let opens: Vec<u64> = os
        .tracer()
        .snapshot()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::SpanOpen { span, .. } => Some(span),
            _ => None,
        })
        .collect();
    assert!(!opens.is_empty(), "run must open at least one span");
    assert_eq!(opens[0], 1, "span ids are minted from 1 after boot");
    // Every closed span must have been opened in this run (no stale ids
    // from boot or a previous epoch).
    for r in os.tracer().snapshot() {
        if let TraceEvent::SpanClose { span, .. } = r.event {
            assert!(opens.contains(&span), "close without open: span {span}");
        }
    }
}
