//! Cross-commit export oracle. The determinism suites compare two runs of
//! the *same* build; this one pins FNV digests of every export of a few
//! fixed faulted runs, so a refactor that changes any byte of the trace,
//! metrics, timeseries or axiom output fails here even when it stays
//! self-consistent. The constants were captured before the kernel was split
//! into planes (PR 12), the Chrome document's before it was streamed
//! (PR 24); re-capture them (run with `--nocapture`) only in a
//! change that means to alter an export, and say so in its description.
//! They were last re-captured when disk blocks became shared handles: only
//! the VFS's `UndoAppend`/`Discard` bytes and the byte series folded from
//! them moved (8 bytes less per cache-block record); the timeseries and
//! the axiom held.

use osiris_axiom::reduce;
use osiris_core::{EscalationPolicy, RestartBudget};
use osiris_faults::{DoubleInjector, FaultKind, FaultPlan, Injector, SiteId, SiteKindTag};
use osiris_kernel::abi::OpenFlags;
use osiris_kernel::{ComponentReport, FaultHook, KernelMetrics, WatchdogConfig};
use osiris_metrics::timeseries::SampleValue;
use osiris_metrics::{
    validate_prometheus, HistSummary, MetricsConfig, MetricsSnapshot, SeriesFold, SeriesValue,
    TimeseriesConfig,
};
use osiris_servers::{Os, OsConfig};
use osiris_workloads::{Host, ProgramRegistry};

fn plan(component: &str, site: &str, kind: FaultKind, transient: bool) -> FaultPlan {
    FaultPlan {
        site: SiteId {
            component: component.into(),
            site: site.into(),
            kind: SiteKindTag::Block,
        },
        kind,
        transient,
    }
}

/// Every recorder on: trace (hence spans), metrics, axiom, timeseries and
/// the watchdog, with a tight escalation ladder so a persistent fault
/// reaches quarantine within the run.
fn cfg() -> OsConfig {
    OsConfig {
        trace: osiris_trace::TraceConfig::on(),
        axiom: osiris_axiom::AxiomConfig::on(),
        timeseries: osiris_metrics::TimeseriesConfig::on(),
        watchdog: WatchdogConfig::on(),
        vm_frames: 2048,
        escalation: EscalationPolicy {
            budget: RestartBudget {
                window: 50_000_000,
                max_restarts: 3,
            },
            backoff_base: 5_000,
            backoff_max: 40_000,
            max_quarantined: 2,
        },
        ..Default::default()
    }
}

/// A client that touches DS, VFS, PM and VM and tolerates every error, so
/// each scenario's fault decides what the run looks like.
fn registry() -> ProgramRegistry {
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        let _ = sys.ds_put("golden", b"golden-payload");
        if let Ok(fd) = sys.open("/golden", OpenFlags::RDWR_CREATE) {
            let _ = sys.write(fd, &[7u8; 256]);
            let _ = sys.close(fd);
        }
        let _ = sys.ds_get("golden");
        let _ = sys.stat("/golden");
        let _ = sys.getpid();
        if let Ok(fd) = sys.open("/golden", OpenFlags::RDWR_CREATE) {
            for _ in 0..6 {
                let _ = sys.read(fd, 32);
            }
            let _ = sys.close(fd);
        }
        let _ = sys.unlink("/golden");
        let _ = sys.ds_get("golden");
        0
    });
    registry
}

/// Runs the client under `hook` and returns the machine it ran on.
fn run(hook: Box<dyn FaultHook>) -> Os {
    osiris_kernel::install_quiet_panic_hook();
    let mut os = Os::new(cfg());
    os.set_fault_hook(hook);
    let mut host = Host::new(os, registry());
    let _ = host.run("main", &[]);
    host.into_engine()
}

/// The families only a `Note` feeds. Nothing records a note, so a re-fold
/// of the ring and the axiom leaves these at zero; every other family is a
/// fold of those two logs (the computed ones read zero in both registries).
const NOTE_FAMILIES: [&str; 14] = [
    "osiris_comp_cycles_total",
    "osiris_comp_recoveries_total",
    "osiris_comp_window_cycles",
    "osiris_comp_undo_window_bytes",
    "osiris_quarantine_refusals_total",
    "osiris_kernel_timers_fired_total",
    "osiris_kernel_recoveries_total",
    "osiris_kernel_controlled_shutdowns_total",
    "osiris_recovery_fallback_intent_replays_total",
    "osiris_recovery_fallback_intent_completed_total",
    "osiris_journal_integrity_checks_total",
    "osiris_axiom_chain_verifications_total",
    "osiris_axiom_replay_divergence_total",
    "osiris_watchdog_detection_latency_cycles",
];

/// The metrics are a fold of the stream the kernel emits: folding the
/// recorded ring and axiom into a fresh `SeriesFold` reproduces every
/// family that is not in [`NOTE_FAMILIES`], series by series.
fn assert_refold_matches(name: &str, os: &Os) {
    assert!(!os.tracer().has_wrapped(), "{name}: the ring wrapped");
    let mut fold = SeriesFold::new(MetricsConfig::on(), TimeseriesConfig::default());
    for r in os.reports() {
        fold.add_component(r.name);
    }
    for r in os.tracer().snapshot() {
        fold.trace(r.comp, &r.event);
    }
    for r in os.axiom().records() {
        fold.sealed(&r.event);
    }
    let refold = fold.registry().snapshot();
    let live = os.kernel().series().registry().snapshot();
    let names = |s: &MetricsSnapshot| {
        s.families
            .iter()
            .map(|f| f.name.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(names(&refold), names(&live), "{name}");
    assert!(NOTE_FAMILIES
        .iter()
        .all(|n| names(&live).iter().any(|l| l == n)));
    for (r, l) in refold.families.iter().zip(&live.families) {
        if !NOTE_FAMILIES.contains(&l.name.as_str()) {
            assert_eq!(
                r.series, l.series,
                "{name}: {} re-folds differently",
                l.name
            );
        }
    }
}

/// Digests of `trace_text`, `metrics_prometheus`, `metrics_json`,
/// `timeseries_json`, `axiom_bytes` and `chrome_trace`, in that order.
/// Also checks that the live control state, conduct in flight included,
/// is the pure reduction of the recorded axiom, that the live series
/// are the fold of the recorded trace and axiom, and that the Prometheus
/// text lints.
fn export_digests(name: &str, hook: Box<dyn FaultHook>) -> [u64; 6] {
    let mut os = run(hook);
    assert_eq!(
        os.kernel().control_state(),
        &reduce(os.axiom().records()),
        "{name}: live fold diverged from reduce(axiom)"
    );
    assert_refold_matches(name, &os);
    let prom = os.metrics_prometheus();
    validate_prometheus(&prom).unwrap_or_else(|e| panic!("{name}: {e}"));
    [
        os.trace_text().into_bytes(),
        prom.into_bytes(),
        os.metrics_json().pretty().into_bytes(),
        os.timeseries_json().pretty().into_bytes(),
        os.axiom_bytes(),
        os.chrome_trace().pretty().into_bytes(),
    ]
    .map(|bytes| osiris_axiom::fnv1a(osiris_axiom::fnv1a_str(""), &bytes))
}

#[test]
fn exports_match_digests_captured_before_the_kernel_split() {
    use FaultKind::{Crash, Hang, ReplyCorrupt, ReplyDrop, Stall};
    let scenarios: [(&str, FaultPlan, Option<FaultPlan>, [u64; 6]); 7] = [
        (
            "one crash (ds.get) and one hang (vfs.stat)",
            plan("ds", "ds.get.entry", Crash, true),
            Some(plan("vfs", "vfs.stat.entry", Hang, true)),
            [
                0xe7ff11913da3c8fe,
                0xee02bc85d8c6d5eb,
                0x72b1c7c6e24a6b63,
                0x9a51a6b42ed584b7,
                0x36c01b3423a1a265,
                0xe774d29942662d0e,
            ],
        ),
        (
            "dropped reply probed, judged lost and retried",
            plan("ds", "ds.get.entry", ReplyDrop, true),
            None,
            [
                0xd76efbe022419b8b,
                0x14ce47165fb02c92,
                0x45b7c02781be99c5,
                0xab9c5196dc4a31c5,
                0xe6d75937dd14b35f,
                0x73757eee60e6f23a,
            ],
        ),
        (
            "stalled handler judged slow",
            plan("vfs", "vfs.stat.entry", Stall(64), true),
            None,
            [
                0x12051671169eeadc,
                0x08e25325a48f00ba,
                0x870b50bbc5224863,
                0xe4cb00a95acd6b4b,
                0xf7e98d377fb4c9a3,
                0x0632992f2649ae35,
            ],
        ),
        (
            "corrupt reply rejected, sender restarted quiescent",
            plan("ds", "ds.get.entry", ReplyCorrupt, true),
            None,
            [
                0x0c191c81b8df2399,
                0x1143c482756bef4b,
                0x2a0b513e036abfb2,
                0x663ed145f1f83b7c,
                0x8e43a5b603945d5c,
                0x5d366df99ff4de98,
            ],
        ),
        (
            "rollback phase faulted, fallback to fresh restart",
            plan("vfs", "vfs.read.entry", Crash, true),
            Some(plan("kernel", "kernel.recovery.rollback", Crash, true)),
            [
                0x2475b8cc2cf7affd,
                0x308269d6c8113e33,
                0xf53c933703a15acd,
                0xef1dd51a84c8dbe7,
                0xbdacf99a41c7318b,
                0x8fcb445309039de5,
            ],
        ),
        (
            "RS crashes on every conduct, kernel completes the intent",
            plan("vfs", "vfs.read.entry", Crash, true),
            Some(plan("rs", "rs.recover.notify", Crash, false)),
            [
                0x8bab3957cccadff0,
                0xefe84fc554e44147,
                0x87a5a8359d1c4234,
                0xa20dfdcad326f0ad,
                0xb7a26b3c6361c393,
                0x0614577ce50b222b,
            ],
        ),
        (
            "persistent crash climbs the ladder to quarantine",
            plan("vfs", "vfs.read.entry", Crash, false),
            None,
            [
                0x539affbe20da7f2f,
                0xa84aa4d652bafb01,
                0x04472809f3f7ff8c,
                0xad4768018629a998,
                0xa101da96749567b1,
                0x2a1a39af9414b58c,
            ],
        ),
    ];
    let mut mismatches = Vec::new();
    for (name, primary, secondary, want) in scenarios {
        let got = export_digests(
            name,
            match secondary {
                Some(s) => Box::new(DoubleInjector::new(&primary, &s)),
                None => Box::new(Injector::new(&primary)),
            },
        );
        println!("{name}: {got:#018x?}");
        if got != want {
            mismatches.push(name);
        }
    }
    assert!(mismatches.is_empty(), "exports changed: {mismatches:?}");
}

/// Runs the first scenario and returns every file `Os::write_exports`
/// left in a fresh directory called `leaf`, sorted by name.
fn exported_tree(tag: &str, leaf: &std::ffi::OsStr) -> Vec<(String, Vec<u8>)> {
    let mut os = run(Box::new(DoubleInjector::new(
        &plan("ds", "ds.get.entry", FaultKind::Crash, true),
        &plan("vfs", "vfs.stat.entry", FaultKind::Hang, true),
    )));

    // Nested and not yet existing: write_exports must create it.
    let root = std::env::temp_dir().join(format!("osiris-exports-{}-{tag}", std::process::id()));
    let dir = root.join(leaf);
    // Rendered first: `write_exports` takes the run-end timeseries sample
    // after it writes the trace, so a later render has one more point.
    let chrome = os.chrome_trace().pretty();
    os.write_exports(&dir).expect("write exports");
    assert_eq!(
        std::fs::read(dir.join("axiom.bin")).expect("axiom.bin"),
        os.axiom_bytes()
    );
    assert_eq!(
        std::fs::read(dir.join("trace.json")).expect("trace.json"),
        chrome.into_bytes()
    );
    let mut tree: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .expect("export dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(entry.path()).expect("export file"))
        })
        .collect();
    tree.sort();
    std::fs::remove_dir_all(&root).expect("remove export dir");
    tree
}

#[test]
fn write_exports_of_two_same_seed_runs_are_byte_identical_trees() {
    let a = exported_tree("a", "run".as_ref());
    let b = exported_tree("b", "run".as_ref());
    let names: Vec<&str> = a.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        names,
        [
            "axiom.bin",
            "metrics.json",
            "metrics.prom",
            "timeseries.json",
            "trace.json"
        ]
    );
    assert!(a.iter().all(|(_, bytes)| !bytes.is_empty()));
    assert!(a == b, "same-seed runs exported different trees");
}

/// A path is not text: `$OSIRIS_OUT_DIR` may name a directory that is not
/// UTF-8, and every file must land in it, not in a U+FFFD look-alike.
#[cfg(unix)]
#[test]
fn write_exports_fills_a_directory_whose_name_is_not_utf8() {
    use std::os::unix::ffi::OsStrExt;
    let tree = exported_tree("c", std::ffi::OsStr::from_bytes(b"osiris-\xff"));
    assert!(tree == exported_tree("d", "run".as_ref()));
}

/// The scalar of series `name{labels}`.
fn scalar(snap: &MetricsSnapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    match snap.find(name, labels) {
        Some(SeriesValue::Counter(n) | SeriesValue::Gauge(n)) => *n,
        other => panic!("{name}{labels:?}: {other:?}"),
    }
}

/// The digest of histogram series `name{labels}`.
fn digest(snap: &MetricsSnapshot, name: &str, labels: &[(&str, &str)]) -> HistSummary {
    match snap.find(name, labels) {
        Some(SeriesValue::Hist(h)) => h.summary(),
        other => panic!("{name}{labels:?}: {other:?}"),
    }
}

/// The sum over every series of scalar family `name`.
fn family_sum(snap: &MetricsSnapshot, name: &str) -> u64 {
    let family = snap.families.iter().find(|f| f.name == name);
    let series = &family.unwrap_or_else(|| panic!("no family {name}")).series;
    series
        .iter()
        .map(|s| match &s.value {
            SeriesValue::Counter(n) | SeriesValue::Gauge(n) => *n,
            SeriesValue::Hist(_) => panic!("{name} is a histogram"),
        })
        .sum()
}

/// One number, one store: after a faulted run every `KernelMetrics` field,
/// every `ComponentReport` counter and the last point of every sampled
/// time series is the value the exposition carries for the same series.
/// The structs are destructured in full, so a new field fails to compile
/// here until it is mapped to its series.
#[test]
fn reports_timeseries_and_exposition_read_the_same_numbers() {
    let mut os = run(Box::new(DoubleInjector::new(
        &plan("ds", "ds.get.entry", FaultKind::Crash, true),
        &plan("vfs", "vfs.stat.entry", FaultKind::Hang, true),
    )));
    let _ = os.timeseries_json(); // the run-end sample
    let snap = os.metrics_snapshot();
    let one = |name: &str| scalar(&snap, name, &[]);
    let by = |name: &str, key: &str, value: &str| scalar(&snap, name, &[(key, value)]);

    let KernelMetrics {
        ipc_delivered,
        syscalls,
        timers_fired,
        crashes,
        quarantines,
        hangs,
        recovered_rollback,
        recovered_fresh,
        recovered_naive,
        recovered_quiescent,
        controlled_shutdowns,
        recovery_cycles,
        wd_armed,
        wd_expired,
        wd_probes,
        wd_verdicts,
        wd_replies_rejected,
        retries_granted,
        retries_denied,
        retries_exhausted,
    } = os.metrics();
    assert!(syscalls > 0 && crashes > 0 && hangs > 0 && wd_armed > 0);
    let recovered = |action: &str| by("osiris_kernel_recoveries_total", "action", action);
    for (field, got, want) in [
        (
            "ipc_delivered",
            ipc_delivered,
            one("osiris_kernel_ipc_delivered_total"),
        ),
        ("syscalls", syscalls, one("osiris_kernel_syscalls_total")),
        (
            "timers_fired",
            timers_fired,
            one("osiris_kernel_timers_fired_total"),
        ),
        (
            "crashes",
            crashes,
            family_sum(&snap, "osiris_comp_crashes_total"),
        ),
        (
            "quarantines",
            quarantines,
            family_sum(&snap, "osiris_quarantine_total"),
        ),
        ("hangs", hangs, one("osiris_kernel_hangs_total")),
        (
            "recovered_rollback",
            recovered_rollback,
            recovered("rollback"),
        ),
        ("recovered_fresh", recovered_fresh, recovered("fresh")),
        ("recovered_naive", recovered_naive, recovered("naive")),
        (
            "recovered_quiescent",
            recovered_quiescent,
            recovered("quiescent"),
        ),
        (
            "controlled_shutdowns",
            controlled_shutdowns,
            one("osiris_kernel_controlled_shutdowns_total"),
        ),
        (
            "recovery_cycles",
            recovery_cycles,
            one("osiris_kernel_recovery_cycles_total"),
        ),
        ("wd_armed", wd_armed, one("osiris_watchdog_armed_total")),
        (
            "wd_expired",
            wd_expired,
            one("osiris_watchdog_deadline_expired_total"),
        ),
        ("wd_probes", wd_probes, one("osiris_watchdog_probes_total")),
        (
            "wd_verdicts",
            wd_verdicts,
            family_sum(&snap, "osiris_watchdog_verdicts_total"),
        ),
        (
            "wd_replies_rejected",
            wd_replies_rejected,
            one("osiris_watchdog_replies_rejected_total"),
        ),
        (
            "retries_granted",
            retries_granted,
            by("osiris_retry_decisions_total", "result", "granted"),
        ),
        (
            "retries_denied",
            retries_denied,
            by("osiris_retry_decisions_total", "result", "denied"),
        ),
        (
            "retries_exhausted",
            retries_exhausted,
            one("osiris_retry_exhausted_total"),
        ),
    ] {
        assert_eq!(got, want, "KernelMetrics::{field}");
    }

    for report in os.reports() {
        let ComponentReport {
            name,
            endpoint,
            window,
            cycles,
            messages,
            heap_bytes,
            clone_bytes,
            clone_dedup_bytes,
            undo_window_peak_bytes,
            recovery_latency,
            window_cycles,
            undo_window_bytes,
            writes,
            undo_appends,
            coalesced_writes,
            crashes,
            recoveries,
        } = report;
        let endpoint = endpoint.to_string();
        let labels = [("component", name), ("endpoint", endpoint.as_str())];
        assert!(heap_bytes > 0 && clone_bytes > 0, "{name}");
        for (field, got, series) in [
            ("cycles", cycles, "osiris_comp_cycles_total"),
            ("messages", messages, "osiris_comp_messages_total"),
            ("heap_bytes", heap_bytes as u64, "osiris_comp_heap_bytes"),
            ("clone_bytes", clone_bytes as u64, "osiris_comp_clone_bytes"),
            (
                "clone_dedup_bytes",
                clone_dedup_bytes as u64,
                "osiris_comp_clone_dedup_bytes",
            ),
            (
                "undo_window_peak_bytes",
                undo_window_peak_bytes as u64,
                "osiris_comp_undo_window_peak_bytes",
            ),
            ("writes", writes, "osiris_comp_writes_total"),
            (
                "undo_appends",
                undo_appends,
                "osiris_comp_undo_appends_total",
            ),
            (
                "coalesced_writes",
                coalesced_writes,
                "osiris_comp_coalesced_writes_total",
            ),
            ("crashes", crashes, "osiris_comp_crashes_total"),
            ("recoveries", recoveries, "osiris_comp_recoveries_total"),
            (
                "window.opens",
                window.opens,
                "osiris_comp_window_opens_total",
            ),
            (
                "window.rollbacks",
                window.rollbacks,
                "osiris_comp_window_rollbacks_total",
            ),
        ] {
            assert_eq!(got, scalar(&snap, series, &labels), "{name}: {field}");
        }
        for (field, got, series) in [
            (
                "recovery_latency",
                recovery_latency,
                "osiris_comp_recovery_latency_cycles",
            ),
            ("window_cycles", window_cycles, "osiris_comp_window_cycles"),
            (
                "undo_window_bytes",
                undo_window_bytes,
                "osiris_comp_undo_window_bytes",
            ),
        ] {
            assert_eq!(got, digest(&snap, series, &labels), "{name}: {field}");
        }
    }

    let overlap = |family: &'static str, value: &'static str| (family, vec![("overlap", value)]);
    let sampled = [
        overlap("osiris_span_latency_cycles", "none"),
        overlap("osiris_span_latency_cycles", "recovery"),
        ("osiris_span_started_total", vec![]),
        overlap("osiris_span_completed_total", "none"),
        overlap("osiris_span_completed_total", "recovery"),
        ("osiris_kernel_recovery_cycles_total", vec![]),
        ("osiris_kernel_hangs_total", vec![]),
        ("osiris_axiom_events_total", vec![]),
    ];
    for (family, labels) in sampled {
        let name = match labels.first() {
            Some((k, v)) => format!("{family}{{{k}=\"{v}\"}}"),
            None => family.to_string(),
        };
        let points = os.timeseries().series(&name);
        let last = points.as_ref().and_then(|p| p.last());
        let last = last.unwrap_or_else(|| panic!("{name} has no sample"));
        match last.value {
            SampleValue::Counter(n) => assert_eq!(n, scalar(&snap, family, &labels), "{name}"),
            SampleValue::Hist(d) => assert_eq!(d, digest(&snap, family, &labels), "{name}"),
        }
    }
}
