//! The hardened recovery path end to end: faults injected *into* the
//! recovery machinery itself no longer take the system down. A fault during
//! the rollback phase degrades that one recovery to a fresh restart; an RS
//! crash mid-conduct is re-driven from the kernel's intent log. Both runs
//! must complete, keep the consistency audit clean, and stay byte-identical
//! across repeats.

use osiris_core::PolicyKind;
use osiris_faults::{
    classify_run, plan_faults, Campaign, DoubleInjector, FaultKind, FaultModel, FaultPlan,
    InjectionRecord, Outcome, SiteId, SiteKindTag, SiteProfile, Tally,
};
use osiris_kernel::abi::{Errno, OpenFlags};
use osiris_kernel::{RunOutcome, ShutdownKind, WatchdogConfig};
use osiris_metrics::Registry;
use osiris_servers::{Os, OsConfig};
use osiris_trace::TraceConfig;
use osiris_workloads::{Host, ProgramRegistry};

fn plan(component: &str, site: &str, transient: bool) -> FaultPlan {
    FaultPlan {
        site: SiteId {
            component: component.to_string(),
            site: site.to_string(),
            kind: SiteKindTag::Block,
        },
        kind: FaultKind::Crash,
        transient,
    }
}

/// Primary: one transient crash on VFS's hot read path, triggering a
/// recovery. The secondary then fires inside that recovery.
fn primary() -> FaultPlan {
    plan("vfs", "vfs.read.entry", true)
}

/// Exercises the crashing read with *no* VFS state held (so a degraded
/// fresh restart loses nothing the audit could flag), expects the single
/// error-virtualized `E_CRASH` reply, then proves the recovered server
/// still serves a full open/write/close/unlink cycle.
fn registry() -> ProgramRegistry {
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        let fd = match sys.open("/tmp/hot", OpenFlags::RDWR_CREATE) {
            Ok(fd) => fd,
            Err(_) => return 10,
        };
        if sys.write(fd, &[7u8; 128]).is_err() {
            return 11;
        }
        // Release every descriptor before the crashing request: whether the
        // recovery rolls back or degrades to a fresh restart, the program
        // holds nothing the restarted server could have forgotten.
        if sys.close(fd).is_err() || sys.unlink("/tmp/hot").is_err() {
            return 12;
        }
        // The injected site fires before fd validation, so the stale fd
        // still exercises the hot read path. The interrupted request must
        // come back as the virtualized crash error, nothing else.
        match sys.read(fd, 32) {
            Err(Errno::ECRASH) => {}
            other => {
                let _ = other;
                return 13;
            }
        }
        // Recovered service answers with proper error virtualization again
        // (stale fd is now just a bad descriptor)...
        match sys.read(fd, 32) {
            Err(Errno::EBADF) => {}
            _ => return 14,
        }
        // ...and serves fresh work end to end.
        let fd2 = match sys.open("/tmp/after", OpenFlags::RDWR_CREATE) {
            Ok(fd) => fd,
            Err(_) => return 15,
        };
        if sys.write(fd2, &[9u8; 64]).is_err() {
            return 16;
        }
        if sys.close(fd2).is_err() || sys.unlink("/tmp/after").is_err() {
            return 17;
        }
        0
    });
    registry
}

fn run_with_secondary(secondary: FaultPlan) -> (RunOutcome, Os) {
    run_with(secondary, WatchdogConfig::default())
}

fn run_with(secondary: FaultPlan, watchdog: WatchdogConfig) -> (RunOutcome, Os) {
    osiris_kernel::install_quiet_panic_hook();
    let mut cfg = OsConfig::with_policy(PolicyKind::Enhanced);
    cfg.trace = TraceConfig::on();
    cfg.watchdog = watchdog;
    let mut os = Os::new(cfg);
    os.set_fault_hook(Box::new(DoubleInjector::new(&primary(), &secondary)));
    let mut host = Host::new(os, registry());
    let outcome = host.run("main", &[]);
    (outcome, host.into_engine())
}

/// A fault in the kernel's rollback phase degrades that recovery to a
/// fresh restart: the run completes, no rollback is counted, the fallback
/// is visible in metrics and trace, and the audit stays clean.
#[test]
fn rollback_phase_fault_degrades_to_fresh_restart() {
    let (outcome, os) = run_with_secondary(plan("kernel", "kernel.recovery.rollback", true));
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "fault during rollback must not take the system down: {outcome:?}"
    );

    let m = os.metrics();
    assert_eq!(
        m.recovered_rollback, 0,
        "the faulted rollback must not count"
    );
    assert!(m.recovered_fresh >= 1, "degraded recovery restarts fresh");
    assert_eq!(m.controlled_shutdowns, 0);

    let violations = os.audit();
    assert!(violations.is_empty(), "audit: {violations:?}");
    assert_eq!(
        classify_run(&outcome, violations.len(), m.quarantines),
        Outcome::Pass
    );

    let prom = os.metrics_prometheus();
    assert!(
        prom.contains("osiris_recovery_fallback_total{from=\"rollback\",to=\"fresh\"} 1"),
        "fallback series missing:\n{prom}"
    );
    // The journal was verified (clean) before the phase fault hit.
    assert!(
        prom.contains("osiris_journal_integrity_checks_total{kind=\"journal\",result=\"ok\"} 1")
    );

    let text = os.trace_text();
    assert!(
        text.contains("RecoveryFallback"),
        "trace must record the degradation"
    );
}

/// An RS crash mid-conduct (while delivering the crash notification) is
/// recovered by the kernel directly, and the interrupted recovery is
/// re-driven from the intent log — the original victim still recovers.
#[test]
fn rs_crash_mid_conduct_is_redriven_from_intent_log() {
    let (outcome, os) = run_with_secondary(plan("rs", "rs.recover.notify", true));
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "RS crash mid-conduct must not take the system down: {outcome:?}"
    );

    // Both the RS (fresh, its crash was inside recovery code) and the
    // victim recovered.
    let vfs = os.reports().into_iter().find(|r| r.name == "vfs").unwrap();
    assert_eq!(vfs.recoveries, 1, "victim must recover exactly once");
    let m = os.metrics();
    assert!(m.recovered_fresh >= 1, "RS itself restarts fresh");
    assert_eq!(m.controlled_shutdowns, 0);

    let violations = os.audit();
    assert!(violations.is_empty(), "audit: {violations:?}");

    let prom = os.metrics_prometheus();
    assert!(
        prom.contains("osiris_recovery_fallback_intent_replays_total 1"),
        "intent replay series missing:\n{prom}"
    );
    assert!(
        prom.contains("osiris_recovery_fallback_total{from=\"crash\",to=\"fresh\"} 1"),
        "in-recovery crash must be overridden to a fresh restart:\n{prom}"
    );

    let text = os.trace_text();
    assert!(text.contains("IntentReplayed"), "trace: {text}");
}

/// An RS that wedges mid-conduct has no heartbeat above it, and while the
/// conduct is in flight it is the only component the kernel schedules. The
/// kernel treats the hang as an RS crash mid-conduct: it marks the RS
/// crashed, recovers it directly and re-drives the intent, so the victim
/// still recovers exactly once, with the watchdog on or off.
#[test]
fn rs_hang_mid_conduct_is_recovered_like_an_rs_crash() {
    for site in [
        "rs.recover.notify",
        "rs.recover.account",
        "rs.recover.issued",
    ] {
        for watchdog in [WatchdogConfig::default(), WatchdogConfig::on()] {
            let hang = FaultPlan {
                kind: FaultKind::Hang,
                ..plan("rs", site, true)
            };
            let (outcome, os) = run_with(hang, watchdog);
            let case = format!("{site}, watchdog {}", watchdog.enabled);
            assert!(
                matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
                "{case}: {outcome:?}"
            );
            let vfs = os.reports().into_iter().find(|r| r.name == "vfs").unwrap();
            assert_eq!(
                vfs.recoveries, 1,
                "{case}: victim must recover exactly once"
            );
            let m = os.metrics();
            assert_eq!((m.hangs, m.controlled_shutdowns), (1, 0), "{case}");
            assert!(os.kernel().control_state().recovering.is_none(), "{case}");
            assert!(os.audit().is_empty(), "{case}: {:?}", os.audit());
        }
    }
}

/// A hung RS has no detector above it: the machine runs on without
/// heartbeats until a conduct needs the RS, and that conduct crashes and
/// recovers the RS first instead of handing it the victim. The enhanced
/// policy cannot roll back an RS that hung serving its heartbeat timer (no
/// reply is possible), so it shuts down in a controlled way; the stateless
/// one restarts the RS fresh, then recovers the victim.
#[test]
fn a_conduct_that_needs_a_hung_rs_restarts_it_first() {
    for policy in [PolicyKind::Enhanced, PolicyKind::Stateless] {
        osiris_kernel::install_quiet_panic_hook();
        let mut registry = ProgramRegistry::new();
        registry.register("main", |sys| {
            let Ok(fd) = sys.open("/tmp/idle", OpenFlags::RDWR_CREATE) else {
                return 10;
            };
            // Idle long enough for the RS heartbeat to fire (and hang).
            if sys.sleep(3_000_000).is_err() {
                return 11;
            }
            match sys.read(fd, 8) {
                Err(Errno::ECRASH) => 0,
                _ => 12,
            }
        });
        let rs_hang = FaultPlan {
            kind: FaultKind::Hang,
            ..plan("rs", "rs.hb.entry", true)
        };
        let mut os = Os::new(OsConfig::with_policy(policy));
        os.set_fault_hook(Box::new(DoubleInjector::new(&rs_hang, &primary())));
        let mut host = Host::new(os, registry);
        let outcome = host.run("main", &[]);
        let os = host.into_engine();
        let vfs = os.reports().into_iter().find(|r| r.name == "vfs").unwrap();
        if policy == PolicyKind::Enhanced {
            assert!(
                matches!(&outcome, RunOutcome::Shutdown(ShutdownKind::Controlled(r)) if r.contains("in rs")),
                "{outcome:?}"
            );
        } else {
            assert!(
                matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
                "{outcome:?}"
            );
            assert_eq!(vfs.recoveries, 1, "the victim recovers once");
        }
        assert_eq!(os.metrics().hangs, 1, "{policy:?}");
        assert!(
            os.kernel().control_state().recovering.is_none(),
            "{policy:?}"
        );
    }
}

/// The whole synthesized `DuringRecovery` plan space (recovery sites never
/// show up in a fault-free profile, so the profile argument is unused):
/// no secondary fault inside the recovery machinery ends in an
/// uncontrolled crash, and every kernel registers the fallback and
/// journal-integrity families.
#[test]
fn no_during_recovery_secondary_crashes_the_system() {
    let plans = plan_faults(&SiteProfile::default(), FaultModel::DuringRecovery, 1);
    let mut records = Vec::new();
    let mut rollback_phase_seen = false;
    for secondary in &plans {
        let (outcome, os) = run_with_secondary(secondary.clone());
        let rec = InjectionRecord::from_run(&os, &outcome, secondary, PolicyKind::Enhanced);
        assert_ne!(rec.outcome, Outcome::Crash, "{:?}: {outcome:?}", rec.site);
        if secondary.site.site == "kernel.recovery.rollback" {
            rollback_phase_seen = true;
            let prom = os.metrics_prometheus();
            for family in [
                "osiris_recovery_fallback_total",
                "osiris_journal_integrity_checks_total",
                "osiris_recovery_fallback_intent_replays_total",
            ] {
                assert!(prom.contains(family), "{family} missing:\n{prom}");
            }
        }
        records.push(rec);
    }
    assert!(rollback_phase_seen, "rollback-phase plan not synthesized");
    let campaign = Campaign::new(
        "t",
        FaultModel::DuringRecovery,
        records,
        Registry::default(),
    );
    let tally: Tally = campaign.records().iter().map(|r| r.outcome).collect();
    assert!(tally.survivability() > 0.0, "{tally:?}");
    let report = campaign.report_json().pretty();
    assert!(
        report.contains("\"model\": \"during-recovery\""),
        "{report}"
    );
    assert!(report.contains(&format!("\"completed_runs\": {}", plans.len())));
}

/// Acceptance: recovery-path faults are driven off the same virtual clock
/// as everything else — two identical double-fault runs export
/// byte-identical traces and metrics.
#[test]
fn double_fault_runs_are_byte_identical() {
    let (_, a) = run_with_secondary(plan("kernel", "kernel.recovery.rollback", true));
    let (_, b) = run_with_secondary(plan("kernel", "kernel.recovery.rollback", true));
    assert_eq!(a.trace_text(), b.trace_text());
    assert_eq!(a.chrome_trace().pretty(), b.chrome_trace().pretty());
    assert_eq!(a.metrics_prometheus(), b.metrics_prometheus());
    assert_eq!(a.metrics_json().pretty(), b.metrics_json().pretty());
}
