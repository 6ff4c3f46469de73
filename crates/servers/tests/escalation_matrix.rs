//! The recovery escalation ladder end to end: a persistent fail-stop fault
//! on VFS's hottest request site turns every read into a crash. The ladder
//! must restart VFS at most `max_restarts` times inside the window (with
//! backoff), then bench it, and the workload must still complete — degraded
//! to fast `E_CRASH` replies for the quarantined service — in bounded
//! virtual time under both conservative recovery policies.

use osiris_core::{EscalationPolicy, PolicyKind, RestartBudget};
use osiris_faults::{
    Campaign, FaultKind, FaultModel, FaultPlan, InjectionRecord, Injector, Outcome, SiteId,
    SiteKindTag,
};
use osiris_kernel::abi::{Errno, Fd, OpenFlags};
use osiris_kernel::RunOutcome;
use osiris_metrics::Registry;
use osiris_servers::{Os, OsConfig};
use osiris_trace::TraceConfig;
use osiris_workloads::{Host, ProgramRegistry, Sys};

const MAX_RESTARTS: u32 = 3;
const READS: u32 = 10;

/// A deliberately tight ladder so the test exhausts it in a handful of
/// crashes: three restarts in the window, short backoffs, quarantine next.
fn tight_ladder() -> EscalationPolicy {
    EscalationPolicy {
        budget: RestartBudget {
            window: 50_000_000,
            max_restarts: MAX_RESTARTS,
        },
        backoff_base: 5_000,
        backoff_max: 40_000,
        max_quarantined: 2,
    }
}

/// Persistent fail-stop on the read dispatch site: fires on every
/// execution, the fault model the ladder exists for.
fn hot_read_plan() -> FaultPlan {
    FaultPlan {
        site: SiteId {
            component: "vfs".to_string(),
            site: "vfs.read.entry".to_string(),
            kind: SiteKindTag::Block,
        },
        kind: FaultKind::Crash,
        transient: false,
    }
}

/// Sets up a file and releases every descriptor before the crash loop:
/// the quarantined server never sees the exit-time cleanup notification,
/// so anything still held would (correctly) trip the consistency audit.
/// Returns the stale fd, or `None` if a step failed.
fn write_and_release(sys: &mut Sys) -> Option<Fd> {
    let fd = sys.open("/tmp/hot", OpenFlags::RDWR_CREATE).ok()?;
    sys.write(fd, &[7u8; 512]).ok()?;
    sys.close(fd).ok()?;
    sys.unlink("/tmp/hot").ok()?;
    Some(fd)
}

/// `main` hammers the crashing read path tolerating `E_CRASH` — the
/// well-written-client contract from the paper's error-virtualization
/// argument. Exits 0 only if *all* reads failed with `E_CRASH` (crash
/// replies while restarting, bounced replies once quarantined).
/// `intolerant` issues the same reads but treats a failed one as fatal to
/// itself: it still terminates, with 1.
fn registry() -> ProgramRegistry {
    let mut registry = ProgramRegistry::new();
    registry.register("intolerant", |sys| {
        let Some(fd) = write_and_release(sys) else {
            return 10;
        };
        // Every read is issued (no short-circuit), so the ladder runs out.
        let failed = (0..READS).filter(|_| sys.read(fd, 64).is_err()).count();
        i32::from(failed > 0)
    });
    registry.register("main", |sys| {
        let Some(fd) = write_and_release(sys) else {
            return 10;
        };
        for _ in 0..READS {
            // The site fires before fd validation, so the stale fd still
            // exercises the hot path.
            match sys.read(fd, 64) {
                Err(Errno::ECRASH) => {}
                Ok(_) => return 13,
                Err(_) => return 14,
            }
        }
        0
    });
    registry
}

fn run_hot_loop(program: &str, policy: PolicyKind) -> (RunOutcome, Os) {
    osiris_kernel::install_quiet_panic_hook();
    let mut cfg = OsConfig::with_policy(policy);
    cfg.escalation = tight_ladder();
    cfg.trace = TraceConfig::on();
    let mut os = Os::new(cfg);
    os.set_fault_hook(Box::new(Injector::new(&hot_read_plan())));
    let mut host = Host::new(os, registry());
    let outcome = host.run(program, &[]);
    (outcome, host.into_engine())
}

/// The full ladder contract for one policy.
fn assert_bounded_and_degraded(policy: PolicyKind) {
    let (outcome, os) = run_hot_loop("main", policy);
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "{policy:?}: crash loop must not take the system down: {outcome:?}"
    );

    // Restarts are bounded by the budget; the crash that broke the budget
    // is quarantined, not recovered.
    let vfs = os.reports().into_iter().find(|r| r.name == "vfs").unwrap();
    assert_eq!(
        vfs.recoveries,
        u64::from(MAX_RESTARTS),
        "{policy:?}: exactly the budgeted restarts"
    );
    assert_eq!(
        vfs.crashes,
        u64::from(MAX_RESTARTS) + 1,
        "{policy:?}: budget-breaking crash is benched, not restarted"
    );

    let m = os.metrics();
    assert_eq!(m.quarantines, 1, "{policy:?}");
    // VFS is component 3 in the canonical topology.
    let benched: Vec<u8> = os.control_state().quarantined_set().collect();
    assert_eq!(benched, [3], "{policy:?}");

    // The quarantined server held no state for the dead process, so the
    // cross-component audit stays clean (and the run classifies as
    // degraded: `ladder_classes_reach_the_campaign_report`).
    let violations = os.audit();
    assert!(violations.is_empty(), "{policy:?}: audit: {violations:?}");

    // Every ladder rung left a flight-recorder event.
    let text = os.trace_text();
    for needle in ["BackoffArmed", "BudgetExhausted", "Quarantined"] {
        assert!(
            text.contains(needle),
            "{policy:?}: trace must contain {needle}"
        );
    }

    // ...and a metrics series; the bounced reads show up as refusals.
    let prom = os.metrics_prometheus();
    assert!(prom.contains("osiris_quarantine_total{component=\"vfs\",endpoint=\"3\"} 1"));
    assert!(prom
        .contains("osiris_escalation_budget_exhausted_total{component=\"vfs\",endpoint=\"3\"} 1"));
    assert!(
        prom.contains("osiris_escalation_backoff_arms_total{component=\"vfs\",endpoint=\"3\"} 2")
    );
    let refusals = prom
        .lines()
        .find(|l| l.starts_with("osiris_quarantine_refusals_total{component=\"vfs\""))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    assert!(
        refusals >= u64::from(READS) - u64::from(MAX_RESTARTS) - 1,
        "{policy:?}: post-quarantine reads must be bounced ({refusals} refusals)"
    );
}

#[test]
fn persistent_vfs_crash_loop_quarantines_under_enhanced() {
    assert_bounded_and_degraded(PolicyKind::Enhanced);
}

#[test]
fn persistent_vfs_crash_loop_quarantines_under_pessimistic() {
    assert_bounded_and_degraded(PolicyKind::Pessimistic);
}

/// Both ladder outcome classes, through the campaign's one injection path
/// and into its report: the tolerant client degrades, the intolerant one
/// fails its run and classifies as quarantined — under either policy the
/// run terminates instead of crash-looping.
#[test]
fn ladder_classes_reach_the_campaign_report() {
    let mut records = Vec::new();
    for policy in [PolicyKind::Enhanced, PolicyKind::Pessimistic] {
        for (program, want) in [
            ("main", Outcome::Degraded),
            ("intolerant", Outcome::Quarantined),
        ] {
            let (outcome, os) = run_hot_loop(program, policy);
            assert!(outcome.completed(), "{program}/{policy:?}: {outcome:?}");
            let rec = InjectionRecord::from_run(&os, &outcome, &hot_read_plan(), policy);
            assert_eq!(rec.outcome, want, "{program}/{policy:?}");
            assert!(rec.blackbox.is_none(), "only crashes carry a black box");
            records.push(rec);
        }
    }
    let campaign = Campaign::new(
        "escalation",
        FaultModel::FailStop,
        records,
        Registry::default(),
    );
    let report = campaign.report_json().pretty();
    for class in ["degraded", "quarantined"] {
        assert_eq!(
            report.matches(&format!("\"outcome\": \"{class}\"")).count(),
            2,
            "one {class} record per policy:\n{report}"
        );
    }
}

/// Acceptance: the whole escalation path — crashes, backoff timers,
/// quarantine, bounced mail — is driven off the virtual clock, so two
/// identical runs export byte-identical traces and metrics.
#[test]
fn escalated_runs_are_byte_identical() {
    let (_, a) = run_hot_loop("main", PolicyKind::Enhanced);
    let (_, b) = run_hot_loop("main", PolicyKind::Enhanced);
    assert_eq!(a.trace_text(), b.trace_text());
    assert_eq!(a.chrome_trace().pretty(), b.chrome_trace().pretty());
    assert_eq!(a.metrics_prometheus(), b.metrics_prometheus());
    assert_eq!(a.metrics_json().pretty(), b.metrics_json().pretty());
}
