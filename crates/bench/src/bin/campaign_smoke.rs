//! CI smoke for the escalation ladder's campaign plumbing: a persistent
//! fail-stop crash loop on VFS's hot read site, run under both conservative
//! policies with a tight restart budget, must classify as the new
//! `degraded` / `quarantined` outcome classes and carry them through the
//! `campaign_report.json` document. Exits nonzero if either class is
//! missing — the gate `ci.sh` runs.
//!
//! ```text
//! cargo run --release -p osiris-bench --bin campaign_smoke
//! ```

use osiris_core::{EscalationPolicy, PolicyKind, RestartBudget};
use osiris_faults::{
    classify_run, Campaign, FaultKind, FaultModel, FaultPlan, Injector, Outcome, RecoveryActionTag,
    SiteId, SiteKindTag,
};
use osiris_kernel::abi::{Errno, OpenFlags};
use osiris_kernel::{Host, ProgramRegistry, RunOutcome};
use osiris_servers::{Os, OsConfig};

const READS: u32 = 10;

/// Tight ladder so the smoke quarantines after three restarts.
fn tight_ladder() -> EscalationPolicy {
    EscalationPolicy {
        budget: RestartBudget {
            window: 50_000_000,
            max_restarts: 3,
        },
        backoff_base: 5_000,
        backoff_max: 40_000,
        max_quarantined: 2,
    }
}

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

/// Two clients against the crash-looping read path: the tolerant one
/// expects `E_CRASH` and exits 0 (→ degraded), the naive one treats any
/// read error as fatal and exits 1 (→ quarantined).
fn registry() -> ProgramRegistry {
    let mut registry = ProgramRegistry::new();
    registry.register("tolerant", |sys| {
        let fd = match sys.open("/tmp/smoke", OpenFlags::RDWR_CREATE) {
            Ok(fd) => fd,
            Err(_) => return 10,
        };
        if sys.write(fd, &[9u8; 256]).is_err() {
            return 11;
        }
        // Release all VFS state up front: a quarantined server never sees
        // exit-time cleanup, and leftovers would trip the audit.
        if sys.close(fd).is_err() || sys.unlink("/tmp/smoke").is_err() {
            return 12;
        }
        let mut bounced = 0;
        for _ in 0..READS {
            if let Err(Errno::ECRASH) = sys.read(fd, 32) {
                bounced += 1;
            }
        }
        if bounced == READS {
            0
        } else {
            13
        }
    });
    registry.register("naive", |sys| {
        let fd = match sys.open("/tmp/smoke", OpenFlags::RDWR_CREATE) {
            Ok(fd) => fd,
            Err(_) => return 10,
        };
        if sys.write(fd, &[9u8; 256]).is_err() {
            return 11;
        }
        if sys.close(fd).is_err() || sys.unlink("/tmp/smoke").is_err() {
            return 12;
        }
        let mut rc = 0;
        for _ in 0..READS {
            if sys.read(fd, 32).is_err() {
                rc = 1; // fatal to this program, but it still terminates
            }
        }
        rc
    });
    registry
}

fn run_one(program: &str, policy: PolicyKind, campaign: &Campaign) -> Outcome {
    let plan = hot_read_plan();
    let mut cfg = OsConfig::with_policy(policy);
    cfg.escalation = tight_ladder();
    // Retain the axiom: run_attribution folds its record stream into the
    // per-injection recovery critical path (zeros without retention).
    cfg.axiom = osiris_axiom::AxiomConfig::on();
    let mut os = Os::new(cfg);
    os.set_fault_hook(Box::new(Injector::new(&plan)));
    let mut host = Host::new(os, registry());
    let outcome = host.run(program, &[]);
    let os = host.into_engine();
    let violations = if outcome.completed() {
        os.audit().len()
    } else {
        0
    };
    let m = os.metrics();
    let class = classify_run(&outcome, violations, m.quarantines);
    let (critical_path, span_latency_clean, span_latency_recovery) =
        osiris_faults::run_attribution(os.kernel().axiom().records(), &os.metrics_snapshot());
    campaign.record(osiris_faults::InjectionRecord {
        site: plan.site,
        kind: plan.kind,
        policy: policy.to_string(),
        outcome: class,
        action: RecoveryActionTag::from_counts(
            m.recovered_rollback,
            m.recovered_fresh,
            m.recovered_quiescent,
            m.recovered_naive,
            m.controlled_shutdowns,
        ),
        run_cycles: os.kernel().now(),
        recoveries: m.recovered_rollback
            + m.recovered_fresh
            + m.recovered_quiescent
            + m.recovered_naive,
        recovery_cycles: m.recovery_cycles,
        critical_path,
        span_latency_clean,
        span_latency_recovery,
        blackbox: None,
    });
    if !matches!(outcome, RunOutcome::Completed { .. }) {
        eprintln!("campaign_smoke: {program}/{policy} did not terminate cleanly: {outcome:?}");
        std::process::exit(1);
    }
    println!("  {program:<10} {policy:<12} -> {class}");
    class
}

fn main() {
    osiris_kernel::install_quiet_panic_hook();

    let programs = ["tolerant", "naive"];
    let policies = [PolicyKind::Enhanced, PolicyKind::Pessimistic];
    let campaign = Campaign::new(
        "escalation-smoke",
        FaultModel::FailStop,
        programs.len() * policies.len(),
    );
    println!(
        "persistent fail-stop on vfs.read.entry, {} runs:",
        programs.len() * policies.len()
    );
    let mut classes = Vec::new();
    for policy in policies {
        for program in programs {
            classes.push(run_one(program, policy, &campaign));
        }
    }

    let dir = osiris_bench::out_dir(std::env::var_os("OSIRIS_OUT_DIR"), "campaign_smoke");
    let report = campaign.report_json().pretty();
    let out = osiris_bench::write_out(&dir, "campaign_smoke.json", &report)
        .expect("write campaign report");
    println!("(report written to {})", out.display());

    // The gate: both escalation outcome classes must be observed and must
    // survive the trip through the report document.
    let mut failed = false;
    for (class, label) in [
        (Outcome::Degraded, "degraded"),
        (Outcome::Quarantined, "quarantined"),
    ] {
        if !classes.contains(&class) {
            eprintln!("campaign_smoke: no run classified as {label}");
            failed = true;
        }
        if !report.contains(&format!("\"{label}\"")) {
            eprintln!("campaign_smoke: report JSON does not mention {label}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("ok: degraded and quarantined classes present in the report");
}
