//! CI smoke for the hardened recovery path: a transient crash on VFS's hot
//! read site (the primary) paired with a secondary fault *inside* the
//! recovery machinery — the kernel's rollback/restart/reconciliation phases
//! and the RS conduct sites — via [`DoubleInjector`]. The campaign must
//! complete with survivability above zero, never classify a run as an
//! uncontrolled crash, and carry the `during-recovery` model through
//! `campaign_report.json`; the fallback and journal-integrity metric
//! families must be present in the Prometheus export. Exits nonzero
//! otherwise — the gate `ci.sh` runs.
//!
//! ```text
//! cargo run --release -p osiris-bench --bin double_fault
//! ```

use osiris_core::PolicyKind;
use osiris_faults::{
    classify_run, plan_faults, Campaign, DoubleInjector, FaultKind, FaultModel, FaultPlan, Outcome,
    RecoveryActionTag, SiteId, SiteKindTag, SiteProfile,
};
use osiris_kernel::abi::{Errno, OpenFlags};
use osiris_kernel::{Host, ProgramRegistry};
use osiris_servers::{Os, OsConfig};

/// The recovery-triggering primary: one transient crash on the hot read
/// path, same site the table campaigns hammer.
fn primary() -> FaultPlan {
    FaultPlan {
        site: SiteId {
            component: "vfs".to_string(),
            site: "vfs.read.entry".to_string(),
            kind: SiteKindTag::Block,
        },
        kind: FaultKind::Crash,
        transient: true,
    }
}

/// A client holding no VFS state across the crashing read, tolerant of the
/// one virtualized `E_CRASH` reply, which then proves the recovered server
/// still serves fresh work. Works unchanged whether the recovery rolls
/// back, degrades to a fresh restart, or is re-driven after an RS crash.
fn registry() -> ProgramRegistry {
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        let fd = match sys.open("/tmp/df", OpenFlags::RDWR_CREATE) {
            Ok(fd) => fd,
            Err(_) => return 10,
        };
        if sys.write(fd, &[7u8; 128]).is_err() {
            return 11;
        }
        if sys.close(fd).is_err() || sys.unlink("/tmp/df").is_err() {
            return 12;
        }
        match sys.read(fd, 32) {
            Err(Errno::ECRASH) => {}
            _ => return 13,
        }
        match sys.read(fd, 32) {
            Err(Errno::EBADF) => {}
            _ => return 14,
        }
        let fd2 = match sys.open("/tmp/df2", OpenFlags::RDWR_CREATE) {
            Ok(fd) => fd,
            Err(_) => return 15,
        };
        if sys.write(fd2, &[9u8; 64]).is_err() {
            return 16;
        }
        if sys.close(fd2).is_err() || sys.unlink("/tmp/df2").is_err() {
            return 17;
        }
        0
    });
    registry
}

fn run_one(secondary: &FaultPlan, campaign: &Campaign) -> (Outcome, String) {
    let mut cfg = OsConfig::with_policy(PolicyKind::Enhanced);
    // Retain the axiom: run_attribution folds its record stream into the
    // per-injection recovery critical path (zeros without retention).
    cfg.axiom = osiris_axiom::AxiomConfig::on();
    let mut os = Os::new(cfg);
    os.set_fault_hook(Box::new(DoubleInjector::new(&primary(), secondary)));
    let mut host = Host::new(os, registry());
    let outcome = host.run("main", &[]);
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
        site: secondary.site.clone(),
        kind: secondary.kind,
        policy: PolicyKind::Enhanced.to_string(),
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
    println!(
        "  {:<28} -> {class}",
        format!("{}:{}", secondary.site.component, secondary.site.site)
    );
    (class, os.metrics_prometheus())
}

fn main() {
    osiris_kernel::install_quiet_panic_hook();

    // The secondary plans are synthesized (recovery sites never show up in
    // a fault-free profile), so the profile argument is unused.
    let plans = plan_faults(&SiteProfile::default(), FaultModel::DuringRecovery, 1);
    let campaign = Campaign::new(
        "double-fault-smoke",
        FaultModel::DuringRecovery,
        plans.len(),
    );
    println!(
        "transient crash on vfs.read.entry + secondary in the recovery path, {} runs:",
        plans.len()
    );

    let mut classes = Vec::new();
    let mut family_checked = false;
    let mut failed = false;
    for plan in &plans {
        let (class, prom) = run_one(plan, &campaign);
        classes.push(class);
        // The new metric families must be registered in every kernel; check
        // the export of the rollback-phase run where both fire.
        if plan.site.site == "kernel.recovery.rollback" {
            family_checked = true;
            for family in [
                "osiris_recovery_fallback_total",
                "osiris_journal_integrity_checks_total",
                "osiris_recovery_fallback_intent_replays_total",
            ] {
                if !prom.contains(family) {
                    eprintln!("double_fault: metric family {family} missing from export");
                    failed = true;
                }
            }
        }
    }

    let dir = osiris_bench::out_dir(std::env::var_os("OSIRIS_OUT_DIR"), "double_fault");
    let report = campaign.report_json().pretty();
    let out =
        osiris_bench::write_out(&dir, "double_fault.json", &report).expect("write campaign report");
    println!("(report written to {})", out.display());

    // The gate: the campaign survives faults in its own recovery path.
    if classes.contains(&Outcome::Crash) {
        eprintln!("double_fault: a fault during recovery crashed the system");
        failed = true;
    }
    let survived = classes
        .iter()
        .filter(|c| {
            matches!(
                c,
                Outcome::Pass | Outcome::Fail | Outcome::Degraded | Outcome::Quarantined
            )
        })
        .count();
    if survived == 0 {
        eprintln!("double_fault: zero survivability under faults during recovery");
        failed = true;
    }
    if !report.contains("during-recovery") {
        eprintln!("double_fault: report JSON does not carry the during-recovery model");
        failed = true;
    }
    if !family_checked {
        eprintln!("double_fault: rollback-phase plan missing from the synthesized set");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "ok: {survived}/{} runs survived; during-recovery model and fallback metric families present",
        classes.len()
    );
}
