//! End-to-end forge sweeps: deterministic results on every thread count,
//! full coverage of the planned spaces, and a live frontier.

use std::sync::OnceLock;

use osiris_core::PolicyKind;
use osiris_faults::{
    forge_config_fail_silent, FaultModel, Forge, ForgeConfig, ForgePlan, ForgeResult, ForgeVariant,
    Outcome,
};
use osiris_metrics::validate_prometheus;

/// Minimum DoubleFault × DuringRecovery coverage (percent) within the
/// budget.
const RECOVERY_COVERAGE_FLOOR: f64 = 90.0;

/// `ForgeConfig::default()`'s plan and its run, made once for every test
/// that reads them.
fn default_sweep() -> &'static (ForgePlan, ForgeResult) {
    static SWEEP: OnceLock<(ForgePlan, ForgeResult)> = OnceLock::new();
    SWEEP.get_or_init(|| {
        let forge = Forge::new(ForgeConfig::default());
        let plan = forge.plan();
        let result = forge.run_plan(&plan);
        (plan, result)
    })
}

fn sweep(threads: usize) -> ForgeResult {
    let forge = Forge::new(ForgeConfig {
        policies: vec![PolicyKind::Stateless, PolicyKind::Enhanced],
        threads,
        budget: 256,
        ..ForgeConfig::default()
    });
    forge.run()
}

/// FNV digest of one export, as `golden_exports.rs` takes them.
fn digest(bytes: &[u8]) -> u64 {
    osiris_axiom::fnv1a(osiris_axiom::fnv1a_str(""), bytes)
}

/// Digests of `sweep(1)`'s campaign axiom, report, exposition and frontier,
/// captured before the campaign became a value built from its ordered
/// records. A change to how records are collected must leave them alone.
/// Re-pinned when quarantine stopped answering a request whose reply got
/// through: the Stateless `vfs.post.account` and `vfs.post.done` crash
/// cells close four spans fewer. Re-pinned again when the script stopped
/// reading its pipe after a failed write: the Enhanced `vfs.pipe.write`
/// and `vfs.pipe.write_done` persistent-crash cells end in `E_CRASH`
/// instead of a hang on the script's own empty pipe. The exposition
/// moved once more when disk blocks became shared handles: only
/// `fork_dirty_bytes` and `snapshot_manifest_bytes`, whose `size_of`-based
/// accounting sees a 16-byte handle where it saw a 24-byte vector.
const SWEEP_DIGESTS: [u64; 4] = [
    0xb63a_a786_0c00_a38d,
    0x4fc1_bab0_4d04_c800,
    0x975c_3d55_f368_b4f0,
    0x5c09_ac76_40e2_6adc,
];

/// Digest of `sweep(1)`'s combined campaign and forge report, captured
/// while both were still built as a value tree and then printed. Writing
/// them straight into the JSON writer must not move a byte. Re-pinned with
/// `SWEEP_DIGESTS` for the script's pipe fix and for shared disk blocks.
const FORGE_REPORT_DIGEST: u64 = 0x616b_df98_39c7_9b66;

#[test]
fn forge_sweep_is_thread_count_invariant() {
    let a = sweep(1);
    let got = [
        digest(&a.campaign.axiom_bytes()),
        digest(a.campaign.report_json().pretty().as_bytes()),
        digest(a.campaign.metrics_handle().prometheus().as_bytes()),
        digest(format!("{:?}", a.report.frontier).as_bytes()),
    ];
    assert_eq!(got, SWEEP_DIGESTS, "campaign exports moved: {got:#018x?}");
    let report = digest(a.report_json().pretty().as_bytes());
    assert_eq!(
        report, FORGE_REPORT_DIGEST,
        "forge report moved: {report:#018x}"
    );
    let b = sweep(4);

    // Records, matrix, axiom chain and coverage are plan-ordered and must
    // not depend on worker scheduling. (Fork/readopt counters are
    // operational telemetry and legitimately vary with the pool.)
    assert_eq!(a.campaign.axiom_bytes(), b.campaign.axiom_bytes());
    assert_eq!(
        a.campaign.report_json().pretty(),
        b.campaign.report_json().pretty()
    );
    assert_eq!(a.report.frontier.flips, b.report.frontier.flips);
    assert_eq!(a.report.frontier.sites, b.report.frontier.sites);
    assert_eq!(a.report.outcome_cells, b.report.outcome_cells);
    assert_eq!(a.report.injections, b.report.injections);

    // The planned spaces are fully swept within this budget.
    assert_eq!(a.report.fail_stop.0, a.report.fail_stop.1);
    assert_eq!(a.report.recovery_space.0, a.report.recovery_space.1);
    assert!(a.report.fail_stop.0 > 0);
    assert!(a.report.recovery_space.0 > 0);

    // The policy spread guarantees outcome-class flips: stateless loses
    // state the enhanced policy recovers.
    assert!(a.report.frontier.flips > 0, "no frontier found");
    assert!(a.report.stats.readopts > 0, "workers never re-adopted");
    assert!(a.report.stats.fork_dirty_bytes > 0);
}

#[test]
fn forge_budget_truncation_is_visible() {
    let forge = Forge::new(ForgeConfig {
        policies: vec![PolicyKind::Stateless, PolicyKind::Enhanced],
        threads: 4,
        budget: 150,
        frontier_wave: false,
        ..ForgeConfig::default()
    });
    let plan = forge.plan();
    assert!(!plan.deferred.is_empty(), "budget 150 should truncate");
    let res = forge.run_plan(&plan);
    // Dropped variants stay in the coverage denominator: the report shows
    // the lost coverage instead of silently shrinking the space.
    assert_eq!(res.report.dropped, plan.deferred.len());
    assert!(
        res.report.recovery_space.1 < res.report.recovery_space.0,
        "truncated sweep must report incomplete coverage: {:?}",
        res.report.recovery_space
    );
    assert_eq!(res.report.injections, 150);
}

/// The coverage ledger declares what the planner scheduled, deferred
/// variants included; the frontier's refinements are bonus exploration of
/// covered cells and never join the recovery-space denominator.
#[test]
fn refinement_cells_are_not_counted_as_planned() {
    let (plan, res) = default_sweep();
    let recovery_path = |v: &&ForgeVariant| {
        matches!(
            v.model,
            FaultModel::DuringRecovery | FaultModel::DoubleFault
        )
    };
    let planned = plan.variants.iter().chain(&plan.deferred);
    let declared = planned.filter(recovery_path).count();
    assert!(res.report.refinements > 0, "the default sweep refines");
    assert_eq!(res.report.recovery_space.0, declared);
}

/// The sweep-completeness floors of the default four-policy sweep with the
/// fail-silent wave on (hang / stall / reply-drop / reply-corrupt at every
/// core server need armed deadlines, so the whole sweep runs under the
/// watchdog config): 100% of the FailStop matrix, ≥ 90% of the
/// DoubleFault × DuringRecovery space, 100% of a non-empty fail-silent
/// plan, nothing deferred by the budget, and a live frontier — the policy
/// spread must flip outcome classes or the refinement wave has nothing to
/// refine.
#[test]
fn default_sweep_clears_the_coverage_floors() {
    let result = Forge::new(ForgeConfig {
        fail_silent_wave: true,
        os_config: forge_config_fail_silent,
        budget: 1024,
        ..ForgeConfig::default()
    })
    .run();
    let report = &result.report;
    assert_eq!(report.fail_stop_pct(), 100.0, "{:?}", report.fail_stop);
    assert!(
        report.recovery_space_pct() >= RECOVERY_COVERAGE_FLOOR,
        "recovery space {:?} below {RECOVERY_COVERAGE_FLOOR}%",
        report.recovery_space
    );
    assert!(
        report.fail_silent.0 > 0 && report.fail_silent_pct() == 100.0,
        "fail-silent plan space not fully covered: {:?}",
        report.fail_silent
    );
    assert!(report.frontier.flips > 0, "no recovery-failure frontier");
    assert_eq!(report.dropped, 0, "the budget truncated the base waves");
    // One scrape carries the campaign series and the osiris_forge_* families.
    let prom = result.campaign.metrics_handle().prometheus();
    assert!(prom.contains("osiris_forge_forks_total"), "{prom}");
    validate_prometheus(&prom).expect("campaign exposition is well-formed");
}

/// Forged runs go through the same epilogue as from-boot runs: exactly the
/// uncontrolled crashes carry a flight-recorder tail.
#[test]
fn exactly_the_crashes_carry_a_black_box() {
    let records = default_sweep().1.campaign.records();
    let crashes = records.iter().filter(|r| r.outcome == Outcome::Crash);
    assert!(crashes.count() > 0, "the default sweep has crashes to dump");
    for r in records {
        let tail = r.blackbox.as_deref();
        assert_eq!(tail.is_some(), r.outcome == Outcome::Crash, "{:?}", r.site);
        assert_ne!(tail, Some(""), "empty tail for {:?}", r.site);
    }
}

/// The OSIRIS policies never crash the machine in the default sweep: a
/// persistent fault in the script's pipe write is answered with `E_CRASH`
/// and rolled back, and the script must not then block on its own empty
/// pipe.
#[test]
fn the_osiris_policies_never_crash_in_the_default_sweep() {
    let records = default_sweep().1.campaign.records();
    let osiris = [PolicyKind::Enhanced, PolicyKind::Pessimistic].map(PolicyKind::label);
    let crashed: Vec<_> = records
        .iter()
        .filter(|r| osiris.contains(&r.policy.as_str()) && r.outcome == Outcome::Crash)
        .map(|r| (&r.policy, &r.site, r.kind))
        .collect();
    assert!(crashed.is_empty(), "{crashed:?}");
}
