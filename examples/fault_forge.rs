//! Snapshot-fork fault campaign: sweep the full DoubleFault ×
//! DuringRecovery space in seconds by forking every fault variant from a
//! shared prefix snapshot instead of rerunning the workload from boot.
//!
//! The forge profiles the script workload once per policy, snapshots the
//! clean prefix in front of every injection site, then forks each (site ×
//! fault-model × policy) variant from the shared snapshot — an O(dirty)
//! copy, byte-identical to a from-boot run reaching the same state. A
//! coverage map over (component, window, policy, model, outcome) cells
//! tracks what the sweep has proven; a refinement wave then probes the
//! *frontier* — sites where neighboring variants flip between outcome
//! classes — with transient and hang refinements.
//!
//! ```text
//! cargo run --release --example fault_forge
//! ```

use osiris::faults::{render_matrix, Forge, ForgeConfig};

fn main() {
    osiris::install_quiet_panic_hook();

    // Default config: every policy, reachability boundaries, the standard
    // 512-injection budget, deterministic regardless of thread count.
    let forge = Forge::new(ForgeConfig::default());
    let plan = forge.plan();
    println!(
        "plan: {} base variants over {} policies ({} deferred by budget)",
        plan.variants.len(),
        plan.profiles.len(),
        plan.deferred.len()
    );

    let result = forge.run_plan(&plan);
    let report = &result.report;

    println!("{}", render_matrix(result.campaign.records()));
    println!(
        "{} injections: {} fresh forks, {} snapshot re-adoptions, {} dirty bytes copied",
        report.injections, report.stats.forks, report.stats.readopts, report.stats.fork_dirty_bytes
    );
    println!(
        "coverage: fail-stop {:.0}% ({}/{}), recovery space {:.0}% ({}/{}), {} outcome cells",
        report.fail_stop_pct(),
        report.fail_stop.1,
        report.fail_stop.0,
        report.recovery_space_pct(),
        report.recovery_space.1,
        report.recovery_space.0,
        report.outcome_cells
    );
    println!(
        "frontier: {} outcome-class flips across {} sites, {} refinement runs",
        report.frontier.flips,
        report.frontier.sites.len(),
        report.refinements
    );
    for site in report.frontier.sites.iter().take(8) {
        println!("  frontier site: {site}");
    }
}
