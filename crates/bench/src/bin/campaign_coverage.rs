//! Coverage gate for the snapshot-fork campaign forge.
//!
//! Runs the coverage-guided sweep (reachability boundaries, the
//! quickstart-scale workload) with the fail-silent wave enabled and
//! enforces the sweep-completeness gates: 100% of the planned FailStop
//! matrix, ≥90% of the full DoubleFault × DuringRecovery space within the
//! budget, 100% of the fail-silent plan space (Hang, Stall, ReplyDrop and
//! ReplyCorrupt at every core server, per policy), plus a
//! live frontier (the policy spread must produce outcome-class flips, or
//! the coverage-guided wave has nothing to refine). Unless invoked with
//! `--check`, writes the coverage report to `campaign_coverage.json` and
//! the campaign registry's Prometheus exposition (which carries the
//! `osiris_forge_*` families) to `campaign_coverage.prom`, both in
//! `target/campaign_coverage` or `$OSIRIS_OUT_DIR`.
//!
//! ```text
//! cargo run --release -p osiris-bench --bin campaign_coverage [--check]
//! ```

use osiris_faults::{forge_config_fail_silent, Forge, ForgeConfig};

/// Minimum DoubleFault × DuringRecovery coverage (percent) within the
/// budget.
const RECOVERY_COVERAGE_FLOOR: f64 = 90.0;

fn main() {
    let check = std::env::args().any(|a| a == "--check" || a == "--quick");
    let forge = Forge::new(ForgeConfig {
        // The fail-silent wave (hang / stall / reply-drop / reply-corrupt
        // at every core server, per policy) requires armed deadlines, so
        // the whole sweep runs under the watchdog-enabled config. The
        // budget absorbs the extra wave without deferring anything — the
        // `dropped == 0` gate below keeps that honest.
        fail_silent_wave: true,
        os_config: forge_config_fail_silent,
        budget: 1024,
        ..ForgeConfig::default()
    });
    let result = forge.run();
    let report = &result.report;

    println!("{}", result.campaign.render_matrix());
    println!(
        "coverage: fail-stop {:.0}% ({}/{} cells), recovery space {:.0}% ({}/{} cells)",
        report.fail_stop_pct(),
        report.fail_stop.1,
        report.fail_stop.0,
        report.recovery_space_pct(),
        report.recovery_space.1,
        report.recovery_space.0,
    );
    println!(
        "fail-silent: {:.0}% ({}/{} cells; hang {}/{}, reply-drop {}/{})",
        report.fail_silent_pct(),
        report.fail_silent.1,
        report.fail_silent.0,
        report.fail_silent_hang.1,
        report.fail_silent_hang.0,
        report.fail_silent_reply_drop.1,
        report.fail_silent_reply_drop.0,
    );
    println!(
        "frontier: {} flips across {} sites, {} refinements, {} outcome cells",
        report.frontier.flips,
        report.frontier.sites.len(),
        report.refinements,
        report.outcome_cells,
    );

    if !check {
        let dir = osiris_bench::out_dir(std::env::var_os("OSIRIS_OUT_DIR"), "campaign_coverage");
        for (name, contents) in [
            ("campaign_coverage.json", result.report_json().pretty()),
            (
                "campaign_coverage.prom",
                result.campaign.metrics_handle().prometheus(),
            ),
        ] {
            osiris_bench::write_out(&dir, name, &contents).expect("write coverage export");
        }
        println!(
            "results written to {}/campaign_coverage.{{json,prom}}",
            dir.display()
        );
    }

    assert_eq!(
        report.fail_stop_pct(),
        100.0,
        "FailStop matrix not fully covered: {:?}",
        report.fail_stop
    );
    assert!(
        report.recovery_space_pct() >= RECOVERY_COVERAGE_FLOOR,
        "DoubleFault x DuringRecovery coverage {:.0}% below {RECOVERY_COVERAGE_FLOOR}% \
         within the default budget",
        report.recovery_space_pct()
    );
    assert!(
        report.fail_silent.0 > 0 && report.fail_silent_pct() == 100.0,
        "fail-silent plan space (hang, stall, reply-drop, reply-corrupt) not fully covered: {:?}",
        report.fail_silent
    );
    assert!(
        report.frontier.flips > 0,
        "no recovery-failure frontier found — the policy sweep should disagree somewhere"
    );
    assert_eq!(
        report.dropped, 0,
        "the budget must not truncate the base waves"
    );
    println!(
        "OK: coverage {:.0}%/{:.0}%/{:.0}%, {} frontier flips",
        report.fail_stop_pct(),
        report.recovery_space_pct(),
        report.fail_silent_pct(),
        report.frontier.flips
    );
}
