//! Campaign-layer regressions: `run_parallel` result ordering, and a
//! campaign built from its returned records.

use std::time::Duration;

use osiris_faults::{
    render_matrix, run_parallel, Campaign, CriticalPath, FaultKind, FaultModel, InjectionRecord,
    Outcome, RecoveryActionTag, SiteId,
};
use osiris_metrics::{HistSummary, Registry};

/// `run_parallel` must return results in job order on every thread count,
/// even when late jobs finish first.
#[test]
fn run_parallel_results_follow_job_order() {
    let jobs: Vec<usize> = (0..48).collect();
    let expected: Vec<usize> = jobs.iter().map(|i| i * i).collect();
    for threads in [1, 4, 16] {
        let results = run_parallel(jobs.clone(), threads, |i| {
            // Earlier jobs sleep longer, so a completion-ordered (or
            // LIFO-intake) implementation would visibly scramble results.
            std::thread::sleep(Duration::from_micros(((48 - i) % 7) as u64 * 100));
            i * i
        });
        assert_eq!(results, expected, "scrambled results at {threads} threads");
    }
}

fn rec(run: usize, policy: &str, outcome: Outcome) -> InjectionRecord {
    InjectionRecord {
        site: SiteId {
            component: ["pm", "vfs", "ds"][run % 3].into(),
            site: format!("s{}", run % 5),
            kind: osiris_faults::SiteKindTag::Block,
        },
        kind: FaultKind::Crash,
        policy: policy.into(),
        outcome,
        action: RecoveryActionTag::Rollback,
        run_cycles: 1000 + run as u64,
        recoveries: 1,
        recovery_cycles: 50,
        critical_path: CriticalPath {
            recoveries: 1,
            detect_cycles: 10,
            execute_cycles: 40,
            total_cycles: 50,
            intent_replays: 0,
            fallbacks: 0,
        },
        span_latency_clean: HistSummary::default(),
        span_latency_recovery: HistSummary::default(),
        blackbox: None,
    }
}

/// A campaign built from the records a thread pool returns must have the
/// same records, axiom chain, report and metrics exposition (Prometheus
/// text and JSON) regardless of thread count, even when late jobs finish
/// first.
#[test]
fn campaign_slots_are_thread_count_invariant() {
    let total = 60;
    let mut baseline: Option<(Vec<u8>, [String; 3])> = None;
    for threads in [1, 4, 16] {
        let outcomes = [Outcome::Pass, Outcome::Fail, Outcome::Shutdown];
        let records = run_parallel((0..total).collect::<Vec<_>>(), threads, |i| {
            std::thread::sleep(Duration::from_micros(((total - i) % 5) as u64 * 100));
            let policy = ["stateless", "enhanced"][i % 2];
            rec(i, policy, outcomes[i % 3])
        });
        let campaign = Campaign::new("order", FaultModel::FailStop, records, Registry::default());
        assert_eq!(campaign.records().len(), total);
        let text = [
            campaign.report_json().pretty(),
            campaign.metrics_handle().prometheus(),
            campaign.metrics_handle().json().pretty(),
        ];
        assert!(text[1].contains("osiris_campaign_outcomes_total"));
        let fingerprint = (campaign.axiom_bytes(), text);
        match &baseline {
            None => baseline = Some(fingerprint),
            Some(want) => {
                assert_eq!(want.0, fingerprint.0, "axiom diverges at {threads} threads");
                for (what, (a, b)) in ["report", "Prometheus text", "metrics JSON"]
                    .iter()
                    .zip(want.1.iter().zip(&fingerprint.1))
                {
                    assert!(a == b, "{what} diverges at {threads} threads");
                }
            }
        }
    }
}

/// The campaign report's `totals` object and the rendered matrix footer
/// must agree with the sum over all matrix rows.
#[test]
fn report_totals_match_matrix_footer() {
    let records = vec![
        rec(0, "stateless", Outcome::Pass),
        rec(1, "stateless", Outcome::Shutdown),
        rec(2, "enhanced", Outcome::Pass),
        rec(3, "enhanced", Outcome::Pass),
    ];
    let campaign = Campaign::new("tot", FaultModel::FailStop, records, Registry::default());
    let report = campaign.report_json().pretty();
    assert!(
        report.contains("\"totals\""),
        "report lacks totals: {report}"
    );
    let matrix = render_matrix(campaign.records());
    assert!(matrix.contains("(total)"), "matrix lacks footer: {matrix}");
    // 3 passes + 1 shutdown across all policies.
    let totals_idx = report.find("\"totals\"").expect("totals object");
    let totals = &report[totals_idx..];
    assert!(totals.contains("\"pass\": 3"), "bad totals: {totals}");
    assert!(totals.contains("\"shutdown\": 1"), "bad totals: {totals}");
}
