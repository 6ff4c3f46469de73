//! A miniature survivability campaign (paper §VI-B, Tables II/III):
//! profile the test suite, plan one fail-stop fault per triggered PM/VFS
//! site, inject each in a fresh run under two recovery policies, and
//! compare the outcome distributions.
//!
//! The records come back in plan order and render as a policy × component ×
//! outcome matrix ([`render_matrix`]); each uncontrolled crash's record
//! carries its flight-recorder black box.
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```

use osiris::faults::forge::forge_config;
use osiris::faults::{
    plan_faults, render_matrix, run_parallel, FaultModel, InjectionRecord, Injector, Recorder,
};
use osiris::workloads::run_suite_with;
use osiris::{OsConfig, PolicyKind};

fn main() {
    osiris::install_quiet_panic_hook();

    // 1. Profiling run: which instrumentation sites does the suite trigger?
    println!("profiling the test suite...");
    let recorder = Recorder::new();
    let handle = recorder.clone();
    let (_, _) = run_suite_with(
        OsConfig::with_policy(PolicyKind::Enhanced),
        Some(Box::new(recorder)),
    );
    // Keep the campaign small: PM and VFS sites only.
    let profile = handle.profile().restrict_to(&["pm", "vfs"]);
    println!("{} distinct PM/VFS sites triggered", profile.len());

    // 2. One fail-stop fault per site.
    let plans = plan_faults(&profile, FaultModel::FailStop, 7);
    println!("{} faults planned\n", plans.len());

    // 3. Inject each fault in its own fresh run, per policy. `run_parallel`
    //    returns the records in plan order on any thread count.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    println!("injecting on {threads} threads...");
    let mut records = Vec::new();
    for policy in [PolicyKind::Naive, PolicyKind::Enhanced] {
        records.extend(run_parallel(plans.clone(), threads, |plan| {
            // `forge_config` flight-records quietly and retains the axiom;
            // `from_run` audits, classifies (escalation-aware: a run that
            // survived by quarantining a crash-looping component reports
            // as degraded/quarantined) and attaches the black box of an
            // uncontrolled crash.
            let (outcome, os) =
                run_suite_with(forge_config(policy), Some(Box::new(Injector::new(&plan))));
            InjectionRecord::from_run(&os, &outcome, &plan, policy)
        }));
    }
    if let Some(tail) = records.iter().find_map(|r| r.blackbox.as_deref()) {
        eprintln!("first uncontrolled crash — flight-recorder tail:\n{tail}");
    }

    println!("\ncampaign matrix ({} runs):", records.len());
    print!("{}", render_matrix(&records));
    println!("\nenhanced recovery turns uncontrolled crashes into recoveries or");
    println!("controlled shutdowns; the naive baseline survives by luck and");
    println!("leaves torn state behind (caught as crashes by the audit).");
}
