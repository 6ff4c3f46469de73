//! Quickstart: boot the OSIRIS OS, run a workload, crash the Process
//! Manager mid-call, and watch the system recover with error
//! virtualization. The scenario is `osiris::workloads::quickstart`; the
//! run is flight-recorded and every export lands in one directory
//! (`target/quickstart`, or `$OSIRIS_OUT_DIR`): `trace.json` (Chrome
//! trace — open it in `chrome://tracing` or <https://ui.perfetto.dev>),
//! the kernel's metrics registry as `metrics.prom` / `metrics.json`, the
//! virtual-time series the sampler collected (`timeseries.json`; the same
//! lanes ride along in the Chrome trace as counter tracks) and the
//! control-plane log `axiom.bin`.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use osiris::workloads::quickstart;
use osiris::RunOutcome;

fn main() {
    // `main` spawns a worker, then forks twice. The armed fault crashes PM
    // while it handles the first fork; OSIRIS rolls PM back to the top of
    // its request loop and answers E_CRASH instead (error
    // virtualization), so the second fork succeeds.
    let (outcome, mut os) = quickstart::run();

    println!("outcome:   {outcome:?}");
    if let RunOutcome::Completed { init_code, .. } = outcome {
        for (step, what) in (1..).zip(quickstart::STEPS) {
            let status = match init_code {
                0 => "ok",
                failed if step < failed => "ok",
                failed if step == failed => "FAILED",
                _ => "not reached",
            };
            println!("step {step}:    {what}: {status}");
        }
    }
    println!(
        "recovered: {} component crash(es) by rollback + error virtualization",
        os.metrics().recovered_rollback
    );
    let violations = os.audit();
    println!(
        "audit:     {}",
        if violations.is_empty() {
            "globally consistent".to_string()
        } else {
            format!("{violations:?}")
        }
    );

    // Export everything, then verify the axiom's hash chain end to end.
    // Verification bumps registry counters, so it comes after the export;
    // `osiris-inspect replay` keeps the same order, reconstructs the
    // control state from `axiom.bin` and byte-compares a replayed run's
    // exports against these.
    let dir = std::path::PathBuf::from(
        std::env::var_os("OSIRIS_OUT_DIR").unwrap_or_else(|| "target/quickstart".into()),
    );
    os.write_exports(&dir).expect("write exports");
    os.verify_axiom().expect("axiom chain intact");
    println!(
        "exports:   {} trace events, {} sampled points, {} chained axiom events -> {}",
        os.tracer().len(),
        os.timeseries().len(),
        os.axiom().len(),
        dir.display()
    );

    assert!(matches!(outcome, RunOutcome::Completed { init_code: 0, .. }) && violations.is_empty());
}
