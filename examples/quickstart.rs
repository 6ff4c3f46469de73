//! Quickstart: boot the OSIRIS OS, run a workload, crash the Process
//! Manager mid-call, and watch the system recover with error
//! virtualization. The run is flight-recorded and every export lands in
//! one directory (`target/quickstart`, or `$OSIRIS_OUT_DIR`): `trace.json`
//! (Chrome trace — open it in `chrome://tracing` or
//! <https://ui.perfetto.dev>), the kernel's metrics registry as
//! `metrics.prom` / `metrics.json`, the virtual-time series the sampler
//! collected (`timeseries.json`; the same lanes ride along in the Chrome
//! trace as counter tracks) and the control-plane log `axiom.bin`.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::atomic::{AtomicBool, Ordering};

use osiris::kernel::{FaultEffect, FaultHook, Probe};
use osiris::{Host, Os, OsConfig, PolicyKind, ProgramRegistry};

/// A single fail-stop fault in PM's fork path, fired once.
struct CrashForkOnce(AtomicBool);

impl FaultHook for CrashForkOnce {
    fn on_site(&mut self, probe: &Probe) -> FaultEffect {
        if probe.site == "pm.fork.validate" && !self.0.swap(true, Ordering::Relaxed) {
            println!(
                "[injector] firing a fail-stop fault at {}::{}",
                probe.component, probe.site
            );
            FaultEffect::Panic
        } else {
            FaultEffect::None
        }
    }
}

fn main() {
    osiris::install_quiet_panic_hook();

    let mut registry = ProgramRegistry::new();
    registry.register("worker", |sys| {
        // Some honest work: a file and a computation.
        let fd = sys
            .open("/tmp/out", osiris::kernel::abi::OpenFlags::CREATE)
            .unwrap();
        sys.write(fd, b"results").unwrap();
        sys.close(fd).unwrap();
        sys.compute(10_000);
        7
    });
    registry.register("main", |sys| {
        println!("[init] pid {} booted; spawning a worker...", sys.pid());
        let child = sys.spawn("worker", &[]).expect("spawn works");
        let code = sys.waitpid(child).expect("waitpid works");
        println!("[init] worker {child} exited with {code}");

        // Now fork — the injected fault crashes PM while it handles this
        // very call. OSIRIS rolls PM back to the top of its request loop
        // and answers E_CRASH instead (error virtualization).
        match sys.fork_run(|_child| 0) {
            Err(osiris::kernel::abi::Errno::ECRASH) => {
                println!("[init] fork failed with E_CRASH: PM crashed and was recovered");
            }
            other => println!("[init] unexpected fork result: {other:?}"),
        }

        // PM is alive again: the same call now succeeds.
        let child = sys.fork_run(|_child| 3).expect("PM recovered");
        let code = sys.waitpid(child).expect("waitpid after recovery");
        println!("[init] post-recovery fork: child {child} exited with {code}");
        0
    });

    let mut cfg = OsConfig::with_policy(PolicyKind::Enhanced);
    cfg.trace = osiris::TraceConfig::on();
    cfg.axiom = osiris::axiom::AxiomConfig::on();
    cfg.timeseries = osiris::metrics::TimeseriesConfig::on();
    let mut os = Os::new(cfg);
    os.set_fault_hook(Box::new(CrashForkOnce(AtomicBool::new(false))));

    let mut host = Host::new(os, registry);
    let outcome = host.run("main", &[]);
    let mut os = host.into_engine();

    println!("\noutcome:   {outcome:?}");
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
    // the `axiom_replay` tool keeps the same order, reconstructs the
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

    assert!(outcome.completed() && violations.is_empty());
}
