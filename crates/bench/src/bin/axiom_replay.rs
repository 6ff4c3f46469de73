//! Deterministic whole-system replay against a recorded axiom.
//!
//! Loads the axiom written by a previous `quickstart` run (path from the
//! first argument, or `target/quickstart/axiom.bin`), verifies its digest
//! chain, then re-executes the identical quickstart
//! workload fresh. Because every event is timestamped by the virtual clock
//! and chained in sequence order, the fresh run must re-derive the
//! recorded history *exactly* — `bisect` of the two axioms must find no
//! divergence — and its reduction must match the live kernel's control
//! state, per-component liveness included.
//!
//! The fresh run's exports are written to `target/replay` (or
//! `$OSIRIS_OUT_DIR`) under the same names `quickstart` uses; the `ci.sh`
//! `axiom_replay` gate `diff -r`s the two directories.
//! Finally the tool rebuilds a whole machine from the recorded bytes via
//! [`Os::replay`] — simulated reboot persistence — and cross-checks the
//! adopted control state.
//!
//! Exits non-zero (panics) on any chain corruption, divergence, or
//! reduction mismatch.

use osiris_axiom::{reduce, AxiomLog};
use osiris_core::PolicyKind;
use osiris_faults::{FaultKind, FaultPlan, Injector};
use osiris_kernel::abi::{Errno, OpenFlags};
use osiris_servers::{Os, OsConfig};
use osiris_trace::TraceConfig;
use osiris_workloads::{Host, ProgramRegistry};

/// The quickstart programs, byte-for-byte the same syscall sequence the
/// recorded run executed.
fn quickstart_registry() -> ProgramRegistry {
    let mut registry = ProgramRegistry::new();
    registry.register("worker", |sys| {
        let fd = sys.open("/tmp/out", OpenFlags::CREATE).unwrap();
        sys.write(fd, b"results").unwrap();
        sys.close(fd).unwrap();
        sys.compute(10_000);
        7
    });
    registry.register("main", |sys| {
        let child = sys.spawn("worker", &[]).expect("spawn works");
        sys.waitpid(child).expect("waitpid works");
        match sys.fork_run(|_child| 0) {
            Err(Errno::ECRASH) => {}
            other => panic!("unexpected fork result: {other:?}"),
        }
        let child = sys.fork_run(|_child| 3).expect("PM recovered");
        sys.waitpid(child).expect("waitpid after recovery");
        0
    });
    registry
}

fn quickstart_cfg() -> OsConfig {
    let mut cfg = OsConfig::with_policy(PolicyKind::Enhanced);
    cfg.trace = TraceConfig::on();
    cfg.axiom = osiris_axiom::AxiomConfig::on();
    // Quickstart samples the virtual-time series and folds counter lanes
    // into its Chrome document; the replay must do the same for the
    // byte-compare to hold.
    cfg.timeseries = osiris_metrics::TimeseriesConfig::on();
    cfg
}

fn main() {
    osiris_kernel::install_quiet_panic_hook();

    // 1. Load and verify the recorded axiom.
    let recorded_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/quickstart/axiom.bin".into());
    let bytes = std::fs::read(&recorded_path)
        .unwrap_or_else(|e| panic!("read recorded axiom {recorded_path}: {e}"));
    let recorded = AxiomLog::from_bytes(&bytes).expect("decode recorded axiom");
    recorded.verify().expect("recorded chain intact");
    println!(
        "recorded:  {} chained events from {recorded_path} (head {:016x})",
        recorded.len(),
        recorded.head_digest()
    );

    // 2. Re-execute the identical workload fresh.
    let mut os = Os::new(quickstart_cfg());
    // The quickstart fault: a single fail-stop crash in PM's fork path.
    let fork_crash = FaultPlan::once(FaultKind::Crash, "pm.fork.validate");
    os.set_fault_hook(Box::new(Injector::new(&fork_crash)));
    let mut host = Host::new(os, quickstart_registry());
    let outcome = host.run("main", &[]);
    let mut os = host.into_engine();
    assert!(outcome.completed(), "replayed workload must complete");
    println!(
        "replayed:  {} chained events re-derived (head {:016x})",
        os.axiom().len(),
        os.axiom().head_digest()
    );

    // 3. Export the fresh run for the ci byte-compare. This happens
    //    before any verification so the metric counters sit exactly where
    //    the recorded run's did at its own export point (quickstart also
    //    exports before verifying).
    let dir = osiris_bench::out_dir(std::env::var_os("OSIRIS_OUT_DIR"), "replay");
    os.write_exports(&dir).expect("write replay exports");
    println!("exports:   {}", dir.display());
    os.verify_axiom().expect("fresh chain intact");

    // 4. The fresh run must re-derive the recorded history exactly.
    if let Some(d) = os.check_replay_divergence(recorded.records()) {
        panic!("replay diverged from the recorded axiom\n{}", d.describe());
    }
    println!("bisect:    no divergence — replay re-derived the recorded history");

    // 5. The pure reduction of the recorded log must equal the live
    //    control state the kernel scheduled by, component liveness included.
    let reduced = reduce(recorded.records());
    assert_eq!(
        &reduced,
        os.control_state(),
        "reduce(recorded) must equal the live control state"
    );
    println!(
        "reduce:    control state reconstructed; {} component statuses cross-checked",
        reduced.comps
    );

    // 6. Simulated reboot persistence: rebuild a machine from the recorded
    //    bytes alone and confirm it adopted the proven history.
    let rebooted = Os::replay(quickstart_cfg(), &bytes).expect("rebuild from recorded axiom");
    assert_eq!(
        rebooted.control_state(),
        &reduced,
        "rebooted machine must adopt the recorded reduction"
    );
    assert_eq!(
        rebooted.axiom().head_digest(),
        recorded.head_digest(),
        "rebooted machine must continue the recorded chain"
    );
    println!(
        "reboot:    Os::replay rebuilt control state from {} bytes (head {:016x})",
        bytes.len(),
        rebooted.axiom().head_digest()
    );
    println!("OK: replay is consistent with the recorded axiom");
}
