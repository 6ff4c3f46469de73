//! The quickstart scenario, defined once: two programs, the configuration
//! they run under, and the one fault that crashes PM in the middle of a
//! `fork`. The `quickstart` example runs it to show a recovery;
//! `osiris-inspect replay` runs it again and must re-derive the axiom the
//! example recorded.

use osiris_core::PolicyKind;
use osiris_faults::{FaultKind, FaultPlan, Injector};
use osiris_kernel::abi::{Errno, OpenFlags};
use osiris_kernel::RunOutcome;
use osiris_servers::{AxiomConfig, Os, OsConfig, TimeseriesConfig, TraceConfig};

use crate::{Host, ProgramRegistry};

/// What `main` checks, in order. It exits 0 when every step held, else
/// with the 1-based number of the first that did not.
pub const STEPS: [&str; 5] = [
    "spawn the worker",
    "the worker writes a file, computes and exits 7",
    "the first fork fails with E_CRASH while PM is recovered",
    "the second fork succeeds on the recovered PM",
    "its child exits 3",
];

/// The two programs: `main`, which walks [`STEPS`], and `worker`.
pub fn registry() -> ProgramRegistry {
    let mut registry = ProgramRegistry::new();
    registry.register("worker", |sys| {
        let Ok(fd) = sys.open("/tmp/out", OpenFlags::CREATE) else {
            return 1;
        };
        let wrote = sys.write(fd, b"results").is_ok();
        let closed = sys.close(fd).is_ok();
        sys.compute(10_000);
        if wrote && closed {
            7
        } else {
            1
        }
    });
    registry.register("main", |sys| {
        let Ok(worker) = sys.spawn("worker", &[]) else {
            return 1;
        };
        if sys.waitpid(worker) != Ok(7) {
            return 2;
        }
        if sys.fork_run(|_child| 0) != Err(Errno::ECRASH) {
            return 3;
        }
        let Ok(child) = sys.fork_run(|_child| 3) else {
            return 4;
        };
        if sys.waitpid(child) != Ok(3) {
            return 5;
        }
        0
    });
    registry
}

/// The Enhanced policy with the trace, the axiom and the virtual-time
/// sampler on, so the run writes every export.
pub fn config() -> OsConfig {
    OsConfig {
        trace: TraceConfig::on(),
        axiom: AxiomConfig::on(),
        timeseries: TimeseriesConfig::on(),
        ..OsConfig::with_policy(PolicyKind::Enhanced)
    }
}

/// Boots [`config`] with the scenario's one fault armed, a fail-stop crash
/// the first time PM validates a fork, and runs `main` to the end.
pub fn run() -> (RunOutcome, Os) {
    osiris_kernel::install_quiet_panic_hook();
    let mut os = Os::new(config());
    let fork_crash = FaultPlan::once(FaultKind::Crash, "pm.fork.validate");
    os.set_fault_hook(Box::new(Injector::new(&fork_crash)));
    let mut host = Host::new(os, registry());
    let outcome = host.run("main", &[]);
    (outcome, host.into_engine())
}
