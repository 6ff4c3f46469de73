//! Workloads for the OSIRIS evaluation: the coverage-maximizing prototype
//! test suite (paper §VI, "a homegrown set of 89 programs") and analogs of
//! the twelve Unixbench programs used for the performance experiments.
//!
//! Both workloads are written against the neutral [`Sys`] ABI of the
//! process [`Host`], which lives here too, so they run unmodified on the compartmentalized OSIRIS OS
//! (`osiris-servers`) and on the monolithic baseline (`osiris-monolith`).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod host;
pub mod quickstart;
pub mod testsuite;
pub mod unixbench;

pub use testsuite::build_testsuite;
pub use unixbench::{
    default_iters, register_unixbench, run_benchmark, run_benchmark_with, BenchResult, BENCHMARKS,
    CYCLES_PER_SECOND,
};

pub use host::{ForkFn, Host, HostConfig, ProgramFn, ProgramRegistry, Sys};

use osiris_core::PolicyKind;
use osiris_kernel::{OsEngine, RunOutcome};
use osiris_servers::{Os, OsConfig};

/// Runs the full prototype test suite on a freshly booted OSIRIS OS under
/// `policy`, returning the run outcome and the OS for inspection.
pub fn run_suite_on_osiris(policy: PolicyKind) -> (RunOutcome, Os) {
    run_suite_with(OsConfig::with_policy(policy), None)
}

/// Runs the suite with a custom configuration and optional fault hook.
pub fn run_suite_with(
    cfg: OsConfig,
    hook: Option<Box<dyn osiris_kernel::FaultHook>>,
) -> (RunOutcome, Os) {
    osiris_kernel::install_quiet_panic_hook();
    let (registry, _names) = build_testsuite();
    let mut os = Os::new(cfg);
    if let Some(h) = hook {
        os.set_fault_hook(h);
    }
    let mut host = Host::new(os, registry);
    let outcome = host.run("suite", &[]);
    (outcome, host.into_engine())
}

/// Runs the suite on an arbitrary engine (e.g. the monolith).
pub fn run_suite_on<E: OsEngine>(engine: E) -> (RunOutcome, E) {
    osiris_kernel::install_quiet_panic_hook();
    let (registry, _names) = build_testsuite();
    let mut host = Host::new(engine, registry);
    let outcome = host.run("suite", &[]);
    (outcome, host.into_engine())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_passes_on_osiris_enhanced() {
        let (outcome, os) = run_suite_on_osiris(PolicyKind::Enhanced);
        match outcome {
            RunOutcome::Completed { init_code, .. } => {
                assert_eq!(init_code, 0, "failing tests: {}", init_code)
            }
            other => panic!("suite did not complete: {:?}", other),
        }
        assert!(os.audit().is_empty(), "audit: {:?}", os.audit());
    }

    #[test]
    fn suite_passes_on_monolith() {
        let (outcome, _m) = run_suite_on(osiris_monolith::Monolith::new());
        match outcome {
            RunOutcome::Completed { init_code, .. } => assert_eq!(init_code, 0),
            other => panic!("suite did not complete: {:?}", other),
        }
    }
}
