//! Tests for the paper's §VII extensibility demonstration: requester-scoped
//! SEEPs reconciled by killing the requester.
//!
//! The exit path is the canonical case: while PM processes `exit`, the
//! `VmFreeSelf`/`VfsCleanupSelf` notifications change only state scoped to
//! the exiting (requesting) process. Under the plain enhanced policy those
//! sends close the recovery window, so a crash right after them forces a
//! controlled shutdown. Under `EnhancedKill` the window stays open: the
//! crash is reconciled by rolling PM back and killing the requester, whose
//! kill path re-runs the cleanup — globally consistent, no shutdown.

use osiris_core::PolicyKind;
use osiris_faults::{FaultKind, FaultPlan, Injector};
use osiris_kernel::{RunOutcome, ShutdownKind};
use osiris_servers::{Os, OsConfig};
use osiris_workloads::{Host, ProgramRegistry};

fn run_exit_crash(policy: PolicyKind) -> (RunOutcome, Os) {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        // The child exits; PM crashes mid-exit (after the scoped resource
        // releases). Under EnhancedKill the system recovers and the parent
        // can still reap the child.
        let child = sys.fork_run(|_c| 5).expect("fork works");
        match sys.waitpid(child) {
            Ok(_) => 0,
            Err(_) => 1,
        }
    });
    let mut os = Os::new(OsConfig::with_policy(policy));
    os.set_fault_hook(Box::new(Injector::new(&FaultPlan::once(
        FaultKind::Crash,
        "pm.term.released",
    ))));
    let mut host = Host::new(os, registry);
    let outcome = host.run("main", &[]);
    (outcome, host.into_engine())
}

#[test]
fn enhanced_shuts_down_on_exit_path_crash() {
    let (outcome, _) = run_exit_crash(PolicyKind::Enhanced);
    assert!(
        matches!(outcome, RunOutcome::Shutdown(ShutdownKind::Controlled(_))),
        "plain enhanced must refuse recovery after the scoped sends: {outcome:?}"
    );
}

#[test]
fn enhanced_kill_recovers_by_killing_the_requester() {
    let (outcome, os) = run_exit_crash(PolicyKind::EnhancedKill);
    match &outcome {
        RunOutcome::Completed { init_code, .. } => {
            // The child was killed (rather than exiting cleanly), so the
            // parent reaps -9 — but the system survived and stayed
            // consistent.
            assert_eq!(*init_code, 0, "parent must still reap the child");
        }
        other => panic!("enhanced-kill should survive: {other:?}"),
    }
    assert_eq!(os.metrics().recovered_rollback, 1, "one rollback recovery");
    assert!(os.audit().is_empty(), "audit: {:?}", os.audit());
}

#[test]
fn enhanced_kill_behaves_like_enhanced_elsewhere() {
    // A crash before any send still recovers by error virtualization.
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| match sys.fork_run(|_c| 0) {
        Err(osiris_kernel::abi::Errno::ECRASH) => 0,
        other => {
            let _ = other;
            1
        }
    });
    let mut os = Os::new(OsConfig::with_policy(PolicyKind::EnhancedKill));
    os.set_fault_hook(Box::new(Injector::new(&FaultPlan::once(
        FaultKind::Crash,
        "pm.fork.validate",
    ))));
    let mut host = Host::new(os, registry);
    let outcome = host.run("main", &[]);
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "{outcome:?}"
    );
}

#[test]
fn suite_green_under_enhanced_kill_without_faults() {
    osiris_kernel::install_quiet_panic_hook();
    let (registry, _) = osiris_workloads::build_testsuite();
    let os = Os::new(OsConfig::with_policy(PolicyKind::EnhancedKill));
    let mut host = Host::new(os, registry);
    let outcome = host.run("suite", &[]);
    match outcome {
        RunOutcome::Completed { init_code, .. } => assert_eq!(init_code, 0),
        other => panic!("suite failed under enhanced-kill: {other:?}"),
    }
    assert!(host.engine().audit().is_empty());
}
