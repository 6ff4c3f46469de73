//! The shutdown-grace extension (paper §VII, "Controlled shutdown"): when
//! consistency cannot be guaranteed and the system must stop, applications
//! get a bounded window to save their state — like Otherworld's
//! crash-survival for applications, scoped to save-class syscalls.

use osiris_core::{EscalationPolicy, PolicyKind, RestartBudget};
use osiris_faults::{FaultKind, FaultPlan, Injector};
use osiris_kernel::abi::{Errno, OpenFlags};
use osiris_kernel::{RunOutcome, ShutdownKind};
use osiris_servers::{Os, OsConfig};
use osiris_workloads::{Host, ProgramRegistry};

/// Program: does some work, hits an unrecoverable crash (PM after its VM
/// send), then — when syscalls start failing with `ESHUTDOWN` — persists
/// its progress into the data store before going down.
fn saving_program(sys: &mut osiris_workloads::Sys) -> i32 {
    sys.ds_put("progress", b"step-1").unwrap();
    // This fork triggers the unrecoverable crash; during the grace window
    // the call is refused with ESHUTDOWN rather than silently dying.
    match sys.fork_run(|_c| 0) {
        Err(Errno::ESHUTDOWN) | Err(Errno::ECRASH) => {}
        Ok(_) | Err(_) => {}
    }
    // Save state while the grace window lasts. DsPut is save-class.
    match sys.ds_put("progress", b"step-2-saved") {
        Ok(()) => 0,
        Err(_) => 1,
    }
}

fn run_with_grace(grace: u32) -> (RunOutcome, Os) {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", saving_program);
    let mut os = Os::new(OsConfig {
        policy: PolicyKind::Enhanced,
        vm_frames: 1024,
        shutdown_grace: grace,
        ..Default::default()
    });
    os.set_fault_hook(Box::new(Injector::new(&FaultPlan::once(
        FaultKind::Crash,
        "pm.fork.vm_sent",
    ))));
    let mut host = Host::new(os, registry);
    let outcome = host.run("main", &[]);
    (outcome, host.into_engine())
}

#[test]
fn without_grace_the_save_is_lost() {
    let (outcome, _os) = run_with_grace(0);
    match outcome {
        RunOutcome::Shutdown(ShutdownKind::Controlled(_)) => {}
        other => panic!("expected immediate controlled shutdown, got {other:?}"),
    }
}

#[test]
fn grace_window_lets_the_application_save() {
    let (outcome, os) = run_with_grace(64);
    // The system still ends in a controlled shutdown…
    match &outcome {
        RunOutcome::Shutdown(ShutdownKind::Controlled(_)) => {}
        // …unless every process finished first, which is also acceptable
        // (all state saved, nothing left to do).
        RunOutcome::Completed { .. } => {}
        other => panic!("expected controlled end, got {other:?}"),
    }
    // …but the save made it into the data store before the end: DS served
    // both the pre-crash put and the grace-window put (plus their writes).
    let ds = os
        .reports()
        .into_iter()
        .find(|r| r.name == "ds")
        .expect("ds exists");
    assert!(ds.messages >= 2, "the grace-window DsPut was served");
    assert!(ds.writes >= 2, "both puts mutated the store");
}

#[test]
fn non_save_syscalls_are_refused_during_grace() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        let _ = sys.ds_put("x", b"1");
        let _ = sys.fork_run(|_c| 0); // triggers the unrecoverable crash
                                      // During grace, a spawn (not save-class) must fail with ESHUTDOWN…
        let spawn_err = sys.spawn("main", &[]).unwrap_err();
        // …while a save-class put still succeeds.
        let save_ok = sys.ds_put("x", b"2").is_ok();
        i32::from(!(spawn_err == Errno::ESHUTDOWN && save_ok))
    });
    let mut os = Os::new(OsConfig {
        policy: PolicyKind::Enhanced,
        vm_frames: 1024,
        shutdown_grace: 64,
        ..Default::default()
    });
    os.set_fault_hook(Box::new(Injector::new(&FaultPlan::once(
        FaultKind::Crash,
        "pm.fork.vm_sent",
    ))));
    let mut host = Host::new(os, registry);
    let outcome = host.run("main", &[]);
    match outcome {
        // init ran to completion with exit 0 (its checks passed) or the
        // budget ran out first (also a controlled end).
        RunOutcome::Completed { init_code, .. } => assert_eq!(init_code, 0),
        RunOutcome::Shutdown(ShutdownKind::Controlled(_)) => {}
        other => panic!("{other:?}"),
    }
}

#[test]
fn grace_budget_is_bounded() {
    // A hostile program that never stops issuing save calls cannot keep the
    // system alive forever: the delivery budget caps the grace window.
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        let _ = sys.fork_run(|_c| 0); // triggers the crash
        let mut i = 0u64;
        loop {
            i += 1;
            if sys.ds_put(&format!("spam{i}"), b"x").is_err() {
                return 0; // the kernel eventually stops serving
            }
            if i > 10_000 {
                return 1; // unbounded grace: bug
            }
        }
    });
    let mut os = Os::new(OsConfig {
        policy: PolicyKind::Enhanced,
        vm_frames: 1024,
        shutdown_grace: 32,
        ..Default::default()
    });
    os.set_fault_hook(Box::new(Injector::new(&FaultPlan::once(
        FaultKind::Crash,
        "pm.fork.vm_sent",
    ))));
    let mut host = Host::new(os, registry);
    let outcome = host.run("main", &[]);
    match outcome {
        RunOutcome::Shutdown(ShutdownKind::Controlled(_))
        | RunOutcome::Completed { init_code: 0, .. } => {}
        other => panic!("grace must be bounded: {other:?}"),
    }
}

/// A shutdown the escalation ladder decides (a zero restart budget and no
/// quarantine slot) ends the conduct exactly like one the policy decides:
/// the request that crashed is answered with `ESHUTDOWN`, and the grace
/// window serves the save that follows.
#[test]
fn ladder_decided_shutdown_answers_the_crashed_request_and_serves_the_save() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        sys.ds_put("progress", b"step-1").unwrap();
        let Ok(fd) = sys.open("/tmp/work", OpenFlags::RDWR_CREATE) else {
            return 10;
        };
        // The read crashes VFS, and the ladder shuts the machine down.
        if sys.read(fd, 32) != Err(Errno::ESHUTDOWN) {
            return 11;
        }
        match sys.ds_put("progress", b"step-2-saved") {
            Ok(()) => 0,
            Err(_) => 12,
        }
    });
    let mut os = Os::new(OsConfig {
        policy: PolicyKind::Enhanced,
        vm_frames: 1024,
        shutdown_grace: 64,
        escalation: EscalationPolicy {
            budget: RestartBudget {
                max_restarts: 0,
                ..RestartBudget::default()
            },
            max_quarantined: 0,
            ..EscalationPolicy::default()
        },
        ..Default::default()
    });
    os.set_fault_hook(Box::new(Injector::new(&FaultPlan::once(
        FaultKind::Crash,
        "vfs.read.entry",
    ))));
    let mut host = Host::new(os, registry);
    let outcome = host.run("main", &[]);
    let os = host.into_engine();
    match &outcome {
        RunOutcome::Completed { init_code: 0, .. } => {}
        RunOutcome::Shutdown(ShutdownKind::Controlled(reason)) => {
            assert!(reason.starts_with("escalation"), "{reason}")
        }
        other => panic!("expected a controlled end, got {other:?}"),
    }
    assert!(
        os.kernel().control_state().recovering.is_none(),
        "the shutdown ended the conduct"
    );
    let ds = os.reports().into_iter().find(|r| r.name == "ds").unwrap();
    assert!(
        ds.messages >= 2 && ds.writes >= 2,
        "the grace-window DsPut was served: {outcome:?}"
    );
}
