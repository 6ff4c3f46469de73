//! The recovery matrix: crash every server at representative sites, inside
//! and outside recovery windows, under each policy — asserting the exact
//! recovery semantics the paper defines for every cell.

use osiris_core::PolicyKind;
use osiris_faults::{FaultKind, FaultPlan, Injector};
use osiris_kernel::abi::{Errno, OpenFlags};
use osiris_kernel::{FaultEffect, FaultHook, Probe, RunOutcome, ShutdownKind};
use osiris_servers::{Os, OsConfig};
use osiris_workloads::{Host, ProgramRegistry};

/// Expected outcome of one matrix cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expect {
    /// Rollback + E_CRASH; workload observes the error and continues.
    Recovered,
    /// Controlled shutdown (window closed or no reply possible).
    Shutdown,
}

fn run_cell(policy: PolicyKind, site: &'static str, prog: &'static str) -> (RunOutcome, Os) {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("leaf", |_sys| 0);
    // Each driver issues the syscall that reaches `site`, tolerates ECRASH,
    // then re-issues it to prove the server recovered.
    registry.register("drive_fork", |sys| {
        for _ in 0..2 {
            if let Ok(child) = sys.fork_run(|_c| 0) {
                if sys.waitpid(child).is_err() {
                    return 1;
                }
            }
        }
        0
    });
    registry.register("drive_spawn", |sys| {
        for _ in 0..2 {
            if let Ok(child) = sys.spawn("leaf", &[]) {
                if sys.waitpid(child).is_err() {
                    return 1;
                }
            }
        }
        0
    });
    registry.register("drive_open", |sys| {
        for i in 0..2 {
            let path = format!("/tmp/mx{i}");
            if let Ok(fd) = sys.open(&path, OpenFlags::CREATE) {
                if sys.close(fd).is_err() {
                    return 1;
                }
            }
        }
        0
    });
    registry.register("drive_brk", |sys| {
        for _ in 0..2 {
            let _ = sys.brk(4);
        }
        0
    });
    registry.register("drive_ds", |sys| {
        for i in 0..2 {
            let _ = sys.ds_put(&format!("k{i}"), b"v");
        }
        0
    });

    let mut os = Os::new(OsConfig {
        policy,
        vm_frames: 1024,
        ..Default::default()
    });
    os.set_fault_hook(Box::new(Injector::new(&FaultPlan::once(
        FaultKind::Crash,
        site,
    ))));
    let mut host = Host::new(os, registry);
    let outcome = host.run(prog, &[]);
    (outcome, host.into_engine())
}

fn assert_cell(policy: PolicyKind, site: &'static str, prog: &'static str, expect: Expect) {
    let (outcome, os) = run_cell(policy, site, prog);
    match expect {
        Expect::Recovered => {
            assert!(
                matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
                "[{policy} @ {site}] expected recovery, got {outcome:?}"
            );
            assert!(
                os.metrics().recovered_rollback >= 1,
                "[{policy} @ {site}] no rollback recovery recorded"
            );
            assert!(
                os.audit().is_empty(),
                "[{policy} @ {site}] audit violations: {:?}",
                os.audit()
            );
        }
        Expect::Shutdown => {
            assert!(
                matches!(outcome, RunOutcome::Shutdown(ShutdownKind::Controlled(_))),
                "[{policy} @ {site}] expected controlled shutdown, got {outcome:?}"
            );
        }
    }
}

// ---------------- PM ----------------

#[test]
fn pm_fork_entry_recovers_under_both_osiris_policies() {
    // fork's first sites run before any send: recoverable under both.
    for policy in [PolicyKind::Pessimistic, PolicyKind::Enhanced] {
        assert_cell(policy, "pm.fork.entry", "drive_fork", Expect::Recovered);
        assert_cell(policy, "pm.fork.validate", "drive_fork", Expect::Recovered);
    }
}

#[test]
fn pm_fork_after_vm_send_shuts_down_under_both() {
    for policy in [PolicyKind::Pessimistic, PolicyKind::Enhanced] {
        assert_cell(policy, "pm.fork.vm_sent", "drive_fork", Expect::Shutdown);
    }
}

#[test]
fn pm_spawn_phase1_distinguishes_the_policies() {
    // After the read-only VfsExecLoad send: enhanced still recovers,
    // pessimistic has already closed its window.
    assert_cell(
        PolicyKind::Enhanced,
        "pm.spawn.load_sent",
        "drive_spawn",
        Expect::Recovered,
    );
    assert_cell(
        PolicyKind::Pessimistic,
        "pm.spawn.load_sent",
        "drive_spawn",
        Expect::Shutdown,
    );
}

#[test]
fn pm_spawn_continuation_phases_shut_down() {
    // Crashes while processing the async replies (phases 2/3) cannot be
    // error-virtualized: the last received message is not a request.
    for site in ["pm.spawn.loaded", "pm.spawn.commit", "pm.cont.entry"] {
        assert_cell(PolicyKind::Enhanced, site, "drive_spawn", Expect::Shutdown);
    }
}

#[test]
fn pm_post_reply_bookkeeping_shuts_down() {
    assert_cell(
        PolicyKind::Enhanced,
        "pm.post.account",
        "drive_fork",
        Expect::Shutdown,
    );
}

// ---------------- VM ----------------

#[test]
fn vm_user_call_sites_recover() {
    for policy in [PolicyKind::Pessimistic, PolicyKind::Enhanced] {
        assert_cell(policy, "vm.brk.entry", "drive_brk", Expect::Recovered);
        assert_cell(policy, "vm.brk.validate", "drive_brk", Expect::Recovered);
    }
}

#[test]
fn vm_mid_allocation_crash_rolls_back_cleanly() {
    // The torn-transaction site: rollback must leave frame accounting
    // balanced (the audit inside assert_cell checks it).
    assert_cell(
        PolicyKind::Enhanced,
        "vm.alloc.frame",
        "drive_brk",
        Expect::Recovered,
    );
}

// ---------------- VFS ----------------

#[test]
fn vfs_open_sites_recover() {
    for policy in [PolicyKind::Pessimistic, PolicyKind::Enhanced] {
        assert_cell(policy, "vfs.open.entry", "drive_open", Expect::Recovered);
    }
}

// ---------------- DS ----------------

#[test]
fn ds_put_after_announce_distinguishes_the_policies() {
    assert_cell(
        PolicyKind::Enhanced,
        "ds.put.commit",
        "drive_ds",
        Expect::Recovered,
    );
    assert_cell(
        PolicyKind::Pessimistic,
        "ds.put.commit",
        "drive_ds",
        Expect::Shutdown,
    );
}

#[test]
fn ds_entry_recovers_under_both() {
    // Before the announce send even pessimistic still has its window open.
    for policy in [PolicyKind::Pessimistic, PolicyKind::Enhanced] {
        assert_cell(policy, "ds.put.entry", "drive_ds", Expect::Recovered);
    }
}

// ---------------- rollback exactness ----------------

#[test]
fn recovery_restores_state_exactly() {
    // Put a key, then crash DS mid-put of a second key: after recovery the
    // first key must be intact and the second absent.
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        sys.ds_put("stable", b"before").unwrap();
        match sys.ds_put("victim", b"lost") {
            Err(Errno::ECRASH) => {}
            other => panic!("expected ECRASH, got {other:?}"),
        }
        assert_eq!(
            sys.ds_get("stable").unwrap(),
            b"before",
            "pre-crash state survives"
        );
        assert_eq!(
            sys.ds_get("victim").unwrap_err(),
            Errno::ENOKEY,
            "crashed put rolled back"
        );
        sys.ds_put("victim", b"second try").unwrap();
        0
    });
    let mut os = Os::new(OsConfig {
        vm_frames: 1024,
        ..Default::default()
    });
    struct SecondPut {
        puts_seen: u32,
    }
    impl FaultHook for SecondPut {
        fn on_site(&mut self, probe: &Probe) -> FaultEffect {
            if probe.site == "ds.put.commit" {
                self.puts_seen += 1;
                if self.puts_seen == 2 {
                    return FaultEffect::Panic;
                }
            }
            FaultEffect::None
        }
    }
    os.set_fault_hook(Box::new(SecondPut { puts_seen: 0 }));
    let mut host = Host::new(os, registry);
    let outcome = host.run("main", &[]);
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "{outcome:?}"
    );
}

// ---------------- baselines for contrast ----------------

#[test]
fn naive_never_shuts_down_but_leaves_torn_state() {
    let (outcome, os) = run_cell(PolicyKind::Naive, "vm.alloc.frame", "drive_brk");
    assert!(outcome.completed(), "naive always limps on: {outcome:?}");
    assert!(
        !os.audit().is_empty(),
        "the half-applied frame allocation must be visible to the audit"
    );
}

#[test]
fn stateless_loses_earlier_state() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        sys.ds_put("persisted", b"v").unwrap();
        let _ = sys.ds_put("trigger", b"x"); // crashes; DS restarts fresh
        i32::from(sys.ds_get("persisted").is_ok()) // 1 => state survived (bad)
    });
    let mut os = Os::new(OsConfig {
        policy: PolicyKind::Stateless,
        vm_frames: 1024,
        ..Default::default()
    });
    struct SecondPut(u32);
    impl FaultHook for SecondPut {
        fn on_site(&mut self, probe: &Probe) -> FaultEffect {
            if probe.site == "ds.put.commit" {
                self.0 += 1;
                if self.0 == 2 {
                    return FaultEffect::Panic;
                }
            }
            FaultEffect::None
        }
    }
    os.set_fault_hook(Box::new(SecondPut(0)));
    let mut host = Host::new(os, registry);
    let outcome = host.run("main", &[]);
    match outcome {
        RunOutcome::Completed { init_code, .. } => {
            assert_eq!(
                init_code, 0,
                "stateless restart must have wiped the earlier key"
            )
        }
        other => panic!("{other:?}"),
    }
}
