//! Host-level behaviours: run limits, hang detection, kill events,
//! teardown, and who holds the run token when. A trivial engine suffices.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use osiris_kernel::abi::{Pid, Signal, SysReply, Syscall};
use osiris_kernel::{OsEngine, RunOutcome, ShutdownKind, SyscallId};
use osiris_workloads::{Host, HostConfig, ProgramRegistry};

/// What [`BlackHole`] does with a `sleep`.
#[derive(Default, PartialEq)]
enum OnSleep {
    #[default]
    Swallow,
    ShutDown,
    PanicInPump,
}

/// An engine that answers `getpid`, `fork` and `kill` and swallows
/// everything else (so any other call blocks forever) — a deliberately
/// broken OS for limit tests. It logs the thread and, for submits, the
/// process behind every `submit` and `pump`.
#[derive(Default)]
struct BlackHole {
    replies: Vec<(SyscallId, Pid, SysReply)>,
    kills: Vec<Pid>,
    forks: u32,
    now: u64,
    on_sleep: OnSleep,
    slept: bool,
    calls: Vec<(ThreadId, Option<Pid>)>,
}

impl OsEngine for BlackHole {
    fn submit(&mut self, sid: SyscallId, pid: Pid, call: Syscall) {
        self.now += 100;
        self.calls.push((std::thread::current().id(), Some(pid)));
        match call {
            Syscall::GetPid => self.replies.push((sid, pid, SysReply::Proc(pid))),
            Syscall::Fork => {
                self.forks += 1;
                let child = SysReply::Proc(Pid(1 + self.forks));
                self.replies.push((sid, pid, child));
            }
            Syscall::Kill { pid: victim, .. } => {
                self.kills.push(victim);
                self.replies.push((sid, pid, SysReply::Ok));
            }
            Syscall::Sleep { .. } => self.slept = true,
            _ => {} // swallowed: the caller blocks forever
        }
    }
    fn pump(&mut self) -> Vec<(SyscallId, Pid, SysReply)> {
        self.calls.push((std::thread::current().id(), None));
        assert!(
            !(self.slept && self.on_sleep == OnSleep::PanicInPump),
            "pump blew up"
        );
        std::mem::take(&mut self.replies)
    }
    fn take_kill_events(&mut self) -> Vec<Pid> {
        std::mem::take(&mut self.kills)
    }
    fn fire_next_timer(&mut self) -> bool {
        false
    }
    fn shutdown_state(&self) -> Option<ShutdownKind> {
        (self.slept && self.on_sleep == OnSleep::ShutDown)
            .then(|| ShutdownKind::Controlled("slept".into()))
    }
    fn now(&self) -> u64 {
        self.now
    }
    fn charge_user(&mut self, units: u64) {
        self.now += units;
    }
}

/// An engine that answers every sleep with `ECRASH` — a server stuck in a
/// permanent crash loop (or quarantined) from the caller's point of view.
#[derive(Default)]
struct AlwaysCrashed {
    replies: Vec<(SyscallId, Pid, SysReply)>,
    sleep_submissions: u32,
    now: u64,
}

impl OsEngine for AlwaysCrashed {
    fn submit(&mut self, sid: SyscallId, pid: Pid, call: Syscall) {
        self.now += 100;
        match call {
            Syscall::GetPid => self.replies.push((sid, pid, SysReply::Proc(pid))),
            Syscall::Sleep { .. } => {
                self.sleep_submissions += 1;
                self.replies
                    .push((sid, pid, SysReply::Err(osiris_kernel::abi::Errno::ECRASH)));
            }
            _ => {}
        }
    }
    fn pump(&mut self) -> Vec<(SyscallId, Pid, SysReply)> {
        std::mem::take(&mut self.replies)
    }
    fn take_kill_events(&mut self) -> Vec<Pid> {
        Vec::new()
    }
    fn fire_next_timer(&mut self) -> bool {
        false
    }
    fn shutdown_state(&self) -> Option<ShutdownKind> {
        None
    }
    fn now(&self) -> u64 {
        self.now
    }
    fn charge_user(&mut self, units: u64) {
        self.now += units;
    }
}

#[test]
fn transparent_ecrash_retry_is_bounded_by_the_budget() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        sys.set_retry_ecrash(true);
        // A server that never stops crashing must surface ECRASH to the
        // program after the per-call budget, not livelock the run.
        match sys.sleep(5) {
            Err(osiris_kernel::abi::Errno::ECRASH) => 0,
            other => panic!("expected budgeted ECRASH, got {other:?}"),
        }
    });
    let host_cfg = HostConfig {
        ecrash_retry_budget: 6,
        ecrash_backoff_base: 10,
        ecrash_backoff_max: 40,
        ..Default::default()
    };
    let mut host = Host::new(AlwaysCrashed::default(), registry).with_config(host_cfg);
    let outcome = host.run("main", &[]);
    let engine = host.into_engine();
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "{outcome:?}"
    );
    assert_eq!(
        engine.sleep_submissions, 6,
        "exactly budget-many attempts reach the engine"
    );
    // Retries 2..=5 back off for 10, 20, 40 (cap), 40 compute units, on top
    // of 100 cycles charged per submission: the retry loop advances virtual
    // time instead of spinning.
    assert!(engine.now >= 6 * 100 + 110, "t={}", engine.now);
}

#[test]
fn ecrash_surfaces_immediately_without_opt_in() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| match sys.sleep(5) {
        Err(osiris_kernel::abi::Errno::ECRASH) => 0,
        other => panic!("expected raw ECRASH, got {other:?}"),
    });
    let mut host = Host::new(AlwaysCrashed::default(), registry);
    let outcome = host.run("main", &[]);
    let engine = host.into_engine();
    assert!(matches!(
        outcome,
        RunOutcome::Completed { init_code: 0, .. }
    ));
    assert_eq!(engine.sleep_submissions, 1, "no transparent retry");
}

#[test]
fn swallowed_syscall_is_detected_as_hang() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        let _ = sys.getpid();
        let _ = sys.sleep(10); // swallowed: never answered
        0
    });
    let mut host = Host::new(BlackHole::default(), registry);
    match host.run("main", &[]) {
        RunOutcome::Hang(reason) => assert!(reason.contains("blocked"), "{reason}"),
        other => panic!("expected hang, got {other:?}"),
    }
}

#[test]
fn virtual_time_limit_aborts_runaway_runs() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| loop {
        sys.compute(1_000_000);
        if sys.getpid().is_err() {
            return 1;
        }
    });
    let host_cfg = HostConfig {
        max_virtual_time: 5_000_000,
        ..Default::default()
    };
    let mut host = Host::new(BlackHole::default(), registry).with_config(host_cfg);
    match host.run("main", &[]) {
        RunOutcome::Hang(reason) => assert!(reason.contains("time limit"), "{reason}"),
        other => panic!("expected time-limit abort, got {other:?}"),
    }
}

#[test]
fn clean_exit_reports_codes() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        assert_eq!(sys.getpid().unwrap(), Pid(1));
        42
    });
    let mut host = Host::new(BlackHole::default(), registry);
    match host.run("main", &[]) {
        RunOutcome::Completed {
            init_code,
            exit_codes,
        } => {
            assert_eq!(init_code, 42);
            assert_eq!(exit_codes.get(&1), Some(&42));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn program_panic_becomes_exit_code_101() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        let _ = sys.getpid();
        panic!("program bug");
    });
    let mut host = Host::new(BlackHole::default(), registry);
    match host.run("main", &[]) {
        RunOutcome::Completed { init_code, .. } => assert_eq!(init_code, 101),
        other => panic!("{other:?}"),
    }
}

#[test]
fn sys_exit_terminates_immediately() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        sys.exit(7);
    });
    let mut host = Host::new(BlackHole::default(), registry);
    match host.run("main", &[]) {
        RunOutcome::Completed { init_code, .. } => assert_eq!(init_code, 7),
        other => panic!("{other:?}"),
    }
}

#[test]
fn a_lone_process_makes_its_own_engine_calls() {
    osiris_kernel::install_quiet_panic_hook();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut registry = ProgramRegistry::new();
    let log = Arc::clone(&seen);
    registry.register("main", move |sys| {
        for _ in 0..100 {
            let before = std::thread::current().id();
            sys.getpid().unwrap();
            log.lock()
                .unwrap()
                .push((before, std::thread::current().id()));
        }
        0
    });
    let mut host = Host::new(BlackHole::default(), registry);
    assert!(host.run("main", &[]).completed());
    // Nobody but the process touches the engine: the first dispatch (one
    // pump), 100 getpids and the exit are submitted and pumped by the thread
    // the program runs on (the caller's: init gets no thread of its own).
    let seen = seen.lock().unwrap();
    let program = seen[0].0;
    assert!(seen.iter().all(|&ids| ids == (program, program)));
    let calls = &host.engine().calls;
    assert_eq!(calls.len(), 1 + 2 * 101);
    assert!(calls.iter().all(|&(thread, _)| thread == program));
    assert_eq!(program, std::thread::current().id());
}

/// Sets its flag when dropped: tells that a parked thread was unwound.
struct Released(Arc<AtomicBool>);

impl Drop for Released {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn a_child_parked_in_a_swallowed_call_is_released_when_the_run_ends() {
    osiris_kernel::install_quiet_panic_hook();
    for on_sleep in [OnSleep::Swallow, OnSleep::ShutDown] {
        let released = Arc::new(AtomicBool::new(false));
        let mut registry = ProgramRegistry::new();
        let flag = Arc::clone(&released);
        registry.register("main", move |sys| {
            let flag = Released(Arc::clone(&flag));
            sys.fork_run(move |c| {
                let _flag = flag;
                let _ = c.read(osiris_kernel::abi::Fd(0), 1); // swallowed
                0
            })
            .unwrap();
            let _ = sys.sleep(10); // swallowed, or the OS goes down
            0
        });
        let engine = BlackHole {
            on_sleep,
            ..Default::default()
        };
        // `run` returning at all means every process thread was joined.
        match Host::new(engine, registry).run("main", &[]) {
            RunOutcome::Hang(reason) => assert!(reason.starts_with("2 live"), "{reason}"),
            RunOutcome::Shutdown(kind) => assert!(kind.is_controlled()),
            other => panic!("{other:?}"),
        }
        assert!(released.load(Ordering::SeqCst));
    }
}

#[test]
fn killing_a_blocked_process_costs_no_further_engine_call() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        let child = sys
            .fork_run(|c| {
                let _ = c.read(osiris_kernel::abi::Fd(0), 1); // swallowed
                0
            })
            .unwrap();
        sys.getpid().unwrap(); // the child runs and blocks meanwhile
        sys.kill(child, Signal::SigKill).unwrap();
        0
    });
    let mut host = Host::new(BlackHole::default(), registry);
    match host.run("main", &[]) {
        RunOutcome::Completed { exit_codes, .. } => {
            assert_eq!(exit_codes, [(1, 0), (2, -9)].into());
        }
        other => panic!("{other:?}"),
    }
    // The victim's one submit is its `read`: no exit, nothing after the kill.
    let by_victim = |&&(_, pid): &&(ThreadId, Option<Pid>)| pid == Some(Pid(2));
    assert_eq!(host.engine().calls.iter().filter(by_victim).count(), 1);
}

#[test]
#[should_panic(expected = "pump blew up")]
fn an_engine_panic_under_the_token_is_the_panic_of_run() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        sys.fork_run(|c| {
            // The parent is parked when this makes `pump` panic.
            let _ = c.sleep(1);
            0
        })
        .unwrap();
        let _ = sys.read(osiris_kernel::abi::Fd(0), 1); // swallowed
        0
    });
    let engine = BlackHole {
        on_sleep: OnSleep::PanicInPump,
        ..Default::default()
    };
    Host::new(engine, registry).run("main", &[]);
}
