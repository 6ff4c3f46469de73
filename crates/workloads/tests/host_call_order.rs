//! Oracle for the process host: the exact sequence of calls `Host::run`
//! makes into its engine, for one program that exercises every scheduling
//! path (fork, blocking pipe hand-offs, sleep, spawn, kill of a blocked
//! child, `wait_any`), folded into one digest.
//!
//! The digest was recorded before the host was rewritten; a host that
//! changes it has changed what the OS sees, and with it every export.

use std::cell::Cell;
use std::collections::BTreeMap;

use osiris_kernel::abi::{Pid, Signal, SysReply, Syscall};
use osiris_kernel::{OsEngine, RunOutcome, ShutdownKind, SyscallId};
use osiris_servers::{Os, OsConfig};
use osiris_workloads::{Host, ProgramRegistry};

/// Logs every engine call, with what it was given and what it answered.
struct Logged {
    os: Os,
    digest: Cell<u64>,
    calls: Cell<u64>,
}

impl Logged {
    fn fold(&self, call: std::fmt::Arguments<'_>) {
        let mut d = self.digest.get();
        for b in call.to_string().bytes() {
            d = (d ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.digest.set(d);
        self.calls.set(self.calls.get() + 1);
    }
}

impl OsEngine for Logged {
    fn submit(&mut self, sid: SyscallId, pid: Pid, call: Syscall) {
        self.fold(format_args!("submit {sid:?} {pid:?} {call:?}"));
        self.os.submit(sid, pid, call);
    }
    fn pump(&mut self) -> Vec<(SyscallId, Pid, SysReply)> {
        let replies = self.os.pump();
        self.fold(format_args!("pump {replies:?}"));
        replies
    }
    fn take_kill_events(&mut self) -> Vec<Pid> {
        let kills = self.os.take_kill_events();
        self.fold(format_args!("kills {kills:?}"));
        kills
    }
    fn fire_next_timer(&mut self) -> bool {
        let fired = self.os.fire_next_timer();
        self.fold(format_args!("timer {fired}"));
        fired
    }
    fn shutdown_state(&self) -> Option<ShutdownKind> {
        let state = self.os.shutdown_state();
        self.fold(format_args!("shutdown {state:?}"));
        state
    }
    fn now(&self) -> u64 {
        let now = self.os.now();
        self.fold(format_args!("now {now}"));
        now
    }
    fn charge_user(&mut self, units: u64) {
        self.fold(format_args!("charge {units}"));
        self.os.charge_user(units);
    }
}

fn registry() -> ProgramRegistry {
    let mut registry = ProgramRegistry::new();
    registry.register("leaf", |sys| {
        sys.compute(500);
        let me = sys.getpid().expect("getpid");
        4 + i32::from(sys.args() != ["x"] || me != sys.pid())
    });
    registry.register("main", |sys| {
        let (r1, w1) = sys.pipe().expect("pipe");
        let (r2, w2) = sys.pipe().expect("pipe");
        let ponger = sys
            .fork_run(move |c| {
                for _ in 0..3 {
                    let byte = c.read(r1, 1).expect("ping");
                    c.compute(40);
                    c.write(w2, &byte).expect("pong");
                }
                11
            })
            .expect("fork ponger");
        for i in 0..3u8 {
            sys.write(w1, &[i]).expect("ping");
            assert_eq!(sys.read(r2, 1).expect("pong"), [i]);
        }
        sys.sleep(500).expect("sleep");
        let leaf = sys.spawn("leaf", &["x"]).expect("spawn");
        let (r3, _w3) = sys.pipe().expect("pipe");
        let reader = sys
            .fork_run(move |c| {
                // Nobody writes: blocked until killed.
                let _ = c.read(r3, 1);
                99
            })
            .expect("fork reader");
        sys.sleep(200).expect("sleep");
        sys.kill(reader, Signal::SigKill).expect("kill");
        let mut codes = BTreeMap::new();
        for _ in 0..3 {
            let (pid, code) = sys.wait_any().expect("wait_any");
            codes.insert(pid, code);
        }
        let want = BTreeMap::from([(ponger, 11), (leaf, 4), (reader, -9)]);
        i32::from(codes != want)
    });
    registry
}

#[test]
fn host_makes_the_recorded_engine_calls_in_the_recorded_order() {
    osiris_kernel::install_quiet_panic_hook();
    let engine = Logged {
        os: Os::new(OsConfig::default()),
        digest: Cell::new(0xcbf2_9ce4_8422_2325),
        calls: Cell::new(0),
    };
    let mut host = Host::new(engine, registry());
    let outcome = host.run("main", &[]);
    let engine = host.into_engine();
    match outcome {
        RunOutcome::Completed {
            init_code,
            exit_codes,
        } => {
            assert_eq!(init_code, 0);
            assert_eq!(exit_codes.into_values().collect::<Vec<_>>(), [0, 11, 4, -9]);
        }
        other => panic!("{other:?}"),
    }
    let got = (
        engine.digest.get(),
        engine.calls.get(),
        engine.os.now(),
        engine.os.metrics().ipc_delivered,
    );
    // (digest, engine calls, virtual time, messages delivered), recorded
    // with the scheduler-thread host of PR 20.
    assert_eq!(got, (0x5d98_f04b_513b_f381, 177, 46_498, 58));
}
