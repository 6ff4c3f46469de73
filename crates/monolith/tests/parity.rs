//! ABI parity: the same workload programs must behave identically on the
//! monolith and would on the microkernel OS (semantics, not timing).

use osiris_kernel::abi::{Errno, OpenFlags, SeekFrom, Signal};
use osiris_kernel::{OsEngine, RunOutcome};
use osiris_monolith::Monolith;
use osiris_workloads::{Host, ProgramRegistry};

fn run<F>(prog: F) -> (RunOutcome, Monolith)
where
    F: Fn(&mut osiris_workloads::Sys) -> i32 + Send + Sync + 'static,
{
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", prog);
    registry.register("child_ok", |_sys| 7);
    let mut host = Host::new(Monolith::new(), registry);
    let outcome = host.run("main", &[]);
    (outcome, host.into_engine())
}

fn expect_zero(outcome: &RunOutcome) {
    match outcome {
        RunOutcome::Completed { init_code: 0, .. } => {}
        other => panic!("expected clean completion, got {:?}", other),
    }
}

#[test]
fn process_lifecycle() {
    let (o, _) = run(|sys| {
        let child = sys.spawn("child_ok", &[]).unwrap();
        assert_eq!(sys.waitpid(child).unwrap(), 7);
        let c2 = sys.fork_run(|_c| 9).unwrap();
        let (p, code) = sys.wait_any().unwrap();
        assert_eq!((p, code), (c2, 9));
        assert_eq!(sys.wait_any().unwrap_err(), Errno::ECHILD);
        0
    });
    expect_zero(&o);
}

#[test]
fn files_and_dirs() {
    let (o, _) = run(|sys| {
        sys.mkdir("/tmp/x").unwrap();
        let fd = sys.open("/tmp/x/f", OpenFlags::CREATE).unwrap();
        sys.write(fd, b"abcdef").unwrap();
        sys.seek(fd, SeekFrom::Start(2)).unwrap();
        let fd2 = sys.open("/tmp/x/f", OpenFlags::RDONLY).unwrap();
        assert_eq!(sys.read(fd2, 3).unwrap(), b"abc");
        sys.close(fd2).unwrap();
        assert_eq!(sys.stat("/tmp/x/f").unwrap().size, 6);
        assert_eq!(sys.unlink("/tmp/x/f").unwrap_err(), Errno::EBUSY);
        sys.close(fd).unwrap();
        sys.rename("/tmp/x/f", "/tmp/x/g").unwrap();
        assert_eq!(sys.readdir("/tmp/x").unwrap(), vec!["g"]);
        sys.unlink("/tmp/x/g").unwrap();
        0
    });
    expect_zero(&o);
}

#[test]
fn pipes_block_and_wake() {
    let (o, _) = run(|sys| {
        let (r, w) = sys.pipe().unwrap();
        let child = sys
            .fork_run(move |c| {
                let d = c.read(r, 8).unwrap();
                i32::from(d != b"hi")
            })
            .unwrap();
        sys.write(w, b"hi").unwrap();
        assert_eq!(sys.waitpid(child).unwrap(), 0);
        sys.close(w).unwrap();
        sys.close(r).unwrap();
        0
    });
    expect_zero(&o);
}

#[test]
fn pipe_eof_and_epipe() {
    let (o, _) = run(|sys| {
        let (r, w) = sys.pipe().unwrap();
        sys.close(w).unwrap();
        assert_eq!(sys.read(r, 8).unwrap(), b"");
        sys.close(r).unwrap();
        let (r2, w2) = sys.pipe().unwrap();
        sys.close(r2).unwrap();
        assert_eq!(sys.write(w2, b"x").unwrap_err(), Errno::EPIPE);
        sys.close(w2).unwrap();
        0
    });
    expect_zero(&o);
}

#[test]
fn memory_and_signals() {
    let (o, _) = run(|sys| {
        let base = sys.vmstat().unwrap();
        sys.brk(2).unwrap();
        let id = sys.mmap(8).unwrap();
        assert_eq!(sys.vmstat().unwrap(), base + 10);
        sys.munmap(id).unwrap();
        sys.brk(-2).unwrap();
        let me = sys.getpid().unwrap();
        sys.sigmask(Signal::SigTerm, true).unwrap();
        sys.kill(me, Signal::SigTerm).unwrap();
        assert_eq!(sys.sigpending().unwrap(), vec![Signal::SigTerm]);
        0
    });
    expect_zero(&o);
}

#[test]
fn kill_and_sleep() {
    let (o, _) = run(|sys| {
        let child = sys
            .fork_run(|c| {
                c.sleep(1_000_000).unwrap();
                0
            })
            .unwrap();
        sys.kill(child, Signal::SigKill).unwrap();
        assert_eq!(sys.waitpid(child).unwrap(), -9);
        sys.sleep(100).unwrap();
        0
    });
    expect_zero(&o);
}

#[test]
fn kv_store() {
    let (o, _) = run(|sys| {
        sys.ds_put("a/1", b"x").unwrap();
        sys.ds_put("a/2", b"y").unwrap();
        assert_eq!(sys.ds_get("a/1").unwrap(), b"x");
        assert_eq!(sys.ds_list("a/").unwrap().len(), 2);
        sys.ds_del("a/1").unwrap();
        assert_eq!(sys.ds_get("a/1").unwrap_err(), Errno::ENOKEY);
        0
    });
    expect_zero(&o);
}

#[test]
fn monolith_is_faster_than_nothing_but_charges_time() {
    let (o, m) = run(|sys| {
        for _ in 0..100 {
            sys.getpid().unwrap();
        }
        sys.compute(10_000);
        0
    });
    expect_zero(&o);
    assert!(
        m.now() > 10_000,
        "compute and syscalls must advance the clock"
    );
    assert_eq!(m.syscall_count(), 100 + 1 /* exit */);
}
