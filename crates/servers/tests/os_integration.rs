//! End-to-end integration tests: real workload programs running against the
//! assembled OSIRIS OS, including crash-recovery scenarios.

use osiris_core::PolicyKind;
use osiris_faults::{FaultKind, FaultPlan, Injector};
use osiris_kernel::abi::{Errno, OpenFlags, SeekFrom, Signal};
use osiris_kernel::{OsEngine, RunOutcome, ShutdownKind};
use osiris_servers::{Os, OsConfig};
use osiris_workloads::{Host, ProgramRegistry};

fn run_one<F>(prog: F) -> (RunOutcome, Os)
where
    F: Fn(&mut osiris_workloads::Sys) -> i32 + Send + Sync + 'static,
{
    run_with_policy(PolicyKind::Enhanced, prog)
}

fn run_with_policy<F>(policy: PolicyKind, prog: F) -> (RunOutcome, Os)
where
    F: Fn(&mut osiris_workloads::Sys) -> i32 + Send + Sync + 'static,
{
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", prog);
    registry.register("child_ok", |_sys| 7);
    registry.register("child_echo", |sys| sys.args().len() as i32);
    let os = Os::new(OsConfig::with_policy(policy));
    let mut host = Host::new(os, registry);
    let outcome = host.run("main", &[]);
    (outcome, host.into_engine())
}

fn expect_clean(outcome: &RunOutcome, os: &Os) {
    assert_eq!(
        outcome,
        &RunOutcome::Completed {
            init_code: 0,
            exit_codes: match outcome {
                RunOutcome::Completed { exit_codes, .. } => exit_codes.clone(),
                _ => Default::default(),
            }
        },
        "run must complete with init exit 0"
    );
    let violations = os.audit();
    assert!(violations.is_empty(), "audit violations: {:?}", violations);
}

#[test]
fn getpid_and_getppid() {
    let (outcome, os) = run_one(|sys| {
        assert_eq!(sys.getpid().unwrap().0, 1);
        assert_eq!(sys.getppid().unwrap().0, 0);
        0
    });
    expect_clean(&outcome, &os);
}

#[test]
fn spawn_and_waitpid() {
    let (outcome, os) = run_one(|sys| {
        let child = sys.spawn("child_ok", &[]).unwrap();
        assert!(child.0 > 1);
        let code = sys.waitpid(child).unwrap();
        assert_eq!(code, 7);
        0
    });
    expect_clean(&outcome, &os);
}

#[test]
fn spawn_many_children_wait_any() {
    let (outcome, os) = run_one(|sys| {
        let mut pids = Vec::new();
        for _ in 0..5 {
            pids.push(sys.spawn("child_ok", &[]).unwrap());
        }
        for _ in 0..5 {
            let (pid, code) = sys.wait_any().unwrap();
            assert!(pids.contains(&pid));
            assert_eq!(code, 7);
        }
        assert_eq!(sys.wait_any().unwrap_err(), Errno::ECHILD);
        0
    });
    expect_clean(&outcome, &os);
}

#[test]
fn fork_run_closure() {
    let (outcome, os) = run_one(|sys| {
        let child = sys
            .fork_run(|csys| {
                let me = csys.getpid().unwrap();
                (me.0 % 100) as i32
            })
            .unwrap();
        let code = sys.waitpid(child).unwrap();
        assert_eq!(code, (child.0 % 100) as i32);
        0
    });
    expect_clean(&outcome, &os);
}

#[test]
fn exec_replaces_image() {
    let (outcome, os) = run_one(|sys| {
        let child = sys
            .fork_run(|csys| match csys.exec("child_echo", &["a", "b", "c"]) {
                Err(e) => panic!("exec failed: {e}"),
                Ok(never) => match never {},
            })
            .unwrap();
        assert_eq!(sys.waitpid(child).unwrap(), 3);
        0
    });
    expect_clean(&outcome, &os);
}

#[test]
fn file_write_read_roundtrip() {
    let (outcome, os) = run_one(|sys| {
        let fd = sys.open("/tmp/a.txt", OpenFlags::CREATE).unwrap();
        assert_eq!(sys.write(fd, b"hello world").unwrap(), 11);
        sys.close(fd).unwrap();
        let fd = sys.open("/tmp/a.txt", OpenFlags::RDONLY).unwrap();
        assert_eq!(sys.read(fd, 64).unwrap(), b"hello world");
        assert_eq!(sys.read(fd, 64).unwrap(), b"", "second read hits EOF");
        sys.close(fd).unwrap();
        sys.unlink("/tmp/a.txt").unwrap();
        assert_eq!(
            sys.open("/tmp/a.txt", OpenFlags::RDONLY).unwrap_err(),
            Errno::ENOENT
        );
        0
    });
    expect_clean(&outcome, &os);
}

#[test]
fn large_file_thrashes_cache_and_survives() {
    // 256 KiB file >> 64-block (64 KiB) cache: forces evictions, disk
    // write-backs and cache-miss reads through the cooperative threads.
    let (outcome, os) = run_one(|sys| {
        let fd = sys.open("/tmp/big.bin", OpenFlags::CREATE).unwrap();
        let chunk = vec![0xabu8; 8192];
        for _ in 0..32 {
            assert_eq!(sys.write(fd, &chunk).unwrap(), 8192);
        }
        sys.seek(fd, SeekFrom::Start(0)).unwrap();
        let mut total = 0u64;
        loop {
            let data = sys.read(fd, 8192).unwrap();
            if data.is_empty() {
                break;
            }
            assert!(data.iter().all(|b| *b == 0xab));
            total += data.len() as u64;
        }
        assert_eq!(total, 32 * 8192);
        sys.close(fd).unwrap();
        0
    });
    expect_clean(&outcome, &os);
    // The cache is smaller than the file, so the disk must have been hit.
    let disk_report = os
        .reports()
        .into_iter()
        .find(|r| r.name == "disk")
        .expect("disk component exists");
    assert!(disk_report.messages > 0, "disk driver never exercised");
}

#[test]
fn partial_writes_to_evicted_blocks_read_back_byte_for_byte() {
    // A 128 KiB file evicts its first blocks from the 64-block cache. A
    // write that covers only part of such a block parks on a disk read (the
    // one write path that copies its payload) and must merge into the
    // block's old bytes; a block-aligned write replaces whole blocks.
    let (outcome, os) = run_one(|sys| {
        let fd = sys.open("/tmp/rmw.bin", OpenFlags::RDWR_CREATE).unwrap();
        let mut model: Vec<u8> = (0..128 * 1024).map(|i| (i % 251) as u8).collect();
        for chunk in model.chunks(8192) {
            assert_eq!(sys.write(fd, chunk).unwrap(), 8192);
        }
        // Inside block 0; across the end of block 0 into block 1; the whole
        // of blocks 4 and 5 beside part of block 6.
        for (at, len, byte) in [(100, 600, 0xEE), (1000, 100, 0x11), (4096, 2500, 0x5A)] {
            sys.seek(fd, SeekFrom::Start(at as u64)).unwrap();
            assert_eq!(sys.write(fd, &vec![byte; len]).unwrap() as usize, len);
            model[at..at + len].fill(byte);
        }
        sys.seek(fd, SeekFrom::Start(0)).unwrap();
        for (i, want) in model.chunks(8192).enumerate() {
            assert_eq!(sys.read(fd, 8192).unwrap(), want, "chunk {i}");
        }
        sys.close(fd).unwrap();
        0
    });
    expect_clean(&outcome, &os);
}

#[test]
fn seek_and_sparse_reads() {
    let (outcome, os) = run_one(|sys| {
        let fd = sys.open("/tmp/s.bin", OpenFlags::RDWR_CREATE).unwrap();
        sys.seek(fd, SeekFrom::Start(5000)).unwrap();
        sys.write(fd, b"tail").unwrap();
        sys.seek(fd, SeekFrom::Start(0)).unwrap();
        let head = sys.read(fd, 16).unwrap();
        assert_eq!(head, vec![0u8; 16], "sparse region reads as zeros");
        assert_eq!(sys.seek(fd, SeekFrom::End(-4)).unwrap(), 5000);
        assert_eq!(sys.read(fd, 4).unwrap(), b"tail");
        assert_eq!(sys.seek(fd, SeekFrom::Current(-2)).unwrap(), 5002);
        sys.close(fd).unwrap();
        0
    });
    expect_clean(&outcome, &os);
}

#[test]
fn directories_stat_rename() {
    let (outcome, os) = run_one(|sys| {
        sys.mkdir("/tmp/d").unwrap();
        assert_eq!(sys.mkdir("/tmp/d").unwrap_err(), Errno::EEXIST);
        let fd = sys.open("/tmp/d/f", OpenFlags::CREATE).unwrap();
        sys.write(fd, b"xyz").unwrap();
        sys.close(fd).unwrap();
        let st = sys.stat("/tmp/d/f").unwrap();
        assert_eq!(st.size, 3);
        assert!(!st.is_dir);
        assert!(sys.stat("/tmp/d").unwrap().is_dir);
        let entries = sys.readdir("/tmp/d").unwrap();
        assert_eq!(entries, vec!["f"]);
        sys.rename("/tmp/d/f", "/tmp/d/g").unwrap();
        assert_eq!(sys.stat("/tmp/d/f").unwrap_err(), Errno::ENOENT);
        assert_eq!(sys.stat("/tmp/d/g").unwrap().size, 3);
        assert!(sys.readdir("/tmp").unwrap().contains(&"d".to_string()));
        0
    });
    expect_clean(&outcome, &os);
}

#[test]
fn unlink_open_file_is_busy() {
    let (outcome, os) = run_one(|sys| {
        let fd = sys.open("/tmp/busy", OpenFlags::CREATE).unwrap();
        assert_eq!(sys.unlink("/tmp/busy").unwrap_err(), Errno::EBUSY);
        sys.close(fd).unwrap();
        sys.unlink("/tmp/busy").unwrap();
        0
    });
    expect_clean(&outcome, &os);
}

#[test]
fn fsync_flushes_dirty_blocks() {
    let (outcome, os) = run_one(|sys| {
        let fd = sys.open("/tmp/sync", OpenFlags::CREATE).unwrap();
        sys.write(fd, &[1u8; 4096]).unwrap();
        sys.fsync(fd).unwrap();
        sys.close(fd).unwrap();
        0
    });
    expect_clean(&outcome, &os);
    let disk = os.reports().into_iter().find(|r| r.name == "disk").unwrap();
    assert!(
        disk.messages >= 4,
        "fsync must push dirty blocks to the driver"
    );
}

#[test]
fn pipe_between_parent_and_child() {
    let (outcome, os) = run_one(|sys| {
        let (r, w) = sys.pipe().unwrap();
        let child = sys
            .fork_run(move |csys| {
                csys.write(w, b"ping").unwrap();
                csys.close(w).unwrap();
                csys.close(r).unwrap();
                0
            })
            .unwrap();
        let data = sys.read(r, 16).unwrap();
        assert_eq!(data, b"ping");
        sys.close(w).unwrap();
        assert_eq!(sys.read(r, 16).unwrap(), b"", "EOF after all writers close");
        sys.close(r).unwrap();
        sys.waitpid(child).unwrap();
        0
    });
    expect_clean(&outcome, &os);
}

#[test]
fn pipe_blocking_read_wakes_on_write() {
    let (outcome, os) = run_one(|sys| {
        let (r, w) = sys.pipe().unwrap();
        // Child reads first (blocks), parent writes after.
        let child = sys
            .fork_run(move |csys| {
                let data = csys.read(r, 8).unwrap();
                if data == b"wake" {
                    0
                } else {
                    1
                }
            })
            .unwrap();
        sys.write(w, b"wake").unwrap();
        assert_eq!(sys.waitpid(child).unwrap(), 0);
        sys.close(r).unwrap();
        sys.close(w).unwrap();
        0
    });
    expect_clean(&outcome, &os);
}

#[test]
fn write_to_pipe_without_readers_is_epipe() {
    let (outcome, os) = run_one(|sys| {
        let (r, w) = sys.pipe().unwrap();
        sys.close(r).unwrap();
        assert_eq!(sys.write(w, b"x").unwrap_err(), Errno::EPIPE);
        sys.close(w).unwrap();
        0
    });
    expect_clean(&outcome, &os);
}

#[test]
fn dup_shares_offset() {
    let (outcome, os) = run_one(|sys| {
        let fd = sys.open("/tmp/dup", OpenFlags::RDWR_CREATE).unwrap();
        sys.write(fd, b"abcdef").unwrap();
        let fd2 = sys.dup(fd).unwrap();
        sys.seek(fd, SeekFrom::Start(2)).unwrap();
        assert_eq!(
            sys.read(fd2, 2).unwrap(),
            b"cd",
            "dup shares the file offset"
        );
        sys.close(fd).unwrap();
        assert_eq!(sys.read(fd2, 2).unwrap(), b"ef", "slot survives one close");
        sys.close(fd2).unwrap();
        0
    });
    expect_clean(&outcome, &os);
}

#[test]
fn data_store_roundtrip() {
    let (outcome, os) = run_one(|sys| {
        sys.ds_put("svc/a", b"1").unwrap();
        sys.ds_put("svc/b", b"2").unwrap();
        sys.ds_put("other", b"3").unwrap();
        assert_eq!(sys.ds_get("svc/a").unwrap(), b"1");
        assert_eq!(sys.ds_get("missing").unwrap_err(), Errno::ENOKEY);
        assert_eq!(sys.ds_list("svc/").unwrap().len(), 2);
        sys.ds_del("svc/a").unwrap();
        assert_eq!(sys.ds_del("svc/a").unwrap_err(), Errno::ENOKEY);
        0
    });
    expect_clean(&outcome, &os);
}

#[test]
fn memory_calls() {
    let (outcome, os) = run_one(|sys| {
        let base = sys.vmstat().unwrap();
        sys.brk(4).unwrap();
        assert_eq!(sys.vmstat().unwrap(), base + 4);
        let id = sys.mmap(16).unwrap();
        assert_eq!(sys.vmstat().unwrap(), base + 20);
        sys.munmap(id).unwrap();
        sys.brk(-4).unwrap();
        assert_eq!(sys.vmstat().unwrap(), base);
        assert_eq!(sys.munmap(id).unwrap_err(), Errno::EINVAL);
        0
    });
    expect_clean(&outcome, &os);
}

#[test]
fn signals_mask_and_pending() {
    let (outcome, os) = run_one(|sys| {
        let me = sys.getpid().unwrap();
        sys.sigmask(Signal::SigTerm, true).unwrap();
        sys.kill(me, Signal::SigTerm).unwrap();
        sys.kill(me, Signal::SigUsr1).unwrap();
        let pending = sys.sigpending().unwrap();
        assert!(pending.contains(&Signal::SigTerm));
        assert!(pending.contains(&Signal::SigUsr1));
        assert!(
            sys.sigpending().unwrap().is_empty(),
            "pending set was cleared"
        );
        assert_eq!(
            sys.sigmask(Signal::SigKill, true).unwrap_err(),
            Errno::EINVAL
        );
        0
    });
    expect_clean(&outcome, &os);
}

#[test]
fn kill_terminates_child() {
    let (outcome, os) = run_one(|sys| {
        let child = sys
            .fork_run(|csys| {
                csys.sleep(1_000_000).unwrap();
                0
            })
            .unwrap();
        sys.kill(child, Signal::SigKill).unwrap();
        assert_eq!(sys.waitpid(child).unwrap(), -9);
        0
    });
    expect_clean(&outcome, &os);
}

#[test]
fn sleep_advances_virtual_time() {
    let (outcome, os) = run_one(|sys| {
        sys.sleep(50_000).unwrap();
        0
    });
    expect_clean(&outcome, &os);
    assert!(os.now() >= 50_000);
}

#[test]
fn waitpid_non_child_is_echild() {
    let (outcome, os) = run_one(|sys| {
        assert_eq!(
            sys.waitpid(osiris_kernel::abi::Pid(999)).unwrap_err(),
            Errno::ECHILD
        );
        0
    });
    expect_clean(&outcome, &os);
}

// --------------------------------------------------------------------
// Crash recovery scenarios
// --------------------------------------------------------------------

fn run_with_crash(
    policy: PolicyKind,
    site: &'static str,
    prog: fn(&mut osiris_workloads::Sys) -> i32,
) -> (RunOutcome, Os) {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", prog);
    registry.register("child_ok", |_sys| 7);
    let mut os = Os::new(OsConfig::with_policy(policy));
    os.set_fault_hook(Box::new(Injector::new(&FaultPlan::once(
        FaultKind::Crash,
        site,
    ))));
    let mut host = Host::new(os, registry);
    let outcome = host.run("main", &[]);
    (outcome, host.into_engine())
}

#[test]
fn crash_inside_window_recovers_with_ecrash() {
    // `pm.fork.validate` runs before any outgoing send: the recovery window
    // is open, so OSIRIS rolls PM back and error-virtualizes.
    let (outcome, os) = run_with_crash(PolicyKind::Enhanced, "pm.fork.validate", |sys| {
        match sys.fork_run(|_c| 0) {
            Err(Errno::ECRASH) => {
                // The system survived; PM must still work.
                let child = sys.fork_run(|_c| 3).expect("PM recovered");
                assert_eq!(sys.waitpid(child).unwrap(), 3);
                0
            }
            other => panic!("expected ECRASH, got {:?}", other),
        }
    });
    assert!(outcome.completed(), "outcome: {:?}", outcome);
    expect_clean(&outcome, &os);
    assert_eq!(os.metrics().recovered_rollback, 1);
    let pm = os.reports().into_iter().find(|r| r.name == "pm").unwrap();
    assert_eq!(pm.crashes, 1);
    assert_eq!(pm.recoveries, 1);
}

/// A multi-block write crashes at `vfs.write.block`, after it replaced
/// the cache's handles to its earlier blocks with new blocks. The window
/// is still open, so VFS rolls back: each earlier block's handle comes back
/// from the undo journal, and its bytes are as they were. That includes a
/// block fsynced just before, whose bytes the disk's store shares, and a
/// block dirtied after that sync.
#[test]
fn a_rolled_back_write_leaves_shared_blocks_as_they_were() {
    let (outcome, os) = run_with_crash(PolicyKind::Enhanced, "vfs.write.block", |sys| {
        let fd = sys.open("/tmp/shared.bin", OpenFlags::RDWR_CREATE).unwrap();
        let mut model: Vec<u8> = (0..3 * 1024).map(|i| (i % 251) as u8).collect();
        // One block per write: `vfs.write.block` probes only multi-block
        // writes.
        for chunk in model.chunks(1024) {
            assert_eq!(sys.write(fd, chunk).unwrap(), 1024);
        }
        sys.fsync(fd).unwrap();
        sys.seek(fd, SeekFrom::Start(1100)).unwrap();
        assert_eq!(sys.write(fd, &[0x77; 100]).unwrap(), 100);
        model[1100..1200].fill(0x77);
        sys.seek(fd, SeekFrom::Start(0)).unwrap();
        assert_eq!(sys.write(fd, &[0xEE; 3 * 1024]), Err(Errno::ECRASH));
        sys.seek(fd, SeekFrom::Start(0)).unwrap();
        assert_eq!(sys.read(fd, 3 * 1024).unwrap(), model);
        0
    });
    expect_clean(&outcome, &os);
    assert_eq!(os.metrics().recovered_rollback, 1);
    let vfs = os.reports().into_iter().find(|r| r.name == "vfs").unwrap();
    assert_eq!((vfs.crashes, vfs.recoveries), (1, 1));
}

#[test]
fn crash_after_state_modifying_send_shuts_down() {
    // `pm.fork.vm_sent` runs after the VmFork request (state-modifying):
    // the window is closed, so OSIRIS performs a controlled shutdown rather
    // than risk inconsistent recovery.
    let (outcome, _os) = run_with_crash(PolicyKind::Enhanced, "pm.fork.vm_sent", |sys| {
        let _ = sys.fork_run(|_c| 0);
        0
    });
    match outcome {
        RunOutcome::Shutdown(ShutdownKind::Controlled(reason)) => {
            assert!(reason.contains("pm"), "reason: {}", reason);
        }
        other => panic!("expected controlled shutdown, got {:?}", other),
    }
}

#[test]
fn pessimistic_policy_shuts_down_where_enhanced_recovers() {
    // `pm.spawn.load_sent` runs after the read-only VfsExecLoad request:
    // enhanced keeps the window open (recovers), pessimistic closed it at
    // the send (controlled shutdown).
    let prog: fn(&mut osiris_workloads::Sys) -> i32 = |sys| match sys.spawn("child_ok", &[]) {
        Err(Errno::ECRASH) => 0,
        Ok(child) => {
            let _ = sys.waitpid(child);
            0
        }
        Err(e) => panic!("unexpected error {e}"),
    };
    let (enhanced, os) = run_with_crash(PolicyKind::Enhanced, "pm.spawn.load_sent", prog);
    assert!(enhanced.completed(), "enhanced: {:?}", enhanced);
    assert_eq!(os.metrics().recovered_rollback, 1);

    let (pessimistic, _) = run_with_crash(PolicyKind::Pessimistic, "pm.spawn.load_sent", prog);
    assert!(
        matches!(
            pessimistic,
            RunOutcome::Shutdown(ShutdownKind::Controlled(_))
        ),
        "pessimistic: {:?}",
        pessimistic
    );
}

#[test]
fn ds_crash_after_announce_recovers_under_enhanced() {
    // The DS `Announce` trace notification is DS's first outgoing SEEP.
    let prog: fn(&mut osiris_workloads::Sys) -> i32 = |sys| {
        match sys.ds_put("k", b"v") {
            Err(Errno::ECRASH) => {
                // Error virtualization discarded the request entirely.
                assert_eq!(sys.ds_get("k").unwrap_err(), Errno::ENOKEY);
                sys.ds_put("k2", b"v2").expect("DS recovered");
                0
            }
            other => panic!("expected ECRASH, got {:?}", other),
        }
    };
    let (outcome, os) = run_with_crash(PolicyKind::Enhanced, "ds.put.quota", prog);
    assert!(outcome.completed(), "outcome: {:?}", outcome);
    expect_clean(&outcome, &os);

    let (pess, _) = run_with_crash(PolicyKind::Pessimistic, "ds.put.quota", prog);
    assert!(
        matches!(pess, RunOutcome::Shutdown(ShutdownKind::Controlled(_))),
        "pessimistic: {:?}",
        pess
    );
}

#[test]
fn stateless_restart_loses_process_table() {
    // Under the stateless baseline PM restarts with only init in its
    // table — the waiting parent's child vanishes, so the run cannot
    // complete cleanly (hang or error), demonstrating why stateless
    // recovery fails for stateful core services.
    let (outcome, _os) = run_with_crash(PolicyKind::Stateless, "pm.wait.entry", |sys| {
        let child = match sys.fork_run(|c| {
            c.sleep(10).unwrap();
            5
        }) {
            Ok(c) => c,
            Err(_) => return 1,
        };
        match sys.waitpid(child) {
            Ok(5) => 0,
            _ => 1,
        }
    });
    match outcome {
        RunOutcome::Completed { init_code, .. } => {
            assert_ne!(init_code, 0, "stateless recovery must not look successful")
        }
        RunOutcome::Hang(_) | RunOutcome::Shutdown(_) => {}
    }
}

#[test]
fn vm_crash_in_window_recovers() {
    let (outcome, os) = run_with_crash(PolicyKind::Enhanced, "vm.mmap.entry", |sys| {
        match sys.mmap(4) {
            Err(Errno::ECRASH) => {
                let id = sys.mmap(4).expect("VM recovered");
                sys.munmap(id).unwrap();
                0
            }
            other => panic!("expected ECRASH, got {:?}", other),
        }
    });
    assert!(outcome.completed(), "outcome: {:?}", outcome);
    expect_clean(&outcome, &os);
}

#[test]
fn vfs_crash_in_window_recovers() {
    let (outcome, os) = run_with_crash(PolicyKind::Enhanced, "vfs.open.entry", |sys| {
        match sys.open("/tmp/x", OpenFlags::CREATE) {
            Err(Errno::ECRASH) => {
                let fd = sys
                    .open("/tmp/x", OpenFlags::CREATE)
                    .expect("VFS recovered");
                sys.write(fd, b"ok").unwrap();
                sys.close(fd).unwrap();
                0
            }
            other => panic!("expected ECRASH, got {:?}", other),
        }
    });
    assert!(outcome.completed(), "outcome: {:?}", outcome);
    expect_clean(&outcome, &os);
}

#[test]
fn hung_server_is_detected_by_heartbeat_and_recovered() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        match sys.ds_put("k", b"v") {
            // The hung DS is killed by the heartbeat and recovered; the
            // in-flight request is error-virtualized.
            Err(Errno::ECRASH) => {
                sys.ds_put("k2", b"v2").expect("DS recovered after hang");
                0
            }
            other => panic!("expected ECRASH after hang, got {:?}", other),
        }
    });
    let mut os = Os::new(OsConfig::with_policy(PolicyKind::Enhanced));
    os.set_fault_hook(Box::new(Injector::new(&FaultPlan::once(
        FaultKind::Hang,
        "ds.put.quota",
    ))));
    let mut host = Host::new(os, registry);
    let outcome = host.run("main", &[]);
    assert!(outcome.completed(), "outcome: {:?}", outcome);
    let os = host.into_engine();
    assert_eq!(os.metrics().hangs, 1);
    assert!(os.metrics().recovered_rollback >= 1);
}
