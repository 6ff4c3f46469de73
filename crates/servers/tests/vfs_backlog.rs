//! VFS cooperative-thread saturation: more concurrent disk-waiting
//! operations than threads pushes work onto the backlog, which must drain
//! as threads free up — and the whole pile must survive a VFS crash.

use osiris_core::PolicyKind;
use osiris_kernel::abi::{OpenFlags, SeekFrom};
use osiris_kernel::RunOutcome;
use osiris_servers::{Os, OsConfig};
use osiris_workloads::{Host, ProgramRegistry};

/// Each child writes a multi-block file, evicts it from the cache by
/// writing a second file, then reads the first back — guaranteeing a cold
/// read that parks a cooperative thread on the disk.
fn cold_reader(tag: u32) -> impl Fn(&mut osiris_workloads::Sys) -> i32 + Send + Sync + 'static {
    move |sys| {
        let a = format!("/tmp/bl_a{tag}");
        let b = format!("/tmp/bl_b{tag}");
        let fd = match sys.open(&a, OpenFlags::RDWR_CREATE) {
            Ok(fd) => fd,
            Err(_) => return 1,
        };
        if sys.write(fd, &[tag as u8; 4096]).is_err() {
            return 1;
        }
        // Thrash the tiny cache so `a`'s blocks are evicted.
        let fd2 = match sys.open(&b, OpenFlags::RDWR_CREATE) {
            Ok(fd) => fd,
            Err(_) => return 1,
        };
        if sys.write(fd2, &[0xee; 8192]).is_err() {
            return 1;
        }
        if sys.seek(fd, SeekFrom::Start(0)).is_err() {
            return 1;
        }
        let mut total = 0;
        loop {
            match sys.read(fd, 2048) {
                Ok(d) if d.is_empty() => break,
                Ok(d) => {
                    if !d.iter().all(|x| *x == tag as u8) {
                        return 2;
                    }
                    total += d.len();
                }
                Err(_) => return 3,
            }
        }
        let _ = sys.close(fd);
        let _ = sys.close(fd2);
        i32::from(total != 4096)
    }
}

#[test]
fn backlog_drains_when_threads_saturate() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    for tag in 0..6u32 {
        registry.register(&format!("reader{tag}"), cold_reader(tag));
    }
    registry.register("main", |sys| {
        let mut children = Vec::new();
        for tag in 0..6 {
            match sys.spawn(&format!("reader{tag}"), &[]) {
                Ok(pid) => children.push(pid),
                Err(_) => return 1,
            }
        }
        for pid in children {
            match sys.waitpid(pid) {
                Ok(0) => {}
                other => panic!("reader failed: {other:?}"),
            }
        }
        0
    });
    // 2 threads, 8-block cache: six concurrent cold readers exceed both.
    let os = Os::new(OsConfig {
        policy: PolicyKind::Enhanced,
        vm_frames: 1024,
        vfs_cache_blocks: 8,
        vfs_threads: 2,
        ..Default::default()
    });
    let mut host = Host::new(os, registry);
    let outcome = host.run("main", &[]);
    let os = host.into_engine();
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "{outcome:?}"
    );
    assert!(os.audit().is_empty(), "{:?}", os.audit());
    let disk = os.reports().into_iter().find(|r| r.name == "disk").unwrap();
    assert!(
        disk.messages > 12,
        "the readers must have gone through the disk"
    );
}

#[test]
fn saturated_vfs_still_serves_inline_operations() {
    // While every cothread is parked on the disk, cache-hit operations
    // (pipes, stats, opens) must keep flowing — the very reason VFS is
    // multithreaded (paper §V).
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("reader", cold_reader(1));
    registry.register("main", |sys| {
        let r = match sys.spawn("reader", &[]) {
            Ok(pid) => pid,
            Err(_) => return 1,
        };
        // Inline VFS traffic while the reader is disk-bound.
        for i in 0..10 {
            let path = format!("/tmp/inline{i}");
            let fd = sys.open(&path, OpenFlags::CREATE).unwrap();
            sys.close(fd).unwrap();
            assert!(sys.stat(&path).is_ok());
            sys.unlink(&path).unwrap();
        }
        let (pr, pw) = sys.pipe().unwrap();
        sys.write(pw, b"still alive").unwrap();
        assert_eq!(sys.read(pr, 16).unwrap(), b"still alive");
        sys.close(pr).unwrap();
        sys.close(pw).unwrap();
        match sys.waitpid(r) {
            Ok(0) => 0,
            _ => 1,
        }
    });
    let os = Os::new(OsConfig {
        vm_frames: 1024,
        vfs_cache_blocks: 8,
        vfs_threads: 1, // a single thread: any cold read saturates the pool
        ..Default::default()
    });
    let mut host = Host::new(os, registry);
    let outcome = host.run("main", &[]);
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "{outcome:?}"
    );
}
