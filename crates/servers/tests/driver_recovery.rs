//! Driver recovery: MINIX 3's classic capability, subsumed by the OSIRIS
//! machinery — the disk driver is a component like any other, so crashes in
//! it are recovered through the same window/rollback/error-virtualization
//! path, and VFS degrades the failure to `EIO` for the caller.

use osiris_core::PolicyKind;
use osiris_faults::{FaultKind, FaultPlan, Injector};
use osiris_kernel::abi::{Errno, OpenFlags, SeekFrom};
use osiris_kernel::RunOutcome;
use osiris_servers::{Os, OsConfig};
use osiris_workloads::{Host, ProgramRegistry};

/// Writes past the cache capacity, then reads everything back — forcing
/// disk reads that the injected driver crash will interrupt.
fn thrash(sys: &mut osiris_workloads::Sys) -> Result<usize, Errno> {
    let fd = sys.open("/tmp/drv", OpenFlags::RDWR_CREATE)?;
    for _ in 0..96 {
        sys.write(fd, &[3u8; 1024])?;
    }
    sys.seek(fd, SeekFrom::Start(0))?;
    let mut total = 0;
    let mut errors = 0;
    loop {
        match sys.read(fd, 4096) {
            Ok(d) if d.is_empty() => break,
            Ok(d) => total += d.len(),
            Err(Errno::EIO) => {
                // A recovered driver crash surfaces as EIO; skip forward.
                errors += 1;
                sys.seek(fd, SeekFrom::Current(4096))?;
                if errors > 8 {
                    return Err(Errno::EIO);
                }
            }
            Err(e) => return Err(e),
        }
    }
    sys.close(fd)?;
    sys.unlink("/tmp/drv")?;
    Ok(total)
}

#[test]
fn disk_crash_mid_read_is_recovered_and_degrades_to_eio() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| match thrash(sys) {
        Ok(_) => 0,
        Err(_) => 1,
    });
    let mut os = Os::new(OsConfig {
        vm_frames: 1024,
        ..Default::default()
    });
    os.set_fault_hook(Box::new(Injector::new(&FaultPlan::once(
        FaultKind::Crash,
        "disk.read.queue",
    ))));
    let mut host = Host::new(os, registry);
    let outcome = host.run("main", &[]);
    let os = host.into_engine();
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "driver crash must not take the system down: {outcome:?}"
    );
    let disk = os.reports().into_iter().find(|r| r.name == "disk").unwrap();
    assert_eq!(disk.crashes, 1);
    assert_eq!(disk.recoveries, 1, "the driver was recovered in place");
    assert!(os.audit().is_empty(), "audit: {:?}", os.audit());
}

#[test]
fn disk_crash_during_completion_tick_shuts_down() {
    // The completion path runs off a timer notification: not replyable, so
    // the conservative policies refuse recovery.
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| match thrash(sys) {
        Ok(_) => 0,
        Err(_) => 1,
    });
    let mut os = Os::new(OsConfig {
        vm_frames: 1024,
        ..Default::default()
    });
    os.set_fault_hook(Box::new(Injector::new(&FaultPlan::once(
        FaultKind::Crash,
        "disk.complete",
    ))));
    let mut host = Host::new(os, registry);
    let outcome = host.run("main", &[]);
    assert!(
        matches!(
            outcome,
            RunOutcome::Shutdown(osiris_kernel::ShutdownKind::Controlled(_))
        ),
        "{outcome:?}"
    );
}

#[test]
fn stateless_driver_restart_is_enough_for_clean_blocks() {
    // The MINIX 3 argument: drivers are mostly stateless, so even the
    // stateless policy survives a driver crash — reads of blocks that were
    // never committed come back as zeros, but the system keeps running.
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        // Exercise the driver lightly (cache-resident data only).
        let fd = match sys.open("/tmp/x", OpenFlags::CREATE) {
            Ok(fd) => fd,
            Err(_) => return 1,
        };
        let _ = sys.write(fd, b"cached");
        let _ = sys.close(fd);
        0
    });
    let mut os = Os::new(OsConfig {
        policy: PolicyKind::Stateless,
        vm_frames: 1024,
        ..Default::default()
    });
    os.set_fault_hook(Box::new(Injector::new(&FaultPlan::once(
        FaultKind::Crash,
        "disk.write.queue",
    ))));
    let mut host = Host::new(os, registry);
    // Nothing in this workload reaches the disk (all cache-resident), so
    // the fault never fires and the run is clean; the point is that a
    // stateless-driver configuration boots and runs like MINIX 3.
    let outcome = host.run("main", &[]);
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "{outcome:?}"
    );
}
