//! Fail-silent hang recovery, end to end: a VFS `stat` wedges mid-request
//! (no crash signal, no reply — the fault is only visible as silence),
//! the virtual-time watchdog detects the expired deadline, heartbeat
//! probes confirm the server is hung rather than slow, the RS rolls the
//! wedged transaction back through the standard escalation ladder, and
//! the client's request is transparently retried against the recovered
//! instance — the program completes with the correct metadata and never
//! sees an error. (`stat` is `NonStateModifying` under SEEP, so the
//! watchdog may re-drive it; a `read` advances the file offset and is
//! never armed.)
//!
//! ```text
//! cargo run --release --example hang_recovery
//! ```

use osiris::faults::{FaultKind, FaultPlan, Injector};
use osiris::{Host, Os, OsConfig, ProgramRegistry, RunOutcome, WatchdogConfig};

fn main() {
    osiris::install_quiet_panic_hook();

    // Wedge the VFS once, mid-stat: the handler stops making progress and
    // never replies. Without a watchdog this is undetectable — a hang has
    // no crash signal for the RS to observe.
    let plan = FaultPlan::once(FaultKind::Hang, "vfs.stat.entry");

    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        use osiris::kernel::abi::OpenFlags;
        let payload = b"the-bytes-that-must-survive-the-hang";
        let fd = sys.open("/data", OpenFlags::RDWR_CREATE).unwrap();
        sys.write(fd, payload).unwrap();
        sys.close(fd).unwrap();
        // The stat below is the wedged request: its reply only arrives
        // after detection, rollback and one transparent retry.
        let meta = match sys.stat("/data") {
            Ok(m) => m,
            Err(_) => return 2, // the retry must hide the hang entirely
        };
        i32::from(meta.size as usize != payload.len())
    });

    let mut os = Os::new(OsConfig {
        watchdog: WatchdogConfig::on(),
        ..Default::default()
    });
    os.set_fault_hook(Box::new(Injector::new(&plan)));
    let mut host = Host::new(os, registry);
    let outcome = host.run("main", &[]);
    let os = host.into_engine();

    let m = os.metrics();
    println!("outcome: {outcome:?}");
    println!(
        "watchdog: {} deadlines armed, {} expired, {} probes, {} verdicts",
        m.wd_armed, m.wd_expired, m.wd_probes, m.wd_verdicts
    );
    println!(
        "recovery: {} hangs, {} rollback recoveries, {} transparent retries \
         ({} denied, {} exhausted)",
        m.hangs, m.recovered_rollback, m.retries_granted, m.retries_denied, m.retries_exhausted
    );

    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "the client must complete with byte-identical data: {outcome:?}"
    );
    assert!(m.hangs >= 1, "the injector must wedge the VFS");
    assert!(m.wd_expired >= 1, "the wedge must expire an armed deadline");
    assert!(
        m.recovered_rollback >= 1,
        "the hung transaction must be rolled back"
    );
    assert_eq!(
        m.retries_granted, 1,
        "exactly one transparent retry completes the read"
    );
    assert!(os.audit().is_empty(), "audit: {:?}", os.audit());

    println!();
    println!("the hang was invisible to the client: the stat request wedged the");
    println!(
        "VFS, the watchdog declared it hung once the {}-cycle deadline expired,",
        WatchdogConfig::DEADLINE
    );
    println!("the RS rolled the transaction back, and one retry finished the job.");
}
