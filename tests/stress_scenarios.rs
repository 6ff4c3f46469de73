//! Long-running stress scenarios: sustained mixed workloads under rotating
//! fault load across *all* core servers, asserting the system-level
//! guarantees hold over time, not just per-incident.

use osiris::faults::PeriodicCrash;
use osiris::kernel::{FaultEffect, FaultHook, Probe};
use osiris::{
    AxiomConfig, AxiomEvent, EscalationPolicy, Host, Os, OsConfig, ProgramRegistry, RunOutcome,
    WatchdogConfig,
};

/// Injects fail-stop faults into a rotating set of components, each only
/// inside a consistently recoverable window, at a fixed interval.
struct RotatingCrash {
    targets: Vec<&'static str>,
    interval: u64,
    next_at: u64,
    cursor: usize,
    injected: u64,
}

impl RotatingCrash {
    fn new(targets: Vec<&'static str>, interval: u64) -> Self {
        RotatingCrash {
            targets,
            interval,
            next_at: interval,
            cursor: 0,
            injected: 0,
        }
    }
}

impl FaultHook for RotatingCrash {
    fn on_site(&mut self, probe: &Probe) -> FaultEffect {
        if probe.now >= self.next_at
            && probe.window_open
            && probe.replyable
            && probe.component == self.targets[self.cursor]
        {
            self.next_at = probe.now + self.interval;
            self.cursor = (self.cursor + 1) % self.targets.len();
            self.injected += 1;
            FaultEffect::Panic
        } else {
            FaultEffect::None
        }
    }
}

fn mixed_registry() -> ProgramRegistry {
    let mut registry = ProgramRegistry::new();
    registry.register("cmd", |sys| {
        use osiris::kernel::abi::OpenFlags;
        sys.set_retry_ecrash(true);
        let path = format!("/tmp/s{}", sys.pid().0);
        let fd = sys.open(&path, OpenFlags::RDWR_CREATE).unwrap();
        sys.write(fd, b"payload-payload").unwrap();
        sys.close(fd).unwrap();
        sys.ds_put(&format!("k{}", sys.pid().0), b"v").unwrap();
        let id = sys.mmap(2).unwrap();
        sys.munmap(id).unwrap();
        sys.unlink(&path).unwrap();
        0
    });
    registry.register("main", |sys| {
        sys.set_retry_ecrash(true);
        for round in 0..30 {
            let child = sys.spawn("cmd", &[]).unwrap();
            assert_eq!(sys.waitpid(child).unwrap(), 0, "round {round}");
            sys.compute(2_000);
        }
        0
    });
    registry
}

#[test]
fn sustained_rotating_crashes_across_all_servers() {
    osiris::install_quiet_panic_hook();
    let mut os = Os::new(OsConfig {
        vm_frames: 2048,
        // These scenarios deliberately sustain crash-recover cycling far
        // past any sane restart budget: bench the escalation ladder, not
        // the servers.
        escalation: EscalationPolicy::unbounded(),
        ..Default::default()
    });
    os.set_fault_hook(Box::new(RotatingCrash::new(
        vec!["pm", "vfs", "vm", "ds"],
        40_000,
    )));
    let mut host = Host::new(os, mixed_registry());
    let outcome = host.run("main", &[]);
    let os = host.into_engine();
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "the workload must survive the rotating crash storm: {outcome:?}"
    );
    assert!(
        os.metrics().recovered_rollback >= 4,
        "the storm must actually have hit multiple servers: {}",
        os.metrics().recovered_rollback
    );
    assert_eq!(
        os.metrics().crashes,
        os.metrics().recovered_rollback + os.metrics().controlled_shutdowns,
        "every crash was either recovered or (never, here) shut down"
    );
    assert!(
        os.audit().is_empty(),
        "no inconsistency accumulates: {:?}",
        os.audit()
    );
    // Every core server but RS should have logged at least one recovery
    // across a long enough run (RS is excluded from the rotation).
    let recovered: Vec<&str> = os
        .reports()
        .iter()
        .filter(|r| r.recoveries > 0)
        .map(|r| r.name)
        .collect();
    assert!(
        recovered.len() >= 2,
        "recoveries spread across servers: {recovered:?}"
    );
}

/// Wedges a rotating set of components (fail-silent hang, no crash signal)
/// at a fixed interval, each only inside a consistently recoverable window.
struct RotatingHang {
    targets: Vec<&'static str>,
    interval: u64,
    next_at: u64,
    cursor: usize,
}

impl FaultHook for RotatingHang {
    fn on_site(&mut self, probe: &Probe) -> FaultEffect {
        if probe.now >= self.next_at
            && probe.window_open
            && probe.replyable
            && probe.component == self.targets[self.cursor]
        {
            self.next_at = probe.now + self.interval;
            self.cursor = (self.cursor + 1) % self.targets.len();
            FaultEffect::Hang
        } else {
            FaultEffect::None
        }
    }
}

/// A hang storm rotating across the core servers while recoveries are
/// continuously in flight: every wedge is detected by the virtual-time
/// watchdog (no crash signal exists), the workload completes, and the
/// retry machinery never amplifies — the axiom's sealed retry decisions
/// show at most `MAX_RETRIES` grants per message, storm or not.
#[test]
fn hang_storm_during_recovery_does_not_amplify_retries() {
    osiris::install_quiet_panic_hook();
    let mut os = Os::new(OsConfig {
        vm_frames: 2048,
        watchdog: WatchdogConfig::on(),
        axiom: AxiomConfig::on(),
        escalation: EscalationPolicy::unbounded(),
        ..Default::default()
    });
    os.set_fault_hook(Box::new(RotatingHang {
        targets: vec!["pm", "vfs", "vm", "ds"],
        interval: 1_200_000,
        next_at: 200_000,
        cursor: 0,
    }));
    let mut host = Host::new(os, mixed_registry());
    let outcome = host.run("main", &[]);
    let os = host.into_engine();
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "the workload must survive the hang storm: {outcome:?}"
    );
    let m = os.metrics();
    assert!(m.hangs >= 3, "the storm must actually wedge servers: {m:?}");
    assert!(
        m.wd_expired >= m.hangs,
        "every wedge must expire an armed deadline"
    );
    assert!(os.audit().is_empty(), "audit: {:?}", os.audit());

    // No retry amplification: the sealed decisions grant at most
    // `MAX_RETRIES` attempts per message, and the aggregate counters agree.
    let mut grants_per_msg = std::collections::BTreeMap::new();
    for r in os.kernel().axiom().records() {
        if let AxiomEvent::RetryDecision {
            msg_id,
            granted: true,
            ..
        } = r.event
        {
            *grants_per_msg.entry(msg_id).or_insert(0u32) += 1;
        }
    }
    for (msg_id, grants) in &grants_per_msg {
        assert!(
            *grants <= WatchdogConfig::MAX_RETRIES,
            "retry amplification on msg {msg_id}: {grants} grants"
        );
    }
    assert!(
        m.retries_granted <= u64::from(WatchdogConfig::MAX_RETRIES) * m.wd_expired,
        "aggregate retry volume must stay within the per-expiry budget: {m:?}"
    );
}

#[test]
fn ds_crash_storm_preserves_every_acknowledged_write() {
    // Harsher variant of the kv example, as a regression test: every PUT
    // that was acknowledged must be readable afterwards, every crash-failed
    // PUT must have left nothing behind (error virtualization discards).
    osiris::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        let mut acked = Vec::new();
        for i in 0..150u32 {
            let key = format!("k{i}");
            match sys.ds_put(&key, &i.to_le_bytes()) {
                Ok(()) => acked.push(i),
                Err(osiris::kernel::abi::Errno::ECRASH) => {
                    // Discarded: the key must NOT exist. (The probe read may
                    // itself hit the storm; only a *successful* read of the
                    // key disproves the discard.)
                    if let Ok(_v) = sys.ds_get(&key) {
                        return 2;
                    }
                }
                Err(_) => return 3,
            }
        }
        // Verification runs under the same ongoing storm: retry reads.
        sys.set_retry_ecrash(true);
        for i in &acked {
            let key = format!("k{i}");
            match sys.ds_get(&key) {
                Ok(v) if v == i.to_le_bytes() => {}
                _ => return 4,
            }
        }
        i32::from(acked.len() < 100) // the storm must not starve progress
    });
    let mut os = Os::new(OsConfig {
        vm_frames: 1024,
        escalation: EscalationPolicy::unbounded(),
        ..Default::default()
    });
    os.set_fault_hook(Box::new(PeriodicCrash::new("ds", 20_000)));
    let mut host = Host::new(os, registry);
    let outcome = host.run("main", &[]);
    let os = host.into_engine();
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "{outcome:?}"
    );
    assert!(os.metrics().recovered_rollback > 0);
    assert!(os.audit().is_empty());
}

#[test]
fn deep_process_trees_survive_pm_fault_load() {
    osiris::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        sys.set_retry_ecrash(true);
        // A 3-deep process tree, several times, under PM fault load.
        for _ in 0..6 {
            let child = loop {
                match sys.fork_run(|c| {
                    c.set_retry_ecrash(true);
                    let gc = loop {
                        match c.fork_run(|g| g.getpid().map(|p| (p.0 % 7) as i32).unwrap_or(9)) {
                            Ok(p) => break p,
                            Err(osiris::kernel::abi::Errno::ECRASH) => continue,
                            Err(_) => return 8,
                        }
                    };
                    match c.waitpid(gc) {
                        Ok(code) if code < 7 => 0,
                        _ => 8,
                    }
                }) {
                    Ok(p) => break p,
                    Err(osiris::kernel::abi::Errno::ECRASH) => continue,
                    Err(_) => return 1,
                }
            };
            if sys.waitpid(child) != Ok(0) {
                return 1;
            }
        }
        0
    });
    let mut os = Os::new(OsConfig {
        vm_frames: 2048,
        escalation: EscalationPolicy::unbounded(),
        ..Default::default()
    });
    os.set_fault_hook(Box::new(PeriodicCrash::new("pm", 30_000)));
    let mut host = Host::new(os, registry);
    let outcome = host.run("main", &[]);
    let os = host.into_engine();
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "{outcome:?}"
    );
    assert!(os.audit().is_empty(), "{:?}", os.audit());
}
