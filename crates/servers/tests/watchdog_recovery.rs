//! Fail-silent fault tolerance end to end: virtual-time watchdog
//! detection, transparent bounded retry of non-state-modifying requests,
//! reply-integrity rejection, and the determinism properties (backoff
//! schedules per seed, byte-identical replies after a transparent retry).

use osiris_axiom::{AxiomEvent, VerdictCode};
use osiris_faults::{FaultKind, FaultPlan, Injector};
use osiris_kernel::abi::{OpenFlags, SeekFrom};
use osiris_kernel::{FaultEffect, FaultHook, Probe, RunOutcome, WatchdogConfig};
use osiris_metrics::validate_prometheus;
use osiris_servers::{Os, OsConfig};
use osiris_workloads::{Host, ProgramRegistry};

fn wd_cfg() -> OsConfig {
    OsConfig {
        watchdog: WatchdogConfig::on(),
        axiom: osiris_axiom::AxiomConfig::on(),
        vm_frames: 2048,
        ..Default::default()
    }
}

fn ds_get_plan(kind: FaultKind) -> FaultPlan {
    FaultPlan::once(kind, "ds.get.entry")
}

/// The client program: one acknowledged put, then a get whose reply the
/// fault plan may tamper with. Returns 0 only if the bytes read back are
/// byte-identical to the bytes written — the transparent retry must not
/// change what the client observes.
fn kv_registry() -> ProgramRegistry {
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        let payload = b"fail-silent-payload";
        if sys.ds_put("wd-key", payload).is_err() {
            return 3;
        }
        match sys.ds_get("wd-key") {
            Ok(v) if v == payload => 0,
            Ok(_) => 1,
            Err(_) => 2,
        }
    });
    registry
}

fn run_kv(cfg: OsConfig, plan: Option<&FaultPlan>) -> (RunOutcome, Os) {
    osiris_kernel::install_quiet_panic_hook();
    let mut os = Os::new(cfg);
    if let Some(p) = plan {
        os.set_fault_hook(Box::new(Injector::new(p)));
    }
    let mut host = Host::new(os, kv_registry());
    let outcome = host.run("main", &[]);
    (outcome, host.into_engine())
}

/// A dropped reply on a non-state-modifying request is detected by the
/// deadline → probe → reply-lost pipeline and transparently retried: the
/// client completes with byte-identical data and never sees an error.
#[test]
fn dropped_reply_is_transparently_retried() {
    let plan = ds_get_plan(FaultKind::ReplyDrop);
    let (outcome, os) = run_kv(wd_cfg(), Some(&plan));
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "client must complete transparently: {outcome:?}"
    );
    let m = os.metrics();
    assert!(m.wd_armed > 0, "requests must arm deadlines");
    assert!(
        m.wd_expired >= 1,
        "the dropped reply must expire a deadline"
    );
    assert_eq!(m.retries_granted, 1, "exactly one transparent retry");
    assert_eq!(m.retries_exhausted, 0);
    assert!(m.wd_verdicts >= 1);
    assert!(os.audit().is_empty(), "audit: {:?}", os.audit());
}

/// Without the watchdog the same run must still be clean — and the
/// fault-free baseline observes the same client-visible bytes (exit 0 in
/// both), proving the retried request is indistinguishable in exports.
#[test]
fn retried_request_is_byte_identical_to_unretried() {
    let (clean, clean_os) = run_kv(wd_cfg(), None);
    let plan = ds_get_plan(FaultKind::ReplyDrop);
    let (retried, retried_os) = run_kv(wd_cfg(), Some(&plan));
    assert!(matches!(clean, RunOutcome::Completed { init_code: 0, .. }));
    assert!(
        matches!(retried, RunOutcome::Completed { init_code: 0, .. }),
        "{retried:?}"
    );
    assert_eq!(clean_os.metrics().retries_granted, 0);
    assert_eq!(retried_os.metrics().retries_granted, 1);
    // Same data-plane effects: the suite's audit invariants hold and the
    // DS served the same acknowledged state in both runs (the program
    // compared the payload bytes itself before exiting 0).
    assert!(clean_os.audit().is_empty());
    assert!(retried_os.audit().is_empty());
}

/// A corrupt reply is rejected by the integrity check, the lying sender is
/// restarted, and the requester's message is retried against the recovered
/// instance — the client still completes with the correct bytes.
#[test]
fn corrupt_reply_is_rejected_and_sender_recovered() {
    let plan = ds_get_plan(FaultKind::ReplyCorrupt);
    let (outcome, os) = run_kv(wd_cfg(), Some(&plan));
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "client must complete after the corrupt reply: {outcome:?}"
    );
    let m = os.metrics();
    assert_eq!(m.wd_replies_rejected, 1, "the tampered reply is rejected");
    assert!(m.crashes >= 1, "corrupt reply treated as a sender crash");
    assert!(
        m.recovered_quiescent >= 1,
        "the lying sender must take a quiescent keep-state restart"
    );
    assert!(os.audit().is_empty(), "audit: {:?}", os.audit());
}

/// With the watchdog disabled (the default), fail-silent machinery stays
/// cold: nothing arms, nothing retries — the seed behaviour is untouched.
#[test]
fn disabled_watchdog_arms_nothing() {
    let (outcome, os) = run_kv(OsConfig::default(), None);
    assert!(matches!(
        outcome,
        RunOutcome::Completed { init_code: 0, .. }
    ));
    let m = os.metrics();
    assert_eq!(m.wd_armed, 0);
    assert_eq!(m.wd_expired, 0);
    assert_eq!(m.retries_granted + m.retries_denied, 0);
}

/// Extracts the (msg_id, attempt, granted, backoff) tuples of every sealed
/// retry decision, in order.
fn retry_decisions(os: &Os) -> Vec<(u64, u8, bool, u32)> {
    os.kernel()
        .axiom()
        .records()
        .iter()
        .filter_map(|r| match r.event {
            AxiomEvent::RetryDecision {
                msg_id,
                attempt,
                granted,
                backoff,
                ..
            } => Some((msg_id, attempt, granted, backoff)),
            _ => None,
        })
        .collect()
}

/// Backoff schedules are a pure function of (message id, attempt):
/// identical runs seal identical schedules, and the jitter stays bounded.
#[test]
fn backoff_schedule_is_deterministic_per_seed() {
    let plan = ds_get_plan(FaultKind::ReplyDrop);
    let (_, a) = run_kv(wd_cfg(), Some(&plan));
    let (_, b) = run_kv(wd_cfg(), Some(&plan));
    let da = retry_decisions(&a);
    assert!(!da.is_empty(), "the drop must seal a retry decision");
    assert_eq!(da, retry_decisions(&b), "same seed, same schedule");
    // The whole control-plane log — not just the retry lane — replays
    // byte-identically.
    assert_eq!(a.kernel().axiom().to_bytes(), b.kernel().axiom().to_bytes());

    // Jitter is bounded: every backoff stays within base·2^attempt plus a
    // quarter-base of jitter.
    for (_, attempt, granted, backoff) in &da {
        if !granted {
            continue;
        }
        let base = WatchdogConfig::BACKOFF_BASE << u64::from(*attempt);
        assert!(u64::from(*backoff) >= base, "backoff under base: {da:?}");
        assert!(
            u64::from(*backoff) < base + WatchdogConfig::BACKOFF_BASE / 4,
            "jitter out of range: {da:?}"
        );
    }
}

/// The watchdog metric families render as well-formed Prometheus
/// exposition (the offline `osiris-inspect lint` gate) and actually carry
/// samples after a fail-silent incident.
#[test]
fn watchdog_metrics_pass_promlint() {
    let plan = ds_get_plan(FaultKind::ReplyCorrupt);
    let (_, os) = run_kv(wd_cfg(), Some(&plan));
    let prom = os.metrics_prometheus();
    validate_prometheus(&prom).expect("watchdog exposition must lint");
    for family in [
        "osiris_watchdog_armed_total",
        "osiris_watchdog_deadline_expired_total",
        "osiris_watchdog_probes_total",
        "osiris_watchdog_verdicts_total",
        "osiris_watchdog_replies_rejected_total",
        "osiris_watchdog_detection_latency_cycles",
        "osiris_retry_decisions_total",
        "osiris_retry_exhausted_total",
    ] {
        assert!(prom.contains(family), "exposition lacks {family}");
    }
}

/// Fires each listed fault once, at the `n`-th time its site is reached.
struct Nth(Vec<(&'static str, u32, FaultEffect)>);

impl FaultHook for Nth {
    fn on_site(&mut self, probe: &Probe) -> FaultEffect {
        for (site, n, effect) in &mut self.0 {
            if *site == probe.site && *n > 0 {
                *n -= 1;
                if *n == 0 {
                    return *effect;
                }
            }
        }
        FaultEffect::None
    }
}

/// A request queued behind one its server hangs on is judged first (its
/// deadline is the shorter) and doomed with the hung one. After the
/// recovery the server handles it after all, and its reply is lost: the
/// watchdog watches it again, finds the reply lost and re-drives it. It
/// used to stay doomed, and its requester blocked for good.
#[test]
fn a_doomed_request_handled_after_the_recovery_stays_watched() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        if sys.ds_put("wd-key", b"v").is_err() {
            return 3;
        }
        let Ok(child) = sys.fork_run(|sys| match sys.ds_get("wd-key") {
            Ok(v) if v == b"v" => 0,
            _ => 1,
        }) else {
            return 4;
        };
        sys.set_retry_ecrash(true);
        let put = sys.ds_put("wd-key", b"v");
        match sys.waitpid(child) {
            Ok(0) if put.is_ok() => 0,
            Ok(code) => 10 + code,
            Err(_) => 5,
        }
    });
    let mut os = Os::new(wd_cfg());
    os.set_fault_hook(Box::new(Nth(vec![
        ("ds.put.entry", 2, FaultEffect::Hang),
        ("ds.get.entry", 1, FaultEffect::DropReply),
    ])));
    let mut host = Host::new(os, registry);
    let outcome = host.run("main", &[]);
    let os = host.into_engine();
    let m = os.metrics();
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "both requests must complete: {outcome:?}, {m:?}"
    );
    assert!(m.wd_verdicts >= 2, "a hang and a lost reply: {m:?}");
    assert!(m.retries_granted >= 2, "the put and the get are re-driven");
    assert!(os.audit().is_empty(), "audit: {:?}", os.audit());
}

/// Once VFS parks a program load on the disk, hangs VFS on its next
/// `stat`, then drops the reply of the program load when it completes.
#[derive(Default)]
struct HangWhileLoading {
    loading: bool,
    hung: bool,
    dropped: bool,
}

impl FaultHook for HangWhileLoading {
    fn on_site(&mut self, probe: &Probe) -> FaultEffect {
        match probe.site {
            "vfs.exec.entry" => self.loading = true,
            "vfs.stat.entry" if self.loading && !self.hung => {
                self.hung = true;
                return FaultEffect::Hang;
            }
            "vfs.exec.step" if self.hung && !self.dropped => {
                self.dropped = true;
                return FaultEffect::DropReply;
            }
            _ => {}
        }
        FaultEffect::None
    }
}

/// A program load parks a VFS thread on the disk, and the kernel keeps the
/// request in its slot. Another process's `stat` then hangs VFS; the held
/// load's slot expires first and finds VFS hung. After the recovery VFS
/// completes the load, but its reply is lost: the held load stays watched,
/// is found lost and is re-driven. It used to be doomed with the hang.
#[test]
fn a_request_held_at_a_hung_component_stays_watched() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("child", |_| 0);
    registry.register("main", |sys| {
        let Ok(prober) = sys.fork_run(|sys| {
            sys.set_retry_ecrash(true);
            for _ in 0..64 {
                let _ = sys.stat("/");
            }
            0
        }) else {
            return 1;
        };
        sys.set_retry_ecrash(true);
        let Ok(child) = sys.spawn("child", &[]) else {
            return 2;
        };
        match (sys.waitpid(child), sys.waitpid(prober)) {
            (Ok(0), Ok(0)) => 0,
            _ => 3,
        }
    });
    let mut os = Os::new(wd_cfg());
    os.set_fault_hook(Box::new(HangWhileLoading::default()));
    let mut host = Host::new(os, registry);
    let outcome = host.run("main", &[]);
    let os = host.into_engine();
    let m = os.metrics();
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "the spawn must complete: {outcome:?}, {m:?}"
    );
    assert_eq!(m.hangs, 1);
    // The load is re-driven where it was lost. (Doomed, it was left to its
    // requester: PM's own deadline on the spawn re-drove the whole spawn.)
    let hung = os
        .kernel()
        .axiom()
        .records()
        .iter()
        .find_map(|r| match r.event {
            AxiomEvent::WatchdogVerdict {
                verdict: VerdictCode::Hung,
                msg_id,
                ..
            } => Some(msg_id),
            _ => None,
        });
    let redriven = retry_decisions(&os)
        .iter()
        .any(|&(msg_id, _, granted, _)| granted && Some(msg_id) == hung);
    assert!(
        redriven,
        "the held load is re-driven: {:?}",
        retry_decisions(&os)
    );
    assert!(os.audit().is_empty(), "audit: {:?}", os.audit());
}

/// A `DiskWrite` is watched, so the kernel lends it to the disk, which
/// takes a handle to the block while the kernel keeps the original. A
/// transient crash at `disk.write.queue`, after the take, rolls the disk
/// back, and the kernel re-drives its original; `fsync` returns once that
/// write is acknowledged. A second file then pushes the synced blocks out
/// of the cache, and every one reads back from the disk byte for byte.
#[test]
fn a_crash_after_the_disk_takes_a_lent_block_loses_no_byte() {
    osiris_kernel::install_quiet_panic_hook();
    let mut registry = ProgramRegistry::new();
    registry.register("main", |sys| {
        let model: Vec<u8> = (0..16 * 1024).map(|i| (i % 253) as u8).collect();
        let (Ok(fd), Ok(other)) = (
            sys.open("/tmp/synced.bin", OpenFlags::RDWR_CREATE),
            sys.open("/tmp/thrash.bin", OpenFlags::RDWR_CREATE),
        ) else {
            return 1;
        };
        if sys.write(fd, &model) != Ok(model.len() as u32) || sys.fsync(fd).is_err() {
            return 2;
        }
        for _ in 0..16 {
            if sys.write(other, &[0xEE; 8192]) != Ok(8192) {
                return 3;
            }
        }
        if sys.seek(fd, SeekFrom::Start(0)).is_err() {
            return 4;
        }
        match sys.read(fd, model.len() as u32) {
            Ok(got) if got == model => 0,
            _ => 5,
        }
    });
    let mut os = Os::new(wd_cfg());
    let plan = FaultPlan::once(FaultKind::Crash, "disk.write.queue");
    os.set_fault_hook(Box::new(Injector::new(&plan)));
    let mut host = Host::new(os, registry);
    let outcome = host.run("main", &[]);
    let os = host.into_engine();
    let m = os.metrics();
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "every synced block must read back: {outcome:?}, {m:?}"
    );
    let disk = os.reports().into_iter().find(|r| r.name == "disk").unwrap();
    assert_eq!((disk.crashes, disk.recoveries), (1, 1));
    assert_eq!((m.recovered_rollback, m.retries_granted), (1, 1));
    assert!(os.audit().is_empty(), "audit: {:?}", os.audit());
}
