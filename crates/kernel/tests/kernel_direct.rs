//! Direct kernel tests with a minimal two-component protocol — no OS
//! servers involved. These exercise the Reliable Computing Base itself:
//! message routing, recovery-window lifecycle, crash decisions under each
//! policy, timers, hang handling, instrumentation modes and privileged
//! operations.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use osiris_checkpoint::{Heap, PCell};
use osiris_core::{PolicyKind, SeepClass, SeepMeta};
use osiris_kernel::abi::{Pid, SysReply};
use osiris_kernel::{
    Ctx, Delivery, Endpoint, FaultEffect, FaultHook, Instrumentation, Kernel, KernelConfig, MsgId,
    Probe, Protocol, Server, ShutdownKind, SyscallId, WatchdogConfig,
};
use osiris_trace::{TraceConfig, TraceEvent};

/// A tiny protocol: an echo service plus a "mutator" that asks a peer to
/// bump a counter.
#[derive(Clone, Debug)]
enum Msg {
    /// User request: echo back `v` (read-only handler).
    Echo(u64),
    /// User request: echo back `v`, then pass a site after the reply.
    EchoLate(u64),
    /// User request: increment the peer's counter via `BumpPeer`.
    BumpViaPeer,
    /// User request: query the peer read-only (non-state-modifying send),
    /// then mutate local state and reply.
    PeekPeer,
    /// User request: arm a self-timer.
    ArmTick,
    /// Request: keep these bytes (the handler moves them out of the
    /// message it is handed). Kept outside the heap, so it modifies no
    /// state, and the watchdog may re-drive it after a lost reply.
    Keep(Vec<u8>),
    /// Server-to-server state-modifying request.
    Bump,
    /// Server-to-server read-only query.
    Peek,
    /// Reply carrying a value (read by repliers' peers in richer tests).
    #[allow(dead_code)]
    RVal(u64),
    /// Crash reply (error virtualization).
    RCrash,
    /// Crash notification to the privileged component.
    Notify(u8),
    /// Timer payload.
    Tick,
    /// Reply to the user.
    UserReply(SysReply),
}

impl Protocol for Msg {
    fn seep(&self) -> SeepMeta {
        match self {
            Msg::Echo(_) | Msg::EchoLate(_) | Msg::BumpViaPeer | Msg::PeekPeer | Msg::ArmTick => {
                SeepMeta::request(SeepClass::StateModifying)
            }
            Msg::Bump => SeepMeta::request(SeepClass::StateModifying),
            Msg::Peek | Msg::Keep(_) => SeepMeta::request(SeepClass::NonStateModifying),
            Msg::RVal(_) | Msg::RCrash | Msg::UserReply(_) => {
                SeepMeta::reply(SeepClass::StateModifying)
            }
            Msg::Notify(_) | Msg::Tick => SeepMeta::notification(SeepClass::NonStateModifying),
        }
    }
    fn crash_reply() -> Self {
        Msg::RCrash
    }
    fn crash_notify(target: u8) -> Self {
        Msg::Notify(target)
    }
    fn into_user_reply(self) -> Option<SysReply> {
        match self {
            Msg::UserReply(r) => Some(r),
            _ => None,
        }
    }
    fn label(&self) -> &'static str {
        "msg"
    }
}

/// The privileged "RS" stand-in: recovers whatever the kernel reports.
#[derive(Clone)]
struct MiniRs {
    recoveries: Arc<AtomicU32>,
}

impl Server<Msg> for MiniRs {
    fn name(&self) -> &'static str {
        "mini-rs"
    }
    fn init(&mut self, _ctx: &mut Ctx<'_, Msg>) {}
    fn handle(&mut self, msg: Delivery<'_, Msg>, ctx: &mut Ctx<'_, Msg>) {
        match msg.payload {
            Msg::Notify(target) => {
                self.recoveries.fetch_add(1, Ordering::Relaxed);
                ctx.recover(target);
            }
            // A faulty RS: every privileged operation that names a
            // component names one that does not exist.
            Msg::Bump => {
                ctx.recover(250);
                ctx.kill_hung(250);
                ctx.quarantine(250);
                ctx.refresh_image(250);
                ctx.record_intent(250, osiris_axiom::IntentPhaseCode::Issued);
                ctx.note_escalation(250, 1, 10, true);
                ctx.reply(msg.return_path(), Msg::UserReply(SysReply::Ok));
            }
            _ => {}
        }
    }
    fn clone_box(&self) -> Box<dyn Server<Msg>> {
        Box::new(self.clone())
    }
}

/// A worker holding one counter. `Echo` is pure; `Bump` mutates;
/// `BumpViaPeer` sends a state-modifying request to the peer (closing its
/// own window) before replying.
#[derive(Clone)]
struct Worker {
    peer: Option<Endpoint>,
    counter: Option<PCell<u64>>,
}

impl Worker {
    fn new(peer: Option<Endpoint>) -> Self {
        Worker {
            peer,
            counter: None,
        }
    }
}

impl Server<Msg> for Worker {
    fn name(&self) -> &'static str {
        "worker"
    }
    fn init(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.counter = Some(ctx.heap().alloc_cell("counter", 0));
    }
    fn handle(&mut self, msg: Delivery<'_, Msg>, ctx: &mut Ctx<'_, Msg>) {
        let counter = self.counter.expect("init ran");
        match &msg.payload {
            Msg::Echo(v) => {
                ctx.site("worker.echo");
                ctx.reply(msg.return_path(), Msg::UserReply(SysReply::Val(*v as i64)));
            }
            Msg::EchoLate(v) => {
                ctx.site("worker.echo.early");
                ctx.reply(msg.return_path(), Msg::UserReply(SysReply::Val(*v as i64)));
                ctx.site("worker.echo.late");
            }
            Msg::Bump => {
                ctx.site("worker.bump.pre");
                counter.update(ctx.heap(), |c| *c += 1);
                ctx.site("worker.bump.post");
                let v = counter.get(ctx.heap_ref());
                let reply = if matches!(msg.src, Endpoint::Process(_)) {
                    Msg::UserReply(SysReply::Val(v as i64))
                } else {
                    Msg::RVal(v)
                };
                ctx.reply(msg.return_path(), reply);
            }
            Msg::Peek => {
                ctx.site("worker.peek");
                let v = counter.get(ctx.heap_ref());
                let reply = if matches!(msg.src, Endpoint::Process(_)) {
                    Msg::UserReply(SysReply::Val(v as i64))
                } else {
                    Msg::RVal(v)
                };
                ctx.reply(msg.return_path(), reply);
            }
            Msg::BumpViaPeer => {
                ctx.site("worker.relay.pre");
                counter.update(ctx.heap(), |c| *c += 100);
                let peer = self.peer.expect("relay worker has a peer");
                ctx.send_request(peer, Msg::Bump);
                ctx.site("worker.relay.post");
                // Reply immediately (fire-and-forget relay semantics keep
                // the test single-step).
                ctx.reply(msg.return_path(), Msg::UserReply(SysReply::Ok));
                // Deferred bookkeeping after the reply: with window-gated
                // instrumentation this write is NOT logged.
                counter.update(ctx.heap(), |c| *c += 1);
            }
            Msg::PeekPeer => {
                ctx.site("worker.peekpeer.pre");
                counter.update(ctx.heap(), |c| *c += 7);
                let peer = self.peer.expect("peeking worker has a peer");
                ctx.send_request(peer, Msg::Peek);
                ctx.site("worker.peekpeer.post");
                ctx.reply(msg.return_path(), Msg::UserReply(SysReply::Ok));
            }
            Msg::ArmTick => {
                ctx.site("worker.arm");
                ctx.set_timer(50, Msg::Tick);
                ctx.reply(msg.return_path(), Msg::UserReply(SysReply::Ok));
            }
            Msg::Tick => {
                ctx.site("worker.tick");
                counter.update(ctx.heap(), |c| *c += 1000);
            }
            _ => {}
        }
    }
    fn clone_box(&self) -> Box<dyn Server<Msg>> {
        Box::new(self.clone())
    }
}

/// An RS that benches every component the kernel reports crashed instead
/// of recovering it.
#[derive(Clone)]
struct BenchingRs;

impl Server<Msg> for BenchingRs {
    fn name(&self) -> &'static str {
        "benching-rs"
    }
    fn init(&mut self, _ctx: &mut Ctx<'_, Msg>) {}
    fn handle(&mut self, msg: Delivery<'_, Msg>, ctx: &mut Ctx<'_, Msg>) {
        if let Msg::Notify(target) = msg.payload {
            ctx.quarantine(target);
        }
    }
    fn clone_box(&self) -> Box<dyn Server<Msg>> {
        Box::new(self.clone())
    }
}

/// Hook crashing at one site, once or always.
struct CrashAt {
    site: &'static str,
    always: bool,
    fired: bool,
}

impl FaultHook for CrashAt {
    fn on_site(&mut self, probe: &Probe) -> FaultEffect {
        if probe.site == self.site && (self.always || !self.fired) {
            self.fired = true;
            FaultEffect::Panic
        } else {
            FaultEffect::None
        }
    }
}

fn build(policy: PolicyKind, instr: Instrumentation) -> (Kernel<Msg>, Arc<AtomicU32>) {
    let recoveries = Arc::new(AtomicU32::new(0));
    let mut kernel = Kernel::new(KernelConfig {
        policy: policy.instantiate(),
        instrumentation: instr,
        ..Default::default()
    });
    let rs = kernel.register(
        Box::new(MiniRs {
            recoveries: Arc::clone(&recoveries),
        }),
        true,
    );
    assert_eq!(rs, Endpoint::Component(0));
    let w1 = kernel.register(Box::new(Worker::new(None)), false);
    let relay = kernel.register(Box::new(Worker::new(Some(w1))), false);
    assert_eq!(w1, Endpoint::Component(1));
    assert_eq!(relay, Endpoint::Component(2));
    kernel.init_components();
    (kernel, recoveries)
}

/// The per-component reports, assembled as `Os::reports` does.
fn reports(kernel: &Kernel<Msg>) -> Vec<osiris_kernel::ComponentReport> {
    kernel.series().component_reports(&kernel.owners())
}

/// The counter of the worker at component `c` (1, or 2 for the relay).
fn counter(kernel: &Kernel<Msg>, c: u8) -> u64 {
    let (worker, heap) = worker(kernel, c);
    worker.counter.expect("init ran").get(heap)
}

/// The worker at component `c` and its heap.
fn worker(kernel: &Kernel<Msg>, c: u8) -> (&Worker, &Heap) {
    kernel
        .server::<Worker>(Endpoint::Component(c))
        .expect("a worker")
}

#[test]
fn user_request_roundtrip() {
    let (mut kernel, _) = build(PolicyKind::Enhanced, Instrumentation::WindowGated);
    kernel.send_user_request(Endpoint::Component(1), Msg::Echo(42), SyscallId(1), Pid(1));
    kernel.pump();
    let replies = kernel.take_user_replies();
    assert_eq!(replies, vec![(SyscallId(1), Pid(1), SysReply::Val(42))]);
    assert!(kernel.quiescent());
}

#[test]
fn crash_in_open_window_rolls_back_and_replies_ecrash() {
    let (mut kernel, recoveries) = build(PolicyKind::Enhanced, Instrumentation::WindowGated);
    kernel.set_fault_hook(Box::new(CrashAt {
        site: "worker.bump.post",
        always: false,
        fired: false,
    }));
    // Bump arrives from another component so the crash reply is a message.
    kernel.send_user_request(Endpoint::Component(1), Msg::Bump, SyscallId(1), Pid(1));
    kernel.pump();
    // The crash occurred *after* the counter increment: rollback must undo
    // it (the counter is 0 again), and the user gets ECRASH.
    let replies = kernel.take_user_replies();
    assert_eq!(
        replies,
        vec![(
            SyscallId(1),
            Pid(1),
            SysReply::Err(osiris_kernel::abi::Errno::ECRASH)
        )]
    );
    assert_eq!(counter(&kernel, 1), 0, "increment must be rolled back");
    assert_eq!(recoveries.load(Ordering::Relaxed), 1, "RS saw the crash");
    assert_eq!(kernel.series().metrics().recovered_rollback, 1);
    assert!(kernel.shutdown_state().is_none());
}

#[test]
fn crash_after_state_modifying_send_is_controlled_shutdown() {
    let (mut kernel, _) = build(PolicyKind::Enhanced, Instrumentation::WindowGated);
    kernel.set_fault_hook(Box::new(CrashAt {
        site: "worker.relay.post",
        always: false,
        fired: false,
    }));
    kernel.send_user_request(
        Endpoint::Component(2),
        Msg::BumpViaPeer,
        SyscallId(1),
        Pid(1),
    );
    kernel.pump();
    match kernel.shutdown_state() {
        Some(ShutdownKind::Controlled(reason)) => {
            assert!(reason.contains("worker"), "reason: {reason}")
        }
        other => panic!("expected controlled shutdown, got {other:?}"),
    }
}

#[test]
fn messages_sent_before_crash_are_delivered() {
    // The relay's Bump to the peer left before the crash: it must still be
    // processed (it is on the wire), even though the relay rolled... the
    // relay CANNOT roll back (window closed) — shutdown. But the peer's
    // inbox kept the message; under the *naive* policy the system continues
    // and the peer processes it.
    let (mut kernel, _) = build(PolicyKind::Naive, Instrumentation::WindowGated);
    kernel.set_fault_hook(Box::new(CrashAt {
        site: "worker.relay.post",
        always: false,
        fired: false,
    }));
    kernel.send_user_request(
        Endpoint::Component(2),
        Msg::BumpViaPeer,
        SyscallId(1),
        Pid(1),
    );
    kernel.pump();
    assert!(kernel.shutdown_state().is_none());
    assert_eq!(counter(&kernel, 1), 1, "peer processed the in-flight Bump");
    // Naive keeps the relay's half-applied +100 (the crash fired before
    // the deferred bookkeeping write).
    assert_eq!(counter(&kernel, 2), 100);
}

#[test]
fn stateless_restart_resets_state() {
    let (mut kernel, _) = build(PolicyKind::Stateless, Instrumentation::WindowGated);
    // Two successful bumps...
    kernel.send_user_request(Endpoint::Component(1), Msg::Bump, SyscallId(1), Pid(1));
    kernel.send_user_request(Endpoint::Component(1), Msg::Bump, SyscallId(2), Pid(1));
    kernel.pump();
    assert_eq!(counter(&kernel, 1), 2);
    // ...then a crash: stateless restart loses both.
    kernel.set_fault_hook(Box::new(CrashAt {
        site: "worker.bump.pre",
        always: false,
        fired: false,
    }));
    kernel.send_user_request(Endpoint::Component(1), Msg::Bump, SyscallId(3), Pid(1));
    kernel.pump();
    assert_eq!(
        counter(&kernel, 1),
        0,
        "stateless restart resets the counter"
    );
    assert_eq!(kernel.series().metrics().recovered_fresh, 1);
}

#[test]
fn persistent_fault_is_survived_by_discarding_each_request() {
    let (mut kernel, recoveries) = build(PolicyKind::Enhanced, Instrumentation::WindowGated);
    kernel.set_fault_hook(Box::new(CrashAt {
        site: "worker.bump.pre",
        always: true,
        fired: false,
    }));
    for i in 0..5 {
        kernel.send_user_request(Endpoint::Component(1), Msg::Bump, SyscallId(i), Pid(1));
    }
    kernel.pump();
    let replies = kernel.take_user_replies();
    assert_eq!(replies.len(), 5);
    assert!(replies
        .iter()
        .all(|(_, _, r)| *r == SysReply::Err(osiris_kernel::abi::Errno::ECRASH)));
    assert_eq!(
        recoveries.load(Ordering::Relaxed),
        5,
        "each request recovered"
    );
    assert!(
        kernel.shutdown_state().is_none(),
        "persistent faults never wedge the system"
    );
}

#[test]
fn timers_fire_and_mutate_state() {
    let (mut kernel, _) = build(PolicyKind::Enhanced, Instrumentation::WindowGated);
    kernel.send_user_request(Endpoint::Component(1), Msg::ArmTick, SyscallId(1), Pid(1));
    kernel.pump();
    assert_eq!(kernel.take_user_replies().len(), 1);
    assert!(kernel.has_pending_timers());
    let before = kernel.now();
    assert!(kernel.fire_next_timer());
    kernel.pump();
    assert!(
        kernel.now() >= before + 50,
        "clock advanced to the deadline"
    );
    assert_eq!(counter(&kernel, 1), 1000, "tick handler ran");
}

#[test]
fn timer_notification_crash_shuts_down_under_osiris_policies() {
    // A Tick is not a replyable request: error virtualization is not
    // possible, so the controlled shutdown path must be taken.
    let (mut kernel, _) = build(PolicyKind::Enhanced, Instrumentation::WindowGated);
    kernel.set_fault_hook(Box::new(CrashAt {
        site: "worker.tick",
        always: false,
        fired: false,
    }));
    kernel.send_user_request(Endpoint::Component(1), Msg::ArmTick, SyscallId(1), Pid(1));
    kernel.pump();
    let _ = kernel.take_user_replies();
    assert!(kernel.shutdown_state().is_none());
    assert!(kernel.fire_next_timer());
    kernel.pump();
    match kernel.shutdown_state() {
        Some(ShutdownKind::Controlled(_)) => {}
        other => panic!("expected controlled shutdown on timer crash, got {other:?}"),
    }
}

#[test]
fn non_state_modifying_send_keeps_enhanced_window_open() {
    // Crash after the read-only Peek: enhanced recovers (the +7 local write
    // is rolled back), pessimistic shuts down.
    let (mut kernel, _) = build(PolicyKind::Enhanced, Instrumentation::WindowGated);
    kernel.set_fault_hook(Box::new(CrashAt {
        site: "worker.peekpeer.post",
        always: false,
        fired: false,
    }));
    kernel.send_user_request(Endpoint::Component(2), Msg::PeekPeer, SyscallId(1), Pid(1));
    kernel.pump();
    let replies = kernel.take_user_replies();
    assert_eq!(
        replies,
        vec![(
            SyscallId(1),
            Pid(1),
            SysReply::Err(osiris_kernel::abi::Errno::ECRASH)
        )]
    );
    assert_eq!(counter(&kernel, 2), 0, "the +7 was rolled back");
    assert!(kernel.shutdown_state().is_none());

    let (mut kernel, _) = build(PolicyKind::Pessimistic, Instrumentation::WindowGated);
    kernel.set_fault_hook(Box::new(CrashAt {
        site: "worker.peekpeer.post",
        always: false,
        fired: false,
    }));
    kernel.send_user_request(Endpoint::Component(2), Msg::PeekPeer, SyscallId(1), Pid(1));
    kernel.pump();
    assert!(
        matches!(kernel.shutdown_state(), Some(ShutdownKind::Controlled(_))),
        "pessimistic closed at the Peek send"
    );
}

#[test]
fn instrumentation_off_still_recovers_nothing_is_logged() {
    // With instrumentation Off, windows open but nothing is logged; a crash
    // in-window cannot roll back writes. This mode exists only for
    // fault-free performance baselines — verify the accounting.
    let (mut kernel, _) = build(PolicyKind::Enhanced, Instrumentation::Off);
    kernel.send_user_request(Endpoint::Component(1), Msg::Bump, SyscallId(1), Pid(1));
    kernel.pump();
    let report = reports(&kernel)
        .into_iter()
        .find(|r| r.name == "worker" && r.endpoint == 1)
        .expect("worker report");
    assert!(report.writes > 0);
    assert_eq!(report.undo_appends, 0, "Off must log nothing");
}

#[test]
fn instrumentation_always_logs_everything() {
    let (mut kernel, _) = build(PolicyKind::Enhanced, Instrumentation::Always);
    kernel.send_user_request(
        Endpoint::Component(2),
        Msg::BumpViaPeer,
        SyscallId(1),
        Pid(1),
    );
    kernel.pump();
    let relay = reports(&kernel)
        .into_iter()
        .find(|r| r.name == "worker" && r.endpoint == 2)
        .expect("relay report");
    // The +100 write happens before the window closes; with Always the
    // writes after the close are logged too. Some logged writes may be
    // elided by the journal's coalescing, but every write is accounted as
    // either an append or a coalesced append — none escape the log.
    assert_eq!(
        relay.undo_appends + relay.coalesced_writes,
        relay.writes,
        "Always must log (or coalesce) every write"
    );
}

#[test]
fn always_overrides_gating_requests_and_counts_them() {
    // Under Always, the kernel force-logs at boot; any later
    // `set_logging(false)` (e.g. the Off-mode deliver path, or component
    // code gating itself) must be overridden — and visibly counted — rather
    // than silently ignored. Under WindowGated the same request succeeds and
    // the counter stays zero.
    let (mut kernel, _) = build(PolicyKind::Enhanced, Instrumentation::Always);
    kernel.send_user_request(Endpoint::Component(1), Msg::Bump, SyscallId(1), Pid(1));
    kernel.pump();
    let (_, heap) = worker(&kernel, 1);
    assert!(
        heap.stats().gating_overrides > 0,
        "window completion gates off; Always must override and count it"
    );
    assert!(heap.logging(), "force-logging keeps the gate open");

    let (mut kernel, _) = build(PolicyKind::Enhanced, Instrumentation::WindowGated);
    kernel.send_user_request(Endpoint::Component(1), Msg::Bump, SyscallId(1), Pid(1));
    kernel.pump();
    let (_, gated) = worker(&kernel, 1);
    assert_eq!(
        gated.stats().gating_overrides,
        0,
        "no force-logging, no overrides"
    );
    assert!(!gated.logging(), "the gate actually closed");
    // WindowGated logs strictly less than Always on the same schedule.
    let always_report = {
        let (mut k, _) = build(PolicyKind::Enhanced, Instrumentation::Always);
        k.send_user_request(
            Endpoint::Component(2),
            Msg::BumpViaPeer,
            SyscallId(1),
            Pid(1),
        );
        k.pump();
        reports(&k)
            .into_iter()
            .find(|r| r.endpoint == 2)
            .expect("relay")
    };
    let gated_report = {
        let (mut k, _) = build(PolicyKind::Enhanced, Instrumentation::WindowGated);
        k.send_user_request(
            Endpoint::Component(2),
            Msg::BumpViaPeer,
            SyscallId(1),
            Pid(1),
        );
        k.pump();
        reports(&k)
            .into_iter()
            .find(|r| r.endpoint == 2)
            .expect("relay")
    };
    assert_eq!(
        always_report.writes, gated_report.writes,
        "identical schedule"
    );
    assert!(
        always_report.undo_appends + always_report.coalesced_writes
            >= gated_report.undo_appends + gated_report.coalesced_writes,
        "Always logs at least as much as WindowGated"
    );
}

#[test]
fn gated_instrumentation_logs_only_in_window() {
    let (mut kernel, _) = build(PolicyKind::Pessimistic, Instrumentation::WindowGated);
    kernel.send_user_request(
        Endpoint::Component(2),
        Msg::BumpViaPeer,
        SyscallId(1),
        Pid(1),
    );
    kernel.pump();
    let relay = reports(&kernel)
        .into_iter()
        .find(|r| r.name == "worker" && r.endpoint == 2)
        .expect("relay report");
    assert!(
        relay.undo_appends < relay.writes,
        "pessimistic gating must skip post-close writes ({} vs {})",
        relay.undo_appends,
        relay.writes
    );
}

#[test]
fn endpoint_lookup_and_reports() {
    let (kernel, _) = build(PolicyKind::Enhanced, Instrumentation::WindowGated);
    assert_eq!(kernel.endpoint_of("mini-rs"), Some(Endpoint::Component(0)));
    assert_eq!(kernel.endpoint_of("nope"), None);
    assert_eq!(kernel.component_count(), 3);
    assert!(kernel.server::<Worker>(Endpoint::Component(2)).is_some());
    assert!(kernel.server::<Worker>(Endpoint::Component(0)).is_none());
    assert!(kernel.server::<Worker>(Endpoint::Component(3)).is_none());
    assert!(kernel.server::<Worker>(Endpoint::Kernel).is_none());
    let all = reports(&kernel);
    assert_eq!(all.len(), 3);
    assert!(all.iter().all(|r| r.crashes == 0));
}

#[test]
fn rs_crash_is_recovered_by_the_kernel_itself() {
    // A fault in the privileged component while it is idle-processing an
    // ordinary message: the kernel recovers it directly.
    let (mut kernel, _) = build(PolicyKind::Enhanced, Instrumentation::WindowGated);
    struct NoOpHook;
    impl FaultHook for NoOpHook {
        fn on_site(&mut self, probe: &Probe) -> FaultEffect {
            let _ = probe;
            FaultEffect::None
        }
    }
    // MiniRs has no sites; exercise the spurious-recovery path instead:
    // recover() on a non-crashed target must be a harmless no-op.
    kernel.set_fault_hook(Box::new(NoOpHook));
    kernel.send_user_request(Endpoint::Component(1), Msg::Echo(9), SyscallId(1), Pid(1));
    kernel.pump();
    assert!(kernel.shutdown_state().is_none());
    assert!(kernel.control_state().recovering.is_none());
}

#[test]
fn out_of_range_priv_op_targets_are_rejected_not_indexed() {
    // The privileged RS is inside the fault model, and the kernel executes
    // its privileged ops below the catch_unwind boundary: an endpoint index
    // past the component table must be dropped, not panic the host.
    let (mut kernel, _) = build(PolicyKind::Enhanced, Instrumentation::WindowGated);
    let events_before = kernel.control_state().events;
    kernel.send_user_request(Endpoint::Component(0), Msg::Bump, SyscallId(1), Pid(1));
    kernel.pump();
    assert_eq!(
        kernel.take_user_replies(),
        vec![(SyscallId(1), Pid(1), SysReply::Ok)]
    );
    let control = kernel.control_state();
    assert_eq!(
        control.statuses,
        [osiris_axiom::CompStatusCode::Alive; osiris_axiom::MAX_COMPS],
        "no component's status changes"
    );
    assert!(control.quarantined_set().next().is_none() && control.recovering.is_none());
    assert!(kernel.shutdown_state().is_none());
    // Nothing was sealed on behalf of component 250: only the RS's own
    // window open/close reached the axiom.
    assert_eq!(kernel.control_state().events, events_before + 2);
}

/// Crashes once at `site` and records `(site, replyable)` of every probe.
struct CrashOnceRecording {
    site: &'static str,
    fired: bool,
    seen: Arc<std::sync::Mutex<Vec<(&'static str, bool)>>>,
}

impl FaultHook for CrashOnceRecording {
    fn on_site(&mut self, probe: &Probe) -> FaultEffect {
        self.seen
            .lock()
            .expect("probe log")
            .push((probe.site, probe.replyable));
        if probe.site == self.site && !self.fired {
            self.fired = true;
            FaultEffect::Panic
        } else {
            FaultEffect::None
        }
    }
}

#[test]
fn crashed_invocation_leaves_nothing_behind_in_the_lent_scratch() {
    // The handler's emission buffers belong to the kernel and are lent to
    // each invocation. The relay sends one request to its peer and then
    // panics: that request is routed exactly once, and the relay's next
    // delivery starts from a clean slate.
    let (mut kernel, _) = build(PolicyKind::Naive, Instrumentation::WindowGated);
    let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
    kernel.set_fault_hook(Box::new(CrashOnceRecording {
        site: "worker.relay.post",
        fired: false,
        seen: Arc::clone(&seen),
    }));
    let relay = Endpoint::Component(2);
    kernel.send_user_request(relay, Msg::Echo(1), SyscallId(1), Pid(1));
    kernel.send_user_request(relay, Msg::BumpViaPeer, SyscallId(2), Pid(1));
    kernel.pump();
    assert_eq!(
        kernel.take_user_replies(),
        vec![
            (SyscallId(1), Pid(1), SysReply::Val(1)),
            (
                SyscallId(2),
                Pid(1),
                SysReply::Err(osiris_kernel::abi::Errno::ECRASH)
            ),
        ]
    );
    assert_eq!(counter(&kernel, 1), 1, "the Bump sent before the crash");

    // The restarted relay handles two more requests: each produces its own
    // reply and nothing else. A Bump left in `out` would reach the peer a
    // second time, a stale `replied_*` flag would make the probe report the
    // request as already answered.
    kernel.send_user_request(relay, Msg::Echo(7), SyscallId(3), Pid(1));
    kernel.send_user_request(relay, Msg::ArmTick, SyscallId(4), Pid(1));
    kernel.pump();
    assert_eq!(
        kernel.take_user_replies(),
        vec![
            (SyscallId(3), Pid(1), SysReply::Val(7)),
            (SyscallId(4), Pid(1), SysReply::Ok),
        ]
    );
    assert_eq!(counter(&kernel, 1), 1, "no message was routed twice");
    assert!(kernel.quiescent());
    assert!(kernel.fire_next_timer(), "the one timer ArmTick set");
    kernel.pump();
    assert!(!kernel.has_pending_timers());
    assert_eq!(
        counter(&kernel, 2),
        1100,
        "the +100 Naive keeps and exactly one Tick"
    );
    let seen = seen.lock().expect("probe log");
    let echoes: Vec<bool> = seen
        .iter()
        .filter(|(site, _)| *site == "worker.echo")
        .map(|(_, replyable)| *replyable)
        .collect();
    assert_eq!(
        echoes,
        [true, true],
        "every delivery starts unreplied: {seen:?}"
    );
}

#[test]
fn shutdown_kind_predicates() {
    assert!(ShutdownKind::Controlled("x".into()).is_controlled());
    assert!(!ShutdownKind::Crash("y".into()).is_controlled());
}

/// Loses the handler's reply at `worker.echo.early`, then crashes at
/// `worker.echo.late`.
struct DropThenCrash;

impl FaultHook for DropThenCrash {
    fn on_site(&mut self, probe: &Probe) -> FaultEffect {
        match probe.site {
            "worker.echo.early" => FaultEffect::DropReply,
            "worker.echo.late" => FaultEffect::Panic,
            _ => FaultEffect::None,
        }
    }
}

/// Runs one `EchoLate(5)` on a worker that crashes after replying and is
/// benched for it; `lose_reply` loses the reply on the wire first, under
/// the watchdog. The replies the requester got.
fn bench_after_reply(lose_reply: bool) -> Vec<(SyscallId, Pid, SysReply)> {
    let mut kernel = Kernel::new(KernelConfig {
        policy: PolicyKind::Enhanced.instantiate(),
        watchdog: osiris_kernel::WatchdogConfig {
            enabled: lose_reply,
        },
        ..Default::default()
    });
    kernel.register(Box::new(BenchingRs), true);
    let worker = kernel.register(Box::new(Worker::new(None)), false);
    kernel.init_components();
    kernel.set_fault_hook(if lose_reply {
        Box::new(DropThenCrash)
    } else {
        Box::new(CrashAt {
            site: "worker.echo.late",
            always: false,
            fired: false,
        })
    });
    kernel.send_user_request(worker, Msg::EchoLate(5), SyscallId(1), Pid(1));
    kernel.pump();
    // The lost reply's retry is parked on a timer.
    while kernel.fire_next_timer() {
        kernel.pump();
    }
    assert_eq!(
        kernel.control_state().status(1),
        osiris_axiom::CompStatusCode::Quarantined
    );
    kernel.take_user_replies()
}

/// A component benched for a crash after its reply got through must not
/// answer that request again: the requester gets the reply, and no
/// `E_CRASH` after it.
#[test]
fn a_benched_component_does_not_answer_a_replied_request_twice() {
    assert_eq!(
        bench_after_reply(false),
        vec![(SyscallId(1), Pid(1), SysReply::Val(5))]
    );
}

/// A reply lost on the wire did not get through: the benched component's
/// requester still gets its one answer, `E_CRASH`.
#[test]
fn a_benched_component_answers_a_request_whose_reply_was_lost() {
    assert_eq!(
        bench_after_reply(true),
        vec![(
            SyscallId(1),
            Pid(1),
            SysReply::Err(osiris_kernel::abi::Errno::ECRASH)
        )]
    );
}

/// Keeps the bytes of every `Keep` it is handed, by moving them out of the
/// message, then passes `keeper.kept` and replies.
#[derive(Clone)]
struct Keeper {
    kept: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl Server<Msg> for Keeper {
    fn name(&self) -> &'static str {
        "keeper"
    }
    fn init(&mut self, _ctx: &mut Ctx<'_, Msg>) {}
    fn handle(&mut self, msg: Delivery<'_, Msg>, ctx: &mut Ctx<'_, Msg>) {
        let rp = msg.return_path();
        if let Msg::Keep(bytes) = msg.take_payload() {
            self.kept.lock().expect("kept log").push(bytes);
            ctx.site("keeper.kept");
            ctx.reply(rp, Msg::UserReply(SysReply::Ok));
        }
    }
    fn clone_box(&self) -> Box<dyn Server<Msg>> {
        Box::new(self.clone())
    }
}

/// What an [`Asker`] saw: the `Keep` it sent (id, span), or a reply (the
/// id it answers, its user tag and span, whether it is `RCrash`).
#[derive(Debug, PartialEq)]
enum Seen {
    Asked(MsgId, Option<u64>),
    Answer(Option<MsgId>, Option<SyscallId>, Option<u64>, bool),
}

/// Forwards each user `Keep` to the keeper as its own request and logs
/// what comes back.
#[derive(Clone)]
struct Asker {
    keeper: Endpoint,
    seen: Arc<Mutex<Vec<Seen>>>,
}

impl Server<Msg> for Asker {
    fn name(&self) -> &'static str {
        "asker"
    }
    fn init(&mut self, _ctx: &mut Ctx<'_, Msg>) {}
    fn handle(&mut self, msg: Delivery<'_, Msg>, ctx: &mut Ctx<'_, Msg>) {
        let span = msg.span.map(|s| s.id);
        let seen = match msg.payload {
            Msg::Keep(_) => {
                let keep = msg.take_payload();
                Seen::Asked(ctx.send_request(self.keeper, keep), span)
            }
            Msg::RCrash => Seen::Answer(msg.reply_to, msg.user_tag, span, true),
            _ => Seen::Answer(msg.reply_to, msg.user_tag, span, false),
        };
        self.seen.lock().expect("asker log").push(seen);
    }
    fn clone_box(&self) -> Box<dyn Server<Msg>> {
        Box::new(self.clone())
    }
}

/// Drops the first reply sent after `site`, once.
struct DropReplyOnce {
    site: &'static str,
    fired: bool,
}

impl FaultHook for DropReplyOnce {
    fn on_site(&mut self, probe: &Probe) -> FaultEffect {
        if probe.site == self.site && !self.fired {
            self.fired = true;
            FaultEffect::DropReply
        } else {
            FaultEffect::None
        }
    }
}

/// A kernel with an RS, a keeper (endpoint 1) and an asker (endpoint 2),
/// recording its trace; the keeper's kept bytes and the asker's log.
#[allow(clippy::type_complexity)]
fn keeper_kernel(watchdog: bool) -> (Kernel<Msg>, Arc<Mutex<Vec<Vec<u8>>>>, Arc<Mutex<Vec<Seen>>>) {
    let mut kernel = Kernel::new(KernelConfig {
        policy: PolicyKind::Enhanced.instantiate(),
        trace: TraceConfig {
            enabled: true,
            ..Default::default()
        },
        watchdog: WatchdogConfig { enabled: watchdog },
        ..Default::default()
    });
    let recoveries = Arc::new(AtomicU32::new(0));
    kernel.register(Box::new(MiniRs { recoveries }), true);
    let kept = Arc::new(Mutex::new(Vec::new()));
    let keeper = Keeper {
        kept: Arc::clone(&kept),
    };
    let keeper = kernel.register(Box::new(keeper), false);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let asker = Asker {
        keeper,
        seen: Arc::clone(&seen),
    };
    kernel.register(Box::new(asker), false);
    kernel.init_components();
    (kernel, kept, seen)
}

/// A handler the kernel handed its message to keeps the payload and then
/// crashes: the kernel still holds the request's header, so its requester
/// gets exactly one `E_CRASH`, correlated by id, user tag and span.
#[test]
fn a_handler_that_took_its_payload_and_crashed_is_answered_once() {
    let (mut kernel, kept, seen) = keeper_kernel(false);
    kernel.set_fault_hook(Box::new(CrashAt {
        site: "keeper.kept",
        always: true,
        fired: false,
    }));
    let (keeper, asker) = (Endpoint::Component(1), Endpoint::Component(2));
    kernel.send_user_request(keeper, Msg::Keep(vec![7; 64]), SyscallId(1), Pid(3));
    kernel.pump();
    let ecrash = SysReply::Err(osiris_kernel::abi::Errno::ECRASH);
    assert_eq!(
        kernel.take_user_replies(),
        vec![(SyscallId(1), Pid(3), ecrash)]
    );
    let closed: Vec<(u64, bool)> = (kernel.tracer().snapshot().iter())
        .filter_map(|r| match r.event {
            TraceEvent::SpanClose { span, ok, .. } => Some((span, ok)),
            _ => None,
        })
        .collect();
    assert_eq!(closed, [(1, false)], "the request's own span, closed once");

    kernel.send_user_request(asker, Msg::Keep(vec![9; 64]), SyscallId(2), Pid(3));
    kernel.pump();
    let seen = seen.lock().expect("asker log");
    let Some(&Seen::Asked(id, span)) = seen.first() else {
        panic!("the asker forwards the Keep: {seen:?}");
    };
    assert_eq!(span, Some(2));
    assert_eq!(seen[1..], [Seen::Answer(Some(id), None, Some(2), true)]);
    assert_eq!(*kept.lock().expect("kept log"), [vec![7; 64], vec![9; 64]]);
    assert!(kernel.take_user_replies().is_empty());
    assert!(kernel.shutdown_state().is_none());
}

/// A request the watchdog watches is only lent to its handler. The handler
/// copies the payload out of it; when its reply is lost, the watchdog
/// re-drives the original request, payload intact.
#[test]
fn a_watched_request_is_redriven_with_its_payload_after_a_lost_reply() {
    let (mut kernel, kept, _) = keeper_kernel(true);
    kernel.set_fault_hook(Box::new(DropReplyOnce {
        site: "keeper.kept",
        fired: false,
    }));
    let payload: Vec<u8> = (0..=255).collect();
    let keep = Msg::Keep(payload.clone());
    kernel.send_user_request(Endpoint::Component(1), keep, SyscallId(1), Pid(3));
    kernel.pump();
    assert!(kernel.take_user_replies().is_empty(), "the reply was lost");
    // Nothing else runs: advance idle time so a service point passes the
    // deadline, then fire the retry the watchdog parks.
    let mut replies = Vec::new();
    for _ in 0..4 {
        kernel.charge(WatchdogConfig::DEADLINE_STATE_MODIFYING);
        kernel.pump();
        while kernel.fire_next_timer() {
            kernel.pump();
        }
        replies.extend(kernel.take_user_replies());
    }
    assert_eq!(replies, vec![(SyscallId(1), Pid(3), SysReply::Ok)]);
    assert_eq!(*kept.lock().expect("kept log"), [payload.clone(), payload]);
}
