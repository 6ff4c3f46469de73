//! The microkernel: message passing, scheduling, crash detection and the
//! mechanics of recovery.
//!
//! This is the trusted substrate at the bottom of the Reliable Computing
//! Base (paper §V-A item 5). It delivers messages between fault-isolated
//! components, opens and completes recovery windows around handler
//! invocations, catches component crashes (panics), notifies the Recovery
//! Server, and executes the restart / rollback / reconciliation phases the
//! RS decides on (paper §IV-C).
//!
//! This file is the always-trusted core: configuration, the component
//! table, what falls due in virtual time (timers and parked retries), the
//! pump, handler invocation and message routing. It calls the planes in
//! the sibling modules and never implements their decisions: [`recovery`]
//! (privileged ops and the effects through which `osiris_core::conduct::Host`
//! captures a crash and executes the conduct, the recovery phases, the
//! shutdown and the quarantine), [`watchdog`] (the effects through which
//! `osiris_core::watchdog::Host` executes the watchdog's decisions:
//! deadlines, verdicts, retries) and [`snapshot`] (fork capture/adoption).
//!
//! The kernel reports what happens and computes no metric: each occurrence
//! is one `emit` (a trace event), one `seal` (an axiom event) — both
//! `conduct::Host`'s, in [`recovery`] — or one `Note`, and
//! `osiris_metrics::SeriesFold` folds all three into the series.

mod recovery;
mod snapshot;
mod watchdog;

pub use osiris_core::WatchdogConfig;
pub use snapshot::{CasFingerprint, CompSnapshot, KernelSnapshot};

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

use osiris_axiom::{
    bisect, AxiomConfig, AxiomError, AxiomEvent, AxiomLog, AxiomRecord, CompStatusCode,
    ControlState, Divergence, MAX_COMPS,
};
use osiris_checkpoint::{ChunkStore, Heap, HeapImage};
use osiris_core::conduct::{Host as _, PendingCrash};
use osiris_core::watchdog::{Host as _, Input, Table};
use osiris_core::{CrashContext, MessageKind, RecoveryPolicy, RecoveryWindow, WindowStats};
use osiris_metrics::{
    MetricsConfig, Note, Owned, Owners, SeriesFold, TimeseriesConfig, TimeseriesSampler,
};
use osiris_trace::chrome::ChromeTrace;
use osiris_trace::{Stage, TraceConfig, TraceEvent, Tracer, KERNEL_COMP};

use crate::abi::{Pid, SysReply};
use crate::clock::{cost, VirtualClock};
use crate::component::{Ctx, FaultHook, InjectedHang, NoFaults, ReplyTamper, Scratch, Server};
use crate::engine::ShutdownKind;
use crate::message::{Delivery, Endpoint, Message, MsgId, Protocol, SpanInfo, SyscallId};

/// Whether (and how) checkpointing instrumentation is active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instrumentation {
    /// No write logging at all: the uninstrumented baseline.
    Off,
    /// Logging only while a recovery window is open — the paper's
    /// function-cloning optimization (default).
    WindowGated,
    /// Logging unconditionally — the paper's unoptimized configuration.
    Always,
}

/// Kernel configuration.
pub struct KernelConfig {
    /// The system-wide recovery policy.
    pub policy: Box<dyn RecoveryPolicy>,
    /// Instrumentation mode.
    pub instrumentation: Instrumentation,
    /// Shutdown grace: when a controlled shutdown is decided, keep serving
    /// messages for up to this many more deliveries so applications can
    /// save their state before the system stops (paper §VII, the
    /// Otherworld-style extension). `0` shuts down immediately.
    pub shutdown_grace: u32,
    /// Flight-recorder configuration. Disabled by default.
    pub trace: TraceConfig,
    /// Metrics-registry configuration. Enabled by default: the kernel's own
    /// accounting ([`crate::KernelMetrics`], [`crate::ComponentReport`])
    /// reads from the registry, so disabling it also zeroes those reports.
    pub metrics: MetricsConfig,
    /// Axiom-log configuration. The kernel *always* folds control-plane
    /// events into its live [`ControlState`] (that fold is the control
    /// plane — the recovery intent log is a view over it); this setting
    /// only gates whether the events are additionally retained and
    /// digest-chained for replay/bisection.
    pub axiom: AxiomConfig,
    /// Virtual-time telemetry sampler configuration. Disabled by default;
    /// when enabled the kernel snapshots the span-latency, crash and
    /// recovery series every Δ virtual cycles (see
    /// `osiris_metrics::timeseries`).
    pub timeseries: TimeseriesConfig,
    /// Virtual-time watchdog configuration (fail-silent fault tolerance).
    pub watchdog: WatchdogConfig,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            policy: Box::new(osiris_core::Enhanced),
            instrumentation: Instrumentation::WindowGated,
            shutdown_grace: 0,
            trace: TraceConfig::default(),
            metrics: MetricsConfig::default(),
            axiom: AxiomConfig::default(),
            timeseries: TimeseriesConfig::default(),
            watchdog: WatchdogConfig::default(),
        }
    }
}

impl std::fmt::Debug for KernelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelConfig")
            .field("policy", &self.policy.name())
            .field("instrumentation", &self.instrumentation)
            .field("trace", &self.trace.enabled)
            .finish()
    }
}

struct Comp<P: Protocol> {
    name: &'static str,
    server: Box<dyn Server<P>>,
    pristine_server: Option<Box<dyn Server<P>>>,
    heap: Heap,
    pristine_image: Option<HeapImage>,
    window: RecoveryWindow,
    inbox: VecDeque<Message<P>>,
    crash_info: Option<PendingCrash<Message<P>>>,
    privileged: bool,
}

/// What falls due in virtual time.
#[derive(Clone)]
enum Due<P> {
    /// A component's timer: its owner, span and payload.
    Timer(u8, Option<SpanInfo>, P),
    /// A watched request re-driven to component `.0` after its backoff,
    /// with the attempt index its re-delivery is armed with. Boxed, so
    /// that the map's entries stay a timer's size.
    Retry(u8, u8, Box<Message<P>>),
}

/// The bit that marks a parked retry's sequence number.
const RETRY_SEQ: u64 = 1 << 63;

/// What one handler invocation left behind, besides the messages, timers
/// and privileged ops it pushed onto the kernel's [`Scratch`].
struct HandlerRun {
    cycles: u64,
    tamper: ReplyTamper,
    /// Whether the handler already replied to the message it was given.
    replied: bool,
    /// `Err` carries the panic payload of a handler that unwound.
    result: std::thread::Result<()>,
}

/// The deterministic microkernel.
///
/// Generic over the inter-component protocol `P`; the `osiris-servers` crate
/// instantiates it with the full OS protocol.
pub struct Kernel<P: Protocol> {
    cfg: KernelConfig,
    clock: VirtualClock,
    comps: Vec<Comp<P>>,
    /// What falls due in virtual time, keyed by (due time, sequence). A
    /// retry's sequence has [`RETRY_SEQ`] set: a timer fires before a retry
    /// due at the same cycle.
    timers: BTreeMap<(u64, u64), Due<P>>,
    timer_seq: u64,
    next_msg_id: u64,
    /// Monotone span-id source; deterministic, reset at the boot barrier.
    next_span_id: u64,
    /// Incremented at every crash/hang capture and completed recovery: a
    /// span whose open-time epoch differs at close crossed a recovery.
    recovery_epoch: u64,
    shutdown: Option<ShutdownKind>,
    shutdown_pending: Option<(ShutdownKind, u32)>,
    user_replies: Vec<(SyscallId, Pid, SysReply)>,
    kill_events: Vec<Pid>,
    /// Emission buffers lent to each handler invocation's `Ctx` and
    /// drained right after it; empty between deliveries.
    scratch: Scratch<P>,
    hook: Box<dyn FaultHook>,
    rs_ep: Option<u8>,
    /// The authoritative control-plane history. Only events sealed here (or
    /// folded into `control` when retention is disabled) are real.
    axiom: AxiomLog,
    /// Live control state: the running fold of every axiom event, and the
    /// authority the kernel consults for recovery intents.
    control: ControlState,
    /// The content-addressed chunk store backing every component's pristine
    /// clone image: identical chunks across components are stored once and
    /// refcounted, so the spare-copy pool's resident cost is deduplicated.
    cas: ChunkStore,
    /// The metric series and their timeseries: a fold of what the kernel
    /// emits, seals and notes.
    series: SeriesFold,
    /// The virtual-time watchdog's slots, whose decisions
    /// `osiris_core::watchdog` makes, and the request each holds: captured
    /// by move, never cloned, so that a lost or corrupt reply can be
    /// re-driven. Preallocated: arming never allocates.
    wd: Table<Message<P>>,
    rr_cursor: usize,
    initialized: bool,
    /// The flight recorder. Heaps stage their events; the kernel appends
    /// them ([`Kernel::drain_stage`]) and is the ring's only writer.
    /// Boxed, as the shared recorder was: without this 2 KiB block a boot's
    /// heap blocks land elsewhere, and in about half of `crash_storm`'s runs
    /// glibc then returned each dropped boot's 1 MiB of VM tables to the
    /// system for the next boot to fault back in (EXPERIMENTS.md).
    tracer: Box<Tracer>,
}

impl<P: Protocol> std::fmt::Debug for Kernel<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("components", &self.comps.len())
            .field("now", &self.clock.now())
            .field("shutdown", &self.shutdown)
            .finish()
    }
}

impl<P: Protocol> Kernel<P> {
    /// Creates a kernel with the given configuration.
    pub fn new(cfg: KernelConfig) -> Self {
        let tracer = Box::new(Tracer::new(cfg.trace.clone()));
        let axiom = AxiomLog::new(cfg.axiom);
        let series = SeriesFold::new(cfg.metrics, cfg.timeseries);
        Kernel {
            cfg,
            clock: VirtualClock::new(),
            comps: Vec::new(),
            timers: BTreeMap::new(),
            timer_seq: 0,
            next_msg_id: 0,
            next_span_id: 0,
            recovery_epoch: 0,
            shutdown: None,
            shutdown_pending: None,
            user_replies: Vec::new(),
            kill_events: Vec::new(),
            scratch: Scratch::default(),
            hook: Box::new(NoFaults),
            rs_ep: None,
            axiom,
            control: ControlState::new(),
            cas: ChunkStore::new(),
            series,
            wd: Table::new(WatchdogConfig::CAPACITY),
            rr_cursor: 0,
            initialized: false,
            tracer,
        }
    }

    /// The flight recorder attached to this kernel.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Appends component `idx`'s staged trace events to the ring. Called
    /// right after every call that can reach its heap, before the next emit
    /// or restamp, so they keep the stamp and sequence numbers a direct
    /// emit would have given them.
    fn drain_stage(&mut self, idx: usize) {
        self.tracer
            .append(idx as u8, self.comps[idx].heap.trace_stage());
    }

    /// Whether no heap holds staged events: the ring is complete.
    fn stages_drained(&self) -> bool {
        self.comps.iter().all(|c| c.heap.staged() == 0)
    }

    /// The ring half of an emit, and all of a sealed event's twin: one
    /// branch when the recorder is off, the write itself out of line.
    #[inline]
    fn ring(&mut self, comp: u8, event: TraceEvent) {
        debug_assert!(self.stages_drained(), "emit over staged events");
        if self.tracer.is_enabled() {
            self.record(comp, event);
        }
    }

    #[inline(never)]
    fn record(&mut self, comp: u8, event: TraceEvent) {
        self.tracer.emit(comp, event);
    }

    /// Component names indexed by endpoint, for trace rendering.
    pub fn trace_names(&self) -> Vec<String> {
        self.comps.iter().map(|c| c.name.to_string()).collect()
    }

    /// Renders the recorded event stream as deterministic text (one line
    /// per event) — the artifact diffed by the trace-determinism CI gate.
    pub fn trace_text(&self) -> String {
        debug_assert!(self.stages_drained());
        osiris_trace::render_text(&self.tracer.snapshot(), &self.trace_names())
    }

    /// Exports the recorded event stream as a Chrome `trace_event` JSON
    /// document (loadable in `chrome://tracing` / Perfetto). When axiom
    /// retention is enabled the control-plane log renders as an extra
    /// instant-event lane, and telemetry samples as counter lanes under the
    /// main track.
    pub fn chrome_trace(&self) -> ChromeTrace<'_, TimeseriesSampler> {
        debug_assert!(self.stages_drained());
        ChromeTrace {
            records: self.tracer.snapshot(),
            names: self.trace_names(),
            axiom: self.axiom.records(),
            counters: self.series.sampler(),
        }
    }

    /// Takes one final telemetry sample at the current virtual time, so the
    /// run-end state always appears in the export. Call before rendering
    /// the fold's sampler.
    pub fn flush_timeseries(&mut self) {
        self.series.flush(self.clock.now());
    }

    /// The metric fold: the registry of folded series, the virtual-time
    /// sampler, and the views that add the series [`Kernel::owners`] hold.
    pub fn series(&self) -> &SeriesFold {
        &self.series
    }

    /// What the computed series read, as numbers: heaps, clone images,
    /// windows, the clone pool and the axiom's size. Hand it to
    /// [`SeriesFold::snapshot`] or [`SeriesFold::component_reports`].
    pub fn owners(&self) -> Owners<WindowStats> {
        let images = self.comps.iter().map(|c| c.pristine_image.as_ref());
        let dedup = self.cas.first_ref_bytes(images);
        let owned = |(c, clone_dedup_bytes): (&Comp<P>, usize)| {
            let (h, w) = (c.heap.stats(), *c.window.stats());
            Owned {
                heap_bytes: c.heap.resident_bytes(),
                clone_bytes: c.pristine_image.as_ref().map_or(0, HeapImage::bytes),
                clone_dedup_bytes,
                undo_bytes_peak: h.undo_bytes_peak,
                undo_bytes_window_peak: h.undo_bytes_window_peak,
                writes: h.writes,
                undo_appends: h.undo_appends,
                coalesced_writes: h.coalesced_writes,
                window_opens: w.opens,
                window_rollbacks: w.rollbacks,
                window: w,
            }
        };
        Owners {
            comps: self.comps.iter().zip(dedup).map(owned).collect(),
            cas_chunks: self.cas.chunk_count(),
            cas_bytes: self.cas.resident_bytes(),
            cas_dedup_hits: self.cas.dedup_hits(),
            axiom_bytes: self.axiom.enabled().then(|| self.axiom.bytes_len()),
        }
    }

    /// The post-mortem black box: the last configured number of events per
    /// component, or `None` when tracing is disabled.
    pub fn blackbox(&self) -> Option<String> {
        self.tracer.blackbox(&self.trace_names())
    }

    /// Dumps the black box to stderr (crash post-mortem).
    fn dump_blackbox(&self, why: &str) {
        if let Some(dump) = self.blackbox() {
            eprintln!("[kernel t={}] {}:\n{}", self.clock.now(), why, dump);
        }
    }

    /// Seals the window close that component `idx`'s last `complete`,
    /// `rollback` or mid-handler send staged, if any, so the axiom orders
    /// the close before whatever the caller seals next.
    fn seal_staged_close(&mut self, idx: usize) {
        if let Some((reason, class)) = self.comps[idx].window.take_last_close() {
            self.seal(AxiomEvent::WindowClose {
                comp: idx as u8,
                reason,
                class,
            });
        }
    }

    /// The authoritative control-plane log.
    pub fn axiom(&self) -> &AxiomLog {
        &self.axiom
    }

    /// Serializes the axiom to its crash-consistent byte image.
    pub fn axiom_bytes(&self) -> Vec<u8> {
        self.axiom.to_bytes()
    }

    /// The live control state: the running reduction of the axiom.
    pub fn control_state(&self) -> &ControlState {
        &self.control
    }

    /// Verifies the recorded axiom's digest chain end to end, counting the
    /// check in `osiris_axiom_chain_verifications_total`.
    pub fn verify_axiom(&mut self) -> Result<(), AxiomError> {
        let verdict = self.axiom.verify();
        self.series.note(Note::AxiomVerified {
            ok: verdict.is_ok(),
        });
        verdict
    }

    /// Bisects this kernel's axiom against a previously `recorded` one and
    /// returns the first diverging event, counting any divergence in
    /// `osiris_axiom_replay_divergence_total`. `None` means this run
    /// re-derived the recorded history exactly.
    pub fn check_replay_divergence(&mut self, recorded: &[AxiomRecord]) -> Option<Divergence> {
        let d = bisect(self.axiom.records(), recorded);
        if d.is_some() {
            self.series.note(Note::ReplayDiverged);
        }
        d
    }

    /// Registers a component. The first component registered with
    /// `privileged = true` becomes the Recovery Server endpoint that crash
    /// notifications are routed to.
    ///
    /// # Panics
    ///
    /// Panics if called after [`Kernel::init_components`], or for more
    /// than [`MAX_COMPS`] components (the control state's liveness table).
    pub fn register(&mut self, server: Box<dyn Server<P>>, privileged: bool) -> Endpoint {
        assert!(!self.initialized, "register() after init_components()");
        assert!(
            self.comps.len() < MAX_COMPS,
            "more than {MAX_COMPS} components"
        );
        let idx = self.comps.len() as u8;
        let name = server.name();
        let mut heap = Heap::new(name);
        *heap.trace_stage() = Stage::new(&self.cfg.trace);
        self.series.add_component(name);
        self.comps.push(Comp {
            name,
            server,
            pristine_server: None,
            heap,
            pristine_image: None,
            window: RecoveryWindow::new(),
            inbox: VecDeque::new(),
            crash_info: None,
            privileged,
        });
        if privileged && self.rs_ep.is_none() {
            self.rs_ep = Some(idx);
        }
        Endpoint::Component(idx)
    }

    /// Installs the fault-injection hook.
    pub fn set_fault_hook(&mut self, hook: Box<dyn FaultHook>) {
        self.hook = hook;
    }

    /// Runs every component's `init`, captures the pristine clone images for
    /// the Recovery Server's spare-copy pool, and resets all statistics so
    /// that boot time is excluded from measurements (as the paper's
    /// evaluation does).
    pub fn init_components(&mut self) {
        assert!(!self.initialized, "init_components() called twice");
        self.initialized = true;
        for idx in 0..self.comps.len() {
            let run = self.run_handler(idx, None);
            self.clock.advance(run.cycles);
            self.route_messages();
            self.register_timers(idx as u8);
            let comp = &mut self.comps[idx];
            comp.pristine_image = Some(comp.heap.clone_image(&mut self.cas, None));
            comp.pristine_server = Some(comp.server.clone_box());
            if self.cfg.instrumentation == Instrumentation::Always {
                comp.heap.set_force_logging(true);
            }
        }
        // Boot is over: measurements start clean.
        for comp in &mut self.comps {
            comp.heap.reset_stats();
            comp.window.reset_stats();
        }
        self.series.reset(self.clock.now());
        self.stamp();
        self.tracer.clear();
        // Span ids and the recovery epoch restart at the boot barrier so
        // same-seed runs mint byte-identical span streams.
        self.next_span_id = 0;
        self.recovery_epoch = 0;
        // The axiom likewise starts at the boot barrier: its first event
        // seals the control-relevant configuration, so two axioms are only
        // comparable (replay, bisect) when policy/instrumentation/topology
        // match.
        self.axiom.reset();
        let instr = match self.cfg.instrumentation {
            Instrumentation::Off => 0u8,
            Instrumentation::WindowGated => 1,
            Instrumentation::Always => 2,
        };
        let config_digest = osiris_axiom::fnv1a(
            osiris_axiom::fnv1a_str(self.cfg.policy.name()),
            &[
                instr,
                self.comps.len() as u8,
                self.cfg.watchdog.enabled as u8,
            ],
        );
        self.seal(AxiomEvent::Genesis {
            comps: self.comps.len() as u8,
            config_digest,
        });
    }

    /// Number of registered components.
    pub fn component_count(&self) -> usize {
        self.comps.len()
    }

    /// The endpoint of the component called `name`, if registered.
    pub fn endpoint_of(&self, name: &str) -> Option<Endpoint> {
        self.comps
            .iter()
            .position(|c| c.name == name)
            .map(|i| Endpoint::Component(i as u8))
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Advances virtual time by `cycles` (user-level computation).
    pub fn charge(&mut self, cycles: u64) {
        self.clock.advance(cycles);
    }

    /// The shutdown state, if the system has stopped.
    pub fn shutdown_state(&self) -> Option<&ShutdownKind> {
        self.shutdown.as_ref()
    }

    /// Whether a controlled shutdown has been decided but the grace window
    /// (paper §VII) is still open for state-saving syscalls.
    pub fn shutdown_pending(&self) -> bool {
        self.shutdown_pending.is_some()
    }

    /// Finalizes a pending controlled shutdown (grace exhausted or system
    /// quiescent).
    fn finalize_pending_shutdown(&mut self) {
        if let Some((kind, _)) = self.shutdown_pending.take() {
            if self.shutdown.is_none() {
                self.shutdown = Some(kind);
            }
        }
    }

    /// Mints a kernel-originated message to component `dst` (timer
    /// payloads, crash notifications): no requester, no reply expected, no
    /// integrity stamp.
    fn kernel_msg(&mut self, dst: u8, span: Option<SpanInfo>, payload: P) -> Message<P> {
        self.next_msg_id += 1;
        let (id, dst) = (MsgId(self.next_msg_id), Endpoint::Component(dst));
        Message::new(id, Endpoint::Kernel, dst, span, payload)
    }

    /// Enqueues a user syscall as a request message to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not a component endpoint or init has not run.
    pub fn send_user_request(&mut self, dst: Endpoint, payload: P, sid: SyscallId, pid: Pid) {
        assert!(self.initialized, "kernel not initialized");
        let Endpoint::Component(c) = dst else {
            panic!("user requests must target components")
        };
        if let Some((_, budget)) = &mut self.shutdown_pending {
            *budget = budget.saturating_sub(1);
        }
        self.clock.advance(cost::SYSCALL_ENTRY + cost::IPC_SEND);
        self.stamp();
        self.emit(
            c,
            TraceEvent::SyscallEnter {
                sid: sid.0,
                pid: pid.0,
            },
        );
        // Workload entry point: mint the causal span that every message,
        // timer and continuation derived from this request will carry. The
        // id is minted unconditionally (message identity must not depend on
        // whether telemetry is on); the recording decision is sampled once
        // here and carried in the span, so hop and close sites branch on
        // one bool.
        self.next_span_id += 1;
        let span = SpanInfo {
            id: self.next_span_id,
            opened_at: self.clock.now(),
            epoch_at_open: self.recovery_epoch,
            record: self.tracer.is_enabled() || self.series.enabled(),
        };
        if span.record {
            self.emit(
                KERNEL_COMP,
                TraceEvent::SpanOpen {
                    span: span.id,
                    sid: sid.0,
                    pid: pid.0,
                },
            );
        }
        self.next_msg_id += 1;
        let (id, src) = (MsgId(self.next_msg_id), Endpoint::Process(pid));
        let msg = Message {
            user_tag: Some(sid),
            ..Message::new(id, src, dst, Some(span), payload)
        };
        self.watchdog_arm(c, &msg, 0);
        self.comps[c as usize].inbox.push_back(msg);
    }

    /// Takes the user-syscall replies produced since the last call.
    pub fn take_user_replies(&mut self) -> Vec<(SyscallId, Pid, SysReply)> {
        std::mem::take(&mut self.user_replies)
    }

    /// Takes the kill events (processes PM terminated outside a syscall)
    /// produced since the last call.
    pub fn take_kill_events(&mut self) -> Vec<Pid> {
        std::mem::take(&mut self.kill_events)
    }

    /// Whether any timer (or scheduled transparent retry) is pending.
    pub fn has_pending_timers(&self) -> bool {
        !self.timers.is_empty()
    }

    /// Advances the clock to the next timer or scheduled retry and delivers
    /// its message. Returns `false` if neither was pending.
    pub fn fire_next_timer(&mut self) -> bool {
        let Some(((at, _), due)) = self.timers.pop_first() else {
            return false;
        };
        self.clock.advance_to(at);
        self.stamp();
        let (dst, msg) = match due {
            Due::Timer(dst, span, payload) => {
                self.series.note(Note::TimerFired);
                (dst, self.kernel_msg(dst, span, payload))
            }
            // The re-delivered request keeps its identity (id, requester,
            // span), so its reply correlates exactly as the first one's
            // would have: the retry is invisible to both endpoints.
            Due::Retry(dst, attempt, msg) => {
                self.watchdog_arm(dst, &msg, attempt);
                (dst, *msg)
            }
        };
        self.comps[dst as usize].inbox.push_back(msg);
        // Timer fires are the idle-time service points: a deadline that
        // expired while nothing was runnable is detected here, bounding
        // hang-detection latency by the armed deadline plus one heartbeat
        // period.
        self.service();
        true
    }

    /// Processes queued messages until the system is quiescent (all inboxes
    /// of runnable components empty), recovery stalls everything, or the
    /// system shuts down.
    pub fn pump(&mut self) {
        assert!(self.initialized, "kernel not initialized");
        loop {
            if self.shutdown.is_some() {
                return;
            }
            self.bounce();
            self.service();
            if self.shutdown.is_some() {
                return;
            }
            let Some(idx) = self.pick_runnable() else {
                return;
            };
            if let Some((_, budget)) = &mut self.shutdown_pending {
                if *budget == 0 {
                    self.finalize_pending_shutdown();
                    return;
                }
                *budget -= 1;
            }
            let msg = self.comps[idx]
                .inbox
                .pop_front()
                .expect("picked component has mail");
            self.process_message(idx, msg);
            // Telemetry tick: one branch when disabled, one sample per
            // crossed Δ-grid point when enabled.
            self.series.tick(self.clock.now());
        }
    }

    fn pick_runnable(&mut self) -> Option<usize> {
        let n = self.comps.len();
        if n == 0 {
            return None;
        }
        // During recovery only the Recovery Server runs: syscall processing
        // is stalled until recovery completes (paper §II-E).
        if let Some(rs) = self.control.recovering.and(self.rs_ep) {
            let rs = rs as usize;
            return self.runnable(rs).then_some(rs);
        }
        for off in 0..n {
            let idx = (self.rr_cursor + off) % n;
            if self.runnable(idx) {
                self.rr_cursor = (idx + 1) % n;
                return Some(idx);
            }
        }
        None
    }

    /// Runs component `idx`'s handler on `msg` — or its `init` when there is
    /// no message — whose payload the handler may take unless it is lent.
    /// What it emitted is left in `self.scratch`, which it only borrows:
    /// the buffers are the kernel's again when this returns, whether the
    /// handler returned or unwound. A handler panic is caught here: this is
    /// the fault-isolation boundary, everything the kernel does outside this
    /// call runs below it and must not panic on component-supplied input.
    fn run_handler(&mut self, idx: usize, msg: Option<Delivery<'_, P>>) -> HandlerRun {
        let Kernel {
            cfg,
            comps,
            hook,
            clock,
            next_msg_id,
            scratch,
            ..
        } = self;
        debug_assert!(
            scratch.out.is_empty() && scratch.timers.is_empty() && scratch.priv_ops.is_empty(),
            "scratch not drained after the previous delivery"
        );
        let comp = &mut comps[idx];
        let cur = msg.as_deref();
        let mut ctx = Ctx {
            comp_name: comp.name,
            self_ep: Endpoint::Component(idx as u8),
            heap: &mut comp.heap,
            window: &mut comp.window,
            policy: cfg.policy.as_ref(),
            hook: hook.as_mut(),
            now: clock.now(),
            cycles: 0,
            scratch,
            privileged: comp.privileged,
            next_msg_id,
            stamp_sends: cfg.watchdog.enabled,
            cur_id: cur.map_or(MsgId(0), |m| m.id),
            replied_any: false,
            replied_cur: false,
            cur_replyable: cur
                .is_some_and(|m| m.seep.kind == MessageKind::Request && m.seep.reply_possible),
            cur_span: cur.and_then(|m| m.span),
            tamper: ReplyTamper::None,
        };
        let server = &mut comp.server;
        let result = match msg {
            Some(msg) => catch_unwind(AssertUnwindSafe(|| server.handle(msg, &mut ctx))),
            None => {
                server.init(&mut ctx);
                Ok(())
            }
        };
        let run = HandlerRun {
            replied: ctx.replied_cur,
            cycles: ctx.cycles,
            tamper: ctx.tamper,
            result,
        };
        self.drain_stage(idx);
        run
    }

    fn process_message(&mut self, idx: usize, mut msg: Message<P>) {
        let checkpointing = self.cfg.policy.checkpointing();
        let deliver_cost = cost::IPC_DELIVER + cost::HANDLER_BASE;
        self.clock.advance(deliver_cost);
        self.stamp();
        let src = match msg.src {
            Endpoint::Component(c) => c,
            _ => KERNEL_COMP,
        };
        let msg_id = msg.id.0;
        self.emit(idx as u8, TraceEvent::IpcDeliver { src, msg_id });
        if let Some(span) = msg.span.filter(|s| s.record) {
            let span = span.id;
            self.emit(idx as u8, TraceEvent::SpanHop { span, src, msg_id });
        }

        let comp = &mut self.comps[idx];
        // Top of the request-processing loop: open the recovery window
        // (taking a checkpoint) — or mark the request unprotected for
        // baseline policies that do no checkpointing.
        if checkpointing {
            comp.window.open(&mut comp.heap);
            self.drain_stage(idx);
            self.seal(AxiomEvent::WindowOpen { comp: idx as u8 });
            if self.cfg.instrumentation == Instrumentation::Off {
                self.comps[idx].heap.set_logging(false);
            }
        } else {
            comp.window.begin_unprotected();
        }
        let comp = &mut self.comps[idx];
        comp.window.charge(deliver_cost);
        let h = comp.heap.stats();
        let (writes_before, appends_before) = (h.writes, h.undo_appends);
        let (coalesced_before, undo_bytes_before) = (h.coalesced_writes, h.undo_bytes_appended);
        let cycles_in_before = comp.window.stats().cycles_in;

        // A request the watchdog may re-drive is only lent to the handler.
        // Any other is handed over, and what the handler leaves of it (its
        // header, at least) is the crash path's.
        let delivery = if self.wd.armed != 0 && self.wd.find(msg_id).is_some() {
            Delivery::Lent(&msg)
        } else {
            Delivery::Handed(&mut msg)
        };
        let HandlerRun {
            cycles,
            tamper,
            replied,
            result,
        } = self.run_handler(idx, Some(delivery));

        // An injected fail-silent reply tamper applies to the first
        // outbound reply: `Drop` loses it on the wire, `Corrupt` breaks the
        // integrity stamp sealed at send time.
        if tamper != ReplyTamper::None {
            let out = &mut self.scratch.out;
            if let Some(pos) = out.iter().position(|m| m.reply_to.is_some()) {
                match tamper {
                    ReplyTamper::Drop => {
                        out.remove(pos);
                    }
                    ReplyTamper::Corrupt => out[pos].integrity ^= 0xBAD0_BAD0_BAD0_BAD0,
                    ReplyTamper::None => {}
                }
            }
        }

        // Account handler cycles and memory-write costs. Logged writes
        // happened while the window was open; unlogged ones outside (exact
        // under window-gated instrumentation, the measurement mode).
        // Coalesced writes were logged but elided by the journal: they pay
        // only the memory write, not the undo append.
        let comp = &mut self.comps[idx];
        let h = comp.heap.stats();
        let writes = h.writes - writes_before;
        let appends = h.undo_appends - appends_before;
        let coalesced = h.coalesced_writes - coalesced_before;
        let logged = (appends + coalesced).min(writes);
        let write_cost_in =
            appends * (cost::MEM_WRITE + cost::UNDO_APPEND) + coalesced * cost::MEM_WRITE;
        let write_cost_out = (writes - logged) * cost::MEM_WRITE;
        comp.window.charge_split(write_cost_in, write_cost_out);
        let handler_cycles = cycles + write_cost_in + write_cost_out;
        let (comp, cycles) = (idx as u8, handler_cycles + deliver_cost);
        self.series.note(Note::Handled { comp, cycles });
        self.clock.advance(handler_cycles);
        self.stamp();

        // Messages sent before a crash point are already on the wire:
        // deliver them regardless of the handler's fate.
        self.route_messages();
        self.register_timers(idx as u8);

        match result {
            Ok(()) => {
                let c = &mut self.comps[idx];
                if checkpointing {
                    c.window.complete(&mut c.heap);
                    self.series.note(Note::WindowCompleted {
                        comp,
                        cycles: c.window.stats().cycles_in - cycles_in_before,
                        undo_bytes: c.heap.stats().undo_bytes_appended - undo_bytes_before,
                    });
                }
                self.drain_stage(idx);
                self.seal_staged_close(idx);
                self.execute_priv_ops();
                self.after_ok(msg.id.0, msg);
            }
            Err(payload) => {
                // Privileged ops take effect only when the handler returns.
                self.scratch.priv_ops.clear();
                let window = &self.comps[idx].window;
                let ctx = CrashContext {
                    scoped_sends: window.had_scoped_sends(),
                    requester_is_process: matches!(msg.src, Endpoint::Process(_)),
                    ..CrashContext::handler_fault(&msg.seep, window.is_open(), replied)
                };
                // A mid-handler close (DisallowedSend / ThreadYield) may have
                // been staged before the panic propagated; seal it first so
                // the axiom orders the close before the fault event.
                self.seal_staged_close(idx);
                let hung = payload.downcast_ref::<InjectedHang>().is_some();
                self.capture(idx as u8, msg, ctx, hung);
            }
        }
    }

    /// Closes a causal span at a user-reply exit point: emits the
    /// `SpanClose` event, which carries the end-to-end latency and whether
    /// the span crossed a recovery. A `None` span (kernel-originated
    /// message) is a no-op.
    fn close_span(&mut self, span: Option<SpanInfo>, ok: bool) {
        let Some(span) = span.filter(|s| s.record) else {
            return;
        };
        let crossed = span.epoch_at_open != self.recovery_epoch;
        let latency = self.clock.now().saturating_sub(span.opened_at);
        self.emit(
            KERNEL_COMP,
            TraceEvent::SpanClose {
                span: span.id,
                ok,
                crossed_recovery: crossed,
                latency,
            },
        );
    }

    /// Delivers the final reply of user syscall `sid` to process `pid`:
    /// the exit trace event on lane `from`, the span close, and the reply
    /// the host collects with [`Kernel::take_user_replies`].
    fn reply_to_user(
        &mut self,
        from: u8,
        sid: SyscallId,
        pid: Pid,
        span: Option<SpanInfo>,
        reply: SysReply,
    ) {
        let ok = !matches!(reply, SysReply::Err(_));
        self.emit(
            from,
            TraceEvent::SyscallExit {
                sid: sid.0,
                pid: pid.0,
                ok,
            },
        );
        self.close_span(span, ok);
        self.user_replies.push((sid, pid, reply));
    }

    /// A request, `attempt` retries after its first delivery, is queued to
    /// component `dst`. With the watchdog off nothing is ever armed, and
    /// every other entry point finds nothing to do in one branch.
    fn watchdog_arm(&mut self, dst: u8, msg: &Message<P>, attempt: u8) {
        if self.cfg.watchdog.enabled {
            self.watchdog(Input::Arm(msg.id.0, dst, msg.seep, attempt));
        }
    }

    /// Routes what the last handler invocation sent. The buffer is drained
    /// in place and handed back to `scratch` with its capacity.
    fn route_messages(&mut self) {
        let mut out = std::mem::take(&mut self.scratch.out);
        for msg in out.drain(..) {
            let intact = || msg.integrity == msg.payload.digest();
            if self.rejects_reply(msg.reply_to.map(|rt| rt.0), intact) {
                continue;
            }
            match msg.dst {
                Endpoint::Component(c) => {
                    self.watchdog_arm(c, &msg, 0);
                    self.comps[c as usize].inbox.push_back(msg);
                }
                Endpoint::Process(pid) => {
                    let reply = msg
                        .payload
                        .into_user_reply()
                        .expect("messages to processes must be user replies");
                    let from = match msg.src {
                        Endpoint::Component(c) => c,
                        _ => KERNEL_COMP,
                    };
                    match msg.user_tag {
                        Some(sid) => self.reply_to_user(from, sid, pid, msg.span, reply),
                        // An untagged message to a process is a kill event:
                        // PM decided to terminate it outside any syscall.
                        None => self.kill_events.push(pid),
                    }
                }
                Endpoint::Kernel => panic!("components cannot message the kernel directly"),
            }
        }
        self.scratch.out = out;
    }

    /// Registers the timers the last handler invocation set, for `owner`.
    fn register_timers(&mut self, owner: u8) {
        for (delay, span, payload) in self.scratch.timers.drain(..) {
            self.timer_seq += 1;
            let at = self.clock.now() + delay;
            let timer = Due::Timer(owner, span, payload);
            self.timers.insert((at, self.timer_seq), timer);
        }
    }

    /// The server at `ep` and its heap, read-only, if it is an `S`: the one
    /// view of component state the kernel gives (the OS audit reads it).
    pub fn server<S: Server<P>>(&self, ep: Endpoint) -> Option<(&S, &Heap)> {
        let Endpoint::Component(idx) = ep else {
            return None;
        };
        let c = self.comps.get(usize::from(idx))?;
        let server: &dyn Any = c.server.as_ref();
        Some((server.downcast_ref()?, &c.heap))
    }

    /// True if every inbox of every runnable component is empty.
    pub fn quiescent(&self) -> bool {
        (0..self.comps.len()).all(|idx| !self.runnable(idx))
    }

    /// Whether component `idx` has mail and is alive to take it.
    fn runnable(&self, idx: usize) -> bool {
        !self.comps[idx].inbox.is_empty() && self.control.status(idx as u8) == CompStatusCode::Alive
    }
}
