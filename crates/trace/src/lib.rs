//! # osiris-trace
//!
//! A deterministic, allocation-free-in-steady-state **flight recorder** for
//! the OSIRIS simulator: a fixed-capacity ring buffer of typed
//! [`TraceEvent`] records stamped with the *virtual* clock, per-component
//! sequence numbers.
//!
//! Design constraints (see DESIGN.md §6d):
//!
//! * **Determinism.** Events carry only virtual-clock timestamps and values
//!   derived from simulator state — never wall-clock time, addresses, or
//!   global counters that differ across runs. Two runs of the same workload
//!   produce byte-identical event streams.
//! * **Zero allocation in steady state.** The ring is allocated once, at
//!   construction, and each heap's stage at boot; emitting an event writes
//!   a [`Copy`] record into a pre-existing slot. The `gates` binary
//!   proves this with a counting global allocator.
//! * **No cost-model perturbation.** Emitting never touches the virtual
//!   clock; tracing is an observer of the cost model, not a participant.
//!   The recorder is told the current virtual time via
//!   [`Tracer::set_now`].
//! * **One owner.** The kernel alone holds its [`Tracer`]. A heap cannot
//!   reach it, so it pushes its events onto its own [`Stage`], and the
//!   kernel appends that stage to the ring right after each call into the
//!   heap, before its own next emit or restamp. No lock, no shared handle.
//! * **Cheap when off.** The disabled path is one branch on a plain bool,
//!   so always-on emit points in hot paths (undo-log appends) stay cheap
//!   (`trace.delta_ns_per_msg` in `benchmark/`).
//!
//! The crate sits just above `osiris-axiom` (the authoritative
//! control-plane log), from which it re-exports the shared
//! [`CloseCode`]/[`SeepClassCode`]/[`ActionCode`] vocabularies; the
//! checkpoint/core/kernel layers all emit through it. The workspace's
//! hand-rolled JSON layer lives here too: the streaming [`JsonWriter`] the
//! Chrome `trace_event` exporter in [`chrome`] and every [`WriteJson`]
//! value (the metric documents, the campaign and forge reports, the
//! `reproduce` results) write through. There is no JSON value tree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod hist;
pub mod json;

pub use hist::{HistSummary, Log2Hist};
pub use json::{JsonDoc, JsonWriter, Sink, WriteJson};

use osiris_axiom::FieldValue;

/// Component id used for events emitted by the kernel itself rather than by
/// a registered component.
pub const KERNEL_COMP: u8 = 0xFF;

/// The axiom's codes the event table carries, also re-exported for the
/// crates that reach the axiom through this one: `osiris-core`'s policies
/// pick an `ActionCode` and its conduct reads the `ControlState` and seals
/// an `IntentPhaseCode`; `osiris-metrics` folds each sealed `AxiomEvent`.
pub use osiris_axiom::{
    fnv1a, ActionCode, AxiomEvent, CloseCode, CompStatusCode, ControlState, IntentPhaseCode,
    SeepClassCode, VerdictCode,
};

/// Where the Chrome export draws an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// The emitting component's own thread.
    Own,
    /// The emitting component's thread, as an async pair keyed by syscall
    /// id: syscalls to one server interleave, so `B`/`E` would not nest.
    Syscall,
    /// The span lane, as async events keyed by span id: requests overlap
    /// freely.
    Span,
    /// The watchdog lane.
    Watchdog,
}

/// What is the same for every event of one [`TraceEvent`] variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventMeta {
    /// The variant's identifier: the head of its text form.
    pub ident: &'static str,
    /// Export name, snake_case. The two halves of a slice share theirs.
    pub name: &'static str,
    /// Chrome `trace_event` phase: `i` instant, `B`/`E` a slice on the
    /// emitter's stack (windows never overlap within a component), `X` a
    /// complete slice, `b`/`e`/`n` an async pair and its instants.
    pub ph: &'static str,
    /// Export lane.
    pub lane: Lane,
}

/// One field of an event, as the typed value an export renders.
pub(crate) enum Field {
    /// An integer.
    U64(u64),
    /// A flag.
    Bool(bool),
    /// A component id, shown by name.
    Comp(u8),
    /// A shared-vocabulary code, shown by its variant identifier.
    Code(&'static str),
    /// The key of an async pair: the event's `id`, not an argument.
    Id(u64),
    /// An integer that is also the length of the slice ending at the
    /// record's timestamp (the clock has already been charged).
    Dur(u64),
}

/// Declares [`TraceEvent`] from its one description: per variant, the
/// docs, then `Variant(name, ph, lane)` — its
/// [`EventMeta`] — and its fields, each `name: type => kind` with the
/// [`Field`] it is shown as. Its text form (`render_text`, as
/// `#[derive(Debug)]` prints it) comes from the row too. A new variant
/// needs its row here and an emit site.
macro_rules! event_table {
    ($(
        $(#[$vdoc:meta])*
        $variant:ident($name:literal, $ph:literal, $lane:ident)
        $({ $( $(#[$fdoc:meta])* $field:ident: $ty:ty => $kind:ident, )* })?
    )*) => {
        /// A typed, fixed-size trace event. Every variant is `Copy` and
        /// contains no heap-owning field, so emitting one never allocates.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum TraceEvent {
            $( $(#[$vdoc])* $variant $({ $( $(#[$fdoc])* $field: $ty, )* })?, )*
        }

        impl TraceEvent {
            /// This variant's static description.
            #[inline]
            pub fn meta(&self) -> &'static EventMeta {
                match self {
                    $( TraceEvent::$variant { .. } => &EventMeta {
                        ident: stringify!($variant),
                        name: $name,
                        ph: $ph,
                        lane: Lane::$lane,
                    }, )*
                }
            }

            /// Shows this event's fields to `show`, in declaration order.
            pub(crate) fn fields(&self, mut show: impl FnMut(&'static str, Field)) {
                match *self {
                    $( TraceEvent::$variant $({ $($field,)* })? => {
                        $($( show(stringify!($field), event_table!(@$kind $field)); )*)?
                    } )*
                }
            }

            /// At least the length of this event's text form: every field
            /// at its widest.
            fn text_bound(&self) -> usize {
                match self {
                    $( TraceEvent::$variant { .. } => const {
                        stringify!($variant).len() + 3
                            $($( + stringify!($field).len() + 4 + event_table!(@widest $kind $ty) )*)?
                    }, )*
                }
            }

            /// One event of every variant, its fields drawn as
            /// [`AxiomEvent::samples`] draws them: consecutive entries of
            /// their type's cycle from entry `round` on.
            #[cfg(test)]
            fn samples(round: usize) -> Vec<TraceEvent> {
                let mut at = round;
                let mut next = || {
                    at += 1;
                    at - 1
                };
                vec![$( TraceEvent::$variant $({ $($field: event_table!(@sample $kind $ty, next()),)* })? ),*]
            }
        }
    };
    (@u64 $f:ident) => { Field::U64(u64::from($f)) };
    (@bool $f:ident) => { Field::Bool($f) };
    (@comp $f:ident) => { Field::Comp($f) };
    (@code $f:ident) => { Field::Code($f.ident()) };
    (@id $f:ident) => { Field::Id($f) };
    (@dur $f:ident) => { Field::Dur($f) };
    (@widest bool $ty:ty) => { 5 };
    (@widest code $ty:ty) => { <$ty>::IDENT_MAX };
    (@widest $int:ident $ty:ty) => { decimal_len(<$ty>::MAX as u64) };
    (@sample bool $ty:ty, $i:expr) => { $i % 2 == 1 };
    (@sample code $ty:ty, $i:expr) => {{
        let i = $i;
        <$ty>::ALL[i % <$ty>::ALL.len()]
    }};
    (@sample $kind:ident $ty:ty, $i:expr) => {
        osiris_axiom::SAMPLE_INTS[$i % osiris_axiom::SAMPLE_INTS.len()] as $ty
    };
}

/// Digits in `v`'s decimal text.
const fn decimal_len(v: u64) -> usize {
    match v.checked_ilog10() {
        Some(d) => d as usize + 1,
        None => 1,
    }
}

event_table! {
    /// A component (or the kernel on behalf of a user process) sent a
    /// message to `dst`.
    IpcSend("ipc_send", "i", Own) {
        /// Receiving component.
        dst: u8 => comp,
        /// Monotone per-run message id.
        msg_id: u64 => u64,
        /// SEEP class engraved on the message.
        class: SeepClassCode => code,
    }
    /// The kernel delivered message `msg_id` from `src` to the recording
    /// component and is about to dispatch its handler.
    IpcDeliver("ipc_deliver", "i", Own) {
        /// Sending component ([`KERNEL_COMP`] for kernel-originated).
        src: u8 => comp,
        /// Monotone per-run message id.
        msg_id: u64 => u64,
    }
    /// A recovery window opened (undo logging armed).
    WindowOpen("window", "B", Own)
    // An unmatched E (a close whose open the ring overwrote) confuses
    // viewers less than an unmatched B, and Perfetto tolerates both.
    /// A recovery window closed.
    WindowClose("window", "E", Own) {
        /// Why it closed.
        reason: CloseCode => code,
        /// SEEP class of the send that closed it, if any.
        class: SeepClassCode => code,
    }
    /// The undo journal appended an old-value record of `bytes` bytes.
    UndoAppend("undo_append", "i", Own) {
        /// Payload bytes captured into the journal.
        bytes: u32 => u64,
    }
    /// A write to an already-logged location was elided (coalesced).
    UndoCoalesce("undo_coalesce", "i", Own)
    /// A checkpoint mark was taken at undo-log length `log_len`.
    CheckpointMark("checkpoint_mark", "i", Own) {
        /// Journal length at the mark.
        log_len: u32 => u64,
    }
    /// The journal rolled back `records` records (`bytes` payload bytes).
    Rollback("rollback", "i", Own) {
        /// Records undone.
        records: u32 => u64,
        /// Payload bytes restored.
        bytes: u32 => u64,
    }
    /// The journal discarded `records` records on commit.
    Discard("discard", "i", Own) {
        /// Records discarded.
        records: u32 => u64,
        /// Payload bytes released.
        bytes: u32 => u64,
    }
    /// Component `target` crashed (fail-stop fault captured).
    Crash("crash", "i", Own) {
        /// Crashed component.
        target: u8 => comp,
    }
    /// Component `target` was declared hung by the heartbeat protocol.
    HangDetected("hang_detected", "i", Own) {
        /// Hung component.
        target: u8 => comp,
    }
    /// The Recovery Server was notified of a crash.
    RsCrashNotified("rs_crash_notified", "i", Own) {
        /// Crashed component the RS was told about.
        target: u8 => comp,
    }
    /// The recovery policy decided how to recover `target`.
    RecoveryDecision("recovery_decision", "i", Own) {
        /// Component being recovered.
        target: u8 => comp,
        /// Chosen action.
        action: ActionCode => code,
    }
    /// Recovery of `target` finished, charging `cycles` virtual cycles.
    RecoveryDone("recovery", "X", Own) {
        /// Recovered component.
        target: u8 => comp,
        /// Virtual cycles spent (restart + rollback + reconciliation).
        cycles: u64 => dur,
    }
    /// A user process entered a syscall serviced by the recording component.
    SyscallEnter("syscall", "b", Syscall) {
        /// Monotone syscall id (the kernel's message id for the request).
        sid: u64 => id,
        /// Calling process.
        pid: u32 => u64,
    }
    /// A syscall completed and its reply was routed back to the process.
    SyscallExit("syscall", "e", Syscall) {
        /// Syscall id matching the corresponding [`TraceEvent::SyscallEnter`].
        sid: u64 => id,
        /// Calling process.
        pid: u32 => u64,
        /// Whether the reply is a success (false for error replies,
        /// including virtualized `E_CRASH`).
        ok: bool => bool,
    }
    /// The system decided to shut down.
    ShutdownDecision("shutdown_decision", "i", Own) {
        /// True for a controlled (state-flushing) shutdown, false for an
        /// uncontrolled crash stop.
        controlled: bool => bool,
    }
    /// Component `target` exhausted its restart budget inside the sliding
    /// window: the escalation ladder is stepping past plain restarts.
    BudgetExhausted("budget_exhausted", "i", Own) {
        /// Crash-looping component.
        target: u8 => comp,
    }
    /// Recovery of `target` was deferred by `delay` virtual cycles of
    /// exponential restart backoff.
    BackoffArmed("backoff_armed", "i", Own) {
        /// Component whose recovery is deferred.
        target: u8 => comp,
        /// Backoff delay in virtual cycles.
        delay: u64 => u64,
    }
    /// Component `target` was quarantined: no further restarts, messages
    /// to it are bounced with an immediate crash reply.
    Quarantined("quarantined", "i", Own) {
        /// Benched component.
        target: u8 => comp,
    }
    /// A recovery phase for `target` could not be executed (journal or
    /// image integrity violation, or a fault inside the phase itself); the
    /// kernel degraded from `from` to the next rung of the fallback chain.
    RecoveryFallback("recovery_fallback", "i", Own) {
        /// Component whose recovery degraded.
        target: u8 => comp,
        /// The action that failed.
        from: ActionCode => code,
        /// The action tried next.
        to: ActionCode => code,
    }
    /// The RS crashed mid-conduct and the persisted recovery intent for
    /// `target` was re-driven (or completed by the kernel directly).
    IntentReplayed("intent_replayed", "i", Own) {
        /// Component whose in-flight recovery was re-driven.
        target: u8 => comp,
    }
    /// A FreshRestart restored `target` from its copy-on-write manifest:
    /// only the `dirty` diverged chunks were written back, the `clean`
    /// chunks were skipped, making restart cost O(dirty state).
    CowRestore("cow_restore", "i", Own) {
        /// Restored component.
        target: u8 => comp,
        /// Chunks skipped because the live object had not diverged.
        clean: u32 => u64,
        /// Chunks verified and written back.
        dirty: u32 => u64,
        /// Bytes actually copied into the heap.
        bytes: u32 => u64,
    }
    /// A causal request span was minted at a workload entry point.
    SpanOpen("span", "b", Span) {
        /// Span id (monotone per run).
        span: u64 => id,
        /// Syscall id of the originating user request.
        sid: u64 => u64,
        /// Calling process.
        pid: u32 => u64,
    }
    /// A span-carrying message was delivered to the recording component:
    /// one causal hop of the request's cross-component call chain.
    SpanHop("span_hop", "n", Span) {
        /// Span id.
        span: u64 => id,
        /// Sending component ([`KERNEL_COMP`] for kernel-originated).
        src: u8 => comp,
        /// Delivered message id.
        msg_id: u64 => u64,
    }
    /// A span closed: the originating request's reply was routed back to
    /// the user process.
    SpanClose("span", "e", Span) {
        /// Span id.
        span: u64 => id,
        /// Whether the reply was a success (false for error replies,
        /// including virtualized `E_CRASH`/`E_SHUTDOWN`).
        ok: bool => bool,
        /// Whether at least one crash/hang capture or completed recovery
        /// happened between span open and close.
        crossed_recovery: bool => bool,
        /// End-to-end virtual cycles from open to close.
        latency: u64 => u64,
    }
    /// The kernel armed a per-request watchdog deadline for a message
    /// delivered to `target`.
    DeadlineArmed("deadline_armed", "i", Watchdog) {
        /// Component the request was delivered to.
        target: u8 => comp,
        /// Armed message id.
        msg_id: u64 => u64,
        /// Absolute virtual-clock deadline.
        deadline: u64 => u64,
    }
    /// An armed deadline expired with no reply observed.
    DeadlineExpired("deadline_expired", "i", Watchdog) {
        /// Component the request was delivered to.
        target: u8 => comp,
        /// Expired message id.
        msg_id: u64 => u64,
    }
    /// The watchdog sampled `target`'s progress counters to distinguish a
    /// hung component from a slow one.
    WatchdogProbe("watchdog_probe", "i", Watchdog) {
        /// Probed component.
        target: u8 => comp,
        /// Message id of the request under suspicion.
        msg_id: u64 => u64,
    }
    /// The watchdog concluded its probe with a verdict.
    WatchdogVerdict("watchdog_verdict", "i", Watchdog) {
        /// Component the verdict concerns.
        target: u8 => comp,
        /// Message id of the request under suspicion.
        msg_id: u64 => u64,
        /// What the probe concluded.
        verdict: VerdictCode => code,
    }
    /// The kernel granted a transparent retry: the original request will be
    /// re-delivered after `backoff` virtual cycles.
    RetryScheduled("retry_scheduled", "i", Watchdog) {
        /// Component the request targets.
        target: u8 => comp,
        /// Retried message id (stable across attempts).
        msg_id: u64 => u64,
        /// Attempt number of the upcoming re-delivery (1 = first retry).
        attempt: u8 => u64,
        /// Backoff (incl. deterministic jitter) before the resend.
        backoff: u64 => u64,
    }
    /// Retries for `msg_id` were denied or exhausted; the requester sees
    /// the virtualized crash reply.
    RetryExhausted("retry_exhausted", "i", Watchdog) {
        /// Component the request targeted.
        target: u8 => comp,
        /// Message id whose retries ended.
        msg_id: u64 => u64,
    }
    /// A reply failed integrity verification and was rejected; the sender
    /// is treated as crashed.
    ReplyRejected("reply_rejected", "i", Watchdog) {
        /// Component that sent the corrupt reply.
        sender: u8 => comp,
        /// Message id of the rejected reply's request.
        msg_id: u64 => u64,
    }
}

/// The flight-recorder twin of a control-plane event: the lane it is drawn
/// on and the trace event carrying the same facts. Window bookkeeping,
/// intents and pool refreshes have no trace vocabulary; `EscalationStep`
/// and `RetryDecision` fan out conditionally and are traced by their
/// callers.
pub fn trace_twin(event: &AxiomEvent) -> Option<(u8, TraceEvent)> {
    use TraceEvent as T;
    Some(match *event {
        AxiomEvent::Crash { comp: target } => (target, T::Crash { target }),
        AxiomEvent::HangDetected { comp: target } => (target, T::HangDetected { target }),
        AxiomEvent::IntentReplayed { comp: target } => (KERNEL_COMP, T::IntentReplayed { target }),
        AxiomEvent::RecoveryDecision {
            comp: target,
            action,
        } => (KERNEL_COMP, T::RecoveryDecision { target, action }),
        AxiomEvent::RecoveryFallback {
            comp: target,
            from,
            to,
        } => (KERNEL_COMP, T::RecoveryFallback { target, from, to }),
        AxiomEvent::RecoveryDone {
            comp: target,
            cycles,
        } => (KERNEL_COMP, T::RecoveryDone { target, cycles }),
        AxiomEvent::Quarantined { comp: target } => (KERNEL_COMP, T::Quarantined { target }),
        AxiomEvent::ShutdownDecision { controlled } => {
            (KERNEL_COMP, T::ShutdownDecision { controlled })
        }
        AxiomEvent::DeadlineExpired {
            comp: target,
            msg_id,
            ..
        } => (target, T::DeadlineExpired { target, msg_id }),
        // A corrupt-reply verdict is recorded as the rejection it caused.
        AxiomEvent::WatchdogVerdict {
            comp: sender,
            verdict: VerdictCode::CorruptReply,
            msg_id,
        } => (sender, T::ReplyRejected { sender, msg_id }),
        AxiomEvent::WatchdogVerdict {
            comp: target,
            verdict,
            msg_id,
        } => (
            target,
            T::WatchdogVerdict {
                target,
                msg_id,
                verdict,
            },
        ),
        _ => return None,
    })
}

/// One recorded event: virtual timestamp, per-component sequence number,
/// emitting component, payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual-clock cycle at which the event was recorded.
    pub now: u64,
    /// Per-component monotone sequence number (starts at 0).
    pub seq: u64,
    /// Emitting component index, or [`KERNEL_COMP`].
    pub comp: u8,
    /// The event payload.
    pub event: TraceEvent,
}

/// Flight-recorder configuration, embedded in the kernel/OS config.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Master switch. When false, an emit point costs one branch on this
    /// bool.
    pub enabled: bool,
    /// Ring capacity in events. The ring overwrites its oldest records
    /// once full (flight-recorder semantics).
    pub capacity: usize,
    /// Events per component dumped by the post-mortem black box
    /// ([`Tracer::blackbox`]); 0 disables the dump.
    pub blackbox_tail: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            capacity: 16 * 1024,
            blackbox_tail: 32,
        }
    }
}

impl TraceConfig {
    /// An enabled config with the default capacity.
    pub fn on() -> TraceConfig {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }
}

/// The events one component emitted that the ring's owner has not appended
/// yet, in emission order: what a heap records into, since only the kernel
/// holds the [`Tracer`].
#[derive(Debug, Default)]
pub struct Stage {
    on: bool,
    events: Vec<TraceEvent>,
}

impl Stage {
    /// Events a stage holds before it first grows. The kernel appends a
    /// heap's stage after every call into it, so it holds one handler's
    /// (or one recovery step's) events at most: up to 1,030 for VM's
    /// largest handler in the paper's programs.
    pub const CAPACITY: usize = 2048;

    /// A stage for a recorder configured by `cfg`: sized once when `cfg`
    /// records, and staging nothing when it does not.
    pub fn new(cfg: &TraceConfig) -> Stage {
        Stage {
            on: cfg.enabled,
            events: Vec::with_capacity(if cfg.enabled { Stage::CAPACITY } else { 0 }),
        }
    }

    /// Stages `event` (one branch when tracing is off).
    #[inline]
    pub fn push(&mut self, event: TraceEvent) {
        if self.on {
            self.events.push(event);
        }
    }

    /// Number of staged events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The recorder: a fixed-capacity ring of [`TraceRecord`]s plus
/// per-component sequence counters, owned solely by whoever stamps it
/// (the kernel). Other emitters record into a [`Stage`] the owner appends.
#[derive(Debug)]
pub struct Tracer {
    cfg: TraceConfig,
    ring: Vec<TraceRecord>,
    head: usize,
    wrapped: bool,
    seq: [u64; 256],
    total: u64,
    now: u64,
}

impl Tracer {
    /// Creates a recorder. The ring is preallocated up front when the
    /// config enables tracing, so steady-state emits never allocate.
    pub fn new(cfg: TraceConfig) -> Tracer {
        let mut t = Tracer {
            cfg,
            ring: Vec::new(),
            head: 0,
            wrapped: false,
            seq: [0; 256],
            total: 0,
            now: 0,
        };
        if t.cfg.enabled {
            t.ring.reserve_exact(t.cfg.capacity);
        }
        t
    }

    /// The active configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Whether the recorder records at all.
    pub fn is_enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Updates the recorder's notion of virtual time. Subsequent events are
    /// stamped with this value.
    pub fn set_now(&mut self, now: u64) {
        self.now = now;
    }

    /// The currently stamped virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Records `event` for component `comp` if recording is on. Never
    /// allocates once the ring has been sized.
    #[inline]
    pub fn emit(&mut self, comp: u8, event: TraceEvent) {
        if self.cfg.enabled {
            self.record(comp, event);
        }
    }

    /// Appends what `stage` holds as component `comp`'s events, in the
    /// order staged, stamped with the current time, and empties it (its
    /// capacity stays). Appended before the owner's next emit or restamp,
    /// the records equal those a direct emit would have made: same stamp,
    /// same per-component sequence numbers, same ring order.
    #[inline]
    pub fn append(&mut self, comp: u8, stage: &mut Stage) {
        if stage.events.is_empty() {
            return;
        }
        for event in stage.events.drain(..) {
            self.emit(comp, event);
        }
    }

    #[inline]
    fn record(&mut self, comp: u8, event: TraceEvent) {
        let seq = &mut self.seq[comp as usize];
        let rec = TraceRecord {
            now: self.now,
            seq: *seq,
            comp,
            event,
        };
        *seq += 1;
        self.total += 1;
        if self.ring.len() < self.cfg.capacity {
            self.ring.push(rec);
        } else if let Some(slot) = self.ring.get_mut(self.head) {
            // Full: overwrite the oldest record, the one at `head`, which
            // stays 0 while the ring fills.
            *slot = rec;
            self.head += 1;
            if self.head == self.ring.len() {
                self.head = 0;
            }
            self.wrapped = true;
        }
    }

    /// Number of records currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no records are held.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total events recorded over the recorder's lifetime, including those
    /// already overwritten by the ring.
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Whether the ring has wrapped (oldest events were overwritten).
    pub fn has_wrapped(&self) -> bool {
        self.wrapped
    }

    /// The held records in chronological order (oldest first).
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.ring.len());
        if self.ring.len() < self.cfg.capacity {
            out.extend_from_slice(&self.ring);
        } else {
            out.extend_from_slice(&self.ring[self.head..]);
            out.extend_from_slice(&self.ring[..self.head]);
        }
        out
    }

    /// The last `per_comp` records of each component, in global
    /// chronological order — the post-mortem "black box" view.
    pub fn tail_per_comp(&self, per_comp: usize) -> Vec<TraceRecord> {
        let all = self.snapshot();
        let mut kept = [0usize; 256];
        let mut keep = vec![false; all.len()];
        for (i, r) in all.iter().enumerate().rev() {
            if kept[r.comp as usize] < per_comp {
                kept[r.comp as usize] += 1;
                keep[i] = true;
            }
        }
        all.into_iter()
            .zip(keep)
            .filter_map(|(r, k)| k.then_some(r))
            .collect()
    }

    /// Drops all held records and resets sequence counters.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.head = 0;
        self.wrapped = false;
        self.seq = [0; 256];
        self.total = 0;
    }

    /// Renders the post-mortem black box: the last `blackbox_tail` events
    /// per component, formatted with `names`. Returns `None` when disabled,
    /// when the tail is configured to 0, or when nothing was recorded.
    pub fn blackbox(&self, names: &[String]) -> Option<String> {
        if !self.cfg.enabled || self.cfg.blackbox_tail == 0 {
            return None;
        }
        let tail = self.tail_per_comp(self.cfg.blackbox_tail);
        if tail.is_empty() {
            return None;
        }
        let mut out = String::from("== trace black box (last events per component) ==\n");
        out.push_str(&render_text(&tail, names));
        Some(out)
    }

    /// Fork support: the recorder's full state — chronological ring
    /// contents, per-component sequence counters, lifetime total and the
    /// stamped virtual time — for [`Tracer::restore_state`] on a same-config
    /// recorder.
    pub fn export_state(&self) -> TracerState {
        TracerState {
            records: self.snapshot(),
            wrapped: self.wrapped,
            seq: self.seq,
            total: self.total,
            now: self.now,
        }
    }

    /// Fork support: overwrites this recorder's state with a donor's. The
    /// ring is rebuilt oldest-first (a rotation the chronological
    /// [`Tracer::snapshot`] cannot observe); subsequent emits continue
    /// exactly as they would have on the donor.
    pub fn restore_state(&mut self, state: &TracerState) {
        self.ring.clear();
        self.ring.extend_from_slice(&state.records);
        self.head = 0;
        self.wrapped = state.wrapped;
        self.seq = state.seq;
        self.total = state.total;
        self.now = state.now;
    }
}

/// Exported [`Tracer`] state for the fork path: ring contents in
/// chronological order plus every counter an emit consults.
#[derive(Clone, Debug)]
pub struct TracerState {
    records: Vec<TraceRecord>,
    wrapped: bool,
    seq: [u64; 256],
    total: u64,
    now: u64,
}

/// How an export shows a component id: its name from the component table,
/// `kernel` for [`KERNEL_COMP`], `c<n>` beyond the table.
#[derive(Clone, Copy)]
pub(crate) enum CompName<'a> {
    Named(&'a str),
    Kernel,
    Index(u8),
}

impl CompName<'_> {
    pub(crate) fn of(comp: u8, names: &[String]) -> CompName<'_> {
        match names.get(usize::from(comp)) {
            _ if comp == KERNEL_COMP => CompName::Kernel,
            Some(name) => CompName::Named(name),
            None => CompName::Index(comp),
        }
    }

    /// Puts the name as it is (an export escapes a `Named` one).
    pub(crate) fn put(self, out: &mut impl Sink) {
        match self {
            CompName::Named(name) => out.put(name),
            CompName::Kernel => out.put("kernel"),
            CompName::Index(comp) => {
                out.put("c");
                out.put_u64(comp.into());
            }
        }
    }

    /// Its length in bytes and in characters.
    fn len(self) -> (usize, usize) {
        match self {
            CompName::Named(name) => (name.len(), name.chars().count()),
            CompName::Kernel => ("kernel".len(), "kernel".len()),
            CompName::Index(comp) => (1 + decimal_len(comp.into()), 1 + decimal_len(comp.into())),
        }
    }

    /// Puts the name, then spaces up to `width` characters: `{:<width}`.
    fn put_padded(self, out: &mut impl Sink, width: usize) {
        self.put(out);
        out.pad(self.len().1, width);
    }

    /// Bytes [`put_padded`](Self::put_padded) writes.
    fn padded_len(self, width: usize) -> usize {
        let (bytes, chars) = self.len();
        bytes + width.saturating_sub(chars)
    }
}

/// Writes the text `#[derive(Debug)]` gives a struct-like enum variant:
/// `Ident` alone, or `Ident { a: 1, b: true, c: Code }`.
struct DebugText<'a, S> {
    out: &'a mut S,
    open: bool,
}

impl<'a, S: Sink> DebugText<'a, S> {
    fn new(out: &'a mut S, ident: &str) -> Self {
        out.put(ident);
        DebugText { out, open: false }
    }

    fn field(&mut self, name: &str, value: FieldValue) {
        self.out.put(if std::mem::replace(&mut self.open, true) {
            ", "
        } else {
            " { "
        });
        self.out.put(name);
        self.out.put(": ");
        match value {
            FieldValue::U64(v) => self.out.put_u64(v),
            FieldValue::Bool(b) => self.out.put(if b { "true" } else { "false" }),
            FieldValue::Code(ident) => self.out.put(ident),
        }
    }

    fn finish(self) {
        if self.open {
            self.out.put(" }");
        }
    }
}

impl TraceEvent {
    /// Writes this event's text form, as `#[derive(Debug)]` prints it:
    /// component fields as their ids, codes by identifier.
    pub(crate) fn write_text(&self, out: &mut impl Sink) {
        let mut text = DebugText::new(out, self.meta().ident);
        self.fields(|name, field| {
            text.field(
                name,
                match field {
                    Field::U64(v) | Field::Id(v) | Field::Dur(v) => FieldValue::U64(v),
                    Field::Comp(c) => FieldValue::U64(c.into()),
                    Field::Bool(b) => FieldValue::Bool(b),
                    Field::Code(ident) => FieldValue::Code(ident),
                },
            )
        });
        text.finish();
    }
}

/// Writes an axiom event's text form, as `#[derive(Debug)]` prints it.
pub(crate) fn write_axiom_text(event: &AxiomEvent, out: &mut impl Sink) {
    let mut text = DebugText::new(out, event.ident());
    event.fields(|name, value| text.field(name, value));
    text.finish();
}

/// Renders records as a deterministic line-per-event text stream: the
/// format diffed by the CI determinism gate and byte-compared by the
/// same-seed replay test. Each line is `t=<now> <component> #<seq> <event>`,
/// the first three left-aligned in 10, 8 and 5 columns. One allocation:
/// the text is sized from its widest possible lines first.
pub fn render_text(records: &[TraceRecord], names: &[String]) -> String {
    let mut out = String::with_capacity(text_capacity(records, names));
    for r in records {
        out.put("t=");
        out.put_u64_padded(r.now, 10);
        out.put(" ");
        CompName::of(r.comp, names).put_padded(&mut out, 8);
        out.put(" #");
        out.put_u64_padded(r.seq, 5);
        out.put(" ");
        r.event.write_text(&mut out);
        out.put("\n");
    }
    out
}

/// The most bytes [`render_text`] can write for `records`: every line at
/// its widest.
fn text_capacity(records: &[TraceRecord], names: &[String]) -> usize {
    let line = |r: &TraceRecord| {
        // "t=", " ", " #", " " and "\n" around the columns.
        7 + decimal_len(r.now).max(10)
            + CompName::of(r.comp, names).padded_len(8)
            + decimal_len(r.seq).max(5)
            + r.event.text_bound()
    };
    records.iter().map(line).sum()
}

#[cfg(test)]
mod fmt_oracle;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_row_is_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (i, event) in (0..).zip(TraceEvent::samples(0)) {
            let meta = event.meta();
            // A name is shared only by the halves of one slice or pair.
            assert!(seen.insert((meta.name, meta.ph)), "{meta:?} twice");
            let text = chrome::ChromeTrace {
                records: vec![TraceRecord {
                    now: 9,
                    seq: i,
                    comp: 0,
                    event,
                }],
                names: vec![],
                axiom: &[],
                counters: &(),
            }
            .pretty();
            let args_end = format!("\"seq\": {i}\n      }}\n    }}\n  ],");
            assert!(text.contains(&args_end), "{event:?}: {text}");
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(TraceConfig::default());
        let mut stage = Stage::new(t.config());
        t.emit(0, TraceEvent::WindowOpen);
        stage.push(TraceEvent::WindowOpen);
        assert!(stage.is_empty());
        t.append(0, &mut stage);
        assert_eq!(t.snapshot().len(), 0);
        assert!(!t.is_enabled());
    }
}
