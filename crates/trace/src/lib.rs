//! # osiris-trace
//!
//! A deterministic, allocation-free-in-steady-state **flight recorder** for
//! the OSIRIS simulator: a fixed-capacity ring buffer of typed
//! [`TraceEvent`] records stamped with the *virtual* clock, per-component
//! sequence numbers, and a cheap severity/category filter.
//!
//! Design constraints (see DESIGN.md §6d):
//!
//! * **Determinism.** Events carry only virtual-clock timestamps and values
//!   derived from simulator state — never wall-clock time, addresses, or
//!   global counters that differ across runs. Two runs of the same workload
//!   produce byte-identical event streams.
//! * **Zero allocation in steady state.** The ring is allocated once, at
//!   construction (or when tracing is first enabled); emitting an event
//!   writes a [`Copy`] record into a pre-existing slot. The `gates` binary
//!   proves this with a counting global allocator.
//! * **No cost-model perturbation.** Emitting never touches the virtual
//!   clock; tracing is an observer of the cost model, not a participant.
//!   The recorder is told the current virtual time via
//!   [`TraceHandle::set_now`].
//! * **Cheap when off.** The disabled path is a single relaxed atomic load,
//!   so always-on emit points in hot paths (undo-log appends) stay cheap
//!   (`trace.delta_ns_per_msg` in `benchmark/`).
//!
//! The crate sits just above `osiris-axiom` (the authoritative
//! control-plane log), from which it re-exports the shared
//! [`CloseCode`]/[`SeepClassCode`]/[`ActionCode`] vocabularies; the
//! checkpoint/core/kernel layers all emit through it. The small hand-rolled
//! [`Json`] value tree (used by the Chrome `trace_event` exporter in
//! [`chrome`]) lives here too and is re-exported by `osiris-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod hist;
pub mod json;

pub use hist::{HistSummary, Log2Hist};
pub use json::Json;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Component id used for events emitted by the kernel itself rather than by
/// a registered component.
pub const KERNEL_COMP: u8 = 0xFF;

/// Severity of a trace event. Ordered: `Debug < Info < Warn < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// High-frequency bookkeeping (undo appends, checkpoint marks).
    Debug,
    /// Normal control flow (IPC, windows, syscalls).
    Info,
    /// Faults and recovery activity.
    Warn,
    /// Shutdown decisions.
    Error,
}

/// Category of a trace event; each category is one bit in a [`CategoryMask`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Category {
    /// Message sends and deliveries.
    Ipc,
    /// Recovery-window opens and closes.
    Window,
    /// Undo-journal appends and coalesced (elided) appends.
    Undo,
    /// Checkpoint marks, rollbacks, and log discards.
    Checkpoint,
    /// Crashes, hangs, and Recovery Server decisions.
    Recovery,
    /// User-process syscall entry and exit.
    Syscall,
    /// Controlled/uncontrolled shutdown decisions.
    Shutdown,
    /// Causal request spans: open/hop/close lifecycle events.
    Span,
    /// Virtual-time watchdog: armed deadlines, expiries, heartbeat probes,
    /// verdicts and transparent-retry decisions.
    Watchdog,
}

impl Category {
    /// The bit this category occupies in a [`CategoryMask`].
    pub fn bit(self) -> u16 {
        1 << (self as u16)
    }
}

/// A set of [`Category`] values, stored as a bitmask.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CategoryMask(pub u16);

impl CategoryMask {
    /// Every category enabled.
    pub const ALL: CategoryMask = CategoryMask(0x1FF);
    /// No category enabled.
    pub const NONE: CategoryMask = CategoryMask(0);

    /// Builds a mask from individual categories.
    pub fn of(cats: &[Category]) -> CategoryMask {
        CategoryMask(cats.iter().fold(0, |m, c| m | c.bit()))
    }

    /// Whether `cat` is enabled in this mask.
    pub fn contains(self, cat: Category) -> bool {
        self.0 & cat.bit() != 0
    }

    /// This mask with `cat` removed.
    pub fn without(self, cat: Category) -> CategoryMask {
        CategoryMask(self.0 & !cat.bit())
    }
}

impl Default for CategoryMask {
    fn default() -> Self {
        CategoryMask::ALL
    }
}

pub use osiris_axiom::{ActionCode, CloseCode, SeepClassCode, VerdictCode};

/// A typed, fixed-size trace event. Every variant is `Copy` and contains no
/// heap-owning field, so emitting one never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A component (or the kernel on behalf of a user process) sent a
    /// message to `dst`.
    IpcSend {
        /// Receiving component.
        dst: u8,
        /// Monotone per-run message id.
        msg_id: u64,
        /// SEEP class engraved on the message.
        class: SeepClassCode,
    },
    /// The kernel delivered message `msg_id` from `src` to the recording
    /// component and is about to dispatch its handler.
    IpcDeliver {
        /// Sending component ([`KERNEL_COMP`] for kernel-originated).
        src: u8,
        /// Monotone per-run message id.
        msg_id: u64,
    },
    /// A recovery window opened (undo logging armed).
    WindowOpen,
    /// A recovery window closed.
    WindowClose {
        /// Why it closed.
        reason: CloseCode,
        /// SEEP class of the send that closed it, if any.
        class: SeepClassCode,
    },
    /// The undo journal appended an old-value record of `bytes` bytes.
    UndoAppend {
        /// Payload bytes captured into the journal.
        bytes: u32,
    },
    /// A write to an already-logged location was elided (coalesced).
    UndoCoalesce,
    /// A checkpoint mark was taken at undo-log length `log_len`.
    CheckpointMark {
        /// Journal length at the mark.
        log_len: u32,
    },
    /// The journal rolled back `records` records (`bytes` payload bytes).
    Rollback {
        /// Records undone.
        records: u32,
        /// Payload bytes restored.
        bytes: u32,
    },
    /// The journal discarded `records` records on commit.
    Discard {
        /// Records discarded.
        records: u32,
        /// Payload bytes released.
        bytes: u32,
    },
    /// Component `target` crashed (fail-stop fault captured).
    Crash {
        /// Crashed component.
        target: u8,
    },
    /// Component `target` was declared hung by the heartbeat protocol.
    HangDetected {
        /// Hung component.
        target: u8,
    },
    /// The Recovery Server was notified of a crash.
    RsCrashNotified {
        /// Crashed component the RS was told about.
        target: u8,
    },
    /// The recovery policy decided how to recover `target`.
    RecoveryDecision {
        /// Component being recovered.
        target: u8,
        /// Chosen action.
        action: ActionCode,
    },
    /// Recovery of `target` finished, charging `cycles` virtual cycles.
    RecoveryDone {
        /// Recovered component.
        target: u8,
        /// Virtual cycles spent (restart + rollback + reconciliation).
        cycles: u64,
    },
    /// A user process entered a syscall serviced by the recording component.
    SyscallEnter {
        /// Monotone syscall id (the kernel's message id for the request).
        sid: u64,
        /// Calling process.
        pid: u32,
    },
    /// A syscall completed and its reply was routed back to the process.
    SyscallExit {
        /// Syscall id matching the corresponding [`TraceEvent::SyscallEnter`].
        sid: u64,
        /// Calling process.
        pid: u32,
        /// Whether the reply is a success (false for error replies,
        /// including virtualized `E_CRASH`).
        ok: bool,
    },
    /// The system decided to shut down.
    ShutdownDecision {
        /// True for a controlled (state-flushing) shutdown, false for an
        /// uncontrolled crash stop.
        controlled: bool,
    },
    /// Component `target` exhausted its restart budget inside the sliding
    /// window: the escalation ladder is stepping past plain restarts.
    BudgetExhausted {
        /// Crash-looping component.
        target: u8,
    },
    /// Recovery of `target` was deferred by `delay` virtual cycles of
    /// exponential restart backoff.
    BackoffArmed {
        /// Component whose recovery is deferred.
        target: u8,
        /// Backoff delay in virtual cycles.
        delay: u64,
    },
    /// Component `target` was quarantined: no further restarts, messages
    /// to it are bounced with an immediate crash reply.
    Quarantined {
        /// Benched component.
        target: u8,
    },
    /// A recovery phase for `target` could not be executed (journal or
    /// image integrity violation, or a fault inside the phase itself); the
    /// kernel degraded from `from` to the next rung of the fallback chain.
    RecoveryFallback {
        /// Component whose recovery degraded.
        target: u8,
        /// The action that failed.
        from: ActionCode,
        /// The action tried next.
        to: ActionCode,
    },
    /// The RS crashed mid-conduct and the persisted recovery intent for
    /// `target` was re-driven (or completed by the kernel directly).
    IntentReplayed {
        /// Component whose in-flight recovery was re-driven.
        target: u8,
    },
    /// A FreshRestart restored `target` from its copy-on-write manifest:
    /// only the `dirty` diverged chunks were written back, the `clean`
    /// chunks were skipped, making restart cost O(dirty state).
    CowRestore {
        /// Restored component.
        target: u8,
        /// Chunks skipped because the live object had not diverged.
        clean: u32,
        /// Chunks verified and written back.
        dirty: u32,
        /// Bytes actually copied into the heap.
        bytes: u32,
    },
    /// A causal request span was minted at a workload entry point.
    SpanOpen {
        /// Span id (monotone per run).
        span: u64,
        /// Syscall id of the originating user request.
        sid: u64,
        /// Calling process.
        pid: u32,
    },
    /// A span-carrying message was delivered to the recording component:
    /// one causal hop of the request's cross-component call chain.
    SpanHop {
        /// Span id.
        span: u64,
        /// Sending component ([`KERNEL_COMP`] for kernel-originated).
        src: u8,
        /// Delivered message id.
        msg_id: u64,
    },
    /// A span closed: the originating request's reply was routed back to
    /// the user process.
    SpanClose {
        /// Span id.
        span: u64,
        /// Whether the reply was a success (false for error replies,
        /// including virtualized `E_CRASH`/`E_SHUTDOWN`).
        ok: bool,
        /// Whether at least one crash/hang capture or completed recovery
        /// happened between span open and close.
        crossed_recovery: bool,
        /// End-to-end virtual cycles from open to close.
        latency: u64,
    },
    /// The kernel armed a per-request watchdog deadline for a message
    /// delivered to `target`.
    DeadlineArmed {
        /// Component the request was delivered to.
        target: u8,
        /// Armed message id.
        msg_id: u64,
        /// Absolute virtual-clock deadline.
        deadline: u64,
    },
    /// An armed deadline expired with no reply observed.
    DeadlineExpired {
        /// Component the request was delivered to.
        target: u8,
        /// Expired message id.
        msg_id: u64,
    },
    /// The watchdog sampled `target`'s progress counters to distinguish a
    /// hung component from a slow one.
    WatchdogProbe {
        /// Probed component.
        target: u8,
        /// Message id of the request under suspicion.
        msg_id: u64,
    },
    /// The watchdog concluded its probe with a verdict.
    WatchdogVerdict {
        /// Component the verdict concerns.
        target: u8,
        /// Message id of the request under suspicion.
        msg_id: u64,
        /// What the probe concluded.
        verdict: VerdictCode,
    },
    /// The kernel granted a transparent retry: the original request will be
    /// re-delivered after `backoff` virtual cycles.
    RetryScheduled {
        /// Component the request targets.
        target: u8,
        /// Retried message id (stable across attempts).
        msg_id: u64,
        /// Attempt number of the upcoming re-delivery (1 = first retry).
        attempt: u8,
        /// Backoff (incl. deterministic jitter) before the resend.
        backoff: u64,
    },
    /// Retries for `msg_id` were denied or exhausted; the requester sees
    /// the virtualized crash reply.
    RetryExhausted {
        /// Component the request targeted.
        target: u8,
        /// Message id whose retries ended.
        msg_id: u64,
    },
    /// A reply failed integrity verification and was rejected; the sender
    /// is treated as crashed.
    ReplyRejected {
        /// Component that sent the corrupt reply.
        sender: u8,
        /// Message id of the rejected reply's request.
        msg_id: u64,
    },
}

impl TraceEvent {
    /// The category this event belongs to.
    pub fn category(&self) -> Category {
        match self {
            TraceEvent::IpcSend { .. } | TraceEvent::IpcDeliver { .. } => Category::Ipc,
            TraceEvent::WindowOpen | TraceEvent::WindowClose { .. } => Category::Window,
            TraceEvent::UndoAppend { .. } | TraceEvent::UndoCoalesce => Category::Undo,
            TraceEvent::CheckpointMark { .. }
            | TraceEvent::Rollback { .. }
            | TraceEvent::Discard { .. } => Category::Checkpoint,
            TraceEvent::Crash { .. }
            | TraceEvent::HangDetected { .. }
            | TraceEvent::RsCrashNotified { .. }
            | TraceEvent::RecoveryDecision { .. }
            | TraceEvent::RecoveryDone { .. }
            | TraceEvent::BudgetExhausted { .. }
            | TraceEvent::BackoffArmed { .. }
            | TraceEvent::Quarantined { .. }
            | TraceEvent::RecoveryFallback { .. }
            | TraceEvent::IntentReplayed { .. }
            | TraceEvent::CowRestore { .. } => Category::Recovery,
            TraceEvent::SyscallEnter { .. } | TraceEvent::SyscallExit { .. } => Category::Syscall,
            TraceEvent::ShutdownDecision { .. } => Category::Shutdown,
            TraceEvent::SpanOpen { .. }
            | TraceEvent::SpanHop { .. }
            | TraceEvent::SpanClose { .. } => Category::Span,
            TraceEvent::DeadlineArmed { .. }
            | TraceEvent::DeadlineExpired { .. }
            | TraceEvent::WatchdogProbe { .. }
            | TraceEvent::WatchdogVerdict { .. }
            | TraceEvent::RetryScheduled { .. }
            | TraceEvent::RetryExhausted { .. }
            | TraceEvent::ReplyRejected { .. } => Category::Watchdog,
        }
    }

    /// The inherent severity of this event.
    pub fn severity(&self) -> Severity {
        match self {
            TraceEvent::UndoAppend { .. }
            | TraceEvent::UndoCoalesce
            | TraceEvent::CheckpointMark { .. }
            | TraceEvent::Discard { .. }
            | TraceEvent::DeadlineArmed { .. }
            | TraceEvent::WatchdogProbe { .. } => Severity::Debug,
            TraceEvent::IpcSend { .. }
            | TraceEvent::IpcDeliver { .. }
            | TraceEvent::WindowOpen
            | TraceEvent::WindowClose { .. }
            | TraceEvent::SyscallEnter { .. }
            | TraceEvent::SyscallExit { .. }
            | TraceEvent::SpanOpen { .. }
            | TraceEvent::SpanHop { .. }
            | TraceEvent::SpanClose { .. } => Severity::Info,
            TraceEvent::Rollback { .. }
            | TraceEvent::Crash { .. }
            | TraceEvent::HangDetected { .. }
            | TraceEvent::RsCrashNotified { .. }
            | TraceEvent::RecoveryDecision { .. }
            | TraceEvent::RecoveryDone { .. }
            | TraceEvent::BudgetExhausted { .. }
            | TraceEvent::BackoffArmed { .. }
            | TraceEvent::Quarantined { .. }
            | TraceEvent::RecoveryFallback { .. }
            | TraceEvent::IntentReplayed { .. }
            | TraceEvent::CowRestore { .. }
            | TraceEvent::DeadlineExpired { .. }
            | TraceEvent::WatchdogVerdict { .. }
            | TraceEvent::RetryScheduled { .. }
            | TraceEvent::RetryExhausted { .. }
            | TraceEvent::ReplyRejected { .. } => Severity::Warn,
            TraceEvent::ShutdownDecision { .. } => Severity::Error,
        }
    }
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
    /// Master switch. When false, emit points cost one atomic load.
    pub enabled: bool,
    /// Ring capacity in events. The ring overwrites its oldest records
    /// once full (flight-recorder semantics).
    pub capacity: usize,
    /// Categories to record; events outside the mask are dropped.
    pub categories: CategoryMask,
    /// Minimum severity to record.
    pub min_severity: Severity,
    /// Mirror every recorded event to stderr (implies `enabled`).
    pub verbose: bool,
    /// Events per component dumped by the post-mortem black box
    /// ([`Tracer::blackbox`]); 0 disables the dump.
    pub blackbox_tail: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            capacity: 16 * 1024,
            categories: CategoryMask::ALL,
            min_severity: Severity::Debug,
            verbose: false,
            blackbox_tail: 32,
        }
    }
}

impl TraceConfig {
    /// An enabled config with default capacity and filters.
    pub fn on() -> TraceConfig {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }
}

/// The recorder: a fixed-capacity ring of [`TraceRecord`]s plus
/// per-component sequence counters.
///
/// Users normally hold a [`TraceHandle`] (cheaply cloneable, shared between
/// the kernel, heaps, and windows) rather than a `Tracer` directly.
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

    /// Updates the recorder's notion of virtual time. Subsequent events are
    /// stamped with this value.
    pub fn set_now(&mut self, now: u64) {
        self.now = now;
    }

    /// The currently stamped virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Records `event` for component `comp` if it passes the filters.
    /// Never allocates once the ring has been sized.
    pub fn emit(&mut self, comp: u8, event: TraceEvent) {
        if !self.cfg.enabled
            || !self.cfg.categories.contains(event.category())
            || event.severity() < self.cfg.min_severity
        {
            return;
        }
        let seq = self.seq[comp as usize];
        self.seq[comp as usize] += 1;
        self.total += 1;
        let rec = TraceRecord {
            now: self.now,
            seq,
            comp,
            event,
        };
        if self.cfg.verbose {
            eprintln!("[trace t={} c={} #{}] {:?}", rec.now, comp, seq, event);
        }
        if self.cfg.capacity == 0 {
            return;
        }
        if self.ring.len() < self.cfg.capacity {
            self.ring.push(rec);
            if self.ring.len() == self.cfg.capacity {
                // Note for the next write, which will wrap to index 0.
                self.head = 0;
            } else {
                self.head = self.ring.len();
            }
        } else {
            self.ring[self.head] = rec;
            self.head = (self.head + 1) % self.cfg.capacity;
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
        self.head = if self.cfg.capacity > 0 && self.ring.len() >= self.cfg.capacity {
            0
        } else {
            self.ring.len()
        };
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

/// A cheaply cloneable, shareable handle to a [`Tracer`].
///
/// The disabled fast path is a single relaxed atomic load — no lock is
/// taken — so handles can sit on undo-log hot paths.
#[derive(Clone, Debug)]
pub struct TraceHandle {
    on: Arc<AtomicBool>,
    inner: Arc<Mutex<Tracer>>,
}

impl TraceHandle {
    /// Creates a handle around a fresh recorder. `verbose` implies
    /// `enabled`.
    pub fn new(mut cfg: TraceConfig) -> TraceHandle {
        if cfg.verbose {
            cfg.enabled = true;
        }
        let on = cfg.enabled;
        TraceHandle {
            on: Arc::new(AtomicBool::new(on)),
            inner: Arc::new(Mutex::new(Tracer::new(cfg))),
        }
    }

    /// A handle that records nothing (default for standalone heaps).
    pub fn disabled() -> TraceHandle {
        TraceHandle::new(TraceConfig::default())
    }

    /// Whether the recorder is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Enables or disables recording. Enabling sizes the ring if it has
    /// not been sized yet (the only allocation the recorder ever makes).
    pub fn set_enabled(&self, enabled: bool) {
        let mut t = self.inner.lock().unwrap();
        t.cfg.enabled = enabled;
        if enabled {
            let want = t.cfg.capacity.saturating_sub(t.ring.len());
            t.ring.reserve_exact(want);
        }
        self.on.store(enabled, Ordering::Relaxed);
    }

    /// Records `event` for `comp` (no-op when disabled).
    #[inline]
    pub fn emit(&self, comp: u8, event: TraceEvent) {
        if !self.on.load(Ordering::Relaxed) {
            return;
        }
        self.inner.lock().unwrap().emit(comp, event);
    }

    /// Stamps the recorder with the current virtual time (no-op when
    /// disabled).
    #[inline]
    pub fn set_now(&self, now: u64) {
        if !self.on.load(Ordering::Relaxed) {
            return;
        }
        self.inner.lock().unwrap().set_now(now);
    }

    /// Runs `f` with shared access to the recorder.
    pub fn with<R>(&self, f: impl FnOnce(&Tracer) -> R) -> R {
        f(&self.inner.lock().unwrap())
    }

    /// Chronological snapshot of the held records.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.inner.lock().unwrap().snapshot()
    }

    /// Drops all held records and resets sequence counters (used to exclude
    /// boot from recorded runs).
    pub fn clear(&self) {
        self.inner.lock().unwrap().clear();
    }

    /// Fork support: exports the recorder's state (see
    /// [`Tracer::export_state`]).
    pub fn export_state(&self) -> TracerState {
        self.inner.lock().unwrap().export_state()
    }

    /// Fork support: overwrites the recorder's state with a donor's (see
    /// [`Tracer::restore_state`]).
    pub fn restore_state(&self, state: &TracerState) {
        self.inner.lock().unwrap().restore_state(state);
    }

    /// Renders the post-mortem black box: the last `blackbox_tail` events
    /// per component, formatted with `names`. Returns `None` when disabled
    /// or when the tail is configured to 0.
    pub fn blackbox(&self, names: &[String]) -> Option<String> {
        if !self.is_enabled() {
            return None;
        }
        let t = self.inner.lock().unwrap();
        if t.cfg.blackbox_tail == 0 {
            return None;
        }
        let tail = t.tail_per_comp(t.cfg.blackbox_tail);
        if tail.is_empty() {
            return None;
        }
        let mut out = String::from("== trace black box (last events per component) ==\n");
        out.push_str(&render_text(&tail, names));
        Some(out)
    }
}

impl Default for TraceHandle {
    fn default() -> Self {
        TraceHandle::disabled()
    }
}

/// Resolves a component id to a display name. Ids beyond `names` render as
/// `kernel` (for [`KERNEL_COMP`]) or `c<n>`.
pub fn comp_name(comp: u8, names: &[String]) -> String {
    if comp == KERNEL_COMP {
        "kernel".to_string()
    } else {
        names
            .get(comp as usize)
            .cloned()
            .unwrap_or_else(|| format!("c{comp}"))
    }
}

/// Renders records as a deterministic line-per-event text stream: the
/// format diffed by the CI determinism gate and byte-compared by the
/// same-seed replay test.
pub fn render_text(records: &[TraceRecord], names: &[String]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&format!(
            "t={:<10} {:<8} #{:<5} {:?}\n",
            r.now,
            comp_name(r.comp, names),
            r.seq,
            r.event
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let h = TraceHandle::disabled();
        h.emit(0, TraceEvent::WindowOpen);
        assert_eq!(h.snapshot().len(), 0);
        assert!(!h.is_enabled());
    }

    #[test]
    fn severity_order() {
        assert!(Severity::Debug < Severity::Info);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn mask_ops() {
        let m = CategoryMask::of(&[Category::Ipc, Category::Undo]);
        assert!(m.contains(Category::Ipc));
        assert!(!m.contains(Category::Window));
        assert!(m.without(Category::Ipc).contains(Category::Undo));
        assert!(CategoryMask::ALL.contains(Category::Shutdown));
        assert!(CategoryMask::ALL.contains(Category::Span));
        assert!(CategoryMask::ALL.contains(Category::Watchdog));
    }
}
