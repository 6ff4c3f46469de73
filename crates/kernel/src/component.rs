//! The event-driven component model: the [`Server`] trait, the handler
//! context [`Ctx`], and fault-injection probes.
//!
//! OSIRIS components follow the event-driven programming model of paper
//! §IV-A: after initialization they sit in a request-processing loop,
//! receiving one message at a time. Here the kernel *is* that loop: it opens
//! the component's recovery window, invokes [`Server::handle`] for the
//! received message, and completes the window when the handler returns.
//! Handlers never block — multi-step interactions store continuations in the
//! component's checkpointed heap and resume when the async reply arrives.

use std::any::Any;
use std::fmt;

use osiris_axiom::IntentPhaseCode;
use osiris_checkpoint::Heap;
use osiris_core::{MessageKind, RecoveryPolicy, RecoveryWindow};

use crate::clock::cost;
use crate::message::{Delivery, Endpoint, Message, MsgId, Protocol, ReturnPath, SpanInfo};

/// What kind of instrumentation site a probe marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SiteKind {
    /// A plain basic-block marker.
    Block,
    /// A site producing a value that a fault may perturb.
    Value,
    /// A site evaluating a branch condition that a fault may flip.
    Branch,
}

/// The effect an armed fault has at a probe site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEffect {
    /// No fault fires here.
    None,
    /// Fail-stop: the component crashes immediately (e.g. a NULL-pointer
    /// dereference).
    Panic,
    /// The component hangs; detectable only via heartbeats.
    Hang,
    /// Fail-silent: the branch condition is negated.
    Flip,
    /// Fail-silent: the value is XORed with the given mask.
    Perturb(u64),
    /// Fail-silent: the handler completes correctly but charges
    /// `factor` × [`cost::STALL_QUANTUM`] extra cycles — a slow-but-live
    /// component the watchdog must classify as *slow*, not hung.
    Stall(u32),
    /// Fail-silent: the handler completes but its first outbound reply is
    /// dropped in flight; the requester never hears back.
    DropReply,
    /// Fail-silent: the handler completes but its first outbound reply's
    /// integrity seal is flipped, simulating payload corruption in flight.
    CorruptReply,
}

/// Everything a fault hook can observe about the executing site.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    /// Component executing the site.
    pub component: &'static str,
    /// Site label.
    pub site: &'static str,
    /// Site kind.
    pub kind: SiteKind,
    /// Current virtual time.
    pub now: u64,
    /// Whether the component's recovery window is open (used by the
    /// service-disruption experiment, which injects only inside windows).
    pub window_open: bool,
    /// Whether the message being processed is a request that can still be
    /// error-replied — together with `window_open` this means a crash here
    /// is consistently recoverable.
    pub replyable: bool,
}

/// Hook consulted at every instrumentation site. The fault-injection crate
/// implements this; a no-op implementation is used in production runs.
pub trait FaultHook: Send {
    /// Called at each executed site; returns the effect to apply.
    fn on_site(&mut self, probe: &Probe) -> FaultEffect;
}

/// The default hook: never injects anything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl FaultHook for NoFaults {
    fn on_site(&mut self, _probe: &Probe) -> FaultEffect {
        FaultEffect::None
    }
}

/// Panic payload identifying an injected fail-stop fault.
#[derive(Clone, Debug)]
pub struct InjectedCrash {
    /// The site where the fault fired.
    pub site: &'static str,
}

/// Panic payload identifying an injected hang.
#[derive(Clone, Debug)]
pub struct InjectedHang {
    /// The site where the fault fired.
    pub site: &'static str,
}

/// Reply tampering armed by a fail-silent fault during the current handler
/// invocation: applied by the kernel to the handler's first outbound reply
/// after the handler returns (the handler itself completes correctly).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub(crate) enum ReplyTamper {
    /// No tampering armed.
    #[default]
    None,
    /// Remove the first reply from the outbound batch.
    Drop,
    /// Flip the first reply's integrity seal.
    Corrupt,
}

/// A privileged operation requested by the Recovery Server.
#[derive(Clone, Debug)]
pub enum PrivOp {
    /// Execute the recovery of a crashed or hung component under the active
    /// policy.
    Recover {
        /// Endpoint index of the component to recover.
        target: u8,
    },
    /// Declare a hung component dead (heartbeat timeout) and recover it.
    KillHung {
        /// Endpoint index of the hung component.
        target: u8,
    },
    /// Stop the whole system in a controlled fashion.
    ControlledShutdown {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// Bench a crash-looping component: no further restarts; the kernel
    /// reconciles its pending requester and bounces subsequent requests
    /// with an immediate crash reply.
    Quarantine {
        /// Endpoint index of the component to quarantine.
        target: u8,
    },
    /// Update the kernel's persisted recovery intent for `target`: which
    /// phase the RS has driven the in-flight recovery to. If the RS crashes
    /// mid-conduct, the kernel re-drives the intent after restarting the RS.
    RecordIntent {
        /// Component whose recovery is being conducted.
        target: u8,
        /// How far the conduct has progressed.
        phase: IntentPhaseCode,
    },
    /// Refresh `target`'s spare clone image in the content-addressed pool.
    /// The kernel re-chunks against the existing manifest off the request
    /// hot path, so clean objects are reshared instead of recopied; the
    /// refresh is skipped (counted, not failed) if the component is not
    /// alive or its heap has diverged from the pristine image.
    RefreshImage {
        /// Endpoint index of the component whose image to refresh.
        target: u8,
    },
    /// Record an escalation-ladder decision for observability: the kernel
    /// updates the per-component escalation metrics and emits the
    /// corresponding trace events.
    NoteEscalation {
        /// Crashed component the ladder evaluated.
        target: u8,
        /// Restarts inside the sliding window, including this crash.
        restarts_in_window: u32,
        /// Backoff armed before the next restart (0 = immediate).
        backoff: u64,
        /// Whether the restart budget is exhausted.
        exhausted: bool,
    },
}

/// An event-driven OS component (server or driver).
///
/// Implementations keep *all* recoverable state in the heap provided at
/// `init` time, accessed through persistent-container handles stored in
/// `self`. The struct itself must be pure configuration + handles: after a
/// crash the kernel replaces it with a clone of the pristine post-`init`
/// value ([`Server::clone_box`]), re-bound to the rolled-back heap.
/// `Any` lets [`crate::Kernel::server`] hand it back typed.
pub trait Server<P: Protocol>: Any + Send {
    /// Component name (stable; used in tables and fault-site attribution).
    fn name(&self) -> &'static str;

    /// One-time initialization: allocate heap state, set recurring timers.
    /// Runs outside any recovery window.
    fn init(&mut self, ctx: &mut Ctx<'_, P>);

    /// Handles one incoming message. Called with the recovery window already
    /// opened (or the request marked unprotected, for non-checkpointing
    /// policies). Must not block: long interactions save continuations in
    /// the heap and resume on the async reply.
    ///
    /// A payload the handler keeps moves out with
    /// [`Delivery::take_payload`], a copy only when the message is
    /// [`Delivery::Lent`]: a request the watchdog may re-drive.
    fn handle(&mut self, msg: Delivery<'_, P>, ctx: &mut Ctx<'_, P>);

    /// Post-recovery fixup, e.g. the cooperative-thread repair of §IV-E.
    /// Runs after the heap has been rolled back / restored.
    fn on_restore(&mut self, _heap: &mut Heap) {}

    /// Clones the pristine server value (handles + configuration).
    fn clone_box(&self) -> Box<dyn Server<P>>;
}

/// The emission buffers of one handler invocation. The kernel owns them and
/// lends them to each [`Ctx`] in turn, so a warm pump delivers a message
/// without touching the allocator; whatever a handler pushed before it
/// unwound is still here for the kernel to route.
pub(crate) struct Scratch<P> {
    pub(crate) out: Vec<Message<P>>,
    pub(crate) timers: Vec<(u64, Option<SpanInfo>, P)>,
    pub(crate) priv_ops: Vec<PrivOp>,
}

impl<P> Default for Scratch<P> {
    fn default() -> Self {
        Scratch {
            out: Vec::new(),
            timers: Vec::new(),
            priv_ops: Vec::new(),
        }
    }
}

/// Everything a handler may do, bundled: heap access, message sends (SEEP
/// checked against the active policy), timers, cost accounting and
/// fault-injection probes.
pub struct Ctx<'a, P: Protocol> {
    pub(crate) comp_name: &'static str,
    pub(crate) self_ep: Endpoint,
    pub(crate) heap: &'a mut Heap,
    pub(crate) window: &'a mut RecoveryWindow,
    pub(crate) policy: &'a dyn RecoveryPolicy,
    pub(crate) hook: &'a mut dyn FaultHook,
    pub(crate) now: u64,
    pub(crate) cycles: u64,
    /// What the handler emits, pushed onto buffers the kernel owns and
    /// lends for one invocation (see [`Scratch`]).
    pub(crate) scratch: &'a mut Scratch<P>,
    pub(crate) privileged: bool,
    pub(crate) next_msg_id: &'a mut u64,
    /// Whether sends are stamped with the payload digest: the watchdog's
    /// reply-integrity check is the stamp's only reader.
    pub(crate) stamp_sends: bool,
    /// Id of the message being handled (`MsgId(0)`, which no message
    /// carries, during `init`).
    pub(crate) cur_id: MsgId,
    /// Whether the handler replied to anything / to the message it was
    /// given (used by the probes and the kernel's crash handling).
    pub(crate) replied_any: bool,
    pub(crate) replied_cur: bool,
    pub(crate) cur_replyable: bool,
    pub(crate) tamper: ReplyTamper,
    /// Span of the message being handled: inherited by every send and
    /// timer the handler issues, so causality propagates hop by hop
    /// without the servers knowing spans exist.
    pub(crate) cur_span: Option<SpanInfo>,
}

impl<P: Protocol> fmt::Debug for Ctx<'_, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx")
            .field("component", &self.comp_name)
            .field("now", &self.now)
            .field("cycles", &self.cycles)
            .finish()
    }
}

impl<'a, P: Protocol> Ctx<'a, P> {
    /// Current virtual time (at handler entry).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Mutable access to the component's checkpointed heap.
    pub fn heap(&mut self) -> &mut Heap {
        self.heap
    }

    /// Shared access to the component's heap.
    pub fn heap_ref(&self) -> &Heap {
        self.heap
    }

    /// Charges `cycles` of computation, attributed to the recovery-window
    /// state for the coverage metric.
    pub fn charge(&mut self, cycles: u64) {
        self.cycles += cycles;
        self.window.charge(cycles);
    }

    fn alloc_msg_id(&mut self) -> MsgId {
        *self.next_msg_id += 1;
        MsgId(*self.next_msg_id)
    }

    fn push_send(&mut self, mut msg: Message<P>) {
        // Seal the payload before it leaves the component: the digest is
        // what reply-integrity verification checks at delivery, so any
        // corruption between here and the receiver is detectable.
        if self.stamp_sends {
            msg.integrity = msg.payload.digest();
        }
        // Every outbound message passes through a SEEP: consult the policy
        // and close the recovery window on the first disallowed send.
        let meta = msg.seep;
        self.window.on_send(self.policy, &meta, self.heap);
        self.charge(cost::IPC_SEND);
        let sent = osiris_trace::TraceEvent::IpcSend {
            dst: match msg.dst {
                Endpoint::Component(c) => c,
                _ => osiris_trace::KERNEL_COMP,
            },
            msg_id: msg.id.0,
            class: meta.class.code(),
        };
        self.heap.trace_stage().push(sent);
        self.scratch.out.push(msg);
    }

    /// Sends a request to another component; returns the message id to
    /// correlate the eventual reply (store it in a continuation).
    ///
    /// # Panics
    ///
    /// Panics if the payload's SEEP metadata is not of request kind.
    pub fn send_request(&mut self, dst: Endpoint, payload: P) -> MsgId {
        assert_eq!(
            payload.seep().kind,
            MessageKind::Request,
            "send_request with non-request payload"
        );
        let id = self.alloc_msg_id();
        let span = self.cur_span;
        self.push_send(Message::new(id, self.self_ep, dst, span, payload));
        id
    }

    /// Sends a one-way notification.
    pub fn notify(&mut self, dst: Endpoint, payload: P) {
        let id = self.alloc_msg_id();
        let span = self.cur_span;
        self.push_send(Message::new(id, self.self_ep, dst, span, payload));
    }

    /// Replies to the request identified by `rp` (obtained from
    /// [`Message::return_path`], possibly stored in a continuation).
    pub fn reply(&mut self, rp: ReturnPath, payload: P) {
        let id = self.alloc_msg_id();
        self.replied_any = true;
        self.replied_cur |= rp.msg_id == self.cur_id;
        // The reply rejoins the *requester's* span (restored from the
        // return path, which may have sat in a continuation), not whatever
        // message happens to be driving this handler invocation.
        self.push_send(Message::reply(id, self.self_ep, rp, payload));
    }

    /// Schedules `payload` to be delivered to this component as a kernel
    /// notification after `delay` cycles. The timer inherits the current
    /// span, so deferred continuations (e.g. a disk-tick completion) stay
    /// attributed to the request that armed them.
    pub fn set_timer(&mut self, delay: u64, payload: P) {
        self.scratch.timers.push((delay, self.cur_span, payload));
    }

    /// Executes one instrumentation site (basic-block analog): charges the
    /// site cost, ticks coverage counters and consults the fault hook.
    ///
    /// # Panics
    ///
    /// Panics (with an [`InjectedCrash`] / [`InjectedHang`] payload) when an
    /// armed fail-stop or hang fault fires here — this is the injected
    /// fault, unwound and handled by the kernel.
    pub fn site(&mut self, site: &'static str) {
        self.charge(cost::SITE);
        self.window.tick_site();
        let probe = self.probe(site, SiteKind::Block);
        match self.hook.on_site(&probe) {
            FaultEffect::Panic => std::panic::panic_any(InjectedCrash { site }),
            FaultEffect::Hang => std::panic::panic_any(InjectedHang { site }),
            effect => self.apply_silent(effect),
        }
    }

    /// Applies a fail-silent effect that does not unwind: stalls charge
    /// extra virtual cycles (the handler still completes correctly), reply
    /// tampering is armed for the kernel to apply post-handler.
    fn apply_silent(&mut self, effect: FaultEffect) {
        match effect {
            FaultEffect::Stall(factor) => {
                let extra = cost::STALL_QUANTUM.saturating_mul(factor as u64);
                self.charge(extra);
            }
            FaultEffect::DropReply => self.tamper = ReplyTamper::Drop,
            FaultEffect::CorruptReply => self.tamper = ReplyTamper::Corrupt,
            _ => {}
        }
    }

    fn probe(&self, site: &'static str, kind: SiteKind) -> Probe {
        Probe {
            component: self.comp_name,
            site,
            kind,
            now: self.now + self.cycles,
            window_open: self.window.is_open(),
            replyable: self.cur_replyable && !self.replied_any,
        }
    }

    /// A value-producing site: like [`Ctx::site`], but an armed fail-silent
    /// fault may perturb the returned value.
    pub fn site_val(&mut self, site: &'static str, value: u64) -> u64 {
        self.charge(cost::SITE);
        self.window.tick_site();
        let probe = self.probe(site, SiteKind::Value);
        match self.hook.on_site(&probe) {
            FaultEffect::Panic => std::panic::panic_any(InjectedCrash { site }),
            FaultEffect::Hang => std::panic::panic_any(InjectedHang { site }),
            FaultEffect::Perturb(mask) => value ^ mask,
            effect => {
                self.apply_silent(effect);
                value
            }
        }
    }

    /// A branch site: like [`Ctx::site`], but an armed fail-silent fault may
    /// flip the condition.
    pub fn site_branch(&mut self, site: &'static str, cond: bool) -> bool {
        self.charge(cost::SITE);
        self.window.tick_site();
        let probe = self.probe(site, SiteKind::Branch);
        match self.hook.on_site(&probe) {
            FaultEffect::Panic => std::panic::panic_any(InjectedCrash { site }),
            FaultEffect::Hang => std::panic::panic_any(InjectedHang { site }),
            FaultEffect::Flip => !cond,
            effect => {
                self.apply_silent(effect);
                cond
            }
        }
    }

    /// Whether the recovery window is currently open.
    pub fn window_open(&self) -> bool {
        self.window.is_open()
    }

    /// Forcibly closes the recovery window because a cooperative thread is
    /// about to yield (paper §IV-E): once the thread parks, interleaved work
    /// makes rollback to this request's checkpoint unsafe.
    pub fn yield_window(&mut self) {
        self.window
            .close(self.heap, osiris_core::CloseReason::ThreadYield);
    }

    /// Requests recovery of `target` (Recovery Server only).
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not privileged.
    pub fn recover(&mut self, target: u8) {
        assert!(self.privileged, "recover() requires a privileged component");
        self.scratch.priv_ops.push(PrivOp::Recover { target });
    }

    /// Declares a hung component dead and recovers it (Recovery Server
    /// only).
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not privileged.
    pub fn kill_hung(&mut self, target: u8) {
        assert!(
            self.privileged,
            "kill_hung() requires a privileged component"
        );
        self.scratch.priv_ops.push(PrivOp::KillHung { target });
    }

    /// Quarantines a crash-looping component (Recovery Server only): the
    /// kernel stops restarting it, reconciles its pending requester with a
    /// crash reply, and bounces subsequent requests to it.
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not privileged.
    pub fn quarantine(&mut self, target: u8) {
        assert!(
            self.privileged,
            "quarantine() requires a privileged component"
        );
        self.scratch.priv_ops.push(PrivOp::Quarantine { target });
    }

    /// Asks the kernel to refresh `target`'s spare clone image in the
    /// content-addressed pool (Recovery Server only). This is the paper's
    /// background spare-copy replenishment moved off the recovery hot path:
    /// the kernel re-chunks incrementally against the previous manifest, so
    /// a clean heap reshares every chunk instead of recopying the state.
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not privileged.
    pub fn refresh_image(&mut self, target: u8) {
        assert!(
            self.privileged,
            "refresh_image() requires a privileged component"
        );
        self.scratch.priv_ops.push(PrivOp::RefreshImage { target });
    }

    /// Updates the kernel's persisted recovery intent for `target`
    /// (Recovery Server only). The intent log is what makes an RS crash
    /// mid-conduct survivable: the restarted RS (or the kernel itself, after
    /// too many replays) completes the in-flight recovery from it.
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not privileged.
    pub fn record_intent(&mut self, target: u8, phase: IntentPhaseCode) {
        assert!(
            self.privileged,
            "record_intent() requires a privileged component"
        );
        self.scratch
            .priv_ops
            .push(PrivOp::RecordIntent { target, phase });
    }

    /// Records an escalation-ladder decision (Recovery Server only): the
    /// kernel updates `osiris_escalation_*` metrics and emits backoff /
    /// budget-exhausted trace events from it.
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not privileged.
    pub fn note_escalation(
        &mut self,
        target: u8,
        restarts_in_window: u32,
        backoff: u64,
        exhausted: bool,
    ) {
        assert!(
            self.privileged,
            "note_escalation() requires a privileged component"
        );
        self.scratch.priv_ops.push(PrivOp::NoteEscalation {
            target,
            restarts_in_window,
            backoff,
            exhausted,
        });
    }

    /// Requests a controlled shutdown of the whole system (Recovery Server
    /// only).
    ///
    /// # Panics
    ///
    /// Panics if the calling component is not privileged.
    pub fn controlled_shutdown(&mut self, reason: &'static str) {
        assert!(
            self.privileged,
            "controlled_shutdown() requires a privileged component"
        );
        self.scratch
            .priv_ops
            .push(PrivOp::ControlledShutdown { reason });
    }
}
