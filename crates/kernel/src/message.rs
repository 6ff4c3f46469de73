//! Messages, endpoints and the protocol trait.

use std::fmt;
use std::ops::Deref;

use osiris_core::SeepMeta;

use crate::abi::Pid;

/// A message destination or source.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Endpoint {
    /// An OS component (server or driver), by registration index.
    Component(u8),
    /// A user process.
    Process(Pid),
    /// The kernel itself (timer notifications, crash notifications).
    Kernel,
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Component(i) => write!(f, "comp{}", i),
            Endpoint::Process(p) => write!(f, "{}", p),
            Endpoint::Kernel => write!(f, "kernel"),
        }
    }
}

/// Unique message identifier (per kernel instance).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u64);

/// Identifier correlating a user syscall submission with its reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SyscallId(pub u64);

/// Causal request-span context, minted by the kernel at every workload
/// entry point and propagated on every message/timer/continuation derived
/// from the request, so the final user reply can be attributed end to end.
///
/// `Copy` and fixed-size: carrying it on messages and return paths (which
/// live inside checkpointed continuations) never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanInfo {
    /// Span id, monotone per kernel instance (deterministic across runs).
    pub id: u64,
    /// Virtual-clock cycle at which the span was opened.
    pub opened_at: u64,
    /// The kernel's recovery epoch when the span opened; a differing epoch
    /// at close means the request overlapped a crash capture or recovery.
    pub epoch_at_open: u64,
    /// Whether any telemetry sink (tracer or metrics registry) was enabled
    /// when the span was minted. Record sites downstream of the mint branch
    /// on this plain bool instead of re-consulting both sinks, so a fully
    /// disabled configuration pays one predictable branch per hop.
    pub record: bool,
}

/// The protocol spoken between components: the payload type of all
/// messages, carrying its own SEEP classification.
///
/// This is how channels become *Side Effect Engraved Passages*: the
/// side-effect metadata is a static property of each payload variant,
/// mirroring the paper's compile-time call-site annotation.
pub trait Protocol: Clone + fmt::Debug + Send + 'static {
    /// The SEEP metadata engraved on this payload.
    fn seep(&self) -> SeepMeta;

    /// The payload used for error virtualization: a reply telling the
    /// requester that the servicing component crashed (`E_CRASH`).
    fn crash_reply() -> Self;

    /// The payload the kernel sends to the Recovery Server when component
    /// `target` crashes.
    fn crash_notify(target: u8) -> Self;

    /// The component this payload notifies a crash of, if it is a
    /// [`Protocol::crash_notify`]. An RS that fails before it takes a
    /// queued notification is not notified again after its restart; a
    /// protocol that cannot tell (the default) is notified twice.
    fn crash_notify_target(&self) -> Option<u8> {
        None
    }

    /// The payload the kernel sends to the Recovery Server to execute the
    /// kill-requester reconciliation (paper §VII): RS must arrange for
    /// process `pid` to be terminated through the normal kill path.
    fn kill_requester(pid: crate::abi::Pid) -> Self
    where
        Self: Sized,
    {
        // Systems without the extension simply reuse the crash notification
        // channel as a no-op; the default keeps retrofits source-compatible.
        let _ = pid;
        Self::crash_notify(u8::MAX)
    }

    /// If this payload is the final reply to a user syscall, the reply to
    /// deliver to the process; `None` for inter-component payloads. By
    /// value: the kernel owns the routed message, so the reply (up to a
    /// read's whole buffer) moves out instead of being copied.
    fn into_user_reply(self) -> Option<crate::abi::SysReply>;

    /// Short stable label for tracing and profiling.
    fn label(&self) -> &'static str;

    /// Content digest used for reply-integrity verification. When the
    /// watchdog is enabled the kernel stamps `digest()` on every message a
    /// component sends and re-verifies it when a reply to an armed request
    /// is routed, so a reply whose payload was corrupted in flight is
    /// rejected and its sender treated as crashed. With the watchdog
    /// disabled nothing reads the stamp and `digest()` is never called, so
    /// a protocol whose digest is expensive pays for it only under an
    /// enabled watchdog. The default (constant 0) opts a protocol out of
    /// the defense while staying source-compatible.
    fn digest(&self) -> u64 {
        0
    }
}

/// A message in flight.
#[derive(Clone, Debug)]
pub struct Message<P> {
    /// Unique id (used as `reply_to` correlation key by repliers).
    pub id: MsgId,
    /// Sender.
    pub src: Endpoint,
    /// Receiver.
    pub dst: Endpoint,
    /// For replies: the id of the request being answered.
    pub reply_to: Option<MsgId>,
    /// For messages born from a user syscall: the syscall correlation id,
    /// propagated onto the final reply to the user.
    pub user_tag: Option<SyscallId>,
    /// SEEP metadata (cached from the payload at send time).
    pub seep: SeepMeta,
    /// The causal request span this message belongs to, if any.
    pub span: Option<SpanInfo>,
    /// Integrity digest of the payload ([`Protocol::digest`]), stamped at
    /// send time and verified on reply delivery when the watchdog is
    /// enabled (0 and unread otherwise); a mismatch means the payload was
    /// corrupted after the sender sealed it, and the reply is rejected.
    pub integrity: u64,
    /// The payload.
    pub payload: P,
}

/// A message as its handler gets it. The kernel keeps the message either
/// way, so a handler that unwinds drops nothing.
#[derive(Debug)]
pub enum Delivery<'a, P> {
    /// Handed over: the handler may take the payload.
    Handed(&'a mut Message<P>),
    /// A request the watchdog may re-drive: the kernel needs it whole.
    Lent(&'a Message<P>),
}

impl<P: Protocol> Delivery<'_, P> {
    /// The payload: moved out of a handed message, leaving
    /// [`Protocol::crash_reply`], or copied out of a lent one.
    pub fn take_payload(self) -> P {
        match self {
            Delivery::Handed(m) => std::mem::replace(&mut m.payload, P::crash_reply()),
            Delivery::Lent(m) => m.payload.clone(),
        }
    }
}

impl<P> Deref for Delivery<'_, P> {
    type Target = Message<P>;

    fn deref(&self) -> &Message<P> {
        match self {
            Delivery::Handed(m) => m,
            Delivery::Lent(m) => m,
        }
    }
}

/// The *return path* a server must remember to answer a request later
/// (stored inside continuations in the server's checkpointed heap).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReturnPath {
    /// Who asked.
    pub ep: Endpoint,
    /// Their request message id.
    pub msg_id: MsgId,
    /// The user syscall tag, if the request originated from a process.
    pub user_tag: Option<SyscallId>,
    /// The causal span of the request, restored onto the eventual reply.
    pub span: Option<SpanInfo>,
}

impl<P: Protocol> Message<P> {
    /// Message `id` from `src` to `dst` on `span`, its SEEP metadata read
    /// off `payload`: no reply correlation, no syscall tag, no stamp.
    pub(crate) fn new(
        id: MsgId,
        src: Endpoint,
        dst: Endpoint,
        span: Option<SpanInfo>,
        payload: P,
    ) -> Self {
        Message {
            id,
            src,
            dst,
            reply_to: None,
            user_tag: None,
            seep: payload.seep(),
            span,
            integrity: 0,
            payload,
        }
    }

    /// Message `id` from `src` answering the request `rp` names.
    pub(crate) fn reply(id: MsgId, src: Endpoint, rp: ReturnPath, payload: P) -> Self {
        Message {
            reply_to: Some(rp.msg_id),
            user_tag: rp.user_tag,
            ..Message::new(id, src, rp.ep, rp.span, payload)
        }
    }
}

impl<P> Message<P> {
    /// The return path needed to reply to this message later.
    pub fn return_path(&self) -> ReturnPath {
        ReturnPath {
            ep: self.src,
            msg_id: self.id,
            user_tag: self.user_tag,
            span: self.span,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use osiris_core::{SeepClass, SeepMeta};

    /// The smallest protocol there is, shared by the crate's unit tests.
    #[derive(Clone, Debug)]
    pub(crate) struct P;
    impl Protocol for P {
        fn seep(&self) -> SeepMeta {
            SeepMeta::request(SeepClass::StateModifying)
        }
        fn crash_reply() -> Self {
            P
        }
        fn crash_notify(_target: u8) -> Self {
            P
        }

        fn into_user_reply(self) -> Option<crate::abi::SysReply> {
            None
        }
        fn label(&self) -> &'static str {
            "p"
        }
    }

    #[test]
    fn return_path_captures_requester() {
        let span = SpanInfo {
            id: 11,
            opened_at: 4,
            epoch_at_open: 0,
            record: true,
        };
        let (src, dst) = (Endpoint::Process(Pid(3)), Endpoint::Component(0));
        let m = Message {
            user_tag: Some(SyscallId(9)),
            ..Message::new(MsgId(7), src, dst, Some(span), P)
        };
        let rp = m.return_path();
        assert_eq!(rp.ep, Endpoint::Process(Pid(3)));
        assert_eq!(rp.msg_id, MsgId(7));
        assert_eq!(rp.user_tag, Some(SyscallId(9)));
        assert_eq!(rp.span.map(|s| s.id), Some(11));
    }

    #[test]
    fn endpoint_ordering_is_stable() {
        assert!(Endpoint::Component(0) < Endpoint::Component(1));
        assert!(Endpoint::Component(9) < Endpoint::Process(Pid(0)));
    }
}
