//! SEEPs: Side Effect Engraved Passages.
//!
//! In OSIRIS every inter-component communication channel is wrapped by a
//! SEEP that *statically* engraves the side-effect consequences of the
//! messages it carries (paper §III-A, §IV-B). The compiler pass of the
//! original prototype annotated outbound call sites; here the protocol types
//! themselves carry a [`SeepMeta`] so the classification is part of the
//! message's static type information.

/// Side-effect class of a message with respect to the *receiver's* state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SeepClass {
    /// The receiver handles the message without modifying its own state
    /// (e.g. a read-only query). The receiving end never becomes aware of
    /// changes in the sender's state, so rolling the sender back cannot
    /// create an inconsistency — these sends may keep a recovery window
    /// open under the *enhanced* policy.
    NonStateModifying,
    /// The receiver's state changes as a consequence of this message. Once
    /// sent, rolling the sender back would orphan that remote state change,
    /// so the sender's recovery window must close.
    StateModifying,
    /// The receiver's state changes, but only in data scoped to the
    /// *requesting process*: killing the requester cleans the change up
    /// through its normal exit path. Policies that support the
    /// kill-requester reconciliation (paper §VII, "Extensibility") may keep
    /// the window open across such sends; all other policies treat this
    /// class as state-modifying.
    RequesterScoped,
}

impl SeepClass {
    /// Whether this class modifies the receiver's state (requester-scoped
    /// messages do — they are merely *cleanable*).
    pub fn is_state_modifying(self) -> bool {
        matches!(self, SeepClass::StateModifying | SeepClass::RequesterScoped)
    }

    /// This class in the axiom's vocabulary, which adds `None` for closes
    /// no send caused.
    pub fn code(self) -> osiris_trace::SeepClassCode {
        match self {
            SeepClass::NonStateModifying => osiris_trace::SeepClassCode::NonStateModifying,
            SeepClass::StateModifying => osiris_trace::SeepClassCode::StateModifying,
            SeepClass::RequesterScoped => osiris_trace::SeepClassCode::RequesterScoped,
        }
    }
}

/// Kind of a message travelling through a SEEP.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// A request that expects a reply.
    Request,
    /// A reply to an earlier request.
    Reply,
    /// A one-way notification.
    Notification,
}

/// Static side-effect metadata engraved on a message.
///
/// `reply_possible` records whether, after recovering from a crash while
/// handling this message, an error reply (`E_CRASH`) can be delivered to the
/// requester — the precondition for *error virtualization* (paper §IV-C).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SeepMeta {
    /// Side-effect class at the receiver.
    pub class: SeepClass,
    /// Message kind.
    pub kind: MessageKind,
    /// Whether an error reply can reach the requester after recovery.
    pub reply_possible: bool,
    /// Whether the request's service time is bounded by the cost model.
    /// Bounded requests get a watchdog deadline armed at delivery;
    /// intrinsically blocking requests (waits, sleeps, reads that park on a
    /// continuation for an unbounded time) are engraved unbounded and are
    /// never armed — a `WaitPid` that takes forever is not a hang.
    pub bounded: bool,
}

impl SeepMeta {
    /// Metadata for a request of the given side-effect class that can be
    /// error-replied.
    pub fn request(class: SeepClass) -> Self {
        SeepMeta {
            class,
            kind: MessageKind::Request,
            reply_possible: true,
            bounded: true,
        }
    }

    /// Metadata for a reply. Replies inform the requester of *completed*
    /// work; whether that closes the sender's window is a policy decision
    /// (pessimistic closes on any send; enhanced treats replies carrying
    /// results of already-committed state changes as state-modifying at the
    /// requester only when flagged).
    pub fn reply(class: SeepClass) -> Self {
        SeepMeta {
            class,
            kind: MessageKind::Reply,
            reply_possible: false,
            bounded: true,
        }
    }

    /// Metadata for a one-way notification of the given class.
    pub fn notification(class: SeepClass) -> Self {
        SeepMeta {
            class,
            kind: MessageKind::Notification,
            reply_possible: false,
            bounded: true,
        }
    }

    /// Engraves the passage as unbounded: its service time depends on
    /// external progress (another process exiting, a timer firing), so no
    /// deadline is derivable and the watchdog must not arm one.
    pub fn unbounded(mut self) -> Self {
        self.bounded = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_predicates() {
        assert!(SeepClass::StateModifying.is_state_modifying());
        assert!(!SeepClass::NonStateModifying.is_state_modifying());
    }

    #[test]
    fn constructors_set_kind_and_reply() {
        let r = SeepMeta::request(SeepClass::StateModifying);
        assert_eq!(r.kind, MessageKind::Request);
        assert!(r.reply_possible);
        let p = SeepMeta::reply(SeepClass::NonStateModifying);
        assert_eq!(p.kind, MessageKind::Reply);
        assert!(!p.reply_possible);
        let n = SeepMeta::notification(SeepClass::NonStateModifying);
        assert_eq!(n.kind, MessageKind::Notification);
        assert!(!n.reply_possible);
    }

    #[test]
    fn bounded_by_default_unbounded_builder() {
        assert!(SeepMeta::request(SeepClass::NonStateModifying).bounded);
        assert!(
            !SeepMeta::request(SeepClass::NonStateModifying)
                .unbounded()
                .bounded
        );
    }
}
