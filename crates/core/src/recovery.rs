//! Recovery decisions and the three-phase recovery structure.
//!
//! Recovery in OSIRIS is structured in three phases (paper §IV-C):
//! **restart** (replace the dead component with a fresh clone and transfer
//! its state), **rollback** (apply the undo log to restore the checkpoint
//! taken at the top of the request loop) and **reconciliation** (make the
//! global state consistent — by error virtualization or controlled
//! shutdown). This module holds the pure decision logic; the mechanics are
//! executed by the message-passing substrate (the kernel crate here). Every
//! decision the kernel acts on is sealed into the axiom — the hash-chained
//! control-plane log — as a `RecoveryDecision` (and, when the chosen action
//! proves impossible, `RecoveryFallback`) event, so a run's decisions can be
//! replayed from the log alone and bisected against another run's.

pub use osiris_trace::ActionCode;

use crate::policy::RecoveryPolicy;
use crate::seep::{MessageKind, SeepMeta};

/// Everything the reconciliation decision depends on at crash time. The
/// default is a quiescent component's: between requests, with nothing to
/// reply to and its window closed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct CrashContext {
    /// Was the crashed component's recovery window open?
    pub window_open: bool,
    /// Can an error reply be delivered for the failure-triggering request?
    pub reply_possible: bool,
    /// Did the fault fire inside recovery code itself (RS or the kernel's
    /// recovery path)? This violates the single-fault model.
    pub in_recovery_code: bool,
    /// Did the window see any requester-scoped sends (cleanable by killing
    /// the requester)?
    pub scoped_sends: bool,
    /// Is the failure-triggering requester a user process (killable)?
    pub requester_is_process: bool,
}

impl CrashContext {
    /// The facts of a handler that unwound while serving a message engraved
    /// `seep`, its window open or not: an error reply can reach the
    /// requester only if the message is a request that can be answered and
    /// the handler has not replied yet. The caller adds what only it knows
    /// (scoped sends, whether the requester is a process).
    ///
    /// ```
    /// use osiris_core::{decide_recovery, ActionCode, CrashContext, Enhanced, Pessimistic};
    /// use osiris_core::{RecoveryPolicy, SeepClass, SeepMeta};
    ///
    /// let request = SeepMeta::request(SeepClass::StateModifying);
    /// let open = |seep, replied| CrashContext::handler_fault(&seep, true, replied);
    /// // An unanswered request in an open window is rolled back and answered.
    /// for policy in [&Enhanced as &dyn RecoveryPolicy, &Pessimistic] {
    ///     let decision = decide_recovery(policy, &open(request, false));
    ///     assert_eq!(decision.action, ActionCode::RollbackErrorReply);
    /// }
    /// // A request already answered, a one-way request, a reply (the disk's,
    /// // say) or a notification cannot be: the window's changes may be seen.
    /// let one_way = SeepMeta { reply_possible: false, ..request };
    /// let reply = SeepMeta::reply(SeepClass::StateModifying);
    /// let note = SeepMeta::notification(SeepClass::NonStateModifying);
    /// for facts in [open(request, true), open(one_way, false), open(reply, false), open(note, false)] {
    ///     assert!(!facts.reply_possible);
    ///     let decision = decide_recovery(&Enhanced, &facts);
    ///     assert_eq!(decision.action, ActionCode::ControlledShutdown);
    /// }
    /// assert!(!CrashContext::handler_fault(&request, false, false).window_open);
    /// ```
    pub fn handler_fault(seep: &SeepMeta, window_open: bool, replied: bool) -> Self {
        CrashContext {
            window_open,
            reply_possible: seep.kind == MessageKind::Request && seep.reply_possible && !replied,
            ..CrashContext::default()
        }
    }
}

/// Whether `action` keeps the system running.
pub fn system_survives(action: ActionCode) -> bool {
    !matches!(
        action,
        ActionCode::ControlledShutdown | ActionCode::UncontrolledCrash
    )
}

/// A complete reconciliation decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryDecision {
    /// What to do with the crashed component / the system.
    pub action: ActionCode,
    /// Whether to send an `E_CRASH` error reply to the requester.
    pub error_reply: bool,
}

impl RecoveryDecision {
    /// Creates a decision; `error_reply` is forced off for actions that end
    /// the system.
    pub fn new(action: ActionCode, error_reply: bool) -> Self {
        let error_reply = error_reply && system_survives(action);
        RecoveryDecision {
            action,
            error_reply,
        }
    }
}

/// Maps a crash to its recovery decision under `policy`.
///
/// This is the single entry point the substrate calls when a component
/// crashes; it is deliberately total (every context yields a decision) and
/// free of side effects, keeping the RCB small and auditable.
pub fn decide_recovery(policy: &dyn RecoveryPolicy, crash: &CrashContext) -> RecoveryDecision {
    policy.reconcile(crash)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survival_classification() {
        assert!(system_survives(ActionCode::RollbackErrorReply));
        assert!(system_survives(ActionCode::FreshRestart));
        assert!(system_survives(ActionCode::ContinueAsIs));
        assert!(!system_survives(ActionCode::ControlledShutdown));
        assert!(!system_survives(ActionCode::UncontrolledCrash));
    }

    #[test]
    fn error_reply_suppressed_on_shutdown() {
        let d = RecoveryDecision::new(ActionCode::ControlledShutdown, true);
        assert!(!d.error_reply);
    }
}
