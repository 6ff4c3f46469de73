//! Recovery policies.
//!
//! A recovery policy controls which classes of SEEPs are allowed within a
//! recovery window and what reconciliation action to take after a crash
//! (paper §IV-B, §VI). The two OSIRIS policies are [`Pessimistic`] and
//! [`Enhanced`] (the default); [`Stateless`] and [`Naive`] reproduce the
//! evaluation baselines of §VI ("microreboot" restart and best-effort
//! restart, respectively).
//!
//! Policies are a trait so that new, system-specific policies can be defined
//! (paper §VII, "Composable recovery policies"); see
//! `examples/policy_tuning.rs` for a custom one.

use std::fmt;

use crate::recovery::{ActionCode, CrashContext, RecoveryDecision};
use crate::seep::SeepMeta;

/// A system-wide recovery policy.
///
/// Implementations must be cheap, deterministic and side-effect free: policy
/// code is part of the Reliable Computing Base.
pub trait RecoveryPolicy: Send + Sync + fmt::Debug {
    /// Human-readable policy name, as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Whether this policy maintains checkpoints (undo logging) at all.
    /// Baseline policies that never roll back return `false`, which lets the
    /// runtime skip all instrumentation.
    fn checkpointing(&self) -> bool {
        true
    }

    /// Whether sending a message with metadata `seep` keeps the current
    /// recovery window open. The first send for which this returns `false`
    /// closes the window.
    fn send_keeps_window_open(&self, seep: &SeepMeta) -> bool;

    /// Maps a crash context to the reconciliation decision.
    fn reconcile(&self, crash: &CrashContext) -> RecoveryDecision;

    /// Stable identifier for tables and serialization.
    fn kind(&self) -> PolicyKind;

    /// A boxed copy of this policy, used when an owning configuration is
    /// cloned (the fork path boots a second OS from the same `OsConfig`).
    ///
    /// The default reconstructs the canonical instance for the policy's
    /// [`PolicyKind`] — correct for every standard policy, which are all
    /// stateless unit structs. Custom policies (`PolicyKind::Custom`) must
    /// override this; the default panics for them via
    /// [`PolicyKind::instantiate`].
    fn clone_box(&self) -> Box<dyn RecoveryPolicy> {
        self.kind().instantiate()
    }
}

/// Identifies one of the evaluated policies (or a custom one).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Stateless restart baseline ("microreboot").
    Stateless,
    /// Naive best-effort restart baseline.
    Naive,
    /// OSIRIS pessimistic policy: any send closes the window.
    Pessimistic,
    /// OSIRIS enhanced policy (default): only state-modifying SEEPs close
    /// the window.
    Enhanced,
    /// The paper's §VII extension: enhanced, plus requester-scoped SEEPs
    /// stay inside the window and are reconciled by killing the requester.
    EnhancedKill,
    /// A user-defined policy.
    Custom,
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl PolicyKind {
    /// The policy's name in tables, labels and reports.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Stateless => "stateless",
            PolicyKind::Naive => "naive",
            PolicyKind::Pessimistic => "pessimistic",
            PolicyKind::Enhanced => "enhanced",
            PolicyKind::EnhancedKill => "enhanced-kill",
            PolicyKind::Custom => "custom",
        }
    }

    /// All four standard policies evaluated in the paper, in table order.
    pub const STANDARD: [PolicyKind; 4] = [
        PolicyKind::Stateless,
        PolicyKind::Naive,
        PolicyKind::Pessimistic,
        PolicyKind::Enhanced,
    ];

    /// Instantiates the corresponding standard policy.
    ///
    /// # Panics
    ///
    /// Panics for [`PolicyKind::Custom`], which has no canonical instance.
    pub fn instantiate(self) -> Box<dyn RecoveryPolicy> {
        match self {
            PolicyKind::Stateless => Box::new(Stateless),
            PolicyKind::Naive => Box::new(Naive),
            PolicyKind::Pessimistic => Box::new(Pessimistic),
            PolicyKind::Enhanced => Box::new(Enhanced),
            PolicyKind::EnhancedKill => Box::new(EnhancedKill),
            PolicyKind::Custom => panic!("custom policies must be constructed directly"),
        }
    }
}

/// Baseline: restart the crashed component from its pristine post-init image,
/// losing all accumulated state. Models "microreboot" systems that only
/// support stateless recovery (paper §VI, recovery policy 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct Stateless;

impl RecoveryPolicy for Stateless {
    fn name(&self) -> &'static str {
        "stateless"
    }
    fn checkpointing(&self) -> bool {
        false
    }
    fn send_keeps_window_open(&self, _seep: &SeepMeta) -> bool {
        // No windows are maintained; the answer is irrelevant but `true`
        // keeps the (unused) window machinery inert.
        true
    }
    fn reconcile(&self, crash: &CrashContext) -> RecoveryDecision {
        RecoveryDecision::new(ActionCode::FreshRestart, crash.reply_possible)
    }
    fn kind(&self) -> PolicyKind {
        PolicyKind::Stateless
    }
}

/// Baseline: restart the component but keep its (possibly half-updated)
/// state exactly as it was at the moment of the crash, then send an error
/// reply. Models best-effort recovery with no special handling (paper §VI,
/// recovery policy 2).
#[derive(Clone, Copy, Debug, Default)]
pub struct Naive;

impl RecoveryPolicy for Naive {
    fn name(&self) -> &'static str {
        "naive"
    }
    fn checkpointing(&self) -> bool {
        false
    }
    fn send_keeps_window_open(&self, _seep: &SeepMeta) -> bool {
        true
    }
    fn reconcile(&self, crash: &CrashContext) -> RecoveryDecision {
        RecoveryDecision::new(ActionCode::ContinueAsIs, crash.reply_possible)
    }
    fn kind(&self) -> PolicyKind {
        PolicyKind::Naive
    }
}

/// OSIRIS pessimistic policy: *sending out any message* closes the recovery
/// window (paper §IV-B). Lowest overhead, smallest recovery surface.
#[derive(Clone, Copy, Debug, Default)]
pub struct Pessimistic;

impl RecoveryPolicy for Pessimistic {
    fn name(&self) -> &'static str {
        "pessimistic"
    }
    fn send_keeps_window_open(&self, _seep: &SeepMeta) -> bool {
        false
    }
    fn reconcile(&self, crash: &CrashContext) -> RecoveryDecision {
        osiris_reconcile(crash)
    }
    fn kind(&self) -> PolicyKind {
        PolicyKind::Pessimistic
    }
}

/// OSIRIS enhanced policy (the default): SEEP metadata identifies which
/// interactions actually create dependencies; only state-modifying sends
/// close the window (paper §IV-B).
#[derive(Clone, Copy, Debug, Default)]
pub struct Enhanced;

impl RecoveryPolicy for Enhanced {
    fn name(&self) -> &'static str {
        "enhanced"
    }
    fn send_keeps_window_open(&self, seep: &SeepMeta) -> bool {
        !seep.class.is_state_modifying()
    }
    fn reconcile(&self, crash: &CrashContext) -> RecoveryDecision {
        osiris_reconcile(crash)
    }
    fn kind(&self) -> PolicyKind {
        PolicyKind::Enhanced
    }
}

/// The paper's §VII extensibility demonstration: like [`Enhanced`], but
/// *requester-scoped* SEEPs (state changes limited to data owned by the
/// requesting process) also stay inside the recovery window. A crash after
/// such sends is reconciled by **killing the requester**: its exit path
/// cleans up the scoped remote state, restoring global consistency without
/// a shutdown.
#[derive(Clone, Copy, Debug, Default)]
pub struct EnhancedKill;

impl RecoveryPolicy for EnhancedKill {
    fn name(&self) -> &'static str {
        "enhanced-kill"
    }
    fn send_keeps_window_open(&self, seep: &SeepMeta) -> bool {
        matches!(seep.class, crate::seep::SeepClass::NonStateModifying)
            || matches!(seep.class, crate::seep::SeepClass::RequesterScoped)
    }
    fn reconcile(&self, crash: &CrashContext) -> RecoveryDecision {
        if crash.in_recovery_code {
            return RecoveryDecision::new(ActionCode::UncontrolledCrash, false);
        }
        if crash.window_open && crash.scoped_sends && crash.requester_is_process {
            // The window stayed open across requester-scoped sends; clean
            // them by killing the requester (no error reply: it is dying).
            return RecoveryDecision::new(ActionCode::RollbackKillRequester, false);
        }
        if crash.window_open && crash.reply_possible {
            RecoveryDecision::new(ActionCode::RollbackErrorReply, true)
        } else {
            RecoveryDecision::new(ActionCode::ControlledShutdown, false)
        }
    }
    fn kind(&self) -> PolicyKind {
        PolicyKind::EnhancedKill
    }
}

/// The common OSIRIS reconciliation rule (paper §IV-C): if the window was
/// open at crash time and the failure-triggering request can be error-replied,
/// roll back and virtualize the error; otherwise perform a controlled
/// shutdown — never attempt recovery that could leave the system
/// inconsistent.
fn osiris_reconcile(crash: &CrashContext) -> RecoveryDecision {
    if crash.in_recovery_code {
        // A second fault inside recovery violates the single-fault model;
        // there is nothing consistent left to restore.
        return RecoveryDecision::new(ActionCode::UncontrolledCrash, false);
    }
    if crash.window_open && crash.reply_possible {
        RecoveryDecision::new(ActionCode::RollbackErrorReply, true)
    } else {
        RecoveryDecision::new(ActionCode::ControlledShutdown, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seep::{SeepClass, SeepMeta};

    fn ctx(window_open: bool, reply_possible: bool) -> CrashContext {
        CrashContext {
            window_open,
            reply_possible,
            in_recovery_code: false,
            scoped_sends: false,
            requester_is_process: true,
        }
    }

    #[test]
    fn pessimistic_closes_on_any_send() {
        let p = Pessimistic;
        assert!(!p.send_keeps_window_open(&SeepMeta::request(SeepClass::NonStateModifying)));
        assert!(!p.send_keeps_window_open(&SeepMeta::notification(SeepClass::NonStateModifying)));
    }

    #[test]
    fn enhanced_allows_read_only_sends() {
        let p = Enhanced;
        assert!(p.send_keeps_window_open(&SeepMeta::request(SeepClass::NonStateModifying)));
        assert!(!p.send_keeps_window_open(&SeepMeta::request(SeepClass::StateModifying)));
    }

    #[test]
    fn osiris_policies_shutdown_when_window_closed() {
        for p in [PolicyKind::Pessimistic, PolicyKind::Enhanced] {
            let p = p.instantiate();
            let d = p.reconcile(&ctx(false, true));
            assert_eq!(d.action, ActionCode::ControlledShutdown, "{}", p.name());
        }
    }

    #[test]
    fn osiris_policies_recover_in_open_window() {
        for p in [PolicyKind::Pessimistic, PolicyKind::Enhanced] {
            let p = p.instantiate();
            let d = p.reconcile(&ctx(true, true));
            assert_eq!(d.action, ActionCode::RollbackErrorReply, "{}", p.name());
            assert!(d.error_reply);
        }
    }

    #[test]
    fn osiris_policies_shutdown_when_no_reply_possible() {
        let d = Enhanced.reconcile(&ctx(true, false));
        assert_eq!(d.action, ActionCode::ControlledShutdown);
    }

    #[test]
    fn fault_in_recovery_code_is_fatal() {
        let d = Enhanced.reconcile(&CrashContext {
            window_open: true,
            reply_possible: true,
            in_recovery_code: true,
            scoped_sends: false,
            requester_is_process: true,
        });
        assert_eq!(d.action, ActionCode::UncontrolledCrash);
    }

    #[test]
    fn enhanced_kill_reconciles_scoped_windows_by_killing() {
        use crate::seep::SeepClass;
        let p = EnhancedKill;
        assert!(p.send_keeps_window_open(&SeepMeta::notification(SeepClass::RequesterScoped)));
        assert!(!p.send_keeps_window_open(&SeepMeta::request(SeepClass::StateModifying)));
        let d = p.reconcile(&CrashContext {
            window_open: true,
            reply_possible: false,
            in_recovery_code: false,
            scoped_sends: true,
            requester_is_process: true,
        });
        assert_eq!(d.action, ActionCode::RollbackKillRequester);
        // Without scoped sends it behaves exactly like Enhanced.
        let d = p.reconcile(&ctx(true, true));
        assert_eq!(d.action, ActionCode::RollbackErrorReply);
        // A non-process requester cannot be killed: fall back to shutdown.
        let d = p.reconcile(&CrashContext {
            window_open: true,
            reply_possible: false,
            in_recovery_code: false,
            scoped_sends: true,
            requester_is_process: false,
        });
        assert_eq!(d.action, ActionCode::ControlledShutdown);
    }

    #[test]
    fn baselines_do_not_checkpoint() {
        assert!(!Stateless.checkpointing());
        assert!(!Naive.checkpointing());
        assert!(Pessimistic.checkpointing());
        assert!(Enhanced.checkpointing());
    }

    #[test]
    fn baseline_reconciliation() {
        let d = Stateless.reconcile(&ctx(false, true));
        assert_eq!(d.action, ActionCode::FreshRestart);
        assert!(d.error_reply);
        let d = Naive.reconcile(&ctx(false, false));
        assert_eq!(d.action, ActionCode::ContinueAsIs);
        assert!(!d.error_reply);
    }

    #[test]
    fn kind_roundtrip_and_display() {
        for k in PolicyKind::STANDARD {
            assert_eq!(k.instantiate().kind(), k);
        }
        assert_eq!(PolicyKind::Enhanced.to_string(), "enhanced");
    }
}
