//! The recovery conduct as one pure step (paper §IV-C, §V).
//!
//! A crash is recovered through the Recovery Server: the kernel records an
//! intent and notifies the RS, which runs its escalation ladder and asks
//! the kernel to restart, quarantine or shut down. The RS can itself fail
//! mid-conduct; then the kernel recovers it and re-drives the intents.
//! [`conduct`] makes every decision of that protocol from the control
//! state alone (the fold of the axiom, whose `recovering` is the conduct in
//! flight) and the RS's endpoint. It touches no heap and no kernel; the
//! kernel only executes the [`Effect`]. Being a pure function of a small
//! state, its whole state space is searched in `tests/conduct_search.rs`.

use osiris_trace::{CompStatusCode, ControlState};

use crate::recovery::ActionCode;

/// Re-drives of one interrupted intent through a restarted RS before the
/// kernel stops trusting the RS with it and completes the recovery itself.
pub const MAX_INTENT_REPLAYS: u32 = 2;

/// What the kernel asks the conduct about. The state it passes along has
/// folded the `Crash` or `HangDetected` of a fault, not yet the
/// `IntentReplayed` or `RecoveryFallback` the effect may seal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Input {
    /// `comp` fail-stopped: its handler unwound, or the watchdog declared
    /// it dead.
    Crash(u8),
    /// `comp`'s handler wedged.
    Hang(u8),
    /// After the RS's restart, the kernel re-examines its interrupted intent
    /// for `comp`; `queued`: the notification is still queued to the RS,
    /// which failed on something else before it took it.
    Replay {
        /// Component the intent is for.
        comp: u8,
        /// Whether its notification is still queued to the RS.
        queued: bool,
    },
    /// The recovery of `comp` completed, or found nothing left to recover.
    Recovered(u8),
    /// Executing this action failed: an integrity check or a fault in its
    /// phase. A policy refusing the RS's crash mid-conduct fails
    /// `UncontrolledCrash`.
    Failed(ActionCode),
    /// The reconciliation after a completed recovery faulted.
    ReconcileFailed,
}

/// What the kernel does next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effect {
    /// Nothing to do: a hang waits for its detector (the RS heartbeat or
    /// the watchdog), a queued notification for the restarted RS to serve
    /// it, the machine is shutting down (with its RS, if the RS is dead),
    /// or a shutdown has no rung below.
    Wait,
    /// Record an intent for `comp` and notify the RS.
    Notify(u8),
    /// The RS is hung, and nothing but the conduct that needs it can tell:
    /// crash and recover it in the kernel, then decide `comp`'s crash again.
    RestartHungRs(u8),
    /// Recover `comp` in the kernel: it is the RS, or there is none.
    Recover(u8),
    /// The RS failed mid-conduct (a hang counts as a crash: only the RS
    /// runs during a conduct, so nothing would ever detect it): crash it if
    /// it hung, recover it in the kernel, then replay every active intent.
    RestartRs,
    /// The intent for `comp` is done with: resolve it.
    Resolve(u8),
    /// Re-notify the restarted RS of `comp`'s intent.
    Redrive(u8),
    /// The RS kept failing on `comp`: recover it in the kernel.
    Complete(u8),
    /// Try this action next, one rung down the fallback chain.
    Fallback(ActionCode),
}

/// Decides the conduct's next step for `input` in `state`, with the RS at
/// endpoint `rs` (`None`: no RS, the kernel recovers everything itself).
///
/// While a conduct is in flight only the RS runs, so only the RS can crash
/// or hang then; a crash of any other component starts a conduct of its
/// own. The fallback chain gives up strictly more state at every rung:
/// rollback, then a fresh restart, then a controlled shutdown.
pub fn conduct(state: &ControlState, rs: Option<u8>, input: Input) -> Effect {
    let rs_status = rs.map(|rs| state.status(rs));
    match input {
        Input::Crash(c) | Input::Hang(c) if state.recovering.is_some() && rs == Some(c) => {
            Effect::RestartRs
        }
        Input::Hang(_) => Effect::Wait,
        Input::Crash(c) if rs.is_none() || rs == Some(c) => Effect::Recover(c),
        Input::Crash(c) => match rs_status {
            Some(CompStatusCode::Alive) => Effect::Notify(c),
            Some(CompStatusCode::Hung) => Effect::RestartHungRs(c),
            _ => Effect::Wait,
        },
        Input::Replay { comp, queued } => {
            // Outside a shutdown, a crashed component's crash is pending.
            if state.shutdown.is_some() || rs_status != Some(CompStatusCode::Alive) {
                Effect::Wait
            } else if state.status(comp) != CompStatusCode::Crashed {
                Effect::Resolve(comp)
            } else if queued {
                Effect::Wait
            } else if state.intent(comp).replays < MAX_INTENT_REPLAYS {
                Effect::Redrive(comp)
            } else {
                Effect::Complete(comp)
            }
        }
        Input::Recovered(comp) => Effect::Resolve(comp),
        Input::ReconcileFailed => Effect::Fallback(ActionCode::ControlledShutdown),
        Input::Failed(ActionCode::ControlledShutdown) => Effect::Wait,
        Input::Failed(action) => Effect::Fallback(match action {
            ActionCode::RollbackErrorReply
            | ActionCode::RollbackKillRequester
            | ActionCode::UncontrolledCrash => ActionCode::FreshRestart,
            _ => ActionCode::ControlledShutdown,
        }),
    }
}
