//! The recovery conduct as one pure step (paper §IV-C, §V).
//!
//! A crash is recovered through the Recovery Server: the kernel records an
//! intent and notifies the RS, which runs its escalation ladder and asks
//! the kernel to restart, quarantine or shut down. The RS can itself fail
//! mid-conduct; then the kernel recovers it and re-drives the intents.
//! [`conduct`] makes every decision of that protocol from the control
//! state alone (the fold of the axiom, whose `recovering` is the conduct in
//! flight) and the RS's endpoint. It touches no heap and no kernel. Its
//! execution, the provided methods of [`Host`], is written once here too:
//! the kernel supplies the effects only it can perform, and
//! `tests/conduct_search.rs` runs the same code over the whole state space.

use osiris_trace::{AxiomEvent, CompStatusCode, ControlState, IntentPhaseCode};

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

/// The executor of the conduct's decisions: the kernel, or a model of it.
/// The required methods are what only the executor can do; the provided
/// ones execute each [`Effect`], written once.
pub trait Host {
    /// The control state: the fold of every sealed event.
    fn control(&self) -> &ControlState;

    /// The Recovery Server's endpoint, if there is one.
    fn rs(&self) -> Option<u8>;

    /// Seals `event` into the axiom, and so into the control state.
    fn seal(&mut self, event: AxiomEvent);

    /// Stamps the flight recorder with the current virtual time.
    fn stamp(&mut self);

    /// Queues the crash notification for `comp` to the RS.
    fn notify_rs(&mut self, comp: u8);

    /// Whether a crash notification for `comp` is queued to the RS at `rs`.
    fn rs_queued(&self, rs: u8, comp: u8) -> bool;

    /// Executes the recovery phases for `comp` in the kernel.
    fn recover(&mut self, comp: u8);

    /// Notes that an interrupted intent was re-driven through the restarted
    /// RS (`redriven`) or completed in the kernel.
    fn replayed(&mut self, redriven: bool);

    /// The conduct's decision on `input` in the current control state.
    fn decide(&self, input: Input) -> Effect {
        conduct(self.control(), self.rs(), input)
    }

    /// Starts the recovery of `comp`, which the watchdog declared dead (its
    /// pending crash is already in place).
    fn declare_dead(&mut self, comp: u8) {
        self.seal(AxiomEvent::Crash { comp });
        self.execute(self.decide(Input::Crash(comp)));
    }

    /// Executes one decision of the conduct (paper §V: "all core system
    /// components, including RS itself, can be recovered").
    fn execute(&mut self, effect: Effect) {
        match effect {
            Effect::Notify(comp) => {
                let phase = IntentPhaseCode::Notified;
                self.seal(AxiomEvent::IntentRecorded { comp, phase });
                self.notify_rs(comp);
            }
            Effect::RestartHungRs(comp) => {
                self.restart_rs();
                self.execute(self.decide(Input::Crash(comp)));
            }
            Effect::Recover(comp) => self.recover(comp),
            Effect::RestartRs => {
                // Lifts the paper's single-fault limitation for faults in
                // the recovery path: the interrupted conduct is re-driven
                // from the intents the axiom still holds active.
                let Some(rs) = self.restart_rs() else { return };
                let intents: Vec<u8> = self.control().active_intents().collect();
                for comp in intents {
                    let queued = self.rs_queued(rs, comp);
                    self.execute(self.decide(Input::Replay { comp, queued }));
                }
            }
            Effect::Resolve(comp) => self.resolve_intent(comp),
            Effect::Redrive(comp) | Effect::Complete(comp) => {
                self.stamp();
                self.seal(AxiomEvent::IntentReplayed { comp });
                let redriven = effect == Effect::Redrive(comp);
                self.replayed(redriven);
                if redriven {
                    self.notify_rs(comp);
                } else {
                    self.recover(comp);
                }
            }
            Effect::Wait | Effect::Fallback(_) => {}
        }
    }

    /// Crashes the RS if it hung, then recovers it in the kernel. Returns
    /// its endpoint.
    fn restart_rs(&mut self) -> Option<u8> {
        let rs = self.rs()?;
        if self.control().status(rs) == CompStatusCode::Hung {
            self.stamp();
            self.seal(AxiomEvent::Crash { comp: rs });
        }
        self.recover(rs);
        Some(rs)
    }

    /// Seals the resolution of `comp`'s intent, if it has an active one.
    fn resolve_intent(&mut self, comp: u8) {
        if self.control().intent(comp).active {
            self.seal(AxiomEvent::IntentResolved { comp });
        }
    }

    /// Steps `from` one rung down the fallback chain (`reconcile`: the
    /// reconciliation after it faulted), sealing the step, and returns the
    /// next action.
    fn fall_back(&mut self, comp: u8, from: ActionCode, reconcile: bool) -> ActionCode {
        let input = if reconcile {
            Input::ReconcileFailed
        } else {
            Input::Failed(from)
        };
        let Effect::Fallback(to) = self.decide(input) else {
            return from;
        };
        self.stamp();
        self.seal(AxiomEvent::RecoveryFallback { comp, from, to });
        to
    }
}
