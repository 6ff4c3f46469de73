//! The recovery conduct as one pure step (paper §IV-C, §V).
//!
//! A crash is recovered through the Recovery Server: the kernel records an
//! intent and notifies the RS, which runs its escalation ladder and asks
//! the kernel to restart, quarantine or shut down. The RS can itself fail
//! mid-conduct; then the kernel recovers it and re-drives the intents.
//! [`conduct`] makes every decision of that protocol from the control
//! state alone (the fold of the axiom, whose `recovering` is the conduct in
//! flight) and the RS's endpoint. It touches no heap and no kernel. Its
//! execution is written once here too, as the provided methods of
//! [`Host`]: crash capture, each [`Effect`], the three recovery phases
//! with their fallback chain and reconciliation, the controlled shutdown,
//! the quarantine and its bounce. The kernel supplies only the effects on
//! heaps, images, the clock and inboxes, and `tests/conduct_search.rs` and
//! `tests/watchdog_search.rs` run the same code over their state spaces.

use osiris_trace::{AxiomEvent, CompStatusCode, ControlState, IntentPhaseCode, TraceEvent};

use crate::policy::RecoveryPolicy;
use crate::recovery::{
    decide_recovery, system_survives, ActionCode, CrashContext, RecoveryDecision,
};

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

/// Crash-time facts a component's crash freezes until its recovery runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PendingCrash<M> {
    /// The request the component was serving: whole if the watchdog may
    /// re-drive it, else what its handler left of it (the header, at
    /// least).
    pub msg: M,
    /// What the policy decides on. `in_recovery_code`: the fault hit while
    /// a conduct was in flight (only the RS runs then, so the RS failed
    /// mid-conduct).
    pub ctx: CrashContext,
    /// The component was quiescent when the watchdog declared it dead (its
    /// handler had completed and its transaction committed; only the reply
    /// was lost or tampered with). The heap is consistent, so a policy
    /// verdict of "shut down" degrades to a keep-state restart instead.
    pub quiescent: bool,
}

/// The executor of the conduct's decisions: the kernel, or a model of it.
/// The required methods are the effects only the executor can perform: on
/// heaps, images, the clock and inboxes. The provided ones are the
/// recovery plane's control flow, written once: crash capture, the
/// execution of each [`Effect`], the three recovery phases with their
/// fallback chain, the controlled shutdown, the quarantine and its bounce.
pub trait Host {
    /// A message: what a crashed component was serving, what is answered.
    type Msg;

    /// The control state: the fold of every sealed event.
    fn control(&self) -> &ControlState;

    /// The Recovery Server's endpoint, if there is one.
    fn rs(&self) -> Option<u8>;

    /// The recovery policy that reconciles a crash.
    fn policy(&self) -> &dyn RecoveryPolicy;

    /// Component `comp`'s name, for shutdown reasons.
    fn name(&self, comp: u8) -> &'static str;

    /// Component `comp`'s unrecovered crash.
    fn pending(&mut self, comp: u8) -> &mut Option<PendingCrash<Self::Msg>>;

    /// Seals `event` into the axiom, and so into the control state.
    fn seal(&mut self, event: AxiomEvent);

    /// Stamps the flight recorder with the current virtual time.
    fn stamp(&mut self);

    /// Reports an occurrence on component `comp`'s lane: to the flight
    /// recorder and the metric fold.
    fn emit(&mut self, comp: u8, event: TraceEvent);

    /// Starts a new recovery epoch: spans opened before it count as having
    /// crossed a recovery.
    fn new_epoch(&mut self);

    /// Queues the crash notification for `comp` to the RS.
    fn notify_rs(&mut self, comp: u8);

    /// Whether a crash notification for `comp` is queued to the RS at `rs`.
    fn rs_queued(&self, rs: u8, comp: u8) -> bool;

    /// Notes that an interrupted intent was re-driven through the restarted
    /// RS (`redriven`) or completed in the kernel.
    fn replayed(&mut self, redriven: bool);

    /// Runs and notes the integrity check of `comp`'s clone image
    /// (`image`) or undo journal; reports whether it passed.
    fn verify(&mut self, comp: u8, image: bool) -> bool;

    /// Consults the fault hook at a recovery-phase `site`: whether the
    /// phase itself failed.
    fn phase_faulted(&mut self, site: &'static str) -> bool;

    /// Restart and rollback phases: swaps in the spare clone, rolls `comp`'s
    /// heap back to its window's checkpoint and restarts its server.
    /// Returns the cycles they took.
    fn roll_back(&mut self, comp: u8) -> u64;

    /// Restores `comp`'s heap from its clone image, copy-on-write, and
    /// restarts its server fresh. Returns the cycles it took, or `None`
    /// (noted) if the image failed a chunk check before any mutation.
    fn restore(&mut self, comp: u8) -> Option<u64>;

    /// Restarts `comp`'s server over the heap as it is (`quiescent`: the
    /// heap is a committed transaction's). Returns the cycles it took.
    fn keep_state(&mut self, comp: u8, quiescent: bool) -> u64;

    /// Charges `comp`'s recovery, whose phases took `cycles`, to the clock
    /// with the reconciliation's, restamps, and seals the window close the
    /// phases staged: the axiom's event order is the causal order. Returns
    /// the cycles charged.
    fn charge_recovery(&mut self, comp: u8, cycles: u64) -> u64;

    /// Error virtualization: answers the requester of `msg` with `E_CRASH`
    /// on behalf of `from`, unless the watchdog re-drives the request.
    fn crash_reply(&mut self, from: u8, msg: Self::Msg);

    /// Answers a process that sent `msg` with `ESHUTDOWN`, on behalf of
    /// `from`. Hands back a message from any other requester.
    fn shutdown_reply(&mut self, from: u8, msg: Self::Msg) -> Option<Self::Msg>;

    /// Asks the RS to kill the process that sent `msg` (paper §VII): its
    /// exit path cleans the scoped state the window exported.
    fn kill_requester(&mut self, msg: &Self::Msg);

    /// Whether the watchdog still watches for a reply to `msg`.
    fn watched(&self, msg: &Self::Msg) -> bool;

    /// Returns benched `comp`'s clone image to the pool.
    fn bench(&mut self, comp: u8);

    /// Takes the next request queued to quarantined `comp`, noted as
    /// refused; replies and notifications queued before it are dropped.
    fn take_request(&mut self, comp: u8) -> Option<Self::Msg>;

    /// Records a controlled shutdown (`reason`) unless one was already
    /// decided. Returns whether its grace window is open.
    fn begin_shutdown(&mut self, reason: String) -> bool;

    /// Stops the machine at once: a fault in recovery code.
    fn crash_shutdown(&mut self, reason: String);

    /// The conduct's decision on `input` in the current control state.
    fn decide(&self, input: Input) -> Effect {
        conduct(self.control(), self.rs(), input)
    }

    /// Fault capture: `comp`'s handler unwound while serving `msg` (`hung`:
    /// the panic was an injected wedge rather than a fail-stop crash), with
    /// its window and request as `ctx` says (its `in_recovery_code` is
    /// decided here), after the window close it staged was sealed. Seals
    /// the fault, freezes the crash-time facts and executes the conduct's
    /// decision.
    fn capture(&mut self, comp: u8, msg: Self::Msg, mut ctx: CrashContext, hung: bool) {
        // Any capture starts a new recovery epoch.
        self.new_epoch();
        let (event, input) = if hung {
            // The component is wedged: it stops processing messages until
            // its detector declares it dead.
            (AxiomEvent::HangDetected { comp }, Input::Hang(comp))
        } else {
            (AxiomEvent::Crash { comp }, Input::Crash(comp))
        };
        self.seal(event);
        ctx.in_recovery_code = self.control().recovering.is_some();
        *self.pending(comp) = Some(PendingCrash {
            msg,
            ctx,
            quiescent: false,
        });
        self.execute(self.decide(input));
    }

    /// Starts the recovery of `comp`, which the watchdog declared dead (its
    /// pending crash is already in place).
    fn declare_dead(&mut self, comp: u8) {
        self.seal(AxiomEvent::Crash { comp });
        self.execute(self.decide(Input::Crash(comp)));
    }

    /// The RS heartbeat's kill: crashes `comp` if it is hung, and recovers
    /// it.
    fn kill_hung(&mut self, comp: u8) {
        if self.control().status(comp) == CompStatusCode::Hung {
            self.stamp();
            self.seal(AxiomEvent::Crash { comp });
            self.recover(comp);
        }
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

    /// Executes the three recovery phases — restart, rollback,
    /// reconciliation — for the crashed component `comp` (paper §IV-C).
    fn recover(&mut self, comp: u8) {
        let Some(pending) = self.pending(comp).take() else {
            // Spurious request (e.g. the component already recovered, or a
            // stale backoff timer fired after a quarantine).
            return self.execute(self.decide(Input::Recovered(comp)));
        };
        self.stamp();
        let mut decision = decide_recovery(self.policy(), &pending.ctx);
        if pending.quiescent && !system_survives(decision.action) {
            // The watchdog declared this component dead between requests:
            // its handler had committed and only the reply was lost or
            // tampered with, so the heap is a consistent post-transaction
            // state. The policy's "window closed, reply impossible" shutdown
            // verdict is for mid-flight crashes; here a keep-state restart
            // (fresh server object over the committed heap) is sound, and
            // the requester was already reconciled by the retry/crash-reply
            // interception.
            decision = RecoveryDecision::new(ActionCode::ContinueAsIs, false);
        }
        let mut action = decision.action;
        self.seal(AxiomEvent::RecoveryDecision { comp, action });
        // Attempt loop: each recovery phase is itself fallible — a journal
        // or image integrity violation, or a fault injected inside the
        // phase, degrades to the next rung of the fallback chain instead of
        // executing a phase whose inputs cannot be trusted.
        let cycles = loop {
            let done = match action {
                // The policy (correctly) refuses to recover a fault in
                // recovery code under the single-fault model. The intent
                // log makes the interrupted conduct re-drivable, so the RS
                // restarts fresh instead of taking the system down.
                ActionCode::UncontrolledCrash if pending.ctx.in_recovery_code => None,
                ActionCode::RollbackErrorReply | ActionCode::RollbackKillRequester => {
                    let trusted =
                        self.verify(comp, false) && !self.phase_faulted("kernel.recovery.rollback");
                    trusted.then(|| self.roll_back(comp))
                }
                ActionCode::FreshRestart => {
                    let trusted =
                        self.verify(comp, true) && !self.phase_faulted("kernel.recovery.restart");
                    trusted.then(|| self.restore(comp)).flatten()
                }
                ActionCode::ContinueAsIs => Some(self.keep_state(comp, pending.quiescent)),
                ActionCode::ControlledShutdown => {
                    let reason = format!(
                        "unrecoverable crash in {} (window {}, reply {})",
                        self.name(comp),
                        ["closed", "open"][usize::from(pending.ctx.window_open)],
                        ["impossible", "possible"][usize::from(pending.ctx.reply_possible)],
                    );
                    *self.pending(comp) = Some(pending);
                    return self.shut_down(Some(comp), reason);
                }
                ActionCode::UncontrolledCrash => {
                    let name = self.name(comp);
                    let reason = format!("fault in recovery path while handling crash of {name}");
                    return self.crash_shutdown(reason);
                }
            };
            match done {
                Some(cycles) => break cycles,
                None => action = self.fall_back(comp, action, false),
            }
        };
        let cycles = self.charge_recovery(comp, cycles);
        self.seal(AxiomEvent::RecoveryDone { comp, cycles });
        // A completed recovery also advances the epoch, so spans opened
        // while the recovery was in flight are flagged at close.
        self.new_epoch();
        self.execute(self.decide(Input::Recovered(comp)));

        // Reconciliation phase: error virtualization — tell the requester
        // the call failed so it can handle it like any other error — or the
        // kill-requester extension (paper §VII). A fault here means the
        // requester's view cannot be reconciled: the component is
        // restored, but the only consistent global outcome left is a
        // controlled shutdown.
        if self.phase_faulted("kernel.recovery.reconcile") {
            self.fall_back(comp, action, true);
            let name = self.name(comp);
            let reason = format!("fault in reconciliation after recovering {name}");
            *self.pending(comp) = Some(pending);
            return self.shut_down(Some(comp), reason);
        }
        if decision.action == ActionCode::RollbackKillRequester {
            self.kill_requester(&pending.msg);
        } else if decision.error_reply {
            self.crash_reply(comp, pending.msg);
        }
    }

    /// Stops the machine in a controlled way, ending the conduct for
    /// `target`, if any: its intent is resolved and, while the grace window
    /// is open, the request whose crash started the conduct is answered
    /// (a process with `ESHUTDOWN`), so its caller can save its state
    /// instead of blocking forever. The crashed component stays dead. The
    /// policy, the fallback chain and the escalation ladder all shut down
    /// through here.
    fn shut_down(&mut self, target: Option<u8>, reason: String) {
        let failed = target.and_then(|t| {
            self.resolve_intent(t);
            self.pending(t).take()
        });
        let grace = self.begin_shutdown(reason);
        if let (Some(target), Some(failed), true) = (target, failed, grace) {
            if let Some(msg) = self.shutdown_reply(target, failed.msg) {
                self.crash_reply(target, msg);
            }
        }
    }

    /// Benches a crash-looping component: reconciles its pending requester
    /// with a crash reply unless the handler's reply got through, seals it
    /// [`CompStatusCode::Quarantined`] (never scheduled again), and
    /// unstalls the system. Its queued and future requests are bounced by
    /// [`Host::bounce`].
    fn quarantine(&mut self, comp: u8) {
        self.stamp();
        if let Some(pending) = self.pending(comp).take() {
            // Its requester still waits for a reply, or the reply went out
            // but the watchdog still watches for it: lost or rejected.
            if pending.ctx.reply_possible || self.watched(&pending.msg) {
                self.crash_reply(comp, pending.msg);
            }
        }
        // A benched component will never be restarted: its clone image's
        // shared chunks survive only as long as a live component needs
        // them.
        self.bench(comp);
        // The Quarantined axiom event sets the status, resolves the intent
        // and clears the window bit in the control-state fold.
        self.seal(AxiomEvent::Quarantined { comp });
    }

    /// Drains the inboxes of quarantined components: requests are answered
    /// with an immediate crash reply (error virtualization without running
    /// the component), replies and notifications are dropped.
    fn bounce(&mut self) {
        for comp in 0..self.control().comps {
            if self.control().status(comp) != CompStatusCode::Quarantined {
                continue;
            }
            while let Some(request) = self.take_request(comp) {
                self.stamp();
                self.crash_reply(comp, request);
            }
        }
    }
}
