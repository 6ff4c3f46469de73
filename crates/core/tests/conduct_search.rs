//! Exhaustive breadth-first search over the recovery conduct.
//!
//! The machine is modelled at the grain the conduct sees. Its state is the
//! real control-state fold (`ControlState::apply`), each component's pending
//! crash and the crash notifications queued to the Recovery Server; its
//! decisions are the real `osiris_core::conduct`, and their execution is the
//! kernel's own: `conduct::Host`'s provided methods — crash capture, the
//! three recovery phases with their fallback chain, the shutdown and the
//! quarantine — run on a [`Machine`] that supplies the effects, under the
//! enhanced policy with a zero shutdown grace.
//!
//! Each step is one input: a crash or hang of a schedulable component (only
//! the RS while a conduct is in flight), an RS crash or hang at one of its
//! conduct sites, the RS serving a notification with a ladder step, or a
//! watchdog verdict or heartbeat kill of a hung component. A step may arm
//! one fault in the recoveries it triggers: a failed journal or image
//! check, or a fault in the rollback, restart or reconcile phase. The
//! search runs to closure, so every reachable state is checked (it fails if
//! the space has not closed within `DEPTH` inputs and `MAX_STATES` states):
//!
//! - no wedge: fault-free progress reaches a shutdown or a settled machine
//!   (every component Alive or Quarantined, no conduct in flight, nothing
//!   queued to the RS). A hung RS counts as settled while no conduct is in
//!   flight: nothing watches it, and the next conduct restarts it;
//! - at most one conduct in flight: the conduct target, the active intents
//!   and the queued notifications name one component at most;
//! - Quarantined is absorbing;
//! - every intent is resolved: a settled machine holds no active intent;
//! - while a conduct is in flight, no crash of another component reaches
//!   the conduct;
//! - no phase runs whose integrity check or fault probe failed, and no
//!   requester is answered once its reconciliation faulted.
//!
//! The visited set is keyed on the conduct-relevant projection of the
//! control state (statuses, intent slots, `recovering`, `shutdown`) plus the
//! pending crashes and the RS's queue, never on the monotone counters.

mod support;

use std::cell::Cell;

use osiris_axiom::{AxiomEvent, CompStatusCode, ControlState, IntentPhaseCode, IntentSlot};
use osiris_core::conduct::{Host, PendingCrash};
use osiris_core::{conduct, ActionCode, CrashContext, Effect, Enhanced, Input, RecoveryPolicy};
use osiris_core::{SeepClass, SeepMeta};
use osiris_trace::TraceEvent;
use support::Model;

const COMPS: usize = 6;
const RS: u8 = 0;
const DEPTH: usize = 24;
const MAX_STATES: usize = 200_000;

/// Where a step may arm a fault: an integrity check or a recovery phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Journal,
    Rollback,
    Image,
    Restart,
    Reconcile,
}

impl Phase {
    /// The phase whose inputs a fault here leaves untrusted.
    fn guards(self) -> Phase {
        match self {
            Phase::Journal => Phase::Rollback,
            Phase::Image => Phase::Restart,
            phase => phase,
        }
    }
}

/// The RS's escalation ladder step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ladder {
    Restart,
    Quarantine,
    Shutdown,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    /// `comp` crashes (or hangs) mid-request, with its window open or not.
    Fault { comp: u8, hang: bool, open: bool },
    /// The RS takes the oldest notification and fails at `site`.
    RsFault { site: &'static str, hang: bool },
    /// The RS serves the oldest notification.
    Serve(Ladder),
    /// The watchdog declares hung `comp` dead.
    Verdict(u8),
    /// The RS heartbeat kills hung `comp`.
    Kill(u8),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Step {
    event: Event,
    phase_fault: Option<Phase>,
}

/// The visited-set key, from which a [`Machine`] is rebuilt.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Key {
    statuses: [CompStatusCode; COMPS],
    intents: [IntentSlot; COMPS],
    recovering: Option<u8>,
    shutdown: Option<bool>,
    pending: [Option<PendingCrash<()>>; COMPS],
    inbox: Vec<u8>,
}

struct Machine {
    control: ControlState,
    /// Each component's unrecovered crash, as the kernel froze it.
    pending: [Option<PendingCrash<()>>; COMPS],
    inbox: Vec<u8>,
    armed: Option<Phase>,
    /// The phase whose check or probe failed in this step, if any.
    untrusted: Option<Phase>,
    violations: Vec<&'static str>,
    /// A crash of a component other than the RS reached the conduct while
    /// a conduct was in flight: seen in [`Host::decide`], which takes
    /// `&self`.
    foreign_crash: Cell<bool>,
}

impl Machine {
    fn from_key(k: &Key) -> Machine {
        let mut control = ControlState::new();
        control.comps = COMPS as u8;
        control.statuses[..COMPS].copy_from_slice(&k.statuses);
        control.intents[..COMPS].copy_from_slice(&k.intents);
        control.recovering = k.recovering;
        control.shutdown = k.shutdown;
        Machine {
            control,
            pending: k.pending,
            inbox: k.inbox.clone(),
            armed: None,
            untrusted: None,
            violations: Vec::new(),
            foreign_crash: Cell::new(false),
        }
    }

    fn key(&self) -> Key {
        let c = &self.control;
        Key {
            statuses: c.statuses[..COMPS].try_into().unwrap(),
            intents: c.intents[..COMPS].try_into().unwrap(),
            recovering: c.recovering,
            shutdown: c.shutdown,
            pending: self.pending,
            inbox: self.inbox.clone(),
        }
    }

    fn status(&self, comp: u8) -> CompStatusCode {
        self.control.status(comp)
    }

    /// Whether the fault armed in this step fires at `at`.
    fn faulted(&mut self, at: Phase) -> bool {
        let fired = self.armed.take_if(|armed| *armed == at).is_some();
        if fired {
            self.untrusted = Some(at.guards());
        }
        fired
    }

    /// A phase runs, or a requester is answered after `phase`.
    fn ran(&mut self, phase: Phase) {
        if self.untrusted == Some(phase) {
            self.violations.push(match phase {
                Phase::Reconcile => "a requester was answered after its reconciliation faulted",
                _ => "a recovery phase ran on inputs that failed their check",
            });
        }
    }

    /// The steps the environment can take here.
    fn steps(&self) -> Vec<Step> {
        let mut events = Vec::new();
        if self.control.shutdown.is_some() {
            return Vec::new();
        }
        let conduct_in_flight = self.control.recovering.is_some();
        let rs_serves = self.status(RS) == CompStatusCode::Alive && !self.inbox.is_empty();
        if rs_serves {
            let ladder = [Ladder::Restart, Ladder::Quarantine, Ladder::Shutdown];
            events.extend(ladder.map(Event::Serve));
        }
        for comp in (0..COMPS as u8).filter(|&c| self.status(c) == CompStatusCode::Hung) {
            if comp != RS && !conduct_in_flight {
                events.push(Event::Verdict(comp));
            }
            if comp != RS && self.status(RS) == CompStatusCode::Alive {
                events.push(Event::Kill(comp));
            }
        }
        if rs_serves {
            for site in [
                "rs.recover.notify",
                "rs.recover.account",
                "rs.recover.issued",
            ] {
                for hang in [false, true] {
                    events.push(Event::RsFault { site, hang });
                }
            }
        }
        for comp in 0..COMPS as u8 {
            if self.status(comp) == CompStatusCode::Alive && (!conduct_in_flight || comp == RS) {
                for (hang, open) in [(false, true), (false, false), (true, true), (true, false)] {
                    events.push(Event::Fault { comp, hang, open });
                }
            }
        }
        let phase_faults = [
            None,
            Some(Phase::Journal),
            Some(Phase::Rollback),
            Some(Phase::Image),
            Some(Phase::Restart),
            Some(Phase::Reconcile),
        ];
        let step = |event| phase_faults.map(|phase_fault| Step { event, phase_fault });
        events.into_iter().flat_map(step).collect()
    }

    fn take(&mut self, step: Step) {
        self.armed = step.phase_fault;
        match step.event {
            Event::Fault { comp, hang, open } => {
                let request = SeepMeta::request(SeepClass::StateModifying);
                self.fault(comp, request, hang, open)
            }
            Event::RsFault { site, hang } => {
                self.inbox.remove(0);
                // Past `rs.recover.issued` the RS has published the intent
                // to DS, a state-modifying send that closed its window.
                // The RS runs the conduct on a crash notification, which no
                // error reply can answer.
                let notify = SeepMeta::notification(SeepClass::NonStateModifying);
                self.fault(RS, notify, hang, site != "rs.recover.issued");
            }
            Event::Serve(ladder) => {
                let target = self.inbox.remove(0);
                match ladder {
                    Ladder::Restart => {
                        self.seal(AxiomEvent::IntentRecorded {
                            comp: target,
                            phase: IntentPhaseCode::Issued,
                        });
                        self.recover(target);
                    }
                    Ladder::Quarantine => self.quarantine(target),
                    Ladder::Shutdown => self.shut_down(self.control.recovering, String::new()),
                }
            }
            Event::Verdict(comp) => self.declare_dead(comp),
            Event::Kill(comp) => self.kill_hung(comp),
        }
        self.armed = None;
    }

    /// `comp`'s handler unwinds on a message engraved `seep`: `open`, its
    /// window was open and it had not replied. The facts are the kernel's.
    fn fault(&mut self, comp: u8, seep: SeepMeta, hang: bool, open: bool) {
        let ctx = CrashContext::handler_fault(&seep, open, !open);
        self.capture(comp, (), ctx, hang);
    }
}

impl Host for Machine {
    type Msg = ();

    fn control(&self) -> &ControlState {
        &self.control
    }

    fn rs(&self) -> Option<u8> {
        Some(RS)
    }

    fn policy(&self) -> &dyn RecoveryPolicy {
        &Enhanced
    }

    fn name(&self, _: u8) -> &'static str {
        ""
    }

    fn pending(&mut self, comp: u8) -> &mut Option<PendingCrash<()>> {
        &mut self.pending[comp as usize]
    }

    fn seal(&mut self, event: AxiomEvent) {
        self.control.apply(0, &event);
    }

    fn stamp(&mut self) {}

    fn emit(&mut self, _: u8, _: TraceEvent) {}

    fn new_epoch(&mut self) {}

    fn notify_rs(&mut self, comp: u8) {
        self.inbox.push(comp);
    }

    fn rs_queued(&self, _: u8, comp: u8) -> bool {
        self.inbox.contains(&comp)
    }

    fn replayed(&mut self, _: bool) {}

    fn verify(&mut self, _: u8, image: bool) -> bool {
        !self.faulted([Phase::Journal, Phase::Image][usize::from(image)])
    }

    fn phase_faulted(&mut self, site: &'static str) -> bool {
        let phase = match site {
            "kernel.recovery.rollback" => Phase::Rollback,
            "kernel.recovery.restart" => Phase::Restart,
            _ => Phase::Reconcile,
        };
        self.faulted(phase)
    }

    fn roll_back(&mut self, _: u8) -> u64 {
        self.ran(Phase::Rollback);
        0
    }

    fn restore(&mut self, _: u8) -> Option<u64> {
        self.ran(Phase::Restart);
        Some(0)
    }

    fn keep_state(&mut self, _: u8, _: bool) -> u64 {
        0
    }

    fn charge_recovery(&mut self, _: u8, cycles: u64) -> u64 {
        cycles
    }

    fn crash_reply(&mut self, _: u8, _: ()) {
        self.ran(Phase::Reconcile);
    }

    fn shutdown_reply(&mut self, _: u8, msg: ()) -> Option<()> {
        Some(msg)
    }

    fn kill_requester(&mut self, _: &()) {
        self.ran(Phase::Reconcile);
    }

    fn watched(&self, _: &()) -> bool {
        false
    }

    fn bench(&mut self, _: u8) {}

    fn take_request(&mut self, _: u8) -> Option<()> {
        None
    }

    fn begin_shutdown(&mut self, _: String) -> bool {
        if self.control.shutdown.is_none() {
            self.seal(AxiomEvent::ShutdownDecision { controlled: true });
        }
        false
    }

    fn crash_shutdown(&mut self, _: String) {
        self.seal(AxiomEvent::ShutdownDecision { controlled: false });
    }

    fn decide(&self, input: Input) -> Effect {
        if let Input::Crash(comp) = input {
            let foreign = comp != RS && self.control.recovering.is_some();
            self.foreign_crash.set(self.foreign_crash.get() | foreign);
        }
        conduct(&self.control, Some(RS), input)
    }
}

impl Model for Machine {
    type Key = Key;
    type Step = Step;
    const WEDGE: &'static str = "wedge: no fault-free progress reaches a settled machine";

    fn boot() -> Key {
        Key {
            statuses: [CompStatusCode::Alive; COMPS],
            intents: [IntentSlot::default(); COMPS],
            recovering: None,
            shutdown: None,
            pending: [None; COMPS],
            inbox: Vec::new(),
        }
    }

    fn steps(key: &Key) -> Vec<Step> {
        Machine::from_key(key).steps()
    }

    fn apply(key: &Key, step: Step) -> (Key, Vec<&'static str>, u32) {
        let mut m = Machine::from_key(key);
        m.take(step);
        let next = m.key();
        let mut found = next.violations(key, m.foreign_crash.get());
        found.append(&mut m.violations);
        (next, found, 0)
    }

    /// The RS serving, a hang being detected.
    fn progress(step: &Step) -> bool {
        step.phase_fault.is_none()
            && matches!(
                step.event,
                Event::Serve(_) | Event::Verdict(_) | Event::Kill(_)
            )
    }

    fn good(key: &Key) -> bool {
        key.shutdown.is_some() || key.settled()
    }
}

impl Key {
    fn settled(&self) -> bool {
        self.recovering.is_none()
            && self.inbox.is_empty()
            && (0..COMPS).all(|c| {
                matches!(
                    self.statuses[c],
                    CompStatusCode::Alive | CompStatusCode::Quarantined
                ) || (c == RS as usize && self.statuses[c] == CompStatusCode::Hung)
            })
    }

    /// The properties that hold of a single state (and its predecessor).
    fn violations(&self, parent: &Key, foreign_crash: bool) -> Vec<&'static str> {
        let mut out = Vec::new();
        let mut named: Vec<u8> = self.inbox.clone();
        named.extend(self.recovering);
        named.extend((0..COMPS as u8).filter(|&c| self.intents[c as usize].active));
        named.sort_unstable();
        named.dedup();
        if named.len() > 1 {
            out.push("more than one conduct in flight");
        }
        let quarantined = |k: &Key, c: usize| k.statuses[c] == CompStatusCode::Quarantined;
        if (0..COMPS).any(|c| quarantined(parent, c) && !quarantined(self, c)) {
            out.push("a quarantined component left quarantine");
        }
        if self.shutdown.is_none() && self.settled() && self.intents.iter().any(|s| s.active) {
            out.push("a settled machine holds an unresolved intent");
        }
        if foreign_crash {
            out.push("another component's crash reached the conduct mid-conduct");
        }
        out
    }
}

#[test]
fn the_conduct_never_wedges_and_keeps_its_invariants() {
    let g = support::search::<Machine>(DEPTH, MAX_STATES);
    g.assert_closed("conduct_search");
    // The search reaches the paths it is meant to cover.
    let reached = |pred: &dyn Fn(&Key) -> bool| g.keys.iter().any(pred);
    assert!(reached(&|k| k.intents.iter().any(|s| s.replays >= 2)));
    assert!(reached(&|k| k
        .statuses
        .contains(&CompStatusCode::Quarantined)));
    assert!(reached(&|k| k.shutdown == Some(true)));
}

/// Each rung of the fallback chain gives up strictly more state than the
/// one before, and the chain ends in a controlled shutdown.
#[test]
fn the_fallback_chain_ends_in_a_controlled_shutdown() {
    let state = ControlState::new();
    let chain = |mut action: ActionCode| {
        let mut rungs = vec![action];
        while let Effect::Fallback(to) = conduct(&state, Some(RS), Input::Failed(action)) {
            action = to;
            rungs.push(action);
        }
        rungs
    };
    use ActionCode::{ControlledShutdown, FreshRestart, RollbackErrorReply, UncontrolledCrash};
    assert_eq!(
        chain(RollbackErrorReply),
        [RollbackErrorReply, FreshRestart, ControlledShutdown]
    );
    // The RS crashed mid-conduct: the policy refuses it, the intents make
    // its conduct re-drivable, so it restarts fresh.
    assert_eq!(
        chain(UncontrolledCrash),
        [UncontrolledCrash, FreshRestart, ControlledShutdown]
    );
    assert_eq!(
        conduct(&state, Some(RS), Input::ReconcileFailed),
        Effect::Fallback(ControlledShutdown)
    );
}

/// A toy model for the harness itself: from boot, step 1 reaches a good
/// state and step 2 a dead end, which no step leaves.
struct DeadEnd;

impl Model for DeadEnd {
    type Key = u8;
    type Step = u8;
    const WEDGE: &'static str = "wedge: a dead end";

    fn boot() -> u8 {
        0
    }

    fn steps(_: &u8) -> Vec<u8> {
        vec![1, 2]
    }

    fn apply(key: &u8, step: u8) -> (u8, Vec<&'static str>, u32) {
        (step.max(*key), Vec::new(), 0)
    }

    fn progress(_: &u8) -> bool {
        true
    }

    fn good(key: &u8) -> bool {
        *key == 1
    }
}

/// The harness reports a dead end as a wedge, with its shortest witness.
#[test]
fn the_harness_reports_a_dead_end_as_a_wedge() {
    let g = support::search::<DeadEnd>(4, 16);
    assert_eq!(g.keys.len(), 3);
    assert_eq!(g.violations, [(DeadEnd::WEDGE, vec![2])]);
}
