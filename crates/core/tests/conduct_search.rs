//! Exhaustive breadth-first search over the recovery conduct.
//!
//! The machine is modelled at the grain the conduct sees. Its state is the
//! real control-state fold (`ControlState::apply`), each component's pending
//! crash and the crash notifications queued to the Recovery Server; its
//! decisions are the real `osiris_core::conduct`. What the kernel does with
//! an effect is mirrored from `kernel/recovery.rs` (the same events, sealed
//! in the same order) under the enhanced policy, with a zero shutdown grace.
//!
//! Each step is one input: a crash or hang of a schedulable component (only
//! the RS while a conduct is in flight), an RS crash or hang at one of its
//! conduct sites, the RS serving a notification with a ladder step, or a
//! watchdog verdict or heartbeat kill of a hung component. A step may arm
//! one fault in the rollback, restart or reconcile phase of the recoveries
//! it triggers. The search runs to closure, so every reachable state is
//! checked (it fails if the space has not closed within `DEPTH` inputs and
//! `MAX_STATES` states):
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
//!   the conduct.
//!
//! The visited set is keyed on the conduct-relevant projection of the
//! control state (statuses, intent slots, `recovering`, `shutdown`) plus the
//! pending crashes and the RS's queue, never on the monotone counters.

use std::collections::{HashMap, VecDeque};

use osiris_axiom::{AxiomEvent, CompStatusCode, ControlState, IntentPhaseCode, IntentSlot};
use osiris_core::{conduct, ActionCode, Effect, Input};

const COMPS: usize = 6;
const RS: u8 = 0;
const DEPTH: usize = 24;
const MAX_STATES: usize = 200_000;

/// A component's unrecovered crash, as the kernel froze it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Pending {
    /// A conduct was in flight when it failed: the policy refuses it.
    in_conduct: bool,
    /// The window was open and a reply possible: the policy rolls back,
    /// else it shuts down.
    open: bool,
}

/// A recovery phase a step may arm a fault in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Rollback,
    Restart,
    Reconcile,
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

impl Step {
    /// Fault-free progress: the RS serving, a hang being detected.
    fn progress(&self) -> bool {
        self.phase_fault.is_none()
            && matches!(
                self.event,
                Event::Serve(_) | Event::Verdict(_) | Event::Kill(_)
            )
    }
}

/// The visited-set key, from which a [`Machine`] is rebuilt.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Key {
    statuses: [CompStatusCode; COMPS],
    intents: [IntentSlot; COMPS],
    recovering: Option<u8>,
    shutdown: Option<bool>,
    pending: [Option<Pending>; COMPS],
    inbox: Vec<u8>,
}

struct Machine {
    control: ControlState,
    pending: [Option<Pending>; COMPS],
    inbox: Vec<u8>,
    armed: Option<Phase>,
    /// A crash of a component other than the RS reached the conduct while
    /// a conduct was in flight.
    foreign_crash: bool,
}

impl Machine {
    fn boot() -> Key {
        let mut control = ControlState::new();
        let genesis = AxiomEvent::Genesis {
            comps: COMPS as u8,
            config_digest: 0,
        };
        control.apply(0, &genesis);
        Machine::with(control, [None; COMPS], Vec::new()).key()
    }

    fn with(control: ControlState, pending: [Option<Pending>; COMPS], inbox: Vec<u8>) -> Machine {
        Machine {
            control,
            pending,
            inbox,
            armed: None,
            foreign_crash: false,
        }
    }

    fn from_key(k: &Key) -> Machine {
        let mut control = ControlState::new();
        control.comps = COMPS as u8;
        control.statuses[..COMPS].copy_from_slice(&k.statuses);
        control.intents[..COMPS].copy_from_slice(&k.intents);
        control.recovering = k.recovering;
        control.shutdown = k.shutdown;
        Machine::with(control, k.pending, k.inbox.clone())
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

    fn seal(&mut self, event: AxiomEvent) {
        self.control.apply(0, &event);
    }

    fn decide(&mut self, input: Input) -> Effect {
        if let Input::Crash(comp) = input {
            self.foreign_crash |= comp != RS && self.control.recovering.is_some();
        }
        conduct(&self.control, Some(RS), input)
    }

    fn phase_faulted(&mut self, phase: Phase) -> bool {
        let hit = self.armed == Some(phase);
        if hit {
            self.armed = None;
        }
        hit
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
            for ladder in [Ladder::Restart, Ladder::Quarantine, Ladder::Shutdown] {
                events.push(Event::Serve(ladder));
            }
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
            Some(Phase::Rollback),
            Some(Phase::Restart),
            Some(Phase::Reconcile),
        ];
        let mut steps = Vec::new();
        for event in events {
            for phase_fault in phase_faults {
                steps.push(Step { event, phase_fault });
            }
        }
        steps
    }

    fn apply(&mut self, step: Step) {
        self.armed = step.phase_fault;
        match step.event {
            Event::Fault { comp, hang, open } => self.capture(comp, hang, open),
            Event::RsFault { site, hang } => {
                self.inbox.remove(0);
                // Past `rs.recover.issued` the RS has published the intent
                // to DS, a state-modifying send that closed its window.
                self.capture(RS, hang, site != "rs.recover.issued");
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
                    Ladder::Quarantine => {
                        self.pending[target as usize] = None;
                        self.seal(AxiomEvent::Quarantined { comp: target });
                    }
                    Ladder::Shutdown => self.shut_down(self.control.recovering),
                }
            }
            Event::Verdict(comp) => self.declare_dead(comp),
            Event::Kill(comp) => {
                self.seal(AxiomEvent::Crash { comp });
                self.recover(comp);
            }
        }
        self.armed = None;
    }

    /// `Kernel::capture_fault`.
    fn capture(&mut self, comp: u8, hang: bool, open: bool) {
        let input = if hang {
            self.seal(AxiomEvent::HangDetected { comp });
            Input::Hang(comp)
        } else {
            self.seal(AxiomEvent::Crash { comp });
            Input::Crash(comp)
        };
        let in_conduct = self.control.recovering.is_some();
        self.pending[comp as usize] = Some(Pending { in_conduct, open });
        let effect = self.decide(input);
        self.execute(effect);
    }

    /// `Kernel::declare_dead`.
    fn declare_dead(&mut self, comp: u8) {
        self.seal(AxiomEvent::Crash { comp });
        let effect = self.decide(Input::Crash(comp));
        self.execute(effect);
    }

    /// `Kernel::execute`.
    fn execute(&mut self, effect: Effect) {
        match effect {
            Effect::RestartHungRs(comp) => {
                self.restart_rs();
                let effect = self.decide(Input::Crash(comp));
                self.execute(effect);
            }
            Effect::Notify(comp) => {
                self.seal(AxiomEvent::IntentRecorded {
                    comp,
                    phase: IntentPhaseCode::Notified,
                });
                self.inbox.push(comp);
            }
            Effect::Recover(comp) => self.recover(comp),
            Effect::RestartRs => {
                self.restart_rs();
                let intents: Vec<u8> = self.control.active_intents().collect();
                for comp in intents {
                    let queued = self.inbox.contains(&comp);
                    let effect = self.decide(Input::Replay { comp, queued });
                    self.execute(effect);
                }
            }
            Effect::Resolve(comp) => self.resolve(comp),
            Effect::Redrive(comp) => {
                self.seal(AxiomEvent::IntentReplayed { comp });
                self.inbox.push(comp);
            }
            Effect::Complete(comp) => {
                self.seal(AxiomEvent::IntentReplayed { comp });
                self.recover(comp);
            }
            Effect::Wait | Effect::Fallback(_) => {}
        }
    }

    /// `Kernel::restart_rs`.
    fn restart_rs(&mut self) {
        if self.status(RS) == CompStatusCode::Hung {
            self.seal(AxiomEvent::Crash { comp: RS });
        }
        self.recover(RS);
    }

    /// `Kernel::resolve_intent`.
    fn resolve(&mut self, comp: u8) {
        if self.control.intent(comp).active {
            self.seal(AxiomEvent::IntentResolved { comp });
        }
    }

    /// `Kernel::fall_back`.
    fn fall_back(&mut self, comp: u8, from: ActionCode, reconcile: bool) -> ActionCode {
        let input = if reconcile {
            Input::ReconcileFailed
        } else {
            Input::Failed(from)
        };
        let Effect::Fallback(to) = self.decide(input) else {
            return from;
        };
        self.seal(AxiomEvent::RecoveryFallback { comp, from, to });
        to
    }

    /// `Kernel::shut_down`.
    fn shut_down(&mut self, target: Option<u8>) {
        if let Some(t) = target {
            self.resolve(t);
            self.pending[t as usize] = None;
        }
        if self.control.shutdown.is_none() {
            self.seal(AxiomEvent::ShutdownDecision { controlled: true });
        }
    }

    /// `Kernel::execute_recovery` under the enhanced policy.
    fn recover(&mut self, comp: u8) {
        let Some(p) = self.pending[comp as usize].take() else {
            let effect = self.decide(Input::Recovered(comp));
            self.execute(effect);
            return;
        };
        let mut action = match p {
            Pending {
                in_conduct: true, ..
            } => ActionCode::UncontrolledCrash,
            Pending { open: true, .. } => ActionCode::RollbackErrorReply,
            Pending { open: false, .. } => ActionCode::ControlledShutdown,
        };
        self.seal(AxiomEvent::RecoveryDecision { comp, action });
        if action == ActionCode::UncontrolledCrash && p.in_conduct {
            action = self.fall_back(comp, action, false);
        }
        loop {
            let phase = match action {
                ActionCode::RollbackErrorReply => Phase::Rollback,
                ActionCode::FreshRestart => Phase::Restart,
                ActionCode::ControlledShutdown => {
                    self.pending[comp as usize] = Some(p);
                    self.shut_down(Some(comp));
                    return;
                }
                _ => {
                    self.seal(AxiomEvent::ShutdownDecision { controlled: false });
                    return;
                }
            };
            if !self.phase_faulted(phase) {
                break;
            }
            action = self.fall_back(comp, action, false);
        }
        self.seal(AxiomEvent::RecoveryDone { comp, cycles: 0 });
        let effect = self.decide(Input::Recovered(comp));
        self.execute(effect);
        if self.phase_faulted(Phase::Reconcile) {
            self.fall_back(comp, action, true);
            self.pending[comp as usize] = Some(p);
            self.shut_down(Some(comp));
        }
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

    fn good(&self) -> bool {
        self.shutdown.is_some() || self.settled()
    }

    /// The properties that hold of a single state (and its predecessor).
    fn violations(&self, parent: Option<&Key>, foreign_crash: bool) -> Vec<&'static str> {
        let mut out = Vec::new();
        let mut named: Vec<u8> = self.inbox.clone();
        named.extend(self.recovering);
        named.extend((0..COMPS as u8).filter(|&c| self.intents[c as usize].active));
        named.sort_unstable();
        named.dedup();
        if named.len() > 1 {
            out.push("more than one conduct in flight");
        }
        if parent.is_some_and(|p| {
            (0..COMPS).any(|c| {
                p.statuses[c] == CompStatusCode::Quarantined
                    && self.statuses[c] != CompStatusCode::Quarantined
            })
        }) {
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

/// The explored graph: every node's key, its BFS parent and the step from
/// it, its distance from boot, and its fault-free successors once expanded.
#[derive(Default)]
struct Graph {
    keys: Vec<Key>,
    parent: Vec<Option<(usize, Step)>>,
    depth: Vec<usize>,
    progress: Vec<Option<Vec<usize>>>,
    ids: HashMap<Key, usize>,
}

impl Graph {
    fn node(&mut self, key: Key, parent: Option<(usize, Step)>) -> (usize, bool) {
        if let Some(&id) = self.ids.get(&key) {
            return (id, false);
        }
        let id = self.keys.len();
        let depth = parent.map_or(0, |(p, _)| self.depth[p] + 1);
        self.ids.insert(key.clone(), id);
        self.keys.push(key);
        self.parent.push(parent);
        self.depth.push(depth);
        self.progress.push(None);
        (id, true)
    }

    /// The inputs that lead from boot to node `id`.
    fn path(&self, mut id: usize) -> Vec<Step> {
        let mut steps = Vec::new();
        while let Some((parent, step)) = self.parent[id] {
            steps.push(step);
            id = parent;
        }
        steps.reverse();
        steps
    }
}

/// Searches the conduct: returns the graph and every violation found, each
/// with the shortest input sequence that exhibits it.
fn search() -> (Graph, Vec<(&'static str, Vec<Step>)>) {
    let mut g = Graph::default();
    let mut violations: Vec<(&'static str, Vec<Step>)> = Vec::new();
    let mut report = |g: &Graph, what: &'static str, id: usize| {
        if !violations.iter().any(|(w, _)| *w == what) {
            violations.push((what, g.path(id)));
        }
    };
    let (root, _) = g.node(Machine::boot(), None);
    let mut queue = VecDeque::from([root]);
    while let Some(id) = queue.pop_front() {
        if g.depth[id] == DEPTH || g.keys.len() > MAX_STATES {
            continue;
        }
        let key = g.keys[id].clone();
        let mut progress = Vec::new();
        for step in Machine::from_key(&key).steps() {
            let mut m = Machine::from_key(&key);
            m.apply(step);
            let next = m.key();
            let found = next.violations(Some(&key), m.foreign_crash);
            let (nid, new) = g.node(next, Some((id, step)));
            for what in found {
                report(&g, what, nid);
            }
            if step.progress() {
                progress.push(nid);
            }
            if new {
                queue.push_back(nid);
            }
        }
        g.progress[id] = Some(progress);
    }
    // No wedge: a good node is reachable along progress edges.
    let mut reaches_good: Vec<bool> = g.keys.iter().map(Key::good).collect();
    loop {
        let mut changed = false;
        for id in 0..g.keys.len() {
            let next = g.progress[id].iter().flatten();
            if !reaches_good[id] && next.copied().any(|n| reaches_good[n]) {
                reaches_good[id] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let expanded = |id: &usize| g.progress[*id].is_some();
    if let Some(id) = (0..g.keys.len())
        .filter(expanded)
        .find(|&id| !reaches_good[id])
    {
        let what = "wedge: no fault-free progress reaches a settled machine";
        report(&g, what, id);
    }
    (g, violations)
}

#[test]
fn the_conduct_never_wedges_and_keeps_its_invariants() {
    let (g, violations) = search();
    let deepest = g.depth.iter().copied().max().unwrap_or(0);
    println!(
        "conduct_search: {} states, every one within {deepest} inputs of boot, {} violations",
        g.keys.len(),
        violations.len()
    );
    for (what, path) in &violations {
        println!("  {what}, after {} inputs:", path.len());
        for step in path {
            println!("    {step:?}");
        }
    }
    assert!(violations.is_empty(), "{} violations", violations.len());
    assert!(
        deepest < DEPTH && g.keys.len() <= MAX_STATES,
        "the state space did not close within {DEPTH} inputs and {MAX_STATES} states"
    );
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
