//! Exhaustive breadth-first search over the watchdog.
//!
//! The machine is modelled at the grain the watchdog sees: a client
//! process sends up to `REQS` requests, each state-modifying or not, to a
//! server (`SERVERS`). The kernel's slot table is the real `Table`, shrunk
//! to `SLOTS` slots so that a full table is reachable, and every decision
//! is the real `Table::step`. Two requests over one slot close in about
//! 90,000 states; three over two slots, or a second server, do not close
//! within this test's time budget. The kernel's entry points (reply
//! routing, handler return, service point, crash reply), the execution of
//! each effect, and the recovery plane behind them (crash capture, the
//! conduct, the recovery phases, the quarantine and its bounce) are its
//! own: `watchdog::Host`'s and `conduct::Host`'s provided methods, run on
//! a [`Machine`] that supplies the effects, under the enhanced policy with
//! a live Recovery Server: a crash before the handler replied is rolled
//! back and answered with `E_CRASH`, one after it replied, or on the
//! internal reply that completes a deferred request, shuts the machine
//! down (the crash facts are `CrashContext::handler_fault`'s, as in the
//! kernel), and a quiescent restart keeps the heap.
//!
//! Each step is one input: the client sends a request; the server handles
//! its next request, replying (intact, dropped or corrupt) or not, and then
//! returns, crashes or hangs; it completes a request it deferred, the same
//! ways; the virtual clock advances to the next deadline, probe or parked
//! retry; another component runs, which makes a service point; the RS
//! recovers or quarantines the component in recovery, or kills a hung one;
//! another component's recovery bumps the epoch. A handler that returned
//! without replying owes its reply, and the clock does not advance past it
//! while its server is alive: the deadlines are sized above the worst
//! fault-free chain. A slow server is one whose queue waits while the clock
//! advances.
//!
//! The search runs to closure (it fails if the space has not closed within
//! `DEPTH` inputs and `MAX_STATES` states) and checks:
//!
//! - conservation: every request is answered at most once, by a reply or
//!   an `E_CRASH`, and at most one copy of it is live (queued, pending,
//!   owed, held by the kernel or parked): no retry delivers it twice;
//! - no wedge: fault-free progress reaches a machine where every watched
//!   request was answered, or a shutdown. A request that found no free
//!   slot, or that the watchdog stopped watching, is the RS heartbeat's;
//! - a state-modifying request is re-driven only after the recovery epoch
//!   advanced past its arming;
//! - the slots watch distinct requests in flight, the kernel holds a
//!   request only in its own captured slot, and a request that finds no
//!   free slot gets `Full` from a full table, never a silent `Wait`;
//! - a hung component gets its verdict within `DEADLINE_STATE_MODIFYING +
//!   MAX_PROBES × PROBE_PERIOD` of its hang, or of the arming of a request
//!   that found it hung;
//! - a quiescent component (the sender of a rejected reply) is restarted
//!   keeping its state, never by shutting the machine down;
//! - every path of the step below is taken, the quiescent restart too
//!   ([`Path`]).
//!
//! The visited set is keyed on the whole model state, with virtual times
//! taken relative to the clock and epochs relative to the current one.

mod support;

use osiris_axiom::{AxiomEvent, CompStatusCode, ControlState, IntentSlot, VerdictCode};
use osiris_core::conduct::{self, Host as _, PendingCrash};
use osiris_core::watchdog::{Effect, Host, Input, Slot, Table, WdState};
use osiris_core::{CrashContext, Enhanced, RecoveryPolicy};
use osiris_core::{SeepClass, SeepMeta, WatchdogConfig};
use osiris_trace::TraceEvent;
use support::Model;

const SLOTS: usize = 1;
const REQS: usize = 2;
/// An internal message: no request of the client's, so no slot watches it.
const INTERNAL: usize = REQS;
/// How the internal message a deferred completion runs on is engraved: a
/// reply (the disk's, to a parked read), which no error reply can answer.
fn internal_seep() -> SeepMeta {
    SeepMeta::reply(SeepClass::StateModifying)
}
/// The placeholder a quiescent restart carries.
const CARRIER: usize = REQS + 1;
/// The Recovery Server's endpoint.
const RS: u8 = 0;
const N: usize = 1;
const SERVERS: [u8; N] = [1];
const DEPTH: usize = 64;
const MAX_STATES: usize = 400_000;
/// Where the normalised clock stands.
const T0: u64 = 1 << 40;
/// Where the normalised epoch stands.
const E0: u64 = 8;
const BOUND: u64 = WatchdogConfig::DEADLINE_STATE_MODIFYING
    + WatchdogConfig::MAX_PROBES as u64 * WatchdogConfig::PROBE_PERIOD;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Tamper {
    Intact,
    Drop,
    Corrupt,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Fault {
    Crash,
    Hang,
}

/// Where a request is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum At {
    Unsent,
    /// In its server's inbox.
    Queued,
    /// Its server faulted handling it.
    Pending,
    /// Handled without a reply: its server owes one.
    Owed,
    /// Its server replied; the reply was lost or rejected.
    Sent,
    /// A granted retry waits until `due`.
    Parked {
        due: u64,
    },
    /// Answered.
    Done,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Req {
    at: At,
    dst: u8,
    state_modifying: bool,
    /// Retries granted so far: the attempt its next arming carries.
    attempt: u8,
    /// The recovery epoch when its current delivery was armed.
    epoch_armed: u64,
    /// Whether its current delivery found a slot.
    watched: bool,
    answers: u8,
}

impl Req {
    fn class(&self) -> SeepClass {
        if self.state_modifying {
            SeepClass::StateModifying
        } else {
            SeepClass::NonStateModifying
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Event {
    Send {
        dst: u8,
        state_modifying: bool,
    },
    /// `server` handles its next request.
    Deliver {
        server: u8,
        reply: Option<Tamper>,
        fault: Option<Fault>,
    },
    /// `server` completes the deferred request `req`.
    Complete {
        req: usize,
        reply: Tamper,
        fault: Option<Fault>,
    },
    Advance,
    /// A service point: another component runs, at the same time.
    Service,
    Recover {
        quarantine: bool,
    },
    Kill(u8),
    Bump,
}

/// The visited-set key: the whole model state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Key {
    /// The slots, each with the request the kernel holds for it.
    table: Table<usize>,
    reqs: [Req; REQS],
    inbox: [Vec<usize>; N],
    /// Each server's unrecovered crash: the request (or `INTERNAL`, or
    /// `CARRIER`) it faulted on.
    pending: [Option<PendingCrash<usize>>; N],
    /// When each hung server hung.
    hung_at: [u64; N],
    statuses: [CompStatusCode; N],
    intents: [IntentSlot; N],
    recovering: Option<u8>,
    shutdown: bool,
}

struct Machine {
    key: Key,
    control: ControlState,
    now: u64,
    epoch: u64,
    violations: Vec<&'static str>,
    /// The paths of the step this machine took, as [`Path`] bits.
    reached: u32,
}

/// The paths of the step the search must reach, one bit each.
struct Path;

impl Path {
    const FULL: u32 = 1 << 0;
    const SWEPT_REJECTED: u32 = 1 << 1;
    const HANDLED_DOOMED: u32 = 1 << 2;
    const HUNG_HOLDING: u32 = 1 << 3;
    const LOST_BENCHED: u32 = 1 << 4;
    const REDRIVEN_STATEFUL: u32 = 1 << 5;
    const EXHAUSTED: u32 = 1 << 6;
    const SLOW: u32 = 1 << 7;
    const RESTART: u32 = 1 << 8;
    const REJECTED: u32 = 1 << 9;
    const QUIESCENT: u32 = 1 << 10;
    const ALL: u32 = (1 << 11) - 1;
}

fn id(r: usize) -> u64 {
    r as u64 + 1
}

fn server(s: u8) -> usize {
    s as usize - 1
}

/// The occupied slots' states.
fn slots(table: &Table<usize>) -> impl Iterator<Item = &Slot> {
    table.slots.iter().filter_map(|s| s.0.as_ref())
}

impl Machine {
    fn from_key(key: &Key) -> Machine {
        let mut control = ControlState::new();
        control.comps = 3;
        for s in SERVERS {
            control.statuses[s as usize] = key.statuses[server(s)];
            control.intents[s as usize] = key.intents[server(s)];
        }
        control.recovering = key.recovering;
        control.shutdown = key.shutdown.then_some(true);
        Machine {
            key: key.clone(),
            control,
            now: T0,
            epoch: E0,
            violations: Vec::new(),
            reached: 0,
        }
    }

    /// The key, with times relative to the clock and epochs to the epoch.
    fn normalized(mut self) -> (Key, Vec<&'static str>, u32) {
        let (now, epoch) = (self.now, self.epoch);
        let time = |t: u64| (t + T0).saturating_sub(now).max(T0 - 1);
        // Only a state-modifying request's epoch is ever compared.
        let era = |e: u64, sm: bool| if e == epoch || !sm { E0 } else { E0 - 1 };
        let k = &mut self.key;
        for s in k.table.slots.iter_mut().filter_map(|s| s.0.as_mut()) {
            s.armed_at = T0 - (now - s.armed_at).min(BOUND + 1);
            s.deadline = time(s.deadline);
            s.epoch_at_arm = era(s.epoch_at_arm, s.state_modifying);
            if let WdState::Probing { until, .. } = &mut s.state {
                *until = time(*until);
            }
        }
        if k.table.next_due <= now {
            k.table.next_due = 0;
        } else if k.table.next_due != u64::MAX {
            k.table.next_due = time(k.table.next_due);
        }
        for r in k.reqs.iter_mut() {
            r.epoch_armed = era(r.epoch_armed, r.state_modifying);
            if let At::Parked { due } = &mut r.at {
                *due = time(*due).max(T0);
            }
        }
        for s in SERVERS {
            let hung = self.control.status(s) == CompStatusCode::Hung;
            k.statuses[server(s)] = self.control.status(s);
            k.intents[server(s)] = self.control.intent(s);
            let age = (now - k.hung_at[server(s)]).min(BOUND + 1);
            k.hung_at[server(s)] = if hung { T0 - age } else { T0 };
        }
        k.recovering = self.control.recovering;
        k.shutdown = self.control.shutdown.is_some();
        (self.key, self.violations, self.reached)
    }

    fn violation(&mut self, what: &'static str) {
        self.violations.push(what);
    }

    fn status(&self, s: u8) -> CompStatusCode {
        self.control.status(s)
    }

    /// The steps the environment can take here.
    fn events(&self) -> Vec<Event> {
        let k = &self.key;
        let mut out = Vec::new();
        if k.shutdown {
            return out;
        }
        let recovering = k.recovering.is_some();
        if k.reqs.iter().any(|r| r.at == At::Unsent) {
            for dst in SERVERS {
                for state_modifying in [false, true] {
                    out.push(Event::Send {
                        dst,
                        state_modifying,
                    });
                }
            }
        }
        let tampers = [Tamper::Intact, Tamper::Drop, Tamper::Corrupt];
        let faults = [None, Some(Fault::Crash), Some(Fault::Hang)];
        for s in SERVERS {
            if recovering || self.status(s) != CompStatusCode::Alive {
                continue;
            }
            if !k.inbox[server(s)].is_empty() {
                for reply in [None].into_iter().chain(tampers.map(Some)) {
                    for fault in faults {
                        out.push(Event::Deliver {
                            server: s,
                            reply,
                            fault,
                        });
                    }
                }
            }
            for (req, r) in k.reqs.iter().enumerate() {
                if r.at == At::Owed && r.dst == s {
                    for reply in tampers {
                        for fault in faults {
                            out.push(Event::Complete { req, reply, fault });
                        }
                    }
                }
            }
        }
        let owed_alive = k
            .reqs
            .iter()
            .any(|r| r.at == At::Owed && self.status(r.dst) == CompStatusCode::Alive);
        if !recovering && !owed_alive && self.next_point().is_some() {
            out.push(Event::Advance);
        }
        out.push(Event::Service);
        if k.recovering.is_some() {
            out.push(Event::Recover { quarantine: false });
            out.push(Event::Recover { quarantine: true });
        } else {
            for s in SERVERS {
                if self.status(s) == CompStatusCode::Hung {
                    out.push(Event::Kill(s));
                }
            }
        }
        if slots(&k.table).any(|s| s.state_modifying) {
            out.push(Event::Bump);
        }
        out
    }

    /// The next virtual time anything falls due: a parked retry, or an
    /// armed deadline or probe after now.
    fn next_point(&self) -> Option<u64> {
        let retries = self.key.reqs.iter().filter_map(|r| match r.at {
            At::Parked { due } => Some(due.max(self.now)),
            _ => None,
        });
        let slots = slots(&self.key.table).filter_map(|s| match s.state {
            WdState::Armed => Some(s.deadline),
            WdState::Probing { until, .. } => Some(until),
            _ => None,
        });
        slots.filter(|&t| t > self.now).chain(retries).min()
    }

    fn take(&mut self, event: Event) {
        match event {
            Event::Send {
                dst,
                state_modifying,
            } => {
                let r = self
                    .key
                    .reqs
                    .iter()
                    .position(|r| r.at == At::Unsent)
                    .unwrap();
                let req = &mut self.key.reqs[r];
                (req.dst, req.state_modifying) = (dst, state_modifying);
                self.deliver_to(r);
            }
            Event::Deliver {
                server: s,
                reply,
                fault,
            } => {
                self.service();
                if !self.live(s) || self.key.inbox[server(s)].is_empty() {
                    return;
                }
                let r = self.key.inbox[server(s)].remove(0);
                if let Some(tamper) = reply {
                    self.key.reqs[r].at = At::Sent;
                    self.route_reply(r, tamper);
                }
                match fault {
                    None => {
                        if reply.is_none() {
                            self.key.reqs[r].at = At::Owed;
                        }
                        self.after_ok(id(r), r);
                    }
                    Some(fault) => {
                        // The reply closed the window (a state-modifying
                        // send), and with it the chance of an error reply.
                        let replied = reply.is_some();
                        if !replied {
                            self.key.reqs[r].at = At::Pending;
                        }
                        let seep = SeepMeta::request(self.key.reqs[r].class());
                        self.fault(s, r, seep, !replied, fault);
                    }
                }
            }
            Event::Complete { req, reply, fault } => {
                let s = self.key.reqs[req].dst;
                self.service();
                if !self.live(s) {
                    return;
                }
                self.key.reqs[req].at = At::Sent;
                self.route_reply(req, reply);
                match fault {
                    None => self.after_ok(id(INTERNAL), INTERNAL),
                    Some(fault) => self.fault(s, INTERNAL, internal_seep(), true, fault),
                }
            }
            Event::Advance => {
                let at = self.next_point().expect("advance has a target");
                self.now = at;
                let parked = (0..REQS).find(|&r| self.key.reqs[r].at == (At::Parked { due: at }));
                if let Some(r) = parked {
                    self.key.reqs[r].at = At::Unsent;
                    self.deliver_to(r);
                }
                self.service();
            }
            Event::Service => self.service(),
            Event::Recover { quarantine } => {
                let s = self.key.recovering.unwrap();
                let quiescent = self.key.pending[server(s)].is_some_and(|p| p.quiescent);
                if quarantine {
                    self.quarantine(s);
                    self.bounce();
                } else {
                    self.recover(s);
                }
                if quiescent && self.control.shutdown.is_some() {
                    self.violation("a quiescent restart shut the machine down");
                }
                self.service();
            }
            Event::Kill(s) => {
                self.kill_hung(s);
                self.service();
            }
            Event::Bump => self.epoch += 1,
        }
    }

    /// Whether `s` runs: alive, and no conduct or shutdown stalls it.
    fn live(&self, s: u8) -> bool {
        !self.halted() && self.status(s) == CompStatusCode::Alive
    }

    /// Queues request `r` to its server (`Kernel::send_user_request`, a
    /// retry's `fire_next_timer`), armed for its next attempt; a
    /// quarantined server bounces it.
    fn deliver_to(&mut self, r: usize) {
        let req = &mut self.key.reqs[r];
        let (dst, attempt) = (req.dst, req.attempt);
        req.at = At::Queued;
        req.epoch_armed = self.epoch;
        let class = req.class();
        let effect = self.watchdog(Input::Arm(id(r), dst, SeepMeta::request(class), attempt));
        let full = self.key.table.slots.iter().all(|s| s.0.is_some());
        self.key.reqs[r].watched = matches!(effect, Effect::Armed(_));
        match effect {
            Effect::Full if !full => self.violation("Full from a table with a free slot"),
            Effect::Armed(_) | Effect::Full => {}
            _ => self.violation("a watchable request was neither armed nor refused"),
        }
        self.key.inbox[server(dst)].push(r);
        if self.status(dst) == CompStatusCode::Quarantined {
            self.bounce();
        }
    }

    /// The client receives an answer to `r`.
    fn answer(&mut self, r: usize) {
        let req = &mut self.key.reqs[r];
        req.answers += 1;
        req.at = At::Done;
        if req.answers > 1 {
            self.violation("a request was answered twice");
        }
    }

    /// A handler's reply to `r`, tampered with or not, is routed.
    fn route_reply(&mut self, r: usize, tamper: Tamper) {
        if tamper == Tamper::Drop {
            return;
        }
        if !self.rejects_reply(Some(id(r)), || tamper == Tamper::Intact) {
            self.answer(r);
        }
    }

    /// Server `s`'s handler unwinds on `msg`, engraved `seep` (`open`: its
    /// window was open and it had not replied). The facts are the kernel's:
    /// only an unanswered request can be error-replied.
    fn fault(&mut self, s: u8, msg: usize, seep: SeepMeta, open: bool, fault: Fault) {
        let ctx = CrashContext {
            requester_is_process: true,
            ..CrashContext::handler_fault(&seep, open, !open)
        };
        self.capture(s, msg, ctx, fault == Fault::Hang);
        if fault == Fault::Hang {
            self.key.hung_at[server(s)] = self.now;
        }
    }

    /// How long ago server `s` hung, or a slot armed after that watched it.
    fn hang_age(&self, s: u8, armed_at: u64) -> u64 {
        self.now - self.key.hung_at[server(s)].max(armed_at)
    }

    /// The properties of one state.
    fn check(&mut self) {
        let k = &self.key;
        let mut out = Vec::new();
        for r in 0..REQS {
            let req = &k.reqs[r];
            let queued = k.inbox.iter().flatten().filter(|&&q| q == r).count();
            let pending = k.pending.iter().any(|p| p.is_some_and(|p| p.msg == r));
            let copies = queued
                + usize::from(pending)
                + usize::from(matches!(req.at, At::Owed | At::Parked { .. }))
                + k.table.slots.iter().filter(|s| s.1 == Some(r)).count()
                    * usize::from(req.at != At::Owed);
            if copies > 1 {
                out.push("a request is live twice");
            }
            let watched = slots(&k.table).filter(|s| s.msg_id == id(r));
            match watched.count() {
                0 => {}
                1 if !matches!(req.at, At::Unsent | At::Done | At::Parked { .. }) => {}
                1 => out.push("a slot watches a request not in flight"),
                _ => out.push("two slots watch one request"),
            }
        }
        for (slot, held) in &k.table.slots {
            let Some(r) = *held else { continue };
            if !slot.is_some_and(|s| s.msg_id == id(r) && s.captured) {
                out.push("the kernel holds a request outside its captured slot");
            }
        }
        if k.table.armed != slots(&k.table).count() {
            out.push("the armed count is off");
        }
        for s in slots(&k.table) {
            let live = matches!(s.state, WdState::Armed | WdState::Probing { .. });
            let hung = self.status(s.dst) == CompStatusCode::Hung;
            if live && hung && self.hang_age(s.dst, s.armed_at) > BOUND {
                out.push("a hung component went unjudged past its bound");
            }
        }
        self.violations.extend(out);
    }
}

impl conduct::Host for Machine {
    type Msg = usize;

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

    fn pending(&mut self, s: u8) -> &mut Option<PendingCrash<usize>> {
        &mut self.key.pending[server(s)]
    }

    fn seal(&mut self, event: AxiomEvent) {
        self.control.apply(self.now, &event);
    }

    fn stamp(&mut self) {}

    fn emit(&mut self, _: u8, _: TraceEvent) {}

    fn new_epoch(&mut self) {
        self.epoch += 1;
    }

    /// The RS serves the notification in a `Recover` step.
    fn notify_rs(&mut self, _: u8) {}

    fn rs_queued(&self, _: u8, _: u8) -> bool {
        false
    }

    fn replayed(&mut self, _: bool) {}

    fn verify(&mut self, _: u8, _: bool) -> bool {
        true
    }

    fn phase_faulted(&mut self, _: &'static str) -> bool {
        false
    }

    fn roll_back(&mut self, _: u8) -> u64 {
        0
    }

    fn restore(&mut self, _: u8) -> Option<u64> {
        Some(0)
    }

    fn keep_state(&mut self, _: u8, quiescent: bool) -> u64 {
        if quiescent {
            self.reached |= Path::QUIESCENT;
        }
        0
    }

    fn charge_recovery(&mut self, _: u8, cycles: u64) -> u64 {
        cycles
    }

    /// A client request is answered; the `E_CRASH` of an internal message
    /// goes to another component, outside the model.
    fn crash_reply(&mut self, _: u8, r: usize) {
        if r < REQS {
            if let Some(r) = self.fails(id(r), r) {
                self.answer(r);
            }
        }
    }

    fn shutdown_reply(&mut self, _: u8, r: usize) -> Option<usize> {
        Some(r)
    }

    fn kill_requester(&mut self, _: &usize) {
        self.violation("the enhanced policy killed a requester");
    }

    fn watched(&self, &r: &usize) -> bool {
        self.key.table.find(id(r)).is_some()
    }

    fn bench(&mut self, _: u8) {}

    /// Every message queued to a server is a client request.
    fn take_request(&mut self, s: u8) -> Option<usize> {
        let inbox = &mut self.key.inbox[server(s)];
        (!inbox.is_empty()).then(|| inbox.remove(0))
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
}

impl Host for Machine {
    fn table(&mut self) -> &mut Table<usize> {
        &mut self.key.table
    }

    /// Steps the real table, noting the paths it takes and checking what
    /// the effect is about to do.
    fn step(&mut self, input: Input) -> Effect {
        let state = |i: usize| self.key.table.slots[i].0.map(|s| s.state);
        self.reached |= match input {
            Input::Due(i) if state(i) == Some(WdState::Rejected) => Path::SWEPT_REJECTED,
            Input::Handled(i) if state(i) == Some(WdState::Doomed) => Path::HANDLED_DOOMED,
            _ => 0,
        };
        let effect = self
            .key
            .table
            .step(&self.control, self.now, self.epoch, input);
        let benched = |s: u8| self.control.status(s) == CompStatusCode::Quarantined;
        self.reached |= match effect {
            Effect::Full => Path::FULL,
            Effect::Hung(s, _) if s.captured => Path::HUNG_HOLDING,
            Effect::Lost(_, s) if benched(s.dst) => Path::LOST_BENCHED,
            Effect::Retry(_, s, Some(_), _) if s.state_modifying => Path::REDRIVEN_STATEFUL,
            Effect::Retry(_, _, None, true) => Path::EXHAUSTED,
            Effect::Verdict(_, VerdictCode::Slow) if !matches!(input, Input::Reply(..)) => {
                Path::SLOW
            }
            Effect::Verdict(_, VerdictCode::CorruptReply) => Path::REJECTED,
            Effect::Restart(_) => Path::RESTART,
            _ => 0,
        };
        match effect {
            // The watchdog stops watching a request still queued after every
            // probe round (or answered late, which settles it anyway).
            Effect::Verdict(s, VerdictCode::Slow) => {
                self.key.reqs[s.msg_id as usize - 1].watched = false;
            }
            Effect::Hung(s, _) if self.hang_age(s.dst, s.armed_at) > BOUND => {
                self.violation("a hang was judged past its bound");
            }
            Effect::Retry(i, ..) if self.key.table.slots[i].1.is_none() => {
                self.violation("a retry decision on a request the kernel does not hold");
            }
            _ => {}
        }
        effect
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn halted(&self) -> bool {
        self.control.shutdown.is_some() || self.control.recovering.is_some()
    }

    fn judged_hung(&mut self, _: u64) {}

    fn park(&mut self, _: u8, attempt: u8, backoff: u64, r: usize) {
        let rq = &mut self.key.reqs[r];
        if rq.state_modifying && self.epoch <= rq.epoch_armed {
            self.violations
                .push("a state-modifying request was re-driven in its epoch");
        }
        rq.attempt = attempt;
        rq.at = At::Parked {
            due: self.now + backoff,
        };
    }

    fn carrier(&mut self, _: u8) -> usize {
        CARRIER
    }
}

impl Model for Machine {
    type Key = Key;
    type Step = Event;
    const WEDGE: &'static str = "wedge: no fault-free progress answers every request";

    fn boot() -> Key {
        let req = Req {
            at: At::Unsent,
            dst: 0,
            state_modifying: false,
            attempt: 0,
            epoch_armed: E0,
            watched: false,
            answers: 0,
        };
        Key {
            table: Table::new(SLOTS),
            reqs: [req; REQS],
            inbox: std::array::from_fn(|_| Vec::new()),
            pending: [None; N],
            hung_at: [T0; N],
            statuses: [CompStatusCode::Alive; N],
            intents: [IntentSlot::default(); N],
            recovering: None,
            shutdown: false,
        }
    }

    fn steps(key: &Key) -> Vec<Event> {
        Machine::from_key(key).events()
    }

    fn apply(key: &Key, event: Event) -> (Key, Vec<&'static str>, u32) {
        let mut m = Machine::from_key(key);
        m.take(event);
        m.check();
        m.normalized()
    }

    fn progress(event: &Event) -> bool {
        match *event {
            Event::Deliver { reply, fault, .. } => {
                fault.is_none() && matches!(reply, None | Some(Tamper::Intact))
            }
            Event::Complete { reply, fault, .. } => fault.is_none() && reply == Tamper::Intact,
            Event::Recover { quarantine } => !quarantine,
            Event::Send { .. } | Event::Advance | Event::Service | Event::Kill(_) => true,
            Event::Bump => false,
        }
    }

    /// Every request was answered, or the machine shut down. An unwatched
    /// request whose handler ran is outside the watchdog's reach: its
    /// reply may be lost, or owed by a server benched for good.
    fn good(key: &Key) -> bool {
        let unwatched = |r: &Req| !r.watched && matches!(r.at, At::Sent | At::Owed);
        let settled = |r: &Req| r.at == At::Done || unwatched(r);
        key.shutdown || key.reqs.iter().all(settled)
    }
}

#[test]
fn the_watchdog_conserves_every_request() {
    let g = support::search::<Machine>(DEPTH, MAX_STATES);
    g.assert_closed("watchdog_search");
    let missed = Path::ALL & !g.reached;
    assert_eq!(missed, 0, "paths of the step never reached: {missed:#b}");
}
