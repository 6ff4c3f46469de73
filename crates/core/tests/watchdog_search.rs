//! Exhaustive breadth-first search over the watchdog.
//!
//! The machine is modelled at the grain the watchdog sees: a client
//! process sends up to `REQS` requests, each state-modifying or not, to a
//! server (`SERVERS`). The kernel's slot table is the real `Table`, shrunk
//! to `SLOTS` slots so that a full table is reachable, and every decision
//! is the real `Table::step`. Two requests over one slot close in about
//! 90,000 states; three over two slots, or a second server, do not close
//! within this test's time budget. The kernel's entry points (reply
//! routing, handler return, service point, crash reply) are its own:
//! `watchdog::Host`'s provided methods, run on a [`Machine`], and so is the
//! quarantine's answer rule. What the kernel does with an effect, and its
//! crash capture, recovery and bounce, stay a model of `kernel/watchdog.rs`
//! and `kernel/recovery.rs`, under the enhanced policy's real
//! `decide_recovery` with a live Recovery Server: a crash before the handler
//! replied is rolled back and answered with `E_CRASH`, one after it replied
//! shuts the machine down.
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
//! - every path of the step below is taken ([`Path`]).
//!
//! The visited set is keyed on the whole model state, with virtual times
//! taken relative to the clock and epochs relative to the current one.

mod support;

use osiris_axiom::{CompStatusCode, ControlState, VerdictCode};
use osiris_core::watchdog::{quarantine_answers, Effect, Host, Input, Slot, Table, WdState};
use osiris_core::{decide_recovery, system_survives, CrashContext, Enhanced};
use osiris_core::{SeepClass, SeepMeta, WatchdogConfig};
use support::Model;

const SLOTS: usize = 1;
const REQS: usize = 2;
/// An internal message: no request of the client's, so no slot watches it.
const INTERNAL: usize = REQS;
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

/// A server's pending crash: the message it faulted on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Pending {
    /// A request; `replied`: after its handler replied.
    Req(usize, bool),
    Internal,
    Carrier,
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
    pending: [Option<Pending>; N],
    /// When each hung server hung.
    hung_at: [u64; N],
    statuses: [CompStatusCode; N],
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
    const ALL: u32 = (1 << 10) - 1;
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

    fn set_status(&mut self, s: u8, status: CompStatusCode) {
        self.control.statuses[s as usize] = status;
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
                        let replied = reply.is_some();
                        if !replied {
                            self.key.reqs[r].at = At::Pending;
                        }
                        self.capture_fault(s, Pending::Req(r, replied), fault);
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
                    Some(fault) => self.capture_fault(s, Pending::Internal, fault),
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
                if quarantine {
                    self.quarantine(s);
                } else {
                    self.recover(s);
                }
                self.service();
            }
            Event::Kill(s) => {
                self.set_status(s, CompStatusCode::Crashed);
                self.recover(s);
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
        let class = if req.state_modifying {
            SeepClass::StateModifying
        } else {
            SeepClass::NonStateModifying
        };
        let effect = self.step(Input::Arm(id(r), dst, SeepMeta::request(class), attempt));
        let full = self.key.table.slots.iter().all(|s| s.0.is_some());
        self.key.reqs[r].watched = matches!(effect, Effect::Armed(_));
        match effect {
            Effect::Full if !full => self.violation("Full from a table with a free slot"),
            Effect::Armed(_) | Effect::Full => {}
            _ => self.violation("a watchable request was neither armed nor refused"),
        }
        self.key.inbox[server(dst)].push(r);
        if self.status(dst) == CompStatusCode::Quarantined {
            self.bounce(dst);
        }
    }

    /// `Kernel::bounce_quarantined_mail`.
    fn bounce(&mut self, s: u8) {
        for r in std::mem::take(&mut self.key.inbox[server(s)]) {
            self.send_crash_reply(r);
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

    /// `Kernel::send_crash_reply`.
    fn send_crash_reply(&mut self, r: usize) {
        if let Some(r) = self.fails(id(r), r) {
            self.answer(r);
        }
    }

    /// `Kernel::capture_fault`, with the conduct of a live RS: a crash is
    /// recovered at once, a hang waits for its detector.
    fn capture_fault(&mut self, s: u8, pending: Pending, fault: Fault) {
        self.epoch += 1;
        self.key.pending[server(s)] = Some(pending);
        match fault {
            Fault::Crash => self.declare_dead(s),
            Fault::Hang => {
                self.set_status(s, CompStatusCode::Hung);
                self.key.hung_at[server(s)] = self.now;
            }
        }
    }

    /// `Kernel::declare_dead`: the conduct notifies the RS.
    fn declare_dead(&mut self, s: u8) {
        self.set_status(s, CompStatusCode::Crashed);
        self.control.recovering.get_or_insert(s);
    }

    /// `Kernel::execute_recovery` under the enhanced policy.
    fn recover(&mut self, s: u8) {
        let pending = self.key.pending[server(s)].take();
        // The window closed at the reply, a state-modifying send, and so
        // did the chance of an error reply. A restart carrier is quiescent:
        // its heap committed, so a shutdown verdict degrades to a restart.
        let open = !matches!(pending, Some(Pending::Req(_, true)));
        let ctx = CrashContext {
            window_open: open,
            reply_possible: open,
            in_recovery_code: false,
            scoped_sends: false,
            requester_is_process: true,
        };
        let quiescent = pending == Some(Pending::Carrier);
        if !quiescent && !system_survives(decide_recovery(&Enhanced, &ctx).action) {
            self.control.shutdown = Some(true);
            self.control.recovering = None;
            return;
        }
        self.set_status(s, CompStatusCode::Alive);
        self.control.recovering.take_if(|&mut r| r == s);
        self.epoch += 1;
        if let Some(Pending::Req(r, _)) = pending {
            self.send_crash_reply(r);
        }
    }

    /// `Kernel::execute_quarantine`, then the bounce of its mail.
    fn quarantine(&mut self, s: u8) {
        if let Some(Pending::Req(r, replied)) = self.key.pending[server(s)].take() {
            if quarantine_answers(!replied, self.key.table.find(id(r)).is_some()) {
                self.send_crash_reply(r);
            }
        }
        self.set_status(s, CompStatusCode::Quarantined);
        self.control.recovering = None;
        self.bounce(s);
    }

    /// Asks the watchdog and executes its decision (`Kernel::watchdog`).
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
            Effect::Wait | Effect::Full | Effect::Capture | Effect::Armed(_) => {}
            // The watchdog stops watching a request still queued after every
            // probe round (or answered late, which settles it anyway).
            Effect::Verdict(s, VerdictCode::Slow) => {
                self.key.reqs[s.msg_id as usize - 1].watched = false;
            }
            Effect::Probe(_) | Effect::Verdict(..) => {}
            Effect::Expired(i, _) => {
                self.step(Input::Judge(i));
            }
            Effect::Hung(s, _) => {
                if self.hang_age(s.dst, s.armed_at) > BOUND {
                    self.violation("a hang was judged past its bound");
                }
                self.declare_dead(s.dst);
            }
            Effect::Lost(i, _) => {
                self.step(Input::Fail(i));
            }
            Effect::Retry(i, req, backoff, _) => {
                let Some(r) = self.key.table.slots[i].1.take() else {
                    self.violation("a retry decision on a request the kernel does not hold");
                    return effect;
                };
                let Some(backoff) = backoff else {
                    self.send_crash_reply(r);
                    return effect;
                };
                let rq = self.key.reqs[r];
                if rq.state_modifying && self.epoch <= rq.epoch_armed {
                    self.violation("a state-modifying request was re-driven in its epoch");
                }
                let rq = &mut self.key.reqs[r];
                rq.attempt = req.attempt + 1;
                rq.at = At::Parked {
                    due: self.now + backoff,
                };
            }
            Effect::Restart(c) => {
                self.key.pending[server(c)] = Some(Pending::Carrier);
                self.declare_dead(c);
            }
        }
        effect
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
            let pending = k
                .pending
                .iter()
                .any(|p| matches!(p, Some(Pending::Req(q, _)) if *q == r));
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

impl Host for Machine {
    type Msg = usize;

    fn table(&mut self) -> &mut Table<usize> {
        &mut self.key.table
    }

    fn watchdog(&mut self, input: Input) {
        self.step(input);
    }

    fn now(&mut self) -> u64 {
        self.now
    }

    fn halted(&self) -> bool {
        self.control.shutdown.is_some() || self.control.recovering.is_some()
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
