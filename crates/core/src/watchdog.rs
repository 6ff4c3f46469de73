//! The virtual-time watchdog as one pure step (fail-silent fault
//! tolerance).
//!
//! A bounded request delivered to a component arms a deadline. An expired
//! deadline starts heartbeat probing, whose verdict tells a hung component
//! (declared dead) from a slow one (left alone) and from a lost reply
//! (re-driven or crash-replied). A reply whose integrity stamp does not
//! match is rejected, and its sender is restarted. [`Table::step`] makes
//! every one of these decisions from the `Copy` slot [`Table`], the control
//! state, the virtual clock and the recovery epoch. The kernel keeps the
//! table, each slot's captured request and the parked retries. The
//! execution of each [`Effect`] and the kernel's entry points are the
//! provided methods of [`Host`], written once here; the kernel supplies
//! only the effects, and `tests/watchdog_search.rs` runs the same code,
//! and the step below it, to closure.

use osiris_trace::{fnv1a, AxiomEvent, CompStatusCode, ControlState, TraceEvent, VerdictCode};

use crate::conduct::{self, PendingCrash};
use crate::recovery::CrashContext;
use crate::seep::{MessageKind, SeepMeta};

/// The watchdog's one setting. Its timings are the constants below: they
/// are part of the cost model, not configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct WatchdogConfig {
    /// Master switch. Off by default: nothing is armed, and the kernel
    /// behaves exactly as without a watchdog.
    pub enabled: bool,
}

impl WatchdogConfig {
    /// Deadline armed on non-state-modifying requests, in virtual cycles.
    /// Sized above the worst fault-free request chain in the cost model (a
    /// ~50-hop disk-bound chain costs ≈ 1.25M cycles).
    pub const DEADLINE: u64 = 1_500_000;
    /// Deadline armed on state-modifying requests (longer: such requests
    /// fan out to other servers and the disk).
    pub const DEADLINE_STATE_MODIFYING: u64 = 3_000_000;
    /// Heartbeat-probe period after a deadline expires: how long the
    /// watchdog waits between progress checks before issuing a verdict.
    pub const PROBE_PERIOD: u64 = 2_000_000;
    /// Probe rounds granted to a component that keeps making progress
    /// before the watchdog gives up watching (verdict `Slow`).
    pub const MAX_PROBES: u32 = 8;
    /// Transparent retries granted per request (attempt indices
    /// `0..MAX_RETRIES` may be re-driven; the next failure surfaces).
    pub const MAX_RETRIES: u32 = 2;
    /// Base backoff before the first retry; attempt `n` waits
    /// `BACKOFF_BASE << n` plus jitter.
    pub const BACKOFF_BASE: u64 = 250_000;
    /// Seed of the retry jitter.
    pub const JITTER_SEED: u64 = 0x0517_C0DE;
    /// Preallocated deadline slots: the kernel's table never allocates.
    pub const CAPACITY: usize = 64;

    /// The watchdog enabled.
    pub fn on() -> Self {
        WatchdogConfig { enabled: true }
    }
}

/// Deterministic exponential backoff: attempt `n` of request `msg_id`
/// waits `BACKOFF_BASE << n` plus an FNV-derived jitter of less than a
/// quarter base, so a run schedules the same retries every time and a
/// retry storm never synchronizes.
pub fn backoff(msg_id: u64, attempt: u8) -> u64 {
    let base = WatchdogConfig::BACKOFF_BASE.saturating_mul(1u64 << attempt.min(16) as u32);
    let seed = fnv1a(WatchdogConfig::JITTER_SEED, &msg_id.to_le_bytes());
    base + fnv1a(seed, &[attempt]) % (WatchdogConfig::BACKOFF_BASE / 4)
}

/// Detection state of one armed deadline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WdState {
    /// Deadline armed, not yet expired.
    Armed,
    /// Deadline expired; heartbeat-probing the component until `until`.
    Probing {
        /// Virtual time of the next progress check.
        until: u64,
        /// Probe rounds already spent.
        probes: u32,
    },
    /// Verdict issued: the slot waits for the crash machinery to fail its
    /// request ([`Input::Fail`]), unless the request is handled after all.
    Doomed,
    /// The reply failed its integrity check: the request is failed once
    /// the kernel holds it again, or by the crash machinery if its sender
    /// faulted handling it.
    Rejected,
}

/// One watched request: the state a slot's decisions read.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Slot {
    /// The request's id.
    pub msg_id: u64,
    /// The component it was delivered to: the one watched.
    pub dst: u8,
    /// Virtual time it was armed.
    pub armed_at: u64,
    /// Virtual time its deadline expires.
    pub deadline: u64,
    /// Retries already granted to the request.
    pub attempt: u8,
    /// The kernel's recovery epoch at arm time: a state-modifying request
    /// is re-driven only once the epoch advanced (its partial effects were
    /// rolled back or restarted away).
    pub epoch_at_arm: u64,
    /// Whether the request modifies state at its receiver.
    pub state_modifying: bool,
    /// Whether the kernel holds the request in the slot: its handler
    /// returned without a reply.
    pub captured: bool,
    /// Detection state.
    pub state: WdState,
}

/// The kernel's preallocated slots: each holds the `Copy` state the
/// watchdog decides on and, once the kernel keeps it, the request itself
/// (`M`, opaque here: no decision reads it).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Table<M> {
    /// The slots; a free one is `(None, None)`.
    pub slots: Vec<(Option<Slot>, Option<M>)>,
    /// Occupied slots: the one-branch fast-path guard.
    pub armed: usize,
    /// A lower bound on the virtual time at which a sweep can find
    /// anything to do: no armed deadline and no probe lies before it, and
    /// it is 0 while a `Rejected` slot awaits reconciliation. Exact again
    /// after every completed sweep ([`Table::settle`]).
    pub next_due: u64,
}

/// What the kernel asks the watchdog about. `slot` indexes the table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Input {
    /// `Arm(msg_id, dst, seep, attempt)`: a request with this SEEP
    /// engraving is queued to component `dst`, `attempt` retries after its
    /// first delivery.
    Arm(u64, u8, SeepMeta, u8),
    /// `Reply(slot, intact)`: a reply to the slot's request is routed;
    /// `intact`: its integrity stamp matches its payload.
    Reply(usize, bool),
    /// The handler of the slot's request returned, and the kernel keeps
    /// the request.
    Handled(usize),
    /// A service point visits the slot.
    Due(usize),
    /// The slot's expiry is sealed: judge it.
    Judge(usize),
    /// The kernel gives up on the slot's request, which it holds: captured,
    /// or about to be answered with `E_CRASH` by the crash machinery.
    Fail(usize),
    /// A rejected reply's sender: treat it as crashed?
    Restart(u8),
}

/// What the kernel does next. A `Slot` is a copy for the kernel to report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effect {
    /// Nothing to do.
    Wait,
    /// Every slot is armed: the request goes unwatched, and the Recovery
    /// Server's heartbeat is its backstop.
    Full,
    /// A deadline was armed: emit `DeadlineArmed`.
    Armed(Slot),
    /// Keep the handled request in its slot, so that a lost reply can be
    /// re-driven.
    Capture,
    /// Seal `DeadlineExpired` for the slot at this index, then judge it.
    Expired(usize, Slot),
    /// A probe round started: emit `WatchdogProbe`.
    Probe(Slot),
    /// Seal this verdict on the slot's request. A `CorruptReply` rejects
    /// the reply: it is never delivered.
    Verdict(Slot, VerdictCode),
    /// Seal `Hung` (detected this many cycles after arming) and declare the
    /// component dead.
    Hung(Slot, u64),
    /// Seal `ReplyLost`, then fail the slot at this index.
    Lost(usize, Slot),
    /// `Retry(slot, req, backoff, exhausted)`: seal the retry decision on
    /// the request the kernel holds for the vacated slot. Granted
    /// (`backoff`): park it that long, then deliver it again as attempt
    /// `req.attempt + 1`. Denied: emit `RetryExhausted` if `exhausted`, and
    /// answer it with `E_CRASH`.
    Retry(usize, Slot, Option<u64>, bool),
    /// Treat this quiescent component as crashed: declare it dead.
    Restart(u8),
}

impl<M> Table<M> {
    /// `n` free slots: the table's one allocation.
    pub fn new(n: usize) -> Self {
        Table {
            slots: (0..n).map(|_| (None, None)).collect(),
            armed: 0,
            next_due: u64::MAX,
        }
    }

    /// Frees every slot.
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = (None, None));
        self.armed = 0;
        self.next_due = u64::MAX;
    }

    /// The slot watching request `msg_id`, if any.
    pub fn find(&self, msg_id: u64) -> Option<usize> {
        if self.armed == 0 {
            return None;
        }
        self.slots
            .iter()
            .position(|s| s.0.is_some_and(|s| s.msg_id == msg_id))
    }

    /// The first rejected slot whose request the kernel holds again, and
    /// the sender of the rejected reply.
    pub fn rejected(&self) -> Option<(usize, u8)> {
        let rejected = |s: &Slot| s.state == WdState::Rejected && s.captured;
        (0..self.slots.len()).find_map(|i| self.slots[i].0.filter(rejected).map(|s| (i, s.dst)))
    }

    /// Makes `next_due` exact after a completed sweep.
    pub fn settle(&mut self) {
        let due = |s: Slot| match s.state {
            WdState::Armed => Some(s.deadline),
            WdState::Probing { until, .. } => Some(until),
            WdState::Rejected => Some(0),
            WdState::Doomed => None,
        };
        let next_due = self.slots.iter().filter_map(|s| s.0.and_then(due)).min();
        self.next_due = next_due.unwrap_or(u64::MAX);
    }

    fn slot(&mut self, i: usize) -> &mut Slot {
        self.slots[i].0.as_mut().expect("watchdog slot is occupied")
    }

    fn take(&mut self, i: usize) -> Slot {
        self.armed -= 1;
        if self.armed == 0 {
            self.next_due = u64::MAX;
        }
        self.slots[i].0.take().expect("watchdog slot is occupied")
    }

    /// Decides the watchdog's next step for `input`, with `control` the
    /// control state, `now` the virtual time and `epoch` the kernel's
    /// recovery epoch.
    pub fn step(&mut self, control: &ControlState, now: u64, epoch: u64, input: Input) -> Effect {
        match input {
            Input::Arm(msg_id, dst, seep, attempt) => {
                let replyable = seep.kind == MessageKind::Request && seep.reply_possible;
                if !(replyable && seep.bounded) {
                    return Effect::Wait;
                }
                let Some(i) = self.slots.iter().position(|s| s.0.is_none()) else {
                    return Effect::Full;
                };
                let state_modifying = seep.class.is_state_modifying();
                let budgets = [
                    WatchdogConfig::DEADLINE,
                    WatchdogConfig::DEADLINE_STATE_MODIFYING,
                ];
                let deadline = now + budgets[usize::from(state_modifying)];
                let slot = Slot {
                    msg_id,
                    dst,
                    armed_at: now,
                    deadline,
                    attempt,
                    epoch_at_arm: epoch,
                    state_modifying,
                    captured: false,
                    state: WdState::Armed,
                };
                self.slots[i].0 = Some(slot);
                self.armed += 1;
                self.next_due = self.next_due.min(deadline);
                Effect::Armed(slot)
            }
            Input::Reply(i, false) => {
                self.slot(i).state = WdState::Rejected;
                self.next_due = 0;
                Effect::Verdict(*self.slot(i), VerdictCode::CorruptReply)
            }
            // A reply after its deadline: the component made progress, just
            // late. Nothing to recover.
            Input::Reply(i, true) => match self.take(i) {
                s if now > s.deadline || matches!(s.state, WdState::Probing { .. }) => {
                    Effect::Verdict(s, VerdictCode::Slow)
                }
                _ => Effect::Wait,
            },
            // A doomed request that is handled after all was not the one
            // its component faulted on: watch it again.
            Input::Handled(i) => {
                if self.slot(i).state == WdState::Doomed {
                    self.watch(i, now, 0);
                }
                self.slot(i).captured = true;
                Effect::Capture
            }
            Input::Due(i) => match self.slots[i].0.map(|s| (s.state, s.captured)) {
                Some((WdState::Armed, _)) if now >= self.slot(i).deadline => {
                    Effect::Expired(i, *self.slot(i))
                }
                Some((WdState::Probing { until, probes }, _)) if now >= until => {
                    self.judge(control, now, i, Some(probes))
                }
                // The sender of a rejected reply faulted later, handling
                // something else: the kernel still holds the request, and
                // the crash machinery does not answer it. (One the handler
                // faulted on is the crash machinery's to answer.)
                Some((WdState::Rejected, true)) => self.step(control, now, epoch, Input::Fail(i)),
                _ => Effect::Wait,
            },
            Input::Judge(i) => self.judge(control, now, i, None),
            Input::Fail(i) => {
                // Idempotence comes from the SEEP class: a non-state-
                // modifying request is re-driven as is, a state-modifying
                // one only once its partial effects were rolled back or
                // restarted away.
                let req = self.take(i);
                let budget_left = u32::from(req.attempt) < WatchdogConfig::MAX_RETRIES;
                let granted = budget_left
                    && control.status(req.dst) != CompStatusCode::Quarantined
                    && control.shutdown.is_none()
                    && (!req.state_modifying || epoch > req.epoch_at_arm);
                let backoff = granted.then(|| backoff(req.msg_id, req.attempt));
                Effect::Retry(i, req, backoff, !budget_left)
            }
            // A rejected reply's sender is treated as crashed, unless it is
            // already dead or benched or a conduct is in flight: then the
            // ladder is engaged, and a second preemption would amplify.
            Input::Restart(c) => match (control.status(c), control.recovering) {
                (CompStatusCode::Alive, None) => Effect::Restart(c),
                _ => Effect::Wait,
            },
        }
    }

    /// The verdict on slot `i` at `now`: fresh from its expiry (`probes`
    /// `None`), or at the end of a probe round.
    fn judge(&mut self, control: &ControlState, now: u64, i: usize, probes: Option<u32>) -> Effect {
        let s = self.slot(i);
        match (control.status(s.dst), probes) {
            // The handler returned long ago and a whole probe round passed
            // with no reply on the wire, or its component is benched for
            // good: the reply is lost.
            (CompStatusCode::Alive, Some(_)) | (CompStatusCode::Quarantined, _) if s.captured => {
                Effect::Lost(i, *s)
            }
            // Still queued after every probe round: the system makes
            // progress, slowly. Stop watching.
            (CompStatusCode::Alive, Some(p)) if p + 1 >= WatchdogConfig::MAX_PROBES => {
                Effect::Verdict(self.take(i), VerdictCode::Slow)
            }
            // Start or extend the probe round: an asynchronous completion
            // (a disk reply in flight) gets one more period to surface.
            (CompStatusCode::Alive, p) => Effect::Probe(self.watch(i, now, p.map_or(0, |p| p + 1))),
            // The fail-stop machinery is on it, and fails the request the
            // component faulted on: the slot waits for that (`Doomed`). A
            // request the kernel holds is not that one, so it stays
            // watched. A hang is definitive: the component stopped
            // consuming messages, and the verdict sends it to the RS
            // conduct, as on the fail-stop path.
            (status, _) => {
                if s.captured {
                    self.watch(i, now, 0);
                } else {
                    s.state = WdState::Doomed;
                }
                let s = *self.slot(i);
                match status {
                    CompStatusCode::Hung => Effect::Hung(s, now - s.armed_at),
                    _ => Effect::Wait,
                }
            }
        }
    }

    /// Watches slot `i` for another probe round: the request is still in
    /// the component's hands, or back in them.
    fn watch(&mut self, i: usize, now: u64, probes: u32) -> Slot {
        let until = now + WatchdogConfig::PROBE_PERIOD;
        self.next_due = self.next_due.min(until);
        let s = self.slot(i);
        s.state = WdState::Probing { until, probes };
        *s
    }
}

/// The axiom event that seals `verdict` on slot `s`'s request.
fn verdict(s: Slot, verdict: VerdictCode) -> AxiomEvent {
    AxiomEvent::WatchdogVerdict {
        comp: s.dst,
        verdict,
        msg_id: s.msg_id,
    }
}

/// The owner of a watchdog [`Table`]: the kernel, or a model of it, which
/// also executes the recovery conduct. The required methods are what only
/// the owner can do; the provided ones are the entry points the kernel
/// calls and the execution of each [`Effect`], written once.
pub trait Host: conduct::Host {
    /// The slot table.
    fn table(&mut self) -> &mut Table<Self::Msg>;

    /// Steps the table on `input` in the current control state, virtual
    /// time and recovery epoch.
    fn step(&mut self, input: Input) -> Effect;

    /// The virtual time.
    fn now(&self) -> u64;

    /// Whether the slots wait: the machine shut down, or a recovery
    /// conduct is in flight.
    fn halted(&self) -> bool;

    /// Notes a hang verdict, `cycles` after its request was armed.
    fn judged_hung(&mut self, cycles: u64);

    /// Parks request `msg` for `backoff` cycles, then delivers it to `comp`
    /// again as attempt `attempt`.
    fn park(&mut self, comp: u8, attempt: u8, backoff: u64, msg: Self::Msg);

    /// A kernel-sourced message to `comp` that stands in for the request a
    /// quiescent component is restarted on: answering it answers no one.
    fn carrier(&mut self, comp: u8) -> Self::Msg;

    /// Steps the table on `input`, executes the [`Effect`] and returns it.
    fn watchdog(&mut self, input: Input) -> Effect {
        let effect = self.step(input);
        match effect {
            Effect::Wait | Effect::Full | Effect::Capture => {}
            Effect::Armed(s) => {
                let (target, msg_id, deadline) = (s.dst, s.msg_id, s.deadline);
                let event = TraceEvent::DeadlineArmed {
                    target,
                    msg_id,
                    deadline,
                };
                self.emit(target, event);
            }
            Effect::Expired(i, s) => {
                let (comp, msg_id, attempt) = (s.dst, s.msg_id, s.attempt);
                self.seal(AxiomEvent::DeadlineExpired {
                    comp,
                    msg_id,
                    attempt,
                });
                self.watchdog(Input::Judge(i));
            }
            Effect::Probe(s) => {
                let (target, msg_id) = (s.dst, s.msg_id);
                self.emit(target, TraceEvent::WatchdogProbe { target, msg_id });
            }
            Effect::Verdict(s, v) => self.seal(verdict(s, v)),
            Effect::Hung(s, cycles) => {
                self.judged_hung(cycles);
                self.seal(verdict(s, VerdictCode::Hung));
                self.declare_dead(s.dst);
            }
            Effect::Lost(i, s) => {
                self.seal(verdict(s, VerdictCode::ReplyLost));
                self.watchdog(Input::Fail(i));
            }
            Effect::Retry(i, req, backoff, exhausted) => {
                let Some(msg) = self.table().slots[i].1.take() else {
                    return effect;
                };
                let (comp, msg_id, attempt) = (req.dst, req.msg_id, req.attempt);
                self.seal(AxiomEvent::RetryDecision {
                    comp,
                    msg_id,
                    attempt,
                    granted: backoff.is_some(),
                    backoff: backoff.unwrap_or(0).min(u32::MAX as u64) as u32,
                });
                let target = comp;
                let Some(backoff) = backoff else {
                    if exhausted {
                        self.emit(comp, TraceEvent::RetryExhausted { target, msg_id });
                    }
                    self.crash_reply(comp, msg);
                    return effect;
                };
                let event = TraceEvent::RetryScheduled {
                    target,
                    msg_id,
                    attempt,
                    backoff,
                };
                self.emit(comp, event);
                self.park(comp, attempt + 1, backoff, msg);
            }
            Effect::Restart(comp) => {
                // The rejected reply's requester was already reconciled, so
                // the pending crash carries a kernel-sourced placeholder
                // that can never trigger a second reply.
                self.stamp();
                let (msg, ctx, quiescent) = (self.carrier(comp), CrashContext::default(), true);
                *self.pending(comp) = Some(PendingCrash {
                    msg,
                    ctx,
                    quiescent,
                });
                self.declare_dead(comp);
            }
        }
        effect
    }

    /// A reply to request `reply_to` is routed; `intact` checks its
    /// integrity stamp, only when a slot watches that request. Returns
    /// `true` when the reply must not be delivered.
    fn rejects_reply(&mut self, reply_to: Option<u64>, intact: impl FnOnce() -> bool) -> bool {
        let Some(i) = reply_to.and_then(|id| self.table().find(id)) else {
            return false;
        };
        let intact = intact();
        if intact {
            // The reply answers the request: a copy its slot held is done.
            self.table().slots[i].1 = None;
        }
        self.watchdog(Input::Reply(i, intact));
        !intact
    }

    /// The handler of request `msg_id` returned: a watched request, which
    /// the handler was only lent, is kept in its slot whole. Then every
    /// rejected reply whose request is held again is reconciled, and its
    /// sender treated as crashed.
    fn after_ok(&mut self, msg_id: u64, msg: Self::Msg) {
        if self.table().armed == 0 {
            return;
        }
        if let Some(i) = self.table().find(msg_id) {
            self.watchdog(Input::Handled(i));
            self.table().slots[i].1 = Some(msg);
        }
        while let Some((i, sender)) = self.table().rejected() {
            self.watchdog(Input::Fail(i));
            self.watchdog(Input::Restart(sender));
        }
    }

    /// Visits every slot at a service point. During a recovery conduct
    /// only the RS runs; deadlines blocked behind it are serviced right
    /// after it completes, so a hang storm cannot compound a recovery.
    fn service(&mut self) {
        if self.table().armed == 0 || self.halted() {
            return;
        }
        // A service point is a stamp point.
        self.stamp();
        if self.now() < self.table().next_due {
            return;
        }
        for i in 0..self.table().slots.len() {
            if self.halted() {
                // A verdict in this sweep started a conduct (or shut the
                // system down): the remaining slots wait.
                return;
            }
            self.watchdog(Input::Due(i));
        }
        self.table().settle();
    }

    /// The crash machinery is about to answer request `msg_id` with
    /// `E_CRASH`. Hands it back unless the watchdog watched it: then the
    /// watchdog re-drives it, or answers it through here once its slot is
    /// gone.
    fn fails(&mut self, msg_id: u64, failed: Self::Msg) -> Option<Self::Msg> {
        let Some(i) = self.table().find(msg_id) else {
            return Some(failed);
        };
        self.table().slots[i].1 = Some(failed);
        self.watchdog(Input::Fail(i));
        None
    }
}
