//! The watchdog plane executes what `osiris_core::watchdog` decides. The
//! kernel keeps the `Copy` slot table, each slot's captured request and,
//! in its `timers` map, the parked retries; each [`Effect`] is one arm of
//! [`Kernel::watchdog`]: a seal, an emit, a `declare_dead`, a failed
//! request answered, or a retry parked. Nothing here decides: the step's
//! decisions are searched to closure in `osiris-core`'s
//! `tests/watchdog_search.rs`, which mirrors this file.
//!
//! The core calls in where a request is queued ([`Kernel::watchdog_arm`]),
//! a reply is routed ([`Kernel::watchdog_rejects_reply`]), a handler
//! returned ([`Kernel::watchdog_after_ok`]) and a service point is reached
//! ([`Kernel::service_watchdog`]); the recovery plane calls in before it
//! surfaces `E_CRASH` ([`Kernel::watchdog_fails`]).

use osiris_axiom::{AxiomEvent, VerdictCode};
use osiris_core::watchdog::{Effect, Input, Slot};
use osiris_core::CrashContext;
use osiris_metrics::Note;
use osiris_trace::TraceEvent;

use super::recovery::PendingCrash;
use super::{Due, Kernel, RETRY_SEQ};
use crate::message::{Message, Protocol};

impl<P: Protocol> Kernel<P> {
    /// Asks the watchdog about `input` and executes its decision.
    fn watchdog(&mut self, input: Input) {
        let now = self.clock.now();
        let effect = self.wd.step(&self.control, now, self.recovery_epoch, input);
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
            Effect::Verdict(s, verdict) => self.seal_verdict(s, verdict),
            Effect::Hung(s, cycles) => {
                self.series.note(Note::HangVerdict { cycles });
                self.seal_verdict(s, VerdictCode::Hung);
                self.declare_dead(s.dst);
            }
            Effect::Lost(i, s) => {
                self.seal_verdict(s, VerdictCode::ReplyLost);
                self.watchdog(Input::Fail(i));
            }
            Effect::Retry(i, req, backoff, exhausted) => {
                let (_, held) = &mut self.wd.slots[i];
                let msg = held.take().expect("the failed request is held");
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
                    return self.send_crash_reply(comp, msg);
                };
                let event = TraceEvent::RetryScheduled {
                    target,
                    msg_id,
                    attempt,
                    backoff,
                };
                self.emit(comp, event);
                self.timer_seq += 1;
                let key = (now + backoff, RETRY_SEQ | self.timer_seq);
                let retry = Due::Retry(comp, attempt + 1, Box::new(msg));
                self.timers.insert(key, retry);
            }
            Effect::Restart(target) => {
                // The rejected reply's requester was already reconciled, so
                // the pending crash carries a kernel-sourced placeholder
                // that can never trigger a second reply.
                self.stamp();
                let msg = self.kernel_msg(target, None, P::crash_reply());
                let t = target as usize;
                let ctx = CrashContext {
                    window_open: self.comps[t].window.is_open(),
                    reply_possible: false,
                    in_recovery_code: false,
                    scoped_sends: false,
                    requester_is_process: false,
                };
                self.comps[t].crash_info = Some(PendingCrash {
                    msg,
                    ctx,
                    quiescent: true,
                });
                self.declare_dead(target);
            }
        }
    }

    fn seal_verdict(&mut self, s: Slot, verdict: VerdictCode) {
        let (comp, msg_id) = (s.dst, s.msg_id);
        self.seal(AxiomEvent::WatchdogVerdict {
            comp,
            verdict,
            msg_id,
        });
    }

    /// A request, `attempt` retries after its first delivery, is queued to
    /// component `dst`. With the watchdog off nothing is ever armed, and
    /// every other entry point finds nothing to do in one branch.
    pub(super) fn watchdog_arm(&mut self, dst: u8, msg: &Message<P>, attempt: u8) {
        if self.cfg.watchdog.enabled {
            self.watchdog(Input::Arm(msg.id.0, dst, msg.seep, attempt));
        }
    }

    /// A reply is routed. Returns `true` when it must not be delivered.
    pub(super) fn watchdog_rejects_reply(&mut self, msg: &Message<P>) -> bool {
        let Some(i) = msg.reply_to.and_then(|rt| self.wd.find(rt.0)) else {
            return false;
        };
        let intact = msg.integrity == msg.payload.digest();
        if intact {
            // The reply answers the request: a copy its slot held is done.
            self.wd.slots[i].1 = None;
        }
        self.watchdog(Input::Reply(i, intact));
        !intact
    }

    /// The handler of `msg` returned: a watched request, which the handler
    /// was only lent, is kept in its slot whole. Then every rejected reply
    /// whose request is held again is reconciled, and its sender treated
    /// as crashed.
    pub(super) fn watchdog_after_ok(&mut self, msg: Message<P>) {
        if self.wd.armed == 0 {
            return;
        }
        if let Some(i) = self.wd.find(msg.id.0) {
            self.watchdog(Input::Handled(i));
            self.wd.slots[i].1 = Some(msg);
        }
        while let Some((i, sender)) = self.wd.rejected() {
            self.watchdog(Input::Fail(i));
            self.watchdog(Input::Restart(sender));
        }
    }

    /// Visits every slot at a service point. During a recovery conduct
    /// only the RS runs; deadlines blocked behind it are serviced right
    /// after it completes, so a hang storm cannot compound a recovery.
    pub(super) fn service_watchdog(&mut self) {
        if self.wd.armed == 0 || self.recovering() {
            return;
        }
        self.stamp();
        if self.clock.now() < self.wd.next_due {
            return;
        }
        for i in 0..self.wd.slots.len() {
            if self.shutdown.is_some() || self.recovering() {
                // A verdict in this sweep started a conduct (or shut the
                // system down): the remaining slots wait.
                return;
            }
            self.watchdog(Input::Due(i));
        }
        self.wd.settle();
    }

    /// The crash machinery is about to answer `failed` with `E_CRASH`.
    /// Hands it back unless the watchdog watched it: then the watchdog
    /// re-drives it, or answers it through here once its slot is gone.
    pub(super) fn watchdog_fails(&mut self, failed: Message<P>) -> Option<Message<P>> {
        let Some(i) = self.wd.find(failed.id.0) else {
            return Some(failed);
        };
        self.wd.slots[i].1 = Some(failed);
        self.watchdog(Input::Fail(i));
        None
    }
}
