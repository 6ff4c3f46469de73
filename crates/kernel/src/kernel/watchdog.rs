//! The watchdog plane executes what `osiris_core::watchdog` decides. The
//! kernel keeps the `Copy` slot table, each slot's captured request and,
//! in its `timers` map, the parked retries; each [`Effect`] is one arm of
//! its `watchdog::Host::watchdog`: a seal, an emit, a `declare_dead`, a
//! failed request answered, or a retry parked. Nothing here decides.
//!
//! The core calls in where a request is queued ([`Kernel::watchdog_arm`]).
//! Where a reply is routed, a handler returned, a service point is reached
//! and the recovery plane is about to surface `E_CRASH`, it calls the
//! provided `rejects_reply`, `after_ok`, `service` and `fails`, written
//! once in `osiris-core`, whose `tests/watchdog_search.rs` runs them too.

use osiris_axiom::{AxiomEvent, VerdictCode};
use osiris_core::conduct::Host as _;
use osiris_core::watchdog::{Effect, Host, Input, Slot, Table};
use osiris_core::CrashContext;
use osiris_metrics::Note;
use osiris_trace::TraceEvent;

use super::recovery::PendingCrash;
use super::{Due, Kernel, RETRY_SEQ};
use crate::message::{Message, Protocol};

impl<P: Protocol> Host for Kernel<P> {
    type Msg = Message<P>;

    fn table(&mut self) -> &mut Table<Message<P>> {
        &mut self.wd
    }

    /// Stamps the ring: a service point is a stamp point.
    fn now(&mut self) -> u64 {
        self.stamp();
        self.clock.now()
    }

    fn halted(&self) -> bool {
        self.shutdown.is_some() || self.recovering()
    }

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
}

impl<P: Protocol> Kernel<P> {
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
}
