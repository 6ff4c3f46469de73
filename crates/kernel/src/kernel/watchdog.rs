//! The watchdog plane: virtual-time deadlines on bounded requests,
//! heartbeat probing, verdicts, transparent retry with deterministic
//! backoff, and the reply-integrity check (fail-silent fault tolerance).
//!
//! The core calls in at four points — a request is queued
//! ([`Kernel::watchdog_arm`]), a reply is routed
//! ([`Kernel::watchdog_rejects_reply`]), a handler returned
//! ([`Kernel::watchdog_after_ok`]) and a service point is reached
//! ([`Kernel::service_watchdog`]) — and the recovery plane once, before
//! surfacing `E_CRASH` ([`Kernel::watchdog_intercept_crash_reply`]).

use std::collections::BTreeMap;

use osiris_axiom::{AxiomEvent, CompStatusCode, VerdictCode};
use osiris_core::{CrashContext, MessageKind};
use osiris_metrics::Note;
use osiris_trace::TraceEvent;

use super::recovery::PendingCrash;
use super::Kernel;
use crate::message::{Endpoint, Message, Protocol};

/// Fail-silent fault tolerance: the virtual-time watchdog.
///
/// When enabled, the kernel arms a deadline on every *bounded* request
/// delivered to a component (derived from the request's SEEP metadata:
/// state-modifying requests get the longer budget, intrinsically blocking
/// passages are never armed). An expired deadline starts a heartbeat-probe
/// round that distinguishes *hung* (no progress — the component is declared
/// dead and recovered through the Recovery Server's escalation ladder) from
/// *slow* (progress but late — the reply is accepted and only a `Slow`
/// verdict is sealed). Crash replies to armed requests are intercepted for
/// transparent retry with deterministic exponential backoff and seeded
/// jitter; reply payloads are integrity-checked against the digest stamped
/// at send time, and a corrupt reply is treated as a crash of its sender.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Master switch. Disabled by default: every hot path below reduces to
    /// one branch, and the kernel behaves exactly as without a watchdog.
    pub enabled: bool,
    /// Seed for the deterministic retry jitter (FNV-folded with the message
    /// id and attempt, so two same-seed runs schedule identical retries).
    pub jitter_seed: u64,
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
    /// Preallocated deadline slots. Requests arriving while all slots are
    /// armed simply go unwatched (the RS heartbeat remains the backstop);
    /// the armed-deadline hot path never allocates.
    pub const CAPACITY: usize = 64;

    /// The watchdog enabled with the default jitter seed.
    pub fn on() -> Self {
        WatchdogConfig {
            enabled: true,
            ..Default::default()
        }
    }

    /// Deterministic exponential backoff with seeded jitter: attempt `n`
    /// waits `BACKOFF_BASE << n` plus an FNV-derived jitter of up to a
    /// quarter base, so identical configurations schedule byte-identical
    /// retries and a retry storm never synchronizes.
    fn backoff(&self, msg_id: u64, attempt: u8) -> u64 {
        let base = Self::BACKOFF_BASE.saturating_mul(1u64 << attempt.min(16) as u32);
        let h = osiris_axiom::fnv1a(
            osiris_axiom::fnv1a(self.jitter_seed, &msg_id.to_le_bytes()),
            &[attempt],
        );
        base + h % (Self::BACKOFF_BASE / 4)
    }
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            enabled: false,
            jitter_seed: 0x0517_C0DE,
        }
    }
}

/// Detection state of one armed watchdog deadline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WdState {
    /// Deadline armed, not yet expired.
    Armed,
    /// Deadline expired; heartbeat-probing the component until `until`.
    Probing {
        /// Virtual time of the next progress check.
        until: u64,
        /// Probe rounds already spent.
        probes: u32,
    },
    /// Verdict issued; the slot only waits for the recovery machinery's
    /// crash reply so the retry interception can find the arm metadata.
    Doomed,
    /// The reply to this request failed its integrity check; reconciliation
    /// (retry or crash reply, plus sender restart) is pending at the end of
    /// the current delivery.
    Rejected,
}

/// One preallocated watchdog slot: the deadline armed for an in-flight
/// bounded request. `msg` holds the request itself once its handler
/// completed without producing a reply (captured by move, never cloned), so
/// a lost or corrupt reply can be re-driven transparently.
struct WdSlot<P> {
    msg_id: u64,
    /// Endpoint the request was delivered to (the watched component).
    dst: u8,
    armed_at: u64,
    deadline: u64,
    /// Retry attempts already spent on this request.
    attempt: u8,
    /// Kernel recovery epoch at arm time: a state-modifying request may
    /// only be retried if the epoch advanced since (its partial effects
    /// were rolled back or restarted away).
    epoch_at_arm: u64,
    state: WdState,
    msg: Option<Message<P>>,
}

/// The watchdog's own state: the deadline slot table and the retry queue.
pub(super) struct Watchdog<P> {
    /// Preallocated deadline slots (fixed at [`WatchdogConfig::CAPACITY`];
    /// the armed hot path never allocates).
    slots: Vec<Option<WdSlot<P>>>,
    /// Number of occupied slots — the one-branch fast-path guard.
    armed: usize,
    /// A lower bound on the virtual time at which a sweep of the slots can
    /// find anything to do: no armed `deadline` and no probing `until` lies
    /// before it, and it is 0 while a `Rejected` slot may await
    /// reconciliation. Lowered where a slot becomes due earlier (arm, probe,
    /// reject); made exact again when the last slot empties and by every
    /// completed sweep, so a slot that left early costs at most one idle
    /// sweep.
    next_due: u64,
    /// Requests awaiting transparent re-delivery after a granted retry,
    /// keyed by (virtual due time, schedule sequence); the value carries the
    /// attempt index the re-delivery will be armed with.
    retry_wait: BTreeMap<(u64, u64), (u8, Message<P>)>,
    retry_seq: u64,
}

impl<P> Watchdog<P> {
    pub(super) fn new() -> Self {
        Watchdog {
            slots: (0..WatchdogConfig::CAPACITY).map(|_| None).collect(),
            armed: 0,
            next_due: u64::MAX,
            retry_wait: BTreeMap::new(),
            retry_seq: 0,
        }
    }

    /// No deadline armed and no retry parked.
    pub(super) fn is_idle(&self) -> bool {
        self.armed == 0 && self.retry_wait.is_empty()
    }

    /// Disarms every deadline and drops every parked retry.
    pub(super) fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
        self.armed = 0;
        self.next_due = u64::MAX;
        self.retry_wait.clear();
    }

    /// Key (due time, sequence) of the earliest parked retry.
    pub(super) fn next_retry(&self) -> Option<(u64, u64)> {
        self.retry_wait.keys().next().copied()
    }

    /// The slot index watching request `msg_id`, if any.
    fn find(&self, msg_id: u64) -> Option<usize> {
        if self.armed == 0 {
            return None;
        }
        self.slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|s| s.msg_id == msg_id))
    }

    fn slot_mut(&mut self, i: usize) -> &mut WdSlot<P> {
        self.slots[i].as_mut().expect("watchdog slot is occupied")
    }

    /// Vacates slot `i`, returning what it held.
    fn take(&mut self, i: usize) -> WdSlot<P> {
        self.armed -= 1;
        if self.armed == 0 {
            self.next_due = u64::MAX;
        }
        self.slots[i].take().expect("watchdog slot is occupied")
    }
}

impl<P: Protocol> Kernel<P> {
    /// Arms a deadline for `msg` in a free preallocated slot. No-op unless
    /// the watchdog is on and `msg` is a *bounded* request (per its SEEP
    /// engraving) that can be error-replied, addressed to a component; also
    /// when every slot is busy (unwatched requests fall back to the RS
    /// heartbeat). Never allocates.
    pub(super) fn watchdog_arm(&mut self, msg: &Message<P>, attempt: u8) {
        if !(self.cfg.watchdog.enabled
            && msg.seep.kind == MessageKind::Request
            && msg.seep.reply_possible
            && msg.seep.bounded)
        {
            return;
        }
        let Endpoint::Component(dst) = msg.dst else {
            return;
        };
        let Some(i) = self.wd.slots.iter().position(|s| s.is_none()) else {
            return;
        };
        // The deadline is derived from the SEEP class: state-modifying
        // requests fan out to other servers and the disk, so they get the
        // longer budget.
        let budget = if msg.seep.class.is_state_modifying() {
            WatchdogConfig::DEADLINE_STATE_MODIFYING
        } else {
            WatchdogConfig::DEADLINE
        };
        let now = self.clock.now();
        self.wd.slots[i] = Some(WdSlot {
            msg_id: msg.id.0,
            dst,
            armed_at: now,
            deadline: now + budget,
            attempt,
            epoch_at_arm: self.recovery_epoch,
            state: WdState::Armed,
            msg: None,
        });
        self.wd.armed += 1;
        self.wd.next_due = self.wd.next_due.min(now + budget);
        self.emit(
            dst,
            TraceEvent::DeadlineArmed {
                target: dst,
                msg_id: msg.id.0,
                deadline: now + budget,
            },
        );
    }

    /// Seals one verdict on `comp`'s handling of `msg_id`.
    fn seal_verdict(&mut self, comp: u8, msg_id: u64, verdict: VerdictCode) {
        self.seal(AxiomEvent::WatchdogVerdict {
            comp,
            verdict,
            msg_id,
        });
    }

    /// Reply-side bookkeeping when `msg` is routed: verifies the integrity
    /// stamp sealed at send time and disarms the deadline of the request
    /// being answered. Returns `true` when the reply must not be delivered:
    /// its digest mismatched, so it is rejected outright and the slot is
    /// marked for reconciliation at the end of the current delivery, when
    /// the kernel owns the original request again.
    pub(super) fn watchdog_rejects_reply(&mut self, msg: &Message<P>) -> bool {
        if !self.cfg.watchdog.enabled {
            return false;
        }
        let Some(i) = msg.reply_to.and_then(|rt| self.wd.find(rt.0)) else {
            return false;
        };
        if msg.integrity != msg.payload.digest() {
            let slot = self.wd.slot_mut(i);
            slot.state = WdState::Rejected;
            let (sender, msg_id) = (slot.dst, slot.msg_id);
            self.wd.next_due = 0;
            self.seal_verdict(sender, msg_id, VerdictCode::CorruptReply);
            return true;
        }
        // The reply arrived. One that arrives after its deadline seals the
        // `Slow` verdict: the component made progress, just late — nothing
        // to recover.
        let slot = self.wd.take(i);
        if self.clock.now() > slot.deadline || matches!(slot.state, WdState::Probing { .. }) {
            self.seal_verdict(slot.dst, slot.msg_id, VerdictCode::Slow);
        }
        false
    }

    /// Post-handler watchdog bookkeeping for a successfully handled
    /// message: captures `msg` into its still-armed slot — by move, never a
    /// clone — so a lost reply can be re-driven later, then reconciles any
    /// reply rejection recorded during this delivery.
    pub(super) fn watchdog_after_ok(&mut self, msg: Message<P>) {
        if !self.cfg.watchdog.enabled || self.wd.armed == 0 {
            return;
        }
        if let Some(i) = self.wd.find(msg.id.0) {
            let slot = self.wd.slot_mut(i);
            if slot.msg.is_none() {
                slot.msg = Some(msg);
            }
        }
        // Every `Rejected` slot holding its captured request: the requester
        // gets a transparent retry or a crash reply, and the sender of the
        // corrupt reply is preemptively restarted — a corrupt reply is
        // treated as a crash of its sender.
        while let Some(i) = self.wd.slots.iter().position(|s| {
            s.as_ref()
                .is_some_and(|s| s.state == WdState::Rejected && s.msg.is_some())
        }) {
            let slot = self.wd.take(i);
            let sender = slot.dst;
            self.watchdog_reconcile(slot);
            self.watchdog_preemptive_restart(sender);
        }
    }

    /// Reconciles the requester of a vacated slot: its captured request is
    /// re-driven if the retry policy grants it, else answered with a crash
    /// reply (which, the slot being gone, cannot re-enter the interception).
    fn watchdog_reconcile(&mut self, slot: WdSlot<P>) {
        let Some(msg) = slot.msg else { return };
        if let Some(failed) =
            self.watchdog_try_retry(slot.dst, msg, slot.attempt, slot.epoch_at_arm)
        {
            self.send_crash_reply(slot.dst, failed);
        }
    }

    /// Treats `target` as crashed without a failing in-flight request (the
    /// corrupt-reply defense): its requester was already reconciled, so the
    /// pending crash carries a kernel-sourced placeholder that can never
    /// trigger a second reply. Recovery routes through the RS conduct and
    /// the existing escalation ladder.
    fn watchdog_preemptive_restart(&mut self, target: u8) {
        let t = target as usize;
        if self.control.status(target) != CompStatusCode::Alive || self.recovering() {
            // Already dead or benched, or a conduct is in flight: the
            // ladder is engaged, a second preemption would only amplify.
            return;
        }
        self.stamp();
        let carrier = self.kernel_msg(target, None, P::crash_reply());
        let ctx = CrashContext {
            window_open: self.comps[t].window.is_open(),
            reply_possible: false,
            in_recovery_code: false,
            scoped_sends: false,
            requester_is_process: false,
        };
        self.comps[t].crash_info = Some(PendingCrash {
            msg: carrier,
            ctx,
            quiescent: true,
        });
        self.declare_dead(target);
    }

    /// Services armed deadlines at the current virtual time. Expiries seal
    /// `DeadlineExpired` and start heartbeat probing; probe rounds
    /// distinguish *hung* (the component stopped making progress — declared
    /// dead and recovered) from *slow* (progress but late — the watchdog
    /// keeps waiting and eventually gives up with a `Slow` verdict); a
    /// completed handler whose reply never arrived is a `ReplyLost`,
    /// retried transparently or crash-replied.
    pub(super) fn service_watchdog(&mut self) {
        if !self.cfg.watchdog.enabled || self.wd.armed == 0 || self.recovering() {
            // During a recovery conduct only the RS runs; deadlines blocked
            // behind the stall are serviced right after it completes, so a
            // hang storm cannot compound an in-flight recovery.
            return;
        }
        let now = self.clock.now();
        self.stamp();
        if now < self.wd.next_due {
            return;
        }
        for i in 0..self.wd.slots.len() {
            if self.shutdown.is_some() || self.recovering() {
                // A verdict earlier in this sweep started a conduct (or
                // shut the system down); the remaining slots wait for the
                // next service point.
                return;
            }
            let Some(slot) = self.wd.slots[i].as_ref() else {
                continue;
            };
            match slot.state {
                WdState::Armed if now >= slot.deadline => {
                    self.seal(AxiomEvent::DeadlineExpired {
                        comp: slot.dst,
                        msg_id: slot.msg_id,
                        attempt: slot.attempt,
                    });
                    self.watchdog_judge(i, now);
                }
                WdState::Probing { until, .. } if now >= until => self.watchdog_judge(i, now),
                WdState::Rejected => {
                    // Normally reconciled at the end of the delivery that
                    // rejected the reply; reaching here means the sender
                    // also crashed mid-delivery. The crash machinery owns
                    // its recovery — reconcile the requester only.
                    let slot = self.wd.take(i);
                    self.watchdog_reconcile(slot);
                }
                _ => {}
            }
        }
        // The sweep ran to the end: the bound is exact again.
        self.wd.next_due = self
            .wd
            .slots
            .iter()
            .flatten()
            .filter_map(|s| match s.state {
                WdState::Armed => Some(s.deadline),
                WdState::Probing { until, .. } => Some(until),
                WdState::Rejected => Some(0),
                WdState::Doomed => None,
            })
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Starts (or extends) the heartbeat-probe round of slot `i`.
    fn watchdog_probe(&mut self, i: usize, now: u64, probes: u32) {
        let until = now + WatchdogConfig::PROBE_PERIOD;
        self.wd.next_due = self.wd.next_due.min(until);
        let slot = self.wd.slot_mut(i);
        slot.state = WdState::Probing { until, probes };
        let (target, msg_id) = (slot.dst, slot.msg_id);
        self.emit(target, TraceEvent::WatchdogProbe { target, msg_id });
    }

    /// Issues the verdict for an expired or probing slot `i` at time `now`.
    fn watchdog_judge(&mut self, i: usize, now: u64) {
        let slot = self.wd.slot_mut(i);
        let (dst, msg_id, state) = (slot.dst, slot.msg_id, slot.state);
        match self.control.status(dst) {
            CompStatusCode::Hung => {
                // The heartbeat signal is definitive: the component stopped
                // consuming messages entirely. Verdict without probing, then
                // the recovery goes to the RS conduct (the existing
                // escalation ladder) exactly as on the fail-stop crash path.
                slot.state = WdState::Doomed;
                let cycles = now - slot.armed_at;
                self.series.note(Note::HangVerdict { cycles });
                self.seal_verdict(dst, msg_id, VerdictCode::Hung);
                self.declare_dead(dst);
            }
            CompStatusCode::Crashed | CompStatusCode::Quarantined => {
                // The fail-stop machinery is already on it; its crash reply
                // (or quarantine bounce) resolves this slot through the
                // retry interception.
                slot.state = WdState::Doomed;
            }
            CompStatusCode::Alive => {
                let captured = slot.msg.is_some();
                match state {
                    // Start the heartbeat-probe round: async completions (a
                    // disk reply still in flight) get one probe period to
                    // surface before any verdict.
                    WdState::Armed => self.watchdog_probe(i, now, 0),
                    WdState::Probing { .. } if captured => {
                        // The handler completed long ago and a full probe
                        // period passed with no reply on the wire: the reply
                        // is lost. Re-drive or surface.
                        let slot = self.wd.take(i);
                        self.seal_verdict(dst, msg_id, VerdictCode::ReplyLost);
                        self.watchdog_reconcile(slot);
                    }
                    WdState::Probing { probes, .. } if probes + 1 >= WatchdogConfig::MAX_PROBES => {
                        // Still in the component's queue after every probe
                        // round: the system is making progress, just slowly.
                        // Stop watching.
                        self.wd.take(i);
                        self.seal_verdict(dst, msg_id, VerdictCode::Slow);
                    }
                    WdState::Probing { probes, .. } => self.watchdog_probe(i, now, probes + 1),
                    _ => {}
                }
            }
        }
    }

    /// Decides whether a failed armed request may be re-driven, sealing the
    /// decision into the axiom either way. Consumes the message when the
    /// retry is granted (parked in the retry queue until its backoff
    /// elapses); hands it back when denied so the caller surfaces the
    /// failure through error virtualization.
    fn watchdog_try_retry(
        &mut self,
        from: u8,
        failed: Message<P>,
        attempt: u8,
        epoch_at_arm: u64,
    ) -> Option<Message<P>> {
        let msg_id = failed.id.0;
        // Idempotence comes from the SEEP classification: non-state-
        // modifying requests re-drive transparently; state-modifying ones
        // only when the recovery epoch advanced since arming — their
        // partial effects were rolled back or restarted away, so a re-drive
        // cannot duplicate them.
        let idempotent = !failed.seep.class.is_state_modifying();
        let effects_undone = self.recovery_epoch > epoch_at_arm;
        let budget_left = (attempt as u32) < WatchdogConfig::MAX_RETRIES;
        let target_usable = self.control.status(from) != CompStatusCode::Quarantined
            && self.shutdown.is_none()
            && self.shutdown_pending.is_none();
        let granted = budget_left && target_usable && (idempotent || effects_undone);
        let backoff = if granted {
            self.cfg.watchdog.backoff(msg_id, attempt)
        } else {
            0
        };
        self.seal(AxiomEvent::RetryDecision {
            comp: from,
            msg_id,
            attempt,
            granted,
            backoff: backoff.min(u32::MAX as u64) as u32,
        });
        if granted {
            self.emit(
                from,
                TraceEvent::RetryScheduled {
                    target: from,
                    msg_id,
                    attempt,
                    backoff,
                },
            );
            self.wd.retry_seq += 1;
            let at = self.clock.now() + backoff;
            self.wd
                .retry_wait
                .insert((at, self.wd.retry_seq), (attempt + 1, failed));
            None
        } else {
            if !budget_left {
                let target = from;
                self.emit(from, TraceEvent::RetryExhausted { target, msg_id });
            }
            Some(failed)
        }
    }

    /// Crash-reply interception: when the failed request had an armed
    /// deadline, consult the retry policy before surfacing `E_CRASH`.
    /// Returns the message back when it must still be crash-replied.
    pub(super) fn watchdog_intercept_crash_reply(
        &mut self,
        from: u8,
        failed: Message<P>,
    ) -> Option<Message<P>> {
        if !self.cfg.watchdog.enabled {
            return Some(failed);
        }
        let Some(i) = self.wd.find(failed.id.0) else {
            return Some(failed);
        };
        let slot = self.wd.take(i);
        self.watchdog_try_retry(from, failed, slot.attempt, slot.epoch_at_arm)
    }

    /// Re-delivers a retried request once its backoff elapsed: the message
    /// keeps its identity (id, requester, span), so the eventual reply
    /// correlates exactly as the original's would have — the retry is
    /// invisible to both endpoints.
    pub(super) fn fire_retry(&mut self, key: (u64, u64)) {
        let (attempt, msg) = self
            .wd
            .retry_wait
            .remove(&key)
            .expect("retry key just observed");
        self.clock.advance_to(key.0);
        self.stamp();
        let Endpoint::Component(c) = msg.dst else {
            return;
        };
        self.watchdog_arm(&msg, attempt);
        self.comps[c as usize].inbox.push_back(msg);
    }
}
