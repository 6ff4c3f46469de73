//! The recovery plane: crash capture, privileged operations, quarantine,
//! and the three recovery phases with their fallback chain (paper §IV-C).
//! What [`osiris_core::conduct`] decides — the Recovery Server hand-off and
//! its persisted intents, the restart of a failed RS and the re-drive of
//! its intents — is executed by `conduct::Host`'s provided methods, which
//! `osiris-core`'s conduct search runs too; the kernel supplies the effects
//! only it can perform, in the impl below.
//!
//! Everything here runs below the `catch_unwind` boundary in
//! `Kernel::run_handler`: a panic in this file takes down the host process,
//! not the simulated machine, so values supplied by components (privileged
//! ones included) are range-checked where they enter.

use osiris_axiom::{AxiomEvent, CompStatusCode, ControlState};
use osiris_core::conduct::Host;
use osiris_core::watchdog::{quarantine_answers, Host as _};
use osiris_core::{
    decide_recovery, system_survives, ActionCode, CrashContext, Input, MessageKind,
    RecoveryDecision,
};
use osiris_metrics::{Note, Restart};
use osiris_trace::{TraceEvent, KERNEL_COMP};

use super::Kernel;
use crate::abi::{Errno, SysReply};
use crate::clock::cost;
use crate::component::{FaultEffect, PrivOp, Probe, SiteKind};
use crate::message::{Endpoint, Message, MsgId, Protocol};

/// Crash-time facts frozen until recovery executes.
pub(super) struct PendingCrash<P> {
    /// The request the component was serving: whole if the watchdog may
    /// re-drive it, else what its handler left of it (the header, at
    /// least).
    pub(super) msg: Message<P>,
    /// What the policy decides on. `in_recovery_code`: the fault hit while
    /// a conduct was in flight (only the RS runs then, so the RS failed
    /// mid-conduct).
    pub(super) ctx: CrashContext,
    /// The component was quiescent when the watchdog declared it dead (its
    /// handler had completed and its transaction committed; only the reply
    /// was lost or tampered with). The heap is consistent, so a policy
    /// verdict of "shut down" degrades to a keep-state restart instead.
    pub(super) quiescent: bool,
}

impl<P: Protocol> Kernel<P> {
    /// Notes one pre-recovery integrity check and reports whether it passed.
    fn checked<E>(&mut self, image: bool, check: Result<(), E>) -> bool {
        let ok = check.is_ok();
        self.series.note(Note::Checked { image, ok });
        ok
    }

    /// The tail every recovering action shares: a fresh server object cloned
    /// from the pristine one, re-bound to the heap as the action left it,
    /// noted as a restart of the component that kept `how` much.
    fn restart_server(&mut self, t: usize, how: Restart) {
        let comp = &mut self.comps[t];
        comp.server = comp
            .pristine_server
            .as_ref()
            .expect("pristine captured at init")
            .clone_box();
        comp.server.on_restore(&mut comp.heap);
        self.drain_stage(t);
        self.series.note(Note::Restarted { comp: t as u8, how });
    }

    /// Fault capture: component `idx`'s handler unwound while serving `msg`
    /// (`hung` when the panic was an injected wedge rather than a fail-stop
    /// crash). Seals the fault, freezes the crash-time facts and executes
    /// the conduct's decision.
    pub(super) fn capture_fault(
        &mut self,
        idx: usize,
        msg: Message<P>,
        reply_possible: bool,
        hung: bool,
    ) {
        // A mid-handler close (DisallowedSend / ThreadYield) may have been
        // staged before the panic propagated; seal it first so the axiom
        // orders the close before the fault event.
        self.seal_staged_close(idx);
        // Any capture starts a new recovery epoch: spans opened before this
        // point count as having crossed a recovery.
        self.recovery_epoch += 1;
        let comp = idx as u8;
        let input = if hung {
            // The component is wedged: it stops processing messages until
            // its detector declares it dead.
            self.seal(AxiomEvent::HangDetected { comp });
            Input::Hang(comp)
        } else {
            self.seal(AxiomEvent::Crash { comp });
            Input::Crash(comp)
        };
        let c = &mut self.comps[idx];
        let ctx = CrashContext {
            window_open: c.window.is_open(),
            reply_possible,
            in_recovery_code: self.control.recovering.is_some(),
            scoped_sends: c.window.had_scoped_sends(),
            requester_is_process: matches!(msg.src, Endpoint::Process(_)),
        };
        c.crash_info = Some(PendingCrash {
            msg,
            ctx,
            quiescent: false,
        });
        self.execute(self.decide(input));
    }

    /// Executes the privileged operations a handler queued. This is the
    /// single entry point for component-supplied endpoint indices: an op
    /// naming a component that does not exist is dropped here, so a faulty
    /// RS (inside the fault model) cannot index the kernel out of bounds.
    pub(super) fn execute_priv_ops(&mut self) {
        let mut ops = std::mem::take(&mut self.scratch.priv_ops);
        for op in ops.drain(..) {
            let target = match op {
                PrivOp::Recover { target }
                | PrivOp::KillHung { target }
                | PrivOp::Quarantine { target }
                | PrivOp::RefreshImage { target }
                | PrivOp::RecordIntent { target, .. }
                | PrivOp::NoteEscalation { target, .. } => Some(target),
                PrivOp::ControlledShutdown { .. } => None,
            };
            if target.is_some_and(|t| t as usize >= self.comps.len()) {
                continue;
            }
            match op {
                PrivOp::Recover { target } => self.execute_recovery(target),
                PrivOp::KillHung { target } => {
                    if self.control.status(target) == CompStatusCode::Hung {
                        self.stamp();
                        self.seal(AxiomEvent::Crash { comp: target });
                        self.execute_recovery(target);
                    }
                }
                PrivOp::ControlledShutdown { reason } => {
                    self.shut_down(self.control.recovering, reason.to_string())
                }
                PrivOp::Quarantine { target } => self.execute_quarantine(target),
                PrivOp::RefreshImage { target } => {
                    let refreshed = self.refresh_image(target);
                    self.seal(AxiomEvent::PoolRefresh {
                        comp: target,
                        refreshed,
                    });
                }
                PrivOp::RecordIntent { target, phase } => self.seal(AxiomEvent::IntentRecorded {
                    comp: target,
                    phase,
                }),
                PrivOp::NoteEscalation {
                    target,
                    restarts_in_window,
                    backoff,
                    exhausted,
                } => {
                    self.seal(AxiomEvent::EscalationStep {
                        comp: target,
                        restarts_in_window,
                        backoff,
                        exhausted,
                    });
                    self.stamp();
                    if backoff > 0 {
                        let delay = backoff;
                        self.emit(KERNEL_COMP, TraceEvent::BackoffArmed { target, delay });
                    }
                    if exhausted {
                        self.emit(KERNEL_COMP, TraceEvent::BudgetExhausted { target });
                    }
                }
            }
        }
        self.scratch.priv_ops = ops;
    }

    /// Refreshes `target`'s spare clone image against the content-addressed
    /// pool (requested by the RS off the recovery hot path) and reports
    /// whether it did. The refresh is incremental: objects whose dirty epoch
    /// still matches the manifest reshare their chunks, so a clean heap
    /// costs a refcount sweep, not a copy. A dead/benched component or a
    /// heap that diverged from the pristine image skips the refresh (the
    /// spare copy must stay pristine).
    fn refresh_image(&mut self, target: u8) -> bool {
        let alive = self.control.status(target) == CompStatusCode::Alive;
        let comp = &mut self.comps[target as usize];
        let prev = match comp.pristine_image.take() {
            Some(prev) if alive && comp.heap.clean_for(&prev) => prev,
            kept => {
                comp.pristine_image = kept;
                return false;
            }
        };
        let fresh = comp.heap.clone_image(&mut self.cas, Some(&prev));
        prev.release(&mut self.cas);
        comp.pristine_image = Some(fresh);
        true
    }

    /// Benches a crash-looping component: reconciles its pending requester
    /// with a crash reply unless the handler's reply got through, seals it
    /// [`CompStatusCode::Quarantined`] (never scheduled again), and
    /// unstalls the system. Its queued and future requests are bounced by
    /// [`Kernel::bounce_quarantined_mail`].
    fn execute_quarantine(&mut self, target: u8) {
        let t = target as usize;
        self.stamp();
        if let Some(pending) = self.comps[t].crash_info.take() {
            // A reply the watchdog still watches for was lost or rejected.
            let watched = self.wd.find(pending.msg.id.0).is_some();
            if quarantine_answers(pending.ctx.reply_possible, watched) {
                self.send_crash_reply(target, pending.msg);
            }
        }
        // A benched component will never be restarted: return its clone
        // image's chunk references to the pool so shared chunks survive
        // only as long as some live component still needs them.
        if let Some(image) = self.comps[t].pristine_image.take() {
            image.release(&mut self.cas);
        }
        // The Quarantined axiom event sets the status, resolves the intent
        // and clears the window bit in the control-state fold.
        self.seal(AxiomEvent::Quarantined { comp: target });
    }

    /// Drains the inboxes of quarantined components: requests are answered
    /// with an immediate crash reply (error virtualization without running
    /// the component), replies and notifications are dropped.
    pub(super) fn bounce_quarantined_mail(&mut self) {
        for idx in 0..self.comps.len() {
            if self.control.status(idx as u8) != CompStatusCode::Quarantined {
                continue;
            }
            while let Some(msg) = self.comps[idx].inbox.pop_front() {
                if msg.seep.kind == MessageKind::Request {
                    self.series.note(Note::Refused { comp: idx as u8 });
                    self.stamp();
                    self.send_crash_reply(idx as u8, msg);
                }
            }
        }
    }

    /// Consults the fault hook at a kernel recovery-phase site: a fail-stop
    /// or hang effect here means the phase itself failed (the kernel cannot
    /// panic — it runs below the `catch_unwind` boundary, so the effect is
    /// absorbed as "this phase cannot be executed").
    fn recovery_phase_faulted(&mut self, site: &'static str) -> bool {
        let probe = Probe {
            component: "kernel",
            site,
            kind: SiteKind::Block,
            now: self.clock.now(),
            window_open: false,
            replyable: false,
        };
        matches!(
            self.hook.on_site(&probe),
            FaultEffect::Panic | FaultEffect::Hang
        )
    }

    /// Stops the machine in a controlled way, ending the conduct for
    /// `target`, if any: its intent is resolved and, while the grace window
    /// is open, the request whose crash started the conduct is answered
    /// with `ESHUTDOWN`, so its caller can save its state instead of
    /// blocking forever. The crashed component stays dead. The policy, the
    /// fallback chain and the escalation ladder all shut down through here.
    fn shut_down(&mut self, target: Option<u8>, reason: String) {
        self.series.note(Note::ControlledShutdown);
        let failed = target.and_then(|t| {
            self.resolve_intent(t);
            self.comps[t as usize].crash_info.take()
        });
        self.begin_controlled_shutdown(reason);
        let grace = self.shutdown_pending.is_some();
        let (Some(target), Some(failed), true) = (target, failed, grace) else {
            return;
        };
        match (failed.msg.src, failed.msg.user_tag) {
            (Endpoint::Process(pid), Some(sid)) => self.reply_to_user(
                target,
                sid,
                pid,
                failed.msg.span,
                SysReply::Err(Errno::ESHUTDOWN),
            ),
            (Endpoint::Component(_), _) => self.send_crash_reply(target, failed.msg),
            _ => {}
        }
    }

    /// Executes the three recovery phases — restart, rollback,
    /// reconciliation — for the crashed component `target` (paper §IV-C).
    pub(super) fn execute_recovery(&mut self, target: u8) {
        let t = target as usize;
        let Some(pending) = self.comps[t].crash_info.take() else {
            // Spurious request (e.g. the component already recovered, or a
            // stale backoff timer fired after a quarantine).
            self.execute(self.decide(Input::Recovered(target)));
            return;
        };
        self.stamp();
        let mut decision = decide_recovery(self.cfg.policy.as_ref(), &pending.ctx);
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
        self.seal(AxiomEvent::RecoveryDecision {
            comp: target,
            action: decision.action,
        });
        // Attempt loop: each recovery phase is itself fallible — a journal
        // or image integrity violation, or a fault injected inside the
        // phase, degrades to the next rung of the fallback chain instead of
        // executing a phase whose inputs cannot be trusted.
        let mut action = decision.action;
        let mut recovery_cycles = cost::RECONCILE;
        loop {
            match action {
                ActionCode::UncontrolledCrash if pending.ctx.in_recovery_code => {
                    // The policy (correctly) refuses to recover a fault in
                    // recovery code under the single-fault model. The intent
                    // log makes the interrupted conduct re-drivable, so the
                    // RS restarts fresh instead of taking the system down.
                    action = self.fall_back(target, action, false);
                }
                ActionCode::RollbackErrorReply | ActionCode::RollbackKillRequester => {
                    let journal_ok = self.checked(false, self.comps[t].heap.verify_journal());
                    if !journal_ok || self.recovery_phase_faulted("kernel.recovery.rollback") {
                        action = self.fall_back(target, action, false);
                        continue;
                    }
                    let comp = &mut self.comps[t];
                    // Restart phase: swap in the spare clone, transfer only
                    // the state that diverged from it (O(dirty), not O(heap)).
                    let dirty_bytes = comp
                        .pristine_image
                        .as_ref()
                        .map(|i| i.dirty_bytes_for(&comp.heap))
                        .unwrap_or_else(|| comp.heap.resident_bytes());
                    recovery_cycles +=
                        cost::RESTART_BASE + (dirty_bytes as u64 / 1024) * cost::RESTART_PER_KB;
                    // Rollback phase: apply the undo log in reverse.
                    recovery_cycles += comp.heap.log_len() as u64 * cost::UNDO_ROLLBACK;
                    comp.window.rollback(&mut comp.heap);
                    self.restart_server(t, Restart::Rollback);
                    break;
                }
                ActionCode::FreshRestart => {
                    let image = self.comps[t]
                        .pristine_image
                        .as_ref()
                        .expect("pristine captured at init");
                    let image_ok = self.checked(true, image.verify());
                    if !image_ok || self.recovery_phase_faulted("kernel.recovery.restart") {
                        action = self.fall_back(target, action, false);
                        continue;
                    }
                    // Copy-on-write restore: verify and write back only the
                    // chunks of objects that diverged from the manifest. A
                    // chunk-digest or accounting violation here surfaces
                    // before any mutation, so a corrupt pool image degrades
                    // down the fallback chain with the heap intact.
                    let comp = &mut self.comps[t];
                    let image = comp
                        .pristine_image
                        .as_ref()
                        .expect("pristine captured at init");
                    let Ok(stats) = comp.heap.restore_image(image, &self.cas) else {
                        self.series.note(Note::Checked {
                            image: true,
                            ok: false,
                        });
                        action = self.fall_back(target, action, false);
                        continue;
                    };
                    self.drain_stage(t);
                    // Restart cost is proportional to the bytes actually
                    // copied, not to the resident heap size.
                    recovery_cycles += cost::RESTART_BASE
                        + (stats.bytes_restored as u64 / 1024) * cost::RESTART_PER_KB;
                    self.emit(
                        KERNEL_COMP,
                        TraceEvent::CowRestore {
                            target,
                            clean: stats.clean_chunks.min(u32::MAX as u64) as u32,
                            dirty: stats.dirty_chunks.min(u32::MAX as u64) as u32,
                            bytes: stats.bytes_restored.min(u32::MAX as usize) as u32,
                        },
                    );
                    let comp = &mut self.comps[t];
                    comp.window.complete(&mut comp.heap);
                    self.restart_server(t, Restart::Fresh);
                    break;
                }
                ActionCode::ContinueAsIs => {
                    let comp = &mut self.comps[t];
                    recovery_cycles += cost::RESTART_BASE;
                    comp.window.complete(&mut comp.heap);
                    let kept = [Restart::Naive, Restart::Quiescent];
                    self.restart_server(t, kept[usize::from(pending.quiescent)]);
                    break;
                }
                ActionCode::ControlledShutdown => {
                    let reason = format!(
                        "unrecoverable crash in {} (window {}, reply {})",
                        self.comps[t].name,
                        ["closed", "open"][usize::from(pending.ctx.window_open)],
                        ["impossible", "possible"][usize::from(pending.ctx.reply_possible)],
                    );
                    self.comps[t].crash_info = Some(pending);
                    self.shut_down(Some(target), reason);
                    return;
                }
                ActionCode::UncontrolledCrash => {
                    let reason = format!(
                        "fault in recovery path while handling crash of {}",
                        self.comps[t].name
                    );
                    self.crash_shutdown(reason);
                    return;
                }
            }
        }

        self.clock.advance(recovery_cycles);
        self.stamp();
        // The rollback/complete above staged a window close for the
        // in-flight request; seal it before declaring the recovery done so
        // the axiom's event order matches the causal order.
        self.seal_staged_close(t);
        self.seal(AxiomEvent::RecoveryDone {
            comp: target,
            cycles: recovery_cycles,
        });
        // A completed recovery also advances the epoch, so spans opened
        // while the recovery was in flight are flagged at close.
        self.recovery_epoch += 1;
        self.execute(self.decide(Input::Recovered(target)));

        // Reconciliation phase: error virtualization — tell the requester
        // the call failed so it can handle it like any other error — or the
        // kill-requester extension (paper §VII): the requester's exit path
        // cleans the scoped state its window had already exported. A fault
        // here means the requester's view cannot be reconciled: the
        // component is restored, but the only consistent global outcome
        // left is a controlled shutdown.
        if self.recovery_phase_faulted("kernel.recovery.reconcile") {
            self.fall_back(target, action, true);
            let reason = format!(
                "fault in reconciliation after recovering {}",
                self.comps[t].name
            );
            self.comps[t].crash_info = Some(pending);
            self.shut_down(Some(target), reason);
            return;
        }
        if decision.action == ActionCode::RollbackKillRequester {
            if let (Endpoint::Process(pid), Some(rs)) = (pending.msg.src, self.rs_ep) {
                let msg = self.kernel_msg(rs, None, P::kill_requester(pid));
                self.comps[rs as usize].inbox.push_back(msg);
            }
        } else if decision.error_reply {
            self.send_crash_reply(target, pending.msg);
        }
    }

    /// Error virtualization: answers the requester of `failed` with
    /// `E_CRASH` on behalf of component `from`, unless the watchdog re-drives
    /// the request instead.
    pub(super) fn send_crash_reply(&mut self, from: u8, failed: Message<P>) {
        // A request the watchdog watched is the watchdog's to answer: it
        // re-drives it after a backoff, or comes back here for `E_CRASH`.
        let Some(failed) = self.fails(failed.id.0, failed) else {
            return;
        };
        match failed.src {
            Endpoint::Process(pid) => {
                let sid = failed.user_tag.expect("user request carries a syscall tag");
                self.reply_to_user(from, sid, pid, failed.span, SysReply::Err(Errno::ECRASH));
            }
            Endpoint::Component(c) => {
                self.next_msg_id += 1;
                let (id, src) = (MsgId(self.next_msg_id), Endpoint::Component(from));
                let msg = Message::reply(id, src, failed.return_path(), P::crash_reply());
                self.comps[c as usize].inbox.push_back(msg);
            }
            Endpoint::Kernel => {
                // Kernel notifications get no reply.
            }
        }
    }
}

impl<P: Protocol> Host for Kernel<P> {
    fn control(&self) -> &ControlState {
        &self.control
    }

    fn rs(&self) -> Option<u8> {
        self.rs_ep
    }

    fn seal(&mut self, event: AxiomEvent) {
        Kernel::seal(self, event);
    }

    fn stamp(&mut self) {
        Kernel::stamp(self);
    }

    fn notify_rs(&mut self, comp: u8) {
        let Some(rs) = self.rs_ep else { return };
        let notify = self.kernel_msg(rs, None, P::crash_notify(comp));
        self.comps[rs as usize].inbox.push_back(notify);
    }

    fn rs_queued(&self, rs: u8, comp: u8) -> bool {
        let notified = |m: &Message<P>| m.payload.crash_notify_target() == Some(comp);
        self.comps[rs as usize].inbox.iter().any(notified)
    }

    fn recover(&mut self, comp: u8) {
        self.execute_recovery(comp);
    }

    fn replayed(&mut self, redriven: bool) {
        self.series.note(Note::IntentReplay { redriven });
    }
}
