//! The recovery plane: crash capture, the Recovery Server hand-off and its
//! persisted intents, privileged operations, quarantine, and the three
//! recovery phases with their fallback chain (paper §IV-C).
//!
//! Everything here runs below the `catch_unwind` boundary in
//! `Kernel::run_handler`: a panic in this file takes down the host process,
//! not the simulated machine, so values supplied by components (privileged
//! ones included) are range-checked where they enter.

use osiris_axiom::{AxiomEvent, CompStatusCode, IntentPhaseCode};
use osiris_core::{
    decide_recovery, fallback_action, ActionCode, CrashContext, MessageKind, RecoveryDecision,
    RecoveryWindow,
};
use osiris_metrics::{CounterId, Registry};
use osiris_trace::{TraceEvent, KERNEL_COMP};

use super::Kernel;
use crate::abi::{Errno, SysReply};
use crate::clock::cost;
use crate::component::{FaultEffect, PrivOp, Probe, SiteKind};
use crate::message::{Endpoint, Message, MsgId, Protocol};

/// Crash-time facts frozen until recovery executes.
pub(super) struct PendingCrash<P> {
    pub(super) msg: Message<P>,
    pub(super) window_open: bool,
    pub(super) reply_possible: bool,
    pub(super) scoped_sends: bool,
    /// The crash happened while another component's recovery was in flight
    /// (only the RS can run then, so this means the RS crashed mid-conduct).
    pub(super) in_recovery_code: bool,
    /// The component was quiescent when the watchdog declared it dead (its
    /// handler had completed and its transaction committed; only the reply
    /// was lost or tampered with). The heap is consistent, so a policy
    /// verdict of "shut down" degrades to a keep-state restart instead.
    pub(super) quiescent: bool,
}

impl<P> PendingCrash<P> {
    /// Freezes the facts of a handler that unwound while serving `msg`.
    fn mid_request(
        window: &RecoveryWindow,
        msg: Message<P>,
        reply_possible: bool,
        in_recovery_code: bool,
    ) -> Self {
        PendingCrash {
            msg,
            window_open: window.is_open(),
            reply_possible,
            scoped_sends: window.had_scoped_sends(),
            in_recovery_code,
            quiescent: false,
        }
    }
}

/// How many times an in-flight recovery intent is re-driven through the RS
/// before the kernel completes it directly.
///
/// The intent log itself is no separate record: it is the set of active
/// [`osiris_axiom::IntentSlot`]s in the kernel's control state — a pure view
/// over the axiom tail (`IntentRecorded` / `IntentReplayed` /
/// `IntentResolved` events), refined by the RS via [`PrivOp::RecordIntent`]
/// as the conduct progresses.
const MAX_INTENT_REPLAYS: u32 = 2;

/// Counts one pre-recovery integrity check and reports whether it passed.
fn integrity_ok<E>(
    metrics: &mut Registry,
    check: Result<(), E>,
    ok: CounterId,
    corrupt: CounterId,
) -> bool {
    metrics.inc(if check.is_ok() { ok } else { corrupt });
    check.is_ok()
}

impl<P: Protocol> Kernel<P> {
    /// The tail every recovering action shares: a fresh server object cloned
    /// from the pristine one, re-bound to the heap as the action left it,
    /// counted as a recovery of the component and under its `action`.
    fn restart_server(&mut self, t: usize, action: CounterId) {
        let comp = &mut self.comps[t];
        comp.server = comp
            .pristine_server
            .as_ref()
            .expect("pristine captured at init")
            .clone_box();
        comp.server.on_restore(&mut comp.heap);
        self.metrics.inc(comp.stats.recoveries);
        self.metrics.inc(action);
    }

    /// Crash capture: component `idx`'s handler unwound while serving `msg`
    /// (`hung` when the panic was an injected wedge rather than a fail-stop
    /// crash). Freezes the crash-time facts and starts the recovery.
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
        if hung {
            // The component is wedged: it stops processing messages until
            // the Recovery Server's heartbeat declares it dead.
            self.metrics.inc(self.counters.hangs);
            self.seal(AxiomEvent::HangDetected { comp: idx as u8 });
            let in_recovery_code = self.recovering.is_some();
            let comp = &mut self.comps[idx];
            comp.crash_info = Some(PendingCrash::mid_request(
                &comp.window,
                msg,
                reply_possible,
                in_recovery_code,
            ));
        } else {
            self.metrics.inc(self.comps[idx].stats.crashes);
            self.seal(AxiomEvent::Crash { comp: idx as u8 });
            self.handle_crash(idx, msg, reply_possible);
        }
    }

    fn handle_crash(&mut self, idx: usize, msg: Message<P>, reply_possible: bool) {
        let in_recovery_code = self.recovering.is_some();
        if in_recovery_code && self.rs_ep != Some(idx as u8) {
            // While a recovery is in flight only the RS is scheduled, so a
            // second crash in any *other* component cannot happen; keep the
            // defensive shutdown for the impossible case.
            self.crash_shutdown(format!(
                "component {} crashed during recovery of another component",
                self.comps[idx].name
            ));
            return;
        }
        let comp = &mut self.comps[idx];
        comp.crash_info = Some(PendingCrash::mid_request(
            &comp.window,
            msg,
            reply_possible,
            in_recovery_code,
        ));

        if in_recovery_code {
            // The RS crashed mid-conduct. The kernel recovers the RS itself,
            // then re-drives the persisted intents of the interrupted
            // conduct — this is what lifts the paper's single-fault
            // limitation for faults in the recovery path.
            self.recovering = None;
            self.execute_recovery(idx as u8);
            self.replay_intents();
            return;
        }
        self.start_recovery(idx as u8);
    }

    /// Marks `target` fail-stopped: the crash tally and the sealed `Crash`
    /// event, which the control state folds into its status. The caller
    /// owns its pending crash and its recovery.
    pub(super) fn mark_crashed(&mut self, target: u8) {
        self.metrics.inc(self.comps[target as usize].stats.crashes);
        self.seal(AxiomEvent::Crash { comp: target });
    }

    /// Starts the recovery of crashed component `target`: through the
    /// Recovery Server's conduct (intent recorded, crash notification
    /// queued, the system stalled until it completes), or directly when the
    /// RS itself crashed or no RS exists (paper §V: "all core system
    /// components, including RS itself, can be recovered").
    pub(super) fn start_recovery(&mut self, target: u8) {
        match self.rs_ep {
            Some(rs) if rs != target => {
                self.recovering = Some(target);
                self.note_intent(target, IntentPhaseCode::Notified);
                let notify = self.kernel_msg(rs, None, P::crash_notify(target));
                self.comps[rs as usize].inbox.push_back(notify);
            }
            _ => self.execute_recovery(target),
        }
    }

    /// Updates (or creates) the persisted recovery intent for `target`:
    /// recording an intent is an axiom event, and the live intent table is
    /// the control-state reduction of the axiom tail.
    fn note_intent(&mut self, target: u8, phase: IntentPhaseCode) {
        self.seal(AxiomEvent::IntentRecorded {
            comp: target,
            phase,
        });
    }

    /// Marks the intent for `target` resolved (recovery completed, target
    /// quarantined, or the intent found stale during re-drive).
    fn resolve_intent(&mut self, target: u8) {
        if self.control.intent(target).active {
            self.seal(AxiomEvent::IntentResolved { comp: target });
        }
    }

    /// Re-drives the persisted recovery intents after the RS itself was
    /// recovered: each interrupted conduct is re-notified to the restarted
    /// RS, or — after [`MAX_INTENT_REPLAYS`] replays keep crashing it —
    /// completed by the kernel directly.
    fn replay_intents(&mut self) {
        if self.shutdown.is_some() || self.shutdown_pending.is_some() {
            return;
        }
        let Some(rs) = self.rs_ep else { return };
        if self.control.status(rs) != CompStatusCode::Alive {
            return;
        }
        let targets: Vec<u8> = self.control.active_intents().collect();
        for target in targets {
            if self.control.status(target) != CompStatusCode::Crashed
                || self.comps[target as usize].crash_info.is_none()
            {
                // The recovery actually completed (or the component was
                // quarantined) before the RS died; nothing to re-drive.
                self.resolve_intent(target);
                continue;
            }
            self.tracer.set_now(self.clock.now());
            self.seal(AxiomEvent::IntentReplayed { comp: target });
            if self.control.intent(target).replays <= MAX_INTENT_REPLAYS {
                self.metrics.inc(self.counters.intent_replays);
                if self.recovering.is_none() {
                    self.recovering = Some(target);
                }
                let notify = self.kernel_msg(rs, None, P::crash_notify(target));
                self.comps[rs as usize].inbox.push_back(notify);
            } else {
                // The RS keeps dying while conducting this recovery
                // (a persistent fault in its conduct path): stop trusting it
                // with this target and complete the recovery directly.
                self.metrics.inc(self.counters.intent_completed);
                self.recovering = Some(target);
                self.execute_recovery(target);
            }
        }
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
                        self.tracer.set_now(self.clock.now());
                        self.mark_crashed(target);
                        self.execute_recovery(target);
                    }
                }
                PrivOp::ControlledShutdown { reason } => {
                    self.metrics.inc(self.counters.controlled_shutdowns);
                    self.begin_controlled_shutdown(reason.to_string());
                }
                PrivOp::Quarantine { target } => self.execute_quarantine(target),
                PrivOp::RefreshImage { target } => {
                    let refreshed = self.refresh_image(target);
                    self.seal(AxiomEvent::PoolRefresh {
                        comp: target,
                        refreshed,
                    });
                }
                PrivOp::RecordIntent { target, phase } => self.note_intent(target, phase),
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
                    let stats = self.comps[target as usize].stats;
                    self.metrics
                        .set(stats.escalation_restarts_window, restarts_in_window as u64);
                    self.tracer.set_now(self.clock.now());
                    if backoff > 0 {
                        self.metrics.inc(stats.escalation_backoff_arms);
                        let delay = backoff;
                        self.tracer
                            .emit(KERNEL_COMP, TraceEvent::BackoffArmed { target, delay });
                    }
                    if exhausted {
                        self.metrics.inc(stats.escalation_budget_exhausted);
                        self.tracer
                            .emit(KERNEL_COMP, TraceEvent::BudgetExhausted { target });
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
        let Kernel {
            comps,
            cas,
            counters,
            metrics,
            control,
            ..
        } = self;
        let alive = control.status(target) == CompStatusCode::Alive;
        let comp = &mut comps[target as usize];
        let prev = match comp.pristine_image.take() {
            Some(prev) if alive && comp.heap.clean_for(&prev) => prev,
            kept => {
                comp.pristine_image = kept;
                metrics.inc(counters.pool_refresh_skipped);
                return false;
            }
        };
        let fresh = comp.heap.clone_image(cas, Some(&prev));
        prev.release(cas);
        comp.pristine_image = Some(fresh);
        metrics.inc(counters.pool_refreshed);
        true
    }

    /// Benches a crash-looping component: reconciles its pending requester
    /// with a crash reply, seals it [`CompStatusCode::Quarantined`] (never
    /// scheduled again), and unstalls the system. Its queued and future
    /// requests are bounced by [`Kernel::bounce_quarantined_mail`].
    fn execute_quarantine(&mut self, target: u8) {
        let t = target as usize;
        self.tracer.set_now(self.clock.now());
        if let Some(pending) = self.comps[t].crash_info.take() {
            self.send_crash_reply(target, pending.msg);
        }
        self.metrics.inc(self.comps[t].stats.quarantines);
        // A benched component will never be restarted: return its clone
        // image's chunk references to the pool so shared chunks survive
        // only as long as some live component still needs them.
        if let Some(image) = self.comps[t].pristine_image.take() {
            image.release(&mut self.cas);
        }
        // The Quarantined axiom event sets the status, resolves the intent
        // and clears the window bit in the control-state fold.
        self.seal(AxiomEvent::Quarantined { comp: target });
        if self.recovering == Some(target) {
            self.recovering = None;
        }
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
                    self.metrics.inc(self.comps[idx].stats.quarantine_refusals);
                    self.tracer.set_now(self.clock.now());
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

    /// Seals one step down the fallback chain for `target`'s recovery.
    fn seal_fallback(&mut self, target: u8, from: ActionCode, to: ActionCode) {
        self.seal(AxiomEvent::RecoveryFallback {
            comp: target,
            from,
            to,
        });
    }

    /// Degrades `action` to the next rung of the fallback chain, counting
    /// and sealing the transition.
    fn note_fallback(&mut self, action: &mut ActionCode, target: u8) {
        let from = *action;
        let to = fallback_action(from).expect("terminal recovery actions have no phase to fail");
        self.metrics.inc(match from {
            ActionCode::RollbackErrorReply | ActionCode::RollbackKillRequester => {
                self.counters.fb_rollback_fresh
            }
            _ => self.counters.fb_fresh_shutdown,
        });
        self.tracer.set_now(self.clock.now());
        self.seal_fallback(target, from, to);
        *action = to;
    }

    /// Executes the three recovery phases — restart, rollback,
    /// reconciliation — for the crashed component `target` (paper §IV-C).
    pub(super) fn execute_recovery(&mut self, target: u8) {
        let t = target as usize;
        let Some(pending) = self.comps[t].crash_info.take() else {
            // Spurious request (e.g. the component already recovered, or a
            // stale backoff timer fired after a quarantine).
            self.resolve_intent(target);
            if self.recovering == Some(target) {
                self.recovering = None;
            }
            return;
        };
        self.tracer.set_now(self.clock.now());
        let crash_ctx = CrashContext {
            window_open: pending.window_open,
            reply_possible: pending.reply_possible,
            in_recovery_code: pending.in_recovery_code,
            scoped_sends: pending.scoped_sends,
            requester_is_process: matches!(pending.msg.src, Endpoint::Process(_)),
        };
        let mut decision = decide_recovery(self.cfg.policy.as_ref(), &crash_ctx);
        if pending.quiescent
            && matches!(
                decision.action,
                ActionCode::ControlledShutdown | ActionCode::UncontrolledCrash
            )
        {
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
        if decision.action == ActionCode::UncontrolledCrash && pending.in_recovery_code {
            // The policy (correctly) refuses to recover a fault in recovery
            // code under the single-fault model. The kernel's intent log
            // makes the interrupted conduct re-drivable, so the crashed RS
            // can be fresh-restarted instead of taking the system down.
            self.metrics.inc(self.counters.fb_crash_fresh);
            self.seal_fallback(
                target,
                ActionCode::UncontrolledCrash,
                ActionCode::FreshRestart,
            );
            decision = RecoveryDecision::new(ActionCode::FreshRestart, false);
        }

        // Attempt loop: each recovery phase is itself fallible — a journal
        // or image integrity violation, or a fault injected inside the
        // phase, degrades to the next rung of the fallback chain instead of
        // executing a phase whose inputs cannot be trusted.
        let mut action = decision.action;
        let mut recovery_cycles = cost::RECONCILE;
        loop {
            match action {
                ActionCode::RollbackErrorReply | ActionCode::RollbackKillRequester => {
                    let journal_ok = integrity_ok(
                        &mut self.metrics,
                        self.comps[t].heap.verify_journal(),
                        self.counters.journal_ok,
                        self.counters.journal_corrupt,
                    );
                    if !journal_ok || self.recovery_phase_faulted("kernel.recovery.rollback") {
                        self.note_fallback(&mut action, target);
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
                    self.restart_server(t, self.counters.recovered_rollback);
                    break;
                }
                ActionCode::FreshRestart => {
                    let image = self.comps[t]
                        .pristine_image
                        .as_ref()
                        .expect("pristine captured at init");
                    let image_ok = integrity_ok(
                        &mut self.metrics,
                        image.verify(),
                        self.counters.image_ok,
                        self.counters.image_corrupt,
                    );
                    if !image_ok || self.recovery_phase_faulted("kernel.recovery.restart") {
                        self.note_fallback(&mut action, target);
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
                        self.metrics.inc(self.counters.image_corrupt);
                        self.note_fallback(&mut action, target);
                        continue;
                    };
                    self.metrics
                        .add(self.counters.restart_chunks_clean, stats.clean_chunks);
                    self.metrics
                        .add(self.counters.restart_chunks_dirty, stats.dirty_chunks);
                    // Restart cost is proportional to the bytes actually
                    // copied, not to the resident heap size.
                    recovery_cycles += cost::RESTART_BASE
                        + (stats.bytes_restored as u64 / 1024) * cost::RESTART_PER_KB;
                    self.tracer.emit(
                        KERNEL_COMP,
                        TraceEvent::CowRestore {
                            target,
                            clean: stats.clean_chunks.min(u32::MAX as u64) as u32,
                            dirty: stats.dirty_chunks.min(u32::MAX as u64) as u32,
                            bytes: stats.bytes_restored.min(u32::MAX as usize) as u32,
                        },
                    );
                    comp.window.complete(&mut comp.heap);
                    self.restart_server(t, self.counters.recovered_fresh);
                    break;
                }
                ActionCode::ContinueAsIs => {
                    let comp = &mut self.comps[t];
                    recovery_cycles += cost::RESTART_BASE;
                    comp.window.complete(&mut comp.heap);
                    self.restart_server(
                        t,
                        if pending.quiescent {
                            self.counters.recovered_quiescent
                        } else {
                            self.counters.recovered_naive
                        },
                    );
                    break;
                }
                ActionCode::ControlledShutdown => {
                    self.metrics.inc(self.counters.controlled_shutdowns);
                    let reason = format!(
                        "unrecoverable crash in {} (window {}, reply {})",
                        self.comps[t].name,
                        if pending.window_open {
                            "open"
                        } else {
                            "closed"
                        },
                        if pending.reply_possible {
                            "possible"
                        } else {
                            "impossible"
                        },
                    );
                    // The crashed component stays dead during the grace
                    // window.
                    self.resolve_intent(target);
                    self.recovering = None;
                    self.begin_controlled_shutdown(reason);
                    if self.shutdown_pending.is_some() {
                        // Grace is active: answer the failure-triggering
                        // request with ESHUTDOWN so the caller can proceed
                        // to save its state instead of blocking forever.
                        match (pending.msg.src, pending.msg.user_tag) {
                            (Endpoint::Process(pid), Some(sid)) => self.reply_to_user(
                                target,
                                sid,
                                pid,
                                pending.msg.span,
                                SysReply::Err(Errno::ESHUTDOWN),
                            ),
                            (Endpoint::Component(_), _) => {
                                self.send_crash_reply(target, pending.msg)
                            }
                            _ => {}
                        }
                    }
                    return;
                }
                ActionCode::UncontrolledCrash => {
                    let reason = format!(
                        "fault in recovery path while handling crash of {}",
                        self.comps[t].name
                    );
                    self.recovering = None;
                    self.crash_shutdown(reason);
                    return;
                }
            }
        }

        self.metrics
            .add(self.counters.recovery_cycles, recovery_cycles);
        self.clock.advance(recovery_cycles);
        self.tracer.set_now(self.clock.now());
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
        self.metrics
            .observe(self.comps[t].stats.recovery_hist, recovery_cycles);
        self.recovering = None;
        self.resolve_intent(target);

        // Reconciliation phase: error virtualization — tell the requester
        // the call failed so it can handle it like any other error — or the
        // kill-requester extension (paper §VII): the requester's exit path
        // cleans the scoped state its window had already exported. A fault
        // here means the requester's view cannot be reconciled: the
        // component is restored, but the only consistent global outcome
        // left is a controlled shutdown.
        if self.recovery_phase_faulted("kernel.recovery.reconcile") {
            self.metrics.inc(self.counters.fb_reconcile_shutdown);
            self.seal_fallback(target, action, ActionCode::ControlledShutdown);
            self.metrics.inc(self.counters.controlled_shutdowns);
            self.begin_controlled_shutdown(format!(
                "fault in reconciliation after recovering {}",
                self.comps[t].name
            ));
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
        // Transparent-retry interception: if the failed request had an
        // armed watchdog deadline and is safe to re-drive, re-deliver it
        // after a backoff instead of surfacing `E_CRASH`.
        let Some(failed) = self.watchdog_intercept_crash_reply(from, failed) else {
            return;
        };
        match failed.src {
            Endpoint::Process(pid) => {
                let sid = failed.user_tag.expect("user request carries a syscall tag");
                self.reply_to_user(from, sid, pid, failed.span, SysReply::Err(Errno::ECRASH));
            }
            Endpoint::Component(c) => {
                self.next_msg_id += 1;
                let payload = P::crash_reply();
                let msg = Message {
                    id: MsgId(self.next_msg_id),
                    src: Endpoint::Component(from),
                    dst: failed.src,
                    reply_to: Some(failed.id),
                    user_tag: failed.user_tag,
                    seep: payload.seep(),
                    span: failed.span,
                    integrity: 0,
                    payload,
                };
                self.comps[c as usize].inbox.push_back(msg);
            }
            Endpoint::Kernel => {
                // Kernel notifications get no reply.
            }
        }
    }
}
