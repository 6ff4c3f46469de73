//! The recovery plane's effects: privileged operations and what recovery
//! does to heaps, images, the clock and inboxes (paper §IV-C). What
//! [`osiris_core::conduct`] decides, and the control flow that executes it
//! — crash capture, the Recovery Server hand-off and its intents, the three
//! recovery phases with their fallback chain, the controlled shutdown, the
//! quarantine and its bounce — are `conduct::Host`'s provided methods,
//! which `osiris-core`'s closure searches run too; the kernel supplies only
//! the effects, in the impl below. That impl also holds the kernel's one
//! `seal`, `stamp` and `emit`, which the whole kernel reports through.
//!
//! Everything here runs below the `catch_unwind` boundary in
//! `Kernel::run_handler`: a panic in this file takes down the host process,
//! not the simulated machine, so values supplied by components (privileged
//! ones included) are range-checked where they enter.

use osiris_axiom::{AxiomEvent, CompStatusCode, ControlState};
use osiris_core::conduct::{Host, PendingCrash};
use osiris_core::watchdog::Host as _;
use osiris_core::{MessageKind, RecoveryPolicy};
use osiris_metrics::{Note, Restart};
use osiris_trace::{trace_twin, TraceEvent, KERNEL_COMP};

use super::Kernel;
use crate::abi::{Errno, SysReply};
use crate::clock::cost;
use crate::component::{FaultEffect, PrivOp, Probe, SiteKind};
use crate::engine::ShutdownKind;
use crate::message::{Endpoint, Message, MsgId, Protocol};

impl<P: Protocol> Kernel<P> {
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
                PrivOp::Recover { target } => self.recover(target),
                PrivOp::KillHung { target } => self.kill_hung(target),
                PrivOp::ControlledShutdown { reason } => {
                    self.shut_down(self.control.recovering, reason.to_string())
                }
                PrivOp::Quarantine { target } => self.quarantine(target),
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
}

impl<P: Protocol> Host for Kernel<P> {
    type Msg = Message<P>;

    fn control(&self) -> &ControlState {
        &self.control
    }

    fn rs(&self) -> Option<u8> {
        self.rs_ep
    }

    fn policy(&self) -> &dyn RecoveryPolicy {
        self.cfg.policy.as_ref()
    }

    fn name(&self, comp: u8) -> &'static str {
        self.comps[comp as usize].name
    }

    fn pending(&mut self, comp: u8) -> &mut Option<PendingCrash<Message<P>>> {
        &mut self.comps[comp as usize].crash_info
    }

    /// Seals `event` into the axiom: folds it into the live control state
    /// (always — the fold *is* the control plane), appends it to the
    /// digest-chained log (only when recording is enabled), hands it to the
    /// metric fold, and records its flight-recorder twin, if it has one, at
    /// the tracer's current stamp (the fold reads the sealed event, not the
    /// twin). Inlined like [`Host::emit`].
    #[inline]
    fn seal(&mut self, event: AxiomEvent) {
        if let Some((lane, twin)) = trace_twin(&event) {
            self.ring(lane, twin);
        }
        let now = self.clock.now();
        self.control.apply(now, &event);
        self.series.sealed(&event);
        self.axiom.append(now, event);
    }

    fn stamp(&mut self) {
        debug_assert!(self.stages_drained(), "restamp over staged events");
        self.tracer.set_now(self.clock.now());
    }

    /// Reports a kernel-side occurrence on lane `comp`: to the ring, and to
    /// the metric fold whether or not the ring records. Inlined, so each
    /// call site folds through its one arm.
    #[inline]
    fn emit(&mut self, comp: u8, event: TraceEvent) {
        self.ring(comp, event);
        self.series.trace(comp, &event);
    }

    fn new_epoch(&mut self) {
        self.recovery_epoch += 1;
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

    fn replayed(&mut self, redriven: bool) {
        self.series.note(Note::IntentReplay { redriven });
    }

    fn verify(&mut self, comp: u8, image: bool) -> bool {
        let c = &self.comps[comp as usize];
        let ok = match (image, c.pristine_image.as_ref()) {
            (true, Some(pristine)) => pristine.verify().is_ok(),
            (true, None) => unreachable!("pristine captured at init"),
            (false, _) => c.heap.verify_journal().is_ok(),
        };
        self.series.note(Note::Checked { image, ok });
        ok
    }

    /// A fail-stop or hang effect at a kernel recovery-phase site means the
    /// phase itself failed (the kernel cannot panic — it runs below the
    /// `catch_unwind` boundary, so the effect is absorbed as "this phase
    /// cannot be executed").
    fn phase_faulted(&mut self, site: &'static str) -> bool {
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

    fn roll_back(&mut self, comp: u8) -> u64 {
        let c = &mut self.comps[comp as usize];
        // Restart phase: swap in the spare clone, transfer only the state
        // that diverged from it (O(dirty), not O(heap)).
        let image = c.pristine_image.as_ref();
        let dirty_bytes =
            image.map_or_else(|| c.heap.resident_bytes(), |i| i.dirty_bytes_for(&c.heap));
        let restart = cost::RESTART_BASE + (dirty_bytes as u64 / 1024) * cost::RESTART_PER_KB;
        // Rollback phase: apply the undo log in reverse.
        let rollback = c.heap.log_len() as u64 * cost::UNDO_ROLLBACK;
        c.window.rollback(&mut c.heap);
        self.restart_server(comp as usize, Restart::Rollback);
        restart + rollback
    }

    /// Copy-on-write restore: verifies and writes back only the chunks of
    /// objects that diverged from the manifest. A chunk-digest or
    /// accounting violation surfaces before any mutation, so a corrupt pool
    /// image degrades down the fallback chain with the heap intact.
    fn restore(&mut self, comp: u8) -> Option<u64> {
        let t = comp as usize;
        let c = &mut self.comps[t];
        let Some(image) = c.pristine_image.as_ref() else {
            unreachable!("pristine captured at init")
        };
        let Ok(stats) = c.heap.restore_image(image, &self.cas) else {
            let (image, ok) = (true, false);
            self.series.note(Note::Checked { image, ok });
            return None;
        };
        self.drain_stage(t);
        self.emit(
            KERNEL_COMP,
            TraceEvent::CowRestore {
                target: comp,
                clean: stats.clean_chunks.min(u32::MAX as u64) as u32,
                dirty: stats.dirty_chunks.min(u32::MAX as u64) as u32,
                bytes: stats.bytes_restored.min(u32::MAX as usize) as u32,
            },
        );
        let c = &mut self.comps[t];
        c.window.complete(&mut c.heap);
        self.restart_server(t, Restart::Fresh);
        // Restart cost is proportional to the bytes actually copied, not to
        // the resident heap size.
        Some(cost::RESTART_BASE + (stats.bytes_restored as u64 / 1024) * cost::RESTART_PER_KB)
    }

    fn keep_state(&mut self, comp: u8, quiescent: bool) -> u64 {
        let c = &mut self.comps[comp as usize];
        c.window.complete(&mut c.heap);
        let kept = [Restart::Naive, Restart::Quiescent];
        self.restart_server(comp as usize, kept[usize::from(quiescent)]);
        cost::RESTART_BASE
    }

    fn charge_recovery(&mut self, comp: u8, cycles: u64) -> u64 {
        let cycles = cost::RECONCILE + cycles;
        self.clock.advance(cycles);
        self.stamp();
        self.seal_staged_close(comp as usize);
        cycles
    }

    fn crash_reply(&mut self, from: u8, failed: Message<P>) {
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
            // Kernel notifications get no reply.
            Endpoint::Kernel => {}
        }
    }

    fn shutdown_reply(&mut self, from: u8, failed: Message<P>) -> Option<Message<P>> {
        let (Endpoint::Process(pid), Some(sid)) = (failed.src, failed.user_tag) else {
            return Some(failed);
        };
        self.reply_to_user(from, sid, pid, failed.span, SysReply::Err(Errno::ESHUTDOWN));
        None
    }

    fn kill_requester(&mut self, failed: &Message<P>) {
        if let (Endpoint::Process(pid), Some(rs)) = (failed.src, self.rs_ep) {
            let msg = self.kernel_msg(rs, None, P::kill_requester(pid));
            self.comps[rs as usize].inbox.push_back(msg);
        }
    }

    fn watched(&self, msg: &Message<P>) -> bool {
        self.wd.find(msg.id.0).is_some()
    }

    fn bench(&mut self, comp: u8) {
        if let Some(image) = self.comps[comp as usize].pristine_image.take() {
            image.release(&mut self.cas);
        }
    }

    fn take_request(&mut self, comp: u8) -> Option<Message<P>> {
        let inbox = &mut self.comps[comp as usize].inbox;
        let request = |m: &Message<P>| m.seep.kind == MessageKind::Request;
        let msg = std::iter::from_fn(|| inbox.pop_front()).find(request)?;
        self.series.note(Note::Refused { comp });
        Some(msg)
    }

    /// Immediate if no grace is configured, otherwise deferred so
    /// applications can save state first.
    fn begin_shutdown(&mut self, reason: String) -> bool {
        self.series.note(Note::ControlledShutdown);
        if self.shutdown.is_none() && self.shutdown_pending.is_none() {
            self.stamp();
            self.seal(AxiomEvent::ShutdownDecision { controlled: true });
            let (kind, grace) = (ShutdownKind::Controlled(reason), self.cfg.shutdown_grace);
            if grace > 0 {
                self.shutdown_pending = Some((kind, grace));
            } else {
                self.shutdown = Some(kind);
            }
        }
        self.shutdown_pending.is_some()
    }

    /// Records the trace event, the black box dump, and the state
    /// transition itself.
    fn crash_shutdown(&mut self, reason: String) {
        self.stamp();
        self.seal(AxiomEvent::ShutdownDecision { controlled: false });
        self.dump_blackbox(&format!("uncontrolled crash: {reason}"));
        self.shutdown = Some(ShutdownKind::Crash(reason));
    }
}
