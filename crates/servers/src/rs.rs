//! RS — the Recovery Server.
//!
//! The key OSIRIS component (paper §III-C, §IV-C): it is notified by the
//! kernel when a server crashes, initiates the restart / rollback /
//! reconciliation sequence, and periodically sends heartbeat messages to
//! detect hung servers, killing (and then recovering) those that stop
//! answering. RS is itself recoverable: if it crashes while idle, the kernel
//! recovers it directly. A fault *during* a recovery it is conducting used
//! to violate the single-fault model and bring the system down (the residual
//! "crash" rows of Tables II/III); now the kernel persists a recovery
//! *intent* for every conduct ([`Ctx::record_intent`]), fresh-restarts the
//! crashed RS, and re-drives the interrupted recovery from the intent log —
//! so the victim still recovers and only the RS's soft heartbeat state is
//! lost.
//!
//! The intent log is not a separate store: each `record_intent` call is
//! sealed into the axiom (the hash-chained control-plane log) as an
//! `IntentRecorded` event, and the kernel re-drives from the *reduction* of
//! that log — the live `ControlState`'s intent slots. An intent therefore
//! survives exactly as long as the axiom proves it unresolved, and a
//! recorded run's re-drives can be replayed and bisected like every other
//! control-plane transition.

use osiris_axiom::IntentPhaseCode;
use osiris_checkpoint::{PCell, PMap};
use osiris_core::{EscalationPolicy, EscalationStep};
use osiris_kernel::{cost, Ctx, Delivery, Endpoint, Server};

use crate::proto::OsMsg;
use crate::topology::Topology;

#[derive(Clone, Debug)]
struct Service {
    endpoint: u8,
    restarts: u64,
    /// Virtual-clock timestamps of recent restarts, pruned to the
    /// escalation policy's sliding window on every observation.
    restart_history: Vec<u64>,
    /// Benched by the escalation ladder: no more restarts, no heartbeats.
    quarantined: bool,
}

#[derive(Clone, Copy, Debug)]
struct Handles {
    services: PMap<u32, Service>,
    /// Endpoint → heartbeat round in which a ping is still unanswered.
    outstanding: PMap<u32, u64>,
    /// Ping message id → target endpoint.
    ping_waits: PMap<u64, u32>,
    round: PCell<u64>,
}

/// The Recovery Server.
#[derive(Clone, Debug)]
pub struct RecoveryServer {
    topo: Topology,
    escalation: EscalationPolicy,
    h: Option<Handles>,
}

impl RecoveryServer {
    /// Creates an RS that heartbeats all core servers every
    /// [`cost::HEARTBEAT_INTERVAL`] cycles and escalates crash-looping
    /// services per `escalation`.
    pub fn new(topo: Topology, escalation: EscalationPolicy) -> Self {
        RecoveryServer {
            topo,
            escalation,
            h: None,
        }
    }

    fn h(&self) -> Handles {
        self.h.expect("RS used before init")
    }

    /// Components RS watches: every core server except itself, plus the
    /// disk driver.
    fn watched(&self) -> Vec<u8> {
        [
            self.topo.pm,
            self.topo.vm,
            self.topo.vfs,
            self.topo.ds,
            self.topo.disk,
        ]
        .iter()
        .filter_map(|ep| match ep {
            Endpoint::Component(c) => Some(*c),
            _ => None,
        })
        .collect()
    }

    fn heartbeat_round(&self, ctx: &mut Ctx<'_, OsMsg>) {
        ctx.site("rs.hb.entry");
        let h = self.h();
        let round = h.round.get(ctx.heap_ref());

        // Servers that never answered last round's ping are hung: have the
        // kernel kill and recover them (paper §II-E heartbeat detection).
        let silent: Vec<u32> = h.outstanding.keys(ctx.heap_ref());
        for ep in silent {
            ctx.site("rs.hb.silent");
            h.outstanding.delete(ctx.heap(), &ep);
            // The ping that went unanswered still has a wait entry keyed by
            // message id; drop it too, or hung servers leak one entry per
            // round for the rest of the run.
            while let Some(stale) = h.ping_waits.find_key(ctx.heap_ref(), |_, v| *v == ep) {
                h.ping_waits.delete(ctx.heap(), &stale);
            }
            ctx.kill_hung(ep as u8);
        }
        ctx.site("rs.hb.checked");

        // New round of pings. `Ping` is non-state-modifying, so under the
        // enhanced policy the heartbeat handler itself stays recoverable.
        // Quarantined services are benched: pinging them would only bounce.
        let mut benched: Vec<u8> = Vec::new();
        h.services.for_each(ctx.heap_ref(), |_, s| {
            if s.quarantined {
                benched.push(s.endpoint);
            }
        });
        for ep in self.watched() {
            if benched.contains(&ep) {
                continue;
            }
            let id = ctx.send_request(Endpoint::Component(ep), OsMsg::Ping);
            h.ping_waits.insert(ctx.heap(), id.0, u32::from(ep));
            h.outstanding.insert(ctx.heap(), u32::from(ep), round);
        }
        // Persist the service status into DS (state-modifying: this closes
        // the recovery window under *both* policies — the remainder of the
        // round is unrecoverable bookkeeping, which is why RS has roughly
        // the same, middling coverage under both policies in Table I).
        ctx.notify(self.topo.ds, OsMsg::StatusPublish { round });
        ctx.site("rs.hb.published");
        h.round.set(ctx.heap(), round + 1);
        ctx.set_timer(cost::HEARTBEAT_INTERVAL, OsMsg::HeartbeatTick);
        ctx.site("rs.hb.armed");
        // Post-round bookkeeping: compact restart statistics.
        let mut total_restarts = 0;
        h.services
            .for_each(ctx.heap_ref(), |_, svc| total_restarts += svc.restarts);
        ctx.site("rs.hb.compact");
        let _ = total_restarts;
        ctx.charge(40);
        ctx.site("rs.hb.done");
    }
}

impl Server<OsMsg> for RecoveryServer {
    fn name(&self) -> &'static str {
        "rs"
    }

    fn init(&mut self, ctx: &mut Ctx<'_, OsMsg>) {
        let heap = ctx.heap();
        let h = Handles {
            services: heap.alloc_map("rs.services"),
            outstanding: heap.alloc_map("rs.outstanding"),
            ping_waits: heap.alloc_map("rs.ping_waits"),
            round: heap.alloc_cell("rs.round", 0),
        };
        for ep in [
            self.topo.pm,
            self.topo.vm,
            self.topo.vfs,
            self.topo.ds,
            self.topo.disk,
        ] {
            if let Endpoint::Component(c) = ep {
                h.services.insert(
                    heap,
                    u32::from(c),
                    Service {
                        endpoint: c,
                        restarts: 0,
                        restart_history: Vec::new(),
                        quarantined: false,
                    },
                );
            }
        }
        self.h = Some(h);
        ctx.set_timer(cost::HEARTBEAT_INTERVAL, OsMsg::HeartbeatTick);
    }

    fn handle(&mut self, msg: Delivery<'_, OsMsg>, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        match &msg.payload {
            OsMsg::CrashNotify { target } => {
                // Recovery code path: restart, rollback and reconciliation
                // are executed by the kernel under RS direction — but only
                // after the escalation ladder has had its say. A service
                // that keeps crashing inside the policy's sliding window is
                // first restarted with exponential backoff, then quarantined
                // (benched, its requests bounced with a crash reply), and
                // once the quarantine cap is hit the system shuts down in a
                // controlled fashion rather than thrash forever.
                ctx.site("rs.recover.notify");
                ctx.heap()
                    .trace_stage()
                    .push(osiris_trace::TraceEvent::RsCrashNotified { target: *target });
                let now = ctx.now();
                let policy = self.escalation;
                let mut benched = 0u32;
                h.services.for_each(ctx.heap_ref(), |_, s| {
                    if s.quarantined {
                        benched += 1;
                    }
                });
                let mut pressure = 1u32;
                h.services.update(ctx.heap(), &u32::from(*target), |s| {
                    s.restarts += 1;
                    pressure = policy.budget.observe(&mut s.restart_history, now);
                });
                ctx.site("rs.recover.account");
                let step = policy.decide(pressure, benched);
                let (backoff, exhausted) = match step {
                    EscalationStep::Restart { backoff } => (backoff, false),
                    _ => (0, true),
                };
                ctx.note_escalation(*target, pressure, backoff, exhausted);
                match step {
                    EscalationStep::Restart { backoff: 0 } => {
                        // Refine the kernel's persisted intent before the
                        // conduct: if RS crashes past this point the kernel
                        // re-drives the recovery from the intent log. The DS
                        // mirror is observability only.
                        ctx.record_intent(*target, IntentPhaseCode::Issued);
                        ctx.notify(self.topo.ds, OsMsg::IntentPublish { target: *target });
                        ctx.recover(*target);
                        // Replenish the spare-copy pool off the hot path:
                        // after the restore the heap matches the manifest,
                        // so the refresh reshares every chunk (no copying).
                        ctx.refresh_image(*target);
                        ctx.site("rs.recover.issued");
                    }
                    EscalationStep::Restart { backoff } => {
                        // Defer the restart: the kernel keeps the system in
                        // recovery (only RS runs) until the timer fires and
                        // the RecoveryTick below issues the actual recovery.
                        ctx.record_intent(*target, IntentPhaseCode::Deferred);
                        ctx.notify(self.topo.ds, OsMsg::IntentPublish { target: *target });
                        ctx.set_timer(backoff, OsMsg::RecoveryTick { target: *target });
                        ctx.site("rs.recover.deferred");
                    }
                    EscalationStep::Quarantine => {
                        h.services
                            .update(ctx.heap(), &u32::from(*target), |s| s.quarantined = true);
                        ctx.notify(self.topo.ds, OsMsg::QuarantinePublish { target: *target });
                        ctx.quarantine(*target);
                        ctx.site("rs.recover.quarantined");
                    }
                    EscalationStep::Shutdown => {
                        ctx.controlled_shutdown(
                            "escalation: restart budget and quarantine cap exhausted",
                        );
                        ctx.site("rs.recover.shutdown");
                    }
                }
            }
            OsMsg::RecoveryTick { target } => {
                // Backoff expired: issue the deferred recovery. A stale tick
                // (service already recovered or quarantined meanwhile) is
                // absorbed by the kernel's crash_info guard.
                ctx.site("rs.recover.tick");
                ctx.record_intent(*target, IntentPhaseCode::Issued);
                ctx.recover(*target);
                ctx.refresh_image(*target);
            }
            OsMsg::KillRequester { pid } => {
                // Kill-requester reconciliation (paper §VII): terminate the
                // requesting process through the normal kill path so every
                // compartment cleans its requester-scoped state.
                ctx.site("rs.killreq.entry");
                ctx.send_request(
                    self.topo.pm,
                    OsMsg::User {
                        pid: *pid,
                        call: osiris_kernel::abi::Syscall::Kill {
                            pid: *pid,
                            sig: osiris_kernel::abi::Signal::SigKill,
                        },
                    },
                );
                ctx.site("rs.killreq.sent");
            }
            OsMsg::HeartbeatTick => self.heartbeat_round(ctx),
            OsMsg::Pong | OsMsg::RCrash => {
                ctx.site("rs.pong");
                if let Some(request_id) = msg.reply_to {
                    if let Some(ep) = h.ping_waits.remove(ctx.heap(), &request_id.0) {
                        h.outstanding.delete(ctx.heap(), &ep);
                    }
                }
            }
            OsMsg::Announce { .. } => {
                // Contractually state-free (the non-state-modifying SEEP
                // classification of `Announce` depends on it): trace only.
                ctx.site("rs.announce");
            }
            OsMsg::Ping => {
                ctx.site("rs.ping");
                ctx.reply(msg.return_path(), OsMsg::Pong)
            }
            _ => {}
        }
    }

    fn clone_box(&self) -> Box<dyn Server<OsMsg>> {
        Box::new(self.clone())
    }
}
