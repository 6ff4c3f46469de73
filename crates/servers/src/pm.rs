//! PM — the Process Manager.
//!
//! Manages processes and signals (paper §V): process creation (`spawn` =
//! fork+exec, plain `fork`, `exec`), termination and reaping (`exit`,
//! `waitpid`), signal delivery (`kill`, masks, pending sets) and sleeping.
//! Cross-cutting calls interact with VM (address spaces) and VFS (binary
//! loading, descriptor cleanup) — the tightly-coupled, stateful behaviour
//! that makes core-server recovery hard and that OSIRIS targets.
//!
//! Interaction ordering is chosen to maximize the *enhanced* recovery
//! window: the read-only `VfsExecLoad` query runs first (keeps the window
//! open), the state-modifying `VmFork`/`VmExecReset` last.

use osiris_checkpoint::{Heap, PCell, PMap};
use osiris_kernel::abi::{Errno, Pid, Signal, SysReply, Syscall};
use osiris_kernel::{Ctx, Delivery, Endpoint, MsgId, Protocol, ReturnPath, Server};

use crate::os::{Facts, Torn};
use crate::proto::OsMsg;
use crate::topology::Topology;

const INIT_PID: u32 = 1;

#[derive(Clone, Debug, PartialEq, Eq)]
enum ProcState {
    Alive,
    Zombie(i32),
}

#[derive(Clone, Debug)]
struct Proc {
    ppid: u32,
    state: ProcState,
    prog: String,
    masked: Vec<Signal>,
    pending_sigs: Vec<Signal>,
}

#[derive(Clone, Copy, Debug)]
struct Waiter {
    /// `Some(pid)` for `waitpid`, `None` for `wait_any`.
    target: Option<u32>,
    rp: ReturnPath,
}

#[derive(Clone, Debug)]
struct SleepEntry {
    pid: u32,
    rp: ReturnPath,
}

/// Multi-step syscall continuations, keyed by the id of the outstanding
/// request to VM or VFS. Stored in the checkpointed heap so rollback erases
/// half-started transactions.
#[derive(Clone, Debug)]
enum PmCont {
    SpawnLoad {
        parent: u32,
        child: u32,
        prog: String,
        rp: ReturnPath,
    },
    SpawnVm {
        parent: u32,
        child: u32,
        prog: String,
        rp: ReturnPath,
    },
    SpawnVfs {
        parent: u32,
        child: u32,
        prog: String,
        rp: ReturnPath,
    },
    ForkVm {
        parent: u32,
        child: u32,
        rp: ReturnPath,
    },
    ForkVfs {
        parent: u32,
        child: u32,
        rp: ReturnPath,
    },
    ExecLoad {
        pid: u32,
        prog: String,
        rp: ReturnPath,
    },
    ExecVm {
        pid: u32,
        prog: String,
        rp: ReturnPath,
    },
}

#[derive(Clone, Copy, Debug)]
struct Handles {
    /// Served-event statistics, updated after replying (deferred
    /// bookkeeping outside the recovery window, like real servers'
    /// post-reply accounting).
    ops: PCell<u64>,
    stats: PMap<&'static str, u64>,
    last_event: PCell<u64>,
    procs: PMap<u32, Proc>,
    next_pid: PCell<u32>,
    waiters: PMap<u32, Waiter>,
    sleeps: PMap<u64, SleepEntry>,
    next_token: PCell<u64>,
    pending: PMap<u64, PmCont>,
}

/// The Process Manager server.
#[derive(Clone, Debug)]
pub struct ProcessManager {
    topo: Topology,
    h: Option<Handles>,
}

impl ProcessManager {
    /// Creates a PM wired to the given topology.
    pub fn new(topo: Topology) -> Self {
        ProcessManager { topo, h: None }
    }

    fn h(&self) -> Handles {
        self.h.expect("PM used before init")
    }
}

impl Server<OsMsg> for ProcessManager {
    fn name(&self) -> &'static str {
        "pm"
    }

    fn init(&mut self, ctx: &mut Ctx<'_, OsMsg>) {
        let heap = ctx.heap();
        let h = Handles {
            ops: heap.alloc_cell("pm.ops", 0),
            stats: heap.alloc_map("pm.stats"),
            last_event: heap.alloc_cell("pm.last_event", 0),
            procs: heap.alloc_map("pm.procs"),
            next_pid: heap.alloc_cell("pm.next_pid", 2),
            waiters: heap.alloc_map("pm.waiters"),
            sleeps: heap.alloc_map("pm.sleeps"),
            next_token: heap.alloc_cell("pm.next_token", 1),
            pending: heap.alloc_map("pm.pending"),
        };
        // The init process exists from boot.
        h.procs.insert(
            heap,
            INIT_PID,
            Proc {
                ppid: 0,
                state: ProcState::Alive,
                prog: "init".into(),
                masked: Vec::new(),
                pending_sigs: Vec::new(),
            },
        );
        self.h = Some(h);
    }

    fn handle(&mut self, msg: Delivery<'_, OsMsg>, ctx: &mut Ctx<'_, OsMsg>) {
        match &msg.payload {
            OsMsg::User { pid, call } => self.user_call(*pid, call, msg.return_path(), ctx),
            OsMsg::Ping => {
                ctx.site("pm.ping");
                ctx.reply(msg.return_path(), OsMsg::Pong);
                return;
            }
            OsMsg::SleepTick { token } => self.sleep_done(*token, ctx),
            OsMsg::ROk | OsMsg::RVal(_) | OsMsg::RData(_) | OsMsg::RErr(_) | OsMsg::RCrash => {
                if let Some(request_id) = msg.reply_to {
                    self.continuation(request_id, &msg.payload, ctx);
                }
            }
            _ => {}
        }
        // Deferred bookkeeping after the reply went out: the window has
        // closed, so this executes outside the recoverable region. The
        // unconditional store instrumentation of the paper's unoptimized
        // build logs every one of these writes; the window-gated build
        // skips them all.
        ctx.site("pm.post.account");
        let h = self.h();
        let label = msg.payload.label();
        let now = ctx.now();
        h.ops.update(ctx.heap(), |n| *n += 1);
        if h.stats.update(ctx.heap(), &label, |n| *n += 1).is_none() {
            h.stats.insert(ctx.heap(), label, 1);
        }
        h.last_event.set(ctx.heap(), now);
        h.next_token.update(ctx.heap(), |t| *t = t.wrapping_add(0));
        ctx.site("pm.post.done");
        ctx.charge(25);
    }

    fn clone_box(&self) -> Box<dyn Server<OsMsg>> {
        Box::new(self.clone())
    }
}

impl ProcessManager {
    /// Adds PM's pids, and each waiter or sleeper of a pid it lacks, to the audit's facts.
    pub(crate) fn facts(&self, heap: &Heap, facts: &mut Facts) {
        let h = self.h();
        h.procs.for_each(heap, |pid, p| {
            if p.state == ProcState::Alive {
                facts.pm_alive.insert(*pid);
            }
            facts.pm_procs.insert(*pid);
        });
        h.waiters.for_each(heap, |pid, _| {
            if !h.procs.contains_key(heap, pid) {
                facts.torn.push(Torn::PmWaiter(*pid));
            }
        });
        h.sleeps.for_each(heap, |_, s| {
            if !h.procs.contains_key(heap, &s.pid) {
                facts.torn.push(Torn::PmSleeper(s.pid));
            }
        });
    }

    fn user_call(&self, pid: Pid, call: &Syscall, rp: ReturnPath, ctx: &mut Ctx<'_, OsMsg>) {
        match call {
            Syscall::Spawn { prog, args: _ } => self.spawn(pid, prog, rp, ctx),
            Syscall::Fork => self.fork(pid, rp, ctx),
            Syscall::Exec { prog, args: _ } => self.exec(pid, prog, rp, ctx),
            Syscall::Exit { code } => self.exit(pid, *code, ctx),
            Syscall::WaitPid { pid: target } => self.wait(pid, Some(target.0), rp, ctx),
            Syscall::WaitAny => self.wait(pid, None, rp, ctx),
            Syscall::Kill { pid: target, sig } => self.kill(pid, *target, *sig, rp, ctx),
            Syscall::GetPid => {
                ctx.site("pm.getpid");
                ctx.reply(rp, OsMsg::UserReply(SysReply::Proc(pid)));
            }
            Syscall::GetPPid => {
                ctx.site("pm.getppid.entry");
                let h = self.h();
                match h.procs.with(ctx.heap_ref(), &pid.0, |p| p.ppid) {
                    Some(ppid) => {
                        let ppid = ctx.site_val("pm.getppid.read", u64::from(ppid)) as u32;
                        ctx.reply(rp, OsMsg::UserReply(SysReply::Proc(Pid(ppid))));
                    }
                    None => ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ESRCH))),
                }
            }
            Syscall::SigMask { sig, masked } => self.sigmask(pid, *sig, *masked, rp, ctx),
            Syscall::SigPending => self.sigpending(pid, rp, ctx),
            Syscall::Sleep { ticks } => self.sleep(pid, *ticks, rp, ctx),
            other => {
                ctx.site("pm.badcall");
                let _ = other;
                ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ENOSYS)));
            }
        }
    }

    fn alloc_pid(&self, ctx: &mut Ctx<'_, OsMsg>) -> u32 {
        let h = self.h();
        let pid = h.next_pid.get(ctx.heap_ref());
        h.next_pid.set(ctx.heap(), pid + 1);
        ctx.site_val("pm.alloc_pid", u64::from(pid)) as u32
    }

    /// `spawn` = fork+exec in one call. Phase 1 (this event): validate,
    /// allocate the child pid, ask VFS to load the binary (read-only — the
    /// enhanced window stays open). Phase 2: fork the address space in VM
    /// (state-modifying). Phase 3: commit the process-table entry and reply.
    fn spawn(&self, parent: Pid, prog: &str, rp: ReturnPath, ctx: &mut Ctx<'_, OsMsg>) {
        ctx.site("pm.spawn.entry");
        let h = self.h();
        if !h.procs.contains_key(ctx.heap_ref(), &parent.0) {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ESRCH)));
            return;
        }
        ctx.site("pm.spawn.validate");
        // Advisory memory-pressure probe: a read-only query whose reply PM
        // does not wait for (no continuation is registered, so the answer -
        // or an E_CRASH from a recovered VM - is simply ignored). Keeps the
        // enhanced window open; crashes during it are invisible to users.
        ctx.send_request(self.topo.vm, OsMsg::VmUsage { pid: parent });
        ctx.site("pm.spawn.probed");
        let child = self.alloc_pid(ctx);
        let id = ctx.send_request(
            self.topo.vfs,
            OsMsg::VfsExecLoad {
                pid: Pid(child),
                prog: prog.to_string(),
            },
        );
        h.pending.insert(
            ctx.heap(),
            id.0,
            PmCont::SpawnLoad {
                parent: parent.0,
                child,
                prog: prog.to_string(),
                rp,
            },
        );
        ctx.site("pm.spawn.load_sent");
    }

    fn fork(&self, parent: Pid, rp: ReturnPath, ctx: &mut Ctx<'_, OsMsg>) {
        ctx.site("pm.fork.entry");
        let h = self.h();
        if !h.procs.contains_key(ctx.heap_ref(), &parent.0) {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ESRCH)));
            return;
        }
        ctx.site("pm.fork.validate");
        let child = self.alloc_pid(ctx);
        let id = ctx.send_request(
            self.topo.vm,
            OsMsg::VmFork {
                parent,
                child: Pid(child),
            },
        );
        h.pending.insert(
            ctx.heap(),
            id.0,
            PmCont::ForkVm {
                parent: parent.0,
                child,
                rp,
            },
        );
        ctx.site("pm.fork.vm_sent");
    }

    fn exec(&self, pid: Pid, prog: &str, rp: ReturnPath, ctx: &mut Ctx<'_, OsMsg>) {
        ctx.site("pm.exec.entry");
        let h = self.h();
        if !h.procs.contains_key(ctx.heap_ref(), &pid.0) {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ESRCH)));
            return;
        }
        ctx.site("pm.exec.validate");
        let id = ctx.send_request(
            self.topo.vfs,
            OsMsg::VfsExecLoad {
                pid,
                prog: prog.to_string(),
            },
        );
        h.pending.insert(
            ctx.heap(),
            id.0,
            PmCont::ExecLoad {
                pid: pid.0,
                prog: prog.to_string(),
                rp,
            },
        );
        ctx.site("pm.exec.load_sent");
    }

    /// Continuations: the reply to an earlier VM/VFS request arrived.
    fn continuation(&self, request_id: MsgId, result: &OsMsg, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        let Some(cont) = h.pending.remove(ctx.heap(), &request_id.0) else {
            // A reply for a transaction that was rolled back: ignore.
            return;
        };
        ctx.site("pm.cont.entry");
        let err = match result {
            OsMsg::RErr(e) => Some(*e),
            OsMsg::RCrash => Some(Errno::ECRASH),
            _ => None,
        };
        match cont {
            PmCont::SpawnLoad {
                parent,
                child,
                prog,
                rp,
            } => {
                if let Some(e) = err {
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Err(e)));
                    return;
                }
                ctx.site("pm.spawn.loaded");
                let id = ctx.send_request(
                    self.topo.vm,
                    OsMsg::VmFork {
                        parent: Pid(parent),
                        child: Pid(child),
                    },
                );
                h.pending.insert(
                    ctx.heap(),
                    id.0,
                    PmCont::SpawnVm {
                        parent,
                        child,
                        prog,
                        rp,
                    },
                );
            }
            PmCont::SpawnVm {
                parent,
                child,
                prog,
                rp,
            } => {
                if let Some(e) = err {
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Err(e)));
                    return;
                }
                ctx.site("pm.spawn.vm_done");
                let id = ctx.send_request(
                    self.topo.vfs,
                    OsMsg::VfsForkDup {
                        parent: Pid(parent),
                        child: Pid(child),
                    },
                );
                h.pending.insert(
                    ctx.heap(),
                    id.0,
                    PmCont::SpawnVfs {
                        parent,
                        child,
                        prog,
                        rp,
                    },
                );
            }
            PmCont::SpawnVfs {
                parent,
                child,
                prog,
                rp,
            } => {
                if let Some(e) = err {
                    // Undo the VM half of the fork before failing the call.
                    ctx.notify(self.topo.vm, OsMsg::VmFree { pid: Pid(child) });
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Err(e)));
                    return;
                }
                ctx.site("pm.spawn.commit");
                h.procs.insert(
                    ctx.heap(),
                    child,
                    Proc {
                        ppid: parent,
                        state: ProcState::Alive,
                        prog,
                        masked: Vec::new(),
                        pending_sigs: Vec::new(),
                    },
                );
                ctx.reply(rp, OsMsg::UserReply(SysReply::Proc(Pid(child))));
            }
            PmCont::ForkVm { parent, child, rp } => {
                if let Some(e) = err {
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Err(e)));
                    return;
                }
                ctx.site("pm.fork.vm_done");
                let id = ctx.send_request(
                    self.topo.vfs,
                    OsMsg::VfsForkDup {
                        parent: Pid(parent),
                        child: Pid(child),
                    },
                );
                h.pending
                    .insert(ctx.heap(), id.0, PmCont::ForkVfs { parent, child, rp });
            }
            PmCont::ForkVfs { parent, child, rp } => {
                if let Some(e) = err {
                    ctx.notify(self.topo.vm, OsMsg::VmFree { pid: Pid(child) });
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Err(e)));
                    return;
                }
                ctx.site("pm.fork.commit");
                let prog = h
                    .procs
                    .with(ctx.heap_ref(), &parent, |p| p.prog.clone())
                    .unwrap_or_else(|| "?".into());
                h.procs.insert(
                    ctx.heap(),
                    child,
                    Proc {
                        ppid: parent,
                        state: ProcState::Alive,
                        prog,
                        masked: Vec::new(),
                        pending_sigs: Vec::new(),
                    },
                );
                ctx.reply(rp, OsMsg::UserReply(SysReply::Proc(Pid(child))));
            }
            PmCont::ExecLoad { pid, prog, rp } => {
                if let Some(e) = err {
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Err(e)));
                    return;
                }
                ctx.site("pm.exec.loaded");
                let id = ctx.send_request(self.topo.vm, OsMsg::VmExecReset { pid: Pid(pid) });
                h.pending
                    .insert(ctx.heap(), id.0, PmCont::ExecVm { pid, prog, rp });
            }
            PmCont::ExecVm { pid, prog, rp } => {
                if let Some(e) = err {
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Err(e)));
                    return;
                }
                ctx.site("pm.exec.commit");
                h.procs.update(ctx.heap(), &pid, |p| p.prog = prog);
                ctx.reply(rp, OsMsg::UserReply(SysReply::Ok));
            }
        }
    }

    fn exit(&self, pid: Pid, code: i32, ctx: &mut Ctx<'_, OsMsg>) {
        ctx.site("pm.exit.entry");
        let h = self.h();
        if !h.procs.contains_key(ctx.heap_ref(), &pid.0) {
            return;
        }
        self.terminate(pid.0, code, true, ctx);
    }

    /// Shared termination path for `exit` (`self_exit = true`, where the
    /// departing process *is* the requester, so resource releases are
    /// requester-scoped SEEPs) and fatal signals (`self_exit = false`).
    fn terminate(&self, pid: u32, code: i32, self_exit: bool, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        ctx.site("pm.term.entry");
        let Some(ppid) = h.procs.with(ctx.heap_ref(), &pid, |p| p.ppid) else {
            return;
        };

        // Reparent or reap this process's children.
        let children: Vec<(u32, ProcState)> = {
            let mut v = Vec::new();
            h.procs.for_each(ctx.heap_ref(), |cpid, p| {
                if p.ppid == pid {
                    v.push((*cpid, p.state.clone()));
                }
            });
            v
        };
        for (cpid, state) in children {
            match state {
                ProcState::Zombie(_) => {
                    h.procs.delete(ctx.heap(), &cpid);
                }
                ProcState::Alive => {
                    h.procs.update(ctx.heap(), &cpid, |p| p.ppid = INIT_PID);
                }
            }
        }
        ctx.site("pm.term.children");

        // Release resources held elsewhere: address space and descriptors.
        // On the requester's own exit these are requester-scoped SEEPs:
        // under the kill-requester policy the window stays open across
        // them, because killing the requester re-runs this very cleanup.
        if self_exit {
            ctx.notify(self.topo.vm, OsMsg::VmFreeSelf { pid: Pid(pid) });
            ctx.notify(self.topo.vfs, OsMsg::VfsCleanupSelf { pid: Pid(pid) });
        } else {
            ctx.notify(self.topo.vm, OsMsg::VmFree { pid: Pid(pid) });
            ctx.notify(self.topo.vfs, OsMsg::VfsCleanup { pid: Pid(pid) });
        }
        ctx.site("pm.term.released");

        // Wake a waiting parent, or become a zombie.
        let waiter = h
            .waiters
            .get(ctx.heap_ref(), &ppid)
            .filter(|w| w.target.is_none() || w.target == Some(pid));
        if let Some(w) = waiter {
            h.waiters.delete(ctx.heap(), &ppid);
            h.procs.delete(ctx.heap(), &pid);
            ctx.reply(w.rp, OsMsg::UserReply(SysReply::Exited(Pid(pid), code)));
            ctx.site("pm.term.woke_parent");
        } else if h.procs.contains_key(ctx.heap_ref(), &ppid) {
            h.procs
                .update(ctx.heap(), &pid, |p| p.state = ProcState::Zombie(code));
            ctx.site("pm.term.zombie");
        } else {
            // Parent already gone: auto-reap.
            h.procs.delete(ctx.heap(), &pid);
            ctx.site("pm.term.autoreap");
        }
    }

    fn wait(&self, caller: Pid, target: Option<u32>, rp: ReturnPath, ctx: &mut Ctx<'_, OsMsg>) {
        ctx.site("pm.wait.entry");
        let h = self.h();
        // Find a matching zombie child, or verify a child exists to wait on.
        let mut zombie: Option<(u32, i32)> = None;
        let mut has_child = false;
        h.procs.for_each(ctx.heap_ref(), |cpid, p| {
            if p.ppid == caller.0 && target.is_none_or(|t| t == *cpid) {
                has_child = true;
                if let ProcState::Zombie(code) = p.state {
                    if zombie.is_none() {
                        zombie = Some((*cpid, code));
                    }
                }
            }
        });
        if let Some((cpid, code)) = zombie {
            ctx.site("pm.wait.reap");
            h.procs.delete(ctx.heap(), &cpid);
            ctx.reply(rp, OsMsg::UserReply(SysReply::Exited(Pid(cpid), code)));
        } else if ctx.site_branch("pm.wait.has_child", has_child) {
            h.waiters
                .insert(ctx.heap(), caller.0, Waiter { target, rp });
            ctx.site("pm.wait.block");
        } else {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ECHILD)));
        }
    }

    fn kill(
        &self,
        _caller: Pid,
        target: Pid,
        sig: Signal,
        rp: ReturnPath,
        ctx: &mut Ctx<'_, OsMsg>,
    ) {
        ctx.site("pm.kill.entry");
        let h = self.h();
        // Of a live target: whether it masks SIGTERM.
        let masks_term = h.procs.with(ctx.heap_ref(), &target.0, |p| {
            (p.state == ProcState::Alive).then(|| p.masked.contains(&Signal::SigTerm))
        });
        let Some(masks_term) = masks_term.flatten() else {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ESRCH)));
            return;
        };
        ctx.site("pm.kill.validate");
        let fatal = match sig {
            Signal::SigKill => true,
            Signal::SigTerm => !masks_term,
            Signal::SigUsr1 | Signal::SigUsr2 => false,
        };
        if ctx.site_branch("pm.kill.fatal", fatal) {
            // Cancel the victim's blocked PM operations.
            if let Some(w) = h.waiters.remove(ctx.heap(), &target.0) {
                ctx.reply(w.rp, OsMsg::UserReply(SysReply::Err(Errno::EKILLED)));
            }
            let sleep_token = h.sleeps.find_key(ctx.heap_ref(), |_, s| s.pid == target.0);
            if let Some(tok) = sleep_token {
                if let Some(s) = h.sleeps.remove(ctx.heap(), &tok) {
                    ctx.reply(s.rp, OsMsg::UserReply(SysReply::Err(Errno::EKILLED)));
                }
            }
            // Tell the host the process is dead (kill event), then reap.
            ctx.notify(
                Endpoint::Process(target),
                OsMsg::UserReply(SysReply::Err(Errno::EKILLED)),
            );
            self.terminate(target.0, -9, false, ctx);
            ctx.site("pm.kill.terminated");
        } else {
            h.procs.update(ctx.heap(), &target.0, |p| {
                if !p.pending_sigs.contains(&sig) {
                    p.pending_sigs.push(sig);
                }
            });
            ctx.site("pm.kill.recorded");
        }
        ctx.reply(rp, OsMsg::UserReply(SysReply::Ok));
    }

    fn sigmask(
        &self,
        pid: Pid,
        sig: Signal,
        masked: bool,
        rp: ReturnPath,
        ctx: &mut Ctx<'_, OsMsg>,
    ) {
        ctx.site("pm.sigmask.entry");
        if sig == Signal::SigKill {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EINVAL)));
            return;
        }
        let h = self.h();
        let updated = h
            .procs
            .update(ctx.heap(), &pid.0, |p| {
                if masked {
                    if !p.masked.contains(&sig) {
                        p.masked.push(sig);
                    }
                } else {
                    p.masked.retain(|s| *s != sig);
                }
            })
            .is_some();
        if updated {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Ok));
        } else {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ESRCH)));
        }
    }

    fn sigpending(&self, pid: Pid, rp: ReturnPath, ctx: &mut Ctx<'_, OsMsg>) {
        ctx.site("pm.sigpending.entry");
        let h = self.h();
        match h
            .procs
            .update(ctx.heap(), &pid.0, |p| std::mem::take(&mut p.pending_sigs))
        {
            Some(sigs) => ctx.reply(rp, OsMsg::UserReply(SysReply::Signals(sigs))),
            None => ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ESRCH))),
        }
    }

    fn sleep(&self, pid: Pid, ticks: u64, rp: ReturnPath, ctx: &mut Ctx<'_, OsMsg>) {
        ctx.site("pm.sleep.entry");
        let h = self.h();
        if !h.procs.contains_key(ctx.heap_ref(), &pid.0) {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ESRCH)));
            return;
        }
        let token = h.next_token.get(ctx.heap_ref());
        h.next_token.set(ctx.heap(), token + 1);
        h.sleeps
            .insert(ctx.heap(), token, SleepEntry { pid: pid.0, rp });
        ctx.set_timer(ticks.max(1), OsMsg::SleepTick { token });
        ctx.site("pm.sleep.armed");
    }

    fn sleep_done(&self, token: u64, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        // Stale tokens (rolled-back or killed sleepers) are ignored.
        if let Some(s) = h.sleeps.remove(ctx.heap(), &token) {
            ctx.site("pm.sleep.wake");
            ctx.reply(s.rp, OsMsg::UserReply(SysReply::Ok));
        }
    }
}
