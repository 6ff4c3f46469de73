//! VM — the Virtual Memory manager.
//!
//! Tracks per-process address spaces (data segment + anonymous mappings)
//! over a large pre-allocated frame table. The frame table and free list are
//! pre-allocated precisely so that the Recovery Server's spare VM clone
//! never needs to allocate memory *during* recovery — the reason VM
//! dominates the memory overhead of Table VI in the paper.

use std::collections::BTreeMap;

use osiris_checkpoint::{Heap, PCell, PMap, PVec};
use osiris_kernel::abi::{Errno, Pid, SysReply, Syscall};
use osiris_kernel::{Ctx, Delivery, ReturnPath, Server};

use crate::os::{Facts, Torn};
use crate::proto::OsMsg;
use crate::topology::Topology;

/// Pages given to a fresh (exec'd) process image.
pub const IMG_PAGES: u64 = 8;

#[derive(Clone, Debug)]
struct Space {
    data_pages: u64,
    /// Anonymous mappings: id → page count.
    mappings: BTreeMap<u64, u64>,
    /// Frame indices owned by this space, in allocation order.
    frames: Vec<u32>,
}

impl Space {
    fn resident(&self) -> u64 {
        self.data_pages + self.mappings.values().sum::<u64>()
    }
}

#[derive(Clone, Copy, Debug)]
struct Handles {
    /// Operation counters, updated *after* replying (deferred bookkeeping,
    /// outside the recovery window like real servers' post-reply work).
    ops: PCell<u64>,
    spaces: PMap<u32, Space>,
    /// Frame table: frame index → owning pid (0 = free). Pre-allocated.
    frames: PVec<u32>,
    /// Stack of free frame indices. Pre-allocated.
    free_list: PVec<u32>,
    free_frames: PCell<u64>,
    next_mapping: PCell<u64>,
}

/// The Virtual Memory manager server.
#[derive(Clone, Debug)]
pub struct VmManager {
    topo: Topology,
    total_frames: u64,
    h: Option<Handles>,
}

impl VmManager {
    /// Creates a VM manager with a frame pool of `total_frames` pages.
    pub fn new(topo: Topology, total_frames: u64) -> Self {
        VmManager {
            topo,
            total_frames,
            h: None,
        }
    }

    fn h(&self) -> Handles {
        self.h.expect("VM used before init")
    }

    /// Adds VM's address spaces, each torn one and its frame counts to the audit's facts.
    pub(crate) fn facts(&self, heap: &Heap, facts: &mut Facts) {
        let h = self.h();
        let mut owned = 0u64;
        h.spaces.for_each(heap, |pid, s| {
            facts.vm_spaces.insert(*pid);
            owned += s.frames.len() as u64;
            if s.frames.len() as u64 != s.resident() {
                // Torn allocation: pages accounted but frames not (or vice
                // versa) — the signature of a half-applied update surviving
                // naive recovery.
                facts.torn.push(Torn::VmSpace(*pid));
            }
        });
        facts.frames_owned = owned;
        facts.frames_free = h.free_frames.get(heap);
        facts.free_list_len = h.free_list.len(heap) as u64;
        facts.frames_total = self.total_frames;
    }

    /// Allocates `n` frames for `pid`, marking each in the frame table.
    /// Returns the allocated indices, or `None` on exhaustion (leaving no
    /// partial allocation behind).
    fn alloc_frames(&self, pid: u32, n: u64, ctx: &mut Ctx<'_, OsMsg>) -> Option<Vec<u32>> {
        let h = self.h();
        if h.free_frames.get(ctx.heap_ref()) < n {
            return None;
        }
        let mut taken = Vec::with_capacity(n as usize);
        for i in 0..n {
            // A mid-transaction fault here leaves marked frames with a
            // stale free count: the enhanced/pessimistic policies roll it
            // back cleanly, while the naive baseline keeps the torn state
            // (caught by the frame-accounting audit).
            if i == 1 {
                ctx.site("vm.alloc.frame");
            }
            let idx = h
                .free_list
                .pop(ctx.heap())
                .expect("free_frames said enough");
            h.frames.set(ctx.heap(), idx as usize, pid);
            taken.push(idx);
        }
        ctx.site("vm.alloc.balance");
        h.free_frames.update(ctx.heap(), |f| *f -= n);
        Some(taken)
    }

    /// Returns `indices` to the free pool.
    fn release_frames(&self, indices: &[u32], ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        for &idx in indices {
            h.frames.set(ctx.heap(), idx as usize, 0);
            h.free_list.push(ctx.heap(), idx);
        }
        h.free_frames
            .update(ctx.heap(), |f| *f += indices.len() as u64);
    }

    /// Deferred bookkeeping performed after the reply has been sent: by
    /// then the recovery window has closed, so this work runs (and is
    /// measured) outside the recoverable region — like the post-reply
    /// accounting of real servers.
    fn account(&self, ctx: &mut Ctx<'_, OsMsg>) {
        ctx.site("vm.post.account");
        let h = self.h();
        let now = ctx.now();
        h.ops.update(ctx.heap(), |n| *n += 1);
        h.next_mapping
            .update(ctx.heap(), |m| *m = m.wrapping_add(0));
        h.free_frames.update(ctx.heap(), |f| *f = f.wrapping_add(0));
        h.ops.update(ctx.heap(), |n| *n = n.wrapping_add(0));
        let _ = now;
        ctx.site("vm.post.done");
        ctx.charge(20);
    }

    fn user_call(&self, pid: Pid, call: &Syscall, rp: ReturnPath, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        match call {
            Syscall::Brk { pages } => {
                ctx.site("vm.brk.entry");
                let Some(data_pages) = h.spaces.with(ctx.heap_ref(), &pid.0, |s| s.data_pages)
                else {
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ESRCH)));
                    return;
                };
                // Value probe: a perturbed target size is the classic
                // fail-silent accounting bug (caught later by the audit).
                let new = ctx.site_val("vm.brk.target", (data_pages as i64 + pages) as u64) as i64;
                if new < 0 {
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EINVAL)));
                    return;
                }
                ctx.site("vm.brk.validate");
                if *pages > 0 {
                    let Some(taken) = self.alloc_frames(pid.0, *pages as u64, ctx) else {
                        ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ENOMEM)));
                        return;
                    };
                    h.spaces.update(ctx.heap(), &pid.0, |s| {
                        s.data_pages = new as u64;
                        s.frames.extend(taken);
                    });
                } else if *pages < 0 {
                    let give_back = (-pages) as usize;
                    let released = h
                        .spaces
                        .update(ctx.heap(), &pid.0, |s| {
                            s.data_pages = new as u64;
                            let keep = s.frames.len().saturating_sub(give_back);
                            s.frames.split_off(keep)
                        })
                        .unwrap_or_default();
                    self.release_frames(&released, ctx);
                }
                ctx.site("vm.brk.commit");
                ctx.reply(rp, OsMsg::UserReply(SysReply::Val(new)));
            }
            Syscall::Mmap { pages } => {
                ctx.site("vm.mmap.entry");
                if !h.spaces.contains_key(ctx.heap_ref(), &pid.0) {
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ESRCH)));
                    return;
                }
                if *pages == 0 {
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EINVAL)));
                    return;
                }
                let Some(taken) = self.alloc_frames(pid.0, *pages, ctx) else {
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ENOMEM)));
                    return;
                };
                let id = h.next_mapping.get(ctx.heap_ref());
                h.next_mapping.set(ctx.heap(), id + 1);
                h.spaces.update(ctx.heap(), &pid.0, |s| {
                    s.mappings.insert(id, *pages);
                    s.frames.extend(taken);
                });
                ctx.site("vm.mmap.commit");
                ctx.reply(rp, OsMsg::UserReply(SysReply::Val(id as i64)));
            }
            Syscall::Munmap { id } => {
                ctx.site("vm.munmap.entry");
                let Some(mapped) = h
                    .spaces
                    .with(ctx.heap_ref(), &pid.0, |s| s.mappings.get(id).copied())
                else {
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ESRCH)));
                    return;
                };
                let Some(pages) = mapped else {
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EINVAL)));
                    return;
                };
                let released = h
                    .spaces
                    .update(ctx.heap(), &pid.0, |s| {
                        s.mappings.remove(id);
                        let keep = s.frames.len().saturating_sub(pages as usize);
                        s.frames.split_off(keep)
                    })
                    .unwrap_or_default();
                self.release_frames(&released, ctx);
                ctx.site("vm.munmap.commit");
                ctx.reply(rp, OsMsg::UserReply(SysReply::Ok));
            }
            Syscall::VmStat => {
                // Purely read-only: fully recoverable end to end.
                ctx.site("vm.stat");
                match h.spaces.with(ctx.heap_ref(), &pid.0, |s| s.resident()) {
                    Some(n) => ctx.reply(rp, OsMsg::UserReply(SysReply::Val(n as i64))),
                    None => ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ESRCH))),
                }
            }
            _ => ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ENOSYS))),
        }
        self.account(ctx);
    }
}

impl Server<OsMsg> for VmManager {
    fn name(&self) -> &'static str {
        "vm"
    }

    fn init(&mut self, ctx: &mut Ctx<'_, OsMsg>) {
        let total = self.total_frames;
        let heap = ctx.heap();
        let frames = heap.alloc_vec_from("vm.frames", vec![0u32; total as usize]);
        // Highest index on top so allocation order starts at frame 0.
        let free_list = heap.alloc_vec_from("vm.free_list", (0..total as u32).rev().collect());
        let h = Handles {
            ops: heap.alloc_cell("vm.ops", 0),
            spaces: heap.alloc_map("vm.spaces"),
            frames,
            free_list,
            free_frames: heap.alloc_cell("vm.free_frames", total),
            next_mapping: heap.alloc_cell("vm.next_mapping", 1),
        };
        self.h = Some(h);
        // Address space for init (pid 1), which exists from boot.
        let taken = self
            .alloc_frames(1, IMG_PAGES, ctx)
            .expect("boot frames available");
        self.h().spaces.insert(
            ctx.heap(),
            1,
            Space {
                data_pages: IMG_PAGES,
                mappings: BTreeMap::new(),
                frames: taken,
            },
        );
    }

    fn handle(&mut self, msg: Delivery<'_, OsMsg>, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        match &msg.payload {
            OsMsg::User { pid, call } => self.user_call(*pid, call, msg.return_path(), ctx),
            OsMsg::Ping => {
                ctx.site("vm.ping");
                ctx.reply(msg.return_path(), OsMsg::Pong)
            }
            OsMsg::VmFork { parent, child } => {
                ctx.site("vm.fork.entry");
                let Some(need) = h.spaces.with(ctx.heap_ref(), &parent.0, Space::resident) else {
                    ctx.reply(msg.return_path(), OsMsg::RErr(Errno::ESRCH));
                    return;
                };
                let Some(taken) = self.alloc_frames(child.0, need, ctx) else {
                    ctx.reply(msg.return_path(), OsMsg::RErr(Errno::ENOMEM));
                    return;
                };
                let child_space = h.spaces.with(ctx.heap_ref(), &parent.0, |p| Space {
                    data_pages: p.data_pages,
                    mappings: p.mappings.clone(),
                    frames: taken,
                });
                h.spaces
                    .insert(ctx.heap(), child.0, child_space.expect("parent seen above"));
                ctx.site("vm.fork.commit");
                ctx.reply(msg.return_path(), OsMsg::ROk);
            }
            OsMsg::VmExecReset { pid } => {
                ctx.site("vm.exec_reset.entry");
                let Some(old_frames) = h.spaces.with(ctx.heap_ref(), &pid.0, |s| s.frames.clone())
                else {
                    ctx.reply(msg.return_path(), OsMsg::RErr(Errno::ESRCH));
                    return;
                };
                self.release_frames(&old_frames, ctx);
                let Some(taken) = self.alloc_frames(pid.0, IMG_PAGES, ctx) else {
                    ctx.reply(msg.return_path(), OsMsg::RErr(Errno::ENOMEM));
                    return;
                };
                h.spaces.insert(
                    ctx.heap(),
                    pid.0,
                    Space {
                        data_pages: IMG_PAGES,
                        mappings: BTreeMap::new(),
                        frames: taken,
                    },
                );
                ctx.site("vm.exec_reset.commit");
                ctx.reply(msg.return_path(), OsMsg::ROk);
            }
            OsMsg::VmFree { pid } | OsMsg::VmFreeSelf { pid } => {
                ctx.site("vm.free.entry");
                if let Some(space) = h.spaces.remove(ctx.heap(), &pid.0) {
                    self.release_frames(&space.frames, ctx);
                }
            }
            OsMsg::VmUsage { pid } => {
                // Read-only query: contractually writes nothing.
                ctx.site("vm.usage");
                let usage = h.spaces.with(ctx.heap_ref(), &pid.0, Space::resident);
                ctx.site("vm.usage.lookup");
                match usage {
                    Some(pages) => ctx.reply(msg.return_path(), OsMsg::RVal(pages)),
                    None => ctx.reply(msg.return_path(), OsMsg::RErr(Errno::ESRCH)),
                }
            }
            _ => {}
        }
        // User calls account inside `user_call`; VmUsage is contractually
        // read-only; pings are trivial.
        if matches!(
            &msg.payload,
            OsMsg::VmFork { .. }
                | OsMsg::VmExecReset { .. }
                | OsMsg::VmFree { .. }
                | OsMsg::VmFreeSelf { .. }
        ) {
            self.account(ctx);
        }
        let _ = &self.topo;
    }

    fn clone_box(&self) -> Box<dyn Server<OsMsg>> {
        Box::new(self.clone())
    }
}
