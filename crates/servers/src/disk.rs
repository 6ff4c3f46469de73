//! The disk driver: a block device with a latency model.
//!
//! VFS sends `DiskRead`/`DiskWrite` requests; the driver queues them, waits
//! one disk latency (a kernel timer), then answers. Writes are committed at
//! completion time, reads return the committed contents (zeros for blocks
//! never written). Because timers fire in submission order, a write to a
//! block always commits before a later-submitted read of the same block.
//!
//! A block is one immutable [`Block`] from the VFS cache through the queue
//! and the store and back as the read reply: each hand-off, journal record
//! or lent request shares it, and none copies it.

use std::sync::Arc;

use osiris_checkpoint::{PCell, PMap};
use osiris_kernel::{cost, Ctx, Delivery, ReturnPath, Server};

use crate::proto::OsMsg;

/// Fixed block size of the simulated device, in bytes.
pub const BLOCK_SIZE: usize = 1024;

/// A block's bytes, [`BLOCK_SIZE`] long: shared, and never edited once
/// built. A writer builds a new block; it never patches a shared one.
pub type Block = Arc<[u8]>;

/// What a never-written block reads as.
pub(crate) const ZEROS: [u8; BLOCK_SIZE] = [0; BLOCK_SIZE];

#[derive(Clone, Debug)]
enum DiskOp {
    Read { block: u64 },
    Write { block: u64, data: Block },
}

#[derive(Clone, Debug)]
struct Pending {
    rp: ReturnPath,
    op: DiskOp,
}

#[derive(Clone, Copy, Debug)]
struct Handles {
    blocks: PMap<u64, Block>,
    pending: PMap<u64, Pending>,
    next_token: PCell<u64>,
    ops: PCell<u64>,
}

/// The disk driver component: answers each request after
/// [`cost::DISK_LATENCY`] cycles.
#[derive(Clone, Debug, Default)]
pub struct DiskDriver {
    h: Option<Handles>,
}

impl DiskDriver {
    fn h(&self) -> Handles {
        self.h.expect("disk used before init")
    }

    /// The latency of the request queued under `token` has elapsed.
    fn complete(&self, token: u64, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        // Stale tokens (rolled-back queue entries) are ignored.
        let Some(p) = h.pending.remove(ctx.heap(), &token) else {
            return;
        };
        ctx.site("disk.complete");
        h.ops.update(ctx.heap(), |n| *n += 1);
        match p.op {
            DiskOp::Read { block } => {
                let data = h
                    .blocks
                    .cloned(ctx.heap_ref(), &block)
                    .unwrap_or_else(|| Block::from(&ZEROS[..]));
                ctx.reply(p.rp, OsMsg::RData(data));
            }
            DiskOp::Write { block, data } => {
                h.blocks.insert(ctx.heap(), block, data);
                ctx.reply(p.rp, OsMsg::ROk);
            }
        }
    }
}

impl Server<OsMsg> for DiskDriver {
    fn name(&self) -> &'static str {
        "disk"
    }

    fn init(&mut self, ctx: &mut Ctx<'_, OsMsg>) {
        let heap = ctx.heap();
        self.h = Some(Handles {
            blocks: heap.alloc_map("disk.blocks"),
            pending: heap.alloc_map("disk.pending"),
            next_token: heap.alloc_cell("disk.next_token", 1),
            ops: heap.alloc_cell("disk.ops", 0),
        });
    }

    fn handle(&mut self, msg: Delivery<'_, OsMsg>, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        let rp = msg.return_path();
        // A write's block moves out of the message into the queue; when
        // the kernel lent the request, the block is shared, not copied.
        let op = match msg.take_payload() {
            OsMsg::DiskRead { block } => {
                ctx.site("disk.read.queue");
                DiskOp::Read { block }
            }
            OsMsg::DiskWrite { block, data } => {
                ctx.site("disk.write.queue");
                DiskOp::Write { block, data }
            }
            OsMsg::DiskTick { token } => return self.complete(token, ctx),
            OsMsg::Ping => return ctx.reply(rp, OsMsg::Pong),
            _ => return,
        };
        let token = h.next_token.get(ctx.heap_ref());
        h.next_token.set(ctx.heap(), token + 1);
        h.pending.insert(ctx.heap(), token, Pending { rp, op });
        ctx.set_timer(cost::DISK_LATENCY, OsMsg::DiskTick { token });
    }

    fn clone_box(&self) -> Box<dyn Server<OsMsg>> {
        Box::new(self.clone())
    }
}
