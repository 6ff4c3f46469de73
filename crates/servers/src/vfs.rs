//! VFS — the Virtual Filesystem Server.
//!
//! Provides files, directories and pipes over an in-memory filesystem whose
//! data blocks live on the simulated disk, with a write-back block cache in
//! between. VFS is **multithreaded** using the cooperative thread library
//! (paper §IV-E, §V): an operation that misses the cache parks its
//! cooperative thread while the disk request is in flight, letting other
//! requests proceed. A thread yield forcibly closes the recovery window;
//! cache-hit paths complete without yielding and remain fully recoverable.
//!
//! Operations are written in a *retry* style: a continuation re-executes its
//! ensure-cached walk on every resume and only commits (mutates offsets,
//! sizes, cache contents) once everything it needs is resident. A crash
//! anywhere before commit therefore rolls back to a state where the request
//! simply never happened.

use std::sync::Arc;

use osiris_checkpoint::{Heap, PCell, PMap, PVec};
use osiris_cothread::{CoPool, ThreadId};
use osiris_kernel::abi::{Errno, Fd, FileStat, OpenFlags, Pid, SeekFrom, SysReply, Syscall};
use osiris_kernel::{Ctx, Delivery, Protocol, ReturnPath, Server};

use crate::disk::{Block, BLOCK_SIZE, ZEROS};
use crate::os::{Facts, Torn};
use crate::proto::OsMsg;
use crate::topology::Topology;

/// Maximum descriptors per process.
pub const MAX_FDS: u32 = 64;
/// Maximum bytes per read/write call (keeps one operation's block set well
/// under the cache capacity).
pub const MAX_IO: u32 = 16 * BLOCK_SIZE as u32;
/// Root directory inode number.
pub const ROOT_INO: u64 = 1;
/// Disk-block range where program binaries live (exec pseudo-blocks).
const EXEC_BASE: u64 = 1_000_000;
/// First disk block available for file data.
const DATA_BASE: u64 = 2_000_000;

/// A directory's `name → inode` bindings: a name-sorted vector of shared
/// names. The undo record of a directory update is a copy of the whole
/// inode, and this copy is one allocation whatever the directory holds (a
/// `BTreeMap<String, u64>` costs one per name plus one per tree node). Same
/// size and `Debug` rendering as that map, so the undo-byte accounting and
/// the state digest do not see the difference.
#[derive(Clone, Default, PartialEq, Eq)]
struct DirEntries(Vec<(Arc<str>, u64)>);

impl DirEntries {
    fn slot(&self, name: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(n, _)| (**n).cmp(name))
    }

    fn get(&self, name: &str) -> Option<u64> {
        self.slot(name).ok().map(|i| self.0[i].1)
    }

    fn insert(&mut self, name: &str, ino: u64) {
        match self.slot(name) {
            Ok(i) => self.0[i].1 = ino,
            Err(i) => self.0.insert(i, (Arc::from(name), ino)),
        }
    }

    fn remove(&mut self, name: &str) {
        if let Ok(i) = self.slot(name) {
            self.0.remove(i);
        }
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn names(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(n, _)| &**n)
    }
}

impl std::fmt::Debug for DirEntries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.0.iter().map(|(n, i)| (n, i)))
            .finish()
    }
}

// An explicit tag: left to itself the compiler would hide the tag in the
// vector's spare capacity values and shrink the inode by a word, and every
// undo record of the inode table is charged `size_of::<Inode>()`.
#[derive(Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
enum InodeKind {
    File { size: u64 },
    Dir { entries: DirEntries },
}

#[derive(Clone, Debug)]
struct Inode {
    kind: InodeKind,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpenTarget {
    File { ino: u64 },
    PipeR { id: u32 },
    PipeW { id: u32 },
}

#[derive(Clone, Copy, Debug)]
struct OpenFile {
    target: OpenTarget,
    offset: u64,
    flags: OpenFlags,
    refs: u32,
}

#[derive(Clone, Debug)]
struct BlockedRead {
    pid: u32,
    rp: ReturnPath,
    len: u32,
}

#[derive(Clone, Debug)]
struct Pipe {
    buf: Vec<u8>,
    readers: u32,
    writers: u32,
    waiting: Vec<BlockedRead>,
}

#[derive(Clone, Debug)]
struct CacheBlock {
    /// Shared with the disk's queue and store once written back.
    data: Block,
    dirty: bool,
    stamp: u64,
}

/// Cooperative-thread continuations (stored in the heap; see module docs).
#[derive(Clone, Debug)]
enum VfsCont {
    Read {
        slot: u32,
        rp: ReturnPath,
        len: u32,
    },
    Write {
        slot: u32,
        rp: ReturnPath,
        data: Vec<u8>,
    },
    ExecLoad {
        rp: ReturnPath,
        block: u64,
    },
    Fsync {
        rp: ReturnPath,
        ino: u64,
        remaining: u32,
    },
}

/// Result of driving a continuation one step.
enum Step {
    Done,
    Need { block: u64, cont: VfsCont },
}

#[derive(Clone, Copy, Debug)]
struct Handles {
    /// Served-event statistics, updated after replying (deferred
    /// bookkeeping outside the recovery window).
    ops: PCell<u64>,
    stats: PMap<&'static str, u64>,
    last_event: PCell<u64>,
    inodes: PMap<u64, Inode>,
    next_ino: PCell<u64>,
    /// (inode, block index within file) → disk block.
    file_blocks: PMap<(u64, u64), u64>,
    next_block: PCell<u64>,
    free_blocks: PVec<u64>,
    cache: PMap<u64, CacheBlock>,
    cache_stamp: PCell<u64>,
    oft: PMap<u32, OpenFile>,
    next_slot: PCell<u32>,
    /// (pid, fd) → open-file slot.
    fds: PMap<(u32, u32), u32>,
    pipes: PMap<u32, Pipe>,
    next_pipe: PCell<u32>,
    pool: CoPool<VfsCont>,
    /// Outstanding disk request id → (thread, block or 0 for fsync acks).
    disk_waits: PMap<u64, (u32, u64)>,
    backlog: PVec<VfsCont>,
}

/// The Virtual Filesystem Server.
#[derive(Clone, Debug)]
pub struct VfsServer {
    topo: Topology,
    cache_cap: usize,
    threads: u32,
    h: Option<Handles>,
}

impl VfsServer {
    /// Creates a VFS with the given block-cache capacity and cooperative
    /// thread count.
    pub fn new(topo: Topology, cache_cap: usize, threads: u32) -> Self {
        VfsServer {
            topo,
            cache_cap,
            threads,
            h: None,
        }
    }

    fn h(&self) -> Handles {
        self.h.expect("VFS used before init")
    }

    /// Adds descriptor-holding pids and each slot, pipe or block its tables contradict.
    pub(crate) fn facts(&self, heap: &Heap, facts: &mut Facts) {
        let h = self.h();
        let mut slot_refs: std::collections::BTreeMap<u32, u32> = Default::default();
        h.fds.for_each(heap, |(pid, _), slot| {
            facts.vfs_fd_pids.insert(*pid);
            *slot_refs.entry(*slot).or_insert(0) += 1;
        });
        // Slot reference counts must match the descriptor table exactly.
        let mut pipe_ends: std::collections::BTreeMap<u32, (u32, u32)> = Default::default();
        h.oft.for_each(heap, |slot, of| {
            if slot_refs.get(slot).copied().unwrap_or(0) != of.refs {
                facts.torn.push(Torn::VfsRefs(*slot));
            }
            match of.target {
                OpenTarget::PipeR { id } => pipe_ends.entry(id).or_default().0 += of.refs,
                OpenTarget::PipeW { id } => pipe_ends.entry(id).or_default().1 += of.refs,
                OpenTarget::File { .. } => {}
            }
        });
        // Pipe reader and writer counts must match the open-file table.
        h.pipes.for_each(heap, |id, p| {
            if pipe_ends.get(id).copied().unwrap_or_default() != (p.readers, p.writers) {
                facts.torn.push(Torn::VfsPipe(*id));
            }
        });
        // Every data block must belong to an existing file inode.
        h.file_blocks.for_each(heap, |(ino, _), _| {
            if !h.inodes.contains_key(heap, ino) {
                facts.torn.push(Torn::VfsOrphanBlocks(*ino));
            }
        });
    }

    // ------------------------------------------------------------------
    // Block / cache helpers
    // ------------------------------------------------------------------

    fn alloc_block(&self, ctx: &mut Ctx<'_, OsMsg>) -> u64 {
        let h = self.h();
        if let Some(b) = h.free_blocks.pop(ctx.heap()) {
            return b;
        }
        let b = h.next_block.get(ctx.heap_ref());
        h.next_block.set(ctx.heap(), b + 1);
        b
    }

    /// Inserts `data` for `block` into the cache (evicting if over
    /// capacity) with the given dirty flag.
    fn cache_insert(&self, block: u64, data: Block, dirty: bool, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        if !h.cache.contains_key(ctx.heap_ref(), &block)
            && h.cache.len(ctx.heap_ref()) >= self.cache_cap
        {
            self.evict_one(ctx);
        }
        let stamp = h.cache_stamp.get(ctx.heap_ref());
        h.cache_stamp.set(ctx.heap(), stamp + 1);
        h.cache
            .insert(ctx.heap(), block, CacheBlock { data, dirty, stamp });
    }

    /// Evicts the oldest block (FIFO by insertion stamp). A dirty victim is
    /// written back to disk first (fire and forget). Stamp order guarantees
    /// a freshly fetched block is never the victim, so multi-block
    /// operations cannot livelock against their own evictions.
    fn evict_one(&self, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        let mut oldest: Option<(u64, u64, bool)> = None; // (stamp, block, dirty)
        h.cache.for_each(ctx.heap_ref(), |b, c| {
            let older = match oldest {
                Some((s, _, _)) => c.stamp < s,
                None => true,
            };
            if older {
                oldest = Some((c.stamp, *b, c.dirty));
            }
        });
        ctx.site("vfs.cache.evict");
        match oldest {
            // A clean victim is dropped; only a dirty one's bytes leave.
            Some((_, b, false)) => {
                h.cache.delete(ctx.heap(), &b);
            }
            Some((_, b, true)) => {
                // The journal and the write share the victim's block. The
                // write travels with the message; no thread waits for it.
                let data = h
                    .cache
                    .remove(ctx.heap(), &b)
                    .expect("victim just seen")
                    .data;
                ctx.send_request(self.topo.disk, OsMsg::DiskWrite { block: b, data });
            }
            None => {}
        }
    }

    // ------------------------------------------------------------------
    // Path resolution
    // ------------------------------------------------------------------

    /// Looks `name` up in directory `dir`.
    fn lookup(&self, dir: u64, name: &str, heap: &Heap) -> Result<Option<u64>, Errno> {
        self.h()
            .inodes
            .with(heap, &dir, |node| match &node.kind {
                InodeKind::Dir { entries } => Ok(entries.get(name)),
                InodeKind::File { .. } => Err(Errno::ENOTDIR),
            })
            .ok_or(Errno::ENOENT)?
    }

    /// Resolves `path` to `(parent_ino, leaf_name, Option<leaf_ino>)`. The
    /// leaf name borrows from `path`; the walk reads every directory in
    /// place.
    fn resolve<'p>(
        &self,
        path: &'p str,
        heap: &Heap,
    ) -> Result<(u64, &'p str, Option<u64>), Errno> {
        if !path.starts_with('/') || path.len() > 512 {
            return Err(Errno::EINVAL);
        }
        let mut parts = path.split('/').filter(|p| !p.is_empty());
        let Some(mut leaf) = parts.next() else {
            // The root itself: parent is root, no leaf.
            return Ok((ROOT_INO, "", Some(ROOT_INO)));
        };
        let mut dir = ROOT_INO;
        for next in parts {
            dir = self.lookup(dir, leaf, heap)?.ok_or(Errno::ENOENT)?;
            leaf = next;
        }
        Ok((dir, leaf, self.lookup(dir, leaf, heap)?))
    }

    fn file_size(&self, ino: u64, heap: &Heap) -> Option<u64> {
        self.h().inodes.with(heap, &ino, |node| match node.kind {
            InodeKind::File { size } => Some(size),
            InodeKind::Dir { .. } => None,
        })?
    }

    /// Whether the inode a path just resolved to is a directory.
    fn is_dir(&self, ino: u64, heap: &Heap) -> bool {
        self.h()
            .inodes
            .with(heap, &ino, |node| {
                matches!(node.kind, InodeKind::Dir { .. })
            })
            .expect("resolved inode exists")
    }

    /// Frees all data blocks of `ino` (cache entries included).
    fn free_file_blocks(&self, ino: u64, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        // Take the lowest remaining key each time: the range shrinks as the
        // walk deletes, so no key list is collected first.
        let first = |heap: &Heap| {
            h.file_blocks.with_map(heap, |m| {
                m.range((ino, 0)..(ino + 1, 0))
                    .next()
                    .map(|(k, b)| (*k, *b))
            })
        };
        while let Some((k, block)) = first(ctx.heap_ref()) {
            h.file_blocks.delete(ctx.heap(), &k);
            h.cache.delete(ctx.heap(), &block);
            h.free_blocks.push(ctx.heap(), block);
        }
    }

    // ------------------------------------------------------------------
    // Descriptor helpers
    // ------------------------------------------------------------------

    fn alloc_fd(&self, pid: u32, ctx: &mut Ctx<'_, OsMsg>) -> Option<u32> {
        let h = self.h();
        (0..MAX_FDS).find(|fd| !h.fds.contains_key(ctx.heap_ref(), &(pid, *fd)))
    }

    fn slot_of(&self, pid: u32, fd: Fd, heap: &Heap) -> Option<(u32, OpenFile)> {
        let h = self.h();
        let slot = h.fds.get(heap, &(pid, fd.0))?;
        let of = h.oft.get(heap, &slot)?;
        Some((slot, of))
    }

    fn install_fd(
        &self,
        pid: u32,
        target: OpenTarget,
        flags: OpenFlags,
        ctx: &mut Ctx<'_, OsMsg>,
    ) -> Option<u32> {
        let h = self.h();
        let fd = self.alloc_fd(pid, ctx)?;
        let slot = h.next_slot.get(ctx.heap_ref());
        h.next_slot.set(ctx.heap(), slot + 1);
        h.oft.insert(
            ctx.heap(),
            slot,
            OpenFile {
                target,
                offset: 0,
                flags,
                refs: 1,
            },
        );
        h.fds.insert(ctx.heap(), (pid, fd), slot);
        Some(fd)
    }

    // ------------------------------------------------------------------
    // Continuation engine
    // ------------------------------------------------------------------

    /// Drives `cont` one step: completes it (replying) or reports the disk
    /// block it needs next.
    fn step(&self, cont: VfsCont, ctx: &mut Ctx<'_, OsMsg>) -> Step {
        match cont {
            VfsCont::Read { slot, rp, len } => self.step_read(slot, rp, len, ctx),
            VfsCont::Write { slot, rp, data } => match self.step_write(slot, rp, &data, ctx) {
                Some(block) => Step::Need {
                    block,
                    cont: VfsCont::Write { slot, rp, data },
                },
                None => Step::Done,
            },
            VfsCont::ExecLoad { rp, block } => {
                ctx.site("vfs.exec.step");
                if self.h().cache.contains_key(ctx.heap_ref(), &block) {
                    ctx.reply(rp, OsMsg::ROk);
                    Step::Done
                } else {
                    Step::Need {
                        block,
                        cont: VfsCont::ExecLoad { rp, block },
                    }
                }
            }
            VfsCont::Fsync { .. } => unreachable!("fsync is driven by its own path"),
        }
    }

    fn step_read(&self, slot: u32, rp: ReturnPath, len: u32, ctx: &mut Ctx<'_, OsMsg>) -> Step {
        let h = self.h();
        ctx.site("vfs.read.step");
        let Some(of) = h.oft.get(ctx.heap_ref(), &slot) else {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EBADF)));
            return Step::Done;
        };
        let OpenTarget::File { ino } = of.target else {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EBADF)));
            return Step::Done;
        };
        let Some(size) = self.file_size(ino, ctx.heap_ref()) else {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EIO)));
            return Step::Done;
        };
        let off = of.offset;
        if off >= size || len == 0 {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Data(Vec::new())));
            return Step::Done;
        }
        // Value probe: a fail-silent fault here perturbs the effective
        // read length (an off-by-N bug), silently returning wrong data.
        let n = ctx
            .site_val("vfs.read.len", u64::from(len).min(size - off))
            .min(size - off)
            .max(1);
        let b0 = off / BLOCK_SIZE as u64;
        let b1 = (off + n - 1) / BLOCK_SIZE as u64;
        // Ensure phase: every mapped block must be cached.
        for idx in b0..=b1 {
            if let Some(block) = h.file_blocks.get(ctx.heap_ref(), &(ino, idx)) {
                if !h.cache.contains_key(ctx.heap_ref(), &block) {
                    return Step::Need {
                        block,
                        cont: VfsCont::Read { slot, rp, len },
                    };
                }
            }
        }
        ctx.site("vfs.read.assemble");
        // Commit phase: assemble and advance the offset.
        let mut data = Vec::with_capacity(n as usize);
        for idx in b0..=b1 {
            let chunk_start = (idx * BLOCK_SIZE as u64).max(off);
            let chunk_end = ((idx + 1) * BLOCK_SIZE as u64).min(off + n);
            let s = (chunk_start % BLOCK_SIZE as u64) as usize;
            let e = s + (chunk_end - chunk_start) as usize;
            match h.file_blocks.get(ctx.heap_ref(), &(ino, idx)) {
                Some(block) => h
                    .cache
                    .with(ctx.heap_ref(), &block, |c| {
                        data.extend_from_slice(&c.data[s..e])
                    })
                    .expect("ensured above"),
                None => data.extend(std::iter::repeat_n(0u8, e - s)),
            }
        }
        h.oft.update(ctx.heap(), &slot, |f| f.offset = off + n);
        ctx.charge(n / 8);
        ctx.reply(rp, OsMsg::UserReply(SysReply::Data(data)));
        Step::Done
    }

    /// Drives a write one step on the borrowed payload: completes it
    /// (replying) and returns `None`, or returns the block it must read
    /// first. Only the caller that parks it copies the payload.
    fn step_write(
        &self,
        slot: u32,
        rp: ReturnPath,
        data: &[u8],
        ctx: &mut Ctx<'_, OsMsg>,
    ) -> Option<u64> {
        let h = self.h();
        ctx.site("vfs.write.step");
        let Some(of) = h.oft.get(ctx.heap_ref(), &slot) else {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EBADF)));
            return None;
        };
        let OpenTarget::File { ino } = of.target else {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EBADF)));
            return None;
        };
        if !of.flags.write {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EBADF)));
            return None;
        }
        let Some(size) = self.file_size(ino, ctx.heap_ref()) else {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EIO)));
            return None;
        };
        let off = if of.flags.append { size } else { of.offset };
        let n = data.len() as u64;
        if n == 0 {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Val(0)));
            return None;
        }
        let end = off + n;
        let b0 = off / BLOCK_SIZE as u64;
        let b1 = (end - 1) / BLOCK_SIZE as u64;
        // Ensure phase: partially-overwritten mapped blocks must be cached
        // (read-modify-write needs their current contents).
        for idx in b0..=b1 {
            let block_start = idx * BLOCK_SIZE as u64;
            let block_end = block_start + BLOCK_SIZE as u64;
            let fully_covered = off <= block_start && end >= block_end;
            if fully_covered {
                continue;
            }
            if let Some(block) = h.file_blocks.get(ctx.heap_ref(), &(ino, idx)) {
                if !h.cache.contains_key(ctx.heap_ref(), &block) {
                    return Some(block);
                }
            }
        }
        ctx.site("vfs.write.commit");
        // Commit phase.
        for idx in b0..=b1 {
            // A fault mid-commit tears the file: earlier blocks committed,
            // later ones and the size not yet updated. Only rollback-based
            // recovery undoes this.
            if idx > b0 && idx == b1 {
                ctx.site("vfs.write.block");
            }
            let block = match h.file_blocks.get(ctx.heap_ref(), &(ino, idx)) {
                Some(b) => b,
                None => {
                    let b = self.alloc_block(ctx);
                    h.file_blocks.insert(ctx.heap(), (ino, idx), b);
                    b
                }
            };
            let block_start = idx * BLOCK_SIZE as u64;
            let s = off.max(block_start);
            let e = end.min(block_start + BLOCK_SIZE as u64);
            let src = &data[(s - off) as usize..(e - off) as usize];
            // Every write builds one new block: a block the write covers
            // entirely is the payload slice; a partial one is a fresh copy
            // of the cached bytes (or zeros), patched before anyone shares
            // it. The old block stays as it was for the journal and the disk.
            let bytes = if src.len() == BLOCK_SIZE {
                Block::from(src)
            } else {
                let mut bytes = h
                    .cache
                    .with(ctx.heap_ref(), &block, |c| Block::from(&c.data[..]))
                    .unwrap_or_else(|| Block::from(&ZEROS[..]));
                let dst_s = (s - block_start) as usize;
                Arc::get_mut(&mut bytes).expect("a fresh block has one owner")
                    [dst_s..dst_s + src.len()]
                    .copy_from_slice(src);
                bytes
            };
            self.cache_insert(block, bytes, true, ctx);
        }
        if end > size {
            h.inodes.update(ctx.heap(), &ino, |node| {
                if let InodeKind::File { size } = &mut node.kind {
                    *size = end;
                }
            });
        }
        h.oft.update(ctx.heap(), &slot, |f| f.offset = end);
        ctx.charge(n / 8);
        ctx.reply(rp, OsMsg::UserReply(SysReply::Val(n as i64)));
        None
    }

    /// Runs a fresh continuation: completes inline on cache hits, otherwise
    /// parks it on a cooperative thread (or the backlog if all threads are
    /// busy).
    fn run_or_park(&self, cont: VfsCont, ctx: &mut Ctx<'_, OsMsg>) {
        if let VfsCont::Fsync { rp, ino, .. } = cont {
            // Backlogged fsyncs restart from scratch (the dirty set may have
            // changed while queued).
            self.fsync_start(ino, rp, ctx);
            return;
        }
        match self.step(cont, ctx) {
            Step::Done => {}
            Step::Need { block, cont } => self.park(block, cont, ctx),
        }
    }

    fn park(&self, block: u64, cont: VfsCont, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        match h.pool.activate(ctx.heap()) {
            Some(tid) => {
                ctx.site("vfs.thread.park");
                let id = ctx.send_request(self.topo.disk, OsMsg::DiskRead { block });
                h.disk_waits.insert(ctx.heap(), id.0, (tid.0, block));
                h.pool.yield_blocked(ctx.heap(), tid, cont);
                // Paper §IV-E: yielding forcibly closes the recovery window.
                ctx.yield_window();
            }
            None => {
                ctx.site("vfs.thread.backlog");
                h.backlog.push(ctx.heap(), cont);
            }
        }
    }

    /// A disk reply arrived for the request `request_id`.
    fn disk_reply(&self, request_id: u64, payload: OsMsg, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        let Some((tid, block)) = h.disk_waits.remove(ctx.heap(), &request_id) else {
            // An eviction write-back ack, or a rolled-back transaction.
            return;
        };
        ctx.site("vfs.disk.reply");
        let failure = match payload {
            OsMsg::RData(data) => {
                if block != 0 {
                    self.cache_insert(block, data, false, ctx);
                }
                None
            }
            OsMsg::ROk => None,
            OsMsg::RErr(_) => Some(Errno::EIO),
            OsMsg::RCrash => Some(Errno::EIO),
            _ => None,
        };
        let Some(cont) = h.pool.resume(ctx.heap(), ThreadId(tid)) else {
            // Thread was cleaned up by recovery; drop the data (it is safely
            // cached) and move on.
            return;
        };
        if let Some(e) = failure {
            let rp = match &cont {
                VfsCont::Read { rp, .. }
                | VfsCont::Write { rp, .. }
                | VfsCont::Fsync { rp, .. } => *rp,
                VfsCont::ExecLoad { rp, .. } => {
                    let rp = *rp;
                    self.finish_thread(ThreadId(tid), ctx);
                    ctx.reply(rp, OsMsg::RErr(e));
                    return;
                }
            };
            self.finish_thread(ThreadId(tid), ctx);
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(e)));
            return;
        }
        match cont {
            VfsCont::Fsync { rp, ino, remaining } => {
                let remaining = remaining.saturating_sub(1);
                if remaining == 0 {
                    self.finish_thread(ThreadId(tid), ctx);
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Ok));
                } else {
                    self.h().pool.yield_blocked(
                        ctx.heap(),
                        ThreadId(tid),
                        VfsCont::Fsync { rp, ino, remaining },
                    );
                    ctx.yield_window();
                }
            }
            other => match self.step(other, ctx) {
                Step::Done => self.finish_thread(ThreadId(tid), ctx),
                Step::Need { block, cont } => {
                    let id = ctx.send_request(self.topo.disk, OsMsg::DiskRead { block });
                    self.h().disk_waits.insert(ctx.heap(), id.0, (tid, block));
                    self.h().pool.yield_blocked(ctx.heap(), ThreadId(tid), cont);
                    ctx.yield_window();
                }
            },
        }
    }

    fn finish_thread(&self, tid: ThreadId, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        h.pool.finish(ctx.heap(), tid);
        // A thread freed up: give the oldest backlogged operation a chance.
        if !h.backlog.is_empty(ctx.heap_ref()) {
            // Remove index 0 by rebuilding the tail (backlogs are short).
            let mut rest = h.backlog.snapshot(ctx.heap_ref());
            let cont = rest.remove(0);
            h.backlog.clear(ctx.heap());
            for c in rest {
                h.backlog.push(ctx.heap(), c);
            }
            self.run_or_park(cont, ctx);
        }
    }

    // ------------------------------------------------------------------
    // Inline operations
    // ------------------------------------------------------------------

    fn open(
        &self,
        pid: Pid,
        path: &str,
        flags: OpenFlags,
        rp: ReturnPath,
        ctx: &mut Ctx<'_, OsMsg>,
    ) {
        let h = self.h();
        ctx.site("vfs.open.entry");
        let (parent, leaf, ino) = match self.resolve(path, ctx.heap_ref()) {
            Ok(r) => r,
            Err(e) => {
                ctx.reply(rp, OsMsg::UserReply(SysReply::Err(e)));
                return;
            }
        };
        let ino = match ino {
            Some(i) => {
                if self.is_dir(i, ctx.heap_ref()) {
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EISDIR)));
                    return;
                }
                if flags.truncate {
                    ctx.site("vfs.open.truncate");
                    self.free_file_blocks(i, ctx);
                    h.inodes
                        .update(ctx.heap(), &i, |n| n.kind = InodeKind::File { size: 0 });
                }
                i
            }
            None => {
                if !ctx.site_branch("vfs.open.create", flags.create) {
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ENOENT)));
                    return;
                }
                let i = h.next_ino.get(ctx.heap_ref());
                h.next_ino.set(ctx.heap(), i + 1);
                h.inodes.insert(
                    ctx.heap(),
                    i,
                    Inode {
                        kind: InodeKind::File { size: 0 },
                    },
                );
                h.inodes.update(ctx.heap(), &parent, |n| {
                    if let InodeKind::Dir { entries } = &mut n.kind {
                        entries.insert(leaf, i);
                    }
                });
                ctx.site("vfs.open.created");
                i
            }
        };
        match self.install_fd(pid.0, OpenTarget::File { ino }, flags, ctx) {
            Some(fd) => {
                ctx.site("vfs.open.done");
                ctx.reply(rp, OsMsg::UserReply(SysReply::Desc(Fd(fd))));
            }
            None => ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EMFILE))),
        }
    }

    /// Close semantics shared by `close`, `cleanup` and pipe teardown.
    ///
    /// Pipe reader/writer counts track *descriptors* (`dup` and fork
    /// inheritance increment them), so every close decrements them — not
    /// just the one that drops the last slot reference.
    fn close_slot(&self, slot: u32, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        let Some(of) = h.oft.get(ctx.heap_ref(), &slot) else {
            return;
        };
        match of.target {
            OpenTarget::File { .. } => {}
            OpenTarget::PipeR { id } => {
                h.pipes.update(ctx.heap(), &id, |p| p.readers -= 1);
            }
            OpenTarget::PipeW { id } => {
                let wake = h
                    .pipes
                    .update(ctx.heap(), &id, |p| {
                        p.writers -= 1;
                        if p.writers == 0 {
                            std::mem::take(&mut p.waiting)
                        } else {
                            Vec::new()
                        }
                    })
                    .unwrap_or_default();
                for w in wake {
                    // End of file for every blocked reader.
                    ctx.reply(w.rp, OsMsg::UserReply(SysReply::Data(Vec::new())));
                }
            }
        }
        if let OpenTarget::PipeR { id } | OpenTarget::PipeW { id } = of.target {
            let gone = h
                .pipes
                .with(ctx.heap_ref(), &id, |p| p.readers == 0 && p.writers == 0)
                .unwrap_or(false);
            if gone {
                h.pipes.delete(ctx.heap(), &id);
            }
        }
        if of.refs > 1 {
            h.oft.update(ctx.heap(), &slot, |f| f.refs -= 1);
        } else {
            h.oft.delete(ctx.heap(), &slot);
        }
    }

    fn close(&self, pid: Pid, fd: Fd, rp: ReturnPath, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        ctx.site("vfs.close.entry");
        let Some(slot) = h.fds.remove(ctx.heap(), &(pid.0, fd.0)) else {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EBADF)));
            return;
        };
        self.close_slot(slot, ctx);
        ctx.reply(rp, OsMsg::UserReply(SysReply::Ok));
    }

    fn dup(&self, pid: Pid, fd: Fd, rp: ReturnPath, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        ctx.site("vfs.dup.entry");
        let Some((slot, of)) = self.slot_of(pid.0, fd, ctx.heap_ref()) else {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EBADF)));
            return;
        };
        let Some(newfd) = self.alloc_fd(pid.0, ctx) else {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EMFILE)));
            return;
        };
        h.oft.update(ctx.heap(), &slot, |f| f.refs += 1);
        match of.target {
            OpenTarget::PipeR { id } => {
                h.pipes.update(ctx.heap(), &id, |p| p.readers += 1);
            }
            OpenTarget::PipeW { id } => {
                h.pipes.update(ctx.heap(), &id, |p| p.writers += 1);
            }
            OpenTarget::File { .. } => {}
        }
        h.fds.insert(ctx.heap(), (pid.0, newfd), slot);
        ctx.reply(rp, OsMsg::UserReply(SysReply::Desc(Fd(newfd))));
    }

    fn mkpipe(&self, pid: Pid, rp: ReturnPath, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        ctx.site("vfs.pipe.entry");
        let id = h.next_pipe.get(ctx.heap_ref());
        h.next_pipe.set(ctx.heap(), id + 1);
        h.pipes.insert(
            ctx.heap(),
            id,
            Pipe {
                buf: Vec::new(),
                readers: 1,
                writers: 1,
                waiting: Vec::new(),
            },
        );
        let Some(rfd) = self.install_fd(pid.0, OpenTarget::PipeR { id }, OpenFlags::RDONLY, ctx)
        else {
            h.pipes.delete(ctx.heap(), &id);
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EMFILE)));
            return;
        };
        let wflags = OpenFlags {
            read: false,
            write: true,
            create: false,
            truncate: false,
            append: false,
        };
        let Some(wfd) = self.install_fd(pid.0, OpenTarget::PipeW { id }, wflags, ctx) else {
            // Roll the read end back by hand.
            if let Some(slot) = h.fds.remove(ctx.heap(), &(pid.0, rfd)) {
                h.oft.delete(ctx.heap(), &slot);
            }
            h.pipes.delete(ctx.heap(), &id);
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EMFILE)));
            return;
        };
        ctx.site("vfs.pipe.done");
        ctx.reply(rp, OsMsg::UserReply(SysReply::TwoDesc(Fd(rfd), Fd(wfd))));
    }

    fn pipe_read(&self, pid: Pid, id: u32, len: u32, rp: ReturnPath, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        ctx.site("vfs.pipe.read");
        let Some((buffered, writers)) = h
            .pipes
            .with(ctx.heap_ref(), &id, |p| (p.buf.len(), p.writers))
        else {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EPIPE)));
            return;
        };
        if buffered > 0 {
            let k = (len as usize).min(buffered);
            let data = h
                .pipes
                .update(ctx.heap(), &id, |p| p.buf.drain(..k).collect::<Vec<u8>>())
                .unwrap_or_default();
            ctx.reply(rp, OsMsg::UserReply(SysReply::Data(data)));
        } else if ctx.site_branch("vfs.pipe.read_eof", writers == 0) {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Data(Vec::new())));
        } else {
            h.pipes.update(ctx.heap(), &id, |p| {
                p.waiting.push(BlockedRead {
                    pid: pid.0,
                    rp,
                    len,
                });
            });
            ctx.site("vfs.pipe.read_block");
        }
    }

    fn pipe_write(&self, id: u32, bytes: &[u8], rp: ReturnPath, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        ctx.site("vfs.pipe.write");
        let Some(readers) = h.pipes.with(ctx.heap_ref(), &id, |p| p.readers) else {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EPIPE)));
            return;
        };
        if readers == 0 {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EPIPE)));
            return;
        }
        // Append, then satisfy blocked readers in arrival order.
        let served: Vec<(ReturnPath, Vec<u8>)> = h
            .pipes
            .update(ctx.heap(), &id, |p| {
                p.buf.extend_from_slice(bytes);
                let mut served = Vec::new();
                while !p.waiting.is_empty() && !p.buf.is_empty() {
                    let w = p.waiting.remove(0);
                    let k = (w.len as usize).min(p.buf.len());
                    let data: Vec<u8> = p.buf.drain(..k).collect();
                    served.push((w.rp, data));
                }
                served
            })
            .unwrap_or_default();
        ctx.charge(bytes.len() as u64 / 8);
        for (wrp, data) in served {
            ctx.reply(wrp, OsMsg::UserReply(SysReply::Data(data)));
        }
        ctx.site("vfs.pipe.write_done");
        ctx.reply(rp, OsMsg::UserReply(SysReply::Val(bytes.len() as i64)));
    }

    fn seek(&self, pid: Pid, fd: Fd, from: SeekFrom, rp: ReturnPath, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        ctx.site("vfs.seek.entry");
        let Some((slot, of)) = self.slot_of(pid.0, fd, ctx.heap_ref()) else {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EBADF)));
            return;
        };
        let OpenTarget::File { ino } = of.target else {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EPIPE)));
            return;
        };
        let size = self.file_size(ino, ctx.heap_ref()).unwrap_or(0);
        let new: i64 = match from {
            SeekFrom::Start(o) => o as i64,
            SeekFrom::Current(d) => of.offset as i64 + d,
            SeekFrom::End(d) => size as i64 + d,
        };
        if new < 0 {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EINVAL)));
            return;
        }
        h.oft.update(ctx.heap(), &slot, |f| f.offset = new as u64);
        ctx.reply(rp, OsMsg::UserReply(SysReply::Val(new)));
    }

    fn stat(&self, path: &str, rp: ReturnPath, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        ctx.site("vfs.stat.entry");
        match self.resolve(path, ctx.heap_ref()) {
            Ok((_, _, Some(ino))) => {
                let st = h
                    .inodes
                    .with(ctx.heap_ref(), &ino, |node| match &node.kind {
                        InodeKind::File { size } => FileStat {
                            size: *size,
                            is_dir: false,
                            nlink: 1,
                        },
                        InodeKind::Dir { entries } => FileStat {
                            size: 0,
                            is_dir: true,
                            nlink: entries.len() as u32 + 2,
                        },
                    })
                    .expect("resolved");
                ctx.reply(rp, OsMsg::UserReply(SysReply::StatInfo(st)));
            }
            Ok((_, _, None)) => ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ENOENT))),
            Err(e) => ctx.reply(rp, OsMsg::UserReply(SysReply::Err(e))),
        }
    }

    fn mkdir(&self, path: &str, rp: ReturnPath, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        ctx.site("vfs.mkdir.entry");
        match self.resolve(path, ctx.heap_ref()) {
            Ok((_, _, Some(_))) => ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EEXIST))),
            Ok((parent, leaf, None)) => {
                let i = h.next_ino.get(ctx.heap_ref());
                h.next_ino.set(ctx.heap(), i + 1);
                h.inodes.insert(
                    ctx.heap(),
                    i,
                    Inode {
                        kind: InodeKind::Dir {
                            entries: DirEntries::default(),
                        },
                    },
                );
                h.inodes.update(ctx.heap(), &parent, |n| {
                    if let InodeKind::Dir { entries } = &mut n.kind {
                        entries.insert(leaf, i);
                    }
                });
                ctx.site("vfs.mkdir.done");
                ctx.reply(rp, OsMsg::UserReply(SysReply::Ok));
            }
            Err(e) => ctx.reply(rp, OsMsg::UserReply(SysReply::Err(e))),
        }
    }

    fn readdir(&self, path: &str, rp: ReturnPath, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        ctx.site("vfs.readdir.entry");
        match self.resolve(path, ctx.heap_ref()) {
            Ok((_, _, Some(ino))) => {
                let names = h
                    .inodes
                    .with(ctx.heap_ref(), &ino, |node| match &node.kind {
                        InodeKind::Dir { entries } => {
                            Some(entries.names().map(str::to_string).collect())
                        }
                        InodeKind::File { .. } => None,
                    })
                    .expect("resolved");
                match names {
                    Some(names) => ctx.reply(rp, OsMsg::UserReply(SysReply::Names(names))),
                    None => ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ENOTDIR))),
                }
            }
            Ok((_, _, None)) => ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ENOENT))),
            Err(e) => ctx.reply(rp, OsMsg::UserReply(SysReply::Err(e))),
        }
    }

    fn unlink(&self, path: &str, rp: ReturnPath, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        ctx.site("vfs.unlink.entry");
        match self.resolve(path, ctx.heap_ref()) {
            Ok((parent, leaf, Some(ino))) => {
                if self.is_dir(ino, ctx.heap_ref()) {
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EISDIR)));
                    return;
                }
                // Refuse to unlink files that are still open (keeps the
                // open-file table free of dangling inodes).
                let busy = h
                    .oft
                    .find_key(ctx.heap_ref(), |_, f| f.target == OpenTarget::File { ino })
                    .is_some();
                if ctx.site_branch("vfs.unlink.busy", busy) {
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EBUSY)));
                    return;
                }
                self.free_file_blocks(ino, ctx);
                h.inodes.delete(ctx.heap(), &ino);
                h.inodes.update(ctx.heap(), &parent, |n| {
                    if let InodeKind::Dir { entries } = &mut n.kind {
                        entries.remove(leaf);
                    }
                });
                ctx.site("vfs.unlink.done");
                ctx.reply(rp, OsMsg::UserReply(SysReply::Ok));
            }
            Ok((_, _, None)) => ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ENOENT))),
            Err(e) => ctx.reply(rp, OsMsg::UserReply(SysReply::Err(e))),
        }
    }

    fn rename(&self, from: &str, to: &str, rp: ReturnPath, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        ctx.site("vfs.rename.entry");
        let src = match self.resolve(from, ctx.heap_ref()) {
            Ok((p, l, Some(i))) => (p, l, i),
            Ok(_) => {
                ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ENOENT)));
                return;
            }
            Err(e) => {
                ctx.reply(rp, OsMsg::UserReply(SysReply::Err(e)));
                return;
            }
        };
        let dst = match self.resolve(to, ctx.heap_ref()) {
            Ok((p, l, None)) => (p, l),
            Ok((_, _, Some(_))) => {
                ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EEXIST)));
                return;
            }
            Err(e) => {
                ctx.reply(rp, OsMsg::UserReply(SysReply::Err(e)));
                return;
            }
        };
        h.inodes.update(ctx.heap(), &src.0, |n| {
            if let InodeKind::Dir { entries } = &mut n.kind {
                entries.remove(src.1);
            }
        });
        h.inodes.update(ctx.heap(), &dst.0, |n| {
            if let InodeKind::Dir { entries } = &mut n.kind {
                entries.insert(dst.1, src.2);
            }
        });
        ctx.site("vfs.rename.done");
        ctx.reply(rp, OsMsg::UserReply(SysReply::Ok));
    }

    fn fsync(&self, pid: Pid, fd: Fd, rp: ReturnPath, ctx: &mut Ctx<'_, OsMsg>) {
        ctx.site("vfs.fsync.entry");
        let Some((_, of)) = self.slot_of(pid.0, fd, ctx.heap_ref()) else {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EBADF)));
            return;
        };
        let OpenTarget::File { ino } = of.target else {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EBADF)));
            return;
        };
        self.fsync_start(ino, rp, ctx);
    }

    fn fsync_start(&self, ino: u64, rp: ReturnPath, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        // Collect this file's dirty cached blocks.
        let blocks: Vec<u64> = h.file_blocks.with_map(ctx.heap_ref(), |m| {
            m.range((ino, 0)..(ino + 1, 0)).map(|(_, b)| *b).collect()
        });
        let dirty: Vec<u64> = blocks
            .into_iter()
            .filter(|b| {
                h.cache
                    .with(ctx.heap_ref(), b, |c| c.dirty)
                    .unwrap_or(false)
            })
            .collect();
        if dirty.is_empty() {
            ctx.reply(rp, OsMsg::UserReply(SysReply::Ok));
            return;
        }
        let Some(tid) = h.pool.activate(ctx.heap()) else {
            ctx.site("vfs.fsync.backlog");
            h.backlog.push(
                ctx.heap(),
                VfsCont::Fsync {
                    rp,
                    ino,
                    remaining: u32::MAX,
                },
            );
            return;
        };
        ctx.site("vfs.fsync.flush");
        let n = dirty.len() as u32;
        for b in dirty {
            let data = h.cache.update(ctx.heap(), &b, |c| {
                c.dirty = false;
                c.data.clone()
            });
            if let Some(data) = data {
                let id = ctx.send_request(self.topo.disk, OsMsg::DiskWrite { block: b, data });
                h.disk_waits.insert(ctx.heap(), id.0, (tid.0, 0));
            }
        }
        h.pool.yield_blocked(
            ctx.heap(),
            tid,
            VfsCont::Fsync {
                rp,
                ino,
                remaining: n,
            },
        );
        ctx.yield_window();
    }

    fn exec_load(&self, prog: &str, rp: ReturnPath, ctx: &mut Ctx<'_, OsMsg>) {
        ctx.site("vfs.exec.entry");
        let block = EXEC_BASE + (osiris_axiom::fnv1a_str(prog) % 256);
        self.run_or_park(VfsCont::ExecLoad { rp, block }, ctx);
    }

    /// Duplicates `parent`'s descriptor table for `child` (fork).
    fn fork_dup(&self, parent: Pid, child: Pid, rp: ReturnPath, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        ctx.site("vfs.forkdup.entry");
        let entries: Vec<(u32, u32)> = h.fds.with_map(ctx.heap_ref(), |m| {
            m.range((parent.0, 0)..(parent.0 + 1, 0))
                .map(|(k, v)| (k.1, *v))
                .collect()
        });
        for (dup_count, (fd, slot)) in entries.into_iter().enumerate() {
            if dup_count == 1 {
                // Mid-duplication fault: the child holds only part of the
                // descriptor table, with drifted pipe counts, unless the
                // whole transaction is rolled back.
                ctx.site("vfs.forkdup.fd");
            }
            h.fds.insert(ctx.heap(), (child.0, fd), slot);
            let target = h.oft.update(ctx.heap(), &slot, |f| {
                f.refs += 1;
                f.target
            });
            match target {
                Some(OpenTarget::PipeR { id }) => {
                    h.pipes.update(ctx.heap(), &id, |p| p.readers += 1);
                }
                Some(OpenTarget::PipeW { id }) => {
                    h.pipes.update(ctx.heap(), &id, |p| p.writers += 1);
                }
                _ => {}
            }
        }
        ctx.site("vfs.forkdup.done");
        ctx.reply(rp, OsMsg::ROk);
    }

    fn cleanup(&self, pid: Pid, ctx: &mut Ctx<'_, OsMsg>) {
        let h = self.h();
        ctx.site("vfs.cleanup.entry");
        // Close every descriptor of the departed process.
        let keys: Vec<(u32, u32)> = h.fds.with_map(ctx.heap_ref(), |m| {
            m.range((pid.0, 0)..(pid.0 + 1, 0))
                .map(|(k, _)| *k)
                .collect()
        });
        for k in keys {
            if let Some(slot) = h.fds.remove(ctx.heap(), &k) {
                self.close_slot(slot, ctx);
            }
        }
        // Cancel its blocked pipe reads.
        let pipe_ids = h.pipes.keys(ctx.heap_ref());
        for id in pipe_ids {
            let cancelled = h
                .pipes
                .update(ctx.heap(), &id, |p| {
                    let (mine, rest): (Vec<BlockedRead>, Vec<BlockedRead>) =
                        std::mem::take(&mut p.waiting)
                            .into_iter()
                            .partition(|w| w.pid == pid.0);
                    p.waiting = rest;
                    mine
                })
                .unwrap_or_default();
            for w in cancelled {
                ctx.reply(w.rp, OsMsg::UserReply(SysReply::Err(Errno::EKILLED)));
            }
        }
        ctx.site("vfs.cleanup.done");
    }

    fn user_call(&self, msg: Delivery<'_, OsMsg>, ctx: &mut Ctx<'_, OsMsg>) {
        let rp = msg.return_path();
        let OsMsg::User { pid, call } = &msg.payload else {
            return;
        };
        let pid = *pid;
        match call {
            Syscall::Open { path, flags } => self.open(pid, path, *flags, rp, ctx),
            Syscall::Close { fd } => self.close(pid, *fd, rp, ctx),
            Syscall::Dup { fd } => self.dup(pid, *fd, rp, ctx),
            Syscall::Pipe => self.mkpipe(pid, rp, ctx),
            Syscall::Seek { fd, from } => self.seek(pid, *fd, *from, rp, ctx),
            Syscall::Stat { path } => self.stat(path, rp, ctx),
            Syscall::Mkdir { path } => self.mkdir(path, rp, ctx),
            Syscall::ReadDir { path } => self.readdir(path, rp, ctx),
            Syscall::Unlink { path } => self.unlink(path, rp, ctx),
            Syscall::Rename { from, to } => self.rename(from, to, rp, ctx),
            Syscall::Fsync { fd } => self.fsync(pid, *fd, rp, ctx),
            Syscall::Read { fd, len } => {
                ctx.site("vfs.read.entry");
                if *len > MAX_IO {
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EINVAL)));
                    return;
                }
                match self.slot_of(pid.0, *fd, ctx.heap_ref()) {
                    Some((slot, of)) => match of.target {
                        OpenTarget::PipeR { id } => self.pipe_read(pid, id, *len, rp, ctx),
                        OpenTarget::PipeW { .. } => {
                            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EBADF)))
                        }
                        OpenTarget::File { .. } => self.run_or_park(
                            VfsCont::Read {
                                slot,
                                rp,
                                len: *len,
                            },
                            ctx,
                        ),
                    },
                    None => ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EBADF))),
                }
            }
            Syscall::Write { fd, bytes } => {
                ctx.site("vfs.write.entry");
                if bytes.len() as u32 > MAX_IO {
                    ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EINVAL)));
                    return;
                }
                match self.slot_of(pid.0, *fd, ctx.heap_ref()) {
                    Some((slot, of)) => match of.target {
                        OpenTarget::PipeW { id } => self.pipe_write(id, bytes, rp, ctx),
                        OpenTarget::PipeR { .. } => {
                            ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EBADF)))
                        }
                        OpenTarget::File { .. } => {
                            // A write that parks keeps its payload: moved out
                            // of the request, copied only from a lent one.
                            if let Some(block) = self.step_write(slot, rp, bytes, ctx) {
                                let OsMsg::User {
                                    call: Syscall::Write { bytes: data, .. },
                                    ..
                                } = msg.take_payload()
                                else {
                                    unreachable!("matched a Write above")
                                };
                                self.park(block, VfsCont::Write { slot, rp, data }, ctx);
                            }
                        }
                    },
                    None => ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::EBADF))),
                }
            }
            _ => ctx.reply(rp, OsMsg::UserReply(SysReply::Err(Errno::ENOSYS))),
        }
    }
}

impl Server<OsMsg> for VfsServer {
    fn name(&self) -> &'static str {
        "vfs"
    }

    fn init(&mut self, ctx: &mut Ctx<'_, OsMsg>) {
        let threads = self.threads;
        let heap = ctx.heap();
        let mut root_entries = DirEntries::default();
        let inodes = heap.alloc_map::<u64, Inode>("vfs.inodes");
        // Pre-create /tmp and /bin.
        inodes.insert(
            heap,
            2,
            Inode {
                kind: InodeKind::Dir {
                    entries: DirEntries::default(),
                },
            },
        );
        inodes.insert(
            heap,
            3,
            Inode {
                kind: InodeKind::Dir {
                    entries: DirEntries::default(),
                },
            },
        );
        root_entries.insert("tmp", 2);
        root_entries.insert("bin", 3);
        inodes.insert(
            heap,
            ROOT_INO,
            Inode {
                kind: InodeKind::Dir {
                    entries: root_entries,
                },
            },
        );
        let h = Handles {
            ops: heap.alloc_cell("vfs.ops", 0),
            stats: heap.alloc_map("vfs.stats"),
            last_event: heap.alloc_cell("vfs.last_event", 0),
            inodes,
            next_ino: heap.alloc_cell("vfs.next_ino", 4),
            file_blocks: heap.alloc_map("vfs.file_blocks"),
            next_block: heap.alloc_cell("vfs.next_block", DATA_BASE),
            free_blocks: heap.alloc_vec("vfs.free_blocks"),
            cache: heap.alloc_map("vfs.cache"),
            cache_stamp: heap.alloc_cell("vfs.cache_stamp", 0),
            oft: heap.alloc_map("vfs.oft"),
            next_slot: heap.alloc_cell("vfs.next_slot", 0),
            fds: heap.alloc_map("vfs.fds"),
            pipes: heap.alloc_map("vfs.pipes"),
            next_pipe: heap.alloc_cell("vfs.next_pipe", 0),
            pool: CoPool::new(heap, threads),
            disk_waits: heap.alloc_map("vfs.disk_waits"),
            backlog: heap.alloc_vec("vfs.backlog"),
        };
        self.h = Some(h);
    }

    fn handle(&mut self, msg: Delivery<'_, OsMsg>, ctx: &mut Ctx<'_, OsMsg>) {
        let label = msg.payload.label();
        match &msg.payload {
            OsMsg::User { .. } => self.user_call(msg, ctx),
            OsMsg::VfsExecLoad { pid: _, prog } => self.exec_load(prog, msg.return_path(), ctx),
            OsMsg::VfsCleanup { pid } | OsMsg::VfsCleanupSelf { pid } => self.cleanup(*pid, ctx),
            OsMsg::VfsForkDup { parent, child } => {
                self.fork_dup(*parent, *child, msg.return_path(), ctx)
            }
            OsMsg::RData(_) | OsMsg::ROk | OsMsg::RErr(_) | OsMsg::RCrash => {
                if let Some(request_id) = msg.reply_to {
                    self.disk_reply(request_id.0, msg.take_payload(), ctx);
                }
            }
            OsMsg::Ping => {
                ctx.site("vfs.ping");
                ctx.reply(msg.return_path(), OsMsg::Pong);
                return;
            }
            _ => {}
        }
        // Deferred bookkeeping after the reply went out (outside the
        // recovery window). Under the paper's unoptimized build every one
        // of these writes is undo-logged; the window-gated build skips the
        // logging entirely.
        ctx.site("vfs.post.account");
        let h = self.h();
        let now = ctx.now();
        h.ops.update(ctx.heap(), |n| *n += 1);
        if h.stats.update(ctx.heap(), &label, |n| *n += 1).is_none() {
            h.stats.insert(ctx.heap(), label, 1);
        }
        h.last_event.set(ctx.heap(), now);
        h.cache_stamp.update(ctx.heap(), |s| *s = s.wrapping_add(0));
        ctx.site("vfs.post.done");
        ctx.charge(25);
    }

    fn on_restore(&mut self, heap: &mut Heap) {
        // Paper §IV-E: after a rollback or restart the thread library may
        // still believe the crashed thread is running; repair it.
        self.h().pool.fix_after_restore(heap);
    }

    fn clone_box(&self) -> Box<dyn Server<OsMsg>> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    /// What `DirEntries` replaced, for the two things that must not move.
    #[allow(dead_code)]
    enum MapKind {
        File { size: u64 },
        Dir { entries: BTreeMap<String, u64> },
    }

    #[test]
    fn dir_entries_are_a_name_sorted_map_with_the_old_size_and_rendering() {
        let mut dir = DirEntries::default();
        let mut map = BTreeMap::new();
        for (name, ino) in [("tmp", 2), ("bin", 3), ("a b", 9), ("tmp", 4), ("zz", 5)] {
            dir.insert(name, ino);
            map.insert(name.to_string(), ino);
        }
        dir.remove("a b");
        dir.remove("absent");
        map.remove("a b");
        assert_eq!(
            (dir.get("tmp"), dir.get("a b"), dir.len()),
            (Some(4), None, 3)
        );
        assert!(dir.names().eq(map.keys().map(String::as_str)));
        assert_eq!(format!("{dir:?}"), format!("{map:?}"));
        assert_eq!(format!("{dir:#?}"), format!("{map:#?}"));
        assert_eq!(size_of::<InodeKind>(), size_of::<MapKind>());
    }
}
