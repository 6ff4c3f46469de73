//! A monolithic baseline operating system.
//!
//! Implements exactly the syscall ABI of `osiris-kernel` — so every workload
//! program runs unmodified — but as one address space with direct function
//! calls: no message passing, no context switches between OS components, no
//! fault isolation and no recovery. This is the "Linux" role in the paper's
//! Table IV: comparing it against the compartmentalized OSIRIS baseline
//! isolates the architectural cost of compartmentalization itself.
//!
//! The cost model is shared with the microkernel simulator; the monolith
//! simply never pays `IPC_SEND`/`IPC_DELIVER`, performs file I/O
//! synchronously (a cache miss charges the disk latency directly instead of
//! parking a server thread), and does no undo logging.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, HashMap, VecDeque};

use osiris_kernel::abi::{
    Errno, Fd, FileStat, OpenFlags, Pid, SeekFrom, Signal, SysReply, Syscall,
};
use osiris_kernel::{cost, OsEngine, ShutdownKind, SyscallId, VirtualClock};

const MAX_FDS: u32 = 64;
const BLOCK_SIZE: usize = 1024;
/// Pages in a fresh process image (matches the microkernel VM server).
const IMG_PAGES: u64 = 8;

#[derive(Clone, Debug, PartialEq, Eq)]
enum ProcState {
    Alive,
    Zombie(i32),
}

#[derive(Clone, Debug)]
struct Proc {
    ppid: u32,
    state: ProcState,
    masked: Vec<Signal>,
    pending: Vec<Signal>,
    data_pages: u64,
    mappings: BTreeMap<u64, u64>,
}

impl Proc {
    fn fresh(ppid: u32) -> Self {
        Proc {
            ppid,
            state: ProcState::Alive,
            masked: Vec::new(),
            pending: Vec::new(),
            data_pages: IMG_PAGES,
            mappings: BTreeMap::new(),
        }
    }

    fn resident(&self) -> u64 {
        self.data_pages + self.mappings.values().sum::<u64>()
    }
}

#[derive(Clone, Debug)]
enum Node {
    File(Vec<u8>),
    Dir(BTreeMap<String, u64>),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Target {
    File { ino: u64 },
    PipeR { id: u32 },
    PipeW { id: u32 },
}

#[derive(Clone, Debug)]
struct Open {
    target: Target,
    offset: u64,
    flags: OpenFlags,
    refs: u32,
}

#[derive(Clone, Debug)]
struct MPipe {
    buf: VecDeque<u8>,
    readers: u32,
    writers: u32,
    waiting: Vec<(SyscallId, Pid, u32)>,
}

/// The monolithic OS engine.
///
/// ```
/// use osiris_workloads::{Host, ProgramRegistry};
/// use osiris_monolith::Monolith;
///
/// let mut registry = ProgramRegistry::new();
/// registry.register("hello", |sys| i32::from(sys.getpid().unwrap().0 != 1));
/// let mut host = Host::new(Monolith::new(), registry);
/// assert!(host.run("hello", &[]).completed());
/// ```
#[derive(Debug)]
pub struct Monolith {
    clock: VirtualClock,
    procs: HashMap<u32, Proc>,
    next_pid: u32,
    waiters: HashMap<u32, (Option<u32>, SyscallId)>,
    timers: BTreeMap<(u64, u64), (SyscallId, Pid)>,
    timer_seq: u64,
    free_frames: u64,
    nodes: HashMap<u64, Node>,
    next_ino: u64,
    oft: HashMap<u32, Open>,
    next_slot: u32,
    fds: HashMap<(u32, u32), u32>,
    pipes: HashMap<u32, MPipe>,
    next_pipe: u32,
    kv: BTreeMap<String, Vec<u8>>,
    /// FIFO of resident block ids for the buffer-cache model.
    cache: VecDeque<(u64, u64)>,
    cache_cap: usize,
    replies: Vec<(SyscallId, Pid, SysReply)>,
    kills: Vec<Pid>,
    syscalls: u64,
}

impl Default for Monolith {
    fn default() -> Self {
        Self::new()
    }
}

impl Monolith {
    /// Creates a monolith with the same cache capacity (64 blocks) and
    /// frame pool as the default OSIRIS configuration.
    pub fn new() -> Self {
        Self::with_sizes(64, 65_536)
    }

    /// Creates a monolith with an explicit buffer-cache capacity and
    /// frame-pool size (use the same values as the OSIRIS configuration
    /// being compared against).
    pub fn with_sizes(cache_cap: usize, frames: u64) -> Self {
        let mut nodes = HashMap::new();
        let mut root = BTreeMap::new();
        nodes.insert(2, Node::Dir(BTreeMap::new()));
        nodes.insert(3, Node::Dir(BTreeMap::new()));
        root.insert("tmp".to_string(), 2);
        root.insert("bin".to_string(), 3);
        nodes.insert(1, Node::Dir(root));
        let mut procs = HashMap::new();
        procs.insert(1, Proc::fresh(0));
        Monolith {
            clock: VirtualClock::new(),
            procs,
            next_pid: 2,
            waiters: HashMap::new(),
            timers: BTreeMap::new(),
            timer_seq: 0,
            free_frames: frames - IMG_PAGES,
            nodes,
            next_ino: 4,
            oft: HashMap::new(),
            next_slot: 0,
            fds: HashMap::new(),
            pipes: HashMap::new(),
            next_pipe: 0,
            kv: BTreeMap::new(),
            cache: VecDeque::new(),
            cache_cap,
            replies: Vec::new(),
            kills: Vec::new(),
            syscalls: 0,
        }
    }

    /// Number of syscalls served.
    pub fn syscall_count(&self) -> u64 {
        self.syscalls
    }

    fn charge(&mut self, c: u64) {
        self.clock.advance(c);
    }

    /// Buffer-cache model: touching `(ino, block)` is free on a hit; a
    /// *read* miss charges the disk latency (synchronous I/O), while a
    /// write miss only installs the block (write-back, like the OSIRIS
    /// VFS).
    fn touch_block(&mut self, ino: u64, block: u64, is_read: bool) {
        if let Some(pos) = self.cache.iter().position(|e| *e == (ino, block)) {
            let e = self.cache.remove(pos).expect("position valid");
            self.cache.push_back(e);
            return;
        }
        if is_read {
            self.charge(cost::DISK_LATENCY / 8);
        }
        if self.cache.len() >= self.cache_cap {
            self.cache.pop_front();
        }
        self.cache.push_back((ino, block));
    }

    fn reply(&mut self, sid: SyscallId, pid: Pid, r: SysReply) {
        self.replies.push((sid, pid, r));
    }

    fn resolve(&self, path: &str) -> Result<(u64, String, Option<u64>), Errno> {
        if !path.starts_with('/') || path.len() > 512 {
            return Err(Errno::EINVAL);
        }
        let parts: Vec<&str> = path.split('/').filter(|p| !p.is_empty()).collect();
        if parts.is_empty() {
            return Ok((1, String::new(), Some(1)));
        }
        let mut dir = 1u64;
        for part in &parts[..parts.len() - 1] {
            match self.nodes.get(&dir) {
                Some(Node::Dir(entries)) => {
                    dir = *entries.get(*part).ok_or(Errno::ENOENT)?;
                }
                Some(Node::File(_)) => return Err(Errno::ENOTDIR),
                None => return Err(Errno::ENOENT),
            }
        }
        let leaf = parts[parts.len() - 1].to_string();
        match self.nodes.get(&dir) {
            Some(Node::Dir(entries)) => {
                let ino = entries.get(&leaf).copied();
                Ok((dir, leaf, ino))
            }
            Some(Node::File(_)) => Err(Errno::ENOTDIR),
            None => Err(Errno::ENOENT),
        }
    }

    fn alloc_fd(&self, pid: u32) -> Option<u32> {
        (0..MAX_FDS).find(|fd| !self.fds.contains_key(&(pid, *fd)))
    }

    fn install_fd(&mut self, pid: u32, target: Target, flags: OpenFlags) -> Option<u32> {
        let fd = self.alloc_fd(pid)?;
        let slot = self.next_slot;
        self.next_slot += 1;
        self.oft.insert(
            slot,
            Open {
                target,
                offset: 0,
                flags,
                refs: 1,
            },
        );
        self.fds.insert((pid, fd), slot);
        Some(fd)
    }

    fn close_slot(&mut self, slot: u32) {
        let Some(of) = self.oft.get(&slot).cloned() else {
            return;
        };
        match of.target {
            Target::File { .. } => {}
            Target::PipeR { id } => {
                if let Some(p) = self.pipes.get_mut(&id) {
                    p.readers -= 1;
                }
            }
            Target::PipeW { id } => {
                let wake = match self.pipes.get_mut(&id) {
                    Some(p) => {
                        p.writers -= 1;
                        if p.writers == 0 {
                            std::mem::take(&mut p.waiting)
                        } else {
                            Vec::new()
                        }
                    }
                    None => Vec::new(),
                };
                for (sid, pid, _) in wake {
                    self.reply(sid, pid, SysReply::Data(Vec::new()));
                }
            }
        }
        if let Target::PipeR { id } | Target::PipeW { id } = of.target {
            if self
                .pipes
                .get(&id)
                .map(|p| p.readers == 0 && p.writers == 0)
                .unwrap_or(false)
            {
                self.pipes.remove(&id);
            }
        }
        if of.refs > 1 {
            if let Some(f) = self.oft.get_mut(&slot) {
                f.refs -= 1;
            }
        } else {
            self.oft.remove(&slot);
        }
    }

    fn terminate(&mut self, pid: u32, code: i32) {
        let Some(proc) = self.procs.get(&pid).cloned() else {
            return;
        };
        self.charge(cost::HANDLER_BASE + proc.resident() * cost::MEM_WRITE);
        self.free_frames += proc.resident();
        // Children: reap zombies, reparent the rest to init.
        let children: Vec<u32> = self
            .procs
            .iter()
            .filter(|(_, p)| p.ppid == pid)
            .map(|(c, _)| *c)
            .collect();
        for c in children {
            let zombie = matches!(self.procs[&c].state, ProcState::Zombie(_));
            if zombie {
                self.procs.remove(&c);
            } else if let Some(p) = self.procs.get_mut(&c) {
                p.ppid = 1;
            }
        }
        // Close descriptors.
        let keys: Vec<(u32, u32)> = self
            .fds
            .keys()
            .filter(|(p, _)| *p == pid)
            .copied()
            .collect();
        for k in keys {
            if let Some(slot) = self.fds.remove(&k) {
                self.close_slot(slot);
            }
        }
        // Cancel blocked pipe reads.
        let pipe_ids: Vec<u32> = self.pipes.keys().copied().collect();
        let mut cancelled = Vec::new();
        for id in pipe_ids {
            if let Some(p) = self.pipes.get_mut(&id) {
                let (mine, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut p.waiting)
                    .into_iter()
                    .partition(|(_, w, _)| w.0 == pid);
                p.waiting = rest;
                cancelled.extend(mine);
            }
        }
        for (sid, wpid, _) in cancelled {
            self.reply(sid, wpid, SysReply::Err(Errno::EKILLED));
        }
        // Wake a waiting parent or become a zombie.
        let ppid = proc.ppid;
        let waiter = self
            .waiters
            .get(&ppid)
            .filter(|(t, _)| t.is_none() || *t == Some(pid))
            .copied();
        if let Some((_, sid)) = waiter {
            self.waiters.remove(&ppid);
            self.procs.remove(&pid);
            self.reply(sid, Pid(ppid), SysReply::Exited(Pid(pid), code));
        } else if self.procs.contains_key(&ppid) {
            if let Some(p) = self.procs.get_mut(&pid) {
                p.state = ProcState::Zombie(code);
            }
        } else {
            self.procs.remove(&pid);
        }
    }

    fn dispatch(&mut self, sid: SyscallId, pid: Pid, call: Syscall) {
        let base = cost::SYSCALL_ENTRY + cost::HANDLER_BASE;
        self.charge(base);
        match call {
            Syscall::Spawn { .. } | Syscall::Fork => {
                let Some(parent) = self.procs.get(&pid.0).cloned() else {
                    self.reply(sid, pid, SysReply::Err(Errno::ESRCH));
                    return;
                };
                let need = parent.resident();
                if self.free_frames < need {
                    self.reply(sid, pid, SysReply::Err(Errno::ENOMEM));
                    return;
                }
                self.free_frames -= need;
                let child = self.next_pid;
                self.next_pid += 1;
                let mut cp = parent.clone();
                cp.ppid = pid.0;
                cp.state = ProcState::Alive;
                self.charge(need * cost::MEM_WRITE);
                self.procs.insert(child, cp);
                // Inherit descriptors.
                let entries: Vec<(u32, u32)> = self
                    .fds
                    .iter()
                    .filter(|((p, _), _)| *p == pid.0)
                    .map(|((_, fd), slot)| (*fd, *slot))
                    .collect();
                for (fd, slot) in entries {
                    self.fds.insert((child, fd), slot);
                    let target = self.oft.get_mut(&slot).map(|f| {
                        f.refs += 1;
                        f.target
                    });
                    match target {
                        Some(Target::PipeR { id }) => {
                            if let Some(p) = self.pipes.get_mut(&id) {
                                p.readers += 1;
                            }
                        }
                        Some(Target::PipeW { id }) => {
                            if let Some(p) = self.pipes.get_mut(&id) {
                                p.writers += 1;
                            }
                        }
                        _ => {}
                    }
                }
                // Spawn additionally loads the binary: one cache touch.
                if matches!(call, Syscall::Spawn { .. }) {
                    self.touch_block(0, u64::from(child) % 8, true);
                    self.charge(IMG_PAGES * cost::MEM_WRITE);
                }
                self.reply(sid, pid, SysReply::Proc(Pid(child)));
            }
            Syscall::Exec { .. } => {
                let Some(p) = self.procs.get_mut(&pid.0) else {
                    self.reply(sid, pid, SysReply::Err(Errno::ESRCH));
                    return;
                };
                let old = p.resident();
                p.data_pages = IMG_PAGES;
                p.mappings.clear();
                self.free_frames += old;
                self.free_frames -= IMG_PAGES;
                self.touch_block(0, u64::from(pid.0) % 8, true);
                self.charge(IMG_PAGES * cost::MEM_WRITE);
                self.reply(sid, pid, SysReply::Ok);
            }
            Syscall::Exit { code } => self.terminate(pid.0, code),
            Syscall::WaitPid { pid: target } => self.wait(sid, pid, Some(target.0)),
            Syscall::WaitAny => self.wait(sid, pid, None),
            Syscall::Kill { pid: target, sig } => self.kill(sid, pid, target, sig),
            Syscall::GetPid => self.reply(sid, pid, SysReply::Proc(pid)),
            Syscall::GetPPid => {
                let r = match self.procs.get(&pid.0) {
                    Some(p) => SysReply::Proc(Pid(p.ppid)),
                    None => SysReply::Err(Errno::ESRCH),
                };
                self.reply(sid, pid, r);
            }
            Syscall::SigMask { sig, masked } => {
                if sig == Signal::SigKill {
                    self.reply(sid, pid, SysReply::Err(Errno::EINVAL));
                    return;
                }
                let r = match self.procs.get_mut(&pid.0) {
                    Some(p) => {
                        if masked {
                            if !p.masked.contains(&sig) {
                                p.masked.push(sig);
                            }
                        } else {
                            p.masked.retain(|s| *s != sig);
                        }
                        SysReply::Ok
                    }
                    None => SysReply::Err(Errno::ESRCH),
                };
                self.reply(sid, pid, r);
            }
            Syscall::SigPending => {
                let r = match self.procs.get_mut(&pid.0) {
                    Some(p) => SysReply::Signals(std::mem::take(&mut p.pending)),
                    None => SysReply::Err(Errno::ESRCH),
                };
                self.reply(sid, pid, r);
            }
            Syscall::Sleep { ticks } => {
                self.timer_seq += 1;
                let at = self.clock.now() + ticks.max(1);
                self.timers.insert((at, self.timer_seq), (sid, pid));
            }
            Syscall::Brk { pages } => {
                let Some(p) = self.procs.get(&pid.0).cloned() else {
                    self.reply(sid, pid, SysReply::Err(Errno::ESRCH));
                    return;
                };
                let new = p.data_pages as i64 + pages;
                if new < 0 {
                    self.reply(sid, pid, SysReply::Err(Errno::EINVAL));
                    return;
                }
                if pages > 0 {
                    if self.free_frames < pages as u64 {
                        self.reply(sid, pid, SysReply::Err(Errno::ENOMEM));
                        return;
                    }
                    self.free_frames -= pages as u64;
                    self.charge(pages as u64 * cost::MEM_WRITE);
                } else {
                    self.free_frames += (-pages) as u64;
                }
                if let Some(p) = self.procs.get_mut(&pid.0) {
                    p.data_pages = new as u64;
                }
                self.reply(sid, pid, SysReply::Val(new));
            }
            Syscall::Mmap { pages } => {
                if pages == 0 {
                    self.reply(sid, pid, SysReply::Err(Errno::EINVAL));
                    return;
                }
                if self.free_frames < pages {
                    self.reply(sid, pid, SysReply::Err(Errno::ENOMEM));
                    return;
                }
                self.free_frames -= pages;
                self.charge(pages * cost::MEM_WRITE);
                let r = match self.procs.get_mut(&pid.0) {
                    Some(p) => {
                        let id = p.mappings.keys().max().copied().unwrap_or(0) + 1;
                        p.mappings.insert(id, pages);
                        SysReply::Val(id as i64)
                    }
                    None => SysReply::Err(Errno::ESRCH),
                };
                self.reply(sid, pid, r);
            }
            Syscall::Munmap { id } => {
                let r = match self.procs.get_mut(&pid.0) {
                    Some(p) => match p.mappings.remove(&id) {
                        Some(pages) => {
                            self.free_frames += pages;
                            SysReply::Ok
                        }
                        None => SysReply::Err(Errno::EINVAL),
                    },
                    None => SysReply::Err(Errno::ESRCH),
                };
                self.reply(sid, pid, r);
            }
            Syscall::VmStat => {
                let r = match self.procs.get(&pid.0) {
                    Some(p) => SysReply::Val(p.resident() as i64),
                    None => SysReply::Err(Errno::ESRCH),
                };
                self.reply(sid, pid, r);
            }
            Syscall::Open { path, flags } => self.open(sid, pid, &path, flags),
            Syscall::Close { fd } => match self.fds.remove(&(pid.0, fd.0)) {
                Some(slot) => {
                    self.close_slot(slot);
                    self.reply(sid, pid, SysReply::Ok);
                }
                None => self.reply(sid, pid, SysReply::Err(Errno::EBADF)),
            },
            Syscall::Read { fd, len } => self.read(sid, pid, fd, len),
            Syscall::Write { fd, bytes } => self.write(sid, pid, fd, &bytes),
            Syscall::Seek { fd, from } => self.seek(sid, pid, fd, from),
            Syscall::Unlink { path } => self.unlink(sid, pid, &path),
            Syscall::Mkdir { path } => self.mkdir(sid, pid, &path),
            Syscall::ReadDir { path } => self.readdir(sid, pid, &path),
            Syscall::Stat { path } => self.stat(sid, pid, &path),
            Syscall::Rename { from, to } => self.rename(sid, pid, &from, &to),
            Syscall::Pipe => {
                let id = self.next_pipe;
                self.next_pipe += 1;
                self.pipes.insert(
                    id,
                    MPipe {
                        buf: VecDeque::new(),
                        readers: 1,
                        writers: 1,
                        waiting: Vec::new(),
                    },
                );
                let Some(rfd) = self.install_fd(pid.0, Target::PipeR { id }, OpenFlags::RDONLY)
                else {
                    self.pipes.remove(&id);
                    self.reply(sid, pid, SysReply::Err(Errno::EMFILE));
                    return;
                };
                let wflags = OpenFlags {
                    read: false,
                    write: true,
                    create: false,
                    truncate: false,
                    append: false,
                };
                let Some(wfd) = self.install_fd(pid.0, Target::PipeW { id }, wflags) else {
                    if let Some(slot) = self.fds.remove(&(pid.0, rfd)) {
                        self.oft.remove(&slot);
                    }
                    self.pipes.remove(&id);
                    self.reply(sid, pid, SysReply::Err(Errno::EMFILE));
                    return;
                };
                self.reply(sid, pid, SysReply::TwoDesc(Fd(rfd), Fd(wfd)));
            }
            Syscall::Dup { fd } => {
                let Some(slot) = self.fds.get(&(pid.0, fd.0)).copied() else {
                    self.reply(sid, pid, SysReply::Err(Errno::EBADF));
                    return;
                };
                let Some(newfd) = self.alloc_fd(pid.0) else {
                    self.reply(sid, pid, SysReply::Err(Errno::EMFILE));
                    return;
                };
                let target = self.oft.get_mut(&slot).map(|f| {
                    f.refs += 1;
                    f.target
                });
                match target {
                    Some(Target::PipeR { id }) => {
                        if let Some(p) = self.pipes.get_mut(&id) {
                            p.readers += 1;
                        }
                    }
                    Some(Target::PipeW { id }) => {
                        if let Some(p) = self.pipes.get_mut(&id) {
                            p.writers += 1;
                        }
                    }
                    _ => {}
                }
                self.fds.insert((pid.0, newfd), slot);
                self.reply(sid, pid, SysReply::Desc(Fd(newfd)));
            }
            Syscall::Fsync { fd } => {
                let r = match self.fds.get(&(pid.0, fd.0)) {
                    Some(_) => {
                        // Synchronous flush: one disk latency.
                        self.charge(cost::DISK_LATENCY / 8);
                        SysReply::Ok
                    }
                    None => SysReply::Err(Errno::EBADF),
                };
                self.reply(sid, pid, r);
            }
            Syscall::DsPut { key, value } => {
                self.charge(value.len() as u64 / 8);
                self.kv.insert(key, value);
                self.reply(sid, pid, SysReply::Ok);
            }
            Syscall::DsGet { key } => {
                let r = match self.kv.get(&key) {
                    Some(v) => SysReply::Data(v.clone()),
                    None => SysReply::Err(Errno::ENOKEY),
                };
                self.reply(sid, pid, r);
            }
            Syscall::DsDel { key } => {
                let r = match self.kv.remove(&key) {
                    Some(_) => SysReply::Ok,
                    None => SysReply::Err(Errno::ENOKEY),
                };
                self.reply(sid, pid, r);
            }
            Syscall::DsList { prefix } => {
                let names: Vec<String> = self
                    .kv
                    .keys()
                    .filter(|k| k.starts_with(&prefix))
                    .cloned()
                    .collect();
                self.reply(sid, pid, SysReply::Names(names));
            }
        }
    }

    fn wait(&mut self, sid: SyscallId, pid: Pid, target: Option<u32>) {
        let mut zombie: Option<(u32, i32)> = None;
        let mut has_child = false;
        for (cpid, p) in &self.procs {
            if p.ppid == pid.0 && target.is_none_or(|t| t == *cpid) {
                has_child = true;
                if let ProcState::Zombie(code) = p.state {
                    if zombie.is_none_or(|(z, _)| *cpid < z) {
                        zombie = Some((*cpid, code));
                    }
                }
            }
        }
        if let Some((cpid, code)) = zombie {
            self.procs.remove(&cpid);
            self.reply(sid, pid, SysReply::Exited(Pid(cpid), code));
        } else if has_child {
            self.waiters.insert(pid.0, (target, sid));
        } else {
            self.reply(sid, pid, SysReply::Err(Errno::ECHILD));
        }
    }

    fn kill(&mut self, sid: SyscallId, pid: Pid, target: Pid, sig: Signal) {
        let Some(t) = self.procs.get(&target.0) else {
            self.reply(sid, pid, SysReply::Err(Errno::ESRCH));
            return;
        };
        if t.state != ProcState::Alive {
            self.reply(sid, pid, SysReply::Err(Errno::ESRCH));
            return;
        }
        let fatal = match sig {
            Signal::SigKill => true,
            Signal::SigTerm => !t.masked.contains(&Signal::SigTerm),
            _ => false,
        };
        if fatal {
            if let Some((_, wsid)) = self.waiters.remove(&target.0) {
                self.reply(wsid, target, SysReply::Err(Errno::EKILLED));
            }
            let sleeping: Vec<(u64, u64)> = self
                .timers
                .iter()
                .filter(|(_, (_, p))| *p == target)
                .map(|(k, _)| *k)
                .collect();
            for k in sleeping {
                if let Some((tsid, tpid)) = self.timers.remove(&k) {
                    self.reply(tsid, tpid, SysReply::Err(Errno::EKILLED));
                }
            }
            self.kills.push(target);
            self.terminate(target.0, -9);
        } else if let Some(t) = self.procs.get_mut(&target.0) {
            if !t.pending.contains(&sig) {
                t.pending.push(sig);
            }
        }
        self.reply(sid, pid, SysReply::Ok);
    }

    fn open(&mut self, sid: SyscallId, pid: Pid, path: &str, flags: OpenFlags) {
        let (parent, leaf, ino) = match self.resolve(path) {
            Ok(r) => r,
            Err(e) => {
                self.reply(sid, pid, SysReply::Err(e));
                return;
            }
        };
        let ino = match ino {
            Some(i) => {
                if matches!(self.nodes.get(&i), Some(Node::Dir(_))) {
                    self.reply(sid, pid, SysReply::Err(Errno::EISDIR));
                    return;
                }
                if flags.truncate {
                    self.nodes.insert(i, Node::File(Vec::new()));
                }
                i
            }
            None => {
                if !flags.create {
                    self.reply(sid, pid, SysReply::Err(Errno::ENOENT));
                    return;
                }
                let i = self.next_ino;
                self.next_ino += 1;
                self.nodes.insert(i, Node::File(Vec::new()));
                if let Some(Node::Dir(entries)) = self.nodes.get_mut(&parent) {
                    entries.insert(leaf, i);
                }
                i
            }
        };
        match self.install_fd(pid.0, Target::File { ino }, flags) {
            Some(fd) => self.reply(sid, pid, SysReply::Desc(Fd(fd))),
            None => self.reply(sid, pid, SysReply::Err(Errno::EMFILE)),
        }
    }

    fn read(&mut self, sid: SyscallId, pid: Pid, fd: Fd, len: u32) {
        let Some(slot) = self.fds.get(&(pid.0, fd.0)).copied() else {
            self.reply(sid, pid, SysReply::Err(Errno::EBADF));
            return;
        };
        let of = self.oft[&slot].clone();
        match of.target {
            Target::File { ino } => {
                let Some(Node::File(data)) = self.nodes.get(&ino) else {
                    self.reply(sid, pid, SysReply::Err(Errno::EIO));
                    return;
                };
                let off = of.offset as usize;
                if off >= data.len() || len == 0 {
                    self.reply(sid, pid, SysReply::Data(Vec::new()));
                    return;
                }
                let end = (off + len as usize).min(data.len());
                let out = data[off..end].to_vec();
                let b0 = off / BLOCK_SIZE;
                let b1 = (end - 1) / BLOCK_SIZE;
                for b in b0..=b1 {
                    self.touch_block(ino, b as u64, true);
                }
                self.charge(out.len() as u64 / 8);
                if let Some(f) = self.oft.get_mut(&slot) {
                    f.offset = end as u64;
                }
                self.reply(sid, pid, SysReply::Data(out));
            }
            Target::PipeR { id } => {
                let Some(p) = self.pipes.get_mut(&id) else {
                    self.reply(sid, pid, SysReply::Err(Errno::EPIPE));
                    return;
                };
                if !p.buf.is_empty() {
                    let k = (len as usize).min(p.buf.len());
                    let out: Vec<u8> = p.buf.drain(..k).collect();
                    self.reply(sid, pid, SysReply::Data(out));
                } else if p.writers == 0 {
                    self.reply(sid, pid, SysReply::Data(Vec::new()));
                } else {
                    p.waiting.push((sid, pid, len));
                }
            }
            Target::PipeW { .. } => self.reply(sid, pid, SysReply::Err(Errno::EBADF)),
        }
    }

    fn write(&mut self, sid: SyscallId, pid: Pid, fd: Fd, bytes: &[u8]) {
        let Some(slot) = self.fds.get(&(pid.0, fd.0)).copied() else {
            self.reply(sid, pid, SysReply::Err(Errno::EBADF));
            return;
        };
        let of = self.oft[&slot].clone();
        match of.target {
            Target::File { ino } => {
                if !of.flags.write {
                    self.reply(sid, pid, SysReply::Err(Errno::EBADF));
                    return;
                }
                let Some(Node::File(data)) = self.nodes.get_mut(&ino) else {
                    self.reply(sid, pid, SysReply::Err(Errno::EIO));
                    return;
                };
                let off = if of.flags.append {
                    data.len()
                } else {
                    of.offset as usize
                };
                let end = off + bytes.len();
                if data.len() < end {
                    data.resize(end, 0);
                }
                data[off..end].copy_from_slice(bytes);
                let b0 = off / BLOCK_SIZE;
                let b1 = if end == 0 { 0 } else { (end - 1) / BLOCK_SIZE };
                for b in b0..=b1 {
                    self.touch_block(ino, b as u64, false);
                }
                self.charge(bytes.len() as u64 / 8);
                if let Some(f) = self.oft.get_mut(&slot) {
                    f.offset = end as u64;
                }
                self.reply(sid, pid, SysReply::Val(bytes.len() as i64));
            }
            Target::PipeW { id } => {
                let Some(p) = self.pipes.get_mut(&id) else {
                    self.reply(sid, pid, SysReply::Err(Errno::EPIPE));
                    return;
                };
                if p.readers == 0 {
                    self.reply(sid, pid, SysReply::Err(Errno::EPIPE));
                    return;
                }
                p.buf.extend(bytes);
                let mut served = Vec::new();
                while !p.waiting.is_empty() && !p.buf.is_empty() {
                    let (wsid, wpid, wlen) = p.waiting.remove(0);
                    let k = (wlen as usize).min(p.buf.len());
                    let out: Vec<u8> = p.buf.drain(..k).collect();
                    served.push((wsid, wpid, out));
                }
                self.charge(bytes.len() as u64 / 8);
                for (wsid, wpid, out) in served {
                    self.reply(wsid, wpid, SysReply::Data(out));
                }
                self.reply(sid, pid, SysReply::Val(bytes.len() as i64));
            }
            Target::PipeR { .. } => self.reply(sid, pid, SysReply::Err(Errno::EBADF)),
        }
    }

    fn seek(&mut self, sid: SyscallId, pid: Pid, fd: Fd, from: SeekFrom) {
        let Some(slot) = self.fds.get(&(pid.0, fd.0)).copied() else {
            self.reply(sid, pid, SysReply::Err(Errno::EBADF));
            return;
        };
        let of = self.oft[&slot].clone();
        let Target::File { ino } = of.target else {
            self.reply(sid, pid, SysReply::Err(Errno::EPIPE));
            return;
        };
        let size = match self.nodes.get(&ino) {
            Some(Node::File(d)) => d.len() as i64,
            _ => 0,
        };
        let new = match from {
            SeekFrom::Start(o) => o as i64,
            SeekFrom::Current(d) => of.offset as i64 + d,
            SeekFrom::End(d) => size + d,
        };
        if new < 0 {
            self.reply(sid, pid, SysReply::Err(Errno::EINVAL));
            return;
        }
        if let Some(f) = self.oft.get_mut(&slot) {
            f.offset = new as u64;
        }
        self.reply(sid, pid, SysReply::Val(new));
    }

    fn unlink(&mut self, sid: SyscallId, pid: Pid, path: &str) {
        match self.resolve(path) {
            Ok((parent, leaf, Some(ino))) => {
                if matches!(self.nodes.get(&ino), Some(Node::Dir(_))) {
                    self.reply(sid, pid, SysReply::Err(Errno::EISDIR));
                    return;
                }
                if self.oft.values().any(|f| f.target == Target::File { ino }) {
                    self.reply(sid, pid, SysReply::Err(Errno::EBUSY));
                    return;
                }
                self.nodes.remove(&ino);
                if let Some(Node::Dir(entries)) = self.nodes.get_mut(&parent) {
                    entries.remove(&leaf);
                }
                self.cache.retain(|(i, _)| *i != ino);
                self.reply(sid, pid, SysReply::Ok);
            }
            Ok(_) => self.reply(sid, pid, SysReply::Err(Errno::ENOENT)),
            Err(e) => self.reply(sid, pid, SysReply::Err(e)),
        }
    }

    fn mkdir(&mut self, sid: SyscallId, pid: Pid, path: &str) {
        match self.resolve(path) {
            Ok((_, _, Some(_))) => self.reply(sid, pid, SysReply::Err(Errno::EEXIST)),
            Ok((parent, leaf, None)) => {
                let i = self.next_ino;
                self.next_ino += 1;
                self.nodes.insert(i, Node::Dir(BTreeMap::new()));
                if let Some(Node::Dir(entries)) = self.nodes.get_mut(&parent) {
                    entries.insert(leaf, i);
                }
                self.reply(sid, pid, SysReply::Ok);
            }
            Err(e) => self.reply(sid, pid, SysReply::Err(e)),
        }
    }

    fn readdir(&mut self, sid: SyscallId, pid: Pid, path: &str) {
        match self.resolve(path) {
            Ok((_, _, Some(ino))) => match self.nodes.get(&ino) {
                Some(Node::Dir(entries)) => {
                    let names: Vec<String> = entries.keys().cloned().collect();
                    self.reply(sid, pid, SysReply::Names(names));
                }
                _ => self.reply(sid, pid, SysReply::Err(Errno::ENOTDIR)),
            },
            Ok(_) => self.reply(sid, pid, SysReply::Err(Errno::ENOENT)),
            Err(e) => self.reply(sid, pid, SysReply::Err(e)),
        }
    }

    fn stat(&mut self, sid: SyscallId, pid: Pid, path: &str) {
        match self.resolve(path) {
            Ok((_, _, Some(ino))) => {
                let st = match self.nodes.get(&ino) {
                    Some(Node::File(d)) => FileStat {
                        size: d.len() as u64,
                        is_dir: false,
                        nlink: 1,
                    },
                    Some(Node::Dir(e)) => FileStat {
                        size: 0,
                        is_dir: true,
                        nlink: e.len() as u32 + 2,
                    },
                    None => {
                        self.reply(sid, pid, SysReply::Err(Errno::EIO));
                        return;
                    }
                };
                self.reply(sid, pid, SysReply::StatInfo(st));
            }
            Ok(_) => self.reply(sid, pid, SysReply::Err(Errno::ENOENT)),
            Err(e) => self.reply(sid, pid, SysReply::Err(e)),
        }
    }

    fn rename(&mut self, sid: SyscallId, pid: Pid, from: &str, to: &str) {
        let src = match self.resolve(from) {
            Ok((p, l, Some(i))) => (p, l, i),
            Ok(_) => {
                self.reply(sid, pid, SysReply::Err(Errno::ENOENT));
                return;
            }
            Err(e) => {
                self.reply(sid, pid, SysReply::Err(e));
                return;
            }
        };
        let dst = match self.resolve(to) {
            Ok((p, l, None)) => (p, l),
            Ok(_) => {
                self.reply(sid, pid, SysReply::Err(Errno::EEXIST));
                return;
            }
            Err(e) => {
                self.reply(sid, pid, SysReply::Err(e));
                return;
            }
        };
        if let Some(Node::Dir(entries)) = self.nodes.get_mut(&src.0) {
            entries.remove(&src.1);
        }
        if let Some(Node::Dir(entries)) = self.nodes.get_mut(&dst.0) {
            entries.insert(dst.1, src.2);
        }
        self.reply(sid, pid, SysReply::Ok);
    }
}

impl OsEngine for Monolith {
    fn submit(&mut self, sid: SyscallId, pid: Pid, call: Syscall) {
        self.syscalls += 1;
        self.dispatch(sid, pid, call);
    }

    fn pump(&mut self) -> Vec<(SyscallId, Pid, SysReply)> {
        std::mem::take(&mut self.replies)
    }

    fn take_kill_events(&mut self) -> Vec<Pid> {
        std::mem::take(&mut self.kills)
    }

    fn fire_next_timer(&mut self) -> bool {
        let Some((&(at, seq), _)) = self.timers.iter().next() else {
            return false;
        };
        let (sid, pid) = self.timers.remove(&(at, seq)).expect("key just observed");
        self.clock.advance_to(at);
        self.reply(sid, pid, SysReply::Ok);
        true
    }

    fn shutdown_state(&self) -> Option<ShutdownKind> {
        None
    }

    fn now(&self) -> u64 {
        self.clock.now()
    }

    fn charge_user(&mut self, units: u64) {
        self.charge(units * cost::USER_COMPUTE);
    }
}
