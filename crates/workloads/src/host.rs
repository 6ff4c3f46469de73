//! The user-process host: runs workload programs as real threads in strict
//! lock-step with a simulated OS.
//!
//! Programs are ordinary Rust closures that issue syscalls through a
//! [`Sys`] handle. Exactly one process executes at any instant, so syscall
//! arrival order is fully deterministic, which the fault-injection
//! experiments depend on.
//!
//! There is no scheduler thread. Everything a run shares (the engine, the
//! pending calls, the resume queue) sits behind one `Mutex`, and holding it
//! is the *run token*. The process that issues a syscall takes the token,
//! submits the call, pumps the OS and pops the next process to resume
//! itself; when that process is the caller it simply returns with its
//! reply. Only when another process is due does it put the reply in that
//! process's inbox, signal its `Condvar` and park on its own; a process
//! that is due to start gets a thread spawned into the run's scope by
//! whoever popped it. A parked thread touches nothing but its inbox. Init
//! runs on the thread that called [`Host::run`], so a program that never
//! forks involves no second thread at all. The engine crosses threads with
//! the token, hence `OsEngine: Send`.
//!
//! The host is generic over [`OsEngine`], implemented both by the
//! compartmentalized OSIRIS OS (`osiris-servers`) and by the monolithic
//! baseline (`osiris-monolith`). It is a workload driver and enforces no
//! invariant of the OS, which is why it lives here and not in the kernel.

use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Scope;

use osiris_kernel::abi::{
    Errno, Fd, FileStat, OpenFlags, Pid, SeekFrom, Signal, SysReply, Syscall,
};
use osiris_kernel::{OsEngine, RunOutcome, SyscallId};

/// A user program: receives its [`Sys`] handle, returns an exit code.
pub type ProgramFn = dyn Fn(&mut Sys) -> i32 + Send + Sync;

/// Registry of named programs (the "filesystem binaries" of the simulator).
#[derive(Default, Clone)]
pub struct ProgramRegistry {
    map: HashMap<String, Arc<ProgramFn>>,
}

impl std::fmt::Debug for ProgramRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramRegistry")
            .field("programs", &self.names())
            .finish()
    }
}

impl ProgramRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `prog` under `name`, replacing any previous program.
    pub fn register<F>(&mut self, name: &str, prog: F)
    where
        F: Fn(&mut Sys) -> i32 + Send + Sync + 'static,
    {
        self.map.insert(name.to_string(), Arc::new(prog));
    }

    /// Looks up a program.
    pub fn get(&self, name: &str) -> Option<Arc<ProgramFn>> {
        self.map.get(name).cloned()
    }

    /// Registered program names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<_> = self.map.keys().cloned().collect();
        v.sort();
        v
    }
}

/// Closure run by a forked child (see [`Sys::fork_run`]).
pub type ForkFn = Box<dyn FnOnce(&mut Sys) -> i32 + Send>;

/// What the host must remember about a call until its reply arrives.
enum PendingKind {
    Plain,
    Spawn { prog: String, args: Vec<String> },
    Fork(ForkFn),
}

/// What a process does with the run token.
enum Action {
    Call(Syscall, PendingKind),
    Compute(u64),
    Done(i32),
}

/// The reply that tells a process it was killed or the run is over.
const KILLED: SysReply = SysReply::Err(Errno::EKILLED);

/// Payload that unwinds a user-program thread. Raised with `resume_unwind`,
/// which runs no panic hook.
enum ProcExit {
    Exited(i32),
    Killed,
}

/// The run as a process sees it.
trait Token {
    /// Takes the run token, applies `action` of process `pid` and runs the
    /// scheduler; returns once `pid` is due again, with its reply.
    fn act(&self, pid: Pid, action: Action) -> SysReply;
}

/// The syscall interface handed to user programs.
///
/// Every method issues a request to the simulated OS and returns when the
/// reply arrives (the real thread parks while other processes run).
/// `Err(Errno::ECRASH)` means the servicing OS component crashed and was
/// recovered; well-written programs treat it like any other error (paper
/// §III-C).
pub struct Sys<'a> {
    pid: Pid,
    args: Vec<String>,
    registry: &'a ProgramRegistry,
    run: &'a dyn Token,
    retry_ecrash: bool,
    cfg: HostConfig,
}

impl std::fmt::Debug for Sys<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sys")
            .field("pid", &self.pid)
            .field("args", &self.args)
            .finish()
    }
}

impl Sys<'_> {
    /// The calling process's pid (as assigned at creation; also available
    /// via the `getpid` syscall).
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The program arguments.
    pub fn args(&self) -> &[String] {
        &self.args
    }

    /// Makes every syscall transparently retry on `ECRASH` (a crashed and
    /// recovered server). Used by the service-disruption experiment, where
    /// well-written programs are expected to handle the error and continue
    /// (paper §VI-E runs the benchmark to completion under fault load).
    pub fn set_retry_ecrash(&mut self, retry: bool) {
        self.retry_ecrash = retry;
    }

    /// Backoff (in compute units) before retry number `attempt`: the first
    /// retry is immediate — a single crash recovers before the retried call
    /// arrives — then the delay doubles up to the configured cap.
    fn retry_backoff(&self, attempt: u32) -> u64 {
        if attempt <= 1 {
            return 0;
        }
        let doublings = (attempt - 2).min(16);
        self.cfg
            .ecrash_backoff_base
            .saturating_mul(1u64 << doublings)
            .min(self.cfg.ecrash_backoff_max)
    }

    /// Hands `action` to the run; unwinds the thread if the answer is that
    /// the process was killed.
    fn act(&mut self, action: Action) -> SysReply {
        match self.run.act(self.pid, action) {
            KILLED => resume_unwind(Box::new(ProcExit::Killed)),
            reply => reply,
        }
    }

    fn call(&mut self, sc: Syscall) -> Result<SysReply, Errno> {
        let mut attempts: u32 = 0;
        loop {
            // Spawn carries host-side info to start the child when PM
            // confirms.
            let kind = match &sc {
                Syscall::Spawn { prog, args } => PendingKind::Spawn {
                    prog: prog.clone(),
                    args: args.clone(),
                },
                _ => PendingKind::Plain,
            };
            match self.act(Action::Call(sc.clone(), kind)) {
                SysReply::Err(Errno::ECRASH) if self.retry_ecrash => {
                    // Bounded retry: a crash-looping (or quarantined) server
                    // keeps answering ECRASH; surface it once the per-call
                    // budget is spent instead of livelocking.
                    attempts += 1;
                    if attempts >= self.cfg.ecrash_retry_budget {
                        return Err(Errno::ECRASH);
                    }
                    let backoff = self.retry_backoff(attempts);
                    if backoff > 0 {
                        self.compute(backoff);
                    }
                }
                SysReply::Err(e) => return Err(e),
                r => return Ok(r),
            }
        }
    }

    /// Performs `units` of pure computation (advances virtual time only).
    pub fn compute(&mut self, units: u64) {
        self.act(Action::Compute(units));
    }

    /// Terminates the calling process immediately with `code`.
    pub fn exit(&mut self, code: i32) -> ! {
        resume_unwind(Box::new(ProcExit::Exited(code)));
    }

    // --- process management ---

    /// Spawns a new process running registered program `prog` (fork+exec).
    ///
    /// # Errors
    ///
    /// `ENOENT` if no such program is registered; otherwise whatever the
    /// process manager reports (`EAGAIN`, `ECRASH`, …).
    pub fn spawn(&mut self, prog: &str, args: &[&str]) -> Result<Pid, Errno> {
        if self.registry.get(prog).is_none() {
            return Err(Errno::ENOENT);
        }
        let call = Syscall::Spawn {
            prog: prog.to_string(),
            args: args.iter().map(|s| s.to_string()).collect(),
        };
        match self.call(call)? {
            SysReply::Proc(pid) => Ok(pid),
            other => panic!("spawn: unexpected reply {:?}", other),
        }
    }

    /// Forks the calling process; the child runs `child_fn` and exits with
    /// its return value. Returns the child's pid to the parent.
    ///
    /// # Errors
    ///
    /// Propagates process-manager errors (`EAGAIN`, `ECRASH`, …).
    pub fn fork_run<F>(&mut self, child_fn: F) -> Result<Pid, Errno>
    where
        F: FnOnce(&mut Sys) -> i32 + Send + 'static,
    {
        let kind = PendingKind::Fork(Box::new(child_fn));
        match self.act(Action::Call(Syscall::Fork, kind)) {
            SysReply::Proc(pid) => Ok(pid),
            SysReply::Err(e) => Err(e),
            other => panic!("fork: unexpected reply {:?}", other),
        }
    }

    /// Replaces the current process image with registered program `prog`.
    /// On success this never returns: the new program runs and the process
    /// exits with its return value.
    ///
    /// # Errors
    ///
    /// `ENOENT` if the program is not registered; process-manager errors
    /// otherwise.
    pub fn exec(&mut self, prog: &str, args: &[&str]) -> Result<std::convert::Infallible, Errno> {
        let Some(f) = self.registry.get(prog) else {
            return Err(Errno::ENOENT);
        };
        let call = Syscall::Exec {
            prog: prog.to_string(),
            args: args.iter().map(|s| s.to_string()).collect(),
        };
        self.call(call)?;
        self.args = args.iter().map(|s| s.to_string()).collect();
        let code = f(self);
        self.exit(code)
    }

    /// Waits for the specific child `pid` to exit; returns its exit code.
    ///
    /// # Errors
    ///
    /// `ECHILD` if `pid` is not a child of the caller.
    pub fn waitpid(&mut self, pid: Pid) -> Result<i32, Errno> {
        match self.call(Syscall::WaitPid { pid })? {
            SysReply::Exited(_, code) => Ok(code),
            other => panic!("waitpid: unexpected reply {:?}", other),
        }
    }

    /// Waits for any child to exit; returns `(pid, exit_code)`.
    ///
    /// # Errors
    ///
    /// `ECHILD` if the caller has no children.
    pub fn wait_any(&mut self) -> Result<(Pid, i32), Errno> {
        match self.call(Syscall::WaitAny)? {
            SysReply::Exited(pid, code) => Ok((pid, code)),
            other => panic!("wait_any: unexpected reply {:?}", other),
        }
    }

    /// Sends `sig` to process `pid`.
    ///
    /// # Errors
    ///
    /// `ESRCH` if no such process.
    pub fn kill(&mut self, pid: Pid, sig: Signal) -> Result<(), Errno> {
        self.call(Syscall::Kill { pid, sig }).map(|_| ())
    }

    /// Returns the caller's pid as known to the process manager.
    ///
    /// # Errors
    ///
    /// `ECRASH` if PM crashed while answering.
    pub fn getpid(&mut self) -> Result<Pid, Errno> {
        match self.call(Syscall::GetPid)? {
            SysReply::Proc(pid) => Ok(pid),
            other => panic!("getpid: unexpected reply {:?}", other),
        }
    }

    /// Returns the caller's parent pid.
    ///
    /// # Errors
    ///
    /// `ESRCH` if the caller is unknown to PM (should not happen).
    pub fn getppid(&mut self) -> Result<Pid, Errno> {
        match self.call(Syscall::GetPPid)? {
            SysReply::Proc(pid) => Ok(pid),
            other => panic!("getppid: unexpected reply {:?}", other),
        }
    }

    /// Masks or unmasks `sig` for the caller.
    ///
    /// # Errors
    ///
    /// `EINVAL` for `SigKill`, which cannot be masked.
    pub fn sigmask(&mut self, sig: Signal, masked: bool) -> Result<(), Errno> {
        self.call(Syscall::SigMask { sig, masked }).map(|_| ())
    }

    /// Fetches and clears the caller's pending signals.
    ///
    /// # Errors
    ///
    /// Process-manager errors.
    pub fn sigpending(&mut self) -> Result<Vec<Signal>, Errno> {
        match self.call(Syscall::SigPending)? {
            SysReply::Signals(s) => Ok(s),
            other => panic!("sigpending: unexpected reply {:?}", other),
        }
    }

    /// Sleeps for `ticks` of virtual time.
    ///
    /// # Errors
    ///
    /// Process-manager errors.
    pub fn sleep(&mut self, ticks: u64) -> Result<(), Errno> {
        self.call(Syscall::Sleep { ticks }).map(|_| ())
    }

    // --- memory ---

    /// Adjusts the caller's data segment; returns the new page count.
    ///
    /// # Errors
    ///
    /// `ENOMEM` if the frame pool is exhausted or the shrink underflows.
    pub fn brk(&mut self, pages: i64) -> Result<u64, Errno> {
        match self.call(Syscall::Brk { pages })? {
            SysReply::Val(v) => Ok(v as u64),
            other => panic!("brk: unexpected reply {:?}", other),
        }
    }

    /// Maps `pages` fresh pages; returns the mapping id.
    ///
    /// # Errors
    ///
    /// `ENOMEM` if the frame pool is exhausted.
    pub fn mmap(&mut self, pages: u64) -> Result<u64, Errno> {
        match self.call(Syscall::Mmap { pages })? {
            SysReply::Val(v) => Ok(v as u64),
            other => panic!("mmap: unexpected reply {:?}", other),
        }
    }

    /// Unmaps a mapping created by [`Sys::mmap`].
    ///
    /// # Errors
    ///
    /// `EINVAL` if the mapping id is unknown.
    pub fn munmap(&mut self, id: u64) -> Result<(), Errno> {
        self.call(Syscall::Munmap { id }).map(|_| ())
    }

    /// Returns the caller's resident page count.
    ///
    /// # Errors
    ///
    /// Memory-manager errors.
    pub fn vmstat(&mut self) -> Result<u64, Errno> {
        match self.call(Syscall::VmStat)? {
            SysReply::Val(v) => Ok(v as u64),
            other => panic!("vmstat: unexpected reply {:?}", other),
        }
    }

    // --- files ---

    /// Opens `path`.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `EISDIR`, `EMFILE`, `ECRASH`, …
    pub fn open(&mut self, path: &str, flags: OpenFlags) -> Result<Fd, Errno> {
        match self.call(Syscall::Open {
            path: path.to_string(),
            flags,
        })? {
            SysReply::Desc(fd) => Ok(fd),
            other => panic!("open: unexpected reply {:?}", other),
        }
    }

    /// Closes `fd`.
    ///
    /// # Errors
    ///
    /// `EBADF` if the descriptor is not open.
    pub fn close(&mut self, fd: Fd) -> Result<(), Errno> {
        self.call(Syscall::Close { fd }).map(|_| ())
    }

    /// Reads up to `len` bytes. An empty vector signals end-of-file.
    /// Blocks on an empty pipe with live writers.
    ///
    /// # Errors
    ///
    /// `EBADF`, `ECRASH`, …
    pub fn read(&mut self, fd: Fd, len: u32) -> Result<Vec<u8>, Errno> {
        match self.call(Syscall::Read { fd, len })? {
            SysReply::Data(d) => Ok(d),
            other => panic!("read: unexpected reply {:?}", other),
        }
    }

    /// Writes `bytes`; returns the number written.
    ///
    /// # Errors
    ///
    /// `EBADF`, `EPIPE` (no readers left), `ENOSPC`, …
    pub fn write(&mut self, fd: Fd, bytes: &[u8]) -> Result<u32, Errno> {
        match self.call(Syscall::Write {
            fd,
            bytes: bytes.to_vec(),
        })? {
            SysReply::Val(n) => Ok(n as u32),
            other => panic!("write: unexpected reply {:?}", other),
        }
    }

    /// Repositions the file offset; returns the new absolute offset.
    ///
    /// # Errors
    ///
    /// `EBADF`, `EINVAL` (seek before start), `EPIPE` on pipes.
    pub fn seek(&mut self, fd: Fd, from: SeekFrom) -> Result<u64, Errno> {
        match self.call(Syscall::Seek { fd, from })? {
            SysReply::Val(v) => Ok(v as u64),
            other => panic!("seek: unexpected reply {:?}", other),
        }
    }

    /// Removes the file at `path`.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `EISDIR`, `EBUSY` (still open).
    pub fn unlink(&mut self, path: &str) -> Result<(), Errno> {
        self.call(Syscall::Unlink {
            path: path.to_string(),
        })
        .map(|_| ())
    }

    /// Creates a directory.
    ///
    /// # Errors
    ///
    /// `EEXIST`, `ENOENT` (missing parent), `ENOTDIR`.
    pub fn mkdir(&mut self, path: &str) -> Result<(), Errno> {
        self.call(Syscall::Mkdir {
            path: path.to_string(),
        })
        .map(|_| ())
    }

    /// Lists a directory's entries.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `ENOTDIR`.
    pub fn readdir(&mut self, path: &str) -> Result<Vec<String>, Errno> {
        match self.call(Syscall::ReadDir {
            path: path.to_string(),
        })? {
            SysReply::Names(n) => Ok(n),
            other => panic!("readdir: unexpected reply {:?}", other),
        }
    }

    /// Stats a path.
    ///
    /// # Errors
    ///
    /// `ENOENT`.
    pub fn stat(&mut self, path: &str) -> Result<FileStat, Errno> {
        match self.call(Syscall::Stat {
            path: path.to_string(),
        })? {
            SysReply::StatInfo(s) => Ok(s),
            other => panic!("stat: unexpected reply {:?}", other),
        }
    }

    /// Renames a file.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `EISDIR`, `EBUSY`.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), Errno> {
        self.call(Syscall::Rename {
            from: from.to_string(),
            to: to.to_string(),
        })
        .map(|_| ())
    }

    /// Creates a pipe; returns `(read_end, write_end)`.
    ///
    /// # Errors
    ///
    /// `EMFILE`, `ECRASH`.
    pub fn pipe(&mut self) -> Result<(Fd, Fd), Errno> {
        match self.call(Syscall::Pipe)? {
            SysReply::TwoDesc(r, w) => Ok((r, w)),
            other => panic!("pipe: unexpected reply {:?}", other),
        }
    }

    /// Duplicates a descriptor.
    ///
    /// # Errors
    ///
    /// `EBADF`, `EMFILE`.
    pub fn dup(&mut self, fd: Fd) -> Result<Fd, Errno> {
        match self.call(Syscall::Dup { fd })? {
            SysReply::Desc(d) => Ok(d),
            other => panic!("dup: unexpected reply {:?}", other),
        }
    }

    /// Flushes a file's dirty cached blocks to the disk driver.
    ///
    /// # Errors
    ///
    /// `EBADF`, `EIO`.
    pub fn fsync(&mut self, fd: Fd) -> Result<(), Errno> {
        self.call(Syscall::Fsync { fd }).map(|_| ())
    }

    // --- data store ---

    /// Stores `value` under `key` in the data store.
    ///
    /// # Errors
    ///
    /// `ENOSPC`, `ECRASH`.
    pub fn ds_put(&mut self, key: &str, value: &[u8]) -> Result<(), Errno> {
        self.call(Syscall::DsPut {
            key: key.to_string(),
            value: value.to_vec(),
        })
        .map(|_| ())
    }

    /// Retrieves the value stored under `key`.
    ///
    /// # Errors
    ///
    /// `ENOKEY` if absent.
    pub fn ds_get(&mut self, key: &str) -> Result<Vec<u8>, Errno> {
        match self.call(Syscall::DsGet {
            key: key.to_string(),
        })? {
            SysReply::Data(d) => Ok(d),
            other => panic!("ds_get: unexpected reply {:?}", other),
        }
    }

    /// Deletes `key` from the data store.
    ///
    /// # Errors
    ///
    /// `ENOKEY` if absent.
    pub fn ds_del(&mut self, key: &str) -> Result<(), Errno> {
        self.call(Syscall::DsDel {
            key: key.to_string(),
        })
        .map(|_| ())
    }

    /// Lists data-store keys with the given prefix.
    ///
    /// # Errors
    ///
    /// `ECRASH`.
    pub fn ds_list(&mut self, prefix: &str) -> Result<Vec<String>, Errno> {
        match self.call(Syscall::DsList {
            prefix: prefix.to_string(),
        })? {
            SysReply::Names(n) => Ok(n),
            other => panic!("ds_list: unexpected reply {:?}", other),
        }
    }
}

/// Declare a hang after this many consecutive timer fires yielding no
/// process progress.
const MAX_IDLE_TIMER_FIRES: u32 = 10_000;

/// Host limits (defence against livelock under injected faults).
#[derive(Clone, Copy, Debug)]
pub struct HostConfig {
    /// Abort the run once virtual time exceeds this.
    pub max_virtual_time: u64,
    /// Per-call budget for transparent `ECRASH` retries (see
    /// [`Sys::set_retry_ecrash`]): after this many failed attempts of one
    /// call, `ECRASH` is surfaced to the program. The default is far above
    /// what the §VI-E service-disruption runs need (their first, immediate
    /// retry lands after recovery completes) while still bounding a
    /// persistent crash loop.
    pub ecrash_retry_budget: u32,
    /// Virtual-time backoff (compute units) before the second retry of one
    /// call; doubles on each further retry. The first retry is immediate.
    pub ecrash_backoff_base: u64,
    /// Cap on the exponential retry backoff.
    pub ecrash_backoff_max: u64,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            max_virtual_time: 500_000_000_000,
            ecrash_retry_budget: 64,
            ecrash_backoff_base: 1_000,
            ecrash_backoff_max: 250_000,
        }
    }
}

/// The next process to get the CPU.
enum Resume {
    Reply(Pid, SysReply),
    /// Start a process: a registered program or a fork closure.
    Start(Pid, Vec<String>, ForkFn),
}

/// A started process: where its thread parks and what wakes it up with.
#[derive(Default)]
struct Proc {
    wake: Arc<Condvar>,
    inbox: Option<SysReply>,
}

struct PendingCall {
    pid: Pid,
    kind: PendingKind,
}

/// Everything a run shares; whoever holds its lock holds the run token.
struct State<'e, E> {
    engine: &'e mut E,
    procs: HashMap<Pid, Proc>,
    dead: HashSet<Pid>,
    exit_codes: BTreeMap<u32, i32>,
    pending: HashMap<SyscallId, PendingCall>,
    resume_q: VecDeque<Resume>,
    next_sid: u64,
    /// Replies/kills discovered while firing idle timers, carried back to
    /// the single reply-handling path at the top of `schedule`.
    carried_replies: Vec<(SyscallId, Pid, SysReply)>,
    carried_kills: Vec<Pid>,
    /// Set once, when the run is over and every parked thread leaves: its
    /// outcome, or a genuine panic raised under the token for `Host::run`
    /// to re-raise.
    end: Option<Result<RunOutcome, Box<dyn Any + Send>>>,
}

impl<E: OsEngine> State<'_, E> {
    fn submit(&mut self, pid: Pid, call: Syscall, kind: Option<PendingKind>) {
        self.next_sid += 1;
        let sid = SyscallId(self.next_sid);
        if let Some(kind) = kind {
            self.pending.insert(sid, PendingCall { pid, kind });
        }
        self.engine.submit(sid, pid, call);
    }

    /// Puts `reply` in the inbox of `pid` and wakes its thread, if started.
    fn deliver(&mut self, pid: Pid, reply: SysReply) {
        if let Some(p) = self.procs.get_mut(&pid) {
            p.inbox = Some(reply);
            p.wake.notify_one();
        }
    }

    /// Ends the run: every parked thread wakes up and leaves.
    fn finish(&mut self, end: Result<RunOutcome, Box<dyn Any + Send>>) {
        self.end.get_or_insert(end);
        for p in self.procs.values() {
            p.wake.notify_one();
        }
    }

    /// Lets the OS work until one process is due or the run is over.
    fn schedule(
        &mut self,
        registry: &ProgramRegistry,
        cfg: &HostConfig,
    ) -> Result<Resume, RunOutcome> {
        loop {
            // Collect replies / kill events (including any carried over
            // from the idle timer loop below).
            let mut replies = std::mem::take(&mut self.carried_replies);
            replies.extend(self.engine.pump());
            let mut kills = std::mem::take(&mut self.carried_kills);
            kills.extend(self.engine.take_kill_events());
            for victim in kills {
                if self.dead.insert(victim) {
                    self.deliver(victim, KILLED);
                    self.exit_codes.entry(victim.0).or_insert(-9);
                }
            }
            for (sid, pid, reply) in replies {
                let Some(call) = self.pending.remove(&sid) else {
                    continue;
                };
                debug_assert_eq!(call.pid, pid);
                // A confirmed spawn or fork starts the child right after
                // its parent resumes.
                let child = match (call.kind, &reply) {
                    (PendingKind::Spawn { prog, args }, SysReply::Proc(child)) => {
                        let f = registry
                            .get(&prog)
                            .expect("spawn validated against the registry");
                        Some(Resume::Start(*child, args, Box::new(move |sys| f(sys))))
                    }
                    (PendingKind::Fork(f), SysReply::Proc(child)) => {
                        Some(Resume::Start(*child, Vec::new(), f))
                    }
                    _ => None,
                };
                if !self.dead.contains(&pid) {
                    self.resume_q.push_back(Resume::Reply(pid, reply));
                }
                self.resume_q.extend(child);
            }

            if let Some(kind) = self.engine.shutdown_state() {
                return Err(RunOutcome::Shutdown(kind));
            }
            if self.engine.now() > cfg.max_virtual_time {
                return Err(RunOutcome::Hang("virtual time limit exceeded".into()));
            }

            // Resume exactly one process (or start a child).
            match self.resume_q.pop_front() {
                Some(Resume::Reply(pid, _)) if self.dead.contains(&pid) => continue,
                Some(Resume::Start(pid, args, body)) => {
                    self.procs.insert(pid, Proc::default());
                    return Ok(Resume::Start(pid, args, body));
                }
                Some(next) => return Ok(next),
                None => {}
            }

            // Idle — everyone is blocked inside the OS. Advance virtual
            // time; bounded so a silent wedge becomes a hang.
            let live = self.procs.keys().filter(|p| !self.dead.contains(p)).count();
            if live == 0 {
                let init_code = self.exit_codes.get(&Pid::INIT.0).copied().unwrap_or(-1);
                return Err(RunOutcome::Completed {
                    init_code,
                    exit_codes: std::mem::take(&mut self.exit_codes),
                });
            }
            let mut progressed = false;
            for _ in 0..MAX_IDLE_TIMER_FIRES {
                if !self.engine.fire_next_timer() {
                    break;
                }
                let replies = self.engine.pump();
                let kills = self.engine.take_kill_events();
                if !replies.is_empty() || !kills.is_empty() {
                    self.carried_replies = replies;
                    self.carried_kills = kills;
                    progressed = true;
                    break;
                }
                if self.engine.shutdown_state().is_some() {
                    break;
                }
            }
            if let Some(kind) = self.engine.shutdown_state() {
                return Err(RunOutcome::Shutdown(kind));
            }
            if !progressed {
                return Err(RunOutcome::Hang(format!(
                    "{} live process(es) blocked with no resolvable event",
                    live
                )));
            }
        }
    }
}

/// Takes the run token. `act` catches what the engine raises, so the lock
/// is poisoned only by a panic that has already ended the run; the flag
/// must not hide that panic's message behind its own.
fn token<T>(state: &Mutex<T>) -> MutexGuard<'_, T> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One `Host::run` as a process thread sees it: the shared state and the
/// scope its children's threads are spawned in. Every thread has a copy.
struct Run<'scope, 'env, 'e, E> {
    state: &'scope Mutex<State<'e, E>>,
    scope: &'scope Scope<'scope, 'env>,
    registry: &'scope ProgramRegistry,
    cfg: HostConfig,
}

impl<'e, E: OsEngine> Run<'_, '_, 'e, E> {
    /// Runs process `pid` on the calling thread, to its exit.
    fn process(&self, pid: Pid, args: Vec<String>, body: ForkFn) {
        let mut sys = Sys {
            pid,
            args,
            registry: self.registry,
            run: self,
            retry_ecrash: false,
            cfg: self.cfg,
        };
        let code = match catch_unwind(AssertUnwindSafe(|| body(&mut sys))) {
            Ok(code) => code,
            Err(payload) => match payload.downcast_ref::<ProcExit>() {
                Some(ProcExit::Exited(code)) => *code,
                Some(ProcExit::Killed) => return, // already accounted for
                // A bug in the program itself: report a distinctive exit
                // code.
                None => 101,
            },
        };
        self.act(pid, Action::Done(code));
    }

    /// Runs the scheduler and passes the turn on: to `me` (the reply is
    /// returned), to a parked process, or to a child on a thread of its own.
    fn hand_over(&self, st: &mut State<'e, E>, me: Pid) -> Option<SysReply> {
        match st.schedule(self.registry, &self.cfg) {
            Ok(Resume::Reply(pid, reply)) if pid == me => return Some(reply),
            Ok(Resume::Reply(pid, reply)) => st.deliver(pid, reply),
            Ok(Resume::Start(pid, args, body)) => {
                // The child's thread gets its own copy of the handles.
                let run = Run { ..*self };
                std::thread::Builder::new()
                    .name(format!("osiris-{}", pid))
                    .spawn_scoped(self.scope, move || run.process(pid, args, body))
                    .expect("spawn process thread");
            }
            Err(outcome) => st.finish(Ok(outcome)),
        }
        None
    }
}

impl<E: OsEngine> Token for Run<'_, '_, '_, E> {
    fn act(&self, pid: Pid, action: Action) -> SysReply {
        let mut st = token(self.state);
        // The guard stays outside `catch_unwind`: a panicking engine neither
        // poisons the lock nor strands the threads parked behind it.
        let turn = catch_unwind(AssertUnwindSafe(|| {
            let mut leaving = st.dead.contains(&pid);
            match action {
                Action::Compute(units) => {
                    st.engine.charge_user(units);
                    if !leaving {
                        return Some(SysReply::Ok);
                    }
                }
                Action::Call(call, kind) if !leaving => st.submit(pid, call, Some(kind)),
                Action::Call(..) => {}
                Action::Done(code) => {
                    st.exit_codes.insert(pid.0, code);
                    if st.dead.insert(pid) {
                        st.submit(pid, Syscall::Exit { code }, None);
                    }
                    leaving = true;
                }
            }
            let mine = self.hand_over(&mut st, pid);
            if leaving {
                Some(KILLED)
            } else {
                mine
            }
        }));
        match turn {
            Ok(Some(reply)) => return reply,
            Ok(None) => {}
            Err(payload) => st.finish(Err(payload)),
        }
        // Park until the turn comes back. Only the inbox is touched here.
        let wake = Arc::clone(&st.procs[&pid].wake);
        loop {
            if let Some(reply) = st.procs.get_mut(&pid).and_then(|p| p.inbox.take()) {
                return reply;
            }
            if st.end.is_some() {
                return KILLED;
            }
            st = wake.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Runs workload programs against an [`OsEngine`] in deterministic
/// lock-step.
pub struct Host<E: OsEngine> {
    engine: E,
    registry: ProgramRegistry,
    cfg: HostConfig,
}

impl<E: OsEngine> Host<E> {
    /// Creates a host over `engine` with the given program registry.
    pub fn new(engine: E, registry: ProgramRegistry) -> Self {
        Host {
            engine,
            registry,
            cfg: HostConfig::default(),
        }
    }

    /// Overrides the host limits.
    pub fn with_config(mut self, cfg: HostConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The wrapped engine (metrics inspection after a run).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Consumes the host, returning the engine.
    pub fn into_engine(self) -> E {
        self.engine
    }

    /// Boots the workload: runs `root_prog` as the init process (pid 1,
    /// pre-created by the OS at boot) on the calling thread, its descendants
    /// on threads of their own, until every process exits, the OS shuts
    /// down, or no progress is possible.
    ///
    /// # Panics
    ///
    /// Panics if `root_prog` is not registered, and re-raises a panic of
    /// the engine.
    pub fn run(&mut self, root_prog: &str, root_args: &[&str]) -> RunOutcome {
        let root = self
            .registry
            .get(root_prog)
            .unwrap_or_else(|| panic!("program `{}` not registered", root_prog));
        let root_args = root_args.iter().map(|s| s.to_string()).collect();
        let state = Mutex::new(State {
            engine: &mut self.engine,
            procs: HashMap::new(),
            dead: HashSet::new(),
            exit_codes: BTreeMap::new(),
            pending: HashMap::new(),
            resume_q: VecDeque::from([Resume::Start(
                Pid::INIT,
                root_args,
                Box::new(move |sys| root(sys)),
            )]),
            next_sid: 0,
            carried_replies: Vec::new(),
            carried_kills: Vec::new(),
            end: None,
        });
        // The first dispatch starts init, unless the OS is down already.
        let first = token(&state).schedule(&self.registry, &self.cfg);
        let (pid, args, body) = match first {
            Ok(Resume::Start(pid, args, body)) => (pid, args, body),
            Ok(Resume::Reply(..)) => unreachable!("no call was submitted yet"),
            Err(outcome) => return outcome,
        };
        // Leaving the scope joins every process thread.
        std::thread::scope(|scope| {
            let run = Run {
                state: &state,
                scope,
                registry: &self.registry,
                cfg: self.cfg,
            };
            run.process(pid, args, body);
        });
        let st = state.into_inner().unwrap_or_else(PoisonError::into_inner);
        match st
            .end
            .expect("every process thread has left, so the run ended")
        {
            Ok(outcome) => outcome,
            Err(payload) => resume_unwind(payload),
        }
    }
}
