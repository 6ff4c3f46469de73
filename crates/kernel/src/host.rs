//! The user-process host: runs workload programs as real threads in strict
//! lock-step with a simulated OS.
//!
//! Programs are ordinary Rust closures that issue syscalls through a
//! [`Sys`] handle. Exactly one process executes at any instant: the host
//! resumes a process, then blocks until that process issues its next action
//! (syscall, compute, exit). Syscall arrival order is therefore fully
//! deterministic, which the fault-injection experiments depend on.
//!
//! The host is generic over [`OsEngine`], implemented both by the
//! compartmentalized OSIRIS OS (`osiris-servers`) and by the monolithic
//! baseline (`osiris-monolith`).

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::abi::{Errno, Fd, FileStat, OpenFlags, Pid, SeekFrom, Signal, SysReply, Syscall};
use crate::message::SyscallId;
use crate::metrics::ShutdownKind;

/// A simulated operating system, as seen by the process host.
pub trait OsEngine {
    /// Submits a user syscall. Replies arrive later via [`OsEngine::pump`].
    fn submit(&mut self, sid: SyscallId, pid: Pid, call: Syscall);
    /// Runs the OS until quiescent; returns completed syscall replies in
    /// deterministic order.
    fn pump(&mut self) -> Vec<(SyscallId, Pid, SysReply)>;
    /// Kill events: processes the OS decided to terminate since last call.
    fn take_kill_events(&mut self) -> Vec<Pid>;
    /// Fires the next pending timer, if any.
    fn fire_next_timer(&mut self) -> bool;
    /// The shutdown state, if the OS has stopped.
    fn shutdown_state(&self) -> Option<ShutdownKind>;
    /// Current virtual time.
    fn now(&self) -> u64;
    /// Charges user-level computation to the virtual clock.
    fn charge_user(&mut self, units: u64);
}

/// A user program: receives its [`Sys`] handle, returns an exit code.
pub type ProgramFn = dyn Fn(&mut Sys) -> i32 + Send + Sync;

/// Registry of named programs (the "filesystem binaries" of the simulator).
#[derive(Default, Clone)]
pub struct ProgramRegistry {
    map: HashMap<String, Arc<ProgramFn>>,
}

impl std::fmt::Debug for ProgramRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<_> = self.map.keys().collect();
        names.sort();
        f.debug_struct("ProgramRegistry")
            .field("programs", &names)
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

enum ProcAction {
    Syscall(Syscall),
    Fork(ForkFn),
    Compute(u64),
    Done(i32),
}

enum ProcInput {
    Reply(SysReply),
    Killed,
}

/// Panic payload used to unwind a user-program thread.
pub(crate) enum ProcExit {
    Exited(i32),
    Killed,
}

/// The syscall interface handed to user programs.
///
/// Every method issues a request to the simulated OS and blocks (the real
/// thread parks) until the reply arrives. `Err(Errno::ECRASH)` means the
/// servicing OS component crashed and was recovered; well-written programs
/// treat it like any other error (paper §III-C).
pub struct Sys {
    pid: Pid,
    args: Vec<String>,
    registry: Arc<ProgramRegistry>,
    to_host: Sender<(Pid, ProcAction)>,
    from_host: Receiver<ProcInput>,
    retry_ecrash: bool,
    cfg: HostConfig,
}

impl std::fmt::Debug for Sys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sys")
            .field("pid", &self.pid)
            .field("args", &self.args)
            .finish()
    }
}

impl Sys {
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

    fn call(&mut self, sc: Syscall) -> Result<SysReply, Errno> {
        let mut attempts: u32 = 0;
        loop {
            if self
                .to_host
                .send((self.pid, ProcAction::Syscall(sc.clone())))
                .is_err()
            {
                std::panic::panic_any(ProcExit::Killed);
            }
            match self.from_host.recv() {
                Ok(ProcInput::Reply(SysReply::Err(Errno::EKILLED))) | Ok(ProcInput::Killed) => {
                    std::panic::panic_any(ProcExit::Killed)
                }
                Ok(ProcInput::Reply(SysReply::Err(Errno::ECRASH))) if self.retry_ecrash => {
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
                    continue;
                }
                Ok(ProcInput::Reply(SysReply::Err(e))) => return Err(e),
                Ok(ProcInput::Reply(r)) => return Ok(r),
                Err(_) => std::panic::panic_any(ProcExit::Killed),
            }
        }
    }

    /// Performs `units` of pure computation (advances virtual time only).
    pub fn compute(&mut self, units: u64) {
        if self
            .to_host
            .send((self.pid, ProcAction::Compute(units)))
            .is_err()
        {
            std::panic::panic_any(ProcExit::Killed);
        }
        match self.from_host.recv() {
            Ok(ProcInput::Reply(_)) => {}
            _ => std::panic::panic_any(ProcExit::Killed),
        }
    }

    /// Terminates the calling process immediately with `code`.
    pub fn exit(&mut self, code: i32) -> ! {
        std::panic::panic_any(ProcExit::Exited(code));
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
        if self
            .to_host
            .send((self.pid, ProcAction::Fork(Box::new(child_fn))))
            .is_err()
        {
            std::panic::panic_any(ProcExit::Killed);
        }
        match self.from_host.recv() {
            Ok(ProcInput::Reply(SysReply::Proc(pid))) => Ok(pid),
            Ok(ProcInput::Reply(SysReply::Err(Errno::EKILLED))) | Ok(ProcInput::Killed) => {
                std::panic::panic_any(ProcExit::Killed)
            }
            Ok(ProcInput::Reply(SysReply::Err(e))) => Err(e),
            Ok(ProcInput::Reply(other)) => panic!("fork: unexpected reply {:?}", other),
            Err(_) => std::panic::panic_any(ProcExit::Killed),
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
        std::panic::panic_any(ProcExit::Exited(code));
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

/// How a full workload run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every process exited; per-pid exit codes and init's code.
    Completed {
        /// Exit code of the root (init) process.
        init_code: i32,
        /// Exit codes of all processes, keyed by raw pid.
        exit_codes: BTreeMap<u32, i32>,
    },
    /// The OS stopped itself (controlled) or crashed (uncontrolled).
    Shutdown(ShutdownKind),
    /// No process could make progress and no timer resolved it.
    Hang(String),
}

impl RunOutcome {
    /// Whether the run completed (regardless of exit codes).
    pub fn completed(&self) -> bool {
        matches!(self, RunOutcome::Completed { .. })
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
    /// Log every process action and reply to stderr.
    pub verbose: bool,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            max_virtual_time: 500_000_000_000,
            ecrash_retry_budget: 64,
            ecrash_backoff_base: 1_000,
            ecrash_backoff_max: 250_000,
            verbose: false,
        }
    }
}

enum Resume {
    Reply(Pid, SysReply),
    /// Start a process: a registered program or a fork closure.
    Start(Pid, Vec<String>, ForkFn),
}

struct ProcEntry {
    input_tx: Sender<ProcInput>,
    handle: Option<JoinHandle<()>>,
    blocked_on: Option<SyscallId>,
}

enum PendingKind {
    Plain,
    Spawn { prog: String, args: Vec<String> },
    Fork { f: Option<ForkFn> },
}

struct PendingCall {
    pid: Pid,
    kind: PendingKind,
}

/// Runs workload programs against an [`OsEngine`] in deterministic
/// lock-step.
pub struct Host<E: OsEngine> {
    engine: E,
    registry: Arc<ProgramRegistry>,
    cfg: HostConfig,
}

impl<E: OsEngine> Host<E> {
    /// Creates a host over `engine` with the given program registry.
    pub fn new(engine: E, registry: ProgramRegistry) -> Self {
        Host {
            engine,
            registry: Arc::new(registry),
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

    /// Boots the workload: starts `root_prog` as the init process (pid 1,
    /// pre-created by the OS at boot) and runs until every process exits,
    /// the OS shuts down, or no progress is possible.
    ///
    /// Set [`HostConfig::verbose`] to log every action and reply to stderr.
    ///
    /// # Panics
    ///
    /// Panics if `root_prog` is not registered.
    pub fn run(&mut self, root_prog: &str, root_args: &[&str]) -> RunOutcome {
        let trace = self.cfg.verbose;
        let root = self
            .registry
            .get(root_prog)
            .unwrap_or_else(|| panic!("program `{}` not registered", root_prog));

        let (action_tx, action_rx) = channel::<(Pid, ProcAction)>();
        let mut procs: HashMap<Pid, ProcEntry> = HashMap::new();
        let mut dead: HashSet<Pid> = HashSet::new();
        let mut exit_codes: BTreeMap<u32, i32> = BTreeMap::new();
        let mut pending: HashMap<SyscallId, PendingCall> = HashMap::new();
        let mut resume_q: VecDeque<Resume> = VecDeque::new();
        let mut running: Option<Pid> = None;
        let mut next_sid: u64 = 0;
        // Replies/kills discovered while firing idle timers, carried back to
        // the single reply-handling path at the top of the loop.
        let mut carried_replies: Vec<(SyscallId, Pid, SysReply)> = Vec::new();
        let mut carried_kills: Vec<Pid> = Vec::new();

        let root_args: Vec<String> = root_args.iter().map(|s| s.to_string()).collect();
        resume_q.push_back(Resume::Start(
            Pid::INIT,
            root_args,
            Box::new(move |sys| root(sys)),
        ));

        let outcome = loop {
            // Phase 1: if a process is running, wait for its next action.
            if let Some(pid) = running {
                let Ok((apid, action)) = action_rx.recv() else {
                    break RunOutcome::Hang("all process threads vanished".into());
                };
                debug_assert_eq!(apid, pid, "lock-step violation");
                if trace {
                    let what = match &action {
                        ProcAction::Compute(u) => format!("compute({})", u),
                        ProcAction::Syscall(sc) => format!("syscall {}", sc.name()),
                        ProcAction::Fork(_) => "fork".to_string(),
                        ProcAction::Done(c) => format!("done({})", c),
                    };
                    eprintln!("[host] {} -> {}", pid, what);
                }
                match action {
                    ProcAction::Compute(units) => {
                        self.engine.charge_user(units);
                        if dead.contains(&pid) {
                            let _ = procs[&pid].input_tx.send(ProcInput::Killed);
                            running = None;
                        } else {
                            let _ = procs[&pid].input_tx.send(ProcInput::Reply(SysReply::Ok));
                            // Still running: loop back and await its next action.
                        }
                    }
                    ProcAction::Syscall(sc) => {
                        running = None;
                        if dead.contains(&pid) {
                            let _ = procs[&pid].input_tx.send(ProcInput::Killed);
                        } else if matches!(sc, Syscall::Exit { .. }) {
                            // One-way: no reply will come.
                            next_sid += 1;
                            self.engine.submit(SyscallId(next_sid), pid, sc);
                        } else {
                            next_sid += 1;
                            let sid = SyscallId(next_sid);
                            // Spawn carries host-side info to start the child
                            // when PM confirms.
                            let kind = match &sc {
                                Syscall::Spawn { prog, args } => PendingKind::Spawn {
                                    prog: prog.clone(),
                                    args: args.clone(),
                                },
                                _ => PendingKind::Plain,
                            };
                            pending.insert(sid, PendingCall { pid, kind });
                            if let Some(p) = procs.get_mut(&pid) {
                                p.blocked_on = Some(sid);
                            }
                            self.engine.submit(sid, pid, sc);
                        }
                    }
                    ProcAction::Fork(f) => {
                        running = None;
                        if dead.contains(&pid) {
                            let _ = procs[&pid].input_tx.send(ProcInput::Killed);
                        } else {
                            next_sid += 1;
                            let sid = SyscallId(next_sid);
                            pending.insert(
                                sid,
                                PendingCall {
                                    pid,
                                    kind: PendingKind::Fork { f: Some(f) },
                                },
                            );
                            if let Some(p) = procs.get_mut(&pid) {
                                p.blocked_on = Some(sid);
                            }
                            self.engine.submit(sid, pid, Syscall::Fork);
                        }
                    }
                    ProcAction::Done(code) => {
                        running = None;
                        exit_codes.insert(pid.0, code);
                        if !dead.contains(&pid) {
                            dead.insert(pid);
                            next_sid += 1;
                            self.engine
                                .submit(SyscallId(next_sid), pid, Syscall::Exit { code });
                        }
                        if let Some(p) = procs.get_mut(&pid) {
                            p.blocked_on = None;
                        }
                    }
                }
                continue;
            }

            // Phase 2: nobody is running — let the OS work and collect
            // replies / kill events (including any carried over from the
            // idle timer loop below).
            let mut replies = std::mem::take(&mut carried_replies);
            replies.extend(self.engine.pump());
            let mut kills = std::mem::take(&mut carried_kills);
            kills.extend(self.engine.take_kill_events());
            for victim in kills {
                if dead.insert(victim) {
                    if let Some(p) = procs.get(&victim) {
                        if p.blocked_on.is_some() {
                            let _ = p.input_tx.send(ProcInput::Killed);
                        }
                    }
                    exit_codes.entry(victim.0).or_insert(-9);
                }
            }
            for (sid, pid, reply) in replies {
                if trace {
                    eprintln!("[host] reply to {} ({:?}): {:?}", pid, sid, reply);
                }
                let Some(call) = pending.remove(&sid) else {
                    continue;
                };
                debug_assert_eq!(call.pid, pid);
                if let Some(p) = procs.get_mut(&pid) {
                    if p.blocked_on == Some(sid) {
                        p.blocked_on = None;
                    }
                }
                match call.kind {
                    PendingKind::Plain => {
                        if !dead.contains(&pid) {
                            resume_q.push_back(Resume::Reply(pid, reply));
                        }
                    }
                    PendingKind::Spawn { prog, args } => {
                        if let SysReply::Proc(child) = reply {
                            let f = self
                                .registry
                                .get(&prog)
                                .expect("spawn validated against the registry");
                            if !dead.contains(&pid) {
                                resume_q.push_back(Resume::Reply(pid, SysReply::Proc(child)));
                            }
                            resume_q.push_back(Resume::Start(
                                child,
                                args,
                                Box::new(move |sys| f(sys)),
                            ));
                        } else if !dead.contains(&pid) {
                            resume_q.push_back(Resume::Reply(pid, reply));
                        }
                    }
                    PendingKind::Fork { mut f } => {
                        if let SysReply::Proc(child) = reply {
                            let cf = f.take().expect("fork closure present");
                            if !dead.contains(&pid) {
                                resume_q.push_back(Resume::Reply(pid, SysReply::Proc(child)));
                            }
                            resume_q.push_back(Resume::Start(child, Vec::new(), cf));
                        } else if !dead.contains(&pid) {
                            resume_q.push_back(Resume::Reply(pid, reply));
                        }
                    }
                }
            }

            if let Some(kind) = self.engine.shutdown_state() {
                break RunOutcome::Shutdown(kind);
            }
            if self.engine.now() > self.cfg.max_virtual_time {
                break RunOutcome::Hang("virtual time limit exceeded".into());
            }

            // Phase 3: resume exactly one process (or start a child).
            if let Some(r) = resume_q.pop_front() {
                if trace {
                    let what = match &r {
                        Resume::Reply(pid, rep) => format!("resume {} with {:?}", pid, rep),
                        Resume::Start(pid, _, _) => format!("start {}", pid),
                    };
                    eprintln!("[host] {}", what);
                }
                match r {
                    Resume::Reply(pid, reply) => {
                        if dead.contains(&pid) {
                            continue;
                        }
                        if let Some(p) = procs.get(&pid) {
                            if p.input_tx.send(ProcInput::Reply(reply)).is_ok() {
                                running = Some(pid);
                            }
                        }
                    }
                    Resume::Start(pid, args, body) => {
                        let entry = self.start(pid, args, body, action_tx.clone());
                        procs.insert(pid, entry);
                        running = Some(pid);
                    }
                }
                continue;
            }

            // Phase 4: idle — everyone is blocked inside the OS. Advance
            // virtual time; bounded so a silent wedge becomes a hang.
            let live = procs.keys().filter(|p| !dead.contains(p)).count();
            if live == 0 {
                let init_code = exit_codes.get(&Pid::INIT.0).copied().unwrap_or(-1);
                break RunOutcome::Completed {
                    init_code,
                    exit_codes: exit_codes.clone(),
                };
            }
            let mut fired = 0u32;
            let mut progressed = false;
            while fired < MAX_IDLE_TIMER_FIRES {
                if !self.engine.fire_next_timer() {
                    break;
                }
                fired += 1;
                let replies = self.engine.pump();
                let kills = self.engine.take_kill_events();
                if !replies.is_empty() || !kills.is_empty() {
                    // Carry them back to the canonical handling path at the
                    // top of the loop (it knows about spawn/fork pendings).
                    carried_replies = replies;
                    carried_kills = kills;
                    progressed = true;
                    break;
                }
                if self.engine.shutdown_state().is_some() {
                    break;
                }
            }
            if let Some(kind) = self.engine.shutdown_state() {
                break RunOutcome::Shutdown(kind);
            }
            if !progressed {
                break RunOutcome::Hang(format!(
                    "{} live process(es) blocked with no resolvable event",
                    live
                ));
            }
        };

        // Tear down: release every parked thread and join.
        for (_, p) in procs.iter() {
            // Dropping the sender unblocks the thread's recv with Err.
            let _ = p.input_tx.send(ProcInput::Killed);
        }
        drop(action_tx);
        // Drain any stray actions so senders don't block (unbounded channel:
        // sends never block, but be tidy and consume).
        while action_rx.try_recv().is_ok() {}
        for (_, mut p) in procs.drain() {
            if let Some(h) = p.handle.take() {
                let _ = h.join();
            }
        }
        outcome
    }

    /// Spawns the thread of process `pid`, parked until the host resumes
    /// it, running `body` (a registered program or a fork closure).
    fn start(
        &self,
        pid: Pid,
        args: Vec<String>,
        body: ForkFn,
        action_tx: Sender<(Pid, ProcAction)>,
    ) -> ProcEntry {
        let (input_tx, from_host) = channel::<ProcInput>();
        let mut sys = Sys {
            pid,
            args,
            registry: Arc::clone(&self.registry),
            to_host: action_tx.clone(),
            from_host,
            retry_ecrash: false,
            cfg: self.cfg,
        };
        let handle = std::thread::Builder::new()
            .name(format!("osiris-{}", pid))
            .spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| body(&mut sys)));
                finish_thread(pid, result, &action_tx);
            })
            .expect("spawn process thread");
        ProcEntry {
            input_tx,
            handle: Some(handle),
            blocked_on: None,
        }
    }
}

fn finish_thread(
    pid: Pid,
    result: Result<i32, Box<dyn std::any::Any + Send>>,
    action_tx: &Sender<(Pid, ProcAction)>,
) {
    let code = match result {
        Ok(code) => code,
        Err(payload) => match payload.downcast::<ProcExit>() {
            Ok(pe) => match *pe {
                ProcExit::Exited(code) => code,
                ProcExit::Killed => return, // host already accounted for us
            },
            // A bug in the program itself: report a distinctive exit code.
            Err(_) => 101,
        },
    };
    let _ = action_tx.send((pid, ProcAction::Done(code)));
}
