//! The contract between a simulated OS and whatever drives it: the engine
//! trait the OS implements and the verdict on a whole run. Both stay in the
//! kernel crate, next to the ABI: `osiris-servers` and `osiris-monolith`
//! implement the trait and `osiris-faults` classifies the outcome. The
//! driver itself (`Host`, `Sys`) is workload code and lives in
//! `osiris-workloads`.

use std::collections::BTreeMap;

use crate::abi::{Pid, SysReply, Syscall};
use crate::message::SyscallId;

/// A simulated operating system, as seen by the process host.
///
/// `Send`, because the host lends the engine to whichever process thread
/// holds the run token.
pub trait OsEngine: Send {
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

/// How the system ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShutdownKind {
    /// A controlled shutdown: consistency could not be guaranteed, so the
    /// system stopped itself cleanly (paper §IV-C).
    Controlled(String),
    /// An uncontrolled crash: a fault the recovery machinery could not
    /// contain (e.g. a second fault during recovery).
    Crash(String),
}

impl ShutdownKind {
    /// Whether this was the controlled variant.
    pub fn is_controlled(&self) -> bool {
        matches!(self, ShutdownKind::Controlled(_))
    }
}
