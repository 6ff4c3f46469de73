//! The OSIRIS microkernel substrate: deterministic message passing,
//! event-driven components, crash detection and recovery mechanics, plus the
//! engine contract ([`OsEngine`], [`RunOutcome`]) a workload driver runs a
//! simulated OS through.
//!
//! This crate reproduces the role MINIX 3 plays in the OSIRIS prototype
//! (paper §V): a small trusted kernel providing scheduling and message
//! passing, with the operating system proper implemented as fault-isolated
//! user-space servers. Fault isolation here is enforced by Rust ownership —
//! components hold no references to each other and interact exclusively
//! through kernel messages — which gives the same no-fault-propagation
//! property the paper obtains from MMU isolation.
//!
//! The crate is deliberately generic: [`Kernel`] works with any protocol
//! type implementing [`Protocol`]. The `osiris-servers` crate assembles the
//! five core servers into the full OS; `osiris-monolith` implements the same
//! ABI without compartmentalization; the process host that drives either
//! through [`OsEngine`] is `osiris_workloads::Host`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abi;
mod clock;
mod component;
mod engine;
mod kernel;
mod message;

pub use clock::{cost, VirtualClock};
pub use component::{
    Ctx, FaultEffect, FaultHook, InjectedCrash, InjectedHang, NoFaults, PrivOp, Probe, Server,
    SiteKind,
};
pub use engine::{OsEngine, RunOutcome, ShutdownKind};
pub use kernel::{
    CasFingerprint, CompSnapshot, Instrumentation, Kernel, KernelConfig, KernelSnapshot,
    WatchdogConfig,
};
pub use message::{Delivery, Endpoint, Message, MsgId, Protocol, ReturnPath, SpanInfo, SyscallId};
/// System-wide counters, read from the kernel's metric fold.
pub use osiris_metrics::KernelMetrics;

/// Per-component report: the raw material for Tables I and VI.
pub type ComponentReport = osiris_metrics::ComponentReport<osiris_core::WindowStats>;

use std::sync::Once;

/// Installs a process-wide panic hook that silences the panics used as
/// control flow by the simulator (injected faults), while delegating
/// genuine panics to the previous hook.
///
/// Fault-injection campaigns unwind thousands of injected crashes; without
/// this hook every one of them would print a backtrace banner.
pub fn install_quiet_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            if payload.is::<InjectedCrash>() || payload.is::<InjectedHang>() {
                return;
            }
            previous(info);
        }));
    });
}
