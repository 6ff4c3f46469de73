//! # OSIRIS-rs
//!
//! A Rust reproduction of **"OSIRIS: Efficient and Consistent Recovery of
//! Compartmentalized Operating Systems"** (Bhat et al., DSN 2016): a
//! compartmentalized OS simulator whose core servers recover from crashes —
//! including *persistent* software faults — without runtime dependency
//! tracking, by restricting recovery to statically provable **safe recovery
//! windows**.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`checkpoint`] — undo-log in-memory checkpointing ([`Heap`], `PCell`,
//!   `PMap`, `PVec`, `PBuf`).
//! * [`core`] — the recovery framework: SEEPs, recovery windows, policies,
//!   reconciliation decisions.
//! * [`kernel`] — the deterministic microkernel substrate and the engine
//!   contract ([`OsEngine`], [`RunOutcome`]).
//! * [`servers`] — the five core servers (PM, VM, VFS, DS, RS) plus the
//!   disk driver, assembled as [`Os`].
//! * [`monolith`] — the monolithic baseline with the same syscall ABI.
//! * [`faults`] — EDFI-style fault injection and campaign tooling.
//! * [`workloads`] — the user-process host ([`Sys`], [`Host`],
//!   [`ProgramRegistry`]), the prototype test suite and Unixbench analogs.
//! * [`trace`] — the deterministic flight recorder (event ring, histograms,
//!   Chrome-trace export, post-mortem black box).
//! * [`metrics`] — the metrics registry (typed counter/gauge/
//!   histogram series ids, Prometheus and JSON exposition).
//! * [`axiom`] — the authoritative control-plane log: hash-chained typed
//!   events, pure control-state reduction, whole-system replay, divergence
//!   bisection.
//!
//! # Quickstart
//!
//! ```
//! use osiris::{Host, Os, OsConfig, PolicyKind, ProgramRegistry};
//!
//! let mut registry = ProgramRegistry::new();
//! registry.register("hello", |sys| {
//!     let pid = sys.getpid().expect("PM answers");
//!     i32::from(pid.0 != 1)
//! });
//!
//! let os = Os::new(OsConfig::with_policy(PolicyKind::Enhanced));
//! let mut host = Host::new(os, registry);
//! let outcome = host.run("hello", &[]);
//! assert!(outcome.completed());
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use osiris_axiom as axiom;
pub use osiris_checkpoint as checkpoint;
pub use osiris_core as core;
pub use osiris_cothread as cothread;
pub use osiris_faults as faults;
pub use osiris_kernel as kernel;
pub use osiris_metrics as metrics;
pub use osiris_monolith as monolith;
pub use osiris_servers as servers;
pub use osiris_trace as trace;
pub use osiris_workloads as workloads;

pub use osiris_axiom::{AxiomConfig, AxiomEvent, AxiomLog, ControlState};
pub use osiris_checkpoint::Heap;
pub use osiris_core::{
    ActionCode, CrashContext, Enhanced, EscalationPolicy, EscalationStep, Naive, Pessimistic,
    PolicyKind, RecoveryPolicy, RecoveryWindow, RestartBudget, SeepClass, SeepMeta, Stateless,
};
pub use osiris_kernel::{
    install_quiet_panic_hook, Instrumentation, OsEngine, RunOutcome, ShutdownKind, WatchdogConfig,
};
pub use osiris_metrics::{MetricsConfig, Registry};
pub use osiris_monolith::Monolith;
pub use osiris_servers::{Os, OsConfig};
pub use osiris_trace::{TraceConfig, TraceEvent, Tracer};
pub use osiris_workloads::{Host, ProgramRegistry, Sys};
