//! The OSIRIS core operating system servers.
//!
//! This crate implements the five core system servers of the OSIRIS
//! prototype (paper §V) plus the disk driver, and assembles them on the
//! `osiris-kernel` substrate:
//!
//! * [`ProcessManager`] (PM) — processes, signals, `fork`/`exec`/`wait`.
//! * [`VmManager`] (VM) — address spaces over a pre-allocated frame pool.
//! * [`VfsServer`] (VFS) — files, directories and pipes, with a write-back
//!   block cache and *cooperative multithreading* so slow disk operations
//!   don't block the system (paper §IV-E).
//! * [`DataStore`] (DS) — a key-value store service.
//! * [`RecoveryServer`] (RS) — crash notification handling, heartbeats, and
//!   the restart/rollback/reconciliation sequence.
//! * [`DiskDriver`] — a block device with a latency model.
//!
//! [`Os`] wires everything together and implements
//! [`osiris_kernel::OsEngine`], so workload programs written against
//! `osiris_workloads::Sys` run on it unmodified.
//!
//! # Example
//!
//! ```
//! use osiris_workloads::{Host, ProgramRegistry};
//! use osiris_servers::{Os, OsConfig};
//!
//! let mut registry = ProgramRegistry::new();
//! registry.register("hello", |sys| {
//!     let pid = sys.getpid().expect("pm answers");
//!     assert_eq!(pid.0, 1);
//!     0
//! });
//! let os = Os::new(OsConfig::default());
//! let mut host = Host::new(os, registry);
//! let outcome = host.run("hello", &[]);
//! assert!(outcome.completed());
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disk;
mod ds;
mod os;
mod pm;
mod proto;
mod rs;
mod topology;
mod vfs;
mod vm;

pub use disk::{Block, DiskDriver, BLOCK_SIZE};
pub use ds::{DataStore, MAX_KEYS};
pub use os::{Os, OsConfig, OsSnapshot};
/// The recorder configurations an [`OsConfig`] holds.
pub use osiris_axiom::AxiomConfig;
pub use osiris_metrics::TimeseriesConfig;
pub use osiris_trace::TraceConfig;
pub use pm::ProcessManager;
pub use proto::{reply_result, OsMsg};
pub use rs::RecoveryServer;
pub use topology::Topology;
pub use vfs::{VfsServer, MAX_FDS, MAX_IO, ROOT_INO};
pub use vm::{VmManager, IMG_PAGES};
