//! The OSIRIS recovery framework.
//!
//! This crate is the Rust reproduction of the *primary contribution* of
//! "OSIRIS: Efficient and Consistent Recovery of Compartmentalized Operating
//! Systems" (Bhat et al., DSN 2016): a recovery strategy for fault-isolated,
//! message-passing OS components that guarantees **globally consistent**
//! recovery *without* runtime dependency tracking, by restricting recovery to
//! statically provable **safe recovery windows**.
//!
//! The framework is deliberately independent of any particular message
//! substrate (paper §VII, "Generality of the framework"): it can be wired
//! into any compartmentalized system whose components are event-driven and
//! restartable. The `osiris-kernel` crate wires it into a microkernel
//! simulator; the integration surface is small:
//!
//! * Every inter-component channel is a **SEEP** (Side Effect Engraved
//!   Passage): outgoing messages carry static [`SeepMeta`] describing whether
//!   they modify the receiver's state and whether an error reply is possible.
//! * Each component owns a [`RecoveryWindow`]: it opens (taking a checkpoint
//!   on the component's [`osiris_checkpoint::Heap`]) when a request is
//!   received, and closes at the first outgoing message the active
//!   [`RecoveryPolicy`] does not allow.
//! * On a crash, [`decide_recovery`] maps the window state and the crashed
//!   request's metadata to a [`RecoveryDecision`]: roll back and virtualize
//!   the error (`E_CRASH` to the requester — this also handles *persistent*
//!   faults), restart fresh / continue (baseline policies), or perform a
//!   **controlled shutdown** when consistency cannot be guaranteed.
//!
//! # Example: a minimal retrofit
//!
//! ```
//! use osiris_checkpoint::Heap;
//! use osiris_core::{
//!     ActionCode, decide_recovery, CrashContext, Enhanced, RecoveryWindow,
//!     SeepClass, SeepMeta,
//! };
//!
//! let mut heap = Heap::new("component");
//! let state = heap.alloc_cell("state", 0u64);
//! let policy = Enhanced;
//! let mut window = RecoveryWindow::new();
//!
//! // A request arrives: open the window (checkpoint).
//! window.open(&mut heap);
//! state.set(&mut heap, 7);
//!
//! // The handler sends a read-only query: enhanced policy keeps the window open.
//! window.on_send(&policy, &SeepMeta::request(SeepClass::NonStateModifying), &mut heap);
//! assert!(window.is_open());
//!
//! // The handler crashes before replying to the request; decide what to do.
//! let request = SeepMeta::request(SeepClass::StateModifying);
//! let decision = decide_recovery(
//!     &policy,
//!     &CrashContext {
//!         scoped_sends: window.had_scoped_sends(),
//!         requester_is_process: true,
//!         ..CrashContext::handler_fault(&request, window.is_open(), false)
//!     },
//! );
//! assert_eq!(decision.action, ActionCode::RollbackErrorReply);
//!
//! // Roll back: the component is again in its top-of-loop state.
//! window.rollback(&mut heap);
//! assert_eq!(state.get(&heap), 0);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conduct;
mod escalation;
mod policy;
mod recovery;
mod seep;
pub mod watchdog;
mod window;

pub use conduct::{conduct, Effect, Input, MAX_INTENT_REPLAYS};
pub use escalation::{EscalationPolicy, EscalationStep, RestartBudget};
pub use policy::{
    Enhanced, EnhancedKill, Naive, Pessimistic, PolicyKind, RecoveryPolicy, Stateless,
};
pub use recovery::{decide_recovery, system_survives, ActionCode, CrashContext, RecoveryDecision};
pub use seep::{MessageKind, SeepClass, SeepMeta};
pub use watchdog::WatchdogConfig;
pub use window::{CloseReason, RecoveryWindow, WindowStats};
