//! Lightweight in-memory checkpointing for OSIRIS components.
//!
//! This crate is the Rust analog of the LLVM store-instrumentation pass and
//! static checkpointing library used by the OSIRIS prototype (Bhat et al.,
//! DSN 2016, building on Vogt et al., "Lightweight Memory Checkpointing",
//! DSN 2015). In the paper, every `store` instruction in an OS server is
//! instrumented to append an *(address, old value)* pair to an undo log;
//! restoring the checkpoint means replaying the log in reverse.
//!
//! Here, a component keeps all of its recoverable state inside a [`Heap`].
//! State is held in *persistent containers* — [`PCell`], [`PVec`], [`PMap`]
//! and [`PBuf`] — whose every mutation goes through the heap and, while
//! *write logging* is enabled, appends an undo record. Rolling back to a
//! [`Mark`] undoes every mutation made since that mark, byte-exactly.
//!
//! The paper's key optimization — disabling the store instrumentation outside
//! the recovery window via function cloning — corresponds to
//! [`Heap::set_logging`]: when logging is off, mutations skip the undo log
//! entirely (and the virtual-cost accounting in the kernel charges nothing
//! for it).
//!
//! # Example
//!
//! ```
//! use osiris_checkpoint::Heap;
//!
//! let mut heap = Heap::new("pm");
//! let counter = heap.alloc_cell("counter", 0u64);
//!
//! // Top of the request loop: take a checkpoint.
//! let mark = heap.mark();
//! heap.set_logging(true);
//!
//! counter.set(&mut heap, 42);
//! assert_eq!(counter.get(&heap), 42);
//!
//! // A crash happened: roll back to the checkpoint.
//! heap.rollback_to(mark);
//! assert_eq!(counter.get(&heap), 0);
//! ```
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod buf;
mod cas;
mod cell;
mod heap;
mod image;
// The typed undo journal is the one place allowed to use `unsafe`: it moves
// old-value payloads in and out of a type-erased byte arena under the
// monomorphized function pointers stored in each record.
#[allow(unsafe_code)]
mod journal;
mod map;
mod stats;
mod vec;

pub use buf::PBuf;
pub use cas::{ChunkStore, CHUNK_SIZE};
pub use cell::PCell;
pub use heap::{Heap, HeapValue, Mark, ObjId};
pub use image::{HeapImage, RestoreStats};
pub use journal::{fold_bytes, fold_word, IntegrityError};
pub use map::PMap;
pub use stats::HeapStats;
pub use vec::PVec;
