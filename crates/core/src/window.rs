//! The per-component recovery-window state machine.
//!
//! A recovery window starts at the top of the request-processing loop (a
//! checkpoint is taken) and spans the instructions that may be rolled back
//! without affecting global consistency. It closes at the first outgoing
//! message the active policy disallows, or when a cooperative thread yields
//! (paper §IV-B, §IV-E). While the window is open the component's heap logs
//! every write; when it closes the log is discarded and logging stops — the
//! paper's key overhead optimization.

use osiris_checkpoint::{Heap, Mark};
use osiris_trace::{CloseCode, SeepClassCode, TraceEvent};

use crate::policy::RecoveryPolicy;
use crate::seep::SeepMeta;

/// Why a recovery window was closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CloseReason {
    /// An outgoing message the policy disallows inside a window.
    DisallowedSend,
    /// A cooperative thread yielded (multithreaded servers, §IV-E).
    ThreadYield,
    /// Explicitly closed by the component or runtime.
    Manual,
}

impl CloseReason {
    /// This reason in the axiom's vocabulary, which adds the closes that
    /// end a request (`Completed`, `Rollback`).
    fn code(self) -> CloseCode {
        match self {
            CloseReason::DisallowedSend => CloseCode::DisallowedSend,
            CloseReason::ThreadYield => CloseCode::ThreadYield,
            CloseReason::Manual => CloseCode::Manual,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// No request is being processed.
    Idle,
    /// Window open since the mark was taken; rollback is safe.
    Open(Mark),
    /// A request is being processed but the window has closed; recovery
    /// would be unsafe.
    Closed(CloseReason),
}

use crate::seep::SeepClass;

/// Counters backing the recovery-coverage experiment (Table I).
///
/// `cycles_in`/`cycles_out` accumulate virtual execution cost attributed to
/// inside/outside open windows; `sites_in`/`sites_out` count executed
/// instrumentation sites (the basic-block analog).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Times a window was opened.
    pub opens: u64,
    /// Times a window closed due to a disallowed send.
    pub closed_by_send: u64,
    /// Times a window closed due to a thread yield.
    pub closed_by_yield: u64,
    /// Times a window closed manually.
    pub closed_manually: u64,
    /// Virtual cycles spent while a window was open.
    pub cycles_in: u64,
    /// Virtual cycles spent while no window was open.
    pub cycles_out: u64,
    /// Instrumentation sites executed inside open windows.
    pub sites_in: u64,
    /// Instrumentation sites executed outside open windows.
    pub sites_out: u64,
    /// Rollbacks performed through this window.
    pub rollbacks: u64,
}

impl WindowStats {
    /// Recovery coverage: fraction of execution spent inside open windows,
    /// by instrumentation sites (the paper's basic-block metric).
    pub fn coverage_by_sites(&self) -> f64 {
        let total = self.sites_in + self.sites_out;
        if total == 0 {
            return 0.0;
        }
        self.sites_in as f64 / total as f64
    }

    /// Recovery coverage weighted by virtual cycles.
    pub fn coverage_by_cycles(&self) -> f64 {
        let total = self.cycles_in + self.cycles_out;
        if total == 0 {
            return 0.0;
        }
        self.cycles_in as f64 / total as f64
    }
}

/// The recovery window of one component (or one cooperative thread).
/// `Clone` exists for the kernel's fork-snapshot path, which captures the
/// window state verbatim (all fields are plain `Copy` data).
#[derive(Clone, Debug)]
pub struct RecoveryWindow {
    state: State,
    stats: WindowStats,
    scoped_sends: bool,
    /// The close that ended the current/most recent window, staged for the
    /// kernel to seal into the axiom log (the kernel is the axiom's single
    /// writer; the window only records what happened).
    last_close: Option<(CloseCode, SeepClassCode)>,
}

impl Default for RecoveryWindow {
    fn default() -> Self {
        Self::new()
    }
}

impl RecoveryWindow {
    /// Creates a window in the idle state.
    pub fn new() -> Self {
        RecoveryWindow {
            state: State::Idle,
            stats: WindowStats::default(),
            scoped_sends: false,
            last_close: None,
        }
    }

    /// Takes the staged record of how the current/most recent window
    /// closed, if it has not been consumed yet. The kernel drains this
    /// after each handler (and after recovery's rollback/complete) to emit
    /// the authoritative `WindowClose` axiom event.
    pub fn take_last_close(&mut self) -> Option<(CloseCode, SeepClassCode)> {
        self.last_close.take()
    }

    /// Whether the current window saw requester-scoped sends the policy
    /// allowed to stay open (input to the kill-requester reconciliation).
    pub fn had_scoped_sends(&self) -> bool {
        self.scoped_sends
    }

    /// Whether the window is currently open (rollback is safe).
    pub fn is_open(&self) -> bool {
        matches!(self.state, State::Open(_))
    }

    /// Whether a request is being processed with the window closed.
    pub fn is_closed(&self) -> bool {
        matches!(self.state, State::Closed(_))
    }

    /// Opens a new window: discards any stale log, enables write logging and
    /// takes a checkpoint. Called at the top of the request loop for every
    /// incoming request.
    pub fn open(&mut self, heap: &mut Heap) {
        heap.discard_log();
        heap.set_logging(true);
        self.state = State::Open(heap.mark());
        self.scoped_sends = false;
        self.last_close = None;
        self.stats.opens += 1;
        heap.trace_stage().push(TraceEvent::WindowOpen);
    }

    /// Begins processing a request *without* opening a window (baseline
    /// policies that do no checkpointing). Write logging stays off.
    pub fn begin_unprotected(&mut self) {
        self.state = State::Closed(CloseReason::Manual);
        self.last_close = None;
    }

    /// Notifies the window of an outgoing message; closes it if the policy
    /// disallows the send inside a window.
    pub fn on_send(&mut self, policy: &dyn RecoveryPolicy, seep: &SeepMeta, heap: &mut Heap) {
        if !self.is_open() {
            return;
        }
        if !policy.send_keeps_window_open(seep) {
            self.close_traced(heap, CloseReason::DisallowedSend, seep.class.code());
        } else if seep.class == SeepClass::RequesterScoped {
            self.scoped_sends = true;
        }
    }

    /// Forcibly closes the window (thread yield, manual close). No-op if the
    /// window is not open.
    pub fn close(&mut self, heap: &mut Heap, reason: CloseReason) {
        self.close_traced(heap, reason, SeepClassCode::None);
    }

    /// Close with the SEEP class that forced it, recorded in the trace.
    fn close_traced(&mut self, heap: &mut Heap, reason: CloseReason, class: SeepClassCode) {
        if !self.is_open() {
            return;
        }
        heap.set_logging(false);
        heap.discard_log();
        self.state = State::Closed(reason);
        match reason {
            CloseReason::DisallowedSend => self.stats.closed_by_send += 1,
            CloseReason::ThreadYield => self.stats.closed_by_yield += 1,
            CloseReason::Manual => self.stats.closed_manually += 1,
        }
        self.last_close = Some((reason.code(), class));
        heap.trace_stage().push(TraceEvent::WindowClose {
            reason: reason.code(),
            class,
        });
    }

    /// Finishes processing a request normally: the checkpoint is no longer
    /// needed, so the log is discarded and the window returns to idle.
    pub fn complete(&mut self, heap: &mut Heap) {
        let was_open = self.is_open();
        heap.set_logging(false);
        heap.discard_log();
        self.state = State::Idle;
        self.scoped_sends = false;
        if was_open {
            // Mid-handler closes already recorded their own WindowClose.
            self.last_close = Some((CloseCode::Completed, SeepClassCode::None));
            heap.trace_stage().push(TraceEvent::WindowClose {
                reason: CloseCode::Completed,
                class: SeepClassCode::None,
            });
        }
    }

    /// Rolls the heap back to the checkpoint taken when the window opened
    /// and returns to the idle state.
    ///
    /// # Panics
    ///
    /// Panics if the window is not open — callers must consult
    /// [`decide_recovery`](crate::decide_recovery) first; attempting to roll
    /// back past a closed window is exactly the unsafe recovery OSIRIS
    /// refuses to perform.
    pub fn rollback(&mut self, heap: &mut Heap) {
        match self.state {
            State::Open(mark) => {
                heap.rollback_to(mark);
                heap.set_logging(false);
                self.state = State::Idle;
                self.stats.rollbacks += 1;
                self.last_close = Some((CloseCode::Rollback, SeepClassCode::None));
                heap.trace_stage().push(TraceEvent::WindowClose {
                    reason: CloseCode::Rollback,
                    class: SeepClassCode::None,
                });
            }
            _ => panic!("rollback requested while recovery window is not open"),
        }
    }

    /// Attributes `cycles` of virtual execution cost to the current window
    /// state (for Table I's coverage metric).
    pub fn charge(&mut self, cycles: u64) {
        if self.is_open() {
            self.stats.cycles_in += cycles;
        } else {
            self.stats.cycles_out += cycles;
        }
    }

    /// Attributes already-split cycle costs directly to the in-window and
    /// out-of-window counters. Used by runtimes that account memory-write
    /// costs after a handler returns: logged writes happened inside the
    /// window, unlogged ones outside.
    pub fn charge_split(&mut self, in_cycles: u64, out_cycles: u64) {
        self.stats.cycles_in += in_cycles;
        self.stats.cycles_out += out_cycles;
    }

    /// Records execution of one instrumentation site (basic-block analog).
    pub fn tick_site(&mut self) {
        if self.is_open() {
            self.stats.sites_in += 1;
        } else {
            self.stats.sites_out += 1;
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &WindowStats {
        &self.stats
    }

    /// Resets statistics (state is preserved).
    pub fn reset_stats(&mut self) {
        self.stats = WindowStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Enhanced, Pessimistic};
    use crate::seep::{SeepClass, SeepMeta};

    #[test]
    fn open_close_complete_lifecycle() {
        let mut heap = Heap::new("t");
        let c = heap.alloc_cell("x", 0u32);
        let mut w = RecoveryWindow::new();
        assert!(!w.is_open());
        w.open(&mut heap);
        assert!(w.is_open());
        assert!(heap.logging());
        c.set(&mut heap, 1);
        w.complete(&mut heap);
        assert!(!w.is_open());
        assert!(!heap.logging());
        assert_eq!(heap.log_len(), 0);
        assert_eq!(c.get(&heap), 1);
    }

    #[test]
    fn pessimistic_send_closes_window() {
        let mut heap = Heap::new("t");
        let mut w = RecoveryWindow::new();
        w.open(&mut heap);
        w.on_send(
            &Pessimistic,
            &SeepMeta::request(SeepClass::NonStateModifying),
            &mut heap,
        );
        assert!(w.is_closed());
        assert_eq!(w.stats().closed_by_send, 1);
        assert!(!heap.logging());
    }

    #[test]
    fn enhanced_keeps_window_open_on_read_only_send() {
        let mut heap = Heap::new("t");
        let mut w = RecoveryWindow::new();
        w.open(&mut heap);
        w.on_send(
            &Enhanced,
            &SeepMeta::request(SeepClass::NonStateModifying),
            &mut heap,
        );
        assert!(w.is_open());
        w.on_send(
            &Enhanced,
            &SeepMeta::request(SeepClass::StateModifying),
            &mut heap,
        );
        assert!(w.is_closed());
    }

    #[test]
    fn rollback_restores_checkpoint() {
        let mut heap = Heap::new("t");
        let c = heap.alloc_cell("x", 10u32);
        let mut w = RecoveryWindow::new();
        w.open(&mut heap);
        c.set(&mut heap, 11);
        c.set(&mut heap, 12);
        w.rollback(&mut heap);
        assert_eq!(c.get(&heap), 10);
        assert_eq!(w.stats().rollbacks, 1);
    }

    #[test]
    #[should_panic(expected = "not open")]
    fn rollback_with_closed_window_panics() {
        let mut heap = Heap::new("t");
        let mut w = RecoveryWindow::new();
        w.open(&mut heap);
        w.close(&mut heap, CloseReason::Manual);
        w.rollback(&mut heap);
    }

    #[test]
    fn charge_and_sites_attribute_by_state() {
        let mut heap = Heap::new("t");
        let mut w = RecoveryWindow::new();
        w.charge(5);
        w.tick_site();
        w.open(&mut heap);
        w.charge(10);
        w.tick_site();
        w.tick_site();
        w.close(&mut heap, CloseReason::ThreadYield);
        w.charge(3);
        let s = w.stats();
        assert_eq!(s.cycles_in, 10);
        assert_eq!(s.cycles_out, 8);
        assert_eq!(s.sites_in, 2);
        assert_eq!(s.sites_out, 1);
        assert_eq!(s.closed_by_yield, 1);
        assert!((s.coverage_by_sites() - 2.0 / 3.0).abs() < 1e-9);
        assert!((s.coverage_by_cycles() - 10.0 / 18.0).abs() < 1e-9);
    }

    #[test]
    fn coverage_of_empty_stats_is_zero() {
        let s = WindowStats::default();
        assert_eq!(s.coverage_by_sites(), 0.0);
        assert_eq!(s.coverage_by_cycles(), 0.0);
    }

    #[test]
    fn reopen_discards_stale_log() {
        let mut heap = Heap::new("t");
        let c = heap.alloc_cell("x", 0u32);
        let mut w = RecoveryWindow::new();
        w.open(&mut heap);
        c.set(&mut heap, 1);
        // Crash-free completion is skipped; a new request arrives.
        w.open(&mut heap);
        assert_eq!(heap.log_len(), 0);
        c.set(&mut heap, 2);
        w.rollback(&mut heap);
        // Rolls back to the *second* checkpoint, not the first.
        assert_eq!(c.get(&heap), 1);
    }
}
