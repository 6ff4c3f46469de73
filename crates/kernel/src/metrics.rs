//! Kernel- and component-level metrics backing the evaluation tables.
//!
//! [`KernelMetrics`] and [`ComponentReport`] are *views*: the kernel
//! assembles them on demand from its `osiris-metrics` registry (see
//! `Kernel::metrics` and `Kernel::component_reports`), so these structs,
//! the Prometheus/JSON exports, and the campaign observer all read the same
//! numbers.

use osiris_core::WindowStats;
use osiris_trace::HistSummary;

/// Per-component report: the raw material for Tables I and VI.
#[derive(Clone, Debug)]
pub struct ComponentReport {
    /// Component name.
    pub name: &'static str,
    /// Endpoint index.
    pub endpoint: u8,
    /// Recovery-window statistics (coverage counters).
    pub window: WindowStats,
    /// Virtual cycles spent running this component's handlers.
    pub cycles: u64,
    /// Messages handled.
    pub messages: u64,
    /// Current resident heap size in bytes.
    pub heap_bytes: usize,
    /// Size of the pristine clone image kept for recovery (Table VI
    /// "+clone", per-copy accounting: what a non-shared spare copy would
    /// cost).
    pub clone_bytes: usize,
    /// Deduplicated store bytes attributed to this component's clone image:
    /// each chunk in the content-addressed pool is charged to the first
    /// component (in endpoint order) referencing it, so these sum to the
    /// pool's resident total (Table VI "+clone" deduped accounting).
    pub clone_dedup_bytes: usize,
    /// Peak undo-log size (Table VI "+undo log"), sampled at window close
    /// and floored at the raw high-water mark. Under window-gated
    /// instrumentation the two coincide; under `Always` this excludes
    /// out-of-window log growth, making it the accurate Table VI figure
    /// for long runs.
    pub undo_window_peak_bytes: usize,
    /// Distribution of virtual cycles charged per recovery.
    pub recovery_latency: HistSummary,
    /// Distribution of in-window cycles per completed request.
    pub window_cycles: HistSummary,
    /// Distribution of undo bytes appended per completed request window.
    pub undo_window_bytes: HistSummary,
    /// Total logical writes and logged writes.
    pub writes: u64,
    /// Writes that appended an undo record.
    pub undo_appends: u64,
    /// Logged writes elided by the journal's write coalescing: they paid the
    /// memory-write cost but no `undo_append` cost.
    pub coalesced_writes: u64,
    /// Times this component crashed.
    pub crashes: u64,
    /// Times this component was recovered.
    pub recoveries: u64,
}

/// System-wide counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelMetrics {
    /// Messages delivered between endpoints.
    pub ipc_delivered: u64,
    /// User syscalls submitted.
    pub syscalls: u64,
    /// Timer events fired.
    pub timers_fired: u64,
    /// Component crashes observed (fail-stop panics).
    pub crashes: u64,
    /// Components quarantined by the escalation ladder.
    pub quarantines: u64,
    /// Components detected hung.
    pub hangs: u64,
    /// Recoveries by rollback + error virtualization.
    pub recovered_rollback: u64,
    /// Recoveries by fresh (stateless) restart.
    pub recovered_fresh: u64,
    /// Recoveries keeping crash-time state (naive).
    pub recovered_naive: u64,
    /// Keep-state restarts of a quiescent component the watchdog declared
    /// dead (its transaction had committed; only the reply was lost or
    /// tampered with, so retaining the heap is sound).
    pub recovered_quiescent: u64,
    /// Controlled shutdowns performed.
    pub controlled_shutdowns: u64,
    /// Virtual cycles spent executing recovery phases.
    pub recovery_cycles: u64,
    /// Watchdog deadlines armed on outbound requests.
    pub wd_armed: u64,
    /// Armed deadlines that expired before a reply arrived.
    pub wd_expired: u64,
    /// Heartbeat probes sent to slow-but-alive components.
    pub wd_probes: u64,
    /// Watchdog verdicts delivered, all categories (hung, slow,
    /// reply-lost, corrupt-reply).
    pub wd_verdicts: u64,
    /// Replies rejected by the integrity check.
    pub wd_replies_rejected: u64,
    /// Transparent retries granted after a fail-silent verdict.
    pub retries_granted: u64,
    /// Retries denied (budget exhausted, target unusable, or a
    /// state-modifying request without an intervening recovery).
    pub retries_denied: u64,
    /// Requests whose retry budget ran out entirely.
    pub retries_exhausted: u64,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_kind_predicates() {
        assert!(ShutdownKind::Controlled("x".into()).is_controlled());
        assert!(!ShutdownKind::Crash("y".into()).is_controlled());
    }
}
