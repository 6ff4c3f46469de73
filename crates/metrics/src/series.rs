//! The kernel's metric series, declared once.
//!
//! Each `series_table!` below is the single place a family's name, kind,
//! help text and label sets are written: the struct of series ids, its
//! `register` and the timeseries sampler's display names are all generated
//! from it. Rows are in registration order, which is exposition order, so
//! reordering them changes every exported byte. [`crate::fold`] writes
//! them; the kernel never names one.

use crate::{CounterId, GaugeId, HistId, Registry, TimeseriesSampler};

/// Declares a struct of series ids from rows of the form
/// `kind "family": "help" { field, field("label" = "value"), ... }`.
/// `names via m` additionally defines `m!(field)`: the series' display name
/// (`family{label="value"}`) as a string literal.
macro_rules! series_table {
    (
        $(#[$meta:meta])*
        struct $name:ident;
        $( $kind:ident $family:literal: $help:literal {
            $( $field:ident $(($($k:literal = $v:literal),+))? ),+ $(,)?
        } )*
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy)]
        pub(crate) struct $name {
            $($( pub(crate) $field: series_table!(@ty $kind), )+)*
        }

        impl $name {
            /// Family names in table order.
            #[cfg(test)]
            pub(crate) const FAMILIES: &'static [&'static str] = &[$($family),*];

            /// Registers every series in table order. A series carries the
            /// table's runtime labels `base` unless its row gives static ones.
            pub(crate) fn register(m: &mut Registry, base: &[(&str, &str)]) -> Self {
                $name {
                    $($( $field: m.$kind(
                        $family,
                        $help,
                        series_table!(@labels base $($($k = $v),+)?),
                    ), )+)*
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        struct $name:ident, names via $lookup:ident;
        $( $kind:ident $family:literal: $help:literal {
            $( $field:ident $(($($k:literal = $v:literal),+))? ),+ $(,)?
        } )*
    ) => {
        series_table! {
            $(#[$meta])*
            struct $name;
            $( $kind $family: $help { $( $field $(($($k = $v),+))? ),+ } )*
        }
        macro_rules! $lookup {
            $($( ($field) => { series_table!(@name $family $($($k = $v),+)?) }; )+)*
        }
    };
    (@ty counter) => { CounterId };
    (@ty gauge) => { GaugeId };
    (@ty hist) => { HistId };
    (@labels $base:ident) => { $base };
    (@labels $base:ident $($k:literal = $v:literal),+) => {{
        debug_assert!($base.is_empty(), "a table has runtime labels or static ones, not both");
        &[$(($k, $v)),+]
    }};
    (@name $family:literal) => { $family };
    (@name $family:literal $k0:literal = $v0:literal $(, $k:literal = $v:literal)*) => {
        concat!($family, "{", $k0, "=\"", $v0, "\"" $(, ",", $k, "=\"", $v, "\"")*, "}")
    };
}

series_table! {
    /// Per-component registry series, labelled `{component, endpoint}` at
    /// registration.
    struct CompStats;
    counter "osiris_comp_cycles_total": "Virtual cycles spent running this component's handlers" {
        cycles
    }
    counter "osiris_comp_messages_total": "Messages handled" { messages }
    counter "osiris_comp_crashes_total": "Fail-stop crashes observed in this component" { crashes }
    counter "osiris_comp_recoveries_total": "Times this component was recovered" { recoveries }
    hist "osiris_comp_recovery_latency_cycles": "Virtual cycles charged per recovery" {
        recovery_hist
    }
    hist "osiris_comp_window_cycles": "In-window cycles per completed request" { window_hist }
    hist "osiris_comp_undo_window_bytes": "Undo bytes appended per completed request window" {
        undo_hist
    }
    // Kept by the heap, the clone pool and the window; computed by `view`:
    gauge "osiris_comp_heap_bytes": "Current resident heap size in bytes" { heap_bytes }
    gauge "osiris_comp_clone_bytes": "Size of the pristine clone image kept for recovery" {
        clone_bytes
    }
    gauge "osiris_comp_clone_dedup_bytes":
        "Deduplicated store bytes attributed to this component's clone image" { clone_dedup_bytes }
    gauge "osiris_comp_undo_window_peak_bytes": "Peak undo-log size sampled at window close" {
        undo_window_peak_bytes
    }
    counter "osiris_comp_writes_total": "Logical heap writes (logged and unlogged)" { writes }
    counter "osiris_comp_undo_appends_total": "Writes that appended an undo record" {
        undo_appends
    }
    counter "osiris_comp_coalesced_writes_total": "Logged writes elided by undo-journal coalescing" {
        coalesced_writes
    }
    counter "osiris_comp_window_opens_total": "Recovery windows opened" { window_opens }
    counter "osiris_comp_window_rollbacks_total": "Recovery windows rolled back" {
        window_rollbacks
    }
    // Escalation-ladder series (folded from the Recovery Server's ladder
    // decisions the kernel seals):
    counter "osiris_quarantine_total":
        "Times this component was quarantined by the escalation ladder" { quarantines }
    counter "osiris_quarantine_refusals_total":
        "Requests bounced with a crash reply while quarantined" { quarantine_refusals }
    gauge "osiris_escalation_restarts_window":
        "Restarts of this component inside the current sliding window" { escalation_restarts_window }
    counter "osiris_escalation_backoff_arms_total": "Restart backoffs armed for this component" {
        escalation_backoff_arms
    }
    counter "osiris_escalation_budget_exhausted_total":
        "Times this component exhausted its restart budget" { escalation_budget_exhausted }
}

series_table! {
    /// Kernel-wide registry series.
    struct KernelCounters, names via kernel_series_name;
    counter "osiris_kernel_ipc_delivered_total": "Messages delivered between endpoints" {
        ipc_delivered
    }
    counter "osiris_kernel_syscalls_total": "User syscalls submitted" { syscalls }
    counter "osiris_kernel_timers_fired_total": "Timer events fired" { timers_fired }
    counter "osiris_kernel_hangs_total": "Components detected hung" { hangs }
    counter "osiris_kernel_recoveries_total": "Recoveries executed, by action" {
        recovered_rollback("action" = "rollback"),
        recovered_fresh("action" = "fresh"),
        recovered_naive("action" = "naive"),
        recovered_quiescent("action" = "quiescent"),
    }
    counter "osiris_kernel_controlled_shutdowns_total": "Controlled shutdowns performed" {
        controlled_shutdowns
    }
    counter "osiris_kernel_recovery_cycles_total": "Virtual cycles spent executing recovery phases" {
        recovery_cycles
    }
    counter "osiris_recovery_fallback_total":
        "Recovery phases degraded to the next rung of the fallback chain" {
        fb_rollback_fresh("from" = "rollback", "to" = "fresh"),
        fb_fresh_shutdown("from" = "fresh", "to" = "shutdown"),
        fb_reconcile_shutdown("from" = "reconcile", "to" = "shutdown"),
        fb_crash_fresh("from" = "crash", "to" = "fresh"),
    }
    counter "osiris_recovery_fallback_intent_replays_total":
        "In-flight recovery intents re-driven through a restarted RS" { intent_replays }
    counter "osiris_recovery_fallback_intent_completed_total":
        "In-flight recovery intents completed by the kernel directly" { intent_completed }
    counter "osiris_journal_integrity_checks_total":
        "Undo-journal and heap-image integrity checks before recovery" {
        journal_ok("kind" = "journal", "result" = "ok"),
        journal_corrupt("kind" = "journal", "result" = "corrupt"),
        image_ok("kind" = "image", "result" = "ok"),
        image_corrupt("kind" = "image", "result" = "corrupt"),
    }
    // Content-addressed clone-pool series (the first three computed by
    // `view` from the store):
    gauge "osiris_cas_chunks": "Chunks resident in the content-addressed clone-pool store" {
        cas_chunks
    }
    gauge "osiris_cas_bytes": "Deduplicated resident bytes in the content-addressed store" {
        cas_bytes
    }
    counter "osiris_cas_dedup_hits_total":
        "Chunk insertions satisfied by an already-resident chunk" { cas_dedup_hits }
    counter "osiris_restart_chunks_total":
        "Chunks considered during copy-on-write restores, by kind" {
        restart_chunks_clean("kind" = "clean"),
        restart_chunks_dirty("kind" = "dirty"),
    }
    counter "osiris_cas_pool_refresh_total":
        "Clone-pool image refreshes requested by the RS, by result" {
        pool_refreshed("result" = "refreshed"),
        pool_refresh_skipped("result" = "skipped"),
    }
    // Axiom-log series (`osiris_axiom_bytes` computed by `view`):
    counter "osiris_axiom_events_total":
        "Control-plane events folded into the axiom control state" { axiom_events }
    gauge "osiris_axiom_bytes": "Serialized size of the recorded axiom log" { axiom_bytes }
    counter "osiris_axiom_chain_verifications_total":
        "Axiom digest-chain verifications, by result" {
        axiom_chain_ok("result" = "ok"),
        axiom_chain_corrupt("result" = "corrupt"),
    }
    counter "osiris_axiom_replay_divergence_total":
        "Replay comparisons that found a divergence from the recorded axiom" {
        axiom_replay_divergence
    }
    // Causal request-span series (end-to-end latency attribution, split by
    // whether the request overlapped a crash capture or recovery):
    counter "osiris_span_started_total": "Causal request spans minted at workload entry points" {
        spans_started
    }
    counter "osiris_span_completed_total": "Causal request spans closed, by recovery overlap" {
        spans_completed_none("overlap" = "none"),
        spans_completed_recovery("overlap" = "recovery"),
    }
    hist "osiris_span_latency_cycles":
        "End-to-end virtual cycles per request span, by recovery overlap" {
        span_latency_none("overlap" = "none"),
        span_latency_recovery("overlap" = "recovery"),
    }
    counter "osiris_span_hops_total": "Span-carrying message deliveries (causal hops)" {
        span_hops
    }
    // Virtual-time watchdog series (fail-silent fault tolerance):
    counter "osiris_watchdog_armed_total": "Watchdog deadlines armed on bounded requests" {
        wd_armed_total
    }
    counter "osiris_watchdog_deadline_expired_total":
        "Armed deadlines that expired before a reply arrived" { wd_expired }
    counter "osiris_watchdog_probes_total":
        "Heartbeat progress probes issued after a deadline expiry" { wd_probes }
    counter "osiris_watchdog_verdicts_total": "Watchdog verdicts issued, by kind" {
        wd_verdict_hung("verdict" = "hung"),
        wd_verdict_slow("verdict" = "slow"),
        wd_verdict_reply_lost("verdict" = "reply_lost"),
        wd_verdict_corrupt("verdict" = "corrupt_reply"),
    }
    counter "osiris_watchdog_replies_rejected_total":
        "Replies rejected because their payload digest mismatched" { wd_replies_rejected }
    hist "osiris_watchdog_detection_latency_cycles":
        "Virtual cycles from arming a deadline to the hang verdict" { wd_detect_latency }
    counter "osiris_retry_decisions_total":
        "Transparent-retry decisions on failed requests, by result" {
        retry_granted("result" = "granted"),
        retry_denied("result" = "denied"),
    }
    counter "osiris_retry_exhausted_total": "Requests whose transparent retry budget ran out" {
        retry_exhausted
    }
}

impl KernelCounters {
    /// Hands the sampler the families worth watching over time: end-to-end
    /// request latency split by recovery overlap, plus the crash/recovery
    /// activity that explains its excursions. The order is the column order
    /// of `timeseries.json`.
    pub(crate) fn track_sampled(&self, sampler: &mut TimeseriesSampler) {
        macro_rules! track {
            ($method:ident $field:ident) => {
                sampler.$method(kernel_series_name!($field), self.$field)
            };
        }
        track!(track_hist span_latency_none);
        track!(track_hist span_latency_recovery);
        track!(track_counter spans_started);
        track!(track_counter spans_completed_none);
        track!(track_counter spans_completed_recovery);
        track!(track_counter recovery_cycles);
        track!(track_counter hangs);
        track!(track_counter axiom_events);
    }
}
