//! The kernel's metric series, declared once.
//!
//! Each `series_table!` below is the single place a family's name, kind,
//! help text and label sets are written: the handle struct, its `register`
//! and the timeseries sampler's display names are all generated from it.
//! Rows are in registration order, which is exposition order, so reordering
//! them changes every exported byte. [`KernelMetrics`] and
//! [`ComponentReport`] are views assembled from these handles.
//!
//! Rows of kind `counter`, `gauge` and `hist` are registry handles, written
//! where the event happens (crashes, recoveries, verdicts: rare). Rows of
//! kind `tally` and `dist` are the series written per message or per
//! syscall: plain fields of the kernel, bumped on the delivery path without
//! an atomic or a lock, and published into their registry slots by
//! [`Kernel::publish`] at the points something reads the registry.

use std::collections::BTreeSet;

use osiris_metrics::{Counter, Dist, Gauge, Hist, MetricsHandle, Tally, TimeseriesSampler};

use super::Kernel;
use crate::message::Protocol;
use crate::metrics::{ComponentReport, KernelMetrics};

/// Declares a struct of registry handles from rows of the form
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
        pub(super) struct $name {
            $($( pub(super) $field: series_table!(@ty $kind), )+)*
        }

        impl $name {
            /// Family names in table order.
            #[cfg(test)]
            const FAMILIES: &'static [&'static str] = &[$($family),*];

            /// Registers every series in table order. A series carries the
            /// table's runtime labels `base` unless its row gives static ones.
            pub(super) fn register(m: &MetricsHandle, base: &[(&str, &str)]) -> Self {
                $name {
                    $($( $field: m.$kind(
                        $family,
                        $help,
                        series_table!(@labels base $($($k = $v),+)?),
                    ), )+)*
                }
            }

            /// Writes every `tally` and `dist` row into its registry slot.
            pub(super) fn publish(&self) {
                $($( series_table!(@publish $kind self.$field); )+)*
            }

            /// Takes every `tally` and `dist` row back from its registry
            /// slot, after the registry was reset or restored.
            pub(super) fn reload(&mut self) {
                $($( series_table!(@reload $kind self.$field); )+)*
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
    (@ty counter) => { Counter };
    (@ty gauge) => { Gauge };
    (@ty hist) => { Hist };
    (@ty tally) => { Tally };
    (@ty dist) => { Dist };
    (@publish tally $series:expr) => { $series.publish() };
    (@publish dist $series:expr) => { $series.publish() };
    (@publish $kind:ident $series:expr) => {};
    (@reload tally $series:expr) => { $series.reload() };
    (@reload dist $series:expr) => { $series.reload() };
    (@reload $kind:ident $series:expr) => {};
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
    /// registration. The gauges and `*_total` mirrors of the checkpoint
    /// heap's hot-path tallies are refreshed by [`Kernel::sync_registry`].
    struct CompStats;
    tally "osiris_comp_cycles_total": "Virtual cycles spent running this component's handlers" {
        cycles
    }
    tally "osiris_comp_messages_total": "Messages handled" { messages }
    counter "osiris_comp_crashes_total": "Fail-stop crashes observed in this component" { crashes }
    counter "osiris_comp_recoveries_total": "Times this component was recovered" { recoveries }
    hist "osiris_comp_recovery_latency_cycles": "Virtual cycles charged per recovery" {
        recovery_hist
    }
    dist "osiris_comp_window_cycles": "In-window cycles per completed request" { window_hist }
    dist "osiris_comp_undo_window_bytes": "Undo bytes appended per completed request window" {
        undo_hist
    }
    // Mirrored at sync points (not hot-path writes):
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
    // Escalation-ladder series (written by the kernel on behalf of the
    // Recovery Server's ladder decisions):
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
    tally "osiris_kernel_ipc_delivered_total": "Messages delivered between endpoints" {
        ipc_delivered
    }
    tally "osiris_kernel_syscalls_total": "User syscalls submitted" { syscalls }
    tally "osiris_kernel_timers_fired_total": "Timer events fired" { timers_fired }
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
    // Content-addressed clone-pool series:
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
    // Axiom-log series:
    tally "osiris_axiom_events_total":
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
    tally "osiris_span_started_total": "Causal request spans minted at workload entry points" {
        spans_started
    }
    tally "osiris_span_completed_total": "Causal request spans closed, by recovery overlap" {
        spans_completed_none("overlap" = "none"),
        spans_completed_recovery("overlap" = "recovery"),
    }
    dist "osiris_span_latency_cycles":
        "End-to-end virtual cycles per request span, by recovery overlap" {
        span_latency_none("overlap" = "none"),
        span_latency_recovery("overlap" = "recovery"),
    }
    tally "osiris_span_hops_total": "Span-carrying message deliveries (causal hops)" {
        span_hops
    }
    // Virtual-time watchdog series (fail-silent fault tolerance):
    tally "osiris_watchdog_armed_total": "Watchdog deadlines armed on bounded requests" {
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
    pub(super) fn track_sampled(&self, sampler: &mut TimeseriesSampler) {
        macro_rules! track {
            ($method:ident $field:ident $reader:ident) => {
                sampler.$method(kernel_series_name!($field), self.$field.$reader())
            };
        }
        track!(track_hist span_latency_none reader);
        track!(track_hist span_latency_recovery reader);
        track!(track_counter spans_started reader);
        track!(track_counter spans_completed_none reader);
        track!(track_counter spans_completed_recovery reader);
        track!(track_counter recovery_cycles clone);
        track!(track_counter hangs clone);
        track!(track_counter axiom_events reader);
    }
}

impl<P: Protocol> Kernel<P> {
    /// Writes the kernel's plain per-message series (`tally` and `dist`
    /// rows) into their registry slots. Runs wherever something is about to
    /// read the registry: [`Kernel::sync_registry`], [`Kernel::metrics`],
    /// [`Kernel::metrics_handle`], a due telemetry sample, a snapshot
    /// capture.
    pub(super) fn publish(&self) {
        self.counters.publish();
        for c in &self.comps {
            c.stats.publish();
        }
    }

    /// Takes the plain series back from the registry after it was reset
    /// (boot barrier) or restored (snapshot adoption).
    pub(super) fn reload_published(&mut self) {
        self.counters.reload();
        for c in &mut self.comps {
            c.stats.reload();
        }
    }

    /// System-wide metrics, assembled as a view over the registry. The
    /// crash total is derived from the per-component crash counters — the
    /// kernel keeps no separate tally.
    pub fn metrics(&self) -> KernelMetrics {
        self.publish();
        let c = &self.counters;
        KernelMetrics {
            ipc_delivered: c.ipc_delivered.published(),
            syscalls: c.syscalls.published(),
            timers_fired: c.timers_fired.published(),
            crashes: self.comps.iter().map(|c| c.stats.crashes.get()).sum(),
            quarantines: self.comps.iter().map(|c| c.stats.quarantines.get()).sum(),
            hangs: c.hangs.get(),
            recovered_rollback: c.recovered_rollback.get(),
            recovered_fresh: c.recovered_fresh.get(),
            recovered_naive: c.recovered_naive.get(),
            recovered_quiescent: c.recovered_quiescent.get(),
            controlled_shutdowns: c.controlled_shutdowns.get(),
            recovery_cycles: c.recovery_cycles.get(),
            wd_armed: c.wd_armed_total.published(),
            wd_expired: c.wd_expired.get(),
            wd_probes: c.wd_probes.get(),
            wd_verdicts: c.wd_verdict_hung.get()
                + c.wd_verdict_slow.get()
                + c.wd_verdict_reply_lost.get()
                + c.wd_verdict_corrupt.get(),
            wd_replies_rejected: c.wd_replies_rejected.get(),
            retries_granted: c.retry_granted.get(),
            retries_denied: c.retry_denied.get(),
            retries_exhausted: c.retry_exhausted.get(),
        }
    }

    /// Refreshes the registry series that mirror state kept elsewhere as
    /// plain fields: the kernel's own per-message series, heap residency
    /// and checkpoint tallies, and window coverage counters. Call before
    /// exporting; [`Kernel::component_reports`] does it automatically.
    pub fn sync_registry(&self) {
        self.publish();
        self.counters.axiom_bytes.set(if self.axiom.enabled() {
            self.axiom.bytes_len() as u64
        } else {
            0
        });
        self.counters.cas_chunks.set(self.cas.chunk_count() as u64);
        self.counters
            .cas_bytes
            .set(self.cas.resident_bytes() as u64);
        self.counters
            .cas_dedup_hits
            .set_total(self.cas.dedup_hits());
        // Attribute each store chunk's resident bytes to the first image
        // (in endpoint order) that references it: per-component deduped
        // cost, summing to the store's resident total.
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        for c in &self.comps {
            let h = c.heap.stats();
            c.stats.heap_bytes.set(c.heap.resident_bytes() as u64);
            c.stats
                .clone_bytes
                .set(c.pristine_image.as_ref().map(|i| i.bytes()).unwrap_or(0) as u64);
            let dedup: usize = c
                .pristine_image
                .as_ref()
                .map(|i| {
                    i.chunk_refs()
                        .filter(|d| seen.insert(*d))
                        .map(|d| self.cas.chunk_bytes(d).unwrap_or(0))
                        .sum()
                })
                .unwrap_or(0);
            c.stats.clone_dedup_bytes.set(dedup as u64);
            c.stats
                .undo_window_peak_bytes
                .set(h.undo_bytes_window_peak.max(h.undo_bytes_peak) as u64);
            c.stats.writes.set_total(h.writes);
            c.stats.undo_appends.set_total(h.undo_appends);
            c.stats.coalesced_writes.set_total(h.coalesced_writes);
            let w = c.window.stats();
            c.stats.window_opens.set_total(w.opens);
            c.stats.window_rollbacks.set_total(w.rollbacks);
        }
    }

    /// Per-component reports for the evaluation tables: views assembled
    /// from the metrics registry (live counters and histograms) plus the
    /// window and heap state the registry mirrors.
    pub fn component_reports(&self) -> Vec<ComponentReport> {
        self.sync_registry();
        self.comps
            .iter()
            .enumerate()
            .map(|(i, c)| ComponentReport {
                name: c.name,
                endpoint: i as u8,
                window: *c.window.stats(),
                cycles: c.stats.cycles.published(),
                messages: c.stats.messages.published(),
                heap_bytes: c.stats.heap_bytes.get() as usize,
                clone_bytes: c.stats.clone_bytes.get() as usize,
                clone_dedup_bytes: c.stats.clone_dedup_bytes.get() as usize,
                undo_window_peak_bytes: c.stats.undo_window_peak_bytes.get() as usize,
                recovery_latency: c.stats.recovery_hist.summary(),
                window_cycles: c.stats.window_hist.published_summary(),
                undo_window_bytes: c.stats.undo_hist.published_summary(),
                writes: c.stats.writes.get(),
                undo_appends: c.stats.undo_appends.get(),
                coalesced_writes: c.stats.coalesced_writes.get(),
                crashes: c.stats.crashes.get(),
                recoveries: c.stats.recoveries.get(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Ctx, Server};
    use crate::message::tests::P;
    use crate::message::Message;

    #[derive(Clone)]
    struct Idle;
    impl Server<P> for Idle {
        fn name(&self) -> &'static str {
            "idle"
        }
        fn init(&mut self, _ctx: &mut Ctx<'_, P>) {}
        fn handle(&mut self, _msg: &Message<P>, _ctx: &mut Ctx<'_, P>) {}
        fn clone_box(&self) -> Box<dyn Server<P>> {
            Box::new(self.clone())
        }
    }

    /// The tables own the family names: a fresh kernel's exposition lists
    /// every one of them, kernel-wide families first, in table order.
    #[test]
    fn fresh_kernel_exposes_every_table_family_in_table_order() {
        let mut kernel: Kernel<P> = Kernel::new(Default::default());
        kernel.register(Box::new(Idle), false);
        kernel.init_components();
        kernel.sync_registry();
        let prom = kernel.metrics_handle().prometheus();
        osiris_metrics::validate_prometheus(&prom).expect("exposition must lint");
        let mut from = 0;
        for family in KernelCounters::FAMILIES.iter().chain(CompStats::FAMILIES) {
            let at = prom[from..]
                .find(&format!("# HELP {family} "))
                .unwrap_or_else(|| panic!("{family} missing or out of table order"));
            from += at + 1;
        }
    }
}
