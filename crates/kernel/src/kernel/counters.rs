//! The kernel's metric series, declared once.
//!
//! Each `series_table!` below is the single place a family's name, kind,
//! help text and label sets are written: the struct of series ids, its
//! `register` and the timeseries sampler's display names are all generated
//! from it. Rows are in registration order, which is exposition order, so
//! reordering them changes every exported byte.
//!
//! The kernel owns its registry and writes a series where the event
//! happens, with a plain indexed add. A series whose value already lives
//! somewhere else (heap residency and write tallies, window coverage, the
//! clone pool, the axiom's size) is never written during a run: its row
//! only reserves the place in the exposition, and `Kernel::view` computes
//! it when something reads: [`Kernel::metrics_snapshot`] for every export,
//! [`Kernel::component_reports`] for [`ComponentReport`]. [`KernelMetrics`]
//! has no computed field and reads the registry as it is.

use std::collections::BTreeSet;

use osiris_metrics::{
    CounterId, GaugeId, HistId, MetricsSnapshot, Registry, TimeseriesSampler, Values,
};
use osiris_trace::HistSummary;

use super::Kernel;
use crate::message::Protocol;
use crate::metrics::{ComponentReport, KernelMetrics};

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
        pub(super) struct $name {
            $($( pub(super) $field: series_table!(@ty $kind), )+)*
        }

        impl $name {
            /// Family names in table order.
            #[cfg(test)]
            const FAMILIES: &'static [&'static str] = &[$($family),*];

            /// Registers every series in table order. A series carries the
            /// table's runtime labels `base` unless its row gives static ones.
            pub(super) fn register(m: &mut Registry, base: &[(&str, &str)]) -> Self {
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
    pub(super) fn track_sampled(&self, sampler: &mut TimeseriesSampler) {
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

impl<P: Protocol> Kernel<P> {
    /// The live registry: the schema, and every series the kernel writes as
    /// events happen. The computed series read zero here; exposition goes
    /// through [`Kernel::metrics_snapshot`].
    pub fn registry(&self) -> &Registry {
        &self.metrics
    }

    /// System-wide metrics, read from the registry. The crash and
    /// quarantine totals are sums over the per-component counters — the
    /// kernel keeps no separate tally.
    pub fn metrics(&self) -> KernelMetrics {
        let (m, c) = (&self.metrics, &self.counters);
        let over_comps = |series: fn(&CompStats) -> CounterId| {
            self.comps.iter().map(|c| m.total(series(&c.stats))).sum()
        };
        KernelMetrics {
            ipc_delivered: m.total(c.ipc_delivered),
            syscalls: m.total(c.syscalls),
            timers_fired: m.total(c.timers_fired),
            crashes: over_comps(|s| s.crashes),
            quarantines: over_comps(|s| s.quarantines),
            hangs: m.total(c.hangs),
            recovered_rollback: m.total(c.recovered_rollback),
            recovered_fresh: m.total(c.recovered_fresh),
            recovered_naive: m.total(c.recovered_naive),
            recovered_quiescent: m.total(c.recovered_quiescent),
            controlled_shutdowns: m.total(c.controlled_shutdowns),
            recovery_cycles: m.total(c.recovery_cycles),
            wd_armed: m.total(c.wd_armed_total),
            wd_expired: m.total(c.wd_expired),
            wd_probes: m.total(c.wd_probes),
            wd_verdicts: m.total(c.wd_verdict_hung)
                + m.total(c.wd_verdict_slow)
                + m.total(c.wd_verdict_reply_lost)
                + m.total(c.wd_verdict_corrupt),
            wd_replies_rejected: m.total(c.wd_replies_rejected),
            retries_granted: m.total(c.retry_granted),
            retries_denied: m.total(c.retry_denied),
            retries_exhausted: m.total(c.retry_exhausted),
        }
    }

    /// The registry's values as a reader sees them: what the kernel
    /// recorded, plus the series whose value lives elsewhere — axiom size,
    /// clone-pool residency, heap residency and write tallies, window
    /// coverage — computed now from their owners. Like every write, these
    /// stay zero in a disabled registry.
    fn view(&self) -> Values {
        let mut v = self.metrics.values().clone();
        let k = &self.counters;
        if self.axiom.enabled() {
            v.set(k.axiom_bytes, self.axiom.bytes_len() as u64);
        }
        v.set(k.cas_chunks, self.cas.chunk_count() as u64);
        v.set(k.cas_bytes, self.cas.resident_bytes() as u64);
        v.add(k.cas_dedup_hits, self.cas.dedup_hits());
        // Attribute each store chunk's resident bytes to the first image
        // (in endpoint order) that references it: per-component deduped
        // cost, summing to the store's resident total.
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        for c in &self.comps {
            let (s, h, w) = (&c.stats, c.heap.stats(), c.window.stats());
            let image = c.pristine_image.as_ref();
            v.set(s.heap_bytes, c.heap.resident_bytes() as u64);
            v.set(s.clone_bytes, image.map_or(0, |i| i.bytes()) as u64);
            let dedup: usize = image.map_or(0, |i| {
                i.chunk_refs()
                    .filter(|d| seen.insert(*d))
                    .map(|d| self.cas.chunk_bytes(d).unwrap_or(0))
                    .sum()
            });
            v.set(s.clone_dedup_bytes, dedup as u64);
            v.set(
                s.undo_window_peak_bytes,
                h.undo_bytes_window_peak.max(h.undo_bytes_peak) as u64,
            );
            v.add(s.writes, h.writes);
            v.add(s.undo_appends, h.undo_appends);
            v.add(s.coalesced_writes, h.coalesced_writes);
            v.add(s.window_opens, w.opens);
            v.add(s.window_rollbacks, w.rollbacks);
        }
        v
    }

    /// A deep copy of every family for exposition, computed series
    /// included.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot_of(&self.view())
    }

    /// End-to-end request-latency digests: spans that never overlapped a
    /// recovery, then spans that crossed a crash capture or recovery.
    pub fn span_latency(&self) -> [HistSummary; 2] {
        let c = &self.counters;
        [c.span_latency_none, c.span_latency_recovery].map(|h| self.metrics.histogram(h).summary())
    }

    /// Per-component reports for the evaluation tables: the registry's
    /// series, computed ones included, plus the window state.
    pub fn component_reports(&self) -> Vec<ComponentReport> {
        let v = self.view();
        self.comps
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let s = &c.stats;
                ComponentReport {
                    name: c.name,
                    endpoint: i as u8,
                    window: *c.window.stats(),
                    cycles: v.total(s.cycles),
                    messages: v.total(s.messages),
                    heap_bytes: v.level(s.heap_bytes) as usize,
                    clone_bytes: v.level(s.clone_bytes) as usize,
                    clone_dedup_bytes: v.level(s.clone_dedup_bytes) as usize,
                    undo_window_peak_bytes: v.level(s.undo_window_peak_bytes) as usize,
                    recovery_latency: v.histogram(s.recovery_hist).summary(),
                    window_cycles: v.histogram(s.window_hist).summary(),
                    undo_window_bytes: v.histogram(s.undo_hist).summary(),
                    writes: v.total(s.writes),
                    undo_appends: v.total(s.undo_appends),
                    coalesced_writes: v.total(s.coalesced_writes),
                    crashes: v.total(s.crashes),
                    recoveries: v.total(s.recoveries),
                }
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
        let prom = osiris_metrics::render_prometheus(&kernel.metrics_snapshot());
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
