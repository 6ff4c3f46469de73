//! The kernel's metrics as a fold of what it emits.
//!
//! The kernel reports each occurrence once, through one of three doors,
//! and never names a series: a flight-recorder event it emits
//! ([`SeriesFold::trace`], whether or not the recorder is on), a
//! control-plane event it seals ([`SeriesFold::sealed`]), or, for the few
//! occurrences neither vocabulary carries, a [`Note`]. [`SeriesFold`] turns
//! that stream into the registry's series ([`crate::series`]) the way
//! `ControlState` folds the axiom, and samples them for the timeseries.
//!
//! A series whose value already lives with an owner (heap residency and
//! write tallies, window coverage, the clone pool, the axiom's size) is not
//! folded: its row reserves the place in the exposition, and the views
//! ([`SeriesFold::snapshot`], [`SeriesFold::component_reports`]) fill it in
//! from the [`Owners`] numbers the kernel reads out when something reads.
//! They are plain numbers, so this crate depends on no owner's crate.

use osiris_trace::{ActionCode, AxiomEvent, HistSummary, TraceEvent, VerdictCode};

use crate::series::{CompStats, KernelCounters};
use crate::{
    CounterId, MetricsConfig, MetricsSnapshot, Registry, TimeseriesConfig, TimeseriesSampler,
    TimeseriesState, Values,
};

/// How a recovery brought a component back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Restart {
    /// Rollback of the open window, then a fresh server object.
    Rollback,
    /// Restore from the pristine clone image.
    Fresh,
    /// Keep the crash-time state (naive recovery).
    Naive,
    /// Keep the committed state of a component the watchdog declared dead
    /// between requests.
    Quiescent,
}

/// An occurrence neither a trace event nor an axiom event carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Note {
    /// A timer fired.
    TimerFired,
    /// Component `comp` ran a delivery for `cycles` (delivery, handler and
    /// its memory writes).
    Handled {
        /// Handling component.
        comp: u8,
        /// Cycles charged.
        cycles: u64,
    },
    /// Component `comp`'s request window completed after `cycles` inside
    /// it, having appended `undo_bytes` to the journal.
    WindowCompleted {
        /// Component whose window closed.
        comp: u8,
        /// In-window cycles of the request.
        cycles: u64,
        /// Undo bytes the window appended.
        undo_bytes: u64,
    },
    /// A recovery restarted component `comp`.
    Restarted {
        /// Restarted component.
        comp: u8,
        /// What the restart kept.
        how: Restart,
    },
    /// A request to quarantined component `comp` was bounced.
    Refused {
        /// Benched component.
        comp: u8,
    },
    /// An integrity check before a recovery phase: of the clone `image`,
    /// else of the undo journal.
    Checked {
        /// The image, not the journal.
        image: bool,
        /// Whether it passed.
        ok: bool,
    },
    /// A controlled shutdown was performed.
    ControlledShutdown,
    /// An intent of the interrupted conduct was replayed: `redriven`
    /// through the restarted RS, else completed by the kernel.
    IntentReplay {
        /// Re-driven, not completed directly.
        redriven: bool,
    },
    /// The watchdog's hang verdict came `cycles` after the deadline was
    /// armed.
    HangVerdict {
        /// Detection latency.
        cycles: u64,
    },
    /// The axiom's digest chain was verified.
    AxiomVerified {
        /// Whether it held.
        ok: bool,
    },
    /// A replay diverged from its recorded axiom.
    ReplayDiverged,
}

/// What one component's heap, pristine clone image and recovery window
/// hold when something reads. `W` is the window's statistics, which pass
/// into the [`ComponentReport`] as they are.
#[derive(Clone, Copy, Debug, Default)]
pub struct Owned<W> {
    /// Resident heap bytes.
    pub heap_bytes: usize,
    /// Bytes of the pristine clone image (0 without one).
    pub clone_bytes: usize,
    /// Store bytes charged to that image: each chunk to the first image,
    /// in endpoint order, that references it.
    pub clone_dedup_bytes: usize,
    /// The undo log's raw high-water mark.
    pub undo_bytes_peak: usize,
    /// The largest undo log sampled at a window close.
    pub undo_bytes_window_peak: usize,
    /// Heap writes, logged or not.
    pub writes: u64,
    /// Writes that appended an undo record.
    pub undo_appends: u64,
    /// Logged writes the journal coalesced.
    pub coalesced_writes: u64,
    /// Windows opened.
    pub window_opens: u64,
    /// Windows rolled back.
    pub window_rollbacks: u64,
    /// The window's statistics.
    pub window: W,
}

/// What the computed series read from their owners, as the kernel reads it
/// out.
#[derive(Clone, Debug, Default)]
pub struct Owners<W> {
    /// Each component's numbers, in endpoint order.
    pub comps: Vec<Owned<W>>,
    /// Chunks resident in the clone pool's store.
    pub cas_chunks: usize,
    /// The store's deduplicated resident bytes.
    pub cas_bytes: usize,
    /// Insertions the store deduplicated.
    pub cas_dedup_hits: u64,
    /// The axiom's serialized size, when it records.
    pub axiom_bytes: Option<usize>,
}

#[derive(Clone, Copy)]
struct Comp {
    name: &'static str,
    s: CompStats,
}

/// The fold: the registry, the series it writes, and the sampler.
pub struct SeriesFold {
    m: Registry,
    k: KernelCounters,
    comps: Vec<Comp>,
    sampler: TimeseriesSampler,
    /// A recovery decision was sealed and its completion not yet: a
    /// fallback inside that span is a phase's, one after it the
    /// reconciliation's.
    in_phase: bool,
}

impl std::fmt::Debug for SeriesFold {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeriesFold")
            .field("registry", &self.m)
            .field("components", &self.comps.len())
            .finish_non_exhaustive()
    }
}

/// A fold's state for the fork path: the values, the sampled points and
/// the phase flag. Taken with [`SeriesFold::export_state`], written back
/// with [`SeriesFold::restore_state`].
#[derive(Clone, Debug)]
pub struct SeriesState {
    values: Values,
    timeseries: TimeseriesState,
    in_phase: bool,
}

impl SeriesFold {
    /// A fold with the kernel-wide series registered and, when sampling is
    /// on, tracked.
    pub fn new(metrics: MetricsConfig, timeseries: TimeseriesConfig) -> SeriesFold {
        let mut m = Registry::new(metrics);
        let k = KernelCounters::register(&mut m, &[]);
        let mut sampler = TimeseriesSampler::new(timeseries);
        if timeseries.enabled {
            k.track_sampled(&mut sampler);
        }
        SeriesFold {
            m,
            k,
            comps: Vec::new(),
            sampler,
            in_phase: false,
        }
    }

    /// Registers the next endpoint's series, labelled with `name` and its
    /// index.
    pub fn add_component(&mut self, name: &'static str) {
        let ep = self.comps.len().to_string();
        let s = CompStats::register(&mut self.m, &[("component", name), ("endpoint", &ep)]);
        self.comps.push(Comp { name, s });
    }

    /// Whether the registry records.
    pub fn enabled(&self) -> bool {
        self.m.enabled()
    }

    /// Folds a flight-recorder event the kernel emitted on `lane`.
    #[inline]
    pub fn trace(&mut self, lane: u8, event: &TraceEvent) {
        if !self.m.enabled() {
            return;
        }
        let (m, k) = (&mut self.m, &self.k);
        match *event {
            TraceEvent::IpcDeliver { .. } => {
                m.inc(k.ipc_delivered);
                m.inc(self.comps[lane as usize].s.messages);
            }
            TraceEvent::SyscallEnter { .. } => m.inc(k.syscalls),
            TraceEvent::SpanOpen { .. } => m.inc(k.spans_started),
            TraceEvent::SpanHop { .. } => m.inc(k.span_hops),
            TraceEvent::SpanClose {
                crossed_recovery,
                latency,
                ..
            } => {
                let (completed, hist) = if crossed_recovery {
                    (k.spans_completed_recovery, k.span_latency_recovery)
                } else {
                    (k.spans_completed_none, k.span_latency_none)
                };
                m.inc(completed);
                m.observe(hist, latency);
            }
            TraceEvent::CowRestore { clean, dirty, .. } => {
                m.add(k.restart_chunks_clean, clean.into());
                m.add(k.restart_chunks_dirty, dirty.into());
            }
            TraceEvent::DeadlineArmed { .. } => m.inc(k.wd_armed_total),
            TraceEvent::WatchdogProbe { .. } => m.inc(k.wd_probes),
            TraceEvent::RetryExhausted { .. } => m.inc(k.retry_exhausted),
            _ => {}
        }
    }

    /// Folds a control-plane event the kernel sealed.
    #[inline]
    pub fn sealed(&mut self, event: &AxiomEvent) {
        if !self.m.enabled() {
            return;
        }
        let (m, k) = (&mut self.m, &self.k);
        let comp = |c: u8| self.comps[c as usize].s;
        m.inc(k.axiom_events);
        match *event {
            AxiomEvent::Crash { comp: c } => m.inc(comp(c).crashes),
            AxiomEvent::HangDetected { .. } => m.inc(k.hangs),
            AxiomEvent::Quarantined { comp: c } => m.inc(comp(c).quarantines),
            AxiomEvent::EscalationStep {
                comp: c,
                restarts_in_window,
                backoff,
                exhausted,
            } => {
                let s = comp(c);
                m.set(s.escalation_restarts_window, restarts_in_window.into());
                if backoff > 0 {
                    m.inc(s.escalation_backoff_arms);
                }
                if exhausted {
                    m.inc(s.escalation_budget_exhausted);
                }
            }
            AxiomEvent::PoolRefresh { refreshed, .. } => {
                m.inc(pick(refreshed, k.pool_refreshed, k.pool_refresh_skipped))
            }
            AxiomEvent::DeadlineExpired { .. } => m.inc(k.wd_expired),
            AxiomEvent::WatchdogVerdict { verdict, .. } => {
                if verdict == VerdictCode::CorruptReply {
                    m.inc(k.wd_replies_rejected);
                }
                m.inc(match verdict {
                    VerdictCode::Hung => k.wd_verdict_hung,
                    VerdictCode::Slow => k.wd_verdict_slow,
                    VerdictCode::ReplyLost => k.wd_verdict_reply_lost,
                    VerdictCode::CorruptReply => k.wd_verdict_corrupt,
                })
            }
            AxiomEvent::RetryDecision { granted, .. } => {
                m.inc(pick(granted, k.retry_granted, k.retry_denied))
            }
            AxiomEvent::RecoveryDecision { .. } => self.in_phase = true,
            AxiomEvent::RecoveryFallback { from, .. } => m.inc(match from {
                _ if !self.in_phase => k.fb_reconcile_shutdown,
                ActionCode::UncontrolledCrash => k.fb_crash_fresh,
                ActionCode::RollbackErrorReply | ActionCode::RollbackKillRequester => {
                    k.fb_rollback_fresh
                }
                _ => k.fb_fresh_shutdown,
            }),
            AxiomEvent::RecoveryDone { comp: c, cycles } => {
                self.in_phase = false;
                m.add(k.recovery_cycles, cycles);
                m.observe(comp(c).recovery_hist, cycles);
            }
            _ => {}
        }
    }

    /// Folds an occurrence only a [`Note`] carries.
    #[inline]
    pub fn note(&mut self, note: Note) {
        if !self.m.enabled() {
            return;
        }
        let (m, k) = (&mut self.m, &self.k);
        let comp = |c: u8| self.comps[c as usize].s;
        match note {
            Note::TimerFired => m.inc(k.timers_fired),
            Note::Handled { comp: c, cycles } => m.add(comp(c).cycles, cycles),
            Note::WindowCompleted {
                comp: c,
                cycles,
                undo_bytes,
            } => {
                m.observe(comp(c).window_hist, cycles);
                m.observe(comp(c).undo_hist, undo_bytes);
            }
            Note::Restarted { comp: c, how } => {
                m.inc(comp(c).recoveries);
                m.inc(match how {
                    Restart::Rollback => k.recovered_rollback,
                    Restart::Fresh => k.recovered_fresh,
                    Restart::Naive => k.recovered_naive,
                    Restart::Quiescent => k.recovered_quiescent,
                });
            }
            Note::Refused { comp: c } => m.inc(comp(c).quarantine_refusals),
            Note::Checked { image, ok } => m.inc(match (image, ok) {
                (false, true) => k.journal_ok,
                (false, false) => k.journal_corrupt,
                (true, true) => k.image_ok,
                (true, false) => k.image_corrupt,
            }),
            Note::ControlledShutdown => m.inc(k.controlled_shutdowns),
            Note::IntentReplay { redriven } => {
                m.inc(pick(redriven, k.intent_replays, k.intent_completed))
            }
            Note::HangVerdict { cycles } => m.observe(k.wd_detect_latency, cycles),
            Note::AxiomVerified { ok } => m.inc(pick(ok, k.axiom_chain_ok, k.axiom_chain_corrupt)),
            Note::ReplayDiverged => m.inc(k.axiom_replay_divergence),
        }
    }

    /// Samples the tracked series if virtual time crossed the next grid
    /// point (one branch when sampling is off).
    #[inline]
    pub fn tick(&mut self, now: u64) {
        self.sampler.maybe_sample(now, &self.m);
    }

    /// Samples the tracked series at `now` unconditionally: the run-end
    /// point.
    pub fn flush(&mut self, now: u64) {
        self.sampler.sample(now, &self.m);
    }

    /// The boot barrier: zeroes every series and re-arms the sampler at
    /// `now`, so measurements start clean.
    pub fn reset(&mut self, now: u64) {
        self.m.reset();
        self.sampler.reset(now);
    }

    /// The live registry: the schema, and every folded series. The
    /// computed series read zero here; exposition goes through
    /// [`SeriesFold::snapshot`].
    pub fn registry(&self) -> &Registry {
        &self.m
    }

    /// The virtual-time sampler.
    pub fn sampler(&self) -> &TimeseriesSampler {
        &self.sampler
    }

    /// Fork support: the values, the sampled points and the phase flag.
    pub fn export_state(&self) -> SeriesState {
        SeriesState {
            values: self.m.values().clone(),
            timeseries: self.sampler.export_state(),
            in_phase: self.in_phase,
        }
    }

    /// Fork support: overwrites this fold's state with a same-schema
    /// donor's.
    pub fn restore_state(&mut self, state: &SeriesState) {
        self.m.restore(&state.values);
        self.sampler.restore_state(&state.timeseries);
        self.in_phase = state.in_phase;
    }

    /// System-wide metrics, read from the registry. The crash and
    /// quarantine totals are sums over the per-component counters.
    pub fn metrics(&self) -> KernelMetrics {
        let (m, c) = (&self.m, &self.k);
        let over_comps = |series: fn(&CompStats) -> CounterId| {
            self.comps.iter().map(|c| m.total(series(&c.s))).sum()
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

    /// End-to-end request-latency digests: spans that never overlapped a
    /// recovery, then spans that crossed a crash capture or recovery.
    pub fn span_latency(&self) -> [HistSummary; 2] {
        let k = &self.k;
        [k.span_latency_none, k.span_latency_recovery].map(|h| self.m.histogram(h).summary())
    }

    /// The values as a reader sees them: the folded series, plus those
    /// whose value lives with `owners`. Like every write, these stay zero in
    /// a disabled registry.
    fn view<W>(&self, owners: &Owners<W>) -> Values {
        let mut v = self.m.values().clone();
        let k = &self.k;
        if let Some(bytes) = owners.axiom_bytes {
            v.set(k.axiom_bytes, bytes as u64);
        }
        v.set(k.cas_chunks, owners.cas_chunks as u64);
        v.set(k.cas_bytes, owners.cas_bytes as u64);
        v.add(k.cas_dedup_hits, owners.cas_dedup_hits);
        for (c, o) in self.comps.iter().zip(&owners.comps) {
            let s = &c.s;
            v.set(s.heap_bytes, o.heap_bytes as u64);
            v.set(s.clone_bytes, o.clone_bytes as u64);
            v.set(s.clone_dedup_bytes, o.clone_dedup_bytes as u64);
            let peak = o.undo_bytes_window_peak.max(o.undo_bytes_peak);
            v.set(s.undo_window_peak_bytes, peak as u64);
            v.add(s.writes, o.writes);
            v.add(s.undo_appends, o.undo_appends);
            v.add(s.coalesced_writes, o.coalesced_writes);
            v.add(s.window_opens, o.window_opens);
            v.add(s.window_rollbacks, o.window_rollbacks);
        }
        v
    }

    /// A deep copy of every family for exposition, computed series
    /// included.
    pub fn snapshot<W>(&self, owners: &Owners<W>) -> MetricsSnapshot {
        self.m.snapshot_of(&self.view(owners))
    }

    /// Per-component reports for the evaluation tables: the registry's
    /// series, computed ones included, plus the window state.
    pub fn component_reports<W: Copy>(&self, owners: &Owners<W>) -> Vec<ComponentReport<W>> {
        let v = self.view(owners);
        (0..)
            .zip(self.comps.iter().zip(&owners.comps))
            .map(|(endpoint, (c, o))| {
                let s = &c.s;
                ComponentReport {
                    name: c.name,
                    endpoint,
                    window: o.window,
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

/// `yes` if `cond`, else `no`.
fn pick(cond: bool, yes: CounterId, no: CounterId) -> CounterId {
    if cond {
        yes
    } else {
        no
    }
}

/// Per-component report: the raw material for Tables I and VI. `W` is the
/// recovery window's statistics type.
#[derive(Clone, Debug)]
pub struct ComponentReport<W> {
    /// Component name.
    pub name: &'static str,
    /// Endpoint index.
    pub endpoint: u8,
    /// Recovery-window statistics (coverage counters).
    pub window: W,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn fold(metrics: MetricsConfig) -> SeriesFold {
        let mut f = SeriesFold::new(metrics, TimeseriesConfig::default());
        f.add_component("pm");
        f.add_component("vm");
        f
    }

    /// The tables own the family names: a fresh fold's exposition lists
    /// every one of them, kernel-wide families first, in table order.
    #[test]
    fn fresh_fold_exposes_every_table_family_in_table_order() {
        let f = fold(MetricsConfig::on());
        let owners = Owners {
            comps: vec![Owned::<()>::default(); 2],
            ..Owners::default()
        };
        let prom = crate::render_prometheus(&f.snapshot(&owners));
        crate::validate_prometheus(&prom).expect("exposition must lint");
        let mut from = 0;
        for family in KernelCounters::FAMILIES.iter().chain(CompStats::FAMILIES) {
            let at = prom[from..]
                .find(&format!("# HELP {family} "))
                .unwrap_or_else(|| panic!("{family} missing or out of table order"));
            from += at + 1;
        }
        assert_eq!(f.component_reports(&owners)[1].name, "vm");
    }

    /// A fallback between a recovery's decision and its completion is a
    /// phase's, classified by the action that failed; one after the
    /// completion is the reconciliation's, whatever action preceded it.
    #[test]
    fn a_fallback_after_the_recovery_is_the_reconciliations() {
        let mut f = fold(MetricsConfig::on());
        let (from, to) = (ActionCode::FreshRestart, ActionCode::ControlledShutdown);
        let fallback = AxiomEvent::RecoveryFallback { comp: 1, from, to };
        f.sealed(&AxiomEvent::RecoveryDecision {
            comp: 1,
            action: from,
        });
        f.sealed(&fallback);
        f.sealed(&AxiomEvent::RecoveryDone {
            comp: 1,
            cycles: 40,
        });
        f.sealed(&fallback);
        let (m, k) = (f.registry(), f.k);
        assert_eq!(m.total(k.fb_fresh_shutdown), 1);
        assert_eq!(m.total(k.fb_reconcile_shutdown), 1);
        assert_eq!(m.total(k.axiom_events), 4);
        assert_eq!(f.metrics().recovery_cycles, 40);
        // The flag travels with a fork.
        let mut fork = fold(MetricsConfig::on());
        f.sealed(&AxiomEvent::RecoveryDecision {
            comp: 0,
            action: from,
        });
        fork.restore_state(&f.export_state());
        fork.sealed(&fallback);
        assert_eq!(fork.registry().total(k.fb_fresh_shutdown), 2);
    }

    /// One occurrence, one series: a delivery counts the message for the
    /// lane it was emitted on, a span close picks its histogram by overlap.
    #[test]
    fn trace_events_fold_into_their_series() {
        let mut f = fold(MetricsConfig::on());
        f.trace(1, &TraceEvent::IpcDeliver { src: 0, msg_id: 7 });
        for crossed_recovery in [false, true, true] {
            let close = TraceEvent::SpanClose {
                span: 1,
                ok: true,
                crossed_recovery,
                latency: 100,
            };
            f.trace(osiris_trace::KERNEL_COMP, &close);
        }
        f.trace(0, &TraceEvent::WindowOpen);
        assert_eq!(f.metrics().ipc_delivered, 1);
        assert_eq!(f.registry().total(f.comps[1].s.messages), 1);
        assert_eq!(f.registry().total(f.comps[0].s.messages), 0);
        let [none, recovery] = f.span_latency();
        assert_eq!((none.count, recovery.count), (1, 2));
    }

    #[test]
    fn a_disabled_fold_records_nothing() {
        let mut f = fold(MetricsConfig::off());
        f.trace(0, &TraceEvent::IpcDeliver { src: 1, msg_id: 1 });
        f.sealed(&AxiomEvent::Crash { comp: 0 });
        f.note(Note::TimerFired);
        let m = f.metrics();
        assert_eq!((m.ipc_delivered, m.crashes, m.timers_fired), (0, 0, 0));
    }
}
