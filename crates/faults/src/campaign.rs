//! Fault-injection campaigns as values.
//!
//! A [`Campaign`] is the [`InjectionRecord`]s of its injected runs in plan
//! order — as [`crate::run_parallel`] returns them — plus the registry the
//! campaign runner appends. Everything else is derived from those records
//! when asked, so it is the same on every thread count:
//!
//! * the policy × component outcome matrix, Table II/III-style
//!   ([`render_matrix`]);
//! * the registry: `osiris_campaign_outcomes_total{policy,component,model,
//!   outcome}` plus run-length and recovery-latency histograms, then the
//!   runner's families, so campaign results ride the same Prometheus/JSON
//!   exporters as the kernel counters;
//! * the campaign axiom, one hash-chained `Injection` record per run;
//! * the `campaign_report.json` document with the matrix and the full
//!   per-injection record list.
//!
//! An uncontrolled crash's record carries its flight-recorder tail (the
//! black box); the runner decides what to print.

use std::collections::{BTreeMap, HashMap};

use osiris_axiom::{AxiomConfig, AxiomEvent, AxiomLog, AxiomRecord, OutcomeCode};
use osiris_core::PolicyKind;
use osiris_kernel::RunOutcome;
use osiris_metrics::Registry;
use osiris_servers::Os;
use osiris_trace::{HistSummary, JsonDoc, JsonWriter, Sink, WriteJson};

use crate::{classify_run, FaultKind, FaultModel, FaultPlan, Outcome, SiteId, Tally};

/// Maps a campaign [`Outcome`] onto the axiom's compact outcome vocabulary
/// (`Quarantined` collapses into `Degraded` — both are "survived benched").
pub fn outcome_code(outcome: Outcome) -> OutcomeCode {
    match outcome {
        Outcome::Pass => OutcomeCode::Recovered,
        Outcome::Fail => OutcomeCode::Failed,
        Outcome::Degraded | Outcome::Quarantined => OutcomeCode::Degraded,
        Outcome::Shutdown => OutcomeCode::ControlledShutdown,
        Outcome::Crash => OutcomeCode::UncontrolledCrash,
    }
}

/// Digest identifying an injection *site* (component, site path, fault
/// kind) — deliberately excluding the policy, so the axioms of two
/// campaigns that differ only in policy align run-for-run and
/// `osiris_axiom::bisect` lands on the first run whose *outcome* diverged.
pub fn site_digest(site: &SiteId, kind: FaultKind) -> u64 {
    let d = osiris_axiom::fnv1a_str(&site.component);
    let d = osiris_axiom::fnv1a(d, site.site.as_bytes());
    osiris_axiom::fnv1a(d, kind_label(kind).as_bytes())
}

/// Short label for a fault model, used in metrics labels and reports.
pub fn model_label(model: FaultModel) -> &'static str {
    match model {
        FaultModel::FailStop => "fail-stop",
        FaultModel::TransientFailStop => "transient-fail-stop",
        FaultModel::FullEdfi => "full-edfi",
        FaultModel::FailSilent => "fail-silent",
        FaultModel::DuringRecovery => "during-recovery",
        FaultModel::DoubleFault => "double-fault",
    }
}

/// Short label for a fault kind, used in metrics labels and reports.
pub fn kind_label(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Crash => "crash",
        FaultKind::Hang => "hang",
        FaultKind::BranchFlip => "branch-flip",
        FaultKind::ValueCorrupt(_) => "value-corrupt",
        FaultKind::Stall(_) => "stall",
        FaultKind::ReplyDrop => "reply-drop",
        FaultKind::ReplyCorrupt => "reply-corrupt",
    }
}

/// The recovery action a run's kernel metrics say dominated it: what the
/// system actually *did* about the injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryActionTag {
    /// Rollback + error virtualization.
    Rollback,
    /// Fresh (stateless) restart.
    Fresh,
    /// Restart keeping crash-time state (naive).
    Naive,
    /// Keep-state restart of a quiescent component the watchdog declared
    /// dead (committed transaction, lost or tampered reply).
    Quiescent,
    /// Controlled shutdown.
    Shutdown,
    /// No recovery machinery engaged (fault never fired, or fail-silent).
    None,
}

impl RecoveryActionTag {
    /// Derives the tag from a run's recovery counters, in the priority
    /// order rollback > fresh > quiescent > naive > shutdown.
    pub fn from_counts(
        rollback: u64,
        fresh: u64,
        quiescent: u64,
        naive: u64,
        shutdowns: u64,
    ) -> Self {
        if rollback > 0 {
            RecoveryActionTag::Rollback
        } else if fresh > 0 {
            RecoveryActionTag::Fresh
        } else if quiescent > 0 {
            RecoveryActionTag::Quiescent
        } else if naive > 0 {
            RecoveryActionTag::Naive
        } else if shutdowns > 0 {
            RecoveryActionTag::Shutdown
        } else {
            RecoveryActionTag::None
        }
    }

    /// Short label for metrics and reports.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryActionTag::Rollback => "rollback",
            RecoveryActionTag::Fresh => "fresh",
            RecoveryActionTag::Naive => "naive",
            RecoveryActionTag::Quiescent => "quiescent",
            RecoveryActionTag::Shutdown => "shutdown",
            RecoveryActionTag::None => "none",
        }
    }
}

/// MTTR decomposition of a run's recoveries, joined from its axiom
/// control-plane records: how the recovery time splits into the *detect*
/// leg (crash/hang capture → RS decision, covering notification and policy
/// evaluation) and the *execute* leg (the charged rollback/restore/replay
/// work), plus the re-drive and fallback churn along the way.
///
/// Derived offline by [`critical_path`] — a pure fold over
/// [`AxiomRecord`]s, so any retained axiom (live kernel, serialized file,
/// replayed log) yields the same breakdown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Completed recoveries (`RecoveryDone` events).
    pub recoveries: u64,
    /// Σ cycles from crash/hang capture to the RS's `RecoveryDecision`.
    pub detect_cycles: u64,
    /// Σ cycles charged to recovery execution (`RecoveryDone.cycles`:
    /// rollback/restore, state replay, reconnection).
    pub execute_cycles: u64,
    /// Σ end-to-end cycles, capture → `RecoveryDone`.
    pub total_cycles: u64,
    /// Interrupted recovery intents re-driven through a restarted RS.
    pub intent_replays: u64,
    /// Recovery phases degraded along the fallback chain.
    pub fallbacks: u64,
}

/// Folds an axiom record stream into its recovery [`CriticalPath`].
///
/// Captures (`Crash` / `HangDetected`) open a pending recovery per
/// component; the matching `RecoveryDecision` closes the detect leg and
/// the matching `RecoveryDone` closes the whole path. Unmatched captures
/// (run ended mid-recovery, controlled shutdown) contribute nothing —
/// the decomposition only accounts for recoveries that completed.
pub fn critical_path(records: &[AxiomRecord]) -> CriticalPath {
    let mut cp = CriticalPath::default();
    // Pending per-component timestamps, indexed by component id.
    let mut captured: BTreeMap<u8, u64> = BTreeMap::new();
    let mut decided: BTreeMap<u8, u64> = BTreeMap::new();
    for r in records {
        match r.event {
            AxiomEvent::Crash { comp } | AxiomEvent::HangDetected { comp } => {
                // A second capture before the decision (e.g. a crash of an
                // already-hung component) keeps the earliest timestamp:
                // the path starts when the system first lost the service.
                captured.entry(comp).or_insert(r.now);
            }
            AxiomEvent::RecoveryDecision { comp, .. } => {
                if let Some(t0) = captured.get(&comp) {
                    cp.detect_cycles += r.now.saturating_sub(*t0);
                }
                decided.insert(comp, r.now);
            }
            AxiomEvent::RecoveryDone { comp, cycles } => {
                cp.recoveries += 1;
                cp.execute_cycles += cycles;
                if let Some(t0) = captured.remove(&comp) {
                    cp.total_cycles += r.now.saturating_sub(t0);
                }
                decided.remove(&comp);
            }
            AxiomEvent::IntentReplayed { .. } => cp.intent_replays += 1,
            AxiomEvent::RecoveryFallback { .. } => cp.fallbacks += 1,
            _ => {}
        }
    }
    cp
}

/// The breakdown as an ordered JSON object (embedded per injection in
/// `campaign_report.json`).
impl WriteJson for CriticalPath {
    fn write_json<S: Sink>(&self, w: &mut JsonWriter<S>) {
        w.begin_object();
        w.key("recoveries").u64(self.recoveries);
        w.key("detect_cycles").u64(self.detect_cycles);
        w.key("execute_cycles").u64(self.execute_cycles);
        w.key("total_cycles").u64(self.total_cycles);
        w.key("intent_replays").u64(self.intent_replays);
        w.key("fallbacks").u64(self.fallbacks);
        w.end_object();
    }
}

/// Everything the campaign keeps about one injected run.
#[derive(Clone, Debug)]
pub struct InjectionRecord {
    /// Where the fault was injected.
    pub site: SiteId,
    /// The fault injected.
    pub kind: FaultKind,
    /// Recovery policy the run executed under.
    pub policy: String,
    /// Classified outcome.
    pub outcome: Outcome,
    /// Dominant recovery action taken by the run.
    pub action: RecoveryActionTag,
    /// Virtual cycles the run took end to end.
    pub run_cycles: u64,
    /// Recoveries executed during the run.
    pub recoveries: u64,
    /// Virtual cycles spent in recovery phases.
    pub recovery_cycles: u64,
    /// MTTR decomposition of the run's recoveries, joined from its axiom
    /// (all-zero when the run retained no axiom or never recovered).
    pub critical_path: CriticalPath,
    /// End-to-end request-latency digest for spans that never overlapped a
    /// recovery (`osiris_span_latency_cycles{overlap="none"}`).
    pub span_latency_clean: HistSummary,
    /// Latency digest for spans that crossed a crash capture or recovery
    /// (`osiris_span_latency_cycles{overlap="recovery"}`).
    pub span_latency_recovery: HistSummary,
    /// Flight-recorder tail of the run, carried only for uncontrolled
    /// crashes (the black-box dump).
    pub blackbox: Option<String>,
}

impl InjectionRecord {
    /// The one injection epilogue, shared by the from-boot tables, the
    /// forge and the examples: audits `os` (only when the run completed),
    /// classifies `outcome`, and joins the run's metrics and axiom into
    /// the record — recovery counters, the MTTR [`CriticalPath`] (all-zero
    /// without a retained axiom) and the request-latency split. An
    /// uncontrolled crash carries the last 12 flight-recorder events per
    /// component as its black box.
    pub fn from_run(
        os: &Os,
        outcome: &RunOutcome,
        plan: &FaultPlan,
        policy: PolicyKind,
    ) -> InjectionRecord {
        let violations = if outcome.completed() {
            os.audit().len()
        } else {
            0
        };
        let m = os.metrics();
        let [rollback, fresh, quiescent, naive] = [
            m.recovered_rollback,
            m.recovered_fresh,
            m.recovered_quiescent,
            m.recovered_naive,
        ];
        let class = classify_run(outcome, violations, m.quarantines);
        let blackbox = (class == Outcome::Crash).then(|| {
            let tail = os.tracer().tail_per_comp(12);
            osiris_trace::render_text(&tail, &os.kernel().trace_names())
        });
        let [span_latency_clean, span_latency_recovery] = os.kernel().series().span_latency();
        InjectionRecord {
            site: plan.site.clone(),
            kind: plan.kind,
            policy: policy.to_string(),
            outcome: class,
            action: RecoveryActionTag::from_counts(
                rollback,
                fresh,
                quiescent,
                naive,
                m.controlled_shutdowns,
            ),
            run_cycles: os.kernel().now(),
            recoveries: rollback + fresh + quiescent + naive,
            recovery_cycles: m.recovery_cycles,
            critical_path: critical_path(os.kernel().axiom().records()),
            span_latency_clean,
            span_latency_recovery,
            blackbox,
        }
    }
}

/// Folds the records, in plan order, into the campaign-level axiom: one
/// hash-chained `Injection` event per run, timestamped with the run's
/// virtual cycle count. Two campaigns over the same plan can always be
/// bisected to the first diverging outcome.
fn derive_axiom(records: &[InjectionRecord]) -> AxiomLog {
    let mut log = AxiomLog::new(AxiomConfig {
        enabled: true,
        capacity: records.len().max(1),
    });
    for (run, rec) in records.iter().enumerate() {
        log.append(
            rec.run_cycles,
            AxiomEvent::Injection {
                run: run as u32,
                site_digest: site_digest(&rec.site, rec.kind),
                outcome: outcome_code(rec.outcome),
            },
        );
    }
    log
}

/// Folds the records, in plan order, into the campaign's registry: outcome
/// counts and run/recovery cycle distributions, labelled by policy,
/// component, model and outcome. Series register in plan order, so the
/// exposition is byte-identical on every thread count.
fn derive_metrics(records: &[InjectionRecord], model: FaultModel) -> Registry {
    let model = model_label(model);
    let mut m = Registry::default();
    // The registry finds a series by comparing label strings: ask it once
    // per distinct (policy, component, outcome), not once per record.
    let mut ids = HashMap::new();
    for rec in records {
        let (policy, component) = (rec.policy.as_str(), rec.site.component.as_str());
        let by_policy = [("policy", policy), ("model", model)];
        let (outcomes, run_cycles, recovery_cycles) = ids
            .entry((policy, component, rec.outcome))
            .or_insert_with(|| {
                let outcomes = m.counter(
                    "osiris_campaign_outcomes_total",
                    "Fault-injection runs by policy, component, model and outcome",
                    &[
                        ("policy", policy),
                        ("component", component),
                        ("model", model),
                        ("outcome", rec.outcome.label()),
                    ],
                );
                let run_cycles = m.hist(
                    "osiris_campaign_run_cycles",
                    "Virtual cycles per injected run",
                    &by_policy,
                );
                (outcomes, run_cycles, None)
            });
        m.inc(*outcomes);
        m.observe(*run_cycles, rec.run_cycles);
        if rec.recoveries > 0 {
            let recovery_cycles = *recovery_cycles.get_or_insert_with(|| {
                m.hist(
                    "osiris_campaign_recovery_cycles",
                    "Virtual cycles spent in recovery per run that recovered",
                    &by_policy,
                )
            });
            m.observe(recovery_cycles, rec.recovery_cycles);
        }
    }
    m
}

/// A fault-injection campaign: its records in plan order and the
/// registry its runner appended; matrix, report, axiom and registry are
/// derived from them.
#[derive(Debug)]
pub struct Campaign {
    label: String,
    model: FaultModel,
    records: Vec<InjectionRecord>,
    /// Families the runner appended (the forge's `osiris_forge_*`),
    /// exported after the derived campaign families.
    appendix: Registry,
}

impl Campaign {
    /// The campaign of `records`, one per injected run in plan order, with
    /// `appendix` exported after the derived `osiris_campaign_*` families
    /// (pass `Registry::default()` when the runner has none).
    pub fn new(
        label: &str,
        model: FaultModel,
        records: Vec<InjectionRecord>,
        appendix: Registry,
    ) -> Campaign {
        Campaign {
            label: label.to_string(),
            model,
            records,
            appendix,
        }
    }

    /// The campaign's registry: the `osiris_campaign_*` families derived
    /// from the records, in plan order, then the runner's appendix.
    pub fn metrics_handle(&self) -> Registry {
        let mut m = derive_metrics(&self.records, self.model);
        m.append(self.appendix.clone());
        m
    }

    /// Every record, in plan order.
    pub fn records(&self) -> &[InjectionRecord] {
        &self.records
    }

    /// The campaign axiom serialized to its crash-consistent format
    /// (feed two of these to `osiris_axiom::bisect` — or the
    /// `osiris-inspect diff` — to find the first diverging run).
    pub fn axiom_bytes(&self) -> Vec<u8> {
        derive_axiom(&self.records).to_bytes()
    }

    /// The final campaign report document (`campaign_report.json`).
    pub fn report_json(&self) -> JsonDoc<&Self> {
        JsonDoc(self)
    }
}

/// The campaign report: the matrix, its grand total and every record.
impl WriteJson for Campaign {
    fn write_json<S: Sink>(&self, w: &mut JsonWriter<S>) {
        let tally_fields = |w: &mut JsonWriter<S>, t: &Tally| {
            w.key("pass").u64(t.pass as u64);
            w.key("fail").u64(t.fail as u64);
            w.key("degraded").u64(t.degraded as u64);
            w.key("quarantined").u64(t.quarantined as u64);
            w.key("shutdown").u64(t.shutdown as u64);
            w.key("crash").u64(t.crash as u64);
            w.key("survivability_pct").f64(t.survivability());
        };
        // The quantile fields the request-latency split carries.
        let latency = |w: &mut JsonWriter<S>, h: &HistSummary| {
            w.begin_object();
            w.key("count").u64(h.count);
            w.key("p50").u64(h.p50);
            w.key("p90").u64(h.p90);
            w.key("p99").u64(h.p99);
            w.key("p999").u64(h.p999);
            w.key("max").u64(h.max);
            w.end_object();
        };
        let cells = matrix(&self.records);
        let runs = self.records.len() as u64;
        w.begin_object();
        w.key("campaign").str(&self.label);
        w.key("model").str(model_label(self.model));
        w.key("planned_runs").u64(runs);
        w.key("completed_runs").u64(runs);
        w.key("matrix").begin_array();
        for ((policy, component), t) in &cells {
            w.begin_object();
            w.key("policy").str(policy);
            w.key("component").str(component);
            tally_fields(w, t);
            w.end_object();
        }
        w.end_array();
        // The all-policy grand total: the same columns as the per-row
        // tallies, so the JSON report and the rendered matrix footer agree.
        let mut totals = Tally::default();
        cells.values().for_each(|t| totals.absorb(t));
        w.key("totals").begin_object();
        tally_fields(w, &totals);
        w.end_object();
        w.key("records").begin_array();
        for r in &self.records {
            w.begin_object();
            w.key("component").str(&r.site.component);
            w.key("site").str(&r.site.site);
            w.key("fault").str(kind_label(r.kind));
            w.key("policy").str(&r.policy);
            w.key("outcome").str(r.outcome.label());
            w.key("action").str(r.action.label());
            w.key("run_cycles").u64(r.run_cycles);
            w.key("recoveries").u64(r.recoveries);
            w.key("recovery_cycles").u64(r.recovery_cycles);
            r.critical_path.write_json(w.key("critical_path"));
            w.key("span_latency").begin_object();
            latency(w.key("none"), &r.span_latency_clean);
            latency(w.key("recovery"), &r.span_latency_recovery);
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
}

/// (policy, component) → outcome tally over `records`.
fn matrix(records: &[InjectionRecord]) -> BTreeMap<(&str, &str), Tally> {
    let mut cells: BTreeMap<(&str, &str), Tally> = BTreeMap::new();
    for r in records {
        let key = (r.policy.as_str(), r.site.component.as_str());
        cells.entry(key).or_default().add(r.outcome);
    }
    cells
}

/// The outcome matrix of `records` as text: one row per (policy,
/// component) pair, one per policy, and the grand total.
pub fn render_matrix(records: &[InjectionRecord]) -> String {
    let mut out = format!(
        "  {:<14} {:<10} {:>6} {:>6} {:>9} {:>11} {:>9} {:>6} {:>7}\n",
        "policy",
        "component",
        "pass",
        "fail",
        "degraded",
        "quarantined",
        "shutdown",
        "crash",
        "surv%"
    );
    // Every row — per pair, per policy, grand total — has the full column
    // set of the `totals` object in `campaign_report.json`.
    let mut row = |policy: &str, component: &str, t: &Tally| {
        out.push_str(&format!(
            "  {:<14} {:<10} {:>6} {:>6} {:>9} {:>11} {:>9} {:>6} {:>6.1}%\n",
            policy,
            component,
            t.pass,
            t.fail,
            t.degraded,
            t.quarantined,
            t.shutdown,
            t.crash,
            t.survivability()
        ));
    };
    let mut per_policy: BTreeMap<&str, Tally> = BTreeMap::new();
    for ((policy, component), t) in matrix(records) {
        row(policy, component, &t);
        per_policy.entry(policy).or_default().absorb(&t);
    }
    let mut total = Tally::default();
    for (policy, t) in &per_policy {
        row(policy, "(all)", t);
        total.absorb(t);
    }
    row("(total)", "", &total);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SiteKindTag;

    fn rec(policy: &str, component: &str, outcome: Outcome) -> InjectionRecord {
        InjectionRecord {
            site: SiteId {
                component: component.into(),
                site: "s".into(),
                kind: SiteKindTag::Block,
            },
            kind: FaultKind::Crash,
            policy: policy.into(),
            outcome,
            action: RecoveryActionTag::Rollback,
            run_cycles: 1000,
            recoveries: 1,
            recovery_cycles: 50,
            critical_path: CriticalPath {
                recoveries: 1,
                detect_cycles: 10,
                execute_cycles: 40,
                total_cycles: 50,
                intent_replays: 0,
                fallbacks: 0,
            },
            span_latency_clean: HistSummary::default(),
            span_latency_recovery: HistSummary::default(),
            blackbox: None,
        }
    }

    fn campaign(model: FaultModel, records: Vec<InjectionRecord>) -> Campaign {
        Campaign::new("t", model, records, Registry::default())
    }

    #[test]
    fn matrix_and_registry_accumulate() {
        let c = campaign(
            FaultModel::FailStop,
            vec![
                rec("enhanced", "pm", Outcome::Pass),
                rec("enhanced", "pm", Outcome::Fail),
                rec("naive", "vfs", Outcome::Crash),
            ],
        );
        let m = render_matrix(c.records());
        assert!(m.contains("enhanced"), "{m}");
        assert!(m.contains("(all)"), "{m}");
        let snap = c.metrics_handle().snapshot();
        match snap.find(
            "osiris_campaign_outcomes_total",
            &[
                ("policy", "enhanced"),
                ("component", "pm"),
                ("model", "fail-stop"),
                ("outcome", "pass"),
            ],
        ) {
            Some(osiris_metrics::SeriesValue::Counter(1)) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn report_json_carries_matrix_and_records() {
        let c = campaign(
            FaultModel::FullEdfi,
            vec![
                rec("enhanced", "pm", Outcome::Pass),
                rec("enhanced", "ds", Outcome::Shutdown),
            ],
        );
        let text = c.report_json().pretty();
        assert!(text.contains("\"model\": \"full-edfi\""));
        assert!(text.contains("\"completed_runs\": 2"));
        assert!(text.contains("\"component\": \"ds\""));
        assert!(text.contains("\"action\": \"rollback\""));
        // Each record carries its MTTR decomposition and latency split.
        assert!(text.contains("\"critical_path\""), "{text}");
        assert!(text.contains("\"detect_cycles\": 10"), "{text}");
        assert!(text.contains("\"span_latency\""), "{text}");
        assert!(text.contains("\"p999\""), "{text}");
    }

    #[test]
    fn critical_path_folds_capture_decide_done() {
        use osiris_axiom::ActionCode;
        let mut log = AxiomLog::new(AxiomConfig {
            enabled: true,
            capacity: 16,
        });
        // One crash recovery: captured at 100, decided at 130, done at 200
        // with 60 charged cycles; one replay and one fallback on the way.
        log.append(100, AxiomEvent::Crash { comp: 2 });
        log.append(
            130,
            AxiomEvent::RecoveryDecision {
                comp: 2,
                action: ActionCode::RollbackErrorReply,
            },
        );
        log.append(150, AxiomEvent::IntentReplayed { comp: 2 });
        log.append(
            160,
            AxiomEvent::RecoveryFallback {
                comp: 2,
                from: ActionCode::RollbackErrorReply,
                to: ActionCode::FreshRestart,
            },
        );
        log.append(
            200,
            AxiomEvent::RecoveryDone {
                comp: 2,
                cycles: 60,
            },
        );
        // A hang on another component that never resolves: contributes
        // nothing to the completed-path sums.
        log.append(300, AxiomEvent::HangDetected { comp: 3 });
        let cp = critical_path(log.records());
        assert_eq!(cp.recoveries, 1);
        assert_eq!(cp.detect_cycles, 30);
        assert_eq!(cp.execute_cycles, 60);
        assert_eq!(cp.total_cycles, 100);
        assert_eq!(cp.intent_replays, 1);
        assert_eq!(cp.fallbacks, 1);
        assert_eq!(critical_path(&[]), CriticalPath::default());
    }

    #[test]
    fn campaign_axiom_chains_and_bisects_on_outcome() {
        let prefix = |policy| {
            vec![
                rec(policy, "pm", Outcome::Pass),
                rec(policy, "vfs", Outcome::Pass),
            ]
        };
        // Same plan, same outcomes so far: identical chains despite the
        // differing policies (the site digest excludes the policy).
        let (mut ra, mut rb) = (prefix("enhanced"), prefix("pessimistic"));
        let (a, b) = (
            campaign(FaultModel::FailStop, ra.clone()),
            campaign(FaultModel::FailStop, rb.clone()),
        );
        assert_eq!(a.axiom_bytes(), b.axiom_bytes());
        ra.push(rec("enhanced", "ds", Outcome::Pass));
        rb.push(rec("pessimistic", "ds", Outcome::Shutdown));
        let (a, b) = (
            campaign(FaultModel::FailStop, ra),
            campaign(FaultModel::FailStop, rb),
        );
        let la = osiris_axiom::AxiomLog::from_bytes(&a.axiom_bytes()).expect("chain a");
        let lb = osiris_axiom::AxiomLog::from_bytes(&b.axiom_bytes()).expect("chain b");
        let div = osiris_axiom::bisect(la.records(), lb.records()).expect("diverged");
        assert_eq!(div.index, 2);
        match (div.a.expect("a rec").event, div.b.expect("b rec").event) {
            (
                AxiomEvent::Injection {
                    run: 2,
                    outcome: OutcomeCode::Recovered,
                    ..
                },
                AxiomEvent::Injection {
                    run: 2,
                    outcome: OutcomeCode::ControlledShutdown,
                    ..
                },
            ) => {}
            other => panic!("unexpected divergence: {other:?}"),
        }
    }

    #[test]
    fn action_tag_priority() {
        use RecoveryActionTag as T;
        assert_eq!(T::from_counts(1, 1, 0, 0, 1), T::Rollback);
        assert_eq!(T::from_counts(0, 2, 0, 1, 0), T::Fresh);
        assert_eq!(T::from_counts(0, 0, 2, 1, 0), T::Quiescent);
        assert_eq!(T::from_counts(0, 0, 0, 3, 0), T::Naive);
        assert_eq!(T::from_counts(0, 0, 0, 0, 1), T::Shutdown);
        assert_eq!(T::from_counts(0, 0, 0, 0, 0), T::None);
    }
}
