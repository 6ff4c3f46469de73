//! EDFI-style software fault injection for OSIRIS.
//!
//! Reproduces the experimental methodology of paper §VI-B:
//!
//! 1. a **profiling run** ([`Recorder`]) executes the workload once and
//!    records which instrumentation sites (basic-block analogs) are actually
//!    triggered — boot-time-only and never-reached sites are excluded, as in
//!    the paper — with each site's count, first and last workload step and
//!    window state ([`SiteProfile`], read by the planners here and in
//!    [`forge`]);
//! 2. a **fault plan** ([`plan_faults`]) derives one fault per appropriate
//!    site: only fail-stop faults ([`FaultModel::FailStop`], the model OSIRIS
//!    is designed for) or the full realistic mix ([`FaultModel::FullEdfi`]:
//!    crashes, hangs, flipped branches, corrupted values — the latter two
//!    being *fail-silent*);
//! 3. each fault is injected in a separate, fresh run ([`Injector`]) and
//!    the outcome classified ([`Outcome`]): *pass*, *fail* (workload errors
//!    but the system stays up), controlled *shutdown*, or uncontrolled
//!    *crash*;
//! 4. the **campaign** ([`Campaign`]) is the runs' records in plan order;
//!    the survivability matrix, report, axiom and metrics derive from it.
//!
//! Faults are **persistent**: an armed fault fires every time its site
//! executes, so recovering and retrying the same request hits it again —
//! exactly the class of faults OSIRIS' error virtualization (discard, don't
//! replay) is built to survive.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod forge;

pub use campaign::{
    critical_path, render_matrix, site_digest, Campaign, CriticalPath, InjectionRecord,
    RecoveryActionTag,
};
pub use forge::{
    forge_config_fail_silent, Boundary, CoverageMap, Forge, ForgeConfig, ForgePlan, ForgeReport,
    ForgeResult, ForgeVariant, FrontierReport, ScriptWorkload,
};

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use osiris_kernel::{FaultEffect, FaultHook, Probe, RunOutcome, ShutdownKind, SiteKind};
use osiris_rng::Rng;

/// A fully-qualified instrumentation site.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId {
    /// Component name (`"pm"`, `"vfs"`, …).
    pub component: String,
    /// Site label within the component.
    pub site: String,
    /// Site kind (block / value / branch).
    pub kind: SiteKindTag,
}

/// Serializable mirror of [`SiteKind`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SiteKindTag {
    /// Basic-block marker.
    Block,
    /// Value-producing site.
    Value,
    /// Branch-condition site.
    Branch,
}

impl From<SiteKind> for SiteKindTag {
    fn from(k: SiteKind) -> Self {
        match k {
            SiteKind::Block => SiteKindTag::Block,
            SiteKind::Value => SiteKindTag::Value,
            SiteKind::Branch => SiteKindTag::Branch,
        }
    }
}

/// A site as the profiling hooks count it: the probe's own `&'static str`s,
/// so a probe of a seen site allocates nothing. Tuples order field by
/// field, as [`SiteId`]'s derived order does.
pub(crate) type SiteKey = (&'static str, &'static str, SiteKindTag);

/// The key of the site `probe` reports.
pub(crate) fn site_key(probe: &Probe) -> SiteKey {
    (probe.component, probe.site, probe.kind.into())
}

impl From<SiteKey> for SiteId {
    fn from((component, site, kind): SiteKey) -> Self {
        SiteId {
            component: component.to_string(),
            site: site.to_string(),
            kind,
        }
    }
}

/// What a profiling run observed about one site.
#[derive(Clone, Copy, Debug)]
pub struct SiteObs {
    /// Executions across the whole run.
    pub count: u64,
    /// First workload step in which the site executed — the reachability
    /// boundary ([`forge::Boundary::Reach`] forks here).
    pub first_step: usize,
    /// Last workload step in which the site executed — the late-window
    /// boundary ([`forge::Boundary::Late`] forks here, skipping the clean
    /// prefix before it that a from-boot rerun would replay).
    pub last_step: usize,
    /// Whether the site ever executed inside an open recovery window.
    pub window_open: bool,
}

/// Per-site observations from a profiling run.
#[derive(Clone, Debug, Default)]
pub struct SiteProfile {
    sites: BTreeMap<SiteId, SiteObs>,
}

impl SiteProfile {
    /// All triggered sites with their observations, in deterministic order.
    pub fn sites(&self) -> impl Iterator<Item = (&SiteId, &SiteObs)> {
        self.sites.iter()
    }

    /// Sites that were triggered at least once, in deterministic order.
    pub fn triggered_sites(&self) -> Vec<SiteId> {
        self.sites.keys().cloned().collect()
    }

    /// The observation for `site`, if it executed.
    pub fn get(&self, site: &SiteId) -> Option<&SiteObs> {
        self.sites.get(site)
    }

    /// Number of distinct triggered sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether no sites were triggered.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Restrict the profile to the given components (e.g. the five core
    /// servers, excluding drivers).
    pub fn restrict_to(&self, components: &[&str]) -> SiteProfile {
        SiteProfile {
            sites: self
                .sites
                .iter()
                .filter(|(id, _)| components.contains(&id.component.as_str()))
                .map(|(id, obs)| (id.clone(), *obs))
                .collect(),
        }
    }

    /// The earliest-reached site of `component` (ties broken by site id),
    /// used to pick the primary crash for secondary-fault windows.
    pub fn first_site_of(&self, component: &str) -> Option<(SiteId, SiteObs)> {
        self.sites
            .iter()
            .filter(|(id, _)| id.component == component)
            .min_by_key(|(id, obs)| (obs.first_step, *id))
            .map(|(id, obs)| (id.clone(), *obs))
    }
}

/// Fault hook that records, per site, its execution count, the workload
/// steps where it first and last executed, and whether it ever ran inside
/// an open recovery window (the profiling run). A caller that never calls
/// [`Recorder::set_step`] profiles everything at step 0.
///
/// The shared handle lets the caller set the step and read the profile
/// while the kernel owns the hook.
#[derive(Clone, Default)]
pub struct Recorder {
    shared: Arc<Mutex<(usize, BTreeMap<SiteKey, SiteObs>)>>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder").finish()
    }
}

impl Recorder {
    /// Creates a recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the current workload step.
    pub fn set_step(&self, step: usize) {
        self.shared.lock().expect("recorder lock").0 = step;
    }

    /// Snapshot of the recorded profile.
    pub fn profile(&self) -> SiteProfile {
        let sites = &self.shared.lock().expect("recorder lock").1;
        SiteProfile {
            sites: sites.iter().map(|(&k, &obs)| (k.into(), obs)).collect(),
        }
    }
}

impl FaultHook for Recorder {
    fn on_site(&mut self, probe: &Probe) -> FaultEffect {
        let mut guard = self.shared.lock().expect("recorder lock");
        let (step, sites) = &mut *guard;
        let obs = sites.entry(site_key(probe)).or_insert(SiteObs {
            count: 0,
            first_step: *step,
            last_step: *step,
            window_open: false,
        });
        obs.count += 1;
        obs.last_step = obs.last_step.max(*step);
        obs.window_open |= probe.window_open;
        FaultEffect::None
    }
}

/// The concrete fault injected at a site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail-stop crash (NULL-pointer-dereference analog).
    Crash,
    /// Component hang (infinite-loop analog), detected by heartbeats.
    Hang,
    /// Fail-silent: negated branch condition.
    BranchFlip,
    /// Fail-silent: value XORed with the mask.
    ValueCorrupt(u64),
    /// Fail-silent: the handler keeps running but is charged `factor`
    /// stall quanta — slow, not hung; the watchdog's heartbeat probes must
    /// tell the two apart.
    Stall(u32),
    /// Fail-silent: the handler completes but its reply vanishes in
    /// flight. Only the watchdog's deadline notices.
    ReplyDrop,
    /// Fail-silent: the reply's payload is corrupted after the sender
    /// sealed its integrity digest. The reply-integrity defense must
    /// reject it and treat the sender as crashed.
    ReplyCorrupt,
}

impl FaultKind {
    fn effect(self) -> FaultEffect {
        match self {
            FaultKind::Crash => FaultEffect::Panic,
            FaultKind::Hang => FaultEffect::Hang,
            FaultKind::BranchFlip => FaultEffect::Flip,
            FaultKind::ValueCorrupt(mask) => FaultEffect::Perturb(mask),
            FaultKind::Stall(factor) => FaultEffect::Stall(factor),
            FaultKind::ReplyDrop => FaultEffect::DropReply,
            FaultKind::ReplyCorrupt => FaultEffect::CorruptReply,
        }
    }

    /// Whether this fault violates the fail-stop assumption.
    pub fn is_fail_silent(self) -> bool {
        matches!(
            self,
            FaultKind::BranchFlip
                | FaultKind::ValueCorrupt(_)
                | FaultKind::Stall(_)
                | FaultKind::ReplyDrop
                | FaultKind::ReplyCorrupt
        )
    }
}

/// One planned injection: a single fault, injected in its own run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Where.
    pub site: SiteId,
    /// What.
    pub kind: FaultKind,
    /// Transient faults fire exactly once; persistent faults fire on every
    /// execution of the site (the paper's model covers both, §II-E).
    pub transient: bool,
}

impl FaultPlan {
    /// A transient `kind` fault the first time `site` executes. Sites are
    /// named after their component (`"pm.fork.validate"` is PM's).
    pub fn once(kind: FaultKind, site: &str) -> FaultPlan {
        FaultPlan {
            site: SiteId {
                component: site.split('.').next().unwrap_or(site).to_string(),
                site: site.to_string(),
                kind: SiteKindTag::Block,
            },
            kind,
            transient: true,
        }
    }
}

/// Which fault universe to draw from (paper §VI-B, Tables II vs III).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultModel {
    /// Only persistent fail-stop crashes — the model OSIRIS is designed
    /// for.
    FailStop,
    /// Fail-stop crashes that fire exactly once (e.g. a race hit under one
    /// particular schedule). The paper's fault model covers transient
    /// faults too (§II-E).
    TransientFailStop,
    /// The full realistic mix: crashes, hangs, flipped branches, corrupted
    /// values.
    FullEdfi,
    /// The fail-silent universe the watchdog subsystem defends against:
    /// every triggered site is visited with a hang, a stall, a dropped
    /// reply and a corrupted reply. No fault in this model produces a
    /// crash signal — detection is entirely on the virtual-time deadlines,
    /// heartbeat probes and reply-integrity checks.
    FailSilent,
    /// Transient fail-stop faults inside the *recovery path itself*: the
    /// kernel's restart / rollback / reconciliation phases and the RS's
    /// conduct sites. These violate the paper's single-fault model (§II-E);
    /// the hardened recovery path degrades along the fallback chain or
    /// re-drives the interrupted conduct from the kernel intent log instead
    /// of crashing the system. Plans from this model are *secondary* faults:
    /// pair each with a workload-triggering primary via [`DoubleInjector`].
    DuringRecovery,
    /// Persistent fail-stop faults in the RS conduct sites: every re-driven
    /// conduct crashes the RS again, exercising the intent-replay cap after
    /// which the kernel completes the recovery directly. Secondary faults,
    /// as with [`FaultModel::DuringRecovery`].
    DoubleFault,
}

/// Recovery-path sites a [`FaultModel::DuringRecovery`] plan targets. These
/// never appear in a (fault-free) profiling run — recoveries only execute
/// once a primary fault crashed something — so the plan list is synthesized
/// rather than profile-derived.
const DURING_RECOVERY_SITES: &[(&str, &str)] = &[
    ("kernel", "kernel.recovery.rollback"),
    ("kernel", "kernel.recovery.restart"),
    ("kernel", "kernel.recovery.reconcile"),
    ("rs", "rs.recover.notify"),
    ("rs", "rs.recover.account"),
    ("rs", "rs.recover.issued"),
];

/// RS conduct sites a [`FaultModel::DoubleFault`] plan targets with
/// persistent crashes.
const DOUBLE_FAULT_SITES: &[(&str, &str)] = &[
    ("rs", "rs.recover.notify"),
    ("rs", "rs.recover.account"),
    ("rs", "rs.recover.issued"),
];

/// Derives the fault list from a profile: one fault per triggered site
/// (fail-stop model) or a seeded realistic mix (full model, which also
/// re-visits value/branch sites with fail-silent faults).
pub fn plan_faults(profile: &SiteProfile, model: FaultModel, seed: u64) -> Vec<FaultPlan> {
    let mut rng = Rng::new(seed);
    let mut plans = Vec::new();
    let synth = |sites: &[(&str, &str)], transient: bool| -> Vec<FaultPlan> {
        sites
            .iter()
            .map(|(c, s)| FaultPlan {
                site: SiteId {
                    component: c.to_string(),
                    site: s.to_string(),
                    kind: SiteKindTag::Block,
                },
                kind: FaultKind::Crash,
                transient,
            })
            .collect()
    };
    match model {
        FaultModel::DuringRecovery => return synth(DURING_RECOVERY_SITES, true),
        FaultModel::DoubleFault => return synth(DOUBLE_FAULT_SITES, false),
        _ => {}
    }
    for site in profile.triggered_sites() {
        match model {
            FaultModel::FailStop => {
                plans.push(FaultPlan {
                    site,
                    kind: FaultKind::Crash,
                    transient: false,
                });
            }
            FaultModel::TransientFailStop => {
                plans.push(FaultPlan {
                    site,
                    kind: FaultKind::Crash,
                    transient: true,
                });
            }
            FaultModel::FullEdfi => {
                // Every site gets a primary fault drawn from the realistic
                // mix; value/branch sites additionally get their
                // kind-specific fail-silent fault.
                let primary = match rng.below(100) {
                    0..=54 => FaultKind::Crash,
                    55..=69 => FaultKind::Hang,
                    70..=84 => FaultKind::BranchFlip,
                    _ => FaultKind::ValueCorrupt(1 << rng.below(16)),
                };
                let primary = match (primary, site.kind) {
                    // Kind-incompatible draws degrade to a crash.
                    (FaultKind::BranchFlip, k) if k != SiteKindTag::Branch => FaultKind::Crash,
                    (FaultKind::ValueCorrupt(_), k) if k != SiteKindTag::Value => FaultKind::Crash,
                    (p, _) => p,
                };
                plans.push(FaultPlan {
                    site: site.clone(),
                    kind: primary,
                    transient: false,
                });
                match site.kind {
                    SiteKindTag::Branch => plans.push(FaultPlan {
                        site,
                        kind: FaultKind::BranchFlip,
                        transient: false,
                    }),
                    SiteKindTag::Value => plans.push(FaultPlan {
                        site,
                        kind: FaultKind::ValueCorrupt(1 << rng.below(16)),
                        transient: false,
                    }),
                    SiteKindTag::Block => {}
                }
            }
            FaultModel::FailSilent => {
                // The full fail-silent plan space: all four kinds at every
                // triggered site, persistent (a retried request hits the
                // same fault again — the hardest case for the retry
                // machinery). The stall factor is seeded but deterministic.
                let factor = 3 + rng.below(6) as u32;
                for kind in [
                    FaultKind::Hang,
                    FaultKind::Stall(factor),
                    FaultKind::ReplyDrop,
                    FaultKind::ReplyCorrupt,
                ] {
                    plans.push(FaultPlan {
                        site: site.clone(),
                        kind,
                        transient: false,
                    });
                }
            }
            FaultModel::DuringRecovery | FaultModel::DoubleFault => {
                unreachable!("synthesized models handled before the profile loop")
            }
        }
    }
    plans
}

/// Fault hook that arms one fault (persistent or transient).
#[derive(Clone, Debug)]
pub struct Injector {
    component: String,
    site: String,
    effect: FaultEffect,
    transient: bool,
    fired: bool,
}

impl Injector {
    /// Arms `plan`.
    pub fn new(plan: &FaultPlan) -> Self {
        Injector {
            component: plan.site.component.clone(),
            site: plan.site.site.clone(),
            effect: plan.kind.effect(),
            transient: plan.transient,
            fired: false,
        }
    }
}

impl FaultHook for Injector {
    fn on_site(&mut self, probe: &Probe) -> FaultEffect {
        if probe.component == self.component && probe.site == self.site {
            if self.transient && self.fired {
                return FaultEffect::None;
            }
            self.fired = true;
            self.effect
        } else {
            FaultEffect::None
        }
    }
}

/// Fault hook composing a workload-triggering *primary* fault with a
/// *secondary* fault armed inside the recovery path: the primary crashes a
/// component, and the secondary fires while that crash is being recovered
/// ([`FaultModel::DuringRecovery`] / [`FaultModel::DoubleFault`] runs).
#[derive(Clone, Debug)]
pub struct DoubleInjector {
    primary: Injector,
    secondary: Injector,
}

impl DoubleInjector {
    /// Arms `primary` (the recovery trigger) and `secondary` (the fault in
    /// the recovery path).
    pub fn new(primary: &FaultPlan, secondary: &FaultPlan) -> Self {
        DoubleInjector {
            primary: Injector::new(primary),
            secondary: Injector::new(secondary),
        }
    }
}

impl FaultHook for DoubleInjector {
    fn on_site(&mut self, probe: &Probe) -> FaultEffect {
        match self.primary.on_site(probe) {
            FaultEffect::None => self.secondary.on_site(probe),
            effect => effect,
        }
    }
}

/// Fault hook for the service-disruption experiment (paper §VI-E, Fig. 3):
/// injects a fail-stop fault into one component at a fixed virtual-time
/// interval, but **only while its recovery window is open**, so every crash
/// is consistently recoverable and the benchmark can run to completion.
#[derive(Clone, Debug)]
pub struct PeriodicCrash {
    component: String,
    interval: u64,
    next_at: u64,
    /// Crashes injected so far.
    pub injected: u64,
}

impl PeriodicCrash {
    /// Crashes `component` every `interval` cycles (first crash after one
    /// full interval).
    pub fn new(component: &str, interval: u64) -> Self {
        PeriodicCrash {
            component: component.to_string(),
            interval,
            next_at: interval,
            injected: 0,
        }
    }
}

impl FaultHook for PeriodicCrash {
    fn on_site(&mut self, probe: &Probe) -> FaultEffect {
        if probe.component == self.component
            && probe.window_open
            && probe.replyable
            && probe.now >= self.next_at
        {
            self.next_at = probe.now + self.interval;
            self.injected += 1;
            FaultEffect::Panic
        } else {
            FaultEffect::None
        }
    }
}

/// Classification of one injected run (Tables II/III columns, plus the
/// escalation-ladder classes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Workload completed and every test passed.
    Pass,
    /// Workload completed, system stable, but one or more tests failed.
    Fail,
    /// Workload completed with every test passing, but only because the
    /// escalation ladder quarantined a crash-looping component: the system
    /// is running in a degraded configuration.
    Degraded,
    /// A component was quarantined *and* the workload failed tests or left
    /// residual inconsistencies attributable to the benched component.
    Quarantined,
    /// The system performed a controlled shutdown.
    Shutdown,
    /// Uncontrolled crash, hang, or post-run inconsistency.
    Crash,
}

impl Outcome {
    /// The outcome's name in matrices, labels and reports.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Pass => "pass",
            Outcome::Fail => "fail",
            Outcome::Degraded => "degraded",
            Outcome::Quarantined => "quarantined",
            Outcome::Shutdown => "shutdown",
            Outcome::Crash => "crash",
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Classifies a run. `audit_violations` is the number of cross-component
/// consistency violations detected after the run (a stable-looking but
/// corrupted system counts as a crash); `quarantines` is the number of
/// components the escalation ladder benched during the run (pass 0 when the
/// run has no ladder). A completed run with quarantines is *degraded*
/// (everything still passed) or *quarantined* (tests failed, or the benched
/// component left dangling state the audit flags) — either way the system
/// survived in bounded time rather than crash-looping, which is the
/// property the ladder exists to provide.
pub fn classify_run(outcome: &RunOutcome, audit_violations: usize, quarantines: u64) -> Outcome {
    match outcome {
        RunOutcome::Completed { init_code, .. } => {
            if quarantines > 0 {
                if *init_code == 0 && audit_violations == 0 {
                    Outcome::Degraded
                } else {
                    Outcome::Quarantined
                }
            } else if audit_violations > 0 {
                Outcome::Crash
            } else if *init_code == 0 {
                Outcome::Pass
            } else {
                Outcome::Fail
            }
        }
        RunOutcome::Shutdown(ShutdownKind::Controlled(_)) => Outcome::Shutdown,
        RunOutcome::Shutdown(ShutdownKind::Crash(_)) => Outcome::Crash,
        RunOutcome::Hang(_) => Outcome::Crash,
    }
}

/// Aggregated campaign results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Runs classified `Pass`.
    pub pass: usize,
    /// Runs classified `Fail`.
    pub fail: usize,
    /// Runs classified `Degraded`.
    pub degraded: usize,
    /// Runs classified `Quarantined`.
    pub quarantined: usize,
    /// Runs classified `Shutdown`.
    pub shutdown: usize,
    /// Runs classified `Crash`.
    pub crash: usize,
}

impl Tally {
    /// Adds one outcome.
    pub fn add(&mut self, o: Outcome) {
        match o {
            Outcome::Pass => self.pass += 1,
            Outcome::Fail => self.fail += 1,
            Outcome::Degraded => self.degraded += 1,
            Outcome::Quarantined => self.quarantined += 1,
            Outcome::Shutdown => self.shutdown += 1,
            Outcome::Crash => self.crash += 1,
        }
    }

    /// Adds every count of `t`.
    pub(crate) fn absorb(&mut self, t: &Tally) {
        self.pass += t.pass;
        self.fail += t.fail;
        self.degraded += t.degraded;
        self.quarantined += t.quarantined;
        self.shutdown += t.shutdown;
        self.crash += t.crash;
    }

    /// Total runs.
    pub fn total(&self) -> usize {
        self.pass + self.fail + self.degraded + self.quarantined + self.shutdown + self.crash
    }

    /// Percentage of runs with the given count.
    pub fn pct(&self, n: usize) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            100.0 * n as f64 / self.total() as f64
        }
    }

    /// Fraction of runs that kept the system alive (pass + fail, plus the
    /// degraded/quarantined runs that survived on the escalation ladder).
    pub fn survivability(&self) -> f64 {
        self.pct(self.pass + self.fail + self.degraded + self.quarantined)
    }
}

impl FromIterator<Outcome> for Tally {
    fn from_iter<I: IntoIterator<Item = Outcome>>(iter: I) -> Self {
        let mut t = Tally::default();
        for o in iter {
            t.add(o);
        }
        t
    }
}

/// Runs `f` over `jobs` on `threads` worker threads, preserving input order
/// in the output. Each job is independent (a fresh simulator instance), so
/// campaigns parallelize trivially.
///
/// Jobs are *started* in input order too (a forward cursor, not a LIFO
/// stack). A campaign is built from the returned vector, so its records
/// never depend on the thread count.
pub fn run_parallel<J, T, F>(jobs: Vec<J>, threads: usize, f: F) -> Vec<T>
where
    J: Send,
    T: Send,
    F: Fn(J) -> T + Sync,
{
    let threads = threads.max(1);
    let n = jobs.len();
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let f = &f;
    let out = Mutex::new(&mut results);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let job = queue.lock().expect("queue lock").next();
                let Some((idx, job)) = job else { break };
                let r = f(job);
                out.lock().expect("out lock")[idx] = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every job completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_injector_fires_once() {
        let plan = FaultPlan {
            site: SiteId {
                component: "pm".into(),
                site: "t".into(),
                kind: SiteKindTag::Block,
            },
            kind: FaultKind::Crash,
            transient: true,
        };
        let mut inj = Injector::new(&plan);
        let p = Probe {
            component: "pm",
            site: "t",
            kind: SiteKind::Block,
            now: 0,
            window_open: true,
            replyable: true,
        };
        assert_eq!(inj.on_site(&p), FaultEffect::Panic);
        assert_eq!(inj.on_site(&p), FaultEffect::None);
    }

    fn profile_with(sites: &[(&'static str, &'static str, SiteKind)]) -> SiteProfile {
        let mut r = Recorder::new();
        for &(c, s, k) in sites {
            r.on_site(&probe(c, s, k));
        }
        r.profile()
    }

    #[test]
    fn fail_stop_plan_is_one_crash_per_site() {
        let p = profile_with(&[("pm", "a", SiteKind::Block), ("vm", "b", SiteKind::Value)]);
        let plans = plan_faults(&p, FaultModel::FailStop, 1);
        assert_eq!(plans.len(), 2);
        assert!(plans.iter().all(|f| f.kind == FaultKind::Crash));
    }

    #[test]
    fn full_edfi_plan_is_deterministic_and_larger() {
        let p = profile_with(&[
            ("pm", "a", SiteKind::Block),
            ("pm", "br", SiteKind::Branch),
            ("vm", "v", SiteKind::Value),
        ]);
        let a = plan_faults(&p, FaultModel::FullEdfi, 42);
        let b = plan_faults(&p, FaultModel::FullEdfi, 42);
        assert_eq!(a, b, "same seed, same plan");
        assert!(a.len() > 3, "fail-silent variants add plans");
        assert!(a.iter().any(|f| f.kind.is_fail_silent()));
    }

    fn probe(c: &'static str, s: &'static str, k: SiteKind) -> Probe {
        Probe {
            component: c,
            site: s,
            kind: k,
            now: 0,
            window_open: true,
            replyable: true,
        }
    }

    #[test]
    fn recorder_counts_sites() {
        let mut r = Recorder::new();
        r.on_site(&probe("pm", "x", SiteKind::Block));
        r.set_step(3);
        r.on_site(&probe("pm", "x", SiteKind::Block));
        r.on_site(&probe("vm", "y", SiteKind::Value));
        let p = r.profile();
        assert_eq!(p.len(), 2);
        let id = SiteId {
            component: "pm".into(),
            site: "x".into(),
            kind: SiteKindTag::Block,
        };
        let obs = p.get(&id).expect("pm:x profiled");
        assert_eq!((obs.count, obs.first_step, obs.last_step), (2, 0, 3));
        assert_eq!(p.first_site_of("vm").map(|(_, o)| o.first_step), Some(3));
    }

    #[test]
    fn restrict_filters_components() {
        let p = profile_with(&[("pm", "a", SiteKind::Block), ("disk", "d", SiteKind::Block)]);
        let q = p.restrict_to(&["pm", "vm", "vfs", "ds", "rs"]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn injector_fires_only_at_its_site_every_time() {
        let plan = FaultPlan {
            site: SiteId {
                component: "pm".into(),
                site: "x".into(),
                kind: SiteKindTag::Block,
            },
            kind: FaultKind::Crash,
            transient: false,
        };
        let mut inj = Injector::new(&plan);
        assert_eq!(
            inj.on_site(&probe("pm", "x", SiteKind::Block)),
            FaultEffect::Panic
        );
        assert_eq!(
            inj.on_site(&probe("pm", "x", SiteKind::Block)),
            FaultEffect::Panic
        );
        assert_eq!(
            inj.on_site(&probe("pm", "y", SiteKind::Block)),
            FaultEffect::None
        );
        assert_eq!(
            inj.on_site(&probe("vm", "x", SiteKind::Block)),
            FaultEffect::None
        );
    }

    #[test]
    fn classification_matrix() {
        use osiris_kernel::RunOutcome as RO;
        let done = RO::Completed {
            init_code: 0,
            exit_codes: Default::default(),
        };
        assert_eq!(classify_run(&done, 0, 0), Outcome::Pass);
        assert_eq!(classify_run(&done, 2, 0), Outcome::Crash);
        let failed = RO::Completed {
            init_code: 3,
            exit_codes: Default::default(),
        };
        assert_eq!(classify_run(&failed, 0, 0), Outcome::Fail);
        assert_eq!(
            classify_run(&RO::Shutdown(ShutdownKind::Controlled("x".into())), 0, 0),
            Outcome::Shutdown
        );
        assert_eq!(
            classify_run(&RO::Shutdown(ShutdownKind::Crash("x".into())), 0, 0),
            Outcome::Crash
        );
        assert_eq!(classify_run(&RO::Hang("h".into()), 0, 0), Outcome::Crash);
    }

    #[test]
    fn escalation_classification() {
        use osiris_kernel::RunOutcome as RO;
        let done = RO::Completed {
            init_code: 0,
            exit_codes: Default::default(),
        };
        // No quarantines: the plain Tables II/III classification.
        assert_eq!(classify_run(&done, 0, 0), Outcome::Pass);
        // Quarantine + clean finish = degraded survival.
        assert_eq!(classify_run(&done, 0, 1), Outcome::Degraded);
        // Quarantine + residual inconsistency (e.g. fds the benched VFS
        // never cleaned) = quarantined, NOT an uncontrolled crash.
        assert_eq!(classify_run(&done, 2, 1), Outcome::Quarantined);
        let failed = RO::Completed {
            init_code: 3,
            exit_codes: Default::default(),
        };
        assert_eq!(classify_run(&failed, 0, 1), Outcome::Quarantined);
        // Terminal outcomes are unaffected by quarantine accounting.
        assert_eq!(
            classify_run(&RO::Shutdown(ShutdownKind::Controlled("x".into())), 0, 1),
            Outcome::Shutdown
        );
        assert_eq!(classify_run(&RO::Hang("h".into()), 0, 1), Outcome::Crash);
    }

    #[test]
    fn degraded_tally_counts_toward_survivability() {
        let t: Tally = [
            Outcome::Pass,
            Outcome::Degraded,
            Outcome::Quarantined,
            Outcome::Crash,
        ]
        .into_iter()
        .collect();
        assert_eq!(t.total(), 4);
        assert_eq!(t.degraded, 1);
        assert_eq!(t.quarantined, 1);
        assert_eq!(t.survivability(), 75.0);
    }

    #[test]
    fn tally_percentages_and_survivability() {
        let t: Tally = [Outcome::Pass, Outcome::Pass, Outcome::Fail, Outcome::Crash]
            .into_iter()
            .collect();
        assert_eq!(t.total(), 4);
        assert_eq!(t.pct(t.pass), 50.0);
        assert_eq!(t.survivability(), 75.0);
    }

    #[test]
    fn run_parallel_preserves_order() {
        let jobs: Vec<u32> = (0..50).collect();
        let out = run_parallel(jobs, 8, |j| j * 2);
        assert_eq!(out, (0..50).map(|j| j * 2).collect::<Vec<_>>());
    }
}
