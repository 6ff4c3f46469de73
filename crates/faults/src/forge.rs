//! The campaign **forge**: snapshot-fork fault campaigns with
//! coverage-guided exploration of the recovery-failure frontier.
//!
//! Classic campaigns ([`crate::run_parallel`] over
//! `osiris_workloads::run_suite_with`) pay a full boot + workload prefix for
//! every injected run, even though every variant of one injection site
//! shares the exact same fault-free prefix. The forge removes that
//! redundancy with the OS fork substrate
//! ([`osiris_servers::Os::snapshot_into`] / [`osiris_servers::Os::fork_from`]):
//!
//! 1. **Prefix discovery** — a [`crate::Recorder`]-instrumented run of the
//!    deterministic [`ScriptWorkload`] maps every instrumentation site to
//!    the workload step where it first executes (its *reachability point*).
//! 2. **Multiplexed snapshots** — one clean run per policy snapshots the OS
//!    at each reachability boundary into a shared
//!    [`osiris_checkpoint::ChunkStore`]; consecutive snapshots share
//!    unchanged chunks, so each additional prefix costs O(dirty).
//! 3. **Forked injections** — every fault variant of a site forks from the
//!    site's snapshot and replays only the suffix. Because an armed
//!    [`Injector`] is pass-through until its site first executes, a forked
//!    run is byte-identical to a from-boot run with the same fault — the
//!    differential tests in `tests/forge_fork.rs` pin this down.
//! 4. **Coverage-guided exploration** — a [`CoverageMap`] over
//!    (component, window-state, policy, fault-model, outcome) cells tracks
//!    what the sweep has actually tested; after the base waves the planner
//!    spends the remaining budget on the *frontier*: sites where
//!    neighboring variants (same site, different policy or different
//!    secondary-fault window) flip between recovering and
//!    degrading/shutting down.
//!
//! Workers reuse their OS instance across forks via
//! [`osiris_servers::Os::try_readopt`], so the steady-state cost of one
//! injection is an O(dirty) state adoption, not a boot. Results are
//! deterministic in *plan order* regardless of thread count: outcomes,
//! records and the campaign axiom chain are identical for 1 or 16 workers.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use osiris_checkpoint::ChunkStore;
use osiris_core::PolicyKind;
use osiris_kernel::abi::{Errno, Fd, OpenFlags, Pid, SeekFrom, Signal, SysReply, Syscall};
use osiris_kernel::{FaultHook, NoFaults, OsEngine, RunOutcome, SyscallId};
use osiris_metrics::Registry;
use osiris_rng::Rng;
use osiris_servers::{Os, OsConfig, OsSnapshot};
use osiris_trace::{JsonDoc, JsonWriter, Sink, WriteJson};

use crate::campaign::{kind_label, model_label, Campaign, InjectionRecord};
use crate::{
    plan_faults, run_parallel, DoubleInjector, FaultKind, FaultModel, FaultPlan, Injector, Outcome,
    Recorder, SiteId, SiteObs, SiteProfile,
};

/// The five core servers eligible for fail-stop injection (paper order).
pub const FORGE_SERVERS: [&str; 5] = ["pm", "vfs", "vm", "ds", "rs"];

/// Components whose first triggered site serves as the *primary* crash for
/// the secondary-fault models — each is a distinct secondary-fault
/// *window*: the recovery the secondary fault lands in belongs to a
/// different component, at a different point of the workload.
pub const PRIMARY_WINDOWS: [&str; 4] = ["vfs", "pm", "vm", "ds"];

// ---------------------------------------------------------------------
// ScriptWorkload: a deterministic engine-level workload
// ---------------------------------------------------------------------

/// Outcome of one [`ScriptWorkload`] drive.
#[derive(Clone, Debug)]
pub struct ScriptRun {
    /// Reply checks that failed (0 on a clean run).
    pub failures: u32,
    /// The synthesized run outcome, shaped like the host's so
    /// [`crate::classify_run`] applies unchanged.
    pub outcome: RunOutcome,
}

impl ScriptRun {
    /// Whether the run completed with every check passing.
    pub fn clean(&self) -> bool {
        matches!(self.outcome, RunOutcome::Completed { init_code: 0, .. })
    }
}

/// A deterministic, step-structured workload driven through [`OsEngine`]
/// directly as the init process — no host threads, so the OS can be
/// snapshotted at any step boundary (the engine is quiescent there: all
/// submitted calls replied, kill events drained).
///
/// Each step is self-contained (it opens and closes its own descriptors),
/// so running steps `k..N` on a fork equals the suffix of a from-boot run
/// — the property the snapshot-fork campaign rests on. Syscall ids are
/// minted per step (`(step+1)*10_000 + seq`), keeping the id stream of a
/// forked suffix identical to the same suffix of a full run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScriptWorkload {
    /// Extra bulk-I/O rounds appended to each step of the bulk phase
    /// (steps `0..`[`ScriptWorkload::BULK_STEPS`]). Each round overwrites
    /// a fixed data-store key, rewrites a fixed root file and toggles the
    /// heap break, so state stays bounded while the clean prefix grows
    /// linearly — the cost a from-boot rerun pays and a fork skips.
    pub stress_rounds: u32,
}

/// Virtual cycles charged to user compute before each scripted syscall.
const CHARGE_PER_CALL: u64 = 5;
/// Bounded transparent retries of `ECRASH` replies (error virtualization:
/// the request was discarded, retrying is the documented contract).
const ECRASH_RETRIES: u32 = 4;
/// Timer fires tolerated without progress before declaring a hang.
const MAX_IDLE_FIRES: u32 = 10_000;

/// Drives the engine for one workload run (or a sub-range of steps).
struct Driver<'a, E: OsEngine> {
    os: &'a mut E,
    cfg: ScriptWorkload,
    seq: u64,
    sid_base: u64,
    failures: u32,
    stall: Option<String>,
    shutdown: bool,
    killed: bool,
}

impl<'a, E: OsEngine> Driver<'a, E> {
    fn terminal(&self) -> bool {
        self.stall.is_some() || self.shutdown || self.killed
    }

    /// Submits `call` and pumps to its reply, firing timers as needed.
    /// `None` means the run is over (shutdown, hang, or init killed).
    fn call(&mut self, call: Syscall) -> Option<SysReply> {
        if self.terminal() {
            return None;
        }
        for _ in 0..=ECRASH_RETRIES {
            self.os.charge_user(CHARGE_PER_CALL);
            let sid = SyscallId(self.sid_base + self.seq);
            self.seq += 1;
            self.os.submit(sid, Pid::INIT, call.clone());
            let reply = self.pump_for(sid)?;
            if reply != SysReply::Err(Errno::ECRASH) {
                return Some(reply);
            }
        }
        Some(SysReply::Err(Errno::ECRASH))
    }

    fn pump_for(&mut self, sid: SyscallId) -> Option<SysReply> {
        let mut idle: u32 = 0;
        loop {
            let replies = self.os.pump();
            for pid in self.os.take_kill_events() {
                if pid == Pid::INIT {
                    self.killed = true;
                }
            }
            let mut found = None;
            for (rsid, _pid, rep) in replies {
                if rsid == sid {
                    found = Some(rep);
                }
            }
            if let Some(r) = found {
                return Some(r);
            }
            if self.killed {
                return None;
            }
            if self.os.shutdown_state().is_some() {
                self.shutdown = true;
                return None;
            }
            if !self.os.fire_next_timer() {
                self.stall = Some(format!("no reply for sid {} and no pending timers", sid.0));
                return None;
            }
            idle += 1;
            if idle > MAX_IDLE_FIRES {
                self.stall = Some(format!(
                    "no reply for sid {} after {idle} timer fires",
                    sid.0
                ));
                return None;
            }
        }
    }

    /// Makes `call` and counts a failure if its reply is not `ok`. Returns
    /// whether a reply came and was `ok`.
    fn check(&mut self, call: Syscall, ok: impl FnOnce(&SysReply) -> bool) -> bool {
        let passed = self.call(call).map(|r| ok(&r));
        if passed == Some(false) {
            self.failures += 1;
        }
        passed == Some(true)
    }

    fn check_ok(&mut self, call: Syscall) -> bool {
        self.check(call, |r| !matches!(r, SysReply::Err(_)))
    }

    fn check_data(&mut self, call: Syscall, want: &[u8]) {
        self.check(
            call,
            |r| matches!(r, SysReply::Data(d) if d.as_slice() == want),
        );
    }

    fn open(&mut self, path: &str, flags: OpenFlags) -> Option<Fd> {
        match self.call(Syscall::Open {
            path: path.into(),
            flags,
        }) {
            Some(SysReply::Desc(fd)) => Some(fd),
            Some(_) => {
                self.failures += 1;
                None
            }
            None => None,
        }
    }
}

impl ScriptWorkload {
    /// Number of steps in the script.
    pub const STEPS: usize = 8;

    /// Steps carrying the configurable bulk phase (`stress_rounds`); the
    /// final two steps stay light, so most late-window forks replay a
    /// short suffix of a long run (see [`Boundary::Late`] for the rest).
    pub const BULK_STEPS: usize = 6;

    /// Runs the full script.
    pub fn run<E: OsEngine>(&self, os: &mut E) -> ScriptRun {
        self.run_range(os, 0..Self::STEPS)
    }

    /// Runs steps `range` (each step is independent of prior steps'
    /// descriptors, so any contiguous sub-range is valid).
    pub fn run_range<E: OsEngine>(&self, os: &mut E, range: Range<usize>) -> ScriptRun {
        self.run_range_with(os, range, |_| {})
    }

    /// Like [`ScriptWorkload::run_range`], invoking `before_step` with the
    /// step index before each step executes (profiling instrumentation).
    pub fn run_range_with<E: OsEngine>(
        &self,
        os: &mut E,
        range: Range<usize>,
        mut before_step: impl FnMut(usize),
    ) -> ScriptRun {
        let mut d = Driver {
            os,
            cfg: *self,
            seq: 0,
            sid_base: 0,
            failures: 0,
            stall: None,
            shutdown: false,
            killed: false,
        };
        for step in range {
            if d.terminal() {
                break;
            }
            before_step(step);
            d.sid_base = (step as u64 + 1) * 10_000;
            d.seq = 0;
            Self::run_step(&mut d, step);
        }
        let outcome = if d.shutdown {
            let kind = d.os.shutdown_state().expect("shutdown state set");
            RunOutcome::Shutdown(kind)
        } else if let Some(msg) = d.stall.take() {
            RunOutcome::Hang(msg)
        } else {
            // A killed init counts as a failed (but completed) workload:
            // the system survived, the workload did not.
            let init_code = if d.killed {
                i32::from(d.failures as i32 == 0) + d.failures as i32
            } else {
                d.failures as i32
            };
            RunOutcome::Completed {
                init_code,
                exit_codes: BTreeMap::new(),
            }
        };
        ScriptRun {
            failures: d.failures,
            outcome,
        }
    }

    fn run_step<E: OsEngine>(d: &mut Driver<'_, E>, step: usize) {
        match step {
            0 => {
                // Process-manager basics.
                d.check(Syscall::GetPid, |r| *r == SysReply::Proc(Pid::INIT));
                d.check_ok(Syscall::GetPPid);
                d.check_ok(Syscall::SigMask {
                    sig: Signal::SigUsr1,
                    masked: true,
                });
                d.check_ok(Syscall::SigPending);
                d.check_ok(Syscall::Sleep { ticks: 50 });
            }
            1 => {
                // Virtual memory.
                d.check_ok(Syscall::Brk { pages: 4 });
                match d.call(Syscall::Mmap { pages: 8 }) {
                    Some(SysReply::Val(id)) => {
                        d.check_ok(Syscall::Munmap { id: id as u64 });
                    }
                    Some(_) => d.failures += 1,
                    None => {}
                }
                d.check_ok(Syscall::VmStat);
                d.check_ok(Syscall::Brk { pages: -2 });
            }
            2 => {
                // File create / write / read-back.
                d.check_ok(Syscall::Mkdir {
                    path: "/forge".into(),
                });
                if let Some(fd) = d.open("/forge/log", OpenFlags::RDWR_CREATE) {
                    d.check_ok(Syscall::Write {
                        fd,
                        bytes: b"forge-alpha".to_vec(),
                    });
                    d.check_ok(Syscall::Seek {
                        fd,
                        from: SeekFrom::Start(0),
                    });
                    d.check_data(Syscall::Read { fd, len: 11 }, b"forge-alpha");
                    d.check_ok(Syscall::Fsync { fd });
                    d.check_ok(Syscall::Close { fd });
                }
            }
            3 => {
                // Data store.
                d.check_ok(Syscall::DsPut {
                    key: "k/forge/a".into(),
                    value: b"alpha".to_vec(),
                });
                d.check_ok(Syscall::DsPut {
                    key: "k/forge/b".into(),
                    value: b"beta".to_vec(),
                });
                d.check_data(
                    Syscall::DsGet {
                        key: "k/forge/a".into(),
                    },
                    b"alpha",
                );
                d.check_ok(Syscall::DsList {
                    prefix: "k/forge/".into(),
                });
                d.check_ok(Syscall::DsDel {
                    key: "k/forge/b".into(),
                });
            }
            4 => {
                // Directory operations.
                if let Some(fd) = d.open("/forge/tmp", OpenFlags::CREATE) {
                    d.check_ok(Syscall::Write {
                        fd,
                        bytes: b"swap".to_vec(),
                    });
                    d.check_ok(Syscall::Close { fd });
                }
                d.check_ok(Syscall::Rename {
                    from: "/forge/tmp".into(),
                    to: "/forge/kept".into(),
                });
                d.check_ok(Syscall::Stat {
                    path: "/forge/kept".into(),
                });
                d.check_ok(Syscall::ReadDir {
                    path: "/forge".into(),
                });
                d.check_ok(Syscall::Unlink {
                    path: "/forge/kept".into(),
                });
            }
            5 => {
                // Pipes and descriptor duplication.
                match d.call(Syscall::Pipe) {
                    Some(SysReply::TwoDesc(r, w)) => {
                        // Read only what was written: a failed write left
                        // the pipe empty, and a read would block on it.
                        let bytes = b"ping".to_vec();
                        if d.check_ok(Syscall::Write { fd: w, bytes }) {
                            d.check_data(Syscall::Read { fd: r, len: 4 }, b"ping");
                        }
                        if let Some(SysReply::Desc(d2)) = d.call(Syscall::Dup { fd: r }) {
                            d.check_ok(Syscall::Close { fd: d2 });
                        }
                        d.check_ok(Syscall::Close { fd: r });
                        d.check_ok(Syscall::Close { fd: w });
                    }
                    Some(_) => d.failures += 1,
                    None => {}
                }
            }
            6 => {
                // Full-surface encore: one light pass over most syscall
                // families, so most injection sites have a late window
                // here and their Late-boundary forks replay only this
                // short suffix. Not every site: this step reads no file
                // and no pipe, seeks nowhere and never fsyncs. So
                // `vfs.read.{step,len,assemble}`, `vfs.fsync.{entry,flush}`
                // and `vfs.disk.reply` are last seen in step 2, and
                // `vfs.read.entry`, `vfs.seek.entry` and `vfs.pipe.read`
                // in step 5; their Late forks replay the bulk rounds of
                // steps 2–5 or of step 5. At stress 1200 the step-2 forks
                // carry most of a campaign's suffix syscalls. The script
                // stays as it is: changing it changes every campaign record.
                d.check_ok(Syscall::DsPut {
                    key: "k/forge/c".into(),
                    value: b"gamma".to_vec(),
                });
                d.check_ok(Syscall::DsDel {
                    key: "k/forge/c".into(),
                });
                d.check_ok(Syscall::DsPut {
                    key: "k/forge/c".into(),
                    value: b"gamma".to_vec(),
                });
                if let Some(fd) = d.open("/forge/log", OpenFlags::APPEND) {
                    d.check_ok(Syscall::Write {
                        fd,
                        bytes: b"-beta".to_vec(),
                    });
                    d.check_ok(Syscall::Close { fd });
                }
                d.check_ok(Syscall::Mkdir {
                    path: "/encore".into(),
                });
                if let Some(fd) = d.open("/encore/f", OpenFlags::CREATE) {
                    d.check_ok(Syscall::Close { fd });
                }
                d.check_ok(Syscall::Rename {
                    from: "/encore/f".into(),
                    to: "/encore/g".into(),
                });
                d.check_ok(Syscall::Stat {
                    path: "/encore/g".into(),
                });
                d.check_ok(Syscall::Unlink {
                    path: "/encore/g".into(),
                });
                if let Some(SysReply::TwoDesc(r, w)) = d.call(Syscall::Pipe) {
                    d.check_ok(Syscall::Write {
                        fd: w,
                        bytes: b"hi".to_vec(),
                    });
                    if let Some(SysReply::Desc(d2)) = d.call(Syscall::Dup { fd: r }) {
                        d.check_ok(Syscall::Close { fd: d2 });
                    }
                    d.check_ok(Syscall::Close { fd: r });
                    d.check_ok(Syscall::Close { fd: w });
                }
                if let Some(SysReply::Val(id)) = d.call(Syscall::Mmap { pages: 2 }) {
                    d.check_ok(Syscall::Munmap { id: id as u64 });
                }
                d.check_ok(Syscall::VmStat);
                d.check_ok(Syscall::GetPPid);
                d.check_ok(Syscall::SigMask {
                    sig: Signal::SigUsr2,
                    masked: true,
                });
                d.check_ok(Syscall::SigPending);
                d.check_ok(Syscall::Brk { pages: 1 });
                d.check_ok(Syscall::Sleep { ticks: 25 });
            }
            7 => {
                // Final consistency sweep.
                d.check_data(
                    Syscall::DsGet {
                        key: "k/forge/c".into(),
                    },
                    b"gamma",
                );
                d.check_ok(Syscall::DsList { prefix: "".into() });
                d.check_ok(Syscall::ReadDir { path: "/".into() });
                d.check(Syscall::GetPid, |r| *r == SysReply::Proc(Pid::INIT));
            }
            _ => unreachable!("script has {} steps", Self::STEPS),
        }
        if step < Self::BULK_STEPS {
            for _round in 0..d.cfg.stress_rounds {
                if d.terminal() {
                    return;
                }
                d.check_ok(Syscall::DsPut {
                    key: format!("k/bulk/{}", step % 4),
                    value: vec![b'x'; 48],
                });
                if let Some(fd) = d.open("/bulk", OpenFlags::RDWR_CREATE) {
                    d.check_ok(Syscall::Seek {
                        fd,
                        from: SeekFrom::Start(0),
                    });
                    d.check_ok(Syscall::Write {
                        fd,
                        bytes: vec![b'y'; 48],
                    });
                    d.check_ok(Syscall::Close { fd });
                }
                d.check_ok(Syscall::Brk { pages: 1 });
                d.check_ok(Syscall::Brk { pages: -1 });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Variants and planning
// ---------------------------------------------------------------------

/// One planned injection: a fault (plus optional primary trigger), a
/// policy, and the snapshot boundary its forked run starts from.
#[derive(Clone, Debug)]
pub struct ForgeVariant {
    /// Fault model this variant belongs to.
    pub model: FaultModel,
    /// Recovery policy of the run.
    pub policy: PolicyKind,
    /// Index of `policy` in the forge's policy list.
    pub policy_idx: usize,
    /// The armed fault (the *secondary* for recovery-path models).
    pub plan: FaultPlan,
    /// The workload-triggering primary crash (secondary-fault models).
    pub primary: Option<FaultPlan>,
    /// Workload step the variant's run forks at.
    pub boundary: usize,
    /// Whether the profiled site executes inside an open recovery window
    /// (synthesized recovery-path sites always do).
    pub window_open: bool,
    /// Label of the secondary-fault window ("-" for single-fault models;
    /// the primary's component, suffixed `+hang` for hang-primary
    /// refinements).
    pub primary_window: String,
}

impl ForgeVariant {
    /// The coverage-cell key of this variant.
    fn cell(&self) -> CellKey {
        (
            model_label(self.model),
            kind_label(self.plan.kind),
            self.plan.site.clone(),
            self.policy.to_string(),
            self.primary_window.clone(),
        )
    }
}

/// (model, fault kind, armed site, policy, secondary-fault window).
type CellKey = (&'static str, &'static str, SiteId, String, String);

/// The discovered profiles plus the budgeted base-wave variant list.
#[derive(Clone, Debug)]
pub struct ForgePlan {
    /// Per-policy site profiles from the discovery runs.
    pub profiles: Vec<SiteProfile>,
    /// Base-wave variants, in deterministic plan order.
    pub variants: Vec<ForgeVariant>,
    /// Variants the budget dropped from the base wave — still declared in
    /// the coverage ledger (a too-small budget shows up as lost coverage,
    /// never as silent truncation).
    pub deferred: Vec<ForgeVariant>,
}

impl ForgePlan {
    /// Number of planned base-wave variants.
    pub fn len(&self) -> usize {
        self.variants.len()
    }

    /// Whether no variants were planned.
    pub fn is_empty(&self) -> bool {
        self.variants.is_empty()
    }
}

// ---------------------------------------------------------------------
// Coverage map and frontier
// ---------------------------------------------------------------------

/// Coverage ledger over (component, window-state, policy, fault-model,
/// outcome) cells, fed from [`InjectionRecord`]s.
///
/// Two ledgers in one: the *planned* side tracks which (model, site,
/// policy, window) variants the planner scheduled and which of them have
/// executed — this drives the sweep-completeness gates; the *observed*
/// side collects distinct outcome cells — this is what
/// `osiris_forge_cells_covered` exports.
#[derive(Clone, Debug, Default)]
pub struct CoverageMap {
    planned: BTreeMap<CellKey, bool>,
    observed: BTreeSet<(String, bool, String, &'static str, String)>,
}

impl CoverageMap {
    /// Declares a planned variant (idempotent).
    pub fn plan(&mut self, v: &ForgeVariant) {
        self.planned.entry(v.cell()).or_insert(false);
    }

    /// Whether the variant's cell is already planned.
    pub fn is_planned(&self, v: &ForgeVariant) -> bool {
        self.planned.contains_key(&v.cell())
    }

    /// Marks a planned variant executed and folds its record into the
    /// observed outcome cells. An unplanned variant (a refinement) adds an
    /// outcome cell only: the planned side is what the planner declared.
    pub fn observe(&mut self, v: &ForgeVariant, rec: &InjectionRecord) {
        if let Some(done) = self.planned.get_mut(&v.cell()) {
            *done = true;
        }
        self.observed.insert((
            rec.site.component.clone(),
            v.window_open,
            rec.policy.clone(),
            model_label(v.model),
            rec.outcome.to_string(),
        ));
    }

    /// (planned, executed) cell counts for the given models.
    pub fn coverage(&self, models: &[FaultModel]) -> (usize, usize) {
        let labels: Vec<&str> = models.iter().map(|m| model_label(*m)).collect();
        let mut planned = 0;
        let mut executed = 0;
        for ((model, _, _, _, _), done) in &self.planned {
            if labels.contains(model) {
                planned += 1;
                executed += usize::from(*done);
            }
        }
        (planned, executed)
    }

    /// (planned, executed) cells of one model restricted to one fault-kind
    /// label (see [`kind_label`]).
    pub fn kind_coverage(&self, model: FaultModel, kind: &str) -> (usize, usize) {
        let label = model_label(model);
        let mut planned = 0;
        let mut executed = 0;
        for ((m, k, _, _, _), done) in &self.planned {
            if *m == label && *k == kind {
                planned += 1;
                executed += usize::from(*done);
            }
        }
        (planned, executed)
    }

    /// Distinct observed (component, window-state, policy, model, outcome)
    /// cells.
    pub fn cells_covered(&self) -> usize {
        self.observed.len()
    }
}

/// Collapses outcomes into frontier classes: survived (pass/fail),
/// degraded (ladder benched something), fatal (shutdown/crash).
fn outcome_class(o: Outcome) -> u8 {
    match o {
        Outcome::Pass | Outcome::Fail => 0,
        Outcome::Degraded | Outcome::Quarantined => 1,
        Outcome::Shutdown | Outcome::Crash => 2,
    }
}

/// The recovery-failure frontier of one executed wave: neighboring
/// variants (same armed site and model, adjacent along the policy axis or
/// the secondary-fault-window axis) whose outcomes land in different
/// classes.
#[derive(Clone, Debug, Default)]
pub struct FrontierReport {
    /// Class flips between neighboring variants.
    pub flips: u64,
    /// Armed sites on the frontier, as `component:site` labels.
    pub sites: Vec<String>,
}

/// Variants grouped by (model, fault kind, armed site, fixed axis),
/// holding the (varying axis, outcome class) pairs scanned for flips.
type AxisGroups<'a, F, V> = BTreeMap<(&'static str, &'static str, &'a SiteId, F), Vec<(V, u8)>>;

fn frontier(variants: &[ForgeVariant], outcomes: &[Outcome]) -> FrontierReport {
    assert_eq!(variants.len(), outcomes.len());
    // Neighbors along the policy axis (same site/model/window) and along
    // the window axis (same site/model/policy).
    let mut by_policy: AxisGroups<&str, usize> = BTreeMap::new();
    let mut by_window: AxisGroups<usize, &str> = BTreeMap::new();
    for (v, &o) in variants.iter().zip(outcomes) {
        let (model, kind) = (model_label(v.model), kind_label(v.plan.kind));
        let class = outcome_class(o);
        by_policy
            .entry((model, kind, &v.plan.site, &v.primary_window))
            .or_default()
            .push((v.policy_idx, class));
        by_window
            .entry((model, kind, &v.plan.site, v.policy_idx))
            .or_default()
            .push((&v.primary_window, class));
    }
    let mut flips = 0;
    let mut sites = BTreeSet::new();
    fn scan<A: Ord>(
        site: &SiteId,
        classes: &mut [(A, u8)],
        flips: &mut u64,
        sites: &mut BTreeSet<String>,
    ) {
        classes.sort();
        for pair in classes.windows(2) {
            if pair[0].1 != pair[1].1 {
                *flips += 1;
                sites.insert(format!("{}:{}", site.component, site.site));
            }
        }
    }
    for ((_, _, site, _), mut classes) in by_policy {
        scan(site, &mut classes, &mut flips, &mut sites);
    }
    for ((_, _, site, _), mut classes) in by_window {
        scan(site, &mut classes, &mut flips, &mut sites);
    }
    FrontierReport {
        flips,
        sites: sites.into_iter().collect(),
    }
}

// ---------------------------------------------------------------------
// The forge
// ---------------------------------------------------------------------

/// The one injection config — forged runs, the from-boot tables and the
/// examples all boot it: flight-record quietly (small ring, kernel
/// auto-dump off) so an uncontrolled crash can hand its trace tail to
/// [`InjectionRecord::from_run`], retain the axiom so each injection's
/// MTTR decomposes into its critical path, and keep the frame pool small
/// so restart image copies stay cheap (recovery semantics are unaffected).
pub fn forge_config(policy: PolicyKind) -> OsConfig {
    let mut cfg = OsConfig::with_policy(policy);
    cfg.vm_frames = 8192;
    cfg.trace = osiris_trace::TraceConfig {
        enabled: true,
        capacity: 2048,
        blackbox_tail: 0,
    };
    cfg.axiom = osiris_axiom::AxiomConfig::on();
    cfg
}

/// [`forge_config`] with the virtual-time watchdog armed — required for
/// [`FaultModel::FailSilent`] sweeps, whose faults produce no crash signal
/// and are only caught by deadlines, probes and reply-integrity checks.
pub fn forge_config_fail_silent(policy: PolicyKind) -> OsConfig {
    let mut cfg = forge_config(policy);
    cfg.watchdog = osiris_kernel::WatchdogConfig::on();
    cfg
}

/// Where a variant's fork boundary sits relative to its site's profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Boundary {
    /// Fork at the site's *first* execution step: the fault fires at the
    /// earliest opportunity (classic reachability-point injection).
    Reach,
    /// Fork at the site's *last* execution step. For most sites that is
    /// step 6 or 7 of [`ScriptWorkload`], after the whole bulk prefix — the
    /// regime where a from-boot rerun pays the full clean replay the fork
    /// skips. Sites the light steps never reach (VFS file reads, seeks,
    /// pipe reads and fsync) fork at step 2 or 5 and replay the bulk
    /// rounds after it.
    Late,
}

/// Forge configuration.
#[derive(Clone, Debug)]
pub struct ForgeConfig {
    /// The workload every run drives.
    pub script: ScriptWorkload,
    /// Fork-boundary placement for planned variants.
    pub inject_at: Boundary,
    /// Policies swept (column order of the campaign matrix).
    pub policies: Vec<PolicyKind>,
    /// Worker threads for the fan-out waves.
    pub threads: usize,
    /// Seed for the synthesized fault plans.
    pub seed: u64,
    /// Maximum injected runs across all waves. The FailStop matrix is
    /// never truncated (the 100%-coverage gate); the recovery-space wave
    /// and the frontier wave spend what remains.
    pub budget: usize,
    /// Whether to spend leftover budget refining the frontier.
    pub frontier_wave: bool,
    /// Whether to plan the [`FaultModel::FailSilent`] wave: the four
    /// fail-silent kinds (hang, stall, reply-drop, reply-corrupt) at each
    /// core server's earliest-reached site, across every policy. Requires
    /// an `os_config` with the watchdog enabled
    /// ([`forge_config_fail_silent`]) — asserted at planning time.
    pub fail_silent_wave: bool,
    /// OS configuration per policy (defaults to [`forge_config`]).
    pub os_config: fn(PolicyKind) -> OsConfig,
}

impl Default for ForgeConfig {
    fn default() -> Self {
        ForgeConfig {
            script: ScriptWorkload::default(),
            inject_at: Boundary::Reach,
            policies: PolicyKind::STANDARD.to_vec(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(1),
            seed: 42,
            budget: 512,
            frontier_wave: true,
            fail_silent_wave: false,
            os_config: forge_config,
        }
    }
}

/// Operational statistics of one forge execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct ForgeStats {
    /// Fresh boots adopted from a snapshot ([`Os::fork_from`]).
    pub forks: u64,
    /// Worker OS instances re-pointed at a snapshot without rebooting
    /// ([`Os::try_readopt`] — the steady-state path).
    pub readopts: u64,
    /// Total bytes copied back while adopting snapshots (the O(dirty)
    /// work).
    pub fork_dirty_bytes: u64,
    /// Snapshots taken across all prefix passes.
    pub snapshots: u64,
    /// Total manifest bytes across retained snapshots (chunks shared via
    /// the store are counted once per referencing manifest).
    pub snapshot_manifest_bytes: u64,
}

/// Everything a forge execution produced beyond the campaign itself.
#[derive(Clone, Debug)]
pub struct ForgeReport {
    /// Injected runs executed (base + refinement waves).
    pub injections: usize,
    /// Base-wave variants the budget dropped.
    pub dropped: usize,
    /// Frontier-refinement runs executed.
    pub refinements: usize,
    /// Fork/readopt/snapshot accounting.
    pub stats: ForgeStats,
    /// FailStop matrix coverage: (planned, executed) cells.
    pub fail_stop: (usize, usize),
    /// DoubleFault × DuringRecovery space coverage: (planned, executed).
    pub recovery_space: (usize, usize),
    /// FailSilent plan-space coverage: (planned, executed). Zero planned
    /// when the wave is off.
    pub fail_silent: (usize, usize),
    /// FailSilent coverage restricted to hang cells: (planned, executed).
    pub fail_silent_hang: (usize, usize),
    /// FailSilent coverage restricted to reply-drop cells.
    pub fail_silent_reply_drop: (usize, usize),
    /// Distinct observed (component, window, policy, model, outcome) cells.
    pub outcome_cells: usize,
    /// The frontier of the base wave.
    pub frontier: FrontierReport,
}

impl ForgeReport {
    /// FailStop matrix coverage in percent (100 when nothing was planned).
    pub fn fail_stop_pct(&self) -> f64 {
        pct(self.fail_stop)
    }

    /// DoubleFault × DuringRecovery coverage in percent.
    pub fn recovery_space_pct(&self) -> f64 {
        pct(self.recovery_space)
    }

    /// FailSilent plan-space coverage in percent.
    pub fn fail_silent_pct(&self) -> f64 {
        pct(self.fail_silent)
    }
}

/// The report as a JSON object (the `forge` half of
/// [`ForgeResult::report_json`]).
impl WriteJson for ForgeReport {
    fn write_json<S: Sink>(&self, w: &mut JsonWriter<S>) {
        w.begin_object();
        w.key("injections").u64(self.injections as u64);
        w.key("dropped").u64(self.dropped as u64);
        w.key("refinements").u64(self.refinements as u64);
        w.key("forks").u64(self.stats.forks);
        w.key("readopts").u64(self.stats.readopts);
        w.key("fork_dirty_bytes").u64(self.stats.fork_dirty_bytes);
        w.key("snapshots").u64(self.stats.snapshots);
        w.key("snapshot_manifest_bytes")
            .u64(self.stats.snapshot_manifest_bytes);
        w.key("fail_stop_cells").u64(self.fail_stop.0 as u64);
        w.key("fail_stop_coverage_pct").f64(self.fail_stop_pct());
        w.key("recovery_space_cells")
            .u64(self.recovery_space.0 as u64);
        w.key("recovery_space_coverage_pct")
            .f64(self.recovery_space_pct());
        w.key("fail_silent_cells").u64(self.fail_silent.0 as u64);
        w.key("fail_silent_coverage_pct")
            .f64(self.fail_silent_pct());
        w.key("fail_silent_hang_cells")
            .u64(self.fail_silent_hang.0 as u64);
        w.key("fail_silent_hang_coverage_pct")
            .f64(pct(self.fail_silent_hang));
        w.key("fail_silent_reply_drop_cells")
            .u64(self.fail_silent_reply_drop.0 as u64);
        w.key("fail_silent_reply_drop_coverage_pct")
            .f64(pct(self.fail_silent_reply_drop));
        w.key("outcome_cells").u64(self.outcome_cells as u64);
        w.key("frontier_flips").u64(self.frontier.flips);
        w.key("frontier_sites").begin_array();
        self.frontier.sites.iter().for_each(|s| w.str(s));
        w.end_array();
        w.end_object();
    }
}

fn pct((planned, executed): (usize, usize)) -> f64 {
    if planned == 0 {
        100.0
    } else {
        100.0 * executed as f64 / planned as f64
    }
}

/// A forge execution's full result: the campaign (matrix, axiom, metrics,
/// report) plus the forge report.
#[derive(Debug)]
pub struct ForgeResult {
    /// The campaign fed with every injected run, in plan order.
    pub campaign: Campaign,
    /// Coverage, frontier and fork accounting.
    pub report: ForgeReport,
}

impl ForgeResult {
    /// The combined report document.
    pub fn report_json(&self) -> JsonDoc<&Self> {
        JsonDoc(self)
    }
}

/// `{"campaign": …, "forge": …}`.
impl WriteJson for ForgeResult {
    fn write_json<S: Sink>(&self, w: &mut JsonWriter<S>) {
        w.begin_object();
        self.campaign.write_json(w.key("campaign"));
        self.report.write_json(w.key("forge"));
        w.end_object();
    }
}

struct RunArtifacts {
    record: InjectionRecord,
    dirty_bytes: u64,
    readopted: bool,
}

thread_local! {
    /// Per-worker OS instance, re-adopted across forks so the steady-state
    /// cost of one injection is an O(dirty) adoption, not a boot.
    static WORKER_OS: RefCell<Option<Os>> = const { RefCell::new(None) };
}

/// The campaign forge. See the module docs for the execution pipeline.
#[derive(Clone, Debug)]
pub struct Forge {
    config: ForgeConfig,
    script: ScriptWorkload,
}

impl Forge {
    /// A forge over `config`.
    pub fn new(config: ForgeConfig) -> Forge {
        let script = config.script;
        Forge { config, script }
    }

    /// The configuration.
    pub fn config(&self) -> &ForgeConfig {
        &self.config
    }

    /// The workload driven by every run.
    pub fn script(&self) -> &ScriptWorkload {
        &self.script
    }

    fn boundary_of(&self, obs: &SiteObs) -> usize {
        match self.config.inject_at {
            Boundary::Reach => obs.first_step,
            Boundary::Late => obs.last_step,
        }
    }

    /// Discovery + base planning: per-policy profiling runs, then the
    /// FailStop matrix followed by the full DoubleFault × DuringRecovery
    /// space (secondary × policy × primary window), truncated to the
    /// budget (FailStop is asserted to fit — the 100% gate is
    /// non-negotiable).
    pub fn plan(&self) -> ForgePlan {
        let profiles: Vec<SiteProfile> = self
            .config
            .policies
            .iter()
            .map(|&policy| {
                let mut os = Os::new((self.config.os_config)(policy));
                let profiler = Recorder::new();
                os.set_fault_hook(Box::new(profiler.clone()));
                let run = self
                    .script
                    .run_range_with(&mut os, 0..ScriptWorkload::STEPS, |s| profiler.set_step(s));
                assert!(
                    run.clean(),
                    "fault-free profiling run must pass cleanly under {policy}: {:?}",
                    run.outcome
                );
                profiler.profile()
            })
            .collect();

        let mut variants = Vec::new();
        // Wave 1: the FailStop matrix — every profiled server site × every
        // policy, persistent crash.
        for (policy_idx, &policy) in self.config.policies.iter().enumerate() {
            for (site, obs) in profiles[policy_idx].sites() {
                if !FORGE_SERVERS.contains(&site.component.as_str()) {
                    continue;
                }
                variants.push(ForgeVariant {
                    model: FaultModel::FailStop,
                    policy,
                    policy_idx,
                    plan: FaultPlan {
                        site: site.clone(),
                        kind: FaultKind::Crash,
                        transient: false,
                    },
                    primary: None,
                    boundary: self.boundary_of(obs),
                    window_open: obs.window_open,
                    primary_window: "-".into(),
                });
            }
        }
        let fail_stop = variants.len();
        assert!(
            fail_stop <= self.config.budget,
            "budget {} cannot cover the {fail_stop}-cell FailStop matrix",
            self.config.budget
        );
        // Wave 2: the full DoubleFault × DuringRecovery space. Each
        // synthesized recovery-path fault is paired with a primary crash
        // in every primary window (component) and swept across policies.
        // Policy-major order keeps consecutive jobs on one policy, so
        // worker OS instances re-adopt instead of rebooting on a config
        // mismatch.
        for (policy_idx, &policy) in self.config.policies.iter().enumerate() {
            for model in [FaultModel::DuringRecovery, FaultModel::DoubleFault] {
                let secondaries = plan_faults(&SiteProfile::default(), model, self.config.seed);
                for sec in &secondaries {
                    for window in PRIMARY_WINDOWS {
                        let Some((psite, pobs)) = profiles[policy_idx].first_site_of(window) else {
                            continue;
                        };
                        variants.push(ForgeVariant {
                            model,
                            policy,
                            policy_idx,
                            plan: sec.clone(),
                            primary: Some(FaultPlan {
                                site: psite,
                                kind: FaultKind::Crash,
                                transient: true,
                            }),
                            boundary: self.boundary_of(&pobs),
                            // Recovery-path sites only execute during a
                            // recovery; the kernel's conduct always runs
                            // under an open intent.
                            window_open: true,
                            primary_window: window.to_string(),
                        });
                    }
                }
            }
        }
        // Wave 3 (optional): the fail-silent universe. The four kinds at
        // each core server's earliest-reached site, per policy. The stall
        // factor is drawn once per (policy, server) from the forge seed, so
        // the plan — and every derived artifact — is seed-deterministic.
        if self.config.fail_silent_wave {
            for (policy_idx, &policy) in self.config.policies.iter().enumerate() {
                assert!(
                    (self.config.os_config)(policy).watchdog.enabled,
                    "fail_silent_wave needs a watchdog-enabled os_config \
                     (see forge_config_fail_silent); without deadlines these \
                     faults are undetectable and every run wedges"
                );
                let mut rng = Rng::new(self.config.seed);
                for server in FORGE_SERVERS {
                    let Some((site, obs)) = profiles[policy_idx].first_site_of(server) else {
                        continue;
                    };
                    let factor = 3 + rng.below(6) as u32;
                    for kind in [
                        FaultKind::Hang,
                        FaultKind::Stall(factor),
                        FaultKind::ReplyDrop,
                        FaultKind::ReplyCorrupt,
                    ] {
                        variants.push(ForgeVariant {
                            model: FaultModel::FailSilent,
                            policy,
                            policy_idx,
                            plan: FaultPlan {
                                site: site.clone(),
                                kind,
                                transient: false,
                            },
                            primary: None,
                            boundary: self.boundary_of(&obs),
                            window_open: obs.window_open,
                            primary_window: "-".into(),
                        });
                    }
                }
            }
        }
        let deferred = variants.split_off(variants.len().min(self.config.budget));
        ForgePlan {
            profiles,
            variants,
            deferred,
        }
    }

    /// Plans and executes the full campaign: base waves, then (budget
    /// permitting) a frontier-refinement wave.
    pub fn run(&self) -> ForgeResult {
        let plan = self.plan();
        self.run_plan(&plan)
    }

    /// Executes a prepared plan.
    pub fn run_plan(&self, plan: &ForgePlan) -> ForgeResult {
        osiris_kernel::install_quiet_panic_hook();
        let mut stats = ForgeStats::default();
        let mut store = ChunkStore::new();
        let snapshots = self.snapshot_prefixes(&mut store, &plan.variants, &mut stats);

        let mut coverage = CoverageMap::default();
        for v in plan.variants.iter().chain(plan.deferred.iter()) {
            coverage.plan(v);
        }
        let base_arts = self.run_wave(&plan.variants, &snapshots, &store);
        let base_outcomes: Vec<Outcome> = base_arts.iter().map(|a| a.record.outcome).collect();
        let front = frontier(&plan.variants, &base_outcomes);

        // Wave 3: spend leftover budget refining the frontier — transient
        // variants of flipped fail-stop sites, hang-primary windows for
        // flipped recovery-path cells.
        let remaining = self.config.budget.saturating_sub(plan.variants.len());
        let refinements = if self.config.frontier_wave && remaining > 0 {
            let mut refine = Vec::new();
            let on_frontier = |v: &ForgeVariant| {
                front
                    .sites
                    .contains(&format!("{}:{}", v.plan.site.component, v.plan.site.site))
            };
            let mut seen = BTreeSet::new();
            for v in plan.variants.iter().filter(|v| on_frontier(v)) {
                let refined = match v.model {
                    FaultModel::FailStop => ForgeVariant {
                        model: FaultModel::TransientFailStop,
                        plan: FaultPlan {
                            transient: true,
                            ..v.plan.clone()
                        },
                        ..v.clone()
                    },
                    FaultModel::DuringRecovery | FaultModel::DoubleFault => {
                        let Some(primary) = &v.primary else { continue };
                        ForgeVariant {
                            primary: Some(FaultPlan {
                                kind: FaultKind::Hang,
                                ..primary.clone()
                            }),
                            primary_window: format!("{}+hang", v.primary_window),
                            ..v.clone()
                        }
                    }
                    _ => continue,
                };
                // Refinements are bonus exploration of already-covered
                // frontier cells: they are not pre-declared in the
                // coverage ledger, so a budget-truncated refinement wave
                // never drags the sweep-completeness gates below 100%.
                if !coverage.is_planned(&refined) && seen.insert(refined.cell()) {
                    refine.push(refined);
                }
            }
            refine.truncate(remaining);
            refine
        } else {
            Vec::new()
        };
        let refine_arts = self.run_wave(&refinements, &snapshots, &store);

        // The campaign is the records in plan order — base wave, then
        // refinements — as `run_parallel` returns them, so records, matrix
        // and the derived axiom chain are the same on every thread count.
        let total = plan.variants.len() + refinements.len();
        let mut records = Vec::with_capacity(total);
        let mut per_policy: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (v, art) in plan
            .variants
            .iter()
            .chain(&refinements)
            .zip(base_arts.into_iter().chain(refine_arts))
        {
            coverage.observe(v, &art.record);
            stats.fork_dirty_bytes += art.dirty_bytes;
            let slot = per_policy.entry(art.record.policy.clone()).or_default();
            if art.readopted {
                stats.readopts += 1;
                slot.1 += 1;
            } else {
                stats.forks += 1;
                slot.0 += 1;
            }
            records.push(art.record);
        }

        // Export the osiris_forge_* families after the campaign's own, so
        // one scrape carries campaign and forge series.
        let mut m = Registry::default();
        let mut count = |name: &str, help: &str, labels: &[(&str, &str)], n: u64| {
            let c = m.counter(name, help, labels);
            m.add(c, n);
        };
        for (policy, (forks, readopts)) in &per_policy {
            count(
                "osiris_forge_forks_total",
                "Fresh fork-from-snapshot boots by policy",
                &[("policy", policy)],
                *forks,
            );
            count(
                "osiris_forge_readopts_total",
                "Worker OS snapshot re-adoptions (boot-free forks) by policy",
                &[("policy", policy)],
                *readopts,
            );
        }
        count(
            "osiris_forge_fork_dirty_bytes_total",
            "Bytes copied back adopting snapshots (the O(dirty) fork work)",
            &[],
            stats.fork_dirty_bytes,
        );
        count(
            "osiris_forge_snapshots_total",
            "Prefix snapshots taken",
            &[],
            stats.snapshots,
        );
        let cells = m.gauge(
            "osiris_forge_cells_covered",
            "Distinct (component, window, policy, model, outcome) cells observed",
            &[],
        );
        m.set(cells, coverage.cells_covered() as u64);
        let flips = m.counter(
            "osiris_forge_frontier_flips_total",
            "Outcome-class flips between neighboring variants",
            &[],
        );
        m.add(flips, front.flips);
        let campaign = Campaign::new("forge", FaultModel::FailStop, records, m);

        let report = ForgeReport {
            injections: total,
            dropped: plan.deferred.len(),
            refinements: refinements.len(),
            stats,
            fail_stop: coverage.coverage(&[FaultModel::FailStop]),
            recovery_space: coverage
                .coverage(&[FaultModel::DuringRecovery, FaultModel::DoubleFault]),
            fail_silent: coverage.coverage(&[FaultModel::FailSilent]),
            fail_silent_hang: coverage.kind_coverage(FaultModel::FailSilent, "hang"),
            fail_silent_reply_drop: coverage.kind_coverage(FaultModel::FailSilent, "reply-drop"),
            outcome_cells: coverage.cells_covered(),
            frontier: front,
        };
        ForgeResult { campaign, report }
    }

    /// Executes the plan's variants **from boot** — no snapshots, no
    /// forks: every run boots a fresh OS, replays the clean prefix up to
    /// the variant's boundary, arms the injector there and runs the
    /// suffix. This is the classic campaign cost model and it produces
    /// the same records the forged sweep produces (fork equivalence) —
    /// the reference the `gates` fork-equivalence rows compare against.
    pub fn run_baseline(&self, variants: &[ForgeVariant]) -> Vec<InjectionRecord> {
        osiris_kernel::install_quiet_panic_hook();
        run_parallel(variants.to_vec(), self.config.threads, |v| {
            let mut os = Os::new((self.config.os_config)(v.policy));
            let prefix = self.script.run_range(&mut os, 0..v.boundary);
            assert!(prefix.clean(), "clean prefix replay: {:?}", prefix.outcome);
            self.execute_on(&mut os, &v, v.boundary)
        })
    }

    /// One clean prefix run per policy, snapshotting at every boundary a
    /// variant forks from. Later snapshots chain off earlier ones, so each
    /// additional boundary costs O(dirty-since-previous).
    fn snapshot_prefixes(
        &self,
        store: &mut ChunkStore,
        variants: &[ForgeVariant],
        stats: &mut ForgeStats,
    ) -> BTreeMap<(usize, usize), OsSnapshot> {
        let mut boundaries: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for v in variants {
            boundaries
                .entry(v.policy_idx)
                .or_default()
                .insert(v.boundary);
        }
        let mut snaps: BTreeMap<(usize, usize), OsSnapshot> = BTreeMap::new();
        for (policy_idx, bounds) in boundaries {
            let policy = self.config.policies[policy_idx];
            let mut os = Os::new((self.config.os_config)(policy));
            let mut at = 0;
            let mut prev: Option<(usize, usize)> = None;
            for b in bounds {
                let run = self.script.run_range(&mut os, at..b);
                assert!(
                    run.clean(),
                    "clean prefix run failed under {policy}: {:?}",
                    run.outcome
                );
                let snap = os.snapshot_into(store, prev.and_then(|k| snaps.get(&k)));
                stats.snapshots += 1;
                stats.snapshot_manifest_bytes += snap.manifest_bytes() as u64;
                snaps.insert((policy_idx, b), snap);
                prev = Some((policy_idx, b));
                at = b;
            }
        }
        snaps
    }

    /// Fans a wave of variants out over the worker pool. Result order is
    /// plan order (a [`run_parallel`] guarantee).
    fn run_wave(
        &self,
        variants: &[ForgeVariant],
        snapshots: &BTreeMap<(usize, usize), OsSnapshot>,
        store: &ChunkStore,
    ) -> Vec<RunArtifacts> {
        run_parallel(variants.to_vec(), self.config.threads, |v| {
            let snap = snapshots
                .get(&(v.policy_idx, v.boundary))
                .expect("snapshot exists for every planned boundary");
            let (mut os, restore, readopted) = WORKER_OS.with(|cell| {
                if let Some(mut os) = cell.borrow_mut().take() {
                    if let Some(rs) = os.try_readopt(snap, store) {
                        return (os, rs, true);
                    }
                }
                let (os, rs) = Os::fork_from(snap, store);
                (os, rs, false)
            });
            let record = self.execute_on(&mut os, &v, v.boundary);
            // Scrub the spent injector before caching the worker OS.
            os.set_fault_hook(Box::new(NoFaults));
            WORKER_OS.with(|cell| *cell.borrow_mut() = Some(os));
            RunArtifacts {
                record,
                dirty_bytes: restore.bytes_restored as u64,
                readopted,
            }
        })
    }

    /// Arms the variant's injector on `os`, drives the script from
    /// `from_step`, and classifies the run into an [`InjectionRecord`] —
    /// identical bookkeeping for forked and from-boot runs.
    fn execute_on(&self, os: &mut Os, v: &ForgeVariant, from_step: usize) -> InjectionRecord {
        let hook: Box<dyn FaultHook> = match &v.primary {
            Some(p) => Box::new(DoubleInjector::new(p, &v.plan)),
            None => Box::new(Injector::new(&v.plan)),
        };
        os.set_fault_hook(hook);
        let run = self.script.run_range(os, from_step..ScriptWorkload::STEPS);
        InjectionRecord::from_run(os, &run.outcome, &v.plan, v.policy)
    }
}
