//! The assembled OSIRIS operating system: six components on the
//! microkernel, speaking [`OsMsg`], exposed to workloads as an
//! [`OsEngine`].

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use osiris_axiom::AxiomError;
use osiris_checkpoint::{ChunkStore, RestoreStats};
use osiris_core::{EscalationPolicy, PolicyKind, RecoveryPolicy};
use osiris_kernel::abi::{Pid, SysReply, Syscall};
use osiris_kernel::{
    cost, ComponentReport, Endpoint, FaultHook, Instrumentation, Kernel, KernelConfig,
    KernelMetrics, KernelSnapshot, OsEngine, ShutdownKind, SyscallId,
};
use osiris_trace::chrome::ChromeTrace;
use osiris_trace::JsonDoc;

use crate::disk::DiskDriver;
use crate::ds::DataStore;
use crate::pm::ProcessManager;
use crate::proto::OsMsg;
use crate::rs::RecoveryServer;
use crate::topology::Topology;
use crate::vfs::VfsServer;
use crate::vm::VmManager;

/// Configuration of the assembled OS.
pub struct OsConfig {
    /// Recovery policy (one of the four standard policies).
    pub policy: PolicyKind,
    /// A custom policy overriding `policy` if set (paper §VII:
    /// "composable recovery policies").
    pub custom_policy: Option<Box<dyn RecoveryPolicy>>,
    /// Checkpointing instrumentation mode.
    pub instrumentation: Instrumentation,
    /// Size of the VM frame pool.
    pub vm_frames: u64,
    /// VFS block-cache capacity, in blocks.
    pub vfs_cache_blocks: usize,
    /// VFS cooperative thread count.
    pub vfs_threads: u32,
    /// Recovery escalation policy driven by RS: sliding-window restart
    /// budget, exponential restart backoff, quarantine, controlled
    /// shutdown. `EscalationPolicy::unbounded()` restores the legacy
    /// restart-forever behaviour.
    pub escalation: EscalationPolicy,
    /// Shutdown grace budget (paper §VII): number of message deliveries the
    /// kernel keeps serving after a controlled shutdown is decided, so
    /// applications can persist state. Only *save-class* syscalls (data
    /// store writes, file writes/sync/close) are admitted during grace;
    /// everything else fails with `ESHUTDOWN`.
    pub shutdown_grace: u32,
    /// Flight-recorder configuration (see `osiris_trace::TraceConfig`).
    /// Disabled by default; `TraceConfig::on()` records everything.
    pub trace: osiris_trace::TraceConfig,
    /// Metrics-registry configuration (see `osiris_metrics::MetricsConfig`).
    /// Enabled by default — [`Os::metrics`] and [`Os::reports`] are views
    /// over the registry, so disabling it zeroes them too.
    pub metrics: osiris_metrics::MetricsConfig,
    /// Axiom (authoritative control-plane log) configuration
    /// (see `osiris_axiom::AxiomConfig`). Disabled by default —
    /// `AxiomConfig::on()` records every control-plane transition in a
    /// hash-chained, replayable event log.
    pub axiom: osiris_axiom::AxiomConfig,
    /// Virtual-time telemetry sampler configuration (see
    /// `osiris_metrics::TimeseriesConfig`). Disabled by default —
    /// `TimeseriesConfig::on()` snapshots the span-latency and
    /// crash/recovery series every Δ virtual cycles for the
    /// `timeseries.json` export and the Chrome counter lanes.
    pub timeseries: osiris_metrics::TimeseriesConfig,
    /// Virtual-time watchdog configuration (see
    /// `osiris_kernel::WatchdogConfig`). Disabled by default —
    /// `WatchdogConfig::on()` arms per-request deadlines, heartbeat-probes
    /// expired ones to tell hung from slow, re-drives idempotent failures
    /// with deterministic backoff, and rejects integrity-mismatched replies.
    pub watchdog: osiris_kernel::WatchdogConfig,
}

impl Default for OsConfig {
    fn default() -> Self {
        OsConfig {
            policy: PolicyKind::Enhanced,
            custom_policy: None,
            instrumentation: Instrumentation::WindowGated,
            vm_frames: 65_536,
            vfs_cache_blocks: 64,
            vfs_threads: 4,
            escalation: EscalationPolicy::default(),
            shutdown_grace: 0,
            trace: osiris_trace::TraceConfig::default(),
            metrics: osiris_metrics::MetricsConfig::default(),
            axiom: osiris_axiom::AxiomConfig::default(),
            timeseries: osiris_metrics::TimeseriesConfig::default(),
            watchdog: osiris_kernel::WatchdogConfig::default(),
        }
    }
}

impl std::fmt::Debug for OsConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OsConfig")
            .field("policy", &self.policy)
            .field("instrumentation", &self.instrumentation)
            .field("vm_frames", &self.vm_frames)
            .finish()
    }
}

impl Clone for OsConfig {
    fn clone(&self) -> Self {
        OsConfig {
            policy: self.policy,
            custom_policy: self.custom_policy.as_ref().map(|p| p.clone_box()),
            instrumentation: self.instrumentation,
            vm_frames: self.vm_frames,
            vfs_cache_blocks: self.vfs_cache_blocks,
            vfs_threads: self.vfs_threads,
            escalation: self.escalation,
            shutdown_grace: self.shutdown_grace,
            trace: self.trace.clone(),
            metrics: self.metrics,
            axiom: self.axiom,
            timeseries: self.timeseries,
            watchdog: self.watchdog,
        }
    }
}

impl OsConfig {
    /// Convenience: default configuration with the given policy.
    pub fn with_policy(policy: PolicyKind) -> Self {
        OsConfig {
            policy,
            ..Default::default()
        }
    }
}

/// The assembled OSIRIS OS.
pub struct Os {
    kernel: Kernel<OsMsg>,
    topo: Topology,
    pending_refusals: Vec<(SyscallId, Pid, SysReply)>,
    /// The boot configuration, retained so [`Os::fork_from`] can reboot an
    /// identical twin before adopting a snapshot.
    cfg: OsConfig,
}

impl std::fmt::Debug for Os {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Os").field("kernel", &self.kernel).finish()
    }
}

impl Os {
    /// Boots the OS: registers RS, PM, VM, VFS, DS and the disk driver in
    /// the canonical topology and runs their initialization.
    pub fn new(cfg: OsConfig) -> Self {
        let policy = match &cfg.custom_policy {
            Some(p) => p.clone_box(),
            None => cfg.policy.instantiate(),
        };
        let kcfg = KernelConfig {
            policy,
            instrumentation: cfg.instrumentation,
            shutdown_grace: cfg.shutdown_grace,
            trace: cfg.trace.clone(),
            metrics: cfg.metrics,
            axiom: cfg.axiom,
            timeseries: cfg.timeseries,
            watchdog: cfg.watchdog,
        };
        let mut kernel = Kernel::new(kcfg);
        let topo = Topology::CANONICAL;
        let rs = kernel.register(Box::new(RecoveryServer::new(topo, cfg.escalation)), true);
        let pm = kernel.register(Box::new(ProcessManager::new(topo)), false);
        let vm = kernel.register(Box::new(VmManager::new(topo, cfg.vm_frames)), false);
        let vfs = kernel.register(
            Box::new(VfsServer::new(topo, cfg.vfs_cache_blocks, cfg.vfs_threads)),
            false,
        );
        let ds = kernel.register(Box::new(DataStore::new(topo)), false);
        let disk = kernel.register(Box::new(DiskDriver::default()), false);
        debug_assert_eq!(
            (rs, pm, vm, vfs, ds, disk),
            (topo.rs, topo.pm, topo.vm, topo.vfs, topo.ds, topo.disk),
            "registration order must match the canonical topology"
        );
        kernel.init_components();
        Os {
            kernel,
            topo,
            pending_refusals: Vec::new(),
            cfg,
        }
    }

    /// Boots with defaults under the given policy.
    pub fn boot(policy: PolicyKind) -> Self {
        Os::new(OsConfig::with_policy(policy))
    }

    /// Reboots a machine from a recorded axiom: verifies the chain,
    /// reduces it to the control state it encodes, boots a fresh OS under
    /// `cfg`, and adopts the recorded log + state as the authoritative
    /// history (simulated reboot persistence — the axiom survives, the
    /// volatile in-flight context does not).
    ///
    /// A non-empty log must have been recorded under this configuration:
    /// its genesis (component count, config digest) must equal the booted
    /// machine's, else [`AxiomError::ConfigMismatch`]. The adopted chain
    /// continues from the recorded head: events emitted after replay extend
    /// the same hash chain.
    pub fn replay(cfg: OsConfig, axiom_bytes: &[u8]) -> Result<Self, AxiomError> {
        let log = osiris_axiom::AxiomLog::from_bytes(axiom_bytes)?;
        let state = osiris_axiom::reduce(log.records());
        let mut os = Os::new(cfg);
        let booted = os.control_state();
        if !log.is_empty()
            && (state.comps, state.config_digest) != (booted.comps, booted.config_digest)
        {
            return Err(AxiomError::ConfigMismatch);
        }
        os.kernel.adopt_axiom(log, state);
        Ok(os)
    }

    /// The authoritative control-plane log (empty unless
    /// [`OsConfig::axiom`] enabled retention).
    pub fn axiom(&self) -> &osiris_axiom::AxiomLog {
        self.kernel.axiom()
    }

    /// The axiom serialized to its crash-consistent on-disk format.
    pub fn axiom_bytes(&self) -> Vec<u8> {
        self.kernel.axiom_bytes()
    }

    /// Verifies the axiom's hash chain end to end, counting the check in
    /// the chain-verification counters.
    pub fn verify_axiom(&mut self) -> Result<(), AxiomError> {
        self.kernel.verify_axiom()
    }

    /// Bisects this run's axiom against a previously `recorded` one and
    /// returns the first diverging event, counting a divergence in
    /// `osiris_axiom_replay_divergence_total`. `None` means this run
    /// re-derived the recorded history exactly.
    pub fn check_replay_divergence(
        &mut self,
        recorded: &[osiris_axiom::AxiomRecord],
    ) -> Option<osiris_axiom::Divergence> {
        self.kernel.check_replay_divergence(recorded)
    }

    /// The control state maintained by the kernel's live fold over the
    /// axiom event stream. `osiris_axiom::reduce(os.axiom().records())`
    /// reconstructs exactly this value when retention is enabled.
    pub fn control_state(&self) -> &osiris_axiom::ControlState {
        self.kernel.control_state()
    }

    /// Installs a fault-injection hook.
    pub fn set_fault_hook(&mut self, hook: Box<dyn FaultHook>) {
        self.kernel.set_fault_hook(hook);
    }

    /// The component topology.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// Which server owns each syscall.
    pub fn route(&self, call: &Syscall) -> Endpoint {
        match call {
            Syscall::Spawn { .. }
            | Syscall::Fork
            | Syscall::Exec { .. }
            | Syscall::Exit { .. }
            | Syscall::WaitPid { .. }
            | Syscall::WaitAny
            | Syscall::Kill { .. }
            | Syscall::GetPid
            | Syscall::GetPPid
            | Syscall::SigMask { .. }
            | Syscall::SigPending
            | Syscall::Sleep { .. } => self.topo.pm,
            Syscall::Brk { .. }
            | Syscall::Mmap { .. }
            | Syscall::Munmap { .. }
            | Syscall::VmStat => self.topo.vm,
            Syscall::Open { .. }
            | Syscall::Close { .. }
            | Syscall::Read { .. }
            | Syscall::Write { .. }
            | Syscall::Seek { .. }
            | Syscall::Unlink { .. }
            | Syscall::Mkdir { .. }
            | Syscall::ReadDir { .. }
            | Syscall::Stat { .. }
            | Syscall::Rename { .. }
            | Syscall::Pipe
            | Syscall::Dup { .. }
            | Syscall::Fsync { .. } => self.topo.vfs,
            Syscall::DsPut { .. }
            | Syscall::DsGet { .. }
            | Syscall::DsDel { .. }
            | Syscall::DsList { .. } => self.topo.ds,
        }
    }

    /// Per-component reports (window coverage, memory, crash counts).
    pub fn reports(&self) -> Vec<ComponentReport> {
        self.kernel
            .series()
            .component_reports(&self.kernel.owners())
    }

    /// Kernel-wide metrics (a view assembled from the registry).
    pub fn metrics(&self) -> KernelMetrics {
        self.kernel.series().metrics()
    }

    /// A deep copy of every registry family for exposition, with the heap,
    /// window and clone-pool series computed now.
    pub fn metrics_snapshot(&self) -> osiris_metrics::MetricsSnapshot {
        self.kernel.series().snapshot(&self.kernel.owners())
    }

    /// The registry rendered in Prometheus text exposition format.
    pub fn metrics_prometheus(&self) -> String {
        osiris_metrics::prom::render_prometheus(&self.metrics_snapshot())
    }

    /// The registry as a JSON document.
    pub fn metrics_json(&self) -> JsonDoc<osiris_metrics::MetricsSnapshot> {
        JsonDoc(self.metrics_snapshot())
    }

    /// Writes both exposition formats to `<base>.prom` and `<base>.json`,
    /// creating parent directories as needed. Returns the paths written.
    pub fn write_metrics(&self, base: &Path) -> std::io::Result<(PathBuf, PathBuf)> {
        osiris_metrics::write_exports(&self.metrics_snapshot(), base)
    }

    /// Direct kernel access for tests and experiment harnesses.
    pub fn kernel(&self) -> &Kernel<OsMsg> {
        &self.kernel
    }

    /// The kernel's flight recorder.
    pub fn tracer(&self) -> &osiris_trace::Tracer {
        self.kernel.tracer()
    }

    /// The recorded event stream rendered as deterministic text.
    pub fn trace_text(&self) -> String {
        self.kernel.trace_text()
    }

    /// The recorded event stream as a Chrome `trace_event` JSON document
    /// (load the serialized form in `chrome://tracing` or Perfetto).
    pub fn chrome_trace(&self) -> ChromeTrace<'_, osiris_metrics::TimeseriesSampler> {
        self.kernel.chrome_trace()
    }

    /// The post-mortem black box (last events per component), if tracing is
    /// enabled.
    pub fn blackbox(&self) -> Option<String> {
        self.kernel.blackbox()
    }

    /// The virtual-time telemetry sampler (empty unless
    /// [`OsConfig::timeseries`] enabled sampling).
    pub fn timeseries(&self) -> &osiris_metrics::TimeseriesSampler {
        self.kernel.series().sampler()
    }

    /// The recorded telemetry time series as a JSON document, after a final
    /// flush sample at the current virtual time.
    pub fn timeseries_json(&mut self) -> JsonDoc<&osiris_metrics::TimeseriesSampler> {
        self.kernel.flush_timeseries();
        self.kernel.series().sampler().to_json()
    }

    /// Writes every export of the run into `dir` under fixed names:
    /// `trace.json` (Chrome trace), `metrics.prom` / `metrics.json`,
    /// `timeseries.json` and `axiom.bin`. Two same-seed runs produce
    /// byte-identical trees as long as both export at the same point —
    /// before [`Os::verify_axiom`], which bumps registry counters.
    pub fn write_exports(&mut self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut trace = BufWriter::new(File::create(dir.join("trace.json"))?);
        self.chrome_trace().write_to(&mut trace)?;
        trace.flush()?;
        self.write_metrics(&dir.join("metrics"))?;
        let timeseries = dir.join("timeseries.json");
        std::fs::write(timeseries, self.timeseries_json().pretty())?;
        std::fs::write(dir.join("axiom.bin"), self.axiom_bytes())
    }

    /// Cross-component consistency audit. Call at quiescence (no in-flight
    /// syscalls). Returns human-readable violations; empty means the global
    /// state is consistent.
    ///
    /// This is the experimental check behind the paper's core claim: under
    /// the pessimistic/enhanced policies recovery never leaves
    /// cross-component state inconsistent, while the stateless/naive
    /// baselines readily do.
    pub fn audit(&self) -> Vec<String> {
        let k = &self.kernel;
        let mut facts = Facts::default();
        let (pm, heap) = k.server::<ProcessManager>(self.topo.pm).expect("PM");
        pm.facts(heap, &mut facts);
        let (vm, heap) = k.server::<VmManager>(self.topo.vm).expect("VM");
        vm.facts(heap, &mut facts);
        let (vfs, heap) = k.server::<VfsServer>(self.topo.vfs).expect("VFS");
        vfs.facts(heap, &mut facts);
        let violations = facts.violations();
        if !violations.is_empty() {
            // A consistency violation is exactly what the black box exists
            // for: dump the recent event history alongside the findings.
            if let Some(dump) = self.blackbox() {
                eprintln!(
                    "[os t={}] audit found {} violation(s):\n{}",
                    self.kernel.now(),
                    violations.len(),
                    dump
                );
            }
        }
        violations
    }

    /// The configuration this OS was booted with.
    pub fn config(&self) -> &OsConfig {
        &self.cfg
    }

    /// Captures the OS into `store` (shared with other snapshots; chunks
    /// dedupe across them). Passing the previous snapshot of the *same* OS
    /// as `prev` makes the capture O(dirty): objects unchanged since `prev`
    /// reshare its chunks without rehashing.
    ///
    /// # Panics
    ///
    /// Panics unless the OS is quiescent and fault-free (no recovery or
    /// shutdown in flight, no pending replies, every component alive with a
    /// closed recovery window).
    pub fn snapshot_into(&self, store: &mut ChunkStore, prev: Option<&OsSnapshot>) -> OsSnapshot {
        assert!(
            self.pending_refusals.is_empty(),
            "snapshot with undelivered shutdown refusals"
        );
        OsSnapshot {
            cfg: self.cfg.clone(),
            kernel: self.kernel.snapshot_into(store, prev.map(|p| &p.kernel)),
        }
    }

    /// Forks a new OS from a snapshot whose chunks live in `store`. Boots a
    /// fresh twin from the snapshot's retained configuration — the boot is
    /// deterministic, so the twin's pristine images and clone-pool store
    /// re-derive the donor's exactly (asserted) — then adopts the snapshot:
    /// only objects the donor dirtied after boot are copied (O(dirty)).
    /// The fork is byte-equivalent to the donor at capture time: running
    /// the same steps produces identical metrics, axiom, trace and
    /// telemetry exports. Returns the forked OS and the restore cost.
    pub fn fork_from(snap: &OsSnapshot, store: &ChunkStore) -> (Os, RestoreStats) {
        let mut os = Os::new(snap.cfg.clone());
        // The fault-free-prefix invariant: a same-config boot reproduces
        // the donor's boot-time clone-pool store bit for bit. If this
        // fires, boot is not deterministic and forked runs cannot be
        // trusted to reproduce from-boot runs.
        assert_eq!(
            os.kernel.cas_fingerprint(),
            snap.kernel.cas_fingerprint(),
            "forked boot diverged from the snapshot donor's boot"
        );
        let stats = os.kernel.adopt_snapshot(&snap.kernel, store);
        (os, stats)
    }

    /// Re-targets this OS at `snap` without rebooting, if its current state
    /// permits adoption (same topology and configuration lineage, every
    /// component alive with a closed window and donor-equal pristine
    /// images). Returns the restore cost, or `None` when a fresh
    /// [`Os::fork_from`] is required. This is the campaign forge's hot
    /// path: one booted worker OS serves many fault variants.
    pub fn try_readopt(&mut self, snap: &OsSnapshot, store: &ChunkStore) -> Option<RestoreStats> {
        if !config_compatible(&self.cfg, &snap.cfg) || !self.kernel.can_adopt(&snap.kernel) {
            return None;
        }
        self.pending_refusals.clear();
        Some(self.kernel.adopt_snapshot(&snap.kernel, store))
    }
}

/// Whether two configurations boot byte-identical systems, for the purpose
/// of deciding snapshot adoption. Conservative: custom policies compare by
/// name only, so two distinct custom policies sharing a name must not be
/// mixed within one forge. Both structs are destructured without `..`, so a
/// field added later does not compile until it is compared here.
fn config_compatible(a: &OsConfig, b: &OsConfig) -> bool {
    let OsConfig {
        policy,
        custom_policy,
        instrumentation,
        vm_frames,
        vfs_cache_blocks,
        vfs_threads,
        escalation,
        shutdown_grace,
        trace,
        metrics,
        axiom,
        timeseries,
        watchdog,
    } = a;
    let osiris_trace::TraceConfig {
        enabled,
        capacity,
        blackbox_tail,
    } = trace;
    let policy_name =
        |p: &Option<Box<dyn RecoveryPolicy>>| p.as_ref().map(|p| p.name().to_string());
    *policy == b.policy
        && policy_name(custom_policy) == policy_name(&b.custom_policy)
        && *instrumentation == b.instrumentation
        && *vm_frames == b.vm_frames
        && *vfs_cache_blocks == b.vfs_cache_blocks
        && *vfs_threads == b.vfs_threads
        && *escalation == b.escalation
        && *shutdown_grace == b.shutdown_grace
        && *enabled == b.trace.enabled
        && *capacity == b.trace.capacity
        && *blackbox_tail == b.trace.blackbox_tail
        && *metrics == b.metrics
        && *axiom == b.axiom
        && *timeseries == b.timeseries
        && *watchdog == b.watchdog
}

/// A captured OS: the kernel snapshot plus the boot configuration needed to
/// fork twins. The chunks live in the store it was captured into
/// ([`Os::snapshot_into`]), and [`OsSnapshot::release`] must be called
/// before discarding the snapshot to return its references.
pub struct OsSnapshot {
    cfg: OsConfig,
    kernel: KernelSnapshot<OsMsg>,
}

impl OsSnapshot {
    /// Virtual time at capture.
    pub fn now(&self) -> u64 {
        self.kernel.now()
    }

    /// The configuration the donor was booted with.
    pub fn config(&self) -> &OsConfig {
        &self.cfg
    }

    /// Logical capture size: manifest bytes across all component heaps
    /// (shared chunks counted once per referencing manifest).
    pub fn manifest_bytes(&self) -> usize {
        self.kernel.manifest_bytes()
    }

    /// Releases the snapshot's chunk references back to `store`. Dropping
    /// a snapshot without releasing leaks resident chunks in the store.
    pub fn release(self, store: &mut ChunkStore) {
        self.kernel.release(store);
    }
}

/// Syscalls admitted during a shutdown grace window: just enough to let an
/// application persist its state (paper §VII).
fn is_save_syscall(call: &Syscall) -> bool {
    matches!(
        call,
        Syscall::DsPut { .. }
            | Syscall::Write { .. }
            | Syscall::Fsync { .. }
            | Syscall::Close { .. }
            | Syscall::Exit { .. }
    )
}

impl OsEngine for Os {
    fn submit(&mut self, sid: SyscallId, pid: Pid, call: Syscall) {
        if self.kernel.shutdown_pending() && !is_save_syscall(&call) {
            // Non-save calls are refused during the grace window so the
            // remaining budget is spent on state saving.
            self.pending_refusals.push((
                sid,
                pid,
                SysReply::Err(osiris_kernel::abi::Errno::ESHUTDOWN),
            ));
            return;
        }
        let dst = self.route(&call);
        self.kernel
            .send_user_request(dst, OsMsg::User { pid, call }, sid, pid);
    }

    fn pump(&mut self) -> Vec<(SyscallId, Pid, SysReply)> {
        self.kernel.pump();
        let replies = self.kernel.take_user_replies();
        if self.pending_refusals.is_empty() {
            return replies;
        }
        let mut all = std::mem::take(&mut self.pending_refusals);
        all.extend(replies);
        all
    }

    fn take_kill_events(&mut self) -> Vec<Pid> {
        self.kernel.take_kill_events()
    }

    fn fire_next_timer(&mut self) -> bool {
        if !self.kernel.fire_next_timer() {
            return false;
        }
        self.kernel.pump();
        true
    }

    fn shutdown_state(&self) -> Option<ShutdownKind> {
        self.kernel.shutdown_state().cloned()
    }

    fn now(&self) -> u64 {
        self.kernel.now()
    }

    fn charge_user(&mut self, units: u64) {
        self.kernel.charge(units * cost::USER_COMPUTE);
    }
}

/// A break one component's state shows by itself, with the key it is at.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Torn {
    /// A PM waiter for a pid PM does not know.
    PmWaiter(u32),
    /// A PM sleeper for a pid PM does not know.
    PmSleeper(u32),
    /// A VM address space whose frames and resident pages disagree.
    VmSpace(u32),
    /// A VFS open-file slot whose count the descriptor table contradicts.
    VfsRefs(u32),
    /// A VFS pipe whose endpoint counts the open-file table contradicts.
    VfsPipe(u32),
    /// A VFS data block of an inode that does not exist.
    VfsOrphanBlocks(u64),
}

/// What [`Os::audit`] reads of PM, VM and VFS: each server adds its own
/// facts, and [`Facts::violations`] holds them against each other.
#[derive(Debug, Default)]
pub(crate) struct Facts {
    // Pids: alive in PM, known to PM (zombies too), with a VM space, with a VFS fd.
    pub(crate) pm_alive: BTreeSet<u32>,
    pub(crate) pm_procs: BTreeSet<u32>,
    pub(crate) vm_spaces: BTreeSet<u32>,
    pub(crate) vfs_fd_pids: BTreeSet<u32>,
    // VM frames: owned by address spaces, free counter, free-list length, pool size.
    pub(crate) frames_owned: u64,
    pub(crate) frames_free: u64,
    pub(crate) free_list_len: u64,
    pub(crate) frames_total: u64,
    /// Every local break, in component order.
    pub(crate) torn: Vec<Torn>,
}

impl Facts {
    /// Every rule the facts break, one human-readable line each; empty
    /// means the state is globally consistent.
    pub(crate) fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for pid in self.pm_alive.difference(&self.vm_spaces) {
            v.push(format!("pid {pid} alive in PM but has no VM address space"));
        }
        for pid in self.vm_spaces.difference(&self.pm_procs) {
            v.push(format!("VM address space for pid {pid} unknown to PM"));
        }
        for pid in self.vfs_fd_pids.difference(&self.pm_alive) {
            v.push(format!("VFS descriptors held by non-live pid {pid}"));
        }
        for torn in &self.torn {
            let (fact, value) = match *torn {
                Torn::PmWaiter(pid) => ("pm: pm.torn_waiter", u64::from(pid)),
                Torn::PmSleeper(pid) => ("pm: pm.torn_sleeper", u64::from(pid)),
                Torn::VmSpace(pid) => ("vm: vm.torn", u64::from(pid)),
                Torn::VfsRefs(slot) => ("vfs: vfs.torn_refs", u64::from(slot)),
                Torn::VfsPipe(id) => ("vfs: vfs.torn_pipe", u64::from(id)),
                Torn::VfsOrphanBlocks(ino) => ("vfs: vfs.orphan_blocks", ino),
            };
            v.push(format!("{fact} (value {value})"));
        }
        let (owned, free, total) = (self.frames_owned, self.frames_free, self.frames_total);
        if owned + free != total {
            v.push(format!(
                "VM frame accounting broken: {owned} owned + {free} free != {total} total"
            ));
        }
        if self.free_list_len != free {
            v.push(format!(
                "VM free list ({}) disagrees with free counter ({free})",
                self.free_list_len
            ));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pid 1 alive everywhere, one orphan-free file system, 8 frames of
    /// which 3 are owned.
    fn clean() -> Facts {
        Facts {
            pm_alive: BTreeSet::from([1]),
            pm_procs: BTreeSet::from([1, 2]),
            vm_spaces: BTreeSet::from([1]),
            vfs_fd_pids: BTreeSet::from([1]),
            frames_owned: 3,
            frames_free: 5,
            free_list_len: 5,
            frames_total: 8,
            torn: Vec::new(),
        }
    }

    /// The one violation `plant` yields on a clean state.
    fn one(plant: impl FnOnce(&mut Facts)) -> String {
        let mut facts = clean();
        plant(&mut facts);
        let mut v = facts.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        v.remove(0)
    }

    #[test]
    fn clean_facts_break_no_rule() {
        assert!(clean().violations().is_empty());
        assert!(Facts::default().violations().is_empty());
    }

    #[test]
    fn a_live_pid_without_an_address_space_is_one_violation() {
        let v = one(|f| {
            f.pm_alive.insert(2);
        });
        assert_eq!(v, "pid 2 alive in PM but has no VM address space");
    }

    #[test]
    fn an_address_space_unknown_to_pm_is_one_violation() {
        let v = one(|f| {
            f.vm_spaces.insert(3);
        });
        assert_eq!(v, "VM address space for pid 3 unknown to PM");
    }

    #[test]
    fn descriptors_of_a_non_live_pid_are_one_violation() {
        let v = one(|f| {
            f.vfs_fd_pids.insert(2);
        });
        assert_eq!(v, "VFS descriptors held by non-live pid 2");
    }

    #[test]
    fn each_local_break_is_one_violation() {
        let cases = [
            (Torn::PmWaiter(4), "pm: pm.torn_waiter (value 4)"),
            (Torn::PmSleeper(5), "pm: pm.torn_sleeper (value 5)"),
            (Torn::VmSpace(6), "vm: vm.torn (value 6)"),
            (Torn::VfsRefs(7), "vfs: vfs.torn_refs (value 7)"),
            (Torn::VfsPipe(8), "vfs: vfs.torn_pipe (value 8)"),
            (Torn::VfsOrphanBlocks(9), "vfs: vfs.orphan_blocks (value 9)"),
        ];
        for (torn, want) in cases {
            assert_eq!(one(|f| f.torn.push(torn)), want);
        }
    }

    #[test]
    fn lost_frames_are_one_violation() {
        // One more frame owned and one fewer free keeps the free list and
        // its counter in step: only the pool total is broken.
        let v = one(|f| f.frames_owned += 1);
        assert_eq!(v, "VM frame accounting broken: 4 owned + 5 free != 8 total");
    }

    #[test]
    fn a_free_list_out_of_step_is_one_violation() {
        let v = one(|f| f.free_list_len -= 1);
        assert_eq!(v, "VM free list (4) disagrees with free counter (5)");
    }
}
