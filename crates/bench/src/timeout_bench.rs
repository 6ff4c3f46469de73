//! Fail-silent watchdog benchmark: hang-detection latency and the
//! armed-deadline hot path's allocation discipline.
//!
//! Two claims from the fail-silent design are enforced here:
//!
//! * **Detection latency is bounded.** A wedged component is declared dead
//!   within its armed deadline plus one heartbeat period: deadlines are
//!   serviced at every pump iteration and after every timer fire, so the
//!   only slack past the deadline itself is the gap to the next timer —
//!   the RS heartbeat in the worst (fully idle) case. The benchmark wedges
//!   a server repeatedly and checks the kernel's
//!   `osiris_watchdog_detection_latency_cycles` histogram against the
//!   bound, exact-max included.
//! * **Arming is allocation-free in steady state.** The watchdog slot table
//!   is preallocated at boot ([`WatchdogConfig::CAPACITY`]), so arming and
//!   disarming a deadline on every request must add **zero** allocator
//!   calls over the same workload with the watchdog disabled. Boot-time
//!   costs differ (the slot table itself), so the benchmark measures the
//!   *increment*: allocator calls of a double-length run minus a
//!   single-length run, per mode — identical increments mean the armed
//!   hot path never touches the allocator.
//!
//! `bench_timeouts --check` runs the scaled-down config and asserts both
//! claims; the full run also writes `BENCH_timeouts.json`.

use osiris_kernel::{
    cost, FaultEffect, FaultHook, Host, Probe, ProgramRegistry, RunOutcome, WatchdogConfig,
};
use osiris_metrics::SeriesValue;
use osiris_servers::{Os, OsConfig};

use crate::json::{Json, JsonObj};

/// The detection-latency bound: the longer armed deadline plus one
/// heartbeat period.
pub const DETECT_BOUND: u64 = WatchdogConfig::DEADLINE_STATE_MODIFYING + cost::HEARTBEAT_INTERVAL;
const _: () = assert!(WatchdogConfig::DEADLINE_STATE_MODIFYING >= WatchdogConfig::DEADLINE);

/// Benchmark configuration.
#[derive(Clone, Copy, Debug)]
pub struct TimeoutBenchConfig {
    /// Request rounds in the steady-state (no-fault) allocation runs.
    pub steady_rounds: u64,
    /// Hang incidents injected in the detection-latency run.
    pub hang_incidents: u64,
    /// Reads the process-wide allocation count, if the caller installed a
    /// counting allocator (see `counting_allocator!`).
    pub alloc_count: Option<fn() -> u64>,
}

impl Default for TimeoutBenchConfig {
    fn default() -> Self {
        TimeoutBenchConfig {
            steady_rounds: 400,
            hang_incidents: 12,
            alloc_count: None,
        }
    }
}

impl TimeoutBenchConfig {
    /// Scaled-down configuration for the CI gate (`bench_timeouts
    /// --check`).
    pub fn quick() -> TimeoutBenchConfig {
        TimeoutBenchConfig {
            steady_rounds: 120,
            hang_incidents: 5,
            alloc_count: None,
        }
    }
}

/// The measurements.
#[derive(Clone, Copy, Debug)]
pub struct TimeoutBenchResult {
    /// Hang incidents the fault hook actually injected.
    pub hangs: u64,
    /// Samples in the detection-latency histogram (hung verdicts).
    pub detect_count: u64,
    /// Exact largest detection latency observed, virtual cycles.
    pub detect_max: u64,
    /// Mean detection latency, virtual cycles.
    pub detect_mean: f64,
    /// Rounds per steady-state run (the increment base).
    pub steady_rounds: u64,
    /// Allocator-call increment (double run minus single run), watchdog
    /// disabled, if a counter was installed.
    pub allocs_off: Option<u64>,
    /// Allocator-call increment with the watchdog armed on every request.
    pub allocs_on: Option<u64>,
}

impl TimeoutBenchResult {
    /// The latency claim: every hung verdict landed within the armed
    /// deadline plus one heartbeat period.
    pub fn detection_within_bound(&self) -> bool {
        self.detect_count > 0 && self.detect_max <= DETECT_BOUND
    }

    /// Allocator calls the armed-deadline hot path added per steady-state
    /// run (`None` without a counting allocator).
    pub fn armed_hot_path_allocs(&self) -> Option<i64> {
        Some(self.allocs_on? as i64 - self.allocs_off? as i64)
    }

    /// Renders a human-readable summary.
    pub fn render(&self) -> String {
        let allocs = |v: Option<u64>| match v {
            Some(n) => format!("{n}"),
            None => "-".to_string(),
        };
        format!(
            "watchdog timeouts: {} hangs injected, {} hung verdicts\n\
             detection latency: max {} cycles, mean {:.0} cycles \
             (bound: deadline {} + heartbeat {} = {})\n\
             steady-state allocator increment over {} rounds: \
             watchdog off {} calls, on {} calls (delta {})\n",
            self.hangs,
            self.detect_count,
            self.detect_max,
            self.detect_mean,
            DETECT_BOUND - cost::HEARTBEAT_INTERVAL,
            cost::HEARTBEAT_INTERVAL,
            DETECT_BOUND,
            self.steady_rounds,
            allocs(self.allocs_off),
            allocs(self.allocs_on),
            self.armed_hot_path_allocs()
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".to_string()),
        )
    }

    /// Machine-readable form (written to `BENCH_timeouts.json`).
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| match v {
            Some(n) => Json::UInt(n),
            None => Json::Null,
        };
        JsonObj::new()
            .field("hangs_injected", Json::UInt(self.hangs))
            .field("hung_verdicts", Json::UInt(self.detect_count))
            .field("detect_max_cycles", Json::UInt(self.detect_max))
            .field("detect_mean_cycles", Json::Num(self.detect_mean))
            .field("detect_bound_cycles", Json::UInt(DETECT_BOUND))
            .field(
                "detection_within_bound",
                Json::Bool(self.detection_within_bound()),
            )
            .field("steady_rounds", Json::UInt(self.steady_rounds))
            .field("steady_allocs_watchdog_off", opt(self.allocs_off))
            .field("steady_allocs_watchdog_on", opt(self.allocs_on))
            .build()
    }
}

/// Wedges one component (fail-silent hang, no crash signal) whenever its
/// window is open and `interval` cycles have passed since the last wedge,
/// up to `remaining` incidents.
struct PeriodicHang {
    component: &'static str,
    interval: u64,
    next_at: u64,
    remaining: u64,
    injected: u64,
}

impl FaultHook for PeriodicHang {
    fn on_site(&mut self, probe: &Probe) -> FaultEffect {
        if self.remaining > 0
            && probe.now >= self.next_at
            && probe.window_open
            && probe.replyable
            && probe.component == self.component
        {
            self.next_at = probe.now + self.interval;
            self.remaining -= 1;
            self.injected += 1;
            FaultEffect::Hang
        } else {
            FaultEffect::None
        }
    }
}

/// The workload: a fixed number of put/get rounds against one key, with
/// transparent ECRASH retry so injected wedges never surface to the
/// program. One key keeps the store's footprint — and therefore the
/// allocation profile per round — constant across run lengths.
fn kv_registry(rounds: u64) -> ProgramRegistry {
    let mut registry = ProgramRegistry::new();
    registry.register("main", move |sys| {
        sys.set_retry_ecrash(true);
        for _ in 0..rounds {
            if sys.ds_put("bench-key", b"timeout-bench-payload").is_err() {
                return 1;
            }
            match sys.ds_get("bench-key") {
                Ok(v) if v == b"timeout-bench-payload" => {}
                _ => return 2,
            }
        }
        0
    });
    registry
}

fn run(cfg: OsConfig, hook: Option<Box<dyn FaultHook>>, rounds: u64) -> (RunOutcome, Os) {
    osiris_kernel::install_quiet_panic_hook();
    let mut os = Os::new(cfg);
    if let Some(h) = hook {
        os.set_fault_hook(h);
    }
    let mut host = Host::new(os, kv_registry(rounds));
    let outcome = host.run("main", &[]);
    (outcome, host.into_engine())
}

fn wd_cfg() -> OsConfig {
    OsConfig {
        watchdog: WatchdogConfig::on(),
        vm_frames: 2048,
        ..Default::default()
    }
}

/// Allocator calls consumed by one complete run (boot included).
fn run_allocs(cfg: &TimeoutBenchConfig, os_cfg: OsConfig, rounds: u64) -> Option<u64> {
    let count = cfg.alloc_count?;
    let before = count();
    let (outcome, _os) = run(os_cfg, None, rounds);
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "steady-state run must complete: {outcome:?}"
    );
    Some(count() - before)
}

/// Runs the measurements.
pub fn bench_timeouts(cfg: TimeoutBenchConfig) -> TimeoutBenchResult {
    // Detection-latency run: wedge the DS repeatedly; each wedge is only
    // visible through the watchdog (a hang has no crash signal).
    let hang_rounds = cfg.hang_incidents * 4 + 20;
    let mut os_cfg_hang = wd_cfg();
    os_cfg_hang.escalation = osiris_core::EscalationPolicy::unbounded();
    let hook = Box::new(PeriodicHang {
        component: "ds",
        interval: 1_000_000,
        next_at: 0,
        remaining: cfg.hang_incidents,
        injected: 0,
    });
    let (outcome, os) = run(os_cfg_hang, Some(hook), hang_rounds);
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "hang run must complete: {outcome:?}"
    );
    let hangs = os.metrics().hangs;
    let snap = os.metrics_snapshot();
    let hist = match snap.find("osiris_watchdog_detection_latency_cycles", &[]) {
        Some(SeriesValue::Hist(h)) => **h,
        _ => panic!("detection-latency histogram not registered"),
    };
    let detect_count = hist.count();
    let detect_max = hist.max();
    let detect_mean = if detect_count == 0 {
        0.0
    } else {
        hist.sum() as f64 / detect_count as f64
    };

    // Steady-state allocation increments: (2R rounds) − (R rounds), per
    // mode, cancels boot-time allocation differences (the slot table).
    let r = cfg.steady_rounds;
    let off = OsConfig {
        vm_frames: 2048,
        ..Default::default()
    };
    let allocs_off = run_allocs(&cfg, off.clone(), 2 * r)
        .zip(run_allocs(&cfg, off, r))
        .map(|(double, single)| double - single);
    let allocs_on = run_allocs(&cfg, wd_cfg(), 2 * r)
        .zip(run_allocs(&cfg, wd_cfg(), r))
        .map(|(double, single)| double - single);

    TimeoutBenchResult {
        hangs,
        detect_count,
        detect_max,
        detect_mean,
        steady_rounds: r,
        allocs_off,
        allocs_on,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_holds_both_claims() {
        let r = bench_timeouts(TimeoutBenchConfig::quick());
        assert!(r.hangs >= 1, "the hook must wedge the DS: {r:?}");
        assert!(r.detect_count >= 1, "wedges must produce hung verdicts");
        assert!(
            r.detection_within_bound(),
            "detection latency {} exceeds bound {}",
            r.detect_max,
            DETECT_BOUND
        );
        // Without a counting allocator the alloc claim is unmeasured.
        assert!(r.armed_hot_path_allocs().is_none());
        let j = r.to_json().pretty();
        assert!(j.contains("detect_max_cycles"));
        assert!(j.contains("detection_within_bound"));
    }
}
