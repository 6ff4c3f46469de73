//! The fail-silent watchdog detects hangs within a bound and arms
//! deadlines without allocating.
//!
//! * **Detection latency is bounded.** A wedged component is declared dead
//!   within its armed deadline plus one heartbeat period: deadlines are
//!   serviced at every pump iteration and after every timer fire, so the
//!   only slack past the deadline is the gap to the next timer — the RS
//!   heartbeat in the worst (fully idle) case. The drive wedges the DS
//!   repeatedly and reads the exact maximum of the kernel's
//!   `osiris_watchdog_detection_latency_cycles` histogram.
//! * **Arming is allocation-free in steady state.** The slot table is
//!   preallocated at boot ([`WatchdogConfig::CAPACITY`]), so the allocator
//!   calls of a double-length run minus a single-length run — which
//!   cancels boot — differ with the watchdog on and off by exactly the
//!   copies of the requests it lends (see [`LENT_COPIES_PER_ROUND`]), and
//!   stay under a ceiling per put/get round.

use osiris_kernel::{cost, FaultEffect, FaultHook, Probe, RunOutcome, WatchdogConfig};
use osiris_metrics::SeriesValue;
use osiris_servers::{Os, OsConfig};
use osiris_workloads::{Host, ProgramRegistry};

use super::{Checks, Scale, Want};

/// The longer armed deadline plus one heartbeat period.
const DETECT_BOUND: u64 = WatchdogConfig::DEADLINE_STATE_MODIFYING + cost::HEARTBEAT_INTERVAL;
const _: () = assert!(WatchdogConfig::DEADLINE_STATE_MODIFYING >= WatchdogConfig::DEADLINE);

/// A watched request is lent to its handler, not handed over, so the DS
/// copies the key and value of each `DsPut` it stores: two allocator calls
/// per round that the run with the watchdog off moves instead.
const LENT_COPIES_PER_ROUND: u64 = 2;

/// Ceiling on whole-OS allocator calls per steady put/get round (two
/// syscalls through `Host`); 15 today. What is left is the workload's
/// own (`Host` hand-off, syscall arguments, the DS value clone, the reply
/// vector); the pump adds none.
const ALLOCS_PER_ROUND_CEILING: u64 = 17;

/// Wedges one component (fail-silent hang, no crash signal) whenever its
/// window is open and `interval` cycles have passed since the last wedge,
/// up to `remaining` incidents.
struct PeriodicHang {
    component: &'static str,
    interval: u64,
    next_at: u64,
    remaining: u64,
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
            FaultEffect::Hang
        } else {
            FaultEffect::None
        }
    }
}

/// `rounds` put/get rounds against one key, with transparent ECRASH retry
/// so injected wedges never surface to the program. One key keeps the
/// store's footprint — and so the allocator calls per round — constant
/// across run lengths.
fn kv_registry(rounds: u64) -> ProgramRegistry {
    let mut registry = ProgramRegistry::new();
    registry.register("main", move |sys| {
        sys.set_retry_ecrash(true);
        for _ in 0..rounds {
            if sys.ds_put("gate-key", b"watchdog-gate-payload").is_err() {
                return 1;
            }
            match sys.ds_get("gate-key") {
                Ok(v) if v == b"watchdog-gate-payload" => {}
                _ => return 2,
            }
        }
        0
    });
    registry
}

fn run(cfg: OsConfig, hook: Option<Box<dyn FaultHook>>, rounds: u64) -> Os {
    osiris_kernel::install_quiet_panic_hook();
    let mut os = Os::new(cfg);
    if let Some(h) = hook {
        os.set_fault_hook(h);
    }
    let mut host = Host::new(os, kv_registry(rounds));
    let outcome = host.run("main", &[]);
    assert!(
        matches!(outcome, RunOutcome::Completed { init_code: 0, .. }),
        "the put/get program must complete: {outcome:?}"
    );
    host.into_engine()
}

fn os_cfg(watchdog: bool) -> OsConfig {
    OsConfig {
        watchdog: if watchdog {
            WatchdogConfig::on()
        } else {
            WatchdogConfig::default()
        },
        vm_frames: 2048,
        ..Default::default()
    }
}

pub(super) fn checks(scale: Scale, c: &mut Checks) {
    let (steady_rounds, hang_incidents) = match scale {
        Scale::Full => (120, 5),
        Scale::Small => (20, 2),
    };

    // Each wedge is visible only through the watchdog: a hang has no crash
    // signal.
    let hook = Box::new(PeriodicHang {
        component: "ds",
        interval: 1_000_000,
        next_at: 0,
        remaining: hang_incidents,
    });
    let cfg = OsConfig {
        escalation: osiris_core::EscalationPolicy::unbounded(),
        ..os_cfg(true)
    };
    let os = run(cfg, Some(hook), hang_incidents * 4 + 20);
    let snap = os.metrics_snapshot();
    let hist = match snap.find("osiris_watchdog_detection_latency_cycles", &[]) {
        Some(SeriesValue::Hist(h)) => **h,
        _ => panic!("detection-latency histogram not registered"),
    };
    c.push(
        "watchdog/hangs_injected".into(),
        os.metrics().hangs,
        Want::Eq(hang_incidents),
    );
    c.push(
        "watchdog/hung_verdicts".into(),
        hist.count(),
        Want::Eq(hang_incidents),
    );
    c.push(
        "watchdog/detect_max_cycles".into(),
        hist.max(),
        Want::AtMost(DETECT_BOUND),
    );

    // Allocator calls of (2R rounds) − (R rounds), boot included in both.
    let increment = |c: &Checks, watchdog: bool| {
        let double = c
            .counted(|| run(os_cfg(watchdog), None, 2 * steady_rounds))
            .1;
        let single = c.counted(|| run(os_cfg(watchdog), None, steady_rounds)).1;
        double.zip(single).map(|(d, s)| d - s)
    };
    let off = increment(c, false);
    let on = increment(c, true);
    c.push_allocs(
        "watchdog/steady_allocs_on_vs_off".into(),
        on,
        Want::Eq(off.map_or(0, |off| off + LENT_COPIES_PER_ROUND * steady_rounds)),
    );
    c.push_allocs(
        "watchdog/steady_allocs_per_round".into(),
        on,
        Want::AtMost(ALLOCS_PER_ROUND_CEILING * steady_rounds),
    );
}
