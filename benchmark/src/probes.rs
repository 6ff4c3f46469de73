//! Measurements that do not depend on the workload: the export tail, the
//! differential ablation over the paper's streams, direct calls into
//! `checkpoint`, and the forge's phases. Every traced run makes them.

use std::rc::Rc;
use std::time::Instant;

use osiris::checkpoint::{ChunkStore, Heap, PBuf, CHUNK_SIZE};
use osiris::faults::forge::{
    forge_config_fail_silent, Boundary, Forge, ForgeConfig, ForgeResult, ScriptWorkload,
};
use osiris::faults::{FaultKind, FaultPlan, Injector, SiteId, SiteKindTag};
use osiris::workloads::BENCHMARKS;
use osiris::{AxiomLog, Monolith, Os, OsConfig, OsEngine, PolicyKind};

use crate::config;
use crate::engine::replay;
use crate::ledger::{Metric, Outcome};
use crate::paper::{
    self, in_pieces, pass, plain_pass, record_all, record_one, PassSamples, Recorded, Stream,
    Timing, SUITE,
};
use crate::spans::{Kind, SpanLog, NO_SERVER};
use crate::stats::{fastest, geomean, median};
use crate::Sizing;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with the milliseconds it took.
fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms_since(t))
}

/// Milliseconds of the fastest of `reps` runs of `f`.
fn fastest_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, ms) = timed_ms(&mut f);
            std::hint::black_box(out);
            ms
        })
        .collect();
    fastest(&samples)
}

/// Milliseconds of each call of the export/replay tail.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExportTimes {
    pub axiom_bytes: f64,
    pub verify_axiom: f64,
    pub trace_text: f64,
    pub chrome_trace: f64,
    pub chrome_mib: f64,
    pub metrics_prometheus: f64,
    pub metrics_json: f64,
    pub timeseries_json: f64,
    pub replay: f64,
}

impl ExportTimes {
    pub fn total_ms(&self) -> f64 {
        self.axiom_bytes
            + self.verify_axiom
            + self.trace_text
            + self.chrome_trace
            + self.metrics_prometheus
            + self.metrics_json
            + self.timeseries_json
            + self.replay
    }
}

/// What a user pays to take everything out of a finished run: the axiom
/// serialized and verified, every export rendered to text, and the machine
/// rebooted from the axiom under `cfg`. Returns the failures too (a chain
/// that does not verify, an axiom that does not replay).
pub fn export_tail(os: &mut Os, cfg: OsConfig) -> (ExportTimes, u64) {
    let mut failed = 0;
    let (bytes, axiom_bytes) = timed_ms(|| os.axiom_bytes());
    let (verified, verify_axiom) = timed_ms(|| os.verify_axiom());
    failed += u64::from(verified.is_err());
    let (text, trace_text) = timed_ms(|| os.trace_text());
    let (chrome, chrome_trace) = timed_ms(|| os.chrome_trace().pretty());
    let (prom, metrics_prometheus) = timed_ms(|| os.metrics_prometheus());
    let (json, metrics_json) = timed_ms(|| os.metrics_json().pretty());
    let (series, timeseries_json) = timed_ms(|| os.timeseries_json().pretty());
    let (rebooted, replay) = timed_ms(|| Os::replay(cfg, &bytes));
    failed += u64::from(rebooted.is_err());
    std::hint::black_box((&text, &prom, &json, &series));
    let times = ExportTimes {
        axiom_bytes,
        verify_axiom,
        trace_text,
        chrome_trace,
        chrome_mib: chrome.len() as f64 / (1024.0 * 1024.0),
        metrics_prometheus,
        metrics_json,
        timeseries_json,
        replay,
    };
    (times, failed)
}

/// Boot time, and a pump with nothing to deliver.
pub fn os_probes(reps: usize) -> Vec<Metric> {
    let boot_ms = fastest_ms(reps, || Os::new(config::default()));
    let mut os = Os::new(config::default());
    const PUMPS: u32 = 20_000;
    let t = Instant::now();
    for _ in 0..PUMPS {
        std::hint::black_box(os.pump());
    }
    let empty_ns = t.elapsed().as_nanos() as f64 / f64::from(PUMPS);
    vec![
        Metric::plain("servers.os.boot_ms", boot_ms),
        Metric::plain("kernel.pump.empty_call_ns", empty_ns),
    ]
}

/// Direct calls into `checkpoint` on a 1 MiB heap of page-sized buffers.
pub fn checkpoint_probes(reps: usize) -> Vec<Metric> {
    const PAGES: usize = 256;
    const WRITES: usize = 16_384;
    let mut heap = Heap::new("bench");
    let page = vec![0xa5u8; CHUNK_SIZE];
    let bufs: Vec<PBuf> = (0..PAGES)
        .map(|_| {
            let b = heap.alloc_buf("page");
            b.write_at(&mut heap, 0, &page);
            b
        })
        .collect();
    // 8-byte stores striding across pages and offsets, so neither the
    // journal's coalescing nor one hot cache line hides the per-write cost.
    let sweep = |heap: &mut Heap, salt: u64| {
        for i in 0..WRITES {
            let off = (i * 40) % (CHUNK_SIZE - 8);
            bufs[i % PAGES].write_at(heap, off, &(salt + i as u64).to_le_bytes());
        }
    };
    let mut logged = Vec::new();
    let mut unlogged = Vec::new();
    let mut rollback = Vec::new();
    for rep in 0..reps as u64 {
        heap.set_logging(false);
        let ((), ms) = timed_ms(|| sweep(&mut heap, rep));
        unlogged.push(ms * 1e6 / WRITES as f64);

        heap.discard_log();
        heap.set_logging(true);
        let mark = heap.mark();
        let ((), ms) = timed_ms(|| sweep(&mut heap, rep + 1));
        logged.push(ms * 1e6 / WRITES as f64);
        let records = heap.log_len().max(1);
        let ((), ms) = timed_ms(|| heap.rollback_to(mark));
        rollback.push(ms * 1e6 / records as f64);
        heap.set_logging(false);
    }

    let mut store = ChunkStore::new();
    let mut image = heap.clone_image(&mut store, None);
    let dirty = |heap: &mut Heap, pages: usize, salt: u8| {
        for b in bufs.iter().take(pages) {
            b.write_at(heap, 7, &[salt]);
        }
    };
    let one_pct = (PAGES / 100).max(1);
    let mut clone_1 = Vec::new();
    let mut restore_1 = Vec::new();
    let mut restore_100 = Vec::new();
    for rep in 0..reps {
        let salt = rep as u8;
        dirty(&mut heap, one_pct, salt);
        let (next, ms) = timed_ms(|| heap.clone_image(&mut store, Some(&image)));
        clone_1.push(ms * 1e3);
        std::mem::replace(&mut image, next).release(&mut store);

        dirty(&mut heap, one_pct, salt.wrapping_add(1));
        let (restored, ms) = timed_ms(|| heap.restore_image(&image, &store));
        restored.expect("restore of an image just taken");
        restore_1.push(ms * 1e3);

        dirty(&mut heap, PAGES, salt.wrapping_add(1));
        let (restored, ms) = timed_ms(|| heap.restore_image(&image, &store));
        restored.expect("restore of an image just taken");
        restore_100.push(ms * 1e3);
    }
    image.release(&mut store);
    vec![
        Metric::plain("checkpoint.heap.logged_write_ns", fastest(&logged)),
        Metric::plain("checkpoint.heap.unlogged_write_ns", fastest(&unlogged)),
        Metric::plain(
            "checkpoint.journal.rollback_ns_per_record",
            fastest(&rollback),
        ),
        Metric::plain("checkpoint.image.clone_us_1pct", fastest(&clone_1)),
        Metric::plain("checkpoint.image.restore_us_1pct", fastest(&restore_1)),
        Metric::plain("checkpoint.image.restore_us_100pct", fastest(&restore_100)),
    ]
}

/// The export layers one by one, on the suite replayed with every plane
/// recording.
pub fn export_probes(reps: usize) -> Outcome {
    let boot = || Os::new(config::observed());
    let mut recorded = Recorded::default();
    record_one(boot, &paper::registry(), SUITE, &[], &mut recorded);
    let suite = &recorded.streams[0];
    let mut os = boot();
    let seen = replay(&mut os, suite.ops.clone());
    let mut failed = recorded.failed + u64::from(seen != suite.seen);

    let mut tails = Vec::new();
    for _ in 0..reps {
        let (t, f) = export_tail(&mut os, config::observed());
        failed += f;
        tails.push(t);
    }
    let fastest_of = |f: fn(&ExportTimes) -> f64| fastest(&tails.iter().map(f).collect::<Vec<_>>());
    let bytes = os.axiom_bytes();
    let decode_ms = fastest_ms(reps, || AxiomLog::from_bytes(&bytes));
    let log = AxiomLog::from_bytes(&bytes);
    failed += u64::from(log.is_err());
    let reduce_ms = log.map_or(0.0, |log| {
        fastest_ms(reps, || osiris::axiom::reduce(log.records()))
    });
    let snapshot_ms = fastest_ms(reps, || os.metrics_snapshot());
    let snap = os.metrics_snapshot();
    let prom_ms = fastest_ms(reps, || osiris::metrics::prom::render_prometheus(&snap));
    let json_ms = fastest_ms(reps, || {
        osiris::metrics::export::render_json(&snap).pretty()
    });
    let records = os.axiom().len().max(1) as f64;
    let metrics = vec![
        Metric::plain("axiom.bytes_per_record", bytes.len() as f64 / records),
        Metric::plain("axiom.serialize_ms", fastest_of(|t| t.axiom_bytes)),
        Metric::plain("axiom.verify_ms", fastest_of(|t| t.verify_axiom)),
        Metric::plain("axiom.decode_ms", decode_ms),
        Metric::plain("axiom.reduce_ms", reduce_ms),
        Metric::plain("axiom.replay_ms", fastest_of(|t| t.replay)),
        Metric::plain("trace.text_export_ms", fastest_of(|t| t.trace_text)),
        Metric::plain("trace.chrome_export_ms", fastest_of(|t| t.chrome_trace)),
        Metric::plain("trace.chrome_mib", fastest_of(|t| t.chrome_mib)),
        Metric::plain("metrics.snapshot_ms", snapshot_ms),
        Metric::plain("metrics.prom_render_ms", prom_ms),
        Metric::plain("metrics.json_render_ms", json_ms),
        Metric::plain("metrics.families", snap.families.len() as f64),
        Metric::plain(
            "metrics.timeseries.export_ms",
            fastest_of(|t| t.timeseries_json),
        ),
    ];
    Outcome {
        metrics,
        failed,
        ..Outcome::default()
    }
}

/// What one ablation pass yields.
struct ArmPass {
    timing: Timing,
    msgs: u64,
    /// Virtual cycles of each stream, in recording order.
    cycles: Vec<u64>,
}

type Arm = Box<dyn FnMut() -> ArmPass>;

/// One arm of the ablation: the paper's streams replayed on engines from
/// `boot`. An engine that answers the default recording differently would
/// have been sent other calls by the programs, so it gets a recording of
/// its own, made on itself.
fn arm<E: OsEngine + 'static>(
    base: &Rc<Vec<Stream>>,
    boot: impl Fn() -> E + Copy + 'static,
    msgs_of: fn(&E) -> u64,
) -> Arm {
    let order: Vec<usize> = (0..base.len()).collect();
    let streams = if plain_pass(base, &order, boot).mismatches == 0 {
        Rc::clone(base)
    } else {
        Rc::new(record_all(boot).streams)
    };
    Box::new(move || {
        let mut cycles = Vec::with_capacity(streams.len());
        let mut msgs = 0;
        let t = pass(&streams, &order, boot, in_pieces, |_, os, booted_at| {
            cycles.push(os.now() - booted_at);
            msgs += msgs_of(os);
        });
        ArmPass {
            timing: t,
            msgs,
            cycles,
        }
    })
}

fn os_arm(base: &Rc<Vec<Stream>>, cfg: fn() -> OsConfig) -> Arm {
    arm(
        base,
        move || Os::new(cfg()),
        |os| os.metrics().ipc_delivered,
    )
}

/// An `Os` with an injector armed on a site no component has: every probe
/// is checked against it and none fires.
fn armed_os() -> Os {
    let mut os = Os::new(config::default());
    os.set_fault_hook(Box::new(Injector::new(&FaultPlan {
        site: SiteId {
            component: "bench".into(),
            site: "never".into(),
            kind: SiteKindTag::Block,
        },
        kind: FaultKind::Crash,
        transient: false,
    })));
    os
}

/// The paper's Table IV/V references the fidelity ratios are printed
/// beside (EXPERIMENTS.md).
const PAPER_REFERENCES: [(&str, f64); 4] = [
    ("sim.slowdown_vs_monolith", 4.20),
    ("sim.instr_slowdown_enhanced", 1.054),
    ("sim.instr_slowdown_pessimistic", 1.046),
    ("sim.instr_slowdown_always", 1.235),
];

/// Differential ablation: the paper's streams on the default configuration
/// and on variants with one field flipped, passes interleaved so that slow
/// drift of the machine lands on every arm alike.
pub fn ablation(sizing: &Sizing) -> Outcome {
    let recorded = record_all(|| Os::new(config::default()));
    let mut failed = recorded.failed;
    let host_s = recorded.host_s;
    let recorded_syscalls = recorded.syscalls() as f64;
    let base = Rc::new(recorded.streams);

    const NAMES: [&str; 13] = [
        "default",
        "stateless",
        "pessimistic",
        "instr_off",
        "instr_always",
        "metrics_off",
        "trace_on",
        "axiom_on",
        "timeseries_on",
        "watchdog_on",
        "all_on",
        "armed",
        "monolith",
    ];
    let mut arms: Vec<Arm> = vec![
        os_arm(&base, config::default),
        os_arm(&base, config::stateless),
        os_arm(&base, config::pessimistic),
        os_arm(&base, config::instr_off),
        os_arm(&base, config::instr_always),
        os_arm(&base, config::metrics_off),
        os_arm(&base, config::trace_on),
        os_arm(&base, config::axiom_on),
        os_arm(&base, config::timeseries_on),
        os_arm(&base, config::watchdog_on),
        os_arm(&base, config::observed),
        arm(&base, armed_os, |os| os.metrics().ipc_delivered),
        arm(&base, Monolith::new, |_| 0),
    ];
    let mut samples: Vec<PassSamples> = (0..arms.len()).map(|_| PassSamples::default()).collect();
    let mut last: Vec<Option<ArmPass>> = (0..arms.len()).map(|_| None).collect();
    for _ in 0..sizing.ablation_reps {
        for (i, arm) in arms.iter_mut().enumerate() {
            let p = arm();
            failed += p.timing.mismatches;
            samples[i].push(&p.timing);
            last[i] = Some(p);
        }
    }
    let idx = |name: &str| NAMES.iter().position(|n| *n == name).expect("arm name");
    let of = |name: &str| last[idx(name)].as_ref().expect("every arm ran");
    let ns = |name: &str| samples[idx(name)].fastest_ns() / of(name).timing.syscalls.max(1) as f64;
    let default = of("default");
    let syscalls_per_msg = default.timing.syscalls as f64 / default.msgs.max(1) as f64;
    let per_syscall = |a: &str, b: &str| ns(a) - ns(b);
    let per_msg = |a: &str, b: &str| per_syscall(a, b) * syscalls_per_msg;
    // Geomean over the UnixBench analogs of virtual cycles on `a` over `b`.
    let slowdown = |a: &str, b: &str| {
        let ratios: Vec<f64> = (0..BENCHMARKS.len())
            .map(|i| of(a).cycles[i] as f64 / of(b).cycles[i].max(1) as f64)
            .collect();
        geomean(&ratios)
    };

    let planes = ["trace_on", "axiom_on", "timeseries_on", "watchdog_on"];
    let single: f64 = planes.iter().map(|p| per_msg(p, "default")).sum();
    let all_on = per_msg("all_on", "default");
    let replay_s = samples[idx("default")].fastest_ns() / 1e9;
    let metrics = vec![
        Metric::plain(
            "core.window.delta_ns_per_syscall",
            per_syscall("instr_off", "stateless"),
        ),
        Metric::plain(
            "core.policy.pessimistic_delta_ns",
            per_syscall("pessimistic", "default"),
        ),
        Metric::plain(
            "checkpoint.journal.delta_ns_per_syscall",
            per_syscall("default", "instr_off"),
        ),
        Metric::plain(
            "checkpoint.journal.always_delta_ns_per_syscall",
            per_syscall("instr_always", "instr_off"),
        ),
        Metric::plain(
            "metrics.delta_ns_per_msg",
            per_msg("default", "metrics_off"),
        ),
        Metric::plain("trace.delta_ns_per_msg", per_msg("trace_on", "default")),
        Metric::plain("axiom.delta_ns_per_msg", per_msg("axiom_on", "default")),
        Metric::plain(
            "metrics.timeseries.delta_ns_per_msg",
            per_msg("timeseries_on", "default"),
        ),
        Metric::plain(
            "kernel.watchdog.delta_ns_per_msg",
            per_msg("watchdog_on", "default"),
        ),
        Metric::plain("ablation.all_on_delta_ns_per_msg", all_on),
        Metric::plain(
            "ablation.residual_pct",
            if all_on == 0.0 {
                0.0
            } else {
                100.0 * (single - all_on) / all_on
            },
        ),
        Metric::plain(
            "faults.injector.armed_delta_ns_per_syscall",
            per_syscall("armed", "default"),
        ),
        Metric::plain("monolith.host_ns_per_syscall", ns("monolith")),
        Metric::plain(
            "kernel.compartment_overhead_x",
            ns("default") / ns("monolith").max(1e-9),
        ),
        // Wall time of the threaded recording over the same streams
        // replayed on one thread: what `Host`'s hand-off costs.
        Metric::plain(
            "kernel.host.handoff_us_per_syscall",
            (host_s - replay_s).max(0.0) * 1e6 / recorded_syscalls.max(1.0),
        ),
        Metric::plain(
            "sim.slowdown_vs_monolith",
            slowdown("instr_off", "monolith"),
        ),
        Metric::plain(
            "sim.instr_slowdown_enhanced",
            slowdown("default", "instr_off"),
        ),
        Metric::plain(
            "sim.instr_slowdown_pessimistic",
            slowdown("pessimistic", "instr_off"),
        ),
        Metric::plain(
            "sim.instr_slowdown_always",
            slowdown("instr_always", "instr_off"),
        ),
    ];
    let mut notes: Vec<String> = NAMES
        .iter()
        .map(|n| format!("ablation arm {n}: {:.1} ns/syscall", ns(n)))
        .collect();
    for (name, reference) in PAPER_REFERENCES {
        let value = metrics
            .iter()
            .find(|m| m.name == name)
            .expect("fidelity metric")
            .value;
        notes.push(format!(
            "{name} {value:.3} x against the paper's {reference} ({:+.1}%)",
            100.0 * (value - reference) / reference
        ));
    }
    Outcome {
        metrics,
        failed,
        notes,
        ..Outcome::default()
    }
}

/// The campaign every forge measurement runs.
pub fn forge_config(sizing: &Sizing, seed: u64, threads: usize) -> ForgeConfig {
    ForgeConfig {
        script: ScriptWorkload {
            stress_rounds: sizing.forge_stress,
            ..ScriptWorkload::default()
        },
        inject_at: Boundary::Late,
        threads,
        seed,
        budget: 1024,
        fail_silent_wave: true,
        os_config: forge_config_fail_silent,
        ..ForgeConfig::default()
    }
}

/// A machine of the campaign's configuration under its default policy.
pub fn forge_os() -> Os {
    Os::new(forge_config_fail_silent(PolicyKind::Enhanced))
}

/// One campaign repetition: plan, then run the plan.
pub struct Rep {
    pub result: ForgeResult,
    pub plan_ms: f64,
    pub run_ms: f64,
}

pub fn campaign_rep(forge: &Forge, log: Option<&mut SpanLog>) -> Rep {
    let mut log = log;
    let mut span = |kind: Option<Kind>| {
        if let Some(log) = log.as_deref_mut() {
            match kind {
                Some(kind) => log.open(kind, 0, NO_SERVER),
                None => log.close(),
            }
        }
    };
    span(Some(Kind::Rep));
    span(Some(Kind::Plan));
    let (plan, plan_ms) = timed_ms(|| forge.plan());
    span(None);
    span(Some(Kind::RunPlan));
    let (result, run_ms) = timed_ms(|| forge.run_plan(&plan));
    span(None);
    span(None);
    Rep {
        result,
        plan_ms,
        run_ms,
    }
}

/// Injections of a campaign that did not do their job: dropped by the
/// budget, planned but never executed, or without a record.
pub fn campaign_failures(result: &ForgeResult) -> u64 {
    let r = &result.report;
    let unexecuted = |(planned, executed): (usize, usize)| planned - executed;
    (r.dropped
        + unexecuted(r.fail_stop)
        + unexecuted(r.fail_silent)
        + r.injections.saturating_sub(result.campaign.records().len())) as u64
}

/// The forge's phases, timed by calling them the way `run_plan` does, and
/// one whole campaign on one thread and on two.
pub fn forge_probes(sizing: &Sizing, seed: u64, log: &mut SpanLog) -> (Outcome, f64) {
    let mut wall_ms = 0.0;
    let forge = Forge::new(forge_config(sizing, seed, 1));
    let rep = campaign_rep(&forge, Some(log));
    wall_ms += rep.plan_ms + rep.run_ms;
    let mut failed = campaign_failures(&rep.result);
    let stats = rep.result.report.stats;
    let injections = rep.result.report.injections.max(1) as f64;
    let adoptions = (stats.forks + stats.readopts).max(1) as f64;

    // The clean prefix, snapshotted after every step the way
    // `snapshot_prefixes` chains them.
    let script = *forge.script();
    let mut store = ChunkStore::new();
    let mut os = forge_os();
    let mut snaps = Vec::new();
    let mut snapshot_us = Vec::new();
    let mut prefix_ms = 0.0;
    for step in 0..ScriptWorkload::STEPS - 1 {
        let (run, ms) = timed_ms(|| script.run_range(&mut os, step..step + 1));
        prefix_ms += ms;
        failed += u64::from(!run.clean());
        log.open(Kind::SnapshotInto, step as u64, NO_SERVER);
        let (snap, ms) = timed_ms(|| os.snapshot_into(&mut store, snaps.last()));
        log.close();
        wall_ms += ms;
        snapshot_us.push(ms * 1e3);
        snaps.push(snap);
    }
    let late = snaps.last().expect("one snapshot per step");
    let mut fork_ms = Vec::new();
    let mut readopt_us = Vec::new();
    for rep in 0..sizing.probe_reps {
        log.open(Kind::ForkFrom, rep as u64, NO_SERVER);
        let ((mut fork, _), ms) = timed_ms(|| Os::fork_from(late, &store));
        log.close();
        wall_ms += ms;
        fork_ms.push(ms);
        // Dirty the fork with the suffix a campaign run replays, then point
        // it back at the snapshot.
        let suffix = script.run_range(&mut fork, ScriptWorkload::STEPS - 1..ScriptWorkload::STEPS);
        failed += u64::from(!suffix.clean());
        log.open(Kind::TryReadopt, rep as u64, NO_SERVER);
        let (adopted, ms) = timed_ms(|| fork.try_readopt(late, &store));
        log.close();
        wall_ms += ms;
        failed += u64::from(adopted.is_none());
        readopt_us.push(ms * 1e3);
    }
    for snap in snaps {
        snap.release(&mut store);
    }

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scaling = if threads >= 2 {
        let two = Forge::new(forge_config(sizing, seed, 2));
        let (result, ms) = timed_ms(|| two.run_plan(&two.plan()));
        failed += campaign_failures(&result);
        // Both walls hold one planning pass, which never uses the workers.
        (rep.plan_ms + rep.run_ms) / ms
    } else {
        1.0
    };

    let fork = fastest(&fork_ms);
    let readopt = fastest(&readopt_us);
    let policies = forge.config().policies.len() as f64;
    let adoption_ms = stats.forks as f64 * fork + stats.readopts as f64 * readopt / 1e3;
    let suffix_ms = (rep.run_ms - policies * prefix_ms - adoption_ms).max(0.0) / injections;
    let metrics = vec![
        Metric::plain("faults.forge.plan_ms", rep.plan_ms),
        Metric::plain("faults.forge.snapshot_us", median(&snapshot_us)),
        Metric::plain("faults.forge.fork_ms", fork),
        Metric::plain("faults.forge.readopt_us", readopt),
        Metric::plain(
            "faults.forge.readopt_share",
            stats.readopts as f64 / adoptions,
        ),
        Metric::plain(
            "faults.forge.dirty_kib_per_fork",
            stats.fork_dirty_bytes as f64 / 1024.0 / adoptions,
        ),
        Metric::plain("faults.forge.suffix_ms_per_injection", suffix_ms),
        Metric::plain("faults.forge.scaling_2t", scaling),
        Metric::plain("bench.threads_available", threads as f64),
    ];
    let probed = Outcome {
        metrics,
        failed,
        notes: vec![format!(
            "forge probe: {} injections in {:.0} ms on one thread ({} forks, {} readopts)",
            rep.result.report.injections, rep.run_ms, stats.forks, stats.readopts
        )],
        ..Outcome::default()
    };
    (probed, wall_ms)
}
