//! The six workloads: what each sets up, what it times, what it checks.
//!
//! An untraced run yields the end-to-end metrics. A traced run repeats a
//! quarter of the workload with spans around every call into the `Os`,
//! reads the counters those calls moved, and adds the workload-independent
//! probes of [`crate::probes`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use osiris::faults::forge::{Forge, ScriptWorkload};
use osiris::kernel::abi::Syscall;
use osiris::{Os, OsConfig, OsEngine};

use crate::config;
use crate::engine::{replay, sim_digest, Canned, Chunked, Fnv, Tape, Taping, Traced};
use crate::gen::{Driver, Gen, GenOp, OneShotHook, Rng, StormHook, Workload};
use crate::ledger::{workload_layers, Counters, Metric, Outcome};
use crate::paper::{in_pieces, pass, plain_pass, record_all, PassSamples, Recorded, Timing, SUITE};
use crate::probes::{self, campaign_failures, campaign_rep, export_tail, forge_config, forge_os};
use crate::spans::{Kind, SpanLog, NO_SERVER};
use crate::stats::{alloc_calls, fastest, peak_rss_mib, Summary};
use crate::Sizing;

/// Every eligible probe this far apart crashes its component in
/// `crash_storm`. Fixed, so that `core.recovery.ecrash_share` stays between
/// 0.10 and 0.20 for as long as the servers keep their probe density.
const STORM_EVERY: u64 = 16;

/// Counts that must repeat exactly: summed over a fixed number of batches,
/// whatever the machine's speed let the run add after them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Exact {
    syscalls: u64,
    allocs: u64,
    vcycles: u64,
    digest: u64,
}

impl Exact {
    fn metrics(&self) -> [Metric; 2] {
        let n = self.syscalls.max(1) as f64;
        [
            Metric::plain("allocs_per_syscall", self.allocs as f64 / n),
            Metric::plain("vcycles_per_syscall", self.vcycles as f64 / n),
        ]
    }
}

/// Whether a timed region that has run `done` batches goes on.
fn more(done: usize, min: usize, deadline: Instant) -> bool {
    done < min || Instant::now() < deadline
}

fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

/// Host time to absorb one injected fail-stop fault: a machine of its own
/// running `workload`'s traffic, crashed at the first eligible probe of one
/// of its characteristic calls now and then, each crash timed from that
/// call's submit to the reply of the attempt that succeeds.
struct InjectionTail {
    os: Os,
    armed: Arc<AtomicBool>,
    driver: Driver,
    gen: Gen,
    /// Ops dealt and not yet run, last first.
    dealt: Vec<(GenOp, Syscall)>,
}

impl InjectionTail {
    fn new(cfg: OsConfig, workload: Workload, seed: u64) -> InjectionTail {
        let mut os = Os::new(config::unbounded(cfg));
        let armed = Arc::new(AtomicBool::new(false));
        let mut driver = Driver::default();
        let gen = Gen::set_up(workload, seed, &mut os, &mut driver);
        os.set_fault_hook(Box::new(OneShotHook {
            armed: Arc::clone(&armed),
        }));
        InjectionTail {
            os,
            armed,
            driver,
            gen,
            dealt: Vec::new(),
        }
    }

    /// Runs the traffic until `n` more injections have been absorbed and
    /// pushes the milliseconds each took. Returns whether it got that far
    /// (it does not if the characteristic call has lost its eligible probes).
    fn inject(&mut self, n: usize, ms: &mut Vec<f64>) -> bool {
        let want = ms.len() + n;
        for _ in 0..100_000 {
            if self.dealt.is_empty() {
                let (ops, calls) = self.gen.deal();
                self.dealt = ops.into_iter().zip(calls).rev().collect();
            }
            let (op, call) = self.dealt.pop().expect("a batch was just dealt");
            let arm = self.gen.characteristic(&op);
            self.armed.store(arm, Ordering::Relaxed);
            let t = Instant::now();
            self.driver
                .run(&mut self.os, &self.gen, &[op], vec![call], |_| {});
            let took = t.elapsed().as_secs_f64() * 1e3;
            // The hook disarms itself when it fires. With the watchdog on
            // the kernel may retry the call itself, so an `ECRASH` reply is
            // no sign of a crash; the hook's firing is.
            if arm && !self.armed.swap(false, Ordering::Relaxed) {
                ms.push(took);
                if ms.len() == want {
                    return true;
                }
            }
        }
        false
    }
}

/// The measurements taken beside a workload's batches: a set-up, an export
/// tail and a few injections at each of `Sizing::side_slots` moments spread
/// over the timed region, so that each has as many chances as the run is
/// long to be missed by the interference.
struct Side {
    tail: InjectionTail,
    every: Duration,
    next: Instant,
    injection_ms: Vec<f64>,
    export_ms: Vec<f64>,
    setup_s: Vec<f64>,
}

impl Side {
    fn new(tail: InjectionTail, sizing: &Sizing) -> Side {
        let every = Duration::from_secs_f64(sizing.seconds / sizing.side_slots as f64);
        Side {
            tail,
            every,
            next: Instant::now() + every,
            injection_ms: Vec::new(),
            export_ms: Vec::new(),
            setup_s: Vec::new(),
        }
    }

    /// Whether the next moment for side measurements has come.
    fn due(&mut self, sizing: &Sizing) -> bool {
        let due = self.export_ms.len() < sizing.side_slots && Instant::now() >= self.next;
        if due {
            self.next += self.every;
        }
        due
    }

    fn inject(&mut self, out: &mut Outcome) {
        const PER_SLOT: usize = 10;
        out.failed += u64::from(!self.tail.inject(PER_SLOT, &mut self.injection_ms));
    }

    fn export(&mut self, os: &mut Os, cfg: OsConfig, out: &mut Outcome) {
        let (times, failed) = export_tail(os, cfg);
        out.failed += failed;
        self.export_ms.push(times.total_ms());
    }

    /// The four metrics the side measurements and the process yield.
    fn finish(self, out: &mut Outcome) {
        check_machine(&self.tail.os, &self.tail.driver, out);
        out.metrics.push(Metric::timed(
            "host_ms_per_injection",
            Summary::of(&self.injection_ms),
        ));
        out.metrics.push(Metric::timed(
            "export_replay_ms",
            Summary::of(&self.export_ms),
        ));
        out.metrics
            .push(Metric::plain("peak_rss_mib", peak_rss_mib()));
        out.metrics
            .push(Metric::timed("setup_s", Summary::of(&self.setup_s)));
    }
}

/// What must hold of a generated workload's machine when it is done: no op
/// failed, the audit is empty, and every crash was recovered.
fn check_machine(os: &Os, driver: &Driver, out: &mut Outcome) {
    let c = Counters::read(os);
    out.failed += driver.failed + os.audit().len() as u64 + u64::from(c.recoveries != c.crashes);
    out.ops += driver.seen.syscalls;
}

struct Generated(Workload);

impl Generated {
    fn storm(&self) -> bool {
        self.0 == Workload::CrashStorm
    }

    fn cfg(&self) -> OsConfig {
        if self.storm() {
            config::unbounded(config::default())
        } else {
            config::default()
        }
    }

    fn boot(&self, seed: u64) -> (Os, Driver, Gen) {
        let mut os = Os::new(self.cfg());
        let mut driver = Driver::default();
        let gen = Gen::set_up(self.0, seed, &mut os, &mut driver);
        // Armed after the files and keys exist: set-up calls are not retried.
        if self.storm() {
            os.set_fault_hook(Box::new(StormHook::new(STORM_EVERY)));
        }
        (os, driver, gen)
    }

    fn end_to_end(&self, seed: u64, sizing: &Sizing, started: Instant) -> Outcome {
        let mut out = Outcome::default();
        let before = started.elapsed().as_secs_f64();
        let t = Instant::now();
        let (mut os, mut driver, mut gen) = self.boot(seed);
        let first_setup = before + t.elapsed().as_secs_f64();
        let mut side = Side::new(InjectionTail::new(self.cfg(), self.0, seed), sizing);
        side.setup_s.push(first_setup);

        let mut samples = Vec::new();
        let mut exact = Exact::default();
        let until = deadline(sizing.seconds);
        while more(samples.len(), sizing.min_batches, until) {
            let (ops, calls) = gen.deal();
            let (syscalls, now) = (driver.seen.syscalls, os.now());
            let allocs = alloc_calls();
            let t = Instant::now();
            driver.run(&mut os, &gen, &ops, calls, |_| {});
            let ns = t.elapsed().as_nanos() as f64;
            let allocs = alloc_calls() - allocs;
            let syscalls = driver.seen.syscalls - syscalls;
            samples.push(ns / syscalls as f64);
            if samples.len() <= sizing.min_batches {
                exact.syscalls += syscalls;
                exact.allocs += allocs;
                exact.vcycles += os.now() - now;
                if samples.len() == sizing.min_batches {
                    exact.digest = sim_digest(&os, &driver.seen);
                }
            } else if side.due(sizing) {
                let t = Instant::now();
                std::hint::black_box(self.boot(seed));
                side.setup_s.push(before + t.elapsed().as_secs_f64());
                side.export(&mut os, self.cfg(), &mut out);
                side.inject(&mut out);
            }
        }
        if side.export_ms.is_empty() {
            side.export(&mut os, self.cfg(), &mut out);
            side.inject(&mut out);
        }
        check_machine(&os, &driver, &mut out);
        out.sim_digest = exact.digest;
        out.notes.push(format!(
            "{} syscalls in {} batches, {} answered ECRASH",
            driver.seen.syscalls,
            samples.len(),
            driver.ecrash
        ));
        out.metrics
            .push(Metric::timed("host_ns_per_syscall", Summary::of(&samples)));
        out.metrics.extend(exact.metrics());
        side.finish(&mut out);
        out
    }

    /// Takes turns on one machine: a traced batch, an untraced one, and one
    /// run twice, for real and then into an engine that plays the real
    /// one's answers back.
    fn traced(&self, seed: u64, sizing: &Sizing, log: &mut SpanLog, out: &mut Outcome) -> Traces {
        let (mut os, mut driver, mut gen) = self.boot(seed);
        let mut tr = Traces::default();
        let (mut traced_ns, mut untraced_ns, mut driver_ns) = (Vec::new(), Vec::new(), Vec::new());
        let until = deadline(sizing.seconds / 4.0);
        let mut batch = 0;
        while more(batch, sizing.min_batches, until) {
            let (ops, calls) = gen.deal();
            let before = (Counters::read(&os), driver.ecrash, driver.seen.syscalls);
            let (ns, into) = match batch % 3 {
                0 => {
                    let t = Instant::now();
                    log.open(Kind::Pass, 0, NO_SERVER);
                    let mut traced = Traced { os: &mut os, log };
                    driver.run(&mut traced, &gen, &ops, calls, |t| t.log.mark_crashed());
                    traced.end_syscall();
                    log.close();
                    let ns = t.elapsed().as_nanos() as u64;
                    tr.wall_ns += ns;
                    tr.counters = tr.counters.plus(Counters::read(&os).since(before.0));
                    tr.ecrash += driver.ecrash - before.1;
                    (ns, &mut traced_ns)
                }
                1 => {
                    let t = Instant::now();
                    driver.run(&mut os, &gen, &ops, calls, |_| {});
                    (t.elapsed().as_nanos() as u64, &mut untraced_ns)
                }
                _ => {
                    let mut again = driver.clone();
                    let mut taping = Taping {
                        os: &mut os,
                        tape: Tape::default(),
                    };
                    driver.run(&mut taping, &gen, &ops, calls, |_| {});
                    let mut canned = Canned::new(taping.tape);
                    let calls = ops.iter().map(|op| gen.materialize(op)).collect();
                    let t = Instant::now();
                    again.run(&mut canned, &gen, &ops, calls, |_| {});
                    (t.elapsed().as_nanos() as u64, &mut driver_ns)
                }
            };
            into.push(ns as f64 / (driver.seen.syscalls - before.2) as f64);
            batch += 1;
        }
        check_machine(&os, &driver, out);
        tr.traced = fastest(&traced_ns);
        tr.untraced = fastest(&untraced_ns);
        tr.driver = fastest(&driver_ns);
        tr
    }
}

/// What the traced part of a run gathered besides its spans.
#[derive(Default)]
struct Traces {
    /// Wall time of the traced regions, measured around them.
    wall_ns: u64,
    counters: Counters,
    ecrash: u64,
    /// Fastest ns per syscall of the traced and of the untraced batches.
    traced: f64,
    untraced: f64,
    /// Fastest ns per syscall of the same calls into an engine that only
    /// plays back what the real one answered: the driver's own time.
    driver: f64,
}

struct Paper {
    cfg: fn() -> OsConfig,
}

impl Paper {
    /// The recorded streams, and how many of them failed to record or to
    /// replay as recorded.
    fn record(&self) -> (Recorded, u64) {
        let cfg = self.cfg;
        let recorded = record_all(move || Os::new(cfg()));
        // One untimed pass: the replay must observe what `Host` observed.
        let order: Vec<usize> = (0..recorded.streams.len()).collect();
        let verify = plain_pass(&recorded.streams, &order, move || Os::new(cfg()));
        let failed = recorded.failed + verify.mismatches;
        (recorded, failed)
    }

    fn end_to_end(&self, seed: u64, sizing: &Sizing, started: Instant) -> Outcome {
        let mut out = Outcome::default();
        let cfg = self.cfg;
        let before = started.elapsed().as_secs_f64();
        let mut setup_s = Vec::new();
        // The time inside `Host::run` is left out: it is thread hand-off,
        // which moved tenfold between two runs minutes apart, and it is
        // reported by itself (`kernel.host.handoff_us_per_syscall`).
        let mut set_up = |out: &mut Outcome| {
            let t = Instant::now();
            let (recorded, failed) = self.record();
            out.failed += failed;
            setup_s.push(before + t.elapsed().as_secs_f64() - recorded.host_s);
            recorded
        };
        let recorded = set_up(&mut out);
        let streams = &recorded.streams;
        let mut side = Side::new(
            InjectionTail::new(cfg(), Workload::CrashStorm, seed),
            sizing,
        );

        let mut rng = Rng::new(seed);
        let mut order: Vec<usize> = (0..streams.len()).collect();
        let mut samples = Vec::new();
        let mut by_stream = PassSamples::default();
        let mut first: Option<Exact> = None;
        let mut setups = 1;
        let begun = Instant::now();
        let until = deadline(sizing.seconds);
        while more(samples.len(), sizing.min_passes, until) {
            rng.shuffle(&mut order);
            let mut exact = Exact::default();
            let t = pass(
                streams,
                &order,
                move || Os::new(cfg()),
                in_pieces,
                |stream, os, booted_at| {
                    exact.vcycles += os.now() - booted_at;
                    // Streams are independent machines: summing their
                    // digests makes the pass digest free of the order.
                    exact.digest = exact.digest.wrapping_add(sim_digest(os, &stream.seen));
                    if stream.name == SUITE {
                        side.export(os, cfg(), &mut out);
                    }
                },
            );
            exact.syscalls = t.syscalls;
            exact.allocs = t.allocs;
            out.ops += t.syscalls;
            // Every pass replays the same streams: any exact count that
            // differs from the first pass's is a failure.
            out.failed += t.mismatches + u64::from(*first.get_or_insert(exact) != exact);
            samples.push(t.ns as f64 / t.syscalls as f64);
            by_stream.push(&t);
            side.inject(&mut out);
            // The threaded recording again, a third and two thirds in.
            let share = begun.elapsed().as_secs_f64() / sizing.seconds;
            if setups < sizing.paper_setup_reps
                && share * sizing.paper_setup_reps as f64 >= setups as f64
            {
                set_up(&mut out);
                setups += 1;
            }
        }
        let exact = first.expect("at least one pass");
        let per_syscall = Summary {
            min: by_stream.fastest_ns() / exact.syscalls as f64,
            ..Summary::of(&samples)
        };
        out.sim_digest = exact.digest;
        out.notes.push(format!(
            "{} syscalls per pass, {} passes, recorded in {:.3} s of Host::run",
            exact.syscalls,
            samples.len(),
            recorded.host_s
        ));
        side.setup_s = setup_s;
        out.metrics
            .push(Metric::timed("host_ns_per_syscall", per_syscall));
        out.metrics.extend(exact.metrics());
        side.finish(&mut out);
        out
    }

    /// Alternates traced and untraced passes.
    fn traced(&self, seed: u64, sizing: &Sizing, log: &mut SpanLog, out: &mut Outcome) -> Traces {
        let cfg = self.cfg;
        let (recorded, failed) = self.record();
        out.failed += failed;
        let streams = &recorded.streams;
        let booted = Counters::read(&Os::new(cfg()));
        let mut rng = Rng::new(seed);
        let mut order: Vec<usize> = (0..streams.len()).collect();
        let mut tr = Traces::default();
        let (mut traced, mut untraced) = (PassSamples::default(), PassSamples::default());
        let mut syscalls = 1;
        let until = deadline(sizing.seconds / 4.0);
        let mut n = 0;
        while more(n, sizing.min_passes.min(6), until) {
            rng.shuffle(&mut order);
            let mut counters = Counters::default();
            let t = if n % 2 == 0 {
                pass(
                    streams,
                    &order,
                    move || Os::new(cfg()),
                    |stream, os, ops, _| {
                        log.open(Kind::Pass, stream as u64, NO_SERVER);
                        let mut traced = Traced { os, log };
                        let seen = replay(&mut traced, ops);
                        traced.end_syscall();
                        log.close();
                        seen
                    },
                    |_, os, _| counters = counters.plus(Counters::read(os).since(booted)),
                )
            } else {
                // Timed stream by stream, as the traced passes are.
                let whole = |_, os: &mut Os, ops, _: &mut Vec<u64>| replay(os, ops);
                pass(streams, &order, move || Os::new(cfg()), whole, |_, _, _| {})
            };
            out.ops += t.syscalls;
            out.failed += t.mismatches;
            syscalls = t.syscalls;
            if n % 2 == 0 {
                tr.wall_ns += t.ns;
                tr.counters = tr.counters.plus(counters);
                traced.push(&t);
            } else {
                untraced.push(&t);
            }
            n += 1;
        }
        tr.traced = traced.fastest_ns() / syscalls as f64;
        tr.untraced = untraced.fastest_ns() / syscalls as f64;
        // The replay's own time: each stream once for real, to tape what
        // the machine answers, then into the engine that plays it back.
        let mut driver_ns = 0.0;
        for stream in streams {
            let mut os = Os::new(cfg());
            let mut taping = Taping {
                os: &mut os,
                tape: Tape::default(),
            };
            replay(&mut taping, stream.ops.clone());
            let tape = taping.tape;
            let samples: Vec<f64> = (0..sizing.probe_reps)
                .map(|_| {
                    let (mut canned, ops) = (Canned::new(tape.clone()), stream.ops.clone());
                    let t = Instant::now();
                    out.failed += u64::from(replay(&mut canned, ops) != stream.seen);
                    t.elapsed().as_nanos() as f64
                })
                .collect();
            driver_ns += fastest(&samples);
        }
        tr.driver = driver_ns / syscalls as f64;
        tr
    }
}

/// FNV over what every injection of a campaign came to.
fn campaign_digest(result: &probes::Rep) -> u64 {
    let mut h = Fnv::default();
    for r in result.result.campaign.records() {
        h.bytes(r.site.component.as_bytes());
        h.bytes(r.site.site.as_bytes());
        h.bytes(r.policy.as_bytes());
        h.bytes(r.outcome.to_string().as_bytes());
        h.word(r.run_cycles);
        h.word(r.recoveries);
        h.word(r.recovery_cycles);
    }
    h.0
}

/// One fault-free pass of the campaign's script on a freshly booted
/// machine of the campaign's configuration: the traffic whose prefixes and
/// suffixes every injection replays. Timed in pieces, as a replay is.
fn script_pass(script: &ScriptWorkload, exact: &mut Exact, out: &mut Outcome) -> Timing {
    let mut os = forge_os();
    let booted_at = os.now();
    // Room for a script of a million syscalls, so no cut allocates.
    let mut pieces = Vec::with_capacity(Chunked::<Os>::pieces_of(1 << 20));
    let allocs = alloc_calls();
    let t = Instant::now();
    let mut chunked = Chunked::new(&mut os, &mut pieces);
    let run = script.run(&mut chunked);
    chunked.finish();
    let timing = Timing {
        ns: t.elapsed().as_nanos() as u64,
        allocs: alloc_calls() - allocs,
        syscalls: os.metrics().syscalls,
        pieces: vec![pieces],
        mismatches: 0,
    };
    let pass = Exact {
        syscalls: timing.syscalls,
        allocs: timing.allocs,
        vcycles: os.now() - booted_at,
        digest: 0,
    };
    out.failed += u64::from(!run.clean()) + u64::from(exact.syscalls != 0 && *exact != pass);
    *exact = pass;
    out.ops += pass.syscalls;
    timing
}

fn forge_end_to_end(seed: u64, sizing: &Sizing, started: Instant) -> Outcome {
    let mut out = Outcome::default();
    let before = started.elapsed().as_secs_f64();
    let forge = Forge::new(forge_config(sizing, seed, 1));
    let script = *forge.script();
    let mut exact = Exact::default();
    let mut per_syscall = Vec::new();
    let mut by_piece = PassSamples::default();
    let mut setup_s = Vec::new();
    // A campaign boots its own machines. All this workload sets up is a
    // machine for a script pass, so that is what it repeats.
    let mut script_passes = |n: usize, out: &mut Outcome| {
        for _ in 0..n {
            let timing = script_pass(&script, &mut exact, out);
            per_syscall.push(timing.ns as f64 / timing.syscalls.max(1) as f64);
            by_piece.push(&timing);
            for _ in 0..sizing.probe_reps {
                let t = Instant::now();
                std::hint::black_box(forge_os());
                setup_s.push(before + t.elapsed().as_secs_f64());
            }
        }
    };
    script_passes(1, &mut out);

    let mut per_injection = Vec::new();
    let mut by_phase = PassSamples::default();
    let mut injections = 1;
    let mut exports = Vec::new();
    let mut digest = None;
    let mut reps = sizing.forge_reps;
    while per_injection.len() < reps {
        let rep = campaign_rep(&forge, None);
        injections = rep.result.report.injections.max(1);
        out.ops += injections as u64;
        // Every repetition runs the same plan: its records must repeat.
        let same = *digest.get_or_insert(campaign_digest(&rep)) == campaign_digest(&rep);
        out.failed += campaign_failures(&rep.result) + u64::from(!same);
        per_injection.push((rep.plan_ms + rep.run_ms) / injections as f64);
        // Planning and running are the two pieces of a campaign.
        by_phase.push(&Timing {
            pieces: vec![vec![(rep.plan_ms * 1e6) as u64, (rep.run_ms * 1e6) as u64]],
            ..Timing::default()
        });
        if per_injection.len() == 1 {
            let rep_s = (rep.plan_ms + rep.run_ms) / 1e3;
            reps = reps.max((sizing.seconds / rep_s) as usize);
            out.notes.push(format!(
                "{injections} injections per campaign, {reps} campaigns"
            ));
        }
        let campaign = &rep.result.campaign;
        for _ in 0..3 * sizing.probe_reps {
            let t = Instant::now();
            std::hint::black_box((
                rep.result.report_json().pretty(),
                campaign.metrics_handle().prometheus(),
                campaign.metrics_handle().json().pretty(),
                campaign.axiom_bytes(),
            ));
            exports.push(t.elapsed().as_secs_f64() * 1e3);
        }
        script_passes(4, &mut out);
    }
    out.sim_digest = digest.unwrap_or_default();
    let per_syscall = Summary {
        min: by_piece.fastest_ns() / exact.syscalls.max(1) as f64,
        ..Summary::of(&per_syscall)
    };
    out.metrics
        .push(Metric::timed("host_ns_per_syscall", per_syscall));
    let per_injection = Summary {
        min: by_phase.fastest_ns() / 1e6 / injections as f64,
        ..Summary::of(&per_injection)
    };
    out.metrics
        .push(Metric::timed("host_ms_per_injection", per_injection));
    out.metrics.extend(exact.metrics());
    out.metrics
        .push(Metric::timed("export_replay_ms", Summary::of(&exports)));
    out.metrics
        .push(Metric::plain("peak_rss_mib", peak_rss_mib()));
    out.metrics
        .push(Metric::timed("setup_s", Summary::of(&setup_s)));
    out
}

/// The campaign's script through a traced engine, once, and once without.
fn forge_traced(sizing: &Sizing, log: &mut SpanLog, out: &mut Outcome) -> Traces {
    let script = ScriptWorkload {
        stress_rounds: sizing.forge_stress,
        ..ScriptWorkload::default()
    };
    let mut tr = Traces::default();
    let mut os = forge_os();
    let before = Counters::read(&os);
    let t = Instant::now();
    log.open(Kind::Pass, 0, NO_SERVER);
    let mut traced = Traced { os: &mut os, log };
    let run = script.run(&mut traced);
    traced.end_syscall();
    log.close();
    tr.wall_ns = t.elapsed().as_nanos() as u64;
    tr.counters = Counters::read(&os).since(before);
    tr.traced = tr.wall_ns as f64 / tr.counters.syscalls.max(1) as f64;
    out.failed += u64::from(!run.clean());
    let untraced = script_pass(&script, &mut Exact::default(), out);
    tr.untraced = untraced.ns as f64 / untraced.syscalls.max(1) as f64;
    let mut os = forge_os();
    let mut taping = Taping {
        os: &mut os,
        tape: Tape::default(),
    };
    script.run(&mut taping);
    let mut canned = Canned::new(taping.tape);
    let t = Instant::now();
    out.failed += u64::from(!script.run(&mut canned).clean());
    tr.driver = t.elapsed().as_nanos() as f64 / untraced.syscalls.max(1) as f64;
    tr
}

/// Runs `workload` and returns its metrics: end-to-end ones with tracing
/// off, per-layer ones with it on.
pub fn run(workload: &str, seed: u64, sizing: &Sizing, trace: bool, started: Instant) -> Outcome {
    enum Which {
        Generated(Generated),
        Paper(Paper),
        Forge,
    }
    let which = match workload {
        "null_rpc" => Which::Generated(Generated(Workload::NullRpc)),
        "write_heavy" => Which::Generated(Generated(Workload::WriteHeavy)),
        "crash_storm" => Which::Generated(Generated(Workload::CrashStorm)),
        "paper_replay" => Which::Paper(Paper {
            cfg: config::default,
        }),
        "paper_observed" => Which::Paper(Paper {
            cfg: config::observed,
        }),
        _ => Which::Forge,
    };
    if !trace {
        return match which {
            Which::Generated(g) => g.end_to_end(seed, sizing, started),
            Which::Paper(p) => p.end_to_end(seed, sizing, started),
            Which::Forge => forge_end_to_end(seed, sizing, started),
        };
    }

    let mut out = Outcome::default();
    let mut log = SpanLog::default();
    let tr = match which {
        Which::Generated(g) => g.traced(seed, sizing, &mut log, &mut out),
        Which::Paper(p) => p.traced(seed, sizing, &mut log, &mut out),
        Which::Forge => forge_traced(sizing, &mut log, &mut out),
    };
    out.metrics = workload_layers(&tr.counters, &log, tr.ecrash);
    out.metrics
        .push(Metric::plain("bench.driver_self_ns_per_syscall", tr.driver));
    let (traced, untraced) = (tr.traced, tr.untraced);
    out.metrics.push(Metric::plain(
        "trace_overhead_pct",
        100.0 * (traced - untraced) / untraced.max(1e-9),
    ));
    out.notes.push(format!(
        "traced {traced:.1} ns/syscall against {untraced:.1} untraced"
    ));

    let (forge, forge_wall_ms) = probes::forge_probes(sizing, seed, &mut log);
    let wall_ns = tr.wall_ns + (forge_wall_ms * 1e6) as u64;
    out.metrics.push(Metric::plain(
        "bench.span_reconcile_pct",
        log.reconcile_pct(wall_ns),
    ));
    out.metrics.extend(probes::os_probes(sizing.probe_reps));
    out.metrics
        .extend(probes::checkpoint_probes(sizing.probe_reps));
    out.absorb(forge);
    out.absorb(probes::export_probes(sizing.probe_reps));
    out.absorb(probes::ablation(sizing));
    let path = crate::out_dir().join(format!("{workload}.spans.jsonl"));
    match log.write_jsonl(&path) {
        Ok(()) => out
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => {
            out.failed += 1;
            out.notes
                .push(format!("spans not written to {}: {e}", path.display()));
        }
    }
    out
}
