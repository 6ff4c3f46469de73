//! The one overhead driver behind every layer microbenchmark.
//!
//! Each observability layer (flight recorder, metrics registry, axiom log,
//! request spans) claims the same two things: attached-but-disabled it
//! costs next to nothing over code with the layer deleted, and recording
//! makes **zero** allocator calls once warm. A [`Layer`] describes how to
//! build and drive one such hot path; [`measure`] owns every measurement
//! decision, once:
//!
//! * **Arms.** *baseline* ([`Attach::None`], layer deleted), *disabled*
//!   (attached but off — what production ships, so its overhead over the
//!   baseline is the headline number) and *recording*.
//! * **Interleaving.** Arms run round-robin inside each of [`REPS`]
//!   repetitions and each keeps its fastest repetition: per-unit deltas of a
//!   fraction of a nanosecond are far below run-to-run machine drift, so the
//!   arms must sample the same conditions for their difference to mean
//!   anything.
//! * **Placement parity.** Every (repetition, arm) builds its state from
//!   scratch, and that state is dropped before the next arm's setup runs,
//!   so each arm lands on the allocator blocks the previous one just freed.
//!   Long-lived per-arm states get permanently different data placement,
//!   and cache-set luck between placements is larger than the effect under
//!   test. Layers keep their side of this by allocating the same things in
//!   every arm (the baseline builds a placebo recorder it never attaches).
//! * **Allocator accounting** covers exactly one post-warm-up repetition;
//!   the remaining repetitions only refine the timing.
//! * **Noise floor.** The baseline is timed twice per repetition (A/A);
//!   the gap between the two minima is what this machine cannot resolve
//!   right now, and a disabled-vs-baseline gap below it is reported as
//!   [`Verdict::Unresolved`] instead of as a pass.
//! * **The bound.** Disabled overhead must be ≤[`DISABLED_BOUND_PCT`] % or
//!   ≤[`DISABLED_EPSILON_NS`] ns per unit, whichever is more permissive: on
//!   sub-10 ns paths the relative bound is finer than the clock.
//!
//! [`time_arms`] is the timing/allocator core on its own, for comparisons
//! whose arms are not the three attachments (`undo_bench`).

use std::time::Instant;

use crate::json::{alloc_count_json, Json, JsonObj};

/// Timing repetitions per arm; the fastest is kept.
pub const REPS: usize = 9;

/// Absolute overhead (ns/unit) below which the disabled check passes
/// regardless of the relative bound: half a nanosecond is the cost of the
/// relaxed atomic load itself.
pub const DISABLED_EPSILON_NS: f64 = 0.5;

/// Relative bound on the disabled overhead, in percent.
pub const DISABLED_BOUND_PCT: f64 = 2.0;

/// Workload size: the published numbers or the scaled-down CI gate
/// (`bench_layers --check`). Both enforce the same bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The size `BENCH_layers.json` is generated at.
    Full,
    /// Large enough for stable min-of-reps timing (and ring wraparound),
    /// small enough to finish in well under a second per layer.
    Check,
}

/// How the layer under test is attached to the hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Attach {
    /// Layer deleted: the baseline.
    None,
    /// Attached but switched off: the shipping configuration.
    Disabled,
    /// Attached and recording.
    Enabled,
}

/// Arm order within one repetition. The second baseline run is the A/A
/// sample; it goes last so the two baselines bracket the arms under test.
const ARMS: [Attach; 4] = [
    Attach::None,
    Attach::Disabled,
    Attach::Enabled,
    Attach::None,
];

/// One layer's hot path, as the driver needs to see it.
pub trait Layer {
    /// Everything one (repetition, arm) builds, warms and then mutates.
    type State;
    /// What one unit of work is (`write`, `event`, `msg`).
    const UNIT: &'static str;
    /// Labels of the baseline, disabled and recording arms.
    const ARMS: [&'static str; 3];
    /// The workload size, echoed into the report.
    fn params(&self) -> Vec<(&'static str, u64)>;
    /// Units of work one [`Layer::run`] performs.
    fn units(&self) -> u64;
    /// Fresh, warmed-up state for one arm.
    fn setup(&self, attach: Attach) -> Self::State;
    /// One timed repetition.
    fn run(&self, state: &mut Self::State, attach: Attach);
    /// What the recording arm retained, read back after its first
    /// repetition: name, value and — for the layer's invariants — the value
    /// it must have.
    fn extras(&self, recording: &Self::State) -> Vec<Extra>;
}

/// One [`Layer::extras`] entry: `(name, value, required value)`.
pub type Extra = (&'static str, Json, Option<Json>);

/// Measurements for one arm.
#[derive(Clone, Copy, Debug)]
pub struct ArmResult {
    /// Nanoseconds per unit of work (fastest repetition).
    pub ns_per_unit: f64,
    /// Allocator calls during one post-warm-up repetition, if a counter
    /// was supplied.
    pub steady_state_allocs: Option<u64>,
}

/// The timing core: runs `arms` interleaved for [`REPS`] repetitions with a
/// fresh `setup` per (repetition, arm), keeps each arm's fastest `run` (of
/// `units` units of work), and counts allocator calls over the first
/// repetition's `run` only. `inspect` sees each arm's state once, after
/// that first repetition. `now` reads a monotonic clock in seconds.
pub fn time_arms<A: Copy, S>(
    arms: &[A],
    units: u64,
    alloc_count: Option<fn() -> u64>,
    mut now: impl FnMut() -> f64,
    mut setup: impl FnMut(A) -> S,
    mut run: impl FnMut(&mut S, A),
    mut inspect: impl FnMut(usize, &S),
) -> Vec<ArmResult> {
    let mut out = vec![
        ArmResult {
            ns_per_unit: f64::INFINITY,
            steady_state_allocs: None,
        };
        arms.len()
    ];
    for rep in 0..REPS {
        for (i, &arm) in arms.iter().enumerate() {
            let mut state = setup(arm);
            let allocs_before = alloc_count.map(|f| f());
            let start = now();
            run(&mut state, arm);
            let ns = (now() - start).max(1e-9) * 1e9 / units as f64;
            out[i].ns_per_unit = out[i].ns_per_unit.min(ns);
            if rep == 0 {
                out[i].steady_state_allocs = alloc_count.map(|f| f() - allocs_before.unwrap_or(0));
                inspect(i, &state);
            }
        }
    }
    out
}

/// What a disabled-overhead measurement says about the bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, by a gap the machine resolved.
    Ok,
    /// Over both the relative and the absolute bound.
    Exceeded,
    /// Within the bound, but the gap is below the A/A noise floor: the
    /// run shows no violation and cannot show compliance either.
    Unresolved,
}

impl Verdict {
    /// The value written to `BENCH_layers.json`.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Exceeded => "exceeded",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One layer's full comparison.
#[derive(Clone, Debug)]
pub struct LayerReport {
    /// [`Layer::UNIT`].
    pub unit: &'static str,
    /// [`Layer::ARMS`].
    pub arm_labels: [&'static str; 3],
    /// [`Layer::params`].
    pub params: Vec<(&'static str, u64)>,
    /// Layer deleted.
    pub baseline: ArmResult,
    /// Attached but off — the shipping configuration.
    pub disabled: ArmResult,
    /// Full recording.
    pub enabled: ArmResult,
    /// |min A₁ − min A₂| of the two baseline runs, ns per unit.
    pub noise_floor_ns: f64,
    /// [`Layer::extras`] of the recording arm.
    pub extras: Vec<Extra>,
}

fn overhead_pct(base_ns: f64, mode_ns: f64) -> f64 {
    ((mode_ns - base_ns).max(0.0) / base_ns.max(1e-9)) * 100.0
}

impl LayerReport {
    /// Disabled overhead over the baseline, in percent (clamped at zero:
    /// the disabled arm may do less work than the baseline it replaces).
    pub fn disabled_overhead_pct(&self) -> f64 {
        overhead_pct(self.baseline.ns_per_unit, self.disabled.ns_per_unit)
    }

    /// Disabled overhead in absolute ns per unit (clamped at zero).
    pub fn disabled_overhead_ns(&self) -> f64 {
        (self.disabled.ns_per_unit - self.baseline.ns_per_unit).max(0.0)
    }

    /// Recording overhead over the baseline, in percent.
    pub fn enabled_overhead_pct(&self) -> f64 {
        overhead_pct(self.baseline.ns_per_unit, self.enabled.ns_per_unit)
    }

    fn disabled_within_bound(&self) -> bool {
        self.disabled_overhead_pct() <= DISABLED_BOUND_PCT
            || self.disabled_overhead_ns() <= DISABLED_EPSILON_NS
    }

    /// The bound check. A gap over the bound is [`Verdict::Exceeded`] even
    /// when it is below the noise floor, so a noisy machine never turns a
    /// failure into a pass.
    pub fn verdict(&self) -> Verdict {
        let gap = (self.disabled.ns_per_unit - self.baseline.ns_per_unit).abs();
        if !self.disabled_within_bound() {
            Verdict::Exceeded
        } else if gap < self.noise_floor_ns {
            Verdict::Unresolved
        } else {
            Verdict::Ok
        }
    }

    /// Everything `bench_layers` fails on: the layer's own invariants, the
    /// bound, and allocator calls in the recording arm.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (name, value, required) in &self.extras {
            if let Some(required) = required.as_ref().filter(|r| *r != value) {
                out.push(format!("{name} is {value:?}, must be {required:?}"));
            }
        }
        if self.verdict() == Verdict::Exceeded {
            out.push(format!(
                "disabled overhead {:.2}% ({:.3} ns/{}) exceeds the {DISABLED_BOUND_PCT}%/{DISABLED_EPSILON_NS}ns bound",
                self.disabled_overhead_pct(),
                self.disabled_overhead_ns(),
                self.unit
            ));
        }
        if let Some(n @ 1..) = self.enabled.steady_state_allocs {
            out.push(format!(
                "steady-state recording made {n} allocator calls, must make 0"
            ));
        }
        out
    }

    /// This layer's object in `BENCH_layers.json`.
    pub fn to_json(&self) -> Json {
        let arm = |r: &ArmResult| {
            Json::obj([
                ("ns_per_write", Json::Num(r.ns_per_unit)),
                ("writes_per_sec", Json::Num(1e9 / r.ns_per_unit)),
                (
                    "steady_state_allocs",
                    alloc_count_json(r.steady_state_allocs),
                ),
            ])
        };
        let mut obj = JsonObj::new().field("unit", Json::Str(self.unit.to_string()));
        for (k, v) in &self.params {
            obj = obj.field(k, Json::UInt(*v));
        }
        let arms = [&self.baseline, &self.disabled, &self.enabled];
        for (label, r) in self.arm_labels.iter().zip(arms) {
            obj = obj.field(label, arm(r));
        }
        for (k, v) in [
            ("disabled_overhead_pct", self.disabled_overhead_pct()),
            (
                "disabled_overhead_ns_per_write",
                self.disabled_overhead_ns(),
            ),
            ("disabled_bound_pct", DISABLED_BOUND_PCT),
            ("disabled_epsilon_ns", DISABLED_EPSILON_NS),
            ("noise_floor_ns", self.noise_floor_ns),
            ("enabled_overhead_pct", self.enabled_overhead_pct()),
        ] {
            obj = obj.field(k, Json::Num(v));
        }
        obj = obj.field("verdict", Json::Str(self.verdict().label().to_string()));
        for (k, v, _) in &self.extras {
            obj = obj.field(k, v.clone());
        }
        obj.build()
    }
}

/// Renders one `BENCH_layers.json` object as text, so the table on stdout
/// cannot drift from the file: a line per scalar field, a row per arm.
pub fn render_text(name: &str, object: &Json) -> String {
    let scalar = |v: &Json| match v {
        Json::Num(x) => format!("{x:.3}"),
        Json::Str(s) => s.clone(),
        other => other.pretty().trim_end().to_string(),
    };
    let mut out = format!("{name}:\n");
    let Json::Obj(fields) = object else {
        return out;
    };
    for (key, value) in fields {
        let shown = match value {
            Json::Obj(arm) => arm
                .iter()
                .map(|(k, v)| format!("{k}={}", scalar(v)))
                .collect::<Vec<_>>()
                .join("  "),
            other => scalar(other),
        };
        out.push_str(&format!("  {key:<32} {shown}\n"));
    }
    out
}

/// A monotonic wall clock in seconds, the `now` of every real measurement.
pub fn wall_clock() -> impl FnMut() -> f64 {
    let epoch = Instant::now();
    move || epoch.elapsed().as_secs_f64()
}

/// Runs the three-arm comparison for one layer against the wall clock.
pub fn measure<L: Layer>(layer: &L, alloc_count: Option<fn() -> u64>) -> LayerReport {
    measure_with(layer, alloc_count, wall_clock())
}

fn measure_with<L: Layer>(
    layer: &L,
    alloc_count: Option<fn() -> u64>,
    now: impl FnMut() -> f64,
) -> LayerReport {
    let mut extras = Vec::new();
    let arms = time_arms(
        &ARMS,
        layer.units(),
        alloc_count,
        now,
        |attach| layer.setup(attach),
        |state, attach| layer.run(state, attach),
        |i, state| {
            if ARMS[i] == Attach::Enabled {
                extras = layer.extras(state);
            }
        },
    );
    LayerReport {
        unit: L::UNIT,
        arm_labels: L::ARMS,
        params: layer.params(),
        baseline: arms[0],
        disabled: arms[1],
        enabled: arms[2],
        noise_floor_ns: (arms[0].ns_per_unit - arms[3].ns_per_unit).abs(),
        extras,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    thread_local! {
        /// The fake allocator counter and the fake clock (seconds).
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
        static CLOCK: Cell<f64> = const { Cell::new(0.0) };
    }

    /// A layer whose `run` costs a scripted number of virtual nanoseconds
    /// and "allocates" through the injected counter, logging every call.
    struct Fake {
        /// Virtual ns per run of [baseline A₁, disabled, recording,
        /// baseline A₂] in the last repetition; each earlier one costs 1 ns
        /// more, so the minimum is not the first sample.
        cost_ns: [f64; 4],
        /// Every `setup` / `run` call, in order.
        log: RefCell<Vec<(&'static str, Attach)>>,
    }

    fn drive(cost_ns: [f64; 4]) -> (LayerReport, Vec<(&'static str, Attach)>) {
        let fake = Fake {
            cost_ns,
            log: RefCell::new(Vec::new()),
        };
        let report = measure_with(&fake, Some(|| ALLOCS.get()), || CLOCK.get());
        (report, fake.log.into_inner())
    }

    impl Layer for Fake {
        type State = u64;
        const UNIT: &'static str = "op";
        const ARMS: [&'static str; 3] = ["base", "off", "on"];
        fn params(&self) -> Vec<(&'static str, u64)> {
            vec![("ops", 10)]
        }
        fn units(&self) -> u64 {
            10
        }
        fn setup(&self, attach: Attach) -> u64 {
            // Warm-up allocations: must stay out of the accounting.
            ALLOCS.set(ALLOCS.get() + 100);
            self.log.borrow_mut().push(("setup", attach));
            0
        }
        fn run(&self, state: &mut u64, attach: Attach) {
            // Setups and runs alternate, so this is run number `len / 2`.
            let n = self.log.borrow().len() / 2;
            let cost = self.cost_ns[n % 4] + (REPS - 1 - n / 4) as f64;
            CLOCK.set(CLOCK.get() + cost * 1e-9);
            if attach == Attach::Enabled {
                ALLOCS.set(ALLOCS.get() + 3);
            }
            *state += 1;
            self.log.borrow_mut().push(("run", attach));
        }
        fn extras(&self, recording: &u64) -> Vec<Extra> {
            vec![
                // Fresh state per (rep, arm): exactly one run so far.
                ("runs_on_state", Json::UInt(*recording), Some(Json::UInt(1))),
                ("violated", Json::Bool(false), Some(Json::Bool(true))),
            ]
        }
    }

    #[test]
    fn driver_interleaves_fresh_arms_and_accounts_one_repetition() {
        let (r, log) = drive([100.0, 101.0, 400.0, 104.0]);
        // One fresh setup immediately before each run, arms round-robin
        // with the A/A baseline last, for REPS repetitions.
        assert_eq!(log.len(), 2 * 4 * REPS);
        for (n, pair) in log.chunks(2).enumerate() {
            assert_eq!(pair[0], ("setup", ARMS[n % 4]));
            assert_eq!(pair[1], ("run", ARMS[n % 4]));
        }
        // Every state saw exactly one run (fresh per (rep, arm)): only the
        // invariant that never holds and the allocator calls reach the gate.
        assert_eq!(
            r.failures(),
            [
                "violated is Bool(false), must be Bool(true)",
                "steady-state recording made 3 allocator calls, must make 0"
            ]
        );
        // Min-of-reps over 10 units: ns_per_unit x units is the fastest
        // repetition.
        assert!((r.baseline.ns_per_unit * 10.0 - 100.0).abs() < 1e-6);
        assert!((r.disabled.ns_per_unit * 10.0 - 101.0).abs() < 1e-6);
        assert!((r.enabled.ns_per_unit * 10.0 - 400.0).abs() < 1e-6);
        assert!((r.noise_floor_ns - 0.4).abs() < 1e-6);
        // Allocator calls: one repetition's worth, warm-up excluded.
        assert_eq!(r.baseline.steady_state_allocs, Some(0));
        assert_eq!(r.disabled.steady_state_allocs, Some(0));
        assert_eq!(r.enabled.steady_state_allocs, Some(3));
        let j = r.to_json().pretty();
        for key in ["\"base\"", "\"on\"", "noise_floor_ns", "\"ops\": 10"] {
            assert!(j.contains(key), "{key} missing from {j}");
        }
        assert!(j.contains("\"verdict\": \"unresolved\""));
        assert!(render_text("fake", &r.to_json()).contains("runs_on_state"));
    }

    #[test]
    fn verdict_is_three_valued() {
        // 0.1 ns/op gap, 0.4 ns/op noise floor: inside the bound but
        // below what the A/A pair resolves.
        let (r, _) = drive([100.0, 101.0, 400.0, 104.0]);
        assert_eq!(r.verdict(), Verdict::Unresolved);
        // Same gap, quiet machine.
        let (r, _) = drive([100.0, 101.0, 400.0, 100.5]);
        assert_eq!(r.verdict(), Verdict::Ok);
        // A disabled arm faster than its baseline is clamped, not negative.
        let (r, _) = drive([100.0, 60.0, 400.0, 100.0]);
        assert_eq!((r.verdict(), r.disabled_overhead_pct()), (Verdict::Ok, 0.0));
        // 8 ns/op and 80%: over both bounds. Stays exceeded under a noise
        // floor wider than the gap, and fails the gate.
        let (r, _) = drive([100.0, 180.0, 400.0, 200.0]);
        assert_eq!(r.verdict(), Verdict::Exceeded);
        assert!(r.failures().iter().any(|f| f.contains("exceeds")));
        // Over 2% but under 0.5 ns/op: the absolute epsilon admits it.
        let (r, _) = drive([100.0, 104.0, 400.0, 100.0]);
        assert_eq!(r.verdict(), Verdict::Ok);
    }
}
