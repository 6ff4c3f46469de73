//! Metrics-registry hot path: counter adds interleaved with histogram
//! observations.
//!
//! * **baseline** — no registry; a plain `u64` accumulator and a local
//!   [`Log2Hist`]: what the instrumented code would cost with the
//!   instrumentation replaced by bare fields.
//! * **disabled** — handles registered against a [`MetricsHandle`] whose
//!   registry is off; every write is one relaxed atomic load and a
//!   predictable branch (so this arm can be *faster* than the baseline,
//!   which still does the bookkeeping).
//! * **recording** — counter writes are relaxed `fetch_add`s on a shared
//!   slot, histogram writes take the series mutex and bump a bucket. Slots
//!   are allocated once at registration.

use std::hint::black_box;

use osiris_metrics::{Counter, Hist, MetricsConfig, MetricsHandle};
use osiris_rng::Rng;
use osiris_trace::hist::Log2Hist;

use crate::json::Json;
use crate::overhead::{Attach, Extra, Layer, Scale};

/// One precomputed metric write; the mix alternates counter adds and
/// histogram observations so both hot paths are on the measured loop.
#[derive(Clone, Copy)]
enum Op {
    Add(u64),
    Observe(u64),
}

/// The metrics-registry layer.
pub struct Metrics {
    /// Rounds of `ops` per repetition.
    rounds: u64,
    /// Rounds run in `setup`, to warm caches and the registry.
    warmup_rounds: u64,
    ops: Vec<Op>,
}

impl Metrics {
    /// The layer at `scale`.
    pub fn new(scale: Scale) -> Metrics {
        let (rounds, writes_per_round, warmup_rounds) = match scale {
            Scale::Full => (400, 4_096, 8),
            Scale::Check => (100, 2_048, 4),
        };
        let mut r = Rng::new(0x3E7A);
        let ops = (0..writes_per_round)
            .map(|i| {
                // Small deltas and latency-like magnitudes, as production
                // counters see.
                let v = r.below(1 << 14) + 1;
                if i % 2 == 0 {
                    Op::Add(v % 7 + 1)
                } else {
                    Op::Observe(v)
                }
            })
            .collect();
        Metrics {
            rounds,
            warmup_rounds,
            ops,
        }
    }

    fn run_rounds(&self, m: &mut State, attach: Attach, rounds: u64) {
        for _ in 0..rounds {
            if attach == Attach::None {
                for op in &self.ops {
                    match *op {
                        Op::Add(v) => m.total = m.total.wrapping_add(v),
                        Op::Observe(v) => m.local_hist.record(v),
                    }
                }
                // Keep the accumulator alive so the adds aren't folded away.
                black_box(m.total);
            } else {
                for op in &self.ops {
                    match *op {
                        Op::Add(v) => m.counter.add(v),
                        Op::Observe(v) => m.hist.observe(v),
                    }
                }
            }
        }
    }
}

/// One arm's plain fields and registered handles; every arm builds both
/// and drives one.
pub struct State {
    total: u64,
    local_hist: Log2Hist,
    /// Keeps the registry alive while its handles are written through.
    _registry: MetricsHandle,
    counter: Counter,
    hist: Hist,
}

impl Layer for Metrics {
    type State = State;
    const UNIT: &'static str = "write";
    const ARMS: [&'static str; 3] = [
        "baseline_no_registry",
        "registered_disabled",
        "registered_recording",
    ];

    fn params(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("rounds", self.rounds),
            ("writes_per_round", self.ops.len() as u64),
        ]
    }

    fn units(&self) -> u64 {
        self.rounds * self.ops.len() as u64
    }

    fn setup(&self, attach: Attach) -> State {
        let handle = MetricsHandle::new(MetricsConfig {
            enabled: attach == Attach::Enabled,
        });
        let labels = [("component", "bench")];
        let mut m = State {
            total: 0,
            local_hist: Log2Hist::new(),
            counter: handle.counter("osiris_bench_ops_total", "benchmark counter", &labels),
            hist: handle.hist(
                "osiris_bench_latency_cycles",
                "benchmark histogram",
                &labels,
            ),
            _registry: handle,
        };
        self.run_rounds(&mut m, attach, self.warmup_rounds);
        m
    }

    fn run(&self, m: &mut State, attach: Attach) {
        self.run_rounds(m, attach, self.rounds);
    }

    fn extras(&self, m: &State) -> Vec<Extra> {
        // Every warm-up and measured observation landed.
        let observations = (self.warmup_rounds + self.rounds) * self.ops.len() as u64 / 2;
        vec![
            ("counter_total", Json::UInt(m.counter.get()), None),
            (
                "observations",
                Json::UInt(m.hist.get().count()),
                Some(Json::UInt(observations)),
            ),
        ]
    }
}
