//! Flight-recorder hot path: logged-write windows through a [`Heap`].
//!
//! * **baseline** — no tracer attached; each emit point is one `Option`
//!   check.
//! * **disabled** — a [`TraceHandle`] is attached but tracing is off; each
//!   emit point additionally pays one branch on a bool the heap caches at
//!   window boundaries (see `Heap::set_tracer`).
//! * **recording** — each logged write lands one
//!   [`osiris_trace::TraceEvent`] in the ring, which is sized at
//!   [`TraceHandle::new`] time.

use osiris_checkpoint::{Heap, PCell};
use osiris_rng::Rng;
use osiris_trace::{TraceConfig, TraceHandle};

use crate::json::Json;
use crate::overhead::{Attach, Extra, Layer, Scale};

const SCRATCH_CELLS: usize = 8;

/// One precomputed logged write; the schedule is generated outside the
/// timed loop so the measurement isolates the store+log+trace path.
#[derive(Clone, Copy)]
enum Op {
    Cell(u64),
    Scratch(u32, u64),
}

/// The flight-recorder layer.
pub struct Trace {
    /// Recovery windows (mark → writes → rollback) per repetition.
    windows: u64,
    /// Windows run in `setup`, to warm caches, the undo arena and the ring.
    warmup_windows: u64,
    /// One window's writes: skewed toward one hot cell (coalesced appends,
    /// which emit `UndoCoalesce`) with a minority of scattered stores
    /// (fresh appends, `UndoAppend`), so both emit points are measured.
    ops: Vec<Op>,
}

impl Trace {
    /// The layer at `scale`.
    pub fn new(scale: Scale) -> Trace {
        let (windows, writes_per_window, warmup_windows) = match scale {
            Scale::Full => (400, 4_096, 8),
            Scale::Check => (100, 2_048, 4),
        };
        let mut r = Rng::new(0x7ACE);
        let ops = (0..writes_per_window)
            .map(|_| match r.below(4) {
                0..=2 => Op::Cell(r.next_u64()),
                _ => Op::Scratch(r.below(SCRATCH_CELLS as u64) as u32, r.next_u64()),
            })
            .collect();
        Trace {
            windows,
            warmup_windows,
            ops,
        }
    }

    fn run_windows(&self, m: &mut State, windows: u64) {
        for _ in 0..windows {
            m.heap.set_logging(true);
            let mark = m.heap.mark();
            for op in &self.ops {
                match *op {
                    Op::Cell(v) => m.hot.set(&mut m.heap, v),
                    Op::Scratch(i, v) => m.scratch[i as usize].set(&mut m.heap, v),
                }
            }
            m.heap.rollback_to(mark);
            m.heap.set_logging(false);
        }
    }
}

/// One arm's heap, cells and (possibly placebo) tracer.
pub struct State {
    heap: Heap,
    hot: PCell<u64>,
    scratch: Vec<PCell<u64>>,
    tracer: TraceHandle,
}

impl Layer for Trace {
    type State = State;
    const UNIT: &'static str = "write";
    const ARMS: [&'static str; 3] = [
        "baseline_no_tracer",
        "attached_disabled",
        "attached_recording",
    ];

    fn params(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("windows", self.windows),
            ("writes_per_window", self.ops.len() as u64),
        ]
    }

    fn units(&self) -> u64 {
        self.windows * self.ops.len() as u64
    }

    fn setup(&self, attach: Attach) -> State {
        let mut heap = Heap::new("bench-trace");
        // The baseline builds a handle too and simply never attaches it.
        let tracer = TraceHandle::new(match attach {
            Attach::Enabled => TraceConfig::on(),
            Attach::None | Attach::Disabled => TraceConfig::default(),
        });
        if attach != Attach::None {
            heap.set_tracer(tracer.clone(), 0);
        }
        let mut m = State {
            hot: heap.alloc_cell("hot", 0),
            scratch: (0..SCRATCH_CELLS)
                .map(|_| heap.alloc_cell("scratch", 0))
                .collect(),
            heap,
            tracer,
        };
        self.run_windows(&mut m, self.warmup_windows);
        m
    }

    fn run(&self, m: &mut State, _attach: Attach) {
        self.run_windows(m, self.windows);
    }

    fn extras(&self, m: &State) -> Vec<Extra> {
        let (recorded, wrapped) = m.tracer.with(|t| (t.total_recorded(), t.has_wrapped()));
        vec![
            ("events_recorded", Json::UInt(recorded), None),
            // The run must exercise the steady-state overwrite path, not
            // only initial fills.
            ("ring_wrapped", Json::Bool(wrapped), Some(Json::Bool(true))),
        ]
    }
}
