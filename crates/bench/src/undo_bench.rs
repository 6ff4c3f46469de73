//! Microbenchmark for the checkpoint hot path: typed allocation-free undo
//! journal vs the historical boxed-closure log.
//!
//! Drives identical write-heavy recovery windows through a [`Heap`] in each
//! [`UndoMode`] on the shared [`time_arms`] core (interleaved arms, fresh
//! state per repetition, min-of-reps, allocator calls over one warm
//! repetition) and reports logged-write throughput, peak undo bytes and the
//! allocator calls steady-state logging makes. Rollback is timed directly
//! by the whole-`Os` ledger (`checkpoint.journal.rollback_ns_per_record` in
//! `benchmark/`), not here.
//!
//! The store itself (handle lookup, downcast, the actual memory write) costs
//! the same in every mode and would otherwise dilute the log-vs-log
//! comparison, so a fourth arm times the identical schedule with logging
//! off (the *floor*) and each mode reports its **logging overhead** — time
//! above the floor — alongside the raw end-to-end rate. The headline
//! speedup compares overheads; both raw and floor numbers are emitted so the
//! arithmetic can be checked.

use osiris_checkpoint::{Heap, HeapStats, PBuf, PCell, PVec, UndoMode};
use osiris_rng::Rng;

use crate::json::{alloc_count_json, Json};
use crate::overhead::{time_arms, wall_clock};

/// Floor on the typed-vs-boxed logging-overhead speedup.
pub const UNDO_SPEEDUP_FLOOR: f64 = 5.0;

/// Measurements for one undo-log implementation.
#[derive(Clone, Copy, Debug)]
pub struct UndoModeResult {
    /// Logged writes per second (wall-clock, including rollback).
    pub writes_per_sec: f64,
    /// Nanoseconds per logged write spent in the undo log itself: wall-clock
    /// per write minus the no-logging floor for the identical schedule.
    pub log_overhead_ns: f64,
    /// High-water mark of undo-log bytes across one repetition.
    pub peak_undo_bytes: usize,
    /// Records actually appended.
    pub undo_appends: u64,
    /// Logged writes elided by coalescing (typed mode only).
    pub coalesced_writes: u64,
    /// Allocator calls during one post-warm-up repetition, if an allocation
    /// counter was supplied.
    pub steady_state_allocs: Option<u64>,
}

/// The full comparison.
#[derive(Clone, Copy, Debug)]
pub struct UndoBenchResult {
    /// Recovery windows (mark → writes → rollback) per repetition.
    pub windows: u64,
    /// Logged writes per window.
    pub writes_per_window: u64,
    /// Nanoseconds per write for the identical schedule with logging off —
    /// the cost of the stores themselves, common to every mode.
    pub floor_ns: f64,
    /// The boxed-closure reference implementation ("before").
    pub boxed: UndoModeResult,
    /// The typed journal with coalescing disabled.
    pub typed_no_coalesce: UndoModeResult,
    /// The typed journal as shipped, coalescing enabled ("after").
    pub typed: UndoModeResult,
}

impl UndoBenchResult {
    /// Logging-overhead speedup of the shipped configuration over the boxed
    /// baseline: time spent *in the undo log* per logged write, boxed vs
    /// typed. The floor (the stores themselves, identical in both modes) is
    /// excluded so the log implementations are compared to each other, not
    /// to the workload.
    pub fn speedup(&self) -> f64 {
        self.boxed.log_overhead_ns / self.typed.log_overhead_ns.max(1e-3)
    }

    /// End-to-end wall-clock speedup (stores + logging + rollback), for
    /// reference alongside [`UndoBenchResult::speedup`].
    pub fn raw_speedup(&self) -> f64 {
        self.typed.writes_per_sec / self.boxed.writes_per_sec
    }

    /// Everything `bench_layers` fails on: the speedup floor and allocator
    /// calls in the typed journal's steady state.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.speedup() < UNDO_SPEEDUP_FLOOR {
            out.push(format!(
                "typed journal logging overhead must be >={UNDO_SPEEDUP_FLOOR}x faster than \
                 the boxed baseline, got {:.2}x",
                self.speedup()
            ));
        }
        if let Some(n @ 1..) = self.typed.steady_state_allocs {
            out.push(format!(
                "steady-state typed logging made {n} allocator calls, must make 0"
            ));
        }
        out
    }

    /// The `undo` object in `BENCH_layers.json`.
    pub fn to_json(&self) -> Json {
        let mode = |r: &UndoModeResult| {
            Json::obj([
                ("writes_per_sec", Json::Num(r.writes_per_sec)),
                ("log_overhead_ns_per_write", Json::Num(r.log_overhead_ns)),
                ("peak_undo_bytes", Json::UInt(r.peak_undo_bytes as u64)),
                ("undo_appends", Json::UInt(r.undo_appends)),
                ("coalesced_writes", Json::UInt(r.coalesced_writes)),
                (
                    "steady_state_allocs",
                    alloc_count_json(r.steady_state_allocs),
                ),
            ])
        };
        Json::obj([
            ("windows", Json::UInt(self.windows)),
            ("writes_per_window", Json::UInt(self.writes_per_window)),
            ("store_floor_ns_per_write", Json::Num(self.floor_ns)),
            ("boxed_before", mode(&self.boxed)),
            ("typed_no_coalesce", mode(&self.typed_no_coalesce)),
            ("typed_after", mode(&self.typed)),
            (
                "speedup_log_overhead_typed_vs_boxed",
                Json::Num(self.speedup()),
            ),
            ("speedup_floor", Json::Num(UNDO_SPEEDUP_FLOOR)),
            (
                "speedup_end_to_end_typed_vs_boxed",
                Json::Num(self.raw_speedup()),
            ),
        ])
    }
}

/// One precomputed logged write, kept to 16 bytes so replaying the schedule
/// adds as little dispatch cost as possible. The schedule is generated
/// outside the timed loop so the measurement isolates the store+log path
/// rather than the benchmark's own RNG overhead.
#[derive(Clone, Copy)]
enum Op {
    /// Hot counter cell: the dominant store in real servers.
    Cell(u64),
    Scratch(u32, u64),
    VecSet(u32, u32),
    /// 48-byte write at the given offset; the payload is the schedule-wide
    /// `buf_data` pattern (content is irrelevant to undo-log cost).
    Buf(u32),
}

const SCRATCH_CELLS: usize = 8;

/// The workload: `windows` replays of one window's write schedule.
struct Workload {
    windows: u64,
    warmup_windows: u64,
    ops: Vec<Op>,
    buf_data: [u8; 48],
}

/// The arms, in interleave order.
#[derive(Clone, Copy, PartialEq)]
enum Arm {
    /// Logging off: the stores themselves.
    Floor,
    Boxed,
    TypedNoCoalesce,
    Typed,
}

const ARMS: [Arm; 4] = [Arm::Floor, Arm::Boxed, Arm::TypedNoCoalesce, Arm::Typed];

struct World {
    heap: Heap,
    hot: PCell<u64>,
    scratch: Vec<PCell<u64>>,
    vec: PVec<u32>,
    buf: PBuf,
}

impl Workload {
    /// The per-window write mix: skewed toward repeated stores to a few hot
    /// locations, the pattern OS servers exhibit inside one request's
    /// recovery window (counters, the active inode, the current cache page).
    fn sized(windows: u64, writes_per_window: u64, warmup_windows: u64) -> Workload {
        let mut r = Rng::new(0xBE4C4);
        let ops = (0..writes_per_window)
            .map(|_| match r.below(16) {
                0..=7 => Op::Cell(r.next_u64()),
                8..=10 => Op::VecSet(r.below(4) as u32, r.next_u32()),
                11..=13 => Op::Scratch(r.below(SCRATCH_CELLS as u64) as u32, r.next_u64()),
                _ => Op::Buf((r.below(4) * 64) as u32),
            })
            .collect();
        let mut buf_data = [0u8; 48];
        buf_data.copy_from_slice(&r.bytes(48));
        Workload {
            windows,
            warmup_windows,
            ops,
            buf_data,
        }
    }

    fn setup(&self, arm: Arm) -> World {
        let mut heap = Heap::new("bench-undo");
        if arm == Arm::Boxed {
            heap.set_undo_mode(UndoMode::BoxedReference);
        }
        heap.set_coalescing(arm == Arm::Typed);
        let mut w = World {
            hot: heap.alloc_cell("hot", 0),
            scratch: (0..SCRATCH_CELLS)
                .map(|_| heap.alloc_cell("scratch", 0))
                .collect(),
            vec: heap.alloc_vec("vec"),
            buf: heap.alloc_buf("buf"),
            heap,
        };
        for i in 0..8 {
            w.vec.push(&mut w.heap, i);
        }
        w.buf.write_at(&mut w.heap, 0, &[0u8; 256]);
        self.run_windows(&mut w, arm, self.warmup_windows);
        w.heap.reset_stats();
        w
    }

    fn run_windows(&self, w: &mut World, arm: Arm, windows: u64) {
        let logged = arm != Arm::Floor;
        for _ in 0..windows {
            let mark = logged.then(|| {
                w.heap.set_logging(true);
                w.heap.mark()
            });
            for op in &self.ops {
                match *op {
                    Op::Cell(v) => w.hot.set(&mut w.heap, v),
                    Op::Scratch(i, v) => w.scratch[i as usize].set(&mut w.heap, v),
                    Op::VecSet(i, v) => w.vec.set(&mut w.heap, i as usize, v),
                    Op::Buf(off) => w.buf.write_at(&mut w.heap, off as usize, &self.buf_data),
                }
            }
            if let Some(mark) = mark {
                w.heap.rollback_to(mark);
                w.heap.set_logging(false);
            }
        }
    }

    fn measure(&self, alloc_count: Option<fn() -> u64>) -> UndoBenchResult {
        let mut stats = [HeapStats::default(); ARMS.len()];
        let writes = self.windows * self.ops.len() as u64;
        let arms = time_arms(
            &ARMS,
            writes,
            alloc_count,
            wall_clock(),
            |arm| self.setup(arm),
            |w, arm| self.run_windows(w, arm, self.windows),
            |i, w| stats[i] = *w.heap.stats(),
        );
        let floor_ns = arms[0].ns_per_unit;
        let mode = |i: usize| UndoModeResult {
            writes_per_sec: 1e9 / arms[i].ns_per_unit,
            log_overhead_ns: (arms[i].ns_per_unit - floor_ns).max(0.0),
            peak_undo_bytes: stats[i].undo_bytes_peak,
            undo_appends: stats[i].undo_appends,
            coalesced_writes: stats[i].coalesced_writes,
            steady_state_allocs: arms[i].steady_state_allocs,
        };
        UndoBenchResult {
            windows: self.windows,
            writes_per_window: self.ops.len() as u64,
            floor_ns,
            boxed: mode(1),
            typed_no_coalesce: mode(2),
            typed: mode(3),
        }
    }
}

/// Runs the comparison. There is one workload size: the speedup is a ratio
/// of two differences against the floor, and a scaled-down run does not
/// resolve the smaller one.
pub fn bench_undo(alloc_count: Option<fn() -> u64>) -> UndoBenchResult {
    Workload::sized(400, 4_096, 8).measure(alloc_count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_produces_sane_numbers() {
        let r = Workload::sized(4, 512, 2).measure(None);
        assert!(r.boxed.writes_per_sec > 0.0);
        assert!(r.typed.writes_per_sec > 0.0);
        assert_eq!(r.boxed.coalesced_writes, 0, "reference never coalesces");
        assert!(r.typed.coalesced_writes > 0, "hot workload must coalesce");
        assert!(r.typed.peak_undo_bytes < r.boxed.peak_undo_bytes);
        // Stats cover exactly one post-warm-up repetition.
        assert_eq!(r.boxed.undo_appends, 4 * 512);
        let j = r.to_json().pretty();
        assert!(j.contains("speedup_log_overhead_typed_vs_boxed"));
        assert!(j.contains("store_floor_ns_per_write"));
        assert!(!j.contains("rollback_per_sec"));
    }
}
