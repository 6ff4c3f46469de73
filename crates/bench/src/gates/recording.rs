//! Recording is allocation-free once warm, in every layer that records on
//! the hot path: the typed undo journal, the flight recorder (a heap's
//! stage appended to the kernel's ring), the metrics registry, the axiom
//! log and request spans.
//!
//! Each drive builds the layer the way the kernel does, warms it (so
//! arenas, rings and logs reach their working capacity), then counts the
//! allocator calls of one recording repetition and reads back what the
//! layer retained. Schedules are precomputed from fixed seeds, so the
//! retained counts are functions of the sizes alone.

use osiris_axiom::{
    ActionCode, AxiomConfig, AxiomEvent, AxiomLog, CloseCode, ControlState, IntentPhaseCode,
    SeepClassCode,
};
use osiris_checkpoint::{Heap, PBuf, PCell, PVec};
use osiris_kernel::abi::{OpenFlags, Pid, SeekFrom, SysReply, Syscall};
use osiris_kernel::{OsEngine, SyscallId};
use osiris_metrics::{
    render_json, render_prometheus, MetricsConfig, Registry, SeriesFold, SeriesValue,
    TimeseriesConfig,
};
use osiris_rng::Rng;
use osiris_servers::{Os, OsConfig};
use osiris_trace::chrome::ChromeTrace;
use osiris_trace::{render_text, Stage, TraceConfig, TraceEvent, Tracer, KERNEL_COMP};

use super::{Checks, Scale, Want};

const SCRATCH_CELLS: usize = 8;

/// One precomputed logged write.
#[derive(Clone, Copy)]
enum Op {
    /// Hot counter cell: the dominant store in real servers.
    Cell(u64),
    Scratch(u32, u64),
    VecSet(u32, u32),
    /// 48-byte write at the given offset.
    Buf(u32),
}

struct World {
    heap: Heap,
    /// The ring the heap's stage is appended to once per window, as the
    /// kernel does after each call into a heap.
    tracer: Tracer,
    hot: PCell<u64>,
    scratch: Vec<PCell<u64>>,
    vec: PVec<u32>,
    buf: PBuf,
}

/// `windows` recovery windows (mark → writes → rollback → append), each
/// replaying `ops`.
fn run_windows(w: &mut World, ops: &[Op], windows: u64) {
    let buf_data = [0xA5u8; 48];
    for _ in 0..windows {
        w.heap.set_logging(true);
        let mark = w.heap.mark();
        for op in ops {
            match *op {
                Op::Cell(v) => w.hot.set(&mut w.heap, v),
                Op::Scratch(i, v) => w.scratch[i as usize].set(&mut w.heap, v),
                Op::VecSet(i, v) => w.vec.set(&mut w.heap, i as usize, v),
                Op::Buf(off) => w.buf.write_at(&mut w.heap, off as usize, &buf_data),
            }
        }
        w.heap.rollback_to(mark);
        w.heap.set_logging(false);
        w.tracer.append(0, w.heap.trace_stage());
    }
}

/// The undo journal (`group` "undo", tracing off) and the flight recorder
/// (`group` "trace", the heap staging into a recording tracer) share one
/// drive: write-heavy windows skewed toward repeated stores to a few hot
/// locations, the pattern a server shows inside one request's window, so
/// both the append and the coalesce emit points run.
fn heap_windows(group: &str, trace: TraceConfig, scale: Scale, c: &mut Checks) {
    let (windows, writes_per_window, warmup_windows) = match scale {
        Scale::Full => (100, 4_096, 8),
        Scale::Small => (4, 4_096, 1),
    };
    let mut r = Rng::new(0xBE4C4);
    let ops: Vec<Op> = (0..writes_per_window)
        .map(|_| match r.below(16) {
            0..=7 => Op::Cell(r.next_u64()),
            8..=10 => Op::VecSet(r.below(4) as u32, r.next_u32()),
            11..=13 => Op::Scratch(r.below(SCRATCH_CELLS as u64) as u32, r.next_u64()),
            _ => Op::Buf((r.below(4) * 64) as u32),
        })
        .collect();

    let mut heap = Heap::new("gate-recording");
    *heap.trace_stage() = Stage::new(&trace);
    let mut w = World {
        tracer: Tracer::new(trace),
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
    run_windows(&mut w, &ops, warmup_windows);
    w.heap.reset_stats();

    let ((), allocs) = c.counted(|| run_windows(&mut w, &ops, windows));
    let stats = *w.heap.stats();
    c.push_allocs(format!("{group}/recording_allocs"), allocs, Want::Eq(0));
    c.push(
        format!("{group}/undo_appends_plus_coalesced_writes"),
        stats.undo_appends + stats.coalesced_writes,
        Want::Eq(windows * ops.len() as u64),
    );
    c.push(
        format!("{group}/coalesced_writes"),
        stats.coalesced_writes,
        Want::AtLeast(1),
    );
    if w.tracer.is_enabled() {
        // The run must reach the steady-state overwrite path, not only
        // initial fills.
        c.push(
            format!("{group}/ring_wrapped"),
            w.tracer.has_wrapped() as u64,
            Want::Eq(1),
        );
    }
}

/// One closed-loop syscall from init: submit, then pump, firing timers
/// while the reply is outstanding.
fn call(os: &mut Os, sid: &mut u64, call: Syscall) -> SysReply {
    *sid += 1;
    os.submit(SyscallId(*sid), Pid::INIT, call);
    loop {
        if let Some((_, _, reply)) = os.pump().pop() {
            return reply;
        }
        assert!(os.fire_next_timer(), "syscall {sid} never replied");
    }
}

/// `rounds` rounds of file, key-value and memory syscalls: windows open,
/// log and coalesce, and a 256-page map gives VM's handler a long batch
/// of staged events.
fn os_batch(os: &mut Os, sid: &mut u64, rounds: u64) {
    for _ in 0..rounds {
        let path = "/gate-trace".to_string();
        let flags = OpenFlags::RDWR_CREATE;
        let SysReply::Desc(fd) = call(os, sid, Syscall::Open { path, flags }) else {
            panic!("open failed")
        };
        let bytes = vec![0x5A; 4096];
        call(os, sid, Syscall::Write { fd, bytes });
        call(
            os,
            sid,
            Syscall::Seek {
                fd,
                from: SeekFrom::Start(0),
            },
        );
        call(os, sid, Syscall::Read { fd, len: 4096 });
        call(os, sid, Syscall::Close { fd });
        let (key, value) = ("gate-key".to_string(), b"gate-value".to_vec());
        call(os, sid, Syscall::DsPut { key, value });
        let key = "gate-key".to_string();
        call(os, sid, Syscall::DsGet { key });
        let SysReply::Val(id) = call(os, sid, Syscall::Mmap { pages: 256 }) else {
            panic!("mmap failed")
        };
        call(os, sid, Syscall::Munmap { id: id as u64 });
        call(os, sid, Syscall::GetPid);
    }
}

/// Recording adds no allocator call to a warm machine: the same batch, run
/// twice on an `Os` with a recorder off and on, allocates as much on both
/// the second time. A trace stage that outgrew its first sizing, or a
/// metric fold that allocated per occurrence, would show here.
fn os_batch_allocs(scale: Scale, c: &mut Checks) {
    let rounds = match scale {
        Scale::Full => 40,
        Scale::Small => 4,
    };
    let traced = OsConfig {
        trace: TraceConfig::on(),
        ..OsConfig::default()
    };
    let unmetered = OsConfig {
        metrics: MetricsConfig::off(),
        ..OsConfig::default()
    };
    for (group, off, on) in [
        ("trace", OsConfig::default(), traced),
        ("metrics", unmetered, OsConfig::default()),
    ] {
        let [off, on] = [off, on].map(|cfg| {
            let mut os = Os::new(cfg);
            let mut sid = 0;
            os_batch(&mut os, &mut sid, rounds);
            let ((), allocs) = c.counted(|| os_batch(&mut os, &mut sid, rounds));
            allocs
        });
        if let (Some(off), Some(on)) = (off, on) {
            c.push(
                format!("{group}/os_batch_allocs_on_vs_off"),
                on,
                Want::Eq(off),
            );
        }
    }
}

/// Counter adds alternating with histogram observations through ids
/// registered once: an indexed add, and a bucket bump in an indexed
/// histogram.
fn metrics(scale: Scale, c: &mut Checks) {
    let (rounds, writes_per_round, warmup_rounds) = match scale {
        Scale::Full => (100, 2_048, 4),
        Scale::Small => (4, 256, 1),
    };
    let mut r = Rng::new(0x3E7A);
    // (is_add, value): small deltas and latency-like magnitudes.
    let ops: Vec<(bool, u64)> = (0..writes_per_round)
        .map(|i| {
            let v = r.below(1 << 14) + 1;
            if i % 2 == 0 {
                (true, v % 7 + 1)
            } else {
                (false, v)
            }
        })
        .collect();
    let mut m = Registry::default();
    let labels = [("component", "gate")];
    let counter = m.counter("osiris_gate_ops_total", "gate counter", &labels);
    let hist = m.hist("osiris_gate_latency_cycles", "gate histogram", &labels);
    let mut run = |rounds: u64| {
        for _ in 0..rounds {
            for &(is_add, v) in &ops {
                if is_add {
                    m.add(counter, v);
                } else {
                    m.observe(hist, v);
                }
            }
        }
    };
    run(warmup_rounds);
    let ((), allocs) = c.counted(|| run(rounds));
    let total_rounds = warmup_rounds + rounds;
    let added: u64 = ops.iter().filter(|o| o.0).map(|o| o.1).sum();
    c.push_allocs("metrics/recording_allocs".into(), allocs, Want::Eq(0));
    c.push(
        "metrics/counter_total".into(),
        m.total(counter),
        Want::Eq(total_rounds * added),
    );
    c.push(
        "metrics/observations".into(),
        m.histogram(hist).count(),
        Want::Eq(total_rounds * writes_per_round / 2),
    );
}

/// What a fork pays to carry the registry: a snapshot is two array clones
/// however much the `Os` has run (the schema is fixed at boot), and writing
/// one back into a same-schema registry reuses its storage. Rendering a
/// warm run's three metric documents allocates only the growing text.
fn metrics_snapshot(c: &mut Checks) {
    let fresh = Os::new(OsConfig::default());
    let (_, warm) = osiris_workloads::run_suite_with(OsConfig::default(), None);
    for (group, os) in [("metrics/fresh_boot", &fresh), ("metrics", &warm)] {
        let live = os.kernel().series().registry();
        let (values, snapshot_allocs) = c.counted(|| live.values().clone());
        let mut fork = live.clone();
        let ((), restore_allocs) = c.counted(|| fork.restore(&values));
        c.push_allocs(
            format!("{group}/snapshot_allocs"),
            snapshot_allocs,
            Want::Eq(2),
        );
        c.push_allocs(
            format!("{group}/restore_allocs"),
            restore_allocs,
            Want::Eq(0),
        );
    }
    // The timeseries document comes from a warm run that samples its eight
    // tracked series (`series.rs`): the suite takes 224 samples of each,
    // so rings of 64 all wrap and end full.
    let ring = 64;
    let sampling = OsConfig {
        timeseries: TimeseriesConfig {
            capacity: ring,
            ..TimeseriesConfig::on()
        },
        ..OsConfig::default()
    };
    let (_, mut sampled) = osiris_workloads::run_suite_with(sampling, None);
    let timeseries = sampled.timeseries_json();
    c.push(
        "metrics/timeseries_points".into(),
        timeseries.0.len() as u64,
        Want::Eq(8 * ring as u64),
    );
    // Each document is one `String` grown by doubling from empty: the
    // count is its growth steps, to 31,491 bytes of Prometheus text, 41,662
    // of metrics JSON and 38,586 of timeseries JSON.
    let snapshot = warm.metrics_snapshot();
    let (_, prom) = c.counted(|| render_prometheus(&snapshot));
    let (_, json) = c.counted(|| render_json(&snapshot).pretty());
    let (_, series) = c.counted(|| timeseries.pretty());
    for (doc, allocs, want) in [
        ("prom", prom, 12),
        ("json", json, 14),
        ("timeseries_json", series, 14),
    ] {
        c.push_allocs(
            format!("metrics/render_{doc}_allocs"),
            allocs,
            Want::Eq(want),
        );
    }
}

/// Serialized axiom log: a 24-byte header plus 41 bytes per record.
const AXIOM_HEADER_BYTES: u64 = 24;
const AXIOM_RECORD_BYTES: u64 = 41;

/// One open/close pair per window, with every 16th window expanded into
/// the full crash → intent → decision → done sequence so the fold's array
/// writes run, not just its counters.
fn axiom_schedule(r: &mut Rng, windows: u64) -> Vec<AxiomEvent> {
    let mut events = vec![AxiomEvent::Genesis {
        comps: 6,
        config_digest: 0xA71,
    }];
    for w in 0..windows {
        let comp = r.below(6) as u8;
        events.push(AxiomEvent::WindowOpen { comp });
        if w % 16 == 15 {
            events.extend([
                AxiomEvent::WindowClose {
                    comp,
                    reason: CloseCode::Rollback,
                    class: SeepClassCode::StateModifying,
                },
                AxiomEvent::Crash { comp },
                AxiomEvent::IntentRecorded {
                    comp,
                    phase: IntentPhaseCode::Notified,
                },
                AxiomEvent::RecoveryDecision {
                    comp,
                    action: ActionCode::RollbackErrorReply,
                },
                AxiomEvent::RecoveryDone {
                    comp,
                    cycles: r.below(10_000),
                },
            ]);
        } else {
            events.push(AxiomEvent::WindowClose {
                comp,
                reason: CloseCode::Completed,
                class: SeepClassCode::None,
            });
        }
    }
    events
}

/// The kernel's two-step emit for every control-plane transition it seals:
/// fold the event into the live [`ControlState`], then FNV-chain a
/// fixed-width record into the [`AxiomLog`], which is sized at
/// [`AxiomLog::new`] time.
fn axiom(scale: Scale, c: &mut Checks) {
    let (windows, warmup_windows) = match scale {
        Scale::Full => (40_000, 1_000),
        Scale::Small => (2_000, 100),
    };
    let mut r = Rng::new(0xA10);
    let events = axiom_schedule(&mut r, windows);
    let warmup = axiom_schedule(&mut r, warmup_windows);
    let mut control = ControlState::new();
    let mut log = AxiomLog::new(AxiomConfig {
        enabled: true,
        capacity: events.len(),
    });
    let emit = |control: &mut ControlState, log: &mut AxiomLog, events: &[AxiomEvent]| {
        let mut now = 0u64;
        for e in events {
            now += 7;
            control.apply(now, e);
            log.append(now, *e);
        }
    };
    emit(&mut control, &mut log, &warmup);
    control = ControlState::new();
    log.reset();
    let ((), allocs) = c.counted(|| emit(&mut control, &mut log, &events));
    let n = events.len() as u64;
    c.push_allocs("axiom/recording_allocs".into(), allocs, Want::Eq(0));
    c.push(
        "axiom/records_retained".into(),
        log.len() as u64,
        Want::Eq(n),
    );
    c.push(
        "axiom/log_bytes".into(),
        log.bytes_len() as u64,
        Want::Eq(AXIOM_HEADER_BYTES + AXIOM_RECORD_BYTES * n),
    );
}

/// The kernel's span lifecycle with both recorders on — `SpanOpen` at
/// `send_user_request`, a `SpanHop` per delivery, `SpanClose` at the reply
/// with the latency split by recovery overlap — each event emitted as
/// `Kernel::emit` does: into a preallocated trace ring and into the
/// kernel's metric fold, which derives the `osiris_span_*` series.
fn spans(scale: Scale, c: &mut Checks) {
    const HOPS_PER_SPAN: u64 = 3;
    /// Every 16th span has a recovery between its open and its close.
    const RECOVERY_EVERY: u64 = 16;
    let (spans, warmup_spans) = match scale {
        Scale::Full => (40_000, 1_000),
        Scale::Small => (640, 64),
    };
    let mut tracer = Tracer::new(TraceConfig::on());
    let mut fold = SeriesFold::new(MetricsConfig::on(), TimeseriesConfig::default());

    let run = |fold: &mut SeriesFold, tracer: &mut Tracer, spans: u64| {
        let mut emit = |now: u64, lane: u8, event: TraceEvent| {
            tracer.set_now(now);
            tracer.emit(lane, event);
            fold.trace(lane, &event);
        };
        let mut now = 0u64;
        for s in 0..spans {
            now += 13;
            let (span, opened_at) = (s + 1, now);
            let open = TraceEvent::SpanOpen {
                span,
                sid: s,
                pid: 1,
            };
            emit(now, KERNEL_COMP, open);
            for h in 0..HOPS_PER_SPAN {
                now += 7;
                let hop = TraceEvent::SpanHop {
                    span,
                    src: ((h + 1) % 6) as u8,
                    msg_id: s * HOPS_PER_SPAN + h,
                };
                emit(now, (h % 6) as u8, hop);
            }
            // A span that crosses a recovery also waits out its 400 cycles.
            let crossed = s % RECOVERY_EVERY == RECOVERY_EVERY - 1;
            now += if crossed { 413 } else { 13 };
            let close = TraceEvent::SpanClose {
                span,
                ok: !crossed,
                crossed_recovery: crossed,
                latency: now - opened_at,
            };
            emit(now, KERNEL_COMP, close);
        }
    };
    run(&mut fold, &mut tracer, warmup_spans);
    tracer.clear();
    fold.reset(0);
    let ((), allocs) = c.counted(|| run(&mut fold, &mut tracer, spans));
    c.push_allocs("spans/recording_allocs".into(), allocs, Want::Eq(0));
    let snap = fold.registry().snapshot();
    let total = |name: &str, labels: &[(&str, &str)]| match snap.find(name, labels) {
        Some(SeriesValue::Counter(n)) => *n,
        _ => u64::MAX,
    };
    let completed = |overlap| total("osiris_span_completed_total", &[("overlap", overlap)]);
    for (what, got, want) in [
        (
            "spans_recorded",
            total("osiris_span_started_total", &[]),
            spans,
        ),
        (
            "hops_recorded",
            total("osiris_span_hops_total", &[]),
            spans * HOPS_PER_SPAN,
        ),
        (
            "closed_across_recovery",
            completed("recovery"),
            spans / RECOVERY_EVERY,
        ),
        (
            "closed_without_recovery",
            completed("none"),
            spans - spans / RECOVERY_EVERY,
        ),
    ] {
        c.push(format!("spans/{what}"), got, Want::Eq(want));
    }
}

/// The Chrome document is streamed, not built: writing a wrapped ring and
/// an axiom lane into a buffer that is already large enough calls the
/// allocator no more for four times the records. The text trace of the
/// same ring is one allocation: its buffer is sized before it is written.
fn chrome_export(scale: Scale, c: &mut Checks) {
    let capacities = match scale {
        Scale::Full => [1_024, 4_096],
        Scale::Small => [64, 256],
    };
    let names: Vec<String> = ["rs", "pm", "vm", "vfs", "ds", "disk"]
        .map(String::from)
        .into();
    for capacity in capacities {
        let mut tracer = Tracer::new(TraceConfig {
            capacity,
            ..TraceConfig::on()
        });
        for i in 0..2 * capacity as u64 {
            let (span, msg_id, comp) = (i / 4, i, (i % 6) as u8);
            tracer.set_now(i * 7);
            let event = match i % 4 {
                0 => TraceEvent::SpanOpen {
                    span,
                    sid: i,
                    pid: 1,
                },
                1 => TraceEvent::IpcSend {
                    dst: comp,
                    msg_id,
                    class: SeepClassCode::StateModifying,
                },
                2 => TraceEvent::SpanHop {
                    span,
                    src: KERNEL_COMP,
                    msg_id,
                },
                _ => TraceEvent::SpanClose {
                    span,
                    ok: true,
                    crossed_recovery: false,
                    latency: 21,
                },
            };
            tracer.emit(if i % 2 == 0 { KERNEL_COMP } else { comp }, event);
        }
        // The axiom lane, the heaviest per record: a window for every four
        // trace records, a recovery in every sixteenth.
        let events = axiom_schedule(&mut Rng::new(0xC4A), capacity as u64 / 4);
        let mut log = AxiomLog::new(AxiomConfig {
            enabled: true,
            capacity: events.len(),
        });
        for (now, event) in (0..).step_by(7).zip(events) {
            log.append(now, event);
        }
        let doc = ChromeTrace {
            records: tracer.snapshot(),
            names: names.clone(),
            axiom: log.records(),
            counters: &(),
        };
        let mut text = Vec::with_capacity(capacity * 1_024);
        let (written, allocs) = c.counted(|| doc.write_to(&mut text));
        written.expect("writing to a Vec cannot fail");
        c.push_allocs(
            format!("chrome/{capacity}_records/render_allocs"),
            allocs,
            Want::Eq(0),
        );
        c.push(
            format!("chrome/{capacity}_records/ring_wrapped"),
            tracer.has_wrapped() as u64,
            Want::Eq(1),
        );
        // One object per record and per axiom record, plus the process, one
        // thread per name, the kernel, the axiom and the span lane.
        let events = text.windows(7).filter(|w| w == b"\n    {\n").count();
        c.push(
            format!("chrome/{capacity}_records/events_written"),
            events as u64,
            Want::Eq((capacity + log.len() + names.len() + 4) as u64),
        );
        let (_, allocs) = c.counted(|| render_text(&doc.records, &names));
        c.push_allocs(
            format!("chrome/{capacity}_records/trace_text_allocs"),
            allocs,
            Want::Eq(1),
        );
    }
}

pub(super) fn checks(scale: Scale, c: &mut Checks) {
    heap_windows("undo", TraceConfig::default(), scale, c);
    heap_windows("trace", TraceConfig::on(), scale, c);
    os_batch_allocs(scale, c);
    metrics(scale, c);
    metrics_snapshot(c);
    axiom(scale, c);
    spans(scale, c);
    chrome_export(scale, c);
}
