//! Tracer behavior: ring wraparound, sequence numbers, the
//! black-box tail, and stages appended in order.

use osiris_trace::{render_text, Stage, TraceConfig, TraceEvent, Tracer};

fn cfg(capacity: usize) -> TraceConfig {
    TraceConfig {
        enabled: true,
        capacity,
        ..TraceConfig::default()
    }
}

#[test]
fn ring_wraps_and_keeps_newest() {
    let mut h = Tracer::new(cfg(4));
    for i in 0..10u64 {
        h.set_now(i);
        h.emit(0, TraceEvent::IpcDeliver { src: 1, msg_id: i });
    }
    let snap = h.snapshot();
    assert_eq!(snap.len(), 4, "ring holds exactly its capacity");
    // Oldest-first chronological order: the last four emits survive.
    let ids: Vec<u64> = snap
        .iter()
        .map(|r| match r.event {
            TraceEvent::IpcDeliver { msg_id, .. } => msg_id,
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(ids, vec![6, 7, 8, 9]);
    assert_eq!(snap[0].now, 6);
    assert!(h.has_wrapped());
    assert_eq!(h.total_recorded(), 10);
}

#[test]
fn per_component_sequence_numbers() {
    let mut h = Tracer::new(cfg(16));
    h.emit(0, TraceEvent::WindowOpen);
    h.emit(1, TraceEvent::WindowOpen);
    h.emit(0, TraceEvent::UndoCoalesce);
    let snap = h.snapshot();
    assert_eq!(snap[0].seq, 0);
    assert_eq!(snap[1].seq, 0, "each component has its own counter");
    assert_eq!(snap[2].seq, 1);
}

#[test]
fn zero_capacity_counts_but_stores_nothing() {
    let mut h = Tracer::new(cfg(0));
    h.emit(0, TraceEvent::WindowOpen);
    assert!(h.snapshot().is_empty());
    assert_eq!(h.total_recorded(), 1);
}

#[test]
fn blackbox_tail_is_per_component() {
    let mut h = Tracer::new(TraceConfig {
        blackbox_tail: 2,
        ..cfg(64)
    });
    for i in 0..5u64 {
        h.set_now(i);
        h.emit(0, TraceEvent::IpcDeliver { src: 2, msg_id: i });
    }
    h.emit(1, TraceEvent::WindowOpen);
    let names = vec!["pm".to_string(), "vfs".to_string()];
    let dump = h.blackbox(&names).expect("enabled tracer dumps");
    // Component 0 contributes its last two events only; component 1 its one.
    assert_eq!(dump.matches("msg_id: 3").count(), 1);
    assert_eq!(dump.matches("msg_id: 4").count(), 1);
    assert_eq!(dump.matches("msg_id: 2").count(), 0);
    assert!(dump.contains("vfs"));
}

#[test]
fn render_text_is_deterministic_and_named() {
    let mut h = Tracer::new(cfg(8));
    h.set_now(42);
    h.emit(0, TraceEvent::WindowOpen);
    h.emit(
        osiris_trace::KERNEL_COMP,
        TraceEvent::ShutdownDecision { controlled: true },
    );
    let names = vec!["pm".to_string()];
    let a = render_text(&h.snapshot(), &names);
    let b = render_text(&h.snapshot(), &names);
    assert_eq!(a, b);
    assert!(a.contains("pm"));
    assert!(a.contains("kernel"));
    assert!(a.contains("t=42"));
}

#[test]
fn appended_stage_equals_direct_emits() {
    // Two components' events, one of them staged: appended before the next
    // restamp, the records equal those of emitting each directly.
    let events = [
        (1, TraceEvent::WindowOpen),
        (1, TraceEvent::UndoAppend { bytes: 8 }),
        (1, TraceEvent::UndoCoalesce),
    ];
    let mut direct = Tracer::new(cfg(16));
    let mut staged = Tracer::new(cfg(16));
    let mut stage = Stage::new(staged.config());
    for t in [&mut direct, &mut staged] {
        t.set_now(5);
        t.emit(0, TraceEvent::IpcDeliver { src: 1, msg_id: 1 });
    }
    for (comp, e) in events {
        direct.emit(comp, e);
        stage.push(e);
    }
    assert_eq!(stage.len(), 3);
    staged.append(1, &mut stage);
    assert!(stage.is_empty());
    for t in [&mut direct, &mut staged] {
        t.set_now(9);
        t.emit(1, TraceEvent::Crash { target: 1 });
    }
    assert_eq!(direct.snapshot(), staged.snapshot());
    assert_eq!(staged.snapshot()[3].seq, 2);
}
