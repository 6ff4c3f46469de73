//! A heap records its journal activity into its trace stage, in the order
//! it happened; appending the stage to a ring yields exactly that sequence,
//! under the component the appender names, and leaves the stage empty.

use osiris_checkpoint::Heap;
use osiris_trace::{Stage, TraceConfig, TraceEvent, Tracer};

#[test]
fn stage_drains_journal_events_in_emit_order() {
    let mut heap = Heap::new("t");
    let cell = heap.alloc_cell("x", 0u64);
    let buf = heap.alloc_buf("b");
    let mut tracer = Tracer::new(TraceConfig::on());
    *heap.trace_stage() = Stage::new(tracer.config());

    heap.set_logging(true);
    heap.mark();
    cell.set(&mut heap, 1);
    cell.set(&mut heap, 2);
    let inner = heap.mark();
    buf.write_at(&mut heap, 0, &[7; 16]);
    heap.rollback_to(inner);
    cell.set(&mut heap, 3);
    heap.discard_log();
    assert_eq!(heap.staged(), 8);

    tracer.set_now(42);
    tracer.append(3, heap.trace_stage());
    assert_eq!(heap.staged(), 0);
    let records = tracer.snapshot();
    let events: Vec<TraceEvent> = records.iter().map(|r| r.event).collect();
    assert_eq!(
        events,
        [
            TraceEvent::CheckpointMark { log_len: 0 },
            TraceEvent::UndoAppend { bytes: 16 },
            TraceEvent::UndoCoalesce,
            TraceEvent::CheckpointMark { log_len: 1 },
            TraceEvent::UndoAppend { bytes: 24 },
            TraceEvent::Rollback {
                records: 1,
                bytes: 24
            },
            TraceEvent::UndoAppend { bytes: 16 },
            TraceEvent::Discard {
                records: 2,
                bytes: 32
            },
        ]
    );
    assert!(records
        .iter()
        .zip(0..)
        .all(|(r, seq)| r.comp == 3 && r.now == 42 && r.seq == seq));
}

#[test]
fn default_stage_stages_nothing() {
    let mut heap = Heap::new("t");
    let cell = heap.alloc_cell("x", 0u64);
    heap.set_logging(true);
    let mark = heap.mark();
    cell.set(&mut heap, 1);
    heap.rollback_to(mark);
    assert_eq!(heap.staged(), 0);
}
