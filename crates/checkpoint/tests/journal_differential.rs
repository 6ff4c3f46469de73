//! Differential property test: the coalescing typed journal is
//! rollback-equivalent to the reference (boxed, uncoalesced) undo log.
//!
//! Two heaps are driven through an *identical* randomized schedule of
//! container mutations, nested marks, partial rollbacks, `discard_log`s and
//! logging-gate toggles. One heap uses the typed journal with write
//! coalescing; the other uses [`UndoMode::BoxedReference`], the historical
//! one-boxed-closure-per-store implementation, which never coalesces and
//! therefore serves as ground truth. After every rollback — and at the end —
//! the two heaps must be byte-identical.
//!
//! The second half pins the ownership rule of the map and cell stores: a
//! displaced value moves into the journal, so a store clones at most once
//! (and never with logging off), and every value that enters either log
//! leaves it exactly once.

use std::cell::Cell;
use std::collections::BTreeMap;

use osiris_checkpoint::{Heap, UndoMode};
use osiris_rng::Rng;

const CASES: u64 = 96;
const STEPS: usize = 300;

struct World {
    cell: osiris_checkpoint::PCell<u64>,
    text: osiris_checkpoint::PCell<String>,
    vec: osiris_checkpoint::PVec<u32>,
    map: osiris_checkpoint::PMap<u8, String>,
    buf: osiris_checkpoint::PBuf,
}

fn build_world(heap: &mut Heap) -> World {
    World {
        cell: heap.alloc_cell("cell", 0),
        text: heap.alloc_cell("text", String::new()),
        vec: heap.alloc_vec("vec"),
        map: heap.alloc_map("map"),
        buf: heap.alloc_buf("buf"),
    }
}

#[derive(Debug, PartialEq)]
struct Snapshot {
    cell: u64,
    text: String,
    vec: Vec<u32>,
    map: BTreeMap<u8, String>,
    buf: Vec<u8>,
}

fn snapshot(heap: &Heap, w: &World) -> Snapshot {
    Snapshot {
        cell: w.cell.get(heap),
        text: w.text.cloned(heap),
        vec: w.vec.snapshot(heap),
        map: w.map.snapshot(heap),
        buf: w.buf.snapshot(heap),
    }
}

/// Applies one random mutation identically to both heaps. Mutations are
/// deliberately skewed toward *repeated stores to the same few locations* so
/// coalescing actually triggers.
fn mutate(r: &mut Rng, a: &mut Heap, wa: &World, b: &mut Heap, wb: &World) {
    match r.below(12) {
        0 | 1 => {
            // Hot cell: the classic coalescing target.
            let v = r.next_u64();
            wa.cell.set(a, v);
            wb.cell.set(b, v);
        }
        2 => {
            let s = format!("s{}", r.below(1000));
            wa.text.set(a, s.clone());
            wb.text.set(b, s);
        }
        3 => {
            let v = r.next_u32();
            wa.vec.push(a, v);
            wb.vec.push(b, v);
        }
        4 => {
            wa.vec.pop(a);
            wb.vec.pop(b);
        }
        5 | 6 => {
            // Hot vec slot: index drawn from a tiny range.
            let len = wa.vec.len(a);
            if len > 0 {
                let i = r.below_usize(len.min(4));
                let v = r.next_u32();
                wa.vec.set(a, i, v);
                wb.vec.set(b, i, v);
            }
        }
        7 => {
            let n = r.below_usize(8);
            wa.vec.truncate(a, n);
            wb.vec.truncate(b, n);
        }
        8 => {
            let k = (r.below(6)) as u8;
            let v = format!("v{}", r.below(100));
            wa.map.insert(a, k, v.clone());
            wb.map.insert(b, k, v);
        }
        9 => {
            let k = (r.below(6)) as u8;
            wa.map.remove(a, &k);
            wb.map.remove(b, &k);
        }
        10 => {
            // Hot buf range: same few offsets, varying lengths.
            let off = r.below_usize(3) * 16;
            let len = 1 + r.below_usize(24);
            let data = r.bytes(len);
            wa.buf.write_at(a, off, &data);
            wb.buf.write_at(b, off, &data);
        }
        _ => {
            let n = r.below_usize(48);
            wa.buf.truncate(a, n);
            wb.buf.truncate(b, n);
        }
    }
}

/// Gap-safe mutation: never touches the vec (see the gate-toggle branch).
fn mutate_gap(r: &mut Rng, a: &mut Heap, wa: &World, b: &mut Heap, wb: &World) {
    match r.below(4) {
        0 => {
            let v = r.next_u64();
            wa.cell.set(a, v);
            wb.cell.set(b, v);
        }
        1 => {
            let k = (r.below(6)) as u8;
            let v = format!("g{}", r.below(100));
            wa.map.insert(a, k, v.clone());
            wb.map.insert(b, k, v);
        }
        2 => {
            let off = r.below_usize(3) * 16;
            let len = 1 + r.below_usize(24);
            let data = r.bytes(len);
            wa.buf.write_at(a, off, &data);
            wb.buf.write_at(b, off, &data);
        }
        _ => {
            let n = r.below_usize(48);
            wa.buf.truncate(a, n);
            wb.buf.truncate(b, n);
        }
    }
}

/// The full differential schedule for one seed.
fn run_case(case: u64) {
    let mut r = Rng::new(0xD1FF ^ case.wrapping_mul(0x9E37_79B9));

    let mut a = Heap::new("typed");
    assert_eq!(a.undo_mode(), UndoMode::Typed);
    assert!(a.coalescing());
    let wa = build_world(&mut a);

    let mut b = Heap::new("boxed");
    b.set_undo_mode(UndoMode::BoxedReference);
    let wb = build_world(&mut b);

    a.set_logging(true);
    b.set_logging(true);

    // Stack of simultaneous marks (nested checkpoints).
    let mut marks: Vec<(osiris_checkpoint::Mark, osiris_checkpoint::Mark)> =
        vec![(a.mark(), b.mark())];

    for _ in 0..STEPS {
        match r.below(100) {
            // Mostly mutations.
            0..=79 => mutate(&mut r, &mut a, &wa, &mut b, &wb),
            // Push a nested mark.
            80..=86 => marks.push((a.mark(), b.mark())),
            // Roll back to a random live mark (pops everything above it).
            87..=92 => {
                if a.logging() {
                    let i = r.below_usize(marks.len());
                    let (ma, mb) = marks[i];
                    marks.truncate(i + 1);
                    a.rollback_to(ma);
                    b.rollback_to(mb);
                    assert_eq!(
                        snapshot(&a, &wa),
                        snapshot(&b, &wb),
                        "post-rollback divergence, case {case}"
                    );
                    // Note: log_len may legitimately differ (the typed log
                    // grows slower by exactly the coalesced records).
                    assert!(a.log_len() <= b.log_len(), "case {case}");
                }
            }
            // Close the window: discard both logs, drop all marks.
            93..=95 => {
                a.discard_log();
                b.discard_log();
                marks.clear();
                marks.push((a.mark(), b.mark()));
            }
            // Toggle the logging gate (an out-of-window span, then back in).
            _ => {
                a.set_logging(false);
                b.set_logging(false);
                // A few unlogged mutations happen while the gate is closed.
                // They are restricted to containers whose undo replay is
                // total (cell/map/buf): unlogged *vec length* changes under a
                // live log make later rollback panic with an out-of-bounds
                // index — identically in both implementations, a pre-existing
                // property of the undo-log design (real windows discard the
                // log before ever gating off).
                for _ in 0..r.below(4) {
                    mutate_gap(&mut r, &mut a, &wa, &mut b, &wb);
                }
                a.set_logging(true);
                b.set_logging(true);
                // Marks from before the gap stay valid (log untouched), but
                // rollback only undoes what was logged — identically on both
                // sides, which is exactly what this test checks.
            }
        }
    }

    // Final full rollback to the outermost mark must converge both heaps.
    let (ma, mb) = marks[0];
    a.rollback_to(ma);
    b.rollback_to(mb);
    assert_eq!(
        snapshot(&a, &wa),
        snapshot(&b, &wb),
        "final divergence, case {case}"
    );

    // The whole point: same semantics, strictly fewer-or-equal records.
    let sa = a.stats();
    let sb = b.stats();
    assert_eq!(
        sa.writes, sb.writes,
        "schedules must be identical, case {case}"
    );
    assert_eq!(
        sa.undo_appends + sa.coalesced_writes,
        sb.undo_appends,
        "every reference append is either appended or coalesced, case {case}"
    );
    assert!(
        sb.coalesced_writes == 0,
        "reference log must never coalesce"
    );
}

#[test]
fn coalescing_journal_matches_reference_log() {
    for case in 0..CASES {
        run_case(case);
    }
}

/// Coalescing must trigger on this workload (otherwise the differential test
/// proves nothing), and undo bytes must be strictly smaller than the
/// reference on a same-location-heavy write pattern.
#[test]
fn coalescing_actually_reduces_undo_volume() {
    let mut a = Heap::new("typed");
    let ca = a.alloc_cell("hot", 0u64);
    let mut b = Heap::new("boxed");
    b.set_undo_mode(UndoMode::BoxedReference);
    let cb = b.alloc_cell("hot", 0u64);

    a.set_logging(true);
    b.set_logging(true);
    let ma = a.mark();
    let mb = b.mark();
    for i in 0..10_000u64 {
        ca.set(&mut a, i);
        cb.set(&mut b, i);
    }
    assert_eq!(a.log_len(), 1, "O(distinct locations) records");
    assert_eq!(b.log_len(), 10_000, "O(writes) records");
    assert!(a.log_bytes() < b.log_bytes() / 1000);
    assert_eq!(a.stats().coalesced_writes, 9_999);
    a.rollback_to(ma);
    b.rollback_to(mb);
    assert_eq!(ca.get(&a), cb.get(&b));
    assert_eq!(ca.get(&a), 0);
}

// ---------------------------------------------------------------------------
// Ownership: clone counts, and map-heavy streams under both undo modes
// ---------------------------------------------------------------------------

thread_local! {
    /// `Tracked` clones made on this thread.
    static CLONES: Cell<u64> = const { Cell::new(0) };
    /// `Tracked` values alive on this thread (created or cloned, not yet
    /// dropped). A double drop drives it negative; a leak leaves it positive.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// A payload that counts its clones and its live instances per thread.
#[derive(Debug, PartialEq, Eq)]
struct Tracked(u64);

impl Tracked {
    fn new(v: u64) -> Tracked {
        LIVE.with(|l| l.set(l.get() + 1));
        Tracked(v)
    }
}

impl Clone for Tracked {
    fn clone(&self) -> Tracked {
        CLONES.with(|c| c.set(c.get() + 1));
        Tracked::new(self.0)
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        LIVE.with(|l| l.set(l.get() - 1));
    }
}

/// Clones made while `f` runs.
fn clones_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = CLONES.with(Cell::get);
    let out = f();
    (CLONES.with(Cell::get) - before, out)
}

#[test]
fn a_store_clones_the_displaced_value_once_when_logging_and_never_otherwise() {
    for mode in [UndoMode::Typed, UndoMode::BoxedReference] {
        for logging in [false, true] {
            let mut h = Heap::new("clones");
            h.set_undo_mode(mode);
            let m = h.alloc_map::<u32, Tracked>("m");
            let c = h.alloc_cell("c", Tracked::new(0));
            for k in 0..3 {
                m.insert(&mut h, k, Tracked::new(u64::from(k)));
            }
            h.set_logging(logging);
            let want = u64::from(logging);
            let what = format!("{mode:?}, logging {logging}");

            let (n, _) = clones_during(|| m.update(&mut h, &0, |v| v.0 += 10));
            assert_eq!(n, want, "update ({what})");
            let (n, prev) = clones_during(|| m.insert(&mut h, 1, Tracked::new(11)));
            assert_eq!(n, want, "insert over an existing key ({what})");
            assert_eq!(prev, Some(Tracked::new(1)));
            let (n, prev) = clones_during(|| m.insert(&mut h, 7, Tracked::new(7)));
            assert_eq!((n, prev), (0, None), "insert of a fresh key ({what})");
            let (n, gone) = clones_during(|| m.remove(&mut h, &2));
            assert_eq!(n, want, "remove ({what})");
            assert_eq!(gone, Some(Tracked::new(2)));
            let (n, seen) = clones_during(|| m.with(&h, &0, |v| v.0));
            assert_eq!((n, seen), (0, Some(10)), "with ({what})");
            let (n, ()) = clones_during(|| c.set(&mut h, Tracked::new(1)));
            assert_eq!(n, 0, "PCell::set ({what})");
            let (n, ()) = clones_during(|| c.set(&mut h, Tracked::new(2)));
            assert_eq!(n, 0, "coalesced PCell::set ({what})");
        }
    }
    assert_eq!(LIVE.with(Cell::get), 0, "a payload leaked or dropped twice");
}

/// An inode-like value: a tracked payload beside a nested map, like a VFS
/// directory.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Node {
    tag: Tracked,
    entries: BTreeMap<String, u64>,
}

struct Maps {
    blobs: osiris_checkpoint::PMap<String, Vec<u8>>,
    nodes: osiris_checkpoint::PMap<u64, Node>,
}

fn build_maps(heap: &mut Heap) -> Maps {
    Maps {
        blobs: heap.alloc_map("blobs"),
        nodes: heap.alloc_map("nodes"),
    }
}

/// Applies the insert / update / remove numbered `op` to one of the two maps
/// and renders what the store handed back, so the caller can compare both
/// heaps' answers.
fn map_op(heap: &mut Heap, w: &Maps, op: u64, key: u64, fill: u64) -> String {
    let name = format!("k{key}");
    match op {
        0 => format!(
            "{:?}",
            w.blobs.insert(heap, name, fill.to_le_bytes().to_vec())
        ),
        1 => format!("{:?}", w.blobs.update(heap, &name, |v| v.push(fill as u8))),
        2 => format!("{:?}", w.blobs.remove(heap, &name)),
        3 => {
            let node = Node {
                tag: Tracked::new(fill),
                entries: BTreeMap::from([(name, fill)]),
            };
            format!("{:?}", w.nodes.insert(heap, key, node))
        }
        4 => format!(
            "{:?}",
            w.nodes.update(heap, &key, |n| {
                n.tag.0 ^= fill;
                n.entries.insert(format!("e{}", fill % 7), fill)
            })
        ),
        _ => format!("{:?}", w.nodes.remove(heap, &key)),
    }
}

/// Everything of `HeapStats` that does not depend on where the undo records
/// are stored (only the typed journal has an arena to reuse).
fn mode_free(stats: &osiris_checkpoint::HeapStats) -> osiris_checkpoint::HeapStats {
    osiris_checkpoint::HeapStats {
        arena_reuse_bytes: 0,
        ..*stats
    }
}

fn run_map_case(case: u64) {
    // The typed journal's digest folds the raw representation of its
    // payloads, heap pointers included, and the boxed log keeps none: the
    // digest cannot be compared across the two. What must hold after every
    // step is that the typed chain verifies, that a rollback restores the
    // digest its mark saw, and that the boxed side's stays empty.
    let empty = Heap::new("empty").journal_digest();
    let mut r = Rng::new(0x0A57_ED00 ^ case.wrapping_mul(0x9E37_79B9));
    let mut a = Heap::new("typed");
    let wa = build_maps(&mut a);
    let mut b = Heap::new("boxed");
    b.set_undo_mode(UndoMode::BoxedReference);
    let wb = build_maps(&mut b);
    a.set_logging(true);
    b.set_logging(true);
    let mut marks = vec![(a.mark(), b.mark(), a.journal_digest())];
    for step in 0..STEPS {
        let what = format!("case {case} step {step}");
        match r.below(100) {
            0..=74 => {
                let (op, key, fill) = (r.below(6), r.below(5), r.next_u64());
                assert_eq!(
                    map_op(&mut a, &wa, op, key, fill),
                    map_op(&mut b, &wb, op, key, fill),
                    "{what}"
                );
            }
            75..=82 => marks.push((a.mark(), b.mark(), a.journal_digest())),
            83..=92 => {
                let i = r.below_usize(marks.len());
                let (ma, mb, digest) = marks[i];
                marks.truncate(i + 1);
                a.rollback_to(ma);
                b.rollback_to(mb);
                assert_eq!(a.journal_digest(), digest, "{what}");
            }
            _ => {
                a.discard_log();
                b.discard_log();
                assert_eq!(a.journal_digest(), empty, "{what}");
                marks.clear();
                marks.push((a.mark(), b.mark(), empty));
            }
        }
        assert!(a.verify_journal().is_ok(), "{what}");
        assert_eq!(b.journal_digest(), empty, "{what}");
        assert_eq!(wa.blobs.snapshot(&a), wb.blobs.snapshot(&b), "{what}");
        assert_eq!(wa.nodes.snapshot(&a), wb.nodes.snapshot(&b), "{what}");
        assert_eq!(mode_free(a.stats()), mode_free(b.stats()), "{what}");
        assert_eq!(a.log_len(), b.log_len(), "maps never coalesce, {what}");
    }
}

#[test]
fn map_streams_agree_under_both_undo_modes_and_drop_every_payload_once() {
    for case in 0..CASES / 4 {
        run_map_case(case);
        // Both heaps, their journals and every snapshot are gone.
        assert_eq!(LIVE.with(Cell::get), 0, "case {case}: leak or double drop");
    }
}
