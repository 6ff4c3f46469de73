//! Randomized properties: rollback restores arbitrary mutation sequences
//! exactly. Driven by the in-tree deterministic PRNG (`osiris-rng`), so the
//! suite needs no external dependencies and every failure is reproducible
//! from the printed case seed.

use std::collections::BTreeMap;

use osiris_checkpoint::Heap;
use osiris_rng::Rng;

const CASES: u64 = 128;

/// One random mutation against a small state universe of a cell, a vec, a
/// map and a buffer.
#[derive(Clone, Debug)]
enum Op {
    CellSet(u64),
    VecPush(u16),
    VecPop,
    VecSet(u8, u16),
    VecTruncate(u8),
    MapInsert(u8, u64),
    MapRemove(u8),
    MapUpdate(u8, u64),
    BufWrite(u8, Vec<u8>),
    BufTruncate(u8),
}

fn gen_op(r: &mut Rng) -> Op {
    match r.below(10) {
        0 => Op::CellSet(r.next_u64()),
        1 => Op::VecPush(r.next_u64() as u16),
        2 => Op::VecPop,
        3 => Op::VecSet(r.byte(), r.next_u64() as u16),
        4 => Op::VecTruncate(r.byte()),
        5 => Op::MapInsert(r.byte(), r.next_u64()),
        6 => Op::MapRemove(r.byte()),
        7 => Op::MapUpdate(r.byte(), r.next_u64()),
        8 => {
            let len = r.below_usize(32);
            Op::BufWrite(r.byte(), r.bytes(len))
        }
        _ => Op::BufTruncate(r.byte()),
    }
}

fn gen_ops(r: &mut Rng, max: usize) -> Vec<Op> {
    let n = r.below_usize(max);
    (0..n).map(|_| gen_op(r)).collect()
}

struct World {
    cell: osiris_checkpoint::PCell<u64>,
    vec: osiris_checkpoint::PVec<u16>,
    map: osiris_checkpoint::PMap<u8, u64>,
    buf: osiris_checkpoint::PBuf,
}

fn build_world(heap: &mut Heap) -> World {
    World {
        cell: heap.alloc_cell("cell", 0),
        vec: heap.alloc_vec("vec"),
        map: heap.alloc_map("map"),
        buf: heap.alloc_buf("buf"),
    }
}

fn apply(heap: &mut Heap, w: &World, op: &Op) {
    match op {
        Op::CellSet(v) => w.cell.set(heap, *v),
        Op::VecPush(v) => w.vec.push(heap, *v),
        Op::VecPop => {
            w.vec.pop(heap);
        }
        Op::VecSet(i, v) => {
            let len = w.vec.len(heap);
            if len > 0 {
                w.vec.set(heap, *i as usize % len, *v);
            }
        }
        Op::VecTruncate(n) => w.vec.truncate(heap, *n as usize),
        Op::MapInsert(k, v) => {
            w.map.insert(heap, *k, *v);
        }
        Op::MapRemove(k) => {
            w.map.remove(heap, k);
        }
        Op::MapUpdate(k, v) => {
            w.map.update(heap, k, |x| *x = x.wrapping_add(*v));
        }
        Op::BufWrite(o, b) => w.buf.write_at(heap, *o as usize, b),
        Op::BufTruncate(n) => w.buf.truncate(heap, *n as usize),
    }
}

#[derive(Debug, PartialEq)]
struct Snapshot {
    cell: u64,
    vec: Vec<u16>,
    map: BTreeMap<u8, u64>,
    buf: Vec<u8>,
}

fn snapshot(heap: &Heap, w: &World) -> Snapshot {
    Snapshot {
        cell: w.cell.get(heap),
        vec: w.vec.snapshot(heap),
        map: w.map.snapshot(heap),
        buf: w.buf.snapshot(heap),
    }
}

/// Any prefix of mutations, then a mark, then any suffix: rollback to the
/// mark restores the exact post-prefix state.
#[test]
fn rollback_restores_exact_state() {
    for case in 0..CASES {
        let mut r = Rng::new(0x5EED_0001 ^ case);
        let prefix = gen_ops(&mut r, 40);
        let suffix = gen_ops(&mut r, 40);
        let mut heap = Heap::new("prop");
        let w = build_world(&mut heap);
        heap.set_logging(true);
        for op in &prefix {
            apply(&mut heap, &w, op);
        }
        let expected = snapshot(&heap, &w);
        let mark = heap.mark();
        for op in &suffix {
            apply(&mut heap, &w, op);
        }
        heap.rollback_to(mark);
        assert_eq!(snapshot(&heap, &w), expected, "case seed {case}");
    }
}

/// Rollback to the very beginning always restores the initial state, and
/// leaves an empty log.
#[test]
fn rollback_to_origin() {
    for case in 0..CASES {
        let mut r = Rng::new(0x5EED_0002 ^ case);
        let ops = gen_ops(&mut r, 80);
        let mut heap = Heap::new("prop");
        let w = build_world(&mut heap);
        let initial = snapshot(&heap, &w);
        heap.set_logging(true);
        let mark = heap.mark();
        for op in &ops {
            apply(&mut heap, &w, op);
        }
        heap.rollback_to(mark);
        assert_eq!(snapshot(&heap, &w), initial, "case seed {case}");
        assert_eq!(heap.log_len(), 0);
        assert_eq!(heap.log_bytes(), 0);
    }
}

/// A heap image equals the state it was taken from, regardless of later
/// mutations.
#[test]
fn image_roundtrip() {
    for case in 0..CASES {
        let mut r = Rng::new(0x5EED_0003 ^ case);
        let before = gen_ops(&mut r, 40);
        let after = gen_ops(&mut r, 40);
        let mut heap = Heap::new("prop");
        let w = build_world(&mut heap);
        for op in &before {
            apply(&mut heap, &w, op);
        }
        let expected = snapshot(&heap, &w);
        let mut store = osiris_checkpoint::ChunkStore::new();
        let image = heap.clone_image(&mut store, None);
        for op in &after {
            apply(&mut heap, &w, op);
        }
        heap.restore_image(&image, &store).expect("restore");
        assert_eq!(snapshot(&heap, &w), expected, "case seed {case}");
        image.release(&mut store);
        assert!(store.is_empty(), "case seed {case}: refs leaked");
    }
}

/// A vector allocated whole (`Heap::alloc_vec_from`) is the vector built by
/// pushes: rebuilt by pushes in the same slot, the heap keeps its state
/// digest, byte accounting and element order, and in both forms a logged
/// `set` rolls back to that same state.
#[test]
fn bulk_built_vector_equals_pushed_vector() {
    for case in 0..CASES {
        let mut r = Rng::new(0x5EED_0005 ^ case);
        let len = 1 + r.below_usize(300);
        let data: Vec<u16> = (0..len).map(|_| r.next_u64() as u16).collect();
        let (index, value) = (r.below_usize(len), r.next_u64() as u16);
        let mut heap = Heap::new("prop");
        let v = heap.alloc_vec_from("vec", data.clone());
        let state = |heap: &Heap| (heap.state_digest(), heap.resident_bytes(), v.snapshot(heap));
        let bulk = state(&heap);
        assert_eq!(bulk.2, data, "case seed {case}");
        for pushed in [false, true] {
            if pushed {
                v.clear(&mut heap);
                data.iter().for_each(|&x| v.push(&mut heap, x));
                assert_eq!(state(&heap), bulk, "case seed {case}: pushed");
            }
            heap.set_logging(true);
            let mark = heap.mark();
            v.set(&mut heap, index, value);
            heap.rollback_to(mark);
            heap.set_logging(false);
            assert_eq!(state(&heap), bulk, "case seed {case}: pushed {pushed}");
        }
    }
}

/// With logging off, no undo state accumulates no matter what runs.
#[test]
fn no_logging_no_log() {
    for case in 0..CASES {
        let mut r = Rng::new(0x5EED_0004 ^ case);
        let ops = gen_ops(&mut r, 80);
        let mut heap = Heap::new("prop");
        let w = build_world(&mut heap);
        heap.set_logging(false);
        for op in &ops {
            apply(&mut heap, &w, op);
        }
        assert_eq!(heap.log_len(), 0, "case seed {case}");
        assert_eq!(heap.stats().undo_appends, 0);
        assert_eq!(heap.stats().coalesced_writes, 0);
    }
}
