//! Randomized properties of the content-addressed chunk store and the COW
//! heap images layered on it: dedup is content-faithful, refcounts never
//! leak or double-free across clone/restore/release interleavings, a single
//! bit flip in any chunk is caught before restore, and a COW restore brings
//! back exactly the std-container values a model held at clone time. Driven
//! by the in-tree deterministic PRNG so every failure reproduces from the
//! printed case seed.

use std::collections::BTreeMap;

use osiris_checkpoint::{ChunkStore, Heap, HeapImage, IntegrityError, CHUNK_SIZE};
use osiris_rng::Rng;

/// One random mutation against a small state universe (compact version of
/// the op set in `proptests.rs`, replayable against the model).
#[derive(Clone, Debug)]
enum Op {
    CellSet(u64),
    VecPush(u16),
    VecTruncate(u8),
    MapInsert(u8, u64),
    MapRemove(u8),
    BufWrite(u16, Vec<u8>),
    BufTruncate(u16),
}

fn gen_op(r: &mut Rng) -> Op {
    match r.below(7) {
        0 => Op::CellSet(r.next_u64()),
        1 => Op::VecPush(r.next_u64() as u16),
        2 => Op::VecTruncate(r.byte()),
        3 => Op::MapInsert(r.byte(), r.next_u64()),
        4 => Op::MapRemove(r.byte()),
        5 => {
            let len = 1 + r.below_usize(200);
            Op::BufWrite(r.next_u64() as u16, r.bytes(len))
        }
        _ => Op::BufTruncate(r.next_u64() as u16),
    }
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
        Op::VecTruncate(n) => w.vec.truncate(heap, *n as usize),
        Op::MapInsert(k, v) => {
            w.map.insert(heap, *k, *v);
        }
        Op::MapRemove(k) => {
            w.map.remove(heap, k);
        }
        Op::BufWrite(o, b) => w.buf.write_at(heap, *o as usize, b),
        Op::BufTruncate(n) => w.buf.truncate(heap, *n as usize),
    }
}

/// The model: what the heap's four containers must hold.
#[derive(Clone, Debug, Default, PartialEq)]
struct Model {
    cell: u64,
    vec: Vec<u16>,
    map: BTreeMap<u8, u64>,
    buf: Vec<u8>,
}

fn read(heap: &Heap, w: &World) -> Model {
    Model {
        cell: w.cell.get(heap),
        vec: w.vec.snapshot(heap),
        map: w.map.snapshot(heap),
        buf: w.buf.snapshot(heap),
    }
}

/// [`apply`] on the model's std containers.
fn apply_model(m: &mut Model, op: &Op) {
    match op {
        Op::CellSet(v) => m.cell = *v,
        Op::VecPush(v) => m.vec.push(*v),
        Op::VecTruncate(n) => m.vec.truncate(*n as usize),
        Op::MapInsert(k, v) => {
            m.map.insert(*k, *v);
        }
        Op::MapRemove(k) => {
            m.map.remove(k);
        }
        Op::BufWrite(o, b) => {
            let (o, end) = (*o as usize, *o as usize + b.len());
            if end > m.buf.len() {
                m.buf.resize(end, 0);
            }
            m.buf[o..end].copy_from_slice(b);
        }
        Op::BufTruncate(n) => m.buf.truncate(*n as usize),
    }
}

/// Identical content inserted from different heaps is stored once, and both
/// manifests still restore their exact state afterwards.
#[test]
fn dedup_is_content_faithful() {
    for case in 0..32u64 {
        let mut r = Rng::new(0xCA5_0001 ^ case);
        let mut store = ChunkStore::new();
        let mut h1 = Heap::new("a");
        let b1 = h1.alloc_buf("buf");
        let mut h2 = Heap::new("b");
        let b2 = h2.alloc_buf("buf");
        let shared = r.bytes(CHUNK_SIZE * 3);
        b1.write_at(&mut h1, 0, &shared);
        b2.write_at(&mut h2, 0, &shared);
        // h2 diverges past the shared pages.
        let tail_len = 1 + r.below_usize(300);
        b2.write_at(&mut h2, CHUNK_SIZE * 3, &r.bytes(tail_len));
        let i1 = h1.clone_image(&mut store, None);
        let i2 = h2.clone_image(&mut store, None);
        assert!(store.dedup_hits() >= 3, "case seed {case}: shared pages");
        assert!(
            store.resident_bytes() < i1.bytes() + i2.bytes(),
            "case seed {case}: dedup must beat per-copy accounting"
        );
        let d1 = h1.state_digest();
        let d2 = h2.state_digest();
        b1.write_at(&mut h1, r.below_usize(CHUNK_SIZE), &r.bytes(32));
        b2.truncate(&mut h2, r.below_usize(CHUNK_SIZE));
        h1.restore_image(&i1, &store).expect("restore h1");
        h2.restore_image(&i2, &store).expect("restore h2");
        assert_eq!(h1.state_digest(), d1, "case seed {case}");
        assert_eq!(h2.state_digest(), d2, "case seed {case}");
        i1.release(&mut store);
        i2.release(&mut store);
        assert!(store.is_empty(), "case seed {case}");
    }
}

/// Arbitrary interleavings of snapshot (full and incremental), restore,
/// release and mutation keep the store's refcounts exactly equal to the sum
/// of live manifests' references; releasing everything empties the store.
#[test]
fn refcounts_never_leak_or_double_free() {
    for case in 0..48u64 {
        let mut r = Rng::new(0xCA5_0002 ^ case);
        let mut heap = Heap::new("cas");
        let w = build_world(&mut heap);
        let mut store = ChunkStore::new();
        let mut pool: Vec<HeapImage> = Vec::new();
        let steps = 10 + r.below_usize(50);
        for _ in 0..steps {
            match r.below(6) {
                0 | 1 => {
                    let prev = if pool.is_empty() || r.below(2) == 0 {
                        None
                    } else {
                        pool.last()
                    };
                    let img = heap.clone_image(&mut store, prev);
                    pool.push(img);
                }
                2 => {
                    if !pool.is_empty() {
                        let i = r.below_usize(pool.len());
                        pool.swap_remove(i).release(&mut store);
                    }
                }
                3 => {
                    if !pool.is_empty() {
                        let i = r.below_usize(pool.len());
                        heap.restore_image(&pool[i], &store).expect("restore");
                    }
                }
                _ => {
                    for _ in 0..1 + r.below_usize(4) {
                        let op = gen_op(&mut r);
                        apply(&mut heap, &w, &op);
                    }
                }
            }
            let expected: u64 = pool.iter().map(HeapImage::chunk_ref_count).sum();
            assert_eq!(store.total_refs(), expected, "case seed {case}: ref drift");
            store.verify_all().expect("no corruption without injection");
        }
        for img in pool.drain(..) {
            img.release(&mut store);
        }
        assert!(store.is_empty(), "case seed {case}: chunks leaked");
        assert_eq!(store.resident_bytes(), 0, "case seed {case}");
    }
}

/// A single bit flip in any byte chunk a restore would read is caught by the
/// chunk-digest verification pass, and the heap is left untouched.
#[test]
fn single_bit_flip_caught_before_restore() {
    for case in 0..64u64 {
        let mut r = Rng::new(0xCA5_0003 ^ case);
        let mut heap = Heap::new("flip");
        let buf = heap.alloc_buf("buf");
        let cell = heap.alloc_cell("cell", 0u64);
        let len = CHUNK_SIZE + r.below_usize(CHUNK_SIZE * 3);
        buf.write_at(&mut heap, 0, &r.bytes(len));
        let mut store = ChunkStore::new();
        let img = heap.clone_image(&mut store, None);
        // Dirty every object so the restore must read every chunk.
        buf.write_at(&mut heap, r.below_usize(len), &[r.byte()]);
        cell.set(&mut heap, 1);
        let pages = len.div_ceil(CHUNK_SIZE);
        store
            .corrupt_byte_chunk_for_test(r.below_usize(pages), r.below_usize(CHUNK_SIZE), r.byte())
            .expect("a byte chunk to corrupt");
        let before = heap.state_digest();
        match heap.restore_image(&img, &store) {
            Err(IntegrityError::ChunkDigest { .. }) => {}
            other => panic!("case seed {case}: bit flip yielded {other:?}"),
        }
        assert_eq!(
            heap.state_digest(),
            before,
            "case seed {case}: failed restore must not mutate the heap"
        );
        assert!(img.verify_full(&store).is_err(), "case seed {case}");
    }
}

/// Restoring the COW manifest brings back exactly the model's values at
/// clone time, for arbitrary snapshot points and arbitrary post-snapshot
/// mutations. The second restore of each case starts from a heap the first
/// one left clean, so it also exercises the clean-object skip.
#[test]
fn cow_restore_equals_model() {
    for case in 0..64u64 {
        let mut r = Rng::new(0xCA5_0004 ^ case);
        let mut heap = Heap::new("diff");
        let w = build_world(&mut heap);
        let mut model = Model::default();
        for _ in 0..r.below_usize(40) {
            let op = gen_op(&mut r);
            apply(&mut heap, &w, &op);
            apply_model(&mut model, &op);
        }
        assert_eq!(read(&heap, &w), model, "case seed {case}: containers");
        let mut store = ChunkStore::new();
        let cow = heap.clone_image(&mut store, None);
        assert_eq!(cow.bytes(), heap.resident_bytes(), "case seed {case}");
        let base = heap.state_digest();
        for round in 0..2 {
            for _ in 0..1 + r.below_usize(40) {
                apply(&mut heap, &w, &gen_op(&mut r));
            }
            heap.restore_image(&cow, &store).expect("cow restore");
            let what = format!("case seed {case} round {round}");
            assert_eq!(read(&heap, &w), model, "{what}");
            assert_eq!(heap.state_digest(), base, "{what}");
        }
        cow.release(&mut store);
        assert!(store.is_empty(), "case seed {case}");
    }
}

/// Regression: a rollback write-back dirties the epoch of every object it
/// touches. Otherwise a snapshot taken between the write and the rollback
/// would see the object as clean and skip restoring the snapshotted value.
#[test]
fn rollback_dirties_epochs_for_snapshots() {
    let mut heap = Heap::new("rb");
    let c = heap.alloc_cell("c", 0u64);
    let mut store = ChunkStore::new();
    heap.set_logging(true);
    let mark = heap.mark();
    c.set(&mut heap, 7);
    let snap = heap.clone_image(&mut store, None); // records value 7
    heap.rollback_to(mark); // value back to 0, epoch must advance
    assert_eq!(c.get(&heap), 0);
    heap.restore_image(&snap, &store).expect("restore");
    assert_eq!(
        c.get(&heap),
        7,
        "restore must not skip the rolled-back object as clean"
    );
    snap.release(&mut store);
    assert!(store.is_empty());
}
