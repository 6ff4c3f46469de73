//! Model-based property test: the coalescing typed journal rolls back to
//! exactly the state a plain std-container model holds at each mark.
//!
//! A heap is driven through a randomized schedule of container mutations,
//! nested marks, partial rollbacks, windows that close by crashing (a
//! rollback to their first mark) or committing (`discard_log`), and
//! out-of-window spans with logging off. The same mutations are applied to a [`Snapshot`] of
//! `u64`, `String`, `Vec`, `BTreeMap` and `Vec<u8>` values; each mark pushes
//! a copy of it and each rollback pops back to that copy. After every
//! rollback, and at the end, the heap must read back exactly the model. The
//! model shares no code with the heap, so it is ground truth.
//!
//! The second half pins the ownership rule of the map and cell stores: a
//! displaced value moves into the journal, so only an in-place update or a
//! `remove` that hands its value back clones, once and never with logging
//! off; an insert or a `delete` never does. Every value that enters the
//! journal leaves it exactly once. The map stream also holds the undo-byte
//! accounting to the model's count of logged stores.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::mem::size_of;

use osiris_checkpoint::{Heap, Mark};
use osiris_rng::Rng;

const CASES: u64 = 96;
const STEPS: usize = 300;

/// Accounting overhead of one undo record: the address word.
const WORD: usize = size_of::<usize>();

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

/// The model: what the heap's five containers must hold.
#[derive(Clone, Debug, Default, PartialEq)]
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

/// Applies one random mutation to the heap and to the model and returns
/// whether it was a store (a no-op such as popping an empty vector is not).
/// Mutations are skewed toward *repeated stores to the same few locations*
/// so coalescing triggers, and toward the buffer, the one container whose
/// coalescing depends on the length a write finds.
fn mutate(r: &mut Rng, h: &mut Heap, w: &World, m: &mut Snapshot) -> bool {
    match r.below(20) {
        0 | 1 => {
            // Hot cell: the classic coalescing target.
            let v = r.next_u64();
            w.cell.set(h, v);
            m.cell = v;
        }
        2 => {
            let s = format!("s{}", r.below(1000));
            w.text.set(h, s.clone());
            m.text = s;
        }
        3 => {
            let v = r.next_u32();
            w.vec.push(h, v);
            m.vec.push(v);
        }
        4 => {
            let popped = m.vec.pop();
            let stored = popped.is_some();
            assert_eq!(w.vec.pop(h), popped, "PVec::pop");
            return stored;
        }
        5 | 6 => {
            // Hot vec slot: index drawn from a tiny range.
            if m.vec.is_empty() {
                return false;
            }
            let i = r.below_usize(m.vec.len().min(4));
            let v = r.next_u32();
            w.vec.set(h, i, v);
            m.vec[i] = v;
        }
        7 => {
            let n = r.below_usize(8);
            w.vec.truncate(h, n);
            let stored = n < m.vec.len();
            m.vec.truncate(n);
            return stored;
        }
        8 => {
            let k = r.below(6) as u8;
            let v = format!("v{}", r.below(100));
            w.map.insert(h, k, v.clone());
            m.map.insert(k, v);
        }
        9 => {
            // Half the removals hand the value back, half drop it.
            let k = r.below(6) as u8;
            let gone = m.map.remove(&k);
            let stored = gone.is_some();
            if r.below(2) == 0 {
                assert_eq!(w.map.remove(h, &k), gone, "PMap::remove");
            } else {
                assert_eq!(w.map.delete(h, &k), stored, "PMap::delete");
            }
            return stored;
        }
        10 | 16 | 17 => {
            // Hot buf range: same few offsets, varying lengths.
            let off = r.below_usize(3) * 16;
            let len = 1 + r.below_usize(24);
            let data = r.bytes(len);
            w.buf.write_at(h, off, &data);
            let end = off + data.len();
            if end > m.buf.len() {
                m.buf.resize(end, 0);
            }
            m.buf[off..end].copy_from_slice(&data);
        }
        11 | 18 | 19 => {
            let n = r.below_usize(m.buf.len() + 1);
            w.buf.truncate(h, n);
            let stored = n < m.buf.len();
            m.buf.truncate(n);
            return stored;
        }
        12 => {
            let c = char::from(b'a' + r.below(26) as u8);
            w.text.update(h, |s| s.push(c));
            m.text.push(c);
        }
        13 => {
            let x = r.next_u64();
            let got = w.cell.update(h, |v| std::mem::replace(v, *v ^ x));
            assert_eq!(got, m.cell, "PCell::update");
            m.cell ^= x;
        }
        14 => {
            if m.vec.is_empty() {
                return false;
            }
            let i = r.below_usize(m.vec.len().min(4));
            let x = r.next_u32();
            w.vec.update(h, i, |v| *v = v.rotate_left(7) ^ x);
            m.vec[i] = m.vec[i].rotate_left(7) ^ x;
        }
        15 => {
            w.vec.clear(h);
            let stored = !m.vec.is_empty();
            m.vec.clear();
            return stored;
        }
        _ => unreachable!(),
    }
    true
}

/// One seed's schedule; returns the heap's coalesced-write count.
fn run_case(case: u64) -> u64 {
    let mut r = Rng::new(0xD1FF ^ case.wrapping_mul(0x9E37_79B9));
    let mut h = Heap::new("typed");
    let w = build_world(&mut h);
    // The buffer starts as a file with content: a truncation then cuts
    // bytes that no write of the window covers.
    let mut model = Snapshot {
        buf: (1..=48).collect(),
        ..Snapshot::default()
    };
    w.buf.write_at(&mut h, 0, &model.buf);
    // Stores the model saw, all of them and those made while logging.
    let (mut stores, mut logged) = (1u64, 0u64);

    h.set_logging(true);
    // Stack of simultaneous marks (nested checkpoints), each beside the
    // model as it stood when the mark was taken.
    let mut marks: Vec<(Mark, Snapshot)> = vec![(h.mark(), model.clone())];

    for step in 0..STEPS {
        let what = format!("case {case} step {step}");
        match r.below(100) {
            // Mostly mutations.
            0..=79 => {
                let stored = u64::from(mutate(&mut r, &mut h, &w, &mut model));
                stores += stored;
                logged += stored;
            }
            // Push a nested mark.
            80..=86 => marks.push((h.mark(), model.clone())),
            // Roll back to a random live mark (pops everything above it).
            87..=92 => {
                let i = r.below_usize(marks.len());
                marks.truncate(i + 1);
                h.rollback_to(marks[i].0);
                model = marks[i].1.clone();
                assert_eq!(snapshot(&h, &w), model, "rollback, {what}");
            }
            // Close the window: it crashes (rolls back to its first mark)
            // or commits, then its log is discarded. Half the time an
            // out-of-window span with logging off follows; its stores reach
            // the model but not the log.
            _ => {
                if r.below(2) == 0 {
                    h.rollback_to(marks[0].0);
                    model = marks[0].1.clone();
                    assert_eq!(snapshot(&h, &w), model, "window rollback, {what}");
                }
                h.discard_log();
                if r.below(2) == 0 {
                    h.set_logging(false);
                    for _ in 0..r.below(4) {
                        stores += u64::from(mutate(&mut r, &mut h, &w, &mut model));
                    }
                    assert_eq!(h.log_len(), 0, "a store logged with logging off, {what}");
                    h.set_logging(true);
                }
                marks = vec![(h.mark(), model.clone())];
            }
        }
    }

    // Final full rollback to the outermost mark.
    h.rollback_to(marks[0].0);
    assert_eq!(snapshot(&h, &w), marks[0].1, "final rollback, case {case}");

    let s = h.stats();
    assert_eq!(s.writes, stores, "every store is counted, case {case}");
    assert_eq!(
        s.undo_appends + s.coalesced_writes,
        logged,
        "every logged store is either appended or coalesced, case {case}"
    );
    s.coalesced_writes
}

#[test]
fn coalescing_journal_matches_the_model() {
    let coalesced: u64 = (0..CASES).map(run_case).sum();
    // Coalescing must trigger on this schedule, or the test proves little.
    assert!(coalesced > 0);
}

// ---------------------------------------------------------------------------
// Ownership: clone counts, and map-heavy streams against a model
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
    for logging in [false, true] {
        let mut h = Heap::new("clones");
        let m = h.alloc_map::<u32, Tracked>("m");
        let c = h.alloc_cell("c", Tracked::new(0));
        for k in 0..3 {
            m.insert(&mut h, k, Tracked::new(u64::from(k)));
        }
        h.set_logging(logging);
        let want = u64::from(logging);
        let what = format!("logging {logging}");

        let (n, _) = clones_during(|| m.update(&mut h, &0, |v| v.0 += 10));
        assert_eq!(n, want, "update ({what})");
        let (n, ()) = clones_during(|| m.insert(&mut h, 1, Tracked::new(11)));
        assert_eq!(n, 0, "insert over an existing key ({what})");
        assert_eq!(m.cloned(&h, &1), Some(Tracked::new(11)));
        let (n, ()) = clones_during(|| m.insert(&mut h, 7, Tracked::new(7)));
        assert_eq!(n, 0, "insert of a fresh key ({what})");
        let (n, gone) = clones_during(|| m.remove(&mut h, &2));
        assert_eq!(n, want, "remove ({what})");
        assert_eq!(gone, Some(Tracked::new(2)));
        let (n, deleted) = clones_during(|| m.delete(&mut h, &7));
        assert_eq!((n, deleted), (0, true), "delete ({what})");
        assert_eq!((m.len(&h), m.delete(&mut h, &7)), (2, false));
        let (n, seen) = clones_during(|| m.with(&h, &0, |v| v.0));
        assert_eq!((n, seen), (0, Some(10)), "with ({what})");
        let (n, ()) = clones_during(|| c.set(&mut h, Tracked::new(1)));
        assert_eq!(n, 0, "PCell::set ({what})");
        let (n, ()) = clones_during(|| c.set(&mut h, Tracked::new(2)));
        assert_eq!(n, 0, "coalesced PCell::set ({what})");
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

/// The map stream's model: the two maps' contents.
#[derive(Clone, Debug, Default, PartialEq)]
struct MapModel {
    blobs: BTreeMap<String, Vec<u8>>,
    nodes: BTreeMap<u64, Node>,
}

const BLOB_RECORD: usize = WORD + size_of::<String>() + size_of::<Vec<u8>>();
const NODE_RECORD: usize = WORD + size_of::<u64>() + size_of::<Node>();

/// Applies the insert / update / remove / delete numbered `op` to one of the
/// two maps of the heap and of the model, checks that both hand back the
/// same answer (an insert hands back nothing), and returns the undo bytes the op owes when it is a store (`None`: the
/// key was absent, nothing was stored).
fn map_op(h: &mut Heap, w: &Maps, m: &mut MapModel, op: u64, key: u64, fill: u64) -> Option<usize> {
    let name = format!("k{key}");
    let node = |name| Node {
        tag: Tracked::new(fill),
        entries: BTreeMap::from([(name, fill)]),
    };
    let edit = |n: &mut Node| {
        n.tag.0 ^= fill;
        n.entries.insert(format!("e{}", fill % 7), fill)
    };
    let blob = fill.to_le_bytes().to_vec();
    // An insert always stores; an update, remove or delete only when the
    // key is present.
    let (stored, record) = match op {
        0 | 3 => (true, if op == 0 { BLOB_RECORD } else { NODE_RECORD }),
        1 | 2 | 6 => (m.blobs.contains_key(&name), BLOB_RECORD),
        _ => (m.nodes.contains_key(&key), NODE_RECORD),
    };
    let (got, want) = match op {
        0 => (
            format!("{:?}", w.blobs.insert(h, name.clone(), blob.clone())),
            format!("{:?}", drop(m.blobs.insert(name, blob))),
        ),
        1 => (
            format!("{:?}", w.blobs.update(h, &name, |v| v.push(fill as u8))),
            format!("{:?}", m.blobs.get_mut(&name).map(|v| v.push(fill as u8))),
        ),
        2 => (
            format!("{:?}", w.blobs.remove(h, &name)),
            format!("{:?}", m.blobs.remove(&name)),
        ),
        3 => (
            format!("{:?}", w.nodes.insert(h, key, node(name.clone()))),
            format!("{:?}", drop(m.nodes.insert(key, node(name)))),
        ),
        4 => (
            format!("{:?}", w.nodes.update(h, &key, edit)),
            format!("{:?}", m.nodes.get_mut(&key).map(edit)),
        ),
        5 => (
            format!("{:?}", w.nodes.remove(h, &key)),
            format!("{:?}", m.nodes.remove(&key)),
        ),
        6 => (
            format!("{:?}", w.blobs.delete(h, &name)),
            format!("{:?}", m.blobs.remove(&name).is_some()),
        ),
        _ => (
            format!("{:?}", w.nodes.delete(h, &key)),
            format!("{:?}", m.nodes.remove(&key).is_some()),
        ),
    };
    assert_eq!(got, want, "op {op} key {key}");
    stored.then_some(record)
}

/// What the model expects of the undo log at one point: records and bytes
/// held, the journal's digest.
#[derive(Clone, Copy)]
struct LogModel {
    records: usize,
    bytes: usize,
    digest: u64,
}

fn run_map_case(case: u64) {
    let empty = Heap::new("empty").journal_digest();
    let mut r = Rng::new(0x0A57_ED00 ^ case.wrapping_mul(0x9E37_79B9));
    let mut h = Heap::new("typed");
    let w = Maps {
        blobs: h.alloc_map("blobs"),
        nodes: h.alloc_map("nodes"),
    };
    let mut model = MapModel::default();
    let fresh = LogModel {
        records: 0,
        bytes: 0,
        digest: empty,
    };
    let mut log = fresh;
    // Logged stores, the undo bytes they appended and the most bytes the
    // log ever held, over the whole case.
    let (mut logged, mut appended, mut peak) = (0u64, 0u64, 0usize);
    h.set_logging(true);
    let mut marks = vec![(h.mark(), model.clone(), log)];
    for step in 0..STEPS {
        let what = format!("case {case} step {step}");
        match r.below(100) {
            0..=74 => {
                let (op, key, fill) = (r.below(8), r.below(5), r.next_u64());
                if let Some(bytes) = map_op(&mut h, &w, &mut model, op, key, fill) {
                    logged += 1;
                    appended += bytes as u64;
                    log.records += 1;
                    log.bytes += bytes;
                    log.digest = h.journal_digest();
                    peak = peak.max(log.bytes);
                }
            }
            75..=82 => marks.push((h.mark(), model.clone(), log)),
            83..=92 => {
                let i = r.below_usize(marks.len());
                marks.truncate(i + 1);
                h.rollback_to(marks[i].0);
                (model, log) = (marks[i].1.clone(), marks[i].2);
                assert_eq!(h.journal_digest(), log.digest, "{what}");
            }
            _ => {
                h.discard_log();
                log = fresh;
                assert_eq!(h.journal_digest(), empty, "{what}");
                marks.clear();
                marks.push((h.mark(), model.clone(), log));
            }
        }
        assert!(h.verify_journal().is_ok(), "{what}");
        assert_eq!(w.blobs.snapshot(&h), model.blobs, "{what}");
        assert_eq!(w.nodes.snapshot(&h), model.nodes, "{what}");
        assert_eq!(h.log_len(), log.records, "maps never coalesce, {what}");
        assert_eq!(h.log_bytes(), log.bytes, "{what}");
        let s = h.stats();
        assert_eq!(s.undo_appends + s.coalesced_writes, logged, "{what}");
        assert_eq!(s.undo_bytes_appended, appended, "{what}");
        assert_eq!(s.undo_bytes_peak, peak, "{what}");
    }
}

#[test]
fn map_streams_match_the_model_and_drop_every_payload_once() {
    for case in 0..CASES / 4 {
        run_map_case(case);
        // The heap, its journal and every model copy are gone.
        assert_eq!(LIVE.with(Cell::get), 0, "case {case}: leak or double drop");
    }
}
