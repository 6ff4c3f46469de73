//! The typed, allocation-free undo journal: the heap's only undo log.
//!
//! A boxed closure per logged store would cost one allocator round-trip per
//! write, exactly the per-store overhead the paper's function-cloning
//! optimization exists to shave, so the journal is *typed*:
//!
//! * [`UndoRecord`] — a plain struct tagged with an [`UndoKind`] covering the
//!   container mutation shapes (cell set; vec set/push/pop/truncate; map
//!   insert/remove; buf write/truncate). Each record carries the
//!   monomorphized `restore`/`drop_payload` function pointers minted for it,
//!   so replay needs no dynamic dispatch through a trait object, no match on
//!   the shape and no per-record allocation.
//! * [`Arena`] — a reusable byte arena holding the old-value payloads. Values
//!   are *moved* in (`ptr::copy_nonoverlapping` + `mem::forget`) and moved
//!   back out exactly once on rollback (`ptr::read_unaligned`), or dropped
//!   exactly once via the record's `drop_payload` when the log is discarded.
//!   `rollback`/`discard` only reset lengths — capacity is never freed, so a
//!   warm window logs with zero allocator calls.
//! * [`CoalesceIndex`] — a small open-addressing hash table keyed by
//!   `(object, slot)`. Repeated stores to the same location inside one
//!   logging span keep only the *first* old value: replaying records in
//!   reverse means the first record lands last and restores the span-start
//!   value, so dropping the later ones is rollback-equivalent while turning
//!   O(writes) undo bytes into O(distinct locations).
//!
//! This is the only module in the crate allowed to use `unsafe`; everything
//! unsafe is confined to moving payload bytes in and out of the arena under
//! the record's type witness (the monomorphized function pointers).

use std::any::Any;
use std::collections::BTreeMap;
use std::mem::size_of;

use crate::heap::{HeapValue, Holder, Obj};
use crate::map::MapKey;

/// Per-record fixed accounting overhead: the address word, as in the paper's
/// *(address, old value)* undo-log entries.
const WORD: usize = size_of::<usize>();

fn off_u32(off: usize) -> u32 {
    u32::try_from(off).expect("undo arena exceeds 4 GiB")
}

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

/// Reusable byte arena for old-value payloads.
///
/// Payload bytes of typed records are type-erased: they are raw object
/// representations moved in with an untyped byte copy and only ever
/// reinterpreted through the owning record's monomorphized function pointers.
/// Buf records store plain initialized bytes and read them back as a slice.
pub(crate) struct Arena {
    bytes: Vec<u8>,
    /// Cumulative payload bytes appended without growing the allocation —
    /// i.e. bytes served from reused (warm) capacity.
    reused: u64,
}

impl Arena {
    pub(crate) fn new() -> Self {
        Arena {
            bytes: Vec::new(),
            reused: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.bytes.len()
    }

    pub(crate) fn reuse_bytes(&self) -> u64 {
        self.reused
    }

    pub(crate) fn reset_reuse(&mut self) {
        self.reused = 0;
    }

    pub(crate) fn capacity(&self) -> usize {
        self.bytes.capacity()
    }

    /// Fork support: restores the reuse counter and ensures at least
    /// `capacity` bytes of arena capacity (never shrinks).
    pub(crate) fn restore_warmth(&mut self, reused: u64, capacity: usize) {
        self.reused = reused;
        let have = self.bytes.capacity() - self.bytes.len();
        let want = capacity - self.bytes.len().min(capacity);
        if want > have {
            self.bytes.reserve_exact(want);
        }
    }

    fn note_reuse(&mut self, extra: usize) {
        if self.bytes.len() + extra <= self.bytes.capacity() {
            self.reused += extra as u64;
        }
    }

    /// Drops the bytes at `len..` from the arena without freeing capacity.
    pub(crate) fn truncate(&mut self, len: usize) {
        debug_assert!(len <= self.bytes.len());
        self.bytes.truncate(len);
    }

    pub(crate) fn reset(&mut self) {
        self.bytes.clear();
    }

    /// Appends initialized bytes (buf payloads); returns their offset.
    pub(crate) fn push_bytes(&mut self, src: &[u8]) -> u32 {
        self.note_reuse(src.len());
        let off = self.bytes.len();
        self.bytes.extend_from_slice(src);
        off_u32(off)
    }

    /// Appends the raw representation of `value` without dropping it.
    ///
    /// `ptr::copy_nonoverlapping` is an untyped copy, so padding bytes are
    /// carried over as-is; they are only ever read back as a whole `T`.
    #[allow(unsafe_code)]
    fn push_raw<T>(&mut self, value: &T) {
        let sz = size_of::<T>();
        self.bytes.reserve(sz);
        let off = self.bytes.len();
        // SAFETY: `reserve` guarantees capacity for `sz` more bytes, so the
        // destination range is in-bounds spare capacity; source and
        // destination cannot overlap (the value is not inside the arena).
        unsafe {
            std::ptr::copy_nonoverlapping(
                (value as *const T).cast::<u8>(),
                self.bytes.as_mut_ptr().add(off),
                sz,
            );
            self.bytes.set_len(off + sz);
        }
    }

    /// Moves `value` into the arena; returns its offset. The value must
    /// later be taken out (rollback) or dropped (discard) exactly once.
    pub(crate) fn push_value<T>(&mut self, value: T) -> u32 {
        self.note_reuse(size_of::<T>());
        let off = self.bytes.len();
        self.push_raw(&value);
        std::mem::forget(value);
        off_u32(off)
    }

    /// Moves each of `items` into the arena, contiguously; returns the
    /// offset of the first element.
    pub(crate) fn push_values<T>(&mut self, items: impl ExactSizeIterator<Item = T>) -> u32 {
        self.note_reuse(items.len() * size_of::<T>());
        let off = self.bytes.len();
        for item in items {
            self.push_raw(&item);
            std::mem::forget(item);
        }
        off_u32(off)
    }

    /// Initialized payload bytes of a buf record.
    pub(crate) fn slice(&self, off: u32, len: usize) -> &[u8] {
        &self.bytes[off as usize..off as usize + len]
    }

    /// Flips one bit of the stored bytes — corruption-injection test
    /// support. The caller must flip it back before any payload is replayed
    /// or dropped through its typed function pointers.
    pub(crate) fn flip_bit(&mut self, byte: usize, bit: u8) {
        self.bytes[byte] ^= 1 << (bit & 7);
    }

    /// Moves the value stored at `off` back out of the arena.
    ///
    /// # Safety
    ///
    /// `off` must come from a `push_value`/`push_values` call for the
    /// same `T`, and each stored value must be taken at most once (the bytes
    /// are logically moved out; taking twice would double-drop).
    #[allow(unsafe_code)]
    pub(crate) unsafe fn take<T>(&self, off: u32) -> T {
        debug_assert!(off as usize + size_of::<T>() <= self.bytes.len());
        // SAFETY: per the contract above the bytes at `off` are the valid
        // representation of a `T`; `read_unaligned` has no alignment
        // requirement, which matters because the arena packs payloads densely.
        unsafe { std::ptr::read_unaligned(self.bytes.as_ptr().add(off as usize).cast::<T>()) }
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// Monomorphized replay entry point: moves the record's payload out of the
/// arena and writes it back into the object it came from.
type RestoreFn = unsafe fn(&mut [Obj], &UndoRecord, &Arena);
/// Monomorphized discard entry point: drops the record's payload in place
/// (used when a window closes and the log is thrown away unapplied).
type DropFn = unsafe fn(&UndoRecord, &Arena);

/// The mutation shape a record undoes — one per container operation. The
/// discriminant is the stable tag folded into the integrity digest (the
/// record's function pointers are not digestible across runs).
#[derive(Clone, Copy)]
pub(crate) enum UndoKind {
    /// `PCell::set`/`update`: restore the old value.
    CellSet = 1,
    /// `PVec::set`/`update`: restore the old element at `aux`.
    VecSet = 2,
    /// `PVec::push`: pop the appended element (no payload).
    VecPush = 3,
    /// `PVec::pop`: push the removed element back.
    VecPop = 4,
    /// `PVec::truncate`: re-extend with the `aux` removed tail elements.
    VecTruncate = 5,
    /// `PMap::insert`/`update`: restore the old binding (`aux` = had one).
    MapInsert = 6,
    /// `PMap::remove`/`delete`: re-insert the removed binding.
    MapRemove = 7,
    /// `PBuf::write_at`: restore the overwritten bytes at offset `aux`, then
    /// truncate back to the old length `aux2`.
    BufWrite = 8,
    /// `PBuf::truncate`: re-append the removed tail bytes.
    BufTruncate = 9,
}

/// One undo-log entry: the paper's *(address, old value)* pair, with the
/// old value stored out-of-line in the [`Arena`].
pub(crate) struct UndoRecord {
    pub(crate) kind: UndoKind,
    /// Replay entry point, minted at append time when the concrete types
    /// were statically known (the buf shapes' copy plain bytes).
    pub(crate) restore: RestoreFn,
    /// Discard entry point; `None` for shapes whose payload owns nothing
    /// (a push, and the byte-only buf shapes).
    pub(crate) drop_payload: Option<DropFn>,
    /// Object index within the heap (the "address").
    pub(crate) obj: u32,
    /// Arena offset of this record's payload. Because records are strictly
    /// LIFO, this is also the arena length to truncate back to when the
    /// record is popped.
    pub(crate) off: u32,
    /// Payload length in arena bytes.
    pub(crate) plen: u32,
    /// Kind-specific scalar: element index (`VecSet`), tail element count
    /// (`VecTruncate`), buffer offset (`BufWrite`), had-old flag
    /// (`MapInsert`).
    pub(crate) aux: u64,
    /// Kind-specific scalar: old buffer length (`BufWrite`).
    pub(crate) aux2: u64,
    /// Bytes this record accounts for in the undo-log statistics.
    pub(crate) bytes: usize,
    /// Journal digest *before* this record was appended; popping the record
    /// restores it, so the running digest always covers exactly the live
    /// records. Filled in by [`Journal::seal`].
    pub(crate) prev: u64,
}

/// The payload of object `obj`, borrowed from the object table alone (so
/// the journal can be borrowed beside it), in one downcast: the boxed
/// `dyn AnyObj` upcasts to `dyn Any` in place.
pub(crate) fn holder<T: HeapValue>(objs: &[Obj], obj: u32) -> &Holder<T> {
    let any: &dyn Any = &*objs[obj as usize].data;
    any.downcast_ref().expect("heap object type mismatch")
}

/// Mutable [`holder`].
pub(crate) fn holder_mut<T: HeapValue>(objs: &mut [Obj], obj: u32) -> &mut Holder<T> {
    let any: &mut dyn Any = &mut *objs[obj as usize].data;
    any.downcast_mut().expect("heap object type mismatch")
}

// Monomorphized restore/drop implementations. All of them uphold the arena
// contract: each payload is taken exactly once.

#[allow(unsafe_code)]
unsafe fn restore_cell<T: HeapValue>(objs: &mut [Obj], rec: &UndoRecord, arena: &Arena) {
    // SAFETY: payload pushed by `push_cell::<T>` for this record.
    holder_mut::<T>(objs, rec.obj).value = unsafe { arena.take::<T>(rec.off) };
}

#[allow(unsafe_code)]
unsafe fn restore_vec_set<T: HeapValue>(objs: &mut [Obj], rec: &UndoRecord, arena: &Arena) {
    let h = holder_mut::<Vec<T>>(objs, rec.obj);
    // SAFETY: payload pushed by `push_vec_set::<T>` for this record.
    h.value[rec.aux as usize] = unsafe { arena.take::<T>(rec.off) };
}

unsafe fn restore_vec_push<T: HeapValue>(objs: &mut [Obj], rec: &UndoRecord, _arena: &Arena) {
    let h = holder_mut::<Vec<T>>(objs, rec.obj);
    h.value.pop();
    h.extra_bytes = h.value.len() * size_of::<T>();
}

#[allow(unsafe_code)]
unsafe fn restore_vec_pop<T: HeapValue>(objs: &mut [Obj], rec: &UndoRecord, arena: &Arena) {
    // SAFETY: payload pushed by `push_vec_pop::<T>` for this record.
    let value = unsafe { arena.take::<T>(rec.off) };
    let h = holder_mut::<Vec<T>>(objs, rec.obj);
    h.value.push(value);
    h.extra_bytes = h.value.len() * size_of::<T>();
}

#[allow(unsafe_code)]
unsafe fn restore_vec_truncate<T: HeapValue>(objs: &mut [Obj], rec: &UndoRecord, arena: &Arena) {
    let h = holder_mut::<Vec<T>>(objs, rec.obj);
    for i in 0..rec.aux as usize {
        let off = rec.off + off_u32(i * size_of::<T>());
        // SAFETY: element `i` of the tail pushed by `push_vec_truncate::<T>`.
        h.value.push(unsafe { arena.take::<T>(off) });
    }
    h.extra_bytes = h.value.len() * size_of::<T>();
}

#[allow(unsafe_code)]
unsafe fn drop_value<T: HeapValue>(rec: &UndoRecord, arena: &Arena) {
    // SAFETY: single payload value pushed for this record.
    drop(unsafe { arena.take::<T>(rec.off) });
}

#[allow(unsafe_code)]
unsafe fn drop_slice<T: HeapValue>(rec: &UndoRecord, arena: &Arena) {
    for i in 0..rec.aux as usize {
        // SAFETY: element `i` of the tail pushed for this record.
        drop(unsafe { arena.take::<T>(rec.off + off_u32(i * size_of::<T>())) });
    }
}

#[allow(unsafe_code)]
unsafe fn restore_map_insert<K: MapKey, V: HeapValue>(
    objs: &mut [Obj],
    rec: &UndoRecord,
    arena: &Arena,
) {
    // SAFETY: key (and value iff `aux == 1`) pushed by `push_map_insert`.
    let key = unsafe { arena.take::<K>(rec.off) };
    let old = if rec.aux == 1 {
        Some(unsafe { arena.take::<V>(rec.off + off_u32(size_of::<K>())) })
    } else {
        None
    };
    let h = holder_mut::<BTreeMap<K, V>>(objs, rec.obj);
    match old {
        Some(v) => {
            h.value.insert(key, v);
        }
        None => {
            h.value.remove(&key);
        }
    }
    h.extra_bytes = h.value.len() * (size_of::<K>() + size_of::<V>());
}

#[allow(unsafe_code)]
unsafe fn drop_map_insert<K: MapKey, V: HeapValue>(rec: &UndoRecord, arena: &Arena) {
    // SAFETY: mirrors `restore_map_insert`'s payload layout.
    drop(unsafe { arena.take::<K>(rec.off) });
    if rec.aux == 1 {
        drop(unsafe { arena.take::<V>(rec.off + off_u32(size_of::<K>())) });
    }
}

#[allow(unsafe_code)]
unsafe fn restore_map_remove<K: MapKey, V: HeapValue>(
    objs: &mut [Obj],
    rec: &UndoRecord,
    arena: &Arena,
) {
    // SAFETY: key then value pushed by `push_map_remove`.
    let key = unsafe { arena.take::<K>(rec.off) };
    let value = unsafe { arena.take::<V>(rec.off + off_u32(size_of::<K>())) };
    let h = holder_mut::<BTreeMap<K, V>>(objs, rec.obj);
    h.value.insert(key, value);
    h.extra_bytes = h.value.len() * (size_of::<K>() + size_of::<V>());
}

#[allow(unsafe_code)]
unsafe fn drop_map_remove<K: MapKey, V: HeapValue>(rec: &UndoRecord, arena: &Arena) {
    // SAFETY: mirrors `restore_map_remove`'s payload layout.
    drop(unsafe { arena.take::<K>(rec.off) });
    drop(unsafe { arena.take::<V>(rec.off + off_u32(size_of::<K>())) });
}

fn restore_buf_write(objs: &mut [Obj], rec: &UndoRecord, arena: &Arena) {
    let h = holder_mut::<Vec<u8>>(objs, rec.obj);
    let offset = rec.aux as usize;
    let overwritten = arena.slice(rec.off, rec.plen as usize);
    let restore_end = offset + overwritten.len();
    if restore_end <= h.value.len() {
        h.value[offset..restore_end].copy_from_slice(overwritten);
    }
    h.value.truncate(rec.aux2 as usize);
    h.extra_bytes = h.value.len();
}

fn restore_buf_truncate(objs: &mut [Obj], rec: &UndoRecord, arena: &Arena) {
    let h = holder_mut::<Vec<u8>>(objs, rec.obj);
    h.value
        .extend_from_slice(arena.slice(rec.off, rec.plen as usize));
    h.extra_bytes = h.value.len();
}

// ---------------------------------------------------------------------------
// Coalescing index
// ---------------------------------------------------------------------------

/// Coalescing slot for a whole-object location (a `PCell`).
const SLOT_WHOLE: u64 = u64::MAX;
const INDEX_INITIAL: usize = 256;
const INDEX_MAX: usize = 1 << 16;
const PROBE_LIMIT: usize = 8;

/// The SplitMix64 finalizer (Steele, Lea & Flood) — duplicated from
/// `osiris-rng` so this crate stays dependency-free.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Integrity digest
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit offset basis: the digest of an empty journal, and the seed
/// of every digest this crate folds.
pub(crate) const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// The FNV prime the word-wise folds multiply by.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// One step of the word-wise integrity fold: the FNV-1a step (xor, multiply
/// by the FNV prime) taken over a whole 64-bit word, then a rotation.
///
/// For a fixed `w` the step is a bijection of `d`, and for a fixed `d` a
/// bijection of `w` (xor, multiplication by an odd constant mod 2^64 and
/// rotation all are). So two inputs of equal length that differ in exactly
/// one word — in particular by a single flipped bit — can never fold to the
/// same digest: the step that sees the differing word separates the two
/// running digests, and every later step, seeing equal words, keeps them
/// apart. The rotation is there for diffusion: a multiply only carries
/// differences upward, so without it a flip of a word's top bit would stay
/// in the digest's top bit.
#[inline]
pub fn fold_word(d: u64, w: u64) -> u64 {
    (d ^ w).wrapping_mul(FNV_PRIME).rotate_left(29)
}

/// Folds `bytes` into a running digest eight at a time with [`fold_word`],
/// then one tail word: the 0–7 leftover bytes with the length (mod 256) in
/// the top byte. The tag makes inputs that differ only in trailing zero
/// bytes (`[1]` and `[1, 0]`) fold differently; lengths that agree mod 256
/// already differ by at least 32 word steps.
#[inline]
pub fn fold_bytes(mut d: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        d = fold_word(d, u64::from_le_bytes(w.try_into().expect("8-byte word")));
    }
    let rest = words.remainder();
    let mut tail = [0u8; 8];
    tail[..rest.len()].copy_from_slice(rest);
    tail[7] = (bytes.len() & 0xFF) as u8;
    fold_word(d, u64::from_le_bytes(tail))
}

/// Why an undo-journal or heap-image integrity check failed.
///
/// Returned by [`crate::Heap::verify_journal`] and
/// [`crate::HeapImage::verify`]; the kernel's recovery path treats any
/// variant as "this checkpoint cannot be trusted" and falls back to the next
/// rung of the recovery chain instead of replaying corrupted state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntegrityError {
    /// Record `index`'s payload range lies beyond the arena: the journal
    /// tail was torn off (records and payload bytes disagree).
    TornPayload {
        /// Index of the offending record, oldest first.
        index: usize,
    },
    /// Record `index`'s chained prior digest does not match the digest
    /// recomputed over the records before it.
    RecordChain {
        /// Index of the offending record, oldest first.
        index: usize,
    },
    /// The digest recomputed over the whole journal does not match the
    /// running digest maintained at append time.
    DigestMismatch {
        /// The running digest the journal maintained incrementally.
        expected: u64,
        /// The digest recomputed from the records and arena.
        actual: u64,
    },
    /// A heap image's structural digest does not match its contents.
    ImageDigest {
        /// The digest captured when the image was cloned.
        expected: u64,
        /// The digest recomputed from the image's objects.
        actual: u64,
    },
    /// A chunk referenced by a heap-image manifest is not resident in the
    /// content-addressed store (refcount lifecycle bug or foreign store).
    MissingChunk {
        /// The manifest's digest for the missing chunk.
        digest: u64,
    },
    /// A resident chunk's content no longer matches the digest it is keyed
    /// under: the stored payload was corrupted after insertion.
    ChunkDigest {
        /// The digest the chunk is keyed under (captured at insert).
        expected: u64,
        /// The digest recomputed from the chunk's current content.
        actual: u64,
    },
    /// A heap-image manifest's byte accounting disagrees with the chunk
    /// store's: the `bytes()` total summed at clone time does not match what
    /// the referenced chunks actually hold.
    ImageBytes {
        /// Bytes the manifest claims.
        expected: u64,
        /// Bytes accounted by the referenced chunks.
        actual: u64,
    },
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::TornPayload { index } => {
                write!(
                    f,
                    "undo record #{index} payload lies beyond the arena (torn tail)"
                )
            }
            IntegrityError::RecordChain { index } => {
                write!(f, "undo record #{index} breaks the journal digest chain")
            }
            IntegrityError::DigestMismatch { expected, actual } => {
                write!(
                    f,
                    "journal digest mismatch: expected {expected:#x}, recomputed {actual:#x}"
                )
            }
            IntegrityError::ImageDigest { expected, actual } => {
                write!(
                    f,
                    "heap image digest mismatch: expected {expected:#x}, recomputed {actual:#x}"
                )
            }
            IntegrityError::MissingChunk { digest } => {
                write!(f, "manifest chunk {digest:#x} not resident in chunk store")
            }
            IntegrityError::ChunkDigest { expected, actual } => {
                write!(
                    f,
                    "chunk content mismatch: keyed {expected:#x}, recomputed {actual:#x}"
                )
            }
            IntegrityError::ImageBytes { expected, actual } => {
                write!(
                    f,
                    "heap image byte accounting mismatch: manifest {expected}, chunks {actual}"
                )
            }
        }
    }
}

/// Folds one record into the digest: the header scalars packed into four
/// words (`tag | obj`, `off | plen`, `aux`, `aux2`), then the arena payload.
fn fold_record(digest: u64, rec: &UndoRecord, arena: &Arena) -> u64 {
    let mut d = fold_word(digest, rec.kind as u64 | u64::from(rec.obj) << 32);
    d = fold_word(d, u64::from(rec.off) | u64::from(rec.plen) << 32);
    d = fold_word(d, rec.aux);
    d = fold_word(d, rec.aux2);
    fold_bytes(d, arena.slice(rec.off, rec.plen as usize))
}

#[derive(Clone, Copy, Default)]
struct Entry {
    /// Epoch stamp; an entry whose epoch differs from the index's is empty.
    epoch: u32,
    obj: u32,
    slot: u64,
    /// Journal position of the record covering this location.
    pos: u32,
    /// Payload bytes that record restores at this location (buf writes have
    /// variable coverage; a later shorter write is covered, a longer one not).
    covered: u32,
}

/// Open-addressing index from `(object, slot)` to the journal record that
/// already covers that location in the current logging span.
///
/// Invalidation is O(1) by bumping the epoch; the table itself is reused
/// forever (never freed), keeping the hot path allocation-free once warm.
/// The index is best-effort: dropping an entry (probe overflow at max size)
/// merely forfeits coalescing for that location, never correctness.
pub(crate) struct CoalesceIndex {
    table: Vec<Entry>,
    epoch: u32,
}

impl CoalesceIndex {
    fn new() -> Self {
        CoalesceIndex {
            table: Vec::new(),
            epoch: 1,
        }
    }

    fn home(&self, obj: u32, slot: u64) -> usize {
        mix64((u64::from(obj) << 32) ^ slot.rotate_left(17)) as usize
    }

    /// Forgets every entry in O(1).
    fn invalidate_all(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: ancient entries could alias the fresh epoch, so
            // pay for a real clear once every 2^32 invalidations.
            self.table.fill(Entry::default());
            self.epoch = 1;
        }
    }

    /// Is `(obj, slot)` already covered by a record at position `>= barrier`
    /// restoring at least `covered` payload bytes?
    fn lookup(&self, obj: u32, slot: u64, covered: u32, barrier: u32) -> bool {
        if self.table.is_empty() {
            return false;
        }
        let mask = self.table.len() - 1;
        let home = self.home(obj, slot);
        for i in 0..PROBE_LIMIT {
            let e = &self.table[(home + i) & mask];
            if e.epoch != self.epoch {
                // First empty slot ends the probe cluster (inserts always
                // fill the first empty slot, so nothing lives past one).
                return false;
            }
            if e.obj == obj && e.slot == slot {
                return e.pos >= barrier && covered <= e.covered;
            }
        }
        false
    }

    /// Records that journal position `pos` covers `(obj, slot)`.
    fn insert(&mut self, obj: u32, slot: u64, pos: u32, covered: u32) {
        if self.table.is_empty() {
            self.table = vec![Entry::default(); INDEX_INITIAL];
        }
        loop {
            if self.try_insert(obj, slot, pos, covered) {
                return;
            }
            if self.table.len() >= INDEX_MAX {
                // Best-effort: give up coalescing for this location.
                return;
            }
            self.grow();
        }
    }

    fn try_insert(&mut self, obj: u32, slot: u64, pos: u32, covered: u32) -> bool {
        let mask = self.table.len() - 1;
        let home = self.home(obj, slot);
        let mut free = None;
        for i in 0..PROBE_LIMIT {
            let idx = (home + i) & mask;
            let e = &self.table[idx];
            if e.epoch == self.epoch {
                if e.obj == obj && e.slot == slot {
                    free = Some(idx);
                    break;
                }
            } else if free.is_none() {
                free = Some(idx);
            }
        }
        match free {
            Some(idx) => {
                self.table[idx] = Entry {
                    epoch: self.epoch,
                    obj,
                    slot,
                    pos,
                    covered,
                };
                true
            }
            None => false,
        }
    }

    fn grow(&mut self) {
        let doubled = self.table.len() * 2;
        let old = std::mem::replace(&mut self.table, vec![Entry::default(); doubled]);
        let live_epoch = self.epoch;
        for e in old {
            if e.epoch == live_epoch {
                // Re-home; on probe overflow the entry is simply dropped.
                let _ = self.try_insert(e.obj, e.slot, e.pos, e.covered);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

/// The typed undo journal: record list + payload arena + coalescing index.
pub(crate) struct Journal {
    records: Vec<UndoRecord>,
    arena: Arena,
    index: CoalesceIndex,
    /// Journal length at the most recent [`crate::Heap::mark`]. Coalescing
    /// must never suppress an append whose covering record lies before the
    /// latest mark — a rollback to that mark would then miss the location.
    barrier: u32,
    /// Incremental word-fold digest over every live record (header scalars
    /// and payload bytes), maintained at append/pop time with no allocations.
    /// [`Journal::verify`] recomputes it from scratch before a rollback
    /// trusts the log.
    digest: u64,
}

impl Journal {
    pub(crate) fn new() -> Self {
        Journal {
            records: Vec::new(),
            arena: Arena::new(),
            index: CoalesceIndex::new(),
            barrier: 0,
            digest: FNV_OFFSET,
        }
    }

    /// Chains `rec` into the running digest and appends it. Every append
    /// path funnels through here so the digest covers the whole journal.
    fn seal(&mut self, mut rec: UndoRecord) {
        rec.prev = self.digest;
        self.digest = fold_record(self.digest, &rec, &self.arena);
        self.records.push(rec);
    }

    /// The running integrity digest (FNV offset basis when empty).
    pub(crate) fn digest(&self) -> u64 {
        self.digest
    }

    /// Recomputes the digest chain from scratch — O(records + payload
    /// bytes) — and compares it against the incrementally maintained state.
    ///
    /// Any single bit flip in a record header or payload byte, and any torn
    /// tail (records or arena bytes lost without the bookkeeping), yields an
    /// error. Called by the kernel before a rollback replays the log.
    pub(crate) fn verify(&self) -> Result<(), IntegrityError> {
        let mut running = FNV_OFFSET;
        for (index, rec) in self.records.iter().enumerate() {
            if rec.off as usize + rec.plen as usize > self.arena.len() {
                return Err(IntegrityError::TornPayload { index });
            }
            if rec.prev != running {
                return Err(IntegrityError::RecordChain { index });
            }
            running = fold_record(running, rec, &self.arena);
        }
        if running != self.digest {
            return Err(IntegrityError::DigestMismatch {
                expected: self.digest,
                actual: running,
            });
        }
        Ok(())
    }

    // -- corruption-injection test support ---------------------------------

    /// Flips one bit of an arena payload byte. The caller must flip it back
    /// before the journal is replayed or discarded (typed payloads are
    /// reinterpreted through their function pointers).
    pub(crate) fn corrupt_arena_bit(&mut self, byte: usize, bit: u8) {
        self.arena.flip_bit(byte, bit);
    }

    /// Flips one bit of record `index`'s `aux` scalar. Reversible; flip the
    /// same bit again to restore the record.
    pub(crate) fn corrupt_record_bit(&mut self, index: usize, bit: u32) {
        self.records[index].aux ^= 1u64 << (bit & 63);
    }

    /// Tears the newest `n` records off the journal *without* the digest
    /// bookkeeping — simulating a torn write. The records' payloads are
    /// leaked (never dropped), so this is strictly test support.
    pub(crate) fn tear_tail(&mut self, n: usize) {
        for _ in 0..n {
            if let Some(rec) = self.records.pop() {
                self.arena.truncate(rec.off as usize);
            }
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    pub(crate) fn arena_len(&self) -> usize {
        self.arena.len()
    }

    pub(crate) fn arena_reuse_bytes(&self) -> u64 {
        self.arena.reuse_bytes()
    }

    pub(crate) fn reset_reuse(&mut self) {
        self.arena.reset_reuse();
    }

    /// Fork support: the arena's reuse counter and capacity, captured by
    /// heap snapshots so a fork continues the donor's warm-arena accounting.
    pub(crate) fn warmth(&self) -> (u64, usize) {
        (self.arena.reuse_bytes(), self.arena.capacity())
    }

    /// Fork support: restores arena warmth recorded by [`Journal::warmth`].
    pub(crate) fn restore_warmth(&mut self, reused: u64, capacity: usize) {
        self.arena.restore_warmth(reused, capacity);
    }

    /// Called from `Heap::mark`: raises the coalescing barrier so records
    /// before the new mark no longer justify skipping appends.
    pub(crate) fn note_mark(&mut self) {
        self.barrier = self.barrier.max(off_u32(self.records.len()));
    }

    /// Drops all coalescing knowledge (after rollback, discard, or a logging
    /// span boundary).
    pub(crate) fn invalidate_coalescing(&mut self) {
        self.index.invalidate_all();
        self.barrier = off_u32(self.records.len());
    }

    fn next_pos(&self) -> u32 {
        off_u32(self.records.len())
    }

    // -- coverage queries (checked *before* cloning the old value) ---------

    pub(crate) fn cell_covered<T>(&self, obj: u32) -> bool {
        self.index
            .lookup(obj, SLOT_WHOLE, size_of::<T>() as u32, self.barrier)
    }

    pub(crate) fn vec_covered<T>(&self, obj: u32, index: usize) -> bool {
        self.index
            .lookup(obj, index as u64, size_of::<T>() as u32, self.barrier)
    }

    pub(crate) fn buf_covered(&self, obj: u32, offset: usize, write_len: usize) -> bool {
        self.index
            .lookup(obj, offset as u64, off_u32(write_len), self.barrier)
    }

    // -- appends ------------------------------------------------------------

    pub(crate) fn push_cell<T: HeapValue>(&mut self, obj: u32, old: T) -> usize {
        let bytes = WORD + size_of::<T>();
        let pos = self.next_pos();
        let off = self.arena.push_value(old);
        self.seal(UndoRecord {
            kind: UndoKind::CellSet,
            restore: restore_cell::<T>,
            drop_payload: Some(drop_value::<T>),
            obj,
            off,
            plen: size_of::<T>() as u32,
            aux: 0,
            aux2: 0,
            bytes,
            prev: 0,
        });
        self.index
            .insert(obj, SLOT_WHOLE, pos, size_of::<T>() as u32);
        bytes
    }

    pub(crate) fn push_vec_set<T: HeapValue>(&mut self, obj: u32, index: usize, old: T) -> usize {
        let bytes = WORD + size_of::<T>();
        let pos = self.next_pos();
        let off = self.arena.push_value(old);
        self.seal(UndoRecord {
            kind: UndoKind::VecSet,
            restore: restore_vec_set::<T>,
            drop_payload: Some(drop_value::<T>),
            obj,
            off,
            plen: size_of::<T>() as u32,
            aux: index as u64,
            aux2: 0,
            bytes,
            prev: 0,
        });
        self.index
            .insert(obj, index as u64, pos, size_of::<T>() as u32);
        bytes
    }

    pub(crate) fn push_vec_push<T: HeapValue>(&mut self, obj: u32) -> usize {
        let bytes = WORD + size_of::<T>();
        self.seal(UndoRecord {
            kind: UndoKind::VecPush,
            restore: restore_vec_push::<T>,
            drop_payload: None,
            obj,
            off: off_u32(self.arena.len()),
            plen: 0,
            aux: 0,
            aux2: 0,
            bytes,
            prev: 0,
        });
        bytes
    }

    pub(crate) fn push_vec_pop<T: HeapValue>(&mut self, obj: u32, old: T) -> usize {
        let bytes = WORD + size_of::<T>();
        let off = self.arena.push_value(old);
        self.seal(UndoRecord {
            kind: UndoKind::VecPop,
            restore: restore_vec_pop::<T>,
            drop_payload: Some(drop_value::<T>),
            obj,
            off,
            plen: size_of::<T>() as u32,
            aux: 0,
            aux2: 0,
            bytes,
            prev: 0,
        });
        bytes
    }

    pub(crate) fn push_vec_truncate<T: HeapValue>(
        &mut self,
        obj: u32,
        tail: impl ExactSizeIterator<Item = T>,
    ) -> usize {
        let count = tail.len();
        let plen = count * size_of::<T>();
        let bytes = WORD + plen;
        let off = self.arena.push_values(tail);
        self.seal(UndoRecord {
            kind: UndoKind::VecTruncate,
            restore: restore_vec_truncate::<T>,
            drop_payload: Some(drop_slice::<T>),
            obj,
            off,
            plen: off_u32(plen),
            aux: count as u64,
            aux2: 0,
            bytes,
            prev: 0,
        });
        bytes
    }

    pub(crate) fn push_map_insert<K: MapKey, V: HeapValue>(
        &mut self,
        obj: u32,
        key: K,
        old: Option<V>,
    ) -> usize {
        let bytes = WORD + size_of::<K>() + size_of::<V>();
        let off = self.arena.push_value(key);
        let had_old = old.is_some();
        let mut plen = size_of::<K>();
        if let Some(v) = old {
            self.arena.push_value(v);
            plen += size_of::<V>();
        }
        self.seal(UndoRecord {
            kind: UndoKind::MapInsert,
            restore: restore_map_insert::<K, V>,
            drop_payload: Some(drop_map_insert::<K, V>),
            obj,
            off,
            plen: off_u32(plen),
            aux: u64::from(had_old),
            aux2: 0,
            bytes,
            prev: 0,
        });
        bytes
    }

    pub(crate) fn push_map_remove<K: MapKey, V: HeapValue>(
        &mut self,
        obj: u32,
        key: K,
        old: V,
    ) -> usize {
        let bytes = WORD + size_of::<K>() + size_of::<V>();
        let off = self.arena.push_value(key);
        self.arena.push_value(old);
        self.seal(UndoRecord {
            kind: UndoKind::MapRemove,
            restore: restore_map_remove::<K, V>,
            drop_payload: Some(drop_map_remove::<K, V>),
            obj,
            off,
            plen: off_u32(size_of::<K>() + size_of::<V>()),
            aux: 0,
            aux2: 0,
            bytes,
            prev: 0,
        });
        bytes
    }

    pub(crate) fn push_buf_write(
        &mut self,
        obj: u32,
        offset: usize,
        overwritten: &[u8],
        old_len: usize,
        write_len: usize,
    ) -> usize {
        let bytes = WORD + write_len;
        let pos = self.next_pos();
        let off = self.arena.push_bytes(overwritten);
        self.seal(UndoRecord {
            kind: UndoKind::BufWrite,
            restore: restore_buf_write,
            drop_payload: None,
            obj,
            off,
            plen: off_u32(overwritten.len()),
            aux: offset as u64,
            aux2: old_len as u64,
            bytes,
            prev: 0,
        });
        self.index
            .insert(obj, offset as u64, pos, off_u32(write_len));
        bytes
    }

    pub(crate) fn push_buf_truncate(&mut self, obj: u32, tail: &[u8]) -> usize {
        let bytes = WORD + tail.len();
        let off = self.arena.push_bytes(tail);
        self.seal(UndoRecord {
            kind: UndoKind::BufTruncate,
            restore: restore_buf_truncate,
            drop_payload: None,
            obj,
            off,
            plen: off_u32(tail.len()),
            aux: 0,
            aux2: 0,
            bytes,
            prev: 0,
        });
        bytes
    }

    // -- replay / discard ---------------------------------------------------

    /// Pops the newest record, applies its restore, and releases its arena
    /// payload. Returns the record's accounted bytes and the index of the
    /// object it restored (so the heap can dirty that object's epoch).
    ///
    /// # Panics
    ///
    /// Panics if the journal is empty.
    #[allow(unsafe_code)]
    pub(crate) fn pop_and_apply(&mut self, objs: &mut [Obj]) -> (usize, u32) {
        let rec = self.records.pop().expect("pop from empty journal");
        self.digest = rec.prev;
        // SAFETY: `restore` was minted for this record's payload type at
        // append time, and LIFO replay takes each payload exactly once
        // before the arena is truncated below.
        unsafe { (rec.restore)(objs, &rec, &self.arena) }
        self.arena.truncate(rec.off as usize);
        (rec.bytes, rec.obj)
    }

    /// Drops every record's payload without applying it and resets lengths
    /// (never capacity). Called from `discard_log` and `Drop`.
    #[allow(unsafe_code)]
    pub(crate) fn discard(&mut self) {
        for rec in self.records.drain(..) {
            if let Some(drop_payload) = rec.drop_payload {
                // SAFETY: discarding is the only other way a payload leaves
                // the arena; each record is drained exactly once.
                unsafe { drop_payload(&rec, &self.arena) }
            }
        }
        self.arena.reset();
        self.digest = FNV_OFFSET;
        self.invalidate_coalescing();
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        // Payloads still in the arena own heap data (Strings, Vecs…); drop
        // them properly rather than leaking when the heap itself dies.
        self.discard();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_index_basic_hit_and_barrier() {
        let mut idx = CoalesceIndex::new();
        assert!(!idx.lookup(1, 5, 8, 0));
        idx.insert(1, 5, 3, 8);
        assert!(idx.lookup(1, 5, 8, 0));
        assert!(idx.lookup(1, 5, 4, 0), "smaller coverage is still covered");
        assert!(!idx.lookup(1, 5, 9, 0), "larger coverage is not");
        assert!(
            !idx.lookup(1, 5, 8, 4),
            "record before the barrier does not count"
        );
        assert!(!idx.lookup(2, 5, 8, 0));
        assert!(!idx.lookup(1, 6, 8, 0));
    }

    #[test]
    fn coalesce_index_invalidate_forgets_everything() {
        let mut idx = CoalesceIndex::new();
        for slot in 0..100u64 {
            idx.insert(7, slot, slot as u32, 8);
        }
        assert!(idx.lookup(7, 99, 8, 0));
        idx.invalidate_all();
        for slot in 0..100u64 {
            assert!(!idx.lookup(7, slot, 8, 0));
        }
    }

    #[test]
    fn coalesce_index_grows_past_initial_capacity() {
        let mut idx = CoalesceIndex::new();
        let n = (INDEX_INITIAL * 4) as u64;
        for slot in 0..n {
            idx.insert(1, slot, slot as u32, 8);
        }
        let hits = (0..n).filter(|&s| idx.lookup(1, s, 8, 0)).count();
        // Growth re-homes entries; a tiny fraction may be dropped on probe
        // overflow, but the vast majority must survive.
        assert!(
            hits as f64 > n as f64 * 0.95,
            "only {hits}/{n} entries survived growth"
        );
    }

    #[test]
    fn arena_push_take_roundtrip_for_droppable_values() {
        let mut arena = Arena::new();
        let off_a = arena.push_value(String::from("hello"));
        let off_b = arena.push_value(vec![1u32, 2, 3]);
        #[allow(unsafe_code)]
        // SAFETY: offsets and types match the pushes above, taken once each.
        let (a, b) = unsafe { (arena.take::<String>(off_a), arena.take::<Vec<u32>>(off_b)) };
        assert_eq!(a, "hello");
        assert_eq!(b, vec![1, 2, 3]);
        arena.reset();
        assert_eq!(arena.len(), 0);
    }

    /// A journal of mixed records whose buf payload lengths cross the
    /// fold's 8-byte word boundary in both directions.
    fn random_journal(r: &mut osiris_rng::Rng) -> Journal {
        let mut j = Journal::new();
        for i in 0..12u32 {
            match r.below(3) {
                0 => j.push_cell::<u64>(i, r.next_u64()),
                1 => j.push_vec_set::<u16>(i, r.below_usize(99), r.next_u64() as u16),
                _ => {
                    let len = r.below_usize(18);
                    let old = r.bytes(len);
                    j.push_buf_write(i, r.below_usize(64), &old, 64, len)
                }
            };
        }
        j
    }

    #[test]
    fn every_single_bit_flip_in_header_or_payload_is_detected() {
        type Flip = fn(&mut UndoRecord, u32);
        let header: [(&str, u32, Flip); 5] = [
            ("obj", 32, |rec, b| rec.obj ^= 1 << b),
            ("off", 32, |rec, b| rec.off ^= 1 << b),
            ("plen", 32, |rec, b| rec.plen ^= 1 << b),
            ("aux", 64, |rec, b| rec.aux ^= 1 << b),
            ("aux2", 64, |rec, b| rec.aux2 ^= 1 << b),
        ];
        for case in 0..8u64 {
            let mut j = random_journal(&mut osiris_rng::Rng::new(0xF01D_0001 ^ case));
            let digest = j.digest();
            assert!(j.verify().is_ok(), "case {case}");
            // `verify` refolds every record and compares with the running
            // digest: an error is a recomputed digest that moved (or a
            // payload range that left the arena).
            let must_fail = |j: &Journal, what: &str| {
                assert!(j.verify().is_err(), "case {case}: {what} passed verify");
            };
            for index in 0..j.len() {
                for (name, bits, flip) in header {
                    for bit in 0..bits {
                        flip(&mut j.records[index], bit);
                        must_fail(&j, &format!("record {index} {name} bit {bit}"));
                        flip(&mut j.records[index], bit);
                    }
                }
            }
            for byte in 0..j.arena_len() {
                for bit in 0..8 {
                    j.corrupt_arena_bit(byte, bit);
                    must_fail(&j, &format!("arena byte {byte} bit {bit}"));
                    j.corrupt_arena_bit(byte, bit);
                }
            }
            assert!(j.verify().is_ok(), "case {case}");
            assert_eq!(j.digest(), digest, "case {case}");
        }
    }

    #[test]
    fn trailing_zero_bytes_change_the_fold() {
        let mut r = osiris_rng::Rng::new(0xF01D_0002);
        for len in 0..=17 {
            for mut bytes in [vec![0u8; len], r.bytes(len)] {
                let short = fold_bytes(FNV_OFFSET, &bytes);
                bytes.push(0);
                assert_ne!(short, fold_bytes(FNV_OFFSET, &bytes), "len {len}");
            }
        }
        assert_ne!(fold_bytes(7, &[1]), fold_bytes(7, &[1, 0]));
    }

    #[test]
    fn pop_restores_the_prior_digest() {
        let mut heap = crate::Heap::new("fold");
        let cell = heap.alloc_cell("cell", 0u64);
        let buf = heap.alloc_buf("buf");
        heap.set_logging(true);
        assert_eq!(heap.journal_digest(), FNV_OFFSET);
        let mut r = osiris_rng::Rng::new(0xF01D_0003);
        let mut trail = Vec::new();
        for i in 0..40u64 {
            trail.push((heap.mark(), heap.journal_digest()));
            if i % 2 == 0 {
                cell.set(&mut heap, r.next_u64());
            } else {
                let len = r.below_usize(18);
                buf.write_at(&mut heap, r.below_usize(32), &r.bytes(len));
            }
        }
        while let Some((mark, digest)) = trail.pop() {
            heap.rollback_to(mark);
            assert_eq!(heap.journal_digest(), digest);
            assert!(heap.verify_journal().is_ok());
        }
    }

    #[test]
    fn arena_tracks_reuse_only_within_capacity() {
        let mut arena = Arena::new();
        arena.push_bytes(&[0u8; 1024]);
        let cold = arena.reuse_bytes();
        arena.reset();
        arena.push_bytes(&[0u8; 1024]);
        assert_eq!(
            arena.reuse_bytes(),
            cold + 1024,
            "warm append counts as reuse"
        );
    }
}
