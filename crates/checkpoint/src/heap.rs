//! The checkpointed heap: object storage plus the undo journal.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::mem::size_of;
use std::sync::atomic::{AtomicU32, Ordering};

use osiris_trace::{fnv1a, Stage, TraceEvent};

use crate::cas::FnvWriter;
use crate::journal::{self, fold_bytes, fold_word, IntegrityError, Journal, FNV_OFFSET};
use crate::map::MapKey;
use crate::stats::HeapStats;

/// Marker trait for values that may live in a [`Heap`].
///
/// Blanket-implemented for every `Clone + Debug + Send + 'static` type, so in
/// practice any ordinary data type qualifies. The byte accounting used for
/// memory-overhead experiments approximates a value's size with
/// `size_of::<T>()`; containers refine this where they can (e.g. [`crate::PBuf`]
/// counts its actual payload).
pub trait HeapValue: Clone + fmt::Debug + Send + Sync + 'static {}
impl<T: Clone + fmt::Debug + Send + Sync + 'static> HeapValue for T {}

/// Identifier of an object within a heap, paired with the owning heap's id.
///
/// Typed handles ([`crate::PCell`] etc.) wrap an `ObjId`. Handles are plain
/// data: they survive component restart (the Recovery Server re-binds the
/// pristine server struct, whose handles were allocated deterministically at
/// init time, to the rolled-back heap).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjId {
    pub(crate) index: u32,
    pub(crate) heap_id: u32,
}

impl fmt::Debug for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjId({}@h{})", self.index, self.heap_id)
    }
}

/// A checkpoint position in the undo log.
///
/// Obtained from [`Heap::mark`] at the top of a request-processing loop;
/// passed to [`Heap::rollback_to`] to restore the state that existed when the
/// mark was taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mark {
    pub(crate) log_len: usize,
    pub(crate) heap_id: u32,
}

/// Internal object slot: a named, type-erased, clonable value.
pub(crate) struct Obj {
    pub(crate) name: &'static str,
    pub(crate) data: Box<dyn AnyObj>,
    /// Dirty epoch: the heap-global write counter value of the last mutation
    /// (or allocation) of this object. Snapshot manifests record it, so a
    /// later [`Heap::clone_image`] re-chunks — and [`Heap::restore_image`]
    /// rewrites — only objects whose epoch diverges from the manifest.
    pub(crate) epoch: u64,
}

/// Object trait: `Any` for downcasting (a `&dyn AnyObj` upcasts to
/// `&dyn Any`) plus deep-clone support so that heap images (server clones)
/// can be taken.
pub(crate) trait AnyObj: Any + Send + Sync + fmt::Debug {
    fn clone_obj(&self) -> Box<dyn AnyObj>;
    /// Approximate resident size in bytes, for memory-overhead accounting.
    fn approx_bytes(&self) -> usize;
    /// Word-fold digest over the payload's type identity and content
    /// (allocation-free). Keys opaque chunks in the content-addressed store
    /// and feeds [`Heap::state_digest`].
    fn content_digest(&self) -> u64;
    /// The byte-backed holder, if this object's payload is `Vec<u8>`
    /// (every [`crate::PBuf`] and `PVec<u8>`). Byte-backed objects are the
    /// ones split into fixed-size chunks at snapshot time.
    fn byte_holder(&self) -> Option<&Holder<Vec<u8>>>;
    /// Mutable access to the byte-backed holder, for in-place chunk
    /// write-back during restore (reuses existing capacity).
    fn byte_holder_mut(&mut self) -> Option<&mut Holder<Vec<u8>>>;
}

/// Wrapper implementing [`AnyObj`] for concrete container payloads.
pub(crate) struct Holder<T: HeapValue> {
    pub(crate) value: T,
    /// Containers with dynamic payloads (vec/map/buf) keep this updated;
    /// plain cells leave it at `size_of::<T>()`.
    pub(crate) extra_bytes: usize,
}

impl<T: HeapValue> fmt::Debug for Holder<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.value, f)
    }
}

impl<T: HeapValue> AnyObj for Holder<T> {
    fn clone_obj(&self) -> Box<dyn AnyObj> {
        Box::new(Holder {
            value: self.value.clone(),
            extra_bytes: self.extra_bytes,
        })
    }
    fn approx_bytes(&self) -> usize {
        size_of::<T>() + self.extra_bytes
    }
    fn content_digest(&self) -> u64 {
        let d = fold_bytes(FNV_OFFSET, std::any::type_name::<T>().as_bytes());
        let d = fold_word(d, size_of::<T>() as u64);
        // Byte and plain-integer vectors fold their content directly;
        // everything else streams its `Debug` rendering through the sink
        // (no allocation either way). Folding the type name in first keeps
        // two types with the same bytes or `Debug` text from colliding.
        let any = self as &dyn Any;
        if let Some(h) = any.downcast_ref::<Holder<Vec<u8>>>() {
            fold_bytes(d, &h.value)
        } else if let Some(h) = any.downcast_ref::<Holder<Vec<u32>>>() {
            fold_ints(d, &h.value)
        } else if let Some(h) = any.downcast_ref::<Holder<Vec<u64>>>() {
            fold_ints(d, &h.value)
        } else {
            let mut w = FnvWriter(d);
            let _ = write!(w, "{:?}", self.value);
            w.0
        }
    }
    fn byte_holder(&self) -> Option<&Holder<Vec<u8>>> {
        (self as &dyn Any).downcast_ref::<Holder<Vec<u8>>>()
    }
    fn byte_holder_mut(&mut self) -> Option<&mut Holder<Vec<u8>>> {
        (self as &mut dyn Any).downcast_mut::<Holder<Vec<u8>>>()
    }
}

/// Folds an integer slice in four independent lanes, element `i` into lane
/// `i % 4` and the length into lane 0's seed, then folds the lanes in order
/// (one dependent multiply chain per lane, so the CPU pipelines them, as
/// `cas::chunk_digest` does for bytes). One changed element changes exactly
/// one lane, and [`fold_word`] is a bijection either way, so it still
/// changes the digest.
fn fold_ints<I: Copy + Into<u64>>(d: u64, items: &[I]) -> u64 {
    let mut lanes = [fold_word(d, items.len() as u64), d ^ 1, d ^ 2, d ^ 3];
    let quads = items.chunks_exact(4);
    for quad in quads.clone().chain([quads.remainder()]) {
        for (lane, &x) in lanes.iter_mut().zip(quad) {
            *lane = fold_word(*lane, x.into());
        }
    }
    lanes.into_iter().fold(d, fold_word)
}

/// Common bookkeeping for a logged append; a free function over the fields
/// it touches, so [`Heap::update_map`] can call it while it holds a value.
fn account_append(stats: &mut HeapStats, journal: &Journal, stage: &mut Stage, bytes: usize) {
    stats.undo_appends += 1;
    stats.undo_bytes_current += bytes;
    stats.undo_bytes_appended += bytes as u64;
    stats.undo_bytes_peak = stats.undo_bytes_peak.max(stats.undo_bytes_current);
    stats.arena_reuse_bytes = journal.arena_reuse_bytes();
    stage.push(TraceEvent::UndoAppend {
        bytes: bytes as u32,
    });
}

static NEXT_HEAP_ID: AtomicU32 = AtomicU32::new(1);

/// A component-local checkpointed heap.
///
/// All recoverable state of an OSIRIS server lives in exactly one `Heap`.
/// Mutations performed through the persistent containers append undo records
/// while logging is enabled; [`Heap::rollback_to`] restores a prior [`Mark`].
///
/// A heap is single-owner and accessed only from the kernel's event loop —
/// matching the paper's model where each server is a single (cooperatively
/// threaded) process.
pub struct Heap {
    pub(crate) objs: Vec<Obj>,
    /// Heap-global monotonic write counter backing per-object dirty epochs.
    /// Bumped by every mutation entry point (and rollback write-back); never
    /// reset, so an epoch recorded in any snapshot is always comparable.
    write_epoch: u64,
    /// Fork support: `write_epoch` as of the last [`Heap::adopt_image`] (or
    /// `None` before the first adoption). Every live epoch at or below this
    /// floor is *parent-line* — it identifies the same write (and therefore
    /// the same content) as the equal epoch in the donor heap's history —
    /// while epochs above it were minted by this heap after the adoption and
    /// must never be trusted to match a donor manifest numerically.
    pub(crate) adopt_floor: Option<u64>,
    journal: Journal,
    logging: bool,
    force_logging: bool,
    id: u32,
    name: &'static str,
    stats: HeapStats,
    /// Journal activity recorded for the flight recorder, which the kernel
    /// owns: it appends the stage to its ring after every call into the
    /// heap. Off (nothing staged) unless the kernel installs one.
    stage: Stage,
}

impl fmt::Debug for Heap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Heap")
            .field("name", &self.name)
            .field("objects", &self.objs.len())
            .field("log_len", &self.log_len())
            .field("logging", &self.logging)
            .finish()
    }
}

impl Heap {
    /// Creates an empty heap for the component called `name`.
    pub fn new(name: &'static str) -> Self {
        Heap {
            objs: Vec::new(),
            write_epoch: 0,
            adopt_floor: None,
            journal: Journal::new(),
            logging: false,
            force_logging: false,
            id: NEXT_HEAP_ID.fetch_add(1, Ordering::Relaxed),
            name,
            stats: HeapStats::default(),
            stage: Stage::default(),
        }
    }

    /// The trace events this heap's component emitted since the kernel
    /// last appended them: journal activity (appends, coalesced writes,
    /// marks, rollbacks, discards), and what the window and the component
    /// push through here. With tracing off a push is one branch.
    pub fn trace_stage(&mut self) -> &mut Stage {
        &mut self.stage
    }

    /// Number of staged trace events (zero whenever the kernel emits).
    pub fn staged(&self) -> usize {
        self.stage.len()
    }

    /// The component name this heap belongs to.
    pub fn name(&self) -> &'static str {
        self.name
    }

    pub(crate) fn id(&self) -> u32 {
        self.id
    }

    /// Allocates a new object slot holding `value` and returns its id.
    pub(crate) fn alloc_obj<T: HeapValue>(&mut self, name: &'static str, value: T) -> ObjId {
        let index = u32::try_from(self.objs.len()).expect("heap object count overflow");
        self.write_epoch += 1;
        self.objs.push(Obj {
            name,
            data: Box::new(Holder {
                value,
                extra_bytes: 0,
            }),
            epoch: self.write_epoch,
        });
        ObjId {
            index,
            heap_id: self.id,
        }
    }

    /// Marks object `index` dirty: bumps the heap-global write counter and
    /// stamps it as the object's epoch. Called on every mutation entry point
    /// regardless of logging (snapshots must see all writes, not just
    /// in-window ones). Two field updates, no allocation.
    #[inline]
    fn touch(&mut self, index: u32) {
        self.write_epoch += 1;
        self.objs[index as usize].epoch = self.write_epoch;
    }

    /// Dirty epoch of object `index` (manifest comparisons).
    pub(crate) fn epoch_of(&self, index: usize) -> u64 {
        self.objs[index].epoch
    }

    /// Restore support: stamps object `index` with a snapshot-recorded
    /// epoch. Sound because `write_epoch` is monotonic and at least as large
    /// as any epoch ever handed out by this heap.
    pub(crate) fn set_epoch(&mut self, index: usize, epoch: u64) {
        debug_assert!(epoch <= self.write_epoch);
        self.objs[index].epoch = epoch;
    }

    /// Current value of the heap-global write counter. Snapshots record it
    /// so [`Heap::adopt_image`] on a fork can raise its own counter to the
    /// donor's before stamping donor epochs onto live objects.
    pub fn write_epoch(&self) -> u64 {
        self.write_epoch
    }

    /// Raises the write counter to at least `to` (monotonic; never lowers).
    pub(crate) fn raise_write_epoch(&mut self, to: u64) {
        if to > self.write_epoch {
            self.write_epoch = to;
        }
    }

    /// Fork support: journal arena warmth — cumulative reuse-byte counter
    /// and current arena capacity. Captured by snapshots and written back by
    /// [`Heap::restore_journal_warmth`] so a forked heap's subsequent undo
    /// accounting (the `arena_reuse_bytes` statistic mirrored into metrics)
    /// is byte-identical to the donor's.
    pub fn journal_warmth(&self) -> (u64, usize) {
        self.journal.warmth()
    }

    /// Fork support: restores the journal arena's reuse counter and grows
    /// its capacity to at least the donor's (capacity never shrinks — a
    /// fresh-boot fork's arena is never larger than its donor's, so the
    /// capacities match exactly on the differential path).
    pub fn restore_journal_warmth(&mut self, reused: u64, capacity: usize) {
        self.journal.restore_warmth(reused, capacity);
    }

    /// Fork support: overwrites the accumulated statistics wholesale (the
    /// donor heap's counters at snapshot time).
    pub fn set_stats(&mut self, stats: HeapStats) {
        self.stats = stats;
    }

    /// FNV-1a digest over the full heap state: every object's name and
    /// content digest, in slot order. Two heaps-states with equal digests
    /// hold equal values (modulo FNV collisions).
    pub fn state_digest(&self) -> u64 {
        let mut d = fnv1a(FNV_OFFSET, &u64::from(self.id).to_le_bytes());
        for o in &self.objs {
            d = fnv1a(d, o.name.as_bytes());
            d = fnv1a(d, &o.data.content_digest().to_le_bytes());
        }
        d
    }

    /// The slot index of `id`.
    ///
    /// # Panics
    ///
    /// Panics if the handle belongs to a different heap — a programming
    /// error in RCB code.
    fn index_of(&self, id: ObjId) -> u32 {
        assert_eq!(
            id.heap_id, self.id,
            "handle used with foreign heap `{}`",
            self.name
        );
        id.index
    }

    /// Immutable access to the payload of `id`.
    ///
    /// # Panics
    ///
    /// Panics if the handle belongs to a different heap or the stored type
    /// does not match — both are programming errors in RCB code.
    pub(crate) fn holder<T: HeapValue>(&self, id: ObjId) -> &Holder<T> {
        journal::holder(&self.objs, self.index_of(id))
    }

    /// Mutable access to the payload of `id`. Does **not** touch statistics
    /// or the journal: the caller pairs it with a `note_*` gate and, when
    /// the gate says a record is owed, a `log_*_old` call.
    pub(crate) fn holder_mut<T: HeapValue>(&mut self, id: ObjId) -> &mut Holder<T> {
        let index = self.index_of(id);
        journal::holder_mut(&mut self.objs, index)
    }

    // -- logging entry points, one per container mutation shape -------------
    //
    // One ownership rule: the container *moves* the value a store displaces
    // into the journal (`log_*_old` take it by value) and clones only where
    // the old value must also stay behind — an in-place `update`, or a
    // `PMap::remove`/`PVec::pop` that returns what it took out. A
    // `PMap::insert` or `delete` returns no value and so clones none (a
    // logged `insert` clones its key).
    // Each store first calls a `note_*` gate, which counts the logical write
    // and dirties the object whether or not logging is on, and says whether
    // a record is owed at all: with logging off, or on a coalesced store,
    // nothing is cloned and the allocator is never touched.

    /// Common bookkeeping for a logged append.
    fn account_append(&mut self, bytes: usize) {
        account_append(&mut self.stats, &self.journal, &mut self.stage, bytes);
    }

    /// Common bookkeeping for a coalesced (elided) logged write.
    fn account_coalesced(&mut self) {
        self.stats.coalesced_writes += 1;
        self.stage.push(TraceEvent::UndoCoalesce);
    }

    /// Counts one logical write to `id` and dirties it. Returns whether the
    /// caller owes an undo record (logging is on).
    #[inline]
    pub(crate) fn note_write(&mut self, id: ObjId) -> bool {
        self.stats.writes += 1;
        self.touch(id.index);
        self.logging
    }

    /// [`Heap::note_write`] for a whole-cell store, which coalesces: no
    /// record is owed when one since the last mark already covers the cell.
    pub(crate) fn note_cell_write<T: HeapValue>(&mut self, id: ObjId) -> bool {
        if !self.note_write(id) {
            return false;
        }
        if self.journal.cell_covered::<T>(id.index) {
            self.account_coalesced();
            return false;
        }
        true
    }

    /// [`Heap::note_write`] for a store to vector slot `index` (coalesces
    /// like a cell store).
    pub(crate) fn note_vec_set_write<T: HeapValue>(&mut self, id: ObjId, index: usize) -> bool {
        if !self.note_write(id) {
            return false;
        }
        if self.journal.vec_covered::<T>(id.index, index) {
            self.account_coalesced();
            return false;
        }
        true
    }

    /// Appends the undo record of a cell store that displaced `old`.
    pub(crate) fn log_cell_old<T: HeapValue>(&mut self, id: ObjId, old: T) {
        let bytes = self.journal.push_cell(id.index, old);
        self.account_append(bytes);
    }

    /// Appends the undo record of a store that displaced `old` from vector
    /// slot `index`.
    pub(crate) fn log_vec_set_old<T: HeapValue>(&mut self, id: ObjId, index: usize, old: T) {
        let bytes = self.journal.push_vec_set(id.index, index, old);
        self.account_append(bytes);
    }

    pub(crate) fn log_vec_push<T: HeapValue>(&mut self, id: ObjId) {
        if !self.note_write(id) {
            return;
        }
        let bytes = self.journal.push_vec_push::<T>(id.index);
        self.account_append(bytes);
    }

    /// Appends the undo record of a pop that removed `old`.
    pub(crate) fn log_vec_pop_old<T: HeapValue>(&mut self, id: ObjId, old: T) {
        let bytes = self.journal.push_vec_pop(id.index, old);
        self.account_append(bytes);
    }

    /// Shortens vector `id` to `new_len` (the caller checked it is shorter),
    /// moving the removed tail into the journal when logging.
    pub(crate) fn truncate_vec<T: HeapValue>(&mut self, id: ObjId, new_len: usize) {
        let logging = self.note_write(id);
        let index = self.index_of(id);
        let h = journal::holder_mut::<Vec<T>>(&mut self.objs, index);
        if !logging {
            h.value.truncate(new_len);
            h.extra_bytes = new_len * size_of::<T>();
            return;
        }
        let bytes = self
            .journal
            .push_vec_truncate(id.index, h.value.drain(new_len..));
        h.extra_bytes = new_len * size_of::<T>();
        self.account_append(bytes);
    }

    /// Appends the undo record of a map store under `key` that displaced
    /// `old` (`None`: the key was absent).
    pub(crate) fn log_map_insert_old<K: MapKey, V: HeapValue>(
        &mut self,
        id: ObjId,
        key: K,
        old: Option<V>,
    ) {
        let bytes = self.journal.push_map_insert(id.index, key, old);
        self.account_append(bytes);
    }

    /// An in-place update of the value under `key` in map `id`, in one
    /// lookup: [`Heap::note_write`], then the undo record of a copy of the
    /// old value when one is owed, then `f`, so a panicking `f` leaves the
    /// map dirty and restorable. Returns `None`, touching nothing, if the
    /// key is absent.
    pub(crate) fn update_map<K: MapKey, V: HeapValue, R>(
        &mut self,
        id: ObjId,
        key: &K,
        f: impl FnOnce(&mut V) -> R,
    ) -> Option<R> {
        let index = self.index_of(id);
        let Obj { data, epoch, .. } = &mut self.objs[index as usize];
        let any: &mut dyn Any = &mut **data;
        let map: &mut Holder<BTreeMap<K, V>> =
            any.downcast_mut().expect("heap object type mismatch");
        let cur = map.value.get_mut(key)?;
        self.stats.writes += 1;
        self.write_epoch += 1;
        *epoch = self.write_epoch;
        if self.logging {
            let old = Some(cur.clone());
            let bytes = self.journal.push_map_insert(index, key.clone(), old);
            account_append(&mut self.stats, &self.journal, &mut self.stage, bytes);
        }
        Some(f(cur))
    }

    /// Appends the undo record of a map removal that took out `key → old`.
    pub(crate) fn log_map_remove_old<K: MapKey, V: HeapValue>(
        &mut self,
        id: ObjId,
        key: K,
        old: V,
    ) {
        let bytes = self.journal.push_map_remove(id.index, key, old);
        self.account_append(bytes);
    }

    pub(crate) fn log_buf_write(&mut self, id: ObjId, offset: usize, write_len: usize) {
        self.stats.writes += 1;
        self.touch(id.index);
        if !self.logging {
            return;
        }
        // A write is only coalescible if it is length-neutral: a write past
        // the current end grows the buffer, and that growth is not captured
        // by the covering record (whose undo truncates to *its* old length,
        // not to the length right before this write).
        let cur_len = self.holder::<Vec<u8>>(id).value.len();
        if offset + write_len <= cur_len && self.journal.buf_covered(id.index, offset, write_len) {
            self.account_coalesced();
            return;
        }
        // Push the overwritten range straight from the object into the
        // arena — no intermediate `Vec` allocation.
        let old = &journal::holder::<Vec<u8>>(&self.objs, id.index).value;
        let ow_end = (offset + write_len).min(old.len());
        let overwritten: &[u8] = if offset < old.len() {
            &old[offset..ow_end]
        } else {
            &[]
        };
        let bytes =
            self.journal
                .push_buf_write(id.index, offset, overwritten, old.len(), write_len);
        self.account_append(bytes);
    }

    pub(crate) fn log_buf_truncate(&mut self, id: ObjId, new_len: usize) {
        self.stats.writes += 1;
        self.touch(id.index);
        if !self.logging {
            return;
        }
        let tail = &journal::holder::<Vec<u8>>(&self.objs, id.index).value[new_len..];
        let bytes = self.journal.push_buf_truncate(id.index, tail);
        self.account_append(bytes);
    }

    // -- gating -------------------------------------------------------------

    /// Whether write logging is currently enabled.
    pub fn logging(&self) -> bool {
        self.logging
    }

    /// Requests write logging on or off; returns the *effective* state.
    ///
    /// While [`Heap::set_force_logging`] is in effect a request to disable
    /// logging is overridden: logging stays on, the override is counted in
    /// [`HeapStats::gating_overrides`], and the return value reports `true`
    /// so callers can see their request did not take effect (previously the
    /// override was silent).
    ///
    /// The recovery-window machinery turns logging on when a window opens and
    /// off when it closes; this is the analog of the paper's function-cloning
    /// optimization that removes instrumentation overhead outside windows.
    pub fn set_logging(&mut self, on: bool) -> bool {
        let effective = on || self.force_logging;
        if !on && self.force_logging {
            self.stats.gating_overrides += 1;
        }
        if effective && !self.logging {
            // A fresh logging span: locations covered in a previous span must
            // not be coalesced away in this one.
            self.journal.invalidate_coalescing();
        }
        self.logging = effective;
        effective
    }

    /// Forces write logging to stay enabled even when a recovery window
    /// closes. This models the paper's *unoptimized* configuration (Table V,
    /// "Without opt."): the store instrumentation runs unconditionally, so
    /// the undo log is maintained outside recovery windows too.
    pub fn set_force_logging(&mut self, force: bool) {
        self.force_logging = force;
        if force && !self.logging {
            self.journal.invalidate_coalescing();
            self.logging = true;
        }
    }

    /// Returns a checkpoint mark at the current undo-log position.
    pub fn mark(&mut self) -> Mark {
        self.journal.note_mark();
        self.stage.push(TraceEvent::CheckpointMark {
            log_len: self.log_len() as u32,
        });
        Mark {
            log_len: self.log_len(),
            heap_id: self.id,
        }
    }

    /// Number of undo records currently held.
    pub fn log_len(&self) -> usize {
        self.journal.len()
    }

    /// Bytes currently accounted to the undo log.
    pub fn log_bytes(&self) -> usize {
        self.stats.undo_bytes_current
    }

    /// Bytes currently held by the typed journal's payload arena.
    pub fn arena_len(&self) -> usize {
        self.journal.arena_len()
    }

    /// The typed journal's running integrity digest (the FNV-1a offset basis
    /// when the log is empty). Maintained incrementally at append/pop time.
    pub fn journal_digest(&self) -> u64 {
        self.journal.digest()
    }

    /// Verifies the typed undo journal's integrity chain by recomputing the
    /// digest over every record and payload byte from scratch.
    ///
    /// Detects any single bit flip in a record header or payload and any
    /// torn tail. The recovery path calls this before trusting a rollback;
    /// a corrupted journal degrades to a fresh restart instead of silently
    /// replaying damaged state.
    pub fn verify_journal(&self) -> Result<(), IntegrityError> {
        self.journal.verify()
    }

    /// Corruption-injection test support: flips one bit of an undo-journal
    /// arena payload byte. Flip the same bit again to restore the payload
    /// before the log is replayed or discarded.
    pub fn corrupt_journal_arena_bit(&mut self, byte: usize, bit: u8) {
        self.journal.corrupt_arena_bit(byte, bit);
    }

    /// Corruption-injection test support: flips one bit of undo record
    /// `index`'s `aux` scalar. Reversible.
    pub fn corrupt_journal_record_bit(&mut self, index: usize, bit: u32) {
        self.journal.corrupt_record_bit(index, bit);
    }

    /// Corruption-injection test support: tears the newest `n` records off
    /// the journal without digest bookkeeping, simulating a torn write. The
    /// torn payloads are leaked; use only in tests.
    pub fn tear_journal_tail(&mut self, n: usize) {
        self.journal.tear_tail(n);
    }

    /// Rolls the heap back to `mark`, undoing every logged mutation made
    /// since, in reverse order. Clears the replayed portion of the log.
    ///
    /// # Panics
    ///
    /// Panics if `mark` belongs to another heap or lies beyond the current
    /// log (e.g. the log was truncated after the mark was taken).
    pub fn rollback_to(&mut self, mark: Mark) {
        assert_eq!(
            mark.heap_id, self.id,
            "mark used with foreign heap `{}`",
            self.name
        );
        assert!(
            mark.log_len <= self.log_len(),
            "mark beyond undo log (log was truncated?): {} > {}",
            mark.log_len,
            self.log_len()
        );
        // The log is about to be consumed: sample its size *now* so the
        // per-window peak is taken at window close, not at report time.
        self.sample_window_close();
        let records = (self.log_len() - mark.log_len) as u32;
        let bytes_before = self.stats.undo_bytes_current;
        while self.log_len() > mark.log_len {
            let (bytes, obj) = self.journal.pop_and_apply(&mut self.objs);
            // A rollback write-back is a mutation like any other: the
            // restored object must look dirty to snapshots taken between the
            // original write and this rollback, or a COW restore would skip
            // it as clean and resurrect the rolled-back value.
            self.touch(obj);
            self.stats.undo_bytes_current = self.stats.undo_bytes_current.saturating_sub(bytes);
        }
        self.stats.rollbacks += 1;
        // Surviving index entries may reference popped positions; forget them.
        self.journal.invalidate_coalescing();
        if records > 0 {
            self.stage.push(TraceEvent::Rollback {
                records,
                bytes: bytes_before.saturating_sub(self.stats.undo_bytes_current) as u32,
            });
        }
    }

    /// Records the current undo-log size as a window-close sample: the
    /// high-water mark of *per-window* log size (`undo_bytes_window_peak`).
    /// Every path that retires a log — commit discard, rollback, image
    /// restore — passes through here, so Table VI's peak is sampled when
    /// windows close rather than reconstructed at report time.
    fn sample_window_close(&mut self) {
        let bytes = self.stats.undo_bytes_current;
        if self.log_len() == 0 {
            return;
        }
        if bytes > self.stats.undo_bytes_window_peak {
            self.stats.undo_bytes_window_peak = bytes;
        }
    }

    /// Discards the entire undo log without applying it.
    ///
    /// Called when a recovery window closes: past that point the checkpoint
    /// can never be restored, so the log is dead weight. Capacity (records,
    /// arena, index) is retained so the next window logs allocation-free.
    pub fn discard_log(&mut self) {
        self.sample_window_close();
        let records = self.log_len() as u32;
        if records > 0 {
            self.stage.push(TraceEvent::Discard {
                records,
                bytes: self.stats.undo_bytes_current as u32,
            });
        }
        self.journal.discard();
        self.stats.undo_bytes_current = 0;
    }

    /// Approximate resident size of all objects, in bytes.
    pub fn resident_bytes(&self) -> usize {
        self.objs.iter().map(|o| o.data.approx_bytes()).sum()
    }

    /// Number of allocated objects.
    pub fn object_count(&self) -> usize {
        self.objs.len()
    }

    /// Statistics accumulated since construction (or the last reset).
    pub fn stats(&self) -> &HeapStats {
        &self.stats
    }

    /// Resets accumulated statistics (not the state or the log).
    pub fn reset_stats(&mut self) {
        self.stats = HeapStats::default();
        self.journal.reset_reuse();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_and_rollback_roundtrip() {
        let mut h = Heap::new("t");
        let c = h.alloc_cell("x", 1u32);
        h.set_logging(true);
        let m = h.mark();
        c.set(&mut h, 2);
        c.set(&mut h, 3);
        h.rollback_to(m);
        assert_eq!(c.get(&h), 1);
        assert_eq!(h.log_len(), 0);
    }

    #[test]
    fn logging_disabled_skips_undo() {
        let mut h = Heap::new("t");
        let c = h.alloc_cell("x", 1u32);
        h.set_logging(false);
        c.set(&mut h, 9);
        assert_eq!(h.log_len(), 0);
        assert_eq!(h.stats().writes, 1);
        assert_eq!(h.stats().undo_appends, 0);
    }

    #[test]
    fn discard_log_prevents_rollback_and_clears_bytes() {
        let mut h = Heap::new("t");
        let c = h.alloc_cell("x", 1u32);
        h.set_logging(true);
        c.set(&mut h, 2);
        assert!(h.log_bytes() > 0);
        h.discard_log();
        assert_eq!(h.log_bytes(), 0);
        assert_eq!(c.get(&h), 2);
    }

    #[test]
    fn nested_marks_roll_back_in_order() {
        let mut h = Heap::new("t");
        let c = h.alloc_cell("x", 0u32);
        h.set_logging(true);
        let m0 = h.mark();
        c.set(&mut h, 1);
        let m1 = h.mark();
        c.set(&mut h, 2);
        h.rollback_to(m1);
        assert_eq!(c.get(&h), 1);
        h.rollback_to(m0);
        assert_eq!(c.get(&h), 0);
    }

    #[test]
    #[should_panic(expected = "foreign heap")]
    fn foreign_handle_is_rejected() {
        let mut a = Heap::new("a");
        let mut b = Heap::new("b");
        let c = a.alloc_cell("x", 1u32);
        let _ = c.get(&b);
        let _ = &mut b;
    }

    #[test]
    #[should_panic(expected = "beyond undo log")]
    fn stale_mark_is_rejected() {
        let mut h = Heap::new("t");
        let c = h.alloc_cell("x", 1u32);
        h.set_logging(true);
        c.set(&mut h, 2);
        let m = h.mark();
        h.discard_log();
        h.rollback_to(m);
    }

    #[test]
    fn peak_undo_bytes_tracks_high_water_mark() {
        let mut h = Heap::new("t");
        let c = h.alloc_cell("x", 0u64);
        h.set_logging(true);
        let m = h.mark();
        for i in 0..10 {
            c.set(&mut h, i);
        }
        let peak = h.stats().undo_bytes_peak;
        assert!(peak > 0);
        h.rollback_to(m);
        assert_eq!(h.stats().undo_bytes_peak, peak);
        assert_eq!(h.log_bytes(), 0);
    }

    #[test]
    fn repeated_cell_stores_coalesce_to_one_record() {
        let mut h = Heap::new("t");
        let c = h.alloc_cell("x", 0u64);
        h.set_logging(true);
        let m = h.mark();
        for i in 1..=100u64 {
            c.set(&mut h, i);
        }
        assert_eq!(h.log_len(), 1, "only the first old value is kept");
        assert_eq!(h.stats().undo_appends, 1);
        assert_eq!(h.stats().coalesced_writes, 99);
        assert_eq!(h.stats().writes, 100);
        h.rollback_to(m);
        assert_eq!(c.get(&h), 0, "rollback still restores the mark-time value");
    }

    #[test]
    fn coalescing_respects_nested_marks() {
        let mut h = Heap::new("t");
        let c = h.alloc_cell("x", 0u64);
        h.set_logging(true);
        let m0 = h.mark();
        c.set(&mut h, 1);
        // A new mark is a new coalescing barrier: the store below must append
        // even though the location is covered before the mark.
        let m1 = h.mark();
        c.set(&mut h, 2);
        c.set(&mut h, 3);
        assert_eq!(h.log_len(), 2);
        h.rollback_to(m1);
        assert_eq!(c.get(&h), 1);
        h.rollback_to(m0);
        assert_eq!(c.get(&h), 0);
    }

    #[test]
    fn set_logging_reports_force_override() {
        let mut h = Heap::new("t");
        h.set_force_logging(true);
        assert!(h.logging());
        // The disable request is overridden, reported, and counted.
        assert!(h.set_logging(false));
        assert!(h.logging());
        assert_eq!(h.stats().gating_overrides, 1);
        // Releasing the force makes gating effective again.
        h.set_force_logging(false);
        assert!(!h.set_logging(false));
        assert!(!h.logging());
        assert_eq!(h.stats().gating_overrides, 1);
    }

    #[test]
    fn discard_keeps_arena_capacity_for_reuse() {
        let mut h = Heap::new("t");
        let v = h.alloc_vec::<[u64; 8]>("v");
        for _ in 0..16 {
            v.push(&mut h, [0; 8]);
        }
        h.set_logging(true);
        for round in 0..3 {
            let _m = h.mark();
            // Sixteen distinct slots: sixteen appends, nothing coalesces.
            for i in 0..16 {
                v.set(&mut h, i, [i as u64; 8]);
            }
            assert_eq!(h.log_len(), 16);
            h.discard_log();
            if round > 0 {
                assert!(
                    h.stats().arena_reuse_bytes > 0,
                    "warm rounds must reuse the arena"
                );
            }
        }
    }

    #[test]
    fn integer_vector_digests_tell_content_length_and_type_apart() {
        fn digest<T: HeapValue>(value: T) -> u64 {
            Holder {
                value,
                extra_bytes: 0,
            }
            .content_digest()
        }
        let base = digest(vec![1u32, 2, 3, 4]);
        assert_eq!(base, digest(vec![1u32, 2, 3, 4]));
        assert_ne!(base, digest(vec![1u32, 2, 3, 5]), "one element");
        assert_ne!(base, digest(vec![1u32, 2, 3]), "shorter");
        assert_ne!(base, digest(vec![1u32, 2, 3, 4, 0]), "longer by a zero");
        let wide = digest(vec![1u64, 2, 3, 4]);
        assert_ne!(wide, digest(vec![1u64, 2, 3, 4 | 1 << 63]), "one bit");
        assert_ne!(wide, digest(vec![1u64, 2, 3]), "shorter");
        // Equal element values (and, for the byte vector, equal bytes) under
        // different element types: the type name is folded in first.
        assert_ne!(base, wide);
        assert_ne!(digest(vec![7u32, 9]), digest(vec![7u64 | 9 << 32]));
        assert_ne!(digest(vec![7u32]), digest(vec![7u8, 0, 0, 0]));
        // The four lanes: at lengths 4–7 (a remainder of 0–3 past the last
        // group of four), one changed element at every index and every two
        // neighbours swapped (so across lanes) all digest apart, from the
        // original and from each other; so do two 65,536-entry tables that
        // differ in the last element only.
        let mut seen = std::collections::BTreeSet::new();
        for len in 4..=7u32 {
            let v: Vec<u32> = (1..=len).collect();
            assert!(seen.insert(digest(v.clone())));
            for i in 0..v.len() {
                let (mut one, mut swapped) = (v.clone(), v.clone());
                one[i] ^= 1 << 31;
                swapped.swap(i, (i + 1) % v.len());
                assert!(seen.insert(digest(one)) && seen.insert(digest(swapped)));
            }
        }
        let table = |last| digest([vec![0u32; 65_535], vec![last]].concat());
        assert_ne!(table(0), table(1), "last of 65,536");
    }

    #[test]
    fn droppable_payloads_do_not_leak_on_discard_or_rollback() {
        // Values survive both exits of the journal intact. That each one is
        // dropped exactly once is checked by the live counter of the
        // `Tracked` payloads in `tests/journal_differential.rs`.
        let mut h = Heap::new("t");
        let c = h.alloc_cell("x", String::from("original"));
        h.set_logging(true);
        let m = h.mark();
        c.set(&mut h, "one".into());
        c.set(&mut h, "two".into());
        h.rollback_to(m);
        assert_eq!(c.cloned(&h), "original");
        c.set(&mut h, "three".into());
        h.discard_log();
        assert_eq!(c.cloned(&h), "three");
    }
}
