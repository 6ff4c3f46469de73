//! Heap images: chunk-manifest snapshots for the Recovery Server's clone
//! pool, resolved against a shared content-addressed [`ChunkStore`].
//!
//! The OSIRIS Recovery Server keeps a *spare fresh copy* of every recoverable
//! component so that core servers (PM, VM, even RS itself) can be replaced
//! without relying on `fork()` at recovery time. [`HeapImage`] is that spare
//! copy, held as a manifest rather than a deep object copy: per object, the
//! dirty epoch at snapshot time plus the digests of the chunks holding its
//! content. The chunks themselves live refcounted in the store, shared by
//! every image (and deduplicated across components), so the pool's resident
//! cost is the *deduped* chunk bytes, and both [`Heap::clone_image`] (with a
//! predecessor) and [`Heap::restore_image`] touch only objects whose epoch
//! diverges — O(dirty), not O(heap). `tests/cas_proptests.rs` holds every
//! restore to plain std-container values captured at clone time.

use osiris_trace::fnv1a;

use crate::cas::{ChunkStore, CHUNK_SIZE};
use crate::heap::{Heap, Obj};
use crate::journal::{IntegrityError, FNV_OFFSET};

/// One manifest row: an object's identity, snapshot epoch, byte accounting
/// and chunk references.
struct ImageEntry {
    name: &'static str,
    /// The object's dirty epoch when the snapshot was taken. Epoch equality
    /// against the live object is what classifies it clean (skip) or dirty
    /// (re-chunk on clone, write back on restore).
    epoch: u64,
    /// `approx_bytes` of the object at snapshot time (Table VI accounting).
    abytes: usize,
    payload: EntryPayload,
}

enum EntryPayload {
    /// Byte-backed payload (`Vec<u8>`), split into [`CHUNK_SIZE`] pages.
    Bytes {
        /// Total payload length; the referenced chunks concatenate to it.
        len: usize,
        /// The holder's dynamic-size accounting at snapshot time, restored
        /// verbatim so accounting never drifts across a restore.
        extra_bytes: usize,
        chunks: Vec<u64>,
    },
    /// Any other payload: one whole-object chunk.
    Opaque { chunk: u64 },
}

/// A copy-on-write snapshot manifest of a heap's object graph.
///
/// Taken right after a server finishes initialization
/// ([`Heap::clone_image`]) and written back over the live heap
/// ([`Heap::restore_image`]) for *stateless* restarts. Its
/// [`bytes`](HeapImage::bytes) are the per-copy Table VI "+clone" overhead;
/// the pool-wide deduped figure comes from the shared [`ChunkStore`].
///
/// Images hold chunk references, not chunk data: drop one through
/// [`HeapImage::release`] so the store's refcounts stay balanced.
pub struct HeapImage {
    entries: Vec<ImageEntry>,
    heap_id: u32,
    bytes: usize,
    /// Manifest digest captured at [`Heap::clone_image`] time: covers the
    /// object table and every chunk digest, chaining the image into the same
    /// FNV-1a integrity scheme as the undo journal. Verified by
    /// [`HeapImage::verify`] before the recovery path trusts the manifest;
    /// chunk *content* is verified against the chunk digests separately
    /// (only for the chunks a restore actually reads).
    digest: u64,
}

impl std::fmt::Debug for HeapImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapImage")
            .field("objects", &self.entries.len())
            .field("chunks", &self.chunk_ref_count())
            .field("bytes", &self.bytes)
            .finish()
    }
}

/// Per-restore effort breakdown returned by [`Heap::restore_image`]: how
/// much of the heap was clean (skipped) versus dirty (verified and written
/// back). `osiris_restart_chunks_total{kind=...}` and the O(dirty) restart
/// cost model are fed from these numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RestoreStats {
    /// Objects whose live epoch matched the manifest (not touched).
    pub clean_objects: usize,
    /// Objects written back from chunks.
    pub dirty_objects: usize,
    /// Chunk references belonging to clean objects (not read).
    pub clean_chunks: u64,
    /// Chunk references verified and copied back.
    pub dirty_chunks: u64,
    /// Payload bytes actually copied back into the heap.
    pub bytes_restored: usize,
}

/// Manifest digest: heap identity, object table (names, epochs, sizes) and
/// every chunk digest, in order.
fn manifest_digest(heap_id: u32, entries: &[ImageEntry]) -> u64 {
    let d = fnv1a(FNV_OFFSET, &u64::from(heap_id).to_le_bytes());
    entries_digest(d, entries)
}

/// The heap-id-independent tail of [`manifest_digest`]: object table and
/// chunk digests only. Two manifests with equal entry digests describe the
/// same state even when they belong to different heap instances — the
/// comparison the fork path uses to check a forked boot produced the same
/// pristine pool as its donor.
fn entries_digest(seed: u64, entries: &[ImageEntry]) -> u64 {
    let mut d = fnv1a(seed, &(entries.len() as u64).to_le_bytes());
    for (i, e) in entries.iter().enumerate() {
        d = fnv1a(d, &(i as u64).to_le_bytes());
        d = fnv1a(d, e.name.as_bytes());
        d = fnv1a(d, &e.epoch.to_le_bytes());
        d = fnv1a(d, &(e.abytes as u64).to_le_bytes());
        match &e.payload {
            EntryPayload::Bytes {
                len,
                extra_bytes,
                chunks,
            } => {
                d = fnv1a(d, &1u64.to_le_bytes());
                d = fnv1a(d, &(*len as u64).to_le_bytes());
                d = fnv1a(d, &(*extra_bytes as u64).to_le_bytes());
                d = fnv1a(d, &(chunks.len() as u64).to_le_bytes());
                for c in chunks {
                    d = fnv1a(d, &c.to_le_bytes());
                }
            }
            EntryPayload::Opaque { chunk } => {
                d = fnv1a(d, &2u64.to_le_bytes());
                d = fnv1a(d, &chunk.to_le_bytes());
            }
        }
    }
    d
}

/// Chunks one object into the store and returns its manifest row.
fn chunk_object(o: &Obj, store: &mut ChunkStore) -> ImageEntry {
    let payload = match o.data.byte_holder() {
        Some(h) => EntryPayload::Bytes {
            len: h.value.len(),
            extra_bytes: h.extra_bytes,
            chunks: h
                .value
                .chunks(CHUNK_SIZE)
                .map(|c| store.insert_bytes(c))
                .collect(),
        },
        None => EntryPayload::Opaque {
            chunk: store.insert_opaque(&*o.data),
        },
    };
    ImageEntry {
        name: o.name,
        epoch: o.epoch,
        abytes: o.data.approx_bytes(),
        payload,
    }
}

impl ImageEntry {
    /// Re-references this entry for a successor manifest: increfs every
    /// chunk and clones the row. The clean-object path of
    /// [`Heap::clone_image`] — no content is re-read or re-hashed.
    fn reshare(&self, store: &mut ChunkStore) -> ImageEntry {
        let payload = match &self.payload {
            EntryPayload::Bytes {
                len,
                extra_bytes,
                chunks,
            } => {
                for c in chunks {
                    store.incref(*c);
                }
                EntryPayload::Bytes {
                    len: *len,
                    extra_bytes: *extra_bytes,
                    chunks: chunks.clone(),
                }
            }
            EntryPayload::Opaque { chunk } => {
                store.incref(*chunk);
                EntryPayload::Opaque { chunk: *chunk }
            }
        };
        ImageEntry {
            name: self.name,
            epoch: self.epoch,
            abytes: self.abytes,
            payload,
        }
    }

    fn chunk_count(&self) -> u64 {
        match &self.payload {
            EntryPayload::Bytes { chunks, .. } => chunks.len() as u64,
            EntryPayload::Opaque { .. } => 1,
        }
    }
}

impl Heap {
    /// Takes a snapshot manifest of this heap into `store`.
    ///
    /// With `prev` — the manifest this snapshot supersedes — objects whose
    /// dirty epoch is unchanged reuse the predecessor's chunk references
    /// outright (a refcount bump per chunk); only dirty objects are
    /// re-chunked and re-hashed. Chunk content identical to anything already
    /// resident (from any image of any heap) is deduplicated by the store.
    pub fn clone_image(&self, store: &mut ChunkStore, prev: Option<&HeapImage>) -> HeapImage {
        let prev = prev.filter(|p| p.heap_id == self.id());
        let mut entries = Vec::with_capacity(self.objs.len());
        for (i, o) in self.objs.iter().enumerate() {
            let reused = prev
                .and_then(|p| p.entries.get(i))
                .filter(|e| e.epoch == o.epoch);
            entries.push(match reused {
                Some(e) => e.reshare(store),
                None => chunk_object(o, store),
            });
        }
        let bytes = entries.iter().map(|e| e.abytes).sum();
        let digest = manifest_digest(self.id(), &entries);
        HeapImage {
            entries,
            heap_id: self.id(),
            bytes,
            digest,
        }
    }

    /// Replaces this heap's contents with `image`, touching only objects
    /// whose dirty epoch diverges from the manifest — O(dirty), not O(heap)
    /// — and discarding the undo log.
    ///
    /// All verification happens *before* any object is mutated: the manifest
    /// digest, the manifest-versus-store byte accounting, and the content
    /// digest of every chunk the restore will read. On any
    /// [`IntegrityError`] the heap is left untouched so the caller can fall
    /// back (the kernel degrades to the next recovery rung).
    ///
    /// Existing handles remain valid because object ids are positional and
    /// the image preserves allocation order.
    ///
    /// # Panics
    ///
    /// Panics if the image was taken from a different heap.
    pub fn restore_image(
        &mut self,
        image: &HeapImage,
        store: &ChunkStore,
    ) -> Result<RestoreStats, IntegrityError> {
        assert_eq!(
            image.heap_id,
            self.id(),
            "image belongs to a different heap"
        );
        let stats = self.write_back(image, store, 0, |live, e| live == e.epoch)?;
        // Objects allocated after the snapshot are not part of the restored
        // state.
        self.objs.truncate(image.entries.len());
        Ok(stats)
    }

    /// Fork support: replaces this heap's contents with a manifest taken
    /// from a *different* heap instance (the donor), touching only objects
    /// that are provably identical already — O(dirty), like
    /// [`Heap::restore_image`], but across heap-id boundaries.
    ///
    /// Correctness of the clean-object skip rests on the *parent-line*
    /// argument: an object is skipped only when its live epoch equals the
    /// manifest epoch **and** lies at or below this heap's adoption floor.
    /// Epochs at or below the floor were either minted by the deterministic
    /// boot sequence this heap shares with the donor, or stamped by a
    /// previous adoption from the same donor line — both identify the same
    /// write, hence the same content, as the donor's equal epoch. Epochs
    /// above the floor were minted by this heap's own post-fork writes and
    /// are never trusted to match a donor manifest numerically, however the
    /// counters happen to collide. Before the first adoption the floor is
    /// the current write counter, which is only sound on a freshly booted
    /// heap — the caller (the kernel's snapshot-adopt path) guarantees it.
    ///
    /// `donor_write_epoch` is the donor's write counter at snapshot time;
    /// this heap's counter is raised to it so the stamped donor epochs stay
    /// below the counter, and the floor is then advanced to the raised
    /// counter. All verification happens before any object is mutated, as
    /// in [`Heap::restore_image`].
    ///
    /// # Panics
    ///
    /// Panics if the object tables disagree in length or names — forks of
    /// the same configuration always boot identical tables, so a mismatch is
    /// a programming error, not data corruption.
    pub fn adopt_image(
        &mut self,
        image: &HeapImage,
        store: &ChunkStore,
        donor_write_epoch: u64,
    ) -> Result<RestoreStats, IntegrityError> {
        assert_eq!(
            image.entries.len(),
            self.objs.len(),
            "adopting heap's object table must match the donor's"
        );
        let floor = self.adopt_floor.unwrap_or_else(|| self.write_epoch());
        let stats = self.write_back(image, store, donor_write_epoch, |live, e| {
            live == e.epoch && e.epoch <= floor
        })?;
        self.adopt_floor = Some(self.write_epoch());
        Ok(stats)
    }

    /// The verify pass and the write-back pass behind
    /// [`Heap::restore_image`] and [`Heap::adopt_image`]. `clean(live epoch,
    /// manifest row)` names the objects both passes skip; the write counter
    /// is raised to at least `raise_to` between the passes, so the stamped
    /// epochs stay below it. Discards the undo log.
    fn write_back(
        &mut self,
        image: &HeapImage,
        store: &ChunkStore,
        raise_to: u64,
        clean: impl Fn(u64, &ImageEntry) -> bool,
    ) -> Result<RestoreStats, IntegrityError> {
        image.verify()?;
        // The `bytes()` total summed at clone time must still match the
        // manifest rows (drift here means the accounting Table VI reports
        // was wrong); checked against the store below for dirty rows.
        let row_bytes: usize = image.entries.iter().map(|e| e.abytes).sum();
        if row_bytes != image.bytes {
            return Err(IntegrityError::ImageBytes {
                expected: image.bytes as u64,
                actual: row_bytes as u64,
            });
        }
        assert!(
            image.entries.len() <= self.objs.len(),
            "image has more objects than the live heap"
        );

        // Pass 1 — verify every chunk a dirty object will read, and check
        // the store's byte accounting against the manifest's claimed length.
        let mut stats = RestoreStats::default();
        for (i, e) in image.entries.iter().enumerate() {
            if clean(self.epoch_of(i), e) {
                stats.clean_objects += 1;
                stats.clean_chunks += e.chunk_count();
                continue;
            }
            stats.dirty_objects += 1;
            stats.dirty_chunks += e.chunk_count();
            match &e.payload {
                EntryPayload::Bytes { len, chunks, .. } => {
                    let mut stored = 0usize;
                    for c in chunks {
                        store.verify_chunk(*c)?;
                        stored += store.chunk_bytes(*c).expect("chunk verified resident");
                    }
                    if stored != *len {
                        return Err(IntegrityError::ImageBytes {
                            expected: *len as u64,
                            actual: stored as u64,
                        });
                    }
                    stats.bytes_restored += len;
                }
                EntryPayload::Opaque { chunk } => {
                    store.verify_chunk(*chunk)?;
                    stats.bytes_restored += e.abytes;
                }
            }
        }

        // Pass 2 — write dirty objects back. Byte payloads are rebuilt in
        // place (clear + extend within existing capacity: allocation-free
        // when the live buffer did not shrink its capacity); opaque payloads
        // are cloned out of the store. Restored objects take the manifest
        // epoch, so the heap ends up clean with respect to the image.
        self.raise_write_epoch(raise_to);
        for (i, e) in image.entries.iter().enumerate() {
            if clean(self.epoch_of(i), e) {
                continue;
            }
            let obj = &mut self.objs[i];
            assert_eq!(obj.name, e.name, "object table shape differs from image");
            match &e.payload {
                EntryPayload::Bytes {
                    extra_bytes,
                    chunks,
                    ..
                } => {
                    let h = obj
                        .data
                        .byte_holder_mut()
                        .expect("manifest byte row over non-byte object");
                    h.value.clear();
                    for c in chunks {
                        h.value
                            .extend_from_slice(store.bytes_of(*c).expect("chunk verified"));
                    }
                    h.extra_bytes = *extra_bytes;
                }
                EntryPayload::Opaque { chunk } => {
                    obj.data = store.opaque_of(*chunk).expect("chunk verified").clone_obj();
                }
            }
            self.set_epoch(i, e.epoch);
        }
        self.discard_log();
        Ok(stats)
    }

    /// Whether this heap is clean with respect to `image`: same object
    /// table, every live epoch matching the manifest. The pool-refresh path
    /// uses this to re-snapshot only components whose pristine state is
    /// genuinely current.
    pub fn clean_for(&self, image: &HeapImage) -> bool {
        image.heap_id == self.id()
            && image.entries.len() == self.objs.len()
            && image
                .entries
                .iter()
                .enumerate()
                .all(|(i, e)| e.epoch == self.epoch_of(i))
    }
}

impl HeapImage {
    /// Approximate resident size of the snapshotted state in bytes — the
    /// *per-copy* Table VI "+clone" figure (shared chunks counted once per
    /// image; cross-pool dedup is the store's [`ChunkStore::resident_bytes`]).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of objects captured.
    pub fn object_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of chunk references this manifest holds (with multiplicity).
    pub fn chunk_ref_count(&self) -> u64 {
        self.entries.iter().map(ImageEntry::chunk_count).sum()
    }

    /// Every chunk digest this manifest references, in manifest order (with
    /// multiplicity). Used for pool-wide dedup attribution.
    pub fn chunk_refs(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries
            .iter()
            .flat_map(|e| match &e.payload {
                EntryPayload::Bytes { chunks, .. } => chunks.as_slice(),
                EntryPayload::Opaque { chunk } => std::slice::from_ref(chunk),
            })
            .copied()
    }

    /// Bytes a restore of `heap` from this image would copy back: the
    /// `abytes` of every manifest row whose epoch diverges from the live
    /// object. This is the O(dirty) figure the kernel's recovery cost model
    /// charges for state transfer, replacing the old O(heap) residency term.
    pub fn dirty_bytes_for(&self, heap: &Heap) -> usize {
        if self.heap_id != heap.id() {
            return self.bytes;
        }
        self.entries
            .iter()
            .enumerate()
            .filter(|(i, e)| *i >= heap.object_count() || heap.epoch_of(*i) != e.epoch)
            .map(|(_, e)| e.abytes)
            .sum()
    }

    /// The manifest digest captured when the image was cloned.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Heap-id-independent digest over the object table and chunk digests.
    /// Equal content digests mean equal described state, even across heap
    /// instances (a fork and its donor have distinct heap ids, so their
    /// [`HeapImage::digest`] values never match; this one does).
    pub fn content_digest(&self) -> u64 {
        entries_digest(FNV_OFFSET, &self.entries)
    }

    /// Recomputes the manifest digest and compares it against the one
    /// captured at clone time. Cheap — O(object table), no chunk content is
    /// read. [`Heap::restore_image`] additionally verifies the content of
    /// every chunk it reads.
    pub fn verify(&self) -> Result<(), IntegrityError> {
        let actual = manifest_digest(self.heap_id, &self.entries);
        if actual != self.digest {
            return Err(IntegrityError::ImageDigest {
                expected: self.digest,
                actual,
            });
        }
        Ok(())
    }

    /// Full scrub: manifest digest plus the content of every referenced
    /// chunk. The expensive path, for tests and background integrity sweeps.
    pub fn verify_full(&self, store: &ChunkStore) -> Result<(), IntegrityError> {
        self.verify()?;
        for c in self.chunk_refs() {
            store.verify_chunk(c)?;
        }
        Ok(())
    }

    /// Releases every chunk reference this manifest holds back to `store`.
    /// Consumes the image: a released manifest can no longer be restored.
    pub fn release(self, store: &mut ChunkStore) {
        for c in self.chunk_refs() {
            store.release(c);
        }
    }

    /// Corruption-injection test support: flips one bit of the stored
    /// digest, making [`HeapImage::verify`] fail deterministically.
    pub fn corrupt_digest_for_test(&mut self) {
        self.digest ^= 1;
    }

    /// Corruption-injection test support: silently inflates the manifest's
    /// byte total *and* re-seals the digest, so only the restore-time
    /// accounting cross-check can catch the drift.
    pub fn corrupt_bytes_for_test(&mut self) {
        self.bytes += 1;
        self.digest = manifest_digest(self.heap_id, &self.entries);
    }
}

#[cfg(test)]
mod tests {
    use crate::cas::ChunkStore;
    use crate::Heap;

    #[test]
    fn image_restores_initial_state() {
        let mut h = Heap::new("t");
        let c = h.alloc_cell("x", 1u32);
        let v = h.alloc_vec::<u8>("v");
        v.push(&mut h, 42);
        let mut store = ChunkStore::new();
        let img = h.clone_image(&mut store, None);
        c.set(&mut h, 99);
        v.push(&mut h, 43);
        let stats = h.restore_image(&img, &store).expect("restore");
        assert_eq!(c.get(&h), 1);
        assert_eq!(v.snapshot(&h), vec![42]);
        assert_eq!(stats.dirty_objects, 2);
        img.release(&mut store);
        assert!(store.is_empty());
    }

    #[test]
    fn restore_skips_clean_objects() {
        let mut h = Heap::new("t");
        let c = h.alloc_cell("x", 1u32);
        let b = h.alloc_buf("b");
        b.write_at(&mut h, 0, &[7u8; 9000]);
        let mut store = ChunkStore::new();
        let img = h.clone_image(&mut store, None);
        c.set(&mut h, 2); // only the cell is dirtied
        let stats = h.restore_image(&img, &store).expect("restore");
        assert_eq!(stats.dirty_objects, 1);
        assert_eq!(stats.clean_objects, 1);
        assert_eq!(stats.clean_chunks, 3, "9000 B buffer = 3 pages, untouched");
        assert_eq!(c.get(&h), 1);
        assert!(h.clean_for(&img));
    }

    #[test]
    fn incremental_clone_reuses_clean_chunks() {
        let mut h = Heap::new("t");
        let b = h.alloc_buf("b");
        b.write_at(&mut h, 0, &[3u8; 8192]);
        let c = h.alloc_cell("x", 0u64);
        let mut store = ChunkStore::new();
        let first = h.clone_image(&mut store, None);
        let inserts_after_first = store.inserts();
        c.set(&mut h, 1);
        let second = h.clone_image(&mut store, Some(&first));
        // Only the dirty cell was re-chunked; the buffer pages were reshared
        // without touching content.
        assert_eq!(store.inserts(), inserts_after_first + 1);
        first.release(&mut store);
        // The second image still restores after its predecessor is gone.
        c.set(&mut h, 9);
        h.restore_image(&second, &store).expect("restore");
        assert_eq!(c.get(&h), 1);
        second.release(&mut store);
        assert!(store.is_empty());
    }

    #[test]
    fn image_is_independent_of_live_mutations() {
        let mut h = Heap::new("t");
        let c = h.alloc_cell("x", vec![1, 2, 3]);
        let mut store = ChunkStore::new();
        let img = h.clone_image(&mut store, None);
        c.update(&mut h, |v| v.push(4));
        h.restore_image(&img, &store).expect("restore");
        assert_eq!(c.cloned(&h), vec![1, 2, 3]);
        img.release(&mut store);
    }

    #[test]
    fn image_bytes_match_resident_estimate() {
        let mut h = Heap::new("t");
        let b = h.alloc_buf("b");
        b.write_at(&mut h, 0, &[1u8; 1000]);
        let mut store = ChunkStore::new();
        let img = h.clone_image(&mut store, None);
        assert_eq!(img.bytes(), h.resident_bytes());
        assert_eq!(img.object_count(), 1);
        img.release(&mut store);
    }

    #[test]
    #[should_panic(expected = "different heap")]
    fn foreign_image_is_rejected() {
        let a = Heap::new("a");
        let mut b = Heap::new("b");
        let mut store = ChunkStore::new();
        let img = a.clone_image(&mut store, None);
        let _ = b.restore_image(&img, &store);
    }

    #[test]
    fn restore_discards_undo_log() {
        let mut h = Heap::new("t");
        let c = h.alloc_cell("x", 0u32);
        let mut store = ChunkStore::new();
        let img = h.clone_image(&mut store, None);
        h.set_logging(true);
        c.set(&mut h, 5);
        assert!(h.log_len() > 0);
        h.restore_image(&img, &store).expect("restore");
        assert_eq!(h.log_len(), 0);
        img.release(&mut store);
    }

    #[test]
    fn corrupt_manifest_fails_before_mutation() {
        let mut h = Heap::new("t");
        let c = h.alloc_cell("x", 1u32);
        let mut store = ChunkStore::new();
        let mut img = h.clone_image(&mut store, None);
        img.corrupt_digest_for_test();
        c.set(&mut h, 7);
        assert!(h.restore_image(&img, &store).is_err());
        assert_eq!(c.get(&h), 7, "failed restore must not touch the heap");
    }

    #[test]
    fn byte_accounting_drift_is_an_integrity_error() {
        let mut h = Heap::new("t");
        let b = h.alloc_buf("b");
        b.write_at(&mut h, 0, &[5u8; 100]);
        let mut store = ChunkStore::new();
        let mut img = h.clone_image(&mut store, None);
        img.corrupt_bytes_for_test();
        b.write_at(&mut h, 0, &[6u8; 100]);
        assert!(matches!(
            h.restore_image(&img, &store),
            Err(crate::IntegrityError::ImageBytes { .. })
        ));
    }

    #[test]
    fn corrupt_chunk_fails_before_mutation() {
        let mut h = Heap::new("t");
        let b = h.alloc_buf("b");
        b.write_at(&mut h, 0, &[9u8; 5000]);
        let mut store = ChunkStore::new();
        let img = h.clone_image(&mut store, None);
        store.corrupt_byte_chunk_for_test(0, 17, 1).expect("chunk");
        b.write_at(&mut h, 10, &[1u8; 4]); // dirty the buffer
        let before = b.snapshot(&h);
        assert!(matches!(
            h.restore_image(&img, &store),
            Err(crate::IntegrityError::ChunkDigest { .. })
        ));
        assert_eq!(b.snapshot(&h), before, "heap untouched on chunk damage");
        assert!(img.verify_full(&store).is_err());
    }

    #[test]
    fn cow_restore_returns_to_the_clone_time_digest() {
        let mut h = Heap::new("t");
        let c = h.alloc_cell("x", 10u64);
        let b = h.alloc_buf("b");
        b.write_at(&mut h, 0, &[4u8; 6000]);
        let mut store = ChunkStore::new();
        let img = h.clone_image(&mut store, None);
        let base = h.state_digest();
        c.set(&mut h, 11);
        b.write_at(&mut h, 4100, &[8u8; 16]);
        h.restore_image(&img, &store).expect("restore");
        assert_eq!(h.state_digest(), base);
        img.release(&mut store);
    }
}
