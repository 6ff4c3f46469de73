//! The content-addressed chunk store backing copy-on-write heap images.
//!
//! A [`crate::HeapImage`] is no longer a deep object copy: it is a
//! *manifest* of chunk digests resolved against a [`ChunkStore`] shared by
//! every image in the Recovery Server's clone pool. Chunks are refcounted
//! and deduplicated by content, so two components whose pristine state
//! shares pages (zero-filled buffers, identical tables) pay for those pages
//! once — the `velo-rift` shared read-only pool model, with each image
//! acting as a private view.
//!
//! Two chunk shapes exist:
//!
//! * **Byte chunks** — byte-backed objects (`Vec<u8>`: every [`crate::PBuf`]
//!   and `PVec<u8>`) are split into [`CHUNK_SIZE`] logical pages keyed by
//!   the FNV-1a digest of their content. This is where real deduplication
//!   and O(dirty) restore savings come from: the bulk of server state is
//!   buffer pages.
//! * **Opaque chunks** — any other payload is stored as one whole-object
//!   clone keyed by a digest over its type identity and `Debug` rendering
//!   (allocation-free to compute). Dedup still applies when two objects
//!   hold equal values of the same type.
//!
//! The digest that keys a chunk *is* its integrity check: verification
//! recomputes the content digest and compares it to the key, so a single
//! bit flip in any stored chunk is caught before a restore trusts it.

use std::collections::BTreeMap;
use std::fmt;

use osiris_trace::fnv1a;

use crate::heap::AnyObj;
use crate::journal::{fold_bytes, IntegrityError, FNV_OFFSET, FNV_PRIME};

/// Logical page size for byte-backed payloads: objects serialize into
/// fixed-size chunks of this many bytes (the last chunk may be shorter).
pub const CHUNK_SIZE: usize = 4096;

/// Content digest for byte chunks: four interleaved FNV-1a lanes folded
/// into one 64-bit value.
///
/// Plain byte-wise FNV-1a is one multiply-latency dependency chain (~4
/// cycles per byte), and this digest is recomputed for every dirty chunk a
/// COW restore copies back — it sits squarely on the recovery-latency
/// path. This variant keeps the FNV-1a step (xor, then multiply by the FNV
/// prime) but consumes 8-byte little-endian words striped across four
/// independent lanes, so the CPU pipelines the multiplies and each one
/// covers a full word: ~32x the throughput of the byte-serial loop. A
/// single bit flip still changes the digest — the multiply is a bijection
/// mod 2^64, so a changed word always changes its lane. The fold seeds
/// with the chunk length so truncated or padded content changes the key.
pub(crate) fn chunk_digest(bytes: &[u8]) -> u64 {
    let mut lanes = [
        FNV_OFFSET ^ 1,
        FNV_OFFSET ^ 2,
        FNV_OFFSET ^ 3,
        FNV_OFFSET ^ 4,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            *lane = (*lane ^ w).wrapping_mul(FNV_PRIME);
        }
    }
    for (i, b) in blocks.remainder().iter().enumerate() {
        let lane = &mut lanes[i % 4];
        *lane = (*lane ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
    let mut d = fnv1a(FNV_OFFSET, &(bytes.len() as u64).to_le_bytes());
    for lane in lanes {
        d = fnv1a(d, &lane.to_le_bytes());
    }
    d
}

/// An allocation-free digest sink for `fmt::Write`, used to digest the
/// `Debug` rendering of opaque payloads without materializing the string.
/// Each fragment the formatter hands over is folded word-wise, so the digest
/// depends on the fragment boundaries too; equal values of one type render
/// through the same code and so fragment identically.
pub(crate) struct FnvWriter(pub(crate) u64);

impl fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fold_bytes(self.0, s.as_bytes());
        Ok(())
    }
}

/// One stored chunk: its reference count and payload.
struct ChunkEntry {
    refs: u64,
    data: ChunkData,
}

enum ChunkData {
    /// A page of a byte-backed payload.
    Bytes(Box<[u8]>),
    /// A whole-object clone of a non-byte payload.
    Opaque(Box<dyn AnyObj>),
}

impl ChunkData {
    fn resident_bytes(&self) -> usize {
        match self {
            ChunkData::Bytes(b) => b.len(),
            ChunkData::Opaque(o) => o.approx_bytes(),
        }
    }
}

/// A refcounted, content-addressed store of heap-image chunks.
///
/// Shared by every [`crate::HeapImage`] taken into it; identical content is
/// stored once no matter how many images (or how many objects within one
/// image) reference it. Images must be explicitly [released]
/// (`crate::HeapImage::release`) back into the store; the CAS property
/// tests pin down that refcounts neither leak nor double-free across
/// clone/restore/release interleavings.
pub struct ChunkStore {
    chunks: BTreeMap<u64, ChunkEntry>,
    resident_bytes: usize,
    dedup_hits: u64,
    inserts: u64,
}

impl Default for ChunkStore {
    fn default() -> Self {
        ChunkStore::new()
    }
}

impl fmt::Debug for ChunkStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChunkStore")
            .field("chunks", &self.chunks.len())
            .field("resident_bytes", &self.resident_bytes)
            .field("dedup_hits", &self.dedup_hits)
            .finish()
    }
}

impl ChunkStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ChunkStore {
            chunks: BTreeMap::new(),
            resident_bytes: 0,
            dedup_hits: 0,
            inserts: 0,
        }
    }

    /// Inserts (or increfs) one byte chunk, returning its content digest.
    pub(crate) fn insert_bytes(&mut self, bytes: &[u8]) -> u64 {
        let digest = chunk_digest(bytes);
        self.inserts += 1;
        if let Some(entry) = self.chunks.get_mut(&digest) {
            match &entry.data {
                ChunkData::Bytes(stored) => {
                    assert_eq!(
                        stored.len(),
                        bytes.len(),
                        "FNV chunk digest collision (byte length mismatch)"
                    );
                    debug_assert_eq!(&stored[..], bytes, "FNV chunk digest collision");
                }
                ChunkData::Opaque(_) => panic!("FNV chunk digest collision (kind mismatch)"),
            }
            entry.refs += 1;
            self.dedup_hits += 1;
            return digest;
        }
        self.resident_bytes += bytes.len();
        self.chunks.insert(
            digest,
            ChunkEntry {
                refs: 1,
                data: ChunkData::Bytes(bytes.into()),
            },
        );
        digest
    }

    /// Inserts (or increfs) one opaque whole-object chunk, returning its
    /// content digest.
    pub(crate) fn insert_opaque(&mut self, obj: &dyn AnyObj) -> u64 {
        let digest = obj.content_digest();
        self.inserts += 1;
        if let Some(entry) = self.chunks.get_mut(&digest) {
            assert!(
                matches!(entry.data, ChunkData::Opaque(_)),
                "FNV chunk digest collision (kind mismatch)"
            );
            entry.refs += 1;
            self.dedup_hits += 1;
            return digest;
        }
        let clone = obj.clone_obj();
        self.resident_bytes += clone.approx_bytes();
        self.chunks.insert(
            digest,
            ChunkEntry {
                refs: 1,
                data: ChunkData::Opaque(clone),
            },
        );
        digest
    }

    /// Takes one more reference on an existing chunk (manifest reuse of a
    /// clean object's chunk list).
    ///
    /// # Panics
    ///
    /// Panics if the chunk is not resident — a manifest may only re-reference
    /// chunks its predecessor holds alive.
    pub(crate) fn incref(&mut self, digest: u64) {
        self.chunks
            .get_mut(&digest)
            .expect("incref of non-resident chunk")
            .refs += 1;
    }

    /// Drops one reference; the chunk is freed when the count reaches zero.
    ///
    /// # Panics
    ///
    /// Panics if the chunk is not resident (double free).
    pub(crate) fn release(&mut self, digest: u64) {
        let entry = self
            .chunks
            .get_mut(&digest)
            .expect("release of non-resident chunk");
        entry.refs -= 1;
        if entry.refs == 0 {
            let entry = self.chunks.remove(&digest).expect("entry just observed");
            self.resident_bytes -= entry.data.resident_bytes();
        }
    }

    /// The byte payload of a chunk, if it is resident and byte-shaped.
    pub(crate) fn bytes_of(&self, digest: u64) -> Option<&[u8]> {
        match &self.chunks.get(&digest)?.data {
            ChunkData::Bytes(b) => Some(b),
            ChunkData::Opaque(_) => None,
        }
    }

    /// The opaque payload of a chunk, if it is resident and object-shaped.
    pub(crate) fn opaque_of(&self, digest: u64) -> Option<&dyn AnyObj> {
        match &self.chunks.get(&digest)?.data {
            ChunkData::Bytes(_) => None,
            ChunkData::Opaque(o) => Some(&**o),
        }
    }

    /// Verifies one chunk: recomputes its content digest and compares it to
    /// the key it is stored under. Detects any bit flip in the payload.
    pub fn verify_chunk(&self, digest: u64) -> Result<(), IntegrityError> {
        let Some(entry) = self.chunks.get(&digest) else {
            return Err(IntegrityError::MissingChunk { digest });
        };
        let actual = match &entry.data {
            ChunkData::Bytes(b) => chunk_digest(b),
            ChunkData::Opaque(o) => o.content_digest(),
        };
        if actual != digest {
            return Err(IntegrityError::ChunkDigest {
                expected: digest,
                actual,
            });
        }
        Ok(())
    }

    /// Full-store scrub: verifies every resident chunk against its key.
    pub fn verify_all(&self) -> Result<(), IntegrityError> {
        for digest in self.chunks.keys() {
            self.verify_chunk(*digest)?;
        }
        Ok(())
    }

    /// Number of distinct chunks resident.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Bytes resident across all chunks (each shared chunk counted once).
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Insertions that deduplicated against an already-resident chunk.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    /// Total chunk insert attempts (hits plus misses).
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Sum of reference counts over all resident chunks.
    pub fn total_refs(&self) -> u64 {
        self.chunks.values().map(|e| e.refs).sum()
    }

    /// Reference count of one chunk (0 if not resident).
    pub fn refs_of(&self, digest: u64) -> u64 {
        self.chunks.get(&digest).map(|e| e.refs).unwrap_or(0)
    }

    /// Resident size in bytes of one chunk, if resident.
    pub fn chunk_bytes(&self, digest: u64) -> Option<usize> {
        self.chunks.get(&digest).map(|e| e.data.resident_bytes())
    }

    /// The resident bytes each of `images` holds here, every chunk charged
    /// to the first image (in order) that references it: per-image
    /// deduplicated cost, summing to the bytes the images share.
    pub fn first_ref_bytes<'a>(
        &self,
        images: impl IntoIterator<Item = Option<&'a crate::HeapImage>>,
    ) -> Vec<usize> {
        let mut seen = std::collections::BTreeSet::new();
        let mut charge = |image: &crate::HeapImage| -> usize {
            (image.chunk_refs().filter(|d| seen.insert(*d)))
                .filter_map(|d| self.chunk_bytes(d))
                .sum()
        };
        (images.into_iter())
            .map(|image| image.map_or(0, &mut charge))
            .collect()
    }

    /// Whether no chunk is resident (all references released).
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Corruption-injection test support: flips one bit of the `nth`
    /// resident *byte* chunk (in digest order), leaving its key unchanged so
    /// [`ChunkStore::verify_chunk`] fails deterministically. Returns the
    /// digest of the damaged chunk, or `None` if fewer than `nth + 1` byte
    /// chunks are resident.
    pub fn corrupt_byte_chunk_for_test(&mut self, nth: usize, byte: usize, bit: u8) -> Option<u64> {
        let digest = *self
            .chunks
            .iter()
            .filter(|(_, e)| matches!(e.data, ChunkData::Bytes(_)))
            .nth(nth)
            .map(|(d, _)| d)?;
        if let ChunkData::Bytes(b) = &mut self.chunks.get_mut(&digest).expect("just found").data {
            let i = byte % b.len();
            b[i] ^= 1 << (bit & 7);
        }
        Some(digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Heap;

    #[test]
    fn byte_chunks_dedup_by_content() {
        let mut s = ChunkStore::new();
        let a = s.insert_bytes(&[1u8; 100]);
        let b = s.insert_bytes(&[1u8; 100]);
        let c = s.insert_bytes(&[2u8; 100]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(s.chunk_count(), 2);
        assert_eq!(s.refs_of(a), 2);
        assert_eq!(s.dedup_hits(), 1);
        assert_eq!(s.resident_bytes(), 200);
    }

    #[test]
    fn release_frees_at_zero() {
        let mut s = ChunkStore::new();
        let d = s.insert_bytes(&[7u8; 10]);
        s.incref(d);
        s.release(d);
        assert_eq!(s.refs_of(d), 1);
        s.release(d);
        assert!(s.is_empty());
        assert_eq!(s.resident_bytes(), 0);
    }

    #[test]
    fn bit_flip_is_detected() {
        let mut s = ChunkStore::new();
        let d = s.insert_bytes(&[0u8; 64]);
        assert!(s.verify_chunk(d).is_ok());
        let hit = s.corrupt_byte_chunk_for_test(0, 3, 2).expect("one chunk");
        assert_eq!(hit, d);
        assert!(matches!(
            s.verify_chunk(d),
            Err(IntegrityError::ChunkDigest { .. })
        ));
        assert!(s.verify_all().is_err());
    }

    #[test]
    fn opaque_chunks_dedup_same_type_same_value_only() {
        let mut h = Heap::new("t");
        let a = h.alloc_cell("a", 5u64);
        let b = h.alloc_cell("b", 5u64);
        let c = h.alloc_cell("c", 5u32); // same Debug text, different type
        let _ = (a, b, c);
        let mut s = ChunkStore::new();
        let img = h.clone_image(&mut s, None);
        // a and b share one opaque chunk; c gets its own.
        assert_eq!(s.chunk_count(), 2);
        img.release(&mut s);
        assert!(s.is_empty());
    }
}
