//! Copy-on-write restore is O(dirty state), and identical spare copies
//! share one store.
//!
//! Builds component heaps of increasing size, snapshots each into a
//! [`ChunkStore`]-backed manifest, dirties 0%, 1%, 10% and 100% of the
//! pages and restores. The restore must reproduce the state digest, copy
//! back exactly the dirtied pages (clean chunks are skipped by epoch) and
//! never touch the allocator: dirty byte pages are written into capacity
//! the live buffers already own.

use osiris_checkpoint::{ChunkStore, Heap, PBuf, CHUNK_SIZE};
use osiris_rng::Rng;

use super::{Checks, Scale, Want};

/// `pages` page-sized buffers plus a handful of cells that are never
/// dirtied, so the clean-skip path covers both payload kinds.
fn build_world(heap: &mut Heap, pages: usize, r: &mut Rng) -> Vec<PBuf> {
    let bufs: Vec<PBuf> = (0..pages).map(|_| heap.alloc_buf("page")).collect();
    for b in &bufs {
        b.write_at(heap, 0, &r.bytes(CHUNK_SIZE));
    }
    for _ in 0..4 {
        heap.alloc_cell("cell", r.next_u64());
    }
    bufs
}

fn dirty_count(pages: usize, pct: usize) -> usize {
    if pct == 0 {
        0
    } else {
        (pages * pct / 100).clamp(1, pages)
    }
}

fn point(pages: usize, pct: usize, c: &mut Checks) {
    let mut r = Rng::new(0xC0117 ^ ((pages as u64) << 8) ^ pct as u64);
    let mut heap = Heap::new("gate-restore");
    let bufs = build_world(&mut heap, pages, &mut r);
    let mut store = ChunkStore::new();
    let image = heap.clone_image(&mut store, None);
    let baseline = heap.state_digest();
    let dirty_pages = dirty_count(pages, pct);

    // The second round restores a heap the first restore already wrote to.
    for round in 0..2 {
        let name = |what: &str| format!("restore/{pages}p/{pct}%/round{round}/{what}");
        // One byte per page: epoch divergence is what matters, not volume.
        for b in bufs.iter().take(dirty_pages) {
            b.write_at(&mut heap, r.below_usize(CHUNK_SIZE - 1), &[r.byte()]);
        }
        let (stats, allocs) = c.counted(|| heap.restore_image(&image, &store));
        let stats = stats.expect("restore from the store the image was cloned into");
        c.push(
            name("state_digest"),
            heap.state_digest(),
            Want::Eq(baseline),
        );
        c.push(
            name("bytes_restored"),
            stats.bytes_restored as u64,
            Want::Eq((dirty_pages * CHUNK_SIZE) as u64),
        );
        c.push(
            name("dirty_chunks"),
            stats.dirty_chunks,
            Want::Eq(dirty_pages as u64),
        );
        c.push_allocs(name("allocs"), allocs, Want::Eq(0));
    }
    image.release(&mut store);
    c.push(
        format!("restore/{pages}p/{pct}%/store_empty_after_release"),
        store.is_empty() as u64,
        Want::Eq(1),
    );
}

/// Six spare copies of the same component state, each from its own heap as
/// the RS's clone pool holds them, cloned into one store.
fn pool(pages: usize, c: &mut Checks) {
    let mut store = ChunkStore::new();
    let mut per_copy_bytes = 0u64;
    let images: Vec<_> = (0..6)
        .map(|_| {
            let mut heap = Heap::new("gate-pool");
            build_world(&mut heap, pages, &mut Rng::new(0xD0D1));
            let image = heap.clone_image(&mut store, None);
            per_copy_bytes += image.bytes() as u64;
            image
        })
        .collect();
    c.push(
        "restore/pool/resident_bytes".into(),
        store.resident_bytes() as u64,
        Want::AtMost(per_copy_bytes - 1),
    );
    c.push(
        "restore/pool/dedup_hits".into(),
        store.dedup_hits(),
        Want::AtLeast(1),
    );
    for image in images {
        image.release(&mut store);
    }
    c.push(
        "restore/pool/store_empty_after_release".into(),
        store.is_empty() as u64,
        Want::Eq(1),
    );
}

pub(super) fn checks(scale: Scale, c: &mut Checks) {
    // 64 KiB, 1 MiB, 8 MiB.
    let heaps: &[usize] = match scale {
        Scale::Full => &[16, 256, 2048],
        Scale::Small => &[8, 64],
    };
    for &pages in heaps {
        for pct in [0, 1, 10, 100] {
            point(pages, pct, c);
        }
    }
    pool(heaps[heaps.len() - 1].min(256), c);
}
