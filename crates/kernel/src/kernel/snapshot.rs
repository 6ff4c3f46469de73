//! The snapshot plane: capturing a quiescent kernel as CAS chunk manifests
//! plus plain state, re-targeting a booted kernel at such a capture
//! (snapshot-fork campaigns), and adopting a recorded axiom after a
//! simulated reboot. Nothing here runs during message processing.

use std::collections::{BTreeMap, VecDeque};

use osiris_axiom::{AxiomLog, CompStatusCode, ControlState};
use osiris_checkpoint::{ChunkStore, HeapImage, HeapStats, RestoreStats};
use osiris_core::conduct::Host as _;
use osiris_core::RecoveryWindow;
use osiris_metrics::SeriesState;
use osiris_trace::TracerState;

use super::{Due, Kernel, RETRY_SEQ};
use crate::clock::VirtualClock;
use crate::component::NoFaults;
use crate::message::{Message, Protocol};

/// The content-addressed store's externally visible counters at one
/// instant, used to check that a freshly booted fork reproduced its donor's
/// boot-time store exactly (the fault-free-prefix invariant: the kernel
/// only touches the store at `init_components` and during recovery, and
/// snapshots are taken on fault-free prefixes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CasFingerprint {
    /// Chunks resident in the store.
    pub chunk_count: usize,
    /// Deduplicated resident bytes.
    pub resident_bytes: usize,
    /// Insertions absorbed by an already-resident chunk.
    pub dedup_hits: u64,
    /// Total insert attempts (hits plus misses).
    pub inserts: u64,
}

/// Per-component slice of a [`KernelSnapshot`]: the heap as a CAS chunk
/// manifest (O(dirty) against `prev` via epoch sharing), the recovery
/// window, the inbox, and the digests needed to validate adoption targets.
///
/// The live server object is deliberately *not* captured: servers hold only
/// configuration and heap handles assigned deterministically at init, so
/// any same-config booted kernel already owns an identical copy. All
/// mutable state lives in the heap.
pub struct CompSnapshot<P: Protocol> {
    name: &'static str,
    heap_manifest: HeapImage,
    heap_write_epoch: u64,
    heap_stats: HeapStats,
    journal_reuse: u64,
    journal_capacity: usize,
    window: RecoveryWindow,
    inbox: VecDeque<Message<P>>,
    /// Heap-id-independent digest of the donor's pristine clone image.
    /// Adoption requires the adopting kernel's own pristine image to match:
    /// a recovery executed after adoption must restore the same bytes the
    /// donor's would have.
    pristine_digest: u64,
}

/// A quiescent, fault-free kernel captured for snapshot-fork execution.
///
/// Capture is O(dirty): heap payloads are shared with the caller's
/// [`ChunkStore`] and, when a `prev` snapshot of the same kernel is
/// supplied, epoch-equal objects reshare the previous manifest's chunks
/// without rehashing. Everything else (clock, timers, inboxes, axiom,
/// control state, metrics, trace ring, telemetry series) is a plain value
/// copy, small by construction.
///
/// A kernel that adopts this snapshot ([`Kernel::adopt_snapshot`]) becomes
/// byte-equivalent to the donor at capture time: every subsequent export
/// (metrics, axiom bytes, trace text, timeseries) is identical to what the
/// donor would have produced from the same point.
pub struct KernelSnapshot<P: Protocol> {
    clock: VirtualClock,
    comps: Vec<CompSnapshot<P>>,
    timers: BTreeMap<(u64, u64), Due<P>>,
    timer_seq: u64,
    next_msg_id: u64,
    next_span_id: u64,
    recovery_epoch: u64,
    rr_cursor: usize,
    axiom: AxiomLog,
    control: ControlState,
    series: SeriesState,
    tracer: TracerState,
    cas: CasFingerprint,
}

impl<P: Protocol> KernelSnapshot<P> {
    /// Virtual time at capture.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// The donor's clone-pool store fingerprint at capture time.
    pub fn cas_fingerprint(&self) -> CasFingerprint {
        self.cas
    }

    /// Number of captured components.
    pub fn component_count(&self) -> usize {
        self.comps.len()
    }

    /// Total manifest bytes across all captured heaps (shared chunks are
    /// counted once per referencing manifest — this is the logical capture
    /// size, not the deduplicated resident cost).
    pub fn manifest_bytes(&self) -> usize {
        self.comps.iter().map(|c| c.heap_manifest.bytes()).sum()
    }

    /// Releases every captured manifest's chunk references back to `store`.
    /// Call when discarding a snapshot whose store outlives it; dropping
    /// the snapshot without releasing leaks resident chunks.
    pub fn release(self, store: &mut ChunkStore) {
        for c in self.comps {
            c.heap_manifest.release(store);
        }
    }
}

impl<P: Protocol> Kernel<P> {
    /// The externally visible counters of the content-addressed clone-pool
    /// store, as one comparable value. Two kernels whose stores evolved
    /// through the same operation sequence have equal fingerprints.
    pub fn cas_fingerprint(&self) -> CasFingerprint {
        CasFingerprint {
            chunk_count: self.cas.chunk_count(),
            resident_bytes: self.cas.resident_bytes(),
            dedup_hits: self.cas.dedup_hits(),
            inserts: self.cas.inserts(),
        }
    }

    /// Adopts a recorded axiom and its reduction as this kernel's control
    /// state — simulated reboot persistence. The freshly booted components
    /// take on the statuses the axiom proves, since liveness is read from
    /// the control state: quarantined components stay benched and release
    /// their clone images; crashed/hung ones remain dead until a recovery
    /// request resolves them (their in-flight request context was volatile
    /// and did not survive the reboot). The clock advances to the log's last
    /// timestamp, and the chain continues from the recorded head so
    /// subsequent events extend the same history.
    pub fn adopt_axiom(&mut self, log: AxiomLog, state: ControlState) {
        self.clock.advance_to(state.last_now.max(self.clock.now()));
        for q in state.quarantined_set() {
            if let Some(image) = self
                .comps
                .get_mut(q as usize)
                .and_then(|c| c.pristine_image.take())
            {
                image.release(&mut self.cas);
            }
        }
        self.control = state;
        self.axiom = log;
        self.stamp();
    }
}

impl<P: Protocol> Kernel<P> {
    /// Captures the kernel into a [`KernelSnapshot`] whose heap payloads
    /// live in `store`. Passing the previous snapshot of the *same* kernel
    /// as `prev` makes the capture O(dirty): epoch-equal objects reshare
    /// the previous manifest's chunks.
    ///
    /// # Panics
    ///
    /// Panics unless the kernel is quiescent and fault-free: initialized,
    /// no recovery in flight, no shutdown decided, no pending crash, no
    /// undrained user replies or kill events, every component `Alive` with
    /// a closed recovery window (empty undo log) and a pristine image.
    pub fn snapshot_into(
        &self,
        store: &mut ChunkStore,
        prev: Option<&KernelSnapshot<P>>,
    ) -> KernelSnapshot<P> {
        assert!(self.initialized, "snapshot() before init_components()");
        assert!(
            self.control.recovering.is_none(),
            "snapshot during recovery"
        );
        assert!(
            self.shutdown.is_none() && self.shutdown_pending.is_none(),
            "snapshot after shutdown"
        );
        assert!(
            self.user_replies.is_empty(),
            "snapshot with undrained user replies"
        );
        assert!(
            self.kill_events.is_empty(),
            "snapshot with undrained kill events"
        );
        assert!(
            self.wd.armed == 0 && !self.timers.keys().any(|k| k.1 & RETRY_SEQ != 0),
            "snapshot with armed watchdog deadlines or parked retries"
        );
        debug_assert!(self.stages_drained());
        let comps = self
            .comps
            .iter()
            .enumerate()
            .map(|(i, c)| {
                assert!(
                    self.control.status(i as u8) == CompStatusCode::Alive,
                    "snapshot with non-Alive component {}",
                    c.name
                );
                assert!(
                    c.crash_info.is_none(),
                    "snapshot with a pending crash in {}",
                    c.name
                );
                assert_eq!(
                    c.heap.log_len(),
                    0,
                    "snapshot with an open recovery window in {}",
                    c.name
                );
                let prev_manifest = prev.and_then(|p| p.comps.get(i)).map(|p| &p.heap_manifest);
                let (journal_reuse, journal_capacity) = c.heap.journal_warmth();
                CompSnapshot {
                    name: c.name,
                    heap_manifest: c.heap.clone_image(store, prev_manifest),
                    heap_write_epoch: c.heap.write_epoch(),
                    heap_stats: *c.heap.stats(),
                    journal_reuse,
                    journal_capacity,
                    window: c.window.clone(),
                    inbox: c.inbox.clone(),
                    pristine_digest: c
                        .pristine_image
                        .as_ref()
                        .expect("snapshot without a pristine image")
                        .content_digest(),
                }
            })
            .collect();
        KernelSnapshot {
            clock: self.clock,
            comps,
            timers: self.timers.clone(),
            timer_seq: self.timer_seq,
            next_msg_id: self.next_msg_id,
            next_span_id: self.next_span_id,
            recovery_epoch: self.recovery_epoch,
            rr_cursor: self.rr_cursor,
            axiom: self.axiom.clone(),
            control: self.control.clone(),
            series: self.series.export_state(),
            tracer: self.tracer.export_state(),
            cas: self.cas_fingerprint(),
        }
    }

    /// Whether [`Kernel::adopt_snapshot`] can re-target this kernel at
    /// `snap` without violating its invariants: same topology, every
    /// component `Alive` with a closed window, no recovery/shutdown in
    /// flight, and every pristine image byte-equal to the donor's. Used by
    /// the campaign forge to decide between re-adopting a worker's kernel
    /// and booting a fresh fork.
    pub fn can_adopt(&self, snap: &KernelSnapshot<P>) -> bool {
        self.initialized
            && self.control.recovering.is_none()
            && self.shutdown.is_none()
            && self.shutdown_pending.is_none()
            && self.comps.len() == snap.comps.len()
            && (0..)
                .zip(self.comps.iter().zip(&snap.comps))
                .all(|(i, (c, s))| {
                    c.name == s.name
                        && self.control.status(i) == CompStatusCode::Alive
                        && c.crash_info.is_none()
                        && c.heap.log_len() == 0
                        && c.pristine_image
                            .as_ref()
                            .is_some_and(|i| i.content_digest() == s.pristine_digest)
                })
    }

    /// Re-targets this kernel at `snap`: restores every heap from its
    /// manifest (O(dirty) — objects whose parent-line epoch matches the
    /// manifest are not touched), then overwrites the scheduler state,
    /// axiom, control state, metrics, trace ring and telemetry series with
    /// the donor's. Any armed fault hook is replaced with [`NoFaults`].
    ///
    /// After adoption the kernel is byte-equivalent to the donor at capture
    /// time. Returns the aggregate restore cost across all heaps.
    ///
    /// # Panics
    ///
    /// Panics if the topology differs, a pristine image diverges from the
    /// donor's, a recovery window is open, or a manifest fails integrity
    /// verification. Call [`Kernel::can_adopt`] first when adopting into a
    /// kernel that has run arbitrary work since boot.
    pub fn adopt_snapshot(&mut self, snap: &KernelSnapshot<P>, store: &ChunkStore) -> RestoreStats {
        assert!(
            self.initialized,
            "adopt_snapshot() before init_components()"
        );
        assert_eq!(
            self.comps.len(),
            snap.comps.len(),
            "adopt_snapshot() across different topologies"
        );
        let mut total = RestoreStats::default();
        for (c, s) in self.comps.iter_mut().zip(&snap.comps) {
            assert_eq!(c.name, s.name, "adopt_snapshot() component order mismatch");
            let pristine = c
                .pristine_image
                .as_ref()
                .expect("adopt_snapshot() without a pristine image");
            assert_eq!(
                pristine.content_digest(),
                s.pristine_digest,
                "pristine clone image of {} diverged from the snapshot donor's",
                c.name
            );
            assert_eq!(
                c.heap.log_len(),
                0,
                "adopt_snapshot() with an open recovery window in {}",
                c.name
            );
            let r = c
                .heap
                .adopt_image(&s.heap_manifest, store, s.heap_write_epoch)
                .expect("snapshot manifest failed integrity verification");
            total.clean_objects += r.clean_objects;
            total.dirty_objects += r.dirty_objects;
            total.clean_chunks += r.clean_chunks;
            total.dirty_chunks += r.dirty_chunks;
            total.bytes_restored += r.bytes_restored;
            c.heap.set_stats(s.heap_stats);
            c.heap
                .restore_journal_warmth(s.journal_reuse, s.journal_capacity);
            c.window = s.window.clone();
            c.inbox = s.inbox.clone();
            c.crash_info = None;
        }
        self.clock = snap.clock;
        self.timers = snap.timers.clone();
        self.timer_seq = snap.timer_seq;
        self.next_msg_id = snap.next_msg_id;
        self.next_span_id = snap.next_span_id;
        self.recovery_epoch = snap.recovery_epoch;
        self.rr_cursor = snap.rr_cursor;
        self.shutdown = None;
        self.shutdown_pending = None;
        self.user_replies.clear();
        self.kill_events.clear();
        self.wd.clear();
        self.hook = Box::new(NoFaults);
        self.axiom = snap.axiom.clone();
        self.control = snap.control.clone();
        self.series.restore_state(&snap.series);
        self.tracer.restore_state(&snap.tracer);
        total
    }
}
