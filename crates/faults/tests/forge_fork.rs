//! Fork-equivalence differentials: a run forked from a snapshot must be
//! **byte-identical** — metrics export, axiom chain, trace — to a from-boot
//! run reaching the same state, fault-free and with an injector armed.

use osiris_checkpoint::ChunkStore;
use osiris_core::PolicyKind;
use osiris_faults::forge::{forge_config, ScriptWorkload};
use osiris_faults::{FaultKind, FaultPlan, Injector, Recorder};
use osiris_kernel::NoFaults;
use osiris_servers::Os;

const STEPS: usize = ScriptWorkload::STEPS;

/// The exports the differential compares byte-for-byte.
fn exports(os: &mut Os) -> (String, Vec<u8>, String) {
    (os.metrics_prometheus(), os.axiom_bytes(), os.trace_text())
}

#[test]
fn fork_equivalence_fault_free() {
    let script = ScriptWorkload::default();
    for policy in [PolicyKind::Enhanced, PolicyKind::Naive] {
        let mut baseline = Os::new(forge_config(policy));
        let run = script.run(&mut baseline);
        assert!(run.clean(), "baseline run not clean: {:?}", run.outcome);
        let want = exports(&mut baseline);

        for split in [1, 3, 5, 7] {
            let mut store = ChunkStore::new();
            let mut parent = Os::new(forge_config(policy));
            let prefix = script.run_range(&mut parent, 0..split);
            assert!(prefix.clean(), "prefix not clean: {:?}", prefix.outcome);
            let snap = parent.snapshot_into(&mut store, None);
            let (mut forked, _stats) = Os::fork_from(&snap, &store);
            let suffix = script.run_range(&mut forked, split..STEPS);
            assert!(suffix.clean(), "suffix not clean: {:?}", suffix.outcome);
            let got = exports(&mut forked);
            assert_eq!(want.0, got.0, "metrics diverge at split {split} ({policy})");
            assert_eq!(want.1, got.1, "axiom diverges at split {split} ({policy})");
            assert_eq!(want.2, got.2, "trace diverges at split {split} ({policy})");
        }
    }
}

/// Finds the first profiled site of `component` and its first step.
fn first_site(component: &str) -> (osiris_faults::SiteId, usize) {
    let script = ScriptWorkload::default();
    let mut os = Os::new(forge_config(PolicyKind::Enhanced));
    let profiler = Recorder::new();
    os.set_fault_hook(Box::new(profiler.clone()));
    let run = script.run_range_with(&mut os, 0..STEPS, |s| profiler.set_step(s));
    assert!(run.clean(), "profiling run not clean: {:?}", run.outcome);
    let (site, obs) = profiler
        .profile()
        .first_site_of(component)
        .expect("component has profiled sites");
    (site, obs.first_step)
}

#[test]
fn fork_equivalence_with_injector_armed() {
    osiris_kernel::install_quiet_panic_hook();
    let script = ScriptWorkload::default();
    let (site, first_step) = first_site("vfs");
    assert!(first_step > 0, "vfs must first fire after step 0");

    for transient in [true, false] {
        let plan = FaultPlan {
            site: site.clone(),
            kind: FaultKind::Crash,
            transient,
        };
        // From-boot run: injector armed from cycle zero. The injector is
        // pass-through until its site executes, so the prefix is clean.
        let mut baseline = Os::new(forge_config(PolicyKind::Enhanced));
        baseline.set_fault_hook(Box::new(Injector::new(&plan)));
        let base_run = script.run(&mut baseline);
        let want = exports(&mut baseline);

        // Forked run: clean unarmed prefix to the site's reachability
        // boundary, snapshot, fork, arm, replay the suffix.
        for split in [first_step, 1] {
            let mut store = ChunkStore::new();
            let mut parent = Os::new(forge_config(PolicyKind::Enhanced));
            let prefix = script.run_range(&mut parent, 0..split);
            assert!(prefix.clean(), "prefix not clean: {:?}", prefix.outcome);
            let snap = parent.snapshot_into(&mut store, None);
            let (mut forked, _stats) = Os::fork_from(&snap, &store);
            forked.set_fault_hook(Box::new(Injector::new(&plan)));
            let fork_run = script.run_range(&mut forked, split..STEPS);
            assert_eq!(
                format!("{:?}", base_run.outcome),
                format!("{:?}", fork_run.outcome),
                "outcomes diverge (transient={transient}, split={split})"
            );
            let got = exports(&mut forked);
            assert_eq!(
                want.0, got.0,
                "metrics diverge (transient={transient}, split={split})"
            );
            assert_eq!(
                want.1, got.1,
                "axiom diverges (transient={transient}, split={split})"
            );
            assert_eq!(
                want.2, got.2,
                "trace diverges (transient={transient}, split={split})"
            );
        }
    }
}

#[test]
fn readopt_matches_fresh_fork() {
    osiris_kernel::install_quiet_panic_hook();
    let script = ScriptWorkload::default();
    let mut store = ChunkStore::new();
    let mut parent = Os::new(forge_config(PolicyKind::Enhanced));
    let prefix = script.run_range(&mut parent, 0..3);
    assert!(prefix.clean());
    let snap = parent.snapshot_into(&mut store, None);

    // Path A: fresh fork, run the suffix.
    let (mut fresh, _stats) = Os::fork_from(&snap, &store);
    let run_a = script.run_range(&mut fresh, 3..STEPS);
    assert!(run_a.clean(), "fresh-fork suffix: {:?}", run_a.outcome);
    let want = exports(&mut fresh);

    // Path B: a worker OS that already ran something else (including an
    // injected crash) re-adopts the same snapshot in place.
    let mut worker = Os::new(forge_config(PolicyKind::Enhanced));
    let (site, _) = first_site("ds");
    worker.set_fault_hook(Box::new(Injector::new(&FaultPlan {
        site,
        kind: FaultKind::Crash,
        transient: true,
    })));
    let _ = script.run_range(&mut worker, 0..5);
    worker.set_fault_hook(Box::new(NoFaults));
    let stats = worker
        .try_readopt(&snap, &store)
        .expect("same-config worker re-adopts");
    assert!(stats.bytes_restored > 0, "adoption restores dirty state");
    let run_b = script.run_range(&mut worker, 3..STEPS);
    assert!(run_b.clean(), "readopt suffix: {:?}", run_b.outcome);
    let got = exports(&mut worker);
    assert_eq!(want.0, got.0, "metrics diverge after readopt");
    assert_eq!(want.1, got.1, "axiom diverges after readopt");
    assert_eq!(want.2, got.2, "trace diverges after readopt");
}

/// A snapshot carries the registry's values. A fork, and a worker that ran
/// something else and re-adopts, must export the donor's counters exactly,
/// straight away, and count on from them.
#[test]
fn fork_and_readopt_export_the_donors_counters() {
    let script = ScriptWorkload::default();
    let mut store = ChunkStore::new();
    let mut donor = Os::new(forge_config(PolicyKind::Enhanced));
    assert!(script.run_range(&mut donor, 0..3).clean());
    let snap = donor.snapshot_into(&mut store, None);
    let want = (donor.metrics_prometheus(), donor.metrics_json().pretty());
    assert!(donor.metrics().syscalls > 0 && donor.metrics().ipc_delivered > 0);

    let (mut forked, _stats) = Os::fork_from(&snap, &store);
    let mut worker = Os::new(forge_config(PolicyKind::Enhanced));
    assert!(script.run_range(&mut worker, 0..6).clean());
    worker
        .try_readopt(&snap, &store)
        .expect("same-config worker re-adopts");
    for (who, os) in [("fork", &mut forked), ("readopted worker", &mut worker)] {
        let got = (os.metrics_prometheus(), os.metrics_json().pretty());
        assert!(want == got, "{who} does not export the donor's counters");
        assert_eq!(os.metrics().syscalls, donor.metrics().syscalls, "{who}");
    }
    assert!(script.run_range(&mut donor, 3..STEPS).clean());
    assert!(script.run_range(&mut worker, 3..STEPS).clean());
    assert!(
        donor.metrics_prometheus() == worker.metrics_prometheus(),
        "the readopted worker counts on from the donor's totals"
    );
}

/// Snapshot → adopt → snapshot on a forked `Os` is the identity: the fork
/// re-adopts its own capture after running on and exports what it exported
/// at the capture, and a capture of that state forks into the same bytes.
#[test]
fn snapshot_adopt_snapshot_round_trips_on_a_fork() {
    let script = ScriptWorkload::default();
    let mut store = ChunkStore::new();
    let mut donor = Os::new(forge_config(PolicyKind::Enhanced));
    assert!(script.run_range(&mut donor, 0..3).clean());
    let snap = donor.snapshot_into(&mut store, None);
    let (mut forked, _stats) = Os::fork_from(&snap, &store);
    assert!(script.run_range(&mut forked, 3..5).clean());

    let first = forked.snapshot_into(&mut store, None);
    let want = exports(&mut forked);
    assert!(script.run_range(&mut forked, 5..STEPS).clean());
    assert!(want != exports(&mut forked), "the fork ran on");
    forked
        .try_readopt(&first, &store)
        .expect("a fork re-adopts its own capture");
    assert!(want == exports(&mut forked), "adopt is not the inverse");
    let second = forked.snapshot_into(&mut store, None);
    let (mut again, _stats) = Os::fork_from(&second, &store);
    assert!(want == exports(&mut again), "the second capture differs");
    assert_eq!(
        forked.metrics_json().pretty(),
        again.metrics_json().pretty()
    );
}

/// Adoption restores the tracer's ring but not its configuration, so a
/// worker whose ring capacity differs from the donor's must be refused: it
/// would record the suffix into a ring of another size than the snapshot's.
#[test]
fn readopt_refuses_a_different_trace_config() {
    let mut small_ring = forge_config(PolicyKind::Enhanced);
    small_ring.trace.capacity = 64;
    let mut store = ChunkStore::new();
    let mut parent = Os::new(small_ring);
    let prefix = ScriptWorkload::default().run_range(&mut parent, 0..3);
    assert!(prefix.clean());
    let snap = parent.snapshot_into(&mut store, None);

    let mut worker = Os::new(forge_config(PolicyKind::Enhanced));
    assert_eq!(worker.config().trace.capacity, 2048);
    assert!(
        worker.try_readopt(&snap, &store).is_none(),
        "a worker with another ring capacity re-adopted the snapshot"
    );
    snap.release(&mut store);
}

#[test]
fn chained_snapshots_share_chunks() {
    let script = ScriptWorkload::default();
    let mut store = ChunkStore::new();
    let mut os = Os::new(forge_config(PolicyKind::Enhanced));
    let mut at = 0;
    let mut prev = None;
    let mut dirty = Vec::new();
    for b in [2, 4, 6] {
        let run = script.run_range(&mut os, at..b);
        assert!(run.clean());
        let snap = os.snapshot_into(&mut store, prev.as_ref());
        dirty.push(store.resident_bytes());
        prev = Some(snap);
        at = b;
    }
    // Every later snapshot reuses unchanged chunks from its predecessor:
    // incremental insertions must stay well below a full image's worth.
    let (first, rest) = dirty.split_first().expect("three snapshots");
    for (i, ins) in rest.iter().enumerate() {
        let delta = ins - dirty[i];
        assert!(
            delta < *first,
            "snapshot {} inserted {} bytes, not O(dirty) (full image ~{})",
            i + 1,
            delta,
            first
        );
    }
}
