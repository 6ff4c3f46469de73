//! A forged injection equals its from-boot rerun, and adopting a snapshot
//! costs a constant number of allocator calls.
//!
//! The forge runs a late-window campaign (every variant forks at its
//! site's last-occurrence step) over a workload with a bulk prefix
//! ([`ScriptWorkload::stress_rounds`]). A stride subsample of the same
//! plan is replayed from boot — replaying every variant is exactly the
//! cost the forge removes — and each sampled record must be byte-identical
//! to the forged one (fork equivalence). Adoption allocates for
//! control-plane state only, *independent of the prefix length*: clean
//! heap chunks are restored without allocating. Profiling a site the
//! planner has seen allocates nothing either.

use osiris_checkpoint::ChunkStore;
use osiris_core::PolicyKind;
use osiris_faults::forge::{forge_config, Boundary, ScriptWorkload};
use osiris_faults::{Forge, ForgeConfig, Recorder};
use osiris_kernel::{FaultHook, Probe, SiteKind};
use osiris_servers::Os;

use super::{Checks, Scale, Want};

/// Most allocator calls one snapshot adoption may make: what it makes today.
const READOPT_ALLOC_BOUND: u64 = 156;

/// Allocator calls of one warmed snapshot adoption after a clean prefix of
/// `stress_rounds` bulk rounds per step.
fn readopt_allocs(stress_rounds: u32, c: &Checks) -> Option<u64> {
    let script = ScriptWorkload { stress_rounds };
    let mut store = ChunkStore::new();
    let mut parent = Os::new(forge_config(PolicyKind::Enhanced));
    let run = script.run_range(&mut parent, 0..ScriptWorkload::BULK_STEPS);
    assert!(run.clean(), "clean prefix: {:?}", run.outcome);
    let snap = parent.snapshot_into(&mut store, None);
    let (mut os, _) = Os::fork_from(&snap, &store);
    for _ in 0..3 {
        os.try_readopt(&snap, &store).expect("warmup readopt");
    }
    c.counted(|| os.try_readopt(&snap, &store).expect("measured readopt"))
        .1
}

/// Allocator calls of 10,000 probes of already-seen sites through the
/// site-profiling hook: a probe is counted under its own `&'static str`s.
fn profiler_allocs(c: &mut Checks) {
    let sites = [
        ("pm", "pm.fork.validate", SiteKind::Block),
        ("vfs", "vfs.read.cache", SiteKind::Branch),
        ("vm", "vm.brk.grow", SiteKind::Value),
    ];
    let probes = sites.map(|(component, site, kind)| Probe {
        component,
        site,
        kind,
        now: 0,
        window_open: true,
        replyable: true,
    });
    let mut hook = Recorder::new();
    for p in &probes {
        hook.on_site(p);
    }
    let ((), allocs) = c.counted(|| {
        for p in probes.iter().cycle().take(10_000) {
            hook.on_site(p);
        }
    });
    c.push_allocs(
        "forge/step_profiler_10k_probe_allocs".into(),
        allocs,
        Want::Eq(0),
    );
}

pub(super) fn checks(scale: Scale, c: &mut Checks) {
    profiler_allocs(c);
    // The stride walks a policy-major plan, so the sample covers every
    // policy and model.
    let (stress_rounds, stride) = match scale {
        Scale::Full => (1200, 16),
        Scale::Small => (8, 64),
    };
    let forge = Forge::new(ForgeConfig {
        script: ScriptWorkload { stress_rounds },
        inject_at: Boundary::Late,
        threads: 4,
        budget: 512,
        ..ForgeConfig::default()
    });
    let plan = forge.plan();
    let forged = forge.run_plan(&plan);
    // Rendering the campaign report allocates its one `String`, grown by
    // doubling from empty to 433,668 bytes (17 steps), and the nodes of
    // the (policy, component) matrix it folds the records into (4).
    let (_, report_allocs) = c.counted(|| forged.campaign.report_json().pretty());
    c.push_allocs(
        "faults/report_render_allocs".into(),
        report_allocs,
        Want::Eq(21),
    );
    let forged = forged.campaign.records();

    let (indices, sample): (Vec<usize>, Vec<_>) = plan
        .variants
        .iter()
        .enumerate()
        .step_by(stride)
        .map(|(i, v)| (i, v.clone()))
        .unzip();
    let from_boot = forge.run_baseline(&sample);
    let mismatches = indices
        .iter()
        .zip(&from_boot)
        .filter(|(&i, b)| format!("{:?}", forged[i]) != format!("{b:?}"))
        .count();
    c.push(
        "forge/sampled_records".into(),
        from_boot.len() as u64,
        Want::AtLeast(4),
    );
    c.push(
        "forge/record_mismatches".into(),
        mismatches as u64,
        Want::Eq(0),
    );

    let small = readopt_allocs(0, c);
    let large = readopt_allocs(stress_rounds, c);
    c.push_allocs(
        "forge/readopt_allocs_large_vs_small_prefix".into(),
        large,
        Want::Eq(small.unwrap_or(0)),
    );
    c.push_allocs(
        "forge/readopt_allocs".into(),
        large,
        Want::AtMost(READOPT_ALLOC_BOUND),
    );
}
