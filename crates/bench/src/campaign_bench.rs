//! Snapshot-fork campaign benchmark: forged injections vs from-boot
//! reruns.
//!
//! The forge runs a late-window fault campaign (every variant forks at
//! its site's last-occurrence step) over a workload with a configurable
//! bulk prefix ([`ScriptWorkload::stress_rounds`]). A classic from-boot
//! campaign pays boot + the whole clean prefix for every injection; the
//! forge pays one O(dirty) snapshot adoption. The bench measures both on
//! the **same variant plan** (the baseline on a deterministic stride
//! subsample — replaying every variant from boot is exactly the cost this
//! design removes), verifies the sampled records are byte-identical (fork
//! equivalence), and proves the fork hot path's allocation discipline:
//! adopting a snapshot makes a small constant number of allocator calls
//! for control-plane state, *independent of the prefix length* — clean
//! heap chunks are restored without allocating.
//!
//! `bench_campaign --check` enforces:
//! * forged injections/CPU-second ≥ [`SPEEDUP_FLOOR`]× the from-boot rate;
//! * sampled forge records == baseline records (same bytes, same order);
//! * allocator calls per snapshot adoption ≤ [`READOPT_ALLOC_BOUND`] and
//!   equal between a small-prefix and a large-prefix snapshot;
//! * 100% coverage of the planned FailStop matrix and ≥
//!   [`RECOVERY_COVERAGE_FLOOR`]% of the DoubleFault × DuringRecovery
//!   space within the default budget.

use std::time::Instant;

use osiris_checkpoint::ChunkStore;
use osiris_core::PolicyKind;
use osiris_faults::forge::{forge_config, Boundary, ScriptWorkload};
use osiris_faults::{Forge, ForgeConfig, ForgeResult};
use osiris_servers::Os;

use crate::json::{Json, JsonObj};

/// Minimum forged-vs-from-boot throughput ratio the gate enforces.
pub const SPEEDUP_FLOOR: f64 = 10.0;

/// Maximum allocator calls one snapshot adoption may make (control-plane
/// structures only; the heap restore itself must not allocate for clean
/// chunks).
pub const READOPT_ALLOC_BOUND: u64 = 256;

/// Minimum DoubleFault × DuringRecovery coverage (percent) within the
/// default budget.
pub const RECOVERY_COVERAGE_FLOOR: f64 = 90.0;

/// Benchmark configuration.
#[derive(Clone, Copy, Debug)]
pub struct CampaignBenchConfig {
    /// Bulk rounds per prefix step — the clean work a from-boot rerun
    /// replays and a fork skips.
    pub stress_rounds: u32,
    /// Worker threads (both sides use the same pool size, so wall-clock
    /// rate ratios equal CPU-second ratios).
    pub threads: usize,
    /// Forge injection budget.
    pub budget: usize,
    /// The baseline replays every `baseline_stride`-th planned variant
    /// from boot (plan order is policy-major, so a stride covers every
    /// policy and model).
    pub baseline_stride: usize,
    /// Timed repetitions of the forged sweep; the reported time is the
    /// minimum (standard min-of-reps discipline — scheduler noise only
    /// ever slows a run down).
    pub forge_reps: usize,
    /// Reads the process-wide allocation count, if the binary installed a
    /// counting allocator.
    pub alloc_count: Option<fn() -> u64>,
}

impl Default for CampaignBenchConfig {
    fn default() -> Self {
        CampaignBenchConfig {
            stress_rounds: 1200,
            threads: 4,
            budget: 512,
            baseline_stride: 8,
            forge_reps: 2,
            alloc_count: None,
        }
    }
}

impl CampaignBenchConfig {
    /// Scaled-down baseline sample for the CI gate; the forge side and the
    /// prefix length are unchanged (the speedup claim needs the real
    /// prefix), only the number of expensive from-boot reruns shrinks.
    pub fn quick() -> Self {
        CampaignBenchConfig {
            baseline_stride: 16,
            ..CampaignBenchConfig::default()
        }
    }

    fn forge(&self) -> Forge {
        Forge::new(ForgeConfig {
            script: ScriptWorkload {
                stress_rounds: self.stress_rounds,
            },
            inject_at: Boundary::Late,
            threads: self.threads,
            budget: self.budget,
            ..ForgeConfig::default()
        })
    }
}

/// Allocation counts for one snapshot adoption at two prefix scales.
#[derive(Clone, Copy, Debug)]
pub struct ReadoptAllocs {
    /// Allocator calls adopting a small-prefix (quickstart) snapshot.
    pub small_prefix: u64,
    /// Allocator calls adopting a large-prefix (bulk) snapshot.
    pub large_prefix: u64,
}

/// Benchmark results.
#[derive(Debug)]
pub struct CampaignBenchResult {
    /// The executed forge sweep (campaign + coverage report).
    pub forge: ForgeResult,
    /// Planned base-wave variants.
    pub planned: usize,
    /// Wall-clock seconds for the full forged sweep (snapshots included).
    pub forge_secs: f64,
    /// Forged injections per second.
    pub forge_rate: f64,
    /// From-boot reruns measured.
    pub baseline_runs: usize,
    /// Wall-clock seconds for the baseline sample.
    pub baseline_secs: f64,
    /// From-boot injections per second.
    pub baseline_rate: f64,
    /// Sampled records that differ between forge and baseline (fork
    /// equivalence requires 0).
    pub record_mismatches: usize,
    /// Allocator calls per adoption, when a counter is installed.
    pub readopt_allocs: Option<ReadoptAllocs>,
}

impl CampaignBenchResult {
    /// Forged-vs-from-boot throughput ratio.
    pub fn speedup(&self) -> f64 {
        self.forge_rate / self.baseline_rate
    }

    /// Renders the human-readable summary.
    pub fn render(&self) -> String {
        let r = &self.forge.report;
        let mut out = String::new();
        out.push_str("== snapshot-fork campaign bench ==\n");
        out.push_str(&format!(
            "forge:    {:>5} injections in {:>8.3} s  ({:>7.0} inj/s)\n",
            r.injections, self.forge_secs, self.forge_rate
        ));
        out.push_str(&format!(
            "baseline: {:>5} reruns     in {:>8.3} s  ({:>7.0} inj/s, stride sample)\n",
            self.baseline_runs, self.baseline_secs, self.baseline_rate
        ));
        out.push_str(&format!(
            "speedup:  {:.1}x forged vs from-boot (floor {SPEEDUP_FLOOR}x)\n",
            self.speedup()
        ));
        out.push_str(&format!(
            "records:  {}/{} sampled records identical\n",
            self.baseline_runs - self.record_mismatches,
            self.baseline_runs
        ));
        out.push_str(&format!(
            "forks:    {} fresh, {} re-adopted, {} dirty bytes, {} snapshots ({} manifest bytes)\n",
            r.stats.forks,
            r.stats.readopts,
            r.stats.fork_dirty_bytes,
            r.stats.snapshots,
            r.stats.snapshot_manifest_bytes
        ));
        out.push_str(&format!(
            "coverage: fail-stop {:.0}% ({}/{}), recovery space {:.0}% ({}/{}), {} outcome cells\n",
            r.fail_stop_pct(),
            r.fail_stop.1,
            r.fail_stop.0,
            r.recovery_space_pct(),
            r.recovery_space.1,
            r.recovery_space.0,
            r.outcome_cells
        ));
        out.push_str(&format!(
            "frontier: {} flips across {} sites, {} refinement runs\n",
            r.frontier.flips,
            r.frontier.sites.len(),
            r.refinements
        ));
        if let Some(a) = self.readopt_allocs {
            out.push_str(&format!(
                "adoption: {} allocator calls (small prefix) vs {} (large prefix), bound {}\n",
                a.small_prefix, a.large_prefix, READOPT_ALLOC_BOUND
            ));
        }
        out
    }

    /// The `BENCH_campaign.json` document: the headline block, the forge
    /// report and the campaign totals + matrix. The per-injection `records`
    /// array (hundreds of KiB) stays out of the checked-in file; see
    /// [`CampaignBenchResult::to_json_full`].
    pub fn to_json(&self) -> Json {
        let mut campaign = self.forge.campaign.report_json();
        if let Json::Obj(fields) = &mut campaign {
            fields.retain(|(key, _)| key != "records");
        }
        self.json_with(campaign)
    }

    /// [`CampaignBenchResult::to_json`] plus every per-injection record.
    pub fn to_json_full(&self) -> Json {
        self.json_with(self.forge.campaign.report_json())
    }

    fn json_with(&self, campaign: Json) -> Json {
        let mut obj = JsonObj::new()
            .field("planned", Json::UInt(self.planned as u64))
            .field("forge_secs", Json::Num(self.forge_secs))
            .field("forge_rate", Json::Num(self.forge_rate))
            .field("baseline_runs", Json::UInt(self.baseline_runs as u64))
            .field("baseline_secs", Json::Num(self.baseline_secs))
            .field("baseline_rate", Json::Num(self.baseline_rate))
            .field("speedup", Json::Num(self.speedup()))
            .field("speedup_floor", Json::Num(SPEEDUP_FLOOR))
            .field(
                "record_mismatches",
                Json::UInt(self.record_mismatches as u64),
            );
        if let Some(a) = self.readopt_allocs {
            obj = obj
                .field("readopt_allocs_small_prefix", Json::UInt(a.small_prefix))
                .field("readopt_allocs_large_prefix", Json::UInt(a.large_prefix))
                .field("readopt_alloc_bound", Json::UInt(READOPT_ALLOC_BOUND));
        }
        obj.field("forge", self.forge.report.to_json())
            .field("campaign", campaign)
            .build()
    }
}

/// Measures allocator calls for one warmed snapshot adoption at the given
/// prefix scale.
fn readopt_allocs(stress_rounds: u32, alloc_count: fn() -> u64) -> u64 {
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
    let before = alloc_count();
    os.try_readopt(&snap, &store).expect("measured readopt");
    alloc_count() - before
}

/// Runs the benchmark.
pub fn bench_campaign(cfg: CampaignBenchConfig) -> CampaignBenchResult {
    let forge = cfg.forge();
    let plan = forge.plan();
    let planned = plan.variants.len();

    let mut result = None;
    let mut forge_secs = f64::INFINITY;
    for _ in 0..cfg.forge_reps.max(1) {
        let t = Instant::now();
        let res = forge.run_plan(&plan);
        forge_secs = forge_secs.min(t.elapsed().as_secs_f64());
        if let Some(prev) = &result {
            let prev: &ForgeResult = prev;
            assert_eq!(
                prev.campaign.axiom_bytes(),
                res.campaign.axiom_bytes(),
                "repeated forged sweeps must be identical"
            );
        }
        result = Some(res);
    }
    let result = result.expect("at least one rep");
    let forge_rate = result.report.injections as f64 / forge_secs;

    // From-boot baseline on a deterministic stride subsample of the same
    // plan; compare against the forge's records for those plan indices.
    let stride = cfg.baseline_stride.max(1);
    let (indices, sample): (Vec<usize>, Vec<_>) = plan
        .variants
        .iter()
        .enumerate()
        .step_by(stride)
        .map(|(i, v)| (i, v.clone()))
        .unzip();
    let t = Instant::now();
    let baseline = forge.run_baseline(&sample);
    let baseline_secs = t.elapsed().as_secs_f64();
    let baseline_rate = baseline.len() as f64 / baseline_secs;

    let forged_records = result.campaign.records();
    let record_mismatches = indices
        .iter()
        .zip(baseline.iter())
        .filter(|(&i, b)| format!("{:?}", forged_records[i]) != format!("{b:?}"))
        .count();

    let readopt_allocs = cfg.alloc_count.map(|count| ReadoptAllocs {
        small_prefix: readopt_allocs(0, count),
        large_prefix: readopt_allocs(cfg.stress_rounds, count),
    });

    CampaignBenchResult {
        forge: result,
        planned,
        forge_secs,
        forge_rate,
        baseline_runs: baseline.len(),
        baseline_secs,
        baseline_rate,
        record_mismatches,
        readopt_allocs,
    }
}
