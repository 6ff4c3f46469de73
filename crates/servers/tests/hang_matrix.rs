//! Hang-fault handling: hung components are detected by the Recovery
//! Server's heartbeats (paper §II-E, §IV-C), killed, and then recovered
//! through exactly the same decision logic as crashes.

use osiris_core::PolicyKind;
use osiris_faults::{plan_faults, FaultKind, FaultModel, FaultPlan, Injector, Recorder};
use osiris_kernel::{RunOutcome, ShutdownKind};
use osiris_servers::OsConfig;
use osiris_workloads::run_suite_with;

fn cfg(policy: PolicyKind) -> OsConfig {
    OsConfig {
        policy,
        vm_frames: 2048,
        ..Default::default()
    }
}

#[test]
fn hang_in_ds_is_detected_and_recovered() {
    osiris_kernel::install_quiet_panic_hook();
    let plan = FaultPlan::once(FaultKind::Hang, "ds.put.commit");
    let (outcome, os) = run_suite_with(
        cfg(PolicyKind::Enhanced),
        Some(Box::new(Injector::new(&plan))),
    );
    // The hung DS is killed by the heartbeat round and recovered; the
    // in-flight put is error-virtualized, so its test fails but the run
    // completes.
    match outcome {
        RunOutcome::Completed { init_code, .. } => assert!(init_code >= 1),
        other => panic!("hang must be survived: {other:?}"),
    }
    assert_eq!(os.metrics().hangs, 1);
    assert!(os.metrics().recovered_rollback >= 1);
    assert!(os.audit().is_empty(), "audit: {:?}", os.audit());
}

#[test]
fn transient_hangs_never_produce_uncontrolled_crashes_under_enhanced() {
    // Sweep: a transient hang at every PM/DS site triggered by the suite.
    // Under the enhanced policy the outcome may be pass, fail, hang
    // (workload-level deadlock) or controlled shutdown — but never an
    // uncontrolled kernel crash, and completed runs stay consistent.
    osiris_kernel::install_quiet_panic_hook();
    let recorder = Recorder::new();
    let handle = recorder.clone();
    let (_, _) = run_suite_with(cfg(PolicyKind::Enhanced), Some(Box::new(recorder)));
    let profile = handle.profile().restrict_to(&["ds"]);
    let plans: Vec<FaultPlan> = plan_faults(&profile, FaultModel::FailStop, 1)
        .into_iter()
        .map(|p| FaultPlan {
            kind: FaultKind::Hang,
            transient: true,
            ..p
        })
        .collect();
    assert!(plans.len() >= 5, "too few DS sites: {}", plans.len());
    for plan in plans {
        let (outcome, os) = run_suite_with(
            cfg(PolicyKind::Enhanced),
            Some(Box::new(Injector::new(&plan))),
        );
        if let RunOutcome::Shutdown(kind) = &outcome {
            assert!(
                matches!(kind, ShutdownKind::Controlled(_)),
                "uncontrolled crash from hang at {:?}: {:?}",
                plan,
                kind
            );
        }
        if outcome.completed() {
            assert!(
                os.audit().is_empty(),
                "audit after {:?}: {:?}",
                plan,
                os.audit()
            );
        }
        assert!(
            os.metrics().hangs >= 1,
            "the hang never fired for {:?}",
            plan
        );
    }
}
