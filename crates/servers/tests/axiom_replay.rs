//! The axiom's whole-system guarantees, end to end on the OSIRIS suite: a
//! reduction that matches the kernel's live bookkeeping, machine
//! reconstruction from the recorded bytes alone, and divergence bisection
//! between runs that differ (byte-identical recording across identical
//! runs lives in `export_determinism.rs`).

use osiris_axiom::{bisect, reduce, AxiomConfig, AxiomError, AxiomEvent, AxiomLog};
use osiris_core::PolicyKind;
use osiris_faults::PeriodicCrash;
use osiris_servers::{Os, OsConfig};
use osiris_workloads::run_suite_with;

fn recorded_cfg(policy: PolicyKind) -> OsConfig {
    let mut cfg = OsConfig::with_policy(policy);
    cfg.axiom = AxiomConfig::on();
    // Sustained periodic crashes need the legacy restart-forever behaviour
    // so every crash recovers (same setup as the trace determinism tests).
    cfg.escalation = osiris_core::EscalationPolicy::unbounded();
    cfg
}

fn run_recorded(policy: PolicyKind, faulted: bool) -> Os {
    let hook = if faulted {
        Some(Box::new(PeriodicCrash::new("pm", 200_000)) as Box<dyn osiris_kernel::FaultHook>)
    } else {
        None
    };
    let (_, os) = run_suite_with(recorded_cfg(policy), hook);
    os
}

#[test]
fn reduction_matches_the_live_kernel() {
    let os = run_recorded(PolicyKind::Enhanced, true);
    let reduced = reduce(os.axiom().records());
    assert_eq!(
        &reduced,
        os.control_state(),
        "pure reduction must equal the incrementally folded control state"
    );
}

#[test]
fn replay_reconstructs_a_machine_from_bytes() {
    let live = run_recorded(PolicyKind::Enhanced, true);
    let bytes = live.axiom_bytes();

    let rebooted =
        Os::replay(recorded_cfg(PolicyKind::Enhanced), &bytes).expect("replay from bytes");
    assert_eq!(
        rebooted.control_state(),
        live.control_state(),
        "freshly booted components must take on the statuses the axiom proves"
    );
    assert_eq!(rebooted.axiom().head_digest(), live.axiom().head_digest());

    // A corrupted image must be rejected, not adopted.
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    assert!(
        Os::replay(recorded_cfg(PolicyKind::Enhanced), &flipped).is_err(),
        "a bit flip anywhere must break the chain"
    );
}

#[test]
fn replay_refuses_an_axiom_recorded_under_another_configuration() {
    let bytes = run_recorded(PolicyKind::Enhanced, true).axiom_bytes();
    assert_eq!(
        Os::replay(recorded_cfg(PolicyKind::Pessimistic), &bytes).err(),
        Some(AxiomError::ConfigMismatch),
        "genesis seals the policy: an Enhanced history is not a Pessimistic machine's"
    );
    // An empty log proves no configuration, so any machine adopts it.
    let empty = AxiomLog::new(AxiomConfig::on()).to_bytes();
    assert!(Os::replay(recorded_cfg(PolicyKind::Pessimistic), &empty).is_ok());
}

#[test]
fn bisect_pinpoints_where_runs_diverge() {
    // Same policy, different fault schedule: the histories share the boot
    // prefix and split at the first crash-driven transition.
    let faulted = run_recorded(PolicyKind::Enhanced, true);
    let clean = run_recorded(PolicyKind::Enhanced, false);
    let d = bisect(faulted.axiom().records(), clean.axiom().records())
        .expect("a faulted run must diverge from a clean one");
    assert!(
        d.index > 0,
        "both runs boot identically, so the divergence is past genesis"
    );

    // Different policies are different configurations: genesis seals the
    // policy into the config digest, so bisect reports divergence at seq 0
    // rather than letting incomparable histories look aligned.
    let enhanced = run_recorded(PolicyKind::Enhanced, true);
    let pessimistic = run_recorded(PolicyKind::Pessimistic, true);
    let d = bisect(enhanced.axiom().records(), pessimistic.axiom().records())
        .expect("cross-policy runs must diverge");
    assert_eq!(d.index, 0);
    assert!(matches!(
        d.a.expect("enhanced genesis").event,
        AxiomEvent::Genesis { .. }
    ));
}

#[test]
fn torn_tail_is_detected_before_reduction() {
    let os = run_recorded(PolicyKind::Enhanced, true);
    let bytes = os.axiom_bytes();
    // Simulate a crash mid-append: the trailing record is half-written.
    let torn = &bytes[..bytes.len() - 20];
    assert!(
        AxiomLog::from_bytes(torn).is_err(),
        "a torn tail must fail decode/verify, never reduce"
    );
}
