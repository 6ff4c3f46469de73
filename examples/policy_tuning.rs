//! Composable recovery policies (paper §VII): define a *custom* policy and
//! measure the recovery-coverage / overhead trade-off against the built-in
//! pessimistic and enhanced policies.
//!
//! The custom "paranoid-DS" policy behaves like the enhanced policy but
//! refuses to recover unless the window never saw *any* outgoing message —
//! except it still allows heartbeat pings. It demonstrates the
//! `RecoveryPolicy` extension point: window control and reconciliation are
//! both pluggable.
//!
//! ```text
//! cargo run --release --example policy_tuning
//! ```

use osiris::core::{
    ActionCode, CrashContext, MessageKind, PolicyKind, RecoveryDecision, RecoveryPolicy, SeepClass,
    SeepMeta,
};
use osiris::workloads::run_suite_with;
use osiris::{Os, OsConfig};

/// Enhanced window control for pings only; pessimistic otherwise; shuts
/// down unless the failing request is replyable and the window is open.
#[derive(Clone, Copy, Debug)]
struct PingOnly;

impl RecoveryPolicy for PingOnly {
    fn name(&self) -> &'static str {
        "ping-only"
    }
    fn send_keeps_window_open(&self, seep: &SeepMeta) -> bool {
        // Only liveness probes (non-state-modifying *requests*) are free;
        // even read-only notifications close the window.
        seep.kind == MessageKind::Request && seep.class == SeepClass::NonStateModifying
    }
    fn reconcile(&self, crash: &CrashContext) -> RecoveryDecision {
        if crash.in_recovery_code {
            return RecoveryDecision::new(ActionCode::UncontrolledCrash, false);
        }
        if crash.window_open && crash.reply_possible {
            RecoveryDecision::new(ActionCode::RollbackErrorReply, true)
        } else {
            RecoveryDecision::new(ActionCode::ControlledShutdown, false)
        }
    }
    fn kind(&self) -> PolicyKind {
        PolicyKind::Custom
    }
}

fn coverage(cfg: OsConfig) -> Vec<(String, f64)> {
    let (_, os): (_, Os) = run_suite_with(cfg, None);
    os.reports()
        .into_iter()
        .filter(|r| ["pm", "vfs", "vm", "ds", "rs"].contains(&r.name))
        .map(|r| (r.name.to_string(), 100.0 * r.window.coverage_by_sites()))
        .collect()
}

fn main() {
    osiris::install_quiet_panic_hook();

    let pess = coverage(OsConfig::with_policy(PolicyKind::Pessimistic));
    let enh = coverage(OsConfig::with_policy(PolicyKind::Enhanced));
    let custom = coverage(OsConfig {
        custom_policy: Some(Box::new(PingOnly)),
        ..Default::default()
    });

    println!("recovery coverage (% of executed sites inside windows)\n");
    println!(
        "{:<8} {:>12} {:>10} {:>10}",
        "server", "pessimistic", "ping-only", "enhanced"
    );
    for i in 0..pess.len() {
        println!(
            "{:<8} {:>12.1} {:>10.1} {:>10.1}",
            pess[i].0, pess[i].1, custom[i].1, enh[i].1
        );
    }
    println!("\nthe custom policy sits between the two built-ins: it keeps");
    println!("heartbeat rounds recoverable (unlike pessimistic) but treats the");
    println!("DS trace announcements as window-closing (unlike enhanced).");
}
