//! Axiom (control-plane log) emit path.
//!
//! Every control-plane transition the kernel seals runs the same two-step
//! emit: fold the event into the live [`ControlState`] (always — the fold
//! *is* the control plane) and append it to the digest-chained
//! [`AxiomLog`].
//!
//! * **baseline** — control fold only, no log appended to.
//! * **disabled** — fold plus an append on a disabled log; each emit pays
//!   one branch on the `enabled` bool.
//! * **recording** — each emit FNV-chains a fixed-width record into the
//!   log, which is sized at [`AxiomLog::new`] time.

use osiris_axiom::{
    ActionCode, AxiomConfig, AxiomEvent, AxiomLog, CloseCode, ControlState, IntentPhaseCode,
    SeepClassCode,
};
use osiris_rng::Rng;

use crate::json::Json;
use crate::overhead::{Attach, Extra, Layer, Scale};

/// Serialized log image: a 24-byte header plus 41 bytes per record.
const HEADER_BYTES: u64 = 24;
const RECORD_BYTES: u64 = 41;

/// The axiom layer.
pub struct Axiom {
    /// Synthetic recovery windows per repetition.
    windows: u64,
    /// The measured schedule and the shorter one `setup` warms up on.
    events: Vec<AxiomEvent>,
    warmup: Vec<AxiomEvent>,
}

/// One open/close pair per window, with every `crash_every`-th window
/// expanded into the full crash → intent → decision → done sequence so the
/// fold's array writes are exercised, not just the counters.
fn gen_schedule(r: &mut Rng, windows: u64, crash_every: u64) -> Vec<AxiomEvent> {
    let mut events = vec![AxiomEvent::Genesis {
        comps: 6,
        config_digest: 0xA71,
    }];
    for w in 0..windows {
        let comp = r.below(6) as u8;
        events.push(AxiomEvent::WindowOpen { comp });
        if w % crash_every == crash_every - 1 {
            events.extend([
                AxiomEvent::WindowClose {
                    comp,
                    reason: CloseCode::Rollback,
                    class: SeepClassCode::StateModifying,
                },
                AxiomEvent::Crash { comp },
                AxiomEvent::IntentRecorded {
                    comp,
                    phase: IntentPhaseCode::Notified,
                },
                AxiomEvent::RecoveryDecision {
                    comp,
                    action: ActionCode::RollbackErrorReply,
                },
                AxiomEvent::RecoveryDone {
                    comp,
                    cycles: r.below(10_000),
                },
            ]);
        } else {
            events.push(AxiomEvent::WindowClose {
                comp,
                reason: CloseCode::Completed,
                class: SeepClassCode::None,
            });
        }
    }
    events
}

impl Axiom {
    /// The layer at `scale`.
    pub fn new(scale: Scale) -> Axiom {
        let (windows, warmup_windows) = match scale {
            Scale::Full => (200_000, 2_000),
            Scale::Check => (40_000, 1_000),
        };
        let mut r = Rng::new(0xA10);
        Axiom {
            windows,
            events: gen_schedule(&mut r, windows, 16),
            warmup: gen_schedule(&mut r, warmup_windows, 16),
        }
    }
}

/// One arm's fold state and (possibly placebo) log.
pub struct State {
    control: ControlState,
    log: AxiomLog,
}

#[inline]
fn emit(m: &mut State, attach: Attach, events: &[AxiomEvent]) {
    let mut now = 0u64;
    if attach == Attach::None {
        for e in events {
            now += 7;
            m.control.apply(now, e);
        }
    } else {
        for e in events {
            now += 7;
            m.control.apply(now, e);
            m.log.append(now, *e);
        }
    }
}

impl Layer for Axiom {
    type State = State;
    const UNIT: &'static str = "event";
    const ARMS: [&'static str; 3] = [
        "baseline_fold_only",
        "attached_disabled",
        "attached_recording",
    ];

    fn params(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("windows", self.windows),
            ("events_per_rep", self.events.len() as u64),
        ]
    }

    fn units(&self) -> u64 {
        self.events.len() as u64
    }

    fn setup(&self, attach: Attach) -> State {
        // The baseline builds a log too and simply never appends to it.
        let mut m = State {
            control: ControlState::new(),
            log: AxiomLog::new(AxiomConfig {
                enabled: attach == Attach::Enabled,
                capacity: self.events.len(),
            }),
        };
        emit(&mut m, attach, &self.warmup);
        m.control = ControlState::new();
        m.log.reset();
        m
    }

    fn run(&self, m: &mut State, attach: Attach) {
        emit(m, attach, &self.events);
    }

    fn extras(&self, m: &State) -> Vec<Extra> {
        let events = self.events.len() as u64;
        vec![
            (
                "records_retained",
                Json::UInt(m.log.len() as u64),
                Some(Json::UInt(events)),
            ),
            (
                "log_bytes",
                Json::UInt(m.log.bytes_len() as u64),
                Some(Json::UInt(HEADER_BYTES + RECORD_BYTES * events)),
            ),
        ]
    }
}
