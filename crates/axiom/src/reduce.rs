//! Pure reduction of an axiom into control state.
//!
//! `ControlState` is the machine's entire control plane as a value: it is
//! what the kernel acts on at runtime (folded incrementally as events are
//! appended) and what a post-mortem [`reduce`] of a recorded axiom
//! reconstructs. The two agree by construction — both run [`ControlState::apply`]
//! over the same event sequence — which is the invariant the
//! `osiris-inspect replay` CI gate enforces end to end.

use crate::{AxiomEvent, AxiomRecord, IntentPhaseCode};

/// Upper bound on component indices tracked by the reduction. The
/// canonical topology registers 6 components; fixed arrays keep
/// [`ControlState`] `Copy`-free but allocation-free.
pub const MAX_COMPS: usize = 32;

/// Liveness status of one component, as reduced from the axiom: the only
/// liveness the kernel has (it schedules, probes and bounces by it).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum CompStatusCode {
    /// Running normally.
    #[default]
    Alive,
    /// Unresponsive to heartbeats; awaiting a kill + recovery.
    Hung,
    /// Fail-stopped; awaiting recovery.
    Crashed,
    /// Taken out of service by the escalation ladder.
    Quarantined,
}

/// One recovery-intent slot: the durable record that a recovery for this
/// component was in flight. The kernel's intent log is exactly the set of
/// active slots — a view over the axiom tail.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct IntentSlot {
    /// Whether an intent is outstanding for this component.
    pub active: bool,
    /// Last recorded lifecycle phase.
    pub phase: Option<IntentPhaseCode>,
    /// Times the kernel re-drove this intent after an RS crash.
    pub replays: u32,
}

/// Kernel + Recovery Server control state as a pure function of the axiom.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ControlState {
    /// Registered component count, from the `Genesis` event.
    pub comps: u8,
    /// Configuration digest, from the `Genesis` event.
    pub config_digest: u64,
    /// Per-component liveness.
    pub statuses: [CompStatusCode; MAX_COMPS],
    /// Bitmap of components with an open recovery window.
    pub windows_open: u32,
    /// Per-component recovery-intent slots.
    pub intents: [IntentSlot; MAX_COMPS],
    /// Per-component restarts inside the sliding escalation window (as of
    /// the last `EscalationStep`).
    pub restarts_in_window: [u32; MAX_COMPS],
    /// Per-component flag: the escalation budget was exhausted.
    pub budget_exhausted: [bool; MAX_COMPS],
    /// Target of the recovery conduct in flight, if any: while it is set,
    /// only the Recovery Server runs. Set when the kernel notifies the RS
    /// (`IntentRecorded { Notified }`) or re-drives an intent with no
    /// conduct in flight (`IntentReplayed`); cleared when the target
    /// recovers, is resolved or quarantined, and when the machine decides
    /// to shut down. Nothing else ends a conduct: not the RS failing
    /// mid-conduct (the kernel restarts it and re-drives the intent), nor a
    /// hung component the RS kills meanwhile.
    pub recovering: Option<u8>,
    /// `Some(controlled)` once a shutdown decision was taken.
    pub shutdown: Option<bool>,
    /// Total crashes observed.
    pub crashes: u64,
    /// Total hangs detected.
    pub hangs: u64,
    /// Total recoveries completed.
    pub recoveries: u64,
    /// Total recovery-phase fallbacks taken.
    pub fallbacks: u64,
    /// Total quarantines.
    pub quarantines: u64,
    /// Clone-pool images actually re-captured.
    pub pool_refreshes: u64,
    /// Campaign injections folded (campaign-owned axioms only).
    pub injections: u64,
    /// Armed request deadlines that expired.
    pub deadline_expiries: u64,
    /// Watchdog verdicts concluded (hung, slow, reply-lost, corrupt-reply).
    pub watchdog_verdicts: u64,
    /// Transparent retries granted by the kernel.
    pub retries_granted: u64,
    /// Retry requests denied (the requester saw `E_CRASH`).
    pub retries_denied: u64,
    /// Events folded into this state.
    pub events: u64,
    /// Virtual timestamp of the last event folded.
    pub last_now: u64,
}

impl Default for ControlState {
    fn default() -> Self {
        ControlState::new()
    }
}

impl ControlState {
    /// Pristine state: everything alive, no windows, no intents.
    pub fn new() -> ControlState {
        ControlState {
            comps: 0,
            config_digest: 0,
            statuses: [CompStatusCode::Alive; MAX_COMPS],
            windows_open: 0,
            intents: [IntentSlot::default(); MAX_COMPS],
            restarts_in_window: [0; MAX_COMPS],
            budget_exhausted: [false; MAX_COMPS],
            recovering: None,
            shutdown: None,
            crashes: 0,
            hangs: 0,
            recoveries: 0,
            fallbacks: 0,
            quarantines: 0,
            pool_refreshes: 0,
            injections: 0,
            deadline_expiries: 0,
            watchdog_verdicts: 0,
            retries_granted: 0,
            retries_denied: 0,
            events: 0,
            last_now: 0,
        }
    }

    /// Status of component `comp` (indices past [`MAX_COMPS`] read Alive).
    pub fn status(&self, comp: u8) -> CompStatusCode {
        self.statuses
            .get(comp as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Whether `comp` has an open recovery window.
    pub fn window_open(&self, comp: u8) -> bool {
        (comp as usize) < MAX_COMPS && self.windows_open & (1u32 << comp) != 0
    }

    /// The intent slot for `comp`.
    pub fn intent(&self, comp: u8) -> IntentSlot {
        self.intents.get(comp as usize).copied().unwrap_or_default()
    }

    /// Components with an outstanding recovery intent, lowest index first.
    pub fn active_intents(&self) -> impl Iterator<Item = u8> + '_ {
        self.intents
            .iter()
            .enumerate()
            .filter(|(_, s)| s.active)
            .map(|(i, _)| i as u8)
    }

    /// Components currently quarantined, lowest index first.
    pub fn quarantined_set(&self) -> impl Iterator<Item = u8> + '_ {
        self.statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == CompStatusCode::Quarantined)
            .map(|(i, _)| i as u8)
    }

    /// Ends the conduct in flight if `comp` is its target.
    fn end_conduct(&mut self, comp: u8) {
        if self.recovering == Some(comp) {
            self.recovering = None;
        }
    }

    /// Folds one event. This is the single transition function shared by
    /// the kernel's live fold and the post-mortem [`reduce`]; it is total
    /// (never panics) and allocation-free.
    pub fn apply(&mut self, now: u64, event: &AxiomEvent) {
        self.events += 1;
        self.last_now = now;
        let idx = |c: u8| (c as usize) < MAX_COMPS;
        match *event {
            AxiomEvent::Genesis {
                comps,
                config_digest,
            } => {
                let events = self.events;
                *self = ControlState::new();
                self.events = events;
                self.last_now = now;
                self.comps = comps;
                self.config_digest = config_digest;
            }
            AxiomEvent::WindowOpen { comp } => {
                if idx(comp) {
                    self.windows_open |= 1u32 << comp;
                }
            }
            AxiomEvent::WindowClose { comp, .. } => {
                if idx(comp) {
                    self.windows_open &= !(1u32 << comp);
                }
            }
            AxiomEvent::Crash { comp } => {
                self.crashes += 1;
                if idx(comp) {
                    self.statuses[comp as usize] = CompStatusCode::Crashed;
                }
            }
            AxiomEvent::HangDetected { comp } => {
                self.hangs += 1;
                if idx(comp) {
                    self.statuses[comp as usize] = CompStatusCode::Hung;
                }
            }
            AxiomEvent::IntentRecorded { comp, phase } => {
                if phase == IntentPhaseCode::Notified {
                    self.recovering = Some(comp);
                }
                if idx(comp) {
                    let slot = &mut self.intents[comp as usize];
                    slot.active = true;
                    slot.phase = Some(phase);
                }
            }
            AxiomEvent::IntentReplayed { comp } => {
                self.recovering = self.recovering.or(Some(comp));
                if idx(comp) {
                    let slot = &mut self.intents[comp as usize];
                    slot.active = true;
                    slot.replays += 1;
                }
            }
            AxiomEvent::IntentResolved { comp } => {
                self.end_conduct(comp);
                if idx(comp) {
                    self.intents[comp as usize] = IntentSlot::default();
                }
            }
            AxiomEvent::RecoveryFallback { .. } => {
                self.fallbacks += 1;
            }
            AxiomEvent::RecoveryDone { comp, .. } => {
                self.recoveries += 1;
                self.end_conduct(comp);
                if idx(comp) {
                    self.statuses[comp as usize] = CompStatusCode::Alive;
                }
            }
            AxiomEvent::EscalationStep {
                comp,
                restarts_in_window,
                exhausted,
                ..
            } => {
                if idx(comp) {
                    self.restarts_in_window[comp as usize] = restarts_in_window;
                    self.budget_exhausted[comp as usize] |= exhausted;
                }
            }
            AxiomEvent::Quarantined { comp } => {
                self.quarantines += 1;
                self.end_conduct(comp);
                if idx(comp) {
                    self.statuses[comp as usize] = CompStatusCode::Quarantined;
                    self.windows_open &= !(1u32 << comp);
                    self.intents[comp as usize] = IntentSlot::default();
                }
            }
            AxiomEvent::PoolRefresh { refreshed, .. } => {
                self.pool_refreshes += refreshed as u64;
            }
            AxiomEvent::ShutdownDecision { controlled } => {
                self.shutdown = Some(controlled);
                self.recovering = None;
            }
            AxiomEvent::RecoveryDecision { .. } => {}
            AxiomEvent::Injection { .. } => {
                self.injections += 1;
            }
            AxiomEvent::DeadlineExpired { .. } => {
                self.deadline_expiries += 1;
            }
            AxiomEvent::WatchdogVerdict { .. } => {
                self.watchdog_verdicts += 1;
            }
            AxiomEvent::RetryDecision { granted, .. } => {
                if granted {
                    self.retries_granted += 1;
                } else {
                    self.retries_denied += 1;
                }
            }
        }
    }
}

/// Deterministically reconstructs control state from a record slice: the
/// pure reduction `reduce ∘ record = live state`.
pub fn reduce(records: &[AxiomRecord]) -> ControlState {
    let mut state = ControlState::new();
    for rec in records {
        state.apply(rec.now, &rec.event);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActionCode, AxiomConfig, AxiomLog, CloseCode, SeepClassCode};

    #[test]
    fn reduction_tracks_a_crash_and_recovery() {
        let mut log = AxiomLog::new(AxiomConfig::on());
        log.append(
            0,
            AxiomEvent::Genesis {
                comps: 6,
                config_digest: 7,
            },
        );
        log.append(5, AxiomEvent::WindowOpen { comp: 1 });
        log.append(9, AxiomEvent::Crash { comp: 1 });
        log.append(
            10,
            AxiomEvent::IntentRecorded {
                comp: 1,
                phase: IntentPhaseCode::Issued,
            },
        );
        let mid = reduce(log.records());
        assert_eq!(mid.status(1), CompStatusCode::Crashed);
        assert!(mid.window_open(1));
        assert!(mid.intent(1).active);

        log.append(
            11,
            AxiomEvent::RecoveryDecision {
                comp: 1,
                action: ActionCode::RollbackErrorReply,
            },
        );
        log.append(
            12,
            AxiomEvent::WindowClose {
                comp: 1,
                reason: CloseCode::Rollback,
                class: SeepClassCode::None,
            },
        );
        log.append(
            40,
            AxiomEvent::RecoveryDone {
                comp: 1,
                cycles: 29,
            },
        );
        log.append(40, AxiomEvent::IntentResolved { comp: 1 });
        let end = reduce(log.records());
        assert_eq!(end.status(1), CompStatusCode::Alive);
        assert!(!end.window_open(1));
        assert!(!end.intent(1).active);
        assert_eq!(end.recovering, None);
        assert_eq!(end.recoveries, 1);
        assert_eq!(end.crashes, 1);
        assert_eq!(end.last_now, 40);
    }

    #[test]
    fn quarantine_clears_intent_and_window() {
        let mut log = AxiomLog::new(AxiomConfig::on());
        log.append(
            0,
            AxiomEvent::Genesis {
                comps: 6,
                config_digest: 7,
            },
        );
        log.append(1, AxiomEvent::WindowOpen { comp: 3 });
        log.append(
            2,
            AxiomEvent::IntentRecorded {
                comp: 3,
                phase: IntentPhaseCode::Notified,
            },
        );
        log.append(3, AxiomEvent::Quarantined { comp: 3 });
        let s = reduce(log.records());
        assert_eq!(s.status(3), CompStatusCode::Quarantined);
        assert!(!s.window_open(3));
        assert!(!s.intent(3).active);
        assert_eq!(s.quarantined_set().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn the_conduct_in_flight_is_a_fold() {
        let mut s = ControlState::new();
        let notified = AxiomEvent::IntentRecorded {
            comp: 3,
            phase: IntentPhaseCode::Notified,
        };
        s.apply(0, &notified);
        assert_eq!(s.recovering, Some(3));
        // The RS failing mid-conduct, a hung component killed and recovered
        // meanwhile, the re-drive: the conduct goes on.
        for event in [
            AxiomEvent::Crash { comp: 0 },
            AxiomEvent::Crash { comp: 2 },
            AxiomEvent::RecoveryDone { comp: 2, cycles: 1 },
            AxiomEvent::IntentReplayed { comp: 3 },
        ] {
            s.apply(1, &event);
            assert_eq!(s.recovering, Some(3), "{event:?}");
        }
        s.apply(2, &AxiomEvent::RecoveryDone { comp: 3, cycles: 1 });
        assert_eq!(s.recovering, None);
        s.apply(3, &AxiomEvent::IntentReplayed { comp: 4 });
        assert_eq!(
            s.recovering,
            Some(4),
            "a re-drive with no conduct starts one"
        );
        s.apply(4, &AxiomEvent::ShutdownDecision { controlled: true });
        assert_eq!(s.recovering, None);
    }

    #[test]
    fn out_of_range_components_are_ignored() {
        let mut s = ControlState::new();
        s.apply(
            1,
            &AxiomEvent::Crash {
                comp: crate::KERNEL_COMP,
            },
        );
        assert_eq!(s.crashes, 1);
        assert_eq!(s.status(crate::KERNEL_COMP), CompStatusCode::Alive);
    }

    #[test]
    fn replays_accumulate_until_resolved() {
        let mut s = ControlState::new();
        s.apply(
            0,
            &AxiomEvent::IntentRecorded {
                comp: 2,
                phase: IntentPhaseCode::Issued,
            },
        );
        s.apply(1, &AxiomEvent::IntentReplayed { comp: 2 });
        s.apply(2, &AxiomEvent::IntentReplayed { comp: 2 });
        assert_eq!(s.intent(2).replays, 2);
        s.apply(3, &AxiomEvent::IntentResolved { comp: 2 });
        assert_eq!(s.intent(2), IntentSlot::default());
    }
}
