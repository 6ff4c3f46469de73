//! # osiris-axiom
//!
//! The **axiom log**: a single append-only, totally ordered, FNV-digest-
//! chained history of every *control-plane* transition in an OSIRIS
//! machine — window opens and closes (with the SEEP classification that
//! forced the close), crashes and hangs, recovery decisions and phase
//! fallbacks, escalation steps, quarantines, intent re-drives, clone-pool
//! refreshes, and shutdown decisions.
//!
//! The design follows zero-os's *Axiom principle*: only events recorded in
//! the axiom are real. All kernel + Recovery Server control state —
//! component statuses, the open-window set, the recovery intent slots,
//! escalation pressure, the quarantine set — is a **pure reduction** of the
//! log ([`reduce`]). The kernel keeps its live [`ControlState`] by folding
//! each event as it is appended, so the state a post-mortem reduction
//! reconstructs is the state the kernel actually acted on, by construction.
//!
//! Disciplines inherited from `osiris-trace` (DESIGN.md §6d):
//!
//! * **Determinism.** Events carry only virtual-clock timestamps and values
//!   derived from simulator state. Two runs of the same workload produce
//!   byte-identical axioms.
//! * **Zero allocation in steady state.** [`AxiomEvent`] is `Copy` with no
//!   heap-owning field; the log's backing `Vec` is reserved up front.
//!   The `gates` binary proves this with a counting global allocator.
//! * **Cheap when off.** With recording disabled, appends reduce to the
//!   control-state fold (a branch-free match on a `Copy` value); no digest
//!   is computed and nothing is retained.
//!
//! Crash consistency comes from the digest chain: every record's digest is
//! FNV-1a64 over the previous digest plus the record's own encoded bytes,
//! and the serialized form carries the head digest. Bit flips, truncation,
//! reordering and torn tails are all detected by [`AxiomLog::from_bytes`]
//! **before** any reduction runs (property-tested in `chain_props.rs`).
//!
//! The crate is a leaf: it depends on nothing in the workspace.
//! `osiris-trace` re-exports the shared [`CloseCode`]/[`SeepClassCode`]/
//! [`ActionCode`] vocabularies from here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bisect;
mod reduce;

pub use bisect::{bisect, Divergence};
pub use reduce::{reduce, CompStatusCode, ControlState, IntentSlot, MAX_COMPS};

/// Component id used for events emitted by the kernel itself rather than on
/// behalf of a registered component (mirrors `osiris_trace::KERNEL_COMP`).
pub const KERNEL_COMP: u8 = 0xFF;

// ---------------------------------------------------------------------------
// Shared control-plane vocabularies
// ---------------------------------------------------------------------------

/// Why a recovery window closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CloseCode {
    /// The handler ran to completion with the window still open; the
    /// undo log was discarded as the request committed.
    Completed,
    /// A send the active policy classifies as state-externalizing forced
    /// the window shut mid-handler.
    DisallowedSend,
    /// The component's cooperative thread yielded.
    ThreadYield,
    /// The server closed its own window explicitly.
    Manual,
    /// The window was consumed by a rollback during recovery.
    Rollback,
}

/// Side-effect class of the SEEP that participated in a window close
/// (mirrors `osiris-core`'s `SeepClass`, plus `None` for closes that were
/// not caused by a send).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SeepClassCode {
    /// The close was not caused by a send.
    None,
    /// Non-state-modifying at the receiver.
    NonStateModifying,
    /// State-modifying at the receiver.
    StateModifying,
    /// State-modifying but scoped to the requesting process.
    RequesterScoped,
}

/// Recovery action chosen for a crashed component (mirrors `osiris-core`'s
/// `RecoveryAction`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ActionCode {
    /// Roll back to the window mark and answer `E_CRASH`.
    RollbackErrorReply,
    /// Roll back and kill the requesting process to reconcile.
    RollbackKillRequester,
    /// Restart from the pristine boot image.
    FreshRestart,
    /// Naive restart-in-place without state repair.
    ContinueAsIs,
    /// Give up consistently: controlled shutdown.
    ControlledShutdown,
    /// Give up inconsistently: uncontrolled crash.
    UncontrolledCrash,
}

/// Lifecycle phase of a recovery intent (mirrors the kernel's intent
/// bookkeeping; the intent log is a view over the axiom tail).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IntentPhaseCode {
    /// The RS has been notified of the crash but has not yet decided.
    Notified,
    /// A restart was decided but deferred behind an escalation backoff.
    Deferred,
    /// The RS issued the recovery conduct.
    Issued,
}

/// Watchdog verdict on a component whose armed request deadline expired
/// (mirrors the kernel's fail-silent detection state machine).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VerdictCode {
    /// No progress since the deadline expired: the component is hung.
    Hung,
    /// The reply eventually arrived after the deadline: slow but correct.
    Slow,
    /// The handler completed but its reply never arrived (dropped in
    /// flight): the request is lost, not the component.
    ReplyLost,
    /// The reply arrived but its integrity digest did not match the
    /// payload: treated as a crash of the sender.
    CorruptReply,
}

/// Terminal outcome of one fault-campaign injection (mirrors
/// `osiris-faults`' run classification).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OutcomeCode {
    /// Workload completed with correct results.
    Recovered,
    /// Completed, but with some service quarantined or results degraded.
    Degraded,
    /// The machine shut down in a controlled fashion.
    ControlledShutdown,
    /// The machine crashed uncontrolled.
    UncontrolledCrash,
    /// Workload hung or produced wrong results.
    Failed,
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// A typed, fixed-size control-plane event. Every variant is `Copy` and
/// contains no heap-owning field, so appending never allocates.
///
/// High-frequency data-plane events (undo appends, IPC, syscalls) are
/// deliberately **excluded**: they belong to the trace ring. The axiom
/// records only transitions that change control state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AxiomEvent {
    /// First event of every log: the machine booted. `config_digest` is an
    /// FNV-1a64 digest of the control-relevant configuration (policy name,
    /// instrumentation mode, component count), so two axioms are only
    /// comparable when their configurations match.
    Genesis {
        /// Number of registered components.
        comps: u8,
        /// Digest of the control-relevant configuration.
        config_digest: u64,
    },
    /// A recovery window opened for `comp`.
    WindowOpen {
        /// Component index.
        comp: u8,
    },
    /// The window for `comp` closed, with the SEEP classification that
    /// participated in the close.
    WindowClose {
        /// Component index.
        comp: u8,
        /// Why the window closed.
        reason: CloseCode,
        /// SEEP class of the send that closed it (or `None`).
        class: SeepClassCode,
    },
    /// `comp` crashed (fail-stop).
    Crash {
        /// Component index.
        comp: u8,
    },
    /// `comp` stopped responding to heartbeats.
    HangDetected {
        /// Component index.
        comp: u8,
    },
    /// A recovery intent for `comp` was recorded or refined.
    IntentRecorded {
        /// Component index.
        comp: u8,
        /// Intent lifecycle phase.
        phase: IntentPhaseCode,
    },
    /// The kernel re-drove an interrupted recovery intent for `comp`.
    IntentReplayed {
        /// Component index.
        comp: u8,
    },
    /// The intent for `comp` was resolved (recovery completed, the target
    /// was quarantined, or the machine shut down).
    IntentResolved {
        /// Component index.
        comp: u8,
    },
    /// Recovery of `comp` begins with `action`.
    RecoveryDecision {
        /// Component index.
        comp: u8,
        /// Action chosen for the first attempt.
        action: ActionCode,
    },
    /// A recovery phase faulted and the kernel fell back along the
    /// `Rollback → FreshRestart → ControlledShutdown` chain.
    RecoveryFallback {
        /// Component index.
        comp: u8,
        /// Action that faulted.
        from: ActionCode,
        /// Action attempted next.
        to: ActionCode,
    },
    /// Recovery of `comp` completed after `cycles` virtual cycles.
    RecoveryDone {
        /// Component index.
        comp: u8,
        /// Virtual cycles charged to the recovery.
        cycles: u64,
    },
    /// The escalation ladder observed a restart for `comp`.
    EscalationStep {
        /// Component index.
        comp: u8,
        /// Restarts inside the sliding budget window (after this one).
        restarts_in_window: u32,
        /// Backoff armed before the restart (0 = immediate).
        backoff: u64,
        /// Whether the restart budget is now exhausted.
        exhausted: bool,
    },
    /// `comp` was taken out of service.
    Quarantined {
        /// Component index.
        comp: u8,
    },
    /// The RS refreshed (or skipped refreshing) `comp`'s clone-pool image.
    PoolRefresh {
        /// Component index.
        comp: u8,
        /// Whether the image was actually re-captured.
        refreshed: bool,
    },
    /// The machine decided to shut down.
    ShutdownDecision {
        /// `true` for a controlled shutdown, `false` for an uncontrolled
        /// crash.
        controlled: bool,
    },
    /// One fault-campaign injection finished (campaign-owned axioms only;
    /// never appears in a kernel axiom). `site_digest` identifies the
    /// injection site + fault kind independently of the policy under test,
    /// so [`bisect`] over two campaigns pinpoints the first injection whose
    /// outcome diverges between configurations.
    Injection {
        /// Zero-based injection index within the campaign.
        run: u32,
        /// FNV-1a64 digest of `component.site` + fault kind.
        site_digest: u64,
        /// Terminal outcome of the injection run.
        outcome: OutcomeCode,
    },
    /// The armed deadline for a request to `comp` expired with no reply.
    DeadlineExpired {
        /// Component the request was sent to.
        comp: u8,
        /// Message id of the armed request.
        msg_id: u64,
        /// Delivery attempt the deadline belonged to (0 = first send).
        attempt: u8,
    },
    /// The watchdog concluded its probe of `comp` with a verdict.
    WatchdogVerdict {
        /// Component the verdict concerns.
        comp: u8,
        /// What the heartbeat/progress probe concluded.
        verdict: VerdictCode,
        /// Message id of the request that armed the watchdog.
        msg_id: u64,
    },
    /// The kernel decided whether to transparently retry a failed request.
    RetryDecision {
        /// Component the request targets.
        comp: u8,
        /// Message id of the request.
        msg_id: u64,
        /// Delivery attempt the decision concerns (0 = first send).
        attempt: u8,
        /// Whether the retry was granted (else the requester sees E_CRASH).
        granted: bool,
        /// Backoff (virtual cycles, incl. jitter) armed before the resend.
        backoff: u32,
    },
}

impl AxiomEvent {
    /// Stable short name, used by the Chrome exporter and `bisect` output.
    pub fn name(&self) -> &'static str {
        match self {
            AxiomEvent::Genesis { .. } => "genesis",
            AxiomEvent::WindowOpen { .. } => "window_open",
            AxiomEvent::WindowClose { .. } => "window_close",
            AxiomEvent::Crash { .. } => "crash",
            AxiomEvent::HangDetected { .. } => "hang_detected",
            AxiomEvent::IntentRecorded { .. } => "intent_recorded",
            AxiomEvent::IntentReplayed { .. } => "intent_replayed",
            AxiomEvent::IntentResolved { .. } => "intent_resolved",
            AxiomEvent::RecoveryDecision { .. } => "recovery_decision",
            AxiomEvent::RecoveryFallback { .. } => "recovery_fallback",
            AxiomEvent::RecoveryDone { .. } => "recovery_done",
            AxiomEvent::EscalationStep { .. } => "escalation_step",
            AxiomEvent::Quarantined { .. } => "quarantined",
            AxiomEvent::PoolRefresh { .. } => "pool_refresh",
            AxiomEvent::ShutdownDecision { .. } => "shutdown_decision",
            AxiomEvent::Injection { .. } => "injection",
            AxiomEvent::DeadlineExpired { .. } => "deadline_expired",
            AxiomEvent::WatchdogVerdict { .. } => "watchdog_verdict",
            AxiomEvent::RetryDecision { .. } => "retry_decision",
        }
    }

    /// Component the event concerns, if any.
    pub fn comp(&self) -> Option<u8> {
        match *self {
            AxiomEvent::WindowOpen { comp }
            | AxiomEvent::WindowClose { comp, .. }
            | AxiomEvent::Crash { comp }
            | AxiomEvent::HangDetected { comp }
            | AxiomEvent::IntentRecorded { comp, .. }
            | AxiomEvent::IntentReplayed { comp }
            | AxiomEvent::IntentResolved { comp }
            | AxiomEvent::RecoveryDecision { comp, .. }
            | AxiomEvent::RecoveryFallback { comp, .. }
            | AxiomEvent::RecoveryDone { comp, .. }
            | AxiomEvent::EscalationStep { comp, .. }
            | AxiomEvent::Quarantined { comp }
            | AxiomEvent::PoolRefresh { comp, .. }
            | AxiomEvent::DeadlineExpired { comp, .. }
            | AxiomEvent::WatchdogVerdict { comp, .. }
            | AxiomEvent::RetryDecision { comp, .. } => Some(comp),
            AxiomEvent::Genesis { .. }
            | AxiomEvent::ShutdownDecision { .. }
            | AxiomEvent::Injection { .. } => None,
        }
    }
}

/// One sealed entry of the axiom: an event stamped with the virtual clock,
/// a monotone sequence number, and the chain digest that seals it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AxiomRecord {
    /// Virtual-clock timestamp at append time.
    pub now: u64,
    /// Monotone sequence number (dense from 0).
    pub seq: u64,
    /// The control-plane event.
    pub event: AxiomEvent,
    /// FNV-1a64 over the previous record's digest plus this record's
    /// encoded `now`/`seq`/`event` bytes.
    pub digest: u64,
}

// ---------------------------------------------------------------------------
// FNV-1a64 (shared vocabulary with the checkpoint integrity chains)
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Digest the chain is seeded with before the first record.
pub const CHAIN_SEED: u64 = FNV_OFFSET;

/// Plain FNV-1a64 over a byte slice, starting from `seed`. Exposed so
/// callers can build deterministic site/config digests with the same
/// function that seals the chain.
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a64 of a string from the standard offset basis.
pub fn fnv1a_str(s: &str) -> u64 {
    fnv1a(FNV_OFFSET, s.as_bytes())
}

// ---------------------------------------------------------------------------
// Fixed-width binary encoding
// ---------------------------------------------------------------------------

/// Serialized size of one record: `now`(8) + `seq`(8) + tag(1) +
/// payload(16, zero-padded) + `digest`(8).
pub const RECORD_BYTES: usize = 41;
/// Serialized header: magic(8) + record count(8) + head digest(8).
pub const HEADER_BYTES: usize = 24;
const MAGIC: &[u8; 8] = b"AXIOLOG1";
const PAYLOAD_BYTES: usize = 16;

fn close_code_u8(c: CloseCode) -> u8 {
    match c {
        CloseCode::Completed => 0,
        CloseCode::DisallowedSend => 1,
        CloseCode::ThreadYield => 2,
        CloseCode::Manual => 3,
        CloseCode::Rollback => 4,
    }
}

fn close_code_from(b: u8) -> Result<CloseCode, AxiomError> {
    Ok(match b {
        0 => CloseCode::Completed,
        1 => CloseCode::DisallowedSend,
        2 => CloseCode::ThreadYield,
        3 => CloseCode::Manual,
        4 => CloseCode::Rollback,
        _ => return Err(AxiomError::BadEncoding),
    })
}

fn class_u8(c: SeepClassCode) -> u8 {
    match c {
        SeepClassCode::None => 0,
        SeepClassCode::NonStateModifying => 1,
        SeepClassCode::StateModifying => 2,
        SeepClassCode::RequesterScoped => 3,
    }
}

fn class_from(b: u8) -> Result<SeepClassCode, AxiomError> {
    Ok(match b {
        0 => SeepClassCode::None,
        1 => SeepClassCode::NonStateModifying,
        2 => SeepClassCode::StateModifying,
        3 => SeepClassCode::RequesterScoped,
        _ => return Err(AxiomError::BadEncoding),
    })
}

fn action_u8(a: ActionCode) -> u8 {
    match a {
        ActionCode::RollbackErrorReply => 0,
        ActionCode::RollbackKillRequester => 1,
        ActionCode::FreshRestart => 2,
        ActionCode::ContinueAsIs => 3,
        ActionCode::ControlledShutdown => 4,
        ActionCode::UncontrolledCrash => 5,
    }
}

fn action_from(b: u8) -> Result<ActionCode, AxiomError> {
    Ok(match b {
        0 => ActionCode::RollbackErrorReply,
        1 => ActionCode::RollbackKillRequester,
        2 => ActionCode::FreshRestart,
        3 => ActionCode::ContinueAsIs,
        4 => ActionCode::ControlledShutdown,
        5 => ActionCode::UncontrolledCrash,
        _ => return Err(AxiomError::BadEncoding),
    })
}

fn phase_u8(p: IntentPhaseCode) -> u8 {
    match p {
        IntentPhaseCode::Notified => 0,
        IntentPhaseCode::Deferred => 1,
        IntentPhaseCode::Issued => 2,
    }
}

fn phase_from(b: u8) -> Result<IntentPhaseCode, AxiomError> {
    Ok(match b {
        0 => IntentPhaseCode::Notified,
        1 => IntentPhaseCode::Deferred,
        2 => IntentPhaseCode::Issued,
        _ => return Err(AxiomError::BadEncoding),
    })
}

fn verdict_u8(v: VerdictCode) -> u8 {
    match v {
        VerdictCode::Hung => 0,
        VerdictCode::Slow => 1,
        VerdictCode::ReplyLost => 2,
        VerdictCode::CorruptReply => 3,
    }
}

fn verdict_from(b: u8) -> Result<VerdictCode, AxiomError> {
    Ok(match b {
        0 => VerdictCode::Hung,
        1 => VerdictCode::Slow,
        2 => VerdictCode::ReplyLost,
        3 => VerdictCode::CorruptReply,
        _ => return Err(AxiomError::BadEncoding),
    })
}

fn outcome_u8(o: OutcomeCode) -> u8 {
    match o {
        OutcomeCode::Recovered => 0,
        OutcomeCode::Degraded => 1,
        OutcomeCode::ControlledShutdown => 2,
        OutcomeCode::UncontrolledCrash => 3,
        OutcomeCode::Failed => 4,
    }
}

fn outcome_from(b: u8) -> Result<OutcomeCode, AxiomError> {
    Ok(match b {
        0 => OutcomeCode::Recovered,
        1 => OutcomeCode::Degraded,
        2 => OutcomeCode::ControlledShutdown,
        3 => OutcomeCode::UncontrolledCrash,
        4 => OutcomeCode::Failed,
        _ => return Err(AxiomError::BadEncoding),
    })
}

/// Encodes `now`/`seq`/tag/payload into a fixed 33-byte prefix (everything
/// the digest covers).
fn encode_body(now: u64, seq: u64, event: &AxiomEvent) -> [u8; RECORD_BYTES - 8] {
    let mut out = [0u8; RECORD_BYTES - 8];
    out[0..8].copy_from_slice(&now.to_le_bytes());
    out[8..16].copy_from_slice(&seq.to_le_bytes());
    let (tag, payload) = encode_event(event);
    out[16] = tag;
    out[17..17 + PAYLOAD_BYTES].copy_from_slice(&payload);
    out
}

fn encode_event(event: &AxiomEvent) -> (u8, [u8; PAYLOAD_BYTES]) {
    let mut p = [0u8; PAYLOAD_BYTES];
    let tag = match *event {
        AxiomEvent::Genesis {
            comps,
            config_digest,
        } => {
            p[0] = comps;
            p[1..9].copy_from_slice(&config_digest.to_le_bytes());
            0
        }
        AxiomEvent::WindowOpen { comp } => {
            p[0] = comp;
            1
        }
        AxiomEvent::WindowClose {
            comp,
            reason,
            class,
        } => {
            p[0] = comp;
            p[1] = close_code_u8(reason);
            p[2] = class_u8(class);
            2
        }
        AxiomEvent::Crash { comp } => {
            p[0] = comp;
            3
        }
        AxiomEvent::HangDetected { comp } => {
            p[0] = comp;
            4
        }
        AxiomEvent::IntentRecorded { comp, phase } => {
            p[0] = comp;
            p[1] = phase_u8(phase);
            5
        }
        AxiomEvent::IntentReplayed { comp } => {
            p[0] = comp;
            6
        }
        AxiomEvent::IntentResolved { comp } => {
            p[0] = comp;
            7
        }
        AxiomEvent::RecoveryDecision { comp, action } => {
            p[0] = comp;
            p[1] = action_u8(action);
            8
        }
        AxiomEvent::RecoveryFallback { comp, from, to } => {
            p[0] = comp;
            p[1] = action_u8(from);
            p[2] = action_u8(to);
            9
        }
        AxiomEvent::RecoveryDone { comp, cycles } => {
            p[0] = comp;
            p[1..9].copy_from_slice(&cycles.to_le_bytes());
            10
        }
        AxiomEvent::EscalationStep {
            comp,
            restarts_in_window,
            backoff,
            exhausted,
        } => {
            p[0] = comp;
            p[1..5].copy_from_slice(&restarts_in_window.to_le_bytes());
            p[5..13].copy_from_slice(&backoff.to_le_bytes());
            p[13] = exhausted as u8;
            11
        }
        AxiomEvent::Quarantined { comp } => {
            p[0] = comp;
            12
        }
        AxiomEvent::PoolRefresh { comp, refreshed } => {
            p[0] = comp;
            p[1] = refreshed as u8;
            13
        }
        AxiomEvent::ShutdownDecision { controlled } => {
            p[0] = controlled as u8;
            14
        }
        AxiomEvent::Injection {
            run,
            site_digest,
            outcome,
        } => {
            p[0..4].copy_from_slice(&run.to_le_bytes());
            p[4..12].copy_from_slice(&site_digest.to_le_bytes());
            p[12] = outcome_u8(outcome);
            15
        }
        AxiomEvent::DeadlineExpired {
            comp,
            msg_id,
            attempt,
        } => {
            p[0] = comp;
            p[1..9].copy_from_slice(&msg_id.to_le_bytes());
            p[9] = attempt;
            16
        }
        AxiomEvent::WatchdogVerdict {
            comp,
            verdict,
            msg_id,
        } => {
            p[0] = comp;
            p[1] = verdict_u8(verdict);
            p[2..10].copy_from_slice(&msg_id.to_le_bytes());
            17
        }
        AxiomEvent::RetryDecision {
            comp,
            msg_id,
            attempt,
            granted,
            backoff,
        } => {
            p[0] = comp;
            p[1..9].copy_from_slice(&msg_id.to_le_bytes());
            p[9] = attempt;
            p[10] = granted as u8;
            p[11..15].copy_from_slice(&backoff.to_le_bytes());
            18
        }
    };
    (tag, p)
}

fn decode_event(tag: u8, p: &[u8]) -> Result<AxiomEvent, AxiomError> {
    let u32_at = |i: usize| u32::from_le_bytes(p[i..i + 4].try_into().unwrap());
    let u64_at = |i: usize| u64::from_le_bytes(p[i..i + 8].try_into().unwrap());
    Ok(match tag {
        0 => AxiomEvent::Genesis {
            comps: p[0],
            config_digest: u64_at(1),
        },
        1 => AxiomEvent::WindowOpen { comp: p[0] },
        2 => AxiomEvent::WindowClose {
            comp: p[0],
            reason: close_code_from(p[1])?,
            class: class_from(p[2])?,
        },
        3 => AxiomEvent::Crash { comp: p[0] },
        4 => AxiomEvent::HangDetected { comp: p[0] },
        5 => AxiomEvent::IntentRecorded {
            comp: p[0],
            phase: phase_from(p[1])?,
        },
        6 => AxiomEvent::IntentReplayed { comp: p[0] },
        7 => AxiomEvent::IntentResolved { comp: p[0] },
        8 => AxiomEvent::RecoveryDecision {
            comp: p[0],
            action: action_from(p[1])?,
        },
        9 => AxiomEvent::RecoveryFallback {
            comp: p[0],
            from: action_from(p[1])?,
            to: action_from(p[2])?,
        },
        10 => AxiomEvent::RecoveryDone {
            comp: p[0],
            cycles: u64_at(1),
        },
        11 => AxiomEvent::EscalationStep {
            comp: p[0],
            restarts_in_window: u32_at(1),
            backoff: u64_at(5),
            exhausted: p[13] != 0,
        },
        12 => AxiomEvent::Quarantined { comp: p[0] },
        13 => AxiomEvent::PoolRefresh {
            comp: p[0],
            refreshed: p[1] != 0,
        },
        14 => AxiomEvent::ShutdownDecision {
            controlled: p[0] != 0,
        },
        15 => AxiomEvent::Injection {
            run: u32_at(0),
            site_digest: u64_at(4),
            outcome: outcome_from(p[12])?,
        },
        16 => AxiomEvent::DeadlineExpired {
            comp: p[0],
            msg_id: u64_at(1),
            attempt: p[9],
        },
        17 => AxiomEvent::WatchdogVerdict {
            comp: p[0],
            verdict: verdict_from(p[1])?,
            msg_id: u64_at(2),
        },
        18 => AxiomEvent::RetryDecision {
            comp: p[0],
            msg_id: u64_at(1),
            attempt: p[9],
            granted: p[10] != 0,
            backoff: u32_at(11),
        },
        _ => return Err(AxiomError::BadEncoding),
    })
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a serialized axiom was rejected. Every corruption class is detected
/// before any reduction runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AxiomError {
    /// The buffer is smaller than a header or carries the wrong magic.
    BadHeader,
    /// The body length is not a whole number of records: the tail was torn
    /// mid-record.
    TornTail,
    /// The header promises more records than the body holds.
    Truncated {
        /// Records the header promised.
        expected: u64,
        /// Whole records actually present.
        found: u64,
    },
    /// A record's digest does not extend the chain: a bit flip, an edited
    /// record, or a reordering.
    ChainMismatch {
        /// Sequence number of the first bad record.
        seq: u64,
    },
    /// Every record chains, but the header's head digest disagrees with the
    /// recomputed chain head.
    HeadMismatch,
    /// An event tag or enum byte is out of range.
    BadEncoding,
}

impl std::fmt::Display for AxiomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AxiomError::BadHeader => write!(f, "bad axiom header or magic"),
            AxiomError::TornTail => write!(f, "torn tail: body is not a whole number of records"),
            AxiomError::Truncated { expected, found } => {
                write!(
                    f,
                    "truncated axiom: header promises {expected} records, found {found}"
                )
            }
            AxiomError::ChainMismatch { seq } => {
                write!(f, "digest chain breaks at seq {seq}")
            }
            AxiomError::HeadMismatch => write!(f, "head digest does not match recomputed chain"),
            AxiomError::BadEncoding => write!(f, "unknown event tag or enum byte"),
        }
    }
}

impl std::error::Error for AxiomError {}

// ---------------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------------

/// Recording configuration for an [`AxiomLog`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AxiomConfig {
    /// Whether records are retained and chained. The control-state fold in
    /// the kernel runs regardless — only retention is gated.
    pub enabled: bool,
    /// Records reserved up front (`reserve_exact`); appends within this
    /// capacity never allocate.
    pub capacity: usize,
}

impl Default for AxiomConfig {
    fn default() -> Self {
        AxiomConfig {
            enabled: false,
            capacity: 16 * 1024,
        }
    }
}

impl AxiomConfig {
    /// Recording enabled with the default capacity.
    pub fn on() -> AxiomConfig {
        AxiomConfig {
            enabled: true,
            ..AxiomConfig::default()
        }
    }
}

/// The append-only, digest-chained control-plane log.
///
/// The kernel is the single writer, so the log is a plain struct (no lock);
/// observers take snapshots through the kernel's accessors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AxiomLog {
    enabled: bool,
    records: Vec<AxiomRecord>,
    head: u64,
    next_seq: u64,
}

impl AxiomLog {
    /// Creates a log; when `cfg.enabled`, the backing storage is reserved
    /// up front so steady-state appends do not allocate.
    pub fn new(cfg: AxiomConfig) -> AxiomLog {
        let mut records = Vec::new();
        if cfg.enabled {
            records.reserve_exact(cfg.capacity);
        }
        AxiomLog {
            enabled: cfg.enabled,
            records,
            head: CHAIN_SEED,
            next_seq: 0,
        }
    }

    /// Whether records are being retained.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Appends `event` at virtual time `now`, sealing it into the chain.
    /// No-op when recording is disabled.
    ///
    /// `#[inline]` so the disabled-path check folds into the caller's emit
    /// site — the shipping configuration pays one predictable branch
    /// (`axiom.delta_ns_per_msg` in `benchmark/`).
    #[inline]
    pub fn append(&mut self, now: u64, event: AxiomEvent) {
        if !self.enabled {
            return;
        }
        self.append_slow(now, event);
    }

    fn append_slow(&mut self, now: u64, event: AxiomEvent) {
        let seq = self.next_seq;
        let body = encode_body(now, seq, &event);
        let digest = fnv1a(fnv1a(FNV_OFFSET, &self.head.to_le_bytes()), &body);
        self.records.push(AxiomRecord {
            now,
            seq,
            event,
            digest,
        });
        self.head = digest;
        self.next_seq += 1;
    }

    /// Discards all records and re-seeds the chain (used at the boot
    /// barrier so the axiom, like the trace ring, excludes boot noise).
    pub fn reset(&mut self) {
        self.records.clear();
        self.head = CHAIN_SEED;
        self.next_seq = 0;
    }

    /// The sealed records, in order.
    pub fn records(&self) -> &[AxiomRecord] {
        &self.records
    }

    /// Number of sealed records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Digest sealing the latest record (== [`CHAIN_SEED`] when empty).
    pub fn head_digest(&self) -> u64 {
        self.head
    }

    /// Serialized size in bytes.
    pub fn bytes_len(&self) -> usize {
        HEADER_BYTES + self.records.len() * RECORD_BYTES
    }

    /// Recomputes the whole chain and checks it against the stored digests
    /// and head.
    pub fn verify(&self) -> Result<(), AxiomError> {
        let mut head = CHAIN_SEED;
        for rec in &self.records {
            let body = encode_body(rec.now, rec.seq, &rec.event);
            let digest = fnv1a(fnv1a(FNV_OFFSET, &head.to_le_bytes()), &body);
            if digest != rec.digest {
                return Err(AxiomError::ChainMismatch { seq: rec.seq });
            }
            head = digest;
        }
        if head != self.head {
            return Err(AxiomError::HeadMismatch);
        }
        Ok(())
    }

    /// Serializes header + records to a crash-consistent byte image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.bytes_len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.records.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.head.to_le_bytes());
        for rec in &self.records {
            out.extend_from_slice(&encode_body(rec.now, rec.seq, &rec.event));
            out.extend_from_slice(&rec.digest.to_le_bytes());
        }
        out
    }

    /// Deserializes and **fully verifies** a byte image: magic, tail
    /// integrity, record count, per-record digest chain, head digest, and
    /// event encodings. Corruption is reported before any reduction can
    /// consume the records.
    pub fn from_bytes(bytes: &[u8]) -> Result<AxiomLog, AxiomError> {
        if bytes.len() < HEADER_BYTES || &bytes[0..8] != MAGIC {
            return Err(AxiomError::BadHeader);
        }
        let count = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let head = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let body = &bytes[HEADER_BYTES..];
        if !body.len().is_multiple_of(RECORD_BYTES) {
            return Err(AxiomError::TornTail);
        }
        let found = (body.len() / RECORD_BYTES) as u64;
        if found != count {
            return Err(AxiomError::Truncated {
                expected: count,
                found,
            });
        }
        let mut records = Vec::with_capacity(found as usize);
        let mut chain = CHAIN_SEED;
        for (i, chunk) in body.chunks_exact(RECORD_BYTES).enumerate() {
            let now = u64::from_le_bytes(chunk[0..8].try_into().unwrap());
            let seq = u64::from_le_bytes(chunk[8..16].try_into().unwrap());
            let digest = u64::from_le_bytes(chunk[33..41].try_into().unwrap());
            let expect = fnv1a(fnv1a(FNV_OFFSET, &chain.to_le_bytes()), &chunk[0..33]);
            if seq != i as u64 || digest != expect {
                return Err(AxiomError::ChainMismatch { seq: i as u64 });
            }
            let event = decode_event(chunk[16], &chunk[17..33])?;
            records.push(AxiomRecord {
                now,
                seq,
                event,
                digest,
            });
            chain = digest;
        }
        if chain != head {
            return Err(AxiomError::HeadMismatch);
        }
        Ok(AxiomLog {
            enabled: true,
            records,
            head: chain,
            next_seq: found,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AxiomLog {
        let mut log = AxiomLog::new(AxiomConfig::on());
        log.append(
            0,
            AxiomEvent::Genesis {
                comps: 6,
                config_digest: fnv1a_str("enhanced"),
            },
        );
        log.append(10, AxiomEvent::WindowOpen { comp: 1 });
        log.append(
            25,
            AxiomEvent::WindowClose {
                comp: 1,
                reason: CloseCode::DisallowedSend,
                class: SeepClassCode::StateModifying,
            },
        );
        log.append(30, AxiomEvent::Crash { comp: 1 });
        log.append(
            31,
            AxiomEvent::IntentRecorded {
                comp: 1,
                phase: IntentPhaseCode::Notified,
            },
        );
        log.append(
            40,
            AxiomEvent::RecoveryDecision {
                comp: 1,
                action: ActionCode::RollbackErrorReply,
            },
        );
        log.append(
            90,
            AxiomEvent::RecoveryDone {
                comp: 1,
                cycles: 50,
            },
        );
        log.append(90, AxiomEvent::IntentResolved { comp: 1 });
        log
    }

    #[test]
    fn round_trip_preserves_records_and_head() {
        let log = sample();
        log.verify().unwrap();
        let bytes = log.to_bytes();
        assert_eq!(bytes.len(), log.bytes_len());
        let back = AxiomLog::from_bytes(&bytes).unwrap();
        assert_eq!(back.records(), log.records());
        assert_eq!(back.head_digest(), log.head_digest());
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = AxiomLog::new(AxiomConfig::default());
        log.append(5, AxiomEvent::WindowOpen { comp: 0 });
        assert!(log.is_empty());
        assert_eq!(log.head_digest(), CHAIN_SEED);
    }

    #[test]
    fn every_event_variant_round_trips() {
        let events = [
            AxiomEvent::Genesis {
                comps: 3,
                config_digest: 0xDEAD_BEEF,
            },
            AxiomEvent::WindowOpen { comp: 7 },
            AxiomEvent::WindowClose {
                comp: 7,
                reason: CloseCode::ThreadYield,
                class: SeepClassCode::RequesterScoped,
            },
            AxiomEvent::Crash { comp: 2 },
            AxiomEvent::HangDetected { comp: 3 },
            AxiomEvent::IntentRecorded {
                comp: 2,
                phase: IntentPhaseCode::Deferred,
            },
            AxiomEvent::IntentReplayed { comp: 2 },
            AxiomEvent::IntentResolved { comp: 2 },
            AxiomEvent::RecoveryDecision {
                comp: 2,
                action: ActionCode::FreshRestart,
            },
            AxiomEvent::RecoveryFallback {
                comp: 2,
                from: ActionCode::RollbackErrorReply,
                to: ActionCode::FreshRestart,
            },
            AxiomEvent::RecoveryDone {
                comp: 2,
                cycles: u64::MAX,
            },
            AxiomEvent::EscalationStep {
                comp: 2,
                restarts_in_window: 9,
                backoff: 400_000,
                exhausted: true,
            },
            AxiomEvent::Quarantined { comp: 2 },
            AxiomEvent::PoolRefresh {
                comp: 2,
                refreshed: false,
            },
            AxiomEvent::ShutdownDecision { controlled: true },
            AxiomEvent::Injection {
                run: 41,
                site_digest: 0x1234,
                outcome: OutcomeCode::Degraded,
            },
            AxiomEvent::DeadlineExpired {
                comp: 4,
                msg_id: u64::MAX - 1,
                attempt: 2,
            },
            AxiomEvent::WatchdogVerdict {
                comp: 4,
                verdict: VerdictCode::ReplyLost,
                msg_id: 99,
            },
            AxiomEvent::RetryDecision {
                comp: 4,
                msg_id: 99,
                attempt: 1,
                granted: true,
                backoff: 250_000,
            },
        ];
        let mut log = AxiomLog::new(AxiomConfig::on());
        for (i, ev) in events.iter().enumerate() {
            log.append(i as u64 * 3, *ev);
        }
        let back = AxiomLog::from_bytes(&log.to_bytes()).unwrap();
        for (rec, ev) in back.records().iter().zip(events.iter()) {
            assert_eq!(rec.event, *ev);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'Z';
        assert_eq!(AxiomLog::from_bytes(&bytes), Err(AxiomError::BadHeader));
    }

    #[test]
    fn appends_within_capacity_do_not_reallocate() {
        let mut log = AxiomLog::new(AxiomConfig {
            enabled: true,
            capacity: 64,
        });
        let cap = log.records.capacity();
        for i in 0..64 {
            log.append(i, AxiomEvent::WindowOpen { comp: 0 });
        }
        assert_eq!(log.records.capacity(), cap);
    }
}
