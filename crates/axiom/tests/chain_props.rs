//! Chain-integrity properties: every corruption class — bit flips,
//! truncation, record reordering, torn tails — is detected by
//! `AxiomLog::from_bytes` *before* any reduction can consume the records.
//! Mirrors the checkpoint crate's `integrity_proptests`.

use osiris_axiom::{
    bisect, chain_digest, fnv1a_str, reduce, ActionCode, AxiomConfig, AxiomError, AxiomEvent,
    AxiomLog, CloseCode, IntentPhaseCode, OutcomeCode, SeepClassCode, VerdictCode, CHAIN_SEED,
    HEADER_BYTES, RECORD_BYTES,
};
use osiris_rng::Rng;

/// One log holding every event variant and every value of every code
/// enum, with non-zero fields wherever a field can be non-zero.
fn every_variant_log() -> AxiomLog {
    use ActionCode as A;
    use CloseCode as C;
    use SeepClassCode as S;
    let actions = [
        A::RollbackErrorReply,
        A::RollbackKillRequester,
        A::FreshRestart,
        A::ContinueAsIs,
        A::ControlledShutdown,
        A::UncontrolledCrash,
    ];
    let mut events = vec![AxiomEvent::Genesis {
        comps: 6,
        config_digest: fnv1a_str("oracle"),
    }];
    for (i, reason) in [
        C::Completed,
        C::DisallowedSend,
        C::ThreadYield,
        C::Manual,
        C::Rollback,
    ]
    .into_iter()
    .enumerate()
    {
        for class in [
            S::None,
            S::NonStateModifying,
            S::StateModifying,
            S::RequesterScoped,
        ] {
            events.push(AxiomEvent::WindowClose {
                comp: 1 + i as u8,
                reason,
                class,
            });
        }
    }
    for phase in [
        IntentPhaseCode::Notified,
        IntentPhaseCode::Deferred,
        IntentPhaseCode::Issued,
    ] {
        events.push(AxiomEvent::IntentRecorded { comp: 2, phase });
    }
    for (i, &action) in actions.iter().enumerate() {
        events.push(AxiomEvent::RecoveryDecision { comp: 3, action });
        events.push(AxiomEvent::RecoveryFallback {
            comp: 3,
            from: action,
            to: actions[(i + 1) % actions.len()],
        });
    }
    for (i, verdict) in [
        VerdictCode::Hung,
        VerdictCode::Slow,
        VerdictCode::ReplyLost,
        VerdictCode::CorruptReply,
    ]
    .into_iter()
    .enumerate()
    {
        events.push(AxiomEvent::WatchdogVerdict {
            comp: 4,
            verdict,
            msg_id: 0x0102_0304_0506_0708 + i as u64,
        });
    }
    for (i, outcome) in [
        OutcomeCode::Recovered,
        OutcomeCode::Degraded,
        OutcomeCode::ControlledShutdown,
        OutcomeCode::UncontrolledCrash,
        OutcomeCode::Failed,
    ]
    .into_iter()
    .enumerate()
    {
        events.push(AxiomEvent::Injection {
            run: 0x0A0B_0C0D + i as u32,
            site_digest: fnv1a_str("pm.fork.validate") ^ i as u64,
            outcome,
        });
    }
    for flag in [true, false] {
        events.extend([
            AxiomEvent::EscalationStep {
                comp: 5,
                restarts_in_window: 0x1122_3344,
                backoff: 0x5566_7788_99AA_BBCC,
                exhausted: flag,
            },
            AxiomEvent::PoolRefresh {
                comp: 5,
                refreshed: flag,
            },
            AxiomEvent::ShutdownDecision { controlled: flag },
            AxiomEvent::RetryDecision {
                comp: 4,
                msg_id: 0xFEDC_BA98_7654_3210,
                attempt: 3,
                granted: flag,
                backoff: 0xDEAD_BEEF,
            },
        ]);
    }
    events.extend([
        AxiomEvent::WindowOpen { comp: 1 },
        AxiomEvent::Crash { comp: 2 },
        AxiomEvent::HangDetected { comp: 3 },
        AxiomEvent::IntentReplayed { comp: 2 },
        AxiomEvent::IntentResolved { comp: 2 },
        AxiomEvent::RecoveryDone {
            comp: 2,
            cycles: 0x0F1E_2D3C_4B5A_6978,
        },
        AxiomEvent::Quarantined { comp: 5 },
        AxiomEvent::DeadlineExpired {
            comp: 4,
            msg_id: 0x1357_9BDF_2468_ACE0,
            attempt: 2,
        },
    ]);
    let mut log = AxiomLog::new(AxiomConfig::on());
    for (i, ev) in events.into_iter().enumerate() {
        log.append(0x1000 + 7 * i as u64, ev);
    }
    log
}

/// Recorded at the parent of the `axiom_table!` change: the generated
/// encoder and `name()` must reproduce the hand-written ones exactly.
#[test]
fn every_variant_and_code_value_encodes_as_recorded() {
    let log = every_variant_log();
    let bytes = log.to_bytes();
    assert_eq!(
        osiris_axiom::fnv1a(CHAIN_SEED, &bytes),
        0x751B_0E78_4963_9647,
        "to_bytes digest"
    );
    let mut names: Vec<&str> = log.records().iter().map(|r| r.event.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names,
        [
            "crash",
            "deadline_expired",
            "escalation_step",
            "genesis",
            "hang_detected",
            "injection",
            "intent_recorded",
            "intent_replayed",
            "intent_resolved",
            "pool_refresh",
            "quarantined",
            "recovery_decision",
            "recovery_done",
            "recovery_fallback",
            "retry_decision",
            "shutdown_decision",
            "watchdog_verdict",
            "window_close",
            "window_open",
        ]
    );
    let back = AxiomLog::from_bytes(&bytes).expect("the oracle log decodes");
    assert_eq!(back.records(), log.records());
}

/// Re-seals every record digest and the header's head, so `bytes` carries a
/// valid chain whatever its payloads now say.
fn reseal(bytes: &mut [u8]) {
    let mut head = CHAIN_SEED;
    for rec in bytes[HEADER_BYTES..].chunks_exact_mut(RECORD_BYTES) {
        head = chain_digest(head, &rec[..RECORD_BYTES - 8]);
        rec[RECORD_BYTES - 8..].copy_from_slice(&head.to_le_bytes());
    }
    bytes[16..24].copy_from_slice(&head.to_le_bytes());
}

/// A chain sealed over a non-canonical payload (a non-zero byte past the
/// variant's fields, or a bool byte above 1) is still rejected: the log
/// would otherwise fail its own `verify()` after decoding.
#[test]
fn non_canonical_payloads_are_rejected_even_when_resealed() {
    let log = every_variant_log();
    let clean = log.to_bytes();
    for (i, rec) in log.records().iter().enumerate() {
        let payload = HEADER_BYTES + i * RECORD_BYTES + 17;
        // Payload byte 15 lies past every variant's fields.
        let mut edits = vec![payload + 15];
        edits.extend(match rec.event {
            AxiomEvent::ShutdownDecision { .. } => Some(payload),
            AxiomEvent::PoolRefresh { .. } => Some(payload + 1),
            AxiomEvent::RetryDecision { .. } => Some(payload + 10),
            AxiomEvent::EscalationStep { .. } => Some(payload + 13),
            _ => None,
        });
        for at in edits {
            let mut bytes = clean.clone();
            bytes[at] = 2;
            reseal(&mut bytes);
            assert_eq!(
                AxiomLog::from_bytes(&bytes),
                Err(AxiomError::BadEncoding),
                "record {i} ({}), byte {at}",
                rec.event.name()
            );
        }
    }
    let mut same = clean.clone();
    reseal(&mut same);
    assert_eq!(same, clean, "resealing a canonical log changes nothing");
}

/// Builds a log of `n` pseudo-random (but deterministic) control events.
fn random_log(seed: u64, n: usize) -> AxiomLog {
    let mut rng = Rng::new(seed);
    let mut log = AxiomLog::new(AxiomConfig::on());
    let mut now = 0u64;
    log.append(
        now,
        AxiomEvent::Genesis {
            comps: 6,
            config_digest: seed,
        },
    );
    for i in 0..n {
        now += rng.range(1, 500);
        let comp = (rng.below(6)) as u8;
        let ev = match rng.below(12) {
            0 => AxiomEvent::WindowOpen { comp },
            1 => AxiomEvent::WindowClose {
                comp,
                reason: CloseCode::DisallowedSend,
                class: SeepClassCode::StateModifying,
            },
            2 => AxiomEvent::Crash { comp },
            3 => AxiomEvent::HangDetected { comp },
            4 => AxiomEvent::IntentRecorded {
                comp,
                phase: IntentPhaseCode::Issued,
            },
            5 => AxiomEvent::IntentReplayed { comp },
            6 => AxiomEvent::RecoveryDecision {
                comp,
                action: ActionCode::RollbackErrorReply,
            },
            7 => AxiomEvent::RecoveryDone {
                comp,
                cycles: rng.below(100_000),
            },
            8 => AxiomEvent::EscalationStep {
                comp,
                restarts_in_window: rng.below(9) as u32,
                backoff: rng.below(400_000),
                exhausted: rng.chance(1, 8),
            },
            9 => AxiomEvent::Quarantined { comp },
            10 => AxiomEvent::PoolRefresh {
                comp,
                refreshed: rng.chance(1, 2),
            },
            _ => AxiomEvent::Injection {
                run: i as u32,
                site_digest: rng.next_u64(),
                outcome: OutcomeCode::Recovered,
            },
        };
        log.append(now, ev);
    }
    log
}

#[test]
fn round_trip_is_lossless_and_reduction_deterministic() {
    for seed in [1u64, 0xBEEF, 0x7ACE_5EED] {
        let log = random_log(seed, 200);
        log.verify().expect("freshly built log verifies");
        let bytes = log.to_bytes();
        let back = AxiomLog::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.records(), log.records());
        assert_eq!(back.head_digest(), log.head_digest());
        assert_eq!(reduce(back.records()), reduce(log.records()));
        assert!(bisect(back.records(), log.records()).is_none());
    }
}

#[test]
fn any_single_bit_flip_in_the_body_is_detected() {
    let log = random_log(0xF11B, 48);
    let bytes = log.to_bytes();
    let mut rng = Rng::new(99);
    // Exhaustive over records, random bit within each: every record must be
    // protected no matter where the flip lands.
    for rec in 0..log.len() {
        let byte = HEADER_BYTES + rec * RECORD_BYTES + rng.below_usize(RECORD_BYTES);
        let bit = 1u8 << rng.below(8);
        let mut corrupt = bytes.clone();
        corrupt[byte] ^= bit;
        let err = AxiomLog::from_bytes(&corrupt).expect_err("bit flip must be detected");
        assert!(
            matches!(
                err,
                AxiomError::ChainMismatch { .. } | AxiomError::HeadMismatch
            ),
            "unexpected error class for flip at byte {byte}: {err:?}"
        );
    }
}

#[test]
fn header_bit_flips_are_detected() {
    let log = random_log(7, 16);
    let bytes = log.to_bytes();
    for byte in 0..HEADER_BYTES {
        let mut corrupt = bytes.clone();
        corrupt[byte] ^= 0x10;
        assert!(
            AxiomLog::from_bytes(&corrupt).is_err(),
            "header flip at byte {byte} must be detected"
        );
    }
}

#[test]
fn truncation_at_record_boundaries_is_detected() {
    let log = random_log(0xDEAD, 32);
    let bytes = log.to_bytes();
    for drop_records in 1..=log.len() {
        let keep = bytes.len() - drop_records * RECORD_BYTES;
        match AxiomLog::from_bytes(&bytes[..keep]) {
            Err(AxiomError::Truncated { expected, found }) => {
                assert_eq!(expected, log.len() as u64);
                assert_eq!(found, (log.len() - drop_records) as u64);
            }
            other => panic!("truncation of {drop_records} records not detected: {other:?}"),
        }
    }
}

#[test]
fn torn_tail_mid_record_is_detected() {
    let log = random_log(0xBAD_7A11, 20);
    let bytes = log.to_bytes();
    let mut rng = Rng::new(3);
    for _ in 0..64 {
        // Tear somewhere that is not a record boundary.
        let cut = HEADER_BYTES + rng.below_usize(bytes.len() - HEADER_BYTES);
        if (cut - HEADER_BYTES).is_multiple_of(RECORD_BYTES) {
            continue;
        }
        assert_eq!(
            AxiomLog::from_bytes(&bytes[..cut]).expect_err("torn tail must be detected"),
            AxiomError::TornTail,
            "cut at {cut}"
        );
    }
}

#[test]
fn reordering_any_two_records_is_detected() {
    let log = random_log(0x5EED, 24);
    let bytes = log.to_bytes();
    let mut rng = Rng::new(11);
    for _ in 0..128 {
        let i = rng.below_usize(log.len());
        let j = rng.below_usize(log.len());
        if i == j {
            continue;
        }
        let mut corrupt = bytes.clone();
        let (lo, hi) = (i.min(j), i.max(j));
        let a = HEADER_BYTES + lo * RECORD_BYTES;
        let b = HEADER_BYTES + hi * RECORD_BYTES;
        for k in 0..RECORD_BYTES {
            corrupt.swap(a + k, b + k);
        }
        let err = AxiomLog::from_bytes(&corrupt).expect_err("reorder must be detected");
        assert!(
            matches!(err, AxiomError::ChainMismatch { seq } if seq == lo as u64),
            "swap {lo}<->{hi}: expected chain break at {lo}, got {err:?}"
        );
    }
}

#[test]
fn appending_after_tamper_cannot_hide_the_break() {
    // Simulate an attacker (or a buggy writer) editing a sealed record and
    // re-serializing without recomputing the downstream chain: verify()
    // still pinpoints the edit.
    let mut log = random_log(0xA77A, 12);
    let bytes = log.to_bytes();
    let mut reloaded = AxiomLog::from_bytes(&bytes).unwrap();
    // A fresh append on the reloaded log continues the chain seamlessly.
    reloaded.append(u64::MAX, AxiomEvent::ShutdownDecision { controlled: true });
    reloaded
        .verify()
        .expect("chain continues across serialize/reload");
    log.append(u64::MAX, AxiomEvent::ShutdownDecision { controlled: true });
    assert_eq!(log.head_digest(), reloaded.head_digest());
}
