//! Hostile input: seeded, structure-aware mutants of a recorded axiom fed
//! to every consumer of outside bytes — `AxiomLog::from_bytes`,
//! `Os::replay`, `reduce`, `bisect(..).describe()` and the Chrome render.
//! Each returns `Ok` or `Err` and never panics, and an accepted image
//! re-serializes to exactly its bytes. Most mutants are re-sealed (digests,
//! head and record count recomputed), so the decoder proper runs, not only
//! the chain check.

use std::panic::{catch_unwind, AssertUnwindSafe};

use osiris_axiom::{
    bisect, chain_digest, reduce, AxiomError, AxiomLog, CHAIN_SEED, HEADER_BYTES, RECORD_BYTES,
};
use osiris_core::PolicyKind;
use osiris_faults::forge::{forge_config, ScriptWorkload};
use osiris_faults::{FaultKind, FaultPlan, Injector};
use osiris_rng::{mix64, Rng};
use osiris_servers::{Os, OsConfig};
use osiris_trace::chrome::ChromeTrace;

const MUTANTS: u64 = 10_000;

/// Recomputes the record count, every digest and the head, so `bytes`
/// carries a valid chain over whatever whole records it holds.
fn reseal(bytes: &mut [u8]) {
    let records = (bytes.len() - HEADER_BYTES) / RECORD_BYTES;
    let mut head = CHAIN_SEED;
    for rec in bytes[HEADER_BYTES..].chunks_exact_mut(RECORD_BYTES) {
        head = chain_digest(head, &rec[..RECORD_BYTES - 8]);
        rec[RECORD_BYTES - 8..].copy_from_slice(&head.to_le_bytes());
    }
    bytes[8..16].copy_from_slice(&(records as u64).to_le_bytes());
    bytes[16..24].copy_from_slice(&head.to_le_bytes());
}

/// One to three edits of `base` — a tag (any byte), a code byte, a field or
/// padding byte, the component byte, `now`, `seq`, a truncation anywhere or
/// at a record boundary — then usually a reseal, sometimes a header edit.
fn mutate(base: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut b = base.to_vec();
    for _ in 0..rng.range(1, 4) {
        let records = (b.len() - HEADER_BYTES) / RECORD_BYTES;
        if records == 0 {
            break;
        }
        let rec = HEADER_BYTES + rng.below_usize(records) * RECORD_BYTES;
        let payload = rec + 17;
        match rng.below(8) {
            0 => b[rec + 16] = rng.byte(),
            1 => b[payload + 1 + rng.below_usize(2)] = rng.below(8) as u8,
            2 => b[payload + rng.below_usize(16)] = rng.byte(),
            3 => b[payload] = rng.byte(),
            4 => b[rec + rng.below_usize(8)] = rng.byte(),
            5 => b[rec + 8 + rng.below_usize(8)] = rng.byte(),
            6 => b.truncate(HEADER_BYTES + rng.below_usize(b.len() - HEADER_BYTES + 1)),
            _ => b.truncate(HEADER_BYTES + rng.below_usize(records + 1) * RECORD_BYTES),
        }
    }
    if rng.chance(7, 8) {
        reseal(&mut b);
    }
    if rng.chance(1, 8) {
        let at = rng.below_usize(HEADER_BYTES.min(b.len()));
        b[at] = rng.byte();
    }
    b
}

#[test]
fn hostile_axioms_are_rejected_or_round_trip_and_never_panic() {
    osiris_kernel::install_quiet_panic_hook();
    let mut os = Os::new(forge_config(PolicyKind::Enhanced));
    let plan = FaultPlan::once(FaultKind::Crash, "vfs.open.entry");
    os.set_fault_hook(Box::new(Injector::new(&plan)));
    ScriptWorkload::default().run(&mut os);
    let base = AxiomLog::from_bytes(&os.axiom_bytes()).expect("the recorded axiom decodes");
    assert!(
        reduce(base.records()).crashes > 0,
        "the base log holds a crash"
    );
    let base_bytes = base.to_bytes();
    let names = os.kernel().trace_names();
    // What genesis seals matches; the small VM keeps each boot cheap.
    let replay_cfg = || OsConfig {
        vm_frames: 64,
        ..OsConfig::with_policy(PolicyKind::Enhanced)
    };

    let (mut accepted, mut adopted) = (0u64, 0u64);
    for case in 0..MUTANTS {
        let seed = mix64(0xA710_5EED ^ case);
        println!("case {case}: seed {seed:#018x}");
        let bytes = mutate(&base_bytes, &mut Rng::new(seed));
        let verdict = catch_unwind(AssertUnwindSafe(|| {
            let replayed = Os::replay(replay_cfg(), &bytes).map(drop);
            let Ok(log) = AxiomLog::from_bytes(&bytes) else {
                assert!(
                    replayed.is_err(),
                    "Os::replay adopted what from_bytes refused"
                );
                return (false, false);
            };
            assert_eq!(log.to_bytes(), bytes, "an accepted image round-trips");
            assert_eq!(log.verify(), Ok(()), "an accepted log verifies");
            assert!(matches!(replayed, Ok(()) | Err(AxiomError::ConfigMismatch)));
            reduce(log.records());
            if let Some(d) = bisect(base.records(), log.records()) {
                d.describe();
            }
            let chrome = ChromeTrace {
                records: Vec::new(),
                names: names.clone(),
                axiom: log.records(),
                counters: &(),
            };
            chrome.pretty();
            (true, replayed.is_ok())
        }));
        match verdict {
            Ok((ok, replayed)) => {
                accepted += u64::from(ok);
                adopted += u64::from(replayed);
            }
            Err(_) => panic!("case {case} (seed {seed:#018x}) panicked"),
        }
    }
    println!(
        "{MUTANTS} mutants: {accepted} accepted ({adopted} adopted by Os::replay), {} rejected",
        MUTANTS - accepted
    );
    assert!(accepted > MUTANTS / 10 && accepted < MUTANTS - MUTANTS / 10);
}
