//! # osiris-axiom
//!
//! The **axiom log**: a single append-only, totally ordered, FNV-digest-
//! chained history of every *control-plane* transition in an OSIRIS
//! machine — window opens and closes (with the SEEP class that forced the
//! close), crashes and hangs, recovery decisions and fallbacks, escalation
//! steps, quarantines, intent re-drives, pool refreshes and shutdowns.
//!
//! The design follows zero-os's *Axiom principle*: only events recorded in
//! the axiom are real. All kernel + Recovery Server control state —
//! component liveness, open windows, recovery intents, escalation pressure,
//! quarantines — is a **pure reduction** of the log ([`reduce`]). The
//! kernel folds each event into its live [`ControlState`] as it is sealed
//! and reads that state, so a post-mortem reduction reconstructs the state
//! the kernel actually acted on, by construction.
//!
//! Like `osiris-trace` (DESIGN.md §6d) the log is deterministic (virtual
//! time only), allocation-free in steady state ([`AxiomEvent`] is `Copy`,
//! the backing `Vec` is reserved up front; the `gates` binary counts) and
//! cheap when off (the fold runs, nothing is digested or retained).
//!
//! Crash consistency comes from the digest chain: every record's digest is
//! FNV-1a64 over the previous digest plus the record's own encoded bytes,
//! and the serialized form carries the head digest. Bit flips, truncation,
//! reordering and torn tails are all detected by [`AxiomLog::from_bytes`]
//! **before** any reduction runs (property-tested in `chain_props.rs`), and
//! a payload the encoder would not have written is refused even under a
//! valid chain.
//!
//! Each event variant is declared once, as a row of `axiom_table!`; each
//! shared code enum once, in `codes!`. The crate is a leaf: it depends on
//! nothing in the workspace. `osiris-trace` re-exports the shared
//! [`CloseCode`]/[`SeepClassCode`]/[`ActionCode`] vocabularies from here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bisect;
mod reduce;

pub use bisect::{bisect, Divergence};
pub use reduce::{reduce, CompStatusCode, ControlState, IntentSlot, MAX_COMPS};

/// Component id used for events emitted by the kernel itself rather than on
/// behalf of a registered component (mirrors `osiris_trace::KERNEL_COMP`).
pub const KERNEL_COMP: u8 = 0xFF;

/// Serialized size of one record: `now`(8) + `seq`(8) + tag(1) +
/// payload(16, zero-padded) + `digest`(8).
pub const RECORD_BYTES: usize = 41;
/// Serialized header: magic(8) + record count(8) + head digest(8).
pub const HEADER_BYTES: usize = 24;
const MAGIC: [u8; 8] = *b"AXIOLOG1";
const PAYLOAD_BYTES: usize = 16;
/// The part of a record its digest seals: everything but the digest.
const SEALED_BYTES: usize = RECORD_BYTES - 8;

/// Packs values little-endian, one after another, into a zeroed record.
struct Writer {
    buf: [u8; SEALED_BYTES],
    at: usize,
}

impl Writer {
    fn put<const N: usize>(&mut self, bytes: [u8; N]) {
        self.buf[self.at..self.at + N].copy_from_slice(&bytes);
        self.at += N;
    }
}

/// Reads values back in the same order: `None` once the bytes run out.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.0.split_first_chunk::<N>()?;
        self.0 = rest;
        Some(*head)
    }
}

/// A field of an event as its text shows it ([`AxiomEvent::fields`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldValue {
    /// An integer of any width.
    U64(u64),
    /// A flag.
    Bool(bool),
    /// A code, by its variant identifier.
    Code(&'static str),
}

/// A value a record payload holds: `size_of` bytes, little-endian (bool
/// and the `#[repr(u8)]` codes take one).
trait Wire: Sized {
    fn put(self, w: &mut Writer);
    fn get(r: &mut Reader<'_>) -> Option<Self>;
    fn value(self) -> FieldValue;
    /// Entry `i` of this type's sample cycle ([`AxiomEvent::samples`]).
    fn sample(i: usize) -> Self;
}

/// The integers sample events cycle through: zero, both sides of the
/// first digit boundary, and the largest `u32` and `u64`.
#[doc(hidden)]
pub const SAMPLE_INTS: [u64; 5] = [0, 9, 10, u32::MAX as u64, u64::MAX];

/// Rounds of [`AxiomEvent::samples`] that give every field every entry of
/// its type's cycle: every sample integer, both flags, every code.
#[doc(hidden)]
pub const SAMPLE_ROUNDS: usize = max_of(&[SAMPLE_INTS.len(), 2, CODE_COUNT_MAX]);

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(self, w: &mut Writer) {
                w.put(self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Option<Self> {
                r.take().map(<$t>::from_le_bytes)
            }
            fn value(self) -> FieldValue {
                FieldValue::U64(self.into())
            }
            fn sample(i: usize) -> Self {
                SAMPLE_INTS[i % SAMPLE_INTS.len()] as $t
            }
        }
    )*};
}

wire_int!(u8, u32, u64);

impl Wire for bool {
    fn put(self, w: &mut Writer) {
        w.put([self as u8]);
    }
    // A byte above 1 reads as `true`, then fails the canonical re-encode.
    fn get(r: &mut Reader<'_>) -> Option<Self> {
        u8::get(r).map(|b| b != 0)
    }
    fn value(self) -> FieldValue {
        FieldValue::Bool(self)
    }
    fn sample(i: usize) -> Self {
        i % 2 == 1
    }
}

/// Declares the shared code enums. Each is `#[repr(u8)]`: a value's wire
/// byte is its declaration index, and `from_u8` is the one checked way back;
/// `ident` is the text `{:?}` prints.
macro_rules! codes {
    ($(
        $(#[$doc:meta])*
        $name:ident { $( $(#[$vdoc:meta])* $variant:ident, )* }
    )*) => {$(
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum $name {
            $( $(#[$vdoc])* $variant, )*
        }

        impl $name {
            /// Every value, in wire order: a value's byte is its index.
            pub const ALL: &'static [$name] = &[$($name::$variant),*];

            /// The length of the longest [`ident`](Self::ident).
            pub const IDENT_MAX: usize = max_of(&[$(stringify!($variant).len()),*]);

            /// The value whose wire byte is `b`, if there is one.
            pub fn from_u8(b: u8) -> Option<$name> {
                $name::ALL.get(usize::from(b)).copied()
            }

            /// The variant's identifier.
            pub fn ident(self) -> &'static str {
                match self {
                    $( $name::$variant => stringify!($variant), )*
                }
            }
        }

        impl Wire for $name {
            fn put(self, w: &mut Writer) {
                w.put([self as u8]);
            }
            fn get(r: &mut Reader<'_>) -> Option<Self> {
                u8::get(r).and_then($name::from_u8)
            }
            fn value(self) -> FieldValue {
                FieldValue::Code(self.ident())
            }
            fn sample(i: usize) -> Self {
                $name::ALL[i % $name::ALL.len()]
            }
        }
    )*

        /// The most values any code type has.
        const CODE_COUNT_MAX: usize = max_of(&[$($name::ALL.len()),*]);
    };
}

/// The largest of `xs`, or 0.
const fn max_of(xs: &[usize]) -> usize {
    let (mut max, mut i) = (0, 0);
    while i < xs.len() {
        if xs[i] > max {
            max = xs[i];
        }
        i += 1;
    }
    max
}

codes! {
    /// Why a recovery window closed.
    CloseCode {
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
    SeepClassCode {
        /// The close was not caused by a send.
        None,
        /// Non-state-modifying at the receiver.
        NonStateModifying,
        /// State-modifying at the receiver.
        StateModifying,
        /// State-modifying but scoped to the requesting process.
        RequesterScoped,
    }

    /// The reconciliation action for a crashed component: what a policy in
    /// `osiris-core` decides, the kernel executes and the axiom records.
    ActionCode {
        /// Roll back to the window mark, restart, and answer `E_CRASH`
        /// (error virtualization; handles persistent faults too).
        RollbackErrorReply,
        /// Roll back, restart, and kill the requesting process, whose exit
        /// path cleans the state the window exported (paper §VII).
        RollbackKillRequester,
        /// Restart from the pristine boot image (stateless baseline).
        FreshRestart,
        /// Restart keeping the crash-time state (naive baseline).
        ContinueAsIs,
        /// Give up consistently: controlled shutdown.
        ControlledShutdown,
        /// Give up inconsistently: uncontrolled crash.
        UncontrolledCrash,
    }

    /// How far the Recovery Server has driven an in-flight recovery (the
    /// kernel's intent log is a view over the axiom tail).
    IntentPhaseCode {
        /// The kernel routed a crash notification to the RS.
        Notified,
        /// The RS armed a backoff timer; the recovery is deferred.
        Deferred,
        /// The RS issued (or is about to issue) the recover request.
        Issued,
    }

    /// Watchdog verdict on a component whose armed request deadline expired
    /// (mirrors the kernel's fail-silent detection state machine).
    VerdictCode {
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
    OutcomeCode {
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
}

/// Declares [`AxiomEvent`] from one row per variant: its docs, then
/// `tag Variant("name"[, comp])` and its fields in wire order. `comp`
/// declares a leading `comp: u8` field, the component the event concerns
/// ([`AxiomEvent::comp`]). The enum, `name()`, `comp()`, the field visitor
/// its text is written from, the encoder and the decoder all come from the
/// row: after the tag byte, the fields pack little-endian in order into the
/// zero-padded payload.
macro_rules! axiom_table {
    ($(
        $(#[$vdoc:meta])*
        $tag:literal $variant:ident($name:literal $(, $comp:ident)?) {
            $( $(#[$fdoc:meta])* $field:ident: $ty:ty, )*
        }
    )*) => {
        /// A typed, fixed-size control-plane event. Every variant is `Copy`
        /// and contains no heap-owning field, so appending never allocates.
        ///
        /// High-frequency data-plane events (undo appends, IPC, syscalls) are
        /// deliberately **excluded**: they belong to the trace ring. The
        /// axiom records only transitions that change control state.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum AxiomEvent {
            $( $(#[$vdoc])* $variant {
                $( /// Component the event concerns.
                   $comp: u8, )?
                $( $(#[$fdoc])* $field: $ty, )*
            }, )*
        }

        // Every row fits the payload.
        const _: () = {
            $( assert!(0 $(+ axiom_table!(@u8 $comp))? $(+ size_of::<$ty>())* <= PAYLOAD_BYTES); )*
        };

        impl AxiomEvent {
            /// Stable short name, used by the Chrome exporter and `bisect`
            /// output.
            pub fn name(&self) -> &'static str {
                match self {
                    $( AxiomEvent::$variant { .. } => $name, )*
                }
            }

            /// Component the event concerns, if any.
            pub fn comp(&self) -> Option<u8> {
                match *self {
                    $( AxiomEvent::$variant { $($comp,)? .. } => axiom_table!(@some $($comp)?), )*
                }
            }

            /// The variant's identifier: the head of the text `{:?}` prints.
            pub fn ident(&self) -> &'static str {
                match self {
                    $( AxiomEvent::$variant { .. } => stringify!($variant), )*
                }
            }

            /// Shows each field to `show`, in declaration order (`comp`
            /// first): the rest of that text.
            pub fn fields(&self, mut show: impl FnMut(&'static str, FieldValue)) {
                match *self {
                    $( AxiomEvent::$variant { $($comp,)? $($field,)* } => {
                        $( show(stringify!($comp), $comp.value()); )?
                        $( show(stringify!($field), $field.value()); )*
                    } )*
                }
            }

            /// One event of every variant, for tests that must cover them
            /// all. The fields, in order across the list, take consecutive
            /// entries of their type's cycle ([`SAMPLE_INTS`] cast to the
            /// width, `false` then `true`, codes in wire order) from entry
            /// `round` on: no two fields of an event are equal in every
            /// round, and over [`SAMPLE_ROUNDS`] rounds every field takes
            /// every entry.
            #[doc(hidden)]
            pub fn samples(round: usize) -> Vec<AxiomEvent> {
                let mut at = round;
                let mut next = || {
                    at += 1;
                    at - 1
                };
                vec![$( AxiomEvent::$variant {
                    $( $comp: Wire::sample(next()), )?
                    $( $field: Wire::sample(next()), )*
                } ),*]
            }

            /// Writes the tag, then the fields.
            fn encode(self, w: &mut Writer) {
                match self {
                    $( AxiomEvent::$variant { $($comp,)? $($field,)* } => {
                        w.put([$tag]);
                        $( $comp.put(w); )?
                        $( $field.put(w); )*
                    } )*
                }
            }

            /// Reads the tag and the fields back: `None` for an unknown tag
            /// or code byte.
            fn decode(r: &mut Reader<'_>) -> Option<AxiomEvent> {
                Some(match u8::get(r)? {
                    $( $tag => AxiomEvent::$variant {
                        $( $comp: Wire::get(r)?, )?
                        $( $field: Wire::get(r)?, )*
                    }, )*
                    _ => return None,
                })
            }
        }
    };
    (@u8 $comp:ident) => { size_of::<u8>() };
    (@some $comp:ident) => { Some($comp) };
    (@some) => { None };
}

axiom_table! {
    /// First event of every log: the machine booted. `config_digest` is an
    /// FNV-1a64 digest of the control-relevant configuration (policy name,
    /// instrumentation mode, component count), so two axioms are only
    /// comparable when their configurations match.
    0 Genesis("genesis") {
        /// Number of registered components.
        comps: u8,
        /// Digest of the control-relevant configuration.
        config_digest: u64,
    }
    /// A recovery window opened for `comp`.
    1 WindowOpen("window_open", comp) {}
    /// The window for `comp` closed, with the SEEP classification that
    /// participated in the close.
    2 WindowClose("window_close", comp) {
        /// Why the window closed.
        reason: CloseCode,
        /// SEEP class of the send that closed it (or `None`).
        class: SeepClassCode,
    }
    /// `comp` crashed (fail-stop).
    3 Crash("crash", comp) {}
    /// `comp` stopped responding to heartbeats.
    4 HangDetected("hang_detected", comp) {}
    /// A recovery intent for `comp` was recorded or refined.
    5 IntentRecorded("intent_recorded", comp) {
        /// Intent lifecycle phase.
        phase: IntentPhaseCode,
    }
    /// The kernel re-drove an interrupted recovery intent for `comp`.
    6 IntentReplayed("intent_replayed", comp) {}
    /// The intent for `comp` was resolved (recovery completed, the target
    /// was quarantined, or the machine shut down).
    7 IntentResolved("intent_resolved", comp) {}
    /// Recovery of `comp` begins with `action`.
    8 RecoveryDecision("recovery_decision", comp) {
        /// Action chosen for the first attempt.
        action: ActionCode,
    }
    /// A recovery phase faulted and the kernel fell back along the
    /// `Rollback → FreshRestart → ControlledShutdown` chain.
    9 RecoveryFallback("recovery_fallback", comp) {
        /// Action that faulted.
        from: ActionCode,
        /// Action attempted next.
        to: ActionCode,
    }
    /// Recovery of `comp` completed after `cycles` virtual cycles.
    10 RecoveryDone("recovery_done", comp) {
        /// Virtual cycles charged to the recovery.
        cycles: u64,
    }
    /// The escalation ladder observed a restart for `comp`.
    11 EscalationStep("escalation_step", comp) {
        /// Restarts inside the sliding budget window (after this one).
        restarts_in_window: u32,
        /// Backoff armed before the restart (0 = immediate).
        backoff: u64,
        /// Whether the restart budget is now exhausted.
        exhausted: bool,
    }
    /// `comp` was taken out of service.
    12 Quarantined("quarantined", comp) {}
    /// The RS refreshed (or skipped refreshing) `comp`'s clone-pool image.
    13 PoolRefresh("pool_refresh", comp) {
        /// Whether the image was actually re-captured.
        refreshed: bool,
    }
    /// The machine decided to shut down.
    14 ShutdownDecision("shutdown_decision") {
        /// `true` for a controlled shutdown, `false` for an uncontrolled
        /// crash.
        controlled: bool,
    }
    /// One fault-campaign injection finished (campaign-owned axioms only;
    /// never appears in a kernel axiom). `site_digest` identifies the
    /// injection site + fault kind independently of the policy under test,
    /// so [`bisect`] over two campaigns pinpoints the first injection whose
    /// outcome diverges between configurations.
    15 Injection("injection") {
        /// Zero-based injection index within the campaign.
        run: u32,
        /// FNV-1a64 digest of `component.site` + fault kind.
        site_digest: u64,
        /// Terminal outcome of the injection run.
        outcome: OutcomeCode,
    }
    /// The armed deadline for a request to `comp` expired with no reply.
    16 DeadlineExpired("deadline_expired", comp) {
        /// Message id of the armed request.
        msg_id: u64,
        /// Delivery attempt the deadline belonged to (0 = first send).
        attempt: u8,
    }
    /// The watchdog concluded its probe of `comp` with a verdict.
    17 WatchdogVerdict("watchdog_verdict", comp) {
        /// What the heartbeat/progress probe concluded.
        verdict: VerdictCode,
        /// Message id of the request that armed the watchdog.
        msg_id: u64,
    }
    /// The kernel decided whether to transparently retry a failed request
    /// to `comp`.
    18 RetryDecision("retry_decision", comp) {
        /// Message id of the request.
        msg_id: u64,
        /// Delivery attempt the decision concerns (0 = first send).
        attempt: u8,
        /// Whether the retry was granted (else the requester sees E_CRASH).
        granted: bool,
        /// Backoff (virtual cycles, incl. jitter) armed before the resend.
        backoff: u32,
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
    /// [`chain_digest`] of the previous digest and this record's bytes.
    pub digest: u64,
}

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

/// One link of the chain: the digest of a record's sealed bytes (all but its
/// trailing digest) after the record digested `prev` ([`CHAIN_SEED`] first).
pub fn chain_digest(prev: u64, sealed: &[u8]) -> u64 {
    fnv1a(fnv1a(FNV_OFFSET, &prev.to_le_bytes()), sealed)
}

/// Encodes `now`/`seq`/tag/payload: everything the digest covers.
fn encode_body(now: u64, seq: u64, event: AxiomEvent) -> [u8; SEALED_BYTES] {
    let mut w = Writer {
        buf: [0; SEALED_BYTES],
        at: 0,
    };
    now.put(&mut w);
    seq.put(&mut w);
    event.encode(&mut w);
    w.buf
}

/// Decodes record `seq` of a byte image, chained after digest `prev`. The
/// link is checked first, so corruption reads as a chain break; then the
/// payload, which must be canonical: re-encoding the decoded event
/// reproduces the sealed bytes exactly (no stray padding, no bool above 1).
fn decode_record(seq: u64, prev: u64, chunk: &[u8]) -> Result<AxiomRecord, AxiomError> {
    let mut r = Reader(chunk);
    let (Some(sealed), Some(digest)) = (r.take::<SEALED_BYTES>(), u64::get(&mut r)) else {
        return Err(AxiomError::TornTail);
    };
    let mut r = Reader(&sealed);
    let (now, stored_seq) = (u64::get(&mut r), u64::get(&mut r));
    if stored_seq != Some(seq) || digest != chain_digest(prev, &sealed) {
        return Err(AxiomError::ChainMismatch { seq });
    }
    match (now, AxiomEvent::decode(&mut r)) {
        (Some(now), Some(event)) if encode_body(now, seq, event) == sealed => Ok(AxiomRecord {
            now,
            seq,
            event,
            digest,
        }),
        _ => Err(AxiomError::BadEncoding),
    }
}

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
    /// An event tag or code byte is out of range, or a payload holds bytes
    /// the encoder would not have written.
    BadEncoding,
    /// The log is intact but was recorded under another configuration
    /// (component count, policy, instrumentation) than the machine asked to
    /// adopt it.
    ConfigMismatch,
}

impl std::fmt::Display for AxiomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AxiomError::BadHeader => write!(f, "bad axiom header or magic"),
            AxiomError::TornTail => write!(f, "torn tail: body is not a whole number of records"),
            AxiomError::Truncated { expected, found } => write!(
                f,
                "truncated axiom: header promises {expected} records, found {found}"
            ),
            AxiomError::ChainMismatch { seq } => write!(f, "digest chain breaks at seq {seq}"),
            AxiomError::HeadMismatch => write!(f, "head digest does not match recomputed chain"),
            AxiomError::BadEncoding => write!(f, "unknown tag or code, or non-canonical payload"),
            AxiomError::ConfigMismatch => write!(f, "axiom recorded under another configuration"),
        }
    }
}

impl std::error::Error for AxiomError {}

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
        let digest = chain_digest(self.head, &encode_body(now, seq, event));
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
            head = chain_digest(head, &encode_body(rec.now, rec.seq, rec.event));
            if head != rec.digest {
                return Err(AxiomError::ChainMismatch { seq: rec.seq });
            }
        }
        if head != self.head {
            return Err(AxiomError::HeadMismatch);
        }
        Ok(())
    }

    /// Serializes header + records to a crash-consistent byte image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.bytes_len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&(self.records.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.head.to_le_bytes());
        for rec in &self.records {
            out.extend_from_slice(&encode_body(rec.now, rec.seq, rec.event));
            out.extend_from_slice(&rec.digest.to_le_bytes());
        }
        out
    }

    /// Deserializes and **fully verifies** a byte image: magic, tail
    /// integrity, record count, per-record digest chain, head digest, and
    /// canonical event encodings. Corruption is reported before any
    /// reduction can consume the records; an accepted image re-serializes
    /// to exactly the same bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<AxiomLog, AxiomError> {
        let mut r = Reader(bytes);
        let (Some(MAGIC), Some(count), Some(head)) = (r.take(), u64::get(&mut r), u64::get(&mut r))
        else {
            return Err(AxiomError::BadHeader);
        };
        let body = r.0;
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
        for (seq, chunk) in (0..).zip(body.chunks_exact(RECORD_BYTES)) {
            let rec = decode_record(seq, chain, chunk)?;
            chain = rec.digest;
            records.push(rec);
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
        let events: Vec<_> = (0..SAMPLE_ROUNDS).flat_map(AxiomEvent::samples).collect();
        // No two fields of an event hold the same value in every round, so
        // an encoder and decoder that both swap two of them fail below.
        let variants = AxiomEvent::samples(0).len();
        for (i, ev) in events.iter().take(variants).enumerate() {
            let distinct = (0..SAMPLE_ROUNDS).any(|round| {
                let mut values = Vec::new();
                AxiomEvent::samples(round)[i].fields(|_, v| values.push(v));
                (1..values.len()).all(|j| !values[..j].contains(&values[j]))
            });
            assert!(distinct, "{ev:?}: two fields always equal");
        }
        let mut log = AxiomLog::new(AxiomConfig::on());
        for (i, ev) in events.iter().enumerate() {
            log.append(i as u64 * 3, *ev);
        }
        let back = AxiomLog::from_bytes(&log.to_bytes()).unwrap();
        assert_eq!(back.len(), events.len());
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
