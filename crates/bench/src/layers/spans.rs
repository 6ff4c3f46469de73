//! Causal request-span record path.
//!
//! Every user request the kernel serves carries a [`SpanInfo`]: minted at
//! `send_user_request`, copied through every message hop, and closed at
//! the reply with a latency observation split by recovery overlap. The
//! span *bookkeeping* (minting the `Copy` struct, carrying it on messages)
//! is unconditional; the *recording* decision is sampled once at mint time
//! — `tracer.is_enabled() || metrics.enabled()` — and carried in the
//! span's `record` flag, so every downstream hop and the close site branch
//! on a plain bool instead of re-consulting the handles' shared atomics
//! (the caching discipline `Heap::set_tracer` documents for the undo path).
//!
//! The unit is one span-carrying *message* (open + hops + close), the unit
//! the feature taxes.
//!
//! * **baseline** — span bookkeeping only: mint the struct with a false
//!   flag, carry it and branch on it at every site, never consult a
//!   recorder.
//! * **disabled** — the mint site additionally pays the two relaxed loads
//!   that decide the flag.
//! * **recording** — `SpanOpen`/`SpanHop`/`SpanClose` events into the
//!   preallocated trace ring plus the `osiris_span_*` counter and
//!   histogram writes (buckets live inline).

use std::hint::black_box;

use osiris_kernel::SpanInfo;
use osiris_metrics::{Counter, Hist, MetricsConfig, MetricsHandle};
use osiris_trace::{TraceConfig, TraceEvent, TraceHandle, KERNEL_COMP};

use crate::json::Json;
use crate::overhead::{Attach, Extra, Layer, Scale};

/// The span layer.
#[derive(Clone, Copy)]
pub struct Spans {
    /// Synthetic request spans per repetition.
    spans: u64,
    /// Spans run in `setup`, to warm caches and the ring.
    warmup_spans: u64,
    /// Message hops between open and close (IPC fan-out per request).
    hops_per_span: u64,
    /// Every `recovery_every`-th span closes after a recovery-epoch bump,
    /// so the crossed-recovery split is on the measured path.
    recovery_every: u64,
}

impl Spans {
    /// The layer at `scale`.
    pub fn new(scale: Scale) -> Spans {
        let (spans, warmup_spans) = match scale {
            Scale::Full => (200_000, 2_000),
            Scale::Check => (40_000, 1_000),
        };
        Spans {
            spans,
            warmup_spans,
            hops_per_span: 3,
            recovery_every: 16,
        }
    }

    /// Span-carrying messages per span: the opening request delivery, each
    /// hop, and the closing reply.
    fn msgs_per_span(&self) -> u64 {
        2 + self.hops_per_span
    }

    /// The full span lifecycle loop, mirroring the kernel's mint / hop /
    /// close sequence and its gating exactly. Returns a checksum over the
    /// span bookkeeping so it cannot be optimized away in the baseline.
    #[inline]
    fn run_spans(&self, m: &mut State, attach: Attach) -> u64 {
        let consult = attach != Attach::None;
        let mut now = 0u64;
        let mut epoch = 0u64;
        let mut checksum = 0u64;
        for s in 0..self.spans {
            // Mint at the workload entry point: the id unconditionally, the
            // recording decision sampled once from the handles' atomics.
            // The flag is opaque from here on, as it is at the kernel's hop
            // and close sites, which read it off a message: a baseline
            // specialized on `record == false` would have its hop loop —
            // the bookkeeping that arm exists to measure — folded away.
            now += 13;
            let span = SpanInfo {
                id: s + 1,
                opened_at: now,
                epoch_at_open: epoch,
                record: black_box(consult && (m.tracer.is_enabled() || m.metrics.enabled())),
            };
            checksum = checksum.wrapping_add(span.id ^ span.opened_at);
            if span.record {
                m.started.inc();
                m.tracer.set_now(now);
                m.tracer.emit(
                    KERNEL_COMP,
                    TraceEvent::SpanOpen {
                        span: span.id,
                        sid: s,
                        pid: 1,
                    },
                );
            }
            // Propagate across hops: each delivery branches on the cached
            // flag, exactly like the kernel's `SpanHop` site.
            for h in 0..self.hops_per_span {
                now += 7;
                if span.record {
                    m.hops.inc();
                    m.tracer.set_now(now);
                    m.tracer.emit(
                        (h % 6) as u8,
                        TraceEvent::SpanHop {
                            span: span.id,
                            src: ((h + 1) % 6) as u8,
                            msg_id: s * self.hops_per_span + h,
                        },
                    );
                }
            }
            // Every `recovery_every`-th span crosses a recovery before it
            // closes: epoch bump, recovery charge.
            if s % self.recovery_every == self.recovery_every - 1 {
                epoch += 1;
                now += 400;
            }
            // Close at the reply, mirroring `close_span`: the flag short-
            // circuits the overlap split, the latency computation and all
            // record writes.
            now += 13;
            if span.record {
                let crossed = span.epoch_at_open != epoch;
                let latency = now - span.opened_at;
                let (completed, hist) = if crossed {
                    (&m.completed_recovery, &m.latency_recovery)
                } else {
                    (&m.completed_none, &m.latency_none)
                };
                completed.inc();
                hist.observe(latency);
                m.tracer.set_now(now);
                m.tracer.emit(
                    KERNEL_COMP,
                    TraceEvent::SpanClose {
                        span: span.id,
                        ok: !crossed,
                        crossed_recovery: crossed,
                        latency,
                    },
                );
            }
        }
        checksum
    }
}

/// One arm's recorders and the span-relevant slice of the kernel's
/// registry, registered exactly as `KernelCounters::register` does.
pub struct State {
    tracer: TraceHandle,
    metrics: MetricsHandle,
    started: Counter,
    completed_none: Counter,
    completed_recovery: Counter,
    latency_none: Hist,
    latency_recovery: Hist,
    hops: Counter,
}

impl Layer for Spans {
    type State = State;
    const UNIT: &'static str = "msg";
    const ARMS: [&'static str; 3] = [
        "baseline_bookkeeping",
        "attached_disabled",
        "attached_recording",
    ];

    fn params(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("spans", self.spans),
            ("hops_per_span", self.hops_per_span),
            ("msgs_per_span", self.msgs_per_span()),
        ]
    }

    fn units(&self) -> u64 {
        self.spans * self.msgs_per_span()
    }

    fn setup(&self, attach: Attach) -> State {
        // The baseline builds both recorders too and never consults them.
        let on = attach == Attach::Enabled;
        let tracer = TraceHandle::new(TraceConfig {
            enabled: on,
            capacity: 16_384,
            ..Default::default()
        });
        let metrics = MetricsHandle::new(MetricsConfig { enabled: on });
        let counter =
            |name: &str, labels: &[(&str, &str)]| metrics.counter(name, "span bench", labels);
        let latency = |overlap: &str| {
            let labels = [("overlap", overlap)];
            metrics.hist("osiris_span_latency_cycles", "span bench", &labels)
        };
        let mut m = State {
            started: counter("osiris_span_started_total", &[]),
            completed_none: counter("osiris_span_completed_total", &[("overlap", "none")]),
            completed_recovery: counter("osiris_span_completed_total", &[("overlap", "recovery")]),
            latency_none: latency("none"),
            latency_recovery: latency("recovery"),
            hops: counter("osiris_span_hops_total", &[]),
            tracer,
            metrics,
        };
        let warmup = Spans {
            spans: self.warmup_spans,
            ..*self
        };
        black_box(warmup.run_spans(&mut m, attach));
        m.tracer.clear();
        m.metrics.reset();
        m
    }

    fn run(&self, m: &mut State, attach: Attach) {
        black_box(self.run_spans(m, attach));
    }

    fn extras(&self, m: &State) -> Vec<Extra> {
        vec![(
            "spans_recorded",
            Json::UInt(m.started.get()),
            Some(Json::UInt(self.spans)),
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(spans: u64) -> Spans {
        Spans {
            spans,
            warmup_spans: 0,
            hops_per_span: 2,
            recovery_every: 8,
        }
    }

    #[test]
    fn enabled_mode_splits_by_recovery_overlap() {
        // Drive one enabled repetition directly and check the registry
        // split: with recovery_every=8, every 8th span closes crossed.
        let layer = small(64);
        let mut m = layer.setup(Attach::Enabled);
        layer.run(&mut m, Attach::Enabled);
        assert_eq!(m.started.get(), 64);
        assert_eq!(m.completed_recovery.get(), 8);
        assert_eq!(m.completed_none.get(), 56);
        assert_eq!(m.hops.get(), 128);
        // Crossed spans absorbed the recovery charge: strictly slower.
        assert!(m.latency_recovery.summary().p50 > m.latency_none.summary().p50);
    }

    #[test]
    fn disabled_mode_records_nothing() {
        let layer = small(32);
        let mut m = layer.setup(Attach::Disabled);
        let a = layer.run_spans(&mut m, Attach::Disabled);
        assert_eq!(m.started.get(), 0);
        assert_eq!(m.tracer.snapshot().len(), 0);
        // Bookkeeping is identical across modes: same checksum baseline.
        let mut b = layer.setup(Attach::None);
        assert_eq!(a, layer.run_spans(&mut b, Attach::None));
    }
}
