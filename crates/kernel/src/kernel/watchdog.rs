//! The watchdog plane's effects. What `osiris_core::watchdog` decides, and
//! the execution of each [`Effect`](osiris_core::watchdog::Effect) — a
//! seal, an emit, a `declare_dead`, a failed request answered, a retry
//! parked, a quiescent restart — are `watchdog::Host`'s provided methods,
//! written once in `osiris-core`, whose `tests/watchdog_search.rs` runs
//! them too. The kernel keeps the `Copy` slot table, each slot's captured
//! request and, in its `timers` map, the parked retries, and supplies the
//! effects below. Nothing here decides.
//!
//! The core calls in where a request is queued (`Kernel::watchdog_arm`).
//! Where a reply is routed, a handler returned, a service point is reached
//! and the recovery plane is about to surface `E_CRASH`, it calls the
//! provided `rejects_reply`, `after_ok`, `service` and `fails`.

use osiris_core::watchdog::{Effect, Host, Input, Table};
use osiris_metrics::Note;

use super::{Due, Kernel, RETRY_SEQ};
use crate::message::{Message, Protocol};

impl<P: Protocol> Host for Kernel<P> {
    fn table(&mut self) -> &mut Table<Message<P>> {
        &mut self.wd
    }

    fn step(&mut self, input: Input) -> Effect {
        self.wd
            .step(&self.control, self.clock.now(), self.recovery_epoch, input)
    }

    fn now(&self) -> u64 {
        self.clock.now()
    }

    fn halted(&self) -> bool {
        self.shutdown.is_some() || self.control.recovering.is_some()
    }

    fn judged_hung(&mut self, cycles: u64) {
        self.series.note(Note::HangVerdict { cycles });
    }

    fn park(&mut self, comp: u8, attempt: u8, backoff: u64, msg: Message<P>) {
        self.timer_seq += 1;
        let key = (self.clock.now() + backoff, RETRY_SEQ | self.timer_seq);
        self.timers
            .insert(key, Due::Retry(comp, attempt, Box::new(msg)));
    }

    fn carrier(&mut self, comp: u8) -> Message<P> {
        self.kernel_msg(comp, None, P::crash_reply())
    }
}
