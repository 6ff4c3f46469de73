//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Spans nest on a stack, so every instant of a root span belongs to
//! exactly one span's *self time* (its duration minus its children's).
//! Totals per span kind are folded as spans close; the first
//! [`RAW_CAP`] spans are also kept verbatim and written out as JSON lines
//! when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

use crate::stats::alloc_calls;

/// Raw spans kept for the `.spans.jsonl` file; aggregates cover all spans.
pub const RAW_CAP: usize = 50_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One pass over a workload's op stream (root).
    Pass,
    /// From one `submit` to the next: the closed-loop life of a syscall.
    Syscall,
    Submit,
    Pump,
    Timer,
    Kills,
    /// One campaign repetition (root).
    Rep,
    Plan,
    RunPlan,
    SnapshotInto,
    ForkFrom,
    TryReadopt,
}

pub const KINDS: [Kind; 12] = [
    Kind::Pass,
    Kind::Syscall,
    Kind::Submit,
    Kind::Pump,
    Kind::Timer,
    Kind::Kills,
    Kind::Rep,
    Kind::Plan,
    Kind::RunPlan,
    Kind::SnapshotInto,
    Kind::ForkFrom,
    Kind::TryReadopt,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Pass => "pass",
            Kind::Syscall => "syscall",
            Kind::Submit => "submit",
            Kind::Pump => "pump",
            Kind::Timer => "fire_next_timer",
            Kind::Kills => "take_kill_events",
            Kind::Rep => "rep",
            Kind::Plan => "plan",
            Kind::RunPlan => "run_plan",
            Kind::SnapshotInto => "snapshot_into",
            Kind::ForkFrom => "fork_from",
            Kind::TryReadopt => "try_readopt",
        }
    }
}

/// Totals over closed spans of one kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub allocs: u64,
}

impl Agg {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    fn fields(&mut self) -> [&mut u64; 4] {
        [
            &mut self.count,
            &mut self.total_ns,
            &mut self.self_ns,
            &mut self.allocs,
        ]
    }
}

/// Servers a syscall can be routed to, in `by_server` order.
pub const SERVERS: [&str; 4] = ["pm", "vm", "vfs", "ds"];
pub const NO_SERVER: u8 = u8::MAX;

/// Totals over a set of closed spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    by_kind: [Agg; KINDS.len()],
    /// Syscall spans split by the server `Os::route` names.
    pub by_server: [Agg; SERVERS.len()],
    /// Syscall spans whose reply was `ECRASH` (a recovery ran inside).
    pub crashed: Agg,
}

impl Totals {
    pub fn agg(&self, kind: Kind) -> Agg {
        self.by_kind[kind as usize]
    }

    /// Self time summed over every span.
    pub fn self_ns(&self) -> u64 {
        self.by_kind.iter().map(|a| a.self_ns).sum()
    }

    fn aggs(&mut self) -> impl Iterator<Item = &mut Agg> {
        self.by_kind
            .iter_mut()
            .chain(&mut self.by_server)
            .chain([&mut self.crashed])
    }

    /// `self` with every figure of `other` added (`sign` 1) or taken away
    /// (`sign` -1).
    fn combined(mut self, mut other: Totals, sign: i64) -> Totals {
        for (a, b) in self.aggs().zip(other.aggs()) {
            for (x, y) in a.fields().into_iter().zip(b.fields()) {
                *x = x.wrapping_add_signed(sign * *y as i64);
            }
        }
        self
    }
}

struct Open {
    kind: Kind,
    key: u64,
    /// Server index for syscall spans (`SERVERS` order), else `NO_SERVER`.
    server: u8,
    crashed: bool,
    id: u64,
    start_ns: u64,
    start_allocs: u64,
    child_ns: u64,
}

struct Raw {
    id: u64,
    parent: u64,
    kind: Kind,
    key: u64,
    start_ns: u64,
    end_ns: u64,
}

pub struct SpanLog {
    epoch: Instant,
    stack: Vec<Open>,
    /// Totals over every closed span.
    pub all: Totals,
    /// `all` as it was when the open root pass opened.
    at_pass_open: Totals,
    /// For each pass key, the duration and totals of its fastest pass.
    fastest: BTreeMap<u64, (u64, Totals)>,
    raw: Vec<Raw>,
    next_id: u64,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            stack: Vec::with_capacity(8),
            all: Totals::default(),
            at_pass_open: Totals::default(),
            fastest: BTreeMap::new(),
            raw: Vec::new(),
            next_id: 1,
        }
    }
}

impl SpanLog {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. The clock is read last,
    /// so the recorder's own work lands in the parent's self time.
    #[inline]
    pub fn open(&mut self, kind: Kind, key: u64, server: u8) {
        let allocs = alloc_calls();
        let t = self.now_ns();
        self.open_at(kind, key, server, t, allocs);
    }

    /// Closes the innermost open span. The clock is read first.
    #[inline]
    pub fn close(&mut self) {
        let t = self.now_ns();
        self.close_at(t, alloc_calls());
    }

    pub fn open_at(&mut self, kind: Kind, key: u64, server: u8, t_ns: u64, allocs: u64) {
        if self.stack.is_empty() {
            self.at_pass_open = self.all;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            kind,
            key,
            server,
            crashed: false,
            id,
            start_ns: t_ns,
            start_allocs: allocs,
            child_ns: 0,
        });
    }

    pub fn close_at(&mut self, t_ns: u64, allocs: u64) {
        let s = self.stack.pop().expect("close without an open span");
        let dur = t_ns - s.start_ns;
        let one = Agg {
            count: 1,
            total_ns: dur,
            self_ns: dur - s.child_ns,
            allocs: allocs - s.start_allocs,
        };
        let add = |a: &mut Agg| {
            a.count += 1;
            a.total_ns += one.total_ns;
            a.self_ns += one.self_ns;
            a.allocs += one.allocs;
        };
        add(&mut self.all.by_kind[s.kind as usize]);
        if let Some(a) = self.all.by_server.get_mut(s.server as usize) {
            add(a);
        }
        if s.crashed {
            add(&mut self.all.crashed);
        }
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => {
                if s.kind == Kind::Pass {
                    let this = self.all.combined(self.at_pass_open, -1);
                    let best = self.fastest.entry(s.key).or_insert((u64::MAX, this));
                    if dur < best.0 {
                        *best = (dur, this);
                    }
                }
                0
            }
        };
        if self.raw.len() < RAW_CAP {
            self.raw.push(Raw {
                id: s.id,
                parent,
                kind: s.kind,
                key: s.key,
                start_ns: s.start_ns,
                end_ns: t_ns,
            });
        }
    }

    /// Whether the innermost open span is of `kind`.
    pub fn inside(&self, kind: Kind) -> bool {
        self.stack.last().is_some_and(|s| s.kind == kind)
    }

    /// Flags the open syscall span as one that ended in `ECRASH`.
    pub fn mark_crashed(&mut self) {
        if let Some(s) = self.stack.last_mut().filter(|s| s.kind == Kind::Syscall) {
            s.crashed = true;
        }
    }

    /// Totals over the fastest pass of each key: passes with one key do the
    /// same work, so this is the traced run as the sandbox's interference
    /// would have left it alone.
    pub fn fastest_passes(&self) -> Totals {
        self.fastest
            .values()
            .fold(Totals::default(), |sum, (_, t)| sum.combined(*t, 1))
    }

    /// How far the summed self times are from `wall_ns`, the separately
    /// measured wall time of the traced region, in percent of it.
    pub fn reconcile_pct(&self, wall_ns: u64) -> f64 {
        if wall_ns == 0 {
            return 0.0;
        }
        100.0 * (self.all.self_ns() as f64 - wall_ns as f64).abs() / wall_ns as f64
    }

    /// Writes the kept spans, then one line of totals per span kind.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in &self.raw {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"key\":{},\"start_ns\":{},\"end_ns\":{}}}",
                r.id,
                r.parent,
                r.kind.name(),
                r.key,
                r.start_ns,
                r.end_ns
            )?;
        }
        for k in KINDS {
            let a = self.all.agg(k);
            writeln!(
                out,
                "{{\"total\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"allocs\":{}}}",
                k.name(),
                a.count,
                a.total_ns,
                a.self_ns,
                a.allocs
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_and_reconcile() {
        let mut log = SpanLog::default();
        // pass [0,100] > syscall [10,70] > submit [12,20], pump [25,65];
        //              > syscall [70,95] > pump [72,90]
        log.open_at(Kind::Pass, 0, NO_SERVER, 0, 0);
        log.open_at(Kind::Syscall, 1, 2, 10, 0);
        log.open_at(Kind::Submit, 1, NO_SERVER, 12, 1);
        log.close_at(20, 3);
        log.open_at(Kind::Pump, 1, NO_SERVER, 25, 3);
        log.close_at(65, 10);
        log.mark_crashed();
        log.close_at(70, 10);
        log.open_at(Kind::Syscall, 2, 0, 70, 10);
        log.open_at(Kind::Pump, 2, NO_SERVER, 72, 10);
        log.close_at(90, 11);
        log.close_at(95, 11);
        log.close_at(100, 12);

        let all = log.all;
        let sys = all.agg(Kind::Syscall);
        assert_eq!((sys.count, sys.total_ns, sys.self_ns), (2, 85, 19));
        let pump = all.agg(Kind::Pump);
        assert_eq!((pump.count, pump.total_ns, pump.allocs), (2, 58, 8));
        assert_eq!(all.agg(Kind::Submit).allocs, 2);
        assert_eq!(all.agg(Kind::Pass).self_ns, 15);
        assert_eq!(all.by_server[2].total_ns, 60);
        assert_eq!(all.by_server[0].total_ns, 25);
        assert_eq!((all.crashed.count, all.crashed.total_ns), (1, 60));
        // Self times partition the root: 15 + 19 + 8 + 58 = 100.
        assert_eq!(all.self_ns(), 100);
        assert_eq!(log.reconcile_pct(100), 0.0);
        assert!((log.reconcile_pct(125) - 20.0).abs() < 1e-12);
        assert_eq!(log.fastest_passes(), all);

        // A slower pass with the same key leaves the fastest as it is, a
        // pass with another key adds to it.
        for (key, start, end) in [(0, 200, 350), (7, 400, 430)] {
            log.open_at(Kind::Pass, key, NO_SERVER, start, 12);
            log.open_at(Kind::Pump, 0, NO_SERVER, start + 5, 12);
            log.close_at(end - 5, 12);
            log.close_at(end, 12);
        }
        let fastest = log.fastest_passes();
        assert_eq!(fastest.agg(Kind::Pass).total_ns, 100 + 30);
        assert_eq!(fastest.agg(Kind::Pump).total_ns, 58 + 20);
        assert_eq!(log.all.agg(Kind::Pass).total_ns, 100 + 150 + 30);
    }
}
