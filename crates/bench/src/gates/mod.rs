//! The exact-count gates behind `ci.sh`'s one `gates` step.
//!
//! One rule: a gate asserts only quantities that repeat bit-for-bit —
//! allocator calls, bytes and chunks copied, virtual cycles, record counts,
//! digests. Nothing here reads a clock. Host time is measured, with
//! quartiles and a noise bound, by `benchmark/` and never fails a build;
//! DESIGN.md "Measurement rule" maps each claim to its gate here and to the
//! `benchmark/` metric that records its time.
//!
//! Each submodule drives one mechanism deterministically and appends
//! `(name, got, want)` rows to a [`Checks`] list; [`run`] is the whole
//! list. The `gates` binary installs a counting allocator and passes its
//! reader in; without one (the in-crate test) the allocator-call rows are
//! left out and every other row still runs.

use std::fmt;

mod boot;
mod forge;
mod recording;
mod restore;
mod stores;
mod watchdog;

/// What a [`Check`]'s `got` is held to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Want {
    /// Exactly this value.
    Eq(u64),
    /// This value or less.
    AtMost(u64),
    /// This value or more.
    AtLeast(u64),
}

/// One gate row.
#[derive(Clone, Debug)]
pub struct Check {
    /// `group/case/quantity`.
    pub name: String,
    /// The value the drive produced.
    pub got: u64,
    /// The value it must have.
    pub want: Want,
}

impl Check {
    /// Whether `got` meets `want`.
    pub fn holds(&self) -> bool {
        match self.want {
            Want::Eq(w) => self.got == w,
            Want::AtMost(w) => self.got <= w,
            Want::AtLeast(w) => self.got >= w,
        }
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (op, want) = match self.want {
            Want::Eq(w) => ("==", w),
            Want::AtMost(w) => ("<=", w),
            Want::AtLeast(w) => (">=", w),
        };
        write!(f, "{}: got {}, want {op} {want}", self.name, self.got)
    }
}

/// Workload size. Every row is asserted at both sizes; only the sizes of
/// the driven workloads differ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// What the `gates` binary runs.
    Full,
    /// Small enough for a debug-build unit test.
    Small,
}

/// The rows collected so far, plus the allocator-call reader if the caller
/// installed one (see [`counting_allocator!`](crate::counting_allocator)).
struct Checks {
    rows: Vec<Check>,
    alloc_calls: Option<fn() -> u64>,
}

impl Checks {
    fn push(&mut self, name: String, got: u64, want: Want) {
        self.rows.push(Check { name, got, want });
    }

    /// Runs `f` and returns the allocator calls it made, process-wide;
    /// `None` without a counter. Callers run it with no other thread alive.
    fn counted<T>(&self, f: impl FnOnce() -> T) -> (T, Option<u64>) {
        let before = self.alloc_calls.map(|read| read());
        let out = f();
        let calls = self.alloc_calls.zip(before).map(|(read, b)| read() - b);
        (out, calls)
    }

    /// Adds an allocator-call row when a counter is installed.
    fn push_allocs(&mut self, name: String, calls: Option<u64>, want: Want) {
        if let Some(got) = calls {
            self.push(name, got, want);
        }
    }
}

/// Drives every gate at `scale` and returns all rows, passed and failed.
pub fn run(scale: Scale, alloc_calls: Option<fn() -> u64>) -> Vec<Check> {
    let mut c = Checks {
        rows: Vec::new(),
        alloc_calls,
    };
    boot::checks(&mut c);
    restore::checks(scale, &mut c);
    watchdog::checks(scale, &mut c);
    forge::checks(scale, &mut c);
    recording::checks(scale, &mut c);
    stores::checks(scale, &mut c);
    c.rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_gate_holds_at_small_scale() {
        let rows = run(Scale::Small, None);
        assert!(rows.len() >= 40, "only {} rows", rows.len());
        let failed: Vec<String> = rows
            .iter()
            .filter(|c| !c.holds())
            .map(Check::to_string)
            .collect();
        assert!(failed.is_empty(), "{failed:#?}");
    }
}
