//! Divergence bisection between two axioms.
//!
//! Because every record's digest seals the whole prefix before it, two
//! logs share a prefix **iff** they agree on the digest at its end. That
//! turns "find the first diverging event between these two runs" into a
//! binary search over digest equality — O(log n) comparisons instead of a
//! linear scan — which is what `osiris-inspect diff` uses to answer
//! "where did the Enhanced run first behave differently from the
//! Pessimistic run?".

use crate::AxiomRecord;

/// The first point at which two axioms disagree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Index (== sequence number) of the first differing record.
    pub index: usize,
    /// Record at `index` in the first log (`None` if it ended first).
    pub a: Option<AxiomRecord>,
    /// Record at `index` in the second log (`None` if it ended first).
    pub b: Option<AxiomRecord>,
}

impl Divergence {
    /// Human-readable one-line description for tool output.
    pub fn describe(&self) -> String {
        let side = |r: &Option<AxiomRecord>| match r {
            Some(rec) => format!("t={} {} {:?}", rec.now, rec.event.name(), rec.event),
            None => "<log ended>".to_string(),
        };
        format!(
            "first divergence at seq {}:\n  a: {}\n  b: {}",
            self.index,
            side(&self.a),
            side(&self.b)
        )
    }
}

/// Finds the first index at which `a` and `b` diverge, or `None` if one
/// log is a prefix of the other and they agree everywhere they overlap
/// (equal logs included).
///
/// Returns `Some` with `index == min(len)` for a strict prefix, so callers
/// that care can distinguish "identical" (`None`) from "one run simply
/// recorded more" (`a`/`b` side is `None`).
pub fn bisect(a: &[AxiomRecord], b: &[AxiomRecord]) -> Option<Divergence> {
    let n = a.len().min(b.len());
    let prefix_equal = |i: usize| a[i].digest == b[i].digest && a[i] == b[i];
    if n == 0 || prefix_equal(n - 1) {
        // The overlapping prefix agrees in full.
        if a.len() == b.len() {
            return None;
        }
        return Some(Divergence {
            index: n,
            a: a.get(n).copied(),
            b: b.get(n).copied(),
        });
    }
    // Binary search for the first index where the chains disagree. The
    // digest at i seals records 0..=i, so "prefix through i equal" is
    // monotone in i.
    let (mut lo, mut hi) = (0usize, n - 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if prefix_equal(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Some(Divergence {
        index: lo,
        a: Some(a[lo]),
        b: Some(b[lo]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AxiomConfig, AxiomEvent, AxiomLog};

    fn log_of(comps: &[u8]) -> AxiomLog {
        let mut log = AxiomLog::new(AxiomConfig::on());
        log.append(
            0,
            AxiomEvent::Genesis {
                comps: 6,
                config_digest: 1,
            },
        );
        for (i, &c) in comps.iter().enumerate() {
            log.append(i as u64 + 1, AxiomEvent::WindowOpen { comp: c });
        }
        log
    }

    #[test]
    fn identical_logs_do_not_diverge() {
        let a = log_of(&[1, 2, 3]);
        let b = log_of(&[1, 2, 3]);
        assert_eq!(bisect(a.records(), b.records()), None);
    }

    #[test]
    fn first_differing_event_is_found() {
        let a = log_of(&[1, 2, 3, 4]);
        let b = log_of(&[1, 2, 9, 4]);
        let d = bisect(a.records(), b.records()).unwrap();
        assert_eq!(d.index, 3); // genesis + two matching opens precede it
        assert_eq!(d.a.unwrap().event, AxiomEvent::WindowOpen { comp: 3 });
        assert_eq!(d.b.unwrap().event, AxiomEvent::WindowOpen { comp: 9 });
        assert!(d.describe().contains("seq 3"));
    }

    #[test]
    fn prefix_is_reported_at_the_shorter_end() {
        let a = log_of(&[1, 2]);
        let b = log_of(&[1, 2, 3]);
        let d = bisect(a.records(), b.records()).unwrap();
        assert_eq!(d.index, 3);
        assert_eq!(d.a, None);
        assert_eq!(d.b.unwrap().event, AxiomEvent::WindowOpen { comp: 3 });
    }

    #[test]
    fn empty_vs_empty_and_empty_vs_nonempty() {
        let a = AxiomLog::new(AxiomConfig::on());
        let b = log_of(&[]);
        assert_eq!(bisect(a.records(), a.records()), None);
        let d = bisect(a.records(), b.records()).unwrap();
        assert_eq!(d.index, 0);
        assert_eq!(d.a, None);
    }
}
