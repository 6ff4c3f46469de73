//! Statistics over batch samples, and the process-wide counters the ledger
//! reads (allocator calls, peak resident set).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Median, quartiles, 90th percentile and minimum of a sample of timings.
///
/// A timed metric reports the **minimum**, its fastest batch, and prints
/// the rest beside it. The sandbox's interference only ever adds time, and
/// it adds a lot: measured on the host this was written on, the median
/// batch of one workload moved by 70% from one minute to the next and its
/// fastest batch by 6%. Batches of a workload do equal work, so the fastest
/// one is the one the interference missed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub p90: f64,
    pub min: f64,
    pub n: usize,
}

/// Linear interpolation between closest ranks (the "inclusive" method:
/// the median of an even-sized sample is the mean of the middle pair).
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

impl Summary {
    /// Summary of `samples`; all zero for an empty sample.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&s, 0.5),
            q1: quantile(&s, 0.25),
            q3: quantile(&s, 0.75),
            p90: quantile(&s, 0.9),
            min: s[0],
            n: s.len(),
        }
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Fastest of a sample of timings (0 for an empty one).
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Geometric mean (0 for an empty sample).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// The system allocator with a call counter on every allocating entry
/// point, so allocator calls per syscall can be read from outside the `Os`.
pub struct CountingAlloc;

// SAFETY: every operation is passed unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a relaxed counter that
// publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }
}

/// Allocator calls made by this process so far.
#[inline]
pub fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_quartiles_and_p90() {
        // Odd count: every statistic is an element.
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.median, s.q1, s.q3, s.min, s.n), (3.0, 2.0, 4.0, 1.0, 5));
        assert!((s.p90 - 4.6).abs() < 1e-12);
        // Even count: interpolated between the closest ranks.
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.q1, s.q3), (2.5, 1.75, 3.25));
        assert!((s.p90 - 3.7).abs() < 1e-12);
        // One sample and none.
        let s = Summary::of(&[7.0]);
        assert_eq!(
            (s.median, s.q1, s.q3, s.p90, s.min),
            (7.0, 7.0, 7.0, 7.0, 7.0)
        );
        assert_eq!(Summary::of(&[]), Summary::default());
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
