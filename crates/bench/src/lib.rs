//! The OSIRIS experiment harness.
//!
//! One function per table/figure of the paper's evaluation (§VI). Each
//! returns structured data and can render the paper-style text table; the
//! `reproduce` binary is a thin wrapper that owns the seeds and scales.
//! Experiment sizes are parameterized so integration tests can run
//! scaled-down versions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod gates;
pub mod inspect;
pub mod json;
pub mod loc;

pub use experiments::*;
pub use json::ResultsJson;
pub use loc::{count_workspace_loc, CrateLoc, RcbReport};

/// Installs a counting wrapper around the system allocator plus an
/// `alloc_calls()` reader, so the `gates` binary can *prove* a
/// zero-allocator-calls steady-state claim. Expand once at the top level
/// of a binary; the expansion defines the `#[global_allocator]` for that
/// binary, so it cannot be used from a library or more than once.
///
/// The expansion contains the only `unsafe` in the workspace's bench
/// tooling: a `GlobalAlloc` impl that delegates every operation unchanged
/// to [`std::alloc::System`], with a relaxed atomic counter on the
/// allocation entry points.
#[macro_export]
macro_rules! counting_allocator {
    () => {
        static ALLOC_CALLS: ::std::sync::atomic::AtomicU64 = ::std::sync::atomic::AtomicU64::new(0);

        /// System allocator wrapper that counts every allocation entry
        /// point.
        struct CountingAlloc;

        // SAFETY: delegates every operation unchanged to the system
        // allocator; the counter is a relaxed atomic with no effect on
        // allocation behavior.
        unsafe impl ::std::alloc::GlobalAlloc for CountingAlloc {
            unsafe fn alloc(&self, layout: ::std::alloc::Layout) -> *mut u8 {
                ALLOC_CALLS.fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);
                unsafe { ::std::alloc::System.alloc(layout) }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: ::std::alloc::Layout) {
                unsafe { ::std::alloc::System.dealloc(ptr, layout) }
            }

            unsafe fn realloc(
                &self,
                ptr: *mut u8,
                layout: ::std::alloc::Layout,
                new_size: usize,
            ) -> *mut u8 {
                ALLOC_CALLS.fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);
                unsafe { ::std::alloc::System.realloc(ptr, layout, new_size) }
            }

            unsafe fn alloc_zeroed(&self, layout: ::std::alloc::Layout) -> *mut u8 {
                ALLOC_CALLS.fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);
                unsafe { ::std::alloc::System.alloc_zeroed(layout) }
            }
        }

        #[global_allocator]
        static GLOBAL: CountingAlloc = CountingAlloc;

        /// Allocator entry-point calls so far, process-wide.
        fn alloc_calls() -> u64 {
            ALLOC_CALLS.load(::std::sync::atomic::Ordering::Relaxed)
        }
    };
}

/// Where the binary called `bin` writes its files: `var` — the value of
/// `OSIRIS_OUT_DIR`, which the binary reads and passes in, since library
/// code never reads the environment — or `target/<bin>`.
pub fn out_dir(var: Option<std::ffi::OsString>, bin: &str) -> std::path::PathBuf {
    var.map_or_else(|| std::path::Path::new("target").join(bin), Into::into)
}

/// Writes `contents` to `dir/name`, creating `dir` as needed.
pub fn write_out(
    dir: &std::path::Path,
    name: &str,
    contents: &str,
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// Geometric mean of a non-empty slice (returns 0 for empty input).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::geomean;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-9);
    }
}
