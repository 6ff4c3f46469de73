//! The four [`Layer`](crate::overhead::Layer) impls `bench_layers` drives.

mod axiom;
mod metrics;
mod spans;
mod trace;

pub use axiom::Axiom;
pub use metrics::Metrics;
pub use spans::Spans;
pub use trace::Trace;
