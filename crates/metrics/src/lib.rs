//! # osiris-metrics — unified metrics registry
//!
//! One source of truth for every number the evaluation reports: typed
//! [`Counter`], [`Gauge`], and log2-histogram ([`Hist`]) handles organized
//! into named families with static label sets. The kernel's per-component
//! accounting, the checkpoint heap statistics, and the fault-injection
//! campaign all register here, and two exporters ([`prom`] text exposition
//! and [`export`] JSON) serialize a consistent snapshot at run end.
//!
//! ## Design
//!
//! The registry follows the flight recorder's discipline
//! (`osiris-trace`): a shared `AtomicBool` gates every write with a single
//! relaxed load, so a disabled registry costs well under a nanosecond per
//! write and an enabled one performs no allocation in steady state —
//! counters and gauges are `Arc<AtomicU64>` slots created at registration
//! time, histograms are preallocated [`Log2Hist`] arrays behind a mutex.
//!
//! A series with one writer that is written per message does not pay for
//! the shared slot on every write: its writer keeps a [`Tally`] or a
//! [`Dist`] — a plain field it bumps — and publishes it into the slot at
//! the points something reads the registry (export, sample, snapshot).
//!
//! Registration is idempotent: asking for the same `(family, labels)`
//! series twice returns handles sharing one slot, which is what lets
//! `KernelMetrics` and `ComponentReport` act as *views* over the registry
//! instead of parallel bookkeeping. Families keep their series in
//! registration order and label sets are fixed at registration, so two
//! runs with the same configuration export byte-identical text.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub use osiris_trace::hist::{HistSummary, Log2Hist};

pub mod export;
pub mod prom;
pub mod timeseries;

pub use export::render_json;
pub use prom::{render_prometheus, validate_prometheus};
pub use timeseries::{TimeseriesConfig, TimeseriesSampler, TimeseriesState};

/// Configuration for a [`MetricsHandle`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Whether writes through handles are recorded. Registration and
    /// export work either way; a disabled registry exports zeros.
    pub enabled: bool,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig { enabled: true }
    }
}

impl MetricsConfig {
    /// Recording on (the default).
    pub fn on() -> MetricsConfig {
        MetricsConfig { enabled: true }
    }

    /// Recording off: every write is a single relaxed load.
    pub fn off() -> MetricsConfig {
        MetricsConfig { enabled: false }
    }
}

/// What a family of series measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time value, set rather than accumulated.
    Gauge,
    /// Log2-bucketed sample distribution.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

enum Slot {
    Scalar(Arc<AtomicU64>),
    Hist(Arc<Mutex<Log2Hist>>),
}

struct Series {
    labels: Vec<(String, String)>,
    slot: Slot,
}

struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    series: Vec<Series>,
}

#[derive(Default)]
struct Registry {
    families: Vec<Family>,
}

impl Registry {
    fn family_mut(&mut self, name: &str, help: &str, kind: MetricKind) -> &mut Family {
        if let Some(i) = self.families.iter().position(|f| f.name == name) {
            let f = &self.families[i];
            assert_eq!(
                f.kind, kind,
                "metric family {name:?} re-registered with a different kind"
            );
            return &mut self.families[i];
        }
        assert!(
            valid_name(name),
            "invalid metric family name {name:?}: use [a-zA-Z_][a-zA-Z0-9_]*"
        );
        self.families.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            series: Vec::new(),
        });
        self.families.last_mut().unwrap()
    }

    fn scalar(
        &mut self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
    ) -> Arc<AtomicU64> {
        let family = self.family_mut(name, help, kind);
        if let Some(s) = family.series.iter().find(|s| label_eq(&s.labels, labels)) {
            match &s.slot {
                Slot::Scalar(v) => return Arc::clone(v),
                Slot::Hist(_) => unreachable!("kind checked per family"),
            }
        }
        let v = Arc::new(AtomicU64::new(0));
        family.series.push(Series {
            labels: own_labels(labels),
            slot: Slot::Scalar(Arc::clone(&v)),
        });
        v
    }

    fn hist(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Mutex<Log2Hist>> {
        let family = self.family_mut(name, help, MetricKind::Histogram);
        if let Some(s) = family.series.iter().find(|s| label_eq(&s.labels, labels)) {
            match &s.slot {
                Slot::Hist(h) => return Arc::clone(h),
                Slot::Scalar(_) => unreachable!("kind checked per family"),
            }
        }
        let h = Arc::new(Mutex::new(Log2Hist::new()));
        family.series.push(Series {
            labels: own_labels(labels),
            slot: Slot::Hist(Arc::clone(&h)),
        });
        h
    }

    fn reset(&mut self) {
        for f in &self.families {
            for s in &f.series {
                match &s.slot {
                    Slot::Scalar(v) => v.store(0, Ordering::Relaxed),
                    Slot::Hist(h) => h.lock().unwrap().reset(),
                }
            }
        }
    }

    fn restore_from(&mut self, snap: &MetricsSnapshot) {
        self.reset();
        for f in &snap.families {
            // Touch the family even when it carries no series yet, so the
            // restored exposition lists exactly the donor's families in the
            // donor's registration order.
            self.family_mut(&f.name, &f.help, f.kind);
            for s in &f.series {
                let labels: Vec<(&str, &str)> = s
                    .labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                match &s.value {
                    SeriesValue::Counter(n) | SeriesValue::Gauge(n) => {
                        self.scalar(&f.name, &f.help, f.kind, &labels)
                            .store(*n, Ordering::Relaxed);
                    }
                    SeriesValue::Hist(h) => {
                        *self.hist(&f.name, &f.help, &labels).lock().unwrap() = **h;
                    }
                }
            }
        }
    }

    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            families: self
                .families
                .iter()
                .map(|f| FamilySnapshot {
                    name: f.name.clone(),
                    help: f.help.clone(),
                    kind: f.kind,
                    series: f
                        .series
                        .iter()
                        .map(|s| SeriesSnapshot {
                            labels: s.labels.clone(),
                            value: match &s.slot {
                                Slot::Scalar(v) => {
                                    let n = v.load(Ordering::Relaxed);
                                    match f.kind {
                                        MetricKind::Counter => SeriesValue::Counter(n),
                                        _ => SeriesValue::Gauge(n),
                                    }
                                }
                                Slot::Hist(h) => SeriesValue::Hist(Box::new(*h.lock().unwrap())),
                            },
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    for (k, _) in labels {
        assert!(valid_name(k), "invalid label name {k:?}");
    }
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn label_eq(a: &[(String, String)], b: &[(&str, &str)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ak, av), (bk, bv))| ak == bk && av == bv)
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// A shared handle to the metrics registry. Cheap to clone; all clones
/// (and every [`Counter`]/[`Gauge`]/[`Hist`] minted from them) write to
/// the same underlying slots.
#[derive(Clone)]
pub struct MetricsHandle {
    on: Arc<AtomicBool>,
    inner: Arc<Mutex<Registry>>,
}

impl Default for MetricsHandle {
    fn default() -> Self {
        MetricsHandle::new(MetricsConfig::default())
    }
}

impl std::fmt::Debug for MetricsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsHandle")
            .field("enabled", &self.enabled())
            .finish_non_exhaustive()
    }
}

impl MetricsHandle {
    /// Creates a registry with the given config.
    pub fn new(config: MetricsConfig) -> MetricsHandle {
        MetricsHandle {
            on: Arc::new(AtomicBool::new(config.enabled)),
            inner: Arc::new(Mutex::new(Registry::default())),
        }
    }

    /// Whether writes are currently recorded.
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Flips recording on or off at runtime.
    pub fn set_enabled(&self, enabled: bool) {
        self.on.store(enabled, Ordering::Relaxed);
    }

    /// Registers (or finds) a counter series and returns its handle.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let v = self
            .inner
            .lock()
            .unwrap()
            .scalar(name, help, MetricKind::Counter, labels);
        Counter {
            on: Arc::clone(&self.on),
            v,
        }
    }

    /// Registers (or finds) a gauge series and returns its handle.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let v = self
            .inner
            .lock()
            .unwrap()
            .scalar(name, help, MetricKind::Gauge, labels);
        Gauge {
            on: Arc::clone(&self.on),
            v,
        }
    }

    /// Registers (or finds) a histogram series and returns its handle.
    pub fn hist(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Hist {
        let h = self.inner.lock().unwrap().hist(name, help, labels);
        Hist {
            on: Arc::clone(&self.on),
            h,
        }
    }

    /// Registers (or finds) a counter series for a single writer that
    /// publishes it at read points (see [`Tally`]).
    pub fn tally(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Tally {
        let slot = self.counter(name, help, labels);
        Tally {
            n: slot.get(),
            slot,
        }
    }

    /// Registers (or finds) a histogram series for a single writer that
    /// publishes it at read points (see [`Dist`]).
    pub fn dist(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Dist {
        let slot = self.hist(name, help, labels);
        Dist {
            h: slot.get(),
            slot,
        }
    }

    /// Zeroes every registered series (counters and gauges to 0,
    /// histograms to empty). Registration survives; the kernel uses this
    /// to exclude boot-time activity from reports.
    pub fn reset(&self) {
        self.inner.lock().unwrap().reset();
    }

    /// A deep, consistent copy of every registered family.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.lock().unwrap().snapshot()
    }

    /// Overwrites the registry with a snapshot taken from another registry:
    /// every existing series is zeroed, then each snapshotted family and
    /// series is (re-)registered in snapshot order and set to its recorded
    /// value. Registration is idempotent and order-preserving, so when the
    /// live registry's families are a boot-time prefix-subsequence of the
    /// snapshot's (the fork case: both sides booted identically, the donor
    /// may have registered more afterwards), the restored exposition is
    /// byte-identical to the donor's. Writes bypass the enabled gate — a
    /// restore mirrors the donor no matter which side is recording.
    pub fn restore_from(&self, snap: &MetricsSnapshot) {
        self.inner.lock().unwrap().restore_from(snap);
    }

    /// Renders the current state in Prometheus text exposition format.
    pub fn prometheus(&self) -> String {
        prom::render_prometheus(&self.snapshot())
    }

    /// Renders the current state as a JSON document.
    pub fn json(&self) -> osiris_trace::Json {
        export::render_json(&self.snapshot())
    }
}

/// A monotonically increasing counter backed by a registry slot.
#[derive(Clone, Debug)]
pub struct Counter {
    on: Arc<AtomicBool>,
    v: Arc<AtomicU64>,
}

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. A disabled registry makes this a single relaxed load.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.on.load(Ordering::Relaxed) {
            self.v.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Overwrites the total. For mirroring an externally maintained
    /// monotone counter (e.g. the checkpoint heap's hot-path tallies)
    /// into the registry at a sync point.
    #[inline]
    pub fn set_total(&self, n: u64) {
        if self.on.load(Ordering::Relaxed) {
            self.v.store(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A point-in-time gauge backed by a registry slot.
#[derive(Clone, Debug)]
pub struct Gauge {
    on: Arc<AtomicBool>,
    v: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, n: u64) {
        if self.on.load(Ordering::Relaxed) {
            self.v.store(n, Ordering::Relaxed);
        }
    }

    /// Sets the value only if `n` is larger (high-water mark).
    #[inline]
    pub fn set_max(&self, n: u64) {
        if self.on.load(Ordering::Relaxed) {
            self.v.fetch_max(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A log2-histogram series backed by a registry slot. Observation locks
/// a mutex, so use it at per-window frequency, not per-operation.
#[derive(Clone, Debug)]
pub struct Hist {
    on: Arc<AtomicBool>,
    h: Arc<Mutex<Log2Hist>>,
}

impl Hist {
    /// Records one sample.
    #[inline]
    pub fn observe(&self, value: u64) {
        if self.on.load(Ordering::Relaxed) {
            self.h.lock().unwrap().record(value);
        }
    }

    /// Overwrites the distribution. For mirroring an externally maintained
    /// histogram into the registry at a sync point, as
    /// [`Counter::set_total`] does for a count.
    pub fn set(&self, h: &Log2Hist) {
        if self.on.load(Ordering::Relaxed) {
            *self.h.lock().unwrap() = *h;
        }
    }

    /// A copy of the underlying histogram.
    pub fn get(&self) -> Log2Hist {
        *self.h.lock().unwrap()
    }

    /// Condensed digest of the underlying histogram.
    pub fn summary(&self) -> HistSummary {
        self.h.lock().unwrap().summary()
    }
}

/// A counter series whose single writer counts in a plain field and
/// publishes the total into the registry slot at read points.
///
/// Bumping is a plain add: no shared flag is consulted and nothing is
/// written that another thread can see. The registry's enabled gate applies
/// at [`Tally::publish`], so a disabled registry still exports zeros. Every
/// reader goes through the slot ([`Tally::published`], [`Tally::reader`], a
/// registry snapshot), so the writer must publish before anything reads,
/// and [`Tally::reload`] after the registry was reset or restored.
#[derive(Debug)]
pub struct Tally {
    n: u64,
    slot: Counter,
}

impl Tally {
    /// Adds 1.
    #[inline]
    pub fn inc(&mut self) {
        self.n += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.n += n;
    }

    /// The writer's own running total, published or not.
    pub fn local(&self) -> u64 {
        self.n
    }

    /// Writes the running total into the registry slot.
    pub fn publish(&self) {
        self.slot.set_total(self.n);
    }

    /// Takes the registry slot's value as the running total.
    pub fn reload(&mut self) {
        self.n = self.slot.get();
    }

    /// The total as of the last [`Tally::publish`].
    pub fn published(&self) -> u64 {
        self.slot.get()
    }

    /// A read handle on the registry slot (for the timeseries sampler).
    pub fn reader(&self) -> Counter {
        self.slot.clone()
    }
}

/// A histogram series whose single writer observes into a plain
/// [`Log2Hist`] and publishes it at read points; the histogram twin of
/// [`Tally`], with the same rules.
#[derive(Debug)]
pub struct Dist {
    h: Log2Hist,
    slot: Hist,
}

impl Dist {
    /// Records one sample.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.h.record(value);
    }

    /// Writes the distribution into the registry slot.
    pub fn publish(&self) {
        self.slot.set(&self.h);
    }

    /// Takes the registry slot's distribution as the running one.
    pub fn reload(&mut self) {
        self.h = self.slot.get();
    }

    /// Condensed digest of the distribution as of the last
    /// [`Dist::publish`].
    pub fn published_summary(&self) -> HistSummary {
        self.slot.summary()
    }

    /// A read handle on the registry slot (for the timeseries sampler).
    pub fn reader(&self) -> Hist {
        self.slot.clone()
    }
}

/// Deep copy of the registry at one instant.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Families in registration order.
    pub families: Vec<FamilySnapshot>,
}

/// One family (shared name/help/kind) of series.
#[derive(Clone, Debug)]
pub struct FamilySnapshot {
    /// Family name, e.g. `osiris_comp_crashes_total`.
    pub name: String,
    /// One-line description for `# HELP`.
    pub help: String,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// Series in registration order.
    pub series: Vec<SeriesSnapshot>,
}

/// One labeled series inside a family.
#[derive(Clone, Debug)]
pub struct SeriesSnapshot {
    /// Label pairs in registration order.
    pub labels: Vec<(String, String)>,
    /// The captured value.
    pub value: SeriesValue,
}

/// A captured series value.
#[derive(Clone, Debug)]
pub enum SeriesValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(u64),
    /// Full histogram copy (boxed: a `Log2Hist` is 65 buckets wide and
    /// would dominate the enum's footprint inline).
    Hist(Box<Log2Hist>),
}

impl MetricsSnapshot {
    /// Looks up one series value by family name and exact label set.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SeriesValue> {
        self.families
            .iter()
            .find(|f| f.name == name)?
            .series
            .iter()
            .find(|s| label_eq(&s.labels, labels))
            .map(|s| &s.value)
    }
}

/// Writes both exposition formats next to each other: `<base>.prom` and
/// `<base>.json`. Returns the two paths written.
pub fn write_exports(
    snapshot: &MetricsSnapshot,
    base: &str,
) -> std::io::Result<(std::path::PathBuf, std::path::PathBuf)> {
    let prom_path = std::path::PathBuf::from(format!("{base}.prom"));
    let json_path = std::path::PathBuf::from(format!("{base}.json"));
    if let Some(dir) = prom_path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(&prom_path, prom::render_prometheus(snapshot))?;
    std::fs::write(&json_path, export::render_json(snapshot).pretty())?;
    Ok((prom_path, json_path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_dedupes_and_shares_slots() {
        let m = MetricsHandle::default();
        let a = m.counter("osiris_test_total", "test counter", &[("component", "pm")]);
        let b = m.counter("osiris_test_total", "test counter", &[("component", "pm")]);
        let other = m.counter("osiris_test_total", "test counter", &[("component", "vfs")]);
        a.add(3);
        b.inc();
        other.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(b.get(), 4);
        assert_eq!(other.get(), 1);
        let snap = m.snapshot();
        assert_eq!(snap.families.len(), 1);
        assert_eq!(snap.families[0].series.len(), 2);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let m = MetricsHandle::new(MetricsConfig::off());
        let c = m.counter("osiris_off_total", "off", &[]);
        let g = m.gauge("osiris_off_gauge", "off", &[]);
        let h = m.hist("osiris_off_hist", "off", &[]);
        c.add(10);
        g.set(5);
        h.observe(7);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert!(h.get().is_empty());
        m.set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn tally_and_dist_reach_the_registry_only_when_published() {
        let m = MetricsHandle::default();
        let mut t = m.tally("osiris_tally_total", "t", &[]);
        let mut d = m.dist("osiris_dist", "d", &[]);
        t.add(3);
        d.observe(40);
        assert_eq!((t.local(), t.published()), (3, 0));
        assert!(d.reader().get().is_empty());
        t.publish();
        d.publish();
        assert_eq!(t.reader().get(), 3);
        assert_eq!(d.published_summary().count, 1);
        // A reset registry is what the writer continues from once reloaded.
        m.reset();
        t.reload();
        d.reload();
        t.inc();
        t.publish();
        d.publish();
        assert_eq!(t.published(), 1);
        assert!(d.reader().get().is_empty());
        // The gate applies at publish: a disabled registry keeps exporting
        // what it held.
        m.set_enabled(false);
        t.add(10);
        t.publish();
        assert_eq!((t.local(), t.published()), (11, 1));
    }

    #[test]
    fn reset_zeroes_but_keeps_registration() {
        let m = MetricsHandle::default();
        let c = m.counter("osiris_reset_total", "r", &[]);
        let h = m.hist("osiris_reset_hist", "r", &[]);
        c.add(9);
        h.observe(100);
        m.reset();
        assert_eq!(c.get(), 0);
        assert!(h.get().is_empty());
        assert_eq!(m.snapshot().families.len(), 2);
    }

    #[test]
    fn gauge_set_max_is_a_high_water_mark() {
        let m = MetricsHandle::default();
        let g = m.gauge("osiris_peak", "p", &[]);
        g.set_max(10);
        g.set_max(4);
        assert_eq!(g.get(), 10);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let m = MetricsHandle::default();
        let _ = m.counter("osiris_conflict", "c", &[]);
        let _ = m.gauge("osiris_conflict", "g", &[]);
    }

    #[test]
    fn find_locates_series() {
        let m = MetricsHandle::default();
        m.counter("osiris_find_total", "f", &[("k", "v")]).add(2);
        let snap = m.snapshot();
        match snap.find("osiris_find_total", &[("k", "v")]) {
            Some(SeriesValue::Counter(2)) => {}
            other => panic!("unexpected: {other:?}"),
        }
        assert!(snap.find("osiris_find_total", &[]).is_none());
        assert!(snap.find("nope", &[]).is_none());
    }
}
