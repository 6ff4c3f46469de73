//! # osiris-metrics — one metrics store
//!
//! One source of truth for every number the evaluation reports. A
//! [`Registry`] is a *schema* — named families (help text, kind) and their
//! labelled series, in registration order — plus the [`Values`] those series
//! hold: one `u64` per counter or gauge and one [`Log2Hist`] per histogram,
//! in plain arrays. Registering a series returns a `Copy` typed id
//! ([`CounterId`], [`GaugeId`], [`HistId`]); a write is an indexed add or
//! `record` through `&mut`, a read is an indexed load through `&`.
//!
//! ## Design
//!
//! A registry is plain state with one writer: whoever owns it. The kernel's
//! registry is a [`SeriesFold`] of the occurrences it emits ([`fold`]); a
//! campaign derives its registry from its records when asked. Nothing is
//! shared, so there is nothing to lock or publish, and a reader can never
//! see one series fresher than another.
//!
//! Registration is idempotent and may happen at any time: asking for the
//! same `(family, labels)` series twice returns the same id. Families keep
//! their series in registration order and label sets are fixed at
//! registration, so two runs with the same configuration export
//! byte-identical text. The schema is only walked to register and to
//! export: [`Registry::values`] and [`Registry::restore`] move the numbers
//! between two registries of the same schema (a fork and its donor) as two
//! array copies, without touching a name.

pub use osiris_trace::hist::{HistSummary, Log2Hist};

pub mod export;
#[cfg(test)]
mod fmt_oracle;
pub mod fold;
pub mod prom;
mod series;
pub mod timeseries;

pub use export::render_json;
pub use fold::{
    ComponentReport, KernelMetrics, Note, Owned, Owners, Restart, SeriesFold, SeriesState,
};
pub use prom::{render_prometheus, validate_prometheus};
pub use timeseries::{TimeseriesConfig, TimeseriesSampler, TimeseriesState};

/// Configuration for a [`Registry`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Whether writes are recorded. Registration and export work either
    /// way; a disabled registry lists every series and reads zero.
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

    /// Recording off: every write is one predictable branch.
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

/// A registered counter series: a monotonically increasing count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(u32);

/// A registered gauge series: a point-in-time level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(u32);

/// A registered histogram series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistId(u32);

/// The numbers of a [`Registry`], indexed by the ids its schema handed out.
/// A clone is a snapshot; [`Registry::restore`] writes one back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Values {
    on: bool,
    scalars: Vec<u64>,
    hists: Vec<Log2Hist>,
}

impl Values {
    /// Adds 1.
    #[inline]
    pub fn inc(&mut self, c: CounterId) {
        self.add(c, 1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, c: CounterId, n: u64) {
        if self.on {
            self.scalars[c.0 as usize] += n;
        }
    }

    /// Sets the level.
    #[inline]
    pub fn set(&mut self, g: GaugeId, n: u64) {
        if self.on {
            self.scalars[g.0 as usize] = n;
        }
    }

    /// Raises the level to `n` if it is below (high-water mark).
    #[inline]
    pub fn set_max(&mut self, g: GaugeId, n: u64) {
        if self.on {
            let v = &mut self.scalars[g.0 as usize];
            *v = (*v).max(n);
        }
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&mut self, h: HistId, value: u64) {
        if self.on {
            self.hists[h.0 as usize].record(value);
        }
    }

    /// A counter's running total.
    pub fn total(&self, c: CounterId) -> u64 {
        self.scalars[c.0 as usize]
    }

    /// A gauge's current level.
    pub fn level(&self, g: GaugeId) -> u64 {
        self.scalars[g.0 as usize]
    }

    /// A histogram series' distribution.
    pub fn histogram(&self, h: HistId) -> &Log2Hist {
        &self.hists[h.0 as usize]
    }
}

#[derive(Clone)]
struct Series {
    labels: Vec<(String, String)>,
    /// Index into the value array of the family's kind.
    slot: u32,
}

#[derive(Clone)]
struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    series: Vec<Series>,
}

/// A metrics registry: the schema and the values, owned by its one writer.
/// It dereferences to its [`Values`], so `registry.inc(id)` and
/// `registry.total(id)` are the write and the read.
#[derive(Clone)]
pub struct Registry {
    families: Vec<Family>,
    values: Values,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new(MetricsConfig::default())
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.enabled())
            .field("families", &self.families.len())
            .finish_non_exhaustive()
    }
}

impl std::ops::Deref for Registry {
    type Target = Values;

    fn deref(&self) -> &Values {
        &self.values
    }
}

impl std::ops::DerefMut for Registry {
    fn deref_mut(&mut self) -> &mut Values {
        &mut self.values
    }
}

impl Registry {
    /// Creates an empty registry with the given config.
    pub fn new(config: MetricsConfig) -> Registry {
        Registry {
            families: Vec::new(),
            values: Values {
                on: config.enabled,
                scalars: Vec::new(),
                hists: Vec::new(),
            },
        }
    }

    /// Whether writes are recorded.
    pub fn enabled(&self) -> bool {
        self.values.on
    }

    /// Registers (or finds) a counter series and returns its id.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> CounterId {
        CounterId(self.series(name, help, MetricKind::Counter, labels))
    }

    /// Registers (or finds) a gauge series and returns its id.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> GaugeId {
        GaugeId(self.series(name, help, MetricKind::Gauge, labels))
    }

    /// Registers (or finds) a histogram series and returns its id.
    pub fn hist(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> HistId {
        HistId(self.series(name, help, MetricKind::Histogram, labels))
    }

    /// The slot of series `(name, labels)`, registering the family and the
    /// series (with a zero value) on first sight.
    fn series(&mut self, name: &str, help: &str, kind: MetricKind, labels: &[(&str, &str)]) -> u32 {
        let family = match self.families.iter().position(|f| f.name == name) {
            Some(i) => &mut self.families[i],
            None => {
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
        };
        assert_eq!(
            family.kind, kind,
            "metric family {name:?} re-registered with a different kind"
        );
        if let Some(s) = family.series.iter().find(|s| label_eq(&s.labels, labels)) {
            return s.slot;
        }
        for (k, _) in labels {
            assert!(valid_name(k), "invalid label name {k:?}");
        }
        let slot = match kind {
            MetricKind::Histogram => {
                self.values.hists.push(Log2Hist::new());
                self.values.hists.len() - 1
            }
            _ => {
                self.values.scalars.push(0);
                self.values.scalars.len() - 1
            }
        } as u32;
        family.series.push(Series {
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            slot,
        });
        slot
    }

    /// Zeroes every series (counters and gauges to 0, histograms to empty).
    /// Registration survives; the kernel uses this to exclude boot-time
    /// activity from reports.
    pub fn reset(&mut self) {
        self.values.scalars.fill(0);
        self.values.hists.fill(Log2Hist::new());
    }

    /// The current values; clone them for a snapshot.
    pub fn values(&self) -> &Values {
        &self.values
    }

    /// Overwrites the values with a snapshot taken from a registry of the
    /// same schema (the fork case: both sides registered the same series in
    /// the same order). Two array copies into storage this registry already
    /// holds; whether either side records does not matter.
    ///
    /// # Panics
    ///
    /// Panics if the series counts differ.
    pub fn restore(&mut self, values: &Values) {
        assert_eq!(
            (values.scalars.len(), values.hists.len()),
            (self.values.scalars.len(), self.values.hists.len()),
            "metrics restore across different schemas"
        );
        self.values.scalars.copy_from_slice(&values.scalars);
        self.values.hists.copy_from_slice(&values.hists);
    }

    /// Appends every family of `other`, with its values, after this
    /// registry's own.
    ///
    /// # Panics
    ///
    /// Panics if a family name is registered on both sides.
    pub fn append(&mut self, other: Registry) {
        let (scalars, hists) = (self.values.scalars.len(), self.values.hists.len());
        for mut family in other.families {
            assert!(
                self.families.iter().all(|f| f.name != family.name),
                "metric family {:?} appended twice",
                family.name
            );
            let base = match family.kind {
                MetricKind::Histogram => hists,
                _ => scalars,
            } as u32;
            family.series.iter_mut().for_each(|s| s.slot += base);
            self.families.push(family);
        }
        self.values.scalars.extend(other.values.scalars);
        self.values.hists.extend(other.values.hists);
    }

    /// A deep copy of every family, for exposition.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snapshot_of(&self.values)
    }

    /// [`Registry::snapshot`] of this schema over `values`: a copy of this
    /// registry's own values, possibly with more filled in.
    pub fn snapshot_of(&self, values: &Values) -> MetricsSnapshot {
        let series = |f: &Family, s: &Series| SeriesSnapshot {
            labels: s.labels.clone(),
            value: match f.kind {
                MetricKind::Counter => SeriesValue::Counter(values.scalars[s.slot as usize]),
                MetricKind::Gauge => SeriesValue::Gauge(values.scalars[s.slot as usize]),
                MetricKind::Histogram => SeriesValue::Hist(Box::new(values.hists[s.slot as usize])),
            },
        };
        MetricsSnapshot {
            families: self
                .families
                .iter()
                .map(|f| FamilySnapshot {
                    name: f.name.clone(),
                    help: f.help.clone(),
                    kind: f.kind,
                    series: f.series.iter().map(|s| series(f, s)).collect(),
                })
                .collect(),
        }
    }

    /// Renders the current state in Prometheus text exposition format.
    pub fn prometheus(&self) -> String {
        prom::render_prometheus(&self.snapshot())
    }

    /// The current state as a JSON document.
    pub fn json(&self) -> osiris_trace::JsonDoc<MetricsSnapshot> {
        osiris_trace::JsonDoc(self.snapshot())
    }
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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Label pairs in registration order.
    pub labels: Vec<(String, String)>,
    /// The captured value.
    pub value: SeriesValue,
}

/// A captured series value.
#[derive(Clone, Debug, PartialEq, Eq)]
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
    base: &std::path::Path,
) -> std::io::Result<(std::path::PathBuf, std::path::PathBuf)> {
    // Appended to the OS string: a path need not be UTF-8.
    let [prom_path, json_path] = [".prom", ".json"].map(|suffix| {
        let mut path = base.as_os_str().to_owned();
        path.push(suffix);
        std::path::PathBuf::from(path)
    });
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
    fn registration_dedupes_to_one_series() {
        let mut m = Registry::default();
        let a = m.counter("osiris_test_total", "test counter", &[("component", "pm")]);
        let b = m.counter("osiris_test_total", "test counter", &[("component", "pm")]);
        let other = m.counter("osiris_test_total", "test counter", &[("component", "vfs")]);
        assert_eq!(a, b);
        m.add(a, 3);
        m.inc(b);
        m.inc(other);
        assert_eq!(m.total(a), 4);
        assert_eq!(m.total(other), 1);
        let snap = m.snapshot();
        assert_eq!(snap.families.len(), 1);
        assert_eq!(snap.families[0].series.len(), 2);
    }

    #[test]
    fn disabled_registry_lists_every_series_and_reads_zero() {
        let mut m = Registry::new(MetricsConfig::off());
        let c = m.counter("osiris_off_total", "off", &[]);
        let g = m.gauge("osiris_off_gauge", "off", &[]);
        let h = m.hist("osiris_off_hist", "off", &[]);
        m.add(c, 10);
        m.set(g, 5);
        m.set_max(g, 6);
        m.observe(h, 7);
        assert_eq!((m.total(c), m.level(g)), (0, 0));
        assert!(m.histogram(h).is_empty());
        assert_eq!(m.snapshot().families.len(), 3);
    }

    #[test]
    fn values_round_trip_between_same_schema_registries() {
        let build = || {
            let mut m = Registry::default();
            let c = m.counter("osiris_rt_total", "c", &[("k", "v")]);
            let h = m.hist("osiris_rt_hist", "h", &[]);
            (m, c, h)
        };
        let (mut donor, c, h) = build();
        donor.add(c, 3);
        donor.observe(h, 40);
        let snap = donor.values().clone();
        donor.inc(c);
        let (mut fork, ..) = build();
        fork.restore(&snap);
        assert_eq!(fork.total(c), 3);
        assert_eq!(fork.histogram(h).count(), 1);
        assert_eq!(fork.values(), &snap);
        assert_ne!(donor.values(), &snap);
    }

    #[test]
    #[should_panic(expected = "different schemas")]
    fn restore_refuses_a_different_schema() {
        let mut a = Registry::default();
        a.counter("osiris_a_total", "a", &[]);
        let b = Registry::default();
        a.restore(b.values());
    }

    #[test]
    fn append_keeps_both_sides_series_and_values() {
        let mut a = Registry::default();
        let ac = a.counter("osiris_a_total", "a", &[]);
        a.add(ac, 2);
        let mut b = Registry::default();
        let bc = b.counter("osiris_b_total", "b", &[("k", "v")]);
        let bh = b.hist("osiris_b_hist", "b", &[]);
        b.add(bc, 5);
        b.observe(bh, 9);
        a.append(b);
        let snap = a.snapshot();
        let names: Vec<_> = snap.families.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["osiris_a_total", "osiris_b_total", "osiris_b_hist"]);
        assert!(matches!(
            snap.find("osiris_a_total", &[]),
            Some(SeriesValue::Counter(2))
        ));
        assert!(matches!(
            snap.find("osiris_b_total", &[("k", "v")]),
            Some(SeriesValue::Counter(5))
        ));
        match snap.find("osiris_b_hist", &[]) {
            Some(SeriesValue::Hist(h)) => assert_eq!(h.count(), 1),
            other => panic!("unexpected: {other:?}"),
        }
        // Registering after an append lands behind the appended slots.
        let late = a.counter("osiris_a_total", "a", &[("late", "1")]);
        a.inc(late);
        assert_eq!((a.total(ac), a.total(late)), (2, 1));
    }

    #[test]
    fn reset_zeroes_but_keeps_registration() {
        let mut m = Registry::default();
        let c = m.counter("osiris_reset_total", "r", &[]);
        let h = m.hist("osiris_reset_hist", "r", &[]);
        m.add(c, 9);
        m.observe(h, 100);
        m.reset();
        assert_eq!(m.total(c), 0);
        assert!(m.histogram(h).is_empty());
        assert_eq!(m.snapshot().families.len(), 2);
    }

    #[test]
    fn gauge_set_max_is_a_high_water_mark() {
        let mut m = Registry::default();
        let g = m.gauge("osiris_peak", "p", &[]);
        m.set_max(g, 10);
        m.set_max(g, 4);
        assert_eq!(m.level(g), 10);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let mut m = Registry::default();
        let _ = m.counter("osiris_conflict", "c", &[]);
        let _ = m.gauge("osiris_conflict", "g", &[]);
    }

    #[test]
    fn find_locates_series() {
        let mut m = Registry::default();
        let c = m.counter("osiris_find_total", "f", &[("k", "v")]);
        m.add(c, 2);
        let snap = m.snapshot();
        match snap.find("osiris_find_total", &[("k", "v")]) {
            Some(SeriesValue::Counter(2)) => {}
            other => panic!("unexpected: {other:?}"),
        }
        assert!(snap.find("osiris_find_total", &[]).is_none());
        assert!(snap.find("nope", &[]).is_none());
    }
}
