//! Virtual-time telemetry: a deterministic time-series sampler over
//! registry series.
//!
//! The registry ([`crate::Registry`]) answers "what happened over the
//! whole run"; this module answers "when" — how p99 request latency moved
//! *during* a crash storm, when the crash counter stepped, how recovery
//! cycles accrued. A [`TimeseriesSampler`] holds the ids of selected
//! counter and histogram series and, every Δ virtual cycles, reads each
//! from the registry's values into a fixed ring of `Copy` sample points (a
//! counter total, or a full [`HistSummary`] with p50/p90/p99/p99.9).
//!
//! Everything is keyed to the virtual clock, never the wall clock, so two
//! same-seed runs produce byte-identical [`TimeseriesSampler::to_json`]
//! documents — the property the determinism CI gate diffs. The ring keeps
//! the most recent `capacity` points per series; when it wraps, the oldest
//! points are overwritten (flight-recorder discipline, like `osiris-trace`).

use crate::{CounterId, HistId, Values};
use osiris_trace::chrome::ChromeLane;
use osiris_trace::hist::HistSummary;
use osiris_trace::{JsonDoc, JsonWriter, Sink, WriteJson};

/// Configuration for a [`TimeseriesSampler`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimeseriesConfig {
    /// Whether [`TimeseriesSampler::maybe_sample`] records anything. A
    /// disabled sampler costs one branch per call and exports an empty
    /// document.
    pub enabled: bool,
    /// Δ: virtual cycles between samples. Samples land on the interval
    /// grid (multiples of Δ as crossed by the monotone clock), so the
    /// sample cadence is a property of virtual time, not of how often the
    /// pump loop happens to run.
    pub interval: u64,
    /// Points retained per tracked series; the ring overwrites its oldest
    /// point once full.
    pub capacity: usize,
}

impl Default for TimeseriesConfig {
    fn default() -> Self {
        TimeseriesConfig {
            enabled: false,
            interval: 25_000,
            capacity: 4096,
        }
    }
}

impl TimeseriesConfig {
    /// Sampling on, with the default interval and capacity.
    pub fn on() -> TimeseriesConfig {
        TimeseriesConfig {
            enabled: true,
            ..Default::default()
        }
    }
}

/// One captured point: a counter total or a histogram digest, at virtual
/// time `t`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Virtual-clock cycle the sample was taken at.
    pub t: u64,
    /// The captured value.
    pub value: SampleValue,
}

/// The value half of a [`Sample`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampleValue {
    /// A counter's running total.
    Counter(u64),
    /// A histogram's condensed digest (count, min/max, mean, p50/p90/p99/
    /// p99.9) — cumulative over the run up to `t`, like a Prometheus
    /// histogram scrape.
    Hist(HistSummary),
}

#[derive(Clone, Copy)]
pub(crate) enum Source {
    Counter(CounterId),
    Hist(HistId),
}

pub(crate) struct Tracked {
    /// Display name, conventionally `family{label="value"}`.
    pub(crate) name: String,
    pub(crate) source: Source,
    /// Fixed ring: `points` grows to `capacity` once, then `start` marks
    /// the oldest slot and pushes overwrite in place.
    points: Vec<Sample>,
    start: usize,
}

impl Tracked {
    fn push(&mut self, cap: usize, s: Sample) {
        if self.points.len() < cap {
            self.points.push(s);
        } else {
            self.points[self.start] = s;
            self.start = (self.start + 1) % cap;
        }
    }

    pub(crate) fn kind(&self) -> &'static str {
        match self.source {
            Source::Counter(_) => "counter",
            Source::Hist(_) => "hist",
        }
    }

    pub(crate) fn in_order(&self) -> impl Iterator<Item = &Sample> {
        self.points[self.start..]
            .iter()
            .chain(self.points[..self.start].iter())
    }
}

/// Exported sampler state for the fork path: per-series recorded points
/// (normalized oldest-first) plus the armed sampling-grid position. Taken
/// with [`TimeseriesSampler::export_state`], written back with
/// [`TimeseriesSampler::restore_state`].
#[derive(Clone, Debug)]
pub struct TimeseriesState {
    next_due: u64,
    series: Vec<Vec<Sample>>,
}

/// A virtual-time sampler over registry series. See the module docs.
pub struct TimeseriesSampler {
    pub(crate) cfg: TimeseriesConfig,
    /// Next interval-grid cycle at which a sample is due.
    next_due: u64,
    pub(crate) tracked: Vec<Tracked>,
}

impl std::fmt::Debug for TimeseriesSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimeseriesSampler")
            .field("enabled", &self.cfg.enabled)
            .field("interval", &self.cfg.interval)
            .field("tracked", &self.tracked.len())
            .finish()
    }
}

impl TimeseriesSampler {
    /// Creates a sampler; track series with [`Self::track_counter`] /
    /// [`Self::track_hist`] before sampling.
    pub fn new(cfg: TimeseriesConfig) -> TimeseriesSampler {
        assert!(cfg.interval > 0, "timeseries interval must be positive");
        assert!(cfg.capacity > 0, "timeseries capacity must be positive");
        TimeseriesSampler {
            cfg,
            next_due: cfg.interval,
            tracked: Vec::new(),
        }
    }

    /// Whether sampling is on.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The configured Δ between samples, in virtual cycles.
    pub fn interval(&self) -> u64 {
        self.cfg.interval
    }

    /// Tracks a counter series under `name`.
    pub fn track_counter(&mut self, name: &str, c: CounterId) {
        self.tracked.push(Tracked {
            name: name.to_string(),
            source: Source::Counter(c),
            points: Vec::new(),
            start: 0,
        });
    }

    /// Tracks a histogram series under `name`.
    pub fn track_hist(&mut self, name: &str, h: HistId) {
        self.tracked.push(Tracked {
            name: name.to_string(),
            source: Source::Hist(h),
            points: Vec::new(),
            start: 0,
        });
    }

    /// Drops every recorded point and re-arms the sampling grid at `now`
    /// (the boot barrier: measurements start clean, like
    /// [`crate::Registry::reset`]).
    pub fn reset(&mut self, now: u64) {
        for t in &mut self.tracked {
            t.points.clear();
            t.start = 0;
        }
        self.next_due = (now / self.cfg.interval + 1) * self.cfg.interval;
    }

    /// Fork support: every tracked series' recorded points (oldest first)
    /// plus the armed grid position, for later [`Self::restore_state`] on a
    /// sampler tracking the same series in the same order.
    pub fn export_state(&self) -> TimeseriesState {
        TimeseriesState {
            next_due: self.next_due,
            series: self
                .tracked
                .iter()
                .map(|t| t.in_order().copied().collect())
                .collect(),
        }
    }

    /// Fork support: overwrites recorded points and the armed grid position
    /// with state exported from a donor sampler.
    ///
    /// # Panics
    ///
    /// Panics if the tracked-series count differs — fork and donor boot the
    /// same tracking set, so a mismatch is a programming error.
    pub fn restore_state(&mut self, state: &TimeseriesState) {
        assert_eq!(
            state.series.len(),
            self.tracked.len(),
            "timeseries restore with a different tracking set"
        );
        for (t, pts) in self.tracked.iter_mut().zip(&state.series) {
            t.points.clear();
            t.points.extend_from_slice(pts);
            t.start = 0;
        }
        self.next_due = state.next_due;
    }

    /// Takes one sample per tracked series from `values` if the monotone
    /// virtual clock has crossed the next interval-grid point. Call at any
    /// convenient pump frequency; a burst of calls within one interval
    /// records one sample, and a long jump across several intervals records
    /// one sample at `now` (the intermediate grid points are unobservable
    /// anyway).
    pub fn maybe_sample(&mut self, now: u64, values: &Values) {
        if !self.cfg.enabled || now < self.next_due {
            return;
        }
        self.sample(now, values);
        self.next_due = (now / self.cfg.interval + 1) * self.cfg.interval;
    }

    /// Unconditionally reads every tracked series from `values` at `t`
    /// (also the run-end flush, so the final state always appears in the
    /// export).
    pub fn sample(&mut self, t: u64, values: &Values) {
        if !self.cfg.enabled {
            return;
        }
        for tr in &mut self.tracked {
            let value = match tr.source {
                Source::Counter(c) => SampleValue::Counter(values.total(c)),
                Source::Hist(h) => SampleValue::Hist(values.histogram(h).summary()),
            };
            tr.push(self.cfg.capacity, Sample { t, value });
        }
    }

    /// Total points currently held across all series.
    pub fn len(&self) -> usize {
        self.tracked.iter().map(|t| t.points.len()).sum()
    }

    /// Whether no points have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The recorded points for the series named `name`, oldest first.
    pub fn series(&self, name: &str) -> Option<Vec<Sample>> {
        self.tracked
            .iter()
            .find(|t| t.name == name)
            .map(|t| t.in_order().copied().collect())
    }

    /// The recorded time series as a column-oriented JSON document:
    /// counters as `[t, value]` rows, histograms as
    /// `[t, count, p50, p90, p99, p999, max]` rows, with a `columns` header
    /// naming each position. Deterministic: same-seed runs produce
    /// byte-identical text.
    pub fn to_json(&self) -> JsonDoc<&Self> {
        JsonDoc(self)
    }
}

impl WriteJson for TimeseriesSampler {
    fn write_json<S: Sink>(&self, w: &mut JsonWriter<S>) {
        w.begin_object();
        w.key("interval").u64(self.cfg.interval);
        w.key("capacity").u64(self.cfg.capacity as u64);
        w.key("series").begin_array();
        for t in &self.tracked {
            w.begin_object();
            w.key("name").str(&t.name);
            w.key("kind").str(t.kind());
            w.key("columns").begin_array();
            let columns: &[&str] = match t.source {
                Source::Counter(_) => &["t", "value"],
                Source::Hist(_) => &["t", "count", "p50", "p90", "p99", "p999", "max"],
            };
            columns.iter().for_each(|c| w.str(c));
            w.end_array();
            w.key("points").begin_array();
            for s in t.in_order() {
                w.begin_array();
                w.u64(s.t);
                match s.value {
                    SampleValue::Counter(v) => w.u64(v),
                    SampleValue::Hist(h) => [h.count, h.p50, h.p90, h.p99, h.p999, h.max]
                        .into_iter()
                        .for_each(|v| w.u64(v)),
                }
                w.end_array();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
}

/// The recorded series as Chrome `trace_event` counter events (`ph: "C"`):
/// one event per sample, named after the series, so the trace viewer draws
/// each as a stacked-area counter lane under the main track. Histogram
/// samples carry their p50/p99/p99.9 as separate counter components.
impl ChromeLane for TimeseriesSampler {
    fn write_events<S: Sink>(&self, w: &mut JsonWriter<S>) {
        for t in &self.tracked {
            for s in t.in_order() {
                w.begin_object();
                w.key("name").str(&t.name);
                w.key("ph").str("C");
                w.key("ts").u64(s.t);
                w.key("pid").u64(1);
                w.key("args").begin_object();
                match s.value {
                    SampleValue::Counter(v) => w.key("value").u64(v),
                    SampleValue::Hist(h) => {
                        w.key("p50").u64(h.p50);
                        w.key("p99").u64(h.p99);
                        w.key("p999").u64(h.p999);
                    }
                }
                w.end_object();
                w.end_object();
            }
        }
    }

    fn size_hint(&self) -> usize {
        // An event's fixed text, about, plus its name.
        let event = |t: &Tracked| match t.source {
            Source::Counter(_) => 140,
            Source::Hist(_) => 200,
        };
        self.tracked
            .iter()
            .map(|t| t.points.len() * (event(t) + t.name.len()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sampler(interval: u64, capacity: usize) -> (TimeseriesSampler, Registry, CounterId, HistId) {
        let mut m = Registry::default();
        let c = m.counter("osiris_ts_total", "t", &[]);
        let h = m.hist("osiris_ts_hist", "t", &[]);
        let mut s = TimeseriesSampler::new(TimeseriesConfig {
            enabled: true,
            interval,
            capacity,
        });
        s.track_counter("osiris_ts_total", c);
        s.track_hist("osiris_ts_hist{overlap=\"none\"}", h);
        (s, m, c, h)
    }

    #[test]
    fn samples_land_on_the_interval_grid() {
        let (mut s, mut m, c, _) = sampler(100, 16);
        m.add(c, 1);
        s.maybe_sample(50, &m); // before the first grid point: nothing
        assert!(s.is_empty());
        s.maybe_sample(100, &m); // on the grid
        s.maybe_sample(130, &m); // same interval: no second sample
        m.add(c, 1);
        s.maybe_sample(250, &m); // crossed 200
        let pts = s.series("osiris_ts_total").unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!((pts[0].t, pts[0].value), (100, SampleValue::Counter(1)));
        assert_eq!((pts[1].t, pts[1].value), (250, SampleValue::Counter(2)));
    }

    #[test]
    fn ring_keeps_the_most_recent_points() {
        let (mut s, mut m, c, _) = sampler(10, 3);
        for i in 1..=5u64 {
            m.add(c, 1);
            s.maybe_sample(i * 10, &m);
        }
        let pts = s.series("osiris_ts_total").unwrap();
        assert_eq!(pts.len(), 3);
        assert_eq!(
            pts.iter().map(|p| p.t).collect::<Vec<_>>(),
            vec![30, 40, 50]
        );
        assert_eq!(pts[2].value, SampleValue::Counter(5));
    }

    #[test]
    fn hist_samples_capture_the_digest() {
        let (mut s, mut m, _, h) = sampler(10, 8);
        for _ in 0..99 {
            m.observe(h, 8);
        }
        m.observe(h, 1 << 30);
        s.sample(10, &m);
        let pts = s.series("osiris_ts_hist{overlap=\"none\"}").unwrap();
        match pts[0].value {
            SampleValue::Hist(d) => {
                assert_eq!(d.count, 100);
                assert_eq!(d.p50, 8);
                assert_eq!(d.p999, 1 << 30);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn disabled_sampler_records_nothing() {
        let mut m = Registry::default();
        let c = m.counter("osiris_ts_off_total", "t", &[]);
        let mut s = TimeseriesSampler::new(TimeseriesConfig::default());
        assert!(!s.enabled());
        s.track_counter("osiris_ts_off_total", c);
        s.maybe_sample(1_000_000, &m);
        s.sample(2_000_000, &m);
        assert!(s.is_empty());
    }

    #[test]
    fn reset_clears_points_and_rearms_the_grid() {
        let (mut s, mut m, c, _) = sampler(100, 8);
        m.inc(c);
        s.maybe_sample(100, &m);
        assert_eq!(s.len(), 2);
        s.reset(150);
        assert!(s.is_empty());
        s.maybe_sample(150, &m); // old grid point: already past reset's re-arm
        assert!(s.is_empty());
        s.maybe_sample(200, &m); // next grid point after the reset
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn json_is_column_oriented_and_deterministic() {
        let (mut s, mut m, c, h) = sampler(10, 8);
        m.add(c, 3);
        m.observe(h, 7);
        s.sample(10, &m);
        let text = s.to_json().pretty();
        assert!(text.contains("\"interval\": 10"), "{text}");
        assert!(text.contains("\"kind\": \"counter\""), "{text}");
        assert!(text.contains("\"kind\": \"hist\""), "{text}");
        assert!(text.contains("\"p999\""), "{text}");
        // Counter row [t, value]; hist row starts [t, count, p50, ...].
        assert!(text.contains("10,"), "{text}");
        assert_eq!(text, s.to_json().pretty());
    }

    #[test]
    fn chrome_counters_append_into_a_trace_document() {
        use osiris_trace::chrome::ChromeTrace;
        let (mut s, mut m, c, _) = sampler(10, 8);
        m.add(c, 2);
        s.sample(10, &m);
        let doc = |counters| ChromeTrace {
            records: vec![],
            names: vec![],
            axiom: &[],
            counters,
        };
        let text = doc(&s).pretty();
        assert!(text.contains("\"ph\": \"C\""), "{text}");
        assert!(text.contains("\"osiris_ts_total\""), "{text}");
        // An empty sampler leaves the document untouched.
        let (s2, ..) = sampler(10, 8);
        assert!(!doc(&s2).pretty().contains("\"C\""));
    }
}
