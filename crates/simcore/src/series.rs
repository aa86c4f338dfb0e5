//! Named time series: the raw material of every figure in the paper.
//!
//! A [`TimeSeries`] is an append-only `(SimTime, f64)` sequence; a
//! [`SeriesSet`] groups the series recorded during one experiment run so a
//! report or bench can emit them together (e.g. Figure 4's SLA / watts /
//! active-PM traces share a time axis).

use crate::stats::OnlineStats;
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An append-only series of timestamped samples.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    name: String,
    times: Vec<SimTime>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// A new, empty series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// A new, empty series with room for `cap` samples.
    pub fn with_capacity(name: impl Into<String>, cap: usize) -> Self {
        TimeSeries {
            name: name.into(),
            times: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample. Timestamps must be non-decreasing; out-of-order
    /// appends indicate a simulation bug and panic in debug builds.
    #[inline]
    pub fn record(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            self.times.last().is_none_or(|&last| last <= t),
            "time series '{}' must be appended in time order",
            self.name
        );
        self.times.push(t);
        self.values.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The timestamps.
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }

    /// The values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterator over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// The last value, if any.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        match (self.times.last(), self.values.last()) {
            (Some(&t), Some(&v)) => Some((t, v)),
            _ => None,
        }
    }

    /// Mean of all values (0 if empty).
    pub fn mean(&self) -> f64 {
        self.summary().mean()
    }

    /// Full summary statistics over the values.
    pub fn summary(&self) -> OnlineStats {
        let mut s = OnlineStats::new();
        s.extend(&self.values);
        s
    }

    /// Mean of the values whose timestamps fall in `[from, to)`.
    pub fn mean_in_window(&self, from: SimTime, to: SimTime) -> f64 {
        let mut s = OnlineStats::new();
        for (t, v) in self.iter() {
            if t >= from && t < to {
                s.push(v);
            }
        }
        s.mean()
    }

    /// Downsamples to one mean value per `bucket` of time, returning
    /// `(bucket_start, mean)` pairs. Used to shrink per-tick traces before
    /// printing figure data.
    pub fn resample(&self, bucket: SimDuration) -> Vec<(SimTime, f64)> {
        assert!(!bucket.is_zero(), "resample: bucket must be positive");
        let mut out: Vec<(SimTime, f64)> = Vec::new();
        let mut acc = OnlineStats::new();
        let mut current: Option<u64> = None;
        for (t, v) in self.iter() {
            let b = t.as_millis() / bucket.as_millis();
            if current != Some(b) {
                if let Some(cb) = current {
                    out.push((SimTime::from_millis(cb * bucket.as_millis()), acc.mean()));
                }
                acc = OnlineStats::new();
                current = Some(b);
            }
            acc.push(v);
        }
        if let Some(cb) = current {
            out.push((SimTime::from_millis(cb * bucket.as_millis()), acc.mean()));
        }
        out
    }
}

/// A set of time series sharing one experiment run.
#[derive(Clone, Debug, Default)]
pub struct SeriesSet {
    series: BTreeMap<String, TimeSeries>,
}

impl SeriesSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records into the named series, creating it on first use.
    pub fn record(&mut self, name: &str, t: SimTime, v: f64) {
        self.series
            .entry(name.to_string())
            .or_insert_with(|| TimeSeries::new(name))
            .record(t, v);
    }

    /// Looks up a series by name.
    pub fn get(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// All series names in deterministic (sorted) order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(String::as_str)
    }

    /// Iterates over all series in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TimeSeries)> {
        self.series.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when the set holds no series.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Renders the set as CSV with a shared `minutes` axis: rows are the
    /// union of timestamps, missing cells are empty. Good enough to drop
    /// into any plotting tool to redraw the paper's figures.
    pub fn to_csv(&self) -> String {
        let mut stamps: Vec<SimTime> = Vec::new();
        for ts in self.series.values() {
            stamps.extend_from_slice(ts.times());
        }
        stamps.sort_unstable();
        stamps.dedup();

        let mut out = String::new();
        out.push_str("minutes");
        for name in self.series.keys() {
            let _ = write!(out, ",{name}");
        }
        out.push('\n');

        // Per-series cursor over its (sorted) timestamps.
        let mut cursors: Vec<usize> = vec![0; self.series.len()];
        for t in &stamps {
            let _ = write!(out, "{}", t.as_millis() as f64 / 60_000.0);
            for (ci, ts) in self.series.values().enumerate() {
                let cur = &mut cursors[ci];
                if *cur < ts.len() && ts.times()[*cur] == *t {
                    let _ = write!(out, ",{}", ts.values()[*cur]);
                    *cur += 1;
                } else {
                    out.push(',');
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(mins: u64) -> SimTime {
        SimTime::from_mins(mins)
    }

    #[test]
    fn record_and_query() {
        let mut ts = TimeSeries::new("sla");
        ts.record(t(0), 1.0);
        ts.record(t(1), 0.8);
        ts.record(t(2), 0.6);
        assert_eq!(ts.len(), 3);
        assert!((ts.mean() - 0.8).abs() < 1e-12);
        assert_eq!(ts.last(), Some((t(2), 0.6)));
        assert_eq!(ts.name(), "sla");
    }

    #[test]
    #[should_panic(expected = "time order")]
    #[cfg(debug_assertions)]
    fn out_of_order_panics_in_debug() {
        let mut ts = TimeSeries::new("x");
        ts.record(t(5), 1.0);
        ts.record(t(4), 1.0);
    }

    #[test]
    fn window_mean() {
        let mut ts = TimeSeries::new("w");
        for i in 0..10 {
            ts.record(t(i), i as f64);
        }
        assert!((ts.mean_in_window(t(2), t(5)) - 3.0).abs() < 1e-12);
        assert_eq!(ts.mean_in_window(t(50), t(60)), 0.0);
    }

    #[test]
    fn resample_means_buckets() {
        let mut ts = TimeSeries::new("r");
        for i in 0..6 {
            ts.record(t(i), i as f64);
        }
        let r = ts.resample(SimDuration::from_mins(2));
        assert_eq!(r.len(), 3);
        assert!((r[0].1 - 0.5).abs() < 1e-12);
        assert!((r[2].1 - 4.5).abs() < 1e-12);
    }

    #[test]
    fn series_set_csv() {
        let mut set = SeriesSet::new();
        set.record("a", t(0), 1.0);
        set.record("b", t(1), 2.0);
        set.record("a", t(1), 3.0);
        let csv = set.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "minutes,a,b");
        assert_eq!(lines[1], "0,1,");
        assert_eq!(lines[2], "1,3,2");
        assert_eq!(set.names().collect::<Vec<_>>(), vec!["a", "b"]);
    }
}
