//! Metrics registry: counters, gauges, and log-bucketed histograms keyed by
//! static names.
//!
//! All handles are lock-free after first registration (atomics behind an
//! `Arc`); the registry itself takes a short write lock only when a new name
//! first appears. Histograms use geometric buckets spanning `[1e-12, ∞)`
//! with ratio 2^(1/3) (~26% per bucket, 256 buckets ≈ 25 decades), which is
//! plenty for timing data while keeping quantile error under the bucket
//! width.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::json::{obj, Json};

const HIST_BUCKETS: usize = 256;
const HIST_MIN: f64 = 1e-12;
// ratio 2^(1/3): three buckets per doubling.
const HIST_LOG2_PER_BUCKET: f64 = 1.0 / 3.0;

/// Monotone counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge holding an `f64` (stored as bits).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
    set_count: AtomicI64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
            set_count: AtomicI64::new(0),
        }
    }
}

impl Gauge {
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
        self.set_count.fetch_add(1, Ordering::Relaxed);
    }
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
    /// Number of times the gauge was written (0 ⇒ never set).
    pub fn writes(&self) -> i64 {
        self.set_count.load(Ordering::Relaxed)
    }
}

/// Log-bucketed histogram for non-negative samples (timings, ratios).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum stored as integer picoseconds-like fixed point would lose range;
    /// instead accumulate via CAS on f64 bits.
    sum_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

fn bucket_index(v: f64) -> usize {
    // Callers reject non-finite samples, so `v` is an ordinary value here.
    if v <= HIST_MIN {
        return 0;
    }
    let idx = ((v / HIST_MIN).log2() / HIST_LOG2_PER_BUCKET) as usize + 1;
    idx.min(HIST_BUCKETS - 1)
}

/// Geometric midpoint of bucket `i`, used when reporting quantiles.
fn bucket_mid(i: usize) -> f64 {
    if i == 0 {
        return HIST_MIN;
    }
    let lo = HIST_MIN * (2f64).powf(HIST_LOG2_PER_BUCKET * (i - 1) as f64);
    let hi = lo * (2f64).powf(HIST_LOG2_PER_BUCKET);
    (lo * hi).sqrt()
}

impl Histogram {
    pub fn record(&self, v: f64) {
        if !v.is_finite() || v < 0.0 {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // f64 accumulate via CAS loop; contention is negligible at our rates.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Approximate quantile `q ∈ [0,1]` from cumulative bucket counts,
    /// reported at the geometric midpoint of the selected bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // rank: smallest index with cumulative count >= ceil(q*n), min 1.
        let target = ((q * n as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                return bucket_mid(i);
            }
        }
        bucket_mid(HIST_BUCKETS - 1)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Point-in-time histogram statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: f64,
    pub mean: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

/// Registry of named metrics. Names must be `'static` so handles can be
/// cached and so snapshots carry no allocation churn.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<&'static str, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<&'static str, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<&'static str, Arc<Histogram>>>,
}

fn get_or_insert<T: Default>(
    map: &RwLock<BTreeMap<&'static str, Arc<T>>>,
    name: &'static str,
) -> Arc<T> {
    if let Some(m) = map.read().unwrap().get(name) {
        return Arc::clone(m);
    }
    let mut w = map.write().unwrap();
    Arc::clone(w.entry(name).or_default())
}

impl MetricsRegistry {
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name)
    }
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name)
    }

    /// Snapshot every metric, sorted by name within each family.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (*k, v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (*k, v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .unwrap()
                .iter()
                .map(|(k, v)| (*k, v.snapshot()))
                .collect(),
        }
    }

    /// One-call JSON dump of the whole registry — counters, gauges, and
    /// histogram quantiles as one stable object (same shape as
    /// [`MetricsSnapshot::to_json`]). The canonical per-run metrics dump
    /// for harnesses and reports.
    pub fn snapshot_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// Point-in-time view of the whole registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(&'static str, u64)>,
    pub gauges: Vec<(&'static str, f64)>,
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
    }
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
    }
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
    }

    /// Encode as one JSON object: `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    pub fn to_json(&self) -> String {
        fn members<T>(xs: &[(&str, T)], value: impl Fn(&T) -> Json) -> Json {
            Json::Obj(xs.iter().map(|(k, v)| (k.to_string(), value(v))).collect())
        }
        obj(vec![
            ("counters", members(&self.counters, |&v| Json::U64(v))),
            ("gauges", members(&self.gauges, |&v| Json::F64(v))),
            (
                "histograms",
                members(&self.histograms, |h| {
                    obj(vec![
                        ("count", Json::U64(h.count)),
                        ("mean", Json::F64(h.mean)),
                        ("p50", Json::F64(h.p50)),
                        ("p90", Json::F64(h.p90)),
                        ("p99", Json::F64(h.p99)),
                    ])
                }),
            ),
        ])
        .to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = MetricsRegistry::default();
        reg.counter("a").add(2);
        reg.counter("a").add(3);
        reg.gauge("g").set(1.5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a"), Some(5));
        assert_eq!(snap.gauge("g"), Some(1.5));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::default();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-3); // 1ms .. 1s
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        // bucket width is ~26%, so allow that much slack around the truth.
        assert!((s.p50 / 0.5 - 1.0).abs() < 0.3, "p50={}", s.p50);
        assert!((s.p90 / 0.9 - 1.0).abs() < 0.3, "p90={}", s.p90);
        assert!((s.p99 / 0.99 - 1.0).abs() < 0.3, "p99={}", s.p99);
        assert!((s.mean - 0.5005).abs() < 0.01);
    }

    #[test]
    fn histogram_ignores_junk() {
        let h = Histogram::default();
        h.record(f64::NAN);
        h.record(-1.0);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn histogram_tiny_and_huge_clamp() {
        let h = Histogram::default();
        h.record(0.0); // below MIN → bucket 0
        h.record(1e30); // above top → last bucket
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.0) >= 0.0);
    }

    #[test]
    fn concurrent_updates_sum_correctly() {
        let reg = Arc::new(MetricsRegistry::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                let c = r.counter("hits");
                let h = r.histogram("lat");
                for _ in 0..1000 {
                    c.add(1);
                    h.record(1e-3);
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hits"), Some(4000));
        assert_eq!(snap.histogram("lat").unwrap().count, 4000);
    }

    #[test]
    fn snapshot_json_shape() {
        let reg = MetricsRegistry::default();
        reg.counter("c").add(1);
        reg.gauge("g").set(f64::NAN);
        reg.histogram("h").record(0.25);
        let j = reg.snapshot().to_json();
        assert!(j.contains("\"counters\":{\"c\":1}"));
        assert!(j.contains("\"g\":null"));
        assert!(j.contains("\"count\":1"));
        // The one-call dump is identical to snapshotting then encoding.
        assert_eq!(reg.snapshot_json(), j);
    }
}
