//! Service telemetry: request counters and latency histograms, exported
//! as one flat JSON document from `/metrics`.
//!
//! Counters are lock-free atomics. Latencies go into fixed-size
//! log-spaced histograms (bounds grow ×1.25, so each bucket is 25% wide,
//! from 1 µs to ~20 min), so percentile queries cost a single pass over
//! ~100 buckets and recording never allocates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use espresso_json::{Json, ToJson};

use crate::cache::CacheStats;

/// Lowest bucket upper bound, seconds.
const LOW: f64 = 1e-6;
/// Geometric growth factor between bucket bounds.
const GROWTH: f64 = 1.25;
/// Bucket count (the last bucket is open-ended). `LOW * GROWTH^94` ≈ 1300 s.
const BUCKETS: usize = 96;

/// A fixed-size log-bucketed latency histogram.
#[derive(Debug)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    total: u64,
    sum: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: [0; BUCKETS],
            total: 0,
            sum: 0.0,
        }
    }
}

impl Histogram {
    /// Records one observation, in seconds.
    pub fn record(&mut self, seconds: f64) {
        let seconds = if seconds.is_finite() { seconds.max(0.0) } else { 0.0 };
        let idx = if seconds <= LOW {
            0
        } else {
            ((seconds / LOW).ln() / GROWTH.ln()).ceil() as usize
        };
        self.counts[idx.min(BUCKETS - 1)] += 1;
        self.total += 1;
        self.sum += seconds;
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean observation, seconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Running cumulative bucket counts — `out[i]` is the number of
    /// observations at or below bucket `i`'s upper bound. By construction
    /// monotone non-decreasing with `out[last] == count()`; the
    /// well-formedness tests assert exactly that, so a broken `record`
    /// (e.g. an index that skips buckets or double-counts) is caught at
    /// the histogram layer rather than as a mysterious percentile.
    pub fn cumulative_counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .scan(0u64, |acc, &c| {
                *acc += c;
                Some(*acc)
            })
            .collect()
    }

    /// The `q`-quantile (`0 < q <= 1`), seconds: the upper bound of the
    /// bucket holding the rank-`ceil(q * total)` observation. Accurate to
    /// one bucket width (25%: the bounds grow ×1.25).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return LOW * GROWTH.powi(i as i32);
            }
        }
        LOW * GROWTH.powi((BUCKETS - 1) as i32)
    }
}

/// All counters and histograms of one server.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// Every parsed request, any route.
    pub requests_total: AtomicU64,
    /// Requests to `POST /decide`.
    pub decide_requests: AtomicU64,
    /// Decisions actually computed (cache misses that ran Algorithms 1–2).
    pub decisions_computed: AtomicU64,
    /// Connections shed with 503 because the worker queue was full.
    pub rejected_queue_full: AtomicU64,
    /// Requests shed with 503 because their deadline expired in queue.
    pub rejected_deadline: AtomicU64,
    /// `/decide` requests that forced recomputation via
    /// `Cache-Control: no-cache`.
    pub cache_bypass: AtomicU64,
    /// Responses with a 4xx status.
    pub client_errors: AtomicU64,
    /// Responses with a 5xx status.
    pub server_errors: AtomicU64,
    decision_latency: Mutex<Histogram>,
    request_latency: Mutex<Histogram>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh, zeroed metrics; uptime starts now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            requests_total: AtomicU64::new(0),
            decide_requests: AtomicU64::new(0),
            decisions_computed: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_deadline: AtomicU64::new(0),
            cache_bypass: AtomicU64::new(0),
            client_errors: AtomicU64::new(0),
            server_errors: AtomicU64::new(0),
            decision_latency: Mutex::new(Histogram::default()),
            request_latency: Mutex::new(Histogram::default()),
        }
    }

    /// Records the wall time one *computed* decision took (cache hits are
    /// not decisions).
    pub fn record_decision_latency(&self, seconds: f64) {
        self.lock_decision().record(seconds);
    }

    /// Records the in-server wall time of one `/decide` request, cache
    /// hits included.
    pub fn record_request_latency(&self, seconds: f64) {
        self.lock_request().record(seconds);
    }

    /// Bumps the right error-class counter for a response status.
    pub fn record_status(&self, status: u16) {
        if (400..500).contains(&status) {
            self.client_errors.fetch_add(1, Ordering::Relaxed);
        } else if status >= 500 {
            self.server_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn lock_decision(&self) -> std::sync::MutexGuard<'_, Histogram> {
        self.decision_latency.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_request(&self) -> std::sync::MutexGuard<'_, Histogram> {
        self.request_latency.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Renders the flat `/metrics` JSON document.
    pub fn render(&self, cache: &CacheStats) -> String {
        self.render_with(cache, &[])
    }

    /// Renders `/metrics` with extra flat entries appended — the fleet
    /// controller's `fleet_*` counters ride along this way. The document
    /// stays flat: every value, extras included, is a plain number.
    pub fn render_with(&self, cache: &CacheStats, extra: &[(String, f64)]) -> String {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let ms = 1e3;
        let (dec_p50, dec_p95, dec_p99, dec_mean, dec_count) = {
            let h = self.lock_decision();
            (
                h.quantile(0.50) * ms,
                h.quantile(0.95) * ms,
                h.quantile(0.99) * ms,
                h.mean() * ms,
                h.count(),
            )
        };
        let (req_p50, req_p95, req_p99, req_mean, req_count) = {
            let h = self.lock_request();
            (
                h.quantile(0.50) * ms,
                h.quantile(0.95) * ms,
                h.quantile(0.99) * ms,
                h.mean() * ms,
                h.count(),
            )
        };
        let mut doc = Json::obj(vec![
            ("uptime_seconds", self.started.elapsed().as_secs_f64().to_json()),
            ("requests_total", load(&self.requests_total).to_json()),
            ("decide_requests", load(&self.decide_requests).to_json()),
            ("decisions_computed", load(&self.decisions_computed).to_json()),
            ("rejected_queue_full", load(&self.rejected_queue_full).to_json()),
            ("rejected_deadline", load(&self.rejected_deadline).to_json()),
            ("cache_bypass", load(&self.cache_bypass).to_json()),
            ("client_errors", load(&self.client_errors).to_json()),
            ("server_errors", load(&self.server_errors).to_json()),
            ("cache_hits", cache.hits.to_json()),
            ("cache_misses", cache.misses.to_json()),
            ("cache_evictions", cache.evictions.to_json()),
            ("cache_entries", cache.entries.to_json()),
            ("cache_hit_rate", cache.hit_rate().to_json()),
            ("decision_latency_count", dec_count.to_json()),
            ("decision_latency_mean_ms", dec_mean.to_json()),
            ("decision_latency_p50_ms", dec_p50.to_json()),
            ("decision_latency_p95_ms", dec_p95.to_json()),
            ("decision_latency_p99_ms", dec_p99.to_json()),
            ("request_latency_count", req_count.to_json()),
            ("request_latency_mean_ms", req_mean.to_json()),
            ("request_latency_p50_ms", req_p50.to_json()),
            ("request_latency_p95_ms", req_p95.to_json()),
            ("request_latency_p99_ms", req_p99.to_json()),
        ]);
        if let Json::Obj(pairs) = &mut doc {
            pairs.extend(extra.iter().map(|(k, v)| (k.clone(), Json::Num(*v))));
        }
        doc.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_land_within_one_bucket() {
        let mut h = Histogram::default();
        // 100 observations: 1 ms .. 100 ms.
        for i in 1..=100 {
            h.record(i as f64 * 1e-3);
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        // One multiplicative bucket (×1.25) of slack on each side.
        assert!((0.04..=0.0625).contains(&p50), "p50 = {p50}");
        assert!((0.0792..=0.124).contains(&p99), "p99 = {p99}");
        assert!(p50 <= h.quantile(0.95) && h.quantile(0.95) <= p99);
        assert!((h.mean() - 0.0505).abs() < 1e-9);
    }

    #[test]
    fn degenerate_observations_do_not_panic() {
        let mut h = Histogram::default();
        h.record(-1.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(0.0);
        h.record(1e9);
        assert_eq!(h.count(), 5);
        assert!(h.quantile(0.5) > 0.0);
        let empty = Histogram::default();
        assert_eq!(empty.quantile(0.99), 0.0);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn histogram_is_well_formed_under_randomized_load() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // Many seeds, several load shapes: cumulative counts must be
        // monotone non-decreasing and end at the observation count, and
        // quantiles must be ordered p50 <= p95 <= p99.
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut h = Histogram::default();
            let n = rng.random_range(1..2000usize);
            for _ in 0..n {
                // Log-uniform from 100 ns to ~100 s, plus occasional junk.
                let v = match rng.random_range(0..20u32) {
                    0 => -1.0,
                    1 => f64::INFINITY,
                    _ => 1e-7 * 10f64.powf(rng.random_range(0.0..9.0f64)),
                };
                h.record(v);
            }
            let cum = h.cumulative_counts();
            assert_eq!(cum.len(), BUCKETS);
            for w in cum.windows(2) {
                assert!(w[1] >= w[0], "cumulative counts regressed: {w:?}");
            }
            assert_eq!(*cum.last().unwrap(), h.count());
            assert_eq!(h.count(), n as u64);
            let (p50, p95, p99) = (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99));
            assert!(
                p50 <= p95 && p95 <= p99,
                "seed {seed}: p50 {p50} p95 {p95} p99 {p99}"
            );
            // Quantiles are bucket upper bounds: positive and finite.
            assert!(p50 > 0.0 && p99.is_finite());
        }
    }

    #[test]
    fn render_is_flat_valid_json() {
        let metrics = Metrics::new();
        metrics.requests_total.fetch_add(3, Ordering::Relaxed);
        metrics.record_status(404);
        metrics.record_status(503);
        metrics.record_decision_latency(0.005);
        metrics.record_request_latency(0.006);
        let stats = CacheStats {
            hits: 2,
            misses: 1,
            evictions: 0,
            entries: 1,
        };
        let doc = Json::parse(&metrics.render(&stats)).unwrap();
        assert_eq!(doc.req::<u64>("requests_total").unwrap(), 3);
        assert_eq!(doc.req::<u64>("client_errors").unwrap(), 1);
        assert_eq!(doc.req::<u64>("server_errors").unwrap(), 1);
        assert_eq!(doc.req::<u64>("cache_hits").unwrap(), 2);
        assert!(doc.req::<f64>("cache_hit_rate").unwrap() > 0.6);
        assert!(doc.req::<f64>("decision_latency_p99_ms").unwrap() >= 5.0 * 0.8);
        // Flat: every value is a number (no nested objects).
        if let Json::Obj(pairs) = &doc {
            assert!(pairs.iter().all(|(_, v)| matches!(v, Json::Num(_))));
        } else {
            panic!("metrics document must be an object");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The batch-size histogram and connection-pool counters ride
        /// into `/metrics` as flat extras; under any load shape the
        /// rendered entries must stay well-formed — exact count, exact
        /// mean (batch sizes are small integers, far from f64 trouble),
        /// ordered quantiles bracketed by the observed range, and a
        /// reuse/open split that accounts for every delivery.
        #[test]
        fn batch_and_pool_entries_render_well_formed(
            sizes in proptest::prop::collection::vec(1u64..=64, 1..200),
            reuses in 0u64..10_000,
            opens in 1u64..10_000,
        ) {
            let mut h = Histogram::default();
            for s in &sizes {
                h.record(*s as f64);
            }
            let extra = vec![
                ("fleet_replan_batch_size_count".to_string(), h.count() as f64),
                ("fleet_replan_batch_size_mean".to_string(), h.mean()),
                ("fleet_replan_batch_size_p50".to_string(), h.quantile(0.50)),
                ("fleet_replan_batch_size_p99".to_string(), h.quantile(0.99)),
                ("fleet_push_conn_reuse".to_string(), reuses as f64),
                ("fleet_push_conn_opened".to_string(), opens as f64),
            ];
            let metrics = Metrics::new();
            let stats = CacheStats { hits: 0, misses: 0, evictions: 0, entries: 0 };
            let doc = Json::parse(&metrics.render_with(&stats, &extra)).unwrap();
            proptest::prop_assert_eq!(
                doc.req::<u64>("fleet_replan_batch_size_count").unwrap(),
                sizes.len() as u64
            );
            let exact_mean = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
            let mean = doc.req::<f64>("fleet_replan_batch_size_mean").unwrap();
            proptest::prop_assert!((mean - exact_mean).abs() < 1e-9);
            let p50 = doc.req::<f64>("fleet_replan_batch_size_p50").unwrap();
            let p99 = doc.req::<f64>("fleet_replan_batch_size_p99").unwrap();
            let (lo, hi) = (
                *sizes.iter().min().unwrap() as f64,
                *sizes.iter().max().unwrap() as f64,
            );
            proptest::prop_assert!(p50 <= p99);
            // Quantiles are bucket upper bounds: at least the smallest
            // observation, within one ×1.25 bucket above the largest.
            proptest::prop_assert!(p50 >= lo && p99 <= hi * 1.25);
            proptest::prop_assert!(
                doc.req::<f64>("fleet_push_conn_reuse").unwrap() >= 0.0
            );
            proptest::prop_assert!(
                doc.req::<f64>("fleet_push_conn_opened").unwrap() >= 1.0
            );
            if let Json::Obj(pairs) = &doc {
                proptest::prop_assert!(
                    pairs.iter().all(|(_, v)| matches!(v, Json::Num(n) if n.is_finite()))
                );
            } else {
                panic!("metrics document must be an object");
            }
        }
    }

    #[test]
    fn render_with_appends_extra_entries_flat() {
        let metrics = Metrics::new();
        let stats = CacheStats {
            hits: 0,
            misses: 0,
            evictions: 0,
            entries: 0,
        };
        let extra = vec![
            ("fleet_jobs".to_string(), 12.0),
            ("fleet_stale_served".to_string(), 3.0),
        ];
        let doc = Json::parse(&metrics.render_with(&stats, &extra)).unwrap();
        assert_eq!(doc.req::<u64>("fleet_jobs").unwrap(), 12);
        assert_eq!(doc.req::<u64>("fleet_stale_served").unwrap(), 3);
        // Extras keep the document flat and do not disturb base keys.
        assert_eq!(doc.req::<u64>("requests_total").unwrap(), 0);
        if let Json::Obj(pairs) = &doc {
            assert!(pairs.iter().all(|(_, v)| matches!(v, Json::Num(_))));
        } else {
            panic!("metrics document must be an object");
        }
    }
}
