//! Measurement primitives: latency histograms, throughput timelines,
//! transport edge counters, and aggregated run statistics.

use bespokv_runtime::tcp::{TcpServer, TcpServerStats};
use bespokv_types::{Duration, Instant, OverloadSnapshot, SkewSnapshot};

/// Geometric-bucket latency histogram.
///
/// Bucket `i` covers `[BASE * GROWTH^i, BASE * GROWTH^(i+1))` with
/// `BASE = 1 us` and `GROWTH = 1.2`: 128 buckets span 1 us to ~1.3 s with
/// <=20% relative error — plenty for reporting averages and tail
/// percentiles of KV operations.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

const BASE_NS: f64 = 1_000.0;
const GROWTH: f64 = 1.2;
const NUM_BUCKETS: usize = 128;

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    fn bucket_of(ns: u64) -> usize {
        if (ns as f64) <= BASE_NS {
            return 0;
        }
        let i = ((ns as f64) / BASE_NS).ln() / GROWTH.ln();
        (i as usize).min(NUM_BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, latency: Duration) {
        let ns = latency.as_nanos();
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.sum_ns / self.count)
    }

    /// Largest sample.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// Approximate percentile (`p` in 0..=100).
    pub fn percentile(&self, p: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let want = ((p / 100.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= want {
                let upper = BASE_NS * GROWTH.powi(i as i32 + 1);
                return Duration::from_nanos(upper as u64);
            }
        }
        self.max()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Completions per fixed time bucket (for timeline figures).
#[derive(Clone, Debug)]
pub struct Timeline {
    bucket: Duration,
    counts: Vec<u64>,
}

impl Timeline {
    /// Creates a timeline with the given bucket width.
    pub fn new(bucket: Duration) -> Self {
        Timeline {
            bucket,
            counts: Vec::new(),
        }
    }

    /// Records a completion at `t`.
    pub fn record(&mut self, t: Instant) {
        let idx = (t.as_nanos() / self.bucket.as_nanos().max(1)) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// Bucket width.
    pub fn bucket(&self) -> Duration {
        self.bucket
    }

    /// (bucket start seconds, throughput in ops/s) series.
    pub fn series(&self) -> Vec<(f64, f64)> {
        let w = self.bucket.as_secs_f64();
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as f64 * w, c as f64 / w))
            .collect()
    }

    /// Merges another timeline (same bucket width) into this one.
    pub fn merge(&mut self, other: &Timeline) {
        assert_eq!(self.bucket, other.bucket, "bucket width mismatch");
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
    }
}

/// Aggregated TCP edge counters across a cluster's controlet servers.
///
/// A connection dropped for a malformed stream is invisible to the request
/// metrics above (no request ever parsed), so the edge exports it as its
/// own counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Connections accepted across all servers.
    pub connections_accepted: u64,
    /// Connections dropped because the peer sent a malformed stream.
    pub protocol_error_drops: u64,
    /// Connections refused at the `max_connections` cap.
    pub connections_refused: u64,
    /// Shed/expiry/containment events from the overload-protection layer
    /// (edges, controlets, clients sharing one counter set).
    pub overload: OverloadSnapshot,
    /// Skew-engine activity (sketch traffic, validating-cache hits,
    /// coalesced reads, hot-routing decisions).
    pub skew: SkewSnapshot,
}

impl EdgeStats {
    /// Folds one server's counters into the aggregate.
    pub fn absorb(&mut self, s: TcpServerStats) {
        self.connections_accepted += s.connections_accepted;
        self.protocol_error_drops += s.protocol_error_drops;
        self.connections_refused += s.connections_refused;
    }

    /// Folds an overload-counter snapshot into the aggregate.
    pub fn absorb_overload(&mut self, s: OverloadSnapshot) {
        let o = &mut self.overload;
        o.queue_shed += s.queue_shed;
        o.mailbox_shed += s.mailbox_shed;
        o.relay_shed += s.relay_shed;
        o.deadline_expired += s.deadline_expired;
        o.head_window_shed += s.head_window_shed;
        o.slow_slave_trims += s.slow_slave_trims;
        o.slow_slave_resyncs += s.slow_slave_resyncs;
        o.breaker_trips += s.breaker_trips;
        o.retries_denied += s.retries_denied;
    }

    /// Folds a skew-engine snapshot into the aggregate. The skew state is
    /// deployment-wide (one per fast-path table), so unlike per-server
    /// stats this is absorbed once per cluster, not once per edge.
    pub fn absorb_skew(&mut self, s: SkewSnapshot) {
        let k = &mut self.skew;
        k.sketch_ops += s.sketch_ops;
        k.hot_lookups += s.hot_lookups;
        k.epochs += s.epochs;
        k.cache_hits += s.cache_hits;
        k.cache_fills += s.cache_fills;
        k.cache_invalidated += s.cache_invalidated;
        k.coalesce_leaders += s.coalesce_leaders;
        k.coalesced += s.coalesced;
        k.hot_routed += s.hot_routed;
    }

    /// Snapshots and sums the counters of every given server.
    pub fn collect<'a>(servers: impl IntoIterator<Item = &'a TcpServer>) -> EdgeStats {
        let mut agg = EdgeStats::default();
        for s in servers {
            agg.absorb(s.stats());
        }
        agg
    }
}

impl std::fmt::Display for EdgeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "edge: {} conns accepted, {} refused, {} dropped on protocol errors; \
             {}; {}",
            self.connections_accepted,
            self.connections_refused,
            self.protocol_error_drops,
            self.overload,
            self.skew,
        )
    }
}

/// Aggregated results of one measured run.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Completed operations inside the measurement window.
    pub completed: u64,
    /// Failed operations (after retries).
    pub errors: u64,
    /// Measurement window length.
    pub window: Duration,
    /// Latency distribution.
    pub latency: LatencyHistogram,
    /// Throughput timeline (whole run, including warmup).
    pub timeline: Timeline,
}

impl RunStats {
    /// Throughput in operations per second over the window.
    pub fn qps(&self) -> f64 {
        if self.window == Duration::ZERO {
            return 0.0;
        }
        self.completed as f64 / self.window.as_secs_f64()
    }

    /// Throughput in thousands of queries per second (the paper's unit).
    pub fn kqps(&self) -> f64 {
        self.qps() / 1e3
    }

    /// Mean latency in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        self.latency.mean().as_millis_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_and_percentiles() {
        let mut h = LatencyHistogram::new();
        for us in [100u64, 200, 300, 400, 1000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), Duration::from_micros(400));
        // p50 should land near 300 us (within bucket growth error).
        let p50 = h.percentile(50.0).as_micros();
        assert!((240..=400).contains(&p50), "p50 = {p50}us");
        let p100 = h.percentile(100.0).as_micros();
        assert!(p100 >= 1000, "p100 = {p100}us");
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_micros(50));
        b.record(Duration::from_micros(500));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.max() >= Duration::from_micros(500));
    }

    #[test]
    fn timeline_buckets_throughput() {
        let mut t = Timeline::new(Duration::from_secs(1));
        for ms in [100u64, 200, 1500, 1600, 1700] {
            t.record(Instant::ZERO + Duration::from_millis(ms));
        }
        let series = t.series();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].1, 2.0);
        assert_eq!(series[1].1, 3.0);
    }

    #[test]
    fn run_stats_qps() {
        let stats = RunStats {
            completed: 5000,
            errors: 0,
            window: Duration::from_secs(5),
            latency: LatencyHistogram::new(),
            timeline: Timeline::new(Duration::from_secs(1)),
        };
        assert_eq!(stats.qps(), 1000.0);
        assert_eq!(stats.kqps(), 1.0);
    }

    #[test]
    fn edge_stats_aggregate_server_counters() {
        let mut agg = EdgeStats::default();
        agg.absorb(TcpServerStats {
            connections_accepted: 3,
            protocol_error_drops: 1,
            connections_refused: 2,
            pipeline_shed: 0,
        });
        agg.absorb(TcpServerStats {
            connections_accepted: 2,
            protocol_error_drops: 0,
            connections_refused: 1,
            pipeline_shed: 0,
        });
        assert_eq!(agg.connections_accepted, 5);
        assert_eq!(agg.protocol_error_drops, 1);
        assert_eq!(agg.connections_refused, 3);
        assert!(agg.to_string().contains("1 dropped"));
        assert!(agg.to_string().contains("3 refused"));
    }

    #[test]
    fn edge_stats_absorb_overload_snapshot() {
        let mut agg = EdgeStats::default();
        let s = OverloadSnapshot {
            relay_shed: 2,
            deadline_expired: 3,
            ..OverloadSnapshot::default()
        };
        agg.absorb_overload(s);
        agg.absorb_overload(s);
        assert_eq!(agg.overload.relay_shed, 4);
        assert_eq!(agg.overload.total_shed(), 10);
        assert!(agg.to_string().contains("4 relay"));
    }

    #[test]
    fn edge_stats_collect_from_live_server() {
        use bespokv_proto::client::{RespBody, Response};
        use bespokv_proto::parser::{BinaryParser, ProtocolParser};
        use std::io::Write;
        use std::sync::Arc;
        let server = TcpServer::bind(
            "127.0.0.1:0",
            Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>),
            Arc::new(|req| Response::ok(req.id, RespBody::Done)),
        )
        .unwrap();
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while EdgeStats::collect([&server]).protocol_error_drops == 0 {
            assert!(std::time::Instant::now() < deadline, "drop never surfaced");
            std::thread::yield_now();
        }
        let agg = EdgeStats::collect([&server]);
        assert_eq!(agg.connections_accepted, 1);
        assert_eq!(agg.protocol_error_drops, 1);
        server.stop();
    }

    #[test]
    fn tiny_latencies_land_in_first_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_nanos(1));
        h.record(Duration::ZERO);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(99.0) <= Duration::from_micros(2));
    }
}
