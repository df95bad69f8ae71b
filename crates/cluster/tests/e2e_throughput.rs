//! Measurement-path sanity: closed-loop workload clients drive a cluster,
//! stats come out with plausible shapes (nonzero throughput, mode-ordered
//! latencies, scaling with nodes).

use bespokv_cluster::{ClusterSpec, SimCluster};
use bespokv_types::{ConsistencyLevel, Duration, Mode};
use bespokv_workloads::{Distribution, Mix, Workload, WorkloadConfig};

fn measure(mode: Mode, shards: u32, clients: usize, concurrency: usize) -> (f64, f64) {
    let mut cluster = SimCluster::build(ClusterSpec::new(shards, 3, mode));
    let base = Workload::new(WorkloadConfig {
        num_keys: 10_000,
        ..WorkloadConfig::small(Mix::READ_MOSTLY, Distribution::Uniform)
    });
    // Preload so reads hit.
    let mut loader = base.fork(999);
    let items: Vec<_> = (0..10_000)
        .map(|i| (loader.key_at(i), loader.value(i)))
        .collect();
    cluster.preload(items);
    let warmup = Duration::from_millis(300);
    for c in 0..clients {
        let mut w = base.fork(c as u64);
        cluster.add_client(
            Box::new(move || (w.next_op(), String::new(), ConsistencyLevel::Default)),
            concurrency,
            warmup,
            Duration::from_millis(500),
        );
    }
    let window = Duration::from_millis(1200);
    cluster.run_for(warmup + window);
    let stats = cluster.collect_stats(window);
    assert_eq!(stats.errors, 0, "no errors expected");
    (stats.kqps(), stats.mean_latency_ms())
}

#[test]
fn throughput_is_nonzero_and_latency_sane() {
    let (kqps, lat_ms) = measure(Mode::MS_EC, 2, 4, 8);
    assert!(kqps > 10.0, "throughput too low: {kqps} kQPS");
    assert!(
        (0.01..10.0).contains(&lat_ms),
        "implausible latency {lat_ms} ms"
    );
}

#[test]
fn more_shards_give_more_throughput() {
    let (small, _) = measure(Mode::MS_EC, 1, 4, 16);
    let (big, _) = measure(Mode::MS_EC, 4, 16, 16);
    assert!(
        big > small * 2.0,
        "4 shards ({big} kQPS) should far exceed 1 shard ({small} kQPS)"
    );
}

#[test]
fn sc_costs_more_than_ec_under_writes() {
    // Write-heavy: chain replication (2 extra hops) must be slower per op
    // than async propagation.
    let run = |mode| {
        let mut cluster = SimCluster::build(ClusterSpec::new(1, 3, mode));
        let base = Workload::new(WorkloadConfig {
            num_keys: 5_000,
            ..WorkloadConfig::small(Mix::UPDATE_INTENSIVE, Distribution::Uniform)
        });
        let warmup = Duration::from_millis(200);
        for c in 0..4 {
            let mut w = base.fork(c);
            cluster.add_client(
                Box::new(move || (w.next_op(), String::new(), ConsistencyLevel::Default)),
                8,
                warmup,
                Duration::from_millis(500),
            );
        }
        let window = Duration::from_millis(1000);
        cluster.run_for(warmup + window);
        cluster.collect_stats(window)
    };
    let sc = run(Mode::MS_SC);
    let ec = run(Mode::MS_EC);
    assert!(
        ec.qps() > sc.qps(),
        "MS+EC ({:.0}) should out-throughput MS+SC ({:.0}) on 50% writes",
        ec.qps(),
        sc.qps()
    );
    assert!(
        sc.latency.mean() > ec.latency.mean(),
        "SC write latency should exceed EC"
    );
}

#[test]
fn chain_write_latency_grows_a_constant_step_per_link() {
    // A closed loop of one writer measures pure chain latency: each link
    // adds one hop down the chain and one ack hop back up, so every link
    // must cost the same step. A write held back at the head (a batching
    // timer) would flatten the curve instead.
    let latency_ms = |replicas| {
        let mut cluster = SimCluster::build(ClusterSpec::new(1, replicas, Mode::MS_SC));
        let mut w = Workload::new(WorkloadConfig {
            num_keys: 5_000,
            ..WorkloadConfig::small(Mix::read_write(0.0), Distribution::Uniform)
        })
        .fork(1);
        let warmup = Duration::from_millis(200);
        cluster.add_client(
            Box::new(move || (w.next_op(), String::new(), ConsistencyLevel::Default)),
            1,
            warmup,
            Duration::from_millis(500),
        );
        let window = Duration::from_millis(500);
        cluster.run_for(warmup + window);
        cluster.collect_stats(window).mean_latency_ms()
    };
    let l: Vec<f64> = (1..=3).map(latency_ms).collect();
    let (first, second) = (l[1] - l[0], l[2] - l[1]);
    assert!(
        first > 0.0 && second > 0.0,
        "chain latency must grow with every link: {l:?} ms"
    );
    assert!(
        (second - first).abs() <= 0.25 * first,
        "each link should add the same step: {l:?} ms"
    );
}

#[test]
fn deterministic_measurements() {
    let a = measure(Mode::AA_EC, 1, 2, 4);
    let b = measure(Mode::AA_EC, 1, 2, 4);
    assert_eq!(a, b, "simulation must be deterministic");
}
