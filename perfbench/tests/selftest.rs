//! Self-tests of the benchmark: same seed, same virtual results and
//! per-layer counts; another seed, another input schedule.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use xrdma_perfbench::{lane, run_world, world_seed, Spec};

const SHORT: Spec = Spec {
    span_ns: 3_000_000,
    drain_ns: 1_000_000,
    slices: 4,
    worlds: 1,
};

#[test]
fn serial_same_seed_is_byte_identical() {
    for workload in ["rpc_small", "incast_bulk", "mux_fanout"] {
        let a = run_world(workload, 11, &SHORT, 1);
        let b = run_world(workload, 11, &SHORT, 1);
        assert!(a.errors.is_empty(), "{workload}: {:?}", a.errors);
        assert!(a.ops.completed > 0, "{workload} completed nothing");
        assert_eq!(a.digest(), b.digest(), "{workload}");
    }
}

/// Timed runs of `lane_incast` run on one shard and must reproduce the
/// two-shard run of the same world.
#[test]
fn lane_same_seed_is_byte_identical_at_one_and_two_shards() {
    let spec = Spec {
        span_ns: 1_000_000,
        ..SHORT
    };
    let a = lane::lane_incast(11, &spec, lane::SHARDS);
    let b = lane::lane_incast(11, &spec, lane::SHARDS);
    let c = lane::lane_incast(11, &spec, lane::TIMED_SHARDS);
    assert!(a.errors.is_empty(), "{:?}", a.errors);
    assert!(a.ops.completed > 0);
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.digest(), c.digest());
}

#[test]
fn another_seed_changes_the_arrival_schedule() {
    let a = run_world("rpc_small", 11, &SHORT, 1);
    let b = run_world("rpc_small", 12, &SHORT, 1);
    assert_ne!(a.ops.schedule_hash, 0);
    assert_ne!(a.ops.schedule_hash, b.ops.schedule_hash);
    assert_ne!(a.ops.lat_ns, b.ops.lat_ns);
}

#[test]
fn worlds_of_a_repetition_get_distinct_seeds() {
    let seeds: Vec<u64> = (0..4).map(|k| world_seed(11, k)).collect();
    assert_eq!(seeds[0], 11);
    for i in 0..seeds.len() {
        for j in i + 1..seeds.len() {
            assert_ne!(seeds[i], seeds[j]);
        }
    }
}
